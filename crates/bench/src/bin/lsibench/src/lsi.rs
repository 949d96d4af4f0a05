//! The programs under test, run as subprocesses: `lsi` is built from the
//! checkout in the working directory, then driven through its CLI
//! subcommands and its `serve` daemon exactly as a user would.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::http::{query_target, Client};

/// Longest wait for a started daemon to answer its first query.
const STARTUP_TIMEOUT: Duration = Duration::from_secs(60);
/// Longest wait for a daemon to drain and exit after SIGTERM.
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);

/// The built `lsi` binary.
pub struct Lsi {
    bin: PathBuf,
}

impl Lsi {
    /// Build `lsi` in release mode (a no-op when it is up to date) and
    /// take its path from cargo's own report of the artifact, so whatever
    /// chose the target directory, the binary run is the one just built.
    pub fn build() -> Result<Lsi, String> {
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let out = Command::new(cargo)
            .args(["build", "--release", "--offline", "--locked", "--quiet"])
            .args(["--message-format=json", "-p", "lsi-cli", "--bin", "lsi"])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "building lsi failed ({}); run from the repository root",
                out.status
            ));
        }
        let bin = String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter_map(|line| lsi_obs::parse_json(line).ok())
            .find_map(|msg| {
                let name = msg.get("target")?.get("name")?.as_str()?;
                let exe = msg.get("executable")?.as_str()?;
                (name == "lsi").then(|| PathBuf::from(exe))
            })
            .ok_or("cargo reported no lsi executable")?;
        Ok(Lsi { bin })
    }

    fn command(&self, args: &[&str], trace: Option<&Path>) -> Command {
        let mut cmd = Command::new(&self.bin);
        cmd.args(args);
        if let Some(path) = trace {
            cmd.arg(format!("--trace={}", path.display()));
        }
        cmd.stdin(Stdio::null()).stderr(Stdio::inherit());
        cmd
    }

    /// Run one CLI subcommand to completion. Returns its wall seconds,
    /// process start to exit, and its stdout; a nonzero exit is an error.
    pub fn run(&self, args: &[&str], trace: Option<&Path>) -> Result<(f64, String), String> {
        let mut cmd = self.command(args, trace);
        cmd.stdout(Stdio::piped());
        let t0 = Instant::now();
        let out = cmd
            .output()
            .map_err(|e| format!("cannot start lsi {}: {e}", args.join(" ")))?;
        let secs = t0.elapsed().as_secs_f64();
        if !out.status.success() {
            return Err(format!("lsi {} exited with {}", args.join(" "), out.status));
        }
        Ok((secs, String::from_utf8_lossy(&out.stdout).into_owned()))
    }

    /// Start `lsi serve <db> --port 0` and wait for the first 200 on
    /// `/query?q=<probe>`. Returns the daemon and the seconds from spawn
    /// to that response: the cold start a user waits through.
    pub fn start_daemon(
        &self,
        db: &Path,
        trace: Option<&Path>,
        probe: &str,
    ) -> Result<(Daemon, f64), String> {
        let db = db.to_string_lossy();
        let mut cmd = self.command(&["serve", &db, "--port", "0"], trace);
        cmd.stdout(Stdio::piped());
        let t0 = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start lsi serve: {e}"))?;
        let stdout = child.stdout.take();
        let mut daemon = Daemon {
            child,
            stdout: stdout.map(BufReader::new),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        // The daemon prints its bound address once the model is loaded
        // and the socket is listening.
        let mut line = String::new();
        if let Some(out) = daemon.stdout.as_mut() {
            out.read_line(&mut line)
                .map_err(|e| format!("reading lsi serve output: {e}"))?;
        }
        daemon.addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("lsi serve printed {line:?} instead of its address"))?;
        let target = query_target(probe);
        loop {
            match Client::get_once(daemon.addr, &target) {
                Ok(resp) if resp.status == 200 => break,
                Ok(resp) => return Err(format!("first /query answered {}", resp.status)),
                Err(e) if t0.elapsed() > STARTUP_TIMEOUT => {
                    return Err(format!("daemon never answered /query: {e}"));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        Ok((daemon, t0.elapsed().as_secs_f64()))
    }
}

/// A running `lsi serve`. Dropping it before [`Daemon::wait_clean_exit`]
/// (an error path) kills and reaps the process, so none outlives the run.
pub struct Daemon {
    child: Child,
    /// Held open until the daemon exits, so writing its final report to
    /// stdout cannot fail on a closed pipe.
    stdout: Option<BufReader<ChildStdout>>,
    pub addr: SocketAddr,
}

impl Daemon {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Send SIGTERM with the `kill` utility, as an operator would.
    pub fn terminate(&self) -> Result<(), String> {
        let status = Command::new("kill")
            .args(["-TERM", &self.pid().to_string()])
            .status()
            .map_err(|e| format!("cannot run kill: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("kill -TERM {} failed ({status})", self.pid()))
        }
    }

    /// Wait for the daemon to drain and exit; anything but exit code 0
    /// within `EXIT_TIMEOUT` is an error.
    pub fn wait_clean_exit(mut self) -> Result<(), String> {
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("daemon exited with {status} after SIGTERM"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => return Err("daemon still running 30 s after SIGTERM".to_string()),
                Err(e) => return Err(format!("waiting for the daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
