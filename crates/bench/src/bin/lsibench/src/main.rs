//! `lsibench` — the end-to-end benchmark of the LSI toolchain.
//!
//! One run of one workload, every input derived from `--seed`: a
//! 20,000-document synthetic collection, whose first 5,000 documents are
//! also the ingest corpus, 200 held-out documents, a distinct query per
//! request and Poisson arrival schedules. `lsi index` first builds the
//! served database from the 20,000 documents, untimed. Then the run is
//! rounds of the whole pipeline, each against the shipped `lsi` binary,
//! repeated until `--seconds` is spent (at least three, at most eight):
//!
//! 1. **Ingest.** Time `lsi index` of the ingest corpus (parse, weight,
//!    Lanczos SVD, save), then `lsi add` of the held-out set into the
//!    built database twice, by folding-in and by SVD-updating (each a
//!    load, the update, a save).
//! 2. **Cold start.** Start `lsi serve` on the served database and time
//!    spawn to the first 200 on `/query`.
//! 3. **Serve**: a discarded warm-up, an open-loop phase of Poisson
//!    arrivals (latency counted from when each request was due), an idle
//!    window in the first round only, and a closed-loop saturation phase
//!    that ends with SIGTERM while requests are in flight.
//!
//! Then the checks: every daemon exits 0 and loses no request; the
//! databases load with the right document counts and the updated one
//! stays orthogonal; sampled responses match an in-process exact oracle.
//!
//! Everything is measured from outside the programs: wall clocks around
//! subprocesses, HTTP round trips, `/stats`, and `/proc/<pid>`. The host
//! this was calibrated on runs its two CPUs up to 1.8 times slower, each
//! on its own, for seconds to minutes at a time. So each timing is taken
//! many times, in short samples spread across the rounds, and reported
//! by an order statistic or a trimmed mean of them (see `LATENCY_PCT`),
//! which a slow spell that leaves part of the run alone barely moves. A
//! slowdown of the whole host for longer than a run moves every number
//! of the run; no statistic within it can undo that.
//!
//! With `--trace 1` the `lsi` processes also write Chrome traces, and the
//! run ends with a replay of timed calls into each layer's public
//! functions on the same database and queries (see `replay.rs`); that run
//! reports the per-layer metrics instead of the end-to-end ones.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/src/bin/lsibench/Cargo.toml -- \
//!     [--workload exact|pruned] [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Run it from the repository root: it builds `lsi` from that checkout.
//! Scratch files go under `target/lsibench/` and are removed after each
//! run; traces stay in `target/lsibench/trace/`. The last line of stdout
//! is the JSON result; the exit code is nonzero when a check failed.

mod check;
mod http;
mod inputs;
mod loadgen;
mod lsi;
mod procfs;
mod replay;
mod report;
mod stats;

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use lsi_core::{IndexPolicy, LsiModel, Precision};

use crate::http::{query_target, Client};
use crate::inputs::{
    derive, poisson_schedule, write_tsv, Inputs, ALL_DOCS, BASE_DOCS, K, SERVE_DOCS,
};
use crate::loadgen::Sample;
use crate::lsi::Lsi;
use crate::report::{Metrics, Report};
use crate::stats::{median, per_window, percentile, summarize, trimmed_mean};

/// A traffic mix against one database policy.
struct Workload {
    name: &'static str,
    /// Flags for `lsi index`: the retrieval policy persisted with the
    /// database, which `lsi add` keeps and `lsi serve` loads.
    index_flags: &'static [&'static str],
    /// Open-loop offered load, requests per second.
    rate_qps: f64,
    /// Served rankings must equal the exact oracle's. Otherwise they are
    /// only scored by recall against it.
    exact_results: bool,
}

/// `exact` streams the whole f64 document store per query, so the dense
/// sweep and the coalesced batch GEMM dominate. `pruned` sweeps only the
/// 8 probed cluster lists (~1/20 of the rows) in f32, so query
/// projection and HTTP handling dominate; its write path also trains
/// and maintains the cluster index. The rates keep each daemon's CPUs
/// about a fifth busy, so that a host slowdown lengthens service times
/// without also building a queue that lengthens them again.
const WORKLOADS: &[Workload] = &[
    Workload {
        name: "exact",
        index_flags: &[],
        rate_qps: 150.0,
        exact_results: true,
    },
    Workload {
        name: "pruned",
        index_flags: &["--nprobe", "8", "--precision", "f32"],
        rate_qps: 500.0,
        exact_results: false,
    },
];

/// Fewest rounds of a run, whatever `--seconds` says: `setup_s`, the
/// ingest times and CPU per query summarize the rounds.
const MIN_ROUNDS: usize = 3;
/// Most rounds of a run; query texts are generated for this many.
const MAX_ROUNDS: usize = 8;
/// Serving phases of every round, in seconds. The idle window runs in
/// the first round only: it serves the per-layer `serve.idle_cpu_pct`.
const WARM_S: f64 = 0.2;
const OPEN_S: f64 = 1.5;
const IDLE_S: f64 = 1.0;
const SATURATION_S: f64 = 0.6;
/// Open-loop requests per latency window at the workload's rate: over
/// 10 lie above a window's p90.
const LATENCY_WINDOW_REQUESTS: f64 = 100.0;
/// Width of a saturation throughput window, in seconds.
const SATURATION_WINDOW_S: f64 = 0.2;
/// The percentile over a run's windows that latency reports: the least
/// disturbed tenth of the open-loop time. A host slow spell only ever
/// raises a window's latency. Over two sets of calibration runs, this
/// moved from run to run as little as the median over windows for the
/// windows' p50 (and less than the whole phase's p50), and half as much
/// as that median for their p90. Throughput reports the median over its
/// windows and `setup_s` the median over rounds. The command-line times
/// and CPU per query report the mean over rounds without the fastest
/// and the slowest, which moved less from run to run than either the
/// median or the fastest round.
const LATENCY_PCT: f64 = 10.0;
/// Head start before an open-loop phase's first arrival is due, so both
/// load generator threads are running when it is.
const START_SLACK: Duration = Duration::from_millis(20);
/// Query texts generated per second of saturation phase: far above the
/// rate the saturation clients reach, so the phase never runs out.
const SATURATION_MAX_QPS: f64 = 8_000.0;
/// Open-loop responses per round compared against the oracle.
const ORACLE_SAMPLES_PER_ROUND: usize = 170;
/// Idle `/healthz` round trips timed for the HTTP floor.
const HEALTHZ_PROBES: usize = 200;
/// How long the drain probe's last byte is held back after `kill`
/// returns: far longer than the daemon takes to notice SIGTERM (its
/// accept loop polls every millisecond), so the probe completes during
/// the drain.
const DRAIN_PROBE_WAIT: Duration = Duration::from_millis(100);
/// Floor on recall@10 against the exact oracle.
const MIN_RECALL: f64 = 0.95;
/// Largest score difference accepted from the exact workload.
const SCORE_TOLERANCE: f64 = 1e-9;
/// Largest orthogonality loss accepted after SVD-updating.
const MAX_ORTHO_LOSS: f64 = 1e-6;
/// `--seconds` when none is given (the `run_seconds` of BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 50.0;

const USAGE: &str =
    "usage: lsibench [--workload exact|pruned] [--seed N] [--seconds N] [--trace 0|1]
  Runs every workload when --workload is absent. --seconds is the time
  the rounds of one workload may take (at least three rounds run).
  Run from the repository root.";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let mut value = || {
            inline
                .clone()
                .or_else(|| it.next().cloned())
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds expects a number")?;
                if args.seconds.is_nan() || args.seconds < 1.0 {
                    return Err("--seconds must be at least 1".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                }
            }
            _ => return Err(format!("unknown argument {arg:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            lsi_obs::error!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let lsi = match Lsi::build() {
        Ok(lsi) => lsi,
        Err(e) => {
            lsi_obs::error!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        lsi_obs::set_enabled(true);
        lsi_obs::set_trace_enabled(true);
        lsi_obs::register_thread("main");
    }
    let mut all_correct = true;
    for w in WORKLOADS {
        if args.workload.as_deref().is_some_and(|name| name != w.name) {
            continue;
        }
        match run_workload(w, &args, &lsi) {
            Ok(report) => {
                report.print();
                all_correct &= report.correct();
            }
            Err(e) => {
                lsi_obs::error!("workload {}: {e}", w.name);
                return ExitCode::FAILURE;
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Load a database in-process; returns the model and the seconds
/// `LsiModel::from_json` took.
pub fn load_model(path: &Path) -> Result<(LsiModel, f64), String> {
    let json = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let _span = lsi_obs::span("core.model.load_s");
    let t0 = Instant::now();
    let model = LsiModel::from_json(&json).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((model, t0.elapsed().as_secs_f64()))
}

fn run_workload(w: &Workload, args: &Args, lsi: &Lsi) -> Result<Report, String> {
    let root = Path::new("target").join("lsibench");
    let dir = root.join(format!(
        "{}-seed{}-{}",
        w.name,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let trace_dir = if args.trace {
        let d = root
            .join("trace")
            .join(format!("{}-seed{}", w.name, args.seed));
        std::fs::create_dir_all(&d).map_err(|e| format!("cannot create {}: {e}", d.display()))?;
        Some(d)
    } else {
        None
    };
    let result = Run {
        w,
        args,
        lsi,
        dir: &dir,
        trace_dir: trace_dir.as_deref(),
    }
    .execute();
    // The databases take ~200 MB together.
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Counters read from the daemon's `/stats`.
#[derive(Default, Clone, Copy)]
struct DaemonStats {
    batches: f64,
    batched_queries: f64,
    shed: f64,
    timeouts: f64,
    degrade_level: f64,
}

/// Polls `/stats`, keeping the highest degradation level seen.
struct StatsPoller {
    addr: std::net::SocketAddr,
    degrade_max: Cell<f64>,
}

impl StatsPoller {
    fn read(&self) -> Result<DaemonStats, String> {
        let resp = Client::get_once(self.addr, "/stats").map_err(|e| format!("GET /stats: {e}"))?;
        let text = String::from_utf8_lossy(&resp.body);
        let json = lsi_obs::parse_json(&text).map_err(|e| format!("/stats is not JSON: {e}"))?;
        let field = |name: &str| json.get(name).and_then(|v| v.as_f64()).unwrap_or(0.0);
        let stats = DaemonStats {
            batches: field("batches"),
            batched_queries: field("batched_queries"),
            shed: field("shed"),
            timeouts: field("timeouts"),
            degrade_level: field("degrade_level"),
        };
        self.degrade_max
            .set(self.degrade_max.get().max(stats.degrade_level));
        Ok(stats)
    }

    /// The once-a-second sample taken while a phase runs.
    fn tick(&self) {
        if let Err(e) = self.read() {
            lsi_obs::warn!("{e}");
        }
    }
}

/// Operation counts behind `attempted` and `failed`.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn requests<'a>(&mut self, samples: impl IntoIterator<Item = &'a Sample>) {
        for s in samples {
            self.attempted += 1;
            self.failed += u64::from(!s.ok());
        }
    }
}

/// What one round's serving phases observed.
struct Trial {
    /// Spawn to first 200.
    setup_s: f64,
    warm: Vec<Sample>,
    open: Vec<Sample>,
    /// Daemon CPU milliseconds per successful open-loop request.
    cpu_ms_per_query: f64,
    /// Daemon CPU over the idle window, and the idle `/healthz` round
    /// trips after it, in microseconds; first round only.
    idle: Option<(f64, Vec<f64>)>,
    /// Saturation requests sent before SIGTERM.
    saturation: Vec<Sample>,
    /// Seconds into the saturation phase at which `kill -TERM` started.
    kill_at: f64,
    /// Requests surely in flight at SIGTERM, which the drain must answer:
    /// the drain probe, plus closed-loop requests sent before `kill_at`
    /// and still unanswered when `kill` returned.
    drained: usize,
    /// `/stats` before the open-loop phase and just before SIGTERM.
    stats: (DaemonStats, DaemonStats),
    rss_bytes: u64,
    degrade_max: f64,
}

/// One round's query texts, split by phase, with the arrival schedules
/// of its open-loop phases.
struct RoundQueries<'a> {
    /// The daemon's first `/query`.
    probe: &'a str,
    warm: &'a [String],
    open: &'a [String],
    saturation: &'a [String],
    warm_schedule: Vec<f64>,
    open_schedule: Vec<f64>,
}

/// The paths of one run's files.
struct Files {
    serve_tsv: String,
    serve_db: String,
    base_tsv: String,
    add_tsv: String,
    base_db: String,
    fold_db: String,
    update_db: String,
}

struct Run<'a> {
    w: &'a Workload,
    args: &'a Args,
    lsi: &'a Lsi,
    dir: &'a Path,
    trace_dir: Option<&'a Path>,
}

impl Run<'_> {
    fn trace_file(&self, name: &str) -> Option<PathBuf> {
        self.trace_dir.map(|d| d.join(format!("{name}.trace.json")))
    }

    /// Run one `lsi` subcommand; its stdout must contain `expect`.
    fn cli(
        &self,
        args: &[&str],
        trace: &str,
        expect: &str,
        problems: &mut Vec<String>,
    ) -> Result<f64, String> {
        let (secs, stdout) = self.lsi.run(args, self.trace_file(trace).as_deref())?;
        if !stdout.contains(expect) {
            problems.push(format!(
                "lsi {} printed {stdout:?}, expected {expect:?}",
                args[0]
            ));
        }
        Ok(secs)
    }

    /// `lsi index` of `tsv` into `db` with the workload's policy flags.
    fn index<'f>(&self, tsv: &'f str, db: &'f str, k: &'f str) -> Vec<&'f str> {
        let mut index = vec!["index", tsv, "--out", db, "--k", k];
        index.extend(self.w.index_flags);
        index
    }

    /// Build the served database, untimed.
    fn build_served(&self, f: &Files, problems: &mut Vec<String>) -> Result<(), String> {
        let k = K.to_string();
        let index = self.index(&f.serve_tsv, &f.serve_db, &k);
        let expect = format!("indexed {SERVE_DOCS} documents");
        self.cli(&index, "index-served", &expect, problems)?;
        Ok(())
    }

    /// `lsi index`, then `lsi add` of the held-out set by folding-in and
    /// by SVD-updating, each from the built database. Returns the three
    /// wall times. `lsi add` loads base.db, so its document count also
    /// shows that base.db loads with `BASE_DOCS` documents.
    fn ingest(&self, f: &Files, problems: &mut Vec<String>) -> Result<[f64; 3], String> {
        let k = K.to_string();
        let index = self.index(&f.base_tsv, &f.base_db, &k);
        let fold = [
            "add", &f.base_db, &f.add_tsv, "--out", &f.fold_db, "--method", "fold",
        ];
        let update = [
            "add",
            &f.base_db,
            &f.add_tsv,
            "--out",
            &f.update_db,
            "--method",
            "update",
        ];
        let added = format!("database now holds {ALL_DOCS} docs");
        Ok([
            self.cli(
                &index,
                "index",
                &format!("indexed {BASE_DOCS} documents"),
                problems,
            )?,
            self.cli(&fold, "fold", &added, problems)?,
            self.cli(&update, "update", &added, problems)?,
        ])
    }

    /// Start a daemon on `db`, run the serving phases against it, and end
    /// with SIGTERM and its exit. `idle` adds the idle window and the
    /// `/healthz` probes.
    fn serve(
        &self,
        db: &str,
        q: &RoundQueries,
        idle: bool,
        tally: &mut Tally,
        problems: &mut Vec<String>,
    ) -> Result<Trial, String> {
        let (daemon, setup_s) =
            self.lsi
                .start_daemon(Path::new(db), self.trace_file("serve").as_deref(), q.probe)?;
        tally.attempted += 1;
        let (pid, addr) = (daemon.pid(), daemon.addr);
        let poller = StatsPoller {
            addr,
            degrade_max: Cell::new(0.0),
        };

        let t0 = Instant::now() + START_SLACK;
        let warm = loadgen::open_loop(addr, t0, &q.warm_schedule, q.warm, &|_| false, &mut || {
            poller.tick()
        })?;
        tally.requests(&warm);

        let stats0 = poller.read()?;
        let stride = (q.open_schedule.len() / ORACLE_SAMPLES_PER_ROUND).max(1);
        let keep =
            move |i: usize| i.is_multiple_of(stride) && i / stride < ORACLE_SAMPLES_PER_ROUND;
        let t0 = Instant::now() + START_SLACK;
        let cpu_start = procfs::cpu_secs(pid)?;
        let open = loadgen::open_loop(addr, t0, &q.open_schedule, q.open, &keep, &mut || {
            poller.tick()
        })?;
        let cpu_end = procfs::cpu_secs(pid)?;
        tally.requests(&open);
        let answered = open.iter().filter(|s| s.ok()).count().max(1);
        let cpu_ms_per_query = (cpu_end - cpu_start) * 1e3 / answered as f64;

        let idle = if idle {
            std::thread::sleep(Duration::from_secs_f64(IDLE_S));
            let idle_cpu_pct = (procfs::cpu_secs(pid)? - cpu_end) / IDLE_S * 100.0;
            // The HTTP floor, after the idle window so it is not idle CPU.
            let mut client = Client::new(addr);
            let mut healthz_us = Vec::with_capacity(HEALTHZ_PROBES);
            for _ in 0..HEALTHZ_PROBES {
                let t = Instant::now();
                let ok = matches!(client.get("/healthz"), Ok(r) if r.status == 200);
                healthz_us.push(t.elapsed().as_secs_f64() * 1e6);
                tally.attempted += 1;
                tally.failed += u64::from(!ok);
            }
            Some((idle_cpu_pct, healthz_us))
        } else {
            None
        };

        // Saturation, ending with SIGTERM while requests are in flight.
        // `/stats` and VmHWM are read first, so that nothing but the
        // `kill` itself separates the cut-off from the signal. A closed-loop
        // request is often answered within the time `kill` takes, so the
        // drain is also given one request that is surely in flight: the
        // last byte of a query is held back on the daemon's free
        // connection worker until after the signal.
        let t0 = Instant::now();
        let (saturation, end) = loadgen::closed_loop(
            addr,
            t0,
            q.saturation,
            Duration::from_secs_f64(SATURATION_S),
            &mut || poller.tick(),
            || -> Result<_, String> {
                let stats = poller.read()?;
                let rss = procfs::peak_rss_bytes(pid)?;
                let mut drain_probe = Client::new(addr);
                // Once this answers, a connection worker holds the
                // connection, so the next request needs no accept.
                drain_probe
                    .get("/healthz")
                    .map_err(|e| format!("GET /healthz: {e}"))?;
                let mut cut = Err("the drain probe was not sent".to_string());
                let probe = drain_probe.get_split(&query_target(q.probe), || {
                    let kill_at = t0.elapsed().as_secs_f64();
                    cut = daemon
                        .terminate()
                        .map(|()| (kill_at, t0.elapsed().as_secs_f64()));
                    std::thread::sleep(DRAIN_PROBE_WAIT);
                });
                let (kill_at, killed) = cut?;
                Ok((stats, rss, kill_at, killed, probe))
            },
        )?;
        let (stats1, rss_bytes, kill_at, killed, probe) = end?;
        if let Err(e) = daemon.wait_clean_exit() {
            tally.failed += 1;
            problems.push(e);
        }
        if saturation.len() >= q.saturation.len() {
            problems.push("the saturation phase ran out of query texts".to_string());
        }
        // The daemon closes connections once it drains, so a probe answer
        // that keeps the connection open came before the drain began.
        tally.attempted += 1;
        let lost_probe = match probe {
            Ok(r) if r.status == 200 && r.close => None,
            Ok(r) if r.status == 200 => {
                problems.push(format!(
                    "the daemon was not draining {DRAIN_PROBE_WAIT:?} after SIGTERM"
                ));
                None
            }
            Ok(r) => Some(format!("status {}", r.status)),
            Err(e) => Some(e.to_string()),
        };
        if let Some(why) = lost_probe {
            tally.failed += 1;
            problems.push(format!("the request in flight at SIGTERM was lost ({why})"));
        }
        // Requests sent before `kill` started must all succeed. The signal
        // lands while `kill` runs, so only those still unanswered once it
        // returned were surely in flight, like the probe. Requests sent
        // from `kill_at` on raced the shutdown and are not counted.
        let saturation: Vec<Sample> = saturation
            .into_iter()
            .filter(|s| s.sent < kill_at)
            .collect();
        tally.requests(&saturation);
        let drained = 1 + saturation.iter().filter(|s| s.done > killed).count();
        let lost = saturation.iter().filter(|s| !s.ok()).count();
        if lost > 0 {
            problems.push(format!("{lost} requests sent before SIGTERM failed"));
        }
        if let Some(s) = warm.iter().chain(&open).find(|s| !s.ok()) {
            problems.push(format!("a /query request failed ({})", s.failure()));
        }
        Ok(Trial {
            setup_s,
            warm,
            open,
            cpu_ms_per_query,
            idle,
            saturation,
            kill_at,
            drained,
            stats: (stats0, stats1),
            rss_bytes,
            degrade_max: poller.degrade_max.get(),
        })
    }

    /// Check the databases and the sampled responses against the exact
    /// oracle. Returns recall@10, the served model and its load seconds.
    fn check(
        &self,
        f: &Files,
        trials: &[Trial],
        queries: &[RoundQueries],
        problems: &mut Vec<String>,
    ) -> Result<(f64, LsiModel, f64), String> {
        let (fold_model, _) = load_model(Path::new(&f.fold_db))?;
        if fold_model.n_docs() != ALL_DOCS {
            problems.push(format!(
                "fold.db holds {} docs, expected {ALL_DOCS}",
                fold_model.n_docs()
            ));
        }
        drop(fold_model);
        let (update_model, _) = load_model(Path::new(&f.update_db))?;
        if update_model.n_docs() != ALL_DOCS {
            problems.push(format!(
                "update.db holds {} docs, expected {ALL_DOCS}",
                update_model.n_docs()
            ));
        }
        let loss = update_model
            .orthogonality_loss()
            .map_err(|e| format!("orthogonality_loss: {e}"))?;
        let ortho = loss.term_defect.max(loss.doc_defect);
        if ortho.is_nan() || ortho > MAX_ORTHO_LOSS {
            problems.push(format!(
                "update.db orthogonality loss {ortho:e} > {MAX_ORTHO_LOSS:e}"
            ));
        }
        drop(update_model);
        let (mut model, load_s) = load_model(Path::new(&f.serve_db))?;
        if model.n_docs() != SERVE_DOCS {
            problems.push(format!(
                "serve.db holds {} docs, expected {SERVE_DOCS}",
                model.n_docs()
            ));
        }
        let degrade_max = trials.iter().map(|t| t.degrade_max).fold(0.0, f64::max);
        if degrade_max > 0.0 {
            problems.push(format!("the daemon degraded to level {degrade_max}"));
        }
        model
            .set_index_policy(IndexPolicy::Exact)
            .map_err(|e| format!("set_index_policy: {e}"))?;
        model.set_precision(Precision::Exact);
        let mut recalls = Vec::new();
        let mut mismatches = Vec::new();
        for (trial, q) in trials.iter().zip(queries) {
            for s in trial.open.iter().filter(|s| s.ok()) {
                let Some(body) = &s.body else { continue };
                let text = &q.open[s.query];
                let served = match check::parse_hits(body) {
                    Ok(hits) => hits,
                    Err(e) => {
                        mismatches.push(format!("query {text:?}: {e}"));
                        continue;
                    }
                };
                let oracle = model
                    .query_top(text, 10)
                    .map_err(|e| format!("oracle query_top: {e}"))?;
                let oracle = check::oracle_hits(&oracle);
                recalls.push(check::recall(&served, &oracle));
                if self.w.exact_results {
                    if let Err(e) = check::same_ranking(&served, &oracle, SCORE_TOLERANCE) {
                        mismatches.push(format!("query {text:?}: {e}"));
                    }
                }
            }
        }
        if let Some(first) = mismatches.first() {
            problems.push(format!(
                "{} of {} sampled responses differ from the oracle; first: {first}",
                mismatches.len(),
                recalls.len()
            ));
        }
        let recall = recalls.iter().sum::<f64>() / recalls.len().max(1) as f64;
        if recalls.is_empty() || recall < MIN_RECALL {
            problems.push(format!(
                "recall@10 {recall} over {} samples is below {MIN_RECALL}",
                recalls.len()
            ));
        }
        Ok((recall, model, load_s))
    }

    fn execute(&self) -> Result<Report, String> {
        let (w, seed) = (self.w, self.args.seed);
        // Progress with elapsed time, shown with RUST_LSI_LOG=info.
        let t_run = Instant::now();
        let stage = |what: &str| {
            lsi_obs::info!("{} +{:.1}s: {what}", w.name, t_run.elapsed().as_secs_f64())
        };
        let schedules: Vec<(Vec<f64>, Vec<f64>)> = (0..MAX_ROUNDS as u64)
            .map(|r| {
                (
                    poisson_schedule(derive(seed, 10 + 2 * r), w.rate_qps, WARM_S),
                    poisson_schedule(derive(seed, 11 + 2 * r), w.rate_qps, OPEN_S),
                )
            })
            .collect();
        let n_saturation = (SATURATION_MAX_QPS * SATURATION_S).ceil() as usize;
        let per_round =
            |(warm, open): &(Vec<f64>, Vec<f64>)| 1 + warm.len() + open.len() + n_saturation;
        let inputs = Inputs::generate(seed, schedules.iter().map(per_round).sum());
        let mut rest = inputs.queries.as_slice();
        let mut queries = Vec::with_capacity(MAX_ROUNDS);
        for (warm_schedule, open_schedule) in schedules {
            let (probe, r) = rest.split_at(1);
            let (warm, r) = r.split_at(warm_schedule.len());
            let (open, r) = r.split_at(open_schedule.len());
            let (saturation, r) = r.split_at(n_saturation);
            rest = r;
            queries.push(RoundQueries {
                probe: &probe[0],
                warm,
                open,
                saturation,
                warm_schedule,
                open_schedule,
            });
        }
        let file = |name: &str| self.dir.join(name).to_string_lossy().into_owned();
        let f = Files {
            serve_tsv: file("serve.tsv"),
            serve_db: file("serve.db"),
            base_tsv: file("base.tsv"),
            add_tsv: file("add.tsv"),
            base_db: file("base.db"),
            fold_db: file("fold.db"),
            update_db: file("update.db"),
        };
        write_tsv(&inputs.serve, Path::new(&f.serve_tsv))
            .map_err(|e| format!("writing the served corpus: {e}"))?;
        write_tsv(&inputs.base, Path::new(&f.base_tsv))
            .map_err(|e| format!("writing the corpus: {e}"))?;
        write_tsv(&inputs.add, Path::new(&f.add_tsv))
            .map_err(|e| format!("writing the add set: {e}"))?;
        stage("inputs written");
        let mut tally = Tally::default();
        let mut problems = Vec::new();
        self.build_served(&f, &mut problems)?;
        tally.attempted += 1;
        stage("served database built");

        let mut ingest = Vec::with_capacity(MAX_ROUNDS);
        let mut trials = Vec::with_capacity(MAX_ROUNDS);
        // Another round starts only if, taking as long as the last one,
        // it ends within `--seconds`.
        let t_rounds = Instant::now();
        let mut last_round = 0.0;
        for (r, q) in queries.iter().enumerate() {
            if r >= MIN_ROUNDS && t_rounds.elapsed().as_secs_f64() + last_round > self.args.seconds
            {
                break;
            }
            let t_round = Instant::now();
            ingest.push(self.ingest(&f, &mut problems)?);
            tally.attempted += 3;
            trials.push(self.serve(&f.serve_db, q, r == 0, &mut tally, &mut problems)?);
            last_round = t_round.elapsed().as_secs_f64();
            stage(&format!("round {} done", r + 1));
        }
        let (recall, model, load_s) = self.check(&f, &trials, &queries, &mut problems)?;
        stage("checks done");

        // Window statistics, pooled over rounds.
        let latency_width = LATENCY_WINDOW_REQUESTS / w.rate_qps;
        let mut p50 = Vec::new();
        let mut p90 = Vec::new();
        let mut rates = Vec::new();
        let mut n_latency = 0;
        for t in &trials {
            let latency: Vec<(f64, f64)> = t
                .open
                .iter()
                .filter(|s| s.ok())
                .map(|s| (s.due, s.latency() * 1e3))
                .collect();
            n_latency += latency.len();
            let pct = |p| move |v: &[f64]| percentile(v, p).map(|x| x.value);
            p50.extend(per_window(&latency, latency_width, OPEN_S, pct(50.0)));
            p90.extend(per_window(&latency, latency_width, OPEN_S, pct(90.0)));
            let completions: Vec<(f64, f64)> = t
                .saturation
                .iter()
                .filter(|s| s.ok() && s.done <= t.kill_at)
                .map(|s| (s.done, 0.0))
                .collect();
            rates.extend(per_window(
                &completions,
                SATURATION_WINDOW_S,
                t.kill_at,
                |v| Some(v.len() as f64 / SATURATION_WINDOW_S),
            ));
        }
        let column = |i: usize| ingest.iter().map(|times| times[i]).collect::<Vec<f64>>();
        let setups: Vec<f64> = trials.iter().map(|t| t.setup_s).collect();
        let cpu: Vec<f64> = trials.iter().map(|t| t.cpu_ms_per_query).collect();

        let rounds = trials.len();
        let trimmed = |what: &str| format!("trimmed mean of {rounds} {what}");
        let mut e2e = Metrics::default();
        let note = format!("median of {rounds} starts");
        e2e.add_with("setup_s", median(&setups), "s", note);
        for (i, name) in ["build_s", "fold_in_s", "update_s"].into_iter().enumerate() {
            e2e.add_with(name, trimmed_mean(&column(i)), "s", trimmed("runs"));
        }
        let db_bytes = std::fs::metadata(&f.base_db)
            .map_err(|e| format!("{}: {e}", f.base_db))?
            .len();
        e2e.add("db_mb", db_bytes as f64 / 1e6, "MB");
        let (latency_p50_ms, note) = summarize(&p50, LATENCY_PCT, "windows");
        let note = format!("{n_latency} requests; {note}");
        e2e.add_with("latency_p50_ms", latency_p50_ms, "ms", note);
        let (peak, note) = summarize(&rates, 50.0, "windows");
        e2e.add_with("peak_qps", peak, "1/s", note);
        let cpu_ms = trimmed_mean(&cpu);
        e2e.add_with("cpu_ms_per_query", cpu_ms, "ms", trimmed("rounds"));
        let rss = trials.iter().map(|t| t.rss_bytes).max().unwrap_or(0);
        e2e.add("rss_mb", rss as f64 / 1e6, "MB");
        e2e.add("recall_at_10", recall, "ratio");

        let metrics = if self.args.trace {
            let open = queries[trials.len() - 1].open;
            self.layer_metrics(
                &trials,
                &inputs,
                &f,
                open,
                model,
                load_s,
                (
                    latency_p50_ms,
                    summarize(&p90, LATENCY_PCT, "").0,
                    trimmed_mean(&column(0)),
                ),
            )?
        } else {
            e2e
        };
        Ok(Report {
            workload: w.name,
            seed,
            seconds: self.args.seconds,
            trace: self.args.trace,
            attempted: tally.attempted,
            failed: tally.failed,
            problems,
            metrics,
        })
    }

    /// The per-layer metrics of a traced run: what the load generator and
    /// `/stats` saw in the last round (the idle window in the first), then
    /// the layer replay.
    #[allow(clippy::too_many_arguments)]
    fn layer_metrics(
        &self,
        trials: &[Trial],
        inputs: &Inputs,
        f: &Files,
        open_queries: &[String],
        model: LsiModel,
        load_s: f64,
        (latency_p50_ms, latency_p90_ms, build_s): (f64, f64, f64),
    ) -> Result<Metrics, String> {
        let trial = trials.last().ok_or("no round ran")?;
        let (idle_cpu_pct, healthz_us) = trials
            .first()
            .and_then(|t| t.idle.as_ref())
            .ok_or("the first round had no idle window")?;
        let pct = |v: &[f64], p| percentile(v, p).map_or(0.0, |x| x.value);
        let ms = |samples: &[Sample], of: fn(&Sample) -> f64| -> Vec<f64> {
            samples
                .iter()
                .filter(|s| s.ok())
                .map(|s| of(s) * 1e3)
                .collect()
        };
        let latency = ms(&trial.open, Sample::latency);
        let send_lag = ms(&trial.open, |s| s.sent - s.due);
        let saturation = ms(&trial.saturation, Sample::latency);
        let all = || {
            trial
                .warm
                .iter()
                .chain(&trial.open)
                .chain(&trial.saturation)
        };
        let (sent, ok) = (all().count(), all().filter(|s| s.ok()).count());
        let (s0, s1) = trial.stats;
        let mut out = Metrics::default();
        out.add("loadgen.send_lag_p99_ms", pct(&send_lag, 99.0), "ms");
        out.add("loadgen.latency_p90_ms", latency_p90_ms, "ms");
        out.add("loadgen.latency_p99_ms", pct(&latency, 99.0), "ms");
        out.add("loadgen.latency_max_ms", pct(&latency, 100.0), "ms");
        out.add("loadgen.saturation_p90_ms", pct(&saturation, 90.0), "ms");
        out.add("loadgen.sent", sent as f64, "count");
        out.add("loadgen.ok", ok as f64, "count");
        out.add("loadgen.failed", (sent - ok) as f64, "count");
        out.add("serve.healthz_rtt_us", pct(healthz_us, 50.0), "us");
        out.add(
            "serve.batch_size_mean",
            (s1.batched_queries - s0.batched_queries) / (s1.batches - s0.batches).max(1.0),
            "count",
        );
        out.add("serve.degrade_level_max", trial.degrade_max, "count");
        out.add("serve.idle_cpu_pct", *idle_cpu_pct, "%");
        out.add("serve.shed", s1.shed - s0.shed, "count");
        out.add("serve.timeouts", s1.timeouts - s0.timeouts, "count");
        out.add("serve.drain_inflight", trial.drained as f64, "count");
        out.add("core.model.load_s", load_s, "s");
        replay::query_layers(model, open_queries, &mut out)?;
        replay::build_layers(&inputs.base, &mut out)?;
        replay::update_layers(Path::new(&f.base_db), &inputs.add, &mut out)?;
        out.add("traced.latency_p50_ms", latency_p50_ms, "ms");
        out.add("traced.build_s", build_s, "s");
        if let Some(path) = self.trace_file("lsibench") {
            let (events, dropped) = lsi_obs::write_chrome_trace(&path.to_string_lossy())
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!(
                "# wrote {} ({events} events, {dropped} dropped)",
                path.display()
            );
        }
        Ok(out)
    }
}
