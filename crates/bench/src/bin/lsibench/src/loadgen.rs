//! The load generator: worker threads, each holding one keep-alive
//! connection, plus the calling thread, which only supervises (it polls
//! `/stats` about once a second through a callback).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

use crate::http::{query_target, Client};

/// Open-loop connections. The host this was sized on has two CPUs, and
/// more would only make the generator compete with the daemon for them.
const OPEN_CONNECTIONS: usize = 2;
/// Closed-loop connections. With two, the clients lock into step, either
/// always coalesced into batches of two or never, and throughput on the
/// exact policy swung 3x between runs; three keep batches mixed. The
/// daemon's fourth connection worker stays free for `/stats`.
const CLOSED_CONNECTIONS: usize = 3;

/// One `/query` request as the generator saw it. Times are seconds from
/// the phase start.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the query text within the phase's slice.
    pub query: usize,
    /// When the request was due: its scheduled time in an open loop, its
    /// send time in a closed loop.
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    /// HTTP status, or 0 when no response arrived.
    pub status: u16,
    /// The response body, kept for sampled and failed requests.
    pub body: Option<Vec<u8>>,
    /// Why no response arrived.
    pub error: Option<String>,
}

impl Sample {
    pub fn ok(&self) -> bool {
        self.status == 200
    }

    /// Latency from the due time: in an open loop this includes any time
    /// the request waited behind a stalled one, so stalls are not hidden.
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    /// What went wrong, for a failed request.
    pub fn failure(&self) -> String {
        match (&self.error, &self.body) {
            (Some(e), _) => format!("no response: {e}"),
            (None, body) => format!(
                "status {}: {}",
                self.status,
                String::from_utf8_lossy(body.as_deref().unwrap_or_default()).trim()
            ),
        }
    }
}

fn since(t0: Instant) -> f64 {
    Instant::now().saturating_duration_since(t0).as_secs_f64()
}

/// One request. `due` of `None` makes it due when it is sent (closed
/// loop). The send time is taken once the request is on the socket.
fn exchange(
    client: &mut Client,
    t0: Instant,
    query: usize,
    due: Option<f64>,
    text: &str,
    keep: bool,
) -> Sample {
    let target = query_target(text);
    let mut sent = None;
    let resp = client.get_with(&target, || sent = Some(since(t0)));
    let done = since(t0);
    let sent = sent.unwrap_or(done);
    let (status, body, error) = match resp {
        Ok(r) => {
            let keep = keep || r.status != 200;
            (r.status, keep.then_some(r.body), None)
        }
        Err(e) => (0, None, Some(e.to_string())),
    };
    Sample {
        query,
        due: due.unwrap_or(sent),
        sent,
        done,
        status,
        body,
        error,
    }
}

/// Wait for the workers, calling `tick` about once a second meanwhile.
fn supervise(
    workers: &[ScopedJoinHandle<'_, Vec<Sample>>],
    until: Option<Instant>,
    tick: &mut dyn FnMut(),
) {
    let mut next_tick = Instant::now() + Duration::from_secs(1);
    loop {
        let now = Instant::now();
        let done = match until {
            Some(t) => now >= t,
            None => workers.iter().all(|w| w.is_finished()),
        };
        if done {
            return;
        }
        if now >= next_tick {
            tick();
            next_tick += Duration::from_secs(1);
        }
        let step = until.map_or(Duration::from_millis(20), |t| {
            t.saturating_duration_since(now)
        });
        std::thread::sleep(step.min(Duration::from_millis(20)));
    }
}

fn collect(workers: Vec<ScopedJoinHandle<'_, Vec<Sample>>>) -> Result<Vec<Sample>, String> {
    let mut all = Vec::new();
    for w in workers {
        all.extend(
            w.join()
                .map_err(|_| "a load generator thread panicked".to_string())?,
        );
    }
    all.sort_by_key(|s| s.query);
    Ok(all)
}

/// Open loop: request `i` is due `schedule[i]` seconds after `t0` and
/// uses `queries[i]`. Each worker takes the next due request when it is
/// free, so when both are busy a request goes out late, and its latency
/// still counts from when it was due. `keep_body(i)` selects the
/// responses to keep for the output checks.
pub fn open_loop(
    addr: SocketAddr,
    t0: Instant,
    schedule: &[f64],
    queries: &[String],
    keep_body: &(dyn Fn(usize) -> bool + Sync),
    tick: &mut dyn FnMut(),
) -> Result<Vec<Sample>, String> {
    if queries.len() < schedule.len() {
        return Err("fewer query texts than scheduled requests".to_string());
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..OPEN_CONNECTIONS)
            .map(|_| {
                s.spawn(|| {
                    let mut client = Client::new(addr);
                    let mut out = Vec::new();
                    loop {
                        // Relaxed: the counter only hands out distinct
                        // request indices; samples come back through join.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&due) = schedule.get(i) else {
                            return out;
                        };
                        let due_at = t0 + Duration::from_secs_f64(due);
                        if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        out.push(exchange(
                            &mut client,
                            t0,
                            i,
                            Some(due),
                            &queries[i],
                            keep_body(i),
                        ));
                    }
                })
            })
            .collect();
        supervise(&workers, None, tick);
        collect(workers)
    })
}

/// Closed loop, from `t0` on: each worker sends its next request as soon
/// as the previous response arrives. After `run_for`, `at_end` runs while
/// requests are still in flight (the caller sends SIGTERM there), then
/// the workers stop. Returns the samples and the result of `at_end`.
pub fn closed_loop<R>(
    addr: SocketAddr,
    t0: Instant,
    queries: &[String],
    run_for: Duration,
    tick: &mut dyn FnMut(),
    at_end: impl FnOnce() -> R,
) -> Result<(Vec<Sample>, R), String> {
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLOSED_CONNECTIONS)
            .map(|_| {
                s.spawn(|| {
                    let mut client = Client::new(addr);
                    let mut out = Vec::new();
                    // Relaxed: `stop` only ends the loop and publishes no
                    // data; the samples come back through join.
                    while !stop.load(Ordering::Relaxed) {
                        // Relaxed: distinct indices are all that is needed.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(text) = queries.get(i) else {
                            break;
                        };
                        out.push(exchange(&mut client, t0, i, None, text, false));
                    }
                    out
                })
            })
            .collect();
        supervise(&workers, Some(t0 + run_for), tick);
        let result = at_end();
        // Relaxed: see the load above.
        stop.store(true, Ordering::Relaxed);
        Ok((collect(workers)?, result))
    })
}
