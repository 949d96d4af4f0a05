//! `lsi serve` — a query-serving daemon over a persistent in-memory
//! [`lsi_core::LsiModel`].
//!
//! The CLI's one-shot `lsi query` pays model load (mmap-free full
//! deserialize) per invocation; the daemon amortizes it across a
//! process lifetime and coalesces concurrent queries into one scoring
//! batch ([`lsi_core::LsiModel::query_top_batch_at`]), so on an exact
//! model one sweep of the document matrix scores the whole batch
//! instead of one sweep per request (DESIGN.md §3i).
//!
//! The transport is a hand-rolled bounded HTTP/1.1 server over
//! `std::net` — no async runtime, no external dependencies. Robustness
//! is the design center, in four layers:
//!
//! 1. **Bounded queues + load shedding.** The accept→worker handoff
//!    and the scoring queue are both bounded; past either bound the
//!    server answers a typed `503` with `Retry-After` instead of
//!    queueing unboundedly.
//! 2. **Deadlines.** Every request carries a deadline
//!    (`?timeout_ms=`, capped by the server max). Requests that
//!    expire while queued are dropped *before* scoring and answered
//!    `504`; slow clients are bounded by read/write socket timeouts.
//! 3. **Graceful degradation.** Under sustained queue pressure the
//!    batcher walks a ladder — exact coalesced sweep → cluster-pruned
//!    probes → compressed f32 sweep → narrowed probes — trading recall
//!    for latency *before* shedding. What those rungs need is built on
//!    a thread of its own at the first overload, never on the scoring
//!    thread (see [`batcher`]).
//! 4. **Containment.** Each connection is served under
//!    `catch_unwind`: a panic (e.g. the `serve.batch` failpoint)
//!    answers `500` and the worker keeps serving. SIGTERM/SIGINT stop
//!    the accept loop, drain in-flight requests, and emit a final
//!    [`lsi_obs::RunReport`].

use std::sync::atomic::{AtomicBool, Ordering};

mod batcher;
mod http;
mod server;

pub use server::{ServeConfig, Server, Stats};

/// Process-wide stop flag, set by the signal handlers installed with
/// [`install_signal_handlers`] (and settable by tests or embedders).
/// Every [`Server`] polls it alongside its own per-instance handle.
static STOP: AtomicBool = AtomicBool::new(false);

/// Whether a process-wide stop (SIGTERM/SIGINT) has been requested.
pub fn stop_requested() -> bool {
    // Relaxed: a standalone flag — no other memory is published
    // through it; the accept loop merely needs to observe it soon.
    STOP.load(Ordering::Relaxed)
}

/// Request a process-wide stop, as the signal handlers do. Exposed so
/// tests and embedders can trigger a drain without raising a signal.
pub fn request_stop() {
    // Relaxed: see stop_requested().
    STOP.store(true, Ordering::Relaxed);
}

#[cfg(unix)]
mod sig {
    use std::sync::atomic::Ordering;

    // signal(2) from the C library, which is always linked on unix
    // targets. The handler is passed as a raw function address
    // (`sighandler_t`), so `usize` is ABI-compatible here.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        // Async-signal-safe by construction: a single lock-free atomic
        // store, no allocation, no locks, no I/O.
        // Relaxed: see stop_requested().
        super::STOP.store(true, Ordering::Relaxed);
    }

    pub(super) fn install() {
        let handler: extern "C" fn(i32) = on_signal;
        // SAFETY: `signal` is the C library's signal(2) with the
        // documented signature; `on_signal` is `extern "C"` with the
        // handler ABI and is async-signal-safe (single atomic store).
        // Replacing the default handlers for SIGINT/SIGTERM is the
        // entire point of this call.
        unsafe {
            signal(SIGINT, handler as usize);
            signal(SIGTERM, handler as usize);
        }
    }
}

/// Install SIGTERM/SIGINT handlers that set the process-wide stop
/// flag, turning either signal into a graceful drain. No-op on
/// non-unix targets.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    sig::install();
}
