//! `lsi-obs` — zero-dependency observability for the LSI workspace.
//!
//! One crate gives every stage of the pipeline (parse → term-doc
//! matrix → truncated SVD → database assembly → query → folding-in)
//! the same three signals:
//!
//! - **spans** — hierarchical timed regions ([`span`]) with unified
//!   flop/byte accounting ([`add_flops`], [`add_bytes`]), aggregated
//!   per dotted path (`build.svd.lanczos.gram`) as [`PhaseStats`];
//! - **metrics** — named monotonic [`Counter`]s, [`Gauge`]s, and
//!   log-bucketed [`Histogram`]s with p50/p90/p99 extraction;
//! - **events** — leveled stderr diagnostics ([`error!`], [`warn!`],
//!   [`info!`], …) filtered by `RUST_LSI_LOG`.
//!
//! Everything funnels into one process-global [`Registry`], exported
//! as a human-readable table ([`render_table`]) or JSON
//! ([`snapshot_to_json`], [`RunReport`]).
//!
//! Instrumentation is **off by default**: until [`set_enabled`]`(true)`
//! is called, [`span`] and the attribution helpers cost one relaxed
//! atomic load and nothing else, so library crates instrument
//! unconditionally and binaries opt in (`lsi --metrics`,
//! `perf_kernels`). Events are independent of this switch — they are
//! controlled by the level filter alone, so errors always reach
//! stderr.
//!
//! Metric names follow `stage.metric.unit` (`query.time.us`,
//! `linalg.gemm.flops`); span paths are dotted stage hierarchies. See
//! DESIGN.md "Observability" for the taxonomy and for how to
//! instrument a new kernel.

mod alloc;
mod event;
mod export;
mod json;
mod metrics;
mod ryu;
mod span;
mod stats;
mod trace;

pub use alloc::{thread_alloc_totals, CountingAlloc};
pub use event::{event, level_enabled, max_level, set_max_level, Level};
pub use export::{git_sha, git_sha_from, render_table, snapshot_to_json, RunReport};
pub use json::{
    parse as parse_json, write_num as write_json_num, write_str as write_json_str, Json,
    Kind as JsonKind, ParseError, Reader as JsonReader,
};
pub use metrics::{
    bucket_index, bucket_upper_bound, Counter, Gauge, HistSnapshot, Histogram, Registry, Snapshot,
    GROWTH, HIST_BUCKETS,
};
pub use span::SpanGuard;
pub use stats::{PhaseStats, MIN_PHASE_SECS};
pub use trace::{
    chrome_trace_json, register_thread, reset_trace, set_trace_enabled, set_trace_filter,
    trace_enabled, trace_task, trace_task_label, write_chrome_trace, TraceTask, MAX_EVENTS,
};

/// Per-span memory attribution requires the counting allocator to be
/// the process-wide global allocator. Installing it here means every
/// workspace binary that links `lsi-obs` (all of them) gets allocation
/// accounting without further wiring; disarmed cost is one relaxed
/// atomic load per heap call (see `alloc.rs` and DESIGN.md §3g).
#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc = CountingAlloc;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Master switch for spans and metric attribution (not events).
static ENABLED: AtomicBool = AtomicBool::new(false);

static REGISTRY: OnceLock<Registry> = OnceLock::new();

/// Turn span/metric collection on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span/metric collection is currently on. This is the only
/// cost instrumented call sites pay when collection is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-global registry backing all convenience functions.
pub fn registry() -> &'static Registry {
    REGISTRY.get_or_init(Registry::new)
}

/// Open a timed span named `name`, nested under any span already open
/// on this thread. Returns a guard; the span closes (and records) when
/// the guard drops. When collection is disabled this is a no-op.
#[inline]
pub fn span(name: &str) -> SpanGuard {
    if enabled() {
        SpanGuard::open(name)
    } else {
        SpanGuard::noop()
    }
}

/// Attribute floating-point work to the innermost open span on this
/// thread. Flops roll up to enclosing spans when each span closes.
#[inline]
pub fn add_flops(flops: f64) {
    if enabled() {
        span::add_flops_here(flops);
    }
}

/// Attribute bytes moved/materialized to the innermost open span.
#[inline]
pub fn add_bytes(bytes: f64) {
    if enabled() {
        span::add_bytes_here(bytes);
    }
}

/// Increment the named counter by `n`.
#[inline]
pub fn count(name: &str, n: u64) {
    if enabled() {
        registry().counter(name).add(n);
    }
}

/// Set the named gauge.
#[inline]
pub fn gauge_set(name: &str, v: f64) {
    if enabled() {
        registry().gauge(name).set(v);
    }
}

/// Record one sample into the named histogram.
#[inline]
pub fn observe(name: &str, v: f64) {
    if enabled() {
        registry().histogram(name).record(v);
    }
}

/// Record pre-aggregated stats for a sub-phase measured out-of-band
/// (e.g. the Lanczos driver's internal per-phase accounting). The
/// stats land under `<current span path>.<suffix>` — a breakdown
/// alongside the enclosing span, not added to it, so work already
/// attributed via [`add_flops`] is not double counted.
pub fn record_phase(suffix: &str, stats: &PhaseStats) {
    if !enabled() {
        return;
    }
    let prefix = span::current_path();
    let path = if prefix.is_empty() {
        suffix.to_string()
    } else {
        format!("{prefix}.{suffix}")
    };
    registry().record_span(&path, stats);
}

/// Zero every metric in the global registry (counters/gauges/
/// histograms reset, span aggregates dropped).
pub fn reset() {
    registry().reset();
}

/// Capture the current state of the global registry.
pub fn snapshot() -> Snapshot {
    registry().snapshot()
}
