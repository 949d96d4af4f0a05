//! The metrics registry: monotonic counters, gauges, and log-bucketed
//! histograms, all thread-safe and cheap enough for kernel call sites.
//!
//! Naming convention (enforced by review, not code):
//! `stage.metric.unit` — e.g. `sparse.matvec.count`,
//! `linalg.gemm.flops.total`, `query.time.us`. Span paths use the same
//! dotted form, one segment per nesting level.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::stats::PhaseStats;

/// A monotonic counter (lock-free).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins gauge holding an `f64` (stored as bits).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.set(0.0);
    }
}

/// Number of histogram buckets.
pub const HIST_BUCKETS: usize = 256;

/// Per-bucket growth factor: bucket upper bounds are `GROWTH^i`, i.e.
/// four buckets per doubling (`2^(1/4)` ≈ 1.189). Quantization error of
/// any percentile is therefore at most one factor of `GROWTH`.
pub const GROWTH: f64 = 1.189_207_115_002_721_1; // 2^(1/4)

/// A log-bucketed histogram for latencies (microseconds) and flop
/// counts: 256 buckets with upper bounds `GROWTH^i` cover `[0, 2^63]`
/// with ≤ 19 % relative quantization error, using one atomic add per
/// record.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>, // HIST_BUCKETS long
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

/// Bucket index for a sample: bucket 0 holds `v <= 1`, bucket `i > 0`
/// holds `GROWTH^(i-1) < v <= GROWTH^i`, the last bucket overflows.
pub fn bucket_index(v: f64) -> usize {
    if !(v > 1.0) {
        return 0;
    }
    let t = v.log2() * 4.0;
    // Snap values that are an exact bucket boundary up to roundoff
    // (log2(GROWTH^i)·4 can land a few ulps above i) before ceiling.
    let i = if (t - t.round()).abs() < 1e-9 {
        t.round()
    } else {
        t.ceil()
    };
    if i >= (HIST_BUCKETS - 1) as f64 {
        HIST_BUCKETS - 1
    } else {
        // log2(v) > 0 here, so i >= 1.
        i as usize
    }
}

/// Upper bound of bucket `i` (the value percentile queries report).
pub fn bucket_upper_bound(i: usize) -> f64 {
    if i == 0 {
        1.0
    } else {
        (i as f64 / 4.0).exp2()
    }
}

fn atomic_f64_min(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    while v < f64::from_bits(cur) {
        match cell.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(c) => cur = c,
        }
    }
}

fn atomic_f64_max(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    while v > f64::from_bits(cur) {
        match cell.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(c) => cur = c,
        }
    }
}

fn atomic_f64_add(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(c) => cur = c,
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }
}

impl Histogram {
    /// Record one sample (negative and NaN samples clamp into bucket 0
    /// and are excluded from min/max/sum bookkeeping only if NaN).
    pub fn record(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        // `bucket_index` clamps into range; `get` keeps the hot
        // recording path total even if the bucket table ever changes.
        if let Some(b) = self.buckets.get(bucket_index(v)) {
            b.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&self.sum_bits, v);
        atomic_f64_min(&self.min_bits, v);
        atomic_f64_max(&self.max_bits, v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Smallest recorded sample (0 if empty).
    pub fn min(&self) -> f64 {
        let v = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        if v.is_finite() {
            v
        } else {
            0.0
        }
    }

    /// Largest recorded sample (0 if empty).
    pub fn max(&self) -> f64 {
        let v = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        if v.is_finite() {
            v
        } else {
            0.0
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`), reported as the upper bound
    /// of the bucket holding the rank-`ceil(q·count)` sample — i.e.
    /// within one `GROWTH` factor above the exact order statistic —
    /// and never above the largest recorded sample. Returns 0 for an
    /// empty histogram.
    pub fn percentile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let target = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        let mut bucket = HIST_BUCKETS - 1;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                bucket = i;
                break;
            }
        }
        bucket_upper_bound(bucket).min(self.max())
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0.0f64.to_bits(), Ordering::Relaxed);
        self.min_bits
            .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        self.max_bits
            .store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
    }
}

/// Point-in-time summary of a histogram, for exporters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistSnapshot {
    /// Sample count.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median (bucket upper bound).
    pub p50: f64,
    /// 90th percentile (bucket upper bound).
    pub p90: f64,
    /// 99th percentile (bucket upper bound).
    pub p99: f64,
}

impl Histogram {
    /// Summarize for export.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            p50: self.percentile(0.50),
            p90: self.percentile(0.90),
            p99: self.percentile(0.99),
        }
    }
}

/// Everything the exporters need, captured at one instant. Maps are
/// sorted by name (the registry stores `BTreeMap`s), so exports are
/// deterministic.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter name → value.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → value.
    pub gauges: Vec<(String, f64)>,
    /// Span path → aggregated work accounting.
    pub spans: Vec<(String, PhaseStats)>,
    /// Histogram name → summary.
    pub hists: Vec<(String, HistSnapshot)>,
}

impl Snapshot {
    /// Look up a span's stats by exact path.
    pub fn span(&self, path: &str) -> Option<&PhaseStats> {
        self.spans.iter().find(|(p, _)| p == path).map(|(_, s)| s)
    }

    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// A metrics registry: named counters, gauges, histograms, and span
/// aggregates. One global instance backs the convenience functions in
/// the crate root; tests may create private instances.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    hists: Mutex<BTreeMap<String, Arc<Histogram>>>,
    spans: Mutex<BTreeMap<String, PhaseStats>>,
}

/// Lock a registry table, recovering from poisoning. Every critical
/// section here is a get-or-create or a read of a `BTreeMap` of
/// handles — a panicking holder can leave at worst a completed insert
/// behind, never a torn entry — and telemetry must not crash the code
/// path it instruments, so the poisoned state is taken as-is.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Registry {
    /// Fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the named counter. The handle stays valid (and
    /// connected) across [`Registry::reset`].
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = lock_recover(&self.counters);
        match map.get(name) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(Counter::default());
                map.insert(name.to_string(), Arc::clone(&c));
                c
            }
        }
    }

    /// Get or create the named gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = lock_recover(&self.gauges);
        match map.get(name) {
            Some(g) => Arc::clone(g),
            None => {
                let g = Arc::new(Gauge::default());
                map.insert(name.to_string(), Arc::clone(&g));
                g
            }
        }
    }

    /// Get or create the named histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = lock_recover(&self.hists);
        match map.get(name) {
            Some(h) => Arc::clone(h),
            None => {
                let h = Arc::new(Histogram::default());
                map.insert(name.to_string(), Arc::clone(&h));
                h
            }
        }
    }

    /// Merge `stats` into the aggregate for span `path`.
    pub fn record_span(&self, path: &str, stats: &PhaseStats) {
        let mut map = lock_recover(&self.spans);
        map.entry(path.to_string())
            .or_default()
            .merge(stats);
    }

    /// Capture the current state of every metric.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: lock_recover(&self.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.value()))
                .collect(),
            gauges: lock_recover(&self.gauges)
                .iter()
                .map(|(k, v)| (k.clone(), v.value()))
                .collect(),
            spans: lock_recover(&self.spans)
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            hists: lock_recover(&self.hists)
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Zero every metric. Handles returned by
    /// [`Registry::counter`]/[`gauge`](Registry::gauge)/
    /// [`histogram`](Registry::histogram) remain connected; span
    /// aggregates are dropped.
    pub fn reset(&self) {
        for c in lock_recover(&self.counters).values() {
            c.reset();
        }
        for g in lock_recover(&self.gauges).values() {
            g.reset();
        }
        for h in lock_recover(&self.hists).values() {
            h.reset();
        }
        lock_recover(&self.spans).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotonic_and_resettable() {
        let r = Registry::new();
        let c = r.counter("x.count");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("x.count").value(), 5);
        r.reset();
        assert_eq!(c.value(), 0, "handle survives reset");
    }

    #[test]
    fn concurrent_counter_increments_from_scoped_threads() {
        let r = Registry::new();
        let c = r.counter("threads.count");
        const THREADS: usize = 8;
        const PER: u64 = 10_000;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..PER {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), THREADS as u64 * PER);
    }

    #[test]
    fn gauge_last_write_wins() {
        let r = Registry::new();
        r.gauge("g").set(3.5);
        r.gauge("g").set(-1.25);
        assert_eq!(r.gauge("g").value(), -1.25);
    }

    #[test]
    fn bucket_boundaries_are_exclusive_below_inclusive_above() {
        // Bucket i holds (GROWTH^(i-1), GROWTH^i]: an exact upper
        // bound lands in its own bucket, a hair above moves up.
        for i in 1..40 {
            let ub = bucket_upper_bound(i);
            assert_eq!(bucket_index(ub), i, "upper bound of bucket {i}");
            assert_eq!(bucket_index(ub * 1.000001), i + 1, "just above bucket {i}");
        }
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(1.0), 0);
        assert_eq!(bucket_index(-3.0), 0);
        assert_eq!(bucket_index(f64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_percentiles_on_known_data() {
        let h = Histogram::default();
        for v in 1..=100 {
            h.record(v as f64);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 100.0);
        // p50 = the bucket holding sample 50; quantization is ≤ GROWTH.
        let p50 = h.percentile(0.5);
        assert!((50.0..=50.0 * GROWTH).contains(&p50), "p50 = {p50}");
        let p99 = h.percentile(0.99);
        assert!((99.0..=99.0 * GROWTH).contains(&p99), "p99 = {p99}");
        assert_eq!(h.percentile(0.0), 1.0, "q=0 clamps to the first sample");
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::default();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.p50, 0.0);
    }

    #[test]
    fn span_records_merge() {
        let r = Registry::new();
        r.record_span("a.b", &PhaseStats::once(10.0, 0.1));
        r.record_span("a.b", &PhaseStats::once(30.0, 0.2));
        let snap = r.snapshot();
        let s = snap.span("a.b").unwrap();
        assert_eq!(s.calls, 2);
        assert_eq!(s.flops, 40.0);
        assert!((s.secs - 0.3).abs() < 1e-12);
    }
}
