//! Structured per-query log: one JSON line per served query.
//!
//! This is the record the `lsi serve` daemon emits per request; the
//! one-shot entry points ([`LsiModel::query`], [`LsiModel::query_top`],
//! [`LsiModel::query_by_doc`]) emit it too, so the schema is shared
//! between CLI runs and the daemon.
//!
//! [`LsiModel::query`]: crate::LsiModel::query
//! [`LsiModel::query_top`]: crate::LsiModel::query_top
//! [`LsiModel::query_by_doc`]: crate::LsiModel::query_by_doc
//!
//! Armed by `LSI_QUERY_LOG=<path>` (append) or `LSI_QUERY_LOG=-` /
//! `stderr` (stderr), read once per process. Disarmed cost is one
//! `OnceLock` load plus an `Option` check per call site — the same
//! budget as the failpoint fast path (DESIGN.md §3g).
//!
//! Schema (one compact JSON object per line; fields absent when the
//! stage that produces them did not run):
//!
//! ```json
//! {"trace_id":"q1234-7","kind":"top","n_docs":2000,"batch":3,
//!  "project_us":8.1,"precision":"f32","z":10,"nprobe":8,
//!  "lists_probed":8,"survivors":1180,"probe_us":2.3,"sweep_us":41.2,
//!  "candidates":64,"rerank_us":12.9,"path":"pruned",
//!  "results":10,"top_score":0.93,"margin":0.04,"total_us":78.5}
//! ```
//!
//! `path` is how the scoring executor served the query: `pruned` (its
//! rows were the survivors of the probed cluster lists — `nprobe` is
//! the requested probe depth, `lists_probed` the clamped number of
//! lists actually probed, `survivors` the docs swept, and `probe_us`
//! the centroid scan), `compressed` (all rows, the compressed sweep
//! plus exact re-rank served it), `fallback` (the compressed sweep ran
//! but could not certify or went non-finite, so the f64 sweep over the
//! same rows served it — `fallback_us` carries that sweep), `exact` (no
//! compressed store), or `full` for the full-ranking entry points.
//! `batch` is the number of queries scored together in one executor
//! call. `margin` is the top-1 − top-2 exact cosine gap.
//!
//! `trace_id` defaults to a per-process `q<pid>-<seq>`; a serving
//! layer overrides it per request through the [`RequestCtx`] it hands
//! to the batch entry point, so the daemon's query-log lines join with
//! its access-log lines on the request id, and `wait_us` (time spent
//! queued before scoring) rides along with the phase timings.
//! Only successfully served queries are logged; errors surface through
//! the usual typed-error path and event log instead.
//!
//! Each query's fields accumulate in its own `Record`, so the queries
//! of one batch never interleave fields; the final line write is
//! serialized by a sink mutex.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use lsi_obs::Json;

use crate::query::RankedList;

enum Sink {
    Stderr,
    File(Mutex<std::fs::File>),
}

static SINK: OnceLock<Option<Sink>> = OnceLock::new();

/// Per-process query sequence number feeding `trace_id`.
/// Relaxed: ids only need to be unique, not ordered with other memory.
static SEQ: AtomicU64 = AtomicU64::new(1);

fn sink() -> Option<&'static Sink> {
    SINK.get_or_init(|| {
        let spec = std::env::var("LSI_QUERY_LOG").ok()?;
        let spec = spec.trim();
        if spec.is_empty() {
            return None;
        }
        if spec == "-" || spec == "stderr" {
            return Some(Sink::Stderr);
        }
        match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(spec)
        {
            Ok(f) => Some(Sink::File(Mutex::new(f))),
            Err(e) => {
                lsi_obs::warn!("cannot open LSI_QUERY_LOG file `{spec}`: {e}");
                None
            }
        }
    })
    .as_ref()
}

/// Whether query logging is armed (`LSI_QUERY_LOG` set and usable).
#[inline]
pub(crate) fn enabled() -> bool {
    sink().is_some()
}

/// Request-scoped context a serving layer stamps onto a query's
/// record: the server's request id (so query-log lines join with
/// access-log lines) and the time the request spent queued.
#[derive(Debug, Clone)]
pub struct RequestCtx {
    /// The serving layer's request id, replacing the default
    /// per-process `q<pid>-<seq>` trace id.
    pub trace_id: String,
    /// Queue time (enqueue → scoring start), microseconds.
    pub wait_us: f64,
}

/// Start timing a phase: `Some(now)` only when logging is armed, so
/// disarmed runs never touch the clock.
pub(crate) fn timer() -> Option<Instant> {
    enabled().then(Instant::now)
}

/// One query's record, filled while the query is scored and written by
/// [`Record::finish`]. Inert when logging is disarmed: no allocation,
/// no clock reads, and every setter is a no-op.
pub(crate) struct Record {
    /// Start of the query; `None` for an inert record.
    t0: Option<Instant>,
    ctx: Option<RequestCtx>,
    fields: Vec<(&'static str, Json)>,
}

impl Record {
    /// Start a record for one query of the given kind (`"full"`,
    /// `"top"`, `"doc"`).
    pub(crate) fn new(kind: &'static str, ctx: Option<RequestCtx>) -> Record {
        if !enabled() {
            return Record::off();
        }
        Record {
            t0: Some(Instant::now()),
            ctx,
            fields: vec![("kind", Json::Str(kind.to_string()))],
        }
    }

    /// A record that is never written: rankings requested directly
    /// through the projected-vector API.
    pub(crate) fn off() -> Record {
        Record {
            t0: None,
            ctx: None,
            fields: Vec::new(),
        }
    }

    /// Set (or overwrite) a field.
    pub(crate) fn put(&mut self, key: &'static str, v: Json) {
        if self.t0.is_some() {
            self.fields.retain(|(k, _)| *k != key);
            self.fields.push((key, v));
        }
    }

    pub(crate) fn num(&mut self, key: &'static str, v: f64) {
        self.put(key, Json::Num(v));
    }

    pub(crate) fn str(&mut self, key: &'static str, v: &str) {
        if self.t0.is_some() {
            self.put(key, Json::Str(v.to_string()));
        }
    }

    /// Record the time since `t` (from [`timer`]) under `key`, in µs.
    pub(crate) fn done(&mut self, t: Option<Instant>, key: &'static str) {
        if let Some(t) = t {
            self.num(key, t.elapsed().as_secs_f64() * 1e6);
        }
    }

    /// Emit the record for a successfully served query: stamps the
    /// trace id, result stats, and total latency, then writes one
    /// compact JSON line to the sink.
    pub(crate) fn finish(self, ranked: &RankedList) {
        let Some(t0) = self.t0 else {
            return;
        };
        let (trace_id, wait_us) = match self.ctx {
            Some(c) => (c.trace_id, Some(c.wait_us)),
            None => (
                format!(
                    "q{}-{}",
                    std::process::id(),
                    // Relaxed: see SEQ.
                    SEQ.fetch_add(1, Ordering::Relaxed)
                ),
                None,
            ),
        };
        let mut out: Vec<(String, Json)> =
            vec![("trace_id".to_string(), Json::Str(trace_id))];
        out.extend(self.fields.into_iter().map(|(k, v)| (k.to_string(), v)));
        if let Some(w) = wait_us {
            out.push(("wait_us".to_string(), Json::Num(w)));
        }
        out.push((
            "results".to_string(),
            Json::Num(ranked.matches.len() as f64),
        ));
        if let Some(top) = ranked.matches.first() {
            out.push(("top_score".to_string(), Json::Num(top.cosine)));
            if let Some(second) = ranked.matches.get(1) {
                out.push((
                    "margin".to_string(),
                    Json::Num(top.cosine - second.cosine),
                ));
            }
        }
        out.push((
            "total_us".to_string(),
            Json::Num(t0.elapsed().as_secs_f64() * 1e6),
        ));
        write_line(&Json::Obj(out).to_string_compact());
    }
}

fn write_line(line: &str) {
    match sink() {
        Some(Sink::Stderr) => {
            let mut err = std::io::stderr().lock();
            let _ = writeln!(err, "{line}");
        }
        Some(Sink::File(m)) => {
            let mut f = m.lock().unwrap_or_else(|p| p.into_inner());
            let _ = writeln!(f, "{line}");
        }
        None => {}
    }
}
