//! The scoring heart of the daemon: a bounded job queue drained by a
//! single batcher thread that owns the [`LsiModel`].
//!
//! One thread owning the model means scoring needs no model lock:
//! workers enqueue jobs, the batcher pops up to `max_batch` at a
//! time, drops any whose deadline already passed, and scores the rest
//! in one call. Batches form naturally under load — while one batch
//! scores, new jobs accumulate — so there is no artificial gather
//! delay on the latency path.
//!
//! # Degradation ladder
//!
//! Under sustained backlog the batcher trades recall for latency
//! *before* the server starts shedding (levels are driven by queue
//! depth as a fraction of capacity; escalation is immediate,
//! de-escalation waits out a cooldown so the precision store is not
//! rebuilt on every oscillation — a flip costs an O(n·k) store
//! rebuild):
//!
//! | level | trigger      | rows / sweep of the one batch call          |
//! |-------|--------------|---------------------------------------------|
//! | 0     | depth < 50%  | the model's own policy (exact: one sweep)   |
//! | 1     | depth ≥ 50%  | cluster-pruned probes (base `nprobe`)       |
//! | 2     | depth ≥ 75%  | + compressed f32 sweep                      |
//! | 3     | depth ≥ 90%  | probes narrowed to half the base `nprobe`   |
//!
//! Every level is the same call,
//! [`LsiModel::query_top_batch_at`], with the level's probe-depth
//! override; the whole batch goes through the scoring executor as one
//! block.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::SyncSender;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use lsi_core::{
    BatchQuery, IndexPolicy, LsiModel, Precision, RankedList, RequestCtx, DEFAULT_NPROBE,
};

use crate::server::Stats;

/// Queue-depth fractions that trigger each ladder level. Calibration:
/// the serve load harness (`perf_kernels --serve`) sheds at depth 1.0,
/// so the ladder must engage strictly below it with room to act.
const DEGRADE_L1_FRACTION: f64 = 0.50;
const DEGRADE_L2_FRACTION: f64 = 0.75;
const DEGRADE_L3_FRACTION: f64 = 0.90;

/// De-escalation cooldown: the backlog must stay below a level's
/// trigger this long before the ladder steps down, because stepping
/// down from level 2 rebuilds the precision store (O(n·k)).
const DEGRADE_COOLDOWN: Duration = Duration::from_secs(2);

/// One enqueued query.
pub(crate) struct Job {
    pub text: String,
    pub z: usize,
    /// Server request id, threaded into the query log's `trace_id`.
    pub trace_id: String,
    pub enqueued: Instant,
    pub deadline: Instant,
    /// Rendezvous back to the connection handler. Capacity 1, so the
    /// batcher's send never blocks even if the handler gave up.
    pub reply: SyncSender<Result<RankedList, String>>,
}

struct Inner {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// Bounded MPSC job queue (many workers push, the batcher pops).
pub(crate) struct Queue {
    inner: Mutex<Inner>,
    nonempty: Condvar,
    depth: usize,
}

impl Queue {
    pub(crate) fn new(depth: usize) -> Queue {
        Queue {
            inner: Mutex::new(Inner {
                jobs: VecDeque::new(),
                closed: false,
            }),
            nonempty: Condvar::new(),
            depth,
        }
    }

    /// Enqueue, or hand the job back when the queue is at capacity or
    /// closed (the caller sheds with a 503).
    pub(crate) fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if g.closed || g.jobs.len() >= self.depth {
            return Err(job);
        }
        g.jobs.push_back(job);
        drop(g);
        self.nonempty.notify_one();
        Ok(())
    }

    /// Current backlog.
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).jobs.len()
    }

    /// Close the queue: pushes fail from now on; the batcher drains
    /// what remains, then its pop returns `None` and it exits.
    pub(crate) fn close(&self) {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).closed = true;
        self.nonempty.notify_all();
    }

    /// Pop up to `max` jobs, blocking while empty. Returns the batch
    /// plus the backlog left behind; `None` once closed and drained.
    fn pop_batch(&self, max: usize) -> Option<(Vec<Job>, usize)> {
        let mut g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if !g.jobs.is_empty() {
                let take = g.jobs.len().min(max);
                let batch: Vec<Job> = g.jobs.drain(..take).collect();
                let backlog = g.jobs.len();
                return Some((batch, backlog));
            }
            if g.closed {
                return None;
            }
            // Timed wait only so a racing close() can never strand the
            // batcher; the common wake path is the notify in try_push.
            let (ng, _) = self
                .nonempty
                .wait_timeout(g, Duration::from_millis(100))
                .unwrap_or_else(|p| p.into_inner());
            g = ng;
        }
    }
}

/// Ladder state carried across batches.
struct Ladder {
    level: u8,
    /// Precision the server was started with; level 2 only compresses
    /// when this is `Exact`, and de-escalation restores it.
    base_precision: Precision,
    /// Probe depth the index was configured with (policy nprobe, or
    /// the default when the policy is exact scan).
    base_nprobe: usize,
    /// When the backlog first dropped below the current level's
    /// trigger; de-escalation fires once this ages past the cooldown.
    below_since: Option<Instant>,
    enabled: bool,
}

impl Ladder {
    fn new(model: &LsiModel, enabled: bool) -> Ladder {
        let base_nprobe = match model.index_policy() {
            IndexPolicy::Pruned { nprobe } => nprobe,
            IndexPolicy::Exact => DEFAULT_NPROBE,
        };
        Ladder {
            level: 0,
            base_precision: model.precision(),
            base_nprobe,
            below_since: None,
            enabled,
        }
    }

    /// Advance the ladder for the observed backlog fraction and apply
    /// any precision change to the model.
    fn step(&mut self, model: &mut LsiModel, backlog: usize, depth: usize) {
        if !self.enabled || depth == 0 {
            return;
        }
        let frac = backlog as f64 / depth as f64;
        let target: u8 = if frac >= DEGRADE_L3_FRACTION {
            3
        } else if frac >= DEGRADE_L2_FRACTION {
            2
        } else if frac >= DEGRADE_L1_FRACTION {
            1
        } else {
            0
        };
        if target > self.level {
            // Escalate immediately: the backlog is growing now.
            self.level = target;
            self.below_since = None;
            self.apply_precision(model);
            lsi_obs::count("serve.degrade.count", 1);
        } else if target < self.level {
            let since = *self.below_since.get_or_insert_with(Instant::now);
            if since.elapsed() >= DEGRADE_COOLDOWN {
                self.level = target;
                self.below_since = None;
                self.apply_precision(model);
            }
        } else {
            self.below_since = None;
        }
        lsi_obs::gauge_set("serve.degrade.level", self.level as f64);
    }

    fn apply_precision(&self, model: &mut LsiModel) {
        if !matches!(self.base_precision, Precision::Exact) {
            return; // the operator chose a compressed baseline; keep it
        }
        let want_compressed = self.level >= 2;
        let is_compressed = !matches!(model.precision(), Precision::Exact);
        if want_compressed && !is_compressed {
            model.set_precision(Precision::F32);
        } else if !want_compressed && is_compressed {
            model.set_precision(Precision::Exact);
        }
    }

    /// Probe-depth override for the current level: `None` at level 0
    /// (the model's own policy), the base depth at 1–2, half of it
    /// (floor 1) at 3.
    fn nprobe_override(&self) -> Option<usize> {
        match self.level {
            0 => None,
            1 | 2 => Some(self.base_nprobe),
            _ => Some((self.base_nprobe / 2).max(1)),
        }
    }

    fn level(&self) -> u8 {
        self.level
    }
}

/// Batcher main loop: owns the model until the queue closes.
pub(crate) fn run(model: &mut LsiModel, queue: &Queue, max_batch: usize, stats: &Stats, degrade: bool) {
    let mut ladder = Ladder::new(model, degrade);
    while let Some((batch, backlog)) = queue.pop_batch(max_batch) {
        lsi_obs::gauge_set("serve.queue.depth", backlog as f64);
        let now = Instant::now();
        let mut live: Vec<Job> = Vec::with_capacity(batch.len());
        for job in batch {
            if job.deadline <= now {
                // Expired while queued: dropping the reply sender makes
                // the handler's recv see Disconnected and answer 504
                // without the sweep ever running.
                stats.add_timeout();
                lsi_obs::count("serve.timeout.count", 1);
            } else {
                live.push(job);
            }
        }
        if live.is_empty() {
            continue;
        }
        ladder.step(model, backlog, queue.depth);
        stats.record_batch(live.len() as u64, ladder.level());
        lsi_obs::observe("serve.batch.size", live.len() as f64);
        for job in &live {
            lsi_obs::observe(
                "serve.queue.wait.us",
                job.enqueued.elapsed().as_secs_f64() * 1e6,
            );
        }

        score_batch(model, live, ladder.nprobe_override(), stats);
    }
}

/// Score one batch, containing panics so the batcher thread survives
/// (e.g. the `serve.batch` failpoint armed with `panic`).
fn score_batch(model: &mut LsiModel, live: Vec<Job>, nprobe: Option<usize>, stats: &Stats) {
    let mut replies: Vec<SyncSender<Result<RankedList, String>>> =
        Vec::with_capacity(live.len());
    let mut queries: Vec<BatchQuery> = Vec::with_capacity(live.len());
    let now = Instant::now();
    for job in live {
        replies.push(job.reply);
        queries.push(BatchQuery {
            text: job.text,
            z: job.z,
            ctx: Some(RequestCtx {
                trace_id: job.trace_id,
                wait_us: now.saturating_duration_since(job.enqueued).as_secs_f64() * 1e6,
            }),
        });
    }
    let n_live = replies.len();
    let results = catch_unwind(AssertUnwindSafe(|| {
        // The failpoint is evaluated inside the unwind boundary so its
        // `panic` action exercises exactly the containment this
        // function promises (and `delay-ms` stalls the whole batch,
        // exercising per-request deadlines).
        match lsi_fault::eval(lsi_fault::points::SERVE_BATCH) {
            Some(lsi_fault::Fired::ReturnErr) => {
                let msg = format!(
                    "fault injected at failpoint `{}`",
                    lsi_fault::points::SERVE_BATCH
                );
                return (0..n_live).map(|_| Err(msg.clone())).collect();
            }
            // No data to poison at this site.
            Some(lsi_fault::Fired::InjectNan) | None => {}
        }
        model
            .query_top_batch_at(queries, nprobe)
            .into_iter()
            .map(|r| r.map_err(|e| e.to_string()))
            .collect::<Vec<Result<RankedList, String>>>()
    }));
    match results {
        Ok(results) => {
            for (reply, result) in replies.into_iter().zip(results) {
                // A send error means the handler already answered 504
                // and hung up; nothing to do.
                let _ = reply.try_send(result);
            }
        }
        Err(_) => {
            stats.add_panic();
            lsi_obs::count("serve.panic.count", 1);
            lsi_obs::error!("panic contained in batch scoring; batcher continues");
            for reply in replies {
                let _ = reply.try_send(Err(
                    "panic during batch scoring (contained; server still up)".to_string(),
                ));
            }
        }
    }
}
