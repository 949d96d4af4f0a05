//! The scoring heart of the daemon: a bounded job queue drained by a
//! single batcher thread that scores against the resident
//! [`LsiModel`].
//!
//! One scoring thread means scoring needs no model lock: workers
//! enqueue jobs, the batcher pops up to `max_batch` at a time, drops
//! any whose deadline already passed, and scores the rest in one call.
//! Batches form naturally under load — while one batch scores, new
//! jobs accumulate — so there is no artificial gather delay on the
//! latency path. The model is shared read-only (`Arc`): nothing
//! mutates it while the daemon serves.
//!
//! # Degradation ladder
//!
//! Under sustained backlog the batcher trades recall for latency
//! *before* the server starts shedding. Levels are driven by queue
//! depth as a fraction of capacity; escalation is immediate, and
//! de-escalation waits out a cooldown so that the level, and the
//! recall it serves at, does not flap with every batch:
//!
//! | level | trigger      | plan of the one batch call                  |
//! |-------|--------------|---------------------------------------------|
//! | 0     | depth < 50%  | the model's own policy (exact: one sweep)   |
//! | 1     | depth ≥ 50%  | cluster-pruned probes (base `nprobe`)       |
//! | 2     | depth ≥ 75%  | + compressed f32 sweep                      |
//! | 3     | depth ≥ 90%  | probes narrowed to half the base `nprobe`   |
//!
//! Every level is the same call, [`LsiModel::query_top_batch_at`],
//! with the level's [`BatchPlan`]; the whole batch goes through the
//! scoring executor as one block. Levels 1–3 need a cluster index and,
//! over an f64 model, an f32 replica of `V`. Whichever the model lacks
//! is built once, as one [`Rungs`] bundle, by a `lsi-serve-builder`
//! thread that the ladder's first escalation starts
//! ([`LsiModel::build_rungs`], on the shared model, never a copy). The
//! batcher installs the bundle between batches and runs level 0's plan
//! at every level until then; a build that fails leaves level 0's plan
//! in place for the rest of the run. Once installed, the bundle stays:
//! a later rung change only switches the plan.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lsi_core::{
    BatchPlan, BatchQuery, IndexPolicy, LsiModel, Precision, RankedList, RequestCtx, Rungs,
    DEFAULT_NPROBE,
};

use crate::server::Stats;

/// Queue-depth fractions that trigger each ladder level. Calibration:
/// the serve load harness (`perf_kernels --serve`) sheds at depth 1.0,
/// so the ladder must engage strictly below it with room to act.
const DEGRADE_L1_FRACTION: f64 = 0.50;
const DEGRADE_L2_FRACTION: f64 = 0.75;
const DEGRADE_L3_FRACTION: f64 = 0.90;

/// De-escalation cooldown: the backlog must stay below a level's
/// trigger this long before the ladder steps down. A batch drains up
/// to `max_batch` jobs at once, so the backlog seen between batches
/// swings; without the wait, one quiet reading between busy ones would
/// flip the served recall back and forth.
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

/// Ladder state carried across batches. The batcher passes in the
/// clock and whether the rung artifacts are installed, so every
/// transition is a pure function of its inputs.
struct Ladder {
    level: u8,
    /// Probe depth the index was configured with (policy nprobe, or
    /// the default when the policy is exact scan).
    base_nprobe: usize,
    /// Whether levels 2–3 switch the sweep to f32: only over an f64
    /// base. A reduced base precision is the operator's choice and the
    /// model sweeps its own replica at every level.
    compress: bool,
    /// When the backlog first dropped below the current level's
    /// trigger; de-escalation fires once this ages past the cooldown.
    below_since: Option<Instant>,
    enabled: bool,
    /// The first escalation asked for the rung build; nothing asks
    /// again, whether that build succeeds or fails.
    build_requested: bool,
}

impl Ladder {
    fn new(policy: IndexPolicy, precision: Precision, enabled: bool) -> Ladder {
        let base_nprobe = match policy {
            IndexPolicy::Pruned { nprobe } => nprobe,
            IndexPolicy::Exact => DEFAULT_NPROBE,
        };
        Ladder {
            level: 0,
            base_nprobe,
            compress: precision == Precision::Exact,
            below_since: None,
            enabled,
            build_requested: false,
        }
    }

    /// Advance the ladder for the backlog observed at `now`. `ready`
    /// says whether the rung artifacts are installed. Returns the level
    /// whose plan this batch runs — the ladder's own level, or 0 while
    /// the artifacts are not installed — and whether to start their
    /// build now, which only the first escalation of an enabled ladder
    /// does.
    fn step(&mut self, now: Instant, backlog: usize, depth: usize, ready: bool) -> (u8, bool) {
        if !self.enabled || depth == 0 {
            return (0, false);
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
        } else if target < self.level {
            let since = *self.below_since.get_or_insert(now);
            if now.saturating_duration_since(since) >= DEGRADE_COOLDOWN {
                self.level = target;
                self.below_since = None;
            }
        } else {
            self.below_since = None;
        }
        let build = self.level > 0 && !ready && !self.build_requested;
        self.build_requested |= build;
        (if ready { self.level } else { 0 }, build)
    }

    /// The plan of `level`: the model's own at 0, the base probe depth
    /// at 1–2 and half of it (floor 1) at 3, sweeping the f32 replica
    /// from level 2 on.
    fn plan<'a>(&self, level: u8, rungs: Option<&'a Rungs>) -> BatchPlan<'a> {
        let nprobe = match level {
            0 => None,
            1 | 2 => Some(self.base_nprobe),
            _ => Some((self.base_nprobe / 2).max(1)),
        };
        BatchPlan {
            nprobe,
            f32: self.compress && level >= 2,
            rungs,
        }
    }
}

/// The ladder's one background build: [`LsiModel::build_rungs`] on a
/// thread of its own, returning the bundle and its wall time.
struct Build(JoinHandle<(Result<Rungs, String>, Duration)>);

impl Build {
    /// Start the build. Its parallel kernels (the k-means, the f32
    /// copy) run inline on the builder thread: the pool's one job slot
    /// stays free for the batches scored meanwhile, which would
    /// otherwise find it taken and sweep serially.
    fn spawn(model: &Arc<LsiModel>) -> std::io::Result<Build> {
        let model = Arc::clone(model);
        std::thread::Builder::new()
            .name("lsi-serve-builder".to_string())
            .spawn(move || {
                let t0 = Instant::now();
                let built = rayon::run_inline(|| build_rungs(&model));
                (built, t0.elapsed())
            })
            .map(Build)
    }

    fn is_finished(&self) -> bool {
        self.0.is_finished()
    }

    /// Wait for the build and take its bundle. A failure is logged here,
    /// once, and leaves the rungs unavailable.
    fn join(self, stats: &Stats) -> Option<Rungs> {
        match self.0.join() {
            Ok((Ok(rungs), took)) => {
                stats.ladder_build_ms.set(took.as_secs_f64() * 1e3);
                stats.ladder_builds.inc();
                lsi_obs::info!(
                    "serve: degradation rungs built in {:.1} ms",
                    took.as_secs_f64() * 1e3
                );
                Some(rungs)
            }
            Ok((Err(msg), _)) => {
                lsi_obs::error!("serve: degradation rung build failed: {msg}; serving at level 0");
                None
            }
            Err(_) => {
                stats.panics.inc();
                lsi_obs::error!(
                    "serve: degradation rung build panicked (contained); serving at level 0"
                );
                None
            }
        }
    }
}

/// The builder thread's body, under the `serve.ladder.build` span and
/// failpoint.
fn build_rungs(model: &LsiModel) -> Result<Rungs, String> {
    let _span = lsi_obs::span("serve.ladder.build");
    match lsi_fault::eval(lsi_fault::points::SERVE_LADDER_BUILD) {
        Some(lsi_fault::Fired::ReturnErr) => {
            return Err(format!(
                "fault injected at failpoint `{}`",
                lsi_fault::points::SERVE_LADDER_BUILD
            ))
        }
        // No data to poison at this site.
        Some(lsi_fault::Fired::InjectNan) | None => {}
    }
    model.build_rungs().map_err(|e| e.to_string())
}

/// Batcher main loop: scores until the queue closes, then waits for a
/// rung build still in progress.
pub(crate) fn run(
    model: &Arc<LsiModel>,
    queue: &Queue,
    max_batch: usize,
    stats: &Stats,
    degrade: bool,
) {
    let mut ladder = Ladder::new(model.index_policy(), model.precision(), degrade);
    let mut rungs: Option<Rungs> = None;
    let mut build: Option<Build> = None;
    while let Some((batch, backlog)) = queue.pop_batch(max_batch) {
        let now = Instant::now();
        let live = live_jobs(batch, now);
        if live.is_empty() {
            continue;
        }
        // Install a finished build between batches.
        if let Some(done) = build.take_if(|b| b.is_finished()) {
            rungs = done.join(stats);
        }
        let was = ladder.level;
        let (level, start_build) = ladder.step(now, backlog, queue.depth, rungs.is_some());
        if ladder.level > was {
            stats.escalations.inc();
        }
        if start_build {
            match Build::spawn(model) {
                Ok(b) => build = Some(b),
                Err(e) => lsi_obs::error!("serve: cannot start the rung builder: {e}"),
            }
        }
        stats.batch_size.record(live.len() as f64);
        stats.degrade_level.set(f64::from(level));
        score_batch(model, live, now, ladder.plan(level, rungs.as_ref()), stats);
    }
    if let Some(b) = build {
        b.join(stats);
    }
}

/// The jobs of `batch` whose deadline is after `now`, in order. An
/// expired job is dropped: dropping its reply sender makes the handler's
/// `recv` see `Disconnected` and answer 504, which counts the timeout,
/// without the sweep ever running.
fn live_jobs(mut batch: Vec<Job>, now: Instant) -> Vec<Job> {
    batch.retain(|job| job.deadline > now);
    batch
}

/// Score one batch popped at `now`, containing panics so the batcher
/// thread survives (e.g. the `serve.batch` failpoint armed with `panic`).
fn score_batch(model: &LsiModel, live: Vec<Job>, now: Instant, plan: BatchPlan<'_>, stats: &Stats) {
    let mut replies: Vec<SyncSender<Result<RankedList, String>>> =
        Vec::with_capacity(live.len());
    let mut queries: Vec<BatchQuery> = Vec::with_capacity(live.len());
    for job in live {
        let wait_us = now.saturating_duration_since(job.enqueued).as_secs_f64() * 1e6;
        stats.queue_wait_us.record(wait_us);
        replies.push(job.reply);
        queries.push(BatchQuery {
            text: job.text,
            z: job.z,
            ctx: Some(RequestCtx {
                trace_id: job.trace_id,
                wait_us,
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
            .query_top_batch_at(queries, plan)
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
            stats.panics.inc();
            lsi_obs::error!("panic contained in batch scoring; batcher continues");
            for reply in replies {
                let _ = reply.try_send(Err(
                    "panic during batch scoring (contained; server still up)".to_string(),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEPTH: usize = 100;

    /// Cooldown in the tables' millisecond clock.
    const C: u64 = DEGRADE_COOLDOWN.as_millis() as u64;

    /// One ladder step: at `t` ms, with `backlog` of [`DEPTH`] queued
    /// and the rungs `ready` or not, the ladder sits at `level`, the
    /// batch runs level `served`'s plan, and `build` says whether the
    /// step starts the rung build.
    type Row = (u64, usize, bool, u8, u8, bool);

    fn walk(ladder: &mut Ladder, rows: &[Row]) {
        let t0 = Instant::now();
        for (i, &(t, backlog, ready, level, served, build)) in rows.iter().enumerate() {
            let now = t0 + Duration::from_millis(t);
            let (ran, start) = ladder.step(now, backlog, DEPTH, ready);
            assert_eq!(
                (ladder.level, ran, start),
                (level, served, build),
                "row {i}: t={t} ms backlog={backlog} ready={ready}"
            );
        }
    }

    fn exact(enabled: bool) -> Ladder {
        Ladder::new(IndexPolicy::Exact, Precision::Exact, enabled)
    }

    #[test]
    fn escalation_is_immediate() {
        walk(
            &mut exact(true),
            &[
                (0, 0, true, 0, 0, false),
                (1, 49, true, 0, 0, false),
                (2, 50, true, 1, 1, false),
                (3, 75, true, 2, 2, false),
                (4, 90, true, 3, 3, false),
            ],
        );
        // Straight from level 0 to the top rung in one batch.
        walk(&mut exact(true), &[(0, 100, true, 3, 3, false)]);
    }

    #[test]
    fn de_escalation_waits_out_the_cooldown_and_a_rebound_restarts_it() {
        walk(
            &mut exact(true),
            &[
                (0, 80, true, 2, 2, false),
                // Below every trigger from t = 100: the cooldown starts.
                (100, 10, true, 2, 2, false),
                (100 + C - 1, 10, true, 2, 2, false),
                // The backlog rebounds to level 2's trigger: the wait
                // is forgotten, and starts again at the next dip.
                (200 + C, 80, true, 2, 2, false),
                (300 + C, 10, true, 2, 2, false),
                (300 + 2 * C - 1, 10, true, 2, 2, false),
                (300 + 2 * C, 10, true, 0, 0, false),
            ],
        );
        // Stepping down lands on the level the backlog now calls for.
        walk(
            &mut exact(true),
            &[
                (0, 95, true, 3, 3, false),
                (1, 60, true, 3, 3, false),
                (1 + C, 60, true, 1, 1, false),
            ],
        );
    }

    #[test]
    fn unready_rungs_serve_level_0_and_request_one_build() {
        walk(
            &mut exact(true),
            &[
                (0, 0, false, 0, 0, false),
                (1, 60, false, 1, 0, true),
                (2, 80, false, 2, 0, false),
                (3, 95, false, 3, 0, false),
                // Installed between batches: the next batch runs level 3.
                (4, 95, true, 3, 3, false),
            ],
        );
    }

    #[test]
    fn escalating_again_never_requests_a_second_build() {
        walk(
            &mut exact(true),
            &[
                (0, 60, false, 1, 0, true),
                (1, 0, false, 1, 0, false),
                (1 + C, 0, false, 0, 0, false),
                // The build failed (still not ready): no second request.
                (2 + C, 95, false, 3, 0, false),
                (3 + C, 0, false, 3, 0, false),
                (3 + 2 * C, 0, false, 0, 0, false),
                (4 + 2 * C, 60, true, 1, 1, false),
            ],
        );
    }

    #[test]
    fn a_reduced_base_precision_is_never_switched() {
        let backlogs = [0, 50, 75, 90];
        for (policy, precision, f32_at) in [
            (IndexPolicy::Exact, Precision::Exact, [false, false, true, true]),
            (IndexPolicy::Exact, Precision::F32, [false; 4]),
            (IndexPolicy::Pruned { nprobe: 6 }, Precision::F32, [false; 4]),
            (IndexPolicy::Pruned { nprobe: 6 }, Precision::I8, [false; 4]),
        ] {
            let mut ladder = Ladder::new(policy, precision, true);
            let base = match policy {
                IndexPolicy::Pruned { nprobe } => nprobe,
                IndexPolicy::Exact => DEFAULT_NPROBE,
            };
            let nprobe_at = [None, Some(base), Some(base), Some(base / 2)];
            let t0 = Instant::now();
            for (level, &backlog) in backlogs.iter().enumerate() {
                let (served, _) = ladder.step(t0, backlog, DEPTH, true);
                assert_eq!(served as usize, level, "{policy:?} {precision:?}");
                let plan = ladder.plan(served, None);
                assert_eq!(
                    (plan.nprobe, plan.f32),
                    (nprobe_at[level], f32_at[level]),
                    "{policy:?} {precision:?} level {level}"
                );
            }
        }
    }

    #[test]
    fn expired_jobs_are_dropped_and_counted_once() {
        use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError};

        type Reply = Receiver<Result<RankedList, String>>;
        // Each job's deadline in ms relative to `now` (0: due exactly at
        // `now`, which has expired), and which of them stay live.
        let table: [(&[i64], &[bool]); 4] = [
            (&[-5, 0, 5], &[false, false, true]),
            (&[5, -1, 1, 0, 7], &[true, false, true, false, true]),
            (&[-3, 0, -1], &[false, false, false]),
            (&[1, 2, 30], &[true, true, true]),
        ];
        for (deadlines, live_at) in table {
            let now = Instant::now() + Duration::from_secs(1);
            let (jobs, replies): (Vec<Job>, Vec<Reply>) = deadlines
                .iter()
                .enumerate()
                .map(|(i, &ms)| {
                    let (reply, rx) = sync_channel(1);
                    let offset = Duration::from_millis(ms.unsigned_abs());
                    let job = Job {
                        text: format!("q{i}"),
                        z: 10,
                        trace_id: format!("t{i}"),
                        enqueued: now - Duration::from_millis(100),
                        deadline: if ms < 0 { now - offset } else { now + offset },
                        reply,
                    };
                    (job, rx)
                })
                .unzip();
            let live = live_jobs(jobs, now);

            let want: Vec<String> = (0..deadlines.len())
                .filter(|&i| live_at[i])
                .map(|i| format!("t{i}"))
                .collect();
            let got: Vec<String> = live.iter().map(|job| job.trace_id.clone()).collect();
            assert_eq!(got, want, "deadlines {deadlines:?}");
            let stats = Stats::default();
            for (rx, &is_live) in replies.iter().zip(live_at) {
                // The handler's wait: an expired job's sender is gone
                // (its 504 path); a live one's is still held.
                let seen = rx.recv_timeout(Duration::ZERO);
                let want = if is_live {
                    RecvTimeoutError::Timeout
                } else {
                    RecvTimeoutError::Disconnected
                };
                assert_eq!(seen.as_ref().err(), Some(&want), "deadlines {deadlines:?}");
                if !is_live {
                    // The handler answers the dropped job, counting it.
                    let (status, tally) = crate::server::answer(&stats, Some(&seen));
                    assert_eq!(status, 504, "deadlines {deadlines:?}");
                    tally.expect("a 504 moves a counter").inc();
                }
            }
            let expired = live_at.iter().filter(|&&l| !l).count() as u64;
            assert_eq!(stats.timeouts.value(), expired, "{deadlines:?}");
        }
    }

    #[test]
    fn a_disabled_ladder_never_requests_a_build() {
        walk(
            &mut exact(false),
            &[
                (0, 100, false, 0, 0, false),
                (1, 95, false, 0, 0, false),
                (1 + C, 100, false, 0, 0, false),
            ],
        );
    }
}
