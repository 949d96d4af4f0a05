//! `lsi-fault` — deterministic failpoint-driven fault injection.
//!
//! Production hardening is only as good as the faults it has been
//! tested against. This crate gives every layer boundary of the LSI
//! pipeline a *named failpoint*: a branch that is a single relaxed
//! atomic load when disarmed, and that can be armed — via the
//! `LSI_FAILPOINTS` environment variable or the programmatic API — to
//! force one of four actions at that exact point:
//!
//! * `return-err` — the consumer must surface a typed error,
//! * `inject-nan` — the consumer's numerical guards must catch the
//!   poisoned value (or its fallback ladder must absorb it),
//! * `panic` — unwind; the enclosing recovery boundary (pool job
//!   propagation, CLI panic shield) must contain it,
//! * `delay-ms(N)` — sleep, for shaking out timeout/ordering bugs.
//!
//! Spec grammar (comma-separated):
//!
//! ```text
//! LSI_FAILPOINTS="<name>=<action>[:<count>][,<name>=<action>[:<count>]]*"
//! LSI_FAILPOINTS="svd.lanczos.iter=inject-nan:1,core.persist.save=return-err"
//! ```
//!
//! `count` bounds how many times the failpoint fires before it disarms
//! itself (default: unlimited). Canonical failpoint names live in
//! [`points`]; DESIGN.md §3d documents which actions each site honors.
//!
//! Like `lsi-obs`, this crate is std-only. Every firing is counted
//! (`fault.fired.count`, `fault.fired.<name>.count`) and logged as a
//! warn-level event through `lsi-obs`, so injected faults are always
//! visible in `--metrics` output and on stderr.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Canonical failpoint names, one per registered layer boundary.
///
/// Call sites reference these constants (not string literals) so the
/// smoke harness in `scripts/verify.sh` and the docs cannot drift from
/// the code.
pub mod points {
    /// Per-iteration in the Lanczos driver, fired after the Gram
    /// product. Honors `return-err` (→ `Error::Fault`), `inject-nan`
    /// (poisons the recurrence vector; the watchdog or the fallback
    /// ladder must absorb it), `panic`, and `delay-ms`.
    pub const SVD_LANCZOS_ITER: &str = "svd.lanczos.iter";
    /// Inside a pool worker task, fired once per claimed chunk. Honors
    /// `panic` (the pool must capture the payload, fail the job, and
    /// stay serviceable) and `delay-ms` (simulates a straggler).
    pub const POOL_TASK: &str = "pool.task";
    /// Model serialization (`LsiModel::to_json` / CLI save). Honors
    /// `return-err` (→ `Error::Persist`) and `delay-ms`.
    pub const CORE_PERSIST_SAVE: &str = "core.persist.save";
    /// Model deserialization (`LsiModel::from_json`). Honors
    /// `return-err` (→ `Error::Persist`) and `delay-ms`.
    pub const CORE_PERSIST_LOAD: &str = "core.persist.load";
    /// Query scoring, fired after cosines are computed. Honors
    /// `inject-nan` (the non-finite exit guard must reject the scores
    /// with a typed error), `return-err`, and `delay-ms`.
    pub const CORE_QUERY_SCORE: &str = "core.query.score";
    /// Per-accepted-connection in the `lsi serve` accept loop, fired
    /// before the connection is handed to a worker. Honors
    /// `return-err` (the connection is dropped; the daemon keeps
    /// accepting) and `delay-ms` (a slow accept path).
    pub const SERVE_ACCEPT: &str = "serve.accept";
    /// Entry of the serve HTTP request parser. Honors `return-err`
    /// (→ a typed 400 response; the worker keeps serving) and
    /// `delay-ms`.
    pub const SERVE_PARSE: &str = "serve.parse";
    /// In the serve batcher, fired once per scoring batch before the
    /// sweep. Honors `return-err` (every request in the batch answers
    /// a typed 500), `panic` (contained by the batcher's unwind
    /// boundary — same 500s, the batcher stays alive), and `delay-ms`
    /// (a slow batch, exercising per-request deadlines).
    pub const SERVE_BATCH: &str = "serve.batch";
    /// On the serve ladder's builder thread, fired once before it
    /// builds the rung artifacts. Honors `delay-ms` (holds the build
    /// while the batcher keeps serving at level 0), `return-err` and
    /// `panic` (the build fails: the rungs stay unavailable, the
    /// failure is logged once, the daemon keeps serving).
    pub const SERVE_LADDER_BUILD: &str = "serve.ladder.build";

    /// Every registered failpoint, for enumeration by smoke harnesses.
    pub const ALL: &[&str] = &[
        SVD_LANCZOS_ITER,
        POOL_TASK,
        CORE_PERSIST_SAVE,
        CORE_PERSIST_LOAD,
        CORE_QUERY_SCORE,
        SERVE_ACCEPT,
        SERVE_PARSE,
        SERVE_BATCH,
        SERVE_LADDER_BUILD,
    ];
}

/// What an armed failpoint does when execution reaches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// The caller must return a typed error.
    ReturnErr,
    /// The caller receives a signal to poison its data with NaN.
    InjectNan,
    /// Unwind with a panic (`lsi-fault: injected panic at ...`).
    Panic,
    /// Sleep for the given number of milliseconds, then continue.
    DelayMs(u64),
}

/// Outcome of [`eval`] that the *call site* must honor ([`Action::Panic`]
/// and [`Action::DelayMs`] are performed internally and yield `None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fired {
    /// Return a typed error from the enclosing function.
    ReturnErr,
    /// Corrupt the site's data with a NaN (see [`poison_first`]).
    InjectNan,
}

struct Entry {
    action: Action,
    /// Firings left before self-disarm; `None` = unlimited.
    remaining: Option<u64>,
}

/// Fast-path switch. Starts [`UNINIT`] so the very first [`eval`] in
/// the process (and only it) pays for the `LSI_FAILPOINTS` parse;
/// after that every disarmed call is a single relaxed load plus an
/// untaken branch. (A plain armed/disarmed bool cannot work here: the
/// env spec is parsed inside the registry init, and a fast path that
/// bails on "not armed" before initializing would never parse it.)
static STATE: AtomicU8 = AtomicU8::new(UNINIT);
/// [`STATE`]: registry not yet initialized, env spec not yet parsed.
const UNINIT: u8 = 0;
/// [`STATE`]: registry initialized, no failpoint armed.
const DISARMED: u8 = 1;
/// [`STATE`]: at least one failpoint armed.
const ARMED: u8 = 2;

static REGISTRY: OnceLock<Mutex<HashMap<String, Entry>>> = OnceLock::new();

fn lock_registry() -> MutexGuard<'static, HashMap<String, Entry>> {
    let m = REGISTRY.get_or_init(|| {
        let mut map = HashMap::new();
        if let Ok(spec) = std::env::var("LSI_FAILPOINTS") {
            match parse_spec(&spec) {
                Ok(entries) => {
                    for (name, action, remaining) in entries {
                        map.insert(name, Entry { action, remaining });
                    }
                }
                Err(e) => {
                    // A malformed spec must not silently disable fault
                    // testing: fail loudly (this is a test/ops knob, not
                    // user input).
                    panic!("invalid LSI_FAILPOINTS: {e}");
                }
            }
        }
        // Relaxed: STATE is an advisory fast-path hint; the registry
        // mutex is the authority on which failpoints are armed.
        STATE.store(
            if map.is_empty() { DISARMED } else { ARMED },
            Ordering::Relaxed,
        );
        Mutex::new(map)
    });
    // A panic action fires while the lock is *not* held, but an unwind
    // inside a holder elsewhere must not wedge the registry for good.
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Parse a failpoint spec string (the `LSI_FAILPOINTS` grammar).
pub fn parse_spec(spec: &str) -> Result<Vec<(String, Action, Option<u64>)>, String> {
    let mut out = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (name, rhs) = part
            .split_once('=')
            .ok_or_else(|| format!("`{part}` is not of the form name=action[:count]"))?;
        let name = name.trim();
        if name.is_empty() {
            return Err(format!("empty failpoint name in `{part}`"));
        }
        let (action_str, count) = match rhs.rsplit_once(':') {
            Some((a, c)) => {
                let n: u64 = c
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad count `{c}` in `{part}`"))?;
                (a.trim(), Some(n))
            }
            None => (rhs.trim(), None),
        };
        let action = match action_str {
            "return-err" => Action::ReturnErr,
            "inject-nan" => Action::InjectNan,
            "panic" => Action::Panic,
            other => {
                if let Some(ms) = other
                    .strip_prefix("delay-ms(")
                    .and_then(|r| r.strip_suffix(')'))
                {
                    let ms: u64 = ms
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad delay `{other}` in `{part}`"))?;
                    Action::DelayMs(ms)
                } else {
                    return Err(format!(
                        "unknown action `{other}` in `{part}` (expected \
                         return-err | inject-nan | panic | delay-ms(N))"
                    ));
                }
            }
        };
        out.push((name.to_string(), action, count));
    }
    Ok(out)
}

/// Arm `name` with `action`, firing at most `count` times (`None` =
/// unlimited). Programmatic equivalent of one `LSI_FAILPOINTS` entry.
pub fn arm(name: &str, action: Action, count: Option<u64>) {
    let mut map = lock_registry();
    map.insert(
        name.to_string(),
        Entry {
            action,
            remaining: count,
        },
    );
    // Relaxed: advisory hint only — evaluators re-check under the
    // registry mutex before acting on an armed state.
    STATE.store(ARMED, Ordering::Relaxed);
}

/// Arm every entry of a spec string. Errors on bad grammar.
pub fn arm_from_spec(spec: &str) -> Result<(), String> {
    for (name, action, count) in parse_spec(spec)? {
        arm(&name, action, count);
    }
    Ok(())
}

/// Disarm one failpoint (no-op if it was not armed).
pub fn disarm(name: &str) {
    let mut map = lock_registry();
    map.remove(name);
    if map.is_empty() {
        // Relaxed: advisory hint; the mutex above orders the removal.
        STATE.store(DISARMED, Ordering::Relaxed);
    }
}

/// Disarm every failpoint.
pub fn clear() {
    let mut map = lock_registry();
    map.clear();
    // Relaxed: advisory hint; the mutex above orders the clear.
    STATE.store(DISARMED, Ordering::Relaxed);
}

/// Evaluate the failpoint `name`. Disarmed (the overwhelmingly common
/// case): one relaxed atomic load, returns `None`. Armed: performs
/// `panic` / `delay-ms` internally, or tells the caller to return an
/// error / inject a NaN. The first call in the process initializes the
/// registry from `LSI_FAILPOINTS`.
#[inline]
pub fn eval(name: &str) -> Option<Fired> {
    match STATE.load(Ordering::Relaxed) {
        DISARMED => None,
        UNINIT => init_then_eval(name),
        _ => eval_armed(name),
    }
}

/// One-time cold path: parse `LSI_FAILPOINTS` (via the registry init),
/// then re-dispatch on the now-settled state.
#[cold]
fn init_then_eval(name: &str) -> Option<Fired> {
    drop(lock_registry());
    // Relaxed: a stale read only costs one extra trip through the
    // mutex-guarded slow path; the map is the authority.
    if STATE.load(Ordering::Relaxed) == ARMED {
        eval_armed(name)
    } else {
        None
    }
}

#[cold]
fn eval_armed(name: &str) -> Option<Fired> {
    let action = {
        let mut map = lock_registry();
        let entry = map.get_mut(name)?;
        let action = entry.action;
        if let Some(rem) = entry.remaining.as_mut() {
            if *rem == 0 {
                map.remove(name);
                if map.is_empty() {
                    // Relaxed: advisory hint; held mutex orders it.
                    STATE.store(DISARMED, Ordering::Relaxed);
                }
                return None;
            }
            *rem -= 1;
            let exhausted = *rem == 0;
            if exhausted {
                map.remove(name);
                if map.is_empty() {
                    // Relaxed: advisory hint; held mutex orders it.
                    STATE.store(DISARMED, Ordering::Relaxed);
                }
            }
        }
        action
        // Lock dropped here: side effects below run unlocked so a panic
        // cannot poison the registry and a delay cannot serialize
        // unrelated failpoints.
    };
    lsi_obs::count("fault.fired.count", 1);
    lsi_obs::count(&format!("fault.fired.{name}.count"), 1);
    lsi_obs::warn!("lsi-fault: failpoint `{name}` fired ({action:?})");
    match action {
        Action::ReturnErr => Some(Fired::ReturnErr),
        Action::InjectNan => Some(Fired::InjectNan),
        Action::Panic => panic!("lsi-fault: injected panic at failpoint `{name}`"),
        Action::DelayMs(ms) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            None
        }
    }
}

/// Convenience for error-only sites: did `name` fire `return-err`?
/// (`inject-nan` at such a site is also mapped to an error — the site
/// has no numerical payload to poison, and a forced fault must never
/// silently do nothing.)
#[inline]
pub fn should_fail(name: &str) -> bool {
    eval(name).is_some()
}

/// Convenience for numerical sites: when `name` fired `inject-nan`,
/// overwrite the first element of `data` with NaN and return `true`.
/// A `return-err` firing is reported as `false` alongside... — callers
/// that can surface errors should use [`eval`] directly.
#[inline]
pub fn poison_first(name: &str, data: &mut [f64]) -> bool {
    if eval(name) == Some(Fired::InjectNan) {
        if let Some(x) = data.first_mut() {
            *x = f64::NAN;
        }
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global; tests touching it use distinct
    // failpoint names so they can run concurrently.

    #[test]
    fn disarmed_failpoint_is_silent() {
        assert_eq!(eval("test.never.armed"), None);
        assert!(!should_fail("test.never.armed"));
    }

    #[test]
    fn parse_spec_grammar() {
        let spec = "a.b=return-err, c.d=inject-nan:3 ,e.f=delay-ms(250),g.h=panic:1";
        let parsed = parse_spec(spec).unwrap();
        assert_eq!(
            parsed,
            vec![
                ("a.b".to_string(), Action::ReturnErr, None),
                ("c.d".to_string(), Action::InjectNan, Some(3)),
                ("e.f".to_string(), Action::DelayMs(250), None),
                ("g.h".to_string(), Action::Panic, Some(1)),
            ]
        );
        assert!(parse_spec("nonsense").is_err());
        assert!(parse_spec("a=explode").is_err());
        assert!(parse_spec("a=return-err:lots").is_err());
        assert!(parse_spec("=return-err").is_err());
        assert!(parse_spec("a=delay-ms(abc)").is_err());
        assert!(parse_spec("").unwrap().is_empty());
    }

    #[test]
    fn counted_failpoint_self_disarms() {
        arm("test.counted", Action::ReturnErr, Some(2));
        assert_eq!(eval("test.counted"), Some(Fired::ReturnErr));
        assert_eq!(eval("test.counted"), Some(Fired::ReturnErr));
        assert_eq!(eval("test.counted"), None);
        assert_eq!(eval("test.counted"), None);
    }

    #[test]
    fn unlimited_failpoint_keeps_firing_until_disarmed() {
        arm("test.unlimited", Action::InjectNan, None);
        for _ in 0..10 {
            assert_eq!(eval("test.unlimited"), Some(Fired::InjectNan));
        }
        disarm("test.unlimited");
        assert_eq!(eval("test.unlimited"), None);
    }

    #[test]
    fn poison_first_writes_nan_only_for_inject() {
        arm("test.poison", Action::InjectNan, Some(1));
        let mut data = vec![1.0, 2.0];
        assert!(poison_first("test.poison", &mut data));
        assert!(data[0].is_nan());
        assert_eq!(data[1], 2.0);
        let mut data = vec![1.0];
        assert!(!poison_first("test.poison", &mut data));
        assert_eq!(data, vec![1.0]);
    }

    #[test]
    fn panic_action_unwinds_with_failpoint_name() {
        arm("test.panics", Action::Panic, Some(1));
        let err = std::panic::catch_unwind(|| {
            eval("test.panics");
        })
        .unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("test.panics"), "payload: {msg}");
        // Registry survives the unwind and the point self-disarmed.
        assert_eq!(eval("test.panics"), None);
    }

    #[test]
    fn delay_action_sleeps_and_continues() {
        arm("test.delay", Action::DelayMs(30), Some(1));
        let t0 = std::time::Instant::now();
        assert_eq!(eval("test.delay"), None);
        assert!(t0.elapsed() >= std::time::Duration::from_millis(25));
    }

    #[test]
    fn arm_from_spec_arms_all_entries() {
        arm_from_spec("test.spec.a=return-err:1,test.spec.b=inject-nan:1").unwrap();
        assert_eq!(eval("test.spec.a"), Some(Fired::ReturnErr));
        assert_eq!(eval("test.spec.b"), Some(Fired::InjectNan));
        assert!(arm_from_spec("test.spec.c=bogus").is_err());
    }

    #[test]
    fn points_list_is_consistent() {
        assert!(points::ALL.contains(&points::SVD_LANCZOS_ITER));
        assert!(points::ALL.contains(&points::SERVE_BATCH));
        assert!(points::ALL.contains(&points::SERVE_LADDER_BUILD));
        assert_eq!(points::ALL.len(), 9);
        for name in points::ALL {
            // Names follow the span taxonomy: dotted lowercase.
            assert!(name.chars().all(|c| c.is_ascii_lowercase()
                || c == '.'
                || c == '_'));
        }
    }
}
