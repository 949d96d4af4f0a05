//! Layer 3: interprocedural rules over the workspace call graph.
//!
//! These rules see the whole [`Workspace`] and its [`CallGraph`] at
//! once, unlike the per-file [`crate::rules::Rule`] catalog. They share
//! the same finding type, severity model, suppression comments, and
//! baseline ratchet; the engine runs them after the per-file pass.
//!
//! The catalog (DESIGN.md §3j documents each rule's model and its
//! known over/under-approximations):
//!
//! * `panic-reachability` — every `pub` library fn is classified by
//!   whether it can transitively reach an `unwrap`/`expect`/`panic!`/
//!   indexing site without passing a `catch_unwind` boundary, with a
//!   shortest witness path in the message. Findings in lsi-core are
//!   errors: its count reached zero, and the query path must stay
//!   panic-free. The serve path `handle_connection → query_top_batch_at`
//!   is a hard contract: panics there must be contained by the
//!   batcher's documented `catch_unwind`, so contract violations are
//!   errors too.
//! * `unsafe-taint` — an `unsafe` block may only be reached through a
//!   SAFETY-documented wrapper fn; undocumented wrappers are flagged at
//!   the wrapper *and* at every call site that reaches them, and `pub
//!   unsafe fn` without a safety doc is flagged directly.
//! * `atomics-pairing` — a `Release` store must have a matching
//!   `Acquire`/`AcqRel` load on the same receiver name somewhere in
//!   the workspace, and vice versa (`SeqCst` satisfies both sides).
//!   Unpaired sides are flagged at each site.

use std::collections::BTreeMap;

use crate::graph::{CallGraph, Workspace};
use crate::rules::is_library_path;
use crate::{Finding, Severity};

/// The scoring entry the serve batcher calls, inside its documented
/// `catch_unwind`: every route from `handle_connection` to it must pass
/// that boundary.
const SERVE_SCORING_ENTRY: &str = "query_top_batch_at";

/// Library whose panic-reachable pub fns are errors rather than
/// warnings: lsi-core, whose count reached zero.
const PANIC_FREE_LIB: &str = "crates/core/";

/// A workspace-level rule. Mirrors [`crate::rules::Rule`] but checks
/// the parsed workspace and call graph instead of one file.
pub trait GraphRule {
    /// Stable kebab-case identifier (baseline key, `--explain` arg).
    fn name(&self) -> &'static str;
    /// Severity attached to this rule's findings (contract violations
    /// may escalate per finding).
    fn severity(&self) -> Severity;
    /// One-line summary for rule listings.
    fn summary(&self) -> &'static str;
    /// The full rationale printed by `--explain`.
    fn rationale(&self) -> &'static str;
    /// Run the rule over the workspace.
    fn check(&self, ws: &Workspace, graph: &CallGraph) -> Vec<Finding>;
}

/// The graph-rule catalog, in execution order.
pub fn all_graph_rules() -> Vec<Box<dyn GraphRule>> {
    vec![
        Box::new(PanicReachability),
        Box::new(UnsafeTaint),
        Box::new(AtomicsPairing),
    ]
}

/// Look up a graph rule by its kebab-case name.
pub fn graph_rule_by_name(name: &str) -> Option<Box<dyn GraphRule>> {
    all_graph_rules().into_iter().find(|r| r.name() == name)
}

// ---------------------------------------------------------------------
// panic-reachability
// ---------------------------------------------------------------------

/// Classify every `pub` library fn by transitive panic reachability.
pub struct PanicReachability;

impl GraphRule for PanicReachability {
    fn name(&self) -> &'static str {
        "panic-reachability"
    }

    fn severity(&self) -> Severity {
        Severity::Warning
    }

    fn summary(&self) -> &'static str {
        "pub API fns must not transitively reach uncontained panic sites"
    }

    fn rationale(&self) -> &'static str {
        "The per-file panic-surface rule sees only direct panic sites; a pub fn \
that merely *calls* something which unwraps presents the same crash surface \
to callers. This rule propagates panic sites backwards over the call graph, \
stopping at catch_unwind boundaries, and flags every pub library fn that can \
still reach one — with a shortest witness path so the finding is actionable. \
The warning tier tracks the explicit panic family (unwrap/expect/panic!/ \
assert/unreachable/todo); in lsi-core, whose count reached zero, the same \
findings are errors. Slice indexing joins only for the serve contract, \
because bounds-checked indexing is pervasive and intentional in the kernels. The serve path is a hard contract: \
handle_connection must not reach any uncontained panic, and every route from \
it to query_top_batch_at (the scoring entry the batcher calls) must pass through \
the batcher's documented catch_unwind \
(those violations are errors, not warnings). Resolution is heuristic \
(DESIGN.md §3j): trait-method calls over-approximate to any impl, unresolved \
names under-approximate to no edge."
    }

    fn check(&self, ws: &Workspace, graph: &CallGraph) -> Vec<Finding> {
        // Two reachability passes: the warning tier tracks only the
        // explicit panic family (unwrap/expect/panic!/...) — indexing
        // is bounds-checked-by-design all over the numeric kernels —
        // while the serve contract keeps indexing in scope, because an
        // out-of-bounds in request handling is exactly the crash the
        // contract exists to rule out.
        let explicit = graph.panic_reach_filtered(ws, false);
        let full = graph.panic_reach(ws);
        let mut findings = Vec::new();

        // Warning tier (error in lsi-core): pub library fns that can
        // reach a panic.
        for (id, node) in graph.nodes.iter().enumerate() {
            let wf = &ws.files[node.file];
            let f = &wf.items.fns[node.item];
            if !f.is_pub
                || f.in_test
                || wf.source.test_file
                || !f.has_body
                || !is_library_path(&wf.source.rel_path)
                || !explicit.reachable[id]
            {
                continue;
            }
            let severity = if wf.source.rel_path.starts_with(PANIC_FREE_LIB) {
                Severity::Error
            } else {
                Severity::Warning
            };
            findings.push(Finding {
                rule: self.name(),
                severity,
                file: wf.source.rel_path.clone(),
                line: f.line,
                message: format!(
                    "pub fn `{}` can reach a panic: {}",
                    f.name,
                    graph.witness(ws, &explicit, id)
                ),
            });
        }

        // Error tier: the serve contract.
        for &entry in &graph.find_fn(ws, "handle_connection", Some("crates/serve")) {
            let node = &graph.nodes[entry];
            let wf = &ws.files[node.file];
            let f = &wf.items.fns[node.item];
            if full.reachable[entry] {
                findings.push(Finding {
                    rule: self.name(),
                    severity: Severity::Error,
                    file: wf.source.rel_path.clone(),
                    line: f.line,
                    message: format!(
                        "serve contract: `handle_connection` reaches an uncontained \
panic: {}",
                        graph.witness(ws, &full, entry)
                    ),
                });
            }
            let fwd = graph.forward_reachable(entry);
            for &target in &graph.find_fn(ws, SERVE_SCORING_ENTRY, None) {
                if fwd[target] {
                    findings.push(Finding {
                        rule: self.name(),
                        severity: Severity::Error,
                        file: wf.source.rel_path.clone(),
                        line: f.line,
                        message: format!(
                            "serve contract: `handle_connection` reaches \
`{SERVE_SCORING_ENTRY}` without passing the batcher's catch_unwind boundary"
                        ),
                    });
                }
            }
        }
        findings
    }
}

// ---------------------------------------------------------------------
// unsafe-taint
// ---------------------------------------------------------------------

/// Unsafe blocks are only reachable through SAFETY-documented wrappers.
pub struct UnsafeTaint;

impl GraphRule for UnsafeTaint {
    fn name(&self) -> &'static str {
        "unsafe-taint"
    }

    fn severity(&self) -> Severity {
        Severity::Warning
    }

    fn summary(&self) -> &'static str {
        "unsafe blocks must sit behind SAFETY-documented wrapper fns"
    }

    fn rationale(&self) -> &'static str {
        "The per-file unsafe-audit rule checks that each unsafe block carries a \
nearby SAFETY comment; this rule checks the *interprocedural* discipline: a fn \
containing an unsafe block is a wrapper, and the wrapper itself must state its \
safety contract (a SAFETY comment in its doc or body). An undocumented wrapper \
is flagged at its definition and at every library call site that reaches it — \
the taint view — because callers have no stated contract to uphold. A `pub \
unsafe fn` without a safety doc is flagged directly: it exports an obligation \
it never states."
    }

    fn check(&self, ws: &Workspace, graph: &CallGraph) -> Vec<Finding> {
        let mut findings = Vec::new();
        let mut undocumented = vec![false; graph.nodes.len()];

        for (id, node) in graph.nodes.iter().enumerate() {
            let wf = &ws.files[node.file];
            let f = &wf.items.fns[node.item];
            if f.in_test || wf.source.test_file || !is_library_path(&wf.source.rel_path) {
                continue;
            }
            if (f.has_unsafe_block || f.is_unsafe) && !f.has_safety_comment {
                undocumented[id] = true;
                let kind = if f.is_unsafe {
                    "unsafe fn"
                } else {
                    "fn with unsafe block"
                };
                findings.push(Finding {
                    rule: self.name(),
                    severity: Severity::Warning,
                    file: wf.source.rel_path.clone(),
                    line: f.line,
                    message: format!(
                        "{kind} `{}` states no SAFETY contract for its callers",
                        f.name
                    ),
                });
            }
        }

        // Taint the callers: every library call site that reaches an
        // undocumented wrapper inherits an unstated obligation.
        for e in &graph.edges {
            if !undocumented[e.to] {
                continue;
            }
            let caller = &graph.nodes[e.from];
            let wf = &ws.files[caller.file];
            let f = &wf.items.fns[caller.item];
            if f.in_test || wf.source.test_file || !is_library_path(&wf.source.rel_path) {
                continue;
            }
            let callee = &ws.files[graph.nodes[e.to].file].items.fns[graph.nodes[e.to].item];
            findings.push(Finding {
                rule: self.name(),
                severity: Severity::Warning,
                file: wf.source.rel_path.clone(),
                line: e.line,
                message: format!(
                    "`{}` calls `{}`, which wraps unsafe code without a stated \
SAFETY contract",
                    f.name, callee.name
                ),
            });
        }
        findings
    }
}

// ---------------------------------------------------------------------
// atomics-pairing
// ---------------------------------------------------------------------

/// Release stores need Acquire loads on the same receiver, and back.
pub struct AtomicsPairing;

/// Which side(s) of a release/acquire pairing an ordering provides.
fn sides(op: &str, orderings: &[String]) -> (bool, bool) {
    // (provides_release, provides_acquire). Stores/RMWs publish with
    // Release; loads/RMWs observe with Acquire. SeqCst and AcqRel
    // provide whichever side(s) the operation can carry.
    let is_store = op == "store";
    let is_load = op == "load";
    let mut release = false;
    let mut acquire = false;
    for o in orderings {
        match o.as_str() {
            "Release" => release = !is_load,
            "Acquire" => acquire = !is_store,
            "AcqRel" => {
                release = true;
                acquire = true;
            }
            "SeqCst" => {
                release = !is_load;
                acquire = !is_store;
            }
            _ => {}
        }
    }
    (release, acquire)
}

impl GraphRule for AtomicsPairing {
    fn name(&self) -> &'static str {
        "atomics-pairing"
    }

    fn severity(&self) -> Severity {
        Severity::Warning
    }

    fn summary(&self) -> &'static str {
        "Release stores must pair with Acquire loads workspace-wide"
    }

    fn rationale(&self) -> &'static str {
        "A Release store creates a happens-before edge only when some thread \
performs an Acquire (or AcqRel/SeqCst) load of the *same* atomic; a Release \
store whose every observer loads Relaxed publishes nothing, and an Acquire \
load with no Release store to observe orders nothing. The per-file \
atomics-audit rule checks each site's comment in isolation; this rule groups \
sites by receiver name across the whole workspace (field and variable names \
are the resolution heuristic — DESIGN.md §3j) and flags any release side with \
no acquire counterpart or vice versa, at every unpaired site. Relaxed-only \
receivers (counters) are fine and not flagged."
    }

    fn check(&self, ws: &Workspace, _graph: &CallGraph) -> Vec<Finding> {
        // receiver -> (has_release, has_acquire, sites)
        type Sites = Vec<(usize, usize, bool, bool)>; // (file, line, rel, acq)
        let mut by_receiver: BTreeMap<String, Sites> = BTreeMap::new();
        for (fi, wf) in ws.files.iter().enumerate() {
            if wf.source.test_file || !is_library_path(&wf.source.rel_path) {
                continue;
            }
            for site in &wf.items.atomics {
                if site.in_test {
                    continue;
                }
                let (rel, acq) = sides(&site.op, &site.orderings);
                by_receiver
                    .entry(site.receiver.clone())
                    .or_default()
                    .push((fi, site.line, rel, acq));
            }
        }
        let mut findings = Vec::new();
        for (receiver, sites) in &by_receiver {
            let has_release = sites.iter().any(|&(_, _, rel, _)| rel);
            let has_acquire = sites.iter().any(|&(_, _, _, acq)| acq);
            for &(fi, line, rel, acq) in sites {
                let msg = if rel && !has_acquire {
                    format!(
                        "Release ordering on `{receiver}` has no Acquire/AcqRel \
load anywhere in the workspace"
                    )
                } else if acq && !has_release {
                    format!(
                        "Acquire ordering on `{receiver}` has no Release/AcqRel \
store anywhere in the workspace"
                    )
                } else {
                    continue;
                };
                findings.push(Finding {
                    rule: self.name(),
                    severity: Severity::Warning,
                    file: ws.files[fi].source.rel_path.clone(),
                    line,
                    message: msg,
                });
            }
        }
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rule: &dyn GraphRule, entries: &[(&str, &str)]) -> Vec<Finding> {
        let ws = Workspace::from_sources(entries);
        let graph = CallGraph::build(&ws);
        rule.check(&ws, &graph)
    }

    #[test]
    fn transitive_panic_is_flagged_with_witness() {
        let findings = run(
            &PanicReachability,
            &[(
                "crates/a/src/lib.rs",
                "pub fn api() { inner(); }\nfn inner() { let v: Vec<u8> = Vec::new(); v.get(0).unwrap(); }\n",
            )],
        );
        let api: Vec<_> = findings
            .iter()
            .filter(|f| f.message.contains("`api`"))
            .collect();
        assert_eq!(api.len(), 1);
        assert!(api[0].message.contains("api → inner"), "{}", api[0].message);
    }

    #[test]
    fn contained_panic_is_not_flagged() {
        let findings = run(
            &PanicReachability,
            &[(
                "crates/a/src/lib.rs",
                "use std::panic::catch_unwind;\n\
                 pub fn api() { let _ = catch_unwind(|| inner()); }\n\
                 fn inner() { panic!(\"x\"); }\n",
            )],
        );
        assert!(
            !findings.iter().any(|f| f.message.contains("`api`")),
            "{findings:?}"
        );
    }

    #[test]
    fn undocumented_wrapper_taints_callers() {
        let findings = run(
            &UnsafeTaint,
            &[(
                "crates/a/src/lib.rs",
                "pub fn caller() { wrapper(); }\n\
                 fn wrapper() { unsafe { std::hint::unreachable_unchecked() } }\n",
            )],
        );
        assert!(findings.iter().any(|f| f.message.contains("`wrapper`")));
        assert!(findings
            .iter()
            .any(|f| f.message.contains("`caller` calls `wrapper`")));
    }

    #[test]
    fn documented_wrapper_is_clean() {
        let findings = run(
            &UnsafeTaint,
            &[(
                "crates/a/src/lib.rs",
                "pub fn caller() { wrapper(); }\n\
                 fn wrapper() {\n    // SAFETY: the buffer is always non-empty here.\n    unsafe { std::hint::unreachable_unchecked() }\n}\n",
            )],
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unpaired_release_store_is_flagged() {
        let findings = run(
            &AtomicsPairing,
            &[(
                "crates/a/src/lib.rs",
                "use std::sync::atomic::{AtomicBool, Ordering};\n\
                 pub fn publish(flag: &AtomicBool) { flag.store(true, Ordering::Release); }\n\
                 pub fn observe(flag: &AtomicBool) -> bool { flag.load(Ordering::Relaxed) }\n",
            )],
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("no Acquire"));
    }

    #[test]
    fn paired_release_acquire_is_clean() {
        let findings = run(
            &AtomicsPairing,
            &[(
                "crates/a/src/lib.rs",
                "use std::sync::atomic::{AtomicBool, Ordering};\n\
                 pub fn publish(flag: &AtomicBool) { flag.store(true, Ordering::Release); }\n\
                 pub fn observe(flag: &AtomicBool) -> bool { flag.load(Ordering::Acquire) }\n",
            )],
        );
        assert!(findings.is_empty(), "{findings:?}");
    }
}
