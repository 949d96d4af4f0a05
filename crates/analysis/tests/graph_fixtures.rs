//! Per-rule fixtures for the interprocedural (graph) rules, in the
//! same positive/negative style as `rule_fixtures.rs`: each rule gets
//! fixtures that must fire and fixtures that must stay silent, pinning
//! the resolution and propagation semantics documented in DESIGN.md
//! §3j.

use std::path::Path;

use lsi_analyze::graph::{CallGraph, Workspace};
use lsi_analyze::graph_rules::graph_rule_by_name;
use lsi_analyze::{compare, engine, Analysis, Baseline, Finding, Severity};

/// Run one graph rule over an in-memory workspace.
fn findings(rule: &str, entries: &[(&str, &str)]) -> Vec<Finding> {
    let ws = Workspace::from_sources(entries);
    let graph = CallGraph::build(&ws);
    graph_rule_by_name(rule)
        .expect("graph rule exists")
        .check(&ws, &graph)
}

/// `(file, line)` hit pairs of one graph rule, in finding order.
fn hits(rule: &str, entries: &[(&str, &str)]) -> Vec<(String, usize)> {
    findings(rule, entries)
        .into_iter()
        .map(|f| (f.file, f.line))
        .collect()
}

/// Finding messages, for fixtures that pin witness-path rendering.
fn messages(rule: &str, entries: &[(&str, &str)]) -> Vec<String> {
    let ws = Workspace::from_sources(entries);
    let graph = CallGraph::build(&ws);
    graph_rule_by_name(rule)
        .expect("graph rule exists")
        .check(&ws, &graph)
        .into_iter()
        .map(|f| f.message)
        .collect()
}

const LIB: &str = "crates/core/src/fixture.rs";

// ------------------------------------------------------------------
// panic-reachability
// ------------------------------------------------------------------

#[test]
fn pub_fn_reaching_unwrap_transitively_fires() {
    let src = "pub fn api(v: Option<u8>) -> u8 {\n    inner(v)\n}\n\
               fn inner(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\n";
    // Only the pub entry point is flagged, at its definition; the
    // private fn is panic-surface's business.
    assert_eq!(
        hits("panic-reachability", &[(LIB, src)]),
        vec![(LIB.to_string(), 1)]
    );
    let msgs = messages("panic-reachability", &[(LIB, src)]);
    assert!(
        msgs[0].contains("api") && msgs[0].contains("inner") && msgs[0].contains(".unwrap()"),
        "witness path names the hop and the site: {msgs:?}"
    );
}

#[test]
fn core_pub_fn_reaching_unwrap_is_an_error_that_fails_ci() {
    let src = "pub fn api(v: Option<u8>) -> u8 {\n    inner(v)\n}\n\
               fn inner(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\n";
    let core = "crates/core/src/query.rs";
    let found = findings("panic-reachability", &[(core, src)]);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].severity, Severity::Error, "{found:?}");
    // `lsi-analyze --ci` exits 1 on any pair above the committed
    // baseline, and that baseline allows lsi-core no such finding.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let baseline = Baseline::load(&root.join(engine::BASELINE_FILE)).expect("baseline parses");
    let analysis = Analysis {
        findings: found,
        ..Analysis::default()
    };
    let over = compare(&analysis, &baseline).over;
    assert_eq!(over.len(), 1, "{over:?}");
    assert_eq!((over[0].rule.as_str(), over[0].file.as_str()), ("panic-reachability", core));
    // Outside lsi-core the same path stays a warning.
    let apps = findings("panic-reachability", &[("crates/apps/src/lib.rs", src)]);
    assert_eq!(apps[0].severity, Severity::Warning, "{apps:?}");
}

#[test]
fn cross_crate_panic_path_fires() {
    let a = "use lsi_util::boom;\npub fn entry() {\n    boom();\n}\n";
    let b = "pub fn boom() {\n    panic!(\"down\");\n}\n";
    let found = hits(
        "panic-reachability",
        &[("crates/app/src/lib.rs", a), ("crates/util/src/lib.rs", b)],
    );
    // Both pub fns reach the panic: `boom` directly, `entry` through
    // the cross-crate edge the `use` alias resolves.
    assert!(
        found.contains(&("crates/app/src/lib.rs".to_string(), 2)),
        "caller flagged through the cross-crate edge: {found:?}"
    );
    assert!(
        found.contains(&("crates/util/src/lib.rs".to_string(), 1)),
        "panicking pub fn flagged directly: {found:?}"
    );
}

#[test]
fn catch_unwind_containment_silences() {
    let src = "use std::panic::catch_unwind;\n\
               pub fn api() {\n    let _ = catch_unwind(|| inner());\n}\n\
               fn inner() {\n    panic!(\"contained\");\n}\n";
    assert!(
        hits("panic-reachability", &[(LIB, src)]).is_empty(),
        "a catch_unwind boundary stops propagation"
    );
}

#[test]
fn indexing_only_paths_are_contract_only() {
    // Slice indexing can panic, but flagging every pub fn that indexes
    // would drown the signal — indexing feeds only the serve-path
    // contract, not the warning tier.
    let src = "pub fn api(v: &[u8]) -> u8 {\n    inner(v)\n}\n\
               fn inner(v: &[u8]) -> u8 {\n    v[0]\n}\n";
    assert!(hits("panic-reachability", &[(LIB, src)]).is_empty());
}

#[test]
fn panic_sites_in_test_code_do_not_seed() {
    let src = "pub fn api() {}\n\
               #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
               Option::<u8>::None.unwrap();\n    }\n}\n";
    assert!(hits("panic-reachability", &[(LIB, src)]).is_empty());
}

#[test]
fn fault_crate_sites_do_not_seed() {
    // Fault-injection panics are intentional and disarmed by default;
    // they must not make every instrumented caller "panic-reachable".
    let fault = "pub fn fire() {\n    panic!(\"injected\");\n}\n";
    let app = "use lsi_fault::fire;\npub fn entry() {\n    fire();\n}\n";
    assert!(hits(
        "panic-reachability",
        &[
            ("crates/fault/src/lib.rs", fault),
            ("crates/app/src/lib.rs", app),
        ],
    )
    .is_empty());
}

#[test]
fn private_fns_are_not_flagged() {
    let src = "fn helper(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\n";
    assert!(hits("panic-reachability", &[(LIB, src)]).is_empty());
}

#[test]
fn serve_handler_reaching_the_scoring_entry_uncontained_is_an_error() {
    let serve = "use lsi_core::query_top_batch_at;\n\
                 pub fn handle_connection() {\n    query_top_batch_at();\n}\n";
    let core = "pub fn query_top_batch_at() {}\n";
    let entries = [
        ("crates/serve/src/server.rs", serve),
        ("crates/core/src/batch.rs", core),
    ];
    assert_eq!(
        hits("panic-reachability", &entries),
        vec![("crates/serve/src/server.rs".to_string(), 2)]
    );
    let msgs = messages("panic-reachability", &entries);
    assert!(
        msgs[0].contains("serve contract") && msgs[0].contains("query_top_batch_at"),
        "the error names the contract and the entry: {msgs:?}"
    );
}

#[test]
fn serve_handler_reaching_the_scoring_entry_through_catch_unwind_is_silent() {
    let serve = "use std::panic::catch_unwind;\n\
                 use lsi_core::query_top_batch_at;\n\
                 pub fn handle_connection() {\n    score_batch();\n}\n\
                 fn score_batch() {\n    let _ = catch_unwind(|| query_top_batch_at());\n}\n";
    let core = "pub fn query_top_batch_at() {}\n";
    assert!(hits(
        "panic-reachability",
        &[
            ("crates/serve/src/server.rs", serve),
            ("crates/core/src/batch.rs", core),
        ],
    )
    .is_empty());
}

/// `lsi-obs`'s crate root re-exports its JSON reader under new names,
/// and the reader indexes.
const OBS_LIB: &str = "mod json;\npub use json::{parse as parse_json, Reader as JsonReader};\n";
const OBS_JSON: &str = "pub fn parse(s: &[u8]) -> u8 {\n    s[0]\n}\n\
                        pub struct Reader;\n\
                        impl Reader {\n    pub fn new(s: &[u8]) -> u8 {\n        s[1]\n    }\n}\n";

#[test]
fn serve_contract_follows_renamed_reexports() {
    // The handler's only route to each index site is a call through a
    // renamed re-export: a function (`parse_json` → `json::parse`) and
    // a type (`JsonReader::new` → `Reader::new`).
    for call in ["lsi_obs::parse_json(body)", "lsi_obs::JsonReader::new(body)"] {
        let serve = format!(
            "pub fn handle_connection(body: &[u8]) {{\n    parse_post_query(body);\n}}\n\
             fn parse_post_query(body: &[u8]) -> u8 {{\n    {call}\n}}\n"
        );
        let entries = [
            ("crates/serve/src/server.rs", serve.as_str()),
            ("crates/obs/src/lib.rs", OBS_LIB),
            ("crates/obs/src/json.rs", OBS_JSON),
        ];
        assert_eq!(
            hits("panic-reachability", &entries),
            vec![("crates/serve/src/server.rs".to_string(), 1)],
            "{call}"
        );
        let msgs = messages("panic-reachability", &entries);
        assert!(
            msgs[0].contains("serve contract") && msgs[0].contains("crates/obs/src/json.rs"),
            "the witness ends at the reader's index site: {msgs:?}"
        );
    }
}

#[test]
fn renamed_reexport_off_the_serve_path_is_silent() {
    // The same index sites, reached through the same renames, but from
    // a fn the handler never calls: indexing alone is contract-only.
    let serve = "pub fn handle_connection(body: &[u8]) {\n    let _ = body;\n}\n\
                 pub fn load(body: &[u8]) -> u8 {\n    \
                 lsi_obs::parse_json(body) + lsi_obs::JsonReader::new(body)\n}\n";
    assert!(hits(
        "panic-reachability",
        &[
            ("crates/serve/src/server.rs", serve),
            ("crates/obs/src/lib.rs", OBS_LIB),
            ("crates/obs/src/json.rs", OBS_JSON),
        ],
    )
    .is_empty());
}

// ------------------------------------------------------------------
// unsafe-taint
// ------------------------------------------------------------------

#[test]
fn undocumented_unsafe_wrapper_fires_at_definition() {
    let src = "pub fn read(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
    assert_eq!(
        hits("unsafe-taint", &[(LIB, src)]),
        vec![(LIB.to_string(), 1)]
    );
}

#[test]
fn callers_of_undocumented_wrapper_are_tainted() {
    let src = "pub fn outer(p: *const u8) -> u8 {\n    wrapper(p)\n}\n\
               fn wrapper(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
    let found = hits("unsafe-taint", &[(LIB, src)]);
    // The wrapper's definition (line 4) and the call site that reaches
    // it (line 2) are both flagged.
    assert!(found.contains(&(LIB.to_string(), 4)), "{found:?}");
    assert!(found.contains(&(LIB.to_string(), 2)), "{found:?}");
}

#[test]
fn safety_comment_in_body_silences_wrapper_and_callers() {
    let src = "pub fn outer(p: *const u8) -> u8 {\n    wrapper(p)\n}\n\
               fn wrapper(p: *const u8) -> u8 {\n    \
               // SAFETY: callers pass a pointer valid for one read.\n    \
               unsafe { *p }\n}\n";
    assert!(hits("unsafe-taint", &[(LIB, src)]).is_empty());
}

#[test]
fn safety_doc_section_silences_pub_unsafe_fn() {
    let src = "/// Dereference `p`.\n///\n/// # Safety\n/// `p` must be valid for reads.\n\
               pub unsafe fn read(p: *const u8) -> u8 {\n    *p\n}\n";
    assert!(hits("unsafe-taint", &[(LIB, src)]).is_empty());
}

#[test]
fn pub_unsafe_fn_without_safety_doc_fires() {
    let src = "pub unsafe fn read(p: *const u8) -> u8 {\n    *p\n}\n";
    assert_eq!(
        hits("unsafe-taint", &[(LIB, src)]),
        vec![(LIB.to_string(), 1)]
    );
}

#[test]
fn unsafe_in_test_code_is_exempt() {
    let src = "#[cfg(test)]\nmod tests {\n    fn t(p: *const u8) -> u8 {\n        \
               unsafe { *p }\n    }\n}\n";
    assert!(hits("unsafe-taint", &[(LIB, src)]).is_empty());
}

// ------------------------------------------------------------------
// atomics-pairing
// ------------------------------------------------------------------

#[test]
fn release_store_without_acquire_fires() {
    let src = "pub fn publish(f: &AtomicBool) {\n    \
               f.ready.store(true, Ordering::Release);\n}\n\
               pub fn check(f: &AtomicBool) -> bool {\n    \
               f.ready.load(Ordering::Relaxed)\n}\n";
    assert_eq!(
        hits("atomics-pairing", &[(LIB, src)]),
        vec![(LIB.to_string(), 2)],
        "the Release store is unpaired; the Relaxed load is not itself flagged"
    );
}

#[test]
fn acquire_load_without_release_fires() {
    let src = "pub fn check(f: &AtomicBool) -> bool {\n    \
               f.ready.load(Ordering::Acquire)\n}\n\
               pub fn bump(f: &AtomicBool) {\n    \
               f.ready.store(true, Ordering::Relaxed);\n}\n";
    assert_eq!(
        hits("atomics-pairing", &[(LIB, src)]),
        vec![(LIB.to_string(), 2)]
    );
}

#[test]
fn paired_release_acquire_is_silent() {
    let src = "pub fn publish(f: &AtomicBool) {\n    \
               f.ready.store(true, Ordering::Release);\n}\n\
               pub fn check(f: &AtomicBool) -> bool {\n    \
               f.ready.load(Ordering::Acquire)\n}\n";
    assert!(hits("atomics-pairing", &[(LIB, src)]).is_empty());
}

#[test]
fn seqcst_satisfies_both_sides() {
    let src = "pub fn publish(f: &AtomicBool) {\n    \
               f.ready.store(true, Ordering::SeqCst);\n}\n\
               pub fn check(f: &AtomicBool) -> bool {\n    \
               f.ready.load(Ordering::SeqCst)\n}\n";
    assert!(hits("atomics-pairing", &[(LIB, src)]).is_empty());
}

#[test]
fn acqrel_rmw_pairs_with_release_store() {
    let src = "pub fn publish(f: &AtomicU64) {\n    \
               f.state.store(1, Ordering::Release);\n}\n\
               pub fn claim(f: &AtomicU64) -> u64 {\n    \
               f.state.fetch_or(2, Ordering::AcqRel)\n}\n";
    assert!(hits("atomics-pairing", &[(LIB, src)]).is_empty());
}

#[test]
fn relaxed_only_counters_are_silent() {
    let src = "pub fn bump(c: &AtomicU64) {\n    \
               c.count.fetch_add(1, Ordering::Relaxed);\n}\n\
               pub fn read(c: &AtomicU64) -> u64 {\n    \
               c.count.load(Ordering::Relaxed)\n}\n";
    assert!(hits("atomics-pairing", &[(LIB, src)]).is_empty());
}

#[test]
fn distinct_receivers_do_not_pair() {
    // `a`'s Release never pairs with `b`'s Acquire: both sides are
    // unpaired and both sites are flagged.
    let src = "pub fn publish(x: &AtomicBool) {\n    \
               x.armed.store(true, Ordering::Release);\n}\n\
               pub fn check(y: &AtomicBool) -> bool {\n    \
               y.sealed.load(Ordering::Acquire)\n}\n";
    let found = hits("atomics-pairing", &[(LIB, src)]);
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(found.contains(&(LIB.to_string(), 2)));
    assert!(found.contains(&(LIB.to_string(), 5)));
}
