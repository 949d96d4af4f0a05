//! Layer 2 of the interprocedural pipeline (DESIGN.md §3j): the
//! workspace symbol table and call graph.
//!
//! The graph is built from the items recovered by [`crate::items`]
//! with *heuristic* name resolution, scoped deliberately to this
//! workspace:
//!
//! * same-crate bare names (`helper(..)`) resolve to free functions of
//!   the caller's crate (module paths inside a crate are ignored — a
//!   crate-wide name match is an edge);
//! * `use` aliases expand the first path segment, then a leading
//!   workspace lib name (`lsi_core::..`) routes to that crate, where a
//!   renamed re-export in the crate root (`pub use json::{parse as
//!   parse_json}`) expands once more, so `lsi_obs::parse_json` and
//!   `lsi_obs::JsonReader::new` reach `json::parse` and `Reader::new`;
//! * `Type::method(..)` and `Self::method(..)` resolve against the
//!   impl blocks seen for that type anywhere in the workspace;
//! * `self.method(..)` pins to the caller's own impl type when that
//!   type defines the method; every other `.method(..)` falls back to
//!   the impl with that method name **only when exactly one workspace
//!   type defines it** — ambiguous names (`collect`, `for_each`, …)
//!   collide with `std` iterator chains and would glue every plain
//!   iterator pipeline to the vendored rayon's par-iter impls, so they
//!   resolve to nothing (a documented under-approximation);
//! * paths into `std`/`core`/`alloc` and unknown names produce **no
//!   edge**; macro invocations are recorded opaquely and never become
//!   edges.
//!
//! False edges widen reachability (more findings, baselined debt);
//! missing edges narrow it. Both failure modes and their consequences
//! per rule are documented in DESIGN.md §3j.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::Path;

use lsi_obs::Json;

use crate::items::{parse_file, FileItems};
use crate::SourceFile;

/// One parsed file inside a workspace.
#[derive(Debug, Clone)]
pub struct WsFile {
    /// The lexed source (rules and suppression checks need it).
    pub source: SourceFile,
    /// Items recovered by the parser.
    pub items: FileItems,
    /// Owning crate key: `crates/serve`, `vendor/rayon`, `src`,
    /// `examples`.
    pub crate_key: String,
    /// `use` aliases flattened to `alias -> path segments`.
    pub aliases: BTreeMap<String, Vec<String>>,
}

/// The parsed workspace: every file plus the lib-name table used for
/// cross-crate resolution.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// Files sorted by relative path.
    pub files: Vec<WsFile>,
    /// Lib identifier (`lsi_core`) → crate key (`crates/core`).
    pub lib_names: BTreeMap<String, String>,
}

/// The crate key a repo-relative path belongs to.
pub fn crate_key_of(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    match parts.next() {
        Some(first @ ("crates" | "vendor")) => match parts.next() {
            Some(second) => format!("{first}/{second}"),
            None => first.to_string(),
        },
        Some(first) => first.to_string(),
        None => String::new(),
    }
}

impl Workspace {
    /// Build from already-lexed sources (the engine's path: files are
    /// read once, shared by the per-file rules and the graph).
    pub fn from_source_files(
        sources: Vec<SourceFile>,
        lib_names: BTreeMap<String, String>,
    ) -> Workspace {
        let mut files: Vec<WsFile> = sources
            .into_iter()
            .map(|source| {
                let items = parse_file(&source);
                let crate_key = crate_key_of(&source.rel_path);
                let mut aliases = BTreeMap::new();
                for u in &items.uses {
                    aliases.insert(u.alias.clone(), u.path.clone());
                }
                WsFile {
                    source,
                    items,
                    crate_key,
                    aliases,
                }
            })
            .collect();
        files.sort_by(|a, b| a.source.rel_path.cmp(&b.source.rel_path));
        Workspace { files, lib_names }
    }

    /// Build an in-memory workspace from `(rel_path, source)` pairs —
    /// the fixture entry point. Lib names are derived heuristically:
    /// `crates/<d>` → `lsi_<d>`, `vendor/<d>` → `<d>`.
    pub fn from_sources(entries: &[(&str, &str)]) -> Workspace {
        let sources: Vec<SourceFile> = entries
            .iter()
            .map(|(rel, src)| SourceFile::from_source(rel, src))
            .collect();
        let mut lib_names = BTreeMap::new();
        for (rel, _) in entries {
            let key = crate_key_of(rel);
            if let Some(dir) = key.strip_prefix("crates/") {
                lib_names.insert(format!("lsi_{dir}"), key.clone());
            } else if let Some(dir) = key.strip_prefix("vendor/") {
                lib_names.insert(dir.to_string(), key.clone());
            }
        }
        Workspace::from_source_files(sources, lib_names)
    }

    /// Read the real lib-name table from the workspace manifests:
    /// the first `name = "..."` of each `crates/*/Cargo.toml`, the
    /// root package, and `vendor/rayon`.
    pub fn detect_lib_names(root: &Path) -> BTreeMap<String, String> {
        let mut out = BTreeMap::new();
        let mut add = |manifest: &Path, key: &str| {
            if let Ok(text) = std::fs::read_to_string(manifest) {
                for line in text.lines() {
                    let line = line.trim();
                    if let Some(rest) = line.strip_prefix("name") {
                        let rest = rest.trim_start();
                        if let Some(rest) = rest.strip_prefix('=') {
                            let name = rest.trim().trim_matches('"');
                            if !name.is_empty() {
                                out.insert(name.replace('-', "_"), key.to_string());
                                return;
                            }
                        }
                    }
                }
            }
        };
        if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
            let mut dirs: Vec<_> = entries
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect();
            dirs.sort();
            for dir in dirs {
                let key = format!(
                    "crates/{}",
                    dir.file_name().unwrap_or_default().to_string_lossy()
                );
                add(&dir.join("Cargo.toml"), &key);
            }
        }
        add(&root.join("vendor/rayon/Cargo.toml"), "vendor/rayon");
        add(&root.join("Cargo.toml"), "src");
        out
    }
}

/// A graph node: one `fn` item.
#[derive(Debug, Clone)]
pub struct Node {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Index into that file's `items.fns`.
    pub item: usize,
    /// Display label: `crate-key::module::Type::name`.
    pub label: String,
}

/// A call edge.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// Caller node id.
    pub from: usize,
    /// Callee node id.
    pub to: usize,
    /// 1-based line of the call site.
    pub line: usize,
    /// The call sits inside a `catch_unwind(..)` argument — panics do
    /// not propagate past it.
    pub contained: bool,
    /// Resolved through method-name fallback rather than a path.
    pub method: bool,
}

/// The workspace call graph.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// One node per parsed `fn`, in (file, item) order.
    pub nodes: Vec<Node>,
    /// Sorted, deduplicated edges.
    pub edges: Vec<Edge>,
    /// Outgoing edge indices per node.
    pub out: Vec<Vec<usize>>,
    /// Incoming edge indices per node.
    pub rin: Vec<Vec<usize>>,
}

/// How a node became panic-reachable (for witness paths).
#[derive(Debug, Clone)]
pub enum Via {
    /// A panic site in the node's own body.
    Direct(String, usize),
    /// Through this edge (index into [`CallGraph::edges`]).
    Call(usize),
}

/// Panic-reachability over uncontained edges.
#[derive(Debug, Clone, Default)]
pub struct PanicReach {
    /// Per-node: can the node reach a panic site without passing a
    /// `catch_unwind` boundary?
    pub reachable: Vec<bool>,
    /// Per-node: the first hop of a shortest witness path.
    pub via: Vec<Option<Via>>,
}

impl CallGraph {
    /// Build the graph for a workspace.
    pub fn build(ws: &Workspace) -> CallGraph {
        let mut graph = CallGraph::default();
        // Node table + symbol maps.
        let mut sym = Symbols::default();
        for (fi, wf) in ws.files.iter().enumerate() {
            if wf.source.rel_path == format!("{}/src/lib.rs", wf.crate_key) {
                for u in &wf.items.uses {
                    if u.path.last() != Some(&u.alias) {
                        sym.renames
                            .insert((wf.crate_key.clone(), u.alias.clone()), u.path.clone());
                    }
                }
            }
            for (ii, f) in wf.items.fns.iter().enumerate() {
                let id = graph.nodes.len();
                let mut label = wf.crate_key.clone();
                if !f.module.is_empty() {
                    label = format!("{label}::{}", f.module);
                }
                if let Some(ty) = &f.self_type {
                    label = format!("{label}::{ty}");
                }
                label = format!("{label}::{}", f.name);
                graph.nodes.push(Node {
                    file: fi,
                    item: ii,
                    label,
                });
                sym.owner_types.push(f.self_type.clone().unwrap_or_default());
                if f.in_test {
                    continue;
                }
                match &f.self_type {
                    Some(ty) => {
                        sym.type_method
                            .entry((ty.clone(), f.name.clone()))
                            .or_default()
                            .push(id);
                        sym.method_by_name.entry(f.name.clone()).or_default().push(id);
                    }
                    None => {
                        sym.free_by_crate
                            .entry((wf.crate_key.clone(), f.name.clone()))
                            .or_default()
                            .push(id);
                    }
                }
            }
        }
        // Edges.
        let mut edge_set: BTreeSet<Edge> = BTreeSet::new();
        for (id, node) in graph.nodes.iter().enumerate() {
            let wf = &ws.files[node.file];
            let f = &wf.items.fns[node.item];
            if f.in_test {
                continue;
            }
            for call in &f.calls {
                if call.macro_call {
                    continue;
                }
                for to in resolve(ws, node.file, f, call, &sym) {
                    edge_set.insert(Edge {
                        from: id,
                        to,
                        line: call.line,
                        contained: call.contained,
                        method: call.method,
                    });
                }
            }
        }
        graph.edges = edge_set.into_iter().collect();
        graph.out = vec![Vec::new(); graph.nodes.len()];
        graph.rin = vec![Vec::new(); graph.nodes.len()];
        for (ei, e) in graph.edges.iter().enumerate() {
            graph.out[e.from].push(ei);
            graph.rin[e.to].push(ei);
        }
        graph
    }

    /// Find a node by function name, optionally pinned to a crate key.
    pub fn find_fn(&self, ws: &Workspace, name: &str, crate_key: Option<&str>) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                let wf = &ws.files[n.file];
                wf.items.fns[n.item].name == name
                    && crate_key.is_none_or(|k| wf.crate_key == k)
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Fixed-point panic-reachability over uncontained edges, with
    /// shortest-hop witness pointers (BFS from direct panic sites over
    /// reverse edges; deterministic given the sorted node/edge order).
    pub fn panic_reach(&self, ws: &Workspace) -> PanicReach {
        self.panic_reach_filtered(ws, true)
    }

    /// Panic-reachability with an optional indexing filter: the serve
    /// contract cares about `v[i]` sites, the general warning tier
    /// does not (bounds-checked indexing is how the numeric kernels
    /// are written — DESIGN.md §3j).
    ///
    /// Panic sites inside `crates/fault/` never seed propagation:
    /// that crate exists to *inject* panics on demand, disarmed by
    /// default, and counting its sites would mark every instrumented
    /// path panic-reachable. Its fns still forward panics from
    /// elsewhere through their edges.
    pub fn panic_reach_filtered(&self, ws: &Workspace, include_indexing: bool) -> PanicReach {
        let n = self.nodes.len();
        let mut reach = PanicReach {
            reachable: vec![false; n],
            via: vec![None; n],
        };
        let mut queue = VecDeque::new();
        for (id, node) in self.nodes.iter().enumerate() {
            let wf = &ws.files[node.file];
            if wf.source.rel_path.starts_with("crates/fault/") {
                continue;
            }
            let f = &wf.items.fns[node.item];
            if let Some(p) = f
                .panics
                .iter()
                .find(|p| !p.contained && (include_indexing || p.what != "index"))
            {
                reach.reachable[id] = true;
                reach.via[id] = Some(Via::Direct(p.what.clone(), p.line));
                queue.push_back(id);
            }
        }
        while let Some(cur) = queue.pop_front() {
            for &ei in &self.rin[cur] {
                let e = &self.edges[ei];
                if e.contained || reach.reachable[e.from] {
                    continue;
                }
                reach.reachable[e.from] = true;
                reach.via[e.from] = Some(Via::Call(ei));
                queue.push_back(e.from);
            }
        }
        reach
    }

    /// Nodes reachable from `start` following uncontained edges
    /// (`start` included).
    pub fn forward_reachable(&self, start: usize) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut queue = VecDeque::new();
        seen[start] = true;
        queue.push_back(start);
        while let Some(cur) = queue.pop_front() {
            for &ei in &self.out[cur] {
                let e = &self.edges[ei];
                if e.contained || seen[e.to] {
                    continue;
                }
                seen[e.to] = true;
                queue.push_back(e.to);
            }
        }
        seen
    }

    /// Render the witness path for a panic-reachable node:
    /// `a → b → c: .unwrap() (crates/x/src/lib.rs:12)`.
    pub fn witness(&self, ws: &Workspace, reach: &PanicReach, node: usize) -> String {
        let mut parts = vec![self.short_name(ws, node)];
        let mut cur = node;
        for _ in 0..16 {
            match &reach.via[cur] {
                Some(Via::Call(ei)) => {
                    cur = self.edges[*ei].to;
                    parts.push(self.short_name(ws, cur));
                }
                Some(Via::Direct(what, line)) => {
                    let file = &ws.files[self.nodes[cur].file].source.rel_path;
                    return format!("{}: {} ({}:{})", parts.join(" → "), what, file, line);
                }
                None => break,
            }
        }
        parts.join(" → ")
    }

    /// `Type::name` or bare `name` for witness paths.
    fn short_name(&self, ws: &Workspace, node: usize) -> String {
        let n = &self.nodes[node];
        let f = &ws.files[n.file].items.fns[n.item];
        match &f.self_type {
            Some(ty) => format!("{ty}::{}", f.name),
            None => f.name.clone(),
        }
    }

    /// Graphviz DOT export. Contained edges are dashed; method-fallback
    /// edges are grey.
    pub fn to_dot(&self, ws: &Workspace) -> String {
        let mut s = String::from("digraph lsi_calls {\n  rankdir=LR;\n  node [shape=box, fontsize=9];\n");
        for (id, node) in self.nodes.iter().enumerate() {
            let f = &ws.files[node.file].items.fns[node.item];
            if f.in_test {
                continue;
            }
            let style = if f.panics.iter().any(|p| !p.contained) {
                ", color=red"
            } else if f.has_unsafe_block || f.is_unsafe {
                ", color=orange"
            } else {
                ""
            };
            s.push_str(&format!("  n{id} [label=\"{}\"{}];\n", node.label, style));
        }
        for e in &self.edges {
            let mut attrs = Vec::new();
            if e.contained {
                attrs.push("style=dashed");
            }
            if e.method {
                attrs.push("color=grey");
            }
            let attrs = if attrs.is_empty() {
                String::new()
            } else {
                format!(" [{}]", attrs.join(", "))
            };
            s.push_str(&format!("  n{} -> n{}{};\n", e.from, e.to, attrs));
        }
        s.push_str("}\n");
        s
    }

    /// JSON export: `{nodes: [...], edges: [...]}`.
    pub fn to_json(&self, ws: &Workspace) -> Json {
        let nodes: Vec<Json> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(id, node)| {
                let wf = &ws.files[node.file];
                let f = &wf.items.fns[node.item];
                Json::obj(vec![
                    ("id", Json::Num(id as f64)),
                    ("label", Json::Str(node.label.clone())),
                    ("file", Json::Str(wf.source.rel_path.clone())),
                    ("line", Json::Num(f.line as f64)),
                    ("pub", Json::Bool(f.is_pub)),
                    ("test", Json::Bool(f.in_test)),
                    ("unsafe_block", Json::Bool(f.has_unsafe_block)),
                    (
                        "panic_sites",
                        Json::Num(f.panics.iter().filter(|p| !p.contained).count() as f64),
                    ),
                ])
            })
            .collect();
        let edges: Vec<Json> = self
            .edges
            .iter()
            .map(|e| {
                Json::obj(vec![
                    ("from", Json::Num(e.from as f64)),
                    ("to", Json::Num(e.to as f64)),
                    ("line", Json::Num(e.line as f64)),
                    ("contained", Json::Bool(e.contained)),
                    ("method", Json::Bool(e.method)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("nodes", Json::Arr(nodes)),
            ("edges", Json::Arr(edges)),
        ])
    }
}

/// Method names that never take the any-impl fallback, even when only
/// one workspace type defines them: they are std slice/iterator/
/// collection staples, so a bare `.to_vec()` or `.iter()` on an
/// untyped receiver is almost always the std method, and a workspace
/// edge there manufactures false paths (a `rest.to_vec()` on a byte
/// slice must not become an edge into `RowView::to_vec`). Self-pinned
/// and `Type::method` calls resolve before this list is consulted.
const STD_METHOD_NAMES: &[&str] = &[
    "all", "any", "append", "as_bytes", "as_mut", "as_ref", "as_slice", "as_str", "chain",
    "clear", "clone", "cloned", "collect", "contains", "copied", "count", "drain", "enumerate",
    "extend", "filter", "find", "flat_map", "flatten", "flush", "fold", "for_each", "get",
    "get_mut", "insert", "into_iter", "is_empty", "iter", "iter_mut", "join", "len", "map",
    "max", "min", "next", "parse", "pop", "position", "push", "read", "remove", "rev",
    "skip", "sort", "sort_by", "split", "sum", "take", "to_owned", "to_string", "to_vec",
    "trim", "write", "zip",
];

/// The symbol tables call sites resolve against.
#[derive(Default)]
struct Symbols {
    /// `(crate key, fn name)` → free functions.
    free_by_crate: BTreeMap<(String, String), Vec<usize>>,
    /// `(type, method name)` → methods, workspace-wide.
    type_method: BTreeMap<(String, String), Vec<usize>>,
    /// Method name → methods of any type.
    method_by_name: BTreeMap<String, Vec<usize>>,
    /// Per node: its impl type (`""` for free functions).
    owner_types: Vec<String>,
    /// `(crate key, exported name)` → the path a crate root's renaming
    /// `use .. as ..` points at.
    renames: BTreeMap<(String, String), Vec<String>>,
}

/// Resolve one call site to target node ids (empty = no edge).
fn resolve(
    ws: &Workspace,
    file_idx: usize,
    caller: &crate::items::FnItem,
    call: &crate::items::CallSite,
    sym: &Symbols,
) -> Vec<usize> {
    let wf = &ws.files[file_idx];
    if call.method {
        let name = &call.path[0];
        if call.self_receiver {
            if let Some(ty) = &caller.self_type {
                if let Some(hits) = sym.type_method.get(&(ty.clone(), name.clone())) {
                    return hits.clone();
                }
            }
        }
        // Trait-method fallback — only when the name is unambiguous:
        // exactly one workspace type defines it, and the name is not a
        // std staple. Ambiguous or std-shared names are usually std
        // calls on untyped receivers; an any-impl edge there floods
        // the graph with false paths into vendor/rayon.
        if STD_METHOD_NAMES.contains(&name.as_str()) {
            return Vec::new();
        }
        let hits = match sym.method_by_name.get(name) {
            Some(hits) => hits,
            None => return Vec::new(),
        };
        let mut types = BTreeSet::new();
        for &id in hits {
            types.insert(sym.owner_types[id].as_str());
        }
        if types.len() == 1 {
            return hits.clone();
        }
        return Vec::new();
    }

    let mut segs = call.path.clone();
    // `use` alias on the first segment.
    if let Some(expansion) = wf.aliases.get(&segs[0]) {
        let mut new = expansion.clone();
        new.extend(segs.drain(1..));
        segs = new;
    }
    // Leading `crate`/`self`/`super` pin the caller's crate.
    while matches!(segs.first().map(String::as_str), Some("crate" | "self" | "super")) {
        segs.remove(0);
    }
    if segs.is_empty() {
        return Vec::new();
    }
    // A workspace lib name routes to its crate; `std` & friends leave
    // the workspace entirely.
    let mut target_crate = wf.crate_key.clone();
    if let Some(key) = ws.lib_names.get(&segs[0]) {
        target_crate = key.clone();
        segs.remove(0);
    } else if matches!(segs[0].as_str(), "std" | "core" | "alloc") {
        return Vec::new();
    }
    if segs.is_empty() {
        return Vec::new();
    }
    // A name the target crate's root re-exports under a new name
    // continues at the path it renames, inside that crate.
    if let Some(path) = sym.renames.get(&(target_crate.clone(), segs[0].clone())) {
        let rest = segs.split_off(1);
        segs = path
            .iter()
            .filter(|seg| !matches!(seg.as_str(), "crate" | "self" | "super"))
            .cloned()
            .chain(rest)
            .collect();
    }
    let name = segs.last().cloned().unwrap_or_default();
    // `Type::method` / `Self::method`.
    if segs.len() >= 2 {
        let ty = segs[segs.len() - 2].clone();
        let ty = if ty == "Self" {
            match &caller.self_type {
                Some(t) => t.clone(),
                None => return Vec::new(),
            }
        } else {
            ty
        };
        if ty.chars().next().is_some_and(|c| c.is_uppercase()) {
            return sym.type_method.get(&(ty, name)).cloned().unwrap_or_default();
        }
    }
    // Free function by crate-wide name (module segments are ignored —
    // the documented same-crate heuristic).
    sym.free_by_crate
        .get(&(target_crate, name))
        .cloned()
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_keys() {
        assert_eq!(crate_key_of("crates/serve/src/server.rs"), "crates/serve");
        assert_eq!(crate_key_of("vendor/rayon/src/lib.rs"), "vendor/rayon");
        assert_eq!(crate_key_of("src/lib.rs"), "src");
        assert_eq!(crate_key_of("examples/demo.rs"), "examples");
    }

    #[test]
    fn same_crate_and_cross_crate_edges() {
        let ws = Workspace::from_sources(&[
            (
                "crates/a/src/lib.rs",
                "use lsi_b::remote;\npub fn entry() { local(); remote(); }\nfn local() {}\n",
            ),
            ("crates/b/src/lib.rs", "pub fn remote() {}\n"),
        ]);
        let g = CallGraph::build(&ws);
        let entry = g.find_fn(&ws, "entry", None)[0];
        let local = g.find_fn(&ws, "local", None)[0];
        let remote = g.find_fn(&ws, "remote", None)[0];
        let targets: Vec<usize> = g.out[entry].iter().map(|&e| g.edges[e].to).collect();
        assert!(targets.contains(&local));
        assert!(targets.contains(&remote));
    }

    #[test]
    fn self_method_resolution_beats_any_impl() {
        let ws = Workspace::from_sources(&[(
            "crates/a/src/lib.rs",
            "struct A;\nstruct B;\nimpl A {\n    fn go(&self) { self.step(); }\n    fn step(&self) {}\n}\n\
             impl B {\n    fn step(&self) {}\n}\n",
        )]);
        let g = CallGraph::build(&ws);
        let go = g.find_fn(&ws, "go", None)[0];
        let targets: Vec<&str> = g.out[go]
            .iter()
            .map(|&e| g.nodes[g.edges[e].to].label.as_str())
            .collect();
        assert_eq!(targets, ["crates/a::A::step"], "pinned to A, not B");
    }

    #[test]
    fn unknown_and_std_paths_make_no_edges() {
        let ws = Workspace::from_sources(&[(
            "crates/a/src/lib.rs",
            "pub fn f() { std::mem::drop(1); String::new(); no_such_fn_anywhere(); }\n",
        )]);
        let g = CallGraph::build(&ws);
        assert!(g.edges.is_empty());
    }

    #[test]
    fn contained_edges_stop_panic_propagation() {
        let ws = Workspace::from_sources(&[(
            "crates/a/src/lib.rs",
            "use std::panic::catch_unwind;\n\
             pub fn safe_entry() { let _ = catch_unwind(|| scary()); }\n\
             pub fn bad_entry() { scary(); }\n\
             fn scary() { panic!(\"boom\"); }\n",
        )]);
        let g = CallGraph::build(&ws);
        let reach = g.panic_reach(&ws);
        let safe = g.find_fn(&ws, "safe_entry", None)[0];
        let bad = g.find_fn(&ws, "bad_entry", None)[0];
        let scary = g.find_fn(&ws, "scary", None)[0];
        assert!(reach.reachable[scary]);
        assert!(reach.reachable[bad]);
        assert!(!reach.reachable[safe], "catch_unwind contains the panic");
        let w = g.witness(&ws, &reach, bad);
        assert!(w.contains("bad_entry → scary"), "witness path: {w}");
        assert!(w.contains("panic!"), "witness names the site: {w}");
    }

    #[test]
    fn dot_and_json_exports_cover_nodes_and_edges() {
        let ws = Workspace::from_sources(&[(
            "crates/a/src/lib.rs",
            "pub fn a() { b(); }\nfn b() {}\n",
        )]);
        let g = CallGraph::build(&ws);
        let dot = g.to_dot(&ws);
        assert!(dot.contains("digraph"));
        assert!(dot.contains("crates/a::a"));
        assert!(dot.contains("->"));
        let json = g.to_json(&ws).to_string_pretty();
        assert!(json.contains("\"nodes\""));
        assert!(json.contains("\"edges\""));
    }
}
