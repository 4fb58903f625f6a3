//! Panic-reachability: extends the lexical unwrap ban across the call
//! graph.
//!
//! The lexical rule (lint rule 5) only sees `.unwrap()` spelled inside
//! one of the round-critical runtime modules. A panic two calls away —
//! `merge_round -> audit -> sink.drain_round -> .expect(..)` — kills a
//! pool worker just the same. This analysis takes every non-test
//! function in a round-critical file as a root, closes over resolved
//! calls within the runtime+checker crates, and reports every panic
//! source reachable from a root, with the shortest call path printed.
//!
//! Panic sources: `panic!`/`unreachable!`/`todo!`/`unimplemented!`,
//! `.unwrap()`/`.expect(..)`, `panic_any(..)`, and slice/array indexing
//! `x[i]` in files outside the index-audited set. `assert!`-family
//! macros are *not* sources — they encode deliberate invariant checks
//! whose failure is a checker-grade bug, not a recoverable fault.
//!
//! Exemptions: anything inside a `catch_unwind(..)` argument group
//! (the containment boundary), and sites annotated `// PANIC-OK:
//! <why>` on the same line or the line above.

use crate::ast::FnDef;
use crate::callgraph::{for_each_call, resolve_call, CallKind, FnId, FnIndex};
use crate::lexer::{line_of, Delim, TokKind};
use crate::report::Violation;
use crate::tree::Tree;
use crate::Workspace;
use std::collections::{HashMap, VecDeque};

/// Round-critical runtime modules: panic roots. Mirrors the lexical
/// rule's banlist.
const ROUND_CRITICAL: &[&str] = &[
    "crates/runtime/src/lock.rs",
    "crates/runtime/src/task.rs",
    "crates/runtime/src/store.rs",
    "crates/runtime/src/exec.rs",
    "crates/runtime/src/pool.rs",
    "crates/runtime/src/faults.rs",
    "crates/runtime/src/pipelined.rs",
    // Service lanes hold client report channels; a reachable panic
    // there loses the report and wedges the client. Deliberately NOT
    // in INDEX_AUDITED: service code must stay indexing-free.
    "crates/runtime/src/service.rs",
];

/// Files whose slice indexing has been audited (bounds always hold by
/// construction: slot ids are validated at the TaskCtx boundary, the
/// arena hands out indices it minted). Indexing elsewhere in the
/// reachable set is a panic source.
const INDEX_AUDITED: &[&str] = &[
    "crates/runtime/src/lock.rs",
    "crates/runtime/src/task.rs",
    "crates/runtime/src/store.rs",
    "crates/runtime/src/exec.rs",
    "crates/runtime/src/pool.rs",
    "crates/runtime/src/faults.rs",
    "crates/runtime/src/arena.rs",
    "crates/runtime/src/stats.rs",
    // ShardMap's phys/part tables are minted at construction to cover
    // exactly the logical id range; logical ids crossing into them are
    // validated at the same TaskCtx/store boundary as slot ids.
    "crates/runtime/src/shard.rs",
];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// Is this file in the resolution set (functions here get bodies
/// analyzed and edges followed)?
fn in_scope(rel: &str) -> bool {
    rel.contains("crates/runtime/src/") || rel.contains("crates/checker/src/")
}

fn is_round_critical(rel: &str) -> bool {
    ROUND_CRITICAL.iter().any(|f| rel.ends_with(f) || rel == *f)
}

fn is_index_audited(rel: &str) -> bool {
    INDEX_AUDITED.iter().any(|f| rel.ends_with(f) || rel == *f)
}

/// One panic source inside a function.
struct Source {
    off: usize,
    desc: String,
}

/// Per-function facts.
struct Facts {
    sources: Vec<Source>,
    /// (callee, via-offset) resolved call edges, containment excluded.
    edges: Vec<FnId>,
}

pub fn analyze(ws: &Workspace) -> Vec<Violation> {
    let index = FnIndex::build(
        ws.files
            .iter()
            .enumerate()
            .map(|(i, f)| (i, f.rel.as_str(), &f.ast)),
        in_scope,
    );
    let pairs: Vec<(String, crate::ast::FileAst)> = ws
        .files
        .iter()
        .map(|f| (f.rel.clone(), f.ast.clone()))
        .collect();

    let mut facts: HashMap<FnId, Facts> = HashMap::new();
    let mut roots: Vec<FnId> = Vec::new();
    for (fi, file) in ws.files.iter().enumerate() {
        if !in_scope(&file.rel) {
            continue;
        }
        for (idx, d) in file.ast.fns.iter().enumerate() {
            if d.is_test || d.body.is_none() {
                continue;
            }
            let id = FnId { file: fi, idx };
            facts.insert(id, fn_facts(ws, fi, d, &index, &pairs));
            if is_round_critical(&file.rel) {
                roots.push(id);
            }
        }
    }

    // Multi-source BFS: shortest call path from any root.
    let mut parent: HashMap<FnId, Option<FnId>> = HashMap::new();
    let mut queue: VecDeque<FnId> = VecDeque::new();
    for &r in &roots {
        if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(r) {
            e.insert(None);
            queue.push_back(r);
        }
    }
    while let Some(id) = queue.pop_front() {
        let Some(fx) = facts.get(&id) else { continue };
        for &callee in &fx.edges {
            if facts.contains_key(&callee) && !parent.contains_key(&callee) {
                parent.insert(callee, Some(id));
                queue.push_back(callee);
            }
        }
    }

    let mut out = Vec::new();
    for (&id, fx) in &facts {
        if !parent.contains_key(&id) {
            continue;
        }
        let file = &ws.files[id.file];
        let path = call_path(ws, id, &parent);
        for s in &fx.sources {
            out.push(Violation {
                file: file.rel.clone(),
                line: line_of(&file.line_starts, s.off),
                rule: "panic-reachable",
                detail: format!(
                    "{} is reachable from the round path ({path}) and panics past the \
                     containment boundary; recover the error or surface it as an \
                     Abort/TaskFault",
                    s.desc
                ),
            });
        }
    }
    out
}

/// `Root::sym -> mid::sym -> leaf::sym` for the BFS path to `id`.
fn call_path(ws: &Workspace, id: FnId, parent: &HashMap<FnId, Option<FnId>>) -> String {
    let mut segs = Vec::new();
    let mut cur = Some(id);
    while let Some(c) = cur {
        segs.push(ws.files[c.file].ast.fns[c.idx].symbol());
        cur = parent.get(&c).copied().flatten();
    }
    segs.reverse();
    segs.join(" -> ")
}

fn fn_facts(
    ws: &Workspace,
    fi: usize,
    d: &FnDef,
    index: &FnIndex,
    pairs: &[(String, crate::ast::FileAst)],
) -> Facts {
    let file = &ws.files[fi];
    let body = d.body.as_ref().expect("caller checked");
    let mut sources = Vec::new();
    let mut edges = Vec::new();
    for_each_call(body, &mut |c| {
        if c.contained {
            return;
        }
        match c.kind {
            CallKind::Macro => {
                if PANIC_MACROS.contains(&c.name.as_str()) {
                    sources.push(Source {
                        off: c.off,
                        desc: format!("`{}!`", c.name),
                    });
                }
            }
            CallKind::Method => {
                if PANIC_METHODS.contains(&c.name.as_str()) {
                    sources.push(Source {
                        off: c.off,
                        desc: format!("`.{}(..)`", c.name),
                    });
                }
                edges.extend(resolve_call(index, c, d, pairs));
            }
            CallKind::Plain => {
                if c.name == "panic_any" {
                    sources.push(Source {
                        off: c.off,
                        desc: "`panic_any(..)`".to_string(),
                    });
                }
                edges.extend(resolve_call(index, c, d, pairs));
            }
        }
    });
    if !is_index_audited(&file.rel) {
        find_indexing(body, false, false, &mut sources);
    }
    // Drop sources annotated `// PANIC-OK: <why>`.
    sources.retain(|s| !panic_ok(&file.src, &file.line_starts, s.off));
    Facts { sources, edges }
}

/// Recursively find postfix index groups `expr[...]`, skipping macro
/// bodies and catch_unwind argument groups.
fn find_indexing(trees: &[Tree], in_macro: bool, contained: bool, out: &mut Vec<Source>) {
    const NON_POSTFIX_KEYWORDS: &[&str] = &[
        "let", "mut", "ref", "in", "if", "else", "match", "return", "break", "continue", "for",
        "while", "loop", "move", "as", "dyn", "where", "use", "pub", "fn", "impl", "type", "const",
        "static", "enum", "struct", "trait", "mod", "unsafe", "async", "box",
    ];
    for (i, t) in trees.iter().enumerate() {
        if let Tree::Group {
            delim,
            open,
            children,
            ..
        } = t
        {
            let preceded_by_bang =
                i > 0 && (trees[i - 1].is_punct("!") || trees[i - 1].is_punct("#"));
            let child_in_macro = in_macro || preceded_by_bang;
            let child_contained = contained
                || (*delim == Delim::Paren && i > 0 && trees[i - 1].is_ident("catch_unwind"));
            if *delim == Delim::Bracket
                && !child_in_macro
                && !contained
                && !children.is_empty()
                && i > 0
            {
                let prev = &trees[i - 1];
                let postfix = match prev {
                    Tree::Leaf(tok) => {
                        (tok.kind == TokKind::Ident
                            && !NON_POSTFIX_KEYWORDS.contains(&tok.text.as_str()))
                            || tok.is_punct("?")
                    }
                    Tree::Group { delim, .. } => {
                        matches!(delim, Delim::Paren | Delim::Bracket)
                    }
                };
                if postfix {
                    out.push(Source {
                        off: *open,
                        desc: "slice/array indexing".to_string(),
                    });
                }
            }
            find_indexing(children, child_in_macro, child_contained, out);
        }
    }
}

/// Is the source line annotated `PANIC-OK:` — on the line itself or in
/// the contiguous comment block above it?
fn panic_ok(src: &str, starts: &[usize], off: usize) -> bool {
    let ln = line_of(starts, off); // 1-indexed
    let line_text = |n: usize| -> &str {
        if n == 0 || n > starts.len() {
            return "";
        }
        let a = starts[n - 1];
        let b = starts.get(n).copied().unwrap_or(src.len());
        &src[a..b]
    };
    if line_text(ln).contains("PANIC-OK:") {
        return true;
    }
    let mut n = ln;
    while n > 1 {
        n -= 1;
        let t = line_text(n).trim_start();
        if t.starts_with("//") {
            if t.contains("PANIC-OK:") {
                return true;
            }
            continue;
        }
        break;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws_of(files: &[(&str, &str)]) -> Workspace {
        Workspace::from_sources(
            files
                .iter()
                .map(|(r, s)| (r.to_string(), s.to_string()))
                .collect(),
        )
    }

    #[test]
    fn transitive_unwrap_is_reported_with_path() {
        let ws = ws_of(&[
            (
                "crates/runtime/src/exec.rs",
                "pub fn merge_round() { audit_now(); }",
            ),
            (
                "crates/runtime/src/audit.rs",
                "pub fn audit_now() { deep(); }\n\
                 fn deep() { let v: Option<u32> = None; v.unwrap(); }",
            ),
        ]);
        let vs = analyze(&ws);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, "panic-reachable");
        assert!(
            vs[0].detail.contains("merge_round -> audit_now -> deep"),
            "{}",
            vs[0].detail
        );
        assert_eq!(vs[0].file, "crates/runtime/src/audit.rs");
    }

    #[test]
    fn catch_unwind_contains_panics() {
        let ws = ws_of(&[(
            "crates/runtime/src/exec.rs",
            "pub fn run_task() { let r = catch_unwind(AssertUnwindSafe(|| op_call()));  }\n\
             fn op_call() { panic!(\"operator\"); }",
        )]);
        // op_call is itself a root (it lives in exec.rs), so the panic
        // IS reported — but only once, not again via the contained edge.
        let vs = analyze(&ws);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].detail.starts_with("`panic!`"), "{}", vs[0].detail);
        assert!(vs[0].detail.contains("(op_call)"), "{}", vs[0].detail);
    }

    #[test]
    fn panic_ok_annotation_exempts() {
        let ws = ws_of(&[(
            "crates/runtime/src/pool.rs",
            "pub fn spawn_all() {\n\
             // PANIC-OK: startup failure before any round begins\n\
             panic!(\"no threads\");\n\
             }",
        )]);
        assert_eq!(analyze(&ws), Vec::new());
    }

    #[test]
    fn indexing_outside_audited_files_is_a_source() {
        let ws = ws_of(&[
            (
                "crates/runtime/src/exec.rs",
                "pub fn merge_round(r: &Audit) { r.check(); }",
            ),
            (
                "crates/checker/src/audit.rs",
                "impl Audit { pub fn check(&self) { let x = self.slots[0]; } }",
            ),
        ]);
        let vs = analyze(&ws);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].detail.contains("indexing"), "{}", vs[0].detail);
    }

    #[test]
    fn audited_files_may_index_and_asserts_are_not_sources() {
        let ws = ws_of(&[(
            "crates/runtime/src/lock.rs",
            "pub fn owner_of(&self, i: usize) -> u64 {\n\
             assert!(i < self.cap);\n\
             self.owners[i].load()\n\
             }",
        )]);
        assert_eq!(analyze(&ws), Vec::new());
    }

    #[test]
    fn unreachable_checker_code_is_not_reported() {
        let ws = ws_of(&[(
            "crates/checker/src/diff.rs",
            "pub fn diff_commit_set(a: &[u32]) -> u32 { a[0] }",
        )]);
        // No root reaches it: checker files are resolution scope, not roots.
        assert_eq!(analyze(&ws), Vec::new());
    }

    #[test]
    fn test_code_in_round_files_is_exempt() {
        let ws = ws_of(&[(
            "crates/runtime/src/task.rs",
            "pub fn live() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
             #[test]\n\
             fn t() { Option::<u32>::None.unwrap(); }\n\
             }",
        )]);
        assert_eq!(analyze(&ws), Vec::new());
    }
}
