//! Footprint-escape analysis over `crates/apps` operators.
//!
//! The speculation contract (PAPER.md §2, DESIGN.md §4) is that an
//! operator touches shared state *only* through its `TaskCtx`: the
//! context acquires the abstract lock, records the undo snapshot, and
//! emits the checker trace. A "raw" mutation — writing an operator
//! field directly, or smuggling `&self.store` into a helper that
//! mutates it — bypasses all three, and the *dynamic* lockset checker
//! cannot see it (no context call, no trace event). This analysis
//! catches those escapes statically:
//!
//! * roots: every `fn execute` in an `impl Operator for _` block;
//! * the reachable helper set is closed over the apps-crate call
//!   graph;
//! * within reachable code, a mutation is flagged when its receiver
//!   chain roots at `self` or at a local borrowed from `self`
//!   (`let t = &self.tris;`), unless it flows through a context
//!   parameter;
//! * interprocedurally, per-function summaries record which parameters
//!   a function mutates (directly or transitively, to a fixpoint), and
//!   a call passing a `self`-rooted borrow into a mutated parameter is
//!   flagged at the call site;
//! * separately (`footprint-ctx`), every apps-crate fn — reachable or
//!   not — may call `lock` / `lock_raw` only on one of its own
//!   `TaskCtx` parameters.
//!
//! What is *not* sound (documented in DESIGN.md §12): mutation via
//! methods outside the known mutator list on unresolved (non-apps)
//! callees, `push` on shared receivers (allowed by design — the
//! append-only publication arenas), `publish_bound` helpers (allowed
//! by name — the monotone bounds), and aliases laundered through
//! return values.

use crate::ast::{FileAst, FnDef};
use crate::callgraph::{for_each_call, resolve_call, Call, CallKind, FnId, FnIndex};
use crate::lexer::{line_of, Delim, TokKind};
use crate::report::Violation;
use crate::tree::Tree;
use crate::{SourceFile, Workspace};
use std::collections::{HashMap, HashSet, VecDeque};

/// Method names that mutate their receiver (or are fallible raw
/// accessors whose presence on shared state bypasses the context).
/// `push` is deliberately absent: the append-only publication arena
/// (`AppendArena::push`) is the one blessed raw-publication path.
const MUTATING_METHODS: &[&str] = &[
    "insert",
    "remove",
    "clear",
    "set",
    "store",
    "swap",
    "replace_with",
    "push_back",
    "push_front",
    "pop",
    "pop_front",
    "truncate",
    "retain",
    "drain",
    "extend",
    "resize",
    "resize_with",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "dedup",
    "get_mut",
    "iter_mut",
    "as_mut",
    "split_off",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "fetch_max",
    "fetch_min",
    "compare_exchange",
    "compare_exchange_weak",
    "write",
    "alloc",
];

/// Helpers, recognised by name, that lower a monotone bound kept
/// beside a store (`fetch_min` under the element's lock, never rolled
/// back — DESIGN.md §14.7). Like the publication arenas' `push`, this
/// is a blessed raw-publication path: calling one on shared state is
/// not an escape.
const BOUND_PUBLISHERS: &[&str] = &["publish_bound"];

/// Is this file in scope (an apps-crate source file)?
fn in_scope(rel: &str) -> bool {
    rel.contains("crates/apps/src/")
}

/// Per-function mutation summary: which params the function mutates.
type Summaries = HashMap<FnId, Vec<bool>>;

/// Run the analysis over a workspace.
pub fn analyze(ws: &Workspace) -> Vec<Violation> {
    let index = FnIndex::build(
        ws.files
            .iter()
            .enumerate()
            .map(|(i, f)| (i, f.rel.as_str(), &f.ast)),
        in_scope,
    );
    let pairs: Vec<(String, FileAst)> = ws
        .files
        .iter()
        .map(|f| (f.rel.clone(), f.ast.clone()))
        .collect();

    // All in-scope non-test fns with bodies.
    let mut fns: Vec<FnId> = Vec::new();
    for (fi, f) in ws.files.iter().enumerate() {
        if !in_scope(&f.rel) {
            continue;
        }
        for (idx, d) in f.ast.fns.iter().enumerate() {
            if !d.is_test && d.body.is_some() {
                fns.push(FnId { file: fi, idx });
            }
        }
    }

    // Fixpoint over parameter-mutation summaries.
    let mut summaries: Summaries = fns
        .iter()
        .map(|&id| (id, vec![false; def(ws, id).params.len()]))
        .collect();
    for _round in 0..10 {
        let mut changed = false;
        for &id in &fns {
            let scan = scan_fn(ws, id, &index, &pairs, &summaries);
            let entry = summaries.get_mut(&id).expect("seeded above");
            for (i, m) in scan.param_mut.iter().enumerate() {
                if *m && !entry[i] {
                    entry[i] = true;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Reachable set from operator execute roots.
    let mut reach: HashSet<FnId> = HashSet::new();
    let mut queue: VecDeque<FnId> = fns
        .iter()
        .copied()
        .filter(|&id| def(ws, id).is_operator_execute)
        .collect();
    for &id in &queue {
        reach.insert(id);
    }
    while let Some(id) = queue.pop_front() {
        let d = def(ws, id);
        let Some(body) = &d.body else { continue };
        for_each_call(body, &mut |c| {
            for callee in resolve_call(&index, c, d, &pairs) {
                if summaries.contains_key(&callee) && reach.insert(callee) {
                    queue.push_back(callee);
                }
            }
        });
    }

    // Final pass: raw locks anywhere, escapes in reachable fns.
    let mut out = Vec::new();
    for &id in &fns {
        let file = &ws.files[id.file];
        raw_locks(file, def(ws, id), &mut out);
        if !reach.contains(&id) {
            continue;
        }
        let scan = scan_fn(ws, id, &index, &pairs, &summaries);
        for (off, detail) in scan.viols {
            out.push(Violation {
                file: file.rel.clone(),
                line: line_of(&file.line_starts, off),
                rule: "footprint-escape",
                detail: format!("in {}: {detail}", def(ws, id).symbol()),
            });
        }
    }
    out
}

/// Raw lock acquisition outside the task's `TaskCtx` defeats the
/// runtime's conflict detection.
fn raw_locks(file: &SourceFile, d: &FnDef, out: &mut Vec<Violation>) {
    for_each_call(d.body.as_deref().unwrap_or(&[]), &mut |c| {
        if matches!(c.name.as_str(), "lock" | "lock_raw") {
            let ctx_recv = c.kind == CallKind::Method
                && c.recv_root
                    .as_deref()
                    .is_some_and(|r| d.params.iter().any(|p| p.is_ctx && p.name == r));
            if !ctx_recv {
                out.push(Violation {
                    file: file.rel.clone(),
                    line: line_of(&file.line_starts, c.off),
                    rule: "footprint-ctx",
                    detail: format!(
                        "`{}` called outside the task's `TaskCtx` in `{}` — \
                         speculative locks must go through the ctx",
                        c.name,
                        d.symbol()
                    ),
                });
            }
        }
    });
}

fn def(ws: &Workspace, id: FnId) -> &FnDef {
    &ws.files[id.file].ast.fns[id.idx]
}

/// Result of scanning one function.
struct Scan {
    param_mut: Vec<bool>,
    viols: Vec<(usize, String)>,
}

/// How an identifier roots.
#[derive(PartialEq)]
enum Root {
    Ctx,
    Shared,
    Param(usize),
    Other,
}

struct FnScan<'d> {
    d: &'d FnDef,
    shared_locals: HashSet<String>,
    param_mut: Vec<bool>,
    viols: Vec<(usize, String)>,
}

impl FnScan<'_> {
    fn classify(&self, name: &str) -> Root {
        if self.d.params.iter().any(|p| p.is_ctx && p.name == name) {
            return Root::Ctx;
        }
        if name == "self" {
            // In the operator's own `execute`, `self` IS the shared
            // state. In any other method, `self` is just parameter 0:
            // whether mutating it is an escape depends on what the
            // *call site's* receiver roots at, which the summary
            // machinery propagates.
            if self.d.is_operator_execute {
                return Root::Shared;
            }
            if self.d.params.first().is_some_and(|p| p.name == "self") {
                return Root::Param(0);
            }
            return Root::Other;
        }
        if self.shared_locals.contains(name) {
            return Root::Shared;
        }
        if let Some(i) = self.d.params.iter().position(|p| p.name == name) {
            return Root::Param(i);
        }
        Root::Other
    }

    fn mutation(&mut self, root: &str, off: usize, what: String) {
        match self.classify(root) {
            Root::Shared => self.viols.push((
                off,
                format!(
                    "{what} mutates shared operator state rooted at `{root}` without going \
                     through a TaskCtx acquire; route it via cx.lock/cx.write"
                ),
            )),
            Root::Param(i) => self.param_mut[i] = true,
            Root::Ctx | Root::Other => {}
        }
    }

    /// Statement-level pass: `let` taint tracking and assignment
    /// detection, recursing into every group.
    fn scan_stmts(&mut self, trees: &[Tree]) {
        let mut stmt_start = 0;
        let mut stmt_has_let = false;
        let mut i = 0;
        while i < trees.len() {
            match &trees[i] {
                Tree::Leaf(tok) if tok.is_punct(";") => {
                    stmt_start = i + 1;
                    stmt_has_let = false;
                }
                Tree::Leaf(tok) if tok.is_ident("let") => {
                    stmt_has_let = true;
                    self.track_let(&trees[i + 1..]);
                }
                Tree::Leaf(tok) if is_assign_op(tok) && !stmt_has_let => {
                    if let Some(root) = lhs_root(&trees[stmt_start..i]) {
                        let what = if tok.text == "=" {
                            "assignment".to_string()
                        } else {
                            format!("`{}` compound assignment", tok.text)
                        };
                        self.mutation(&root, tok.off, what);
                    }
                }
                Tree::Group {
                    delim, children, ..
                } => {
                    self.scan_stmts(children);
                    if *delim == Delim::Brace {
                        stmt_start = i + 1;
                        stmt_has_let = false;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }

    /// Record a `let` binder whose initializer borrows shared state.
    fn track_let(&mut self, rest: &[Tree]) {
        let Some(eq) = rest.iter().position(|t| t.is_punct("=")) else {
            return;
        };
        let binder = rest[..eq].iter().find_map(|t| {
            t.leaf()
                .filter(|k| k.kind == TokKind::Ident && k.text != "mut" && k.text != "ref")
                .map(|k| k.text.clone())
        });
        let Some(binder) = binder else { return };
        // Initializer `& [mut] root ...` where root is shared.
        let mut init = &rest[eq + 1..];
        if !init.first().is_some_and(|t| t.is_punct("&")) {
            return;
        }
        init = &init[1..];
        if init.first().is_some_and(|t| t.is_ident("mut")) {
            init = &init[1..];
        }
        if let Some(root) = init.first().and_then(Tree::leaf) {
            if root.kind == TokKind::Ident && self.classify(&root.text) == Root::Shared {
                self.shared_locals.insert(binder);
            }
        }
    }
}

fn is_assign_op(tok: &crate::lexer::Token) -> bool {
    tok.kind == TokKind::Punct
        && matches!(
            tok.text.as_str(),
            "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "&=" | "|=" | "^=" | "<<=" | ">>="
        )
}

/// Root identifier of an assignment LHS: the first ident of the token
/// run, skipping deref/borrow sigils.
fn lhs_root(lhs: &[Tree]) -> Option<String> {
    // The LHS is the suffix of the statement after the last
    // non-chain token (e.g. `if cond { x } else { y }.z = 1` is not
    // modeled; plain `a.b[i] = v` and `*cx.write(..)? = v` are).
    let mut start = lhs.len();
    while start > 0 {
        let t = &lhs[start - 1];
        let chainy = match t {
            Tree::Leaf(tok) => {
                matches!(tok.kind, TokKind::Ident | TokKind::Num)
                    || matches!(tok.text.as_str(), "." | "?" | "::" | "*" | "&" | "mut")
            }
            Tree::Group { delim, .. } => matches!(delim, Delim::Paren | Delim::Bracket),
        };
        if !chainy {
            break;
        }
        start -= 1;
    }
    lhs[start..]
        .iter()
        .find_map(|t| t.leaf())
        .filter(|t| t.kind == TokKind::Ident && t.text != "mut")
        .map(|t| t.text.clone())
}

/// Arg shape `& [mut] root . chain` (or a bare rooted chain): the root.
fn arg_root(arg: &[Tree]) -> Option<String> {
    let mut a = arg;
    if a.first().is_some_and(|t| t.is_punct("&")) {
        a = &a[1..];
    }
    if a.first().is_some_and(|t| t.is_ident("mut")) {
        a = &a[1..];
    }
    if a.is_empty() {
        return None;
    }
    let all_chain = a.iter().all(|t| match t {
        Tree::Leaf(tok) => {
            matches!(tok.kind, TokKind::Ident | TokKind::Num)
                || matches!(tok.text.as_str(), "." | "?" | "::")
        }
        Tree::Group { delim, .. } => matches!(delim, Delim::Paren | Delim::Bracket),
    });
    if !all_chain {
        return None;
    }
    a.first()
        .and_then(Tree::leaf)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
}

fn scan_fn(
    ws: &Workspace,
    id: FnId,
    index: &FnIndex,
    pairs: &[(String, FileAst)],
    summaries: &Summaries,
) -> Scan {
    let d = def(ws, id);
    let body = d.body.as_ref().expect("only fns with bodies are scanned");
    let mut fs = FnScan {
        d,
        shared_locals: HashSet::new(),
        param_mut: vec![false; d.params.len()],
        viols: Vec::new(),
    };
    // Pass 1: taints and assignments.
    fs.scan_stmts(body);
    // Pass 2: calls. (kind, name, receiver root, args, offset,
    // resolved candidates.)
    type SiteRec = (
        CallKind,
        String,
        Option<String>,
        Vec<Vec<Tree>>,
        usize,
        Vec<FnId>,
    );
    let mut calls: Vec<SiteRec> = Vec::new();
    for_each_call(body, &mut |c: &Call<'_>| {
        let resolved = resolve_call(index, c, d, pairs);
        calls.push((
            c.kind,
            c.name.clone(),
            c.recv_root.clone(),
            c.args.iter().map(|a| a.to_vec()).collect(),
            c.off,
            resolved,
        ));
    });
    for (kind, name, recv_root, args, off, resolved) in calls {
        if kind == CallKind::Macro {
            continue;
        }
        let arg_param_offset = match kind {
            CallKind::Method => 1,
            _ => 0,
        };
        if kind == CallKind::Method {
            let Some(root) = recv_root else { continue };
            match fs.classify(&root) {
                Root::Ctx => continue, // context-mediated: the blessed path
                Root::Shared => {
                    // A `&mut self` method cannot be called on
                    // `&self`-rooted shared state (the borrow checker
                    // forbids it), so same-named candidates with a
                    // `&mut self` receiver are not viable here — this
                    // is what keeps `iter().find(..)` from aliasing
                    // with `Dsu::find(&mut self, ..)`.
                    let viable: Vec<FnId> = resolved
                        .iter()
                        .copied()
                        .filter(|&cid| {
                            !def(ws, cid)
                                .params
                                .first()
                                .is_some_and(|p| p.name == "self" && p.by_ref_mut)
                        })
                        .collect();
                    if MUTATING_METHODS.contains(&name.as_str()) {
                        fs.viols.push((
                            off,
                            format!(
                                "`.{name}(..)` on shared state rooted at `{root}` mutates it \
                                 without a TaskCtx acquire"
                            ),
                        ));
                    } else if callee_mutates(&viable, summaries, 0)
                        && !BOUND_PUBLISHERS.contains(&name.as_str())
                    {
                        fs.viols.push((
                            off,
                            format!(
                                "call to `{name}` mutates its receiver, which roots at shared \
                                 `{root}` (undeclared footprint via helper)"
                            ),
                        ));
                    }
                }
                Root::Param(i) => {
                    if MUTATING_METHODS.contains(&name.as_str())
                        || callee_mutates(&resolved, summaries, 0)
                    {
                        fs.param_mut[i] = true;
                    }
                }
                Root::Other => {}
            }
        }
        for (j, arg) in args.iter().enumerate() {
            let Some(root) = arg_root(arg) else { continue };
            match fs.classify(&root) {
                Root::Ctx | Root::Other => {}
                Root::Shared => {
                    if callee_mutates(&resolved, summaries, j + arg_param_offset) {
                        fs.viols.push((
                            off,
                            format!(
                                "passes `&{root}`-rooted shared state into `{name}`, which \
                                 mutates that parameter (smuggled handle; undeclared footprint)"
                            ),
                        ));
                    }
                }
                Root::Param(i) => {
                    if callee_mutates(&resolved, summaries, j + arg_param_offset) {
                        fs.param_mut[i] = true;
                    }
                }
            }
        }
    }
    Scan {
        param_mut: fs.param_mut,
        viols: fs.viols,
    }
}

/// Does any resolved callee's summary mutate parameter `k`?
fn callee_mutates(resolved: &[FnId], summaries: &Summaries, k: usize) -> bool {
    resolved.iter().any(|id| {
        summaries
            .get(id)
            .is_some_and(|m| m.get(k).copied().unwrap_or(false))
    })
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

    const PRELUDE: &str = "use optpar_runtime::{Abort, Operator, TaskCtx};\n";

    #[test]
    fn clean_ctx_mediated_operator_passes() {
        let src = format!(
            "{PRELUDE}
            impl Operator for GoodOp {{
                type Task = u32;
                fn execute(&self, &u: &u32, cx: &mut TaskCtx<'_>) -> Result<Vec<u32>, Abort> {{
                    let ui = u as usize;
                    cx.lock(&self.dist, ui)?;
                    let du = *cx.read(&self.dist, ui)?;
                    *cx.write(&self.dist, ui)? = du + 1;
                    let v = self.points.push(du) as u32;
                    Ok(vec![v])
                }}
            }}"
        );
        let ws = ws_of(&[("crates/apps/src/good.rs", &src)]);
        assert_eq!(analyze(&ws), Vec::new());
    }

    #[test]
    fn direct_raw_write_is_flagged() {
        let src = format!(
            "{PRELUDE}
            impl Operator for BadOp {{
                type Task = u32;
                fn execute(&self, &u: &u32, cx: &mut TaskCtx<'_>) -> Result<Vec<u32>, Abort> {{
                    self.table.set(u as usize, 1);
                    Ok(vec![])
                }}
            }}"
        );
        let ws = ws_of(&[("crates/apps/src/bad.rs", &src)]);
        let vs = analyze(&ws);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, "footprint-escape");
    }

    #[test]
    fn bound_publisher_is_blessed_by_name_only() {
        // The same `fetch_min` helper: an escape under any other name,
        // the monotone-bound publication path as `publish_bound`.
        let op = |helper: &str| {
            format!(
                "{PRELUDE}
                impl Operator for BoundOp {{
                    type Task = u32;
                    fn execute(&self, &u: &u32, cx: &mut TaskCtx<'_>) -> Result<Vec<u32>, Abort> {{
                        *cx.write(&self.dist, u as usize)? = 1;
                        self.{helper}(u, 1);
                        Ok(vec![])
                    }}
                }}
                impl BoundOp {{
                    fn {helper}(&self, v: u32, d: u64) {{
                        self.bound[v as usize].fetch_min(d, Ordering::Relaxed);
                    }}
                }}"
            )
        };
        let ws = ws_of(&[("crates/apps/src/bound.rs", &op("publish_bound"))]);
        assert_eq!(analyze(&ws), Vec::new());
        let ws = ws_of(&[("crates/apps/src/bound.rs", &op("lower"))]);
        let vs = analyze(&ws);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, "footprint-escape");
    }

    #[test]
    fn smuggled_handle_through_helper_is_flagged_interprocedurally() {
        let src = format!(
            "{PRELUDE}
            impl Operator for SneakyOp {{
                type Task = u32;
                fn execute(&self, &u: &u32, cx: &mut TaskCtx<'_>) -> Result<Vec<u32>, Abort> {{
                    bump(&self.scratch, u as usize);
                    Ok(vec![])
                }}
            }}
            fn bump(table: &Table, i: usize) {{
                poke(table, i);
            }}
            fn poke(table: &Table, i: usize) {{
                table.cells.set(i, 1);
            }}"
        );
        let ws = ws_of(&[("crates/apps/src/sneaky.rs", &src)]);
        let vs = analyze(&ws);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].detail.contains("bump"), "{}", vs[0].detail);
    }

    #[test]
    fn mutation_of_locals_is_fine() {
        let src = format!(
            "{PRELUDE}
            impl Operator for LocalOp {{
                type Task = u32;
                fn execute(&self, &u: &u32, cx: &mut TaskCtx<'_>) -> Result<Vec<u32>, Abort> {{
                    let mut spawn = Vec::new();
                    let mut tri = *cx.read(&self.tris, u as usize)?;
                    tri.nbr = u;
                    spawn.push(u);
                    spawn.sort();
                    Ok(spawn)
                }}
            }}"
        );
        let ws = ws_of(&[("crates/apps/src/local.rs", &src)]);
        assert_eq!(analyze(&ws), Vec::new());
    }

    #[test]
    fn shared_borrow_local_is_tainted() {
        let src = format!(
            "{PRELUDE}
            impl Operator for AliasOp {{
                type Task = u32;
                fn execute(&self, &u: &u32, cx: &mut TaskCtx<'_>) -> Result<Vec<u32>, Abort> {{
                    let t = &self.table;
                    t.set(u as usize, 1);
                    Ok(vec![])
                }}
            }}"
        );
        let ws = ws_of(&[("crates/apps/src/alias.rs", &src)]);
        let vs = analyze(&ws);
        assert_eq!(vs.len(), 1, "{vs:?}");
    }

    #[test]
    fn raw_lock_outside_ctx_is_flagged() {
        let op = |helper_body: &str| {
            format!(
                "{PRELUDE}
                impl Operator for RawOp {{
                    type Task = u32;
                    fn execute(&self, &v: &u32, cx: &mut TaskCtx<'_>) -> Result<Vec<u32>, Abort> {{
                        cx.lock(&self.state, v as usize)?;
                        self.touch(cx, v)?;
                        Ok(vec![])
                    }}
                }}
                impl RawOp {{
                    fn touch(&self, cx: &mut TaskCtx<'_>, x: u32) -> Result<(), Abort> {{
                        {helper_body}
                        Ok(())
                    }}
                }}"
            )
        };
        // Through the helper's own ctx parameter: the blessed path.
        let ws = ws_of(&[(
            "crates/apps/src/raw.rs",
            &op("cx.lock(&self.state, x as usize)?;"),
        )]);
        assert_eq!(analyze(&ws), Vec::new());
        // Straight on the lock space, in `execute` or in a helper.
        let direct = op("").replace("self.touch(cx, v)?;", "self.space.lock_raw(v as usize);");
        let in_helper = op("self.space.lock_raw(x as usize);");
        for src in [direct, in_helper] {
            let vs = analyze(&ws_of(&[("crates/apps/src/raw.rs", &src)]));
            assert_eq!(vs.len(), 1, "{vs:?}");
            assert_eq!(vs[0].rule, "footprint-ctx");
            assert!(vs[0].detail.contains("lock_raw"), "{}", vs[0].detail);
        }
    }

    #[test]
    fn unreachable_helpers_are_not_flagged() {
        // `&mut self` result extraction is outside the operator path.
        let src = format!(
            "{PRELUDE}
            impl LoneOp {{
                pub fn distances(&mut self) -> Vec<u64> {{
                    self.dist.clear();
                    Vec::new()
                }}
            }}"
        );
        let ws = ws_of(&[("crates/apps/src/lone.rs", &src)]);
        assert_eq!(analyze(&ws), Vec::new());
    }
}
