//! Conflict-radius inference: derive each operator's `d` statically.
//!
//! The paper's allocation formula (Cor. 3, `smart_initial_m`) is
//! parameterized by the conflict distance `d` between a task's seed
//! element and the furthest element it locks. This pass infers a
//! per-operator upper bound `d̂` from the operator's `execute` body by
//! an interprocedural provenance dataflow:
//!
//! * the task seed parameter is provenance hop 0;
//! * indexing a table with a hop-`k` value (`tbl[i]`) or walking the
//!   graph structure (`neighbors_slice(v)` and friends) yields hop
//!   `k+1` — one structural step away from the seed;
//! * values read from shared speculative state (`cx.read` /
//!   `cx.read_copy`) are *data-dependent*: locking through them gives
//!   an unbounded footprint (the reach depends on runtime state, as in
//!   Boruvka component merges or Delaunay cavity growth);
//! * helper calls are summarized (per-parameter hop deltas, per-site
//!   inventories) and applied at each call site, to a bounded
//!   fixpoint.
//!
//! Every `TaskCtx::{lock, lock_raw, read, read_copy, write, alloc}`
//! site is inventoried with its provenance class, and so is every
//! unlocked read of a monotone bound (`peek_bound`, recognised by
//! name): a `peek` site takes no lock, so it neither widens the radius
//! nor unbounds the footprint, but what it returns is as
//! data-dependent as a speculative read. The per-operator
//! contract (radius, boundedness, site inventory, cited
//! `FOOTPRINT-UNBOUNDED` reason) is blessed into `FOOTPRINT.toml` and
//! diffed on every `xtask analyze` run — drift fails CI naming the
//! operator and what changed. See DESIGN.md §15 for the lattice and
//! the soundness caveats.

use crate::ast::{split_top_level, FnDef};
use crate::callgraph::{
    call_args_at, for_each_call, path_of, receiver_root, resolve_call, Call, CallKind, FnId,
    FnIndex,
};
use crate::lexer::{line_of, Delim, TokKind};
use crate::report::Violation;
use crate::tree::Tree;
use crate::Workspace;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Hop depths above this cap are treated as unbounded: the fixpoint
/// terminates and absurd inferred radii are reported honestly.
const MAX_HOP: u32 = 8;

/// Graph-structure accessors that step one hop outward from their
/// argument element.
const NEIGHBOR_ACCESSORS: &[&str] = &[
    "neighbors_slice",
    "neighbors",
    "neighbors_of",
    "adjacent",
    "incident_edges",
];

/// The `TaskCtx` methods that constitute the speculative footprint.
const CTX_SITE_METHODS: &[&str] = &["lock", "lock_raw", "read", "read_copy", "write", "alloc"];

/// Accessors that read a monotone bound beside a store without its
/// lock; their first argument is the element peeked at.
const PEEK_ACCESSORS: &[&str] = &["peek_bound"];

/// Site class of an unlocked monotone read.
const PEEK: &str = "peek";

/// The escape-hatch annotation for genuinely data-dependent operators.
const UNBOUNDED_MARKER: &str = "FOOTPRINT-UNBOUNDED:";

/// Idents that appear in patterns/casts but never bind task elements.
const TYPE_IDENTS: &[&str] = &[
    "mut", "ref", "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128",
    "isize", "f32", "f64", "bool", "char", "str",
];

fn in_scope(rel: &str) -> bool {
    rel.contains("crates/apps/src/")
}

// ---------------------------------------------------------------------------
// Provenance lattice
// ---------------------------------------------------------------------------

/// Provenance of a value relative to the enclosing function's
/// parameters: ⊥ (no tracked source) < hop-`k` per parameter < ⊤
/// (unbounded / data-dependent). Join is pointwise max.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Prov {
    unbounded: bool,
    /// `(param index, max hop delta)`, sorted by param index.
    parts: Vec<(usize, u32)>,
}

impl Prov {
    fn param(i: usize) -> Prov {
        Prov {
            unbounded: false,
            parts: vec![(i, 0)],
        }
    }

    fn top() -> Prov {
        Prov {
            unbounded: true,
            parts: Vec::new(),
        }
    }

    fn is_bottom(&self) -> bool {
        !self.unbounded && self.parts.is_empty()
    }

    fn join(&mut self, other: &Prov) {
        if other.unbounded {
            self.unbounded = true;
        }
        for &(p, d) in &other.parts {
            match self.parts.iter_mut().find(|(q, _)| *q == p) {
                Some((_, e)) => *e = (*e).max(d),
                None => self.parts.push((p, d)),
            }
        }
        self.parts.sort_unstable();
    }

    /// One structural hop outward (table lookup, neighbor iteration).
    fn bump(&self) -> Prov {
        self.bump_by(1)
    }

    fn bump_by(&self, k: u32) -> Prov {
        if self.unbounded {
            return Prov::top();
        }
        let mut out = Prov::default();
        for &(p, d) in &self.parts {
            let nd = d.saturating_add(k);
            if nd > MAX_HOP {
                return Prov::top();
            }
            out.parts.push((p, nd));
        }
        out
    }
}

/// A lock-site's provenance as recorded in a function summary.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum SiteProv {
    /// Freshly allocated element (`cx.alloc`): conflicts with nobody.
    Fresh,
    /// Bounded: `(param index, hop delta)` pairs.
    Parts(Vec<(usize, u32)>),
    /// Data-dependent or not derived from any parameter.
    Unbounded,
}

/// Interprocedural summary of one in-scope function.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Summary {
    /// Distinct `(ctx method, provenance)` footprint sites, own and
    /// propagated from callees.
    sites: BTreeSet<(String, SiteProv)>,
    /// Provenance of the return value in terms of the parameters.
    ret: Prov,
    /// Why the footprint is unbounded, when it is (earliest site).
    why: Option<String>,
}

// ---------------------------------------------------------------------------
// Per-function scan
// ---------------------------------------------------------------------------

struct Scan<'w> {
    pairs: &'w [(String, crate::ast::FileAst)],
    index: &'w FnIndex,
    summaries: &'w HashMap<FnId, Summary>,
    d: &'w FnDef,
    rel: &'w str,
    line_starts: &'w [usize],
    /// Names of `TaskCtx` parameters of the scanned function.
    ctx: Vec<String>,
    env: HashMap<String, Prov>,
}

fn is_assign(tok: &crate::lexer::Token) -> bool {
    tok.kind == TokKind::Punct
        && matches!(
            tok.text.as_str(),
            "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "&=" | "|=" | "^=" | "<<=" | ">>="
        )
}

/// Lowercase idents of a binding pattern (excluding `mut`/`ref` and
/// primitive-type names from ascriptions/casts).
fn binder_idents(pat: &[Tree]) -> Vec<String> {
    crate::ast::flat_idents(pat)
        .into_iter()
        .filter(|s| {
            s.chars()
                .next()
                .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
        })
        .filter(|s| !TYPE_IDENTS.contains(&s.as_str()))
        .collect()
}

/// Root ident of an assignment left-hand side (`used[..]` → `used`,
/// `*cx.write(..)? = v` → `cx`).
fn lhs_root(trees: &[Tree]) -> Option<String> {
    trees
        .iter()
        .find_map(|t| t.leaf())
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
}

impl<'w> Scan<'w> {
    fn new(
        pairs: &'w [(String, crate::ast::FileAst)],
        index: &'w FnIndex,
        summaries: &'w HashMap<FnId, Summary>,
        rel: &'w str,
        line_starts: &'w [usize],
        d: &'w FnDef,
    ) -> Scan<'w> {
        let mut env = HashMap::new();
        let mut ctx = Vec::new();
        for (i, p) in d.params.iter().enumerate() {
            if p.is_ctx {
                ctx.push(p.name.clone());
            } else if p.name != "self" && !p.name.is_empty() {
                env.insert(p.name.clone(), Prov::param(i));
            }
        }
        Scan {
            pairs,
            index,
            summaries,
            d,
            rel,
            line_starts,
            ctx,
            env,
        }
    }

    fn is_ctx_name(&self, name: &str) -> bool {
        self.ctx.iter().any(|c| c == name)
    }

    fn bind(&mut self, name: &str, p: &Prov) {
        self.env.entry(name.to_string()).or_default().join(p);
    }

    /// Callee candidates of the call headed at `trees[i]`, restricted
    /// to summarized (in-scope) functions.
    fn resolve_at(
        &self,
        trees: &[Tree],
        i: usize,
        name: &str,
        is_method: bool,
        args: Vec<&[Tree]>,
        off: usize,
    ) -> Vec<FnId> {
        let call = Call {
            kind: if is_method {
                CallKind::Method
            } else {
                CallKind::Plain
            },
            name: name.to_string(),
            path: if is_method {
                vec![name.to_string()]
            } else {
                path_of(trees, i)
            },
            recv_root: if is_method {
                receiver_root(trees, i)
            } else {
                None
            },
            args,
            off,
            contained: false,
        };
        resolve_call(self.index, &call, self.d, self.pairs)
            .into_iter()
            .filter(|id| self.summaries.contains_key(id))
            .collect()
    }

    /// Map a callee-relative provenance into the caller's frame by
    /// substituting argument provenances for parameter indices.
    fn substitute(&self, p: &Prov, is_method: bool, recv: Option<&str>, argv: &[&[Tree]]) -> Prov {
        let mut out = Prov {
            unbounded: p.unbounded,
            parts: Vec::new(),
        };
        let arg_off = usize::from(is_method);
        for &(pi, d) in &p.parts {
            let arg_prov = if is_method && pi == 0 {
                // The receiver stands for parameter 0 (`self`).
                recv.and_then(|r| self.env.get(r))
                    .cloned()
                    .unwrap_or_default()
            } else {
                match pi.checked_sub(arg_off).and_then(|k| argv.get(k)) {
                    Some(a) => self.eval(a),
                    None => {
                        // Arity mismatch (over-approximated resolution):
                        // give up on this part rather than miss reach.
                        out.unbounded = true;
                        continue;
                    }
                }
            };
            out.join(&arg_prov.bump_by(d));
        }
        out
    }

    /// Provenance of an expression token slice under the current env.
    fn eval(&self, trees: &[Tree]) -> Prov {
        let mut p = Prov::default();
        let mut i = 0;
        while i < trees.len() {
            match &trees[i] {
                Tree::Leaf(tok) if tok.kind == TokKind::Ident => {
                    if let Some(args) = call_args_at(trees, i) {
                        let name = tok.text.as_str();
                        let is_method = i > 0 && trees[i - 1].is_punct(".");
                        let recv = if is_method {
                            receiver_root(trees, i)
                        } else {
                            None
                        };
                        let argv: Vec<&[Tree]> = split_top_level(args, ",")
                            .into_iter()
                            .filter(|s| !s.is_empty())
                            .collect();
                        if is_method && recv.as_deref().is_some_and(|r| self.is_ctx_name(r)) {
                            // Speculative reads yield data-dependent
                            // values; the other ctx methods return
                            // nothing index-worthy.
                            if matches!(name, "read" | "read_copy") {
                                p.join(&Prov::top());
                            }
                        } else if is_method && PEEK_ACCESSORS.contains(&name) {
                            p.join(&Prov::top());
                        } else if NEIGHBOR_ACCESSORS.contains(&name) {
                            let mut q = Prov::default();
                            for a in &argv {
                                q.join(&self.eval(a));
                            }
                            p.join(&q.bump());
                        } else {
                            let ids =
                                self.resolve_at(trees, i, name, is_method, argv.clone(), tok.off);
                            if ids.is_empty() {
                                // Unknown callee: its result is at most
                                // as far out as its inputs.
                                for a in &argv {
                                    p.join(&self.eval(a));
                                }
                            } else {
                                for id in ids {
                                    let s = &self.summaries[&id];
                                    p.join(&self.substitute(
                                        &s.ret,
                                        is_method,
                                        recv.as_deref(),
                                        &argv,
                                    ));
                                }
                            }
                        }
                        i = skip_call(trees, i);
                        continue;
                    }
                    let is_field = i > 0 && trees[i - 1].is_punct(".");
                    if !is_field {
                        if let Some(q) = self.env.get(tok.text.as_str()) {
                            p.join(q);
                        }
                    }
                    i += 1;
                }
                Tree::Group {
                    delim: Delim::Bracket,
                    children,
                    ..
                } => {
                    // `tbl[i]` is one structural hop; macro brackets
                    // (`vec![..]`) are plain expression lists.
                    let is_macro = i > 0 && trees[i - 1].is_punct("!");
                    let inner = self.eval(children);
                    let joined = if is_macro { inner } else { inner.bump() };
                    p.join(&joined);
                    i += 1;
                }
                Tree::Group { children, .. } => {
                    p.join(&self.eval(children));
                    i += 1;
                }
                _ => i += 1,
            }
        }
        p
    }

    /// One monotone environment pass over the body: `let` bindings,
    /// `for` binders, assignments, and collection mutation through
    /// method calls (`stack.push(n)` taints `stack`).
    fn pass(&mut self, trees: &[Tree]) {
        let mut i = 0;
        let mut stmt_start = 0;
        let mut has_let = false;
        while i < trees.len() {
            match &trees[i] {
                Tree::Leaf(t) if t.is_punct(";") => {
                    stmt_start = i + 1;
                    has_let = false;
                }
                Tree::Leaf(t) if t.is_ident("let") => {
                    has_let = true;
                    if let Some(eq) = trees[i + 1..].iter().position(|t| t.is_punct("=")) {
                        let pat = &trees[i + 1..i + 1 + eq];
                        let init = &trees[i + 2 + eq..];
                        let end = init
                            .iter()
                            .position(|t| t.is_punct(";"))
                            .unwrap_or(init.len());
                        let p = self.eval(&init[..end]);
                        for b in binder_idents(pat) {
                            self.bind(&b, &p);
                        }
                    }
                }
                Tree::Leaf(t) if t.is_ident("for") => {
                    if let Some(ip) = trees[i + 1..].iter().position(|t| t.is_ident("in")) {
                        let pat = &trees[i + 1..i + 1 + ip];
                        let after = &trees[i + 2 + ip..];
                        let end = after
                            .iter()
                            .position(|t| {
                                matches!(
                                    t,
                                    Tree::Group {
                                        delim: Delim::Brace,
                                        ..
                                    }
                                )
                            })
                            .unwrap_or(after.len());
                        let p = self.eval(&after[..end]);
                        for b in binder_idents(pat) {
                            self.bind(&b, &p);
                        }
                    }
                }
                Tree::Leaf(t) if is_assign(t) && !has_let => {
                    if let Some(root) = lhs_root(&trees[stmt_start..i]) {
                        if self.env.contains_key(&root) {
                            let rhs = &trees[i + 1..];
                            let end = rhs
                                .iter()
                                .position(|t| t.is_punct(";"))
                                .unwrap_or(rhs.len());
                            let p = self.eval(&rhs[..end]);
                            self.bind(&root, &p);
                        }
                    }
                }
                // `local.push(x)` and friends: mutation through a
                // method call folds the arguments into the local.
                Tree::Leaf(t)
                    if t.kind == TokKind::Ident
                        && call_args_at(trees, i).is_some()
                        && i > 0
                        && trees[i - 1].is_punct(".") =>
                {
                    if let Some(root) = receiver_root(trees, i) {
                        if self.env.contains_key(&root) && !self.is_ctx_name(&root) {
                            let args = call_args_at(trees, i).expect("checked");
                            let mut p = Prov::default();
                            for a in split_top_level(args, ",") {
                                p.join(&self.eval(a));
                            }
                            self.bind(&root, &p);
                        }
                    }
                }
                Tree::Group {
                    children, delim, ..
                } => {
                    self.pass(children);
                    if *delim == Delim::Brace {
                        stmt_start = i + 1;
                        has_let = false;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }

    /// Provenance of the function's return value: every `return` expr
    /// joined with the trailing expression of the body.
    fn ret_prov(&self, body: &[Tree]) -> Prov {
        let mut p = Prov::default();
        self.collect_returns(body, &mut p);
        let tail_start = body
            .iter()
            .rposition(|t| t.is_punct(";"))
            .map(|i| i + 1)
            .unwrap_or(0);
        let tail = &body[tail_start..];
        if !tail.is_empty() {
            p.join(&self.eval(tail));
        }
        p
    }

    fn collect_returns(&self, trees: &[Tree], p: &mut Prov) {
        let mut i = 0;
        while i < trees.len() {
            match &trees[i] {
                Tree::Leaf(t) if t.is_ident("return") => {
                    let rest = &trees[i + 1..];
                    let end = rest
                        .iter()
                        .position(|t| t.is_punct(";"))
                        .unwrap_or(rest.len());
                    p.join(&self.eval(&rest[..end]));
                }
                Tree::Group { children, .. } => self.collect_returns(children, p),
                _ => {}
            }
            i += 1;
        }
    }

    /// Site provenance of an element index argument.
    fn index_prov(&self, ix: Option<&&[Tree]>) -> SiteProv {
        match ix.map(|a| self.eval(a)) {
            Some(p) if !p.unbounded && !p.is_bottom() => SiteProv::Parts(p.parts),
            _ => SiteProv::Unbounded,
        }
    }

    /// Inventory the function's footprint sites: direct `TaskCtx`
    /// calls plus the substituted sites of every resolved callee.
    fn site_pass(&self, body: &[Tree]) -> (BTreeSet<(String, SiteProv)>, Option<String>) {
        let mut sites = BTreeSet::new();
        let mut why: Option<String> = None;
        for_each_call(body, &mut |c| {
            let on_ctx = c.kind == CallKind::Method
                && c.recv_root.as_deref().is_some_and(|r| self.is_ctx_name(r));
            if c.kind == CallKind::Method && PEEK_ACCESSORS.contains(&c.name.as_str()) {
                sites.insert((PEEK.to_string(), self.index_prov(c.args.first())));
            } else if on_ctx && CTX_SITE_METHODS.contains(&c.name.as_str()) {
                let sp = match c.name.as_str() {
                    "alloc" => SiteProv::Fresh,
                    "lock_raw" => self.index_prov(c.args.first()),
                    _ => self.index_prov(c.args.get(1)),
                };
                if sp == SiteProv::Unbounded && why.is_none() {
                    why = Some(format!(
                        "`{}` index at {}:{} is not a bounded function of the task seed",
                        c.name,
                        self.rel,
                        line_of(self.line_starts, c.off)
                    ));
                }
                sites.insert((c.name.clone(), sp));
            } else if c.kind != CallKind::Macro {
                let argv: Vec<&[Tree]> = c.args.clone();
                let is_method = c.kind == CallKind::Method;
                let call_for_resolve = c;
                let ids: Vec<FnId> = resolve_call(self.index, call_for_resolve, self.d, self.pairs)
                    .into_iter()
                    .filter(|id| self.summaries.contains_key(id))
                    .collect();
                for id in ids {
                    let s = &self.summaries[&id];
                    for (method, sp) in &s.sites {
                        let here = match sp {
                            SiteProv::Fresh => SiteProv::Fresh,
                            SiteProv::Unbounded => SiteProv::Unbounded,
                            SiteProv::Parts(parts) => {
                                let rel = Prov {
                                    unbounded: false,
                                    parts: parts.clone(),
                                };
                                let p =
                                    self.substitute(&rel, is_method, c.recv_root.as_deref(), &argv);
                                if p.unbounded || p.is_bottom() {
                                    SiteProv::Unbounded
                                } else {
                                    SiteProv::Parts(p.parts)
                                }
                            }
                        };
                        if here == SiteProv::Unbounded && method != PEEK && why.is_none() {
                            why = Some(match &s.why {
                                Some(w) => format!("via `{}`: {}", c.name, w),
                                None => format!(
                                    "`{}` site reached through `{}` with a data-dependent argument",
                                    method, c.name
                                ),
                            });
                        }
                        sites.insert((method.clone(), here));
                    }
                }
            }
        });
        (sites, why)
    }
}

/// Compute one function's summary under the current global summaries.
fn scan_fn(
    pairs: &[(String, crate::ast::FileAst)],
    index: &FnIndex,
    summaries: &HashMap<FnId, Summary>,
    rel: &str,
    line_starts: &[usize],
    d: &FnDef,
) -> Summary {
    let Some(body) = d.body.as_ref() else {
        return Summary::default();
    };
    let mut scan = Scan::new(pairs, index, summaries, rel, line_starts, d);
    for _ in 0..(MAX_HOP as usize + 4) {
        let before = scan.env.clone();
        scan.pass(body);
        if scan.env == before {
            break;
        }
    }
    let (sites, why) = scan.site_pass(body);
    let ret = scan.ret_prov(body);
    Summary { sites, ret, why }
}

/// Index past a call's argument group (handles turbofish).
fn skip_call(trees: &[Tree], i: usize) -> usize {
    let mut k = i + 1;
    while k < trees.len() {
        if trees[k].group(Delim::Paren).is_some() {
            return k + 1;
        }
        k += 1;
        if k - i > 24 {
            break;
        }
    }
    i + 1
}

// ---------------------------------------------------------------------------
// Contract entries and the blessed-TOML workflow
// ---------------------------------------------------------------------------

/// One operator's footprint contract as blessed in `FOOTPRINT.toml`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct OpEntry {
    /// Repo-relative file of the operator impl.
    pub file: String,
    /// Operator type name (`SsspOp`).
    pub op: String,
    /// Is the footprint a bounded function of the seed element?
    pub bounded: bool,
    /// Inferred conflict radius `d̂` (max hop distance of any lock
    /// site). Zero and meaningless when unbounded.
    pub radius: u32,
    /// Distinct `method:provenance` site labels, sorted.
    pub sites: Vec<String>,
    /// Cited `FOOTPRINT-UNBOUNDED` reason (empty when none).
    pub reason: String,
}

impl Default for OpEntry {
    fn default() -> OpEntry {
        OpEntry {
            file: String::new(),
            op: String::new(),
            bounded: true,
            radius: 0,
            sites: Vec::new(),
            reason: String::new(),
        }
    }
}

/// One inferred operator with report metadata.
struct OpInfo {
    entry: OpEntry,
    line: usize,
    why: String,
    annotated: bool,
}

fn site_label(method: &str, sp: &SiteProv) -> String {
    match sp {
        SiteProv::Fresh => format!("{method}:fresh"),
        SiteProv::Unbounded => format!("{method}:unbounded"),
        SiteProv::Parts(parts) => {
            let d = parts.iter().map(|&(_, d)| d).max().unwrap_or(0);
            format!("{method}:hop{d}")
        }
    }
}

/// The `FOOTPRINT-UNBOUNDED:` reason attached to the fn at `off` — on
/// its own line or in the contiguous `//` comment block above — plus
/// the 1-indexed lines the annotation occupies.
fn unbounded_annotation(src: &str, starts: &[usize], off: usize) -> Option<(String, Vec<usize>)> {
    let ln = line_of(starts, off);
    let line_text = |n: usize| -> &str {
        if n == 0 || n > starts.len() {
            return "";
        }
        let a = starts[n - 1];
        let b = starts.get(n).copied().unwrap_or(src.len());
        &src[a..b]
    };
    let reason_of = |t: &str| -> Option<String> {
        t.find(UNBOUNDED_MARKER)
            .map(|i| t[i + UNBOUNDED_MARKER.len()..].trim().to_string())
    };
    if let Some(r) = reason_of(line_text(ln)) {
        return Some((r, vec![ln]));
    }
    let mut n = ln;
    while n > 1 {
        n -= 1;
        let t = line_text(n).trim_start();
        if t.starts_with("//") {
            if let Some(r) = reason_of(t) {
                return Some((r, vec![n]));
            }
            continue;
        }
        if t.starts_with('#') || t.is_empty() {
            // Attributes and blank lines between the comment block and
            // the fn keep the annotation attached.
            continue;
        }
        break;
    }
    None
}

/// Run the inference over every in-scope function and extract the
/// per-operator contracts plus structural findings (raw lock calls
/// outside `TaskCtx`, orphan annotations).
fn infer(ws: &Workspace) -> (Vec<OpInfo>, Vec<Violation>) {
    let pairs: Vec<(String, crate::ast::FileAst)> = ws
        .files
        .iter()
        .map(|f| (f.rel.clone(), f.ast.clone()))
        .collect();
    let index = FnIndex::build(
        ws.files
            .iter()
            .enumerate()
            .map(|(i, f)| (i, f.rel.as_str(), &f.ast)),
        in_scope,
    );
    // Seed summaries for every in-scope non-test fn, then iterate to a
    // bounded fixpoint (helper chains here are shallow; the cap guards
    // recursion).
    let mut summaries: HashMap<FnId, Summary> = HashMap::new();
    let mut ids: Vec<FnId> = Vec::new();
    for (fi, f) in ws.files.iter().enumerate() {
        if !in_scope(&f.rel) {
            continue;
        }
        for (idx, d) in f.ast.fns.iter().enumerate() {
            if !d.is_test {
                let id = FnId { file: fi, idx };
                ids.push(id);
                summaries.insert(id, Summary::default());
            }
        }
    }
    for _round in 0..16 {
        let mut changed = false;
        for &id in &ids {
            let f = &ws.files[id.file];
            let d = &f.ast.fns[id.idx];
            let s = scan_fn(&pairs, &index, &summaries, &f.rel, &f.line_starts, d);
            if summaries[&id] != s {
                summaries.insert(id, s);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut infos = Vec::new();
    let mut viols = Vec::new();
    for (fi, f) in ws.files.iter().enumerate() {
        if !in_scope(&f.rel) {
            continue;
        }
        let mut claimed_lines: Vec<usize> = Vec::new();
        for (idx, d) in f.ast.fns.iter().enumerate() {
            if d.is_test {
                continue;
            }
            // Raw lock acquisition outside the task's TaskCtx defeats
            // both the runtime's conflict detection and this analysis.
            for_each_call(d.body.as_deref().unwrap_or(&[]), &mut |c| {
                if matches!(c.name.as_str(), "lock" | "lock_raw") {
                    let ctx_recv = c.kind == CallKind::Method
                        && c.recv_root
                            .as_deref()
                            .is_some_and(|r| d.params.iter().any(|p| p.is_ctx && p.name == r));
                    if !ctx_recv {
                        viols.push(Violation {
                            file: f.rel.clone(),
                            line: line_of(&f.line_starts, c.off),
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
            if !d.is_operator_execute {
                continue;
            }
            let id = FnId { file: fi, idx };
            let s = &summaries[&id];
            // A peek holds no lock: inventoried, but outside the footprint.
            let locked = || s.sites.iter().filter(|(m, _)| m != PEEK);
            let bounded = !locked().any(|(_, sp)| *sp == SiteProv::Unbounded);
            let radius = locked()
                .filter_map(|(_, sp)| match sp {
                    SiteProv::Parts(parts) => parts.iter().map(|&(_, d)| d).max(),
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            let mut labels: Vec<String> = s
                .sites
                .iter()
                .map(|(m, sp)| site_label(m, sp))
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            labels.sort();
            let ann = unbounded_annotation(&f.src, &f.line_starts, d.off);
            if let Some((_, lines)) = &ann {
                claimed_lines.extend(lines.iter().copied());
            }
            infos.push(OpInfo {
                entry: OpEntry {
                    file: f.rel.clone(),
                    op: d.qual.clone().unwrap_or_else(|| d.name.clone()),
                    bounded,
                    radius,
                    sites: labels,
                    reason: ann.as_ref().map(|(r, _)| r.clone()).unwrap_or_default(),
                },
                line: line_of(&f.line_starts, d.off),
                why: s.why.clone().unwrap_or_default(),
                annotated: ann.is_some(),
            });
        }
        // Orphan annotations: the escape hatch must sit on an operator
        // `execute`, not on helpers or arbitrary code.
        for (n, _) in f.src.lines().enumerate() {
            let ln = n + 1;
            let a = f.line_starts[n];
            let b = f.line_starts.get(ln).copied().unwrap_or(f.src.len());
            if f.src[a..b].contains(UNBOUNDED_MARKER) && !claimed_lines.contains(&ln) {
                viols.push(Violation {
                    file: f.rel.clone(),
                    line: ln,
                    rule: "footprint-unbounded",
                    detail: format!(
                        "`{}` annotation must sit on an operator's `execute` fn",
                        UNBOUNDED_MARKER.trim_end_matches(':')
                    ),
                });
            }
        }
    }
    infos.sort_by(|a, b| (&a.entry.file, &a.entry.op).cmp(&(&b.entry.file, &b.entry.op)));
    (infos, viols)
}

/// The inferred footprint contracts for a workspace's current code.
pub fn extract(ws: &Workspace) -> Vec<OpEntry> {
    infer(ws).0.into_iter().map(|i| i.entry).collect()
}

/// Render contract entries as the blessed `FOOTPRINT.toml` text.
pub fn to_toml(entries: &[OpEntry]) -> String {
    let mut out = String::from(
        "# Inferred conflict-footprint contracts — one entry per app operator.\n\
         # `radius` is the static conflict distance d̂ fed to the controller's\n\
         # smart start (Cor. 3); `sites` inventories every TaskCtx access with\n\
         # its provenance class; unbounded operators cite their\n\
         # FOOTPRINT-UNBOUNDED annotation in `reason`.\n\
         #\n\
         # Bless after deliberate operator changes:\n\
         #   cargo run -p xtask -- analyze -- --write-footprints\n",
    );
    for e in entries {
        out.push_str("\n[[operator]]\n");
        out.push_str(&format!("op = \"{}\"\n", e.op));
        out.push_str(&format!("file = \"{}\"\n", e.file));
        out.push_str(&format!("bounded = {}\n", e.bounded));
        if e.bounded {
            out.push_str(&format!("radius = {}\n", e.radius));
        }
        let sites = e
            .sites
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!("sites = [{sites}]\n"));
        if !e.reason.is_empty() {
            out.push_str(&format!("reason = \"{}\"\n", e.reason));
        }
    }
    out
}

/// Parse blessed `FOOTPRINT.toml` text (the same line-based subset as
/// `PROTOCOL.toml`: `[[operator]]` tables of `key = value` pairs).
pub fn parse_toml(text: &str) -> Vec<OpEntry> {
    let mut entries: Vec<OpEntry> = Vec::new();
    let unquote = |s: &str| s.trim().trim_matches('"').to_string();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[operator]]" {
            entries.push(OpEntry::default());
            continue;
        }
        let Some((k, v)) = line.split_once('=') else {
            continue;
        };
        let Some(e) = entries.last_mut() else {
            continue;
        };
        let (k, v) = (k.trim(), v.trim());
        match k {
            "op" => e.op = unquote(v),
            "file" => e.file = unquote(v),
            "bounded" => e.bounded = v == "true",
            "radius" => e.radius = v.parse().unwrap_or(0),
            "sites" => {
                let inner = v.trim_start_matches('[').trim_end_matches(']');
                e.sites = inner
                    .split(',')
                    .map(unquote)
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "reason" => e.reason = unquote(v),
            _ => {}
        }
    }
    entries.retain(|e| !e.op.is_empty() && !e.file.is_empty());
    entries.sort();
    entries
}

/// Diff inferred contracts against the blessed set; every mismatch is
/// a drift finding naming the operator and what changed.
fn diff(infos: &[OpInfo], blessed: &[OpEntry]) -> Vec<Violation> {
    let mut out = Vec::new();
    let blessed_by: BTreeMap<(&str, &str), &OpEntry> = blessed
        .iter()
        .map(|e| ((e.file.as_str(), e.op.as_str()), e))
        .collect();
    let current_by: BTreeMap<(&str, &str), &OpInfo> = infos
        .iter()
        .map(|i| ((i.entry.file.as_str(), i.entry.op.as_str()), i))
        .collect();
    for (key, info) in &current_by {
        let e = &info.entry;
        match blessed_by.get(key) {
            None => out.push(Violation {
                file: e.file.clone(),
                line: info.line,
                rule: "footprint-radius",
                detail: format!(
                    "operator `{}` has no blessed footprint entry — \
                     re-bless with `analyze -- --write-footprints`",
                    e.op
                ),
            }),
            Some(b) => {
                let mut drifts = Vec::new();
                if e.bounded != b.bounded {
                    drifts.push(format!("bounded {} -> {}", b.bounded, e.bounded));
                }
                if e.bounded && b.bounded && e.radius != b.radius {
                    drifts.push(format!("radius {} -> {}", b.radius, e.radius));
                }
                if e.sites != b.sites {
                    drifts.push(format!(
                        "sites [{}] -> [{}]",
                        b.sites.join(", "),
                        e.sites.join(", ")
                    ));
                }
                if e.reason != b.reason {
                    drifts.push(format!("cited reason {:?} -> {:?}", b.reason, e.reason));
                }
                if !drifts.is_empty() {
                    out.push(Violation {
                        file: e.file.clone(),
                        line: info.line,
                        rule: "footprint-radius",
                        detail: format!("footprint drift for `{}`: {}", e.op, drifts.join("; ")),
                    });
                }
            }
        }
    }
    for (key, b) in &blessed_by {
        if !current_by.contains_key(key) {
            out.push(Violation {
                file: "FOOTPRINT.toml".to_string(),
                line: 0,
                rule: "footprint-radius",
                detail: format!(
                    "blessed footprint entry `{}` has no matching operator in `{}`",
                    b.op, b.file
                ),
            });
        }
    }
    out
}

/// The full radius analysis: inference, annotation lints, and the
/// blessed-contract diff.
pub fn analyze(ws: &Workspace) -> Vec<Violation> {
    let (infos, mut out) = infer(ws);
    for info in &infos {
        let e = &info.entry;
        if !e.bounded && !info.annotated {
            out.push(Violation {
                file: e.file.clone(),
                line: info.line,
                rule: "footprint-unbounded",
                detail: format!(
                    "operator `{}` has a data-dependent (unbounded) conflict \
                     footprint but no `FOOTPRINT-UNBOUNDED: <reason>` annotation \
                     ({})",
                    e.op,
                    if info.why.is_empty() {
                        "no bounded site provenance"
                    } else {
                        info.why.as_str()
                    }
                ),
            });
        }
        if e.bounded && info.annotated {
            out.push(Violation {
                file: e.file.clone(),
                line: info.line,
                rule: "footprint-unbounded",
                detail: format!(
                    "operator `{}` carries a stale FOOTPRINT-UNBOUNDED annotation \
                     but infers a bounded radius {} — remove the annotation and re-bless",
                    e.op, e.radius
                ),
            });
        }
    }
    match &ws.footprint {
        Some(text) => out.extend(diff(&infos, &parse_toml(text))),
        None => {
            if !infos.is_empty() {
                out.push(Violation {
                    file: "FOOTPRINT.toml".to_string(),
                    line: 0,
                    rule: "footprint-radius",
                    detail: format!(
                        "{} operator footprint contract(s) inferred but no \
                         FOOTPRINT.toml is blessed — run `analyze -- --write-footprints`",
                        infos.len()
                    ),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const PRELUDE: &str = "use optpar_runtime::{Abort, TaskCtx};\n";

    fn ws_of(files: &[(&str, &str)]) -> Workspace {
        Workspace::from_sources(
            files
                .iter()
                .map(|(rel, src)| (rel.to_string(), format!("{PRELUDE}{src}")))
                .collect(),
        )
    }

    /// A workspace whose FOOTPRINT.toml matches its own inference.
    fn blessed(files: &[(&str, &str)]) -> Workspace {
        let mut ws = ws_of(files);
        ws.footprint = Some(to_toml(&extract(&ws)));
        ws
    }

    #[test]
    fn self_and_neighbor_locks_infer_radius_one() {
        let ws = ws_of(&[(
            "crates/apps/src/mini.rs",
            "impl Operator for MiniOp {\n\
             fn execute(&self, &v: &u32, cx: &mut TaskCtx<'_>) -> Result<Vec<u32>, Abort> {\n\
             cx.lock(&self.state, v as usize)?;\n\
             for &w in self.graph.neighbors_slice(v) {\n\
             cx.lock(&self.state, w as usize)?;\n\
             }\n\
             *cx.write(&self.state, v as usize)? = 1;\n\
             Ok(vec![])\n\
             }\n\
             }\n",
        )]);
        let es = extract(&ws);
        assert_eq!(es.len(), 1);
        assert!(es[0].bounded, "{es:?}");
        assert_eq!(es[0].radius, 1, "{es:?}");
        assert!(es[0].sites.contains(&"lock:hop0".to_string()), "{es:?}");
        assert!(es[0].sites.contains(&"lock:hop1".to_string()), "{es:?}");
        assert!(es[0].sites.contains(&"write:hop0".to_string()), "{es:?}");
    }

    #[test]
    fn double_table_lookup_infers_radius_two() {
        let ws = ws_of(&[(
            "crates/apps/src/deep.rs",
            "impl Operator for DeepOp {\n\
             fn execute(&self, &u: &u32, cx: &mut TaskCtx<'_>) -> Result<Vec<u32>, Abort> {\n\
             let ui = u as usize;\n\
             for (k, &v) in self.graph.neighbors_slice(u).iter().enumerate() {\n\
             let e = self.incident[ui][k] as usize;\n\
             cx.lock(&self.flow, e)?;\n\
             cx.lock(&self.nodes, v as usize)?;\n\
             }\n\
             Ok(vec![])\n\
             }\n\
             }\n",
        )]);
        let es = extract(&ws);
        assert_eq!(es.len(), 1);
        assert!(es[0].bounded);
        assert_eq!(es[0].radius, 2, "{es:?}");
    }

    #[test]
    fn read_derived_index_is_unbounded() {
        let ws = ws_of(&[(
            "crates/apps/src/chase.rs",
            "impl Operator for ChaseOp {\n\
             fn execute(&self, &c: &u32, cx: &mut TaskCtx<'_>) -> Result<Vec<u32>, Abort> {\n\
             cx.lock(&self.repr, c as usize)?;\n\
             let next = *cx.read(&self.repr, c as usize)?;\n\
             cx.lock(&self.repr, next as usize)?;\n\
             Ok(vec![])\n\
             }\n\
             }\n",
        )]);
        let es = extract(&ws);
        assert_eq!(es.len(), 1);
        assert!(!es[0].bounded, "{es:?}");
        assert!(
            es[0].sites.contains(&"lock:unbounded".to_string()),
            "{es:?}"
        );
    }

    #[test]
    fn helper_sites_propagate_with_argument_substitution() {
        let ws = ws_of(&[(
            "crates/apps/src/helped.rs",
            "impl Operator for HelpedOp {\n\
             fn execute(&self, &v: &u32, cx: &mut TaskCtx<'_>) -> Result<Vec<u32>, Abort> {\n\
             self.touch(cx, v)?;\n\
             Ok(vec![])\n\
             }\n\
             }\n\
             impl HelpedOp {\n\
             fn touch(&self, cx: &mut TaskCtx<'_>, x: u32) -> Result<(), Abort> {\n\
             cx.lock(&self.state, x as usize)?;\n\
             let y = self.fwd[x as usize];\n\
             cx.lock(&self.state, y as usize)?;\n\
             Ok(())\n\
             }\n\
             }\n",
        )]);
        let es = extract(&ws);
        assert_eq!(es.len(), 1);
        assert!(es[0].bounded, "{es:?}");
        assert_eq!(es[0].radius, 1, "{es:?}");
        assert!(es[0].sites.contains(&"lock:hop1".to_string()), "{es:?}");
    }

    #[test]
    fn collection_mutation_taints_the_collection() {
        // A worklist seeded from the task but extended with read
        // values is data-dependent — the delaunay cavity pattern.
        let ws = ws_of(&[(
            "crates/apps/src/cavity.rs",
            "impl Operator for CavityOp {\n\
             fn execute(&self, &t: &u32, cx: &mut TaskCtx<'_>) -> Result<Vec<u32>, Abort> {\n\
             let mut stack = vec![t];\n\
             while let Some(cur) = stack.pop() {\n\
             cx.lock(&self.tris, cur as usize)?;\n\
             let n = *cx.read(&self.tris, cur as usize)?;\n\
             stack.push(n);\n\
             }\n\
             Ok(vec![])\n\
             }\n\
             }\n",
        )]);
        let es = extract(&ws);
        assert_eq!(es.len(), 1);
        assert!(!es[0].bounded, "{es:?}");
    }

    #[test]
    fn annotated_unbounded_operator_is_clean_and_cites_reason() {
        let ws = blessed(&[(
            "crates/apps/src/ann.rs",
            "impl Operator for AnnOp {\n\
             // FOOTPRINT-UNBOUNDED: pointer chase through speculative state\n\
             fn execute(&self, &c: &u32, cx: &mut TaskCtx<'_>) -> Result<Vec<u32>, Abort> {\n\
             let next = *cx.read(&self.repr, c as usize)?;\n\
             cx.lock(&self.repr, next as usize)?;\n\
             Ok(vec![])\n\
             }\n\
             }\n",
        )]);
        let es = extract(&ws);
        assert_eq!(es[0].reason, "pointer chase through speculative state");
        let vs = analyze(&ws);
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn unbounded_without_annotation_is_flagged() {
        let ws = blessed(&[(
            "crates/apps/src/noann.rs",
            "impl Operator for NoAnnOp {\n\
             fn execute(&self, &c: &u32, cx: &mut TaskCtx<'_>) -> Result<Vec<u32>, Abort> {\n\
             let next = *cx.read(&self.repr, c as usize)?;\n\
             cx.lock(&self.repr, next as usize)?;\n\
             Ok(vec![])\n\
             }\n\
             }\n",
        )]);
        let vs = analyze(&ws);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, "footprint-unbounded");
        assert!(vs[0].detail.contains("NoAnnOp"), "{}", vs[0].detail);
    }

    #[test]
    fn stale_annotation_on_bounded_operator_is_flagged() {
        let ws = blessed(&[(
            "crates/apps/src/stale.rs",
            "impl Operator for StaleOp {\n\
             // FOOTPRINT-UNBOUNDED: used to chase pointers\n\
             fn execute(&self, &v: &u32, cx: &mut TaskCtx<'_>) -> Result<Vec<u32>, Abort> {\n\
             cx.lock(&self.state, v as usize)?;\n\
             Ok(vec![])\n\
             }\n\
             }\n",
        )]);
        let vs = analyze(&ws);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, "footprint-unbounded");
        assert!(vs[0].detail.contains("stale"), "{}", vs[0].detail);
    }

    #[test]
    fn orphan_annotation_on_helper_is_flagged() {
        let ws = blessed(&[(
            "crates/apps/src/orphan.rs",
            "impl Operator for OrphanOp {\n\
             fn execute(&self, &v: &u32, cx: &mut TaskCtx<'_>) -> Result<Vec<u32>, Abort> {\n\
             cx.lock(&self.state, v as usize)?;\n\
             Ok(vec![])\n\
             }\n\
             }\n\
             impl OrphanOp {\n\
             // FOOTPRINT-UNBOUNDED: helpers cannot carry the escape hatch\n\
             fn helper(&self) {}\n\
             }\n",
        )]);
        let vs = analyze(&ws);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, "footprint-unbounded");
        assert!(vs[0].detail.contains("must sit on"), "{}", vs[0].detail);
    }

    #[test]
    fn raw_lock_outside_ctx_is_flagged() {
        let ws = blessed(&[(
            "crates/apps/src/raw.rs",
            "impl Operator for RawOp {\n\
             fn execute(&self, &v: &u32, cx: &mut TaskCtx<'_>) -> Result<Vec<u32>, Abort> {\n\
             cx.lock(&self.state, v as usize)?;\n\
             self.space.lock_raw(v as usize);\n\
             Ok(vec![])\n\
             }\n\
             }\n",
        )]);
        let vs = analyze(&ws);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, "footprint-ctx");
        assert!(vs[0].detail.contains("lock_raw"), "{}", vs[0].detail);
    }

    #[test]
    fn toml_round_trips() {
        let entries = vec![
            OpEntry {
                file: "crates/apps/src/a.rs".into(),
                op: "AOp".into(),
                bounded: true,
                radius: 2,
                sites: vec!["lock:hop0".into(), "lock:hop2".into()],
                reason: String::new(),
            },
            OpEntry {
                file: "crates/apps/src/b.rs".into(),
                op: "BOp".into(),
                bounded: false,
                radius: 0,
                sites: vec!["lock:unbounded".into()],
                reason: "cavity growth".into(),
            },
        ];
        assert_eq!(parse_toml(&to_toml(&entries)), entries);
    }

    #[test]
    fn drift_against_blessed_contract_is_flagged() {
        let mut ws = ws_of(&[(
            "crates/apps/src/drift.rs",
            "impl Operator for DriftOp {\n\
             fn execute(&self, &v: &u32, cx: &mut TaskCtx<'_>) -> Result<Vec<u32>, Abort> {\n\
             for &w in self.graph.neighbors_slice(v) {\n\
             cx.lock(&self.state, w as usize)?;\n\
             }\n\
             Ok(vec![])\n\
             }\n\
             }\n",
        )]);
        // Bless a radius-0 contract, then the code above (radius 1)
        // must be reported as drift.
        let mut stale = extract(&ws);
        stale[0].radius = 0;
        stale[0].sites = vec!["lock:hop0".into()];
        ws.footprint = Some(to_toml(&stale));
        let vs = analyze(&ws);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, "footprint-radius");
        assert!(vs[0].detail.contains("radius 0 -> 1"), "{}", vs[0].detail);
    }

    #[test]
    fn missing_blessed_file_with_operators_is_flagged() {
        let ws = ws_of(&[(
            "crates/apps/src/nofile.rs",
            "impl Operator for NoFileOp {\n\
             fn execute(&self, &v: &u32, cx: &mut TaskCtx<'_>) -> Result<Vec<u32>, Abort> {\n\
             cx.lock(&self.state, v as usize)?;\n\
             Ok(vec![])\n\
             }\n\
             }\n",
        )]);
        let vs = analyze(&ws);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, "footprint-radius");
        assert!(
            vs[0].detail.contains("no FOOTPRINT.toml"),
            "{}",
            vs[0].detail
        );
    }

    #[test]
    fn peek_sites_are_inventoried_outside_the_footprint() {
        // The sssp pattern: skip a neighbour on its unlocked bound,
        // lock only what may be lowered. The hop-2 peek shows in the
        // inventory but the radius is that of the locks.
        let ws = ws_of(&[(
            "crates/apps/src/peeked.rs",
            "impl Operator for PeekedOp {\n\
             fn execute(&self, &u: &u32, cx: &mut TaskCtx<'_>) -> Result<Vec<u32>, Abort> {\n\
             if self.peek_bound(u) < 1 { return Ok(vec![]); }\n\
             for &v in self.graph.neighbors_slice(u) {\n\
             if self.peek_bound(self.twin[v as usize]) < 1 { continue; }\n\
             cx.lock(&self.dist, v as usize)?;\n\
             }\n\
             Ok(vec![])\n\
             }\n\
             }\n\
             impl PeekedOp {\n\
             fn peek_bound(&self, v: u32) -> u64 { self.bound[v as usize].load(Ordering::Relaxed) }\n\
             }\n",
        )]);
        let es = extract(&ws);
        assert_eq!(es.len(), 1);
        assert!(es[0].bounded, "{es:?}");
        assert_eq!(es[0].radius, 1, "{es:?}");
        assert_eq!(
            es[0].sites,
            ["lock:hop1", "peek:hop0", "peek:hop2"].map(String::from),
            "{es:?}"
        );
    }

    #[test]
    fn index_read_through_a_peek_is_unbounded() {
        let ws = ws_of(&[(
            "crates/apps/src/peekchase.rs",
            "impl Operator for PeekChaseOp {\n\
             fn execute(&self, &u: &u32, cx: &mut TaskCtx<'_>) -> Result<Vec<u32>, Abort> {\n\
             let next = self.peek_bound(u);\n\
             cx.lock(&self.dist, next as usize)?;\n\
             Ok(vec![])\n\
             }\n\
             }\n",
        )]);
        let es = extract(&ws);
        assert!(!es[0].bounded, "{es:?}");
        assert!(
            es[0].sites.contains(&"lock:unbounded".to_string()),
            "{es:?}"
        );
    }

    #[test]
    fn alloc_sites_are_fresh_and_do_not_widen_radius() {
        let ws = ws_of(&[(
            "crates/apps/src/alloc.rs",
            "impl Operator for AllocOp {\n\
             fn execute(&self, &v: &u32, cx: &mut TaskCtx<'_>) -> Result<Vec<u32>, Abort> {\n\
             cx.lock(&self.tris, v as usize)?;\n\
             let id = cx.alloc(&self.tris)?;\n\
             Ok(vec![id as u32])\n\
             }\n\
             }\n",
        )]);
        let es = extract(&ws);
        assert_eq!(es.len(), 1);
        assert!(es[0].bounded, "{es:?}");
        assert_eq!(es[0].radius, 0, "{es:?}");
        assert!(es[0].sites.contains(&"alloc:fresh".to_string()), "{es:?}");
    }
}
