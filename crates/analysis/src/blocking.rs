//! Blocking-protocol analyzer: lock-order, condvar-discipline, and
//! shutdown-liveness verification for the runtime and service layers.
//!
//! Three families of checks, all built on the token/AST/call-graph front end:
//!
//! 1. **Lock order & blocking-while-locked.** Every `Mutex`/`RwLock`
//!    acquisition site is extracted per function, held-lock sets are
//!    propagated interprocedurally through the call graph, and the global
//!    lock-order graph is checked for cycles. Blocking calls (`Condvar::wait`,
//!    `wait_timeout`, channel `recv`, `thread::join`, `pool.run` /
//!    `pool.rendezvous`, `sleep`)
//!    made while holding a second lock are reported.
//! 2. **Condvar discipline.** Each `Condvar` is paired with its guarded
//!    mutex and predicate flags (the exit conditions of its wait loops).
//!    Every function that writes a predicate flag must also reach a matching
//!    `notify_*`, or the write is flagged as a potential lost wakeup (the
//!    PR-8 pool-swap hang is the seeded regression shape). A `notify_one`
//!    feeding waiters with distinct predicates is flagged as a single-wake
//!    hazard.
//! 3. **Shutdown-liveness contract.** The flags each wait loop's exit
//!    condition reads (`shutdown`, `alive`, queue-emptiness, timeout) are
//!    extracted into entries and diffed against the checked-in
//!    `BLOCKING.toml` (same bless/drift workflow as `PROTOCOL.toml`;
//!    re-bless via `cargo run -p xtask -- analyze --write-blocking`). A new
//!    wait loop that silently ignores the shutdown flag fails CI by name.
//!
//! Deliberate exceptions are annotated `// BLOCKING-OK: <reason>` on the
//! offending line or a contiguous comment block above it; annotations that
//! no longer suppress anything are themselves flagged (`blocking-ok-orphan`).
//!
//! The analysis is best-effort syntactic: lock identity is the bare
//! receiver identifier (`self.state.lock()` and `shared.state.lock()` are
//! both lock `state`), closures are analyzed as detached bodies, and `?`
//! is not treated as a loop exit. See DESIGN.md §17 for the soundness
//! caveats.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

use crate::ast::{flat_idents, split_top_level, FileAst, FnDef};
use crate::callgraph::{path_of, receiver_root, resolve_call, Call, CallKind, FnId, FnIndex};
use crate::lexer::{line_of, Delim, TokKind};
use crate::report::Violation;
use crate::tree::Tree;
use crate::Workspace;

/// Files whose blocking protocol is under contract: the pool/service/executor
/// family where a lost wakeup or lock inversion wedges a tenant. Shared with
/// the `bare-condvar-wait` lexical lint rule.
pub(crate) const BLOCKING_CRITICAL: &[&str] = &[
    "crates/runtime/src/pool.rs",
    "crates/runtime/src/service.rs",
    "crates/runtime/src/exec.rs",
    "crates/runtime/src/pipelined.rs",
];

pub(crate) fn is_blocking_critical(rel: &str) -> bool {
    BLOCKING_CRITICAL
        .iter()
        .any(|p| rel.ends_with(p) || rel == *p)
}

/// Scope of the interprocedural analysis: the runtime crate plus the checker
/// (whose sink holds a `Mutex<SinkState>` reachable from `run_round`).
fn in_scope(rel: &str) -> bool {
    rel.contains("crates/runtime/src/") || rel.contains("crates/checker/src/")
}

// ---------------------------------------------------------------------------
// Per-function facts
// ---------------------------------------------------------------------------

/// A lock acquisition site: `X.lock()` / `X.read()` / `X.write()`.
#[derive(Debug, Clone)]
struct AcqSite {
    lock: String,
    /// Locks already held when the acquisition happens.
    held: Vec<String>,
    /// False when the site lives inside a detached closure body.
    fn_ctx: bool,
    off: usize,
}

/// A condvar wait site: `cv.wait(guard)` / `cv.wait_timeout(guard, d)`.
#[derive(Debug, Clone)]
struct WaitSite {
    cv: String,
    /// The mutex whose guard is handed to the wait.
    mutex: String,
    /// Locks held *besides* the handed-in guard's mutex.
    held_other: Vec<String>,
    /// Whether the wait is lexically inside a loop.
    in_loop: bool,
    /// Exit-condition flags of the innermost enclosing loop (empty when not
    /// in a loop). `wait_timeout` contributes the implicit `timeout` flag.
    exits: BTreeSet<String>,
    fn_ctx: bool,
    off: usize,
}

/// A directly-blocking call other than a condvar wait.
#[derive(Debug, Clone)]
struct BlockSite {
    desc: &'static str,
    held: Vec<String>,
    fn_ctx: bool,
    off: usize,
}

/// A call that may resolve to other analyzed functions (fn context only).
#[derive(Debug, Clone)]
struct CallSite {
    held: Vec<String>,
    callees: Vec<FnId>,
    off: usize,
}

/// A `cv.notify_one()` / `cv.notify_all()` site.
#[derive(Debug, Clone)]
struct NotifySite {
    cv: String,
    one: bool,
    off: usize,
}

/// A write to state that may satisfy a wait predicate: a guard-field
/// assignment, a mutator call through a guard, or an atomic store.
#[derive(Debug, Clone)]
struct WriteSite {
    /// The predicate flag this write may flip: a guard field name, the lock
    /// name (for mutators — queue-emptiness flags), or an atomic's name.
    flag: String,
    /// Condvars whose wait loop lexically encloses this write — a write made
    /// *inside* the wait loop it feeds is not a lost-wakeup hazard.
    in_wait_loops: BTreeSet<String>,
    off: usize,
}

/// Everything the walker extracts from one function body.
#[derive(Debug, Default)]
struct Out {
    acqs: Vec<AcqSite>,
    waits: Vec<WaitSite>,
    blocks: Vec<BlockSite>,
    calls: Vec<CallSite>,
    notifies: Vec<NotifySite>,
    writes: Vec<WriteSite>,
}

// ---------------------------------------------------------------------------
// The walker
// ---------------------------------------------------------------------------

/// An event inside one lexical scope frame: a guard binding or an explicit
/// `drop(name)`. Folding all frames' events in order yields the held map;
/// a `Drop` recorded in a deeper frame masks an outer binding only while
/// that frame is live (divergent `drop(st); return;` branches).
#[derive(Debug, Clone)]
enum ScopeEv {
    /// Guard variable `.0` holds lock `.1`.
    Bind(String, String),
    Drop(String),
}

struct LoopFrame {
    /// Condvars waited on anywhere inside this loop's body.
    wait_cvs: BTreeSet<String>,
    /// Exit conditions: the token slice of each `if` condition guarding a
    /// `break`/`return`, plus the `while` condition itself.
    exits: Vec<Vec<Tree>>,
}

struct Walker<'w> {
    files: &'w [(String, FileAst)],
    index: &'w FnIndex,
    caller: &'w FnDef,
    /// False inside detached closure bodies: events are still recorded (the
    /// condvar rules need notifies made inside `thread::scope` closures) but
    /// excluded from the function-level interprocedural summary.
    fn_ctx: bool,
    frames: Vec<Vec<ScopeEv>>,
    loops: Vec<LoopFrame>,
    out: &'w mut Out,
}

impl<'w> Walker<'w> {
    fn held_map(&self) -> Vec<(String, String)> {
        let mut held: Vec<(String, String)> = Vec::new();
        for frame in &self.frames {
            for ev in frame {
                match ev {
                    ScopeEv::Bind(n, l) => held.push((n.clone(), l.clone())),
                    ScopeEv::Drop(n) => {
                        if let Some(pos) = held.iter().rposition(|(hn, _)| hn == n) {
                            held.remove(pos);
                        }
                    }
                }
            }
        }
        held
    }

    fn held_locks(&self) -> Vec<String> {
        self.held_map().into_iter().map(|(_, l)| l).collect()
    }

    fn push_ev(&mut self, ev: ScopeEv) {
        if let Some(f) = self.frames.last_mut() {
            f.push(ev);
        }
    }

    fn walk_block(&mut self, trees: &[Tree]) {
        self.frames.push(Vec::new());
        self.walk_seq(trees);
        self.frames.pop();
    }

    /// The main statement-level cursor over one token-tree slice.
    fn walk_seq(&mut self, trees: &[Tree]) {
        let mut i = 0;
        while i < trees.len() {
            let t = &trees[i];
            // `let` statement: guard bindings and wait rebinds.
            if t.is_ident("let") {
                let end = trees[i + 1..]
                    .iter()
                    .position(|x| x.is_punct(";"))
                    .map(|p| i + 1 + p)
                    .unwrap_or(trees.len());
                self.stmt_let(&trees[i + 1..end]);
                i = end + 1;
                continue;
            }
            // Loops: push a frame carrying wait-cvs and exit conditions.
            if t.is_ident("loop") || t.is_ident("while") || t.is_ident("for") {
                let body_at = trees[i + 1..]
                    .iter()
                    .position(|x| x.group(Delim::Brace).is_some())
                    .map(|p| i + 1 + p);
                let Some(body_at) = body_at else {
                    i += 1;
                    continue;
                };
                let cond = &trees[i + 1..body_at];
                // The condition can itself acquire locks (temporaries).
                self.walk_seq(cond);
                let body = trees[body_at].group(Delim::Brace).unwrap();
                let mut exits: Vec<Vec<Tree>> = Vec::new();
                if t.is_ident("while") && !cond.is_empty() {
                    exits.push(cond.to_vec());
                }
                collect_exit_conds(body, &mut exits);
                self.loops.push(LoopFrame {
                    wait_cvs: scan_wait_cvs(body),
                    exits,
                });
                self.walk_block(body);
                self.loops.pop();
                i = body_at + 1;
                continue;
            }
            // Groups: braces open a scope frame; parens/brackets don't.
            if let Tree::Group {
                delim, children, ..
            } = t
            {
                match delim {
                    Delim::Brace => self.walk_block(children),
                    _ => self.walk_seq(children),
                }
                i += 1;
                continue;
            }
            // Explicit `drop(guard)` of a single identifier.
            if t.is_ident("drop") && !is_method_call(trees, i) {
                if let Some(args) = trees.get(i + 1).and_then(|x| x.group(Delim::Paren)) {
                    if args.len() == 1 {
                        if let Some(tok) = args[0].leaf() {
                            if tok.kind == TokKind::Ident {
                                self.push_ev(ScopeEv::Drop(tok.text.clone()));
                                i += 2;
                                continue;
                            }
                        }
                    }
                    self.walk_seq(args);
                    i += 2;
                    continue;
                }
            }
            // Closures: detached sub-walk.
            if is_closure_start(trees, i) {
                let (after, body) = closure_body(trees, i);
                self.walk_closure(body);
                i = after;
                continue;
            }
            if let Some(tok) = t.leaf() {
                // Calls: ident followed by a paren group.
                if tok.kind == TokKind::Ident
                    && trees
                        .get(i + 1)
                        .and_then(|x| x.group(Delim::Paren))
                        .is_some()
                {
                    i = self.dispatch_call(trees, i);
                    continue;
                }
                // Guard-field assignment: `g.field <assign-op> ...`.
                if tok.kind == TokKind::Ident {
                    if let Some((flag, next)) = self.guard_field_assign(trees, i) {
                        self.record_write(flag, tok.off);
                        i = next;
                        continue;
                    }
                }
            }
            i += 1;
        }
    }

    /// Walks a closure body detached from the enclosing function: fresh
    /// scope/loop state, `fn_ctx = false`. Events land in the same `Out`
    /// (attributed to the enclosing function) but fn-context summaries skip
    /// them, and no interprocedural call sites are recorded.
    fn walk_closure(&mut self, body: &[Tree]) {
        let saved_ctx = self.fn_ctx;
        let saved_frames = std::mem::replace(&mut self.frames, vec![Vec::new()]);
        let saved_loops = std::mem::take(&mut self.loops);
        self.fn_ctx = false;
        self.walk_seq(body);
        self.fn_ctx = saved_ctx;
        self.frames = saved_frames;
        self.loops = saved_loops;
    }

    /// Handles `let <pat> = <rhs>` (without the leading `let` / trailing `;`).
    fn stmt_let(&mut self, trees: &[Tree]) {
        let Some(eq) = trees.iter().position(|t| t.is_punct("=")) else {
            self.walk_seq(trees);
            return;
        };
        let pat = &trees[..eq];
        let rhs = &trees[eq + 1..];
        match self.guard_extent(rhs) {
            Some(GuardRhs::Acquire { lock, arms }) => {
                self.record_acq(&lock, rhs.first().map(|t| t.off()).unwrap_or(0));
                match first_pat_ident(pat) {
                    Some(n) if n != "_" => self.push_ev(ScopeEv::Bind(n, lock)),
                    _ => {} // `let _ = m.lock()` drops immediately
                }
                if let Some(arms) = arms {
                    // match scrutinee: walk the arms *after* the binding so a
                    // poisoned-recovery arm sees the lock as held.
                    self.walk_seq(&arms);
                }
            }
            Some(GuardRhs::Wait { cv, guard, timed }) => {
                self.record_wait(
                    &cv,
                    &guard,
                    timed,
                    rhs.first().map(|t| t.off()).unwrap_or(0),
                );
                // The wait consumes `guard` and hands back a new guard of the
                // same mutex under the new pattern name.
                let mutex = self
                    .held_map()
                    .iter()
                    .rev()
                    .find(|(n, _)| *n == guard)
                    .map(|(_, l)| l.clone())
                    .unwrap_or_else(|| guard.clone());
                self.push_ev(ScopeEv::Drop(guard));
                if let Some(n) = first_pat_ident(pat) {
                    if n != "_" {
                        self.push_ev(ScopeEv::Bind(n, mutex));
                    }
                }
            }
            None => self.walk_seq(rhs),
        }
    }

    /// Classifies a `let` RHS: a guard-producing acquisition chain, a condvar
    /// wait, or neither. Wrappers (`recover(..)`, `match .. { .. }`) recurse.
    /// Chains with postfix calls after the acquisition (`.lock().unwrap()`)
    /// deliberately return `None` — the guard is treated as a temporary.
    fn guard_extent(&self, rhs: &[Tree]) -> Option<GuardRhs> {
        if rhs.is_empty() {
            return None;
        }
        // match-wrapper: `match <scrutinee> { arms }`.
        if rhs[0].is_ident("match") {
            if let Some(Tree::Group {
                delim: Delim::Brace,
                children,
                ..
            }) = rhs.last()
            {
                let scrutinee = &rhs[1..rhs.len() - 1];
                if let Some(GuardRhs::Acquire { lock, .. }) = self.guard_extent(scrutinee) {
                    return Some(GuardRhs::Acquire {
                        lock,
                        arms: Some(children.clone()),
                    });
                }
            }
            return None;
        }
        let n = rhs.len();
        // recover-wrapper: `recover(inner)` as the whole RHS tail.
        if n >= 2 {
            if let Some(args) = rhs[n - 1].group(Delim::Paren) {
                if rhs[n - 2].is_ident("recover") && !is_method_call(rhs, n - 2) {
                    return self.guard_extent(args);
                }
            }
        }
        // Direct chain ending: `<recv-chain> . lock ()` or `. wait (g, ..)`.
        if n >= 4 {
            if let Some(args) = rhs[n - 1].group(Delim::Paren) {
                if let Some(mtok) = rhs[n - 2].leaf() {
                    if mtok.kind == TokKind::Ident && rhs[n - 3].is_punct(".") {
                        let is_acq = matches!(mtok.text.as_str(), "lock" | "read" | "write")
                            && args.is_empty();
                        let is_wait = matches!(mtok.text.as_str(), "wait" | "wait_timeout")
                            && !args.is_empty();
                        if is_acq {
                            let lock = last_ident_before(rhs, n - 2)?;
                            return Some(GuardRhs::Acquire { lock, arms: None });
                        }
                        if is_wait {
                            let cv = last_ident_before(rhs, n - 2)?;
                            let first_arg = split_top_level(args, ",").into_iter().next()?;
                            let guard = flat_idents(first_arg).into_iter().next()?;
                            return Some(GuardRhs::Wait {
                                cv,
                                guard,
                                timed: mtok.text == "wait_timeout",
                            });
                        }
                    }
                }
            }
        }
        None
    }

    /// Detects `G.field <assign-op> ...` where `G` is a bound guard.
    /// Returns the written flag and the next cursor position.
    fn guard_field_assign(&self, trees: &[Tree], i: usize) -> Option<(String, usize)> {
        let g = trees[i].leaf()?;
        if !self.held_map().iter().any(|(n, _)| *n == g.text) {
            return None;
        }
        if !trees.get(i + 1)?.is_punct(".") {
            return None;
        }
        let f = trees.get(i + 2)?.leaf()?;
        if f.kind != TokKind::Ident {
            return None;
        }
        let op = trees.get(i + 3)?.leaf()?;
        if op.kind == TokKind::Punct && is_assign_op(&op.text) {
            return Some((f.text.clone(), i + 4));
        }
        None
    }

    /// Call dispatch at `trees[i]` (an ident) with `trees[i+1]` a paren
    /// group. Returns the next cursor position.
    fn dispatch_call(&mut self, trees: &[Tree], i: usize) -> usize {
        let name = trees[i].leaf().unwrap().text.clone();
        let off = trees[i].off();
        let args = trees[i + 1].group(Delim::Paren).unwrap();
        let method = is_method_call(trees, i);

        // Plain `recover(inner)`: transparent wrapper around an acquisition
        // or wait chain.
        if !method && name == "recover" {
            if let Some(lock) = acquire_chain_lock(args) {
                self.record_acq(&lock, off);
                self.scan_temp_write(trees, i + 2, &lock);
                return i + 2;
            }
            if let Some((cv, guard, timed)) = wait_chain(args) {
                self.record_wait(&cv, &guard, timed, off);
                return i + 2;
            }
            self.walk_seq(args);
            return i + 2;
        }

        if method {
            match name.as_str() {
                "lock" | "read" | "write" if args.is_empty() => {
                    if let Some(lock) = last_ident_before(trees, i) {
                        self.record_acq(&lock, off);
                        self.scan_temp_write(trees, i + 2, &lock);
                        return i + 2;
                    }
                }
                "wait" | "wait_timeout" if !args.is_empty() => {
                    if let Some(cv) = last_ident_before(trees, i) {
                        let guard = split_top_level(args, ",")
                            .into_iter()
                            .next()
                            .and_then(|a| flat_idents(a).into_iter().next())
                            .unwrap_or_default();
                        self.record_wait(&cv, &guard, name == "wait_timeout", off);
                        self.walk_seq(args);
                        return i + 2;
                    }
                }
                "notify_one" | "notify_all" => {
                    if let Some(cv) = last_ident_before(trees, i) {
                        self.out.notifies.push(NotifySite {
                            cv,
                            one: name == "notify_one",
                            off,
                        });
                        return i + 2;
                    }
                }
                "recv" | "recv_timeout" | "recv_deadline" => {
                    self.record_block("channel recv", off);
                    self.walk_seq(args);
                    return i + 2;
                }
                "join" if args.is_empty() => {
                    self.record_block("thread join", off);
                    return i + 2;
                }
                "run" | "rendezvous" => {
                    let recv = last_ident_before(trees, i);
                    if recv
                        .as_deref()
                        .map(|r| r == "pool" || r.ends_with("pool"))
                        .unwrap_or(false)
                    {
                        self.record_block("pool rendezvous", off);
                        self.walk_seq(args);
                        return i + 2;
                    }
                }
                m if is_mutator(m) => {
                    if let Some(root) = receiver_root(trees, i) {
                        let held = self.held_map();
                        if let Some((_, lock)) = held.iter().rev().find(|(n, _)| *n == root) {
                            let lock = lock.clone();
                            self.record_write(lock, off);
                        }
                    }
                    self.walk_seq(args);
                    return i + 2;
                }
                m if is_atomic_store(m) => {
                    if let Some(flag) = last_ident_before(trees, i) {
                        self.record_write(flag, off);
                    }
                    self.walk_seq(args);
                    return i + 2;
                }
                _ => {}
            }
        } else if name == "sleep" {
            self.record_block("sleep", off);
            self.walk_seq(args);
            return i + 2;
        } else if name == "drop" {
            // Multi-token drop argument fell through the cursor's single-ident
            // case. Never resolved interprocedurally: by-name resolution
            // would hit `Drop` impls and poison every caller.
            self.walk_seq(args);
            return i + 2;
        }

        // Generic call: record a call site with resolved callees (fn context
        // only), then descend into the arguments.
        if self.fn_ctx {
            let call = Call {
                kind: if method {
                    CallKind::Method
                } else {
                    CallKind::Plain
                },
                name,
                path: path_of(trees, i),
                recv_root: receiver_root(trees, i),
                args: Vec::new(),
                off,
                contained: false,
            };
            let callees = resolve_call(self.index, &call, self.caller, self.files);
            if !callees.is_empty() {
                self.out.calls.push(CallSite {
                    held: self.held_locks(),
                    callees,
                    off,
                });
            }
        }
        self.walk_seq(args);
        i + 2
    }

    /// After a temporary acquisition (`recover(m.lock())` not bound by a
    /// `let`), scan the following tokens at the same level for an immediate
    /// write through the temporary guard: `.mutator(..)`, `.field = ..`, or
    /// a deref-assign `*recover(m.lock()) = v`.
    fn scan_temp_write(&mut self, trees: &[Tree], j: usize, lock: &str) {
        let Some(t) = trees.get(j) else { return };
        if t.is_punct(".") {
            if let Some(m) = trees.get(j + 1).and_then(|x| x.leaf()) {
                if is_mutator(&m.text)
                    && trees
                        .get(j + 2)
                        .and_then(|x| x.group(Delim::Paren))
                        .is_some()
                {
                    self.record_write(lock.to_string(), m.off);
                    return;
                }
                if m.kind == TokKind::Ident {
                    if let Some(op) = trees.get(j + 2).and_then(|x| x.leaf()) {
                        if op.kind == TokKind::Punct && is_assign_op(&op.text) {
                            self.record_write(m.text.clone(), m.off);
                        }
                    }
                }
            }
        } else if let Some(op) = t.leaf() {
            if op.kind == TokKind::Punct && is_assign_op(&op.text) {
                self.record_write(lock.to_string(), op.off);
            }
        }
    }

    fn record_acq(&mut self, lock: &str, off: usize) {
        self.out.acqs.push(AcqSite {
            lock: lock.to_string(),
            held: self.held_locks(),
            fn_ctx: self.fn_ctx,
            off,
        });
    }

    fn record_wait(&mut self, cv: &str, guard: &str, timed: bool, off: usize) {
        let held = self.held_map();
        let mutex = held
            .iter()
            .rev()
            .find(|(n, _)| n == guard)
            .map(|(_, l)| l.clone())
            .unwrap_or_else(|| guard.to_string());
        let mut held_other: Vec<String> = held.iter().map(|(_, l)| l.clone()).collect();
        if let Some(pos) = held_other.iter().position(|l| *l == mutex) {
            held_other.remove(pos);
        }
        let mut exits = BTreeSet::new();
        if let Some(frame) = self.loops.last() {
            for cond in &frame.exits {
                cond_flags(cond, &held, &mut exits);
            }
        }
        if timed {
            exits.insert("timeout".to_string());
        }
        self.out.waits.push(WaitSite {
            cv: cv.to_string(),
            mutex,
            held_other,
            in_loop: !self.loops.is_empty(),
            exits,
            fn_ctx: self.fn_ctx,
            off,
        });
    }

    fn record_block(&mut self, desc: &'static str, off: usize) {
        self.out.blocks.push(BlockSite {
            desc,
            held: self.held_locks(),
            fn_ctx: self.fn_ctx,
            off,
        });
    }

    fn record_write(&mut self, flag: String, off: usize) {
        let mut in_wait_loops = BTreeSet::new();
        for frame in &self.loops {
            in_wait_loops.extend(frame.wait_cvs.iter().cloned());
        }
        self.out.writes.push(WriteSite {
            flag,
            in_wait_loops,
            off,
        });
    }
}

enum GuardRhs {
    Acquire {
        lock: String,
        /// `Some(arms)` when the acquisition was a match scrutinee; the arms
        /// are walked after the binding is recorded.
        arms: Option<Vec<Tree>>,
    },
    Wait {
        cv: String,
        guard: String,
        timed: bool,
    },
}

// ---------------------------------------------------------------------------
// Pure helpers
// ---------------------------------------------------------------------------

fn is_assign_op(p: &str) -> bool {
    matches!(
        p,
        "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "|=" | "&=" | "^=" | "<<=" | ">>="
    )
}

fn is_mutator(m: &str) -> bool {
    matches!(
        m,
        "push"
            | "push_back"
            | "push_front"
            | "pop"
            | "pop_back"
            | "pop_front"
            | "insert"
            | "remove"
            | "clear"
            | "extend"
            | "append"
            | "drain"
            | "take"
    )
}

fn is_atomic_store(m: &str) -> bool {
    m == "store" || m == "swap" || m.starts_with("fetch_") || m.starts_with("compare_exchange")
}

/// True if `trees[i]` sits in method position (preceded by `.`).
fn is_method_call(trees: &[Tree], i: usize) -> bool {
    i > 0 && trees[i - 1].is_punct(".")
}

/// Walks back from the `.` before `trees[i]` over chain components
/// (`.`/`::`/`?` puncts and index brackets) and returns the nearest
/// identifier: `self.shared.done_cv.wait(..)` at `wait` → `done_cv`.
fn last_ident_before(trees: &[Tree], i: usize) -> Option<String> {
    if i < 2 {
        return None;
    }
    let mut j = i - 2; // skip the `.` at i-1
    loop {
        match &trees[j] {
            Tree::Leaf(tok) => match tok.kind {
                TokKind::Ident => return Some(tok.text.clone()),
                TokKind::Punct if tok.text == "." || tok.text == "::" || tok.text == "?" => {
                    if j == 0 {
                        return None;
                    }
                    j -= 1;
                }
                _ => return None,
            },
            Tree::Group {
                delim: Delim::Bracket,
                ..
            } => {
                if j == 0 {
                    return None;
                }
                j -= 1;
            }
            _ => return None,
        }
    }
}

/// Detects an `X.lock()`-style chain forming the complete slice — used for
/// `recover(<chain>)` arguments.
fn acquire_chain_lock(trees: &[Tree]) -> Option<String> {
    let n = trees.len();
    if n < 4 {
        return None;
    }
    let args = trees[n - 1].group(Delim::Paren)?;
    if !args.is_empty() {
        return None;
    }
    let m = trees[n - 2].leaf()?;
    if !matches!(m.text.as_str(), "lock" | "read" | "write") {
        return None;
    }
    if !trees[n - 3].is_punct(".") {
        return None;
    }
    last_ident_before(trees, n - 2)
}

/// Detects a `cv.wait(guard)` / `cv.wait_timeout(guard, d)` chain forming
/// the complete slice. Returns (condvar, guard, timed).
fn wait_chain(trees: &[Tree]) -> Option<(String, String, bool)> {
    let n = trees.len();
    if n < 4 {
        return None;
    }
    let args = trees[n - 1].group(Delim::Paren)?;
    if args.is_empty() {
        return None;
    }
    let m = trees[n - 2].leaf()?;
    if !matches!(m.text.as_str(), "wait" | "wait_timeout") {
        return None;
    }
    if !trees[n - 3].is_punct(".") {
        return None;
    }
    let cv = last_ident_before(trees, n - 2)?;
    let first_arg = split_top_level(args, ",").into_iter().next()?;
    let guard = flat_idents(first_arg).into_iter().next()?;
    Some((cv, guard, m.text == "wait_timeout"))
}

/// First binding identifier in a `let` pattern, ignoring `mut`/`ref` and any
/// type annotation after a top-level `:`.
fn first_pat_ident(pat: &[Tree]) -> Option<String> {
    let upto = pat
        .iter()
        .position(|t| t.is_punct(":"))
        .unwrap_or(pat.len());
    flat_idents(&pat[..upto])
        .into_iter()
        .find(|n| n != "mut" && n != "ref")
}

/// True when `trees[i]` begins a closure (`|args| body` / `|| body`): a `|`
/// or `||` punct at expression-start position. Pattern alternation and
/// bitwise-or are excluded by the preceding token.
fn is_closure_start(trees: &[Tree], i: usize) -> bool {
    let Some(tok) = trees[i].leaf() else {
        return false;
    };
    if tok.kind != TokKind::Punct || (tok.text != "|" && tok.text != "||") {
        return false;
    }
    if i == 0 {
        return true;
    }
    match &trees[i - 1] {
        Tree::Leaf(p) => match p.kind {
            TokKind::Punct => matches!(
                p.text.as_str(),
                "=" | "," | "=>" | "&&" | "||" | ":" | ";" | "&"
            ),
            TokKind::Ident => p.text == "move" || p.text == "return",
            _ => false,
        },
        _ => false,
    }
}

/// Returns (cursor-after-closure, body-slice) for a closure at `i`. A brace
/// body is the whole group; an expression body extends to the next
/// top-level `,` or `;`.
fn closure_body(trees: &[Tree], i: usize) -> (usize, &[Tree]) {
    let start = if trees[i].is_punct("||") {
        i + 1
    } else {
        let mut j = i + 1;
        while j < trees.len() && !trees[j].is_punct("|") {
            j += 1;
        }
        j + 1
    };
    if start >= trees.len() {
        return (start, &[]);
    }
    if let Some(body) = trees[start].group(Delim::Brace) {
        return (start + 1, body);
    }
    let end = trees[start..]
        .iter()
        .position(|t| t.is_punct(",") || t.is_punct(";"))
        .map(|p| start + p)
        .unwrap_or(trees.len());
    (end, &trees[start..end])
}

/// All condvars waited on anywhere inside `body` (including nested groups
/// and loops).
fn scan_wait_cvs(body: &[Tree]) -> BTreeSet<String> {
    fn rec(trees: &[Tree], out: &mut BTreeSet<String>) {
        for (i, t) in trees.iter().enumerate() {
            if let Some(tok) = t.leaf() {
                if (tok.text == "wait" || tok.text == "wait_timeout")
                    && tok.kind == TokKind::Ident
                    && i > 0
                    && trees[i - 1].is_punct(".")
                {
                    if let Some(args) = trees.get(i + 1).and_then(|x| x.group(Delim::Paren)) {
                        if !args.is_empty() {
                            if let Some(cv) = last_ident_before(trees, i) {
                                out.insert(cv);
                            }
                        }
                    }
                }
            }
            if let Tree::Group { children, .. } = t {
                rec(children, out);
            }
        }
    }
    let mut out = BTreeSet::new();
    rec(body, &mut out);
    out
}

/// Collects the `if` conditions guarding a `break`/`return` anywhere in a
/// loop body. Nested loop bodies are skipped (their `break`s bind inward;
/// a `return` inside a nested loop is an accepted under-approximation).
fn collect_exit_conds(body: &[Tree], out: &mut Vec<Vec<Tree>>) {
    let mut i = 0;
    while i < body.len() {
        let t = &body[i];
        if t.is_ident("loop") || t.is_ident("while") || t.is_ident("for") {
            if let Some(p) = body[i + 1..]
                .iter()
                .position(|x| x.group(Delim::Brace).is_some())
            {
                i = i + 1 + p + 1;
                continue;
            }
            i += 1;
            continue;
        }
        if t.is_ident("if") {
            let brace_at = body[i + 1..]
                .iter()
                .position(|x| x.group(Delim::Brace).is_some())
                .map(|p| i + 1 + p);
            let Some(brace_at) = brace_at else {
                i += 1;
                continue;
            };
            let cond = &body[i + 1..brace_at];
            let then_body = body[brace_at].group(Delim::Brace).unwrap();
            if contains_exit(then_body) {
                out.push(cond.to_vec());
            }
            collect_exit_conds(then_body, out);
            let mut j = brace_at + 1;
            if j < body.len() && body[j].is_ident("else") {
                if j + 1 < body.len() && body[j + 1].is_ident("if") {
                    // `else if ..` — re-handle from the `if`.
                    i = j + 1;
                    continue;
                }
                if let Some(else_body) = body.get(j + 1).and_then(|x| x.group(Delim::Brace)) {
                    if contains_exit(else_body) {
                        out.push(cond.to_vec());
                    }
                    collect_exit_conds(else_body, out);
                    j += 2;
                }
            }
            i = j;
            continue;
        }
        if let Tree::Group { children, .. } = t {
            collect_exit_conds(children, out);
        }
        i += 1;
    }
}

/// True if the slice reaches a `break` or `return` at this loop level (not
/// inside nested loop bodies). `?` is deliberately not counted.
fn contains_exit(trees: &[Tree]) -> bool {
    let mut i = 0;
    while i < trees.len() {
        let t = &trees[i];
        if t.is_ident("break") || t.is_ident("return") {
            return true;
        }
        if t.is_ident("loop") || t.is_ident("while") || t.is_ident("for") {
            if let Some(p) = trees[i + 1..]
                .iter()
                .position(|x| x.group(Delim::Brace).is_some())
            {
                i = i + 1 + p + 1;
                continue;
            }
        }
        if let Tree::Group { children, .. } = t {
            if contains_exit(children) {
                return true;
            }
        }
        i += 1;
    }
    false
}

/// Extracts predicate-flag names from one exit condition in the terms the
/// contract uses: a guard field read is the field name, a guard method call
/// (`g.is_empty()` / `g.pop_front()`) is the lock name (queue-emptiness),
/// and an atomic `X.load(..)` is the atomic's name.
fn cond_flags(cond: &[Tree], held: &[(String, String)], out: &mut BTreeSet<String>) {
    let mut i = 0;
    while i < cond.len() {
        let t = &cond[i];
        if let Some(tok) = t.leaf() {
            if tok.kind == TokKind::Ident {
                if tok.text == "load"
                    && i > 0
                    && cond[i - 1].is_punct(".")
                    && cond
                        .get(i + 1)
                        .and_then(|x| x.group(Delim::Paren))
                        .is_some()
                {
                    if let Some(flag) = last_ident_before(cond, i) {
                        out.insert(flag);
                    }
                    i += 2;
                    continue;
                }
                if let Some((_, lock)) = held.iter().rev().find(|(n, _)| *n == tok.text) {
                    if cond.get(i + 1).map(|x| x.is_punct(".")).unwrap_or(false) {
                        if let Some(f) = cond.get(i + 2).and_then(|x| x.leaf()) {
                            if f.kind == TokKind::Ident {
                                let is_call = cond
                                    .get(i + 3)
                                    .and_then(|x| x.group(Delim::Paren))
                                    .is_some();
                                if is_call {
                                    out.insert(lock.clone());
                                    i += 4;
                                } else {
                                    out.insert(f.text.clone());
                                    i += 3;
                                }
                                continue;
                            }
                        }
                    }
                }
            }
        }
        if let Tree::Group { children, .. } = t {
            cond_flags(children, held, out);
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// Collection over the workspace
// ---------------------------------------------------------------------------

struct Collected {
    outs: HashMap<FnId, Out>,
}

fn collect(ws: &Workspace) -> (Vec<(String, FileAst)>, Collected) {
    let pairs: Vec<(String, FileAst)> = ws
        .files
        .iter()
        .filter(|f| in_scope(&f.rel))
        .map(|f| (f.rel.clone(), f.ast.clone()))
        .collect();
    let index = FnIndex::build(
        pairs
            .iter()
            .enumerate()
            .map(|(i, (r, a))| (i, r.as_str(), a)),
        |_rel| true,
    );
    let mut outs: HashMap<FnId, Out> = HashMap::new();
    for (fi, (_rel, ast)) in pairs.iter().enumerate() {
        for (di, def) in ast.fns.iter().enumerate() {
            if def.is_test {
                continue;
            }
            let Some(body) = &def.body else { continue };
            let mut out = Out::default();
            {
                let mut w = Walker {
                    files: &pairs,
                    index: &index,
                    caller: def,
                    fn_ctx: true,
                    frames: vec![Vec::new()],
                    loops: Vec::new(),
                    out: &mut out,
                };
                w.walk_seq(body);
            }
            outs.insert(FnId { file: fi, idx: di }, out);
        }
    }
    (pairs, Collected { outs })
}

// ---------------------------------------------------------------------------
// Interprocedural fixpoints
// ---------------------------------------------------------------------------

/// Functions that may block, with a witness: the blocking description and
/// the next hop toward the blocking site, for call-path printing.
fn may_block_set(col: &Collected) -> HashMap<FnId, (String, Option<FnId>)> {
    let mut witness: HashMap<FnId, (String, Option<FnId>)> = HashMap::new();
    let mut queue: VecDeque<FnId> = VecDeque::new();
    for (fnid, out) in &col.outs {
        let seed = out
            .blocks
            .iter()
            .find(|b| b.fn_ctx)
            .map(|b| b.desc.to_string())
            .or_else(|| {
                out.waits
                    .iter()
                    .any(|w| w.fn_ctx)
                    .then(|| "condvar wait".to_string())
            });
        if let Some(desc) = seed {
            witness.insert(*fnid, (desc, None));
            queue.push_back(*fnid);
        }
    }
    let mut rev: HashMap<FnId, Vec<FnId>> = HashMap::new();
    for (fnid, out) in &col.outs {
        for cs in &out.calls {
            for callee in &cs.callees {
                rev.entry(*callee).or_default().push(*fnid);
            }
        }
    }
    while let Some(f) = queue.pop_front() {
        let Some(callers) = rev.get(&f).cloned() else {
            continue;
        };
        for caller in callers {
            if !witness.contains_key(&caller) {
                let desc = witness.get(&f).map(|(d, _)| d.clone()).unwrap_or_default();
                witness.insert(caller, (desc, Some(f)));
                queue.push_back(caller);
            }
        }
    }
    witness
}

/// Transitive lock acquisitions per function (fn-context sites only).
fn trans_acquires(col: &Collected) -> HashMap<FnId, BTreeSet<String>> {
    let mut acq: HashMap<FnId, BTreeSet<String>> = HashMap::new();
    for (fnid, out) in &col.outs {
        let s: BTreeSet<String> = out
            .acqs
            .iter()
            .filter(|a| a.fn_ctx)
            .map(|a| a.lock.clone())
            .collect();
        acq.insert(*fnid, s);
    }
    loop {
        let mut changed = false;
        let ids: Vec<FnId> = col.outs.keys().copied().collect();
        for fnid in ids {
            let mut add: BTreeSet<String> = BTreeSet::new();
            if let Some(out) = col.outs.get(&fnid) {
                for cs in &out.calls {
                    for callee in &cs.callees {
                        if let Some(cset) = acq.get(callee) {
                            add.extend(cset.iter().cloned());
                        }
                    }
                }
            }
            let entry = acq.entry(fnid).or_default();
            for l in add {
                if entry.insert(l) {
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    acq
}

// ---------------------------------------------------------------------------
// BLOCKING-OK annotations
// ---------------------------------------------------------------------------

/// If the source line at `off`, or a contiguous `//` comment block directly
/// above it, contains `BLOCKING-OK:`, returns the 1-based line number of the
/// annotation line itself.
fn blocking_ok_line(src: &str, starts: &[usize], off: usize) -> Option<usize> {
    let line = line_of(starts, off);
    let lines: Vec<&str> = src.lines().collect();
    if line == 0 || line > lines.len() {
        return None;
    }
    if lines[line - 1].contains("BLOCKING-OK:") {
        return Some(line);
    }
    let mut l = line - 1; // 1-based number of the line above
    while l >= 1 {
        let text = lines[l - 1].trim_start();
        if text.starts_with("//") {
            if text.contains("BLOCKING-OK:") {
                return Some(l);
            }
            l -= 1;
        } else {
            break;
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Contract entries (BLOCKING.toml)
// ---------------------------------------------------------------------------

/// One wait loop's shutdown-liveness contract entry.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct WaitEntry {
    pub file: String,
    pub symbol: String,
    pub condvar: String,
    pub mutex: String,
    /// Sorted predicate flags the wait loop's exit conditions read.
    pub exits: Vec<String>,
    pub count: usize,
}

/// Extracts the contract entries for all blocking-critical files.
pub fn extract(ws: &Workspace) -> Vec<WaitEntry> {
    let (pairs, col) = collect(ws);
    extract_from(&pairs, &col)
}

fn extract_from(pairs: &[(String, FileAst)], col: &Collected) -> Vec<WaitEntry> {
    let mut sites: BTreeMap<(String, String, String, String, Vec<String>), usize> = BTreeMap::new();
    for (fi, (rel, ast)) in pairs.iter().enumerate() {
        if !is_blocking_critical(rel) {
            continue;
        }
        for (di, def) in ast.fns.iter().enumerate() {
            let Some(out) = col.outs.get(&FnId { file: fi, idx: di }) else {
                continue;
            };
            for w in &out.waits {
                if !w.in_loop {
                    continue; // the `bare-condvar-wait` lint rule owns these
                }
                let exits: Vec<String> = w.exits.iter().cloned().collect();
                let key = (
                    rel.clone(),
                    def.symbol(),
                    w.cv.clone(),
                    w.mutex.clone(),
                    exits,
                );
                *sites.entry(key).or_insert(0) += 1;
            }
        }
    }
    sites
        .into_iter()
        .map(|((file, symbol, condvar, mutex, exits), count)| WaitEntry {
            file,
            symbol,
            condvar,
            mutex,
            exits,
            count,
        })
        .collect()
}

/// Renders entries in the checked-in `BLOCKING.toml` format.
pub fn to_toml(entries: &[WaitEntry]) -> String {
    let mut s = String::new();
    s.push_str("# Blocking-protocol contract: which flags each wait loop's exit\n");
    s.push_str("# condition reads. Checked by `cargo run -p xtask -- analyze`;\n");
    s.push_str("# re-bless with `cargo run -p xtask -- analyze --write-blocking`.\n");
    for e in entries {
        s.push('\n');
        s.push_str("[[wait]]\n");
        s.push_str(&format!("file = \"{}\"\n", e.file));
        s.push_str(&format!("symbol = \"{}\"\n", e.symbol));
        s.push_str(&format!("condvar = \"{}\"\n", e.condvar));
        s.push_str(&format!("mutex = \"{}\"\n", e.mutex));
        let exits = e
            .exits
            .iter()
            .map(|x| format!("\"{}\"", x))
            .collect::<Vec<_>>()
            .join(", ");
        s.push_str(&format!("exits = [{}]\n", exits));
        s.push_str(&format!("count = {}\n", e.count));
    }
    s
}

/// Parses the line-based `BLOCKING.toml` subset written by `to_toml`.
pub fn parse_toml(text: &str) -> Vec<WaitEntry> {
    let mut entries: Vec<WaitEntry> = Vec::new();
    let mut cur: Option<WaitEntry> = None;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[wait]]" {
            if let Some(e) = cur.take() {
                if !e.file.is_empty() {
                    entries.push(e);
                }
            }
            cur = Some(WaitEntry {
                file: String::new(),
                symbol: String::new(),
                condvar: String::new(),
                mutex: String::new(),
                exits: Vec::new(),
                count: 1,
            });
            continue;
        }
        let Some(e) = cur.as_mut() else { continue };
        let Some((k, v)) = line.split_once('=') else {
            continue;
        };
        match (k.trim(), v.trim()) {
            ("file", v) => e.file = v.trim_matches('"').to_string(),
            ("symbol", v) => e.symbol = v.trim_matches('"').to_string(),
            ("condvar", v) => e.condvar = v.trim_matches('"').to_string(),
            ("mutex", v) => e.mutex = v.trim_matches('"').to_string(),
            ("exits", v) => {
                let inner = v.trim_start_matches('[').trim_end_matches(']');
                e.exits = inner
                    .split(',')
                    .map(|x| x.trim().trim_matches('"').to_string())
                    .filter(|x| !x.is_empty())
                    .collect();
                e.exits.sort();
            }
            ("count", v) => e.count = v.parse().unwrap_or(1),
            _ => {}
        }
    }
    if let Some(e) = cur.take() {
        if !e.file.is_empty() {
            entries.push(e);
        }
    }
    entries.sort();
    entries
}

/// Diffs actual wait-loop shapes against the declared contract.
pub fn diff(actual: &[WaitEntry], declared: &[WaitEntry]) -> Vec<Violation> {
    let mut vs = Vec::new();
    type Key = (String, String, String);
    let group = |es: &[WaitEntry]| -> BTreeMap<Key, Vec<WaitEntry>> {
        let mut m: BTreeMap<Key, Vec<WaitEntry>> = BTreeMap::new();
        for e in es {
            m.entry((e.file.clone(), e.symbol.clone(), e.condvar.clone()))
                .or_default()
                .push(e.clone());
        }
        m
    };
    let a = group(actual);
    let d = group(declared);
    for (key, aes) in &a {
        let (file, symbol, condvar) = key;
        match d.get(key) {
            None => vs.push(Violation {
                file: file.clone(),
                line: 0,
                rule: "blocking-contract",
                detail: format!(
                    "undeclared wait loop: `{}` waits on `{}` (exits read {}) but BLOCKING.toml has no entry; \
                     re-bless with `cargo run -p xtask -- analyze --write-blocking` if intended",
                    symbol,
                    condvar,
                    fmt_exits(aes),
                ),
            }),
            Some(des) => {
                if !multiset_eq(aes, des) {
                    // Name any flags the declared contract reads that the
                    // actual shape no longer does — the liveness-relevant
                    // direction of drift.
                    let declared_flags: BTreeSet<&String> =
                        des.iter().flat_map(|e| e.exits.iter()).collect();
                    let actual_flags: BTreeSet<&String> =
                        aes.iter().flat_map(|e| e.exits.iter()).collect();
                    let dropped: Vec<&str> = declared_flags
                        .difference(&actual_flags)
                        .map(|s| s.as_str())
                        .collect();
                    let dropped_note = if dropped.is_empty() {
                        String::new()
                    } else {
                        format!("; exit condition no longer reads [{}]", dropped.join(", "))
                    };
                    vs.push(Violation {
                        file: file.clone(),
                        line: 0,
                        rule: "blocking-contract",
                        detail: format!(
                            "wait-loop drift: `{}` waiting on `{}` is declared {} but extraction found {}{}; \
                             re-bless with `cargo run -p xtask -- analyze --write-blocking` if intended",
                            symbol,
                            condvar,
                            fmt_exits(des),
                            fmt_exits(aes),
                            dropped_note,
                        ),
                    });
                }
            }
        }
    }
    for (key, des) in &d {
        if !a.contains_key(key) {
            let (file, symbol, condvar) = key;
            vs.push(Violation {
                file: file.clone(),
                line: 0,
                rule: "blocking-contract",
                detail: format!(
                    "missing wait loop: BLOCKING.toml declares `{}` waits on `{}` {} but extraction found none; \
                     re-bless with `cargo run -p xtask -- analyze --write-blocking` if intended",
                    symbol,
                    condvar,
                    fmt_exits(des),
                ),
            });
        }
    }
    vs
}

fn fmt_exits(es: &[WaitEntry]) -> String {
    let mut parts: Vec<String> = es
        .iter()
        .map(|e| format!("[{}]x{}", e.exits.join(","), e.count))
        .collect();
    parts.sort();
    parts.join(" + ")
}

fn multiset_eq(a: &[WaitEntry], b: &[WaitEntry]) -> bool {
    let key = |es: &[WaitEntry]| -> BTreeMap<(Vec<String>, String), usize> {
        let mut m: BTreeMap<(Vec<String>, String), usize> = BTreeMap::new();
        for e in es {
            *m.entry((e.exits.clone(), e.mutex.clone())).or_insert(0) += e.count;
        }
        m
    };
    key(a) == key(b)
}

// ---------------------------------------------------------------------------
// The analysis entry point
// ---------------------------------------------------------------------------

pub fn analyze(ws: &Workspace) -> Vec<Violation> {
    let (pairs, col) = collect(ws);
    let mut vs: Vec<Violation> = Vec::new();
    // (workspace file index, line) of every BLOCKING-OK annotation that
    // suppressed a finding, for the orphan scan.
    let mut used_ok: HashSet<(usize, usize)> = HashSet::new();

    // Map pairs index -> workspace file index for src/line_starts lookup.
    let ws_idx: Vec<usize> = pairs
        .iter()
        .map(|(rel, _)| ws.files.iter().position(|f| f.rel == *rel).unwrap())
        .collect();
    let line_at =
        |fi: usize, off: usize| -> usize { line_of(&ws.files[ws_idx[fi]].line_starts, off) };
    let ok_at = |fi: usize, off: usize| -> Option<usize> {
        let f = &ws.files[ws_idx[fi]];
        blocking_ok_line(&f.src, &f.line_starts, off)
    };
    let ok_check = |fi: usize, off: usize, used: &mut HashSet<(usize, usize)>| -> bool {
        if let Some(l) = ok_at(fi, off) {
            used.insert((ws_idx[fi], l));
            true
        } else {
            false
        }
    };

    let blocks_may = may_block_set(&col);
    let trans = trans_acquires(&col);

    // ---- Rule: lock-order-cycle -------------------------------------------
    // Edge (a, b): lock b acquired (directly or transitively) while a held.
    // Each witness is (file index, byte offset, human-readable description).
    type Witness = (usize, usize, String);
    let mut edges: BTreeMap<(String, String), Vec<Witness>> = BTreeMap::new();
    for (fnid, out) in &col.outs {
        let symbol = pairs[fnid.file].1.fns[fnid.idx].symbol();
        for a in &out.acqs {
            for h in &a.held {
                edges.entry((h.clone(), a.lock.clone())).or_default().push((
                    fnid.file,
                    a.off,
                    format!("`{}` acquires `{}` while holding `{}`", symbol, a.lock, h),
                ));
            }
        }
        for cs in &out.calls {
            if cs.held.is_empty() {
                continue;
            }
            for callee in &cs.callees {
                let Some(tacq) = trans.get(callee) else {
                    continue;
                };
                let callee_sym = pairs[callee.file].1.fns[callee.idx].symbol();
                for l in tacq {
                    for h in &cs.held {
                        if h == l {
                            // Same-name re-acquire through a call: direct
                            // self-edges cover the in-function case; the
                            // interprocedural one is too name-collision-prone.
                            continue;
                        }
                        edges.entry((h.clone(), l.clone())).or_default().push((
                            fnid.file,
                            cs.off,
                            format!(
                                "`{}` calls `{}` (which acquires `{}`) while holding `{}`",
                                symbol, callee_sym, l, h
                            ),
                        ));
                    }
                }
            }
        }
    }
    let reaches = |from: &String, to: &String| -> bool {
        let mut seen: BTreeSet<&String> = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            for (a, b) in edges.keys() {
                if a == n && !seen.contains(b) {
                    stack.push(b);
                }
            }
        }
        false
    };
    let cyclic: Vec<(&String, &String)> = edges
        .keys()
        .filter(|(a, b)| a == b || reaches(b, a))
        .map(|(a, b)| (a, b))
        .collect();
    if !cyclic.is_empty() {
        // Group cyclic edges into connected components (union-find on names).
        let names: Vec<&String> = {
            let mut s: BTreeSet<&String> = BTreeSet::new();
            for (a, b) in &cyclic {
                s.insert(a);
                s.insert(b);
            }
            s.into_iter().collect()
        };
        let idx_of = |n: &String| names.iter().position(|x| *x == n).unwrap();
        let mut parent: Vec<usize> = (0..names.len()).collect();
        fn find(p: &mut Vec<usize>, x: usize) -> usize {
            if p[x] != x {
                let r = find(p, p[x]);
                p[x] = r;
            }
            p[x]
        }
        for (a, b) in &cyclic {
            let (ra, rb) = (find(&mut parent, idx_of(a)), find(&mut parent, idx_of(b)));
            if ra != rb {
                parent[ra] = rb;
            }
        }
        let mut comps: BTreeMap<usize, Vec<(&String, &String)>> = BTreeMap::new();
        for (a, b) in &cyclic {
            let r = find(&mut parent, idx_of(a));
            comps.entry(r).or_default().push((a, b));
        }
        for (_, comp_edges) in comps {
            let mut suppressed = false;
            let mut detail_parts: Vec<String> = Vec::new();
            let mut first: Option<(usize, usize)> = None;
            for (a, b) in &comp_edges {
                if let Some(wit) = edges.get(&((*a).clone(), (*b).clone())) {
                    for (fi, off, desc) in wit {
                        if ok_check(*fi, *off, &mut used_ok) {
                            suppressed = true;
                        }
                        if first.is_none() {
                            first = Some((*fi, *off));
                        }
                        detail_parts.push(format!(
                            "{} ({}:{})",
                            desc,
                            pairs[*fi].0,
                            line_at(*fi, *off)
                        ));
                    }
                }
            }
            if suppressed {
                continue;
            }
            let (fi, off) = first.unwrap();
            detail_parts.sort();
            detail_parts.dedup();
            vs.push(Violation {
                file: pairs[fi].0.clone(),
                line: line_at(fi, off),
                rule: "lock-order-cycle",
                detail: format!("lock-order cycle: {}", detail_parts.join("; ")),
            });
        }
    }

    // ---- Rule: blocking-while-locked --------------------------------------
    for (fnid, out) in &col.outs {
        let symbol = pairs[fnid.file].1.fns[fnid.idx].symbol();
        for b in &out.blocks {
            if b.held.is_empty() {
                continue;
            }
            if ok_check(fnid.file, b.off, &mut used_ok) {
                continue;
            }
            vs.push(Violation {
                file: pairs[fnid.file].0.clone(),
                line: line_at(fnid.file, b.off),
                rule: "blocking-while-locked",
                detail: format!(
                    "`{}` performs a {} while holding lock(s) [{}]",
                    symbol,
                    b.desc,
                    b.held.join(", ")
                ),
            });
        }
        for w in &out.waits {
            if w.held_other.is_empty() {
                continue;
            }
            if ok_check(fnid.file, w.off, &mut used_ok) {
                continue;
            }
            vs.push(Violation {
                file: pairs[fnid.file].0.clone(),
                line: line_at(fnid.file, w.off),
                rule: "blocking-while-locked",
                detail: format!(
                    "`{}` waits on `{}` (releasing `{}`) while still holding [{}]",
                    symbol,
                    w.cv,
                    w.mutex,
                    w.held_other.join(", ")
                ),
            });
        }
        for cs in &out.calls {
            if cs.held.is_empty() {
                continue;
            }
            let mut hit: Option<(FnId, String)> = None;
            for callee in &cs.callees {
                if let Some((desc, _)) = blocks_may.get(callee) {
                    hit = Some((*callee, desc.clone()));
                    break;
                }
            }
            let Some((callee, desc)) = hit else { continue };
            if ok_check(fnid.file, cs.off, &mut used_ok) {
                continue;
            }
            let mut path_syms: Vec<String> = vec![symbol.clone()];
            let mut cur = Some(callee);
            while let Some(c) = cur {
                path_syms.push(pairs[c.file].1.fns[c.idx].symbol());
                cur = blocks_may.get(&c).and_then(|(_, next)| *next);
            }
            vs.push(Violation {
                file: pairs[fnid.file].0.clone(),
                line: line_at(fnid.file, cs.off),
                rule: "blocking-while-locked",
                detail: format!(
                    "`{}` may reach a {} while holding [{}]: {}",
                    symbol,
                    desc,
                    cs.held.join(", "),
                    path_syms.join(" -> ")
                ),
            });
        }
    }

    // ---- Rules: condvar-unnotified & condvar-single-wake ------------------
    for (fi, (rel, ast)) in pairs.iter().enumerate() {
        if !is_blocking_critical(rel) {
            continue;
        }
        // Predicate flags per condvar: union of in-loop wait exits, minus
        // the implicit timeout flag.
        let mut preds: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut wait_exit_sets: BTreeMap<String, BTreeSet<Vec<String>>> = BTreeMap::new();
        let mut notify_one_offs: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        // Writes and notifies aggregated per enclosing function — closure
        // contexts included: serve()'s notify lives inside `thread::scope`
        // while the drain-loop write is in the fn body.
        let mut fn_writes: BTreeMap<usize, Vec<WriteSite>> = BTreeMap::new();
        let mut fn_notifies: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
        for di in 0..ast.fns.len() {
            let Some(out) = col.outs.get(&FnId { file: fi, idx: di }) else {
                continue;
            };
            for w in &out.waits {
                if !w.in_loop {
                    continue;
                }
                let flags: BTreeSet<String> = w
                    .exits
                    .iter()
                    .filter(|f| f.as_str() != "timeout")
                    .cloned()
                    .collect();
                preds.entry(w.cv.clone()).or_default().extend(flags.clone());
                wait_exit_sets
                    .entry(w.cv.clone())
                    .or_default()
                    .insert(flags.into_iter().collect());
            }
            for n in &out.notifies {
                fn_notifies.entry(di).or_default().insert(n.cv.clone());
                if n.one {
                    notify_one_offs.entry(n.cv.clone()).or_default().push(n.off);
                }
            }
            fn_writes
                .entry(di)
                .or_default()
                .extend(out.writes.iter().cloned());
        }
        // condvar-unnotified: a function writes a predicate flag of cv but
        // never notifies cv, and the write is not inside cv's own wait loop.
        for (di, writes) in &fn_writes {
            let def = &ast.fns[*di];
            let notified = fn_notifies.get(di);
            for wsite in writes {
                for (cv, flags) in &preds {
                    if !flags.contains(&wsite.flag) {
                        continue;
                    }
                    if wsite.in_wait_loops.contains(cv) {
                        continue;
                    }
                    if notified.map(|s| s.contains(cv)).unwrap_or(false) {
                        continue;
                    }
                    if ok_check(fi, wsite.off, &mut used_ok) {
                        continue;
                    }
                    vs.push(Violation {
                        file: rel.clone(),
                        line: line_at(fi, wsite.off),
                        rule: "condvar-unnotified",
                        detail: format!(
                            "`{}` writes predicate flag `{}` read by `{}`'s wait loop but never notifies `{}` — \
                             a waiter can miss this state change (lost wakeup)",
                            def.symbol(),
                            wsite.flag,
                            cv,
                            cv
                        ),
                    });
                }
            }
        }
        // condvar-single-wake: notify_one on a condvar with >= 2 distinct
        // wait-loop predicates in this file.
        for (cv, offs) in &notify_one_offs {
            let distinct = wait_exit_sets.get(cv).map(|s| s.len()).unwrap_or(0);
            if distinct < 2 {
                continue;
            }
            for off in offs {
                if ok_check(fi, *off, &mut used_ok) {
                    continue;
                }
                vs.push(Violation {
                    file: rel.clone(),
                    line: line_at(fi, *off),
                    rule: "condvar-single-wake",
                    detail: format!(
                        "`notify_one` on `{}` but {} distinct wait predicates exist in this file — \
                         the single wakeup can land on a waiter whose predicate is still false; use `notify_all`",
                        cv, distinct
                    ),
                });
            }
        }
    }

    // ---- Rule: blocking-contract ------------------------------------------
    let actual = extract_from(&pairs, &col);
    match &ws.blocking {
        Some(text) => {
            let declared = parse_toml(text);
            vs.extend(diff(&actual, &declared));
        }
        None => {
            if !actual.is_empty() {
                vs.push(Violation {
                    file: "BLOCKING.toml".to_string(),
                    line: 0,
                    rule: "blocking-contract",
                    detail: format!(
                        "{} wait loop(s) found but BLOCKING.toml is missing; \
                         bless with `cargo run -p xtask -- analyze --write-blocking`",
                        actual.len()
                    ),
                });
            }
        }
    }

    // ---- Rule: blocking-ok-orphan -----------------------------------------
    for (fi, (rel, ast)) in pairs.iter().enumerate() {
        if !is_blocking_critical(rel) {
            continue;
        }
        let f = &ws.files[ws_idx[fi]];
        for (li, line) in f.src.lines().enumerate() {
            if !line.contains("BLOCKING-OK:") {
                continue;
            }
            let lineno = li + 1;
            let off = f.line_starts.get(li).copied().unwrap_or(0);
            if ast.in_test_span(off) {
                continue;
            }
            if used_ok.contains(&(ws_idx[fi], lineno)) {
                continue;
            }
            vs.push(Violation {
                file: rel.clone(),
                line: lineno,
                rule: "blocking-ok-orphan",
                detail:
                    "BLOCKING-OK annotation does not suppress any finding; remove it or fix the drift"
                        .to_string(),
            });
        }
    }

    vs
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

    /// Bless the workspace's own contract so only the rule under test fires.
    fn blessed(mut ws: Workspace) -> Workspace {
        let entries = extract(&ws);
        if !entries.is_empty() {
            ws.blocking = Some(to_toml(&entries));
        }
        ws
    }

    fn rules_of(vs: &[Violation]) -> Vec<&'static str> {
        vs.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn contract_roundtrips_through_toml() {
        let ws = ws_of(&[(
            "crates/runtime/src/pool.rs",
            "fn waiter(shared: &Shared) {\n\
                 let mut st = recover(shared.state.lock());\n\
                 loop {\n\
                     if st.shutdown { break; }\n\
                     st = recover(shared.done_cv.wait(st));\n\
                 }\n\
                 drop(st);\n\
                 shared.done_cv.notify_all();\n\
             }\n",
        )]);
        let entries = extract(&ws);
        assert_eq!(entries.len(), 1, "{entries:?}");
        assert_eq!(entries[0].symbol, "waiter");
        assert_eq!(entries[0].condvar, "done_cv");
        assert_eq!(entries[0].mutex, "state");
        assert_eq!(entries[0].exits, vec!["shutdown".to_string()]);
        let parsed = parse_toml(&to_toml(&entries));
        assert_eq!(parsed, entries);
        assert!(diff(&entries, &parsed).is_empty());
    }

    #[test]
    fn drift_names_the_dropped_flag() {
        let declared = vec![WaitEntry {
            file: "crates/runtime/src/service.rs".into(),
            symbol: "lane_loop".into(),
            condvar: "queue_cv".into(),
            mutex: "queue".into(),
            exits: vec!["queue".into(), "shutdown".into()],
            count: 1,
        }];
        let actual = vec![WaitEntry {
            exits: vec!["queue".into()],
            ..declared[0].clone()
        }];
        let vs = diff(&actual, &declared);
        assert_eq!(rules_of(&vs), vec!["blocking-contract"]);
        assert!(
            vs[0].detail.contains("no longer reads [shutdown]"),
            "{}",
            vs[0].detail
        );
    }

    #[test]
    fn missing_contract_file_is_reported() {
        let ws = ws_of(&[(
            "crates/runtime/src/pool.rs",
            "fn waiter(shared: &Shared) {\n\
                 let mut st = recover(shared.state.lock());\n\
                 loop {\n\
                     if st.shutdown { break; }\n\
                     st = recover(shared.cv.wait(st));\n\
                 }\n\
             }\n",
        )]);
        let vs = analyze(&ws);
        assert_eq!(rules_of(&vs), vec!["blocking-contract"]);
        assert!(vs[0].detail.contains("missing"), "{}", vs[0].detail);
    }

    #[test]
    fn opposite_lock_orders_form_a_cycle() {
        let ws = ws_of(&[(
            "crates/runtime/src/misc.rs",
            "fn ab(s: &S) {\n\
                 let _a = recover(s.alpha.lock());\n\
                 let _b = recover(s.beta.lock());\n\
             }\n\
             fn ba(s: &S) {\n\
                 let _b = recover(s.beta.lock());\n\
                 let _a = recover(s.alpha.lock());\n\
             }\n",
        )]);
        let vs = analyze(&ws);
        assert_eq!(rules_of(&vs), vec!["lock-order-cycle"], "{vs:?}");
        assert!(vs[0].detail.contains("alpha"), "{}", vs[0].detail);
        assert!(vs[0].detail.contains("beta"), "{}", vs[0].detail);
    }

    #[test]
    fn double_acquire_is_a_self_cycle() {
        let ws = ws_of(&[(
            "crates/runtime/src/misc.rs",
            "fn d(s: &S) {\n\
                 let _a = recover(s.state.lock());\n\
                 let _b = recover(s.state.lock());\n\
             }\n",
        )]);
        let vs = analyze(&ws);
        assert_eq!(rules_of(&vs), vec!["lock-order-cycle"], "{vs:?}");
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let ws = ws_of(&[(
            "crates/runtime/src/misc.rs",
            "fn ab(s: &S) {\n\
                 let _a = recover(s.alpha.lock());\n\
                 let _b = recover(s.beta.lock());\n\
             }\n\
             fn ab2(s: &S) {\n\
                 let _a = recover(s.alpha.lock());\n\
                 let _b = recover(s.beta.lock());\n\
             }\n",
        )]);
        assert!(analyze(&ws).is_empty());
    }

    #[test]
    fn recv_while_locked_is_flagged() {
        let ws = ws_of(&[(
            "crates/runtime/src/misc.rs",
            "fn locked_recv(s: &S) {\n\
                 let _g = recover(s.state.lock());\n\
                 let _x = s.rx.recv();\n\
             }\n",
        )]);
        let vs = analyze(&ws);
        assert_eq!(rules_of(&vs), vec!["blocking-while-locked"], "{vs:?}");
        assert!(vs[0].detail.contains("channel recv"), "{}", vs[0].detail);
    }

    #[test]
    fn interprocedural_block_prints_the_call_path() {
        let ws = ws_of(&[(
            "crates/runtime/src/misc.rs",
            "fn outer(s: &S) {\n\
                 let _g = recover(s.state.lock());\n\
                 helper(s);\n\
             }\n\
             fn helper(s: &S) {\n\
                 let _x = s.rx.recv();\n\
             }\n",
        )]);
        let vs = analyze(&ws);
        assert_eq!(rules_of(&vs), vec!["blocking-while-locked"], "{vs:?}");
        assert!(vs[0].detail.contains("outer -> helper"), "{}", vs[0].detail);
    }

    #[test]
    fn dropping_the_guard_releases_it() {
        let ws = ws_of(&[(
            "crates/runtime/src/misc.rs",
            "fn ok(s: &S) {\n\
                 let g = recover(s.state.lock());\n\
                 drop(g);\n\
                 let _x = s.rx.recv();\n\
             }\n",
        )]);
        assert!(analyze(&ws).is_empty());
    }

    #[test]
    fn a_divergent_branch_drop_does_not_leak_out() {
        // `drop(st)` inside the `if` releases only on that path; the
        // fall-through still holds the lock at the recv.
        let ws = ws_of(&[(
            "crates/runtime/src/misc.rs",
            "fn maybe(s: &S, c: bool) {\n\
                 let st = recover(s.state.lock());\n\
                 if c {\n\
                     drop(st);\n\
                     return;\n\
                 }\n\
                 let _x = s.rx.recv();\n\
             }\n",
        )]);
        let vs = analyze(&ws);
        assert_eq!(rules_of(&vs), vec!["blocking-while-locked"], "{vs:?}");
    }

    #[test]
    fn waiting_with_a_second_lock_held_is_flagged() {
        let ws = blessed(ws_of(&[(
            "crates/runtime/src/pool.rs",
            "fn two(shared: &Shared) {\n\
                 let _h = recover(shared.handles.lock());\n\
                 let mut st = recover(shared.state.lock());\n\
                 loop {\n\
                     if st.shutdown { break; }\n\
                     st = recover(shared.cv.wait(st));\n\
                 }\n\
             }\n",
        )]));
        let vs = analyze(&ws);
        assert_eq!(rules_of(&vs), vec!["blocking-while-locked"], "{vs:?}");
        assert!(vs[0].detail.contains("handles"), "{}", vs[0].detail);
    }

    #[test]
    fn unnotified_predicate_write_is_a_lost_wakeup() {
        // The PR-8 pool-swap hang shape: the flag writer wakes only the
        // wrong condvar.
        let ws = blessed(ws_of(&[(
            "crates/runtime/src/pool.rs",
            "fn waiter(shared: &Shared) {\n\
                 let mut st = recover(shared.state.lock());\n\
                 loop {\n\
                     if st.shutdown { break; }\n\
                     st = recover(shared.done_cv.wait(st));\n\
                 }\n\
             }\n\
             fn swapper(shared: &Shared) {\n\
                 let mut st = recover(shared.state.lock());\n\
                 st.shutdown = true;\n\
                 shared.work_cv.notify_all();\n\
             }\n",
        )]));
        let vs = analyze(&ws);
        assert_eq!(rules_of(&vs), vec!["condvar-unnotified"], "{vs:?}");
        assert!(vs[0].detail.contains("swapper"), "{}", vs[0].detail);
        assert!(vs[0].detail.contains("done_cv"), "{}", vs[0].detail);
    }

    #[test]
    fn notifying_in_the_same_fn_is_clean() {
        let ws = blessed(ws_of(&[(
            "crates/runtime/src/pool.rs",
            "fn waiter(shared: &Shared) {\n\
                 let mut st = recover(shared.state.lock());\n\
                 loop {\n\
                     if st.shutdown { break; }\n\
                     st = recover(shared.done_cv.wait(st));\n\
                 }\n\
             }\n\
             fn swapper(shared: &Shared) {\n\
                 let mut st = recover(shared.state.lock());\n\
                 st.shutdown = true;\n\
                 shared.done_cv.notify_all();\n\
             }\n",
        )]));
        assert!(analyze(&ws).is_empty());
    }

    #[test]
    fn notify_inside_a_scope_closure_counts_for_the_enclosing_fn() {
        // The serve() shape: the write sits in the fn body while the notify
        // lives inside the thread::scope closure.
        let ws = blessed(ws_of(&[(
            "crates/runtime/src/service.rs",
            "fn waiter(shared: &Shared) {\n\
                 let mut st = recover(shared.state.lock());\n\
                 loop {\n\
                     if st.shutdown { break; }\n\
                     st = recover(shared.cv.wait(st));\n\
                 }\n\
             }\n\
             fn serve(shared: &Shared) {\n\
                 std::thread::scope(|s| {\n\
                     shared.cv.notify_all();\n\
                 });\n\
                 let mut st = recover(shared.state.lock());\n\
                 st.shutdown = true;\n\
             }\n",
        )]));
        assert!(analyze(&ws).is_empty());
    }

    #[test]
    fn a_write_inside_its_own_wait_loop_is_exempt() {
        let ws = blessed(ws_of(&[(
            "crates/runtime/src/pool.rs",
            "fn drain(shared: &Shared) {\n\
                 let mut st = recover(shared.state.lock());\n\
                 loop {\n\
                     if st.remaining == 0 { break; }\n\
                     st.remaining -= 1;\n\
                     st = recover(shared.done_cv.wait(st));\n\
                 }\n\
             }\n",
        )]));
        assert!(analyze(&ws).is_empty());
    }

    #[test]
    fn notify_one_with_mixed_waiter_predicates_is_flagged() {
        let ws = blessed(ws_of(&[(
            "crates/runtime/src/pool.rs",
            "fn wait_job(shared: &Shared) {\n\
                 let mut st = recover(shared.state.lock());\n\
                 loop {\n\
                     if st.job { break; }\n\
                     st = recover(shared.cv.wait(st));\n\
                 }\n\
             }\n\
             fn wait_done(shared: &Shared) {\n\
                 let mut st = recover(shared.state.lock());\n\
                 loop {\n\
                     if st.done { break; }\n\
                     st = recover(shared.cv.wait(st));\n\
                 }\n\
             }\n\
             fn poke(shared: &Shared) {\n\
                 let mut st = recover(shared.state.lock());\n\
                 st.job = true;\n\
                 st.done = true;\n\
                 shared.cv.notify_one();\n\
             }\n",
        )]));
        let vs = analyze(&ws);
        assert_eq!(rules_of(&vs), vec!["condvar-single-wake"], "{vs:?}");
    }

    #[test]
    fn blocking_ok_suppresses_and_orphans_are_flagged() {
        let suppressed = ws_of(&[(
            "crates/runtime/src/pool.rs",
            "fn locked_recv(shared: &Shared) {\n\
                 let _g = recover(shared.state.lock());\n\
                 // BLOCKING-OK: the sender is the same thread's prior send\n\
                 let _x = shared.rx.recv();\n\
             }\n",
        )]);
        assert!(analyze(&suppressed).is_empty());

        let orphan = ws_of(&[(
            "crates/runtime/src/pool.rs",
            "fn fine(shared: &Shared) {\n\
                 // BLOCKING-OK: stale annotation, nothing to suppress\n\
                 let _x = shared.rx.recv();\n\
             }\n",
        )]);
        let vs = analyze(&orphan);
        assert_eq!(rules_of(&vs), vec!["blocking-ok-orphan"], "{vs:?}");
        assert_eq!(vs[0].line, 2);
    }

    #[test]
    fn closure_bodies_are_detached_from_the_held_set() {
        // The guard is held at the spawn site, but the closure runs on
        // another thread: its recv must not inherit the held set, and the
        // closure's own locals must not leak back out.
        let ws = ws_of(&[(
            "crates/runtime/src/misc.rs",
            "fn spawny(s: &S) {\n\
                 let _g = recover(s.state.lock());\n\
                 s.scope.spawn(move || {\n\
                     let _x = s.rx.recv();\n\
                 });\n\
             }\n",
        )]);
        assert!(analyze(&ws).is_empty());
    }
}
