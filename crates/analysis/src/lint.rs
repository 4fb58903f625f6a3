//! The lexical audit rules, ported from `xtask` onto the token
//! stream.
//!
//! Rule semantics and wording are identical to the historical lexical
//! lint (xtask delegates here), with one deliberate upgrade: the
//! round-path panic rule's test exemption is **span-based** — an
//! inline `#[cfg(test)]` module exempts exactly the tokens inside its
//! braces, not everything below its attribute, so live code after an
//! inline test module is still linted.
//!
//! The seven rules, by the id a finding carries (file lists are the
//! constants below):
//!
//! * `relaxed-ordering` — `Ordering::Relaxed` outside `RELAXED_ALLOWLIST`;
//! * `unsafe-without-safety` — `unsafe` with no `// SAFETY:` comment;
//! * `slot-ptr-outside-store` — `.slot_ptr(` outside the store and `TaskCtx`;
//! * `stray-thread-spawn` — an OS thread created outside `pool.rs`;
//! * `unwrap-in-round-path` — `.unwrap()` / `.expect(` in `UNWRAP_BANLIST`;
//! * `bare-condvar-wait` — a guard-taking `wait` outside a predicate loop;
//! * `instant-in-round-path` — `Instant::now` in `INSTANT_BANLIST`.

use crate::ast::parse_items;
use crate::lexer::{line_of, line_starts, tokenize, Delim, TokKind, Token};
use crate::report::Violation;
use crate::tree::{build_trees, Tree};

/// Files allowed to use `Ordering::Relaxed`.
const RELAXED_ALLOWLIST: &[&str] = &[
    "crates/runtime/src/lock.rs",
    "crates/obs/src/ring.rs",
    // The monotone distance bound: a value that orders nothing
    // (DESIGN.md §14.7); its two sites are under PROTOCOL.toml.
    "crates/apps/src/sssp.rs",
];

/// Files allowed to create OS threads.
const SPAWN_ALLOWLIST: &[&str] = &["crates/runtime/src/pool.rs"];

/// Files allowed to call `SpecStore::slot_ptr`: the store itself and
/// the `TaskCtx` access layer. Everywhere else, raw slab pointers
/// bypass the lock-ownership checks — and on a sharded store a slab
/// index is a *physical* position, so "obvious" logical indexing is
/// silently wrong. All other code goes through `TaskCtx`
/// read/write/lock (or `lock_of` for lock addressing).
const SLOT_PTR_ALLOWLIST: &[&str] = &["crates/runtime/src/store.rs", "crates/runtime/src/task.rs"];

/// Round-critical files in which `Instant::now` is banned.
///
/// `pipelined.rs` is on the list deliberately: its batch loop is the
/// barrier-free analogue of the round hot path. `phase.rs` is
/// deliberately *not* — it is the designated timing module the banned
/// files call into, and its stamps are inert unless a bench attaches
/// a clock.
const INSTANT_BANLIST: &[&str] = &[
    "crates/runtime/src/lock.rs",
    "crates/runtime/src/task.rs",
    "crates/runtime/src/store.rs",
    "crates/runtime/src/exec.rs",
    "crates/runtime/src/pipelined.rs",
    // The job service drives rounds directly; its timing (deadlines,
    // latency, wedge detection) must go through the phase module's
    // Deadline/Stopwatch plumbing, never a raw Instant.
    "crates/runtime/src/service.rs",
];

/// Round-critical runtime modules in which `.unwrap()` / `.expect(`
/// are banned outside test spans (`pipelined.rs`: a panicking worker
/// batch would strand its in-flight permits, so the no-unwrap rule
/// applies with full force).
pub const UNWRAP_BANLIST: &[&str] = &[
    "crates/runtime/src/lock.rs",
    "crates/runtime/src/task.rs",
    "crates/runtime/src/store.rs",
    "crates/runtime/src/exec.rs",
    "crates/runtime/src/pool.rs",
    "crates/runtime/src/faults.rs",
    "crates/runtime/src/pipelined.rs",
    // A panicking service lane would take its clients' reports down
    // with it; every error must surface as a structured JobError.
    "crates/runtime/src/service.rs",
];

/// Does the `unsafe` token on 1-indexed line `ln` have a `// SAFETY:`
/// comment on its own line or in the contiguous comment/attribute
/// block above it?
fn has_safety_comment(lines: &[&str], ln: usize) -> bool {
    if ln == 0 || ln > lines.len() {
        return false;
    }
    if lines[ln - 1].contains("SAFETY:") {
        return true;
    }
    let mut i = ln - 1; // 0-indexed line of the token; walk upward
    while i > 0 {
        i -= 1;
        let t = lines[i].trim_start();
        if t.is_empty() || t.starts_with("#[") || t.starts_with("#!") || t == ")]" {
            continue;
        }
        if t.starts_with("//") || t.starts_with("/*") || t.starts_with('*') || t.ends_with("*/") {
            if t.contains("SAFETY:") {
                return true;
            }
            continue;
        }
        return false;
    }
    false
}

/// Offsets of `a :: b` ident-path pairs in the token stream.
fn path_pair_offsets(toks: &[Token], a: &str, b: &str) -> Vec<usize> {
    let mut out = Vec::new();
    for w in toks.windows(3) {
        if w[0].is_ident(a) && w[1].is_punct("::") && w[2].is_ident(b) {
            out.push(w[0].off);
        }
    }
    out
}

/// Lint one file's source. `rel` is its repo-relative path (forward
/// slashes), which decides allowlist membership.
pub fn lint_source(rel: &str, src: &str) -> Vec<Violation> {
    let toks = tokenize(src);
    let starts = line_starts(src);
    let lines: Vec<&str> = src.lines().collect();
    let trees = build_trees(toks.clone());
    let ast = parse_items(&trees);
    let mut out = Vec::new();
    let push = |off: usize, rule: &'static str, detail: String, out: &mut Vec<Violation>| {
        out.push(Violation {
            file: rel.to_string(),
            line: line_of(&starts, off),
            rule,
            detail,
        });
    };

    if !RELAXED_ALLOWLIST.contains(&rel) {
        for off in path_pair_offsets(&toks, "Ordering", "Relaxed") {
            push(
                off,
                "relaxed-ordering",
                "Ordering::Relaxed outside the audited allowlist \
                 (crates/runtime/src/lock.rs, crates/obs/src/ring.rs, \
                 crates/apps/src/sssp.rs); use Acquire/Release/AcqRel"
                    .to_string(),
                &mut out,
            );
        }
    }

    for t in &toks {
        if t.is_ident("unsafe") {
            let ln = line_of(&starts, t.off);
            if !has_safety_comment(&lines, ln) {
                push(
                    t.off,
                    "unsafe-without-safety",
                    "`unsafe` without a `// SAFETY:` comment stating its invariant".to_string(),
                    &mut out,
                );
            }
        }
    }

    if !SLOT_PTR_ALLOWLIST.contains(&rel) {
        for (i, t) in toks.iter().enumerate() {
            if t.is_punct(".")
                && toks.get(i + 1).is_some_and(|n| n.is_ident("slot_ptr"))
                && matches!(toks.get(i + 2), Some(n) if n.kind == TokKind::Open(Delim::Paren))
            {
                push(
                    t.off,
                    "slot-ptr-outside-store",
                    ".slot_ptr( outside crates/runtime/src/{store,task}.rs \
                     bypasses lock-checked access, and on a sharded store the \
                     slab index is physical, not logical; go through TaskCtx \
                     read/write/lock or SpecStore::lock_of"
                        .to_string(),
                    &mut out,
                );
            }
        }
    }

    if !SPAWN_ALLOWLIST.contains(&rel) {
        for (tail, pat) in [("spawn", "thread::spawn"), ("Builder", "thread::Builder")] {
            for off in path_pair_offsets(&toks, "thread", tail) {
                push(
                    off,
                    "stray-thread-spawn",
                    format!(
                        "{pat} outside crates/runtime/src/pool.rs; all OS threads \
                         come from the WorkerPool"
                    ),
                    &mut out,
                );
            }
        }
    }

    if UNWRAP_BANLIST.contains(&rel) {
        // Span-based test exemption: only tokens inside `#[cfg(test)]`
        // item spans are exempt (not everything below the attribute).
        for (i, t) in toks.iter().enumerate() {
            if !t.is_punct(".") || ast.in_test_span(t.off) {
                continue;
            }
            let pat = if toks[i + 1..].first().is_some_and(|n| n.is_ident("unwrap"))
                && matches!(toks.get(i + 2), Some(n) if n.kind == TokKind::Open(Delim::Paren))
                && matches!(toks.get(i + 3), Some(n) if n.kind == TokKind::Close(Delim::Paren))
            {
                ".unwrap()"
            } else if toks[i + 1..].first().is_some_and(|n| n.is_ident("expect"))
                && matches!(toks.get(i + 2), Some(n) if n.kind == TokKind::Open(Delim::Paren))
            {
                ".expect("
            } else {
                continue;
            };
            push(
                t.off,
                "unwrap-in-round-path",
                format!(
                    "{pat} in a round-critical runtime module panics past the \
                     containment boundary and kills a pool worker; recover the \
                     error (faults::recover for poisoned mutexes) or surface it \
                     as an Abort/TaskFault"
                ),
                &mut out,
            );
        }
    }

    // Bare `Condvar::wait` (outside any loop): spurious wakeups and
    // missed notifications make a single un-looped wait a liveness bug.
    // Span-based test exemption, like the unwrap rule.
    let mut waits = Vec::new();
    find_bare_waits(&trees, false, &mut waits);
    for off in waits {
        if ast.in_test_span(off) {
            continue;
        }
        push(
            off,
            "bare-condvar-wait",
            "Condvar wait outside a predicate loop; spurious wakeups and \
             missed notifications require \
             `while !pred { guard = cv.wait(guard); }`"
                .to_string(),
            &mut out,
        );
    }

    if INSTANT_BANLIST.contains(&rel) {
        for off in path_pair_offsets(&toks, "Instant", "now") {
            push(
                off,
                "instant-in-round-path",
                "Instant::now in a round-critical file skews the measured \
                 conflict ratio; time at round granularity in the driver instead"
                    .to_string(),
                &mut out,
            );
        }
    }

    out
}

/// Collects offsets of `.wait(..)` / `.wait_timeout(..)` method calls (with
/// at least one argument — the guard) that are not lexically inside any
/// loop body. Loop bodies set `in_loop`; other groups inherit it.
fn find_bare_waits(trees: &[Tree], in_loop: bool, out: &mut Vec<usize>) {
    let mut i = 0;
    while i < trees.len() {
        let t = &trees[i];
        if t.is_ident("loop") || t.is_ident("while") || t.is_ident("for") {
            if let Some(p) = trees[i + 1..]
                .iter()
                .position(|x| x.group(crate::lexer::Delim::Brace).is_some())
            {
                let body_at = i + 1 + p;
                find_bare_waits(&trees[i + 1..body_at], in_loop, out);
                let body = trees[body_at].group(crate::lexer::Delim::Brace).unwrap();
                find_bare_waits(body, true, out);
                i = body_at + 1;
                continue;
            }
        }
        if let Some(tok) = t.leaf() {
            if (tok.text == "wait" || tok.text == "wait_timeout")
                && tok.kind == TokKind::Ident
                && i > 0
                && trees[i - 1].is_punct(".")
                && !in_loop
            {
                if let Some(args) = trees
                    .get(i + 1)
                    .and_then(|x| x.group(crate::lexer::Delim::Paren))
                {
                    if !args.is_empty() {
                        out.push(tok.off);
                        i += 2;
                        continue;
                    }
                }
            }
        }
        if let Tree::Group { children, .. } = t {
            find_bare_waits(children, in_loop, out);
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(vs: &[Violation]) -> Vec<&'static str> {
        vs.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn unwrap_rule_matches_both_patterns_with_lines() {
        let src = "pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n\
                   pub fn g(r: Result<u32, ()>) -> u32 { r.expect(\"msg\") }\n";
        let vs = lint_source("crates/runtime/src/pool.rs", src);
        assert_eq!(
            rules_of(&vs),
            vec!["unwrap-in-round-path", "unwrap-in-round-path"]
        );
        assert_eq!(vs[0].line, 1);
        assert_eq!(vs[1].line, 2);
        assert!(lint_source("crates/apps/src/sssp.rs", src).is_empty());
    }

    #[test]
    fn code_after_an_inline_test_module_is_still_linted() {
        // The historical cut-based exemption missed this: everything
        // below the first `#[cfg(test)]` was exempt.
        let src = "pub fn before() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn t() { Some(1).unwrap(); }\n\
                   }\n\
                   pub fn after(v: Option<u32>) -> u32 { v.unwrap() }\n";
        let vs = lint_source("crates/runtime/src/exec.rs", src);
        assert_eq!(rules_of(&vs), vec!["unwrap-in-round-path"], "{vs:?}");
        assert_eq!(vs[0].line, 7, "the unwrap inside mod tests is exempt");
        let above = "pub fn f() { Some(1).unwrap(); }\n\
                     #[cfg(test)]\n\
                     mod tests {}\n";
        assert_eq!(
            rules_of(&lint_source("crates/runtime/src/exec.rs", above)),
            vec!["unwrap-in-round-path"]
        );
    }

    #[test]
    fn cfg_all_test_modules_are_exempt() {
        let gated = "pub fn f() {}\n\
                     #[cfg(all(test, feature = \"faults\"))]\n\
                     mod tests {\n\
                         fn t() { Some(1).unwrap(); }\n\
                     }\n";
        assert!(lint_source("crates/runtime/src/faults.rs", gated).is_empty());
    }

    #[test]
    fn comments_strings_and_adjacent_idents_do_not_trigger() {
        let src = "// call .unwrap() here; Ordering::Relaxed; unsafe; thread::spawn\n\
                   /* block comment: thread::spawn; Ordering::Relaxed */\n\
                   pub fn f() -> &'static str { \".expect(doom) Instant::now\" }\n\
                   pub fn g(v: Option<u32>) -> u32 { v.unwrap_or_else(|| 0) }\n";
        assert!(lint_source("crates/runtime/src/exec.rs", src).is_empty());
        let attr = "#![deny(unsafe_op_in_unsafe_fn)]\nfn f() {}\n";
        assert!(lint_source("src/lib.rs", attr).is_empty());
    }

    #[test]
    fn safety_comment_walks_over_attributes() {
        let attr = "// SAFETY: exclusive.\n#[inline]\nunsafe fn g() {}\n";
        assert!(lint_source("src/a.rs", attr).is_empty());
        let inline = "let v = unsafe { *p }; // SAFETY: p is valid\n";
        assert!(lint_source("src/a.rs", inline).is_empty());
        let bad = "fn h() { let _ = unsafe { 1 }; }\n";
        assert_eq!(
            rules_of(&lint_source("src/a.rs", bad)),
            vec!["unsafe-without-safety"]
        );
    }

    #[test]
    fn bare_condvar_wait_is_flagged_in_every_file() {
        let bare = "fn park(shared: &Shared) {\n\
                        let st = recover(shared.state.lock());\n\
                        let _g = recover(shared.cv.wait(st));\n\
                    }\n";
        assert_eq!(
            rules_of(&lint_source("crates/runtime/src/pool.rs", bare)),
            vec!["bare-condvar-wait"]
        );
        assert_eq!(
            rules_of(&lint_source("crates/apps/src/sssp.rs", bare)),
            vec!["bare-condvar-wait"]
        );
    }

    #[test]
    fn looped_and_argless_waits_are_not_bare() {
        let looped = "fn park(shared: &Shared) {\n\
                          let mut st = recover(shared.state.lock());\n\
                          while !st.ready {\n\
                              st = recover(shared.cv.wait(st));\n\
                          }\n\
                      }\n";
        assert!(lint_source("crates/runtime/src/pool.rs", looped).is_empty());
        // A 0-arg `.wait()` is not a condvar wait (the pipelined barrier's
        // spin-wait method is named `wait`).
        let spin = "fn sync(b: &Barrier) { b.wait(); }\n";
        assert!(lint_source("crates/runtime/src/pipelined.rs", spin).is_empty());
    }

    #[test]
    fn bare_wait_in_a_test_span_is_exempt() {
        let src = "pub fn live() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t(shared: &Shared) {\n\
                           let _g = shared.cv.wait(shared.state.lock().unwrap());\n\
                       }\n\
                   }\n";
        assert!(lint_source("crates/runtime/src/service.rs", src).is_empty());
    }

    #[test]
    fn bare_wait_timeout_is_flagged_too() {
        let src = "fn park(shared: &Shared, d: Duration) {\n\
                       let st = recover(shared.state.lock());\n\
                       let _r = recover(shared.cv.wait_timeout(st, d));\n\
                   }\n";
        assert_eq!(
            rules_of(&lint_source("crates/runtime/src/pipelined.rs", src)),
            vec!["bare-condvar-wait"]
        );
    }

    #[test]
    fn scoped_threads_are_not_spawns() {
        let src = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }";
        assert!(lint_source("crates/runtime/src/exec.rs", src).is_empty());
    }

    #[test]
    fn slot_ptr_is_banned_outside_store_and_task() {
        let src = "fn f(s: &SpecStore<u64>) { let _p = s.slot_ptr(3); }\n";
        assert_eq!(
            rules_of(&lint_source("crates/runtime/src/exec.rs", src)),
            vec!["slot-ptr-outside-store"]
        );
        assert_eq!(
            rules_of(&lint_source("crates/apps/src/sssp.rs", src)),
            vec!["slot-ptr-outside-store"]
        );
        // The access layer itself is allowlisted.
        assert!(lint_source("crates/runtime/src/store.rs", src).is_empty());
        assert!(lint_source("crates/runtime/src/task.rs", src).is_empty());
        // Comments, strings, and similarly named methods don't match.
        let ok = "// s.slot_ptr(3) would be wrong\n\
                  fn g() -> &'static str { \".slot_ptr(\" }\n\
                  fn h(s: &S) { s.slot_ptr_count(); }\n";
        assert!(lint_source("crates/runtime/src/exec.rs", ok).is_empty());
    }

    #[test]
    fn allowlists_hold() {
        let relaxed = "fn f(x: &AtomicUsize) { x.load(Ordering::Relaxed); }";
        assert!(lint_source("crates/runtime/src/lock.rs", relaxed).is_empty());
        assert!(lint_source("crates/obs/src/ring.rs", relaxed).is_empty());
        assert_eq!(
            rules_of(&lint_source("crates/runtime/src/exec.rs", relaxed)),
            vec!["relaxed-ordering"]
        );
        assert_eq!(
            rules_of(&lint_source("crates/obs/src/recorder.rs", relaxed)),
            vec!["relaxed-ordering"],
            "only the SPSC ring itself may use Relaxed in the obs crate"
        );
        let spawn = "fn g() { std::thread::Builder::new(); }";
        assert!(lint_source("crates/runtime/src/pool.rs", spawn).is_empty());
        let instant = "fn h() { let _t = Instant::now(); }";
        assert!(lint_source("crates/runtime/src/stats.rs", instant).is_empty());
        assert_eq!(
            rules_of(&lint_source("crates/runtime/src/task.rs", instant)),
            vec!["instant-in-round-path"]
        );
        // Lifetimes and char literals do not derail the lexer.
        let lifetimes = "fn f<'a>(x: &'a str) -> &'a str { let _c = 'x'; let _e = '\\n'; x }\n\
                         fn g() { let _ = Ordering::Relaxed; }";
        let vs = lint_source("crates/apps/src/foo.rs", lifetimes);
        assert_eq!(rules_of(&vs), vec!["relaxed-ordering"]);
        assert_eq!(vs[0].line, 2);
    }
}
