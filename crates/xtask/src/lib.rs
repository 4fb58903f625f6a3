//! Workspace concurrency-audit lint.
//!
//! The speculative runtime's correctness hangs on a handful of
//! repo-wide disciplines that the compiler cannot enforce:
//!
//! 1. **Memory orderings** — `Ordering::Relaxed` is only permitted in
//!    the files whose protocols have been argued through explicitly
//!    (`lock.rs`, `pool.rs`, the obs ring, and `sssp.rs`' monotone
//!    bound, which orders nothing); everywhere else the stronger
//!    default orderings must be used so the lock-word happens-before
//!    edges are never accidentally weakened.
//! 2. **`unsafe` annotations** — every `unsafe` token must be preceded
//!    by a `// SAFETY:` comment stating the invariant it relies on.
//! 3. **Thread creation** — all OS threads come from the persistent
//!    [`WorkerPool`](../optpar_runtime/pool) (`pool.rs`); stray
//!    `thread::spawn`/`thread::Builder` calls bypass its parking,
//!    panic-propagation, and shutdown protocols. (Scoped helper
//!    threads in `#[cfg(test)]` code use `thread::scope`, which the
//!    rule deliberately does not match.)
//! 4. **Timing discipline** — `Instant::now` is banned from the
//!    round-critical files (`lock.rs`, `task.rs`, `store.rs`,
//!    `exec.rs`): a syscall on the acquire path skews exactly the
//!    conflict-ratio measurements the controller feeds on.
//! 5. **Panic discipline** — `.unwrap()` / `.expect(` are banned from
//!    the round-critical runtime modules (non-test code): fault
//!    containment promises that a worker survives any task failure,
//!    which only holds if runtime-internal errors are recovered
//!    (`faults::recover`) or surfaced as structured aborts rather
//!    than allowed to panic past the containment boundary. Code
//!    inside inline `#[cfg(test)]` module *spans* is exempt.
//!
//! The rule implementations live in the `optpar-analysis` front end
//! (one stripping/tokenizing pass shared with the deep analyses —
//! see `crates/analysis`); this crate is the thin task-runner shell.
//! The deep analyses (footprint-escape, panic-reachability,
//! atomic-protocol) run via `cargo run -p xtask -- analyze`.
//!
//! Run the lexical rules alone with `cargo run -p xtask -- lint`.

use std::path::Path;

pub use optpar_analysis::{find_workspace_root, Violation};

/// Lint one file's source against the five lexical rules. `rel` is its
/// repo-relative path (forward slashes), which decides allowlist
/// membership.
pub fn lint_file(rel: &str, src: &str) -> Vec<Violation> {
    optpar_analysis::lint_source(rel, src)
}

/// Lint the whole workspace rooted at `root` — every file the
/// analyzer's one walker loads. Returns all violations, sorted by
/// file and line.
pub fn lint_workspace(root: &Path) -> Vec<Violation> {
    let mut out: Vec<Violation> = optpar_analysis::Workspace::load(root)
        .files
        .iter()
        .flat_map(|f| lint_file(&f.rel, &f.src))
        .collect();
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = include_str!("../fixtures/bad.rs");

    fn rules_of(vs: &[Violation]) -> Vec<&'static str> {
        vs.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn fixture_trips_every_applicable_rule() {
        let vs = lint_file("crates/xtask/fixtures/bad.rs", FIXTURE);
        let rules = rules_of(&vs);
        assert!(rules.contains(&"relaxed-ordering"), "{vs:?}");
        assert!(rules.contains(&"unsafe-without-safety"), "{vs:?}");
        assert!(rules.contains(&"stray-thread-spawn"), "{vs:?}");
    }

    #[test]
    fn fixture_under_round_critical_path_trips_instant_rule() {
        let vs = lint_file("crates/runtime/src/exec.rs", FIXTURE);
        assert!(rules_of(&vs).contains(&"instant-in-round-path"), "{vs:?}");
        assert!(rules_of(&vs).contains(&"unwrap-in-round-path"), "{vs:?}");
    }

    /// The job service is on both round-critical banlists: a patch
    /// that sneaks a raw `Instant::now` or a panicking
    /// `.unwrap()`/`.expect(` into `service.rs` must trip the lint.
    #[test]
    fn service_fixture_trips_the_service_banlist_rules() {
        const SERVICE_FIXTURE: &str = include_str!("../fixtures/bad_service.rs");
        let vs = lint_file("crates/runtime/src/service.rs", SERVICE_FIXTURE);
        let rules = rules_of(&vs);
        assert_eq!(
            rules
                .iter()
                .filter(|r| **r == "instant-in-round-path")
                .count(),
            1,
            "{vs:?}"
        );
        assert_eq!(
            rules
                .iter()
                .filter(|r| **r == "unwrap-in-round-path")
                .count(),
            2,
            "one .unwrap() and one .expect(: {vs:?}"
        );
        // The same source under a non-banlisted path only reports
        // rules that apply everywhere (none here).
        assert!(
            lint_file("crates/bench/src/bin/repro/tab_rt.rs", SERVICE_FIXTURE).is_empty(),
            "the repro driver is not on the round-critical banlists"
        );
    }

    /// Raw slab access must be flagged anywhere outside the store and
    /// the TaskCtx layer — app, bench, and test code included: on a
    /// sharded store a slab index is physical, so logical indexing
    /// through `slot_ptr` is silently wrong even when it compiles.
    #[test]
    fn slot_ptr_fixture_trips_everywhere_but_the_access_layer() {
        const SLOT_FIXTURE: &str = include_str!("../fixtures/bad_slot_ptr.rs");
        for rel in [
            "crates/apps/src/sssp.rs",
            "crates/bench/src/bin/repro/tab_rt.rs",
            "crates/runtime/src/exec.rs",
        ] {
            let vs = lint_file(rel, SLOT_FIXTURE);
            assert_eq!(
                rules_of(&vs)
                    .iter()
                    .filter(|r| **r == "slot-ptr-outside-store")
                    .count(),
                1,
                "{rel}: {vs:?}"
            );
        }
        assert!(lint_file("crates/runtime/src/store.rs", SLOT_FIXTURE).is_empty());
        assert!(lint_file("crates/runtime/src/task.rs", SLOT_FIXTURE).is_empty());
    }

    #[test]
    fn unwrap_is_banned_only_in_round_critical_modules() {
        let src = "pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n\
                   pub fn g(r: Result<u32, ()>) -> u32 { r.expect(\"msg\") }\n";
        let vs = lint_file("crates/runtime/src/pool.rs", src);
        assert_eq!(
            rules_of(&vs),
            vec!["unwrap-in-round-path", "unwrap-in-round-path"],
            "{vs:?}"
        );
        assert_eq!(vs[0].line, 1);
        assert_eq!(vs[1].line, 2);
        // The same source is fine outside the banlist.
        assert!(lint_file("crates/apps/src/sssp.rs", src).is_empty());
    }

    #[test]
    fn test_modules_are_exempt_from_the_unwrap_rule() {
        let src = "pub fn f() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn t() { Some(1).unwrap(); }\n\
                   }\n";
        assert!(lint_file("crates/runtime/src/exec.rs", src).is_empty());
        let gated = "pub fn f() {}\n\
                     #[cfg(all(test, feature = \"faults\"))]\n\
                     mod tests {\n\
                         fn t() { Some(1).unwrap(); }\n\
                     }\n";
        assert!(lint_file("crates/runtime/src/faults.rs", gated).is_empty());
        // ...but code ABOVE the test module is still linted.
        let above = "pub fn f() { Some(1).unwrap(); }\n\
                     #[cfg(test)]\n\
                     mod tests {}\n";
        assert_eq!(
            rules_of(&lint_file("crates/runtime/src/exec.rs", above)),
            vec!["unwrap-in-round-path"]
        );
    }

    /// Regression test for the cut-based exemption bug: the historical
    /// `test_module_cut` exempted *everything below* the first
    /// `#[cfg(test)]` attribute. The exemption is span-based now, so
    /// live code after an inline test module is still linted.
    #[test]
    fn code_below_an_inline_test_module_is_still_linted() {
        let src = "pub fn before() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn t() { Some(1).unwrap(); }\n\
                   }\n\
                   pub fn after(v: Option<u32>) -> u32 { v.unwrap() }\n";
        let vs = lint_file("crates/runtime/src/exec.rs", src);
        assert_eq!(rules_of(&vs), vec!["unwrap-in-round-path"], "{vs:?}");
        assert_eq!(vs[0].line, 7, "only the live unwrap below the module");
    }

    #[test]
    fn unwrap_in_comments_and_strings_does_not_trigger() {
        let src = "// call .unwrap() here would be wrong\n\
                   pub fn f() -> &'static str { \".expect(doom)\" }\n";
        assert!(lint_file("crates/runtime/src/lock.rs", src).is_empty());
        // `unwrap_or_else` and friends are not `.unwrap()`.
        let ok = "pub fn g(v: Option<u32>) -> u32 { v.unwrap_or_else(|| 0) }\n";
        assert!(lint_file("crates/runtime/src/lock.rs", ok).is_empty());
    }

    #[test]
    fn allowlisted_files_may_relax_and_spawn() {
        let src = "fn f(x: &std::sync::atomic::AtomicUsize) { \
                   x.load(Ordering::Relaxed); }";
        assert!(lint_file("crates/runtime/src/lock.rs", src).is_empty());
        let spawn = "fn g() { std::thread::Builder::new(); }";
        assert!(lint_file("crates/runtime/src/pool.rs", spawn).is_empty());
    }

    #[test]
    fn comments_and_strings_do_not_trigger() {
        let src = r#"
// Ordering::Relaxed in a comment is fine; so is unsafe.
/* block comment: thread::spawn */
fn f() -> &'static str {
    "Ordering::Relaxed unsafe thread::spawn Instant::now"
}
"#;
        assert!(lint_file("crates/runtime/src/exec.rs", src).is_empty());
    }

    #[test]
    fn unsafe_keyword_matches_word_bounded_only() {
        let src = "#![deny(unsafe_op_in_unsafe_fn)]\nfn f() {}\n";
        assert!(lint_file("src/lib.rs", src).is_empty());
    }

    #[test]
    fn safety_comment_covers_unsafe() {
        let good = "// SAFETY: the pointer is valid for the call.\nunsafe fn f() {}\n";
        assert!(lint_file("src/a.rs", good).is_empty());
        // Through attributes and blank lines too.
        let attr = "// SAFETY: exclusive.\n#[inline]\nunsafe fn g() {}\n";
        assert!(lint_file("src/a.rs", attr).is_empty());
        // Same-line trailing comment.
        let inline = "let v = unsafe { *p }; // SAFETY: p is valid\n";
        assert!(lint_file("src/a.rs", inline).is_empty());
        let bad = "fn h() { let _ = unsafe { 1 }; }\n";
        assert_eq!(
            rules_of(&lint_file("src/a.rs", bad)),
            vec!["unsafe-without-safety"]
        );
    }

    #[test]
    fn scoped_threads_are_not_spawns() {
        let src = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }";
        assert!(lint_file("crates/runtime/src/exec.rs", src).is_empty());
    }

    #[test]
    fn lifetimes_do_not_derail_the_lexer() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { let _c = 'x'; let _e = '\\n'; x }\n\
                   fn g() { let _ = Ordering::Relaxed; }";
        let vs = lint_file("crates/apps/src/foo.rs", src);
        assert_eq!(rules_of(&vs), vec!["relaxed-ordering"]);
        assert_eq!(vs[0].line, 2);
    }

    #[test]
    fn workspace_is_clean() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root findable");
        let vs = lint_workspace(&root);
        assert!(
            vs.is_empty(),
            "workspace lint violations:\n{}",
            vs.iter().map(|v| format!("  {v}\n")).collect::<String>()
        );
    }
}
