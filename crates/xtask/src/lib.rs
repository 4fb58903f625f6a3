//! Workspace concurrency-audit lint.
//!
//! The speculative runtime's correctness hangs on a handful of
//! repo-wide disciplines the compiler cannot enforce — memory
//! orderings, `unsafe` annotations, where threads come from, no raw
//! clocks or panics on the round path. The rules, their ids and the
//! files each one covers are in `optpar_analysis::lint`; this crate is
//! the thin task-runner shell over them.
//!
//! Run the lexical rules alone with `cargo run -p xtask -- lint`, and
//! with the deep analyses (footprint-escape, panic-reachability,
//! atomic-protocol, conflict-radius) via `cargo run -p xtask -- analyze`.

use std::path::Path;

pub use optpar_analysis::{find_workspace_root, Violation};

/// Lint one file's source against the lexical rules. `rel` is its
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
}
