//! optpar-analysis: the speculation-footprint static analyzer.
//!
//! A dependency-free Rust front end (lexer → token trees → AST-lite →
//! call graph), the lexical [`lint`] rules on its tokens (with
//! span-based test exemption), and three analyses tuned to this
//! workspace's speculation contract:
//!
//! * **footprint-escape** ([`footprint`]) — operators must mutate
//!   shared state only through their `TaskCtx`, checked
//!   interprocedurally across apps-crate helpers, and apps code must
//!   take locks only through a `TaskCtx` parameter (`footprint-ctx`);
//! * **panic-reachability** ([`panicpath`]) — no panic source
//!   reachable from the round-critical runtime functions outside the
//!   `catch_unwind` containment boundary;
//! * **atomic-protocol** ([`protocol`]) — the atomics of
//!   `lock.rs`/`pool.rs` must match the checked-in `PROTOCOL.toml`.
//!
//! Everything is best-effort syntactic analysis: no type information,
//! no macro expansion. The analyses are tuned to this codebase's
//! idioms; DESIGN.md §12 spells out exactly what is and is not sound.
//!
//! Run via `cargo run -p xtask -- analyze`.

pub mod ast;
pub mod callgraph;
pub mod footprint;
pub mod lexer;
pub mod lint;
pub mod panicpath;
pub mod protocol;
pub mod report;
pub mod tree;

pub use lint::lint_source;
pub use report::{sort_violations, Violation};

use std::path::{Path, PathBuf};

/// One loaded source file with its derived structures.
pub struct SourceFile {
    /// Repo-relative path, forward slashes.
    pub rel: String,
    /// Raw source text.
    pub src: String,
    /// Parsed items.
    pub ast: ast::FileAst,
    /// Byte offsets of line starts (for line numbering).
    pub line_starts: Vec<usize>,
}

/// A loaded workspace (or fixture tree).
pub struct Workspace {
    /// Every `.rs` file, sorted by path.
    pub files: Vec<SourceFile>,
    /// `PROTOCOL.toml` text at the root, if present.
    pub protocol: Option<String>,
}

impl Workspace {
    /// Build a workspace from in-memory sources (tests, fixtures).
    pub fn from_sources(mut sources: Vec<(String, String)>) -> Workspace {
        sources.sort();
        let files = sources
            .into_iter()
            .map(|(rel, src)| {
                let trees = tree::parse(&src);
                SourceFile {
                    ast: ast::parse_items(&trees),
                    line_starts: lexer::line_starts(&src),
                    rel,
                    src,
                }
            })
            .collect();
        Workspace {
            files,
            protocol: None,
        }
    }

    /// Load every `.rs` file under `root` (skipping `target/`,
    /// `vendor/`, `fixtures/`, and hidden directories) plus the root
    /// `PROTOCOL.toml`.
    pub fn load(root: &Path) -> Workspace {
        let mut sources = Vec::new();
        for path in collect_rs_files(root) {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let Ok(src) = std::fs::read_to_string(&path) else {
                continue;
            };
            sources.push((rel, src));
        }
        let mut ws = Workspace::from_sources(sources);
        ws.protocol = std::fs::read_to_string(root.join("PROTOCOL.toml")).ok();
        ws
    }
}

/// Directories never descended into.
fn skip_dir(name: &str) -> bool {
    name == "target" || name == "vendor" || name == "fixtures" || name.starts_with('.')
}

/// Collect every `.rs` file under `root`.
fn collect_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut stack = vec![root.to_path_buf()];
    let mut files = Vec::new();
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !skip_dir(&name) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// Run every analysis over a loaded workspace; findings sorted.
pub fn analyze_workspace(ws: &Workspace) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in &ws.files {
        out.extend(lint::lint_source(&f.rel, &f.src));
    }
    out.extend(footprint::analyze(ws));
    out.extend(panicpath::analyze(ws));
    out.extend(protocol::analyze(ws));
    sort_violations(&mut out);
    out
}

/// Load the tree rooted at `root` and run every analysis.
pub fn analyze_tree(root: &Path) -> Vec<Violation> {
    analyze_workspace(&Workspace::load(root))
}

/// The blessed PROTOCOL.toml text for a workspace's current code.
pub fn protocol_toml(ws: &Workspace) -> String {
    let (entries, _) = protocol::extract(ws);
    protocol::to_toml(&entries)
}

/// Locate the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(s) = std::fs::read_to_string(&manifest) {
            if s.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(name: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join(name)
    }

    /// Each seeded fixture trips exactly its intended rule.
    #[test]
    fn footprint_fixture_trips_exactly_the_footprint_rule() {
        let vs = analyze_tree(&fixture("footprint_escape"));
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, "footprint-escape");
        assert!(vs[0].detail.contains("bump_unlocked"), "{}", vs[0].detail);
    }

    #[test]
    fn panic_fixture_trips_exactly_the_panic_rule() {
        let vs = analyze_tree(&fixture("panic_path"));
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, "panic-reachable");
        assert!(
            vs[0].detail.contains("->"),
            "call path printed: {}",
            vs[0].detail
        );
    }

    #[test]
    fn weak_ordering_fixture_trips_exactly_the_protocol_rule() {
        let vs = analyze_tree(&fixture("weak_ordering"));
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, "atomic-protocol");
        assert!(vs[0].detail.contains("weakened"), "{}", vs[0].detail);
    }

    #[test]
    fn lock_outside_ctx_fixture_trips_exactly_the_ctx_rule() {
        let vs = analyze_tree(&fixture("lock_outside_ctx"));
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, "footprint-ctx");
        assert!(vs[0].detail.contains("lock_raw"), "{}", vs[0].detail);
    }

    #[test]
    fn wait_outside_loop_fixture_trips_exactly_the_bare_wait_rule() {
        let vs = analyze_tree(&fixture("wait_outside_loop"));
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, "bare-condvar-wait");
    }

    /// The workspace itself is clean under the full analysis — the
    /// self-test that keeps HEAD at zero findings.
    #[test]
    fn workspace_is_clean_under_deep_analysis() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root findable");
        let vs = analyze_tree(&root);
        assert!(
            vs.is_empty(),
            "workspace analysis findings:\n{}",
            vs.iter().map(|v| format!("  {v}\n")).collect::<String>()
        );
    }
}
