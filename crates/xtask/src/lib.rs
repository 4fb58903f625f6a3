//! The workspace's atomic-protocol contract, the one static check
//! that neither a test nor clippy can state.
//!
//! A dependency-free Rust front end (lexer → token trees → the
//! function items of a file) feeds one pass, `protocol`: the atomics
//! of `lock.rs` and `sssp.rs` must match
//! the checked-in `PROTOCOL.toml`, and no other file may name
//! `Relaxed`. The rules that match resolved paths (thread spawns,
//! clock reads, raw slot access, Condvar waits, undocumented `unsafe`,
//! panics in the runtime) are clippy's. DESIGN.md §12 has the split.
//!
//! Run via `cargo run -p xtask -- analyze`.

mod ast;
mod lexer;
mod protocol;
mod tree;

use std::fmt;
use std::path::{Path, PathBuf};

/// One static-analysis finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-indexed line of the offending token.
    pub line: usize,
    /// Which rule fired.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.detail
        )
    }
}

/// One loaded source file.
struct SourceFile {
    /// Repo-relative path, forward slashes.
    rel: String,
    /// Raw source text.
    src: String,
}

/// A loaded workspace (or fixture tree).
struct Workspace {
    /// Every `.rs` file, sorted by path.
    files: Vec<SourceFile>,
    /// `PROTOCOL.toml` text at the root, if present.
    protocol: Option<String>,
}

impl Workspace {
    /// Build a workspace from in-memory sources (tests, fixtures).
    fn from_sources(mut sources: Vec<(String, String)>) -> Workspace {
        sources.sort();
        let files = sources
            .into_iter()
            .map(|(rel, src)| SourceFile { rel, src })
            .collect();
        Workspace {
            files,
            protocol: None,
        }
    }

    /// Load every `.rs` file under `root` (skipping `target/`,
    /// `vendor/`, `fixtures/`, and hidden directories) plus the root
    /// `PROTOCOL.toml`.
    fn load(root: &Path) -> Workspace {
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

/// Load the tree rooted at `root` and check it against its
/// `PROTOCOL.toml`; findings sorted by file, line and rule.
pub fn analyze_tree(root: &Path) -> Vec<Violation> {
    let mut out = protocol::analyze(&Workspace::load(root));
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

/// The blessed `PROTOCOL.toml` text for the current code of the tree
/// rooted at `root`.
pub fn protocol_toml(root: &Path) -> String {
    let (entries, _) = protocol::extract(&Workspace::load(root));
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

    /// The seeded fixture trips exactly the contract.
    #[test]
    fn weak_ordering_fixture_trips_exactly_the_protocol_rule() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/weak_ordering");
        let vs = analyze_tree(&root);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, "atomic-protocol");
        assert!(vs[0].detail.contains("weakened"), "{}", vs[0].detail);
    }

    /// The workspace itself is clean — the self-test that keeps HEAD
    /// at zero findings.
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
