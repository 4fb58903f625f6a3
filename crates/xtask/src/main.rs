//! `cargo run -p xtask -- lint [files...]` — the lexical rules.
//! `cargo run -p xtask -- analyze [--write-protocol|--write-footprints]`
//! — lexical rules plus the deep static analyses (footprint-escape,
//! panic-reachability, atomic-protocol contract, conflict-radius
//! footprint contract).
//! `cargo run -p xtask -- report <trace-file>` — summarize an
//! observability artifact (Chrome trace JSON, metrics JSONL, or the
//! canonical event JSONL) recorded under `--features obs`.
//!
//! `lint` with no file arguments lints every `.rs` file in the
//! workspace (excluding `target/`, `vendor/`, and `fixtures/`); with
//! arguments it lints exactly those files, resolving allowlists
//! against their workspace-relative paths. `analyze` always runs over
//! the whole workspace; `--write-protocol` / `--write-footprints`
//! re-bless the matching contract file from the current code instead
//! of diffing against it. Both exit nonzero if any violation is found.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("analyze") => analyze(&args[1..]),
        Some("report") => trace_report(&args[1..]),
        _ => {
            eprintln!(
                "usage: cargo run -p xtask -- lint [files...] \
                 | analyze [--write-protocol|--write-footprints] \
                 | report <trace-file>"
            );
            ExitCode::from(2)
        }
    }
}

fn workspace_root() -> Option<std::path::PathBuf> {
    let cwd = std::env::current_dir().ok()?;
    match xtask::find_workspace_root(&cwd) {
        Some(root) => Some(root),
        None => {
            eprintln!("xtask: no workspace root found above {}", cwd.display());
            None
        }
    }
}

fn report(kind: &str, violations: &[xtask::Violation]) -> ExitCode {
    if violations.is_empty() {
        println!("xtask {kind}: clean");
        ExitCode::SUCCESS
    } else {
        for v in violations {
            println!("{v}");
        }
        println!("xtask {kind}: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

fn lint(files: &[String]) -> ExitCode {
    let Some(root) = workspace_root() else {
        return ExitCode::from(2);
    };
    let cwd = std::env::current_dir().expect("current dir");

    let violations = if files.is_empty() {
        xtask::lint_workspace(&root)
    } else {
        let mut out = Vec::new();
        for f in files {
            let path = cwd.join(f);
            let rel = path
                .strip_prefix(&root)
                .unwrap_or(Path::new(f))
                .to_string_lossy()
                .replace('\\', "/");
            match std::fs::read_to_string(&path) {
                Ok(src) => out.extend(xtask::lint_file(&rel, &src)),
                Err(e) => {
                    eprintln!("xtask: cannot read {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
        }
        out
    };
    report("lint", &violations)
}

fn analyze(args: &[String]) -> ExitCode {
    let Some(root) = workspace_root() else {
        return ExitCode::from(2);
    };
    if args.iter().any(|a| a == "--write-protocol") {
        let ws = optpar_analysis::Workspace::load(&root);
        let toml = optpar_analysis::protocol_toml(&ws);
        let path = root.join("PROTOCOL.toml");
        if let Err(e) = std::fs::write(&path, &toml) {
            eprintln!("xtask: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "xtask analyze: blessed {} ({} atomic entries)",
            path.display(),
            toml.matches("[[atomic]]").count()
        );
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--write-footprints") {
        let ws = optpar_analysis::Workspace::load(&root);
        let toml = optpar_analysis::footprint_toml(&ws);
        let path = root.join("FOOTPRINT.toml");
        if let Err(e) = std::fs::write(&path, &toml) {
            eprintln!("xtask: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "xtask analyze: blessed {} ({} operator contracts)",
            path.display(),
            toml.matches("[[operator]]").count()
        );
        return ExitCode::SUCCESS;
    }
    let violations = optpar_analysis::analyze_tree(&root);
    report("analyze", &violations)
}

fn trace_report(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("usage: cargo run -p xtask -- report <trace-file>");
        return ExitCode::from(2);
    };
    let content = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("xtask: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    match optpar_obs::report::summarize(&content) {
        Ok(summary) => {
            print!("{summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xtask report: {e}");
            ExitCode::FAILURE
        }
    }
}
