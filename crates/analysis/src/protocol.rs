//! Atomic-protocol contract: every atomic operation in the
//! memory-ordering-critical modules (`lock.rs`, `pool.rs`, the
//! observability layer's SPSC event ring `ring.rs`, and the SSSP
//! operator's monotone bound in `sssp.rs`) is extracted —
//! file, enclosing symbol, operation, `Ordering` arguments — and
//! diffed against the checked-in `PROTOCOL.toml` at the workspace
//! root.
//!
//! The point is to make ordering changes *loud*. The epoch/owner
//! protocol in `LockSpace` is correct for specific acquire/release
//! pairings (DESIGN.md §5); a drive-by "relax this, it's hot" edit
//! compiles fine and fails only under weak-memory interleavings the
//! test matrix cannot force. With the contract, any drift — a new
//! atomic, a removed one, a weakened ordering — fails `xtask analyze`
//! until PROTOCOL.toml is deliberately re-blessed in the same diff.

use crate::callgraph::{for_each_call, CallKind};
use crate::lexer::line_of;
use crate::report::Violation;
use crate::Workspace;
use std::collections::BTreeMap;

/// Files under contract.
const PROTOCOL_FILES: &[&str] = &[
    "crates/runtime/src/lock.rs",
    "crates/runtime/src/pool.rs",
    "crates/obs/src/ring.rs",
    "crates/apps/src/sssp.rs",
];

/// Atomic operations tracked by the contract.
const ATOMIC_OPS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "fetch_nand",
];

const ORDER_NAMES: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Lattice strength of an ordering (Acquire and Release are one-way
/// fences of equal strength in different directions).
fn strength(o: &str) -> u32 {
    match o {
        "Relaxed" => 1,
        "Acquire" | "Release" => 2,
        "AcqRel" => 3,
        "SeqCst" => 4,
        _ => 0,
    }
}

/// One extracted (or declared) atomic site class.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Entry {
    /// Repo-relative file.
    pub file: String,
    /// Enclosing function symbol (`LockSpace::acquire`).
    pub symbol: String,
    /// The atomic op (`compare_exchange`, `load`, `fence`).
    pub op: String,
    /// Ordering arguments in source order.
    pub order: Vec<String>,
    /// Number of identical sites.
    pub count: usize,
}

/// Key identifying a site class up to ordering/count.
type GroupKey = (String, String, String);

fn group_key(e: &Entry) -> GroupKey {
    (e.file.clone(), e.symbol.clone(), e.op.clone())
}

/// Extract the atomic sites of a workspace's contract files.
/// Returns entries (sorted) and, per group key, a representative line
/// number for reporting.
pub fn extract(ws: &Workspace) -> (Vec<Entry>, BTreeMap<GroupKey, usize>) {
    // (file, symbol, op, orders) -> (count, first line)
    type SiteKey = (String, String, String, Vec<String>);
    let mut sites: BTreeMap<SiteKey, (usize, usize)> = BTreeMap::new();
    for file in &ws.files {
        if !PROTOCOL_FILES
            .iter()
            .any(|p| file.rel.ends_with(p) || file.rel == *p)
        {
            continue;
        }
        for d in &file.ast.fns {
            if d.is_test {
                continue;
            }
            let Some(body) = &d.body else { continue };
            for_each_call(body, &mut |c| {
                let is_atomic = match c.kind {
                    CallKind::Method => ATOMIC_OPS.contains(&c.name.as_str()),
                    CallKind::Plain => c.name == "fence",
                    CallKind::Macro => false,
                };
                if !is_atomic {
                    return;
                }
                let mut orders = Vec::new();
                for arg in &c.args {
                    for id in crate::ast::flat_idents(arg) {
                        if ORDER_NAMES.contains(&id.as_str()) {
                            orders.push(id);
                        }
                    }
                }
                if orders.is_empty() {
                    // Not an atomic access after all (e.g. `Vec::swap`,
                    // `io::Write::write`): atomics always name an
                    // Ordering at the call site in this codebase.
                    return;
                }
                let line = line_of(&file.line_starts, c.off);
                let key = (file.rel.clone(), d.symbol(), c.name.clone(), orders);
                let slot = sites.entry(key).or_insert((0, line));
                slot.0 += 1;
            });
        }
    }
    let mut entries = Vec::new();
    let mut lines = BTreeMap::new();
    for ((file, symbol, op, order), (count, line)) in sites {
        lines
            .entry((file.clone(), symbol.clone(), op.clone()))
            .or_insert(line);
        entries.push(Entry {
            file,
            symbol,
            op,
            order,
            count,
        });
    }
    (entries, lines)
}

/// Serialize entries as PROTOCOL.toml text.
pub fn to_toml(entries: &[Entry]) -> String {
    let mut s = String::from(
        "# Atomic-protocol contract: every atomic op in lock.rs / pool.rs.\n\
         # Regenerate with `cargo run -p xtask -- analyze --write-protocol`\n\
         # ONLY after re-arguing the ordering change in the PR description.\n",
    );
    for e in entries {
        s.push_str(&format!(
            "\n[[atomic]]\nfile = \"{}\"\nsymbol = \"{}\"\nop = \"{}\"\norder = [{}]\ncount = {}\n",
            e.file,
            e.symbol,
            e.op,
            e.order
                .iter()
                .map(|o| format!("\"{o}\""))
                .collect::<Vec<_>>()
                .join(", "),
            e.count
        ));
    }
    s
}

/// Parse the TOML subset written by [`to_toml`]. Unknown keys are
/// ignored; malformed entries are skipped (they then surface as
/// missing/undeclared drift rather than a parse abort).
pub fn parse_toml(text: &str) -> Vec<Entry> {
    let mut out = Vec::new();
    let mut cur: Option<Entry> = None;
    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[atomic]]" {
            if let Some(e) = cur.take() {
                out.push(e);
            }
            cur = Some(Entry {
                file: String::new(),
                symbol: String::new(),
                op: String::new(),
                order: Vec::new(),
                count: 1,
            });
            continue;
        }
        let Some(e) = cur.as_mut() else { continue };
        let Some((k, v)) = line.split_once('=') else {
            continue;
        };
        let (k, v) = (k.trim(), v.trim());
        let unquote = |s: &str| s.trim_matches('"').to_string();
        match k {
            "file" => e.file = unquote(v),
            "symbol" => e.symbol = unquote(v),
            "op" => e.op = unquote(v),
            "count" => e.count = v.parse().unwrap_or(1),
            "order" => {
                e.order = v
                    .trim_start_matches('[')
                    .trim_end_matches(']')
                    .split(',')
                    .map(|s| unquote(s.trim()))
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            _ => {}
        }
    }
    if let Some(e) = cur.take() {
        out.push(e);
    }
    out.retain(|e| !e.file.is_empty() && !e.op.is_empty());
    out.sort();
    out
}

/// Diff extracted sites against the declared contract.
pub fn diff(
    extracted: &[Entry],
    lines: &BTreeMap<GroupKey, usize>,
    declared: &[Entry],
) -> Vec<Violation> {
    let mut out = Vec::new();
    // Group both sides by (file, symbol, op).
    let mut groups: BTreeMap<GroupKey, (Vec<&Entry>, Vec<&Entry>)> = BTreeMap::new();
    for e in extracted {
        groups.entry(group_key(e)).or_default().0.push(e);
    }
    for e in declared {
        groups.entry(group_key(e)).or_default().1.push(e);
    }
    for ((file, symbol, op), (code, decl)) in &groups {
        let line = lines
            .get(&(file.clone(), symbol.clone(), op.clone()))
            .copied()
            .unwrap_or(0);
        let site = format!("{symbol} `{op}`");
        let mut push = |detail: String| {
            out.push(Violation {
                file: file.clone(),
                line,
                rule: "atomic-protocol",
                detail,
            })
        };
        if decl.is_empty() {
            push(format!(
                "undeclared atomic: {site} {} is not in PROTOCOL.toml; add it (with the \
                 ordering argument justified) via --write-protocol",
                fmt_orders(code)
            ));
            continue;
        }
        if code.is_empty() {
            push(format!(
                "missing atomic: PROTOCOL.toml declares {site} {} but the code no longer \
                 has it; re-bless the contract if the removal is deliberate",
                fmt_orders(decl)
            ));
            continue;
        }
        // Same op present on both sides: compare ordering multisets.
        let mut cs: Vec<(&Vec<String>, usize)> = code.iter().map(|e| (&e.order, e.count)).collect();
        let mut ds: Vec<(&Vec<String>, usize)> = decl.iter().map(|e| (&e.order, e.count)).collect();
        cs.sort();
        ds.sort();
        if cs == ds {
            continue;
        }
        // Weakened? any code ordering list strictly weaker than a
        // declared one at some position.
        let weakened = decl.iter().any(|d| {
            code.iter().any(|c| {
                c.order.len() == d.order.len()
                    && c.order
                        .iter()
                        .zip(&d.order)
                        .any(|(co, do_)| strength(co) < strength(do_))
                    && c.order
                        .iter()
                        .zip(&d.order)
                        .all(|(co, do_)| strength(co) <= strength(do_))
            })
        });
        if weakened {
            push(format!(
                "weakened ordering: {site} is {} in code but PROTOCOL.toml requires {}; \
                 restore the ordering or re-argue and re-bless the contract",
                fmt_orders(code),
                fmt_orders(decl)
            ));
        } else {
            push(format!(
                "ordering drift: {site} is {} in code but PROTOCOL.toml declares {}; \
                 re-bless via --write-protocol if deliberate",
                fmt_orders(code),
                fmt_orders(decl)
            ));
        }
    }
    out
}

fn fmt_orders(es: &[&Entry]) -> String {
    es.iter()
        .map(|e| format!("[{}]x{}", e.order.join(","), e.count))
        .collect::<Vec<_>>()
        .join(" + ")
}

/// Full check: extract, load PROTOCOL.toml (from the workspace), diff.
pub fn analyze(ws: &Workspace) -> Vec<Violation> {
    let (entries, lines) = extract(ws);
    match &ws.protocol {
        Some(text) => diff(&entries, &lines, &parse_toml(text)),
        None if entries.is_empty() => Vec::new(),
        None => vec![Violation {
            file: "PROTOCOL.toml".to_string(),
            line: 0,
            rule: "atomic-protocol",
            detail: format!(
                "PROTOCOL.toml is missing but {} atomic site class(es) exist in \
                 lock.rs/pool.rs; generate it with --write-protocol",
                entries.len()
            ),
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws_with(src: &str, protocol: Option<&str>) -> Workspace {
        let mut ws = Workspace::from_sources(vec![(
            "crates/runtime/src/lock.rs".to_string(),
            src.to_string(),
        )]);
        ws.protocol = protocol.map(str::to_string);
        ws
    }

    const LOCK_SRC: &str = "impl LockSpace {\n\
        pub fn epoch(&self) -> u64 { self.epoch.load(Ordering::Acquire) }\n\
        pub fn acquire(&self, i: usize) -> bool {\n\
        self.owners[i].compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire).is_ok()\n\
        }\n\
        }";

    #[test]
    fn roundtrip_is_clean() {
        let ws = ws_with(LOCK_SRC, None);
        let (entries, _) = extract(&ws);
        assert_eq!(entries.len(), 2, "{entries:?}");
        let toml = to_toml(&entries);
        let parsed = parse_toml(&toml);
        assert_eq!(entries, parsed);
        let ws2 = ws_with(LOCK_SRC, Some(&toml));
        assert_eq!(analyze(&ws2), Vec::new());
    }

    #[test]
    fn deleting_an_entry_fails_with_the_site_named() {
        let ws = ws_with(LOCK_SRC, None);
        let (entries, _) = extract(&ws);
        let toml = to_toml(&entries[..1]); // drop compare_exchange... entries sorted
        let ws2 = ws_with(LOCK_SRC, Some(&toml));
        let vs = analyze(&ws2);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(
            vs[0].detail.contains("undeclared atomic"),
            "{}",
            vs[0].detail
        );
    }

    #[test]
    fn weakening_an_ordering_fails_as_weakened() {
        let ws = ws_with(LOCK_SRC, None);
        let (entries, _) = extract(&ws);
        let toml = to_toml(&entries);
        let weak = LOCK_SRC.replace("Ordering::AcqRel", "Ordering::Relaxed");
        let ws2 = ws_with(&weak, Some(&toml));
        let vs = analyze(&ws2);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(
            vs[0].detail.contains("weakened ordering"),
            "{}",
            vs[0].detail
        );
        assert!(
            vs[0].detail.contains("LockSpace::acquire"),
            "{}",
            vs[0].detail
        );
    }

    #[test]
    fn strengthening_is_drift_not_weakening() {
        let ws = ws_with(LOCK_SRC, None);
        let (entries, _) = extract(&ws);
        let toml = to_toml(&entries);
        let strong = LOCK_SRC.replace("load(Ordering::Acquire)", "load(Ordering::SeqCst)");
        let ws2 = ws_with(&strong, Some(&toml));
        let vs = analyze(&ws2);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].detail.contains("ordering drift"), "{}", vs[0].detail);
    }

    #[test]
    fn missing_protocol_with_atomics_is_a_violation() {
        let ws = ws_with(LOCK_SRC, None);
        let vs = analyze(&ws);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].detail.contains("missing"), "{}", vs[0].detail);
    }

    #[test]
    fn removed_code_site_is_missing_atomic() {
        let ws = ws_with(LOCK_SRC, None);
        let (entries, _) = extract(&ws);
        let toml = to_toml(&entries);
        let gone =
            "impl LockSpace { pub fn epoch(&self) -> u64 { self.epoch.load(Ordering::Acquire) } }";
        let ws2 = ws_with(gone, Some(&toml));
        let vs = analyze(&ws2);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].detail.contains("missing atomic"), "{}", vs[0].detail);
        assert!(
            vs[0].detail.contains("LockSpace::acquire"),
            "{}",
            vs[0].detail
        );
    }

    #[test]
    fn test_code_atomics_are_not_under_contract() {
        let src =
            "#[cfg(test)] mod tests { fn t(a: &AtomicU64) { a.store(1, Ordering::Relaxed); } }";
        let ws = ws_with(src, None);
        assert_eq!(analyze(&ws), Vec::new());
    }
}
