//! Bridge from static conflict-radius contracts to the Cor. 3 smart
//! start.
//!
//! The analyzer (`optpar-analysis`) infers each operator's conflict
//! radius d̂ and blesses it into the repo-root `FOOTPRINT.toml`. This
//! module is the *consumer* side: it parses the manifest (a tiny
//! line-oriented reader — core stays dependency-free and must not pull
//! in the analyzer), converts a radius into a conflict-graph degree
//! estimate, and feeds [`smart_initial_m`]
//! via [`smart_m_from_contract`].
//!
//! The degree conversion: two tasks conflict iff their footprints
//! overlap. With footprints that are radius-`r` balls around seed
//! elements in a data graph of average degree `δ`, overlap happens iff
//! the seeds are within `2r` hops, so a task's conflict-graph degree is
//! the size of the `2r`-ball minus itself. On a `δ`-regular tree the
//! ball has `B(k) = 1 + δ·Σ_{i=0..k-1}(δ−1)^i` nodes — an upper bound
//! for graphs of average degree `δ` with few short cycles, and the
//! natural pessimistic estimate here (overestimating degree only makes
//! the smart start more conservative, i.e. smaller m₀).

use crate::control::smart_initial_m;

/// One operator's blessed footprint contract (the subset of a
/// `FOOTPRINT.toml` `[[operator]]` table the controller cares about).
#[derive(Clone, Debug, PartialEq)]
pub struct OperatorFootprint {
    /// Operator type name, e.g. `"SsspOp"`.
    pub op: String,
    /// Whether the analyzer proved the footprint bounded.
    pub bounded: bool,
    /// Declared radius d̂ (meaningful only when `bounded`).
    pub radius: u32,
}

/// Parse the `[[operator]]` tables out of `FOOTPRINT.toml` text.
///
/// Tolerant line-oriented reader: recognizes `[[operator]]` headers and
/// the `op`, `bounded`, and `radius` keys; ignores everything else
/// (comments, `sites`, `file`, `reason`). Unknown or malformed lines
/// never fail the parse — a missing key just leaves the field at its
/// default (`bounded = false`, `radius = 0`), which downstream treats
/// as "no usable contract".
pub fn parse_footprints(toml: &str) -> Vec<OperatorFootprint> {
    let mut out: Vec<OperatorFootprint> = Vec::new();
    let mut cur: Option<OperatorFootprint> = None;
    for line in toml.lines() {
        let line = line.trim();
        if line == "[[operator]]" {
            if let Some(fp) = cur.take() {
                out.push(fp);
            }
            cur = Some(OperatorFootprint {
                op: String::new(),
                bounded: false,
                radius: 0,
            });
            continue;
        }
        let Some(fp) = cur.as_mut() else { continue };
        let Some((key, val)) = line.split_once('=') else {
            continue;
        };
        let (key, val) = (key.trim(), val.trim());
        match key {
            "op" => fp.op = val.trim_matches('"').to_string(),
            "bounded" => fp.bounded = val == "true",
            "radius" => fp.radius = val.parse().unwrap_or(0),
            _ => {}
        }
    }
    if let Some(fp) = cur.take() {
        out.push(fp);
    }
    out
}

/// Look up one operator's contract by type name.
pub fn footprint_for<'a>(
    contracts: &'a [OperatorFootprint],
    op: &str,
) -> Option<&'a OperatorFootprint> {
    contracts.iter().find(|fp| fp.op == op)
}

/// Estimated conflict-graph degree of a task whose footprint is a
/// radius-`r` ball in a data graph of average degree `δ` (`avg_degree`).
///
/// Two radius-`r` balls overlap iff their seeds are within `2r` hops,
/// so the conflict degree is `B(2r) − 1` with `B(k)` the `k`-ball size
/// on a `δ`-regular tree: `B(k) = 1 + δ·Σ_{i=0..k-1}(δ−1)^i`.
/// `r = 0` (footprint = the seed alone) gives 0: only tasks sharing
/// the exact seed conflict, and distinct round tasks have distinct
/// seeds.
pub fn conflict_degree(avg_degree: f64, radius: u32) -> f64 {
    assert!(avg_degree >= 0.0, "average degree must be non-negative");
    let k = 2 * radius;
    let mut ball = 1.0;
    let mut frontier = avg_degree;
    for _ in 0..k {
        ball += frontier;
        frontier *= (avg_degree - 1.0).max(0.0);
    }
    ball - 1.0
}

/// The Cor. 3 smart initial `m` for `n` tasks over a data graph of
/// average degree `avg_degree`, under `fp`'s static contract.
///
/// Returns `None` when the contract is unbounded — the radius carries
/// no information and the caller should fall back to its default m₀
/// (the controller will adapt from there; an unbounded footprint gives
/// the static analysis nothing sound to promise).
pub fn smart_m_from_contract(n: usize, avg_degree: f64, fp: &OperatorFootprint) -> Option<usize> {
    if !fp.bounded {
        return None;
    }
    Some(smart_initial_m(n, conflict_degree(avg_degree, fp.radius)))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# Blessed by `cargo run -p xtask -- analyze --write-footprints`.

[[operator]]
op = "SsspOp"
file = "crates/apps/src/sssp.rs"
bounded = true
radius = 1
sites = ["lock:hop0", "lock:hop1"]

[[operator]]
op = "BoruvkaOp"
file = "crates/apps/src/boruvka.rs"
bounded = false
sites = ["lock:unbounded"]
reason = "component merge locks every member of the loser component"

[[operator]]
op = "PreflowOp"
file = "crates/apps/src/preflow.rs"
bounded = true
radius = 2
"#;

    #[test]
    fn parses_bounded_and_unbounded_tables() {
        let fps = parse_footprints(SAMPLE);
        assert_eq!(fps.len(), 3);
        assert_eq!(
            footprint_for(&fps, "SsspOp"),
            Some(&OperatorFootprint {
                op: "SsspOp".into(),
                bounded: true,
                radius: 1,
            })
        );
        let b = footprint_for(&fps, "BoruvkaOp").unwrap();
        assert!(!b.bounded);
        assert_eq!(footprint_for(&fps, "PreflowOp").unwrap().radius, 2);
        assert!(footprint_for(&fps, "NoSuchOp").is_none());
    }

    #[test]
    fn conflict_degree_is_the_two_r_ball_minus_one() {
        // r = 0: seed-only footprints never overlap across distinct seeds.
        assert_eq!(conflict_degree(4.0, 0), 0.0);
        // r = 1, δ = 4: B(2) = 1 + 4 + 4·3 = 17 → degree 16.
        assert_eq!(conflict_degree(4.0, 1), 16.0);
        // r = 2, δ = 3: B(4) = 1 + 3 + 6 + 12 + 24 = 46 → degree 45.
        assert_eq!(conflict_degree(3.0, 2), 45.0);
        // δ ≤ 1 degenerates gracefully (path graph: B(2) = 1 + 1 + 0).
        assert_eq!(conflict_degree(1.0, 1), 1.0);
    }

    #[test]
    fn smart_m_uses_radius_and_falls_back_on_unbounded() {
        let fps = parse_footprints(SAMPLE);
        let sssp = footprint_for(&fps, "SsspOp").unwrap();
        // n = 10_000, δ = 4, r = 1 → d = 16 → m₀ = 10_000 / 34 = 294.
        assert_eq!(smart_m_from_contract(10_000, 4.0, sssp), Some(294));
        let boruvka = footprint_for(&fps, "BoruvkaOp").unwrap();
        assert_eq!(smart_m_from_contract(10_000, 4.0, boruvka), None);
    }

    #[test]
    fn smart_m_respects_the_paper_floor() {
        let fp = OperatorFootprint {
            op: "X".into(),
            bounded: true,
            radius: 3,
        };
        // Tiny n with a huge ball still answers the floor of 2.
        assert_eq!(smart_m_from_contract(10, 8.0, &fp), Some(2));
    }
}
