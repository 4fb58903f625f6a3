//! **TAB-P2** — validate Prop. 2: the initial finite difference of the
//! conflict ratio is `Δr̄(1) = d / (2(n−1))`, independent of the graph
//! structure beyond `n` and the average degree `d`.
//!
//! `Δr̄(1) = r̄(2) − r̄(1) = r̄(2)` is estimated by Monte-Carlo at
//! `m = 2` across structurally different families with matched (n, d).
//!
//! Usage: `repro tab-p2 [trials] [--csv]`

use optpar_bench::{f, Table, SEED};
use optpar_core::{estimate, theory};
use optpar_graph::{gen, ConflictGraph, CsrGraph};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run(arg: Option<usize>, csv: bool) {
    let trials: usize = arg.unwrap_or(2_000_000);
    let mut rng = StdRng::seed_from_u64(SEED);
    let n = 600;
    let d = 12usize;

    let families: Vec<(&str, CsrGraph)> = vec![
        (
            "random G(n,m)",
            gen::random_with_avg_degree(n, d as f64, &mut rng),
        ),
        ("clique union K_d^n", {
            // (d+1) | n not required to hold for others; here 13 | 600
            // fails, so use d=11 cliques... keep d exact: build with
            // clique size d+1 over a divisible prefix and pad with a
            // matched random remainder is messy — instead use n' = 598
            // is also indivisible; simplest: cliques of size d+1 = 13
            // covering 46*13 = 598 nodes + 2 isolated gives d ≈ 11.96,
            // close but not exact. Use exact: n = 600, cliques of size
            // 13 can't tile; take cliques_plus_isolated and report the
            // actual d in the table instead.
            gen::cliques_plus_isolated(46, 13, 2)
        }),
        ("preferential attachment", {
            gen::preferential_attachment(n, d / 2, &mut rng)
        }),
        ("torus-ish (d=4 baseline)", gen::torus(20, 30)),
    ];

    let mut table = Table::new([
        "family",
        "n",
        "d (actual)",
        "predicted d/(2(n-1))",
        "measured r̄(2)",
        "ci95",
        "|Δ|/pred",
    ]);
    for (name, g) in families {
        let davg = g.average_degree();
        let nn = g.node_count();
        let pred = theory::initial_slope(nn, davg);
        let meas = estimate::conflict_ratio_mc(&g, 2, trials, &mut rng);
        table.row([
            name.to_string(),
            nn.to_string(),
            f(davg, 3),
            f(pred, 6),
            f(meas.mean, 6),
            f(meas.ci95(), 6),
            f((meas.mean - pred).abs() / pred.max(1e-12), 3),
        ]);
    }
    println!("TAB-P2: Prop. 2 initial-slope validation, {trials} trials/row");
    table.print("Prop. 2 — Δr̄(1) = d / (2(n−1)) across families", csv);
}
