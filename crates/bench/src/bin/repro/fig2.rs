//! **FIG2** — reproduce Fig. 2 of the paper: the conflict ratio
//! `r̄(m)` for graphs with `n = 2000`, `d = 16`:
//!
//! (i)   the worst-case upper bound (Cor. 2, plus the exact Thm. 3
//!       curve it approximates),
//! (ii)  a uniform random graph (Monte-Carlo),
//! (iii) a union of cliques and disconnected nodes (Monte-Carlo).
//!
//! Expected shape: all three share the initial slope `d/(2(n−1))`
//! (Prop. 2); the random graph's curve keeps rising toward 1, the
//! clique union saturates lower, and the bound dominates both.
//!
//! Usage: `repro fig2 [trials] [--csv]`

use optpar_bench::{f, pct, Table, SEED};
use optpar_core::{estimate, theory};
use optpar_graph::{gen, ConflictGraph};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run(arg: Option<usize>, csv: bool) {
    let trials: usize = arg.unwrap_or(2000);
    let (n, d) = (2000usize, 16usize);
    let mut rng = StdRng::seed_from_u64(SEED);

    // (ii) random graph with average degree d.
    let random = gen::random_with_avg_degree(n, d as f64, &mut rng);
    // (iii) union of cliques (half the nodes, in cliques of size d+1)
    // and disconnected nodes, matched to average degree d:
    // cliques of size 2d+1 over half the nodes give average degree d.
    let k = 2 * d + 1;
    let cliques = n / 2 / k;
    let iso = n - cliques * k;
    let union = gen::cliques_plus_isolated(cliques, k, iso);

    let ms: Vec<usize> = (1..=40).map(|i| i * n / 40).collect();
    let mut table = Table::new([
        "m",
        "bound_cor2",
        "bound_thm3_exact",
        "random_graph",
        "rand_ci95",
        "cliques_union",
        "union_ci95",
    ]);
    for &m in &ms {
        let r_rand = estimate::conflict_ratio_mc(&random, m, trials, &mut rng);
        let r_union = estimate::conflict_ratio_mc(&union, m, trials, &mut rng);
        table.row([
            m.to_string(),
            f(theory::rbar_worst_asymptotic(n, d, m), 4),
            f(theory::rbar_worst_exact(n, d, m), 4),
            f(r_rand.mean, 4),
            f(r_rand.ci95(), 4),
            f(r_union.mean, 4),
            f(r_union.ci95(), 4),
        ]);
    }
    println!(
        "FIG2: r̄(m) for n = {n}, d = 16 (random graph actual d = {:.2}, union d = {:.2}), {trials} trials/point",
        random.average_degree(),
        union.average_degree()
    );
    table.print("Fig. 2 — conflict ratio curves", csv);

    // Prop. 2 cross-check: initial slope of every curve.
    let slope = theory::initial_slope(n, d as f64);
    println!(
        "\nProp. 2: Δr̄(1) = d/(2(n−1)) = {} — all curves share it at m→1.",
        pct(slope)
    );
}
