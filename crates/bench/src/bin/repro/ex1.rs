//! **EX1** — reproduce Example 1 of the paper: on
//! `G = K_{n²} ∪ D_n` every maximal independent set has size `n + 1`,
//! yet launching `n + 1` uniformly random nodes commits only ≈ 2 on
//! average — expected-MIS size wildly over-predicts exploitable
//! parallelism.
//!
//! Usage: `repro ex1 [trials] [--csv]`

use optpar_bench::{f, Table, SEED};
use optpar_core::estimate;
use optpar_graph::{gen, mis, ConflictGraph};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run(arg: Option<usize>, csv: bool) {
    let trials: usize = arg.unwrap_or(4000);
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut table = Table::new([
        "n",
        "|V| = n²+n",
        "max_IS",
        "E[commits @ m=n+1]",
        "ci95",
        "E[commits]/max_IS",
    ]);
    for n in [4usize, 8, 16, 32, 64] {
        let g = gen::clique_trap(n);
        let m = n + 1;
        // Sanity: every maximal IS has size exactly n + 1.
        let s = mis::greedy_random_mis(&g, &mut rng);
        assert_eq!(s.len(), n + 1);
        let em = estimate::em_m_mc(&g, m, trials, &mut rng);
        table.row([
            n.to_string(),
            g.node_count().to_string(),
            (n + 1).to_string(),
            f(em.mean, 3),
            f(em.ci95(), 3),
            f(em.mean / (n + 1) as f64, 3),
        ]);
    }
    println!("EX1: the clique trap K_{{n²}} ∪ D_n, {trials} trials/row");
    table.print("Example 1 — maximal IS size vs expected commits", csv);
    println!(
        "\nPaper's claim: E[commits] → 2 as n grows, despite max IS = n+1.\n\
         (Expected independent survivors among m = n+1 uniform draws: ≈ 1 from\n\
         the clique + ≈ 1 from the n isolated nodes, since draws land in the\n\
         n² clique with probability n/(n+1).)"
    );
}
