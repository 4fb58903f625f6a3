//! **TAB-RHO** — Remark 1: sweep the target conflict ratio ρ and
//! report the steady-state allocation, the achieved conflict ratio,
//! and the work efficiency on a fixed random graph.
//!
//! Expected shape: larger ρ buys more parallelism (larger steady m) at
//! lower efficiency; the paper recommends ρ ∈ [20%, 30%], and ρ → 0
//! collapses the allocation toward m_min (why ρ = 0 is ruled out).
//!
//! Usage: `repro tab-rho [rounds] [--csv]`

use optpar_bench::{f, pct, Table, SEED};
use optpar_core::control::{HybridController, HybridParams};
use optpar_core::estimate;
use optpar_core::sim::{run_loop, StaticGraphPlant};
use optpar_graph::gen;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run(arg: Option<usize>, csv: bool) {
    let rounds: usize = arg.unwrap_or(600);
    let mut rng = StdRng::seed_from_u64(SEED);
    let (n, d) = (2000usize, 16.0);
    let g = gen::random_with_avg_degree(n, d, &mut rng);

    let mut table = Table::new([
        "rho",
        "mu(rho)",
        "steady_m",
        "steady_r",
        "efficiency",
        "commits/round",
    ]);
    for &rho in &[0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.40, 0.50] {
        let mu = estimate::find_mu(&g, rho, 600, &mut rng);
        let mut ctl = HybridController::new(HybridParams {
            rho,
            m_max: 8192,
            ..HybridParams::default()
        });
        let mut plant = StaticGraphPlant::new(g.clone());
        let tr = run_loop(&mut plant, &mut ctl, rounds, &mut rng);
        let tail = rounds / 2;
        let commits: f64 = tr.steps[rounds - tail..]
            .iter()
            .map(|s| s.committed as f64)
            .sum::<f64>()
            / tail as f64;
        table.row([
            pct(rho),
            mu.to_string(),
            f(tr.steady_m(tail), 1),
            pct(tr.steady_r(tail)),
            pct(1.0 - tr.steady_r(tail)),
            f(commits, 1),
        ]);
    }
    println!("TAB-RHO: target sweep on n = {n}, d = {d}, {rounds} rounds each");
    table.print("Remark 1 — choosing ρ: parallelism vs efficiency", csv);
}
