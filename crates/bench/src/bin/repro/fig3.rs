//! **FIG3** — reproduce Fig. 3 of the paper: controller trajectories
//! `m_t` on two random CC graphs with `n = 2000`, target `ρ = 20%`,
//! `m₀ = 2`, comparing the hybrid Algorithm 1 against a controller
//! using only Recurrence A.
//!
//! Expected shape: the hybrid converges to the operating point `μ`
//! within ~15 rounds and stays stable; A-only creeps up over many more
//! rounds. Both settle near the same `μ`.
//!
//! Usage: `repro fig3 [rounds] [--csv]`

use optpar_bench::{downsample, f, sparkline, Table, SEED};
use optpar_core::control::{HybridController, HybridParams, RecurrenceA, RecurrenceParams};
use optpar_core::estimate;
use optpar_core::sim::{run_loop, SimTrace, StaticGraphPlant};
use optpar_graph::gen;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run(arg: Option<usize>, csv: bool) {
    let rounds: usize = arg.unwrap_or(120);
    let n = 2000;
    let rho = 0.20;
    let mut rng = StdRng::seed_from_u64(SEED);

    // Two graphs with different degree, hence different μ (the paper's
    // two panels: steady state above and below m = 20-ish scale).
    let configs = [("graph-A (d=16)", 16.0), ("graph-B (d=64)", 64.0)];

    for (label, d) in configs {
        let g = gen::random_with_avg_degree(n, d, &mut rng);
        let mu = estimate::find_mu(&g, rho, 800, &mut rng);

        let mut hybrid = HybridController::new(HybridParams {
            rho,
            ..HybridParams::default()
        });
        let mut plant = StaticGraphPlant::new(g.clone());
        let tr_h = run_loop(&mut plant, &mut hybrid, rounds, &mut rng);

        let mut a_only = RecurrenceA::new(RecurrenceParams {
            rho,
            ..RecurrenceParams::default()
        });
        let mut plant = StaticGraphPlant::new(g);
        let tr_a = run_loop(&mut plant, &mut a_only, rounds, &mut rng);

        let mut table = Table::new(["t", "m_hybrid", "r_hybrid", "m_rec_a", "r_rec_a"]);
        for t in 0..rounds {
            table.row([
                t.to_string(),
                tr_h.steps[t].m.to_string(),
                f(tr_h.steps[t].r, 3),
                tr_a.steps[t].m.to_string(),
                f(tr_a.steps[t].r, 3),
            ]);
        }
        table.print(&format!("Fig. 3 — {label}, ρ = 20%, μ ≈ {mu}"), csv);

        let conv = |tr: &SimTrace| {
            tr.convergence_round(mu, 0.25, 4)
                .map(|c| c.to_string())
                .unwrap_or_else(|| "never".into())
        };
        println!(
            "{label}: μ ≈ {mu} | hybrid converged at t = {} (steady m = {:.0}) | A-only at t = {} (steady m = {:.0})",
            conv(&tr_h),
            tr_h.steady_m(rounds / 4),
            conv(&tr_a),
            tr_a.steady_m(rounds / 4),
        );
        let as_f64 = |v: Vec<usize>| v.into_iter().map(|m| m as f64).collect::<Vec<_>>();
        println!(
            "  m_t hybrid: {}\n  m_t rec-A : {}",
            sparkline(&downsample(&as_f64(tr_h.m_series()), 72)),
            sparkline(&downsample(&as_f64(tr_a.m_series()), 72)),
        );
    }
}
