//! **TAB-CONV** — controller convergence comparison (§4.1): rounds to
//! reach and hold the operating point `μ` (|m − μ|/μ ≤ 25% for 4
//! consecutive rounds) for the hybrid Algorithm 1, Recurrence A only,
//! Recurrence B only, and the bisection baseline, across graph sizes,
//! degrees, targets ρ, and both cold (m₀ = 2) and smart
//! (m₀ = n/(2(d+1))) starts.
//!
//! Expected shape: hybrid ≈ B ≪ A; bisection in between; smart start
//! cuts the remaining gap.
//!
//! Usage: `repro tab-conv [reps] [--csv]`

use optpar_bench::{f, Table, SEED};
use optpar_core::control::{
    BisectionController, Controller, HybridController, HybridParams, RecurrenceA, RecurrenceB,
    RecurrenceParams,
};
use optpar_core::estimate;
use optpar_core::sim::{run_loop, StaticGraphPlant};
use optpar_graph::gen;
use rand::rngs::StdRng;
use rand::SeedableRng;

const MAX_ROUNDS: usize = 3000;

fn steps<C: Controller, R: rand::Rng + ?Sized>(
    g: &optpar_graph::CsrGraph,
    ctl: &mut C,
    mu: usize,
    rng: &mut R,
) -> Option<usize> {
    let mut plant = StaticGraphPlant::new(g.clone());
    let tr = run_loop(&mut plant, ctl, MAX_ROUNDS, rng);
    tr.convergence_round(mu, 0.25, 4)
}

fn fmt(x: &[Option<usize>]) -> String {
    let ok: Vec<usize> = x.iter().flatten().copied().collect();
    if ok.is_empty() {
        return "never".into();
    }
    let mean = ok.iter().sum::<usize>() as f64 / ok.len() as f64;
    if ok.len() < x.len() {
        format!("{} ({}/{} conv)", f(mean, 1), ok.len(), x.len())
    } else {
        f(mean, 1)
    }
}

pub fn run(arg: Option<usize>, csv: bool) {
    let reps: usize = arg.unwrap_or(10);
    let mut rng = StdRng::seed_from_u64(SEED);

    let mut table = Table::new([
        "n",
        "d",
        "rho",
        "mu",
        "hybrid",
        "hybrid+smart",
        "rec_B",
        "rec_A",
        "bisection",
    ]);
    for &(n, d) in &[(1000usize, 8.0f64), (2000, 16.0), (4000, 32.0), (2000, 4.0)] {
        for &rho in &[0.15, 0.25] {
            let g = gen::random_with_avg_degree(n, d, &mut rng);
            let mu = estimate::find_mu(&g, rho, 800, &mut rng);
            if mu < 4 {
                continue;
            }
            let rp = RecurrenceParams {
                rho,
                m_max: 8192,
                ..RecurrenceParams::default()
            };
            let hp = HybridParams {
                rho,
                m_max: 8192,
                ..HybridParams::default()
            };
            let mut col: [Vec<Option<usize>>; 5] = Default::default();
            for _ in 0..reps {
                col[0].push(steps(&g, &mut HybridController::new(hp), mu, &mut rng));
                let smart = HybridParams {
                    m0: optpar_core::control::smart_initial_m(n, d).min(hp.m_max),
                    ..hp
                };
                col[1].push(steps(&g, &mut HybridController::new(smart), mu, &mut rng));
                col[2].push(steps(&g, &mut RecurrenceB::new(rp), mu, &mut rng));
                col[3].push(steps(&g, &mut RecurrenceA::new(rp), mu, &mut rng));
                col[4].push(steps(&g, &mut BisectionController::new(rp), mu, &mut rng));
            }
            table.row([
                n.to_string(),
                f(d, 0),
                f(rho, 2),
                mu.to_string(),
                fmt(&col[0]),
                fmt(&col[1]),
                fmt(&col[2]),
                fmt(&col[3]),
                fmt(&col[4]),
            ]);
        }
    }
    println!("TAB-CONV: mean rounds to converge (|m−μ|/μ ≤ 25% held 4 rounds), {reps} reps");
    table.print("§4.1 — controller convergence comparison", csv);
}
