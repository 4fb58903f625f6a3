//! **TAB-T3** — validate Thm. 3 and Cor. 2: the exact closed form
//! `EM_m(K_d^n)` against Monte-Carlo simulation of the actual graph,
//! and the asymptotic bound of Cor. 2 against the exact form.
//!
//! Also verifies Thm. 2's direction on a random graph with matched
//! (n, d): `EM_m(G) ≥ EM_m(K_d^n)`.
//!
//! Usage: `repro tab-t3 [trials] [--csv]`

use optpar_bench::{f, Table, SEED};
use optpar_core::{estimate, theory};
use optpar_graph::gen;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run(arg: Option<usize>, csv: bool) {
    let trials: usize = arg.unwrap_or(20_000);
    let mut rng = StdRng::seed_from_u64(SEED);
    let (n, d) = (1020usize, 16usize); // 17 | 1020: s = 60 cliques
    let worst = gen::clique_union(n, d);
    let random = gen::random_with_avg_degree(n, d as f64, &mut rng);

    let mut table = Table::new([
        "m",
        "EM exact (Thm.3)",
        "EM MC (K_d^n)",
        "ci95",
        "EM MC (random)",
        "r̄ exact",
        "r̄ Cor.2",
        "thm2_ok",
    ]);
    for m in [1usize, 2, 5, 10, 20, 40, 80, 160, 320, 640, 1020] {
        let exact = theory::em_worst_exact(n, d, m);
        let mc = estimate::em_m_mc(&worst, m, trials, &mut rng);
        let mc_rand = estimate::em_m_mc(&random, m, trials, &mut rng);
        table.row([
            m.to_string(),
            f(exact, 3),
            f(mc.mean, 3),
            f(mc.ci95(), 3),
            f(mc_rand.mean, 3),
            f(theory::rbar_worst_exact(n, d, m), 4),
            f(theory::rbar_worst_asymptotic(n, d, m), 4),
            (mc_rand.mean + mc_rand.ci95() + 1e-9 >= exact).to_string(),
        ]);
    }
    println!("TAB-T3: worst-case closed forms, n = {n}, d = {d}, {trials} trials/point");
    table.print(
        "Thm. 3 / Cor. 2 — EM_m(K_d^n) exact vs simulated, Thm. 2 direction",
        csv,
    );
}
