//! **TAB-C3** — validate Cor. 3: with `m = α·n/(d+1)` launched nodes,
//! the conflict ratio is bounded by `1 − (1/α)[1 − (1 − α/(d+1))^{d+1}]
//! ≤ 1 − (1 − e^{−α})/α`, for *every* graph of matched (n, d).
//!
//! Includes the smart-start guarantee: at `α = ½` the bound is ≈ 21.3%,
//! which is what licenses initializing the controller at
//! `m₀ = n/(2(d+1))`.
//!
//! Usage: `repro tab-c3 [trials] [--csv]`

use optpar_bench::{f, pct, Table, SEED};
use optpar_core::{estimate, theory};
use optpar_graph::gen;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run(arg: Option<usize>, csv: bool) {
    let trials: usize = arg.unwrap_or(20_000);
    let mut rng = StdRng::seed_from_u64(SEED);
    let (n, d) = (1020usize, 16usize);
    let worst = gen::clique_union(n, d);
    let random = gen::random_with_avg_degree(n, d as f64, &mut rng);
    let s = n / (d + 1);

    let mut table = Table::new([
        "alpha",
        "m",
        "bound (finite d)",
        "bound (limit)",
        "measured K_d^n",
        "measured random",
        "within_bound",
    ]);
    for &alpha in &[0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0] {
        let m = ((alpha * s as f64).round() as usize).clamp(1, n);
        let b_fin = theory::rbar_alpha_bound(alpha, d);
        let b_lim = theory::rbar_alpha_limit(alpha);
        let r_worst = estimate::conflict_ratio_mc(&worst, m, trials, &mut rng);
        let r_rand = estimate::conflict_ratio_mc(&random, m, trials, &mut rng);
        let ok = r_worst.mean <= b_fin + r_worst.ci95() + 1e-9
            && r_rand.mean <= b_fin + r_rand.ci95() + 1e-9;
        table.row([
            f(alpha, 2),
            m.to_string(),
            pct(b_fin),
            pct(b_lim),
            pct(r_worst.mean),
            pct(r_rand.mean),
            ok.to_string(),
        ]);
    }
    println!("TAB-C3: Cor. 3 α-parametric bound, n = {n}, d = {d}, s = {s}, {trials} trials/point");
    table.print("Cor. 3 — r̄(αs) vs bound", csv);
    println!(
        "\nSmart start: bound at α = ½ is {} (paper: ≤ 21.3%), so m₀ = n/(2(d+1)) = {} is safe.",
        pct(theory::rbar_alpha_limit(0.5)),
        optpar_core::control::smart_initial_m(n, d as f64),
    );
}
