//! **TAB-SEAT** (extension) — the unfriendly seating problem the paper
//! connects its parallelism analysis to (§3): exact expected
//! greedy-random MIS occupancy on paths and cycles vs the Turán lower
//! bound vs Monte-Carlo simulation, converging to the Freedman–Shepp
//! density limit `(1 − e⁻²)/2 ≈ 0.4323`.
//!
//! Usage: `repro tab-seat [trials] [--csv]`

use optpar_bench::{f, Table, SEED};
use optpar_core::seating;
use optpar_core::theory;
use optpar_graph::{mis, GraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run(arg: Option<usize>, csv: bool) {
    let trials: usize = arg.unwrap_or(4000);
    let mut rng = StdRng::seed_from_u64(SEED);

    let mut table = Table::new([
        "n",
        "path exact",
        "path MC",
        "path density",
        "cycle exact",
        "Turán n/3",
        "limit (1-e⁻²)/2",
    ]);
    for &n in &[8usize, 32, 128, 512, 2048] {
        let exact = seating::seating_path_exact(n);
        let mut b = GraphBuilder::new(n);
        let nodes: Vec<NodeId> = (0..n as NodeId).collect();
        b.path(&nodes);
        let g = b.build();
        let mc: f64 = (0..trials)
            .map(|_| mis::greedy_random_mis(&g, &mut rng).len() as f64)
            .sum::<f64>()
            / trials as f64;
        table.row([
            n.to_string(),
            f(exact, 2),
            f(mc, 2),
            f(exact / n as f64, 4),
            f(seating::seating_cycle_exact(n.max(3)), 2),
            f(theory::turan_bound(n, 2.0 * (n - 1) as f64 / n as f64), 2),
            f(seating::seating_density_limit() * n as f64, 2),
        ]);
    }
    println!("TAB-SEAT: unfriendly seating exact DP vs simulation, {trials} trials/row");
    table.print("§3 connection — unfriendly seating on paths/cycles", csv);
    println!(
        "\nDensity limit (1 − e⁻²)/2 = {:.5}; exact path density converges to it\n\
         from above, and always exceeds the Turán bound 1/3.",
        seating::seating_density_limit()
    );
}
