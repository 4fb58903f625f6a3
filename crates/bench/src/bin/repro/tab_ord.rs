//! **TAB-ORD** (extension; §5 future work) — the price of ordering:
//! unordered exploitable parallelism `EM_m(G)` vs ordered `b_m(G)`
//! (which this repo's ordered scheduler achieves exactly), plus the
//! hybrid controller steering an ordered PDES workload.
//!
//! Usage: `repro tab-ord [trials] [--csv]`

use optpar_bench::{f, pct, Table, SEED};
use optpar_core::control::{Controller, HybridController, HybridParams};
use optpar_core::ordered::{OrderedScheduler, PdesWorkload};
use optpar_core::{estimate, theory};
use optpar_graph::gen;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run(arg: Option<usize>, csv: bool) {
    let trials: usize = arg.unwrap_or(4000);
    let mut rng = StdRng::seed_from_u64(SEED);
    let (n, d) = (2000usize, 16.0);
    let g = gen::random_with_avg_degree(n, d, &mut rng);

    // Part 1: the parallelism gap EM_m vs b_m.
    let mut table = Table::new(["m", "EM_m (unordered)", "b_m (ordered)", "ordering cost"]);
    for &m in &[25usize, 50, 100, 200, 400, 800, 1600] {
        let em = estimate::em_m_mc(&g, m, trials, &mut rng);
        let b = theory::b_m_exact(&g, m);
        table.row([
            m.to_string(),
            f(em.mean, 1),
            f(b, 1),
            pct(1.0 - b / em.mean),
        ]);
    }
    println!("TAB-ORD: ordered vs unordered parallelism, n = {n}, d = {d}");
    table.print("§5 extension — what commit ordering costs", csv);

    // Part 2: controller on an ordered PDES workload.
    let wl = PdesWorkload {
        n_entities: 500,
        load: 0.6,
        horizon: 64,
    };
    let mut table = Table::new(["window policy", "rounds", "launched", "abort%"]);
    for &fixed in &[8usize, 64, 512] {
        let mut sched = OrderedScheduler::new();
        let mut rng2 = StdRng::seed_from_u64(SEED + 1);
        for t in wl.initial(3000, &mut rng2) {
            sched.insert(t);
        }
        let mut rounds = 0;
        while !sched.is_empty() && rounds < 1_000_000 {
            let mut sp = wl.spawner(&mut rng2);
            sched.run_round(fixed, &mut sp);
            rounds += 1;
        }
        table.row([
            format!("fixed {fixed}"),
            rounds.to_string(),
            sched.total_launched.to_string(),
            pct(sched.total_aborted as f64 / sched.total_launched.max(1) as f64),
        ]);
    }
    {
        let mut sched = OrderedScheduler::new();
        let mut rng2 = StdRng::seed_from_u64(SEED + 1);
        for t in wl.initial(3000, &mut rng2) {
            sched.insert(t);
        }
        let mut ctl = HybridController::new(HybridParams {
            rho: 0.25,
            m_max: 2048,
            ..HybridParams::default()
        });
        let mut rounds = 0;
        while !sched.is_empty() && rounds < 1_000_000 {
            let m = ctl.current_m();
            let mut sp = wl.spawner(&mut rng2);
            let out = sched.run_round(m, &mut sp);
            ctl.observe(out.conflict_ratio(), out.launched);
            rounds += 1;
        }
        table.row([
            "hybrid (ρ = 25%)".to_string(),
            rounds.to_string(),
            sched.total_launched.to_string(),
            pct(sched.total_aborted as f64 / sched.total_launched.max(1) as f64),
        ]);
    }
    table.print("§5 extension — adaptive window on ordered PDES", csv);
}
