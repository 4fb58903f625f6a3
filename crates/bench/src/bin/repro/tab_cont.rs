//! **TAB-CONT** (ablation) — round-synchronous vs continuous execution:
//! how much of the measured conflict ratio comes from the model's
//! round co-residency (committed tasks blocking the rest of the round)
//! versus genuine temporal overlap.
//!
//! Round mode realizes the paper's `r̄(m)` exactly. Continuous mode is
//! the pipelined executor at `batch = 1`: a budget of `m` tasks in
//! flight, each task's locks retired by its own lane bump the moment
//! it finishes, so its conflict ratio at the same `m` is lower and the
//! adaptive controller consequently sustains a *larger* allocation for
//! the same target ρ — free parallelism the round model leaves on the
//! table.
//!
//! Caveat: conflicts in continuous mode require *hardware* overlap.
//! On a single-CPU host the measured continuous conflict ratio is
//! ≈ 0 regardless of budget (tasks almost never truly interleave), so
//! the controller opens the budget wide — read the continuous rows as
//! a lower bound that grows with real core counts.
//!
//! Usage: `repro tab-cont [--csv]`

use optpar_apps::ccmirror::CcMirror;
use optpar_bench::{f, pct, Table, SEED};
use optpar_core::control::{Controller, FixedController, HybridController};
use optpar_graph::gen;
use optpar_runtime::{Executor, ExecutorConfig, LockSpace, PipelinedConfig, RunStats, WorkSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 4000;
const WORKERS: usize = 4;

fn build(n: usize, d: f64, seed: u64) -> (LockSpace, CcMirror) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen::random_with_avg_degree(n, d, &mut rng);
    let mut b = LockSpace::builder();
    let layout = CcMirror::layout(&g, &mut b);
    let space = b.build();
    let mirror = layout.finish(&space);
    (space, mirror)
}

/// Drain one fresh CC-mirror instance under `ctl`, in round mode or
/// (continuous) pipelined at `batch = 1`.
fn drain<C: Controller + Send>(continuous: bool, ctl: &mut C, seed: u64) -> RunStats {
    let (space, op) = build(N, 12.0, SEED);
    let ex = Executor::new(
        &op,
        &space,
        ExecutorConfig {
            workers: WORKERS,
            ..ExecutorConfig::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ws = WorkSet::from_vec((0..N as u32).collect::<Vec<_>>());
    if continuous {
        let cfg = PipelinedConfig {
            window: 128,
            batch: 1,
            max_completions: 10_000_000,
        };
        ex.run_pipelined(&mut ws, ctl, cfg, &mut rng)
    } else {
        ex.run_with_controller(&mut ws, ctl, 1_000_000, &mut rng)
    }
}

pub fn run(csv: bool) {
    let mut table = Table::new(["mode", "allocation", "steady/overall r", "committed"]);
    let mode = |continuous: bool| if continuous { "continuous" } else { "round" };

    // Fixed allocations: drain the whole work-set once per mode.
    for continuous in [false, true] {
        for m in [64usize, 256] {
            let run = drain(continuous, &mut FixedController::new(m), SEED + 1);
            table.row([
                mode(continuous).to_string(),
                format!("{} {m}", if continuous { "budget" } else { "fixed" }),
                pct(run.overall_conflict_ratio()),
                run.total_committed().to_string(),
            ]);
        }
    }
    // Adaptive in both modes.
    for continuous in [false, true] {
        let run = drain(continuous, &mut HybridController::with_rho(0.25), SEED + 2);
        let tail = run.rounds.len() / 2;
        let steady: f64 = run.rounds[tail..].iter().map(|r| r.m as f64).sum::<f64>()
            / (run.rounds.len() - tail).max(1) as f64;
        table.row([
            mode(continuous).to_string(),
            format!("hybrid (steady m = {})", f(steady, 0)),
            pct(run.overall_conflict_ratio()),
            run.total_committed().to_string(),
        ]);
    }

    println!(
        "TAB-CONT: round vs continuous execution, CC-mirror on n = {N}, d = 12, {WORKERS} workers"
    );
    table.print("ablation — what round co-residency costs", csv);
}
