//! Differential integration test: the abstract round model
//! (`optpar-core`) and the real speculative runtime (`optpar-runtime`
//! driving the CC-mirror operator) must tell the same statistical
//! story, and the controller must find the same operating point
//! through either.

use optpar::apps::ccmirror::CcMirror;
use optpar::core::control::{Controller, HybridController, HybridParams};
use optpar::core::estimate;
use optpar::graph::gen;
use optpar::runtime::{Executor, ExecutorConfig, LockSpace, WorkSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn mirror(g: &optpar::graph::CsrGraph) -> (LockSpace, CcMirror) {
    let mut b = LockSpace::builder();
    let layout = CcMirror::layout(g, &mut b);
    let space = b.build();
    let m = layout.finish(&space);
    (space, m)
}

#[test]
fn runtime_conflict_curve_matches_model() {
    let mut rng = StdRng::seed_from_u64(1);
    let g = gen::random_with_avg_degree(400, 10.0, &mut rng);
    let (space, op) = mirror(&g);
    let ex = Executor::new(
        &op,
        &space,
        ExecutorConfig {
            workers: 1,
            ..ExecutorConfig::default()
        },
    );
    for &m in &[20usize, 80, 200] {
        let trials = 300;
        let mut aborts = 0usize;
        for _ in 0..trials {
            let mut ws = WorkSet::from_vec((0..400u32).collect::<Vec<_>>());
            aborts += ex.run_round(&mut ws, m, &mut rng).aborted;
        }
        let runtime_r = aborts as f64 / (trials * m) as f64;
        let model = estimate::conflict_ratio_mc(&g, m, 4000, &mut rng);
        assert!(
            (runtime_r - model.mean).abs() < 0.05,
            "m = {m}: runtime {runtime_r} vs model {}",
            model.mean
        );
    }
}

#[test]
fn controller_finds_same_mu_through_runtime_and_model() {
    let mut rng = StdRng::seed_from_u64(2);
    let g = gen::random_with_avg_degree(1500, 12.0, &mut rng);
    let rho = 0.25;
    let mu = estimate::find_mu(&g, rho, 600, &mut rng);

    // Drive the controller through the *runtime* on a replenished
    // work-set (static-plant equivalent).
    let (space, op) = mirror(&g);
    let ex = Executor::new(
        &op,
        &space,
        ExecutorConfig {
            workers: 2,
            ..ExecutorConfig::default()
        },
    );
    let mut ctl = HybridController::new(HybridParams {
        rho,
        m_max: 4096,
        ..HybridParams::default()
    });
    let rounds = 300;
    let mut tail_m = Vec::new();
    for t in 0..rounds {
        let m = ctl.current_m();
        let mut ws = WorkSet::from_vec((0..1500u32).collect::<Vec<_>>());
        let rs = ex.run_round(&mut ws, m, &mut rng);
        ctl.observe(rs.conflict_ratio(), rs.launched);
        if t >= rounds / 2 {
            tail_m.push(m as f64);
        }
    }
    let steady = tail_m.iter().sum::<f64>() / tail_m.len() as f64;
    assert!(
        (steady - mu as f64).abs() / mu as f64 <= 0.3,
        "runtime-driven controller settled at {steady}, model μ = {mu}"
    );
}

#[test]
fn complete_graph_commits_at_most_one_per_round() {
    // On K_50, committed tasks are pairwise non-conflicting, so a
    // round can commit at most one task. (Zero is possible in a truly
    // parallel round — abort cycles — but must be rare; sequentially
    // it is impossible.)
    let mut rng = StdRng::seed_from_u64(3);
    let g = gen::complete(50);
    let (space, op) = mirror(&g);
    let ex = Executor::new(
        &op,
        &space,
        ExecutorConfig {
            workers: 4,
            ..ExecutorConfig::default()
        },
    );
    let mut total = 0;
    for _ in 0..30 {
        let mut ws = WorkSet::from_vec((0..50u32).collect::<Vec<_>>());
        let rs = ex.run_round(&mut ws, 50, &mut rng);
        assert!(rs.committed <= 1, "K_50 admits at most one commit");
        total += rs.committed;
    }
    assert!(total >= 20, "commits should be common: {total}/30");

    // Sequential arbitration commits *exactly* one every round.
    let (space, op) = mirror(&g);
    let ex = Executor::new(
        &op,
        &space,
        ExecutorConfig {
            workers: 1,
            ..ExecutorConfig::default()
        },
    );
    for _ in 0..10 {
        let mut ws = WorkSet::from_vec((0..50u32).collect::<Vec<_>>());
        assert_eq!(ex.run_round(&mut ws, 50, &mut rng).committed, 1);
    }
}
