//! Differential integration test: the abstract round model
//! (`optpar-core`) and the real speculative runtime (`optpar-runtime`
//! driving the CC-mirror operator) must tell the same statistical
//! story, the controller must find the same operating point through
//! either, and a round must commit exactly the model's
//! greedy prefix-MIS.

use optpar::apps::ccmirror::CcMirror;
use optpar::core::control::{Controller, HybridController, HybridParams};
use optpar::core::estimate;
use optpar::graph::mis::greedy_prefix_mis;
use optpar::graph::{gen, NodeId};
use optpar::runtime::{Abort, Executor, ExecutorConfig, LockSpace, Operator, TaskCtx, WorkSet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

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
    // round can commit at most one task; and a round, which runs its
    // prefix in order on one thread at every worker count, commits
    // exactly the first.
    let mut rng = StdRng::seed_from_u64(3);
    let g = gen::complete(50);
    for workers in [1, 4] {
        let (space, op) = mirror(&g);
        let ex = Executor::new(
            &op,
            &space,
            ExecutorConfig {
                workers,
                ..ExecutorConfig::default()
            },
        );
        for _ in 0..30 {
            let mut ws = WorkSet::from_vec((0..50u32).collect::<Vec<_>>());
            let rs = ex.run_round(&mut ws, 50, &mut rng);
            assert_eq!(rs.committed, 1, "w{workers}: K_50 commits exactly one");
        }
    }
}

/// Forwards to the CC-mirror and records `(node, committed?)` in call
/// order.
struct Recorded<'a> {
    op: &'a CcMirror,
    calls: Mutex<Vec<(NodeId, bool)>>,
}

impl Operator for Recorded<'_> {
    type Task = NodeId;

    fn execute(&self, v: &NodeId, cx: &mut TaskCtx<'_>) -> Result<Vec<NodeId>, Abort> {
        let out = self.op.execute(v, cx);
        self.calls.lock().unwrap().push((*v, out.is_ok()));
        out
    }
}

/// The paper's round model exactly: at every worker count a round runs
/// its drawn tasks inline in slot order and a returned `Ok` commits,
/// so each round's committed set is the greedy prefix-MIS of its call
/// order — no more (a lock taken over from a committed earlier task,
/// or "held" without being taken), no fewer (a conflict with a task
/// that released).
#[test]
fn inline_round_commits_the_greedy_prefix_mis() {
    for (seed, workers) in [11u64, 12, 13]
        .into_iter()
        .flat_map(|s| [(s, 1), (s, 2), (s, 4)])
    {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_with_avg_degree(300, 6.0, &mut rng);
        let (space, mirror) = mirror(&g);
        let op = Recorded {
            op: &mirror,
            calls: Mutex::new(Vec::new()),
        };
        let ex = Executor::new(
            &op,
            &space,
            ExecutorConfig {
                workers,
                ..ExecutorConfig::default()
            },
        );
        for m in [5usize, 30, 100] {
            let mut ws = WorkSet::from_vec((0..300 as NodeId).collect::<Vec<_>>());
            while !ws.is_empty() {
                let stats = ex.run_round(&mut ws, m, &mut rng);
                let calls = std::mem::take(&mut *op.calls.lock().unwrap());
                let order: Vec<NodeId> = calls.iter().map(|&(v, _)| v).collect();
                let committed: Vec<NodeId> = calls
                    .iter()
                    .filter(|&&(_, ok)| ok)
                    .map(|&(v, _)| v)
                    .collect();
                assert_eq!(
                    committed,
                    greedy_prefix_mis(&g, &order),
                    "seed {seed}, w{workers}, m {m}: round over {order:?}"
                );
                assert_eq!(stats.committed, committed.len());
            }
        }
    }
}
