//! End-to-end equivalence for pipelined (barrier-free) execution.
//!
//! Every application drains to completion in pipelined mode at 1, 4,
//! and 8 workers and must reproduce its sequential reference exactly
//! (Dijkstra distances, Kruskal forest weight, fully refined valid
//! mesh) — the sliding epoch window, per-worker lock lanes, and
//! in-flight budget may reorder and retry work but must never change
//! the result. Each drain runs at `batch = 8` and at `batch = 1` — the
//! continuous configuration: one task per lane bump, no batching at
//! all. SSSP, whose tasks skip on an unlocked monotone bound, also
//! runs at 2 workers and at `batch = 64`, and `SsspOp::distances`
//! checks after every drain that each bound ended at its node's
//! distance. The other seven operators (coloring, MIS, matching, the
//! CC-graph mirror, preflow-push, clustering, survey propagation) run a
//! 1 / 2 / 4 workers × batch 1 / 8 / 64 matrix against their validity
//! checks and references: the lane commit rule — a finished holder's
//! lock is free, whatever its batch still retains — applies to every
//! operator that runs in a lane, and at one worker leaves nothing to
//! abort against.
//!
//! The same tests double as the speculation-safety gate: built with
//! `--features checker`, `run_pipelined` keeps the audit sink armed
//! across the run, drains it at every window flush, replays every
//! acquisition and takeover against the run's lock ledger and (at one
//! worker) checks the lane commit-set oracle — a single finding
//! panics the drain, and the clean-audit claim is asserted explicitly
//! afterwards. With `--features faults` the
//! fault-injection module below re-runs the matrix under a seeded
//! ~10% panic/spurious-abort schedule and reconciles the plan's
//! ledger with the executor's fault log at matching
//! `(batch-tag, slot)` coordinates.

use optpar::apps::boruvka::{BoruvkaOp, WeightedGraph};
use optpar::apps::ccmirror::CcMirror;
use optpar::apps::clustering::{blobs, ClusteringOp};
use optpar::apps::coloring::ColoringOp;
use optpar::apps::delaunay::{bad_count, DelaunayOp, RefineConfig};
use optpar::apps::geometry::Point;
use optpar::apps::matching::MatchingOp;
use optpar::apps::misapp::MisOp;
use optpar::apps::preflow::{FlowNetwork, PreflowOp};
use optpar::apps::sssp::{SsspInput, SsspOp};
use optpar::apps::survey::{sp_sequential, Formula, SurveyOp};
use optpar::apps::triangulation::Mesh;
use optpar::core::control::{HybridController, HybridParams};
use optpar::graph::{gen, ConflictGraph, CsrGraph};
use optpar::runtime::{
    Executor, ExecutorConfig, LockSpace, Operator, PipelinedConfig, RunStats, WorkSet,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn controller() -> HybridController {
    HybridController::new(HybridParams {
        rho: 0.25,
        m_max: 2048,
        ..HybridParams::default()
    })
}

fn config(workers: usize) -> ExecutorConfig {
    ExecutorConfig {
        workers,
        ..ExecutorConfig::default()
    }
}

/// Batch sizes every drain is checked at: 1 is continuous execution
/// (each task retires on its own lane bump), 8 amortizes the bump.
const BATCHES: [usize; 2] = [1, 8];

fn pipe_cfg(batch: usize) -> PipelinedConfig {
    PipelinedConfig {
        window: 64,
        batch,
        max_completions: usize::MAX,
    }
}

/// Drain `tasks` to completion in pipelined mode and check what every
/// drain owes whatever its operator: the work-set empties, no worker
/// dies, no lane leaks a lock, the audit is clean — and one worker,
/// whose only possible holders have all finished, aborts nothing.
fn drain_lanes<O: Operator>(
    space: &LockSpace,
    op: &O,
    tasks: Vec<O::Task>,
    workers: usize,
    batch: usize,
    rng: &mut StdRng,
) -> RunStats {
    let ex = Executor::new(op, space, config(workers));
    let mut ws = WorkSet::from_vec(tasks);
    let mut ctl = controller();
    let run = ex.run_pipelined(&mut ws, &mut ctl, pipe_cfg(batch), rng);
    assert!(ws.is_empty());
    assert!(run.total_committed() > 0);
    assert_eq!(ex.worker_panics(), 0);
    assert!(space.check_all_free().is_ok(), "a lane leaked a lock");
    #[cfg(feature = "checker")]
    assert_eq!(space.audit().report_count(), 0);
    if workers == 1 {
        assert_eq!(run.total_aborted(), 0, "one lane has no running holder");
    }
    run
}

/// The wider batch set SSSP and the lane-matrix operators run: one
/// task per lane bump, a batch the drain refills many times, and one
/// that holds a whole window's retained stamps.
const WIDE_BATCHES: [usize; 3] = [1, 8, 64];

/// SSSP against Dijkstra.
fn sssp_pipelined(workers: usize, batch: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen::random_with_avg_degree(800, 6.0, &mut rng);
    let input = SsspInput::random(g, 0, 100, &mut rng);
    let reference = input.dijkstra();
    let (space, op) = SsspOp::new(input);
    drain_lanes(&space, &op, op.initial_tasks(), workers, batch, &mut rng);
    let mut op = op;
    assert_eq!(op.distances(), reference);
}

#[test]
fn sssp_pipelined_matches_dijkstra_w1() {
    for batch in WIDE_BATCHES {
        sssp_pipelined(1, batch, 101);
    }
}

#[test]
fn sssp_pipelined_matches_dijkstra_w2() {
    for batch in WIDE_BATCHES {
        sssp_pipelined(2, batch, 104);
    }
}

#[test]
fn sssp_pipelined_matches_dijkstra_w4() {
    for batch in WIDE_BATCHES {
        sssp_pipelined(4, batch, 102);
    }
}

#[test]
fn sssp_pipelined_matches_dijkstra_w8() {
    for batch in WIDE_BATCHES {
        sssp_pipelined(8, batch, 103);
    }
}

/// Boruvka against Kruskal: components merge under speculation, the
/// hardest case for lane-scoped lock retirement.
fn boruvka_pipelined(workers: usize, batch: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen::random_with_avg_degree(600, 6.0, &mut rng);
    let wg = WeightedGraph::random(g, &mut rng);
    let reference = wg.kruskal();
    let (space, op) = BoruvkaOp::new(&wg);
    drain_lanes(&space, &op, op.initial_tasks(), workers, batch, &mut rng);
    let mut op = op;
    assert_eq!(op.msf(), reference);
}

#[test]
fn boruvka_pipelined_matches_kruskal_w1() {
    for batch in BATCHES {
        boruvka_pipelined(1, batch, 111);
    }
}

#[test]
fn boruvka_pipelined_matches_kruskal_w4() {
    for batch in BATCHES {
        boruvka_pipelined(4, batch, 112);
    }
}

#[test]
fn boruvka_pipelined_matches_kruskal_w8() {
    for batch in BATCHES {
        boruvka_pipelined(8, batch, 113);
    }
}

/// The unit square over 40 random interior points, to be refined
/// down to triangles of area ≤ 2e-3.
fn delaunay_input(rng: &mut StdRng) -> (Mesh, RefineConfig) {
    let mut pts = vec![
        Point::new(0.0, 0.0),
        Point::new(1.0, 0.0),
        Point::new(1.0, 1.0),
        Point::new(0.0, 1.0),
    ];
    pts.extend((0..40).map(|_| Point::new(rng.random::<f64>(), rng.random::<f64>())));
    (Mesh::delaunay(&pts), RefineConfig::area_only(2e-3))
}

/// What a drained refinement owes: a valid mesh of the whole square
/// with no bad triangle left.
fn check_refined(op: DelaunayOp, cfg: RefineConfig) {
    let refined = op.into_mesh();
    refined.check_valid().unwrap();
    assert_eq!(bad_count(&refined, cfg), 0);
    assert!((refined.total_area() - 1.0).abs() < 1e-6);
}

/// Delaunay refinement: the mesh must end fully refined and valid
/// regardless of how batches interleaved.
fn delaunay_pipelined(workers: usize, batch: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mesh, cfg) = delaunay_input(&mut rng);
    let (space, mut op) = DelaunayOp::with_auto_capacity(&mesh, cfg);
    let tasks = op.initial_tasks();
    assert!(!tasks.is_empty());
    drain_lanes(&space, &op, tasks, workers, batch, &mut rng);
    check_refined(op, cfg);
}

#[test]
fn delaunay_pipelined_refines_fully_w1() {
    for batch in BATCHES {
        delaunay_pipelined(1, batch, 121);
    }
}

#[test]
fn delaunay_pipelined_refines_fully_w4() {
    for batch in BATCHES {
        delaunay_pipelined(4, batch, 122);
    }
}

#[test]
fn delaunay_pipelined_refines_fully_w8() {
    for batch in BATCHES {
        delaunay_pipelined(8, batch, 123);
    }
}

/// The matrix the one-task-per-node operators run: 1, 2 and 4 lanes,
/// each at every batch of [`WIDE_BATCHES`].
fn lane_matrix(mut drain: impl FnMut(usize, usize, &mut StdRng)) {
    for (i, workers) in [1, 2, 4].into_iter().enumerate() {
        for (j, batch) in WIDE_BATCHES.into_iter().enumerate() {
            drain(
                workers,
                batch,
                &mut StdRng::seed_from_u64(160 + (3 * i + j) as u64),
            );
        }
    }
}

fn small_graph(rng: &mut StdRng) -> CsrGraph {
    gen::random_with_avg_degree(600, 8.0, rng)
}

/// Greedy coloring: every node colored once, no edge monochrome.
#[test]
fn coloring_pipelined_is_proper() {
    lane_matrix(|workers, batch, rng| {
        let g = small_graph(rng);
        let (space, op) = ColoringOp::new(g.clone());
        let run = drain_lanes(&space, &op, op.initial_tasks(), workers, batch, rng);
        assert_eq!(run.total_committed(), g.node_count());
        let mut op = op;
        ColoringOp::validate(&g, &op.colors()).unwrap();
    });
}

/// Maximal independent set: every node decided once, the set
/// independent and maximal.
#[test]
fn mis_pipelined_is_maximal_independent() {
    lane_matrix(|workers, batch, rng| {
        let g = small_graph(rng);
        let (space, op) = MisOp::new(g.clone());
        let run = drain_lanes(&space, &op, op.initial_tasks(), workers, batch, rng);
        assert_eq!(run.total_committed(), g.node_count());
        let mut op = op;
        MisOp::validate(&g, &op.decisions()).unwrap();
    });
}

/// Maximal matching: one task per edge, partners symmetric along real
/// edges, no edge left with both ends free.
#[test]
fn matching_pipelined_is_maximal() {
    lane_matrix(|workers, batch, rng| {
        let g = small_graph(rng);
        let (space, op) = MatchingOp::new(g.clone());
        let run = drain_lanes(&space, &op, op.initial_tasks(), workers, batch, rng);
        assert_eq!(run.total_committed(), g.edge_count());
        let mut op = op;
        MatchingOp::validate(&g, &op.partners()).unwrap();
    });
}

/// The CC-graph mirror: adjacent tasks share exactly their edge's
/// lock, so this is the lane rule on the paper's own conflict
/// structure — every node's counter must read exactly one commit.
#[test]
fn ccmirror_pipelined_commits_each_node_once() {
    lane_matrix(|workers, batch, rng| {
        let g = small_graph(rng);
        let mut b = LockSpace::builder();
        let layout = CcMirror::layout(&g, &mut b);
        let space = b.build();
        let op = layout.finish(&space);
        let tasks = (0..g.node_count() as u32).collect();
        let run = drain_lanes(&space, &op, tasks, workers, batch, rng);
        assert_eq!(run.total_committed(), g.node_count());
        let mut op = op;
        assert!(op.node_data.snapshot().iter().all(|&c| c == 1));
    });
}

/// Preflow-push: whatever order the lanes discharged in, the flow is
/// feasible and its value is Edmonds–Karp's.
#[test]
fn preflow_pipelined_matches_edmonds_karp() {
    lane_matrix(|workers, batch, rng| {
        let g = gen::random_with_avg_degree(60, 5.0, rng);
        let net = FlowNetwork::random(g, 1, 58, 15, rng);
        let reference = net.edmonds_karp();
        let (space, op, active) = PreflowOp::new(net);
        drain_lanes(&space, &op, active, workers, batch, rng);
        let mut op = op;
        op.validate().unwrap();
        assert_eq!(op.flow_value(), reference);
    });
}

/// Agglomerative clustering: well-separated blobs, merged under any
/// interleaving, partition the points into exactly those blobs.
#[test]
fn clustering_pipelined_resolves_the_blobs() {
    lane_matrix(|workers, batch, rng| {
        let (space, op) = ClusteringOp::new(blobs(4, 12, 1000.0, 1.0, rng), 8, 10.0);
        drain_lanes(&space, &op, op.initial_tasks(), workers, batch, rng);
        let mut op = op;
        op.validate().unwrap();
        assert_eq!(op.final_clusters().len(), 4);
    });
}

/// Survey propagation: the asynchronous updates quiesce at the fixed
/// point the sequential Gauss–Seidel sweep reaches.
#[test]
fn survey_pipelined_reaches_the_sequential_fixed_point() {
    lane_matrix(|workers, batch, rng| {
        let f = Formula::random_3sat(60, 120, rng); // α = 2
        let (reference, _) = sp_sequential(&f, 1e-9, 2000, 0.5).unwrap();
        let (space, op) = SurveyOp::new(f, 1e-9, 0.5);
        drain_lanes(&space, &op, op.initial_tasks(), workers, batch, rng);
        let mut op = op;
        for (a, b) in reference.iter().zip(&op.surveys()) {
            assert!((0..3).all(|s| (a[s] - b[s]).abs() < 1e-6), "{a:?} vs {b:?}");
        }
    });
}

/// Fault-injection matrix: same equivalence contract under a seeded
/// ~10% injected-fault schedule, plus ledger/log reconciliation. In
/// pipelined mode fault coordinates key on the batch tag (a retried
/// task re-rolls under a fresh tag), so the plan ledger and the
/// executor's fault log must agree on `(tag, slot)` pairs.
#[cfg(feature = "faults")]
mod injected {
    use super::*;
    use optpar::runtime::{FaultCause, FaultKind, FaultPlan, Operator, TaskFault};

    fn audit_faults<O: Operator>(ex: &Executor<'_, O>, plan: &FaultPlan) {
        assert_eq!(ex.worker_panics(), 0, "a panic escaped containment");
        assert!(
            plan.fired_count() > 0,
            "the plan never fired; test is vacuous"
        );
        let log: Vec<TaskFault> = ex.take_faults();
        assert!(
            log.iter().all(|f| f.cause == FaultCause::Injected),
            "only injected faults expected, got {log:?}"
        );
        let mut fired: Vec<(u64, usize)> = plan
            .fired()
            .into_iter()
            .filter(|r| matches!(r.kind, FaultKind::Panic | FaultKind::SpuriousAbort))
            .map(|r| (r.epoch, r.slot))
            .collect();
        let mut logged: Vec<(u64, usize)> = log
            .iter()
            .map(|f| (f.epoch, f.slot.expect("task faults carry a slot")))
            .collect();
        fired.sort_unstable();
        logged.sort_unstable();
        assert_eq!(fired, logged, "fault ledger and fault log disagree");
    }

    fn sssp_faulted(workers: usize, batch: usize, seed: u64, plan_seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_with_avg_degree(800, 6.0, &mut rng);
        let input = SsspInput::random(g, 0, 100, &mut rng);
        let reference = input.dijkstra();
        let (space, op) = SsspOp::new(input);
        let plan = FaultPlan::seeded(plan_seed).with_panic_rate(0.10);
        let mut ex = Executor::new(&op, &space, config(workers));
        ex.set_fault_plan(&plan);
        let mut ws = WorkSet::from_vec(op.initial_tasks());
        let mut ctl = controller();
        let _ = ex.run_pipelined(&mut ws, &mut ctl, pipe_cfg(batch), &mut rng);
        assert!(ws.is_empty());
        audit_faults(&ex, &plan);
        drop(ex);
        let mut op = op;
        assert_eq!(op.distances(), reference);
    }

    #[test]
    fn sssp_pipelined_with_injected_panics_w1() {
        for batch in WIDE_BATCHES {
            sssp_faulted(1, batch, 131, 2001);
        }
    }

    #[test]
    fn sssp_pipelined_with_injected_panics_w2() {
        for batch in WIDE_BATCHES {
            sssp_faulted(2, batch, 134, 2004);
        }
    }

    #[test]
    fn sssp_pipelined_with_injected_panics_w4() {
        for batch in WIDE_BATCHES {
            sssp_faulted(4, batch, 132, 2002);
        }
    }

    #[test]
    fn sssp_pipelined_with_injected_panics_w8() {
        for batch in WIDE_BATCHES {
            sssp_faulted(8, batch, 133, 2003);
        }
    }

    #[test]
    fn boruvka_pipelined_with_mixed_faults() {
        for batch in BATCHES {
            let mut rng = StdRng::seed_from_u64(141);
            let g = gen::random_with_avg_degree(600, 6.0, &mut rng);
            let wg = WeightedGraph::random(g, &mut rng);
            let reference = wg.kruskal();
            let (space, op) = BoruvkaOp::new(&wg);
            // Panics exercise unwinding rollback inside a lane batch,
            // spurious aborts the structured lane-scoped release.
            let plan = FaultPlan::seeded(2004)
                .with_panic_rate(0.07)
                .with_spurious_abort_rate(0.05);
            let mut ex = Executor::new(&op, &space, config(4));
            ex.set_fault_plan(&plan);
            let mut ws = WorkSet::from_vec(op.initial_tasks());
            let mut ctl = controller();
            let _ = ex.run_pipelined(&mut ws, &mut ctl, pipe_cfg(batch), &mut rng);
            assert!(ws.is_empty());
            audit_faults(&ex, &plan);
            drop(ex);
            let mut op = op;
            assert_eq!(op.msf(), reference);
        }
    }

    #[test]
    fn delaunay_pipelined_with_injected_panics() {
        for batch in BATCHES {
            let mut rng = StdRng::seed_from_u64(151);
            let (mesh, cfg) = delaunay_input(&mut rng);
            let (space, mut op) = DelaunayOp::with_auto_capacity(&mesh, cfg);
            let tasks = op.initial_tasks();
            let plan = FaultPlan::seeded(2005).with_panic_rate(0.10);
            let mut ex = Executor::new(&op, &space, config(4));
            ex.set_fault_plan(&plan);
            let mut ws = WorkSet::from_vec(tasks);
            let mut ctl = controller();
            let _ = ex.run_pipelined(&mut ws, &mut ctl, pipe_cfg(batch), &mut rng);
            assert!(ws.is_empty());
            audit_faults(&ex, &plan);
            drop(ex);
            check_refined(op, cfg);
        }
    }
}
