//! Fault-injection end-to-end runs (feature `faults`): the real
//! applications, a parallel pool, and a seeded ~10% injected-fault
//! schedule. The contract under fire is the same as the fault-free
//! one — results match the sequential references — plus the fault
//! layer's own books: zero worker-thread deaths, and every injected
//! fault that fired is accounted in the executor's fault log at the
//! same `(epoch, slot)` coordinate.
#![cfg(feature = "faults")]

use optpar::apps::boruvka::{BoruvkaOp, WeightedGraph};
use optpar::apps::delaunay::{bad_count, DelaunayOp, RefineConfig};
use optpar::apps::geometry::Point;
use optpar::apps::sssp::{SsspInput, SsspOp};
use optpar::apps::triangulation::Mesh;
use optpar::core::control::{HybridController, HybridParams};
use optpar::graph::gen;
use optpar::runtime::{
    Executor, ExecutorConfig, FaultCause, FaultKind, FaultPlan, Operator, TaskFault, WorkSet,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WORKERS: usize = 4;

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

/// Post-run fault audit: no panic escaped to the pool, something
/// actually fired, no genuine operator panic slipped in, and the plan's
/// ledger matches the executor's log entry-for-entry.
fn audit<O: Operator>(ex: &Executor<'_, O>, plan: &FaultPlan) {
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

/// A panicking task may already have published bounds for distances
/// its rollback then undoes; the retry must write them again
/// (`SsspOp::distances` checks every bound ended at its distance).
fn sssp_faulted(workers: usize, seed: u64, plan_seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen::random_with_avg_degree(1200, 6.0, &mut rng);
    let input = SsspInput::random(g, 0, 100, &mut rng);
    let reference = input.dijkstra();
    let (space, op) = SsspOp::new(input);
    let plan = FaultPlan::seeded(plan_seed).with_panic_rate(0.10);
    let mut ex = Executor::new(&op, &space, config(workers));
    ex.set_fault_plan(&plan);
    let mut ws = WorkSet::from_vec(op.initial_tasks());
    let mut ctl = controller();
    let _ = ex.run_with_controller(&mut ws, &mut ctl, 10_000_000, &mut rng);
    assert!(ws.is_empty());
    audit(&ex, &plan);
    drop(ex);
    let mut op = op;
    assert_eq!(op.distances(), reference);
}

#[test]
fn sssp_with_injected_panics_matches_dijkstra() {
    sssp_faulted(WORKERS, 41, 1001);
}

/// More workers than cores.
#[test]
fn sssp_with_injected_panics_oversubscribed() {
    sssp_faulted(8, 44, 1004);
}

#[test]
fn boruvka_with_injected_faults_matches_kruskal() {
    let mut rng = StdRng::seed_from_u64(42);
    let g = gen::random_with_avg_degree(1000, 6.0, &mut rng);
    let wg = WeightedGraph::random(g, &mut rng);
    let reference = wg.kruskal();
    let (space, op) = BoruvkaOp::new(&wg);
    // Mixed schedule: panics exercise unwinding rollback, spurious
    // aborts exercise the structured-abort path.
    let plan = FaultPlan::seeded(1002)
        .with_panic_rate(0.07)
        .with_spurious_abort_rate(0.05);
    let mut ex = Executor::new(&op, &space, config(WORKERS));
    ex.set_fault_plan(&plan);
    let mut ws = WorkSet::from_vec(op.initial_tasks());
    let mut ctl = controller();
    let _ = ex.run_with_controller(&mut ws, &mut ctl, 10_000_000, &mut rng);
    assert!(ws.is_empty());
    audit(&ex, &plan);
    drop(ex);
    let mut op = op;
    assert_eq!(op.msf(), reference);
}

#[test]
fn delaunay_with_injected_panics_refines_fully() {
    let mut rng = StdRng::seed_from_u64(43);
    let mut pts = vec![
        Point::new(0.0, 0.0),
        Point::new(1.0, 0.0),
        Point::new(1.0, 1.0),
        Point::new(0.0, 1.0),
    ];
    pts.extend((0..50).map(|_| Point::new(rng.random::<f64>(), rng.random::<f64>())));
    let mesh = Mesh::delaunay(&pts);
    let cfg = RefineConfig::area_only(1e-3);
    let (space, mut op) = DelaunayOp::with_auto_capacity(&mesh, cfg);
    let tasks = op.initial_tasks();
    assert!(!tasks.is_empty());
    let plan = FaultPlan::seeded(1003).with_panic_rate(0.10);
    let mut ex = Executor::new(&op, &space, config(WORKERS));
    ex.set_fault_plan(&plan);
    let mut ws = WorkSet::from_vec(tasks);
    let mut ctl = controller();
    let _ = ex.run_with_controller(&mut ws, &mut ctl, 10_000_000, &mut rng);
    assert!(ws.is_empty());
    audit(&ex, &plan);
    drop(ex);
    let refined = op.into_mesh();
    refined.check_valid().unwrap();
    assert_eq!(bad_count(&refined, cfg), 0);
    assert!((refined.total_area() - 1.0).abs() < 1e-6);
}
