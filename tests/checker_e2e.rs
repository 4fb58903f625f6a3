//! End-to-end speculation-safety audits (`--features checker`).
//!
//! Each application runs to completion with the [`optpar::runtime::checker`]
//! sink armed in its default `Panic` mode: every round's task traces go
//! through the Eraser-style lockset analysis, and sequential
//! (`workers == 1`) rounds additionally replay the greedy commit rule
//! through the commit-set oracle. A single finding — race, uncovered
//! access, phantom conflict, or oracle divergence — aborts the test
//! with a structured report, so "the test passed" means "the runtime's
//! locking discipline held on every round of a real workload".

#![cfg(feature = "checker")]

use optpar::apps::boruvka::{BoruvkaOp, WeightedGraph};
use optpar::apps::delaunay::{bad_count, DelaunayOp, RefineConfig};
use optpar::apps::geometry::Point;
use optpar::apps::sssp::{SsspInput, SsspOp};
use optpar::apps::triangulation::Mesh;
use optpar::core::control::{FixedController, HybridController, HybridParams};
use optpar::graph::gen;
use optpar::runtime::checker::CheckerMode;
use optpar::runtime::{
    Abort, Executor, ExecutorConfig, LockSpace, Operator, PipelinedConfig, SpecStore, TaskCtx,
    WorkSet,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};

fn controller() -> HybridController {
    HybridController::new(HybridParams {
        rho: 0.25,
        m_max: 1024,
        ..HybridParams::default()
    })
}

fn config(workers: usize) -> ExecutorConfig {
    ExecutorConfig {
        workers,
        ..ExecutorConfig::default()
    }
}

/// SSSP against Dijkstra. Sequential rounds put the commit-set oracle
/// in the loop on top of the race checks.
fn sssp_audited(workers: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen::random_with_avg_degree(600, 6.0, &mut rng);
    let input = SsspInput::random(g, 0, 100, &mut rng);
    let reference = input.dijkstra();
    let (space, op) = SsspOp::new(input);
    let ex = Executor::new(&op, &space, config(workers));
    let mut ws = WorkSet::from_vec(op.initial_tasks());
    let mut ctl = controller();
    let _ = ex.run_with_controller(&mut ws, &mut ctl, 1_000_000, &mut rng);
    assert!(ws.is_empty());
    // Panic mode means any finding already aborted the run; make the
    // "clean audit" claim explicit anyway.
    assert_eq!(space.audit().report_count(), 0);
    assert!(op.dist.raw_access_count() > 0, "audited accesses recorded");
    let mut op = op;
    assert_eq!(op.distances(), reference);
}

#[test]
fn sssp_clean_audit_sequential_with_oracle() {
    sssp_audited(1, 11);
}

#[test]
fn sssp_clean_audit_parallel() {
    sssp_audited(4, 12);
}

/// More workers than cores: a task is preempted between its unlocked
/// bound peek and the lock it takes next, so lowerings land in between.
#[test]
fn sssp_clean_audit_oversubscribed() {
    sssp_audited(8, 13);
}

/// Boruvka against Kruskal: a morphing workload (components merge),
/// the hardest case for the lockset discipline.
fn boruvka_audited(workers: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen::random_with_avg_degree(500, 6.0, &mut rng);
    let wg = WeightedGraph::random(g, &mut rng);
    let reference = wg.kruskal();
    let (space, op) = BoruvkaOp::new(&wg);
    let ex = Executor::new(&op, &space, config(workers));
    let mut ws = WorkSet::from_vec(op.initial_tasks());
    let mut ctl = controller();
    let _ = ex.run_with_controller(&mut ws, &mut ctl, 1_000_000, &mut rng);
    assert!(ws.is_empty());
    assert_eq!(space.audit().report_count(), 0);
    let mut op = op;
    assert_eq!(op.msf(), reference);
}

#[test]
fn boruvka_clean_audit_sequential_with_oracle() {
    boruvka_audited(1, 21);
}

#[test]
fn boruvka_clean_audit_parallel() {
    boruvka_audited(4, 22);
}

/// Delaunay refinement: cavity re-triangulation touches a variable
/// neighbourhood per task, exercising multi-lock acquire/release under
/// the audit.
fn delaunay_audited(workers: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pts = vec![
        Point::new(0.0, 0.0),
        Point::new(1.0, 0.0),
        Point::new(1.0, 1.0),
        Point::new(0.0, 1.0),
    ];
    pts.extend((0..40).map(|_| Point::new(rng.random::<f64>(), rng.random::<f64>())));
    let mesh = Mesh::delaunay(&pts);
    let cfg = RefineConfig::area_only(2e-3);
    let (space, mut op) = DelaunayOp::with_auto_capacity(&mesh, cfg);
    let tasks = op.initial_tasks();
    assert!(!tasks.is_empty());
    let ex = Executor::new(&op, &space, config(workers));
    let mut ws = WorkSet::from_vec(tasks);
    let mut ctl = controller();
    let _ = ex.run_with_controller(&mut ws, &mut ctl, 1_000_000, &mut rng);
    assert!(ws.is_empty());
    assert_eq!(space.audit().report_count(), 0);
    let refined = op.into_mesh();
    refined.check_valid().unwrap();
    assert_eq!(bad_count(&refined, cfg), 0);
}

#[test]
fn delaunay_clean_audit_sequential_with_oracle() {
    delaunay_audited(1, 31);
}

#[test]
fn delaunay_clean_audit_parallel() {
    delaunay_audited(4, 32);
}

/// Eight disjoint writers; task 3 asks for an abort the first time it
/// runs and commits on the retry.
struct AbortOnceOp<'s> {
    store: &'s SpecStore<u32>,
    armed: AtomicBool,
}

impl Operator for AbortOnceOp<'_> {
    type Task = usize;

    fn execute(&self, &i: &usize, cx: &mut TaskCtx<'_>) -> Result<Vec<usize>, Abort> {
        *cx.write(self.store, i)? += 1;
        if i == 3 && self.armed.swap(false, Ordering::AcqRel) {
            cx.abort_requested()?;
        }
        Ok(vec![])
    }
}

/// Regression: an operator-requested abort must reach the commit-set
/// oracle as `AbortRequested` in *every* mode. The pipelined loop used
/// to carry its own copy of the task-outcome match that dropped the
/// note, so a one-worker pipelined drain reported a false
/// `OracleDivergence { missing: [3] }`.
#[test]
fn requested_abort_is_excused_in_round_and_pipelined_modes() {
    for pipelined in [false, true] {
        let mut b = LockSpace::builder();
        let r = b.region(8);
        let space = b.build();
        space.audit().set_mode(CheckerMode::Collect);
        let store = SpecStore::filled(r, 8, 0u32);
        let op = AbortOnceOp {
            store: &store,
            armed: AtomicBool::new(true),
        };
        let ex = Executor::new(&op, &space, config(1));
        let mut ws = WorkSet::from_vec((0..8usize).collect::<Vec<_>>());
        let mut ctl = FixedController::new(4);
        let mut rng = StdRng::seed_from_u64(41);
        let run = if pipelined {
            let cfg = PipelinedConfig {
                window: 4,
                batch: 4,
                max_completions: usize::MAX,
            };
            ex.run_pipelined(&mut ws, &mut ctl, cfg, &mut rng)
        } else {
            ex.run_with_controller(&mut ws, &mut ctl, 1_000, &mut rng)
        };
        assert!(ws.is_empty());
        assert_eq!(run.total_committed(), 8);
        assert_eq!(run.total_aborted(), 1, "task 3 aborted exactly once");
        let reports = space.audit().take_reports();
        assert!(
            reports.is_empty(),
            "pipelined = {pipelined}: requested abort flagged: {reports:?}"
        );
    }
}
