//! Cross-crate integration: every application runs end-to-end on the
//! speculative runtime under the adaptive controller, produces a valid
//! result, and the controller holds the conflict ratio near its
//! target.

use optpar::apps::boruvka::{BoruvkaOp, WeightedGraph};
use optpar::apps::coloring::ColoringOp;
use optpar::apps::delaunay::{bad_count, DelaunayOp, RefineConfig};
use optpar::apps::geometry::Point;
use optpar::apps::misapp::MisOp;
use optpar::apps::triangulation::Mesh;
use optpar::core::control::{HybridController, HybridParams};
use optpar::graph::gen;
use optpar::runtime::{Executor, ExecutorConfig, WorkSet};
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

#[test]
fn mis_under_adaptive_controller_parallel() {
    let mut rng = StdRng::seed_from_u64(1);
    let g = gen::random_with_avg_degree(3000, 10.0, &mut rng);
    let (space, op) = MisOp::new(g.clone());
    let ex = Executor::new(&op, &space, config(4));
    let mut ws = WorkSet::from_vec(op.initial_tasks());
    let mut ctl = controller();
    let run = ex.run_with_controller(&mut ws, &mut ctl, 1_000_000, &mut rng);
    assert!(ws.is_empty());
    assert_eq!(run.total_committed(), 3000);
    let mut op = op;
    MisOp::validate(&g, &op.decisions()).unwrap();
    // The adaptive run must be far more efficient than launching
    // everything at once would be.
    assert!(run.overall_conflict_ratio() < 0.5);
}

#[test]
fn coloring_under_adaptive_controller_parallel() {
    let mut rng = StdRng::seed_from_u64(2);
    let g = gen::random_with_avg_degree(3000, 10.0, &mut rng);
    let (space, op) = ColoringOp::new(g.clone());
    let ex = Executor::new(&op, &space, config(4));
    let mut ws = WorkSet::from_vec(op.initial_tasks());
    let mut ctl = controller();
    let run = ex.run_with_controller(&mut ws, &mut ctl, 1_000_000, &mut rng);
    assert!(ws.is_empty());
    assert_eq!(run.total_committed(), 3000);
    let mut op = op;
    ColoringOp::validate(&g, &op.colors()).unwrap();
}

#[test]
fn boruvka_matches_kruskal_under_controller() {
    let mut rng = StdRng::seed_from_u64(3);
    let g = gen::random_with_avg_degree(1000, 6.0, &mut rng);
    let wg = WeightedGraph::random(g, &mut rng);
    let reference = wg.kruskal();
    let (space, op) = BoruvkaOp::new(&wg);
    let ex = Executor::new(&op, &space, config(4));
    let mut ws = WorkSet::from_vec(op.initial_tasks());
    let mut ctl = controller();
    let _ = ex.run_with_controller(&mut ws, &mut ctl, 1_000_000, &mut rng);
    assert!(ws.is_empty());
    let mut op = op;
    assert_eq!(op.msf(), reference);
}

#[test]
fn delaunay_refines_under_controller() {
    let mut rng = StdRng::seed_from_u64(4);
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
    let ex = Executor::new(&op, &space, config(4));
    let mut ws = WorkSet::from_vec(tasks);
    let mut ctl = controller();
    let _ = ex.run_with_controller(&mut ws, &mut ctl, 1_000_000, &mut rng);
    assert!(ws.is_empty());
    let refined = op.into_mesh();
    refined.check_valid().unwrap();
    assert_eq!(bad_count(&refined, cfg), 0);
    assert!((refined.total_area() - 1.0).abs() < 1e-6);
}

#[test]
fn controller_holds_target_on_large_static_workload() {
    // Facade-level replay of the paper's main loop: steady-state r
    // must sit near ρ on a static plant.
    use optpar::core::sim::{run_loop, StaticGraphPlant};
    let mut rng = StdRng::seed_from_u64(5);
    let g = gen::random_with_avg_degree(4000, 20.0, &mut rng);
    let mut plant = StaticGraphPlant::new(g);
    let mut ctl = HybridController::new(HybridParams {
        rho: 0.2,
        m_max: 4096,
        ..HybridParams::default()
    });
    let tr = run_loop(&mut plant, &mut ctl, 400, &mut rng);
    let r = tr.steady_r(200);
    assert!((r - 0.2).abs() < 0.06, "steady r = {r}");
}
