//! **TAB-RT** — the experiment the paper leaves as future work ("the
//! proposed control heuristic is now being integrated in the Galois
//! system"): run real irregular applications on the speculative
//! runtime under (a) fixed allocations and (b) the adaptive hybrid
//! controller, and compare rounds-to-completion, abort ratio, and
//! wasted work.
//!
//! Expected shape: small fixed m wastes rounds (under-parallelized);
//! large fixed m wastes work (aborts); the hybrid controller lands near
//! the best fixed point *without knowing it in advance*, pinning the
//! abort ratio near ρ.
//!
//! Usage: `repro tab-rt [--csv]`

use optpar_apps::boruvka::{BoruvkaOp, WeightedGraph};
use optpar_apps::clustering::{blobs, ClusteringOp};
use optpar_apps::coloring::ColoringOp;
use optpar_apps::delaunay::{DelaunayOp, RefineConfig};
use optpar_apps::geometry::Point;
use optpar_apps::misapp::MisOp;
use optpar_apps::sssp::{SsspInput, SsspOp};
use optpar_apps::survey::{Formula, SurveyOp};
use optpar_apps::triangulation::Mesh;
use optpar_bench::{f, pct, Table, SEED};
use optpar_core::control::{Controller, FixedController, HybridController, HybridParams};
use optpar_graph::gen;
use optpar_runtime::{Executor, ExecutorConfig, Operator, RunStats, WorkSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Drain `tasks` in the paper's rounds (`Executor::run_rounds`), so
/// `rounds` counts rounds, not lane windows or solo steps.
fn drive<O: Operator, C: Controller + Send>(
    op: &O,
    space: &optpar_runtime::LockSpace,
    tasks: Vec<O::Task>,
    mut ctl: C,
    seed: u64,
) -> RunStats {
    let cfg = ExecutorConfig {
        workers: 1,
        ..ExecutorConfig::default()
    };
    let ex = Executor::new(op, space, cfg);
    let mut ws = WorkSet::from_vec(tasks);
    let mut rng = StdRng::seed_from_u64(seed);
    ex.run_rounds(&mut ws, &mut ctl, 5_000_000, &mut rng)
}

fn report(table: &mut Table, app: &str, policy: &str, run: &RunStats) {
    table.row([
        app.to_string(),
        policy.to_string(),
        run.round_count().to_string(),
        run.total_launched().to_string(),
        run.total_committed().to_string(),
        pct(run.overall_conflict_ratio()),
        f(run.commits_per_round(), 1),
    ]);
}

pub fn run(csv: bool) {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut table = Table::new([
        "app",
        "allocation",
        "rounds",
        "launched",
        "committed",
        "abort%",
        "commits/round",
    ]);
    let rho = 0.25;
    let fixed = [4usize, 32, 256, 1024];

    // --- Maximal independent set ------------------------------------
    {
        let g = gen::random_with_avg_degree(20_000, 12.0, &mut rng);
        for &m in &fixed {
            let (space, op) = MisOp::new(g.clone());
            let run = drive(&op, &space, op.initial_tasks(), FixedController::new(m), 1);
            report(&mut table, "mis", &format!("fixed {m}"), &run);
        }
        let (space, op) = MisOp::new(g.clone());
        let run = drive(
            &op,
            &space,
            op.initial_tasks(),
            HybridController::new(HybridParams {
                rho,
                m_max: 4096,
                ..HybridParams::default()
            }),
            1,
        );
        report(&mut table, "mis", "hybrid", &run);
        let mut op = op;
        MisOp::validate(&g, &op.decisions()).expect("valid MIS");
    }

    // --- Greedy colouring --------------------------------------------
    {
        let g = gen::random_with_avg_degree(20_000, 12.0, &mut rng);
        for &m in &fixed {
            let (space, op) = ColoringOp::new(g.clone());
            let run = drive(&op, &space, op.initial_tasks(), FixedController::new(m), 2);
            report(&mut table, "coloring", &format!("fixed {m}"), &run);
        }
        let (space, op) = ColoringOp::new(g.clone());
        let run = drive(
            &op,
            &space,
            op.initial_tasks(),
            HybridController::new(HybridParams {
                rho,
                m_max: 4096,
                ..HybridParams::default()
            }),
            2,
        );
        report(&mut table, "coloring", "hybrid", &run);
        let mut op = op;
        ColoringOp::validate(&g, &op.colors()).expect("proper colouring");
    }

    // --- Boruvka MST ---------------------------------------------------
    {
        let g = gen::random_with_avg_degree(5_000, 8.0, &mut rng);
        let wg = WeightedGraph::random(g, &mut rng);
        let (kw, kc) = wg.kruskal();
        for &m in &fixed {
            let (space, op) = BoruvkaOp::new(&wg);
            let run = drive(&op, &space, op.initial_tasks(), FixedController::new(m), 3);
            report(&mut table, "boruvka", &format!("fixed {m}"), &run);
        }
        let (space, op) = BoruvkaOp::new(&wg);
        let run = drive(
            &op,
            &space,
            op.initial_tasks(),
            HybridController::new(HybridParams {
                rho,
                m_max: 4096,
                ..HybridParams::default()
            }),
            3,
        );
        report(&mut table, "boruvka", "hybrid", &run);
        let mut op = op;
        assert_eq!(op.msf(), (kw, kc), "MSF must match Kruskal");
    }

    // --- SSSP (delta-stepping tasks, lazy deletion) ---------------------
    {
        let g = gen::random_with_avg_degree(20_000, 8.0, &mut rng);
        let input = SsspInput::random(g, 0, 1000, &mut rng);
        let reference = input.dijkstra();
        for &m in &fixed {
            let (space, op) = SsspOp::new(input.clone());
            let run = drive(&op, &space, op.initial_tasks(), FixedController::new(m), 5);
            report(&mut table, "sssp", &format!("fixed {m}"), &run);
        }
        let (space, op) = SsspOp::new(input);
        let run = drive(
            &op,
            &space,
            op.initial_tasks(),
            HybridController::new(HybridParams {
                rho,
                m_max: 4096,
                ..HybridParams::default()
            }),
            5,
        );
        report(&mut table, "sssp", "hybrid", &run);
        let mut op = op;
        assert_eq!(op.distances(), reference, "SSSP must match Dijkstra");
    }

    // --- Delaunay refinement -------------------------------------------
    {
        let mut pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ];
        pts.extend((0..100).map(|_| Point::new(rng.random::<f64>(), rng.random::<f64>())));
        let mesh = Mesh::delaunay(&pts);
        let cfg = RefineConfig::area_only(2e-4);
        for &m in &fixed {
            let (space, mut op) = DelaunayOp::with_auto_capacity(&mesh, cfg);
            let tasks = op.initial_tasks();
            let run = drive(&op, &space, tasks, FixedController::new(m), 4);
            report(&mut table, "delaunay", &format!("fixed {m}"), &run);
        }
        let (space, mut op) = DelaunayOp::with_auto_capacity(&mesh, cfg);
        let tasks = op.initial_tasks();
        let run = drive(
            &op,
            &space,
            tasks,
            HybridController::new(HybridParams {
                rho,
                m_max: 4096,
                ..HybridParams::default()
            }),
            4,
        );
        report(&mut table, "delaunay", "hybrid", &run);
        let out = op.into_mesh();
        out.check_valid().expect("valid mesh");
        assert_eq!(optpar_apps::delaunay::bad_count(&out, cfg), 0);
    }

    // --- Agglomerative clustering ----------------------------------------
    {
        // 2000 points. k = 16: "one cluster per blob" below needs each
        // blob's k-NN candidate graph connected, which k = 8 does not
        // guarantee for a 125-point Gaussian blob.
        let pts = blobs(16, 125, 500.0, 2.0, &mut rng);
        for &m in &fixed {
            let (space, op) = ClusteringOp::new(pts.clone(), 16, 20.0);
            let run = drive(&op, &space, op.initial_tasks(), FixedController::new(m), 6);
            report(&mut table, "clustering", &format!("fixed {m}"), &run);
        }
        let (space, op) = ClusteringOp::new(pts, 16, 20.0);
        let run = drive(
            &op,
            &space,
            op.initial_tasks(),
            HybridController::new(HybridParams {
                rho,
                m_max: 4096,
                ..HybridParams::default()
            }),
            6,
        );
        report(&mut table, "clustering", "hybrid", &run);
        let mut op = op;
        op.validate().expect("valid clustering partition");
        assert_eq!(op.final_clusters().len(), 16, "one cluster per blob");
    }

    // --- Survey propagation ---------------------------------------------
    {
        let f = Formula::random_3sat(2000, 4000, &mut rng); // α = 2
        for &m in &fixed {
            let (space, op) = SurveyOp::new(f.clone(), 1e-7, 0.5);
            let run = drive(&op, &space, op.initial_tasks(), FixedController::new(m), 7);
            report(&mut table, "survey-prop", &format!("fixed {m}"), &run);
        }
        let (space, op) = SurveyOp::new(f, 1e-7, 0.5);
        let run = drive(
            &op,
            &space,
            op.initial_tasks(),
            HybridController::new(HybridParams {
                rho,
                m_max: 4096,
                ..HybridParams::default()
            }),
            7,
        );
        report(&mut table, "survey-prop", "hybrid", &run);
        let mut op = op;
        let max_eta = op
            .surveys()
            .iter()
            .flat_map(|e| e.iter())
            .fold(0.0f64, |a, &b| a.max(b));
        assert!(max_eta < 1e-4, "α = 2 must reach the paramagnetic point");
    }

    println!("TAB-RT: end-to-end runtime comparison, ρ = 25%, workers = 1 (rounds)");
    table.print(
        "§5 — adaptive allocation inside the real speculative runtime",
        csv,
    );
}
