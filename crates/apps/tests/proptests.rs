//! Property-based tests for the applications and their geometric
//! substrate.

use optpar_apps::boruvka::{BoruvkaOp, EdgeRuns, WeightedGraph};
use optpar_apps::coloring::{sequential_coloring, ColoringOp};
use optpar_apps::geometry::{self, Point};
use optpar_apps::matching::{sequential_matching, MatchingOp};
use optpar_apps::misapp::{sequential_mis, MisOp};
use optpar_apps::preflow::{FlowNetwork, PreflowOp};
use optpar_apps::sssp::{SsspInput, SsspOp};
use optpar_apps::triangulation::Mesh;
use optpar_graph::{CsrGraph, NodeId};
use optpar_runtime::{Executor, ExecutorConfig, WorkSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn edges(n: usize, max_edges: usize) -> impl Strategy<Value = Vec<(NodeId, NodeId)>> {
    prop::collection::vec((0..n as NodeId, 0..n as NodeId), 0..=max_edges)
}

/// Non-degenerate triangle corners in a bounded box.
fn triangle() -> impl Strategy<Value = (Point, Point, Point)> {
    let pt = (-100.0f64..100.0, -100.0f64..100.0).prop_map(|(x, y)| Point::new(x, y));
    (pt.clone(), pt.clone(), pt).prop_filter("non-degenerate", |(a, b, c)| {
        geometry::area(*a, *b, *c) > 1e-3
    })
}

proptest! {
    #[test]
    fn circumcenter_is_equidistant((a, b, c) in triangle()) {
        let cc = geometry::circumcenter(a, b, c).expect("non-degenerate");
        let (ra, rb, rc) = (cc.dist(a), cc.dist(b), cc.dist(c));
        let r = ra.max(rb).max(rc);
        prop_assert!((ra - rb).abs() < 1e-6 * r.max(1.0));
        prop_assert!((ra - rc).abs() < 1e-6 * r.max(1.0));
    }

    #[test]
    fn centroid_inside_and_incircle((a, b, c) in triangle()) {
        let g = geometry::centroid(a, b, c);
        // Orient CCW first.
        let (a, b, c) = if geometry::signed_area2(a, b, c) > 0.0 {
            (a, b, c)
        } else {
            (a, c, b)
        };
        prop_assert!(geometry::point_in_triangle(a, b, c, g));
        prop_assert!(geometry::in_circle(a, b, c, g), "centroid is inside the circumcircle");
    }

    #[test]
    fn min_angle_at_most_60_degrees((a, b, c) in triangle()) {
        let ang = geometry::min_angle(a, b, c);
        prop_assert!(ang > 0.0);
        prop_assert!(ang <= std::f64::consts::FRAC_PI_3 + 1e-9);
    }

    /// Delaunay triangulation of corner-pinned random points: valid,
    /// Delaunay, and exactly covering the unit square.
    #[test]
    fn delaunay_triangulation_properties(
        raw in prop::collection::vec((0.01f64..0.99, 0.01f64..0.99), 3..25)
    ) {
        let mut pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ];
        pts.extend(raw.iter().map(|&(x, y)| Point::new(x, y)));
        // Deduplicate near-coincident points (degenerate for BW).
        pts.dedup_by(|a, b| a.dist2(*b) < 1e-12);
        let m = Mesh::delaunay(&pts);
        prop_assert!(m.check_valid().is_ok(), "{:?}", m.check_valid());
        prop_assert!(m.check_delaunay().is_ok(), "{:?}", m.check_delaunay());
        prop_assert!((m.total_area() - 1.0).abs() < 1e-6, "area {}", m.total_area());
    }

    /// Sequential references on arbitrary graphs.
    #[test]
    fn sequential_apps_valid(el in edges(20, 60)) {
        let g = CsrGraph::from_edges(20, &el);
        let order: Vec<NodeId> = (0..20).collect();
        MisOp::validate(&g, &sequential_mis(&g, &order)).unwrap();
        ColoringOp::validate(&g, &sequential_coloring(&g, &order)).unwrap();
    }

    /// Speculative MIS and colouring remain valid for arbitrary graphs,
    /// worker counts, and allocations.
    #[test]
    fn speculative_apps_valid(
        el in edges(24, 70),
        workers in 1usize..4,
        m in 1usize..16,
        seed in any::<u64>(),
    ) {
        let g = CsrGraph::from_edges(24, &el);
        let mut rng = StdRng::seed_from_u64(seed);

        let (space, op) = MisOp::new(g.clone());
        let ex = Executor::new(&op, &space, ExecutorConfig { workers, ..ExecutorConfig::default() });
        let mut ws = WorkSet::from_vec(op.initial_tasks());
        let mut guard = 0;
        while !ws.is_empty() {
            ex.run_round(&mut ws, m, &mut rng);
            guard += 1;
            prop_assert!(guard < 100_000);
        }
        let mut op = op;
        MisOp::validate(&g, &op.decisions()).unwrap();

        let (space, op) = ColoringOp::new(g.clone());
        let ex = Executor::new(&op, &space, ExecutorConfig { workers, ..ExecutorConfig::default() });
        let mut ws = WorkSet::from_vec(op.initial_tasks());
        while !ws.is_empty() {
            ex.run_round(&mut ws, m, &mut rng);
        }
        let mut op = op;
        ColoringOp::validate(&g, &op.colors()).unwrap();
    }

    /// Boruvka equals Kruskal for arbitrary graphs (distinct weights by
    /// construction).
    #[test]
    fn boruvka_equals_kruskal(el in edges(16, 40), seed in any::<u64>(), m in 1usize..10) {
        let g = CsrGraph::from_edges(16, &el);
        let mut rng = StdRng::seed_from_u64(seed);
        let wg = WeightedGraph::random(g, &mut rng);
        let reference = wg.kruskal();

        let (space, op) = BoruvkaOp::new(&wg);
        let ex = Executor::new(&op, &space, ExecutorConfig {
            workers: 2,
            ..ExecutorConfig::default()
        });
        let mut ws = WorkSet::from_vec(op.initial_tasks());
        let mut guard = 0;
        while !ws.is_empty() {
            ex.run_round(&mut ws, m, &mut rng);
            guard += 1;
            prop_assert!(guard < 100_000);
        }
        let mut op = op;
        prop_assert_eq!(op.msf(), reference);
    }

    /// Edge-run compaction under arbitrary merge orders (with pops in
    /// between, as stale edges are consumed): no edge is lost or
    /// duplicated, every run stays sorted, the queue yields the model's
    /// minimum, and right after a merge the run count is within
    /// ⌊log₂ m⌋ + 1 of the m edges left.
    #[test]
    fn edge_runs_compaction_keeps_edges_order_and_run_bound(
        sizes in prop::collection::vec(0usize..24, 2..14),
        ops in prop::collection::vec((any::<u16>(), any::<u16>(), 0usize..5), 1..40),
    ) {
        // Distinct weights, dealt round-robin so the runs interleave.
        let k = sizes.len();
        let mut model: Vec<Vec<u64>> = (0..k)
            .map(|q| (0..sizes[q]).map(|i| (i * k + q) as u64).collect())
            .collect();
        let mut queues: Vec<EdgeRuns> = model
            .iter()
            .map(|ws| {
                let sorted: Vec<_> = ws.iter().map(|&w| (w as u32, 0, w)).collect();
                EdgeRuns::from_sorted(&sorted)
            })
            .collect();
        for (a, b, pops) in ops {
            if queues.len() < 2 {
                break;
            }
            let into = a as usize % queues.len();
            for _ in 0..pops {
                prop_assert_eq!(queues[into].peek().map(|e| e.2), model[into].first().copied());
                queues[into].pop();
                if !model[into].is_empty() {
                    model[into].remove(0);
                }
            }
            let mut from = b as usize % queues.len();
            if from == into {
                from = (from + 1) % queues.len();
            }
            let (taken, taken_model) = (std::mem::take(&mut queues[from]), std::mem::take(&mut model[from]));
            queues[into].absorb(taken);
            model[into].extend(taken_model);
            model[into].sort_unstable();

            let q = &queues[into];
            let mut left: Vec<u64> = q.runs().flatten().map(|e| e.2).collect();
            left.sort_unstable();
            prop_assert_eq!(&left, &model[into]);
            for run in q.runs() {
                prop_assert!(!run.is_empty());
                prop_assert!(run.windows(2).all(|p| p[0].2 <= p[1].2));
                prop_assert!(run.iter().all(|e| u64::from(e.0) == e.2), "payload rides with its weight");
            }
            if let Some(log2) = left.len().checked_ilog2() {
                prop_assert!(q.runs().count() <= log2 as usize + 1,
                    "{} runs over {} edges", q.runs().count(), left.len());
            } else {
                prop_assert_eq!(q.runs().count(), 0);
            }
            queues.swap_remove(from);
            model.swap_remove(from);
        }
    }

    /// Speculative SSSP equals Dijkstra on arbitrary weighted graphs.
    #[test]
    fn sssp_equals_dijkstra(el in edges(20, 50), seed in any::<u64>(), m in 1usize..12) {
        let g = CsrGraph::from_edges(20, &el);
        let mut rng = StdRng::seed_from_u64(seed);
        let input = SsspInput::random(g, (seed % 20) as u32, 30, &mut rng);
        let reference = input.dijkstra();

        let (space, op) = SsspOp::new(input);
        let ex = Executor::new(&op, &space, ExecutorConfig {
            workers: 2,
            ..ExecutorConfig::default()
        });
        let mut ws = WorkSet::from_vec(op.initial_tasks());
        let mut guard = 0;
        while !ws.is_empty() {
            ex.run_round(&mut ws, m, &mut rng);
            guard += 1;
            prop_assert!(guard < 100_000);
        }
        let mut op = op;
        prop_assert_eq!(op.distances(), reference);
    }

    /// Speculative preflow-push equals Edmonds–Karp on arbitrary
    /// capacitated networks.
    #[test]
    fn preflow_equals_edmonds_karp(el in edges(12, 30), seed in any::<u64>(), m in 1usize..8) {
        let g = CsrGraph::from_edges(12, &el);
        let mut rng = StdRng::seed_from_u64(seed);
        let net = FlowNetwork::random(g, 0, 11, 9, &mut rng);
        let reference = net.edmonds_karp();

        let (space, op, active) = PreflowOp::new(net);
        let ex = Executor::new(&op, &space, ExecutorConfig {
            workers: 2,
            ..ExecutorConfig::default()
        });
        let mut ws = WorkSet::from_vec(active);
        let mut guard = 0;
        while !ws.is_empty() {
            ex.run_round(&mut ws, m, &mut rng);
            guard += 1;
            prop_assert!(guard < 500_000);
        }
        let mut op = op;
        prop_assert!(op.validate().is_ok());
        prop_assert_eq!(op.flow_value(), reference);
    }

    /// Maximal matching stays maximal for arbitrary graphs, worker
    /// counts, and allocations; size is a 2-approximation of greedy.
    #[test]
    fn matching_is_maximal(el in edges(18, 45), workers in 1usize..4, m in 1usize..12, seed in any::<u64>()) {
        let g = CsrGraph::from_edges(18, &el);
        let mut rng = StdRng::seed_from_u64(seed);
        let (space, op) = MatchingOp::new(g.clone());
        let ex = Executor::new(&op, &space, ExecutorConfig {
            workers,
            ..ExecutorConfig::default()
        });
        let mut ws = WorkSet::from_vec(op.initial_tasks());
        let mut guard = 0;
        while !ws.is_empty() {
            ex.run_round(&mut ws, m, &mut rng);
            guard += 1;
            prop_assert!(guard < 100_000);
        }
        let mut op = op;
        let p = op.partners();
        prop_assert!(MatchingOp::validate(&g, &p).is_ok());
        let greedy = MatchingOp::matching_size(&sequential_matching(&g));
        prop_assert!(2 * MatchingOp::matching_size(&p) >= greedy);
    }
}
