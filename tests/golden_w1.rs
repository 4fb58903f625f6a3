//! Golden single-worker drains: `workers == 1` is bit-identical per
//! seed, across commits.
//!
//! One worker runs every round inline, so a drain is a pure function
//! of (input, seed, allocation): the work-set draw order, the
//! first-wins commit set and the requeue order are all deterministic.
//! These six `(rounds, launched, committed)` triples pin that function
//! on three full-size workloads under both engines — barrier rounds
//! (`run_round`) and pipelined windows (`run_pipelined`; "rounds"
//! counts window flushes). A change that moves any of them has changed
//! what the single-worker engine *does* (draw order, arbitration,
//! retry policy, window accounting), not merely how fast it does it,
//! and must say so.
//!
//! The three pipelined triples last moved for arbitration: a finished
//! holder's lock is free in a lane. A pipelined lane used to keep its
//! committed tasks' locks until the lane bump and report them as
//! conflicts, so a batch-of-4 drain aborted 25 / 363 / 130 launches
//! against predecessors that no longer existed — (79, 9990, 9965),
//! (50, 6362, 5999), (145, 18456, 18326). Now a later task takes such
//! a word over, `launched == committed`, and a one-worker pipelined
//! drain aborts nothing at all. The round triples did not move: on
//! lane 0 retention to the barrier is the model's commit rule.
//!
//! The sssp round triple last moved for the operator's lockset, not
//! for the engine: `SsspOp` skips, without locking, every neighbour
//! whose published bound its candidate cannot lower, so fewer tasks of
//! a barrier round share a lock word — (612, 19499, 18269), 1,230
//! aborts, became (579, 18471, 18383), 88 aborts. The commit count
//! moves with them (which lowerings land first decides how many
//! distances a node passes through). The sssp pipelined triple did
//! not move: at one worker a lane aborts nothing either way, so the
//! schedule is the same and only the lockset shrank.

use optpar::apps::boruvka::{BoruvkaOp, WeightedGraph};
use optpar::apps::delaunay::{DelaunayOp, RefineConfig};
use optpar::apps::geometry::Point;
use optpar::apps::sssp::{SsspInput, SsspOp};
use optpar::apps::triangulation::Mesh;
use optpar::core::control::FixedController;
use optpar::graph::gen;
use optpar::runtime::{Executor, ExecutorConfig, LockSpace, Operator, PipelinedConfig, WorkSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed of the one input stream all three workloads are generated
/// from, in order: delaunay points, boruvka graph + weights, sssp
/// graph + weights.
const SEED: u64 = 0x5eed_0971;

/// Per-round allocation (rounds) / in-flight budget (pipelined).
const M: usize = 32;

/// `(rounds, launched, committed)` of one drain to completion.
type Triple = (usize, usize, usize);

fn drain<O: Operator>(
    space: &LockSpace,
    op: &O,
    tasks: Vec<O::Task>,
    pipelined: bool,
    seed: u64,
) -> Triple {
    let ex = Executor::new(
        op,
        space,
        ExecutorConfig {
            workers: 1,
            ..ExecutorConfig::default()
        },
    );
    let mut ws = WorkSet::from_vec(tasks);
    let mut rng = StdRng::seed_from_u64(seed);
    let triple = if pipelined {
        let run = ex.run_pipelined(
            &mut ws,
            &mut FixedController::new(M),
            PipelinedConfig {
                window: 128,
                batch: 4,
                max_completions: usize::MAX,
            },
            &mut rng,
        );
        assert_eq!(run.total_aborted(), 0, "one lane has no live holder");
        (
            run.round_count(),
            run.total_launched(),
            run.total_committed(),
        )
    } else {
        let mut t = (0, 0, 0);
        while !ws.is_empty() {
            let rs = ex.run_round(&mut ws, M, &mut rng);
            t = (t.0 + 1, t.1 + rs.launched, t.2 + rs.committed);
        }
        t
    };
    assert!(ws.is_empty(), "drain did not finish");
    triple
}

#[test]
fn w1_drains_are_bit_identical_per_seed() {
    let mut rng = StdRng::seed_from_u64(SEED);

    // Delaunay refinement: 250 random points in the unit square,
    // max triangle area 2e-4.
    let mut pts = vec![
        Point::new(0.0, 0.0),
        Point::new(1.0, 0.0),
        Point::new(1.0, 1.0),
        Point::new(0.0, 1.0),
    ];
    pts.extend((0..250).map(|_| Point::new(rng.random::<f64>(), rng.random::<f64>())));
    let mesh = Mesh::delaunay(&pts);
    let delaunay = |pipelined| {
        let (space, mut op) = DelaunayOp::with_auto_capacity(&mesh, RefineConfig::area_only(2e-4));
        let tasks = op.initial_tasks();
        drain(&space, &op, tasks, pipelined, 4)
    };
    assert_eq!(delaunay(false), (327, 10379, 9929), "delaunay round");
    assert_eq!(delaunay(true), (78, 9963, 9963), "delaunay pipelined");

    // Boruvka MST: n = 3000, average degree 8.
    let wg = WeightedGraph::random(gen::random_with_avg_degree(3000, 8.0, &mut rng), &mut rng);
    let boruvka = |pipelined| {
        let (space, op) = BoruvkaOp::new(&wg);
        drain(&space, &op, op.initial_tasks(), pipelined, 3)
    };
    assert_eq!(boruvka(false), (480, 14864, 5999), "boruvka round");
    assert_eq!(boruvka(true), (47, 5999, 5999), "boruvka pipelined");

    // SSSP (delta-stepping tasks with lazy deletion, so Δ = 1000 / 8
    // = 125 here): n = 10 000, average degree 8, weights in 1..=1000,
    // source 0.
    let input = SsspInput::random(
        gen::random_with_avg_degree(10_000, 8.0, &mut rng),
        0,
        1000,
        &mut rng,
    );
    let sssp = |pipelined| {
        let (space, op) = SsspOp::new(input.clone());
        drain(&space, &op, op.initial_tasks(), pipelined, 5)
    };
    assert_eq!(sssp(false), (579, 18471, 18383), "sssp round");
    assert_eq!(sssp(true), (144, 18350, 18350), "sssp pipelined");
}
