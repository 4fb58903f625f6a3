//! Scale end-to-end: the sharded (partitioned) store layout must be
//! semantically invisible.
//!
//! SSSP and the cc-mirror run sharded-vs-unsharded: in barrier rounds
//! (which run on one thread) and in pipelined lanes (partition-affine
//! placed) at 1 and 4 workers, and every variant must produce
//! identical committed results
//! (Dijkstra distances; all-ones completion counters). By default the
//! matrix runs at smoke size (~10³–10⁴ nodes) so `cargo test -q` stays
//! fast; the full million-node matrix is `#[ignore]`d — run it with:
//!
//! ```text
//! cargo test --release --test scale_e2e -- --ignored
//! ```
//!
//! The dead-letter test proves the pipelined executor's K + 1
//! fault-launch bound survives shard-affine requeue: a poisoned task
//! returns to its *own* partition's queue on every retry and must
//! still retire after exactly `dead_letter_budget` retries.

use optpar::apps::ccmirror::CcMirror;
use optpar::apps::sssp::{SsspInput, SsspOp, SsspTask};
use optpar::core::control::FixedController;
use optpar::core::partition::bfs_partition;
use optpar::graph::gen;
use optpar::graph::{ConflictGraph, CsrGraph};
use optpar::runtime::{
    Executor, ExecutorConfig, LockSpace, Operator, PipelinedConfig, ShardMap, WorkSet,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Shard count for every sharded layout in this suite.
const K: usize = 8;

fn cfg(workers: usize) -> ExecutorConfig {
    ExecutorConfig {
        workers,
        ..ExecutorConfig::default()
    }
}

fn pipe_cfg() -> PipelinedConfig {
    PipelinedConfig {
        window: 256,
        batch: 16,
        ..PipelinedConfig::default()
    }
}

/// Drain `ws` through barrier rounds.
fn drain_rounds<O: Operator>(ex: &Executor<'_, O>, ws: &mut WorkSet<O::Task>, m: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rounds = 0usize;
    while !ws.is_empty() {
        ex.run_round(ws, m, &mut rng);
        rounds += 1;
        assert!(rounds < 10_000_000, "run did not quiesce");
    }
}

/// SSSP equivalence matrix on `g`: unsharded baseline, then the
/// sharded layout in rounds (if `rounds`) and in lanes at 1 and 4
/// workers, all against sequential Dijkstra.
fn sssp_sharded_matrix(g: &CsrGraph, seed: u64, rounds: bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let input = SsspInput::random(g.clone(), 0, 500, &mut rng);
    let reference = input.dijkstra();

    // Unsharded baseline (identity layout, same executor path).
    {
        let (space, op) = SsspOp::new(input.clone());
        let ex = Executor::new(&op, &space, cfg(1));
        let mut ws = WorkSet::from_vec(op.initial_tasks());
        drain_rounds(&ex, &mut ws, 64, seed ^ 1);
        assert!(space.check_all_free().is_ok());
        let mut op = op;
        assert_eq!(op.distances(), reference, "unsharded baseline diverged");
    }

    let part = bfs_partition(g, K, 1.25);
    let map = Arc::new(ShardMap::from_parts(&part.parts, K));
    if rounds {
        let (space, op) = SsspOp::new_sharded(input.clone(), map.clone());
        let ex = Executor::new(&op, &space, cfg(1));
        let mut ws = WorkSet::from_vec(op.initial_tasks());
        drain_rounds(&ex, &mut ws, 64, seed ^ 3);
        assert!(space.check_all_free().is_ok());
        let mut op = op;
        assert_eq!(op.distances(), reference, "sharded rounds");
    }
    for workers in [1usize, 4] {
        {
            let (space, op) = SsspOp::new_sharded(input.clone(), map.clone());
            let ex = Executor::new(&op, &space, cfg(workers));
            let mut ws = WorkSet::from_vec(op.initial_tasks());
            let mut ctl = FixedController::new(256);
            let mut rng = StdRng::seed_from_u64(seed ^ (8 + workers as u64));
            let parts = &part.parts;
            let place = move |t: &SsspTask| parts[t.node as usize] as usize;
            let _ = ex.run_pipelined_placed(&mut ws, &mut ctl, pipe_cfg(), &mut rng, Some(&place));
            assert!(ws.is_empty());
            assert!(space.check_all_free().is_ok());
            let mut op = op;
            assert_eq!(op.distances(), reference, "sharded pipelined w{workers}");
        }
    }
}

/// cc-mirror equivalence matrix on `g`: every node commits exactly
/// once (counter 1) in every layout × engine variant (rounds only if
/// `rounds`).
fn cc_sharded_matrix(g: &CsrGraph, seed: u64, rounds: bool) {
    let n = g.node_count();

    // Unsharded baseline.
    {
        let mut b = LockSpace::builder();
        let lay = CcMirror::layout(g, &mut b);
        let space = b.build();
        let op = lay.finish(&space);
        let ex = Executor::new(&op, &space, cfg(1));
        let mut ws = WorkSet::from_vec((0..n as u32).collect::<Vec<_>>());
        drain_rounds(&ex, &mut ws, 256, seed ^ 1);
        let mut nd = op.node_data;
        assert!(nd.snapshot().iter().all(|&c| c == 1), "unsharded baseline");
    }

    let part = bfs_partition(g, K, 1.25);
    if rounds {
        let mut b = LockSpace::builder();
        let lay = CcMirror::layout_sharded(g, &mut b, &part.parts, K);
        let space = b.build();
        let op = lay.finish(&space);
        let ex = Executor::new(&op, &space, cfg(1));
        let mut ws = WorkSet::from_vec((0..n as u32).collect::<Vec<_>>());
        drain_rounds(&ex, &mut ws, 256, seed ^ 3);
        assert!(space.check_all_free().is_ok());
        let mut nd = op.node_data;
        assert!(nd.snapshot().iter().all(|&c| c == 1), "sharded rounds");
    }
    for workers in [1usize, 4] {
        {
            let mut b = LockSpace::builder();
            let lay = CcMirror::layout_sharded(g, &mut b, &part.parts, K);
            let space = b.build();
            let op = lay.finish(&space);
            let ex = Executor::new(&op, &space, cfg(workers));
            let mut ws = WorkSet::from_vec((0..n as u32).collect::<Vec<_>>());
            let mut ctl = FixedController::new(256);
            let mut rng = StdRng::seed_from_u64(seed ^ (8 + workers as u64));
            let parts = &part.parts;
            let place = move |t: &u32| parts[*t as usize] as usize;
            let run =
                ex.run_pipelined_placed(&mut ws, &mut ctl, pipe_cfg(), &mut rng, Some(&place));
            assert!(ws.is_empty());
            assert_eq!(run.total_committed(), n);
            assert!(space.check_all_free().is_ok());
            let mut nd = op.node_data;
            assert!(
                nd.snapshot().iter().all(|&c| c == 1),
                "sharded pipelined w{workers}"
            );
        }
    }
}

#[test]
fn sssp_sharded_equivalence_smoke() {
    sssp_sharded_matrix(&gen::rmat(12, 8, 42), 101, true);
    sssp_sharded_matrix(&gen::grid2d_diag(48, 48), 102, true);
}

#[test]
fn ccmirror_sharded_equivalence_smoke() {
    cc_sharded_matrix(&gen::rmat(12, 8, 43), 201, true);
    cc_sharded_matrix(&gen::road_like(20_000, 44), 202, true);
}

/// The full matrix at 2²⁰ nodes. Lanes only (round coverage comes from
/// the smoke tests; barrier rounds at this scale take tens of minutes
/// on one core and prove nothing extra).
///
/// ```text
/// cargo test --release --test scale_e2e -- --ignored
/// ```
#[test]
#[ignore = "million-node matrix: run with `cargo test --release --test scale_e2e -- --ignored`"]
fn sssp_sharded_equivalence_million() {
    sssp_sharded_matrix(&gen::rmat(20, 8, 42), 301, false);
    sssp_sharded_matrix(&gen::grid2d_diag(1024, 1024), 302, false);
}

#[test]
#[ignore = "million-node matrix: run with `cargo test --release --test scale_e2e -- --ignored`"]
fn ccmirror_sharded_equivalence_million() {
    cc_sharded_matrix(&gen::rmat(18, 8, 43), 401, false);
    cc_sharded_matrix(&gen::road_like(1 << 20, 44), 402, false);
}

/// Shard-affine requeue preserves the K + 1 dead-letter bound: a task
/// that faults on every launch goes back to its *own* partition's
/// queue each time (not the executing worker's) and must still launch
/// exactly `dead_letter_budget + 1` times before retiring; the rest of
/// the run drains normally.
#[test]
fn shard_affine_requeue_preserves_dead_letter_bound() {
    use optpar::runtime::{Abort, SpecStore, TaskCtx};
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct PoisonOne<'s> {
        store: &'s SpecStore<u64>,
        poison: usize,
        launches: AtomicUsize,
    }

    impl Operator for PoisonOne<'_> {
        type Task = usize;
        fn execute(&self, &i: &usize, cx: &mut TaskCtx<'_>) -> Result<Vec<usize>, Abort> {
            if i == self.poison {
                self.launches.fetch_add(1, Ordering::AcqRel);
                panic!("poisoned scale task {i}");
            }
            *cx.write(self.store, i)? += 1;
            Ok(vec![])
        }
    }

    let n = 256usize;
    let k_budget = 3u32;
    // Contiguous 4-way partition over the slots; the sharded store
    // makes each part a cache-aligned slab and the placement keeps
    // each part on its own worker.
    let parts: Vec<u32> = (0..n).map(|i| (i * 4 / n) as u32).collect();
    let map = Arc::new(ShardMap::from_parts(&parts, 4));
    let mut b = LockSpace::builder();
    let r = b.region_aligned(map.padded_len());
    let space = b.build();
    let store = SpecStore::new_sharded(r, vec![0u64; n], 0, map);
    let poison = 37usize;
    let op = PoisonOne {
        store: &store,
        poison,
        launches: AtomicUsize::new(0),
    };
    let ex = Executor::new(
        &op,
        &space,
        ExecutorConfig {
            workers: 4,
            dead_letter_budget: k_budget,
            ..ExecutorConfig::default()
        },
    );
    let mut ws = WorkSet::from_vec((0..n).collect::<Vec<_>>());
    let mut ctl = FixedController::new(16);
    let mut rng = StdRng::seed_from_u64(7);
    let place = move |t: &usize| parts[*t] as usize;
    let run = ex.run_pipelined_placed(&mut ws, &mut ctl, pipe_cfg(), &mut rng, Some(&place));
    assert!(ws.is_empty(), "non-poison work drained");
    assert_eq!(
        op.launches.load(Ordering::Acquire),
        k_budget as usize + 1,
        "poison task must launch exactly K + 1 times"
    );
    assert_eq!(run.total_committed(), n - 1);
    assert_eq!(run.total_dead_lettered(), 1);
    let letters = ex.take_dead_letters();
    assert_eq!(letters.len(), 1);
    assert_eq!(letters[0].retries, k_budget);
    assert!(space.check_all_free().is_ok());
    let mut store = store;
    let snap = store.snapshot();
    for (i, &v) in snap.iter().enumerate() {
        assert_eq!(v, u64::from(i != poison), "slot {i}");
    }
}
