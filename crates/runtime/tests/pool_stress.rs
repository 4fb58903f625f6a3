//! Stress and differential tests for the persistent worker pool.
//!
//! The pooled round path must be observationally identical to the
//! inline (workers == 1, deterministic) path: same total commits, same
//! final store state, across worker counts.

use optpar_runtime::{
    Abort, Executor, ExecutorConfig, LockSpace, Operator, Region, SpecStore, TaskCtx, WorkSet,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Ring operator with task-dependent weights: task `i` adds `i+1` to
/// slot `i` and subtracts `i+1` from slot `i+1`. Commutative, so every
/// serializable drain yields one well-defined final state — but any
/// torn or double-applied update is visible.
struct WeightedRing<'s> {
    store: &'s SpecStore<i64>,
    n: usize,
}

impl Operator for WeightedRing<'_> {
    type Task = usize;

    fn execute(&self, &i: &usize, cx: &mut TaskCtx<'_>) -> Result<Vec<usize>, Abort> {
        let w = (i + 1) as i64;
        *cx.write(self.store, i)? += w;
        *cx.write(self.store, (i + 1) % self.n)? -= w;
        Ok(vec![])
    }
}

fn setup(n: usize) -> (LockSpace, Region) {
    let mut b = LockSpace::builder();
    let r = b.region(n);
    (b.build(), r)
}

/// Drain the seeded workload with the pooled round path; return
/// (total commits, final snapshot, per-round (launched, committed)).
fn drain_pooled(
    n: usize,
    m: usize,
    workers: usize,
    seed: u64,
) -> (usize, Vec<i64>, Vec<(usize, usize)>) {
    let (space, r) = setup(n);
    let store = SpecStore::filled(r, n, 0i64);
    let op = WeightedRing { store: &store, n };
    let ex = Executor::new(
        &op,
        &space,
        ExecutorConfig {
            workers,
            ..ExecutorConfig::default()
        },
    );
    let mut ws = WorkSet::from_vec((0..n).collect::<Vec<_>>());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut commits = 0;
    let mut trace = Vec::new();
    let mut guard = 0;
    while !ws.is_empty() {
        let rs = ex.run_round(&mut ws, m, &mut rng);
        assert_eq!(rs.launched, rs.committed + rs.aborted);
        commits += rs.committed;
        trace.push((rs.launched, rs.committed));
        guard += 1;
        assert!(guard < 100_000, "workload did not drain");
    }
    assert!(space.check_all_free().is_ok(), "locks leaked past drain");
    let mut store = store;
    (commits, store.snapshot(), trace)
}

/// Across worker counts and at every shape the chunk hand-off takes:
/// a one-task round (one chunk, every other worker claims past the
/// end), fewer chunks than workers, an ordinary round, one more
/// single-task chunk than `8 · workers`, and two-task chunks with a
/// ragged one-task tail.
#[test]
fn pooled_commits_match_inline_across_workers() {
    let n = 160;
    let seed = 0xD1FF_5EED;
    for workers in [2usize, 8] {
        for m in [1, workers - 1, 24, 8 * workers + 1, 16 * workers + 1] {
            let (ref_commits, ref_state, _) = drain_pooled(n, m, 1, seed);
            assert_eq!(ref_commits, n, "inline path must drain everything");
            let (commits, state, trace) = drain_pooled(n, m, workers, seed);
            assert_eq!(trace[0].0, m, "the first round launched a full m");
            assert_eq!(
                commits, ref_commits,
                "{workers} workers, m = {m}: diverged from inline commits"
            );
            assert_eq!(
                state, ref_state,
                "{workers} workers, m = {m}: diverged from inline state"
            );
        }
    }
}

#[test]
fn inline_path_is_deterministic_per_seed() {
    // Two runs with the same seed and workers == 1 must agree on the
    // entire per-round trace, not just totals.
    let a = drain_pooled(64, 16, 1, 7);
    let b = drain_pooled(64, 16, 1, 7);
    assert_eq!(a, b, "workers == 1 must be deterministic");
}

#[test]
fn pool_reuse_across_many_small_rounds() {
    // Hammer the parked-thread wake/rendezvous path: many tiny rounds
    // on one executor (this is exactly the small-m regime the pool
    // exists for). Spawned work keeps the work-set alive.
    struct Chain<'s> {
        store: &'s SpecStore<u64>,
    }
    impl Operator for Chain<'_> {
        type Task = (usize, u32);
        fn execute(
            &self,
            &(slot, hops): &(usize, u32),
            cx: &mut TaskCtx<'_>,
        ) -> Result<Vec<(usize, u32)>, Abort> {
            *cx.write(self.store, slot)? += 1;
            Ok(if hops > 0 {
                vec![(slot, hops - 1)]
            } else {
                vec![]
            })
        }
    }
    let n = 8;
    let (space, r) = setup(n);
    let store = SpecStore::filled(r, n, 0u64);
    let op = Chain { store: &store };
    let ex = Executor::new(
        &op,
        &space,
        ExecutorConfig {
            workers: 4,
            ..ExecutorConfig::default()
        },
    );
    let hops = 200u32;
    let mut ws = WorkSet::from_vec((0..n).map(|i| (i, hops)).collect::<Vec<_>>());
    let mut rng = StdRng::seed_from_u64(3);
    let mut rounds = 0usize;
    let mut commits = 0usize;
    while !ws.is_empty() {
        commits += ex.run_round(&mut ws, 4, &mut rng).committed;
        rounds += 1;
        assert!(rounds < 1_000_000, "did not drain");
    }
    assert_eq!(commits, n * (hops as usize + 1));
    let mut store = store;
    assert!(store.snapshot().iter().all(|&v| v == hops as u64 + 1));
    assert!(rounds > 100, "regime check: this test is about many rounds");
}
