//! Property-based tests for the speculative runtime: rollback
//! correctness, work-set sampling, and executor bookkeeping.

use optpar_runtime::{
    Abort, Executor, ExecutorConfig, LockSpace, Operator, SpecStore, TaskCtx, WorkSet,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An operator that replays a scripted list of writes and then either
/// commits or self-aborts — used to prove rollback restores state for
/// arbitrary write sequences.
struct ScriptOp<'s> {
    store: &'s SpecStore<i64>,
}

type Script = (Vec<(usize, i64)>, bool); // (writes, abort?)

impl Operator for ScriptOp<'_> {
    type Task = Script;

    fn execute(&self, task: &Script, cx: &mut TaskCtx<'_>) -> Result<Vec<Script>, Abort> {
        for &(slot, val) in &task.0 {
            *cx.write(self.store, slot)? += val;
        }
        if task.1 {
            cx.abort_requested()?;
        }
        Ok(vec![])
    }
}

proptest! {
    /// A self-aborting task leaves the store bit-for-bit unchanged, no
    /// matter what it wrote (including repeated writes to one slot);
    /// a committing task applies exactly its script.
    #[test]
    fn rollback_restores_state(
        writes in prop::collection::vec((0usize..8, -100i64..100), 0..20),
        abort in any::<bool>(),
    ) {
        let mut b = LockSpace::builder();
        let r = b.region(8);
        let space = b.build();
        let store = SpecStore::from_vec(r, (0..8).map(|i| i as i64).collect(), 0);
        let op = ScriptOp { store: &store };
        let ex = Executor::new(&op, &space, ExecutorConfig {
            workers: 1,
            ..ExecutorConfig::default()
        });
        let mut ws = WorkSet::from_vec(vec![(writes.clone(), abort)]);
        let mut rng = StdRng::seed_from_u64(1);
        let rs = ex.run_round(&mut ws, 1, &mut rng);
        prop_assert!(space.check_all_free().is_ok());

        let mut expected: Vec<i64> = (0..8).collect();
        if !abort {
            prop_assert_eq!(rs.committed, 1);
            for (slot, val) in writes {
                expected[slot] += val;
            }
        } else {
            prop_assert_eq!(rs.aborted, 1);
        }
        let mut store = store;
        prop_assert_eq!(store.snapshot(), expected);
    }

    /// Work-set sampling removes exactly min(m, len) items and
    /// preserves the multiset.
    #[test]
    fn workset_sampling_is_partition(
        items in prop::collection::vec(0u32..1000, 0..60),
        m in 0usize..80,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ws = WorkSet::from_vec(items.clone());
        let batch = ws.sample_drain(m, &mut rng);
        prop_assert_eq!(batch.len(), m.min(items.len()));
        let mut rest: Vec<u32> = Vec::new();
        while !ws.is_empty() {
            rest.extend(ws.sample_drain(usize::MAX, &mut rng));
        }
        let mut all: Vec<u32> = batch.into_iter().chain(rest).collect();
        all.sort_unstable();
        let mut orig = items;
        orig.sort_unstable();
        prop_assert_eq!(all, orig);
    }

    /// Conflicting scripted tasks: every round's launched = committed +
    /// aborted; total commits over a full drain equals the task count;
    /// the final store state equals *some* serial application of the
    /// scripts (here: commutative increments, so any order gives the
    /// same sum).
    #[test]
    fn executor_bookkeeping_and_serializability(
        scripts in prop::collection::vec(
            prop::collection::vec((0usize..6, 1i64..10), 1..4),
            1..12
        ),
        workers in 1usize..4,
        m in 1usize..8,
        seed in any::<u64>(),
    ) {
        let mut b = LockSpace::builder();
        let r = b.region(6);
        let space = b.build();
        let store = SpecStore::filled(r, 6, 0i64);
        let op = ScriptOp { store: &store };
        let ex = Executor::new(&op, &space, ExecutorConfig {
            workers,
            ..ExecutorConfig::default()
        });
        let tasks: Vec<Script> = scripts.iter().cloned().map(|w| (w, false)).collect();
        let n = tasks.len();
        let mut ws = WorkSet::from_vec(tasks);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut committed = 0;
        let mut guard = 0;
        while !ws.is_empty() {
            let rs = ex.run_round(&mut ws, m, &mut rng);
            prop_assert_eq!(rs.launched, rs.committed + rs.aborted);
            committed += rs.committed;
            guard += 1;
            prop_assert!(guard < 10_000, "did not drain");
        }
        prop_assert_eq!(committed, n);
        let mut expected = vec![0i64; 6];
        for script in &scripts {
            for &(slot, val) in script {
                expected[slot] += val;
            }
        }
        let mut store = store;
        prop_assert_eq!(store.snapshot(), expected);
    }

    /// Starvation avoidance on an adversarial clique: every task
    /// contends on one lock, so each round commits exactly one task
    /// and aborts the rest — the worst case for a random draw order.
    /// The victim (enqueued first, so it wins FIFO ties among aged
    /// tasks) must commit within `K + 1` rounds for retry budget `K`:
    /// either the draw favours it early, or after `K` aborts it is
    /// aged to the front of the prefix, where the greedy commit rule
    /// guarantees it wins.
    #[test]
    fn clique_victim_commits_within_budget_plus_one_rounds(
        attackers in 1usize..10,
        budget in 0u32..4,
        seed in any::<u64>(),
    ) {
        let mut b = LockSpace::builder();
        let r = b.region(2);
        let space = b.build();
        let store = SpecStore::filled(r, 2, 0i64);
        let op = ScriptOp { store: &store };
        let ex = Executor::new(&op, &space, ExecutorConfig {
            workers: 1,
            retry_budget: budget,
            ..ExecutorConfig::default()
        });
        let mut ws = WorkSet::new();
        // The victim writes a marker slot nobody else touches; the
        // attackers only contend on slot 0.
        ws.push((vec![(0, 1), (1, 1)], false));
        for _ in 0..attackers {
            ws.push((vec![(0, 1)], false));
        }
        let m = attackers + 1; // everyone is drawn every round
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..budget + 1 {
            if ws.is_empty() {
                break; // everyone (victim included) already committed
            }
            let rs = ex.run_round(&mut ws, m, &mut rng);
            prop_assert_eq!(rs.launched, rs.committed + rs.aborted);
            prop_assert_eq!(rs.committed, 1, "clique commits exactly one per round");
        }
        let mut store = store;
        prop_assert_eq!(store.snapshot()[1], 1, "victim starved past K+1 rounds");
    }

    /// Two truly parallel workers on a dense four-slot script mix
    /// (most launches collide) still drain to the serial result.
    #[test]
    fn two_worker_dense_scripts_serializable(
        scripts in prop::collection::vec(
            prop::collection::vec((0usize..4, 1i64..5), 1..3),
            1..8
        ),
        seed in any::<u64>(),
    ) {
        let mut b = LockSpace::builder();
        let r = b.region(4);
        let space = b.build();
        let store = SpecStore::filled(r, 4, 0i64);
        let op = ScriptOp { store: &store };
        let ex = Executor::new(&op, &space, ExecutorConfig {
            workers: 2,
            ..ExecutorConfig::default()
        });
        let tasks: Vec<Script> = scripts.iter().cloned().map(|w| (w, false)).collect();
        let mut ws = WorkSet::from_vec(tasks);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut guard = 0;
        while !ws.is_empty() {
            ex.run_round(&mut ws, 4, &mut rng);
            guard += 1;
            prop_assert!(guard < 10_000);
        }
        let mut expected = vec![0i64; 4];
        for script in &scripts {
            for &(slot, val) in script {
                expected[slot] += val;
            }
        }
        let mut store = store;
        prop_assert_eq!(store.snapshot(), expected);
    }
}
