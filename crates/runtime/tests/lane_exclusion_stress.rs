//! Stress test for mutual exclusion on pipelined lanes: a lock word
//! has one owner at a time, and a lane task's words are free once it
//! finishes.
//!
//! Four lanes hammer eight words. A task locks two of them, raises a
//! busy flag on each, lingers across a yield — so that even on one CPU
//! the other lanes run while it is mid-task — bumps each word's counter
//! with a plain load and store, lowers the flags and commits. Mutual
//! exclusion of owners is then two observable facts: no task ever
//! finds a flag raised, and no counter loses a bump; a word a finished
//! task failed to release would show as a lane leak at the end.
//!
//! The test has teeth against the one line that matters. With
//! `lock::acquire` mutated to CAS over whatever word it loaded instead
//! of only from `0` — taking a word another task still holds — it
//! fails 5 runs in 5 (EXPERIMENTS.md §Checker mutants).

use optpar_core::control::FixedController;
use optpar_runtime::{
    Abort, Executor, ExecutorConfig, LockSpace, Operator, PipelinedConfig, SpecStore, TaskCtx,
    WorkSet,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

const WORDS: usize = 8;
const LANES: usize = 4;
const TASKS: usize = 2_000;

/// What one lock word guards: a flag its live owner raises, and a
/// counter bumped the way unsynchronized code would bump it.
#[derive(Default)]
struct Guarded {
    busy: AtomicBool,
    entries: AtomicU64,
}

struct Hammer<'s> {
    store: &'s SpecStore<Guarded>,
    overlaps: AtomicUsize,
}

impl Operator for Hammer<'_> {
    type Task = (usize, usize);

    fn execute(
        &self,
        &(a, b): &Self::Task,
        cx: &mut TaskCtx<'_>,
    ) -> Result<Vec<Self::Task>, Abort> {
        // Both locks first: past this point the task cannot abort, so
        // every bump below belongs to a commit.
        cx.lock(self.store, a)?;
        cx.lock(self.store, b)?;
        for w in [a, b] {
            if cx.read(self.store, w)?.busy.swap(true, Ordering::AcqRel) {
                self.overlaps.fetch_add(1, Ordering::AcqRel);
            }
        }
        std::thread::yield_now();
        for w in [a, b] {
            let g = cx.read(self.store, w)?;
            let seen = g.entries.load(Ordering::Acquire);
            g.entries.store(seen + 1, Ordering::Release);
            g.busy.store(false, Ordering::Release);
        }
        Ok(Vec::new())
    }
}

/// Drain `TASKS` random word pairs on `LANES` lanes; returns the
/// number of conflict aborts (real ones: the holder was mid-task).
fn hammer(seed: u64) -> usize {
    let mut b = LockSpace::builder();
    let r = b.region(WORDS);
    let space = b.build();
    let store = SpecStore::new(r, (0..WORDS).map(|_| Guarded::default()).collect(), WORDS);
    let op = Hammer {
        store: &store,
        overlaps: AtomicUsize::new(0),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut expected = [0u64; WORDS];
    let tasks: Vec<(usize, usize)> = (0..TASKS)
        .map(|_| {
            let a = rng.random_range(0..WORDS);
            let b = (a + rng.random_range(1..WORDS)) % WORDS;
            expected[a] += 1;
            expected[b] += 1;
            (a, b)
        })
        .collect();
    let ex = Executor::new(
        &op,
        &space,
        ExecutorConfig {
            workers: LANES,
            ..ExecutorConfig::default()
        },
    );
    let mut ws = WorkSet::from_vec(tasks);
    let run = ex.run_pipelined(
        &mut ws,
        &mut FixedController::new(4 * LANES),
        PipelinedConfig {
            window: 64,
            batch: 4,
            max_completions: usize::MAX,
        },
        &mut rng,
    );
    assert!(ws.is_empty(), "seed {seed}: the drain did not finish");
    assert_eq!(run.total_committed(), TASKS, "seed {seed}");
    assert_eq!(
        op.overlaps.load(Ordering::Acquire),
        0,
        "seed {seed}: a task entered a word its live owner was still inside"
    );
    assert!(space.check_all_free().is_ok(), "seed {seed}: a lane leaked");
    drop(ex);
    let mut store = store;
    for (w, want) in expected.iter().enumerate() {
        let got = store.get_mut(w).entries.load(Ordering::Acquire);
        assert_eq!(got, *want, "seed {seed}: word {w} lost a bump");
    }
    run.total_aborted()
}

#[test]
fn live_owners_exclude_each_other() {
    let aborted: usize = (0..6).map(hammer).sum();
    assert!(
        aborted > 0,
        "four lanes on eight words never met a running holder: the run did not overlap"
    );
}
