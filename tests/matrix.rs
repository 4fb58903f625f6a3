//! The differential matrix: every application under every engine
//! configuration, against its sequential reference.
//!
//! Ten app rows (`rows/mod.rs`) — each builds its input from a seed
//! and keeps its reference (Dijkstra, Kruskal, Edmonds–Karp, the
//! sequential survey sweep) or validity check (proper colouring,
//! maximal independent set, maximal matching, fully refined valid
//! mesh, one commit per CC-graph node, resolved blobs) — run through
//! thirteen engine cells: `run_with_controller` at 1 / 2 / 4 workers —
//! the solo runner at one worker, lanes at the default pipelined
//! config above — pipelined lanes at 1 / 2 / 4 workers × batch 1
//! (continuous) / 8 / 64, and the paper's model rounds
//! (`run_rounds`) at one worker. Every cell asserts what the paper's
//! semantics owe whatever the engine:
//!
//! * the result equals the reference;
//! * `execute` calls, counted by a forwarding wrapper, equal
//!   `total_launched()`, which equals committed + aborted + faulted (in
//!   a lane the ledger *defines* launched as that sum, so the count is
//!   its only independent witness);
//! * no lane leaks a lock, no worker dies, and a one-worker lane —
//!   whose holders have all finished — aborts nothing, nor does the
//!   solo runner, which marks no lock word at all;
//! * a second drain of the same input, under a seeded ~10% panic /
//!   spurious-abort plan that also rolls tasks back at their commit
//!   point (after their last write), passes all of the above, and the
//!   plan's ledger of fired faults equals the executor's fault log on
//!   `(key, slot)`; over a row's faulted drains every fault kind fired.
//!
//! Every drain also attaches the trace recorder: a round cell's and
//! the solo cell's trace (a solo step ends at the round barrier)
//! passes `validate::validate` against its `RoundStats`; a lane
//! cell's trace (which the validator
//! refuses) has as many `Task*` events of each kind as the ledger
//! counts. In both, the
//! `acquires` payloads of the task outcome events sum to
//! `Σ RoundStats::lock_acquires`.
//!
//! A failing cell prints its coordinates (app, engine, workers, batch,
//! seed, plan) on the way out; a row that hangs fails after 60 s with
//! the coordinates of the cell it was draining.

#[macro_use]
mod rows;

use rows::CELLS;

slices! {
    sssp_matches_dijkstra: sssp(CELLS, 100);
    boruvka_matches_kruskal: boruvka(CELLS, 200);
    delaunay_refines_fully: delaunay(CELLS, 300);
    coloring_is_proper: coloring(CELLS, 400);
    mis_is_maximal_independent: mis(CELLS, 500);
    matching_is_maximal: matching(CELLS, 600);
    ccmirror_commits_each_node_once: ccmirror(CELLS, 700);
    preflow_matches_edmonds_karp: preflow(CELLS, 800);
    clustering_resolves_the_blobs: clustering(CELLS, 900);
    survey_reaches_the_sequential_fixed_point: survey(CELLS, 1000);
}

/// An operator-requested abort is rolled back and retried in every
/// engine.
mod requested_abort {
    use super::rows::config;
    use optpar::core::control::FixedController;
    use optpar::runtime::{
        Abort, Executor, LockSpace, Operator, PipelinedConfig, SpecStore, TaskCtx, WorkSet,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Eight disjoint writers; task 3 asks for an abort, after its lock
    /// and before its write, the first time it runs and commits on the
    /// retry.
    struct AbortOnceOp<'s> {
        store: &'s SpecStore<u32>,
        armed: AtomicBool,
    }

    impl Operator for AbortOnceOp<'_> {
        type Task = usize;

        fn execute(&self, &i: &usize, cx: &mut TaskCtx<'_>) -> Result<Vec<usize>, Abort> {
            cx.lock(self.store, i)?;
            if i == 3 && self.armed.swap(false, Ordering::AcqRel) {
                cx.abort_requested()?;
            }
            *cx.write(self.store, i)? += 1;
            Ok(vec![])
        }
    }

    /// Regression: an operator-requested abort is one abort in *every*
    /// mode (round and pipelined once settled outcomes differently),
    /// and the aborted run leaves its slot untouched.
    #[test]
    fn requested_abort_is_excused_in_round_and_pipelined_modes() {
        for pipelined in [false, true] {
            let mut b = LockSpace::builder();
            let r = b.region(8);
            let space = b.build();
            let mut store = SpecStore::filled(r, 8, 0u32);
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
            drop(ex);
            // Task 3's aborted run wrote nothing: every slot saw one
            // committed increment.
            for i in 0..8 {
                assert_eq!(*store.get_mut(i), 1, "pipelined = {pipelined}: slot {i}");
            }
        }
    }
}
