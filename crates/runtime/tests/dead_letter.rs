//! Property test pinning the dead-letter contract: a task that faults
//! on every launch is retried exactly
//! [`ExecutorConfig::dead_letter_budget`] times and then retired — it
//! launches `K + 1` times total, never more, never fewer, and lands in
//! the dead-letter list exactly once with its full retry history.

use optpar_runtime::{
    Abort, Executor, ExecutorConfig, FaultCause, LockSpace, Operator, TaskCtx, WorkSet,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Panics on every launch: the worst-case tenant the budget exists
/// for.
struct AlwaysPanic;

impl Operator for AlwaysPanic {
    type Task = usize;

    fn execute(&self, _t: &usize, _cx: &mut TaskCtx<'_>) -> Result<Vec<usize>, Abort> {
        panic!("always faults")
    }
}

proptest! {
    /// For any budget `K`, task count `n`, per-round allocation `m`,
    /// and RNG seed: every always-faulting task launches exactly
    /// `K + 1` times, is dead-lettered exactly once at `retries == K`,
    /// and the work-set drains — the fault storm terminates instead of
    /// spinning forever.
    #[test]
    fn always_faulting_task_launches_budget_plus_one_times(
        budget in 0u32..5,
        n in 1usize..6,
        m in 1usize..9,
        seed in 0u64..1024,
    ) {
        let mut b = LockSpace::builder();
        let _r = b.region(1);
        let space = b.build();
        let op = AlwaysPanic;
        let ex = Executor::new(&op, &space, ExecutorConfig {
            workers: 1,
            dead_letter_budget: budget,
            ..ExecutorConfig::default()
        });
        let mut ws = WorkSet::from_vec((0..n).collect::<Vec<_>>());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut faulted = 0usize;
        let mut rounds = 0usize;
        while !ws.is_empty() {
            rounds += 1;
            // Termination bound: n tasks × (K + 1) launches at ≥ 1
            // launch per non-empty round.
            prop_assert!(rounds <= n * (budget as usize + 1) + 1,
                "work-set failed to drain");
            let rs = ex.run_round(&mut ws, m, &mut rng);
            prop_assert_eq!(rs.committed, 0);
            faulted += rs.faulted;
        }
        let per_task = budget as usize + 1;
        prop_assert_eq!(faulted, n * per_task,
            "each task launches exactly K+1 times");
        let dead = ex.take_dead_letters();
        prop_assert_eq!(dead.len(), n, "each task dead-letters exactly once");
        for dl in &dead {
            prop_assert_eq!(dl.retries, budget, "retired exactly at the budget");
            prop_assert_eq!(&dl.cause, &FaultCause::OperatorPanic);
        }
        // The contained panics are all accounted in the fault log; one
        // that escaped would have failed the drain itself.
        prop_assert_eq!(ex.take_faults().len(), n * per_task);
    }
}
