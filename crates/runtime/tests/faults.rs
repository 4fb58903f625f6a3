//! Deterministic fault-injection integration tests (feature `faults`).
//!
//! Each test drives a real executor with a seeded [`FaultPlan`] and
//! checks the three contracts of the fault layer: results are
//! unchanged (containment rolls back exactly like a conflict abort),
//! every fired injection is accounted in the executor's fault log,
//! and identical seeds replay identical fault schedules.
#![cfg(feature = "faults")]

use optpar_runtime::{
    Abort, Executor, ExecutorConfig, FaultCause, FaultKind, FaultPlan, LockSpace, Operator,
    SpecStore, TaskCtx, TaskFault, WorkSet,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SLOTS: usize = 8;

/// Adds `t + 1` to four consecutive store slots. Four context
/// operations per task guarantee every armed fault fires: the
/// injection countdown lets at most three operations through.
struct AddOp<'s> {
    store: &'s SpecStore<i64>,
}

impl Operator for AddOp<'_> {
    type Task = usize;

    fn execute(&self, t: &usize, cx: &mut TaskCtx<'_>) -> Result<Vec<usize>, Abort> {
        for k in 0..4 {
            *cx.write(self.store, (t + k) % SLOTS)? += (*t as i64) + 1;
        }
        Ok(vec![])
    }
}

fn expected(n: usize) -> Vec<i64> {
    let mut out = vec![0i64; SLOTS];
    for t in 0..n {
        for k in 0..4 {
            out[(t + k) % SLOTS] += (t as i64) + 1;
        }
    }
    out
}

struct Harness {
    space: LockSpace,
    store: SpecStore<i64>,
}

impl Harness {
    fn new() -> Self {
        let mut b = LockSpace::builder();
        let r = b.region(SLOTS);
        let space = b.build();
        let store = SpecStore::filled(r, SLOTS, 0i64);
        Harness { space, store }
    }
}

/// Drain `n` tasks through an executor wired to `plan`; return the
/// drained fault log. Panics if the work-set fails to drain.
fn drain_with_plan(
    h: &Harness,
    plan: &FaultPlan,
    n: usize,
    m: usize,
    workers: usize,
    rng_seed: u64,
) -> Vec<TaskFault> {
    let op = AddOp { store: &h.store };
    let mut ex = Executor::new(
        &op,
        &h.space,
        ExecutorConfig {
            workers,
            ..ExecutorConfig::default()
        },
    );
    ex.set_fault_plan(plan);
    let mut ws = WorkSet::from_vec((0..n).collect());
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut committed = 0;
    let mut guard = 0;
    while !ws.is_empty() {
        let rs = ex.run_round(&mut ws, m, &mut rng);
        assert_eq!(rs.launched, rs.committed + rs.aborted + rs.faulted);
        committed += rs.committed;
        guard += 1;
        assert!(guard < 10_000, "work-set did not drain under injection");
    }
    assert_eq!(committed, n);
    assert_eq!(ex.worker_panics(), 0);
    ex.take_faults()
}

/// Multiset-compare injection-side records against log-side entries:
/// every fired Panic/SpuriousAbort must have exactly one `Injected`
/// fault-log entry at the same `(epoch, slot)`, and vice versa.
fn reconcile(plan: &FaultPlan, log: &[TaskFault]) {
    let mut fired: Vec<(u64, usize)> = plan
        .fired()
        .into_iter()
        .filter(|r| matches!(r.kind, FaultKind::Panic | FaultKind::SpuriousAbort))
        .map(|r| (r.epoch, r.slot))
        .collect();
    let mut logged: Vec<(u64, usize)> = log
        .iter()
        .filter(|f| f.cause == FaultCause::Injected)
        .map(|f| (f.epoch, f.slot.expect("injected task faults carry a slot")))
        .collect();
    fired.sort_unstable();
    logged.sort_unstable();
    assert_eq!(fired, logged, "fault ledger and fault log disagree");
}

#[test]
fn injected_panics_are_contained_and_reconciled() {
    let h = Harness::new();
    let plan = FaultPlan::seeded(7).with_panic_rate(0.25);
    let log = drain_with_plan(&h, &plan, 64, 16, 1, 101);
    assert!(
        plan.fired_count() > 0,
        "a 25% rate over 64+ launches must fire"
    );
    assert!(plan.fired().iter().all(|r| r.kind == FaultKind::Panic));
    assert!(log.iter().all(|f| f.cause == FaultCause::Injected));
    reconcile(&plan, &log);
    h.space.check_all_free().unwrap();
    let mut store = h.store;
    assert_eq!(store.snapshot(), expected(64));
}

#[test]
fn injected_spurious_aborts_drain_to_the_same_result() {
    let h = Harness::new();
    let plan = FaultPlan::seeded(9).with_spurious_abort_rate(0.3);
    let log = drain_with_plan(&h, &plan, 48, 12, 1, 202);
    assert!(plan.fired_count() > 0);
    assert!(plan
        .fired()
        .iter()
        .all(|r| r.kind == FaultKind::SpuriousAbort));
    assert!(log.iter().all(|f| f.cause == FaultCause::Injected));
    reconcile(&plan, &log);
    h.space.check_all_free().unwrap();
    let mut store = h.store;
    assert_eq!(store.snapshot(), expected(48));
}

#[test]
fn injected_delays_do_not_change_results() {
    let h = Harness::new();
    let plan = FaultPlan::seeded(13).with_delay_rate(0.5, 200);
    let log = drain_with_plan(&h, &plan, 48, 12, 4, 303);
    assert!(plan.fired_count() > 0);
    assert!(plan.fired().iter().all(|r| r.kind == FaultKind::Delay));
    // Delays widen the conflict window but are not faults.
    assert!(log.is_empty(), "{log:?}");
    h.space.check_all_free().unwrap();
    let mut store = h.store;
    assert_eq!(store.snapshot(), expected(48));
}

#[test]
fn targeted_fault_fires_at_exact_coordinates() {
    let h = Harness::new();
    let e0 = h.space.epoch();
    let plan = FaultPlan::seeded(5).at(e0, 0, FaultKind::Panic);
    let log = drain_with_plan(&h, &plan, 4, 4, 1, 404);
    let fired = plan.fired();
    assert_eq!(fired.len(), 1, "{fired:?}");
    assert_eq!((fired[0].epoch, fired[0].slot), (e0, 0));
    assert_eq!(fired[0].kind, FaultKind::Panic);
    assert_eq!(log.len(), 1);
    assert_eq!(log[0].epoch, e0);
    assert_eq!(log[0].slot, Some(0));
    assert_eq!(log[0].cause, FaultCause::Injected);
    let mut store = h.store;
    assert_eq!(store.snapshot(), expected(4));
}

#[test]
fn identical_seeds_replay_identical_fault_schedules() {
    let run = || {
        let h = Harness::new();
        let plan = FaultPlan::seeded(21)
            .with_panic_rate(0.15)
            .with_spurious_abort_rate(0.1);
        let log = drain_with_plan(&h, &plan, 40, 10, 1, 606);
        let mut store = h.store;
        assert_eq!(store.snapshot(), expected(40));
        (plan.fired(), log)
    };
    let (fired_a, log_a) = run();
    let (fired_b, log_b) = run();
    assert_eq!(fired_a, fired_b);
    assert_eq!(log_a, log_b);
    assert!(!fired_a.is_empty());
}
