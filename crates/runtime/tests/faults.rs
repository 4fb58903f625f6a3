//! Deterministic fault-injection integration tests.
//!
//! Each test drives a real executor with a seeded [`FaultPlan`] and
//! checks the three contracts of the fault layer: results are
//! unchanged (containment rolls back exactly like a conflict abort),
//! every fired injection is accounted in the executor's fault log,
//! and identical seeds replay identical fault schedules.

use optpar_runtime::{
    Abort, Executor, ExecutorConfig, FaultCause, FaultKind, FaultPlan, LockSpace, Operator,
    SpecStore, TaskCtx, TaskFault, WorkSet,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};

const SLOTS: usize = 8;

/// Locks four consecutive store slots, then adds `t + 1` to each. The
/// four locks guarantee every armed fault fires before the first
/// write: the injection countdown lets at most three operations
/// through.
struct AddOp<'s> {
    store: &'s SpecStore<i64>,
}

impl Operator for AddOp<'_> {
    type Task = usize;

    fn execute(&self, t: &usize, cx: &mut TaskCtx<'_>) -> Result<Vec<usize>, Abort> {
        for k in 0..4 {
            cx.lock(self.store, (t + k) % SLOTS)?;
        }
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
    ex.take_faults()
}

/// Multiset-compare injection-side records against log-side entries:
/// every fired fault must have exactly one `Injected` fault-log entry
/// at the same `(epoch, slot)`, and vice versa.
fn reconcile(plan: &FaultPlan, log: &[TaskFault]) {
    let mut fired: Vec<(u64, usize)> = plan.fired().iter().map(|r| (r.epoch, r.slot)).collect();
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
    // The spurious-abort rate also drives the commit-point draw.
    assert!(plan
        .fired()
        .iter()
        .all(|r| matches!(r.kind, FaultKind::SpuriousAbort | FaultKind::AtCommit)));
    assert!(log.iter().all(|f| f.cause == FaultCause::Injected));
    reconcile(&plan, &log);
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

/// Reads the three slots after `t`, then writes `t + 1` into slot `t`
/// and spawns `t + SLOTS / 2` once: a task whose last context
/// operation is its write — its seal, the commit point — with one more
/// operation than a mid-task fault's countdown lets through. Counts
/// the runs that reached their write.
struct WriteSpawnOp<'s> {
    store: &'s SpecStore<i64>,
    finished: AtomicUsize,
}

impl Operator for WriteSpawnOp<'_> {
    type Task = usize;

    fn execute(&self, &t: &usize, cx: &mut TaskCtx<'_>) -> Result<Vec<usize>, Abort> {
        for k in 1..4 {
            cx.read(self.store, (t + k) % SLOTS)?;
        }
        self.finished.fetch_add(1, Ordering::AcqRel);
        *cx.write(self.store, t)? += t as i64 + 1;
        Ok(if t < SLOTS / 2 {
            vec![t + SLOTS / 2]
        } else {
            vec![]
        })
    }
}

/// A commit-point fault pinned on a task that reached its write rolls
/// that task back at the write's seal: the slot is never written, no
/// spawn is returned, the retry commits (and spawns) once, and the
/// ledger equals the log. The fault fires at the commit point only:
/// the pinned task's context operations before it all go through.
#[test]
fn a_commit_point_fault_rolls_back_a_finished_task() {
    let h = Harness::new();
    let e0 = h.space.epoch();
    let plan = FaultPlan::seeded(3).at(e0, 0, FaultKind::AtCommit);
    let op = WriteSpawnOp {
        store: &h.store,
        finished: AtomicUsize::new(0),
    };
    let mut ex = Executor::new(&op, &h.space, ExecutorConfig::default());
    ex.set_fault_plan(&plan);
    let mut ws = WorkSet::from_vec(vec![0usize]);
    let mut rng = StdRng::seed_from_u64(1);
    let first = ex.run_round(&mut ws, 1, &mut rng);
    assert_eq!((first.committed, first.faulted, first.spawned), (0, 1, 0));
    assert_eq!(
        op.finished.load(Ordering::Acquire),
        1,
        "the fault fired at the task's write, not mid-task"
    );
    assert_eq!(ws.len(), 1, "the task is re-queued, its spawn dropped");
    let fired = plan.fired();
    assert_eq!(fired.len(), 1, "{fired:?}");
    assert_eq!(
        (fired[0].epoch, fired[0].slot, fired[0].kind),
        (e0, 0, FaultKind::AtCommit)
    );
    let log = ex.take_faults();
    reconcile(&plan, &log);
    assert_eq!(log[0].cause, FaultCause::Injected);
    h.space.check_all_free().unwrap();
    let mut committed = 0;
    while !ws.is_empty() {
        committed += ex.run_round(&mut ws, 1, &mut rng).committed;
    }
    assert_eq!(committed, 2, "the retry and its one spawn commit");
    assert_eq!(plan.fired_count(), 1, "the pinned fault fires once");
    drop(ex);
    let mut store = h.store;
    let mut want = vec![0i64; SLOTS];
    want[0] = 1;
    want[SLOTS / 2] = SLOTS as i64 / 2 + 1;
    assert_eq!(store.snapshot(), want, "the faulted write never ran");
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
