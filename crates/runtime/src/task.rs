//! Task-side speculation API.
//!
//! An application implements [`Operator`]; the executor calls
//! [`Operator::execute`] once per launched task with a fresh
//! [`TaskCtx`]. The context is the *only* way to touch shared state:
//!
//! * [`TaskCtx::lock`] acquires the abstract lock of an arbitrary slot.
//! * [`TaskCtx::read`] / [`TaskCtx::write`] acquire the slot's lock
//!   implicitly and — for writes — record a copy-on-write undo
//!   snapshot. A held lock is never taken away (first-wins
//!   arbitration), so holding it *is* the access right.
//! * [`TaskCtx::alloc`] allocates a fresh slot and immediately locks
//!   it.
//!
//! If any operation returns [`Abort`], the operator must propagate it
//! (the `?` operator does). The executor then rolls the task back:
//! undo snapshots are replayed in reverse — sound because the task
//! still holds the abstract lock of every slot it wrote — and all
//! locks are released. A task is therefore in exactly one of three
//! states — running (holding the locks it has acquired so far),
//! committed, or aborted — and only the task itself moves between
//! them, so no shared per-task state word exists.

use crate::lock::{self, AcquireError, LockSpace};
use crate::probe::{obs_emit, Probe};
use crate::store::SpecStore;

/// Why a task must abort. Propagate it out of
/// [`Operator::execute`]; the executor handles rollback and retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Abort {
    /// Lost an abstract-lock collision.
    Conflict {
        /// The contested lock index.
        lock: usize,
    },
    /// The operator itself requested an abort-and-retry.
    Requested,
    /// An injected fault fired on this task (spurious-abort kind,
    /// feature `faults`). The executor books it as a fault, not a
    /// conflict, and re-queues the task with its retry count bumped.
    Fault,
}

/// The scheduling rank a task value carries: the work-set drains
/// lower ranks first (uniformly at random *within* a rank), so an
/// operator whose tasks have a natural processing order — SSSP's
/// `⌊dist / Δ⌋` — encodes it here and every engine honours it.
///
/// The rank is read from the value alone, so it survives re-queues,
/// shard moves and operator wrappers unchanged. The default is rank 0
/// for every task, which is the paper's unordered work-set. A
/// hand-written task type opts in with `impl Ranked for MyTask {}`
/// (or overrides [`Ranked::rank`]).
pub trait Ranked {
    /// This task's rank; lower is drawn (and so committed) first.
    fn rank(&self) -> u64 {
        0
    }
}

macro_rules! unranked {
    ($($t:ty),*) => {$( impl Ranked for $t {} )*};
}
unranked!((), u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
impl<A, B> Ranked for (A, B) {}

/// A speculative operator: the application logic run for each task.
///
/// Implementations must route **all** shared-state access through the
/// provided [`TaskCtx`] and must be safe to re-execute (tasks are
/// retried after aborts).
pub trait Operator: Sync {
    /// The unit of work (a node of the paper's CC graph). `Sync` is
    /// required because workers execute tasks through shared slices;
    /// [`Ranked`] is where the work-set reads its draw order from.
    type Task: Send + Sync + Ranked;

    /// Execute `task` speculatively. On success, return the tasks
    /// spawned by this commit (amorphous data-parallelism); they are
    /// added to the work-set. Propagate [`Abort`] on conflict.
    fn execute(&self, task: &Self::Task, cx: &mut TaskCtx<'_>) -> Result<Vec<Self::Task>, Abort>;

    /// The global lock index of `task`'s seed element, if the operator
    /// wants the checker's static↔dynamic radius cross-check: every
    /// lock the task acquires is then audited to lie within the
    /// statically inferred conflict radius (`FOOTPRINT.toml`) of this
    /// seed. Default `None` opts out — the check is only meaningful
    /// for operators whose footprint is a ball around one element.
    fn conflict_seed(&self, task: &Self::Task) -> Option<u64> {
        let _ = task;
        None
    }
}

/// An undo-log entry: restores one slot's pre-write value.
struct UndoEntry {
    /// Replayed exactly once, in reverse log order, by `rollback`.
    restore: Box<dyn FnOnce()>,
    /// Lock index of the slot (for write-dedup).
    lock: usize,
}

/// Per-task speculation context (one per launched task per round).
pub struct TaskCtx<'rt> {
    slot: usize,
    space: &'rt LockSpace,
    /// The lane tag stamped onto every lock word this task acquires:
    /// lane 0's current epoch for round tasks, the owning
    /// worker's lane tag for pipelined tasks. Cached at construction —
    /// a task's lane epoch cannot advance while the task runs.
    tag: u64,
    lockset: Vec<usize>,
    undo: Vec<UndoEntry>,
    /// Locks acquired (for stats).
    pub acquires: usize,
    /// Audit trail of every lock transition and data access, deposited
    /// in the space's sink when the task finishes.
    #[cfg(feature = "checker")]
    trace: optpar_checker::TaskTrace,
    /// An injected fault waiting to fire (armed by the executor from
    /// its [`FaultPlan`](crate::faults::FaultPlan), ticked down on
    /// every context operation).
    #[cfg(feature = "faults")]
    inject: Option<crate::faults::ArmedFault<'rt>>,
    /// This worker's event-ring probe (feature `obs`): lock
    /// acquisitions and contentions are recorded through it.
    #[cfg(feature = "obs")]
    probe: Probe<'rt>,
    /// The epoch stamped onto this task's lock events (read once at
    /// probe attach, so every event of the task carries the round's
    /// launch epoch).
    #[cfg(feature = "obs")]
    obs_epoch: u64,
}

impl std::fmt::Debug for TaskCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskCtx")
            .field("slot", &self.slot)
            .field("locks_held", &self.lockset.len())
            .field("undo_entries", &self.undo.len())
            .finish_non_exhaustive()
    }
}

impl<'rt> TaskCtx<'rt> {
    /// A lane-0 (round-mode) context, for unit tests; the executor
    /// builds every context through [`TaskCtx::new_in_lane`].
    #[cfg(test)]
    pub(crate) fn new(slot: usize, space: &'rt LockSpace) -> Self {
        Self::new_in_lane(slot, space, 0, space.epoch())
    }

    /// A context for a task running in lock lane `lane` (0 = the round
    /// epoch, `w + 1` = pipelined worker `w`): lock words are stamped
    /// with the lane's current tag, and the audit trace carries
    /// `trace_epoch` — the round epoch, or the batch tag so the
    /// checker groups pipelined traces per batch (the unit within
    /// which committed-exclusivity must hold).
    pub(crate) fn new_in_lane(
        slot: usize,
        space: &'rt LockSpace,
        lane: usize,
        trace_epoch: u64,
    ) -> Self {
        let tag = space.lane_tag(lane);
        // Without the checker the trace-epoch argument is unused.
        let _ = trace_epoch;
        TaskCtx {
            slot,
            space,
            tag,
            lockset: Vec::with_capacity(8),
            undo: Vec::new(),
            acquires: 0,
            #[cfg(feature = "checker")]
            trace: optpar_checker::TaskTrace::new(slot, trace_epoch),
            #[cfg(feature = "faults")]
            inject: None,
            #[cfg(feature = "obs")]
            probe: None,
            #[cfg(feature = "obs")]
            obs_epoch: 0,
        }
    }

    /// Attach this worker's event-ring probe (a no-op without `obs`).
    /// Kept separate from [`TaskCtx::new`] so the many direct test
    /// constructions need no probe plumbing.
    #[cfg(feature = "obs")]
    pub(crate) fn attach_probe(&mut self, probe: Probe<'rt>) {
        self.probe = probe;
        if probe.is_some() {
            self.obs_epoch = self.space.epoch();
        }
    }

    /// Attach this worker's event-ring probe (a no-op without `obs`).
    #[cfg(not(feature = "obs"))]
    pub(crate) fn attach_probe(&mut self, _probe: Probe<'rt>) {}

    /// Arm this context with the fault (if any) the plan draws for its
    /// `(epoch, slot)` coordinate.
    #[cfg(feature = "faults")]
    pub(crate) fn arm_fault(&mut self, plan: &'rt crate::faults::FaultPlan, epoch: u64) {
        if let Some((kind, countdown)) = plan.draw(epoch, self.slot) {
            self.inject = Some(crate::faults::ArmedFault {
                plan,
                epoch,
                kind,
                countdown,
            });
        }
    }

    /// Tick the armed fault (one context operation elapsed); fires it
    /// when the countdown reaches zero. A fired panic unwinds out of
    /// here and is contained by the executor; a fired spurious abort
    /// returns `Err(Abort::Fault)`; a delay spins and continues.
    #[cfg(feature = "faults")]
    fn tick_fault(&mut self) -> Result<(), Abort> {
        match self.inject.as_mut() {
            None => Ok(()),
            Some(armed) if armed.countdown > 0 => {
                armed.countdown -= 1;
                Ok(())
            }
            Some(_) => match self.inject.take() {
                Some(armed) => armed.fire(self.slot),
                None => Ok(()),
            },
        }
    }

    /// This task's round slot (= its position in the drawn prefix; on
    /// the inline `workers == 1` round, lower slots run — and so win
    /// their locks — first).
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Record the task's seed element (from [`Operator::conflict_seed`])
    /// on the audit trace, anchoring the static↔dynamic radius
    /// cross-check for this task.
    #[cfg(feature = "checker")]
    pub(crate) fn note_seed(&mut self, seed: Option<u64>) {
        self.trace.seed = seed;
    }

    /// Acquire the abstract lock of `store` slot `i` without touching
    /// the data (useful for cautious operators that lock their whole
    /// neighbourhood up front).
    pub fn lock<T>(&mut self, store: &SpecStore<T>, i: usize) -> Result<(), Abort> {
        self.lock_raw(store.lock_of(i))
    }

    /// Acquire a raw lock index.
    pub fn lock_raw(&mut self, l: usize) -> Result<(), Abort> {
        // Every lock/read/write/alloc funnels through here, so this is
        // where an armed injected fault ticks toward firing.
        #[cfg(feature = "faults")]
        self.tick_fault()?;
        match lock::acquire_tagged(self.space, self.slot, self.tag, l) {
            Ok(true) => {
                self.lockset.push(l);
                self.acquires += 1;
                #[cfg(feature = "checker")]
                self.trace
                    .events
                    .push(optpar_checker::TraceEvent::Acquired { lock: l });
                obs_emit!(
                    self.probe,
                    optpar_obs::EventKind::LockAcquire {
                        lock: l as u64,
                        slot: self.slot as u32,
                        epoch: self.obs_epoch,
                    }
                );
                Ok(())
            }
            Ok(false) => Ok(()),
            #[cfg_attr(
                not(any(feature = "checker", feature = "obs")),
                allow(unused_variables)
            )]
            Err(AcquireError::Conflict { lock, holder }) => {
                #[cfg(feature = "checker")]
                self.trace
                    .events
                    .push(optpar_checker::TraceEvent::Conflicted { lock, holder });
                obs_emit!(
                    self.probe,
                    optpar_obs::EventKind::LockContend {
                        lock: lock as u64,
                        slot: self.slot as u32,
                        holder: holder as u32,
                    }
                );
                Err(Abort::Conflict { lock })
            }
        }
    }

    /// Record a data access that is about to happen. Coverage is
    /// re-derived from the lock word itself (not assumed from the
    /// successful `lock_raw`), so a protocol bug that lets an access
    /// through uncovered shows up in the trace.
    #[cfg(feature = "checker")]
    fn trace_access(&mut self, l: usize, kind: optpar_checker::AccessKind) {
        let covered = self.space.owner_of(l) == Some(self.slot) && self.lockset.contains(&l);
        self.trace.events.push(optpar_checker::TraceEvent::Access {
            lock: l,
            kind,
            covered,
        });
    }

    /// Read `store[i]`, acquiring its lock if necessary.
    ///
    /// The returned reference borrows the context, so it cannot outlive
    /// the next context operation — references never dangle across
    /// lock transitions.
    pub fn read<'c, T: Send>(&'c mut self, store: &SpecStore<T>, i: usize) -> Result<&'c T, Abort> {
        let l = store.lock_of(i);
        self.lock_raw(l)?;
        #[cfg(feature = "checker")]
        self.trace_access(l, optpar_checker::AccessKind::Read);
        // SAFETY: `lock_raw` succeeded, so this task holds the abstract
        // lock of slot `i`, and under first-wins arbitration nobody
        // but the holder ever rewrites a live lock word, so it is
        // still held; the lock grants exclusive access, and the
        // returned shared borrow is tied to `&mut self`, so no mutation
        // can occur through this context while it lives.
        unsafe { Ok(&*store.slot_ptr(i)) }
    }

    /// Copy `store[i]` out (avoids holding a borrow of the context).
    pub fn read_copy<T: Send + Copy>(
        &mut self,
        store: &SpecStore<T>,
        i: usize,
    ) -> Result<T, Abort> {
        self.read(store, i).copied()
    }

    /// Write access to `store[i]`: acquires the lock, snapshots the old
    /// value into the undo log (first write per slot only), and returns
    /// an exclusive reference.
    pub fn write<'c, T: Send + Clone + 'static>(
        &'c mut self,
        store: &SpecStore<T>,
        i: usize,
    ) -> Result<&'c mut T, Abort> {
        let l = store.lock_of(i);
        self.lock_raw(l)?;
        #[cfg(feature = "checker")]
        self.trace_access(l, optpar_checker::AccessKind::Write);
        let ptr = store.slot_ptr(i);
        if !self.undo.iter().any(|u| u.lock == l) {
            // SAFETY: exclusive access as in `read`; we clone the
            // current value out while no other reference exists.
            let old = unsafe { (*ptr).clone() };
            let raw = SendPtr(ptr);
            self.undo.push(UndoEntry {
                lock: l,
                // SAFETY: deferred to call time — the restore closure
                // runs during rollback, while this task still holds the
                // lock of slot `i` (writes only happen under held locks,
                // and a held lock is never taken away), so the store
                // slot is exclusively ours; the store outlives the round.
                restore: Box::new(move || unsafe {
                    *raw.0 = old;
                }),
            });
        }
        // SAFETY: exclusive access as in `read`; `&mut self` ensures no
        // other outstanding reference from this context.
        unsafe { Ok(&mut *ptr) }
    }

    /// Allocate a fresh slot in `store` and lock it (a fresh slot is
    /// uncontended, so this cannot conflict, but the lock keeps the
    /// invariant "all access under locks" uniform).
    pub fn alloc<T: Send>(&mut self, store: &SpecStore<T>) -> Result<usize, Abort> {
        let i = store.alloc();
        self.lock(store, i)?;
        Ok(i)
    }

    /// Operator-requested abort (e.g. optimistic validation failed at
    /// the application level).
    pub fn abort_requested<T>(&self) -> Result<T, Abort> {
        Err(Abort::Requested)
    }

    /// Number of undo entries recorded (distinct slots written).
    pub fn undo_len(&self) -> usize {
        self.undo.len()
    }

    /// Commit: discard the undo log and return the still-held lockset.
    ///
    /// **Committed tasks keep their locks until the round barrier** so
    /// that later tasks of the same round conflict with them, exactly
    /// as in the paper's model (a node aborts iff a neighbour
    /// *committed* in the same round). The round-based executor
    /// expires these locks wholesale with its end-of-round epoch bump
    /// ([`LockSpace::advance_epoch`]), the pipelined one with its
    /// per-batch lane bump. Infallible: a task that reached the end of
    /// its operator holds every lock it acquired.
    pub(crate) fn finish_commit(mut self) -> Vec<usize> {
        self.undo.clear();
        #[cfg(feature = "checker")]
        {
            self.trace.outcome = optpar_checker::Outcome::Committed;
            self.space.audit().push_trace(std::mem::replace(
                &mut self.trace,
                optpar_checker::TaskTrace::new(self.slot, 0),
            ));
        }
        std::mem::take(&mut self.lockset)
    }

    /// Roll back: replay undo entries in reverse, then release locks.
    pub(crate) fn finish_abort(mut self) {
        for entry in self.undo.drain(..).rev() {
            (entry.restore)();
        }
        lock::release_all_tagged(self.space, self.slot, self.tag, &self.lockset);
        #[cfg(feature = "checker")]
        {
            self.trace.outcome = optpar_checker::Outcome::Aborted;
            self.space.audit().push_trace(std::mem::replace(
                &mut self.trace,
                optpar_checker::TaskTrace::new(self.slot, 0),
            ));
        }
    }

    /// Mark this task's abort as operator-requested in the audit
    /// trail, so the commit-set oracle does not expect it to commit.
    #[cfg(feature = "checker")]
    pub(crate) fn note_requested_abort(&mut self) {
        self.trace
            .events
            .push(optpar_checker::TraceEvent::AbortRequested);
    }

    /// Mark this task as faulted (contained panic or injected fault)
    /// in the audit trail, so the commit-set oracle excuses its abort.
    #[cfg(feature = "checker")]
    pub(crate) fn note_fault(&mut self) {
        self.trace.events.push(optpar_checker::TraceEvent::Faulted);
    }

    /// Deliberately buggy lock release for checker fault-injection
    /// tests: frees the lock word *before* commit while keeping the
    /// local lockset bookkeeping — exactly the "lost release" class of
    /// bug the committed-exclusivity analysis exists to catch.
    #[cfg(all(test, feature = "checker"))]
    pub(crate) fn buggy_release_lock(&self, l: usize) {
        lock::release_all(self.space, self.slot, &[l]);
    }
}

/// Raw pointer wrapper so undo closures can be stored in the (single
/// threaded) context without borrow-checker entanglement.
struct SendPtr<T>(*mut T);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lock::LockSpace;

    /// Commit and immediately release (round-barrier stand-in for unit
    /// tests; the executor does this at the end of each round).
    fn commit_release(cx: TaskCtx<'_>, space: &LockSpace) {
        let slot = cx.slot();
        let lockset = cx.finish_commit();
        crate::lock::release_all(space, slot, &lockset);
    }

    fn setup(cap: usize) -> (LockSpace, crate::lock::Region) {
        let mut b = LockSpace::builder();
        let r = b.region(cap);
        (b.build(), r)
    }

    #[test]
    fn write_and_commit() {
        let (space, r) = setup(4);
        let store = SpecStore::filled(r, 4, 0u32);
        let mut cx = TaskCtx::new(0, &space);
        *cx.write(&store, 2).unwrap() = 99;
        assert_eq!(cx.undo_len(), 1);
        commit_release(cx, &space);
        assert!(space.check_all_free().is_ok());
        let mut store = store;
        assert_eq!(*store.get_mut(2), 99);
    }

    #[test]
    fn write_and_rollback_restores() {
        let (space, r) = setup(4);
        let store = SpecStore::from_vec(r, vec![10, 20, 30, 40], 0);
        let mut cx = TaskCtx::new(0, &space);
        *cx.write(&store, 1).unwrap() = 999;
        *cx.write(&store, 3).unwrap() = 888;
        *cx.write(&store, 1).unwrap() = 777; // second write, same slot
        assert_eq!(cx.undo_len(), 2, "per-slot snapshots are deduped");
        cx.finish_abort();
        assert!(space.check_all_free().is_ok());
        let mut store = store;
        assert_eq!(store.snapshot(), vec![10, 20, 30, 40]);
    }

    #[test]
    fn conflict_aborts_second_task() {
        let (space, r) = setup(2);
        let store = SpecStore::filled(r, 2, 0u8);
        let mut cx0 = TaskCtx::new(0, &space);
        let mut cx1 = TaskCtx::new(1, &space);
        cx0.lock(&store, 0).unwrap();
        let err = cx1.write(&store, 0).unwrap_err();
        assert_eq!(err, Abort::Conflict { lock: 0 });
        cx1.finish_abort();
        commit_release(cx0, &space);
        assert!(space.check_all_free().is_ok());
    }

    #[test]
    fn read_then_write_same_slot() {
        let (space, r) = setup(1);
        let store = SpecStore::filled(r, 1, 41u32);
        let mut cx = TaskCtx::new(0, &space);
        let v = *cx.read(&store, 0).unwrap();
        *cx.write(&store, 0).unwrap() = v + 1;
        commit_release(cx, &space);
        let mut store = store;
        assert_eq!(*store.get_mut(0), 42);
    }

    #[test]
    fn alloc_locks_fresh_slot() {
        let (space, r) = setup(4);
        let store = SpecStore::filled(r, 1, 0u32);
        let mut cx = TaskCtx::new(0, &space);
        let i = cx.alloc(&store).unwrap();
        assert_eq!(i, 1);
        assert_eq!(space.owner_of(r.lock_of(1)), Some(0));
        *cx.write(&store, i).unwrap() = 5;
        commit_release(cx, &space);
        assert!(space.check_all_free().is_ok());
    }

    #[test]
    fn requested_abort() {
        let (space, r) = setup(1);
        let store = SpecStore::filled(r, 1, 1u8);
        let mut cx = TaskCtx::new(0, &space);
        *cx.write(&store, 0).unwrap() = 2;
        let e: Result<(), Abort> = cx.abort_requested();
        assert_eq!(e.unwrap_err(), Abort::Requested);
        cx.finish_abort();
        let mut store = store;
        assert_eq!(*store.get_mut(0), 1, "requested abort must roll back");
    }

    /// Fault injection: a lost pre-commit lock release lets a second
    /// task acquire, write, and commit on the same datum in the same
    /// epoch. The runtime itself cannot see this (both tasks followed
    /// the API); the committed-exclusivity analysis must.
    #[cfg(feature = "checker")]
    #[test]
    fn seeded_lost_release_race_is_detected() {
        use optpar_checker::{CheckerMode, Report};
        let (space, r) = setup(1);
        space.audit().set_mode(CheckerMode::Collect);
        space.audit().arm(false);
        let store = SpecStore::filled(r, 1, 0u8);
        let epoch = space.epoch();
        let mut cx0 = TaskCtx::new(0, &space);
        *cx0.write(&store, 0).unwrap() = 1;
        // The seeded bug: the held lock leaks out before commit.
        cx0.buggy_release_lock(r.lock_of(0));
        let _ = cx0.finish_commit();
        // Task 1 sneaks in on the leaked lock and also commits.
        let mut cx1 = TaskCtx::new(1, &space);
        *cx1.write(&store, 0).unwrap() = 2;
        let _ = cx1.finish_commit();
        space.audit().drain_round();
        let reports = space.audit().take_reports();
        assert!(
            reports.iter().any(|rep| matches!(
                rep,
                Report::Race { lock: 0, epoch: e, pair }
                    if *e == epoch && pair.0.slot == 0 && pair.1.slot == 1
            )),
            "expected a race on lock 0 naming tasks 0 and 1: {reports:?}"
        );
    }

    #[test]
    fn reentrant_locks_release_once() {
        let (space, r) = setup(1);
        let store = SpecStore::filled(r, 1, 0u8);
        let mut cx = TaskCtx::new(0, &space);
        cx.lock(&store, 0).unwrap();
        cx.lock(&store, 0).unwrap();
        assert_eq!(cx.acquires, 1);
        commit_release(cx, &space);
        assert!(space.check_all_free().is_ok());
    }
}
