//! Task-side speculation API.
//!
//! An application implements [`Operator`]; the executor calls
//! [`Operator::execute`] once per launched task with a fresh
//! [`TaskCtx`]. The context is the *only* way to touch shared state:
//!
//! * [`TaskCtx::lock`] acquires the abstract lock of an arbitrary slot.
//! * [`TaskCtx::read`] acquires the slot's lock implicitly. A running
//!   task's lock is never taken away (first-wins arbitration), so
//!   holding it *is* the access right.
//! * [`TaskCtx::alloc`] allocates a fresh slot and immediately locks
//!   it.
//! * [`TaskCtx::seal`] ends the task's fallible part. Every operator is
//!   *cautious* — it locks every slot it will write before its first
//!   write — so it seals after its last lock and writes through the
//!   returned [`Sealed`] handle: in place, with no fault tick, because
//!   a sealed task no longer aborts.
//! * [`TaskCtx::write`] locks the slot, seals, and hands the slot out
//!   in place: a task's first write is its seal.
//!
//! If any operation returns [`Abort`], the operator must propagate it
//! (the `?` operator does). The executor then rolls the task back,
//! which is releasing its locks: every write follows the seal, so a
//! task that aborts has written nothing. A task is therefore in
//! exactly one of three states — running (holding the locks it has
//! acquired so far), committed, or aborted — and only the task itself
//! moves between them, so no shared per-task state word exists. A
//! sealed task is still running, but can only commit: an `Err`
//! returned, or a panic raised, after the seal is not rolled back —
//! the executor re-raises it and the run fails.
//!
//! A context runs in one of three modes (`Mode`). A *round* context
//! (a model round) and a *lane* context (a pipelined worker) write
//! their mark into a lock word per acquire and check it before every
//! sealed write; a lane task releases its words when it finishes,
//! commit or abort, while a round's committed task keeps them until
//! the round barrier ([`crate::lock`]). A *solo* context —
//! the solo runner's, or a lone pipelined lane's, both at one worker —
//! marks nothing: [`TaskCtx::lock`]
//! is a fault tick and an acquire count, a sealed write goes straight
//! to the slot, and a rollback has nothing to release. That rests on
//! two invariants: only one drain runs over a
//! [`LockSpace`] at a time — every drain (a model round, a solo step,
//! a pipelined run) claims the space for its duration and panics if
//! another drain holds it — so a solo task, run one at a time on the
//! drain's one thread, has no other task to conflict with; and every operator is cautious, so a
//! task that aborts or faults has written nothing that a lock would
//! have guarded. A debug build still records a solo task's locks and
//! checks every sealed write against them.

use crate::lock::{self, AcquireError, Acquired, LockSpace};
use crate::store::SpecStore;
use optpar_obs::{EventKind, EventRing};

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
    /// An injected fault fired on this task (spurious-abort kind). The
    /// executor books it as a fault, not a conflict, and re-queues the
    /// task with its retry count bumped.
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
///
/// An operator must be *cautious*: it locks every slot it will write
/// before its first write. It then calls [`TaskCtx::seal`] after its
/// last lock and writes through the returned [`Sealed`] handle — or
/// writes through [`TaskCtx::write`], whose first call seals. Its
/// writes then cost what the sequential code's do. After the seal the
/// operator must return `Ok` and must not panic — nothing past that
/// point can be rolled back, so a lock that conflicts after a write
/// fails the round.
pub trait Operator: Sync {
    /// The unit of work (a node of the paper's CC graph). `Sync` is
    /// required because workers execute tasks through shared slices;
    /// [`Ranked`] is where the work-set reads its draw order from.
    type Task: Send + Sync + Ranked;

    /// Execute `task` speculatively. On success, return the tasks
    /// spawned by this commit (amorphous data-parallelism); they are
    /// added to the work-set. Propagate [`Abort`] on conflict — before
    /// [`TaskCtx::seal`], never after it.
    fn execute(&self, task: &Self::Task, cx: &mut TaskCtx<'_>) -> Result<Vec<Self::Task>, Abort>;

    /// Never called. Benchmark-pinned: the frozen `benchmark/src/trace.rs`
    /// forwards it through its timing wrapper; the next PR that may
    /// edit `benchmark/` drops it (ROADMAP item 5(b)).
    #[doc(hidden)]
    fn conflict_seed(&self, task: &Self::Task) -> Option<u64> {
        let _ = task;
        None
    }
}

/// The buffers a running task fills — its lockset and, when a
/// recorder is attached, its trace events — owned by whichever loop
/// calls `Executor::speculate` (a round, a solo step, a pipelined
/// worker) and lent to one [`TaskCtx`] at a time, which leaves the
/// lockset empty: cleared, not freed, so a task allocates nothing
/// once the buffer has grown to the loop's largest footprint. A model
/// round's committed tasks move their locksets into `retained`, which
/// its barrier releases ([`TaskScratch::release_retained`]). The loop
/// hands `trace` to the recorder where it already serializes: at the
/// step barrier, and at a lane's batch retire.
#[derive(Default)]
pub(crate) struct TaskScratch {
    lockset: Vec<usize>,
    retained: Vec<usize>,
    /// The loop's event buffer; `None` records nothing.
    pub(crate) trace: Option<EventRing>,
}

impl TaskScratch {
    /// Record `kind` into the loop's event buffer, if it has one.
    #[inline]
    pub(crate) fn record(&self, kind: EventKind) {
        if let Some(ring) = &self.trace {
            ring.record(kind);
        }
    }

    /// The round barrier's release: free every word the round's
    /// committed tasks kept.
    pub(crate) fn release_retained(&mut self, space: &LockSpace) {
        lock::release_all(space, &self.retained);
        self.retained.clear();
    }
}

/// How a context treats lock words (module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Mode {
    /// A model round's task: it marks its words, and a commit keeps
    /// them until the round barrier.
    Round,
    /// A pipelined worker's task: it marks its words and releases them
    /// when it finishes, commit or abort.
    Lane,
    /// A task of the solo runner, or of a lone pipelined lane (one
    /// worker): no lock word is read or written.
    Solo,
}

/// Per-task speculation context (one per launched task per round).
pub struct TaskCtx<'rt> {
    slot: usize,
    space: &'rt LockSpace,
    mode: Mode,
    /// The calling loop's lockset buffer; empty between tasks.
    scratch: &'rt mut TaskScratch,
    /// Successful lock calls, in every mode: each `lock`, `read`,
    /// `write` and `alloc` that got its lock counts once, a re-entrant
    /// one included (a solo context cannot tell re-entry apart).
    pub acquires: usize,
    /// An injected fault waiting to fire (armed by the executor from
    /// its [`FaultPlan`](crate::faults::FaultPlan), ticked down on
    /// every context operation up to the seal, which disarms it).
    inject: Option<crate::faults::ArmedFault<'rt>>,
    /// The attached fault plan and this task's key in it: where
    /// [`TaskCtx::seal`] draws the commit-point fault.
    commit_fault: Option<(&'rt crate::faults::FaultPlan, u64)>,
    /// Set by [`TaskCtx::seal`]: the task can no longer be rolled back.
    /// The executor reads it once, after the operator returns.
    pub(crate) sealed: bool,
}

impl std::fmt::Debug for TaskCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskCtx")
            .field("slot", &self.slot)
            .field("locks_held", &self.scratch.lockset.len())
            .field("sealed", &self.sealed)
            .finish_non_exhaustive()
    }
}

impl<'rt> TaskCtx<'rt> {
    /// A round-mode context, for unit tests; the executor builds every
    /// context through [`TaskCtx::with_mode`].
    #[cfg(test)]
    pub(crate) fn new(slot: usize, space: &'rt LockSpace, scratch: &'rt mut TaskScratch) -> Self {
        Self::with_mode(slot, space, Mode::Round, scratch)
    }

    /// A context for a task in `mode`: in a round or a lane, lock words
    /// carry the task's mark, `slot + 1`, and the task records its
    /// lockset in `scratch`, which the previous context left empty; a
    /// solo context marks and records nothing (module docs).
    pub(crate) fn with_mode(
        slot: usize,
        space: &'rt LockSpace,
        mode: Mode,
        scratch: &'rt mut TaskScratch,
    ) -> Self {
        debug_assert!(scratch.lockset.is_empty());
        TaskCtx {
            slot,
            space,
            mode,
            scratch,
            acquires: 0,
            inject: None,
            commit_fault: None,
            sealed: false,
        }
    }

    /// Record `kind` into the calling loop's event buffer, if it has
    /// one. Inlined, so that with no buffer the event is never built:
    /// `speculate` is generic and compiled in the operator's crate.
    #[inline]
    pub(crate) fn record(&self, kind: EventKind) {
        self.scratch.record(kind);
    }

    /// Arm this context with the fault (if any) the plan draws for its
    /// `(epoch, slot)` coordinate, and with the plan itself for the
    /// commit-point draw at [`TaskCtx::seal`].
    pub(crate) fn arm_fault(&mut self, plan: &'rt crate::faults::FaultPlan, epoch: u64) {
        self.commit_fault = Some((plan, epoch));
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
    /// returns `Err(Abort::Fault)`.
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

    /// Acquire the abstract lock of `store` slot `i` without touching
    /// the data (useful for cautious operators that lock their whole
    /// neighbourhood up front).
    pub fn lock<T>(&mut self, store: &SpecStore<T>, i: usize) -> Result<(), Abort> {
        self.lock_raw(store.lock_of(i))
    }

    /// Acquire a raw lock index; a success counts as one acquire,
    /// re-entrant or not. In a solo context this only counts the
    /// acquire; a debug build also records the lock, so that a sealed
    /// write can still check it (`TaskCtx::in_place`).
    #[inline]
    pub fn lock_raw(&mut self, l: usize) -> Result<(), Abort> {
        // Every lock/read/write/alloc funnels through here, so this is
        // where an armed injected fault ticks toward firing.
        self.tick_fault()?;
        if self.mode == Mode::Solo {
            if cfg!(debug_assertions) && !self.scratch.lockset.contains(&l) {
                self.scratch.lockset.push(l);
            }
            self.acquires += 1;
            return Ok(());
        }
        match lock::acquire(self.space, self.slot, l) {
            Ok(how) => {
                if how == Acquired::Fresh {
                    self.scratch.lockset.push(l);
                }
                self.acquires += 1;
                Ok(())
            }
            Err(AcquireError::Conflict { lock, holder }) => Err(self.contended(lock, holder)),
        }
    }

    /// `lock_raw`'s conflict exit, kept out of line so that `lock_raw`
    /// is small enough to inline into the operators that call it.
    #[cold]
    #[inline(never)]
    fn contended(&self, lock: usize, holder: usize) -> Abort {
        self.record(EventKind::LockContend {
            lock: lock as u64,
            slot: self.slot as u32,
            holder: holder as u32,
        });
        Abort::Conflict { lock }
    }

    /// Read `store[i]`, acquiring its lock if necessary.
    ///
    /// The returned reference borrows the context, so it cannot outlive
    /// the next context operation — references never dangle across
    /// lock transitions.
    pub fn read<'c, T: Send>(&'c mut self, store: &SpecStore<T>, i: usize) -> Result<&'c T, Abort> {
        let l = store.lock_of(i);
        self.lock_raw(l)?;
        #[expect(
            clippy::disallowed_methods,
            reason = "TaskCtx is the lock-checked access layer"
        )]
        let ptr = store.slot_ptr(i);
        // SAFETY: in a round or lane context `lock_raw` succeeded, so
        // this task holds the abstract lock of slot `i`, and nobody but
        // its holder writes a held lock word, so it is still held (the
        // previous holder's release ordered its writes before our
        // reads, see `lock`); the lock grants exclusive access. A solo
        // context holds no word, but it is the only task running over
        // this lock space — its step holds the space's drain claim, and
        // a solo step runs one task at a time — so no other access to
        // the slot exists. Either way the
        // returned shared borrow is tied to `&mut self`, so no mutation
        // can occur through this context while it lives.
        unsafe { Ok(&*ptr) }
    }

    /// Copy `store[i]` out (avoids holding a borrow of the context).
    pub fn read_copy<T: Send + Copy>(
        &mut self,
        store: &SpecStore<T>,
        i: usize,
    ) -> Result<T, Abort> {
        self.read(store, i).copied()
    }

    /// Write access to `store[i]`: acquires the slot's lock, seals the
    /// task ([`TaskCtx::seal`]) and returns the slot in place.
    ///
    /// The first write is the task's commit point: an operator must
    /// hold every slot it will write before it (it is cautious). A lock
    /// that conflicts after a write cannot be rolled back, so its `Err`
    /// fails the round.
    pub fn write<'c, T: Send>(
        &'c mut self,
        store: &SpecStore<T>,
        i: usize,
    ) -> Result<&'c mut T, Abort> {
        self.lock_raw(store.lock_of(i))?;
        self.seal_here()?;
        Ok(self.in_place(store, i))
    }

    /// `store[i]` in place, for a sealed task that holds its lock: the
    /// one write path, behind [`TaskCtx::write`] and [`Sealed::write`].
    /// A solo context has no mark to check; a debug build checks the
    /// lock against the lockset it records instead.
    ///
    /// # Panics
    /// Panics if the task does not hold the slot's lock (a solo
    /// context: in a debug build only).
    #[inline]
    fn in_place<T: Send>(&mut self, store: &SpecStore<T>, i: usize) -> &mut T {
        let solo = self.mode == Mode::Solo;
        if !solo || cfg!(debug_assertions) {
            let l = store.lock_of(i);
            let held = if solo {
                self.scratch.lockset.contains(&l)
            } else {
                lock::holds(self.space, self.slot, l)
            };
            if !held {
                not_held(self.slot, l);
            }
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "TaskCtx is the lock-checked access layer"
        )]
        let ptr = store.slot_ptr(i);
        // SAFETY: in a round or lane context the lock word carries
        // this task's own mark, so the task holds slot `i`'s abstract
        // lock, and a running task's lock is never taken away; the
        // lock grants exclusive access. A solo context is the only task running
        // over this lock space (its step holds the space's drain claim
        // and runs one task at a time), so nothing else reaches the
        // slot; and it is sealed, so it commits — the operator is
        // cautious, so a task that aborts never got here. Either way
        // the returned
        // borrow is tied to `&mut self`, so no other reference through
        // this context can coexist.
        unsafe { &mut *ptr }
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

    /// End the task's fallible part: after this the task commits.
    ///
    /// Call it after the task's last lock, as its last fallible
    /// context call, and do every write through the returned
    /// [`Sealed`] handle. Every operator is *cautious* (it holds every
    /// slot it will write before its first write), so its writes need
    /// no undo: nothing after `seal` can abort the task, and no other
    /// task can take its locks while it runs. [`TaskCtx::write`] seals
    /// too, so an operator that writes through the context seals at
    /// its first write.
    ///
    /// An armed fault gets its last tick here and is then disarmed, so
    /// no later context call can fire it; a commit-point fault from an
    /// attached plan fires here rather than after the operator returns
    /// — the last moment a rollback is still possible. Either returns
    /// `Err`, which the operator propagates like any abort.
    ///
    /// Once sealed, the task must return `Ok`: an `Err` returned or a
    /// panic raised after `seal` cannot be rolled back, so the executor
    /// re-raises it out of the round (or out of the service job) instead
    /// of containing it.
    pub fn seal(&mut self) -> Result<Sealed<'_, 'rt>, Abort> {
        self.seal_here()?;
        Ok(Sealed { cx: self })
    }

    /// [`TaskCtx::seal`] without the handle; sealing twice is sealing
    /// once.
    fn seal_here(&mut self) -> Result<(), Abort> {
        if !self.sealed {
            self.tick_fault()?;
            if let Some((plan, key)) = self.commit_fault {
                if plan.draw_commit(key, self.slot) {
                    return Err(Abort::Fault);
                }
            }
            self.sealed = true;
            self.inject = None;
        }
        Ok(())
    }

    /// Commit. A lane task releases its lockset here, before its
    /// worker runs the next task: a finished holder's words are zero.
    /// **A model round's committed task keeps its locks until the
    /// round barrier** — its lockset moves to the scratch's retained
    /// list, which the barrier releases — so that later tasks of the
    /// round conflict with it, exactly as in the paper's model (a node
    /// aborts iff a neighbour *committed* in the same round). A solo
    /// context marked nothing. Infallible: a task that reached the end
    /// of its operator holds every lock it acquired.
    pub(crate) fn finish_commit(self) {
        let scratch = &mut *self.scratch;
        match self.mode {
            Mode::Round => scratch.retained.extend_from_slice(&scratch.lockset),
            Mode::Lane => lock::release_all(self.space, &scratch.lockset),
            Mode::Solo => {}
        }
    }

    /// Roll back: release the locks, in every mode but solo (which
    /// marked nothing). The task never sealed, so it wrote nothing.
    pub(crate) fn finish_abort(self) {
        debug_assert!(!self.sealed, "a sealed task cannot roll back");
        if self.mode != Mode::Solo {
            lock::release_all(self.space, &self.scratch.lockset);
        }
    }
}

/// Write access for a sealed task ([`TaskCtx::seal`]): every call is
/// infallible.
///
/// [`Sealed::write`] hands out a slot the task already holds, in place,
/// with no fault tick. Writing a slot whose lock the task does not hold
/// is a bug in the operator (it was not cautious) and panics — past
/// `seal` that panic is not contained.
#[derive(Debug)]
pub struct Sealed<'c, 'rt> {
    cx: &'c mut TaskCtx<'rt>,
}

impl Sealed<'_, '_> {
    /// Exclusive access to `store[i]`, whose lock the task must already
    /// hold.
    ///
    /// # Panics
    /// Panics if the task does not hold the slot's lock.
    #[inline]
    pub fn write<T: Send>(&mut self, store: &SpecStore<T>, i: usize) -> &mut T {
        self.cx.in_place(store, i)
    }

    /// Allocate a fresh slot in `store` and lock it (as
    /// [`TaskCtx::alloc`], with no fault tick; a solo context only
    /// counts the acquire, and records it in a debug build).
    ///
    /// # Panics
    /// Panics if the store is full, or if the fresh slot's lock is held
    /// by another task (a broken allocator invariant).
    pub fn alloc<T: Send>(&mut self, store: &SpecStore<T>) -> usize {
        let i = store.alloc();
        let cx = &mut *self.cx;
        let l = store.lock_of(i);
        let solo = cx.mode == Mode::Solo;
        if !solo && lock::acquire(cx.space, cx.slot, l).is_err() {
            not_held(cx.slot, l);
        }
        // Released with the rest of the lockset when the task (or, in
        // a model round, its round) finishes.
        if !solo || cfg!(debug_assertions) {
            cx.scratch.lockset.push(l);
        }
        cx.acquires += 1;
        i
    }
}

/// The panic of a sealed access to a lock its task does not hold.
#[cold]
#[inline(never)]
#[expect(
    clippy::panic,
    reason = "a sealed task cannot roll back, so an access outside its lockset stops the run"
)]
fn not_held(slot: usize, l: usize) -> ! {
    panic!("sealed task at slot {slot} does not hold lock {l}")
}

impl Drop for TaskCtx<'_> {
    /// Hand the scratch back empty however the task ended.
    fn drop(&mut self) {
        self.scratch.lockset.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lock::LockSpace;

    /// Pass the round barrier, as a model round does after its last
    /// task: release what its committed tasks kept, bump the epoch.
    fn barrier(scratch: &mut TaskScratch, space: &LockSpace) {
        scratch.release_retained(space);
        space.advance_epoch();
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
        let mut scratch = TaskScratch::default();
        let mut cx = TaskCtx::new(0, &space, &mut scratch);
        *cx.write(&store, 2).unwrap() = 99;
        assert!(cx.sealed, "the first write is the seal");
        cx.finish_commit();
        barrier(&mut scratch, &space);
        assert!(space.check_all_free().is_ok());
        let mut store = store;
        assert_eq!(*store.get_mut(2), 99);
    }

    #[test]
    fn conflict_aborts_second_task() {
        let (space, r) = setup(2);
        let store = SpecStore::filled(r, 2, 0u8);
        let mut scratch0 = TaskScratch::default();
        let mut cx0 = TaskCtx::new(0, &space, &mut scratch0);
        let mut scratch1 = TaskScratch::default();
        let mut cx1 = TaskCtx::new(1, &space, &mut scratch1);
        cx0.lock(&store, 0).unwrap();
        let err = cx1.write(&store, 0).unwrap_err();
        assert_eq!(err, Abort::Conflict { lock: 0 });
        assert!(!cx1.sealed, "a write that loses its lock does not seal");
        cx1.finish_abort();
        cx0.finish_commit();
        barrier(&mut scratch0, &space);
        assert!(space.check_all_free().is_ok());
    }

    /// A lane commit leaves its words free with no epoch step, so the
    /// next task takes them from zero; that task's rollback leaves the
    /// *committed* value — an aborting task wrote nothing — and the
    /// words free again.
    #[test]
    fn takeover_then_rollback_restores_the_committed_value() {
        let (space, r) = setup(2);
        let store = SpecStore::from_vec(r, vec![10u32, 20], 0);
        let mut scratch = TaskScratch::default();
        let mut cx0 = TaskCtx::with_mode(0, &space, Mode::Lane, &mut scratch);
        *cx0.write(&store, 0).unwrap() = 11;
        cx0.finish_commit();
        assert!(space.check_all_free().is_ok(), "the commit released");
        assert_eq!(space.epoch(), 0, "with no bump");
        // The next task of the lane takes the word and rolls back.
        let mut cx1 = TaskCtx::with_mode(1, &space, Mode::Lane, &mut scratch);
        assert_eq!(*cx1.read(&store, 0).unwrap(), 11);
        cx1.lock(&store, 1).unwrap();
        assert_eq!(cx1.acquires, 2);
        assert_eq!(space.owner_of(0), Some(1));
        cx1.finish_abort();
        assert!(space.check_all_free().is_ok());
        // Another lane finds the committed value behind a free word.
        let mut cx2 = TaskCtx::with_mode(8, &space, Mode::Lane, &mut scratch);
        assert_eq!(*cx2.read(&store, 0).unwrap(), 11);
        cx2.finish_commit();
        assert!(space.check_all_free().is_ok());
        let mut store = store;
        assert_eq!(store.snapshot(), vec![11, 20]);
    }

    /// A model round retains: its committed task's word conflicts with
    /// a later slot of the same round, and the barrier frees it.
    #[test]
    fn a_round_commit_holds_its_words_to_the_barrier() {
        let (space, r) = setup(2);
        let store = SpecStore::filled(r, 2, 0u32);
        let mut scratch = TaskScratch::default();
        let mut cx0 = TaskCtx::new(0, &space, &mut scratch);
        cx0.lock(&store, 1).unwrap();
        *cx0.write(&store, 0).unwrap() = 1;
        cx0.finish_commit();
        assert_eq!(space.owner_of(0), Some(0), "kept past the commit");
        assert_eq!(space.owner_of(1), Some(0));
        let mut cx1 = TaskCtx::new(1, &space, &mut scratch);
        assert_eq!(cx1.read(&store, 0).err(), Some(Abort::Conflict { lock: 0 }));
        cx1.finish_abort();
        assert_eq!(space.owner_of(0), Some(0), "the loser freed nothing");
        barrier(&mut scratch, &space);
        assert!(space.check_all_free().is_ok());
        assert_eq!(space.epoch(), 1);
        let mut cx1 = TaskCtx::new(1, &space, &mut scratch);
        assert_eq!(*cx1.read(&store, 0).unwrap(), 1);
        cx1.finish_abort();
        assert!(space.check_all_free().is_ok());
    }

    #[test]
    fn read_then_write_same_slot() {
        let (space, r) = setup(1);
        let store = SpecStore::filled(r, 1, 41u32);
        let mut scratch = TaskScratch::default();
        let mut cx = TaskCtx::new(0, &space, &mut scratch);
        let v = *cx.read(&store, 0).unwrap();
        *cx.write(&store, 0).unwrap() = v + 1;
        cx.finish_commit();
        barrier(&mut scratch, &space);
        let mut store = store;
        assert_eq!(*store.get_mut(0), 42);
    }

    #[test]
    fn alloc_locks_fresh_slot() {
        let (space, r) = setup(4);
        let store = SpecStore::filled(r, 1, 0u32);
        let mut scratch = TaskScratch::default();
        let mut cx = TaskCtx::new(0, &space, &mut scratch);
        let i = cx.alloc(&store).unwrap();
        assert_eq!(i, 1);
        assert_eq!(space.owner_of(r.lock_of(1)), Some(0));
        *cx.write(&store, i).unwrap() = 5;
        cx.finish_commit();
        barrier(&mut scratch, &space);
        assert!(space.check_all_free().is_ok());
    }

    /// An operator asks for its abort before its first write: the
    /// rollback frees its locks and the store is as it was.
    #[test]
    fn requested_abort() {
        let (space, r) = setup(1);
        let store = SpecStore::filled(r, 1, 1u8);
        let mut scratch = TaskScratch::default();
        let mut cx = TaskCtx::new(0, &space, &mut scratch);
        assert_eq!(*cx.read(&store, 0).unwrap(), 1);
        let e: Result<(), Abort> = cx.abort_requested();
        assert_eq!(e.unwrap_err(), Abort::Requested);
        cx.finish_abort();
        assert!(space.check_all_free().is_ok());
        let mut store = store;
        assert_eq!(*store.get_mut(0), 1);
    }

    #[test]
    fn sealed_writes_go_in_place_with_no_undo_entry() {
        let (space, r) = setup(4);
        let store = SpecStore::from_vec(r, vec![vec![1u32], vec![2], vec![3]], vec![]);
        let mut scratch = TaskScratch::default();
        let mut cx = TaskCtx::new(0, &space, &mut scratch);
        cx.lock(&store, 0).unwrap();
        assert_eq!(cx.read(&store, 2).unwrap(), &vec![3]);
        let mut sealed = cx.seal().unwrap();
        sealed.write(&store, 0).push(10);
        sealed.write(&store, 2).clear();
        let fresh = sealed.alloc(&store);
        *sealed.write(&store, fresh) = vec![4];
        assert_eq!(cx.acquires, 3, "two locks and the fresh slot's");
        assert!(cx.seal().is_ok(), "sealing twice is sealing once");
        cx.finish_commit();
        barrier(&mut scratch, &space);
        assert!(space.check_all_free().is_ok());
        let mut store = store;
        assert_eq!(
            store.snapshot(),
            vec![vec![1, 10], vec![2], vec![], vec![4]]
        );
    }

    /// Past `seal` a write is not checked by acquiring: it must find the
    /// task's own mark, or the operator was not cautious.
    #[test]
    #[should_panic(expected = "sealed task at slot 0 does not hold lock 1")]
    fn a_sealed_write_to_an_unheld_slot_panics() {
        let (space, r) = setup(2);
        let store = SpecStore::filled(r, 2, 0u32);
        let mut scratch = TaskScratch::default();
        let mut cx = TaskCtx::new(0, &space, &mut scratch);
        cx.lock(&store, 0).unwrap();
        let mut sealed = cx.seal().unwrap();
        *sealed.write(&store, 0) = 1;
        *sealed.write(&store, 1) = 1;
    }

    /// Arm `cx` with a fault of `kind` that lets `countdown` context
    /// operations through.
    fn arm<'p>(
        cx: &mut TaskCtx<'p>,
        plan: &'p crate::faults::FaultPlan,
        kind: crate::faults::FaultKind,
        countdown: u32,
    ) {
        let epoch = cx.space.epoch();
        cx.arm_fault(plan, epoch);
        cx.inject = Some(crate::faults::ArmedFault {
            plan,
            epoch,
            kind,
            countdown,
        });
    }

    /// `seal` is the armed fault's last tick: one whose countdown runs
    /// past it never fires, however many sealed or context writes
    /// follow — and one that reaches zero there fires there, with the
    /// task still able to roll back.
    #[test]
    fn an_armed_fault_never_fires_after_seal() {
        use crate::faults::{FaultKind, FaultPlan};
        for kind in [FaultKind::Panic, FaultKind::SpuriousAbort] {
            let (space, r) = setup(4);
            let mut store = SpecStore::filled(r, 2, 0u64);
            let plan = FaultPlan::seeded(1);
            let mut scratch = TaskScratch::default();
            let mut cx = TaskCtx::new(0, &space, &mut scratch);
            arm(&mut cx, &plan, kind, 3);
            cx.lock(&store, 0).unwrap();
            cx.lock(&store, 1).unwrap();
            let mut sealed = cx.seal().unwrap();
            for k in 0..8 {
                *sealed.write(&store, k % 2) += 1;
            }
            let fresh = sealed.alloc(&store);
            *sealed.write(&store, fresh) = 9;
            for k in 0..8 {
                *cx.write(&store, k % 2).unwrap() += 1;
            }
            assert_eq!(plan.fired_count(), 0, "{kind:?} fired after seal");
            cx.finish_commit();
            barrier(&mut scratch, &space);
            assert_eq!(store.snapshot(), vec![8, 8, 9]);
        }

        // A write's seal is the last tick too: the fault fires there,
        // before the slot is handed out.
        let (space, r) = setup(1);
        let mut store = SpecStore::filled(r, 1, 0u64);
        let plan = FaultPlan::seeded(1);
        let mut scratch = TaskScratch::default();
        let mut cx = TaskCtx::new(0, &space, &mut scratch);
        arm(&mut cx, &plan, FaultKind::SpuriousAbort, 1);
        assert_eq!(cx.write(&store, 0).err(), Some(Abort::Fault));
        assert_eq!(plan.fired_count(), 1);
        assert!(!cx.sealed);
        cx.finish_abort();
        assert!(space.check_all_free().is_ok());
        assert_eq!(*store.get_mut(0), 0);
    }

    /// A commit-point fault pinned on the task fires at its first
    /// write's seal: the task is not sealed, the slot is not handed
    /// out, and its rollback leaves the store untouched.
    #[test]
    fn the_commit_point_fault_fires_at_seal() {
        use crate::faults::{FaultKind, FaultPlan};
        let (space, r) = setup(2);
        let mut store = SpecStore::filled(r, 2, 7u32);
        let plan = FaultPlan::seeded(1).at(space.epoch(), 0, FaultKind::AtCommit);
        let mut scratch = TaskScratch::default();
        let mut cx = TaskCtx::new(0, &space, &mut scratch);
        cx.arm_fault(&plan, space.epoch());
        assert!(cx.inject.is_none(), "a commit-point fault is not armed");
        cx.lock(&store, 0).unwrap();
        cx.lock(&store, 1).unwrap();
        assert_eq!(cx.write(&store, 0).err(), Some(Abort::Fault));
        assert!(!cx.sealed);
        let fired = plan.fired();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, FaultKind::AtCommit);
        cx.finish_abort();
        assert!(space.check_all_free().is_ok());
        assert_eq!(store.snapshot(), vec![7, 7]);
    }

    /// A solo context reads no lock word and writes none: it locks,
    /// reads and writes a slot another context holds, allocates without
    /// marking, counts every lock call, and rolls back with nothing to
    /// release.
    #[test]
    fn a_solo_context_touches_no_lock_word() {
        let (space, r) = setup(4);
        let store = SpecStore::filled(r, 2, 5u32);
        let mut held = TaskScratch::default();
        let mut other = TaskCtx::new(3, &space, &mut held);
        other.lock(&store, 0).unwrap();
        let mut scratch = TaskScratch::default();
        let mut cx = TaskCtx::with_mode(0, &space, Mode::Solo, &mut scratch);
        cx.lock(&store, 0).unwrap();
        assert_eq!(*cx.read(&store, 0).unwrap(), 5);
        let mut sealed = cx.seal().unwrap();
        *sealed.write(&store, 0) = 6;
        let fresh = sealed.alloc(&store);
        *sealed.write(&store, fresh) = 7;
        assert_eq!(
            cx.acquires, 3,
            "two lock calls on slot 0 and the fresh slot"
        );
        assert_eq!(
            space.owner_of(0),
            Some(3),
            "slot 0 still carries the other mark"
        );
        assert_eq!(space.owner_of(r.lock_of(fresh)), None);
        cx.finish_commit();
        let mut cx = TaskCtx::with_mode(1, &space, Mode::Solo, &mut scratch);
        cx.lock(&store, 1).unwrap();
        cx.finish_abort();
        other.finish_abort();
        assert!(space.check_all_free().is_ok());
        let mut store = store;
        assert_eq!(store.snapshot(), vec![6, 5, 7]);
    }

    /// A debug build checks a solo context's sealed writes against the
    /// locks it took, as a lane context's are checked against its
    /// marks: a write to a slot it never locked panics.
    #[cfg(debug_assertions)]
    #[test]
    fn a_solo_write_outside_its_locks_panics_in_debug() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let (space, r) = setup(4);
        let store = SpecStore::filled(r, 2, 0u32);
        let mut scratch = TaskScratch::default();
        let mut cx = TaskCtx::with_mode(0, &space, Mode::Solo, &mut scratch);
        cx.lock(&store, 0).unwrap();
        let mut sealed = cx.seal().unwrap();
        *sealed.write(&store, 0) = 1;
        let fresh = sealed.alloc(&store);
        *sealed.write(&store, fresh) = 2;
        let stray = catch_unwind(AssertUnwindSafe(|| *sealed.write(&store, 1) = 3));
        let payload = stray.expect_err("an unlocked solo write must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("does not hold lock"), "{msg}");
        drop(cx);
        let mut store = store;
        assert_eq!(store.snapshot(), vec![1, 0, 2]);
    }

    /// A re-entrant lock takes the word once and releases it once, and
    /// counts as an acquire like every successful lock call — in a
    /// solo context too, which cannot tell re-entry apart.
    #[test]
    fn reentrant_locks_release_once() {
        let (space, r) = setup(1);
        let store = SpecStore::filled(r, 1, 0u8);
        let mut scratch = TaskScratch::default();
        let mut solo = TaskCtx::with_mode(0, &space, Mode::Solo, &mut scratch);
        solo.lock(&store, 0).unwrap();
        solo.lock(&store, 0).unwrap();
        assert_eq!(solo.acquires, 2);
        solo.finish_commit();
        let mut cx = TaskCtx::new(0, &space, &mut scratch);
        cx.lock(&store, 0).unwrap();
        cx.lock(&store, 0).unwrap();
        assert_eq!(cx.acquires, 2, "the same count as the solo context's");
        assert_eq!(cx.scratch.lockset.len(), 1, "one lockset entry");
        cx.finish_commit();
        barrier(&mut scratch, &space);
        assert!(space.check_all_free().is_ok());
    }
}
