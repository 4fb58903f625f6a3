//! Task-side speculation API.
//!
//! An application implements [`Operator`]; the executor calls
//! [`Operator::execute`] once per launched task with a fresh
//! [`TaskCtx`]. The context is the *only* way to touch shared state:
//!
//! * [`TaskCtx::lock`] acquires the abstract lock of an arbitrary slot.
//! * [`TaskCtx::read`] / [`TaskCtx::write`] acquire the slot's lock
//!   implicitly and — for writes — record a copy-on-write undo
//!   snapshot. A running task's lock is never taken away (first-wins
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

use crate::lock::{self, AcquireError, Acquired, LockSpace};
use crate::probe::{obs_emit, Probe};
use crate::store::SpecStore;
use std::mem::{align_of, size_of, MaybeUninit};

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

    /// Never called. Benchmark-pinned: the frozen `benchmark/src/trace.rs`
    /// forwards it through its timing wrapper; the next PR that may
    /// edit `benchmark/` drops it (ROADMAP item 5(b)).
    #[doc(hidden)]
    fn conflict_seed(&self, task: &Self::Task) -> Option<u64> {
        let _ = task;
        None
    }
}

/// Inline snapshot storage of an [`UndoEntry`]: four words. That
/// holds every scalar slot the apps keep (`u32` parents, `u64`
/// distances, small tuples), the 24-byte header of a `Vec` or
/// `String`, and the 28-byte mesh triangle — the one payload struct
/// written a dozen times per task (DESIGN.md §7 item 6) — so only
/// structs past 32 bytes take the boxed fallback.
type Saved = MaybeUninit<[u64; 4]>;

/// Whether a `T` snapshot lives in the entry itself (else in a `Box`
/// whose pointer does).
const fn saved_inline<T>() -> bool {
    size_of::<T>() <= size_of::<Saved>() && align_of::<T>() <= align_of::<Saved>()
}

/// An undo-log entry: one slot's pre-write value, type-erased so the
/// log is a plain reusable `Vec` with no allocation per entry.
///
/// An entry owns its snapshot but has no `Drop`: it must be consumed
/// by [`UndoEntry::finish`], which [`TaskCtx`]'s own `Drop` guarantees
/// for every entry a task logged.
struct UndoEntry {
    /// Lock index of the slot (what [`TaskScratch::first_write`]
    /// looks for).
    lock: usize,
    /// The written store slot (a `*mut T`).
    slot: *mut (),
    /// `finish_as::<T>` for the slot's `T`.
    // SAFETY: only ever called by `UndoEntry::finish`, on this entry's
    // own `slot` and `saved`.
    finish: unsafe fn(*mut (), &mut Saved, bool),
    /// The snapshot: a `T` if `saved_inline::<T>()`, else a `Box<T>`.
    saved: Saved,
}

impl UndoEntry {
    fn new<T>(lock: usize, slot: *mut T, old: T) -> Self {
        let mut saved = Saved::uninit();
        if saved_inline::<T>() {
            // SAFETY: `saved_inline` checked that a `T` fits `Saved`'s
            // size and alignment; `write` does not read the
            // uninitialised destination.
            unsafe { saved.as_mut_ptr().cast::<T>().write(old) };
        } else {
            // SAFETY: a `Box<T>` of a sized `T` is one pointer, which
            // fits `Saved`'s four words and shares their alignment.
            unsafe { saved.as_mut_ptr().cast::<Box<T>>().write(Box::new(old)) };
        }
        UndoEntry {
            lock,
            slot: slot.cast(),
            finish: finish_as::<T>,
            saved,
        }
    }

    /// Consume the entry: move the snapshot back into its slot
    /// (`restore`, on rollback) or drop it (on commit).
    ///
    /// # Safety
    /// With `restore`, the caller has exclusive access to the slot the
    /// entry was logged for, and the store it lives in is still alive.
    // SAFETY: contract above; both callers are `TaskCtx`'s rollback
    // and its `Drop`.
    unsafe fn finish(mut self, restore: bool) {
        // SAFETY: `new::<T>` paired `finish_as::<T>` with a `*mut T`
        // slot and a live `T` snapshot in `saved`; taking `self` by
        // value means the snapshot is moved out exactly once. Slot
        // access is the caller's obligation above.
        unsafe { (self.finish)(self.slot, &mut self.saved, restore) }
    }
}

/// Move the `T` snapshot out of `saved`, then either assign it to
/// `*slot` (dropping the speculative value there) or drop it.
///
/// # Safety
/// `saved` holds the snapshot [`UndoEntry::new::<T>`] stored and is not
/// read again afterwards; with `restore`, `slot` is a valid `*mut T`
/// the caller has exclusive access to.
// SAFETY: contract above; reachable only through the fn pointer
// `UndoEntry::new::<T>` stores next to exactly such a pair.
unsafe fn finish_as<T>(slot: *mut (), saved: &mut Saved, restore: bool) {
    let p = saved.as_mut_ptr();
    let old: T = if saved_inline::<T>() {
        // SAFETY: `new::<T>` wrote a `T` here (same `saved_inline`
        // answer), and the caller reads it once.
        unsafe { p.cast::<T>().read() }
    } else {
        // SAFETY: as above, for the `Box<T>` of the fallback.
        *unsafe { p.cast::<Box<T>>().read() }
    };
    if restore {
        // SAFETY: the caller guarantees `slot` is a live `T` nobody
        // else can reach.
        unsafe { *slot.cast::<T>() = old };
    }
}

/// Undo logs up to this long answer "did this task write the slot
/// already?" by a scan; a longer log is indexed
/// ([`TaskScratch::first_write`]). Every benchmark operator but the
/// mesh refinement and an SSSP hub logs one to three entries per task.
const SCAN_LIMIT: usize = 8;

/// log2 of the index size a log starts with when it outgrows the
/// scan: the `SCAN_LIMIT + 1` entries it has then fill under half.
const INDEX_BITS: u32 = (2 * (SCAN_LIMIT + 1)).next_power_of_two().trailing_zeros();

/// The buffers a running task fills — its lockset and undo log —
/// owned by whichever loop calls `Executor::speculate` (the inline
/// round, a pool job, a pipelined worker) and lent to one [`TaskCtx`]
/// at a time, which leaves them empty: cleared, not freed, so a task
/// allocates nothing once the buffers have grown to the loop's
/// largest footprint.
#[derive(Default)]
pub(crate) struct TaskScratch {
    lockset: Vec<usize>,
    undo: Vec<UndoEntry>,
    /// The locks of `undo`, hashed, consulted only while the log is
    /// longer than [`SCAN_LIMIT`]: `(stamp, lock)` cells, open
    /// addressing with linear probing over the first `1 << bits` of
    /// them, at most half full. A cell is occupied iff its stamp is
    /// the current `gen`, so starting a new index is one increment,
    /// not a sweep of what the last large task left behind.
    written: Vec<(u64, usize)>,
    gen: u64,
    bits: u32,
    /// Lock-index comparisons made by `first_write` (scan steps and
    /// index probes), for the cost-per-write unit test.
    #[cfg(test)]
    compares: usize,
}

impl TaskScratch {
    /// Has the running task not yet logged the slot behind lock `l`?
    /// When it answers `true` the caller logs the slot's snapshot with
    /// [`TaskScratch::log`] before anything else touches the scratch.
    #[inline]
    fn first_write(&mut self, l: usize) -> bool {
        if self.undo.len() > SCAN_LIMIT {
            return self.index_insert(l);
        }
        let hit = self.undo.iter().position(|u| u.lock == l);
        #[cfg(test)]
        {
            self.compares += hit.map_or(self.undo.len(), |at| at + 1);
        }
        hit.is_none()
    }

    /// Append a first write's entry, keeping the index — once the log
    /// is long enough to have one — complete and at most half full.
    #[inline]
    fn log(&mut self, entry: UndoEntry) {
        self.undo.push(entry);
        let n = self.undo.len();
        if n == SCAN_LIMIT + 1 {
            self.reindex(INDEX_BITS);
        } else if n > SCAN_LIMIT && 2 * n > 1 << self.bits {
            self.reindex(self.bits + 1);
        }
    }

    /// Start a fresh index of `1 << bits` cells over the whole log.
    fn reindex(&mut self, bits: u32) {
        self.bits = bits;
        self.gen += 1;
        if self.written.len() < 1 << bits {
            self.written.resize(1 << bits, (0, 0));
        }
        for k in 0..self.undo.len() {
            let l = self.undo[k].lock;
            self.index_insert(l);
        }
    }

    /// Put `l` in the index unless it is there; `true` if it was not.
    /// Terminates because callers keep the index at most half full.
    fn index_insert(&mut self, l: usize) -> bool {
        let mask = (1usize << self.bits) - 1;
        // Fibonacci hashing: lock indices are runs of small integers,
        // which the multiply spreads over the high bits.
        let mut at = ((l as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - self.bits)) as usize;
        loop {
            #[cfg(test)]
            {
                self.compares += 1;
            }
            let cell = &mut self.written[at];
            if cell.0 != self.gen {
                *cell = (self.gen, l);
                return true;
            }
            if cell.1 == l {
                return false;
            }
            at = (at + 1) & mask;
        }
    }
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
    /// The calling loop's buffers; empty between tasks.
    scratch: &'rt mut TaskScratch,
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
            .field("locks_held", &self.scratch.lockset.len())
            .field("undo_entries", &self.scratch.undo.len())
            .finish_non_exhaustive()
    }
}

impl<'rt> TaskCtx<'rt> {
    /// A lane-0 (round-mode) context, for unit tests; the executor
    /// builds every context through [`TaskCtx::new_in_lane`].
    #[cfg(test)]
    pub(crate) fn new(slot: usize, space: &'rt LockSpace, scratch: &'rt mut TaskScratch) -> Self {
        Self::new_in_lane(slot, space, 0, space.epoch(), scratch)
    }

    /// A context for a task running in lock lane `lane` (0 = the round
    /// epoch, `w + 1` = pipelined worker `w`): lock words are stamped
    /// with the lane's current tag, and the audit trace carries
    /// `trace_epoch` — the round epoch, or the batch tag so the
    /// checker groups pipelined traces per batch (the unit within
    /// which committed-exclusivity must hold). The task logs into
    /// `scratch`, which the previous context left empty.
    pub(crate) fn new_in_lane(
        slot: usize,
        space: &'rt LockSpace,
        lane: usize,
        trace_epoch: u64,
        scratch: &'rt mut TaskScratch,
    ) -> Self {
        let tag = space.lane_tag(lane);
        // Without the checker the trace-epoch argument is unused.
        let _ = trace_epoch;
        debug_assert!(scratch.lockset.is_empty() && scratch.undo.is_empty());
        TaskCtx {
            slot,
            space,
            tag,
            scratch,
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
            Ok(Acquired::Held) => Ok(()),
            #[cfg_attr(not(feature = "checker"), allow(unused_variables))]
            Ok(how) => {
                self.scratch.lockset.push(l);
                self.acquires += 1;
                #[cfg(feature = "checker")]
                self.trace
                    .events
                    .push(optpar_checker::TraceEvent::Acquired {
                        lock: l,
                        from: match how {
                            Acquired::TakenFrom(tag, slot) => Some((tag, slot)),
                            _ => None,
                        },
                    });
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
        let covered =
            self.space.owner_of(l) == Some(self.slot) && self.scratch.lockset.contains(&l);
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
        // but the holder rewrites the lock word of a task that is
        // still running, so it is still held (a word taken over from a
        // finished holder was handed on with its writes ordered before
        // our reads, see `lock`); the lock grants exclusive access, and the
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
        if self.scratch.first_write(l) {
            // SAFETY: exclusive access as in `read`; we clone the
            // current value out while no other reference exists.
            let old = unsafe { (*ptr).clone() };
            self.scratch.log(UndoEntry::new(l, ptr, old));
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
        self.scratch.undo.len()
    }

    /// Commit: the undo log is discarded — each snapshot dropped, by
    /// this context's `Drop` — and the lockset stays stamped in the
    /// lock space: nobody walks it to release it. The round-based
    /// executor expires the stamps wholesale with its end-of-round
    /// epoch bump ([`LockSpace::advance_epoch`]), the pipelined one
    /// with its per-batch lane bump.
    ///
    /// What the surviving stamps mean until then is the lane's rule
    /// (see [`crate::lock`]). **On lane 0 committed tasks keep their
    /// locks until the round barrier**, so that later tasks of the
    /// round conflict with them, exactly as in the paper's model (a
    /// node aborts iff a neighbour *committed* in the same round). On
    /// a pipelined lane they keep nothing: the task is finished, and a
    /// later task that wants one of its words takes it over.
    /// Infallible: a task that reached the end of its operator holds
    /// every lock it acquired.
    pub(crate) fn finish_commit(self) {
        #[cfg(feature = "checker")]
        {
            let mut cx = self;
            cx.trace.outcome = optpar_checker::Outcome::Committed;
            cx.space.audit().push_trace(std::mem::replace(
                &mut cx.trace,
                optpar_checker::TaskTrace::new(cx.slot, 0),
            ));
        }
    }

    /// Roll back: replay undo entries in reverse, then release locks.
    /// Both happen before the calling worker moves on to its next task
    /// — which is what lets a pipelined lane read a finished slot's
    /// surviving stamp as a commit.
    #[cfg_attr(not(feature = "checker"), allow(unused_mut))]
    pub(crate) fn finish_abort(mut self) {
        for entry in self.scratch.undo.drain(..).rev() {
            // SAFETY: the task still holds the lock of every slot it
            // wrote (writes only happen under held locks, and a running
            // task's lock is never taken away), so each logged slot is
            // exclusively ours; the store outlives the round.
            unsafe { entry.finish(true) };
        }
        // Deposited *before* the release: whoever acquires one of
        // these words next then deposits after this trace, which is
        // the order the pipelined lock ledger replays.
        #[cfg(feature = "checker")]
        {
            self.trace.outcome = optpar_checker::Outcome::Aborted;
            self.space.audit().push_trace(std::mem::replace(
                &mut self.trace,
                optpar_checker::TaskTrace::new(self.slot, 0),
            ));
        }
        lock::release_all_tagged(self.space, self.slot, self.tag, &self.scratch.lockset);
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
        lock::release_all_tagged(self.space, self.slot, self.tag, &[l]);
    }
}

impl Drop for TaskCtx<'_> {
    /// Hand the scratch back empty however the task ended. Whatever
    /// rollback did not replay — a committed task's whole log — is
    /// dropped here, snapshot by snapshot: the entries are type-erased,
    /// so clearing the `Vec` instead would leak every one of them.
    fn drop(&mut self) {
        for entry in self.scratch.undo.drain(..) {
            // SAFETY: `restore` is false, so the slot is not touched.
            unsafe { entry.finish(false) };
        }
        self.scratch.lockset.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lock::LockSpace;

    /// Commit and pass the round barrier, as the executor does at the
    /// end of each round: the epoch bump expires the committed locks.
    fn commit_release(cx: TaskCtx<'_>, space: &LockSpace) {
        cx.finish_commit();
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
        let mut scratch = TaskScratch::default();
        let mut cx = TaskCtx::new(0, &space, &mut scratch);
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
        let mut scratch0 = TaskScratch::default();
        let mut cx0 = TaskCtx::new(0, &space, &mut scratch0);
        let mut scratch1 = TaskScratch::default();
        let mut cx1 = TaskCtx::new(1, &space, &mut scratch1);
        cx0.lock(&store, 0).unwrap();
        let err = cx1.write(&store, 0).unwrap_err();
        assert_eq!(err, Abort::Conflict { lock: 0 });
        cx1.finish_abort();
        commit_release(cx0, &space);
        assert!(space.check_all_free().is_ok());
    }

    /// Taking a word over from a committed holder, writing under it and
    /// rolling back restores the *committed* value — the undo log
    /// snapshots on first write, whoever held the lock before — and
    /// leaves the word free, not back with the dispossessed slot.
    #[test]
    fn takeover_then_rollback_restores_the_committed_value() {
        let (space, r) = setup(2);
        let store = SpecStore::from_vec(r, vec![10u32, 20], 0);
        let tag = space.lane_tag(1);
        let mut scratch = TaskScratch::default();
        let mut cx0 = TaskCtx::new_in_lane(0, &space, 1, tag, &mut scratch);
        *cx0.write(&store, 0).unwrap() = 11;
        cx0.finish_commit();
        assert_eq!(space.owner_of(0), Some(0), "the stamp outlives the task");
        // Same lane, same batch: slot 1 takes the word over.
        let mut cx1 = TaskCtx::new_in_lane(1, &space, 1, tag, &mut scratch);
        assert_eq!(*cx1.read(&store, 0).unwrap(), 11);
        *cx1.write(&store, 0).unwrap() = 12;
        *cx1.write(&store, 1).unwrap() = 22;
        assert_eq!(cx1.acquires, 2);
        assert_eq!(space.owner_of(0), Some(1));
        cx1.finish_abort();
        assert_eq!(space.owner_of(0), None, "released, not handed back");
        assert!(space.check_all_free().is_ok());
        // Another lane finds the committed value behind a free word.
        space.publish_running(2, 8);
        let mut cx2 = TaskCtx::new_in_lane(8, &space, 2, space.lane_tag(2), &mut scratch);
        assert_eq!(*cx2.read(&store, 0).unwrap(), 11);
        cx2.finish_commit();
        space.advance_lane(1);
        space.advance_lane(2);
        let mut store = store;
        assert_eq!(store.snapshot(), vec![11, 20]);
    }

    #[test]
    fn read_then_write_same_slot() {
        let (space, r) = setup(1);
        let store = SpecStore::filled(r, 1, 41u32);
        let mut scratch = TaskScratch::default();
        let mut cx = TaskCtx::new(0, &space, &mut scratch);
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
        let mut scratch = TaskScratch::default();
        let mut cx = TaskCtx::new(0, &space, &mut scratch);
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
        let mut scratch = TaskScratch::default();
        let mut cx = TaskCtx::new(0, &space, &mut scratch);
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
        let mut scratch0 = TaskScratch::default();
        let mut cx0 = TaskCtx::new(0, &space, &mut scratch0);
        *cx0.write(&store, 0).unwrap() = 1;
        // The seeded bug: the held lock leaks out before commit.
        cx0.buggy_release_lock(r.lock_of(0));
        cx0.finish_commit();
        // Task 1 sneaks in on the leaked lock and also commits.
        let mut scratch1 = TaskScratch::default();
        let mut cx1 = TaskCtx::new(1, &space, &mut scratch1);
        *cx1.write(&store, 0).unwrap() = 2;
        cx1.finish_commit();
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

    /// The same seeded bug in a pipelined lane, where two committed
    /// tasks of a batch *may* share a lock — by takeover. The leaked
    /// word reads free, so task 1's acquisition records no takeover,
    /// and the lock ledger finds slot 0's committed stamp of the same
    /// batch under it.
    #[cfg(feature = "checker")]
    #[test]
    fn seeded_lost_release_in_a_lane_is_detected() {
        use optpar_checker::{CheckerMode, Report};
        let (space, r) = setup(1);
        space.audit().set_mode(CheckerMode::Collect);
        space.audit().arm(true);
        let store = SpecStore::filled(r, 1, 0u8);
        let tag = space.lane_tag(1);
        let mut scratch = TaskScratch::default();
        let mut cx0 = TaskCtx::new_in_lane(0, &space, 1, tag, &mut scratch);
        *cx0.write(&store, 0).unwrap() = 1;
        cx0.buggy_release_lock(r.lock_of(0));
        cx0.finish_commit();
        let mut cx1 = TaskCtx::new_in_lane(1, &space, 1, tag, &mut scratch);
        *cx1.write(&store, 0).unwrap() = 2;
        cx1.finish_commit();
        // The honest version of the same hand-over is clean.
        let mut cx2 = TaskCtx::new_in_lane(2, &space, 1, tag, &mut scratch);
        *cx2.write(&store, 0).unwrap() = 3;
        cx2.finish_commit();
        space.audit().drain_window();
        let reports = space.audit().take_reports();
        assert!(
            matches!(
                reports[..],
                [Report::Race { lock: 0, epoch, pair }]
                    if epoch == tag && pair.0.slot == 0 && pair.1.slot == 1
            ),
            "expected exactly a race on lock 0 between tasks 0 and 1: {reports:?}"
        );
    }

    /// Overwrite a one-slot store's `old` with `new` (twice: the second
    /// write must not log again), then commit or roll back; returns
    /// what the slot holds afterwards.
    fn write_then<T: Send + Clone + 'static>(old: T, new: T, commit: bool) -> T {
        let (space, r) = setup(1);
        let mut store = SpecStore::new(r, vec![old], 1);
        let mut scratch = TaskScratch::default();
        let mut cx = TaskCtx::new(0, &space, &mut scratch);
        *cx.write(&store, 0).unwrap() = new.clone();
        *cx.write(&store, 0).unwrap() = new;
        assert_eq!(cx.undo_len(), 1);
        if commit {
            commit_release(cx, &space);
        } else {
            cx.finish_abort();
        }
        assert!(space.check_all_free().is_ok());
        assert!(scratch.undo.is_empty() && scratch.lockset.is_empty());
        store.get_mut(0).clone()
    }

    /// Rollback restores `old`, commit leaves `new`.
    fn round_trips<T: Send + Clone + PartialEq + std::fmt::Debug + 'static>(old: T, new: T) {
        assert_eq!(write_then(old.clone(), new.clone(), false), old);
        assert_eq!(write_then(old, new.clone(), true), new);
    }

    #[derive(Clone, Debug, PartialEq)]
    #[repr(align(64))]
    struct Aligned(u64);

    #[test]
    fn undo_snapshot_is_inline_up_to_four_words() {
        assert!(saved_inline::<(u32, u32, u64)>());
        assert!(saved_inline::<[u64; 4]>());
        assert!(saved_inline::<Vec<u32>>());
        // The mesh triangle's shape: 28 bytes, 4-aligned.
        assert!(saved_inline::<([u32; 3], [u32; 3], bool)>());
        round_trips((1u32, 2u32, 3u64), (4, 5, 6));
        round_trips([1u64, 2, 3, 4], [6, 7, 8, 9]);
        round_trips(([1u32; 3], [2u32; 3], true), ([3; 3], [4; 3], false));
    }

    #[test]
    fn undo_snapshot_of_a_large_or_overaligned_value_is_boxed() {
        assert!(!saved_inline::<[u64; 5]>());
        assert!(!saved_inline::<Aligned>());
        round_trips([1u64, 2, 3, 4, 5], [5, 6, 7, 8, 9]);
        round_trips(Aligned(1), Aligned(2));
    }

    #[test]
    fn undo_snapshot_of_a_heap_owning_value() {
        round_trips(vec![1u32, 2, 3], vec![9; 100]);
        round_trips(String::from("before"), String::from("after"));
        // Heap-owning *and* boxed.
        round_trips((vec![1u8], [0u64; 4]), (vec![2u8; 50], [1u64; 4]));
        assert!(!saved_inline::<(Vec<u8>, [u64; 4])>());
    }

    /// Counts its live instances (clones included); `PAD` words of
    /// ballast push it over the inline limit.
    struct Counted<const PAD: usize> {
        live: std::sync::Arc<std::sync::atomic::AtomicIsize>,
        _pad: [u64; PAD],
    }

    impl<const PAD: usize> Counted<PAD> {
        fn new(live: &std::sync::Arc<std::sync::atomic::AtomicIsize>) -> Self {
            live.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Counted {
                live: live.clone(),
                _pad: [0; PAD],
            }
        }
    }

    impl<const PAD: usize> Clone for Counted<PAD> {
        fn clone(&self) -> Self {
            Counted::new(&self.live)
        }
    }

    impl<const PAD: usize> Drop for Counted<PAD> {
        fn drop(&mut self) {
            self.live.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    /// Every snapshot is dropped exactly once, on commit and on abort:
    /// a leak leaves the live count high, a double drop takes it low.
    fn snapshot_dropped_once<const PAD: usize>() {
        use std::sync::atomic::Ordering::SeqCst;
        for commit in [true, false] {
            let live = std::sync::Arc::new(std::sync::atomic::AtomicIsize::new(0));
            let (space, r) = setup(1);
            let store = SpecStore::new(r, vec![Counted::<PAD>::new(&live)], 1);
            let mut scratch = TaskScratch::default();
            let mut cx = TaskCtx::new(0, &space, &mut scratch);
            *cx.write(&store, 0).unwrap() = Counted::new(&live);
            assert_eq!(live.load(SeqCst), 2, "slot value + one snapshot");
            *cx.write(&store, 0).unwrap() = Counted::new(&live);
            assert_eq!(live.load(SeqCst), 2, "a second write logs nothing");
            assert_eq!(cx.undo_len(), 1);
            if commit {
                commit_release(cx, &space);
            } else {
                cx.finish_abort();
            }
            assert_eq!(live.load(SeqCst), 1, "commit = {commit}: only the slot");
            drop(store);
            assert_eq!(live.load(SeqCst), 0, "commit = {commit}");
        }
    }

    #[test]
    fn undo_snapshots_are_dropped_exactly_once() {
        assert!(saved_inline::<Counted<0>>() && !saved_inline::<Counted<4>>());
        snapshot_dropped_once::<0>();
        snapshot_dropped_once::<4>();
    }

    /// A panic injected into the context operation after a write
    /// unwinds past the operator's `&mut`; the snapshot taken before
    /// that `&mut` was handed out still restores the heap-owning value.
    #[cfg(feature = "faults")]
    #[test]
    fn injected_panic_after_a_write_rolls_back() {
        use crate::faults::{ArmedFault, FaultKind, FaultPlan};
        let (space, r) = setup(2);
        let mut store = SpecStore::filled(r, 2, vec![1u32, 2, 3]);
        let plan = FaultPlan::seeded(1);
        let mut scratch = TaskScratch::default();
        let mut cx = TaskCtx::new(0, &space, &mut scratch);
        cx.inject = Some(ArmedFault {
            plan: &plan,
            epoch: space.epoch(),
            kind: FaultKind::Panic,
            countdown: 1,
        });
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cx.write(&store, 0)?.extend([4, 5, 6, 7, 8, 9]);
            cx.lock(&store, 1)
        }));
        assert!(unwound.is_err(), "the second operation fires the panic");
        assert_eq!(plan.fired_count(), 1);
        cx.finish_abort();
        assert!(space.check_all_free().is_ok());
        assert_eq!(*store.get_mut(0), vec![1, 2, 3]);
    }

    /// One task over a `k`-slot store: write every slot, re-write
    /// every slot, roll back. Returns the lock-index comparisons the
    /// first-write test made.
    fn compares_writing_twice(k: usize, scratch: &mut TaskScratch) -> usize {
        let (space, r) = setup(k);
        let mut store = SpecStore::from_vec(r, (0..k as u64).collect(), 0);
        let before = scratch.compares;
        let mut cx = TaskCtx::new(0, &space, scratch);
        for pass in 1..=2u64 {
            // A stride coprime to `k` visits the slots out of order.
            for j in 0..k {
                let i = (j * 7) % k;
                *cx.write(&store, i).unwrap() += pass * 1000;
            }
            assert_eq!(cx.undo_len(), k, "one entry per distinct slot");
        }
        cx.finish_abort();
        assert!(space.check_all_free().is_ok());
        assert_eq!(store.snapshot(), (0..k as u64).collect::<Vec<_>>());
        scratch.compares - before
    }

    /// The first-write test is O(1) amortised: 128× the writes cost
    /// about 128× the comparisons (the scan it replaced: 16,000×).
    #[test]
    fn first_write_test_is_linear_in_the_writes() {
        let mut scratch = TaskScratch::default();
        let (small, large) = (
            compares_writing_twice(64, &mut scratch),
            compares_writing_twice(8192, &mut scratch),
        );
        assert!(
            large <= 200 * small,
            "{small} comparisons for 2 × 64 writes, {large} for 2 × 8192"
        );
        // A short log after a long one probes a short index again, and
        // the long one's cells read as vacant.
        assert_eq!(compares_writing_twice(64, &mut scratch), small);
        assert!(scratch.written.len() >= 2 * 8192 && scratch.bits == 7);
    }

    /// Logs at and around the scan limit dedup exactly, whichever side
    /// of it a re-write lands on.
    #[test]
    fn write_dedup_is_exact_across_the_scan_limit() {
        for k in [
            1,
            SCAN_LIMIT,
            SCAN_LIMIT + 1,
            SCAN_LIMIT + 2,
            16,
            17,
            33,
            100,
        ] {
            let mut scratch = TaskScratch::default();
            compares_writing_twice(k, &mut scratch);
            assert_eq!(scratch.written.is_empty(), k <= SCAN_LIMIT, "k = {k}");
        }
    }

    #[test]
    fn reentrant_locks_release_once() {
        let (space, r) = setup(1);
        let store = SpecStore::filled(r, 1, 0u8);
        let mut scratch = TaskScratch::default();
        let mut cx = TaskCtx::new(0, &space, &mut scratch);
        cx.lock(&store, 0).unwrap();
        cx.lock(&store, 0).unwrap();
        assert_eq!(cx.acquires, 1);
        commit_release(cx, &space);
        assert!(space.check_all_free().is_ok());
    }
}
