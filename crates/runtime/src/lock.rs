//! Abstract locks: the conflict-detection substrate.
//!
//! Every shared datum is assigned one word in a [`LockSpace`]. A word
//! holds its owner: `slot + 1` of the task that holds the lock, `0`
//! when the lock is free. Acquisition is a load, then a CAS from `0`;
//! a word that already carries another mark is a *speculative
//! conflict*, and there is one rule for it: **first wins** — the task
//! that requests a lock another task holds aborts itself (Galois's
//! default arbitration). Nobody but its owner ever writes a held word,
//! so a task that acquired a lock keeps it until it lets it go, and
//! needs no per-access ownership re-check.
//!
//! When a task lets go depends on who runs it:
//!
//! * **A lane task releases what it took.** A pipelined worker's task
//!   stores `0` into every word of its lockset when it finishes —
//!   commit or abort — before its worker runs the next task. A holder
//!   is therefore always running, and a finished one's words are free
//!   because they are zero: a lane aborts only against a task that is
//!   mid-run.
//! * **Only the model round retains.** A round's committed tasks keep
//!   their words until the round barrier, so a later task of the round
//!   that wants one conflicts with a task that *committed* — the
//!   paper's rule: a task commits iff no earlier committed neighbour
//!   holds its data. The round runs its tasks on one thread in draw
//!   order, so it commits the greedy prefix-MIS of its draw; its
//!   aborted tasks release at once, and the barrier releases the
//!   committed ones' words and bumps the space's epoch
//!   ([`LockSpace::advance_epoch`]).
//!
//! Releasing is plain stores: a word in a task's lockset carries that
//! task's mark (it took the word from `0`, and nobody else writes a
//! held word), and the `Release` store hands the task's writes to the
//! next owner's `Acquire` CAS. The solo runner's contexts touch no
//! word at all (`task.rs`).
//!
//! Locks are held until the owning task finishes — or, in a model
//! round, until its barrier — never across rounds, so there is no
//! waiting and hence no deadlock.

#![allow(
    clippy::indexing_slicing,
    reason = "lock indices are minted by the LockSpace builder and validated at the TaskCtx boundary"
)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Owner words per 64-byte cache line. Sharded stores round their
/// shard bases to multiples of this (in lock words) and declare their
/// regions with [`LockSpaceBuilder::region_aligned`], so the owner
/// words of two shards never share a cache line. A word is 64 bits
/// although a mark needs 32: DESIGN.md §7 item 2 says why.
pub const LINE_WORDS: usize = 8;

/// The epoch counter, alone on its cache line: every lane batch takes
/// its key from it, and every acquire reads the fields beside it.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Epoch(AtomicU64);

/// Benchmark-pinned shim, not an option: first-wins is the runtime's
/// one collision rule and nothing reads this type. It exists only
/// because `benchmark/src/drain.rs` — frozen by `BENCHMARK.json`'s
/// `paths` for ordinary PRs — names it in an `ExecutorConfig` literal;
/// the next PR that may edit `benchmark/` drops it (ROADMAP item 5(b)).
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ConflictPolicy {
    /// The task that requests an already-held lock aborts itself.
    #[default]
    FirstWins,
}

/// A contiguous range of lock indices owned by one data structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Region {
    base: usize,
    len: usize,
}

impl Region {
    /// First lock index of the region.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Number of locks (= data slots) in the region.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the region empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lock index of slot `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn lock_of(&self, i: usize) -> usize {
        assert!(i < self.len, "slot {i} out of region of {} slots", self.len);
        self.base + i
    }
}

/// Builder for a [`LockSpace`]: declare one region per shared data
/// structure, then freeze.
#[derive(Debug, Default)]
pub struct LockSpaceBuilder {
    total: usize,
    regions: Vec<Region>,
}

impl LockSpaceBuilder {
    /// Reserve `len` lock words and return their region descriptor.
    pub fn region(&mut self, len: usize) -> Region {
        let r = Region {
            base: self.total,
            len,
        };
        self.total += len;
        self.regions.push(r);
        r
    }

    /// Reserve `len` lock words whose base index is rounded up to a
    /// cache-line boundary ([`LINE_WORDS`] words). Because the owner
    /// array itself starts on a 64-byte boundary, every line-multiple
    /// offset inside the returned region sits on a true cache-line
    /// boundary — which is what lets a sharded store guarantee that no
    /// two shards' lock words share a line. The (≤ 7) skipped words
    /// belong to no region and are never acquired.
    pub fn region_aligned(&mut self, len: usize) -> Region {
        self.total = self.total.next_multiple_of(LINE_WORDS);
        self.region(len)
    }

    /// Freeze into an immutable lock space.
    ///
    /// The words are allocated zeroed — free — and never written here,
    /// so the allocator may hand over fresh pages untouched: a page of
    /// words that no task locks is never faulted in (the solo runner
    /// locks none). `LINE_WORDS - 1` spare words let the live ones
    /// start on a 64-byte boundary.
    pub fn build(self) -> LockSpace {
        let buf = Box::<[AtomicU64]>::new_zeroed_slice(self.total + LINE_WORDS - 1);
        // SAFETY: an all-zero `AtomicU64` is `AtomicU64::new(0)`.
        let buf = unsafe { buf.assume_init() };
        // Words to the next line boundary: `buf` is 8-byte aligned, so
        // this is at most `LINE_WORDS - 1`.
        let first = (buf.as_ptr() as usize).wrapping_neg() % 64 / size_of::<AtomicU64>();
        LockSpace {
            buf,
            first,
            words: self.total,
            epoch: Epoch::default(),
            drain: AtomicBool::new(false),
            regions: self.regions,
        }
    }
}

/// The global table of abstract-lock owner words.
#[derive(Debug)]
pub struct LockSpace {
    /// Owner words, allocated zeroed with `LINE_WORDS - 1` spare; the
    /// live ones are [`Self::owners`].
    buf: Box<[AtomicU64]>,
    /// Index in `buf` of the first live word, the first on a 64-byte
    /// boundary.
    first: usize,
    /// Number of live lock words.
    words: usize,
    /// Rounds closed plus lane batches keyed ([`Self::advance_epoch`]).
    epoch: Epoch,
    /// Set while a drain runs over the space ([`Self::claim_drain`]).
    drain: AtomicBool,
    regions: Vec<Region>,
}

impl LockSpace {
    /// Start declaring regions.
    pub fn builder() -> LockSpaceBuilder {
        LockSpaceBuilder::default()
    }

    /// Total number of lock words.
    pub fn len(&self) -> usize {
        self.words
    }

    /// Is the space empty?
    pub fn is_empty(&self) -> bool {
        self.words == 0
    }

    /// The declared regions, in declaration order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// The raw owner words (used by [`crate::task::TaskCtx`]).
    #[inline]
    pub(crate) fn owners(&self) -> &[AtomicU64] {
        // SAFETY: `build` sized `buf` as `words + LINE_WORDS - 1` and
        // chose `first ≤ LINE_WORDS - 1`, so `first + words` is in
        // bounds.
        unsafe { self.buf.get_unchecked(self.first..self.first + self.words) }
    }

    /// The current epoch: a monotonic counter that a model round's
    /// barrier — and each lane batch that takes its key — moves one
    /// step ([`Self::advance_epoch`]).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.0.load(Ordering::Acquire)
    }

    /// Move the epoch one step and return the value it held: a model
    /// round's barrier closes its round's epoch with it, and a lane
    /// batch takes its fault key from it. One counter serves both, so
    /// no two rounds or batches over the space's life share a key, and
    /// a task retried in a later batch re-rolls its fault draw.
    pub fn advance_epoch(&self) -> u64 {
        self.epoch.0.fetch_add(1, Ordering::AcqRel)
    }

    /// Claim the space for one drain — a model round, a solo step, or
    /// a whole pipelined run — until the returned guard drops.
    ///
    /// One drain runs over a lock space at a time. A model round needs
    /// it (its committed tasks hold their words to its barrier, which
    /// would read as conflicts to another drain's tasks), and a solo
    /// step needs it outright: its tasks touch no lock word, so nothing
    /// else may reach the space while it runs. The claim is one swap
    /// per drain, not per task; its `Acquire` pairs with the releasing
    /// store, so a drain on one thread sees every write of the drain
    /// that released the space before it on another.
    ///
    /// # Panics
    /// Panics if another drain holds the space.
    pub(crate) fn claim_drain(&self) -> DrainClaim<'_> {
        let busy = self.drain.swap(true, Ordering::Acquire);
        assert!(!busy, "another drain is running over this lock space");
        DrainClaim(self)
    }

    /// The slot holding lock `l`, or `None` if it is free.
    pub fn owner_of(&self, l: usize) -> Option<usize> {
        match self.owners()[l].load(Ordering::Acquire) {
            0 => None,
            mark => Some(mark as usize - 1),
        }
    }

    /// Check that every lock is free (the round / quiescence boundary
    /// invariant). Returns the first held lock on violation. The scan
    /// is for tests and debug assertions, not for the hot path.
    pub fn check_all_free(&self) -> Result<(), usize> {
        match self
            .owners()
            .iter()
            .position(|w| w.load(Ordering::Acquire) != 0)
        {
            Some(l) => Err(l),
            None => Ok(()),
        }
    }
}

/// A held drain claim ([`LockSpace::claim_drain`]). Dropping it — at
/// the end of the drain, or on the unwind of a drain that fails —
/// frees the space for the next one.
#[derive(Debug)]
pub(crate) struct DrainClaim<'a>(&'a LockSpace);

impl Drop for DrainClaim<'_> {
    /// A drain that unwinds (a task that failed past its seal) never
    /// reaches its running tasks' releases or its round barrier, so
    /// the claim frees every word instead: the claim proves that every
    /// held word belongs to this drain.
    fn drop(&mut self) {
        if std::thread::panicking() {
            for word in self.0.owners() {
                word.store(0, Ordering::Release);
            }
        }
        self.0.drain.store(false, Ordering::Release);
    }
}

/// Why a lock acquisition failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AcquireError {
    /// Lost the collision: the lock is held by another task.
    Conflict {
        /// The contested lock index.
        lock: usize,
        /// The slot currently holding it.
        holder: usize,
    },
}

/// How a successful [`acquire`] got the lock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Acquired {
    /// The word was free and is now ours.
    Fresh,
    /// We already held it (reentrant).
    Held,
}

/// The mark task `slot` writes into the words it holds.
#[inline]
fn mark(slot: usize) -> u64 {
    slot as u64 + 1
}

/// Attempt to acquire lock `l` for task `slot`: a load, then a CAS
/// from `0` if the word is free. A word that carries our own mark is
/// `Held`; any other mark is `Err(Conflict)` — first wins. A lost CAS
/// is a conflict too: the word is no longer `0`, and only its new
/// owner can clear it.
///
/// `#[inline]`: this is every lock operation of every model round and
/// lane batch. Outlined from `TaskCtx::lock_raw` (a call, the result
/// through memory) it cost the barrier rows 2–5%.
#[inline]
pub(crate) fn acquire(space: &LockSpace, slot: usize, l: usize) -> Result<Acquired, AcquireError> {
    let word = &space.owners()[l];
    let me = mark(slot);
    let mut cur = word.load(Ordering::Acquire);
    if cur == 0 {
        match word.compare_exchange(0, me, Ordering::Acquire, Ordering::Acquire) {
            Ok(_) => return Ok(Acquired::Fresh),
            Err(now) => cur = now,
        }
    }
    if cur == me {
        return Ok(Acquired::Held);
    }
    Err(AcquireError::Conflict {
        lock: l,
        holder: cur as usize - 1,
    })
}

/// Does task `slot` hold lock `l`, i.e. does the word carry its mark?
/// One load and one compare: a sealed task's write asks only this. The
/// mark was stored by this very task, so the load needs no ordering
/// beyond the word's own coherence; `Acquire` is what every other
/// owner-word load here uses.
#[inline]
pub(crate) fn holds(space: &LockSpace, slot: usize, l: usize) -> bool {
    space.owners()[l].load(Ordering::Acquire) == mark(slot)
}

/// Release every lock in `lockset`: one `Release` store of `0` per
/// word, which hands the holder's writes to the word's next owner. The
/// lockset holds exactly the words its task took from `0`, and nobody
/// else writes a held word, so each still carries the task's mark.
pub(crate) fn release_all(space: &LockSpace, lockset: &[usize]) {
    let owners = space.owners();
    for &l in lockset {
        owners[l].store(0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_lock_space_takes_one_drain_at_a_time() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let space = LockSpace::builder().build();
        let first = space.claim_drain();
        let second = catch_unwind(AssertUnwindSafe(|| drop(space.claim_drain())));
        assert!(second.is_err(), "a second drain must panic");
        let still = catch_unwind(AssertUnwindSafe(|| drop(space.claim_drain())));
        assert!(still.is_err(), "the failed claim left the first one");
        drop(first);
        let failed = catch_unwind(AssertUnwindSafe(|| {
            let _claim = space.claim_drain();
            std::panic::resume_unwind(Box::new("a drain that fails"));
        }));
        assert!(failed.is_err());
        drop(space.claim_drain());
    }

    #[test]
    fn regions_are_disjoint_and_ordered() {
        let mut b = LockSpace::builder();
        let r1 = b.region(10);
        let r2 = b.region(5);
        let space = b.build();
        assert_eq!(space.len(), 15);
        assert_eq!(r1.base(), 0);
        assert_eq!(r2.base(), 10);
        assert_eq!(r1.lock_of(9), 9);
        assert_eq!(r2.lock_of(0), 10);
        assert_eq!(space.regions().len(), 2);
        assert!(space.check_all_free().is_ok());
    }

    #[test]
    #[should_panic(expected = "out of region")]
    fn lock_of_bounds() {
        let mut b = LockSpace::builder();
        let r = b.region(3);
        let _ = b.build();
        let _ = r.lock_of(3);
    }

    #[test]
    fn aligned_regions_start_on_cache_lines() {
        let mut b = LockSpace::builder();
        let r0 = b.region(3); // deliberately misalign the cursor
        let r1 = b.region_aligned(20);
        let r2 = b.region_aligned(5);
        let space = b.build();
        assert_eq!(r0.base(), 0);
        assert_eq!(r1.base(), 8);
        assert_eq!(r2.base(), 32);
        assert_eq!(space.len(), 37);
        // The word array itself starts on a 64-byte boundary, so every
        // line-multiple base is absolutely 64-byte aligned.
        let addr = space.owners().as_ptr() as usize;
        assert_eq!(addr % 64, 0, "owner words must be cache-line aligned");
        for r in [r1, r2] {
            let base_addr = &space.owners()[r.base()] as *const _ as usize;
            assert_eq!(base_addr % 64, 0, "region base must start a line");
        }
        // Skipped alignment-gap words exist but belong to no region
        // and read free forever.
        assert!(space.check_all_free().is_ok());
        assert_eq!(space.owner_of(5), None);
    }

    #[test]
    fn basic_acquire_release() {
        let mut b = LockSpace::builder();
        let _ = b.region(4);
        let space = b.build();
        assert_eq!(acquire(&space, 0, 2), Ok(Acquired::Fresh));
        assert_eq!(space.owner_of(2), Some(0));
        // Reentrant.
        assert_eq!(acquire(&space, 0, 2), Ok(Acquired::Held));
        // Contender loses under first-wins — whichever slot is earlier.
        assert_eq!(
            acquire(&space, 1, 2),
            Err(AcquireError::Conflict { lock: 2, holder: 0 })
        );
        assert_eq!(acquire(&space, 1, 3), Ok(Acquired::Fresh));
        assert_eq!(
            acquire(&space, 0, 3),
            Err(AcquireError::Conflict { lock: 3, holder: 1 })
        );
        release_all(&space, &[3]);
        release_all(&space, &[2]);
        assert_eq!(space.owner_of(2), None);
        assert!(space.check_all_free().is_ok());
        // A released word is free for any slot, with no epoch step.
        assert_eq!(acquire(&space, 1, 2), Ok(Acquired::Fresh));
        assert_eq!(space.epoch(), 0);
    }

    #[test]
    fn concurrent_acquire_is_exclusive() {
        // N threads hammer one lock; exactly one must win each round.
        use std::sync::atomic::AtomicUsize as Counter;
        let mut b = LockSpace::builder();
        let _ = b.region(1);
        let space = b.build();
        let n = 8;
        let wins = Counter::new(0);
        std::thread::scope(|s| {
            for slot in 0..n {
                let space = &space;
                let wins = &wins;
                s.spawn(move || {
                    if acquire(space, slot, 0).is_ok() {
                        wins.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::Relaxed), 1);
    }

    /// A running holder on another lane conflicts, and its words are
    /// free once it finishes — commit or abort — with no epoch step.
    #[test]
    fn cross_lane_conflict_and_expiry() {
        use crate::task::{Mode, TaskCtx, TaskScratch};
        let mut b = LockSpace::builder();
        let r = b.region(2);
        let space = b.build();
        let store = crate::store::SpecStore::filled(r, 2, 0u32);
        let (mut s1, mut s2) = (TaskScratch::default(), TaskScratch::default());
        // One lane's slot 0 is mid-task, holding both words.
        let mut holder = TaskCtx::with_mode(0, &space, Mode::Lane, &mut s1);
        holder.lock(&store, 0).unwrap();
        holder.lock(&store, 1).unwrap();
        // Another lane's slot 16 loses to it, and its abort frees
        // nothing of the holder's.
        let mut loser = TaskCtx::with_mode(16, &space, Mode::Lane, &mut s2);
        assert!(loser.lock(&store, 0).is_err());
        loser.finish_abort();
        assert_eq!(space.owner_of(0), Some(0));
        assert_eq!(space.owner_of(1), Some(0));
        // The holder commits: its words are zero again.
        *holder.write(&store, 1).unwrap() = 7;
        holder.finish_commit();
        assert!(space.check_all_free().is_ok());
        assert_eq!(space.epoch(), 0, "no bump freed them");
        // That lane takes both from zero.
        let mut next = TaskCtx::with_mode(16, &space, Mode::Lane, &mut s2);
        assert_eq!(*next.read(&store, 1).unwrap(), 7);
        next.lock(&store, 0).unwrap();
        assert_eq!(space.owner_of(0), Some(16));
        next.finish_abort();
        assert!(space.check_all_free().is_ok());
    }
}
