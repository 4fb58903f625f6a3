//! Abstract locks: the conflict-detection substrate.
//!
//! Every shared datum is assigned one word in a [`LockSpace`]. A word
//! packs `(tag, owner)` into one `AtomicU64`: the high 32 bits carry
//! the epoch *tag* under which the word was last written, the low 32
//! bits carry `slot + 1` for the owning task (`0` = free). The tag
//! itself is split into an 8-bit *lane* and a 24-bit lane-local
//! epoch, and every lane — lane 0, which barrier rounds run on, and
//! lanes `1..MAX_LANES`, one per pipelined worker — keeps its epoch in
//! one entry of one lane table. A word whose tag is not *live* — its
//! lane's current epoch differs from the epoch stamped in the tag — is
//! *free by definition*: it is residue from an earlier round or an
//! already-retired batch. Retiring a batch is therefore a single lane
//! bump — [`LockSpace::advance_epoch`] for a round on lane 0 (the
//! barrier), [`LockSpace::advance_lane`] for a worker's batch: nobody
//! walks a committed task's lockset to release it, and a bump on one
//! lane never stalls or frees work on another.
//!
//! Acquisition is a CAS loop; a collision with a task that is *still
//! running* is a *speculative conflict* and there is one rule for it:
//! **first wins** — the task that requests a lock a running task
//! holds aborts itself (Galois's default arbitration). A running
//! task's word is never overwritten by anyone but its owner, so a task
//! that acquired a lock keeps it until it commits or rolls back, and
//! needs no per-access ownership re-check.
//!
//! What a *committed* task's stamp means depends on the lane:
//!
//! * **Lane 0 — retention is the commit rule.** Lane 0 never
//!   publishes a running mark, so no holder on it is ever known to
//!   have finished: a committed round task keeps its locks until the
//!   barrier and later tasks of the round conflict with it. On the
//!   inline `workers == 1` round, where tasks run in draw order, this
//!   *is* the paper's model: a task commits iff no earlier committed
//!   neighbour holds its data.
//! * **Lanes ≥ 1 — retention is not conflict.** A pipelined lane
//!   keeps its committed stamps until the lane bump only because that
//!   makes the retire O(1); the holder no longer exists, so its word
//!   is free for the taking. A requester *takes over* a live word
//!   whose holder has finished — same lane: always (a lane runs one
//!   task at a time); another lane: when the holder's slot is behind
//!   the slot that lane has published as running
//!   ([`LockSpace::publish_running`]) — by the same CAS that takes a
//!   free word. Only a holder that is mid-task is a conflict.
//!
//! Why a finished holder on a lane *committed*: an aborting or
//! faulting task rolls its writes back and releases its words (a CAS
//! from its exact mark, `release_all_tagged`) before its worker
//! moves on, so a word still carrying a finished slot's mark was left
//! by a commit. Taking it over is then indistinguishable from taking
//! it after the lane bump: the undo log snapshots on first write, so
//! rolling the new owner back restores the committed value, and the
//! new owner's release CASes from *its* mark, so the dispossessed
//! slot can never free or reclaim the word.
//!
//! Locks are held until the owning task commits or rolls back — never
//! across epochs — so there is no waiting and hence no deadlock.

use std::sync::atomic::{AtomicU64, Ordering};

/// Low 32 bits of a lock word: the owner mark (`slot + 1`, 0 = free).
const OWNER_MASK: u64 = 0xFFFF_FFFF;

/// Shift of the epoch tag within a lock word.
const EPOCH_SHIFT: u32 = 32;

/// Shift of the lane id within the 32-bit tag (high 8 tag bits).
const LANE_SHIFT: u32 = 24;

/// Low 24 bits of a tag: the lane-local epoch.
const LANE_EPOCH_MASK: u64 = 0x00FF_FFFF;

/// Number of epoch lanes. Lane 0 is the round lane; lanes
/// `1..MAX_LANES` are claimable by pipelined workers (one per
/// worker), capping pipelined execution at 255 workers.
pub const MAX_LANES: usize = 256;

/// Owner words per 64-byte cache line. Sharded stores round their
/// shard bases to multiples of this (in lock words) and declare their
/// regions with [`LockSpaceBuilder::region_aligned`], so the owner
/// words of two shards never share a cache line.
pub const LINE_WORDS: usize = 8;

/// One cache line of owner words. The backing array is allocated as
/// lines, not words, so the first word of the space — and hence every
/// line-multiple boundary inside an aligned region — sits on a real
/// 64-byte boundary: intra-shard acquire/release traffic cannot
/// false-share with a neighbouring shard's words.
#[derive(Debug)]
#[repr(C, align(64))]
struct OwnerLine([AtomicU64; LINE_WORDS]);

/// One lane's state word, alone on its cache line: the high 32 bits
/// count the lane's retired batches (the low 24 of them are the lane
/// epoch a tag carries), the low 32 bits are the *running mark* —
/// `slot + 1` of the task the lane's worker is executing, 0 until it
/// publishes one (lane 0 never does). The owning worker stores the
/// mark before every task, so unpadded words would bounce between
/// every pair of workers.
#[derive(Debug, Default)]
#[repr(align(64))]
struct LaneWord(AtomicU64);

/// Benchmark-pinned shim, not an option: first-wins is the runtime's
/// one collision rule and nothing reads this type. It exists only
/// because `benchmark/src/drain.rs` — frozen by `BENCHMARK.json`'s
/// `paths` for ordinary PRs — names it in an `ExecutorConfig` literal;
/// the next PR that may edit `benchmark/` drops it (ROADMAP item 4(b)).
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
    /// array itself is allocated in 64-byte lines, every line-multiple
    /// offset inside the returned region sits on a true cache-line
    /// boundary — which is what lets a sharded store guarantee that no
    /// two shards' lock words share a line. The (≤ 7) skipped words
    /// belong to no region and are never acquired.
    pub fn region_aligned(&mut self, len: usize) -> Region {
        self.total = self.total.next_multiple_of(LINE_WORDS);
        self.region(len)
    }

    /// Freeze into an immutable lock space.
    pub fn build(self) -> LockSpace {
        let lines = (0..self.total.div_ceil(LINE_WORDS))
            .map(|_| OwnerLine(Default::default()))
            .collect();
        let lanes = (0..MAX_LANES).map(|_| LaneWord::default()).collect();
        LockSpace {
            lines,
            words: self.total,
            lanes,
            regions: self.regions,
            #[cfg(feature = "checker")]
            audit: optpar_checker::AuditSink::new(),
        }
    }
}

/// The global table of epoch-stamped abstract-lock owner words.
#[derive(Debug)]
pub struct LockSpace {
    /// Owner words, allocated as 64-byte cache lines (see
    /// [`OwnerLine`]); the flat word view is [`Self::owners`].
    lines: Box<[OwnerLine]>,
    /// Number of live lock words (the tail of the last line is
    /// padding: always zero, never part of any region).
    words: usize,
    /// The lane table: one state word per lane. Whoever runs a lane —
    /// the round driver for lane 0, one pipelined worker each for the
    /// rest — alone writes its word: the running mark before each
    /// task (worker lanes only), one epoch bump per retired batch.
    lanes: Box<[LaneWord]>,
    regions: Vec<Region>,
    /// Speculation-safety audit sink: tasks deposit traces here and
    /// the round barrier runs the lockset/oracle analyses over them.
    #[cfg(feature = "checker")]
    audit: optpar_checker::AuditSink,
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
        // SAFETY: `OwnerLine` is `repr(C, align(64))` around exactly
        // `LINE_WORDS` `AtomicU64`s — 64 bytes with no padding — so
        // the boxed lines form one contiguous array of
        // `lines.len() · LINE_WORDS ≥ words` words; the first `words`
        // of them are the live lock words.
        unsafe { std::slice::from_raw_parts(self.lines.as_ptr().cast::<AtomicU64>(), self.words) }
    }

    /// The current round epoch: lane 0's batch counter (monotonic;
    /// one step per round).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.lanes[0].0.load(Ordering::Acquire) >> EPOCH_SHIFT
    }

    /// The 32-bit tag a task running in `lane` must stamp right now:
    /// the lane id over the low 24 bits of the lane's batch counter.
    #[inline]
    pub fn lane_tag(&self, lane: usize) -> u64 {
        let word = self.lanes[lane].0.load(Ordering::Acquire);
        ((lane as u64) << LANE_SHIFT) | ((word >> EPOCH_SHIFT) & LANE_EPOCH_MASK)
    }

    /// Publish `slot` as the task lane `lane`'s worker is about to
    /// run. Called by the lane's owning worker — the only writer of
    /// the lane word — before each task of a batch, with slots that
    /// *rise* through the batch: every slot of the lane's current
    /// epoch below the published one has then finished, which is the
    /// test `acquire_tagged` applies to another lane's live word.
    ///
    /// The store is `Release` and the requester's load of the lane
    /// word `Acquire`: everything the finished holder wrote under its
    /// lock — and the commit that left the word stamped — happens
    /// before the data reads of whoever takes the word over.
    ///
    /// # Panics
    /// Panics if `lane` is 0 (round tasks publish nothing: lane 0
    /// keeps retention to the barrier) or out of range.
    #[inline]
    pub fn publish_running(&self, lane: usize, slot: usize) {
        assert!(
            (1..MAX_LANES).contains(&lane),
            "lane {lane} is not a worker lane"
        );
        let word = &self.lanes[lane].0;
        // Single writer: the load reads this thread's own last store.
        let epoch = word.load(Ordering::Relaxed) & !OWNER_MASK;
        word.store(epoch | (slot as u64 + 1), Ordering::Release);
    }

    /// What the stamp `(tag, owner)` found on a lock word means right
    /// now — see [`Holder`]. One `Acquire` load of the stamping lane's
    /// word answers both questions (is the tag live, has the holder
    /// finished); lane 0's mark stays 0, so its live stamps are
    /// `Running` to the barrier.
    #[inline]
    fn holder(&self, tag: u64, owner: u64) -> Holder {
        let lane = (tag >> LANE_SHIFT) as usize;
        let word = self.lanes[lane].0.load(Ordering::Acquire);
        if tag & LANE_EPOCH_MASK != (word >> EPOCH_SHIFT) & LANE_EPOCH_MASK {
            Holder::Gone
        } else if owner < word & OWNER_MASK {
            Holder::Finished
        } else {
            Holder::Running
        }
    }

    /// Is the word `w` stamped by an owner whose lane epoch is still
    /// current — running, or committed and not yet retired?
    #[inline]
    fn word_is_held(&self, w: u64) -> bool {
        w & OWNER_MASK != 0 && self.holder(w >> EPOCH_SHIFT, w & OWNER_MASK) != Holder::Gone
    }

    /// Advance the round epoch: the O(1) round barrier, lane 0's
    /// [`Self::advance_lane`]. Every word still stamped with the
    /// previous epoch — i.e. every lock still held by a committed task
    /// of the finished round — becomes free without being touched.
    pub fn advance_epoch(&self) {
        #[cfg_attr(not(feature = "checker"), allow(unused_variables))]
        let old = self.retire(0);
        #[cfg(feature = "checker")]
        {
            let new = self.epoch();
            self.audit.assert_epoch_step(old, new);
            if new & LANE_EPOCH_MASK == 0 {
                // No lane-0-tagged word survives lane 0's wrap.
                self.audit.assert_wrap_swept(
                    new,
                    self.owners()
                        .iter()
                        .enumerate()
                        .map(|(i, w)| (i, w.load(Ordering::Acquire)))
                        .find(|&(_, w)| w != 0 && w >> (EPOCH_SHIFT + LANE_SHIFT) == 0),
                );
            }
        }
    }

    /// Advance lane `lane`'s epoch: the O(1) batch retirement. Every
    /// word still stamped with the lane's previous epoch — i.e. every
    /// lock still held by a committed task of the retired batch —
    /// becomes free without being touched, and no other lane notices.
    ///
    /// # Panics
    /// Panics if `lane` is 0 (the round lane; use
    /// [`Self::advance_epoch`]) or out of range.
    pub fn advance_lane(&self, lane: usize) {
        assert!(
            (1..MAX_LANES).contains(&lane),
            "lane {lane} is not a worker lane"
        );
        self.retire(lane);
    }

    /// Bump `lane`'s batch counter and return its old value.
    ///
    /// The 24-bit lane epoch wraps once every 2^24 batches; on wrap,
    /// residue carrying this lane's id is swept to zero by CAS so a
    /// word abandoned 2^24 batches ago cannot alias the reused tag.
    /// The CAS sweep is safe concurrently with other lanes: it only
    /// clears words whose stamp belongs to this (single-owner) lane.
    /// Amortized cost is nil.
    fn retire(&self, lane: usize) -> u64 {
        // The epoch counter sits above the running mark, which the
        // bump leaves alone: no word carries the new epoch yet, so a
        // stale mark has nothing to be compared against.
        let old = self.lanes[lane]
            .0
            .fetch_add(1 << EPOCH_SHIFT, Ordering::AcqRel)
            >> EPOCH_SHIFT;
        if (old + 1) & LANE_EPOCH_MASK == 0 {
            let lane = lane as u64;
            for w in self.owners().iter() {
                loop {
                    let cur = w.load(Ordering::Acquire);
                    if cur == 0 || cur >> (EPOCH_SHIFT + LANE_SHIFT) != lane {
                        break; // not our residue; leave it alone
                    }
                    if w.compare_exchange(cur, 0, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        break;
                    }
                    // Another lane took the word between load and CAS;
                    // re-evaluate (its new stamp is not ours).
                }
            }
        }
        old
    }

    /// The speculation-safety audit sink attached to this space.
    #[cfg(feature = "checker")]
    pub fn audit(&self) -> &optpar_checker::AuditSink {
        &self.audit
    }

    /// The slot whose stamp lock `l` carries: `None` if free (including
    /// words whose stamping lane has moved on), else the slot that
    /// last acquired it under a still-current epoch — running, or
    /// committed and awaiting its barrier or lane bump.
    pub fn owner_of(&self, l: usize) -> Option<usize> {
        let w = self.owners()[l].load(Ordering::Acquire);
        if self.word_is_held(w) {
            Some((w & OWNER_MASK) as usize - 1)
        } else {
            None
        }
    }

    /// Assert every lock is free under every live lane epoch (round /
    /// quiescence boundary invariant). Returns the first held lock on
    /// violation.
    ///
    /// Immediately after [`Self::advance_epoch`] this holds by
    /// construction — the scan exists for tests and debug assertions,
    /// not for the hot path (which needs no check at all).
    pub fn check_all_free(&self) -> Result<(), usize> {
        for (l, w) in self.owners().iter().enumerate() {
            if self.word_is_held(w.load(Ordering::Acquire)) {
                return Err(l);
            }
        }
        Ok(())
    }
}

/// What a non-zero owner stamp on a lock word stands for right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Holder {
    /// Nobody: the owner bits are clear, or the stamping lane has
    /// moved on to another epoch and left residue.
    Gone,
    /// Live tag, but the holder's slot is behind the one its lane has
    /// published as running: it committed (an abort would have
    /// released the word) and only the pending lane bump keeps its
    /// stamp here.
    Finished,
    /// Live tag and not known to have finished: the holder is (or, on
    /// lane 0, counts until the barrier as) a running task.
    Running,
}

/// Why a lock acquisition failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AcquireError {
    /// Lost the collision: the lock is held by another live task.
    Conflict {
        /// The contested lock index.
        lock: usize,
        /// The slot currently holding it.
        holder: usize,
    },
}

/// How a successful [`acquire_tagged`] got the lock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Acquired {
    /// The word was free (never taken, released by an abort, or
    /// retired residue) and is now ours.
    Fresh,
    /// The word carried a live stamp of a holder that has finished —
    /// `(tag, slot)` — and was taken over from it.
    TakenFrom(u64, usize),
    /// We already held it (reentrant).
    Held,
}

/// Attempt to acquire lock `l` for task `slot`, stamping lane 0's
/// current tag (round mode) — a unit-test shorthand for
/// [`acquire_tagged`], which production paths reach through
/// `TaskCtx`'s cached tag.
#[cfg(test)]
pub(crate) fn acquire(space: &LockSpace, slot: usize, l: usize) -> Result<Acquired, AcquireError> {
    acquire_tagged(space, slot, space.lane_tag(0), l)
}

/// Attempt to acquire lock `l` for task `slot`, stamping `tag` (the
/// caller's lane tag, cached for the batch). `Err(Conflict)` means a
/// task that is still running holds it (first wins); every other word
/// is taken by a CAS from the value just classified:
///
/// * owner bits clear, or a same-lane stamp from another epoch (our
///   own retired batch — no load needed to know), or another lane's
///   stamp whose epoch that lane has left: **free**;
/// * our own live tag with another slot's mark, on a lane ≥ 1: the
///   holder ran before us on this lane and did not release, so it
///   committed — **taken over**. On lane 0 the same word is a
///   conflict: a round's committed tasks hold to the barrier, which
///   is the model's commit rule;
/// * another lane's live tag whose slot is behind the slot that lane
///   has published as running ([`LockSpace::publish_running`]):
///   likewise finished, **taken over** — the `Acquire` load of the
///   lane word that told us so orders the holder's writes before our
///   reads.
///
/// A takeover CAS can only lose to another requester of the same
/// word, never to the finished holder (committed tasks do not release,
/// and an abort's release CASes from its own mark); the loop then
/// re-classifies what the winner wrote.
///
/// `slot + 1` must fit the 32-bit owner field; both executors assert
/// that on the slot range they mint before any task runs.
///
/// The free-word test and its CAS come first and return at once, as
/// they did before there was anything to take over, and the function
/// is `#[inline]`: this is every lock operation of every barrier
/// round. With the takeover folded into one classify-then-CAS, or
/// with the body left over LLVM's inline threshold (a call, the result
/// through memory), `service-mix` and `delaunay-refine` solve 2–5%
/// slower.
#[inline]
pub(crate) fn acquire_tagged(
    space: &LockSpace,
    slot: usize,
    tag: u64,
    l: usize,
) -> Result<Acquired, AcquireError> {
    let owners = space.owners();
    let me = (tag << EPOCH_SHIFT) | (slot as u64 + 1);
    loop {
        let cur = owners[l].load(Ordering::Acquire);
        let cur_tag = cur >> EPOCH_SHIFT;
        let owner = cur & OWNER_MASK;
        // Our own lane's stamps are judged by the tag alone; another
        // lane's need that lane's word.
        let foreign = if owner != 0 && cur_tag >> LANE_SHIFT != tag >> LANE_SHIFT {
            space.holder(cur_tag, owner)
        } else {
            Holder::Gone
        };
        if owner == 0 || (cur_tag != tag && foreign == Holder::Gone) {
            // Free — genuinely, or as residue of a retired batch.
            if owners[l]
                .compare_exchange(cur, me, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Ok(Acquired::Fresh);
            }
            continue; // someone raced us; re-evaluate
        }
        if cur == me {
            return Ok(Acquired::Held);
        }
        // A live stamp of another task: ours to take only if that
        // task has finished.
        let finished = if cur_tag == tag {
            tag >> LANE_SHIFT != 0
        } else {
            foreign == Holder::Finished
        };
        if !finished {
            return Err(AcquireError::Conflict {
                lock: l,
                holder: owner as usize - 1,
            });
        }
        if owners[l]
            .compare_exchange(cur, me, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            return Ok(Acquired::TakenFrom(cur_tag, owner as usize - 1));
        }
    }
}

/// Release every lock in `lockset` held by `slot` under lane 0's
/// current epoch — a unit-test shorthand for [`release_all_tagged`],
/// which is what aborting tasks go through.
#[cfg(test)]
pub(crate) fn release_all(space: &LockSpace, slot: usize, lockset: &[usize]) {
    release_all_tagged(space, slot, space.lane_tag(0), lockset)
}

/// Release every lock in `lockset` held by `slot` under `tag` (the
/// caller's cached lane tag). The release is a CAS from this task's
/// exact mark, so a word that no longer carries it — retired-batch
/// residue, a word another lane has since recycled, or one a later
/// task took over — is left alone. Aborting tasks must free their
/// words before their worker moves on (that is what lets a finished
/// holder's surviving stamp be read as a commit); committed ones rely
/// on [`LockSpace::advance_epoch`] / [`LockSpace::advance_lane`]
/// instead.
pub(crate) fn release_all_tagged(space: &LockSpace, slot: usize, tag: u64, lockset: &[usize]) {
    let owners = space.owners();
    let me = (tag << EPOCH_SHIFT) | (slot as u64 + 1);
    let free = tag << EPOCH_SHIFT;
    for &l in lockset {
        let _ = owners[l].compare_exchange(me, free, Ordering::AcqRel, Ordering::Acquire);
        // Stale-owner assertion: whatever the CAS outcome, the word
        // must no longer carry this slot's current-epoch mark.
        #[cfg(feature = "checker")]
        if owners[l].load(Ordering::Acquire) == me {
            space
                .audit()
                .report_now(optpar_checker::Report::EpochInvariant {
                    epoch: space.epoch(),
                    detail: format!("lock {l} still owned by slot {slot} after its release"),
                });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Each lane word has a cache line to itself — its worker stores
    /// to it before every task — and all of them cost a space 16 KB.
    #[test]
    fn lane_words_are_padded_to_a_cache_line() {
        let space = LockSpace::builder().build();
        assert_eq!(std::mem::size_of::<LaneWord>(), 64);
        assert_eq!(std::mem::size_of_val(&*space.lanes), 16 << 10);
        assert_eq!(space.lanes.as_ptr() as usize % 64, 0);
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
        release_all(&space, 1, &[3]);
        release_all(&space, 0, &[2]);
        assert_eq!(space.owner_of(2), None);
        assert!(space.check_all_free().is_ok());
    }

    #[test]
    fn epoch_bump_frees_held_words_in_o1() {
        let mut b = LockSpace::builder();
        let _ = b.region(8);
        let space = b.build();
        for l in 0..8 {
            assert_eq!(acquire(&space, l % 3, l), Ok(Acquired::Fresh));
        }
        assert!(space.check_all_free().is_err(), "words are held");
        let e0 = space.epoch();
        space.advance_epoch();
        assert_eq!(space.epoch(), e0 + 1);
        // No release traversal happened, yet everything reads free.
        assert!(space.check_all_free().is_ok());
        for l in 0..8 {
            assert_eq!(space.owner_of(l), None, "stale word {l} must read free");
        }
        // The words are re-acquirable under the new epoch.
        assert_eq!(acquire(&space, 0, 3), Ok(Acquired::Fresh));
        assert_eq!(space.owner_of(3), Some(0));
    }

    #[test]
    fn stale_epoch_word_is_never_reported_held() {
        // Regression guard for the epoch encoding: a word written under
        // epoch e must read as free under every later epoch, through
        // owner_of, check_all_free, AND the acquire fast path.
        let mut b = LockSpace::builder();
        let _ = b.region(2);
        let space = b.build();
        assert_eq!(acquire(&space, 1, 0), Ok(Acquired::Fresh));
        for step in 1..=100u64 {
            space.advance_epoch();
            assert_eq!(space.owner_of(0), None, "stale at +{step}");
            assert!(space.check_all_free().is_ok(), "stale at +{step}");
        }
        // First-wins acquire by a *different* slot must not conflict
        // with the 100-epochs-stale residue.
        assert_eq!(
            acquire(&space, 0, 0),
            Ok(Acquired::Fresh),
            "stale word must be treated as free by acquire"
        );
        assert_eq!(space.owner_of(0), Some(0));
    }

    #[test]
    fn release_is_scoped_to_current_epoch() {
        // An abort-path release under epoch e+1 must not resurrect or
        // clobber a same-slot word left over from epoch e.
        let mut b = LockSpace::builder();
        let _ = b.region(1);
        let space = b.build();
        assert_eq!(acquire(&space, 0, 0), Ok(Acquired::Fresh));
        space.advance_epoch();
        // Stale-scoped release: the CAS expects an epoch-current mark,
        // so the stale word is left alone (and still reads free).
        release_all(&space, 0, &[0]);
        assert_eq!(space.owner_of(0), None);
        // Fresh acquire + release round-trips under the new epoch.
        assert_eq!(acquire(&space, 0, 0), Ok(Acquired::Fresh));
        release_all(&space, 0, &[0]);
        assert_eq!(space.owner_of(0), None);
        assert!(space.check_all_free().is_ok());
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

    /// Drive the epoch across the 24-bit lane-0 tag wraparound: words
    /// stamped with the maximal tag must read free after the wrap
    /// sweep, the monotonic counter must keep counting, and the space
    /// must be immediately reusable under the fresh zero tag.
    #[test]
    fn epoch_tag_wraparound_sweeps_stale_owners() {
        let mut b = LockSpace::builder();
        let _ = b.region(3);
        let space = b.build();

        // Jump to the last epoch before the lane-0 tag wraps (tag =
        // 0x00FF_FFFF) with some high bits set, as after ~6 * 2^24
        // real rounds.
        let pre_wrap: u64 = (6 << LANE_SHIFT) | LANE_EPOCH_MASK;
        space.lanes[0]
            .0
            .store(pre_wrap << EPOCH_SHIFT, Ordering::Release);
        assert_eq!(space.lane_tag(0), LANE_EPOCH_MASK);

        // Stamp locks 0 and 2 under the maximal tag (lock 1 stays 0).
        assert_eq!(acquire(&space, 0, 0), Ok(Acquired::Fresh));
        assert_eq!(acquire(&space, 1, 2), Ok(Acquired::Fresh));
        assert_eq!(space.owner_of(0), Some(0));
        assert_eq!(space.owner_of(2), Some(1));

        // The round barrier that crosses the wrap. With the checker
        // enabled this also exercises `assert_epoch_step` across the
        // tag boundary and the post-sweep `assert_wrap_swept` audit
        // (panicking if any stale word survived).
        space.advance_epoch();

        // Monotonic counter kept counting; tag wrapped to zero.
        assert_eq!(space.epoch(), pre_wrap + 1);
        assert_eq!(space.lane_tag(0), 0);

        // Stale words were physically swept, not merely out-tagged:
        // a zero tag is the one value a lazy (unswept) expiry scheme
        // would alias, so the sweep must leave literal zeros behind.
        for w in space.owners().iter() {
            assert_eq!(w.load(Ordering::Acquire), 0);
        }
        assert_eq!(space.owner_of(0), None);
        assert_eq!(space.owner_of(2), None);
        assert!(space.check_all_free().is_ok());

        // The space is immediately reusable under the fresh tag.
        assert_eq!(acquire(&space, 0, 0), Ok(Acquired::Fresh));
        assert_eq!(space.owner_of(0), Some(0));
        release_all(&space, 0, &[0]);
        assert_eq!(space.owner_of(0), None);
    }

    /// A non-wrapping epoch step must *not* sweep: expiry of held
    /// locks is lazy (the stale word survives physically but reads
    /// free under the new tag) — that O(1) barrier is the whole point.
    #[test]
    fn ordinary_epoch_step_expires_lazily() {
        let mut b = LockSpace::builder();
        let _ = b.region(1);
        let space = b.build();
        assert_eq!(acquire(&space, 0, 0), Ok(Acquired::Fresh));
        let stamped = space.owners()[0].load(Ordering::Acquire);
        assert_ne!(stamped, 0);

        space.advance_epoch();

        // Word untouched, yet the lock reads free and is reusable.
        assert_eq!(space.owners()[0].load(Ordering::Acquire), stamped);
        assert_eq!(space.owner_of(0), None);
        assert!(space.check_all_free().is_ok());
        assert_eq!(acquire(&space, 0, 0), Ok(Acquired::Fresh));
    }

    /// Acquire every word under one lane tag, then retire the batch
    /// with a single lane bump: everything must read free with no
    /// release traversal, exactly like the round barrier — but scoped
    /// to that lane.
    #[test]
    fn lane_bump_frees_batch_words_in_o1() {
        let mut b = LockSpace::builder();
        let _ = b.region(8);
        let space = b.build();
        let tag = space.lane_tag(1);
        for l in 0..8 {
            assert_eq!(acquire_tagged(&space, l % 3, tag, l), Ok(Acquired::Fresh));
        }
        assert!(space.check_all_free().is_err(), "words are held");
        space.advance_lane(1);
        assert!(
            space.check_all_free().is_ok(),
            "lane bump expires the batch"
        );
        for l in 0..8 {
            assert_eq!(space.owner_of(l), None, "stale word {l} must read free");
        }
        // Immediately reusable under the lane's next epoch.
        let tag2 = space.lane_tag(1);
        assert_ne!(tag, tag2);
        assert_eq!(acquire_tagged(&space, 0, tag2, 3), Ok(Acquired::Fresh));
        assert_eq!(space.owner_of(3), Some(0));
    }

    /// Lanes are independent: a bump on one lane must not expire
    /// another lane's held words, nor lane 0's, and vice versa. This
    /// is the no-slow-task-stalls-the-world property at the lock
    /// level.
    #[test]
    fn lane_bump_does_not_disturb_other_lanes() {
        let mut b = LockSpace::builder();
        let _ = b.region(3);
        let space = b.build();
        // Lock 0 under lane 1, lock 1 under lane 2, lock 2 under lane 0.
        assert_eq!(
            acquire_tagged(&space, 0, space.lane_tag(1), 0),
            Ok(Acquired::Fresh)
        );
        assert_eq!(
            acquire_tagged(&space, 1, space.lane_tag(2), 1),
            Ok(Acquired::Fresh)
        );
        assert_eq!(acquire(&space, 2, 2), Ok(Acquired::Fresh));
        // Retire lane 2's batch only.
        space.advance_lane(2);
        assert_eq!(space.owner_of(0), Some(0), "lane 1 hold survives");
        assert_eq!(space.owner_of(1), None, "lane 2 hold expired");
        assert_eq!(space.owner_of(2), Some(2), "lane 0 hold survives");
        // A global round barrier expires lane 0 but not lane 1.
        space.advance_epoch();
        assert_eq!(space.owner_of(0), Some(0), "lane 1 hold still survives");
        assert_eq!(space.owner_of(2), None, "lane 0 hold expired");
    }

    /// A live hold in one lane must conflict with an acquirer in a
    /// different lane (cross-batch conflicts are real conflicts), and
    /// expired residue must not.
    #[test]
    fn cross_lane_conflict_and_expiry() {
        let mut b = LockSpace::builder();
        let _ = b.region(1);
        let space = b.build();
        assert_eq!(
            acquire_tagged(&space, 0, space.lane_tag(1), 0),
            Ok(Acquired::Fresh)
        );
        // Live cross-lane conflict, from another lane and from lane 0.
        assert_eq!(
            acquire_tagged(&space, 1, space.lane_tag(2), 0),
            Err(AcquireError::Conflict { lock: 0, holder: 0 })
        );
        assert_eq!(
            acquire(&space, 2, 0),
            Err(AcquireError::Conflict { lock: 0, holder: 0 })
        );
        // After the holding lane retires, both may take it.
        space.advance_lane(1);
        assert_eq!(
            acquire_tagged(&space, 3, space.lane_tag(2), 0),
            Ok(Acquired::Fresh),
            "stale cross-lane residue must be treated as free"
        );
        assert_eq!(space.owner_of(0), Some(3));
    }

    /// Drive one lane across its 24-bit epoch wraparound: residue
    /// stamped by that lane is CAS-swept to zero, while live words of
    /// other lanes (and lane 0) are untouched.
    #[test]
    fn lane_epoch_wraparound_sweeps_only_that_lane() {
        let mut b = LockSpace::builder();
        let _ = b.region(3);
        let space = b.build();
        // Park lane 3 one step before its epoch wraps.
        space.lanes[3]
            .0
            .store(LANE_EPOCH_MASK << EPOCH_SHIFT, Ordering::Release);
        let tag3 = space.lane_tag(3);
        assert_eq!(tag3, (3 << LANE_SHIFT) | LANE_EPOCH_MASK);
        assert_eq!(acquire_tagged(&space, 0, tag3, 0), Ok(Acquired::Fresh));
        // Live holds in lane 4 and lane 0 that must survive the sweep.
        assert_eq!(
            acquire_tagged(&space, 1, space.lane_tag(4), 1),
            Ok(Acquired::Fresh)
        );
        assert_eq!(acquire(&space, 2, 2), Ok(Acquired::Fresh));

        space.advance_lane(3);

        // Lane 3's counter wrapped to a zero epoch and its residue was
        // physically swept (a zero tag is the one value lazy expiry
        // would alias).
        assert_eq!(space.lane_tag(3), 3 << LANE_SHIFT);
        assert_eq!(space.owners()[0].load(Ordering::Acquire), 0);
        // The other lanes' words are physically untouched and still held.
        assert_eq!(space.owner_of(1), Some(1));
        assert_eq!(space.owner_of(2), Some(2));
        // Lane 3 is immediately reusable under its fresh zero epoch.
        assert_eq!(
            acquire_tagged(&space, 0, space.lane_tag(3), 0),
            Ok(Acquired::Fresh)
        );
        assert_eq!(space.owner_of(0), Some(0));
    }

    /// Tagged release is scoped to the releasing batch: it frees the
    /// caller's own live words, skips residue from its previous batch,
    /// and never clobbers another lane's live hold on a recycled word.
    #[test]
    fn tagged_release_is_scoped_to_its_batch() {
        let mut b = LockSpace::builder();
        let _ = b.region(2);
        let space = b.build();
        let tag = space.lane_tag(1);
        assert_eq!(acquire_tagged(&space, 0, tag, 0), Ok(Acquired::Fresh));
        assert_eq!(acquire_tagged(&space, 0, tag, 1), Ok(Acquired::Fresh));
        // Lock 1's batch retires; lock 0 is then re-taken by lane 2
        // under the same slot number.
        space.advance_lane(1);
        assert_eq!(
            acquire_tagged(&space, 0, space.lane_tag(2), 0),
            Ok(Acquired::Fresh)
        );
        // A release under the *old* lane-1 tag can only clear words
        // still physically carrying that exact dead stamp (harmless:
        // they already read free); it must never clobber lane 2's
        // live hold on the recycled word 0, even from the same slot.
        release_all_tagged(&space, 0, tag, &[0, 1]);
        assert_eq!(space.owner_of(0), Some(0), "lane 2's hold survives");
        // A release under the current lane tag frees a live abort.
        let tag1b = space.lane_tag(1);
        assert_eq!(acquire_tagged(&space, 1, tag1b, 1), Ok(Acquired::Fresh));
        release_all_tagged(&space, 1, tag1b, &[1]);
        assert_eq!(space.owner_of(1), None);
    }

    /// (a) Same lane: on a worker lane a word stamped by another slot
    /// under our own live tag belongs to a task that ran before us and
    /// did not release — it committed — so we take it over. Lane 0
    /// keeps retention to the barrier: the same word is a conflict.
    #[test]
    fn same_lane_takeover_on_worker_lanes_only() {
        let mut b = LockSpace::builder();
        let _ = b.region(2);
        let space = b.build();
        let tag = space.lane_tag(1);
        assert_eq!(acquire_tagged(&space, 0, tag, 0), Ok(Acquired::Fresh));
        assert_eq!(
            acquire_tagged(&space, 1, tag, 0),
            Ok(Acquired::TakenFrom(tag, 0))
        );
        assert_eq!(space.owner_of(0), Some(1));
        assert_eq!(acquire_tagged(&space, 1, tag, 0), Ok(Acquired::Held));
        // The chain goes on: slot 2 takes it from slot 1, not slot 0.
        assert_eq!(
            acquire_tagged(&space, 2, tag, 0),
            Ok(Acquired::TakenFrom(tag, 1))
        );
        // Lane 0, same shape: first wins until the barrier.
        assert_eq!(acquire(&space, 0, 1), Ok(Acquired::Fresh));
        assert_eq!(
            acquire(&space, 1, 1),
            Err(AcquireError::Conflict { lock: 1, holder: 0 })
        );
        space.advance_epoch();
        assert_eq!(acquire(&space, 1, 1), Ok(Acquired::Fresh));
    }

    /// (b) Across lanes: a live word of another lane is taken over iff
    /// its slot is *behind* the slot that lane has published as
    /// running; the published slot itself (and anything past it, and
    /// everything while nothing is published) is a running holder.
    #[test]
    fn cross_lane_takeover_needs_a_holder_behind_the_published_slot() {
        let mut b = LockSpace::builder();
        let _ = b.region(3);
        let space = b.build();
        let (tag1, tag2) = (space.lane_tag(1), space.lane_tag(2));
        // Lane 1 runs slots 4, 5, 6 of one batch; each takes one word.
        for (slot, l) in [(4, 0), (5, 1), (6, 2)] {
            space.publish_running(1, slot);
            assert_eq!(acquire_tagged(&space, slot, tag1, l), Ok(Acquired::Fresh));
        }
        space.publish_running(1, 5);
        // Behind the published slot: finished, taken.
        assert_eq!(
            acquire_tagged(&space, 16, tag2, 0),
            Ok(Acquired::TakenFrom(tag1, 4))
        );
        assert_eq!(space.owner_of(0), Some(16));
        // At it, and ahead of it: running, conflict.
        assert_eq!(
            acquire_tagged(&space, 16, tag2, 1),
            Err(AcquireError::Conflict { lock: 1, holder: 5 })
        );
        assert_eq!(
            acquire_tagged(&space, 16, tag2, 2),
            Err(AcquireError::Conflict { lock: 2, holder: 6 })
        );
        // A lane-0 requester reads the same published slot...
        space.publish_running(1, 6);
        assert_eq!(acquire(&space, 0, 1), Ok(Acquired::TakenFrom(tag1, 5)));
        // ...but a lane-0 holder is never finished before its barrier,
        // and neither is a lane that has published nothing.
        assert_eq!(
            acquire_tagged(&space, 16, tag2, 1),
            Err(AcquireError::Conflict { lock: 1, holder: 0 })
        );
        assert_eq!(
            acquire_tagged(&space, 6, tag1, 0),
            Err(AcquireError::Conflict {
                lock: 0,
                holder: 16
            })
        );
        // The lane bump keeps the mark and moves the epoch: the stale
        // mark is compared against nothing, residue is simply free.
        space.advance_lane(1);
        assert_eq!(acquire_tagged(&space, 16, tag2, 2), Ok(Acquired::Fresh));
    }

    /// The dispossessed slot cannot free or reclaim a word that was
    /// taken over from it: its release CASes from its own mark, and the
    /// new owner's release leaves the word free, not handed back.
    #[test]
    fn release_by_the_dispossessed_slot_is_a_no_op() {
        let mut b = LockSpace::builder();
        let _ = b.region(1);
        let space = b.build();
        let tag = space.lane_tag(1);
        assert_eq!(acquire_tagged(&space, 0, tag, 0), Ok(Acquired::Fresh));
        assert_eq!(
            acquire_tagged(&space, 1, tag, 0),
            Ok(Acquired::TakenFrom(tag, 0))
        );
        release_all_tagged(&space, 0, tag, &[0]);
        assert_eq!(space.owner_of(0), Some(1), "slot 1 still holds it");
        release_all_tagged(&space, 1, tag, &[0]);
        assert_eq!(space.owner_of(0), None);
        assert!(space.check_all_free().is_ok());
        assert_eq!(acquire_tagged(&space, 2, tag, 0), Ok(Acquired::Fresh));
    }

    /// A finished holder whose lane then retires — by an ordinary bump
    /// or by the 24-bit wrap and its sweep — leaves a free word, not a
    /// takeover: the requester classifies whatever it loads.
    #[test]
    fn finished_holder_retired_before_the_takeover_is_just_free() {
        let mut b = LockSpace::builder();
        let _ = b.region(2);
        let space = b.build();
        space.lanes[1]
            .0
            .store((LANE_EPOCH_MASK - 1) << EPOCH_SHIFT, Ordering::Release);
        let tag2 = space.lane_tag(2);
        for l in 0..2 {
            let tag1 = space.lane_tag(1);
            space.publish_running(1, 0);
            assert_eq!(acquire_tagged(&space, 0, tag1, l), Ok(Acquired::Fresh));
            space.publish_running(1, 1);
            // Finished and takeable now...
            assert_eq!(space.holder(tag1, 1), Holder::Finished);
            // ...but the lane retires first (the second time round,
            // across the wrap: the sweep zeroes the word).
            space.advance_lane(1);
            assert_eq!(space.holder(tag1, 1), Holder::Gone);
            assert_eq!(acquire_tagged(&space, 9, tag2, l), Ok(Acquired::Fresh));
        }
        assert_eq!(space.lane_tag(1), 1 << LANE_SHIFT, "lane 1 wrapped");
    }

    /// Takeover racing the holder lane's bumps, across the 24-bit wrap
    /// sweep: lane 1's worker runs two-task batches over two words
    /// while two other lanes hammer the same words. Whoever holds a
    /// word raises its busy flag for the length of its task; a flag
    /// found raised is two live owners. Every sixteenth batch lane 1
    /// stays inside its second task until the other lanes have made
    /// four more attempts — so on any number of cores they meet it
    /// mid-task, its first slot finished and that stamp still live:
    /// one word to take over, one to lose.
    #[test]
    fn takeover_racing_lane_bumps_and_the_wrap_sweep_stays_exclusive() {
        use std::sync::atomic::{AtomicBool, AtomicUsize};
        const BATCHES: usize = 4_000;
        let mut b = LockSpace::builder();
        let _ = b.region(2);
        let space = b.build();
        // The wrap (and its CAS sweep) falls mid-run.
        space.lanes[1].0.store(
            (LANE_EPOCH_MASK - BATCHES as u64 / 2) << EPOCH_SHIFT,
            Ordering::Release,
        );
        let busy = [AtomicBool::new(false), AtomicBool::new(false)];
        let (overlaps, taken, lost) = (
            AtomicUsize::new(0),
            AtomicUsize::new(0),
            AtomicUsize::new(0),
        );
        let attempts = AtomicUsize::new(0);
        let done = AtomicBool::new(false);
        // One task: take word `l` if it can be had, sit in it, and
        // either commit (leave the stamp) or abort (release).
        let task = |lane: usize, slot: usize, tag: u64, l: usize, commit: bool, linger: bool| {
            space.publish_running(lane, slot);
            attempts.fetch_add(1, Ordering::AcqRel);
            let how = match acquire_tagged(&space, slot, tag, l) {
                Ok(how) => how,
                Err(_) => {
                    lost.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            };
            if matches!(how, Acquired::TakenFrom(..)) {
                taken.fetch_add(1, Ordering::Relaxed);
            }
            if busy[l].swap(true, Ordering::AcqRel) {
                overlaps.fetch_add(1, Ordering::Relaxed);
            }
            let seen = attempts.load(Ordering::Acquire);
            while linger && attempts.load(Ordering::Acquire) < seen + 4 {
                std::thread::yield_now();
            }
            busy[l].store(false, Ordering::Release);
            if !commit {
                release_all_tagged(&space, slot, tag, &[l]);
            }
        };
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..BATCHES {
                    let tag = space.lane_tag(1);
                    task(1, 0, tag, 0, true, false);
                    task(1, 1, tag, 1, true, i.is_multiple_of(16));
                    space.advance_lane(1);
                }
                done.store(true, Ordering::Release);
            });
            for lane in [2usize, 3] {
                let (task, done, space) = (&task, &done, &space);
                s.spawn(move || {
                    let mut i = 0usize;
                    while !done.load(Ordering::Acquire) {
                        let tag = space.lane_tag(lane);
                        task(lane, 8 * lane, tag, i % 2, !i.is_multiple_of(3), false);
                        task(lane, 8 * lane + 1, tag, (i + 1) % 2, true, false);
                        space.advance_lane(lane);
                        i += 1;
                    }
                });
            }
        });
        assert_eq!(overlaps.load(Ordering::Relaxed), 0, "two live owners");
        assert_eq!(space.lane_tag(1) & LANE_EPOCH_MASK, BATCHES as u64 / 2 - 1);
        assert!(space.check_all_free().is_ok());
        // While lane 1 lingered in word 1 the others tried both words.
        assert!(taken.load(Ordering::Relaxed) > 0, "no finished holder met");
        assert!(lost.load(Ordering::Relaxed) > 0, "no running holder met");
    }
}
