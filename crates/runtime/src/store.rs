//! Speculation-aware shared storage.
//!
//! A [`SpecStore<T>`] is a fixed-capacity array of `T` whose slots are
//! protected one-to-one by the abstract locks of a
//! [`crate::lock::Region`]. All access goes through
//! [`TaskCtx`](crate::task::TaskCtx), which verifies lock ownership
//! before handing out references. Writes go in place: a task writes
//! only after its seal, so there is nothing to roll back.
//!
//! # Capacity and allocation
//!
//! Morphing workloads (Delaunay refinement, Boruvka contraction) create
//! new data at run time. [`SpecStore::alloc`] hands out fresh slots
//! from the pre-sized capacity; allocation is **not** rolled back on
//! abort — an aborted task's freshly allocated slots simply leak (they
//! are unreachable from committed state). Applications size their
//! stores with slack accordingly; running out of capacity is a panic,
//! not UB.
//!
//! Capacity a growable store ([`SpecStore::from_vec`]) has not handed
//! out yet is address space, not memory: the slab is allocated
//! uninitialised and the pad value is cloned into it a chunk of
//! `FILL_CHUNK` slots at a time, by whichever `alloc` first finds the
//! live prefix at the filled mark (under a mutex nothing else takes).
//! `alloc` publishes an index — a CAS on the live count — only below
//! that mark, and every accessor asserts its index below the live
//! count, so no reachable slot is ever uninitialised and the
//! read/write path does not know the difference. The slack costs
//! nothing to build and nothing in resident memory until it is
//! allocated (`delaunay-refine` reserves 2.0 M triangle slots and
//! allocates about 250 k: `setup_s` and `peak_rss_mb` in
//! `results/benchmark_results.json`). Fixed-size stores
//! ([`SpecStore::new`], [`SpecStore::filled`],
//! [`SpecStore::new_sharded`]) are filled by their constructor.

#![allow(
    clippy::indexing_slicing,
    reason = "slot ids are validated at the TaskCtx boundary and mapped by the store's own shard tables"
)]

use crate::lock::Region;
use crate::shard::ShardMap;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Slots a growable store initialises per fill (module docs): 112 KB
/// of mesh triangles, a fill every 4096th `alloc`.
const FILL_CHUNK: usize = 4096;

/// What a growable store fills its untouched capacity with.
struct Pad<T> {
    value: T,
    /// `T::clone`, captured where `T: Clone` is known so that
    /// [`SpecStore::alloc`] needs no bound.
    clone: fn(&T) -> T,
}

/// A shared, lock-protected array of `T`.
pub struct SpecStore<T> {
    region: Region,
    /// The slab; slots `0..filled` are initialised.
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    live: AtomicUsize,
    /// `live ≤ filled ≤ capacity`. Grows only under `pad`'s lock; the
    /// capacity from the start on a fixed-size store.
    filled: AtomicUsize,
    /// The fill value of a growable store (`None` = fixed-size).
    pad: Option<Mutex<Pad<T>>>,
    /// Partition-derived physical layout (`None` = identity). When
    /// present, logical index `i` lives at physical slot
    /// `shard.phys(i)` and is protected by the lock at the same
    /// physical offset, so a shard's data and lock words are
    /// contiguous, cache-line-aligned slabs. The public API stays
    /// logical throughout.
    shard: Option<Arc<ShardMap>>,
}

// SAFETY: slots are only dereferenced through `TaskCtx`, which proves
// exclusive abstract-lock ownership of the slot before creating a
// reference, and tasks never hold references across lock release;
// slots past `filled` are written by the holder of `pad`'s lock alone
// and reachable by nobody. `T: Send` is required because values move
// between worker threads across rounds, and the pad value is cloned on
// whichever thread fills.
unsafe impl<T: Send> Sync for SpecStore<T> {}
// SAFETY: moving the store moves its values; `T: Send` suffices for
// the transfer (UnsafeCell wrappers impose no thread affinity).
unsafe impl<T: Send> Send for SpecStore<T> {}

impl<T> SpecStore<T> {
    /// A fixed-size store over fully initialised `slots`.
    fn eager(region: Region, slots: Vec<T>, live: usize, shard: Option<Arc<ShardMap>>) -> Self {
        SpecStore {
            region,
            filled: AtomicUsize::new(slots.len()),
            slots: slots
                .into_iter()
                .map(|v| UnsafeCell::new(MaybeUninit::new(v)))
                .collect(),
            live: AtomicUsize::new(live),
            pad: None,
            shard,
        }
    }

    /// Create a store over `region`, fully initialized by `init`
    /// (`init.len()` must equal the region length = capacity), with the
    /// first `live` slots considered allocated.
    ///
    /// # Panics
    /// Panics on a capacity mismatch or `live > capacity`.
    pub fn new(region: Region, init: Vec<T>, live: usize) -> Self {
        assert_eq!(
            init.len(),
            region.len(),
            "store must be initialized to full capacity"
        );
        assert!(live <= region.len());
        Self::eager(region, init, live, None)
    }

    /// Create a store laid out by `map`: logical element `i` of `init`
    /// is placed at physical slot `map.phys(i)`, alignment gaps are
    /// filled with clones of `pad` and never addressed. The region must
    /// span the padded capacity (allocate it with
    /// [`LockSpaceBuilder::region_aligned`](crate::lock::LockSpaceBuilder::region_aligned)
    /// so shard lock slabs keep their cache-line alignment).
    ///
    /// Sharded stores are fixed-size: [`SpecStore::alloc`] panics on
    /// them, because a fresh slot has no home shard.
    ///
    /// # Panics
    /// Panics unless `init.len() == map.len()` and
    /// `region.len() == map.padded_len()`.
    pub fn new_sharded(region: Region, init: Vec<T>, pad: T, map: Arc<ShardMap>) -> Self
    where
        T: Clone,
    {
        assert_eq!(init.len(), map.len(), "one value per logical element");
        assert_eq!(
            region.len(),
            map.padded_len(),
            "region must span the padded capacity"
        );
        let mut slots: Vec<T> = vec![pad; map.padded_len()];
        for (i, v) in init.into_iter().enumerate() {
            slots[map.phys(i)] = v;
        }
        let live = map.len();
        Self::eager(region, slots, live, Some(map))
    }

    /// Create with `live` slots cloned from `value` and the rest of the
    /// capacity filled with clones too.
    pub fn filled(region: Region, live: usize, value: T) -> Self
    where
        T: Clone,
    {
        let cap = region.len();
        Self::new(region, vec![value; cap], live)
    }

    /// Create from initial contents, with the region's remaining
    /// capacity reserved — not yet initialised — for [`SpecStore::alloc`],
    /// which fills it with clones of `pad` as the live prefix gets
    /// there (module docs).
    pub fn from_vec(region: Region, init: Vec<T>, pad: T) -> Self
    where
        T: Clone,
    {
        let (live, cap) = (init.len(), region.len());
        assert!(
            live <= cap,
            "initial contents ({live}) exceed capacity ({cap})"
        );
        let mut slots = Vec::with_capacity(cap);
        slots.extend(
            init.into_iter()
                .map(|v| UnsafeCell::new(MaybeUninit::new(v))),
        );
        // SAFETY: `cap` slots were reserved above, and a `MaybeUninit`
        // (in its `repr(transparent)` cell) is valid uninitialised.
        unsafe { slots.set_len(cap) };
        SpecStore {
            region,
            slots: slots.into_boxed_slice(),
            live: AtomicUsize::new(live),
            filled: AtomicUsize::new(live),
            pad: Some(Mutex::new(Pad {
                value: pad,
                clone: T::clone,
            })),
            shard: None,
        }
    }

    /// The lock region backing this store.
    pub fn region(&self) -> Region {
        self.region
    }

    /// Physical slot of logical index `i` (identity when unsharded).
    #[inline]
    fn phys(&self, i: usize) -> usize {
        match &self.shard {
            Some(m) => m.phys(i),
            None => i,
        }
    }

    /// Global lock index protecting logical slot `i`. This — not
    /// `region().lock_of(i)` — is the routing every lock/read/write
    /// must use: on a sharded store the protecting lock sits at the
    /// *physical* offset, inside the shard's lock slab.
    #[inline]
    pub fn lock_of(&self, i: usize) -> usize {
        self.region.lock_of(self.phys(i))
    }

    /// Capacity (total slots ever available).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of allocated (live-prefix) slots.
    pub fn len(&self) -> usize {
        self.live.load(Ordering::Acquire)
    }

    /// Is the live prefix empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocate a fresh slot, returning its index.
    ///
    /// # Panics
    /// Panics when capacity is exhausted, or on a sharded store (a
    /// fresh slot has no home shard; sharded stores are fixed-size).
    pub fn alloc(&self) -> usize {
        assert!(
            self.shard.is_none(),
            "alloc on a sharded SpecStore: sharded stores are fixed-size"
        );
        let mut i = self.live.load(Ordering::Acquire);
        loop {
            assert!(
                i < self.capacity(),
                "SpecStore capacity {} exhausted",
                self.capacity()
            );
            // Acquire pairs with `fill_past`'s Release store, and the
            // AcqRel publication below passes that on: whoever learns
            // `i < len()` also sees slot `i` initialised.
            if i >= self.filled.load(Ordering::Acquire) {
                self.fill_past(i);
                assert!(
                    i < self.filled.load(Ordering::Acquire),
                    "slot {i} is below the capacity and still not filled"
                );
            }
            match self
                .live
                .compare_exchange_weak(i, i + 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return i,
                Err(now) => i = now,
            }
        }
    }

    /// Initialise the next chunk of capacity unless somebody already
    /// moved the filled mark past slot `i` (`i < capacity`).
    #[cold]
    fn fill_past(&self, i: usize) {
        // A fixed-size store is filled to its capacity.
        let Some(pad) = &self.pad else { return };
        // A clone that panicked mid-chunk poisons the lock with the
        // mark unmoved and the pad untouched: the slots it had written
        // are still nobody's, and the next fill overwrites them.
        let pad = crate::faults::recover(pad.lock());
        let from = self.filled.load(Ordering::Acquire);
        if from > i {
            return;
        }
        let to = (from + FILL_CHUNK).min(self.capacity());
        for slot in &self.slots[from..to] {
            // SAFETY: slots at and past `filled` are reachable by no
            // accessor (each asserts its index below `live ≤ filled`),
            // and `filled` moves only under the lock held here, so
            // this thread is their one writer; `write` does not read
            // or drop the uninitialised destination.
            unsafe { (*slot.get()).write((pad.clone)(&pad.value)) };
        }
        self.filled.store(to, Ordering::Release);
    }

    /// Raw pointer to slot `i` (for `TaskCtx` only).
    ///
    /// # Panics
    /// Panics if `i` is beyond the live prefix.
    #[inline]
    pub(crate) fn slot_ptr(&self, i: usize) -> *mut T {
        assert!(i < self.len(), "slot {i} beyond live prefix {}", self.len());
        self.slots[self.phys(i)].get().cast()
    }

    /// Read slot `i` outside speculation (requires `&mut self`, i.e.
    /// quiescence — typically between rounds or after a run).
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        assert!(i < self.len());
        let p = self.phys(i);
        // SAFETY: a live slot is below the filled mark (on a sharded
        // store every physical slot is), hence initialised.
        unsafe { self.slots[p].get_mut().assume_init_mut() }
    }

    /// Immutable snapshot of the live prefix outside speculation, in
    /// logical order.
    pub fn snapshot(&mut self) -> Vec<T>
    where
        T: Clone,
    {
        self.iter_mut().map(|v| v.clone()).collect()
    }

    /// Iterate the live prefix outside speculation, in logical order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        let n = self.len();
        (0..n).map(move |i| {
            let ptr = self.slots[self.phys(i)].get();
            // SAFETY: `&mut self` grants exclusive access to every
            // slot, and `phys` is injective over `0..n`, so each slot
            // is yielded at most once — the returned `&mut T`s never
            // alias; live slots are initialised as in `get_mut`.
            unsafe { (*ptr).assume_init_mut() }
        })
    }
}

impl<T> Drop for SpecStore<T> {
    /// Drop what was initialised: the slab's first `filled` slots.
    fn drop(&mut self) {
        let filled = *self.filled.get_mut();
        for slot in &mut self.slots[..filled] {
            // SAFETY: slots below the filled mark are initialised, and
            // nothing reads them after this.
            unsafe { slot.get_mut().assume_init_drop() };
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for SpecStore<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpecStore")
            .field("capacity", &self.capacity())
            .field("live", &self.len())
            .finish()
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the store's own tests read its slabs raw"
)]
mod tests {
    use super::*;
    use crate::lock::LockSpace;

    fn region(cap: usize) -> Region {
        let mut b = LockSpace::builder();
        let r = b.region(cap);
        let _ = b.build();
        r
    }

    #[test]
    fn construction_variants() {
        let r = region(8);
        let mut s = SpecStore::filled(r, 3, 7u32);
        assert_eq!(s.capacity(), 8);
        assert_eq!(s.len(), 3);
        assert_eq!(*s.get_mut(2), 7);

        let r = region(4);
        let mut s = SpecStore::from_vec(r, vec![1, 2], 0);
        assert_eq!(s.len(), 2);
        assert_eq!(*s.get_mut(1), 2);
        assert_eq!(s.snapshot(), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "full capacity")]
    fn wrong_capacity_panics() {
        let r = region(4);
        let _ = SpecStore::new(r, vec![0u8; 3], 3);
    }

    #[test]
    fn alloc_extends_live_prefix() {
        let r = region(3);
        let s = SpecStore::filled(r, 1, 0i64);
        assert_eq!(s.alloc(), 1);
        assert_eq!(s.alloc(), 2);
        assert_eq!(s.len(), 3);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn alloc_past_capacity_panics() {
        let r = region(1);
        let s = SpecStore::filled(r, 1, 0u8);
        let _ = s.alloc();
    }

    #[test]
    #[should_panic(expected = "beyond live prefix")]
    fn slot_ptr_respects_live_prefix() {
        let r = region(4);
        let s = SpecStore::filled(r, 2, 0u8);
        let _ = s.slot_ptr(2);
    }

    #[test]
    fn iter_mut_covers_live_only() {
        let r = region(5);
        let mut s = SpecStore::from_vec(r, vec![1, 2, 3], 0);
        for v in s.iter_mut() {
            *v += 10;
        }
        assert_eq!(s.snapshot(), vec![11, 12, 13]);
    }

    #[test]
    fn sharded_store_is_logically_transparent() {
        // 6 elements alternating over 2 shards: the logical API must
        // behave exactly as if the store were unsharded.
        let parts = vec![0u32, 1, 0, 1, 0, 1];
        let map = std::sync::Arc::new(crate::shard::ShardMap::from_parts(&parts, 2));
        let r = region(map.padded_len());
        let mut s = SpecStore::new_sharded(r, vec![10, 11, 12, 13, 14, 15], -1, map.clone());
        assert_eq!(s.len(), 6);
        assert_eq!(s.capacity(), map.padded_len());
        assert_eq!(s.snapshot(), vec![10, 11, 12, 13, 14, 15]);
        for (i, v) in s.iter_mut().enumerate() {
            *v += i as i32;
        }
        assert_eq!(s.snapshot(), vec![10, 12, 14, 16, 18, 20]);
        *s.get_mut(5) = 99;
        assert_eq!(s.snapshot()[5], 99);
        // Lock routing follows the permutation: same-shard neighbours
        // map to adjacent physical locks, cross-shard ones do not.
        assert_eq!(s.lock_of(2), s.lock_of(0) + 1);
        assert_ne!(
            s.lock_of(0) / 64,
            s.lock_of(1) / 64,
            "shard slabs share a line"
        );
    }

    #[test]
    #[should_panic(expected = "fixed-size")]
    fn alloc_on_sharded_store_panics() {
        let parts = vec![0u32; 4];
        let map = std::sync::Arc::new(crate::shard::ShardMap::from_parts(&parts, 1));
        let r = region(map.padded_len());
        let s = SpecStore::new_sharded(r, vec![0u8; 4], 0, map);
        let _ = s.alloc();
    }

    #[test]
    fn growable_capacity_is_filled_as_the_live_prefix_reaches_it() {
        let cap = 2 * FILL_CHUNK + 100;
        let mut s = SpecStore::from_vec(region(cap), vec![1u32, 2, 3], 9);
        assert_eq!((s.len(), s.capacity()), (3, cap));
        assert_eq!(*s.filled.get_mut(), 3, "nothing filled at construction");
        assert_eq!(s.alloc(), 3);
        assert_eq!(*s.filled.get_mut(), 3 + FILL_CHUNK);
        assert_eq!(*s.get_mut(3), 9);
        for i in 4..cap {
            assert_eq!(s.alloc(), i);
        }
        assert_eq!(*s.filled.get_mut(), cap, "the last chunk is short");
        let snap = s.snapshot();
        assert_eq!(snap[..3], [1, 2, 3]);
        assert!(snap[3..].iter().all(|&v| v == 9) && snap.len() == cap);
    }

    #[test]
    #[should_panic(expected = "SpecStore capacity 5 exhausted")]
    fn growable_store_panics_when_exhausted() {
        let s = SpecStore::from_vec(region(5), vec![0u8; 3], 0);
        assert_eq!((s.alloc(), s.alloc()), (3, 4));
        let _ = s.alloc();
    }

    /// 8 threads × 10,000 allocations cross about twenty fills: every
    /// index is handed out once, and every slot below `len()` reads
    /// the pad the moment its index is known.
    #[test]
    fn concurrent_alloc_across_fill_chunks() {
        const THREADS: usize = 8;
        const EACH: usize = 10_000;
        let s = SpecStore::from_vec(region(THREADS * EACH + 7), vec![5u64; 7], 5);
        let start = std::sync::Barrier::new(THREADS);
        let mut all: Vec<usize> = std::thread::scope(|sc| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    sc.spawn(|| {
                        start.wait();
                        (0..EACH)
                            .map(|_| {
                                let i = s.alloc();
                                // SAFETY: the slot was handed to this
                                // thread alone a moment ago.
                                assert_eq!(unsafe { *s.slot_ptr(i) }, 5);
                                i
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        all.sort_unstable();
        assert!(all.iter().copied().eq(7..THREADS * EACH + 7));
        let mut s = s;
        assert_eq!(s.len(), s.capacity());
        assert!(s.iter_mut().all(|v| *v == 5));
    }

    /// A store dropped with a partly filled slab drops what was filled
    /// — the pad itself and its clones included — and nothing else.
    #[test]
    fn drop_covers_exactly_the_filled_slots() {
        use std::sync::atomic::AtomicIsize;
        struct Counted(Arc<AtomicIsize>);
        impl Counted {
            fn new(live: &Arc<AtomicIsize>) -> Self {
                live.fetch_add(1, Ordering::SeqCst);
                Counted(live.clone())
            }
        }
        impl Clone for Counted {
            fn clone(&self) -> Self {
                Counted::new(&self.0)
            }
        }
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let live = Arc::new(AtomicIsize::new(0));
        let init = vec![Counted::new(&live), Counted::new(&live)];
        let s = SpecStore::from_vec(region(3 * FILL_CHUNK), init, Counted::new(&live));
        assert_eq!(live.load(Ordering::SeqCst), 3, "two slots and the pad");
        s.alloc();
        s.alloc();
        assert_eq!(
            live.load(Ordering::SeqCst) as usize,
            3 + FILL_CHUNK,
            "one chunk of clones, whatever the capacity"
        );
        drop(s);
        assert_eq!(live.load(Ordering::SeqCst), 0, "leaked or dropped twice");
    }

    #[test]
    fn concurrent_alloc_is_unique() {
        let r = region(64);
        let s = SpecStore::filled(r, 0, 0u8);
        let mut all: Vec<usize> = std::thread::scope(|sc| {
            let handles: Vec<_> = (0..4)
                .map(|_| sc.spawn(|| (0..16).map(|_| s.alloc()).collect::<Vec<_>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 64);
    }
}
