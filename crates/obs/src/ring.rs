//! The lock-free single-producer single-consumer event ring.
//!
//! One ring per worker. The producer is the worker thread executing
//! tasks; the consumer is whoever holds the drain point — the round
//! barrier in round mode, the window flusher (serialized by the
//! window mutex) in pipelined mode. Under that usage the ring is a
//! classic SPSC queue: the producer owns `head` and `tick`, the
//! consumer owns `tail`, and the only cross-thread edges are the
//! producer's `Release` publish of `head` (paired with the consumer's
//! `Acquire` load) and the consumer's `Release` store of `tail`
//! (paired with the producer's `Acquire` load in the full check).
//!
//! When the ring is full, [`EventRing::record`] drops the event and
//! counts it; it never blocks, allocates, or spins. The logical tick
//! still advances on a drop, so a gap in a drained trace is visible
//! as a tick discontinuity, and the validator refuses logs with a
//! nonzero drop count.
//!
//! The orderings in this file are under the atomic-protocol contract
//! (`PROTOCOL.toml`); `xtask analyze` fails on any drift.

use crate::event::{Event, EventKind, TracedEvent, PLACEHOLDER};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fixed-capacity SPSC ring of [`Event`]s (see module docs).
///
/// Aligned to 128 bytes so adjacent rings in the recorder's
/// `Box<[EventRing]>` never share a cache line (or the adjacent line
/// a hardware prefetcher drags along): each worker hammers its own
/// `head`/`tick` on every record, and unpadded rings turn that into
/// cross-core ping-pong that costs more than the event write itself.
#[derive(Debug)]
#[repr(align(128))]
pub struct EventRing {
    buf: Box<[UnsafeCell<Event>]>,
    mask: u64,
    /// Next write index (monotone; producer-owned, published with
    /// `Release`).
    head: AtomicU64,
    /// Next read index (monotone; consumer-owned, published with
    /// `Release`).
    tail: AtomicU64,
    /// Producer-private logical clock. Atomic only so the ring stays
    /// `Sync`; accessed with single-owner load/store pairs.
    tick: AtomicU64,
    /// Events discarded because the ring was full.
    dropped: AtomicU64,
}

// SAFETY: the `UnsafeCell` slots are written only by the single
// producer at indices in `[tail, tail + capacity)` not yet published
// through `head`, and read only by the single consumer at indices in
// `[tail, head)` after an `Acquire` load of `head` synchronizes with
// the producer's `Release` store. With exactly one producer and at
// most one concurrent consumer (the usage contract of `record` /
// `drain_into`), no slot is ever accessed from two threads at once.
unsafe impl Sync for EventRing {}

impl EventRing {
    /// A ring holding `capacity` events, rounded up to a power of two
    /// (minimum 8).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(8);
        let buf: Vec<UnsafeCell<Event>> = (0..cap).map(|_| UnsafeCell::new(PLACEHOLDER)).collect();
        EventRing {
            buf: buf.into_boxed_slice(),
            mask: (cap - 1) as u64,
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            tick: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Record one event, stamped with the ring's next logical tick.
    /// Producer-side: must be called from at most one thread at a
    /// time. Never blocks; drops (and counts) the event if the ring
    /// is full.
    pub fn record(&self, kind: EventKind) {
        // Single-owner counter: plain load/store, no RMW needed.
        let tick = self.tick.load(Ordering::Relaxed);
        self.tick.store(tick.wrapping_add(1), Ordering::Relaxed);
        let head = self.head.load(Ordering::Relaxed);
        // Acquire pairs with the consumer's Release store of `tail`:
        // a freed slot is only reused after the consumer's reads of
        // it are ordered before this write.
        let tail = self.tail.load(Ordering::Acquire);
        if head.wrapping_sub(tail) > self.mask {
            let d = self.dropped.load(Ordering::Relaxed);
            self.dropped.store(d.wrapping_add(1), Ordering::Relaxed);
            return;
        }
        let idx = (head & self.mask) as usize;
        // SAFETY: `idx < buf.len()` by masking. Occupancy
        // `head - tail <= mask < capacity`, so this slot is outside
        // the consumer's readable window `[tail, head)`; the single
        // producer is the only thread touching it.
        unsafe {
            *self.buf[idx].get() = Event { tick, kind };
        }
        // Release publishes the slot write above to the consumer's
        // Acquire load of `head`.
        self.head.store(head.wrapping_add(1), Ordering::Release);
    }

    /// Drain every published event into `out`, attributing them to
    /// `track`. Consumer-side: must be called from at most one thread
    /// at a time (it may overlap the producer).
    pub fn drain_into(&self, track: u32, out: &mut Vec<TracedEvent>) {
        let tail = self.tail.load(Ordering::Relaxed);
        // Acquire pairs with the producer's Release store: slots in
        // `[tail, head)` are fully written before we read them.
        let head = self.head.load(Ordering::Acquire);
        // A `Range<u64>` iterator is `TrustedLen`, so this `extend`
        // reserves once and skips the per-element capacity check —
        // the drain is the serial part of the barrier, so the copy
        // loop has to be tight.
        out.extend((tail..head).map(|i| {
            let idx = (i & self.mask) as usize;
            // SAFETY: `idx < buf.len()` by masking, and `i` is in the
            // published window `[tail, head)`, which the producer no
            // longer writes (it only writes at or past `head`).
            let event = unsafe { *self.buf[idx].get() };
            TracedEvent { track, event }
        }));
        // Release hands the consumed slots back to the producer's
        // Acquire load in the full check.
        self.tail.store(head, Ordering::Release);
    }

    /// Rewind `head` and `tail` to slot 0 so the producer reuses the
    /// low slots instead of streaming through the whole buffer (a
    /// 32 Ki-event ring is ~1.5 MB — walking it monotonically costs a
    /// cache miss per record, which dwarfs the event write itself).
    /// The logical tick and the drop count are *not* reset: ticks
    /// stay monotone per ring, so drained traces are byte-identical
    /// with or without rewinds.
    ///
    /// # Safety
    ///
    /// The ring must be fully drained and quiescent: no concurrent
    /// `record` or `drain_into`, and the caller's synchronization
    /// must order this call after every producer write and before
    /// the producer's next `record` (the round barrier provides
    /// exactly this; pipelined mode never rewinds because its
    /// window flush overlaps the producers).
    // SAFETY: contract on the caller, stated in the doc above — a
    // fully drained, quiescent ring with external ordering around
    // the call.
    pub unsafe fn rewind(&self) {
        debug_assert_eq!(
            self.tail.load(Ordering::Relaxed),
            self.head.load(Ordering::Relaxed),
            "rewind of an undrained ring"
        );
        self.head.store(0, Ordering::Relaxed);
        self.tail.store(0, Ordering::Relaxed);
    }

    /// Published events currently waiting to be drained. Consumer- or
    /// coordinator-side: may race the producer, in which case it
    /// under-counts by the events still being published — fine for
    /// the drain-threshold heuristic it serves.
    pub fn len(&self) -> usize {
        let tail = self.tail.load(Ordering::Relaxed);
        // Acquire for symmetry with drain_into's window read.
        let head = self.head.load(Ordering::Acquire);
        head.wrapping_sub(tail) as usize
    }

    /// True when no published event is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CTL_TRACK;

    fn bump(old: u64) -> EventKind {
        EventKind::EpochBump { old, new: old + 1 }
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(EventRing::with_capacity(0).capacity(), 8);
        assert_eq!(EventRing::with_capacity(9).capacity(), 16);
        assert_eq!(EventRing::with_capacity(1 << 15).capacity(), 1 << 15);
    }

    #[test]
    fn records_drain_in_order_with_monotone_ticks() {
        let ring = EventRing::with_capacity(16);
        for i in 0..10 {
            ring.record(bump(i));
        }
        let mut out = Vec::new();
        ring.drain_into(3, &mut out);
        assert_eq!(out.len(), 10);
        for (i, te) in out.iter().enumerate() {
            assert_eq!(te.track, 3);
            assert_eq!(te.event.tick, i as u64);
            assert_eq!(te.event.kind, bump(i as u64));
        }
        // Drained: a second drain yields nothing.
        out.clear();
        ring.drain_into(3, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn full_ring_drops_and_counts_but_ticks_advance() {
        let ring = EventRing::with_capacity(8);
        for i in 0..12 {
            ring.record(bump(i));
        }
        assert_eq!(ring.dropped(), 4);
        let mut out = Vec::new();
        ring.drain_into(0, &mut out);
        assert_eq!(out.len(), 8);
        // After draining, the tick counter kept advancing past the
        // drops: the next record is stamped 12, making the gap
        // visible.
        ring.record(bump(99));
        out.clear();
        ring.drain_into(0, &mut out);
        assert_eq!(out[0].event.tick, 12);
    }

    #[test]
    fn wraps_across_many_drain_cycles() {
        let ring = EventRing::with_capacity(8);
        let mut out = Vec::new();
        for cycle in 0..50u64 {
            for i in 0..5 {
                ring.record(bump(cycle * 5 + i));
            }
            out.clear();
            ring.drain_into(0, &mut out);
            assert_eq!(out.len(), 5, "cycle {cycle}");
            assert_eq!(out[0].event.kind, bump(cycle * 5));
        }
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn concurrent_producer_consumer_loses_nothing() {
        let ring = EventRing::with_capacity(1 << 12);
        const N: u64 = 20_000;
        std::thread::scope(|s| {
            let producer = s.spawn(|| {
                for i in 0..N {
                    ring.record(bump(i));
                }
            });
            let mut next_tick = 0u64;
            let mut received = 0u64;
            let mut out = Vec::new();
            loop {
                let finished = producer.is_finished();
                out.clear();
                ring.drain_into(CTL_TRACK, &mut out);
                for te in &out {
                    // Ticks arrive strictly in order with no
                    // duplicates; a dropped event shows as a gap.
                    assert!(te.event.tick >= next_tick);
                    next_tick = te.event.tick + 1;
                    received += 1;
                }
                if finished && out.is_empty() {
                    break;
                }
                std::thread::yield_now();
            }
            producer.join().expect("producer");
            // Every recorded event was either delivered or counted as
            // dropped (the producer never blocks on a full ring).
            assert_eq!(received + ring.dropped(), N);
        });
    }
}
