//! The per-worker event buffer.
//!
//! One buffer per recording loop, owned by it: the executor keeps a
//! step's buffer, and each lane's, in the loop's task scratch. The
//! owner records into it on its own thread and hands it to the
//! [`Recorder`](crate::Recorder) only at points the runtime already
//! serializes — the step barrier, and a lane's batch retire under the
//! books lock. The buffer is a growable `Vec` behind a `RefCell`, so
//! it is not `Sync`: the compiler, not a usage contract, keeps a second
//! thread off it. It never drops an event; it grows instead, and a
//! drain keeps its capacity for the next batch.
//!
//! ```compile_fail
//! fn sync<T: Sync>() {}
//! sync::<optpar_obs::EventRing>();
//! ```

use crate::event::{Event, EventKind, TracedEvent};
use std::cell::{Cell, RefCell};

/// A single-owner buffer of [`EventKind`]s awaiting a drain (module
/// docs).
#[derive(Debug, Default)]
pub struct EventRing {
    kinds: RefCell<Vec<EventKind>>,
    /// Events [`EventRing::drain_into`] has stamped so far: the tick
    /// of its next event.
    drained: Cell<u64>,
}

impl EventRing {
    /// An empty buffer with room for `capacity` events before it
    /// first grows.
    pub fn with_capacity(capacity: usize) -> Self {
        EventRing {
            kinds: RefCell::new(Vec::with_capacity(capacity)),
            drained: Cell::new(0),
        }
    }

    /// Record one event: a `Vec` push (inlined into the recording
    /// loop, which lives in another crate).
    #[inline]
    pub fn record(&self, kind: EventKind) {
        self.kinds.borrow_mut().push(kind);
    }

    /// Move every recorded event into `out` on `track`, stamped with
    /// this buffer's own running tick. (The recorder stamps with its
    /// per-track tick instead, [`Recorder::append`].)
    ///
    /// [`Recorder::append`]: crate::Recorder::append
    pub fn drain_into(&self, track: u32, out: &mut Vec<TracedEvent>) {
        self.drained
            .set(self.stamp_into(track, self.drained.get(), out));
    }

    /// Move every recorded event into `out` on `track`, ticks counting
    /// up from `first`; returns the tick after the last one.
    pub(crate) fn stamp_into(&self, track: u32, first: u64, out: &mut Vec<TracedEvent>) -> u64 {
        let mut kinds = self.kinds.borrow_mut();
        let end = first + kinds.len() as u64;
        // Copy, then clear: the same copy through `drain(..)` made a
        // record-and-drain cycle cost three times as much.
        out.extend(kinds.iter().zip(first..).map(|(&kind, tick)| TracedEvent {
            track,
            event: Event { tick, kind },
        }));
        kinds.clear();
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn bump(old: u64) -> EventKind {
        EventKind::EpochBump { old, new: old + 1 }
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
    fn records_past_the_initial_capacity_are_kept() {
        let ring = EventRing::with_capacity(8);
        for i in 0..12 {
            ring.record(bump(i));
        }
        let mut out = Vec::new();
        ring.drain_into(0, &mut out);
        let kinds: Vec<EventKind> = out.iter().map(|te| te.event.kind).collect();
        assert_eq!(kinds, (0..12).map(bump).collect::<Vec<_>>());
        // The next drain's ticks run on from this one's.
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
            assert_eq!(out[0].event.tick, cycle * 5);
        }
    }

    #[test]
    fn concurrent_producer_consumer_loses_nothing() {
        // Each producer owns its buffer on its own thread and hands it
        // to the shared recorder at every "retire"; the recorder is the
        // one consumer, taking appends from both threads at once.
        const N: u64 = 20_000;
        let rec = Recorder::new();
        std::thread::scope(|s| {
            for track in 0..2u32 {
                let rec = &rec;
                s.spawn(move || {
                    let ring = EventRing::default();
                    for i in 0..N {
                        ring.record(bump(i));
                        if i % 64 == 63 {
                            rec.append(track, &ring);
                        }
                    }
                    rec.append(track, &ring);
                });
            }
        });
        let log = rec.take_log();
        for track in 0..2 {
            let events: Vec<(u64, EventKind)> = log
                .events
                .iter()
                .filter(|te| te.track == track)
                .map(|te| (te.event.tick, te.event.kind))
                .collect();
            let want: Vec<(u64, EventKind)> = (0..N).map(|i| (i, bump(i))).collect();
            assert!(events == want, "track {track} lost or reordered events");
        }
    }
}
