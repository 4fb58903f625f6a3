//! The [`Recorder`]: per-worker rings plus the controller track and
//! the drained, ordered [`EventLog`].
//!
//! The recorder owns one [`EventRing`] per worker and a mutex-guarded
//! aggregate log. Workers only ever touch their own ring
//! ([`Recorder::ring`]) — the hot path never sees the mutex. All
//! mutex-taking methods run at points that are already serialized in
//! the runtime: the round barrier (round mode) or the window flusher
//! (pipelined mode). Like every lock the runtime can
//! reach, the log mutex recovers from poisoning — the log is a plain
//! append buffer, valid at every intermediate state.
//!
//! The barrier drain is *amortized*: a ring is only scanned at the
//! barrier once it is ≥ 1/8 full (or 32 rounds have passed), so the
//! barrier's serial section stops paying a per-round sweep over every
//! ring. Drained worker events are staged in per-epoch buckets and
//! spliced back into their round's segment when the log is assembled
//! (`snapshot`/`take_log`) — the assembled stream is identical to the
//! old drain-every-round order, and the validator's segment rules
//! hold unchanged. Epochs are monotone within each ring's stream, so
//! the splice preserves per-track tick order by construction.
//!
//! Wall-clock time never enters the event stream. `round_begin` /
//! `round_end` bracket each round with an `Instant` pair whose
//! nanosecond delta goes to [`EventLog::round_nanos`], a side channel
//! for the round-latency histogram; the events themselves carry only
//! logical ticks.

use crate::event::{Event, EventKind, RoundTotals, TracedEvent, CTL_TRACK};
use crate::ring::EventRing;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Drain a ring at the barrier once it holds at least
/// `capacity / DRAIN_OCCUPANCY_DIV` events (amortizing the barrier's
/// serial drain over several rounds instead of paying the scan every
/// round)...
const DRAIN_OCCUPANCY_DIV: usize = 8;
/// ...but never let a trickle sit longer than this many rounds, so a
/// mostly-idle worker's events still assemble near their round.
const DRAIN_DEADLINE_ROUNDS: u32 = 32;

/// Observability knobs.
#[derive(Clone, Copy, Debug)]
pub struct ObsConfig {
    /// Per-worker ring capacity in events (rounded up to a power of
    /// two). Must hold one full round of one worker's events between
    /// drains; the default comfortably fits `m_max = 1024` tasks'
    /// worth on a single ring.
    pub ring_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            ring_capacity: 1 << 15,
        }
    }
}

/// The drained, ordered event stream plus its side channels.
#[derive(Clone, Debug, Default)]
pub struct EventLog {
    /// Events in drain order: within one track, tick order; across
    /// tracks, interleaved at drain boundaries.
    pub events: Vec<TracedEvent>,
    /// Total events dropped by full rings (validator requires 0).
    pub dropped: u64,
    /// Wall-clock nanoseconds per round, side channel for the
    /// round-latency histogram; never part of the event stream.
    pub round_nanos: Vec<u64>,
}

#[derive(Debug, Default)]
struct Inner {
    /// Until assembly, `log.events` holds only controller-track
    /// events; worker events wait in `staged` buckets and are spliced
    /// in at [`Inner::assemble`] time.
    log: EventLog,
    ctl_tick: u64,
    round_started: Option<Instant>,
    /// Drained worker events bucketed by the epoch they ran under
    /// (derived per ring from `TaskLaunch`/`LockAcquire` payloads).
    staged: BTreeMap<u64, Vec<TracedEvent>>,
    /// `(index into log.events, epoch)`: where each non-empty round's
    /// worker bucket belongs — just before that round's `Audit`/
    /// `RoundEnd`. Indices are recorded in increasing order.
    splices: Vec<(usize, u64)>,
    /// Last epoch seen in each ring's stream (epochs are monotone per
    /// ring: a worker finishes round `n` before it runs round `n+1`).
    ring_epoch: Vec<u64>,
    /// Rounds since each ring was last drained, for the deadline.
    ring_age: Vec<u32>,
}

impl Inner {
    /// Drain one ring into the staged buckets, assigning each event
    /// the epoch its round ran under.
    fn stage_ring(&mut self, w: usize, ring: &EventRing) {
        let mut tmp = Vec::with_capacity(ring.len());
        ring.drain_into(w as u32, &mut tmp);
        for te in tmp {
            if let EventKind::TaskLaunch { epoch, .. } | EventKind::LockAcquire { epoch, .. } =
                te.event.kind
            {
                self.ring_epoch[w] = epoch;
            }
            self.staged.entry(self.ring_epoch[w]).or_default().push(te);
        }
        self.ring_age[w] = 0;
    }

    /// Splice every staged bucket into the controller stream at its
    /// recorded round position; buckets with no recorded round (the
    /// barrier-free modes, which never emit `RoundEnd`) append at the
    /// end in epoch order. Callers must have staged every ring first,
    /// so no worker event is left behind in a ring.
    fn assemble(&mut self) {
        if self.splices.is_empty() && self.staged.is_empty() {
            return;
        }
        let ctl = std::mem::take(&mut self.log.events);
        let mut staged = std::mem::take(&mut self.staged);
        let splices = std::mem::take(&mut self.splices);
        let total: usize = staged.values().map(Vec::len).sum();
        let mut out = Vec::with_capacity(ctl.len() + total);
        let mut si = 0;
        for (i, te) in ctl.into_iter().enumerate() {
            while si < splices.len() && splices[si].0 == i {
                if let Some(bucket) = staged.remove(&splices[si].1) {
                    out.extend(bucket);
                }
                si += 1;
            }
            out.push(te);
        }
        while si < splices.len() {
            if let Some(bucket) = staged.remove(&splices[si].1) {
                out.extend(bucket);
            }
            si += 1;
        }
        for (_, bucket) in staged {
            out.extend(bucket);
        }
        self.log.events = out;
    }
}

/// Per-worker rings + controller track + aggregate log (module docs).
#[derive(Debug)]
pub struct Recorder {
    rings: Box<[EventRing]>,
    inner: Mutex<Inner>,
}

/// Recover the inner state even if a panicking round poisoned the
/// mutex: the log is a plain append buffer and observability must
/// keep working through fault containment.
fn recover<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

impl Recorder {
    /// A recorder with one ring per worker (at least one).
    pub fn new(workers: usize, cfg: ObsConfig) -> Self {
        let rings: Vec<EventRing> = (0..workers.max(1))
            .map(|_| EventRing::with_capacity(cfg.ring_capacity))
            .collect();
        let n = workers.max(1);
        Recorder {
            rings: rings.into_boxed_slice(),
            inner: Mutex::new(Inner {
                ring_epoch: vec![0; n],
                ring_age: vec![0; n],
                ..Inner::default()
            }),
        }
    }

    /// Worker `w`'s ring, if `w` is in range. The returned reference
    /// is the worker-side probe: `record` on it is lock-free.
    pub fn ring(&self, w: usize) -> Option<&EventRing> {
        self.rings.get(w)
    }

    /// Number of worker rings.
    pub fn workers(&self) -> usize {
        self.rings.len()
    }

    fn ctl_emit(inner: &mut Inner, kind: EventKind) {
        let tick = inner.ctl_tick;
        inner.ctl_tick = inner.ctl_tick.wrapping_add(1);
        inner.log.events.push(TracedEvent {
            track: CTL_TRACK,
            event: Event { tick, kind },
        });
    }

    /// Stage-drain every ring (no rewind — safe while producers run)
    /// and refresh the cumulative drop count.
    fn stage_all(&self, inner: &mut Inner) {
        let mut dropped = 0u64;
        for (w, ring) in self.rings.iter().enumerate() {
            inner.stage_ring(w, ring);
            dropped = dropped.wrapping_add(ring.dropped());
        }
        inner.log.dropped = dropped;
    }

    /// Barrier-side amortized drain: stage only the rings that crossed
    /// the occupancy threshold or the round deadline, and rewind those
    /// so producers keep reusing the cache-resident low slots. Callers
    /// must hold the quiescence [`EventRing::rewind`] requires (the
    /// round barrier does).
    fn stage_rings_quiescent_amortized(&self, inner: &mut Inner) {
        let mut dropped = 0u64;
        for (w, ring) in self.rings.iter().enumerate() {
            inner.ring_age[w] += 1;
            let threshold = (ring.capacity() / DRAIN_OCCUPANCY_DIV).max(1);
            if ring.len() >= threshold || inner.ring_age[w] >= DRAIN_DEADLINE_ROUNDS {
                inner.stage_ring(w, ring);
                // SAFETY: the caller guarantees all producers are
                // parked (round barrier) and the stage above emptied
                // the ring; the barrier's own synchronization orders
                // the rewind between this round's records and the
                // next round's.
                unsafe { ring.rewind() };
            }
            dropped = dropped.wrapping_add(ring.dropped());
        }
        inner.log.dropped = dropped;
    }

    /// Round prologue: emit `RoundBegin` on the controller track and
    /// start the round's wall clock.
    pub fn round_begin(&self, epoch: u64, m: u64) {
        let mut inner = recover(self.inner.lock());
        Self::ctl_emit(&mut inner, EventKind::RoundBegin { epoch, m });
        inner.round_started = Some(Instant::now());
    }

    /// A sampled task hit the retry budget during batch draw.
    pub fn retry_aged(&self, slot: u32, retries: u32) {
        let mut inner = recover(self.inner.lock());
        Self::ctl_emit(&mut inner, EventKind::RetryAged { slot, retries });
    }

    /// Round barrier: drain every worker ring into the log, then emit
    /// `Audit` (if the checker found anything) and `RoundEnd`, and
    /// close the round's wall clock. Must be called with every worker
    /// parked at the barrier — the drain also rewinds the rings.
    pub fn round_end(&self, epoch: u64, m: u64, totals: RoundTotals, findings: u64) {
        let mut inner = recover(self.inner.lock());
        self.stage_rings_quiescent_amortized(&mut inner);
        // Mark where this round's worker bucket belongs in the final
        // stream: just before its Audit/RoundEnd. Empty rounds record
        // no splice — they launch nothing AND reuse the epoch of the
        // following non-empty round (no bump), which must own the
        // bucket for that key.
        if totals.launched > 0 {
            let at = inner.log.events.len();
            inner.splices.push((at, epoch));
        }
        if findings > 0 {
            Self::ctl_emit(&mut inner, EventKind::Audit { findings });
        }
        Self::ctl_emit(&mut inner, EventKind::RoundEnd { epoch, m, totals });
        let nanos = inner
            .round_started
            .take()
            .map(|t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        inner.log.round_nanos.push(nanos);
    }

    /// The barrier advanced the lock-space epoch.
    pub fn epoch_bump(&self, old: u64, new: u64) {
        let mut inner = recover(self.inner.lock());
        Self::ctl_emit(&mut inner, EventKind::EpochBump { old, new });
    }

    /// Controller state after it observed a round.
    pub fn controller(&self, m: u64, r: f64, rho: Option<f64>) {
        let mut inner = recover(self.inner.lock());
        Self::ctl_emit(
            &mut inner,
            EventKind::Controller {
                m,
                r_bits: r.to_bits(),
                rho_bits: rho.unwrap_or(f64::NAN).to_bits(),
            },
        );
    }

    /// A pipelined controller window closed (controller track).
    pub fn window_advance(&self, completions: u64, inflight: u64, target: u64) {
        let mut inner = recover(self.inner.lock());
        Self::ctl_emit(
            &mut inner,
            EventKind::WindowAdvance {
                completions,
                inflight,
                target,
            },
        );
    }

    /// The job service admitted a job (controller track; the service
    /// has no worker rings of its own).
    pub fn job_admit(&self, job: u64, priority: u64) {
        let mut inner = recover(self.inner.lock());
        Self::ctl_emit(&mut inner, EventKind::JobAdmit { job, priority });
    }

    /// The job service shed a submission; `code` is the rejection
    /// reason (1 backpressure, 2 overload, 3 expired).
    pub fn job_reject(&self, job: u64, code: u8) {
        let mut inner = recover(self.inner.lock());
        Self::ctl_emit(&mut inner, EventKind::JobReject { job, code });
    }

    /// A job's deadline expired at a round boundary.
    pub fn job_deadline(&self, job: u64) {
        let mut inner = recover(self.inner.lock());
        Self::ctl_emit(&mut inner, EventKind::JobDeadline { job });
    }

    /// A job was cancelled or wedge-detached.
    pub fn job_cancel(&self, job: u64) {
        let mut inner = recover(self.inner.lock());
        Self::ctl_emit(&mut inner, EventKind::JobCancel { job });
    }

    /// A fault-killed job attempt was granted a retry.
    pub fn job_retry(&self, job: u64, attempt: u32) {
        let mut inner = recover(self.inner.lock());
        Self::ctl_emit(&mut inner, EventKind::JobRetry { job, attempt });
    }

    /// Drain every worker ring into the staged log without emitting
    /// any controller event — the barrier-free modes' window flush,
    /// and the final sweep after a run.
    pub fn drain_workers(&self) {
        let mut inner = recover(self.inner.lock());
        self.stage_all(&mut inner);
    }

    /// Drain and clone the accumulated log, leaving it in place.
    pub fn snapshot(&self) -> EventLog {
        let mut inner = recover(self.inner.lock());
        self.stage_all(&mut inner);
        inner.assemble();
        inner.log.clone()
    }

    /// Drain and take the accumulated log, resetting the recorder's
    /// buffer (ring ticks and drop counts are not reset).
    pub fn take_log(&self) -> EventLog {
        let mut inner = recover(self.inner.lock());
        self.stage_all(&mut inner);
        inner.assemble();
        std::mem::take(&mut inner.log)
    }

    /// Total events dropped by full rings so far.
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(|r| r.dropped()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_cycle_orders_ctl_and_worker_events() {
        let rec = Recorder::new(2, ObsConfig { ring_capacity: 64 });
        rec.round_begin(7, 4);
        for w in 0..2u32 {
            let ring = rec.ring(w as usize).expect("ring");
            ring.record(EventKind::TaskLaunch { slot: w, epoch: 7 });
            ring.record(EventKind::TaskCommit {
                slot: w,
                acquires: 1,
                spawned: 0,
            });
        }
        rec.round_end(
            7,
            4,
            RoundTotals {
                launched: 2,
                committed: 2,
                ..RoundTotals::default()
            },
            0,
        );
        rec.epoch_bump(7, 8);
        let log = rec.snapshot();
        assert_eq!(log.dropped, 0);
        assert_eq!(log.round_nanos.len(), 1);
        let kinds: Vec<&str> = log.events.iter().map(|e| e.event.kind.label()).collect();
        assert_eq!(
            kinds,
            [
                "round_begin",
                "task_launch",
                "task_commit",
                "task_launch",
                "task_commit",
                "round_end",
                "epoch_bump",
            ]
        );
        // Worker events carry their ring's track id.
        assert_eq!(log.events[1].track, 0);
        assert_eq!(log.events[3].track, 1);
        assert_eq!(log.events[0].track, CTL_TRACK);
    }

    #[test]
    fn amortized_drain_assembles_events_into_their_rounds() {
        // Capacity 1 << 10 → drain threshold 128: two tiny rounds
        // never trip it, so no ring is drained at either barrier.
        // Assembly at take_log must still splice each round's worker
        // events inside its own segment, in the exact order the old
        // drain-every-round recorder produced.
        let rec = Recorder::new(
            1,
            ObsConfig {
                ring_capacity: 1 << 10,
            },
        );
        for round in 0..2u64 {
            rec.round_begin(round, 1);
            let ring = rec.ring(0).expect("ring");
            ring.record(EventKind::TaskLaunch {
                slot: 0,
                epoch: round,
            });
            ring.record(EventKind::TaskCommit {
                slot: 0,
                acquires: 0,
                spawned: 0,
            });
            rec.round_end(
                round,
                1,
                RoundTotals {
                    launched: 1,
                    committed: 1,
                    ..RoundTotals::default()
                },
                0,
            );
            rec.epoch_bump(round, round + 1);
        }
        let log = rec.take_log();
        let kinds: Vec<&str> = log.events.iter().map(|e| e.event.kind.label()).collect();
        assert_eq!(
            kinds,
            [
                "round_begin",
                "task_launch",
                "task_commit",
                "round_end",
                "epoch_bump",
                "round_begin",
                "task_launch",
                "task_commit",
                "round_end",
                "epoch_bump",
            ]
        );
    }

    #[test]
    fn window_advance_lands_on_the_controller_track() {
        let rec = Recorder::new(1, ObsConfig::default());
        rec.window_advance(128, 6, 8);
        let log = rec.snapshot();
        assert_eq!(log.events[0].track, CTL_TRACK);
        assert_eq!(
            log.events[0].event.kind,
            EventKind::WindowAdvance {
                completions: 128,
                inflight: 6,
                target: 8
            }
        );
    }

    #[test]
    fn audit_event_emitted_only_with_findings() {
        let rec = Recorder::new(1, ObsConfig::default());
        rec.round_begin(0, 1);
        rec.round_end(0, 1, RoundTotals::default(), 0);
        rec.round_begin(1, 1);
        rec.round_end(1, 1, RoundTotals::default(), 3);
        let log = rec.take_log();
        let audits: Vec<u64> = log
            .events
            .iter()
            .filter_map(|e| match e.event.kind {
                EventKind::Audit { findings } => Some(findings),
                _ => None,
            })
            .collect();
        assert_eq!(audits, [3]);
        // take_log resets the buffer.
        assert!(rec.snapshot().events.is_empty());
    }

    #[test]
    fn controller_event_round_trips_float_bits() {
        let rec = Recorder::new(1, ObsConfig::default());
        rec.controller(8, 0.25, Some(0.3));
        rec.controller(8, 0.0, None);
        let log = rec.snapshot();
        match log.events[0].event.kind {
            EventKind::Controller {
                m,
                r_bits,
                rho_bits,
            } => {
                assert_eq!(m, 8);
                assert_eq!(f64::from_bits(r_bits), 0.25);
                assert_eq!(f64::from_bits(rho_bits), 0.3);
            }
            other => panic!("unexpected {other:?}"),
        }
        match log.events[1].event.kind {
            EventKind::Controller { rho_bits, .. } => {
                assert!(f64::from_bits(rho_bits).is_nan());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn out_of_range_ring_is_none() {
        let rec = Recorder::new(2, ObsConfig::default());
        assert!(rec.ring(1).is_some());
        assert!(rec.ring(2).is_none());
        assert_eq!(rec.workers(), 2);
    }
}
