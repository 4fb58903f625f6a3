//! The [`Recorder`]: the controller track and the ordered
//! [`EventLog`] that worker buffers are appended to.
//!
//! The recorder owns no worker buffer. Each recording loop owns its
//! [`EventRing`] and hands it over with [`Recorder::append`] at a point
//! the runtime already serializes: the step barrier, just before the
//! round's `RoundEnd`, and a lane's batch retire, under the books lock
//! that also orders the window flush's controller events. So each
//! round's worker events sit inside its own segment, and a lane's
//! batch lands whole, ahead of any window its retire closes.
//!
//! The recorder stamps every track's ticks as it appends, from one
//! counter per track, so a track stays in tick order however many
//! buffers it has had — a lane buffer made fresh for each run, a step
//! buffer dropped when its step unwound. The log sits behind a mutex
//! that, like every lock the runtime can reach, recovers from
//! poisoning: it is a plain append buffer, valid at every intermediate
//! state.
//!
//! The recorder reads no clock: events carry only logical ticks.

use crate::event::{Event, EventKind, RoundTotals, TracedEvent, CTL_TRACK};
use crate::ring::EventRing;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The drained, ordered event stream.
#[derive(Clone, Debug, Default)]
pub struct EventLog {
    /// Events in append order: within one track, tick order; across
    /// tracks, interleaved at hand-over boundaries.
    pub events: Vec<TracedEvent>,
}

#[derive(Debug, Default)]
struct Inner {
    log: EventLog,
    /// Each track's next tick, the controller track's included.
    ticks: BTreeMap<u32, u64>,
}

/// The controller track plus the aggregate log (module docs).
#[derive(Debug, Default)]
pub struct Recorder {
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
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Move every event `ring` holds to the end of the log on worker
    /// track `track`, stamped with that track's next ticks.
    pub fn append(&self, track: u32, ring: &EventRing) {
        let mut inner = recover(self.inner.lock());
        let Inner { log, ticks } = &mut *inner;
        let tick = ticks.entry(track).or_default();
        *tick = ring.stamp_into(track, *tick, &mut log.events);
    }

    fn ctl_emit(inner: &mut Inner, kind: EventKind) {
        let next = inner.ticks.entry(CTL_TRACK).or_default();
        let tick = *next;
        *next += 1;
        inner.log.events.push(TracedEvent {
            track: CTL_TRACK,
            event: Event { tick, kind },
        });
    }

    /// Round prologue: emit `RoundBegin` on the controller track.
    pub fn round_begin(&self, epoch: u64, m: u64) {
        let mut inner = recover(self.inner.lock());
        Self::ctl_emit(&mut inner, EventKind::RoundBegin { epoch, m });
    }

    /// A sampled task hit the retry budget during batch draw.
    pub fn retry_aged(&self, slot: u32, retries: u32) {
        let mut inner = recover(self.inner.lock());
        Self::ctl_emit(&mut inner, EventKind::RetryAged { slot, retries });
    }

    /// Round barrier: emit `RoundEnd`. The step appends its buffer
    /// first ([`Recorder::append`]).
    pub fn round_end(&self, epoch: u64, m: u64, totals: RoundTotals) {
        let mut inner = recover(self.inner.lock());
        Self::ctl_emit(&mut inner, EventKind::RoundEnd { epoch, m, totals });
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
    /// records no worker track).
    pub fn job_admit(&self, job: u64, priority: u64) {
        let mut inner = recover(self.inner.lock());
        Self::ctl_emit(&mut inner, EventKind::JobAdmit { job, priority });
    }

    /// The job service shed a submission; `code` is the rejection
    /// reason (1 backpressure, 3 expired).
    pub fn job_reject(&self, job: u64, code: u8) {
        let mut inner = recover(self.inner.lock());
        Self::ctl_emit(&mut inner, EventKind::JobReject { job, code });
    }

    /// A job's deadline expired at a round boundary.
    pub fn job_deadline(&self, job: u64) {
        let mut inner = recover(self.inner.lock());
        Self::ctl_emit(&mut inner, EventKind::JobDeadline { job });
    }

    /// A job was cancelled by its client.
    pub fn job_cancel(&self, job: u64) {
        let mut inner = recover(self.inner.lock());
        Self::ctl_emit(&mut inner, EventKind::JobCancel { job });
    }

    /// Clone the accumulated log, leaving it in place.
    pub fn snapshot(&self) -> EventLog {
        recover(self.inner.lock()).log.clone()
    }

    /// Take the accumulated log, emptying the recorder's (track ticks
    /// are not reset).
    pub fn take_log(&self) -> EventLog {
        std::mem::take(&mut recover(self.inner.lock()).log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn launch(slot: u32, epoch: u64) -> EventKind {
        EventKind::TaskLaunch { slot, epoch }
    }

    #[test]
    fn round_cycle_orders_ctl_and_worker_events() {
        let rec = Recorder::new();
        rec.round_begin(7, 4);
        for w in 0..2u32 {
            let ring = EventRing::default();
            ring.record(launch(w, 7));
            ring.record(EventKind::TaskCommit {
                slot: w,
                acquires: 1,
                spawned: 0,
            });
            rec.append(w, &ring);
        }
        rec.round_end(
            7,
            4,
            RoundTotals {
                launched: 2,
                committed: 2,
                ..RoundTotals::default()
            },
        );
        rec.epoch_bump(7, 8);
        let log = rec.snapshot();
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
        // Worker events carry the track they were appended on.
        assert_eq!(log.events[1].track, 0);
        assert_eq!(log.events[3].track, 1);
        assert_eq!(log.events[0].track, CTL_TRACK);
    }

    #[test]
    fn take_log_returns_each_round_in_its_segment_and_resets() {
        // Two rounds from one buffer: each round's worker events land
        // between its own RoundBegin and RoundEnd, ahead of the epoch
        // bump, and take_log empties the log.
        let rec = Recorder::new();
        let ring = EventRing::default();
        for round in 0..2u64 {
            rec.round_begin(round, 1);
            ring.record(launch(0, round));
            ring.record(EventKind::TaskCommit {
                slot: 0,
                acquires: 0,
                spawned: 0,
            });
            rec.append(0, &ring);
            rec.round_end(
                round,
                1,
                RoundTotals {
                    launched: 1,
                    committed: 1,
                    ..RoundTotals::default()
                },
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
        // take_log resets the log.
        assert!(rec.snapshot().events.is_empty());
    }

    #[test]
    fn appends_of_different_buffers_on_one_track_keep_ticks_increasing() {
        // A lane's buffer is made fresh for each run and a step's is
        // dropped when the step unwinds: a track's next buffer starts
        // from nothing, and its ticks must still run on.
        let rec = Recorder::new();
        let first = EventRing::default();
        first.record(launch(0, 0));
        first.record(launch(1, 0));
        rec.append(0, &first);
        let second = EventRing::default();
        second.record(launch(2, 1));
        rec.append(0, &second);
        // An append that brings nothing takes no tick.
        rec.append(0, &EventRing::default());
        first.record(launch(3, 2));
        rec.append(0, &first);
        // Another track counts from its own zero.
        second.record(launch(4, 2));
        rec.append(1, &second);
        let log = rec.take_log();
        let on = |track: u32| -> Vec<(u64, EventKind)> {
            log.events
                .iter()
                .filter(|e| e.track == track)
                .map(|e| (e.event.tick, e.event.kind))
                .collect()
        };
        assert_eq!(
            on(0),
            [
                (0, launch(0, 0)),
                (1, launch(1, 0)),
                (2, launch(2, 1)),
                (3, launch(3, 2))
            ]
        );
        assert_eq!(on(1), [(0, launch(4, 2))]);
    }

    #[test]
    fn a_recorder_without_workers_keeps_the_controller_track() {
        let rec = Recorder::new();
        rec.job_admit(3, 2);
        let log = rec.take_log();
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.events[0].track, CTL_TRACK);
        assert_eq!(
            log.events[0].event.kind,
            EventKind::JobAdmit {
                job: 3,
                priority: 2
            }
        );
    }

    #[test]
    fn window_advance_lands_on_the_controller_track() {
        let rec = Recorder::new();
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
    fn controller_event_round_trips_float_bits() {
        let rec = Recorder::new();
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
}
