//! The trace validator: recompute round accounting from raw events
//! and cross-check it against the executor's own `RoundStats`.
//!
//! The executor computes `RoundStats` by merging per-task results at
//! the barrier; the event stream records the same history one event
//! at a time from inside the tasks. [`validate`] re-derives the
//! per-round totals from the events alone and demands they match the
//! stats bit-for-bit (including the recomputed conflict ratio), which
//! makes the trace a second, independent witness of executor
//! correctness: a lost task, a double-counted commit, a task
//! launched under another round's epoch, or a non-monotone epoch all
//! surface as validation errors even if `RoundStats`
//! happens to look plausible.

use crate::event::{EventKind, CTL_TRACK};
use crate::recorder::EventLog;
use std::collections::BTreeMap;

/// Per-round expectations, built from the executor's `RoundStats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundCheck {
    /// Allocation `m` the round ran with.
    pub m: u64,
    /// Tasks launched.
    pub launched: u64,
    /// Tasks committed.
    pub committed: u64,
    /// Tasks aborted.
    pub aborted: u64,
    /// Tasks faulted.
    pub faulted: u64,
    /// Tasks spawned by commits.
    pub spawned: u64,
    /// `RoundStats::conflict_ratio()` as IEEE-754 bits — the
    /// validator recomputes `aborted / launched` from events and
    /// requires bit equality.
    pub conflict_ratio_bits: u64,
}

/// Summary of a successful validation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ValidationReport {
    /// Rounds seen (== checks supplied).
    pub rounds: usize,
    /// Total events examined.
    pub events: usize,
    /// Abstract locks acquired across all rounds, summed from the
    /// `acquires` payloads of `TaskCommit`, `TaskAbort` and
    /// `TaskFault` — the executor's `Σ RoundStats::lock_acquires`.
    pub lock_acquires: u64,
}

#[derive(Default)]
struct Segment {
    epoch: u64,
    m: u64,
    launched: u64,
    committed: u64,
    aborted: u64,
    faulted: u64,
    spawned: u64,
    end_totals: Option<crate::event::RoundTotals>,
}

/// Cross-check a drained log against per-round expectations.
///
/// Checked invariants:
/// - ticks are strictly monotone per track;
/// - `RoundBegin`/`RoundEnd` pair up, one segment per supplied
///   [`RoundCheck`], with matching `m`;
/// - worker events all fall inside a segment; `TaskLaunch` epochs
///   equal their segment's `RoundBegin` epoch (no task straddles a
///   round boundary);
/// - per-segment event counts equal both the supplied check and the
///   `RoundEnd` totals, and `launched = committed + aborted +
///   faulted`;
/// - the conflict ratio recomputed from events is bit-equal to the
///   executor's;
/// - epoch bumps are strictly monotone `+1` steps, consecutive
///   across the log.
///
/// Returns every violation found, not just the first.
pub fn validate(log: &EventLog, checks: &[RoundCheck]) -> Result<ValidationReport, Vec<String>> {
    let mut errors: Vec<String> = Vec::new();

    let mut last_tick: BTreeMap<u32, u64> = BTreeMap::new();
    let mut segments: Vec<Segment> = Vec::new();
    let mut open: Option<Segment> = None;
    let mut last_bump: Option<(u64, u64)> = None;
    let mut total_acquires = 0u64;

    for (i, te) in log.events.iter().enumerate() {
        // Per-track tick monotonicity.
        if let Some(&prev) = last_tick.get(&te.track) {
            if te.event.tick <= prev {
                errors.push(format!(
                    "event {i}: track {} tick {} not after {}",
                    te.track, te.event.tick, prev
                ));
            }
        }
        last_tick.insert(te.track, te.event.tick);

        let on_ctl = te.track == CTL_TRACK;
        match te.event.kind {
            EventKind::RoundBegin { epoch, m } => {
                if !on_ctl {
                    errors.push(format!("event {i}: round_begin off the controller track"));
                }
                if open.is_some() {
                    errors.push(format!("event {i}: round_begin inside an open round"));
                }
                open = Some(Segment {
                    epoch,
                    m,
                    ..Segment::default()
                });
            }
            EventKind::RoundEnd { epoch, m, totals } => match open.take() {
                Some(mut seg) => {
                    if seg.epoch != epoch || seg.m != m {
                        errors.push(format!(
                            "event {i}: round_end (epoch {epoch}, m {m}) does not match \
                                 round_begin (epoch {}, m {})",
                            seg.epoch, seg.m
                        ));
                    }
                    seg.end_totals = Some(totals);
                    segments.push(seg);
                }
                None => errors.push(format!("event {i}: round_end without round_begin")),
            },
            EventKind::RetryAged { .. } => {
                if open.is_none() {
                    errors.push(format!("event {i}: retry_aged outside a round"));
                }
            }
            EventKind::TaskLaunch { epoch, .. } => match open.as_mut() {
                Some(seg) => {
                    seg.launched += 1;
                    if epoch != seg.epoch {
                        errors.push(format!(
                            "event {i}: task_launch epoch {epoch} straddles round epoch {}",
                            seg.epoch
                        ));
                    }
                }
                None => errors.push(format!("event {i}: task_launch outside a round")),
            },
            EventKind::TaskCommit {
                acquires, spawned, ..
            } => {
                total_acquires += u64::from(acquires);
                match open.as_mut() {
                    Some(seg) => {
                        seg.committed += 1;
                        seg.spawned += u64::from(spawned);
                    }
                    None => errors.push(format!("event {i}: task_commit outside a round")),
                }
            }
            EventKind::TaskAbort { acquires, .. } => {
                total_acquires += u64::from(acquires);
                match open.as_mut() {
                    Some(seg) => seg.aborted += 1,
                    None => errors.push(format!("event {i}: task_abort outside a round")),
                }
            }
            EventKind::TaskFault { acquires, .. } => {
                total_acquires += u64::from(acquires);
                match open.as_mut() {
                    Some(seg) => seg.faulted += 1,
                    None => errors.push(format!("event {i}: task_fault outside a round")),
                }
            }
            EventKind::LockContend { .. } => {
                if open.is_none() {
                    errors.push(format!("event {i}: lock_contend outside a round"));
                }
            }
            EventKind::EpochBump { old, new } => {
                if !on_ctl {
                    errors.push(format!("event {i}: epoch_bump off the controller track"));
                }
                if new != old.wrapping_add(1) {
                    errors.push(format!(
                        "event {i}: epoch bump {old} -> {new} is not a +1 step"
                    ));
                }
                if let Some((_, prev_new)) = last_bump {
                    if old != prev_new {
                        errors.push(format!(
                            "event {i}: epoch bump starts at {old} but the previous bump \
                             ended at {prev_new}"
                        ));
                    }
                }
                last_bump = Some((old, new));
            }
            EventKind::Controller { .. } => {
                if !on_ctl {
                    errors.push(format!(
                        "event {i}: {} off the controller track",
                        te.event.kind.label()
                    ));
                }
            }
            // Pipelined-mode events. Round logs (the only logs this
            // validator's segment rules apply to) never contain them;
            // flag them as foreign rather than silently counting.
            EventKind::WindowAdvance { .. } | EventKind::BatchRetire { .. } => {
                errors.push(format!(
                    "event {i}: {} in a round-mode trace (pipelined logs are not \
                     round-validated)",
                    te.event.kind.label()
                ));
            }
            // Job-service lifecycle events: controller-track-only and
            // segment-neutral — admission/shedding/cancellation happen
            // outside any round, and a service log with no rounds at
            // all must still validate against zero RoundChecks.
            EventKind::JobAdmit { .. }
            | EventKind::JobReject { .. }
            | EventKind::JobDeadline { .. }
            | EventKind::JobCancel { .. } => {
                if !on_ctl {
                    errors.push(format!(
                        "event {i}: {} off the controller track",
                        te.event.kind.label()
                    ));
                }
            }
        }
    }
    if open.is_some() {
        errors.push("trailing round_begin without round_end".to_string());
    }

    if segments.len() != checks.len() {
        errors.push(format!(
            "trace has {} round segment(s) but {} RoundCheck(s) were supplied",
            segments.len(),
            checks.len()
        ));
    }
    for (i, (seg, check)) in segments.iter().zip(checks).enumerate() {
        let mut field = |what: &str, got: u64, want: u64| {
            if got != want {
                errors.push(format!(
                    "round {i}: events recompute {what} = {got}, RoundStats says {want}"
                ));
            }
        };
        field("m", seg.m, check.m);
        field("launched", seg.launched, check.launched);
        field("committed", seg.committed, check.committed);
        field("aborted", seg.aborted, check.aborted);
        field("faulted", seg.faulted, check.faulted);
        field("spawned", seg.spawned, check.spawned);
        if seg.launched != seg.committed + seg.aborted + seg.faulted {
            errors.push(format!(
                "round {i}: launched {} != committed {} + aborted {} + faulted {}",
                seg.launched, seg.committed, seg.aborted, seg.faulted
            ));
        }
        // Bit-equal conflict ratio, recomputed exactly as
        // RoundStats::conflict_ratio does.
        let ratio = if seg.launched == 0 {
            0.0
        } else {
            seg.aborted as f64 / seg.launched as f64
        };
        if ratio.to_bits() != check.conflict_ratio_bits {
            errors.push(format!(
                "round {i}: conflict ratio from events is {ratio} \
                 ({:#x}), RoundStats has {:#x}",
                ratio.to_bits(),
                check.conflict_ratio_bits
            ));
        }
        if let Some(t) = seg.end_totals {
            if (
                u64::from(t.launched),
                u64::from(t.committed),
                u64::from(t.aborted),
                u64::from(t.faulted),
                u64::from(t.spawned),
            ) != (
                seg.launched,
                seg.committed,
                seg.aborted,
                seg.faulted,
                seg.spawned,
            ) {
                errors.push(format!(
                    "round {i}: RoundEnd totals {t:?} disagree with per-event counts \
                     (launched {}, committed {}, aborted {}, faulted {}, spawned {})",
                    seg.launched, seg.committed, seg.aborted, seg.faulted, seg.spawned
                ));
            }
        }
    }

    if errors.is_empty() {
        Ok(ValidationReport {
            rounds: segments.len(),
            events: log.events.len(),
            lock_acquires: total_acquires,
        })
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind, RoundTotals, TracedEvent};

    fn te(track: u32, tick: u64, kind: EventKind) -> TracedEvent {
        TracedEvent {
            track,
            event: Event { tick, kind },
        }
    }

    fn one_round_log() -> (EventLog, Vec<RoundCheck>) {
        let log = EventLog {
            events: vec![
                te(CTL_TRACK, 0, EventKind::RoundBegin { epoch: 5, m: 2 }),
                te(0, 0, EventKind::TaskLaunch { slot: 0, epoch: 5 }),
                te(
                    0,
                    1,
                    EventKind::TaskCommit {
                        slot: 0,
                        acquires: 2,
                        spawned: 2,
                    },
                ),
                te(1, 0, EventKind::TaskLaunch { slot: 1, epoch: 5 }),
                te(
                    1,
                    1,
                    EventKind::TaskAbort {
                        slot: 1,
                        acquires: 1,
                    },
                ),
                te(
                    CTL_TRACK,
                    1,
                    EventKind::RoundEnd {
                        epoch: 5,
                        m: 2,
                        totals: RoundTotals {
                            launched: 2,
                            committed: 1,
                            aborted: 1,
                            faulted: 0,
                            spawned: 2,
                        },
                    },
                ),
                te(CTL_TRACK, 2, EventKind::EpochBump { old: 5, new: 6 }),
            ],
        };
        let checks = vec![RoundCheck {
            m: 2,
            launched: 2,
            committed: 1,
            aborted: 1,
            faulted: 0,
            spawned: 2,
            conflict_ratio_bits: 0.5f64.to_bits(),
        }];
        (log, checks)
    }

    #[test]
    fn clean_round_validates() {
        let (log, checks) = one_round_log();
        let report = validate(&log, &checks).expect("valid");
        assert_eq!(report.rounds, 1);
        assert_eq!(report.events, 7);
        assert_eq!(report.lock_acquires, 3);
    }

    #[test]
    fn miscounted_stats_fail_bit_equality() {
        let (log, mut checks) = one_round_log();
        checks[0].committed = 2;
        checks[0].aborted = 0;
        checks[0].conflict_ratio_bits = 0.0f64.to_bits();
        let errs = validate(&log, &checks).expect_err("must fail");
        assert!(
            errs.iter().any(|e| e.contains("recompute committed")),
            "{errs:?}"
        );
        assert!(
            errs.iter().any(|e| e.contains("conflict ratio")),
            "{errs:?}"
        );
    }

    #[test]
    fn straddling_task_launch_fails() {
        let (mut log, checks) = one_round_log();
        // Rewrite the launch's epoch to the previous round's.
        log.events[1] = te(0, 0, EventKind::TaskLaunch { slot: 0, epoch: 4 });
        let errs = validate(&log, &checks).expect_err("must fail");
        assert!(errs.iter().any(|e| e.contains("straddles")), "{errs:?}");
    }

    #[test]
    fn non_monotone_epoch_bump_fails() {
        let (mut log, checks) = one_round_log();
        log.events
            .push(te(CTL_TRACK, 3, EventKind::EpochBump { old: 7, new: 8 }));
        let errs = validate(&log, &checks).expect_err("must fail");
        assert!(errs.iter().any(|e| e.contains("previous bump")), "{errs:?}");
    }

    #[test]
    fn task_event_outside_round_fails() {
        let (mut log, checks) = one_round_log();
        log.events
            .push(te(0, 9, EventKind::TaskLaunch { slot: 0, epoch: 6 }));
        let errs = validate(&log, &checks).expect_err("must fail");
        assert!(
            errs.iter().any(|e| e.contains("outside a round")),
            "{errs:?}"
        );
    }

    #[test]
    fn non_monotone_ticks_fail() {
        let (mut log, checks) = one_round_log();
        log.events[3] = te(0, 5, EventKind::TaskLaunch { slot: 1, epoch: 5 });
        log.events[4] = te(
            0,
            5,
            EventKind::TaskAbort {
                slot: 1,
                acquires: 1,
            },
        );
        let errs = validate(&log, &checks).expect_err("must fail");
        assert!(errs.iter().any(|e| e.contains("not after")), "{errs:?}");
    }

    #[test]
    fn empty_round_with_zero_check_validates() {
        let log = EventLog {
            events: vec![
                te(CTL_TRACK, 0, EventKind::RoundBegin { epoch: 0, m: 4 }),
                te(
                    CTL_TRACK,
                    1,
                    EventKind::RoundEnd {
                        epoch: 0,
                        m: 4,
                        totals: RoundTotals::default(),
                    },
                ),
            ],
        };
        let checks = vec![RoundCheck {
            m: 4,
            conflict_ratio_bits: 0.0f64.to_bits(),
            ..RoundCheck::default()
        }];
        let report = validate(&log, &checks).expect("valid");
        assert_eq!(report.rounds, 1);
    }
}
