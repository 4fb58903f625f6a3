//! Eraser-style dynamic lockset/race analysis over round traces.
//!
//! Within one epoch the protocol guarantees: a lock word has at most
//! one current-epoch owner at a time, a committed task's locks stay
//! held until the barrier, and every data access happens under the
//! accessor's held lock. From a round's [`TaskTrace`]s those
//! guarantees become checkable facts:
//!
//! 1. **Coverage** — every recorded access must have been covered by a
//!    held, current-epoch lock at access time (the Eraser candidate
//!    set, specialized to the one lock that guards each datum).
//! 2. **Committed exclusivity** — no lock may appear in the acquired
//!    set of two *committed* tasks of the same epoch: the first
//!    committer keeps the lock until the barrier, so the second could
//!    only have gotten it through a lost release, a stale-epoch
//!    aliasing bug, or a broken CAS path.
//! 3. **Real conflicts** — an abort that names a holder must name a
//!    task that actually acquired the contested lock this round.
//! 4. **Epoch coherence** — all traces of a round carry one epoch.
//!
//! Aborted tasks overlapping anything are *fine* (they rolled back and
//! released within the epoch); the analysis never flags the legal
//! abort-then-reacquire pattern, so it is noise-free by construction.
//!
//! Those are the rules of a barrier **round** (lane 0), where a
//! committed task's retention *is* the commit rule. A **pipelined**
//! lane retains committed stamps only to make its retire O(1): there a
//! finished holder's lock is free, a later task may take the word over
//! while the stamp is still live, and rule (2) is restated as
//! conflict-serializability — *no lock is held by two live tasks* — by
//! the [`LockLedger`], which replays every acquisition of a run in
//! deposit order. [`audit_batch`] keeps rules (1) and (4) per batch.

use crate::report::{AccessSummary, Report};
use crate::trace::{AccessKind, Outcome, TaskTrace, TraceEvent};
use std::collections::HashMap;

/// Strongest access kind `slot` performed on `lock` in `t`, if any.
fn kind_of(t: &TaskTrace, lock: usize) -> Option<AccessKind> {
    t.accessed()
        .into_iter()
        .find(|(l, _)| *l == lock)
        .map(|(_, k)| k)
}

/// Run the full lockset/race analysis over one round's traces.
///
/// Returns every violation found (empty = the round is clean).
pub fn audit_round(traces: &[TaskTrace]) -> Vec<Report> {
    audit(traces, true)
}

/// Run the per-batch part of the lockset analysis over one pipelined
/// *batch* (all traces share a lane tag as their epoch): coverage and
/// epoch coherence.
///
/// Rule (2) is not run here — two committed tasks of a batch may
/// share a lock through a takeover, and whether each one was legal is
/// a question about the whole run's acquisition order, which the
/// [`LockLedger`] answers. Rule (3), phantom conflicts, is skipped
/// too: a conflict can name a holder from another worker's in-flight
/// batch whose trace has not been deposited (and never will be into
/// *this* group), so the holder's absence proves nothing.
pub fn audit_batch(traces: &[TaskTrace]) -> Vec<Report> {
    audit(traces, false)
}

/// The pipelined exclusivity rule: every lock's last committed stamp,
/// replayed over a run's traces in *deposit order*.
///
/// Deposit order is sound for this because of when the runtime
/// deposits: a committing task deposits before its worker publishes
/// the next slot or runs the next task — so before anyone can find it
/// finished — and an aborting task deposits before it releases its
/// words. Whoever acquires a word after a task let go of it therefore
/// deposits after that task.
///
/// With that, *no lock is held by two live tasks* becomes two checks
/// on each recorded acquisition:
///
/// * a **takeover** `from: Some(holder)` must name exactly the stamp
///   the ledger holds for that lock — the holder committed, was
///   deposited earlier, and nobody acquired the word in between
///   ([`Report::BadTakeover`] otherwise);
/// * a **free** acquisition must not find the ledger holding a stamp
///   of the acquirer's *own tag*: within one batch a committed stamp
///   changes hands only by takeover, so this is a lost release, a
///   stale-tag alias or a broken CAS ([`Report::Race`]). A stamp of
///   another tag proves nothing either way — its batch may have
///   retired, and traces carry no lane bumps — so cross-batch
///   exclusivity stays what it was: enforced by the lane-tagged lock
///   words and re-verified end to end against sequential references.
///
/// A committed task then leaves its stamp on every lock it acquired;
/// an aborted one leaves them free.
#[derive(Debug, Default)]
pub struct LockLedger {
    /// Lock index → `(tag, slot)` of the committed task whose stamp
    /// the word carries (absent = free), with what that task did to
    /// the datum (for the race report).
    stamps: HashMap<usize, ((u64, usize), AccessKind)>,
}

impl LockLedger {
    /// Replay `traces` (in deposit order) against the ledger,
    /// returning every illegal acquisition and advancing the ledger.
    pub fn audit(&mut self, traces: &[TaskTrace]) -> Vec<Report> {
        let mut reports = Vec::new();
        for t in traces {
            let committed = t.outcome == Outcome::Committed;
            // One pass, not `kind_of` per lock: a Boruvka task logs
            // thousands of events.
            let mut kinds: HashMap<usize, AccessKind> = HashMap::new();
            for e in &t.events {
                if let TraceEvent::Access { lock, kind, .. } = e {
                    let k = kinds.entry(*lock).or_insert(*kind);
                    if *kind == AccessKind::Write {
                        *k = AccessKind::Write;
                    }
                }
            }
            for e in &t.events {
                let TraceEvent::Acquired { lock, from } = e else {
                    continue;
                };
                let kind = kinds.get(lock).copied().unwrap_or(AccessKind::Read);
                let last = self.stamps.get(lock).copied();
                match (*from, last) {
                    (Some(holder), _) if last.map(|(stamp, _)| stamp) != Some(holder) => {
                        reports.push(Report::BadTakeover {
                            lock: *lock,
                            epoch: t.epoch,
                            slot: t.slot,
                            from: holder,
                            last: last.map(|(stamp, _)| stamp),
                        });
                    }
                    (None, Some(((tag, holder), held_kind))) if tag == t.epoch => {
                        let held = AccessSummary {
                            slot: holder,
                            kind: held_kind,
                            committed: true,
                        };
                        let taker = AccessSummary {
                            slot: t.slot,
                            kind,
                            committed,
                        };
                        reports.push(Report::Race {
                            lock: *lock,
                            epoch: tag,
                            pair: if holder <= t.slot {
                                (held, taker)
                            } else {
                                (taker, held)
                            },
                        });
                    }
                    _ => {}
                }
                if committed {
                    self.stamps.insert(*lock, ((t.epoch, t.slot), kind));
                } else {
                    self.stamps.remove(lock);
                }
            }
        }
        reports
    }
}

/// Static↔dynamic radius cross-check: every lock a seeded task
/// acquired must lie within `radius` hops of its seed element.
///
/// `dist(seed, lock)` returns the hop distance in the conflict graph,
/// or `None` when `lock` falls outside the mapped region (auxiliary
/// lock regions — counters, shared pools — are not part of the
/// element-adjacency ball and are exempt). Traces without a seed
/// (operators that do not implement `conflict_seed`) are skipped:
/// the check is opt-in per operator, like the contract it validates.
pub fn audit_radius(
    radius: u32,
    dist: &(dyn Fn(u64, usize) -> Option<u32> + Send + Sync),
    traces: &[TaskTrace],
) -> Vec<Report> {
    let mut reports = Vec::new();
    for t in traces {
        let Some(seed) = t.seed else { continue };
        for lock in t.acquired() {
            if let Some(d) = dist(seed, lock) {
                if d > radius {
                    reports.push(Report::RadiusExceeded {
                        slot: t.slot,
                        seed,
                        lock,
                        dist: d,
                        radius,
                    });
                }
            }
        }
    }
    reports
}

/// Rules (1) and (4), plus — for a barrier round — (2) and (3).
fn audit(traces: &[TaskTrace], round: bool) -> Vec<Report> {
    let mut reports = Vec::new();
    let Some(first) = traces.first() else {
        return reports;
    };
    let epoch = first.epoch;

    // (4) Epoch coherence.
    for t in traces {
        if t.epoch != epoch {
            reports.push(Report::EpochInvariant {
                epoch,
                detail: format!(
                    "task {} ran under epoch {} but the round audit covers epoch {epoch}",
                    t.slot, t.epoch
                ),
            });
        }
    }

    // (1) Coverage: uncovered accesses, each reported once per
    // (slot, lock, kind).
    for t in traces {
        let mut seen: Vec<(usize, AccessKind)> = Vec::new();
        for e in &t.events {
            if let TraceEvent::Access {
                lock,
                kind,
                covered: false,
            } = e
            {
                if !seen.contains(&(*lock, *kind)) {
                    seen.push((*lock, *kind));
                    reports.push(Report::UncoveredAccess {
                        lock: *lock,
                        epoch: t.epoch,
                        slot: t.slot,
                        kind: *kind,
                    });
                }
            }
        }
    }

    // (2) Committed exclusivity: a lock acquired by two committers.
    let mut committed_holder: HashMap<usize, &TaskTrace> = HashMap::new();
    for t in traces.iter().filter(|_| round) {
        if t.outcome != Outcome::Committed {
            continue;
        }
        for lock in t.acquired() {
            match committed_holder.get(&lock) {
                Some(first) => {
                    let (a, b) = if first.slot <= t.slot {
                        (*first, t)
                    } else {
                        (t, *first)
                    };
                    reports.push(Report::Race {
                        lock,
                        epoch,
                        pair: (
                            AccessSummary {
                                slot: a.slot,
                                kind: kind_of(a, lock).unwrap_or(AccessKind::Read),
                                committed: true,
                            },
                            AccessSummary {
                                slot: b.slot,
                                kind: kind_of(b, lock).unwrap_or(AccessKind::Read),
                                committed: true,
                            },
                        ),
                    });
                }
                None => {
                    committed_holder.insert(lock, t);
                }
            }
        }
    }

    // (1b) An uncovered access racing any *other* task's covered
    // access of the same datum is a race pair, not just a discipline
    // slip; name the pair.
    for t in traces {
        for e in &t.events {
            let TraceEvent::Access {
                lock,
                kind,
                covered: false,
            } = e
            else {
                continue;
            };
            for u in traces {
                if u.slot == t.slot {
                    continue;
                }
                if let Some(other_kind) = kind_of(u, *lock) {
                    if *kind == AccessKind::Write || other_kind == AccessKind::Write {
                        let (a, ak, ac, b, bk, bc) = if t.slot <= u.slot {
                            (t, *kind, t.outcome, u, other_kind, u.outcome)
                        } else {
                            (u, other_kind, u.outcome, t, *kind, t.outcome)
                        };
                        let race = Report::Race {
                            lock: *lock,
                            epoch,
                            pair: (
                                AccessSummary {
                                    slot: a.slot,
                                    kind: ak,
                                    committed: ac == Outcome::Committed,
                                },
                                AccessSummary {
                                    slot: b.slot,
                                    kind: bk,
                                    committed: bc == Outcome::Committed,
                                },
                            ),
                        };
                        if !reports.contains(&race) {
                            reports.push(race);
                        }
                    }
                }
            }
        }
    }

    // (3) Real conflicts: the named holder must have acquired the lock.
    for t in traces.iter().filter(|_| round) {
        for e in &t.events {
            if let TraceEvent::Conflicted { lock, holder } = e {
                let holder_has_it = traces
                    .iter()
                    .find(|u| u.slot == *holder)
                    .is_some_and(|u| u.acquired().contains(lock));
                if !holder_has_it {
                    reports.push(Report::PhantomConflict {
                        lock: *lock,
                        epoch: t.epoch,
                        slot: t.slot,
                        holder: *holder,
                    });
                }
            }
        }
    }

    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(slot: usize, epoch: u64, outcome: Outcome, events: Vec<TraceEvent>) -> TaskTrace {
        TaskTrace {
            slot,
            epoch,
            events,
            outcome,
            seed: None,
        }
    }

    fn acq(lock: usize) -> TraceEvent {
        TraceEvent::Acquired { lock, from: None }
    }

    fn take(lock: usize, tag: u64, slot: usize) -> TraceEvent {
        TraceEvent::Acquired {
            lock,
            from: Some((tag, slot)),
        }
    }

    fn wr(lock: usize) -> TraceEvent {
        TraceEvent::Access {
            lock,
            kind: AccessKind::Write,
            covered: true,
        }
    }

    #[test]
    fn clean_round_is_clean() {
        let ts = vec![
            trace(0, 3, Outcome::Committed, vec![acq(0), wr(0), acq(1), wr(1)]),
            trace(1, 3, Outcome::Committed, vec![acq(2), wr(2)]),
            trace(
                2,
                3,
                Outcome::Aborted,
                vec![acq(3), TraceEvent::Conflicted { lock: 0, holder: 0 }],
            ),
        ];
        assert!(audit_round(&ts).is_empty());
    }

    #[test]
    fn abort_then_reacquire_is_legal() {
        // Slot 0 aborts and releases lock 5; slot 1 then takes it and
        // commits. Same lock, same epoch — no race.
        let ts = vec![
            trace(
                0,
                1,
                Outcome::Aborted,
                vec![acq(5), wr(5), TraceEvent::Conflicted { lock: 9, holder: 1 }],
            ),
            trace(1, 1, Outcome::Committed, vec![acq(9), acq(5), wr(5)]),
        ];
        assert!(audit_round(&ts).is_empty());
    }

    #[test]
    fn two_committers_on_one_lock_is_a_race() {
        let ts = vec![
            trace(0, 7, Outcome::Committed, vec![acq(4), wr(4)]),
            trace(2, 7, Outcome::Committed, vec![acq(4), wr(4)]),
        ];
        let reports = audit_round(&ts);
        assert!(
            reports.iter().any(|r| matches!(
                r,
                Report::Race {
                    lock: 4,
                    epoch: 7,
                    pair: (AccessSummary { slot: 0, .. }, AccessSummary { slot: 2, .. }),
                }
            )),
            "expected a race on lock 4 naming slots 0 and 2: {reports:?}"
        );
    }

    #[test]
    fn uncovered_access_is_reported() {
        let ts = vec![trace(
            1,
            2,
            Outcome::Committed,
            vec![TraceEvent::Access {
                lock: 8,
                kind: AccessKind::Write,
                covered: false,
            }],
        )];
        let reports = audit_round(&ts);
        assert_eq!(
            reports,
            vec![Report::UncoveredAccess {
                lock: 8,
                epoch: 2,
                slot: 1,
                kind: AccessKind::Write,
            }]
        );
    }

    #[test]
    fn uncovered_write_racing_covered_write_names_the_pair() {
        let ts = vec![
            trace(
                0,
                4,
                Outcome::Committed,
                vec![TraceEvent::Access {
                    lock: 3,
                    kind: AccessKind::Write,
                    covered: false,
                }],
            ),
            trace(1, 4, Outcome::Committed, vec![acq(3), wr(3)]),
        ];
        let reports = audit_round(&ts);
        assert!(reports.iter().any(|r| matches!(
            r,
            Report::Race {
                lock: 3,
                epoch: 4,
                pair: (AccessSummary { slot: 0, .. }, AccessSummary { slot: 1, .. }),
            }
        )));
    }

    #[test]
    fn phantom_conflict_is_reported() {
        let ts = vec![
            trace(
                0,
                6,
                Outcome::Aborted,
                vec![TraceEvent::Conflicted { lock: 2, holder: 5 }],
            ),
            trace(5, 6, Outcome::Committed, vec![acq(7)]),
        ];
        let reports = audit_round(&ts);
        assert_eq!(
            reports,
            vec![Report::PhantomConflict {
                lock: 2,
                epoch: 6,
                slot: 0,
                holder: 5,
            }]
        );
    }

    /// Edge case: the named holder acquired the contested lock and
    /// released it (by aborting) entirely within the same epoch. The
    /// conflict is *stale*, not phantom — the holder's Acquired event
    /// is on record, so rule (3) must stay silent even though the
    /// holder no longer holds the lock at audit time.
    #[test]
    fn holder_that_released_within_the_epoch_is_not_phantom() {
        let ts = vec![
            trace(
                0,
                6,
                Outcome::Aborted,
                vec![TraceEvent::Conflicted { lock: 2, holder: 5 }],
            ),
            // Slot 5 took lock 2, then aborted on a different conflict,
            // releasing everything — all within epoch 6.
            trace(
                5,
                6,
                Outcome::Aborted,
                vec![acq(2), TraceEvent::Conflicted { lock: 9, holder: 1 }],
            ),
            trace(1, 6, Outcome::Committed, vec![acq(9)]),
        ];
        assert_eq!(audit_round(&ts), vec![]);
    }

    /// The lane rule: a committed stamp changes hands by takeover —
    /// same lane, another lane, through an aborted taker and back —
    /// and every such chain is clean.
    #[test]
    fn ledger_accepts_takeover_chains() {
        let (a, b) = ((1u64 << 24) | 7, (2u64 << 24) | 3);
        let ts = vec![
            trace(0, a, Outcome::Committed, vec![acq(4), wr(4), acq(5)]),
            // Same lane, same batch: takes 4 over from slot 0.
            trace(1, a, Outcome::Committed, vec![take(4, a, 0), wr(4)]),
            // Another lane takes it from slot 1, then aborts: the
            // word is released, not handed back.
            trace(
                8,
                b,
                Outcome::Aborted,
                vec![take(4, a, 1), TraceEvent::Conflicted { lock: 9, holder: 2 }],
            ),
            // So the first lane's next task finds it free — and lock
            // 5 still stamped by slot 0.
            trace(2, a, Outcome::Committed, vec![acq(4), take(5, a, 0)]),
            // A later batch of the same lane over a stamp nobody took:
            // retired residue, free.
            trace(0, a + 1, Outcome::Committed, vec![acq(4), acq(5)]),
        ];
        assert_eq!(LockLedger::default().audit(&ts), vec![]);
    }

    /// Two committed tasks of one batch on one lock with no takeover
    /// between them is what a lost release or a broken CAS looks like.
    #[test]
    fn ledger_flags_untaken_share_within_a_batch() {
        let a = (1u64 << 24) | 7;
        let ts = vec![
            trace(0, a, Outcome::Committed, vec![acq(4), wr(4)]),
            trace(2, a, Outcome::Committed, vec![acq(4), wr(4)]),
        ];
        let reports = LockLedger::default().audit(&ts);
        assert!(
            matches!(
                reports[..],
                [Report::Race {
                    lock: 4,
                    pair: (AccessSummary { slot: 0, .. }, AccessSummary { slot: 2, .. }),
                    ..
                }]
            ),
            "{reports:?}"
        );
    }

    /// A takeover must name the lock's last committed stamp: not a
    /// holder that never had it, not one whose stamp was itself taken
    /// over, not one that aborted.
    #[test]
    fn ledger_flags_takeover_from_the_wrong_holder() {
        let a = (1u64 << 24) | 7;
        let bad = |ts: &[TaskTrace]| {
            let reports = LockLedger::default().audit(ts);
            assert!(
                matches!(reports[..], [Report::BadTakeover { lock: 4, .. }]),
                "{reports:?}"
            );
        };
        // Nobody holds it.
        bad(&[trace(1, a, Outcome::Committed, vec![take(4, a, 0)])]);
        // Slot 0's stamp went to slot 1 already.
        bad(&[
            trace(0, a, Outcome::Committed, vec![acq(4)]),
            trace(1, a, Outcome::Committed, vec![take(4, a, 0)]),
            trace(2, a, Outcome::Committed, vec![take(4, a, 0)]),
        ]);
        // The named holder aborted (and so released).
        bad(&[
            trace(0, a, Outcome::Aborted, vec![acq(4)]),
            trace(1, a, Outcome::Committed, vec![take(4, a, 0)]),
        ]);
    }

    #[test]
    fn batch_audit_skips_phantom_but_keeps_races() {
        // Same shape as `phantom_conflict_is_reported`: the holder's
        // trace is missing from the group. In a pipelined batch that
        // is expected (the holder is another lane, mid-flight), so
        // audit_batch must stay silent...
        let phantom = vec![trace(
            0,
            6,
            Outcome::Aborted,
            vec![TraceEvent::Conflicted { lock: 2, holder: 5 }],
        )];
        assert_eq!(audit_batch(&phantom), vec![]);
        assert_eq!(audit_round(&phantom).len(), 1, "round audit still flags it");
        // ...while an intra-batch double commit is still a race: the
        // pipelined audit finds it in the ledger, where the takeover
        // that would have made it legal is missing.
        let double = vec![
            trace(0, 7, Outcome::Committed, vec![acq(4), wr(4)]),
            trace(2, 7, Outcome::Committed, vec![acq(4), wr(4)]),
        ];
        assert_eq!(audit_batch(&double), vec![]);
        assert!(LockLedger::default()
            .audit(&double)
            .iter()
            .any(|r| matches!(r, Report::Race { lock: 4, .. })));
        // With the takeover recorded the same pair is clean in a lane
        // (and still forbidden in a round).
        let shared = vec![
            trace(0, 7, Outcome::Committed, vec![acq(4), wr(4)]),
            trace(2, 7, Outcome::Committed, vec![take(4, 7, 0), wr(4)]),
        ];
        assert_eq!(audit_batch(&shared), vec![]);
        assert_eq!(LockLedger::default().audit(&shared), vec![]);
        assert_eq!(audit_round(&shared).len(), 1, "a round still forbids it");
        // Coverage is still per batch.
        let uncovered = vec![trace(
            1,
            7,
            Outcome::Committed,
            vec![TraceEvent::Access {
                lock: 8,
                kind: AccessKind::Write,
                covered: false,
            }],
        )];
        assert_eq!(audit_batch(&uncovered).len(), 1);
    }

    #[test]
    fn mixed_epochs_flagged() {
        let ts = vec![
            trace(0, 1, Outcome::Committed, vec![]),
            trace(1, 2, Outcome::Committed, vec![]),
        ];
        let reports = audit_round(&ts);
        assert!(matches!(reports[0], Report::EpochInvariant { .. }));
    }
}
