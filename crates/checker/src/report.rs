//! Structured violation reports.
//!
//! Every analysis in this crate reports findings as a [`Report`]: a
//! machine-inspectable value naming the offending task pair, lock, and
//! epoch, with a human-readable `Display`. Reports are what the seeded
//! fault-injection tests assert on, and what the default panic mode
//! prints — skewed `r̄(m)` curves become named bugs.

use crate::trace::AccessKind;

/// One task's side of a race: who, what, how.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessSummary {
    /// The task's round slot.
    pub slot: usize,
    /// Strongest access kind the task performed on the datum.
    pub kind: AccessKind,
    /// Whether the task committed.
    pub committed: bool,
}

impl std::fmt::Display for AccessSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "task {} ({}, {})",
            self.slot,
            self.kind,
            if self.committed {
                "committed"
            } else {
                "aborted"
            }
        )
    }
}

/// A speculation-safety violation found by the audit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Report {
    /// Two tasks touched the datum guarded by `lock` in the same epoch
    /// in a way the lock protocol cannot have serialized (both
    /// committed, or an uncovered access raced a covered one).
    Race {
        /// The lock index guarding the contested datum.
        lock: usize,
        /// The epoch in which both accesses happened.
        epoch: u64,
        /// The two sides of the race, lower slot first.
        pair: (AccessSummary, AccessSummary),
    },
    /// A task accessed a datum without holding its lock (Eraser
    /// lockset discipline: the candidate set went empty).
    UncoveredAccess {
        /// The lock index guarding the datum.
        lock: usize,
        /// The epoch of the access.
        epoch: u64,
        /// The offending slot.
        slot: usize,
        /// Read or write.
        kind: AccessKind,
    },
    /// The committed set of a round diverges from the greedy
    /// maximal-independent-set of the drawn prefix.
    OracleDivergence {
        /// The epoch (= round) that diverged.
        epoch: u64,
        /// Slots the oracle expected to commit but the runtime aborted.
        missing: Vec<usize>,
        /// Slots the runtime committed but the oracle expected to
        /// abort (each with the lock that should have killed it and
        /// the earlier slot that held it).
        extra: Vec<(usize, usize, usize)>,
        /// The offending permutation: each slot's acquired lockset, in
        /// priority order, so the failure is replayable.
        permutation: Vec<(usize, Vec<usize>)>,
    },
    /// An abort named a conflict holder that never acquired the
    /// contested lock in this round — the collision was phantom.
    PhantomConflict {
        /// The contested lock.
        lock: usize,
        /// The epoch of the collision.
        epoch: u64,
        /// The aborting slot.
        slot: usize,
        /// The named holder that has no record of the lock.
        holder: usize,
    },
    /// A pipelined task took a lock word over from a holder that was
    /// not the lock's last committed holder: the takeover did not
    /// come from a finished task whose trace was deposited before it.
    BadTakeover {
        /// The lock taken over.
        lock: usize,
        /// The taking task's batch tag.
        epoch: u64,
        /// The taking task's slot.
        slot: usize,
        /// The `(tag, slot)` the task recorded taking the word from.
        from: (u64, usize),
        /// The `(tag, slot)` of the lock's last committed holder by
        /// the ledger (`None` = free).
        last: Option<(u64, usize)>,
    },
    /// An epoch transition broke an invariant (non-monotonic bump,
    /// missed wraparound sweep, or a stale-owner word observed where a
    /// current one was required).
    EpochInvariant {
        /// The epoch at which the invariant broke.
        epoch: u64,
        /// What went wrong.
        detail: String,
    },
    /// A task acquired a lock further from its seed element than the
    /// operator's statically declared conflict radius allows — either
    /// the radius inference is unsound or `FOOTPRINT.toml` drifted.
    RadiusExceeded {
        /// The offending slot.
        slot: usize,
        /// The task's seed element (global lock index).
        seed: u64,
        /// The lock acquired outside the declared ball.
        lock: usize,
        /// Observed hop distance from seed to `lock`.
        dist: u32,
        /// The declared static radius d̂.
        radius: u32,
    },
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Report::Race { lock, epoch, pair } => write!(
                f,
                "RACE on lock {lock} in epoch {epoch}: {} vs {}",
                pair.0, pair.1
            ),
            Report::UncoveredAccess {
                lock,
                epoch,
                slot,
                kind,
            } => write!(
                f,
                "UNCOVERED {kind} of lock {lock} by task {slot} in epoch {epoch} \
                 (lockset discipline violated)"
            ),
            Report::OracleDivergence {
                epoch,
                missing,
                extra,
                permutation,
            } => {
                write!(
                    f,
                    "ORACLE DIVERGENCE in epoch {epoch}: missing commits {missing:?}, \
                     extra commits {:?} (slot, killing lock, holder); permutation: ",
                    extra
                )?;
                for (slot, locks) in permutation {
                    write!(f, "[{slot}:{locks:?}] ")?;
                }
                Ok(())
            }
            Report::PhantomConflict {
                lock,
                epoch,
                slot,
                holder,
            } => write!(
                f,
                "PHANTOM CONFLICT on lock {lock} in epoch {epoch}: task {slot} aborted \
                 against holder {holder}, which never acquired it"
            ),
            Report::BadTakeover {
                lock,
                epoch,
                slot,
                from,
                last,
            } => write!(
                f,
                "BAD TAKEOVER of lock {lock} by task {slot} in batch {epoch:#x}: took it from \
                 {from:x?}, but its last committed holder is {last:x?}"
            ),
            Report::EpochInvariant { epoch, detail } => {
                write!(f, "EPOCH INVARIANT broken at epoch {epoch}: {detail}")
            }
            Report::RadiusExceeded {
                slot,
                seed,
                lock,
                dist,
                radius,
            } => write!(
                f,
                "RADIUS EXCEEDED by task {slot}: seed {seed} acquired lock {lock} at hop \
                 distance {dist} > declared static radius {radius} (analyzer unsoundness \
                 or FOOTPRINT.toml drift)"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn race_display_names_pair_and_epoch() {
        let r = Report::Race {
            lock: 7,
            epoch: 42,
            pair: (
                AccessSummary {
                    slot: 0,
                    kind: AccessKind::Write,
                    committed: true,
                },
                AccessSummary {
                    slot: 3,
                    kind: AccessKind::Write,
                    committed: true,
                },
            ),
        };
        let s = r.to_string();
        assert!(s.contains("lock 7"));
        assert!(s.contains("epoch 42"));
        assert!(s.contains("task 0"));
        assert!(s.contains("task 3"));
    }

    #[test]
    fn uncovered_access_display_names_all_coordinates() {
        let r = Report::UncoveredAccess {
            lock: 11,
            epoch: 3,
            slot: 6,
            kind: AccessKind::Read,
        };
        let s = r.to_string();
        assert!(s.starts_with("UNCOVERED"), "{s}");
        assert!(s.contains("lock 11"), "{s}");
        assert!(s.contains("task 6"), "{s}");
        assert!(s.contains("epoch 3"), "{s}");
    }

    #[test]
    fn phantom_conflict_display_names_both_slots() {
        let r = Report::PhantomConflict {
            lock: 4,
            epoch: 9,
            slot: 2,
            holder: 5,
        };
        let s = r.to_string();
        assert!(s.starts_with("PHANTOM CONFLICT"), "{s}");
        assert!(s.contains("lock 4"), "{s}");
        assert!(s.contains("task 2"), "{s}");
        assert!(s.contains("holder 5"), "{s}");
        assert!(s.contains("never acquired"), "{s}");
    }

    #[test]
    fn radius_exceeded_display_names_all_coordinates() {
        let r = Report::RadiusExceeded {
            slot: 4,
            seed: 120,
            lock: 99,
            dist: 3,
            radius: 1,
        };
        let s = r.to_string();
        assert!(s.starts_with("RADIUS EXCEEDED"), "{s}");
        assert!(s.contains("task 4"), "{s}");
        assert!(s.contains("seed 120"), "{s}");
        assert!(s.contains("lock 99"), "{s}");
        assert!(s.contains("distance 3"), "{s}");
        assert!(s.contains("radius 1"), "{s}");
    }

    #[test]
    fn epoch_invariant_display_carries_detail_verbatim() {
        let r = Report::EpochInvariant {
            epoch: 77,
            detail: "epoch stepped 76 -> 80, expected 77".to_string(),
        };
        let s = r.to_string();
        assert!(s.starts_with("EPOCH INVARIANT"), "{s}");
        assert!(s.contains("at epoch 77"), "{s}");
        assert!(s.contains("76 -> 80"), "{s}");
    }

    #[test]
    fn oracle_display_carries_permutation() {
        let r = Report::OracleDivergence {
            epoch: 5,
            missing: vec![2],
            extra: vec![(4, 9, 1)],
            permutation: vec![(0, vec![1, 2]), (1, vec![9])],
        };
        let s = r.to_string();
        assert!(s.contains("epoch 5"));
        assert!(s.contains("[0:[1, 2]]"));
    }
}
