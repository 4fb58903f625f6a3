//! Per-task access traces: the raw material of the audit.
//!
//! A [`TaskTrace`] is recorded by the runtime's `TaskCtx` in checker
//! builds: one [`TraceEvent`] per lock acquisition and per data access,
//! in program order, plus the task's final [`Outcome`]. Traces are
//! cheap to record (no shared state during the round — each task owns
//! its trace until it finishes) and are analyzed centrally at the round
//! barrier by [`crate::lockset`] and [`crate::oracle`].

/// Whether a recorded data access was a read or a write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Shared read through `TaskCtx::read`.
    Read,
    /// Exclusive write through `TaskCtx::write`.
    Write,
}

impl std::fmt::Display for AccessKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccessKind::Read => write!(f, "read"),
            AccessKind::Write => write!(f, "write"),
        }
    }
}

/// One step of a task's interaction with the lock space.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A successful acquisition of `lock`.
    Acquired {
        /// The lock index.
        lock: usize,
        /// `Some((tag, slot))` when the word was *taken over*: it still
        /// carried the live stamp of that finished holder (pipelined
        /// lanes only — a lane's committed stamps outlive their tasks
        /// until the lane bump, and a finished holder's lock is free).
        /// `None` when the word was free.
        from: Option<(u64, usize)>,
    },
    /// A failed acquisition: the task lost the collision on `lock` to
    /// `holder` (per the round's conflict policy) and will abort.
    Conflicted {
        /// The contested lock index.
        lock: usize,
        /// The slot that held it at collision time.
        holder: usize,
    },
    /// A data access to the datum guarded by `lock`.
    Access {
        /// The lock index guarding the datum.
        lock: usize,
        /// Read or write.
        kind: AccessKind,
        /// Did the accessor hold `lock` (by its own bookkeeping *and*
        /// by the lock word's owner field) at access time? A `false`
        /// here is already a lockset-discipline violation.
        covered: bool,
    },
    /// The operator itself requested an abort (application-level
    /// validation failed). The commit-set oracle must not expect this
    /// task to commit, conflict-free or not.
    AbortRequested,
    /// The task faulted: its operator panicked (and was contained by
    /// the runtime) or a fault-injection plan fired on it. Like
    /// [`TraceEvent::AbortRequested`], the abort is outside the greedy
    /// rule's jurisdiction — the oracle must excuse it.
    Faulted,
}

/// How a task finished its round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The task committed; its locks stay stamped until the barrier
    /// (or, in a pipelined lane, until a later task takes them over).
    Committed,
    /// The task aborted (lost a collision, was doomed, or requested).
    Aborted,
}

/// The full audit record of one task in one round.
#[derive(Clone, Debug)]
pub struct TaskTrace {
    /// The task's round slot (= its position in the drawn permutation,
    /// i.e. its commit priority).
    pub slot: usize,
    /// The epoch under which the task ran.
    pub epoch: u64,
    /// Events in program order.
    pub events: Vec<TraceEvent>,
    /// Final outcome.
    pub outcome: Outcome,
    /// The global lock index of the task's seed element, when the
    /// operator declares one (`Operator::conflict_seed`) — the anchor
    /// for the static↔dynamic radius cross-check.
    pub seed: Option<u64>,
}

impl TaskTrace {
    /// A fresh trace for `slot` under `epoch` (outcome defaults to
    /// `Aborted` until the task finishes).
    pub fn new(slot: usize, epoch: u64) -> Self {
        TaskTrace {
            slot,
            epoch,
            events: Vec::new(),
            outcome: Outcome::Aborted,
            seed: None,
        }
    }

    /// Every lock this task ever successfully acquired (deduplicated,
    /// in first-acquisition order).
    pub fn acquired(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for e in &self.events {
            if let TraceEvent::Acquired { lock, .. } = e {
                if !out.contains(lock) {
                    out.push(*lock);
                }
            }
        }
        out
    }

    /// The first conflict this task hit, if any: `(lock, holder)`.
    pub fn first_conflict(&self) -> Option<(usize, usize)> {
        self.events.iter().find_map(|e| match e {
            TraceEvent::Conflicted { lock, holder } => Some((*lock, *holder)),
            _ => None,
        })
    }

    /// Every datum this task accessed, with the strongest access kind
    /// per lock (`Write` beats `Read`), in first-access order.
    pub fn accessed(&self) -> Vec<(usize, AccessKind)> {
        let mut out: Vec<(usize, AccessKind)> = Vec::new();
        for e in &self.events {
            if let TraceEvent::Access { lock, kind, .. } = e {
                match out.iter_mut().find(|(l, _)| l == lock) {
                    Some((_, k)) => {
                        if *kind == AccessKind::Write {
                            *k = AccessKind::Write;
                        }
                    }
                    None => out.push((*lock, *kind)),
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquired_dedups_in_order() {
        let mut t = TaskTrace::new(3, 7);
        t.events.push(TraceEvent::Acquired {
            lock: 5,
            from: None,
        });
        t.events.push(TraceEvent::Acquired {
            lock: 2,
            from: None,
        });
        t.events.push(TraceEvent::Acquired {
            lock: 5,
            from: None,
        });
        assert_eq!(t.acquired(), vec![5, 2]);
    }

    #[test]
    fn accessed_upgrades_to_write() {
        let mut t = TaskTrace::new(0, 0);
        t.events.push(TraceEvent::Access {
            lock: 1,
            kind: AccessKind::Read,
            covered: true,
        });
        t.events.push(TraceEvent::Access {
            lock: 1,
            kind: AccessKind::Write,
            covered: true,
        });
        assert_eq!(t.accessed(), vec![(1, AccessKind::Write)]);
    }

    #[test]
    fn first_conflict_found() {
        let mut t = TaskTrace::new(1, 0);
        t.events.push(TraceEvent::Acquired {
            lock: 0,
            from: None,
        });
        t.events.push(TraceEvent::Conflicted { lock: 4, holder: 9 });
        assert_eq!(t.first_conflict(), Some((4, 9)));
    }
}
