//! The audit sink: where the runtime deposits traces and the analyses
//! deposit reports.
//!
//! One [`AuditSink`] lives inside each `LockSpace` in checker builds.
//! The round-synchronous executor *arms* it before launching a round
//! and *drains* it at the barrier, which runs the lockset analysis
//! (always) and the sequential commit-set oracle (inline rounds). A
//! disarmed sink drops trace pushes in O(1). The *pipelined* executor
//! arms it once per run and calls [`AuditSink::drain_window`] at every controller
//! window: the window's traces first replay, in deposit order, against
//! the run's [`LockLedger`] (no lock held by two live tasks; every
//! takeover from the lock's last committed holder), then are grouped
//! by lane tag back into batches for the batch-scoped analysis, with
//! the sink staying armed across windows until [`AuditSink::disarm`].
//!
//! Epoch-transition assertions ([`AuditSink::assert_epoch_step`],
//! [`AuditSink::assert_wrap_swept`], [`AuditSink::report_now`]) bypass
//! arming: they fire on every `LockSpace` transition regardless of
//! execution mode.

use crate::lockset::{self, LockLedger};
use crate::oracle;
use crate::report::Report;
use crate::trace::TaskTrace;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// What to do when a round's audit finds violations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CheckerMode {
    /// Panic with the joined report text (fail fast; the default).
    #[default]
    Panic,
    /// Store reports for later inspection via
    /// [`AuditSink::take_reports`] — used by fault-injection tests
    /// that assert on report structure.
    Collect,
}

/// The static contract the radius cross-check audits against: the
/// operator's declared radius d̂ (from `FOOTPRINT.toml`) plus a hop
/// metric over the conflict graph. `dist(seed, lock)` returns the hop
/// distance from the seed element to the datum guarded by `lock`, or
/// `None` for locks outside the mapped element region (auxiliary
/// regions are exempt from the ball).
pub struct RadiusPolicy {
    /// Declared static conflict radius d̂.
    pub radius: u32,
    /// Hop metric: `(seed global lock index, acquired lock) -> hops`.
    pub dist: Box<dyn Fn(u64, usize) -> Option<u32> + Send + Sync>,
}

impl std::fmt::Debug for RadiusPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RadiusPolicy")
            .field("radius", &self.radius)
            .field("dist", &"<fn>")
            .finish()
    }
}

#[derive(Debug, Default)]
struct SinkState {
    armed: bool,
    sequential: bool,
    traces: Vec<TaskTrace>,
    /// The pipelined run's lock stamps, carried across its windows.
    ledger: LockLedger,
    reports: Vec<Report>,
    mode: CheckerMode,
    radius_policy: Option<RadiusPolicy>,
}

/// Shared deposit point for traces and reports (see module docs).
#[derive(Debug, Default)]
pub struct AuditSink {
    state: Mutex<SinkState>,
}

/// Recover the sink state even if a checker panic (Panic mode fires
/// while the lock is held by an unwinding worker) poisoned the mutex:
/// `SinkState` is a plain log, valid at every intermediate state, and
/// the sink must stay usable from the round barrier after containment.
fn recover<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

impl AuditSink {
    /// A fresh, disarmed sink in [`CheckerMode::Panic`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Switch violation handling mode.
    pub fn set_mode(&self, mode: CheckerMode) {
        recover(self.state.lock()).mode = mode;
    }

    /// The active mode.
    pub fn mode(&self) -> CheckerMode {
        recover(self.state.lock()).mode
    }

    /// Install (or clear) the static-radius cross-check policy.
    /// When set, every drain also runs [`lockset::audit_radius`] over
    /// the seeded traces against the declared radius.
    pub fn set_radius_policy(&self, policy: Option<RadiusPolicy>) {
        recover(self.state.lock()).radius_policy = policy;
    }

    /// Begin collecting traces for one round. `sequential` marks the
    /// round as inline-in-priority-order, enabling the commit-set
    /// oracle at drain time.
    pub fn arm(&self, sequential: bool) {
        let mut st = recover(self.state.lock());
        st.armed = true;
        st.sequential = sequential;
        st.traces.clear();
        // A run starts, like a round, with every lock free.
        st.ledger = LockLedger::default();
    }

    /// Deposit one finished task's trace. Dropped when disarmed.
    pub fn push_trace(&self, t: TaskTrace) {
        let mut st = recover(self.state.lock());
        if st.armed {
            st.traces.push(t);
        }
    }

    /// Round barrier: run the analyses over the collected traces,
    /// disarm, and handle any findings per the mode.
    ///
    /// # Panics
    /// In [`CheckerMode::Panic`], panics with the joined report text
    /// if any violation was found.
    pub fn drain_round(&self) {
        let (found, mode) = {
            let mut st = recover(self.state.lock());
            if !st.armed {
                return;
            }
            st.armed = false;
            let traces = std::mem::take(&mut st.traces);
            let mut found = lockset::audit_round(&traces);
            if st.sequential {
                found.extend(oracle::audit_sequential_round(&traces));
            }
            if let Some(p) = &st.radius_policy {
                found.extend(lockset::audit_radius(p.radius, &*p.dist, &traces));
            }
            st.reports.extend(found.iter().cloned());
            (found, st.mode)
        };
        if mode == CheckerMode::Panic && !found.is_empty() {
            // PANIC-OK: CheckerMode::Panic is the fail-fast audit mode;
            // failing the round loudly on a safety violation is its contract.
            panic!("{}", join_reports(&found));
        }
    }

    /// Pipelined window drain: audit the collected traces and leave
    /// the sink armed for the next window.
    ///
    /// The traces first replay against the run's [`LockLedger`] in
    /// deposit order — the conflict-serializability rule: a lock
    /// changes hands between two tasks of a batch only by a takeover
    /// from its last committed holder. Then, since pipelined traces
    /// carry their batch's lane tag as `epoch`, grouping by epoch
    /// reassembles the batches, and each group gets the batch-scoped
    /// lockset analysis ([`lockset::audit_batch`]) plus, when armed
    /// sequential, the lane commit-set oracle
    /// ([`oracle::audit_sequential_batch`]: at one worker nothing
    /// aborts but by its own doing).
    ///
    /// # Panics
    /// In [`CheckerMode::Panic`], panics with the joined report text
    /// if any violation was found.
    pub fn drain_window(&self) {
        let (found, mode) = {
            let mut st = recover(self.state.lock());
            if !st.armed {
                return;
            }
            let traces = std::mem::take(&mut st.traces);
            let mut found = st.ledger.audit(&traces);
            // Group by lane tag, preserving deposit order within each
            // batch.
            let mut groups: Vec<Vec<TaskTrace>> = Vec::new();
            for t in traces {
                match groups
                    .iter_mut()
                    .find(|g| g.first().is_some_and(|h| h.epoch == t.epoch))
                {
                    Some(g) => g.push(t),
                    None => groups.push(vec![t]),
                }
            }
            for g in &groups {
                found.extend(lockset::audit_batch(g));
                if st.sequential {
                    found.extend(oracle::audit_sequential_batch(g));
                }
                if let Some(p) = &st.radius_policy {
                    found.extend(lockset::audit_radius(p.radius, &*p.dist, g));
                }
            }
            st.reports.extend(found.iter().cloned());
            (found, st.mode)
        };
        if mode == CheckerMode::Panic && !found.is_empty() {
            // PANIC-OK: CheckerMode::Panic is the fail-fast audit mode.
            panic!("{}", join_reports(&found));
        }
    }

    /// Stop collecting traces (end of a pipelined run) and drop any
    /// still buffered.
    pub fn disarm(&self) {
        let mut st = recover(self.state.lock());
        st.armed = false;
        st.traces.clear();
    }

    /// File a report immediately (epoch invariants fire outside the
    /// arm/drain cycle). Respects the mode.
    ///
    /// # Panics
    /// In [`CheckerMode::Panic`], panics with the report text.
    pub fn report_now(&self, r: Report) {
        let mode = {
            let mut st = recover(self.state.lock());
            st.reports.push(r.clone());
            st.mode
        };
        if mode == CheckerMode::Panic {
            // PANIC-OK: fail-fast mode, as above.
            panic!("{r}");
        }
    }

    /// Assert an epoch bump was a monotonic `+1` step.
    pub fn assert_epoch_step(&self, old: u64, new: u64) {
        if new != old.wrapping_add(1) {
            self.report_now(Report::EpochInvariant {
                epoch: new,
                detail: format!("epoch stepped {old} -> {new}, expected {}", old + 1),
            });
        }
    }

    /// Assert no lane-0-tagged word survived lane 0's wraparound
    /// sweep. `stale_word` is the first offending `(index, raw word)`
    /// found by the caller's post-sweep scan, if any.
    pub fn assert_wrap_swept(&self, epoch: u64, stale_word: Option<(usize, u64)>) {
        if let Some((idx, raw)) = stale_word {
            self.report_now(Report::EpochInvariant {
                epoch,
                detail: format!(
                    "lane 0's wraparound sweep left word {idx} = {raw:#x} behind; a \
                     task abandoned 2^24 epochs ago could alias the reused tag"
                ),
            });
        }
    }

    /// Take all accumulated reports (drains the log).
    pub fn take_reports(&self) -> Vec<Report> {
        std::mem::take(&mut recover(self.state.lock()).reports)
    }

    /// Number of accumulated reports without draining.
    pub fn report_count(&self) -> usize {
        recover(self.state.lock()).reports.len()
    }
}

/// Join reports into one panic message.
fn join_reports(reports: &[Report]) -> String {
    let mut s = format!(
        "speculation-safety audit failed ({} finding(s)):",
        reports.len()
    );
    for r in reports {
        s.push_str("\n  - ");
        s.push_str(&r.to_string());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Outcome, TraceEvent};

    fn committed_pair_on(lock: usize) -> Vec<TaskTrace> {
        (0..2)
            .map(|slot| TaskTrace {
                slot,
                epoch: 1,
                events: vec![TraceEvent::Acquired { lock, from: None }],
                outcome: Outcome::Committed,
                seed: None,
            })
            .collect()
    }

    #[test]
    fn disarmed_sink_drops_traces() {
        let sink = AuditSink::new();
        for t in committed_pair_on(0) {
            sink.push_trace(t);
        }
        sink.drain_round(); // no-op: never armed
        assert_eq!(sink.report_count(), 0);
    }

    #[test]
    fn armed_sink_audits_and_collects() {
        let sink = AuditSink::new();
        sink.set_mode(CheckerMode::Collect);
        sink.arm(false);
        for t in committed_pair_on(3) {
            sink.push_trace(t);
        }
        sink.drain_round();
        let reports = sink.take_reports();
        assert_eq!(reports.len(), 1);
        assert!(matches!(reports[0], Report::Race { lock: 3, .. }));
        // Drained.
        assert_eq!(sink.report_count(), 0);
    }

    #[test]
    fn panic_mode_panics_with_report_text() {
        let sink = AuditSink::new();
        sink.arm(false);
        for t in committed_pair_on(9) {
            sink.push_trace(t);
        }
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sink.drain_round()))
            .expect_err("must panic");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic payload is a String");
        assert!(msg.contains("RACE on lock 9"), "got: {msg}");
    }

    #[test]
    fn window_drain_groups_by_lane_tag_and_stays_armed() {
        let sink = AuditSink::new();
        sink.set_mode(CheckerMode::Collect);
        sink.arm(false);
        // Two batches interleaved in deposit order: lane tags 0x0100_0007
        // and 0x0200_0003. Within the first, two committers share lock
        // 1 with no takeover between them (a race); the second is
        // clean.
        let tag_a = (1u64 << 24) | 7;
        let tag_b = (2u64 << 24) | 3;
        let mk = |slot, epoch, lock| TaskTrace {
            slot,
            epoch,
            events: vec![TraceEvent::Acquired { lock, from: None }],
            outcome: Outcome::Committed,
            seed: None,
        };
        sink.push_trace(mk(0, tag_a, 1));
        sink.push_trace(mk(2, tag_b, 9));
        sink.push_trace(mk(1, tag_a, 1));
        sink.push_trace(mk(3, tag_b, 4));
        sink.drain_window();
        let reports = sink.take_reports();
        assert_eq!(reports.len(), 1, "only the intra-batch race: {reports:?}");
        assert!(matches!(reports[0], Report::Race { lock: 1, .. }));
        // Still armed: the next window keeps collecting.
        sink.push_trace(mk(0, tag_a, 5));
        sink.push_trace(mk(1, tag_a, 5));
        sink.drain_window();
        assert_eq!(sink.take_reports().len(), 1);
        // Disarm drops buffered traces and stops collection.
        sink.push_trace(mk(0, tag_a, 6));
        sink.disarm();
        sink.push_trace(mk(1, tag_a, 6));
        sink.drain_window(); // no-op: disarmed
        assert_eq!(sink.report_count(), 0);
    }

    #[test]
    fn radius_policy_flags_out_of_ball_lock_and_skips_unseeded() {
        let sink = AuditSink::new();
        sink.set_mode(CheckerMode::Collect);
        // Hop metric: |lock - seed| on a line graph; lock 100+ is an
        // auxiliary region outside the ball.
        sink.set_radius_policy(Some(RadiusPolicy {
            radius: 1,
            dist: Box::new(|seed, lock| {
                if lock >= 100 {
                    None
                } else {
                    Some((lock as i64 - seed as i64).unsigned_abs() as u32)
                }
            }),
        }));
        sink.arm(false);
        let seeded = |slot, seed, locks: Vec<usize>| TaskTrace {
            slot,
            epoch: 1,
            events: locks
                .into_iter()
                .map(|lock| TraceEvent::Acquired { lock, from: None })
                .collect(),
            outcome: Outcome::Committed,
            seed: Some(seed),
        };
        // In ball (hops 0, 1), auxiliary (exempt), out of ball (hop 3).
        sink.push_trace(seeded(0, 10, vec![10, 11, 105]));
        sink.push_trace(seeded(1, 20, vec![23]));
        // Unseeded trace with a far lock: skipped.
        let mut unseeded = TaskTrace::new(2, 1);
        unseeded.events.push(TraceEvent::Acquired {
            lock: 90,
            from: None,
        });
        unseeded.outcome = Outcome::Committed;
        sink.push_trace(unseeded);
        sink.drain_round();
        let reports = sink.take_reports();
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert!(
            matches!(
                reports[0],
                Report::RadiusExceeded {
                    slot: 1,
                    seed: 20,
                    lock: 23,
                    dist: 3,
                    radius: 1,
                }
            ),
            "{reports:?}"
        );
    }

    #[test]
    fn epoch_step_assertion() {
        let sink = AuditSink::new();
        sink.set_mode(CheckerMode::Collect);
        sink.assert_epoch_step(5, 6); // fine
        assert_eq!(sink.report_count(), 0);
        sink.assert_epoch_step(5, 7); // broken
        let reports = sink.take_reports();
        assert!(matches!(reports[0], Report::EpochInvariant { .. }));
    }

    #[test]
    fn sequential_arm_runs_oracle() {
        let sink = AuditSink::new();
        sink.set_mode(CheckerMode::Collect);
        sink.arm(true);
        // Slot 1 commits over slot 0's committed lock: oracle + race.
        for t in committed_pair_on(4) {
            sink.push_trace(t);
        }
        sink.drain_round();
        let reports = sink.take_reports();
        assert!(reports
            .iter()
            .any(|r| matches!(r, Report::OracleDivergence { .. })));
        assert!(reports.iter().any(|r| matches!(r, Report::Race { .. })));
    }
}
