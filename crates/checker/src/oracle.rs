//! The commit-set oracle.
//!
//! The paper's round model (PAPER.md §2) defines the committed set of
//! a round as the *greedy maximal independent set of the drawn prefix,
//! built in permutation order*: walk the prefix; a task commits iff no
//! earlier **committed** task conflicts with it. Under sequential
//! execution (`workers == 1`) a barrier round realizes exactly this
//! process, so the oracle can recompute it independently from the
//! round's traces — each task's acquired lockset is the conflict
//! neighbourhood — and diff the reconstruction against what the
//! runtime actually did. First-wins arbitration bugs (a lost
//! release, a stale-epoch alias, a held word overwritten) then surface
//! as [`Report::OracleDivergence`] carrying the offending permutation,
//! instead of silently skewing the measured conflict ratio `r̄(m)`.
//! A pipelined lane does not retain — a finished holder's lock is
//! free — so its sequential batches commit a *superset* of that set;
//! [`audit_sequential_batch`] is the rule there.
//!
//! When the application's conflict structure *is* an explicit CC
//! graph (MIS, coloring), [`diff_commit_set`] diffs a committed node
//! set against [`optpar_graph::mis::greedy_prefix_mis`] directly.

use crate::report::Report;
use crate::trace::{Outcome, TaskTrace, TraceEvent};
use optpar_graph::mis::greedy_prefix_mis;
use optpar_graph::{ConflictGraph, CsrGraph, NodeId};
use std::collections::HashMap;

/// Reconstruct the greedy commit set from one sequential round's
/// traces and diff it against the actual outcomes.
///
/// Valid only for rounds executed inline in priority order
/// (`workers == 1`): there, a task must abort iff one of its requested
/// locks is held by an earlier committed task, and commit otherwise.
/// Parallel rounds are arbitration-order dependent and are covered by
/// the (weaker) invariants of [`crate::lockset`] instead.
///
/// Returns at most one report, carrying every divergent slot plus the
/// full permutation (each slot's acquired lockset in priority order).
pub fn audit_sequential_round(traces: &[TaskTrace]) -> Option<Report> {
    let epoch = traces.first()?.epoch;
    let mut by_slot: Vec<&TaskTrace> = traces.iter().collect();
    by_slot.sort_by_key(|t| t.slot);

    // Locks held by tasks that actually committed so far (slot kept
    // for the divergence report).
    let mut held: HashMap<usize, usize> = HashMap::new();
    let mut missing: Vec<usize> = Vec::new();
    let mut extra: Vec<(usize, usize, usize)> = Vec::new();

    for t in &by_slot {
        // The oracle's expected outcome: walk the task's lock requests
        // in program order; the first one held by an earlier committer
        // kills it.
        let mut requested: Vec<usize> = Vec::new();
        let mut self_abort = false;
        for e in &t.events {
            match e {
                TraceEvent::Acquired { lock, .. } => requested.push(*lock),
                TraceEvent::Conflicted { lock, .. } => requested.push(*lock),
                TraceEvent::Access { .. } => {}
                // Requested aborts are the application's call; faults
                // (contained panics, injected aborts) are acts of god.
                // Neither is the greedy rule's jurisdiction.
                TraceEvent::AbortRequested | TraceEvent::Faulted => self_abort = true,
            }
        }
        let expected_kill = requested
            .iter()
            .find_map(|l| held.get(l).map(|&holder| (*l, holder)));

        match (expected_kill, t.outcome) {
            (None, Outcome::Committed) | (Some(_), Outcome::Aborted) => {}
            // An operator-requested abort is the application's call,
            // outside the greedy rule's jurisdiction.
            (None, Outcome::Aborted) if self_abort => {}
            (None, Outcome::Aborted) => missing.push(t.slot),
            (Some((lock, holder)), Outcome::Committed) => extra.push((t.slot, lock, holder)),
        }

        // Downstream state tracks *actual* committers so one divergence
        // does not cascade into false positives.
        if t.outcome == Outcome::Committed {
            for l in t.acquired() {
                held.insert(l, t.slot);
            }
        }
    }

    if missing.is_empty() && extra.is_empty() {
        return None;
    }
    Some(Report::OracleDivergence {
        epoch,
        missing,
        extra,
        permutation: by_slot.iter().map(|t| (t.slot, t.acquired())).collect(),
    })
}

/// The commit-set oracle for one sequential (`workers == 1`)
/// *pipelined* batch.
///
/// A lane does not retain: a finished holder's lock is free, so at
/// one worker — one lane, one task at a time — no acquisition can
/// fail and **nothing aborts except by its own doing**
/// ([`TraceEvent::AbortRequested`] / [`TraceEvent::Faulted`]). That is
/// the whole rule, and it implies the paper's: every task the greedy
/// prefix-MIS of [`audit_sequential_round`] would commit still
/// commits, so the batch's committed set is a *superset* of it — the
/// tasks a round would have aborted against an earlier committed
/// holder commit too, serialized after that holder by a recorded
/// takeover ([`crate::lockset::LockLedger`] checks each one).
///
/// Returns at most one report, listing every unexcused abort as a
/// missing commit.
pub fn audit_sequential_batch(traces: &[TaskTrace]) -> Option<Report> {
    let epoch = traces.first()?.epoch;
    let excused = |t: &TaskTrace| {
        t.events
            .iter()
            .any(|e| matches!(e, TraceEvent::AbortRequested | TraceEvent::Faulted))
    };
    let missing: Vec<usize> = traces
        .iter()
        .filter(|t| t.outcome == Outcome::Aborted && !excused(t))
        .map(|t| t.slot)
        .collect();
    if missing.is_empty() {
        return None;
    }
    Some(Report::OracleDivergence {
        epoch,
        missing,
        extra: Vec::new(),
        permutation: traces.iter().map(|t| (t.slot, t.acquired())).collect(),
    })
}

/// Diff a committed node set against the greedy-by-permutation MIS of
/// `prefix` on an explicit CC graph.
///
/// `prefix` is the drawn permutation prefix in priority order;
/// `committed` is the set of nodes the runtime committed this round
/// (any order). Returns a [`Report::OracleDivergence`] (slots are node
/// ids here) if they differ.
pub fn diff_commit_set(g: &CsrGraph, prefix: &[NodeId], committed: &[NodeId]) -> Option<Report> {
    let expected = greedy_prefix_mis(g, prefix);
    let mut expected_set = vec![false; g.node_count()];
    for &v in &expected {
        expected_set[v as usize] = true;
    }
    let mut actual_set = vec![false; g.node_count()];
    for &v in committed {
        actual_set[v as usize] = true;
    }
    let missing: Vec<usize> = expected
        .iter()
        .filter(|&&v| !actual_set[v as usize])
        .map(|&v| v as usize)
        .collect();
    // For an extra commit, name the committed neighbour that should
    // have killed it (the earliest one in the prefix).
    let pos: HashMap<NodeId, usize> = prefix.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let extra: Vec<(usize, usize, usize)> = committed
        .iter()
        .filter(|&&v| !expected_set[v as usize])
        .map(|&v| {
            let killer = g
                .neighbors_slice(v)
                .iter()
                .filter(|&&w| expected_set[w as usize])
                .min_by_key(|&&w| pos.get(&w).copied().unwrap_or(usize::MAX))
                .copied()
                .unwrap_or(v);
            (v as usize, v as usize, killer as usize)
        })
        .collect();
    if missing.is_empty() && extra.is_empty() {
        return None;
    }
    Some(Report::OracleDivergence {
        epoch: 0,
        missing,
        extra,
        permutation: prefix.iter().map(|&v| (v as usize, Vec::new())).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::AccessKind;

    fn trace(slot: usize, outcome: Outcome, events: Vec<TraceEvent>) -> TaskTrace {
        TaskTrace {
            slot,
            epoch: 11,
            events,
            outcome,
            seed: None,
        }
    }

    fn acq(lock: usize) -> TraceEvent {
        TraceEvent::Acquired { lock, from: None }
    }

    #[test]
    fn faithful_greedy_round_passes() {
        // Slot 0 commits {0,1}; slot 1 conflicts on 1; slot 2 commits
        // {2}; slot 3 conflicts on 2.
        let ts = vec![
            trace(0, Outcome::Committed, vec![acq(0), acq(1)]),
            trace(
                1,
                Outcome::Aborted,
                vec![TraceEvent::Conflicted { lock: 1, holder: 0 }],
            ),
            trace(2, Outcome::Committed, vec![acq(2)]),
            trace(
                3,
                Outcome::Aborted,
                vec![acq(3), TraceEvent::Conflicted { lock: 2, holder: 2 }],
            ),
        ];
        assert_eq!(audit_sequential_round(&ts), None);
    }

    #[test]
    fn extra_commit_is_flagged_with_killer() {
        // Slot 1 commits despite requesting lock 0, already committed
        // by slot 0 — the greedy rule says it must abort.
        let ts = vec![
            trace(0, Outcome::Committed, vec![acq(0)]),
            trace(1, Outcome::Committed, vec![acq(0), acq(5)]),
        ];
        let r = audit_sequential_round(&ts).expect("divergence");
        match r {
            Report::OracleDivergence {
                epoch,
                missing,
                extra,
                permutation,
            } => {
                assert_eq!(epoch, 11);
                assert!(missing.is_empty());
                assert_eq!(extra, vec![(1, 0, 0)]);
                assert_eq!(permutation.len(), 2);
            }
            other => panic!("wrong report: {other:?}"),
        }
    }

    #[test]
    fn missing_commit_is_flagged() {
        // Slot 1 aborted although nothing it requested was held by a
        // committed predecessor.
        let ts = vec![
            trace(0, Outcome::Committed, vec![acq(0)]),
            trace(
                1,
                Outcome::Aborted,
                vec![TraceEvent::Conflicted { lock: 4, holder: 0 }],
            ),
        ];
        let r = audit_sequential_round(&ts).expect("divergence");
        match r {
            Report::OracleDivergence { missing, extra, .. } => {
                assert_eq!(missing, vec![1]);
                assert!(extra.is_empty());
            }
            other => panic!("wrong report: {other:?}"),
        }
    }

    #[test]
    fn abort_unblocks_later_task() {
        // The §2.1 pattern on a path 0-1-2 (locks = shared data):
        // slot 0 commits, slot 1 aborts on slot 0's lock, slot 2 may
        // then commit even though it shares a lock with slot 1.
        let ts = vec![
            trace(0, Outcome::Committed, vec![acq(0), acq(1)]),
            trace(
                1,
                Outcome::Aborted,
                vec![TraceEvent::Conflicted { lock: 1, holder: 0 }],
            ),
            trace(2, Outcome::Committed, vec![acq(2), acq(3)]),
        ];
        assert_eq!(audit_sequential_round(&ts), None);
    }

    #[test]
    fn faulted_task_is_excused() {
        // Slot 1 aborted with no committed predecessor holding its
        // locks — normally a missing commit — but it faulted (panic
        // contained by the runtime), which excuses the abort.
        let ts = vec![
            trace(0, Outcome::Committed, vec![acq(0)]),
            trace(1, Outcome::Aborted, vec![acq(4), TraceEvent::Faulted]),
        ];
        assert_eq!(audit_sequential_round(&ts), None);
    }

    /// The lane oracle: shared locks are fine (takeovers), excused
    /// aborts are fine, a conflict abort at one worker is not.
    #[test]
    fn sequential_batch_commits_everything_it_is_not_excused_from() {
        let take = |lock, slot| TraceEvent::Acquired {
            lock,
            from: Some((11, slot)),
        };
        let clean = vec![
            trace(0, Outcome::Committed, vec![acq(0), acq(1)]),
            // A round would abort this one against slot 0.
            trace(1, Outcome::Committed, vec![take(1, 0), acq(2)]),
            trace(2, Outcome::Aborted, vec![acq(3), TraceEvent::Faulted]),
            trace(3, Outcome::Aborted, vec![TraceEvent::AbortRequested]),
        ];
        assert_eq!(audit_sequential_batch(&clean), None);
        assert!(
            audit_sequential_round(&clean).is_some(),
            "the round oracle forbids the shared lock"
        );

        let lost = vec![
            trace(0, Outcome::Committed, vec![acq(0)]),
            trace(
                1,
                Outcome::Aborted,
                vec![TraceEvent::Conflicted { lock: 0, holder: 0 }],
            ),
        ];
        match audit_sequential_batch(&lost).expect("divergence") {
            Report::OracleDivergence { missing, extra, .. } => {
                assert_eq!(missing, vec![1]);
                assert!(extra.is_empty());
            }
            other => panic!("wrong report: {other:?}"),
        }
    }

    #[test]
    fn reads_do_not_confuse_reconstruction() {
        let ts = vec![trace(
            0,
            Outcome::Committed,
            vec![
                acq(0),
                TraceEvent::Access {
                    lock: 0,
                    kind: AccessKind::Read,
                    covered: true,
                },
            ],
        )];
        assert_eq!(audit_sequential_round(&ts), None);
    }

    #[test]
    fn cc_graph_diff_accepts_true_greedy() {
        // Path 0-1-2-3, prefix [1, 0, 2, 3] -> greedy MIS {1, 3}.
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(diff_commit_set(&g, &[1, 0, 2, 3], &[1, 3]), None);
        assert_eq!(diff_commit_set(&g, &[1, 0, 2, 3], &[3, 1]), None);
    }

    #[test]
    fn cc_graph_diff_flags_wrong_set() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        // Committing 2 alongside 1 violates independence; greedy says
        // {1, 3}.
        let r = diff_commit_set(&g, &[1, 0, 2, 3], &[1, 2]).expect("divergence");
        match r {
            Report::OracleDivergence { missing, extra, .. } => {
                assert_eq!(missing, vec![3]);
                assert_eq!(extra.len(), 1);
                assert_eq!(extra[0].0, 2);
                assert_eq!(extra[0].2, 1, "killer is committed neighbour 1");
            }
            other => panic!("wrong report: {other:?}"),
        }
    }
}
