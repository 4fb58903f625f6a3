#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_debug_implementations)]

//! # optpar-checker — speculation-safety analysis for the runtime
//!
//! The paper's round model is only correct if (a) no two tasks ever
//! touch the same datum in the same epoch without the abstract-lock
//! protocol serializing them, and (b) the committed set of each round
//! is exactly the greedy-by-permutation maximal independent set of the
//! drawn prefix. The runtime's lock space enforces (a) with hand-rolled
//! atomics — precisely the code where a silent race would *skew the
//! conflict-ratio measurements* instead of crashing. This crate is the
//! falsifier: a shadow-state layer that the runtime threads through
//! its hot path under `cfg(feature = "checker")`.
//!
//! Three cooperating layers:
//!
//! * [`trace`] — per-task access traces: every lock acquisition (and,
//!   in a pipelined lane, the finished holder it took the word over
//!   from) and every data read/write is recorded as `(task, epoch,
//!   lock, lockset-at-access)`, together with the task's final outcome.
//! * [`lockset`] — the Eraser-style dynamic race checker: post-round
//!   analysis of the traces. Any access not covered by a held,
//!   current-epoch lock, any pair of committed tasks with intersecting
//!   locksets, and any same-epoch multi-writer datum with more than one
//!   committer produce a structured [`report::Report`] naming the task
//!   pair and epoch. Epoch-transition assertions (monotonic +1 bumps,
//!   wraparound sweeps, stale-owner CAS overwrites) live here too.
//!   Those are a barrier round's rules, where a committed task's
//!   retention is the commit rule. In a pipelined lane a finished
//!   holder's lock is free, and the second rule is restated as
//!   conflict-serializability by [`lockset::LockLedger`]: no lock is
//!   held by two live tasks — two tasks of a batch share one only
//!   through a recorded takeover from its last committed holder.
//! * [`oracle`] — the commit-set oracle: from the same traces, the
//!   drawn prefix's greedy MIS is recomputed sequentially and diffed
//!   against the runtime's committed set, so first-wins arbitration
//!   bugs surface as [`report::Report::OracleDivergence`]
//!   with the offending permutation — not as skewed `r̄(m)` curves.
//!   A sequential pipelined batch has the lane form of the rule
//!   ([`oracle::audit_sequential_batch`]): nothing aborts but by its
//!   own request or fault, so the committed set is a superset of that
//!   greedy MIS.
//!   [`oracle::diff_commit_set`] additionally diffs against an explicit
//!   CC graph when the application has one (MIS, coloring).
//!
//! The runtime owns one [`AuditSink`] per `LockSpace`. The sink is
//! *armed* at the start of a round-synchronous round and *drained* at
//! the barrier; the pipelined (barrier-free) executor keeps it armed
//! for the whole run and drains it at every controller window. While
//! disarmed, trace pushes are dropped without growing state. By default a
//! non-empty audit panics with the full report text (fail fast in
//! tests); [`CheckerMode::Collect`] stores reports for inspection
//! instead, which is how the deliberately-seeded race tests assert on
//! the report structure.

pub mod lockset;
pub mod oracle;
pub mod report;
pub mod sink;
pub mod trace;

pub use report::{AccessSummary, Report};
pub use sink::{AuditSink, CheckerMode};
pub use trace::{AccessKind, Outcome, TaskTrace, TraceEvent};
