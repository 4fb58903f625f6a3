#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]

//! # optpar-runtime — a speculative task runtime built from scratch
//!
//! The paper's controller is designed to sit inside an optimistic
//! (Galois-style) parallelization runtime. No such runtime exists in
//! the Rust ecosystem, so this crate builds one:
//!
//! * [`lock`] — **abstract locks**: one epoch-stamped atomic owner
//!   word per shared datum. A task must hold the lock on every datum
//!   it touches; a task that requests an already-held lock aborts
//!   itself (first-wins, the runtime's one arbitration rule). Every
//!   lock *lane* — lane 0 for barrier rounds, one per pipelined
//!   worker — keeps its epoch in one lane table, and retiring a batch
//!   (the round barrier included) is a single bump of its lane.
//! * [`pool`] — [`pool::WorkerPool`], persistent worker threads
//!   created once per executor and parked between rounds.
//! * [`store`] — [`store::SpecStore`], a speculation-aware shared
//!   array: reads and writes go through a [`task::TaskCtx`], which
//!   enforces lock ownership and records copy-on-write undo snapshots.
//! * [`task`] — the task-side API ([`task::TaskCtx`]): a task runs
//!   holding the locks it has acquired so far, then either commits or
//!   rolls back (`Running → Committed / Aborted`); only the task
//!   itself moves between those states.
//! * [`exec`] — the [`exec::Executor`] and the one copy of the
//!   paper's temporal step: draw `m` tasks from the [`exec::WorkSet`]
//!   — uniformly at random (the paper's model §2) among the tasks of
//!   the lowest [`task::Ranked::rank`], which is all of them unless
//!   the task type says otherwise — run them as one batch (`run_batch`:
//!   `speculate` each under panic containment and book its outcome,
//!   losers rolled back and re-queued), retire the batch with one lane
//!   bump, and take the control step (`control_step`) that reports the
//!   realized conflict ratio to a processor-allocation
//!   [`Controller`](optpar_core::control::Controller) and hands back
//!   the next budget. A barrier round is that step on lock lane 0.
//! * [`faults`] — fault tolerance: operator panics are contained per
//!   task (`catch_unwind` → structured [`faults::TaskFault`], rollback,
//!   re-queue — the worker thread survives), with a deterministic
//!   seeded fault-injection plan behind the `faults` feature. Aborted
//!   or faulted tasks age toward the front of the drawn prefix after
//!   [`exec::ExecutorConfig::retry_budget`] retries, so no task
//!   starves; a round watchdog shrinks `m` toward 1 under sustained
//!   zero-commit stalls.
//! * [`pipelined`] — the barrier-free **epoch-pipelined** engine: the
//!   same batch loop on a lock lane per worker, behind an in-flight
//!   speculation budget and over a sharded work-set, taking the same
//!   control step once per window of completions — batch release stays
//!   O(1) without a global epoch bump and one slow task no longer
//!   stalls the world.
//!   Continuous (one-task-at-a-time) execution is this mode at
//!   [`pipelined::PipelinedConfig::batch`]` = 1`.
//!
//! ## Execution model
//!
//! One **round** = one temporal step of the paper's model. Locks are
//! held until the end of the task (commit or rollback), never across
//! rounds. A task that fails to acquire a lock aborts, restores its
//! writes from the undo log (it still holds every lock it wrote
//! under, so restoration is exclusive), releases its locks, and is
//! returned to the work-set for a later round. Commit hands back the
//! operator's newly spawned tasks, which enter the work-set
//! (amorphous data-parallelism: work begets work).
//!
//! ## Safety
//!
//! Shared state lives in [`store::SpecStore`], which wraps
//! `UnsafeCell` slots. All access is mediated by [`task::TaskCtx`],
//! which checks abstract-lock ownership at run time before handing out
//! references; exclusivity of a held lock is what makes the `unsafe`
//! blocks sound. The invariants are documented on each `unsafe` impl
//! and exercised by stress tests plus differential tests against the
//! sequential model in `optpar-core`.

pub mod arena;
pub mod exec;
pub mod faults;
pub mod lock;
pub mod phase;
pub mod pipelined;
pub mod pool;
mod probe;
pub mod service;
pub mod shard;
pub mod stats;
pub mod store;
pub mod task;

/// The speculation-safety analysis layer (`optpar-checker`),
/// re-exported so downstream tests can drive the audit sink.
#[cfg(feature = "checker")]
pub use optpar_checker as checker;

/// The observability layer (`optpar-obs`), re-exported so downstream
/// tests and tools can drain logs, fold metrics, export traces, and
/// run the trace validator.
#[cfg(feature = "obs")]
pub use optpar_obs as obs;

pub use arena::AppendArena;
pub use exec::{Executor, ExecutorConfig, WorkSet};
#[cfg(feature = "faults")]
pub use faults::{silence_injected_panics, FaultKind, FaultPlan, FaultRecord};
pub use faults::{DeadLetter, FaultCause, FaultLog, TaskFault, DEFAULT_FAULT_LOG_CAP};
pub use lock::{ConflictPolicy, LockSpace, Region};
pub use phase::{Deadline, Phase, PhaseBreakdown, PhaseClock, Stopwatch};
pub use pipelined::{PipelinedConfig, Placement};
pub use pool::WorkerPool;
#[cfg(feature = "faults")]
pub use service::ChaosConfig;
pub use service::{
    serve, JobCx, JobError, JobFn, JobOutput, JobReport, JobService, JobSpec, JobTicket, Rejection,
    ServiceConfig, ServiceStats,
};
pub use shard::{ShardMap, SHARD_ALIGN};
pub use stats::{RoundStats, RunStats};
pub use store::SpecStore;
pub use task::{Abort, Operator, Ranked, TaskCtx};
