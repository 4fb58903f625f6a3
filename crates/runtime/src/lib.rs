#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]
// No panic source in non-test runtime code: a panic outside an
// operator's `catch_unwind` kills a pool worker or a service lane.
// Files whose indexing is bounds-safe by construction opt out of
// `indexing_slicing` at their top; a deliberate panic is an
// `#[expect(clippy::panic)]` with its reason.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

//! # optpar-runtime — a speculative task runtime built from scratch
//!
//! The paper's controller is designed to sit inside an optimistic
//! (Galois-style) parallelization runtime. No such runtime exists in
//! the Rust ecosystem, so this crate builds one:
//!
//! * [`lock`] — **abstract locks**: one atomic owner word per shared
//!   datum, holding `slot + 1` of its holder (0 = free). A task must
//!   hold the lock on every datum it touches; a task that requests an
//!   already-held lock aborts itself (first-wins, the runtime's one
//!   arbitration rule). A pipelined lane's task releases what it took
//!   when it finishes; only a model round's committed tasks keep their
//!   locks, until the round barrier releases them.
//! * [`pool`] — [`pool::WorkerPool`], persistent worker threads
//!   created once per executor and parked between drains; lanes run
//!   on them.
//! * [`store`] — [`store::SpecStore`], a speculation-aware shared
//!   array: reads and writes go through a [`task::TaskCtx`], which
//!   enforces lock ownership; writes go in place.
//! * [`task`] — the task-side API ([`task::TaskCtx`]): a task runs
//!   holding the locks it has acquired so far, then either commits or
//!   rolls back (`Running → Committed / Aborted`); only the task
//!   itself moves between those states. Every operator is cautious:
//!   it seals ([`task::TaskCtx::seal`]) after its last lock and writes
//!   in place, through [`task::Sealed`] or through
//!   [`task::TaskCtx::write`], whose first call seals.
//! * [`exec`] — the [`exec::Executor`] and the one copy of the
//!   paper's temporal step: draw `m` tasks from the [`exec::WorkSet`]
//!   — uniformly at random (the paper's model §2) among the tasks of
//!   the lowest [`task::Ranked::rank`], which is all of them unless
//!   the task type says otherwise — run them as one batch (`run_batch`:
//!   `speculate` each under panic containment and book its outcome,
//!   losers rolled back and re-queued), release the batch's locks,
//!   and take the control step (`control_step`) that reports the
//!   realized conflict ratio to a processor-allocation
//!   [`Controller`](optpar_core::control::Controller) and hands back
//!   the next budget. A barrier round is that step in round mode,
//!   run inline on the caller's thread at every worker count. At one
//!   worker [`exec::Executor::run_with_controller`] runs the *solo*
//!   step instead: the newest `m` tasks, one at a time, stamping no
//!   lock word — a lone runner has nothing to conflict with — and
//!   [`exec::Executor::run_rounds`] asks for the model rounds by name.
//! * [`faults`] — fault tolerance: operator panics are contained per
//!   task (`catch_unwind` → structured [`faults::TaskFault`], rollback,
//!   re-queue — the calling thread or lane survives), and a
//!   deterministic seeded fault-injection plan can be attached at run
//!   time. Aborted or faulted tasks age toward the front of the drawn
//!   prefix after 8 retries, so no task starves; a watchdog shrinks
//!   `m` toward 1 after 4 consecutive zero-commit rounds or windows.
//! * [`pipelined`] — the barrier-free **epoch-pipelined** engine, the
//!   runtime's only parallel one: the same batch loop as a lane per
//!   worker, behind an in-flight
//!   speculation budget and over a sharded work-set, taking the same
//!   control step once per window of completions — no barrier, so one
//!   slow task no longer stalls the world. [`exec::Executor::run_with_controller`] drains
//!   through it whenever the executor has more than one worker.
//!   Continuous (one-task-at-a-time) execution is this mode at
//!   [`pipelined::PipelinedConfig::batch`]` = 1`.
//!
//! ## Execution model
//!
//! One **round** = one temporal step of the paper's model. Locks are
//! held until the end of the task (commit or rollback), never across
//! rounds. A task that fails to acquire a lock aborts before its seal,
//! so it has written nothing: it releases its locks and is returned to
//! the work-set for a later round. Commit hands back the
//! operator's newly spawned tasks, which enter the work-set
//! (amorphous data-parallelism: work begets work).
//!
//! ## Safety
//!
//! Shared state lives in [`store::SpecStore`], which wraps
//! `UnsafeCell` slots. All access is mediated by [`task::TaskCtx`],
//! which checks abstract-lock ownership at run time before handing out
//! references; exclusivity of a held lock is what makes the `unsafe`
//! blocks sound — or, for the solo runner's contexts, which hold no
//! lock, that a solo step holds its lock space's drain claim (every
//! drain claims its space, and a second drain over it panics) and runs
//! one task at a time. The invariants are documented on each `unsafe` impl
//! and exercised by stress tests plus differential tests against the
//! sequential model in `optpar-core`.

pub mod arena;
pub mod exec;
pub mod faults;
pub mod lock;
pub mod phase;
pub mod pipelined;
pub mod pool;
pub mod service;
pub mod shard;
pub mod stats;
pub mod store;
pub mod task;

/// The observability layer (`optpar-obs`), re-exported so downstream
/// tests and tools can drain logs, fold metrics, export traces, and
/// run the trace validator.
pub use optpar_obs as obs;

pub use arena::AppendArena;
pub use exec::{Executor, ExecutorConfig, WorkSet};
pub use faults::{
    silence_injected_panics, DeadLetter, FaultCause, FaultKind, FaultLog, FaultPlan, FaultRecord,
    TaskFault,
};
pub use lock::{ConflictPolicy, LockSpace, Region};
pub use phase::{Deadline, Phase, PhaseBreakdown, PhaseClock, Stopwatch};
pub use pipelined::{PipelinedConfig, Placement};
pub use pool::WorkerPool;
pub use service::{
    serve, ChaosConfig, JobCx, JobError, JobFn, JobOutput, JobReport, JobService, JobSpec,
    JobTicket, Rejection, ServiceConfig, ServiceStats,
};
pub use shard::{ShardMap, SHARD_ALIGN};
pub use stats::{RoundStats, RunStats};
pub use store::SpecStore;
pub use task::{Abort, Operator, Ranked, Sealed, TaskCtx};
