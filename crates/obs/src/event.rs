//! The typed event vocabulary shared by the rings, the recorder, the
//! exporters, and the validator.
//!
//! Events are fixed-size `Copy` values so the ring buffer can store
//! them inline without allocation. Floating-point payloads travel as
//! IEEE-754 bit patterns (`f64::to_bits`) so the event stream stays
//! byte-comparable and `NaN` round-trips exactly.

/// Track id reserved for the controller/barrier track (round
/// boundaries, `m(t)`, `r̄(t)`, epoch bumps, audit findings). Worker
/// tracks use their worker index, which is always far below this.
pub const CTL_TRACK: u32 = u32::MAX;

/// Per-round task accounting carried by [`EventKind::RoundEnd`],
/// mirroring the executor's `RoundStats` fields that the validator
/// recomputes from raw events.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundTotals {
    /// Tasks launched this round (`m` capped by work available).
    pub launched: u32,
    /// Tasks that committed.
    pub committed: u32,
    /// Tasks that aborted on conflict or operator request.
    pub aborted: u32,
    /// Tasks that faulted (panic containment or injected fault).
    pub faulted: u32,
    /// New tasks spawned by committed tasks.
    pub spawned: u32,
}

/// One observable occurrence in the runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A round is about to launch `m` tasks under `epoch`.
    RoundBegin {
        /// Lock-space epoch the round runs under.
        epoch: u64,
        /// Allocation `m` chosen by the controller for this round.
        m: u64,
    },
    /// The round barrier: totals as merged by the executor.
    RoundEnd {
        /// Epoch the round ran under (same as its `RoundBegin`).
        epoch: u64,
        /// Allocation `m` (same as its `RoundBegin`).
        m: u64,
        /// Merged task accounting for the round.
        totals: RoundTotals,
    },
    /// A sampled task hit the retry budget and was aged to the back
    /// of the work set.
    RetryAged {
        /// Batch slot of the aged task.
        slot: u32,
        /// Retry count that tripped the budget.
        retries: u32,
    },
    /// A task began executing in `slot` under `epoch`.
    TaskLaunch {
        /// Batch slot (round mode) or strided worker slot (pipelined mode).
        slot: u32,
        /// Lock-space epoch at launch.
        epoch: u64,
    },
    /// A task committed.
    TaskCommit {
        /// Slot of the committing task.
        slot: u32,
        /// Abstract locks it held at commit.
        acquires: u32,
        /// New tasks it spawned.
        spawned: u32,
    },
    /// A task aborted (conflict or operator-requested).
    TaskAbort {
        /// Slot of the aborting task.
        slot: u32,
        /// Abstract locks it had acquired before rollback.
        acquires: u32,
    },
    /// A task faulted; `cause` is `FaultCause::code()`.
    TaskFault {
        /// Slot of the faulted task.
        slot: u32,
        /// Numeric fault cause (see `optpar-runtime` `FaultCause`).
        cause: u8,
    },
    /// An abstract lock was acquired (first acquisition only;
    /// reentrant hits are free and unrecorded).
    LockAcquire {
        /// Abstract lock index.
        lock: u64,
        /// Acquiring slot.
        slot: u32,
        /// Epoch the acquisition is tagged with.
        epoch: u64,
    },
    /// An acquisition lost a conflict (the task will abort).
    LockContend {
        /// Abstract lock index.
        lock: u64,
        /// Losing slot.
        slot: u32,
        /// Slot that held or stole the lock.
        holder: u32,
    },
    /// The round barrier advanced the lock-space epoch.
    EpochBump {
        /// Epoch before the bump.
        old: u64,
        /// Epoch after the bump (`old + 1`, wrapping).
        new: u64,
    },
    /// Controller state after observing a round: chosen `m`, measured
    /// pressure ratio `r̄`, and target `ρ` as IEEE-754 bits
    /// (`rho_bits` is `f64::NAN.to_bits()` when the controller has no
    /// target).
    Controller {
        /// Allocation the controller will use next round.
        m: u64,
        /// Measured pressure ratio `r̄`, as `f64::to_bits`.
        r_bits: u64,
        /// Target `ρ`, as `f64::to_bits` (`NaN` bits if none).
        rho_bits: u64,
    },
    /// The checker's audit found `findings` new reports this round.
    Audit {
        /// Number of new audit reports at this round's drain.
        findings: u64,
    },
    /// A pipelined controller window closed: the in-flight budget was
    /// re-planned from the sliding completions window.
    WindowAdvance {
        /// Cumulative completions at the flush.
        completions: u64,
        /// Budget-gate occupancy (tasks in flight) at the flush.
        inflight: u64,
        /// In-flight budget in force after the flush.
        target: u64,
    },
    /// A pipelined worker retired a batch: one lane-epoch bump
    /// released every lock word the batch had stamped, in O(1).
    BatchRetire {
        /// Worker (= lane - 1) that retired the batch.
        worker: u32,
        /// Lane tag the batch ran under.
        tag: u64,
        /// Tasks the batch completed (committed + re-queued).
        tasks: u32,
    },
    /// The job service admitted a job into its queue.
    JobAdmit {
        /// Service-assigned job id.
        job: u64,
        /// Priority weight the job was admitted with.
        priority: u64,
    },
    /// The job service shed a submission at the admission boundary;
    /// `code` is the service's `Rejection::code()` (1 backpressure,
    /// 2 overload, 3 expired).
    JobReject {
        /// Id the submission would have received.
        job: u64,
        /// Numeric rejection reason.
        code: u8,
    },
    /// A job stopped at a round boundary because its deadline passed.
    JobDeadline {
        /// Service-assigned job id.
        job: u64,
    },
    /// A job was cancelled (client request) or wedge-detached.
    JobCancel {
        /// Service-assigned job id.
        job: u64,
    },
    /// A fault-killed job was granted a retry attempt.
    JobRetry {
        /// Service-assigned job id.
        job: u64,
        /// The attempt that just failed (the retry is attempt + 1).
        attempt: u32,
    },
}

impl EventKind {
    /// Stable short name, used by the JSONL exporter and the report
    /// summarizer.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::RoundBegin { .. } => "round_begin",
            EventKind::RoundEnd { .. } => "round_end",
            EventKind::RetryAged { .. } => "retry_aged",
            EventKind::TaskLaunch { .. } => "task_launch",
            EventKind::TaskCommit { .. } => "task_commit",
            EventKind::TaskAbort { .. } => "task_abort",
            EventKind::TaskFault { .. } => "task_fault",
            EventKind::LockAcquire { .. } => "lock_acquire",
            EventKind::LockContend { .. } => "lock_contend",
            EventKind::EpochBump { .. } => "epoch_bump",
            EventKind::Controller { .. } => "controller",
            EventKind::Audit { .. } => "audit",
            EventKind::WindowAdvance { .. } => "window_advance",
            EventKind::BatchRetire { .. } => "batch_retire",
            EventKind::JobAdmit { .. } => "job_admit",
            EventKind::JobReject { .. } => "job_reject",
            EventKind::JobDeadline { .. } => "job_deadline",
            EventKind::JobCancel { .. } => "job_cancel",
            EventKind::JobRetry { .. } => "job_retry",
        }
    }
}

/// An event stamped with its track-local logical tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Track-local logical timestamp: strictly monotone per ring,
    /// bumped even for events the ring had to drop, so gaps are
    /// visible.
    pub tick: u64,
    /// What happened.
    pub kind: EventKind,
}

/// An event attributed to the track (worker index or [`CTL_TRACK`])
/// it was recorded on — the element type of a drained [`EventLog`].
///
/// [`EventLog`]: crate::EventLog
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TracedEvent {
    /// Worker index, or [`CTL_TRACK`] for the controller track.
    pub track: u32,
    /// The stamped event.
    pub event: Event,
}

/// Inert fill value for ring slots that have never been written.
pub(crate) const PLACEHOLDER: Event = Event {
    tick: 0,
    kind: EventKind::EpochBump { old: 0, new: 0 },
};
