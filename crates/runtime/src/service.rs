//! A resilient multi-tenant job service whose lanes own their workers.
//!
//! The paper's controller adapts speculation *within* one computation;
//! this module supplies the production framing around it: a
//! [`JobService`] accepts a stream of concurrent jobs (each a closure
//! that builds its own operator, lock space, and work-set and drives
//! rounds through [`JobCx::drive`]) and runs up to
//! [`ServiceConfig::lanes`] of them at once. A lane executes its job
//! itself, on an [`Executor`] the drive owns: tenants share no thread,
//! so they run concurrently and never wait on each other's rounds.
//! What they do share is the global in-flight budget: each job gets
//! its own adaptive controller, and its per-round `m(t)` is clamped to
//! its priority share of that budget, so a conflict-heavy tenant
//! cannot starve the others.
//!
//! Robustness is the point, not throughput:
//!
//! * **Admission control** — [`JobService::submit`] sheds load with a
//!   structured [`Rejection`] when the service-wide pressure EWMA
//!   (aborts + faults over launches, fed by every job's rounds)
//!   crosses [`ServiceConfig::admit_watermark`], when the bounded
//!   queue is full (backpressure), or when a job arrives already past
//!   its deadline. While the service is idle the supervisor decays the
//!   EWMA toward zero each poll, so a post-storm service recovers
//!   admission instead of rejecting forever on a stale reading.
//! * **Deadlines & cancellation** — both are checked at *round
//!   boundaries*, where the executor holds no locks, no work-set
//!   entries are in flight, and the epoch is already bumped: stopping
//!   there is abort-equivalent rollback for free, and leaks nothing.
//! * **Retry with backoff** — a job killed by fault-budget exhaustion
//!   (typically under injected chaos) is re-run up to
//!   [`ServiceConfig::job_retries`] times with doubling backoff.
//! * **Dead-lettering** — tasks that fault past
//!   [`ServiceConfig::dead_letter_budget`] are surfaced per job in
//!   [`JobReport::dead_letters`] instead of re-queuing forever.
//! * **Wedge watchdog** — a supervisor thread watches each lane's round
//!   heartbeat; a job that stops beating past
//!   [`ServiceConfig::wedge_grace`] is detached: it is cancelled and
//!   its client gets [`JobError::Wedged`]. Nobody else's rounds ran on
//!   its threads, so the other lanes never notice.
//! * **Chaos** (feature `faults`) — `ServiceConfig::chaos` arms a
//!   deterministic per-drive `FaultPlan`
//!   (seeded from the job id and drive number), and every fired fault
//!   is carried drive-tagged in the report so tests reconcile the
//!   injection ledger against the fault log entry-for-entry.
//!
//! This file is on the round-critical lint lists: no `unwrap`/`expect`
//! (a panicking lane loses its client's report), no raw `Instant`
//! (deadlines and latency go through [`Deadline`]/[`Stopwatch`] in the
//! phase module), no slice indexing, and all OS threads are scoped or
//! come from a drive's executor.

use crate::exec::{Executor, ExecutorConfig, WorkSet};
use crate::faults::{panic_detail, recover, DeadLetter, TaskFault};
use crate::lock::LockSpace;
use crate::phase::{Deadline, Stopwatch};
use crate::task::Operator;
use optpar_core::control::Controller;
use rand::Rng;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

/// Deterministic service-level fault injection (feature `faults`):
/// each drive of each job gets its own
/// [`FaultPlan`](crate::faults::FaultPlan) seeded from `(seed, job id,
/// drive)`, so a fixed service seed replays the exact same chaos
/// schedule across runs.
#[cfg(feature = "faults")]
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Base seed; mixed with the job id and drive number per plan.
    pub seed: u64,
    /// Fraction of launched tasks that panic mid-flight.
    pub panic_rate: f64,
    /// Fraction of launched tasks that spuriously abort.
    pub spurious_rate: f64,
    /// Fraction of launched tasks that spin-delay.
    pub delay_rate: f64,
    /// Spin iterations an injected delay burns.
    pub delay_spins: u32,
}

#[cfg(feature = "faults")]
impl ChaosConfig {
    /// A plan firing panics and spurious aborts at `rate` each (the
    /// usual chaos-harness shape: ~2·`rate` total injection).
    pub fn with_rates(seed: u64, rate: f64) -> Self {
        ChaosConfig {
            seed,
            panic_rate: rate,
            spurious_rate: rate,
            delay_rate: 0.0,
            delay_spins: 0,
        }
    }
}

/// Service configuration. Start from `ServiceConfig::default()` and
/// override fields; every knob is documented with its failure mode.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads across all lanes (≥ 1); a lane drives with
    /// `max(1, workers / lanes)`, and at 1 its rounds run inline on
    /// the lane thread.
    pub workers: usize,
    /// Concurrent job lanes (≥ 1): jobs running at once.
    pub lanes: usize,
    /// Bounded queue depth; submissions beyond it are shed with
    /// [`Rejection::Backpressure`].
    pub queue_cap: usize,
    /// Global in-flight speculation budget: the sum of per-round `m`
    /// slices handed to active jobs (each gets its priority share).
    pub global_budget: usize,
    /// Admission watermark on the pressure EWMA: submissions are shed
    /// with [`Rejection::Overload`] while the EWMA exceeds it. The
    /// supervisor folds a zero sample per [`ServiceConfig::wedge_poll`]
    /// while the service is idle, so a reading stranded above the
    /// watermark by a drained abort storm decays back under it.
    pub admit_watermark: f64,
    /// EWMA smoothing factor in `(0, 1]` for the service-wide
    /// pressure ratio.
    pub pressure_alpha: f64,
    /// Re-runs granted to a job that fails with
    /// [`JobError::FaultBudgetExhausted`] (total attempts = this + 1).
    pub job_retries: u32,
    /// Base backoff before a retry; doubles per attempt and is capped
    /// by the job's remaining deadline.
    pub retry_backoff: Duration,
    /// Per-task dead-letter budget `K` forwarded to
    /// [`ExecutorConfig::dead_letter_budget`].
    pub dead_letter_budget: u32,
    /// Per-task abort-aging budget forwarded to
    /// [`ExecutorConfig::retry_budget`].
    pub retry_budget: u32,
    /// Zero-commit stall threshold forwarded to the per-job watchdog
    /// (mirrors [`ExecutorConfig::watchdog_stall`]).
    pub watchdog_stall: u32,
    /// Hard cap on rounds per drive; exceeding it fails the job with
    /// [`JobError::RoundsExhausted`] instead of looping forever.
    pub max_rounds: usize,
    /// How long a busy lane may go without a round heartbeat before
    /// the supervisor declares it wedged and detaches it.
    pub wedge_grace: Duration,
    /// Supervisor polling period.
    pub wedge_poll: Duration,
    /// Undrained-entry bound for each round executor's fault log.
    pub fault_log_cap: usize,
    /// Service-level chaos injection (feature `faults`); `None` runs
    /// clean.
    #[cfg(feature = "faults")]
    pub chaos: Option<ChaosConfig>,
    /// Record `JobAdmit`/`JobReject`/`JobDeadline`/`JobCancel`/
    /// `JobRetry` events into an obs log surfaced in
    /// [`ServiceStats::obs_log`] (feature `obs`).
    #[cfg(feature = "obs")]
    pub obs: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            lanes: 2,
            queue_cap: 16,
            global_budget: 256,
            admit_watermark: 0.95,
            pressure_alpha: 0.2,
            job_retries: 2,
            retry_backoff: Duration::from_millis(10),
            dead_letter_budget: 16,
            retry_budget: 8,
            watchdog_stall: 4,
            max_rounds: 100_000,
            wedge_grace: Duration::from_secs(2),
            wedge_poll: Duration::from_millis(20),
            fault_log_cap: crate::faults::DEFAULT_FAULT_LOG_CAP,
            #[cfg(feature = "faults")]
            chaos: None,
            #[cfg(feature = "obs")]
            obs: false,
        }
    }
}

/// Why a submission was shed at the admission boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rejection {
    /// The bounded queue is full; retry later (client-side
    /// backpressure).
    Backpressure,
    /// The service-wide pressure EWMA is past the admission watermark;
    /// adding load would only feed the abort storm.
    Overload,
    /// The job arrived with a zero (or elapsed) deadline.
    Expired,
}

impl Rejection {
    /// Stable numeric code for trace events (part of the trace
    /// format).
    pub fn code(&self) -> u8 {
        match self {
            Rejection::Backpressure => 1,
            Rejection::Overload => 2,
            Rejection::Expired => 3,
        }
    }
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::Backpressure => write!(f, "queue full (backpressure)"),
            Rejection::Overload => write!(f, "pressure over admission watermark"),
            Rejection::Expired => write!(f, "deadline already expired"),
        }
    }
}

/// Structured failure of an accepted job. Every variant is a clean
/// stop at a round boundary: no locks, work-set entries, or epochs
/// leak past it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// The client cancelled via [`JobTicket::cancel`].
    Cancelled,
    /// The job's deadline expired (while queued or between rounds).
    DeadlineExceeded,
    /// Tasks were dead-lettered this attempt: the computation is
    /// incomplete and cannot match its reference. Retried with
    /// backoff while attempts remain.
    FaultBudgetExhausted {
        /// Tasks retired to the dead-letter list in the failing
        /// attempt.
        dead_letters: usize,
    },
    /// The supervisor detached this job after its round heartbeat
    /// went quiet for [`ServiceConfig::wedge_grace`].
    Wedged,
    /// A drive exceeded [`ServiceConfig::max_rounds`] with work still
    /// pending.
    RoundsExhausted {
        /// Work-set entries still pending at the cap.
        remaining: usize,
    },
    /// The job closure failed on its own terms (app-level error or a
    /// contained closure panic).
    App(String),
    /// The service tore down before a report could be delivered.
    ServiceClosed,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Cancelled => write!(f, "cancelled by client"),
            JobError::DeadlineExceeded => write!(f, "deadline exceeded"),
            JobError::FaultBudgetExhausted { dead_letters } => {
                write!(f, "{dead_letters} task(s) dead-lettered")
            }
            JobError::Wedged => write!(f, "wedged and detached by the supervisor"),
            JobError::RoundsExhausted { remaining } => {
                write!(f, "round cap hit with {remaining} task(s) pending")
            }
            JobError::App(msg) => write!(f, "job failure: {msg}"),
            JobError::ServiceClosed => write!(f, "service closed before reporting"),
        }
    }
}

impl std::error::Error for JobError {}

/// Successful job outcome, produced by the job closure itself (which
/// is the only party that can compare the speculative result against
/// its sequential reference).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobOutput {
    /// Did the speculative result match the job's sequential
    /// reference?
    pub verified: bool,
    /// Tasks committed across the job's drives (as counted by the job
    /// closure; the service-side count is in [`JobReport::committed`]).
    pub committed: usize,
    /// Free-form detail for logs.
    pub detail: String,
}

/// The job body: builds its own operator, lock space, and work-set,
/// drives them via [`JobCx::drive`], verifies against its sequential
/// reference, and returns a [`JobOutput`]. Called once per attempt
/// (`FnMut`), so retries re-build state from scratch.
pub type JobFn = Box<dyn FnMut(&mut JobCx<'_>) -> Result<JobOutput, JobError> + Send>;

/// A job submission: name, scheduling knobs, and the body closure.
pub struct JobSpec {
    name: String,
    priority: u64,
    deadline: Option<Duration>,
    job: JobFn,
}

impl JobSpec {
    /// A job with default priority (1) and no deadline.
    pub fn new<F>(name: impl Into<String>, job: F) -> Self
    where
        F: FnMut(&mut JobCx<'_>) -> Result<JobOutput, JobError> + Send + 'static,
    {
        JobSpec {
            name: name.into(),
            priority: 1,
            deadline: None,
            job: Box::new(job),
        }
    }

    /// Set the priority weight (≥ 1): the job's slice of the global
    /// in-flight budget is proportional to it.
    pub fn priority(mut self, p: u64) -> Self {
        self.priority = p.max(1);
        self
    }

    /// Set a wall-clock deadline, measured from admission.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }
}

impl std::fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSpec")
            .field("name", &self.name)
            .field("priority", &self.priority)
            .field("deadline", &self.deadline)
            .finish_non_exhaustive()
    }
}

/// Client handle for one admitted job.
#[derive(Debug)]
pub struct JobTicket {
    id: u64,
    rx: mpsc::Receiver<JobReport>,
    cancel: Arc<AtomicBool>,
    queued_at: Stopwatch,
}

impl JobTicket {
    /// The service-assigned job id (also carried in obs events).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Request cancellation. Observed at the next round boundary (or
    /// before start if still queued); the job stops with
    /// [`JobError::Cancelled`] and leaks nothing.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Release);
    }

    /// Block until the job's report arrives. Never panics: if the
    /// service tore down without reporting, a synthetic
    /// [`JobError::ServiceClosed`] report is returned.
    pub fn wait(self) -> JobReport {
        match self.rx.recv() {
            Ok(report) => report,
            Err(_) => JobReport::synthetic(
                self.id,
                String::new(),
                Err(JobError::ServiceClosed),
                self.queued_at,
            ),
        }
    }

    /// Non-blocking poll for the report.
    pub fn try_wait(&self) -> Option<JobReport> {
        self.rx.try_recv().ok()
    }
}

/// Everything the service knows about one finished (or failed) job.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// Service-assigned job id.
    pub id: u64,
    /// The submitted job name.
    pub name: String,
    /// Outcome: the closure's [`JobOutput`] or a structured error.
    pub result: Result<JobOutput, JobError>,
    /// Attempts consumed (1 = no retries; 0 = never started, e.g.
    /// cancelled in the queue or wedge-detached).
    pub attempts: u32,
    /// Rounds executed across all attempts and drives.
    pub rounds: usize,
    /// Tasks committed across all attempts and drives.
    pub committed: usize,
    /// Tasks aborted (conflicts) across all attempts and drives.
    pub aborted: usize,
    /// Tasks faulted (contained panics, injected faults) across all
    /// attempts and drives.
    pub faulted: usize,
    /// Dead-lettered tasks, tagged with the drive that retired them.
    pub dead_letters: Vec<(u32, DeadLetter)>,
    /// Every contained fault, tagged with its drive (reconcile
    /// against `JobReport::injected` in chaos tests).
    pub faults: Vec<(u32, TaskFault)>,
    /// Injection-side ledger: every fault the chaos plan fired, tagged
    /// with its drive (feature `faults`).
    #[cfg(feature = "faults")]
    pub injected: Vec<(u32, crate::faults::FaultRecord)>,
    /// Admission-to-report latency.
    pub latency: Duration,
}

impl JobReport {
    /// A report with zeroed accounting (queue-side rejections, wedge
    /// detaches, teardown) for a job admitted at `queued_at`.
    fn synthetic(
        id: u64,
        name: String,
        result: Result<JobOutput, JobError>,
        queued_at: Stopwatch,
    ) -> Self {
        JobReport {
            id,
            name,
            result,
            attempts: 0,
            rounds: 0,
            committed: 0,
            aborted: 0,
            faulted: 0,
            dead_letters: Vec::new(),
            faults: Vec::new(),
            #[cfg(feature = "faults")]
            injected: Vec::new(),
            latency: queued_at.elapsed(),
        }
    }
}

/// Final service counters, returned by [`serve`] after teardown.
#[derive(Clone, Debug, Default)]
pub struct ServiceStats {
    /// Jobs admitted into the queue.
    pub admitted: u64,
    /// Submissions shed with [`Rejection::Backpressure`].
    pub rejected_backpressure: u64,
    /// Submissions shed with [`Rejection::Overload`].
    pub rejected_overload: u64,
    /// Submissions shed with [`Rejection::Expired`].
    pub rejected_expired: u64,
    /// Jobs that finished `Ok`.
    pub completed: u64,
    /// Jobs that finished `Err` (includes cancellations, deadline
    /// misses, and wedges).
    pub failed: u64,
    /// Jobs that ended [`JobError::Cancelled`].
    pub cancelled_jobs: u64,
    /// Jobs that ended [`JobError::DeadlineExceeded`].
    pub deadline_misses: u64,
    /// Retry attempts granted after fault-budget exhaustion.
    pub job_retries: u64,
    /// Jobs wedge-detached by the supervisor.
    pub wedges: u64,
    /// Worker-level job panics summed over every drive's executor
    /// (0 = per-task containment held everywhere). An inline lane has
    /// no worker loop to catch one: there a runtime-level panic ends
    /// the job with [`JobError::App`].
    pub worker_panics: u64,
    /// Final service-wide pressure EWMA.
    pub pressure: f64,
    /// The service-level obs event log, when [`ServiceConfig::obs`]
    /// was set (feature `obs`).
    #[cfg(feature = "obs")]
    pub obs_log: Option<optpar_obs::EventLog>,
}

/// One queued, admitted job.
struct QueuedJob {
    id: u64,
    name: String,
    priority: u64,
    deadline: Option<Deadline>,
    cancel: Arc<AtomicBool>,
    tx: mpsc::Sender<JobReport>,
    job: JobFn,
    queued_at: Stopwatch,
}

/// What a lane is running right now. Whoever takes this out of the
/// lane's mutex owns report delivery and the busy/priority
/// bookkeeping — the lane on normal completion, the supervisor on a
/// wedge detach.
struct CurrentJob {
    id: u64,
    name: String,
    priority: u64,
    cancel: Arc<AtomicBool>,
    tx: mpsc::Sender<JobReport>,
    queued_at: Stopwatch,
}

/// Per-lane execution state.
struct LaneState {
    /// Round heartbeat: bumped at job start and once per round; the
    /// supervisor declares a busy lane wedged when it stops moving.
    beat: AtomicU64,
    current: Mutex<Option<CurrentJob>>,
}

impl LaneState {
    fn new() -> Self {
        LaneState {
            beat: AtomicU64::new(0),
            current: Mutex::new(None),
        }
    }
}

/// Shared service state: one per [`serve`] call.
struct Shared {
    cfg: ServiceConfig,
    queue: Mutex<VecDeque<QueuedJob>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    /// Service-wide pressure EWMA, stored as `f64` bits.
    pressure_bits: AtomicU64,
    /// Sum of priorities of currently running jobs (budget slicing).
    active_prio: AtomicU64,
    /// Jobs popped from the queue whose report has not been sent yet.
    busy: AtomicU64,
    admitted: AtomicU64,
    rejected_backpressure: AtomicU64,
    rejected_overload: AtomicU64,
    rejected_expired: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled_jobs: AtomicU64,
    deadline_misses: AtomicU64,
    job_retries: AtomicU64,
    wedges: AtomicU64,
    /// `Executor::worker_panics` summed over finished drives.
    worker_panics: AtomicU64,
    #[cfg(feature = "obs")]
    recorder: Option<optpar_obs::Recorder>,
}

impl Shared {
    fn new(cfg: ServiceConfig) -> Self {
        #[cfg(feature = "obs")]
        let recorder = cfg
            .obs
            .then(|| optpar_obs::Recorder::new(1, optpar_obs::ObsConfig::default()));
        Shared {
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            pressure_bits: AtomicU64::new(0.0f64.to_bits()),
            active_prio: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            rejected_backpressure: AtomicU64::new(0),
            rejected_overload: AtomicU64::new(0),
            rejected_expired: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            cancelled_jobs: AtomicU64::new(0),
            deadline_misses: AtomicU64::new(0),
            job_retries: AtomicU64::new(0),
            wedges: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            #[cfg(feature = "obs")]
            recorder,
            cfg,
        }
    }

    fn pressure(&self) -> f64 {
        f64::from_bits(self.pressure_bits.load(Ordering::Acquire))
    }

    /// Fold one round's pressure ratio into the service-wide EWMA
    /// (lock-free CAS loop; contention is per round, not per task).
    fn observe_pressure(&self, sample: f64) {
        let alpha = self.cfg.pressure_alpha;
        let mut cur = self.pressure_bits.load(Ordering::Acquire);
        loop {
            let old = f64::from_bits(cur);
            let next = old + alpha * (sample - old);
            match self.pressure_bits.compare_exchange(
                cur,
                next.to_bits(),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    fn note_admit(&self, id: u64, priority: u64) {
        self.admitted.fetch_add(1, Ordering::AcqRel);
        #[cfg(feature = "obs")]
        if let Some(rec) = self.recorder.as_ref() {
            rec.job_admit(id, priority);
        }
        #[cfg(not(feature = "obs"))]
        let _ = (id, priority);
    }

    fn note_reject(&self, id: u64, why: Rejection) {
        match why {
            Rejection::Backpressure => &self.rejected_backpressure,
            Rejection::Overload => &self.rejected_overload,
            Rejection::Expired => &self.rejected_expired,
        }
        .fetch_add(1, Ordering::AcqRel);
        #[cfg(feature = "obs")]
        if let Some(rec) = self.recorder.as_ref() {
            rec.job_reject(id, why.code());
        }
        #[cfg(not(feature = "obs"))]
        let _ = id;
    }

    fn note_retry(&self, id: u64, attempt: u32) {
        self.job_retries.fetch_add(1, Ordering::AcqRel);
        #[cfg(feature = "obs")]
        if let Some(rec) = self.recorder.as_ref() {
            rec.job_retry(id, attempt);
        }
        #[cfg(not(feature = "obs"))]
        let _ = (id, attempt);
    }

    /// Book a finished job's outcome into the counters (and the obs
    /// log for the cancel/deadline terminals).
    fn note_finish(&self, id: u64, result: &Result<JobOutput, JobError>) {
        match result {
            Ok(_) => {
                self.completed.fetch_add(1, Ordering::AcqRel);
            }
            Err(e) => {
                self.failed.fetch_add(1, Ordering::AcqRel);
                match e {
                    JobError::Cancelled | JobError::Wedged => {
                        if matches!(e, JobError::Cancelled) {
                            self.cancelled_jobs.fetch_add(1, Ordering::AcqRel);
                        }
                        #[cfg(feature = "obs")]
                        if let Some(rec) = self.recorder.as_ref() {
                            rec.job_cancel(id);
                        }
                    }
                    JobError::DeadlineExceeded => {
                        self.deadline_misses.fetch_add(1, Ordering::AcqRel);
                        #[cfg(feature = "obs")]
                        if let Some(rec) = self.recorder.as_ref() {
                            rec.job_deadline(id);
                        }
                    }
                    _ => {}
                }
            }
        }
        #[cfg(not(feature = "obs"))]
        let _ = id;
    }

    fn stats(&self) -> ServiceStats {
        ServiceStats {
            admitted: self.admitted.load(Ordering::Acquire),
            rejected_backpressure: self.rejected_backpressure.load(Ordering::Acquire),
            rejected_overload: self.rejected_overload.load(Ordering::Acquire),
            rejected_expired: self.rejected_expired.load(Ordering::Acquire),
            completed: self.completed.load(Ordering::Acquire),
            failed: self.failed.load(Ordering::Acquire),
            cancelled_jobs: self.cancelled_jobs.load(Ordering::Acquire),
            deadline_misses: self.deadline_misses.load(Ordering::Acquire),
            job_retries: self.job_retries.load(Ordering::Acquire),
            wedges: self.wedges.load(Ordering::Acquire),
            worker_panics: self.worker_panics.load(Ordering::Acquire),
            pressure: self.pressure(),
            #[cfg(feature = "obs")]
            obs_log: self.recorder.as_ref().map(|rec| rec.take_log()),
        }
    }
}

/// Handle to a running service, passed to the [`serve`] body. Submit
/// from the body's thread or share it across scoped client threads
/// (`&JobService` is `Sync`).
pub struct JobService<'s> {
    shared: &'s Shared,
}

impl std::fmt::Debug for JobService<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobService")
            .field("lanes", &self.shared.cfg.lanes)
            .field("workers", &self.shared.cfg.workers)
            .field("pressure", &self.shared.pressure())
            .finish_non_exhaustive()
    }
}

impl JobService<'_> {
    /// Admit a job or shed it with a structured [`Rejection`].
    /// Admission order: expired deadline, overload watermark, queue
    /// bound — the cheapest shed first.
    pub fn submit(&self, spec: JobSpec) -> Result<JobTicket, Rejection> {
        let shared = self.shared;
        let id = shared.next_id.fetch_add(1, Ordering::AcqRel);
        if spec.deadline.is_some_and(|d| d.is_zero()) {
            shared.note_reject(id, Rejection::Expired);
            return Err(Rejection::Expired);
        }
        if shared.pressure() > shared.cfg.admit_watermark {
            shared.note_reject(id, Rejection::Overload);
            return Err(Rejection::Overload);
        }
        let cancel = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel();
        let queued_at = Stopwatch::started();
        {
            let mut queue = recover(shared.queue.lock());
            if queue.len() >= shared.cfg.queue_cap {
                drop(queue);
                shared.note_reject(id, Rejection::Backpressure);
                return Err(Rejection::Backpressure);
            }
            queue.push_back(QueuedJob {
                id,
                name: spec.name,
                priority: spec.priority,
                deadline: spec.deadline.map(Deadline::after),
                cancel: Arc::clone(&cancel),
                tx,
                job: spec.job,
                queued_at,
            });
            // Recorded before the lock drops: once a lane can pop the
            // job it can also finish it, and `JobAdmit` must come
            // first in the obs log.
            shared.note_admit(id, spec.priority);
        }
        shared.queue_cv.notify_one();
        Ok(JobTicket {
            id,
            rx,
            cancel,
            queued_at,
        })
    }

    /// The current service-wide pressure EWMA (what admission checks
    /// against the watermark).
    pub fn pressure(&self) -> f64 {
        self.shared.pressure()
    }

    /// Jobs currently queued (admitted, not yet started).
    pub fn queue_len(&self) -> usize {
        recover(self.shared.queue.lock()).len()
    }
}

/// Per-attempt/job accumulators threaded through [`JobCx`] into the
/// final [`JobReport`].
#[derive(Default)]
struct JobAccum {
    drives: u32,
    rounds: usize,
    committed: usize,
    aborted: usize,
    faulted: usize,
    faults: Vec<(u32, TaskFault)>,
    dead_letters: Vec<(u32, DeadLetter)>,
    #[cfg(feature = "faults")]
    injected: Vec<(u32, crate::faults::FaultRecord)>,
}

/// Execution context handed to the job closure: cancellation and
/// deadline visibility, the heartbeat, and [`JobCx::drive`] — the
/// only way a job reaches its lane's workers.
pub struct JobCx<'s> {
    shared: &'s Shared,
    lane_beat: &'s AtomicU64,
    cancel: &'s AtomicBool,
    deadline: Option<Deadline>,
    job_id: u64,
    priority: u64,
    attempt: u32,
    acc: JobAccum,
}

impl std::fmt::Debug for JobCx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobCx")
            .field("job_id", &self.job_id)
            .field("attempt", &self.attempt)
            .field("drives", &self.acc.drives)
            .finish_non_exhaustive()
    }
}

impl JobCx<'_> {
    /// The service-assigned job id.
    pub fn job_id(&self) -> u64 {
        self.job_id
    }

    /// The 1-based attempt number (> 1 on retries; seed per-attempt
    /// RNGs from it for reproducible retries).
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// Has the client requested cancellation?
    pub fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Acquire)
    }

    /// Has the job's deadline passed?
    pub fn deadline_expired(&self) -> bool {
        self.deadline.is_some_and(|d| d.expired())
    }

    /// Feed the wedge watchdog during long non-driving work (parsing,
    /// verification): [`JobCx::drive`] beats once per round on its
    /// own.
    pub fn heartbeat(&self) {
        self.lane_beat.fetch_add(1, Ordering::AcqRel);
    }

    /// Drain `ws` through round-based speculative execution on this
    /// lane's own workers, one controller-allocated round at a time,
    /// until the work-set empties or a structured stop (cancellation,
    /// deadline, dead letters, round cap) ends the drive.
    ///
    /// The drive owns one [`Executor`] of `max(1, workers / lanes)`
    /// workers: at 1 every round runs inline on the lane thread,
    /// wider lanes get the executor's ordinary pool for the length of
    /// the drive. A round's `m` is the controller's allocation
    /// clamped to this job's priority share of
    /// [`ServiceConfig::global_budget`]. Stops happen only at round
    /// boundaries, where no locks or tasks are in flight — the
    /// abort-equivalent rollback the service promises.
    pub fn drive<O: Operator, C: Controller, R: Rng + ?Sized>(
        &mut self,
        op: &O,
        space: &LockSpace,
        ws: &mut WorkSet<O::Task>,
        ctl: &mut C,
        rng: &mut R,
    ) -> Result<(), JobError> {
        self.acc.drives = self.acc.drives.saturating_add(1);
        let drive = self.acc.drives;
        let cfg = &self.shared.cfg;
        #[cfg(feature = "faults")]
        let plan = cfg.chaos.map(|c| {
            crate::faults::FaultPlan::seeded(chaos_seed(c.seed, self.job_id, u64::from(drive)))
                .with_panic_rate(c.panic_rate)
                .with_spurious_abort_rate(c.spurious_rate)
                .with_delay_rate(c.delay_rate, c.delay_spins)
        });
        let ecfg = ExecutorConfig {
            workers: (cfg.workers / cfg.lanes).max(1),
            // Unread benchmark-pinned shim field (see its docs).
            policy: Default::default(),
            retry_budget: cfg.retry_budget,
            watchdog_stall: cfg.watchdog_stall,
            dead_letter_budget: cfg.dead_letter_budget,
        };
        #[cfg_attr(not(feature = "faults"), allow(unused_mut))]
        let mut ex = Executor::new(op, space, ecfg);
        let _ = ex.set_fault_log_capacity(cfg.fault_log_cap);
        #[cfg(feature = "faults")]
        if let Some(p) = plan.as_ref() {
            ex.set_fault_plan(p);
        }
        let _tally = PanicTally(&ex, &self.shared.worker_panics);
        let mut state = crate::exec::ControlState::new(ctl);
        let mut rounds_this_drive: usize = 0;
        let mut dead_this_drive: usize = 0;
        let result = loop {
            if ws.is_empty() {
                break Ok(());
            }
            if rounds_this_drive >= cfg.max_rounds {
                break Err(JobError::RoundsExhausted {
                    remaining: ws.len(),
                });
            }
            if self.cancelled() {
                break Err(JobError::Cancelled);
            }
            if self.deadline_expired() {
                break Err(JobError::DeadlineExceeded);
            }
            // The shared round stepper owns the watchdog clamp and the
            // controller feedback; this job's priority share of the
            // global budget caps the round.
            let rs = ex.step_round(ws, ctl, &mut state, self.budget_slice(), rng);
            rounds_this_drive += 1;
            self.acc.rounds += 1;
            self.acc.committed += rs.committed;
            self.acc.aborted += rs.aborted;
            self.acc.faulted += rs.faulted;
            dead_this_drive += rs.dead_lettered;
            for fault in ex.take_faults() {
                self.acc.faults.push((drive, fault));
            }
            for dl in ex.take_dead_letters() {
                self.acc.dead_letters.push((drive, dl));
            }
            if rs.launched > 0 {
                self.shared.observe_pressure(rs.pressure_ratio());
            }
            self.lane_beat.fetch_add(1, Ordering::AcqRel);
        };
        #[cfg(feature = "faults")]
        if let Some(p) = plan.as_ref() {
            for rec in p.fired() {
                self.acc.injected.push((drive, rec));
            }
        }
        // A stop at a round boundary holds nothing in flight.
        debug_assert!(space.check_all_free().is_ok());
        if result.is_ok() && dead_this_drive > 0 {
            return Err(JobError::FaultBudgetExhausted {
                dead_letters: dead_this_drive,
            });
        }
        result
    }

    /// This job's slice of the global in-flight budget: proportional
    /// to its priority over the sum of running priorities, floor 1
    /// (Prop. 1: `m = 1` always makes progress).
    fn budget_slice(&self) -> usize {
        let total = self.shared.active_prio.load(Ordering::Acquire).max(1);
        let share = (self.shared.cfg.global_budget as u64).saturating_mul(self.priority) / total;
        usize::try_from(share).unwrap_or(usize::MAX).max(1)
    }
}

/// Books a drive executor's escaped worker panics into the service
/// total when the drive ends — on drop, because the panic
/// `WorkerPool::run` re-raises on the lane thread for one unwinds
/// through [`JobCx::drive`].
struct PanicTally<'x, 'a, O: Operator>(&'x Executor<'a, O>, &'x AtomicU64);

impl<O: Operator> Drop for PanicTally<'_, '_, O> {
    fn drop(&mut self) {
        self.1.fetch_add(self.0.worker_panics(), Ordering::AcqRel);
    }
}

/// Mix the chaos seed with the job id and drive number (splitmix-style
/// avalanche) so every drive replays its own deterministic schedule.
#[cfg(feature = "faults")]
fn chaos_seed(seed: u64, job: u64, drive: u64) -> u64 {
    let mut x =
        seed ^ job.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ drive.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 30)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 27)
}

/// Run a service: spawns `cfg.lanes` lane threads plus a wedge
/// supervisor, hands the body a [`JobService`] handle, and tears
/// everything down when the body returns (accepted jobs finish
/// first). Returns the body's value and the final [`ServiceStats`].
///
/// A job wedged in a *non-terminating* task blocks teardown until its
/// task yields (lane threads are scoped and must join); the supervisor
/// will have detached it and reported [`JobError::Wedged`] long before.
pub fn serve<T>(cfg: ServiceConfig, body: impl FnOnce(&JobService<'_>) -> T) -> (T, ServiceStats) {
    assert!(cfg.workers >= 1, "service needs at least one worker");
    assert!(cfg.lanes >= 1, "service needs at least one lane");
    assert!(cfg.queue_cap >= 1, "queue capacity must be at least 1");
    assert!(
        cfg.pressure_alpha > 0.0 && cfg.pressure_alpha <= 1.0,
        "pressure_alpha must be in (0, 1]"
    );
    let shared = Shared::new(cfg);
    let lanes: Vec<LaneState> = (0..shared.cfg.lanes).map(|_| LaneState::new()).collect();
    let out = std::thread::scope(|s| {
        for lane in &lanes {
            let shared = &shared;
            s.spawn(move || lane_loop(shared, lane));
        }
        {
            let shared = &shared;
            let lanes = &lanes;
            s.spawn(move || supervisor_loop(shared, lanes));
        }
        let svc = JobService { shared: &shared };
        let outcome = catch_unwind(AssertUnwindSafe(|| body(&svc)));
        {
            // Flip the flag while holding the queue lock: a lane is
            // then either before its shutdown check (and will see the
            // flag) or already parked in wait (and gets the notify) —
            // no lost-wakeup window in between.
            let _guard = recover(shared.queue.lock());
            shared.shutdown.store(true, Ordering::Release);
        }
        shared.queue_cv.notify_all();
        match outcome {
            Ok(v) => v,
            // A panicking body must still release the lanes (above)
            // before the scope joins them, or teardown would hang.
            Err(payload) => std::panic::resume_unwind(payload),
        }
    });
    // Lanes drain the queue before exiting, so this is normally empty;
    // a lane lost to a runtime-level panic could leave residue.
    loop {
        let leftover = recover(shared.queue.lock()).pop_front();
        let Some(q) = leftover else { break };
        let _ = q.tx.send(JobReport::synthetic(
            q.id,
            q.name,
            Err(JobError::ServiceClosed),
            q.queued_at,
        ));
    }
    (out, shared.stats())
}

/// Lane thread: pop, execute, report, repeat. Exits only when the
/// service is shutting down *and* the queue is drained, so every
/// admitted job gets a report.
fn lane_loop(shared: &Shared, lane: &LaneState) {
    loop {
        let popped = {
            let mut queue = recover(shared.queue.lock());
            loop {
                if let Some(q) = queue.pop_front() {
                    // Count the job busy while still holding the queue
                    // lock, so the supervisor can never observe
                    // "queue empty + nothing busy" mid-handoff.
                    shared.busy.fetch_add(1, Ordering::AcqRel);
                    break Some(q);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                queue = recover(shared.queue_cv.wait(queue));
            }
        };
        let Some(q) = popped else { return };
        execute_job(shared, lane, q);
    }
}

/// Run one admitted job: pre-start shed checks, the attempt/retry
/// loop, and report delivery (unless the supervisor detached the job
/// and delivered a wedge report first).
fn execute_job(shared: &Shared, lane: &LaneState, q: QueuedJob) {
    let QueuedJob {
        id,
        name,
        priority,
        deadline,
        cancel,
        tx,
        mut job,
        queued_at,
    } = q;
    // Shed without starting: cancelled or expired while queued.
    let pre_start = if cancel.load(Ordering::Acquire) {
        Some(JobError::Cancelled)
    } else if deadline.is_some_and(|d| d.expired()) {
        Some(JobError::DeadlineExceeded)
    } else {
        None
    };
    if let Some(err) = pre_start {
        shared.note_finish(id, &Err(err.clone()));
        let _ = tx.send(JobReport::synthetic(id, name, Err(err), queued_at));
        shared.busy.fetch_sub(1, Ordering::AcqRel);
        return;
    }
    shared.active_prio.fetch_add(priority, Ordering::AcqRel);
    *recover(lane.current.lock()) = Some(CurrentJob {
        id,
        name: name.clone(),
        priority,
        cancel: Arc::clone(&cancel),
        tx,
        queued_at,
    });
    lane.beat.fetch_add(1, Ordering::AcqRel);

    let mut acc = JobAccum::default();
    let mut attempt: u32 = 0;
    let result = loop {
        attempt += 1;
        let mut cx = JobCx {
            shared,
            lane_beat: &lane.beat,
            cancel: &cancel,
            deadline,
            job_id: id,
            priority,
            attempt,
            acc: std::mem::take(&mut acc),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| (job)(&mut cx)));
        acc = std::mem::take(&mut cx.acc);
        match outcome {
            Ok(Ok(output)) => break Ok(output),
            Ok(Err(JobError::FaultBudgetExhausted { .. }))
                if attempt <= shared.cfg.job_retries
                    && !cancel.load(Ordering::Acquire)
                    && !deadline.is_some_and(|d| d.expired()) =>
            {
                shared.note_retry(id, attempt);
                let shift = (attempt - 1).min(16);
                let mut pause = shared.cfg.retry_backoff.saturating_mul(1u32 << shift);
                if let Some(d) = deadline {
                    pause = pause.min(d.remaining());
                }
                // Back off in supervisor-poll slices, beating after
                // each: one long sleep past `wedge_grace` would read as
                // a wedge, and would sit out a cancel. (The deadline
                // already bounds `pause`.)
                let backoff = Stopwatch::started();
                while !cancel.load(Ordering::Acquire) {
                    let left = pause.saturating_sub(backoff.elapsed());
                    if left.is_zero() {
                        break;
                    }
                    std::thread::sleep(left.min(shared.cfg.wedge_poll));
                    lane.beat.fetch_add(1, Ordering::AcqRel);
                }
            }
            Ok(Err(err)) => break Err(err),
            // The closure itself panicked (outside the executor's
            // per-task containment): contain it here so the lane — and
            // its other clients — survive.
            Err(payload) => break Err(JobError::App(panic_detail(payload.as_ref()))),
        }
    };
    // Taking `current` is the report-ownership token; `None` means the
    // supervisor wedge-detached this job and already reported.
    if let Some(cur) = recover(lane.current.lock()).take() {
        shared.note_finish(id, &result);
        let report = JobReport {
            id,
            name: cur.name,
            result,
            attempts: attempt,
            rounds: acc.rounds,
            committed: acc.committed,
            aborted: acc.aborted,
            faulted: acc.faulted,
            dead_letters: acc.dead_letters,
            faults: acc.faults,
            #[cfg(feature = "faults")]
            injected: acc.injected,
            latency: queued_at.elapsed(),
        };
        let _ = cur.tx.send(report);
        shared.active_prio.fetch_sub(priority, Ordering::AcqRel);
        shared.busy.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Per-lane wedge tracking: the beat value last seen and how long it
/// has been unchanged.
struct WedgeTracker {
    beat: u64,
    since: Option<Stopwatch>,
}

/// Supervisor thread: polls lane heartbeats and detaches wedged jobs,
/// so a client is never left waiting on a stuck task. Exits once the
/// service is shutting down with nothing queued or busy.
fn supervisor_loop(shared: &Shared, lanes: &[LaneState]) {
    let mut trackers: Vec<WedgeTracker> = lanes
        .iter()
        .map(|_| WedgeTracker {
            beat: 0,
            since: None,
        })
        .collect();
    loop {
        // Read queue emptiness BEFORE busy: a lane increments `busy`
        // while it still holds the queue lock for the pop, so once the
        // queue is observed empty, any job popped from it is already
        // visible in `busy` — "empty then idle" is a consistent
        // snapshot. The reverse order could miss a job popped between
        // the two reads and exit with it still running.
        let queue_empty = recover(shared.queue.lock()).is_empty();
        let idle = queue_empty && shared.busy.load(Ordering::Acquire) == 0;
        if idle && shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Idle decay for admission: the pressure EWMA is otherwise fed
        // only by running rounds, so an abort storm that drives it over
        // the watermark and then drains the queue would pin every
        // future submission at Overload forever. Fold a zero sample per
        // idle poll so admission recovers once the storm ends.
        if idle && shared.pressure() > 0.0 {
            shared.observe_pressure(0.0);
        }
        std::thread::sleep(shared.cfg.wedge_poll);
        for (lane, tracker) in lanes.iter().zip(trackers.iter_mut()) {
            let busy = recover(lane.current.lock()).is_some();
            if !busy {
                tracker.since = None;
                continue;
            }
            let beat = lane.beat.load(Ordering::Acquire);
            match tracker.since {
                Some(sw) if tracker.beat == beat => {
                    if sw.elapsed() >= shared.cfg.wedge_grace {
                        detach_wedged(shared, lane);
                        tracker.since = None;
                    }
                }
                _ => {
                    tracker.beat = beat;
                    tracker.since = Some(Stopwatch::started());
                }
            }
        }
    }
}

/// Detach one wedged lane's job: cancel it and report
/// [`JobError::Wedged`] to its client. Its workers are its own, so
/// there is nothing to take back from it for the other lanes.
fn detach_wedged(shared: &Shared, lane: &LaneState) {
    let Some(cur) = recover(lane.current.lock()).take() else {
        return;
    };
    cur.cancel.store(true, Ordering::Release);
    shared.wedges.fetch_add(1, Ordering::AcqRel);
    let result = Err(JobError::Wedged);
    shared.note_finish(cur.id, &result);
    let _ = cur.tx.send(JobReport::synthetic(
        cur.id,
        cur.name,
        result,
        cur.queued_at,
    ));
    shared.active_prio.fetch_sub(cur.priority, Ordering::AcqRel);
    shared.busy.fetch_sub(1, Ordering::AcqRel);
    // The lane itself is still blocked inside the stuck task; when it
    // unblocks it will find `current` taken and discard its result.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::tests::{within, BOUND, SETTLE};
    use crate::store::SpecStore;
    use crate::task::{Abort, TaskCtx};
    use optpar_core::control::FixedController;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Ring op from the exec tests: task `i` increments `i` and
    /// decrements `i+1`; adjacent tasks conflict.
    struct RingOp<'s> {
        store: &'s SpecStore<i64>,
        n: usize,
    }

    impl Operator for RingOp<'_> {
        type Task = usize;
        fn execute(&self, &i: &usize, cx: &mut TaskCtx<'_>) -> Result<Vec<usize>, Abort> {
            let j = (i + 1) % self.n;
            *cx.write(self.store, i)? += 1;
            *cx.write(self.store, j)? -= 1;
            Ok(vec![])
        }
    }

    /// [`RingOp`] behind a per-launch hook, for tests that observe
    /// *where* and *when* tasks run.
    struct Hooked<'s, F> {
        ring: RingOp<'s>,
        hook: F,
    }

    impl<F: Fn() -> Result<(), Abort> + Sync> Operator for Hooked<'_, F> {
        type Task = usize;
        fn execute(&self, t: &usize, cx: &mut TaskCtx<'_>) -> Result<Vec<usize>, Abort> {
            (self.hook)()?;
            self.ring.execute(t, cx)
        }
    }

    /// A complete ring job: builds everything inside the closure so it
    /// is `'static`, drives, and verifies the invariant (sum == 0 and
    /// all n tasks committed) against the sequential reference. `hook`
    /// runs at the top of every launch.
    fn hooked_ring_job<F>(n: usize, seed: u64, hook: F) -> JobFn
    where
        F: Fn() -> Result<(), Abort> + Send + Sync + 'static,
    {
        Box::new(move |cx: &mut JobCx<'_>| {
            let mut b = LockSpace::builder();
            let r = b.region(n);
            let space = b.build();
            let store = SpecStore::filled(r, n, 0i64);
            let op = Hooked {
                ring: RingOp { store: &store, n },
                hook: &hook,
            };
            let mut ws = WorkSet::from_vec((0..n).collect::<Vec<_>>());
            let mut ctl = FixedController::new(8);
            let mut rng = StdRng::seed_from_u64(seed ^ u64::from(cx.attempt()));
            cx.drive(&op, &space, &mut ws, &mut ctl, &mut rng)?;
            let mut store = store;
            let sum: i64 = store.snapshot().iter().sum();
            Ok(JobOutput {
                verified: sum == 0,
                committed: n,
                detail: format!("ring n={n}"),
            })
        })
    }

    fn ring_job(n: usize, seed: u64) -> JobFn {
        hooked_ring_job(n, seed, || Ok(()))
    }

    fn quick_cfg() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            lanes: 2,
            wedge_poll: Duration::from_millis(5),
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn clean_job_completes_and_verifies() {
        within(BOUND, "clean_job_completes_and_verifies", || {
            let ((), stats) = serve(quick_cfg(), |svc| {
                // Lanes parked: only the submit's wake can start the job.
                std::thread::sleep(SETTLE);
                let ticket = svc.submit(JobSpec::new("ring", ring_job(64, 7))).unwrap();
                let report = ticket.wait();
                let out = report.result.expect("job must succeed");
                assert!(out.verified, "speculative result matches reference");
                assert!(report.rounds > 0);
                assert_eq!(report.committed, 64);
                assert_eq!(report.attempts, 1);
                assert!(report.dead_letters.is_empty());
                // Parked again: only the shutdown's wake can end them.
                std::thread::sleep(SETTLE);
            });
            assert_eq!(stats.admitted, 1);
            assert_eq!(stats.completed, 1);
            assert_eq!(stats.failed, 0);
            assert_eq!(stats.worker_panics, 0);
        });
    }

    #[test]
    fn many_concurrent_jobs_all_verify() {
        let cfg = ServiceConfig {
            lanes: 3,
            ..quick_cfg()
        };
        let ((), stats) = serve(cfg, |svc| {
            let tickets: Vec<JobTicket> = (0..8)
                .map(|i| {
                    svc.submit(JobSpec::new(format!("ring-{i}"), ring_job(32, 100 + i)))
                        .expect("admission")
                })
                .collect();
            for t in tickets {
                let report = t.wait();
                assert!(report.result.expect("success").verified);
            }
        });
        assert_eq!(stats.completed, 8);
        assert_eq!(stats.worker_panics, 0);
    }

    #[test]
    fn overload_watermark_sheds_submissions() {
        let cfg = ServiceConfig {
            admit_watermark: -1.0, // pressure starts at 0.0 > -1.0
            ..quick_cfg()
        };
        let ((), stats) = serve(cfg, |svc| {
            let err = svc
                .submit(JobSpec::new("shed", ring_job(8, 1)))
                .expect_err("watermark must shed");
            assert_eq!(err, Rejection::Overload);
            assert_eq!(err.code(), 2);
        });
        assert_eq!(stats.admitted, 0);
        assert_eq!(stats.rejected_overload, 1);
    }

    #[test]
    fn zero_deadline_is_rejected_expired() {
        let ((), stats) = serve(quick_cfg(), |svc| {
            let err = svc
                .submit(JobSpec::new("late", ring_job(8, 1)).deadline(Duration::ZERO))
                .expect_err("zero deadline never runs");
            assert_eq!(err, Rejection::Expired);
        });
        assert_eq!(stats.rejected_expired, 1);
    }

    #[test]
    fn full_queue_applies_backpressure() {
        // One lane, blocked by a job the test releases; queue of 1.
        let cfg = ServiceConfig {
            lanes: 1,
            queue_cap: 1,
            wedge_grace: Duration::from_secs(60), // no wedge interference
            ..quick_cfg()
        };
        let release = Arc::new(AtomicBool::new(false));
        let blocker_release = Arc::clone(&release);
        let ((), stats) = serve(cfg, move |svc| {
            let blocker = svc
                .submit(JobSpec::new("blocker", move |cx: &mut JobCx<'_>| {
                    while !blocker_release.load(Ordering::Acquire) {
                        cx.heartbeat();
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Ok(JobOutput {
                        verified: true,
                        committed: 0,
                        detail: String::new(),
                    })
                }))
                .expect("blocker admitted");
            // Wait until the lane has actually picked the blocker up,
            // so the queue is empty again.
            while svc.queue_len() > 0 {
                std::thread::yield_now();
            }
            let queued = svc
                .submit(JobSpec::new("queued", ring_job(8, 2)))
                .expect("one fits the queue");
            let shed = svc
                .submit(JobSpec::new("shed", ring_job(8, 3)))
                .expect_err("queue is full");
            assert_eq!(shed, Rejection::Backpressure);
            release.store(true, Ordering::Release);
            assert!(blocker.wait().result.is_ok());
            assert!(queued.wait().result.is_ok());
        });
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.rejected_backpressure, 1);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn cancellation_while_queued_reports_cancelled() {
        let cfg = ServiceConfig {
            lanes: 1,
            wedge_grace: Duration::from_secs(60),
            ..quick_cfg()
        };
        let release = Arc::new(AtomicBool::new(false));
        let blocker_release = Arc::clone(&release);
        let ((), stats) = serve(cfg, move |svc| {
            let blocker = svc
                .submit(JobSpec::new("blocker", move |cx: &mut JobCx<'_>| {
                    while !blocker_release.load(Ordering::Acquire) {
                        cx.heartbeat();
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Ok(JobOutput {
                        verified: true,
                        committed: 0,
                        detail: String::new(),
                    })
                }))
                .expect("blocker admitted");
            while svc.queue_len() > 0 {
                std::thread::yield_now();
            }
            let victim = svc
                .submit(JobSpec::new("victim", ring_job(8, 4)))
                .expect("queued");
            victim.cancel();
            release.store(true, Ordering::Release);
            assert!(blocker.wait().result.is_ok());
            let report = victim.wait();
            assert_eq!(report.result, Err(JobError::Cancelled));
            assert_eq!(report.attempts, 0, "never started");
        });
        assert_eq!(stats.cancelled_jobs, 1);
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn deadline_stops_a_running_job_between_rounds() {
        // Endless spawner: every commit re-spawns, so only the
        // deadline can end the drive.
        struct Endless<'s> {
            store: &'s SpecStore<u64>,
        }
        impl Operator for Endless<'_> {
            type Task = usize;
            fn execute(&self, &i: &usize, cx: &mut TaskCtx<'_>) -> Result<Vec<usize>, Abort> {
                *cx.write(self.store, i)? += 1;
                Ok(vec![i])
            }
        }
        let ((), stats) = serve(quick_cfg(), |svc| {
            let ticket = svc
                .submit(
                    JobSpec::new("endless", |cx: &mut JobCx<'_>| {
                        let n = 4usize;
                        let mut b = LockSpace::builder();
                        let r = b.region(n);
                        let space = b.build();
                        let store = SpecStore::filled(r, n, 0u64);
                        let op = Endless { store: &store };
                        let mut ws = WorkSet::from_vec((0..n).collect::<Vec<_>>());
                        let mut ctl = FixedController::new(4);
                        let mut rng = StdRng::seed_from_u64(5);
                        cx.drive(&op, &space, &mut ws, &mut ctl, &mut rng)?;
                        Ok(JobOutput {
                            verified: true,
                            committed: 0,
                            detail: String::new(),
                        })
                    })
                    .deadline(Duration::from_millis(40)),
                )
                .expect("admitted");
            let report = ticket.wait();
            assert_eq!(report.result, Err(JobError::DeadlineExceeded));
            assert!(report.rounds > 0, "it did run before the deadline");
        });
        assert_eq!(stats.deadline_misses, 1);
        assert_eq!(stats.worker_panics, 0, "deadline stop leaks nothing");
    }

    #[test]
    fn fault_budget_exhaustion_retries_then_surfaces_dead_letters() {
        // Always-panicking operator: every launch faults, so each task
        // dead-letters after K+1 launches and every attempt fails.
        struct PanicOp;
        impl Operator for PanicOp {
            type Task = usize;
            fn execute(&self, _t: &usize, _cx: &mut TaskCtx<'_>) -> Result<Vec<usize>, Abort> {
                panic!("app bug")
            }
        }
        let cfg = ServiceConfig {
            job_retries: 2,
            retry_backoff: Duration::from_millis(1),
            dead_letter_budget: 2,
            wedge_grace: Duration::from_secs(60),
            ..quick_cfg()
        };
        let ((), stats) = serve(cfg, |svc| {
            let ticket = svc
                .submit(JobSpec::new("doomed", |cx: &mut JobCx<'_>| {
                    let mut b = LockSpace::builder();
                    let _r = b.region(1);
                    let space = b.build();
                    let op = PanicOp;
                    let mut ws = WorkSet::from_vec(vec![0usize, 1, 2]);
                    let mut ctl = FixedController::new(4);
                    let mut rng = StdRng::seed_from_u64(6);
                    cx.drive(&op, &space, &mut ws, &mut ctl, &mut rng)?;
                    Ok(JobOutput {
                        verified: true,
                        committed: 0,
                        detail: String::new(),
                    })
                }))
                .expect("admitted");
            let report = ticket.wait();
            assert_eq!(
                report.result,
                Err(JobError::FaultBudgetExhausted { dead_letters: 3 })
            );
            assert_eq!(report.attempts, 3, "initial + job_retries");
            // 3 tasks × 3 attempts, each dead-lettered once.
            assert_eq!(report.dead_letters.len(), 9);
            for (_, dl) in &report.dead_letters {
                assert_eq!(dl.retries, 2, "retired exactly at the budget");
                assert_eq!(dl.cause, crate::faults::FaultCause::OperatorPanic);
            }
            // Every task launched exactly K+1 = 3 times per attempt.
            assert_eq!(report.faulted, 27);
            assert_eq!(report.faults.len(), 27);
        });
        assert_eq!(stats.job_retries, 2);
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.worker_panics, 0, "panics stayed contained");
    }

    #[test]
    fn backing_off_between_retries_is_not_a_wedge() {
        // The backoff outlasts `wedge_grace`: slept in one piece, the
        // supervisor would detach the healthy job mid-backoff.
        let cfg = ServiceConfig {
            job_retries: 1,
            retry_backoff: Duration::from_millis(150),
            wedge_grace: Duration::from_millis(100),
            wedge_poll: Duration::from_millis(10),
            ..quick_cfg()
        };
        let ((), stats) = serve(cfg, |svc| {
            let ticket = svc
                .submit(JobSpec::new("flaky", |cx: &mut JobCx<'_>| {
                    if cx.attempt() == 1 {
                        return Err(JobError::FaultBudgetExhausted { dead_letters: 1 });
                    }
                    Ok(JobOutput {
                        verified: true,
                        committed: 0,
                        detail: String::new(),
                    })
                }))
                .expect("admitted");
            let report = ticket.wait();
            assert!(report.result.is_ok(), "{:?}", report.result);
            assert_eq!(report.attempts, 2);
            assert!(report.latency >= Duration::from_millis(150));
        });
        assert_eq!((stats.wedges, stats.job_retries), (0, 1));
    }

    /// `JobAdmit` is the first event of every job in the obs log, even
    /// when a lane sheds the job the moment it is queued.
    #[cfg(feature = "obs")]
    #[test]
    fn admission_is_logged_before_anything_a_lane_does_with_the_job() {
        use optpar_obs::EventKind;
        let cfg = ServiceConfig {
            obs: true,
            queue_cap: 1024,
            ..quick_cfg()
        };
        let ((), stats) = serve(cfg, |svc| {
            let tickets: Vec<_> = (0..400)
                .filter_map(|i| {
                    let spec = JobSpec::new("blink", ring_job(8, i));
                    svc.submit(spec.deadline(Duration::from_micros(1))).ok()
                })
                .collect();
            assert!(tickets.len() > 100, "most submissions were admitted");
            for t in tickets {
                let _ = t.wait();
            }
        });
        let log = stats.obs_log.expect("obs was on");
        let mut seen = std::collections::HashSet::new();
        for ev in &log.events {
            let (id, admit) = match ev.event.kind {
                EventKind::JobAdmit { job, .. } => (job, true),
                EventKind::JobDeadline { job }
                | EventKind::JobCancel { job }
                | EventKind::JobRetry { job, .. } => (job, false),
                _ => continue,
            };
            assert!(
                !seen.insert(id) || admit,
                "job {id}: {:?} logged before its JobAdmit",
                ev.event.kind
            );
        }
        assert!(stats.deadline_misses > 0, "some jobs were shed on a lane");
    }

    #[test]
    fn wedged_job_is_detached_and_service_keeps_serving() {
        let wedge_grace = Duration::from_millis(40);
        let cfg = ServiceConfig {
            lanes: 2,
            wedge_grace,
            wedge_poll: Duration::from_millis(5),
            ..quick_cfg()
        };
        let ((), stats) = serve(cfg, |svc| {
            // Wedge: never beats, spins until the service cancels it
            // (which the wedge detach does), so teardown is not
            // blocked.
            let wedge = svc
                .submit(JobSpec::new("wedge", |cx: &mut JobCx<'_>| {
                    while !cx.cancelled() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(JobError::Cancelled)
                }))
                .expect("admitted");
            let report = wedge.wait();
            assert_eq!(report.result, Err(JobError::Wedged));
            assert!(
                report.latency >= wedge_grace,
                "latency runs from admission: {:?}",
                report.latency
            );
            // Recovery proven, not assumed: a clean job completes
            // while the wedged lane is still stuck.
            let clean = svc
                .submit(JobSpec::new("after", ring_job(32, 9)))
                .expect("admitted after wedge");
            assert!(clean.wait().result.expect("success").verified);
        });
        assert_eq!(stats.wedges, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.worker_panics, 0);
    }

    #[test]
    fn tenants_on_separate_lanes_run_at_the_same_time() {
        // Each job's tasks raise the job's own flag, then wait for the
        // other job's: neither can finish a round unless both are
        // inside one at once. A lane that had to queue for the other
        // lane's round would leave both beats still until the
        // watchdog (grace well under the give-up bound) detaches one.
        let cfg = ServiceConfig {
            wedge_grace: Duration::from_millis(500),
            ..quick_cfg()
        };
        let flags = [
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicBool::new(false)),
        ];
        let handshake = |mine: usize| {
            let (mine, theirs) = (Arc::clone(&flags[mine]), Arc::clone(&flags[1 - mine]));
            move || {
                mine.store(true, Ordering::Release);
                let waited = Stopwatch::started();
                while !theirs.load(Ordering::Acquire) {
                    if waited.elapsed() > Duration::from_secs(5) {
                        return Err(Abort::Requested);
                    }
                    std::thread::yield_now();
                }
                Ok(())
            }
        };
        let ((), stats) = serve(cfg, |svc| {
            let tickets: Vec<JobTicket> = (0..2)
                .map(|i| {
                    let job = hooked_ring_job(16, 40 + i as u64, handshake(i));
                    svc.submit(JobSpec::new(format!("tenant-{i}"), job))
                        .expect("admitted")
                })
                .collect();
            for t in tickets {
                let report = t.wait();
                let out = report.result.expect("neither tenant waits on the other");
                assert!(out.verified);
            }
        });
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.wedges, 0);
    }

    /// Run four 64-task ring jobs under `cfg` and count the launches
    /// that ran on an executor's pool thread and on any other thread
    /// (the lane's): `(on, off)`.
    fn launches_on_and_off_pool(cfg: ServiceConfig) -> (u64, u64) {
        let counts = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let ((), stats) = serve(cfg, |svc| {
            let tickets: Vec<JobTicket> = (0..4u64)
                .map(|i| {
                    let counts = Arc::clone(&counts);
                    let job = hooked_ring_job(64, 70 + i, move || {
                        let pooled = std::thread::current()
                            .name()
                            .is_some_and(|name| name.starts_with("optpar-worker-"));
                        counts[usize::from(pooled)].fetch_add(1, Ordering::AcqRel);
                        Ok(())
                    });
                    svc.submit(JobSpec::new(format!("ring-{i}"), job))
                        .expect("admitted")
                })
                .collect();
            for t in tickets {
                let report = t.wait();
                assert!(report.result.expect("success").verified);
                assert_eq!(report.committed, 64);
            }
        });
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.worker_panics, 0);
        let [off, on] = counts.each_ref().map(|c| c.load(Ordering::Acquire));
        (on, off)
    }

    #[test]
    fn wide_lanes_drive_on_their_own_worker_threads() {
        // workers / lanes = 2: every drive owns a 2-worker executor,
        // so every launch runs on one of its pool threads.
        let (on_pool, off_pool) = launches_on_and_off_pool(ServiceConfig {
            workers: 4,
            lanes: 2,
            ..quick_cfg()
        });
        assert!(on_pool >= 4 * 64);
        assert_eq!(off_pool, 0);
    }

    #[test]
    fn one_worker_lanes_run_their_rounds_inline() {
        // workers / lanes = 1: no pool exists anywhere in the service;
        // every launch runs on its lane's own thread.
        let (on_pool, off_pool) = launches_on_and_off_pool(quick_cfg());
        assert_eq!(on_pool, 0);
        assert!(off_pool >= 4 * 64);
    }

    #[test]
    fn admission_recovers_after_pressure_storm_drains() {
        let cfg = ServiceConfig {
            admit_watermark: 0.5,
            wedge_poll: Duration::from_millis(2),
            ..quick_cfg()
        };
        let ((), stats) = serve(cfg, |svc| {
            // Simulate a drained abort storm: saturate the EWMA with
            // no job left running to feed it further samples.
            for _ in 0..50 {
                svc.shared.observe_pressure(1.0);
            }
            assert!(svc.pressure() > 0.5);
            let err = svc
                .submit(JobSpec::new("shed", ring_job(8, 1)))
                .expect_err("storm pressure sheds");
            assert_eq!(err, Rejection::Overload);
            // The supervisor decays the EWMA while the service idles;
            // without that, admission would reject forever.
            let waited = Stopwatch::started();
            while svc.pressure() > 0.5 {
                assert!(
                    waited.elapsed() < Duration::from_secs(10),
                    "pressure EWMA must decay while idle"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            let after = svc
                .submit(JobSpec::new("after", ring_job(32, 2)))
                .expect("admission recovered");
            assert!(after.wait().result.expect("success").verified);
        });
        assert_eq!(stats.rejected_overload, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn shutdown_racing_busy_lanes_still_reports_every_job() {
        // The body returns (flipping shutdown) the instant the jobs
        // are admitted, so lanes pop and run them entirely inside the
        // shutdown window while the supervisor is deciding whether it
        // may exit. Every ticket must still get a real report and
        // teardown must not hang.
        for round in 0..10u64 {
            let cfg = ServiceConfig {
                lanes: 3,
                queue_cap: 64,
                ..quick_cfg()
            };
            let (tickets, stats) = serve(cfg, |svc| {
                (0..6u64)
                    .map(|i| {
                        svc.submit(JobSpec::new(
                            format!("racer-{i}"),
                            ring_job(16, round * 100 + i),
                        ))
                        .expect("admitted")
                    })
                    .collect::<Vec<_>>()
            });
            for t in tickets {
                let report = t.wait();
                assert!(
                    report.result.expect("ran to completion").verified,
                    "round {round}"
                );
            }
            assert_eq!(stats.completed, 6);
            assert_eq!(stats.failed, 0);
        }
    }

    #[test]
    fn closure_panic_is_contained_as_app_error() {
        let ((), stats) = serve(quick_cfg(), |svc| {
            let ticket = svc
                .submit(JobSpec::new("buggy", |_cx: &mut JobCx<'_>| {
                    panic!("closure bug")
                }))
                .expect("admitted");
            let report = ticket.wait();
            assert_eq!(report.result, Err(JobError::App("closure bug".into())));
            // The lane survived; the service still works.
            let clean = svc.submit(JobSpec::new("ok", ring_job(16, 11))).unwrap();
            assert!(clean.wait().result.is_ok());
        });
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 1);
    }

    #[test]
    fn priority_shares_the_global_budget() {
        // With only one job active, its slice is the whole budget.
        let cfg = ServiceConfig {
            global_budget: 64,
            ..quick_cfg()
        };
        let ((), _stats) = serve(cfg, |svc| {
            let t = svc
                .submit(JobSpec::new("solo", ring_job(128, 13)).priority(3))
                .expect("admitted");
            assert!(t.wait().result.expect("success").verified);
        });
    }
}
