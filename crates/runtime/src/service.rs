//! A multi-tenant job service whose lanes run their jobs' rounds.
//!
//! The paper's controller adapts speculation *within* one computation;
//! this module runs many such computations at once. A [`JobService`]
//! accepts a stream of concurrent jobs (each a closure that builds its
//! own operator, lock space, and work-set and drives it through
//! [`JobCx::drive`]) and runs up to [`ServiceConfig::lanes`] of them at
//! once. A lane executes its job itself: the drive's one-worker
//! [`Executor`] runs the solo runner's steps (`exec.rs` module docs)
//! on the lane thread. Tenants
//! share no thread and no lock space, so they run concurrently and
//! never wait on each other's rounds. What they do
//! share is the global in-flight budget: each job brings its own
//! adaptive controller, and its per-step `m(t)` is clamped to its
//! priority share of that budget.
//!
//! Around that the service keeps the guards that each prevent a named
//! failure (DESIGN.md §16.2):
//!
//! * **Backpressure** — [`JobService::submit`] sheds with a structured
//!   [`Rejection`] when the bounded queue is full, or when a job
//!   arrives with a zero deadline.
//! * **Deadlines & cancellation** — checked before a job starts and at
//!   every *step boundary*, where the executor holds no locks, no
//!   work-set entries are in flight, and the epoch is already bumped:
//!   stopping there is abort-equivalent rollback for free, and leaks
//!   nothing.
//! * **Dead-lettering** — a task that keeps faulting is retired after
//!   `DEAD_LETTER_BUDGET` re-runs and surfaced in
//!   [`JobReport::dead_letters`] instead of re-queuing forever; its job
//!   ends [`JobError::FaultBudgetExhausted`].
//! * **Containment** — a panicking job closure ends its own job with
//!   [`JobError::App`]; the lane and its other clients carry on.
//! * **Chaos** — [`ServiceConfig::chaos`] arms a deterministic
//!   per-drive [`FaultPlan`](crate::faults::FaultPlan) (seeded from
//!   the job id and drive number), and every fired fault
//!   is carried drive-tagged in the report so tests reconcile the
//!   injection ledger against the fault log entry-for-entry.
//!
//! A job stuck inside a task holds only its own lane; the other lanes
//! keep serving, and [`serve`] returns once the task yields.
//!
//! Like all runtime code it is under the crate's clippy lints: no
//! `unwrap`/`expect` (a panicking lane loses its client's report) and
//! no slice indexing; and under `clippy.toml`: no raw `Instant`
//! (deadlines and latency go through [`Deadline`]/[`Stopwatch`] in the
//! phase module), and all OS threads are scoped.

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

/// Per-task dead-letter budget `K` every drive runs under
/// ([`ExecutorConfig::dead_letter_budget`]): a task that faults past it
/// is retired after `K + 1` launches.
const DEAD_LETTER_BUDGET: u32 = 16;

/// Deterministic service-level fault injection: each drive of each job
/// gets its own [`FaultPlan`](crate::faults::FaultPlan) seeded from
/// `(seed, job id, drive)`, so a fixed service seed replays the exact
/// same chaos schedule across runs.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Base seed; mixed with the job id and drive number per plan.
    pub seed: u64,
    /// Fraction of launched tasks that panic mid-flight.
    pub panic_rate: f64,
    /// Fraction of launched tasks that spuriously abort.
    pub spurious_rate: f64,
}

impl ChaosConfig {
    /// A plan firing panics and spurious aborts at `rate` each (the
    /// usual chaos-harness shape: ~2·`rate` total injection).
    pub fn with_rates(seed: u64, rate: f64) -> Self {
        ChaosConfig {
            seed,
            panic_rate: rate,
            spurious_rate: rate,
        }
    }
}

/// Service configuration. Start from `ServiceConfig::default()` and
/// override fields.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Benchmark-pinned shim: nothing reads this field (every drive
    /// runs its rounds inline on its lane). It exists only because the
    /// frozen `benchmark/src/service.rs` sets it; the next PR that may
    /// edit `benchmark/` drops it (ROADMAP item 5(b)).
    #[doc(hidden)]
    pub workers: usize,
    /// Concurrent job lanes (≥ 1): jobs running at once.
    pub lanes: usize,
    /// Bounded queue depth; submissions beyond it are shed with
    /// [`Rejection::Backpressure`].
    pub queue_cap: usize,
    /// Global in-flight speculation budget: the sum of per-round `m`
    /// slices handed to active jobs (each gets its priority share).
    pub global_budget: usize,
    /// Service-level chaos injection; `None` runs clean.
    pub chaos: Option<ChaosConfig>,
    /// Record `JobAdmit`/`JobReject`/`JobDeadline`/`JobCancel` events
    /// into an obs log surfaced in [`ServiceStats::obs_log`].
    pub obs: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            lanes: 2,
            queue_cap: 16,
            global_budget: 256,
            chaos: None,
            obs: false,
        }
    }
}

/// Why a submission was shed at the admission boundary.
// The hidden variant is a shim, not a `#[non_exhaustive]` marker: the
// benchmark matches every variant by name.
#[allow(clippy::manual_non_exhaustive)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rejection {
    /// The bounded queue is full; retry later (client-side
    /// backpressure).
    Backpressure,
    /// Never returned. benchmark-pinned: `benchmark/src/service.rs`
    /// matches on it; the next PR that may edit `benchmark/` drops it
    /// (ROADMAP item 5(b)).
    #[doc(hidden)]
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
            Rejection::Overload => write!(f, "overloaded"),
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
    /// Tasks were dead-lettered: the computation is incomplete and
    /// cannot match its reference.
    FaultBudgetExhausted {
        /// Tasks retired to the dead-letter list in the failing drive.
        dead_letters: usize,
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
/// reference, and returns a [`JobOutput`]. Called once.
pub type JobFn = Box<dyn FnOnce(&mut JobCx<'_>) -> Result<JobOutput, JobError> + Send>;

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
        F: FnOnce(&mut JobCx<'_>) -> Result<JobOutput, JobError> + Send + 'static,
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
        self.rx.recv().unwrap_or_else(|_| {
            JobReport::new(
                self.id,
                String::new(),
                Err(JobError::ServiceClosed),
                JobAccum::default(),
                self.queued_at,
            )
        })
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
    /// Rounds executed across all drives (0 = never started).
    pub rounds: usize,
    /// Tasks committed across all drives.
    pub committed: usize,
    /// Tasks aborted (conflicts) across all drives.
    pub aborted: usize,
    /// Tasks faulted (contained panics, injected faults) across all
    /// drives.
    pub faulted: usize,
    /// Dead-lettered tasks, tagged with the drive that retired them.
    pub dead_letters: Vec<(u32, DeadLetter)>,
    /// Every contained fault, tagged with its drive (reconcile
    /// against `JobReport::injected` in chaos tests).
    pub faults: Vec<(u32, TaskFault)>,
    /// Injection-side ledger: every fault the chaos plan fired, tagged
    /// with its drive (empty without [`ServiceConfig::chaos`]).
    pub injected: Vec<(u32, crate::faults::FaultRecord)>,
    /// Admission-to-report latency.
    pub latency: Duration,
}

impl JobReport {
    /// The report for a job admitted at `queued_at`, with the books
    /// its drives kept in `acc`.
    fn new(
        id: u64,
        name: String,
        result: Result<JobOutput, JobError>,
        acc: JobAccum,
        queued_at: Stopwatch,
    ) -> Self {
        JobReport {
            id,
            name,
            result,
            rounds: acc.rounds,
            committed: acc.committed,
            aborted: acc.aborted,
            faulted: acc.faulted,
            dead_letters: acc.dead_letters,
            faults: acc.faults,
            injected: acc.injected,
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
    /// Submissions shed with [`Rejection::Expired`].
    pub rejected_expired: u64,
    /// Jobs that finished `Ok`.
    pub completed: u64,
    /// Jobs that finished `Err` (includes cancellations and deadline
    /// misses).
    pub failed: u64,
    /// Jobs that ended [`JobError::Cancelled`].
    pub cancelled_jobs: u64,
    /// Jobs that ended [`JobError::DeadlineExceeded`].
    pub deadline_misses: u64,
    /// Always 0. benchmark-pinned: `benchmark/src/service.rs` reads it;
    /// the next PR that may edit `benchmark/` drops it (ROADMAP item
    /// 5(b)).
    #[doc(hidden)]
    pub job_retries: u64,
    /// The service-level obs event log, when [`ServiceConfig::obs`]
    /// was set.
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

/// Shared service state: one per [`serve`] call.
struct Shared {
    cfg: ServiceConfig,
    queue: Mutex<VecDeque<QueuedJob>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    /// Sum of priorities of currently running jobs (budget slicing).
    active_prio: AtomicU64,
    admitted: AtomicU64,
    rejected_backpressure: AtomicU64,
    rejected_expired: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled_jobs: AtomicU64,
    deadline_misses: AtomicU64,
    recorder: Option<optpar_obs::Recorder>,
}

impl Shared {
    fn new(cfg: ServiceConfig) -> Self {
        // Job events go on the controller track; no service thread
        // hands the recorder a worker buffer.
        let recorder = cfg.obs.then(optpar_obs::Recorder::new);
        Shared {
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            active_prio: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            rejected_backpressure: AtomicU64::new(0),
            rejected_expired: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            cancelled_jobs: AtomicU64::new(0),
            deadline_misses: AtomicU64::new(0),
            recorder,
            cfg,
        }
    }

    fn note_admit(&self, id: u64, priority: u64) {
        self.admitted.fetch_add(1, Ordering::AcqRel);
        if let Some(rec) = self.recorder.as_ref() {
            rec.job_admit(id, priority);
        }
    }

    fn note_reject(&self, id: u64, why: Rejection) {
        // Only `Backpressure` and `Expired` are ever shed.
        if why == Rejection::Expired {
            &self.rejected_expired
        } else {
            &self.rejected_backpressure
        }
        .fetch_add(1, Ordering::AcqRel);
        if let Some(rec) = self.recorder.as_ref() {
            rec.job_reject(id, why.code());
        }
    }

    /// Book a finished job's outcome into the counters (and the obs
    /// log for the cancel/deadline terminals).
    fn note_finish(&self, id: u64, result: &Result<JobOutput, JobError>) {
        match result {
            Ok(_) => &self.completed,
            Err(_) => &self.failed,
        }
        .fetch_add(1, Ordering::AcqRel);
        match result {
            Err(JobError::Cancelled) => {
                self.cancelled_jobs.fetch_add(1, Ordering::AcqRel);
                if let Some(rec) = self.recorder.as_ref() {
                    rec.job_cancel(id);
                }
            }
            Err(JobError::DeadlineExceeded) => {
                self.deadline_misses.fetch_add(1, Ordering::AcqRel);
                if let Some(rec) = self.recorder.as_ref() {
                    rec.job_deadline(id);
                }
            }
            _ => {}
        }
    }

    fn stats(&self) -> ServiceStats {
        ServiceStats {
            admitted: self.admitted.load(Ordering::Acquire),
            rejected_backpressure: self.rejected_backpressure.load(Ordering::Acquire),
            rejected_expired: self.rejected_expired.load(Ordering::Acquire),
            completed: self.completed.load(Ordering::Acquire),
            failed: self.failed.load(Ordering::Acquire),
            cancelled_jobs: self.cancelled_jobs.load(Ordering::Acquire),
            deadline_misses: self.deadline_misses.load(Ordering::Acquire),
            job_retries: 0,
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
            .finish_non_exhaustive()
    }
}

impl JobService<'_> {
    /// Admit a job or shed it with a structured [`Rejection`]: an
    /// expired deadline first, then the queue bound.
    pub fn submit(&self, spec: JobSpec) -> Result<JobTicket, Rejection> {
        let shared = self.shared;
        let id = shared.next_id.fetch_add(1, Ordering::AcqRel);
        if spec.deadline.is_some_and(|d| d.is_zero()) {
            shared.note_reject(id, Rejection::Expired);
            return Err(Rejection::Expired);
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

    /// Jobs currently queued (admitted, not yet started).
    pub fn queue_len(&self) -> usize {
        recover(self.shared.queue.lock()).len()
    }
}

/// Per-job accumulators threaded through [`JobCx`] into the final
/// [`JobReport`].
#[derive(Default)]
struct JobAccum {
    drives: u32,
    rounds: usize,
    committed: usize,
    aborted: usize,
    faulted: usize,
    faults: Vec<(u32, TaskFault)>,
    dead_letters: Vec<(u32, DeadLetter)>,
    injected: Vec<(u32, crate::faults::FaultRecord)>,
}

/// Execution context handed to the job closure: cancellation and
/// deadline visibility, and [`JobCx::drive`] — the only way a job
/// runs rounds.
pub struct JobCx<'s> {
    shared: &'s Shared,
    cancel: &'s AtomicBool,
    deadline: Option<Deadline>,
    job_id: u64,
    priority: u64,
    acc: JobAccum,
}

impl std::fmt::Debug for JobCx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobCx")
            .field("job_id", &self.job_id)
            .field("drives", &self.acc.drives)
            .finish_non_exhaustive()
    }
}

impl JobCx<'_> {
    /// Always 1: a job runs once. benchmark-pinned:
    /// `benchmark/src/service.rs` mixes it into each job's RNG seed;
    /// the next PR that may edit `benchmark/` drops it (ROADMAP item
    /// 5(b)).
    #[doc(hidden)]
    pub fn attempt(&self) -> u32 {
        1
    }

    /// Has the client requested cancellation?
    pub fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Acquire)
    }

    /// Has the job's deadline passed?
    pub fn deadline_expired(&self) -> bool {
        self.deadline.is_some_and(|d| d.expired())
    }

    /// Drain `ws` through speculative execution on this lane, one
    /// controller-allocated step at a time, until the work-set empties
    /// or a structured stop (cancellation, deadline, dead letters) ends
    /// the drive.
    ///
    /// The drive owns one one-worker [`Executor`] and runs the solo
    /// runner's steps on the lane thread, as
    /// [`Executor::run_with_controller`] does at one worker: one task
    /// at a time, newest first, no lock words — the job's lock space
    /// is its own, and each step claims it ([`Executor::new`]: a drain
    /// over `space` running elsewhere at the same time panics the
    /// job). A step's `m` is the controller's allocation clamped
    /// to this job's priority share of
    /// [`ServiceConfig::global_budget`]. Stops happen only at step
    /// boundaries, where no locks or tasks are in flight — the
    /// abort-equivalent rollback the service promises. The solo step
    /// draws no randomness, so `_rng` is unread; it stays in the
    /// signature for the callers that pass it.
    pub fn drive<O: Operator, C: Controller, R: Rng + ?Sized>(
        &mut self,
        op: &O,
        space: &LockSpace,
        ws: &mut WorkSet<O::Task>,
        ctl: &mut C,
        _rng: &mut R,
    ) -> Result<(), JobError> {
        self.acc.drives = self.acc.drives.saturating_add(1);
        let drive = self.acc.drives;
        let cfg = &self.shared.cfg;
        let plan = cfg.chaos.map(|c| {
            crate::faults::FaultPlan::seeded(chaos_seed(c.seed, self.job_id, u64::from(drive)))
                .with_panic_rate(c.panic_rate)
                .with_spurious_abort_rate(c.spurious_rate)
        });
        let ecfg = ExecutorConfig {
            workers: 1,
            dead_letter_budget: DEAD_LETTER_BUDGET,
            ..ExecutorConfig::default()
        };
        let mut ex = Executor::new(op, space, ecfg);
        if let Some(p) = plan.as_ref() {
            ex.set_fault_plan(p);
        }
        let mut state = crate::exec::ControlState::new(ctl);
        let mut dead_this_drive: usize = 0;
        let result = loop {
            if ws.is_empty() {
                break Ok(());
            }
            if self.cancelled() {
                break Err(JobError::Cancelled);
            }
            if self.deadline_expired() {
                break Err(JobError::DeadlineExceeded);
            }
            // This job's priority share of the global budget caps the
            // step; the shared control step owns the watchdog clamp and
            // the controller feedback.
            let rs = ex.run_solo(ws, state.budget.min(self.budget_slice()));
            ex.control_step(ctl, &mut state, &rs);
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
        };
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

/// Mix the chaos seed with the job id and drive number (splitmix-style
/// avalanche) so every drive replays its own deterministic schedule.
fn chaos_seed(seed: u64, job: u64, drive: u64) -> u64 {
    let mut x =
        seed ^ job.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ drive.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 30)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 27)
}

/// Run a service: spawns `cfg.lanes` lane threads, hands the body a
/// [`JobService`] handle, and tears the lanes down when the body
/// returns (accepted jobs finish first). Returns the body's value and
/// the final [`ServiceStats`].
///
/// A job stuck in a *non-terminating* task blocks teardown until the
/// task yields: lane threads are scoped and must join.
pub fn serve<T>(cfg: ServiceConfig, body: impl FnOnce(&JobService<'_>) -> T) -> (T, ServiceStats) {
    assert!(cfg.lanes >= 1, "service needs at least one lane");
    assert!(cfg.queue_cap >= 1, "queue capacity must be at least 1");
    let shared = Shared::new(cfg);
    let out = std::thread::scope(|s| {
        for _ in 0..shared.cfg.lanes {
            let shared = &shared;
            s.spawn(move || lane_loop(shared));
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
    (out, shared.stats())
}

/// Lane thread: pop, execute, report, repeat. Exits only when the
/// service is shutting down *and* the queue is drained, so every
/// admitted job gets a report.
fn lane_loop(shared: &Shared) {
    loop {
        let popped = {
            let queue = recover(shared.queue.lock());
            let mut queue = recover(shared.queue_cv.wait_while(queue, |queue| {
                queue.is_empty() && !shared.shutdown.load(Ordering::Acquire)
            }));
            queue.pop_front()
        };
        let Some(q) = popped else { return };
        execute_job(shared, q);
    }
}

/// Run one admitted job: shed it if it was cancelled or expired while
/// queued, otherwise run its closure once under `catch_unwind`; then
/// book the result and send the report.
fn execute_job(shared: &Shared, q: QueuedJob) {
    let QueuedJob {
        id,
        name,
        priority,
        deadline,
        cancel,
        tx,
        job,
        queued_at,
    } = q;
    let mut cx = JobCx {
        shared,
        cancel: &cancel,
        deadline,
        job_id: id,
        priority,
        acc: JobAccum::default(),
    };
    let result = if cx.cancelled() {
        Err(JobError::Cancelled)
    } else if cx.deadline_expired() {
        Err(JobError::DeadlineExceeded)
    } else {
        shared.active_prio.fetch_add(priority, Ordering::AcqRel);
        let outcome = catch_unwind(AssertUnwindSafe(|| job(&mut cx)));
        shared.active_prio.fetch_sub(priority, Ordering::AcqRel);
        // The closure itself panicked (outside the executor's per-task
        // containment): contain it here so the lane — and its other
        // clients — survive.
        outcome.unwrap_or_else(|payload| Err(JobError::App(panic_detail(payload.as_ref()))))
    };
    shared.note_finish(id, &result);
    let _ = tx.send(JobReport::new(id, name, result, cx.acc, queued_at));
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

    /// Ring op from the exec tests: task `i` locks `i` and `i+1`, then
    /// increments the one and decrements the other; adjacent tasks
    /// conflict.
    struct RingOp<'s> {
        store: &'s SpecStore<i64>,
        n: usize,
    }

    impl Operator for RingOp<'_> {
        type Task = usize;
        fn execute(&self, &i: &usize, cx: &mut TaskCtx<'_>) -> Result<Vec<usize>, Abort> {
            let j = (i + 1) % self.n;
            cx.lock(self.store, i)?;
            cx.lock(self.store, j)?;
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
            let mut rng = StdRng::seed_from_u64(seed);
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

    /// Raises its flag when dropped, so a test body that panics still
    /// lets its [`blocker`] finish and `serve` join its lanes.
    struct Release(Arc<AtomicBool>);

    impl Drop for Release {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }

    /// A job that holds its lane until the returned [`Release`] drops.
    fn blocker() -> (JobSpec, Release) {
        let flag = Arc::new(AtomicBool::new(false));
        let release = Release(Arc::clone(&flag));
        let spec = JobSpec::new("blocker", move |_cx: &mut JobCx<'_>| {
            while !flag.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(JobOutput {
                verified: true,
                committed: 0,
                detail: String::new(),
            })
        });
        (spec, release)
    }

    #[test]
    fn clean_job_completes_and_verifies() {
        within(BOUND, "clean_job_completes_and_verifies", || {
            let ((), stats) = serve(ServiceConfig::default(), |svc| {
                // Lanes parked: only the submit's wake can start the job.
                std::thread::sleep(SETTLE);
                let ticket = svc.submit(JobSpec::new("ring", ring_job(64, 7))).unwrap();
                let report = ticket.wait();
                let out = report.result.expect("job must succeed");
                assert!(out.verified, "speculative result matches reference");
                assert!(report.rounds > 0);
                assert_eq!(report.committed, 64);
                assert!(report.dead_letters.is_empty());
                // Parked again: only the shutdown's wake can end them.
                std::thread::sleep(SETTLE);
            });
            assert_eq!(stats.admitted, 1);
            assert_eq!(stats.completed, 1);
            assert_eq!(stats.failed, 0);
        });
    }

    #[test]
    fn many_concurrent_jobs_all_verify() {
        let cfg = ServiceConfig {
            lanes: 3,
            ..ServiceConfig::default()
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
    }

    #[test]
    fn zero_deadline_is_rejected_expired() {
        let ((), stats) = serve(ServiceConfig::default(), |svc| {
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
            ..ServiceConfig::default()
        };
        let ((), stats) = serve(cfg, |svc| {
            let (spec, release) = blocker();
            let held = svc.submit(spec).expect("blocker admitted");
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
            drop(release);
            assert!(held.wait().result.is_ok());
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
            ..ServiceConfig::default()
        };
        let ((), stats) = serve(cfg, |svc| {
            let (spec, release) = blocker();
            let held = svc.submit(spec).expect("blocker admitted");
            while svc.queue_len() > 0 {
                std::thread::yield_now();
            }
            let ran = Arc::new(AtomicBool::new(false));
            let victim_ran = Arc::clone(&ran);
            let victim = svc
                .submit(JobSpec::new("victim", move |_cx: &mut JobCx<'_>| {
                    victim_ran.store(true, Ordering::Release);
                    Ok(JobOutput {
                        verified: true,
                        committed: 0,
                        detail: String::new(),
                    })
                }))
                .expect("queued");
            victim.cancel();
            drop(release);
            assert!(held.wait().result.is_ok());
            let report = victim.wait();
            assert_eq!(report.result, Err(JobError::Cancelled));
            assert!(!ran.load(Ordering::Acquire), "its closure never ran");
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
        // Only the deadline check can end the drive, so without it the
        // test fails by name at the bound instead of hanging.
        within(BOUND, "deadline_stops_a_running_job_between_rounds", || {
            let ((), stats) = serve(ServiceConfig::default(), |svc| {
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
        });
    }

    /// A sealed task that returns `Err` cannot roll back: its job fails
    /// through the lane's own containment, and the lane — the only one —
    /// serves the next job.
    #[test]
    fn an_err_after_seal_fails_the_job_and_the_lane_serves_the_next() {
        struct ErrAfterSeal;
        impl Operator for ErrAfterSeal {
            type Task = usize;
            fn execute(&self, _t: &usize, cx: &mut TaskCtx<'_>) -> Result<Vec<usize>, Abort> {
                let _sealed = cx.seal()?;
                Err(Abort::Requested)
            }
        }
        within(BOUND, "an_err_after_seal_fails_the_job", || {
            // The job's rounds run inline on the lane, so the failure
            // names the sealed `Err` itself.
            let cfg = ServiceConfig {
                lanes: 1,
                ..ServiceConfig::default()
            };
            let ((), stats) = serve(cfg, |svc| {
                let doomed = svc
                    .submit(JobSpec::new("sealed-err", |cx: &mut JobCx<'_>| {
                        let mut b = LockSpace::builder();
                        let _r = b.region(1);
                        let space = b.build();
                        let mut ws = WorkSet::from_vec(vec![0usize, 1]);
                        let mut ctl = FixedController::new(2);
                        let mut rng = StdRng::seed_from_u64(6);
                        cx.drive(&ErrAfterSeal, &space, &mut ws, &mut ctl, &mut rng)?;
                        Ok(JobOutput {
                            verified: true,
                            committed: 0,
                            detail: String::new(),
                        })
                    }))
                    .expect("admitted");
                let next = svc.submit(JobSpec::new("ring", ring_job(64, 7))).unwrap();
                match doomed.wait().result {
                    Err(JobError::App(detail)) => {
                        assert!(detail.contains("after sealing"), "{detail}")
                    }
                    other => panic!("the sealed Err must fail the job: {other:?}"),
                }
                assert!(next.wait().result.expect("the lane lives").verified);
            });
            assert_eq!((stats.failed, stats.completed), (1, 1));
        });
    }

    #[test]
    fn fault_budget_exhaustion_surfaces_dead_letters() {
        // Always-panicking operator: every launch faults, so each task
        // dead-letters after K+1 launches and the job fails.
        struct PanicOp;
        impl Operator for PanicOp {
            type Task = usize;
            fn execute(&self, _t: &usize, _cx: &mut TaskCtx<'_>) -> Result<Vec<usize>, Abort> {
                panic!("app bug")
            }
        }
        let ((), stats) = serve(ServiceConfig::default(), |svc| {
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
            assert_eq!(report.dead_letters.len(), 3);
            for (drive, dl) in &report.dead_letters {
                assert_eq!(*drive, 1);
                assert_eq!(
                    dl.retries, DEAD_LETTER_BUDGET,
                    "retired exactly at the budget"
                );
                assert_eq!(dl.cause, crate::faults::FaultCause::OperatorPanic);
            }
            // Every task launched exactly K+1 times.
            let launches = 3 * (DEAD_LETTER_BUDGET as usize + 1);
            assert_eq!(report.faulted, launches);
            assert_eq!(report.faults.len(), launches);
        });
        assert_eq!(stats.failed, 1);
    }

    /// `JobAdmit` is the first event of every job in the obs log, even
    /// when a lane sheds the job the moment it is queued.
    #[test]
    fn admission_is_logged_before_anything_a_lane_does_with_the_job() {
        use optpar_obs::EventKind;
        let cfg = ServiceConfig {
            obs: true,
            queue_cap: 1024,
            ..ServiceConfig::default()
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
                EventKind::JobDeadline { job } | EventKind::JobCancel { job } => (job, false),
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
    fn tenants_on_separate_lanes_run_at_the_same_time() {
        // Each job's tasks raise the job's own flag, then wait for the
        // other job's: neither can finish a round unless both are
        // inside one at once. Lanes that took turns would never meet,
        // so the test fails by name at the bound.
        within(
            BOUND,
            "tenants_on_separate_lanes_run_at_the_same_time",
            || {
                let flags = [
                    Arc::new(AtomicBool::new(false)),
                    Arc::new(AtomicBool::new(false)),
                ];
                // Past twice the bound the handshake stops waiting, so the
                // lanes of a failed run drain instead of spinning on.
                let give_up = Deadline::after(2 * BOUND);
                let handshake = |mine: usize| {
                    let (mine, theirs) = (Arc::clone(&flags[mine]), Arc::clone(&flags[1 - mine]));
                    move || {
                        mine.store(true, Ordering::Release);
                        while !theirs.load(Ordering::Acquire) && !give_up.expired() {
                            std::thread::yield_now();
                        }
                        Ok(())
                    }
                };
                let ((), stats) = serve(ServiceConfig::default(), |svc| {
                    let tickets: Vec<JobTicket> = (0..2)
                        .map(|i| {
                            let job = hooked_ring_job(16, 40 + i as u64, handshake(i));
                            svc.submit(JobSpec::new(format!("tenant-{i}"), job))
                                .expect("admitted")
                        })
                        .collect();
                    for t in tickets {
                        assert!(t.wait().result.expect("both tenants finish").verified);
                    }
                });
                assert_eq!(stats.completed, 2);
            },
        );
    }

    #[test]
    fn one_worker_lanes_run_their_rounds_inline() {
        // `workers` is unread: whatever it says, no pool exists
        // anywhere in the service and every launch runs on its lane's
        // own thread.
        let cfg = ServiceConfig {
            workers: 4,
            lanes: 2,
            ..ServiceConfig::default()
        };
        let pooled = Arc::new(AtomicU64::new(0));
        let launched = Arc::new(AtomicU64::new(0));
        let ((), stats) = serve(cfg, |svc| {
            let tickets: Vec<JobTicket> = (0..4u64)
                .map(|i| {
                    let (pooled, launched) = (Arc::clone(&pooled), Arc::clone(&launched));
                    let job = hooked_ring_job(64, 70 + i, move || {
                        let on_pool = std::thread::current()
                            .name()
                            .is_some_and(|name| name.starts_with("optpar-worker-"));
                        pooled.fetch_add(u64::from(on_pool), Ordering::AcqRel);
                        launched.fetch_add(1, Ordering::AcqRel);
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
        assert_eq!(pooled.load(Ordering::Acquire), 0);
        assert!(launched.load(Ordering::Acquire) >= 4 * 64);
    }

    #[test]
    fn shutdown_racing_busy_lanes_still_reports_every_job() {
        // The body returns (flipping shutdown) the instant the jobs
        // are admitted, so lanes pop and run them entirely inside the
        // shutdown window. Every ticket must still get a real report
        // and teardown must not hang.
        for round in 0..10u64 {
            let cfg = ServiceConfig {
                lanes: 3,
                queue_cap: 64,
                ..ServiceConfig::default()
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
        let ((), stats) = serve(ServiceConfig::default(), |svc| {
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

    /// Task `i` writes slot `i` alone: no two tasks conflict, so a
    /// round of `m` commits exactly `min(m, pending)` tasks.
    struct DisjointOp<'s> {
        store: &'s SpecStore<i64>,
    }

    impl Operator for DisjointOp<'_> {
        type Task = usize;
        fn execute(&self, &i: &usize, cx: &mut TaskCtx<'_>) -> Result<Vec<usize>, Abort> {
            *cx.write(self.store, i)? += 1;
            Ok(vec![])
        }
    }

    #[test]
    fn priority_shares_the_global_budget() {
        // Tenants at priorities 1 and 3 each drive N conflict-free
        // tasks under a controller that asks for all N at once. Both
        // drives run between two rendezvous, so the running priorities
        // sum to 4 throughout and the slices of the 64 budget are 16
        // and 48: N/16 and N/48 rounds. Unsliced, each drive takes one
        // round; split evenly, N/32 each.
        const N: usize = 192;
        within(BOUND, "priority_shares_the_global_budget", || {
            let cfg = ServiceConfig {
                global_budget: 64,
                ..ServiceConfig::default()
            };
            let gate = Arc::new(std::sync::Barrier::new(2));
            let ((), stats) = serve(cfg, |svc| {
                let tickets: Vec<JobTicket> = [1u64, 3]
                    .into_iter()
                    .map(|p| {
                        let gate = Arc::clone(&gate);
                        let job = move |cx: &mut JobCx<'_>| {
                            let mut b = LockSpace::builder();
                            let r = b.region(N);
                            let space = b.build();
                            let store = SpecStore::filled(r, N, 0i64);
                            let op = DisjointOp { store: &store };
                            let mut ws = WorkSet::from_vec((0..N).collect::<Vec<_>>());
                            let mut ctl = FixedController::new(N);
                            let mut rng = StdRng::seed_from_u64(p);
                            gate.wait();
                            cx.drive(&op, &space, &mut ws, &mut ctl, &mut rng)?;
                            gate.wait();
                            Ok(JobOutput {
                                verified: true,
                                committed: N,
                                detail: String::new(),
                            })
                        };
                        svc.submit(JobSpec::new(format!("prio-{p}"), job).priority(p))
                            .expect("admitted")
                    })
                    .collect();
                let rounds: Vec<usize> = tickets
                    .into_iter()
                    .map(|t| {
                        let report = t.wait();
                        assert!(report.result.is_ok(), "{:?}", report.result);
                        assert_eq!(report.committed, N);
                        report.rounds
                    })
                    .collect();
                assert_eq!(rounds, [N / 16, N / 48], "rounds at priorities 1 and 3");
            });
            assert_eq!(stats.completed, 2);
        });
    }
}
