//! The speculative executor: one batch loop under every engine.
//!
//! One temporal step of the paper's model — draw `m` tasks, run them,
//! count the aborts, let the controller pick the next `m` — exists
//! here once:
//!
//! 1. **Draw** `m` tasks from the [`WorkSet`] — lowest rank first,
//!    uniformly at random within a rank (so uniformly over the whole
//!    set when tasks are unranked, the paper's model); their draw
//!    order is the commit priority. The rank buckets above the lowest
//!    sit in a deque sorted by rank, so a draw that spends the lowest
//!    bucket pops the next one off the front.
//! 2. **Run the batch** — `run_batch`, the only caller of `speculate`:
//!    build the `TaskCtx`, call the operator under panic containment,
//!    commit or roll back on a lost abstract lock, and book the
//!    outcome (spawns in, `retries + 1` re-queue, or dead-letter).
//! 3. **Release** the batch's locks: a lane task releases its own as
//!    it finishes; a model round's committed tasks keep theirs until
//!    the round barrier releases them.
//! 4. **Control** — `control_step` feeds `(launched, aborted)` to the
//!    processor-allocation controller, applies the zero-commit
//!    watchdog, and hands back the next budget.
//!
//! A barrier round ([`Executor::run_round`]) is one batch of `m` in
//! round mode, run inline on the calling thread in priority order and
//! closed by the round barrier, which releases its committed tasks'
//! locks and bumps the epoch ([`LockSpace::advance_epoch`]), its
//! outcomes going straight back into the caller's [`WorkSet`]. That
//! makes a round the paper's round at every worker count — it commits
//! the greedy prefix-MIS of its drawn prefix — and *bitwise
//! deterministic* given the RNG seed: the differential-testing anchor
//! against the sequential model in `optpar-core`.
//!
//! The same loop has two more configurations, and
//! [`Executor::run_with_controller`] picks between them by worker
//! count; the model round is asked for by name
//! ([`Executor::run_round`], [`Executor::run_rounds`]).
//!
//! * **The solo runner, at one worker** (`Executor::run_solo`). One
//!   task runs at a time, so nothing can conflict (Prop. 1: `r̄(1) =
//!   0`) and the round's emulation buys nothing. A solo step draws the
//!   `m` *newest* entries of the lowest bucket (no RNG, no shuffle), so
//!   a commit's spawns run next step, as a sequential worklist runs
//!   them; it runs them in solo mode, whose contexts touch no lock
//!   word (`task.rs` module docs: one drain per lock space, which
//!   every drain claims, and every operator cautious); an aborted or
//!   faulted entry goes back at the far end of its bucket. It still
//!   ends at the round barrier — one epoch bump — so fault keys,
//!   traces and [`RoundStats`] keep their shapes and the controller
//!   reads `r ≈ 0`. The job service's `JobCx::drive` runs the same
//!   step. The model round and the solo step share one body
//!   (`Executor::step`); they differ in the draw, the mode and where a
//!   rolled-back entry goes back.
//! * **Lanes, at more than one worker**: the pipelined engine
//!   ([`crate::pipelined`]) runs the loop in lane mode on every worker
//!   of the executor's [`WorkerPool`], behind an in-flight budget and
//!   over a sharded draw, settles each batch's outcomes into the shards at
//!   once after it, and takes the control step once per window of
//!   completions. Parallelism comes only from lanes.

use crate::faults::{FaultCause, FaultLog, TaskFault};
use crate::lock::{ConflictPolicy, LockSpace};
use crate::phase::{self, Phase};
use crate::pipelined::PipelinedConfig;
use crate::pool::WorkerPool;
use crate::stats::{RoundStats, RunStats};
use crate::task::{Abort, Mode, Operator, Ranked, TaskCtx, TaskScratch};
use optpar_core::control::Controller;
use optpar_obs::{EventKind, EventRing, Recorder, RoundTotals};
use rand::Rng;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// One pending task plus its retry bookkeeping.
#[derive(Clone, Debug)]
pub(crate) struct Entry<T> {
    /// The task itself.
    pub(crate) task: T,
    /// Rounds this task has aborted or faulted so far.
    pub(crate) retries: u32,
    /// Monotone enqueue stamp (kept across re-queues): among equally
    /// aged tasks, the oldest enqueue wins the front of the prefix,
    /// so aging degenerates to FIFO and no aged task can be overtaken
    /// forever.
    pub(crate) seq: u64,
}

impl<T> Entry<T> {
    /// This entry on its way back into the work-set after an abort or
    /// a fault: one step closer to the aging threshold.
    fn retried(self) -> Self {
        Entry {
            retries: self.retries.saturating_add(1),
            ..self
        }
    }
}

/// The pending-task multiset (the paper's work-set), bucketed by
/// [`Ranked::rank`].
///
/// A draw empties buckets in ascending rank: uniform random sampling
/// without replacement *within* a bucket — O(m) via partial
/// Fisher-Yates over the tail of the bucket's vector — with the next
/// bucket filling a draw the lowest one cannot, so `min(m, len)` tasks
/// always launch and a lower rank means a higher commit priority in
/// the batch. With every task at rank 0 (the default) this is the
/// paper's unordered work-set: one bucket, one uniform draw. Each task
/// also carries a retry counter (bumped by the executor on
/// abort/fault) feeding the starvation-avoidance aging in
/// [`Executor::run_round`]; a re-queued task keeps its rank, so aging
/// is indifferent to the bucketing.
///
/// The lowest bucket lives outside the index, so a single-rank
/// work-set never touches the index on a push and at most once per
/// draw. The other buckets sit in a deque sorted by rank: a push finds
/// its bucket by binary search (a new highest rank — the SSSP pattern,
/// whose frontier only moves up — appends; an insertion shifts the
/// shorter side), and a draw that spends the lowest bucket pops the
/// next one off the front.
#[derive(Clone, Debug)]
pub struct WorkSet<T> {
    /// The lowest-rank bucket; empty only when the whole set is.
    low: Vec<Entry<T>>,
    /// Rank of `low` (stale while the set is empty).
    low_rank: u64,
    /// Every other bucket, ascending by rank: all keys above
    /// `low_rank` and distinct, no bucket empty — a spent bucket is
    /// removed, so the next-lowest one is always the front.
    higher: VecDeque<(u64, Vec<Entry<T>>)>,
    /// Entries over all buckets.
    len: usize,
    next_seq: u64,
}

impl<T> Default for WorkSet<T> {
    fn default() -> Self {
        WorkSet::new()
    }
}

impl<T> WorkSet<T> {
    /// An empty work-set.
    pub fn new() -> Self {
        WorkSet {
            low: Vec::new(),
            low_rank: 0,
            higher: VecDeque::new(),
            len: 0,
            next_seq: 0,
        }
    }

    /// Pending task count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the work-set drained?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Move `m ≤ bucket.len()` entries drawn uniformly at random from
/// `bucket` onto `out`, in draw (= commit-priority) order.
///
/// O(m) regardless of the bucket's size: the i-th draw swaps a uniform
/// pick from the surviving prefix into position `n-1-i`, then the
/// sampled tail is moved off — no front-drain shifting the entire
/// remainder.
fn draw_from<T, R: Rng + ?Sized>(
    bucket: &mut Vec<Entry<T>>,
    m: usize,
    rng: &mut R,
    out: &mut Vec<Entry<T>>,
) {
    let n = bucket.len();
    for i in 0..m {
        let left = n - i;
        if left == 1 {
            // Final draw of a full drain: one survivor remains, so
            // the pick is forced (`swap(0, 0)`) — don't burn an RNG
            // word on it. Uniformity over all n! orders is
            // unchanged (see the chi-squared tests below).
            break;
        }
        let j = rng.random_range(0..left);
        bucket.swap(j, n - 1 - i);
    }
    // The tail holds draws in reverse draw order; restore priority
    // order (first draw = highest priority).
    take_tail(bucket, m, out);
}

/// Move the last `m ≤ bucket.len()` entries of `bucket` onto `out`,
/// last first: the newest entries, newest first, when nothing has
/// shuffled the bucket.
fn take_tail<T>(bucket: &mut Vec<Entry<T>>, m: usize, out: &mut Vec<Entry<T>>) {
    let n = bucket.len();
    out.extend(bucket.drain(n - m..).rev());
}

impl<T: Ranked> WorkSet<T> {
    /// Wrap an existing task list.
    pub fn from_vec(tasks: Vec<T>) -> Self {
        let mut ws = WorkSet::new();
        // One exact allocation for the common single-rank list, not
        // log₂(n) doublings ending up to 2× over capacity.
        ws.low.reserve_exact(tasks.len());
        ws.extend(tasks);
        ws
    }

    /// Add one task.
    pub fn push(&mut self, t: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_entry(Entry {
            task: t,
            retries: 0,
            seq,
        });
    }

    /// Queue an entry in its rank's bucket, preserving its retry count
    /// and enqueue stamp (the re-queue path).
    pub(crate) fn push_entry(&mut self, e: Entry<T>) {
        let rank = e.task.rank();
        if self.len == 0 || rank == self.low_rank {
            self.low_rank = rank;
            self.low.push(e);
        } else if rank > self.low_rank {
            match self.higher.binary_search_by_key(&rank, |&(r, _)| r) {
                Ok(at) => {
                    if let Some((_, bucket)) = self.higher.get_mut(at) {
                        bucket.push(e);
                    }
                }
                Err(at) => self.higher.insert(at, (rank, vec![e])),
            }
        } else {
            // A new lowest rank: the old lowest bucket, below every
            // indexed one, joins the index at its front.
            let demoted = std::mem::replace(&mut self.low, vec![e]);
            self.higher
                .push_front((std::mem::replace(&mut self.low_rank, rank), demoted));
        }
        self.len += 1;
    }

    /// Queue an entry at the far end of its rank's bucket — the end
    /// the solo step's draw reaches last — in O(1): push it, then
    /// swap it with the bucket's first entry, which moves to the near
    /// end. The solo step's re-queue path: a task that just aborted or
    /// faulted does not run again before the rest of its bucket.
    fn push_far(&mut self, e: Entry<T>) {
        let rank = e.task.rank();
        self.push_entry(e);
        let bucket = if rank == self.low_rank {
            Some(&mut self.low)
        } else {
            let at = self.higher.binary_search_by_key(&rank, |&(r, _)| r);
            at.ok()
                .and_then(|at| self.higher.get_mut(at))
                .map(|(_, b)| b)
        };
        if let Some(b) = bucket {
            let last = b.len() - 1;
            b.swap(0, last);
        }
    }

    /// Add many tasks.
    pub fn extend<I: IntoIterator<Item = T>>(&mut self, it: I) {
        for t in it {
            self.push(t);
        }
    }

    /// Core of the sampler: remove `min(m, len)` entries, lowest
    /// bucket first and uniformly at random within a bucket, in draw
    /// (= commit-priority) order.
    fn draw_entries<R: Rng + ?Sized>(&mut self, m: usize, rng: &mut R) -> Vec<Entry<T>> {
        self.draw_by(m, |bucket, take, out| draw_from(bucket, take, rng, out))
    }

    /// The solo step's draw: remove `min(m, len)` entries, lowest
    /// bucket first and newest first within a bucket — no RNG, no
    /// shuffle.
    fn take_newest(&mut self, m: usize) -> Vec<Entry<T>> {
        self.draw_by(m, take_tail)
    }

    /// Remove `min(m, len)` entries, emptying buckets in ascending
    /// rank: `pick(bucket, k, out)` moves `k ≤ bucket.len()` entries
    /// of the lowest bucket onto `out`.
    fn draw_by(
        &mut self,
        m: usize,
        mut pick: impl FnMut(&mut Vec<Entry<T>>, usize, &mut Vec<Entry<T>>),
    ) -> Vec<Entry<T>> {
        let m = m.min(self.len);
        self.len -= m;
        let mut batch = Vec::with_capacity(m);
        loop {
            let take = (m - batch.len()).min(self.low.len());
            pick(&mut self.low, take, &mut batch);
            if !self.low.is_empty() {
                return batch;
            }
            // The lowest bucket is spent: the next one takes its place
            // and fills what is left of the draw.
            let Some((rank, bucket)) = self.higher.pop_front() else {
                return batch;
            };
            self.low_rank = rank;
            self.low = bucket;
        }
    }

    /// Remove and return `min(m, len)` tasks, lowest rank first and
    /// uniformly at random within a rank; the returned order is the
    /// commit-priority order. This public sampler applies no retry
    /// aging: the executor does that via
    /// `WorkSet::sample_drain_aged`, so the distributional contract
    /// here — pinned by the chi-squared tests — never shifts.
    pub fn sample_drain<R: Rng + ?Sized>(&mut self, m: usize, rng: &mut R) -> Vec<T> {
        self.draw_entries(m, rng)
            .into_iter()
            .map(|e| e.task)
            .collect()
    }

    /// Draw like [`WorkSet::sample_drain`], then apply starvation
    /// avoidance: every drawn task with `retries >= RETRY_BUDGET` is
    /// moved (stably) to the front of the prefix — whatever its rank —
    /// most-retried first, ties broken oldest-enqueue-first. The front
    /// of a round's prefix is greedy-MIS-winning by construction —
    /// under sequential execution it *always* commits — so an aged
    /// task commits within one drawn round. When no drawn task has
    /// crossed the budget the batch is bit-identical to the plain draw
    /// (same RNG words, same order).
    pub(crate) fn sample_drain_aged<R: Rng + ?Sized>(
        &mut self,
        m: usize,
        rng: &mut R,
    ) -> Vec<Entry<T>> {
        let mut batch = self.draw_entries(m, rng);
        if batch.iter().any(|e| e.retries >= RETRY_BUDGET) {
            batch.sort_by_key(|e| {
                if e.retries >= RETRY_BUDGET {
                    (0u8, u32::MAX - e.retries, e.seq)
                } else {
                    // Equal keys: the stable sort preserves draw order
                    // for everything under budget.
                    (1u8, 0, 0)
                }
            });
        }
        batch
    }

    /// Move every pending entry out, retry/seq bookkeeping intact
    /// (the pipelined executor shards them across per-worker queues).
    pub(crate) fn take_entries(&mut self) -> Vec<Entry<T>> {
        self.len = 0;
        let mut out = std::mem::take(&mut self.low);
        for (_, mut bucket) in std::mem::take(&mut self.higher) {
            out.append(&mut bucket);
        }
        out
    }

    /// Absorb entries on their way into or back from the pipelined
    /// shards, bumping `next_seq` past every absorbed stamp so later
    /// [`WorkSet::push`] calls never reuse a live seq.
    pub(crate) fn absorb_entries(&mut self, entries: impl IntoIterator<Item = Entry<T>>) {
        for e in entries {
            self.next_seq = self.next_seq.max(e.seq + 1);
            self.push_entry(e);
        }
    }
}

/// Abort-retry budget `K`: a task aborted or faulted at least this
/// many times is aged to the front of the next drawn prefix, where the
/// greedy commit rule guarantees it wins (starvation avoidance).
pub(crate) const RETRY_BUDGET: u32 = 8;

/// Watchdog threshold `T`: after this many consecutive zero-commit (but
/// non-empty) rounds or windows the control step overrides the
/// controller and halves `m` each further stalled step, down to
/// `m = 1` where Prop. 1 gives `r̄(1) = 0` and forward progress.
pub(crate) const WATCHDOG_STALL: u32 = 4;

/// Executor configuration.
#[derive(Clone, Copy, Debug)]
pub struct ExecutorConfig {
    /// Worker threads. A round always runs inline on the calling
    /// thread; more than one worker gives a drain lanes
    /// ([`Executor::run_with_controller`]).
    pub workers: usize,
    /// Benchmark-pinned shim: nothing reads this field (first-wins is
    /// the only arbitration rule). It exists only because the frozen
    /// `benchmark/src/drain.rs` sets it; the next PR that may edit
    /// `benchmark/` drops it (ROADMAP item 4(b)).
    #[doc(hidden)]
    pub policy: ConflictPolicy,
    /// Dead-letter budget `K`: a task that *faults* (not merely
    /// aborts) while already at `retries ≥ K` is retired to the
    /// executor's dead-letter list ([`Executor::take_dead_letters`])
    /// instead of being re-queued — an always-faulting task launches
    /// at most `K + 1` times. `u32::MAX` disables retirement
    /// (faults re-queue forever, the pre-service behavior). Conflict
    /// aborts are never dead-lettered: aging guarantees they commit.
    pub dead_letter_budget: u32,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        // Asked once per process: the query reads cgroup files (≈ 12 µs
        // on a 2-vCPU container), and every service drive builds a
        // config from this default.
        static PARALLELISM: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        ExecutorConfig {
            workers: *PARALLELISM.get_or_init(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            }),
            policy: ConflictPolicy::FirstWins,
            dead_letter_budget: u32::MAX,
        }
    }
}

/// The speculative executor: pairs an [`Operator`] with a
/// [`LockSpace`].
pub struct Executor<'a, O: Operator> {
    op: &'a O,
    pub(crate) space: &'a LockSpace,
    cfg: ExecutorConfig,
    /// Persistent parked threads for lanes; `None` when `workers == 1`.
    pub(crate) pool: Option<WorkerPool>,
    /// Structured record of every contained fault (operator panics,
    /// injected faults).
    faults: Mutex<FaultLog>,
    /// Tasks retired past [`ExecutorConfig::dead_letter_budget`],
    /// awaiting [`Executor::take_dead_letters`].
    dead_letters: Mutex<Vec<crate::faults::DeadLetter>>,
    /// The lockset buffers of the model round and the solo step, kept
    /// from one step to the next so that a round allocates nothing for
    /// them once they have grown to its footprint (a round's committed
    /// locksets are retained to its barrier). A step takes it out and
    /// puts it back after its barrier; one that unwinds drops it.
    step_scratch: Mutex<TaskScratch>,
    /// Deterministic fault-injection plan; `None` arms nothing.
    fault_plan: Option<&'a crate::faults::FaultPlan>,
    /// Optional per-phase time accounting (draw / execute / commit /
    /// wait), stamped at round or batch granularity — never per task.
    pub(crate) phases: Option<&'a crate::phase::PhaseClock>,
    /// Attached observability recorder; `None` records nothing. Each
    /// step and each lane records into its own scratch's buffer and
    /// hands it over at its barrier or batch retire.
    recorder: Option<Recorder>,
}

impl<O: Operator> std::fmt::Debug for Executor<'_, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.cfg.workers)
            .field("pool", &self.pool.is_some())
            .finish_non_exhaustive()
    }
}

/// Where `Executor::speculate` sends a finished task: the caller owns
/// the queues (one [`WorkSet`] in round mode, per-worker shards in
/// pipelined mode), `speculate` owns the decision. A committed task's
/// locks are not carried here: a lane task has released them, and a
/// model round's are in its scratch until the barrier.
pub(crate) enum Settled<T> {
    /// Committed: these spawned tasks enter the work-set.
    Committed(Vec<T>),
    /// Aborted or faulted under budget: re-queue this entry (its
    /// retry count is already bumped).
    Requeue(Entry<T>),
    /// Faulted past the dead-letter budget: the task left the system.
    Retired,
}

/// What the control loop carries from one step to the next.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ControlState {
    /// The budget the last step handed back: the next round's `m`,
    /// the next window's in-flight target.
    pub(crate) budget: usize,
    /// Consecutive commit-free rounds or windows (watchdog input).
    pub(crate) stalled: u32,
}

impl ControlState {
    /// Before the first step: the controller's own `m`, nothing stalled.
    pub(crate) fn new<C: Controller>(ctl: &C) -> Self {
        ControlState {
            budget: ctl.current_m().max(1),
            stalled: 0,
        }
    }
}

/// The zero-commit watchdog's override: once `stalled` consecutive
/// commit-free steps reach `threshold`, halve `m` per further stalled
/// step down to 1, where Prop. 1 (`r̄(1) = 0`) guarantees the head
/// task commits.
fn watchdog_clamp(m: usize, stalled: u32, threshold: u32) -> usize {
    if stalled < threshold {
        return m;
    }
    let excess = (stalled - threshold).saturating_add(1).min(63);
    (m >> excess).max(1)
}

/// Re-raise an `Err` returned by a sealed task as a panic: its writes
/// went in place, so it cannot be rolled back.
#[cold]
#[inline(never)]
fn abort_past_seal(slot: usize, abort: Abort) -> ! {
    std::panic::resume_unwind(Box::new(format!(
        "the task at slot {slot} returned {abort:?} after sealing; a sealed task cannot roll back"
    )))
}

impl<'a, O: Operator> Executor<'a, O> {
    /// Pair an operator with its lock space under the given config.
    /// Spawns the persistent worker pool the lanes run on when
    /// `workers > 1`.
    ///
    /// One drain runs over a lock space at a time: every model round,
    /// solo step and pipelined run claims `space` for its duration,
    /// and one that finds it claimed — by another executor over the
    /// same space, or another thread sharing this one — panics. (The
    /// solo runner's tasks touch no lock word; the claim is what keeps
    /// any other task away from their data.)
    pub fn new(op: &'a O, space: &'a LockSpace, cfg: ExecutorConfig) -> Self {
        assert!(cfg.workers >= 1, "need at least one worker");
        Executor {
            op,
            space,
            cfg,
            pool: (cfg.workers > 1).then(|| WorkerPool::new(cfg.workers)),
            faults: Mutex::new(FaultLog::default()),
            dead_letters: Mutex::new(Vec::new()),
            step_scratch: Mutex::new(TaskScratch::default()),
            fault_plan: None,
            phases: None,
            recorder: None,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> ExecutorConfig {
        self.cfg
    }

    /// Install a deterministic fault-injection plan: every subsequent
    /// round consults it per launched task.
    pub fn set_fault_plan(&mut self, plan: &'a crate::faults::FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// Total faults contained since construction (monotone; surviving
    /// a drain of [`Executor::take_faults`]).
    pub fn fault_count(&self) -> usize {
        crate::faults::recover(self.faults.lock()).total()
    }

    /// Drain and return the structured fault log.
    pub fn take_faults(&self) -> Vec<TaskFault> {
        crate::faults::recover(self.faults.lock()).drain()
    }

    /// Drain and return the dead-letter list: tasks that faulted past
    /// [`ExecutorConfig::dead_letter_budget`] and were retired from
    /// the work-set instead of re-queued.
    pub fn take_dead_letters(&self) -> Vec<crate::faults::DeadLetter> {
        std::mem::take(&mut *crate::faults::recover(self.dead_letters.lock()))
    }

    /// Worker-level job panics that escaped the per-task containment
    /// of a lane drain (should stay 0: operator panics are caught per
    /// task).
    pub fn worker_panics(&self) -> u64 {
        self.pool.as_ref().map_or(0, WorkerPool::job_panics)
    }

    /// Attach a phase clock: subsequent runs charge their draw /
    /// execute / commit / wait time to it. Stamps are taken at round
    /// (or batch) granularity, so the per-task hot path stays
    /// timer-free.
    pub fn set_phase_clock(&mut self, clock: &'a crate::phase::PhaseClock) {
        self.phases = Some(clock);
    }

    /// Attach an observability recorder, like
    /// [`Executor::set_fault_plan`] attaches a plan. Subsequent steps
    /// and lanes record events into buffers of their own and append
    /// them to it at the round barrier and at each batch retire.
    pub fn enable_obs(&mut self) {
        self.recorder = Some(Recorder::new());
    }

    /// The attached recorder, if any (snapshot/take its [`EventLog`]
    /// from here).
    ///
    /// [`EventLog`]: optpar_obs::EventLog
    pub fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_ref()
    }

    /// Give `scratch` an event buffer if a recorder is attached and it
    /// has none yet: a fresh scratch has none, and the step's keeps its
    /// buffer from one step to the next.
    pub(crate) fn trace_into(&self, scratch: &mut TaskScratch) {
        if self.recorder.is_some() {
            scratch.trace.get_or_insert_with(EventRing::default);
        }
    }

    /// Append `scratch`'s events to the recorder on worker track
    /// `track`. The caller serializes this with the controller-track
    /// events that must follow them (module docs of `optpar_obs`).
    pub(crate) fn hand_over(&self, track: usize, scratch: &TaskScratch) {
        if let (Some(rec), Some(ring)) = (&self.recorder, &scratch.trace) {
            rec.append(track as u32, ring);
        }
    }

    /// Round prologue on the controller track: `RoundBegin` plus one
    /// `RetryAged` per drawn task that crossed the retry budget (in a
    /// model round they lead the prefix by the aging rule).
    fn obs_round_begin(&self, m: usize, batch: &[Entry<O::Task>]) {
        if let Some(rec) = self.recorder.as_ref() {
            rec.round_begin(self.space.epoch(), m as u64);
            for (slot, e) in batch.iter().enumerate() {
                if e.retries >= RETRY_BUDGET {
                    rec.retry_aged(slot as u32, e.retries);
                }
            }
        }
    }

    /// Round epilogue on the controller track: the round's totals.
    /// The step appends its buffer first, so the round's task events
    /// sit inside its segment.
    fn obs_round_end(&self, stats: &RoundStats) {
        if let Some(rec) = self.recorder.as_ref() {
            let totals = RoundTotals {
                launched: stats.launched as u32,
                committed: stats.committed as u32,
                aborted: stats.aborted as u32,
                faulted: stats.faulted as u32,
                spawned: stats.spawned as u32,
            };
            rec.round_end(self.space.epoch(), stats.m as u64, totals);
        }
    }

    /// Run one round launching up to `m` tasks from `ws`: one batch
    /// in round mode, run inline on the calling thread in priority
    /// order and retired by the round barrier — whatever the worker
    /// count, so the round commits the greedy prefix-MIS of its draw.
    ///
    /// Tasks whose retry count has reached the retry budget (8) are
    /// aged to the front of the drawn prefix (greedy-MIS-winning by
    /// construction), so no task starves under an adversarial
    /// conflict pattern.
    ///
    /// # Panics
    /// Panics if another drain is running over the executor's lock
    /// space ([`Executor::new`]).
    pub fn run_round<R: Rng + ?Sized>(
        &self,
        ws: &mut WorkSet<O::Task>,
        m: usize,
        rng: &mut R,
    ) -> RoundStats {
        self.step(
            ws,
            m,
            |ws, m| ws.sample_drain_aged(m, rng),
            Mode::Round,
            WorkSet::push_entry,
        )
    }

    /// One barrier-closed step at budget `m`, shared by the model
    /// round and the solo runner: `draw` takes the batch out of `ws`,
    /// the batch runs inline in draw order in `mode` with
    /// each commit's spawns pushed and each rolled-back entry handed
    /// to `requeue`, and the round barrier closes it — the committed
    /// locks released, one epoch bump, one trace segment, one
    /// [`RoundStats`]. The step holds the
    /// lock space's drain claim throughout.
    fn step(
        &self,
        ws: &mut WorkSet<O::Task>,
        m: usize,
        draw: impl FnOnce(&mut WorkSet<O::Task>, usize) -> Vec<Entry<O::Task>>,
        mode: Mode,
        requeue: fn(&mut WorkSet<O::Task>, Entry<O::Task>),
    ) -> RoundStats {
        let _drain = self.space.claim_drain();
        let t_draw = phase::maybe_start(self.phases);
        let batch = draw(ws, m);
        phase::maybe_add(self.phases, Phase::Draw, t_draw);
        let mut stats = RoundStats {
            m,
            launched: batch.len(),
            ..RoundStats::default()
        };
        self.obs_round_begin(m, &batch);
        if batch.is_empty() {
            // Keep the trace's round segments 1:1 with RoundStats even
            // for the degenerate empty round (which bumps no epoch).
            self.obs_round_end(&stats);
            return stats;
        }
        // Slot indices must fit the 32-bit slot field of traces.
        assert!(batch.len() < u32::MAX as usize, "round too large");

        // Outcomes go straight back into `ws`, in slot order.
        let t_exec = phase::maybe_start(self.phases);
        let epoch = self.space.epoch();
        let mut scratch = std::mem::take(&mut *crate::faults::recover(self.step_scratch.lock()));
        self.trace_into(&mut scratch);
        self.run_batch(
            &mut scratch,
            0,
            mode,
            epoch,
            batch,
            &mut stats,
            |s| match s {
                Settled::Committed(spawned) => ws.extend(spawned),
                Settled::Requeue(entry) => requeue(ws, entry),
                Settled::Retired => {}
            },
        );
        phase::maybe_add(self.phases, Phase::Execute, t_exec);
        self.round_barrier(&mut scratch, &stats);
        *crate::faults::recover(self.step_scratch.lock()) = scratch;
        stats
    }

    /// Run one drawn batch to completion in `mode`, in
    /// order — the only caller of `speculate`, under every engine.
    /// Entry `i` runs as slot `first_slot + i`; its outcome is booked
    /// in `tally` and handed to `sink`, which owns the queues. `key`
    /// is the batch's fault coordinate: the round's epoch, or the key
    /// a lane batch took ([`LockSpace::advance_epoch`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_batch(
        &self,
        scratch: &mut TaskScratch,
        first_slot: usize,
        mode: Mode,
        key: u64,
        entries: Vec<Entry<O::Task>>,
        tally: &mut RoundStats,
        mut sink: impl FnMut(Settled<O::Task>),
    ) {
        for (i, entry) in entries.into_iter().enumerate() {
            let slot = first_slot + i;
            sink(self.speculate(scratch, slot, mode, key, entry, tally));
        }
    }

    /// The round barrier, after every task of the round has settled:
    /// trace the finished round, release the locks its committed
    /// tasks kept, and bump the epoch.
    fn round_barrier(&self, scratch: &mut TaskScratch, stats: &RoundStats) {
        let t_commit = phase::maybe_start(self.phases);
        // Round barrier from the trace's point of view: append the
        // step's events, stamp the round totals, then record the epoch
        // bump the barrier performs.
        self.hand_over(0, scratch);
        self.obs_round_end(stats);
        scratch.release_retained(self.space);
        let closed = self.space.advance_epoch();
        if let Some(rec) = self.recorder.as_ref() {
            rec.epoch_bump(closed, closed + 1);
        }
        debug_assert!(self.space.check_all_free().is_ok());
        // Commit covers the barrier's bookkeeping (trace hand-over,
        // release, epoch bump).
        phase::maybe_add(self.phases, Phase::Commit, t_commit);
    }

    /// Drive the executor with a controller until the work-set drains
    /// (or `max_rounds` elapse).
    ///
    /// At one worker this runs solo steps (`Executor::run_solo`: the
    /// newest `m` tasks, one at a time, no lock words), one
    /// `control_step` per step. With more it drains through lanes
    /// ([`Executor::run_pipelined`] at [`PipelinedConfig::default`]),
    /// stopping after `max_rounds` windows' worth of completions; each
    /// returned entry is then a window, not a round. The model round
    /// is [`Executor::run_rounds`].
    ///
    /// # Panics
    /// Panics if another drain is running over the executor's lock
    /// space ([`Executor::new`]), and as [`Executor::run_pipelined`]
    /// with more than one worker.
    pub fn run_with_controller<C: Controller + Send, R: Rng + ?Sized>(
        &self,
        ws: &mut WorkSet<O::Task>,
        ctl: &mut C,
        max_rounds: usize,
        rng: &mut R,
    ) -> RunStats {
        if self.cfg.workers > 1 {
            let d = PipelinedConfig::default();
            let cfg = PipelinedConfig {
                max_completions: max_rounds.saturating_mul(d.window),
                ..d
            };
            return self.run_pipelined(ws, ctl, cfg, rng);
        }
        self.control_loop(ws, ctl, max_rounds, |ws, m| self.run_solo(ws, m))
    }

    /// Drive the executor with a controller through model rounds
    /// ([`Executor::run_round`]), one `control_step` per round, until
    /// the work-set drains (or `max_rounds` elapse) — at any worker
    /// count, since a round runs inline. Each round commits the greedy
    /// prefix-MIS of its uniformly drawn prefix: this is the paper's
    /// loop, which [`Executor::run_with_controller`] leaves at one
    /// worker for the solo runner.
    ///
    /// # Panics
    /// As [`Executor::run_round`].
    pub fn run_rounds<C: Controller, R: Rng + ?Sized>(
        &self,
        ws: &mut WorkSet<O::Task>,
        ctl: &mut C,
        max_rounds: usize,
        rng: &mut R,
    ) -> RunStats {
        self.control_loop(ws, ctl, max_rounds, |ws, m| self.run_round(ws, m, rng))
    }

    /// Run `step` at the budget the last control step handed back,
    /// then take the control step on its outcome, until `ws` drains or
    /// `max_rounds` steps have run.
    fn control_loop<C: Controller>(
        &self,
        ws: &mut WorkSet<O::Task>,
        ctl: &mut C,
        max_rounds: usize,
        mut step: impl FnMut(&mut WorkSet<O::Task>, usize) -> RoundStats,
    ) -> RunStats {
        let mut run = RunStats::default();
        let mut state = ControlState::new(ctl);
        while run.rounds.len() < max_rounds && !ws.is_empty() {
            let rs = step(ws, state.budget);
            self.control_step(ctl, &mut state, &rs);
            run.rounds.push(rs);
        }
        run
    }

    /// One step of the solo runner: draw the `m` newest entries of the
    /// lowest bucket (`WorkSet::take_newest`: no RNG, no shuffle), run
    /// them newest first, then pass the round barrier.
    ///
    /// The batch runs in solo mode: one task at a time over a lock
    /// space no other drain uses, so nothing can conflict and no lock
    /// word is touched (`task.rs` module docs). A commit's spawns are
    /// the newest entries when the next step draws; an aborted
    /// (requested) or faulted task goes back at the far end of its
    /// bucket. The barrier is the round's — one epoch bump, the same
    /// trace segment and [`RoundStats`] — so fault keys, traces and the
    /// controller see a round with `r ≈ 0`.
    pub(crate) fn run_solo(&self, ws: &mut WorkSet<O::Task>, m: usize) -> RoundStats {
        self.step(ws, m, WorkSet::take_newest, Mode::Solo, WorkSet::push_far)
    }

    /// The one control step, taken after every round and every
    /// pipelined window: feed the controller what `rs` measured and
    /// hand back the next budget (also left in `state`).
    ///
    /// The controller observes [`RoundStats::pressure_ratio`] —
    /// aborts *plus* faults over launched — so a fault storm shrinks
    /// `m` exactly like a conflict storm. Independently, past
    /// `WATCHDOG_STALL` (4) consecutive zero-commit steps the watchdog
    /// overrides the controller (`watchdog_clamp`).
    /// The obs `Controller` point carries the controller's own `m`; the
    /// clamp shows in the next `RoundBegin.m` / `WindowAdvance.target`.
    pub(crate) fn control_step<C: Controller>(
        &self,
        ctl: &mut C,
        state: &mut ControlState,
        rs: &RoundStats,
    ) -> usize {
        state.stalled = if rs.launched > 0 && rs.committed == 0 {
            state.stalled.saturating_add(1)
        } else {
            0
        };
        ctl.observe(rs.pressure_ratio(), rs.launched);
        if let Some(rec) = self.recorder.as_ref() {
            rec.controller(
                ctl.current_m() as u64,
                rs.pressure_ratio(),
                ctl.target_rho(),
            );
        }
        state.budget = watchdog_clamp(ctl.current_m(), state.stalled, WATCHDOG_STALL).max(1);
        state.budget
    }

    /// Speculate one task to completion under panic containment and
    /// book its outcome — the single place the runtime calls
    /// [`Operator::execute`].
    ///
    /// `mode` selects the task's lock mode and `fault_key` is
    /// the coordinate fault injection and fault records key on (both
    /// as in `run_batch`). `scratch` is the calling loop's lockset
    /// buffer, lent to this task's context and returned empty.
    ///
    /// The operator call is wrapped in `catch_unwind`: a panicking
    /// operator (or a fired injected panic) becomes a structured
    /// [`TaskFault`] — its locks are released exactly like an abort's,
    /// the worker thread survives, and the round continues. The
    /// rollback is always sound because every write follows the task's
    /// seal ([`TaskCtx::seal`]; a write through the context seals
    /// first), so a task that unwinds before it has written nothing. A
    /// task that returned `Ok` without sealing but draws a commit-point
    /// fault from an attached plan is rolled back the same way, its
    /// spawns dropped; a task that sealed drew that fault at its seal.
    ///
    /// A sealed task is the exception to containment: it wrote in
    /// place, so an `Err` it returns or a panic it raises after sealing
    /// — a lock that conflicts after a write included — cannot be
    /// rolled back. Either is re-raised as a panic out of this call,
    /// failing the round (and, in the job service, the job — the lane
    /// survives).
    ///
    /// The outcome is counted in `stats` and decides where the task
    /// goes next: a commit's spawns enter the work-set, an abort or
    /// an under-budget fault re-queues one step closer to the aging
    /// threshold.
    fn speculate(
        &self,
        scratch: &mut TaskScratch,
        slot: usize,
        mode: Mode,
        fault_key: u64,
        entry: Entry<O::Task>,
        stats: &mut RoundStats,
    ) -> Settled<O::Task> {
        scratch.record(EventKind::TaskLaunch {
            slot: slot as u32,
            epoch: fault_key,
        });
        let mut cx = TaskCtx::with_mode(slot, self.space, mode, scratch);
        if let Some(plan) = self.fault_plan {
            cx.arm_fault(plan, fault_key);
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| self.op.execute(&entry.task, &mut cx)));
        let acquires = cx.acquires;
        stats.lock_acquires += acquires;
        let (cause, detail) = match outcome {
            // A commit-point fault: the task finished, but rolls back
            // like a spurious abort and its spawns are dropped. (A
            // sealed task drew it at `seal`, before its sealed writes.)
            Ok(Ok(_))
                if self
                    .fault_plan
                    .is_some_and(|p| !cx.sealed && p.draw_commit(fault_key, slot)) =>
            {
                (
                    FaultCause::Injected,
                    "injected commit-point fault".to_string(),
                )
            }
            Ok(Ok(spawned)) => {
                // A lane task releases its lockset here; a model
                // round's keeps it until the barrier.
                cx.record(EventKind::TaskCommit {
                    slot: slot as u32,
                    acquires: acquires as u32,
                    spawned: spawned.len() as u32,
                });
                cx.finish_commit();
                stats.committed += 1;
                stats.spawned += spawned.len();
                return Settled::Committed(spawned);
            }
            Ok(Err(abort)) if cx.sealed => abort_past_seal(slot, abort),
            Ok(Err(Abort::Fault)) => (FaultCause::Injected, "injected abort".to_string()),
            Ok(Err(_)) => {
                cx.record(EventKind::TaskAbort {
                    slot: slot as u32,
                    acquires: acquires as u32,
                });
                cx.finish_abort();
                stats.aborted += 1;
                return Settled::Requeue(entry.retried());
            }
            // A panic after `seal` has nothing to roll back to.
            Err(payload) if cx.sealed => std::panic::resume_unwind(payload),
            // The operator panicked (or an injected panic fired).
            // Contain it: roll back, release locks, keep the worker.
            Err(payload) => crate::faults::classify_panic(payload.as_ref()),
        };
        // A fault: roll it back like an abort, log it, and re-queue it
        // — unless it faulted at `retries ≥ K`, when it is retired to
        // the dead-letter list instead, so an always-faulting task
        // launches at most `K + 1` times in every mode.
        cx.record(EventKind::TaskFault {
            slot: slot as u32,
            acquires: acquires as u32,
            cause: cause.code(),
        });
        cx.finish_abort();
        stats.faulted += 1;
        let settled = if entry.retries >= self.cfg.dead_letter_budget {
            stats.dead_lettered += 1;
            crate::faults::recover(self.dead_letters.lock()).push(crate::faults::DeadLetter {
                epoch: fault_key,
                slot: Some(slot),
                retries: entry.retries,
                cause: cause.clone(),
                detail: detail.clone(),
            });
            Settled::Retired
        } else {
            Settled::Requeue(entry.retried())
        };
        crate::faults::recover(self.faults.lock()).push(TaskFault {
            epoch: fault_key,
            slot: Some(slot),
            cause,
            detail,
        });
        settled
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::store::SpecStore;
    use optpar_core::control::FixedController;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::Ordering;

    impl<T: Ranked> WorkSet<T> {
        /// Add one task with a pre-set retry count, to exercise the
        /// aging path without replaying the aborts.
        fn push_with_retries(&mut self, t: T, retries: u32) {
            let seq = self.next_seq;
            self.absorb_entries(vec![Entry {
                task: t,
                retries,
                seq,
            }]);
        }
    }

    /// Toy operator: task `i` locks counter `i` and its ring neighbour
    /// `i+1` — adjacent tasks conflict — then increments the one and
    /// decrements the other.
    pub(crate) struct RingOp<'s> {
        pub(crate) store: &'s SpecStore<i64>,
        pub(crate) n: usize,
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

    /// Defaults at `workers` worker threads.
    pub(crate) fn exec_cfg(workers: usize) -> ExecutorConfig {
        ExecutorConfig {
            workers,
            ..ExecutorConfig::default()
        }
    }

    pub(crate) fn ring_setup(n: usize) -> (LockSpace, crate::lock::Region) {
        let mut b = LockSpace::builder();
        let r = b.region(n);
        (b.build(), r)
    }

    #[test]
    fn workset_sampling() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ws = WorkSet::from_vec((0..10).collect::<Vec<_>>());
        let batch = ws.sample_drain(4, &mut rng);
        assert_eq!(batch.len(), 4);
        assert_eq!(ws.len(), 6);
        let batch2 = ws.sample_drain(100, &mut rng);
        assert_eq!(batch2.len(), 6);
        assert!(ws.is_empty());
        let mut all: Vec<_> = batch.into_iter().chain(batch2).collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn workset_sampling_is_uniform() {
        // Chi-squared-style sanity check on the tail-sampling rewrite:
        // over many draws of 1-of-8, every element must appear with
        // frequency close to 1/8.
        let mut rng = StdRng::seed_from_u64(42);
        let trials = 16_000;
        let mut hits = [0usize; 8];
        for _ in 0..trials {
            let mut ws = WorkSet::from_vec((0..8usize).collect::<Vec<_>>());
            let batch = ws.sample_drain(1, &mut rng);
            hits[batch[0]] += 1;
        }
        let expect = trials / 8;
        for (v, &h) in hits.iter().enumerate() {
            assert!(
                (h as i64 - expect as i64).abs() < (expect / 5) as i64,
                "element {v} drawn {h} times, expected ≈{expect}"
            );
        }
    }

    #[test]
    fn phase_clock_accumulates_round_phases() {
        let mut rng = StdRng::seed_from_u64(33);
        let n = 128;
        let (space, r) = ring_setup(n);
        let store = SpecStore::filled(r, n, 0i64);
        let op = RingOp { store: &store, n };
        let clock = crate::phase::PhaseClock::new();
        let mut ex = Executor::new(&op, &space, exec_cfg(2));
        ex.set_phase_clock(&clock);
        let mut ws = WorkSet::from_vec((0..n).collect::<Vec<_>>());
        while !ws.is_empty() {
            let _ = ex.run_round(&mut ws, 16, &mut rng);
        }
        let b = clock.snapshot();
        assert!(b.draw_ns > 0, "draw was timed");
        assert!(b.execute_ns > 0, "execute was timed");
        assert!(b.commit_ns > 0, "commit was timed");
        assert_eq!(b.wait_ns, 0, "an inline round waits for no one");
        assert_eq!(b.total_ns(), b.draw_ns + b.execute_ns + b.commit_ns);
    }

    #[test]
    fn sequential_round_conserves_sum() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 16;
        let (space, r) = ring_setup(n);
        let store = SpecStore::filled(r, n, 0i64);
        let op = RingOp { store: &store, n };
        let ex = Executor::new(&op, &space, exec_cfg(1));
        let mut ws = WorkSet::from_vec((0..n).collect::<Vec<_>>());
        let mut total_committed = 0;
        while !ws.is_empty() {
            let rs = ex.run_round(&mut ws, 8, &mut rng);
            assert_eq!(rs.launched, rs.committed + rs.aborted);
            total_committed += rs.committed;
        }
        assert_eq!(total_committed, n);
        // Increment/decrement pairs cancel.
        let mut store = store;
        let sum: i64 = store.snapshot().iter().sum();
        assert_eq!(sum, 0);
    }

    #[test]
    fn controller_drives_to_completion() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 128;
        let (space, r) = ring_setup(n);
        let store = SpecStore::filled(r, n, 0i64);
        let op = RingOp { store: &store, n };
        let ex = Executor::new(&op, &space, ExecutorConfig::default());
        let mut ws = WorkSet::from_vec((0..n).collect::<Vec<_>>());
        let mut ctl = FixedController::new(16);
        let run = ex.run_with_controller(&mut ws, &mut ctl, 10_000, &mut rng);
        assert_eq!(run.total_committed(), n);
        assert!(ws.is_empty());
        assert!(run.overall_conflict_ratio() < 1.0);
    }

    #[test]
    fn empty_round_reports_zero() {
        let (space, _r) = ring_setup(1);
        struct Nop;
        impl Operator for Nop {
            type Task = ();
            fn execute(&self, _: &(), _: &mut TaskCtx<'_>) -> Result<Vec<()>, Abort> {
                Ok(vec![])
            }
        }
        let op = Nop;
        let ex = Executor::new(&op, &space, ExecutorConfig::default());
        let mut ws: WorkSet<()> = WorkSet::new();
        let mut rng = StdRng::seed_from_u64(6);
        let rs = ex.run_round(&mut ws, 10, &mut rng);
        assert_eq!(rs.launched, 0);
        assert_eq!(rs.conflict_ratio(), 0.0);
    }

    #[test]
    fn spawned_tasks_enter_workset() {
        // Operator that spawns one child (with a stop marker).
        struct Spawner<'s> {
            store: &'s SpecStore<u32>,
        }
        impl Operator for Spawner<'_> {
            type Task = (usize, bool);
            fn execute(
                &self,
                &(i, respawn): &(usize, bool),
                cx: &mut TaskCtx<'_>,
            ) -> Result<Vec<(usize, bool)>, Abort> {
                *cx.write(self.store, i)? += 1;
                Ok(if respawn { vec![(i, false)] } else { vec![] })
            }
        }
        let mut b = LockSpace::builder();
        let r = b.region(4);
        let space = b.build();
        let store = SpecStore::filled(r, 4, 0u32);
        let op = Spawner { store: &store };
        let ex = Executor::new(&op, &space, ExecutorConfig::default());
        let mut ws = WorkSet::from_vec(vec![(0, true), (1, true), (2, true), (3, true)]);
        let mut rng = StdRng::seed_from_u64(7);
        let mut committed = 0;
        while !ws.is_empty() {
            committed += ex.run_round(&mut ws, 4, &mut rng).committed;
        }
        assert_eq!(committed, 8, "4 originals + 4 spawned");
        let mut store = store;
        assert_eq!(store.snapshot(), vec![2, 2, 2, 2]);
    }

    /// Pearson chi-squared statistic over equiprobable cells.
    fn chi_squared(counts: &[u64], trials: u64) -> f64 {
        let expected = trials as f64 / counts.len() as f64;
        counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum()
    }

    /// A full drain (`m == len`) must be uniform over all n!
    /// permutations — this is the regression test for the audited
    /// tail-draw path (the forced final pick is now skipped entirely,
    /// which must not disturb the distribution).
    #[test]
    fn full_drain_is_uniform_over_permutations() {
        const N: usize = 4;
        const FACT: usize = 24;
        const TRIALS: u64 = 24_000;
        let mut counts = [0u64; FACT];
        let mut rng = StdRng::seed_from_u64(0xFEED);
        for _ in 0..TRIALS {
            let mut ws = WorkSet::from_vec((0..N).collect::<Vec<_>>());
            let perm = ws.sample_drain(N, &mut rng);
            assert!(ws.is_empty());
            // Lehmer code → permutation index.
            let mut idx = 0usize;
            for (i, &p) in perm.iter().enumerate() {
                let smaller = perm[i + 1..].iter().filter(|&&q| q < p).count();
                idx = idx * (N - i) + smaller;
            }
            counts[idx] += 1;
        }
        assert!(
            counts.iter().all(|&c| c > 0),
            "some permutation never drawn"
        );
        let chi2 = chi_squared(&counts, TRIALS);
        // 23 degrees of freedom; 99.9th percentile ≈ 49.7. A uniform
        // sampler fails this roughly once in a thousand seed choices;
        // the seed is fixed, so the test is deterministic.
        assert!(chi2 < 49.7, "chi-squared {chi2:.1} over 24 cells (23 dof)");
    }

    /// A partial drain (`m < len`) must be uniform over ordered
    /// m-prefixes (the drawn batch is a commit-priority permutation,
    /// so order matters).
    #[test]
    fn partial_drain_is_uniform_over_ordered_prefixes() {
        const N: usize = 6;
        const M: usize = 2;
        const CELLS: usize = 30; // 6 * 5 ordered pairs
        const TRIALS: u64 = 30_000;
        let mut counts = [0u64; CELLS];
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        for _ in 0..TRIALS {
            let mut ws = WorkSet::from_vec((0..N).collect::<Vec<_>>());
            let batch = ws.sample_drain(M, &mut rng);
            assert_eq!(batch.len(), M);
            assert_eq!(ws.len(), N - M);
            let (a, b) = (batch[0], batch[1]);
            assert_ne!(a, b);
            let cell = a * (N - 1) + if b > a { b - 1 } else { b };
            counts[cell] += 1;
        }
        let chi2 = chi_squared(&counts, TRIALS);
        // 29 dof; 99.9th percentile ≈ 58.3 (fixed seed — deterministic).
        assert!(chi2 < 58.3, "chi-squared {chi2:.1} over 30 cells (29 dof)");
    }

    /// The degenerate cases around the skipped forced draw: a full
    /// drain of one element consumes no RNG words, and every full
    /// drain still returns a permutation of the work-set.
    #[test]
    fn full_drain_skips_forced_final_draw() {
        struct CountingRng {
            inner: StdRng,
            words: u64,
        }
        impl rand::RngCore for CountingRng {
            fn next_u64(&mut self) -> u64 {
                self.words += 1;
                self.inner.next_u64()
            }
        }
        let mut rng = CountingRng {
            inner: StdRng::seed_from_u64(3),
            words: 0,
        };

        let mut ws = WorkSet::from_vec(vec![42usize]);
        assert_eq!(ws.sample_drain(1, &mut rng), vec![42]);
        assert_eq!(rng.words, 0, "a 1-element drain is fully forced");

        let mut ws = WorkSet::from_vec((0..5usize).collect::<Vec<_>>());
        let mut perm = ws.sample_drain(5, &mut rng);
        // Rejection sampling may retry, so only a lower bound is exact:
        // at least one word per free draw, none for the forced one.
        assert!(rng.words >= 4);
        perm.sort_unstable();
        assert_eq!(perm, vec![0, 1, 2, 3, 4]);
    }

    /// Ranked test task: `(rank, id)`.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
    struct Rk(u64, usize);

    impl Ranked for Rk {
        fn rank(&self) -> u64 {
            self.0
        }
    }

    /// Ranks still pending, ascending, straight from the buckets —
    /// which also checks the bucket invariants a draw relies on.
    fn pending_ranks(ws: &WorkSet<Rk>) -> Vec<u64> {
        assert!(ws.higher.iter().all(|(_, b)| !b.is_empty()), "dead bucket");
        let keys: Vec<u64> = ws.higher.iter().map(|&(r, _)| r).collect();
        assert!(keys.windows(2).all(|k| k[0] < k[1]), "unsorted: {keys:?}");
        assert!(keys.iter().all(|&r| r > ws.low_rank));
        assert!(!ws.low.is_empty() || ws.higher.is_empty());
        let low = ws.low.iter().map(|e| (ws.low_rank, e));
        let higher = ws
            .higher
            .iter()
            .flat_map(|(r, b)| b.iter().map(move |e| (*r, e)));
        let ranks: Vec<u64> = low
            .chain(higher)
            .inspect(|(r, e)| assert_eq!(*r, e.task.rank(), "entry in the wrong bucket"))
            .map(|(r, _)| r)
            .collect();
        assert_eq!(ranks.len(), ws.len(), "len() counts every bucket");
        ranks
    }

    /// Every draw takes the lowest ranks there are, in rank order,
    /// whatever mix of pushes (including below the current lowest
    /// bucket) and short draws came before.
    #[test]
    fn ranked_draw_takes_lowest_ranks_in_order() {
        let mut rng = StdRng::seed_from_u64(0xA11);
        let mut ws = WorkSet::new();
        let mut id = 0;
        for step in 0..400 {
            for _ in 0..rng.random_range(0..12usize) {
                ws.push(Rk(rng.random_range(0..6u64), id));
                id += 1;
            }
            let before = ws.len();
            let m = rng.random_range(0..10usize);
            let batch = ws.sample_drain(m, &mut rng);
            assert_eq!(batch.len(), m.min(before), "step {step}");
            assert_eq!(ws.len(), before - batch.len());
            assert!(
                batch.windows(2).all(|w| w[0].0 <= w[1].0),
                "batch out of rank order: {batch:?}"
            );
            let drawn_max = batch.last().map_or(0, |t| t.0);
            assert!(
                pending_ranks(&ws).iter().all(|&r| r >= drawn_max),
                "step {step}: drew rank {drawn_max} past a lower pending one"
            );
        }
        assert!(id > 1000 && ws.len() > 100, "the walk kept buckets busy");
    }

    /// The bucket index against a naive model — every pending entry in
    /// one list; a draw stably pulls the lowest rank's entries out and
    /// samples them with the same in-bucket sampler. New-highest,
    /// new-lowest and mid-rank pushes interleave with draws, and both
    /// sides must draw the same entries in the same order.
    #[test]
    fn bucket_index_draws_like_a_flat_model() {
        let mut rng = StdRng::seed_from_u64(0xDEC);
        let (mut ws_rng, mut model_rng) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
        let mut ws = WorkSet::new();
        let mut model: Vec<Entry<Rk>> = Vec::new();
        let mut kinds = [0usize; 3];
        for step in 0..600 {
            for _ in 0..rng.random_range(0..6usize) {
                let ranks = || model.iter().map(|e| e.task.0);
                let lo = ranks().min().unwrap_or(10_000);
                let hi = ranks().max().unwrap_or(10_000);
                let kind = rng.random_range(0..3usize);
                kinds[kind] += 1;
                let rank = match kind {
                    0 => hi + rng.random_range(1..4),
                    1 => lo - rng.random_range(1..4),
                    _ => rng.random_range(lo..=hi),
                };
                let seq = ws.next_seq;
                ws.push(Rk(rank, seq as usize));
                model.push(Entry {
                    task: Rk(rank, seq as usize),
                    retries: 0,
                    seq,
                });
            }
            let m = rng.random_range(0..5usize);
            let got = ws.draw_entries(m, &mut ws_rng);
            let mut want = Vec::new();
            while want.len() < m {
                let Some(low) = model.iter().map(|e| e.task.0).min() else {
                    break;
                };
                let (mut bucket, rest): (Vec<_>, Vec<_>) =
                    model.drain(..).partition(|e| e.task.0 == low);
                let take = (m - want.len()).min(bucket.len());
                draw_from(&mut bucket, take, &mut model_rng, &mut want);
                model = rest;
                model.append(&mut bucket);
            }
            let key = |b: &[Entry<Rk>]| b.iter().map(|e| (e.task, e.seq)).collect::<Vec<_>>();
            assert_eq!(key(&got), key(&want), "step {step}");
            let mut ranks: Vec<u64> = model.iter().map(|e| e.task.0).collect();
            ranks.sort_unstable();
            assert_eq!(pending_ranks(&ws), ranks, "step {step}");
        }
        assert!(
            kinds.iter().all(|&k| k > 300),
            "every push kind ran: {kinds:?}"
        );
        assert!(
            ws.higher.len() > 20,
            "the index held many buckets at the end"
        );
    }

    /// The draw within the lowest bucket is still uniform over ordered
    /// prefixes when a higher bucket is present (and untouched by it).
    #[test]
    fn partial_drain_of_a_bucket_is_uniform_below_a_higher_bucket() {
        const N: usize = 6;
        const CELLS: usize = 30; // 6 * 5 ordered pairs
        const TRIALS: u64 = 30_000;
        let mut counts = [0u64; CELLS];
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        for _ in 0..TRIALS {
            let mut ws = WorkSet::from_vec((0..N + 3).map(|i| Rk((i / N) as u64, i)).collect());
            let batch = ws.sample_drain(2, &mut rng);
            let (a, b) = (batch[0].1, batch[1].1);
            assert!(a < N && b < N && a != b, "drew past the lowest bucket");
            assert_eq!(pending_ranks(&ws), vec![0, 0, 0, 0, 1, 1, 1]);
            counts[a * (N - 1) + if b > a { b - 1 } else { b }] += 1;
        }
        let chi2 = chi_squared(&counts, TRIALS);
        // 29 dof; 99.9th percentile ≈ 58.3 (fixed seed — deterministic).
        assert!(chi2 < 58.3, "chi-squared {chi2:.1} over 30 cells (29 dof)");
    }

    /// Aging outranks rank: an over-budget entry drawn from a higher
    /// bucket still leads the prefix, and re-queuing it puts it back
    /// in its own bucket with its bookkeeping intact.
    #[test]
    fn aged_entry_leads_from_a_higher_bucket_and_requeues_at_its_rank() {
        let mut rng = StdRng::seed_from_u64(0xA6E);
        let budget = RETRY_BUDGET;
        let mut ws = WorkSet::from_vec(vec![Rk(0, 0), Rk(0, 1), Rk(0, 2)]);
        ws.push_with_retries(Rk(1, 3), budget);
        ws.extend([Rk(1, 4), Rk(2, 5)]);
        let mut batch = ws.sample_drain_aged(5, &mut rng);
        assert_eq!(batch[0].task, Rk(1, 3), "the aged entry leads");
        assert!(batch[1..4].iter().all(|e| e.task.0 == 0));
        assert_eq!(batch[4].task, Rk(1, 4));
        assert_eq!(pending_ranks(&ws), vec![2]);

        // Re-queue it the way `speculate` does (below the now-lowest
        // bucket), then let rank-0 work in.
        let aged = batch.swap_remove(0);
        let seq = aged.seq;
        ws.push_entry(Entry {
            retries: aged.retries + 1,
            ..aged
        });
        ws.push(Rk(0, 6));
        assert_eq!(pending_ranks(&ws), vec![0, 1, 2]);
        assert_eq!(ws.sample_drain(1, &mut rng), vec![Rk(0, 6)]);
        let next = ws.sample_drain_aged(1, &mut rng);
        assert_eq!(next[0].task, Rk(1, 3));
        assert_eq!((next[0].retries, next[0].seq), (budget + 1, seq));
    }

    /// The pipelined executor's shard hand-off: `take_entries` →
    /// `absorb_entries` preserves every entry, its bucket, and the
    /// stamp counter.
    #[test]
    fn take_and_absorb_round_trip_the_buckets() {
        let mut ws = WorkSet::new();
        for i in 0..40usize {
            ws.push_with_retries(Rk((i * 7 % 5) as u64, i), (i % 3) as u32);
        }
        let key = |e: &Entry<Rk>| (e.task, e.retries, e.seq);
        let entries = ws.take_entries();
        assert!(ws.is_empty());
        assert!(pending_ranks(&ws).is_empty());
        let mut want: Vec<_> = entries.iter().map(key).collect();
        want.sort_unstable();

        // A fresh set, as when shards flow back into the caller's.
        let mut back = WorkSet::new();
        back.absorb_entries(entries);
        assert_eq!(back.len(), 40);
        let mut ranks: Vec<u64> = want.iter().map(|(t, ..)| t.0).collect();
        ranks.sort_unstable();
        assert_eq!(pending_ranks(&back), ranks);
        back.push(Rk(0, 40));
        let mut got: Vec<_> = back.take_entries().iter().map(key).collect();
        got.sort_unstable();
        let late = got.iter().position(|k| k.0 == Rk(0, 40)).expect("pushed");
        assert_eq!(got.remove(late).2, 40, "next_seq moved past every stamp");
        assert_eq!(got, want);
    }

    /// The solo draw takes the lowest bucket newest first, fills a
    /// short draw from the next bucket, and a far-end push is what it
    /// reaches last — the entry it displaced from the far end moving to
    /// the near end.
    #[test]
    fn solo_draw_is_newest_first_and_requeues_at_the_far_end() {
        let mut ws = WorkSet::from_vec(vec![Rk(0, 0), Rk(0, 1), Rk(1, 2), Rk(0, 3)]);
        ws.push(Rk(1, 4));
        let ids = |b: Vec<Entry<Rk>>| b.into_iter().map(|e| e.task.1).collect::<Vec<_>>();
        assert_eq!(ids(ws.take_newest(2)), vec![3, 1]);
        let batch = ws.take_newest(2);
        assert_eq!(pending_ranks(&ws), vec![1]);
        assert_eq!(ids(batch.clone()), vec![0, 4], "rank 0 spent, rank 1 fills");
        ws.extend([Rk(1, 5), Rk(1, 6)]);
        for e in batch.into_iter().rev() {
            ws.push_far(e.retried());
        }
        // 4 went to rank 1's far end, swapping 2 to its near end; 0
        // came back as a new lowest bucket.
        assert_eq!(ids(ws.take_newest(10)), vec![0, 2, 6, 5, 4]);
        assert!(ws.is_empty());
    }

    /// A solo step marks no lock word, aborts nothing on a conflict
    /// graph that makes every model round abort, and still ends at the
    /// round barrier — one epoch bump. It counts acquires as a model
    /// round counts them: every successful lock call.
    #[test]
    fn a_solo_step_stamps_nothing_and_commits_every_launch() {
        let n = 64;
        let (space, r) = ring_setup(n);
        let store = SpecStore::filled(r, n, 0i64);
        let op = RingOp { store: &store, n };
        let ex = Executor::new(&op, &space, exec_cfg(1));
        let mut ws = WorkSet::from_vec((0..n).collect::<Vec<_>>());
        let epoch = space.epoch();
        let rs = ex.run_solo(&mut ws, n);
        assert_eq!((rs.launched, rs.committed, rs.aborted), (n, n, 0));
        assert_eq!(
            rs.lock_acquires,
            4 * n,
            "two locks and two writes, counted per call"
        );
        assert_eq!(space.epoch(), epoch + 1, "one barrier");
        assert!(
            (0..n).all(|l| space.owner_of(l).is_none()),
            "nothing marked"
        );
        // The even tasks lock disjoint pairs: a model round commits all
        // of them, and counts the same four acquires per task.
        let mut ws = WorkSet::from_vec((0..n).step_by(2).collect::<Vec<_>>());
        let rs = ex.run_round(&mut ws, n, &mut StdRng::seed_from_u64(3));
        assert_eq!((rs.committed, rs.aborted), (n / 2, 0));
        assert_eq!(rs.lock_acquires, 4 * rs.committed, "the solo count");
        let mut ws = WorkSet::from_vec((0..n).collect::<Vec<_>>());
        let mut rng = StdRng::seed_from_u64(3);
        assert!(
            ex.run_round(&mut ws, n, &mut rng).aborted > 0,
            "the model round aborts"
        );
        drop(ex);
        let mut store = store;
        assert_eq!(store.snapshot().iter().sum::<i64>(), 0);
    }

    /// Every engine claims its lock space: a drain over a space that
    /// another drain holds panics before it takes a task — model
    /// rounds and the solo runner at one worker, lanes at two.
    #[test]
    fn a_drain_over_a_claimed_space_panics() {
        let n = 8;
        let (space, r) = ring_setup(n);
        let store = SpecStore::filled(r, n, 0i64);
        let op = RingOp { store: &store, n };
        let held = space.claim_drain();
        for (workers, rounds) in [(1, true), (1, false), (2, false)] {
            let ex = Executor::new(&op, &space, exec_cfg(workers));
            let mut ws = WorkSet::from_vec((0..n).collect::<Vec<_>>());
            let mut ctl = FixedController::new(4);
            let mut rng = StdRng::seed_from_u64(1);
            let drain = catch_unwind(AssertUnwindSafe(|| {
                if rounds {
                    ex.run_rounds(&mut ws, &mut ctl, 10, &mut rng)
                } else {
                    ex.run_with_controller(&mut ws, &mut ctl, 10, &mut rng)
                }
            }));
            assert!(drain.is_err(), "workers {workers}, rounds {rounds}");
            assert_eq!(ws.len(), n, "nothing was drawn");
        }
        drop(held);
    }

    /// `WorkSet<T>: Default` asks nothing of `T`.
    #[test]
    fn default_workset_needs_no_default_task() {
        struct Opaque;
        let ws: WorkSet<Opaque> = WorkSet::default();
        assert!(ws.is_empty());
    }

    /// Operator that panics exactly once (on task `13`, first sight),
    /// then behaves like [`RingOp`].
    pub(crate) struct PanicOnceOp<'s> {
        pub(crate) store: &'s SpecStore<i64>,
        pub(crate) n: usize,
        pub(crate) armed: std::sync::atomic::AtomicBool,
    }

    impl Operator for PanicOnceOp<'_> {
        type Task = usize;

        fn execute(&self, &i: &usize, cx: &mut TaskCtx<'_>) -> Result<Vec<usize>, Abort> {
            if i == 13 && self.armed.swap(false, Ordering::AcqRel) {
                panic!("op blew up on task 13");
            }
            let j = (i + 1) % self.n;
            cx.lock(self.store, i)?;
            cx.lock(self.store, j)?;
            *cx.write(self.store, i)? += 1;
            *cx.write(self.store, j)? -= 1;
            Ok(vec![])
        }
    }

    #[test]
    fn operator_panic_is_contained_sequentially() {
        let mut rng = StdRng::seed_from_u64(21);
        let n = 16;
        let (space, r) = ring_setup(n);
        let store = SpecStore::filled(r, n, 0i64);
        let op = PanicOnceOp {
            store: &store,
            n,
            armed: std::sync::atomic::AtomicBool::new(true),
        };
        let ex = Executor::new(&op, &space, exec_cfg(1));
        let mut ws = WorkSet::from_vec((0..n).collect::<Vec<_>>());
        let mut committed = 0;
        let mut faulted = 0;
        while !ws.is_empty() {
            let rs = ex.run_round(&mut ws, 8, &mut rng);
            assert_eq!(rs.launched, rs.committed + rs.aborted + rs.faulted);
            committed += rs.committed;
            faulted += rs.faulted;
        }
        assert_eq!(
            committed, n,
            "the panicked task was re-queued and committed"
        );
        assert_eq!(faulted, 1);
        assert_eq!(ex.fault_count(), 1);
        let faults = ex.take_faults();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].cause, FaultCause::OperatorPanic);
        assert!(faults[0].detail.contains("op blew up on task 13"));
        let mut store = store;
        assert_eq!(store.snapshot().iter().sum::<i64>(), 0);
        assert!(
            space.check_all_free().is_ok(),
            "faulted locks were released"
        );
    }

    /// How a [`SealedThen`] task ends after its sealed write.
    #[derive(Clone, Copy, Debug)]
    enum PastSeal {
        Commit,
        Err,
        Panic,
        /// Every task but the first to lock [`SHARED`] conflicts past
        /// its seal.
        Conflict,
    }

    /// The slot every [`PastSeal::Conflict`] task locks after its write.
    const SHARED: usize = 8;

    /// Task `i` locks slot `i`, seals, adds one to it in place, then
    /// commits — task 0 ends as `how` says instead — except
    /// [`PastSeal::Conflict`], which is not
    /// cautious: it writes slot `i` through the context (its seal), then
    /// locks [`SHARED`].
    struct SealedThen<'s> {
        store: &'s SpecStore<i64>,
        how: PastSeal,
    }

    impl Operator for SealedThen<'_> {
        type Task = usize;

        fn execute(&self, &i: &usize, cx: &mut TaskCtx<'_>) -> Result<Vec<usize>, Abort> {
            if let PastSeal::Conflict = self.how {
                *cx.write(self.store, i)? += 1;
                cx.lock(self.store, SHARED)?;
                return Ok(vec![]);
            }
            cx.lock(self.store, i)?;
            let mut sealed = cx.seal()?;
            *sealed.write(self.store, i) += 1;
            match self.how {
                _ if i != 0 => Ok(vec![]),
                PastSeal::Commit | PastSeal::Conflict => Ok(vec![]),
                PastSeal::Err => Err(Abort::Requested),
                PastSeal::Panic => panic!("sealed task blew up"),
            }
        }
    }

    /// A sealed task cannot roll back, so an `Err` or a panic after its
    /// seal is not contained: a model round and a solo step re-raise it
    /// (a returned `Err` as a panic naming it and its slot, a panic with
    /// its own payload), and a two-worker drain — which runs lanes —
    /// fails through the pool's rendezvous once the lane that lost
    /// task 0 has stopped the other, which would otherwise wait forever
    /// for that task (hence the watchdog). A write seals too, so a lock
    /// that conflicts after one — an operator that is not cautious —
    /// fails the model round alike. (On lanes such a lock conflicts
    /// only with a holder that is running at that moment, and a solo
    /// task has no one to conflict with, so those engines leave that
    /// case out.) Every failed drain leaves every lock word free: its
    /// drain claim clears them as it unwinds.
    #[test]
    fn an_err_or_panic_after_seal_fails_the_round() {
        use crate::pool::tests::{within, BOUND};
        for (how, says) in [
            (PastSeal::Err, "returned Requested after sealing"),
            (PastSeal::Panic, "sealed task blew up"),
            (
                PastSeal::Conflict,
                "the task at slot 1 returned Conflict { lock: 8 } after sealing",
            ),
        ] {
            // (workers, model rounds): rounds, the solo runner, lanes.
            for (workers, rounds) in [(1, true), (1, false), (2, false)] {
                if !rounds && matches!(how, PastSeal::Conflict) {
                    continue;
                }
                within(
                    BOUND,
                    "an_err_or_panic_after_seal_fails_the_round",
                    move || {
                        let (space, r) = ring_setup(SHARED + 1);
                        let store = SpecStore::filled(r, SHARED + 1, 0i64);
                        let op = SealedThen { store: &store, how };
                        let ex = Executor::new(&op, &space, exec_cfg(workers));
                        let mut ws = WorkSet::from_vec((0..SHARED).collect::<Vec<_>>());
                        let mut rng = StdRng::seed_from_u64(5);
                        let mut ctl = FixedController::new(SHARED);
                        let drain = catch_unwind(AssertUnwindSafe(|| {
                            if rounds {
                                ex.run_rounds(&mut ws, &mut ctl, 1, &mut rng)
                            } else {
                                ex.run_with_controller(&mut ws, &mut ctl, 1, &mut rng)
                            }
                        }));
                        let payload = drain.expect_err("the drain must fail");
                        if workers == 1 {
                            let detail = crate::faults::panic_detail(payload.as_ref());
                            assert!(detail.contains(says), "{how:?}: {detail}");
                        } else {
                            assert!(ex.worker_panics() > 0, "{how:?}: the pool saw the panic");
                        }
                        assert_eq!(ex.fault_count(), 0, "{how:?}: nothing was contained");
                        assert_eq!(
                            space.check_all_free(),
                            Ok(()),
                            "{how:?} w{workers} rounds {rounds}: the failed drain freed its words"
                        );
                    },
                );
            }
        }
    }

    /// A sealed task draws its commit-point fault at `seal`, once: the
    /// pinned task rolls back before its sealed write, and its retry
    /// commits.
    #[test]
    fn a_sealed_task_draws_its_commit_point_fault_at_seal() {
        use crate::faults::{FaultKind, FaultPlan};
        let (space, r) = ring_setup(1);
        let store = SpecStore::filled(r, 1, 0i64);
        let plan = FaultPlan::seeded(1).at(space.epoch(), 0, FaultKind::AtCommit);
        let op = SealedThen {
            store: &store,
            how: PastSeal::Commit,
        };
        let mut ex = Executor::new(&op, &space, exec_cfg(1));
        ex.set_fault_plan(&plan);
        let mut ws = WorkSet::from_vec(vec![0usize]);
        let mut rng = StdRng::seed_from_u64(5);
        let first = ex.run_round(&mut ws, 1, &mut rng);
        assert_eq!((first.committed, first.faulted), (0, 1));
        assert_eq!(plan.fired_count(), 1);
        let second = ex.run_round(&mut ws, 1, &mut rng);
        assert_eq!((second.committed, second.faulted), (1, 0));
        assert_eq!(
            plan.fired_count(),
            1,
            "drawn at seal, not again at the return"
        );
        drop(ex);
        let mut store = store;
        assert_eq!(store.snapshot(), vec![1], "the sealed write ran once");
    }

    /// Adversarial clique: every task writes the same slot, so exactly
    /// one task commits per round and the draw decides which.
    struct CliqueOp<'s> {
        store: &'s SpecStore<i64>,
    }

    impl Operator for CliqueOp<'_> {
        type Task = usize;

        fn execute(&self, &i: &usize, cx: &mut TaskCtx<'_>) -> Result<Vec<usize>, Abort> {
            *cx.write(self.store, 0)? = i as i64;
            Ok(vec![])
        }
    }

    #[test]
    fn aged_task_leads_the_prefix_and_commits() {
        let mut rng = StdRng::seed_from_u64(23);
        let (space, r) = ring_setup(1);
        let store = SpecStore::filled(r, 1, -1i64);
        let op = CliqueOp { store: &store };
        let ex = Executor::new(&op, &space, exec_cfg(1));
        // Seven attackers enqueued before the victim, so neither seq
        // order nor the draw favors it — only aging does.
        let mut ws = WorkSet::new();
        for i in 1..8usize {
            ws.push(i);
        }
        ws.push_with_retries(42, RETRY_BUDGET);
        let rs = ex.run_round(&mut ws, 8, &mut rng);
        assert_eq!(rs.launched, 8);
        assert_eq!(rs.committed, 1, "a clique commits exactly one task");
        let mut store = store;
        assert_eq!(
            store.snapshot()[0],
            42,
            "the aged victim led the prefix and won the round"
        );
    }

    /// An operator that never commits: every execution requests an
    /// abort, so every round is a zero-commit round.
    struct NeverOp;
    impl Operator for NeverOp {
        type Task = usize;
        fn execute(&self, _: &usize, cx: &mut TaskCtx<'_>) -> Result<Vec<usize>, Abort> {
            cx.abort_requested()?;
            Ok(vec![])
        }
    }

    #[test]
    fn watchdog_shrinks_m_to_one_under_stall() {
        let (space, _r) = ring_setup(1);
        let op = NeverOp;
        let ex = Executor::new(&op, &space, exec_cfg(1));
        let mut ws = WorkSet::from_vec((0..64usize).collect::<Vec<_>>());
        let mut ctl = FixedController::new(64);
        let mut rng = StdRng::seed_from_u64(24);
        let run = ex.run_with_controller(&mut ws, &mut ctl, 16, &mut rng);
        let ms = run.m_series();
        let quiet = WATCHDOG_STALL as usize;
        assert!(
            ms[..quiet].iter().all(|&m| m == 64),
            "watchdog is quiet before the stall threshold: {ms:?}"
        );
        assert_eq!(ms[quiet], 32, "then it halves m");
        assert!(
            ms.contains(&1),
            "sustained zero-commit rounds must drive m to 1, got {ms:?}"
        );
        // Once at 1 the override holds while the stall persists.
        assert_eq!(*ms.last().expect("rounds ran"), 1);
        assert_eq!(run.total_committed(), 0);
    }

    #[test]
    fn watchdog_clamp_halves_past_the_threshold_and_floors_at_one() {
        assert_eq!(watchdog_clamp(64, 3, 4), 64, "quiet below the threshold");
        assert_eq!(watchdog_clamp(64, 4, 4), 32);
        assert_eq!(watchdog_clamp(64, 6, 4), 8);
        assert_eq!(watchdog_clamp(64, 40, 4), 1, "floor");
        assert_eq!(watchdog_clamp(64, u32::MAX - 1, 0), 1, "shift is capped");
    }
}
