//! The speculative executor: one batch loop under every engine.
//!
//! One temporal step of the paper's model — draw `m` tasks, run them,
//! count the aborts, let the controller pick the next `m` — exists
//! here once:
//!
//! 1. **Draw** `m` tasks from the [`WorkSet`] — lowest rank first,
//!    uniformly at random within a rank (so uniformly over the whole
//!    set when tasks are unranked, the paper's model); their draw
//!    order is the commit priority.
//! 2. **Run the batch** — `run_batch`, the only caller of `speculate`:
//!    build the `TaskCtx`, call the operator under panic containment,
//!    commit or roll back on a lost abstract lock, and book the
//!    outcome (spawns in, `retries + 1` re-queue, or dead-letter).
//! 3. **Retire** the batch with one lane bump: its committed tasks'
//!    locks expire instead of being walked and released.
//! 4. **Control** — `control_step` feeds `(launched, aborted)` to the
//!    processor-allocation controller, applies the zero-commit
//!    watchdog, and hands back the next budget.
//!
//! A barrier round ([`Executor::run_round`]) is one batch of `m` on
//! lock lane 0, retired by the round barrier
//! ([`LockSpace::advance_epoch`]), its outcomes going straight back
//! into the caller's [`WorkSet`]; the pipelined engine
//! ([`crate::pipelined`]) runs the same loop on lane `w + 1` per
//! worker, behind a permit gate and over a sharded draw, and takes the
//! control step once per window of completions. With `workers == 1` a
//! round runs its batch inline in priority order, which makes it
//! *bitwise deterministic* given the RNG seed — the differential-testing
//! anchor against the sequential model in `optpar-core`.
//!
//! With `workers > 1` a round fans its batch out over a persistent
//! [`WorkerPool`] instead — threads created once and parked between
//! rounds, so a round costs one wake/rendezvous. The drawn batch is
//! cut into contiguous chunks of `max(1, launched / (8 · workers))`
//! entries that workers claim from a shared counter. A claim *owns*
//! its chunk: the worker takes the entries, runs the same batch loop
//! over them (a task's slot is still its position in the drawn batch)
//! and leaves the chunk's outcomes and tally behind. After the
//! rendezvous the round absorbs the chunks in order, so the work-set
//! receives spawns and re-queues in priority order with no sort.

use crate::faults::{FaultCause, FaultLog, TaskFault};
use crate::lock::{ConflictPolicy, LockSpace};
use crate::phase::{self, Phase};
use crate::pool::WorkerPool;
use crate::probe::{obs_emit, Probe};
use crate::stats::{RoundStats, RunStats};
use crate::task::{Abort, Operator, Ranked, TaskCtx, TaskScratch};
use optpar_core::control::Controller;
use rand::Rng;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
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
/// The lowest bucket lives outside the map, so a single-rank work-set
/// never touches the map on a push and at most once per draw.
#[derive(Clone, Debug)]
pub struct WorkSet<T> {
    /// The lowest-rank bucket; empty only when the whole set is.
    low: Vec<Entry<T>>,
    /// Rank of `low` (stale while the set is empty).
    low_rank: u64,
    /// Every other bucket, by rank: all keys above `low_rank`, no
    /// bucket empty — a spent bucket is removed, so the next-lowest
    /// lookup never scans dead keys.
    higher: BTreeMap<u64, Vec<Entry<T>>>,
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
            higher: BTreeMap::new(),
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
    let at = out.len();
    out.extend(bucket.drain(n - m..));
    out[at..].reverse();
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
            self.higher.entry(rank).or_default().push(e);
        } else {
            // A new lowest rank: the old lowest bucket joins the map.
            let demoted = std::mem::replace(&mut self.low, vec![e]);
            self.higher
                .insert(std::mem::replace(&mut self.low_rank, rank), demoted);
        }
        self.len += 1;
    }

    /// Add many tasks.
    pub fn extend<I: IntoIterator<Item = T>>(&mut self, it: I) {
        for t in it {
            self.push(t);
        }
    }

    /// Take a settled task's consequences in: a commit's spawns enter,
    /// an aborted or faulted entry re-queues, a retired one is gone.
    pub(crate) fn absorb(&mut self, settled: Settled<T>) {
        match settled {
            Settled::Committed(spawned) => self.extend(spawned),
            Settled::Requeue(entry) => self.push_entry(entry),
            Settled::Retired => {}
        }
    }

    /// Core of the sampler: remove `min(m, len)` entries, lowest
    /// bucket first and uniformly at random within a bucket, in draw
    /// (= commit-priority) order.
    fn draw_entries<R: Rng + ?Sized>(&mut self, m: usize, rng: &mut R) -> Vec<Entry<T>> {
        let m = m.min(self.len);
        self.len -= m;
        let mut batch = Vec::with_capacity(m);
        loop {
            let take = (m - batch.len()).min(self.low.len());
            draw_from(&mut self.low, take, rng, &mut batch);
            if !self.low.is_empty() {
                return batch;
            }
            // The lowest bucket is spent: the next one takes its place
            // and fills what is left of the draw.
            let Some((rank, bucket)) = self.higher.pop_first() else {
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
    /// avoidance: every drawn task with `retries >= budget` is moved
    /// (stably) to the front of the prefix — whatever its rank —
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
        budget: u32,
    ) -> Vec<Entry<T>> {
        let mut batch = self.draw_entries(m, rng);
        if budget != u32::MAX && batch.iter().any(|e| e.retries >= budget) {
            batch.sort_by_key(|e| {
                if e.retries >= budget {
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
        for mut bucket in std::mem::take(&mut self.higher).into_values() {
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

/// Executor configuration.
#[derive(Clone, Copy, Debug)]
pub struct ExecutorConfig {
    /// Worker threads. 1 = deterministic inline execution.
    pub workers: usize,
    /// Benchmark-pinned shim: nothing reads this field (first-wins is
    /// the only arbitration rule). It exists only because the frozen
    /// `benchmark/src/drain.rs` sets it; the next PR that may edit
    /// `benchmark/` drops it (ROADMAP item 4(b)).
    #[doc(hidden)]
    pub policy: ConflictPolicy,
    /// Abort-retry budget `K`: a task aborted/faulted at least this
    /// many times is aged to the front of the next drawn prefix,
    /// where the greedy commit rule guarantees it wins (starvation
    /// avoidance). `u32::MAX` disables aging.
    pub retry_budget: u32,
    /// Watchdog threshold `T`: after this many consecutive zero-commit
    /// (but non-empty) rounds or windows the control step overrides
    /// the controller and halves `m` each further stalled step, down
    /// to `m = 1` where Prop. 1 gives `r̄(1) = 0` and forward progress.
    /// `u32::MAX` disables the watchdog.
    pub watchdog_stall: u32,
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
        ExecutorConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            policy: ConflictPolicy::FirstWins,
            retry_budget: 8,
            watchdog_stall: 4,
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
    /// Persistent parked threads; `None` when `workers == 1` (inline).
    pub(crate) pool: Option<WorkerPool>,
    /// Structured record of every contained fault (operator panics,
    /// injected faults).
    faults: Mutex<FaultLog>,
    /// Tasks retired past [`ExecutorConfig::dead_letter_budget`],
    /// awaiting [`Executor::take_dead_letters`].
    dead_letters: Mutex<Vec<crate::faults::DeadLetter>>,
    /// Deterministic fault-injection plan (feature `faults`).
    #[cfg(feature = "faults")]
    fault_plan: Option<&'a crate::faults::FaultPlan>,
    /// Optional per-phase time accounting (draw / execute / commit /
    /// wait), stamped at round or batch granularity — never per task.
    pub(crate) phases: Option<&'a crate::phase::PhaseClock>,
    /// Attached observability recorder (feature `obs`): per-worker
    /// event rings drained at the round barrier.
    #[cfg(feature = "obs")]
    recorder: Option<optpar_obs::Recorder>,
}

impl<O: Operator> std::fmt::Debug for Executor<'_, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.cfg.workers)
            .field("pooled", &self.pool.is_some())
            .finish_non_exhaustive()
    }
}

/// Where `Executor::speculate` sends a finished task: the caller owns
/// the queues (one [`WorkSet`] in round mode, per-worker shards in
/// pipelined mode), `speculate` owns the decision. A committed task's
/// locks are not carried here: they stay stamped in the lock space
/// until the round's epoch bump (or the batch's lane bump) expires
/// them wholesale.
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
/// task commits. `threshold == u32::MAX` disables it.
fn watchdog_clamp(m: usize, stalled: u32, threshold: u32) -> usize {
    if threshold == u32::MAX || stalled < threshold {
        return m;
    }
    let excess = (stalled - threshold).saturating_add(1).min(63);
    (m >> excess).max(1)
}

/// One claimable piece of a pooled round: `entries` until a worker
/// claims it, `settled` and `tally` once that worker has run it. The
/// mutex is held only to take the one and to leave the other.
struct Chunk<T> {
    entries: Vec<Entry<T>>,
    settled: Vec<Settled<T>>,
    tally: RoundStats,
}

impl<'a, O: Operator> Executor<'a, O> {
    /// Pair an operator with its lock space under the given config.
    /// Spawns the persistent worker pool when `workers > 1`.
    pub fn new(op: &'a O, space: &'a LockSpace, cfg: ExecutorConfig) -> Self {
        assert!(cfg.workers >= 1, "need at least one worker");
        Executor {
            op,
            space,
            cfg,
            pool: (cfg.workers > 1).then(|| WorkerPool::new(cfg.workers)),
            faults: Mutex::new(FaultLog::default()),
            dead_letters: Mutex::new(Vec::new()),
            #[cfg(feature = "faults")]
            fault_plan: None,
            phases: None,
            #[cfg(feature = "obs")]
            recorder: None,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> ExecutorConfig {
        self.cfg
    }

    /// Install a deterministic fault-injection plan: every subsequent
    /// round consults it per launched task.
    #[cfg(feature = "faults")]
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

    /// Faults dropped by the bounded log because its undrained buffer
    /// was full (monotone; see [`FaultLog::dropped`]).
    pub fn dropped_faults(&self) -> usize {
        crate::faults::recover(self.faults.lock()).dropped()
    }

    /// Replace the fault log with an empty one bounded at `cap`
    /// undrained entries (long-running services drain rarely; the
    /// default [`crate::faults::DEFAULT_FAULT_LOG_CAP`] applies
    /// otherwise). Any undrained entries are returned.
    pub fn set_fault_log_capacity(&self, cap: usize) -> Vec<TaskFault> {
        let mut log = crate::faults::recover(self.faults.lock());
        let old = log.drain();
        *log = FaultLog::with_capacity(cap);
        old
    }

    /// Drain and return the dead-letter list: tasks that faulted past
    /// [`ExecutorConfig::dead_letter_budget`] and were retired from
    /// the work-set instead of re-queued.
    pub fn take_dead_letters(&self) -> Vec<crate::faults::DeadLetter> {
        std::mem::take(&mut *crate::faults::recover(self.dead_letters.lock()))
    }

    /// Worker-level job panics that escaped the per-task containment
    /// (should stay 0: operator panics are caught inside the round).
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

    /// Attach an observability recorder sized for this executor's
    /// worker count. Subsequent rounds record events into per-worker
    /// rings and drain them at the barrier.
    #[cfg(feature = "obs")]
    pub fn enable_obs(&mut self, cfg: optpar_obs::ObsConfig) {
        self.recorder = Some(optpar_obs::Recorder::new(self.cfg.workers, cfg));
    }

    /// The attached recorder, if any (snapshot/take its [`EventLog`]
    /// from here).
    ///
    /// [`EventLog`]: optpar_obs::EventLog
    #[cfg(feature = "obs")]
    pub fn recorder(&self) -> Option<&optpar_obs::Recorder> {
        self.recorder.as_ref()
    }

    /// Worker `w`'s event-ring probe.
    #[cfg(feature = "obs")]
    pub(crate) fn probe_for(&self, w: usize) -> Probe<'_> {
        self.recorder.as_ref().and_then(|r| r.ring(w))
    }

    /// Worker `w`'s event-ring probe (zero-sized no-op without `obs`).
    #[cfg(not(feature = "obs"))]
    pub(crate) fn probe_for(&self, _w: usize) -> Probe<'_> {
        crate::probe::no_probe()
    }

    /// Round prologue on the controller track: `RoundBegin` plus one
    /// `RetryAged` per drawn task that crossed the retry budget (they
    /// lead the prefix by the aging rule).
    #[cfg(feature = "obs")]
    fn obs_round_begin(&self, m: usize, batch: &[Entry<O::Task>]) {
        if let Some(rec) = self.recorder.as_ref() {
            rec.round_begin(self.space.epoch(), m as u64);
            if self.cfg.retry_budget != u32::MAX {
                for (slot, e) in batch.iter().enumerate() {
                    if e.retries >= self.cfg.retry_budget {
                        rec.retry_aged(slot as u32, e.retries);
                    }
                }
            }
        }
    }

    /// Round epilogue on the controller track: the round's totals and
    /// the audit findings its barrier turned up.
    #[cfg(feature = "obs")]
    fn obs_round_end(&self, stats: &RoundStats, findings: u64) {
        if let Some(rec) = self.recorder.as_ref() {
            let totals = optpar_obs::RoundTotals {
                launched: stats.launched as u32,
                committed: stats.committed as u32,
                aborted: stats.aborted as u32,
                faulted: stats.faulted as u32,
                spawned: stats.spawned as u32,
            };
            rec.round_end(self.space.epoch(), stats.m as u64, totals, findings);
        }
    }

    /// Run one round launching up to `m` tasks from `ws`: one batch
    /// on lock lane 0, retired by the round barrier.
    ///
    /// Tasks whose retry count has reached
    /// [`ExecutorConfig::retry_budget`] are aged to the front of the
    /// drawn prefix (greedy-MIS-winning by construction), so no task
    /// starves under an adversarial conflict pattern.
    pub fn run_round<R: Rng + ?Sized>(
        &self,
        ws: &mut WorkSet<O::Task>,
        m: usize,
        rng: &mut R,
    ) -> RoundStats {
        let t_draw = phase::maybe_start(self.phases);
        let batch = ws.sample_drain_aged(m, rng, self.cfg.retry_budget);
        phase::maybe_add(self.phases, Phase::Draw, t_draw);
        let mut stats = RoundStats {
            m,
            launched: batch.len(),
            ..RoundStats::default()
        };
        #[cfg(feature = "obs")]
        self.obs_round_begin(m, &batch);
        if batch.is_empty() {
            // Keep the trace's round segments 1:1 with RoundStats even
            // for the degenerate empty round (which bumps no epoch).
            #[cfg(feature = "obs")]
            self.obs_round_end(&stats, 0);
            return stats;
        }
        // Slot indices must fit the 32-bit owner field of a lock word.
        assert!(batch.len() < u32::MAX as usize, "round too large");
        // Inline rounds realize the paper's greedy commit rule exactly,
        // so the commit-set oracle applies on top of the race analysis.
        #[cfg(feature = "checker")]
        self.space.audit().arm(self.cfg.workers == 1);

        match &self.pool {
            Some(pool) => self.run_parallel(pool, batch, ws, &mut stats),
            None => {
                // Outcomes go straight back into `ws`, in slot order.
                let t_exec = phase::maybe_start(self.phases);
                let (epoch, probe) = (self.space.epoch(), self.probe_for(0));
                let mut scratch = TaskScratch::default();
                self.run_batch(&mut scratch, 0, 0, epoch, batch, probe, &mut stats, |s| {
                    ws.absorb(s)
                });
                phase::maybe_add(self.phases, Phase::Execute, t_exec);
            }
        }
        self.round_barrier(&stats);
        stats
    }

    /// Run one drawn batch to completion on lock lane `lane`, in
    /// order — the only caller of `speculate`, under every engine.
    /// Entry `i` runs as slot `first_slot + i` (worker lanes publish
    /// it as running first: slots rise through the batch, so every
    /// earlier one has then finished and its stamps are free to take
    /// over); its outcome is booked in `tally` and handed to `sink`,
    /// which owns the queues. `key` is the batch's fault and audit
    /// coordinate: the round epoch on lane 0, the batch tag on a
    /// worker lane.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_batch(
        &self,
        scratch: &mut TaskScratch,
        first_slot: usize,
        lane: usize,
        key: u64,
        entries: Vec<Entry<O::Task>>,
        probe: Probe<'_>,
        tally: &mut RoundStats,
        mut sink: impl FnMut(Settled<O::Task>),
    ) {
        for (i, entry) in entries.into_iter().enumerate() {
            let slot = first_slot + i;
            if lane != 0 {
                self.space.publish_running(lane, slot);
            }
            sink(self.speculate(scratch, slot, lane, key, entry, probe, tally));
        }
    }

    /// The round barrier, after every task of the round has settled:
    /// audit and trace the finished round, then one epoch bump —
    /// committed tasks' locks expire without being traversed.
    #[cfg_attr(not(feature = "obs"), allow(unused_variables))]
    fn round_barrier(&self, stats: &RoundStats) {
        let t_commit = phase::maybe_start(self.phases);
        // Audit the finished round's traces before the epoch bump (the
        // traces carry the pre-bump epoch).
        #[cfg(all(feature = "checker", feature = "obs"))]
        let audit_before = self.space.audit().report_count();
        #[cfg(feature = "checker")]
        self.space.audit().drain_round();
        // Round barrier from the trace's point of view: drain every
        // worker ring, stamp audit findings and the round totals, then
        // record the epoch bump the barrier performs.
        #[cfg(all(feature = "checker", feature = "obs"))]
        let findings = (self.space.audit().report_count()).saturating_sub(audit_before);
        #[cfg(all(not(feature = "checker"), feature = "obs"))]
        let findings = 0;
        #[cfg(feature = "obs")]
        let pre_epoch = self.space.epoch();
        #[cfg(feature = "obs")]
        self.obs_round_end(stats, findings as u64);
        self.space.advance_epoch();
        #[cfg(feature = "obs")]
        if let Some(rec) = self.recorder.as_ref() {
            rec.epoch_bump(pre_epoch, self.space.epoch());
        }
        debug_assert!(self.space.check_all_free().is_ok());
        // Commit covers the pooled absorb pass plus the barrier's
        // serial bookkeeping (audit drain, ring drain, epoch bump).
        phase::maybe_add(self.phases, Phase::Commit, t_commit);
    }

    /// Drive the executor with a controller until the work-set drains
    /// (or `max_rounds` elapse), one `control_step` per round.
    pub fn run_with_controller<C: Controller, R: Rng + ?Sized>(
        &self,
        ws: &mut WorkSet<O::Task>,
        ctl: &mut C,
        max_rounds: usize,
        rng: &mut R,
    ) -> RunStats {
        let mut run = RunStats::default();
        let mut state = ControlState::new(ctl);
        while run.rounds.len() < max_rounds && !ws.is_empty() {
            run.rounds
                .push(self.step_round(ws, ctl, &mut state, usize::MAX, rng));
        }
        run
    }

    /// One round of the control loop, shared by
    /// [`Executor::run_with_controller`] and the job service's
    /// `JobCx::drive`: run a round at the budget the last step handed
    /// back (capped at `cap`), then take the control step on its
    /// outcome.
    pub(crate) fn step_round<C: Controller, R: Rng + ?Sized>(
        &self,
        ws: &mut WorkSet<O::Task>,
        ctl: &mut C,
        state: &mut ControlState,
        cap: usize,
        rng: &mut R,
    ) -> RoundStats {
        let rs = self.run_round(ws, state.budget.min(cap).max(1), rng);
        self.control_step(ctl, state, &rs);
        rs
    }

    /// The one control step, taken after every round and every
    /// pipelined window: feed the controller what `rs` measured and
    /// hand back the next budget (also left in `state`).
    ///
    /// The controller observes [`RoundStats::pressure_ratio`] —
    /// aborts *plus* faults over launched — so a fault storm shrinks
    /// `m` exactly like a conflict storm. Independently, past
    /// [`ExecutorConfig::watchdog_stall`] consecutive zero-commit
    /// steps the watchdog overrides the controller (`watchdog_clamp`).
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
        #[cfg(feature = "obs")]
        if let Some(rec) = self.recorder.as_ref() {
            rec.controller(
                ctl.current_m() as u64,
                rs.pressure_ratio(),
                ctl.target_rho(),
            );
        }
        state.budget =
            watchdog_clamp(ctl.current_m(), state.stalled, self.cfg.watchdog_stall).max(1);
        state.budget
    }

    /// Speculate one task to completion under panic containment and
    /// book its outcome — the single place the runtime calls
    /// [`Operator::execute`].
    ///
    /// `lane` selects the lock lane the task stamps and `fault_key` is
    /// the coordinate fault injection and fault records key on (both
    /// as in `run_batch`). `scratch` is the calling loop's lockset/undo
    /// buffers, lent to this task's context and returned empty.
    ///
    /// The operator call is wrapped in `catch_unwind`: a panicking
    /// operator (or a fired injected panic) becomes a structured
    /// [`TaskFault`] — its undo log is replayed and its locks released
    /// exactly like an abort, the worker thread survives, and the
    /// round continues. The rollback is always sound because `TaskCtx`
    /// snapshots a slot *before* handing out the `&mut`, so the undo
    /// log is complete at every possible unwind point.
    ///
    /// The outcome is counted in `stats` and decides where the task
    /// goes next: a commit's spawns enter the work-set, an abort or
    /// an under-budget fault re-queues one step closer to the aging
    /// threshold.
    #[allow(clippy::too_many_arguments)]
    fn speculate(
        &self,
        scratch: &mut TaskScratch,
        slot: usize,
        lane: usize,
        fault_key: u64,
        entry: Entry<O::Task>,
        probe: Probe<'_>,
        stats: &mut RoundStats,
    ) -> Settled<O::Task> {
        obs_emit!(
            probe,
            optpar_obs::EventKind::TaskLaunch {
                slot: slot as u32,
                epoch: self.space.epoch(),
            }
        );
        let mut cx = TaskCtx::new_in_lane(slot, self.space, lane, fault_key, scratch);
        #[cfg(feature = "checker")]
        cx.note_seed(self.op.conflict_seed(&entry.task));
        cx.attach_probe(probe);
        #[cfg(feature = "faults")]
        if let Some(plan) = self.fault_plan {
            cx.arm_fault(plan, fault_key);
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| self.op.execute(&entry.task, &mut cx)));
        let acquires = cx.acquires;
        stats.lock_acquires += acquires;
        let (cause, detail) = match outcome {
            Ok(Ok(spawned)) => {
                // The committed lockset stays stamped in the lock
                // space; the epoch (or lane) bump will expire it.
                cx.finish_commit();
                obs_emit!(
                    probe,
                    optpar_obs::EventKind::TaskCommit {
                        slot: slot as u32,
                        acquires: acquires as u32,
                        spawned: spawned.len() as u32,
                    }
                );
                stats.committed += 1;
                stats.spawned += spawned.len();
                return Settled::Committed(spawned);
            }
            Ok(Err(Abort::Fault)) => (FaultCause::Injected, "injected spurious abort".to_string()),
            #[cfg_attr(not(feature = "checker"), allow(unused_variables))]
            Ok(Err(abort)) => {
                // The commit-set oracle must not expect an
                // operator-requested abort to commit.
                #[cfg(feature = "checker")]
                if matches!(abort, Abort::Requested) {
                    cx.note_requested_abort();
                }
                cx.finish_abort();
                obs_emit!(
                    probe,
                    optpar_obs::EventKind::TaskAbort {
                        slot: slot as u32,
                        acquires: acquires as u32,
                    }
                );
                stats.aborted += 1;
                return Settled::Requeue(entry.retried());
            }
            // The operator panicked (or an injected panic fired).
            // Contain it: roll back, release locks, keep the worker.
            Err(payload) => crate::faults::classify_panic(payload.as_ref()),
        };
        // A fault: excuse the task with the commit-set oracle, roll it
        // back like an abort, log it, and re-queue it — unless it
        // faulted at `retries ≥ K`, when it is retired to the
        // dead-letter list instead, so an always-faulting task launches
        // at most `K + 1` times in every mode.
        #[cfg(feature = "checker")]
        cx.note_fault();
        cx.finish_abort();
        obs_emit!(
            probe,
            optpar_obs::EventKind::TaskFault {
                slot: slot as u32,
                cause: cause.code(),
            }
        );
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

    /// Run one round's batch on the persistent pool and take its
    /// outcomes into `ws`: chunks are claimed from one counter, each
    /// runs as a batch on lane 0 on the worker that claimed it, and the
    /// chunks are absorbed in order after the rendezvous.
    ///
    /// No chunk can come back unrun: the rendezvous ends only once
    /// every worker has returned from the job, a worker returns only
    /// once the counter has passed the last chunk, and a worker
    /// finishes the chunk it claimed before it claims again. (A worker
    /// that panics instead re-raises here, before anything is read.)
    fn run_parallel(
        &self,
        pool: &WorkerPool,
        batch: Vec<Entry<O::Task>>,
        ws: &mut WorkSet<O::Task>,
        stats: &mut RoundStats,
    ) {
        let n = batch.len();
        // ~8 chunks per worker balances the tail (large final chunks
        // straggle) against counter contention (a claim per task).
        let size = (n / (8 * self.cfg.workers)).max(1);
        let mut batch = batch.into_iter();
        let chunks: Vec<Mutex<Chunk<O::Task>>> = (0..n.div_ceil(size))
            .map(|_| {
                Mutex::new(Chunk {
                    entries: batch.by_ref().take(size).collect(),
                    settled: Vec::new(),
                    tally: RoundStats::default(),
                })
            })
            .collect();
        let next = AtomicUsize::new(0);
        let pc = self.phases;
        let epoch = self.space.epoch();
        let job = |w: usize| {
            let t_busy = phase::maybe_start(pc);
            let probe = self.probe_for(w);
            let mut scratch = TaskScratch::default();
            loop {
                let c = next.fetch_add(1, Ordering::AcqRel);
                let Some(chunk) = chunks.get(c) else { break };
                let entries = std::mem::take(&mut crate::faults::recover(chunk.lock()).entries);
                let mut settled = Vec::with_capacity(entries.len());
                let mut tally = RoundStats::default();
                self.run_batch(
                    &mut scratch,
                    c * size,
                    0,
                    epoch,
                    entries,
                    probe,
                    &mut tally,
                    |s| settled.push(s),
                );
                let mut done = crate::faults::recover(chunk.lock());
                done.settled = settled;
                done.tally = tally;
            }
            phase::maybe_add(pc, Phase::Execute, t_busy);
        };
        let exec_before = pc.map(|c| c.snapshot().execute_ns);
        let t_wall = phase::maybe_start(pc);
        pool.rendezvous(&job);
        // Wait = worker-seconds the rendezvous held that nobody spent
        // executing (the barrier's straggler cost).
        if let (Some(c), Some(before)) = (pc, exec_before) {
            let wall = t_wall.map_or(0, phase::span_ns);
            let busy = c.snapshot().execute_ns.saturating_sub(before);
            c.add_ns(
                Phase::Wait,
                (self.cfg.workers as u64 * wall).saturating_sub(busy),
            );
        }
        let t_commit = phase::maybe_start(pc);
        for chunk in chunks {
            let chunk = crate::faults::recover(chunk.into_inner());
            stats.add(&chunk.tally);
            chunk.settled.into_iter().for_each(|s| ws.absorb(s));
        }
        debug_assert_eq!(
            stats.launched,
            stats.committed + stats.aborted + stats.faulted
        );
        phase::maybe_add(pc, Phase::Commit, t_commit);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::store::SpecStore;
    use optpar_core::control::FixedController;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    /// Toy operator: task `i` increments counter `i` and decrements its
    /// ring neighbour `i+1` — adjacent tasks conflict.
    pub(crate) struct RingOp<'s> {
        pub(crate) store: &'s SpecStore<i64>,
        pub(crate) n: usize,
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

    /// Defaults at `workers` worker threads.
    pub(crate) fn exec_cfg(workers: usize) -> ExecutorConfig {
        ExecutorConfig {
            workers,
            ..ExecutorConfig::default()
        }
    }

    fn ring_setup(n: usize) -> (LockSpace, crate::lock::Region) {
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
        // `wait_ns` is derived (workers·wall − busy) and can
        // legitimately be ~0 on an idle machine, so no bound on it.
        assert_eq!(
            b.total_ns(),
            b.draw_ns + b.execute_ns + b.commit_ns + b.wait_ns
        );
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
    fn parallel_round_is_serializable() {
        // Under contention with many workers, committed effects must be
        // exactly "one +1 to i, one -1 to i+1" per committed task —
        // never a torn half-update.
        let mut rng = StdRng::seed_from_u64(3);
        let n = 64;
        let (space, r) = ring_setup(n);
        let store = SpecStore::filled(r, n, 0i64);
        let op = RingOp { store: &store, n };
        let ex = Executor::new(&op, &space, exec_cfg(8));
        let mut ws = WorkSet::from_vec((0..n).collect::<Vec<_>>());
        let mut committed = 0;
        let mut rounds = 0;
        while !ws.is_empty() && rounds < 10_000 {
            let rs = ex.run_round(&mut ws, 32, &mut rng);
            committed += rs.committed;
            rounds += 1;
        }
        assert_eq!(committed, n);
        let mut store = store;
        assert_eq!(store.snapshot().iter().sum::<i64>(), 0);
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

    /// The chunk hand-off keeps the inline round's order: chunks are
    /// absorbed in slot order after the rendezvous, so a pooled round
    /// leaves the work-set an inline round leaves — same entries, same
    /// positions, same stamps.
    #[test]
    fn pooled_round_leaves_the_inline_rounds_workset() {
        struct Fork<'s> {
            store: &'s SpecStore<u32>,
        }
        impl Operator for Fork<'_> {
            type Task = (usize, u32);
            fn execute(
                &self,
                &(i, gen): &(usize, u32),
                cx: &mut TaskCtx<'_>,
            ) -> Result<Vec<(usize, u32)>, Abort> {
                *cx.write(self.store, i)? += 1;
                Ok(vec![(i, gen + 1)])
            }
        }
        let n = 100;
        let left_by = |workers: usize| {
            let (space, r) = ring_setup(n);
            let store = SpecStore::filled(r, n, 0u32);
            let op = Fork { store: &store };
            let ex = Executor::new(&op, &space, exec_cfg(workers));
            let mut ws = WorkSet::from_vec((0..n).map(|i| (i, 0)).collect());
            // 70 of 100: 35 two-task chunks at 4 workers, 30 undrawn.
            let rs = ex.run_round(&mut ws, 70, &mut StdRng::seed_from_u64(8));
            assert_eq!((rs.launched, rs.committed, rs.spawned), (70, 70, 70));
            let left = ws.take_entries().into_iter();
            left.map(|e| (e.task, e.retries, e.seq)).collect::<Vec<_>>()
        };
        let inline = left_by(1);
        assert_eq!(inline.len(), n);
        assert_eq!(left_by(4), inline);
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
        assert!(ws.higher.values().all(|b| !b.is_empty()), "dead bucket");
        assert!(ws.higher.keys().all(|&r| r > ws.low_rank));
        assert!(!ws.low.is_empty() || ws.higher.is_empty());
        let low = ws.low.iter().map(|e| (ws.low_rank, e));
        let higher = ws
            .higher
            .iter()
            .flat_map(|(&r, b)| b.iter().map(move |e| (r, e)));
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
        let budget = 3;
        let mut ws = WorkSet::from_vec(vec![Rk(0, 0), Rk(0, 1), Rk(0, 2)]);
        ws.push_with_retries(Rk(1, 3), budget);
        ws.extend([Rk(1, 4), Rk(2, 5)]);
        let mut batch = ws.sample_drain_aged(5, &mut rng, budget);
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
        let next = ws.sample_drain_aged(1, &mut rng, budget);
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

    #[test]
    fn operator_panic_keeps_workers_alive() {
        let mut rng = StdRng::seed_from_u64(22);
        let n = 64;
        let (space, r) = ring_setup(n);
        let store = SpecStore::filled(r, n, 0i64);
        let op = PanicOnceOp {
            store: &store,
            n,
            armed: std::sync::atomic::AtomicBool::new(true),
        };
        let ex = Executor::new(&op, &space, exec_cfg(4));
        let mut ws = WorkSet::from_vec((0..n).collect::<Vec<_>>());
        let mut committed = 0;
        while !ws.is_empty() {
            committed += ex.run_round(&mut ws, 16, &mut rng).committed;
        }
        assert_eq!(committed, n);
        assert_eq!(ex.fault_count(), 1);
        assert_eq!(ex.worker_panics(), 0, "no panic escaped to the pool layer");
        let mut store = store;
        assert_eq!(store.snapshot().iter().sum::<i64>(), 0);
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
        let budget = 8;
        let ex = Executor::new(
            &op,
            &space,
            ExecutorConfig {
                workers: 1,
                retry_budget: budget,
                ..ExecutorConfig::default()
            },
        );
        // Seven attackers enqueued before the victim, so neither seq
        // order nor the draw favors it — only aging does.
        let mut ws = WorkSet::new();
        for i in 1..8usize {
            ws.push(i);
        }
        ws.push_with_retries(42, budget);
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
        let ex = Executor::new(
            &op,
            &space,
            ExecutorConfig {
                workers: 1,
                watchdog_stall: 2,
                ..ExecutorConfig::default()
            },
        );
        let mut ws = WorkSet::from_vec((0..64usize).collect::<Vec<_>>());
        let mut ctl = FixedController::new(64);
        let mut rng = StdRng::seed_from_u64(24);
        let run = ex.run_with_controller(&mut ws, &mut ctl, 16, &mut rng);
        let ms = run.m_series();
        assert_eq!(ms[0], 64, "watchdog is quiet before the stall threshold");
        assert_eq!(ms[1], 64);
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
        assert_eq!(watchdog_clamp(64, u32::MAX, u32::MAX), 64, "disabled");
    }

    #[test]
    fn disabled_watchdog_never_overrides() {
        let (space, _r) = ring_setup(1);
        let op = NeverOp;
        let ex = Executor::new(
            &op,
            &space,
            ExecutorConfig {
                workers: 1,
                watchdog_stall: u32::MAX,
                ..ExecutorConfig::default()
            },
        );
        let mut ws = WorkSet::from_vec((0..8usize).collect::<Vec<_>>());
        let mut ctl = FixedController::new(8);
        let mut rng = StdRng::seed_from_u64(25);
        let run = ex.run_with_controller(&mut ws, &mut ctl, 12, &mut rng);
        assert!(run.m_series().iter().all(|&m| m == 8));
    }
}
