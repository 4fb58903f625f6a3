//! Pipelined (barrier-free) execution: the batch loop on worker lanes.
//!
//! A barrier round runs on its caller's thread, and its barrier
//! releases the locks its committed tasks kept. This module is the
//! runtime's only parallel engine: each of the drain's worker threads
//! runs the executor's batch loop (`Executor::run_batch` — the loop a
//! round runs) as a lane of its own, and nobody waits for anybody.
//! What this module adds to that loop:
//!
//! * **a lane per worker**: worker `w` draws a *batch* and runs it in
//!   lane mode. Slots are recycled batch positions
//!   (`w * batch + i`): they name a lock's holder and carry no
//!   priority meaning. A lone lane (`workers == 1`) runs its batches
//!   in solo mode instead, as the solo runner does: one thread under
//!   the drain's claim on the lock space, and cautious operators, so
//!   no task has another to conflict with and no lock word is stamped
//!   ([`crate::task`] module docs);
//! * **a lane task releases what it took**: every task frees its lock
//!   words when it finishes, commit or abort, before its worker runs
//!   the next one ([`crate::lock`]). A held word's owner is therefore
//!   always running, so a task aborts only against a holder that is
//!   mid-task — which at one worker is never;
//! * **a sharded work-set**: a worker drains its own shard and steals
//!   from the others only when it runs dry. Each shard is a
//!   [`WorkSet`], so rank order holds per draw as in a round (shards
//!   are not ordered against each other — rank is a work-efficiency
//!   hint, not a commit order). At w > 1 a lane draws its batch
//!   uniformly at random from the lowest bucket, with the round's
//!   aged-retry prefix, from an RNG of its own seeded from the run's.
//!   A lone lane reads no RNG: it takes the batch's oldest entries of
//!   the lowest bucket in enqueue order, in O(batch), and an aborted
//!   or faulted entry goes back behind the rest of its bucket.
//!   Re-queues go to the worker's home shard, spawns round-robin, or
//!   both where the run's [`Placement`] says;
//! * **a per-batch settle**: the batch loop's sink only appends a
//!   settled task's spawns or re-queue to a lane-local outbox, reused
//!   across batches. After the batch the lane settles it in one go:
//!   one `live` add for its spawns, then each shard it sends work to
//!   locked once (round-robin shares from one cursor RMW), then one
//!   `live` subtract for the tasks it finished. No shared word is
//!   written per task;
//! * **one set of books, behind one lock taken to claim and to
//!   retire**: the controller's `m(t)` is an *in-flight speculation
//!   budget* — at most `m` tasks are in flight. A worker claims up to
//!   `batch` permits against it, gives back those its draw could not
//!   fill, and retires a batch by giving back its permits, adding its
//!   tally to the open window and counting its completions. Every
//!   `window` completions the crossing worker, still under the lock,
//!   takes the control step a round takes (`Executor::control_step`:
//!   observe `r̄`, zero-commit watchdog, next budget) on that window.
//!   A batch's counts therefore land whole in one window, and so do
//!   its trace events: with a recorder attached, the lane appends its
//!   own event buffer under the same lock, just before the retire.
//!
//! Termination reads one counter, `live`: tasks pending in a shard,
//! drawn and not yet settled, or spawned by a batch that has not
//! settled yet. A worker whose draw comes back empty stops the run iff
//! `live` reads zero. Batched, `live` still never reads zero while work
//! exists: a batch's drawn tasks stay counted until its settle, and the
//! settle adds its spawns *before* it pushes them (so no other lane can
//! draw, finish and subtract a task not yet added) and subtracts its
//! finished tasks only *after* every spawn and re-queue is in a shard.
//! Between the two, `live` over-counts the batch's finished tasks, which
//! delays a stop but never makes one early. At one worker nothing reads
//! the shards during a batch (draws happen between batches), so the
//! next draw sees the very shard contents a per-task settle left.
//!
//! Each batch takes its fault key with one step of the lock space's
//! epoch counter ([`LockSpace::advance_epoch`]), so keys stay unique
//! over the space's life: a re-queued task re-rolls its fault draw
//! under a fresh key on every retry, and a deterministic
//! per-coordinate plan cannot livelock the drain.
//!
//! Abort backoff is one `yield_now` after a batch that lost a lock.
//! An abort names a holder that is mid-task, so on a machine with a
//! core per worker there is nothing to wait for and the yield returns
//! at once (`runtime.pool.solve_w2_s` on the sssp rows reads the same
//! with it, with a bounded `spin_loop`, and with nothing). It stays
//! for the oversubscribed case: a holder whose thread is off-core
//! cannot finish, a loser that redraws at once burns its time slice
//! re-aborting against it, and the abort ratio the controller steers
//! by then measures the scheduler, not the workload
//! (`obs_e2e::continuous_controller_converges_to_rho_band`, 8 workers
//! on 2 cores, fails 4 runs in 5 without the yield and with a spin).
//!
//! [`LockSpace::advance_epoch`]: crate::lock::LockSpace::advance_epoch

use crate::exec::{ControlState, Entry, Executor, Settled, WorkSet};
use crate::faults::recover;
use crate::phase::{self, Phase};
use crate::pool::WorkerPool;
use crate::stats::{RoundStats, RunStats};
use crate::task::{Mode, Operator, Ranked, TaskScratch};
use optpar_core::control::Controller;
use optpar_obs::EventKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Tuning knobs for [`Executor::run_pipelined`].
#[derive(Clone, Copy, Debug)]
pub struct PipelinedConfig {
    /// Completions per controller window: every `window` finished
    /// tasks the crossing worker flushes the sliding window and the
    /// controller adjusts the in-flight budget.
    pub window: usize,
    /// Maximum tasks a worker draws and executes as one batch (one
    /// fault key, one settle). Also the per-worker slot stride.
    pub batch: usize,
    /// Stop after this many completions even if work remains
    /// (`usize::MAX` = run to quiescence).
    pub max_completions: usize,
}

impl Default for PipelinedConfig {
    fn default() -> Self {
        PipelinedConfig {
            window: 128,
            batch: 16,
            max_completions: usize::MAX,
        }
    }
}

/// Raises the run's `done` flag if its worker unwinds: the tasks that
/// worker held never settle, so `live` would keep every other worker
/// waiting for them.
struct StopOnUnwind<'a>(&'a AtomicBool);

impl Drop for StopOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

/// The run's books, behind one lock (module docs): the controller and
/// its state, whose budget caps the permits in flight, the
/// completions, and the open window. Every worker takes the lock to
/// claim permits and to retire a batch.
struct Books<'c, C> {
    ctl: &'c mut C,
    state: ControlState,
    /// Permits claimed and not yet given back.
    inflight: usize,
    /// Tasks retired so far.
    completions: usize,
    /// The tallies of the batches retired since the last flush.
    window: RoundStats,
    /// The flushed windows, in order.
    rounds: Vec<RoundStats>,
}

impl<C: Controller> Books<'_, C> {
    /// Claim up to `batch` permits against the budget (0 when it is
    /// spent).
    fn claim(&mut self, batch: usize) -> usize {
        let granted = batch.min(self.state.budget.saturating_sub(self.inflight));
        self.inflight += granted;
        granted
    }

    /// Retire a batch of `tally.launched` tasks: its permits come back,
    /// its tally joins the open window and its tasks the completions,
    /// and a batch that crosses a multiple of `window_len` completions
    /// flushes the window. Returns the completions so far.
    fn retire<O: Operator>(
        &mut self,
        ex: &Executor<'_, O>,
        tally: &RoundStats,
        window_len: usize,
    ) -> usize {
        let before = self.completions;
        self.inflight -= tally.launched;
        self.completions += tally.launched;
        self.window.add(tally);
        if before / window_len != self.completions / window_len {
            self.flush(ex);
        }
        self.completions
    }

    /// Close the open window: take the control step a round takes on
    /// it and keep it. A window that launched nothing is dropped.
    fn flush<O: Operator>(&mut self, ex: &Executor<'_, O>) {
        let rs = RoundStats {
            m: self.state.budget,
            ..std::mem::take(&mut self.window)
        };
        if rs.launched == 0 {
            return;
        }
        let next = ex.control_step(self.ctl, &mut self.state, &rs);
        if let Some(rec) = ex.recorder() {
            rec.window_advance(self.completions as u64, self.inflight as u64, next as u64);
        }
        self.rounds.push(rs);
    }
}

/// A task-placement policy for pipelined mode: maps a task to the
/// worker shard that should execute it (wrapped modulo the worker
/// count). Partition-affine placement — tasks of one graph partition
/// pinned to one worker — keeps each worker inside its own lock shard,
/// which is what makes sharded [`SpecStore`](crate::store::SpecStore)
/// layouts pay off at scale.
pub type Placement<'p, T> = &'p (dyn Fn(&T) -> usize + Sync);

/// A settled task on its way back into the shards.
enum Queued<T> {
    /// A committed task's spawn: enters its shard as a fresh entry.
    Spawn(T),
    /// An aborted or faulted entry, retry count and stamp intact.
    Requeue(Entry<T>),
}

/// What one lane's batch hands back to the shared state: the
/// `run_batch` sink only appends here, and the lane settles it after
/// the batch (module docs). Kept next to the lane's `TaskScratch` and
/// reused, so a batch allocates nothing for it once warm.
struct Outbox<T> {
    /// Spawns and re-queues in settle order, each beside the shard
    /// `ShardedWorkSet::settle` assigns it.
    queued: Vec<(usize, Queued<T>)>,
    /// Spawns among `queued`: what `live` gains.
    spawned: usize,
    /// Drawn tasks that left the system (committed or dead-lettered):
    /// what `live` loses.
    finished: usize,
}

impl<T> Outbox<T> {
    fn new() -> Self {
        Outbox {
            queued: Vec::new(),
            spawned: 0,
            finished: 0,
        }
    }

    /// The batch sink: book one settled task.
    fn sink(&mut self, settled: Settled<T>) {
        match settled {
            Settled::Committed(spawned) => {
                self.spawned += spawned.len();
                let fresh = spawned.into_iter().map(|t| (0, Queued::Spawn(t)));
                self.queued.extend(fresh);
                self.finished += 1;
            }
            Settled::Requeue(entry) => self.queued.push((0, Queued::Requeue(entry))),
            Settled::Retired => self.finished += 1,
        }
    }
}

/// The pending-task multiset sharded one queue per worker.
///
/// Workers drain their own shard and steal from the others only when
/// it runs dry; spawned tasks are placed by the run's [`Placement`]
/// (round-robin when absent) so a spawn-heavy worker does not
/// monopolize its own future work. Each shard keeps its own `seq`
/// counter, started past every stamp it was filled with — stamps are
/// only a tie-break within a drawn prefix, so cross-shard collisions
/// are harmless.
struct ShardedWorkSet<'p, T> {
    shards: Box<[Mutex<WorkSet<T>>]>,
    /// The run's placement, if it has one.
    place: Option<Placement<'p, T>>,
    /// Round-robin cursor for spawned tasks (no-placement default).
    cursor: AtomicUsize,
    /// Shard locks `settle` has taken, for the lock-per-batch test.
    #[cfg(test)]
    settle_locks: AtomicUsize,
}

impl<'p, T: Ranked> ShardedWorkSet<'p, T> {
    /// Shard `ws`'s entries across `n` per-worker queues — by `place`
    /// when given, round-robin otherwise (retry counts and enqueue
    /// stamps ride along).
    fn new(ws: &mut WorkSet<T>, n: usize, place: Option<Placement<'p, T>>) -> Self {
        let mut shards: Vec<WorkSet<T>> = (0..n).map(|_| WorkSet::new()).collect();
        for (i, e) in ws.take_entries().into_iter().enumerate() {
            let at = place.map_or(i, |p| p(&e.task));
            if let Some(shard) = shards.get_mut(at % n.max(1)) {
                shard.absorb_entries([e]);
            }
        }
        ShardedWorkSet {
            shards: shards.into_iter().map(Mutex::new).collect(),
            place,
            cursor: AtomicUsize::new(0),
            #[cfg(test)]
            settle_locks: AtomicUsize::new(0),
        }
    }

    /// Draw up to `max` entries, scanning shards from `home`. The
    /// first non-empty shard supplies the whole batch. With an `rng`
    /// it draws through the same rank-bucketed, aged sampler round
    /// mode uses, so draw order and starvation avoidance carry over
    /// per shard; without one — the lone lane — it takes the oldest
    /// entries of the lowest bucket (`WorkSet::take_oldest`).
    fn draw<R: Rng + ?Sized>(&self, home: usize, max: usize, rng: Option<&mut R>) -> Vec<Entry<T>> {
        let n = self.shards.len();
        for shard in self.shards.iter().cycle().skip(home % n.max(1)).take(n) {
            let mut q = recover(shard.lock());
            if q.is_empty() {
                continue;
            }
            return match rng {
                Some(rng) => q.sample_drain_aged(max, rng),
                None => q.take_oldest(max),
            };
        }
        Vec::new()
    }

    /// Settle one batch: count its spawns into `live`, empty its
    /// outbox into the shards taking each shard's lock at most once,
    /// then count its finished tasks out of `live` (the order the
    /// termination argument in the module docs needs).
    ///
    /// Spawns spread over all shards — by the placement when there is
    /// one, round-robin otherwise, from one cursor RMW per batch (the
    /// `k`-th spawn takes the cursor's `k`-th share). A re-queue (its
    /// retry count already bumped by `speculate`, feeding the aging
    /// prefix on redraw) returns to its *affine* shard under a
    /// placement — not the worker that happened to steal-execute it —
    /// so retries stay shard-local; without one it homes on the
    /// executing worker's shard. Within a shard entries land in settle
    /// order, so at one worker the shard receives exactly the pushes a
    /// per-task settle made, in the same order, with the same stamps.
    fn settle(&self, home: usize, out: &mut Outbox<T>, live: &AtomicUsize) {
        if out.spawned > 0 {
            live.fetch_add(out.spawned, Ordering::AcqRel);
        }
        let n = self.shards.len().max(1);
        let mut next = match self.place {
            None if out.spawned > 0 => self.cursor.fetch_add(out.spawned, Ordering::AcqRel),
            _ => 0,
        };
        for (at, queued) in out.queued.iter_mut() {
            *at = match (queued, self.place) {
                (Queued::Spawn(t), Some(p)) => p(t),
                (Queued::Requeue(e), Some(p)) => p(&e.task),
                (Queued::Spawn(_), None) => {
                    let share = next;
                    next = next.wrapping_add(1);
                    share
                }
                (Queued::Requeue(_), None) => home,
            } % n;
        }
        for (s, shard) in self.shards.iter().enumerate() {
            let mut mine = out.queued.extract_if(.., |(at, _)| *at == s).peekable();
            if mine.peek().is_none() {
                continue;
            }
            let mut q = recover(shard.lock());
            #[cfg(test)]
            self.settle_locks.fetch_add(1, Ordering::AcqRel);
            for (_, queued) in mine {
                match queued {
                    Queued::Spawn(t) => q.push(t),
                    Queued::Requeue(e) => q.push_entry(e),
                }
            }
        }
        if out.finished > 0 {
            live.fetch_sub(out.finished, Ordering::AcqRel);
        }
        out.spawned = 0;
        out.finished = 0;
    }

    /// Merge every shard's leftovers back out (end of run).
    fn drain_all(&self) -> Vec<Entry<T>> {
        let mut out = Vec::new();
        for s in self.shards.iter() {
            out.append(&mut recover(s.lock()).take_entries());
        }
        out
    }
}

impl<O: Operator> Executor<'_, O> {
    /// Run in pipelined mode until the work-set drains (or
    /// `cfg.max_completions` tasks have finished).
    ///
    /// Workers draw, execute, and settle task batches continuously,
    /// each as a lane of its own; `ctl` adjusts the in-flight
    /// budget every `cfg.window` completions from the sliding
    /// abort-ratio window. Returns one [`RoundStats`] entry per
    /// flushed window.
    ///
    /// `rng` is read only by lanes at w > 1, which seed their uniform
    /// draws from it. A lone lane draws oldest-first and leaves `rng`
    /// untouched, so its drain is the same at every seed (module
    /// docs). The parameter is benchmark-pinned at one worker: the
    /// frozen `benchmark/src/drain.rs` passes one at every worker
    /// count (ROADMAP item 5(b)).
    ///
    /// # Panics
    /// Panics if another drain is running over the executor's lock
    /// space ([`Executor::new`]), on a zero window or batch, or if
    /// `workers * cfg.batch` — the slot range the run mints — does not
    /// fit the 32-bit slot field of traces and fault records (it must
    /// stay below `u32::MAX`).
    pub fn run_pipelined<C: Controller + Send, R: Rng + ?Sized>(
        &self,
        ws: &mut WorkSet<O::Task>,
        ctl: &mut C,
        cfg: PipelinedConfig,
        rng: &mut R,
    ) -> RunStats {
        self.run_pipelined_placed(ws, ctl, cfg, rng, None)
    }

    /// [`Executor::run_pipelined`] with an explicit task→worker
    /// [`Placement`]: initial work, spawns, and re-queues all land on
    /// the shard the placement names (wrapped modulo the worker
    /// count), instead of round-robin. With a partition-affine
    /// placement each worker drains tasks of one graph partition and —
    /// over a sharded store — stays inside its own lock and data
    /// slabs; work stealing still kicks in when a shard runs dry, so
    /// drain and starvation-avoidance guarantees are unchanged.
    ///
    /// # Panics
    /// As [`Executor::run_pipelined`].
    pub fn run_pipelined_placed<C: Controller + Send, R: Rng + ?Sized>(
        &self,
        ws: &mut WorkSet<O::Task>,
        ctl: &mut C,
        cfg: PipelinedConfig,
        rng: &mut R,
        place: Option<Placement<'_, O::Task>>,
    ) -> RunStats {
        assert!(cfg.window >= 1, "window must be positive");
        assert!(cfg.batch >= 1, "batch must be positive");
        let workers = self.config().workers;
        let (space, pc) = (self.space, self.phases);
        // Strided slot pool: worker w owns slots
        // [w * batch, (w + 1) * batch), so slot indices are globally
        // unique while batches overlap. Traces and fault records carry
        // a slot as a `u32`, so they must fit one (as a round's
        // `launched < u32::MAX`).
        assert!(
            workers
                .checked_mul(cfg.batch)
                .is_some_and(|slots| slots < u32::MAX as usize),
            "workers * batch = {workers} * {} slots overflow the 32-bit slot field",
            cfg.batch
        );

        let _drain = space.claim_drain();
        // Tasks alive anywhere (module docs). Termination tests this
        // single counter — an empty draw alone is racy (a concurrent
        // batch may still re-queue an abort or push a spawn).
        let live = AtomicUsize::new(ws.len());
        let shards = ShardedWorkSet::new(ws, workers, place);
        let done = AtomicBool::new(false);
        // A lone lane has no other lane to conflict with: it runs its
        // tasks in solo mode and draws oldest-first, reading no RNG
        // (module docs). Lanes at w > 1 seed one RNG each from `rng`.
        let lone = workers == 1;
        let mode = if lone { Mode::Solo } else { Mode::Lane };
        let base_seed: Option<u64> = (!lone).then(|| rng.random());
        let books = Mutex::new(Books {
            state: ControlState::new(ctl),
            ctl,
            inflight: 0,
            completions: 0,
            window: RoundStats::default(),
            rounds: Vec::new(),
        });

        let worker = |w: usize| {
            let _stop = StopOnUnwind(&done);
            let mut wrng = base_seed.map(|s| StdRng::seed_from_u64(s ^ (w as u64) << 32));
            let mut scratch = TaskScratch::default();
            self.trace_into(&mut scratch);
            let mut outbox = Outbox::new();
            // Nothing to claim or draw: let someone else run.
            let idle = || {
                let t0 = phase::maybe_start(pc);
                std::thread::yield_now();
                phase::maybe_add(pc, Phase::Wait, t0);
            };
            while !done.load(Ordering::Acquire) {
                let granted = recover(books.lock()).claim(cfg.batch);
                if granted == 0 {
                    idle();
                    continue;
                }
                let t0 = phase::maybe_start(pc);
                let batch = shards.draw(w, granted, wrng.as_mut());
                phase::maybe_add(pc, Phase::Draw, t0);
                let drawn = batch.len();
                if drawn < granted {
                    // Give back the permits the draw could not fill.
                    recover(books.lock()).inflight -= granted - drawn;
                }
                if drawn == 0 {
                    // Nothing pending: quiescent iff no task is alive
                    // anywhere (pending, running, or about to be
                    // re-queued by a worker that drew it).
                    if live.load(Ordering::Acquire) == 0 {
                        done.store(true, Ordering::Release);
                        break;
                    }
                    idle();
                    continue;
                }
                // This batch's fault key (a retried task re-rolls
                // under a fresh one).
                let key = space.advance_epoch();
                let mut tally = RoundStats {
                    launched: drawn,
                    ..RoundStats::default()
                };
                let t1 = phase::maybe_start(pc);
                self.run_batch(
                    &mut scratch,
                    w * cfg.batch,
                    mode,
                    key,
                    batch,
                    &mut tally,
                    |settled| outbox.sink(settled),
                );
                shards.settle(w, &mut outbox, &live);
                phase::maybe_add(pc, Phase::Execute, t1);
                // Retire: the batch's tasks released their own locks;
                // give back its permits and book it. The batch's events
                // go to the recorder under the books lock, ahead of any
                // window the retire closes.
                let t2 = phase::maybe_start(pc);
                scratch.record(EventKind::BatchRetire {
                    worker: w as u32,
                    tag: key,
                    tasks: drawn as u32,
                });
                let fin = {
                    let mut books = recover(books.lock());
                    self.hand_over(w, &scratch);
                    books.retire(self, &tally, cfg.window)
                };
                phase::maybe_add(pc, Phase::Commit, t2);
                if fin >= cfg.max_completions {
                    done.store(true, Ordering::Release);
                    break;
                }
                if tally.aborted > 0 {
                    // Abort backoff, for the holder that is mid-task
                    // and *not* on a core (see the module docs).
                    std::thread::yield_now();
                }
            }
        };
        // One fan-out per drain: lane 0 on this thread, the others
        // spawned for the drain (none at one worker). A lane that
        // unwinds (a task that failed past its seal) stops the others,
        // and its own panic is re-raised here once all have returned.
        let Ok(()) = WorkerPool::new(workers).run(&worker);
        // Flush the final partial window.
        let mut books = recover(books.into_inner());
        books.flush(self);
        debug_assert!(space.check_all_free().is_ok());
        ws.absorb_entries(shards.drain_all());
        RunStats {
            rounds: books.rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::{exec_cfg, ring_setup, PanicOnceOp, RingOp};
    use crate::exec::ExecutorConfig;
    use crate::lock::LockSpace;
    use crate::store::SpecStore;
    use crate::task::{Abort, TaskCtx};
    use optpar_core::control::{FixedController, HybridController};

    /// A run to quiescence in windows of `window` and batches of `batch`.
    fn drain_cfg(window: usize, batch: usize) -> PipelinedConfig {
        PipelinedConfig {
            window,
            batch,
            max_completions: usize::MAX,
        }
    }

    #[test]
    fn pipelined_drains_and_serializes() {
        let n = 256;
        let (space, r) = ring_setup(n);
        let store = SpecStore::filled(r, n, 0i64);
        let op = RingOp { store: &store, n };
        let ex = Executor::new(&op, &space, exec_cfg(4));
        let mut ws = WorkSet::from_vec((0..n).collect::<Vec<_>>());
        let mut ctl = FixedController::new(8);
        let mut rng = StdRng::seed_from_u64(1);
        let run = ex.run_pipelined(&mut ws, &mut ctl, drain_cfg(32, 4), &mut rng);
        assert!(ws.is_empty());
        assert_eq!(run.total_committed(), n);
        assert!(space.check_all_free().is_ok(), "lock leak detected");
        let mut store = store;
        assert_eq!(store.snapshot().iter().sum::<i64>(), 0);
    }

    #[test]
    fn pipelined_with_adaptive_controller() {
        let n = 512;
        let (space, r) = ring_setup(n);
        let store = SpecStore::filled(r, n, 0i64);
        let op = RingOp { store: &store, n };
        let ex = Executor::new(&op, &space, exec_cfg(3));
        let mut ws = WorkSet::from_vec((0..n).collect::<Vec<_>>());
        let mut ctl = HybridController::with_rho(0.25);
        let mut rng = StdRng::seed_from_u64(2);
        let run = ex.run_pipelined(
            &mut ws,
            &mut ctl,
            PipelinedConfig {
                window: 64,
                ..PipelinedConfig::default()
            },
            &mut rng,
        );
        assert!(ws.is_empty());
        assert_eq!(run.total_committed(), n);
        assert!(run.round_count() >= 1);
    }

    /// A slot range past the 32-bit slot field must be refused up
    /// front, not silently truncated in traces and fault records.
    #[test]
    #[should_panic(expected = "overflow the 32-bit slot field")]
    fn pipelined_rejects_slot_range_past_owner_field() {
        let (space, r) = ring_setup(1);
        let store = SpecStore::filled(r, 1, 0i64);
        let op = RingOp {
            store: &store,
            n: 1,
        };
        let ex = Executor::new(&op, &space, exec_cfg(2));
        let mut ws = WorkSet::from_vec(vec![0usize]);
        let mut ctl = FixedController::new(2);
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = PipelinedConfig {
            batch: u32::MAX as usize / 2 + 1,
            ..PipelinedConfig::default()
        };
        let _ = ex.run_pipelined(&mut ws, &mut ctl, cfg, &mut rng);
    }

    #[test]
    fn pipelined_single_worker_is_conflict_free_at_budget_one() {
        let n = 64;
        let (space, r) = ring_setup(n);
        let store = SpecStore::filled(r, n, 0i64);
        let op = RingOp { store: &store, n };
        let ex = Executor::new(&op, &space, exec_cfg(1));
        let mut ws = WorkSet::from_vec((0..n).collect::<Vec<_>>());
        let mut ctl = FixedController::new(1);
        let mut rng = StdRng::seed_from_u64(4);
        let run = ex.run_pipelined(
            &mut ws,
            &mut ctl,
            PipelinedConfig {
                window: 16,
                ..PipelinedConfig::default()
            },
            &mut rng,
        );
        assert_eq!(run.total_committed(), n);
        assert_eq!(run.total_aborted(), 0, "no overlap, no conflicts");
    }

    /// In-flight budget clamp: at m = 1 at most one task is ever in
    /// flight, so even with many workers there is no temporal overlap
    /// and therefore not a single conflict.
    #[test]
    fn budget_one_admits_one_task_at_a_time() {
        let n = 64;
        let (space, r) = ring_setup(n);
        let store = SpecStore::filled(r, n, 0i64);
        let op = RingOp { store: &store, n };
        let ex = Executor::new(&op, &space, exec_cfg(4));
        let mut ws = WorkSet::from_vec((0..n).collect::<Vec<_>>());
        let mut ctl = FixedController::new(1);
        let mut rng = StdRng::seed_from_u64(5);
        let run = ex.run_pipelined(
            &mut ws,
            &mut ctl,
            PipelinedConfig {
                window: 8,
                ..PipelinedConfig::default()
            },
            &mut rng,
        );
        assert!(ws.is_empty());
        assert_eq!(run.total_committed(), n);
        assert_eq!(run.total_aborted(), 0, "budget 1 admits no overlap");
        let mut store = store;
        assert_eq!(store.snapshot().iter().sum::<i64>(), 0);
    }

    /// Operator that spawns a chain: task k > 0 spawns task k - 1.
    struct SpawnChain<'s> {
        store: &'s SpecStore<i64>,
    }

    impl Operator for SpawnChain<'_> {
        type Task = usize;
        fn execute(&self, &k: &usize, cx: &mut TaskCtx<'_>) -> Result<Vec<usize>, Abort> {
            *cx.write(self.store, k)? += 1;
            Ok(if k > 0 { vec![k - 1] } else { vec![] })
        }
    }

    #[test]
    fn spawned_tasks_enter_the_shards_and_commit() {
        let n = 10;
        let (space, r) = ring_setup(n);
        let store = SpecStore::filled(r, n, 0i64);
        let op = SpawnChain { store: &store };
        let ex = Executor::new(&op, &space, exec_cfg(4));
        let mut ws = WorkSet::from_vec(vec![n - 1]);
        let mut ctl = FixedController::new(4);
        let mut rng = StdRng::seed_from_u64(6);
        let run = ex.run_pipelined(
            &mut ws,
            &mut ctl,
            PipelinedConfig {
                window: 4,
                ..PipelinedConfig::default()
            },
            &mut rng,
        );
        assert!(ws.is_empty());
        assert_eq!(run.total_committed(), n, "the whole chain committed");
        let mut store = store;
        assert!(store.snapshot().iter().all(|&v| v == 1));
    }

    /// Conflict-free tasks of one shape: each locks `L` words of its
    /// own (task ids are minted fresh, so no two tasks share a word)
    /// and spawns `S` fresh tasks.
    struct Uniform {
        next: AtomicUsize,
    }

    impl Uniform {
        const L: usize = 3;
        const S: usize = 2;
    }

    impl Operator for Uniform {
        type Task = usize;
        fn execute(&self, &k: &usize, cx: &mut TaskCtx<'_>) -> Result<Vec<usize>, Abort> {
            for l in k * Self::L..(k + 1) * Self::L {
                cx.lock_raw(l)?;
            }
            let first = self.next.fetch_add(Self::S, Ordering::AcqRel);
            Ok((first..first + Self::S).collect())
        }
    }

    /// Window stats carry the same `spawned` / `lock_acquires` totals
    /// round mode reports: a conflict-free chain of `n` one-lock tasks
    /// spawns `n - 1` successors and takes `n` locks. And each window
    /// is exact: with four lanes retiring batches of 3 into windows of
    /// 7, every window holds whole batches — a task's locks, spawns and
    /// outcome land in the window that launched it.
    #[test]
    fn pipelined_windows_report_spawned_and_lock_acquires() {
        let n = 10;
        let (space, r) = ring_setup(n);
        let store = SpecStore::filled(r, n, 0i64);
        let op = SpawnChain { store: &store };
        let ex = Executor::new(&op, &space, exec_cfg(1));
        let mut ws = WorkSet::from_vec(vec![n - 1]);
        let run = ex.run_pipelined(
            &mut ws,
            &mut FixedController::new(4),
            PipelinedConfig {
                window: 4,
                ..PipelinedConfig::default()
            },
            &mut StdRng::seed_from_u64(6),
        );
        assert_eq!(run.total_committed(), n);
        let total = |f: fn(&RoundStats) -> usize| run.rounds.iter().map(f).sum::<usize>();
        assert_eq!(total(|r| r.spawned), n - 1);
        assert_eq!(total(|r| r.lock_acquires), n);

        // At most 300 + 4 * 3 completions mint 16 + 2 * 312 < 1024 ids.
        let (seeds, ids) = (16, 1024);
        let mut b = LockSpace::builder();
        let _ = b.region(Uniform::L * ids);
        let space = b.build();
        let op = Uniform {
            next: AtomicUsize::new(seeds),
        };
        let ex = Executor::new(&op, &space, exec_cfg(4));
        let mut ws = WorkSet::from_vec((0..seeds).collect());
        let run = ex.run_pipelined(
            &mut ws,
            &mut FixedController::new(12),
            PipelinedConfig {
                window: 7,
                batch: 3,
                max_completions: 300,
            },
            &mut StdRng::seed_from_u64(9),
        );
        assert_eq!(run.total_faulted(), 0);
        assert!(run.round_count() >= 300 / 7, "{}", run.round_count());
        for w in &run.rounds {
            assert_eq!(w.lock_acquires, Uniform::L * w.launched, "{w:?}");
            assert_eq!(w.spawned, Uniform::S * w.committed, "{w:?}");
            assert_eq!(w.launched, w.committed + w.aborted + w.faulted, "{w:?}");
        }
    }

    /// A lane hands its batch's events to the recorder under the books
    /// lock, just before the retire that may close a window: so at
    /// every `WindowAdvance` the log holds exactly the task outcomes of
    /// the batches retired so far — none of a batch still running on
    /// another lane — and each track's batch lands whole, its launches
    /// and outcomes ahead of its `BatchRetire`.
    #[test]
    fn every_window_advance_follows_exactly_the_batches_it_counts() {
        let (seeds, ids) = (16, 1024);
        let mut b = LockSpace::builder();
        let _ = b.region(Uniform::L * ids);
        let space = b.build();
        let op = Uniform {
            next: AtomicUsize::new(seeds),
        };
        let mut ex = Executor::new(&op, &space, exec_cfg(4));
        ex.enable_obs();
        let mut ws = WorkSet::from_vec((0..seeds).collect());
        let run = ex.run_pipelined(
            &mut ws,
            &mut FixedController::new(12),
            PipelinedConfig {
                window: 7,
                batch: 3,
                max_completions: 300,
            },
            &mut StdRng::seed_from_u64(9),
        );
        let log = ex.recorder().map(|r| r.take_log()).unwrap_or_default();
        let (mut outcomes, mut windows) = (0u64, 0);
        let mut open = std::collections::BTreeMap::<u32, u64>::new();
        for te in &log.events {
            match te.event.kind {
                EventKind::TaskLaunch { .. } => *open.entry(te.track).or_default() += 1,
                EventKind::TaskCommit { .. }
                | EventKind::TaskAbort { .. }
                | EventKind::TaskFault { .. } => outcomes += 1,
                EventKind::BatchRetire { worker, tasks, .. } => {
                    assert_eq!(worker, te.track);
                    let launched = open.insert(te.track, 0);
                    assert_eq!(launched, Some(u64::from(tasks)), "{te:?}");
                }
                EventKind::WindowAdvance { completions, .. } => {
                    assert_eq!(completions, outcomes, "window {windows}");
                    assert!(open.values().all(|&n| n == 0), "window {windows}");
                    windows += 1;
                }
                _ => {}
            }
        }
        assert_eq!(windows, run.round_count());
        assert_eq!(outcomes, run.total_launched() as u64);
    }

    /// Conflict-free operator with one "wedged" task that spins until
    /// most other tasks have executed. Under a global round barrier
    /// this deadlocks (the wedged task waits for tasks in later
    /// rounds); pipelined workers flow past it.
    struct WedgedOp<'s> {
        store: &'s SpecStore<i64>,
        progress: AtomicUsize,
        wedge: usize,
        wait_for: usize,
    }

    impl Operator for WedgedOp<'_> {
        type Task = usize;
        fn execute(&self, &i: &usize, cx: &mut TaskCtx<'_>) -> Result<Vec<usize>, Abort> {
            if i == self.wedge {
                let mut spins = 0u64;
                while self.progress.load(Ordering::Acquire) < self.wait_for {
                    std::thread::yield_now();
                    spins += 1;
                    assert!(
                        spins < 1_000_000_000,
                        "other workers made no progress past the wedged task"
                    );
                }
            } else {
                self.progress.fetch_add(1, Ordering::AcqRel);
            }
            *cx.write(self.store, i)? += 1;
            Ok(vec![])
        }
    }

    #[test]
    fn wedged_task_does_not_stall_other_workers() {
        let n = 128;
        let batch = 16;
        let (space, r) = ring_setup(n);
        let store = SpecStore::filled(r, n, 0i64);
        let op = WedgedOp {
            store: &store,
            progress: AtomicUsize::new(0),
            wedge: 0,
            // At most `batch - 1` tasks can be queued behind the
            // wedge in its own batch; everything else must flow.
            wait_for: n - 2 * batch,
        };
        let ex = Executor::new(&op, &space, exec_cfg(4));
        let mut ws = WorkSet::from_vec((0..n).collect::<Vec<_>>());
        let mut ctl = FixedController::new(64);
        let mut rng = StdRng::seed_from_u64(7);
        let run = ex.run_pipelined(&mut ws, &mut ctl, drain_cfg(32, batch), &mut rng);
        assert!(ws.is_empty());
        assert_eq!(run.total_committed(), n);
        assert_eq!(run.total_aborted(), 0, "tasks are disjoint");
        let mut store = store;
        assert!(store.snapshot().iter().all(|&v| v == 1));
    }

    /// Operator that always loses: every execution reports a
    /// conflict, so no window ever commits anything.
    struct AlwaysConflict;

    impl Operator for AlwaysConflict {
        type Task = usize;
        fn execute(&self, _t: &usize, _cx: &mut TaskCtx<'_>) -> Result<Vec<usize>, Abort> {
            Err(Abort::Conflict { lock: 0 })
        }
    }

    #[test]
    fn zero_commit_watchdog_clamps_budget_to_one() {
        let n = 64;
        let mut b = LockSpace::builder();
        let _ = b.region(1);
        let space = b.build();
        let op = AlwaysConflict;
        let ex = Executor::new(&op, &space, exec_cfg(2));
        let mut ws = WorkSet::from_vec((0..n).collect::<Vec<_>>());
        let mut ctl = FixedController::new(64);
        let mut rng = StdRng::seed_from_u64(8);
        let run = ex.run_pipelined(
            &mut ws,
            &mut ctl,
            PipelinedConfig {
                window: 16,
                batch: 8,
                max_completions: 400,
            },
            &mut rng,
        );
        assert_eq!(run.total_committed(), 0);
        assert_eq!(ws.len(), n, "every task was re-queued");
        let last = run.rounds.last().expect("at least one window");
        assert_eq!(
            last.m,
            1,
            "watchdog clamped the in-flight budget to 1: {:?}",
            run.rounds.iter().map(|r| r.m).collect::<Vec<_>>()
        );
        assert!(
            run.rounds.iter().any(|r| r.m > 1),
            "the clamp engaged after, not before, the stall"
        );
    }

    /// Sharding keeps the enqueue stamps it is handed and starts each
    /// shard's counter past them, so a task spawned during the run
    /// never shares (or sorts ahead of) an older entry's stamp in the
    /// aged-prefix tie-break.
    #[test]
    fn sharding_does_not_reset_enqueue_stamps() {
        let mut ws = WorkSet::from_vec((0..12usize).collect());
        let shards = ShardedWorkSet::new(&mut ws, 3, None);
        let mut out = Outbox::new();
        out.sink(Settled::Committed(vec![99]));
        // Round-robin from a fresh cursor: lands on shard 0.
        shards.settle(1, &mut out, &AtomicUsize::new(1));
        let shard = recover(shards.shards[0].lock()).take_entries();
        let spawned = shard.iter().find(|e| e.task == 99).map(|e| e.seq);
        let mut seqs: Vec<u64> = shard.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), shard.len(), "two entries share a stamp");
        assert_eq!(seqs.last().copied(), spawned, "the spawn is the youngest");
    }

    /// Do-nothing tasks forming a complete binary tree: task `k`
    /// spawns `2k + 1` and `2k + 2` below `n`, and counts its launches.
    struct SpawnTree {
        launches: Vec<AtomicUsize>,
    }

    impl Operator for SpawnTree {
        type Task = usize;
        fn execute(&self, &k: &usize, _: &mut TaskCtx<'_>) -> Result<Vec<usize>, Abort> {
            if let Some(c) = self.launches.get(k) {
                c.fetch_add(1, Ordering::AcqRel);
            }
            let n = self.launches.len();
            Ok((2 * k + 1..=2 * k + 2).filter(|&c| c < n).collect())
        }
    }

    /// Batched `live` accounting terminates exactly when the tree is
    /// spent: from one root, every worker count and batch size launches
    /// every task once, and no stop comes early (a task left pending)
    /// or never (the drain would hang).
    #[test]
    fn batched_settle_drains_a_spawn_tree_exactly_once() {
        let n = 4095;
        let space = LockSpace::builder().build();
        for workers in [1, 2, 4] {
            for batch in [1, 8, 64] {
                let op = SpawnTree {
                    launches: (0..n).map(|_| AtomicUsize::new(0)).collect(),
                };
                let ex = Executor::new(&op, &space, exec_cfg(workers));
                let mut ws = WorkSet::from_vec(vec![0usize]);
                let run = ex.run_pipelined(
                    &mut ws,
                    &mut FixedController::new(64),
                    drain_cfg(32, batch),
                    &mut StdRng::seed_from_u64(41),
                );
                let at = format!("workers {workers}, batch {batch}");
                assert!(ws.is_empty(), "{at}: work left behind");
                let once = op.launches.iter().all(|c| c.load(Ordering::Acquire) == 1);
                assert!(once, "{at}: a task launched other than once");
                assert_eq!(run.total_launched(), n, "{at}");
                assert_eq!(run.total_committed(), n, "{at}");
            }
        }
    }

    /// One settle per batch, one lock per shard: 64 commits that each
    /// spawn (plus a re-queue) reach every shard they feed through a
    /// single acquisition of its lock — round-robin and placed alike.
    #[test]
    fn a_batch_settle_locks_each_shard_at_most_once() {
        let place = |t: &usize| *t % 3;
        for placement in [None, Some(&place as Placement<'_, usize>)] {
            let mut ws = WorkSet::new();
            let shards = ShardedWorkSet::new(&mut ws, 4, placement);
            let mut out = Outbox::new();
            for i in 0..64usize {
                out.sink(Settled::Committed(vec![2 * i, 2 * i + 1]));
            }
            out.sink(Settled::Requeue(Entry {
                task: 7,
                retries: 1,
                seq: 0,
            }));
            let live = AtomicUsize::new(65);
            shards.settle(2, &mut out, &live);
            let lens: Vec<usize> = shards
                .shards
                .iter()
                .map(|s| recover(s.lock()).len())
                .collect();
            assert_eq!(lens.iter().sum::<usize>(), 129);
            assert_eq!(
                live.load(Ordering::Acquire),
                129,
                "+128 spawned, -64 finished"
            );
            let fed = lens.iter().filter(|&&l| l > 0).count();
            assert_eq!(fed, if placement.is_some() { 3 } else { 4 }, "{lens:?}");
            assert_eq!(shards.settle_locks.load(Ordering::Acquire), fed);
            assert!(out.queued.is_empty(), "the outbox is reused empty");
        }
    }

    /// Commits or requests an abort by launch ordinal alone, so any
    /// engine that launches the same batch sizes sees the same
    /// outcomes whatever it drew.
    struct ByOrdinal {
        launches: AtomicUsize,
        aborting: std::ops::Range<usize>,
    }

    impl Operator for ByOrdinal {
        type Task = usize;
        fn execute(&self, _: &usize, cx: &mut TaskCtx<'_>) -> Result<Vec<usize>, Abort> {
            if self
                .aborting
                .contains(&self.launches.fetch_add(1, Ordering::AcqRel))
            {
                cx.abort_requested()?;
            }
            Ok(vec![])
        }
    }

    /// One control step under both engines: a round is a window of one
    /// batch, so a scripted outcome sequence — a commit-free stretch
    /// far past `WATCHDOG_STALL` included — hands both the same next
    /// budget step for step, and leaves the stall count it implies.
    #[test]
    fn control_step_is_the_same_for_rounds_and_windows() {
        let space = LockSpace::builder().build();
        let op = ByOrdinal {
            launches: AtomicUsize::new(0),
            aborting: 100..700,
        };
        let ex = Executor::new(&op, &space, exec_cfg(1));
        fn drive<C: Controller + Send>(
            ex: &Executor<'_, ByOrdinal>,
            op: &ByOrdinal,
            lanes: bool,
            mut ctl: C,
        ) -> Vec<RoundStats> {
            op.launches.store(0, Ordering::Release);
            let mut ws = WorkSet::from_vec((0..1500usize).collect());
            let mut rng = StdRng::seed_from_u64(11);
            let every_batch = drain_cfg(1, 1 << 20);
            let run = if lanes {
                ex.run_pipelined(&mut ws, &mut ctl, every_batch, &mut rng)
            } else {
                ex.run_with_controller(&mut ws, &mut ctl, usize::MAX, &mut rng)
            };
            assert!(ws.is_empty());
            run.rounds
        }
        let hybrid = || HybridController::with_rho(0.25);
        assert_eq!(
            drive(&ex, &op, false, hybrid()),
            drive(&ex, &op, true, hybrid())
        );
        // A fixed controller never shrinks: every cut is the watchdog's.
        let mut ctl = FixedController::new(64);
        let ledger = drive(&ex, &op, false, ctl);
        assert_eq!(ledger, drive(&ex, &op, true, ctl));
        // The ledger replayed through the step itself.
        let mut state = ControlState::new(&ctl);
        let mut longest = 0;
        for pair in ledger.windows(2) {
            assert_eq!(ex.control_step(&mut ctl, &mut state, &pair[0]), pair[1].m);
            longest = longest.max(state.stalled);
        }
        let commit_free = ledger.iter().filter(|r| r.committed == 0).count();
        assert_eq!(longest as usize, commit_free, "one unbroken stall");
        assert!(commit_free > 100 && ledger.iter().any(|r| r.m == 1));
        assert_eq!(ledger.last().map(|r| r.m), Some(64), "and it lifted");
    }

    /// What an `OwnerProbe` task saw: `(owner_of(i), owner_of(i + 1),
    /// slot)`.
    type Seen = (Option<usize>, Option<usize>, usize);

    /// `RingOp` that, once it holds both its words, records who owns
    /// them as its slot sees it.
    struct OwnerProbe<'s> {
        ring: RingOp<'s>,
        space: &'s LockSpace,
        seen: Mutex<Vec<Seen>>,
    }

    impl Operator for OwnerProbe<'_> {
        type Task = usize;
        fn execute(&self, &i: &usize, cx: &mut TaskCtx<'_>) -> Result<Vec<usize>, Abort> {
            let (store, j) = (self.ring.store, (i + 1) % self.ring.n);
            cx.lock(store, i)?;
            cx.lock(store, j)?;
            let owner = |k| self.space.owner_of(store.lock_of(k));
            recover(self.seen.lock()).push((owner(i), owner(j), cx.slot()));
            self.ring.execute(&i, cx)
        }
    }

    /// Drain a ring of `n` through `OwnerProbe` on `workers` lanes and
    /// return what its tasks saw.
    fn probe_owners(workers: usize, n: usize) -> Vec<Seen> {
        let (space, r) = ring_setup(n);
        let store = SpecStore::filled(r, n, 0i64);
        let op = OwnerProbe {
            ring: RingOp { store: &store, n },
            space: &space,
            seen: Mutex::new(Vec::new()),
        };
        let ex = Executor::new(&op, &space, exec_cfg(workers));
        let mut ws = WorkSet::from_vec((0..n).collect::<Vec<_>>());
        let run = ex.run_pipelined(
            &mut ws,
            &mut FixedController::new(8),
            drain_cfg(16, 4),
            &mut StdRng::seed_from_u64(43),
        );
        assert_eq!(run.total_committed(), n);
        assert!(space.check_all_free().is_ok());
        drop(ex);
        let seen = recover(op.seen.into_inner());
        assert!(seen.len() >= n, "every commit probed once at least");
        seen
    }

    /// A lone lane runs its tasks in solo mode: a task that holds its
    /// locks finds their words unowned, because it never stamped them.
    #[test]
    fn a_lone_lane_task_stamps_no_lock_word() {
        for (a, b, slot) in probe_owners(1, 64) {
            assert_eq!((a, b), (None, None), "slot {slot}");
        }
    }

    /// Lanes at w > 1 keep their lock words: a task that holds its
    /// locks finds both words owned by its own slot.
    #[test]
    fn a_lane_task_at_two_workers_owns_its_lock_words() {
        for (a, b, slot) in probe_owners(2, 64) {
            assert_eq!((a, b), (Some(slot), Some(slot)));
        }
    }

    /// The lone lane counts acquires as the solo runner does — every
    /// successful lock call, though it stamps no word: `RingOp` books
    /// two locks and two writes per task, 4·n in all under both.
    #[test]
    fn a_lone_lane_books_the_solo_runners_lock_acquires() {
        let n = 64;
        let (space, r) = ring_setup(n);
        let store = SpecStore::filled(r, n, 0i64);
        let op = RingOp { store: &store, n };
        let ex = Executor::new(&op, &space, exec_cfg(1));
        let mut ws = WorkSet::from_vec((0..n).collect::<Vec<_>>());
        let solo = ex.run_solo(&mut ws, n);
        let mut ws = WorkSet::from_vec((0..n).collect::<Vec<_>>());
        let run = ex.run_pipelined(
            &mut ws,
            &mut FixedController::new(8),
            drain_cfg(16, 4),
            &mut StdRng::seed_from_u64(44),
        );
        assert_eq!((solo.committed, run.total_committed()), (n, n));
        let lane: usize = run.rounds.iter().map(|w| w.lock_acquires).sum();
        assert_eq!((solo.lock_acquires, lane), (4 * n, 4 * n));
        assert!((0..n).all(|l| space.owner_of(l).is_none()));
    }

    /// Partition-affine placement: every task pinned to one worker
    /// still drains, serializes, and (single contended slot per
    /// placement class) commits conflict-free, because one worker
    /// executes each class sequentially.
    #[test]
    fn placed_run_drains_and_respects_affinity() {
        let n = 256;
        let workers = 4;
        let (space, r) = ring_setup(n);
        let store = SpecStore::filled(r, n, 0i64);
        let op = RingOp { store: &store, n };
        let ex = Executor::new(&op, &space, exec_cfg(workers));
        let mut ws = WorkSet::from_vec((0..n).collect::<Vec<_>>());
        let mut ctl = FixedController::new(8);
        let mut rng = StdRng::seed_from_u64(29);
        // Contiguous blocks of the ring go to the same worker, so the
        // only possible conflicts are at the w block seams.
        let block = n / workers;
        let place = move |t: &usize| *t / block;
        let run =
            ex.run_pipelined_placed(&mut ws, &mut ctl, drain_cfg(32, 4), &mut rng, Some(&place));
        assert!(ws.is_empty());
        assert_eq!(run.total_committed(), n);
        assert!(space.check_all_free().is_ok());
        let mut store = store;
        assert_eq!(store.snapshot().iter().sum::<i64>(), 0);
    }

    /// An operator that always panics on one task: with dead-letter
    /// budget K the task must launch exactly K + 1 times and then
    /// retire, and the run must still drain.
    struct PoisonOne<'s> {
        store: &'s SpecStore<i64>,
        poison: usize,
        launches: AtomicUsize,
    }

    impl Operator for PoisonOne<'_> {
        type Task = usize;
        fn execute(&self, &i: &usize, cx: &mut TaskCtx<'_>) -> Result<Vec<usize>, Abort> {
            if i == self.poison {
                self.launches.fetch_add(1, Ordering::AcqRel);
                panic!("poison task {i}");
            }
            *cx.write(self.store, i)? += 1;
            Ok(vec![])
        }
    }

    #[test]
    fn pipelined_dead_letter_bounds_poison_launches() {
        let n = 64;
        let k_budget = 3u32;
        let (space, r) = ring_setup(n);
        let store = SpecStore::filled(r, n, 0i64);
        let op = PoisonOne {
            store: &store,
            poison: 5,
            launches: AtomicUsize::new(0),
        };
        let ex = Executor::new(
            &op,
            &space,
            ExecutorConfig {
                workers: 2,
                dead_letter_budget: k_budget,
                ..ExecutorConfig::default()
            },
        );
        let mut ws = WorkSet::from_vec((0..n).collect::<Vec<_>>());
        let mut ctl = FixedController::new(8);
        let mut rng = StdRng::seed_from_u64(31);
        let place = move |t: &usize| *t % 2;
        let run =
            ex.run_pipelined_placed(&mut ws, &mut ctl, drain_cfg(16, 4), &mut rng, Some(&place));
        assert!(ws.is_empty(), "the poison task must not linger");
        assert_eq!(run.total_committed(), n - 1);
        assert_eq!(
            op.launches.load(Ordering::Acquire),
            k_budget as usize + 1,
            "dead-letter budget K admits exactly K + 1 launches"
        );
        assert_eq!(run.total_dead_lettered(), 1);
        let letters = ex.take_dead_letters();
        assert_eq!(letters.len(), 1);
        assert_eq!(letters[0].retries, k_budget);
        assert!(letters[0].detail.contains("poison task 5"));
        assert!(space.check_all_free().is_ok());
    }

    #[test]
    fn phase_clock_accumulates_pipelined_phases() {
        let n = 256;
        let (space, r) = ring_setup(n);
        let store = SpecStore::filled(r, n, 0i64);
        let op = RingOp { store: &store, n };
        let clock = crate::phase::PhaseClock::new();
        let mut ex = Executor::new(&op, &space, exec_cfg(4));
        ex.set_phase_clock(&clock);
        let mut ws = WorkSet::from_vec((0..n).collect::<Vec<_>>());
        let mut ctl = FixedController::new(8);
        let mut rng = StdRng::seed_from_u64(23);
        let run = ex.run_pipelined(&mut ws, &mut ctl, drain_cfg(32, 4), &mut rng);
        assert_eq!(run.total_committed(), n);
        let bd = clock.snapshot();
        assert!(bd.draw_ns > 0, "draw was timed");
        assert!(bd.execute_ns > 0, "execute was timed");
        assert!(bd.commit_ns > 0, "retire/flush was timed");
        // Wait accrues only when workers starve on the budget or the
        // drained shards, which an unloaded run may never hit — no
        // lower bound on it.
    }

    #[test]
    fn pipelined_contains_operator_panics() {
        let n = 64;
        let (space, r) = ring_setup(n);
        let store = SpecStore::filled(r, n, 0i64);
        let op = PanicOnceOp {
            store: &store,
            n,
            armed: AtomicBool::new(true),
        };
        let ex = Executor::new(&op, &space, exec_cfg(4));
        let mut ws = WorkSet::from_vec((0..n).collect::<Vec<_>>());
        let mut ctl = FixedController::new(8);
        let mut rng = StdRng::seed_from_u64(17);
        let run = ex.run_pipelined(&mut ws, &mut ctl, drain_cfg(16, 4), &mut rng);
        assert!(ws.is_empty());
        assert_eq!(
            run.total_committed(),
            n,
            "the panicked task was re-queued and committed"
        );
        assert_eq!(run.total_faulted(), 1);
        assert_eq!(ex.fault_count(), 1);
        let faults = ex.take_faults();
        assert!(faults[0].detail.contains("op blew up on task 13"));
        assert!(
            space.check_all_free().is_ok(),
            "faulted locks were released"
        );
        let mut store = store;
        assert_eq!(store.snapshot().iter().sum::<i64>(), 0);
    }
}

#[cfg(test)]
mod stress_tests {
    use super::*;
    use crate::exec::tests::{exec_cfg, ring_setup};
    use crate::store::SpecStore;
    use crate::task::{Abort, TaskCtx};
    use optpar_core::control::FixedController;

    /// High-contention operator: every task touches slot 0.
    struct HotSpot<'s> {
        store: &'s SpecStore<i64>,
    }
    impl Operator for HotSpot<'_> {
        type Task = usize;
        fn execute(&self, &i: &usize, cx: &mut TaskCtx<'_>) -> Result<Vec<usize>, Abort> {
            *cx.write(self.store, 0)? += i as i64;
            Ok(vec![])
        }
    }

    #[test]
    fn hotspot_contention_no_leaks() {
        let (space, r) = ring_setup(1);
        let store = SpecStore::filled(r, 1, 0i64);
        let op = HotSpot { store: &store };
        let ex = Executor::new(&op, &space, exec_cfg(4));
        let n = 200;
        let mut ws = WorkSet::from_vec((1..=n).collect::<Vec<_>>());
        let mut ctl = FixedController::new(8);
        let mut rng = StdRng::seed_from_u64(19);
        let run = ex.run_pipelined(
            &mut ws,
            &mut ctl,
            PipelinedConfig {
                window: 32,
                batch: 4,
                max_completions: 10_000_000,
            },
            &mut rng,
        );
        assert!(ws.is_empty());
        assert_eq!(run.total_committed(), n);
        assert!(space.check_all_free().is_ok(), "lock leak detected");
        let mut store = store;
        assert_eq!(
            *store.get_mut(0),
            (n * (n + 1) / 2) as i64,
            "serializable sum"
        );
    }
}
