//! Pipelined (barrier-free) execution: the batch loop on worker lanes.
//!
//! A barrier round parks every worker once per round so one epoch bump
//! can retire the whole round's locks; one slow task therefore stalls
//! the world. Here each worker runs the executor's batch loop
//! (`Executor::run_batch` — the loop a round runs on lane 0) on a lock
//! lane of its own, and nobody waits for anybody. What this module
//! adds to that loop:
//!
//! * **a lane per worker**: worker `w` draws a *batch*, runs it under
//!   the current tag of lane `w + 1` of the [`LockSpace`], and retires
//!   it with one [`LockSpace::advance_lane`] bump — the round barrier,
//!   per worker. Slots are recycled batch positions (`w * batch + i`):
//!   they name a lock's holder and carry no priority meaning;
//! * **retention is not conflict**: the stamps a lane's committed
//!   tasks leave behind until that bump are bookkeeping, not locks.
//!   The batch loop publishes the slot it is about to run
//!   ([`LockSpace::publish_running`]; slots rise through a batch), and
//!   a requester that finds a live stamp of a slot that has finished —
//!   any other slot of its own lane, or a slot behind another lane's
//!   published one — takes the word over. A task aborts only against
//!   a holder that is *running*, which at one worker is never. An
//!   aborted task releases its words before its worker publishes the
//!   next slot, so a finished slot's surviving stamp always means a
//!   commit;
//! * **a sharded work-set**: a worker drains its own shard and steals
//!   from the others only when it runs dry. Each shard is a
//!   [`WorkSet`], so rank order and aged-retry prefix semantics hold
//!   per draw as in a round (shards are not ordered against each
//!   other — rank is a work-efficiency hint, not a commit order).
//!   Re-queues go to the worker's home shard, spawns round-robin, or
//!   both where the run's [`Placement`] says;
//! * **a permit gate**: the controller's `m(t)` is an *in-flight
//!   speculation budget* — at most `m` tasks are in flight — and every
//!   `window` completions the crossing worker takes the control step a
//!   round takes (`Executor::control_step`: observe `r̄`, zero-commit
//!   watchdog, next budget) on what the shared counters gained since
//!   the last window.
//!
//! The batch tag is the batch's fault and audit key (the round epoch
//! never moves here): a re-queued task re-rolls its fault draw under a
//! fresh tag on every retry, so a deterministic per-coordinate plan
//! cannot livelock the drain.
//!
//! With the `checker` feature the audit sink stays armed across the
//! run and is drained at every window flush. Each acquisition records
//! whether it took the word over and from whom, and the window's
//! traces replay against a run-long lock ledger: no lock is held by
//! two live tasks — two tasks of a batch share one only through a
//! takeover from its last committed holder, deposited earlier. Traces
//! then group by batch tag for the coverage rules, and at one worker
//! the lane commit-set oracle runs per batch: nothing aborts but by
//! its own request or fault, so the committed set is a superset of
//! the round's greedy prefix-MIS.
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
//! [`LockSpace`]: crate::lock::LockSpace
//! [`LockSpace::advance_lane`]: crate::lock::LockSpace::advance_lane
//! [`LockSpace::publish_running`]: crate::lock::LockSpace::publish_running

use crate::exec::{ControlState, Entry, Executor, Settled, WorkSet};
use crate::faults::recover;
use crate::lock::MAX_LANES;
use crate::phase::{self, Phase};
use crate::probe::obs_emit;
use crate::stats::{RoundStats, RunStats};
use crate::task::{Operator, Ranked, TaskScratch};
use optpar_core::control::Controller;
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
    /// Maximum tasks a worker draws, executes, and retires as one
    /// batch (one lane bump frees the whole batch's locks). Also the
    /// per-worker slot stride.
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

/// The run's outcome counters, shared between workers: the counts of
/// a [`RoundStats`] as running totals every retired batch adds to.
#[derive(Default)]
struct Counters {
    committed: AtomicUsize,
    aborted: AtomicUsize,
    faulted: AtomicUsize,
    dead_lettered: AtomicUsize,
    spawned: AtomicUsize,
    lock_acquires: AtomicUsize,
}

impl Counters {
    /// Fold one retired batch's tally in.
    fn add(&self, batch: &RoundStats) {
        self.committed.fetch_add(batch.committed, Ordering::AcqRel);
        self.aborted.fetch_add(batch.aborted, Ordering::AcqRel);
        self.faulted.fetch_add(batch.faulted, Ordering::AcqRel);
        self.dead_lettered
            .fetch_add(batch.dead_lettered, Ordering::AcqRel);
        self.spawned.fetch_add(batch.spawned, Ordering::AcqRel);
        self.lock_acquires
            .fetch_add(batch.lock_acquires, Ordering::AcqRel);
    }

    /// The run's totals so far (`m` left 0: a budget is not a count).
    fn snapshot(&self) -> RoundStats {
        let get = |c: &AtomicUsize| c.load(Ordering::Acquire);
        let (committed, aborted, faulted) =
            (get(&self.committed), get(&self.aborted), get(&self.faulted));
        RoundStats {
            m: 0,
            launched: committed + aborted + faulted,
            committed,
            aborted,
            faulted,
            spawned: get(&self.spawned),
            lock_acquires: get(&self.lock_acquires),
            dead_lettered: get(&self.dead_lettered),
        }
    }
}

/// A task-placement policy for pipelined mode: maps a task to the
/// worker shard that should execute it (wrapped modulo the worker
/// count). Partition-affine placement — tasks of one graph partition
/// pinned to one worker — keeps each worker inside its own lock shard,
/// which is what makes sharded [`SpecStore`](crate::store::SpecStore)
/// layouts pay off at scale.
pub type Placement<'p, T> = &'p (dyn Fn(&T) -> usize + Sync);

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
        }
    }

    /// Shard `i`, wrapped modulo the shard count (`None` only for a
    /// zero-shard set, which is never built: one shard per worker).
    fn shard(&self, i: usize) -> Option<&Mutex<WorkSet<T>>> {
        self.shards.get(i % self.shards.len().max(1))
    }

    /// Draw up to `max` entries, scanning shards from `home`. The
    /// first non-empty shard supplies the whole batch via the same
    /// rank-bucketed, aged sampler round mode uses, so draw order and
    /// starvation avoidance carry over per shard.
    fn draw<R: Rng + ?Sized>(
        &self,
        home: usize,
        max: usize,
        rng: &mut R,
        budget: u32,
    ) -> Vec<Entry<T>> {
        let n = self.shards.len();
        for shard in self.shards.iter().cycle().skip(home % n.max(1)).take(n) {
            let mut q = recover(shard.lock());
            if q.is_empty() {
                continue;
            }
            return q.sample_drain_aged(max, rng, budget);
        }
        Vec::new()
    }

    /// Re-queue an aborted or faulted entry (its retry count already
    /// bumped by `speculate`, feeding the aging prefix on redraw). With a
    /// placement the entry returns to its *affine* shard — not the
    /// worker that happened to steal-execute it — so retries stay
    /// shard-local; without one it homes on the executing worker's
    /// shard.
    fn requeue(&self, home: usize, e: Entry<T>) {
        let at = self.place.map_or(home, |p| p(&e.task));
        if let Some(shard) = self.shard(at) {
            recover(shard.lock()).push_entry(e);
        }
    }

    /// Distribute spawned tasks across all shards — by the placement
    /// when there is one, round-robin otherwise.
    fn spawn(&self, tasks: Vec<T>) {
        for t in tasks {
            let at = match self.place {
                Some(p) => p(&t),
                None => self.cursor.fetch_add(1, Ordering::AcqRel),
            };
            if let Some(shard) = self.shard(at) {
                recover(shard.lock()).push(t);
            }
        }
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
    /// Workers draw, execute, and retire task batches continuously
    /// against their private lock lanes; `ctl` adjusts the in-flight
    /// budget every `cfg.window` completions from the sliding
    /// abort-ratio window. Returns one [`RoundStats`] entry per
    /// flushed window.
    ///
    /// # Panics
    /// Panics on a zero window or batch, on more than
    /// [`MAX_LANES`]` - 1` workers, or if `workers * cfg.batch` — the
    /// slot range the run mints — does not fit the 32-bit owner field
    /// of a lock word (it must stay below `u32::MAX`).
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
        assert!(
            workers < MAX_LANES,
            "pipelined mode supports at most {} workers (one lock lane each)",
            MAX_LANES - 1
        );
        let (space, pc) = (self.space, self.phases);
        // Strided slot pool: worker w owns slots
        // [w * batch, (w + 1) * batch), so slot indices are globally
        // unique while batches overlap. They must fit the 32-bit owner
        // field of a lock word (as a round's `launched < u32::MAX`): a
        // larger slot would bleed into the word's tag bits.
        assert!(
            workers
                .checked_mul(cfg.batch)
                .is_some_and(|slots| slots < u32::MAX as usize),
            "workers * batch = {workers} * {} slots overflow the 32-bit lock owner field",
            cfg.batch
        );

        // Tasks alive anywhere: pending in a shard or drawn and not
        // yet committed. Termination tests this single counter — an
        // empty draw alone is racy (a concurrent batch may still
        // re-queue an abort).
        let live = AtomicUsize::new(ws.len());
        let shards = ShardedWorkSet::new(ws, workers, place);
        let done = AtomicBool::new(false);
        let inflight = AtomicUsize::new(0);
        let counters = Counters::default();
        let completions = AtomicUsize::new(0);
        let base_seed: u64 = rng.random();

        #[cfg(feature = "checker")]
        space.audit().arm(workers == 1);

        // Window flushing is done by whichever worker crosses the
        // boundary, so the controller sits behind a mutex together
        // with the window bookkeeping.
        struct WindowState<'c, C: Controller> {
            ctl: &'c mut C,
            state: ControlState,
            /// The counters as the last flushed window left them.
            last: RoundStats,
            rounds: Vec<RoundStats>,
        }
        let state = ControlState::new(ctl);
        let target = AtomicUsize::new(state.budget);
        let winstate = Mutex::new(WindowState {
            ctl,
            state,
            last: RoundStats::default(),
            rounds: Vec::new(),
        });
        let flush = |st: &mut WindowState<'_, C>| {
            let now = counters.snapshot();
            let rs = RoundStats {
                m: st.state.budget,
                ..now.since(&st.last)
            };
            if rs.launched == 0 {
                return;
            }
            st.last = now;
            // Traces deposited by retired batches form complete tag
            // groups by now (at several workers a mid-batch group may
            // split across two flushes; each part audits on its own).
            #[cfg(feature = "checker")]
            space.audit().drain_window();
            #[cfg(feature = "obs")]
            if let Some(rec) = self.recorder() {
                rec.drain_workers();
            }
            // The control step a round takes.
            let next = self.control_step(st.ctl, &mut st.state, &rs);
            target.store(next, Ordering::Release);
            #[cfg(feature = "obs")]
            if let Some(rec) = self.recorder() {
                rec.window_advance(
                    completions.load(Ordering::Acquire) as u64,
                    inflight.load(Ordering::Acquire) as u64,
                    next as u64,
                );
            }
            st.rounds.push(rs);
        };

        let worker = |w: usize| {
            let mut wrng = StdRng::seed_from_u64(base_seed ^ (w as u64) << 32);
            let (probe, lane) = (self.probe_for(w), w + 1);
            let mut scratch = TaskScratch::default();
            // Nothing to claim or draw: let someone else run.
            let idle = || {
                let t0 = phase::maybe_start(pc);
                std::thread::yield_now();
                phase::maybe_add(pc, Phase::Wait, t0);
            };
            while !done.load(Ordering::Acquire) {
                // Claim up to `batch` in-flight permits against the
                // budget in one RMW (the closure re-reads the target
                // on every retry, so a shrinking budget is honored).
                let mut granted = 0usize;
                let claimed = inflight.fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                    let t = target.load(Ordering::Acquire);
                    if cur >= t {
                        None
                    } else {
                        granted = cfg.batch.min(t - cur);
                        Some(cur + granted)
                    }
                });
                if claimed.is_err() {
                    idle();
                    continue;
                }
                let t0 = phase::maybe_start(pc);
                let batch = shards.draw(w, granted, &mut wrng, self.config().retry_budget);
                phase::maybe_add(pc, Phase::Draw, t0);
                let drawn = batch.len();
                if drawn < granted {
                    // Return the permits the draw could not fill.
                    inflight.fetch_sub(granted - drawn, Ordering::AcqRel);
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
                // This batch's lane tag: locks taken below are
                // stamped with it, die wholesale at the retire bump,
                // and key the fault draw (a retried task re-rolls
                // under a fresh tag).
                let tag = space.lane_tag(lane);
                let mut tally = RoundStats::default();
                let t1 = phase::maybe_start(pc);
                self.run_batch(
                    &mut scratch,
                    w * cfg.batch,
                    lane,
                    tag,
                    batch,
                    probe,
                    &mut tally,
                    |settled| match settled {
                        Settled::Committed(spawned) => {
                            if !spawned.is_empty() {
                                live.fetch_add(spawned.len(), Ordering::AcqRel);
                                shards.spawn(spawned);
                            }
                            // The committed task leaves the system
                            // only after its spawns were counted, so
                            // `live` never transiently reads zero
                            // while work exists.
                            live.fetch_sub(1, Ordering::AcqRel);
                        }
                        Settled::Requeue(entry) => shards.requeue(w, entry),
                        // Dead-lettered: leaving `live` is what lets
                        // the drain terminate.
                        Settled::Retired => {
                            live.fetch_sub(1, Ordering::AcqRel);
                        }
                    },
                );
                counters.add(&tally);
                phase::maybe_add(pc, Phase::Execute, t1);
                // Retire: one lane bump expires every stamp the batch
                // left; no other worker waits for it.
                let t2 = phase::maybe_start(pc);
                space.advance_lane(lane);
                obs_emit!(
                    probe,
                    optpar_obs::EventKind::BatchRetire {
                        worker: w as u32,
                        tag,
                        tasks: drawn as u32,
                    }
                );
                inflight.fetch_sub(drawn, Ordering::AcqRel);
                let fin = completions.fetch_add(drawn, Ordering::AcqRel) + drawn;
                // The worker whose batch crosses a window boundary
                // flushes the window to the controller.
                if (fin - drawn) / cfg.window != fin / cfg.window {
                    let mut st = recover(winstate.lock());
                    flush(&mut st);
                }
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
        // Dispatch on the executor's persistent pool; `workers == 1`
        // runs the claim loop inline.
        match &self.pool {
            Some(pool) => pool.rendezvous(&worker),
            None => worker(0),
        }
        // Flush the final partial window.
        let mut st = recover(winstate.into_inner());
        flush(&mut st);
        // `flush` only drains on a non-empty window; sweep up whatever
        // the last partial window left in the rings.
        #[cfg(feature = "obs")]
        if let Some(rec) = self.recorder() {
            rec.drain_workers();
        }
        #[cfg(feature = "checker")]
        {
            let audit = space.audit();
            audit.drain_window();
            audit.disarm();
        }
        let run = RunStats { rounds: st.rounds };
        debug_assert!(space.check_all_free().is_ok());
        ws.absorb_entries(shards.drain_all());
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::{exec_cfg, PanicOnceOp, RingOp};
    use crate::exec::ExecutorConfig;
    use crate::lock::LockSpace;
    use crate::store::SpecStore;
    use crate::task::{Abort, TaskCtx};
    use optpar_core::control::{FixedController, HybridController};

    #[test]
    fn pipelined_drains_and_serializes() {
        let n = 256;
        let mut b = LockSpace::builder();
        let r = b.region(n);
        let space = b.build();
        let store = SpecStore::filled(r, n, 0i64);
        let op = RingOp { store: &store, n };
        let ex = Executor::new(&op, &space, exec_cfg(4));
        let mut ws = WorkSet::from_vec((0..n).collect::<Vec<_>>());
        let mut ctl = FixedController::new(8);
        let mut rng = StdRng::seed_from_u64(1);
        let run = ex.run_pipelined(
            &mut ws,
            &mut ctl,
            PipelinedConfig {
                window: 32,
                batch: 4,
                max_completions: usize::MAX,
            },
            &mut rng,
        );
        assert!(ws.is_empty());
        assert_eq!(run.total_committed(), n);
        assert!(space.check_all_free().is_ok(), "lock leak detected");
        let mut store = store;
        assert_eq!(store.snapshot().iter().sum::<i64>(), 0);
    }

    #[test]
    fn pipelined_with_adaptive_controller() {
        let n = 512;
        let mut b = LockSpace::builder();
        let r = b.region(n);
        let space = b.build();
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

    /// A slot range past the lock word's 32-bit owner field must be
    /// refused up front, not silently packed into the tag bits.
    #[test]
    #[should_panic(expected = "overflow the 32-bit lock owner field")]
    fn pipelined_rejects_slot_range_past_owner_field() {
        let mut b = LockSpace::builder();
        let r = b.region(1);
        let space = b.build();
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
        let mut b = LockSpace::builder();
        let r = b.region(n);
        let space = b.build();
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
        let mut b = LockSpace::builder();
        let r = b.region(n);
        let space = b.build();
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
        let mut b = LockSpace::builder();
        let r = b.region(n);
        let space = b.build();
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

    /// Window stats carry the same `spawned` / `lock_acquires` totals
    /// round mode reports: a conflict-free chain of `n` one-lock tasks
    /// spawns `n - 1` successors and takes `n` locks.
    #[test]
    fn pipelined_windows_report_spawned_and_lock_acquires() {
        let n = 10;
        let mut b = LockSpace::builder();
        let r = b.region(n);
        let space = b.build();
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
        let mut b = LockSpace::builder();
        let r = b.region(n);
        let space = b.build();
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
        let run = ex.run_pipelined(
            &mut ws,
            &mut ctl,
            PipelinedConfig {
                window: 32,
                batch,
                max_completions: usize::MAX,
            },
            &mut rng,
        );
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
        shards.spawn(vec![99]); // round-robin: lands on shard 0
        let shard = recover(shards.shards[0].lock()).take_entries();
        let spawned = shard.iter().find(|e| e.task == 99).map(|e| e.seq);
        let mut seqs: Vec<u64> = shard.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), shard.len(), "two entries share a stamp");
        assert_eq!(seqs.last().copied(), spawned, "the spawn is the youngest");
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
    /// far past `watchdog_stall` included — hands both the same next
    /// budget step for step, and leaves the stall count it implies.
    #[test]
    fn control_step_is_the_same_for_rounds_and_windows() {
        let space = LockSpace::builder().build();
        let op = ByOrdinal {
            launches: AtomicUsize::new(0),
            aborting: 100..420,
        };
        let cfg = ExecutorConfig {
            watchdog_stall: 2,
            ..exec_cfg(1)
        };
        let ex = Executor::new(&op, &space, cfg);
        fn drive<C: Controller + Send>(
            ex: &Executor<'_, ByOrdinal>,
            op: &ByOrdinal,
            lanes: bool,
            mut ctl: C,
        ) -> Vec<RoundStats> {
            op.launches.store(0, Ordering::Release);
            let mut ws = WorkSet::from_vec((0..1500usize).collect());
            let mut rng = StdRng::seed_from_u64(11);
            let every_batch = PipelinedConfig {
                window: 1,
                batch: 1 << 20,
                max_completions: usize::MAX,
            };
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

    /// Partition-affine placement: every task pinned to one worker
    /// still drains, serializes, and (single contended slot per
    /// placement class) commits conflict-free, because one worker
    /// executes each class sequentially.
    #[test]
    fn placed_run_drains_and_respects_affinity() {
        let n = 256;
        let workers = 4;
        let mut b = LockSpace::builder();
        let r = b.region(n);
        let space = b.build();
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
        let run = ex.run_pipelined_placed(
            &mut ws,
            &mut ctl,
            PipelinedConfig {
                window: 32,
                batch: 4,
                max_completions: usize::MAX,
            },
            &mut rng,
            Some(&place),
        );
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
        let mut b = LockSpace::builder();
        let r = b.region(n);
        let space = b.build();
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
        let run = ex.run_pipelined_placed(
            &mut ws,
            &mut ctl,
            PipelinedConfig {
                window: 16,
                batch: 4,
                max_completions: usize::MAX,
            },
            &mut rng,
            Some(&place),
        );
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
    fn lane_epoch_wraparound_mid_run() {
        // Park lane 1's 24-bit epoch just short of its wrap, then run
        // enough batches that the tag wraps (and sweeps) mid-run.
        let n = 64;
        let mut b = LockSpace::builder();
        let r = b.region(n);
        let space = b.build();
        for _ in 0..((1usize << 24) - 3) {
            space.advance_lane(1);
        }
        let store = SpecStore::filled(r, n, 0i64);
        let op = RingOp { store: &store, n };
        let ex = Executor::new(&op, &space, exec_cfg(1));
        let mut ws = WorkSet::from_vec((0..n).collect::<Vec<_>>());
        let mut ctl = FixedController::new(4);
        let mut rng = StdRng::seed_from_u64(9);
        let run = ex.run_pipelined(
            &mut ws,
            &mut ctl,
            PipelinedConfig {
                window: 8,
                batch: 4,
                max_completions: usize::MAX,
            },
            &mut rng,
        );
        assert!(ws.is_empty());
        assert_eq!(run.total_committed(), n);
        assert!(space.check_all_free().is_ok(), "wrap left a stale lock");
        let mut store = store;
        assert_eq!(store.snapshot().iter().sum::<i64>(), 0);
    }

    #[test]
    fn phase_clock_accumulates_pipelined_phases() {
        let n = 256;
        let mut b = LockSpace::builder();
        let r = b.region(n);
        let space = b.build();
        let store = SpecStore::filled(r, n, 0i64);
        let op = RingOp { store: &store, n };
        let clock = crate::phase::PhaseClock::new();
        let mut ex = Executor::new(&op, &space, exec_cfg(4));
        ex.set_phase_clock(&clock);
        let mut ws = WorkSet::from_vec((0..n).collect::<Vec<_>>());
        let mut ctl = FixedController::new(8);
        let mut rng = StdRng::seed_from_u64(23);
        let run = ex.run_pipelined(
            &mut ws,
            &mut ctl,
            PipelinedConfig {
                window: 32,
                batch: 4,
                max_completions: usize::MAX,
            },
            &mut rng,
        );
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
        let mut b = LockSpace::builder();
        let r = b.region(n);
        let space = b.build();
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
        let run = ex.run_pipelined(
            &mut ws,
            &mut ctl,
            PipelinedConfig {
                window: 16,
                batch: 4,
                max_completions: usize::MAX,
            },
            &mut rng,
        );
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
        assert_eq!(ex.worker_panics(), 0, "the panic never reached the pool");
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
    use crate::exec::tests::exec_cfg;
    use crate::lock::LockSpace;
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
        let mut b = LockSpace::builder();
        let r = b.region(1);
        let space = b.build();
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
