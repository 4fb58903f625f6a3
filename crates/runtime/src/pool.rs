//! A persistent worker pool: threads are created once per
//! [`crate::exec::Executor`] lifetime and parked between rounds.
//!
//! The round-synchronous executor used to spawn fresh OS threads via
//! `std::thread::scope` every round; at small round sizes (`m ≤ 64`)
//! thread creation dominated the round itself. [`WorkerPool`] amortizes
//! that cost: [`WorkerPool::run`] publishes one type-erased job
//! pointer, wakes the parked workers, and blocks until every worker
//! has finished the job — a *rendezvous*, not a fire-and-forget
//! submit.
//!
//! ## Soundness of the lifetime erasure
//!
//! `run` smuggles a `&dyn Fn(usize)` with an arbitrary caller lifetime
//! into the (necessarily `'static`) worker threads as a raw pointer.
//! This is sound because `run` does not return until `remaining == 0`,
//! i.e. until every worker has both finished calling the job and
//! stopped holding the pointer; the borrow therefore strictly outlives
//! every dereference, exactly as with `std::thread::scope`.
//!
//! ## Fault tolerance
//!
//! A panic inside a job is caught on the worker (so the pool survives
//! and the round's rendezvous still completes), counted in
//! [`WorkerPool::job_panics`], and re-raised on the submitting thread.
//! The executor's per-task containment means operator panics never
//! reach this layer; a nonzero count here indicates a panic in the
//! runtime itself. Teardown is bounded: [`WorkerPool::shutdown`] waits
//! at most a caller-chosen timeout for workers to reach the shutdown
//! barrier, then detaches (and names) any worker that missed it
//! instead of hanging the owner forever.

use crate::faults::recover;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default bound on how long [`WorkerPool`]'s `Drop` waits for the
/// shutdown barrier before detaching wedged workers.
const DEFAULT_SHUTDOWN_TIMEOUT: Duration = Duration::from_secs(5);

/// The pool has been (or is being) shut down: [`WorkerPool::run`]
/// refused to publish, or bailed out of a rendezvous no worker can
/// complete. No part of the job ran on any worker that had already
/// exited; the caller may rerun the job elsewhere (e.g. inline, or on
/// a replacement pool).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolRetired;

impl std::fmt::Display for PoolRetired {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker pool retired (shutdown) before the job could run")
    }
}

impl std::error::Error for PoolRetired {}

/// Type-erased job pointer shipped to workers. The pointee is only
/// dereferenced while [`WorkerPool::run`] is blocked, which keeps the
/// erased borrow alive.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from many threads are
// fine) and outlives every dereference (see module docs), so moving
// the pointer across threads is safe.
unsafe impl Send for Job {}

struct PoolState {
    /// Bumped once per submitted job; workers compare against their
    /// last-seen value so a job runs exactly once per worker.
    seq: u64,
    job: Option<Job>,
    /// Workers still executing the current job.
    remaining: usize,
    /// A worker's job invocation panicked; re-raised by `run`.
    panicked: bool,
    /// Total job invocations that panicked over the pool's lifetime.
    job_panics: u64,
    /// Worker threads that have not yet exited their loop.
    alive: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Workers park here between rounds.
    work_cv: Condvar,
    /// `run` parks here until the rendezvous completes.
    done_cv: Condvar,
    /// `exited[w]` flips to true as worker `w` leaves its loop — the
    /// signal that joining its handle is bounded (the thread function
    /// has returned or is in its final instructions).
    exited: Box<[AtomicBool]>,
}

/// A fixed-size pool of parked worker threads (see module docs).
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: usize,
    /// `None` once the worker has been joined or detached. Behind a
    /// mutex so [`WorkerPool::shutdown`] can take `&self` (callable
    /// while another thread is blocked in [`WorkerPool::run`]).
    handles: Mutex<Vec<Option<JoinHandle<()>>>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Spawn `workers` (≥ 1) threads, immediately parked.
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "a pool needs at least one worker");
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                seq: 0,
                job: None,
                remaining: 0,
                panicked: false,
                job_panics: 0,
                alive: workers,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            exited: (0..workers).map(|_| AtomicBool::new(false)).collect(),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let h = std::thread::Builder::new()
                    .name(format!("optpar-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w));
                match h {
                    Ok(h) => Some(h),
                    // PANIC-OK: spawn failure happens at pool construction,
                    // before any round starts; there is no partial pool to save.
                    Err(e) => panic!("failed to spawn pool worker {w}: {e}"),
                }
            })
            .collect();
        WorkerPool {
            shared,
            workers,
            handles: Mutex::new(handles),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Worker threads still running their loop. Stays at
    /// [`WorkerPool::workers`] for the pool's whole life (job panics
    /// are contained on the worker); drops to 0 across a clean
    /// shutdown.
    pub fn live_workers(&self) -> usize {
        recover(self.shared.state.lock()).alive
    }

    /// Total job invocations that panicked since the pool was built.
    /// The executor contains operator panics per task, so a nonzero
    /// count here means the *runtime* panicked inside a job.
    pub fn job_panics(&self) -> u64 {
        recover(self.shared.state.lock()).job_panics
    }

    /// Run `job(w)` once on every worker `w ∈ 0..workers`, blocking
    /// until all invocations return (a rendezvous). Concurrent callers
    /// are serialized.
    ///
    /// # Errors
    /// Returns [`PoolRetired`] — without running the job on any
    /// worker — if the pool is shutting down or any worker has already
    /// exited. A rendezvous published while every worker was alive
    /// always completes (a published-but-unseen job takes priority
    /// over the shutdown flag in the worker loop), so a `Ok(())` means
    /// the job ran on all `workers` threads.
    ///
    /// # Panics
    /// Re-raises (as a fresh panic) if any worker's invocation
    /// panicked.
    pub fn run(&self, job: &(dyn Fn(usize) + Sync)) -> Result<(), PoolRetired> {
        let ptr: *const (dyn Fn(usize) + Sync) = job;
        // SAFETY: lifetime erasure only — same fat-pointer layout. The
        // pointee outlives every dereference because this function
        // blocks until all workers are done with it (module docs).
        let job = Job(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync),
                *const (dyn Fn(usize) + Sync + 'static),
            >(ptr)
        });
        let mut st = recover(self.shared.state.lock());
        // Serialize with any in-flight submission. Bail if shutdown
        // arrives while queued: the in-flight job may never finish
        // (that is exactly why a supervisor retires a pool), and
        // exiting workers only notify `done_cv` — they will never
        // clear `job`.
        while st.job.is_some() {
            if st.shutdown {
                return Err(PoolRetired);
            }
            st = recover(self.shared.done_cv.wait(st));
        }
        // Refuse to publish into a retired (or retiring) pool: with
        // fewer than `workers` threads alive, `remaining` could never
        // reach 0 and this rendezvous would block forever.
        if st.shutdown || st.alive < self.workers {
            return Err(PoolRetired);
        }
        st.job = Some(job);
        st.seq += 1;
        st.remaining = self.workers;
        st.panicked = false;
        drop(st);
        self.shared.work_cv.notify_all();

        let mut st = recover(self.shared.state.lock());
        while st.remaining > 0 {
            // Defensive unhang: every thread has left its loop, so no
            // one can decrement `remaining` — and, equally, no one can
            // still be holding the erased job pointer, so returning is
            // sound. Unreachable given the publish-time alive check
            // and the job-before-shutdown priority in `worker_loop`,
            // but a hang here would wedge the whole service.
            if st.alive == 0 {
                st.job = None;
                drop(st);
                self.shared.done_cv.notify_all();
                return Err(PoolRetired);
            }
            st = recover(self.shared.done_cv.wait(st));
        }
        st.job = None;
        let panicked = st.panicked;
        drop(st);
        // Wake a queued submitter (if any) now that `job` is cleared.
        self.shared.done_cv.notify_all();
        if panicked {
            // PANIC-OK: re-raise on the submitter thread a panic that escaped
            // a job's own containment; swallowing it would corrupt the round.
            panic!("worker pool job panicked");
        }
        Ok(())
    }

    /// Tear the pool down, waiting at most `timeout` for every worker
    /// to reach the shutdown barrier. Workers that made it are joined;
    /// any that did not (wedged in a non-terminating job) are named on
    /// stderr, detached, and returned by index. Idempotent: a second
    /// call finds no handles left and returns an empty list.
    pub fn shutdown(&self, timeout: Duration) -> Vec<usize> {
        {
            let mut st = recover(self.shared.state.lock());
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        // Submitters queued in `run`'s serialize wait park on `done_cv`;
        // wake them so they observe the flag and bail with
        // [`PoolRetired`] instead of waiting on a job that may never
        // clear.
        self.shared.done_cv.notify_all();

        let deadline = Instant::now() + timeout;
        let mut st = recover(self.shared.state.lock());
        while st.alive > 0 {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (g, _timed_out) = recover(self.shared.done_cv.wait_timeout(st, deadline - now));
            st = g;
        }
        drop(st);

        // Partition the slots under the lock, but join outside it: a join —
        // even a bounded one — made while holding `handles` would stall any
        // concurrent `shutdown` (or the pool's `Drop`) behind this thread's
        // rendezvous with the worker.
        let mut wedged = Vec::new();
        let mut to_join = Vec::new();
        {
            let mut handles = recover(self.handles.lock());
            for (w, slot) in handles.iter_mut().enumerate() {
                let Some(h) = slot.take() else { continue };
                if self.shared.exited[w].load(Ordering::Acquire) {
                    // The worker has left its loop; the join is bounded.
                    to_join.push(h);
                } else {
                    eprintln!(
                        "optpar-worker-{w} missed the shutdown barrier after {timeout:?}; detaching"
                    );
                    wedged.push(w);
                    drop(h); // detach
                }
            }
        }
        for h in to_join {
            let _ = h.join();
        }
        wedged
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let _ = self.shutdown(DEFAULT_SHUTDOWN_TIMEOUT);
    }
}

fn worker_loop(shared: &Shared, w: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = recover(shared.state.lock());
            loop {
                // A published-but-unseen job takes priority over the
                // shutdown flag: `run` has already counted this worker
                // into the rendezvous, so exiting here would strand the
                // submitter forever. Shutdown is honored once no unseen
                // job is pending.
                if st.seq != seen {
                    if let Some(job) = st.job {
                        seen = st.seq;
                        break job;
                    }
                }
                if st.shutdown {
                    st.alive -= 1;
                    drop(st);
                    shared.exited[w].store(true, Ordering::Release);
                    shared.done_cv.notify_all();
                    return;
                }
                st = recover(shared.work_cv.wait(st));
            }
        };
        // SAFETY: `run` keeps the pointee alive until the rendezvous
        // below completes (module docs).
        let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(w) }));
        let mut st = recover(shared.state.lock());
        if outcome.is_err() {
            st.panicked = true;
            st.job_panics += 1;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_worker_runs_the_job_once() {
        let pool = WorkerPool::new(4);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        let job = |w: usize| {
            hits[w].fetch_add(1, Ordering::Relaxed);
        };
        pool.run(&job).expect("live pool");
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn reuse_across_many_rounds() {
        let pool = WorkerPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..100 {
            let job = |_w: usize| {
                total.fetch_add(1, Ordering::Relaxed);
            };
            pool.run(&job).expect("live pool");
        }
        assert_eq!(total.load(Ordering::Relaxed), 300);
    }

    #[test]
    fn run_is_a_rendezvous() {
        // Every borrow made by the job must be dead when run() returns:
        // mutate a local through the job, then read it directly.
        let pool = WorkerPool::new(8);
        let sum = AtomicUsize::new(0);
        let job = |w: usize| {
            sum.fetch_add(w + 1, Ordering::Relaxed);
        };
        pool.run(&job).expect("live pool");
        assert_eq!(sum.load(Ordering::Relaxed), (1..=8).sum::<usize>());
    }

    #[test]
    fn pool_survives_a_panicking_job() {
        let pool = WorkerPool::new(2);
        let bad = |w: usize| {
            if w == 0 {
                panic!("boom");
            }
        };
        let caught = catch_unwind(AssertUnwindSafe(|| pool.run(&bad)));
        assert!(caught.is_err(), "panic must propagate to the submitter");
        assert_eq!(pool.job_panics(), 1);
        assert_eq!(pool.live_workers(), 2, "the worker thread itself survives");
        // The pool must still be usable afterwards.
        let ok = AtomicUsize::new(0);
        let good = |_w: usize| {
            ok.fetch_add(1, Ordering::Relaxed);
        };
        pool.run(&good).expect("live pool");
        assert_eq!(ok.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn drop_joins_parked_workers() {
        let pool = WorkerPool::new(4);
        drop(pool); // must not hang
    }

    #[test]
    fn clean_shutdown_joins_everyone() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.live_workers(), 4);
        let wedged = pool.shutdown(Duration::from_secs(5));
        assert!(wedged.is_empty());
        assert_eq!(pool.live_workers(), 0);
        // Idempotent.
        assert!(pool.shutdown(Duration::from_secs(5)).is_empty());
    }

    #[test]
    fn bounded_shutdown_detaches_a_wedged_worker() {
        let pool = WorkerPool::new(2);
        let release = Arc::new(AtomicBool::new(false));
        let wedged_release = Arc::clone(&release);
        // Worker 0 spins until released — it will miss a short
        // shutdown deadline; worker 1 finishes immediately and parks.
        let job = move |w: usize| {
            if w == 0 {
                while !wedged_release.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }
        };
        std::thread::scope(|s| {
            let pool_ref = &pool;
            let job_ref = &job;
            // run() blocks on the wedged worker, so submit from a
            // helper thread.
            let submit = s.spawn(move || pool_ref.run(job_ref));
            // Wait until only the wedged worker is still in the job.
            loop {
                if recover(pool_ref.shared.state.lock()).remaining == 1 {
                    break;
                }
                std::thread::yield_now();
            }
            let wedged = pool_ref.shutdown(Duration::from_millis(50));
            assert_eq!(wedged, vec![0], "the spinning worker is named");
            assert_eq!(
                pool_ref.live_workers(),
                1,
                "the parked worker exited; the wedged one is detached but alive"
            );
            // Release the wedge so the rendezvous (and the detached
            // worker) can finish and the scope can close.
            release.store(true, Ordering::Release);
            let _ = submit.join();
        });
        // The detached worker sees the shutdown flag after its job and
        // exits on its own; wait for it so nothing leaks past the test.
        while pool.live_workers() > 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn concurrent_shutdown_calls_are_idempotent() {
        // Two racing shutdowns: both must return, exactly one joins
        // each handle, no worker is reported wedged, and a third call
        // on the drained pool is a no-op.
        let pool = WorkerPool::new(3);
        std::thread::scope(|s| {
            let a = s.spawn(|| pool.shutdown(Duration::from_secs(5)));
            let b = s.spawn(|| pool.shutdown(Duration::from_secs(5)));
            let (wa, wb) = (a.join().unwrap(), b.join().unwrap());
            assert!(wa.is_empty() && wb.is_empty(), "{wa:?} {wb:?}");
        });
        assert_eq!(pool.live_workers(), 0);
        assert!(pool.shutdown(Duration::from_millis(1)).is_empty());
    }

    #[test]
    fn shutdown_after_publish_still_runs_the_job() {
        // The worker loop gives a published-but-unseen job priority
        // over the shutdown flag: once run() has published, a racing
        // shutdown must not strand the submitter or skip workers.
        for _ in 0..20 {
            let pool = WorkerPool::new(2);
            let hits = AtomicUsize::new(0);
            std::thread::scope(|s| {
                let pool_ref = &pool;
                let hits_ref = &hits;
                let submit = s.spawn(move || {
                    let job = |_w: usize| {
                        // Give shutdown a window while workers are
                        // mid-job.
                        std::thread::sleep(Duration::from_micros(200));
                        hits_ref.fetch_add(1, Ordering::Relaxed);
                    };
                    pool_ref.run(&job).expect("live pool");
                });
                // Wait for the publish, then race the teardown. (If
                // this thread was descheduled across the whole job,
                // the publish is gone again: stop waiting for it.)
                while recover(pool_ref.shared.state.lock()).job.is_none() && !submit.is_finished() {
                    std::thread::yield_now();
                }
                let wedged = pool_ref.shutdown(Duration::from_secs(5));
                assert!(wedged.is_empty(), "{wedged:?}");
                submit.join().unwrap();
            });
            assert_eq!(
                hits.load(Ordering::Relaxed),
                2,
                "every worker ran the published job before honoring shutdown"
            );
            assert_eq!(pool.live_workers(), 0);
        }
    }

    #[test]
    fn replacement_pool_works_after_a_timed_out_detach() {
        // The service's wedge-recovery path: a timed-out shutdown
        // detaches a stuck worker, and a fresh pool swapped in its
        // place must be fully functional while the old one drains.
        let pool = WorkerPool::new(2);
        let release = Arc::new(AtomicBool::new(false));
        let wedged_release = Arc::clone(&release);
        let job = move |w: usize| {
            if w == 0 {
                while !wedged_release.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }
        };
        std::thread::scope(|s| {
            let pool_ref = &pool;
            let job_ref = &job;
            let submit = s.spawn(move || pool_ref.run(job_ref));
            loop {
                if recover(pool_ref.shared.state.lock()).remaining == 1 {
                    break;
                }
                std::thread::yield_now();
            }
            let wedged = pool_ref.shutdown(Duration::from_millis(20));
            assert_eq!(wedged, vec![0]);
            // The replacement accepts and completes work immediately,
            // while the old pool still holds its wedged task.
            let fresh = WorkerPool::new(2);
            let done = AtomicUsize::new(0);
            let ok = |_w: usize| {
                done.fetch_add(1, Ordering::Relaxed);
            };
            fresh.run(&ok).expect("fresh pool is live");
            assert_eq!(done.load(Ordering::Relaxed), 2);
            assert_eq!(fresh.live_workers(), 2);
            assert!(fresh.shutdown(Duration::from_secs(5)).is_empty());
            // A second timed-out shutdown on the old pool is a no-op:
            // the wedged handle is already detached, not re-reported.
            assert!(pool_ref.shutdown(Duration::from_millis(5)).is_empty());
            release.store(true, Ordering::Release);
            let _ = submit.join();
        });
        while pool.live_workers() > 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn run_on_a_shut_down_pool_returns_retired_promptly() {
        // The service pool-swap race: a lane that cloned the pool Arc
        // just before the supervisor retired it must get a prompt
        // error, not a forever-blocked rendezvous against exited
        // workers.
        let pool = WorkerPool::new(2);
        assert!(pool.shutdown(Duration::from_secs(5)).is_empty());
        assert_eq!(pool.live_workers(), 0);
        let ran = AtomicUsize::new(0);
        let job = |_w: usize| {
            ran.fetch_add(1, Ordering::Relaxed);
        };
        assert_eq!(pool.run(&job), Err(PoolRetired));
        assert_eq!(ran.load(Ordering::Relaxed), 0, "the job never started");
    }

    #[test]
    fn run_racing_shutdown_either_completes_or_reports_retired() {
        // Hammer the publish/shutdown race: every submission must
        // either run on all workers or fail with PoolRetired — never
        // hang, never run partially.
        for _ in 0..50 {
            let pool = WorkerPool::new(2);
            let hits = AtomicUsize::new(0);
            std::thread::scope(|s| {
                let pool_ref = &pool;
                let hits_ref = &hits;
                let submit = s.spawn(move || {
                    let job = |_w: usize| {
                        hits_ref.fetch_add(1, Ordering::Relaxed);
                    };
                    pool_ref.run(&job)
                });
                let wedged = pool_ref.shutdown(Duration::from_secs(5));
                assert!(wedged.is_empty(), "{wedged:?}");
                let outcome = submit.join().unwrap();
                let ran = hits.load(Ordering::Relaxed);
                match outcome {
                    Ok(()) => assert_eq!(ran, 2, "accepted jobs run everywhere"),
                    Err(PoolRetired) => assert_eq!(ran, 0, "rejected jobs run nowhere"),
                }
            });
        }
    }

    #[test]
    fn queued_submitter_behind_a_wedged_job_is_released_by_shutdown() {
        // Lane A's job wedges worker 0; lane B queues behind it in
        // run()'s serialize wait. Retiring the pool must release B with
        // PoolRetired (so it can rerun elsewhere) instead of leaving it
        // parked on a job slot that will never clear.
        let pool = WorkerPool::new(2);
        let release = Arc::new(AtomicBool::new(false));
        let wedged_release = Arc::clone(&release);
        let wedge = move |w: usize| {
            if w == 0 {
                while !wedged_release.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }
        };
        std::thread::scope(|s| {
            let pool_ref = &pool;
            let wedge_ref = &wedge;
            let lane_a = s.spawn(move || pool_ref.run(wedge_ref));
            // Wait until only the wedged worker is still in the job, so
            // lane B is guaranteed to queue behind a held slot.
            loop {
                if recover(pool_ref.shared.state.lock()).remaining == 1 {
                    break;
                }
                std::thread::yield_now();
            }
            let lane_b = s.spawn(move || {
                let noop = |_w: usize| {};
                pool_ref.run(&noop)
            });
            let wedged = pool_ref.shutdown(Duration::from_millis(50));
            assert_eq!(wedged, vec![0], "the spinning worker is detached");
            assert_eq!(
                lane_b.join().unwrap(),
                Err(PoolRetired),
                "the queued submitter is released, not stranded"
            );
            release.store(true, Ordering::Release);
            let _ = lane_a.join();
        });
        while pool.live_workers() > 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn concurrent_submitters_serialize() {
        let pool = WorkerPool::new(2);
        let count = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = &pool;
                let count = &count;
                s.spawn(move || {
                    for _ in 0..25 {
                        let job = |_w: usize| {
                            count.fetch_add(1, Ordering::Relaxed);
                        };
                        pool.run(&job).expect("live pool");
                    }
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 4 * 25 * 2);
    }
}
