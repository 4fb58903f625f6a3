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
//! That is the pool's whole life: **publish → wake → rendezvous**, any
//! number of times, then **drop**. There is no way to retire a pool
//! while it is in use: `Drop` takes `&mut self`, so no `run` is in
//! flight when the flag goes up, every worker is parked, and the join
//! is bounded. A pool therefore never refuses a job and a published
//! job always runs on every worker.
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
//! runtime itself.

use crate::faults::recover;
use std::convert::Infallible;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

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
    /// Raised by `Drop` only.
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Workers park here between rounds.
    work_cv: Condvar,
    /// `run` parks here until the rendezvous completes.
    done_cv: Condvar,
}

/// A fixed-size pool of parked worker threads (see module docs).
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
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
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let h = std::thread::Builder::new()
                    .name(format!("optpar-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w));
                match h {
                    Ok(h) => h,
                    // PANIC-OK: spawn failure happens at pool construction,
                    // before any round starts; there is no partial pool to save.
                    Err(e) => panic!("failed to spawn pool worker {w}: {e}"),
                }
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
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
    /// This is the in-crate `rendezvous` behind the `Result` the frozen
    /// `benchmark/src/probes.rs` calls `.expect()` on. The error type
    /// says what is true — a pool cannot refuse a job — and the next
    /// PR that may edit `benchmark/` drops the wrapper (ROADMAP item
    /// 4(b)).
    ///
    /// # Panics
    /// Re-raises (as a fresh panic) if any worker's invocation
    /// panicked.
    pub fn run(&self, job: &(dyn Fn(usize) + Sync)) -> Result<(), Infallible> {
        self.rendezvous(job);
        Ok(())
    }

    /// [`WorkerPool::run`] as the runtime calls it: publish the job,
    /// wake the workers, wait for all of them; nothing to return.
    pub(crate) fn rendezvous(&self, job: &(dyn Fn(usize) + Sync)) {
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
        // Serialize with any in-flight submission.
        while st.job.is_some() {
            st = recover(self.shared.done_cv.wait(st));
        }
        st.job = Some(job);
        st.seq += 1;
        st.remaining = self.workers();
        st.panicked = false;
        drop(st);
        self.shared.work_cv.notify_all();

        let mut st = recover(self.shared.state.lock());
        while st.remaining > 0 {
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
    }
}

impl Drop for WorkerPool {
    /// Raise the flag, wake everyone, join. `&mut self` means no
    /// rendezvous is in flight, so every worker is parked (or about to
    /// park) and sees the flag at its next wake.
    fn drop(&mut self) {
        recover(self.shared.state.lock()).shutdown = true;
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, w: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = recover(shared.state.lock());
            loop {
                if st.seq != seen {
                    if let Some(job) = st.job {
                        seen = st.seq;
                        break job;
                    }
                }
                if st.shutdown {
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
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// Long enough for fresh or just-released threads to park on their
    /// condvar, so the test reaches the wake-up it means to check
    /// (parking is not observable without instrumenting the runtime).
    pub(crate) const SETTLE: Duration = Duration::from_millis(20);

    /// The `within` bound of the wrapped tests: they take 4–43 ms.
    pub(crate) const BOUND: Duration = Duration::from_secs(10);

    /// Run `body` on a thread and fail by `name` if it has not returned
    /// within `bound`. A broken wait loop hangs instead of failing;
    /// this makes the hang a named failure (DESIGN.md §17). The thread
    /// is detached, as a hung body cannot be joined. A panic in `body`
    /// is re-raised here.
    pub(crate) fn within(bound: Duration, name: &str, body: impl FnOnce() + Send + 'static) {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(catch_unwind(AssertUnwindSafe(body)));
        });
        match rx.recv_timeout(bound) {
            Ok(Ok(())) => {}
            Ok(Err(payload)) => std::panic::resume_unwind(payload),
            Err(_) => panic!("{name} did not return within {bound:?}: a wait loop hangs"),
        }
    }

    #[test]
    fn every_worker_runs_the_job_once() {
        within(BOUND, "every_worker_runs_the_job_once", || {
            let pool = WorkerPool::new(4);
            let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
            let job = |w: usize| {
                hits[w].fetch_add(1, Ordering::AcqRel);
            };
            // Workers parked: only the publish's wake can start them.
            std::thread::sleep(SETTLE);
            pool.run(&job).expect("live pool");
            for h in &hits {
                assert_eq!(h.load(Ordering::Acquire), 1);
            }
        });
    }

    #[test]
    fn reuse_across_many_rounds() {
        let pool = WorkerPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..100 {
            let job = |_w: usize| {
                total.fetch_add(1, Ordering::AcqRel);
            };
            pool.run(&job).expect("live pool");
        }
        assert_eq!(total.load(Ordering::Acquire), 300);
    }

    #[test]
    fn run_is_a_rendezvous() {
        // Every borrow made by the job must be dead when run() returns:
        // mutate a local through the job, then read it directly.
        let pool = WorkerPool::new(8);
        let sum = AtomicUsize::new(0);
        let job = |w: usize| {
            sum.fetch_add(w + 1, Ordering::AcqRel);
        };
        pool.run(&job).expect("live pool");
        assert_eq!(sum.load(Ordering::Acquire), (1..=8).sum::<usize>());
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
        // The pool must still be usable afterwards.
        let ok = AtomicUsize::new(0);
        let good = |_w: usize| {
            ok.fetch_add(1, Ordering::AcqRel);
        };
        pool.run(&good).expect("live pool");
        assert_eq!(ok.load(Ordering::Acquire), 2);
    }

    #[test]
    fn drop_joins_parked_workers() {
        within(BOUND, "drop_joins_parked_workers", || {
            let pool = WorkerPool::new(4);
            // Workers parked: only the flag's wake can release them.
            std::thread::sleep(SETTLE);
            drop(pool);
        });
    }

    #[test]
    fn drop_right_after_a_reraised_job_panic_joins_every_worker() {
        // The rendezvous completes before `run` re-raises, so even on
        // the unwind path `Drop` finds every worker parked.
        let pool = WorkerPool::new(4);
        let shared = Arc::clone(&pool.shared);
        let caught = catch_unwind(AssertUnwindSafe(move || {
            let _ = pool.run(&|w| {
                if w % 2 == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(caught.is_err(), "the pool was dropped by the unwind");
        assert_eq!(recover(shared.state.lock()).job_panics, 2);
        assert_eq!(Arc::strong_count(&shared), 1, "every worker was joined");
    }

    #[test]
    fn concurrent_submitters_serialize() {
        within(BOUND, "concurrent_submitters_serialize", || {
            let pool = WorkerPool::new(2);
            let count = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let pool = &pool;
                    let count = &count;
                    s.spawn(move || {
                        for _ in 0..25 {
                            let job = |_w: usize| {
                                count.fetch_add(1, Ordering::AcqRel);
                            };
                            pool.run(&job).expect("live pool");
                        }
                    });
                }
            });
            assert_eq!(count.load(Ordering::Acquire), 4 * 25 * 2);
        });
    }
}
