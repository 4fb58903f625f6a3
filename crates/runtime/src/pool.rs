//! Lane fan-out: [`WorkerPool::run`] calls a job once per worker index
//! and returns when every call has returned.
//!
//! A pipelined drain ([`crate::pipelined`]) runs its lanes through it,
//! once per drain. `new` spawns nothing; `run` calls `job(0)` on the
//! caller and the other indices on threads spawned with
//! [`std::thread::scope`], so the job may borrow from the caller.

use std::convert::Infallible;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::thread;

/// A worker count to fan a job out to (see module docs).
#[derive(Debug)]
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// A fan-out over `workers` (≥ 1) indices. Spawns nothing.
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "a pool needs at least one worker");
        WorkerPool { workers }
    }

    /// Call `job(w)` once for every `w ∈ 0..workers`: `job(0)` on this
    /// thread, the others on scoped threads named `optpar-worker-{w}`
    /// (none at one worker). The `Result` is for the frozen
    /// `benchmark/src/probes.rs`, which `.expect()`s it; it goes with
    /// ROADMAP item 5(b).
    ///
    /// # Panics
    /// Once every call has returned, with the lowest panicking index's
    /// own payload; or if a thread cannot be spawned.
    #[expect(
        clippy::disallowed_types,
        clippy::panic,
        reason = "a drain's lanes are one of the two scoped spawn points, and a drain \
                  cannot run short of the lanes it was built for"
    )]
    pub fn run(&self, job: &(dyn Fn(usize) + Sync)) -> Result<(), Infallible> {
        let panicked = thread::scope(|s| {
            let lanes: Vec<_> = (1..self.workers)
                .map(|w| {
                    thread::Builder::new()
                        .name(format!("optpar-worker-{w}"))
                        .spawn_scoped(s, move || job(w))
                        .unwrap_or_else(|e| panic!("failed to spawn lane {w}: {e}"))
                })
                .collect();
            let own = catch_unwind(AssertUnwindSafe(|| job(0))).err();
            // Join every lane, keeping the first payload.
            lanes
                .into_iter()
                .map(|lane| lane.join().err())
                .fold(own, Option::or)
        });
        match panicked {
            Some(payload) => resume_unwind(payload),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::panic_detail;
    use crate::watchdog::SETTLE;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn every_worker_runs_the_job_once() {
        for workers in [1, 4] {
            let caller = thread::current().id();
            // (index, the name of its thread if that is not the caller)
            let ran = Mutex::new(Vec::new());
            let job = |w: usize| {
                let me = thread::current();
                let name = (me.id() != caller).then(|| me.name().map(str::to_owned));
                ran.lock().unwrap().push((w, name));
            };
            WorkerPool::new(workers).run(&job).expect("infallible");
            let mut ran = ran.into_inner().unwrap();
            ran.sort();
            let want: Vec<_> = (0..workers)
                .map(|w| (w, (w > 0).then(|| Some(format!("optpar-worker-{w}")))))
                .collect();
            assert_eq!(ran, want, "index 0 on the caller, the rest on named lanes");
        }
    }

    #[test]
    fn run_is_a_rendezvous() {
        // Every borrow made by the job is dead when run() returns.
        let mut sum = AtomicUsize::new(0);
        let job = |w: usize| {
            sum.fetch_add(w + 1, Ordering::AcqRel);
        };
        WorkerPool::new(8).run(&job).expect("infallible");
        assert_eq!(*sum.get_mut(), (1..=8).sum::<usize>());
    }

    #[test]
    fn a_panicking_index_reraises_its_own_payload_after_the_others_return() {
        // Index 0 panics on the caller, index 2 on a spawned lane.
        for bad in [0, 2] {
            let returned = AtomicUsize::new(0);
            let job = |w: usize| {
                assert_ne!(w, bad, "lane {w} blew up");
                thread::sleep(SETTLE);
                returned.fetch_add(1, Ordering::AcqRel);
            };
            let caught = catch_unwind(AssertUnwindSafe(|| WorkerPool::new(4).run(&job)));
            let detail = panic_detail(caught.expect_err("re-raised").as_ref());
            assert!(detail.contains(&format!("lane {bad} blew up")), "{detail}");
            assert_eq!(returned.load(Ordering::Acquire), 3, "the others returned");
        }
    }
}
