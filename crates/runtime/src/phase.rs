//! Opt-in per-phase wall-clock accounting for the executors.
//!
//! The benchmark (`benchmark/`) attaches a [`PhaseClock`] to an [`Executor`]
//! (via [`Executor::set_phase_clock`]) to split a run's wall-clock
//! into `draw / execute / commit / wait`, where *wait* is barrier
//! rendezvous time in round mode and budget-starved or empty-draw
//! idling in pipelined mode. Detached (the default), the executors
//! take no timestamps at all — the stamp helpers short-circuit on
//! `None` before touching the clock.
//!
//! This is deliberately the **only** runtime module that calls
//! `Instant::now`: `clippy.toml` disallows the syscall everywhere
//! else (the `#![expect]` below is this module's exemption), so the
//! round-critical files instead call
//! the stamp API here, which is inert unless a bench explicitly
//! attached a clock. Stamps are taken per round / per batch, never
//! per task, so the attached cost stays far below the effects being
//! measured.
//!
//! The job service's timing needs go through the same chokepoint:
//! [`Deadline`] and [`Stopwatch`] wrap the clock so `service.rs`
//! stays `Instant`-free under the lint — deadline checks happen at
//! round boundaries, never inside one.
//!
//! [`Executor`]: crate::exec::Executor
//! [`Executor::set_phase_clock`]: crate::exec::Executor::set_phase_clock

#![expect(
    clippy::disallowed_methods,
    reason = "the designated timing module: every runtime clock read goes through here"
)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Which execution phase a measured span is charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Sampling tasks out of the work-set (incl. the work-set lock).
    Draw,
    /// Worker-side task execution (speculation, rollback, re-queue).
    Execute,
    /// Commit machinery: merge, round barriers, window flushes.
    Commit,
    /// Dead time: barrier rendezvous (round mode) or budget-starved /
    /// empty-draw yielding (pipelined mode).
    Wait,
}

/// Thread-safe nanosecond accumulators, one per [`Phase`].
#[derive(Debug, Default)]
pub struct PhaseClock {
    draw: AtomicU64,
    execute: AtomicU64,
    commit: AtomicU64,
    wait: AtomicU64,
}

/// An opaque start-of-span stamp (see [`PhaseClock::start`]).
#[derive(Clone, Copy, Debug)]
pub struct Stamp(Instant);

impl PhaseClock {
    /// A fresh clock with all accumulators at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a start stamp for a span.
    pub fn start() -> Stamp {
        Stamp(Instant::now())
    }

    /// Charge the span since `s` to `phase`.
    pub fn add(&self, phase: Phase, s: Stamp) {
        self.add_ns(phase, span_ns(s));
    }

    /// Charge `ns` nanoseconds to `phase` directly (used for derived
    /// spans like `workers * wall - busy`).
    pub fn add_ns(&self, phase: Phase, ns: u64) {
        self.counter(phase).fetch_add(ns, Ordering::AcqRel);
    }

    fn counter(&self, phase: Phase) -> &AtomicU64 {
        match phase {
            Phase::Draw => &self.draw,
            Phase::Execute => &self.execute,
            Phase::Commit => &self.commit,
            Phase::Wait => &self.wait,
        }
    }

    /// Current totals.
    pub fn snapshot(&self) -> PhaseBreakdown {
        PhaseBreakdown {
            draw_ns: self.draw.load(Ordering::Acquire),
            execute_ns: self.execute.load(Ordering::Acquire),
            commit_ns: self.commit.load(Ordering::Acquire),
            wait_ns: self.wait.load(Ordering::Acquire),
        }
    }
}

/// Nanoseconds elapsed since stamp `s`.
pub fn span_ns(s: Stamp) -> u64 {
    u64::try_from(s.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A wall-clock deadline, checked at round boundaries (never inside a
/// round: the round path is `Instant`-free by clippy, and a round holds
/// locks that a deadline must not interrupt mid-flight).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `d` from now.
    pub fn after(d: std::time::Duration) -> Self {
        Deadline {
            at: Instant::now().checked_add(d).unwrap_or_else(Instant::now),
        }
    }

    /// Has the deadline passed?
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }
}

/// A monotone elapsed-time counter for job latency and watchdog
/// accounting — the service-side sibling of [`Stamp`], kept here so
/// `service.rs` never touches `Instant` directly.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start counting now.
    pub fn started() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Elapsed time since the start.
    pub fn elapsed(&self) -> std::time::Duration {
        self.start.elapsed()
    }
}

/// Stamp helper for an optional clock: `None` clock, no syscall.
#[inline]
pub(crate) fn maybe_start(pc: Option<&PhaseClock>) -> Option<Stamp> {
    pc.map(|_| PhaseClock::start())
}

/// Charge helper for an optional clock/stamp pair.
#[inline]
pub(crate) fn maybe_add(pc: Option<&PhaseClock>, phase: Phase, s: Option<Stamp>) {
    if let (Some(pc), Some(s)) = (pc, s) {
        pc.add(phase, s);
    }
}

/// Accumulated per-phase totals, in nanoseconds of thread time (the
/// execute/wait phases sum across workers, so totals can exceed the
/// run's wall-clock).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Work-set sampling time.
    pub draw_ns: u64,
    /// Worker busy time executing tasks.
    pub execute_ns: u64,
    /// Commit/merge/flush machinery time.
    pub commit_ns: u64,
    /// Barrier or window dead time.
    pub wait_ns: u64,
}

impl PhaseBreakdown {
    /// Sum of all phases.
    pub fn total_ns(&self) -> u64 {
        self.draw_ns + self.execute_ns + self.commit_ns + self.wait_ns
    }

    /// Fraction of the total charged to `phase` (0.0 on an empty
    /// clock).
    pub fn share(&self, phase: Phase) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            return 0.0;
        }
        let part = match phase {
            Phase::Draw => self.draw_ns,
            Phase::Execute => self.execute_ns,
            Phase::Commit => self.commit_ns,
            Phase::Wait => self.wait_ns,
        };
        part as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_into_the_right_phase() {
        let pc = PhaseClock::new();
        let s = PhaseClock::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        pc.add(Phase::Draw, s);
        pc.add_ns(Phase::Wait, 500);
        let snap = pc.snapshot();
        assert!(snap.draw_ns >= 2_000_000, "slept 2ms, got {}", snap.draw_ns);
        assert_eq!(snap.wait_ns, 500);
        assert_eq!(snap.execute_ns, 0);
        assert_eq!(snap.commit_ns, 0);
        assert_eq!(snap.total_ns(), snap.draw_ns + 500);
        assert!(snap.share(Phase::Draw) > 0.99);
    }

    #[test]
    fn empty_clock_has_zero_shares_not_nan() {
        let snap = PhaseClock::new().snapshot();
        assert_eq!(snap.total_ns(), 0);
        assert_eq!(snap.share(Phase::Wait), 0.0);
    }

    #[test]
    fn deadline_expires_and_never_overflows() {
        let d = Deadline::after(std::time::Duration::ZERO);
        assert!(d.expired());
        let far = Deadline::after(std::time::Duration::from_secs(3600));
        assert!(!far.expired());
        // An overflowing deadline degrades to "already expired", not
        // a panic.
        let huge = Deadline::after(std::time::Duration::from_secs(u64::MAX));
        let _ = huge.expired();
    }

    #[test]
    fn stopwatch_is_monotone() {
        let sw = Stopwatch::started();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(sw.elapsed() >= std::time::Duration::from_millis(2));
    }

    #[test]
    fn detached_helpers_are_inert() {
        let s = maybe_start(None);
        assert!(s.is_none());
        maybe_add(None, Phase::Execute, s); // must not panic
        let pc = PhaseClock::new();
        let s = maybe_start(Some(&pc));
        maybe_add(Some(&pc), Phase::Execute, s);
        assert!(pc.snapshot().execute_ns > 0 || pc.snapshot().execute_ns == 0);
    }
}
