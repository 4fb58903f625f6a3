//! Execution statistics: the measurements the controller consumes and
//! the experiment harness reports.

/// Statistics of one execution round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Allocation requested by the controller for this round.
    pub m: usize,
    /// Tasks actually launched (`min(m, workset)`).
    pub launched: usize,
    /// Tasks that committed.
    pub committed: usize,
    /// Tasks that aborted (and were re-queued).
    pub aborted: usize,
    /// Tasks that faulted — contained operator panics, injected
    /// faults — and were re-queued. Disjoint from
    /// `aborted`: `launched = committed + aborted + faulted`.
    pub faulted: usize,
    /// New tasks spawned by committed work.
    pub spawned: usize,
    /// Abstract-lock acquisitions across all tasks.
    pub lock_acquires: usize,
    /// Tasks retired to the dead-letter list this round: they faulted
    /// at `retries ≥` the executor's dead-letter budget and left the
    /// system instead of re-queuing. A subset of `faulted`, so the
    /// round identity `launched = committed + aborted + faulted` is
    /// unchanged.
    pub dead_lettered: usize,
}

impl RoundStats {
    /// Realized conflict ratio `r = aborted / launched` (0 when
    /// nothing was launched). Faults are excluded: they measure
    /// operator health, not lock contention.
    pub fn conflict_ratio(&self) -> f64 {
        if self.launched == 0 {
            0.0
        } else {
            self.aborted as f64 / self.launched as f64
        }
    }

    /// Retry pressure `(aborted + faulted) / launched`: the fraction
    /// of launched work that must be re-run, whatever the reason.
    /// This is what the processor-allocation controller observes —
    /// a fault storm should shrink `m` exactly like a conflict storm
    /// (equal to [`RoundStats::conflict_ratio`] when nothing faults,
    /// so the fault-free control loop is unchanged).
    pub fn pressure_ratio(&self) -> f64 {
        if self.launched == 0 {
            0.0
        } else {
            (self.aborted + self.faulted) as f64 / self.launched as f64
        }
    }

    /// Add `more`'s counts to these (`m` is not a count: kept). The
    /// destructuring names every field, so a new count cannot be left
    /// out.
    pub(crate) fn add(&mut self, more: &RoundStats) {
        let RoundStats {
            m: _,
            launched,
            committed,
            aborted,
            faulted,
            spawned,
            lock_acquires,
            dead_lettered,
        } = *more;
        self.launched += launched;
        self.committed += committed;
        self.aborted += aborted;
        self.faulted += faulted;
        self.spawned += spawned;
        self.lock_acquires += lock_acquires;
        self.dead_lettered += dead_lettered;
    }
}

/// Statistics of a whole run (a sequence of rounds).
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// One record per executed round, in order.
    pub rounds: Vec<RoundStats>,
}

impl RunStats {
    /// Total tasks launched over the run.
    pub fn total_launched(&self) -> usize {
        self.rounds.iter().map(|r| r.launched).sum()
    }

    /// Total commits over the run (= work completed).
    pub fn total_committed(&self) -> usize {
        self.rounds.iter().map(|r| r.committed).sum()
    }

    /// Total aborts over the run (= work wasted).
    pub fn total_aborted(&self) -> usize {
        self.rounds.iter().map(|r| r.aborted).sum()
    }

    /// Total faults over the run (contained panics, injected faults).
    pub fn total_faulted(&self) -> usize {
        self.rounds.iter().map(|r| r.faulted).sum()
    }

    /// Total tasks dead-lettered over the run (faulted past the
    /// dead-letter budget and retired instead of re-queued).
    pub fn total_dead_lettered(&self) -> usize {
        self.rounds.iter().map(|r| r.dead_lettered).sum()
    }

    /// Number of rounds executed.
    pub fn round_count(&self) -> usize {
        self.rounds.len()
    }

    /// Overall wasted-work fraction.
    pub fn overall_conflict_ratio(&self) -> f64 {
        let l = self.total_launched();
        if l == 0 {
            0.0
        } else {
            self.total_aborted() as f64 / l as f64
        }
    }

    /// Throughput proxy: commits per round.
    pub fn commits_per_round(&self) -> f64 {
        if self.rounds.is_empty() {
            0.0
        } else {
            self.total_committed() as f64 / self.round_count() as f64
        }
    }

    /// The `m_t` series (for Fig. 3-style plots from runtime runs).
    pub fn m_series(&self) -> Vec<usize> {
        self.rounds.iter().map(|r| r.m).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(m: usize, launched: usize, committed: usize, spawned: usize) -> RoundStats {
        RoundStats {
            m,
            launched,
            committed,
            aborted: launched - committed,
            faulted: 0,
            spawned,
            lock_acquires: 0,
            dead_lettered: 0,
        }
    }

    #[test]
    fn ratios() {
        let r = round(10, 10, 7, 2);
        assert!((r.conflict_ratio() - 0.3).abs() < 1e-12);
        assert_eq!(RoundStats::default().conflict_ratio(), 0.0);
    }

    #[test]
    fn pressure_includes_faults() {
        let mut r = round(10, 10, 7, 0);
        assert_eq!(
            r.pressure_ratio(),
            r.conflict_ratio(),
            "fault-free pressure equals the conflict ratio"
        );
        // Re-book one abort and one commit as faults.
        r.aborted -= 1;
        r.committed -= 1;
        r.faulted += 2;
        assert!((r.conflict_ratio() - 0.2).abs() < 1e-12);
        assert!((r.pressure_ratio() - 0.4).abs() < 1e-12);
        assert_eq!(RoundStats::default().pressure_ratio(), 0.0);
    }

    #[test]
    fn run_aggregates() {
        let run = RunStats {
            rounds: vec![round(10, 10, 5, 0), round(20, 20, 19, 3)],
        };
        assert_eq!(run.total_launched(), 30);
        assert_eq!(run.total_committed(), 24);
        assert_eq!(run.total_aborted(), 6);
        assert_eq!(run.round_count(), 2);
        assert!((run.overall_conflict_ratio() - 0.2).abs() < 1e-12);
        assert_eq!(run.commits_per_round(), 12.0);
        assert_eq!(run.m_series(), vec![10, 20]);
    }

    #[test]
    fn empty_run() {
        let run = RunStats::default();
        assert_eq!(run.overall_conflict_ratio(), 0.0);
        assert_eq!(run.commits_per_round(), 0.0);
    }

    /// Pin the `launched == 0` behavior of every ratio accessor: an
    /// empty round yields exactly `0.0` — never NaN — even when other
    /// fields are nonzero (an `m` request with a drained work-set).
    #[test]
    fn empty_round_ratios_are_zero_not_nan() {
        let r = RoundStats {
            m: 64,
            launched: 0,
            committed: 0,
            aborted: 0,
            faulted: 0,
            spawned: 0,
            lock_acquires: 0,
            dead_lettered: 0,
        };
        for ratio in [r.conflict_ratio(), r.pressure_ratio()] {
            assert!(!ratio.is_nan(), "0/0 must not leak NaN into the controller");
            assert_eq!(ratio.to_bits(), 0.0f64.to_bits(), "exactly +0.0");
        }
        let run = RunStats { rounds: vec![r] };
        assert_eq!(run.overall_conflict_ratio().to_bits(), 0.0f64.to_bits());
    }

    /// An empty-round observation must leave every closed-loop
    /// controller's allocation untouched (the `launched == 0`
    /// early-return), so a drained work-set cannot fold NaN or a
    /// phantom sample into the window average.
    #[test]
    fn controllers_ignore_empty_round_observations() {
        use optpar_core::control::{
            Controller, HybridController, RecurrenceA, RecurrenceB, RecurrenceParams,
        };
        fn check<C: Controller>(mut ctl: C) {
            let before = ctl.current_m();
            for _ in 0..32 {
                ctl.observe(f64::NAN, 0);
                ctl.observe(1.0, 0);
            }
            assert_eq!(
                ctl.current_m(),
                before,
                "{} moved m on a zero-launch observation",
                ctl.name()
            );
        }
        check(HybridController::with_rho(0.25));
        check(RecurrenceA::new(RecurrenceParams::default()));
        check(RecurrenceB::new(RecurrenceParams::default()));
    }
}
