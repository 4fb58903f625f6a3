//! Closed-loop simulation: controller × plant.
//!
//! The paper evaluates its controller in two settings:
//!
//! 1. **Static plant** (Fig. 3): the CC graph is held fixed
//!    (`G_t = G`), each round draws `m` random nodes and reports the
//!    realized conflict ratio without consuming work — isolating
//!    convergence of `m_t → μ`.
//! 2. **Draining plant** (§4.1): the real model where committed work is
//!    removed and the graph may morph, so `μ_t` itself drifts.
//!
//! Both are [`Plant`]s; [`run_loop`] wires any plant to any
//! [`crate::control::Controller`] and records a
//! [`SimTrace`].

use crate::control::Controller;
use crate::model::{Morph, NoMorph, RoundScheduler};
use optpar_graph::{mis, CsrGraph, NodeId};
use rand::Rng;

/// One recorded round of a closed-loop run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimStep {
    /// Round index, starting at 0.
    pub t: usize,
    /// Allocation the controller requested this round.
    pub m: usize,
    /// Tasks actually launched (`≤ m`).
    pub launched: usize,
    /// Commits this round.
    pub committed: usize,
    /// Realized conflict ratio `r = aborted / launched`.
    pub r: f64,
}

/// A full closed-loop trace plus summary helpers.
#[derive(Clone, Debug, Default)]
pub struct SimTrace {
    /// One entry per executed round, in order.
    pub steps: Vec<SimStep>,
}

impl SimTrace {
    /// First round index from which `|m − μ|/μ ≤ tol` holds for
    /// `sustain` consecutive rounds; `None` if never.
    pub fn convergence_round(&self, mu: usize, tol: f64, sustain: usize) -> Option<usize> {
        assert!(mu > 0 && sustain > 0);
        let ok = |s: &SimStep| (s.m as f64 - mu as f64).abs() / mu as f64 <= tol;
        let mut run = 0usize;
        for (i, s) in self.steps.iter().enumerate() {
            if ok(s) {
                run += 1;
                if run >= sustain {
                    return Some(i + 1 - sustain);
                }
            } else {
                run = 0;
            }
        }
        None
    }

    /// Mean allocation over the trailing `k` rounds (steady state).
    pub fn steady_m(&self, k: usize) -> f64 {
        let n = self.steps.len();
        assert!(k >= 1 && k <= n, "need 1..={n} trailing rounds");
        self.steps[n - k..].iter().map(|s| s.m as f64).sum::<f64>() / k as f64
    }

    /// Mean realized conflict ratio over the trailing `k` rounds,
    /// weighted by launches.
    pub fn steady_r(&self, k: usize) -> f64 {
        let n = self.steps.len();
        assert!(k >= 1 && k <= n);
        let tail = &self.steps[n - k..];
        let launched: usize = tail.iter().map(|s| s.launched).sum();
        if launched == 0 {
            return 0.0;
        }
        let aborted: usize = tail.iter().map(|s| s.launched - s.committed).sum();
        aborted as f64 / launched as f64
    }

    /// Total committed work across the whole trace.
    pub fn total_committed(&self) -> usize {
        self.steps.iter().map(|s| s.committed).sum()
    }

    /// Total launched across the whole trace.
    pub fn total_launched(&self) -> usize {
        self.steps.iter().map(|s| s.launched).sum()
    }

    /// Fraction of launched work that aborted over the whole run.
    pub fn overall_waste(&self) -> f64 {
        let l = self.total_launched();
        if l == 0 {
            0.0
        } else {
            (l - self.total_committed()) as f64 / l as f64
        }
    }

    /// Work efficiency: committed / launched.
    pub fn efficiency(&self) -> f64 {
        1.0 - self.overall_waste()
    }

    /// The `(t, m)` series — the y-values plotted in Fig. 3.
    pub fn m_series(&self) -> Vec<usize> {
        self.steps.iter().map(|s| s.m).collect()
    }
}

/// A system the controller steers: each round it is told `m` and
/// reports what happened.
pub trait Plant {
    /// Execute one round launching up to `m` tasks. Returns
    /// `(launched, committed)`.
    fn round<R: Rng + ?Sized>(&mut self, m: usize, rng: &mut R) -> (usize, usize);

    /// Is there any work left? Static plants never drain.
    fn exhausted(&self) -> bool {
        false
    }
}

/// Fig. 3's setting: a fixed CC graph sampled with replacement between
/// rounds (work never drains, `μ` is constant).
pub struct StaticGraphPlant {
    g: CsrGraph,
    pool: Vec<NodeId>,
}

impl StaticGraphPlant {
    /// Wrap a fixed CC graph.
    pub fn new(g: CsrGraph) -> Self {
        use optpar_graph::ConflictGraph;
        let n = g.node_count();
        StaticGraphPlant {
            g,
            pool: (0..n as NodeId).collect(),
        }
    }

    /// Borrow the underlying graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.g
    }
}

impl Plant for StaticGraphPlant {
    fn round<R: Rng + ?Sized>(&mut self, m: usize, rng: &mut R) -> (usize, usize) {
        let n = self.pool.len();
        let m = m.min(n);
        for i in 0..m {
            let j = rng.random_range(i..n);
            self.pool.swap(i, j);
        }
        let committed = mis::greedy_prefix_mis(&self.g, &self.pool[..m]).len();
        (m, committed)
    }
}

/// The real draining model: wraps a [`RoundScheduler`] and a morph
/// policy.
pub struct DrainingPlant<M: Morph> {
    /// The underlying round scheduler (consumes work).
    pub sched: RoundScheduler,
    /// Graph-morphing policy applied on each commit.
    pub morph: M,
}

impl DrainingPlant<NoMorph> {
    /// A draining plant with no morphing.
    pub fn new(sched: RoundScheduler) -> Self {
        DrainingPlant {
            sched,
            morph: NoMorph,
        }
    }
}

impl<M: Morph> Plant for DrainingPlant<M> {
    fn round<R: Rng + ?Sized>(&mut self, m: usize, rng: &mut R) -> (usize, usize) {
        let out = self.sched.run_round_morph(m, &mut self.morph, rng);
        (out.launched, out.committed)
    }

    fn exhausted(&self) -> bool {
        self.sched.is_empty()
    }
}

/// An analytic plant: the conflict ratio is a deterministic function of
/// `m` (useful for noise-free controller unit experiments and
/// ablations).
pub struct AnalyticPlant<F: FnMut(usize) -> f64> {
    /// The plant's conflict-ratio response `m ↦ r̄(m)`.
    pub rbar: F,
}

impl<F: FnMut(usize) -> f64> Plant for AnalyticPlant<F> {
    fn round<R: Rng + ?Sized>(&mut self, m: usize, _rng: &mut R) -> (usize, usize) {
        let r = (self.rbar)(m).clamp(0.0, 1.0);
        // Convert the ratio to integral commits, rounding to nearest.
        let committed = ((1.0 - r) * m as f64).round() as usize;
        (m, committed.min(m))
    }
}

/// Drive `ctl` against `plant` for at most `max_rounds` rounds (or
/// until the plant drains), recording every round.
pub fn run_loop<P: Plant, C: Controller, R: Rng + ?Sized>(
    plant: &mut P,
    ctl: &mut C,
    max_rounds: usize,
    rng: &mut R,
) -> SimTrace {
    let mut steps = Vec::with_capacity(max_rounds);
    for t in 0..max_rounds {
        if plant.exhausted() {
            break;
        }
        let m = ctl.current_m();
        let (launched, committed) = plant.round(m, rng);
        let r = if launched == 0 {
            0.0
        } else {
            (launched - committed) as f64 / launched as f64
        };
        ctl.observe(r, launched);
        steps.push(SimStep {
            t,
            m,
            launched,
            committed,
            r,
        });
    }
    SimTrace { steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{
        FixedController, HybridController, HybridParams, RecurrenceA, RecurrenceParams,
    };
    use crate::estimate;
    use optpar_graph::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn trace_helpers() {
        let steps = vec![
            SimStep {
                t: 0,
                m: 10,
                launched: 10,
                committed: 5,
                r: 0.5,
            },
            SimStep {
                t: 1,
                m: 20,
                launched: 20,
                committed: 16,
                r: 0.2,
            },
            SimStep {
                t: 2,
                m: 20,
                launched: 20,
                committed: 16,
                r: 0.2,
            },
        ];
        let tr = SimTrace { steps };
        assert_eq!(tr.total_committed(), 37);
        assert_eq!(tr.total_launched(), 50);
        assert!((tr.overall_waste() - 13.0 / 50.0).abs() < 1e-12);
        assert!((tr.steady_m(2) - 20.0).abs() < 1e-12);
        assert!((tr.steady_r(2) - 0.2).abs() < 1e-12);
        assert_eq!(tr.convergence_round(20, 0.05, 2), Some(1));
        assert_eq!(tr.convergence_round(100, 0.05, 1), None);
        assert_eq!(tr.m_series(), vec![10, 20, 20]);
    }

    #[test]
    fn static_plant_never_drains() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = gen::random_with_avg_degree(200, 8.0, &mut rng);
        let mut plant = StaticGraphPlant::new(g);
        let mut ctl = FixedController::new(40);
        let tr = run_loop(&mut plant, &mut ctl, 50, &mut rng);
        assert_eq!(tr.steps.len(), 50);
        assert!(tr.steps.iter().all(|s| s.launched == 40));
    }

    #[test]
    fn draining_plant_stops() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = gen::random_with_avg_degree(100, 4.0, &mut rng);
        let mut plant = DrainingPlant::new(RoundScheduler::from_csr(&g));
        let mut ctl = FixedController::new(25);
        let tr = run_loop(&mut plant, &mut ctl, 10_000, &mut rng);
        assert!(plant.exhausted());
        assert_eq!(tr.total_committed(), 100);
    }

    #[test]
    fn fig3_shape_hybrid_converges_in_about_15_rounds() {
        // The paper's headline: on a random graph with n = 2000,
        // ρ = 20%, the hybrid controller reaches the target zone in
        // ~15 rounds from m₀ = 2.
        let mut rng = StdRng::seed_from_u64(3);
        let g = gen::random_with_avg_degree(2000, 16.0, &mut rng);
        let mu = estimate::find_mu(&g, 0.2, 400, &mut rng);
        let mut plant = StaticGraphPlant::new(g);
        let mut ctl = HybridController::new(HybridParams {
            rho: 0.2,
            ..HybridParams::default()
        });
        let tr = run_loop(&mut plant, &mut ctl, 300, &mut rng);
        let conv = tr
            .convergence_round(mu, 0.25, 4)
            .expect("hybrid never converged");
        assert!(conv <= 40, "took {conv} rounds (μ = {mu})");
        // Steady state sits near μ.
        let sm = tr.steady_m(100);
        assert!(
            (sm - mu as f64).abs() / mu as f64 <= 0.25,
            "steady m {sm} vs μ {mu}"
        );
    }

    #[test]
    fn hybrid_beats_a_only_on_real_graph() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = gen::random_with_avg_degree(2000, 16.0, &mut rng);
        let mu = estimate::find_mu(&g, 0.2, 400, &mut rng);

        let conv = |tr: &SimTrace| tr.convergence_round(mu, 0.25, 4).unwrap_or(usize::MAX);

        let mut plant = StaticGraphPlant::new(g.clone());
        let mut hybrid = HybridController::new(HybridParams {
            rho: 0.2,
            ..HybridParams::default()
        });
        let th = conv(&run_loop(&mut plant, &mut hybrid, 600, &mut rng));

        let mut plant = StaticGraphPlant::new(g);
        let mut aonly = RecurrenceA::new(RecurrenceParams {
            rho: 0.2,
            ..RecurrenceParams::default()
        });
        let ta = conv(&run_loop(&mut plant, &mut aonly, 600, &mut rng));

        assert!(
            th < ta,
            "hybrid ({th}) should converge before A-only ({ta})"
        );
    }

    #[test]
    fn analytic_plant_is_exact() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut plant = AnalyticPlant {
            rbar: |m| m as f64 / 100.0,
        };
        let (l, c) = plant.round(50, &mut rng);
        assert_eq!((l, c), (50, 25));
    }

    #[test]
    fn steady_state_r_tracks_rho() {
        // After convergence, the realized conflict ratio should hover
        // near the target ρ.
        let mut rng = StdRng::seed_from_u64(6);
        let g = gen::random_with_avg_degree(1000, 10.0, &mut rng);
        let mut plant = StaticGraphPlant::new(g);
        let mut ctl = HybridController::with_rho(0.25);
        let tr = run_loop(&mut plant, &mut ctl, 400, &mut rng);
        let r = tr.steady_r(200);
        assert!((r - 0.25).abs() < 0.08, "steady-state r = {r}, target 0.25");
    }
}
