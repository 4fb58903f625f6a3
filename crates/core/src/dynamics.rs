//! Time-varying workloads for adaptation experiments (§4.1).
//!
//! The paper stresses that available parallelism in irregular programs
//! "can vary quite abruptly, e.g., Delaunay mesh refinement can go from
//! no parallelism to one thousand possible parallel tasks in just 30
//! temporal steps" (citing the LonStar suite). These plants script such
//! variation so we can measure how quickly each controller re-tracks
//! the moving operating point `μ_t`.

use crate::sim::{Plant, StaticGraphPlant};
use optpar_graph::{gen, CsrGraph};
use rand::Rng;

/// One phase of a scripted workload: a fixed CC graph held for a fixed
/// number of rounds.
pub struct Phase {
    /// The CC graph active during this phase.
    pub graph: CsrGraph,
    /// How many rounds the phase lasts.
    pub rounds: usize,
    /// Optional label for reports ("ramp-up", "spike", ...).
    pub label: &'static str,
}

/// A plant that switches between static graphs on a script.
///
/// Each phase behaves like [`StaticGraphPlant`]; the switch is
/// instantaneous, modelling an abrupt change in available parallelism.
pub struct PhasedPlant {
    phases: Vec<Phase>,
    current: usize,
    rounds_in_phase: usize,
    inner: StaticGraphPlant,
}

impl PhasedPlant {
    /// # Panics
    /// Panics on an empty script or a zero-round phase.
    pub fn new(mut phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "need at least one phase");
        assert!(phases.iter().all(|p| p.rounds > 0), "phases need rounds");
        let first = phases.remove(0);
        let inner = StaticGraphPlant::new(first.graph.clone());
        let mut all = vec![first];
        all.extend(phases);
        PhasedPlant {
            phases: all,
            current: 0,
            rounds_in_phase: 0,
            inner,
        }
    }

    /// Label of the active phase.
    pub fn current_label(&self) -> &'static str {
        self.phases[self.current].label
    }

    /// Total scripted length in rounds.
    pub fn total_rounds(&self) -> usize {
        self.phases.iter().map(|p| p.rounds).sum()
    }

    /// Round index at which each phase starts.
    pub fn phase_boundaries(&self) -> Vec<usize> {
        let mut acc = 0;
        self.phases
            .iter()
            .map(|p| {
                let b = acc;
                acc += p.rounds;
                b
            })
            .collect()
    }

    fn maybe_advance(&mut self) {
        if self.rounds_in_phase >= self.phases[self.current].rounds
            && self.current + 1 < self.phases.len()
        {
            self.current += 1;
            self.rounds_in_phase = 0;
            self.inner = StaticGraphPlant::new(self.phases[self.current].graph.clone());
        }
    }
}

impl Plant for PhasedPlant {
    fn round<R: Rng + ?Sized>(&mut self, m: usize, rng: &mut R) -> (usize, usize) {
        self.maybe_advance();
        self.rounds_in_phase += 1;
        self.inner.round(m, rng)
    }

    fn exhausted(&self) -> bool {
        self.current + 1 >= self.phases.len()
            && self.rounds_in_phase >= self.phases[self.current].rounds
    }
}

/// A Delaunay-like parallelism ramp: a script of `steps` phases in
/// which available parallelism grows from almost nothing to ~`n_max`
/// parallel tasks, each phase lasting `rounds_per_step` rounds.
///
/// Parallelism is controlled through density: every phase keeps the
/// node count at `4·n_max` but shrinks the average degree so the
/// operating point `μ` (for moderate `ρ`) rises roughly linearly from
/// ≈ `n_max/steps` to ≈ `n_max`.
pub fn delaunay_like_ramp<R: Rng + ?Sized>(
    n_max: usize,
    steps: usize,
    rounds_per_step: usize,
    rng: &mut R,
) -> PhasedPlant {
    assert!(steps >= 2 && n_max >= steps);
    let n = 4 * n_max;
    let phases = (1..=steps)
        .map(|i| {
            // Target μ_i ≈ i/steps · n_max. For a random graph, μ at
            // conflict ratio ρ scales like ρ·n/d (initial linearity,
            // Fig. 2), so pick d ≈ ρ·n/μ with ρ = 0.2.
            let mu = (i * n_max) / steps;
            let d = (0.2 * n as f64 / mu as f64).clamp(0.1, 64.0);
            Phase {
                graph: gen::random_with_avg_degree(n, d, rng),
                rounds: rounds_per_step,
                label: "ramp",
            }
        })
        .collect();
    PhasedPlant::new(phases)
}

/// A collapse-then-recover script: high parallelism, sudden collapse to
/// a dense graph (near-serial), then recovery — the hardest case for a
/// controller because the coarse branch must fire in both directions.
pub fn spike_script<R: Rng + ?Sized>(
    n: usize,
    rounds_per_phase: usize,
    rng: &mut R,
) -> PhasedPlant {
    let sparse = gen::random_with_avg_degree(n, 2.0, rng);
    let dense = gen::random_with_avg_degree(n, 128.0_f64.min((n - 1) as f64), rng);
    let sparse2 = gen::random_with_avg_degree(n, 2.0, rng);
    PhasedPlant::new(vec![
        Phase {
            graph: sparse,
            rounds: rounds_per_phase,
            label: "high-parallelism",
        },
        Phase {
            graph: dense,
            rounds: rounds_per_phase,
            label: "collapse",
        },
        Phase {
            graph: sparse2,
            rounds: rounds_per_phase,
            label: "recovery",
        },
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{HybridController, HybridParams};
    use crate::sim::run_loop;
    use optpar_graph::ConflictGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn phases_switch_on_schedule() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut plant = PhasedPlant::new(vec![
            Phase {
                graph: gen::complete(10),
                rounds: 3,
                label: "dense",
            },
            Phase {
                graph: CsrGraph::edgeless(10),
                rounds: 3,
                label: "free",
            },
        ]);
        assert_eq!(plant.total_rounds(), 6);
        assert_eq!(plant.phase_boundaries(), vec![0, 3]);
        // Dense phase: 10 launched, 1 commit.
        for _ in 0..3 {
            let (l, c) = plant.round(10, &mut rng);
            assert_eq!((l, c), (10, 1));
            assert_eq!(plant.current_label(), "dense");
        }
        // Free phase: all commit.
        for _ in 0..3 {
            let (l, c) = plant.round(10, &mut rng);
            assert_eq!((l, c), (10, 10));
            assert_eq!(plant.current_label(), "free");
        }
        assert!(plant.exhausted());
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_script_panics() {
        let _ = PhasedPlant::new(vec![]);
    }

    #[test]
    fn ramp_graphs_get_sparser() {
        let mut rng = StdRng::seed_from_u64(2);
        let plant = delaunay_like_ramp(200, 5, 10, &mut rng);
        let degs: Vec<f64> = plant
            .phases
            .iter()
            .map(|p| p.graph.average_degree())
            .collect();
        for w in degs.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "degrees not decreasing: {degs:?}");
        }
    }

    #[test]
    fn controller_tracks_spike() {
        // The controller must pull m down hard during the collapse
        // phase and recover afterwards.
        let mut rng = StdRng::seed_from_u64(3);
        let mut plant = spike_script(1000, 60, &mut rng);
        let mut ctl = HybridController::new(HybridParams {
            rho: 0.2,
            ..HybridParams::default()
        });
        let tr = run_loop(&mut plant, &mut ctl, 180, &mut rng);
        assert_eq!(tr.steps.len(), 180);
        let m_high: f64 = tr.steps[40..60].iter().map(|s| s.m as f64).sum::<f64>() / 20.0;
        let m_low: f64 = tr.steps[100..120].iter().map(|s| s.m as f64).sum::<f64>() / 20.0;
        let m_rec: f64 = tr.steps[160..180].iter().map(|s| s.m as f64).sum::<f64>() / 20.0;
        assert!(
            m_low < m_high / 3.0,
            "no collapse response: high {m_high}, low {m_low}"
        );
        assert!(m_rec > m_low * 3.0, "no recovery: low {m_low}, rec {m_rec}");
    }
}
