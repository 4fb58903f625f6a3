//! Processor-allocation controllers (§4 of the paper).
//!
//! All controllers implement [`Controller`]: the execution loop asks
//! for [`Controller::current_m`], runs a round launching that many
//! tasks, and reports the realized conflict ratio back through
//! [`Controller::observe`]. The goal is to steer `m_t` toward `μ`, the
//! largest `m` with `r̄(m) ≈ ρ`.
//!
//! * [`RecurrenceA`] — `m ← ⌈(1 − r + ρ)·m⌉`: slow but noise-tolerant.
//! * [`RecurrenceB`] — `m ← ⌈(ρ/r)·m⌉`: fast, assumes the initial
//!   linearity of `r̄(m)` observed experimentally (Fig. 2).
//! * [`HybridController`] — Algorithm 1: windowed averaging over
//!   `T` rounds, Recurrence B when far from target (`α > α₀`),
//!   Recurrence A when moderately off (`α > α₁`), dead-band otherwise,
//!   with clamping to `[m_min, m_max]` and an optional small-`m`
//!   parameter split (the optimization the paper mentions but does not
//!   show in pseudocode).
//! * [`FixedController`] — constant `m` (the non-adaptive baseline).
//!
//! [`smart_initial_m`] implements the Cor. 3 initialisation: with an
//! estimate of the average degree `d`, starting at `m = n/(2(d+1))`
//! guarantees `r̄ ≤ 21.3%`.

/// Common interface of all processor-allocation controllers.
pub trait Controller {
    /// The number of tasks to launch in the next round.
    fn current_m(&self) -> usize;

    /// Report one completed round: realized conflict ratio `r = k/m`
    /// and the number of tasks actually launched (may be less than
    /// `current_m` if the work-set is nearly drained). Rounds with
    /// `launched == 0` are ignored.
    fn observe(&mut self, r: f64, launched: usize);

    /// The conflict-ratio target `ρ` this controller steers toward
    /// (`None` for open-loop controllers like [`FixedController`]).
    fn target_rho(&self) -> Option<f64>;

    /// Human-readable name for experiment tables.
    fn name(&self) -> &'static str;
}

/// Clamp helper shared by all controllers.
fn clamp_m(m: usize, lo: usize, hi: usize) -> usize {
    m.max(lo).min(hi)
}

/// Cor. 3 smart initialisation: `m₀ = n / (2(d+1))` keeps the initial
/// conflict ratio below ≈ 21.3% on *any* graph with `n` nodes and
/// average degree `d` (never below 2, the paper's floor).
pub fn smart_initial_m(n: usize, d: f64) -> usize {
    assert!(d >= 0.0, "average degree must be non-negative");
    ((n as f64 / (2.0 * (d + 1.0))).floor() as usize).max(2)
}

// ---------------------------------------------------------------------
// Fixed baseline
// ---------------------------------------------------------------------

/// Launches a constant number of tasks every round.
#[derive(Clone, Copy, Debug)]
pub struct FixedController {
    m: usize,
}

impl FixedController {
    /// A controller that always answers `m`.
    pub fn new(m: usize) -> Self {
        assert!(m >= 1);
        FixedController { m }
    }
}

impl Controller for FixedController {
    fn current_m(&self) -> usize {
        self.m
    }
    fn observe(&mut self, _r: f64, _launched: usize) {}
    fn target_rho(&self) -> Option<f64> {
        None
    }
    fn name(&self) -> &'static str {
        "fixed"
    }
}

// ---------------------------------------------------------------------
// Windowed averaging shared by the recurrence controllers
// ---------------------------------------------------------------------

/// Accumulates conflict-ratio samples over a window of `t` rounds and
/// releases the average when the window fills.
#[derive(Clone, Copy, Debug)]
struct Window {
    len: usize,
    sum: f64,
    count: usize,
}

impl Window {
    fn new(len: usize) -> Self {
        assert!(len >= 1, "window length must be >= 1");
        Window {
            len,
            sum: 0.0,
            count: 0,
        }
    }

    /// Push a sample; returns the window average when full.
    fn push(&mut self, r: f64) -> Option<f64> {
        self.sum += r;
        self.count += 1;
        if self.count == self.len {
            let avg = self.sum / self.len as f64;
            self.sum = 0.0;
            self.count = 0;
            Some(avg)
        } else {
            None
        }
    }

    fn resize(&mut self, len: usize) {
        assert!(len >= 1);
        if self.len != len {
            self.len = len;
            self.sum = 0.0;
            self.count = 0;
        }
    }
}

// ---------------------------------------------------------------------
// Recurrence A
// ---------------------------------------------------------------------

/// Shared bounds/window configuration of the simple recurrences.
#[derive(Clone, Copy, Debug)]
pub struct RecurrenceParams {
    /// Target conflict ratio `ρ`.
    pub rho: f64,
    /// Initial allocation `m₀`.
    pub m0: usize,
    /// Lower clamp (the paper insists `m ≥ 2`, Remark 1).
    pub m_min: usize,
    /// Upper clamp.
    pub m_max: usize,
    /// Averaging window `T`.
    pub window: usize,
    /// Floor for the measured `r` before dividing in Recurrence B.
    pub r_min: f64,
}

impl Default for RecurrenceParams {
    fn default() -> Self {
        RecurrenceParams {
            rho: 0.25,
            m0: 2,
            m_min: 2,
            m_max: 1024,
            window: 4,
            r_min: 0.03,
        }
    }
}

impl RecurrenceParams {
    fn validate(&self) {
        assert!(
            self.rho > 0.0 && self.rho < 1.0,
            "ρ must lie in (0, 1); Remark 1 rules out ρ = 0"
        );
        assert!(self.m_min >= 1 && self.m_min <= self.m_max);
        assert!(self.m0 >= self.m_min && self.m0 <= self.m_max);
        assert!(self.window >= 1);
        assert!(self.r_min > 0.0 && self.r_min < 1.0);
    }
}

/// Recurrence A (Eq. 32): `m_{t+1} = ⌈(1 − r_t + ρ)·m_t⌉`, applied on
/// windowed averages.
#[derive(Clone, Debug)]
pub struct RecurrenceA {
    p: RecurrenceParams,
    m: usize,
    win: Window,
}

impl RecurrenceA {
    /// Build with the given parameters (validated).
    pub fn new(p: RecurrenceParams) -> Self {
        p.validate();
        RecurrenceA {
            m: p.m0,
            win: Window::new(p.window),
            p,
        }
    }
}

impl Controller for RecurrenceA {
    fn current_m(&self) -> usize {
        self.m
    }

    fn observe(&mut self, r: f64, launched: usize) {
        if launched == 0 {
            return;
        }
        if let Some(avg) = self.win.push(r) {
            let next = ((1.0 - avg + self.p.rho) * self.m as f64).ceil() as usize;
            self.m = clamp_m(next, self.p.m_min, self.p.m_max);
        }
    }

    fn target_rho(&self) -> Option<f64> {
        Some(self.p.rho)
    }

    fn name(&self) -> &'static str {
        "recurrence-a"
    }
}

// ---------------------------------------------------------------------
// Recurrence B
// ---------------------------------------------------------------------

/// Recurrence B (Eq. 33): `m_{t+1} = ⌈(ρ / r_t)·m_t⌉` with `r_t`
/// floored at `r_min`, applied on windowed averages.
#[derive(Clone, Debug)]
pub struct RecurrenceB {
    p: RecurrenceParams,
    m: usize,
    win: Window,
}

impl RecurrenceB {
    /// Build with the given parameters (validated).
    pub fn new(p: RecurrenceParams) -> Self {
        p.validate();
        RecurrenceB {
            m: p.m0,
            win: Window::new(p.window),
            p,
        }
    }
}

impl Controller for RecurrenceB {
    fn current_m(&self) -> usize {
        self.m
    }

    fn observe(&mut self, r: f64, launched: usize) {
        if launched == 0 {
            return;
        }
        if let Some(avg) = self.win.push(r) {
            let r = avg.max(self.p.r_min);
            let next = (self.p.rho / r * self.m as f64).ceil() as usize;
            self.m = clamp_m(next, self.p.m_min, self.p.m_max);
        }
    }

    fn target_rho(&self) -> Option<f64> {
        Some(self.p.rho)
    }

    fn name(&self) -> &'static str {
        "recurrence-b"
    }
}

// ---------------------------------------------------------------------
// Hybrid (Algorithm 1)
// ---------------------------------------------------------------------

/// Separate tuning for small allocations, where the variance of the
/// measured `r` is much larger (the paper: "for small values of m the
/// variance is much bigger, so it is better to tune separately this
/// case using different parameters").
#[derive(Clone, Copy, Debug)]
pub struct SmallMParams {
    /// Apply these parameters while `m < threshold` (Fig. 3 used 20).
    pub threshold: usize,
    /// Longer averaging window.
    pub window: usize,
    /// Wider fine-adjustment dead-band.
    pub alpha1: f64,
}

impl Default for SmallMParams {
    fn default() -> Self {
        SmallMParams {
            threshold: 20,
            window: 8,
            alpha1: 0.12,
        }
    }
}

/// Full parameter set of Algorithm 1.
#[derive(Clone, Copy, Debug)]
pub struct HybridParams {
    /// Target conflict ratio `ρ` (typically 20–30%, Remark 1).
    pub rho: f64,
    /// Initial allocation `m₀` (2, or [`smart_initial_m`]).
    pub m0: usize,
    /// Lower clamp bound (the paper's default is 2).
    pub m_min: usize,
    /// Upper clamp bound (the paper's default is 1024).
    pub m_max: usize,
    /// Averaging window `T` (default 4).
    pub window: usize,
    /// Floor for measured `r` in the Recurrence-B branch (default 3%).
    pub r_min: f64,
    /// Coarse threshold `α₀` (default 25%): beyond it, use Recurrence B.
    pub alpha0: f64,
    /// Fine threshold `α₁` (default 6%): beyond it, use Recurrence A;
    /// within it, hold `m` (dead-band, preserving locality).
    pub alpha1: f64,
    /// Optional small-`m` parameter split.
    pub small_m: Option<SmallMParams>,
}

impl Default for HybridParams {
    fn default() -> Self {
        HybridParams {
            rho: 0.25,
            m0: 2,
            m_min: 2,
            m_max: 1024,
            window: 4,
            r_min: 0.03,
            alpha0: 0.25,
            alpha1: 0.06,
            small_m: Some(SmallMParams::default()),
        }
    }
}

impl HybridParams {
    fn validate(&self) {
        assert!(
            self.rho > 0.0 && self.rho < 1.0,
            "ρ must lie in (0, 1); Remark 1 rules out ρ = 0"
        );
        assert!(self.m_min >= 1 && self.m_min <= self.m_max);
        assert!(self.m0 >= self.m_min && self.m0 <= self.m_max);
        assert!(self.window >= 1);
        assert!(self.r_min > 0.0 && self.r_min < 1.0);
        assert!(self.alpha0 > self.alpha1 && self.alpha1 >= 0.0);
        if let Some(s) = self.small_m {
            assert!(s.window >= 1 && s.alpha1 >= 0.0);
        }
    }
}

/// Which branch of Algorithm 1 fired on the last window boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HybridBranch {
    /// `α > α₀`: coarse Recurrence-B jump.
    Coarse,
    /// `α₁ < α ≤ α₀`: fine Recurrence-A step.
    Fine,
    /// `α ≤ α₁`: dead-band, hold `m`.
    Hold,
}

/// Algorithm 1: the hybrid control heuristic.
///
/// # Examples
/// ```
/// use optpar_core::control::{Controller, HybridController, HybridParams};
///
/// let mut c = HybridController::new(HybridParams {
///     rho: 0.20,
///     ..HybridParams::default()
/// });
/// assert_eq!(c.current_m(), 2);
/// // With the default small-m split, m = 2 < 20 uses a window of 8
/// // rounds. Feed one full window of r = 0: far below target, so the
/// // coarse branch fires and m jumps by ρ/r_min.
/// for _ in 0..8 {
///     let m = c.current_m();
///     c.observe(0.0, m);
/// }
/// assert!(c.current_m() > 10);
/// ```
#[derive(Clone, Debug)]
pub struct HybridController {
    p: HybridParams,
    m: usize,
    win: Window,
    last_branch: Option<HybridBranch>,
    adjustments: usize,
}

impl HybridController {
    /// Build with the given parameters (validated).
    pub fn new(p: HybridParams) -> Self {
        p.validate();
        let win_len = Self::window_for(&p, p.m0);
        HybridController {
            m: p.m0,
            win: Window::new(win_len),
            last_branch: None,
            adjustments: 0,
            p,
        }
    }

    /// Construct with the paper's defaults and the given target `ρ`.
    pub fn with_rho(rho: f64) -> Self {
        Self::new(HybridParams {
            rho,
            ..HybridParams::default()
        })
    }

    /// Construct with the Cor. 3 smart start for a graph with `n` nodes
    /// and average degree `d`.
    pub fn with_smart_start(rho: f64, n: usize, d: f64) -> Self {
        let p = HybridParams {
            rho,
            ..HybridParams::default()
        };
        let m0 = clamp_m(smart_initial_m(n, d), p.m_min, p.m_max);
        Self::new(HybridParams { m0, ..p })
    }

    fn window_for(p: &HybridParams, m: usize) -> usize {
        match p.small_m {
            Some(s) if m < s.threshold => s.window,
            _ => p.window,
        }
    }

    fn alpha1_for(&self) -> f64 {
        match self.p.small_m {
            Some(s) if self.m < s.threshold => s.alpha1,
            _ => self.p.alpha1,
        }
    }

    /// The branch taken at the most recent window boundary.
    pub fn last_branch(&self) -> Option<HybridBranch> {
        self.last_branch
    }

    /// How many window-boundary adjustments have occurred.
    pub fn adjustments(&self) -> usize {
        self.adjustments
    }
}

impl Controller for HybridController {
    fn current_m(&self) -> usize {
        self.m
    }

    fn observe(&mut self, r: f64, launched: usize) {
        if launched == 0 {
            return;
        }
        let Some(avg) = self.win.push(r) else {
            return;
        };
        self.adjustments += 1;
        let alpha = (1.0 - avg / self.p.rho).abs();
        let branch = if alpha > self.p.alpha0 {
            let r = avg.max(self.p.r_min);
            let next = (self.p.rho / r * self.m as f64).ceil() as usize;
            self.m = clamp_m(next, self.p.m_min, self.p.m_max);
            HybridBranch::Coarse
        } else if alpha > self.alpha1_for() {
            let next = ((1.0 - avg + self.p.rho) * self.m as f64).ceil() as usize;
            self.m = clamp_m(next, self.p.m_min, self.p.m_max);
            HybridBranch::Fine
        } else {
            HybridBranch::Hold
        };
        self.last_branch = Some(branch);
        // Re-pick the window length for the new regime.
        let w = Self::window_for(&self.p, self.m);
        self.win.resize(w);
    }

    fn target_rho(&self) -> Option<f64> {
        Some(self.p.rho)
    }

    fn name(&self) -> &'static str {
        "hybrid"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(c: &mut dyn Controller, r: f64, rounds: usize) {
        for _ in 0..rounds {
            let m = c.current_m();
            c.observe(r, m);
        }
    }

    #[test]
    fn smart_start_values() {
        assert_eq!(smart_initial_m(2000, 16.0), 58); // 2000/34
        assert_eq!(smart_initial_m(10, 100.0), 2); // floor at 2
        assert_eq!(smart_initial_m(0, 1.0), 2);
    }

    #[test]
    fn fixed_never_moves() {
        let mut c = FixedController::new(7);
        feed(&mut c, 0.9, 20);
        assert_eq!(c.current_m(), 7);
        assert_eq!(c.target_rho(), None);
    }

    #[test]
    fn recurrence_a_steps_up_when_quiet() {
        let mut c = RecurrenceA::new(RecurrenceParams {
            rho: 0.25,
            m0: 100,
            ..RecurrenceParams::default()
        });
        // r = 0 for one window: m ← ceil(1.25·100) = 125.
        feed(&mut c, 0.0, 4);
        assert_eq!(c.current_m(), 125);
    }

    #[test]
    fn recurrence_a_steps_down_when_noisy() {
        let mut c = RecurrenceA::new(RecurrenceParams {
            rho: 0.25,
            m0: 100,
            ..RecurrenceParams::default()
        });
        // r = 0.75: m ← ceil(0.5·100) = 50.
        feed(&mut c, 0.75, 4);
        assert_eq!(c.current_m(), 50);
    }

    #[test]
    fn recurrence_b_jumps() {
        let mut c = RecurrenceB::new(RecurrenceParams {
            rho: 0.25,
            m0: 10,
            ..RecurrenceParams::default()
        });
        // r = 0 clamps to r_min = 3%: m ← ceil(0.25/0.03 · 10) = 84.
        feed(&mut c, 0.0, 4);
        assert_eq!(c.current_m(), 84);
        // Overshoot: r = 0.5 → m ← ceil(0.25/0.5·84) = 42.
        feed(&mut c, 0.5, 4);
        assert_eq!(c.current_m(), 42);
    }

    #[test]
    fn windows_average_not_react_per_round() {
        let mut c = RecurrenceA::new(RecurrenceParams {
            rho: 0.25,
            m0: 100,
            window: 4,
            ..RecurrenceParams::default()
        });
        c.observe(1.0, 100);
        c.observe(1.0, 100);
        c.observe(1.0, 100);
        assert_eq!(c.current_m(), 100, "no change until window fills");
        c.observe(1.0, 100);
        assert!(c.current_m() < 100);
    }

    #[test]
    fn zero_launch_rounds_ignored() {
        let mut c = RecurrenceA::new(RecurrenceParams::default());
        for _ in 0..100 {
            c.observe(1.0, 0);
        }
        assert_eq!(c.current_m(), 2);
    }

    #[test]
    fn hybrid_branches() {
        let mut c = HybridController::new(HybridParams {
            rho: 0.25,
            m0: 100,
            small_m: None,
            ..HybridParams::default()
        });
        // α = |1 − 0.05/0.25| = 0.8 > α₀ → coarse; m ← ceil(0.25/0.05·100).
        feed(&mut c, 0.05, 4);
        assert_eq!(c.last_branch(), Some(HybridBranch::Coarse));
        assert_eq!(c.current_m(), 500);
        // α = |1 − 0.22/0.25| = 0.12 → fine; m ← ceil(1.03·500) = 515.
        feed(&mut c, 0.22, 4);
        assert_eq!(c.last_branch(), Some(HybridBranch::Fine));
        assert_eq!(c.current_m(), 515);
        // α = |1 − 0.26/0.25| = 0.04 ≤ α₁ → hold.
        feed(&mut c, 0.26, 4);
        assert_eq!(c.last_branch(), Some(HybridBranch::Hold));
        assert_eq!(c.current_m(), 515);
    }

    #[test]
    fn hybrid_clamps_to_m_max() {
        let mut c = HybridController::new(HybridParams {
            rho: 0.25,
            m0: 900,
            m_max: 1024,
            small_m: None,
            ..HybridParams::default()
        });
        feed(&mut c, 0.01, 4); // would jump to 22500
        assert_eq!(c.current_m(), 1024);
    }

    #[test]
    fn hybrid_clamps_to_m_min() {
        let mut c = HybridController::new(HybridParams {
            rho: 0.25,
            m0: 2,
            small_m: None,
            ..HybridParams::default()
        });
        feed(&mut c, 0.99, 4); // collapse
        assert_eq!(c.current_m(), 2, "Remark 1: m must stay ≥ 2");
    }

    #[test]
    fn hybrid_small_m_uses_longer_window() {
        let mut c = HybridController::new(HybridParams {
            rho: 0.25,
            m0: 2,
            window: 4,
            small_m: Some(SmallMParams {
                threshold: 20,
                window: 8,
                alpha1: 0.12,
            }),
            ..HybridParams::default()
        });
        // Below threshold: 4 rounds must NOT trigger an adjustment.
        feed(&mut c, 0.0, 4);
        assert_eq!(c.adjustments(), 0);
        feed(&mut c, 0.0, 4);
        assert_eq!(c.adjustments(), 1);
        assert!(c.current_m() > 2);
    }

    #[test]
    fn hybrid_converges_on_synthetic_plant() {
        // Plant: r(m) = min(0.9, m/1000) — linear like Fig. 2's initial
        // segment. ρ = 0.2 → μ = 200.
        let plant = |m: usize| (m as f64 / 1000.0).min(0.9);
        let mut c = HybridController::new(HybridParams {
            rho: 0.2,
            small_m: None,
            ..HybridParams::default()
        });
        let mut hits = 0;
        for t in 0..200 {
            let m = c.current_m();
            c.observe(plant(m), m);
            if t >= 40 {
                let err = (m as f64 - 200.0).abs() / 200.0;
                if err <= 0.10 {
                    hits += 1;
                }
            }
        }
        assert!(hits > 140, "controller failed to settle near μ: {hits}");
    }

    #[test]
    fn hybrid_converges_fast_from_cold_start() {
        // The paper: ~15 rounds to reach μ's neighbourhood. On the
        // noise-free linear plant the coarse branch should get within
        // 10% of μ within 4 window boundaries (16 rounds).
        let plant = |m: usize| (m as f64 / 1000.0).min(0.9);
        let mut c = HybridController::new(HybridParams {
            rho: 0.2,
            small_m: None,
            ..HybridParams::default()
        });
        let mut first_hit = None;
        for t in 1..=200 {
            let m = c.current_m();
            c.observe(plant(m), m);
            if first_hit.is_none() && (c.current_m() as f64 - 200.0).abs() / 200.0 <= 0.10 {
                first_hit = Some(t);
            }
        }
        let t = first_hit.expect("never converged");
        assert!(t <= 16, "took {t} rounds");
    }

    #[test]
    fn recurrence_a_only_is_slower_than_hybrid() {
        // The Fig. 3 comparison in miniature, on the synthetic plant.
        let plant = |m: usize| (m as f64 / 1000.0).min(0.9);
        let steps_to_converge = |c: &mut dyn Controller| -> usize {
            for t in 1..=2000 {
                let m = c.current_m();
                c.observe(plant(m), m);
                if (c.current_m() as f64 - 200.0).abs() / 200.0 <= 0.10 {
                    return t;
                }
            }
            2000
        };
        let mut hybrid = HybridController::new(HybridParams {
            rho: 0.2,
            small_m: None,
            ..HybridParams::default()
        });
        let mut a_only = RecurrenceA::new(RecurrenceParams {
            rho: 0.2,
            ..RecurrenceParams::default()
        });
        let th = steps_to_converge(&mut hybrid);
        let ta = steps_to_converge(&mut a_only);
        assert!(
            th * 3 <= ta,
            "hybrid ({th}) not ≥3× faster than A-only ({ta})"
        );
    }

    #[test]
    #[should_panic(expected = "Remark 1")]
    fn rho_zero_rejected() {
        let _ = HybridController::new(HybridParams {
            rho: 0.0,
            ..HybridParams::default()
        });
    }

    #[test]
    fn names_and_targets() {
        assert_eq!(HybridController::with_rho(0.2).name(), "hybrid");
        assert_eq!(HybridController::with_rho(0.2).target_rho(), Some(0.2));
        assert_eq!(
            HybridController::with_smart_start(0.2, 2000, 16.0).current_m(),
            58
        );
        assert_eq!(
            RecurrenceB::new(RecurrenceParams::default()).name(),
            "recurrence-b"
        );
    }
}
