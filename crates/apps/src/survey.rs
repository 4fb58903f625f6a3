//! Survey propagation (Braunstein–Mézard–Zecchina) for random k-SAT —
//! the first workload the paper's introduction lists.
//!
//! SP is a message-passing algorithm on the clause/variable factor
//! graph: each clause `a` sends each of its variables `i` a *survey*
//! `η_{a→i} ∈ [0, 1]` — the probability that `a` warns `i` to satisfy
//! it. Updating one clause's outgoing surveys reads the surveys of all
//! clauses sharing a variable with it, so the conflict graph of
//! clause-update tasks is the clause co-occurrence graph: classic
//! amorphous data-parallelism with data-dependent, sparse conflicts.
//!
//! The speculative formulation: one task per clause; a task recomputes
//! its three outgoing surveys and re-spawns its *neighbour clauses*
//! when the surveys moved by more than the tolerance (chaotic
//! relaxation). The fixed point is validated against a sequential
//! Gauss–Seidel reference, and on under-constrained instances
//! convergence to the paramagnetic point (all surveys → 0) is
//! asserted, as predicted by the theory.

use optpar_runtime::{Abort, LockSpace, Operator, SpecStore, TaskCtx};
use rand::Rng;

/// A literal: variable index plus polarity (`neg = true` for `¬x`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lit {
    /// Variable index.
    pub var: u32,
    /// Negated occurrence?
    pub neg: bool,
}

/// A k-SAT formula in fixed-width clause form.
#[derive(Clone, Debug)]
pub struct Formula {
    /// Number of variables (indices `0..num_vars`).
    pub num_vars: usize,
    /// Each clause is `K` literals over distinct variables.
    pub clauses: Vec<[Lit; 3]>,
}

impl Formula {
    /// Uniform random 3-SAT: `m` clauses over `n ≥ 3` variables, each
    /// with three distinct variables and fair-coin polarities.
    pub fn random_3sat<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Formula {
        assert!(n >= 3, "need at least 3 variables");
        let clauses = (0..m)
            .map(|_| {
                let idx = rand::seq::index::sample(rng, n, 3);
                let mut pick = |i: usize| Lit {
                    var: idx.index(i) as u32,
                    neg: rng.random::<bool>(),
                };
                [pick(0), pick(1), pick(2)]
            })
            .collect();
        Formula {
            num_vars: n,
            clauses,
        }
    }

    /// Clause-to-variable occurrence lists: for each variable, the
    /// `(clause, slot)` pairs where it appears.
    pub fn occurrences(&self) -> Vec<Vec<(u32, usize)>> {
        let mut occ = vec![Vec::new(); self.num_vars];
        for (c, clause) in self.clauses.iter().enumerate() {
            for (s, lit) in clause.iter().enumerate() {
                occ[lit.var as usize].push((c as u32, s));
            }
        }
        occ
    }

    /// Neighbouring clauses of each clause (sharing ≥ 1 variable),
    /// deduplicated, self excluded.
    pub fn clause_neighbors(&self) -> Vec<Vec<u32>> {
        let occ = self.occurrences();
        let mut out = vec![Vec::new(); self.clauses.len()];
        for (c, clause) in self.clauses.iter().enumerate() {
            let mut nb: Vec<u32> = clause
                .iter()
                .flat_map(|l| occ[l.var as usize].iter().map(|&(b, _)| b))
                .filter(|&b| b as usize != c)
                .collect();
            nb.sort_unstable();
            nb.dedup();
            out[c] = nb;
        }
        out
    }
}

/// Compute the three outgoing surveys of clause `c`, given a lookup
/// for any clause's current surveys (`get(clause, slot) -> η`).
///
/// The canonical SP update: for each variable `j` of `c`, aggregate
/// the surveys of the *other* clauses containing `j`, split by whether
/// `j` appears there with the same or opposite polarity as in `c`.
fn sp_update(
    formula: &Formula,
    occ: &[Vec<(u32, usize)>],
    c: usize,
    mut get: impl FnMut(u32, usize) -> f64,
) -> [f64; 3] {
    let clause = &formula.clauses[c];
    // For each member variable j, the probability weights that j is
    // forced toward/away from satisfying c.
    let mut forced: [f64; 3] = [0.0; 3];
    for (s, lit) in clause.iter().enumerate() {
        let mut prod_same = 1.0; // ∏ (1 − η) over clauses agreeing with lit
        let mut prod_opp = 1.0; // ∏ (1 − η) over clauses opposing lit
        for &(b, bs) in &occ[lit.var as usize] {
            if b as usize == c {
                continue;
            }
            let eta = get(b, bs);
            let same = formula.clauses[b as usize][bs].neg == lit.neg;
            if same {
                prod_same *= 1.0 - eta;
            } else {
                prod_opp *= 1.0 - eta;
            }
        }
        let pi_u = (1.0 - prod_opp) * prod_same; // forced to violate c
        let pi_s = (1.0 - prod_same) * prod_opp; // forced to satisfy c
        let pi_0 = prod_same * prod_opp; // unconstrained
        let denom = pi_u + pi_s + pi_0;
        forced[s] = if denom > 0.0 { pi_u / denom } else { 0.0 };
    }
    // η_{c→i} = ∏_{j ≠ i} forced[j].
    let mut out = [0.0; 3];
    for (i, o) in out.iter_mut().enumerate() {
        let mut eta = 1.0;
        for (j, &fj) in forced.iter().enumerate() {
            if j != i {
                eta *= fj;
            }
        }
        *o = eta;
    }
    out
}

/// Sequential Gauss–Seidel SP solver (reference implementation).
///
/// Returns `(surveys, sweeps)` on convergence (`max |Δη| < tol`) or
/// `None` if `max_sweeps` is exceeded without converging.
pub fn sp_sequential(
    formula: &Formula,
    tol: f64,
    max_sweeps: usize,
    init: f64,
) -> Option<(Vec<[f64; 3]>, usize)> {
    let occ = formula.occurrences();
    let mut eta = vec![[init; 3]; formula.clauses.len()];
    for sweep in 1..=max_sweeps {
        let mut max_delta = 0.0f64;
        for c in 0..formula.clauses.len() {
            let new = sp_update(formula, &occ, c, |b, s| eta[b as usize][s]);
            for s in 0..3 {
                max_delta = max_delta.max((new[s] - eta[c][s]).abs());
            }
            eta[c] = new;
        }
        if max_delta < tol {
            return Some((eta, sweep));
        }
    }
    None
}

/// Per-variable biases `(plus, minus, zero)` from converged surveys
/// (used by decimation; also a convenient validation surface).
pub fn biases(formula: &Formula, eta: &[[f64; 3]]) -> Vec<(f64, f64, f64)> {
    let occ = formula.occurrences();
    (0..formula.num_vars)
        .map(|v| {
            let mut prod_pos = 1.0; // clauses where v appears positively
            let mut prod_neg = 1.0;
            for &(b, s) in &occ[v] {
                let e = 1.0 - eta[b as usize][s];
                if formula.clauses[b as usize][s].neg {
                    prod_neg *= e;
                } else {
                    prod_pos *= e;
                }
            }
            let pi_plus = (1.0 - prod_pos) * prod_neg;
            let pi_minus = (1.0 - prod_neg) * prod_pos;
            let pi_zero = prod_pos * prod_neg;
            let z = pi_plus + pi_minus + pi_zero;
            if z > 0.0 {
                (pi_plus / z, pi_minus / z, pi_zero / z)
            } else {
                (0.0, 0.0, 1.0)
            }
        })
        .collect()
}

/// The speculative SP operator: one task per clause.
pub struct SurveyOp {
    /// The formula being solved.
    pub formula: Formula,
    occ: Vec<Vec<(u32, usize)>>,
    neighbors: Vec<Vec<u32>>,
    /// Outgoing surveys per clause.
    pub eta: SpecStore<[f64; 3]>,
    /// Convergence tolerance: a task re-spawns its neighbours only if
    /// one of its surveys moved by at least this much.
    pub tol: f64,
}

impl SurveyOp {
    /// Build stores and locks; all surveys start at `init`.
    pub fn new(formula: Formula, tol: f64, init: f64) -> (LockSpace, SurveyOp) {
        let m = formula.clauses.len();
        let mut b = LockSpace::builder();
        let r = b.region(m);
        let space = b.build();
        let occ = formula.occurrences();
        let neighbors = formula.clause_neighbors();
        let eta = SpecStore::filled(r, m, [init; 3]);
        (
            space,
            SurveyOp {
                formula,
                occ,
                neighbors,
                eta,
                tol,
            },
        )
    }

    /// One task per clause.
    pub fn initial_tasks(&self) -> Vec<u32> {
        (0..self.formula.clauses.len() as u32).collect()
    }

    /// Converged surveys (quiesced).
    pub fn surveys(&mut self) -> Vec<[f64; 3]> {
        self.eta.snapshot()
    }
}

impl Operator for SurveyOp {
    type Task = u32;

    fn execute(&self, &c: &u32, cx: &mut TaskCtx<'_>) -> Result<Vec<u32>, Abort> {
        let ci = c as usize;
        // Lock own surveys plus every neighbour's (the read set).
        cx.lock(&self.eta, ci)?;
        for &b in &self.neighbors[ci] {
            cx.lock(&self.eta, b as usize)?;
        }
        // Gather the update inputs under locks.
        let mut cached: Vec<(u32, [f64; 3])> = Vec::with_capacity(self.neighbors[ci].len() + 1);
        cached.push((c, *cx.read(&self.eta, ci)?));
        for &b in &self.neighbors[ci] {
            let v = *cx.read(&self.eta, b as usize)?;
            cached.push((b, v));
        }
        let lookup = |b: u32, s: usize| -> f64 {
            cached
                .iter()
                .find(|&&(x, _)| x == b)
                .map(|&(_, e)| e[s])
                .expect("all read clauses are cached")
        };
        let new = sp_update(&self.formula, &self.occ, ci, lookup);
        let old = *cx.read(&self.eta, ci)?;
        let delta = (0..3)
            .map(|s| (new[s] - old[s]).abs())
            .fold(0.0f64, f64::max);
        if delta < self.tol {
            return Ok(vec![]); // converged locally: quiesce
        }
        *cx.write(&self.eta, ci)? = new;
        // Chaotic relaxation: wake the neighbours (and ourselves, since
        // our own inputs may still be stale).
        let mut spawn = self.neighbors[ci].clone();
        spawn.push(c);
        Ok(spawn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optpar_runtime::{Executor, ExecutorConfig, WorkSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lit(var: u32, neg: bool) -> Lit {
        Lit { var, neg }
    }

    #[test]
    fn random_formula_wellformed() {
        let mut rng = StdRng::seed_from_u64(1);
        let f = Formula::random_3sat(20, 60, &mut rng);
        assert_eq!(f.clauses.len(), 60);
        for c in &f.clauses {
            assert_ne!(c[0].var, c[1].var);
            assert_ne!(c[0].var, c[2].var);
            assert_ne!(c[1].var, c[2].var);
            assert!(c.iter().all(|l| (l.var as usize) < 20));
        }
        let occ = f.occurrences();
        assert_eq!(occ.iter().map(Vec::len).sum::<usize>(), 180);
    }

    #[test]
    fn isolated_clause_has_zero_surveys() {
        // A single clause has no neighbours: every Π^u is 0, so all
        // outgoing surveys are 0 after one update.
        let f = Formula {
            num_vars: 3,
            clauses: vec![[lit(0, false), lit(1, true), lit(2, false)]],
        };
        let (eta, sweeps) = sp_sequential(&f, 1e-12, 10, 0.7).unwrap();
        assert!(sweeps <= 2);
        assert_eq!(eta[0], [0.0; 3]);
    }

    #[test]
    fn two_opposing_clauses_hand_computed() {
        // c0 = (x ∨ y ∨ z), c1 = (¬x ∨ u ∨ v), initial η = 1.
        // After convergence both clauses' surveys go to 0: each
        // variable has at most one opposing clause whose own survey
        // dies because *its* other variables are unconstrained.
        let f = Formula {
            num_vars: 5,
            clauses: vec![
                [lit(0, false), lit(1, false), lit(2, false)],
                [lit(0, true), lit(3, false), lit(4, false)],
            ],
        };
        let (eta, _) = sp_sequential(&f, 1e-12, 50, 1.0).unwrap();
        for e in &eta {
            for &x in e {
                assert!(x.abs() < 1e-9, "{eta:?}");
            }
        }
    }

    #[test]
    fn underconstrained_converges_to_paramagnetic_point() {
        // α = m/n = 1.0 ≪ α_d ≈ 3.9: SP must converge to η ≡ 0.
        let mut rng = StdRng::seed_from_u64(2);
        let f = Formula::random_3sat(100, 100, &mut rng);
        let (eta, _) = sp_sequential(&f, 1e-9, 2000, 0.5).expect("must converge");
        let max = eta
            .iter()
            .flat_map(|e| e.iter())
            .fold(0.0f64, |a, &b| a.max(b));
        assert!(
            max < 1e-6,
            "paramagnetic fixed point expected, max η = {max}"
        );
    }

    #[test]
    fn surveys_stay_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(3);
        let f = Formula::random_3sat(60, 240, &mut rng); // α = 4, near-critical
                                                         // Even without convergence, every intermediate η must stay in
                                                         // [0, 1]; run a bounded number of sweeps.
        let occ = f.occurrences();
        let mut eta = vec![[0.9; 3]; f.clauses.len()];
        for _ in 0..30 {
            for c in 0..f.clauses.len() {
                let new = sp_update(&f, &occ, c, |b, s| eta[b as usize][s]);
                for &x in &new {
                    assert!((0.0..=1.0).contains(&x));
                }
                eta[c] = new;
            }
        }
    }

    #[test]
    fn biases_are_distributions() {
        let mut rng = StdRng::seed_from_u64(4);
        let f = Formula::random_3sat(50, 150, &mut rng);
        let (eta, _) = sp_sequential(&f, 1e-9, 2000, 0.5).unwrap();
        for (p, m, z) in biases(&f, &eta) {
            assert!((p + m + z - 1.0).abs() < 1e-9);
            assert!(p >= 0.0 && m >= 0.0 && z >= 0.0);
        }
    }

    fn run_speculative(f: &Formula, workers: usize, m: usize, seed: u64) -> Vec<[f64; 3]> {
        let (space, op) = SurveyOp::new(f.clone(), 1e-9, 0.5);
        let ex = Executor::new(
            &op,
            &space,
            ExecutorConfig {
                workers,
                ..ExecutorConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ws = WorkSet::from_vec(op.initial_tasks());
        let mut rounds = 0;
        while !ws.is_empty() {
            ex.run_round(&mut ws, m, &mut rng);
            rounds += 1;
            assert!(rounds < 2_000_000, "SP did not quiesce");
        }
        let mut op = op;
        op.surveys()
    }

    #[test]
    fn speculative_matches_sequential_fixed_point() {
        let mut rng = StdRng::seed_from_u64(5);
        let f = Formula::random_3sat(60, 120, &mut rng); // α = 2
        let (seq, _) = sp_sequential(&f, 1e-9, 2000, 0.5).unwrap();
        let spec = run_speculative(&f, 2, 16, 6);
        for (a, b) in seq.iter().zip(&spec) {
            for s in 0..3 {
                assert!(
                    (a[s] - b[s]).abs() < 1e-6,
                    "fixed points differ: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn speculative_parallel_converges() {
        let mut rng = StdRng::seed_from_u64(7);
        let f = Formula::random_3sat(80, 160, &mut rng);
        let spec = run_speculative(&f, 4, 32, 8);
        let max = spec
            .iter()
            .flat_map(|e| e.iter())
            .fold(0.0f64, |a, &b| a.max(b));
        assert!(max < 1e-6, "α = 2 must reach the paramagnetic point");
    }
}
