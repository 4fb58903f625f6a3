#![warn(missing_docs)]

//! # optpar-core — the paper's primary contribution
//!
//! This crate implements everything in *Versaci & Pingali, "Processor
//! Allocation for Optimistic Parallelization of Irregular Programs"*
//! (SPAA'11 brief announcement / ICCSA'12 full version):
//!
//! * [`model`] — the §2 graph-theoretic model of optimistic
//!   parallelization: the computations/conflicts (CC) graph and the
//!   round scheduler that launches `m` uniformly random nodes per
//!   round, commits the greedy permutation-order maximal independent
//!   set, aborts the rest, and removes committed work (optionally
//!   morphing the graph).
//! * [`estimate`] — Monte-Carlo estimators of the conflict ratio
//!   `r̄(m)` (Eq. 1), the expected induced-subgraph MIS size `EM_m`,
//!   and the expected abort count `k̄(m)`, with CLT confidence
//!   intervals.
//! * [`theory`] — the §3 closed forms: Turán's strong bound, the exact
//!   worst-case `EM_m(K_d^n)` of Thm. 3, the asymptotic bound of
//!   Cor. 2, the `α`-parametric bound of Cor. 3, the initial slope of
//!   Prop. 2, the pessimistic expectation `b_m(G)` of Eq. (20), and
//!   finite-difference utilities.
//! * [`control`] — the §4 processor-allocation controllers: Recurrence
//!   A, Recurrence B, the hybrid Algorithm 1 (with windowing,
//!   dead-band, clamping, and the small-`m` parameter split), plus
//!   bisection and fixed baselines.
//! * [`sim`] — closed-loop simulation of controller + scheduler,
//!   producing the traces behind Fig. 3 and the convergence and
//!   tracking tables.
//! * [`dynamics`] — time-varying workloads (phase scripts, ramps) used
//!   to evaluate adaptation speed (§4.1).
//! * [`profile`] — LonStar-style available-parallelism profiles.
//! * [`seating`] — the unfriendly seating problem (§3's connection):
//!   exact path/cycle expectations and the Freedman–Shepp limit.
//! * [`ordered`] — ordered optimistic execution (§5 future work),
//!   where the eager rule makes `b_m` the exact parallelism predictor.

pub mod control;
pub mod dynamics;
pub mod estimate;
pub mod model;
pub mod ordered;
pub mod partition;
pub mod profile;
pub mod seating;
pub mod sim;
pub mod theory;
