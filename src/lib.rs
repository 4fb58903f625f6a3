//! # optpar — Processor Allocation for Optimistic Parallelization
//!
//! A production-quality Rust reproduction of *Versaci & Pingali,
//! "Processor Allocation for Optimistic Parallelization of Irregular
//! Programs"* (brief announcement SPAA 2011; full version ICCSA 2012).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`graph`] — graph substrate: CSR/adjacency storage, generators for
//!   the paper's graph families, maximal-independent-set machinery.
//! * [`core`] — the paper's contribution: the computations/conflicts
//!   (CC) graph model, conflict-ratio estimators, worst-case theory
//!   (extended Turán), and the adaptive processor-allocation
//!   controller (Algorithm 1).
//! * [`runtime`] — a from-scratch speculative task runtime (Galois-style
//!   abstract locks, cautious operators that seal before they write,
//!   rollback by lock release) with the controller in the loop.
//! * [`apps`] — irregular applications: Delaunay mesh refinement,
//!   Boruvka MST, agglomerative clustering, maximal independent set,
//!   greedy graph colouring.
//!
//! ## Quickstart
//!
//! ```
//! use optpar::core::control::{Controller, HybridController, HybridParams};
//! use optpar::core::model::RoundScheduler;
//! use optpar::graph::gen;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! // A random CC graph with n = 500 nodes and average degree 8.
//! let g = gen::random_with_avg_degree(500, 8.0, &mut rng);
//! let mut sched = RoundScheduler::new(g.into());
//! let mut ctl = HybridController::new(HybridParams {
//!     rho: 0.20,
//!     ..HybridParams::default()
//! });
//!
//! let mut done = 0usize;
//! while !sched.is_empty() {
//!     let m = ctl.current_m();
//!     let round = sched.run_round(m, &mut rng);
//!     ctl.observe(round.conflict_ratio(), round.launched);
//!     done += round.committed;
//! }
//! assert_eq!(done, 500);
//! ```

pub use optpar_apps as apps;
pub use optpar_core as core;
pub use optpar_graph as graph;
pub use optpar_runtime as runtime;

/// One-stop imports for the common workflow: build a graph, pick a
/// controller, run a scheduler or the speculative runtime.
///
/// ```
/// use optpar::prelude::*;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(3);
/// let g = gen::random_with_avg_degree(200, 6.0, &mut rng);
/// let mut sched = RoundScheduler::from_csr(&g);
/// let mut ctl = HybridController::with_rho(0.25);
/// while !sched.is_empty() {
///     let out = sched.run_round(ctl.current_m(), &mut rng);
///     ctl.observe(out.conflict_ratio(), out.launched);
/// }
/// assert_eq!(sched.total_committed, 200);
/// ```
pub mod prelude {
    pub use optpar_core::control::{Controller, FixedController, HybridController, HybridParams};
    pub use optpar_core::model::RoundScheduler;
    pub use optpar_core::{estimate, theory};
    pub use optpar_graph::{gen, ConflictGraph, CsrGraph};
    pub use optpar_runtime::{
        Abort, Executor, ExecutorConfig, LockSpace, Operator, SpecStore, TaskCtx, WorkSet,
    };
}
