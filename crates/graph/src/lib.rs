#![warn(missing_docs)]

//! Graph substrate for the *optpar* workspace.
//!
//! This crate provides every graph-shaped building block the paper
//! ["Processor Allocation for Optimistic Parallelization of Irregular
//! Programs" (Versaci & Pingali)] needs:
//!
//! * [`CsrGraph`] — a compact, immutable compressed-sparse-row graph used
//!   for analysis (conflict-ratio estimation, independent-set theory).
//! * [`AdjGraph`] — a mutable adjacency graph supporting node/edge
//!   insertion and removal, used by the round-based scheduler where
//!   committed computations are removed from the
//!   computations/conflicts (CC) graph and new ones may be added
//!   ("morphing").
//! * [`gen`] — generators for all graph families the paper evaluates:
//!   uniform random graphs `G(n, m)` (Fig. 2 ii), the worst-case
//!   clique-union `K_d^n` (Thm. 2/3), unions of cliques and isolated
//!   nodes (Fig. 2 iii, Example 1), meshes (the unfriendly-seating
//!   setting), and preferential-attachment graphs (skewed degrees).
//! * [`mis`] — maximal-independent-set machinery: the greedy
//!   random-permutation MIS of Turán's strong theorem, the
//!   permutation-prefix commit rule of the paper's §2 model, and exact
//!   expectation computations (`EM_m`) for small graphs used as test
//!   oracles.
//! * [`stats`] — degree statistics and graph summaries.
//!
//! All randomized entry points take an explicit [`rand::Rng`] so every
//! downstream experiment is reproducible from a seed.

pub mod adj;
pub mod builder;
pub mod csr;
pub mod gen;
pub mod mis;
pub mod stats;

pub use adj::AdjGraph;
pub use builder::GraphBuilder;
pub use csr::CsrGraph;

/// Node identifier used across the workspace.
///
/// `u32` comfortably covers the problem sizes of the paper (thousands
/// to millions of nodes) at half the memory of `usize` on 64-bit.
pub type NodeId = u32;

/// A read-only conflict-graph interface.
///
/// The paper's model (§2) only ever asks two questions of the CC graph:
/// how many nodes are there, and who are the neighbours of a node. Both
/// [`CsrGraph`] and [`AdjGraph`] implement this, so the scheduler model
/// and the estimators in `optpar-core` are generic over storage.
pub trait ConflictGraph {
    /// Number of nodes currently in the graph (for [`AdjGraph`], the
    /// number of *live* nodes).
    fn node_count(&self) -> usize;

    /// Number of undirected edges currently in the graph.
    fn edge_count(&self) -> usize;

    /// Iterate over the identifiers of all live nodes.
    fn nodes(&self) -> Box<dyn Iterator<Item = NodeId> + '_>;

    /// Iterate over the neighbours of `v`.
    ///
    /// # Panics
    /// May panic if `v` is not a live node of the graph.
    fn neighbors(&self, v: NodeId) -> Box<dyn Iterator<Item = NodeId> + '_>;

    /// Degree of `v` (count of live neighbours).
    fn degree(&self, v: NodeId) -> usize;

    /// `true` iff `u` and `v` are adjacent.
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).any(|w| w == v)
    }

    /// Average degree `d = 2|E| / |V|`, the quantity driving every bound
    /// in §3 of the paper. Returns 0 for the empty graph.
    fn average_degree(&self) -> f64 {
        let n = self.node_count();
        if n == 0 {
            0.0
        } else {
            2.0 * self.edge_count() as f64 / n as f64
        }
    }
}
