#![warn(missing_docs)]

//! # optpar-apps — irregular applications on the speculative runtime
//!
//! The workloads the paper's introduction motivates, each with a
//! sequential reference implementation (the correctness oracle), a
//! speculative [`Operator`](optpar_runtime::Operator), and validation
//! of the algorithm-specific invariants:
//!
//! * [`delaunay`] — Delaunay mesh refinement (the paper's flagship),
//!   on a from-scratch Bowyer–Watson [`triangulation`] substrate with
//!   its own [`geometry`] predicates.
//! * [`boruvka`] — Boruvka's minimum-spanning-tree algorithm by
//!   speculative component contraction (validated against Kruskal).
//! * [`clustering`] — agglomerative clustering by mutual-nearest-
//!   neighbour merging over a k-NN candidate graph.
//! * [`misapp`] — maximal independent set.
//! * [`coloring`] — greedy graph colouring.
//! * [`matching`] — maximal matching (tasks on the line graph).
//! * [`sssp`] — single-source shortest paths by speculative
//!   delta-stepping with lazy deletion (validated against Dijkstra).
//! * [`preflow`] — Goldberg–Tarjan preflow-push maximum flow
//!   (validated against Edmonds–Karp).
//! * [`survey`] — survey propagation for random 3-SAT (validated
//!   against a sequential Gauss–Seidel fixed point).
//! * [`ccmirror`] — the differential-testing bridge: an operator whose
//!   conflicts mirror an explicit CC graph exactly, so runtime rounds
//!   can be checked against the abstract model in `optpar-core`.

pub mod boruvka;
pub mod ccmirror;
pub mod clustering;
pub mod coloring;
pub mod delaunay;
pub mod geometry;
pub mod matching;
pub mod misapp;
pub mod preflow;
pub mod sssp;
pub mod survey;
pub mod triangulation;
