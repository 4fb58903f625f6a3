//! Incremental edge-list builder.
//!
//! Generators and application front-ends accumulate edges here and then
//! freeze into a [`CsrGraph`]. The builder tolerates duplicates,
//! reversed orientations, and self-loops, canonicalizing at build time.

use crate::{CsrGraph, NodeId};

/// Accumulates an undirected edge list and freezes it into a CSR graph.
///
/// # Examples
/// ```
/// use optpar_graph::{GraphBuilder, ConflictGraph};
///
/// let mut b = GraphBuilder::new(3);
/// b.edge(0, 1);
/// b.edge(1, 0); // duplicate, collapsed
/// b.edge(1, 2);
/// let g = b.build();
/// assert_eq!(g.edge_count(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Start a builder for a graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Start a builder with pre-reserved capacity for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Number of nodes the built graph will have.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Record the undirected edge `{u, v}`.
    ///
    /// # Panics
    /// Panics if an endpoint is `>= n`.
    pub fn edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u}, {v}) out of range for {} nodes",
            self.n
        );
        self.edges.push((u, v));
        self
    }

    /// Record a clique over `nodes` (all pairs).
    pub fn clique(&mut self, nodes: &[NodeId]) -> &mut Self {
        for (i, &u) in nodes.iter().enumerate() {
            for &v in &nodes[i + 1..] {
                self.edge(u, v);
            }
        }
        self
    }

    /// Record a simple path `nodes[0] - nodes[1] - ...`.
    pub fn path(&mut self, nodes: &[NodeId]) -> &mut Self {
        for w in nodes.windows(2) {
            self.edge(w[0], w[1]);
        }
        self
    }

    /// Record a cycle over `nodes` (path plus closing edge).
    ///
    /// # Panics
    /// Panics if fewer than 3 nodes are given (shorter cycles would be a
    /// self-loop or duplicate edge).
    pub fn cycle(&mut self, nodes: &[NodeId]) -> &mut Self {
        assert!(nodes.len() >= 3, "a cycle needs at least 3 nodes");
        self.path(nodes);
        self.edge(nodes[nodes.len() - 1], nodes[0]);
        self
    }

    /// Record a star centred on `hub` with the given leaves.
    pub fn star(&mut self, hub: NodeId, leaves: &[NodeId]) -> &mut Self {
        for &l in leaves {
            self.edge(hub, l);
        }
        self
    }

    /// Freeze into an immutable CSR graph (dedups, canonicalizes, drops
    /// self-loops).
    pub fn build(self) -> CsrGraph {
        CsrGraph::from_edges(self.n, &self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConflictGraph;

    #[test]
    fn clique_edge_count() {
        let mut b = GraphBuilder::new(5);
        b.clique(&[0, 1, 2, 3, 4]);
        let g = b.build();
        assert_eq!(g.edge_count(), 10);
        assert_eq!(g.degree(0), 4);
    }

    #[test]
    fn path_and_cycle() {
        let mut b = GraphBuilder::new(4);
        b.path(&[0, 1, 2, 3]);
        let g = b.build();
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(0), 1);

        let mut b = GraphBuilder::new(4);
        b.cycle(&[0, 1, 2, 3]);
        let g = b.build();
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn star_shape() {
        let mut b = GraphBuilder::new(5);
        b.star(0, &[1, 2, 3, 4]);
        let g = b.build();
        assert_eq!(g.degree(0), 4);
        assert_eq!(g.degree(4), 1);
    }

    #[test]
    #[should_panic(expected = "at least 3 nodes")]
    fn tiny_cycle_panics() {
        let mut b = GraphBuilder::new(2);
        b.cycle(&[0, 1]);
    }

    #[test]
    fn chaining() {
        let g = {
            let mut b = GraphBuilder::with_capacity(6, 8);
            b.clique(&[0, 1, 2]).path(&[2, 3, 4]).star(4, &[5]);
            b.build()
        };
        assert_eq!(g.edge_count(), 6);
    }
}
