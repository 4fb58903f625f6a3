//! Greedy graph colouring as a speculative application.
//!
//! One task per node: read the neighbours' colours, take the smallest
//! colour absent from the neighbourhood. Tasks of adjacent nodes
//! conflict (they read/write each other's slots), giving a conflict
//! graph identical to the input graph — the cleanest real workload for
//! comparing against the paper's model.

use optpar_graph::{ConflictGraph, CsrGraph, NodeId};
use optpar_runtime::{Abort, LockSpace, Operator, SpecStore, TaskCtx};

/// Colour value for "not yet coloured".
pub const UNCOLORED: u32 = u32::MAX;

/// The speculative colouring operator.
pub struct ColoringOp {
    /// The graph to colour.
    pub graph: CsrGraph,
    /// Colour per node (`UNCOLORED` until decided).
    pub color: SpecStore<u32>,
}

impl ColoringOp {
    /// Build stores and locks for `graph`.
    pub fn new(graph: CsrGraph) -> (LockSpace, ColoringOp) {
        let mut b = LockSpace::builder();
        let r = b.region(graph.node_count());
        let space = b.build();
        let color = SpecStore::filled(r, graph.node_count(), UNCOLORED);
        (space, ColoringOp { graph, color })
    }

    /// One task per node.
    pub fn initial_tasks(&self) -> Vec<NodeId> {
        (0..self.graph.node_count() as NodeId).collect()
    }

    /// Final colours (quiesced).
    pub fn colors(&mut self) -> Vec<u32> {
        self.color.snapshot()
    }

    /// Validate a proper colouring with at most `Δ + 1` colours.
    pub fn validate(graph: &CsrGraph, colors: &[u32]) -> Result<(), String> {
        let maxdeg = graph.max_degree() as u32;
        for v in 0..graph.node_count() as NodeId {
            let cv = colors[v as usize];
            if cv == UNCOLORED {
                return Err(format!("node {v} uncoloured"));
            }
            if cv > maxdeg {
                return Err(format!("node {v} uses colour {cv} > Δ = {maxdeg}"));
            }
            for &w in graph.neighbors_slice(v) {
                if colors[w as usize] == cv {
                    return Err(format!("edge ({v}, {w}) monochromatic ({cv})"));
                }
            }
        }
        Ok(())
    }
}

impl Operator for ColoringOp {
    type Task = NodeId;

    fn execute(&self, &v: &NodeId, cx: &mut TaskCtx<'_>) -> Result<Vec<NodeId>, Abort> {
        let vi = v as usize;
        cx.lock(&self.color, vi)?;
        for &w in self.graph.neighbors_slice(v) {
            cx.lock(&self.color, w as usize)?;
        }
        if *cx.read(&self.color, vi)? != UNCOLORED {
            return Ok(vec![]); // idempotent re-execution
        }
        // Gather neighbour colours; degree is small, a bitset-in-vec
        // suffices.
        let deg = self.graph.degree(v);
        let mut used = vec![false; deg + 1];
        for &w in self.graph.neighbors_slice(v) {
            let c = *cx.read(&self.color, w as usize)?;
            if (c as usize) < used.len() {
                used[c as usize] = true;
            }
        }
        let c = used.iter().position(|&u| !u).expect("d+1 colours suffice") as u32;
        *cx.write(&self.color, vi)? = c;
        Ok(vec![])
    }
}

/// Sequential reference: greedy colouring in the given order.
pub fn sequential_coloring(graph: &CsrGraph, order: &[NodeId]) -> Vec<u32> {
    let mut colors = vec![UNCOLORED; graph.node_count()];
    for &v in order {
        let deg = graph.degree(v);
        let mut used = vec![false; deg + 1];
        for &w in graph.neighbors_slice(v) {
            let c = colors[w as usize];
            if (c as usize) < used.len() {
                used[c as usize] = true;
            }
        }
        colors[v as usize] = used.iter().position(|&u| !u).unwrap() as u32;
    }
    colors
}

#[cfg(test)]
mod tests {
    use super::*;
    use optpar_graph::gen;
    use optpar_runtime::{Executor, ExecutorConfig, WorkSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_coloring(g: &CsrGraph, workers: usize, m: usize, seed: u64) -> Vec<u32> {
        let (space, op) = ColoringOp::new(g.clone());
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
        while !ws.is_empty() {
            ex.run_round(&mut ws, m, &mut rng);
        }
        let mut op = op;
        op.colors()
    }

    #[test]
    fn sequential_reference_proper() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = gen::random_with_avg_degree(150, 7.0, &mut rng);
        let order: Vec<NodeId> = (0..150).collect();
        ColoringOp::validate(&g, &sequential_coloring(&g, &order)).unwrap();
    }

    #[test]
    fn speculative_proper_sequential_worker() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = gen::random_with_avg_degree(100, 6.0, &mut rng);
        ColoringOp::validate(&g, &run_coloring(&g, 1, 12, 3)).unwrap();
    }

    #[test]
    fn speculative_proper_parallel() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = gen::random_with_avg_degree(400, 10.0, &mut rng);
        ColoringOp::validate(&g, &run_coloring(&g, 8, 64, 5)).unwrap();
    }

    #[test]
    fn bipartite_uses_two_colors() {
        // Even cycle: chromatic number 2; greedy may use 2 (it cannot
        // exceed Δ+1 = 3, and on a cycle the greedy first-fit uses ≤ 3).
        let g = {
            let mut b = optpar_graph::GraphBuilder::new(20);
            let nodes: Vec<NodeId> = (0..20).collect();
            b.cycle(&nodes);
            b.build()
        };
        let colors = run_coloring(&g, 4, 8, 6);
        ColoringOp::validate(&g, &colors).unwrap();
        assert!(colors.iter().all(|&c| c <= 2));
    }

    #[test]
    fn complete_graph_uses_n_colors() {
        let g = gen::complete(10);
        let colors = run_coloring(&g, 4, 10, 7);
        ColoringOp::validate(&g, &colors).unwrap();
        let mut sorted = colors.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn grid_stays_within_five_colors() {
        let g = gen::grid(12, 12);
        let colors = run_coloring(&g, 4, 30, 8);
        ColoringOp::validate(&g, &colors).unwrap();
        assert!(colors.iter().all(|&c| c <= 4), "grid Δ = 4");
    }
}
