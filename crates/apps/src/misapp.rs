//! Maximal independent set as a speculative application.
//!
//! The classic Galois example: one task per node. A task inspects its
//! neighbourhood; if no neighbour is already *in* the set, the node
//! joins and its neighbours are marked *out*. The conflict
//! neighbourhood of a task is the node plus its neighbours, so tasks at
//! graph distance ≤ 2 may conflict — a denser conflict structure than
//! the input graph itself, exactly the kind of amplification optimistic
//! runtimes face in practice.

use optpar_graph::{ConflictGraph, CsrGraph, NodeId};
use optpar_runtime::{Abort, LockSpace, Operator, SpecStore, TaskCtx};

/// Decision state: not yet processed.
pub const UNDECIDED: u8 = 0;
/// Decision state: in the independent set.
pub const IN: u8 = 1;
/// Decision state: excluded (a neighbour is in).
pub const OUT: u8 = 2;

/// The speculative MIS operator.
pub struct MisOp {
    /// The input graph.
    pub graph: CsrGraph,
    /// Per-node decision state.
    pub state: SpecStore<u8>,
}

impl MisOp {
    /// Declare the lock region and build the operator.
    pub fn new(graph: CsrGraph) -> (LockSpace, MisOp) {
        let mut b = LockSpace::builder();
        let r = b.region(graph.node_count());
        let space = b.build();
        let state = SpecStore::filled(r, graph.node_count(), UNDECIDED);
        (space, MisOp { graph, state })
    }

    /// All-nodes initial work-set.
    pub fn initial_tasks(&self) -> Vec<NodeId> {
        (0..self.graph.node_count() as NodeId).collect()
    }

    /// Extract the final decision vector (quiesced).
    pub fn decisions(&mut self) -> Vec<u8> {
        self.state.snapshot()
    }

    /// Validate that `decisions` encodes a maximal independent set of
    /// `graph`.
    pub fn validate(graph: &CsrGraph, decisions: &[u8]) -> Result<(), String> {
        if decisions.contains(&UNDECIDED) {
            return Err("undecided node remains".into());
        }
        let in_set: Vec<NodeId> = decisions
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == IN)
            .map(|(v, _)| v as NodeId)
            .collect();
        if !optpar_graph::mis::is_maximal_independent_set(graph, &in_set) {
            return Err("result is not a maximal independent set".into());
        }
        Ok(())
    }
}

impl Operator for MisOp {
    type Task = NodeId;

    fn execute(&self, &v: &NodeId, cx: &mut TaskCtx<'_>) -> Result<Vec<NodeId>, Abort> {
        let vi = v as usize;
        // Cautious: lock the whole neighbourhood first (self, then
        // neighbours in index order).
        cx.lock(&self.state, vi)?;
        for &w in self.graph.neighbors_slice(v) {
            cx.lock(&self.state, w as usize)?;
        }
        if *cx.read(&self.state, vi)? != UNDECIDED {
            return Ok(vec![]); // decided by an earlier neighbour task
        }
        let mut any_in = false;
        for &w in self.graph.neighbors_slice(v) {
            if *cx.read(&self.state, w as usize)? == IN {
                any_in = true;
                break;
            }
        }
        if any_in {
            *cx.write(&self.state, vi)? = OUT;
        } else {
            *cx.write(&self.state, vi)? = IN;
            for &w in self.graph.neighbors_slice(v) {
                *cx.write(&self.state, w as usize)? = OUT;
            }
        }
        Ok(vec![])
    }
}

/// Sequential reference: greedy MIS in the given node order.
pub fn sequential_mis(graph: &CsrGraph, order: &[NodeId]) -> Vec<u8> {
    let mut state = vec![UNDECIDED; graph.node_count()];
    for &v in order {
        if state[v as usize] != UNDECIDED {
            continue;
        }
        let any_in = graph
            .neighbors_slice(v)
            .iter()
            .any(|&w| state[w as usize] == IN);
        if any_in {
            state[v as usize] = OUT;
        } else {
            state[v as usize] = IN;
            for &w in graph.neighbors_slice(v) {
                state[w as usize] = OUT;
            }
        }
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use optpar_core::control::HybridController;
    use optpar_graph::gen;
    use optpar_runtime::{Executor, ExecutorConfig, WorkSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_mis(g: &CsrGraph, workers: usize, m: usize, seed: u64) -> Vec<u8> {
        let (space, op) = MisOp::new(g.clone());
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
            assert!(rounds < 100_000, "MIS did not terminate");
        }
        let mut op = op;
        op.decisions()
    }

    #[test]
    fn sequential_reference_is_valid() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = gen::random_with_avg_degree(100, 5.0, &mut rng);
        let order: Vec<NodeId> = (0..100).collect();
        let d = sequential_mis(&g, &order);
        MisOp::validate(&g, &d).unwrap();
    }

    #[test]
    fn speculative_single_worker_valid() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = gen::random_with_avg_degree(120, 6.0, &mut rng);
        let d = run_mis(&g, 1, 16, 3);
        MisOp::validate(&g, &d).unwrap();
    }

    #[test]
    fn speculative_parallel_valid() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..3 {
            let g = gen::random_with_avg_degree(300, 8.0, &mut rng);
            let d = run_mis(&g, 8, 48, 5);
            MisOp::validate(&g, &d).unwrap();
        }
    }

    #[test]
    fn edgeless_graph_all_in() {
        let g = CsrGraph::edgeless(40);
        let d = run_mis(&g, 4, 10, 6);
        assert!(d.iter().all(|&s| s == IN));
    }

    #[test]
    fn complete_graph_one_in() {
        let g = gen::complete(20);
        let d = run_mis(&g, 4, 20, 7);
        assert_eq!(d.iter().filter(|&&s| s == IN).count(), 1);
        MisOp::validate(&g, &d).unwrap();
    }

    #[test]
    fn with_adaptive_controller() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = gen::random_with_avg_degree(500, 10.0, &mut rng);
        let (space, op) = MisOp::new(g.clone());
        let ex = Executor::new(&op, &space, ExecutorConfig::default());
        let mut ws = WorkSet::from_vec(op.initial_tasks());
        let mut ctl = HybridController::with_rho(0.25);
        let run = ex.run_with_controller(&mut ws, &mut ctl, 100_000, &mut rng);
        assert!(ws.is_empty());
        assert_eq!(run.total_committed(), 500);
        let mut op = op;
        MisOp::validate(&g, &op.decisions()).unwrap();
    }
}
