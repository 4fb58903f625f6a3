//! Maximal matching as a speculative application.
//!
//! One task per edge: if both endpoints are free, match them. The
//! conflict neighbourhood is the two endpoint slots, so the CC graph of
//! tasks is the *line graph* of the input — edges conflict iff they
//! share an endpoint. A minimal, sharply-analyzable workload: the
//! available parallelism is the matching number, and the conflict
//! degree of a task is `deg(u) + deg(v) − 2`.

use optpar_graph::{ConflictGraph, CsrGraph, NodeId};
use optpar_runtime::{Abort, LockSpace, Operator, SpecStore, TaskCtx};

/// Partner value for "unmatched".
pub const FREE: u32 = u32::MAX;

/// The speculative maximal-matching operator.
pub struct MatchingOp {
    /// The input graph.
    pub graph: CsrGraph,
    /// Edge list (task `i` is edge `edges[i]`).
    pub edges: Vec<(NodeId, NodeId)>,
    /// Partner per node (`FREE` when unmatched).
    pub partner: SpecStore<u32>,
}

impl MatchingOp {
    /// Build stores and locks for `graph`.
    pub fn new(graph: CsrGraph) -> (LockSpace, MatchingOp) {
        let n = graph.node_count();
        let mut b = LockSpace::builder();
        let r = b.region(n);
        let space = b.build();
        let partner = SpecStore::filled(r, n, FREE);
        let edges = graph.edge_list();
        (
            space,
            MatchingOp {
                graph,
                edges,
                partner,
            },
        )
    }

    /// One task per edge.
    pub fn initial_tasks(&self) -> Vec<u32> {
        (0..self.edges.len() as u32).collect()
    }

    /// Final partner vector (quiesced).
    pub fn partners(&mut self) -> Vec<u32> {
        self.partner.snapshot()
    }

    /// Validate a *maximal* matching: symmetric partners along real
    /// edges, and no edge with both endpoints free.
    pub fn validate(graph: &CsrGraph, partners: &[u32]) -> Result<(), String> {
        for v in 0..graph.node_count() as NodeId {
            let p = partners[v as usize];
            if p == FREE {
                continue;
            }
            if partners[p as usize] != v {
                return Err(format!("partner of {v} is {p}, but not vice versa"));
            }
            if !graph.has_edge(v, p) {
                return Err(format!("matched pair ({v}, {p}) is not an edge"));
            }
        }
        for (u, v) in graph.edge_list() {
            if partners[u as usize] == FREE && partners[v as usize] == FREE {
                return Err(format!("edge ({u}, {v}) could still be matched"));
            }
        }
        Ok(())
    }

    /// Number of matched pairs in a partner vector.
    pub fn matching_size(partners: &[u32]) -> usize {
        partners.iter().filter(|&&p| p != FREE).count() / 2
    }
}

impl Operator for MatchingOp {
    type Task = u32;

    fn execute(&self, &e: &u32, cx: &mut TaskCtx<'_>) -> Result<Vec<u32>, Abort> {
        let (u, v) = self.edges[e as usize];
        cx.lock(&self.partner, u as usize)?;
        cx.lock(&self.partner, v as usize)?;
        if *cx.read(&self.partner, u as usize)? == FREE
            && *cx.read(&self.partner, v as usize)? == FREE
        {
            *cx.write(&self.partner, u as usize)? = v;
            *cx.write(&self.partner, v as usize)? = u;
        }
        Ok(vec![])
    }
}

/// Sequential reference: greedy maximal matching in edge order.
pub fn sequential_matching(graph: &CsrGraph) -> Vec<u32> {
    let mut partners = vec![FREE; graph.node_count()];
    for (u, v) in graph.edge_list() {
        if partners[u as usize] == FREE && partners[v as usize] == FREE {
            partners[u as usize] = v;
            partners[v as usize] = u;
        }
    }
    partners
}

#[cfg(test)]
mod tests {
    use super::*;
    use optpar_core::control::HybridController;
    use optpar_graph::gen;
    use optpar_runtime::{Executor, ExecutorConfig, WorkSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_matching(g: &CsrGraph, workers: usize, m: usize, seed: u64) -> Vec<u32> {
        let (space, op) = MatchingOp::new(g.clone());
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
        op.partners()
    }

    #[test]
    fn sequential_reference_is_maximal() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = gen::random_with_avg_degree(200, 6.0, &mut rng);
        MatchingOp::validate(&g, &sequential_matching(&g)).unwrap();
    }

    #[test]
    fn speculative_is_maximal_sequential_worker() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = gen::random_with_avg_degree(150, 5.0, &mut rng);
        MatchingOp::validate(&g, &run_matching(&g, 1, 12, 3)).unwrap();
    }

    #[test]
    fn speculative_is_maximal_parallel() {
        let mut rng = StdRng::seed_from_u64(4);
        for trial in 0..3 {
            let g = gen::random_with_avg_degree(400, 8.0, &mut rng);
            let p = run_matching(&g, 6, 48, 10 + trial);
            MatchingOp::validate(&g, &p).unwrap();
            // Any maximal matching is a 2-approximation of maximum:
            // at least half the greedy size.
            let greedy = MatchingOp::matching_size(&sequential_matching(&g));
            let got = MatchingOp::matching_size(&p);
            assert!(2 * got >= greedy, "matching too small: {got} vs {greedy}");
        }
    }

    #[test]
    fn perfect_on_disjoint_edges() {
        // A perfect matching exists and is forced on a disjoint union
        // of K_2s.
        let g = gen::clique_union(40, 1);
        let p = run_matching(&g, 4, 16, 5);
        MatchingOp::validate(&g, &p).unwrap();
        assert_eq!(MatchingOp::matching_size(&p), 20);
    }

    #[test]
    fn star_matches_exactly_one() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        let p = run_matching(&g, 4, 5, 6);
        MatchingOp::validate(&g, &p).unwrap();
        assert_eq!(MatchingOp::matching_size(&p), 1);
    }

    #[test]
    fn empty_graph_trivially_maximal() {
        let g = CsrGraph::edgeless(10);
        let p = run_matching(&g, 2, 4, 7);
        assert!(p.iter().all(|&x| x == FREE));
        MatchingOp::validate(&g, &p).unwrap();
    }

    #[test]
    fn with_adaptive_controller() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = gen::random_with_avg_degree(2000, 8.0, &mut rng);
        let (space, op) = MatchingOp::new(g.clone());
        let ex = Executor::new(&op, &space, ExecutorConfig::default());
        let mut ws = WorkSet::from_vec(op.initial_tasks());
        let mut ctl = HybridController::with_rho(0.25);
        let _ = ex.run_with_controller(&mut ws, &mut ctl, 1_000_000, &mut rng);
        assert!(ws.is_empty());
        let mut op = op;
        MatchingOp::validate(&g, &op.partners()).unwrap();
    }
}
