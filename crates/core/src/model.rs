//! The §2 model of optimistic parallelization.
//!
//! A [`RoundScheduler`] owns a computations/conflicts (CC) graph. Each
//! round it draws `m` live nodes uniformly at random (a random
//! permutation prefix), commits the greedy permutation-order maximal
//! independent set of the induced subgraph, aborts the rest, removes
//! the committed nodes from the graph, and optionally lets a
//! [`Morph`] policy mutate the neighbourhood (new work, new
//! conflicts) — exactly the abstract machine of Fig. 1.
//!
//! The scheduler reports per-round statistics ([`RoundOutcome`]) whose
//! `conflict_ratio` feeds the controllers in [`crate::control`].

use optpar_graph::{AdjGraph, ConflictGraph, CsrGraph, NodeId};
use rand::Rng;

/// Per-round result of the abstract scheduler.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundOutcome {
    /// How many nodes were launched (`min(m, live)`).
    pub launched: usize,
    /// How many committed (size of the greedy prefix MIS).
    pub committed: usize,
    /// How many aborted (`launched − committed`), the paper's `k`.
    pub aborted: usize,
    /// The committed nodes, in commit order (ids refer to the CC graph
    /// *before* removal).
    pub commits: Vec<NodeId>,
}

impl RoundOutcome {
    /// The realized conflict ratio `r = k/m ∈ [0, 1)` (Eq. 1's sample).
    /// Zero when nothing was launched.
    pub fn conflict_ratio(&self) -> f64 {
        if self.launched == 0 {
            0.0
        } else {
            self.aborted as f64 / self.launched as f64
        }
    }
}

/// A graph-morphing policy invoked once per committed node.
///
/// Irregular algorithms add and remove work as they run (Delaunay
/// refinement replaces a cavity with fresh triangles, some of them
/// bad). The policy sees the graph *after* the committed node was
/// removed and may add nodes/edges to model that churn.
pub trait Morph {
    /// `v` just committed and has been removed; `nbrs` were its
    /// neighbours at commit time (all still live unless they also
    /// committed this round and were removed first).
    fn on_commit<R: Rng + ?Sized>(
        &mut self,
        g: &mut AdjGraph,
        v: NodeId,
        nbrs: &[NodeId],
        rng: &mut R,
    );
}

/// The no-op morph: the CC graph only shrinks (work-set drains).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoMorph;

impl Morph for NoMorph {
    fn on_commit<R: Rng + ?Sized>(&mut self, _: &mut AdjGraph, _: NodeId, _: &[NodeId], _: &mut R) {
    }
}

/// Refinement-style morph: each commit spawns `Binomial(spawn_max,
/// spawn_p)`-ish children (sampled as independent coin flips), each
/// wired to a random subset of the committed node's old neighbourhood
/// and to its siblings — a lightweight stand-in for cavity
/// retriangulation churn.
#[derive(Clone, Copy, Debug)]
pub struct RefinementMorph {
    /// Maximum children per commit.
    pub spawn_max: usize,
    /// Probability of each potential child materializing.
    pub spawn_p: f64,
    /// Probability that a child inherits each old-neighbour conflict.
    pub inherit_p: f64,
}

impl Default for RefinementMorph {
    fn default() -> Self {
        RefinementMorph {
            spawn_max: 2,
            spawn_p: 0.3,
            inherit_p: 0.5,
        }
    }
}

impl Morph for RefinementMorph {
    fn on_commit<R: Rng + ?Sized>(
        &mut self,
        g: &mut AdjGraph,
        _v: NodeId,
        nbrs: &[NodeId],
        rng: &mut R,
    ) {
        let mut children: Vec<NodeId> = Vec::with_capacity(self.spawn_max);
        for _ in 0..self.spawn_max {
            if rng.random::<f64>() < self.spawn_p {
                children.push(g.add_node());
            }
        }
        for (i, &a) in children.iter().enumerate() {
            for &b in &children[i + 1..] {
                g.add_edge(a, b);
            }
            for &w in nbrs {
                if g.is_alive(w) && rng.random::<f64>() < self.inherit_p {
                    g.add_edge(a, w);
                }
            }
        }
    }
}

/// The round-based scheduler over a CC graph (the paper's abstract
/// machine).
///
/// # Examples
/// ```
/// use optpar_core::model::RoundScheduler;
/// use optpar_graph::gen;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let g = gen::random_with_avg_degree(100, 4.0, &mut rng);
/// let mut sched = RoundScheduler::new(g.into());
/// let out = sched.run_round(10, &mut rng);
/// assert_eq!(out.launched, 10);
/// assert_eq!(out.committed + out.aborted, 10);
/// assert_eq!(sched.live_nodes(), 100 - out.committed);
/// ```
#[derive(Clone, Debug)]
pub struct RoundScheduler {
    graph: AdjGraph,
    /// Scratch list of live node ids, refreshed lazily.
    pool: Vec<NodeId>,
    pool_dirty: bool,
    /// Total tasks launched across all rounds.
    pub total_launched: usize,
    /// Total commits across all rounds.
    pub total_committed: usize,
    /// Total aborts across all rounds.
    pub total_aborted: usize,
    /// Number of rounds executed.
    pub rounds: usize,
}

impl RoundScheduler {
    /// Wrap a CC graph.
    pub fn new(graph: AdjGraph) -> Self {
        RoundScheduler {
            pool: Vec::new(),
            pool_dirty: true,
            graph,
            total_launched: 0,
            total_committed: 0,
            total_aborted: 0,
            rounds: 0,
        }
    }

    /// Build directly from a static graph.
    pub fn from_csr(g: &CsrGraph) -> Self {
        Self::new(AdjGraph::from_csr(g))
    }

    /// Live (pending) computations.
    pub fn live_nodes(&self) -> usize {
        self.graph.node_count()
    }

    /// Is the work-set drained?
    pub fn is_empty(&self) -> bool {
        self.graph.node_count() == 0
    }

    /// Borrow the underlying CC graph.
    pub fn graph(&self) -> &AdjGraph {
        &self.graph
    }

    /// Average degree of the current CC graph.
    pub fn average_degree(&self) -> f64 {
        self.graph.average_degree()
    }

    /// Run one round launching `m` nodes (clamped to the live count)
    /// with no morphing.
    pub fn run_round<R: Rng + ?Sized>(&mut self, m: usize, rng: &mut R) -> RoundOutcome {
        self.run_round_morph(m, &mut NoMorph, rng)
    }

    /// Run one round with a morph policy.
    ///
    /// Semantics follow §2 exactly:
    /// 1. Draw `min(m, live)` distinct live nodes uniformly at random;
    ///    their draw order is the commit order `π_m`.
    /// 2. A node commits iff no neighbour of it committed earlier in
    ///    the order; otherwise it aborts (and, per the paper, an abort
    ///    does not block later nodes).
    /// 3. Committed nodes are removed; `morph.on_commit` runs for each.
    pub fn run_round_morph<R: Rng + ?Sized, M: Morph>(
        &mut self,
        m: usize,
        morph: &mut M,
        rng: &mut R,
    ) -> RoundOutcome {
        self.refresh_pool();
        let live = self.pool.len();
        let m = m.min(live);
        // Partial Fisher-Yates: the first m entries become a uniform
        // random ordered sample without replacement.
        for i in 0..m {
            let j = rng.random_range(i..live);
            self.pool.swap(i, j);
        }
        let prefix: Vec<NodeId> = self.pool[..m].to_vec();

        // Greedy permutation-order commit rule on the *live* graph.
        let mut committed_flag = vec![false; self.graph.capacity()];
        let mut commits = Vec::new();
        'outer: for &v in &prefix {
            for &w in self.graph.neighbors_slice(v) {
                if committed_flag[w as usize] {
                    continue 'outer; // conflict with a committed node
                }
            }
            committed_flag[v as usize] = true;
            commits.push(v);
        }

        // Remove committed nodes and morph.
        for &v in &commits {
            let nbrs: Vec<NodeId> = self.graph.neighbors_slice(v).to_vec();
            self.graph.remove_node(v);
            morph.on_commit(&mut self.graph, v, &nbrs, rng);
        }
        self.pool_dirty = true;

        let committed = commits.len();
        let out = RoundOutcome {
            launched: m,
            committed,
            aborted: m - committed,
            commits,
        };
        self.total_launched += out.launched;
        self.total_committed += out.committed;
        self.total_aborted += out.aborted;
        self.rounds += 1;
        out
    }

    /// Overall wasted-work fraction so far (`Σk / Σm`).
    pub fn cumulative_conflict_ratio(&self) -> f64 {
        if self.total_launched == 0 {
            0.0
        } else {
            self.total_aborted as f64 / self.total_launched as f64
        }
    }

    fn refresh_pool(&mut self) {
        if self.pool_dirty {
            self.pool = self.graph.live_nodes_vec();
            self.pool_dirty = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optpar_graph::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn drains_completely() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = gen::random_with_avg_degree(200, 6.0, &mut rng);
        let mut s = RoundScheduler::from_csr(&g);
        let mut safety = 0;
        while !s.is_empty() {
            let out = s.run_round(16, &mut rng);
            assert!(out.committed >= 1, "a nonempty round must commit ≥ 1");
            safety += 1;
            assert!(safety < 10_000);
        }
        assert_eq!(s.total_committed, 200);
        assert_eq!(s.total_launched, s.total_committed + s.total_aborted);
    }

    #[test]
    fn edgeless_graph_never_aborts() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut s = RoundScheduler::from_csr(&optpar_graph::CsrGraph::edgeless(50));
        let out = s.run_round(50, &mut rng);
        assert_eq!(out.committed, 50);
        assert_eq!(out.aborted, 0);
        assert_eq!(out.conflict_ratio(), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn complete_graph_commits_one_per_round() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = RoundScheduler::from_csr(&gen::complete(10));
        for live in (1..=10).rev() {
            assert_eq!(s.live_nodes(), live);
            let out = s.run_round(10, &mut rng);
            assert_eq!(out.committed, 1);
            assert_eq!(out.launched, live);
        }
        assert!(s.is_empty());
    }

    #[test]
    fn m_clamped_to_live() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut s = RoundScheduler::from_csr(&optpar_graph::CsrGraph::edgeless(3));
        let out = s.run_round(100, &mut rng);
        assert_eq!(out.launched, 3);
        let out = s.run_round(100, &mut rng);
        assert_eq!(out.launched, 0);
        assert_eq!(out.conflict_ratio(), 0.0);
    }

    #[test]
    fn commits_form_maximal_is_of_induced_subgraph() {
        // Fig. 1 (iii): committed set is a maximal IS of the subgraph
        // induced by the launched nodes. Check against the pre-round
        // snapshot.
        let mut rng = StdRng::seed_from_u64(5);
        let g = gen::random_with_avg_degree(80, 5.0, &mut rng);
        let mut s = RoundScheduler::from_csr(&g);
        for _ in 0..5 {
            let (snap, map) = s.graph().to_csr_compact();
            let out = s.run_round(20, &mut rng);
            if out.launched == 0 {
                break;
            }
            let commits_mapped: Vec<_> = out
                .commits
                .iter()
                .map(|&v| map[v as usize].unwrap())
                .collect();
            assert!(optpar_graph::mis::is_independent_set(
                &snap,
                &commits_mapped
            ));
        }
    }

    #[test]
    fn refinement_morph_adds_work() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = gen::random_with_avg_degree(100, 4.0, &mut rng);
        let mut s = RoundScheduler::from_csr(&g);
        let mut morph = RefinementMorph {
            spawn_max: 3,
            spawn_p: 1.0,
            inherit_p: 0.5,
        };
        let before = s.live_nodes();
        let out = s.run_round_morph(10, &mut morph, &mut rng);
        // Every commit removes 1 node and adds exactly 3.
        assert_eq!(s.live_nodes(), before - out.committed + 3 * out.committed);
        s.graph().check_invariants().unwrap();
    }

    #[test]
    fn morph_keeps_graph_consistent_over_many_rounds() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = gen::random_with_avg_degree(150, 6.0, &mut rng);
        let mut s = RoundScheduler::from_csr(&g);
        let mut morph = RefinementMorph::default();
        for _ in 0..30 {
            if s.is_empty() {
                break;
            }
            s.run_round_morph(12, &mut morph, &mut rng);
            s.graph().check_invariants().unwrap();
        }
    }

    #[test]
    fn cumulative_ratio_tracks_totals() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut s = RoundScheduler::from_csr(&gen::complete(6));
        s.run_round(6, &mut rng); // 1 commit, 5 aborts
        assert!((s.cumulative_conflict_ratio() - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn launch_order_is_uniform_enough() {
        // With m = 1 on a 2-clique + isolated node, the isolated node
        // is drawn 1/3 of the time, so over rounds its commit frequency
        // is ~1/3 (sanity check on the partial Fisher-Yates sampling).
        let mut rng = StdRng::seed_from_u64(9);
        let g = gen::cliques_plus_isolated(1, 2, 1);
        let mut iso_first = 0;
        let trials = 3000;
        for _ in 0..trials {
            let mut s = RoundScheduler::from_csr(&g);
            let out = s.run_round(1, &mut rng);
            if out.commits == vec![2] {
                iso_first += 1;
            }
        }
        let f = iso_first as f64 / trials as f64;
        assert!((f - 1.0 / 3.0).abs() < 0.04, "frequency {f}");
    }
}
