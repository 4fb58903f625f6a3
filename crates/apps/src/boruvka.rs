//! Boruvka's minimum-spanning-forest algorithm by speculative
//! component contraction.
//!
//! One task per live component: find the component's minimum-weight
//! outgoing edge (safe to add by the cut property) and contract it,
//! merging the smaller endpoint-component into the larger. The conflict
//! neighbourhood — the two components plus the representative pointers
//! of the absorbed side — grows as components coarsen, so available
//! parallelism *shrinks* over the run: the mirror image of Delaunay
//! refinement's growth, and a good stressor for the allocation
//! controller.
//!
//! Weights must be distinct for a unique MSF; [`WeightedGraph::random`]
//! guarantees this by construction. Validated against Kruskal.

use optpar_graph::{ConflictGraph, CsrGraph, NodeId};
use optpar_runtime::{Abort, LockSpace, Operator, SpecStore, TaskCtx};
use rand::seq::SliceRandom;
use rand::Rng;

/// An undirected graph with distinct edge weights.
#[derive(Clone, Debug)]
pub struct WeightedGraph {
    /// The underlying simple graph.
    pub graph: CsrGraph,
    /// `weights[i]` belongs to `graph.edge_list()[i]`.
    pub weights: Vec<u64>,
}

impl WeightedGraph {
    /// Attach a random permutation of `0..m` as weights (distinct by
    /// construction).
    pub fn random<R: Rng + ?Sized>(graph: CsrGraph, rng: &mut R) -> Self {
        let m = graph.edge_count();
        let mut weights: Vec<u64> = (0..m as u64).collect();
        weights.shuffle(rng);
        WeightedGraph { graph, weights }
    }

    /// Weighted edge list `(u, v, w)`.
    pub fn weighted_edges(&self) -> Vec<(NodeId, NodeId, u64)> {
        self.graph
            .edge_list()
            .into_iter()
            .zip(&self.weights)
            .map(|((u, v), &w)| (u, v, w))
            .collect()
    }

    /// Kruskal reference: total weight and edge count of the minimum
    /// spanning forest.
    pub fn kruskal(&self) -> (u64, usize) {
        let mut edges = self.weighted_edges();
        edges.sort_unstable_by_key(|&(_, _, w)| w);
        let mut dsu = Dsu::new(self.graph.node_count());
        let mut total = 0u64;
        let mut count = 0usize;
        for (u, v, w) in edges {
            if dsu.union(u as usize, v as usize) {
                total += w;
                count += 1;
            }
        }
        (total, count)
    }
}

/// Plain union-find for the sequential reference.
pub struct Dsu {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl Dsu {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
            rank: vec![0; n],
        }
    }

    /// Representative of `x`'s set (with path compression).
    pub fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    /// Union by rank; returns `true` if the sets were distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
        true
    }
}

/// A live component during contraction.
#[derive(Clone, Debug, Default)]
pub struct Comp {
    /// Dead components were absorbed by a merge.
    pub alive: bool,
    /// Original node ids belonging to this component.
    pub members: Vec<u32>,
    /// Candidate outgoing edges `(u, v, w)`, sorted ascending by
    /// weight; may contain stale intra-component edges, cleaned lazily.
    pub edges: Vec<(u32, u32, u64)>,
    /// MSF edges chosen by merges into this component.
    pub msf: Vec<(u32, u32, u64)>,
    /// Set when the component has no outgoing edges left.
    pub done: bool,
}

/// The speculative Boruvka operator.
pub struct BoruvkaOp {
    /// node → current component representative (a node id).
    pub repr: SpecStore<u32>,
    /// Component payload, indexed by representative node id.
    pub comp: SpecStore<Comp>,
}

impl BoruvkaOp {
    /// Build stores and locks for `wg` (one component per node).
    pub fn new(wg: &WeightedGraph) -> (LockSpace, BoruvkaOp) {
        let n = wg.graph.node_count();
        let mut b = LockSpace::builder();
        let r_repr = b.region(n);
        let r_comp = b.region(n);
        let space = b.build();

        let mut comps: Vec<Comp> = (0..n)
            .map(|v| Comp {
                alive: true,
                members: vec![v as u32],
                edges: Vec::new(),
                msf: Vec::new(),
                done: false,
            })
            .collect();
        for (u, v, w) in wg.weighted_edges() {
            comps[u as usize].edges.push((u, v, w));
            comps[v as usize].edges.push((v, u, w));
        }
        for c in &mut comps {
            c.edges.sort_unstable_by_key(|&(_, _, w)| w);
        }
        let repr = SpecStore::new(r_repr, (0..n as u32).collect(), n);
        let comp = SpecStore::new(r_comp, comps, n);
        (space, BoruvkaOp { repr, comp })
    }

    /// One task per initial component (= node).
    pub fn initial_tasks(&self) -> Vec<u32> {
        (0..self.comp.len() as u32).collect()
    }

    /// Collect the final MSF: total weight and edge count (quiesced).
    pub fn msf(&mut self) -> (u64, usize) {
        let mut total = 0u64;
        let mut count = 0usize;
        let n = self.comp.len();
        for i in 0..n {
            let c = self.comp.get_mut(i);
            if c.alive {
                for &(_, _, w) in &c.msf {
                    total += w;
                    count += 1;
                }
            }
        }
        (total, count)
    }
}

impl Operator for BoruvkaOp {
    type Task = u32;

    // FOOTPRINT-UNBOUNDED: component merge locks every member of the loser component, whose size is runtime state
    fn execute(&self, &c: &u32, cx: &mut TaskCtx<'_>) -> Result<Vec<u32>, Abort> {
        let ci = c as usize;
        cx.lock(&self.comp, ci)?;
        {
            let me = cx.read(&self.comp, ci)?;
            if !me.alive || me.done {
                return Ok(vec![]); // stale task from an earlier merge
            }
        }
        // Find the minimum-weight genuinely-outgoing edge. Edges are
        // sorted, so scan from the front; repr reads require locks.
        let mut best: Option<(u32, u32, u64, u32)> = None; // (u, v, w, other_rep)
        let mut stale_prefix = 0usize;
        let edges: Vec<(u32, u32, u64)> = cx.read(&self.comp, ci)?.edges.clone();
        for &(u, v, w) in &edges {
            cx.lock(&self.repr, v as usize)?;
            let rv = *cx.read(&self.repr, v as usize)?;
            if rv == c {
                stale_prefix += 1; // intra-component; clean up below
                continue;
            }
            best = Some((u, v, w, rv));
            break;
        }
        let Some((u, v, w, other)) = best else {
            // No outgoing edges: this component is a finished tree.
            let me = cx.write(&self.comp, ci)?;
            me.edges.clear();
            me.done = true;
            return Ok(vec![]);
        };
        let oi = other as usize;
        cx.lock(&self.comp, oi)?;
        debug_assert!(cx.read(&self.comp, oi)?.alive, "repr points to dead comp");

        // Merge smaller into larger (small-to-large keeps total repr
        // rewrites O(n log n)).
        let my_size = cx.read(&self.comp, ci)?.members.len();
        let other_size = cx.read(&self.comp, oi)?.members.len();
        let (win, lose) = if my_size >= other_size {
            (ci, oi)
        } else {
            (oi, ci)
        };
        // Detach the loser.
        let (lose_members, lose_edges, lose_msf) = {
            let l = cx.write(&self.comp, lose)?;
            l.alive = false;
            (
                std::mem::take(&mut l.members),
                std::mem::take(&mut l.edges),
                std::mem::take(&mut l.msf),
            )
        };
        // Re-point the loser's members.
        for &mem in &lose_members {
            cx.lock(&self.repr, mem as usize)?;
            *cx.write(&self.repr, mem as usize)? = win as u32;
        }
        // Absorb into the winner.
        {
            let wr = cx.write(&self.comp, win)?;
            // Drop the known-stale prefix of our own list if we are the
            // winner and it is still accurate (c == win).
            if win == ci && stale_prefix > 0 {
                wr.edges.drain(..stale_prefix.min(wr.edges.len()));
            }
            wr.members.extend(lose_members);
            // Merge sorted edge lists.
            let mut merged = Vec::with_capacity(wr.edges.len() + lose_edges.len());
            let (a, b) = (&wr.edges, &lose_edges);
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                if a[i].2 <= b[j].2 {
                    merged.push(a[i]);
                    i += 1;
                } else {
                    merged.push(b[j]);
                    j += 1;
                }
            }
            merged.extend_from_slice(&a[i..]);
            merged.extend_from_slice(&b[j..]);
            wr.edges = merged;
            wr.msf.extend(lose_msf);
            wr.msf.push((u, v, w));
        }
        Ok(vec![win as u32])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optpar_core::control::HybridController;
    use optpar_graph::gen;
    use optpar_runtime::{Executor, ExecutorConfig, WorkSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_boruvka(wg: &WeightedGraph, workers: usize, m: usize, seed: u64) -> (u64, usize) {
        let (space, op) = BoruvkaOp::new(wg);
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
            assert!(rounds < 1_000_000, "Boruvka did not terminate");
        }
        let mut op = op;
        op.msf()
    }

    #[test]
    fn dsu_basics() {
        let mut d = Dsu::new(4);
        assert!(d.union(0, 1));
        assert!(!d.union(1, 0));
        assert!(d.union(2, 3));
        assert_ne!(d.find(0), d.find(2));
        assert!(d.union(0, 2));
        assert_eq!(d.find(1), d.find(3));
    }

    #[test]
    fn kruskal_on_known_graph() {
        // Triangle with weights 0, 1, 2: MST = {0, 1} → weight 1.
        let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        // edge_list order: (0,1), (0,2), (1,2)
        let wg = WeightedGraph {
            graph: g,
            weights: vec![0, 1, 2],
        };
        assert_eq!(wg.kruskal(), (1, 2));
    }

    #[test]
    fn matches_kruskal_sequential_worker() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = gen::random_with_avg_degree(80, 4.0, &mut rng);
        let wg = WeightedGraph::random(g, &mut rng);
        let (kw, kc) = wg.kruskal();
        let (bw, bc) = run_boruvka(&wg, 1, 10, 2);
        assert_eq!((bw, bc), (kw, kc));
    }

    #[test]
    fn matches_kruskal_parallel() {
        let mut rng = StdRng::seed_from_u64(3);
        for trial in 0..3 {
            let g = gen::random_with_avg_degree(150, 6.0, &mut rng);
            let wg = WeightedGraph::random(g, &mut rng);
            let (kw, kc) = wg.kruskal();
            let (bw, bc) = run_boruvka(&wg, 8, 24, 100 + trial);
            assert_eq!((bw, bc), (kw, kc), "trial {trial}");
        }
    }

    #[test]
    fn disconnected_forest() {
        // Two triangles, no bridge: MSF has 4 edges.
        let g = gen::cliques_plus_isolated(2, 3, 2);
        let mut rng = StdRng::seed_from_u64(4);
        let wg = WeightedGraph::random(g, &mut rng);
        let (kw, kc) = wg.kruskal();
        assert_eq!(kc, 4);
        let (bw, bc) = run_boruvka(&wg, 4, 8, 5);
        assert_eq!((bw, bc), (kw, kc));
    }

    #[test]
    fn single_edge() {
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        let wg = WeightedGraph {
            graph: g,
            weights: vec![7],
        };
        let (bw, bc) = run_boruvka(&wg, 2, 2, 6);
        assert_eq!((bw, bc), (7, 1));
    }

    #[test]
    fn with_adaptive_controller() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = gen::random_with_avg_degree(300, 5.0, &mut rng);
        let wg = WeightedGraph::random(g, &mut rng);
        let (kw, kc) = wg.kruskal();
        let (space, op) = BoruvkaOp::new(&wg);
        let ex = Executor::new(&op, &space, ExecutorConfig::default());
        let mut ws = WorkSet::from_vec(op.initial_tasks());
        let mut ctl = HybridController::with_rho(0.25);
        let _run = ex.run_with_controller(&mut ws, &mut ctl, 1_000_000, &mut rng);
        assert!(ws.is_empty());
        let mut op = op;
        assert_eq!(op.msf(), (kw, kc));
    }
}
