//! Boruvka's minimum-spanning-forest algorithm by speculative
//! component contraction.
//!
//! One task per live component: find the component's minimum-weight
//! outgoing edge (safe to add by the cut property) and contract it,
//! merging the smaller endpoint-component into the larger. A task's
//! conflict neighbourhood is the two components it joins, and those
//! grow as the run coarsens, so available parallelism *shrinks*: the
//! mirror image of Delaunay refinement's growth, and a good stressor
//! for the allocation controller.
//!
//! The operator is cautious: it finds its edge and locks both
//! components and the loser's parent word while writing nothing, then
//! seals and merges in place. The shared state
//! is laid out so that a merge writes little whatever the components'
//! sizes:
//!
//! * **Membership is a parent forest** ([`BoruvkaOp::parent`]), joined
//!   by size. A merge writes one word — the loser's parent — and a
//!   node's component is found by chasing `parent` to its fixed point,
//!   at most ⌈log₂ n⌉ hops, each one a context read.
//! * **Candidate edges are persistent sorted runs** ([`EdgeRuns`]): a
//!   component holds O(log m) immutable weight-sorted runs, each a
//!   window of an `Arc` slice plus a consumed-prefix cursor (the
//!   initial one-node runs are windows of one shared array). The
//!   lightest candidate is the lightest run head; an edge found to be
//!   intra-component is consumed by moving a cursor; a merge
//!   concatenates the two run lists and re-merges runs of comparable
//!   length, so an edge is copied O(log m) times over the whole run.
//!   Stale heads are found by a cursor that replays the pops without
//!   consuming anything, and popped only after the seal.
//! * **The forest lives on the dead slots**: each merge kills exactly
//!   one representative, and the loser's slot records the edge that
//!   absorbed it ([`Comp::msf_edge`]); [`BoruvkaOp::msf`] sums them.
//!
//! Weights must be distinct for a unique MSF; [`WeightedGraph::random`]
//! guarantees this by construction. Validated against Kruskal.

use optpar_graph::{ConflictGraph, CsrGraph, NodeId};
use optpar_runtime::{Abort, LockSpace, Operator, SpecStore, TaskCtx};
use rand::seq::SliceRandom;
use rand::Rng;
use std::cmp::Reverse;
use std::sync::Arc;

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

/// A candidate edge `(u, v, w)` as its component holds it: `u` inside,
/// `v` the far endpoint, `w` the weight.
pub type Edge = (u32, u32, u64);

/// One immutable weight-sorted run — the window `next..end` of a
/// shared slice — with a consumed prefix; never empty (`next < end`).
#[derive(Clone, Debug)]
struct Run {
    edges: Arc<[Edge]>,
    /// Edges before `next` were consumed.
    next: usize,
    /// One past the run's last edge.
    end: usize,
}

impl Run {
    fn rest(&self) -> &[Edge] {
        &self.edges[self.next..self.end]
    }

    /// The two runs' unconsumed edges as one sorted run, merged straight
    /// into the shared slice it will live in (as the build fills its
    /// edge array): no `Vec` to copy over.
    fn merged(a: &Run, b: &Run) -> Run {
        let (a, b) = (a.rest(), b.rest());
        let mut edges: Arc<[Edge]> = std::iter::repeat_n((0, 0, 0), a.len() + b.len()).collect();
        let out = Arc::get_mut(&mut edges).expect("not shared yet");
        let (mut i, mut j) = (0, 0);
        for slot in out {
            *slot = if j == b.len() || (i < a.len() && a[i].2 <= b[j].2) {
                i += 1;
                a[i - 1]
            } else {
                j += 1;
                b[j - 1]
            };
        }
        Run {
            end: edges.len(),
            edges,
            next: 0,
        }
    }
}

/// A component's candidate outgoing edges: a priority queue by weight
/// kept as immutable sorted runs, so that a clone shares the edges
/// instead of copying them.
///
/// After every [`EdgeRuns::absorb`] each run is at least twice as long
/// as the next shorter one, which bounds the run count by
/// ⌊log₂ m⌋ + 1 for `m` unconsumed edges. Stale intra-component edges
/// stay in until they surface at the head and are popped.
#[derive(Clone, Debug, Default)]
pub struct EdgeRuns {
    runs: Vec<Run>,
}

impl EdgeRuns {
    /// A queue over `edges`, which must be sorted ascending by weight.
    pub fn from_sorted(edges: &[Edge]) -> Self {
        Self::from_window(&edges.into(), 0, edges.len())
    }

    /// A queue over `edges[next..end]`, which must be sorted ascending
    /// by weight; the slice is shared, not copied.
    fn from_window(edges: &Arc<[Edge]>, next: usize, end: usize) -> Self {
        debug_assert!(edges[next..end].windows(2).all(|p| p[0].2 <= p[1].2));
        let runs = if next == end {
            Vec::new()
        } else {
            vec![Run {
                edges: Arc::clone(edges),
                next,
                end,
            }]
        };
        EdgeRuns { runs }
    }

    /// Index of the run whose head is the lightest unconsumed edge.
    fn lightest(&self) -> Option<usize> {
        (0..self.runs.len()).min_by_key(|&k| self.runs[k].rest()[0].2)
    }

    /// The lightest unconsumed edge.
    pub fn peek(&self) -> Option<Edge> {
        self.lightest().map(|k| self.runs[k].rest()[0])
    }

    /// Consume the edge [`EdgeRuns::peek`] returns.
    pub fn pop(&mut self) {
        if let Some(k) = self.lightest() {
            self.runs[k].next += 1;
            if self.runs[k].next == self.runs[k].end {
                self.runs.swap_remove(k);
            }
        }
    }

    /// Take over `other`'s edges: concatenate the run lists, then merge
    /// the shortest pair of length-adjacent runs whose longer member is
    /// under twice the shorter, until no such pair is left. A merged
    /// run is at least 1.5× as long as either input, so no edge is
    /// copied more than O(log m) times however the merges arrive.
    pub fn absorb(&mut self, other: EdgeRuns) {
        let runs = &mut self.runs;
        runs.extend(other.runs);
        runs.sort_unstable_by_key(|r| Reverse(r.rest().len()));
        // Longest first: a pair is (i - 1, i), the shortest pair last.
        while let Some(i) =
            (1..runs.len()).rfind(|&i| runs[i - 1].rest().len() < 2 * runs[i].rest().len())
        {
            let merged = Run::merged(&runs[i - 1], &runs[i]);
            runs.drain(i - 1..=i);
            let at = runs.partition_point(|r| r.rest().len() >= merged.rest().len());
            runs.insert(at, merged);
        }
    }

    /// The unconsumed part of every run (inspection and tests).
    pub fn runs(&self) -> impl Iterator<Item = &[Edge]> {
        self.runs.iter().map(Run::rest)
    }

    /// A cursor at this queue's head, for [`EdgeRuns::peek_at`].
    fn cursor(&self) -> PopCursor {
        let mut c = PopCursor {
            run: [0; MAX_RUNS],
            next: [0; MAX_RUNS],
            live: self.runs.len(),
            popped: 0,
        };
        for (k, r) in self.runs.iter().enumerate() {
            c.run[k] = k as u8;
            c.next[k] = r.next;
        }
        c
    }

    /// Position (in `c`'s order) of the run whose head `pop` would
    /// take next, had `c.popped` pops been made: `lightest` over the
    /// cursor's heads.
    fn lightest_at(&self, c: &PopCursor) -> Option<usize> {
        (0..c.live).min_by_key(|&k| self.runs[c.run[k] as usize].edges[c.next[k]].2)
    }

    /// The edge [`EdgeRuns::peek`] would return after `c.popped` pops.
    fn peek_at(&self, c: &PopCursor) -> Option<Edge> {
        self.lightest_at(c)
            .map(|k| self.runs[c.run[k] as usize].edges[c.next[k]])
    }

    /// Step `c` past the edge [`EdgeRuns::peek_at`] returns, exactly as
    /// [`EdgeRuns::pop`] would consume it — `swap_remove` of an
    /// exhausted run included, so ties resolve as the pops will.
    fn skip(&self, c: &mut PopCursor) {
        if let Some(k) = self.lightest_at(c) {
            c.popped += 1;
            c.next[k] += 1;
            if c.next[k] == self.runs[c.run[k] as usize].end {
                c.live -= 1;
                c.run[k] = c.run[c.live];
                c.next[k] = c.next[c.live];
            }
        }
    }
}

/// More runs than a queue ever holds: `absorb` leaves at most
/// ⌊log₂ m⌋ + 1 for `m < 2⁶⁴` edges, and `pop` only removes runs.
const MAX_RUNS: usize = 64;

/// A replay of [`EdgeRuns::pop`] on the side: which edge the queue it
/// was made from would surface after [`PopCursor::popped`] pops, with
/// nothing consumed and nothing allocated. Valid while that queue is
/// unchanged.
#[derive(Clone, Copy, Debug)]
struct PopCursor {
    /// At position `k < live`: the run `pop` would keep there, and its
    /// replayed head.
    run: [u8; MAX_RUNS],
    next: [usize; MAX_RUNS],
    live: usize,
    /// Pops replayed so far.
    popped: usize,
}

/// One slot per original node: the component that node represents.
#[derive(Clone, Debug)]
pub struct Comp {
    /// Nodes in the component (the merge joins by size).
    pub size: u32,
    /// Candidate outgoing edges; may hold stale intra-component ones.
    pub edges: EdgeRuns,
    /// The MSF edge whose contraction absorbed this component into
    /// another; `None` while the component is alive.
    pub msf_edge: Option<Edge>,
    /// Set when the component has no outgoing edges left.
    pub done: bool,
}

/// The speculative Boruvka operator.
pub struct BoruvkaOp {
    /// node → its parent in the component forest; a root (its own
    /// parent) is its component's representative.
    pub parent: SpecStore<u32>,
    /// Component payload, indexed by representative node id.
    pub comp: SpecStore<Comp>,
}

impl BoruvkaOp {
    /// Build stores and locks for `wg` (one component per node).
    pub fn new(wg: &WeightedGraph) -> (LockSpace, BoruvkaOp) {
        let n = wg.graph.node_count();
        let mut b = LockSpace::builder();
        let r_parent = b.region(n);
        let r_comp = b.region(n);
        let space = b.build();

        // Every node's incident edges, contiguous per node and sorted
        // by weight, in one array that every initial run is a window
        // of: the build allocates what the operator keeps and nothing
        // on the side. While filling, `start[v + 1]` is `v`'s write
        // cursor: it begins at `v`'s first position and ends one past
        // its last, which is where `v + 1` starts.
        let mut start = vec![0usize; n + 1];
        for v in 1..n {
            start[v + 1] = start[v] + wg.graph.degree(v as NodeId - 1);
        }
        let mut incident: Arc<[Edge]> =
            std::iter::repeat_n((0, 0, 0), 2 * wg.graph.edge_count()).collect();
        let slots = Arc::get_mut(&mut incident).expect("not shared yet");
        // Canonical `u < v` pairs in CSR order: `edge_list` order,
        // which is what `weights` is indexed by.
        let mut eid = 0;
        for u in 0..n as NodeId {
            for &v in wg.graph.neighbors_slice(u) {
                if u < v {
                    for (x, y) in [(u, v), (v, u)] {
                        slots[start[x as usize + 1]] = (x, y, wg.weights[eid]);
                        start[x as usize + 1] += 1;
                    }
                    eid += 1;
                }
            }
        }
        for v in 0..n {
            slots[start[v]..start[v + 1]].sort_unstable_by_key(|&(_, _, w)| w);
        }
        let comps: Vec<Comp> = (0..n)
            .map(|v| Comp {
                size: 1,
                edges: EdgeRuns::from_window(&incident, start[v], start[v + 1]),
                msf_edge: None,
                done: false,
            })
            .collect();
        let parent = SpecStore::new(r_parent, (0..n as u32).collect(), n);
        let comp = SpecStore::new(r_comp, comps, n);
        (space, BoruvkaOp { parent, comp })
    }

    /// One task per initial component (= node).
    pub fn initial_tasks(&self) -> Vec<u32> {
        (0..self.comp.len() as u32).collect()
    }

    /// Collect the final MSF: total weight and edge count (quiesced).
    pub fn msf(&mut self) -> (u64, usize) {
        let mut total = 0u64;
        let mut count = 0usize;
        for i in 0..self.comp.len() {
            if let Some((_, _, w)) = self.comp.get_mut(i).msf_edge {
                total += w;
                count += 1;
            }
        }
        (total, count)
    }

    /// Representative of `v`'s component: chase `parent` to its fixed
    /// point. Every hop is a context read, so a merge that re-parents
    /// any node on the path conflicts with the chasing task. Joining by
    /// size keeps a chase within ⌈log₂ n⌉ hops; a longer one means a
    /// parent write escaped rollback, and the chase may be on a cycle
    /// that would otherwise spin here forever.
    fn root_of(&self, v: u32, cx: &mut TaskCtx<'_>) -> Result<u32, Abort> {
        let mut x = v;
        let mut hops = 0;
        loop {
            let p = cx.read_copy(&self.parent, x as usize)?;
            if p == x {
                return Ok(x);
            }
            x = p;
            hops += 1;
            debug_assert!(
                hops <= self.parent.capacity().next_power_of_two().trailing_zeros() + 1,
                "parent chase from {v} exceeds the union-by-size depth bound ({hops} hops)"
            );
        }
    }
}

impl Operator for BoruvkaOp {
    type Task = u32;

    fn execute(&self, &c: &u32, cx: &mut TaskCtx<'_>) -> Result<Vec<u32>, Abort> {
        let ci = c as usize;
        let my_size = {
            let me = cx.read(&self.comp, ci)?;
            if me.msf_edge.is_some() || me.done {
                return Ok(vec![]); // stale task from an earlier merge
            }
            me.size
        };
        // The lightest genuinely-outgoing edge: step past candidates
        // that have become intra-component until one leads elsewhere,
        // on a cursor made at the first such head. They are popped
        // after the seal.
        let mut heads: Option<PopCursor> = None;
        let found = loop {
            let edges = &cx.read(&self.comp, ci)?.edges;
            let head = heads
                .as_ref()
                .map_or_else(|| edges.peek(), |h| edges.peek_at(h));
            let Some((u, v, w)) = head else {
                break None;
            };
            let other = self.root_of(v, cx)?;
            if other != c {
                break Some((u, v, w, other));
            }
            let edges = &cx.read(&self.comp, ci)?.edges;
            edges.skip(heads.get_or_insert_with(|| edges.cursor()));
        };
        let stale = heads.map_or(0, |h| h.popped);
        let Some((u, v, w, other)) = found else {
            // No outgoing edges: this component is a finished tree.
            let mut sealed = cx.seal()?;
            let me = sealed.write(&self.comp, ci);
            me.edges = EdgeRuns::default();
            me.done = true;
            return Ok(vec![]);
        };
        let oi = other as usize;
        let other_size = {
            let o = cx.read(&self.comp, oi)?;
            debug_assert!(o.msf_edge.is_none(), "root of a dead component");
            o.size
        };

        // Merge smaller into larger: joining by size keeps every
        // parent chase within ⌈log₂ n⌉ hops. Both components are
        // locked; the loser's parent word is the last lock.
        let (win, lose) = if my_size >= other_size {
            (ci, oi)
        } else {
            (oi, ci)
        };
        cx.lock(&self.parent, lose)?;
        let mut sealed = cx.seal()?;
        if stale > 0 {
            let me = sealed.write(&self.comp, ci);
            for _ in 0..stale {
                me.edges.pop();
            }
        }
        // Detach the loser; its slot keeps the chosen edge.
        let lose_edges = {
            let l = sealed.write(&self.comp, lose);
            l.msf_edge = Some((u, v, w));
            std::mem::take(&mut l.edges)
        };
        *sealed.write(&self.parent, lose) = win as u32;
        // Absorb into the winner.
        let wr = sealed.write(&self.comp, win);
        wr.size = my_size + other_size;
        wr.edges.absorb(lose_edges);
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
    fn initial_runs_are_each_nodes_edges_by_weight() {
        let mut rng = StdRng::seed_from_u64(9);
        let wg = WeightedGraph::random(gen::random_with_avg_degree(40, 5.0, &mut rng), &mut rng);
        let (_space, mut op) = BoruvkaOp::new(&wg);
        let mut expect = vec![Vec::new(); 40];
        for (u, v, w) in wg.weighted_edges() {
            expect[u as usize].push((u, v, w));
            expect[v as usize].push((v, u, w));
        }
        for (v, want) in expect.iter_mut().enumerate() {
            want.sort_unstable_by_key(|e| e.2);
            let got: Vec<Edge> = op.comp.get_mut(v).edges.runs().flatten().copied().collect();
            assert_eq!(&got, want, "node {v}");
            assert!(op.comp.get_mut(v).edges.runs().count() <= 1);
        }
    }

    /// A queue over `weights` (sorted here), one run.
    fn queue(weights: impl IntoIterator<Item = u64>) -> EdgeRuns {
        let mut sorted: Vec<Edge> = weights.into_iter().map(|w| (0, 0, w)).collect();
        sorted.sort_unstable_by_key(|e| e.2);
        EdgeRuns::from_sorted(&sorted)
    }

    fn run_lens(q: &EdgeRuns) -> Vec<usize> {
        q.runs().map(<[Edge]>::len).collect()
    }

    #[test]
    fn absorbing_singletons_cascades_like_a_binary_counter() {
        let mut q = EdgeRuns::default();
        for w in 0..13 {
            q.absorb(queue([w]));
        }
        assert_eq!(run_lens(&q), vec![8, 4, 1]);
        for w in 13..16 {
            q.absorb(queue([w]));
        }
        assert_eq!(run_lens(&q), vec![16]);
    }

    #[test]
    fn absorb_restores_the_doubling_rule_above_the_tail() {
        // [10, 4, 1] and [9] each obey it; their concatenation
        // [10, 9, 4, 1] breaks it at the top, not at the shortest pair.
        let mut q = queue(0..10);
        q.absorb(queue(100..104));
        q.absorb(queue([200]));
        assert_eq!(run_lens(&q), vec![10, 4, 1]);
        q.absorb(queue(300..309));
        assert_eq!(run_lens(&q), vec![19, 4, 1]);
    }

    #[test]
    fn pop_drains_in_weight_order_across_runs() {
        let mut q = queue([1, 4, 7, 10]);
        q.absorb(queue([2, 3]));
        q.absorb(queue([5]));
        assert_eq!(run_lens(&q), vec![4, 2, 1]);
        let mut seen = Vec::new();
        while let Some((_, _, w)) = q.peek() {
            seen.push(w);
            q.pop();
        }
        assert_eq!(seen, vec![1, 2, 3, 4, 5, 7, 10]);
        assert_eq!(q.runs().count(), 0);
        q.pop(); // empty: a no-op
        assert_eq!(q.peek(), None);
    }

    /// A cursor replays the pops exactly — ties across runs and the
    /// `swap_remove` of an emptied run included — and consumes nothing.
    #[test]
    fn a_cursor_replays_the_pops_without_consuming() {
        // Each run's edges carry its tag, so a tie taken from the wrong
        // run shows.
        let tagged = |tag: u32, weights: &[u64]| {
            let edges: Vec<Edge> = weights.iter().map(|&w| (tag, 0, w)).collect();
            EdgeRuns::from_sorted(&edges)
        };
        // Run 1 empties first, so `pop` moves run 3 ahead of run 2:
        // their tie at 7 then goes to run 3. Runs 0 and 2 tie at 9.
        let mut q = tagged(0, &(9..25).collect::<Vec<_>>());
        q.absorb(tagged(1, &[0, 1, 2, 3, 4, 5]));
        q.absorb(tagged(2, &[7, 8, 9]));
        q.absorb(tagged(3, &[7]));
        assert_eq!(run_lens(&q), vec![16, 6, 3, 1]);
        let edges = |q: &EdgeRuns| q.runs().map(<[Edge]>::to_vec).collect::<Vec<_>>();
        let before = edges(&q);
        let mut popped = q.clone();
        let mut c = q.cursor();
        while let Some(head) = popped.peek() {
            assert_eq!(q.peek_at(&c), Some(head), "after {} pops", c.popped);
            q.skip(&mut c);
            popped.pop();
        }
        assert_eq!(q.peek_at(&c), None);
        assert_eq!(c.popped, 26);
        assert_eq!(edges(&q), before, "nothing consumed");
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
