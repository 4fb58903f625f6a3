//! Single-source shortest paths by speculative edge relaxation —
//! a LonStar-suite workload (the benchmark suite the paper uses for
//! its parallelism profiles).
//!
//! Speculative delta-stepping with lazy deletion. A task is a
//! `(node, dist)` pair, spawned whenever a relaxation lowers `node` to
//! `dist`, and ranked by its bucket `⌊dist / Δ⌋`: the runtime's
//! work-set drains buckets in ascending order, so near nodes settle
//! before the far frontier is relaxed from distances that will not
//! survive. A task that finds its node already at another distance is
//! stale — some later relaxation superseded it — and commits without
//! touching a neighbour, so exactly one execution per distance value a
//! node ever holds relaxes edges (the heap-Dijkstra "skip stale entry"
//! rule). Order within a bucket and across workers stays speculative;
//! any order converges to the same distances, the bucketing only
//! decides how much work it takes.
//!
//! A task locks what it can lower, not what it reads. Beside the
//! store sits a per-node *bound*: an atomic lowered (`fetch_min`) at
//! the moment a task writes a distance under the node's lock, never
//! raised, never rolled back. Every value published there is the
//! length of a real path, so a neighbour whose bound is already
//! *strictly* below the candidate cannot be improved by it and is
//! skipped without its lock, and a task whose own node's bound is
//! strictly below its distance is stale without any lock at all. The
//! comparison must be strict: a task that published `h`, aborted and
//! was rolled back has to get past its own `h` on the retry to write
//! it again (DESIGN.md §14.7 carries the argument). Everything a task
//! does touch still goes through the context — lock word, undo log,
//! audit trace — exactly as before.
//!
//! A task's conflict neighbourhood is therefore its node plus the
//! neighbours it may still lower — a settled hub is nobody's lock —
//! and the *work profile* starts serial (one source), balloons as the
//! frontier expands, then collapses: the inverse-spike shape that
//! stresses the controller in both directions.
//!
//! Validated against sequential Dijkstra.

use optpar_graph::{ConflictGraph, CsrGraph, NodeId};
use optpar_runtime::{Abort, LockSpace, Operator, Ranked, ShardMap, SpecStore, TaskCtx};
use rand::Rng;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Distance value for "unreached".
pub const UNREACHED: u64 = u64::MAX;

/// Per-edge weights aligned with `graph.edge_list()` order (symmetric:
/// the same weight applies in both directions).
#[derive(Clone, Debug)]
pub struct SsspInput {
    /// The undirected graph.
    pub graph: CsrGraph,
    /// `weight_of[(u, v)]` for canonical `u < v` edges, stored densely
    /// in edge-list order.
    pub weights: Vec<u64>,
    /// The source node.
    pub source: NodeId,
}

impl SsspInput {
    /// Random positive weights in `1..=max_w`.
    pub fn random<R: Rng + ?Sized>(
        graph: CsrGraph,
        source: NodeId,
        max_w: u64,
        rng: &mut R,
    ) -> Self {
        let m = graph.edge_count();
        let weights = (0..m).map(|_| rng.random_range(1..=max_w)).collect();
        SsspInput {
            graph,
            weights,
            source,
        }
    }

    /// Arc weights aligned with every node's neighbour slice, built in
    /// one pass over the CSR: edge-list order is canonical `u < v` in
    /// neighbour order, so edge `k`'s forward arc is met in sequence
    /// and its reverse arc is a binary search in `v`'s sorted slice.
    fn weight_table(&self) -> ArcWeights {
        let g = &self.graph;
        let n = g.node_count();
        let mut off = Vec::with_capacity(n + 1);
        off.push(0usize);
        for u in 0..n {
            off.push(off[u] + g.degree(u as NodeId));
        }
        let mut w = vec![0u64; off[n]];
        let mut edge_weights = self.weights.iter();
        for u in 0..n as NodeId {
            for (i, &v) in g.neighbors_slice(u).iter().enumerate() {
                if u < v {
                    let &wk = edge_weights.next().expect("one weight per edge");
                    let back = g
                        .neighbors_slice(v)
                        .binary_search(&u)
                        .expect("CSR adjacency is symmetric and sorted");
                    w[off[u as usize] + i] = wk;
                    w[off[v as usize] + back] = wk;
                }
            }
        }
        ArcWeights { off, w }
    }

    /// Sequential Dijkstra reference.
    pub fn dijkstra(&self) -> Vec<u64> {
        let wt = self.weight_table();
        let n = self.graph.node_count();
        let mut dist = vec![UNREACHED; n];
        dist[self.source as usize] = 0;
        // Max-heap on Reverse(d).
        let mut heap = BinaryHeap::new();
        heap.push(std::cmp::Reverse((0u64, self.source)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue; // stale entry
            }
            for (&v, &w) in self.graph.neighbors_slice(u).iter().zip(wt.of(u)) {
                let nd = d + w;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(std::cmp::Reverse((nd, v)));
                }
            }
        }
        dist
    }
}

/// Per-arc weights in one flat array: node `u`'s slice lines up with
/// `graph.neighbors_slice(u)`.
struct ArcWeights {
    off: Vec<usize>,
    w: Vec<u64>,
}

impl ArcWeights {
    fn of(&self, u: NodeId) -> &[u64] {
        &self.w[self.off[u as usize]..self.off[u as usize + 1]]
    }
}

/// One pending relaxation: `node` was lowered to `dist`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SsspTask {
    /// The node whose edges to relax.
    pub node: NodeId,
    /// `⌊dist / Δ⌋` (saturating) — the task's rank in the work-set.
    pub bucket: u32,
    /// The tentative distance that spawned this task; the task is
    /// stale once `node` holds any other value.
    pub dist: u64,
}

impl Ranked for SsspTask {
    fn rank(&self) -> u64 {
        u64::from(self.bucket)
    }
}

/// The speculative SSSP operator.
pub struct SsspOp {
    /// The input instance.
    pub input: SsspInput,
    /// Tentative distances.
    pub dist: SpecStore<u64>,
    /// Per-node weight table (immutable).
    weights: ArcWeights,
    /// Bucket width Δ: the heaviest edge over the average degree, so
    /// one bucket spans about one relaxation "hop" — narrow enough
    /// that few tasks run from distances a nearer bucket will lower,
    /// wide enough that a bucket holds a batch worth of parallel work.
    delta: u64,
    /// Per-node monotone upper bound on the final distance, indexed by
    /// node id and initialised like `dist`: the least value any task,
    /// committed or not, ever wrote to the node. Outside speculation
    /// on purpose — no lock, no undo entry — which is sound because
    /// every value in it is a real path length (module docs).
    bound: Vec<AtomicU64>,
}

impl SsspOp {
    /// Build stores and locks; the initial work-set is just the source.
    pub fn new(input: SsspInput) -> (LockSpace, SsspOp) {
        Self::build(input, None)
    }

    /// As [`SsspOp::new`], but with the distance store laid out by a
    /// k-way node partition: same-part distance slots (and their lock
    /// words) become contiguous cache-line-aligned slabs, so
    /// partition-affine workers stay inside their own shard. Node ids
    /// stay logical — the operator code is unchanged.
    ///
    /// # Panics
    /// Panics unless `map.len()` equals the node count.
    pub fn new_sharded(input: SsspInput, map: Arc<ShardMap>) -> (LockSpace, SsspOp) {
        Self::build(input, Some(map))
    }

    /// The one constructor: the two public ones differ only in how the
    /// distance store is laid out.
    fn build(input: SsspInput, map: Option<Arc<ShardMap>>) -> (LockSpace, SsspOp) {
        let n = input.graph.node_count();
        let mut init = vec![UNREACHED; n];
        init[input.source as usize] = 0;
        let bound = init.iter().map(|&d| AtomicU64::new(d)).collect();
        let mut b = LockSpace::builder();
        let dist = match map {
            None => SpecStore::new(b.region(n), init, n),
            Some(map) => {
                assert_eq!(map.len(), n, "one part per node");
                let r = b.region_aligned(map.padded_len());
                SpecStore::new_sharded(r, init, UNREACHED, map)
            }
        };
        let space = b.build();
        let weights = input.weight_table();
        let max_w = input.weights.iter().copied().max().unwrap_or(1);
        let avg_degree = (2 * input.graph.edge_count() / n.max(1)).max(1) as u64;
        let delta = (max_w / avg_degree).max(1);
        (
            space,
            SsspOp {
                input,
                dist,
                weights,
                delta,
                bound,
            },
        )
    }

    /// The task for `node` just lowered to `dist`.
    fn task(&self, node: NodeId, dist: u64) -> SsspTask {
        SsspTask {
            node,
            bucket: u32::try_from(dist / self.delta).unwrap_or(u32::MAX),
            dist,
        }
    }

    /// The initial work-set: the source node at distance 0.
    pub fn initial_tasks(&self) -> Vec<SsspTask> {
        vec![self.task(self.input.source, 0)]
    }

    /// Unlocked read of `v`'s bound. `Relaxed`: the value orders
    /// nothing — whatever it lets a task skip is never read — and the
    /// skip tests need only that it is some value published at `v`.
    fn peek_bound(&self, v: NodeId) -> u64 {
        self.bound[v as usize].load(Ordering::Relaxed)
    }

    /// Lower `v`'s bound to `d`; called holding `v`'s lock, right
    /// after writing `dist[v] = d`.
    fn publish_bound(&self, v: NodeId, d: u64) {
        self.bound[v as usize].fetch_min(d, Ordering::Relaxed);
    }

    /// Final distances (quiesced).
    pub fn distances(&mut self) -> Vec<u64> {
        let dist = self.dist.snapshot();
        debug_assert!(
            (0..dist.len()).all(|v| self.peek_bound(v as NodeId) == dist[v]),
            "a drained run leaves every bound at its node's distance"
        );
        dist
    }
}

impl Operator for SsspOp {
    type Task = SsspTask;

    fn execute(&self, t: &SsspTask, cx: &mut TaskCtx<'_>) -> Result<Vec<SsspTask>, Abort> {
        let u = t.node;
        // Stale: a later relaxation lowered `u` again and spawned the
        // task that will do this work from the better value. The bound
        // says so without a lock; the locked read repeats the test
        // against the store, for a lowering that lands in between.
        if self.peek_bound(u) < t.dist || *cx.read(&self.dist, u as usize)? != t.dist {
            return Ok(vec![]);
        }
        let mut spawn = Vec::new();
        let weights = self.weights.of(u);
        for (i, &v) in self.input.graph.neighbors_slice(u).iter().enumerate() {
            let nd = t.dist + weights[i];
            // Strictly: on a retry this task must get past the bound
            // it published itself before it was rolled back.
            if self.peek_bound(v) < nd {
                continue;
            }
            let slot = v as usize;
            if nd < *cx.read(&self.dist, slot)? {
                *cx.write(&self.dist, slot)? = nd;
                self.publish_bound(v, nd);
                spawn.push(self.task(v, nd));
            }
        }
        Ok(spawn)
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
    use std::sync::atomic::AtomicBool;

    fn run_sssp(input: &SsspInput, workers: usize, m: usize, seed: u64) -> Vec<u64> {
        let (space, op) = SsspOp::new(input.clone());
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
            assert!(rounds < 1_000_000, "SSSP did not quiesce");
        }
        let mut op = op;
        op.distances()
    }

    #[test]
    fn dijkstra_on_path() {
        // 0 -1- 1 -2- 2 -3- 3
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        // edge_list order: (0,1), (1,2), (2,3)
        let input = SsspInput {
            graph: g,
            weights: vec![1, 2, 3],
            source: 0,
        };
        assert_eq!(input.dijkstra(), vec![0, 1, 3, 6]);
    }

    #[test]
    fn disconnected_stays_unreached() {
        let g = gen::cliques_plus_isolated(1, 3, 2);
        let mut rng = StdRng::seed_from_u64(1);
        let input = SsspInput::random(g, 0, 10, &mut rng);
        let d = input.dijkstra();
        assert_eq!(d[3], UNREACHED);
        assert_eq!(d[4], UNREACHED);
        let spec = run_sssp(&input, 2, 4, 2);
        assert_eq!(spec, d);
    }

    #[test]
    fn speculative_matches_dijkstra_sequential_worker() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = gen::random_with_avg_degree(200, 5.0, &mut rng);
        let input = SsspInput::random(g, 7, 100, &mut rng);
        assert_eq!(run_sssp(&input, 1, 16, 4), input.dijkstra());
    }

    #[test]
    fn speculative_matches_dijkstra_parallel() {
        let mut rng = StdRng::seed_from_u64(5);
        for trial in 0..3 {
            let g = gen::random_with_avg_degree(300, 6.0, &mut rng);
            let input = SsspInput::random(g, trial as u32, 50, &mut rng);
            assert_eq!(
                run_sssp(&input, 8, 32, 100 + trial),
                input.dijkstra(),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn unit_weights_equal_bfs_distances() {
        let g = gen::grid(10, 10);
        let m = g.edge_count();
        let input = SsspInput {
            graph: g,
            weights: vec![1; m],
            source: 0,
        };
        let d = run_sssp(&input, 4, 20, 6);
        // Manhattan distance on the grid from corner 0.
        for r in 0..10u64 {
            for c in 0..10u64 {
                assert_eq!(d[(r * 10 + c) as usize], r + c);
            }
        }
    }

    /// The sharded store permutes memory, not meaning: distances from
    /// a sharded run must be byte-identical to Dijkstra's at any
    /// worker count.
    #[test]
    fn sharded_matches_dijkstra() {
        let mut rng = StdRng::seed_from_u64(13);
        let g = gen::grid2d_diag(15, 15);
        let input = SsspInput::random(g.clone(), 3, 40, &mut rng);
        let reference = input.dijkstra();
        let parts = optpar_core::partition::bfs_partition(&g, 4, 1.25).parts;
        let map = Arc::new(ShardMap::from_parts(&parts, 4));
        for workers in [1, 4] {
            let (space, op) = SsspOp::new_sharded(input.clone(), map.clone());
            let ex = Executor::new(
                &op,
                &space,
                ExecutorConfig {
                    workers,
                    ..ExecutorConfig::default()
                },
            );
            let mut rng = StdRng::seed_from_u64(17 + workers as u64);
            let mut ws = WorkSet::from_vec(op.initial_tasks());
            let mut rounds = 0;
            while !ws.is_empty() {
                ex.run_round(&mut ws, 16, &mut rng);
                rounds += 1;
                assert!(rounds < 1_000_000, "sharded SSSP did not quiesce");
            }
            assert!(space.check_all_free().is_ok());
            let mut op = op;
            assert_eq!(op.distances(), reference, "workers={workers}");
        }
    }

    /// Runs the wrapped operator and then asks for an abort, once.
    struct AbortFirstRun<'a> {
        op: &'a SsspOp,
        armed: AtomicBool,
    }

    impl Operator for AbortFirstRun<'_> {
        type Task = SsspTask;

        fn execute(&self, t: &SsspTask, cx: &mut TaskCtx<'_>) -> Result<Vec<SsspTask>, Abort> {
            let spawn = self.op.execute(t, cx)?;
            if self.armed.swap(false, Ordering::AcqRel) {
                return cx.abort_requested();
            }
            Ok(spawn)
        }
    }

    /// The seeded bug: the skip test must be strict. A task lowers a
    /// neighbour, publishes the bound and is rolled back; the bound is
    /// not. On its retry the task meets its own published value — with
    /// `<=` it skips the neighbour, which then keeps the restored
    /// distance for good.
    #[test]
    fn retried_task_gets_past_the_bound_it_published() {
        // 0 -5- 1
        let input = SsspInput {
            graph: CsrGraph::from_edges(2, &[(0, 1)]),
            weights: vec![5],
            source: 0,
        };
        let (space, mut op) = SsspOp::new(input);
        let mut ws = WorkSet::from_vec(op.initial_tasks());
        let mut rng = StdRng::seed_from_u64(1);
        let round = |op: &SsspOp, ws: &mut WorkSet<SsspTask>, rng: &mut StdRng, armed| {
            let wrapped = AbortFirstRun {
                op,
                armed: AtomicBool::new(armed),
            };
            let cfg = ExecutorConfig {
                workers: 1,
                ..ExecutorConfig::default()
            };
            Executor::new(&wrapped, &space, cfg).run_round(ws, 1, rng)
        };

        let first = round(&op, &mut ws, &mut rng, true);
        assert_eq!((first.launched, first.aborted), (1, 1));
        assert_eq!(
            op.dist.snapshot(),
            vec![0, UNREACHED],
            "the write was undone"
        );
        assert_eq!(op.peek_bound(1), 5, "the published bound was not");

        let retry = round(&op, &mut ws, &mut rng, false);
        assert_eq!((retry.committed, retry.spawned), (1, 1));
        assert_eq!(op.dist.snapshot(), vec![0, 5], "lowered again on the retry");

        while !ws.is_empty() {
            round(&op, &mut ws, &mut rng, false);
        }
        assert_eq!(op.distances(), vec![0, 5]);
    }

    #[test]
    fn with_adaptive_controller() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = gen::random_with_avg_degree(1000, 8.0, &mut rng);
        let input = SsspInput::random(g, 0, 1000, &mut rng);
        let reference = input.dijkstra();
        let (space, op) = SsspOp::new(input);
        let ex = Executor::new(&op, &space, ExecutorConfig::default());
        let mut ws = WorkSet::from_vec(op.initial_tasks());
        let mut ctl = HybridController::with_rho(0.25);
        let _run = ex.run_with_controller(&mut ws, &mut ctl, 1_000_000, &mut rng);
        assert!(ws.is_empty());
        let mut op = op;
        assert_eq!(op.distances(), reference);
    }
}
