//! Preflow-push (Goldberg–Tarjan) maximum flow — another Galois-suite
//! irregular workload.
//!
//! One task per *active* node (positive excess): push flow along
//! admissible residual edges, relabel when stuck. A task's conflict
//! neighbourhood is the node, its neighbours, and the incident edge
//! flows — small, local, and constantly moving across the graph as
//! excess sloshes toward the sink: the archetype of amorphous
//! data-parallelism with unpredictable task footprints.
//!
//! The network is an undirected graph with per-edge capacity `c`
//! usable in both directions (flow is signed on the canonical `u < v`
//! orientation). Validated against a sequential Edmonds–Karp
//! reference, plus flow-conservation and capacity checks.

use optpar_graph::{ConflictGraph, CsrGraph, NodeId};
use optpar_runtime::{Abort, LockSpace, Operator, SpecStore, TaskCtx};
use rand::Rng;
use std::collections::{HashMap, VecDeque};

/// A capacitated undirected network.
#[derive(Clone, Debug)]
pub struct FlowNetwork {
    /// The underlying simple graph.
    pub graph: CsrGraph,
    /// Capacity per canonical edge (edge-list order), valid in both
    /// directions.
    pub capacities: Vec<u32>,
    /// Source node.
    pub source: NodeId,
    /// Sink node.
    pub sink: NodeId,
}

impl FlowNetwork {
    /// Random capacities in `1..=max_c`.
    pub fn random<R: Rng + ?Sized>(
        graph: CsrGraph,
        source: NodeId,
        sink: NodeId,
        max_c: u32,
        rng: &mut R,
    ) -> Self {
        assert_ne!(source, sink);
        let m = graph.edge_count();
        FlowNetwork {
            capacities: (0..m).map(|_| rng.random_range(1..=max_c)).collect(),
            graph,
            source,
            sink,
        }
    }

    /// Sequential Edmonds–Karp reference: the max-flow value.
    pub fn edmonds_karp(&self) -> u64 {
        let n = self.graph.node_count();
        // Residual capacities as a hash map over directed pairs.
        let mut res: HashMap<(u32, u32), u64> = HashMap::new();
        for ((u, v), &c) in self.graph.edge_list().into_iter().zip(&self.capacities) {
            *res.entry((u, v)).or_insert(0) += c as u64;
            *res.entry((v, u)).or_insert(0) += c as u64;
        }
        let mut total = 0u64;
        loop {
            // BFS for an augmenting path.
            let mut parent: Vec<Option<u32>> = vec![None; n];
            parent[self.source as usize] = Some(self.source);
            let mut q = VecDeque::from([self.source]);
            'bfs: while let Some(u) = q.pop_front() {
                for &v in self.graph.neighbors_slice(u) {
                    if parent[v as usize].is_none() && res.get(&(u, v)).copied().unwrap_or(0) > 0 {
                        parent[v as usize] = Some(u);
                        if v == self.sink {
                            break 'bfs;
                        }
                        q.push_back(v);
                    }
                }
            }
            if parent[self.sink as usize].is_none() {
                return total;
            }
            // Bottleneck.
            let mut bottleneck = u64::MAX;
            let mut v = self.sink;
            while v != self.source {
                let u = parent[v as usize].unwrap();
                bottleneck = bottleneck.min(res[&(u, v)]);
                v = u;
            }
            // Augment.
            let mut v = self.sink;
            while v != self.source {
                let u = parent[v as usize].unwrap();
                *res.get_mut(&(u, v)).unwrap() -= bottleneck;
                *res.get_mut(&(v, u)).unwrap() += bottleneck;
                v = u;
            }
            total += bottleneck;
        }
    }
}

/// Per-node preflow state.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeState {
    /// Current excess (inflow − outflow); ≥ 0 except at the source.
    pub excess: i64,
    /// Height (distance label).
    pub height: u32,
}

/// The speculative preflow-push operator.
pub struct PreflowOp {
    /// The input network.
    pub net: FlowNetwork,
    /// Per-node excess and height.
    pub nodes: SpecStore<NodeState>,
    /// Signed flow on each canonical edge (positive = `u → v` for
    /// `u < v`).
    pub flow: SpecStore<i64>,
    /// For each node, the edge-store index of each incident edge,
    /// aligned with its neighbour slice.
    incident: Vec<Vec<u32>>,
    /// Capacity lookup aligned like `incident`.
    caps: Vec<Vec<u32>>,
}

impl PreflowOp {
    /// Build stores and locks, saturate the source's edges, and return
    /// the initially active nodes.
    pub fn new(net: FlowNetwork) -> (LockSpace, PreflowOp, Vec<NodeId>) {
        let n = net.graph.node_count();
        let m = net.graph.edge_count();
        let mut b = LockSpace::builder();
        let r_nodes = b.region(n);
        let r_flow = b.region(m);
        let space = b.build();

        let mut edge_id: HashMap<(u32, u32), u32> = HashMap::new();
        for (i, (u, v)) in net.graph.edge_list().into_iter().enumerate() {
            edge_id.insert((u, v), i as u32);
        }
        let mut incident = vec![Vec::new(); n];
        let mut caps = vec![Vec::new(); n];
        for u in 0..n as NodeId {
            for &v in net.graph.neighbors_slice(u) {
                let key = if u < v { (u, v) } else { (v, u) };
                let e = edge_id[&key];
                incident[u as usize].push(e);
                caps[u as usize].push(net.capacities[e as usize]);
            }
        }

        // Initial preflow: source at height n, saturate its edges.
        let mut node_init = vec![NodeState::default(); n];
        node_init[net.source as usize].height = n as u32;
        let mut flow_init = vec![0i64; m];
        let mut active = Vec::new();
        let s = net.source;
        for (k, &v) in net.graph.neighbors_slice(s).iter().enumerate() {
            let e = incident[s as usize][k] as usize;
            let c = caps[s as usize][k] as i64;
            flow_init[e] = if s < v { c } else { -c };
            node_init[v as usize].excess += c;
            node_init[s as usize].excess -= c;
            if v != net.sink {
                active.push(v);
            }
        }

        let nodes = SpecStore::new(r_nodes, node_init, n);
        let flow = SpecStore::new(r_flow, flow_init, m);
        (
            space,
            PreflowOp {
                net,
                nodes,
                flow,
                incident,
                caps,
            },
            active,
        )
    }

    /// The computed max-flow value (quiesced): the sink's excess.
    pub fn flow_value(&mut self) -> u64 {
        let sink = self.net.sink as usize;
        self.nodes.get_mut(sink).excess as u64
    }

    /// Validate capacity constraints and conservation (quiesced):
    /// `|flow_e| ≤ cap_e` and, at quiescence, every non-terminal node
    /// has zero excess while source-out equals sink-in.
    pub fn validate(&mut self) -> Result<(), String> {
        let m = self.net.graph.edge_count();
        let caps = self.net.capacities.clone();
        for (e, &cap) in caps.iter().enumerate().take(m) {
            let f = *self.flow.get_mut(e);
            if f.unsigned_abs() > cap as u64 {
                return Err(format!("edge {e} over capacity: {f} > {cap}"));
            }
        }
        let n = self.net.graph.node_count();
        let (s, t) = (self.net.source, self.net.sink);
        let mut excesses = Vec::with_capacity(n);
        for v in 0..n {
            excesses.push(self.nodes.get_mut(v).excess);
        }
        for (v, &e) in excesses.iter().enumerate() {
            let v = v as NodeId;
            if v != s && v != t && e != 0 {
                return Err(format!("node {v} retains excess {e}"));
            }
        }
        if excesses[s as usize] + excesses[t as usize] != 0 {
            return Err("source deficit does not match sink excess".into());
        }
        Ok(())
    }
}

impl Operator for PreflowOp {
    type Task = NodeId;

    fn execute(&self, &u: &NodeId, cx: &mut TaskCtx<'_>) -> Result<Vec<NodeId>, Abort> {
        let ui = u as usize;
        let (s, t) = (self.net.source, self.net.sink);
        if u == s || u == t {
            return Ok(vec![]);
        }
        cx.lock(&self.nodes, ui)?;
        let me = *cx.read(&self.nodes, ui)?;
        if me.excess <= 0 {
            return Ok(vec![]); // stale task
        }
        // Plan: lock the neighbourhood, reading the residuals and
        // heights, and record each push `(edge, to, delta)`.
        let nbrs = self.net.graph.neighbors_slice(u);
        let mut pushes = Vec::new();
        let mut excess = me.excess;
        let mut lowest: Option<u32> = None;
        for (k, &v) in nbrs.iter().enumerate() {
            if excess == 0 {
                break;
            }
            let e = self.incident[ui][k] as usize;
            let cap = self.caps[ui][k] as i64;
            cx.lock(&self.nodes, v as usize)?;
            cx.lock(&self.flow, e)?;
            let f = *cx.read(&self.flow, e)?;
            // Signed flow out of u along this edge.
            let out = if u < v { f } else { -f };
            let residual = cap - out;
            if residual <= 0 {
                continue;
            }
            let hv = cx.read(&self.nodes, v as usize)?.height;
            if me.height == hv + 1 {
                // Admissible: push.
                let delta = excess.min(residual);
                excess -= delta;
                pushes.push((e, v, delta));
            } else {
                lowest = Some(lowest.map_or(hv, |l| l.min(hv)));
            }
        }
        // Apply: every slot written is locked, so seal and write in
        // place — the pushes in order, then `u`'s own update.
        let mut sealed = cx.seal()?;
        let mut spawn = Vec::new();
        for (e, v, delta) in pushes {
            *sealed.write(&self.flow, e) += if u < v { delta } else { -delta };
            let vn = sealed.write(&self.nodes, v as usize);
            vn.excess += delta;
            if v != s && v != t && vn.excess > 0 {
                spawn.push(v);
            }
        }
        let un = sealed.write(&self.nodes, ui);
        un.excess = excess;
        if excess > 0 {
            match lowest {
                Some(l) => {
                    // Relabel: one above the lowest residual neighbour
                    // (standard push-relabel step).
                    un.height = l + 1;
                    spawn.push(u);
                }
                None => {
                    // No residual edge at all can only happen if every
                    // incident edge is saturated outward, which
                    // contradicts positive excess; but pushes above may
                    // have consumed all residuals this round — retry
                    // later.
                    spawn.push(u);
                }
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

    fn run_preflow(net: &FlowNetwork, workers: usize, m: usize, seed: u64) -> u64 {
        let (space, op, active) = PreflowOp::new(net.clone());
        let ex = Executor::new(
            &op,
            &space,
            ExecutorConfig {
                workers,
                ..ExecutorConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ws = WorkSet::from_vec(active);
        let mut rounds = 0;
        while !ws.is_empty() {
            ex.run_round(&mut ws, m, &mut rng);
            rounds += 1;
            assert!(rounds < 5_000_000, "preflow did not quiesce");
        }
        let mut op = op;
        op.validate().unwrap();
        op.flow_value()
    }

    #[test]
    fn edmonds_karp_on_known_network() {
        // Diamond: s=0, t=3; edges (0,1):3, (0,2):2, (1,3):2, (2,3):3,
        // (1,2):10. Max flow = 5 (3 via 1 with 1 rerouted to 2, 2 via 2).
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
        // edge_list: (0,1), (0,2), (1,2), (1,3), (2,3)
        let net = FlowNetwork {
            graph: g,
            capacities: vec![3, 2, 10, 2, 3],
            source: 0,
            sink: 3,
        };
        assert_eq!(net.edmonds_karp(), 5);
    }

    #[test]
    fn single_edge_network() {
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        let net = FlowNetwork {
            graph: g,
            capacities: vec![7],
            source: 0,
            sink: 1,
        };
        assert_eq!(net.edmonds_karp(), 7);
        assert_eq!(run_preflow(&net, 1, 2, 1), 7);
    }

    #[test]
    fn diamond_network_speculative() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
        let net = FlowNetwork {
            graph: g,
            capacities: vec![3, 2, 10, 2, 3],
            source: 0,
            sink: 3,
        };
        assert_eq!(run_preflow(&net, 2, 4, 2), 5);
    }

    #[test]
    fn disconnected_sink_zero_flow() {
        let g = gen::cliques_plus_isolated(1, 3, 1);
        let net = FlowNetwork {
            graph: g,
            capacities: vec![1, 1, 1],
            source: 0,
            sink: 3, // isolated
        };
        assert_eq!(net.edmonds_karp(), 0);
        assert_eq!(run_preflow(&net, 2, 4, 3), 0);
    }

    #[test]
    fn random_networks_match_reference_sequential_worker() {
        let mut rng = StdRng::seed_from_u64(4);
        for trial in 0..4 {
            let g = gen::random_with_avg_degree(40, 4.0, &mut rng);
            let net = FlowNetwork::random(g, 0, 39, 20, &mut rng);
            let reference = net.edmonds_karp();
            assert_eq!(
                run_preflow(&net, 1, 8, 10 + trial),
                reference,
                "trial {trial}"
            );
        }
    }

    #[test]
    fn random_networks_match_reference_parallel() {
        let mut rng = StdRng::seed_from_u64(5);
        for trial in 0..3 {
            let g = gen::random_with_avg_degree(60, 5.0, &mut rng);
            let net = FlowNetwork::random(g, 1, 58, 15, &mut rng);
            let reference = net.edmonds_karp();
            assert_eq!(
                run_preflow(&net, 6, 16, 20 + trial),
                reference,
                "trial {trial}"
            );
        }
    }

    #[test]
    fn grid_network_with_controller() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = gen::grid(8, 8);
        let net = FlowNetwork::random(g, 0, 63, 12, &mut rng);
        let reference = net.edmonds_karp();
        let (space, op, active) = PreflowOp::new(net);
        let ex = Executor::new(&op, &space, ExecutorConfig::default());
        let mut ws = WorkSet::from_vec(active);
        let mut ctl = HybridController::with_rho(0.25);
        let _ = ex.run_with_controller(&mut ws, &mut ctl, 5_000_000, &mut rng);
        assert!(ws.is_empty());
        let mut op = op;
        op.validate().unwrap();
        assert_eq!(op.flow_value(), reference);
    }
}
