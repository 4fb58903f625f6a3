//! Cheap k-way graph partitioning for the scale harness.
//!
//! GRAPHOPT-style placement needs each worker to mostly touch its own
//! shard of the conflict graph, which means minimizing the number of
//! *cut edges* (edges whose endpoints land in different parts) while
//! keeping part sizes balanced. A multilevel partitioner would be
//! overkill here: the runtime only needs a partition that is cheap
//! enough to compute at load time for a million-node graph (O(n + m))
//! and good enough that the cross-shard acquire fraction drops far
//! below the round-robin baseline. BFS-grown parts achieve that on
//! every family the harness generates (meshes, R-MAT, road-like).
//!
//! The algorithm grows breadth-first *pieces* of at most
//! `t = ⌈n/k⌉` nodes — a component smaller than `t` always stays one
//! piece, so unions of small cliques are never split — then packs the
//! pieces onto the `k` parts largest-first, each onto the least-loaded
//! part that stays under the imbalance cap (falling back to the
//! least-loaded part overall, which can only happen when the cap is
//! infeasible for the piece sizes).

use optpar_graph::{ConflictGraph, CsrGraph};

/// A k-way node partition with its cut report.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Part id of each node (`parts[v] < k`).
    pub parts: Vec<u32>,
    /// Number of parts.
    pub k: usize,
    /// Node count of each part.
    pub sizes: Vec<usize>,
    /// Edges whose endpoints lie in different parts.
    pub cut_edges: usize,
    /// Total edge count of the partitioned graph.
    pub edge_count: usize,
}

impl Partition {
    /// Wrap an explicit assignment, recounting sizes and cut edges.
    ///
    /// # Panics
    /// Panics if `parts` does not cover every node of `g` or assigns a
    /// part id ≥ `k`.
    pub fn from_parts(g: &CsrGraph, parts: Vec<u32>, k: usize) -> Self {
        assert_eq!(parts.len(), g.node_count(), "one part id per node");
        assert!(k >= 1, "k must be at least 1");
        let mut sizes = vec![0usize; k];
        for &p in &parts {
            assert!((p as usize) < k, "part id {p} out of range");
            sizes[p as usize] += 1;
        }
        let mut cut = 0usize;
        for u in 0..g.node_count() as u32 {
            for &v in g.neighbors_slice(u) {
                if u < v && parts[u as usize] != parts[v as usize] {
                    cut += 1;
                }
            }
        }
        Partition {
            parts,
            k,
            sizes,
            cut_edges: cut,
            edge_count: g.edge_count(),
        }
    }

    /// Fraction of edges cut (`0.0` on an edgeless graph).
    pub fn cut_fraction(&self) -> f64 {
        if self.edge_count == 0 {
            0.0
        } else {
            self.cut_edges as f64 / self.edge_count as f64
        }
    }

    /// Largest part size relative to the ideal `n/k`.
    pub fn max_imbalance(&self) -> f64 {
        let n: usize = self.sizes.iter().sum();
        if n == 0 {
            return 1.0;
        }
        let max = *self.sizes.iter().max().expect("k >= 1") as f64;
        max * self.k as f64 / n as f64
    }
}

/// BFS-grown k-way partition with part sizes capped at
/// `⌈⌈n/k⌉ · imbalance⌉`.
///
/// Deterministic: BFS roots are taken in node-id order and ties in
/// the packing break on the piece's first node. Pieces never exceed
/// `⌈n/k⌉` nodes, so any `imbalance ≥ 2.0` cap is always feasible;
/// tighter caps are honored whenever the piece sizes permit (they do
/// on every generated family — meshes and R-MAT split into k equal
/// BFS chunks).
///
/// # Panics
/// Panics unless `k ≥ 1` and `imbalance ≥ 1.0`.
pub fn bfs_partition(g: &CsrGraph, k: usize, imbalance: f64) -> Partition {
    assert!(k >= 1, "k must be at least 1");
    assert!(imbalance >= 1.0, "imbalance must be at least 1.0");
    let n = g.node_count();
    if n == 0 {
        return Partition::from_parts(g, Vec::new(), k);
    }
    let target = n.div_ceil(k);
    let cap = ((target as f64) * imbalance).ceil() as usize;

    // Phase 1: BFS pieces of ≤ target nodes. The chunk cursor resets
    // at every new component root, so a component of ≤ target nodes is
    // exactly one piece.
    let mut piece_of = vec![u32::MAX; n];
    let mut piece_sizes: Vec<usize> = Vec::new();
    let mut queue: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
    for root in 0..n as u32 {
        if piece_of[root as usize] != u32::MAX {
            continue;
        }
        let mut piece = piece_sizes.len() as u32;
        let mut fill = 0usize;
        piece_of[root as usize] = piece;
        fill += 1;
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors_slice(u) {
                if piece_of[v as usize] != u32::MAX {
                    continue;
                }
                if fill == target {
                    piece_sizes.push(fill);
                    piece = piece_sizes.len() as u32;
                    fill = 0;
                }
                piece_of[v as usize] = piece;
                fill += 1;
                queue.push_back(v);
            }
        }
        piece_sizes.push(fill);
    }

    // Phase 2: pack pieces largest-first onto the least-loaded part
    // that stays under the cap (least-loaded overall if none does).
    let mut order: Vec<u32> = (0..piece_sizes.len() as u32).collect();
    order.sort_by_key(|&p| (usize::MAX - piece_sizes[p as usize], p));
    let mut loads = vec![0usize; k];
    let mut part_of_piece = vec![0u32; piece_sizes.len()];
    for &p in &order {
        let size = piece_sizes[p as usize];
        let fits = (0..k)
            .filter(|&b| loads[b] + size <= cap)
            .min_by_key(|&b| (loads[b], b));
        let bin = fits.unwrap_or_else(|| (0..k).min_by_key(|&b| (loads[b], b)).expect("k >= 1"));
        loads[bin] += size;
        part_of_piece[p as usize] = bin as u32;
    }
    let parts: Vec<u32> = piece_of
        .iter()
        .map(|&p| part_of_piece[p as usize])
        .collect();
    Partition::from_parts(g, parts, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use optpar_graph::gen;

    #[test]
    fn covers_every_node_within_cap() {
        let g = gen::grid2d_diag(40, 40);
        let p = bfs_partition(&g, 8, 1.25);
        assert_eq!(p.parts.len(), 1600);
        assert_eq!(p.sizes.iter().sum::<usize>(), 1600);
        let cap = ((1600f64 / 8.0).ceil() * 1.25).ceil() as usize;
        assert!(p.sizes.iter().all(|&s| s <= cap), "sizes {:?}", p.sizes);
    }

    #[test]
    fn small_components_never_split() {
        // K_d^n with k ≤ s: every clique is a component ≤ ⌈n/k⌉, so no
        // clique may straddle parts.
        let g = gen::clique_union(120, 5); // 20 cliques of 6
        let p = bfs_partition(&g, 10, 1.5);
        for c in 0..20 {
            let first = p.parts[c * 6];
            for i in 0..6 {
                assert_eq!(p.parts[c * 6 + i], first, "clique {c} split");
            }
        }
        assert_eq!(p.cut_edges, 0);
    }

    #[test]
    fn k1_is_trivial() {
        let g = gen::gnm(200, 600, &mut rand_rng());
        let p = bfs_partition(&g, 1, 1.0);
        assert_eq!(p.cut_edges, 0);
        assert_eq!(p.sizes, vec![200]);
        assert!((p.max_imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_graph() {
        let g = optpar_graph::CsrGraph::edgeless(0);
        let p = bfs_partition(&g, 4, 2.0);
        assert_eq!(p.parts.len(), 0);
        assert_eq!(p.cut_fraction(), 0.0);
    }

    fn rand_rng() -> rand::rngs::StdRng {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(1)
    }
}
