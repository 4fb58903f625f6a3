//! R-MAT / Kronecker power-law graphs (Chakrabarti, Zhan & Faloutsos).
//!
//! The scale harness needs million-node inputs whose degree
//! distribution is *skewed* — the regime where optimistic conflicts
//! concentrate on hubs and partition quality actually matters. R-MAT
//! is the standard generator for that family (it is the Graph500
//! reference input): each edge independently descends the adjacency
//! matrix by quadrant with probabilities `(a, b, c, d)`, so memory is
//! O(m) throughout and the build is seed-deterministic.

use crate::{CsrGraph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The Graph500 reference quadrant probabilities.
pub const RMAT_GRAPH500: [f64; 4] = [0.57, 0.19, 0.19, 0.05];

/// R-MAT graph with `n = 2^scale` nodes and exactly
/// `m = n · edge_factor` distinct undirected edges, using the
/// Graph500 probabilities [`RMAT_GRAPH500`].
///
/// Same `(scale, edge_factor, seed)` ⇒ byte-identical CSR.
pub fn rmat(scale: u32, edge_factor: usize, seed: u64) -> CsrGraph {
    rmat_with(scale, edge_factor, RMAT_GRAPH500, seed)
}

/// R-MAT graph with explicit quadrant probabilities `[a, b, c, d]`
/// (must sum to 1). Self-loops are rejected and duplicates are
/// resampled in top-up rounds until exactly `m` distinct canonical
/// edges exist, so the node/edge counts are exact, not approximate.
///
/// Construction keeps only the canonical edge list in memory — O(m)
/// words, no adjacency sets — and sorts once per top-up round.
///
/// # Panics
/// Panics if `scale` is outside `1..=31`, the probabilities do not
/// sum to 1, or `m` exceeds a quarter of the simple-graph capacity
/// (past that, duplicate-rejection resampling no longer terminates
/// quickly).
pub fn rmat_with(scale: u32, edge_factor: usize, p: [f64; 4], seed: u64) -> CsrGraph {
    assert!((1..=31).contains(&scale), "scale must be in 1..=31");
    let n = 1usize << scale;
    let m = n
        .checked_mul(edge_factor)
        .expect("edge count overflows usize");
    assert!(
        m <= n * (n - 1) / 4,
        "edge_factor {edge_factor} too dense for scale {scale}"
    );
    let sum: f64 = p.iter().sum();
    assert!((sum - 1.0).abs() < 1e-6, "probabilities must sum to 1");
    let (ab, abc) = (p[0] + p[1], p[0] + p[1] + p[2]);

    let mut rng = StdRng::seed_from_u64(seed);
    let mut canon: Vec<(NodeId, NodeId)> = Vec::with_capacity(m + m / 8);
    // Top-up loop: duplicates and self-loops are discarded, then the
    // shortfall is resampled from the same stream. Terminates fast at
    // the asserted density; the round cap is a safety valve for
    // adversarial probability corners (accepting a slightly sparser
    // graph rather than spinning).
    for _round in 0..64 {
        if canon.len() >= m {
            break;
        }
        for _ in 0..(m - canon.len()) {
            let (mut u, mut v) = (0u64, 0u64);
            for _ in 0..scale {
                let r: f64 = rng.random();
                let (du, dv) = if r < p[0] {
                    (0, 0)
                } else if r < ab {
                    (0, 1)
                } else if r < abc {
                    (1, 0)
                } else {
                    (1, 1)
                };
                u = (u << 1) | du;
                v = (v << 1) | dv;
            }
            if u == v {
                continue;
            }
            let e = if u < v { (u, v) } else { (v, u) };
            canon.push((e.0 as NodeId, e.1 as NodeId));
        }
        canon.sort_unstable();
        canon.dedup();
    }
    CsrGraph::from_sorted_unique_edges(n, &canon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConflictGraph;

    #[test]
    fn exact_counts() {
        let g = rmat(10, 8, 42);
        assert_eq!(g.node_count(), 1024);
        assert_eq!(g.edge_count(), 8192);
    }

    #[test]
    fn seed_determinism() {
        assert_eq!(rmat(9, 6, 7), rmat(9, 6, 7));
        assert_ne!(rmat(9, 6, 7), rmat(9, 6, 8));
    }

    #[test]
    fn skew_present() {
        // Graph500 probabilities concentrate mass in quadrant a: the
        // hottest node must be far above the average degree, unlike a
        // uniform G(n, m) where max/avg stays small.
        let g = rmat(12, 8, 1);
        let avg = g.average_degree();
        let max = g.max_degree() as f64;
        assert!(max >= 6.0 * avg, "expected skew: max {max} vs avg {avg}");
    }

    #[test]
    fn uniform_probs_are_not_skewed() {
        let g = rmat_with(12, 8, [0.25, 0.25, 0.25, 0.25], 1);
        let avg = g.average_degree();
        assert!((g.max_degree() as f64) < 4.0 * avg);
    }
}
