//! Property tests for the k-way partitioner: coverage, the imbalance
//! cap in its guaranteed regime, an independent brute-force cut
//! oracle, and the no-small-component-split guarantee.

use optpar_core::partition::{bfs_partition, Partition};
use optpar_graph::{gen, ConflictGraph, CsrGraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Count cut edges straight off the edge list — independent of the
/// partitioner's own neighbour-scan counting.
fn brute_cut(g: &CsrGraph, parts: &[u32]) -> usize {
    g.edge_list()
        .iter()
        .filter(|&&(u, v)| parts[u as usize] != parts[v as usize])
        .count()
}

/// The status-quo baseline: node `v` on part `v mod k` — the same
/// placement the pipelined executor's round-robin spawn induces.
fn round_robin(g: &CsrGraph, k: usize) -> Partition {
    let parts: Vec<u32> = (0..g.node_count() as u32).map(|v| v % k as u32).collect();
    Partition::from_parts(g, parts, k)
}

fn check_coverage(p: &Partition, n: usize, k: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(p.parts.len(), n);
    prop_assert_eq!(p.k, k);
    prop_assert!(p.parts.iter().all(|&x| (x as usize) < k));
    prop_assert_eq!(p.sizes.iter().sum::<usize>(), n);
    let mut counted = vec![0usize; k];
    for &x in &p.parts {
        counted[x as usize] += 1;
    }
    prop_assert_eq!(&counted, &p.sizes);
    Ok(())
}

proptest! {
    /// On arbitrary G(n, m): every node covered, sizes consistent, the
    /// reported cut matches the brute-force oracle, and with
    /// `imbalance ≥ 2.0` (the documented always-feasible regime) every
    /// part respects the cap.
    #[test]
    fn bfs_partition_invariants(
        n in 1usize..400,
        density in 0usize..6,
        k in 1usize..=8,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let max = n * (n - 1) / 2;
        let g = gen::gnm(n, (n * density).min(max), &mut rng);
        let p = bfs_partition(&g, k, 2.0);
        check_coverage(&p, n, k)?;
        prop_assert_eq!(p.cut_edges, brute_cut(&g, &p.parts));
        prop_assert_eq!(p.edge_count, g.edge_count());
        let cap = ((n.div_ceil(k) as f64) * 2.0).ceil() as usize;
        prop_assert!(p.sizes.iter().all(|&s| s <= cap), "sizes {:?}", p.sizes);
        // Determinism: same input, same partition.
        prop_assert_eq!(&p.parts, &bfs_partition(&g, k, 2.0).parts);
    }

    /// The cut oracle also validates `from_parts` on arbitrary
    /// assignments (here: round-robin), plus the fraction bounds.
    #[test]
    fn cut_report_matches_oracle_for_any_assignment(
        n in 1usize..300,
        k in 1usize..=8,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let max = n * (n - 1) / 2;
        let g = gen::gnm(n, (3 * n).min(max), &mut rng);
        let p = round_robin(&g, k);
        check_coverage(&p, n, k)?;
        prop_assert_eq!(p.cut_edges, brute_cut(&g, &p.parts));
        prop_assert!((0.0..=1.0).contains(&p.cut_fraction()));
        if k == 1 {
            prop_assert_eq!(p.cut_edges, 0);
        }
    }

    /// A component of ≤ ⌈n/k⌉ nodes is one BFS piece and is never
    /// split: on a union of s-cliques with k ≤ #cliques, every clique
    /// lands in one part and the cut is exactly zero.
    #[test]
    fn small_cliques_are_never_split(
        s in 2usize..=6,
        cliques in 2usize..=20,
        k_idx in 0usize..8,
        imb in 0usize..=2,
    ) {
        let k = 1 + k_idx % cliques.min(8);
        let g = gen::clique_union(s * cliques, s - 1); // #nodes, clique degree
        let imbalance = 1.0 + 0.5 * imb as f64;
        let p = bfs_partition(&g, k, imbalance);
        check_coverage(&p, s * cliques, k)?;
        for c in 0..cliques {
            let first = p.parts[c * s];
            for i in 0..s {
                prop_assert_eq!(p.parts[c * s + i], first, "clique {} split", c);
            }
        }
        prop_assert_eq!(p.cut_edges, 0);
        prop_assert_eq!(p.cut_fraction(), 0.0);
    }
}

/// Brute-force cut oracle at the largest size the suite affords in
/// one shot (10k nodes): mesh + R-MAT, both layouts.
#[test]
fn cut_oracle_at_ten_thousand_nodes() {
    let grid = gen::grid2d_diag(100, 100);
    let rmat = gen::rmat(13, 4, 7); // 8192 nodes
    for g in [&grid, &rmat] {
        for k in [2, 8] {
            let bfs = bfs_partition(g, k, 1.25);
            assert_eq!(bfs.cut_edges, brute_cut(g, &bfs.parts));
            let rr = round_robin(g, k);
            assert_eq!(rr.cut_edges, brute_cut(g, &rr.parts));
            assert!(bfs.cut_edges <= rr.cut_edges, "k={k}: bfs worse than rr");
        }
    }
}

#[test]
fn grid_cut_far_below_round_robin() {
    let g = gen::grid2d_diag(64, 64);
    let bfs = bfs_partition(&g, 8, 1.25);
    let rr = round_robin(&g, 8);
    assert!(bfs.cut_fraction() < 0.2, "bfs cut {}", bfs.cut_fraction());
    // k = 8 divides the row stride, so vertical edges stay uncut
    // even under round-robin — the fraction is ~0.75, not ~1.
    assert!(rr.cut_fraction() > 0.7, "rr cut {}", rr.cut_fraction());
    assert!(rr.cut_fraction() > 3.0 * bfs.cut_fraction());
}
