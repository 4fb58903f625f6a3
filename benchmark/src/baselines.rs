//! Timed sequential references — what `speedup_vs_seq` is measured
//! against. Each is the plain single-threaded program a user would
//! write for the same input, not the in-tree test oracle: preparation
//! that the speculative side also does in set-up (weight tables,
//! incidence lists) happens before the clock starts.

use optpar_apps::boruvka::WeightedGraph;
use optpar_apps::delaunay::RefineConfig;
use optpar_apps::geometry;
use optpar_apps::sssp::{SsspInput, UNREACHED};
use optpar_apps::triangulation::Mesh;
use optpar_graph::{ConflictGraph, CsrGraph};
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// A reference's answer, its size in sequential work units, and how
/// long the sequential program took.
pub struct Reference<E> {
    pub expected: E,
    /// Nodes settled, unions made, points inserted: the denominator of
    /// `apps.commits_per_unit`.
    pub units: usize,
    pub secs: f64,
}

/// For each node, the edge-list index of each incident edge, aligned
/// with `neighbors_slice` (edge ids follow `CsrGraph::edge_list`:
/// canonical `u < v` pairs in CSR order).
pub fn incident_edge_ids(g: &CsrGraph) -> Vec<Vec<u32>> {
    let mut ids: Vec<Vec<u32>> = (0..g.node_count() as u32)
        .map(|u| vec![0; g.neighbors_slice(u).len()])
        .collect();
    let mut next = 0u32;
    for u in 0..g.node_count() as u32 {
        for (i, &v) in g.neighbors_slice(u).iter().enumerate() {
            if u < v {
                ids[u as usize][i] = next;
                let back = g
                    .neighbors_slice(v)
                    .binary_search(&u)
                    .expect("CSR adjacency is symmetric and sorted");
                ids[v as usize][back] = next;
                next += 1;
            }
        }
    }
    ids
}

/// Binary-heap Dijkstra over a prebuilt neighbour-aligned weight table.
/// (`SsspInput::dijkstra` rebuilds that table through a hash map on
/// every call, which costs several times the search itself.)
pub fn dijkstra(input: &SsspInput) -> Reference<Vec<u64>> {
    let g = &input.graph;
    let weights: Vec<Vec<u64>> = incident_edge_ids(g)
        .into_iter()
        .map(|ids| ids.into_iter().map(|e| input.weights[e as usize]).collect())
        .collect();
    let t0 = Instant::now();
    let mut dist = vec![UNREACHED; g.node_count()];
    dist[input.source as usize] = 0;
    let mut heap = BinaryHeap::new();
    heap.push(std::cmp::Reverse((0u64, input.source)));
    let mut settled = 0usize;
    while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        settled += 1;
        for (&v, &w) in g.neighbors_slice(u).iter().zip(&weights[u as usize]) {
            let nd = d + w;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(std::cmp::Reverse((nd, v)));
            }
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    Reference {
        expected: dist,
        units: settled,
        secs,
    }
}

/// Kruskal: total weight and edge count of the minimum spanning forest.
pub fn kruskal(wg: &WeightedGraph) -> Reference<(u64, usize)> {
    let t0 = Instant::now();
    let expected = wg.kruskal();
    let secs = t0.elapsed().as_secs_f64();
    Reference {
        expected,
        units: expected.1,
        secs,
    }
}

/// The cc-mirror operator without speculation: visit every node once,
/// touch each incident edge slot, bump the node's counter.
pub fn ccmirror_loop(g: &CsrGraph) -> Reference<()> {
    let incident = incident_edge_ids(g);
    let mut node = vec![0u64; g.node_count()];
    let mut edge = vec![0u8; g.edge_count()];
    let t0 = Instant::now();
    for (v, edges) in incident.iter().enumerate() {
        for &e in edges {
            edge[e as usize] = edge[e as usize].wrapping_add(1);
        }
        node[v] += 1;
    }
    black_box((&node, &edge));
    let secs = t0.elapsed().as_secs_f64();
    assert!(node.iter().all(|&c| c == 1));
    Reference {
        expected: (),
        units: g.node_count(),
        secs,
    }
}

/// Worklist Delaunay refinement on `Mesh`'s public API. The in-tree
/// `refine_sequential` rescans every live triangle per insertion
/// (quadratic; it is an oracle), so the baseline keeps a stack of bad
/// triangles instead: pop, skip if already refined away, insert the
/// circumcenter (centroid when that leaves the mesh), push the bad ones
/// among the new triangles. Returns the refined mesh.
pub fn refine_worklist(initial: &Mesh, cfg: RefineConfig) -> Reference<Mesh> {
    let mut mesh = initial.clone();
    let t0 = Instant::now();
    let is_bad = |mesh: &Mesh, t: u32| {
        let [a, b, c] = mesh.corners(t);
        cfg.is_bad(a, b, c)
    };
    let mut work: Vec<u32> = mesh
        .live_tris()
        .into_iter()
        .filter(|&t| is_bad(&mesh, t))
        .collect();
    let mut inserted = 0usize;
    while let Some(t) = work.pop() {
        if !mesh.tris[t as usize].alive || !is_bad(&mesh, t) {
            continue;
        }
        let [a, b, c] = mesh.corners(t);
        let (p, seed) = geometry::circumcenter(a, b, c)
            .and_then(|cc| mesh.locate(cc, t).map(|seed| (cc, seed)))
            .unwrap_or_else(|| (geometry::centroid(a, b, c), t));
        let v = mesh.points.len() as u32;
        mesh.points.push(p);
        let created = mesh.insert_into(v, seed);
        inserted += 1;
        if mesh.tris[t as usize].alive {
            // The cavity grew from `seed` and missed `t`; look again.
            work.push(t);
        }
        work.extend(created.into_iter().filter(|&nt| is_bad(&mesh, nt)));
    }
    let secs = t0.elapsed().as_secs_f64();
    Reference {
        expected: mesh,
        units: inserted,
        secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optpar_apps::delaunay::{bad_count, refine_sequential};
    use optpar_apps::geometry::Point;
    use optpar_graph::gen;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn edge_ids_follow_edge_list_order() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = gen::random_with_avg_degree(200, 5.0, &mut rng);
        let ids = incident_edge_ids(&g);
        let edges = g.edge_list();
        for u in 0..g.node_count() as u32 {
            for (i, &v) in g.neighbors_slice(u).iter().enumerate() {
                let e = edges[ids[u as usize][i] as usize];
                assert_eq!(e, (u.min(v), u.max(v)));
            }
        }
    }

    #[test]
    fn dijkstra_matches_the_in_tree_oracle() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = gen::random_with_avg_degree(500, 4.0, &mut rng);
        let input = SsspInput::random(g, 0, 100, &mut rng);
        let r = dijkstra(&input);
        assert_eq!(r.expected, input.dijkstra());
        assert_eq!(
            r.units,
            r.expected.iter().filter(|&&d| d != UNREACHED).count()
        );
    }

    #[test]
    fn worklist_refinement_reaches_the_oracles_postconditions() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ];
        pts.extend((0..40).map(|_| Point::new(rng.random::<f64>(), rng.random::<f64>())));
        let mesh = Mesh::delaunay(&pts);
        let cfg = RefineConfig::area_only(2e-3);
        let r = refine_worklist(&mesh, cfg);
        assert!(r.units > 0);
        assert_eq!(bad_count(&r.expected, cfg), 0);
        r.expected.check_valid().unwrap();
        r.expected.check_delaunay().unwrap();
        assert!((r.expected.total_area() - 1.0).abs() < 1e-6);
        // Same ballpark of work as the rescanning oracle (insertion
        // order differs, so not the same mesh).
        let mut oracle = mesh.clone();
        let n = refine_sequential(&mut oracle, cfg, 1_000_000);
        assert!(r.units * 2 > n && r.units < n * 2, "{} vs {n}", r.units);
    }

    #[test]
    fn ccmirror_loop_counts_every_node_once() {
        let g = gen::road_like(1000, 1);
        assert_eq!(ccmirror_loop(&g).units, 1000);
    }
}
