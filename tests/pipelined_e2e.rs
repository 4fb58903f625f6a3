//! End-to-end equivalence for pipelined (barrier-free) execution: each
//! app row of the differential matrix (`rows/mod.rs`) drained in lanes
//! at batch 1 (continuous), 8 and 64, one test per app and worker
//! count. The matrix runs the same rows at 1 / 2 / 4 workers; SSSP,
//! Boruvka and Delaunay also run here at eight, past the pool sizes
//! the matrix covers. Every drain makes the matrix's per-cell checks,
//! feature columns included.

#[macro_use]
mod rows;

use rows::{lanes, Cell};

/// The matrix's lane cells: 1 / 2 / 4 workers × batch 1 / 8 / 64.
fn every_lane() -> Vec<Cell> {
    [lanes(1), lanes(2), lanes(4)].concat()
}

slices! {
    sssp_pipelined_matches_dijkstra_w1: sssp(lanes(1), 101);
    sssp_pipelined_matches_dijkstra_w2: sssp(lanes(2), 104);
    sssp_pipelined_matches_dijkstra_w4: sssp(lanes(4), 102);
    sssp_pipelined_matches_dijkstra_w8: sssp(lanes(8), 103);
    boruvka_pipelined_matches_kruskal_w1: boruvka(lanes(1), 111);
    boruvka_pipelined_matches_kruskal_w4: boruvka(lanes(4), 112);
    boruvka_pipelined_matches_kruskal_w8: boruvka(lanes(8), 113);
    delaunay_pipelined_refines_fully_w1: delaunay(lanes(1), 121);
    delaunay_pipelined_refines_fully_w4: delaunay(lanes(4), 122);
    delaunay_pipelined_refines_fully_w8: delaunay(lanes(8), 123);
    coloring_pipelined_is_proper: coloring(every_lane(), 160);
    mis_pipelined_is_maximal_independent: mis(every_lane(), 170);
    matching_pipelined_is_maximal: matching(every_lane(), 180);
    ccmirror_pipelined_commits_each_node_once: ccmirror(every_lane(), 190);
    preflow_pipelined_matches_edmonds_karp: preflow(every_lane(), 200);
    clustering_pipelined_resolves_the_blobs: clustering(every_lane(), 210);
    survey_pipelined_reaches_the_sequential_fixed_point: survey(every_lane(), 220);
}
