//! Cross-crate integration: applications drained by
//! `run_with_controller` at four workers — which runs lanes — under
//! the hybrid controller: app rows of the differential matrix
//! (`rows/mod.rs`), with its per-cell checks and feature columns.
//! MIS's row also asserts the controller keeps the conflict ratio
//! below one half.

#[macro_use]
mod rows;

slices! {
    mis_under_adaptive_controller_parallel: mis([(4, None)], 1);
    coloring_under_adaptive_controller_parallel: coloring([(4, None)], 2);
    boruvka_matches_kruskal_under_controller: boruvka([(4, None)], 3);
    delaunay_refines_under_controller: delaunay([(4, None)], 4);
}
