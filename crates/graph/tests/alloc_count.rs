//! Allocation-count regression test for the geometric generator.
//!
//! `geometric_from_points` once kept a `HashMap` of per-cell `Vec`s,
//! costing one heap allocation per occupied grid cell — thousands at
//! 10⁴ points, millions at scale. The counting-sort CSR-of-cells
//! rewrite does a fixed number of flat-array allocations plus
//! amortized-doubling growth of the edge list, so the count is
//! O(log n), independent of the occupied-cell count. This test pins
//! that with a counting global allocator; it lives in its own test
//! binary so no concurrent test pollutes the counter.

use optpar_graph::gen::{geometric_from_points, radius_for_degree};
use optpar_graph::ConflictGraph;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: pure pass-through to the System allocator; every contract
// (layout validity, pointer provenance) is forwarded unchanged, and
// the counter bump has no effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds GlobalAlloc's contract; we forward it.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::AcqRel);
        // SAFETY: same layout the caller handed us.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract; we forward it.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was produced by our `alloc`, which delegated
        // to System with this same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract; we forward it.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::AcqRel);
        // SAFETY: `ptr`/`layout` originate from our `alloc`; the new
        // size is the caller's, forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn geometric_build_allocation_count_is_flat() {
    // Deterministic quasi-random points (no rand dependency needed):
    // a Weyl sequence fills the unit square uniformly enough for a
    // realistic cell occupancy profile.
    let n = 10_000;
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|i| {
            let x = (i as f64 * 0.754877666246693) % 1.0;
            let y = (i as f64 * 0.569840290998053) % 1.0;
            (x, y)
        })
        .collect();
    let radius = radius_for_degree(n, 8.0);

    // Warm-up build outside the measurement window (lazy runtime
    // structures, first-touch effects).
    let warm = geometric_from_points(&pts, radius);
    assert!(
        warm.edge_count() > n,
        "degree-8 target produced {} edges",
        warm.edge_count()
    );

    let before = ALLOCS.load(Ordering::Acquire);
    let g = geometric_from_points(&pts, radius);
    let delta = ALLOCS.load(Ordering::Acquire) - before;

    // Occupied cells at this size: thousands (side is clamped to
    // O(√n) = 200, cell fill ≈ 0.25). The per-cell-Vec implementation
    // allocated at least once per occupied cell; the counting-sort
    // build must stay two orders of magnitude below that — a handful
    // of flat arrays, ~log₂(m) edge-list doublings, and the CSR
    // finalization.
    assert!(
        delta < 150,
        "geometric build did {delta} allocations for {n} points — \
         per-cell allocation regression?"
    );
    assert_eq!(g.node_count(), n);
    assert_eq!(g, warm);
}
