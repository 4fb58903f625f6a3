//! Allocation pins for the speculative task path.
//!
//! Three properties of what a speculative task costs and two of what
//! a build costs, pinned with a counting global allocator (own test
//! binary: no concurrent test pollutes the counters, and the tests
//! below share one lock):
//!
//! * **A task allocates nothing per lock.** The lockset lives in a
//!   scratch the round loop owns and reuses, so a round of a
//!   spawn-free operator allocates O(1) blocks whatever its `m`.
//! * **A write allocates nothing.** Every operator is cautious: it
//!   locks what it will write, seals, and writes in place, so a
//!   refinement allocates the three lists of its cavity walk and its
//!   spawn, and a merge nothing beyond `absorb`'s run merges.
//! * **A Boruvka drain allocates O(m log m) bytes.** Components
//!   re-merge their edge runs geometrically; copying a component's
//!   edge list per launch or per snapshot grows the total
//!   quadratically once a giant component forms (5× per doubling of
//!   `n`, against 2.2× here).
//! * **A build requests what it keeps.** `CcMirror::layout`,
//!   `BoruvkaOp::new` and `WorkSet::from_vec` fill the arrays they hand
//!   over in place: no copy of the input graph, no edge list or cursor
//!   array on the side, no doubling. A process that rebuilds its
//!   operator per drain otherwise frees, every time, a stretch of heap
//!   longer than the allocator's trim threshold, and whether that
//!   stretch goes back to the kernel (to be faulted in again by
//!   whatever runs next) then hangs on where one stray small block
//!   happens to sit.
//! * **Reserved capacity is address space.** `DelaunayOp` reserves
//!   forty triangle slots per expected final triangle; a build touches
//!   the ones the initial mesh fills.

use optpar_apps::boruvka::{BoruvkaOp, WeightedGraph};
use optpar_apps::ccmirror::CcMirror;
use optpar_apps::delaunay::{bad_count, DelaunayOp, RefineConfig};
use optpar_apps::geometry::Point;
use optpar_apps::triangulation::{Mesh, Tri};
use optpar_core::control::{HybridController, HybridParams};
use optpar_graph::gen;
use optpar_runtime::{Executor, ExecutorConfig, LockSpace, Operator, WorkSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

struct CountingAlloc;

static CALLS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);
static FREED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: pure pass-through to the System allocator; every contract
// (layout validity, pointer provenance) is forwarded unchanged, and
// the counter bumps have no effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds GlobalAlloc's contract; we forward it.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::AcqRel);
        BYTES.fetch_add(layout.size(), Ordering::AcqRel);
        // SAFETY: same layout the caller handed us.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract; we forward it.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.fetch_add(layout.size(), Ordering::AcqRel);
        // SAFETY: `ptr` was produced by our `alloc`, which delegated
        // to System with this same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract; we forward it.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::AcqRel);
        BYTES.fetch_add(new_size, Ordering::AcqRel);
        FREED.fetch_add(layout.size(), Ordering::AcqRel);
        // SAFETY: `ptr`/`layout` originate from our `alloc`; the new
        // size is the caller's, forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Serializes the tests: the counters are process-wide.
static COUNTERS: Mutex<()> = Mutex::new(());

fn one_worker() -> ExecutorConfig {
    ExecutorConfig {
        workers: 1,
        ..ExecutorConfig::default()
    }
}

/// Allocator calls made by the second of two inline rounds of `m`
/// tasks each over `0..tasks` (the first round grows the scratch).
fn second_round_allocs<O: Operator<Task = u32>>(
    op: &O,
    space: &LockSpace,
    tasks: u32,
    m: usize,
) -> usize {
    let ex = Executor::new(op, space, one_worker());
    let mut ws = WorkSet::from_vec((0..tasks).collect());
    let mut rng = StdRng::seed_from_u64(7);
    let warm = ex.run_round(&mut ws, m, &mut rng);
    assert_eq!(warm.launched, m);

    let before = CALLS.load(Ordering::Acquire);
    let rs = ex.run_round(&mut ws, m, &mut rng);
    let calls = CALLS.load(Ordering::Acquire) - before;
    assert_eq!(rs.launched, m);
    assert!(rs.committed > 0 && rs.committed + rs.aborted == m);
    calls
}

/// [`second_round_allocs`] of CcMirror on a 48 × 48 diagonal grid
/// (8-byte slots, no spawns).
fn ccmirror_round_allocs(m: usize) -> usize {
    let g = gen::grid2d_diag(48, 48);
    let mut b = LockSpace::builder();
    let layout = CcMirror::layout(&g, &mut b);
    let space = b.build();
    let op = layout.finish(&space);
    second_round_allocs(&op, &space, 48 * 48, m)
}

#[test]
fn an_inline_round_allocates_per_round_not_per_task() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let (small, large) = (ccmirror_round_allocs(64), ccmirror_round_allocs(1024));
    assert!(
        large.abs_diff(small) <= 8,
        "a round of 64 tasks made {small} allocator calls, a round of 1024 made {large}: \
         something allocates per task again"
    );
}

/// The `delaunay-refine` recipe: 2,000 uniform points and the unit
/// square's corners, refined to area 2e-5 under the hybrid controller.
fn delaunay_refine_mesh() -> (Mesh, RefineConfig) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut pts = vec![
        Point::new(0.0, 0.0),
        Point::new(1.0, 0.0),
        Point::new(1.0, 1.0),
        Point::new(0.0, 1.0),
    ];
    pts.extend((0..2000).map(|_| Point::new(rng.random::<f64>(), rng.random::<f64>())));
    (Mesh::delaunay(&pts), RefineConfig::area_only(2e-5))
}

#[test]
fn a_delaunay_drain_allocates_per_refinement_not_per_write() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let (mesh, cfg) = delaunay_refine_mesh();
    let (space, mut op) = DelaunayOp::with_auto_capacity(&mesh, cfg);
    let mut ws = WorkSet::from_vec(op.initial_tasks());
    let mut ctl = HybridController::new(HybridParams::default());
    let mut rng = StdRng::seed_from_u64(7);

    let before = CALLS.load(Ordering::Acquire);
    let run = Executor::new(&op, &space, one_worker()).run_with_controller(
        &mut ws,
        &mut ctl,
        usize::MAX,
        &mut rng,
    );
    let calls = CALLS.load(Ordering::Acquire) - before;
    assert!(ws.is_empty());
    assert_eq!(bad_count(&op.into_mesh(), cfg), 0);
    // A third of the launches refine (the rest find their triangle
    // dead, or abort) and a refinement writes about fourteen
    // triangles: one block per write alone would be 4.6 per launch.
    let launched = run.total_launched();
    assert!(
        calls <= 2 * launched,
        "{calls} allocator calls over {launched} launches ({:.2} per launch)",
        calls as f64 / launched as f64
    );
}

/// Resident set of this process, in bytes.
#[cfg(target_os = "linux")]
fn resident_bytes() -> usize {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("procfs");
    let pages: usize = statm
        .split_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .expect("statm's second field is the resident page count");
    pages * 4096
}

#[cfg(target_os = "linux")]
#[test]
fn a_delaunay_build_does_not_touch_the_capacity_it_reserves() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let (mesh, cfg) = delaunay_refine_mesh();
    let before = resident_bytes();
    let (space, op) = DelaunayOp::with_auto_capacity(&mesh, cfg);
    let touched = resident_bytes().saturating_sub(before);
    let slots = op.tris.capacity() * std::mem::size_of::<Tri>();
    assert!(slots > 50 << 20, "the reserve is {slots} bytes of slots");
    // The lock words are zeroed up front, one per slot; of the slots
    // themselves only the initial mesh's are written.
    let locks = space.len() * 8;
    assert!(
        touched < locks + (16 << 20),
        "the build made {touched} bytes resident next to {locks} bytes of lock words"
    );
}

/// Bytes requested from the allocator by one Hybrid-controlled
/// single-worker Boruvka drain (the `boruvka-rand8k` recipe at size
/// `n`), operator construction excluded.
fn boruvka_drain_bytes(n: usize) -> usize {
    let mut rng = StdRng::seed_from_u64(7);
    let g = gen::random_with_avg_degree(n, 8.0, &mut rng);
    let wg = WeightedGraph::random(g, &mut rng);
    let expected = wg.kruskal();
    let (space, mut op) = BoruvkaOp::new(&wg);
    let mut ws = WorkSet::from_vec(op.initial_tasks());
    let mut ctl = HybridController::new(HybridParams::default());

    let before = BYTES.load(Ordering::Acquire);
    Executor::new(&op, &space, one_worker()).run_with_controller(
        &mut ws,
        &mut ctl,
        usize::MAX,
        &mut rng,
    );
    let bytes = BYTES.load(Ordering::Acquire) - before;
    assert!(ws.is_empty());
    assert_eq!(op.msf(), expected);
    bytes
}

#[test]
fn a_boruvka_drain_allocates_near_linearly_in_the_input() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let (half, full) = (boruvka_drain_bytes(4000), boruvka_drain_bytes(8000));
    // 10.5 MiB at one worker: the edge runs' merges and the spawns.
    // It was 20.3 MiB while a merge filled a `Vec` and then copied it
    // into its `Arc` (23.1 MiB under the model rounds), and 25.0 MB
    // while a merge boxed a component snapshot (its run list cloned).
    assert!(
        full <= 24 << 20,
        "the n = 8000 drain allocated {:.1} MB",
        full as f64 / (1 << 20) as f64
    );
    assert!(
        full <= 3 * half,
        "doubling n took the drain from {half} to {full} bytes (> 3×): \
         some per-launch cost grows with the component again"
    );
}

/// Build a value; returns it with the bytes the build requested and
/// the bytes of those it still holds.
fn build_bytes<T>(build: impl FnOnce() -> T) -> (T, usize, usize) {
    let (asked, freed) = (BYTES.load(Ordering::Acquire), FREED.load(Ordering::Acquire));
    let built = build();
    let asked = BYTES.load(Ordering::Acquire) - asked;
    let freed = FREED.load(Ordering::Acquire) - freed;
    (built, asked, asked - freed)
}

#[test]
fn a_build_requests_little_more_than_it_keeps() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(7);
    let g = gen::random_with_avg_degree(4000, 8.0, &mut rng);

    let (_mirror, asked, kept) = build_bytes(|| {
        let mut b = LockSpace::builder();
        let layout = CcMirror::layout(&g, &mut b);
        let space = b.build();
        let op = layout.finish(&space);
        (space, op)
    });
    assert!(
        asked <= kept + kept / 8,
        "a CcMirror build requested {asked} bytes to keep {kept}"
    );

    let wg = WeightedGraph::random(g, &mut rng);
    let (_boruvka, asked, kept) = build_bytes(|| BoruvkaOp::new(&wg));
    assert!(
        asked <= kept + kept / 8,
        "a Boruvka build requested {asked} bytes to keep {kept}"
    );

    // 4000 `u32` tasks become 4000 16-byte entries, allocated once.
    let tasks: Vec<u32> = (0..4000).collect();
    let (_ws, asked, _) = build_bytes(|| WorkSet::from_vec(tasks));
    assert!(
        asked <= 4000 * 16 + 64,
        "a 4000-task work-set requested {asked} bytes"
    );
}
