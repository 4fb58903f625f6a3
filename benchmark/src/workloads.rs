//! The five drain workloads: input, sequential reference, operator,
//! engine and verifier of each. Sizes are chosen so one drain takes a
//! few tenths of a second — a run then fits many reps into its
//! `--seconds` and reports a steady median.

use crate::baselines::{self, Reference};
use crate::drain::{Built, DrainWorkload, Engine};
use optpar_apps::boruvka::{BoruvkaOp, WeightedGraph};
use optpar_apps::ccmirror::CcMirror;
use optpar_apps::delaunay::{bad_count, DelaunayOp, RefineConfig};
use optpar_apps::geometry::Point;
use optpar_apps::sssp::{SsspInput, SsspOp};
use optpar_apps::triangulation::Mesh;
use optpar_core::control::{FixedController, HybridController, HybridParams};
use optpar_graph::{gen, ConflictGraph, CsrGraph};
use optpar_runtime::{LockSpace, PipelinedConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// In-flight budget of the pipelined engine and `m` of the fixed-`m`
/// round engine (the values the scale harness uses).
pub const FIXED_M: usize = 2048;

/// Window and batch of the pipelined engine (the scale harness's).
pub const PIPELINED: PipelinedConfig = PipelinedConfig {
    window: 1024,
    batch: 64,
    max_completions: usize::MAX,
};

/// Barrier rounds under the paper's Algorithm 1 with its default
/// parameters (ρ 0.25, m₀ 2, m_max 1024).
fn rounds_hybrid() -> Engine {
    Engine {
        pipelined: None,
        controller: || Box::new(HybridController::new(HybridParams::default())),
        m_max: HybridParams::default().m_max,
    }
}

/// The two SSSP workloads: one operator and engine, two graph shapes.
///
/// * `sssp-rmat15` — R-MAT scale 15, edge factor 8 (32,768 n /
///   262,144 e): degree-skewed, aborts dominate.
/// * `sssp-grid128` — 128 × 128 diagonal grid (16,384 n / 64,770 e):
///   high diameter, redundant commits dominate.
///
/// Both graphs are the same for every seed; the seed draws the weights.
/// The hub structure of an R-MAT graph is what `sssp-rmat15` exists to
/// stress, and it moves the work by tens of percent from one generator
/// seed to the next — more than a regression bound can absorb.
pub struct Sssp<const GRID: bool>;

/// The R-MAT generator's seed (the harness's default `--seed`).
const RMAT_SEED: u64 = 7;
pub type SsspRmat = Sssp<false>;
pub type SsspGrid = Sssp<true>;

impl<const GRID: bool> DrainWorkload for Sssp<GRID> {
    type Input = SsspInput;
    type Expected = Vec<u64>;
    type Op = SsspOp;

    fn generate(seed: u64) -> SsspInput {
        let graph = if GRID {
            gen::grid2d_diag(128, 128)
        } else {
            gen::rmat(15, 8, RMAT_SEED)
        };
        let mut rng = StdRng::seed_from_u64(seed);
        SsspInput::random(graph, 0, 100, &mut rng)
    }
    fn size(input: &SsspInput) -> (usize, usize) {
        (input.graph.node_count(), input.graph.edge_count())
    }
    fn graph(input: &SsspInput) -> Option<&CsrGraph> {
        Some(&input.graph)
    }
    fn reference(input: &SsspInput) -> Reference<Vec<u64>> {
        baselines::dijkstra(input)
    }
    fn build(input: &SsspInput) -> Built<SsspOp> {
        let (space, op) = SsspOp::new(input.clone());
        let tasks = op.initial_tasks();
        Built { space, op, tasks }
    }
    fn engine() -> Engine {
        Engine {
            pipelined: Some(PIPELINED),
            controller: || Box::new(FixedController::new(FIXED_M)),
            m_max: FIXED_M,
        }
    }
    fn verify(mut op: SsspOp, _committed: usize, _input: &SsspInput, expected: &Vec<u64>) -> bool {
        op.distances() == *expected
    }
}

/// `delaunay-refine`: 2000 random points + the unit square's corners,
/// refined until no triangle's area exceeds the bound.
pub struct DelaunayRefine;

const DELAUNAY_POINTS: usize = 2000;
const DELAUNAY_MAX_AREA: f64 = 2e-5;

fn refine_cfg() -> RefineConfig {
    RefineConfig::area_only(DELAUNAY_MAX_AREA)
}

/// The unit square's corners plus `extra` uniform random points.
pub fn square_points<R: Rng + ?Sized>(extra: usize, rng: &mut R) -> Vec<Point> {
    let mut pts = vec![
        Point::new(0.0, 0.0),
        Point::new(1.0, 0.0),
        Point::new(1.0, 1.0),
        Point::new(0.0, 1.0),
    ];
    pts.extend((0..extra).map(|_| Point::new(rng.random::<f64>(), rng.random::<f64>())));
    pts
}

/// A refined mesh is right when it is a valid triangulation of the
/// unit square with no bad triangle left.
pub fn mesh_ok(mesh: &Mesh, cfg: RefineConfig) -> bool {
    mesh.check_valid().is_ok()
        && bad_count(mesh, cfg) == 0
        && (mesh.total_area() - 1.0).abs() < 1e-6
}

impl DrainWorkload for DelaunayRefine {
    type Input = Vec<Point>;
    /// Insertion order differs between the sequential and speculative
    /// runs, so the meshes differ; both must satisfy `mesh_ok`.
    type Expected = ();
    type Op = DelaunayOp;

    fn generate(seed: u64) -> Vec<Point> {
        square_points(DELAUNAY_POINTS, &mut StdRng::seed_from_u64(seed))
    }
    fn size(input: &Vec<Point>) -> (usize, usize) {
        // A triangulation of n points has < 2n triangles.
        (input.len(), 2 * input.len())
    }
    fn graph(_: &Vec<Point>) -> Option<&CsrGraph> {
        None
    }
    fn reference(input: &Vec<Point>) -> Reference<()> {
        let r = baselines::refine_worklist(&Mesh::delaunay(input), refine_cfg());
        assert!(
            mesh_ok(&r.expected, refine_cfg()),
            "sequential refinement left a bad mesh"
        );
        Reference {
            expected: (),
            units: r.units,
            secs: r.secs,
        }
    }
    fn build(input: &Vec<Point>) -> Built<DelaunayOp> {
        let mesh = Mesh::delaunay(input);
        let (space, mut op) = DelaunayOp::with_auto_capacity(&mesh, refine_cfg());
        let tasks = op.initial_tasks();
        Built { space, op, tasks }
    }
    fn engine() -> Engine {
        rounds_hybrid()
    }
    fn verify(op: DelaunayOp, _committed: usize, _input: &Vec<Point>, _: &()) -> bool {
        mesh_ok(&op.into_mesh(), refine_cfg())
    }
}

/// `boruvka-rand8k`: random graph, 8000 nodes, average degree 8,
/// distinct random weights.
pub struct BoruvkaRand;

impl DrainWorkload for BoruvkaRand {
    type Input = WeightedGraph;
    type Expected = (u64, usize);
    type Op = BoruvkaOp;

    fn generate(seed: u64) -> WeightedGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_with_avg_degree(8000, 8.0, &mut rng);
        WeightedGraph::random(g, &mut rng)
    }
    fn size(input: &WeightedGraph) -> (usize, usize) {
        (input.graph.node_count(), input.graph.edge_count())
    }
    fn graph(input: &WeightedGraph) -> Option<&CsrGraph> {
        Some(&input.graph)
    }
    fn reference(input: &WeightedGraph) -> Reference<(u64, usize)> {
        baselines::kruskal(input)
    }
    fn build(input: &WeightedGraph) -> Built<BoruvkaOp> {
        let (space, op) = BoruvkaOp::new(input);
        let tasks = op.initial_tasks();
        Built { space, op, tasks }
    }
    fn engine() -> Engine {
        rounds_hybrid()
    }
    fn verify(
        mut op: BoruvkaOp,
        _committed: usize,
        _input: &WeightedGraph,
        expected: &(u64, usize),
    ) -> bool {
        op.msf() == *expected
    }
}

/// `ccmirror-road400k`: road-like graph, 400,000 nodes, fixed m.
pub struct CcMirrorRoad;

/// Node and edge regions of the cc-mirror for `g`, unsharded.
pub fn ccmirror_plain(g: &CsrGraph) -> (LockSpace, CcMirror) {
    let mut b = LockSpace::builder();
    let layout = CcMirror::layout(g, &mut b);
    let space = b.build();
    let op = layout.finish(&space);
    (space, op)
}

/// Exactly-once commit with every loser rolled back.
pub fn ccmirror_ok(mut op: CcMirror, committed: usize, nodes: usize) -> bool {
    committed == nodes && op.node_data.snapshot().iter().all(|&c| c == 1)
}

impl DrainWorkload for CcMirrorRoad {
    type Input = CsrGraph;
    type Expected = ();
    type Op = CcMirror;
    const SHARD_PROBE: bool = true;

    fn generate(seed: u64) -> CsrGraph {
        gen::road_like(400_000, seed)
    }
    fn size(g: &CsrGraph) -> (usize, usize) {
        (g.node_count(), g.edge_count())
    }
    fn graph(g: &CsrGraph) -> Option<&CsrGraph> {
        Some(g)
    }
    fn reference(g: &CsrGraph) -> Reference<()> {
        baselines::ccmirror_loop(g)
    }
    fn build(g: &CsrGraph) -> Built<CcMirror> {
        let (space, op) = ccmirror_plain(g);
        Built {
            space,
            op,
            tasks: (0..g.node_count() as u32).collect(),
        }
    }
    fn engine() -> Engine {
        Engine {
            pipelined: None,
            controller: || Box::new(FixedController::new(FIXED_M)),
            m_max: FIXED_M,
        }
    }
    fn verify(op: CcMirror, committed: usize, g: &CsrGraph, _: &()) -> bool {
        ccmirror_ok(op, committed, g.node_count())
    }
}
