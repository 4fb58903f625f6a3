//! **TAB-PROF** — the §4.1 motivation, measured on the *real*
//! application: the available-parallelism profile of Delaunay mesh
//! refinement. The paper (citing LonStar) claims parallelism "can go
//! from no parallelism to one thousand possible parallel tasks in just
//! 30 temporal steps"; here we measure the oracle profile of our own
//! refinement workload by launching the entire work-set every round
//! (maximum speculation) and counting commits — the per-step count of
//! cavities an oracle could refine conflict-free.
//!
//! Usage: `repro tab-prof [points] [--csv]`

use optpar_apps::delaunay::{DelaunayOp, RefineConfig};
use optpar_apps::geometry::Point;
use optpar_apps::triangulation::Mesh;
use optpar_bench::{downsample, sparkline, Table, SEED};
use optpar_runtime::{Executor, ExecutorConfig, WorkSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub fn run(arg: Option<usize>, csv: bool) {
    let npts: usize = arg.unwrap_or(150);
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut pts = vec![
        Point::new(0.0, 0.0),
        Point::new(1.0, 0.0),
        Point::new(1.0, 1.0),
        Point::new(0.0, 1.0),
    ];
    pts.extend((0..npts).map(|_| Point::new(rng.random::<f64>(), rng.random::<f64>())));
    let mesh = Mesh::delaunay(&pts);
    let cfg = RefineConfig::area_only(1e-4);

    let (space, mut op) = DelaunayOp::with_auto_capacity(&mesh, cfg);
    let tasks = op.initial_tasks();
    let ex = Executor::new(
        &op,
        &space,
        ExecutorConfig {
            workers: 1, // oracle measurement wants the model's exact rule
            ..ExecutorConfig::default()
        },
    );
    let mut ws = WorkSet::from_vec(tasks);
    let mut profile: Vec<usize> = Vec::new();
    let mut pending: Vec<usize> = Vec::new();
    while !ws.is_empty() {
        pending.push(ws.len());
        let rs = ex.run_round(&mut ws, usize::MAX, &mut rng);
        profile.push(rs.committed);
        assert!(profile.len() < 100_000);
    }

    let mut table = Table::new(["step", "pending work", "oracle parallelism"]);
    for (t, (&p, &w)) in profile.iter().zip(&pending).enumerate() {
        table.row([t.to_string(), w.to_string(), p.to_string()]);
    }
    println!(
        "TAB-PROF: Delaunay refinement oracle parallelism, {} initial points, max_area = {}",
        npts, cfg.max_area
    );
    table.print(
        "§4.1 — available-parallelism profile of mesh refinement",
        csv,
    );

    let as_f64: Vec<f64> = profile.iter().map(|&x| x as f64).collect();
    let peak = profile.iter().copied().max().unwrap_or(0);
    let peak_step = profile.iter().position(|&x| x == peak).unwrap_or(0);
    println!(
        "\nprofile: {}\npeak {} parallel cavities at step {} of {}; the ramp from {} to {} \
         spans {} steps — the abrupt growth §4.1 demands fast adaptation for.",
        sparkline(&downsample(&as_f64, 72)),
        peak,
        peak_step,
        profile.len(),
        profile.first().unwrap_or(&0),
        peak,
        peak_step,
    );
}
