//! Million-node scale harness (`BENCH_scale.json`).
//!
//! Sweeps app × graph × shard layout × executor mode × workers over
//! *large* generated inputs (R-MAT, diagonal grid, road-network-like;
//! the flagship graphs exceed 10⁶ nodes) and reports, per cell:
//!
//! * committed tasks / second (end-to-end, graph + partition build
//!   excluded — those are one-time input costs shared by every cell);
//! * the partition's **cut fraction** (cut edges / edges), the static
//!   proxy for cross-shard traffic;
//! * the measured **cross-shard acquire fraction** from the runtime's
//!   shard-crossing counters (`obs` builds; `null` otherwise) — the
//!   dynamic ground truth the cut fraction is supposed to predict.
//!
//! Every cell runs the *sharded* store code path with `k = 8` shards;
//! the two layouts differ only in the partition that feeds
//! [`ShardMap`]:
//!
//! * `rr`  — round-robin parts (`v mod k`): the "unpartitioned"
//!   baseline. Locality-blind, cut fraction ≈ (k−1)/k.
//! * `bfs` — BFS-grown parts from [`optpar_core::partition`]; the
//!   pipelined executor additionally places tasks partition-affine.
//!
//! The headline acceptance check (printed and recorded in the JSON):
//! on each app's flagship graph the partitioned runs' cross-shard
//! acquire fraction must undercut the round-robin baseline's cut
//! fraction — i.e. partitioning moved real lock traffic, not just a
//! static statistic, off the shard boundaries.
//!
//! Every run is oracle-verified (SSSP against sequential Dijkstra;
//! cc-mirror counters all-ones) before its row is emitted.
//!
//! Usage: `scale [--smoke] [--csv]` — `--smoke` shrinks the graphs to
//! ~10⁵ nodes for CI; the committed `BENCH_scale.json` comes from a
//! full (no-flag) run with `--features obs`.

use optpar_apps::ccmirror::CcMirror;
use optpar_apps::sssp::{SsspInput, SsspOp};
use optpar_bench::{f, pct, Table, SEED};
use optpar_core::control::FixedController;
use optpar_core::partition::{bfs_partition, round_robin, Partition};
use optpar_graph::{gen, ConflictGraph, CsrGraph};
use optpar_runtime::{Executor, ExecutorConfig, LockSpace, PipelinedConfig, ShardMap, WorkSet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Shard count — fixed and decoupled from the worker count so the
/// layout comparison is not confounded by parallelism.
const SHARDS: usize = 8;
/// Tasks drawn per round in pooled mode.
const POOLED_M: usize = 2048;
/// In-flight budget in pipelined mode.
const PIPE_BUDGET: usize = 2048;
/// Allowed partition imbalance for the BFS partitioner.
const IMBALANCE: f64 = 1.25;

/// One measured cell of the sweep.
struct Row {
    app: &'static str,
    graph: String,
    nodes: usize,
    edges: usize,
    /// `"rr"` (round-robin baseline) or `"bfs"` (BFS partition).
    layout: &'static str,
    /// `"pooled"` (round-barrier) or `"pipelined"`.
    mode: &'static str,
    workers: usize,
    committed: usize,
    elapsed: f64,
    /// Static cut fraction of the partition backing this cell.
    cut_fraction: f64,
    /// `(shard-homed acquires, crossings)` from the lock space
    /// (`obs` builds only).
    cross: Option<(u64, u64)>,
    verified: bool,
}

impl Row {
    fn commits_per_s(&self) -> f64 {
        self.committed as f64 / self.elapsed.max(1e-9)
    }

    /// Crossings / acquires; `None` without `obs`.
    fn cross_fraction(&self) -> Option<f64> {
        self.cross
            .map(|(a, c)| if a == 0 { 0.0 } else { c as f64 / a as f64 })
    }
}

fn shard_counts(space: &LockSpace) -> Option<(u64, u64)> {
    #[cfg(feature = "obs")]
    {
        return Some(space.shard_counts());
    }
    #[cfg(not(feature = "obs"))]
    {
        let _ = space;
        None
    }
}

/// Drain a work-set to quiescence in the requested mode and return the
/// committed count. In pipelined mode with the BFS layout, tasks are
/// placed partition-affine (the runtime wraps the part id modulo the
/// worker count); everywhere else the executor's defaults (uniform
/// draw / round-robin spawn) apply.
fn drain<O: optpar_runtime::Operator>(
    ex: &Executor<'_, O>,
    ws: &mut WorkSet<O::Task>,
    affine: bool,
    mode: &'static str,
    seed: u64,
    part_of: impl Fn(&O::Task) -> usize + Sync,
) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    match mode {
        "pooled" => {
            let mut committed = 0;
            let mut rounds = 0usize;
            while !ws.is_empty() {
                committed += ex.run_round(ws, POOLED_M, &mut rng).committed;
                rounds += 1;
                assert!(rounds < 100_000_000, "pooled run did not quiesce");
            }
            committed
        }
        "pipelined" => {
            let mut ctl = FixedController::new(PIPE_BUDGET);
            let cfg = PipelinedConfig {
                window: 1024,
                batch: 64,
                ..PipelinedConfig::default()
            };
            let run = if affine {
                let place = move |t: &O::Task| part_of(t);
                ex.run_pipelined_placed(ws, &mut ctl, cfg, &mut rng, Some(&place))
            } else {
                ex.run_pipelined(ws, &mut ctl, cfg, &mut rng)
            };
            assert!(ws.is_empty(), "pipelined run did not quiesce");
            run.total_committed()
        }
        other => unreachable!("unknown mode {other}"),
    }
}

/// One SSSP cell: sharded store from `part`, drain, verify against the
/// precomputed Dijkstra `reference`.
#[allow(clippy::too_many_arguments)]
fn run_sssp(
    input: &SsspInput,
    gname: &str,
    part: &Partition,
    layout: &'static str,
    mode: &'static str,
    workers: usize,
    reference: &[u64],
    seed: u64,
) -> Row {
    let map = Arc::new(ShardMap::from_parts(&part.parts, part.k));
    let (space, op) = SsspOp::new_sharded(input.clone(), map);
    let ex = Executor::new(
        &op,
        &space,
        ExecutorConfig {
            workers,
            ..ExecutorConfig::default()
        },
    );
    let mut ws = WorkSet::from_vec(op.initial_tasks());
    let parts = part.parts.clone();
    let t0 = Instant::now();
    let committed = drain(&ex, &mut ws, layout == "bfs", mode, seed, move |t: &u32| {
        parts[*t as usize] as usize
    });
    let elapsed = t0.elapsed().as_secs_f64();
    space.check_all_free().expect("locks must quiesce");
    let cross = shard_counts(&space);
    let mut op = op;
    let verified = op.distances() == reference;
    Row {
        app: "sssp",
        graph: gname.to_string(),
        nodes: input.graph.node_count(),
        edges: input.graph.edge_count(),
        layout,
        mode,
        workers,
        committed,
        elapsed,
        cut_fraction: part.cut_fraction(),
        cross,
        verified,
    }
}

/// One cc-mirror cell: every node is a task; verify all-ones counters
/// (exactly-once commit with full rollback of losers).
fn run_cc(
    g: &CsrGraph,
    gname: &str,
    part: &Partition,
    layout: &'static str,
    mode: &'static str,
    workers: usize,
    seed: u64,
) -> Row {
    let mut b = LockSpace::builder();
    let lay = CcMirror::layout_sharded(g, &mut b, &part.parts, part.k);
    let space = b.build();
    let op = lay.finish(&space);
    let ex = Executor::new(
        &op,
        &space,
        ExecutorConfig {
            workers,
            ..ExecutorConfig::default()
        },
    );
    let n = g.node_count();
    let mut ws = WorkSet::from_vec((0..n as u32).collect::<Vec<_>>());
    let parts = part.parts.clone();
    let t0 = Instant::now();
    let committed = drain(&ex, &mut ws, layout == "bfs", mode, seed, move |t: &u32| {
        parts[*t as usize] as usize
    });
    let elapsed = t0.elapsed().as_secs_f64();
    space.check_all_free().expect("locks must quiesce");
    let cross = shard_counts(&space);
    let mut nd = op.node_data;
    let verified = committed == n && nd.snapshot().iter().all(|&c| c == 1);
    Row {
        app: "ccmirror",
        graph: gname.to_string(),
        nodes: n,
        edges: g.edge_count(),
        layout,
        mode,
        workers,
        committed,
        elapsed,
        cut_fraction: part.cut_fraction(),
        cross,
        verified,
    }
}

/// Per-app locality verdict on the flagship (largest) graph.
struct Locality {
    app: &'static str,
    graph: String,
    /// Static cut fraction of the round-robin baseline layout.
    cut_rr: f64,
    /// Static cut fraction of the BFS partition.
    cut_bfs: f64,
    /// Worst (max) measured cross-shard fraction over partitioned runs.
    cross_bfs_max: Option<f64>,
    /// Best (min) measured cross-shard fraction over baseline runs.
    cross_rr_min: Option<f64>,
}

impl Locality {
    /// The acceptance gate: partitioned dynamic crossings undercut the
    /// baseline's static cut fraction. `None` without `obs` counters.
    fn gate_ok(&self) -> Option<bool> {
        self.cross_bfs_max.map(|x| x < self.cut_rr)
    }
}

fn locality_for(rows: &[Row], app: &'static str, graph: &str) -> Locality {
    let sel: Vec<&Row> = rows
        .iter()
        .filter(|r| r.app == app && r.graph == graph)
        .collect();
    let cut = |layout: &str| {
        sel.iter()
            .find(|r| r.layout == layout)
            .map(|r| r.cut_fraction)
            .unwrap_or(f64::NAN)
    };
    let cross = |layout: &str, max: bool| {
        let mut vals: Vec<f64> = sel
            .iter()
            .filter(|r| r.layout == layout)
            .filter_map(|r| r.cross_fraction())
            .collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        if max {
            vals.last().copied()
        } else {
            vals.first().copied()
        }
    };
    Locality {
        app,
        graph: graph.to_string(),
        cut_rr: cut("rr"),
        cut_bfs: cut("bfs"),
        cross_bfs_max: cross("bfs", true),
        cross_rr_min: cross("rr", false),
    }
}

fn opt_json(x: Option<f64>) -> String {
    x.map(|v| format!("{v:.6}")).unwrap_or_else(|| "null".into())
}

fn to_json(smoke: bool, rows: &[Row], locality: &[Locality]) -> String {
    let nproc = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"scale\",");
    let _ = writeln!(s, "  \"seed\": {SEED},");
    let _ = writeln!(s, "  \"smoke\": {smoke},");
    let _ = writeln!(s, "  \"shards\": {SHARDS},");
    let _ = writeln!(s, "  \"pooled_m\": {POOLED_M},");
    let _ = writeln!(s, "  \"pipelined_budget\": {PIPE_BUDGET},");
    let _ = writeln!(s, "  \"nproc\": {nproc},");
    s.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let (acq, crs) = match r.cross {
            Some((a, c)) => (a.to_string(), c.to_string()),
            None => ("null".into(), "null".into()),
        };
        let _ = write!(
            s,
            "    {{\"app\": \"{}\", \"graph\": \"{}\", \"nodes\": {}, \
             \"edges\": {}, \"layout\": \"{}\", \"mode\": \"{}\", \
             \"workers\": {}, \"committed\": {}, \"elapsed_s\": {:.6}, \
             \"commits_per_s\": {:.1}, \"cut_fraction\": {:.6}, \
             \"shard_acquires\": {}, \"shard_crossings\": {}, \
             \"cross_fraction\": {}, \"verified\": {}}}",
            r.app,
            r.graph,
            r.nodes,
            r.edges,
            r.layout,
            r.mode,
            r.workers,
            r.committed,
            r.elapsed,
            r.commits_per_s(),
            r.cut_fraction,
            acq,
            crs,
            opt_json(r.cross_fraction()),
            r.verified,
        );
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"locality\": [\n");
    for (i, l) in locality.iter().enumerate() {
        let gate = l
            .gate_ok()
            .map(|b| b.to_string())
            .unwrap_or_else(|| "null".into());
        let _ = write!(
            s,
            "    {{\"app\": \"{}\", \"graph\": \"{}\", \"cut_rr\": {:.6}, \
             \"cut_bfs\": {:.6}, \"cross_bfs_max\": {}, \
             \"cross_rr_min\": {}, \"gate_cross_below_rr_cut\": {}}}",
            l.app,
            l.graph,
            l.cut_rr,
            l.cut_bfs,
            opt_json(l.cross_bfs_max),
            opt_json(l.cross_rr_min),
            gate,
        );
        s.push_str(if i + 1 < locality.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut rng = StdRng::seed_from_u64(SEED);

    // Second-named graph per app is the flagship (the locality gate
    // runs there; in full mode it has ≥ 2²⁰ nodes).
    eprintln!("[scale] generating graphs (smoke={smoke})...");
    let sssp_graphs: Vec<(String, CsrGraph)> = if smoke {
        vec![
            ("rmat14".into(), gen::rmat(14, 8, SEED)),
            ("grid320".into(), gen::grid2d_diag(320, 320)),
        ]
    } else {
        vec![
            ("rmat18".into(), gen::rmat(18, 8, SEED)),
            ("grid1024".into(), gen::grid2d_diag(1024, 1024)),
        ]
    };
    let cc_graphs: Vec<(String, CsrGraph)> = if smoke {
        vec![
            ("rmat14".into(), gen::rmat(14, 8, SEED)),
            ("road100k".into(), gen::road_like(100_000, SEED)),
        ]
    } else {
        vec![
            ("rmat18".into(), gen::rmat(18, 8, SEED)),
            ("road1m".into(), gen::road_like(1 << 20, SEED)),
        ]
    };

    let mut rows: Vec<Row> = Vec::new();
    let mut cell = 0usize;

    for (gname, g) in &sssp_graphs {
        let part_rr = round_robin(g, SHARDS);
        let part_bfs = bfs_partition(g, SHARDS, IMBALANCE);
        let input = SsspInput::random(g.clone(), 0, 1000, &mut rng);
        eprintln!(
            "[scale] sssp/{gname}: n={} m={} cut_rr={:.3} cut_bfs={:.3}; dijkstra...",
            g.node_count(),
            g.edge_count(),
            part_rr.cut_fraction(),
            part_bfs.cut_fraction()
        );
        let reference = input.dijkstra();
        for (layout, part) in [("rr", &part_rr), ("bfs", &part_bfs)] {
            for mode in ["pooled", "pipelined"] {
                for workers in [1usize, 4] {
                    cell += 1;
                    let row = run_sssp(
                        &input,
                        gname,
                        part,
                        layout,
                        mode,
                        workers,
                        &reference,
                        SEED ^ cell as u64,
                    );
                    assert!(row.verified, "sssp/{gname}/{layout}/{mode}/w{workers} failed oracle");
                    eprintln!(
                        "[scale]   {layout}/{mode}/w{workers}: {:.1} commits/s ({:.2}s)",
                        row.commits_per_s(),
                        row.elapsed
                    );
                    rows.push(row);
                }
            }
        }
    }

    for (gname, g) in &cc_graphs {
        let part_rr = round_robin(g, SHARDS);
        let part_bfs = bfs_partition(g, SHARDS, IMBALANCE);
        eprintln!(
            "[scale] ccmirror/{gname}: n={} m={} cut_rr={:.3} cut_bfs={:.3}",
            g.node_count(),
            g.edge_count(),
            part_rr.cut_fraction(),
            part_bfs.cut_fraction()
        );
        for (layout, part) in [("rr", &part_rr), ("bfs", &part_bfs)] {
            for mode in ["pooled", "pipelined"] {
                for workers in [1usize, 4] {
                    cell += 1;
                    let row = run_cc(g, gname, part, layout, mode, workers, SEED ^ cell as u64);
                    assert!(
                        row.verified,
                        "ccmirror/{gname}/{layout}/{mode}/w{workers} failed oracle"
                    );
                    eprintln!(
                        "[scale]   {layout}/{mode}/w{workers}: {:.1} commits/s ({:.2}s)",
                        row.commits_per_s(),
                        row.elapsed
                    );
                    rows.push(row);
                }
            }
        }
    }

    let mut table = Table::new([
        "app", "graph", "nodes", "layout", "mode", "w", "commits/s", "cut", "cross",
    ]);
    for r in &rows {
        table.row([
            r.app.to_string(),
            r.graph.clone(),
            r.nodes.to_string(),
            r.layout.to_string(),
            r.mode.to_string(),
            r.workers.to_string(),
            f(r.commits_per_s(), 0),
            pct(r.cut_fraction),
            r.cross_fraction().map(pct).unwrap_or_else(|| "-".into()),
        ]);
    }
    table.print("scale sweep (k=8 shards)");

    let locality: Vec<Locality> = vec![
        locality_for(&rows, "sssp", &sssp_graphs[1].0),
        locality_for(&rows, "ccmirror", &cc_graphs[1].0),
    ];
    println!("\n== locality gate (flagship graphs) ==");
    let mut all_ok = true;
    for l in &locality {
        let verdict = match l.gate_ok() {
            Some(true) => "PASS",
            Some(false) => {
                all_ok = false;
                "FAIL"
            }
            None => "SKIP (build without `obs`: no crossing counters)",
        };
        println!(
            "{}/{}: cross(bfs) max {} < cut(rr) {} ... {verdict}   [cut(bfs) {}]",
            l.app,
            l.graph,
            l.cross_bfs_max.map(pct).unwrap_or_else(|| "-".into()),
            pct(l.cut_rr),
            pct(l.cut_bfs),
        );
    }

    let json = to_json(smoke, &rows, &locality);
    std::fs::write("BENCH_scale.json", &json).expect("write BENCH_scale.json");
    println!("\nwrote BENCH_scale.json ({} rows)", rows.len());
    assert!(all_ok, "locality gate failed: partitioned runs crossed shards more than the round-robin cut fraction");
}
