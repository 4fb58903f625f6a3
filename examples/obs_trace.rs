//! Record a full observability trace of an adaptive Boruvka run and
//! export it in both supported formats.
//!
//! Produces, under `target/obs/`:
//!
//! * `trace.json` — Chrome trace-event JSON; open it in Perfetto
//!   (<https://ui.perfetto.dev>) to see the worker track (a round runs
//!   on one thread) plus a controller track plotting `m(t)` and the
//!   conflict ratio.
//! * `events.jsonl` — the canonical byte-deterministic event stream,
//!   which `cargo run -p xtask -- report target/obs/events.jsonl`
//!   summarizes.
//!
//! The recorded stream is also cross-checked against the executor's
//! own `RoundStats` by the trace validator before anything is
//! written.
//!
//! Run with: `cargo run --release --example obs_trace`

use optpar::apps::boruvka::{BoruvkaOp, WeightedGraph};
use optpar::core::control::{Controller, HybridController, HybridParams};
use optpar::graph::gen;
use optpar::runtime::obs::{export, validate, RoundCheck};
use optpar::runtime::{Executor, ExecutorConfig, WorkSet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::path::Path;

fn main() {
    let mut rng = StdRng::seed_from_u64(23);
    let graph = gen::random_with_avg_degree(5_000, 6.0, &mut rng);
    let wg = WeightedGraph::random(graph, &mut rng);

    let (space, op) = BoruvkaOp::new(&wg);
    let mut ex = Executor::new(
        &op,
        &space,
        ExecutorConfig {
            workers: 1,
            ..ExecutorConfig::default()
        },
    );
    ex.enable_obs();
    let mut ws = WorkSet::from_vec(op.initial_tasks());
    let mut ctl = HybridController::new(HybridParams {
        rho: 0.25,
        m_max: 2048,
        ..HybridParams::default()
    });

    // Drive the run round by round, keeping the executor's own
    // accounting so the validator has something to cross-check.
    let mut checks = Vec::new();
    while !ws.is_empty() {
        let m = ctl.current_m();
        let rs = ex.run_round(&mut ws, m, &mut rng);
        ctl.observe(rs.pressure_ratio(), rs.launched);
        checks.push(RoundCheck {
            m: m as u64,
            launched: rs.launched as u64,
            committed: rs.committed as u64,
            aborted: rs.aborted as u64,
            faulted: rs.faulted as u64,
            spawned: rs.spawned as u64,
            conflict_ratio_bits: rs.conflict_ratio().to_bits(),
        });
    }

    let rec = ex.recorder().expect("recorder was enabled above");
    let log = rec.snapshot();
    match validate::validate(&log, &checks) {
        Ok(report) => println!(
            "trace validated: {} rounds, {} events, {} lock acquires",
            report.rounds, report.events, report.lock_acquires
        ),
        Err(violations) => {
            for v in &violations {
                eprintln!("trace violation: {v}");
            }
            panic!("{} trace violations", violations.len());
        }
    }

    let dir = Path::new("target/obs");
    fs::create_dir_all(dir).expect("create target/obs");
    fs::write(dir.join("trace.json"), export::chrome_trace(&log)).expect("write trace.json");
    fs::write(dir.join("events.jsonl"), export::events_jsonl(&log)).expect("write events.jsonl");

    println!(
        "wrote target/obs/{{trace.json, events.jsonl}} ({} events)",
        log.events.len()
    );
    println!("summarize with: cargo run -p xtask -- report target/obs/events.jsonl");
}
