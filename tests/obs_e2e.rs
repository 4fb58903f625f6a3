//! End-to-end traces beyond what the differential matrix
//! (`tests/matrix.rs`) checks on every cell: the exporters and the
//! summarizer consume a real trace, a one-worker trace is byte-deterministic, and the
//! controller track shows continuous execution converging to ρ. The
//! recorder is attached at run time (`Executor::enable_obs`), so these
//! run in a plain `cargo test`.

use optpar::apps::boruvka::{BoruvkaOp, WeightedGraph};
use optpar::apps::sssp::{SsspInput, SsspOp};
use optpar::core::control::{HybridController, HybridParams};
use optpar::graph::gen;
use optpar::runtime::obs::{export, report, EventKind, EventLog};
use optpar::runtime::{
    Abort, Executor, ExecutorConfig, LockSpace, Operator, PipelinedConfig, RunStats, TaskCtx,
    WorkSet,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn config(workers: usize) -> ExecutorConfig {
    ExecutorConfig {
        workers,
        ..ExecutorConfig::default()
    }
}

/// Drain `tasks` by barrier rounds (one worker) under the hybrid
/// controller with the recorder attached, and return what it recorded
/// next to the run's own stats.
fn record<O: Operator>(
    op: &O,
    space: &LockSpace,
    tasks: Vec<O::Task>,
    seed: u64,
) -> (EventLog, RunStats) {
    let mut ex = Executor::new(op, space, config(1));
    ex.enable_obs();
    let mut ws = WorkSet::from_vec(tasks);
    let mut ctl = HybridController::with_rho(0.25);
    let mut rng = StdRng::seed_from_u64(seed);
    let run = ex.run_with_controller(&mut ws, &mut ctl, 1_000_000, &mut rng);
    assert!(ws.is_empty());
    let log = ex.recorder().expect("recorder enabled above").snapshot();
    (log, run)
}

fn sssp_trace(seed: u64) -> EventLog {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen::random_with_avg_degree(600, 6.0, &mut rng);
    let (space, op) = SsspOp::new(SsspInput::random(g, 0, 100, &mut rng));
    record(&op, &space, op.initial_tasks(), seed).0
}

#[test]
fn exporters_consume_a_real_trace() {
    let mut rng = StdRng::seed_from_u64(77);
    let g = gen::random_with_avg_degree(500, 6.0, &mut rng);
    let (space, op) = BoruvkaOp::new(&WeightedGraph::random(g, &mut rng));
    let (log, run) = record(&op, &space, op.initial_tasks(), 77);
    let chrome = export::chrome_trace(&log);
    assert!(chrome.contains("\"traceEvents\""));
    assert!(!chrome.contains("NaN"), "chrome trace must stay JSON-legal");
    // The digest of the canonical dump books what the run booked.
    let summary = report::summarize(&export::events_jsonl(&log)).expect("event summary");
    let totals = summary
        .lines()
        .find_map(|l| l.trim().strip_prefix("totals: "))
        .expect("a totals line");
    let want = format!(
        "launched {}, committed {}, aborted {}, faulted {}",
        run.total_launched(),
        run.total_committed(),
        run.total_aborted(),
        run.total_faulted()
    );
    assert!(run.total_launched() > 0);
    assert!(totals.starts_with(&format!("{want} (")), "{summary}");
}

#[test]
fn single_worker_trace_is_byte_deterministic() {
    let a = export::events_jsonl(&sssp_trace(99));
    let b = export::events_jsonl(&sssp_trace(99));
    assert!(!a.is_empty());
    assert_eq!(
        a, b,
        "two sequential runs from one seed must serialize identically"
    );
}

// ---------------------------------------------------------------------
// Continuous-mode (pipelined at batch = 1) controller convergence,
// read from the trace's controller track
// ---------------------------------------------------------------------

/// Boruvka with artificially long merges. Continuous-mode conflicts
/// require *temporal* overlap between in-flight tasks; real component
/// merges finish in microseconds, so an unmodified operator produces
/// an almost conflict-free trace no matter what budget the controller
/// picks. Spinning after the real work stretches every task's lock
/// hold long enough that unthrottled concurrency genuinely collides —
/// the adversarial workload the controller is supposed to tame. The
/// graph is dense (degree 16) and the spin long on purpose: the
/// unthrottled conflict ratio has to clear ρ for there to be anything
/// to steer, and at degree 8 / 4000 spins it only sometimes does.
struct SlowBoruvka {
    inner: BoruvkaOp,
    spins: u32,
}

impl Operator for SlowBoruvka {
    type Task = u32;
    fn execute(&self, t: &u32, cx: &mut TaskCtx<'_>) -> Result<Vec<u32>, Abort> {
        let out = self.inner.execute(t, cx);
        for i in 0..self.spins {
            std::hint::black_box(i);
        }
        out
    }
}

/// One continuous-mode run; returns Ok(()) when the controller track
/// shows convergence to the ρ band, Err(diagnostic) otherwise.
fn convergence_attempt(rho: f64, seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen::random_with_avg_degree(256, 16.0, &mut rng);
    let wg = WeightedGraph::random(g, &mut rng);
    let (space, inner) = BoruvkaOp::new(&wg);
    let tasks = inner.initial_tasks();
    let op = SlowBoruvka {
        inner,
        spins: 16_000,
    };
    let mut ex = Executor::new(&op, &space, config(8));
    ex.enable_obs();
    let mut ws = WorkSet::from_vec(tasks);
    let mut ctl = HybridController::new(HybridParams {
        rho,
        m_max: 64,
        ..HybridParams::default()
    });
    // Continuous execution is the pipelined executor at batch = 1.
    let cfg = PipelinedConfig {
        window: 16,
        batch: 1,
        max_completions: 1_000_000,
    };
    let _ = ex.run_pipelined(&mut ws, &mut ctl, cfg, &mut rng);
    assert!(ws.is_empty(), "continuous run did not drain");

    let log = ex.recorder().expect("recorder enabled").snapshot();
    let series: Vec<f64> = log
        .events
        .iter()
        .filter_map(|te| match te.event.kind {
            EventKind::Controller { r_bits, .. } => Some(f64::from_bits(r_bits)),
            _ => None,
        })
        .collect();
    if series.len() < 12 {
        return Err(format!("only {} controller windows", series.len()));
    }
    // Smooth the per-window ratio, then look for a sustained stretch
    // inside ρ ± 0.1. A cold prefix (sparse early graph: few genuine
    // collisions regardless of budget) and an endgame burst (a handful
    // of surviving components, so every window has a tiny denominator)
    // bracket the steered region; the claim under test is that the
    // trajectory *enters* the band once contention is real and *stays*
    // predominantly inside it while the adversarial phase lasts.
    const SMOOTH: usize = 4;
    let smoothed: Vec<f64> = series
        .windows(SMOOTH)
        .map(|w| w.iter().sum::<f64>() / SMOOTH as f64)
        .collect();
    let in_band = |r: f64| (r - rho).abs() <= 0.1;
    let entry = smoothed
        .iter()
        .position(|&r| in_band(r))
        .ok_or_else(|| format!("never entered the ρ band: {smoothed:?}"))?;
    let last = smoothed
        .iter()
        .rposition(|&r| in_band(r))
        .expect("entry exists, so rposition must too");
    let span = last - entry + 1;
    if span < 6 {
        return Err(format!(
            "band presence too short ({span} windows): {smoothed:?}"
        ));
    }
    let stayed = smoothed[entry..=last]
        .iter()
        .filter(|&&r| in_band(r))
        .count();
    if stayed * 2 < span {
        return Err(format!(
            "left the ρ band too often after entry ({stayed}/{span} windows in band): {smoothed:?}"
        ));
    }
    Ok(())
}

/// Continuous-mode scheduling is real-time concurrent — which tasks
/// overlap depends on thread timing, so any single run can land a cold
/// draw on a loaded machine. The controller only has to demonstrate
/// convergence on one of a few independent seeds; a regression that
/// breaks the steering loop fails all of them.
#[test]
fn continuous_controller_converges_to_rho_band() {
    const RHO: f64 = 0.25;
    let mut failures = Vec::new();
    for seed in [8u64, 7, 11, 6] {
        match convergence_attempt(RHO, seed) {
            Ok(()) => return,
            Err(why) => failures.push(format!("seed {seed}: {why}")),
        }
    }
    panic!(
        "controller never converged to ρ ± 0.1 on any seed:\n{}",
        failures.join("\n")
    );
}
