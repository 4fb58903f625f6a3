//! The five drain workloads share one measurement procedure: generate
//! the input from the seed, time the sequential reference, then
//! repeatedly build a fresh operator / `LockSpace` / `WorkSet` and time
//! the engine draining it, at one worker and at `min(nproc, 2)`.
//! Drains are destructive, so everything is rebuilt per rep; that cost
//! is `setup_s`, never `solve_*`.

use crate::baselines::Reference;
use crate::probes;
use crate::stats::{windowed_ratio, Summary};
use crate::trace::{timed, ControlProbe, TimedOp, Tracer};
use crate::{peak_rss_mb, Run, RunArgs};
use optpar_core::control::Controller;
use optpar_core::partition::bfs_partition;
use optpar_graph::CsrGraph;
use optpar_runtime::{
    ConflictPolicy, Executor, ExecutorConfig, LockSpace, Operator, PhaseClock, PipelinedConfig,
    RunStats, WorkSet,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// How a workload's work-set is drained.
pub struct Engine {
    /// `Some` = `Executor::run_pipelined`; `None` = barrier rounds via
    /// `Executor::run_with_controller`.
    pub pipelined: Option<PipelinedConfig>,
    pub controller: fn() -> Box<dyn Controller + Send>,
    /// The controller's upper clamp (for `core.control.converge_round`).
    pub m_max: usize,
}

/// A freshly built, not yet drained problem instance.
pub struct Built<O: Operator> {
    pub space: LockSpace,
    pub op: O,
    pub tasks: Vec<O::Task>,
}

pub trait DrainWorkload {
    type Input;
    type Expected;
    type Op: Operator;
    /// Also measure whether sharding the stores pays
    /// (`runtime.shard.placed_ratio`).
    const SHARD_PROBE: bool = false;

    /// The input, from the seed alone (`graph.gen`).
    fn generate(seed: u64) -> Self::Input;
    /// `(nodes, edges)`; points and triangles for the mesh.
    fn size(input: &Self::Input) -> (usize, usize);
    /// The input's graph, where partitioning it means something.
    fn graph(input: &Self::Input) -> Option<&CsrGraph>;
    /// The timed sequential baseline.
    fn reference(input: &Self::Input) -> Reference<Self::Expected>;
    /// Operator, lock space and initial tasks (`apps.build`).
    fn build(input: &Self::Input) -> Built<Self::Op>;
    fn engine() -> Engine;
    /// Is the drained operator's state the reference's answer?
    fn verify(
        op: Self::Op,
        committed: usize,
        input: &Self::Input,
        expected: &Self::Expected,
    ) -> bool;
}

/// Worker counts measured: one, and two where the host has them —
/// never more load-generating threads than processors.
pub fn worker_counts() -> [usize; 2] {
    [1, crate::nproc().min(2)]
}

/// One timed drain.
pub struct DrainSample {
    pub build_s: f64,
    pub solve_s: f64,
    pub ok: bool,
    pub stats: RunStats,
    /// Traced drains only.
    pub traced: Option<TracedParts>,
}

pub struct TracedParts {
    pub execute_calls: u64,
    pub execute_ns: u64,
    pub phases: optpar_runtime::PhaseBreakdown,
    pub control: ControlProbe,
}

/// An executor over `op` with `workers` threads and the runtime's
/// default policy and budgets.
pub fn executor<'a, O: Operator>(
    op: &'a O,
    space: &'a LockSpace,
    workers: usize,
) -> Executor<'a, O> {
    Executor::new(
        op,
        space,
        ExecutorConfig {
            workers,
            policy: ConflictPolicy::FirstWins,
            ..ExecutorConfig::default()
        },
    )
}

/// Drive the work-set to quiescence through the workload's engine;
/// returns the run's statistics and the wall-clock of the engine call.
/// Generic over the operator so the traced run can pass the timing
/// wrapper and the untraced run the bare operator.
fn run_engine<O: Operator>(
    ex: &Executor<'_, O>,
    ws: &mut WorkSet<O::Task>,
    engine: &Engine,
    seed: u64,
    ctl: &mut ControlProbe,
) -> (RunStats, f64) {
    // Same engine seed every rep: at one worker each rep repeats the
    // same launches and commits, so samples time identical work.
    let mut rng = StdRng::seed_from_u64(seed);
    timed(|| match engine.pipelined {
        Some(cfg) => ex.run_pipelined(ws, ctl, cfg, &mut rng),
        None => ex.run_with_controller(ws, ctl, usize::MAX, &mut rng),
    })
}

/// Build, drain, verify once.
pub fn drain_once<W: DrainWorkload>(
    input: &W::Input,
    expected: &W::Expected,
    workers: usize,
    seed: u64,
    tr: &mut Tracer,
    trace_this: bool,
) -> DrainSample {
    let engine = W::engine();
    let (built, build_s) = tr.span("apps.build", workers, |_| W::build(input));
    let Built { space, op, tasks } = built;
    let mut ws = WorkSet::from_vec(tasks);
    let mut ctl = ControlProbe::new((engine.controller)(), trace_this);
    let clock = PhaseClock::new();

    let mut execute = (0u64, 0u64);
    let ((stats, solve_s), _) = tr.span("runtime.drain", workers, |tr| {
        if trace_this {
            let top = TimedOp::new(&op);
            let mut ex = executor(&top, &space, workers);
            ex.set_phase_clock(&clock);
            let out = run_engine(&ex, &mut ws, &engine, seed, &mut ctl);
            execute = top.totals();
            tr.aggregate("apps.execute", execute.0, execute.1);
            tr.aggregate(
                "core.control.observe",
                ctl.steps.len() as u64,
                ctl.observe_ns,
            );
            out
        } else {
            run_engine(
                &executor(&op, &space, workers),
                &mut ws,
                &engine,
                seed,
                &mut ctl,
            )
        }
    });

    let (ok, _) = tr.span("verify", workers, |_| {
        let accounted = stats.total_launched()
            == stats.total_committed() + stats.total_aborted() + stats.total_faulted();
        ws.is_empty()
            && accounted
            && stats.total_faulted() == 0
            && space.check_all_free().is_ok()
            && W::verify(op, stats.total_committed(), input, expected)
    });
    DrainSample {
        build_s,
        solve_s,
        ok,
        stats,
        traced: trace_this.then(|| TracedParts {
            execute_calls: execute.0,
            execute_ns: execute.1,
            phases: clock.snapshot(),
            control: ctl,
        }),
    }
}

/// How often the input is generated (each timed) before measuring.
const GEN_REPS: usize = 9;
/// Measuring-loop iterations, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// What one run's measuring loop collected.
struct Measured<W: DrainWorkload> {
    input: W::Input,
    /// Work units of the sequential reference.
    units: usize,
    gen_s: Vec<f64>,
    ref_s: Vec<f64>,
    build_s: Vec<f64>,
    /// Solve times of the untraced drains, per measured worker count.
    solve: Vec<Vec<f64>>,
    /// The traced drains, per measured worker count (traced runs only).
    traced: Vec<Vec<DrainSample>>,
    /// `VmHWM` after the warm-up solves.
    peak_rss_mb: f64,
}

/// Generate, warm up, then for `--seconds` alternate: sequential
/// reference, a drain at each of `widths` workers, and in a traced run
/// a traced drain next to each untraced one. Interleaving puts every
/// quantity that is later divided by another under the same host
/// conditions.
fn measure<W: DrainWorkload>(
    args: &RunArgs,
    widths: &[usize],
    run: &mut Run,
    tr: &mut Tracer,
) -> Measured<W> {
    let mut gen_s = Vec::new();
    let mut input = None;
    for _ in 0..GEN_REPS {
        let (i, s) = tr.span("graph.gen", 0, |_| W::generate(args.seed));
        gen_s.push(s);
        input = Some(i);
    }
    let input = input.expect("GEN_REPS > 0");
    let reference = tr.span("apps.seq_ref", 0, |_| W::reference(&input)).0;
    let mut m = Measured::<W> {
        input,
        units: reference.units,
        gen_s,
        ref_s: vec![reference.secs],
        build_s: Vec::new(),
        solve: vec![Vec::new(); widths.len()],
        traced: widths.iter().map(|_| Vec::new()).collect(),
        peak_rss_mb: 0.0,
    };
    let expected = reference.expected;
    let mut drain = |m: &mut Measured<W>, tr: &mut Tracer, workers: usize, trace_this: bool| {
        let s = drain_once::<W>(&m.input, &expected, workers, args.seed, tr, trace_this);
        run.count(s.ok);
        m.build_s.push(s.build_s);
        s
    };

    // Untimed warm-up at each worker count: first touch of a fresh arena
    // costs several times a warm drain. Peak memory is read right after
    // it, because the allocator's arenas fragment differently from run
    // to run over many reps.
    for &workers in widths {
        drain(&mut m, tr, workers, false);
    }
    m.peak_rss_mb = peak_rss_mb();

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while m.solve[0].len() < MIN_REPS || Instant::now() < deadline {
        let secs = tr
            .span("apps.seq_ref", 0, |_| W::reference(&m.input))
            .0
            .secs;
        m.ref_s.push(secs);
        for (i, &workers) in widths.iter().enumerate() {
            let s = drain(&mut m, tr, workers, false);
            m.solve[i].push(s.solve_s);
            if tr.enabled() {
                let s = drain(&mut m, tr, workers, true);
                m.traced[i].push(s);
            }
        }
    }
    m
}

/// The untraced run: every end-to-end metric, nothing attached, one
/// worker (see `metrics::END_TO_END` for why).
pub fn run_untraced<W: DrainWorkload>(args: &RunArgs) -> Run {
    let mut run = Run::new(args);
    let m = measure::<W>(args, &[1], &mut run, &mut Tracer::new(false));
    let solve = Summary::best(&m.solve[0]);
    let (seq_ref, gen, build) = (
        Summary::best(&m.ref_s),
        Summary::best(&m.gen_s),
        Summary::best(&m.build_s),
    );
    run.put("solve_w1_s", solve);
    // `ref_s[0]` is the set-up reference; every later one was timed right
    // before the drain of the same index.
    run.put("speedup_vs_seq", windowed_ratio(&m.ref_s[1..], &m.solve[0]));
    run.put("setup_s", Summary::single(gen.value + build.value));
    run.put("peak_rss_mb", Summary::single(m.peak_rss_mb));
    run.note(format!(
        "seq_ref {:.6} s (n {}) over {} units; setup = gen {:.6} s (n {}) + build {:.6} s (n {})",
        seq_ref.value, seq_ref.n, m.units, gen.value, gen.n, build.value, build.n
    ));
    run
}

/// The traced run: every per-layer metric, and the span file.
pub fn run_traced<W: DrainWorkload>(args: &RunArgs) -> Run {
    let mut run = Run::new(args);
    let mut tr = Tracer::new(true);
    let [w1, w2] = worker_counts();
    let m = measure::<W>(args, &[w1, w2], &mut run, &mut tr);
    let (nodes, edges) = W::size(&m.input);
    let engine = W::engine();
    let (traced_w1, traced_w2) = (&m.traced[0], &m.traced[1]);

    run.put("graph.gen_s", Summary::best(&m.gen_s));
    run.put("graph.nodes", Summary::single(nodes as f64));
    run.put("graph.edges", Summary::single(edges as f64));
    run.put("apps.seq_ref_s", Summary::best(&m.ref_s));
    run.put("apps.build_s", Summary::best(&m.build_s));

    if let Some(g) = W::graph(&m.input) {
        let (part, secs) = tr.span("core.partition", 0, |_| {
            bfs_partition(g, probes::SHARDS, probes::IMBALANCE)
        });
        run.put("core.partition.bfs_s", Summary::single(secs));
        run.put(
            "core.partition.cut_fraction",
            Summary::single(part.cut_fraction()),
        );
    }

    // One worker repeats the same work every rep, so its fastest rep
    // counts; two workers interleave differently every rep, so their
    // median does.
    let (base_w1, base_w2) = (Summary::best(&m.solve[0]), Summary::typical(&m.solve[1]));
    run.put("runtime.pool.solve_w2_s", base_w2);
    run.put(
        "runtime.pool.scaling_w2",
        Summary::single(base_w1.value / base_w2.value),
    );
    let traced_w1_s: Vec<f64> = traced_w1.iter().map(|s| s.solve_s).collect();
    run.put(
        "trace.overhead_pct",
        Summary::single(100.0 * (Summary::best(&traced_w1_s).value / base_w1.value - 1.0)),
    );

    // Counts come from the one-worker drain, where they repeat exactly
    // at a fixed seed and so compare across commits as counts.
    let first = &traced_w1[0];
    let (launched, committed) = (first.stats.total_launched(), first.stats.total_committed());
    let abort_ratio = first.stats.total_aborted() as f64 / launched.max(1) as f64;
    run.put("runtime.exec.launched", Summary::single(launched as f64));
    run.put("runtime.exec.committed", Summary::single(committed as f64));
    run.put("runtime.exec.abort_ratio", Summary::single(abort_ratio));
    let windows = first.stats.round_count() as f64;
    if engine.pipelined.is_some() {
        run.put("runtime.pipelined.flushes", Summary::single(windows));
        run.put(
            "runtime.pipelined.abort_ratio",
            Summary::single(abort_ratio),
        );
        run.put(
            "runtime.pipelined.launches_per_commit",
            Summary::single(launched as f64 / committed.max(1) as f64),
        );
    } else {
        run.put("runtime.exec.rounds", Summary::single(windows));
    }
    run.put(
        "apps.commits_per_unit",
        Summary::single(committed as f64 / m.units.max(1) as f64),
    );

    let per_launch = |f: &dyn Fn(&DrainSample, &TracedParts) -> f64| {
        let v: Vec<f64> = traced_w1
            .iter()
            .map(|s| f(s, s.traced.as_ref().expect("traced drain")))
            .collect();
        Summary::best(&v)
    };
    run.put(
        "apps.execute_ns_per_launch",
        per_launch(&|_, t| t.execute_ns as f64 / t.execute_calls.max(1) as f64),
    );
    // Thread time outside `Operator::execute`; at one worker thread
    // time is wall-clock.
    run.put(
        "runtime.overhead_ns_per_launch",
        per_launch(&|s, t| (s.solve_s * 1e9 - t.execute_ns as f64) / t.execute_calls.max(1) as f64),
    );

    let c = &first.traced.as_ref().expect("traced drain").control;
    run.put(
        "core.control.observe_ns",
        Summary::single(c.observe_ns as f64 / c.steps.len().max(1) as f64),
    );
    run.put(
        "core.control.converge_round",
        Summary::single(c.converge_round(engine.m_max) as f64),
    );
    run.put("core.control.m_mean", Summary::single(c.m_mean()));
    run.put("core.control.r_mean", Summary::single(c.r_mean()));
    run.put("core.control.rho_abs_err", Summary::single(c.rho_abs_err()));

    // Phase shares from the widest drains: waiting only exists there.
    use optpar_runtime::Phase;
    for (name, phase) in [
        ("runtime.exec.phase_draw_share", Phase::Draw),
        ("runtime.exec.phase_execute_share", Phase::Execute),
        ("runtime.exec.phase_commit_share", Phase::Commit),
        ("runtime.exec.phase_wait_share", Phase::Wait),
    ] {
        let shares: Vec<f64> = traced_w2
            .iter()
            .map(|s| s.traced.as_ref().expect("traced drain").phases.share(phase))
            .collect();
        run.put(name, Summary::typical(&shares));
    }

    if let Some(g) = W::graph(&m.input).filter(|_| W::SHARD_PROBE) {
        let ratio = tr
            .span("runtime.shard", 0, |_| {
                probes::shard_placed_ratio(g, w2, args.seed)
            })
            .0;
        run.put("runtime.shard.placed_ratio", Summary::single(ratio));
    }
    probes::layer_probes(&mut run, &mut tr);
    run.zero_unreported_layers();
    run.note(format!(
        "workers {w1}/{w2}; counts from the w{w1} drain, phase shares from the w{w2} drains; {} spans",
        tr.spans().len()
    ));
    run.trace = Some(tr.to_json(args.workload));
    run
}
