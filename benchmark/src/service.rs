//! `service-mix`: closed-loop batches of small jobs through the job
//! service — the only workload that crosses admission, lanes and budget
//! slicing, with many tiny drains sharing one pool instead of one long
//! drain.
//!
//! Closed loop because callers block on `JobTicket::wait`: `nproc`
//! client threads each submit the batch's next job when their previous
//! one reports. A *solve* is one batch of [`BATCH`] jobs rotating
//! sssp / boruvka / delaunay over [`INPUTS`] pre-generated inputs at
//! priorities 1–3; every job builds its operator, drives it, and
//! compares with the reference computed in set-up. `solve_w1_s` is a
//! one-lane, one-worker service (jobs queue behind each other and run
//! their rounds inline); the traced run also measures `min(nproc, 2)`
//! lanes sharing a pool of as many workers
//! (`runtime.pool.solve_w2_s`), where jobs overlap, split the budget,
//! and every round of every job is a pool rendezvous.

use crate::baselines;
use crate::drain::worker_counts;
use crate::stats::{median, percentile, tail_percentile, windowed_ratio, Summary};
use crate::trace::{timed, TimedOp, Tracer};
use crate::workloads::{mesh_ok, square_points};
use crate::{peak_rss_mb, Run, RunArgs};
use optpar_apps::boruvka::{BoruvkaOp, WeightedGraph};
use optpar_apps::delaunay::{DelaunayOp, RefineConfig};
use optpar_apps::sssp::{SsspInput, SsspOp};
use optpar_apps::triangulation::Mesh;
use optpar_core::control::{HybridController, HybridParams};
use optpar_graph::{gen, ConflictGraph};
use optpar_runtime::{
    serve, JobCx, JobError, JobOutput, JobReport, JobSpec, LockSpace, Operator, Rejection,
    ServiceConfig, WorkSet,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Distinct pre-generated inputs (a third of each kind).
const INPUTS: usize = 24;
/// Jobs per batch: every input twice.
const BATCH: usize = 2 * INPUTS;
const SSSP_NODES: usize = 1500;
const BORUVKA_NODES: usize = 1000;
const DELAUNAY_POINTS: usize = 60;
const DELAUNAY_MAX_AREA: f64 = 1e-3;
const AVG_DEGREE: f64 = 6.0;

/// One job's input with the answer its result must match.
enum JobInput {
    Sssp(SsspInput, Vec<u64>),
    Boruvka(WeightedGraph, (u64, usize)),
    Delaunay(Mesh),
}

struct Inputs {
    jobs: Vec<Arc<JobInput>>,
    /// Sequential-reference time and work units of each input.
    seq_s: Vec<f64>,
    units: Vec<usize>,
    nodes: usize,
    edges: usize,
}

fn refine_cfg() -> RefineConfig {
    RefineConfig::area_only(DELAUNAY_MAX_AREA)
}

/// The inputs alone (what `setup_s` times).
enum RawInput {
    Sssp(SsspInput),
    Boruvka(WeightedGraph),
    Delaunay(Mesh),
}

fn generate(seed: u64) -> Vec<RawInput> {
    (0..INPUTS)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(seed ^ ((i as u64 + 1) << 32));
            match i % 3 {
                0 => {
                    let g = gen::random_with_avg_degree(SSSP_NODES, AVG_DEGREE, &mut rng);
                    RawInput::Sssp(SsspInput::random(g, 0, 100, &mut rng))
                }
                1 => {
                    let g = gen::random_with_avg_degree(BORUVKA_NODES, AVG_DEGREE, &mut rng);
                    RawInput::Boruvka(WeightedGraph::random(g, &mut rng))
                }
                _ => RawInput::Delaunay(Mesh::delaunay(&square_points(DELAUNAY_POINTS, &mut rng))),
            }
        })
        .collect()
}

/// Time one input's sequential reference: `(answer-carrying job
/// input, seconds, work units, nodes, edges)`.
fn reference(input: RawInput) -> (JobInput, f64, usize, usize, usize) {
    match input {
        RawInput::Sssp(i) => {
            let r = baselines::dijkstra(&i);
            let (n, e) = (i.graph.node_count(), i.graph.edge_count());
            (JobInput::Sssp(i, r.expected), r.secs, r.units, n, e)
        }
        RawInput::Boruvka(wg) => {
            let r = baselines::kruskal(&wg);
            let (n, e) = (wg.graph.node_count(), wg.graph.edge_count());
            (JobInput::Boruvka(wg, r.expected), r.secs, r.units, n, e)
        }
        RawInput::Delaunay(mesh) => {
            let r = baselines::refine_worklist(&mesh, refine_cfg());
            let (n, e) = (mesh.points.len(), mesh.live_count());
            (JobInput::Delaunay(mesh), r.secs, r.units, n, e)
        }
    }
}

fn with_references(raw: Vec<RawInput>) -> Inputs {
    let mut out = Inputs {
        jobs: Vec::new(),
        seq_s: Vec::new(),
        units: Vec::new(),
        nodes: 0,
        edges: 0,
    };
    for input in raw {
        let (job, secs, units, nodes, edges) = reference(input);
        out.jobs.push(Arc::new(job));
        out.seq_s.push(secs);
        out.units.push(units);
        out.nodes += nodes;
        out.edges += edges;
    }
    out
}

/// Time every input's reference again, keep each one's fastest, and
/// return what this pass took for one batch's worth of jobs. The
/// references do the same work every time; re-timing them right before
/// a batch puts both sides of `speedup_vs_seq` under the same host
/// conditions.
fn retime_references(inputs: &mut Inputs) -> f64 {
    let mut pass = 0.0;
    for (job, best) in inputs.jobs.iter().zip(&mut inputs.seq_s) {
        let secs = match &**job {
            JobInput::Sssp(i, _) => baselines::dijkstra(i).secs,
            JobInput::Boruvka(wg, _) => baselines::kruskal(wg).secs,
            JobInput::Delaunay(mesh) => baselines::refine_worklist(mesh, refine_cfg()).secs,
        };
        *best = best.min(secs);
        pass += secs;
    }
    pass * (BATCH / INPUTS) as f64
}

/// What a traced job measured about itself, on the lane thread.
struct JobTiming {
    job: usize,
    build_s: f64,
    drive_start: Instant,
    drive_end: Instant,
    end: Instant,
    execute_calls: u64,
    execute_ns: u64,
}

type TimingSink = Arc<Mutex<Vec<JobTiming>>>;

/// Build, drive, verify — the body every job kind shares. `build`
/// returns the lock space, the operator and its initial tasks; `check`
/// consumes the drained operator.
fn run_job<O: Operator>(
    cx: &mut JobCx<'_>,
    job: usize,
    seed: u64,
    sink: Option<&TimingSink>,
    build: impl FnOnce() -> (LockSpace, O, Vec<O::Task>),
    check: impl FnOnce(O) -> bool,
) -> Result<JobOutput, JobError> {
    let ((space, op, tasks), build_s) = timed(build);
    let mut ws = WorkSet::from_vec(tasks);
    let mut ctl = HybridController::new(HybridParams::default());
    // Distinct per attempt, so a retried job does not replay its draw.
    let mut rng =
        StdRng::seed_from_u64(seed ^ ((job as u64) << 8) ^ (u64::from(cx.attempt()) << 48));
    let drive_start = Instant::now();
    let mut execute = (0, 0);
    match sink {
        Some(_) => {
            let top = TimedOp::new(&op);
            cx.drive(&top, &space, &mut ws, &mut ctl, &mut rng)?;
            execute = top.totals();
        }
        None => cx.drive(&op, &space, &mut ws, &mut ctl, &mut rng)?,
    }
    let drive_end = Instant::now();
    let verified = ws.is_empty() && space.check_all_free().is_ok() && check(op);
    if let Some(sink) = sink {
        sink.lock().expect("timing sink").push(JobTiming {
            job,
            build_s,
            drive_start,
            drive_end,
            end: Instant::now(),
            execute_calls: execute.0,
            execute_ns: execute.1,
        });
    }
    Ok(JobOutput {
        verified,
        committed: 0,
        detail: String::new(),
    })
}

fn job_spec(input: Arc<JobInput>, job: usize, seed: u64, sink: Option<TimingSink>) -> JobSpec {
    let spec = JobSpec::new(format!("job-{job}"), move |cx: &mut JobCx<'_>| {
        let sink = sink.as_ref();
        match &*input {
            JobInput::Sssp(i, expected) => run_job(
                cx,
                job,
                seed,
                sink,
                || {
                    let (space, op) = SsspOp::new(i.clone());
                    let tasks = op.initial_tasks();
                    (space, op, tasks)
                },
                |mut op| op.distances() == *expected,
            ),
            JobInput::Boruvka(wg, expected) => run_job(
                cx,
                job,
                seed,
                sink,
                || {
                    let (space, op) = BoruvkaOp::new(wg);
                    let tasks = op.initial_tasks();
                    (space, op, tasks)
                },
                |mut op| op.msf() == *expected,
            ),
            JobInput::Delaunay(mesh) => run_job(
                cx,
                job,
                seed,
                sink,
                || {
                    let (space, mut op) = DelaunayOp::with_auto_capacity(mesh, refine_cfg());
                    let tasks = op.initial_tasks();
                    (space, op, tasks)
                },
                |op| mesh_ok(&op.into_mesh(), refine_cfg()),
            ),
        }
    });
    // Tenants carry different budget weights.
    spec.priority(1 + (job as u64 % 3))
}

fn service_config(workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        lanes: workers,
        queue_cap: 8,
        global_budget: 512,
        ..ServiceConfig::default()
    }
}

/// Client threads of the closed loop.
fn clients() -> usize {
    crate::nproc().min(2)
}

/// One finished job as its client saw it.
struct JobRow {
    job: usize,
    submit_start: Instant,
    submit_ns: f64,
    report: JobReport,
}

struct Batch {
    /// First submit to last report.
    elapsed_s: f64,
    /// `serve` call to the body running: lanes, supervisor, pool.
    startup_s: f64,
    rows: Vec<JobRow>,
    timings: Vec<JobTiming>,
    shed: usize,
    retries: u64,
}

impl Batch {
    fn ok(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| matches!(&r.report.result, Ok(out) if out.verified))
            .count()
    }
}

/// Push one batch through a fresh service of `workers` lanes and workers.
fn run_batch(inputs: &Inputs, workers: usize, seed: u64, traced: bool) -> Batch {
    let sink: Option<TimingSink> = traced.then(|| Arc::new(Mutex::new(Vec::new())));
    let rows = Mutex::new(Vec::with_capacity(BATCH));
    let shed = AtomicUsize::new(0);
    let next = AtomicUsize::new(0);
    let t_serve = Instant::now();
    let ((elapsed_s, startup_s), stats) = serve(service_config(workers), |svc| {
        let startup_s = t_serve.elapsed().as_secs_f64();
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..clients() {
                s.spawn(|| loop {
                    let job = next.fetch_add(1, Ordering::SeqCst);
                    if job >= BATCH {
                        break;
                    }
                    let input = &inputs.jobs[job % INPUTS];
                    let submit_start = Instant::now();
                    let (ticket, submit_ns) = loop {
                        let spec = job_spec(Arc::clone(input), job, seed, sink.clone());
                        let t = Instant::now();
                        match svc.submit(spec) {
                            Ok(ticket) => break (ticket, t.elapsed().as_nanos() as f64),
                            // Shedding is the service asking the client
                            // to slow down; count it and try again.
                            Err(Rejection::Backpressure | Rejection::Overload) => {
                                shed.fetch_add(1, Ordering::SeqCst);
                                std::thread::sleep(Duration::from_millis(2));
                            }
                            Err(Rejection::Expired) => unreachable!("jobs carry no deadline"),
                        }
                    };
                    let report = ticket.wait();
                    rows.lock().expect("client rows").push(JobRow {
                        job,
                        submit_start,
                        submit_ns,
                        report,
                    });
                });
            }
        });
        (t0.elapsed().as_secs_f64(), startup_s)
    });
    Batch {
        elapsed_s,
        startup_s,
        rows: rows.into_inner().expect("client rows"),
        timings: sink.map_or_else(Vec::new, |s| {
            std::mem::take(&mut *s.lock().expect("timing sink"))
        }),
        shed: shed.into_inner(),
        retries: stats.job_retries,
    }
}

/// Sequential time and work units of one batch.
fn batch_reference(inputs: &Inputs) -> (f64, usize) {
    (0..BATCH).fold((0.0, 0), |(s, u), job| {
        (
            s + inputs.seq_s[job % INPUTS],
            u + inputs.units[job % INPUTS],
        )
    })
}

const GEN_REPS: usize = 9;
const MIN_REPS: usize = 3;

fn prepare(seed: u64, tr: &mut Tracer) -> (Inputs, Vec<f64>) {
    let mut gen_s = Vec::new();
    let mut raw = None;
    for _ in 0..GEN_REPS {
        let (r, s) = tr.span("graph.gen", 0, |_| generate(seed));
        gen_s.push(s);
        raw = Some(r);
    }
    let inputs = tr
        .span("apps.seq_ref", 0, |_| {
            with_references(raw.expect("GEN_REPS > 0"))
        })
        .0;
    (inputs, gen_s)
}

pub fn run_untraced(args: &RunArgs) -> Run {
    let mut run = Run::new(args);
    let mut tr = Tracer::new(false);
    let (mut inputs, gen_s) = prepare(args.seed, &mut tr);

    // Warm-up and peak memory as for the drain workloads.
    let warm = run_batch(&inputs, 1, args.seed, false);
    run.count_many(BATCH, warm.ok());
    let peak_rss = peak_rss_mb();
    let (mut solve, mut seq_pass_s, mut startup_s) = (Vec::new(), Vec::new(), vec![warm.startup_s]);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while solve.len() < MIN_REPS || Instant::now() < deadline {
        seq_pass_s.push(retime_references(&mut inputs));
        let b = run_batch(&inputs, 1, args.seed, false);
        run.count_many(BATCH, b.ok());
        startup_s.push(b.startup_s);
        solve.push(b.elapsed_s);
    }
    let (seq_s, units) = batch_reference(&inputs);
    // One lane runs the same jobs to the same results every batch.
    let solve_w1 = Summary::best(&solve);
    let (gen, startup) = (Summary::best(&gen_s), Summary::best(&startup_s));
    run.put("solve_w1_s", solve_w1);
    run.put("speedup_vs_seq", windowed_ratio(&seq_pass_s, &solve));
    run.put("setup_s", Summary::single(gen.value + startup.value));
    run.put("peak_rss_mb", Summary::single(peak_rss));
    run.note(format!(
        "1 lane, 1 worker, {} clients; {BATCH} jobs per batch; seq_ref {seq_s:.6} s over {units} units; setup = gen {:.6} s (n {}) + service start {:.6} s (n {})",
        clients(), gen.value, gen.n, startup.value, startup.n
    ));
    run
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn run_traced(args: &RunArgs) -> Run {
    let mut run = Run::new(args);
    let mut tr = Tracer::new(true);
    let (mut inputs, gen_s) = prepare(args.seed, &mut tr);
    let [w1, w2] = worker_counts();
    run.put("graph.gen_s", Summary::best(&gen_s));
    run.put("graph.nodes", Summary::single(inputs.nodes as f64));
    run.put("graph.edges", Summary::single(inputs.edges as f64));

    // Untraced batches first: the latency distribution, the scaling
    // ratio and the base for the tracing overhead. Most of the run's
    // time goes here, because the tail percentile needs samples.
    let (mut base_w1, mut base_w2) = (Vec::new(), Vec::new());
    let (mut latency_ms, mut submit_ns, mut rounds) = (Vec::new(), Vec::new(), 0usize);
    let (mut shed, mut retries, mut jobs_per_s) = (0usize, 0u64, Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while base_w2.len() < MIN_REPS || Instant::now() < deadline {
        retime_references(&mut inputs);
        let b = run_batch(&inputs, w1, args.seed, false);
        run.count_many(BATCH, b.ok());
        base_w1.push(b.elapsed_s);
        let b = run_batch(&inputs, w2, args.seed, false);
        run.count_many(BATCH, b.ok());
        base_w2.push(b.elapsed_s);
        jobs_per_s.push(b.ok() as f64 / b.elapsed_s);
        shed += b.shed;
        retries += b.retries;
        for row in &b.rows {
            latency_ms.push(ms(row.report.latency));
            submit_ns.push(row.submit_ns);
            rounds += row.report.rounds;
        }
    }
    let tail_pct = tail_percentile(latency_ms.len()).unwrap_or(50.0);
    run.put("runtime.service.jobs_per_s", Summary::typical(&jobs_per_s));
    run.put(
        "runtime.service.job_p50_ms",
        Summary::single(percentile(&latency_ms, 50.0)),
    );
    run.put(
        "runtime.service.job_tail_ms",
        Summary::single(percentile(&latency_ms, tail_pct)),
    );
    run.put("runtime.service.job_tail_pct", Summary::single(tail_pct));
    run.put(
        "runtime.service.submit_ns",
        Summary::single(median(&submit_ns)),
    );
    run.put(
        "runtime.service.rounds_per_job",
        Summary::single(rounds as f64 / latency_ms.len() as f64),
    );
    run.put("runtime.service.shed", Summary::single(shed as f64));
    run.put("runtime.service.retries", Summary::single(retries as f64));
    let (base_w1, base_w2) = (Summary::best(&base_w1), Summary::typical(&base_w2));
    run.put("runtime.pool.solve_w2_s", base_w2);
    run.put(
        "runtime.pool.scaling_w2",
        Summary::single(base_w1.value / base_w2.value),
    );
    let (seq_s, units) = batch_reference(&inputs);
    run.put("apps.seq_ref_s", Summary::single(seq_s));

    // Traced batches: each job times its own build and drive and wraps
    // its operator. Counts come from the one-lane batch, where every
    // job holds the whole budget and repeats exactly.
    let mut traced_batch = |workers: usize| {
        let b = tr
            .span("runtime.service.batch", workers, |_| {
                run_batch(&inputs, workers, args.seed, true)
            })
            .0;
        run.count_many(BATCH, b.ok());
        b
    };
    let traced_w1 = traced_batch(w1);
    let traced_w2 = traced_batch(w2);
    let again: Vec<f64> = (1..MIN_REPS).map(|_| traced_batch(w1).elapsed_s).collect();
    let traced_w1_s = again.iter().copied().fold(traced_w1.elapsed_s, f64::min);
    run.put(
        "trace.overhead_pct",
        Summary::single(100.0 * (traced_w1_s / base_w1.value - 1.0)),
    );

    let sum = |f: &dyn Fn(&JobReport) -> usize| {
        traced_w1.rows.iter().map(|r| f(&r.report)).sum::<usize>()
    };
    let (committed, aborted) = (sum(&|r| r.committed), sum(&|r| r.aborted));
    let launched = committed + aborted + sum(&|r| r.faulted);
    run.put(
        "runtime.exec.rounds",
        Summary::single(sum(&|r| r.rounds) as f64),
    );
    run.put("runtime.exec.launched", Summary::single(launched as f64));
    run.put("runtime.exec.committed", Summary::single(committed as f64));
    run.put(
        "runtime.exec.abort_ratio",
        Summary::single(aborted as f64 / launched.max(1) as f64),
    );
    run.put(
        "apps.commits_per_unit",
        Summary::single(committed as f64 / units.max(1) as f64),
    );

    let t = &traced_w1.timings;
    let calls: u64 = t.iter().map(|j| j.execute_calls).sum();
    let execute_ns: u64 = t.iter().map(|j| j.execute_ns).sum();
    let drive_ns: f64 = t
        .iter()
        .map(|j| (j.drive_end - j.drive_start).as_nanos() as f64)
        .sum();
    run.put(
        "apps.execute_ns_per_launch",
        Summary::single(execute_ns as f64 / calls.max(1) as f64),
    );
    run.put(
        "runtime.overhead_ns_per_launch",
        Summary::single((drive_ns - execute_ns as f64) / calls.max(1) as f64),
    );
    run.put(
        "apps.build_s",
        Summary::typical(&t.iter().map(|j| j.build_s).collect::<Vec<_>>()),
    );

    // Service overhead per job and lane utilisation, from the wide batch.
    let drive_of = |job: usize| {
        traced_w2
            .timings
            .iter()
            .find(|j| j.job == job)
            .map(|j| j.drive_end - j.drive_start)
    };
    let overhead_ms: Vec<f64> = traced_w2
        .rows
        .iter()
        .filter_map(|r| drive_of(r.job).map(|d| ms(r.report.latency.saturating_sub(d))))
        .collect();
    run.put(
        "runtime.service.overhead_ms_p50",
        Summary::single(median(&overhead_ms)),
    );
    let drive_w2: f64 = traced_w2
        .timings
        .iter()
        .map(|j| (j.drive_end - j.drive_start).as_secs_f64())
        .sum();
    run.put(
        "runtime.service.drive_share",
        Summary::single(drive_w2 / (w2 as f64 * traced_w2.elapsed_s)),
    );

    // Spans of the traced batches. A `job` span is the request as its
    // client saw it (submit to the job's end); the submit call and the
    // drive are its children, so its self time is queueing, operator
    // build and verification.
    for (batch, workers) in [(&traced_w1, w1), (&traced_w2, w2)] {
        for row in &batch.rows {
            let Some(j) = batch.timings.iter().find(|j| j.job == row.job) else {
                continue;
            };
            let job = tr.push_foreign("job", row.submit_start, j.end, None, workers);
            let submit_end = row.submit_start + Duration::from_nanos(row.submit_ns as u64);
            tr.push_foreign(
                "runtime.service.submit",
                row.submit_start,
                submit_end,
                Some(job),
                workers,
            );
            tr.push_foreign("drive", j.drive_start, j.drive_end, Some(job), workers);
        }
    }

    crate::probes::layer_probes(&mut run, &mut tr);
    run.zero_unreported_layers();
    run.note(format!(
        "lanes = workers {w1}/{w2}, {} clients; {} latency samples from untraced w{w2} batches; counts from the traced w{w1} batch; {} spans",
        clients(),
        latency_ms.len(),
        tr.spans().len()
    ));
    run.trace = Some(tr.to_json(args.workload));
    run
}
