//! The differential matrix's ten app rows and the harness that drains
//! one row through a list of engine cells, asserting on every cell
//! what `matrix.rs`'s module docs list. `matrix.rs` runs each row
//! through every cell; `pipelined_e2e.rs` (the lane cells per worker
//! count, eight workers included) and `end_to_end.rs` (the controller
//! drain at four workers, which runs lanes) run named slices of the
//! same rows. Each
//! slice runs under a watchdog ([`within`]): a row that has not
//! returned after [`ROW_BOUND`] fails and names the cell it was
//! draining.

#![allow(dead_code)]

use optpar::apps::boruvka::{BoruvkaOp, WeightedGraph};
use optpar::apps::ccmirror::CcMirror;
use optpar::apps::clustering::{blobs, ClusteringOp};
use optpar::apps::coloring::ColoringOp;
use optpar::apps::delaunay::{bad_count, DelaunayOp, RefineConfig};
use optpar::apps::geometry::Point;
use optpar::apps::matching::MatchingOp;
use optpar::apps::misapp::MisOp;
use optpar::apps::preflow::{FlowNetwork, PreflowOp};
use optpar::apps::sssp::{SsspInput, SsspOp};
use optpar::apps::survey::{sp_sequential, Formula, SurveyOp};
use optpar::apps::triangulation::Mesh;
use optpar::core::control::{HybridController, HybridParams};
use optpar::graph::{gen, ConflictGraph, CsrGraph};
use optpar::runtime::{
    Abort, Executor, ExecutorConfig, FaultCause, FaultKind, FaultPlan, LockSpace, Operator,
    PipelinedConfig, RunStats, TaskCtx, WorkSet,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::HashSet;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::Duration;

/// How a cell drains its work-set.
#[derive(Clone, Copy, Debug)]
pub enum Engine {
    /// `Executor::run_with_controller`: the solo runner at one worker,
    /// lanes at the default `PipelinedConfig` above.
    Controller,
    /// `Executor::run_rounds`: the paper's model rounds.
    Rounds,
    /// `Executor::run_pipelined`: lanes at this batch.
    Lanes(usize),
}

use Engine::{Controller, Lanes, Rounds};

/// An engine cell, as `(workers, engine)`.
pub type Cell = (usize, Engine);

/// Every cell of the matrix. A cell drains at `seed + index`, so the
/// model-round cell, added last, moved no other cell's seed.
pub const CELLS: [Cell; 13] = [
    (1, Controller),
    (2, Controller),
    (4, Controller),
    (1, Lanes(1)),
    (1, Lanes(8)),
    (1, Lanes(64)),
    (2, Lanes(1)),
    (2, Lanes(8)),
    (2, Lanes(64)),
    (4, Lanes(1)),
    (4, Lanes(8)),
    (4, Lanes(64)),
    (1, Rounds),
];

/// The lane cells at `workers`: batch 1 (continuous), 8 and 64.
pub const fn lanes(workers: usize) -> [Cell; 3] {
    [
        (workers, Lanes(1)),
        (workers, Lanes(8)),
        (workers, Lanes(64)),
    ]
}

/// One `#[test]` per `name: row(cells, seed);` entry, run under the
/// watchdog.
macro_rules! slices {
    ($($name:ident: $row:ident($cells:expr, $seed:expr);)*) => {
        $(#[test] fn $name() { rows::within(stringify!($name), || rows::$row(&$cells, $seed)) })*
    };
}

/// How long one slice may run. A row takes about a second in a debug
/// build on two cores; a drain that livelocks (a cycle that survives
/// every rollback) never returns at all.
pub const ROW_BOUND: Duration = Duration::from_secs(60);

thread_local! {
    /// The cell this thread's row is draining, shared with the
    /// watchdog that started the thread.
    static RUNNING: RefCell<Option<Arc<Mutex<String>>>> = const { RefCell::new(None) };
}

/// Run `row` on its own thread and fail by `name`, with the cell it
/// was draining, if it has not returned within [`ROW_BOUND`]. A hung
/// cell never unwinds, so [`Coords`] cannot name it; `run_row`
/// publishes each cell here before draining it. The thread is
/// detached, as a hung row cannot be joined. A panic in `row` is
/// re-raised here.
pub fn within(name: &str, row: impl FnOnce() + Send + 'static) {
    let running = Arc::new(Mutex::new(String::from("none yet")));
    let slot = Arc::clone(&running);
    let (tx, rx) = mpsc::channel();
    #[expect(clippy::disallowed_methods, reason = "test watchdog")]
    std::thread::spawn(move || {
        RUNNING.with(|r| *r.borrow_mut() = Some(slot));
        let _ = tx.send(catch_unwind(AssertUnwindSafe(row)));
    });
    match rx.recv_timeout(ROW_BOUND) {
        Ok(Ok(())) => {}
        Ok(Err(payload)) => resume_unwind(payload),
        Err(_) => {
            let cell = running.lock().unwrap_or_else(PoisonError::into_inner);
            panic!("{name} did not return within {ROW_BOUND:?}; running cell: {cell}")
        }
    }
}

pub fn config(workers: usize) -> ExecutorConfig {
    ExecutorConfig {
        workers,
        ..ExecutorConfig::default()
    }
}

/// One app row built from a seed: its lock space, its operator, the
/// initial tasks, and what the drained operator is checked against.
struct Row<O: Operator, R> {
    space: LockSpace,
    op: O,
    tasks: Vec<O::Task>,
    reference: R,
}

/// Forwards `execute`, as a timing or tracing shim does, and counts
/// the calls.
struct Counted<'a, O> {
    op: &'a O,
    calls: AtomicUsize,
}

impl<O: Operator> Operator for Counted<'_, O> {
    type Task = O::Task;

    fn execute(&self, task: &O::Task, cx: &mut TaskCtx<'_>) -> Result<Vec<O::Task>, Abort> {
        self.calls.fetch_add(1, Ordering::AcqRel);
        self.op.execute(task, cx)
    }
}

/// Names the cell a failing assertion unwinds through, and publishes
/// it to the watchdog's slot for a cell that hangs instead.
struct Coords(String);

impl Coords {
    fn publish(at: String) -> Coords {
        RUNNING.with(|r| {
            if let Some(slot) = &*r.borrow() {
                at.clone_into(&mut slot.lock().unwrap_or_else(PoisonError::into_inner));
            }
        });
        Coords(at)
    }
}

impl Drop for Coords {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("failing cell: {}", self.0);
        }
    }
}

/// Run one app row through `cells` — twice per cell, the second drain
/// with a fault plan armed — and hand each drained operator with its
/// reference and run to `check`. Over the row's faulted drains every
/// kind of injected fault must have fired: a kind that silently stops
/// firing would turn its share of the faulted drains into clean ones.
fn run_row<O: Operator, R>(
    app: &str,
    cells: &[Cell],
    seed: u64,
    build: impl Fn(&mut StdRng) -> Row<O, R>,
    check: impl Fn(O, R, &RunStats),
) {
    static SILENCE: std::sync::Once = std::sync::Once::new();
    SILENCE.call_once(optpar::runtime::silence_injected_panics);
    let mut fired = HashSet::new();
    for (i, &(workers, engine)) in cells.iter().enumerate() {
        let seed = seed + i as u64;
        let (name, batch) = match (engine, workers) {
            (Lanes(batch), _) => ("pipelined", Some(batch)),
            (Rounds, _) => ("round", None),
            (Controller, 1) => ("solo", None),
            (Controller, _) => ("routed lanes", None),
        };
        for faulted in [false, true] {
            let _at = Coords::publish(format!(
                "{app}, {name}, workers {workers}, batch {batch:?}, seed {seed}, faults {faulted}"
            ));
            let mut rng = StdRng::seed_from_u64(seed);
            let Row {
                space,
                op,
                tasks,
                reference,
            } = build(&mut rng);
            let run = drain(
                &space, &op, tasks, workers, engine, faulted, &mut rng, &mut fired,
            );
            check(op, reference, &run);
        }
    }
    for kind in [
        FaultKind::Panic,
        FaultKind::SpuriousAbort,
        FaultKind::AtCommit,
    ] {
        assert!(
            fired.contains(&kind),
            "{app}: no {kind:?} fault fired in any faulted drain"
        );
    }
}

/// Drain one row in one cell and assert everything the cell owes
/// whatever the app (module docs); the result check is the caller's.
/// The kinds of the faults that fired are added to `fired`.
#[allow(clippy::too_many_arguments)]
fn drain<O: Operator>(
    space: &LockSpace,
    op: &O,
    tasks: Vec<O::Task>,
    workers: usize,
    engine: Engine,
    faulted: bool,
    rng: &mut StdRng,
    fired: &mut HashSet<FaultKind>,
) -> RunStats {
    let plan = faulted.then(|| {
        FaultPlan::seeded(rng.random())
            .with_panic_rate(0.05)
            .with_spurious_abort_rate(0.05)
    });
    let op = Counted {
        op,
        calls: AtomicUsize::new(0),
    };
    let mut ex = Executor::new(&op, space, config(workers));
    if let Some(plan) = &plan {
        ex.set_fault_plan(plan);
    }
    ex.enable_obs();
    let mut ws = WorkSet::from_vec(tasks);
    let mut ctl = HybridController::new(HybridParams {
        rho: 0.25,
        m_max: 1024,
        ..HybridParams::default()
    });
    let run = match engine {
        Controller => ex.run_with_controller(&mut ws, &mut ctl, 1_000_000, rng),
        Rounds => ex.run_rounds(&mut ws, &mut ctl, 1_000_000, rng),
        Lanes(batch) => {
            let cfg = PipelinedConfig {
                window: 64,
                batch,
                max_completions: usize::MAX,
            };
            ex.run_pipelined(&mut ws, &mut ctl, cfg, rng)
        }
    };
    assert!(ws.is_empty(), "the drain did not finish");
    assert!(run.total_committed() > 0);
    let launched = run.total_launched();
    assert_eq!(op.calls.load(Ordering::Acquire), launched, "execute calls");
    assert_eq!(
        launched,
        run.total_committed() + run.total_aborted() + run.total_faulted()
    );
    assert!(space.check_all_free().is_ok(), "a lock leaked");
    // At one worker only the model round keeps a finished holder's
    // lock: one lane, or the solo runner, has no running holder to
    // lose to.
    if workers == 1 && !matches!(engine, Rounds) {
        assert_eq!(run.total_aborted(), 0, "one runner has no running holder");
    }
    if let Some(plan) = &plan {
        reconcile(&ex, plan, &run);
        fired.extend(plan.fired().iter().map(|r| r.kind));
    }
    // A solo step ends at the round barrier, so it traces as a round.
    let rounds = matches!(engine, Rounds) || (workers == 1 && matches!(engine, Controller));
    check_trace(&ex, &run, rounds);
    run
}

/// The faulted drain: something fired, every fired fault was
/// contained, the log kept them all, only injected faults were
/// contained, and the plan's ledger equals the executor's fault log
/// and the run's faulted count.
fn reconcile<O: Operator>(ex: &Executor<'_, O>, plan: &FaultPlan, run: &RunStats) {
    assert!(plan.fired_count() > 0, "the plan never fired");
    let contained = ex.fault_count();
    assert_eq!(contained, plan.fired_count(), "faults contained vs fired");
    let log = ex.take_faults();
    assert_eq!(
        log.len(),
        contained,
        "the fault log kept {} of {contained} faults: it holds at most 4,096 \
         undrained entries (`FAULT_LOG_CAP` in crates/runtime/src/faults.rs), so \
         this drain faults too often to reconcile entry by entry",
        log.len()
    );
    assert!(
        log.iter().all(|f| f.cause == FaultCause::Injected),
        "only injected faults expected, got {log:?}"
    );
    let mut fired: Vec<(u64, usize)> = plan.fired().iter().map(|r| (r.epoch, r.slot)).collect();
    let mut logged: Vec<(u64, usize)> = log
        .iter()
        .map(|f| (f.epoch, f.slot.expect("task faults carry a slot")))
        .collect();
    fired.sort_unstable();
    logged.sort_unstable();
    assert_eq!(fired, logged, "fault ledger and fault log disagree");
    assert_eq!(run.total_faulted(), logged.len(), "faulted count");
}

/// The trace column: a round log validates against the executor's own
/// per-round stats; a lane log counts every task outcome the ledger
/// counts, event for event. Either way the outcome events' `acquires`
/// payloads add up to the lock acquisitions the run booked.
fn check_trace<O: Operator>(ex: &Executor<'_, O>, run: &RunStats, rounds: bool) {
    use optpar::runtime::obs::{validate, EventKind, RoundCheck};
    let log = ex.recorder().expect("recorder enabled").snapshot();
    let booked: u64 = run.rounds.iter().map(|rs| rs.lock_acquires as u64).sum();
    if rounds {
        let checks: Vec<RoundCheck> = run
            .rounds
            .iter()
            .map(|rs| RoundCheck {
                m: rs.m as u64,
                launched: rs.launched as u64,
                committed: rs.committed as u64,
                aborted: rs.aborted as u64,
                faulted: rs.faulted as u64,
                spawned: rs.spawned as u64,
                conflict_ratio_bits: rs.conflict_ratio().to_bits(),
            })
            .collect();
        match validate::validate(&log, &checks) {
            Ok(report) => assert_eq!(report.lock_acquires, booked, "traced lock acquires"),
            Err(violations) => {
                panic!("trace validation failed:\n{}", violations.join("\n"))
            }
        }
    } else {
        let mut counts = [0usize; 4];
        let mut traced = 0u64;
        for te in &log.events {
            let (kind, a) = match te.event.kind {
                EventKind::TaskLaunch { .. } => (0, 0),
                EventKind::TaskCommit { acquires, .. } => (1, acquires),
                EventKind::TaskAbort { acquires, .. } => (2, acquires),
                EventKind::TaskFault { acquires, .. } => (3, acquires),
                _ => continue,
            };
            counts[kind] += 1;
            traced += u64::from(a);
        }
        let ledger = [
            run.total_launched(),
            run.total_committed(),
            run.total_aborted(),
            run.total_faulted(),
        ];
        assert_eq!(counts, ledger, "task events vs the ledger");
        assert_eq!(traced, booked, "traced lock acquires");
    }
}

/// The graph the one-task-per-node (or per-edge) rows run on.
fn small_graph(rng: &mut StdRng) -> CsrGraph {
    gen::random_with_avg_degree(600, 8.0, rng)
}

/// Single-source shortest paths against Dijkstra.
pub fn sssp(cells: &[Cell], seed: u64) {
    let build = |rng: &mut StdRng| {
        let g = gen::random_with_avg_degree(800, 6.0, rng);
        let input = SsspInput::random(g, 0, 100, rng);
        let reference = input.dijkstra();
        let (space, op) = SsspOp::new(input);
        Row {
            tasks: op.initial_tasks(),
            space,
            op,
            reference,
        }
    };
    // `distances` also checks that every node's published bound ended
    // at its distance, past any rollback that left one behind.
    run_row("sssp", cells, seed, build, |mut op, reference, _| {
        assert_eq!(op.distances(), reference);
    });
}

/// Components merge under speculation: the hardest case for retiring
/// locks by lane.
pub fn boruvka(cells: &[Cell], seed: u64) {
    let build = |rng: &mut StdRng| {
        let g = gen::random_with_avg_degree(600, 6.0, rng);
        let wg = WeightedGraph::random(g, rng);
        let (space, op) = BoruvkaOp::new(&wg);
        Row {
            tasks: op.initial_tasks(),
            space,
            op,
            reference: wg.kruskal(),
        }
    };
    run_row("boruvka", cells, seed, build, |mut op, reference, _| {
        assert_eq!(op.msf(), reference);
    });
}

/// The unit square over 40 random interior points, refined down to
/// triangles of area ≤ 2e-3: the mesh must end valid, covering the
/// square, with no bad triangle left.
pub fn delaunay(cells: &[Cell], seed: u64) {
    let build = |rng: &mut StdRng| {
        let mut pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ];
        pts.extend((0..40).map(|_| Point::new(rng.random::<f64>(), rng.random::<f64>())));
        let cfg = RefineConfig::area_only(2e-3);
        let (space, mut op) = DelaunayOp::with_auto_capacity(&Mesh::delaunay(&pts), cfg);
        Row {
            tasks: op.initial_tasks(),
            space,
            op,
            reference: cfg,
        }
    };
    run_row("delaunay", cells, seed, build, |op, cfg, _| {
        let refined = op.into_mesh();
        refined.check_valid().unwrap();
        assert_eq!(bad_count(&refined, cfg), 0);
        assert!((refined.total_area() - 1.0).abs() < 1e-6);
    });
}

/// Greedy colouring: every node coloured once, no edge monochrome.
pub fn coloring(cells: &[Cell], seed: u64) {
    let build = |rng: &mut StdRng| {
        let g = small_graph(rng);
        let (space, op) = ColoringOp::new(g.clone());
        Row {
            tasks: op.initial_tasks(),
            space,
            op,
            reference: g,
        }
    };
    run_row("coloring", cells, seed, build, |mut op, g, run| {
        assert_eq!(run.total_committed(), g.node_count());
        ColoringOp::validate(&g, &op.colors()).unwrap();
    });
}

/// Maximal independent set: every node decided once, the set
/// independent and maximal — and the controller keeps the wasted
/// fraction of launches far below launching everything at once.
pub fn mis(cells: &[Cell], seed: u64) {
    let build = |rng: &mut StdRng| {
        let g = small_graph(rng);
        let (space, op) = MisOp::new(g.clone());
        Row {
            tasks: op.initial_tasks(),
            space,
            op,
            reference: g,
        }
    };
    run_row("mis", cells, seed, build, |mut op, g, run| {
        assert_eq!(run.total_committed(), g.node_count());
        MisOp::validate(&g, &op.decisions()).unwrap();
        assert!(run.overall_conflict_ratio() < 0.5);
    });
}

/// Maximal matching: one task per edge, partners symmetric along real
/// edges, no edge left with both ends free.
pub fn matching(cells: &[Cell], seed: u64) {
    let build = |rng: &mut StdRng| {
        let g = small_graph(rng);
        let (space, op) = MatchingOp::new(g.clone());
        Row {
            tasks: op.initial_tasks(),
            space,
            op,
            reference: g,
        }
    };
    run_row("matching", cells, seed, build, |mut op, g, run| {
        assert_eq!(run.total_committed(), g.edge_count());
        MatchingOp::validate(&g, &op.partners()).unwrap();
    });
}

/// The CC-graph mirror: adjacent tasks share exactly their edge's
/// lock — the paper's own conflict structure — and every node's
/// counter must read exactly one commit.
pub fn ccmirror(cells: &[Cell], seed: u64) {
    let build = |rng: &mut StdRng| {
        let g = small_graph(rng);
        let mut b = LockSpace::builder();
        let layout = CcMirror::layout(&g, &mut b);
        let space = b.build();
        let op = layout.finish(&space);
        Row {
            tasks: (0..g.node_count() as u32).collect(),
            space,
            op,
            reference: g.node_count(),
        }
    };
    run_row("ccmirror", cells, seed, build, |mut op, n, run| {
        assert_eq!(run.total_committed(), n);
        assert!(op.node_data.snapshot().iter().all(|&c| c == 1));
    });
}

/// Preflow-push: whatever order the discharges ran in, the flow is
/// feasible and its value is Edmonds–Karp's.
pub fn preflow(cells: &[Cell], seed: u64) {
    let build = |rng: &mut StdRng| {
        let g = gen::random_with_avg_degree(60, 5.0, rng);
        let net = FlowNetwork::random(g, 1, 58, 15, rng);
        let reference = net.edmonds_karp();
        let (space, op, tasks) = PreflowOp::new(net);
        Row {
            space,
            op,
            tasks,
            reference,
        }
    };
    run_row("preflow", cells, seed, build, |mut op, reference, _| {
        op.validate().unwrap();
        assert_eq!(op.flow_value(), reference);
    });
}

/// Agglomerative clustering: well-separated blobs, merged under any
/// interleaving, partition the points into exactly those blobs.
pub fn clustering(cells: &[Cell], seed: u64) {
    let build = |rng: &mut StdRng| {
        let (space, op) = ClusteringOp::new(blobs(4, 12, 1000.0, 1.0, rng), 8, 10.0);
        Row {
            tasks: op.initial_tasks(),
            space,
            op,
            reference: 4,
        }
    };
    run_row("clustering", cells, seed, build, |mut op, k, _| {
        op.validate().unwrap();
        assert_eq!(op.final_clusters().len(), k);
    });
}

/// Survey propagation: the asynchronous updates quiesce at the fixed
/// point the sequential Gauss–Seidel sweep reaches.
pub fn survey(cells: &[Cell], seed: u64) {
    let build = |rng: &mut StdRng| {
        let f = Formula::random_3sat(40, 60, rng); // α = 1.5
        let (reference, _) = sp_sequential(&f, 1e-9, 2000, 0.5).unwrap();
        let (space, op) = SurveyOp::new(f, 1e-9, 0.5);
        Row {
            tasks: op.initial_tasks(),
            space,
            op,
            reference,
        }
    };
    run_row("survey", cells, seed, build, |mut op, reference, _| {
        for (a, b) in reference.iter().zip(&op.surveys()) {
            assert!((0..3).all(|s| (a[s] - b[s]).abs() < 1e-6), "{a:?} vs {b:?}");
        }
    });
}
