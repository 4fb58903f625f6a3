//! Chaos end-to-end for the multi-tenant job service: N concurrent
//! clients submit a mixed sssp / Boruvka / Delaunay tenancy into one
//! [`serve`] instance while a seeded ~10% injected-fault schedule fires
//! inside every job's rounds, once per chaos seed in [`CHAOS_SEEDS`]. The contract under fire:
//!
//! * every job matches its sequential reference (verified inside the
//!   job closure) with no dead letters: the per-task dead-letter
//!   budget absorbs every injected fault, so no job fails and there is
//!   nothing a job-level retry could add;
//! * each job's injection-side ledger ([`JobReport::injected`])
//!   reconciles entry-for-entry against its containment-side fault
//!   log ([`JobReport::faults`]) at the same `(drive, epoch, slot)`
//!   coordinate;
//! * no panic escapes per-task containment on any lane's worker
//!   threads across the whole burst; and
//! * the same service accepts and completes a fresh job afterwards.

use optpar::apps::boruvka::{BoruvkaOp, WeightedGraph};
use optpar::apps::delaunay::{bad_count, DelaunayOp, RefineConfig};
use optpar::apps::geometry::Point;
use optpar::apps::sssp::{SsspInput, SsspOp};
use optpar::apps::triangulation::Mesh;
use optpar::core::control::{HybridController, HybridParams};
use optpar::graph::gen;
use optpar::runtime::{
    serve, silence_injected_panics, ChaosConfig, FaultCause, JobCx, JobOutput, JobReport, JobSpec,
    ServiceConfig, WorkSet,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;
use std::time::Duration;

const LANES: usize = 3;
const CLIENTS: usize = 8;
const JOBS_PER_CLIENT: usize = 2;

/// The burst's chaos seeds: the harness's first seed and seven more.
const CHAOS_SEEDS: [u64; 8] = [0xC4A0_5001, 1, 2, 3, 4, 5, 6, 7];

/// Mixed into a job's input seed for its drive RNG, so the draw order
/// is a different stream from the input generator's.
const DRIVE_STREAM: u64 = 1 << 48;

fn controller() -> HybridController {
    HybridController::new(HybridParams {
        rho: 0.25,
        m_max: 2048,
        ..HybridParams::default()
    })
}

fn config(chaos_seed: u64) -> ServiceConfig {
    ServiceConfig {
        lanes: LANES,
        queue_cap: CLIENTS * JOBS_PER_CLIENT,
        // Panics and spurious aborts at 5% each: ~10% of launched
        // tasks are hit, replayable from the fixed seed.
        chaos: Some(ChaosConfig::with_rates(chaos_seed, 0.05)),
        ..ServiceConfig::default()
    }
}

/// Job builders mirror the rows of `tests/matrix.rs`: build the input
/// and the sequential reference inside the closure, drive
/// speculatively on the lane, compare.
fn sssp_job(n: usize, seed: u64) -> JobSpec {
    JobSpec::new(format!("sssp-{seed:x}"), move |cx: &mut JobCx<'_>| {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_with_avg_degree(n, 6.0, &mut rng);
        let input = SsspInput::random(g, 0, 100, &mut rng);
        let reference = input.dijkstra();
        let (space, op) = SsspOp::new(input);
        let mut ws = WorkSet::from_vec(op.initial_tasks());
        let mut ctl = controller();
        let mut drng = StdRng::seed_from_u64(seed ^ DRIVE_STREAM);
        cx.drive(&op, &space, &mut ws, &mut ctl, &mut drng)?;
        let mut op = op;
        Ok(JobOutput {
            verified: op.distances() == reference,
            committed: 0,
            detail: String::new(),
        })
    })
}

fn boruvka_job(n: usize, seed: u64) -> JobSpec {
    JobSpec::new(format!("boruvka-{seed:x}"), move |cx: &mut JobCx<'_>| {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_with_avg_degree(n, 6.0, &mut rng);
        let wg = WeightedGraph::random(g, &mut rng);
        let reference = wg.kruskal();
        let (space, op) = BoruvkaOp::new(&wg);
        let mut ws = WorkSet::from_vec(op.initial_tasks());
        let mut ctl = controller();
        let mut drng = StdRng::seed_from_u64(seed ^ DRIVE_STREAM);
        cx.drive(&op, &space, &mut ws, &mut ctl, &mut drng)?;
        let mut op = op;
        Ok(JobOutput {
            verified: op.msf() == reference,
            committed: 0,
            detail: String::new(),
        })
    })
}

fn delaunay_job(extra: usize, seed: u64) -> JobSpec {
    JobSpec::new(format!("delaunay-{seed:x}"), move |cx: &mut JobCx<'_>| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ];
        pts.extend((0..extra).map(|_| Point::new(rng.random::<f64>(), rng.random::<f64>())));
        let mesh = Mesh::delaunay(&pts);
        let cfg = RefineConfig::area_only(1e-3);
        let (space, mut op) = DelaunayOp::with_auto_capacity(&mesh, cfg);
        let mut ws = WorkSet::from_vec(op.initial_tasks());
        let mut ctl = controller();
        let mut drng = StdRng::seed_from_u64(seed ^ DRIVE_STREAM);
        cx.drive(&op, &space, &mut ws, &mut ctl, &mut drng)?;
        let refined = op.into_mesh();
        let verified = refined.check_valid().is_ok()
            && bad_count(&refined, cfg) == 0
            && (refined.total_area() - 1.0).abs() < 1e-6;
        Ok(JobOutput {
            verified,
            committed: 0,
            detail: String::new(),
        })
    })
}

fn mixed_job(c: usize, j: usize) -> JobSpec {
    let seed = 0x05EE_DE2E ^ ((c as u64) << 20) ^ ((j as u64) << 8);
    let spec = match (c + j) % 3 {
        0 => sssp_job(600, seed),
        1 => boruvka_job(500, seed),
        _ => delaunay_job(35, seed),
    };
    spec.priority(1 + (c as u64 % 3))
}

/// Entry-for-entry ledger reconciliation for one job: the multiset of
/// `(drive, epoch, slot)` coordinates the chaos plans *fired* must
/// equal the multiset the executors *contained* as injected faults,
/// and nothing but injection may appear in the fault log.
fn reconcile(report: &JobReport) {
    for (_, fault) in &report.faults {
        assert_eq!(
            fault.cause,
            FaultCause::Injected,
            "job {} ({}) logged a non-injected fault: {fault:?}",
            report.id,
            report.name
        );
    }
    let mut fired: Vec<(u32, u64, usize)> = report
        .injected
        .iter()
        .map(|(drive, r)| (*drive, r.epoch, r.slot))
        .collect();
    let mut logged: Vec<(u32, u64, usize)> = report
        .faults
        .iter()
        .map(|(drive, f)| (*drive, f.epoch, f.slot.expect("task faults carry a slot")))
        .collect();
    fired.sort_unstable();
    logged.sort_unstable();
    assert_eq!(
        fired, logged,
        "job {} ({}): fault ledger and fault log disagree",
        report.id, report.name
    );
}

/// A job under chaos must still come back `Ok`, verified, with no
/// dead letters, and with its fault books reconciled.
fn assert_clean(report: &JobReport, chaos_seed: u64) {
    assert!(
        matches!(&report.result, Ok(out) if out.verified),
        "chaos seed {chaos_seed:#x}: job {} ({}) did not verify: {:?}",
        report.id,
        report.name,
        report.result
    );
    assert!(
        report.dead_letters.is_empty(),
        "chaos seed {chaos_seed:#x}: job {} ({}) dead-lettered {} task(s)",
        report.id,
        report.name,
        report.dead_letters.len()
    );
    reconcile(report);
}

/// One chaos burst: every client's jobs, then a fresh probe job on the
/// same service.
fn chaos_burst(chaos_seed: u64) {
    let reports: Mutex<Vec<JobReport>> = Mutex::new(Vec::new());
    let (probe, stats) = serve(config(chaos_seed), |svc| {
        std::thread::scope(|s| {
            for c in 0..CLIENTS {
                let reports = &reports;
                s.spawn(move || {
                    for j in 0..JOBS_PER_CLIENT {
                        // Closed loop: the queue is sized for the full
                        // burst, but retry on shed anyway so the test
                        // doesn't depend on scheduling order.
                        let report = loop {
                            match svc.submit(mixed_job(c, j)) {
                                Ok(ticket) => break ticket.wait(),
                                Err(_) => std::thread::sleep(Duration::from_millis(2)),
                            }
                        };
                        reports.lock().expect("reports").push(report);
                    }
                });
            }
        });
        // Recovery: the same service, after the whole chaos burst,
        // must accept and complete a fresh job.
        let ticket = svc
            .submit(sssp_job(400, 0x00AF_7E12))
            .expect("probe admitted");
        ticket.wait()
    });

    let reports = reports.into_inner().expect("reports");
    assert_eq!(reports.len(), CLIENTS * JOBS_PER_CLIENT);
    for report in &reports {
        assert_clean(report, chaos_seed);
    }
    let injected: usize = reports.iter().map(|r| r.injected.len()).sum();
    assert!(
        injected > 0,
        "chaos seed {chaos_seed:#x}: no fault ever fired; the schedule is vacuous"
    );

    // The probe ran on a lane the burst hammered (chaos included)
    // and still verified: recovery demonstrated.
    assert_clean(&probe, chaos_seed);

    // Every injected panic was contained per task: every job finished.
    assert_eq!(stats.completed, (CLIENTS * JOBS_PER_CLIENT + 1) as u64);
    assert_eq!(stats.failed, 0);
}

#[test]
fn chaos_service_multi_tenant_jobs_verify_and_reconcile() {
    silence_injected_panics();
    for chaos_seed in CHAOS_SEEDS {
        chaos_burst(chaos_seed);
    }
}

/// With the recorder attached, a chaos-burst service log passes the
/// trace validator (the `Job*` admission events are segment-neutral:
/// a service log with no round segments validates against zero
/// checks) and carries the admission events the service claims.
#[test]
fn chaos_service_obs_log_validates() {
    use optpar::runtime::obs::{validate, EventKind, CTL_TRACK};

    silence_injected_panics();
    let mut cfg = config(0xC4A0_5002);
    cfg.obs = true;
    let (_, stats) = serve(cfg, |svc| {
        let tickets: Vec<_> = (0..4)
            .map(|j| svc.submit(mixed_job(j, 0)).expect("admitted"))
            .collect();
        for t in tickets {
            let report = t.wait();
            assert!(report.result.is_ok(), "job failed: {:?}", report.result);
        }
    });
    let log = stats.obs_log.expect("obs log recorded");
    let vreport = validate::validate(&log, &[]).unwrap_or_else(|violations| {
        panic!(
            "service trace failed validation with {} violation(s):\n{}",
            violations.len(),
            violations.join("\n")
        )
    });
    assert_eq!(vreport.rounds, 0, "a service log carries no round segments");
    assert!(vreport.events > 0, "the admission events were recorded");
    let admits = log
        .events
        .iter()
        .filter(|te| te.track == CTL_TRACK && matches!(te.event.kind, EventKind::JobAdmit { .. }))
        .count();
    assert_eq!(admits as u64, stats.admitted, "one JobAdmit per admission");
}
