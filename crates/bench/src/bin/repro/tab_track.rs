//! **TAB-TRACK** — §4.1's motivating scenario: available parallelism
//! changes abruptly (Delaunay refinement goes from no parallelism to
//! ~1000 parallel tasks within ~30 steps, per the LonStar profiles the
//! paper cites). The controller must re-track the moving operating
//! point quickly.
//!
//! Two scripts:
//! 1. a Delaunay-like ramp (parallelism grows 0 → n_max across 30
//!    steps),
//! 2. a collapse/recovery spike (sparse → dense → sparse).
//!
//! Reported per phase: mean |m − μ_phase|/μ_phase over the second half
//! of the phase (tracking error) and the response lag (rounds until
//! within 25% of the new μ after each phase switch).
//!
//! Usage: `repro tab-track [rounds_per_phase] [--csv]`

use optpar_bench::{pct, Table, SEED};
use optpar_core::control::{
    Controller, HybridController, HybridParams, RecurrenceA, RecurrenceParams,
};
use optpar_core::dynamics::{spike_script, Phase, PhasedPlant};
use optpar_core::estimate;
use optpar_core::sim::run_loop;
use optpar_graph::gen;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn evaluate<C: Controller>(
    label: &str,
    mk_plant: impl Fn(&mut StdRng) -> (PhasedPlant, Vec<usize>, Vec<usize>),
    mut ctl: C,
    _rho: f64,
    rng: &mut StdRng,
    table: &mut Table,
) {
    let (mut plant, mus, bounds) = mk_plant(rng);
    let total = plant.total_rounds();
    let tr = run_loop(&mut plant, &mut ctl, total, rng);
    for (k, (&mu, &start)) in mus.iter().zip(&bounds).enumerate() {
        let end = bounds.get(k + 1).copied().unwrap_or(total);
        let half = start + (end - start) / 2;
        let err: f64 = tr.steps[half..end]
            .iter()
            .map(|s| (s.m as f64 - mu as f64).abs() / mu.max(1) as f64)
            .sum::<f64>()
            / (end - half) as f64;
        let lag = tr.steps[start..end]
            .iter()
            .position(|s| (s.m as f64 - mu as f64).abs() / mu.max(1) as f64 <= 0.25)
            .map(|l| l.to_string())
            .unwrap_or_else(|| "never".into());
        table.row([
            format!("{label} / {}", ctl.name()),
            k.to_string(),
            mu.to_string(),
            lag,
            pct(err),
        ]);
    }
}

pub fn run(arg: Option<usize>, csv: bool) {
    let rpp: usize = arg.unwrap_or(80);
    let rho = 0.20;
    let mut rng = StdRng::seed_from_u64(SEED);

    let mut table = Table::new([
        "script/controller",
        "phase",
        "mu",
        "lag (rounds)",
        "track err",
    ]);

    // Script 1: Delaunay-like ramp, built explicitly so we can compute
    // the per-phase μ.
    let ramp = |rng: &mut StdRng| {
        let n = 4000;
        let steps = 5;
        let phases: Vec<Phase> = (1..=steps)
            .map(|i| {
                let mu_target = i * 800 / steps;
                let d = (rho * n as f64 / mu_target as f64).clamp(0.1, 64.0);
                Phase {
                    graph: gen::random_with_avg_degree(n, d, rng),
                    rounds: rpp,
                    label: "ramp",
                }
            })
            .collect();
        let mus: Vec<usize> = phases
            .iter()
            .map(|p| estimate::find_mu(&p.graph, rho, 400, rng))
            .collect();
        let bounds: Vec<usize> = (0..steps).map(|i| i * rpp).collect();
        (PhasedPlant::new(phases), mus, bounds)
    };
    // Script 2: spike.
    let spike = |rng: &mut StdRng| {
        let plant = spike_script(2000, rpp, rng);
        // Recompute μ for the three phases (same seeds as inside is not
        // possible; rebuild equivalent graphs).
        let s1 = gen::random_with_avg_degree(2000, 2.0, rng);
        let s2 = gen::random_with_avg_degree(2000, 128.0, rng);
        let s3 = gen::random_with_avg_degree(2000, 2.0, rng);
        let mus = vec![
            estimate::find_mu(&s1, rho, 400, rng),
            estimate::find_mu(&s2, rho, 400, rng),
            estimate::find_mu(&s3, rho, 400, rng),
        ];
        (plant, mus, vec![0, rpp, 2 * rpp])
    };

    let hp = HybridParams {
        rho,
        m_max: 8192,
        ..HybridParams::default()
    };
    let rp = RecurrenceParams {
        rho,
        m_max: 8192,
        ..RecurrenceParams::default()
    };
    evaluate(
        "ramp",
        ramp,
        HybridController::new(hp),
        rho,
        &mut rng,
        &mut table,
    );
    evaluate(
        "ramp",
        ramp,
        RecurrenceA::new(rp),
        rho,
        &mut rng,
        &mut table,
    );
    evaluate(
        "spike",
        spike,
        HybridController::new(hp),
        rho,
        &mut rng,
        &mut table,
    );
    evaluate(
        "spike",
        spike,
        RecurrenceA::new(rp),
        rho,
        &mut rng,
        &mut table,
    );

    println!("TAB-TRACK: dynamic tracking, ρ = 20%, {rpp} rounds/phase");
    table.print("§4.1 — tracking abrupt parallelism changes", csv);
}
