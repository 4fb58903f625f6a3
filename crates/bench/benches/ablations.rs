//! Ablation benches for the design choices called out in DESIGN.md §6:
//!
//! * `small_m_split` — Algorithm 1 with and without the separate
//!   small-`m` tuning: rounds to convergence on a noisy plant.
//! * `window_length` — the averaging window `T` of Algorithm 1.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use optpar_core::control::{HybridController, HybridParams, SmallMParams};
use optpar_core::sim::{run_loop, StaticGraphPlant};
use optpar_graph::gen;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rounds_to_drain(params: HybridParams, seed: u64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen::random_with_avg_degree(2000, 16.0, &mut rng);
    let mut ctl = HybridController::new(params);
    let mut plant = StaticGraphPlant::new(g);
    let tr = run_loop(&mut plant, &mut ctl, 200, &mut rng);
    // Proxy metric: total committed over the fixed horizon (higher is
    // better; convergence speed dominates it from a cold start).
    tr.total_committed()
}

fn bench_controller_ablations(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_hybrid_200round_run");
    group.bench_function("small_m_split_on", |b| {
        let mut s = 0;
        b.iter(|| {
            s += 1;
            rounds_to_drain(
                HybridParams {
                    rho: 0.2,
                    small_m: Some(SmallMParams::default()),
                    ..HybridParams::default()
                },
                s,
            )
        })
    });
    group.bench_function("small_m_split_off", |b| {
        let mut s = 0;
        b.iter(|| {
            s += 1;
            rounds_to_drain(
                HybridParams {
                    rho: 0.2,
                    small_m: None,
                    ..HybridParams::default()
                },
                s,
            )
        })
    });
    for &t in &[1usize, 4, 16] {
        group.bench_with_input(BenchmarkId::new("window", t), &t, |b, &t| {
            let mut s = 0;
            b.iter(|| {
                s += 1;
                rounds_to_drain(
                    HybridParams {
                        rho: 0.2,
                        window: t,
                        small_m: None,
                        ..HybridParams::default()
                    },
                    s,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_controller_ablations);
criterion_main!(benches);
