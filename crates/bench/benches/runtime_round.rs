//! Benchmarks of the speculative runtime itself: one execution round
//! of the CC-mirror operator at several allocations and worker counts
//! (throughput and speculation overhead of the substrate, independent
//! of any particular application).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use optpar_apps::ccmirror::CcMirror;
use optpar_graph::gen;
use optpar_runtime::{Executor, ExecutorConfig, LockSpace, WorkSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn build(n: usize, d: f64, seed: u64) -> (LockSpace, CcMirror) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen::random_with_avg_degree(n, d, &mut rng);
    let mut b = LockSpace::builder();
    let layout = CcMirror::layout(&g, &mut b);
    let space = b.build();
    let mirror = layout.finish(&space);
    (space, mirror)
}

fn bench_round(c: &mut Criterion) {
    let (space, op) = build(10_000, 8.0, 7);
    let mut group = c.benchmark_group("runtime_round_ccmirror_n10k");
    for &workers in &[1usize, 2, 4, 8] {
        for &m in &[64usize, 512] {
            let ex = Executor::new(
                &op,
                &space,
                ExecutorConfig {
                    workers,
                    ..ExecutorConfig::default()
                },
            );
            group.bench_with_input(BenchmarkId::new(format!("w{workers}"), m), &m, |b, &m| {
                let mut rng = StdRng::seed_from_u64(9);
                b.iter(|| {
                    let mut ws = WorkSet::from_vec((0..10_000u32).collect::<Vec<_>>());
                    ex.run_round(&mut ws, m, &mut rng)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_round);
criterion_main!(benches);
