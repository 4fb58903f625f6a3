//! Layer probes: small fixed experiments that price one layer's public
//! entry point each, independent of the workload. They run in every
//! traced run (about a second in all) so each per-layer number sits
//! next to the workload numbers it is supposed to explain.

use crate::drain::executor;
use crate::stats::{median, Summary};
use crate::trace::{timed, Tracer};
use crate::workloads::{ccmirror_ok, ccmirror_plain, FIXED_M, PIPELINED};
use crate::Run;
use optpar_apps::ccmirror::CcMirror;
use optpar_core::control::FixedController;
use optpar_core::partition::bfs_partition;
use optpar_graph::{ConflictGraph, CsrGraph};
use optpar_obs::{EventKind, EventRing};
use optpar_runtime::{Abort, LockSpace, Operator, SpecStore, TaskCtx, WorkSet, WorkerPool};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Shard count and allowed imbalance of the BFS partitioner, as the
/// scale harness uses them.
pub const SHARDS: usize = 8;
pub const IMBALANCE: f64 = 1.25;

/// Tasks drawn per round by the probe drains: the workloads' fixed m.
const M: usize = FIXED_M;
/// Repetitions of each probe; the median is reported.
const REPS: usize = 3;

/// Task `i` locks `k` private slots of one store and writes `w` of
/// them; with `hot`, it first locks slot 0, which every task shares.
/// A task's slots lie `tasks` apart, so each acquire touches its own
/// cache line, as the apps' scattered acquires do.
struct ProbeOp {
    store: SpecStore<u64>,
    tasks: usize,
    k: usize,
    w: usize,
    hot: bool,
}

/// Private slots reserved per task (the largest `k` probed).
const K_MAX: usize = 8;

impl ProbeOp {
    fn new(tasks: usize, k: usize, w: usize, hot: bool) -> (LockSpace, ProbeOp) {
        assert!(w <= k && k <= K_MAX);
        let mut b = LockSpace::builder();
        let len = 1 + tasks * K_MAX;
        let region = b.region(len);
        let space = b.build();
        let store = SpecStore::filled(region, len, 0);
        (
            space,
            ProbeOp {
                store,
                tasks,
                k,
                w,
                hot,
            },
        )
    }
}

impl Operator for ProbeOp {
    type Task = u32;

    fn execute(&self, &i: &u32, cx: &mut TaskCtx<'_>) -> Result<Vec<u32>, Abort> {
        if self.hot {
            cx.lock(&self.store, 0)?;
        }
        let slot = |s: usize| 1 + s * self.tasks + i as usize;
        for s in 0..self.k {
            cx.lock(&self.store, slot(s))?;
        }
        for s in 0..self.w {
            *cx.write(&self.store, slot(s))? += 1;
        }
        Ok(vec![])
    }
}

/// ns per committed task of a conflict-free drain (`k` acquires, `w`
/// writes per task), one worker, `run_round` at fixed m.
fn commit_cost_ns(k: usize, w: usize) -> f64 {
    // 8 slots × (lock word + datum) × 400k tasks ≈ 51 MB: well past the
    // last-level cache, like the graph workloads' lock spaces.
    const TASKS: usize = 400_000;
    let samples: Vec<f64> = (0..REPS)
        .map(|rep| {
            let (space, op) = ProbeOp::new(TASKS, k, w, false);
            let ex = executor(&op, &space, 1);
            let mut ws = WorkSet::from_vec((0..TASKS as u32).collect());
            let mut rng = StdRng::seed_from_u64(rep as u64);
            let (committed, secs) = timed(|| {
                let mut committed = 0;
                while !ws.is_empty() {
                    committed += ex.run_round(&mut ws, M, &mut rng).committed;
                }
                committed
            });
            assert_eq!(committed, TASKS, "private slots cannot conflict");
            secs * 1e9 / TASKS as f64
        })
        .collect();
    median(&samples)
}

/// ns per aborted task: every task of a round wants slot 0, so one
/// commits and the rest lose their first acquire, roll back and are
/// re-queued.
fn abort_cost_ns() -> f64 {
    const TASKS: usize = 2 * M;
    const ROUNDS: usize = 100;
    let samples: Vec<f64> = (0..REPS)
        .map(|rep| {
            let (space, op) = ProbeOp::new(TASKS, 1, 1, true);
            let ex = executor(&op, &space, 1);
            let mut ws = WorkSet::from_vec((0..TASKS as u32).collect());
            let mut rng = StdRng::seed_from_u64(rep as u64);
            let ((launched, aborted), secs) = timed(|| {
                let mut tally = (0, 0);
                for _ in 0..ROUNDS {
                    let rs = ex.run_round(&mut ws, M, &mut rng);
                    tally = (tally.0 + rs.launched, tally.1 + rs.aborted);
                }
                tally
            });
            assert_eq!(launched - aborted, ROUNDS, "one winner per round");
            secs * 1e9 / aborted as f64
        })
        .collect();
    median(&samples)
}

/// ns per task of `WorkSet::sample_drain`, m = 2048 out of 2M entries.
fn draw_cost_ns() -> f64 {
    const ENTRIES: usize = 2_000_000;
    let samples: Vec<f64> = (0..REPS)
        .map(|rep| {
            let mut ws = WorkSet::from_vec((0..ENTRIES as u32).collect());
            let mut rng = StdRng::seed_from_u64(rep as u64);
            let (_, secs) = timed(|| {
                while !ws.is_empty() {
                    black_box(ws.sample_drain(M, &mut rng));
                }
            });
            secs * 1e9 / ENTRIES as f64
        })
        .collect();
    median(&samples)
}

/// ns per `WorkerPool::run` of a no-op job: publish, wake, rendezvous.
fn rendezvous_ns(workers: usize) -> f64 {
    const RUNS: usize = 2_000;
    let pool = WorkerPool::new(workers);
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let (_, secs) = timed(|| {
                for _ in 0..RUNS {
                    pool.run(&|w| {
                        black_box(w);
                    })
                    .expect("the pool is alive");
                }
            });
            secs * 1e9 / RUNS as f64
        })
        .collect();
    median(&samples)
}

/// ns per `EventRing::record`, drained every 1024 events as a round
/// barrier would.
fn ring_record_ns() -> f64 {
    const EVENTS: u32 = 1_000_000;
    let ring = EventRing::with_capacity(4096);
    let mut sink = Vec::new();
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let (_, secs) = timed(|| {
                for slot in 0..EVENTS {
                    ring.record(EventKind::TaskLaunch { slot, epoch: 1 });
                    if slot % 1024 == 1023 {
                        sink.clear();
                        ring.drain_into(0, &mut sink);
                    }
                }
            });
            black_box(&sink);
            secs * 1e9 / f64::from(EVENTS)
        })
        .collect();
    median(&samples)
}

/// Run every workload-independent probe and record its metric.
pub fn layer_probes(run: &mut Run, tr: &mut Tracer) {
    tr.span("probes", 0, |_| {
        let k1 = commit_cost_ns(1, 1);
        let k8 = commit_cost_ns(K_MAX, 1);
        let w8 = commit_cost_ns(K_MAX, K_MAX);
        run.put("runtime.task.ns_per_commit_k1", Summary::single(k1));
        run.put(
            "runtime.lock.ns_per_acquire",
            Summary::single((k8 - k1) / (K_MAX - 1) as f64),
        );
        run.put(
            "runtime.store.ns_per_write",
            Summary::single((w8 - k8) / (K_MAX - 1) as f64),
        );
        run.put(
            "runtime.task.ns_per_abort",
            Summary::single(abort_cost_ns()),
        );
        run.put(
            "runtime.exec.draw_ns_per_task",
            Summary::single(draw_cost_ns()),
        );
        run.put(
            "runtime.pool.rendezvous_ns",
            Summary::single(rendezvous_ns(crate::nproc().min(2))),
        );
        run.put("obs.ring.record_ns", Summary::single(ring_record_ns()));
    });
}

fn pipelined_drain(
    op: &CcMirror,
    space: &LockSpace,
    nodes: usize,
    workers: usize,
    seed: u64,
    parts: Option<&[u32]>,
) -> usize {
    let ex = executor(op, space, workers);
    let mut ws = WorkSet::from_vec((0..nodes as u32).collect());
    let mut ctl = FixedController::new(M);
    let mut rng = StdRng::seed_from_u64(seed);
    let stats = match parts {
        Some(parts) => {
            let place = |t: &u32| parts[*t as usize] as usize;
            ex.run_pipelined_placed(&mut ws, &mut ctl, PIPELINED, &mut rng, Some(&place))
        }
        None => ex.run_pipelined(&mut ws, &mut ctl, PIPELINED, &mut rng),
    };
    assert!(ws.is_empty(), "pipelined drain did not quiesce");
    stats.total_committed()
}

/// Does sharding pay? Time to lay out and drain the cc-mirror
/// pipelined, over the time to partition the graph, lay the stores out
/// by shard and drain with partition-affine placement. > 1 means the
/// partition earns back its cost within one drain.
pub fn shard_placed_ratio(g: &CsrGraph, workers: usize, seed: u64) -> f64 {
    let n = g.node_count();
    let (plain, sharded): (Vec<f64>, Vec<f64>) = (0..3)
        .map(|_| {
            let ((space, op), layout_s) = timed(|| ccmirror_plain(g));
            let (committed, drain_s) =
                timed(|| pipelined_drain(&op, &space, n, workers, seed, None));
            assert!(
                ccmirror_ok(op, committed, n),
                "plain pipelined drain failed verification"
            );
            let plain_s = layout_s + drain_s;

            let ((space, op, part), layout_s) = timed(|| {
                let part = bfs_partition(g, SHARDS, IMBALANCE);
                let mut b = LockSpace::builder();
                let layout = CcMirror::layout_sharded(g, &mut b, &part.parts, part.k);
                let space = b.build();
                let op = layout.finish(&space);
                (space, op, part)
            });
            let (committed, placed_s) =
                timed(|| pipelined_drain(&op, &space, n, workers, seed, Some(&part.parts)));
            assert!(
                ccmirror_ok(op, committed, n),
                "placed pipelined drain failed verification"
            );
            (plain_s, layout_s + placed_s)
        })
        .unzip();
    median(&plain) / median(&sharded)
}
