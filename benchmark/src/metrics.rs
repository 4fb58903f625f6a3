//! The names this benchmark fixes: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repository root carries the same tables for the driver; a test in
//! `main.rs` keeps the two in step.

use crate::stats::Better::{self, Higher, Lower};

pub struct WorkloadInfo {
    pub name: &'static str,
    /// One line: why the workload is in the benchmark.
    pub why: &'static str,
}

impl WorkloadInfo {
    pub fn named(name: &str) -> Option<&'static WorkloadInfo> {
        WORKLOADS.iter().find(|w| w.name == name)
    }
}

pub const WORKLOADS: [WorkloadInfo; 6] = [
    WorkloadInfo {
        name: "sssp-rmat15",
        why: "Degree-skewed SSSP, pipelined engine: ~90% of launches abort on hub locks, so the lock/abort path and the in-flight budget dominate.",
    },
    WorkloadInfo {
        name: "sssp-grid128",
        why: "High-diameter SSSP, same operator and engine: few aborts but tens of commits per node, so redundant work and work-set order dominate.",
    },
    WorkloadInfo {
        name: "delaunay-refine",
        why: "The paper's flagship: operator-heavy mesh refinement whose parallelism grows, so the hybrid controller ramps m from 2 to 1024.",
    },
    WorkloadInfo {
        name: "boruvka-rand8k",
        why: "Parallelism collapses as components merge: hundreds of small rounds, so per-round costs and the controller's shrink path carry the run.",
    },
    WorkloadInfo {
        name: "ccmirror-road400k",
        why: "One commit per node and a near-empty operator at fixed m: pure runtime overhead per launch; scheduling-policy changes must show nothing here.",
    },
    WorkloadInfo {
        name: "service-mix",
        why: "Closed-loop batches of small sssp/boruvka/delaunay jobs through the job service: the only workload crossing admission, lanes and budget slicing.",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before the change counts as a regression.
    pub bound: f64,
    /// `--compare` only: the metric must also worsen by more than this
    /// much in its own unit (the driver knows only `bound`).
    pub floor: f64,
}

/// Everything here is measured at one worker: the work repeats exactly,
/// so the fastest rep is a steady number. Two-worker times are per-layer
/// metrics (`runtime.pool.*`): on the shared 2-vCPU development host a
/// pool rendezvous took 40 µs one hour and 800 µs the next, and every
/// barrier round amplifies that, so no bound on them could hold.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "solve_w1_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "speedup_vs_seq",
        unit: "ratio",
        better: Higher,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        // A 25% swing of a 7 ms set-up is scheduler noise.
        floor: 0.050,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.15,
        floor: 0.0,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Per-layer metrics have no bound, so only `BENCHMARK.json` (and the
    /// test that checks it against this table) reads the direction.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Layer = module name. A workload whose path does not cross a layer
/// reports 0 for that layer's metrics (the driver wants every name on
/// every workload).
pub const PER_LAYER: [PerLayer; 47] = [
    layer("graph.gen_s", "s", Lower),
    layer("graph.nodes", "count", Higher),
    layer("graph.edges", "count", Higher),
    layer("core.partition.bfs_s", "s", Lower),
    layer("core.partition.cut_fraction", "share", Lower),
    layer("core.control.observe_ns", "ns", Lower),
    layer("core.control.converge_round", "count", Lower),
    layer("core.control.m_mean", "count", Higher),
    layer("core.control.r_mean", "share", Lower),
    layer("core.control.rho_abs_err", "share", Lower),
    layer("runtime.exec.draw_ns_per_task", "ns", Lower),
    layer("runtime.exec.rounds", "count", Lower),
    layer("runtime.exec.launched", "count", Lower),
    layer("runtime.exec.committed", "count", Lower),
    layer("runtime.exec.abort_ratio", "share", Lower),
    layer("runtime.exec.phase_draw_share", "share", Lower),
    layer("runtime.exec.phase_execute_share", "share", Higher),
    layer("runtime.exec.phase_commit_share", "share", Lower),
    layer("runtime.exec.phase_wait_share", "share", Lower),
    layer("runtime.overhead_ns_per_launch", "ns", Lower),
    layer("runtime.task.ns_per_commit_k1", "ns", Lower),
    layer("runtime.lock.ns_per_acquire", "ns", Lower),
    layer("runtime.store.ns_per_write", "ns", Lower),
    layer("runtime.task.ns_per_abort", "ns", Lower),
    layer("runtime.pool.rendezvous_ns", "ns", Lower),
    layer("runtime.pool.solve_w2_s", "s", Lower),
    layer("runtime.pool.scaling_w2", "ratio", Higher),
    layer("runtime.pipelined.flushes", "count", Lower),
    layer("runtime.pipelined.abort_ratio", "share", Lower),
    layer("runtime.pipelined.launches_per_commit", "ratio", Lower),
    layer("runtime.shard.placed_ratio", "ratio", Higher),
    layer("runtime.service.jobs_per_s", "1/s", Higher),
    layer("runtime.service.job_p50_ms", "ms", Lower),
    layer("runtime.service.job_tail_ms", "ms", Lower),
    layer("runtime.service.job_tail_pct", "%", Higher),
    layer("runtime.service.submit_ns", "ns", Lower),
    layer("runtime.service.overhead_ms_p50", "ms", Lower),
    layer("runtime.service.drive_share", "share", Higher),
    layer("runtime.service.rounds_per_job", "count", Lower),
    layer("runtime.service.shed", "count", Lower),
    layer("runtime.service.retries", "count", Lower),
    layer("apps.execute_ns_per_launch", "ns", Lower),
    layer("apps.commits_per_unit", "ratio", Lower),
    layer("apps.seq_ref_s", "s", Lower),
    layer("apps.build_s", "s", Lower),
    layer("obs.ring.record_ns", "ns", Lower),
    layer("trace.overhead_pct", "%", Lower),
];
