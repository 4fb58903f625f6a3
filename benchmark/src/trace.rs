//! Tracing from the benchmark's side of each layer boundary.
//!
//! Spans are recorded around calls into the layers' public functions —
//! nothing under `crates/` is edited. A span is `{name, start_ns,
//! end_ns, parent}`; the hot per-task and per-round boundaries
//! (`apps.execute`, `core.control.observe`) are aggregated per drain
//! into one span carrying a call count and the summed time, so the
//! trace stays small and the probes cheap. Spans live in memory and are
//! written when the workload ends. Self time = span − children.

use crate::json::Value;
use optpar_core::control::Controller;
use optpar_runtime::{Abort, Operator, TaskCtx};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Time one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Worker count of the drain this span belongs to (0 = set-up).
    pub workers: usize,
    /// Calls folded into an aggregated span (1 for a plain span).
    pub calls: u64,
    /// Summed time of the folded calls; equals `end_ns - start_ns` for
    /// a plain span. An aggregate's interval is its parent's, so this
    /// is the number to use for its duration.
    pub busy_ns: u64,
}

/// In-memory span recorder. Disabled (the untraced run) it only times.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` as a child span of whatever span is open; returns its
    /// result and its duration in seconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        workers: usize,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        if !self.enabled {
            return timed(|| f(self));
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            workers,
            calls: 1,
            busy_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = end_ns;
        s.busy_ns = end_ns - start_ns;
        (out, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// Record `calls` calls totalling `busy_ns` as one child of the
    /// open span (which must exist).
    pub fn aggregate(&mut self, name: &'static str, calls: u64, busy_ns: u64) {
        if !self.enabled {
            return;
        }
        let parent = *self
            .open
            .last()
            .expect("an aggregate needs an open parent span");
        let (start_ns, workers) = (self.spans[parent].start_ns, self.spans[parent].workers);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: self.now_ns(),
            parent: Some(parent),
            workers,
            calls,
            busy_ns,
        });
    }

    /// Record a span measured elsewhere (another thread) against this
    /// tracer's clock, as a child of `parent`.
    pub fn push_foreign(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        workers: usize,
    ) -> usize {
        let rel = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        let (start_ns, end_ns) = (rel(start), rel(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            workers,
            calls: 1,
            busy_ns: end_ns - start_ns,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Span duration minus the time its direct children cover. With
    /// more than one worker the children's summed thread time can
    /// exceed the parent's wall-clock, so the result saturates at 0.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.busy_ns)
            .sum();
        self.spans[id].busy_ns.saturating_sub(children)
    }

    pub fn to_json(&self, workload: &str) -> Value {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Value::obj([
                    ("name", Value::str(s.name)),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("workload", Value::str(workload)),
                    ("workers", Value::Num(s.workers as f64)),
                    ("calls", Value::Num(s.calls as f64)),
                    ("busy_ns", Value::Num(s.busy_ns as f64)),
                    ("self_ns", Value::Num(self.self_ns(id) as f64)),
                ])
            })
            .collect();
        Value::obj([
            ("workload", Value::str(workload)),
            ("spans", Value::Arr(spans)),
        ])
    }
}

/// Counter slots; threads hash onto them, so sharing a slot is only a
/// slower `fetch_add`, never a wrong total.
const SLOTS: usize = 8;

/// One thread's counters on their own cache lines (128: the adjacent-
/// line prefetcher pairs lines).
#[repr(align(128))]
#[derive(Default)]
struct Cell {
    calls: AtomicU64,
    ns: AtomicU64,
}

fn thread_slot() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::SeqCst) % SLOTS;
    }
    SLOT.with(|s| *s)
}

/// Wraps an operator and times every `execute` — the `apps` layer
/// boundary as the runtime sees it. Only the traced run uses it.
pub struct TimedOp<'a, O> {
    inner: &'a O,
    cells: [Cell; SLOTS],
}

impl<'a, O> TimedOp<'a, O> {
    pub fn new(inner: &'a O) -> Self {
        TimedOp {
            inner,
            cells: Default::default(),
        }
    }

    /// `(calls, total ns)` over all threads.
    pub fn totals(&self) -> (u64, u64) {
        self.cells.iter().fold((0, 0), |(c, n), cell| {
            (
                c + cell.calls.load(Ordering::SeqCst),
                n + cell.ns.load(Ordering::SeqCst),
            )
        })
    }
}

impl<O: Operator> Operator for TimedOp<'_, O> {
    type Task = O::Task;

    fn execute(&self, task: &Self::Task, cx: &mut TaskCtx<'_>) -> Result<Vec<Self::Task>, Abort> {
        let t0 = Instant::now();
        let out = self.inner.execute(task, cx);
        let ns = t0.elapsed().as_nanos() as u64;
        let cell = &self.cells[thread_slot()];
        cell.calls.fetch_add(1, Ordering::SeqCst);
        cell.ns.fetch_add(ns, Ordering::SeqCst);
        out
    }

    fn conflict_seed(&self, task: &Self::Task) -> Option<u64> {
        self.inner.conflict_seed(task)
    }
}

/// One controller step as the engine reported it.
#[derive(Clone, Copy, Debug)]
pub struct ControlStep {
    /// The allocation the round ran with.
    pub m: usize,
    /// The pressure ratio it observed.
    pub r: f64,
}

/// The `core.control` boundary: forwards to the real controller and, in
/// the traced run, times `observe` and logs `(m, r)` per step. It also
/// erases the controller type so every workload drives the same engine
/// entry points.
pub struct ControlProbe {
    inner: Box<dyn Controller + Send>,
    traced: bool,
    pub observe_ns: u64,
    pub steps: Vec<ControlStep>,
}

impl ControlProbe {
    pub fn new(inner: Box<dyn Controller + Send>, traced: bool) -> Self {
        ControlProbe {
            inner,
            traced,
            observe_ns: 0,
            steps: Vec::new(),
        }
    }

    /// First step (1-based) at which the controller had found its
    /// target: `|r − ρ| ≤ 0.1`, or the allocation pinned at `m_max`.
    /// 0 for an open-loop controller or a run that never got there.
    pub fn converge_round(&self, m_max: usize) -> usize {
        let Some(rho) = self.inner.target_rho() else {
            return 0;
        };
        self.steps
            .iter()
            .position(|s| (s.r - rho).abs() <= 0.1 || s.m >= m_max)
            .map_or(0, |i| i + 1)
    }

    pub fn m_mean(&self) -> f64 {
        mean(self.steps.iter().map(|s| s.m as f64))
    }

    pub fn r_mean(&self) -> f64 {
        mean(self.steps.iter().map(|s| s.r))
    }

    /// Mean `|r − ρ|` over the run's steps (0 for open loop).
    pub fn rho_abs_err(&self) -> f64 {
        match self.inner.target_rho() {
            Some(rho) => mean(self.steps.iter().map(|s| (s.r - rho).abs())),
            None => 0.0,
        }
    }
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

impl Controller for ControlProbe {
    fn current_m(&self) -> usize {
        self.inner.current_m()
    }

    fn observe(&mut self, r: f64, launched: usize) {
        if !self.traced {
            return self.inner.observe(r, launched);
        }
        if launched > 0 {
            self.steps.push(ControlStep {
                m: self.inner.current_m(),
                r,
            });
        }
        let t0 = Instant::now();
        self.inner.observe(r, launched);
        self.observe_ns += t0.elapsed().as_nanos() as u64;
    }

    fn target_rho(&self) -> Option<f64> {
        self.inner.target_rho()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optpar_core::control::{FixedController, HybridController};

    #[test]
    fn self_time_is_span_minus_children() {
        let mut tr = Tracer::new(true);
        tr.span("runtime.drain", 1, |tr| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            tr.aggregate("apps.execute", 10, 500_000);
            tr.span("verify", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[1].calls, 10);
        let expect = spans[0].busy_ns - 500_000 - spans[2].busy_ns;
        assert_eq!(tr.self_ns(0), expect);
        assert_eq!(tr.self_ns(2), spans[2].busy_ns);
    }

    #[test]
    fn a_disabled_tracer_times_but_records_nothing() {
        let mut tr = Tracer::new(false);
        let (v, secs) = tr.span("graph.gen", 0, |_| 41 + 1);
        tr.aggregate("apps.execute", 1, 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn control_probe_forwards_and_logs_only_when_traced() {
        let mut plain = ControlProbe::new(Box::new(HybridController::with_rho(0.25)), false);
        let mut traced = ControlProbe::new(Box::new(HybridController::with_rho(0.25)), true);
        for _ in 0..40 {
            plain.observe(0.0, 2);
            traced.observe(0.0, 2);
        }
        assert_eq!(
            plain.current_m(),
            traced.current_m(),
            "the probe must not change control"
        );
        assert!(plain.current_m() > 2, "r = 0 must grow m");
        assert!(plain.steps.is_empty());
        assert_eq!(traced.steps.len(), 40);
        assert_eq!(traced.steps[0].m, 2);
    }

    #[test]
    fn convergence_is_first_step_near_rho_or_at_m_max() {
        let mut p = ControlProbe::new(Box::new(HybridController::with_rho(0.25)), true);
        p.steps = vec![
            ControlStep { m: 2, r: 0.0 },
            ControlStep { m: 4, r: 0.5 },
            ControlStep { m: 8, r: 0.3 },
        ];
        assert_eq!(p.converge_round(1024), 3);
        assert_eq!(p.converge_round(4), 2);
        assert!((p.rho_abs_err() - (0.25 + 0.25 + 0.05) / 3.0).abs() < 1e-12);
        let open = ControlProbe::new(Box::new(FixedController::new(64)), true);
        assert_eq!(open.converge_round(64), 0);
    }
}
