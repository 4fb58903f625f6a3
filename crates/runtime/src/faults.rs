//! Fault model: structured task faults, the per-executor fault log,
//! and deterministic fault injection.
//!
//! The paper's premise is that speculative tasks *fail routinely* — a
//! conflict ratio of 20–30% is the target operating point — so the
//! runtime treats misspeculation as a first-class, recoverable event.
//! This module extends that stance from the one benign failure mode
//! (lock-conflict abort) to the ugly ones:
//!
//! * **Panic containment** — the executor wraps every
//!   [`Operator::execute`](crate::task::Operator::execute) call in
//!   `catch_unwind`. A panicking task is rolled back exactly like a
//!   conflict abort — it has not sealed
//!   ([`TaskCtx::seal`](crate::task::TaskCtx::seal)), so it has
//!   written nothing and rolling back is releasing its locks — the
//!   round's thread or the lane's worker survives, and a structured
//!   [`TaskFault`] lands in the executor's [`FaultLog`]. The
//!   exception is a task that has sealed: its writes went in place, so
//!   a panic (or an `Err`) after the seal is re-raised, not contained.
//! * **Deterministic injection** — a seeded [`FaultPlan`], attached at
//!   run time with `Executor::set_fault_plan`, decides as a pure
//!   function of `(seed, epoch, slot)` whether a task panics or
//!   spuriously aborts mid-flight, or rolls back at its commit point
//!   (its seal — its first write — or else its `Ok` return), so every
//!   recovery path is exercised reproducibly. Without a plan nothing is armed: one `None` check
//!   per launch and per context operation.
//! * **Retry budgets** — the [`WorkSet`](crate::exec::WorkSet) counts
//!   aborts per task; `exec.rs` ages tasks past their budget to the
//!   front of the next round's prefix (greedy-MIS-winning by
//!   construction) and a watchdog shrinks `m` toward 1 when rounds
//!   stall (Prop. 1: `r̄(1) = 0`, so progress is guaranteed).
//!
//! What is *recoverable*: operator panics, injected faults, poisoned
//! executor-internal mutexes. What stays *fatal*: panics in the
//! runtime's own lock machinery outside the contained region
//! (they indicate a broken invariant, not a broken operator — a round
//! re-raises it on its caller's thread; a lane worker that dies this
//! way stops the drain's other lanes and is re-raised on the caller's
//! thread by the pool rendezvous, so no task's outcome is ever
//! silently missing), and misconfiguration asserts (zero workers,
//! oversized rounds).

use std::sync::{Mutex, PoisonError};

/// Why a task (or a round-internal structure) faulted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultCause {
    /// The operator panicked; the panic was contained and the task
    /// rolled back.
    OperatorPanic,
    /// An injected fault from a [`FaultPlan`] fired.
    Injected,
}

impl FaultCause {
    /// Stable numeric code for trace events (`0` is reserved for
    /// "unknown"). The mapping is part of the trace format: changing
    /// it invalidates recorded traces. Codes `3` (a pooled round's
    /// lost result slot) and `4` (scratch-mutex poison) belonged to
    /// retired causes and stay reserved — never reuse them.
    pub fn code(&self) -> u8 {
        match self {
            FaultCause::OperatorPanic => 1,
            FaultCause::Injected => 2,
        }
    }
}

impl std::fmt::Display for FaultCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultCause::OperatorPanic => write!(f, "operator panic"),
            FaultCause::Injected => write!(f, "injected fault"),
        }
    }
}

/// One structured, non-fatal runtime fault: the recoverable
/// counterpart of what used to be a process-killing `unwrap`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskFault {
    /// Epoch of the round in which the fault occurred.
    pub epoch: u64,
    /// Round slot of the faulting task (`None` for a fault not tied to
    /// one task; the executor itself records none today).
    pub slot: Option<usize>,
    /// What happened.
    pub cause: FaultCause,
    /// Human-readable detail (panic payload, injection coordinates).
    pub detail: String,
}

impl std::fmt::Display for TaskFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.slot {
            Some(s) => write!(
                f,
                "epoch {} slot {s}: {} ({})",
                self.epoch, self.cause, self.detail
            ),
            None => write!(f, "epoch {}: {} ({})", self.epoch, self.cause, self.detail),
        }
    }
}

/// A task retired from the work-set for good: it faulted again while
/// already at `retries ≥` the executor's
/// [`dead_letter_budget`](crate::exec::ExecutorConfig::dead_letter_budget).
/// Instead of being silently re-queued forever it is surfaced to the
/// job owner via [`Executor::take_dead_letters`](crate::exec::Executor::take_dead_letters).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeadLetter {
    /// Epoch of the round in which the final fault occurred.
    pub epoch: u64,
    /// Round slot of the final fault (mirrors [`TaskFault::slot`]).
    pub slot: Option<usize>,
    /// Retry count at retirement (≥ the configured budget).
    pub retries: u32,
    /// Cause of the final fault.
    pub cause: FaultCause,
    /// Detail string of the final fault.
    pub detail: String,
}

impl std::fmt::Display for DeadLetter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dead-lettered after {} retries at epoch {}: {} ({})",
            self.retries, self.epoch, self.cause, self.detail
        )
    }
}

/// Bound on undrained [`FaultLog`] entries: far above any single
/// run's fault volume, small enough that a long-running service under
/// sustained injection cannot grow without limit.
const FAULT_LOG_CAP: usize = 4096;

/// Accumulated faults of an executor. Entries can be drained for
/// inspection ([`FaultLog::drain`]); the total count is monotone.
///
/// The undrained buffer is bounded: once 4,096 entries sit undrained,
/// further pushes drop the *incoming* fault and bump
/// [`FaultLog::dropped`] instead of growing — [`FaultLog::total`]
/// still counts every push, so the loss is visible, never silent.
#[derive(Debug, Default)]
pub struct FaultLog {
    entries: Vec<TaskFault>,
    total: usize,
    dropped: usize,
}

impl FaultLog {
    /// Record one fault. Dropped (not stored) when the undrained
    /// buffer is full; draining frees space again.
    pub fn push(&mut self, fault: TaskFault) {
        self.total += 1;
        if self.entries.len() >= FAULT_LOG_CAP {
            self.dropped += 1;
        } else {
            self.entries.push(fault);
        }
    }

    /// Faults dropped because the undrained buffer was full
    /// (monotone; 0 means [`FaultLog::entries`] is complete).
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Faults recorded and not yet drained.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// No undrained faults?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total faults ever recorded (drains do not reset this).
    pub fn total(&self) -> usize {
        self.total
    }

    /// The undrained entries.
    pub fn entries(&self) -> &[TaskFault] {
        &self.entries
    }

    /// Remove and return all undrained entries.
    pub fn drain(&mut self) -> Vec<TaskFault> {
        std::mem::take(&mut self.entries)
    }
}

/// Recover a possibly-poisoned lock acquisition: a poisoned mutex
/// means some thread panicked while holding the guard, and every
/// structure the runtime protects this way is valid at every
/// intermediate step (work-set vectors, fault logs, counters), so the
/// data is still consistent and the guard can be used as-is.
pub(crate) fn recover<G>(r: Result<G, PoisonError<G>>) -> G {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Render a caught panic payload for a fault record.
pub(crate) fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Classify a caught panic payload: injected faults carry an
/// [`InjectedPanic`] payload; anything else is the operator's own.
pub(crate) fn classify_panic(payload: &(dyn std::any::Any + Send)) -> (FaultCause, String) {
    if let Some(ip) = payload.downcast_ref::<InjectedPanic>() {
        return (FaultCause::Injected, ip.0.clone());
    }
    (FaultCause::OperatorPanic, panic_detail(payload))
}

/// Panic payload used by injected [`FaultKind::Panic`] faults, so the
/// containment layer can tell them apart from genuine operator bugs.
pub(crate) struct InjectedPanic(pub String);

/// Install a process-global panic hook that suppresses the default
/// stderr report (message plus backtrace) for *injected* panics,
/// delegating every other panic to the previously-installed hook.
/// Chaos harnesses call this once at startup so a ~10% injection
/// schedule does not flood logs with thousands of backtraces; the
/// executor still contains and accounts each injected panic exactly
/// as before — only the default hook's printing is skipped.
pub fn silence_injected_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<InjectedPanic>().is_none() {
            prev(info);
        }
    }));
}

/// The kind of an injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Panic inside the operator after a few context operations
    /// (exercises `catch_unwind` containment and the lock release).
    Panic,
    /// Return [`Abort::Fault`](crate::task::Abort::Fault) from a
    /// context operation (exercises the structured-abort path without
    /// unwinding).
    SpuriousAbort,
    /// Roll back a task at its commit point, the last moment it can
    /// roll back: at [`TaskCtx::seal`](crate::task::TaskCtx::seal) — or
    /// the first write, which seals — if it seals, else after `execute`
    /// returned `Ok` (exercises the rollback of a task whose every
    /// context operation went through). Fired by `seal` or the
    /// executor, never armed as a countdown.
    AtCommit,
}

/// One fault that actually fired, for accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultRecord {
    /// Epoch at firing time.
    pub epoch: u64,
    /// Round slot of the targeted task.
    pub slot: usize,
    /// What fired.
    pub kind: FaultKind,
}

/// A deterministic, seeded fault-injection plan.
///
/// Whether a fault fires for a given task is a pure function of
/// `(seed, epoch, slot)` — no wall clock, no global RNG — so a run
/// with a fixed workload seed and a fixed plan seed replays the exact
/// same fault schedule. Rates are sampled per launched task via a
/// splitmix64 hash; exact coordinates can be pinned with
/// [`FaultPlan::at`].
///
/// Every fault that fires is recorded; [`FaultPlan::fired`] is the
/// injection-side ledger that tests reconcile against the executor's
/// [`FaultLog`].
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    /// Per-64k firing weights (65536 = always).
    panic_w: u32,
    spurious_w: u32,
    targeted: std::collections::HashMap<(u64, usize), FaultKind>,
    fired: Mutex<Vec<FaultRecord>>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults enabled.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    fn weight(rate: f64) -> u32 {
        (rate.clamp(0.0, 1.0) * 65536.0) as u32
    }

    /// Panic a fraction `rate` of launched tasks.
    pub fn with_panic_rate(mut self, rate: f64) -> Self {
        self.panic_w = Self::weight(rate);
        self
    }

    /// Spuriously abort a fraction `rate` of launched tasks.
    pub fn with_spurious_abort_rate(mut self, rate: f64) -> Self {
        self.spurious_w = Self::weight(rate);
        self
    }

    /// Pin a fault of `kind` to the task at `(epoch, slot)`,
    /// overriding the rates for that coordinate.
    pub fn at(mut self, epoch: u64, slot: usize, kind: FaultKind) -> Self {
        self.targeted.insert((epoch, slot), kind);
        self
    }

    /// Decide the mid-task fault (if any) for the task at
    /// `(epoch, slot)`. Returns the kind plus a countdown of context
    /// operations to let through before firing (so faults land
    /// mid-task, not only on the first lock). Never
    /// [`FaultKind::AtCommit`]: that one is [`FaultPlan::draw_commit`]'s.
    pub(crate) fn draw(&self, epoch: u64, slot: usize) -> Option<(FaultKind, u32)> {
        let h = mix(self.seed, epoch, slot as u64);
        let countdown = ((h >> 16) & 0x3) as u32;
        if let Some(&kind) = self.targeted.get(&(epoch, slot)) {
            return (kind != FaultKind::AtCommit).then_some((kind, countdown));
        }
        let roll = (h & 0xFFFF) as u32;
        if roll < self.panic_w {
            Some((FaultKind::Panic, countdown))
        } else if roll < self.panic_w + self.spurious_w {
            Some((FaultKind::SpuriousAbort, countdown))
        } else {
            None
        }
    }

    /// Does the task at `(epoch, slot)`, which reached its commit point
    /// (its seal, or its `Ok` return), roll back there? Drawn under its
    /// own hash key at the spurious-abort rate, so it is independent of
    /// [`FaultPlan::draw`]; a pinned coordinate overrides the rate as
    /// there. A fault that fires is ledgered here.
    pub(crate) fn draw_commit(&self, epoch: u64, slot: usize) -> bool {
        let fires = match self.targeted.get(&(epoch, slot)) {
            Some(&kind) => kind == FaultKind::AtCommit,
            None => {
                (mix(self.seed ^ COMMIT_SALT, epoch, slot as u64) & 0xFFFF)
                    < u64::from(self.spurious_w)
            }
        };
        if fires {
            self.record(FaultRecord {
                epoch,
                slot,
                kind: FaultKind::AtCommit,
            });
        }
        fires
    }

    /// Ledger one fired fault.
    pub(crate) fn record(&self, rec: FaultRecord) {
        recover(self.fired.lock()).push(rec);
    }

    /// Every fault that has fired so far, in firing order.
    pub fn fired(&self) -> Vec<FaultRecord> {
        recover(self.fired.lock()).clone()
    }

    /// Number of faults fired so far.
    pub fn fired_count(&self) -> usize {
        recover(self.fired.lock()).len()
    }
}

/// A fault armed on one task's context, ticking down context
/// operations until it fires.
pub(crate) struct ArmedFault<'p> {
    pub(crate) plan: &'p FaultPlan,
    pub(crate) epoch: u64,
    pub(crate) kind: FaultKind,
    pub(crate) countdown: u32,
}

impl ArmedFault<'_> {
    /// Fire the fault. Records it in the plan's ledger first, so even
    /// a panicking fault is accounted before it unwinds. Cold: it stays
    /// out of line, off `TaskCtx::lock_raw`'s hot path.
    #[cold]
    pub(crate) fn fire(self, slot: usize) -> Result<(), crate::task::Abort> {
        self.plan.record(FaultRecord {
            epoch: self.epoch,
            slot,
            kind: self.kind,
        });
        match self.kind {
            #[expect(
                clippy::panic,
                reason = "the injected panic is the fault being tested; it is thrown to be \
                          caught by the executor's containment boundary"
            )]
            FaultKind::Panic => std::panic::panic_any(InjectedPanic(format!(
                "injected panic at epoch {} slot {slot}",
                self.epoch
            ))),
            FaultKind::SpuriousAbort | FaultKind::AtCommit => Err(crate::task::Abort::Fault),
        }
    }
}

/// splitmix64 finalizer: the standard 64-bit avalanche.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Seed salt of the commit-point draw's hash key.
const COMMIT_SALT: u64 = 0xC0FF_EE00_D15C_A4D5;

/// Hash `(seed, epoch, slot)` into one decision word.
fn mix(seed: u64, epoch: u64, slot: u64) -> u64 {
    splitmix64(seed ^ splitmix64(epoch.wrapping_mul(0xA24B_AED4_963E_E407) ^ splitmix64(slot)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_log_counts_and_drains() {
        let mut log = FaultLog::default();
        assert!(log.is_empty());
        log.push(TaskFault {
            epoch: 3,
            slot: Some(1),
            cause: FaultCause::OperatorPanic,
            detail: "boom".into(),
        });
        log.push(TaskFault {
            epoch: 3,
            slot: None,
            cause: FaultCause::Injected,
            detail: "lost".into(),
        });
        assert_eq!(log.len(), 2);
        assert_eq!(log.total(), 2);
        let drained = log.drain();
        assert_eq!(drained.len(), 2);
        assert!(log.is_empty());
        assert_eq!(log.total(), 2, "total is monotone across drains");
        assert_eq!(drained[0].cause, FaultCause::OperatorPanic);
        assert!(drained[1].to_string().contains("injected fault (lost)"));
    }

    #[test]
    fn fault_log_is_bounded_and_counts_drops() {
        let mut log = FaultLog::default();
        let fault = |i: u64| TaskFault {
            epoch: i,
            slot: Some(0),
            cause: FaultCause::OperatorPanic,
            detail: "boom".into(),
        };
        for i in 0..FAULT_LOG_CAP as u64 + 2 {
            log.push(fault(i));
        }
        // The buffer holds the first `FAULT_LOG_CAP` entries; the
        // overflow is dropped but still counted.
        assert_eq!(log.len(), FAULT_LOG_CAP);
        assert_eq!(log.dropped(), 2);
        assert_eq!(
            log.total(),
            FAULT_LOG_CAP + 2,
            "total counts dropped pushes too"
        );
        assert_eq!(
            log.entries()[FAULT_LOG_CAP - 1].epoch,
            FAULT_LOG_CAP as u64 - 1,
            "incoming entries are dropped"
        );
        // Draining frees space: pushes land again, the drop counter
        // stays monotone.
        let drained = log.drain();
        assert_eq!(drained.len(), FAULT_LOG_CAP);
        log.push(fault(9));
        assert_eq!(log.len(), 1);
        assert_eq!(log.dropped(), 2);
        assert_eq!(log.total(), FAULT_LOG_CAP + 3);
    }

    #[test]
    fn recover_unwraps_clean_and_poisoned() {
        let m = std::sync::Mutex::new(7u32);
        *recover(m.lock()) = 8;
        // Poison it.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m.lock();
            panic!("poison");
        }));
        assert!(m.is_poisoned());
        assert_eq!(*recover(m.lock()), 8, "recovered guard sees valid data");
    }

    #[test]
    fn panic_detail_renders_common_payloads() {
        let s: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_detail(s.as_ref()), "static str");
        let s: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_detail(s.as_ref()), "owned");
        let s: Box<dyn std::any::Any + Send> = Box::new(42u8);
        assert_eq!(panic_detail(s.as_ref()), "non-string panic payload");
    }

    #[test]
    fn draw_is_deterministic() {
        let a = FaultPlan::seeded(7).with_panic_rate(0.5);
        let b = FaultPlan::seeded(7).with_panic_rate(0.5);
        for epoch in 0..50 {
            for slot in 0..50 {
                assert_eq!(a.draw(epoch, slot), b.draw(epoch, slot));
            }
        }
    }

    #[test]
    fn rates_are_roughly_respected() {
        let plan = FaultPlan::seeded(11).with_panic_rate(0.10);
        let mut hits = 0;
        let trials = 20_000;
        for i in 0..trials {
            if plan.draw(i / 100, (i % 100) as usize).is_some() {
                hits += 1;
            }
        }
        let rate = hits as f64 / trials as f64;
        assert!((rate - 0.10).abs() < 0.02, "observed rate {rate}");
    }

    #[test]
    fn zero_rate_plan_never_fires() {
        let plan = FaultPlan::seeded(3);
        for epoch in 0..100 {
            for slot in 0..100 {
                assert_eq!(plan.draw(epoch, slot), None);
            }
        }
    }

    #[test]
    fn commit_draws_use_their_own_key_at_the_spurious_rate() {
        let plan = FaultPlan::seeded(17).with_spurious_abort_rate(0.10);
        let trials = 20_000u64;
        let (mut commit, mut both) = (0, 0);
        for i in 0..trials {
            let (e, s) = (i / 100, (i % 100) as usize);
            if plan.draw_commit(e, s) {
                commit += 1;
                both += usize::from(plan.draw(e, s).is_some());
            }
        }
        let rate = commit as f64 / trials as f64;
        assert!((rate - 0.10).abs() < 0.02, "observed rate {rate}");
        assert!(both < commit / 4, "the two draws are independent");
        assert_eq!(plan.fired_count(), commit);
        assert!(plan.fired().iter().all(|r| r.kind == FaultKind::AtCommit));
        assert!(
            !FaultPlan::seeded(17).draw_commit(0, 0),
            "no rate, no fault"
        );
    }

    #[test]
    fn a_pinned_commit_fault_is_never_armed_mid_task() {
        let plan = FaultPlan::seeded(5)
            .with_spurious_abort_rate(1.0)
            .at(4, 2, FaultKind::AtCommit)
            .at(4, 3, FaultKind::Panic);
        assert_eq!(plan.draw(4, 2), None);
        assert!(plan.draw_commit(4, 2));
        assert!(
            !plan.draw_commit(4, 3),
            "a pinned coordinate overrides the rate"
        );
    }

    #[test]
    fn targeted_coordinates_override_rates() {
        let plan = FaultPlan::seeded(5).at(4, 2, FaultKind::SpuriousAbort);
        let (kind, _) = plan.draw(4, 2).expect("targeted fault must fire");
        assert_eq!(kind, FaultKind::SpuriousAbort);
        assert_eq!(plan.draw(4, 3), None);
    }

    #[test]
    fn rate_kinds_partition_the_roll() {
        // With rates summing to 1 every draw fires, and both kinds
        // appear.
        let plan = FaultPlan::seeded(13)
            .with_panic_rate(0.4)
            .with_spurious_abort_rate(0.6);
        let mut seen = std::collections::HashSet::new();
        for slot in 0..200 {
            let (kind, countdown) = plan.draw(0, slot).expect("rates sum to 1");
            assert!(countdown < 4);
            seen.insert(kind);
        }
        assert!(seen.contains(&FaultKind::Panic));
        assert!(seen.contains(&FaultKind::SpuriousAbort));
    }
}
