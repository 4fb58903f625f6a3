//! Demonstrates the blind spot that motivates the static
//! footprint-escape analysis (`crates/analysis`).
//!
//! The dynamic checker audits only what flows through [`TaskCtx`]: lock
//! acquisitions and covered/uncovered accesses recorded by the runtime
//! itself. An operator that smuggles interior-mutable state into
//! `execute` and writes it *raw* — here an `AtomicU64` scratch counter
//! bumped with `fetch_add`, never declared via `cx.read`/`cx.write` —
//! produces no trace event at all, so the lockset audit of a fully
//! armed round comes back clean even though the write is outside the
//! speculation protocol (it is not rolled back on abort, and commits
//! of different tasks are not serialized against it).
//!
//! The same shape of bug *is* caught statically: see
//! `crates/analysis/fixtures/footprint_escape/`, whose seeded operator
//! performs exactly one undeclared write through a helper and trips
//! the `footprint-escape` rule of `cargo run -p xtask -- analyze`.
#![cfg(feature = "checker")]

use optpar_runtime::checker::CheckerMode;
use optpar_runtime::{
    Abort, Executor, ExecutorConfig, LockSpace, Operator, SpecStore, TaskCtx, WorkSet,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};

const N: usize = 16;

/// A ring operator with a leak: alongside its honest, ctx-mediated
/// increments it bumps a shared atomic scratch counter directly,
/// without declaring the access to the runtime.
struct LeakyOp<'s> {
    store: &'s SpecStore<i64>,
    scratch: &'s AtomicU64,
}

impl Operator for LeakyOp<'_> {
    type Task = usize;

    fn execute(&self, &i: &usize, cx: &mut TaskCtx<'_>) -> Result<Vec<usize>, Abort> {
        // The undeclared-footprint write: invisible to the tracer, and
        // performed before the declared accesses so it happens even on
        // attempts that later abort — raw writes are not rolled back.
        self.scratch.fetch_add(1, Ordering::SeqCst);
        let j = (i + 1) % N;
        *cx.write(self.store, i)? += 1;
        *cx.write(self.store, j)? -= 1;
        Ok(vec![])
    }
}

/// Runs contended rounds with the audit sink armed in Collect mode and
/// asserts the dynamic analyses report *nothing* — the undeclared
/// write is outside their observational horizon.
#[test]
fn dynamic_checker_is_blind_to_undeclared_footprint_writes() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut b = LockSpace::builder();
    let r = b.region(N);
    let space = b.build();
    space.audit().set_mode(CheckerMode::Collect);

    let store = SpecStore::filled(r, N, 0i64);
    let scratch = AtomicU64::new(0);
    let op = LeakyOp {
        store: &store,
        scratch: &scratch,
    };
    let ex = Executor::new(
        &op,
        &space,
        ExecutorConfig {
            workers: 4,
            ..ExecutorConfig::default()
        },
    );

    let mut ws = WorkSet::from_vec((0..N).collect::<Vec<_>>());
    let mut committed = 0;
    let mut launched = 0;
    while !ws.is_empty() {
        let rs = ex.run_round(&mut ws, N / 2, &mut rng);
        committed += rs.committed;
        launched += rs.launched;
    }
    assert_eq!(committed, N);

    // The raw counter shows the leak happened — once per *launch*
    // (aborted attempts are not rolled back), not once per commit.
    assert_eq!(scratch.load(Ordering::SeqCst), launched as u64);
    assert!(launched >= committed);

    // And yet every armed round audited clean: no uncovered access, no
    // race, nothing. This is precisely the gap the static
    // footprint-escape analysis closes.
    let reports = space.audit().take_reports();
    assert_eq!(
        reports,
        vec![],
        "dynamic audit should not see the raw atomic write"
    );
}
