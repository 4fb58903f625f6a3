//! Seeded violation: a Condvar wait that is not wrapped in a predicate
//! loop — a spurious wakeup or a missed-before-sleep notification
//! silently breaks the rendezvous. Exactly one finding (the
//! `bare-condvar-wait` lint rule).

use crate::recover;

pub fn await_once(shared: &Shared) {
    let st = recover(shared.state.lock());
    // VIOLATION: no `while !pred` loop around the wait.
    let _st = recover(shared.done_cv.wait(st));
}
