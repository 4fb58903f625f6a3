//! Test-only watchdog: a test whose wait loop could hang runs its body
//! under [`within`], so a hang becomes a named failure (DESIGN.md §17).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Long enough for fresh or just-released threads to park on their
/// condvar, so the test reaches the wake-up it means to check
/// (parking is not observable without instrumenting the runtime).
pub(crate) const SETTLE: Duration = Duration::from_millis(20);

/// The `within` bound of the wrapped tests: they take 4–43 ms.
pub(crate) const BOUND: Duration = Duration::from_secs(10);

/// Run `body` on a thread and fail by `name` if it has not returned
/// within `bound`. A broken wait loop hangs instead of failing;
/// this makes the hang a named failure. The thread is detached, as a
/// hung body cannot be joined. A panic in `body` is re-raised here.
pub(crate) fn within(bound: Duration, name: &str, body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    #[expect(clippy::disallowed_methods, reason = "test watchdog")]
    std::thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(body)));
    });
    match rx.recv_timeout(bound) {
        Ok(Ok(())) => {}
        Ok(Err(payload)) => std::panic::resume_unwind(payload),
        Err(_) => panic!("{name} did not return within {bound:?}: a wait loop hangs"),
    }
}
