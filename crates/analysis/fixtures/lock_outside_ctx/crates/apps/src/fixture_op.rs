//! Seeded violation: the operator acquires a lock directly on the
//! lock space instead of through its `TaskCtx`, defeating the
//! runtime's conflict detection. Exactly one finding.

use optpar_runtime::{Abort, Operator, TaskCtx};

pub struct RawLockOp {
    state: StateTable,
    space: LockSpaceHandle,
}

impl Operator for RawLockOp {
    type Task = u32;

    fn execute(&self, &v: &u32, cx: &mut TaskCtx<'_>) -> Result<Vec<u32>, Abort> {
        cx.lock(&self.state, v as usize)?;
        // VIOLATION: raw acquire outside the TaskCtx.
        self.space.lock_raw(v as usize);
        Ok(vec![])
    }
}
