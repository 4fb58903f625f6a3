//! Round-structured observability for the speculative runtime.
//!
//! The design follows the shape of the executor itself (DESIGN.md §13):
//! each recording loop — a step, a lane — owns an event buffer
//! ([`EventRing`]) into which the hot path records typed
//! [`EventKind`]s: a push onto a growable buffer, no lock, no atomic,
//! no syscall. The owner hands the buffer to the [`Recorder`] only
//! where the executor already serializes — the step barrier, and a
//! lane's batch retire under the books lock — and the recorder
//! appends it to one ordered [`EventLog`] next to the controller-track
//! events (round begin/end, `m(t)`, `r̄(t)`, epoch bumps).
//!
//! Everything downstream is offline: [`export::chrome_trace`] emits
//! a Perfetto-loadable trace with one track per worker plus a
//! controller track, [`export::events_jsonl`] the canonical event
//! stream that [`report::summarize`] digests, and
//! [`validate::validate`] recomputes the per-round accounting from
//! raw events and cross-checks it against the executor's own
//! `RoundStats` — a second, independent witness of what each round
//! actually did.
//!
//! Timestamps are *logical ticks*: the recorder keeps one monotone
//! counter per track and stamps events as it appends them. Ticks keep
//! the event stream byte-deterministic at `workers == 1`; the crate
//! reads no clock.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod event;
mod recorder;
mod ring;

pub mod export;
pub mod report;
pub mod validate;

pub use event::{Event, EventKind, RoundTotals, TracedEvent, CTL_TRACK};
pub use recorder::{EventLog, Recorder};
pub use ring::EventRing;
pub use validate::{RoundCheck, ValidationReport};
