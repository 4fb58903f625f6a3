//! Exporters: Chrome trace-event JSON (Perfetto-loadable) and the
//! canonical JSONL event dump.
//!
//! Both are hand-emitted — the workspace carries no serde — and
//! written one record per line. The event dump is the canonical
//! format: the `xtask report` summarizer parses it with line-oriented
//! string scanning, and it uses IEEE-754 bit patterns for floats and
//! logical ticks for time, so it is byte-deterministic for
//! deterministic runs. The Chrome trace decodes floats for human
//! consumption and is the lossy, pretty view.

use crate::event::{EventKind, CTL_TRACK};
use crate::recorder::EventLog;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The `tid` used for the controller track in the Chrome trace
/// (`CTL_TRACK` itself is `u32::MAX`, which trace viewers render
/// poorly).
const CTL_TID: u32 = 1_000_000;

fn tid_of(track: u32) -> u32 {
    if track == CTL_TRACK {
        CTL_TID
    } else {
        track
    }
}

/// Format an `f64` for JSON: finite values via shortest round-trip
/// `Display`, non-finite values as `null` (JSON has no NaN/Inf).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Render a drained log as Chrome trace-event JSON: one track per
/// worker, one controller track carrying round spans, `m(t)` /
/// `r̄(t)` counter series, and epoch instants. Load the output
/// in Perfetto (`ui.perfetto.dev`) or `chrome://tracing`.
///
/// Timestamps are logical ticks (per-track), not wall time: tracks
/// are individually ordered but not mutually aligned.
pub fn chrome_trace(log: &EventLog) -> String {
    let mut lines: Vec<String> = Vec::new();
    // Thread-name metadata for every track that appears.
    let mut tracks: Vec<u32> = log.events.iter().map(|e| e.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    for t in &tracks {
        let name = if *t == CTL_TRACK {
            "controller".to_string()
        } else {
            format!("worker {t}")
        };
        lines.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\"args\":{{\"name\":\"{name}\"}}}}",
            tid_of(*t)
        ));
    }
    // (track, slot) -> launch tick, to emit complete ("X") task spans.
    let mut launched_at: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    // Round spans pair RoundBegin ticks with RoundEnd ticks.
    let mut round_open: Option<(u64, u64, u64)> = None; // (tick, epoch, m)
    for te in &log.events {
        let tid = tid_of(te.track);
        let ts = te.event.tick;
        match te.event.kind {
            EventKind::RoundBegin { epoch, m } => {
                round_open = Some((ts, epoch, m));
            }
            EventKind::RoundEnd { totals, .. } => {
                if let Some((t0, epoch, m)) = round_open.take() {
                    lines.push(format!(
                        "{{\"name\":\"round e{epoch}\",\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{t0},\"dur\":{},\"args\":{{\"m\":{m},\"launched\":{},\"committed\":{},\"aborted\":{},\"faulted\":{}}}}}",
                        ts.saturating_sub(t0).max(1),
                        totals.launched,
                        totals.committed,
                        totals.aborted,
                        totals.faulted,
                    ));
                }
            }
            EventKind::RetryAged { slot, retries } => {
                lines.push(format!(
                    "{{\"name\":\"retry_aged\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"args\":{{\"slot\":{slot},\"retries\":{retries}}}}}"
                ));
            }
            EventKind::TaskLaunch { slot, .. } => {
                launched_at.insert((te.track, slot), ts);
            }
            EventKind::TaskCommit {
                slot,
                acquires,
                spawned,
            } => {
                if let Some(t0) = launched_at.remove(&(te.track, slot)) {
                    lines.push(format!(
                        "{{\"name\":\"task {slot} commit\",\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{t0},\"dur\":{},\"args\":{{\"acquires\":{acquires},\"spawned\":{spawned}}}}}",
                        ts.saturating_sub(t0).max(1)
                    ));
                }
            }
            EventKind::TaskAbort { slot, acquires } => {
                if let Some(t0) = launched_at.remove(&(te.track, slot)) {
                    lines.push(format!(
                        "{{\"name\":\"task {slot} abort\",\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{t0},\"dur\":{},\"args\":{{\"acquires\":{acquires}}}}}",
                        ts.saturating_sub(t0).max(1)
                    ));
                }
            }
            EventKind::TaskFault {
                slot,
                acquires,
                cause,
            } => {
                if let Some(t0) = launched_at.remove(&(te.track, slot)) {
                    lines.push(format!(
                        "{{\"name\":\"task {slot} fault\",\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{t0},\"dur\":{},\"args\":{{\"acquires\":{acquires},\"cause\":{cause}}}}}",
                        ts.saturating_sub(t0).max(1)
                    ));
                }
            }
            EventKind::LockContend { lock, slot, holder } => {
                lines.push(format!(
                    "{{\"name\":\"lock {lock} contend\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"args\":{{\"slot\":{slot},\"holder\":{holder}}}}}"
                ));
            }
            EventKind::EpochBump { old, new } => {
                lines.push(format!(
                    "{{\"name\":\"epoch {old}->{new}\",\"ph\":\"i\",\"s\":\"g\",\"pid\":0,\"tid\":{tid},\"ts\":{ts}}}"
                ));
            }
            EventKind::Controller {
                m,
                r_bits,
                rho_bits,
            } => {
                lines.push(format!(
                    "{{\"name\":\"m\",\"ph\":\"C\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"args\":{{\"m\":{m}}}}}"
                ));
                let r = f64::from_bits(r_bits);
                let rho = f64::from_bits(rho_bits);
                if r.is_finite() {
                    let mut args = format!("{{\"r\":{}", json_f64(r));
                    if rho.is_finite() {
                        let _ = write!(args, ",\"rho\":{}", json_f64(rho));
                    }
                    args.push('}');
                    lines.push(format!(
                        "{{\"name\":\"conflict_ratio\",\"ph\":\"C\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"args\":{args}}}"
                    ));
                }
            }
            EventKind::WindowAdvance {
                completions,
                inflight,
                target,
            } => {
                lines.push(format!(
                    "{{\"name\":\"inflight\",\"ph\":\"C\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"args\":{{\"inflight\":{inflight},\"target\":{target}}}}}"
                ));
                lines.push(format!(
                    "{{\"name\":\"window {completions}\",\"ph\":\"i\",\"s\":\"g\",\"pid\":0,\"tid\":{tid},\"ts\":{ts}}}"
                ));
            }
            EventKind::BatchRetire { worker, tag, tasks } => {
                lines.push(format!(
                    "{{\"name\":\"batch retire\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"args\":{{\"worker\":{worker},\"tag\":{tag},\"tasks\":{tasks}}}}}"
                ));
            }
            EventKind::JobAdmit { job, priority } => {
                lines.push(format!(
                    "{{\"name\":\"job {job} admit\",\"ph\":\"i\",\"s\":\"g\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"args\":{{\"priority\":{priority}}}}}"
                ));
            }
            EventKind::JobReject { job, code } => {
                lines.push(format!(
                    "{{\"name\":\"job {job} reject\",\"ph\":\"i\",\"s\":\"g\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"args\":{{\"code\":{code}}}}}"
                ));
            }
            EventKind::JobDeadline { job } => {
                lines.push(format!(
                    "{{\"name\":\"job {job} deadline\",\"ph\":\"i\",\"s\":\"g\",\"pid\":0,\"tid\":{tid},\"ts\":{ts}}}"
                ));
            }
            EventKind::JobCancel { job } => {
                lines.push(format!(
                    "{{\"name\":\"job {job} cancel\",\"ph\":\"i\",\"s\":\"g\",\"pid\":0,\"tid\":{tid},\"ts\":{ts}}}"
                ));
            }
        }
    }
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&lines.join(",\n"));
    out.push_str("\n]}\n");
    out
}

/// Render the raw event stream as canonical JSONL: one event per
/// line, floats as bit patterns, time as logical ticks. Two
/// deterministic runs produce byte-identical output — this is the
/// format the determinism regression test compares.
pub fn events_jsonl(log: &EventLog) -> String {
    let mut out = String::new();
    for te in &log.events {
        let _ = write!(
            out,
            "{{\"track\":{},\"tick\":{},\"kind\":\"{}\"",
            te.track,
            te.event.tick,
            te.event.kind.label()
        );
        match te.event.kind {
            EventKind::RoundBegin { epoch, m } => {
                let _ = write!(out, ",\"epoch\":{epoch},\"m\":{m}");
            }
            EventKind::RoundEnd { epoch, m, totals } => {
                let _ = write!(
                    out,
                    ",\"epoch\":{epoch},\"m\":{m},\"launched\":{},\"committed\":{},\"aborted\":{},\"faulted\":{},\"spawned\":{}",
                    totals.launched,
                    totals.committed,
                    totals.aborted,
                    totals.faulted,
                    totals.spawned
                );
            }
            EventKind::RetryAged { slot, retries } => {
                let _ = write!(out, ",\"slot\":{slot},\"retries\":{retries}");
            }
            EventKind::TaskLaunch { slot, epoch } => {
                let _ = write!(out, ",\"slot\":{slot},\"epoch\":{epoch}");
            }
            EventKind::TaskCommit {
                slot,
                acquires,
                spawned,
            } => {
                let _ = write!(
                    out,
                    ",\"slot\":{slot},\"acquires\":{acquires},\"spawned\":{spawned}"
                );
            }
            EventKind::TaskAbort { slot, acquires } => {
                let _ = write!(out, ",\"slot\":{slot},\"acquires\":{acquires}");
            }
            EventKind::TaskFault {
                slot,
                acquires,
                cause,
            } => {
                let _ = write!(
                    out,
                    ",\"slot\":{slot},\"acquires\":{acquires},\"cause\":{cause}"
                );
            }
            EventKind::LockContend { lock, slot, holder } => {
                let _ = write!(out, ",\"lock\":{lock},\"slot\":{slot},\"holder\":{holder}");
            }
            EventKind::EpochBump { old, new } => {
                let _ = write!(out, ",\"old\":{old},\"new\":{new}");
            }
            EventKind::Controller {
                m,
                r_bits,
                rho_bits,
            } => {
                let _ = write!(
                    out,
                    ",\"m\":{m},\"r_bits\":{r_bits},\"rho_bits\":{rho_bits}"
                );
            }
            EventKind::WindowAdvance {
                completions,
                inflight,
                target,
            } => {
                let _ = write!(
                    out,
                    ",\"completions\":{completions},\"inflight\":{inflight},\"target\":{target}"
                );
            }
            EventKind::BatchRetire { worker, tag, tasks } => {
                let _ = write!(out, ",\"worker\":{worker},\"tag\":{tag},\"tasks\":{tasks}");
            }
            EventKind::JobAdmit { job, priority } => {
                let _ = write!(out, ",\"job\":{job},\"priority\":{priority}");
            }
            EventKind::JobReject { job, code } => {
                let _ = write!(out, ",\"job\":{job},\"code\":{code}");
            }
            EventKind::JobDeadline { job } | EventKind::JobCancel { job } => {
                let _ = write!(out, ",\"job\":{job}");
            }
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, RoundTotals, TracedEvent};

    fn sample_log() -> EventLog {
        let mk = |track, tick, kind| TracedEvent {
            track,
            event: Event { tick, kind },
        };
        EventLog {
            events: vec![
                mk(CTL_TRACK, 0, EventKind::RoundBegin { epoch: 0, m: 2 }),
                mk(0, 0, EventKind::TaskLaunch { slot: 0, epoch: 0 }),
                mk(
                    0,
                    1,
                    EventKind::LockContend {
                        lock: 7,
                        slot: 0,
                        holder: 1,
                    },
                ),
                mk(
                    0,
                    2,
                    EventKind::TaskCommit {
                        slot: 0,
                        acquires: 1,
                        spawned: 0,
                    },
                ),
                mk(
                    CTL_TRACK,
                    1,
                    EventKind::RoundEnd {
                        epoch: 0,
                        m: 2,
                        totals: RoundTotals {
                            launched: 1,
                            committed: 1,
                            ..RoundTotals::default()
                        },
                    },
                ),
                mk(CTL_TRACK, 2, EventKind::EpochBump { old: 0, new: 1 }),
                mk(
                    CTL_TRACK,
                    3,
                    EventKind::Controller {
                        m: 2,
                        r_bits: 0.0f64.to_bits(),
                        rho_bits: 0.25f64.to_bits(),
                    },
                ),
            ],
        }
    }

    #[test]
    fn chrome_trace_is_wellformed_and_named() {
        let json = chrome_trace(&sample_log());
        assert!(json.starts_with("{\"traceEvents\":[\n"));
        assert!(json.trim_end().ends_with("]}"));
        assert!(json.contains("\"name\":\"thread_name\""));
        assert!(json.contains("\"name\":\"controller\""));
        assert!(json.contains("\"name\":\"worker 0\""));
        assert!(json.contains("\"name\":\"task 0 commit\""));
        assert!(json.contains("\"name\":\"conflict_ratio\""));
        assert!(json.contains("\"rho\":0.25"));
        // Braces balance (cheap well-formedness proxy without a JSON
        // parser in the workspace).
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn nan_rho_never_reaches_the_chrome_trace() {
        let mut log = sample_log();
        log.events.push(TracedEvent {
            track: CTL_TRACK,
            event: Event {
                tick: 4,
                kind: EventKind::Controller {
                    m: 2,
                    r_bits: 0.5f64.to_bits(),
                    rho_bits: f64::NAN.to_bits(),
                },
            },
        });
        let json = chrome_trace(&log);
        assert!(!json.contains("NaN"));
        assert!(json.contains("\"r\":0.5"));
    }

    #[test]
    fn events_jsonl_is_line_per_event_and_deterministic() {
        let log = sample_log();
        let a = events_jsonl(&log);
        let b = events_jsonl(&log);
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), log.events.len());
        assert!(a.contains("\"kind\":\"lock_contend\""));
        assert!(a.contains("\"rho_bits\":"));
    }
}
