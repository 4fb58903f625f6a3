//! Offline trace summarizer behind `cargo run -p xtask -- report
//! <file>`.
//!
//! The summarizer consumes the canonical event JSONL
//! ([`crate::export::events_jsonl`]) and prints a human-oriented
//! digest: events per kind and track, rounds, and the task totals the
//! rounds' `RoundEnd` events carry. The dump is one flat record per
//! line, so parsing is line-oriented string scanning; there is no
//! JSON parser in the workspace and none is needed for a format we
//! ourselves produce.

use std::collections::BTreeMap;

/// Pull the raw value text following `"key":` on `line`, up to the
/// next `,` or `}`. Event lines are flat records: no value nests.
fn field_raw<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    field_raw(line, key).map(|v| v.trim_matches('"'))
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    field_raw(line, key)?.parse().ok()
}

/// Summarize a canonical event JSONL. Returns the digest, or an
/// error for content with no event lines (a Chrome trace included).
pub fn summarize(content: &str) -> Result<String, String> {
    if !content.lines().any(|l| l.contains("\"kind\"")) {
        return Err(
            "unrecognized input: expected the canonical event JSONL (\"kind\" lines), \
             e.g. target/obs/events.jsonl"
                .to_string(),
        );
    }
    let mut by_kind: BTreeMap<String, u64> = BTreeMap::new();
    let mut tracks: BTreeMap<u64, u64> = BTreeMap::new();
    let mut rounds = 0u64;
    let mut launched = 0u64;
    let mut committed = 0u64;
    let mut aborted = 0u64;
    let mut faulted = 0u64;
    for line in content.lines() {
        let Some(kind) = field_str(line, "kind") else {
            continue;
        };
        *by_kind.entry(kind.to_string()).or_insert(0) += 1;
        if let Some(track) = field_u64(line, "track") {
            *tracks.entry(track).or_insert(0) += 1;
        }
        if kind == "round_end" {
            rounds += 1;
            launched += field_u64(line, "launched").unwrap_or(0);
            committed += field_u64(line, "committed").unwrap_or(0);
            aborted += field_u64(line, "aborted").unwrap_or(0);
            faulted += field_u64(line, "faulted").unwrap_or(0);
        }
    }
    let mut out = format!(
        "event stream: {} event(s) on {} track(s), {rounds} round(s)\n",
        by_kind.values().sum::<u64>(),
        tracks.len()
    );
    if launched > 0 {
        out.push_str(&format!(
            "  totals: launched {launched}, committed {committed}, aborted {aborted}, \
             faulted {faulted} (conflict ratio {:.3})\n",
            aborted as f64 / launched as f64
        ));
    }
    for (kind, n) in &by_kind {
        out.push_str(&format!("  {kind}: {n}\n"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind, RoundTotals, TracedEvent, CTL_TRACK};
    use crate::export;
    use crate::recorder::EventLog;

    fn sample_log() -> EventLog {
        let mk = |track, tick, kind| TracedEvent {
            track,
            event: Event { tick, kind },
        };
        EventLog {
            events: vec![
                mk(CTL_TRACK, 0, EventKind::RoundBegin { epoch: 0, m: 1 }),
                mk(0, 0, EventKind::TaskLaunch { slot: 0, epoch: 0 }),
                mk(
                    0,
                    1,
                    EventKind::TaskCommit {
                        slot: 0,
                        acquires: 0,
                        spawned: 0,
                    },
                ),
                mk(
                    CTL_TRACK,
                    1,
                    EventKind::RoundEnd {
                        epoch: 0,
                        m: 1,
                        totals: RoundTotals {
                            launched: 1,
                            committed: 1,
                            ..RoundTotals::default()
                        },
                    },
                ),
            ],
        }
    }

    #[test]
    fn summarizes_the_event_stream() {
        let ev = summarize(&export::events_jsonl(&sample_log())).expect("events");
        assert!(ev.contains("1 round(s)"), "{ev}");
        assert!(
            ev.contains("totals: launched 1, committed 1, aborted 0, faulted 0"),
            "{ev}"
        );
        assert!(ev.contains("task_commit: 1"), "{ev}");
    }

    #[test]
    fn rejects_unknown_content() {
        assert!(summarize("hello world").is_err());
        assert!(summarize(&export::chrome_trace(&sample_log())).is_err());
    }

    #[test]
    fn field_extraction_reads_a_flat_event_line() {
        let jsonl = export::events_jsonl(&sample_log());
        let line = jsonl
            .lines()
            .find(|l| l.contains("round_end"))
            .expect("a round_end line");
        assert_eq!(field_str(line, "kind"), Some("round_end"));
        assert_eq!(field_u64(line, "track"), Some(u64::from(CTL_TRACK)));
        assert_eq!(field_u64(line, "launched"), Some(1));
        assert_eq!(field_u64(line, "committed"), Some(1));
        assert_eq!(field_u64(line, "aborted"), Some(0));
        assert_eq!(field_raw(line, "slot"), None);
        // The last field ends at the record's closing brace.
        assert_eq!(field_u64("{\"a\":1,\"b\":3}", "b"), Some(3));
    }
}
