//! Chrome trace-event export: render a paging [`Trace`] as a JSON
//! timeline loadable by Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`.
//!
//! Mapping:
//!
//! * Stalls with a known duration (hard faults, queue-full waits, retry
//!   backoff) become complete events (`ph: "X"`) spanning the wait.
//! * Prefetch lifecycles become async events correlated by span id:
//!   `"b"` at issue, an instant `"n"` at the disk read's exact arrival
//!   time, and `"e"` at the first demand touch. A span with no `"e"`
//!   was dropped, evicted, or never used — visible at a glance as an
//!   unterminated bar.
//! * Policy injections become zero-length async spans (`"b"` + `"e"` at
//!   the injection instant) under their own span id — allocated from
//!   the same counter as prefetch spans, so the two families never
//!   collide and `tracediff` can align injections across runs.
//! * Everything else becomes an instant event (`ph: "i"`).
//!
//! Timestamps are microseconds (the trace-event convention) with
//! sub-microsecond precision carried in the fraction.

use oocp_obs::Json;
use oocp_sim::time::Ns;

use crate::trace::{Trace, TraceEvent};

/// Thread ids used to group events into rows.
const TID_APP: u64 = 1; // demand path: faults and their stalls
const TID_HINT: u64 = 2; // hint path: prefetch/release decisions
const TID_OS: u64 = 3; // background: daemon, write-back, errors

fn us(ns: Ns) -> Json {
    Json::F64(ns as f64 / 1000.0)
}

fn event(name: &str, ph: &str, tid: u64, at: Ns, extra: Vec<(&'static str, Json)>) -> Json {
    let mut fields = vec![
        ("name", Json::Str(name.to_string())),
        ("ph", Json::Str(ph.to_string())),
        ("pid", Json::U64(1)),
        ("tid", Json::U64(tid)),
        ("ts", us(at)),
    ];
    fields.extend(extra);
    Json::obj(fields)
}

fn instant(name: &str, tid: u64, at: Ns, args: Json) -> Json {
    event(
        name,
        "i",
        tid,
        at,
        vec![("s", Json::Str("t".into())), ("args", args)],
    )
}

/// A complete event spanning the `dur` nanoseconds *ending* at `at`
/// (the machine stamps stall records when the wait finishes).
fn complete(name: &str, tid: u64, at: Ns, dur: Ns, args: Json) -> Json {
    event(
        name,
        "X",
        tid,
        at.saturating_sub(dur),
        vec![("dur", us(dur)), ("args", args)],
    )
}

/// An async prefetch-lifecycle event correlated by span id.
fn span_event(ph: &str, at: Ns, span: u64, args: Json) -> Json {
    event(
        "prefetch",
        ph,
        TID_HINT,
        at,
        vec![
            ("cat", Json::Str("prefetch".into())),
            ("id", Json::U64(span)),
            ("args", args),
        ],
    )
}

fn page_args(page: u64) -> Json {
    Json::obj([("page", Json::U64(page))])
}

/// Render the trace as a Chrome trace-event JSON document.
///
/// The returned string is a complete JSON object (`traceEvents` plus
/// thread-name metadata); write it to a file and open it in Perfetto.
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut events: Vec<Json> = Vec::with_capacity(trace.len() + 8);
    for (tid, name) in [
        (TID_APP, "demand faults"),
        (TID_HINT, "prefetch/release"),
        (TID_OS, "pageout & errors"),
    ] {
        events.push(Json::obj([
            ("name", Json::Str("thread_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::U64(1)),
            ("tid", Json::U64(tid)),
            ("args", Json::obj([("name", Json::Str(name.to_string()))])),
        ]));
    }
    for rec in trace.iter() {
        let at = rec.at;
        let ev = match rec.event {
            TraceEvent::HardFault { page, waited } => {
                complete("demand_fault", TID_APP, at, waited, page_args(page))
            }
            TraceEvent::SoftFault { page } => instant("soft_fault", TID_APP, at, page_args(page)),
            TraceEvent::PrefetchIssue { page, count, span } => {
                // One async begin per page of the span; ids are
                // consecutive by construction (see the event's docs).
                for k in 1..count {
                    events.push(span_event("b", at, span + k, page_args(page + k)));
                }
                span_event("b", at, span, page_args(page))
            }
            TraceEvent::PrefetchArrive {
                page,
                span,
                arrival,
            } => span_event("n", arrival, span, page_args(page)),
            TraceEvent::PrefetchConsume { page, span, late } => span_event(
                "e",
                at,
                span,
                Json::obj([("page", Json::U64(page)), ("late", Json::Bool(late))]),
            ),
            TraceEvent::PrefetchDrop { page } => {
                instant("prefetch_drop", TID_HINT, at, page_args(page))
            }
            TraceEvent::Release { page, count } => instant(
                "release",
                TID_HINT,
                at,
                Json::obj([("page", Json::U64(page)), ("count", Json::U64(count))]),
            ),
            TraceEvent::Eviction { page } => instant("eviction", TID_OS, at, page_args(page)),
            TraceEvent::Writeback { page } => instant("writeback", TID_OS, at, page_args(page)),
            TraceEvent::IoError { page, disk } => instant(
                "io_error",
                TID_OS,
                at,
                Json::obj([
                    ("page", page.map_or(Json::Null, Json::U64)),
                    ("disk", Json::U64(disk as u64)),
                ]),
            ),
            TraceEvent::IoRetry { page, wait } => {
                complete("io_retry", TID_OS, at, wait, page_args(page))
            }
            TraceEvent::HintDropOnError { page, count } => instant(
                "hint_drop_io_error",
                TID_HINT,
                at,
                Json::obj([("page", Json::U64(page)), ("count", Json::U64(count))]),
            ),
            TraceEvent::HintDropQueueFull { page, count } => instant(
                "hint_drop_queue_full",
                TID_HINT,
                at,
                Json::obj([("page", Json::U64(page)), ("count", Json::U64(count))]),
            ),
            TraceEvent::HintDropQuota { page, tenant } => instant(
                "hint_drop_quota",
                TID_HINT,
                at,
                Json::obj([
                    ("page", Json::U64(page)),
                    ("tenant", Json::U64(tenant as u64)),
                ]),
            ),
            TraceEvent::HintDropPressure { page, tenant } => instant(
                "hint_drop_pressure",
                TID_HINT,
                at,
                Json::obj([
                    ("page", Json::U64(page)),
                    ("tenant", Json::U64(tenant as u64)),
                ]),
            ),
            TraceEvent::QueueFullWait { page, disk, wait } => complete(
                "queue_full_wait",
                TID_APP,
                at,
                wait,
                Json::obj([("page", Json::U64(page)), ("disk", Json::U64(disk as u64))]),
            ),
            TraceEvent::BitvecResync { fixed } => instant(
                "bitvec_resync",
                TID_OS,
                at,
                Json::obj([("fixed", Json::U64(fixed))]),
            ),
            TraceEvent::DegradedEnter => instant("degraded_enter", TID_OS, at, Json::obj([])),
            TraceEvent::DegradedExit => instant("degraded_exit", TID_OS, at, Json::obj([])),
            TraceEvent::PolicyInject { page, count, span } => {
                // A policy injection is a first-class zero-length async
                // span in the same id family as prefetch lifecycles, so
                // tracediff aligns injections across runs instead of
                // skipping instants.
                let args = Json::obj([("page", Json::U64(page)), ("count", Json::U64(count))]);
                let fields = |args| {
                    vec![
                        ("cat", Json::Str("policy".into())),
                        ("id", Json::U64(span)),
                        ("args", args),
                    ]
                };
                events.push(event(
                    "policy_inject",
                    "b",
                    TID_HINT,
                    at,
                    fields(args.clone()),
                ));
                event("policy_inject", "e", TID_HINT, at, fields(args))
            }
        };
        events.push(ev);
    }
    let doc = Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ns".into())),
        ("dropped_records", Json::U64(trace.dropped())),
    ]);
    doc.to_string()
}

#[cfg(test)]
mod tests {
    use oocp_obs::SpanRecord;

    use super::*;

    fn sample_trace() -> Trace {
        let mut t = Trace::new(64);
        t.push(
            5_000,
            TraceEvent::PrefetchIssue {
                page: 10,
                count: 2,
                span: 1,
            },
        );
        t.push(
            9_000,
            TraceEvent::PrefetchArrive {
                page: 10,
                span: 1,
                arrival: 8_500,
            },
        );
        t.push(
            12_000,
            TraceEvent::PrefetchConsume {
                page: 10,
                span: 1,
                late: false,
            },
        );
        t.push(
            20_000,
            TraceEvent::HardFault {
                page: 3,
                waited: 6_000,
            },
        );
        t.push(
            21_000,
            TraceEvent::IoError {
                page: None,
                disk: 2,
            },
        );
        t
    }

    #[test]
    fn export_is_valid_json_with_one_event_per_record() {
        let json = chrome_trace_json(&sample_trace());
        let doc = oocp_obs::json::parse(&json).expect("export must parse");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 3 thread-name metadata + 2 begins (span 1 and 2) + arrive +
        // consume + fault + io_error.
        assert_eq!(events.len(), 3 + 2 + 1 + 1 + 1 + 1);
        assert_eq!(doc.get("dropped_records").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn prefetch_spans_correlate_by_id() {
        let json = chrome_trace_json(&sample_trace());
        let doc = oocp_obs::json::parse(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let phase_of = |ph: &str| -> Vec<u64> {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some(ph))
                .filter_map(|e| e.get("id").and_then(|i| i.as_u64()))
                .collect()
        };
        let mut begins = phase_of("b");
        begins.sort_unstable();
        assert_eq!(begins, vec![1, 2], "a 2-page span opens ids 1 and 2");
        assert_eq!(phase_of("n"), vec![1], "arrival instant on span 1");
        assert_eq!(phase_of("e"), vec![1], "consume closes span 1");
    }

    #[test]
    fn stall_events_span_the_wait() {
        let json = chrome_trace_json(&sample_trace());
        let doc = oocp_obs::json::parse(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let fault = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("demand_fault"))
            .unwrap();
        // Stamped at 20 us after a 6 us wait: the X event starts at 14.
        assert_eq!(fault.get("ts").unwrap().as_f64(), Some(14.0));
        assert_eq!(fault.get("dur").unwrap().as_f64(), Some(6.0));
    }

    #[test]
    fn arrival_uses_the_true_completion_time() {
        let json = chrome_trace_json(&sample_trace());
        let doc = oocp_obs::json::parse(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let arrive = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("n"))
            .unwrap();
        // Observed (settled) at 9 us, but the read completed at 8.5 us.
        assert_eq!(arrive.get("ts").unwrap().as_f64(), Some(8.5));
    }

    #[test]
    fn pageless_io_error_exports_null_page() {
        let json = chrome_trace_json(&sample_trace());
        assert!(json.contains("\"page\":null"));
    }

    #[test]
    fn policy_inject_exports_as_span_pair_and_aligns() {
        let mut t = Trace::new(64);
        t.push(
            1_000,
            TraceEvent::PrefetchIssue {
                page: 5,
                count: 1,
                span: 1,
            },
        );
        t.push(
            2_000,
            TraceEvent::PolicyInject {
                page: 40,
                count: 8,
                span: 2,
            },
        );
        let doc = oocp_obs::json::parse(&chrome_trace_json(&t)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let inj: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("policy_inject"))
            .collect();
        assert_eq!(inj.len(), 2, "one begin + one end, no instant");
        for e in &inj {
            assert_eq!(e.get("id").and_then(|i| i.as_u64()), Some(2));
            assert_eq!(e.get("ts").unwrap().as_f64(), Some(2.0));
        }
        let phases: Vec<&str> = inj
            .iter()
            .filter_map(|e| e.get("ph").and_then(|p| p.as_str()))
            .collect();
        assert_eq!(phases, ["b", "e"]);
        // The tracediff consumer aligns the injection as a span of its
        // own, opened and closed at the instant and never late, with no
        // id collision against the prefetch lifecycle span.
        let spans = oocp_obs::tracediff::index_spans(&doc).unwrap();
        let want = [
            SpanRecord {
                id: 1,
                page: Some(5),
                begin: Some(1.0),
                ..SpanRecord::default()
            },
            SpanRecord {
                id: 2,
                page: Some(40),
                begin: Some(2.0),
                end: Some(2.0),
                ..SpanRecord::default()
            },
        ];
        assert_eq!(spans, want);
    }

    #[test]
    fn exported_spans_match_in_process_alignment() {
        // The tracediff consumer (`oocp_obs::tracediff::index_spans`)
        // reconstructs from the exported JSON the lifecycles the trace
        // recorded: a 2-page issue opens two spans, the first arrives at
        // the read's true completion time and is consumed on time, the
        // second is never used.
        let doc = oocp_obs::json::parse(&chrome_trace_json(&sample_trace())).unwrap();
        let spans = oocp_obs::tracediff::index_spans(&doc).unwrap();
        let want = [
            SpanRecord {
                id: 1,
                page: Some(10),
                begin: Some(5.0),
                arrive: Some(8.5),
                end: Some(12.0),
                late: Some(false),
            },
            SpanRecord {
                id: 2,
                page: Some(11),
                begin: Some(5.0),
                ..SpanRecord::default()
            },
        ];
        assert_eq!(spans, want);
    }
}
