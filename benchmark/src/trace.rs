//! Chrome trace (`chrome://tracing`, Perfetto) export of the recorded spans.
//!
//! Spans stay in memory while the benchmark runs and are written once, at
//! exit. Row 0 holds the set-up phases and the `op` spans; row `1 + r` holds
//! rank `r`'s `submit` and `inflight` spans. A child names its parent by the
//! shared `args.op` identifier.

use crate::driver::{OpSpan, SpanKind};
use crate::json::Json;
use crate::workload::SetupSpan;

fn event(name: String, tid: usize, start_ns: u64, end_ns: u64, args: Json) -> Json {
    Json::obj([
        ("name", Json::Str(name)),
        ("ph", Json::str("X")),
        ("pid", Json::Int(1)),
        ("tid", Json::Int(tid as u64)),
        ("ts", Json::Num(start_ns as f64 / 1e3)),
        (
            "dur",
            Json::Num(end_ns.saturating_sub(start_ns) as f64 / 1e3),
        ),
        ("args", args),
    ])
}

/// The trace document for one workload.
pub fn chrome_trace(workload: &str, setup: &[SetupSpan], ops: &[OpSpan]) -> Json {
    let mut events = Vec::with_capacity(setup.len() + ops.len());
    for &(name, start, end) in setup {
        events.push(event(
            name.to_string(),
            0,
            start,
            end,
            Json::obj([("workload", Json::str(workload))]),
        ));
    }
    for span in ops {
        let (name, tid, parent) = match span.kind {
            SpanKind::Op => ("op".to_string(), 0, None),
            SpanKind::Submit => (format!("submit[{}]", span.rank), 1 + span.rank, Some("op")),
            SpanKind::Inflight => (
                format!("inflight[{}]", span.rank),
                1 + span.rank,
                Some("op"),
            ),
        };
        let mut args = vec![("op".to_string(), Json::Int(span.op))];
        if let Some(parent) = parent {
            args.push(("parent".to_string(), Json::str(parent)));
        }
        events.push(event(
            name,
            tid,
            span.start_ns,
            span.end_ns,
            Json::Obj(args),
        ));
    }
    Json::obj([
        ("displayTimeUnit", Json::str("ns")),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_carry_their_op_identifier() {
        let ops = [
            OpSpan {
                kind: SpanKind::Op,
                op: 9,
                rank: 0,
                start_ns: 1000,
                end_ns: 5000,
            },
            OpSpan {
                kind: SpanKind::Submit,
                op: 9,
                rank: 2,
                start_ns: 1000,
                end_ns: 1500,
            },
            OpSpan {
                kind: SpanKind::Inflight,
                op: 9,
                rank: 2,
                start_ns: 1500,
                end_ns: 5000,
            },
        ];
        let doc = chrome_trace("w", &[("setup.domain", 0, 500)], &ops).render();
        assert!(doc.contains(r#""name":"setup.domain","ph":"X","pid":1,"tid":0,"ts":0,"dur":0.5"#));
        assert!(
            doc.contains(r#""name":"op","ph":"X","pid":1,"tid":0,"ts":1,"dur":4,"args":{"op":9}"#)
        );
        assert!(doc.contains(r#""name":"submit[2]","ph":"X","pid":1,"tid":3,"ts":1,"dur":0.5,"args":{"op":9,"parent":"op"}"#));
        assert!(doc.contains(r#""name":"inflight[2]""#));
    }
}
