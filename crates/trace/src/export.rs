//! Exporters: Chrome trace-event JSON (loadable in Perfetto /
//! `chrome://tracing`) and per-stage latency summaries.

use crate::span::Span;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One process row in a Chrome trace: a scenario (e.g. "offload" vs
/// "baseline") with its tracks of spans.
pub struct TraceProcess {
    /// Chrome `pid`; keep distinct per scenario.
    pub pid: u32,
    /// Process display name.
    pub name: String,
    /// `(track_name, spans)` — one Chrome `tid` per track, numbered in
    /// order.
    pub tracks: Vec<(String, Vec<Span>)>,
}

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Renders processes as a Chrome trace-event JSON document
/// (`{"traceEvents": [...]}` with `"X"` complete events and `"M"`
/// name metadata). Timestamps are microseconds, as the format requires.
pub fn chrome_trace_json(processes: &[TraceProcess]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut emit = |s: &str, out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.push_str(s);
    };
    for proc in processes {
        let mut ev = String::new();
        let _ = write!(
            ev,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"",
            proc.pid
        );
        escape_json(&proc.name, &mut ev);
        ev.push_str("\"}}");
        emit(&ev, &mut out);
        for (tid0, (track, spans)) in proc.tracks.iter().enumerate() {
            let tid = tid0 as u32 + 1;
            let mut ev = String::new();
            let _ = write!(
                ev,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{tid},\"args\":{{\"name\":\"",
                proc.pid
            );
            escape_json(track, &mut ev);
            ev.push_str("\"}}");
            emit(&ev, &mut out);
            for span in spans {
                let ts_us = span.start_ns as f64 / 1000.0;
                let dur_us = span.duration_ns() as f64 / 1000.0;
                let mut ev = String::new();
                let _ = write!(
                    ev,
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{ts_us:.3},\"dur\":{dur_us:.3},\
                     \"pid\":{},\"tid\":{tid},\"args\":{{\"trace_id\":{},\"bytes\":{}}}}}",
                    span.stage, proc.pid, span.trace_id, span.bytes
                );
                emit(&ev, &mut out);
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Aggregate statistics for one stage across sampled spans.
#[derive(Clone, Debug)]
pub struct StageStats {
    /// Stage name.
    pub stage: &'static str,
    /// Sampled span count.
    pub count: u64,
    /// Mean duration, ns.
    pub mean_ns: f64,
    /// Median duration, ns.
    pub p50_ns: u64,
    /// 99th-percentile duration, ns.
    pub p99_ns: u64,
    /// Total bytes across spans.
    pub bytes: u64,
}

/// Aggregates spans per stage, ordered by the canonical stage order
/// (unknown stages last, alphabetically).
pub fn stage_stats(spans: &[Span]) -> Vec<StageStats> {
    let mut by_stage: BTreeMap<&'static str, (Vec<u64>, u64)> = BTreeMap::new();
    for s in spans {
        let e = by_stage.entry(s.stage).or_default();
        e.0.push(s.duration_ns());
        e.1 += s.bytes;
    }
    let order = |stage: &str| {
        crate::span::stages::ALL
            .iter()
            .position(|s| *s == stage)
            .unwrap_or(usize::MAX)
    };
    let mut stats: Vec<StageStats> = by_stage
        .into_iter()
        .map(|(stage, (mut durs, bytes))| {
            durs.sort_unstable();
            let count = durs.len() as u64;
            let sum: u64 = durs.iter().sum();
            // Nearest-rank percentile: ceil(q*n) - 1.
            let pct = |q: f64| durs[((q * durs.len() as f64).ceil() as usize).max(1) - 1];
            StageStats {
                stage,
                count,
                mean_ns: sum as f64 / count as f64,
                p50_ns: pct(0.50),
                p99_ns: pct(0.99),
                bytes,
            }
        })
        .collect();
    stats.sort_by_key(|s| (order(s.stage), s.stage));
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::stages;

    fn spans() -> Vec<Span> {
        vec![
            Span {
                trace_id: 7,
                stage: stages::TERMINATE,
                start_ns: 1000,
                end_ns: 2000,
                bytes: 128,
            },
            Span {
                trace_id: 7,
                stage: stages::DESERIALIZE,
                start_ns: 2000,
                end_ns: 4500,
                bytes: 128,
            },
            Span {
                trace_id: 9,
                stage: stages::DESERIALIZE,
                start_ns: 3000,
                end_ns: 3500,
                bytes: 64,
            },
        ]
    }

    #[test]
    fn chrome_json_shape() {
        let json = chrome_trace_json(&[TraceProcess {
            pid: 0,
            name: "offload".into(),
            tracks: vec![("dpu\"client".into(), spans())],
        }]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"name\":\"terminate\""));
        assert!(json.contains("dpu\\\"client")); // name was escaped
        assert!(json.contains("\"ts\":1.000"));
        assert!(json.contains("\"dur\":2.500"));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn stage_stats_aggregate_in_datapath_order() {
        let stats = stage_stats(&spans());
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].stage, stages::TERMINATE);
        assert_eq!(stats[1].stage, stages::DESERIALIZE);
        assert_eq!(stats[1].count, 2);
        assert_eq!(stats[1].bytes, 192);
        assert_eq!(stats[1].p50_ns, 500);
        assert_eq!(stats[1].p99_ns, 2500);
    }
}
