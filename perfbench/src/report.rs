//! What the benchmark prints: the driver's result line, the human tables,
//! the measured-vs-modelled-vs-paper comparison and `BENCHMARK.json` itself.

use crate::layers::{Figure, Figures};
use crate::names::{EndToEnd, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::run::E2eRun;
use crate::traced::TracedRun;
use crate::workload::WORKLOADS;
use std::fmt::Write as _;

/// A metric value as the result line carries it: every digit measured,
/// and never a non-number (JSON has none).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The end-to-end metrics of one run, in `END_TO_END` order.
pub fn e2e_values(r: &E2eRun) -> Vec<(&'static EndToEnd, f64)> {
    let v = [
        r.sat.req_per_s.median,
        r.sat.host_busy_ns_per_req,
        r.sat.pcie_bytes_per_req(),
        r.paced.lat_p50_us.median,
        r.paced.lat_p99_us.median,
        r.setup_s(),
    ];
    END_TO_END.iter().zip(v).collect()
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
    }
    s.push_str("}}");
    s
}

pub fn e2e_result_line(r: &E2eRun) -> String {
    let metrics: Vec<_> = e2e_values(r)
        .into_iter()
        .map(|(m, v)| (m.name, m.unit, v))
        .collect();
    result_line(r.correct(), r.attempted, r.failed, &metrics)
}

/// Every per-layer metric, in `PER_LAYER` order; a metric this workload
/// does not exercise reads 0.
pub fn layer_values(
    layers: &Figures,
    traced: &TracedRun,
) -> Vec<(&'static str, &'static str, Figure)> {
    PER_LAYER
        .iter()
        .map(|m| {
            let fig = traced
                .figures
                .get(m.name)
                .or_else(|| layers.get(m.name))
                .copied()
                .unwrap_or(Figure::exact(0.0));
            (m.name, m.unit, fig)
        })
        .collect()
}

pub fn traced_result_line(layers: &Figures, traced: &TracedRun) -> String {
    let metrics: Vec<_> = layer_values(layers, traced)
        .into_iter()
        .map(|(n, u, f)| (n, u, f.value))
        .collect();
    result_line(
        traced.violations.is_empty() && traced.failed == 0,
        traced.attempted,
        traced.failed,
        &metrics,
    )
}

fn list(v: &[f64], digits: usize) -> String {
    let items: Vec<String> = v.iter().map(|x| format!("{x:.digits$}")).collect();
    format!("[{}]", items.join(" "))
}

/// The untraced run of one workload, every figure with its samples.
pub fn print_e2e(name: &str, r: &E2eRun) {
    let (sat, paced) = (&r.sat, &r.paced);
    println!("== {name}: end to end ==");
    println!(
        "  req_per_s             {:>12.1} 1/s   MAD {:.1}, {} windows {}, {} completed, 1024 callers",
        sat.req_per_s.median,
        sat.req_per_s.mad,
        sat.req_per_s.n,
        list(&sat.window_rates, 0),
        sat.tally.completed,
    );
    println!(
        "  host_busy_ns_per_req  {:>12.1} ns    over {} requests",
        sat.host_busy_ns_per_req, sat.tally.completed
    );
    println!(
        "  pcie_bytes_per_req    {:>12.2} B     to host {:.2} + to device {:.2}",
        sat.pcie_bytes_per_req(),
        sat.pcie_to_host_per_req,
        sat.pcie_to_device_per_req
    );
    println!(
        "  lat_p50_us            {:>12.1} us    MAD {:.1}, windows {} at {:.0}/s",
        paced.lat_p50_us.median,
        paced.lat_p50_us.mad,
        list(&paced.window_p50_us, 0),
        paced.rate_per_s
    );
    println!(
        "  lat_p99_us            {:>12.1} us    MAD {:.1}, windows {}, samples/window {:?}",
        paced.lat_p99_us.median,
        paced.lat_p99_us.mad,
        list(&paced.window_p99_us, 0),
        paced.window_counts
    );
    let setup_us: Vec<f64> = r.setup_samples_s.iter().map(|s| s * 1e6).collect();
    println!(
        "  setup_s               {:>12.6} s     median of {} set-ups {} us",
        r.setup_s(),
        setup_us.len(),
        list(&setup_us, 0)
    );
    println!(
        "  failed_share          {:>12.6}       {} failed of {} attempted",
        r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted
    );
    println!(
        "  gen.late_p99_us {:.1}, gen.late_max_us {:.1}, {:.2} % of sends > 1 period late{}",
        paced.late_p99_us,
        paced.late_max_us,
        paced.late_share * 100.0,
        if paced.valid() {
            ""
        } else {
            "  ** paced phase INVALID: generator could not keep its schedule **"
        }
    );
    for v in &r.violations {
        println!("  CHECK FAILED: {v}");
    }
}

/// The traced run of one workload.
pub fn print_traced(name: &str, layers: &Figures, t: &TracedRun) {
    println!("== {name}: stepped pass (one thread, no waits; median ns per request) ==");
    for (layer, s) in &t.stepped {
        println!(
            "  {layer:<28} {:>10.0} ns   MAD {:.0}, n {}",
            s.median, s.mad, s.n
        );
    }
    println!(
        "  sum per request {:.0} ns; running system {:.0} ns/req at {:.0} req/s untraced, {:.0} req/s traced 1-in-1",
        t.stepped_request_ns,
        1e9 / t.untraced_req_per_s.max(1.0),
        t.untraced_req_per_s,
        t.traced_req_per_s
    );
    println!("== {name}: per layer ==");
    for (n, unit, f) in layer_values(layers, t) {
        print_layer_row(n, unit, &f);
    }
    for v in &t.violations {
        println!("  CHECK FAILED: {v}");
    }
}

fn print_layer_row(name: &str, unit: &str, f: &Figure) {
    println!(
        "  {name:<40} {:>14.2} {unit:<7} MAD {:.2}, n {}",
        f.value, f.mad, f.n
    );
}

pub fn print_layers(layers: &Figures) {
    println!("== per layer (standalone) ==");
    for m in PER_LAYER {
        if let Some(f) = layers.get(m.name) {
            print_layer_row(m.name, m.unit, f);
        }
    }
}

/// Measured vs modelled vs paper. A row is flagged when measured and
/// modelled sit on opposite sides of 1 (they disagree on who wins).
pub fn print_paper_table(layers: &Figures, req_per_s: &[(&str, f64)]) {
    let get = |n: &str| layers.get(n).map(|f| f.value);
    println!("== measured vs modelled vs paper ==");
    println!(
        "  {:<44} {:>10} {:>10} {:>8}",
        "", "measured", "modelled", "paper"
    );
    let row = |label: &str, measured: Option<f64>, modelled: Option<f64>, paper: Option<f64>| {
        let f = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.2}"));
        let flag = match (measured, modelled) {
            (Some(a), Some(b)) if (a - 1.0) * (b - 1.0) < 0.0 => "  << diverge in direction",
            _ => "",
        };
        println!(
            "  {label:<44} {:>10} {:>10} {:>8}{flag}",
            f(measured),
            f(modelled),
            f(paper)
        );
    };
    row(
        "protowire.ns_per_int_elem (CPU, ns)",
        get("protowire.ns_per_int_elem"),
        None,
        Some(2.75),
    );
    row(
        "protowire.ns_per_kib_chars (CPU, ns/KiB)",
        get("protowire.ns_per_kib_chars"),
        None,
        Some(42.5),
    );
    row(
        "dpusim.deser_ratio_ints (DPU/CPU)",
        None,
        get("dpusim.deser_ratio_ints"),
        Some(1.89),
    );
    row(
        "dpusim.deser_ratio_chars (DPU/CPU)",
        None,
        get("dpusim.deser_ratio_chars"),
        Some(2.51),
    );
    let measured = |w: &str| req_per_s.iter().find(|(n, _)| *n == w).map(|(_, v)| *v);
    for shape in ["small", "ints", "chars"] {
        let model = |arm: &str| get(&format!("dpusim.model_req_per_s.{shape}_{arm}"));
        let m = match (
            measured(&format!("{shape}_offload")),
            measured(&format!("{shape}_forward")),
        ) {
            (Some(a), Some(b)) if b > 0.0 => Some(a / b),
            _ => None,
        };
        let d = match (model("offload"), model("forward")) {
            (Some(a), Some(b)) if b > 0.0 => Some(a / b),
            _ => None,
        };
        row(&format!("req_per_s offload / forward, {shape}"), m, d, None);
    }
    println!(
        "  (only x512 Ints is measured on both arms; measured = in-process loopback on this box,"
    );
    println!("   modelled = dpusim at paper scale, 16 DPU + 8 host threads)");
}

/// The text of `BENCHMARK.json`, generated from the definitions so the two
/// cannot drift (`perf --manifest > BENCHMARK.json`).
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{}",
            w.name,
            w.why,
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}",
            m.name,
            m.unit,
            m.better,
            m.bound,
            if i + 1 < END_TO_END.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}",
            m.name,
            m.unit,
            m.better,
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbo_bench::json::parse;

    #[test]
    fn result_line_parses_back_to_the_names_given() {
        let line = result_line(
            true,
            1000,
            0,
            &[("req_per_s", "1/s", 193456.78125), ("setup_s", "s", 0.0017)],
        );
        assert!(!line.contains('\n'));
        let doc = parse(&line).expect("result line is JSON");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.num("attempted"), 1000.0);
        let m = doc.get("metrics").unwrap();
        assert_eq!(
            m.path("req_per_s.value").unwrap().as_f64(),
            Some(193456.78125)
        );
        assert_eq!(m.get("setup_s").unwrap().str("unit"), "s");
        // A non-number never reaches the line, and attempted is at least 1.
        let odd = result_line(false, 0, 0, &[("x", "ns", f64::NAN)]);
        let doc = parse(&odd).expect("still JSON");
        assert_eq!(doc.num("attempted"), 1.0);
        assert_eq!(doc.path("metrics.x.value").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn manifest_is_the_checked_in_benchmark_json() {
        assert_eq!(
            manifest(),
            include_str!("../../BENCHMARK.json"),
            "regenerate with: perf --manifest > BENCHMARK.json"
        );
    }
}
