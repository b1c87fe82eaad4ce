//! `pbo_doctor` — ranked root-cause diagnosis for tail latency.
//!
//! Scrapes a running `pbo-telemetry` server's `/attrib`, `/metrics`, and
//! `/flight` endpoints (or reads saved copies) and prints a ranked
//! verdict over six candidate causes — credit starvation, scheduler
//! contention, PCIe amplification, host dispatch, lease/failover,
//! cache thrash — each with the evidence lines and (where the critical
//! path exhibits it) an exemplar trace id.
//!
//! Live:    `pbo_doctor --addr 127.0.0.1:9464`
//! Offline: `pbo_doctor --attrib-file attrib.json [--metrics-file m.txt]`
//!
//! Exit codes: 0 = diagnosed, 1 = nothing attributed, 2 = usage or
//! scrape failure.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use pbo_bench::doctor::{diagnose, render_report, Evidence};
use pbo_bench::json::{self, Json};

fn fetch(addr: &str, path: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    write!(stream, "GET {path} HTTP/1.0\r\nHost: pbo-doctor\r\n\r\n").map_err(|e| e.to_string())?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("read {addr}{path}: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| "malformed HTTP response".to_string())?;
    let status = head.split_whitespace().nth(1).unwrap_or("");
    if status != "200" {
        return Err(format!("GET {path}: HTTP {status}"));
    }
    Ok(body.to_string())
}

fn die(msg: &str) -> ! {
    eprintln!("pbo_doctor: {msg}");
    std::process::exit(2);
}

/// Folds the flight dump's compact attribution header in as a fallback
/// exemplar source: if the engine's kept-store rotated past every
/// aggregate exemplar, the flight header still names one.
fn merge_flight(ev: &mut Evidence, flight: &Json) {
    if let Some(id) = flight.path("attrib.exemplar").and_then(Json::as_str) {
        if !ev.e2e_exemplars.iter().any(|e| e == id) {
            ev.e2e_exemplars.push(id.to_string());
        }
    }
}

fn main() {
    let mut addr: Option<String> = None;
    let mut attrib_file: Option<String> = None;
    let mut metrics_file: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--addr" => addr = Some(val("--addr")),
            "--attrib-file" => attrib_file = Some(val("--attrib-file")),
            "--metrics-file" => metrics_file = Some(val("--metrics-file")),
            other => die(&format!(
                "unknown flag {other}; flags: --addr --attrib-file --metrics-file"
            )),
        }
    }

    let (attrib_text, metrics_text, flight_text) = match (&addr, &attrib_file) {
        (Some(addr), None) => {
            let attrib = fetch(addr, "/attrib").unwrap_or_else(|e| die(&e));
            let metrics = fetch(addr, "/metrics?exemplars=1").unwrap_or_else(|e| die(&e));
            // The flight dump is best-effort: absent recorder is fine.
            let flight = fetch(addr, "/flight").ok();
            (attrib, Some(metrics), flight)
        }
        (None, Some(path)) => {
            let attrib =
                std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
            let metrics = metrics_file
                .as_ref()
                .map(|p| std::fs::read_to_string(p).unwrap_or_else(|e| die(&format!("{p}: {e}"))));
            (attrib, metrics, None)
        }
        _ => die("exactly one of --addr or --attrib-file is required"),
    };

    let doc = json::parse(&attrib_text).unwrap_or_else(|e| die(&format!("/attrib: {e}")));
    let mut ev = Evidence::from_attrib(&doc).unwrap_or_else(|e| die(&e));
    if let Some(metrics) = &metrics_text {
        ev = ev.with_metrics(metrics);
    }
    if let Some(flight) = flight_text.as_deref().and_then(|t| json::parse(t).ok()) {
        merge_flight(&mut ev, &flight);
    }

    if ev.finalized == 0 {
        eprintln!("pbo_doctor: no requests attributed yet (is the attribution engine bound?)");
        std::process::exit(1);
    }

    let findings = diagnose(&ev);
    print!("{}", render_report(&findings, &ev));
}
