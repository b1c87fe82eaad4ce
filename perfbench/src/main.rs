//! `perf` — the repository's benchmark. README.md in this directory says
//! what every number means; `BENCHMARK.json` at the repository root is the
//! contract the numbers are compared under.
//!
//! ```text
//! perf                         all workloads, end to end, human-readable
//! perf --trace                 ... plus the traced run of each
//! perf --only W                one workload
//! perf --layers-only           the standalone per-layer benches
//! perf --check-noise           the set twice (A, B), compared under the bounds
//! perf --workload W --seed N --seconds S --trace 0|1
//!                              one run; last stdout line is the result JSON
//! perf --manifest              print BENCHMARK.json
//! ```

mod check;
mod e2e;
mod layers;
mod names;
mod report;
mod run;
mod stack;
mod stats;
mod traced;
mod workload;

use names::{END_TO_END, HIGHER, RUN_SECONDS};
use pbo_protowire::workloads::Mt19937;
use workload::{WorkloadDef, WORKLOADS};

const TRACE_FILE: &str = "perf.trace.json";

struct Args {
    /// Driver mode: run this one workload and end with the result line.
    workload: Option<&'static WorkloadDef>,
    only: Option<&'static WorkloadDef>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check_noise: bool,
    layers_only: bool,
    manifest: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perf: {msg}");
    eprintln!(
        "usage: perf [--workload W | --only W] [--seed N] [--seconds S] [--trace [0|1]] \
         [--check-noise] [--layers-only] [--manifest]"
    );
    eprintln!("workloads: {}", WORKLOADS.map(|w| w.name).join(", "));
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: None,
        only: None,
        seed: Mt19937::PAPER_SEED as u64,
        seconds: RUN_SECONDS as f64,
        trace: false,
        check_noise: false,
        layers_only: false,
        manifest: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    let named = |v: Option<String>, flag: &str| {
        let name = v.unwrap_or_else(|| usage(&format!("{flag} needs a workload name")));
        workload::find(&name).unwrap_or_else(|| usage(&format!("unknown workload {name}")))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => a.workload = Some(named(it.next(), "--workload")),
            "--only" => a.only = Some(named(it.next(), "--only")),
            "--seed" => {
                a.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a whole number"));
            }
            "--seconds" => {
                a.seconds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|s: &f64| (1.0..=600.0).contains(s))
                    .unwrap_or_else(|| usage("--seconds needs a number from 1 to 600"));
            }
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                a.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--check-noise" => a.check_noise = true,
            "--layers-only" => a.layers_only = true,
            "--manifest" => a.manifest = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    a
}

/// One traced run; returns (result line, ok).
fn traced_run(def: &WorkloadDef, seed: u64, seconds: f64) -> (String, bool) {
    let layer_figs = layers::run_all(seed);
    let t = traced::run_traced(def, seed, seconds);
    report::print_traced(def.name, &layer_figs, &t);
    match t.write_trace(TRACE_FILE) {
        Ok(()) => println!("  spans written to {TRACE_FILE}"),
        Err(e) => eprintln!("warning: could not write {TRACE_FILE}: {e}"),
    }
    let ok = t.violations.is_empty() && t.failed == 0;
    (report::traced_result_line(&layer_figs, &t), ok)
}

/// By how much of `a` the value `b` is worse, and whether that exceeds
/// `bound`.
fn worse_by(a: f64, b: f64, better: &str, bound: f64) -> (f64, bool) {
    let worse = if better == HIGHER { a - b } else { b - a };
    let share = worse / a.abs().max(f64::MIN_POSITIVE);
    (share, share > bound)
}

/// Runs the selected workloads twice, A then B, and holds each set against
/// the other under every metric's bound — what a later change is held to.
fn check_noise(defs: &[&'static WorkloadDef], seed: u64, seconds: f64) -> bool {
    let mut ok = true;
    let mut run_set = |label: &str| -> Vec<run::E2eRun> {
        defs.iter()
            .map(|def| {
                println!("-- set {label}: {}", def.name);
                let r = run::run_e2e(def, seed, seconds);
                report::print_e2e(def.name, &r);
                ok &= r.correct();
                r
            })
            .collect()
    };
    let (a, b) = (run_set("A"), run_set("B"));
    println!("== check-noise: sets A and B, spread vs bound ==");
    for ((def, ra), rb) in defs.iter().zip(&a).zip(&b) {
        for ((m, va), (_, vb)) in report::e2e_values(ra)
            .into_iter()
            .zip(report::e2e_values(rb))
        {
            // Either order must pass: noise has no direction.
            let (ab, bad_ab) = worse_by(va, vb, m.better, m.bound);
            let (ba, bad_ba) = worse_by(vb, va, m.better, m.bound);
            let bad = bad_ab || bad_ba;
            println!(
                "  {:<14} {:<22} A {:>14.4}  B {:>14.4}  spread {:>6.2} %  bound {:>5.1} %{}",
                def.name,
                m.name,
                va,
                vb,
                ab.max(ba) * 100.0,
                m.bound * 100.0,
                if bad { "  << DISAGREE" } else { "" }
            );
            ok &= !bad;
        }
        for (label, r) in [("A", ra), ("B", rb)] {
            if !r.paced.valid() {
                println!(
                    "  {:<14} set {label}: paced phase invalid (generator late)",
                    def.name
                );
            }
        }
    }
    ok
}

fn main() {
    let args = parse_args();
    stack::pin_generator();
    if args.manifest {
        print!("{}", report::manifest());
        return;
    }
    if args.layers_only {
        report::print_layers(&layers::run_all(args.seed));
        return;
    }

    // Driver mode: one workload, one run, the result line last.
    if let Some(def) = args.workload {
        let (line, ok) = if args.trace {
            traced_run(def, args.seed, args.seconds)
        } else {
            let r = run::run_e2e(def, args.seed, args.seconds);
            report::print_e2e(def.name, &r);
            (report::e2e_result_line(&r), r.correct())
        };
        println!("{line}");
        std::process::exit(if ok { 0 } else { 1 });
    }

    let defs: Vec<&'static WorkloadDef> = match args.only {
        Some(d) => vec![d],
        None => WORKLOADS.iter().collect(),
    };
    println!(
        "perf: seed {}, {} s per run, {} hardware threads (1 generator + 1 poller + 1 host \
         thread), in-process loopback: no real link is crossed",
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    if args.check_noise {
        let ok = check_noise(&defs, args.seed, args.seconds);
        println!(
            "check-noise: {}",
            if ok { "sets agree" } else { "SETS DISAGREE" }
        );
        std::process::exit(if ok { 0 } else { 1 });
    }

    let mut ok = true;
    let mut req_per_s = Vec::new();
    for def in &defs {
        let r = run::run_e2e(def, args.seed, args.seconds);
        report::print_e2e(def.name, &r);
        ok &= r.correct();
        req_per_s.push((def.name, r.sat.req_per_s.median));
        if args.trace {
            ok &= traced_run(def, args.seed, args.seconds).1;
        }
    }
    report::print_paper_table(&layers::run_all(args.seed), &req_per_s);
    println!(
        "metrics: {}",
        END_TO_END
            .map(|m| format!("{} [{}]", m.name, m.unit))
            .join(", ")
    );
    std::process::exit(if ok { 0 } else { 1 });
}
