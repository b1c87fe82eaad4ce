//! One untraced run of one workload: set-up, warm-up, `sat`, settle,
//! `paced`, then the conservation checks.

use crate::check::Verifier;
use crate::e2e::{run_paced, run_sat, Generator, PacedResult, Plan, SatResult, Tally};
use crate::stack::{Stack, StackSpec};
use crate::stats::median;
use crate::workload::{generate, Arm, Kind, WorkloadDef};
use std::time::Instant;

/// Times the stack is set up per run; `setup_s` is the median.
pub const SETUPS: usize = 15;

pub struct E2eRun {
    pub setup_samples_s: Vec<f64>,
    pub sat: SatResult,
    pub paced: PacedResult,
    /// Requests sent over warm-up + both phases, and how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// Output or conservation checks that did not hold.
    pub violations: Vec<String>,
}

impl E2eRun {
    pub fn setup_s(&self) -> f64 {
        median(&self.setup_samples_s)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

/// PCIe bytes per request (both directions) a workload's geometry allows:
/// request payload (native object or wire bytes) + 8 B message header +
/// its share of the 1 KiB-aligned block, plus the 8 B reply and its header.
/// Wide enough for any batching the protocol chooses, tight enough to catch
/// a missing or double-counted direction.
fn pcie_band(def: &WorkloadDef) -> (f64, f64) {
    match (def.kind, def.arm) {
        (Kind::Small, _) => (40.0, 400.0),
        (Kind::Ints, Arm::Offload) => (2_000.0, 3_200.0),
        (Kind::Ints, Arm::Forward) => (900.0, 2_100.0),
        (Kind::Chars, _) => (8_000.0, 9_400.0),
        // 50 % Small + 40 % Ints (most of them cache hits that move no
        // bytes) + 10 % Chars.
        (Kind::Mixed, _) => (800.0, 2_200.0),
    }
}

fn check_phase(
    phase: &str,
    tally: &Tally,
    handled: u64,
    cache_hits: u64,
    violations: &mut Vec<String>,
) {
    let failed = tally.failures.total();
    if tally.sent != tally.completed + failed {
        violations.push(format!(
            "{phase}: sent {} != completed {} + failed {failed}",
            tally.sent, tally.completed
        ));
    }
    if failed > 0 {
        violations.push(format!("{phase}: {:?}", tally.failures));
    } else if handled + cache_hits != tally.completed {
        violations.push(format!(
            "{phase}: handler invocations {handled} + cache hits {cache_hits} != completed {}",
            tally.completed
        ));
    }
}

/// Sets the stack up [`SETUPS`] times (keeping the last), then measures.
pub fn run_e2e(def: &WorkloadDef, seed: u64, seconds: f64) -> E2eRun {
    let inputs = generate(def, seed);
    let verifier = Verifier::new(&inputs.items);
    let spec = StackSpec::measured(def.arm, def.composition);
    let mut violations = Vec::new();

    let mut setup_samples_s = Vec::with_capacity(SETUPS);
    let mut stack = None;
    for _ in 0..SETUPS {
        if let Some(old) = stack.take() {
            if let Err(e) = Stack::shutdown(old) {
                violations.push(format!("setup: {e}"));
            }
        }
        let t = Instant::now();
        stack = Some(Stack::build(spec, &verifier));
        setup_samples_s.push(t.elapsed().as_secs_f64());
    }
    let stack = stack.expect("SETUPS >= 1");

    let plan = Plan::for_seconds(seconds);
    let mut gen = Generator::new(&stack, &inputs);
    let warm = gen.warm_up(plan.warm);
    let sat = run_sat(&mut gen, &verifier, &plan);
    std::thread::sleep(plan.settle);
    let paced = run_paced(&mut gen, &verifier, &plan, def.paced_per_s);
    drop(gen);
    if let Err(e) = stack.shutdown() {
        violations.push(format!("shutdown: {e}"));
    }

    if warm.failures.total() > 0 {
        violations.push(format!("warm-up: {:?}", warm.failures));
    }
    check_phase(
        "sat",
        &sat.tally,
        sat.handled,
        sat.counters.cache_hits,
        &mut violations,
    );
    check_phase(
        "paced",
        &paced.tally,
        paced.handled,
        paced.cache_hits,
        &mut violations,
    );
    if verifier.bad_objects() > 0 {
        violations.push(format!(
            "host handlers rejected {} objects",
            verifier.bad_objects()
        ));
    }
    if verifier.full_checked() == 0 {
        violations.push("no request got the full-content check".to_string());
    }
    let (lo, hi) = pcie_band(def);
    let bytes = sat.pcie_bytes_per_req();
    if !(lo..=hi).contains(&bytes) {
        violations.push(format!(
            "sat: {bytes:.1} PCIe B/req outside the geometry band [{lo}, {hi}]"
        ));
    }

    let tallies = [&warm, &sat.tally, &paced.tally];
    E2eRun {
        setup_samples_s,
        attempted: tallies.iter().map(|t| t.sent).sum(),
        failed: tallies.iter().map(|t| t.failures.total()).sum(),
        sat,
        paced,
        violations,
    }
}
