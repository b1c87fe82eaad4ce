//! E12 — open-loop workload generator for the scheduled datapath.
//!
//! Two scenarios share the machinery:
//!
//! * `--scenario sched` (default) — the multi-tenant fairness bench:
//!   WDRR + per-tenant credit sub-pools + admission control under a
//!   configurable offered-load skew; emits `BENCH_sched.json` with
//!   per-tenant throughput shares, shed counts, latency percentiles,
//!   and a fairness verdict.
//! * `--scenario policy` — the adaptive per-class offload policy bench:
//!   a mixed workload (flat-scalar `Ints512`, char-heavy `Chars8000`,
//!   bursty `Small`) run three times over the identical seeded arrival
//!   schedule — adaptive policy, static all-DPU, static all-host — with
//!   both platforms emulated as real service stations (the DPU and host
//!   deserialize throttles spin for the dpusim-modeled cost of each
//!   request, the DPU at half weight for its 2× core count). Emits
//!   `BENCH_policy.json`: the adaptive split must beat both static
//!   placements on aggregate p99, with zero route flips after
//!   convergence.
//!
//! * `--scenario cache` — the DPU response-cache bench: a zipfian
//!   (s ≈ 1.0) read-heavy key population replayed closed-loop over the
//!   identical seeded schedule twice — cache on (the `cache` layer
//!   with the read method declared cachable) and cache off (same loop,
//!   nothing declared) — with the DPU deserialize throttle making the
//!   miss path honest. Merges the `"cache"` section of
//!   `BENCH_cache.json` (obs-format arms, so `bench_trend` gates it)
//!   and asserts an order-of-magnitude p50 win on the hot set under
//!   `--check`. `--cache-ttl-ms 1` turns the run into the TTL-expiry
//!   chaos storm the `pbo_doctor --expect cache_thrash` CI gate
//!   diagnoses from the saved `--attrib-out`/`--metrics-out` payloads.
//!
//! Open loop: arrivals follow a precomputed schedule regardless of
//! completions, so an overloaded placement shows up as queueing — not
//! as a quietly slowed generator. (The cache scenario is the exception:
//! closed-loop issue isolates per-request service latency, which is the
//! quantity a response cache changes.)
//!
//! Run: `cargo run --release -p pbo-bench --bin loadmix -- \
//!       [--scenario sched|policy|obs|cache] [--requests N] [--skew K] [--rate R] \
//!       [--weights WL,WH] [--bucket-rate R] [--bucket-burst B] \
//!       [--scale S] [--duration-ms D] [--seed S] [--out FILE] [--check]`

use crossbeam::channel::{bounded, Receiver};
use pbo_bench::json::Json;
use pbo_core::compat::PayloadMode;
use pbo_core::terminator::{run_poller, ForwardMode, ForwardRequest, Layers};
use pbo_core::{
    CacheConfig, CompatServer, OffloadClient, ResponseCache, SchedConfig, ServiceSchema,
    TenantScheduler, TenantSpec, STATUS_SHED,
};
use pbo_dpusim::{route_prior, PriorShape, RoutePrior};
use pbo_metrics::{Registry, SlidingConfig, SloSpec, SloTracker};
use pbo_policy::{PolicyConfig, PolicyEngine, Route};
use pbo_protowire::workloads::{paper_schema, Mt19937, WorkloadKind};
use pbo_protowire::{encode_message, NullSink, StackDeserializer};
use pbo_rpcrdma::{establish, Config};
use pbo_simnet::Fabric;
use pbo_telemetry::{Telemetry, TelemetryServer};
use pbo_trace::{
    AttribConfig, AttributionEngine, FlightRecorder, TailConfig, TailSampler, TraceConfig, Tracer,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const LIGHT: usize = 0;
const HEAVY: usize = 1;
const NAMES: [&str; 2] = ["light", "heavy"];

struct Args {
    scenario: String,
    requests: u64,
    skew: u64,
    rate: f64,
    weights: [u32; 2],
    bucket_rate: f64,
    bucket_burst: f64,
    scale: f64,
    duration_ms: u64,
    seed: u32,
    out: Option<String>,
    check: bool,
    /// Observability scenario: span sampling rate (escalated to every
    /// request by the tail sampler).
    sample: u64,
    /// Observability scenario: credit-window override (small values
    /// inject credit starvation for chaos/doctor runs).
    credits: Option<u32>,
    /// Observability scenario: serve live telemetry at this address for
    /// the duration of the run (plus `--hold-ms`).
    telemetry: Option<String>,
    /// Observability scenario: keep the telemetry endpoint up this long
    /// after the workload drains, so an external scraper can land.
    hold_ms: u64,
    /// Observability scenario: save the `/attrib` payload here for
    /// offline `pbo_doctor` runs.
    attrib_out: Option<String>,
    /// Observability scenario: save the `/metrics` exposition here.
    metrics_out: Option<String>,
    /// Cache scenario: TTL override for the cachable read method.
    /// Millisecond values at or below the miss service time turn the
    /// run into a TTL-expiry storm (the doctor's chaos scenario).
    cache_ttl_ms: Option<u64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        scenario: "sched".to_string(),
        requests: 2_000,
        skew: 10,
        rate: 20_000.0,
        weights: [1, 1],
        bucket_rate: 0.0,
        bucket_burst: 0.0,
        scale: 3_200.0,
        duration_ms: 1_500,
        seed: 1,
        out: None,
        check: false,
        sample: 16,
        credits: None,
        telemetry: None,
        hold_ms: 0,
        attrib_out: None,
        metrics_out: None,
        cache_ttl_ms: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut num = |flag: &str| -> f64 {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage(&format!("{flag} needs a number")))
        };
        match a.as_str() {
            "--scenario" => {
                args.scenario = it
                    .next()
                    .unwrap_or_else(|| usage("--scenario needs a name"));
                if !matches!(args.scenario.as_str(), "sched" | "policy" | "obs" | "cache") {
                    usage("--scenario must be sched, policy, obs, or cache");
                }
            }
            "--requests" => args.requests = num("--requests") as u64,
            "--skew" => args.skew = num("--skew") as u64,
            "--rate" => args.rate = num("--rate"),
            "--bucket-rate" => args.bucket_rate = num("--bucket-rate"),
            "--bucket-burst" => args.bucket_burst = num("--bucket-burst"),
            "--scale" => args.scale = num("--scale"),
            "--duration-ms" => args.duration_ms = num("--duration-ms") as u64,
            "--seed" => args.seed = num("--seed") as u32,
            "--weights" => {
                let v = it.next().unwrap_or_else(|| usage("--weights needs WL,WH"));
                let parts: Vec<u32> = v.split(',').filter_map(|p| p.parse().ok()).collect();
                if parts.len() != 2 || parts.contains(&0) {
                    usage("--weights needs two positive integers, e.g. 1,1");
                }
                args.weights = [parts[0], parts[1]];
            }
            "--out" => args.out = Some(it.next().unwrap_or_else(|| usage("--out needs a path"))),
            "--check" => args.check = true,
            "--sample" => args.sample = num("--sample") as u64,
            "--credits" => args.credits = Some(num("--credits") as u32),
            "--telemetry" => {
                args.telemetry = Some(it.next().unwrap_or_else(|| usage("--telemetry needs ADDR")))
            }
            "--hold-ms" => args.hold_ms = num("--hold-ms") as u64,
            "--attrib-out" => {
                args.attrib_out = Some(
                    it.next()
                        .unwrap_or_else(|| usage("--attrib-out needs a path")),
                )
            }
            "--metrics-out" => {
                args.metrics_out = Some(
                    it.next()
                        .unwrap_or_else(|| usage("--metrics-out needs a path")),
                )
            }
            "--cache-ttl-ms" => args.cache_ttl_ms = Some(num("--cache-ttl-ms") as u64),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if args.check && args.scenario == "sched" {
        // CI smoke preset: a small all-backlog run whose fairness verdict
        // is deterministic enough to assert on.
        args.requests = 440;
        args.skew = 10;
        args.rate = 0.0;
        args.bucket_rate = 0.0;
    }
    if args.check && args.scenario == "obs" {
        // CI smoke preset: small all-backlog run — enough volume for the
        // tail threshold to take shape and every tenant to attribute.
        args.requests = 2_000;
        args.rate = 0.0;
    }
    if args.check && args.scenario == "policy" {
        // CI smoke preset: short run, default scale — long enough for the
        // static placements to visibly overload.
        args.duration_ms = 1_000;
    }
    if args.check && args.scenario == "cache" {
        // CI smoke preset: few enough requests to finish in seconds, a
        // deserialize throttle heavy enough that the hot-set speedup
        // assertion has an order-of-magnitude margin over poller wakeup
        // jitter on the hit path.
        args.requests = 240;
        args.scale = 8_000.0;
    }
    if args.skew == 0 {
        usage("--skew must be >= 1");
    }
    args
}

fn usage(msg: &str) -> ! {
    eprintln!("loadmix: {msg}");
    eprintln!(
        "usage: loadmix [--scenario sched|policy|obs|cache] [--requests N] [--skew K] [--rate R] \
         [--weights WL,WH] [--bucket-rate R] [--bucket-burst B] [--scale S] \
         [--duration-ms D] [--seed S] [--out FILE] [--check] \
         [--sample N] [--credits C] [--telemetry ADDR] [--hold-ms D] \
         [--attrib-out FILE] [--metrics-out FILE] [--cache-ttl-ms T]"
    );
    std::process::exit(2);
}

/// One issued request awaiting its response.
struct Pending {
    tenant: usize,
    issued: Instant,
    rx: Receiver<(u16, Vec<u8>)>,
}

#[derive(Default)]
struct TenantTally {
    offered: u64,
    served: u64,
    shed: u64,
    /// (global completion position, end-to-end latency).
    completions: Vec<(u64, Duration)>,
}

fn pctl(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() as f64 * q) as usize).min(sorted.len() - 1)]
}

fn main() {
    let args = parse_args();
    match args.scenario.as_str() {
        "policy" => run_policy(args),
        "obs" => run_obs_mix(args),
        "cache" => run_cache(args),
        _ => run_sched(args),
    }
}

fn run_sched(args: Args) {
    let out_path = args
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_sched.json".to_string());
    println!(
        "== loadmix: {} requests, skew {}:1, rate {} req/s, weights {:?}, seed {} ==",
        args.requests, args.skew, args.rate, args.weights, args.seed
    );

    // The real scheduled datapath: terminator-side poller, RDMA, host.
    let bundle = ServiceSchema::paper_bench();
    let fabric = Fabric::new();
    let registry = Arc::new(Registry::new());
    let adt = bundle.adt_bytes();
    let cfg = Config::test_small();
    let ep = establish(&fabric, cfg, cfg, &registry, "loadmix", Some(&adt));
    let mut client =
        OffloadClient::new(ep.client, bundle.clone(), ep.control_blob.as_deref()).unwrap();
    let mut server = CompatServer::new(ep.server, PayloadMode::Native);
    for p in [1, 2, 3] {
        server.register_empty_logic(&bundle, p);
    }
    let host_stop = Arc::new(AtomicBool::new(false));
    let hs = host_stop.clone();
    let host = std::thread::spawn(move || {
        while !hs.load(Ordering::Acquire) {
            server.event_loop(Duration::from_millis(1)).unwrap();
        }
    });

    let mut sched: TenantScheduler<ForwardRequest> = TenantScheduler::new(SchedConfig {
        tenants: vec![
            TenantSpec::new(NAMES[LIGHT], args.weights[LIGHT]),
            TenantSpec::new(NAMES[HEAVY], args.weights[HEAVY]),
        ],
        quantum: 256,
        credit_window: cfg.credits,
        inflight_per_credit: 4,
        bucket_rate: args.bucket_rate,
        bucket_burst: args.bucket_burst,
        ..SchedConfig::default()
    });
    sched.bind_metrics(&registry);
    client.rpc().set_credit_observer(sched.fabric());
    let (tx, rx) = bounded::<ForwardRequest>(8192);
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let poller = std::thread::spawn(move || {
        let layers = Layers {
            sched: Some(sched),
            ..Layers::new(ForwardMode::Offload)
        };
        run_poller(client, rx, stop2, layers)
    });

    // Precompute the open-loop arrival schedule: tenant by offered-load
    // skew, message size by the paper's mix (70% small / 20% int array /
    // 10% char array), arrival time by --rate.
    let schema = paper_schema();
    let mut rng = Mt19937::new(args.seed);
    let mut schedule = Vec::with_capacity(args.requests as usize);
    for i in 0..args.requests {
        let tenant = if rng.below((args.skew + 1) as u32) == 0 {
            LIGHT
        } else {
            HEAVY
        };
        let kind = match rng.below(100) {
            0..=69 => WorkloadKind::Small,
            70..=89 => WorkloadKind::Ints512,
            _ => WorkloadKind::Chars8000,
        };
        let at = if args.rate > 0.0 {
            Duration::from_secs_f64(i as f64 / args.rate)
        } else {
            Duration::ZERO
        };
        let proc_id = match kind {
            WorkloadKind::Small => 1u16,
            WorkloadKind::Ints512 => 2,
            WorkloadKind::Chars8000 => 3,
        };
        let wire = encode_message(&kind.generate(&schema, &mut rng));
        schedule.push((at, tenant, proc_id, wire));
    }

    // Issue open-loop; poll completions opportunistically while pacing.
    let mut tallies = [TenantTally::default(), TenantTally::default()];
    let mut pending: Vec<Pending> = Vec::with_capacity(schedule.len());
    let mut done = 0u64;
    let drain = |pending: &mut Vec<Pending>, tallies: &mut [TenantTally; 2], done: &mut u64| {
        pending.retain(|p| match p.rx.try_recv() {
            Ok((status, _)) => {
                if status == STATUS_SHED {
                    tallies[p.tenant].shed += 1;
                } else {
                    assert_eq!(status, 0, "unexpected status {status}");
                    *done += 1;
                    tallies[p.tenant].served += 1;
                    tallies[p.tenant]
                        .completions
                        .push((*done, p.issued.elapsed()));
                }
                false
            }
            Err(_) => true,
        });
    };
    let epoch = Instant::now();
    for (at, tenant, proc_id, wire) in schedule {
        while epoch.elapsed() < at {
            drain(&mut pending, &mut tallies, &mut done);
            std::thread::yield_now();
        }
        let (resp_tx, resp_rx) = bounded(1);
        tx.send(ForwardRequest {
            proc_id,
            wire,
            metadata: Vec::new(),
            tenant: NAMES[tenant].to_string(),
            resp_tx,
            recv_ns: 0,
        })
        .expect("poller alive");
        tallies[tenant].offered += 1;
        pending.push(Pending {
            tenant,
            issued: Instant::now(),
            rx: resp_rx,
        });
        drain(&mut pending, &mut tallies, &mut done);
    }
    let deadline = Instant::now() + Duration::from_secs(120);
    while !pending.is_empty() {
        assert!(Instant::now() < deadline, "datapath wedged");
        drain(&mut pending, &mut tallies, &mut done);
        std::thread::sleep(Duration::from_micros(100));
    }
    let elapsed = epoch.elapsed();
    stop.store(true, Ordering::Release);
    poller.join().unwrap().expect("poller exits cleanly");
    host_stop.store(true, Ordering::Release);
    host.join().unwrap();

    // Fairness verdict (meaningful in backlog mode, reported always):
    // with both tenants saturating, the light tenant's completions land
    // interleaved at its weight share, not behind the heavy backlog.
    let light_total = tallies[LIGHT].served;
    let window = (3 * light_total).min(done);
    let light_in_window = tallies[LIGHT]
        .completions
        .iter()
        .filter(|&&(pos, _)| pos <= window)
        .count() as u64;
    let weight_share =
        f64::from(args.weights[LIGHT]) / f64::from(args.weights[LIGHT] + args.weights[HEAVY]);
    let window_share = if window > 0 {
        light_in_window as f64 / window as f64
    } else {
        0.0
    };
    // In the 3L window an ideally fair scheduler serves all L light
    // requests: share L/3L = 1/3 at weight share 1/2. Accept down to the
    // 15-point acceptance band below that.
    let within_band = args.rate > 0.0 || window_share >= (1.0 / 3.0) - 0.15;

    let total_served: u64 = tallies.iter().map(|t| t.served).sum();
    let mut tenant_json = Vec::new();
    for (i, t) in tallies.iter().enumerate() {
        let name = NAMES[i];
        let mut lat: Vec<u64> = t
            .completions
            .iter()
            .map(|&(_, d)| d.as_nanos() as u64)
            .collect();
        lat.sort_unstable();
        let wait = registry.histogram("sched_wait_ns", "", &[("tenant", name)], &[]);
        println!(
            "{:>6}: offered {:>6}  served {:>6}  shed {:>6}  share {:>5.1}%  lat p50/p99 {:>7}/{:>7} us  wait p99 {:>7} us",
            name,
            t.offered,
            t.served,
            t.shed,
            100.0 * t.served as f64 / total_served.max(1) as f64,
            pctl(&lat, 0.50) / 1_000,
            pctl(&lat, 0.99) / 1_000,
            wait.quantile(0.99) as u64 / 1_000,
        );
        tenant_json.push(format!(
            "    {{\"name\":\"{}\",\"weight\":{},\"offered\":{},\"served\":{},\"shed\":{},\
             \"throughput_share\":{:.4},\"weight_share\":{:.4},\
             \"latency_ns\":{{\"p50\":{},\"p99\":{}}},\
             \"sched_wait_ns\":{{\"p50\":{:.0},\"p99\":{:.0}}}}}",
            name,
            args.weights[i],
            t.offered,
            t.served,
            t.shed,
            t.served as f64 / total_served.max(1) as f64,
            f64::from(args.weights[i]) / f64::from(args.weights[0] + args.weights[1]),
            pctl(&lat, 0.50),
            pctl(&lat, 0.99),
            wait.quantile(0.50).max(0.0),
            wait.quantile(0.99).max(0.0),
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"loadmix\",\n  \"config\": {{\"requests\":{},\"skew\":{},\"rate\":{},\
         \"weights\":[{},{}],\"bucket_rate\":{},\"bucket_burst\":{},\"seed\":{}}},\n  \
         \"elapsed_ms\": {:.3},\n  \"tenants\": [\n{}\n  ],\n  \
         \"fairness\": {{\"window\":{},\"light_in_window\":{},\"window_share\":{:.4},\
         \"weight_share\":{:.4},\"within_band\":{}}}\n}}\n",
        args.requests,
        args.skew,
        args.rate,
        args.weights[0],
        args.weights[1],
        args.bucket_rate,
        args.bucket_burst,
        args.seed,
        elapsed.as_secs_f64() * 1e3,
        tenant_json.join(",\n"),
        window,
        light_in_window,
        window_share,
        weight_share,
        within_band,
    );
    std::fs::write(&out_path, &json).expect("write BENCH_sched.json");
    println!("wrote {} ({} bytes)", out_path, json.len());

    if args.check {
        // CI smoke validation: every offer was answered exactly once,
        // nothing was shed (buckets unlimited in the preset), the JSON
        // carries the full schema, and the backlog run was fair.
        for (i, t) in tallies.iter().enumerate() {
            assert_eq!(
                t.offered,
                t.served + t.shed,
                "{}: offered != served + shed",
                NAMES[i]
            );
        }
        for field in [
            "\"bench\"",
            "\"tenants\"",
            "\"throughput_share\"",
            "\"sched_wait_ns\"",
            "\"fairness\"",
            "\"within_band\"",
        ] {
            assert!(json.contains(field), "JSON schema missing {field}");
        }
        assert!(
            within_band,
            "fairness out of band: window share {window_share:.3} (weight share {weight_share:.3})"
        );
        println!("check: OK");
    }
}

// ---------------------------------------------------------------------------
// `--scenario policy`: adaptive per-class routing vs static placements.
// ---------------------------------------------------------------------------

/// One message class of the mixed workload: a name (doubles as the
/// tenant label and the policy's class label), its procedure id, and the
/// shape of its traffic.
struct ClassSpec {
    name: &'static str,
    proc_id: u16,
    kind: WorkloadKind,
    /// Estimated native-layout bytes (for the PCIe-amplification term of
    /// the route prior).
    native_bytes: u64,
    /// Arrival rate, req/s (for bursty classes: the *average* over the
    /// burst period; arrivals concentrate into the on-window at 3×).
    rate: f64,
    /// Burst period (None = uniform arrivals).
    burst: Option<Duration>,
    prior: RoutePrior,
}

/// Fraction of each burst period during which a bursty class's arrivals
/// actually happen, at `1/BURST_DUTY ×` its average rate.
const BURST_DUTY: f64 = 1.0 / 3.0;

/// Builds the three paper workload classes with dpusim-derived route
/// priors and arrival rates calibrated against the emulated platforms:
/// the DPU station is sized to ~`target_util` by the flat + bursty
/// classes, the host station to ~`target_util` by the char class. Either
/// static placement then carries both loads on one station and
/// overloads; the adaptive split stays stable.
fn build_classes(scale: f64, target_util: f64) -> Vec<ClassSpec> {
    let schema = paper_schema();
    let shape = PriorShape::default();
    let mut rng = Mt19937::new(Mt19937::PAPER_SEED);
    let mut spec = |name: &'static str,
                    proc_id: u16,
                    kind: WorkloadKind,
                    native_bytes: u64|
     -> (ClassSpec, RoutePrior) {
        let wire = encode_message(&kind.generate(&schema, &mut rng));
        let desc = schema
            .message(match kind {
                WorkloadKind::Small => "bench.Small",
                WorkloadKind::Ints512 => "bench.IntArray",
                WorkloadKind::Chars8000 => "bench.CharArray",
            })
            .expect("paper schema message")
            .clone();
        let stats = StackDeserializer::new(&schema)
            .deserialize(&desc, &wire, &mut NullSink)
            .expect("representative message deserializes");
        let prior = route_prior(&stats, wire.len() as u64, native_bytes, &shape);
        (
            ClassSpec {
                name,
                proc_id,
                kind,
                native_bytes,
                rate: 0.0,
                burst: None,
                prior,
            },
            prior,
        )
    };
    let (mut flat, flat_p) = spec("flat", 2, WorkloadKind::Ints512, 4 * 512 + 64);
    let (mut char_c, char_p) = spec("char", 3, WorkloadKind::Chars8000, 8_000 + 32);
    let (mut burst, burst_p) = spec("burst", 1, WorkloadKind::Small, 64);
    // Station service times under the emulation throttles (seconds/req):
    // DPU spins 0.5 × scale × modeled-DPU-ns (2× cores), host spins
    // scale × modeled-host-ns. `prior.dpu_ns` is already the
    // capacity-normalized DPU cost (0.5 × modeled + link), `host_ns` the
    // bottleneck-normalized host cost — use the raw station times here.
    let d = |p: &RoutePrior| scale * p.dpu_ns * 1e-9;
    let h = |p: &RoutePrior| scale * p.host_ns * 1e-9;
    // Adaptive split: char → host (its prior ratio exceeds the enter
    // threshold), flat + burst → DPU. Budget the DPU station 90/10
    // between flat and burst, the host station wholly to char.
    flat.rate = 0.9 * target_util / d(&flat_p);
    burst.rate = (0.1 * target_util / d(&burst_p)).min(2_000.0);
    burst.burst = Some(Duration::from_millis(300));
    char_c.rate = target_util / h(&char_p);
    vec![flat, char_c, burst]
}

/// The identical seeded open-loop arrival schedule every pass replays:
/// `(arrival, class index, wire bytes)`, sorted by arrival time.
fn build_schedule(
    classes: &[ClassSpec],
    seed: u32,
    duration: Duration,
) -> Vec<(Duration, usize, Vec<u8>)> {
    let schema = paper_schema();
    let mut rng = Mt19937::new(seed);
    let mut schedule: Vec<(Duration, usize, Vec<u8>)> = Vec::new();
    for (ci, c) in classes.iter().enumerate() {
        match c.burst {
            None => {
                let n = (c.rate * duration.as_secs_f64()) as u64;
                for i in 0..n {
                    let at = Duration::from_secs_f64(i as f64 / c.rate);
                    schedule.push((at, ci, encode_message(&c.kind.generate(&schema, &mut rng))));
                }
            }
            Some(period) => {
                // On/off square wave: all arrivals land in the first
                // `BURST_DUTY` of each period at `rate / BURST_DUTY`.
                let peak = c.rate / BURST_DUTY;
                let on = period.mul_f64(BURST_DUTY);
                let mut k = 0u32;
                loop {
                    let base = period * k;
                    if base >= duration {
                        break;
                    }
                    let n = (peak * on.as_secs_f64()) as u64;
                    for i in 0..n {
                        let at = base + Duration::from_secs_f64(i as f64 / peak);
                        if at >= duration {
                            break;
                        }
                        schedule.push((
                            at,
                            ci,
                            encode_message(&c.kind.generate(&schema, &mut rng)),
                        ));
                    }
                    k += 1;
                }
            }
        }
    }
    schedule.sort_by_key(|(at, _, _)| *at);
    schedule
}

/// Per-class pass outcome: (name, served, p50_ns, p99_ns, final route,
/// flips, last flip ms, probes).
type ClassOut = (String, u64, u64, u64, String, u64, i64, u64);

/// Outcome of one pass over the schedule.
struct PassOut {
    name: &'static str,
    agg_p50_ns: u64,
    agg_p99_ns: u64,
    served: u64,
    shed: u64,
    elapsed_ms: f64,
    flips_total: u64,
    flips_after_mid: u64,
    amp_milli: i64,
    classes: Vec<ClassOut>,
}

/// Runs the full scheduled datapath once over `schedule` with the given
/// policy (adaptive or pinned), both platform-emulation throttles
/// active, and live telemetry (queue-depth gauges, deserialize-stage
/// SLO, PCIe-amplification ratio) wired into the control loop.
fn run_pass(
    name: &'static str,
    pinned: Option<Route>,
    classes: &[ClassSpec],
    schedule: &[(Duration, usize, Vec<u8>)],
    scale: f64,
) -> PassOut {
    let bundle = ServiceSchema::paper_bench();
    let fabric = Fabric::new();
    let registry = Arc::new(Registry::new());
    let adt = bundle.adt_bytes();
    let cfg = Config::test_small();
    let ep = establish(&fabric, cfg, cfg, &registry, "lmpol", Some(&adt));
    let mut client =
        OffloadClient::new(ep.client, bundle.clone(), ep.control_blob.as_deref()).unwrap();
    // Platform emulation: the DPU deserializes at half the modeled cost
    // (2× cores), the host at full cost.
    client.set_deser_throttle(Some(0.5 * scale));
    let mut server = CompatServer::new(ep.server, PayloadMode::Native);
    server.set_deser_throttle(Some(scale));
    for c in classes {
        server.register_degradable(
            &bundle,
            c.proc_id,
            Arc::new(|_md, view, _out| {
                // Paper-style empty business logic: touch the object.
                let _ = view.meta().size;
                0
            }),
        );
    }
    let host_stop = Arc::new(AtomicBool::new(false));
    let hs = host_stop.clone();
    let host = std::thread::spawn(move || {
        while !hs.load(Ordering::Acquire) {
            server.event_loop(Duration::from_millis(1)).unwrap();
        }
    });

    let mut sched: TenantScheduler<ForwardRequest> = TenantScheduler::new(SchedConfig {
        tenants: classes.iter().map(|c| TenantSpec::new(c.name, 1)).collect(),
        credit_window: cfg.credits,
        inflight_per_credit: 4,
        // Overloaded static placements queue; they must not shed (the
        // check asserts shed == 0 so all three passes answer the same
        // request population).
        max_queue_depth: 100_000,
        bucket_rate: 0.0,
        ..SchedConfig::default()
    });
    sched.bind_metrics(&registry);
    client.rpc().set_credit_observer(sched.fabric());

    // Telemetry: deserialize-stage SLO (p99 over sliding windows) fed by
    // the tracer, and the PCIe-amplification ratio (RDMA bytes posted /
    // xRPC wire bytes in) refreshed on every SLO evaluation.
    let tracer = Tracer::new(TraceConfig::sampled(16));
    tracer.bind_registry(&registry);
    let slo = SloTracker::new(registry.clone(), SlidingConfig::seconds(2));
    slo.add(SloSpec::p99(
        "policy_deser_p99",
        "deserialize",
        4.0 * 0.5 * scale * 2_700.0, // ~4× the scaled Ints512 DPU cost
    ));
    let wire_in = registry.counter(
        "xrpc_wire_bytes_total",
        "Serialized request bytes entering the terminator",
        &[],
    );
    let posted = registry.counter(
        "rpc_bytes_sent_total",
        "bytes posted",
        &[("conn", "lmpol"), ("side", "client")],
    );
    slo.add_ratio("pcie_amplification", posted, wire_in.clone());
    tracer.bind_slo(&slo);
    client.set_tracer(&tracer, "lmpol");

    let mut policy = PolicyEngine::new(PolicyConfig {
        deser_slo_name: Some("policy_deser_p99".to_string()),
        queue_depth_cap: 512,
        pinned,
        ..PolicyConfig::default()
    });
    for c in classes {
        policy.register_class(c.proc_id, c.name, Some(c.prior), 0);
    }
    policy.bind_metrics(&registry);
    policy.bind_slo(&slo);

    let (tx, rx) = bounded::<ForwardRequest>(8192);
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let poller = std::thread::spawn(move || {
        let layers = Layers {
            sched: Some(sched),
            policy: Some(policy),
            ..Layers::new(ForwardMode::Offload)
        };
        run_poller(client, rx, stop2, layers)
    });

    // Replay the schedule open-loop.
    let n_classes = classes.len();
    let mut tallies: Vec<TenantTally> = (0..n_classes).map(|_| TenantTally::default()).collect();
    let mut pending: Vec<Pending> = Vec::with_capacity(schedule.len());
    let mut done = 0u64;
    let read_flips = |reg: &Registry| -> u64 {
        classes
            .iter()
            .map(|c| {
                reg.counter_value("policy_flips_total", &[("class", c.name)])
                    .unwrap_or(0)
            })
            .sum()
    };
    let duration = schedule.last().map(|(at, _, _)| *at).unwrap_or_default();
    let mut flips_mid = None;
    let epoch = Instant::now();
    for (at, ci, wire) in schedule {
        while epoch.elapsed() < *at {
            drain_class(&mut pending, &mut tallies, &mut done);
            std::thread::yield_now();
        }
        if flips_mid.is_none() && epoch.elapsed() * 2 > duration {
            flips_mid = Some(read_flips(&registry));
        }
        let (resp_tx, resp_rx) = bounded(1);
        wire_in.inc_by(wire.len() as u64);
        tx.send(ForwardRequest {
            proc_id: classes[*ci].proc_id,
            wire: wire.clone(),
            metadata: Vec::new(),
            tenant: classes[*ci].name.to_string(),
            resp_tx,
            recv_ns: 0,
        })
        .expect("poller alive");
        tallies[*ci].offered += 1;
        pending.push(Pending {
            tenant: *ci,
            issued: Instant::now(),
            rx: resp_rx,
        });
        drain_class(&mut pending, &mut tallies, &mut done);
    }
    let flips_mid = flips_mid.unwrap_or_else(|| read_flips(&registry));
    let deadline = Instant::now() + Duration::from_secs(120);
    while !pending.is_empty() {
        assert!(Instant::now() < deadline, "datapath wedged ({name})");
        drain_class(&mut pending, &mut tallies, &mut done);
        std::thread::sleep(Duration::from_micros(100));
    }
    let elapsed = epoch.elapsed();
    stop.store(true, Ordering::Release);
    poller.join().unwrap().expect("poller exits cleanly");
    host_stop.store(true, Ordering::Release);
    host.join().unwrap();
    // Refresh the windowed ratio gauges one last time before reading.
    slo.evaluate(tracer.now_ns());

    let mut all_lat: Vec<u64> = Vec::new();
    let mut per_class = Vec::new();
    for (ci, t) in tallies.iter().enumerate() {
        let c = &classes[ci];
        let mut lat: Vec<u64> = t
            .completions
            .iter()
            .map(|&(_, d)| d.as_nanos() as u64)
            .collect();
        lat.sort_unstable();
        all_lat.extend_from_slice(&lat);
        let route = match registry.gauge_value("policy_route", &[("class", c.name)]) {
            Some(1) => "host",
            _ => "dpu",
        };
        per_class.push((
            c.name.to_string(),
            t.served,
            pctl(&lat, 0.50),
            pctl(&lat, 0.99),
            route.to_string(),
            registry
                .counter_value("policy_flips_total", &[("class", c.name)])
                .unwrap_or(0),
            registry
                .gauge_value("policy_last_flip_ms", &[("class", c.name)])
                .unwrap_or(0),
            registry
                .counter_value("policy_probes_total", &[("class", c.name)])
                .unwrap_or(0),
        ));
    }
    all_lat.sort_unstable();
    let flips_total = read_flips(&registry);
    PassOut {
        name,
        agg_p50_ns: pctl(&all_lat, 0.50),
        agg_p99_ns: pctl(&all_lat, 0.99),
        served: tallies.iter().map(|t| t.served).sum(),
        shed: tallies.iter().map(|t| t.shed).sum(),
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        flips_total,
        flips_after_mid: flips_total.saturating_sub(flips_mid),
        amp_milli: registry
            .gauge_value("pcie_amplification_milli", &[])
            .unwrap_or(0),
        classes: per_class,
    }
}

/// Drains completions for the policy scenario (class-indexed tallies).
fn drain_class(pending: &mut Vec<Pending>, tallies: &mut [TenantTally], done: &mut u64) {
    pending.retain(|p| match p.rx.try_recv() {
        Ok((status, _)) => {
            if status == STATUS_SHED {
                tallies[p.tenant].shed += 1;
            } else {
                assert_eq!(status, 0, "unexpected status {status}");
                *done += 1;
                tallies[p.tenant].served += 1;
                tallies[p.tenant]
                    .completions
                    .push((*done, p.issued.elapsed()));
            }
            false
        }
        Err(_) => true,
    });
}

fn run_policy(args: Args) {
    let out_path = args
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_policy.json".to_string());
    let duration = Duration::from_millis(args.duration_ms);
    let classes = build_classes(args.scale, 0.65);
    println!(
        "== loadmix policy: {} ms, scale {}, seed {} ==",
        args.duration_ms, args.scale, args.seed
    );
    for c in &classes {
        println!(
            "  class {:>5} (proc {}): prior dpu {:>6.0} ns, host {:>6.0} ns, ratio {:.4}, rate {:>6.0}/s{}",
            c.name,
            c.proc_id,
            c.prior.dpu_ns,
            c.prior.host_ns,
            c.prior.ratio(),
            c.rate,
            if c.burst.is_some() { " (bursty)" } else { "" }
        );
    }
    let schedule = build_schedule(&classes, args.seed, duration);
    println!("  schedule: {} requests", schedule.len());

    let passes = [
        ("adaptive", None),
        ("static-dpu", Some(Route::Dpu)),
        ("static-host", Some(Route::Host)),
    ];
    let mut outs = Vec::new();
    for (name, pinned) in passes {
        let out = run_pass(name, pinned, &classes, &schedule, args.scale);
        println!(
            "{:>12}: served {:>6}  shed {:>3}  p50/p99 {:>8}/{:>8} us  flips {} (after conv {})  amp {} milli  [{:.0} ms]",
            out.name,
            out.served,
            out.shed,
            out.agg_p50_ns / 1_000,
            out.agg_p99_ns / 1_000,
            out.flips_total,
            out.flips_after_mid,
            out.amp_milli,
            out.elapsed_ms,
        );
        outs.push(out);
    }

    let adaptive = &outs[0];
    let beats_dpu = adaptive.agg_p99_ns < outs[1].agg_p99_ns;
    let beats_host = adaptive.agg_p99_ns < outs[2].agg_p99_ns;
    let mut pass_json = Vec::new();
    for o in &outs {
        let class_json: Vec<String> = o
            .classes
            .iter()
            .map(|(name, served, p50, p99, route, flips, last_ms, probes)| {
                format!(
                    "        {{\"name\":\"{name}\",\"served\":{served},\
                     \"latency_ns\":{{\"p50\":{p50},\"p99\":{p99}}},\
                     \"route_final\":\"{route}\",\"flips\":{flips},\
                     \"last_flip_ms\":{last_ms},\"probes\":{probes}}}"
                )
            })
            .collect();
        pass_json.push(format!(
            "    {{\"policy\":\"{}\",\"served\":{},\"shed\":{},\
             \"latency_ns\":{{\"p50\":{},\"p99\":{}}},\
             \"flips_total\":{},\"flips_after_convergence\":{},\
             \"pcie_amplification_milli\":{},\"elapsed_ms\":{:.3},\n      \"classes\": [\n{}\n      ]}}",
            o.name,
            o.served,
            o.shed,
            o.agg_p50_ns,
            o.agg_p99_ns,
            o.flips_total,
            o.flips_after_mid,
            o.amp_milli,
            o.elapsed_ms,
            class_json.join(",\n"),
        ));
    }
    let class_model: Vec<String> = classes
        .iter()
        .map(|c| {
            format!(
                "    {{\"name\":\"{}\",\"proc_id\":{},\"native_bytes\":{},\
                 \"prior_dpu_ns\":{:.1},\"prior_host_ns\":{:.1},\"prior_ratio\":{:.4},\
                 \"rate\":{:.1},\"bursty\":{}}}",
                c.name,
                c.proc_id,
                c.native_bytes,
                c.prior.dpu_ns,
                c.prior.host_ns,
                c.prior.ratio(),
                c.rate,
                c.burst.is_some(),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"loadmix-policy\",\n  \"config\": {{\"duration_ms\":{},\"scale\":{},\
         \"seed\":{},\"requests\":{}}},\n  \"classes\": [\n{}\n  ],\n  \"passes\": [\n{}\n  ],\n  \
         \"verdict\": {{\"adaptive_beats_static_dpu\":{},\"adaptive_beats_static_host\":{},\
         \"adaptive_flips_total\":{},\"adaptive_flips_after_convergence\":{}}}\n}}\n",
        args.duration_ms,
        args.scale,
        args.seed,
        schedule.len(),
        class_model.join(",\n"),
        pass_json.join(",\n"),
        beats_dpu,
        beats_host,
        adaptive.flips_total,
        adaptive.flips_after_mid,
    );
    std::fs::write(&out_path, &json).expect("write BENCH_policy.json");
    println!("wrote {} ({} bytes)", out_path, json.len());

    if args.check {
        for o in &outs {
            assert_eq!(o.shed, 0, "{}: shed traffic", o.name);
            assert_eq!(
                o.served,
                schedule.len() as u64,
                "{}: not every request served",
                o.name
            );
        }
        assert!(
            beats_dpu && beats_host,
            "adaptive p99 {} us must beat static-dpu {} us and static-host {} us",
            adaptive.agg_p99_ns / 1_000,
            outs[1].agg_p99_ns / 1_000,
            outs[2].agg_p99_ns / 1_000,
        );
        assert_eq!(
            adaptive.flips_after_mid, 0,
            "route flapping after convergence"
        );
        assert!(
            adaptive.flips_total <= 3,
            "unbounded flips: {}",
            adaptive.flips_total
        );
        for (name, pinned_route) in [("static-dpu", "dpu"), ("static-host", "host")] {
            let o = outs.iter().find(|o| o.name == name).unwrap();
            assert_eq!(o.flips_total, 0, "{name}: pinned engine flipped");
            assert!(
                o.classes.iter().all(|c| c.4 == pinned_route),
                "{name}: class off its pinned route"
            );
        }
        for field in [
            "\"bench\"",
            "\"classes\"",
            "\"passes\"",
            "\"flips_after_convergence\"",
            "\"verdict\"",
        ] {
            assert!(json.contains(field), "JSON schema missing {field}");
        }
        println!("check: OK");
    }
}

// ---------------------------------------------------------------------------
// `--scenario obs`: tail-latency attribution over the scheduled datapath.
// ---------------------------------------------------------------------------

/// Runs the sched scenario's open-loop skewed mix with the full
/// observability stack attached — tracer, critical-path attribution,
/// tail-biased sampler, flight recorder, and (optionally) a live
/// telemetry endpoint — then contributes the `"loadmix"` section of
/// `BENCH_obs.json` and saves the `/attrib` + `/metrics` payloads for
/// offline `pbo_doctor` runs. `--credits 1` shrinks the credit window to
/// inject credit starvation — the chaos scenario the doctor's CI gate
/// must diagnose.
fn run_obs_mix(args: Args) {
    let out_path = args
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_obs.json".to_string());
    println!(
        "== loadmix obs: {} requests, skew {}:1, sample 1-in-{}, credits {} ==",
        args.requests,
        args.skew,
        args.sample,
        args.credits
            .map(|c| c.to_string())
            .unwrap_or_else(|| "default".to_string()),
    );

    let bundle = ServiceSchema::paper_bench();
    let fabric = Fabric::new();
    let registry = Arc::new(Registry::new());
    let adt = bundle.adt_bytes();
    let mut cfg = Config::test_small();
    if let Some(c) = args.credits {
        cfg.credits = c.max(1);
    }
    let ep = establish(&fabric, cfg, cfg, &registry, "lmobs", Some(&adt));
    let mut client =
        OffloadClient::new(ep.client, bundle.clone(), ep.control_blob.as_deref()).unwrap();
    let mut server = CompatServer::new(ep.server, PayloadMode::Native);
    for p in [1, 2, 3] {
        server.register_empty_logic(&bundle, p);
    }

    // The observability stack: head sampling at 1-in-N escalated to every
    // request by the tail sampler; rings and histograms keep the bulk
    // sample, the engine attributes everything.
    let tracer = Tracer::new(TraceConfig::sampled(args.sample.max(1)));
    tracer.bind_registry(&registry);
    let flight = FlightRecorder::new(4096, 4);
    flight.bind_metrics(&registry);
    tracer.set_flight(&flight);
    let tail = TailSampler::new(TailConfig {
        bulk_every: args.sample.max(1),
        ..TailConfig::default()
    });
    let engine = AttributionEngine::new(AttribConfig::default()).with_tail_sampler(tail);
    tracer.bind_attribution(&engine);
    client.set_tracer(&tracer, "lmobs");
    server.set_tracer(&tracer, "lmobs");
    let term_tracer = tracer.clone();

    let telemetry = Telemetry::new(registry.clone());
    telemetry.attach_tracer(&tracer);
    telemetry.set_exemplar_exposition(true);
    let live = args.telemetry.as_deref().map(|addr| {
        let srv = TelemetryServer::start(addr, telemetry.clone())
            .unwrap_or_else(|e| usage(&format!("--telemetry {addr}: {e}")));
        println!("telemetry live at http://{}", srv.local_addr());
        srv
    });

    let host_stop = Arc::new(AtomicBool::new(false));
    let hs = host_stop.clone();
    let host = std::thread::spawn(move || {
        while !hs.load(Ordering::Acquire) {
            server.event_loop(Duration::from_millis(1)).unwrap();
        }
    });

    let mut sched: TenantScheduler<ForwardRequest> = TenantScheduler::new(SchedConfig {
        tenants: vec![
            TenantSpec::new(NAMES[LIGHT], args.weights[LIGHT]),
            TenantSpec::new(NAMES[HEAVY], args.weights[HEAVY]),
        ],
        quantum: 256,
        credit_window: cfg.credits,
        inflight_per_credit: 4,
        bucket_rate: args.bucket_rate,
        bucket_burst: args.bucket_burst,
        ..SchedConfig::default()
    });
    sched.bind_metrics(&registry);
    client.rpc().set_credit_observer(sched.fabric());
    let (tx, rx) = bounded::<ForwardRequest>(8192);
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let poller = std::thread::spawn(move || {
        let layers = Layers {
            sched: Some(sched),
            tracer: term_tracer,
            conn_label: "lmobs".to_string(),
            ..Layers::new(ForwardMode::Offload)
        };
        run_poller(client, rx, stop2, layers)
    });

    // The same seeded open-loop schedule the sched scenario replays.
    let schema = paper_schema();
    let mut rng = Mt19937::new(args.seed);
    let mut schedule = Vec::with_capacity(args.requests as usize);
    for i in 0..args.requests {
        let tenant = if rng.below((args.skew + 1) as u32) == 0 {
            LIGHT
        } else {
            HEAVY
        };
        let kind = match rng.below(100) {
            0..=69 => WorkloadKind::Small,
            70..=89 => WorkloadKind::Ints512,
            _ => WorkloadKind::Chars8000,
        };
        let at = if args.rate > 0.0 {
            Duration::from_secs_f64(i as f64 / args.rate)
        } else {
            Duration::ZERO
        };
        let proc_id = match kind {
            WorkloadKind::Small => 1u16,
            WorkloadKind::Ints512 => 2,
            WorkloadKind::Chars8000 => 3,
        };
        let wire = encode_message(&kind.generate(&schema, &mut rng));
        schedule.push((at, tenant, proc_id, wire));
    }

    let mut tallies = [TenantTally::default(), TenantTally::default()];
    let mut pending: Vec<Pending> = Vec::with_capacity(schedule.len());
    let mut done = 0u64;
    let epoch = Instant::now();
    for (at, tenant, proc_id, wire) in schedule {
        while epoch.elapsed() < at {
            drain_class(&mut pending, &mut tallies, &mut done);
            std::thread::yield_now();
        }
        let (resp_tx, resp_rx) = bounded(1);
        tx.send(ForwardRequest {
            proc_id,
            wire,
            metadata: Vec::new(),
            tenant: NAMES[tenant].to_string(),
            resp_tx,
            // Stamp the arrival so the poller emits terminate/sched_wait
            // spans and annotates tenant/class/route for attribution.
            recv_ns: tracer.now_ns(),
        })
        .expect("poller alive");
        tallies[tenant].offered += 1;
        pending.push(Pending {
            tenant,
            issued: Instant::now(),
            rx: resp_rx,
        });
        drain_class(&mut pending, &mut tallies, &mut done);
    }
    let deadline = Instant::now() + Duration::from_secs(120);
    while !pending.is_empty() {
        assert!(Instant::now() < deadline, "datapath wedged");
        drain_class(&mut pending, &mut tallies, &mut done);
        std::thread::sleep(Duration::from_micros(100));
    }
    let elapsed = epoch.elapsed();
    stop.store(true, Ordering::Release);
    poller.join().unwrap().expect("poller exits cleanly");
    host_stop.store(true, Ordering::Release);
    host.join().unwrap();
    // Snapshot the flight ring so `/flight` (and its attribution splice)
    // has a dump to serve.
    flight.trigger("obs_snapshot", tracer.now_ns());

    let summary = engine.summary();
    println!(
        "attributed {} requests ({} evicted); ranked critical-path stages:",
        summary.finalized, summary.evicted
    );
    for st in summary.stages.iter().take(6) {
        println!(
            "  {:>14}  {:>6.1}%  dominant in {:>6}  over budget in {:>6}",
            st.stage,
            100.0 * st.share,
            st.dominant_count,
            st.over_budget_count
        );
    }
    for cell in summary.keys.iter().take(4) {
        println!(
            "  cell {}/{}/{} dominant {}: {} reqs, mean e2e {:.0} ns, share {:.2}",
            cell.key.tenant,
            cell.key.class,
            cell.key.route,
            cell.key.dominant,
            cell.requests,
            cell.mean_e2e_ns(),
            cell.dominant_share(),
        );
    }
    if let Some(t) = &summary.tail {
        println!(
            "tail sampler: threshold {}ns, kept {} tail + {} bulk of {} seen ({} suppressed)",
            t.threshold_ns, t.kept_tail, t.kept_bulk, t.seen, t.suppressed
        );
    }

    // Per-tenant latency arms for the BENCH_obs trend gate.
    let obj = |members: Vec<(&str, Json)>| {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let mut arm_members = Vec::new();
    for (i, t) in tallies.iter().enumerate() {
        let mut lat: Vec<u64> = t
            .completions
            .iter()
            .map(|&(_, d)| d.as_nanos() as u64)
            .collect();
        lat.sort_unstable();
        println!(
            "{:>6}: served {:>6}  lat p50/p99 {:>7}/{:>7} us",
            NAMES[i],
            t.served,
            pctl(&lat, 0.50) / 1_000,
            pctl(&lat, 0.99) / 1_000,
        );
        arm_members.push((
            NAMES[i],
            obj(vec![
                ("p99_ns", Json::Num(pctl(&lat, 0.99) as f64)),
                ("p50_ns", Json::Num(pctl(&lat, 0.50) as f64)),
                ("served", Json::Num(t.served as f64)),
            ]),
        ));
    }
    let tail_json = match &summary.tail {
        Some(t) => obj(vec![
            (
                "threshold_ns",
                if t.threshold_ns == u64::MAX {
                    Json::Null
                } else {
                    Json::Num(t.threshold_ns as f64)
                },
            ),
            ("seen", Json::Num(t.seen as f64)),
            ("kept_tail", Json::Num(t.kept_tail as f64)),
            ("kept_bulk", Json::Num(t.kept_bulk as f64)),
            ("suppressed", Json::Num(t.suppressed as f64)),
        ]),
        None => Json::Null,
    };
    let section = obj(vec![
        (
            "config",
            obj(vec![
                ("requests", Json::Num(args.requests as f64)),
                ("skew", Json::Num(args.skew as f64)),
                ("sample", Json::Num(args.sample as f64)),
                (
                    "credits",
                    args.credits
                        .map(|c| Json::Num(c as f64))
                        .unwrap_or(Json::Null),
                ),
            ]),
        ),
        ("elapsed_ms", Json::Num(elapsed.as_secs_f64() * 1e3)),
        ("arms", obj(arm_members)),
        (
            "attribution",
            obj(vec![
                ("finalized", Json::Num(summary.finalized as f64)),
                ("evicted", Json::Num(summary.evicted as f64)),
                (
                    "top_stage",
                    summary
                        .top_stage()
                        .map(|s| Json::Str(s.stage.to_string()))
                        .unwrap_or(Json::Null),
                ),
                (
                    "exemplar",
                    summary
                        .e2e_exemplars
                        .first()
                        .map(|e| Json::Str(format!("{:#018x}", e.trace_id)))
                        .unwrap_or(Json::Null),
                ),
                ("cells", Json::Num(summary.keys.len() as f64)),
                ("tail", tail_json),
            ]),
        ),
    ]);
    let path = std::path::Path::new(&out_path);
    pbo_bench::obs::merge_section(path, "loadmix", section).expect("write BENCH_obs.json");
    println!("merged \"loadmix\" section into {out_path}");

    // Offline doctor payloads: exactly what the live endpoints serve.
    if let Some(p) = &args.attrib_out {
        std::fs::write(p, telemetry.handle("/attrib").body).expect("write attrib payload");
        println!("saved /attrib payload to {p}");
    }
    if let Some(p) = &args.metrics_out {
        std::fs::write(p, telemetry.handle("/metrics?exemplars=1").body)
            .expect("write metrics payload");
        println!("saved /metrics payload to {p}");
    }

    if args.check {
        for (i, t) in tallies.iter().enumerate() {
            assert_eq!(
                t.offered,
                t.served + t.shed,
                "{}: offered != served + shed",
                NAMES[i]
            );
        }
        let served: u64 = tallies.iter().map(|t| t.served).sum();
        assert!(
            summary.finalized >= served * 9 / 10,
            "attributed {} of {} served requests",
            summary.finalized,
            served
        );
        let top = summary.top_stage().expect("stages ranked");
        assert!(
            pbo_trace::stages::ALL.contains(&top.stage) || top.stage == pbo_trace::UNTRACKED,
            "undocumented top stage {:?}",
            top.stage
        );
        // Both tenants must have their own attribution cells, labeled by
        // the terminator (not the unattributed fallback).
        for name in NAMES {
            assert!(
                summary.keys.iter().any(|c| c.key.tenant == name),
                "no attribution cell for tenant {name}"
            );
        }
        if args.credits.is_some_and(|c| c <= 2) {
            // Injected credit starvation must be visible to attribution.
            assert!(
                summary
                    .stages
                    .iter()
                    .any(|s| s.stage == pbo_trace::stages::CREDIT_WAIT && s.self_ns_total > 0),
                "credit starvation injected but no credit_wait attributed"
            );
        }
        println!("check: OK");
    }

    if args.hold_ms > 0 && live.is_some() {
        println!("holding telemetry endpoint for {} ms", args.hold_ms);
        std::thread::sleep(Duration::from_millis(args.hold_ms));
    }
    drop(live);
}

// ---------------------------------------------------------------------------
// `--scenario cache`: DPU response cache over a zipfian read-heavy mix.
// ---------------------------------------------------------------------------

/// Key-population size of the zipfian read mix: each key is one distinct
/// request wire image, reused verbatim on every occurrence so repeats
/// can hit the cache.
const CACHE_KEYS: usize = 64;
/// Zipf exponent (s ≈ 1.0).
const CACHE_ZIPF_S: f64 = 1.0;
/// The hot set: the top ranks whose p50 the verdict compares across arms.
const CACHE_HOT: usize = 4;
/// The cachable read method (Ints512 — deserialize-heavy enough that the
/// throttled miss path dwarfs a hit).
const CACHE_PROC: u16 = 2;
const CACHE_TENANT: &str = "zipf";

/// One arm's outcome (latencies sorted ascending).
struct CacheArmOut {
    served: u64,
    shed: u64,
    lat_all: Vec<u64>,
    lat_hot: Vec<u64>,
    snapshot: pbo_core::CacheSnapshot,
    elapsed_ms: f64,
}

impl CacheArmOut {
    /// Sums a per-tenant counter across all partitions.
    fn stat(&self, f: impl Fn(&pbo_core::TenantCacheStats) -> u64) -> u64 {
        self.snapshot.tenants.iter().map(f).sum()
    }
}

/// Samples `n` zipfian ranks (0-based, rank 0 hottest) over `keys` ranks.
fn zipf_ranks(n: u64, keys: usize, s: f64, rng: &mut Mt19937) -> Vec<usize> {
    let mut cdf = Vec::with_capacity(keys);
    let mut acc = 0.0;
    for r in 1..=keys {
        acc += 1.0 / (r as f64).powf(s);
        cdf.push(acc);
    }
    (0..n)
        .map(|_| {
            let u = (rng.below(1u32 << 30) as f64 / (1u64 << 30) as f64) * acc;
            cdf.partition_point(|&c| c < u).min(keys - 1)
        })
        .collect()
}

/// Runs the cached datapath once over the schedule, closed-loop. The
/// `enabled` arm declares the read method cachable; the other arm runs
/// the identical loop with nothing declared, so every request pays the
/// full deserialize/DMA/dispatch path.
fn run_cache_arm(
    enabled: bool,
    keys: &[Vec<u8>],
    schedule: &[usize],
    ttl_ns: u64,
    scale: f64,
    args: &Args,
) -> CacheArmOut {
    let bundle = ServiceSchema::paper_bench();
    let fabric = Fabric::new();
    let registry = Arc::new(Registry::new());
    let adt = bundle.adt_bytes();
    let cfg = Config::test_small();
    let ep = establish(&fabric, cfg, cfg, &registry, "lmcache", Some(&adt));
    let mut client =
        OffloadClient::new(ep.client, bundle.clone(), ep.control_blob.as_deref()).unwrap();
    // The emulated DPU deserialize cost (policy-scenario convention:
    // half the modeled cost for the DPU's 2× cores) — the work a hit
    // short-circuits.
    client.set_deser_throttle(Some(0.5 * scale));
    let mut server = CompatServer::new(ep.server, PayloadMode::Native);
    server.register_empty_logic(&bundle, CACHE_PROC);

    // Full-sample tracing + attribution: the enabled arm's /attrib and
    // /metrics payloads feed the offline `pbo_doctor` chaos gate.
    let tracer = Tracer::new(TraceConfig::sampled(1));
    tracer.bind_registry(&registry);
    let engine = AttributionEngine::new(AttribConfig::default());
    tracer.bind_attribution(&engine);
    client.set_tracer(&tracer, "lmcache");
    server.set_tracer(&tracer, "lmcache");

    let host_stop = Arc::new(AtomicBool::new(false));
    let hs = host_stop.clone();
    let host = std::thread::spawn(move || {
        while !hs.load(Ordering::Acquire) {
            server.event_loop(Duration::from_millis(1)).unwrap();
        }
    });

    let mut sched: TenantScheduler<ForwardRequest> = TenantScheduler::new(SchedConfig {
        tenants: vec![TenantSpec::new(CACHE_TENANT, 1)],
        credit_window: cfg.credits,
        inflight_per_credit: 4,
        bucket_rate: 0.0,
        ..SchedConfig::default()
    });
    sched.bind_metrics(&registry);
    client.rpc().set_credit_observer(sched.fabric());

    let cache = ResponseCache::new(CacheConfig::default());
    cache.bind_metrics(&registry);
    if enabled {
        cache.declare(CACHE_PROC, ttl_ns);
    }

    let (tx, rx) = bounded::<ForwardRequest>(64);
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let cache2 = cache.clone();
    let tracer2 = tracer.clone();
    let poller = std::thread::spawn(move || {
        let layers = Layers {
            sched: Some(sched),
            cache: Some(cache2),
            tracer: tracer2,
            conn_label: "lmcache".to_string(),
            ..Layers::new(ForwardMode::Offload)
        };
        run_poller(client, rx, stop2, layers)
    });

    // Closed-loop replay: one request in flight, so the measurement is
    // per-request service latency — the quantity the cache changes —
    // free of open-loop queueing noise.
    let mut lat_all = Vec::with_capacity(schedule.len());
    let mut lat_hot = Vec::new();
    let mut served = 0u64;
    let mut shed = 0u64;
    let epoch = Instant::now();
    for &rank in schedule {
        let (resp_tx, resp_rx) = bounded(1);
        let issued = Instant::now();
        tx.send(ForwardRequest {
            proc_id: CACHE_PROC,
            wire: keys[rank].clone(),
            metadata: Vec::new(),
            tenant: CACHE_TENANT.to_string(),
            resp_tx,
            recv_ns: tracer.now_ns(),
        })
        .expect("poller alive");
        let (status, _) = resp_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("datapath wedged");
        let ns = issued.elapsed().as_nanos() as u64;
        if status == STATUS_SHED {
            shed += 1;
            continue;
        }
        assert_eq!(status, 0, "unexpected status {status}");
        served += 1;
        lat_all.push(ns);
        if rank < CACHE_HOT {
            lat_hot.push(ns);
        }
    }
    let elapsed = epoch.elapsed();
    stop.store(true, Ordering::Release);
    drop(tx);
    poller.join().unwrap().expect("poller exits cleanly");
    host_stop.store(true, Ordering::Release);
    host.join().unwrap();

    // Offline doctor payloads, saved from the enabled arm (its metrics
    // carry the cache counters the thrash finding scores on).
    if enabled {
        let telemetry = Telemetry::new(registry.clone());
        telemetry.attach_tracer(&tracer);
        if let Some(p) = &args.attrib_out {
            std::fs::write(p, telemetry.handle("/attrib").body).expect("write attrib payload");
            println!("saved /attrib payload to {p}");
        }
        if let Some(p) = &args.metrics_out {
            std::fs::write(p, telemetry.handle("/metrics").body).expect("write metrics payload");
            println!("saved /metrics payload to {p}");
        }
    }

    lat_all.sort_unstable();
    lat_hot.sort_unstable();
    CacheArmOut {
        served,
        shed,
        lat_all,
        lat_hot,
        snapshot: cache.snapshot(),
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
    }
}

fn run_cache(args: Args) {
    let out_path = args
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_cache.json".to_string());
    let ttl_ms = args.cache_ttl_ms.unwrap_or(60_000);
    let ttl_ns = ttl_ms * 1_000_000;
    let chaos = ttl_ms < 50;
    println!(
        "== loadmix cache: {} requests, {} keys (zipf s={}), hot set {}, scale {}, ttl {} ms, seed {} ==",
        args.requests, CACHE_KEYS, CACHE_ZIPF_S, CACHE_HOT, args.scale, ttl_ms, args.seed
    );

    // The identical seeded schedule both arms replay: a fixed key
    // population and a zipfian rank stream over it.
    let schema = paper_schema();
    let mut rng = Mt19937::new(args.seed);
    let keys: Vec<Vec<u8>> = (0..CACHE_KEYS)
        .map(|_| encode_message(&WorkloadKind::Ints512.generate(&schema, &mut rng)))
        .collect();
    let schedule = zipf_ranks(args.requests, CACHE_KEYS, CACHE_ZIPF_S, &mut rng);
    let hot_requests = schedule.iter().filter(|&&r| r < CACHE_HOT).count();
    println!(
        "  schedule: {} requests, {} on the hot set",
        schedule.len(),
        hot_requests
    );

    let on = run_cache_arm(true, &keys, &schedule, ttl_ns, args.scale, &args);
    let off = run_cache_arm(false, &keys, &schedule, ttl_ns, args.scale, &args);
    for (name, o) in [("cache_on", &on), ("cache_off", &off)] {
        println!(
            "{:>10}: served {:>5}  shed {:>3}  p50/p99 {:>7}/{:>7} us  hot p50/p99 {:>7}/{:>7} us  \
             hits {:>5}  misses {:>5}  stores {:>5}  evict {:>5}  [{:.0} ms]",
            name,
            o.served,
            o.shed,
            pctl(&o.lat_all, 0.50) / 1_000,
            pctl(&o.lat_all, 0.99) / 1_000,
            pctl(&o.lat_hot, 0.50) / 1_000,
            pctl(&o.lat_hot, 0.99) / 1_000,
            o.stat(|t| t.hits),
            o.stat(|t| t.misses),
            o.stat(|t| t.stores),
            o.stat(|t| t.evictions),
            o.elapsed_ms,
        );
    }

    let hot_p50_on = pctl(&on.lat_hot, 0.50);
    let hot_p50_off = pctl(&off.lat_hot, 0.50);
    let speedup = hot_p50_off as f64 / hot_p50_on.max(1) as f64;
    let (hits, misses) = (on.stat(|t| t.hits), on.stat(|t| t.misses));
    let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    println!(
        "verdict: hot-set p50 {} -> {} us with the cache on ({speedup:.1}x), hit ratio {:.1}%",
        hot_p50_off / 1_000,
        hot_p50_on / 1_000,
        100.0 * hit_ratio
    );

    let obj = |members: Vec<(&str, Json)>| {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let arm_json = |o: &CacheArmOut| {
        obj(vec![
            ("p50_ns", Json::Num(pctl(&o.lat_all, 0.50) as f64)),
            ("p99_ns", Json::Num(pctl(&o.lat_all, 0.99) as f64)),
            ("hot_p50_ns", Json::Num(pctl(&o.lat_hot, 0.50) as f64)),
            ("hot_p99_ns", Json::Num(pctl(&o.lat_hot, 0.99) as f64)),
            ("served", Json::Num(o.served as f64)),
            ("shed", Json::Num(o.shed as f64)),
            ("elapsed_ms", Json::Num(o.elapsed_ms)),
        ])
    };
    let section = obj(vec![
        (
            "config",
            obj(vec![
                ("requests", Json::Num(args.requests as f64)),
                ("keys", Json::Num(CACHE_KEYS as f64)),
                ("zipf_s", Json::Num(CACHE_ZIPF_S)),
                ("hot", Json::Num(CACHE_HOT as f64)),
                ("scale", Json::Num(args.scale)),
                ("ttl_ms", Json::Num(ttl_ms as f64)),
                ("seed", Json::Num(args.seed as f64)),
            ]),
        ),
        (
            "arms",
            obj(vec![
                ("cache_on", arm_json(&on)),
                ("cache_off", arm_json(&off)),
            ]),
        ),
        (
            "cache",
            obj(vec![
                ("hits", Json::Num(hits as f64)),
                ("misses", Json::Num(misses as f64)),
                ("stores", Json::Num(on.stat(|t| t.stores) as f64)),
                ("evictions", Json::Num(on.stat(|t| t.evictions) as f64)),
                ("hit_ratio", Json::Num(hit_ratio)),
                ("occupancy_bytes", Json::Num(on.snapshot.bytes as f64)),
                ("entries", Json::Num(on.snapshot.entries as f64)),
            ]),
        ),
        (
            "verdict",
            obj(vec![
                ("hot_p50_speedup", Json::Num(speedup)),
                ("hit_ratio", Json::Num(hit_ratio)),
            ]),
        ),
    ]);
    let path = std::path::Path::new(&out_path);
    pbo_bench::obs::merge_section(path, "cache", section).expect("write BENCH_cache.json");
    println!("merged \"cache\" section into {out_path}");

    if args.check {
        assert_eq!(on.shed + off.shed, 0, "cache scenario shed traffic");
        assert_eq!(
            on.served,
            schedule.len() as u64,
            "cache_on: not every request served"
        );
        assert_eq!(
            off.served,
            schedule.len() as u64,
            "cache_off: not every request served"
        );
        // The undeclared arm must never populate: opt-in is the default.
        assert_eq!(off.stat(|t| t.stores), 0, "cache_off arm stored responses");
        if chaos {
            // TTL-expiry storm: churn visible, the hot set never settles.
            assert!(
                on.stat(|t| t.evictions) > 0 && hit_ratio < 0.5,
                "chaos run did not thrash (evictions {}, hit ratio {hit_ratio:.2})",
                on.stat(|t| t.evictions),
            );
        } else {
            assert!(hits > 0, "cache never hit");
            assert!(
                speedup >= 5.0,
                "hot-set p50 speedup {speedup:.1}x below 5x (on {} us vs off {} us)",
                hot_p50_on / 1_000,
                hot_p50_off / 1_000,
            );
        }
        println!("check: OK");
    }
}
