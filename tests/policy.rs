//! Integration: the adaptive per-class offload policy inside the live
//! datapath.
//!
//! Four contracts from the control-loop design:
//!
//! * **per-class routing** — classes whose measured cost favors the DPU
//!   stay offloaded while char-heavy classes are served on the host, with
//!   periodic DPU probes keeping the host-resident estimate fresh;
//! * **breaker precedence** — a breaker-forced degrade is a *fault*
//!   response, never recorded as a policy decision, and when the breaker
//!   closes again routing returns to the policy's (possibly changed)
//!   verdict;
//! * **graceful misrouting** — a class flipped to the host mid-stream
//!   keeps the exactly-once replay contract across reconnects and the
//!   poison-quarantine contract, under the same chaos schedule the
//!   robustness soak uses;
//! * **adaptive beats static** — on a virtual-time model of the two
//!   stations, the learned split has a lower p99 than either pinned
//!   placement and stops flipping once converged.

use pbo_core::{ResilientSession, ServiceSchema, SessionConfig, SessionLayers};
use pbo_des::MultiServer;
use pbo_dpusim::{route_prior, PriorShape, RoutePrior};
use pbo_metrics::Registry;
use pbo_policy::{PolicyConfig, PolicyEngine, PolicySignals, Route};
use pbo_protowire::workloads::{gen_char_array, gen_int_array, gen_small, paper_schema, Mt19937};
use pbo_protowire::{encode_message, DeserStats, NullSink, StackDeserializer};
use pbo_rpcrdma::{Config, RetryClass};
use pbo_simnet::{Fabric, FaultKind};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One message class's measured work-unit profile: the wire bytes, the
/// stack deserializer's statistics over them, and the native footprint.
struct Profile {
    wire: Vec<u8>,
    stats: DeserStats,
    native_bytes: u64,
}

/// Builds the two profiles that straddle the hysteresis band: packed
/// ints (DPU-favored, ratio < exit_host_score) and long char arrays
/// (host-favored, ratio > enter_host_score).
fn profiles() -> (Profile, Profile) {
    let schema = paper_schema();
    let deser = StackDeserializer::new(&schema);
    let mut rng = Mt19937::new(99);
    let ints_wire = encode_message(&gen_int_array(&schema, &mut rng, 512));
    let chars_wire = encode_message(&gen_char_array(&schema, &mut rng, 8000));
    let ints_desc = schema.message("bench.IntArray").unwrap().clone();
    let chars_desc = schema.message("bench.CharArray").unwrap().clone();
    let ints_stats = deser
        .deserialize(&ints_desc, &ints_wire, &mut NullSink)
        .unwrap();
    let chars_stats = deser
        .deserialize(&chars_desc, &chars_wire, &mut NullSink)
        .unwrap();
    let chars_native = chars_wire.len() as u64 + 32;
    (
        Profile {
            wire: ints_wire,
            stats: ints_stats,
            native_bytes: 4 * 512 + 64,
        },
        Profile {
            wire: chars_wire,
            stats: chars_stats,
            native_bytes: chars_native,
        },
    )
}

/// Issues exactly one call and drives the session until its continuation
/// fires, asserting the response status.
fn call_one(session: &mut ResilientSession, proc_id: u16, wire: &[u8], expect: u16) {
    let done = Arc::new(AtomicU64::new(0));
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let d = done.clone();
        match session.call(
            proc_id,
            wire,
            Box::new(move |_payload, status| {
                assert_eq!(status, expect);
                d.fetch_add(1, Ordering::Relaxed);
            }),
        ) {
            Ok(_) => break,
            Err(e) if e.retry_class() == RetryClass::Transient => {
                assert!(Instant::now() < deadline, "backpressure never cleared");
                session.tick(Duration::ZERO).unwrap();
            }
            Err(e) => panic!("unexpected {e}"),
        }
    }
    while done.load(Ordering::Relaxed) == 0 {
        assert!(Instant::now() < deadline, "call wedged");
        session.tick(Duration::ZERO).unwrap();
    }
}

fn call_n(session: &mut ResilientSession, n: usize, proc_id: u16, wire: &[u8], expect: u16) {
    for _ in 0..n {
        call_one(session, proc_id, wire, expect);
    }
}

/// A DPU-favored class stays offloaded, a char-heavy class is served on
/// the host with every `probe_every`-th request sampling the DPU route,
/// and the decisions land in `policy_route_total{class,route}`.
#[test]
fn adaptive_routing_splits_classes_across_the_datapath() {
    let (ints, chars) = profiles();
    let registry = Arc::new(Registry::new());
    let cfg = PolicyConfig {
        probe_every: 5,
        ..PolicyConfig::default()
    };
    let ints_prior = route_prior(
        &ints.stats,
        ints.wire.len() as u64,
        ints.native_bytes,
        &cfg.shape,
    );
    let chars_prior = route_prior(
        &chars.stats,
        chars.wire.len() as u64,
        chars.native_bytes,
        &cfg.shape,
    );
    // Preconditions: the profiles straddle the hysteresis band, so the
    // initial placement rule alone splits them.
    assert!(ints_prior.dpu_ns / ints_prior.host_ns < cfg.exit_host_score);
    assert!(chars_prior.dpu_ns / chars_prior.host_ns > cfg.enter_host_score);
    let mut engine = PolicyEngine::new(cfg);
    engine.register_class(2, "ints512", Some(ints_prior), 0);
    engine.register_class(3, "chars8000", Some(chars_prior), 0);
    let layers = SessionLayers {
        policy: Some(engine),
        ..SessionLayers::default()
    };
    let mut session = ResilientSession::with_layers(
        Fabric::new(),
        ServiceSchema::paper_bench(),
        Config::test_small(),
        Config::test_small(),
        registry.clone(),
        "pol-a",
        SessionConfig::default(),
        layers,
    )
    .unwrap();
    session.register(2, Arc::new(|_view, _out| 0));
    session.register(3, Arc::new(|_view, _out| 0));

    for _ in 0..20 {
        call_one(&mut session, 2, &ints.wire, 0);
        call_one(&mut session, 3, &chars.wire, 0);
    }

    let c = |class: &str, route: &str| {
        registry.counter_value("policy_route_total", &[("class", class), ("route", route)])
    };
    assert_eq!(
        c("ints512", "dpu"),
        Some(20),
        "DPU-favored class stays offloaded"
    );
    assert_eq!(c("ints512", "host"), Some(0));
    // 20 host-class calls with probe_every=5: calls 5/10/15/20 sample the
    // DPU route to refresh the estimate, the rest stay on the host.
    assert_eq!(
        c("chars8000", "host"),
        Some(16),
        "host-favored class serves on host"
    );
    assert_eq!(c("chars8000", "dpu"), Some(4), "probes ride the DPU route");
    assert_eq!(
        registry.counter_value("policy_probes_total", &[("class", "chars8000")]),
        Some(4)
    );
    assert_eq!(
        registry.gauge_value("policy_route", &[("class", "ints512")]),
        Some(0)
    );
    assert_eq!(
        registry.gauge_value("policy_route", &[("class", "chars8000")]),
        Some(1)
    );
    // Steady traffic with stable costs: no flips on either class.
    assert_eq!(
        registry.counter_value("policy_flips_total", &[("class", "ints512")]),
        Some(0)
    );
    assert_eq!(
        registry.counter_value("policy_flips_total", &[("class", "chars8000")]),
        Some(0)
    );
    session.tick(Duration::ZERO).unwrap();
    assert_eq!(session.outstanding(), 0);
}

/// Breaker-forced degrades never touch the policy's metrics, and when
/// the breaker closes again routing returns to the policy's verdict —
/// including a verdict that changed while the breaker was open.
#[test]
fn breaker_degrades_are_not_policy_decisions_and_recovery_reconsults() {
    let (ints, chars) = profiles();
    let registry = Arc::new(Registry::new());
    let cfg = SessionConfig {
        breaker_threshold: 2,
        breaker_probe_every: 3,
        ..Default::default()
    };
    // Deterministic engine: no dwell, estimate fully replaced per
    // observation, no probes, and no background re-evaluation (the
    // session's tick-driven refresh is disabled so only this test's
    // explicit `reevaluate` calls can flip routes).
    let pcfg = PolicyConfig {
        dwell_ns: 0,
        ewma_alpha: 1.0,
        probe_every: 0,
        signal_refresh_ns: u64::MAX,
        ..PolicyConfig::default()
    };
    let prior = route_prior(
        &ints.stats,
        ints.wire.len() as u64,
        ints.native_bytes,
        &pcfg.shape,
    );
    let mut engine = PolicyEngine::new(pcfg);
    engine.register_class(1, "small", Some(prior), 0);
    let layers = SessionLayers {
        policy: Some(engine),
        ..SessionLayers::default()
    };
    let mut session = ResilientSession::with_layers(
        Fabric::new(),
        ServiceSchema::paper_bench(),
        Config::test_small(),
        Config::test_small(),
        registry.clone(),
        "pol-b",
        cfg,
        layers,
    )
    .unwrap();
    session.register(
        1,
        Arc::new(|view, out| {
            out.extend_from_slice(&view.get_u32(1).unwrap().to_le_bytes());
            0
        }),
    );
    let wire = encode_message(&gen_small(&paper_schema()));
    let labels = [("conn", "pol-b")];
    let dpu = |r: &Registry| {
        r.counter_value(
            "policy_route_total",
            &[("class", "small"), ("route", "dpu")],
        )
        .unwrap()
    };
    let host = |r: &Registry| {
        r.counter_value(
            "policy_route_total",
            &[("class", "small"), ("route", "host")],
        )
        .unwrap()
    };

    call_n(&mut session, 10, 1, &wire, 0);
    assert_eq!((dpu(&registry), host(&registry)), (10, 0));

    // Two injected offload failures trip the threshold-2 breaker. Both
    // calls consulted the policy (the breaker was closed when they were
    // issued) and both are then *served* degraded — but the forced host
    // trip is not a policy decision, so no host count appears.
    session.client_mut().inject_offload_failures(2);
    call_n(&mut session, 2, 1, &wire, 0);
    assert!(session.breaker_is_open());
    assert_eq!((dpu(&registry), host(&registry)), (12, 0));
    assert_eq!(
        registry.counter_value("session_degraded_calls_total", &labels),
        Some(2)
    );

    // While open the policy is neither consulted nor charged: two more
    // degraded calls leave every policy counter untouched.
    call_n(&mut session, 2, 1, &wire, 0);
    assert!(session.breaker_is_open());
    assert_eq!((dpu(&registry), host(&registry)), (12, 0));
    assert_eq!(
        registry.counter_value("session_degraded_calls_total", &labels),
        Some(4)
    );

    // The class's verdict changes *while the breaker is open*: feed a
    // char-heavy observation and re-evaluate — the policy now wants host.
    let p = session.policy_mut().unwrap();
    p.observe_stats(
        1,
        &chars.stats,
        chars.wire.len() as u64,
        chars.native_bytes,
        1_000,
    );
    p.reevaluate(1_000);
    assert_eq!(p.route_of(1), Some(Route::Host));
    assert_eq!(
        registry.counter_value("policy_flips_total", &[("class", "small")]),
        Some(1)
    );

    // The next call is the every-3rd breaker probe: it rides the native
    // path, succeeds, and closes the breaker — again without charging the
    // policy (a probe is the breaker's decision, not the policy's).
    call_one(&mut session, 1, &wire, 0);
    assert!(
        !session.breaker_is_open(),
        "probe success restored the path"
    );
    assert_eq!((dpu(&registry), host(&registry)), (12, 0));
    assert_eq!(
        registry.counter_value("session_breaker_restores_total", &labels),
        Some(1)
    );

    // Recovery re-consults the policy: the restored path now routes the
    // class to the host per the verdict that formed while degraded.
    call_n(&mut session, 4, 1, &wire, 0);
    assert_eq!((dpu(&registry), host(&registry)), (12, 4));
    assert_eq!(
        registry.gauge_value("policy_route", &[("class", "small")]),
        Some(1)
    );
    session.tick(Duration::ZERO).unwrap();
    assert_eq!(session.outstanding(), 0);
}

/// The chaos soak with a mid-stream policy flip: a class that starts
/// offloaded is flipped to the host halfway through a fault barrage, and
/// every robustness contract must hold on the new route — exactly-once
/// continuations across reconnect replays (the journal's mode byte
/// replays host-routed entries on the host route) and per-request poison
/// quarantine.
fn mid_stream_flip_soak(seed: u32) {
    const CAPACITY: usize = 800;
    let (ints, chars) = profiles();
    let bundle = ServiceSchema::paper_bench();
    let fabric = Fabric::new();
    let registry = Arc::new(Registry::new());
    let conn = format!("ps{seed}");
    fabric.faults().bind_metrics(&registry, &conn);

    let mut link_cfg = Config::test_small();
    link_cfg.stall_deadline = Some(Duration::from_millis(30));
    let cfg = SessionConfig {
        request_deadline: Some(Duration::from_millis(150)),
        reconnect_max_attempts: 16,
        reconnect_backoff: Duration::from_micros(50),
        breaker_threshold: 3,
        breaker_probe_every: 4,
        ..Default::default()
    };
    let pcfg = PolicyConfig {
        dwell_ns: 0,
        ewma_alpha: 1.0,
        probe_every: 0,
        signal_refresh_ns: u64::MAX,
        ..PolicyConfig::default()
    };
    let prior = route_prior(
        &ints.stats,
        ints.wire.len() as u64,
        ints.native_bytes,
        &pcfg.shape,
    );
    let mut engine = PolicyEngine::new(pcfg);
    engine.register_class(1, "small", Some(prior), 0);
    let layers = SessionLayers {
        policy: Some(engine),
        ..SessionLayers::default()
    };
    let mut session = ResilientSession::with_layers(
        fabric.clone(),
        bundle,
        link_cfg,
        link_cfg,
        registry.clone(),
        &conn,
        cfg,
        layers,
    )
    .unwrap();
    session.register(
        1,
        Arc::new(|view, out| {
            out.extend_from_slice(&view.get_u32(1).unwrap().to_le_bytes());
            0
        }),
    );
    assert_eq!(session.policy().unwrap().route_of(1), Some(Route::Dpu));

    // Chaos schedule: one guaranteed early connection kill plus a
    // seed-dependent probabilistic barrage, as in the robustness soak.
    let mut rng = Mt19937::new(seed);
    fabric
        .faults()
        .fail_nth(5 + rng.below(10) as u64, FaultKind::ConnectionKill);
    fabric.faults().schedule_probabilistic(
        seed as u64,
        30,
        25,
        &[
            FaultKind::ReceiverNotReady,
            FaultKind::DelayedCompletion,
            FaultKind::ConnectionKill,
        ],
    );

    let wire = encode_message(&gen_small(&paper_schema()));
    let counts: Arc<Vec<AtomicU64>> = Arc::new((0..CAPACITY).map(|_| AtomicU64::new(0)).collect());
    let done = Arc::new(AtomicU64::new(0));
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut issued = 0u64;
    let mut total = 240u64;
    let flip_at = total / 2;
    let mut dpu_at_flip: Option<u64> = None;
    let dpu_count = |r: &Registry| {
        r.counter_value(
            "policy_route_total",
            &[("class", "small"), ("route", "dpu")],
        )
        .unwrap()
    };

    while done.load(Ordering::Relaxed) < total {
        assert!(
            Instant::now() < deadline,
            "seed {seed}: soak wedged at {}/{total} ({} faults pending)",
            done.load(Ordering::Relaxed),
            fabric.faults().pending()
        );
        if dpu_at_flip.is_none() && done.load(Ordering::Relaxed) >= flip_at {
            // Mid-stream flip with calls still in flight: the in-flight
            // DPU-routed requests keep their journaled native mode; only
            // new decisions take the host route.
            let p = session.policy_mut().unwrap();
            p.observe_stats(
                1,
                &chars.stats,
                chars.wire.len() as u64,
                chars.native_bytes,
                1_000,
            );
            p.reevaluate(1_000);
            assert_eq!(
                p.route_of(1),
                Some(Route::Host),
                "seed {seed}: flip did not take"
            );
            dpu_at_flip = Some(dpu_count(&registry));
        }
        while issued < total && issued - done.load(Ordering::Relaxed) < 8 {
            let c = counts.clone();
            let d = done.clone();
            let i = issued as usize;
            match session.call(
                1,
                &wire,
                Box::new(move |payload, status| {
                    assert_eq!(status, 0, "request {i}: bad status");
                    assert_eq!(payload, 300u32.to_le_bytes(), "request {i}: bad payload");
                    c[i].fetch_add(1, Ordering::Relaxed);
                    d.fetch_add(1, Ordering::Relaxed);
                }),
            ) {
                Ok(_) => issued += 1,
                Err(e) if e.retry_class() == RetryClass::Transient => break,
                Err(e) => panic!("seed {seed}: unexpected {e}"),
            }
        }
        session.tick(Duration::ZERO).unwrap();
        if done.load(Ordering::Relaxed) >= total && fabric.faults().pending() > 0 {
            total += 50;
            assert!(
                total as usize <= CAPACITY - 100,
                "seed {seed}: fault never reached"
            );
        }
    }
    session.tick(Duration::ZERO).unwrap();
    assert_eq!(
        session.outstanding(),
        0,
        "seed {seed}: leftovers after chaos"
    );
    assert_eq!(fabric.faults().pending(), 0);
    let dpu_at_flip = dpu_at_flip.expect("flip point reached");

    // Deterministic mid-stream reconnect on the *host* route: accept a
    // batch without draining, kill the connection, and demand the journal
    // replays each entry on the route its mode byte recorded.
    let replay_floor = total;
    total += 8;
    while issued < total {
        let c = counts.clone();
        let d = done.clone();
        let i = issued as usize;
        session
            .call(
                1,
                &wire,
                Box::new(move |payload, status| {
                    assert_eq!(status, 0);
                    assert_eq!(payload, 300u32.to_le_bytes());
                    c[i].fetch_add(1, Ordering::Relaxed);
                    d.fetch_add(1, Ordering::Relaxed);
                }),
            )
            .unwrap();
        issued += 1;
    }
    session.reconnect().unwrap();
    while done.load(Ordering::Relaxed) < total {
        assert!(Instant::now() < deadline, "seed {seed}: replay wedged");
        session.tick(Duration::ZERO).unwrap();
    }
    assert_eq!(done.load(Ordering::Relaxed), replay_floor + 8);

    // Poison quarantine on the host route: malformed requests are failed
    // individually by the host-side deserializer (status 2, counted in
    // quarantined_requests_total{side="host"}), and the breaker — which
    // only watches the offload path — stays closed.
    let poison = [0x05u8];
    let poison_count = 8u64;
    let quarantined = Arc::new(AtomicU64::new(0));
    for _ in 0..poison_count {
        let q = quarantined.clone();
        session
            .call(
                1,
                &poison,
                Box::new(move |payload, status| {
                    assert_eq!(status, 2, "host-route poison fails with status 2");
                    assert!(payload.is_empty());
                    q.fetch_add(1, Ordering::Relaxed);
                }),
            )
            .unwrap();
    }
    let quarantine_deadline = Instant::now() + Duration::from_secs(30);
    while quarantined.load(Ordering::Relaxed) < poison_count {
        assert!(
            Instant::now() < quarantine_deadline,
            "seed {seed}: quarantine wedged"
        );
        session.tick(Duration::ZERO).unwrap();
    }
    assert!(
        !session.breaker_is_open(),
        "seed {seed}: host-route poison must not trip the offload breaker"
    );
    assert_eq!(
        registry.counter_value(
            "quarantined_requests_total",
            &[("conn", &conn), ("side", "host")]
        ),
        Some(poison_count),
        "seed {seed}: poison counted on the host side"
    );

    // Exactly-once: every good request's continuation fired exactly once,
    // across every reconnect and replay, on whichever route served it.
    for (i, c) in counts.iter().enumerate().take(issued as usize) {
        assert_eq!(
            c.load(Ordering::Relaxed),
            1,
            "seed {seed}: request {i} continuation fired a wrong number of times"
        );
    }
    // Policy invariants: exactly the one commanded flip, the class ends
    // on the host, and the DPU tally is frozen from the flip point on
    // (no probes, no breaker trips — nothing else may ride the DPU).
    assert_eq!(
        registry.counter_value("policy_flips_total", &[("class", "small")]),
        Some(1),
        "seed {seed}: exactly one flip"
    );
    assert_eq!(
        registry.gauge_value("policy_route", &[("class", "small")]),
        Some(1)
    );
    assert_eq!(
        dpu_count(&registry),
        dpu_at_flip,
        "seed {seed}: DPU route used after the flip"
    );
    assert!(
        registry
            .counter_value("session_replayed_requests_total", &[("conn", &conn)])
            .unwrap()
            >= 8,
        "seed {seed}: forced reconnect replayed the host-routed batch"
    );
    assert_eq!(session.outstanding(), 0);
}

#[test]
fn mid_stream_flip_soak_seed_1() {
    mid_stream_flip_soak(1);
}

#[test]
fn mid_stream_flip_soak_seed_2() {
    mid_stream_flip_soak(2);
}

#[test]
fn mid_stream_flip_soak_seed_3() {
    mid_stream_flip_soak(3);
}

// ---------------------------------------------------------------------------
// Adaptive vs static placement, in virtual time.
// ---------------------------------------------------------------------------

/// One class of the placement mix: its procedure id, the real work-unit
/// profile of a representative message, and its mean arrival rate
/// (requests per virtual second).
struct MixClass {
    proc_id: u16,
    profile: Profile,
    rate: f64,
    /// Bursty classes send all their traffic in the first third of each
    /// [`BURST_PERIOD_NS`], at three times the mean rate.
    bursty: bool,
}

/// Virtual length of the replayed schedule.
const MIX_HORIZON_NS: u64 = 20_000_000;
/// On/off period of the bursty class.
const BURST_PERIOD_NS: u64 = 2_000_000;
/// Utilisation each station carries under the right split.
const TARGET_UTIL: f64 = 0.65;
/// How often the control loop scrapes its signal and re-evaluates.
const EVAL_EVERY_NS: u64 = 50_000;

/// The three paper workloads, rated so that under the split the priors
/// predict (Ints512 and Small on the DPU, Chars8000 on the host) each
/// station runs at [`TARGET_UTIL`]: Ints takes 90 % of the DPU's budget,
/// the bursty Small class the rest, Chars all of the host's.
fn placement_mix(shape: &PriorShape) -> Vec<MixClass> {
    let schema = paper_schema();
    let deser = StackDeserializer::new(&schema);
    let mut rng = Mt19937::new(7);
    let profile = |wire: Vec<u8>, type_name: &str, native_bytes: u64| {
        let desc = schema.message(type_name).unwrap().clone();
        let stats = deser.deserialize(&desc, &wire, &mut NullSink).unwrap();
        Profile {
            wire,
            stats,
            native_bytes,
        }
    };
    let small = profile(encode_message(&gen_small(&schema)), "bench.Small", 64);
    let ints = profile(
        encode_message(&gen_int_array(&schema, &mut rng, 512)),
        "bench.IntArray",
        4 * 512 + 64,
    );
    let chars = profile(
        encode_message(&gen_char_array(&schema, &mut rng, 8000)),
        "bench.CharArray",
        8000 + 32,
    );
    // Station loads are in host-core units (see `service_ns`), so a
    // class's share of a station is rate × prior / host_cores.
    let rate = |p: &Profile, share: f64, dpu: bool| {
        let prior = prior_of(p, shape);
        let ns = if dpu { prior.dpu_ns } else { prior.host_ns };
        share * TARGET_UTIL * shape.host_cores / (ns * 1e-9)
    };
    vec![
        MixClass {
            proc_id: 1,
            rate: rate(&small, 0.1, true),
            profile: small,
            bursty: true,
        },
        MixClass {
            proc_id: 2,
            rate: rate(&ints, 0.9, true),
            profile: ints,
            bursty: false,
        },
        MixClass {
            proc_id: 3,
            rate: rate(&chars, 1.0, false),
            profile: chars,
            bursty: false,
        },
    ]
}

fn prior_of(p: &Profile, shape: &PriorShape) -> RoutePrior {
    route_prior(&p.stats, p.wire.len() as u64, p.native_bytes, shape)
}

/// Service time of one request at the station its route lands on,
/// priced by the route prior: the prior normalises DPU work to host-core
/// units (`cores_ratio`), so one DPU core spends `dpu_ns / cores_ratio`.
fn service_ns(prior: &RoutePrior, route: Route, shape: &PriorShape) -> u64 {
    match route {
        Route::Host => prior.host_ns,
        _ => prior.dpu_ns / shape.cores_ratio(),
    }
    .round() as u64
}

/// The seeded open-loop arrival schedule every arm replays:
/// `(arrival_ns, class index)`, Poisson per class, sorted by arrival.
fn placement_schedule(mix: &[MixClass], seed: u32) -> Vec<(u64, usize)> {
    let mut rng = Mt19937::new(seed);
    let mut schedule = Vec::new();
    for (ci, c) in mix.iter().enumerate() {
        let (rate, on_ns) = if c.bursty {
            (3.0 * c.rate, BURST_PERIOD_NS / 3)
        } else {
            (c.rate, BURST_PERIOD_NS)
        };
        let mut t = 0.0f64;
        loop {
            let u = (rng.below(1 << 30) as f64 + 1.0) / (1u64 << 30) as f64;
            t += -u.ln() / rate * 1e9;
            if t >= MIX_HORIZON_NS as f64 {
                break;
            }
            if t as u64 % BURST_PERIOD_NS < on_ns {
                schedule.push((t as u64, ci));
            }
        }
    }
    schedule.sort_unstable();
    schedule
}

/// Outcome of one arm over the schedule. The stations are unbounded
/// FIFO queues, so no arm sheds: every arm answers the same requests.
struct ArmOut {
    p99_ns: u64,
    flips: u64,
    flips_after_convergence: u64,
    /// Each class's route when the schedule ends, in mix order.
    final_routes: Vec<Option<Route>>,
}

/// Replays `schedule` through two FIFO multi-server stations — the DPU
/// with twice the host's cores — routing each request with `policy` on
/// the virtual clock. Offloaded requests feed their work-unit counts back
/// (as the datapath does); the DPU station's backlog is the control
/// loop's queue-depth signal.
fn run_placement(
    mut policy: PolicyEngine,
    shape: &PriorShape,
    mix: &[MixClass],
    schedule: &[(u64, usize)],
) -> ArmOut {
    let priors: Vec<RoutePrior> = mix.iter().map(|c| prior_of(&c.profile, shape)).collect();
    for c in mix {
        policy.register_class(c.proc_id, &format!("class{}", c.proc_id), None, 0);
    }
    let mut dpu = MultiServer::new(shape.dpu_cores as usize);
    let mut host = MultiServer::new(shape.host_cores as usize);
    let mut dpu_in_system: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
    let mut latencies = Vec::with_capacity(schedule.len());
    let mut next_eval = 0;
    let mut flips_at_midpoint = None;
    for &(now, ci) in schedule {
        while dpu_in_system.peek().is_some_and(|&Reverse(end)| end <= now) {
            dpu_in_system.pop();
        }
        if now >= next_eval {
            let backlog = dpu_in_system.len().saturating_sub(dpu.servers());
            policy.set_signals(PolicySignals {
                queue_depth: backlog as i64,
                ..PolicySignals::default()
            });
            policy.reevaluate(now);
            next_eval = now + EVAL_EVERY_NS;
        }
        if flips_at_midpoint.is_none() && now >= MIX_HORIZON_NS / 2 {
            flips_at_midpoint = Some(policy.total_flips());
        }
        let c = &mix[ci];
        let route = policy.route(c.proc_id, now).route;
        let service = service_ns(&priors[ci], route, shape);
        let done = if route == Route::Host {
            host.submit(now, service)
        } else {
            let p = &c.profile;
            policy.observe_stats(
                c.proc_id,
                &p.stats,
                p.wire.len() as u64,
                p.native_bytes,
                now,
            );
            let done = dpu.submit(now, service);
            dpu_in_system.push(Reverse(done.end));
            done
        };
        latencies.push(done.end - now);
    }
    latencies.sort_unstable();
    let flips = policy.total_flips();
    ArmOut {
        p99_ns: latencies[latencies.len() * 99 / 100],
        flips,
        flips_after_convergence: flips - flips_at_midpoint.unwrap_or(flips),
        final_routes: mix.iter().map(|c| policy.route_of(c.proc_id)).collect(),
    }
}

/// The adaptive per-class split beats both static placements on p99 over
/// the identical seeded schedule: all-DPU overloads the DPU with the
/// char-heavy class (the §V SIMD caveat), all-host overloads the host
/// with the flat-scalar class the DPU deserializes cheaper per fleet
/// core. The adaptive engine starts with no prior, learns the split from
/// the work-unit counts it is fed, and stops flipping once it has.
#[test]
fn adaptive_placement_beats_both_static_placements_in_virtual_time() {
    // One host core against two DPU cores: the prior's 2x core ratio.
    let shape = PriorShape {
        host_cores: 1.0,
        dpu_cores: 2.0,
        ..PriorShape::default()
    };
    let mix = placement_mix(&shape);
    let schedule = placement_schedule(&mix, 11);
    let adaptive = run_placement(
        PolicyEngine::new(PolicyConfig {
            dwell_ns: 250_000,
            shape,
            ..PolicyConfig::default()
        }),
        &shape,
        &mix,
        &schedule,
    );
    let all_dpu = run_placement(PolicyEngine::pinned(Route::Dpu), &shape, &mix, &schedule);
    let all_host = run_placement(PolicyEngine::pinned(Route::Host), &shape, &mix, &schedule);
    eprintln!(
        "{} requests; p99 adaptive {} ns, all-DPU {} ns, all-host {} ns; adaptive flips {}",
        schedule.len(),
        adaptive.p99_ns,
        all_dpu.p99_ns,
        all_host.p99_ns,
        adaptive.flips
    );

    assert!(
        adaptive.p99_ns < all_dpu.p99_ns,
        "adaptive p99 {} ns lost to all-DPU {} ns",
        adaptive.p99_ns,
        all_dpu.p99_ns
    );
    assert!(
        adaptive.p99_ns < all_host.p99_ns,
        "adaptive p99 {} ns lost to all-host {} ns",
        adaptive.p99_ns,
        all_host.p99_ns
    );
    // Small's cost ratio sits inside the hysteresis band, so either
    // route is stable for it; the other two classes must have split.
    assert_eq!(
        adaptive.final_routes[1..],
        [Some(Route::Dpu), Some(Route::Host)],
        "the engine did not learn the split (Ints512 on the DPU, Chars8000 on the host)"
    );
    assert_eq!(
        adaptive.flips_after_convergence, 0,
        "adaptive placement still flapping after convergence"
    );
    assert_eq!(all_dpu.flips + all_host.flips, 0);
}
