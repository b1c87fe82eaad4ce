//! Integration: the adaptive per-class offload policy inside the live
//! datapath.
//!
//! Three contracts from the control-loop design:
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
//!   robustness soak uses.

use pbo_core::{ResilientSession, ServiceSchema, SessionConfig, SessionLayers};
use pbo_dpusim::route_prior;
use pbo_metrics::Registry;
use pbo_policy::{PolicyConfig, PolicyEngine, Route};
use pbo_protowire::workloads::{gen_char_array, gen_int_array, gen_small, paper_schema, Mt19937};
use pbo_protowire::{encode_message, DeserStats, NullSink, StackDeserializer};
use pbo_rpcrdma::{Config, RetryClass};
use pbo_simnet::{Fabric, FaultKind};
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
