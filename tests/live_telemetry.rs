//! Live-telemetry integration: a real datapath session wired to the
//! telemetry endpoint — deterministic faults must surface as flight
//! dumps, health degradation, and scrapeable metrics.

use pbo_core::{ResilientSession, ServiceSchema, SessionConfig, SessionLayers};
use pbo_metrics::{Registry, SlidingConfig, SloSpec, SloTracker};
use pbo_protowire::encode_message;
use pbo_protowire::workloads::{gen_small, paper_schema};
use pbo_rpcrdma::{Config, RetryClass};
use pbo_simnet::Fabric;
use pbo_telemetry::Telemetry;
use pbo_trace::{stages, FlightRecorder, TraceConfig, Tracer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn session_with(registry: &Arc<Registry>, label: &str, tracer: &Tracer) -> ResilientSession {
    let cfg = SessionConfig {
        breaker_threshold: 2,
        breaker_probe_every: 3,
        ..Default::default()
    };
    let layers = SessionLayers {
        tracer: tracer.clone(),
        ..SessionLayers::default()
    };
    let mut session = ResilientSession::with_layers(
        Fabric::new(),
        ServiceSchema::paper_bench(),
        Config::test_small(),
        Config::test_small(),
        registry.clone(),
        label,
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
    session
}

fn drive(session: &mut ResilientSession, done: &Arc<AtomicU64>, target: u64, wire: &[u8]) {
    let mut issued = done.load(Ordering::Relaxed);
    while done.load(Ordering::Relaxed) < target {
        while issued < target && issued - done.load(Ordering::Relaxed) < 8 {
            let d = done.clone();
            match session.call(
                1,
                wire,
                Box::new(move |_payload, _status| {
                    d.fetch_add(1, Ordering::Relaxed);
                }),
            ) {
                Ok(_) => issued += 1,
                Err(e) if e.retry_class() == RetryClass::Transient => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        session.tick(Duration::ZERO).unwrap();
    }
}

/// The acceptance scenario: a forced breaker trip (deterministic fault)
/// must produce a non-empty flight dump served at `/flight`, containing
/// the triggering event — with span sampling fully disabled, and within
/// the recorder's bounded memory.
#[test]
fn forced_breaker_trip_produces_flight_dump_at_flight_endpoint() {
    let registry = Arc::new(Registry::new());
    // Production shape: no span sampling. The flight recorder rides the
    // (otherwise disabled) tracer.
    let tracer = Tracer::disabled();
    let flight = FlightRecorder::new(64, 4);
    flight.bind_metrics(&registry);
    tracer.set_flight(&flight);

    let mut session = session_with(&registry, "lt0", &tracer);

    let telemetry = Telemetry::new(registry.clone());
    telemetry.attach_tracer(&tracer);
    assert_eq!(
        telemetry.handle("/flight").status,
        404,
        "no dump before the fault"
    );

    let wire = encode_message(&gen_small(&paper_schema()));
    let done = Arc::new(AtomicU64::new(0));
    drive(&mut session, &done, 20, &wire);

    // Deterministic fault: two forced offload failures trip the
    // threshold-2 breaker.
    session.client_mut().inject_offload_failures(2);
    drive(&mut session, &done, 60, &wire);
    assert_eq!(done.load(Ordering::Relaxed), 60, "no request lost");

    let resp = telemetry.handle("/flight");
    assert_eq!(resp.status, 200, "the trip produced a dump");
    assert!(
        resp.body.contains("flight:breaker_open"),
        "dump names its trigger: {}",
        resp.body
    );
    assert!(
        resp.body.contains("\"name\":\"breaker_open\""),
        "the triggering mark itself is in the ring: {}",
        resp.body
    );
    // Bounded memory: the ring never exceeds its configured capacity.
    assert!(flight.snapshot().len() <= flight.capacity());
    assert_eq!(
        registry.counter_value("flight_trigger_total", &[("reason", "breaker_open")]),
        Some(1)
    );

    // The health report reflects the episode.
    let health = telemetry.handle("/healthz");
    assert!(
        health.body.contains("\"breaker_trips\":1"),
        "{}",
        health.body
    );

    // And the scrape carries the peak gauges the fault exercised.
    let metrics = telemetry.handle("/metrics");
    assert!(metrics.body.contains("rpc_credits_in_use_peak"));
    assert!(metrics.body.contains("session_journal_depth_peak"));
    assert!(metrics
        .body
        .contains("flight_trigger_total{reason=\"breaker_open\"} 1"));
}

/// Reconnects are anomalies too: a forced failover must land a dump.
#[test]
fn forced_reconnect_triggers_flight_dump() {
    let registry = Arc::new(Registry::new());
    let tracer = Tracer::disabled();
    let flight = FlightRecorder::new(32, 2);
    tracer.set_flight(&flight);
    let mut session = session_with(&registry, "lt1", &tracer);

    let wire = encode_message(&gen_small(&paper_schema()));
    let done = Arc::new(AtomicU64::new(0));
    drive(&mut session, &done, 10, &wire);
    session.reconnect().unwrap();
    drive(&mut session, &done, 20, &wire);

    let dump = flight.last_dump().expect("reconnect fired a dump");
    assert_eq!(dump.reason, pbo_trace::triggers::RECONNECT);
    assert!(dump.records.iter().any(|r| r.mark));
}

/// Full wiring under sampling: spans feed the SLO tracker via the trace
/// sinks, and the scrape exports windowed burn rates alongside the
/// stage histograms.
#[test]
fn sampled_session_feeds_slo_tracker_through_trace_sinks() {
    let registry = Arc::new(Registry::new());
    let tracer = Tracer::new(TraceConfig::sampled(1));
    tracer.bind_registry(&registry);
    let slo = SloTracker::new(registry.clone(), SlidingConfig::seconds(10));
    // Generous objectives: this test asserts plumbing, not latency.
    slo.add(SloSpec::p99("deserialize_p99", stages::DESERIALIZE, 1e12));
    slo.add(SloSpec::p99("e2e_p99", stages::RESPONSE, 1e12));
    tracer.bind_slo(&slo);

    let mut session = session_with(&registry, "lt2", &tracer);

    let telemetry = Telemetry::new(registry.clone());
    telemetry.attach_tracer(&tracer);

    let wire = encode_message(&gen_small(&paper_schema()));
    let done = Arc::new(AtomicU64::new(0));
    drive(&mut session, &done, 50, &wire);

    let statuses = telemetry.evaluate();
    let e2e = statuses.iter().find(|s| s.name == "e2e_p99").unwrap();
    assert!(
        e2e.window_count > 0,
        "response spans reached the SLO window: {statuses:?}"
    );
    assert!(!e2e.violated);

    let scrape = telemetry.handle("/metrics").body;
    assert!(scrape.contains("slo_burn_rate{slo=\"deserialize_p99\"}"));
    assert!(scrape.contains("slo_violations_total{slo=\"e2e_p99\"} 0"));
    assert!(scrape.contains("pbo_trace_stage_ns"));
}
