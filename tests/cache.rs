//! Integration: the DPU-side response cache for idempotent RPCs.
//!
//! Correctness contract under test, end to end:
//!
//! * hits short-circuit the datapath (no deserialize / credit wait /
//!   DMA / host dispatch on the hit path — verified by trace purity),
//! * misses populate exactly once and TTL lapse re-populates,
//! * `CACHE_INVALIDATE` control messages ride the response stream from
//!   host to DPU and drop the class before the next lookup,
//! * quarantined, shed, and breaker-degraded responses are NEVER cached,
//! * breaker trips and lease failovers flush, and the epoch bump keeps
//!   journal replays from re-populating state the flush dropped,
//! * eviction never exceeds the byte/entry budgets or per-tenant quotas
//!   (property-tested), and
//! * the whole contract holds under a seeded chaos schedule with
//!   invalidations racing crashes (exactly-once continuations).

use pbo_core::compat::PayloadMode;
use pbo_core::terminator::{ForwardMode, ForwardRequest, Layers};
use pbo_core::{
    CacheConfig, CompatServer, OffloadClient, ResilientSession, ResponseCache, SchedConfig,
    ServiceSchema, SessionConfig, SessionLayers, StoreOutcome, TenantScheduler, TenantSpec,
    XrpcTerminator, STATUS_QUARANTINED, STATUS_SHED,
};
use pbo_grpc::GrpcChannel;
use pbo_metrics::Registry;
use pbo_protowire::encode_message;
use pbo_protowire::workloads::{gen_int_array, gen_small, paper_schema, Mt19937};
use pbo_rpcrdma::{establish, Config, LeaseState, RetryClass};
use pbo_simnet::{Fabric, FaultKind, TcpFabric};
use pbo_trace::{stages, Span, TraceConfig, Tracer};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A [`ResilientSession`] with proc 1 registered (echoes field 1 as LE
/// bytes) and a response cache installed with proc 1 declared cachable.
fn cached_session(
    label: &str,
    session_cfg: SessionConfig,
    cache_cfg: CacheConfig,
) -> (ResilientSession, Arc<Registry>, Fabric) {
    scheduled_cached_session(label, session_cfg, cache_cfg, None)
}

/// [`cached_session`] with a tenant scheduler (metrics bound to the
/// session's registry) in front of [`ResilientSession::call_tenant`].
fn scheduled_cached_session(
    label: &str,
    session_cfg: SessionConfig,
    cache_cfg: CacheConfig,
    sched_cfg: Option<SchedConfig>,
) -> (ResilientSession, Arc<Registry>, Fabric) {
    let fabric = Fabric::new();
    let registry = Arc::new(Registry::new());
    let cache = ResponseCache::new(cache_cfg);
    cache.declare_default(1);
    let sched = sched_cfg.map(|cfg| {
        let mut sched: TenantScheduler<()> = TenantScheduler::new(cfg);
        sched.bind_metrics(&registry);
        sched
    });
    let layers = SessionLayers {
        sched,
        cache: Some(cache),
        ..SessionLayers::default()
    };
    let mut session = ResilientSession::with_layers(
        fabric.clone(),
        ServiceSchema::paper_bench(),
        Config::test_small(),
        Config::test_small(),
        registry.clone(),
        label,
        session_cfg,
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
    (session, registry, fabric)
}

/// Shared slot a continuation fills with `(payload, status)`.
type CallOut = Arc<parking_lot::Mutex<Option<(Vec<u8>, u16)>>>;

/// Issues one call and ticks the session until the continuation fires.
/// Returns (payload, status).
fn call_and_drain(session: &mut ResilientSession, proc_id: u16, wire: &[u8]) -> (Vec<u8>, u16) {
    let out: CallOut = Arc::new(parking_lot::Mutex::new(None));
    let o = out.clone();
    session
        .call(
            proc_id,
            wire,
            Box::new(move |payload, status| {
                *o.lock() = Some((payload.to_vec(), status));
            }),
        )
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while out.lock().is_none() {
        assert!(Instant::now() < deadline, "call never completed");
        session.tick(Duration::ZERO).unwrap();
    }
    let got = out.lock().take().unwrap();
    got
}

// ---------------------------------------------------------------------------
// Hit / miss / TTL / invalidate through the session.
// ---------------------------------------------------------------------------

#[test]
fn session_miss_populates_and_hit_short_circuits() {
    let (mut session, registry, _fabric) =
        cached_session("ch", SessionConfig::default(), CacheConfig::default());
    let wire = encode_message(&gen_small(&paper_schema()));

    // Miss: the native path serves it and the completion populates.
    let (payload, status) = call_and_drain(&mut session, 1, &wire);
    assert_eq!(status, 0);
    assert_eq!(payload, 300u32.to_le_bytes());
    assert_eq!(session.cache().unwrap().len(), 1);

    // Hit: the continuation fires synchronously inside `call`, before
    // any tick — nothing is enqueued, journaled, or sent on the wire.
    let hit = Arc::new(AtomicU64::new(0));
    let h = hit.clone();
    session
        .call(
            1,
            &wire,
            Box::new(move |payload, status| {
                assert_eq!(status, 0);
                assert_eq!(payload, 300u32.to_le_bytes());
                h.fetch_add(1, Ordering::Relaxed);
            }),
        )
        .unwrap();
    assert_eq!(hit.load(Ordering::Relaxed), 1, "hit must answer inline");
    assert_eq!(session.outstanding(), 0, "hit must not touch the wire");

    let t = [("tenant", pbo_grpc::DEFAULT_TENANT)];
    assert_eq!(registry.counter_value("cache_hits_total", &t), Some(1));
    assert_eq!(registry.counter_value("cache_misses_total", &t), Some(1));
    assert_eq!(registry.counter_value("cache_stores_total", &t), Some(1));
    // A hit never journals: the journal-depth gauge stays flat at zero.
    assert_eq!(
        registry.gauge_value("session_journal_depth", &[("conn", "ch")]),
        Some(0)
    );
}

#[test]
fn ttl_lapse_is_a_miss_that_repopulates() {
    let (mut session, registry, _fabric) =
        cached_session("ttl", SessionConfig::default(), CacheConfig::default());
    // Re-declare proc 1 with a 2 ms TTL (overrides the helper's default).
    session.cache().unwrap().declare(1, 2_000_000);
    let wire = encode_message(&gen_small(&paper_schema()));

    call_and_drain(&mut session, 1, &wire);
    assert_eq!(session.cache().unwrap().len(), 1);
    std::thread::sleep(Duration::from_millis(5));

    // Expired: the lookup drops the entry and the call takes the native
    // path again, re-populating with a fresh stored_ns.
    let (payload, status) = call_and_drain(&mut session, 1, &wire);
    assert_eq!((payload.as_slice(), status), (&300u32.to_le_bytes()[..], 0));
    assert_eq!(registry.counter_value("cache_expired_total", &[]), Some(1));
    assert_eq!(
        registry.counter_value(
            "cache_misses_total",
            &[("tenant", pbo_grpc::DEFAULT_TENANT)]
        ),
        Some(2),
        "TTL lapse must count as a miss"
    );
    assert_eq!(
        session.cache().unwrap().len(),
        1,
        "re-populated after expiry"
    );
}

#[test]
fn explicit_invalidation_drops_the_class() {
    let (mut session, registry, _fabric) =
        cached_session("inv", SessionConfig::default(), CacheConfig::default());
    let wire = encode_message(&gen_small(&paper_schema()));
    call_and_drain(&mut session, 1, &wire);
    assert_eq!(session.cache().unwrap().len(), 1);

    assert_eq!(session.cache().unwrap().invalidate_class(1), 1);
    assert!(session.cache().unwrap().is_empty());
    assert_eq!(
        registry.counter_value("cache_invalidations_total", &[]),
        Some(1)
    );

    // The next identical call is a miss and re-populates.
    call_and_drain(&mut session, 1, &wire);
    assert_eq!(session.cache().unwrap().len(), 1);
}

// ---------------------------------------------------------------------------
// CACHE_INVALIDATE control messages ride the RPC-over-RDMA wire.
// ---------------------------------------------------------------------------

#[test]
fn invalidate_control_message_rides_the_response_stream() {
    let bundle = ServiceSchema::paper_bench();
    let fabric = Fabric::new();
    let registry = Registry::new();
    let adt = bundle.adt_bytes();
    let ep = establish(
        &fabric,
        Config::test_small(),
        Config::test_small(),
        &registry,
        "cw",
        Some(&adt),
    );
    let mut client =
        OffloadClient::new(ep.client, bundle.clone(), ep.control_blob.as_deref()).unwrap();
    let mut server = CompatServer::new(ep.server, PayloadMode::Native);
    server.register_empty_logic(&bundle, 1);

    // Queue two invalidations host-side; they ride the next response
    // block's control records (the reserved selector band), so a request
    // must flow to flush them out.
    server.push_cache_invalidate(1);
    server.push_cache_invalidate(7);
    let done = Arc::new(AtomicU64::new(0));
    let d = done.clone();
    let wire = encode_message(&gen_small(&paper_schema()));
    client
        .call_offloaded(
            1,
            &wire,
            Box::new(move |_p, s| {
                assert_eq!(s, 0);
                d.fetch_add(1, Ordering::Relaxed);
            }),
        )
        .unwrap();
    client.rpc().flush().unwrap();
    server.event_loop(Duration::ZERO).unwrap();
    client.event_loop(Duration::ZERO).unwrap();
    assert_eq!(done.load(Ordering::Relaxed), 1);

    // The client parked both classes for the cache layer, in order, and
    // the drain is destructive (second take is empty).
    assert_eq!(client.rpc().take_cache_invalidations(), vec![1, 7]);
    assert!(client.rpc().take_cache_invalidations().is_empty());
}

// ---------------------------------------------------------------------------
// Resilience interplay: quarantine / shed / degraded / failover / replay.
// ---------------------------------------------------------------------------

#[test]
fn quarantined_responses_are_never_cached() {
    let (mut session, registry, _fabric) =
        cached_session("q", SessionConfig::default(), CacheConfig::default());
    let poison = [0x05u8]; // tag with field number 0: structurally invalid
    let q = Arc::new(AtomicU64::new(0));
    for _ in 0..4 {
        let qq = q.clone();
        session
            .call(
                1,
                &poison,
                Box::new(move |payload, status| {
                    assert_eq!(status, STATUS_QUARANTINED);
                    assert!(payload.is_empty());
                    qq.fetch_add(1, Ordering::Relaxed);
                }),
            )
            .unwrap();
    }
    assert_eq!(q.load(Ordering::Relaxed), 4);
    assert!(session.cache().unwrap().is_empty());
    assert_eq!(
        registry.counter_value(
            "cache_stores_total",
            &[("tenant", pbo_grpc::DEFAULT_TENANT)]
        ),
        None,
        "quarantined responses must never store"
    );
    // Belt and suspenders: even offered directly, poison bytes are
    // rejected as malformed framing.
    let cache = session.cache().unwrap();
    assert_eq!(
        cache.store(pbo_grpc::DEFAULT_TENANT, 1, &poison, b"x", 0, cache.epoch()),
        StoreOutcome::Malformed
    );
}

#[test]
fn shed_responses_are_never_cached() {
    // Burst-1 bucket: the first call is admitted, an immediate second is
    // shed before it reaches the cache or the datapath.
    let sched_cfg = SchedConfig {
        tenants: vec![TenantSpec::new("hog", 1)],
        bucket_rate: 1.0,
        bucket_burst: 1.0,
        ..SchedConfig::default()
    };
    let (mut session, _registry, _fabric) = scheduled_cached_session(
        "shed",
        SessionConfig::default(),
        CacheConfig::default(),
        Some(sched_cfg),
    );

    let admitted_wire = encode_message(&gen_small(&paper_schema()));
    let mut rng = Mt19937::new(5);
    let shed_wire = encode_message(&gen_int_array(&paper_schema(), &mut rng, 8));

    let served = Arc::new(AtomicU64::new(0));
    let s = served.clone();
    session
        .call_tenant(
            "hog",
            1,
            &admitted_wire,
            Box::new(move |_p, status| {
                assert_eq!(status, 0);
                s.fetch_add(1, Ordering::Relaxed);
            }),
        )
        .unwrap();
    let shed = Arc::new(AtomicU64::new(0));
    for _ in 0..8 {
        let sh = shed.clone();
        session
            .call_tenant(
                "hog",
                1,
                &shed_wire,
                Box::new(move |payload, status| {
                    assert_eq!(status, STATUS_SHED);
                    assert!(payload.is_empty());
                    sh.fetch_add(1, Ordering::Relaxed);
                }),
            )
            .unwrap();
    }
    assert_eq!(shed.load(Ordering::Relaxed), 8, "burst-1 bucket must shed");
    let deadline = Instant::now() + Duration::from_secs(10);
    while served.load(Ordering::Relaxed) < 1 {
        assert!(Instant::now() < deadline);
        session.tick(Duration::ZERO).unwrap();
    }
    // Only the admitted request's response landed; the shed wire is
    // absent even though its continuations fired with a response-shaped
    // (status, payload) pair.
    let cache = session.cache().unwrap();
    assert_eq!(cache.len(), 1);
    let now = 1u64;
    assert!(cache.lookup("hog", 1, &admitted_wire, now).is_some());
    assert!(cache.lookup("hog", 1, &shed_wire, now).is_none());
}

#[test]
fn breaker_trip_flushes_and_degraded_responses_never_cache() {
    let cfg = SessionConfig {
        breaker_threshold: 2,
        breaker_probe_every: 2,
        ..SessionConfig::default()
    };
    let (mut session, registry, _fabric) = cached_session("brk", cfg, CacheConfig::default());
    let wire_a = encode_message(&gen_small(&paper_schema()));
    // A second, distinct bench.Small wire: field 1 = 42 (the handler
    // echoes it), so it keys differently from wire_a.
    let wire_b = [0x08u8, 42];

    // Pre-trip state: A is cached.
    call_and_drain(&mut session, 1, &wire_a);
    assert_eq!(session.cache().unwrap().len(), 1);

    // Force an offload-failure burst: the breaker trips after 2 failures
    // and the trip flushes the cache. While it is open, every completed
    // call is either breaker-degraded (host deserialize) or a probe;
    // degraded responses must never store, so the cache stays empty
    // until the breaker closes again.
    session.client_mut().inject_offload_failures(3);
    let done = Arc::new(AtomicU64::new(0));
    let mut issued = 0u64;
    let mut saw_open = false;
    let deadline = Instant::now() + Duration::from_secs(30);
    while session.breaker_is_open() || !saw_open || done.load(Ordering::Relaxed) < issued {
        assert!(Instant::now() < deadline, "breaker cycle wedged");
        if session.breaker_is_open() {
            saw_open = true;
            assert!(
                session.cache().unwrap().is_empty(),
                "open breaker: trip must have flushed and degraded calls must not store"
            );
        }
        if issued - done.load(Ordering::Relaxed) < 4 {
            let d = done.clone();
            match session.call(
                1,
                &wire_b,
                Box::new(move |payload, status| {
                    assert_eq!(status, 0);
                    assert_eq!(payload, 42u32.to_le_bytes());
                    d.fetch_add(1, Ordering::Relaxed);
                }),
            ) {
                Ok(_) => issued += 1,
                Err(e) if e.retry_class() == RetryClass::Transient => {}
                Err(e) => panic!("unexpected {e}"),
            }
        }
        session.tick(Duration::ZERO).unwrap();
    }
    assert!(saw_open, "injected failures must trip the breaker");
    assert!(
        registry
            .counter_value("cache_flushes_total", &[])
            .unwrap_or(0)
            >= 1,
        "breaker trip must flush"
    );
    // A is gone for good — only a fresh native miss can repopulate.
    let now_ns = 1u64;
    assert!(session
        .cache()
        .unwrap()
        .lookup(pbo_grpc::DEFAULT_TENANT, 1, &wire_a, now_ns)
        .is_none());
    // Closed again: the native path stores as usual.
    call_and_drain(&mut session, 1, &wire_a);
    assert!(session
        .cache()
        .unwrap()
        .lookup(pbo_grpc::DEFAULT_TENANT, 1, &wire_a, now_ns)
        .is_some());
}

#[test]
fn failover_flushes_and_replay_never_double_populates() {
    let (mut session, registry, _fabric) =
        cached_session("fo", SessionConfig::default(), CacheConfig::default());
    let wire = encode_message(&gen_small(&paper_schema()));

    call_and_drain(&mut session, 1, &wire);
    assert_eq!(session.cache().unwrap().len(), 1);
    let stores_before = registry
        .counter_value(
            "cache_stores_total",
            &[("tenant", pbo_grpc::DEFAULT_TENANT)],
        )
        .unwrap();

    // Accept a window without draining, then kill the DPU: the failover
    // flushes the cache and replays the journal host-side. The in-flight
    // requests' store wrappers were armed under the pre-flush epoch, so
    // the replayed responses are StaleEpoch no-ops — the cache must stay
    // empty even though every continuation fires with status 0.
    let done = Arc::new(AtomicU64::new(0));
    for _ in 0..8 {
        let d = done.clone();
        session
            .call(
                1,
                &wire,
                Box::new(move |payload, status| {
                    assert_eq!(status, 0);
                    assert_eq!(payload, 300u32.to_le_bytes());
                    d.fetch_add(1, Ordering::Relaxed);
                }),
            )
            .unwrap();
    }
    session.declare_dpu_dead();
    let deadline = Instant::now() + Duration::from_secs(30);
    while done.load(Ordering::Relaxed) < 8 {
        assert!(Instant::now() < deadline, "failover replay wedged");
        session.tick(Duration::ZERO).unwrap();
    }
    assert_eq!(session.lease_state(), LeaseState::Dead);
    assert!(
        session.cache().unwrap().is_empty(),
        "replayed journal entries must not re-populate a flushed cache"
    );
    assert_eq!(
        registry.counter_value(
            "cache_stores_total",
            &[("tenant", pbo_grpc::DEFAULT_TENANT)]
        ),
        Some(stores_before),
        "no store may land across the failover"
    );

    // While the lease is Dead the cache is out of the path entirely:
    // host-direct calls neither hit nor store.
    let (payload, status) = call_and_drain(&mut session, 1, &wire);
    assert_eq!((payload.as_slice(), status), (&300u32.to_le_bytes()[..], 0));
    assert!(session.cache().unwrap().is_empty());
    assert_eq!(
        registry.counter_value(
            "cache_stores_total",
            &[("tenant", pbo_grpc::DEFAULT_TENANT)]
        ),
        Some(stores_before)
    );
}

// ---------------------------------------------------------------------------
// Terminator datapath: hits short-circuit, with trace purity.
// ---------------------------------------------------------------------------

/// Stage names a cache hit must never co-occur with: the stages the
/// cache exists to skip (plus the block/write machinery behind them).
const FORBIDDEN_ON_HIT: [&str; 6] = [
    stages::DESERIALIZE,
    stages::BLOCK_BUILD,
    stages::CREDIT_WAIT,
    stages::RDMA_WRITE,
    stages::DMA,
    stages::HOST_DISPATCH,
];

#[test]
fn terminator_hits_short_circuit_the_datapath_with_pure_traces() {
    let bundle = ServiceSchema::paper_bench();
    let rdma = Fabric::new();
    let tcp = TcpFabric::new();
    let registry = Arc::new(Registry::new());
    let tracer = Tracer::new(TraceConfig::sampled(1));
    let adt_bytes = bundle.adt_bytes();
    let ep = establish(
        &rdma,
        Config::test_small(),
        Config::test_small(),
        &registry,
        "tc",
        Some(&adt_bytes),
    );
    let client = OffloadClient::new(ep.client, bundle.clone(), ep.control_blob.as_deref()).unwrap();
    let mut server = CompatServer::new(ep.server, PayloadMode::Native);
    server.set_tracer(&tracer, "tc");
    server.register_empty_logic(&bundle, 1);
    let host_stop = Arc::new(AtomicBool::new(false));
    let hs = host_stop.clone();
    let host = std::thread::spawn(move || {
        while !hs.load(Ordering::Acquire) {
            server.event_loop(Duration::from_millis(1)).unwrap();
        }
    });

    let sched: TenantScheduler<ForwardRequest> = TenantScheduler::new(SchedConfig {
        tenants: vec![TenantSpec::new(pbo_grpc::DEFAULT_TENANT, 1)],
        credit_window: Config::test_small().credits,
        inflight_per_credit: 4,
        ..SchedConfig::default()
    });
    let cache = ResponseCache::new(CacheConfig::default());
    cache.bind_metrics(&registry);
    cache.declare_default(1);
    let layers = Layers {
        sched: Some(sched),
        cache: Some(cache.clone()),
        tracer: tracer.clone(),
        conn_label: "tc".to_string(),
        ..Layers::new(ForwardMode::Offload)
    };
    let terminator = XrpcTerminator::spawn(&tcp, "dpu:tc", client, layers);

    let wire = encode_message(&gen_small(&paper_schema()));
    let mut ch = GrpcChannel::connect(&tcp, "dpu:tc").unwrap();
    let (status, miss_resp) = ch.call_raw(1, &wire).unwrap();
    assert_eq!(status, 0);
    // The store lands on the poller thread; wait for it so every
    // subsequent call is deterministically a hit.
    let deadline = Instant::now() + Duration::from_secs(10);
    while cache.is_empty() {
        assert!(Instant::now() < deadline, "first response never stored");
        std::thread::sleep(Duration::from_millis(1));
    }
    for _ in 0..7 {
        let (status, resp) = ch.call_raw(1, &wire).unwrap();
        assert_eq!(status, 0);
        assert_eq!(resp, miss_resp, "hit must return byte-identical response");
    }
    terminator.shutdown().unwrap();
    host_stop.store(true, Ordering::Release);
    host.join().unwrap();

    let t = [("tenant", pbo_grpc::DEFAULT_TENANT)];
    assert_eq!(registry.counter_value("cache_hits_total", &t), Some(7));
    assert_eq!(registry.counter_value("cache_misses_total", &t), Some(1));
    assert_eq!(registry.counter_value("cache_stores_total", &t), Some(1));

    // Trace purity: collect every span on every track, group by trace
    // id. Hit ids carry cache_hit and NONE of the datapath stages the
    // cache short-circuits; the miss id carries the full chain plus
    // cache_store.
    let mut by_id: BTreeMap<u64, BTreeSet<&'static str>> = BTreeMap::new();
    let spans: Vec<Span> = tracer.drain().into_iter().flat_map(|(_, s)| s).collect();
    for s in &spans {
        by_id.entry(s.trace_id).or_default().insert(s.stage);
    }
    let hit_ids: Vec<u64> = by_id
        .iter()
        .filter(|(_, st)| st.contains(stages::CACHE_HIT))
        .map(|(id, _)| *id)
        .collect();
    assert_eq!(hit_ids.len(), 7, "one cache_hit span per hit");
    for id in &hit_ids {
        for forbidden in FORBIDDEN_ON_HIT {
            assert!(
                !by_id[id].contains(forbidden),
                "hit {id:#x} must not reach {forbidden}: {:?}",
                by_id[id]
            );
        }
    }
    let store_ids: Vec<u64> = by_id
        .iter()
        .filter(|(_, st)| st.contains(stages::CACHE_STORE))
        .map(|(id, _)| *id)
        .collect();
    assert_eq!(store_ids.len(), 1, "exactly one populate");
    // The miss went through the real datapath.
    assert!(spans.iter().any(|s| s.stage == stages::DESERIALIZE));
    assert!(spans.iter().any(|s| s.stage == stages::HOST_DISPATCH));
}

#[test]
fn terminator_applies_host_invalidations_before_lookups() {
    let bundle = ServiceSchema::paper_bench();
    let rdma = Fabric::new();
    let tcp = TcpFabric::new();
    let registry = Arc::new(Registry::new());
    let adt_bytes = bundle.adt_bytes();
    let ep = establish(
        &rdma,
        Config::test_small(),
        Config::test_small(),
        &registry,
        "ti",
        Some(&adt_bytes),
    );
    let client = OffloadClient::new(ep.client, bundle.clone(), ep.control_blob.as_deref()).unwrap();
    let mut server = CompatServer::new(ep.server, PayloadMode::Native);
    server.register_empty_logic(&bundle, 1);
    server.register_empty_logic(&bundle, 2);
    // The host loop owns the server; a flag hands it the "state changed,
    // invalidate class 1" signal a real handler would raise itself.
    let invalidate = Arc::new(AtomicBool::new(false));
    let inv = invalidate.clone();
    let host_stop = Arc::new(AtomicBool::new(false));
    let hs = host_stop.clone();
    let host = std::thread::spawn(move || {
        while !hs.load(Ordering::Acquire) {
            if inv.swap(false, Ordering::AcqRel) {
                server.push_cache_invalidate(1);
            }
            server.event_loop(Duration::from_millis(1)).unwrap();
        }
    });

    let sched: TenantScheduler<ForwardRequest> = TenantScheduler::new(SchedConfig {
        tenants: vec![TenantSpec::new(pbo_grpc::DEFAULT_TENANT, 1)],
        credit_window: Config::test_small().credits,
        inflight_per_credit: 4,
        ..SchedConfig::default()
    });
    let cache = ResponseCache::new(CacheConfig::default());
    cache.bind_metrics(&registry);
    cache.declare_default(1); // class 2 stays uncacheable
    let layers = Layers {
        sched: Some(sched),
        cache: Some(cache.clone()),
        conn_label: "ti".to_string(),
        ..Layers::new(ForwardMode::Offload)
    };
    let terminator = XrpcTerminator::spawn(&tcp, "dpu:ti", client, layers);

    let wire_a = encode_message(&gen_small(&paper_schema()));
    let mut rng = Mt19937::new(7);
    let wire_b = encode_message(&gen_int_array(&paper_schema(), &mut rng, 8));
    let mut ch = GrpcChannel::connect(&tcp, "dpu:ti").unwrap();

    // Prime class 1, verify it actually hits.
    assert_eq!(ch.call_raw(1, &wire_a).unwrap().0, 0);
    let deadline = Instant::now() + Duration::from_secs(10);
    while cache.is_empty() {
        assert!(Instant::now() < deadline, "prime never stored");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(ch.call_raw(1, &wire_a).unwrap().0, 0);

    // Raise the invalidation host-side, then keep class-2 traffic
    // flowing: the CACHE_INVALIDATE control record rides one of those
    // response blocks and the poller drains it before its next lookup.
    invalidate.store(true, Ordering::Release);
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cache.is_empty() {
        assert!(
            Instant::now() < deadline,
            "invalidation never reached the DPU"
        );
        assert_eq!(ch.call_raw(2, &wire_b).unwrap().0, 0);
    }
    assert_eq!(
        registry.counter_value("cache_invalidations_total", &[]),
        Some(1)
    );

    // The invalidated key misses and re-populates on the next call.
    assert_eq!(ch.call_raw(1, &wire_a).unwrap().0, 0);
    let deadline = Instant::now() + Duration::from_secs(10);
    while cache.is_empty() {
        assert!(Instant::now() < deadline, "re-populate never stored");
        std::thread::sleep(Duration::from_millis(1));
    }
    terminator.shutdown().unwrap();
    host_stop.store(true, Ordering::Release);
    host.join().unwrap();

    let t = [("tenant", pbo_grpc::DEFAULT_TENANT)];
    assert!(registry.counter_value("cache_hits_total", &t).unwrap_or(0) >= 1);
    assert_eq!(registry.counter_value("cache_stores_total", &t), Some(2));
}

// ---------------------------------------------------------------------------
// Property: eviction never exceeds the byte/entry budgets or quotas.
// ---------------------------------------------------------------------------

use proptest::prelude::*;

proptest! {
    /// Drives an arbitrary op sequence (stores of varying sizes across
    /// tenants and classes, lookups, class invalidations, flushes)
    /// against a deliberately tiny configuration and checks after every
    /// op that the global byte/entry budgets hold, that every tenant
    /// partition respects its quota, and that the internal accounting
    /// (snapshot totals) agrees with itself.
    #[test]
    fn eviction_never_exceeds_budgets(
        ops in proptest::collection::vec(
            (0u8..8, 0u8..4, 0u8..16, 0usize..600, 0u8..10),
            1..120,
        ),
    ) {
        let cfg = CacheConfig {
            max_bytes: 2048,
            max_entries: 8,
            tenant_quota_bytes: 700,
            max_tenants: 3,
            default_ttl_ns: u64::MAX / 2,
            protected_fraction: 0.5,
        };
        let cache = ResponseCache::new(cfg);
        for class in 0..4u16 {
            cache.declare_default(class);
        }
        let tenants = ["t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"];
        let mut now = 0u64;
        for (tsel, class, key, len, opsel) in ops {
            now += 1;
            let tenant = tenants[tsel as usize];
            // Field-1 varint wires: distinct, well-formed keys.
            let wire = [0x08u8, key | 1];
            match opsel {
                0..=5 => {
                    let resp = vec![0xA5u8; len];
                    let out = cache.store(tenant, class as u16, &wire, &resp, now, cache.epoch());
                    prop_assert!(matches!(
                        out,
                        StoreOutcome::Stored | StoreOutcome::TooLarge
                    ));
                }
                6..=7 => {
                    cache.lookup(tenant, class as u16, &wire, now);
                }
                8 => {
                    cache.invalidate_class(class as u16);
                }
                _ => {
                    cache.flush();
                }
            }
            let (bytes, entries) = cache.occupancy();
            prop_assert!(bytes <= cfg.max_bytes, "bytes {} > {}", bytes, cfg.max_bytes);
            prop_assert!(entries <= cfg.max_entries, "entries {} > {}", entries, cfg.max_entries);
            let snap = cache.snapshot();
            let mut sum_bytes = 0u64;
            let mut sum_entries = 0usize;
            for t in &snap.tenants {
                prop_assert!(
                    t.bytes <= cfg.tenant_quota_bytes,
                    "tenant {} over quota: {} > {}", t.tenant, t.bytes, cfg.tenant_quota_bytes
                );
                sum_bytes += t.bytes;
                sum_entries += t.entries;
            }
            prop_assert_eq!(sum_bytes, bytes, "partition bytes must sum to the global gauge");
            prop_assert_eq!(sum_entries, entries);
        }
    }
}

// ---------------------------------------------------------------------------
// Chaos soak: invalidations racing crashes, with the cache in the path.
// ---------------------------------------------------------------------------

/// Closed-loop traffic over five tenants (collapsing into the overflow
/// partition) against a seeded fault schedule, with class invalidations
/// fired every few completions, a mid-run breaker burst, a reconnect
/// with in-flight replay, and a full DPU death/failover cycle followed
/// by a warm rejoin. The cache serves hits throughout; every
/// continuation must fire exactly once with the correct payload, and
/// the budgets must hold at every checkpoint.
fn cache_chaos_soak(seed: u32) {
    const CAPACITY: usize = 4000;
    let session_cfg = SessionConfig {
        request_deadline: Some(Duration::from_millis(150)),
        reconnect_max_attempts: 16,
        reconnect_backoff: Duration::from_micros(50),
        breaker_threshold: 3,
        breaker_probe_every: 4,
        ..SessionConfig::default()
    };
    let cache_cfg = CacheConfig {
        max_bytes: 64 * 1024,
        max_entries: 256,
        tenant_quota_bytes: 16 * 1024,
        max_tenants: 4,
        default_ttl_ns: u64::MAX / 2,
        protected_fraction: 0.8,
    };
    let (mut session, registry, fabric) = cached_session("csoak", session_cfg, cache_cfg);
    fabric.faults().bind_metrics(&registry, "csoak");
    // A second cachable class that is never invalidated: its entries
    // survive between the class-1 invalidation storms (modulo flushes),
    // so the soak deterministically serves hits while class 1 churns.
    session.register(
        2,
        Arc::new(|_view, out| {
            out.extend_from_slice(&7u32.to_le_bytes());
            0
        }),
    );
    session.cache().unwrap().declare_default(2);

    let mut rng = Mt19937::new(seed);
    let mut op = 3 + rng.below(5) as u64;
    for kind in FaultKind::ALL {
        fabric.faults().fail_nth(op, kind);
        op += 5 + rng.below(9) as u64;
    }
    fabric.faults().schedule_probabilistic(
        seed as u64,
        op + 40,
        20,
        &[
            FaultKind::ReceiverNotReady,
            FaultKind::DelayedCompletion,
            FaultKind::ConnectionKill,
        ],
    );

    let wire = encode_message(&gen_small(&paper_schema()));
    let hot_wire = encode_message(&gen_int_array(&paper_schema(), &mut rng, 4));
    let tenants = ["t0", "t1", "t2", "t3", "t4"];
    let counts: Arc<Vec<AtomicU64>> = Arc::new((0..CAPACITY).map(|_| AtomicU64::new(0)).collect());
    let done = Arc::new(AtomicU64::new(0));
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut issued = 0u64;
    let mut total = 300u64;
    let mut injected_degradation = false;
    let mut last_invalidate = 0u64;

    // Phase 1 — chaos with invalidations racing the fault schedule.
    while done.load(Ordering::Relaxed) < total {
        assert!(
            Instant::now() < deadline,
            "seed {seed}: soak wedged at {}/{total} ({} faults pending)",
            done.load(Ordering::Relaxed),
            fabric.faults().pending()
        );
        let completed = done.load(Ordering::Relaxed);
        if completed >= last_invalidate + 8 {
            // Invalidations race whatever fault or recovery transition
            // is in flight; the class repopulates organically.
            session.cache().unwrap().invalidate_class(1);
            last_invalidate = completed;
        }
        if !injected_degradation && completed >= total / 4 {
            session.client_mut().inject_offload_failures(3);
            injected_degradation = true;
        }
        while issued < total && issued - done.load(Ordering::Relaxed) < 8 {
            let c = counts.clone();
            let d = done.clone();
            let i = issued as usize;
            let tenant = tenants[(issued % tenants.len() as u64) as usize];
            let (proc_id, w, expect): (u16, &[u8], u32) = if issued.is_multiple_of(7) {
                (2, &hot_wire, 7)
            } else {
                (1, &wire, 300)
            };
            match session.call_tenant(
                tenant,
                proc_id,
                w,
                Box::new(move |payload, status| {
                    assert_eq!(status, 0, "request {i}: bad status");
                    assert_eq!(payload, expect.to_le_bytes(), "request {i}: bad payload");
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
        let (bytes, entries) = session.cache().unwrap().occupancy();
        assert!(bytes <= 64 * 1024 && entries <= 256, "seed {seed}: budgets");
        if done.load(Ordering::Relaxed) >= total && fabric.faults().pending() > 0 {
            total += 100;
            assert!(
                total as usize <= CAPACITY,
                "seed {seed}: fault never reached ({} pending after {} done)",
                fabric.faults().pending(),
                done.load(Ordering::Relaxed)
            );
        }
    }
    session.tick(Duration::ZERO).unwrap();
    assert_eq!(session.outstanding(), 0, "seed {seed}: leftovers");
    assert_eq!(fabric.faults().pending(), 0, "seed {seed}");

    // Phase 2 — reconnect with in-flight replay, an invalidation racing
    // the replay window.
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
    session.cache().unwrap().invalidate_class(1);
    session.reconnect().unwrap();
    while done.load(Ordering::Relaxed) < total {
        assert!(Instant::now() < deadline, "seed {seed}: replay wedged");
        session.tick(Duration::ZERO).unwrap();
    }

    // Phase 3 — DPU death with in-flight traffic (failover flush), then
    // a warm rejoin back to Live under load, invalidations still firing.
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
    session.declare_dpu_dead();
    while done.load(Ordering::Relaxed) < total {
        assert!(Instant::now() < deadline, "seed {seed}: failover wedged");
        session.tick(Duration::ZERO).unwrap();
    }
    assert!(
        session.cache().unwrap().is_empty(),
        "seed {seed}: failover must flush"
    );
    total += 24;
    while session.lease_state() != LeaseState::Live || done.load(Ordering::Relaxed) < total {
        assert!(Instant::now() < deadline, "seed {seed}: rejoin wedged");
        if done.load(Ordering::Relaxed) >= last_invalidate + 8 {
            session.cache().unwrap().invalidate_class(1);
            last_invalidate = done.load(Ordering::Relaxed);
        }
        while issued < total && issued - done.load(Ordering::Relaxed) < 8 {
            let c = counts.clone();
            let d = done.clone();
            let i = issued as usize;
            let tenant = tenants[(issued % tenants.len() as u64) as usize];
            let (proc_id, w, expect): (u16, &[u8], u32) = if issued.is_multiple_of(7) {
                (2, &hot_wire, 7)
            } else {
                (1, &wire, 300)
            };
            match session.call_tenant(
                tenant,
                proc_id,
                w,
                Box::new(move |payload, status| {
                    assert_eq!(status, 0);
                    assert_eq!(payload, expect.to_le_bytes());
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
        if done.load(Ordering::Relaxed) >= total && session.lease_state() != LeaseState::Live {
            total += 8;
            assert!(total as usize <= CAPACITY, "seed {seed}");
        }
    }

    // Exactly-once, across hits, replays, degrades, and failovers.
    for i in 0..issued as usize {
        assert_eq!(
            counts[i].load(Ordering::Relaxed),
            1,
            "seed {seed}: request {i} fired {} times",
            counts[i].load(Ordering::Relaxed)
        );
    }
    assert_eq!(session.outstanding(), 0, "seed {seed}");
    assert_eq!(session.lease_state(), LeaseState::Live, "seed {seed}");

    // The cache actually participated: hits were served (same wire all
    // run), invalidations fired, at least one flush happened, and the
    // budgets held to the end.
    let hits: u64 = tenants
        .iter()
        .chain([pbo_grpc::DEFAULT_TENANT].iter())
        .map(|t| {
            registry
                .counter_value("cache_hits_total", &[("tenant", t)])
                .unwrap_or(0)
        })
        .sum();
    assert!(hits >= 1, "seed {seed}: the cache never served a hit");
    assert!(
        registry
            .counter_value("cache_invalidations_total", &[])
            .unwrap_or(0)
            >= 1,
        "seed {seed}"
    );
    assert!(
        registry
            .counter_value("cache_flushes_total", &[])
            .unwrap_or(0)
            >= 1,
        "seed {seed}: failover/breaker must have flushed"
    );
    let (bytes, entries) = session.cache().unwrap().occupancy();
    assert!(bytes <= 64 * 1024 && entries <= 256, "seed {seed}");
}

#[test]
fn cache_chaos_soak_seed_1() {
    cache_chaos_soak(1);
}

#[test]
fn cache_chaos_soak_seed_2() {
    cache_chaos_soak(2);
}

#[test]
fn cache_chaos_soak_seed_3() {
    cache_chaos_soak(3);
}
