//! Tail-latency attribution: critical-path exactness (property-tested),
//! exemplar retention and eviction, the tail sampler's provable keep-rate
//! bound, and the full diagnosis chain — an injected credit-starvation
//! fault must come out of `pbo_doctor`'s ranking in first place, with an
//! exemplar trace id whose critical path shows `credit_wait` dominant, and
//! a response cache whose TTL lapses between requests must come out as
//! cache thrash.

use pbo_bench::doctor::{self, Cause, Evidence};
use pbo_bench::json;
use pbo_core::{
    run_scenario_traced_on, CacheConfig, ResilientSession, ResponseCache, ScenarioConfig,
    ScenarioKind, ServiceSchema, SessionConfig, SessionLayers,
};
use pbo_metrics::{ExemplarConfig, ExemplarStore, Registry};
use pbo_protowire::encode_message;
use pbo_protowire::workloads::{gen_int_array, paper_schema, Mt19937, WorkloadKind};
use pbo_rpcrdma::Config;
use pbo_simnet::Fabric;
use pbo_telemetry::{ScrapeLimits, Telemetry, TelemetryServer};
use pbo_trace::{
    critical_path, stages, AttribConfig, AttributionEngine, Clock, Span, TailConfig, TailDecision,
    TailSampler, TraceConfig, Tracer, VirtualClock, UNTRACKED,
};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn span(stage: &'static str, start_ns: u64, end_ns: u64) -> Span {
    Span {
        trace_id: 7,
        stage,
        start_ns,
        end_ns,
        bytes: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The boundary-sweep attribution is an exact partition: per-stage
    /// self-times sum to the end-to-end extent for *any* span set —
    /// nested, overlapping, zero-width, or disjoint (gaps become
    /// `untracked` time). Integer nanoseconds, so exact, no granularity
    /// slop to forgive.
    #[test]
    fn self_times_partition_the_extent(
        raw in proptest::collection::vec(
            (0u64..100_000, 1u64..50_000, 0usize..32), 1..24),
        zero_width in proptest::collection::vec((0u64..150_000, 0usize..32), 0..4),
    ) {
        // At least one span has width (1..), so the extent is non-zero
        // and critical_path always produces a breakdown; zero-width spans
        // ride along to exercise the degenerate-interval handling.
        let spans: Vec<Span> = raw
            .iter()
            .map(|&(start, width, si)| {
                span(stages::ALL[si % stages::ALL.len()], start, start + width)
            })
            .chain(zero_width.iter().map(|&(at, si)| {
                span(stages::ALL[si % stages::ALL.len()], at, at)
            }))
            .collect();
        let cp = critical_path(7, &spans).expect("non-degenerate span set");
        let sum: u64 = cp.self_ns.iter().map(|(_, ns)| ns).sum();
        prop_assert_eq!(sum, cp.e2e_ns(), "self-times must partition the extent");
        // The dominant stage really is the arg-max of the breakdown.
        let max = cp.self_ns.iter().map(|&(_, ns)| ns).max().unwrap_or(0);
        prop_assert_eq!(cp.dominant_ns, max);
        prop_assert_eq!(cp.self_of(cp.dominant), max);
    }
}

/// A full store admits only values at least as extreme as its floor and
/// displaces the smallest slot — top-K by value, K bounded.
#[test]
fn exemplar_store_keeps_top_k_and_stays_bounded() {
    let store = ExemplarStore::new(ExemplarConfig {
        slots: 3,
        max_age: 1_000_000,
    });
    for v in 0..100u64 {
        store.offer(v as f64, v);
    }
    let snap = store.snapshot();
    assert_eq!(snap.len(), 3, "store must stay at its slot bound");
    let values: Vec<f64> = snap.iter().map(|e| e.value).collect();
    assert_eq!(values, vec![99.0, 98.0, 97.0], "top-K by value, sorted");
    // A mid-range value bounces off the floor.
    assert!(!store.offer(50.0, 500));
    // An equal-to-floor value is admitted (ties refresh recency).
    assert!(store.offer(97.0, 501));
}

/// An ancient outlier cannot pin a slot: after `max_age` further offers
/// it is evicted even though its value is still the most extreme.
#[test]
fn exemplar_store_evicts_stale_extremes() {
    let store = ExemplarStore::new(ExemplarConfig {
        slots: 2,
        max_age: 50,
    });
    store.offer(1_000_000.0, 0xDEAD);
    for i in 0..60u64 {
        store.offer(10.0 + (i % 5) as f64, i);
    }
    let snap = store.snapshot();
    assert!(
        snap.iter().all(|e| e.trace_id != 0xDEAD),
        "stale extreme must age out: {snap:?}"
    );
    assert_eq!(snap.len(), 2);
}

/// The sampler's provable retention bound at scale: across any traffic,
/// tail keeps stay within the per-epoch budget (window × (1−q) × slack,
/// min 8) and bulk keeps are exactly 1-in-N — so total retention, the
/// expensive part of tracing, is bounded regardless of how adversarial
/// the latency distribution gets.
#[test]
fn tail_sampler_retention_stays_bounded_under_outlier_floods() {
    // slack 1 keeps the epoch budget (⌈window×(1−q)⌉ = 21) below the
    // ~50 observations the moving threshold needs to absorb a regime
    // shift, so the budget demonstrably bites during the flood.
    let cfg = TailConfig {
        quantile: 0.99,
        bulk_every: 16,
        decay_window: 2_048,
        min_samples: 128,
        slack: 1,
    };
    let sampler = TailSampler::new(cfg);
    let warm = 10_000u64;
    let flood = 2_000u64;
    let total = warm + flood;
    // Steady state at ~1µs, then a sudden regime shift to 10ms: until
    // the moving histogram absorbs the new mode, *every* flood request
    // sits above the threshold — exactly the storm the per-epoch budget
    // exists to cap.
    for id in 0..warm {
        sampler.decide(id, 1_000 + id % 512);
    }
    for id in warm..total {
        sampler.decide(id, 10_000_000);
    }
    let stats = sampler.stats();
    assert_eq!(stats.seen, total);
    // Bulk keeps: the deterministic 1-in-N rule. A bulk-phase id that was
    // already kept as a tail outlier doesn't double-count, so the bulk
    // tally can undershoot by at most the tail keeps.
    assert!(stats.kept_bulk <= total / cfg.bulk_every);
    assert!(stats.kept_bulk + stats.kept_tail >= total / cfg.bulk_every);
    // Tail keeps: at most one budget per epoch (plus one partial epoch).
    let epochs = total / cfg.decay_window + 1;
    let budget = sampler.epoch_tail_budget();
    assert!(
        stats.kept_tail <= epochs * budget,
        "{} tail keeps exceed {} epochs x {} budget",
        stats.kept_tail,
        epochs,
        budget
    );
    // The flood was heavy enough that the budget actually bit.
    assert!(stats.suppressed > 0, "outlier flood should hit the budget");
    // Steady-state retention rate: slack×(1−q) tail + 1/N bulk.
    let rate = (stats.kept_tail + stats.kept_bulk) as f64 / stats.seen as f64;
    let bound = cfg.slack as f64 * (1.0 - cfg.quantile) + 1.0 / cfg.bulk_every as f64 + 0.01;
    assert!(
        rate <= bound,
        "retention rate {rate:.4} exceeds bound {bound:.4}"
    );
}

/// Every above-threshold request that fits the budget is kept in full —
/// tail bias means outliers are *never* lost to the 1-in-N lottery.
#[test]
fn tail_outliers_are_kept_regardless_of_bulk_phase() {
    let sampler = TailSampler::new(TailConfig {
        quantile: 0.99,
        bulk_every: 64,
        decay_window: 100_000,
        min_samples: 64,
        slack: 4,
    });
    for i in 0..5_000u64 {
        sampler.observe(if i % 100 == 0 { 2_000_000 } else { 1_000 });
    }
    // Ids deliberately chosen to all be *outside* the 1-in-64 bulk set.
    for id in 0..16u64 {
        let decision = sampler.decide(id * 64 + 1, 4_000_000);
        assert_eq!(decision, TailDecision::Tail, "outlier id {id} lost");
    }
}

/// The acceptance scenario end to end: a datapath with the client credit
/// window starved to one block must come out of the doctor's ranking as
/// credit starvation, with an exemplar trace id drawn from a cell whose
/// dominant critical-path stage is `credit_wait`, and the kept traces
/// must contain a full span chain proving it.
#[test]
fn doctor_ranks_injected_credit_starvation_first() {
    let registry = Arc::new(Registry::new());
    let tracer = Tracer::new(TraceConfig::sampled(16));
    tracer.bind_registry(&registry);
    let engine = AttributionEngine::new(AttribConfig::default()).with_tail_sampler(
        TailSampler::new(TailConfig {
            bulk_every: 16,
            ..TailConfig::default()
        }),
    );
    tracer.bind_attribution(&engine);

    let mut cfg = ScenarioConfig::quick(WorkloadKind::Small, ScenarioKind::Offloaded);
    cfg.requests = 2_000;
    cfg.concurrency = 32;
    // The injected fault: one credit and small blocks, so every burst
    // seals more blocks than the window allows and stalls in CREDIT_WAIT.
    cfg.client_cfg.credits = 1;
    cfg.client_cfg.block_size = 1024;
    run_scenario_traced_on(cfg, &tracer, &registry).expect("scenario runs");

    let telemetry = Telemetry::new(Arc::clone(&registry));
    telemetry.bind_attribution(&engine);
    let attrib = telemetry.handle("/attrib");
    assert_eq!(attrib.status, 200);
    let doc = json::parse(&attrib.body).expect("valid /attrib JSON");
    let ev = Evidence::from_attrib(&doc)
        .expect("attrib evidence")
        .with_metrics(&registry.expose());
    assert!(
        ev.finalized >= 1_800,
        "attribution lost requests: {}",
        ev.finalized
    );

    let findings = doctor::diagnose(&ev);
    assert_eq!(
        findings[0].cause,
        Cause::CreditStarvation,
        "expected credit starvation to rank first, got {:?} (evidence: {:?})",
        findings[0].cause,
        findings[0].evidence
    );
    // The corroborating counter made it into the evidence lines.
    assert!(
        findings[0]
            .evidence
            .iter()
            .any(|l| l.starts_with("rpc_credit_stalls_total=")),
        "metrics corroboration missing: {:?}",
        findings[0].evidence
    );

    // The named exemplar comes from an aggregate cell whose dominant
    // stage is credit_wait — i.e. its request's critical path was
    // credit-bound, which is what makes it actionable.
    let exemplar = findings[0].exemplar.clone().expect("exemplar trace id");
    assert!(
        ev.keys
            .iter()
            .any(|k| k.dominant == stages::CREDIT_WAIT && k.exemplars.contains(&exemplar)),
        "exemplar {exemplar} not in a credit_wait-dominant cell"
    );

    // And the tail-kept traces include at least one whose recomputed
    // critical path is credit_wait-dominant, closing the loop from
    // verdict back to raw spans.
    let kept = engine.kept();
    assert!(!kept.is_empty(), "no traces kept for drill-down");
    let credit_bound = kept.iter().any(|t| {
        let spans: Vec<Span> = t.spans.iter().map(|(_, s)| *s).collect();
        critical_path(t.trace_id, &spans)
            .map(|cp| cp.dominant == stages::CREDIT_WAIT)
            .unwrap_or(false)
    });
    assert!(credit_bound, "no kept trace shows credit_wait dominant");

    // Attribution sanity: the top-ranked stage is a documented one (or
    // the uncovered remainder), and the tail keep-set honours its
    // retention bound.
    let summary = engine.summary();
    let top = summary.top_stage().expect("stages ranked");
    assert!(
        stages::ALL.contains(&top.stage) || top.stage == UNTRACKED,
        "undocumented top stage {:?}",
        top.stage
    );
    let tail = summary.tail.expect("tail sampler bound");
    let bound = tail.seen as f64 * 0.05 + 64.0;
    assert!(
        (tail.kept_tail as f64) < bound,
        "tail keeps {} exceed the retention bound {bound:.0}",
        tail.kept_tail
    );
}

/// Key population of the cached read mix: each key is one distinct Ints
/// request, reused verbatim on every occurrence so repeats can hit.
const CACHE_KEYS: usize = 64;
/// Requests in each cached run.
const CACHE_REQUESTS: usize = 600;
/// Virtual time each request takes on the session clock.
const REQUEST_NS: u64 = 1_000;

/// Samples `n` zipf(s = 1) ranks over `keys` (rank 0 hottest).
fn zipf_ranks(n: usize, keys: usize, rng: &mut Mt19937) -> Vec<usize> {
    let cdf: Vec<f64> = (1..=keys)
        .scan(0.0, |acc, r| {
            *acc += 1.0 / r as f64;
            Some(*acc)
        })
        .collect();
    let total = cdf[keys - 1];
    (0..n)
        .map(|_| {
            let u = rng.below(1 << 30) as f64 / (1u64 << 30) as f64 * total;
            cdf.partition_point(|&c| c < u).min(keys - 1)
        })
        .collect()
}

/// Replays one seeded zipf key stream closed-loop through a cached
/// [`ResilientSession`] on a virtual clock that advances [`REQUEST_NS`]
/// per request, with the Ints method declared cachable at `ttl_ns` (or
/// the default TTL). Every request is traced and attributed; returns the
/// doctor's evidence (the `/attrib` payload plus the registry's
/// exposition) and the registry.
fn zipf_cached_run(ttl_ns: Option<u64>) -> (Evidence, Arc<Registry>) {
    const PROC_INTS: u16 = 2;
    let registry = Arc::new(Registry::new());
    let tracer = Tracer::new(TraceConfig::sampled(1));
    tracer.bind_registry(&registry);
    let engine = AttributionEngine::new(AttribConfig::default());
    tracer.bind_attribution(&engine);
    let vclock = VirtualClock::new();
    let cache = ResponseCache::new(CacheConfig::default());
    match ttl_ns {
        Some(ttl) => cache.declare(PROC_INTS, ttl),
        None => cache.declare_default(PROC_INTS),
    }
    let mut session = ResilientSession::with_layers(
        Fabric::new(),
        ServiceSchema::paper_bench(),
        Config::test_small(),
        Config::test_small(),
        registry.clone(),
        "zipf",
        SessionConfig::default(),
        SessionLayers {
            clock: Clock::virtual_from(&vclock),
            tracer,
            cache: Some(cache),
            ..SessionLayers::default()
        },
    )
    .expect("session establishes");
    session.register(
        PROC_INTS,
        Arc::new(|view, out| {
            out.extend_from_slice(&view.meta().size.to_le_bytes());
            0
        }),
    );

    let schema = paper_schema();
    let mut rng = Mt19937::new(7);
    let keys: Vec<Vec<u8>> = (0..CACHE_KEYS)
        .map(|_| encode_message(&gen_int_array(&schema, &mut rng, 512)))
        .collect();
    for (i, rank) in zipf_ranks(CACHE_REQUESTS, CACHE_KEYS, &mut rng)
        .into_iter()
        .enumerate()
    {
        vclock.set_ns((i as u64 + 1) * REQUEST_NS);
        let status = Arc::new(AtomicU64::new(u64::MAX));
        let st = status.clone();
        session
            .call(
                PROC_INTS,
                &keys[rank],
                Box::new(move |_payload, s| st.store(s as u64, Ordering::Release)),
            )
            .expect("call accepted");
        let deadline = Instant::now() + Duration::from_secs(30);
        while status.load(Ordering::Acquire) == u64::MAX {
            assert!(Instant::now() < deadline, "request {i} never completed");
            session.tick(Duration::ZERO).expect("session ticks");
        }
        assert_eq!(status.load(Ordering::Acquire), 0, "request {i} failed");
    }

    let telemetry = Telemetry::new(Arc::clone(&registry));
    telemetry.bind_attribution(&engine);
    let attrib = telemetry.handle("/attrib");
    assert_eq!(attrib.status, 200);
    let doc = json::parse(&attrib.body).expect("valid /attrib JSON");
    let ev = Evidence::from_attrib(&doc)
        .expect("attrib evidence")
        .with_metrics(&registry.expose());
    (ev, registry)
}

/// The response cache end to end through the doctor. Declared at a TTL
/// shorter than one request, every entry lapses before its key comes
/// back: the doctor must rank cache thrash first. Declared at the default
/// TTL, the same zipf stream must hit on more than half its lookups.
#[test]
fn doctor_ranks_ttl_thrash_first_and_zipf_hits_at_default_ttl() {
    let (ev, registry) = zipf_cached_run(Some(REQUEST_NS / 2));
    assert!(ev.finalized > 0, "nothing attributed");
    assert!(
        registry.counter_sum("cache_expired_total") > 0,
        "no TTL churn"
    );
    let findings = doctor::diagnose(&ev);
    assert_eq!(
        findings[0].cause,
        Cause::CacheThrash,
        "expected cache thrash to rank first, got {:?} (evidence: {:?})",
        findings[0].cause,
        findings[0].evidence
    );
    // Ranked first on churn, not merely on misses.
    for line in ["of stores evicted", "TTL churn"] {
        assert!(
            findings[0].evidence.iter().any(|l| l.contains(line)),
            "no {line:?} evidence: {:?}",
            findings[0].evidence
        );
    }
    let thrash_score = findings[0].score;

    let (ev, registry) = zipf_cached_run(None);
    let healthy = doctor::diagnose(&ev)
        .into_iter()
        .find(|f| f.cause == Cause::CacheThrash)
        .expect("every cause is scored");
    assert!(
        healthy.score < thrash_score / 2.0,
        "a healthy cache scores {:.3} against the thrashing one's {thrash_score:.3}",
        healthy.score
    );
    let hits = registry.counter_sum("cache_hits_total");
    let lookups = hits + registry.counter_sum("cache_misses_total");
    assert_eq!(lookups, CACHE_REQUESTS as u64);
    assert!(
        hits as f64 / lookups as f64 > 0.5,
        "zipf hit ratio {hits}/{lookups} at the default TTL"
    );
}

/// The hardened scrape limits cover `/attrib` exactly as they cover
/// `/metrics`: a normal request serves, an oversized header block is
/// answered `431` before the handler ever runs.
#[test]
fn scrape_limits_guard_the_attrib_endpoint() {
    let registry = Arc::new(Registry::new());
    let telemetry = Telemetry::new(Arc::clone(&registry));
    let engine = AttributionEngine::new(AttribConfig::default());
    engine.record_span("c0", span(stages::RESPONSE, 0, 100));
    telemetry.bind_attribution(&engine);
    let mut server = TelemetryServer::start_with_limits(
        "127.0.0.1:0",
        telemetry,
        ScrapeLimits {
            max_header_bytes: 512,
            header_deadline: Duration::from_millis(2000),
        },
    )
    .expect("server starts");
    let addr = server.local_addr();

    let get = |request: String| -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request.as_bytes()).expect("send");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        raw
    };

    let ok = get("GET /attrib HTTP/1.0\r\nHost: t\r\n\r\n".to_string());
    assert!(ok.starts_with("HTTP/1.0 200"), "{ok}");
    assert!(ok.contains("\"finalized\""), "{ok}");

    let huge = format!(
        "GET /attrib HTTP/1.0\r\nX-Flood: {}\r\n\r\n",
        "a".repeat(4096)
    );
    let rejected = get(huge);
    assert!(rejected.starts_with("HTTP/1.0 431"), "{rejected}");

    server.shutdown();
}
