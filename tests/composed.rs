//! Integration: every terminator layer on **one** poller.
//!
//! The deployment a multi-tenant DPU actually runs is tenants + policy +
//! cache + failure handling together. This drives one
//! [`XrpcTerminator`] composed of the tenant scheduler, the per-class
//! policy, the response cache, the HA layer and 1-in-1 tracing over xRPC,
//! and checks the layers against each other: the cache answers only what
//! the routing precedence (`pbo_core::precedence`) lets it, a DPU crash
//! mid-run loses nothing and flushes it, and after the rejoin it refills
//! only from fresh stores.

use crossbeam::channel::{unbounded, Sender};
use pbo_core::compat::{NativeHandler, PayloadMode};
use pbo_core::terminator::{ForwardMode, ForwardRequest, HaConfig, HaLayer, Layers};
use pbo_core::{
    CacheConfig, CompatServer, HostDirect, OffloadClient, ResponseCache, SchedConfig,
    ServiceSchema, TenantScheduler, TenantSpec, XrpcTerminator,
};
use pbo_dpusim::RoutePrior;
use pbo_grpc::{GrpcChannel, Metadata};
use pbo_metrics::Registry;
use pbo_policy::{PolicyConfig, PolicyEngine};
use pbo_protowire::workloads::{gen_small, paper_schema};
use pbo_protowire::{encode_message, DynamicMessage, Value};
use pbo_rpcrdma::{establish, Config, LeaseConfig};
use pbo_simnet::{Fabric, FaultKind, TcpFabric};
use pbo_trace::{stages, TraceConfig, Tracer};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const CONN: &str = "composed";
const ADDR: &str = "dpu:composed";
const TENANTS: [&str; 2] = ["a", "b"];
const SMALL: u16 = 1;
const INTS: u16 = 2;
const CHARS: u16 = 3;

/// The business logic, one deterministic function of the request per
/// procedure, so every reply — DPU route, host route, host-direct replay,
/// cache hit — can be checked against what the test computed itself.
fn logic(proc_id: u16) -> NativeHandler {
    Arc::new(move |view, out| {
        let reply: u64 = match proc_id {
            SMALL => view.get_u32(1).unwrap() as u64,
            INTS => {
                let ints = view.get_repeated(1).unwrap();
                ints.as_u32_slice().unwrap().iter().map(|&v| v as u64).sum()
            }
            _ => view.get_str(1).unwrap().bytes().map(|b| b as u64).sum(),
        };
        out.extend_from_slice(&reply.to_le_bytes());
        0
    })
}

/// An `IntArray` of `n` elements `base, base+1, …` and the reply the
/// logic owes it.
fn ints(base: u64, n: u64) -> (Vec<u8>, u64) {
    let schema = paper_schema();
    let mut m = DynamicMessage::of(&schema, "bench.IntArray");
    for v in base..base + n {
        m.push(1, Value::U64(v));
    }
    (encode_message(&m), (base..base + n).sum())
}

fn chars(text: &str) -> (Vec<u8>, u64) {
    let schema = paper_schema();
    let mut m = DynamicMessage::of(&schema, "bench.CharArray");
    m.set(1, Value::Str(text.to_string()));
    (encode_message(&m), text.bytes().map(|b| b as u64).sum())
}

/// One DPU incarnation: the offload client plus a host thread polling its
/// server (route-dispatched handlers, since a policy is installed).
/// `crashes` marks the incarnation the test kills: only that one may see
/// event-loop errors (the QP poison a crash leaves behind); the rejoined
/// one must see none.
fn incarnation(
    rdma: &Fabric,
    registry: &Arc<Registry>,
    tracer: &Tracer,
    stop: &Arc<AtomicBool>,
    crashes: bool,
) -> (OffloadClient, std::thread::JoinHandle<()>) {
    let bundle = ServiceSchema::paper_bench();
    let cfg = Config::test_small();
    let ep = establish(rdma, cfg, cfg, registry, CONN, Some(&bundle.adt_bytes()));
    let client = OffloadClient::new(ep.client, bundle.clone(), ep.control_blob.as_deref()).unwrap();
    let mut server = CompatServer::new(ep.server, PayloadMode::Native);
    server.set_tracer(tracer, CONN);
    for proc_id in [SMALL, INTS, CHARS] {
        let h = logic(proc_id);
        server.register_degradable(&bundle, proc_id, Arc::new(move |_md, v, out| h(v, out)));
    }
    let stop = stop.clone();
    let host = std::thread::spawn(move || {
        while !stop.load(Ordering::Acquire) {
            match server.event_loop(Duration::from_millis(1)) {
                Err(_) if crashes => std::thread::sleep(Duration::from_millis(1)),
                polled => drop(polled.expect("host error on a healthy incarnation")),
            }
        }
    });
    (client, host)
}

struct Rig {
    registry: Arc<Registry>,
    cache: ResponseCache,
    tracer: Tracer,
    rdma: Fabric,
    tcp: TcpFabric,
    terminator: XrpcTerminator,
    rejoin_tx: Sender<OffloadClient>,
    host_stop: Arc<AtomicBool>,
    hosts: Vec<std::thread::JoinHandle<()>>,
}

impl Rig {
    /// sched (two equal tenants) + policy (`chars` resident on the host,
    /// no probes, no flips) + cache (`ints` and `chars` declared) + HA
    /// (2 ms × 2 lease, ramp stride 4) + 1-in-1 tracing.
    fn new() -> Self {
        let registry = Arc::new(Registry::new());
        let tracer = Tracer::new(TraceConfig::sampled(1));
        let (rdma, tcp) = (Fabric::new(), TcpFabric::new());
        let host_stop = Arc::new(AtomicBool::new(false));
        let (client, host) = incarnation(&rdma, &registry, &tracer, &host_stop, true);

        let mut sched: TenantScheduler<ForwardRequest> = TenantScheduler::new(SchedConfig {
            tenants: TENANTS.iter().map(|t| TenantSpec::new(t, 1)).collect(),
            credit_window: Config::test_small().credits,
            inflight_per_credit: 4,
            ..SchedConfig::default()
        });
        sched.bind_metrics(&registry);
        let mut policy = PolicyEngine::new(PolicyConfig {
            probe_every: 0,
            dwell_ns: u64::MAX,
            ..PolicyConfig::default()
        });
        let host_favored = RoutePrior {
            dpu_ns: 2.0,
            host_ns: 1.0,
        };
        policy.register_class(SMALL, "small", None, 0);
        policy.register_class(INTS, "ints", None, 0);
        policy.register_class(CHARS, "chars", Some(host_favored), 0);
        policy.bind_metrics(&registry);
        let cache = ResponseCache::new(CacheConfig::default());
        cache.bind_metrics(&registry);
        cache.declare_default(INTS);
        cache.declare_default(CHARS);
        let mut host_direct = HostDirect::new();
        for proc_id in [SMALL, INTS, CHARS] {
            host_direct.register(&ServiceSchema::paper_bench(), proc_id, logic(proc_id));
        }
        let (rejoin_tx, rejoin_rx) = unbounded();
        let layers = Layers {
            mode: ForwardMode::Offload,
            sched: Some(sched),
            policy: Some(policy),
            cache: Some(cache.clone()),
            ha: Some(HaLayer {
                host: host_direct,
                rejoin_rx,
                config: HaConfig {
                    lease: LeaseConfig {
                        interval: Duration::from_millis(2),
                        miss_threshold: 2,
                    },
                    rejoin_probe_stride: 4,
                },
                registry: registry.clone(),
            }),
            tracer: tracer.clone(),
            conn_label: CONN.to_string(),
        };
        let terminator = XrpcTerminator::spawn(&tcp, ADDR, client, layers);
        Self {
            registry,
            cache,
            tracer,
            rdma,
            tcp,
            terminator,
            rejoin_tx,
            host_stop,
            hosts: vec![host],
        }
    }

    fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.registry.counter_value(name, labels).unwrap_or(0)
    }

    /// `(hits, stores)` per tenant.
    fn cache_counts(&self) -> Vec<(u64, u64)> {
        let per = |name, t| self.counter(name, &[("tenant", t)]);
        TENANTS
            .iter()
            .map(|t| (per("cache_hits_total", t), per("cache_stores_total", t)))
            .collect()
    }

    /// Requests the policy was consulted for, over every class and route.
    fn policy_decisions(&self) -> u64 {
        let mut n = 0;
        for class in ["small", "ints", "chars"] {
            for route in ["dpu", "host"] {
                n += self.counter("policy_route_total", &[("class", class), ("route", route)]);
            }
        }
        n
    }

    fn lease_state(&self) -> i64 {
        self.registry
            .gauge_value("terminator_lease_state", &[("conn", CONN)])
            .unwrap()
    }
}

/// One xRPC connection of one tenant; every call must answer status 0
/// with exactly the reply the logic owes the request.
struct Caller {
    ch: GrpcChannel,
    md: Metadata,
}

impl Caller {
    fn new(tcp: &TcpFabric, tenant: &str) -> Self {
        let mut md = Metadata::new();
        md.insert("tenant", tenant);
        Self {
            ch: GrpcChannel::connect(tcp, ADDR).unwrap(),
            md,
        }
    }

    fn call(&mut self, proc_id: u16, (wire, want): &(Vec<u8>, u64)) {
        let (status, reply) = self
            .ch
            .call_raw_with_metadata(proc_id, &self.md, wire)
            .unwrap();
        assert_eq!(status, 0, "proc {proc_id}");
        assert_eq!(reply, want.to_le_bytes(), "proc {proc_id}: wrong reply");
    }
}

#[test]
fn all_layers_compose_on_one_terminator() {
    let mut rig = Rig::new();
    let small = (encode_message(&gen_small(&paper_schema())), 300);
    let hot = ints(1, 16);
    let text = chars("the policy keeps this class on the host");
    let mut a = Caller::new(&rig.tcp, "a");
    let mut calls = 0u64;

    // --- Healthy: the cacheable class hits after its first miss. --------
    // (The store runs on the poller before the reply is sent.)
    a.call(INTS, &hot);
    a.call(INTS, &hot);
    assert_eq!(rig.cache_counts()[0], (1, 1));
    // The class the policy keeps on the host is answered correctly, is a
    // counted policy decision, and is never stored — although declared.
    a.call(CHARS, &text);
    a.call(CHARS, &text);
    a.call(SMALL, &small);
    calls += 5;
    let chars_on = |route| {
        rig.counter(
            "policy_route_total",
            &[("class", "chars"), ("route", route)],
        )
    };
    assert_eq!((chars_on("host"), chars_on("dpu")), (2, 0));
    assert_eq!(rig.cache_counts()[0], (1, 1), "a host-routed reply stored");
    assert_eq!(rig.cache.snapshot().entries, 1);
    // One decision per request that reached the policy; the hit did not.
    assert_eq!(rig.policy_decisions(), 4);

    // --- DPU crash mid-run, four connections in flight. -----------------
    let done = Arc::new(AtomicU64::new(0));
    let workers: Vec<_> = (0..4)
        .map(|w| {
            let (tcp, done) = (rig.tcp.clone(), done.clone());
            let (small, hot, text) = (small.clone(), hot.clone(), text.clone());
            std::thread::spawn(move || {
                let mut c = Caller::new(&tcp, TENANTS[w % 2]);
                let own = ints(100 * (w as u64 + 1), 8);
                for i in 0..150 {
                    match i % 5 {
                        0 => c.call(INTS, &hot),
                        1 => c.call(INTS, &own),
                        2 => c.call(CHARS, &text),
                        _ => c.call(SMALL, &small),
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    while done.load(Ordering::Relaxed) < 200 {
        std::thread::sleep(Duration::from_millis(1));
    }
    rig.rdma.faults().fail_nth(0, FaultKind::DpuCrash);
    let failed = workers.into_iter().filter_map(|w| w.join().err()).count();
    if failed > 0 {
        let poller = rig.terminator.shutdown();
        panic!("{failed} connections saw an unanswered or wrong call; poller: {poller:?}");
    }
    calls += 4 * 150;
    let conn = [("conn", CONN)];
    assert_eq!(rig.counter("terminator_failovers_total", &conn), 1);
    assert_eq!(rig.lease_state(), 2, "lease Dead after the crash");
    assert_eq!(
        rig.cache.snapshot().entries,
        0,
        "failover flushes the cache"
    );

    // --- Dead: host-direct service; cache and policy are out of the path.
    let dead_counts = rig.cache_counts();
    let dead_decisions = rig.policy_decisions();
    for _ in 0..5 {
        a.call(INTS, &hot);
        a.call(CHARS, &text);
    }
    calls += 10;
    assert_eq!(rig.cache_counts(), dead_counts, "cache touched while Dead");
    assert_eq!(rig.policy_decisions(), dead_decisions);
    assert_eq!(rig.cache.snapshot().entries, 0);

    // --- Warm rejoin: hits stay flat until the lease is Live again. -----
    let (client2, host2) =
        incarnation(&rig.rdma, &rig.registry, &rig.tracer, &rig.host_stop, false);
    rig.hosts.push(host2);
    rig.rejoin_tx.send(client2).unwrap();
    let mut rejoined = false;
    for _ in 0..400 {
        a.call(SMALL, &small);
        a.call(INTS, &hot);
        calls += 2;
        if rig.lease_state() != 0 {
            // Still Dead or Rejoining after the call: it cannot have
            // looked the cache up, and a ramp probe never stores.
            assert_eq!(rig.cache_counts(), dead_counts, "cache touched mid-rejoin");
        } else {
            rejoined = true;
            break;
        }
    }
    assert!(rejoined, "rejoin never completed");
    assert_eq!(rig.counter("terminator_rejoins_total", &conn), 1);

    // --- Live again: hits come only from post-rejoin stores. ------------
    let fresh = ints(7, 16);
    assert_eq!(rig.cache_counts()[0].0, dead_counts[0].0, "a stale hit");
    a.call(INTS, &fresh);
    let live_stores = rig.cache_counts()[0].1;
    assert!(
        live_stores > dead_counts[0].1,
        "post-rejoin miss not stored"
    );
    a.call(INTS, &fresh);
    calls += 2;
    assert_eq!(rig.cache_counts()[0].0, dead_counts[0].0 + 1);

    // --- Quiescence. ----------------------------------------------------
    assert_eq!(rig.terminator.calls_served(), calls);
    // In debug builds the poller asserts on exit that every scheduler
    // grant came back.
    rig.terminator.shutdown().unwrap();
    for t in TENANTS {
        let depth = rig
            .registry
            .gauge_value("sched_queue_depth", &[("tenant", t)]);
        assert_eq!(depth, Some(0), "tenant {t} still queued");
    }
    rig.host_stop.store(true, Ordering::Release);
    for h in rig.hosts {
        h.join().unwrap();
    }
    // 1-in-1 tracing saw every layer at work on the one connection.
    let seen: BTreeSet<&str> = rig
        .tracer
        .drain()
        .into_iter()
        .flat_map(|(_, spans)| spans)
        .map(|s| s.stage)
        .collect();
    for stage in [
        stages::TERMINATE,
        stages::SCHED_WAIT,
        stages::CACHE_HIT,
        stages::CACHE_STORE,
        stages::DESERIALIZE,
        stages::HOST_DISPATCH,
        stages::FAILOVER,
        stages::REJOIN,
    ] {
        assert!(
            seen.contains(stage),
            "no `{stage}` span in the composed run"
        );
    }
}
