//! Integration: tenant-aware scheduling across the stack.
//!
//! The tenant scheduler sits between xRPC termination and the offload
//! datapath. These tests drive it through the *real* poller loop and the
//! real RDMA datapath (not the unit-level scheduler), verifying the PR's
//! acceptance criteria end to end:
//!
//! * fairness under a 10:1 offered-load skew between equal-weight
//!   tenants (throughput share and latency protection);
//! * overload sheds with the retryable [`pbo_core::STATUS_SHED`] status
//!   instead of collapsing — and never trips the circuit breaker;
//! * per-tenant observability (scheduler counters on the DPU side,
//!   `host_dispatch_total{tenant}` on the host side);
//! * the noisy-neighbor chaos soak: a flooding tenant plus connection
//!   kills must not blow up the victim tenant's tail latency.

use crossbeam::channel::{bounded, Receiver};
use pbo_core::compat::PayloadMode;
use pbo_core::terminator::{run_poller, ForwardMode, ForwardRequest, Layers, XrpcTerminator};
use pbo_core::{
    CompatServer, OffloadClient, ResilientSession, SchedConfig, ServiceSchema, SessionConfig,
    SessionLayers, TenantScheduler, TenantSpec, STATUS_SHED,
};
use pbo_grpc::{GrpcChannel, Metadata};
use pbo_metrics::Registry;
use pbo_protowire::encode_message;
use pbo_protowire::workloads::{gen_small, paper_schema, Mt19937};
use pbo_rpcrdma::{establish, Config, RetryClass, RpcError};
use pbo_simnet::{Fabric, FaultKind, TcpFabric};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A scheduled poller over the real datapath, driven directly through the
/// forward channel (open loop: issuance is decoupled from responses).
struct ScheduledStack {
    tx: crossbeam::channel::Sender<ForwardRequest>,
    /// Starts the poller (see [`ScheduledStack::spawn_held`]).
    go: crossbeam::channel::Sender<()>,
    stop: Arc<AtomicBool>,
    poller: Option<JoinHandle<Result<(), RpcError>>>,
    host_stop: Arc<AtomicBool>,
    host: Option<JoinHandle<()>>,
}

impl ScheduledStack {
    fn spawn(sched_cfg: SchedConfig, registry: &Arc<Registry>) -> Self {
        let stack = Self::spawn_held(sched_cfg, registry);
        stack.release();
        stack
    }

    /// [`ScheduledStack::spawn`] with the poller held back until
    /// [`ScheduledStack::release`]: everything issued before the release
    /// is in the hand-off channel when the poller first looks. An idle
    /// poller picks a request up the moment it arrives, so a backlog that
    /// must be seen whole cannot be built while it runs.
    fn spawn_held(sched_cfg: SchedConfig, registry: &Arc<Registry>) -> Self {
        let bundle = ServiceSchema::paper_bench();
        let rdma = Fabric::new();
        let adt_bytes = bundle.adt_bytes();
        let cfg = Config::test_small();
        let ep = establish(&rdma, cfg, cfg, registry, "mt", Some(&adt_bytes));
        let mut client =
            OffloadClient::new(ep.client, bundle.clone(), ep.control_blob.as_deref()).unwrap();
        let mut server = CompatServer::new(ep.server, PayloadMode::Native);
        // Every reply carries its position in the host's dispatch order,
        // stamped where the reply is produced: the connection is in-order,
        // so that is the order the scheduler served requests in, however
        // late or in whatever order a test reads its receivers.
        let served = AtomicU64::new(0);
        server.register_native(
            &bundle,
            1,
            Arc::new(move |view, out| {
                let _ = view.meta().size;
                let position = served.fetch_add(1, Ordering::Relaxed) + 1;
                out.extend_from_slice(&position.to_le_bytes());
                0
            }),
        );

        let host_stop = Arc::new(AtomicBool::new(false));
        let hs = host_stop.clone();
        let host = std::thread::spawn(move || {
            while !hs.load(Ordering::Acquire) {
                server.event_loop(Duration::from_millis(1)).unwrap();
            }
        });

        let mut sched: TenantScheduler<ForwardRequest> = TenantScheduler::new(sched_cfg);
        sched.bind_metrics(registry);
        client.rpc().set_credit_observer(sched.fabric());
        let (tx, rx) = bounded::<ForwardRequest>(4096);
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let (go, go_rx) = bounded::<()>(1);
        let poller = std::thread::spawn(move || {
            let _ = go_rx.recv();
            let layers = Layers {
                sched: Some(sched),
                ..Layers::new(ForwardMode::Offload)
            };
            run_poller(client, rx, stop2, layers)
        });
        Self {
            tx,
            go,
            stop,
            poller: Some(poller),
            host_stop,
            host: Some(host),
        }
    }

    fn release(&self) {
        let _ = self.go.send(());
    }

    /// Issues one request for `tenant`; returns the response slot.
    fn issue(&self, tenant: &str, wire: &[u8]) -> Receiver<(u16, Vec<u8>)> {
        let (resp_tx, resp_rx) = bounded(1);
        self.tx
            .send(ForwardRequest {
                proc_id: 1,
                wire: wire.to_vec(),
                metadata: Vec::new(),
                tenant: tenant.to_string(),
                resp_tx,
                recv_ns: 0,
            })
            .unwrap();
        resp_rx
    }

    fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        self.poller.take().unwrap().join().unwrap().unwrap();
        self.host_stop.store(true, Ordering::Release);
        self.host.take().unwrap().join().unwrap();
    }
}

impl Drop for ScheduledStack {
    fn drop(&mut self) {
        self.release();
        self.stop.store(true, Ordering::Release);
        self.host_stop.store(true, Ordering::Release);
        if let Some(h) = self.poller.take() {
            let _ = h.join();
        }
        if let Some(h) = self.host.take() {
            let _ = h.join();
        }
    }
}

fn pair_cfg() -> SchedConfig {
    SchedConfig {
        tenants: vec![TenantSpec::new("light", 1), TenantSpec::new("heavy", 1)],
        quantum: 256,
        credit_window: Config::test_small().credits,
        inflight_per_credit: 4,
        ..SchedConfig::default()
    }
}

/// Fairness, throughput-share half: both tenants fully backlogged (heavy
/// enqueued FIRST, with 10× the volume), equal weights. WDRR must serve
/// them ~1:1 while both are backlogged, so the light tenant's requests
/// all complete in roughly the first `2 × light` completions. A FIFO
/// scheduler would finish heavy's 1000-request backlog before touching
/// light (light last completion ≈ position 1100).
#[test]
fn fair_share_end_to_end_under_ten_to_one_backlog() {
    // Both backlogs fit under the poller's 512-request admission window
    // and are issued before the poller starts, so the whole offered load
    // is visible to the scheduler at once (the scheduler cannot be fair to
    // traffic still queued in the TCP-side channel it has never seen, let
    // alone to traffic that has not arrived).
    const LIGHT: usize = 40;
    const HEAVY: usize = 400;
    let registry = Arc::new(Registry::new());
    let stack = ScheduledStack::spawn_held(pair_cfg(), &registry);
    let wire = encode_message(&gen_small(&paper_schema()));

    // Adversarial order: the entire heavy backlog lands before light.
    let heavy_rx: Vec<_> = (0..HEAVY).map(|_| stack.issue("heavy", &wire)).collect();
    let light_rx: Vec<_> = (0..LIGHT).map(|_| stack.issue("light", &wire)).collect();
    stack.release();

    // The global completion position of every light request, as stamped
    // by the host; heavy is drained too so the run is complete.
    let position = |rx: &Receiver<(u16, Vec<u8>)>| -> usize {
        let (status, payload) = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("stack wedged");
        assert_eq!(status, 0);
        u64::from_le_bytes(payload.as_slice().try_into().expect("8-byte position")) as usize
    };
    let light_positions: Vec<usize> = light_rx.iter().map(position).collect();
    let last = heavy_rx
        .iter()
        .map(position)
        .chain(light_positions.iter().copied())
        .max();
    assert_eq!(last, Some(LIGHT + HEAVY));
    stack.shutdown();

    // Throughput share while contended: equal weights → ~50% each, so all
    // 40 light requests land within the first ~80 completions, plus the
    // head start heavy gets from arriving first and batch-drain slack.
    // A FIFO scheduler would place the last light completion at ~440.
    let last_light = *light_positions.iter().max().unwrap();
    assert!(
        last_light <= 2 * LIGHT + 80,
        "light tenant starved: last light completion at position {last_light}/440"
    );
    // And the share itself: of the first 120 completions at least 30 are
    // light's (weight share 50% ± the 15-point acceptance band; FIFO
    // would give ~0).
    let light_in_first = light_positions.iter().filter(|&&p| p <= 3 * LIGHT).count();
    assert!(
        light_in_first >= 30,
        "light got {light_in_first}/{} of the contended window",
        3 * LIGHT
    );

    // Scheduler accounting reached the registry, per tenant.
    for (tenant, n) in [("light", LIGHT as u64), ("heavy", HEAVY as u64)] {
        assert_eq!(
            registry.counter_value("sched_served_total", &[("tenant", tenant)]),
            Some(n),
            "{tenant} served"
        );
        assert_eq!(
            registry.counter_value("sched_admitted_total", &[("tenant", tenant)]),
            Some(n)
        );
    }
    assert_eq!(
        registry.counter_value("sched_shed_total", &[("tenant", "heavy")]),
        Some(0)
    );
}

/// Fairness, latency half: a paced light tenant (well under its fair
/// share) must see contended p99 close to its solo p99 even while a heavy
/// tenant keeps a 1000-request backlog queued. An unfair scheduler would
/// put every light request behind the full heavy backlog (hundreds of
/// milliseconds); WDRR bounds the wait to ~one scheduling round.
#[test]
fn paced_light_tenant_p99_survives_heavy_backlog() {
    const PACED: usize = 60;
    let wire = encode_message(&gen_small(&paper_schema()));
    let pace = Duration::from_micros(500);

    let p99 = |lat: &mut Vec<Duration>| -> Duration {
        lat.sort();
        lat[(lat.len() * 99 / 100).min(lat.len() - 1)]
    };

    // Solo run: light alone, closed loop, paced.
    let registry = Arc::new(Registry::new());
    let stack = ScheduledStack::spawn(pair_cfg(), &registry);
    let mut solo = Vec::with_capacity(PACED);
    for _ in 0..PACED {
        let t0 = Instant::now();
        let rx = stack.issue("light", &wire);
        let (status, _) = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(status, 0);
        solo.push(t0.elapsed());
        std::thread::sleep(pace);
    }
    stack.shutdown();
    let p99_solo = p99(&mut solo);

    // Contended run: same pacing, behind a 1000-request heavy backlog.
    let registry = Arc::new(Registry::new());
    let stack = ScheduledStack::spawn(pair_cfg(), &registry);
    let heavy_rx: Vec<_> = (0..1000).map(|_| stack.issue("heavy", &wire)).collect();
    let mut contended = Vec::with_capacity(PACED);
    for _ in 0..PACED {
        let t0 = Instant::now();
        let rx = stack.issue("light", &wire);
        let (status, _) = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(status, 0);
        contended.push(t0.elapsed());
        std::thread::sleep(pace);
    }
    let p99_cont = p99(&mut contended);
    for rx in heavy_rx {
        let (status, _) = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(status, 0);
    }
    stack.shutdown();

    // 2× the solo p99 (the acceptance bound) plus a fixed 25 ms guard for
    // scheduler-noise in debug builds. The failure mode this catches is
    // two orders of magnitude away: queueing behind the full heavy
    // backlog costs hundreds of milliseconds.
    let bound = p99_solo * 2 + Duration::from_millis(25);
    assert!(
        p99_cont <= bound,
        "light p99 {p99_cont:?} exceeds bound {bound:?} (solo p99 {p99_solo:?})"
    );
    // The scheduler measured its own queueing: sched_wait histograms
    // recorded for both tenants.
    let expo = registry.expose();
    assert!(expo.contains("sched_wait_ns_count{tenant=\"light\"}"));
    assert!(expo.contains("sched_wait_ns_count{tenant=\"heavy\"}"));
}

/// Overload on the session path sheds with the retryable status, keeps
/// the breaker closed, and protects admitted goodput — mirroring the
/// quarantine contract (answered, never counted as datapath failure).
#[test]
fn session_overload_sheds_retryably_without_tripping_breaker() {
    let registry = Arc::new(Registry::new());
    let mut sched: TenantScheduler<()> = TenantScheduler::new(SchedConfig {
        tenants: vec![TenantSpec::new("hog", 1)],
        bucket_rate: 1000.0,
        bucket_burst: 16.0,
        ..SchedConfig::default()
    });
    sched.bind_metrics(&registry);
    let layers = SessionLayers {
        sched: Some(sched),
        ..SessionLayers::default()
    };
    let mut session = ResilientSession::with_layers(
        Fabric::new(),
        ServiceSchema::paper_bench(),
        Config::test_small(),
        Config::test_small(),
        registry.clone(),
        "shed",
        SessionConfig::default(),
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
    let ok = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let shed = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let mut issued = 0u64;
    // Flood far past the 16-token burst: the excess must come back as
    // STATUS_SHED immediately (no datapath, no journal entry).
    while issued < 200 {
        let ok2 = ok.clone();
        let shed2 = shed.clone();
        match session.call_tenant(
            "hog",
            1,
            &wire,
            Box::new(move |payload, status| match status {
                0 => {
                    assert_eq!(payload, 300u32.to_le_bytes());
                    ok2.fetch_add(1, Ordering::Relaxed);
                }
                s if s == STATUS_SHED => {
                    assert!(payload.is_empty());
                    shed2.fetch_add(1, Ordering::Relaxed);
                }
                s => panic!("unexpected status {s}"),
            }),
        ) {
            Ok(_) => issued += 1,
            Err(e) if e.retry_class() == RetryClass::Transient => {
                session.tick(Duration::ZERO).unwrap();
            }
            Err(e) => panic!("unexpected {e}"),
        }
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while ok.load(Ordering::Relaxed) + shed.load(Ordering::Relaxed) < 200 {
        assert!(Instant::now() < deadline, "responses missing");
        session.tick(Duration::ZERO).unwrap();
    }

    let served = ok.load(Ordering::Relaxed);
    let dropped = shed.load(Ordering::Relaxed);
    assert_eq!(served + dropped, 200, "every caller answered exactly once");
    assert!(served >= 16, "the burst is admitted goodput");
    assert!(dropped >= 100, "the flood is shed, not queued");
    // Shed is visible per tenant in the registry…
    assert_eq!(
        registry.counter_value("sched_shed_total", &[("tenant", "hog")]),
        Some(dropped)
    );
    assert_eq!(
        registry.counter_value("sched_admitted_total", &[("tenant", "hog")]),
        Some(served)
    );
    // …and never counted as datapath failure: breaker closed, no trips.
    assert!(!session.breaker_is_open());
    assert_eq!(
        registry.counter_value("session_breaker_trips_total", &[("conn", "shed")]),
        Some(0)
    );
    assert_eq!(session.outstanding(), 0);
}

/// Full Figure-1 topology with the scheduler in the DPU: tenant metadata
/// set by a plain xRPC client flows through termination, classification,
/// the RDMA datapath, and lands in the host's per-tenant dispatch
/// counters.
#[test]
fn tenant_metadata_flows_to_host_dispatch_counters() {
    let bundle = ServiceSchema::paper_bench();
    let rdma = Fabric::new();
    let tcp = TcpFabric::new();
    let registry = Arc::new(Registry::new());
    let adt_bytes = bundle.adt_bytes();
    let cfg = Config::test_small();
    let ep = establish(&rdma, cfg, cfg, &registry, "e2e", Some(&adt_bytes));
    let client = OffloadClient::new(ep.client, bundle.clone(), ep.control_blob.as_deref()).unwrap();
    let mut server = CompatServer::new(ep.server, PayloadMode::Native);
    server.bind_tenant_metrics(&registry);
    server.register_native_md(
        &bundle,
        1,
        Arc::new(|_md, view, _out| {
            assert_eq!(view.get_u32(1).unwrap(), 300);
            0
        }),
    );
    let host_stop = Arc::new(AtomicBool::new(false));
    let hs = host_stop.clone();
    let host = std::thread::spawn(move || {
        while !hs.load(Ordering::Acquire) {
            server.event_loop(Duration::from_millis(1)).unwrap();
        }
    });

    let mut sched: TenantScheduler<ForwardRequest> = TenantScheduler::new(pair_cfg());
    sched.bind_metrics(&registry);
    let layers = Layers {
        sched: Some(sched),
        conn_label: "e2e".to_string(),
        ..Layers::new(ForwardMode::Offload)
    };
    let terminator = XrpcTerminator::spawn(&tcp, "dpu:mt", client, layers);

    let wire = encode_message(&gen_small(&paper_schema()));
    let mut ch = GrpcChannel::connect(&tcp, "dpu:mt").unwrap();
    let mut md_light = Metadata::new();
    md_light.insert("tenant", "light");
    let mut md_heavy = Metadata::new();
    md_heavy.insert("tenant", "heavy");
    for _ in 0..6 {
        let (status, _) = ch.call_raw_with_metadata(1, &md_heavy, &wire).unwrap();
        assert_eq!(status, 0);
    }
    for _ in 0..3 {
        let (status, _) = ch.call_raw_with_metadata(1, &md_light, &wire).unwrap();
        assert_eq!(status, 0);
    }
    // Unlabeled traffic classifies into the default tenant.
    let (status, _) = ch.call_raw(1, &wire).unwrap();
    assert_eq!(status, 0);

    terminator.shutdown().unwrap();
    host_stop.store(true, Ordering::Release);
    host.join().unwrap();

    // DPU-side scheduler counters and host-side dispatch counters agree.
    for (tenant, n) in [("light", 3), ("heavy", 6), (pbo_grpc::DEFAULT_TENANT, 1)] {
        assert_eq!(
            registry.counter_value("host_dispatch_total", &[("tenant", tenant)]),
            Some(n),
            "host dispatch for {tenant}"
        );
        assert_eq!(
            registry.counter_value("sched_served_total", &[("tenant", tenant)]),
            Some(n),
            "sched served for {tenant}"
        );
    }
}

// ---------------------------------------------------------------------------
// Noisy-neighbor chaos soak: 10:1 flood + connection kills.
// ---------------------------------------------------------------------------

/// A heavy tenant floods at ~10× the victim's rate while seeded
/// [`FaultKind::ConnectionKill`]s tear the connection down mid-flood. The
/// victim tenant must keep its tail latency bounded (admission control
/// sheds the flood before it queues), every victim continuation fires
/// exactly once with the right payload, and the heavy tenant's excess is
/// shed retryably — the breaker stays closed throughout.
fn noisy_neighbor(seed: u32) {
    let registry = Arc::new(Registry::new());
    let fabric = Fabric::new();
    let cfg = SessionConfig {
        reconnect_max_attempts: 16,
        reconnect_backoff: Duration::from_micros(50),
        ..SessionConfig::default()
    };
    // Victim weight 50 → effectively unlimited bucket for its paced load;
    // the flooding tenant gets a 500/s, burst-64 bucket that its tight
    // loop overruns immediately.
    let mut sched: TenantScheduler<()> = TenantScheduler::new(SchedConfig {
        tenants: vec![TenantSpec::new("victim", 50), TenantSpec::new("flood", 1)],
        bucket_rate: 500.0,
        bucket_burst: 64.0,
        ..SchedConfig::default()
    });
    sched.bind_metrics(&registry);
    let layers = SessionLayers {
        sched: Some(sched),
        ..SessionLayers::default()
    };
    let mut session = ResilientSession::with_layers(
        fabric.clone(),
        ServiceSchema::paper_bench(),
        Config::test_small(),
        Config::test_small(),
        registry.clone(),
        "noisy",
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

    // Connection kills spread across the run, seeded like the main soak.
    let mut rng = Mt19937::new(seed);
    let mut op = 10 + rng.below(20) as u64;
    for _ in 0..3 {
        fabric.faults().fail_nth(op, FaultKind::ConnectionKill);
        op += 30 + rng.below(40) as u64;
    }

    let wire = encode_message(&gen_small(&paper_schema()));
    const VICTIMS: usize = 120;
    let victim_done = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let flood_answered = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let flood_shed = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let mut victim_lat = Vec::with_capacity(VICTIMS);
    let latencies: Arc<parking_lot::Mutex<Vec<Duration>>> =
        Arc::new(parking_lot::Mutex::new(Vec::new()));
    let deadline = Instant::now() + Duration::from_secs(60);

    let mut issued_victims = 0usize;
    while victim_done.load(Ordering::Relaxed) < VICTIMS as u64 {
        assert!(
            Instant::now() < deadline,
            "seed {seed}: noisy-neighbor soak wedged at {}/{VICTIMS}",
            victim_done.load(Ordering::Relaxed)
        );
        // ~10 flood offers per victim offer.
        for _ in 0..10 {
            let a = flood_answered.clone();
            let s = flood_shed.clone();
            let res = session.call_tenant(
                "flood",
                1,
                &wire,
                Box::new(move |_payload, status| {
                    if status == STATUS_SHED {
                        s.fetch_add(1, Ordering::Relaxed);
                    } else {
                        assert_eq!(status, 0);
                        a.fetch_add(1, Ordering::Relaxed);
                    }
                }),
            );
            match res {
                Ok(_) => {}
                Err(e) if e.retry_class() == RetryClass::Transient => break,
                Err(e) => panic!("seed {seed}: flood hit {e}"),
            }
        }
        if issued_victims < VICTIMS {
            let d = victim_done.clone();
            let lat = latencies.clone();
            let t0 = Instant::now();
            let res = session.call_tenant(
                "victim",
                1,
                &wire,
                Box::new(move |payload, status| {
                    assert_eq!(status, 0, "victim request failed");
                    assert_eq!(payload, 300u32.to_le_bytes());
                    lat.lock().push(t0.elapsed());
                    d.fetch_add(1, Ordering::Relaxed);
                }),
            );
            match res {
                Ok(_) => issued_victims += 1,
                Err(e) if e.retry_class() == RetryClass::Transient => {}
                Err(e) => panic!("seed {seed}: victim hit {e}"),
            }
        }
        session.tick(Duration::ZERO).unwrap();
    }
    // Drain the flood's admitted stragglers.
    while session.outstanding() > 0 {
        assert!(Instant::now() < deadline, "seed {seed}: drain wedged");
        session.tick(Duration::ZERO).unwrap();
    }
    victim_lat.append(&mut latencies.lock());

    assert_eq!(victim_lat.len(), VICTIMS, "seed {seed}: exactly-once");
    victim_lat.sort();
    let p99 = victim_lat[VICTIMS * 99 / 100];
    // Bounded tail: reconnects cost ~a millisecond in the sim; queueing
    // behind an unshed flood (or a wedged replay) would cost far more.
    assert!(
        p99 < Duration::from_millis(250),
        "seed {seed}: victim p99 {p99:?}"
    );
    assert!(
        flood_shed.load(Ordering::Relaxed) > 0,
        "seed {seed}: the flood was never shed"
    );
    assert!(
        !session.breaker_is_open(),
        "seed {seed}: shedding must not trip the breaker"
    );
    assert!(
        registry
            .counter_value("session_reconnects_total", &[("conn", "noisy")])
            .unwrap_or(0)
            >= 1,
        "seed {seed}: connection kills never forced a reconnect"
    );
    assert_eq!(
        registry.counter_value("sched_shed_total", &[("tenant", "flood")]),
        Some(flood_shed.load(Ordering::Relaxed)),
        "seed {seed}"
    );
    assert_eq!(
        registry.counter_value("sched_shed_total", &[("tenant", "victim")]),
        Some(0),
        "seed {seed}: the victim must never be shed"
    );
}

#[test]
fn noisy_neighbor_seed_1() {
    noisy_neighbor(1);
}

#[test]
fn noisy_neighbor_seed_2() {
    noisy_neighbor(2);
}

#[test]
fn noisy_neighbor_seed_3() {
    noisy_neighbor(3);
}
