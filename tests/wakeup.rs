//! Integration: the poller blocks where its next event comes from.
//!
//! An idle poller — nothing outstanding on the RDMA side, nothing queued
//! of its own — parks on the xRPC hand-off channel, so a request wakes it
//! at once instead of waiting out a timed completion-queue sleep:
//!
//! * low-load round trips cost what the datapath costs, not the sleep,
//! * whatever reached the completion queue while the poller was parked
//!   (a `CACHE_INVALIDATE`) is applied before the waking request is
//!   classified,
//! * a disconnected hand-off channel neither spins nor delays shutdown,
//! * and `RpcClient::is_quiescent` — the predicate the choice rests on —
//!   is false whenever a completion could be the next event.

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use pbo_core::compat::PayloadMode;
use pbo_core::terminator::{poller_loop, poller_loop_cached, ForwardMode, ForwardRequest};
use pbo_core::{
    CacheConfig, CompatServer, OffloadClient, ResponseCache, SchedConfig, ServiceSchema,
    TenantScheduler, TenantSpec,
};
use pbo_metrics::Registry;
use pbo_protowire::encode_message;
use pbo_protowire::workloads::{gen_small, paper_schema};
use pbo_rpcrdma::{establish, Config, RpcError};
use pbo_simnet::{Fabric, FaultKind};
use pbo_trace::Tracer;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The bound on one idle wait in `pbo_core::terminator`.
const BOUND: Duration = Duration::from_millis(1);

/// The timing tests measure wake-up latency and CPU time on a box that
/// may have two cores: they take turns instead of competing.
fn serial() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

/// Asks the host thread to invalidate a class; the enclosed sender is
/// signalled once the control record has been posted to the DPU.
type Invalidate = (u16, Sender<()>);

/// The host half of an established connection: a thread serving proc 1
/// with empty business logic.
struct Rig {
    registry: Arc<Registry>,
    invalidate: Sender<Invalidate>,
    host_stop: Arc<AtomicBool>,
    host: JoinHandle<()>,
}

impl Rig {
    /// Establishes a connection; returns the host half and the DPU-side
    /// client for a poller to own.
    fn new(label: &str) -> (Self, OffloadClient) {
        let bundle = ServiceSchema::paper_bench();
        let registry = Arc::new(Registry::new());
        let adt = bundle.adt_bytes();
        let cfg = Config::test_small();
        let ep = establish(&Fabric::new(), cfg, cfg, &registry, label, Some(&adt));
        let client = OffloadClient::new(ep.client, bundle.clone(), ep.control_blob.as_deref())
            .expect("both ends generate the same ADT");
        let mut server = CompatServer::new(ep.server, PayloadMode::Native);
        server.register_empty_logic(&bundle, 1);
        let (invalidate, inv_rx) = unbounded::<Invalidate>();
        let host_stop = Arc::new(AtomicBool::new(false));
        let stop = host_stop.clone();
        let host = std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                if let Ok((class, posted)) = inv_rx.try_recv() {
                    server.push_cache_invalidate(class);
                    // This pass ships the control record; the simulated
                    // write is synchronous, so it is in the DPU's
                    // completion queue when the pass returns.
                    server.event_loop(Duration::ZERO).unwrap();
                    posted.send(()).unwrap();
                }
                server.event_loop(BOUND).unwrap();
            }
        });
        let rig = Self {
            registry,
            invalidate,
            host_stop,
            host,
        };
        (rig, client)
    }

    fn stop_host(self) {
        self.host_stop.store(true, Ordering::Release);
        self.host.join().unwrap();
    }
}

/// Hands one proc-1 request to a poller the way an xRPC connection
/// thread does and waits for the reply.
fn call(tx: &Sender<ForwardRequest>, wire: &[u8]) -> (u16, Vec<u8>) {
    let (resp_tx, resp_rx) = bounded(1);
    tx.send(ForwardRequest {
        proc_id: 1,
        wire: wire.to_vec(),
        metadata: Vec::new(),
        tenant: pbo_grpc::DEFAULT_TENANT.to_string(),
        resp_tx,
        recv_ns: 0,
    })
    .expect("poller is alive");
    resp_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("request answered")
}

fn small_wire() -> Vec<u8> {
    encode_message(&gen_small(&paper_schema()))
}

/// (a) Requests that arrive at an idle poller are picked up on arrival.
/// The requests are 3 ms apart, so each finds the poller parked; with a
/// blind 1 ms completion-queue sleep the median round trip was ~600 us.
#[test]
fn idle_poller_wakes_on_request_arrival() {
    let _turn = serial();
    let (rig, client) = Rig::new("wake");
    let (tx, rx) = bounded::<ForwardRequest>(16);
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let poller = std::thread::spawn(move || poller_loop(client, rx, ForwardMode::Offload, stop2));

    let wire = small_wire();
    let mut round_trips: Vec<Duration> = (0..200)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(3));
            let t0 = Instant::now();
            assert_eq!(call(&tx, &wire).0, 0);
            t0.elapsed()
        })
        .collect();
    round_trips.sort_unstable();
    let median = round_trips[round_trips.len() / 2];

    stop.store(true, Ordering::Release);
    drop(tx);
    poller.join().unwrap().unwrap();
    rig.stop_host();
    assert!(
        median < Duration::from_micros(350),
        "median round trip {median:?}: the idle poller is not woken by arrival"
    );
}

/// (b) DESIGN.md §15: once the host's invalidation has crossed the wire,
/// no later request can hit the stale class — also when the poller was
/// parked on the hand-off channel while the control record landed.
#[test]
fn invalidation_that_lands_while_parked_is_applied_before_the_next_lookup() {
    let _turn = serial();
    let (rig, mut client) = Rig::new("inval");
    let mut sched: TenantScheduler<ForwardRequest> = TenantScheduler::new(SchedConfig {
        tenants: vec![TenantSpec::new(pbo_grpc::DEFAULT_TENANT, 1)],
        credit_window: Config::test_small().credits,
        inflight_per_credit: 4,
        ..SchedConfig::default()
    });
    sched.bind_metrics(&rig.registry);
    client.rpc().set_credit_observer(sched.fabric());
    let cache = ResponseCache::new(CacheConfig::default());
    cache.bind_metrics(&rig.registry);
    cache.declare_default(1);
    let (tx, rx) = bounded::<ForwardRequest>(16);
    let stop = Arc::new(AtomicBool::new(false));
    let (stop2, cache2) = (stop.clone(), cache.clone());
    let poller = std::thread::spawn(move || {
        let tracer = Tracer::disabled();
        poller_loop_cached(
            client,
            rx,
            ForwardMode::Offload,
            stop2,
            None,
            sched,
            cache2,
            tracer,
        )
    });

    let wire = small_wire();
    let tenant = [("tenant", pbo_grpc::DEFAULT_TENANT)];
    let count = |name: &str| rig.registry.counter_value(name, &tenant).unwrap_or(0);
    // Prime the class (the store runs before the reply is sent) and see
    // it hit.
    assert_eq!(call(&tx, &wire).0, 0);
    assert_eq!(cache.len(), 1);
    assert_eq!(call(&tx, &wire).0, 0);
    assert_eq!(
        (count("cache_misses_total"), count("cache_hits_total")),
        (1, 1)
    );

    // The poller is idle. Invalidate host-side and wait until the control
    // record is in the DPU's completion queue; nothing wakes the poller
    // for it.
    let (posted_tx, posted_rx) = bounded(1);
    rig.invalidate.send((1, posted_tx)).unwrap();
    posted_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("host posted the invalidation");

    // The very next request for the primed key must miss.
    assert_eq!(call(&tx, &wire).0, 0);
    assert_eq!(
        (count("cache_misses_total"), count("cache_hits_total")),
        (2, 1)
    );
    assert_eq!(
        rig.registry.counter_value("cache_invalidations_total", &[]),
        Some(1)
    );

    stop.store(true, Ordering::Release);
    drop(tx);
    poller.join().unwrap().unwrap();
    rig.stop_host();
}

/// Nanoseconds the thread `tid` of this process has spent on a CPU, from
/// the scheduler's own accounting; `None` where the kernel keeps none.
fn thread_cpu_ns(tid: &str) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?;
    stat.split_whitespace().next()?.parse().ok()
}

/// Starts a plain poller that first reports its kernel thread id (empty
/// where `/proc/thread-self` does not exist).
fn spawn_reporting_poller(
    client: OffloadClient,
    rx: Receiver<ForwardRequest>,
    stop: Arc<AtomicBool>,
) -> (JoinHandle<Result<(), RpcError>>, String) {
    let (tid_tx, tid_rx) = bounded(1);
    let poller = std::thread::spawn(move || {
        let tid = std::fs::read_link("/proc/thread-self")
            .ok()
            .and_then(|p| Some(p.file_name()?.to_str()?.to_string()))
            .unwrap_or_default();
        tid_tx.send(tid).unwrap();
        poller_loop(client, rx, ForwardMode::Offload, stop)
    });
    let tid = tid_rx.recv().unwrap();
    (poller, tid)
}

/// (c) With every sender gone a blocking receive returns at once: the
/// poller must fall back to a bounded wait, not loop hot, and must still
/// leave promptly once told to stop.
#[test]
fn disconnected_handoff_neither_spins_nor_delays_shutdown() {
    let _turn = serial();
    let (rig, client) = Rig::new("disc");
    let (tx, rx) = bounded::<ForwardRequest>(16);
    let stop = Arc::new(AtomicBool::new(false));
    let (poller, tid) = spawn_reporting_poller(client, rx, stop.clone());
    assert_eq!(call(&tx, &small_wire()).0, 0);
    drop(tx);

    let cpu0 = thread_cpu_ns(&tid);
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        !poller.is_finished(),
        "stop is unset: the poller keeps serving"
    );
    match (cpu0, thread_cpu_ns(&tid)) {
        (Some(a), Some(b)) => assert!(
            b - a < 5_000_000,
            "poller burned {} us of CPU in 50 ms with its hand-off channel disconnected",
            (b - a) / 1000
        ),
        _ => eprintln!("no per-thread scheduler accounting here: CPU check skipped"),
    }

    let t0 = Instant::now();
    stop.store(true, Ordering::Release);
    poller.join().unwrap().unwrap();
    let took = t0.elapsed();
    rig.stop_host();
    // Two bounds, plus room for the scheduler to run the thread.
    assert!(
        took < 2 * BOUND + Duration::from_millis(3),
        "a stopped, drained poller took {took:?} to return"
    );
}

/// (d) `is_quiescent` across a request's life, including both integrity
/// recoveries. It must be false in every state from which the endpoint's
/// next step is a post or a completion — including the ones in which
/// `outstanding()` is already (or still) zero.
#[test]
fn is_quiescent_tracks_every_state_that_awaits_a_completion() {
    let fabric = Fabric::new();
    let registry = Registry::new();
    let cfg = Config::test_small();
    let mut ep = establish(&fabric, cfg, cfg, &registry, "quiet", None);
    ep.server.register(
        7,
        Box::new(|req, sink| {
            sink.write(req.payload);
            0
        }),
    );
    let delivered = Arc::new(AtomicUsize::new(0));
    let enqueue = |client: &mut pbo_rpcrdma::RpcClient| {
        let d = delivered.clone();
        client
            .enqueue_bytes(
                7,
                b"ping",
                Box::new(move |_payload, status| {
                    assert_eq!(status, 0);
                    d.fetch_add(1, Ordering::Relaxed);
                }),
            )
            .unwrap();
    };
    let (client, server) = (&mut ep.client, &mut ep.server);
    assert!(client.is_quiescent(), "fresh endpoint");

    // Clean round trip.
    enqueue(client);
    assert_eq!(client.outstanding(), 0);
    assert!(!client.is_quiescent(), "a message sits in the open block");
    client.flush().unwrap();
    assert!(!client.is_quiescent(), "a response is owed");
    assert_eq!(server.event_loop(Duration::ZERO).unwrap(), 1);
    assert!(!client.is_quiescent(), "the response is not processed yet");
    assert_eq!(client.event_loop(Duration::ZERO).unwrap(), 1);
    assert!(client.is_quiescent(), "answered and acknowledged");

    // Corrupt request block: server NACKs, client retransmits.
    enqueue(client);
    fabric.faults().fail_nth(0, FaultKind::BitFlip);
    client.flush().unwrap();
    assert_eq!(server.event_loop(Duration::ZERO).unwrap(), 0);
    assert_eq!(client.event_loop(Duration::ZERO).unwrap(), 0);
    assert!(!client.is_quiescent(), "retransmitted, response still owed");
    assert_eq!(server.event_loop(Duration::ZERO).unwrap(), 1);
    assert_eq!(client.event_loop(Duration::ZERO).unwrap(), 1);
    assert!(client.is_quiescent(), "healed");

    // Corrupt response block: client NACKs with a control-only block,
    // which stays in flight until the server's control-ack.
    enqueue(client);
    client.flush().unwrap();
    fabric.faults().fail_nth(0, FaultKind::BitFlip);
    assert_eq!(server.event_loop(Duration::ZERO).unwrap(), 1);
    assert_eq!(client.event_loop(Duration::ZERO).unwrap(), 0);
    assert!(
        !client.is_quiescent(),
        "awaiting the retransmitted response"
    );
    assert_eq!(server.event_loop(Duration::ZERO).unwrap(), 0);
    assert_eq!(client.event_loop(Duration::ZERO).unwrap(), 1);
    assert_eq!(client.outstanding(), 0);
    assert!(
        client.is_quiescent(),
        "response delivered, NACK block acked"
    );
    assert_eq!(delivered.load(Ordering::Relaxed), 3);
    assert_eq!(client.credits(), cfg.credits);
}
