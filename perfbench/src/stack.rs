//! The one place the benchmark constructs and drives the program.
//!
//! Every constructor, poller and thread-spawning call into `pbo_core`,
//! `pbo_rpcrdma` and `pbo_simnet` lives in this file. When the datapath
//! gets a pipeline builder (ROADMAP item 2) this file changes mechanically
//! and nothing that computes a metric does.
//!
//! Threading: the caller's thread is the single load generator; `build`
//! adds one poller thread (the terminator's DPU side, running the public
//! `poller_loop*` exactly as `XrpcTerminator::spawn*` does) and one host
//! thread (the `CompatServer` event loop). `ForwardRequest`s are injected
//! the way an xRPC connection thread does it in `forwarding_registry`:
//! a fresh `bounded(1)` reply slot, `wire.to_vec()`, an owned tenant string.

use crate::check::Verifier;
use crate::workload::{
    Arm, Composition, PROC_CHARS, PROC_INTS, PROC_SMALL, TENANT_BATCH, TENANT_WEB,
};
use crossbeam::channel::{bounded, Receiver, Sender};
use pbo_cache::{CacheConfig, ResponseCache};
use pbo_core::compat::PayloadMode;
use pbo_core::terminator::{poller_loop, poller_loop_cached, poller_loop_traced};
use pbo_core::{CompatServer, ForwardMode, ForwardRequest, OffloadClient, ServiceSchema};
use pbo_metrics::Registry;
use pbo_rpcrdma::{establish, Config, RpcClient, RpcError, RpcServer};
use pbo_sched::{SchedConfig, TenantScheduler, TenantSpec};
use pbo_simnet::{connect_pair, Fabric, MemoryRegion, PcieStats, ProtectionDomain, QueuePair};
use pbo_trace::{Clock, Span, TraceConfig, Tracer};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Connection label: names the metric series and the trace tracks.
const CONN: &str = "perf";
/// Depth of the xRPC-side hand-off channel, as `XrpcTerminator` sizes it.
const HANDOFF_DEPTH: usize = 4096;
/// TTL of the cacheable method: longer than any run, so only capacity evicts.
const CACHE_TTL_NS: u64 = 600_000_000_000;

/// What to build.
#[derive(Clone, Copy, Debug)]
pub struct StackSpec {
    pub arm: Arm,
    pub composition: Composition,
    /// Trace one request in this many; 0 turns the program's tracer off.
    pub trace_every: u64,
    /// Ring capacity of each span sink (spans).
    pub sink_capacity: usize,
}

impl StackSpec {
    /// The configuration the end-to-end numbers are measured on: tracing
    /// off, except `mixed_stack`'s leave-on 1-in-16.
    pub fn measured(arm: Arm, composition: Composition) -> Self {
        Self {
            arm,
            composition,
            trace_every: match composition {
                Composition::Plain => 0,
                Composition::Mixed => 16,
            },
            sink_capacity: 65_536,
        }
    }
}

/// Exact counts read from the program's public registries and snapshots.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub requests_enqueued: u64,
    pub blocks_sent: u64,
    pub credit_stalls: u64,
    pub retransmits: u64,
    pub sched_shed: u64,
    pub sched_queued_peak: i64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub spans_dropped: u64,
}

/// The running three-thread stack.
pub struct Stack {
    tx: Sender<ForwardRequest>,
    poller: JoinHandle<Result<(), RpcError>>,
    host: JoinHandle<Result<(), RpcError>>,
    stop_poller: Arc<AtomicBool>,
    stop_host: Arc<AtomicBool>,
    host_busy_ns: Arc<AtomicU64>,
    fabric: Fabric,
    registry: Arc<Registry>,
    cache: Option<ResponseCache>,
    tracer: Tracer,
}

impl Stack {
    /// Builds schema + ADT, establishes the RDMA connection, registers the
    /// verifying business logic and starts the poller and host threads.
    /// The caller times this call as `setup_s`.
    pub fn build(spec: StackSpec, verifier: &Arc<Verifier>) -> Self {
        let bundle = ServiceSchema::paper_bench();
        let fabric = Fabric::new();
        let registry = Arc::new(Registry::new());
        let adt = bundle.adt_bytes();
        let (client_cfg, server_cfg) = (Config::paper_client(), Config::paper_server());
        let ep = establish(&fabric, client_cfg, server_cfg, &registry, CONN, Some(&adt));
        let mut client = OffloadClient::new(ep.client, bundle.clone(), ep.control_blob.as_deref())
            .expect("DPU and host generate the same ADT");
        let (mode, payload) = match spec.arm {
            Arm::Offload => (ForwardMode::Offload, PayloadMode::Native),
            Arm::Forward => (ForwardMode::Forward, PayloadMode::Serialized),
        };
        let mut server = CompatServer::new(ep.server, payload);
        for proc_id in [PROC_SMALL, PROC_INTS, PROC_CHARS] {
            server.register_native(&bundle, proc_id, verifier.handler(proc_id));
        }

        let tracer = Tracer::new(TraceConfig {
            sample_every: spec.trace_every,
            clock: Clock::wall(),
            sink_capacity: spec.sink_capacity,
        });
        if tracer.is_enabled() {
            tracer.bind_registry(&registry);
            client.set_tracer(&tracer, CONN);
            server.set_tracer(&tracer, CONN);
        }
        let sink = tracer
            .is_enabled()
            .then(|| tracer.sink(&format!("{CONN}/client")));

        let stop_host = Arc::new(AtomicBool::new(false));
        let host_busy_ns = Arc::new(AtomicU64::new(0));
        let host = {
            let (stop, busy) = (stop_host.clone(), host_busy_ns.clone());
            spawn_pinned("perf-host", CPU_HOST, move || -> Result<(), RpcError> {
                while !stop.load(Ordering::Acquire) {
                    if server.event_loop(Duration::from_micros(200))? > 0 {
                        busy.store(server.snapshot().busy_ns, Ordering::Relaxed);
                    }
                }
                while server.event_loop(Duration::ZERO)? > 0 {}
                busy.store(server.snapshot().busy_ns, Ordering::Relaxed);
                Ok(())
            })
        };

        let (tx, rx) = bounded::<ForwardRequest>(HANDOFF_DEPTH);
        let stop_poller = Arc::new(AtomicBool::new(false));
        let stop = stop_poller.clone();
        let mut cache_handle = None;
        let poller = match spec.composition {
            Composition::Plain => spawn_pinned("perf-poller", CPU_DPU, move || match sink {
                None => poller_loop(client, rx, mode, stop),
                some => poller_loop_traced(client, rx, mode, stop, some),
            }),
            Composition::Mixed => {
                let mut sched: TenantScheduler<ForwardRequest> =
                    TenantScheduler::new(mixed_sched_config());
                sched.bind_metrics(&registry);
                client.rpc().set_credit_observer(sched.fabric());
                let cache = ResponseCache::new(CacheConfig::default());
                cache.bind_metrics(&registry);
                cache.declare(PROC_INTS, CACHE_TTL_NS);
                cache_handle = Some(cache.clone());
                let tracer = tracer.clone();
                spawn_pinned("perf-poller", CPU_DPU, move || {
                    poller_loop_cached(client, rx, mode, stop, sink, sched, cache, tracer)
                })
            }
        };

        Self {
            tx,
            poller,
            host,
            stop_poller,
            stop_host,
            host_busy_ns,
            fabric,
            registry,
            cache: cache_handle,
            tracer,
        }
    }

    /// Hands one request to the poller as an xRPC connection thread would
    /// and returns its reply slot.
    pub fn submit(&self, proc_id: u16, wire: &[u8], tenant: &str) -> Receiver<(u16, Vec<u8>)> {
        let (resp_tx, resp_rx) = bounded(1);
        let recv_ns = if self.tracer.is_enabled() {
            self.tracer.now_ns()
        } else {
            0
        };
        self.tx
            .send(ForwardRequest {
                proc_id,
                wire: wire.to_vec(),
                metadata: Vec::new(),
                tenant: tenant.to_string(),
                resp_tx,
                recv_ns,
            })
            .expect("poller thread is alive");
        resp_rx
    }

    /// Host poller busy time so far, as the host loop last published it.
    pub fn host_busy_ns(&self) -> u64 {
        self.host_busy_ns.load(Ordering::Relaxed)
    }

    /// Bytes and transfers over the simulated PCIe link so far.
    pub fn pcie(&self) -> PcieStats {
        self.fabric.link().stats()
    }

    pub fn counters(&self) -> Counters {
        let client = [("conn", CONN), ("side", "client")];
        let count = |name: &str| self.registry.counter_value(name, &client).unwrap_or(0);
        let (mut hits, mut misses, mut evictions) = (0, 0, 0);
        if let Some(cache) = &self.cache {
            for t in cache.snapshot().tenants {
                hits += t.hits;
                misses += t.misses;
                evictions += t.evictions;
            }
        }
        Counters {
            requests_enqueued: count("rpc_requests_enqueued_total"),
            blocks_sent: count("rpc_blocks_sent_total"),
            credit_stalls: count("rpc_credit_stalls_total"),
            retransmits: count("integrity_retransmits_total"),
            sched_shed: self.registry.counter_sum("sched_shed_total"),
            sched_queued_peak: [TENANT_WEB, TENANT_BATCH]
                .iter()
                .filter_map(|t| {
                    self.registry
                        .gauge_value("sched_queue_depth_peak", &[("tenant", t)])
                })
                .max()
                .unwrap_or(0),
            cache_hits: hits,
            cache_misses: misses,
            cache_evictions: evictions,
            spans_dropped: self.tracer.dropped(),
        }
    }

    /// The registry every endpoint and layer of this stack reports into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Drains the program's span sinks (`(track, spans)` per sink).
    pub fn drain_spans(&self) -> Vec<(String, Vec<Span>)> {
        self.tracer.drain()
    }

    /// Stops the poller (after it drained), then the host, joining both.
    pub fn shutdown(self) -> Result<(), String> {
        self.stop_poller.store(true, Ordering::Release);
        drop(self.tx);
        let poller = self.poller.join();
        self.stop_host.store(true, Ordering::Release);
        let host = self.host.join();
        for (who, res) in [("poller", poller), ("host", host)] {
            match res {
                Err(_) => return Err(format!("{who} thread panicked")),
                Ok(Err(e)) => return Err(format!("{who} thread failed: {e}")),
                Ok(Ok(())) => {}
            }
        }
        Ok(())
    }
}

/// `mixed_stack`'s scheduler: tenants `web` (weight 3) and `batch`
/// (weight 1) over the paper client's credit window, admission inert (no
/// rate limit, deep queues), so nothing is ever shed.
pub fn mixed_sched_config() -> SchedConfig {
    SchedConfig {
        tenants: vec![
            TenantSpec::new(TENANT_WEB, 3),
            TenantSpec::new(TENANT_BATCH, 1),
        ],
        credit_window: Config::paper_client().credits,
        ..SchedConfig::default()
    }
}

/// Starts a named thread pinned to the `slot`-th CPU this process may run
/// on. The poller and the host each get a CPU of their own; left to the
/// scheduler they sometimes share one for a whole run while the generator
/// idles on the other, and throughput reads 18-27 k req/s instead of 35 k
/// on x512 Ints — a two-regime spread no statistic can average away.
fn spawn_pinned<T: Send + 'static>(
    name: &str,
    slot: usize,
    f: impl FnOnce() -> T + Send + 'static,
) -> JoinHandle<T> {
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            affinity::pin_current_thread(slot);
            f()
        })
        .expect("the OS can start a thread")
}

/// CPU slots: the DPU side (the poller and, with it, the generator that
/// plays the xRPC connection threads a real terminator runs beside its
/// poller) and the host side.
const CPU_DPU: usize = 0;
const CPU_HOST: usize = 1;

/// Pins the calling thread — the load generator — to the DPU side's CPU.
/// A floating generator lands on the host's CPU in some runs and not in
/// others, and the host's wall-clock busy time then includes being
/// preempted by it: `host_busy_ns_per_req` on `ints_forward` spread over
/// 14.5-16.5 us between otherwise identical runs.
pub fn pin_generator() {
    affinity::pin_current_thread(CPU_DPU);
}

#[cfg(target_os = "linux")]
mod affinity {
    use std::sync::OnceLock;

    /// Words in the kernel CPU mask we pass: 1024 CPUs, glibc's `cpu_set_t`.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// The CPUs this process may run on, read once, before the first pin:
    /// a thread inherits its creator's mask, so after the generator is
    /// pinned every new thread would see a single CPU.
    fn allowed_cpus() -> &'static [usize] {
        static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
        CPUS.get_or_init(|| {
            let mut mask = [0u64; WORDS];
            // SAFETY: `mask` is a live, writable buffer of exactly the size
            // passed; pid 0 names the calling thread.
            if unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
                return Vec::new();
            }
            (0..WORDS * 64)
                .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
                .collect()
        })
    }

    /// Pins the calling thread to the `slot`-th allowed CPU. Does nothing
    /// when fewer than two CPUs are allowed (nothing to keep apart) or not
    /// more than `slot`, or when the kernel refuses.
    pub fn pin_current_thread(slot: usize) {
        let cpus = allowed_cpus();
        if cpus.len() < 2 || slot >= cpus.len() {
            return;
        }
        let mut one = [0u64; WORDS];
        one[cpus[slot] / 64] = 1 << (cpus[slot] % 64);
        // SAFETY: `one` is a live buffer of exactly the size passed and is
        // only read; a failure leaves the thread's mask unchanged.
        unsafe { sched_setaffinity(0, size_of_val(&one), one.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn pin_current_thread(_slot: usize) {}
}

/// A bare `RpcClient` <-> `RpcServer` pair with an echo handler on
/// procedure 1, on the caller's thread (layer benches drive both ends).
pub fn bare_rpc_pair() -> (RpcClient, RpcServer) {
    let ep = establish(
        &Fabric::new(),
        Config::paper_client(),
        Config::paper_server(),
        &Registry::new(),
        "layer",
        None,
    );
    let mut server = ep.server;
    server.register(
        1,
        Box::new(|req, sink| {
            sink.write(&req.payload[..req.payload.len().min(8)]);
            0
        }),
    );
    (ep.client, server)
}

/// A connected simnet queue pair with one registered region on each side
/// (`len` bytes), for timing write-with-immediate and the DMA copy alone.
pub struct RawPair {
    pub dpu: QueuePair,
    pub host: QueuePair,
    pub local: MemoryRegion,
    pub remote: MemoryRegion,
}

pub fn raw_pair(len: usize) -> RawPair {
    let (pd_dpu, pd_host) = (ProtectionDomain::new(), ProtectionDomain::new());
    let fabric = Fabric::new();
    let (dpu, host) = connect_pair(
        &pd_dpu,
        &pd_host,
        1024,
        fabric.link().clone(),
        fabric.faults().clone(),
    );
    RawPair {
        dpu,
        host,
        local: pd_dpu.register(len),
        remote: pd_host.register(len),
    }
}
