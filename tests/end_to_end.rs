//! Integration: the complete Figure-1 topology across all crates.

use pbo_core::compat::PayloadMode;
use pbo_core::terminator::{ForwardMode, Layers, XrpcTerminator};
use pbo_core::{CompatServer, OffloadClient, ServiceSchema};
use pbo_grpc::GrpcChannel;
use pbo_metrics::Registry;
use pbo_protowire::encode_message;
use pbo_protowire::workloads::{gen_small, paper_schema, Mt19937, WorkloadKind};
use pbo_rpcrdma::{establish, Config};
use pbo_simnet::{Fabric, TcpFabric};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct Stack {
    terminator: XrpcTerminator,
    tcp: TcpFabric,
    rdma: Fabric,
    stop: Arc<AtomicBool>,
    host: Option<std::thread::JoinHandle<pbo_rpcrdma::ServerMetricsSnapshot>>,
}

fn launch(mode: ForwardMode, payload_mode: PayloadMode) -> Stack {
    let bundle = ServiceSchema::paper_bench();
    let rdma = Fabric::new();
    let tcp = TcpFabric::new();
    let registry = Registry::new();
    let adt = bundle.adt_bytes();
    let ep = establish(
        &rdma,
        Config::paper_client(),
        Config::paper_server(),
        &registry,
        "it",
        Some(&adt),
    );
    let client = OffloadClient::new(ep.client, bundle.clone(), ep.control_blob.as_deref())
        .expect("compatible");
    let mut server = CompatServer::new(ep.server, payload_mode);
    for proc_id in [1, 2, 3] {
        server.register_empty_logic(&bundle, proc_id);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let hs = stop.clone();
    let host = std::thread::spawn(move || {
        while !hs.load(Ordering::Acquire) {
            server.event_loop(Duration::from_millis(1)).expect("host");
        }
        while server.event_loop(Duration::ZERO).expect("drain") > 0 {}
        server.snapshot()
    });
    let terminator = XrpcTerminator::spawn(&tcp, "dpu:1", client, Layers::new(mode));
    Stack {
        terminator,
        tcp,
        rdma,
        stop,
        host: Some(host),
    }
}

impl Stack {
    fn finish(mut self) -> pbo_rpcrdma::ServerMetricsSnapshot {
        self.terminator.shutdown().expect("terminator clean");
        self.stop.store(true, Ordering::Release);
        self.host.take().expect("host").join().expect("host join")
    }
}

#[test]
fn offloaded_pipeline_serves_all_three_workloads() {
    let stack = launch(ForwardMode::Offload, PayloadMode::Native);
    let schema = paper_schema();
    let mut rng = Mt19937::new(Mt19937::PAPER_SEED);

    let mut ch = GrpcChannel::connect(&stack.tcp, "dpu:1").unwrap();
    let mut total = 0;
    for kind in WorkloadKind::ALL {
        let proc_id = match kind {
            WorkloadKind::Small => 1,
            WorkloadKind::Ints512 => 2,
            WorkloadKind::Chars8000 => 3,
        };
        let wire = encode_message(&kind.generate(&schema, &mut rng));
        for _ in 0..20 {
            let (status, resp) = ch.call_raw(proc_id, &wire).unwrap();
            assert_eq!(status, 0, "{}", kind.label());
            assert!(resp.is_empty());
            total += 1;
        }
    }
    assert_eq!(stack.terminator.calls_served(), total);
    let snap = stack.finish();
    assert_eq!(snap.requests, total);
}

#[test]
fn baseline_pipeline_equivalent_results() {
    let stack = launch(ForwardMode::Forward, PayloadMode::Serialized);
    let schema = paper_schema();
    let wire = encode_message(&gen_small(&schema));
    let mut ch = GrpcChannel::connect(&stack.tcp, "dpu:1").unwrap();
    for _ in 0..50 {
        let (status, _) = ch.call_raw(1, &wire).unwrap();
        assert_eq!(status, 0);
    }
    let snap = stack.finish();
    assert_eq!(snap.requests, 50);
}

#[test]
fn concurrent_xrpc_clients_multiplex_through_one_dpu_connection() {
    // §III.C's many-to-one-to-one model: many xRPC connections funnel into
    // one RPC-over-RDMA connection.
    let stack = launch(ForwardMode::Offload, PayloadMode::Native);
    let schema = paper_schema();
    let wire = Arc::new(encode_message(&gen_small(&schema)));
    let mut clients = Vec::new();
    for _ in 0..6 {
        let tcp = stack.tcp.clone();
        let wire = wire.clone();
        clients.push(std::thread::spawn(move || {
            let mut ch = GrpcChannel::connect(&tcp, "dpu:1").unwrap();
            for _ in 0..40 {
                let (status, _) = ch.call_raw(1, &wire).unwrap();
                assert_eq!(status, 0);
            }
        }));
    }
    for c in clients {
        c.join().unwrap();
    }
    assert_eq!(stack.terminator.calls_served(), 240);
    let snap = stack.finish();
    assert_eq!(snap.requests, 240);
}

#[test]
fn metadata_is_forwarded_to_host_handlers() {
    // Full §V.D: metadata attached by the xRPC client travels inside the
    // RPC-over-RDMA payload and reaches the host's typed handler.
    let bundle = ServiceSchema::paper_bench();
    let rdma = Fabric::new();
    let tcp = TcpFabric::new();
    let registry = Registry::new();
    let adt = bundle.adt_bytes();
    let ep = pbo_rpcrdma::establish(
        &rdma,
        Config::paper_client(),
        Config::paper_server(),
        &registry,
        "md",
        Some(&adt),
    );
    let client =
        pbo_core::OffloadClient::new(ep.client, bundle.clone(), ep.control_blob.as_deref())
            .unwrap();
    let mut server = pbo_core::CompatServer::new(ep.server, PayloadMode::Native);
    let seen = Arc::new(parking_lot::Mutex::new(Vec::<String>::new()));
    {
        let seen = seen.clone();
        server.register_native_md(
            &bundle,
            1,
            Arc::new(move |md, view, _out| {
                assert_eq!(view.get_u32(1).unwrap(), 300);
                if let Some(t) = md.get_str("trace-id") {
                    seen.lock().push(t.to_string());
                }
                0
            }),
        );
    }
    let stop = Arc::new(AtomicBool::new(false));
    let hs = stop.clone();
    let host = std::thread::spawn(move || {
        while !hs.load(Ordering::Acquire) {
            server.event_loop(Duration::from_millis(1)).unwrap();
        }
    });
    let terminator =
        XrpcTerminator::spawn(&tcp, "dpu:md", client, Layers::new(ForwardMode::Offload));

    let schema = paper_schema();
    let wire = encode_message(&gen_small(&schema));
    let mut ch = GrpcChannel::connect(&tcp, "dpu:md").unwrap();
    for i in 0..3 {
        let mut md = pbo_grpc::Metadata::new();
        md.insert("trace-id", format!("t-{i}").into_bytes());
        md.insert("authorization", b"Bearer ok".to_vec());
        let (status, _) = ch.call_raw_with_metadata(1, &md, &wire).unwrap();
        assert_eq!(status, 0);
    }
    // One call without metadata: handler sees none.
    let (status, _) = ch.call_raw(1, &wire).unwrap();
    assert_eq!(status, 0);

    terminator.shutdown().unwrap();
    stop.store(true, Ordering::Release);
    host.join().unwrap();
    assert_eq!(seen.lock().as_slice(), ["t-0", "t-1", "t-2"]);
}

#[test]
fn metadata_is_enforced_at_the_dpu_without_touching_the_host() {
    // §III.A moves connection-level work onto the DPU; the terminator
    // rejects unauthenticated calls before they reach the RDMA datapath,
    // and accepted metadata calls flow through normally.
    let stack = launch(ForwardMode::Offload, PayloadMode::Native);
    let schema = paper_schema();
    let wire = encode_message(&gen_small(&schema));
    let mut ch = GrpcChannel::connect(&stack.tcp, "dpu:1").unwrap();

    let mut denied = pbo_grpc::Metadata::new();
    denied.insert("authorization", b"deny".to_vec());
    let (status, _) = ch.call_raw_with_metadata(1, &denied, &wire).unwrap();
    assert_eq!(status, 16, "UNAUTHENTICATED, decided on the DPU");

    let mut ok = pbo_grpc::Metadata::new();
    ok.insert("authorization", b"Bearer good".to_vec());
    ok.insert("trace-id", b"t-42".to_vec());
    let (status, resp) = ch.call_raw_with_metadata(1, &ok, &wire).unwrap();
    assert_eq!(status, 0);
    assert!(resp.is_empty());

    let snap = stack.finish();
    // Exactly one request reached the host: the denied one never did.
    assert_eq!(snap.requests, 1);
}

#[test]
fn pcie_accounting_covers_both_directions() {
    let stack = launch(ForwardMode::Offload, PayloadMode::Native);
    let schema = paper_schema();
    let wire = encode_message(&gen_small(&schema));
    let mut ch = GrpcChannel::connect(&stack.tcp, "dpu:1").unwrap();
    for _ in 0..10 {
        ch.call_raw(1, &wire).unwrap();
    }
    let pcie = stack.rdma.link().stats();
    // Requests carry 40-byte objects + 8-byte headers (+preamble);
    // responses are header-only blocks.
    assert!(pcie.bytes_to_host >= 10 * 48, "{pcie:?}");
    assert!(pcie.bytes_to_device >= 10 * 8, "{pcie:?}");
    assert!(pcie.transfers_to_host >= 1);
    stack.finish();
}

#[test]
fn pipelined_xrpc_calls_complete_in_order() {
    let stack = launch(ForwardMode::Offload, PayloadMode::Native);
    let schema = paper_schema();
    let wire = encode_message(&gen_small(&schema));
    let reqs: Vec<&[u8]> = (0..100).map(|_| wire.as_slice()).collect();
    let mut ch = GrpcChannel::connect(&stack.tcp, "dpu:1").unwrap();
    let out = ch.call_pipelined(1, &reqs).unwrap();
    assert_eq!(out.len(), 100);
    assert!(out.iter().all(|(s, p)| *s == 0 && p.is_empty()));
    let snap = stack.finish();
    assert_eq!(snap.requests, 100);
}

#[test]
fn direct_load_batches_many_requests_per_block() {
    // The Nagle-style batching of §IV, observed through the measured
    // datapath runner (a closed loop keeps many requests outstanding, so
    // blocks fill up). The xRPC leg batches only across concurrent
    // connections, mirroring the paper's many-client deployment.
    use pbo_core::{run_scenario, ScenarioConfig, ScenarioKind};
    let mut cfg = ScenarioConfig::quick(
        pbo_protowire::workloads::WorkloadKind::Small,
        ScenarioKind::Offloaded,
    );
    cfg.requests = 5_000;
    cfg.concurrency = 128;
    let _ = cfg; // fabric stats come from inside the runner
    let stats = run_scenario(cfg).unwrap();
    assert_eq!(stats.requests, 5_000);
    // 40-byte objects, ~170 per block: transfers must be far fewer than
    // requests.
    assert!(
        stats.pcie.transfers_to_host < 2_000,
        "expected batching: {} transfers for 5000 requests",
        stats.pcie.transfers_to_host
    );
}
