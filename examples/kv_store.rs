//! A key-value store microservice with its RPC server offloaded to the
//! DPU — the microservice scenario the paper's introduction motivates.
//!
//! Topology (Figure 1, complete):
//!
//! ```text
//! 4 xRPC client threads ──TCP──▶ DPU terminator ──RDMA──▶ host KV logic
//! ```
//!
//! The xRPC clients are ordinary gRPC-style clients: they serialize
//! protobuf `PutRequest`/`GetRequest` messages and point at the DPU's
//! address ("the only configuration change is to modify the xRPC server
//! address", §III.A). The host's business logic receives *native objects*
//! — it reads keys and values in place from the receive buffer, never
//! touching the wire format.
//!
//! Run with: `cargo run --example kv_store`

use parking_lot::Mutex;
use pbo_core::compat::PayloadMode;
use pbo_core::terminator::{ForwardMode, Layers, XrpcTerminator};
use pbo_core::{CompatServer, OffloadClient, ServiceSchema};
use pbo_grpc::{GrpcChannel, ServiceDescriptor};
use pbo_metrics::Registry;
use pbo_protowire::{encode_message, parse_proto, DynamicMessage, Value};
use pbo_rpcrdma::{establish, Config};
use pbo_simnet::{Fabric, TcpFabric};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const PROTO: &str = r#"
    syntax = "proto3";
    package kv;

    message PutRequest {
        string key = 1;
        bytes value = 2;
        uint64 ttl_ms = 3;
    }

    message GetRequest {
        string key = 1;
    }

    message KvResponse {
        bool found = 1;
        bytes value = 2;
    }
"#;

fn main() {
    let schema = parse_proto(PROTO).expect("valid proto");
    let service = ServiceDescriptor::new("kv.KvStore")
        .method("Put", 1, "kv.PutRequest", "kv.KvResponse")
        .method("Get", 2, "kv.GetRequest", "kv.KvResponse");
    let bundle = ServiceSchema::new(schema, service, pbo_adt::StdLib::Libstdcxx);

    // Fabrics: RDMA between DPU and host; TCP between clients and DPU.
    let rdma = Fabric::new();
    let tcp = TcpFabric::new();
    let registry = Registry::new();
    let adt = bundle.adt_bytes();
    let ep = establish(
        &rdma,
        Config::paper_client(),
        Config::paper_server(),
        &registry,
        "kv",
        Some(&adt),
    );
    let dpu = OffloadClient::new(ep.client, bundle.clone(), ep.control_blob.as_deref())
        .expect("ABI-compatible");
    let mut host = CompatServer::new(ep.server, PayloadMode::Native);

    // The store. Handlers read the request *in place*; only the inserted
    // value is copied (it must outlive the receive block).
    let store: Arc<Mutex<HashMap<String, Vec<u8>>>> = Arc::new(Mutex::new(HashMap::new()));
    {
        let store = store.clone();
        host.register_native(
            &bundle,
            1, // Put
            Arc::new(move |req, out| {
                let key = req.get_str(1).expect("key");
                let value = req.get_bytes(2).expect("value");
                store.lock().insert(key.to_string(), value.to_vec());
                // KvResponse { found: true } — serialized by hand-rolled
                // canonical encoding: field 1 (bool) = 1.
                out.extend_from_slice(&[0x08, 0x01]);
                0
            }),
        );
    }
    {
        let store = store.clone();
        host.register_native(
            &bundle,
            2, // Get
            Arc::new(move |req, out| {
                let key = req.get_str(1).expect("key");
                match store.lock().get(key) {
                    Some(v) => {
                        out.extend_from_slice(&[0x08, 0x01]); // found = true
                        out.push(0x12); // field 2, length-delimited
                        assert!(v.len() < 128, "demo values are short");
                        out.push(v.len() as u8);
                        out.extend_from_slice(v);
                    }
                    None => { /* found defaults to false; empty message */ }
                }
                0
            }),
        );
    }

    // Host poller thread.
    let stop = Arc::new(AtomicBool::new(false));
    let host_stop = stop.clone();
    let host_thread = std::thread::spawn(move || {
        while !host_stop.load(Ordering::Acquire) {
            host.event_loop(Duration::from_millis(1)).expect("host");
        }
        host.snapshot()
    });

    // DPU terminator: binds the xRPC address and owns the RDMA poller.
    let terminator =
        XrpcTerminator::spawn(&tcp, "dpu:50051", dpu, Layers::new(ForwardMode::Offload));

    // 4 ordinary xRPC clients hammer the store.
    let kv_schema = bundle.schema().clone();
    let mut clients = Vec::new();
    for c in 0..4 {
        let tcp = tcp.clone();
        let kv_schema = kv_schema.clone();
        clients.push(std::thread::spawn(move || {
            let mut ch = GrpcChannel::connect(&tcp, "dpu:50051").expect("connect");
            for i in 0..250 {
                let key = format!("user:{c}:{i}");
                let mut put = DynamicMessage::of(&kv_schema, "kv.PutRequest");
                put.set(1, Value::Str(key.clone()));
                put.set(2, Value::Bytes(format!("v{i}").into_bytes()));
                put.set(3, Value::U64(60_000));
                let (status, _) = ch.call_raw(1, &encode_message(&put)).expect("put");
                assert_eq!(status, 0);

                let mut get = DynamicMessage::of(&kv_schema, "kv.GetRequest");
                get.set(1, Value::Str(key));
                let (status, resp) = ch.call_raw(2, &encode_message(&get)).expect("get");
                assert_eq!(status, 0);
                // found == true, value == v{i}
                assert_eq!(resp[0..2], [0x08, 0x01]);
            }
        }));
    }
    for c in clients {
        c.join().expect("client");
    }

    let served = terminator.calls_served();
    terminator.shutdown().expect("terminator");
    stop.store(true, Ordering::Release);
    let snapshot = host_thread.join().expect("host thread");
    let pcie = rdma.link().stats();

    println!("kv_store: {} xRPC calls served through the DPU", served);
    println!(
        "host processed {} requests in {} blocks without deserializing a single byte",
        snapshot.requests, snapshot.blocks_received
    );
    println!(
        "store holds {} keys; PCIe carried {:.1} KiB of ready-built objects",
        store.lock().len(),
        pcie.bytes_to_host as f64 / 1024.0
    );
    assert_eq!(served, 2000);
    assert_eq!(store.lock().len(), 1000);
}
