//! End-to-end datapath tracing: a traced request through the full
//! Figure 1 topology (xRPC client → DPU terminator → RDMA → host) leaves
//! a complete span chain — terminate → deserialize/block_build →
//! rdma_write/dma → host_dispatch → response_build → response — with
//! identical trace ids on both ends (no id bytes on the wire; §IV.D
//! determinism) and per-stage histograms in a bound metrics registry.

use pbo_core::compat::PayloadMode;
use pbo_core::terminator::{ForwardMode, Layers};
use pbo_core::{
    run_scenario_traced, CompatServer, OffloadClient, ScenarioConfig, ScenarioKind, ServiceSchema,
    XrpcTerminator,
};
use pbo_grpc::GrpcChannel;
use pbo_metrics::Registry;
use pbo_protowire::encode_message;
use pbo_protowire::workloads::{gen_small, paper_schema, WorkloadKind};
use pbo_rpcrdma::{establish, Config};
use pbo_simnet::{Fabric, TcpFabric};
use pbo_trace::{
    chrome_trace_json, stages, Span, TraceConfig, TraceProcess, Tracer, STAGE_HISTOGRAM_METRIC,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Spans of one track, keyed by stage, for one trace id.
fn by_stage(spans: &[Span], trace_id: u64) -> BTreeMap<&'static str, Span> {
    spans
        .iter()
        .filter(|s| s.trace_id == trace_id)
        .map(|s| (s.stage, *s))
        .collect()
}

#[test]
fn traced_request_produces_full_span_chain() {
    let bundle = ServiceSchema::paper_bench();
    let rdma = Fabric::new();
    let tcp = TcpFabric::new();
    let registry = Registry::new();
    let metrics = Arc::new(Registry::new());
    let tracer = Tracer::new(TraceConfig::sampled(1));
    tracer.bind_registry(&metrics);

    let adt_bytes = bundle.adt_bytes();
    let ep = establish(
        &rdma,
        Config::test_small(),
        Config::test_small(),
        &registry,
        "tr",
        Some(&adt_bytes),
    );
    let client = OffloadClient::new(ep.client, bundle.clone(), ep.control_blob.as_deref()).unwrap();
    let mut server = CompatServer::new(ep.server, PayloadMode::Native);
    server.set_tracer(&tracer, "c0");
    server.register_empty_logic(&bundle, 1);

    let host_stop = Arc::new(AtomicBool::new(false));
    let hs = host_stop.clone();
    let host = std::thread::spawn(move || {
        while !hs.load(Ordering::Acquire) {
            server.event_loop(Duration::from_millis(1)).unwrap();
        }
    });

    // spawn attaches the tracer to the client under the same connection
    // label the server used, then serves xRPC as usual.
    let layers = Layers {
        tracer: tracer.clone(),
        conn_label: "c0".to_string(),
        ..Layers::new(ForwardMode::Offload)
    };
    let terminator = XrpcTerminator::spawn(&tcp, "dpu:tr", client, layers);
    let wire = encode_message(&gen_small(&paper_schema()));
    let mut ch = GrpcChannel::connect(&tcp, "dpu:tr").unwrap();
    for _ in 0..8 {
        let (status, _) = ch.call_raw(1, &wire).unwrap();
        assert_eq!(status, 0);
    }
    terminator.shutdown().unwrap();
    host_stop.store(true, Ordering::Release);
    host.join().unwrap();

    let tracks = tracer.drain();
    let client_spans: Vec<Span> = tracks
        .iter()
        .filter(|(n, _)| n == "c0/client")
        .flat_map(|(_, s)| s.iter().copied())
        .collect();
    let server_spans: Vec<Span> = tracks
        .iter()
        .filter(|(n, _)| n == "c0/server")
        .flat_map(|(_, s)| s.iter().copied())
        .collect();
    assert!(!client_spans.is_empty(), "tracks: {tracks:?}");
    assert!(!server_spans.is_empty());

    // Both ends derived the same identities without exchanging ids.
    let client_ids: BTreeSet<u64> = client_spans.iter().map(|s| s.trace_id).collect();
    let server_ids: BTreeSet<u64> = server_spans.iter().map(|s| s.trace_id).collect();
    assert_eq!(client_ids, server_ids);
    assert_eq!(client_ids.len(), 8);

    // Every request carries the full chain, in causal order.
    for &id in &client_ids {
        let c = by_stage(&client_spans, id);
        let s = by_stage(&server_spans, id);
        for stage in [
            stages::TERMINATE,
            stages::DESERIALIZE,
            stages::BLOCK_BUILD,
            stages::RDMA_WRITE,
            stages::DMA,
            stages::RESPONSE,
        ] {
            assert!(c.contains_key(stage), "id {id:#x}: client missing {stage}");
        }
        for stage in [stages::HOST_DISPATCH, stages::RESPONSE_BUILD] {
            assert!(s.contains_key(stage), "id {id:#x}: server missing {stage}");
        }
        let term = &c[stages::TERMINATE];
        let bb = &c[stages::BLOCK_BUILD];
        let rw = &c[stages::RDMA_WRITE];
        let dma = &c[stages::DMA];
        let hd = &s[stages::HOST_DISPATCH];
        let resp = &c[stages::RESPONSE];
        assert!(term.start_ns <= bb.start_ns, "terminate precedes build");
        assert_eq!(term.end_ns, bb.start_ns, "terminate hands off to build");
        assert!(bb.end_ns <= rw.end_ns, "build precedes write completion");
        assert!(dma.start_ns >= rw.start_ns && dma.end_ns <= rw.end_ns);
        assert!(hd.start_ns >= bb.end_ns, "dispatch follows build");
        assert!(resp.end_ns >= hd.start_ns, "response completes last");
        assert!(term.bytes > 0 && bb.bytes > 0 && rw.bytes > 0);
    }

    // The bound registry aggregated every stage into histograms.
    let text = metrics.expose();
    assert!(text.contains(STAGE_HISTOGRAM_METRIC));
    for stage in [
        stages::TERMINATE,
        stages::DESERIALIZE,
        stages::BLOCK_BUILD,
        stages::RDMA_WRITE,
        stages::DMA,
        stages::HOST_DISPATCH,
        stages::RESPONSE_BUILD,
        stages::RESPONSE,
    ] {
        assert!(
            text.contains(&format!("stage=\"{stage}\"")),
            "registry missing histogram for {stage}"
        );
    }

    // The whole stream renders as loadable Chrome trace JSON.
    let json = chrome_trace_json(&[TraceProcess {
        pid: 0,
        name: "xrpc-offload".to_string(),
        tracks,
    }]);
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains("terminate"));
}

#[test]
fn scenario_runner_traces_both_arms_without_perturbing_results() {
    for kind in [ScenarioKind::Offloaded, ScenarioKind::Baseline] {
        let tracer = Tracer::new(TraceConfig::sampled(32));
        let mut cfg = ScenarioConfig::quick(WorkloadKind::Small, kind);
        cfg.requests = 2_000;
        cfg.concurrency = 32;
        let stats = run_scenario_traced(cfg, &tracer).unwrap();
        assert_eq!(stats.requests, 2_000);
        let spans: Vec<Span> = tracer.drain().into_iter().flat_map(|(_, s)| s).collect();
        // Every emitted stage is a documented one, and every span is
        // well-formed.
        for s in &spans {
            assert!(
                stages::ALL.contains(&s.stage),
                "undocumented stage {:?}",
                s.stage
            );
            assert!(s.end_ns >= s.start_ns, "negative span {s:?}");
        }
        // 1-in-32 over 2000 requests: 62-63 sampled ids, several spans each.
        let ids: BTreeSet<u64> = spans.iter().map(|s| s.trace_id).collect();
        assert!((60..=64).contains(&ids.len()), "{} ids", ids.len());
        let has_deser = spans.iter().any(|s| s.stage == stages::DESERIALIZE);
        match kind {
            ScenarioKind::Offloaded => assert!(has_deser, "offload arm deserializes on the DPU"),
            ScenarioKind::Baseline => assert!(!has_deser, "baseline defers to the host"),
        }
        assert!(spans.iter().any(|s| s.stage == stages::HOST_DISPATCH));
        assert!(spans.iter().any(|s| s.stage == stages::RESPONSE));
    }
}

#[test]
fn disabled_tracer_emits_nothing() {
    let tracer = Tracer::disabled();
    let mut cfg = ScenarioConfig::quick(WorkloadKind::Small, ScenarioKind::Offloaded);
    cfg.requests = 500;
    cfg.concurrency = 16;
    let stats = run_scenario_traced(cfg, &tracer).unwrap();
    assert_eq!(stats.requests, 500);
    assert!(tracer.drain().iter().all(|(_, s)| s.is_empty()));
    assert_eq!(tracer.dropped(), 0);
}
