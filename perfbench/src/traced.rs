//! The traced run (`--trace 1`): where a request's time goes.
//!
//! Two passes, both separate from the end-to-end numbers:
//!
//! * **Stepped pass** — benchmark-owned spans. On one thread, each request
//!   of the workload's schedule is walked through the layers in datapath
//!   order via their public functions, with a span `{name, start, end,
//!   request}` recorded in memory around each call. There are no waits and
//!   no other threads, so the sum of a request's spans is what the request
//!   *costs*; what the running system spends per request beyond that is
//!   `core.unattributed_ns_per_req`.
//! * **Stage pass** — the program's own tracer at 1-in-1 through its public
//!   API, over a `sat` phase of the real three-thread stack. Its spans see
//!   the waits the stepped pass cannot (poller wake-up, credit and
//!   scheduler queues); `pbo_trace::critical_path` turns each request's
//!   spans into per-stage self times. The same phase run untraced gives
//!   `trace.overhead_pct`.
//!
//! Spans stay in memory until both passes are over and are written once,
//! to `perf.trace.json` (Chrome trace-event format).

use crate::check::{encode_reply, Verifier};
use crate::e2e::{run_paced, run_sat, Generator, Plan, SatResult};
use crate::layers::{Arena, Figure, Figures};
use crate::names::{stage_metric, STAGES};
use crate::stack::{mixed_sched_config, raw_pair, RawPair, Stack, StackSpec};
use crate::stats::{median, Summary};
use crate::workload::{generate, Arm, Composition, Inputs, Item, WorkloadDef, PROC_INTS};
use crossbeam::channel::bounded;
use pbo_adt::{NativeObject, NativeWriter, WriterConfig};
use pbo_cache::{CacheConfig, ResponseCache};
use pbo_core::{ForwardRequest, ServiceSchema};
use pbo_grpc::{read_frame, write_frame};
use pbo_protowire::{DeserLimits, StackDeserializer};
use pbo_rpcrdma::integrity::{stamp_block, verify_block};
use pbo_rpcrdma::{Header, Preamble, HEADER_SIZE, PREAMBLE_SIZE};
use pbo_sched::TenantScheduler;
use pbo_simnet::WorkRequestId;
use pbo_telemetry::Telemetry;
use pbo_trace::{critical_path, Span};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Requests walked through the stepped pass.
const STEPPED_REQUESTS: usize = 2_000;
/// Ring capacity per span sink in the stage pass.
const STAGE_SINK_CAPACITY: usize = 1 << 18;
/// Most recent complete requests the stage pass analyses / exports.
const STAGE_ANALYSED: usize = 20_000;
const STAGE_EXPORTED: usize = 1_000;
/// Bytes in front of the first payload of a block.
const BLOCK_HEAD: usize = PREAMBLE_SIZE + HEADER_SIZE;

/// One benchmark-owned span. `request` ties the spans of one request
/// together; the span named `request` is the parent of the others.
#[derive(Clone, Copy, Debug)]
pub struct BenchSpan {
    pub name: &'static str,
    pub request: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub const REQUEST_SPAN: &str = "request";

/// Self time of the parent = its duration minus what its children cover
/// (children of one request never overlap: one thread, sequential calls).
pub fn parent_self_ns(parent: &BenchSpan, children: &[BenchSpan]) -> u64 {
    let covered: u64 = children.iter().map(|c| c.end_ns - c.start_ns).sum();
    (parent.end_ns - parent.start_ns).saturating_sub(covered)
}

struct Recorder {
    epoch: Instant,
    spans: Vec<BenchSpan>,
}

impl Recorder {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn span<T>(&mut self, name: &'static str, request: u32, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(BenchSpan {
            name,
            request,
            start_ns,
            end_ns,
        });
        out
    }
}

/// Walks [`STEPPED_REQUESTS`] requests of `inputs` through the layers.
pub fn stepped_pass(def: &WorkloadDef, inputs: &Inputs) -> Vec<BenchSpan> {
    let bundle = ServiceSchema::paper_bench();
    let (schema, adt) = (bundle.schema().clone(), bundle.adt().clone());
    let deser = StackDeserializer::new(&schema).with_limits(DeserLimits::hardened());
    let mixed = def.composition == Composition::Mixed;
    let cache = ResponseCache::new(CacheConfig::default());
    cache.declare(PROC_INTS, u64::MAX / 2);
    let mut sched: TenantScheduler<u32> = TenantScheduler::new(mixed_sched_config());
    let (tx, rx) = bounded::<ForwardRequest>(4096);
    let RawPair {
        dpu,
        host,
        local,
        remote,
    } = raw_pair(16 * 1024);
    // The outgoing block: preamble + one header + the payload arena, which
    // starts 8-aligned because the head is 24 bytes into an aligned buffer.
    let mut block_arena = Arena::new(32 * 1024);
    let mut scratch_arena = Arena::new(32 * 1024);
    let mut framed = Vec::new();
    let mut cqes = Vec::with_capacity(4);
    let mut rec = Recorder {
        epoch: Instant::now(),
        spans: Vec::with_capacity(STEPPED_REQUESTS * 12),
    };

    for i in 0..STEPPED_REQUESTS {
        let r = i as u32;
        let it: &Item = &inputs.items[inputs.schedule[i % inputs.schedule.len()] as usize];
        framed.clear();
        write_frame(&mut framed, it.proc_id, 1, &it.wire).expect("Vec write");
        let block = block_arena.window();
        let scratch = scratch_arena.window();
        let t_request = rec.now();

        let wire = rec.span("grpclike.frame_decode", r, || {
            read_frame(&mut framed.as_slice())
                .expect("frame just written")
                .expect("one frame")
                .1
        });
        rec.span("core.forward_handoff", r, || {
            let (resp_tx, resp_rx) = bounded(1);
            tx.send(ForwardRequest {
                proc_id: it.proc_id,
                wire: wire.to_vec(),
                metadata: Vec::new(),
                tenant: it.tenant.to_string(),
                resp_tx,
                recv_ns: 0,
            })
            .expect("receiver alive");
            let req = rx.try_recv().expect("just sent");
            req.resp_tx
                .send((0, encode_reply(&it.expect).to_vec()))
                .expect("reply slot alive");
            black_box(resp_rx.recv().expect("just answered"));
        });

        let mut hit = false;
        if mixed {
            let now = rec.now();
            hit = rec
                .span("cache.lookup", r, || {
                    cache.lookup(it.tenant, it.proc_id, &wire, now)
                })
                .is_some();
            if !hit {
                rec.span("sched.offer_next", r, || {
                    sched
                        .offer(it.tenant, r, wire.len() as u32, now)
                        .expect("inert admission never sheds");
                    let granted = sched.next(now).expect("one request queued");
                    sched.complete(granted.tenant);
                });
            }
        }
        if !hit {
            let desc = bundle
                .request_descriptor(it.proc_id)
                .expect("bench procedure");
            let class = adt.class_id(&desc.name).expect("bench class");
            let deserialize = |dst: &mut [u8]| {
                let host_base = dst.as_ptr() as u64;
                let mut w = NativeWriter::new(&adt, desc, dst, WriterConfig { host_base })
                    .expect("arena holds the root object");
                deser
                    .deserialize(desc, &wire, &mut w)
                    .expect("generated message parses");
                w.finish().expect("arena holds the object").used
            };
            // Offload: the DPU deserializes into the block. Forward: the
            // wire bytes ride the block and the host deserializes after.
            let payload_len = match def.arm {
                Arm::Offload => {
                    rec.span("deserialize", r, || deserialize(&mut block[BLOCK_HEAD..]))
                }
                Arm::Forward => rec.span("core.forward_copy", r, || {
                    block[BLOCK_HEAD..BLOCK_HEAD + wire.len()].copy_from_slice(&wire);
                    wire.len()
                }),
            };
            let len = BLOCK_HEAD + payload_len.next_multiple_of(8);
            rec.span("rpcrdma.block_build", r, || {
                Preamble {
                    msg_count: 1,
                    ack_blocks: 0,
                    block_bytes: len as u32,
                    crc32c: 0,
                }
                .write(&mut block[..PREAMBLE_SIZE]);
                Header {
                    payload_size: payload_len.min(u16::MAX as usize) as u16,
                    selector: it.proc_id,
                    status: 0,
                    meta_len: 0,
                }
                .write(&mut block[PREAMBLE_SIZE..BLOCK_HEAD]);
            });
            rec.span("rpcrdma.crc_stamp", r, || stamp_block(&mut block[..len]));
            rec.span("simnet.write_imm", r, || {
                host.post_recv(WorkRequestId(0), None);
                dpu.post_write_imm(WorkRequestId(1), &local, 0, len, &remote, 0, 1, false)
                    .expect("receive was posted");
                cqes.clear();
                host.recv_cq().poll_into(4, &mut cqes);
            });
            let intact = rec.span("rpcrdma.crc_verify", r, || verify_block(&block[..len]));
            assert!(intact, "block stamped a moment ago verifies");
            let object: &[u8] = match def.arm {
                Arm::Offload => &block[BLOCK_HEAD..],
                Arm::Forward => {
                    rec.span("deserialize", r, || deserialize(scratch));
                    scratch
                }
            };
            rec.span("adt.view_read", r, || {
                let view =
                    NativeObject::from_slice(&adt, class, object, 0).expect("object just built");
                black_box(view.meta().size);
            });
            // The 8-byte reply rides a block of its own back to the DPU.
            rec.span("rpcrdma.response", r, || {
                let reply_len = BLOCK_HEAD + 8;
                stamp_block(&mut scratch[..reply_len]);
                dpu.post_recv(WorkRequestId(0), None);
                host.post_write_imm(WorkRequestId(1), &remote, 0, reply_len, &local, 0, 1, false)
                    .expect("receive was posted");
                cqes.clear();
                dpu.recv_cq().poll_into(4, &mut cqes);
                black_box(verify_block(&scratch[..reply_len]));
            });
            if mixed && it.proc_id == PROC_INTS {
                let now = rec.now();
                rec.span("cache.store", r, || {
                    cache.store(
                        it.tenant,
                        it.proc_id,
                        &wire,
                        &encode_reply(&it.expect),
                        now,
                        cache.epoch(),
                    )
                });
            }
        }
        let end_ns = rec.now();
        rec.spans.push(BenchSpan {
            name: REQUEST_SPAN,
            request: r,
            start_ns: t_request,
            end_ns,
        });
    }
    rec.spans
}

/// Median request span (what one request costs with no waits) and the
/// per-layer medians; the row named `request` is the request span's self
/// time, i.e. the glue between the layer calls.
pub fn stepped_summary(spans: &[BenchSpan]) -> (f64, Vec<(&'static str, Summary)>) {
    let mut children: HashMap<u32, Vec<BenchSpan>> = HashMap::new();
    let mut per_layer: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let mut push = |name: &'static str, d: f64| match per_layer.iter_mut().find(|(n, _)| *n == name)
    {
        Some((_, v)) => v.push(d),
        None => per_layer.push((name, vec![d])),
    };
    for s in spans.iter().filter(|s| s.name != REQUEST_SPAN) {
        push(s.name, (s.end_ns - s.start_ns) as f64);
        children.entry(s.request).or_default().push(*s);
    }
    let mut requests = Vec::new();
    for parent in spans.iter().filter(|s| s.name == REQUEST_SPAN) {
        let kids = children.get(&parent.request).map_or(&[][..], Vec::as_slice);
        push(REQUEST_SPAN, parent_self_ns(parent, kids) as f64);
        requests.push((parent.end_ns - parent.start_ns) as f64);
    }
    (
        median(&requests),
        per_layer
            .into_iter()
            .map(|(n, v)| (n, Summary::of(&v)))
            .collect(),
    )
}

/// Per-stage median self time over the most recent complete requests of a
/// drained span set (a request is complete once its `response` or
/// `cache_hit` span exists), plus the spans of the last few for export.
pub fn stage_self_times(
    tracks: Vec<(String, Vec<Span>)>,
) -> (Vec<(&'static str, Summary)>, Vec<Span>) {
    let mut by_id: HashMap<u64, Vec<Span>> = HashMap::new();
    let mut finished: Vec<(u64, u64)> = Vec::new(); // (end_ns, trace id)
    for (_, spans) in tracks {
        for s in spans {
            if s.stage == "response" || s.stage == "cache_hit" {
                finished.push((s.end_ns, s.trace_id));
            }
            by_id.entry(s.trace_id).or_default().push(s);
        }
    }
    finished.sort_unstable();
    let recent = &finished[finished.len().saturating_sub(STAGE_ANALYSED)..];
    let mut per_stage: Vec<(&'static str, Vec<f64>)> =
        STAGES.iter().map(|s| (*s, Vec::new())).collect();
    let mut exported = Vec::new();
    for (i, (_, id)) in recent.iter().enumerate() {
        let spans = &by_id[id];
        if let Some(cp) = critical_path(*id, spans) {
            for (stage, ns) in &cp.self_ns {
                if let Some((_, v)) = per_stage.iter_mut().find(|(s, _)| s == stage) {
                    v.push(*ns as f64);
                }
            }
        }
        if i + STAGE_EXPORTED >= recent.len() {
            exported.extend_from_slice(spans);
        }
    }
    let summaries = per_stage
        .into_iter()
        .map(|(s, v)| (s, Summary::of(&v)))
        .collect();
    (summaries, exported)
}

pub struct TracedRun {
    /// Everything this run measured itself (the standalone layer figures
    /// come from `layers::run_all`).
    pub figures: Figures,
    pub stepped: Vec<(&'static str, Summary)>,
    pub stepped_request_ns: f64,
    pub untraced_req_per_s: f64,
    pub traced_req_per_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    bench_spans: Vec<BenchSpan>,
    stage_spans: Vec<Span>,
}

fn sat_on(
    spec: StackSpec,
    inputs: &Inputs,
    plan: &Plan,
    paced_per_s: Option<f64>,
    run: &mut TracedRun,
) -> (SatResult, Stack) {
    let verifier = Verifier::new(&inputs.items);
    let stack = Stack::build(spec, &verifier);
    let sat = {
        let mut gen = Generator::new(&stack, inputs);
        let warm = gen.warm_up(plan.warm);
        let sat = run_sat(&mut gen, &verifier, plan);
        run.attempted += warm.sent + sat.tally.sent;
        run.failed += warm.failures.total() + sat.tally.failures.total();
        if let Some(rate) = paced_per_s {
            std::thread::sleep(plan.settle);
            let paced = run_paced(&mut gen, &verifier, plan, rate);
            run.attempted += paced.tally.sent;
            run.failed += paced.tally.failures.total();
            run.figures
                .insert("gen.late_p99_us", Figure::exact(paced.late_p99_us));
            run.figures
                .insert("gen.late_max_us", Figure::exact(paced.late_max_us));
            if !paced.valid() {
                eprintln!(
                    "warning: paced phase invalid, {:.2} % of sends more than one period late",
                    paced.late_share * 100.0
                );
            }
        }
        sat
    };
    if verifier.bad_objects() > 0 {
        run.violations.push(format!(
            "host handlers rejected {} objects",
            verifier.bad_objects()
        ));
    }
    (sat, stack)
}

/// The whole traced run of one workload, sized to about `seconds`.
pub fn run_traced(def: &WorkloadDef, seed: u64, seconds: f64) -> TracedRun {
    let inputs = generate(def, seed);
    let mut run = TracedRun {
        figures: Figures::new(),
        stepped: Vec::new(),
        stepped_request_ns: 0.0,
        untraced_req_per_s: 0.0,
        traced_req_per_s: 0.0,
        attempted: 0,
        failed: 0,
        violations: Vec::new(),
        bench_spans: Vec::new(),
        stage_spans: Vec::new(),
    };

    run.bench_spans = stepped_pass(def, &inputs);
    let (request_ns, stepped) = stepped_summary(&run.bench_spans);
    run.stepped_request_ns = request_ns;
    run.stepped = stepped;

    // Untraced: counts, bytes, generator health, the scrape, and the
    // baseline for the tracing overhead, on half a normal run's phases.
    let plan = Plan::for_seconds(seconds * 0.5);
    let measured = StackSpec::measured(def.arm, def.composition);
    let (sat, stack) = sat_on(measured, &inputs, &plan, Some(def.paced_per_s), &mut run);
    run.untraced_req_per_s = sat.req_per_s.median;
    let c = sat.counters;
    let per = |n: u64, d: u64| n as f64 / d.max(1) as f64;
    let mut count = |name, v: f64| {
        run.figures.insert(name, Figure::exact(v));
    };
    count(
        "rpcrdma.msgs_per_block",
        per(c.requests_enqueued, c.blocks_sent),
    );
    count("rpcrdma.blocks_sent", c.blocks_sent as f64);
    count("rpcrdma.credit_stalls", c.credit_stalls as f64);
    count("rpcrdma.retransmits", c.retransmits as f64);
    count(
        "simnet.pcie_to_host_bytes_per_req",
        sat.pcie_to_host_per_req,
    );
    count(
        "simnet.pcie_to_device_bytes_per_req",
        sat.pcie_to_device_per_req,
    );
    count("sched.shed", c.sched_shed as f64);
    count("sched.queued_peak", c.sched_queued_peak as f64);
    count(
        "cache.hit_ratio",
        per(c.cache_hits, c.cache_hits + c.cache_misses),
    );
    count("cache.evictions", c.cache_evictions as f64);
    count(
        "core.unattributed_ns_per_req",
        1e9 / sat.req_per_s.median.max(1.0) - request_ns,
    );
    let telemetry = Telemetry::new(stack.registry().clone());
    let t = Instant::now();
    let scrape = telemetry.handle("/metrics");
    count(
        "telemetry.scrape_metrics_us",
        t.elapsed().as_nanos() as f64 / 1e3,
    );
    count("telemetry.scrape_bytes", scrape.body.len() as f64);
    if let Err(e) = stack.shutdown() {
        run.violations.push(format!("untraced shutdown: {e}"));
    }

    // Stage pass: the same phase with the program's tracer at 1-in-1.
    let plan = Plan::for_seconds(seconds * 0.4);
    let traced_spec = StackSpec {
        trace_every: 1,
        sink_capacity: STAGE_SINK_CAPACITY,
        ..measured
    };
    let (sat, stack) = sat_on(traced_spec, &inputs, &plan, None, &mut run);
    run.traced_req_per_s = sat.req_per_s.median;
    let dropped = stack.counters().spans_dropped;
    let (stage_summaries, exported) = stage_self_times(stack.drain_spans());
    run.stage_spans = exported;
    if let Err(e) = stack.shutdown() {
        run.violations.push(format!("traced shutdown: {e}"));
    }
    for (stage, s) in stage_summaries {
        run.figures.insert(stage_metric(stage), s.into());
    }
    run.figures.insert(
        "trace.overhead_pct",
        Figure::exact(100.0 * (1.0 - run.traced_req_per_s / run.untraced_req_per_s.max(1.0))),
    );
    run.figures
        .insert("trace.spans_dropped", Figure::exact(dropped as f64));
    if run.failed > 0 {
        run.violations
            .push(format!("{} requests failed in the traced run", run.failed));
    }
    run
}

impl TracedRun {
    /// Writes every span kept in memory as Chrome trace-event JSON:
    /// pid 0 = stepped pass (benchmark-owned spans, `args.parent` names
    /// the request span), pid 1 = the program's spans from the stage pass.
    pub fn write_trace(&self, path: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.bench_spans.len() * 128);
        out.push_str("{\"traceEvents\":[\n");
        let mut first = true;
        let mut event = |out: &mut String, pid: u32, name: &str, start: u64, end: u64, id: u64| {
            if !std::mem::take(&mut first) {
                out.push_str(",\n");
            }
            let parent = if pid == 0 && name != REQUEST_SPAN {
                REQUEST_SPAN
            } else {
                ""
            };
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"request\":{id},\"parent\":\"{parent}\"}}}}",
                start as f64 / 1e3,
                end.saturating_sub(start) as f64 / 1e3,
            );
        };
        for s in &self.bench_spans {
            event(&mut out, 0, s.name, s.start_ns, s.end_ns, s.request as u64);
        }
        for s in &self.stage_spans {
            event(&mut out, 1, s.stage, s.start_ns, s.end_ns, s.trace_id);
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let span = |name, start_ns, end_ns| BenchSpan {
            name,
            request: 0,
            start_ns,
            end_ns,
        };
        let parent = span(REQUEST_SPAN, 100, 1_000);
        let kids = [span("a", 100, 300), span("b", 350, 700)];
        assert_eq!(parent_self_ns(&parent, &kids), 900 - 200 - 350);
        assert_eq!(parent_self_ns(&parent, &[]), 900);
    }

    #[test]
    fn stepped_summary_sums_per_request() {
        let span = |name, request, start_ns, end_ns| BenchSpan {
            name,
            request,
            start_ns,
            end_ns,
        };
        let spans = [
            span("x", 0, 0, 10),
            span("y", 0, 10, 40),
            span(REQUEST_SPAN, 0, 0, 50),
            span("x", 1, 50, 70),
            span("y", 1, 70, 120),
            span(REQUEST_SPAN, 1, 50, 130),
        ];
        let (per_request, layers) = stepped_summary(&spans);
        assert_eq!(per_request, (50.0 + 80.0) / 2.0);
        assert_eq!(layers[0].0, "x");
        assert_eq!(layers[0].1.median, 15.0);
        assert_eq!(layers[1].1.median, 40.0);
        // Glue: request span minus its children.
        assert_eq!(layers[2].0, REQUEST_SPAN);
        assert_eq!(layers[2].1.median, 10.0);
    }

    #[test]
    fn stage_self_times_use_the_programs_critical_path() {
        let s = |stage: &'static str, start_ns, end_ns| Span {
            trace_id: 9,
            stage,
            start_ns,
            end_ns,
            bytes: 0,
        };
        // response encloses everything; deserialize and host_dispatch are
        // the specific work inside it.
        let tracks = vec![
            (
                "c/client".to_string(),
                vec![s("deserialize", 0, 300), s("response", 0, 1_000)],
            ),
            ("c/server".to_string(), vec![s("host_dispatch", 400, 600)]),
        ];
        let (stages, exported) = stage_self_times(tracks);
        let get = |name: &str| stages.iter().find(|(s, _)| *s == name).unwrap().1.median;
        assert_eq!(get("deserialize"), 300.0);
        assert_eq!(get("host_dispatch"), 200.0);
        assert_eq!(get("response"), 500.0);
        assert_eq!(get("credit_wait"), 0.0);
        assert_eq!(exported.len(), 3);
    }
}
