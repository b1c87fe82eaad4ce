//! Per-layer microbenchmarks: each layer timed from outside, on one
//! thread, through its public functions.
//!
//! Every `*_ns` figure is the median over [`REPS`] timed repetitions (after
//! one untimed repetition) of a batch sized to run for about a millisecond,
//! divided down to one operation; the MAD of the repetitions is printed
//! beside it. These numbers say what a layer costs in isolation; which
//! end-to-end metric each is expected to move is written down in README.md.

use crate::stack::{bare_rpc_pair, mixed_sched_config, raw_pair};
use crate::stats::Summary;
use crate::workload::{generate, Kind, CHARS_LEN, INTS_LEN, PROC_INTS, TENANT_WEB, WORKLOADS};
use crossbeam::channel::bounded;
use pbo_adt::{Adt, NativeObject, NativeWriter, StdLib, WriterConfig};
use pbo_alloc::{IdPool, OffsetAllocator};
use pbo_cache::{CacheConfig, ResponseCache};
use pbo_core::{serialize_view, ForwardRequest};
use pbo_dpusim::{
    paper_shape, simulate, CostCoeffs, DatapathConfig, PaperWorkload, Platform, Scenario,
};
use pbo_grpc::{read_frame, write_frame, Metadata, TENANT_KEY};
use pbo_metrics::{Registry, DEFAULT_BUCKETS};
use pbo_policy::{PolicyConfig, PolicyEngine};
use pbo_protowire::workloads::{gen_char_array, gen_int_array, paper_schema, skewed_u32, Mt19937};
use pbo_protowire::{
    encode_message, utf8::validate_utf8, varint, DeserLimits, MessageDescriptor, NullSink, Schema,
    StackDeserializer,
};
use pbo_rpcrdma::{crc32c, Header, Preamble, HEADER_SIZE, PREAMBLE_SIZE};
use pbo_sched::TenantScheduler;
use pbo_simnet::WorkRequestId;
use pbo_trace::{stages, Span, TraceConfig, Tracer};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timed repetitions per figure.
pub const REPS: usize = 7;
/// Target wall time of one repetition.
const REP_TARGET: Duration = Duration::from_millis(1);

/// One reported figure: value, spread, how it was sampled.
#[derive(Clone, Copy, Debug)]
pub struct Figure {
    pub value: f64,
    pub mad: f64,
    pub n: usize,
}

impl Figure {
    /// An exact count or a derived value: no spread of its own.
    pub fn exact(value: f64) -> Self {
        Self {
            value,
            mad: 0.0,
            n: 1,
        }
    }

    fn scaled(self, k: f64) -> Self {
        Self {
            value: self.value * k,
            mad: self.mad * k,
            n: self.n,
        }
    }
}

impl From<Summary> for Figure {
    fn from(s: Summary) -> Self {
        Self {
            value: s.median,
            mad: s.mad,
            n: s.n,
        }
    }
}

pub type Figures = BTreeMap<&'static str, Figure>;

/// Nanoseconds per call of `f`: the batch doubles until one repetition
/// takes [`REP_TARGET`], then [`REPS`] repetitions are timed.
pub fn time_op(mut f: impl FnMut()) -> Figure {
    let mut batch: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        if t.elapsed() >= REP_TARGET || batch >= 1 << 24 {
            break;
        }
        batch *= 2;
    }
    let per_call: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    Summary::of(&per_call).into()
}

/// One message shape prepared for the deserialization benches. The
/// benches cycle through `wires` (the workload's pool of distinct seeded
/// messages): parsing one x512 IntArray over and over lets the branch
/// predictor learn its varint lengths and reads about half the true cost.
struct Shape<'a> {
    schema: &'a Schema,
    adt: &'a Adt,
    desc: Arc<MessageDescriptor>,
    wires: Vec<Vec<u8>>,
}

impl Shape<'_> {
    fn parse(&self) -> Figure {
        let deser = StackDeserializer::new(self.schema).with_limits(DeserLimits::hardened());
        let mut i = 0;
        time_op(|| {
            i += 1;
            let wire = &self.wires[i % self.wires.len()];
            black_box(
                deser
                    .deserialize(&self.desc, black_box(wire), &mut NullSink)
                    .expect("generated message parses"),
            );
        })
    }

    /// Parse + in-place native write, the work `call_offloaded` does
    /// inside the block.
    fn parse_and_write(&self) -> Figure {
        let deser = StackDeserializer::new(self.schema).with_limits(DeserLimits::hardened());
        let mut arena = Arena::new(self.wires[0].len() * 4 + 4096);
        let mut i = 0;
        time_op(|| {
            i += 1;
            black_box(build_native(self, i, &deser, &mut arena));
        })
    }
}

/// A byte arena whose window starts 8-aligned, as the native writer
/// requires (a `Vec<u8>` alone does not promise that).
pub struct Arena(Vec<u8>);

impl Arena {
    pub fn new(len: usize) -> Self {
        Self(vec![0u8; len + 8])
    }

    pub fn window(&mut self) -> &mut [u8] {
        let skew = (8 - self.0.as_ptr() as usize % 8) % 8;
        &mut self.0[skew..]
    }
}

/// Deserializes the `i`-th (cyclically) message of `shape` into `arena` and
/// returns the bytes used.
fn build_native(
    shape: &Shape<'_>,
    i: usize,
    deser: &StackDeserializer<'_>,
    arena: &mut Arena,
) -> usize {
    let window = arena.window();
    let host_base = window.as_ptr() as u64;
    let mut w = NativeWriter::new(shape.adt, &shape.desc, window, WriterConfig { host_base })
        .expect("arena holds the root object");
    deser
        .deserialize(&shape.desc, &shape.wires[i % shape.wires.len()], &mut w)
        .expect("generated message parses");
    w.finish().expect("arena holds the object").used
}

/// The wire bytes of the single-shape workload's message pool.
fn pool_of(kind: Kind, seed: u64) -> Vec<Vec<u8>> {
    let def = WORKLOADS
        .iter()
        .find(|w| w.kind == kind)
        .expect("a workload per shape");
    generate(def, seed)
        .items
        .into_iter()
        .map(|it| it.wire)
        .collect()
}

/// Runs every standalone layer bench; inputs are generated from `seed`.
pub fn run_all(seed: u64) -> Figures {
    let mut out = Figures::new();
    let schema = paper_schema();
    let adt = Adt::from_schema(&schema, StdLib::Libstdcxx);
    let shape = |kind: Kind, ty: &str| Shape {
        schema: &schema,
        adt: &adt,
        desc: schema.message(ty).expect("paper schema").clone(),
        wires: pool_of(kind, seed),
    };
    let small = shape(Kind::Small, "bench.Small");
    let ints = shape(Kind::Ints, "bench.IntArray");
    let chars = shape(Kind::Chars, "bench.CharArray");

    protowire_and_adt(&mut out, &small, &ints, &chars, seed);
    alloc(&mut out);
    rpcrdma_and_simnet(&mut out, &small.wires[0]);
    grpclike_and_core(&mut out, &small.wires[0], &ints);
    sched_policy_cache(&mut out, seed);
    trace_and_metrics(&mut out);
    dpusim(&mut out);
    out
}

fn protowire_and_adt(out: &mut Figures, small: &Shape, ints: &Shape, chars: &Shape, seed: u64) {
    let mut rng = Mt19937::new(crate::workload::fold_seed(seed));
    // Long enough that the branch predictor cannot learn the lengths.
    const VARINTS: usize = 65_536;
    let mut packed = Vec::new();
    for _ in 0..VARINTS {
        varint::encode_varint(skewed_u32(&mut rng) as u64, &mut packed);
    }
    out.insert(
        "protowire.varint_decode_ns",
        time_op(|| {
            let (mut pos, mut acc) = (0, 0u64);
            while pos < packed.len() {
                let (v, n) = varint::decode_varint(&packed[pos..]).expect("valid varint");
                acc = acc.wrapping_add(v);
                pos += n;
            }
            black_box(acc);
        })
        .scaled(1.0 / VARINTS as f64),
    );

    for (shape, parse_name, write_name) in [
        (
            small,
            "protowire.stack_parse_small_ns",
            "adt.native_write_small_ns",
        ),
        (
            ints,
            "protowire.stack_parse_ints_ns",
            "adt.native_write_ints_ns",
        ),
        (
            chars,
            "protowire.stack_parse_chars_ns",
            "adt.native_write_chars_ns",
        ),
    ] {
        let parse = shape.parse();
        let both = shape.parse_and_write();
        out.insert(parse_name, parse);
        // The writer only runs as the parser's sink, so its cost is what
        // it adds to a parse into the null sink.
        out.insert(
            write_name,
            Figure {
                value: (both.value - parse.value).max(0.0),
                mad: both.mad.max(parse.mad),
                n: both.n,
            },
        );
    }

    let text = vec![b'a'; CHARS_LEN];
    out.insert(
        "protowire.utf8_validate_ns_per_kib",
        time_op(|| {
            black_box(validate_utf8(black_box(&text)).expect("ASCII is UTF-8"));
        })
        .scaled(1024.0 / CHARS_LEN as f64),
    );

    let ints_msg = gen_int_array(ints.schema, &mut rng, INTS_LEN);
    out.insert(
        "protowire.encode_ints_ns",
        time_op(|| {
            black_box(encode_message(black_box(&ints_msg)));
        }),
    );

    // The paper's E3 asymptotes: 64 Ki elements, full deserialization
    // (parse + native write) per element / per KiB.
    const BIG: usize = 65_536;
    for (name, ty, msg, per) in [
        (
            "protowire.ns_per_int_elem",
            "bench.IntArray",
            gen_int_array(ints.schema, &mut rng, BIG),
            BIG as f64,
        ),
        (
            "protowire.ns_per_kib_chars",
            "bench.CharArray",
            gen_char_array(ints.schema, &mut rng, BIG),
            BIG as f64 / 1024.0,
        ),
    ] {
        let big = Shape {
            schema: ints.schema,
            adt: ints.adt,
            desc: ints.schema.message(ty).expect("paper schema").clone(),
            wires: vec![encode_message(&msg)],
        };
        let deser = StackDeserializer::new(big.schema);
        let mut arena = Arena::new(BIG * 8 + 4096);
        out.insert(
            name,
            time_op(|| {
                black_box(build_native(&big, 0, &deser, &mut arena));
            })
            .scaled(1.0 / per),
        );
    }

    // What a handler does with an IntArray: view it, borrow the elements.
    let deser = StackDeserializer::new(ints.schema);
    let mut arena = Arena::new(8192);
    build_native(ints, 0, &deser, &mut arena);
    let class = ints.adt.class_id("bench.IntArray").expect("paper schema");
    let bytes: &[u8] = arena.window();
    out.insert(
        "adt.view_read_ns",
        time_op(|| {
            let view = NativeObject::from_slice(ints.adt, class, black_box(bytes), 0)
                .expect("object just built");
            let v = view
                .get_repeated(1)
                .and_then(|r| r.as_u32_slice())
                .expect("u32 elements");
            black_box(v[0] ^ v[v.len() / 2] ^ v[v.len() - 1]);
        }),
    );
    let view = NativeObject::from_slice(ints.adt, class, bytes, 0).expect("object just built");
    out.insert(
        "core.serialize_view_ints_ns",
        time_op(|| {
            black_box(serialize_view(&view, &ints.desc, ints.schema).expect("serializes"));
        }),
    );

    out.insert(
        "adt.table_build_ns",
        time_op(|| {
            black_box(Adt::from_schema(black_box(ints.schema), StdLib::Libstdcxx));
        }),
    );
}

fn alloc(out: &mut Figures) {
    let mut a = OffsetAllocator::new(3 * 1024 * 1024);
    // Keep a few blocks live so alloc/free works on a fragmented map.
    let held: Vec<_> = (0..8)
        .map(|_| a.alloc(8192, 1024).expect("3 MiB holds 8 blocks"))
        .collect();
    out.insert(
        "alloc.offset_alloc_free_ns",
        time_op(|| {
            let x = a.alloc(black_box(8192), 1024).expect("space left");
            a.free(x);
        }),
    );
    for h in held {
        a.free(h);
    }
    let mut ids = IdPool::new(u16::MAX as u32);
    out.insert(
        "alloc.idpool_alloc_free_ns",
        time_op(|| {
            let id = ids.alloc().expect("pool not exhausted");
            ids.free(black_box(id));
        }),
    );
}

fn rpcrdma_and_simnet(out: &mut Figures, small_wire: &[u8]) {
    let block = vec![0x5au8; 8192];
    out.insert(
        "rpcrdma.crc32c_ns_per_kib",
        time_op(|| {
            black_box(crc32c(black_box(&block)));
        })
        .scaled(1.0 / 8.0),
    );

    let mut buf = [0u8; PREAMBLE_SIZE + HEADER_SIZE];
    out.insert(
        "rpcrdma.block_header_rw_ns",
        time_op(|| {
            Preamble {
                msg_count: 1,
                ack_blocks: 0,
                block_bytes: 64,
                crc32c: 0,
            }
            .write(&mut buf[..PREAMBLE_SIZE]);
            Header {
                payload_size: 40,
                selector: 1,
                status: 0,
                meta_len: 0,
            }
            .write(&mut buf[PREAMBLE_SIZE..]);
            black_box(Preamble::read(black_box(&buf[..PREAMBLE_SIZE])));
            black_box(Header::read(black_box(&buf[PREAMBLE_SIZE..])));
        }),
    );

    // Bare protocol round trip: 64 Small-sized payloads batched into one
    // block, echoed, completed. Reported per request.
    let (mut client, mut server) = bare_rpc_pair();
    out.insert(
        "rpcrdma.echo_roundtrip_ns",
        time_op(|| {
            for _ in 0..64 {
                client
                    .enqueue_bytes(1, black_box(small_wire), Box::new(|_p, _s| {}))
                    .expect("window holds 64 requests");
            }
            client.flush().expect("flush");
            server.event_loop(Duration::ZERO).expect("server");
            client.event_loop(Duration::ZERO).expect("client");
        })
        .scaled(1.0 / 64.0),
    );

    let pair = raw_pair(8192);
    let mut cqes = Vec::with_capacity(4);
    let mut write_imm = |len: usize| {
        time_op(|| {
            pair.host.post_recv(WorkRequestId(0), None);
            pair.dpu
                .post_write_imm(
                    WorkRequestId(1),
                    &pair.local,
                    0,
                    len,
                    &pair.remote,
                    0,
                    7,
                    false,
                )
                .expect("receive was posted");
            cqes.clear();
            black_box(pair.host.recv_cq().poll_into(4, &mut cqes));
        })
    };
    let (t_small, t_block) = (write_imm(64), write_imm(8192));
    out.insert("simnet.write_imm_ns", t_small);
    out.insert(
        "simnet.dma_ns_per_kib",
        Figure {
            value: (t_block.value - t_small.value).max(0.0) / ((8192.0 - 64.0) / 1024.0),
            mad: t_block.mad / 8.0,
            n: t_block.n,
        },
    );
}

fn grpclike_and_core(out: &mut Figures, small_wire: &[u8], ints: &Shape) {
    let mut framed = Vec::with_capacity(64);
    out.insert(
        "grpclike.frame_roundtrip_ns",
        time_op(|| {
            framed.clear();
            write_frame(&mut framed, 1, 7, black_box(small_wire)).expect("Vec write");
            black_box(read_frame(&mut framed.as_slice()).expect("frame just written"));
        }),
    );
    let mut md = Metadata::new();
    md.insert(TENANT_KEY, TENANT_WEB);
    md.insert("deadline-ms", "250");
    let encoded = md.encode();
    out.insert(
        "grpclike.metadata_decode_ns",
        time_op(|| {
            black_box(Metadata::decode(black_box(&encoded)).expect("just encoded"));
        }),
    );

    // The xRPC-thread -> poller hand-off and back, on one thread: build the
    // request, send it, receive it, answer its reply slot, read the reply.
    let (tx, rx) = bounded::<ForwardRequest>(4096);
    out.insert(
        "core.forward_handoff_ns",
        time_op(|| {
            let (resp_tx, resp_rx) = bounded(1);
            tx.send(ForwardRequest {
                proc_id: PROC_INTS,
                wire: ints.wires[0].to_vec(),
                metadata: Vec::new(),
                tenant: TENANT_WEB.to_string(),
                resp_tx,
                recv_ns: 0,
            })
            .expect("receiver alive");
            let req = rx.try_recv().expect("just sent");
            req.resp_tx
                .send((0, vec![0u8; 8]))
                .expect("reply slot alive");
            black_box(resp_rx.recv().expect("just answered"));
        }),
    );
}

fn sched_policy_cache(out: &mut Figures, seed: u64) {
    let mut sched: TenantScheduler<u32> = TenantScheduler::new(mixed_sched_config());
    let mut now = 0u64;
    out.insert(
        "sched.offer_next_complete_ns",
        time_op(|| {
            now += 1_000;
            sched
                .offer(TENANT_WEB, 7, 1024, now)
                .expect("inert admission never sheds");
            let granted = sched.next(now).expect("one request queued");
            sched.complete(black_box(granted.tenant));
        }),
    );

    let mut policy = PolicyEngine::new(PolicyConfig::default());
    policy.register_class(PROC_INTS, "ints", None, 0);
    out.insert(
        "policy.route_ns",
        time_op(|| {
            now += 1_000;
            black_box(policy.route(PROC_INTS, now));
        }),
    );

    // Distinct IntArray requests as cache keys: 256 resident (hits), 256
    // never stored (misses), and a stream of 4096 for stores under eviction.
    let schema = paper_schema();
    let mut rng = Mt19937::new(crate::workload::fold_seed(seed) ^ 0x5bd1_e995);
    let mut keys = |n: usize| -> Vec<Vec<u8>> {
        (0..n)
            .map(|_| encode_message(&gen_int_array(&schema, &mut rng, INTS_LEN)))
            .collect()
    };
    let (resident, absent, stream) = (keys(256), keys(256), keys(2048));
    let reply = [0u8; 8];
    let cache = ResponseCache::new(CacheConfig::default());
    cache.declare(PROC_INTS, u64::MAX / 2);
    for k in &resident {
        cache.store(TENANT_WEB, PROC_INTS, k, &reply, 0, cache.epoch());
    }
    let mut i = 0usize;
    out.insert(
        "cache.lookup_hit_ns",
        time_op(|| {
            i += 1;
            black_box(
                cache
                    .lookup(TENANT_WEB, PROC_INTS, &resident[i % resident.len()], 1)
                    .expect("resident key hits"),
            );
        }),
    );
    out.insert(
        "cache.lookup_miss_ns",
        time_op(|| {
            i += 1;
            black_box(cache.lookup(TENANT_WEB, PROC_INTS, &absent[i % absent.len()], 1));
        }),
    );
    let churn = ResponseCache::new(CacheConfig::default());
    churn.declare(PROC_INTS, u64::MAX / 2);
    out.insert(
        "cache.store_ns",
        time_op(|| {
            i += 1;
            black_box(churn.store(
                TENANT_WEB,
                PROC_INTS,
                &stream[i % stream.len()],
                &reply,
                1,
                churn.epoch(),
            ));
        }),
    );
}

fn trace_and_metrics(out: &mut Figures) {
    let registry = Arc::new(Registry::new());
    let tracer = Tracer::new(TraceConfig::sampled(1));
    tracer.bind_registry(&registry);
    let sink = tracer.sink("layer/client");
    let mut id = 0u64;
    out.insert(
        "trace.span_record_ns",
        time_op(|| {
            id += 1;
            sink.record(Span {
                trace_id: id,
                stage: stages::DESERIALIZE,
                start_ns: id,
                end_ns: id + 1_000,
                bytes: 1024,
            });
        }),
    );
    let sparse = Tracer::new(TraceConfig::sampled(1 << 20));
    out.insert(
        "trace.unsampled_check_ns",
        time_op(|| {
            id += 1;
            black_box(sparse.sampled(black_box(id)));
        }),
    );

    let hist = registry.histogram(
        "perf_layer_ns",
        "layer bench",
        &[("stage", "x")],
        DEFAULT_BUCKETS,
    );
    let mut v = 1.0f64;
    out.insert(
        "metrics.histogram_observe_ns",
        time_op(|| {
            v = (v * 1.37) % 1e7 + 1.0;
            hist.observe(black_box(v));
        }),
    );
    let counter = registry.counter("perf_layer_total", "layer bench", &[("conn", "x")]);
    out.insert("metrics.counter_inc_ns", time_op(|| counter.inc()));
}

fn dpusim(out: &mut Figures) {
    let cfg = DatapathConfig::default();
    for (kind, off_name, fwd_name) in [
        (
            PaperWorkload::Small,
            "dpusim.model_req_per_s.small_offload",
            "dpusim.model_req_per_s.small_forward",
        ),
        (
            PaperWorkload::Ints512,
            "dpusim.model_req_per_s.ints_offload",
            "dpusim.model_req_per_s.ints_forward",
        ),
        (
            PaperWorkload::Chars8000,
            "dpusim.model_req_per_s.chars_offload",
            "dpusim.model_req_per_s.chars_forward",
        ),
    ] {
        for (scenario, name) in [
            (Scenario::OffloadDpu, off_name),
            (Scenario::BaselineCpu, fwd_name),
        ] {
            let shape = paper_shape(kind, scenario, 8192);
            out.insert(name, Figure::exact(simulate(&shape, scenario, &cfg).rps));
        }
    }

    // E3: modelled DPU / CPU deserialization time at the asymptote.
    let schema = paper_schema();
    let mut rng = Mt19937::new(Mt19937::PAPER_SEED);
    let (cpu, dpu) = (
        CostCoeffs::for_platform(Platform::HostXeon),
        CostCoeffs::for_platform(Platform::DpuA78),
    );
    for (name, ty, msg) in [
        (
            "dpusim.deser_ratio_ints",
            "bench.IntArray",
            gen_int_array(&schema, &mut rng, 65_536),
        ),
        (
            "dpusim.deser_ratio_chars",
            "bench.CharArray",
            gen_char_array(&schema, &mut rng, 65_536),
        ),
    ] {
        let wire = encode_message(&msg);
        let stats = StackDeserializer::new(&schema)
            .deserialize(
                schema.message(ty).expect("paper schema"),
                &wire,
                &mut NullSink,
            )
            .expect("generated message parses");
        out.insert(
            name,
            Figure::exact(dpu.deser_time_ns(&stats) / cpu.deser_time_ns(&stats)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_op_reports_a_positive_median_over_reps() {
        let mut x = 0u64;
        let f = time_op(|| x = black_box(x.wrapping_mul(31).wrapping_add(7)));
        assert_eq!(f.n, REPS);
        assert!(f.value > 0.0 && f.value < 1e6, "{f:?}");
        assert!(f.mad >= 0.0);
    }
}
