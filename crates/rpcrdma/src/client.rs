//! The RPC-over-RDMA client (the DPU side).
//!
//! The client terminates the external xRPC protocol elsewhere; here it
//! enqueues fully materialized payloads into blocks, ships blocks with
//! write-with-immediate, and drives *continuations* when responses arrive
//! — the callback/continuation API of §III.D ("On the RPC over RDMA client
//! side, the user enqueues requests that trigger a continuation function
//! when the response is received"). The threading model is the user's: one
//! poller thread owns one client ("a poller is dedicated to a single
//! connection on the client side", §III.C) and calls
//! [`RpcClient::event_loop`] continuously.

use crate::config::Config;
use crate::error::{RetryClass, RpcError};
use crate::integrity::{self, INTEGRITY_NACK};
use crate::retry::RetryPolicy;
use crate::wire::{
    bucket_to_offset, offset_to_bucket, BlockHeaderIter, Header, Preamble, BLOCK_ALIGN,
    HEADER_SIZE, MAX_PAYLOAD, PREAMBLE_SIZE,
};
use pbo_alloc::{align_up, Allocation, IdPool, OffsetAllocator};
use pbo_metrics::{Counter, Gauge, Registry};
use pbo_simnet::{CqeKind, MemoryRegion, QueuePair, WorkRequestId};
use pbo_trace::{stages, ConnTracer, MsgCtx, Span, SpanSink, Tracer};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Outcome of a payload-writer closure.
pub type PayloadResult = Result<usize, PayloadError>;

/// Failure modes of a payload writer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PayloadError {
    /// The destination slice is too small; the protocol retries the writer
    /// in a fresh (possibly grown) block.
    NeedMore,
    /// Unrecoverable failure in the machinery itself (writer bug, schema
    /// problem): surfaces as [`RpcError::PayloadWriter`] and counts
    /// against offload health.
    Fail(String),
    /// The *input* is malformed (truncated wire bytes, bad UTF-8, a
    /// resource budget tripped): the message is poison, not the path.
    /// Surfaces as [`RpcError::Quarantined`] so supervisors fail exactly
    /// this request without tripping the offload circuit breaker.
    Poison(String),
}

/// Response continuation: `(payload, status)`.
pub type Continuation = Box<dyn FnOnce(&[u8], u16) + Send>;

struct OpenBlock {
    alloc: Allocation,
    /// Build cursor within the block (8-aligned invariant).
    cursor: usize,
    /// Continuations of the messages queued in this block, in order.
    /// `None` marks an integrity control message (NACK): it occupies a
    /// message slot on the wire but never allocates a request ID, so the
    /// deterministic ID replay (§IV.D) sees only real requests.
    conts: Vec<Option<Continuation>>,
    /// Sampled-message trace contexts, parallel to `conts` (empty when
    /// tracing is off).
    traces: Vec<Option<MsgCtx>>,
    /// When this block first stalled on zero credits (trace clock).
    first_stall_ns: Option<u64>,
}

struct PendingRequest {
    cont: Continuation,
    block_seq: u64,
    /// Sampled request identity, if traced.
    trace_id: Option<u64>,
    /// When the carrying block was posted (trace clock).
    sent_ns: u64,
}

/// A sealed request block whose post failed (or has not happened yet):
/// its preamble is frozen, its IDs are allocated, and its continuations
/// are registered — only the RDMA write remains, so a transient post
/// failure can be retried without losing the block.
struct SealedRequestBlock {
    alloc: Allocation,
    seq: u64,
    block_bytes: usize,
    /// Every message in the block is an integrity control message.
    control_only: bool,
    /// Trace ids of sampled messages in this block.
    sampled_ids: Vec<u64>,
    /// Seal time (trace clock).
    post_ns: u64,
    /// When this block first stalled on zero credits (trace clock).
    first_stall_ns: Option<u64>,
    /// When the first post attempt failed (trace clock); present only on
    /// retried blocks.
    first_fail_ns: Option<u64>,
}

/// A posted request block retained until acknowledged: by the first
/// response to one of its requests (§IV.B), or — for blocks carrying only
/// integrity control messages, which get no ordinary responses — by an
/// explicit control-ack from the server.
struct SentBlock {
    alloc: Allocation,
    control_only: bool,
}

/// Per-connection tracing state (present only when a tracer is attached
/// and sampling is enabled).
struct ClientTraceState {
    conn: ConnTracer,
    sink: SpanSink,
}

/// Counters exposed by the client (Prometheus-instrumented at the library
/// level, as the paper does).
#[derive(Clone)]
pub struct ClientMetrics {
    /// Requests enqueued by the user.
    pub requests_enqueued: Counter,
    /// Responses delivered to continuations.
    pub responses_completed: Counter,
    /// Request blocks posted.
    pub blocks_sent: Counter,
    /// Payload + protocol bytes posted.
    pub bytes_sent: Counter,
    /// Response blocks processed.
    pub response_blocks: Counter,
    /// Current credits.
    pub credits: Gauge,
    /// Times a send stalled on zero credits.
    pub credit_stalls: Counter,
    /// Transient failures absorbed by the retry policy.
    pub retries: Counter,
    /// Receiver-not-ready events observed by this sender (raw transport
    /// pressure underneath the protocol-level retries).
    pub rnr_events: Gauge,
    /// Received blocks that failed their CRC32C (or carried an
    /// out-of-bounds length) and were NACKed for retransmit.
    pub crc_failures: Counter,
    /// Blocks re-posted in response to a peer integrity NACK.
    pub integrity_retransmits: Counter,
    /// High-water mark of credits consumed at once (occupancy peak).
    pub credits_in_use_peak: Gauge,
    /// High-water mark of requests awaiting responses.
    pub inflight_peak: Gauge,
}

impl ClientMetrics {
    fn new(reg: &Registry, conn: &str) -> Self {
        let l = &[("conn", conn), ("side", "client")];
        Self {
            requests_enqueued: reg.counter("rpc_requests_enqueued_total", "requests enqueued", l),
            responses_completed: reg.counter("rpc_responses_total", "responses delivered", l),
            blocks_sent: reg.counter("rpc_blocks_sent_total", "request blocks sent", l),
            bytes_sent: reg.counter("rpc_bytes_sent_total", "bytes posted", l),
            response_blocks: reg.counter("rpc_response_blocks_total", "response blocks", l),
            credits: reg.gauge("rpc_credits", "credits available", l),
            credit_stalls: reg.counter("rpc_credit_stalls_total", "sends stalled on credits", l),
            retries: reg.counter("rpc_retries_total", "transient failures retried", l),
            rnr_events: reg.gauge("rpc_rnr_events", "receiver-not-ready events seen", l),
            crc_failures: reg.counter("crc_failures_total", "received blocks failing CRC32C", l),
            integrity_retransmits: reg.counter(
                "integrity_retransmits_total",
                "blocks re-posted after a peer integrity NACK",
                l,
            ),
            credits_in_use_peak: reg.gauge(
                "rpc_credits_in_use_peak",
                "high-water mark of send credits consumed at once",
                l,
            ),
            inflight_peak: reg.gauge(
                "rpc_inflight_requests_peak",
                "high-water mark of requests awaiting responses",
                l,
            ),
        }
    }
}

/// Point-in-time snapshot for reporting.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientMetricsSnapshot {
    /// Requests enqueued.
    pub requests_enqueued: u64,
    /// Responses delivered.
    pub responses_completed: u64,
    /// Blocks sent.
    pub blocks_sent: u64,
    /// Bytes sent.
    pub bytes_sent: u64,
    /// Credits remaining.
    pub credits: i64,
}

/// One RPC-over-RDMA client endpoint (one connection).
pub struct RpcClient {
    qp: QueuePair,
    sbuf: MemoryRegion,
    rbuf: MemoryRegion,
    remote_rbuf: MemoryRegion,
    /// Host virtual address of the server's receive buffer byte 0 — the
    /// base all shared-address-space pointers are crafted against.
    remote_rbuf_base: u64,
    cfg: Config,
    alloc: OffsetAllocator,
    credits: u32,
    id_pool: IdPool,
    pending: HashMap<u16, PendingRequest>,
    open: Option<OpenBlock>,
    /// A sealed block whose post failed transiently, retried (in strict
    /// seal order, ahead of newer blocks) by the next flush.
    unsent: Option<SealedRequestBlock>,
    /// Optional transient-failure absorption driven by the event loop.
    retry: Option<RetryPolicy>,
    /// Consecutive transient flush failures absorbed so far.
    flush_attempts: u32,
    /// Earliest wall-clock time the next flush retry may run (backoff).
    next_flush_retry: Option<Instant>,
    /// Last time the endpoint made observable progress (post or response).
    last_progress: Instant,
    sent_blocks: HashMap<u64, SentBlock>,
    next_block_seq: u64,
    /// Bucket of a response block that failed its CRC: processing is
    /// paused (later immediates are parked in `held_resp_blocks`) until
    /// the server retransmits it cleanly — in-order block processing is
    /// what keeps the §IV.D ID replay deterministic.
    awaiting_resp_retransmit: Option<u32>,
    /// Response-block immediates that arrived while awaiting a
    /// retransmit, drained in arrival order once it lands.
    held_resp_blocks: VecDeque<u32>,
    /// Buckets of corrupt response blocks whose NACK control message has
    /// not been enqueued yet (backpressure-tolerant).
    pending_nacks: VecDeque<u32>,
    /// Buckets of request blocks the server NACKed, awaiting re-post.
    retransmit_queue: VecDeque<u32>,
    /// Response blocks fully processed since the last flush (preamble ack).
    pending_ack_blocks: u16,
    /// Method classes the server invalidated (CACHE_INVALIDATE control
    /// messages), awaiting pickup by the cache layer via
    /// [`RpcClient::take_cache_invalidations`].
    pending_cache_invalidations: Vec<u16>,
    /// Request IDs completed since the last flush, in response order —
    /// freed (on both sides, identically) at the next flush (§IV.D).
    pending_free_ids: Vec<u16>,
    wr_seq: u64,
    /// Reusable completion buffer (no allocator in the datapath, §VI.C.5).
    cqe_buf: Vec<pbo_simnet::Cqe>,
    metrics: ClientMetrics,
    /// Sees every credit consume/replenish (tenant sub-pool accounting).
    credit_observer: Option<crate::credit::SharedCreditObserver>,
    trace: Option<ClientTraceState>,
    /// Flight recorder (with the clock that stamps its marks); captured
    /// from the tracer even when span sampling is off, so CRC-failure
    /// anomaly dumps work in production-shaped runs.
    flight: Option<(Tracer, pbo_trace::FlightRecorder)>,
    /// Trace context of the most recently committed enqueue (lets callers
    /// attribute work done inside the payload writer, e.g. deserialization).
    last_ctx: Option<MsgCtx>,
}

impl RpcClient {
    /// Assembles a client endpoint. Used by [`crate::setup::establish`];
    /// exposed for custom topologies.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        qp: QueuePair,
        sbuf: MemoryRegion,
        rbuf: MemoryRegion,
        remote_rbuf: MemoryRegion,
        remote_rbuf_base: u64,
        cfg: Config,
        registry: &Registry,
        conn_label: &str,
    ) -> Self {
        cfg.validate();
        assert_eq!(
            sbuf.len(),
            remote_rbuf.len(),
            "send buffer must mirror the remote receive buffer"
        );
        let metrics = ClientMetrics::new(registry, conn_label);
        metrics.credits.set(cfg.credits as i64);
        Self {
            alloc: OffsetAllocator::new(sbuf.len() as u64),
            credits: cfg.credits,
            id_pool: IdPool::new(integrity::usable_id_capacity(cfg.id_pool)),
            pending: HashMap::new(),
            open: None,
            unsent: None,
            retry: None,
            flush_attempts: 0,
            next_flush_retry: None,
            last_progress: Instant::now(),
            sent_blocks: HashMap::new(),
            next_block_seq: 0,
            awaiting_resp_retransmit: None,
            held_resp_blocks: VecDeque::new(),
            pending_nacks: VecDeque::new(),
            retransmit_queue: VecDeque::new(),
            pending_ack_blocks: 0,
            pending_cache_invalidations: Vec::new(),
            pending_free_ids: Vec::new(),
            wr_seq: 0,
            cqe_buf: Vec::with_capacity(64),
            qp,
            sbuf,
            rbuf,
            remote_rbuf,
            remote_rbuf_base,
            cfg,
            metrics,
            credit_observer: None,
            trace: None,
            flight: None,
            last_ctx: None,
        }
    }

    /// Installs a [`crate::credit::CreditObserver`] that is invoked inline
    /// whenever this endpoint consumes or replenishes a send credit. The
    /// tenant scheduler uses this to keep per-tenant credit sub-pools in
    /// sync with the fabric's actual in-flight window.
    pub fn set_credit_observer(&mut self, observer: crate::credit::SharedCreditObserver) {
        self.credit_observer = Some(observer);
    }

    /// Attaches a tracer: subsequent requests get per-stage spans
    /// (`block_build`, `credit_wait`, `rdma_write`, `response`) recorded
    /// under the `{conn_label}/client` track. The server side of the same
    /// connection must attach with the same `conn_label` so request
    /// identities match (paper §IV.D determinism; no ids on the wire).
    pub fn set_tracer(&mut self, tracer: &Tracer, conn_label: &str) {
        // The flight recorder rides the tracer but works independently of
        // span sampling — anomaly capture stays on when tracing is off.
        self.flight = tracer.flight().map(|f| (tracer.clone(), f));
        if !tracer.is_enabled() {
            self.trace = None;
            return;
        }
        self.trace = Some(ClientTraceState {
            conn: ConnTracer::new(tracer.clone(), conn_label),
            sink: tracer.sink(&format!("{conn_label}/client")),
        });
    }

    /// Trace context of the most recent successful enqueue, when that
    /// request is sampled. Callers use it to record spans for work they
    /// performed inside the payload writer.
    pub fn last_trace_ctx(&self) -> Option<MsgCtx> {
        self.last_ctx
    }

    /// The configuration in force.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Requests currently awaiting responses.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Credits currently available.
    pub fn credits(&self) -> u32 {
        self.credits
    }

    /// Installs a retry policy: [`RpcClient::event_loop`] absorbs
    /// transient flush failures with exponential backoff instead of
    /// surfacing them, escalating to [`RpcError::Stalled`] once
    /// `max_attempts` consecutive retries made no progress. Without a
    /// policy every failure surfaces immediately (the pre-resilience
    /// behavior).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = Some(policy);
    }

    /// True while a sealed block awaits (re)posting.
    pub fn has_unsent(&self) -> bool {
        self.unsent.is_some()
    }

    /// True when no completion can be this endpoint's next event: nothing
    /// awaits a response or an ack, and no block — open, sealed, NACKed
    /// or held back — awaits a post or a retransmit. An idle poller may
    /// then block on its request source instead of the completion queue;
    /// only unsolicited peer traffic (a control record, a heartbeat) can
    /// still arrive, and a bounded wait covers that.
    pub fn is_quiescent(&self) -> bool {
        self.pending.is_empty()
            && self.sent_blocks.is_empty()
            && self.unsent.is_none()
            && self.open_msgs() == 0
            && self.pending_nacks.is_empty()
            && self.retransmit_queue.is_empty()
            && self.awaiting_resp_retransmit.is_none()
            && self.held_resp_blocks.is_empty()
    }

    /// Receiver-not-ready events observed by this endpoint's sender.
    pub fn rnr_events(&self) -> u64 {
        self.qp.rnr_events()
    }

    /// Metric snapshot.
    pub fn snapshot(&self) -> ClientMetricsSnapshot {
        ClientMetricsSnapshot {
            requests_enqueued: self.metrics.requests_enqueued.get(),
            responses_completed: self.metrics.responses_completed.get(),
            blocks_sent: self.metrics.blocks_sent.get(),
            bytes_sent: self.metrics.bytes_sent.get(),
            credits: self.metrics.credits.get(),
        }
    }

    /// Enqueues a request whose payload is a plain byte string.
    pub fn enqueue_bytes(
        &mut self,
        proc_id: u16,
        payload: &[u8],
        cont: Continuation,
    ) -> Result<(), RpcError> {
        self.enqueue_with(
            proc_id,
            payload.len(),
            &mut |dst: &mut [u8], _host_addr: u64| {
                if dst.len() < payload.len() {
                    return Err(PayloadError::NeedMore);
                }
                dst[..payload.len()].copy_from_slice(payload);
                Ok(payload.len())
            },
            cont,
        )
    }

    /// Enqueues a request with a caller-materialized payload.
    ///
    /// `write` receives the destination slice inside the block and the
    /// **host virtual address** that slice will occupy in the server's
    /// receive buffer after the DMA write — the hook that lets the ADT
    /// writer craft shared-address-space pointers. It returns the bytes
    /// used, or [`PayloadError::NeedMore`] to be retried in a larger
    /// block ("Messages can be larger than the minimum block size; in this
    /// case, the block is composed of a single message", §IV).
    pub fn enqueue_with(
        &mut self,
        proc_id: u16,
        size_hint: usize,
        write: &mut dyn FnMut(&mut [u8], u64) -> PayloadResult,
        cont: Continuation,
    ) -> Result<(), RpcError> {
        self.enqueue_with_meta(proc_id, size_hint, &[], write, cont)
    }

    /// [`RpcClient::enqueue_with`] with opaque call metadata attached: the
    /// bytes travel after the 8-aligned payload within the block and reach
    /// the server's handler untouched (§V.D: "metadata can also be passed
    /// along with the message in the payload").
    pub fn enqueue_with_meta(
        &mut self,
        proc_id: u16,
        size_hint: usize,
        metadata: &[u8],
        write: &mut dyn FnMut(&mut [u8], u64) -> PayloadResult,
        cont: Continuation,
    ) -> Result<(), RpcError> {
        self.last_ctx = None;
        // Sampling decision for this message; the sequence advances only
        // on successful enqueue so rejected calls keep both ends in step.
        let msg_ctx = self.trace.as_ref().and_then(|t| t.conn.begin_msg());
        if metadata.len() > MAX_PAYLOAD {
            return Err(RpcError::PayloadTooLarge {
                requested: metadata.len(),
                limit: MAX_PAYLOAD,
            });
        }
        if self.id_pool.outstanding() as usize + self.open_msgs() + 1
            > self.id_pool.capacity() as usize
        {
            return Err(RpcError::TooManyOutstanding);
        }
        let mut attempt_block_size = self.cfg.block_size;
        loop {
            self.ensure_open(attempt_block_size, size_hint)?;
            let open = self.open.as_mut().expect("ensured");
            let header_off = open.cursor;
            let payload_off = header_off + HEADER_SIZE;
            let block_len = open.alloc.size as usize;
            if payload_off >= block_len {
                // No room for even a header: flush and retry.
                self.flush()?;
                continue;
            }
            // Reserve room for the (8-aligned) metadata trailer up front.
            let meta_reserve = if metadata.is_empty() {
                0
            } else {
                align_up(metadata.len() as u64, 8) as usize + 8
            };
            if payload_off + meta_reserve >= block_len {
                self.flush()?;
                continue;
            }
            let avail = (block_len - payload_off - meta_reserve).min(MAX_PAYLOAD);
            let abs_payload = open.alloc.offset as usize + payload_off;
            let host_addr = self.remote_rbuf_base + abs_payload as u64;
            // SAFETY: the open block's range is exclusively ours until
            // posted; the clone keeps the borrow local.
            let sbuf = self.sbuf.clone();
            let dst = unsafe { sbuf.slice_mut(abs_payload, avail) };
            match write(dst, host_addr) {
                Ok(used) => {
                    assert!(used <= avail, "payload writer overran its slice");
                    let open = self.open.as_mut().expect("still open");
                    // SAFETY: header range is inside our open block.
                    let hdr = unsafe {
                        sbuf.slice_mut(open.alloc.offset as usize + header_off, HEADER_SIZE)
                    };
                    Header {
                        payload_size: used as u16,
                        selector: proc_id,
                        status: 0,
                        meta_len: metadata.len() as u16,
                    }
                    .write(hdr);
                    let mut end = align_up((payload_off + used) as u64, 8) as usize;
                    if !metadata.is_empty() {
                        // SAFETY: trailer range reserved above, inside our
                        // open block.
                        let dst = unsafe {
                            sbuf.slice_mut(open.alloc.offset as usize + end, metadata.len())
                        };
                        dst.copy_from_slice(metadata);
                        end = align_up((end + metadata.len()) as u64, 8) as usize;
                    }
                    open.cursor = end;
                    open.conts.push(Some(cont));
                    if let Some(t) = self.trace.as_mut() {
                        open.traces.push(msg_ctx);
                        t.conn.commit_msg();
                        if let Some(ctx) = msg_ctx {
                            t.sink.record(Span {
                                trace_id: ctx.trace_id,
                                stage: stages::BLOCK_BUILD,
                                start_ns: ctx.begin_ns,
                                end_ns: t.conn.tracer().now_ns(),
                                bytes: used as u64,
                            });
                            self.last_ctx = Some(ctx);
                        }
                    }
                    self.metrics.requests_enqueued.inc();
                    // Full block ⇒ ship it now (Nagle-style batching). The
                    // message is already accepted at this point, so a
                    // recoverable post failure must not fail the enqueue:
                    // the sealed block is retained in `unsent` and retried
                    // by the event loop (or replayed by a supervisor). An
                    // `Ok` from this method therefore always means
                    // "accepted", which callers rely on for exactly-once
                    // bookkeeping.
                    if open.cursor + HEADER_SIZE + 8 > open.alloc.size as usize {
                        match self.flush() {
                            Ok(()) => {}
                            Err(e) if e.retry_class() != RetryClass::Fatal => {}
                            Err(e) => return Err(e),
                        }
                    }
                    return Ok(());
                }
                Err(PayloadError::NeedMore) => {
                    let open_has_msgs = !self.open.as_ref().expect("open").conts.is_empty();
                    if open_has_msgs {
                        // Other messages occupy the block: ship them and
                        // retry in a fresh block.
                        self.flush()?;
                    } else {
                        // Alone in a fresh block and still too small: grow.
                        let cur = self.open.take().expect("open");
                        self.alloc.free(cur.alloc);
                        let next = attempt_block_size
                            .checked_mul(2)
                            .filter(|&n| n <= self.sbuf.len())
                            .ok_or(RpcError::PayloadTooLarge {
                                requested: size_hint.max(attempt_block_size),
                                limit: MAX_PAYLOAD,
                            })?;
                        attempt_block_size = next;
                    }
                }
                Err(PayloadError::Fail(m)) => return Err(RpcError::PayloadWriter(m)),
                Err(PayloadError::Poison(m)) => return Err(RpcError::Quarantined(m)),
            }
        }
    }

    fn open_msgs(&self) -> usize {
        self.open.as_ref().map(|o| o.conts.len()).unwrap_or(0)
    }

    fn ensure_open(&mut self, block_size: usize, size_hint: usize) -> Result<(), RpcError> {
        // A fresh block must be able to hold the hint; pre-grow if not.
        let needed = align_up(
            (PREAMBLE_SIZE + HEADER_SIZE + size_hint) as u64,
            BLOCK_ALIGN,
        ) as usize;
        let want = block_size.max(needed).min(self.sbuf.len());
        match &self.open {
            Some(open) if (open.alloc.size as usize) >= want || !open.conts.is_empty() => Ok(()),
            Some(_) => {
                // Empty but too small (caller grew the request): reopen.
                let cur = self.open.take().expect("open");
                self.alloc.free(cur.alloc);
                self.open_block(want)
            }
            None => self.open_block(want),
        }
    }

    fn open_block(&mut self, size: usize) -> Result<(), RpcError> {
        let alloc = self
            .alloc
            .alloc(size as u64, BLOCK_ALIGN)
            .map_err(|_| RpcError::SendBufferFull)?;
        self.open = Some(OpenBlock {
            alloc,
            cursor: PREAMBLE_SIZE,
            conts: Vec::new(),
            traces: Vec::new(),
            first_stall_ns: None,
        });
        Ok(())
    }

    /// Ships the open block, if any. Called by the event loop so that
    /// partially filled blocks still go out ("Blocks that contain fewer
    /// requests than the limit are still sent when calling the event
    /// loop", §IV).
    pub fn flush(&mut self) -> Result<(), RpcError> {
        // A previously sealed block retries first: blocks must reach the
        // server in seal order or the deterministic ID replay (§IV.D)
        // diverges.
        if let Some(sealed) = self.unsent.take() {
            if self.credits == 0 {
                self.unsent = Some(sealed);
                self.metrics.credit_stalls.inc();
                return Err(RpcError::NoCredits);
            }
            self.post_sealed(sealed)?;
        }
        let Some(open) = &self.open else {
            return Ok(());
        };
        if open.conts.is_empty() {
            return Ok(());
        }
        if self.credits == 0 {
            self.metrics.credit_stalls.inc();
            // Remember when a traced block first stalled on credits so the
            // eventual post carries a `credit_wait` span.
            if let Some(t) = &self.trace {
                let open = self.open.as_mut().expect("checked");
                if open.first_stall_ns.is_none() && open.traces.iter().any(Option::is_some) {
                    open.first_stall_ns = Some(t.conn.tracer().now_ns());
                }
            }
            return Err(RpcError::NoCredits);
        }
        let sealed = self.seal_block();
        self.post_sealed(sealed)
    }

    /// Freezes the open block: frees acked IDs, allocates this block's IDs
    /// (the §IV.D free-then-allocate order the server will replay), moves
    /// continuations into the pending map, and writes the preamble. After
    /// sealing, only the RDMA write remains.
    fn seal_block(&mut self) -> SealedRequestBlock {
        let mut open = self.open.take().expect("checked");
        let msg_count = open.conts.len() as u16;
        let seq = self.next_block_seq;
        self.next_block_seq += 1;
        let post_ns = self
            .trace
            .as_ref()
            .map(|t| t.conn.tracer().now_ns())
            .unwrap_or(0);
        let first_stall_ns = open.first_stall_ns;
        let mut sampled_ids: Vec<u64> = Vec::new();
        let mut traces = std::mem::take(&mut open.traces)
            .into_iter()
            .chain(std::iter::repeat(None));

        // §IV.D order: free the acknowledged IDs, then allocate new ones.
        // Integrity control messages (`None` slots) are skipped: they are
        // not requests and allocate no IDs on either side.
        for id in self.pending_free_ids.drain(..) {
            self.id_pool.free(id);
        }
        let mut control_only = true;
        for cont in open.conts.drain(..) {
            let trace = traces.next().flatten();
            let Some(cont) = cont else {
                continue;
            };
            control_only = false;
            let id = self
                .id_pool
                .alloc()
                .expect("pool sized to bound outstanding requests");
            if let Some(ctx) = trace {
                sampled_ids.push(ctx.trace_id);
            }
            self.pending.insert(
                id,
                PendingRequest {
                    cont,
                    block_seq: seq,
                    trace_id: trace.map(|c| c.trace_id),
                    sent_ns: post_ns,
                },
            );
        }
        self.metrics
            .inflight_peak
            .set_max(self.pending.len() as i64);

        let block_bytes = open.cursor;
        let sbuf = self.sbuf.clone();
        // SAFETY: preamble range is inside our block.
        let pre = unsafe { sbuf.slice_mut(open.alloc.offset as usize, PREAMBLE_SIZE) };
        Preamble {
            msg_count,
            ack_blocks: self.pending_ack_blocks,
            block_bytes: block_bytes as u32,
            crc32c: 0,
        }
        .write(pre);
        // SAFETY: the whole sealed block is ours until posted.
        integrity::stamp_block(unsafe { sbuf.slice_mut(open.alloc.offset as usize, block_bytes) });
        self.pending_ack_blocks = 0;

        SealedRequestBlock {
            alloc: open.alloc,
            seq,
            block_bytes,
            control_only,
            sampled_ids,
            post_ns,
            first_stall_ns,
            first_fail_ns: None,
        }
    }

    /// Posts a sealed block. On failure the block is retained in `unsent`
    /// for retry or replay — its memory, IDs, and continuations stay
    /// intact, so no request is lost to a failed post.
    fn post_sealed(&mut self, mut sealed: SealedRequestBlock) -> Result<(), RpcError> {
        self.wr_seq += 1;
        let attempt_ns = self
            .trace
            .as_ref()
            .map(|t| t.conn.tracer().now_ns())
            .unwrap_or(0);
        if let Err(e) = self.qp.post_write_imm(
            WorkRequestId(self.wr_seq),
            &self.sbuf,
            sealed.alloc.offset as usize,
            sealed.block_bytes,
            &self.remote_rbuf,
            sealed.alloc.offset as usize, // mirrored placement
            offset_to_bucket(sealed.alloc.offset),
            false,
        ) {
            if sealed.first_fail_ns.is_none() {
                sealed.first_fail_ns = Some(attempt_ns);
            }
            self.unsent = Some(sealed);
            return Err(e.into());
        }
        self.credits -= 1;
        self.metrics.credits.dec();
        if let Some(obs) = &self.credit_observer {
            obs.on_consume(1);
        }
        self.metrics
            .credits_in_use_peak
            .set_max((self.cfg.credits - self.credits) as i64);
        self.metrics.blocks_sent.inc();
        self.metrics.bytes_sent.inc_by(sealed.block_bytes as u64);
        self.sent_blocks.insert(
            sealed.seq,
            SentBlock {
                alloc: sealed.alloc,
                control_only: sealed.control_only,
            },
        );
        self.last_progress = Instant::now();
        if let Some(t) = &self.trace {
            let end_ns = t.conn.tracer().now_ns();
            let dma_ns = self.qp.last_dma_duration_ns();
            for id in &sealed.sampled_ids {
                if let Some(stall_ns) = sealed.first_stall_ns {
                    t.sink.record(Span {
                        trace_id: *id,
                        stage: stages::CREDIT_WAIT,
                        start_ns: stall_ns,
                        end_ns: sealed.post_ns,
                        bytes: 0,
                    });
                }
                if let Some(fail_ns) = sealed.first_fail_ns {
                    t.sink.record(Span {
                        trace_id: *id,
                        stage: stages::RETRY,
                        start_ns: fail_ns,
                        end_ns: attempt_ns,
                        bytes: 0,
                    });
                }
                t.sink.record(Span {
                    trace_id: *id,
                    stage: stages::RDMA_WRITE,
                    start_ns: attempt_ns,
                    end_ns,
                    bytes: sealed.block_bytes as u64,
                });
                // The simulated write is synchronous: its tail `dma_ns` is
                // the PCIe copy itself.
                t.sink.record(Span {
                    trace_id: *id,
                    stage: stages::DMA,
                    start_ns: end_ns.saturating_sub(dma_ns).max(attempt_ns),
                    end_ns,
                    bytes: sealed.block_bytes as u64,
                });
            }
        }
        Ok(())
    }

    /// Polls for response blocks, drives continuations, and flushes any
    /// pending partial block. Blocks for up to `timeout` when idle (the
    /// `poll()`-sleep of §III.C). Returns the number of responses
    /// delivered.
    pub fn event_loop(&mut self, timeout: Duration) -> Result<usize, RpcError> {
        // Flush first: a partial block must not wait for more traffic.
        self.try_flush()?;
        let mut cqes = std::mem::take(&mut self.cqe_buf);
        cqes.clear();
        {
            let cq = self.qp.recv_cq();
            if cq.poll_into(64, &mut cqes) == 0 && timeout > Duration::ZERO {
                cq.wait_into(64, timeout, &mut cqes);
            }
        }
        let mut delivered = 0;
        let mut result = Ok(());
        for cqe in &cqes {
            let CqeKind::RecvWriteImm { imm, .. } = cqe.kind else {
                continue;
            };
            match self.process_response_block(imm) {
                Ok(n) => delivered += n,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
            // Replenish the consumed receive.
            self.qp.post_recv(WorkRequestId(0), None);
        }
        cqes.clear();
        self.cqe_buf = cqes;
        if delivered > 0 {
            self.last_progress = Instant::now();
        }
        result?;
        // Send any integrity NACKs / retransmits queued while processing,
        // then flush (credits may also have been replenished).
        self.service_integrity()?;
        self.try_flush()?;
        self.metrics.rnr_events.set(self.qp.rnr_events() as i64);
        // Stall detection: work is outstanding but nothing has moved for
        // longer than the deadline — a completion or ack was lost.
        if let Some(deadline) = self.cfg.stall_deadline {
            if self.pending.is_empty() && self.unsent.is_none() {
                self.last_progress = Instant::now();
            } else {
                let waited = self.last_progress.elapsed();
                if waited > deadline {
                    return Err(RpcError::Stalled {
                        waited_ms: waited.as_millis() as u64,
                    });
                }
            }
        }
        Ok(delivered)
    }

    /// Flushes, absorbing backpressure always and transient failures when
    /// a retry policy is installed (with bounded exponential backoff,
    /// escalating to [`RpcError::Stalled`] when attempts run out).
    fn try_flush(&mut self) -> Result<(), RpcError> {
        if let Some(at) = self.next_flush_retry {
            if Instant::now() < at {
                return Ok(()); // still backing off
            }
        }
        match self.flush() {
            Ok(()) => {
                self.flush_attempts = 0;
                self.next_flush_retry = None;
                Ok(())
            }
            // Backpressure resolves via incoming responses, not retries.
            Err(RpcError::NoCredits) => Ok(()),
            Err(e) => {
                if let (Some(policy), RetryClass::Transient) = (self.retry, e.retry_class()) {
                    self.flush_attempts += 1;
                    self.metrics.retries.inc();
                    if self.flush_attempts > policy.max_attempts {
                        let waited = self.last_progress.elapsed();
                        return Err(RpcError::Stalled {
                            waited_ms: waited.as_millis() as u64,
                        });
                    }
                    self.next_flush_retry =
                        Some(Instant::now() + policy.backoff(self.flush_attempts));
                    return Ok(());
                }
                Err(e)
            }
        }
    }

    fn process_response_block(&mut self, imm: u32) -> Result<usize, RpcError> {
        if let Some(wait) = self.awaiting_resp_retransmit {
            if imm != wait {
                // In-order block processing is load-bearing (§IV.D): park
                // later blocks until the corrupt one arrives again cleanly.
                self.held_resp_blocks.push_back(imm);
                return Ok(0);
            }
        }
        let mut n = self.handle_resp_block(imm)?;
        while self.awaiting_resp_retransmit.is_none() {
            let Some(next) = self.held_resp_blocks.pop_front() else {
                break;
            };
            n += self.handle_resp_block(next)?;
        }
        Ok(n)
    }

    fn handle_resp_block(&mut self, imm: u32) -> Result<usize, RpcError> {
        let offset = crate::wire::bucket_to_offset(imm) as usize;
        if offset >= self.rbuf.len() {
            return Err(RpcError::Desync(format!("bucket {imm} out of range")));
        }
        let rbuf = self.rbuf.clone();
        // SAFETY: the block was published by the completion we just
        // popped; the server will not rewrite it until we ack it.
        let max = rbuf.len() - offset;
        let head = unsafe { rbuf.slice(offset, PREAMBLE_SIZE.min(max)) };
        // A truncated preamble, an out-of-bounds length, and a CRC
        // mismatch are all integrity failures of the block *bytes* — any
        // of them takes the NACK/retransmit path rather than tearing the
        // connection down as a desync.
        let block_len = Preamble::try_read(head)
            .map(|p| p.block_bytes as usize)
            .filter(|&len| len >= PREAMBLE_SIZE && offset + len <= rbuf.len());
        let verified = match block_len {
            // SAFETY: length just bounds-checked against the region.
            Some(len) => integrity::verify_block(unsafe { rbuf.slice(offset, len) }),
            None => false,
        };
        if !verified {
            self.metrics.crc_failures.inc();
            if let Some((t, f)) = &self.flight {
                let now = t.now_ns();
                f.record_mark(imm as u64, pbo_trace::triggers::CRC_FAILURE, now, 0);
                f.trigger(pbo_trace::triggers::CRC_FAILURE, now);
            }
            self.awaiting_resp_retransmit = Some(imm);
            self.pending_nacks.push_back(imm);
            return Ok(0);
        }
        self.awaiting_resp_retransmit = None;
        let block_len = block_len.expect("verified implies valid length");
        // SAFETY: bounds-checked above.
        let block = unsafe { rbuf.slice(offset, block_len) };
        let (_, mut iter) = BlockHeaderIter::new(block);
        let mut n = 0;
        for (header, _, payload, _meta) in iter.by_ref() {
            // Integrity control messages carry no request ID and are
            // intercepted before the pending lookup.
            if header.selector == INTEGRITY_NACK {
                self.handle_integrity_control(header.status, payload)?;
                continue;
            }
            let id = header.selector;
            let Some(entry) = self.pending.remove(&id) else {
                return Err(RpcError::Desync(format!("response for unknown id {id}")));
            };
            // First response for a request block acknowledges it (§IV.B):
            // recycle the send-buffer block and replenish a credit.
            if let Some(sent) = self.sent_blocks.remove(&entry.block_seq) {
                self.alloc.free(sent.alloc);
                self.credits += 1;
                self.metrics.credits.inc();
                if let Some(obs) = &self.credit_observer {
                    obs.on_replenish(1);
                }
            }
            (entry.cont)(payload, header.status);
            if let (Some(trace_id), Some(t)) = (entry.trace_id, &self.trace) {
                t.sink.record(Span {
                    trace_id,
                    stage: stages::RESPONSE,
                    start_ns: entry.sent_ns,
                    end_ns: t.conn.tracer().now_ns(),
                    bytes: payload.len() as u64,
                });
            }
            self.pending_free_ids.push(id);
            self.metrics.responses_completed.inc();
            n += 1;
        }
        if iter.malformed() {
            // The CRC passed, so the peer really built this block:
            // structural garbage is a protocol bug, not wire damage.
            return Err(RpcError::Desync(
                "malformed response block structure".into(),
            ));
        }
        self.pending_ack_blocks += 1;
        self.metrics.response_blocks.inc();
        Ok(n)
    }

    /// Handles one integrity control message found in a response block.
    fn handle_integrity_control(&mut self, status: u16, payload: &[u8]) -> Result<(), RpcError> {
        if payload.len() < 4 {
            return Err(RpcError::Desync("short integrity control payload".into()));
        }
        let bucket = u32::from_le_bytes(payload[..4].try_into().expect("checked"));
        match status {
            // The server received a corrupt request block: re-post it.
            INTEGRITY_NACK => self.retransmit_queue.push_back(bucket),
            // Control-ack: the server processed a request block carrying
            // control messages. Blocks with real requests are acked by
            // their first response; a control-only block has no other ack
            // path, so recycle it here.
            integrity::CONTROL_ACK => {
                let off = crate::wire::bucket_to_offset(bucket);
                let seq = self
                    .sent_blocks
                    .iter()
                    .find(|(_, s)| s.control_only && s.alloc.offset == off)
                    .map(|(seq, _)| *seq);
                if let Some(seq) = seq {
                    let sent = self.sent_blocks.remove(&seq).expect("just found");
                    self.alloc.free(sent.alloc);
                    self.credits += 1;
                    self.metrics.credits.inc();
                    if let Some(obs) = &self.credit_observer {
                        obs.on_replenish(1);
                    }
                }
            }
            // The server invalidated a method class: every cached
            // response for it is stale. Parked for the cache layer —
            // the RDMA client knows nothing about response caching.
            integrity::CACHE_INVALIDATE => {
                self.pending_cache_invalidations.push(bucket as u16);
            }
            s => {
                return Err(RpcError::Desync(format!(
                    "unknown integrity control status {s}"
                )))
            }
        }
        Ok(())
    }

    /// Drains the method classes the server has invalidated via
    /// [`integrity::CACHE_INVALIDATE`] control messages since the last
    /// call. The cache layer polls this each event-loop pass.
    pub fn take_cache_invalidations(&mut self) -> Vec<u16> {
        std::mem::take(&mut self.pending_cache_invalidations)
    }

    /// Queues an integrity NACK asking the server to retransmit the
    /// response block at `bucket`. Control messages ride the normal
    /// request path (batched, CRC-protected, credit-gated) but allocate
    /// no request ID; the server intercepts them before its ID replay.
    fn enqueue_integrity_nack(&mut self, bucket: u32) -> Result<(), RpcError> {
        let payload = bucket.to_le_bytes();
        loop {
            self.ensure_open(self.cfg.block_size, payload.len())?;
            let (alloc_off, header_off, block_len) = {
                let open = self.open.as_ref().expect("ensured");
                (
                    open.alloc.offset as usize,
                    open.cursor,
                    open.alloc.size as usize,
                )
            };
            let payload_off = header_off + HEADER_SIZE;
            if payload_off + payload.len() > block_len {
                self.flush()?;
                continue;
            }
            let sbuf = self.sbuf.clone();
            // SAFETY: ranges are inside our open block.
            let dst = unsafe { sbuf.slice_mut(alloc_off + payload_off, payload.len()) };
            dst.copy_from_slice(&payload);
            let hdr = unsafe { sbuf.slice_mut(alloc_off + header_off, HEADER_SIZE) };
            Header {
                payload_size: payload.len() as u16,
                selector: INTEGRITY_NACK,
                status: 0,
                meta_len: 0,
            }
            .write(hdr);
            let open = self.open.as_mut().expect("open");
            open.cursor = align_up((payload_off + payload.len()) as u64, 8) as usize;
            open.conts.push(None);
            if self.trace.is_some() {
                // Keep `traces` parallel to `conts`; control messages are
                // never sampled (they are not requests).
                open.traces.push(None);
            }
            return Ok(());
        }
    }

    /// Drives integrity recovery: enqueues pending NACKs and re-posts
    /// blocks the server asked to have retransmitted. Transient
    /// backpressure leaves work queued for the next event-loop pass.
    fn service_integrity(&mut self) -> Result<(), RpcError> {
        while let Some(bucket) = self.pending_nacks.front().copied() {
            match self.enqueue_integrity_nack(bucket) {
                Ok(()) => {
                    self.pending_nacks.pop_front();
                }
                Err(e) if e.retry_class() == RetryClass::Transient => return Ok(()),
                Err(e) => return Err(e),
            }
        }
        while let Some(bucket) = self.retransmit_queue.front().copied() {
            let off = bucket_to_offset(bucket);
            if !self.sent_blocks.values().any(|s| s.alloc.offset == off) {
                // The server NACKed a block we no longer retain: integrity
                // recovery has run out of road; only reconnect-with-replay
                // can restore a trustworthy stream.
                return Err(RpcError::Integrity(format!(
                    "peer requested retransmit of unretained block at bucket {bucket}"
                )));
            }
            let sbuf = self.sbuf.clone();
            // SAFETY: the retained block is ours until acknowledged; its
            // sealed preamble still holds the block length.
            let head = unsafe { sbuf.slice(off as usize, PREAMBLE_SIZE) };
            let block_bytes = Preamble::read(head).block_bytes as usize;
            self.wr_seq += 1;
            match self.qp.post_write_imm(
                WorkRequestId(self.wr_seq),
                &self.sbuf,
                off as usize,
                block_bytes,
                &self.remote_rbuf,
                off as usize,
                bucket,
                false,
            ) {
                // Retransmits reuse the credit the original post consumed.
                Ok(()) => {
                    self.retransmit_queue.pop_front();
                    self.metrics.integrity_retransmits.inc();
                    self.last_progress = Instant::now();
                }
                Err(e) if crate::error::classify_qp(&e) == RetryClass::Transient => return Ok(()),
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }
}
