//! The DPU-side offload engine.
//!
//! [`OffloadClient`] wraps an [`RpcClient`] with the two client-side
//! behaviours the evaluation compares:
//!
//! * **offloaded** — the expensive transformation runs here, on the DPU:
//!   "this costly transformation, which essentially consists of allocating
//!   the memory for the RPC over the RDMA request and running the
//!   deserialization, is entirely run on the DPU" (§III.A). The wire bytes
//!   are parsed once by the stack deserializer, which streams straight
//!   into the block arena through the ADT native writer, crafting host
//!   pointers against the mirrored receive buffer.
//! * **forwarded** (baseline) — the serialized bytes are copied into the
//!   block unchanged and the *host* deserializes, reproducing the paper's
//!   "CPU deserialization" comparison arm.

use crate::service::ServiceSchema;
use pbo_adt::{NativeWriter, WriterConfig};
use pbo_metrics::Registry;
use pbo_protowire::{DecodeError, DeserLimits, DeserStats, StackDeserializer};
use pbo_rpcrdma::client::{Continuation, PayloadError};
use pbo_rpcrdma::{RpcClient, RpcError};
use pbo_trace::{stages, Span, SpanSink, Tracer};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

/// Continuation for [`OffloadClient::call_full`]: receives the serialized
/// response bytes (or a serialization error) and the status code.
pub type FullContinuation = Box<dyn FnOnce(Result<Vec<u8>, String>, u16) + Send>;

/// DPU-side engine: one per connection/poller thread.
pub struct OffloadClient {
    rpc: RpcClient,
    bundle: ServiceSchema,
    trace: Option<(Tracer, SpanSink)>,
    /// Remaining forced offload failures (test/chaos knob): while
    /// non-zero, each offloaded call fails as if the DPU-side
    /// deserialization broke, exercising the degradation path.
    forced_failures: u32,
    /// Resource budgets enforced on the untrusted wire bytes each
    /// offloaded call deserializes.
    limits: DeserLimits,
    /// Metrics binding for budget rejections (`(registry, conn label)`).
    metrics: Option<(Arc<Registry>, String)>,
    /// Work-unit counts and native size of the most recent successful
    /// offloaded deserialization (consumed by the adaptive offload
    /// policy to refresh its per-class cost prior).
    last_deser: Option<(DeserStats, u64)>,
}

impl OffloadClient {
    /// Wraps an established client endpoint.
    ///
    /// `adt_blob`, when given, is the table received from the host during
    /// setup; it is checked for binary compatibility against the locally
    /// generated table (§V.A) — a mismatch means the two programs must not
    /// exchange native objects.
    pub fn new(
        rpc: RpcClient,
        bundle: ServiceSchema,
        adt_blob: Option<&[u8]>,
    ) -> Result<Self, pbo_adt::AdtError> {
        if let Some(blob) = adt_blob {
            let remote = pbo_adt::Adt::from_bytes(blob)?;
            bundle.adt().verify_compatible(&remote)?;
        }
        Ok(Self {
            rpc,
            bundle,
            trace: None,
            forced_failures: 0,
            limits: DeserLimits::hardened(),
            metrics: None,
            last_deser: None,
        })
    }

    /// Takes the work-unit counts and native (block) size of the most
    /// recent successful offloaded deserialization, clearing them.
    pub fn take_deser_outcome(&mut self) -> Option<(DeserStats, u64)> {
        self.last_deser.take()
    }

    /// Replaces the resource budgets enforced on incoming wire bytes.
    /// The default is [`DeserLimits::hardened`] — the offload engine sits
    /// directly on the trust boundary.
    pub fn set_deser_limits(&mut self, limits: DeserLimits) {
        self.limits = limits;
    }

    /// The budgets currently in force.
    pub fn deser_limits(&self) -> DeserLimits {
        self.limits
    }

    /// Binds a metrics registry: budget-rejected calls increment
    /// `budget_rejections_total{conn,limit}` (one series per tripped
    /// budget).
    pub fn bind_metrics(&mut self, registry: &Arc<Registry>, conn: &str) {
        self.metrics = Some((registry.clone(), conn.to_string()));
    }

    /// Forces the next `n` offloaded calls to fail as if the DPU-side
    /// deserialization broke ([`RpcError::PayloadWriter`]). A chaos knob:
    /// lets tests drive the offload→host degradation ladder (circuit
    /// breaker trip and later restore) without crafting n distinct
    /// malformed-but-procedure-matched wire messages.
    pub fn inject_offload_failures(&mut self, n: u32) {
        self.forced_failures = n;
    }

    /// Forced offload failures still pending.
    pub fn pending_forced_failures(&self) -> u32 {
        self.forced_failures
    }

    /// Attaches a tracer to this engine and its underlying RPC client.
    /// Sampled offloaded calls get a `deserialize` span (the DPU-side
    /// wire→native transformation) on the `{conn_label}/client` track, in
    /// addition to the client's transport-stage spans.
    pub fn set_tracer(&mut self, tracer: &Tracer, conn_label: &str) {
        self.rpc.set_tracer(tracer, conn_label);
        self.trace = if tracer.is_enabled() {
            Some((tracer.clone(), tracer.sink(&format!("{conn_label}/client"))))
        } else {
            None
        };
    }

    /// Wires a freshly established client into its connection's layers:
    /// spans under `conn_label` ([`OffloadClient::set_tracer`]) and, when
    /// the connection schedules tenants, the scheduler's fabric window as
    /// the client's credit observer, so credit borrowing tracks real
    /// block-credit consumption. Every client a connection ever runs on —
    /// the first, a reconnect's, a rejoin's — goes through here.
    pub fn wire<T>(
        &mut self,
        tracer: &Tracer,
        conn_label: &str,
        sched: Option<&pbo_sched::TenantScheduler<T>>,
    ) {
        self.set_tracer(tracer, conn_label);
        if let Some(sched) = sched {
            self.rpc.set_credit_observer(sched.fabric());
        }
    }

    /// The underlying RPC client (metrics, flushing).
    pub fn rpc(&mut self) -> &mut RpcClient {
        &mut self.rpc
    }

    /// The schema bundle.
    pub fn bundle(&self) -> &ServiceSchema {
        &self.bundle
    }

    /// Offloaded call: deserializes `wire` in place into the outgoing
    /// block as a native object. The host receives a ready-built object.
    pub fn call_offloaded(
        &mut self,
        proc_id: u16,
        wire: &[u8],
        cont: Continuation,
    ) -> Result<(), RpcError> {
        self.call_offloaded_md(proc_id, wire, &[], cont)
    }

    /// [`OffloadClient::call_offloaded`] with opaque call metadata, passed
    /// along with the message in the payload as §V.D suggests. The host
    /// handler receives it via `Request::metadata`.
    pub fn call_offloaded_md(
        &mut self,
        proc_id: u16,
        wire: &[u8],
        metadata: &[u8],
        cont: Continuation,
    ) -> Result<(), RpcError> {
        if self.forced_failures > 0 {
            self.forced_failures -= 1;
            return Err(RpcError::PayloadWriter(
                "injected offload failure".to_string(),
            ));
        }
        let desc = self
            .bundle
            .request_descriptor(proc_id)
            .ok_or(RpcError::NoSuchProcedure(proc_id))?
            .clone();
        let adt = self.bundle.adt().clone();
        let schema = self.bundle.schema().clone();
        // Hint: native objects are usually larger than the wire form
        // (that inflation is Fig 8b); start with 2× + slack and let
        // NeedMore grow the block when a message defeats the estimate.
        let hint = wire.len() * 2 + 128;
        // Deserialization happens inside the payload writer; time it there
        // (last attempt wins — NeedMore retries rerun the writer) and
        // attribute it once the enqueue commits and reports a sampled id.
        let deser_window: Cell<(u64, u64)> = Cell::new((0, 0));
        let deser_out: Cell<Option<(DeserStats, u64)>> = Cell::new(None);
        let clock = self.trace.as_ref().map(|(t, _)| t.clone());
        let limits = self.limits;
        let metrics = self.metrics.clone();
        self.last_deser = None;
        self.rpc.enqueue_with_meta(
            proc_id,
            hint,
            metadata,
            &mut |dst: &mut [u8], host_addr: u64| {
                let start_ns = clock.as_ref().map(|c| c.now_ns()).unwrap_or(0);
                let mut writer = NativeWriter::new(
                    &adt,
                    &desc,
                    dst,
                    WriterConfig {
                        host_base: host_addr,
                    },
                )
                .map_err(map_decode_err)?;
                let stats = StackDeserializer::new(&schema)
                    .with_limits(limits)
                    .deserialize(&desc, wire, &mut writer)
                    .map_err(|e| {
                        if let (DecodeError::Budget { limit, .. }, Some((reg, conn))) =
                            (&e, &metrics)
                        {
                            reg.counter(
                                "budget_rejections_total",
                                "Requests rejected by a deserialization resource budget",
                                &[("conn", conn), ("limit", limit)],
                            )
                            .inc();
                        }
                        map_decode_err(e)
                    })?;
                let result = writer.finish().map_err(map_decode_err)?;
                deser_out.set(Some((stats, result.used as u64)));
                if let Some(c) = &clock {
                    deser_window.set((start_ns, c.now_ns()));
                }
                Ok(result.used)
            },
            cont,
        )?;
        self.last_deser = deser_out.take();
        if let Some((_, sink)) = &self.trace {
            if let Some(ctx) = self.rpc.last_trace_ctx() {
                let (start_ns, end_ns) = deser_window.get();
                sink.record(Span {
                    trace_id: ctx.trace_id,
                    stage: stages::DESERIALIZE,
                    start_ns,
                    end_ns,
                    bytes: wire.len() as u64,
                });
            }
        }
        Ok(())
    }

    /// Fully offloaded call: the request is deserialized here (as in
    /// [`OffloadClient::call_offloaded`]) *and* the response arrives as a
    /// native object that this DPU serializes to canonical proto3 before
    /// invoking `cont` with the wire bytes — response-serialization
    /// offload, completing §III.A's sketch. Use with a host handler
    /// registered via `CompatServer::register_native_full`.
    pub fn call_full(
        &mut self,
        proc_id: u16,
        wire: &[u8],
        cont: FullContinuation,
    ) -> Result<(), RpcError> {
        let resp_desc = self
            .bundle
            .response_descriptor(proc_id)
            .ok_or(RpcError::NoSuchProcedure(proc_id))?
            .clone();
        let adt = self.bundle.adt().clone();
        let schema = self.bundle.schema().clone();
        let wrapped: Continuation = Box::new(move |payload, status| {
            if status != 0 {
                cont(Ok(Vec::new()), status);
                return;
            }
            let class = match adt.class_id(&resp_desc.name) {
                Ok(c) => c,
                Err(e) => return cont(Err(e.to_string()), status),
            };
            // The payload slice IS the response arena: the host's writer
            // used the payload's own client-side address as its base, so
            // every internal pointer lands inside this slice.
            let result = pbo_adt::NativeObject::from_slice(&adt, class, payload, 0)
                .map_err(|e| e.to_string())
                .and_then(|view| {
                    crate::serialize::serialize_view(&view, &resp_desc, &schema)
                        .map_err(|e| e.to_string())
                });
            cont(result, status);
        });
        self.call_offloaded(proc_id, wire, wrapped)
    }

    /// Baseline call: forwards the serialized bytes for host-side
    /// deserialization.
    pub fn call_forwarded(
        &mut self,
        proc_id: u16,
        wire: &[u8],
        cont: Continuation,
    ) -> Result<(), RpcError> {
        self.rpc.enqueue_bytes(proc_id, wire, cont)
    }

    /// [`OffloadClient::call_forwarded`] with call metadata attached.
    pub fn call_forwarded_md(
        &mut self,
        proc_id: u16,
        wire: &[u8],
        metadata: &[u8],
        cont: Continuation,
    ) -> Result<(), RpcError> {
        self.rpc.enqueue_with_meta(
            proc_id,
            wire.len(),
            metadata,
            &mut |dst: &mut [u8], _host_addr: u64| {
                if dst.len() < wire.len() {
                    return Err(PayloadError::NeedMore);
                }
                dst[..wire.len()].copy_from_slice(wire);
                Ok(wire.len())
            },
            cont,
        )
    }

    /// Drives the connection (flush + completions), delegating to
    /// [`RpcClient::event_loop`].
    pub fn event_loop(&mut self, timeout: Duration) -> Result<usize, RpcError> {
        self.rpc.event_loop(timeout)
    }
}

/// Maps deserialization failures onto payload-writer outcomes — the
/// poison-message taxonomy:
///
/// * arena exhaustion is not a failure at all: retry in a bigger block;
/// * schema/machinery faults (unknown message type, sink rejections) are
///   *our* problem — [`PayloadError::Fail`], which counts against offload
///   health and can trip the circuit breaker;
/// * everything else means the *wire bytes themselves* are malformed
///   (truncation, bad varints, invalid UTF-8, lying lengths, busted
///   budgets) — [`PayloadError::Poison`], which quarantines exactly this
///   request and says nothing about the path.
fn map_decode_err(e: DecodeError) -> PayloadError {
    match &e {
        DecodeError::Sink(msg) if msg.contains("arena exhausted") => PayloadError::NeedMore,
        DecodeError::UnknownMessageType(_) | DecodeError::Sink(_) => {
            PayloadError::Fail(e.to_string())
        }
        _ => PayloadError::Poison(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_error_mapping() {
        assert_eq!(
            map_decode_err(DecodeError::Sink("arena exhausted".into())),
            PayloadError::NeedMore
        );
        // Malformed input quarantines the request.
        assert!(matches!(
            map_decode_err(DecodeError::VarintOverflow),
            PayloadError::Poison(_)
        ));
        assert!(matches!(
            map_decode_err(DecodeError::InvalidUtf8 { at: 3 }),
            PayloadError::Poison(_)
        ));
        assert!(matches!(
            map_decode_err(DecodeError::Budget {
                limit: "len_bytes",
                max: 16,
                got: 64
            }),
            PayloadError::Poison(_)
        ));
        // Machinery faults count against offload health.
        assert!(matches!(
            map_decode_err(DecodeError::UnknownMessageType("x".into())),
            PayloadError::Fail(_)
        ));
        assert!(matches!(
            map_decode_err(DecodeError::Sink("writer rejected value".into())),
            PayloadError::Fail(_)
        ));
    }
}
