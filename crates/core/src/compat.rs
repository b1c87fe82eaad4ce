//! The host-side gRPC compatibility layer.
//!
//! "A compatibility layer mocks the xRPC server on the host and interprets
//! the RPC over RDMA requests as xRPC requests. This layer enables RPC
//! offloading without rewriting the host application" (§III.A). Handlers
//! keep a gRPC-service-like signature; what changes underneath is how the
//! request object materializes:
//!
//! * **offloaded** — the payload *is* the object: the handler receives a
//!   typed [`NativeObject`] view over the receive buffer, zero host-side
//!   deserialization;
//! * **baseline** — the payload is wire bytes; the layer deserializes
//!   them here on the host, with the same custom stack deserializer and
//!   the same native layout, into a per-server scratch arena (§VI.A's
//!   fairness rule), then hands the handler the identical view type.
//!
//! Either way the business logic is byte-for-byte the same — the paper's
//! "minimal code modifications" claim, demonstrated.

use crate::offload::spin_until_ns;
use crate::service::ServiceSchema;
use parking_lot::Mutex;
use pbo_adt::{BuildError, NativeBuilder, NativeObject, NativeWriter, WriterConfig};
use pbo_dpusim::CostCoeffs;
use pbo_metrics::{Counter, Registry};
use pbo_protowire::{DeserStats, StackDeserializer};
use pbo_rpcrdma::client::PayloadError;
use pbo_rpcrdma::server::{NativeResponse, Request, ResponseSink};
use pbo_rpcrdma::{RpcError, RpcServer};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared quarantine-counter slot: handler closures hold a clone, so the
/// binding may happen before or after registration.
type QuarantineCell = Arc<Mutex<Option<Counter>>>;

fn count_quarantine(cell: &QuarantineCell) {
    if let Some(c) = &*cell.lock() {
        c.inc();
    }
}

/// Shared registry slot for per-tenant dispatch counting: metadata-aware
/// handlers hold a clone and resolve `host_dispatch_total{tenant}` per
/// request, so label sets follow whatever tenants actually show up (the
/// registry's tenant cardinality cap bounds hostile streams).
type TenantRegistryCell = Arc<Mutex<Option<Arc<Registry>>>>;

/// Shared host-platform-emulation slot: when set, every host-side
/// deserialization spin-waits until `scale ×` the modeled Xeon cost of
/// the work it just did has elapsed, so closed-loop benchmarks see the
/// host as a real service station instead of a zero-cost one. `None`
/// (the default) disables the throttle entirely.
type ThrottleCell = Arc<Mutex<Option<f64>>>;

fn host_throttle(cell: &ThrottleCell, t0: Instant, stats: &DeserStats) {
    if let Some(scale) = *cell.lock() {
        spin_until_ns(t0, CostCoeffs::host_xeon().deser_time_ns(stats) * scale);
    }
}

fn count_tenant_dispatch(cell: &TenantRegistryCell, tenant: &str) {
    if let Some(r) = &*cell.lock() {
        r.counter(
            "host_dispatch_total",
            "Requests dispatched to host business logic, by tenant",
            &[("tenant", tenant)],
        )
        .inc();
    }
}

/// A gRPC-style unary handler over a typed native request view. Returns
/// `(status, response_bytes)` — response serialization stays host-side,
/// mirroring the paper's primary scope ("our implementation for protobuf
/// only offloads the request's deserialization and not the response's
/// serialization").
pub type NativeHandler = Arc<dyn Fn(&NativeObject<'_>, &mut Vec<u8>) -> u16 + Send + Sync>;

/// A native handler that also receives decoded call metadata (§V.D).
pub type NativeMdHandler =
    Arc<dyn Fn(&pbo_grpc::Metadata, &NativeObject<'_>, &mut Vec<u8>) -> u16 + Send + Sync>;

/// The fully offloaded variant (the extension §III.A sketches): the
/// handler reads the native request *and* builds the native response in
/// place; the DPU serializes it. Returns the status code, or a
/// [`BuildError`] — arena exhaustion makes the protocol retry the handler
/// in a larger block, so propagate builder errors with `?` instead of
/// unwrapping.
pub type FullNativeHandler =
    Arc<dyn Fn(&NativeObject<'_>, &mut NativeBuilder<'_>) -> Result<u16, BuildError> + Send + Sync>;

/// Whether this server expects pre-deserialized payloads or wire bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PayloadMode {
    /// Payloads are native objects built by the DPU.
    Native,
    /// Payloads are serialized protobuf; deserialize here (baseline).
    Serialized,
}

/// First metadata byte of a degradable call: the payload is a native
/// object built by the DPU (see [`CompatServer::register_degradable`]).
pub const MODE_NATIVE: u8 = 0;
/// First metadata byte of a degradable call: the payload is serialized
/// protobuf and the host must deserialize it — the circuit breaker routed
/// this request over the degraded path.
pub const MODE_SERIALIZED: u8 = 1;

/// The host-side server: an [`RpcServer`] plus the compatibility layer.
pub struct CompatServer {
    rpc: RpcServer,
    mode: PayloadMode,
    quarantined: QuarantineCell,
    tenant_reg: TenantRegistryCell,
    deser_throttle: ThrottleCell,
}

impl CompatServer {
    /// Wraps an established server endpoint.
    pub fn new(rpc: RpcServer, mode: PayloadMode) -> Self {
        Self {
            rpc,
            mode,
            quarantined: Arc::new(Mutex::new(None)),
            tenant_reg: Arc::new(Mutex::new(None)),
            deser_throttle: Arc::new(Mutex::new(None)),
        }
    }

    /// Sets (or clears) the host-platform-emulation throttle: with
    /// `Some(scale)`, every host-side deserialization busy-waits until
    /// `scale ×` its modeled Xeon cost
    /// ([`pbo_dpusim::CostCoeffs::host_xeon`] priced over the real
    /// [`pbo_protowire::DeserStats`]) has elapsed. Benchmarks use this
    /// to give the host and DPU honest relative service rates; `None`
    /// (the default) is a no-op. May be called before or after handlers
    /// are registered.
    pub fn set_deser_throttle(&mut self, scale: Option<f64>) {
        *self.deser_throttle.lock() = scale;
    }

    /// Binds a metrics registry: every request this server fails with
    /// status 2 because its payload would not materialize — host-side
    /// deserialization failure or an unmappable native object — counts in
    /// `quarantined_requests_total{conn,side="host"}`. May be called
    /// before or after handlers are registered.
    pub fn bind_metrics(&mut self, registry: &Registry, conn: &str) {
        *self.quarantined.lock() = Some(registry.counter(
            "quarantined_requests_total",
            "Malformed (poison) requests failed individually with an error response",
            &[("conn", conn), ("side", "host")],
        ));
    }

    /// Binds per-tenant dispatch counting: every request served by a
    /// metadata-aware handler ([`CompatServer::register_native_md`])
    /// increments `host_dispatch_total{tenant}`, classified from the
    /// request's `tenant` metadata key. May be called before or after
    /// handlers are registered.
    pub fn bind_tenant_metrics(&mut self, registry: &Arc<Registry>) {
        *self.tenant_reg.lock() = Some(registry.clone());
    }

    /// The payload mode in force.
    pub fn mode(&self) -> PayloadMode {
        self.mode
    }

    /// Attaches a tracer to the underlying protocol server. Use the same
    /// `conn_label` as the client side: both ends derive identical trace
    /// ids from it (§IV.D determinism), so spans line up per request.
    pub fn set_tracer(&mut self, tracer: &pbo_trace::Tracer, conn_label: &str) {
        self.rpc.set_tracer(tracer, conn_label);
    }

    /// The underlying protocol server.
    pub fn rpc(&mut self) -> &mut RpcServer {
        &mut self.rpc
    }

    /// Tells every connected client that cached responses for `proc_id`
    /// are stale. Handlers whose backing state changed call this; the
    /// CACHE_INVALIDATE control message rides the next response block.
    pub fn push_cache_invalidate(&mut self, proc_id: u16) {
        self.rpc.push_cache_invalidate(proc_id);
    }

    /// Metric snapshot of the underlying server.
    pub fn snapshot(&self) -> pbo_rpcrdma::ServerMetricsSnapshot {
        self.rpc.snapshot()
    }

    /// Registers a typed handler that also receives the call metadata the
    /// client attached ("passed along with the message in the payload",
    /// §V.D). Works in [`PayloadMode::Native`] only.
    pub fn register_native_md(
        &mut self,
        bundle: &ServiceSchema,
        proc_id: u16,
        handler: NativeMdHandler,
    ) {
        assert_eq!(self.mode, PayloadMode::Native);
        let m = Materializer::new(self, bundle, proc_id);
        let tenant_reg = self.tenant_reg.clone();
        self.rpc.register(
            proc_id,
            Box::new(move |req, sink| {
                let Some(metadata) = decode_metadata(req.metadata, &tenant_reg) else {
                    return STATUS_CORRUPT_METADATA;
                };
                m.view_in_place(req, sink, |view, out| handler(&metadata, view, out))
            }),
        );
    }

    /// Registers a typed handler for `proc_id`. The handler signature is
    /// identical in both modes; the layer adapts the payload: the object
    /// the DPU built is viewed in place, or (baseline) the wire bytes are
    /// deserialized here with the same algorithm into the same layout.
    pub fn register_native(
        &mut self,
        bundle: &ServiceSchema,
        proc_id: u16,
        handler: NativeHandler,
    ) {
        let mut m = Materializer::new(self, bundle, proc_id);
        let mode = self.mode;
        self.rpc.register(
            proc_id,
            Box::new(move |req, sink| match mode {
                PayloadMode::Native => m.view_in_place(req, sink, |view, out| handler(view, out)),
                PayloadMode::Serialized => {
                    m.deserialize_then_view(req.payload, sink, |view, out| handler(view, out))
                }
            }),
        );
    }

    /// Registers a typed metadata-aware handler that serves **both**
    /// payload forms, routed per request by the first metadata byte:
    /// [`MODE_NATIVE`] payloads are viewed in place (the DPU built the
    /// object), while [`MODE_SERIALIZED`] payloads are deserialized here on
    /// the host with the same hardened budgets, quarantine counting and
    /// scratch-arena layout as every other host arm — the path the offload
    /// circuit breaker degrades to and the adaptive policy routes
    /// host-favoured classes over. The business logic is byte-for-byte
    /// identical either way. Bytes after the mode byte carry the encoded
    /// call metadata (build them with [`routed_metadata`]); an absent tail
    /// — all [`crate::ResilientSession`] sends — decodes as empty
    /// metadata. Per-tenant dispatch is counted either way.
    ///
    /// Requires [`PayloadMode::Native`]: routing is per request, not per
    /// connection.
    pub fn register_degradable(
        &mut self,
        bundle: &ServiceSchema,
        proc_id: u16,
        handler: NativeMdHandler,
    ) {
        assert_eq!(
            self.mode,
            PayloadMode::Native,
            "degradable handlers route per request; the server stays native"
        );
        let mut m = Materializer::new(self, bundle, proc_id);
        let tenant_reg = self.tenant_reg.clone();
        self.rpc.register(
            proc_id,
            Box::new(move |req, sink| {
                let md_tail = req.metadata.get(1..).unwrap_or(&[]);
                let Some(metadata) = decode_metadata(md_tail, &tenant_reg) else {
                    return STATUS_CORRUPT_METADATA;
                };
                if req.metadata.first() == Some(&MODE_SERIALIZED) {
                    m.deserialize_then_view(req.payload, sink, |view, out| {
                        handler(&metadata, view, out)
                    })
                } else {
                    m.view_in_place(req, sink, |view, out| handler(&metadata, view, out))
                }
            }),
        );
    }

    /// Registers a fully offloaded handler for `proc_id`: the request
    /// arrives as a native object and the response *leaves* as one — built
    /// by the handler directly inside the host's send-buffer block, with
    /// pointers valid in the client's receive buffer. The DPU serializes
    /// it for the xRPC client; the host never runs protobuf code in either
    /// direction.
    ///
    /// Only meaningful in [`PayloadMode::Native`].
    pub fn register_native_full(
        &mut self,
        bundle: &ServiceSchema,
        proc_id: u16,
        handler: FullNativeHandler,
    ) {
        assert_eq!(
            self.mode,
            PayloadMode::Native,
            "full offload requires native payloads"
        );
        let (adt, _req_desc, req_class) = request_class(bundle, proc_id);
        let resp_desc = bundle
            .response_descriptor(proc_id)
            .expect("validated")
            .clone();
        let resp_meta = adt
            .class_by_name(&resp_desc.name)
            .expect("validated")
            .clone();
        let schema = bundle.schema().clone();

        self.rpc.register_writer(
            proc_id,
            Box::new(move |req| {
                // Capture only plain data + Arcs: the write closure runs
                // after this handler returns (still within foreground
                // processing of the same block, so the request memory
                // stays valid — the client recycles it only after our
                // first response for the block, which is sent later).
                let payload_addr = req.payload_addr;
                let region_base = req.region_base;
                let region_len = req.region_len;
                let adt = adt.clone();
                let schema = schema.clone();
                let resp_desc = resp_desc.clone();
                let handler = handler.clone();
                let min_size = resp_meta.size;
                NativeResponse {
                    size_hint: min_size + 256,
                    write: Box::new(move |dst: &mut [u8], host_addr: u64| {
                        let view = NativeObject::from_addr(
                            &adt,
                            req_class,
                            payload_addr,
                            region_base,
                            region_len,
                        )
                        .map_err(|e| PayloadError::Fail(e.to_string()))?;
                        let mut builder =
                            NativeBuilder::new(&adt, &schema, &resp_desc, dst, host_addr)
                                .map_err(map_build_err)?;
                        let status = handler(&view, &mut builder).map_err(map_build_err)?;
                        let result = builder.finish().map_err(map_build_err)?;
                        Ok((result.used, status))
                    }),
                }
            }),
        );
    }

    /// Registers the empty business logic used by the paper's datapath
    /// measurements ("the business logic is left empty to measure the
    /// impact of deserialization offloading", §VI.C) — the handler still
    /// *touches* the object (reads its class) so the view is materialized.
    pub fn register_empty_logic(&mut self, bundle: &ServiceSchema, proc_id: u16) {
        self.register_native(
            bundle,
            proc_id,
            Arc::new(|view, _out| {
                // Touch the received object; respond empty.
                let _ = view.meta().size;
                0
            }),
        );
    }

    /// Drives the server poller.
    pub fn event_loop(&mut self, timeout: Duration) -> Result<usize, RpcError> {
        self.rpc.event_loop(timeout)
    }
}

/// gRPC-side status of a request whose payload would not materialize
/// (host-side deserialization failure or an unmappable native object).
const STATUS_UNMATERIALIZED: u16 = 2;
/// gRPC `INVALID_ARGUMENT`: delivered for a quarantined (poison) request.
pub const STATUS_QUARANTINED: u16 = 3;
/// gRPC `UNIMPLEMENTED`: no handler anywhere can serve the procedure.
pub const STATUS_UNIMPLEMENTED: u16 = 12;
/// gRPC `INTERNAL`: the call metadata section would not decode.
const STATUS_CORRUPT_METADATA: u16 = 13;
/// gRPC `UNAVAILABLE`: the terminator's poller is gone.
pub const STATUS_UNAVAILABLE: u16 = 14;
/// gRPC `UNAUTHENTICATED`: the terminator rejected the call's metadata.
pub const STATUS_UNAUTHENTICATED: u16 = 16;

/// Decodes the call metadata section (empty = none) and counts the
/// dispatch against its tenant; `None` when the bytes are corrupt.
fn decode_metadata(bytes: &[u8], tenant_reg: &TenantRegistryCell) -> Option<pbo_grpc::Metadata> {
    let metadata = if bytes.is_empty() {
        pbo_grpc::Metadata::new()
    } else {
        pbo_grpc::Metadata::decode(bytes).ok()?.0
    };
    count_tenant_dispatch(tenant_reg, metadata.tenant());
    Some(metadata)
}

/// What a typed handler closure owns to turn one request's payload into
/// the [`NativeObject`] view the business logic reads — the two arms every
/// `register_*` variant above dispatches between.
struct Materializer {
    adt: Arc<pbo_adt::Adt>,
    schema: Arc<pbo_protowire::Schema>,
    desc: Arc<pbo_protowire::MessageDescriptor>,
    class: u32,
    /// Scratch arena for host-side deserialization; grown on demand,
    /// reused across requests (no steady-state allocation).
    scratch: Vec<u8>,
    quarantined: QuarantineCell,
    throttle: ThrottleCell,
}

impl Materializer {
    /// # Panics
    /// Panics when `proc_id` is not a method of the bundle.
    fn new(server: &CompatServer, bundle: &ServiceSchema, proc_id: u16) -> Self {
        let (adt, desc, class) = request_class(bundle, proc_id);
        Self {
            adt,
            schema: bundle.schema().clone(),
            desc,
            class,
            scratch: Vec::new(),
            quarantined: server.quarantined.clone(),
            throttle: server.deser_throttle.clone(),
        }
    }

    /// The object was built by the DPU: view it in place. A malformed
    /// object is quarantined (INVALID_ARGUMENT).
    fn view_in_place(
        &self,
        req: &Request<'_>,
        sink: &mut ResponseSink,
        run: impl FnOnce(&NativeObject<'_>, &mut Vec<u8>) -> u16,
    ) -> u16 {
        let (base, len) = (req.region_base, req.region_len);
        match NativeObject::from_addr(&self.adt, self.class, req.payload_addr, base, len) {
            Ok(view) => respond(sink, |out| run(&view, out)),
            Err(_) => {
                count_quarantine(&self.quarantined);
                STATUS_UNMATERIALIZED
            }
        }
    }

    /// The payload is wire bytes: deserialize here, same algorithm, same
    /// layout, into the local scratch arena, then view that.
    fn deserialize_then_view(
        &mut self,
        payload: &[u8],
        sink: &mut ResponseSink,
        run: impl FnOnce(&NativeObject<'_>, &mut Vec<u8>) -> u16,
    ) -> u16 {
        let t0 = Instant::now();
        let (adt, scratch) = (&self.adt, &mut self.scratch);
        match host_deserialize(adt, &self.schema, &self.desc, payload, scratch) {
            Ok((skew, root_offset, stats)) => {
                host_throttle(&self.throttle, t0, &stats);
                let view = NativeObject::from_slice(adt, self.class, &scratch[skew..], root_offset)
                    .expect("just built");
                respond(sink, |out| run(&view, out))
            }
            Err(()) => {
                count_quarantine(&self.quarantined);
                STATUS_UNMATERIALIZED
            }
        }
    }
}

/// Runs the business logic and writes its response bytes, if any.
fn respond(sink: &mut ResponseSink, run: impl FnOnce(&mut Vec<u8>) -> u16) -> u16 {
    let mut out = Vec::new();
    let status = run(&mut out);
    if !out.is_empty() {
        sink.write(&out);
    }
    status
}

/// The ADT, request descriptor and native class of one procedure.
///
/// # Panics
/// Panics when `proc_id` is not a method of the bundle.
fn request_class(
    bundle: &ServiceSchema,
    proc_id: u16,
) -> (
    Arc<pbo_adt::Adt>,
    Arc<pbo_protowire::MessageDescriptor>,
    u32,
) {
    let adt = bundle.adt().clone();
    let desc = bundle
        .request_descriptor(proc_id)
        .unwrap_or_else(|| panic!("no method with procedure id {proc_id}"))
        .clone();
    let class = adt
        .class_id(&desc.name)
        .expect("bundle validated at construction");
    (adt, desc, class)
}

/// Host-side deserialization into a reusable scratch arena: same custom
/// stack deserializer, same native layout as the DPU path. The arena is
/// over-allocated by a word so an 8-aligned window can be carved out
/// regardless of where the allocator placed it. On success returns the
/// alignment skew, root offset, and the work-unit counts of the
/// deserialization (so callers can feed the adaptive policy's host-side
/// cost model); view the object with
/// `NativeObject::from_slice(adt, class, &scratch[skew..], root_offset)`.
/// Shared by the baseline arm of [`CompatServer::register_native`] and the
/// degraded arm of [`CompatServer::register_degradable`].
fn host_deserialize(
    adt: &pbo_adt::Adt,
    schema: &pbo_protowire::Schema,
    desc: &Arc<pbo_protowire::MessageDescriptor>,
    payload: &[u8],
    scratch: &mut Vec<u8>,
) -> Result<(usize, usize, DeserStats), ()> {
    let need = payload.len() * 2 + 1024 + 8;
    if scratch.len() < need {
        scratch.resize(need, 0);
    }
    let skew = (8 - scratch.as_ptr() as usize % 8) % 8;
    let arena = &mut scratch[skew..];
    let host_base = arena.as_ptr() as u64;
    debug_assert_eq!(host_base % 8, 0);
    NativeWriter::new(adt, desc, arena, WriterConfig { host_base })
        .and_then(|mut w| {
            // Same trust boundary as the DPU path: these bytes came off
            // the wire unvalidated, so the same budgets apply.
            let stats = StackDeserializer::new(schema)
                .with_limits(pbo_protowire::DeserLimits::hardened())
                .deserialize(desc, payload, &mut w)?;
            Ok((w.finish()?, stats))
        })
        .map(|(res, stats)| (skew, res.root_offset, stats))
        .map_err(|_| ())
}

/// Builds the wire metadata of a route-dispatched call: the route mode
/// byte ([`MODE_NATIVE`] or [`MODE_SERIALIZED`]) followed by the
/// already-encoded call metadata. [`CompatServer::register_degradable`]
/// decodes the same layout on the host.
pub fn routed_metadata(mode: u8, md: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(1 + md.len());
    v.push(mode);
    v.extend_from_slice(md);
    v
}

/// One registered procedure of the host-only datapath: deserializes wire
/// bytes into the per-proc scratch arena and runs the business logic, all
/// in one call, no transport involved.
type HostProcFn = Box<dyn FnMut(&[u8], &mut Vec<u8>) -> Result<u16, ()> + Send>;

/// The host-only datapath used during whole-DPU failover.
///
/// When the lease monitor declares the DPU dead, the session re-points
/// the *entire connection* here: requests are deserialized on the host
/// (same stack deserializer, same hardened budgets, same native layout as
/// the degraded arm of [`CompatServer::register_degradable`]) and
/// dispatched to the same [`NativeHandler`] business logic — no RDMA, no
/// credits, no DPU. This is distinct from the circuit breaker's
/// per-request degrade: the breaker still forwards bytes over the fabric
/// for the host *server* to deserialize; `HostDirect` exists precisely
/// because the fabric endpoint (the DPU) is gone.
pub struct HostDirect {
    procs: std::collections::BTreeMap<u16, HostProcFn>,
}

impl Default for HostDirect {
    fn default() -> Self {
        Self::new()
    }
}

impl HostDirect {
    /// An empty dispatcher; register the same handlers the server got.
    pub fn new() -> Self {
        Self {
            procs: std::collections::BTreeMap::new(),
        }
    }

    /// Registers the host-side business logic for one procedure.
    ///
    /// # Panics
    /// Panics when `proc_id` is not a method of the bundle (same contract
    /// as [`CompatServer::register_degradable`]).
    pub fn register(&mut self, bundle: &ServiceSchema, proc_id: u16, handler: NativeHandler) {
        let (adt, desc, class) = request_class(bundle, proc_id);
        let schema = bundle.schema().clone();
        let mut scratch: Vec<u8> = Vec::new();
        self.procs.insert(
            proc_id,
            Box::new(move |payload, out| {
                let (skew, root_offset, _stats) =
                    host_deserialize(&adt, &schema, &desc, payload, &mut scratch)?;
                let view = NativeObject::from_slice(&adt, class, &scratch[skew..], root_offset)
                    .expect("just built");
                Ok(handler(&view, out))
            }),
        );
    }

    /// Whether a handler is registered for `proc_id`.
    pub fn has(&self, proc_id: u16) -> bool {
        self.procs.contains_key(&proc_id)
    }

    /// Executes one request entirely on the host. On success the response
    /// bytes are in `out` and the handler's status is returned;
    /// [`RpcError::Quarantined`] marks a payload the hardened
    /// deserializer rejected (same per-request trust boundary as every
    /// other path), [`RpcError::NoSuchProcedure`] an unregistered id.
    pub fn dispatch(
        &mut self,
        proc_id: u16,
        wire: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<u16, RpcError> {
        let f = self
            .procs
            .get_mut(&proc_id)
            .ok_or(RpcError::NoSuchProcedure(proc_id))?;
        f(wire, out).map_err(|()| {
            RpcError::Quarantined("host-direct deserialization rejected the payload".into())
        })
    }
}

/// Maps builder failures onto payload-writer outcomes: arena exhaustion
/// retries in a larger block; anything else fails the response.
fn map_build_err(e: BuildError) -> PayloadError {
    match &e {
        BuildError::Writer(m) if m.contains("arena exhausted") => PayloadError::NeedMore,
        _ => PayloadError::Fail(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offload::OffloadClient;
    use pbo_metrics::Registry;
    use pbo_protowire::encode_message;
    use pbo_protowire::workloads::{gen_small, paper_schema};
    use pbo_rpcrdma::{establish, Config};
    use pbo_simnet::Fabric;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn stack(mode: PayloadMode) -> (OffloadClient, CompatServer) {
        let bundle = ServiceSchema::paper_bench();
        let fabric = Fabric::new();
        let registry = Registry::new();
        let adt_bytes = bundle.adt_bytes();
        let ep = establish(
            &fabric,
            Config::paper_client(),
            Config::paper_server(),
            &registry,
            "t",
            Some(&adt_bytes),
        );
        let client =
            OffloadClient::new(ep.client, bundle.clone(), ep.control_blob.as_deref()).unwrap();
        let server = CompatServer::new(ep.server, mode);
        (client, server)
    }

    #[test]
    fn offloaded_small_message_reaches_handler_as_native_object() {
        let bundle = ServiceSchema::paper_bench();
        let (mut client, mut server) = stack(PayloadMode::Native);
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = seen.clone();
        server.register_native(
            &bundle,
            1,
            Arc::new(move |view, _out| {
                assert_eq!(view.get_u32(1).unwrap(), 300);
                assert_eq!(view.get_u32(2).unwrap(), 200);
                assert_eq!(view.get_u64(3).unwrap(), 77);
                assert_eq!(view.get_f32(4).unwrap(), 1.5);
                assert!(view.get_bool(5).unwrap());
                seen2.fetch_add(1, Ordering::Relaxed);
                0
            }),
        );

        let schema = paper_schema();
        let wire = encode_message(&gen_small(&schema));
        let done = Arc::new(AtomicU64::new(0));
        let d = done.clone();
        client
            .call_offloaded(
                1,
                &wire,
                Box::new(move |payload, status| {
                    assert_eq!(status, 0);
                    assert!(payload.is_empty());
                    d.fetch_add(1, Ordering::Relaxed);
                }),
            )
            .unwrap();
        client.rpc().flush().unwrap();
        server.event_loop(Duration::ZERO).unwrap();
        client.event_loop(Duration::ZERO).unwrap();
        assert_eq!(seen.load(Ordering::Relaxed), 1);
        assert_eq!(done.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn baseline_mode_gives_handlers_the_same_view() {
        let bundle = ServiceSchema::paper_bench();
        let (mut client, mut server) = stack(PayloadMode::Serialized);
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = seen.clone();
        server.register_native(
            &bundle,
            2,
            Arc::new(move |view, _out| {
                let rep = view.get_repeated(1).unwrap();
                assert_eq!(rep.len(), 512);
                seen2.fetch_add(rep.len() as u64, Ordering::Relaxed);
                0
            }),
        );
        let schema = paper_schema();
        let mut rng = pbo_protowire::workloads::Mt19937::new(1);
        let msg = pbo_protowire::workloads::gen_int_array(&schema, &mut rng, 512);
        let wire = encode_message(&msg);
        client
            .call_forwarded(2, &wire, Box::new(|_p, s| assert_eq!(s, 0)))
            .unwrap();
        client.rpc().flush().unwrap();
        server.event_loop(Duration::ZERO).unwrap();
        client.event_loop(Duration::ZERO).unwrap();
        assert_eq!(seen.load(Ordering::Relaxed), 512);
    }

    #[test]
    fn offloaded_large_string_survives_block_growth() {
        let bundle = ServiceSchema::paper_bench();
        let (mut client, mut server) = stack(PayloadMode::Native);
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = seen.clone();
        server.register_native(
            &bundle,
            3,
            Arc::new(move |view, _out| {
                let s = view.get_str(1).unwrap();
                assert_eq!(s.len(), 8000);
                seen2.store(
                    s.as_bytes().iter().map(|&b| b as u64).sum(),
                    Ordering::Relaxed,
                );
                0
            }),
        );
        let schema = paper_schema();
        let mut rng = pbo_protowire::workloads::Mt19937::new(7);
        let msg = pbo_protowire::workloads::gen_char_array(&schema, &mut rng, 8000);
        let expect_sum: u64 = msg
            .get(1)
            .unwrap()
            .as_str()
            .unwrap()
            .bytes()
            .map(|b| b as u64)
            .sum();
        let wire = encode_message(&msg);
        client
            .call_offloaded(3, &wire, Box::new(|_p, s| assert_eq!(s, 0)))
            .unwrap();
        client.rpc().flush().unwrap();
        server.event_loop(Duration::ZERO).unwrap();
        client.event_loop(Duration::ZERO).unwrap();
        assert_eq!(seen.load(Ordering::Relaxed), expect_sum);
    }

    #[test]
    fn malformed_wire_bytes_quarantine_on_dpu() {
        let (mut client, _server) = stack(PayloadMode::Native);
        // Invalid UTF-8 inside a string field of CharArray: the input is
        // poison, so the typed quarantine error surfaces (not a
        // machinery failure that would count against offload health).
        let bad = [0x0a, 0x02, 0xC0, 0xAF];
        let err = client
            .call_offloaded(3, &bad, Box::new(|_p, _s| {}))
            .unwrap_err();
        assert!(matches!(err, RpcError::Quarantined(_)), "{err:?}");
    }

    #[test]
    fn unknown_procedure_rejected_client_side() {
        let (mut client, _server) = stack(PayloadMode::Native);
        let err = client
            .call_offloaded(77, b"", Box::new(|_p, _s| {}))
            .unwrap_err();
        assert!(matches!(err, RpcError::NoSuchProcedure(77)));
    }

    #[test]
    fn response_payloads_flow_back() {
        let bundle = ServiceSchema::paper_bench();
        let (mut client, mut server) = stack(PayloadMode::Native);
        server.register_native(
            &bundle,
            1,
            Arc::new(|view, out| {
                // Business logic: respond with field `a` as bytes.
                out.extend_from_slice(&view.get_u32(1).unwrap().to_le_bytes());
                0
            }),
        );
        let schema = paper_schema();
        let wire = encode_message(&gen_small(&schema));
        let got = Arc::new(AtomicU64::new(0));
        let g = got.clone();
        client
            .call_offloaded(
                1,
                &wire,
                Box::new(move |payload, status| {
                    assert_eq!(status, 0);
                    g.store(
                        u32::from_le_bytes(payload.try_into().unwrap()) as u64,
                        Ordering::Relaxed,
                    );
                }),
            )
            .unwrap();
        client.rpc().flush().unwrap();
        server.event_loop(Duration::ZERO).unwrap();
        client.event_loop(Duration::ZERO).unwrap();
        assert_eq!(got.load(Ordering::Relaxed), 300);
    }

    #[test]
    fn many_mixed_requests_roundtrip() {
        let bundle = ServiceSchema::paper_bench();
        let (mut client, mut server) = stack(PayloadMode::Native);
        let small_n = Arc::new(AtomicU64::new(0));
        let ints_n = Arc::new(AtomicU64::new(0));
        {
            let c = small_n.clone();
            server.register_native(
                &bundle,
                1,
                Arc::new(move |_v, _o| {
                    c.fetch_add(1, Ordering::Relaxed);
                    0
                }),
            );
            let c = ints_n.clone();
            server.register_native(
                &bundle,
                2,
                Arc::new(move |v, _o| {
                    c.fetch_add(v.get_repeated(1).unwrap().len() as u64, Ordering::Relaxed);
                    0
                }),
            );
        }
        let schema = paper_schema();
        let mut rng = pbo_protowire::workloads::Mt19937::new(3);
        let small_wire = encode_message(&gen_small(&schema));
        let done = Arc::new(AtomicU64::new(0));
        for i in 0..200 {
            let d = done.clone();
            let cont: pbo_rpcrdma::client::Continuation = Box::new(move |_p, s| {
                assert_eq!(s, 0);
                d.fetch_add(1, Ordering::Relaxed);
            });
            if i % 4 == 0 {
                let msg = pbo_protowire::workloads::gen_int_array(&schema, &mut rng, 32);
                client
                    .call_offloaded(2, &encode_message(&msg), cont)
                    .unwrap();
            } else {
                client.call_offloaded(1, &small_wire, cont).unwrap();
            }
            // Drive both loops periodically to recycle ids/credits.
            if i % 50 == 49 {
                client.rpc().flush().unwrap();
                server.event_loop(Duration::ZERO).unwrap();
                client.event_loop(Duration::ZERO).unwrap();
            }
        }
        client.rpc().flush().unwrap();
        server.event_loop(Duration::ZERO).unwrap();
        client.event_loop(Duration::ZERO).unwrap();
        assert_eq!(done.load(Ordering::Relaxed), 200);
        assert_eq!(small_n.load(Ordering::Relaxed), 150);
        assert_eq!(ints_n.load(Ordering::Relaxed), 50 * 32);
    }

    #[test]
    fn degradable_md_routes_per_request_mode_byte() {
        let bundle = ServiceSchema::paper_bench();
        let (mut client, mut server) = stack(PayloadMode::Native);
        let registry = Arc::new(Registry::new());
        server.bind_tenant_metrics(&registry);
        let seen = Arc::new(AtomicU64::new(0));
        let s2 = seen.clone();
        server.register_degradable(
            &bundle,
            1,
            Arc::new(move |md, view, _out| {
                // Same typed view on both routes; tenant decoded from the
                // bytes after the mode byte.
                assert_eq!(view.get_u32(1).unwrap(), 300);
                assert!(!md.tenant().is_empty());
                s2.fetch_add(1, Ordering::Relaxed);
                0
            }),
        );
        let schema = paper_schema();
        let wire = encode_message(&gen_small(&schema));
        let mut md_a = pbo_grpc::Metadata::new();
        md_a.insert(pbo_grpc::TENANT_KEY, "alpha");
        let mut md_b = pbo_grpc::Metadata::new();
        md_b.insert(pbo_grpc::TENANT_KEY, "beta");

        // One call per route over the same connection.
        client
            .call_offloaded_md(
                1,
                &wire,
                &routed_metadata(MODE_NATIVE, &md_a.encode()),
                Box::new(|_p, s| assert_eq!(s, 0)),
            )
            .unwrap();
        client
            .call_forwarded_md(
                1,
                &wire,
                &routed_metadata(MODE_SERIALIZED, &md_b.encode()),
                Box::new(|_p, s| assert_eq!(s, 0)),
            )
            .unwrap();
        client.rpc().flush().unwrap();
        server.event_loop(Duration::ZERO).unwrap();
        client.event_loop(Duration::ZERO).unwrap();
        assert_eq!(seen.load(Ordering::Relaxed), 2);
        assert_eq!(
            registry.counter_value("host_dispatch_total", &[("tenant", "alpha")]),
            Some(1)
        );
        assert_eq!(
            registry.counter_value("host_dispatch_total", &[("tenant", "beta")]),
            Some(1)
        );
    }
}
