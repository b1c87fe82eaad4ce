//! Protocol Buffer deserialization DPU offloading in the RPC datapath.
//!
//! This crate is the paper's primary contribution assembled from the
//! substrate crates: the complete offload engine that moves the RPC
//! server — connection termination *and* protobuf deserialization — off
//! the host CPU onto the DPU, leaving the host to run business logic over
//! already-built native objects.
//!
//! Pipeline (Figure 1):
//!
//! ```text
//! xRPC client ──TCP──▶ DPU (xRPC terminator)          HOST
//!                        │  parse wire bytes            │
//!                        │  deserialize IN PLACE into   │
//!                        │  the mirrored send buffer,   │
//!                        │  crafting host pointers      │
//!                        ├──RDMA write-with-immediate──▶│ business logic reads
//!                        │                              │ native objects, zero
//!                        ◀───────── response ───────────┤ deserialization work
//! xRPC client ◀──TCP── DPU forwards response
//! ```
//!
//! Main types:
//!
//! * [`ServiceSchema`] — a protobuf schema + service descriptor bundle
//!   with its generated [`pbo_adt::Adt`] (the `protoc`-plugin analogue).
//! * [`OffloadClient`] — the DPU-side engine: wraps an
//!   [`pbo_rpcrdma::RpcClient`] and deserializes each xRPC request
//!   straight into the outgoing block with the ADT writer
//!   ([`OffloadClient::call_offloaded`]); the baseline forwarding mode
//!   ([`OffloadClient::call_forwarded`]) ships the serialized bytes
//!   unchanged for host-side deserialization.
//! * [`CompatServer`] — the host-side gRPC compatibility layer: service
//!   handlers keep a gRPC-like signature but receive a typed, zero-copy
//!   [`pbo_adt::NativeObject`] (offloaded mode) or deserialize locally
//!   with the same custom stack deserializer (baseline mode).
//! * [`XrpcTerminator`] — runs the gRPC-like server on the DPU and
//!   bridges its connection threads to the single-owner RPC-over-RDMA
//!   poller ("each thread listens asynchronously to the gRPC API calls.
//!   When intercepted, the request is deserialized and triggers the
//!   corresponding RPC over RDMA procedure", §V.D).
//! * [`datapath`] — measured-mode scenario runners producing the raw
//!   numbers behind Figure 8 at container scale.

#![warn(missing_docs)]

pub mod alloc_track;
pub mod compat;
pub mod crashlab;
pub mod datapath;
mod failover;
pub mod offload;
pub mod precedence;
pub mod serialize;
pub mod service;
pub mod session;
pub mod terminator;

pub use alloc_track::{AllocStats, CountingAllocator, ALLOC_TRACKER};
pub use compat::{
    routed_metadata, CompatServer, HostDirect, MODE_NATIVE, MODE_SERIALIZED, STATUS_QUARANTINED,
};
pub use crashlab::{CrashLab, CrashOutcome, CrashStage, RecoveryPhase};
pub use datapath::{
    run_scenario, run_scenario_monitored, run_scenario_traced, run_scenario_traced_on,
    MeasuredStats, ScenarioConfig, ScenarioKind,
};
pub use offload::OffloadClient;
pub use pbo_cache::{CacheConfig, CacheSnapshot, ResponseCache, StoreOutcome, TenantCacheStats};
pub use pbo_sched::{SchedConfig, ShedReason, TenantScheduler, TenantSpec, STATUS_SHED};
pub use serialize::{serialize_view, SerializeError};
pub use service::ServiceSchema;
pub use session::{CircuitBreaker, ResilientSession, SessionConfig, SessionLayers};
pub use terminator::{ForwardMode, ForwardRequest, HaConfig, HaLayer, Layers, XrpcTerminator};
