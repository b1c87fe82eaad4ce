//! End-to-end datapath tracing for the offload RPC pipeline.
//!
//! A [`Tracer`] hands out per-thread ring-buffered [`SpanSink`]s and a
//! per-connection [`ConnTracer`] whose request identities — and therefore
//! 1-in-N sampling decisions — are identical on both ends of a connection
//! without any id bytes on the wire, by mirroring the datapath's
//! deterministic request-id synchronization (paper §IV.D).
//!
//! Spans cover the full offload path: protocol termination on the DPU,
//! deserialize-into-native-layout, block build, credit wait, RDMA
//! write-with-immediate, PCIe DMA, host dispatch, response build, and
//! the client-visible response wait (see [`stages`]). Collected spans
//! export as Chrome trace-event JSON ([`chrome_trace_json`], loadable in
//! Perfetto) or as per-stage summaries ([`stage_stats`]), and optionally
//! feed per-stage latency histograms into a
//! `pbo-metrics` [`pbo_metrics::Registry`].
//!
//! Simulation backends stamp spans from a [`VirtualClock`] so wall-clock
//! runs and discrete-event runs produce the same span stream shape.
//!
//! Sampling defaults to off; a disabled tracer costs one branch per
//! instrumentation site.

mod attrib;
mod clock;
mod export;
mod flight;
mod span;
mod tail;
mod tracer;

pub use attrib::{
    critical_path, AttribConfig, AttribSummary, AttributionEngine, ConnAttrib, CriticalPath,
    KeptTrace, StageAttrib, StageBudgets, UNATTRIBUTED, UNTRACKED,
};
pub use clock::{Clock, VirtualClock};
pub use export::{chrome_trace_json, stage_stats, StageStats, TraceProcess};
pub use flight::{triggers, FlightDump, FlightRecord, FlightRecorder};
pub use span::{stages, Span, SpanSink};
pub use tail::{TailConfig, TailDecision, TailSampler, TailStats};
pub use tracer::{ConnTracer, MsgCtx, TraceConfig, Tracer, STAGE_HISTOGRAM_METRIC};
