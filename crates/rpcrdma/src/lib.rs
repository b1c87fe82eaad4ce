//! The RPC-over-RDMA protocol (§III–§IV of the paper).
//!
//! A format-agnostic RPC transport between an *RPC-over-RDMA client* (the
//! DPU, which terminates the external xRPC protocol) and an *RPC-over-RDMA
//! server* (the host, which runs the business logic). The design goal is to
//! move every byte of serialization work to the client side: the client
//! writes fully materialized payloads into a send buffer that **mirrors**
//! the server's receive buffer, so the server reads them in place —
//! including any internal pointers, which are crafted against the server's
//! address space (§III.B).
//!
//! Protocol mechanics, all reproduced from §IV:
//!
//! * **Blocks** — messages are batched Nagle-style into blocks allocated
//!   from the send buffer at 1024-byte alignment, shipped by one RDMA
//!   write-with-immediate whose 4-byte immediate carries the *bucket*
//!   (`offset = bucket × 1024`). A block is `[preamble][header payload]…`
//!   with 8-byte alignment throughout for zero-copy processing.
//! * **Dynamic block allocation** — out-of-order RPC completion means "a
//!   future request can outlive a past one", so blocks come from a
//!   best-fit offset allocator ([`pbo_alloc::OffsetAllocator`]), not a
//!   ring.
//! * **Implicit acknowledgments** — the server acknowledges request blocks
//!   by responding; the client acknowledges response blocks with a counter
//!   piggybacked in the next request block's preamble (§IV.B). Acks
//!   recycle block memory and replenish **credits** (§IV.C), which bound
//!   the blocks in flight and provably keep the receive queue and
//!   completion queue from overflowing.
//! * **Request-ID synchronization** — request IDs are never transmitted
//!   (§IV.D). Both sides hold identical FIFO pools and replay the same
//!   free-then-allocate sequence per block, keyed by the piggybacked ack
//!   counter, over the in-order reliable connection.
//!
//! The crate is format-agnostic: payloads are opaque byte regions written
//! through a caller closure that receives the destination slice *and the
//! host address it will occupy* — exactly the hook `pbo-core` uses to run
//! the ADT native-object writer, and exactly what makes the protocol
//! reusable for other serialization formats (contribution ① of the paper).

#![warn(missing_docs)]

pub mod background;
pub mod client;
pub mod config;
pub mod credit;
pub mod error;
pub mod integrity;
pub mod lease;
pub mod poller;
pub mod retry;
pub mod server;
pub mod setup;
pub mod wire;

pub use background::{BackgroundHandler, OwnedRequest};
pub use client::{ClientMetricsSnapshot, RpcClient};
pub use config::{Config, PAPER_BLOCK_SIZE, PAPER_CREDITS};
pub use credit::{CreditObserver, NullCreditObserver, SharedCreditObserver};
pub use error::{classify_qp, RetryClass, RpcError};
pub use integrity::{crc32c, INTEGRITY_NACK};
pub use lease::{Heartbeat, LeaseConfig, LeaseMonitor, LeaseState};
pub use poller::ServerPoller;
pub use retry::RetryPolicy;
pub use server::{
    NativeResponse, Request, ResponseSink, RpcServer, ServerMetricsSnapshot, WriterHandler,
};
pub use setup::{establish, establish_group, try_establish, Endpoints};
pub use wire::{BlockHeaderIter, Header, Preamble, BLOCK_ALIGN, HEADER_SIZE, PREAMBLE_SIZE};
