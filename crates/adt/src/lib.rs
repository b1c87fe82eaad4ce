//! The Accelerator Description Table (ADT) and native-object machinery.
//!
//! §V of the paper: the DPU deserializes protobuf messages *directly into
//! the host's native C++ object layout*, so the host application reads an
//! already-built object. Doing that requires three pieces, all reproduced
//! here:
//!
//! 1. **A layout engine** ([`layout`]) that computes, per message class,
//!    exactly what the host compiler would: a leading vptr word (the paper
//!    copies default-instance bytes so the vptr is valid; our "vptr" is the
//!    class id, serving the same role of runtime type identity), a
//!    presence bitfield, then fields in declaration order with natural
//!    sizes/alignments — `sizeof`, `alignof` and `offsetof` agreement being
//!    precisely the paper's binary-compatibility condition (§V.A).
//!    Strings are 32-byte libstdc++ `std::string`s with small-string
//!    optimization (§V.C, Fig 6); a 24-byte simplified libc++ layout is
//!    also provided since the paper discusses supporting it. Repeated
//!    fields are `std::vector` triples (begin/end/cap pointers).
//! 2. **The ADT itself** ([`table`]): per-class metadata — default
//!    instance bytes, field offsets, field types, child-class links —
//!    generated from message descriptors (standing in for the paper's
//!    `protoc` plugin emitting `.adt.pb.{h,cc}`), serialized into a compact
//!    wire form, transmitted host→DPU once, and guarded by an ABI hash.
//! 3. **The arena writer** ([`writer`]) — the DPU-side half of the custom
//!    deserializer: a [`pbo_protowire::FieldSink`] that materializes native
//!    objects inside a block's arena, crafting *host* pointers against the
//!    mirrored receive buffer's base address (shared address space, §III.B)
//!    — and **the host-side view** ([`view`]), bounds-checked typed
//!    accessors over a received object.
//!
//! `unsafe` appears only in [`view`] (reading objects through the raw host
//! addresses the protocol traffics in); everything else is plain byte
//! manipulation.

#![warn(missing_docs)]

pub mod builder;
pub mod layout;
pub mod sso;
pub mod table;
pub mod view;
pub mod writer;

pub use builder::{BuildError, NativeBuilder};
pub use layout::{FieldMeta, MessageMeta, NativeFieldKind, PRESENCE_OFFSET, VPTR_SIZE};
pub use sso::StdLib;
pub use table::{Adt, AdtError};
pub use view::{NativeObject, RepeatedView, ViewError};
pub use writer::{NativeWriter, WriterConfig};
