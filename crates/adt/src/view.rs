//! Host-side typed access to received native objects.
//!
//! After the DMA write lands, the host holds an object graph whose internal
//! pointers are *host virtual addresses* into the receive buffer (§III.B).
//! A C++ application would reinterpret-cast and go; the Rust reproduction
//! wraps the same raw-address arithmetic in [`NativeObject`], which
//! validates every dereference against the receive-buffer bounds — so a
//! corrupted or malicious block cannot read outside the pinned region.
//!
//! This is the *only* module in the crate with `unsafe` code, and every
//! raw read is preceded by a range check against the region.

use crate::layout::{ClassId, FieldMeta, MessageMeta, NativeFieldKind, NativeScalar, VEC_SIZE};
use crate::sso::Loc;
use crate::table::Adt;

/// Errors raised by view accessors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ViewError {
    /// A pointer or range fell outside the receive region.
    OutOfRegion {
        /// Offending address.
        addr: u64,
        /// Length requested.
        len: u64,
    },
    /// The object's vptr word names a different class than expected.
    WrongClass {
        /// Class the caller expected.
        expected: ClassId,
        /// Class id found in the object header.
        found: u64,
    },
    /// The field number does not exist in this class.
    NoSuchField(u32),
    /// The field exists but has a different native kind.
    TypeMismatch {
        /// Field number.
        field: u32,
        /// What the accessor wanted.
        wanted: &'static str,
    },
    /// A string field's bytes are not valid UTF-8.
    BadUtf8,
    /// A vector header is inconsistent (end < begin, or length not a
    /// multiple of the element size).
    BadVector,
}

impl std::fmt::Display for ViewError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViewError::OutOfRegion { addr, len } => {
                write!(f, "pointer {addr:#x}+{len} outside receive region")
            }
            ViewError::WrongClass { expected, found } => {
                write!(f, "object class {found} where {expected} expected")
            }
            ViewError::NoSuchField(n) => write!(f, "no field {n}"),
            ViewError::TypeMismatch { field, wanted } => {
                write!(f, "field {field} is not {wanted}")
            }
            ViewError::BadUtf8 => write!(f, "string field is not UTF-8"),
            ViewError::BadVector => write!(f, "corrupt vector header"),
        }
    }
}

impl std::error::Error for ViewError {}

/// The memory window all pointers must fall inside.
#[derive(Clone, Copy, Debug)]
struct Region {
    base: u64,
    len: u64,
}

impl Region {
    fn check(&self, addr: u64, len: u64) -> Result<(), ViewError> {
        let end = addr
            .checked_add(len)
            .ok_or(ViewError::OutOfRegion { addr, len })?;
        if addr >= self.base && end <= self.base + self.len {
            Ok(())
        } else {
            Err(ViewError::OutOfRegion { addr, len })
        }
    }
}

/// A typed, bounds-checked view of one native object.
#[derive(Clone, Copy)]
pub struct NativeObject<'a> {
    adt: &'a Adt,
    meta: &'a MessageMeta,
    addr: u64,
    region: Region,
}

impl<'a> NativeObject<'a> {
    /// Creates a view over an object of class `class_id` living at byte
    /// `offset` of `region` (typically the receive buffer, or a test
    /// arena). Verifies the object fits and its vptr word matches.
    pub fn from_slice(
        adt: &'a Adt,
        class_id: ClassId,
        region: &'a [u8],
        offset: usize,
    ) -> Result<Self, ViewError> {
        let base = region.as_ptr() as u64;
        Self::from_addr(
            adt,
            class_id,
            base + offset as u64,
            base,
            region.len() as u64,
        )
    }

    /// Creates a view from raw coordinates: the object's host address and
    /// the bounds of the memory it (and everything it points to) must live
    /// in. Safe because every subsequent read re-validates against the
    /// region; the *caller* asserts the region `[region_base,
    /// region_base+region_len)` is valid memory it owns, which is enforced
    /// by taking it from a live allocation in [`NativeObject::from_slice`].
    pub fn from_addr(
        adt: &'a Adt,
        class_id: ClassId,
        addr: u64,
        region_base: u64,
        region_len: u64,
    ) -> Result<Self, ViewError> {
        let meta = adt.class(class_id).map_err(|_| ViewError::WrongClass {
            expected: class_id,
            found: u64::MAX,
        })?;
        let region = Region {
            base: region_base,
            len: region_len,
        };
        region.check(addr, meta.size as u64)?;
        let view = Self {
            adt,
            meta,
            addr,
            region,
        };
        let vptr = view.load_u64(addr)?;
        if vptr != class_id as u64 {
            return Err(ViewError::WrongClass {
                expected: class_id,
                found: vptr,
            });
        }
        Ok(view)
    }

    /// The object's class metadata.
    pub fn meta(&self) -> &MessageMeta {
        self.meta
    }

    /// The object's host address.
    pub fn addr(&self) -> u64 {
        self.addr
    }

    fn load_bytes(&self, addr: u64, len: u64) -> Result<&'a [u8], ViewError> {
        self.region.check(addr, len)?;
        // SAFETY: the range is inside the caller-supplied live region.
        Ok(unsafe { std::slice::from_raw_parts(addr as *const u8, len as usize) })
    }

    fn load_u64(&self, addr: u64) -> Result<u64, ViewError> {
        let b = self.load_bytes(addr, 8)?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn field(&self, number: u32) -> Result<&'a FieldMeta, ViewError> {
        // meta borrows from the Adt with lifetime 'a.
        self.meta
            .field(number)
            .ok_or(ViewError::NoSuchField(number))
    }

    fn scalar_slot(
        &self,
        number: u32,
        want: NativeScalar,
        name: &'static str,
    ) -> Result<u64, ViewError> {
        let f = self.field(number)?;
        match f.kind {
            NativeFieldKind::Scalar(s) if s == want => Ok(self.addr + f.offset as u64),
            _ => Err(ViewError::TypeMismatch {
                field: number,
                wanted: name,
            }),
        }
    }

    /// Whether an explicit-presence field is set.
    pub fn has(&self, number: u32) -> Result<bool, ViewError> {
        let f = self.field(number)?;
        match f.presence_bit {
            None => Err(ViewError::TypeMismatch {
                field: number,
                wanted: "a field with explicit presence",
            }),
            Some(bit) => {
                let byte_addr =
                    self.addr + crate::layout::PRESENCE_OFFSET as u64 + (bit / 8) as u64;
                let b = self.load_bytes(byte_addr, 1)?[0];
                Ok(b & (1 << (bit % 8)) != 0)
            }
        }
    }

    /// Reads a `uint32`/`fixed32` field.
    pub fn get_u32(&self, number: u32) -> Result<u32, ViewError> {
        let a = self.scalar_slot(number, NativeScalar::U32, "u32")?;
        Ok(u32::from_le_bytes(
            self.load_bytes(a, 4)?.try_into().unwrap(),
        ))
    }

    /// Reads an `int32`/`sint32`/`sfixed32`/enum field.
    pub fn get_i32(&self, number: u32) -> Result<i32, ViewError> {
        let a = self.scalar_slot(number, NativeScalar::I32, "i32")?;
        Ok(i32::from_le_bytes(
            self.load_bytes(a, 4)?.try_into().unwrap(),
        ))
    }

    /// Reads a `uint64`/`fixed64` field.
    pub fn get_u64(&self, number: u32) -> Result<u64, ViewError> {
        let a = self.scalar_slot(number, NativeScalar::U64, "u64")?;
        self.load_u64(a)
    }

    /// Reads an `int64`/`sint64`/`sfixed64` field.
    pub fn get_i64(&self, number: u32) -> Result<i64, ViewError> {
        let a = self.scalar_slot(number, NativeScalar::I64, "i64")?;
        Ok(self.load_u64(a)? as i64)
    }

    /// Reads a `float` field.
    pub fn get_f32(&self, number: u32) -> Result<f32, ViewError> {
        let a = self.scalar_slot(number, NativeScalar::F32, "f32")?;
        Ok(f32::from_le_bytes(
            self.load_bytes(a, 4)?.try_into().unwrap(),
        ))
    }

    /// Reads a `double` field.
    pub fn get_f64(&self, number: u32) -> Result<f64, ViewError> {
        let a = self.scalar_slot(number, NativeScalar::F64, "f64")?;
        Ok(f64::from_le_bytes(
            self.load_bytes(a, 8)?.try_into().unwrap(),
        ))
    }

    /// Reads a `bool` field.
    pub fn get_bool(&self, number: u32) -> Result<bool, ViewError> {
        let a = self.scalar_slot(number, NativeScalar::Bool, "bool")?;
        Ok(self.load_bytes(a, 1)?[0] != 0)
    }

    fn string_at(&self, struct_addr: u64) -> Result<&'a [u8], ViewError> {
        let lib = self.adt.stdlib();
        let ssize = lib.string_size() as u64;
        let struct_bytes = self.load_bytes(struct_addr, ssize)?;
        let (len, loc) = lib.read_string(struct_bytes, struct_addr);
        match loc {
            Loc::Inline { offset } => {
                if len > lib.sso_capacity() {
                    return Err(ViewError::BadVector);
                }
                Ok(&struct_bytes[offset..offset + len])
            }
            Loc::Heap { addr } => self.load_bytes(addr, len as u64),
        }
    }

    /// Reads a `bytes` (or `string`) field's raw bytes — zero-copy.
    pub fn get_bytes(&self, number: u32) -> Result<&'a [u8], ViewError> {
        let f = self.field(number)?;
        if f.kind != NativeFieldKind::Str {
            return Err(ViewError::TypeMismatch {
                field: number,
                wanted: "string/bytes",
            });
        }
        self.string_at(self.addr + f.offset as u64)
    }

    /// Reads a `string` field — zero-copy `&str`.
    pub fn get_str(&self, number: u32) -> Result<&'a str, ViewError> {
        let bytes = self.get_bytes(number)?;
        std::str::from_utf8(bytes).map_err(|_| ViewError::BadUtf8)
    }

    /// Reads a singular nested message; `None` when unset (null pointer).
    pub fn get_message(&self, number: u32) -> Result<Option<NativeObject<'a>>, ViewError> {
        let f = self.field(number)?;
        let NativeFieldKind::MessagePtr(child) = f.kind else {
            return Err(ViewError::TypeMismatch {
                field: number,
                wanted: "message",
            });
        };
        let ptr = self.load_u64(self.addr + f.offset as u64)?;
        if ptr == 0 {
            return Ok(None);
        }
        NativeObject::from_addr(self.adt, child, ptr, self.region.base, self.region.len).map(Some)
    }

    /// Opens a repeated field.
    pub fn get_repeated(&self, number: u32) -> Result<RepeatedView<'a>, ViewError> {
        let f = self.field(number)?;
        let (elem_size, kind) = match f.kind {
            NativeFieldKind::RepScalar(s) => (s.size() as u64, RepKind::Scalar(s)),
            NativeFieldKind::RepStr => (self.adt.stdlib().string_size() as u64, RepKind::Str),
            NativeFieldKind::RepMessage(c) => (8, RepKind::Message(c)),
            _ => {
                return Err(ViewError::TypeMismatch {
                    field: number,
                    wanted: "repeated",
                })
            }
        };
        let slot = self.addr + f.offset as u64;
        let hdr = self.load_bytes(slot, VEC_SIZE as u64)?;
        let begin = u64::from_le_bytes(hdr[0..8].try_into().unwrap());
        let end = u64::from_le_bytes(hdr[8..16].try_into().unwrap());
        if end < begin || (end - begin) % elem_size != 0 {
            return Err(ViewError::BadVector);
        }
        let len = ((end - begin) / elem_size) as usize;
        if len > 0 {
            self.region.check(begin, end - begin)?;
        }
        Ok(RepeatedView {
            parent: *self,
            begin,
            len,
            elem_size,
            kind,
        })
    }
}

#[derive(Clone, Copy)]
enum RepKind {
    Scalar(NativeScalar),
    Str,
    Message(ClassId),
}

/// A repeated field's elements.
#[derive(Clone, Copy)]
pub struct RepeatedView<'a> {
    parent: NativeObject<'a>,
    begin: u64,
    len: usize,
    elem_size: u64,
    kind: RepKind,
}

impl<'a> RepeatedView<'a> {
    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn elem_addr(&self, i: usize) -> Result<u64, ViewError> {
        if i >= self.len {
            return Err(ViewError::OutOfRegion {
                addr: self.begin + i as u64 * self.elem_size,
                len: self.elem_size,
            });
        }
        Ok(self.begin + i as u64 * self.elem_size)
    }

    fn want(&self, ok: bool, wanted: &'static str) -> Result<(), ViewError> {
        if ok {
            Ok(())
        } else {
            Err(ViewError::TypeMismatch { field: 0, wanted })
        }
    }

    /// Reads element `i` as `u32`.
    pub fn u32_at(&self, i: usize) -> Result<u32, ViewError> {
        self.want(
            matches!(self.kind, RepKind::Scalar(NativeScalar::U32)),
            "u32",
        )?;
        let b = self.parent.load_bytes(self.elem_addr(i)?, 4)?;
        Ok(u32::from_le_bytes(b.try_into().unwrap()))
    }

    /// Reads element `i` as `u64`.
    pub fn u64_at(&self, i: usize) -> Result<u64, ViewError> {
        self.want(
            matches!(self.kind, RepKind::Scalar(NativeScalar::U64)),
            "u64",
        )?;
        let b = self.parent.load_bytes(self.elem_addr(i)?, 8)?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Reads element `i` as `i64`.
    pub fn i64_at(&self, i: usize) -> Result<i64, ViewError> {
        self.want(
            matches!(self.kind, RepKind::Scalar(NativeScalar::I64)),
            "i64",
        )?;
        let b = self.parent.load_bytes(self.elem_addr(i)?, 8)?;
        Ok(i64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Reads element `i` as `i32`.
    pub fn i32_at(&self, i: usize) -> Result<i32, ViewError> {
        self.want(
            matches!(self.kind, RepKind::Scalar(NativeScalar::I32)),
            "i32",
        )?;
        let b = self.parent.load_bytes(self.elem_addr(i)?, 4)?;
        Ok(i32::from_le_bytes(b.try_into().unwrap()))
    }

    /// Reads element `i` as `f64`.
    pub fn f64_at(&self, i: usize) -> Result<f64, ViewError> {
        self.want(
            matches!(self.kind, RepKind::Scalar(NativeScalar::F64)),
            "f64",
        )?;
        let b = self.parent.load_bytes(self.elem_addr(i)?, 8)?;
        Ok(f64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Reads element `i` as `f32`.
    pub fn f32_at(&self, i: usize) -> Result<f32, ViewError> {
        self.want(
            matches!(self.kind, RepKind::Scalar(NativeScalar::F32)),
            "f32",
        )?;
        let b = self.parent.load_bytes(self.elem_addr(i)?, 4)?;
        Ok(f32::from_le_bytes(b.try_into().unwrap()))
    }

    /// Reads element `i` as `bool`.
    pub fn bool_at(&self, i: usize) -> Result<bool, ViewError> {
        self.want(
            matches!(self.kind, RepKind::Scalar(NativeScalar::Bool)),
            "bool",
        )?;
        let b = self.parent.load_bytes(self.elem_addr(i)?, 1)?;
        Ok(b[0] != 0)
    }

    /// Reads element `i` of a repeated string/bytes field as raw bytes
    /// (no UTF-8 requirement).
    pub fn bytes_at(&self, i: usize) -> Result<&'a [u8], ViewError> {
        self.want(matches!(self.kind, RepKind::Str), "string/bytes")?;
        self.parent.string_at(self.elem_addr(i)?)
    }

    /// Reads element `i` as a string.
    pub fn str_at(&self, i: usize) -> Result<&'a str, ViewError> {
        self.want(matches!(self.kind, RepKind::Str), "string")?;
        let bytes = self.parent.string_at(self.elem_addr(i)?)?;
        std::str::from_utf8(bytes).map_err(|_| ViewError::BadUtf8)
    }

    /// Reads element `i` as a nested message view.
    pub fn message_at(&self, i: usize) -> Result<NativeObject<'a>, ViewError> {
        let RepKind::Message(class) = self.kind else {
            return Err(ViewError::TypeMismatch {
                field: 0,
                wanted: "message",
            });
        };
        let ptr_bytes = self.parent.load_bytes(self.elem_addr(i)?, 8)?;
        let ptr = u64::from_le_bytes(ptr_bytes.try_into().unwrap());
        NativeObject::from_addr(
            self.parent.adt,
            class,
            ptr,
            self.parent.region.base,
            self.parent.region.len,
        )
    }

    /// Borrows the whole array as `&[u32]` when the element type matches
    /// and the data is suitably aligned — the true zero-copy path.
    pub fn as_u32_slice(&self) -> Result<&'a [u32], ViewError> {
        self.want(
            matches!(self.kind, RepKind::Scalar(NativeScalar::U32)),
            "u32",
        )?;
        if self.len == 0 {
            return Ok(&[]);
        }
        self.parent.region.check(self.begin, self.len as u64 * 4)?;
        if !self.begin.is_multiple_of(4) {
            return Err(ViewError::BadVector);
        }
        // SAFETY: range validated against the live region; alignment
        // checked just above.
        Ok(unsafe { std::slice::from_raw_parts(self.begin as *const u32, self.len) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sso::StdLib;
    use crate::writer::{NativeWriter, WriterConfig};
    use pbo_protowire::workloads::{gen_small, paper_schema};
    use pbo_protowire::{
        encode_message, DynamicMessage, FieldType, Schema, SchemaBuilder, StackDeserializer, Value,
    };

    /// Deserializes `msg` into a fresh arena and opens a view on the root.
    fn build<'a>(
        schema: &Schema,
        adt: &'a Adt,
        msg: &DynamicMessage,
        arena: &'a mut [u8],
    ) -> NativeObject<'a> {
        let wire = encode_message(msg);
        let desc = schema.message(&msg.descriptor().name).unwrap().clone();
        let host_base = arena.as_ptr() as u64;
        assert_eq!(host_base % 8, 0, "test arena must be 8-aligned");
        let mut w = NativeWriter::new(adt, &desc, arena, WriterConfig { host_base }).unwrap();
        StackDeserializer::new(schema)
            .deserialize(&desc, &wire, &mut w)
            .unwrap();
        w.finish().unwrap();
        let class = adt.class_id(&desc.name).unwrap();
        NativeObject::from_slice(adt, class, arena, 0).unwrap()
    }

    /// An 8-aligned test arena: a byte buffer over-allocated by a word,
    /// viewed from its first 8-aligned byte (the same carve-out the host
    /// scratch arena uses), so the storage is freed as what it is.
    struct AlignedArena {
        buf: Vec<u8>,
        skew: usize,
        len: usize,
    }

    impl std::ops::Deref for AlignedArena {
        type Target = [u8];
        fn deref(&self) -> &[u8] {
            &self.buf[self.skew..self.skew + self.len]
        }
    }

    impl std::ops::DerefMut for AlignedArena {
        fn deref_mut(&mut self) -> &mut [u8] {
            &mut self.buf[self.skew..self.skew + self.len]
        }
    }

    fn aligned_arena(len: usize) -> AlignedArena {
        let buf = vec![0u8; len + 7];
        let skew = buf.as_ptr().align_offset(8);
        AlignedArena { buf, skew, len }
    }

    #[test]
    fn small_roundtrip_via_view() {
        let schema = paper_schema();
        let adt = Adt::from_schema(&schema, StdLib::Libstdcxx);
        let msg = gen_small(&schema);
        let mut arena = aligned_arena(4096);
        let v = build(&schema, &adt, &msg, &mut arena);
        assert_eq!(v.get_u32(1).unwrap(), 300);
        assert_eq!(v.get_u32(2).unwrap(), 200);
        assert_eq!(v.get_u64(3).unwrap(), 77);
        assert_eq!(v.get_f32(4).unwrap(), 1.5);
        assert!(v.get_bool(5).unwrap());
    }

    #[test]
    fn string_roundtrips_sso_and_heap() {
        let schema = paper_schema();
        let adt = Adt::from_schema(&schema, StdLib::Libstdcxx);
        for text in ["", "tiny", "exactly15bytes!", &"long".repeat(50)] {
            let mut m = DynamicMessage::of(&schema, "bench.CharArray");
            if !text.is_empty() {
                m.set(1, Value::Str(text.to_string()));
            }
            let mut arena = aligned_arena(4096);
            let v = build(&schema, &adt, &m, &mut arena);
            assert_eq!(v.get_str(1).unwrap(), text);
        }
    }

    #[test]
    fn libcxx_abi_roundtrips_too() {
        let schema = paper_schema();
        let adt = Adt::from_schema(&schema, StdLib::Libcxx);
        for text in ["short", &"x".repeat(22), &"y".repeat(23), &"z".repeat(500)] {
            let mut m = DynamicMessage::of(&schema, "bench.CharArray");
            m.set(1, Value::Str(text.to_string()));
            let mut arena = aligned_arena(4096);
            let v = build(&schema, &adt, &m, &mut arena);
            assert_eq!(v.get_str(1).unwrap(), text);
        }
    }

    #[test]
    fn repeated_u32_zero_copy_slice() {
        let schema = paper_schema();
        let adt = Adt::from_schema(&schema, StdLib::Libstdcxx);
        let mut m = DynamicMessage::of(&schema, "bench.IntArray");
        let vals: Vec<u32> = (0..512u32)
            .map(|i| i.wrapping_mul(2654435761) % 100000)
            .collect();
        for &x in &vals {
            m.push(1, Value::U64(x as u64));
        }
        let mut arena = aligned_arena(1 << 14);
        let v = build(&schema, &adt, &m, &mut arena);
        let rep = v.get_repeated(1).unwrap();
        assert_eq!(rep.len(), 512);
        assert_eq!(rep.u32_at(0).unwrap(), vals[0]);
        assert_eq!(rep.u32_at(511).unwrap(), vals[511]);
        assert_eq!(rep.as_u32_slice().unwrap(), &vals[..]);
    }

    #[test]
    fn nested_and_repeated_messages() {
        let mut b = SchemaBuilder::new();
        b.message("Leaf")
            .scalar("x", 1, FieldType::SInt64)
            .scalar("tag", 2, FieldType::String)
            .finish();
        b.message("Root")
            .message_field("one", 1, "Leaf")
            .repeated_message("many", 2, "Leaf")
            .scalar("d", 3, FieldType::Double)
            .finish();
        let schema = b.build();
        let adt = Adt::from_schema(&schema, StdLib::Libstdcxx);

        let mut leaf = DynamicMessage::of(&schema, "Leaf");
        leaf.set(1, Value::I64(-5));
        leaf.set(2, Value::Str("λ".into()));
        let mut root = DynamicMessage::of(&schema, "Root");
        root.set(1, Value::Message(Box::new(leaf.clone())));
        for i in 0..3i64 {
            let mut l = DynamicMessage::of(&schema, "Leaf");
            l.set(1, Value::I64(i * 100));
            root.push(2, Value::Message(Box::new(l)));
        }
        root.set(3, Value::F64(2.75));

        let mut arena = aligned_arena(8192);
        let v = build(&schema, &adt, &root, &mut arena);
        assert_eq!(v.get_f64(3).unwrap(), 2.75);
        let one = v.get_message(1).unwrap().expect("present");
        assert!(v.has(1).unwrap());
        assert_eq!(one.get_i64(1).unwrap(), -5);
        assert_eq!(one.get_str(2).unwrap(), "λ");
        let many = v.get_repeated(2).unwrap();
        assert_eq!(many.len(), 3);
        for i in 0..3 {
            assert_eq!(
                many.message_at(i).unwrap().get_i64(1).unwrap(),
                i as i64 * 100
            );
        }
    }

    #[test]
    fn absent_message_is_none() {
        let mut b = SchemaBuilder::new();
        b.message("Leaf").scalar("x", 1, FieldType::Int32).finish();
        b.message("Root").message_field("one", 1, "Leaf").finish();
        let schema = b.build();
        let adt = Adt::from_schema(&schema, StdLib::Libstdcxx);
        let root = DynamicMessage::of(&schema, "Root");
        let mut arena = aligned_arena(1024);
        let v = build(&schema, &adt, &root, &mut arena);
        assert!(v.get_message(1).unwrap().is_none());
        assert!(!v.has(1).unwrap());
    }

    #[test]
    fn repeated_strings_mixed_sso_heap() {
        let mut b = SchemaBuilder::new();
        b.message("M")
            .repeated("names", 1, FieldType::String)
            .finish();
        let schema = b.build();
        let adt = Adt::from_schema(&schema, StdLib::Libstdcxx);
        let inputs = ["a", &"b".repeat(40), "", "fifteen-exactly", &"c".repeat(16)];
        let mut m = DynamicMessage::of(&schema, "M");
        for s in inputs {
            m.push(1, Value::Str(s.to_string()));
        }
        let mut arena = aligned_arena(8192);
        let v = build(&schema, &adt, &m, &mut arena);
        let rep = v.get_repeated(1).unwrap();
        assert_eq!(rep.len(), inputs.len());
        for (i, s) in inputs.iter().enumerate() {
            assert_eq!(rep.str_at(i).unwrap(), *s);
        }
    }

    #[test]
    fn out_of_region_pointer_rejected() {
        let schema = paper_schema();
        let adt = Adt::from_schema(&schema, StdLib::Libstdcxx);
        let mut m = DynamicMessage::of(&schema, "bench.CharArray");
        m.set(1, Value::Str("long enough to be heap-allocated".into()));
        let mut arena = aligned_arena(4096);
        {
            let v = build(&schema, &adt, &m, &mut arena);
            assert!(v.get_str(1).is_ok());
        }
        // Corrupt the heap pointer to point far outside the region.
        arena[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        let class = adt.class_id("bench.CharArray").unwrap();
        let v = NativeObject::from_slice(&adt, class, &arena, 0).unwrap();
        assert!(matches!(v.get_str(1), Err(ViewError::OutOfRegion { .. })));
    }

    #[test]
    fn wrong_class_header_rejected() {
        let schema = paper_schema();
        let adt = Adt::from_schema(&schema, StdLib::Libstdcxx);
        let msg = gen_small(&schema);
        let mut arena = aligned_arena(4096);
        {
            build(&schema, &adt, &msg, &mut arena);
        }
        arena[0..8].copy_from_slice(&999u64.to_le_bytes());
        let class = adt.class_id("bench.Small").unwrap();
        assert!(matches!(
            NativeObject::from_slice(&adt, class, &arena, 0),
            Err(ViewError::WrongClass { found: 999, .. })
        ));
    }

    #[test]
    fn type_mismatch_and_missing_field_errors() {
        let schema = paper_schema();
        let adt = Adt::from_schema(&schema, StdLib::Libstdcxx);
        let msg = gen_small(&schema);
        let mut arena = aligned_arena(4096);
        let v = build(&schema, &adt, &msg, &mut arena);
        assert!(matches!(v.get_str(1), Err(ViewError::TypeMismatch { .. })));
        assert!(matches!(v.get_u64(1), Err(ViewError::TypeMismatch { .. })));
        assert!(matches!(v.get_u32(99), Err(ViewError::NoSuchField(99))));
    }

    #[test]
    fn unaligned_vector_data_rejected_by_slice_accessor() {
        let schema = paper_schema();
        let adt = Adt::from_schema(&schema, StdLib::Libstdcxx);
        let mut m = DynamicMessage::of(&schema, "bench.IntArray");
        m.push(1, Value::U64(1));
        m.push(1, Value::U64(2));
        let mut arena = aligned_arena(4096);
        {
            build(&schema, &adt, &m, &mut arena);
        }
        // Skew the begin pointer by 2: element getters still work (they
        // read unaligned), but the zero-copy &[u32] borrow must refuse.
        let begin = u64::from_le_bytes(arena[16..24].try_into().unwrap());
        let end = u64::from_le_bytes(arena[24..32].try_into().unwrap());
        arena[16..24].copy_from_slice(&(begin + 2).to_le_bytes());
        arena[24..32].copy_from_slice(&(end + 2).to_le_bytes());
        let class = adt.class_id("bench.IntArray").unwrap();
        let v = NativeObject::from_slice(&adt, class, &arena, 0).unwrap();
        let rep = v.get_repeated(1).unwrap();
        assert_eq!(rep.len(), 2);
        assert!(matches!(rep.as_u32_slice(), Err(ViewError::BadVector)));
    }

    #[test]
    fn corrupt_vector_header_rejected() {
        let schema = paper_schema();
        let adt = Adt::from_schema(&schema, StdLib::Libstdcxx);
        let mut m = DynamicMessage::of(&schema, "bench.IntArray");
        m.push(1, Value::U64(1));
        let mut arena = aligned_arena(4096);
        {
            build(&schema, &adt, &m, &mut arena);
        }
        // end < begin
        let begin = u64::from_le_bytes(arena[16..24].try_into().unwrap());
        arena[24..32].copy_from_slice(&(begin - 4).to_le_bytes());
        let class = adt.class_id("bench.IntArray").unwrap();
        let v = NativeObject::from_slice(&adt, class, &arena, 0).unwrap();
        assert!(matches!(
            v.get_repeated(1).err(),
            Some(ViewError::BadVector)
        ));
    }
}
