//! Output checks: the host-side business logic the benchmark registers.
//!
//! The handlers do what a real service would — read the object the
//! datapath delivered — and verify it while they are at it: element count
//! or string length on every request, the whole content against the seeded
//! message on one request in 256. Every response carries the request's
//! `(count, digest)` so the generator can tell a reply built from the wrong
//! object (a stale cache entry, a misrouted continuation) from a right one.

use crate::workload::{
    expect_chars, expect_ints, expect_small, Expect, Item, SmallFields, CHARS_LEN, INTS_LEN,
    PROC_CHARS, PROC_INTS, PROC_SMALL,
};
use pbo_adt::NativeObject;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One request in this many gets the full-content check.
const FULL_CHECK_EVERY: u64 = 256;

/// Status a handler answers when the object it was given is wrong.
pub const STATUS_BAD_OBJECT: u16 = 13;

/// Shared between the handlers (host thread) and the generator.
pub struct Verifier {
    /// Handler invocations, indexed by procedure id.
    invocations: [AtomicU64; 4],
    /// Objects that failed a count, digest or content check.
    bad_objects: AtomicU64,
    /// Requests that got the full-content check.
    full_checked: AtomicU64,
    /// Sorted content hashes of every generated message, per procedure id.
    known: [Vec<u64>; 4],
}

impl Verifier {
    pub fn new(items: &[Item]) -> Arc<Self> {
        let mut known: [Vec<u64>; 4] = Default::default();
        for it in items {
            known[it.proc_id as usize].push(it.expect.full);
        }
        for k in &mut known {
            k.sort_unstable();
        }
        Arc::new(Self {
            invocations: Default::default(),
            bad_objects: AtomicU64::new(0),
            full_checked: AtomicU64::new(0),
            known,
        })
    }

    pub fn invocations(&self) -> u64 {
        self.invocations
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    pub fn bad_objects(&self) -> u64 {
        self.bad_objects.load(Ordering::Relaxed)
    }

    pub fn full_checked(&self) -> u64 {
        self.full_checked.load(Ordering::Relaxed)
    }

    /// Reads the object as the service would and returns what it saw, or
    /// `None` when the view itself is broken.
    fn observe(proc_id: u16, view: &NativeObject<'_>, full: bool) -> Option<Expect> {
        match proc_id {
            PROC_SMALL => {
                let f = SmallFields {
                    a: view.get_u32(1).ok()?,
                    b: view.get_u32(2).ok()?,
                    c: view.get_u64(3).ok()?,
                    d: view.get_f32(4).ok()?,
                    e: view.get_bool(5).ok()?,
                };
                Some(expect_small(&f, full))
            }
            PROC_INTS => {
                let v = view.get_repeated(1).ok()?.as_u32_slice().ok()?;
                if v.len() != INTS_LEN {
                    return None;
                }
                Some(expect_ints(v, full))
            }
            PROC_CHARS => {
                let s = view.get_str(1).ok()?.as_bytes();
                if s.len() != CHARS_LEN {
                    return None;
                }
                Some(expect_chars(s, full))
            }
            _ => None,
        }
    }

    /// The business logic for `proc_id`, in the signature
    /// `CompatServer::register_native` takes.
    pub fn handler(self: &Arc<Self>, proc_id: u16) -> pbo_core::compat::NativeHandler {
        let me = self.clone();
        Arc::new(move |view, out| {
            let n = me.invocations[proc_id as usize].fetch_add(1, Ordering::Relaxed);
            let full = n.is_multiple_of(FULL_CHECK_EVERY);
            let seen = Self::observe(proc_id, view, full);
            let ok = match seen {
                None => false,
                Some(e) if full => {
                    me.full_checked.fetch_add(1, Ordering::Relaxed);
                    me.known[proc_id as usize].binary_search(&e.full).is_ok()
                }
                Some(_) => true,
            };
            let Some(e) = seen.filter(|_| ok) else {
                me.bad_objects.fetch_add(1, Ordering::Relaxed);
                return STATUS_BAD_OBJECT;
            };
            out.extend_from_slice(&encode_reply(&e));
            0
        })
    }
}

/// The 8-byte response body: element count and positional digest.
pub fn encode_reply(e: &Expect) -> [u8; 8] {
    let mut b = [0u8; 8];
    b[..4].copy_from_slice(&e.count.to_le_bytes());
    b[4..].copy_from_slice(&e.digest.to_le_bytes());
    b
}

/// Generator-side check of one reply against the request it answers.
pub fn reply_matches(payload: &[u8], want: &Expect) -> bool {
    payload == encode_reply(want)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Arena;
    use crate::workload::{generate, WORKLOADS};
    use pbo_adt::{NativeWriter, WriterConfig};
    use pbo_core::ServiceSchema;
    use pbo_protowire::StackDeserializer;

    /// Builds `item`'s native object in `arena`, optionally flips one bit
    /// of element 100, and runs the handler on it.
    fn serve(v: &Arc<Verifier>, item: &Item, arena: &mut Arena, corrupt: bool) -> (u16, Vec<u8>) {
        let bundle = ServiceSchema::paper_bench();
        let desc = bundle.request_descriptor(item.proc_id).unwrap();
        let window = arena.window();
        let host_base = window.as_ptr() as u64;
        let mut w =
            NativeWriter::new(bundle.adt(), desc, window, WriterConfig { host_base }).unwrap();
        StackDeserializer::new(bundle.schema())
            .deserialize(desc, &item.wire, &mut w)
            .unwrap();
        let used = w.finish().unwrap().used;
        if corrupt {
            // IntArray: 40-byte object, then the u32 elements.
            window[40 + 4 * 100] ^= 1;
        }
        let class = bundle.adt().class_id(&desc.name).unwrap();
        let view = NativeObject::from_slice(bundle.adt(), class, &window[..used], 0).unwrap();
        let mut out = Vec::new();
        let status = v.handler(item.proc_id)(&view, &mut out);
        (status, out)
    }

    #[test]
    fn handler_answers_the_digest_and_catches_a_flipped_bit() {
        let def = WORKLOADS.iter().find(|w| w.name == "ints_offload").unwrap();
        let inputs = generate(def, 42);
        let item = &inputs.items[0];
        let mut arena = Arena::new(8192);

        // First invocation gets the full-content check: intact passes.
        let v = Verifier::new(&inputs.items);
        let (status, reply) = serve(&v, item, &mut arena, false);
        assert_eq!(status, 0);
        assert!(reply_matches(&reply, &item.expect));
        assert!(!reply_matches(&reply, &inputs.items[1].expect));
        assert_eq!(
            (v.invocations(), v.full_checked(), v.bad_objects()),
            (1, 1, 0)
        );

        // A bit flipped in the middle of the array slips past the
        // positional digest but not past the full-content check.
        let v = Verifier::new(&inputs.items);
        let (status, reply) = serve(&v, item, &mut arena, true);
        assert_eq!(status, STATUS_BAD_OBJECT);
        assert!(reply.is_empty());
        assert_eq!(v.bad_objects(), 1);
    }

    #[test]
    fn reply_roundtrip_and_mismatch() {
        let a = Expect {
            count: 512,
            digest: 0xdead_beef,
            full: 1,
        };
        let b = Expect { digest: 1, ..a };
        assert!(reply_matches(&encode_reply(&a), &a));
        assert!(!reply_matches(&encode_reply(&b), &a));
        assert!(!reply_matches(&[], &a));
    }
}
