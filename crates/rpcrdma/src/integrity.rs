//! Wire integrity: CRC32C block checksums and the NACK/retransmit
//! vocabulary.
//!
//! RDMA verbs guarantee in-order reliable delivery, but the path between
//! the NIC and host memory (PCIe, the DPU's DMA engines, the mirrored
//! buffers themselves) is not end-to-end checked — a silently flipped bit
//! becomes a corrupt *native object* dispatched to business logic, the
//! worst possible failure for a protocol whose whole point is zero-copy
//! in-place dispatch. Every sealed block therefore carries a CRC32C
//! (Castagnoli) over its full extent — preamble, headers, payloads and
//! padding — stored in the preamble and verified before any byte of the
//! block is interpreted.
//!
//! A failed check is *recoverable*: the receiver NACKs the block by bucket
//! and the sender retransmits the retained bytes (senders already keep
//! blocks alive until they are implicitly acknowledged, §IV.B, so the
//! retransmit needs no new bookkeeping). The reserved selector/status
//! value [`INTEGRITY_NACK`] marks NACK control messages, which never enter
//! the deterministic request-ID replay (§IV.D) on either side.
//!
//! The checksum runs over every block twice (stamp on the sender, verify
//! on the receiver), so it has to move at memory speed or it becomes the
//! slowest stage of an *offloaded* request. [`Crc32c::update`] therefore
//! picks its implementation from the machine it runs on, never from a
//! setting: where the CPU has a CRC32C instruction (SSE4.2 `crc32` on
//! x86-64, the ARMv8 CRC extension on aarch64) it is used eight bytes at
//! a time; everywhere else, and under Miri, the same value comes from
//! slicing-by-8 over tables built at compile time. One dependent chain of
//! the instruction is latency-bound, so long inputs are cut into stripes
//! of three lanes (`LANE` bytes each) whose chains overlap in the pipeline.
//! Each stripe is then folded back into one register by advancing the
//! earlier lanes over the zero bytes that would stand for the later ones
//! (a compile-time table of the GF(2) "append `LANE` zero bytes" operator,
//! built by matrix squaring as in zlib's `crc32c.c`) and XOR-ing — CRC is
//! linear, so the result is bit-for-bit the byte-at-a-time value
//! (reflected polynomial of 0x1EDC6F41). In-tree, no dependencies.

/// Reserved selector (request direction) / status (response direction)
/// marking an integrity-NACK control message. Real procedure ids and
/// statuses must stay below this value.
pub const INTEGRITY_NACK: u16 = 0xFFFF;

/// Reserved status marking a control-acknowledgment response message: the
/// server echoes the bucket of a control-bearing request block so the
/// client can recycle it. Request blocks are normally acknowledged by the
/// first response to one of their requests (§IV.B); a block carrying only
/// control messages gets no such response, so it is acked explicitly —
/// at most once per received block — to keep credits and send-buffer
/// memory from leaking.
pub const CONTROL_ACK: u16 = 0xFFFE;

/// Reserved status marking a cache-invalidation control message: the
/// server tells the client that every cached response for a method class
/// is stale (the payload carries the class id). Rides the response
/// direction on selector [`INTEGRITY_NACK`] like the other controls, and
/// needs no explicit acknowledgment — response blocks recycle through
/// the normal preamble ack path.
pub const CACHE_INVALIDATE: u16 = 0xFFFD;

/// Usable request-ID pool capacity for a configured pool size.
///
/// Response messages carry the request ID in the header's selector
/// field, and the selectors/statuses from [`CACHE_INVALIDATE`] upward
/// are reserved for control messages — so no ID at or above `0xFFFD`
/// may ever be allocated. A full `1 << 16` pool would hand one out once
/// enough cumulative allocations have cycled through (the FIFO reuses
/// oldest-freed first), at which point that request's response parses
/// as a short integrity control and desyncs the connection. Both sides
/// clamp identically, keeping the deterministic replay in agreement.
pub(crate) fn usable_id_capacity(configured: u32) -> u32 {
    configured.min(CACHE_INVALIDATE as u32)
}

/// Byte offset of the stored CRC within a block (inside the preamble).
pub const CRC_OFFSET: usize = 8;

/// Reflected polynomial of 0x1EDC6F41 (Castagnoli).
const POLY: u32 = 0x82F6_3B78;

/// Slicing-by-8 tables, generated at compile time: `SLICE[k][b]` is the
/// register after byte `b` followed by `k` zero bytes, so `SLICE[0]` is
/// the classic one-byte table. A `static`, not a `const`: an unoptimised
/// build copies a `const` array to the stack at every use.
static SLICE: [[u32; 256]; 8] = build_slice_tables();

const fn build_slice_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Bytes per lane of the three-lane hardware path; a stripe is three
/// lanes. Sized so an 8 KiB block is ten stripes plus a short tail: the
/// per-stripe recombination (eight table loads) stays small beside the
/// 96 instruction steps it buys, and response blocks of tens of bytes
/// never reach it.
#[cfg_attr(not(test), allow(dead_code))] // `hw` is its one user, and not every target has `hw`
const LANE: usize = 256;

/// One byte through the classic table: the tail of the software path and
/// the whole of the test reference.
#[inline]
fn byte_step(crc: u32, b: u8) -> u32 {
    (crc >> 8) ^ SLICE[0][((crc ^ u32::from(b)) & 0xff) as usize]
}

#[inline]
fn le64(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8) yields 8 bytes"))
}

/// Slicing-by-8: the path for CPUs without a CRC32C instruction.
fn advance_sw(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let v = le64(w) ^ u64::from(crc);
        crc = SLICE[7][(v & 0xff) as usize]
            ^ SLICE[6][((v >> 8) & 0xff) as usize]
            ^ SLICE[5][((v >> 16) & 0xff) as usize]
            ^ SLICE[4][((v >> 24) & 0xff) as usize]
            ^ SLICE[3][((v >> 32) & 0xff) as usize]
            ^ SLICE[2][((v >> 40) & 0xff) as usize]
            ^ SLICE[1][((v >> 48) & 0xff) as usize]
            ^ SLICE[0][(v >> 56) as usize];
    }
    words
        .remainder()
        .iter()
        .fold(crc, |crc, &b| byte_step(crc, b))
}

/// The CPU's CRC32C instruction, three lanes interleaved.
#[cfg(all(not(miri), any(target_arch = "x86_64", target_arch = "aarch64")))]
mod hw {
    use super::{le64, LANE, POLY};

    #[cfg(target_arch = "aarch64")]
    use std::arch::aarch64::{__crc32cb as step1, __crc32cd as step8};
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::_mm_crc32_u8 as step1;

    /// `crc32q` carries the 32-bit register in a 64-bit operand.
    ///
    /// # Safety
    /// The CPU must have SSE4.2.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "sse4.2")]
    unsafe fn step8(crc: u32, word: u64) -> u32 {
        std::arch::x86_64::_mm_crc32_u64(u64::from(crc), word) as u32
    }

    /// "Advance the register over [`LANE`] zero bytes" as four byte-indexed
    /// tables: the image of the register is the XOR of `LANE_ZEROS[k][byte k]`.
    static LANE_ZEROS: [[u32; 256]; 4] = build_zeros_table(LANE);

    /// Product of a GF(2) 32x32 matrix (`m[i]` is the image of bit `i`) and
    /// the vector `v`.
    const fn gf2_times(m: &[u32; 32], mut v: u32) -> u32 {
        let mut sum = 0;
        let mut i = 0;
        while v != 0 {
            if v & 1 != 0 {
                sum ^= m[i];
            }
            v >>= 1;
            i += 1;
        }
        sum
    }

    const fn build_zeros_table(len: usize) -> [[u32; 256]; 4] {
        assert!(len.is_power_of_two());
        // The register step for one zero bit, then squared up to `len` bytes.
        let mut op = [0u32; 32];
        op[0] = POLY;
        let mut i = 1;
        while i < 32 {
            op[i] = 1 << (i - 1);
            i += 1;
        }
        let mut bits = 1;
        while bits < len * 8 {
            let mut sq = [0u32; 32];
            let mut i = 0;
            while i < 32 {
                sq[i] = gf2_times(&op, op[i]);
                i += 1;
            }
            op = sq;
            bits *= 2;
        }
        let mut t = [[0u32; 256]; 4];
        let mut k = 0;
        while k < 4 {
            let mut b = 0;
            while b < 256 {
                t[k][b] = gf2_times(&op, (b as u32) << (8 * k));
                b += 1;
            }
            k += 1;
        }
        t
    }

    fn shift_lane(crc: u32) -> u32 {
        LANE_ZEROS[0][(crc & 0xff) as usize]
            ^ LANE_ZEROS[1][((crc >> 8) & 0xff) as usize]
            ^ LANE_ZEROS[2][((crc >> 16) & 0xff) as usize]
            ^ LANE_ZEROS[3][(crc >> 24) as usize]
    }

    /// # Safety
    /// The CPU must have the instruction behind `step8`/`step1`: SSE4.2
    /// on x86-64, the CRC extension on aarch64. Memory is reached only
    /// through `bytes`.
    #[cfg_attr(target_arch = "x86_64", target_feature(enable = "sse4.2"))]
    #[cfg_attr(target_arch = "aarch64", target_feature(enable = "crc"))]
    pub(super) unsafe fn advance(mut crc: u32, bytes: &[u8]) -> u32 {
        let mut stripes = bytes.chunks_exact(3 * LANE);
        for stripe in &mut stripes {
            let (a, rest) = stripe.split_at(LANE);
            let (b, c) = rest.split_at(LANE);
            let (mut c0, mut c1, mut c2) = (crc, 0, 0);
            let words = a
                .chunks_exact(8)
                .zip(b.chunks_exact(8))
                .zip(c.chunks_exact(8));
            for ((wa, wb), wc) in words {
                c0 = step8(c0, le64(wa));
                c1 = step8(c1, le64(wb));
                c2 = step8(c2, le64(wc));
            }
            crc = shift_lane(shift_lane(c0) ^ c1) ^ c2;
        }
        let mut words = stripes.remainder().chunks_exact(8);
        for w in &mut words {
            crc = step8(crc, le64(w));
        }
        for &b in words.remainder() {
            crc = step1(crc, b);
        }
        crc
    }
}

/// The hardware path, or `None` on a machine without the instruction
/// (and under Miri, which has no intrinsic support).
#[inline]
fn advance_hw(crc: u32, bytes: &[u8]) -> Option<u32> {
    #[cfg(all(not(miri), target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: SSE4.2 was detected on the line above; `hw::advance`
        // takes a slice and forms no raw pointers.
        return Some(unsafe { hw::advance(crc, bytes) });
    }
    #[cfg(all(not(miri), target_arch = "aarch64"))]
    if std::arch::is_aarch64_feature_detected!("crc") {
        // SAFETY: the CRC extension was detected on the line above;
        // `hw::advance` takes a slice and forms no raw pointers.
        return Some(unsafe { hw::advance(crc, bytes) });
    }
    let _ = (crc, bytes);
    None
}

/// Incremental CRC32C state, for checksumming a block around the hole
/// where the CRC itself is stored.
#[derive(Clone, Copy, Debug)]
pub struct Crc32c(u32);

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32c {
    /// Fresh state.
    pub fn new() -> Self {
        Self(!0)
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        self.0 = advance_hw(self.0, bytes).unwrap_or_else(|| advance_sw(self.0, bytes));
    }

    /// Final checksum value.
    pub fn finish(self) -> u32 {
        !self.0
    }
}

/// One-shot CRC32C of `bytes`.
pub fn crc32c(bytes: &[u8]) -> u32 {
    let mut c = Crc32c::new();
    c.update(bytes);
    c.finish()
}

/// Checksum of a block with its stored-CRC field treated as zero — the
/// value a sender stores and a receiver recomputes. `block` must be at
/// least [`crate::wire::PREAMBLE_SIZE`] bytes.
pub fn block_crc(block: &[u8]) -> u32 {
    debug_assert!(block.len() >= CRC_OFFSET + 4);
    let mut c = Crc32c::new();
    c.update(&block[..CRC_OFFSET]);
    c.update(&[0u8; 4]);
    c.update(&block[CRC_OFFSET + 4..]);
    c.finish()
}

/// Computes and stores the block checksum in place (seal time).
pub fn stamp_block(block: &mut [u8]) {
    let crc = block_crc(block);
    block[CRC_OFFSET..CRC_OFFSET + 4].copy_from_slice(&crc.to_le_bytes());
}

/// Recomputes the checksum of a received block and compares it against the
/// stored value. `false` means the block must not be interpreted.
pub fn verify_block(block: &[u8]) -> bool {
    if block.len() < CRC_OFFSET + 4 {
        return false;
    }
    let stored = u32::from_le_bytes(block[CRC_OFFSET..CRC_OFFSET + 4].try_into().unwrap());
    block_crc(block) == stored
}

#[cfg(test)]
mod tests {
    use super::*;

    type Advance = fn(u32, &[u8]) -> u32;

    /// The byte-at-a-time loop every other implementation must equal.
    fn advance_ref(crc: u32, bytes: &[u8]) -> u32 {
        bytes.iter().fold(crc, |crc, &b| byte_step(crc, b))
    }

    /// The implementations this machine can run besides the reference:
    /// always slicing-by-8, plus the instruction path where present.
    fn fast_paths() -> Vec<(&'static str, Advance)> {
        let mut paths: Vec<(&'static str, Advance)> = vec![("slicing-by-8", advance_sw)];
        if advance_hw(0, &[]).is_some() {
            paths.push(("hardware", |crc, bytes| {
                advance_hw(crc, bytes).expect("detected above")
            }));
        }
        paths
    }

    fn checksum(advance: Advance, bytes: &[u8]) -> u32 {
        !advance(!0, bytes)
    }

    /// Top byte of a 64-bit LCG (Knuth's MMIX constants) per output byte.
    fn pseudo_random(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect()
    }

    /// [`block_crc`] through one chosen implementation.
    fn block_checksum(advance: Advance, block: &[u8]) -> u32 {
        let crc = advance(!0, &block[..CRC_OFFSET]);
        !advance(advance(crc, &[0u8; 4]), &block[CRC_OFFSET + 4..])
    }

    /// A block stamped by the commit before the hardware path existed
    /// (bytes `i * 37 + 11`, then `stamp_block`): old and new peers must
    /// agree on it in both directions.
    const PARENT_STAMPED: [u8; 64] = [
        0x0b, 0x30, 0x55, 0x7a, 0x9f, 0xc4, 0xe9, 0x0e, 0x0c, 0x39, 0xb1, 0x77, 0xc7, 0xec, 0x11,
        0x36, 0x5b, 0x80, 0xa5, 0xca, 0xef, 0x14, 0x39, 0x5e, 0x83, 0xa8, 0xcd, 0xf2, 0x17, 0x3c,
        0x61, 0x86, 0xab, 0xd0, 0xf5, 0x1a, 0x3f, 0x64, 0x89, 0xae, 0xd3, 0xf8, 0x1d, 0x42, 0x67,
        0x8c, 0xb1, 0xd6, 0xfb, 0x20, 0x45, 0x6a, 0x8f, 0xb4, 0xd9, 0xfe, 0x23, 0x48, 0x6d, 0x92,
        0xb7, 0xdc, 0x01, 0x26,
    ];

    #[test]
    fn known_vectors() {
        // RFC 3720 §B.4 test vectors for CRC32C, plus the check value.
        let ascending: Vec<u8> = (0u8..32).collect();
        let descending: Vec<u8> = (0u8..32).rev().collect();
        let mut iscsi_read = [0u8; 48];
        iscsi_read[..2].copy_from_slice(&[0x01, 0xc0]);
        iscsi_read[16] = 0x14;
        iscsi_read[22] = 0x04;
        iscsi_read[27] = 0x14;
        iscsi_read[31] = 0x18;
        iscsi_read[32] = 0x28;
        iscsi_read[40] = 0x02;
        let vectors: [(&[u8], u32); 6] = [
            (b"123456789", 0xE306_9283),
            (&[0u8; 32], 0x8A91_36AA),
            (&[0xffu8; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
            (&descending, 0x113F_DB5C),
            (&iscsi_read, 0xD996_3A56),
        ];
        for (bytes, want) in vectors {
            assert_eq!(crc32c(bytes), want);
            assert_eq!(checksum(advance_ref, bytes), want);
            // The fallback directly, so it is exercised on machines that
            // never dispatch to it.
            for (name, advance) in fast_paths() {
                assert_eq!(checksum(advance, bytes), want, "{name}");
            }
        }
    }

    #[test]
    fn all_implementations_agree_at_every_length_and_alignment() {
        let max_len = 4 * 3 * LANE + 17;
        let data = pseudo_random(0xC0FFEE, max_len + 8);
        let paths = fast_paths();
        for offset in 0..8 {
            let data = &data[offset..];
            // Reference states for every prefix, one byte step each.
            let mut want = !0u32;
            for len in 0..=max_len {
                for &(name, advance) in &paths {
                    assert_eq!(
                        advance(!0, &data[..len]),
                        want,
                        "{name}: offset {offset}, len {len}"
                    );
                }
                want = byte_step(want, data[len]);
            }
            assert_eq!(want, advance_ref(!0, &data[..=max_len]));
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let stripe = 3 * LANE;
        let data = pseudo_random(7, 2 * stripe + 50);
        let want = crc32c(&data);
        assert_eq!(want, checksum(advance_ref, &data));
        // Every split around the first lane and stripe boundaries, and the
        // ends, must leave the value unchanged.
        let around = |at: usize| at - 9..=at + 9;
        let splits = (0..=9)
            .chain(around(LANE))
            .chain(around(stripe))
            .chain(around(stripe + LANE))
            .chain(data.len() - 9..=data.len());
        for split in splits {
            let mut c = Crc32c::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), want, "split at {split}");
        }
    }

    #[test]
    fn full_block_single_bit_flips_are_caught_on_every_path() {
        let mut block = pseudo_random(42, 8192);
        stamp_block(&mut block);
        assert!(verify_block(&block));
        let stored = block_crc(&block);
        let paths = fast_paths();
        for &(name, advance) in &paths {
            assert_eq!(block_checksum(advance, &block), stored, "{name}");
        }
        // Every 61st bit position (coprime to 8, so all eight bit lanes
        // and all three hardware lanes are hit), plus the last bit.
        let bits = block.len() * 8;
        for bit in (0..bits).step_by(61).chain([bits - 1]) {
            let mut flipped = block.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(!verify_block(&flipped), "flip at bit {bit} undetected");
            if (CRC_OFFSET..CRC_OFFSET + 4).contains(&(bit / 8)) {
                continue; // the stored value itself, outside what is summed
            }
            for &(name, advance) in &paths {
                assert_ne!(
                    block_checksum(advance, &flipped),
                    stored,
                    "{name}: flip at bit {bit} undetected"
                );
            }
        }
    }

    #[test]
    fn interoperates_with_blocks_stamped_before_the_hardware_path() {
        // Old sender, new receiver.
        assert!(verify_block(&PARENT_STAMPED));
        // New sender, old receiver: stamping the same contents must
        // reproduce the old bytes exactly.
        let mut restamped = PARENT_STAMPED;
        restamped[CRC_OFFSET..CRC_OFFSET + 4].fill(0xAA);
        stamp_block(&mut restamped);
        assert_eq!(restamped, PARENT_STAMPED);
    }

    #[test]
    fn stamp_then_verify_roundtrip() {
        let mut block = vec![7u8; 64];
        stamp_block(&mut block);
        assert!(verify_block(&block));
        // Any single-bit flip anywhere in the block is caught.
        for byte in 0..block.len() {
            for bit in 0..8 {
                let mut flipped = block.clone();
                flipped[byte] ^= 1 << bit;
                assert!(!verify_block(&flipped), "flip at {byte}.{bit} undetected");
            }
        }
    }

    #[test]
    fn short_block_never_verifies() {
        assert!(!verify_block(&[]));
        assert!(!verify_block(&[0u8; 11]));
    }

    #[test]
    fn id_pool_capacity_excludes_reserved_selectors() {
        // A full 2^16 pool would eventually allocate an ID in the
        // reserved control band (CACHE_INVALIDATE..=INTEGRITY_NACK),
        // whose response selector would parse as a short integrity
        // control and desync the connection.
        assert_eq!(usable_id_capacity(1 << 16), CACHE_INVALIDATE as u32);
        assert_eq!(
            usable_id_capacity(INTEGRITY_NACK as u32),
            CACHE_INVALIDATE as u32
        );
        assert_eq!(usable_id_capacity(64), 64);
        let mut pool = pbo_alloc::IdPool::new(usable_id_capacity(1 << 16));
        let mut max = 0;
        while let Some(id) = pool.alloc() {
            max = max.max(id);
        }
        assert_eq!(max, CACHE_INVALIDATE - 1);
    }
}
