//! Shared helpers for the benchmark binaries.
//!
//! Each binary regenerates one of the paper's tables or figures; see
//! DESIGN.md's per-experiment index (E1–E10) for the mapping. This module
//! holds the pieces they share: workload preparation against the *real*
//! implementation and small table-printing utilities.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod doctor;
pub mod json;

use pbo_adt::{Adt, NativeWriter, StdLib, WriterConfig};
use pbo_core::ServiceSchema;
use pbo_dpusim::{paper_shape, PaperWorkload, Scenario, WorkloadShape};
use pbo_protowire::workloads::{gen_char_array, gen_int_array, paper_schema, Mt19937};
use pbo_protowire::{encode_message, DeserStats, NullSink, Schema, StackDeserializer};

/// A prepared workload message: wire bytes, native size, parse stats.
pub struct Prepared {
    /// Serialized message.
    pub wire: Vec<u8>,
    /// Message type name.
    pub type_name: &'static str,
    /// Arena bytes its native object occupies (measured by building it).
    pub native_bytes: usize,
    /// Work-unit counts from the real parser.
    pub stats: DeserStats,
}

/// Generates and fully characterizes one paper workload *by running the
/// real implementation* (no hardcoded sizes).
pub fn prepare(kind: PaperWorkload, schema: &Schema, rng: &mut Mt19937) -> Prepared {
    let (msg, type_name) = match kind {
        PaperWorkload::Small => (pbo_protowire::workloads::gen_small(schema), "bench.Small"),
        PaperWorkload::Ints512 => (gen_int_array(schema, rng, 512), "bench.IntArray"),
        PaperWorkload::Chars8000 => (gen_char_array(schema, rng, 8000), "bench.CharArray"),
    };
    let wire = encode_message(&msg);
    let desc = schema.message(type_name).unwrap().clone();
    let stats = StackDeserializer::new(schema)
        .deserialize(&desc, &wire, &mut NullSink)
        .expect("well-formed");
    // Build the native object once to measure its true arena footprint.
    let adt = Adt::from_schema(schema, StdLib::Libstdcxx);
    let mut arena = vec![0u8; wire.len() * 4 + 4096];
    let skew = (8 - arena.as_ptr() as usize % 8) % 8;
    let window = &mut arena[skew..];
    let host_base = window.as_ptr() as u64;
    let mut writer =
        NativeWriter::new(&adt, &desc, window, WriterConfig { host_base }).expect("arena fits");
    StackDeserializer::new(schema)
        .deserialize(&desc, &wire, &mut writer)
        .expect("parses");
    let native_bytes = writer.finish().expect("finishes").used;
    Prepared {
        wire,
        type_name,
        native_bytes,
        stats,
    }
}

/// Builds the dpusim shape for a (workload, scenario) pair with the
/// standard 8 KiB block.
pub fn shape(kind: PaperWorkload, scenario: Scenario) -> WorkloadShape {
    paper_shape(kind, scenario, 8192)
}

/// The standard bundle used by the measured datapath.
pub fn bench_bundle() -> ServiceSchema {
    ServiceSchema::paper_bench()
}

/// Deterministic workload RNG.
pub fn rng() -> Mt19937 {
    Mt19937::new(Mt19937::PAPER_SEED)
}

/// The benchmark schema.
pub fn schema() -> Schema {
    paper_schema()
}

/// Prints a row of fixed-width cells.
pub fn row(cells: &[&str], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{c:<w$} ", w = w));
    }
    println!("{}", line.trim_end());
}

/// Prints a horizontal rule sized to the column widths.
pub fn rule(widths: &[usize]) {
    let total: usize = widths.iter().sum::<usize>() + widths.len();
    println!("{}", "-".repeat(total));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepared_sizes_match_paper_constants() {
        let schema = schema();
        let mut rng = rng();
        let small = prepare(PaperWorkload::Small, &schema, &mut rng);
        assert_eq!(small.wire.len(), 15);
        assert_eq!(small.native_bytes, 40);
        let chars = prepare(PaperWorkload::Chars8000, &schema, &mut rng);
        assert_eq!(chars.wire.len(), 8003);
        assert_eq!(chars.native_bytes, 8048);
        let ints = prepare(PaperWorkload::Ints512, &schema, &mut rng);
        assert_eq!(ints.native_bytes, 40 + 4 * 512);
        assert!(ints.wire.len() < ints.native_bytes);
    }
}
