//! Every metric name the benchmark reports, defined once. `BENCHMARK.json`
//! lists the same names (a unit test keeps the two in step), and every
//! later performance claim in this repository is stated in them.

/// How long one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// `better` direction as `BENCHMARK.json` spells it.
pub const HIGHER: &str = "higher";
pub const LOWER: &str = "lower";

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// What a user of the offload datapath sees, per workload. Each bound is
/// at least three times the widest inter-quartile spread seen for that
/// metric over two sets of ten differently seeded runs of any workload on the 2-core
/// box (README.md has the table), except `host_busy_ns_per_req`, whose
/// spread on `small_offload` (13 % of ~400 ns) only fits under the cap.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "req_per_s",
        unit: "1/s",
        better: HIGHER,
        bound: 0.22,
    },
    EndToEnd {
        name: "host_busy_ns_per_req",
        unit: "ns",
        better: LOWER,
        bound: 0.25,
    },
    EndToEnd {
        name: "pcie_bytes_per_req",
        unit: "B",
        better: LOWER,
        bound: 0.05,
    },
    EndToEnd {
        name: "lat_p50_us",
        unit: "us",
        better: LOWER,
        bound: 0.18,
    },
    EndToEnd {
        name: "lat_p99_us",
        unit: "us",
        better: LOWER,
        bound: 0.18,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: LOWER,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn l(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Single-layer metrics; the prefix before the first `.` is the crate.
/// `*_ns` rows are medians of repeated timed calls into the layer's public
/// functions; the rest are exact counts from the workload's `sat` phase or
/// self times from the traced passes.
pub const PER_LAYER: &[PerLayer] = &[
    l("protowire.varint_decode_ns", "ns", LOWER),
    l("protowire.stack_parse_small_ns", "ns", LOWER),
    l("protowire.stack_parse_ints_ns", "ns", LOWER),
    l("protowire.stack_parse_chars_ns", "ns", LOWER),
    l("protowire.utf8_validate_ns_per_kib", "ns/KiB", LOWER),
    l("protowire.encode_ints_ns", "ns", LOWER),
    l("protowire.ns_per_int_elem", "ns", LOWER),
    l("protowire.ns_per_kib_chars", "ns/KiB", LOWER),
    l("adt.native_write_small_ns", "ns", LOWER),
    l("adt.native_write_ints_ns", "ns", LOWER),
    l("adt.native_write_chars_ns", "ns", LOWER),
    l("adt.view_read_ns", "ns", LOWER),
    l("adt.table_build_ns", "ns", LOWER),
    l("alloc.offset_alloc_free_ns", "ns", LOWER),
    l("alloc.idpool_alloc_free_ns", "ns", LOWER),
    l("rpcrdma.crc32c_ns_per_kib", "ns/KiB", LOWER),
    l("rpcrdma.block_header_rw_ns", "ns", LOWER),
    l("rpcrdma.echo_roundtrip_ns", "ns", LOWER),
    l("rpcrdma.msgs_per_block", "count", HIGHER),
    l("rpcrdma.blocks_sent", "count", LOWER),
    l("rpcrdma.credit_stalls", "count", LOWER),
    l("rpcrdma.retransmits", "count", LOWER),
    l("simnet.write_imm_ns", "ns", LOWER),
    l("simnet.dma_ns_per_kib", "ns/KiB", LOWER),
    l("simnet.pcie_to_host_bytes_per_req", "B", LOWER),
    l("simnet.pcie_to_device_bytes_per_req", "B", LOWER),
    l("grpclike.frame_roundtrip_ns", "ns", LOWER),
    l("grpclike.metadata_decode_ns", "ns", LOWER),
    l("core.forward_handoff_ns", "ns", LOWER),
    l("core.serialize_view_ints_ns", "ns", LOWER),
    l("core.unattributed_ns_per_req", "ns", LOWER),
    l("sched.offer_next_complete_ns", "ns", LOWER),
    l("sched.shed", "count", LOWER),
    l("sched.queued_peak", "count", LOWER),
    l("policy.route_ns", "ns", LOWER),
    l("cache.lookup_hit_ns", "ns", LOWER),
    l("cache.lookup_miss_ns", "ns", LOWER),
    l("cache.store_ns", "ns", LOWER),
    l("cache.hit_ratio", "ratio", HIGHER),
    l("cache.evictions", "count", LOWER),
    l("trace.span_record_ns", "ns", LOWER),
    l("trace.unsampled_check_ns", "ns", LOWER),
    l("trace.overhead_pct", "%", LOWER),
    l("trace.spans_dropped", "count", LOWER),
    l("metrics.histogram_observe_ns", "ns", LOWER),
    l("metrics.counter_inc_ns", "ns", LOWER),
    l("telemetry.scrape_metrics_us", "us", LOWER),
    l("telemetry.scrape_bytes", "B", LOWER),
    l("dpusim.model_req_per_s.small_offload", "1/s", HIGHER),
    l("dpusim.model_req_per_s.small_forward", "1/s", HIGHER),
    l("dpusim.model_req_per_s.ints_offload", "1/s", HIGHER),
    l("dpusim.model_req_per_s.ints_forward", "1/s", HIGHER),
    l("dpusim.model_req_per_s.chars_offload", "1/s", HIGHER),
    l("dpusim.model_req_per_s.chars_forward", "1/s", HIGHER),
    l("dpusim.deser_ratio_ints", "ratio", LOWER),
    l("dpusim.deser_ratio_chars", "ratio", LOWER),
    l("stage.terminate_self_ns", "ns", LOWER),
    l("stage.sched_wait_self_ns", "ns", LOWER),
    l("stage.cache_hit_self_ns", "ns", LOWER),
    l("stage.deserialize_self_ns", "ns", LOWER),
    l("stage.block_build_self_ns", "ns", LOWER),
    l("stage.credit_wait_self_ns", "ns", LOWER),
    l("stage.rdma_write_self_ns", "ns", LOWER),
    l("stage.dma_self_ns", "ns", LOWER),
    l("stage.host_dispatch_self_ns", "ns", LOWER),
    l("stage.response_build_self_ns", "ns", LOWER),
    l("stage.response_self_ns", "ns", LOWER),
    l("gen.late_p99_us", "us", LOWER),
    l("gen.late_max_us", "us", LOWER),
];

/// The stages of `stage.*_self_ns`, in datapath order.
pub const STAGES: [&str; 11] = [
    "terminate",
    "sched_wait",
    "cache_hit",
    "deserialize",
    "block_build",
    "credit_wait",
    "rdma_write",
    "dma",
    "host_dispatch",
    "response_build",
    "response",
];

/// The per-layer name of a stage's self time.
pub fn stage_metric(stage: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|m| m.name)
        .find(|n| {
            n.strip_prefix("stage.")
                .and_then(|r| r.strip_suffix("_self_ns"))
                == Some(stage)
        })
        .unwrap_or_else(|| panic!("no per-layer metric for stage {stage}"))
}

/// The contract's shape for a name: starts with a letter or digit, at most
/// 64 of `[A-Za-z0-9_.-]`.
#[cfg(test)]
pub fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbo_bench::json::{parse, Json};

    fn manifest() -> Json {
        parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is valid JSON")
    }

    fn names_of(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no array {key}"))
            .iter()
            .map(|m| m.str("name").to_string())
            .collect()
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(crate::workload::WORKLOADS.iter().map(|w| w.name))
            .collect();
        for (i, n) in all.iter().enumerate() {
            assert!(well_formed(n), "{n}");
            assert!(!all[..i].contains(n), "{n} used twice");
        }
        assert!(PER_LAYER.len() <= 128);
        for s in STAGES {
            let name = format!("stage.{s}_self_ns");
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
        assert!(!well_formed(""));
        assert!(!well_formed(".x"));
        assert!(!well_formed("a b"));
    }

    #[test]
    fn manifest_lists_exactly_these_names_units_and_bounds() {
        let doc = manifest();
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names_of(&doc, "end_to_end"), e2e);
        let layer: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names_of(&doc, "per_layer"), layer);
        let wl: Vec<&str> = crate::workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names_of(&doc, "workloads"), wl);
        assert_eq!(doc.num("run_seconds"), RUN_SECONDS as f64);
        for (m, j) in END_TO_END
            .iter()
            .zip(doc.get("end_to_end").unwrap().as_arr().unwrap())
        {
            assert_eq!(j.str("unit"), m.unit);
            assert_eq!(j.str("better"), m.better);
            assert_eq!(j.num("bound"), m.bound);
            assert!(m.bound <= 0.25);
        }
        for (m, j) in PER_LAYER
            .iter()
            .zip(doc.get("per_layer").unwrap().as_arr().unwrap())
        {
            assert_eq!(j.str("unit"), m.unit);
            assert_eq!(j.str("better"), m.better);
        }
        for (w, j) in crate::workload::WORKLOADS
            .iter()
            .zip(doc.get("workloads").unwrap().as_arr().unwrap())
        {
            assert_eq!(j.str("why"), w.why);
        }
    }
}
