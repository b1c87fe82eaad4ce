//! Root-cause diagnosis over the telemetry endpoints.
//!
//! `pbo_doctor` answers the question the attribution machinery exists
//! for: *why* is the tail slow right now? It folds three views of the
//! same datapath into one ranked verdict:
//!
//! - `/attrib` — per-stage critical-path self-time, dominant-stage
//!   counts, per-(tenant, class, route) aggregates, exemplar trace ids;
//! - `/metrics` — corroborating counters (credit stalls, scheduler
//!   sheds, failovers, block amplification);
//! - `/flight` — the compact attribution header spliced into the flight
//!   dump (used only as a fallback source of exemplars).
//!
//! Each candidate cause owns a set of datapath stages. Its score is the
//! share of total critical-path self-time spent in those stages, blended
//! with the fraction of requests where one of them was dominant, plus
//! small bonuses when an independent metric corroborates the story
//! (e.g. `rpc_credit_stalls_total > 0` backs credit starvation). The
//! blend means a cause needs *both* mass and breadth to rank: one slow
//! outlier doesn't outrank a stage that dominates half the requests.
//!
//! The scoring is deliberately transparent — every finding carries the
//! evidence lines that produced its score, and an exemplar trace id a
//! human can pull from the flight recorder to see the critical path with
//! their own eyes.

use std::collections::BTreeMap;

use crate::json::{parse_exposition, Json};
use pbo_trace::stages;

/// A candidate root cause for tail latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Cause {
    /// DPU→host sends stall on the credit window (receiver-side buffer
    /// exhaustion or a slow host draining blocks).
    CreditStarvation,
    /// Requests queue in the tenant scheduler before dispatch (WDRR
    /// contention, admission pressure, or an overloaded poller).
    SchedContention,
    /// Time goes into moving bytes: RDMA writes and PCIe DMA, typically
    /// from block amplification or oversized native layouts.
    PcieAmplification,
    /// The host side is the bottleneck: dispatch queueing and response
    /// build on the CPU.
    HostDispatch,
    /// Recovery machinery on the critical path: lease waits, failover,
    /// rejoin probing, degraded-mode forwarding, reconnects.
    LeaseFailover,
    /// The response cache is churning instead of serving: entries are
    /// evicted (or TTL-expired) about as fast as they are stored, so
    /// nearly every lookup misses and pays the full deserialize path.
    CacheThrash,
}

impl Cause {
    /// All candidates, in presentation order.
    pub fn all() -> [Cause; 6] {
        [
            Cause::CreditStarvation,
            Cause::SchedContention,
            Cause::PcieAmplification,
            Cause::HostDispatch,
            Cause::LeaseFailover,
            Cause::CacheThrash,
        ]
    }

    /// Stable machine-readable name, as printed in the report.
    pub fn name(self) -> &'static str {
        match self {
            Cause::CreditStarvation => "credit_starvation",
            Cause::SchedContention => "sched_contention",
            Cause::PcieAmplification => "pcie_amplification",
            Cause::HostDispatch => "host_dispatch",
            Cause::LeaseFailover => "lease_failover",
            Cause::CacheThrash => "cache_thrash",
        }
    }

    /// The datapath stages this cause owns on the critical path.
    pub fn stages(self) -> &'static [&'static str] {
        match self {
            Cause::CreditStarvation => &[stages::CREDIT_WAIT],
            Cause::SchedContention => &[stages::SCHED_WAIT],
            Cause::PcieAmplification => &[stages::RDMA_WRITE, stages::DMA],
            Cause::HostDispatch => &[stages::HOST_DISPATCH, stages::RESPONSE_BUILD],
            Cause::LeaseFailover => &[
                stages::LEASE_WAIT,
                stages::FAILOVER,
                stages::REJOIN,
                stages::RECONNECT,
                stages::DEGRADED,
            ],
            // Thrashing shows up as the *absence* of cache_hit time plus
            // churn counters, not as a stage of its own on the critical
            // path — the score is built entirely from /metrics.
            Cause::CacheThrash => &[],
        }
    }

    /// One-line human description for the report.
    pub fn describe(self) -> &'static str {
        match self {
            Cause::CreditStarvation => "sends stalled on the DPU->host credit window",
            Cause::SchedContention => "requests queued in the tenant scheduler",
            Cause::PcieAmplification => "byte movement (RDMA write + PCIe DMA) dominates",
            Cause::HostDispatch => "host-side dispatch and response build dominate",
            Cause::LeaseFailover => "recovery machinery (lease/failover/rejoin) on the path",
            Cause::CacheThrash => "response cache churning: miss storm + eviction/TTL churn",
        }
    }
}

/// One stage row from `/attrib`.
#[derive(Clone, Debug, Default)]
pub struct StageRow {
    /// Stage name.
    pub stage: String,
    /// Total critical-path self-time attributed to this stage.
    pub self_ns_total: u64,
    /// Fraction of all attributed self-time.
    pub share: f64,
    /// Requests where this stage was the dominant contributor.
    pub dominant_count: u64,
    /// Requests where this stage exceeded its budget.
    pub over_budget_count: u64,
}

/// One `(tenant, class, route, dominant)` aggregate row from `/attrib`.
#[derive(Clone, Debug, Default)]
pub struct KeyRow {
    /// Tenant label.
    pub tenant: String,
    /// Class label.
    pub class: String,
    /// Route label.
    pub route: String,
    /// Dominant stage of the requests in this cell.
    pub dominant: String,
    /// Requests aggregated.
    pub requests: u64,
    /// Mean end-to-end latency.
    pub mean_e2e_ns: f64,
    /// Exemplar trace ids (`"0x..."` strings), most extreme first.
    pub exemplars: Vec<String>,
}

/// One per-connection row from `/attrib`.
#[derive(Clone, Debug, Default)]
pub struct ConnRow {
    /// Connection label.
    pub conn: String,
    /// Most common dominant stage on this connection.
    pub dominant: String,
    /// Worst end-to-end request seen.
    pub worst_e2e_ns: u64,
    /// Its trace id (`"0x..."`).
    pub worst_trace_id: String,
    /// Its dominant stage.
    pub worst_dominant: String,
}

/// Everything the doctor reasons over, merged from the endpoints.
#[derive(Clone, Debug, Default)]
pub struct Evidence {
    /// Requests attributed.
    pub finalized: u64,
    /// Ranked stage breakdown.
    pub stages: Vec<StageRow>,
    /// Attribution aggregate cells.
    pub keys: Vec<KeyRow>,
    /// Per-connection summaries.
    pub conns: Vec<ConnRow>,
    /// Global worst-latency exemplar trace ids.
    pub e2e_exemplars: Vec<String>,
    /// Metric samples (`name -> value`, labels both collapsed and kept).
    pub metrics: BTreeMap<String, f64>,
}

fn exemplar_ids(v: Option<&Json>) -> Vec<String> {
    v.and_then(Json::as_arr)
        .map(|arr| {
            arr.iter()
                .filter_map(|e| e.get("trace_id").and_then(Json::as_str))
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default()
}

impl Evidence {
    /// Builds evidence from a parsed `/attrib` document.
    pub fn from_attrib(doc: &Json) -> Result<Evidence, String> {
        if doc.get("finalized").is_none() {
            return Err("not an /attrib document (no \"finalized\" member)".into());
        }
        let mut ev = Evidence {
            finalized: doc.num("finalized") as u64,
            ..Evidence::default()
        };
        for st in doc.get("stages").and_then(Json::as_arr).unwrap_or(&[]) {
            ev.stages.push(StageRow {
                stage: st.str("stage").to_string(),
                self_ns_total: st.num("self_ns_total") as u64,
                share: st.num("share"),
                dominant_count: st.num("dominant_count") as u64,
                over_budget_count: st.num("over_budget_count") as u64,
            });
        }
        for k in doc.get("keys").and_then(Json::as_arr).unwrap_or(&[]) {
            ev.keys.push(KeyRow {
                tenant: k.str("tenant").to_string(),
                class: k.str("class").to_string(),
                route: k.str("route").to_string(),
                dominant: k.str("dominant").to_string(),
                requests: k.num("requests") as u64,
                mean_e2e_ns: k.num("mean_e2e_ns"),
                exemplars: exemplar_ids(k.get("exemplars")),
            });
        }
        for c in doc.get("conns").and_then(Json::as_arr).unwrap_or(&[]) {
            ev.conns.push(ConnRow {
                conn: c.str("conn").to_string(),
                dominant: c.str("dominant").to_string(),
                worst_e2e_ns: c.num("worst_e2e_ns") as u64,
                worst_trace_id: c.str("worst_trace_id").to_string(),
                worst_dominant: c.str("worst_dominant").to_string(),
            });
        }
        ev.e2e_exemplars = exemplar_ids(doc.get("e2e_exemplars"));
        Ok(ev)
    }

    /// Merges a `/metrics` exposition into the evidence.
    pub fn with_metrics(mut self, exposition: &str) -> Evidence {
        for (k, v) in parse_exposition(exposition) {
            self.metrics.insert(k, v);
        }
        self
    }

    fn metric(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }
}

/// One ranked diagnosis.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The candidate cause.
    pub cause: Cause,
    /// Blended score in `[0, ~1.2]`; higher = more likely.
    pub score: f64,
    /// Human-readable evidence lines backing the score.
    pub evidence: Vec<String>,
    /// A trace id (`"0x..."`) whose critical path exhibits the cause.
    pub exemplar: Option<String>,
}

/// Critical-path self-time share blended with dominant-request breadth:
/// a cause needs sustained mass across requests, not one outlier.
const SHARE_WEIGHT: f64 = 0.6;
const DOMINANCE_WEIGHT: f64 = 0.4;
/// Corroborating-metric bonus sizes. Kept small: metrics break ties and
/// confirm, the critical path itself carries the verdict.
const STRONG_BONUS: f64 = 0.10;
const WEAK_BONUS: f64 = 0.05;
/// Cache-thrash weights. The cause owns no critical-path stage — a
/// thrashing cache is the *absence* of cache_hit time — so its score is
/// built from the churn counters alone, scaled so a full-blown miss
/// storm (every store evicted, every lookup missing) outranks the
/// ordinary datapath causes of a miss-dominated run.
const CACHE_CHURN_WEIGHT: f64 = 0.4;
const CACHE_MISS_WEIGHT: f64 = 0.3;

fn pct(v: f64) -> String {
    format!("{:.1}%", 100.0 * v)
}

/// Picks the exemplar that best exhibits `cause`: an aggregate cell whose
/// dominant stage belongs to the cause (largest first), then a
/// connection whose worst request was dominated by it, then the global
/// worst-latency exemplar as a last resort.
fn pick_exemplar(cause: Cause, ev: &Evidence) -> Option<String> {
    let owned = cause.stages();
    let mut cells: Vec<&KeyRow> = ev
        .keys
        .iter()
        .filter(|k| owned.contains(&k.dominant.as_str()) && !k.exemplars.is_empty())
        .collect();
    cells.sort_by_key(|c| std::cmp::Reverse(c.requests));
    if let Some(cell) = cells.first() {
        return cell.exemplars.first().cloned();
    }
    let mut conns: Vec<&ConnRow> = ev
        .conns
        .iter()
        .filter(|c| owned.contains(&c.worst_dominant.as_str()) && !c.worst_trace_id.is_empty())
        .collect();
    conns.sort_by_key(|c| std::cmp::Reverse(c.worst_e2e_ns));
    if let Some(conn) = conns.first() {
        return Some(conn.worst_trace_id.clone());
    }
    ev.e2e_exemplars.first().cloned()
}

fn score_one(cause: Cause, ev: &Evidence) -> Finding {
    let owned = cause.stages();
    let mut share = 0.0;
    let mut dominant = 0u64;
    let mut evidence = Vec::new();
    for st in &ev.stages {
        if !owned.contains(&st.stage.as_str()) {
            continue;
        }
        share += st.share;
        dominant += st.dominant_count;
        if st.self_ns_total > 0 {
            let mut line = format!(
                "{}: {} of critical-path time, dominant in {}/{} requests",
                st.stage,
                pct(st.share),
                st.dominant_count,
                ev.finalized
            );
            if st.over_budget_count > 0 {
                line.push_str(&format!(", over budget in {}", st.over_budget_count));
            }
            evidence.push(line);
        }
    }
    let dominance = if ev.finalized > 0 {
        dominant as f64 / ev.finalized as f64
    } else {
        0.0
    };
    let mut score = SHARE_WEIGHT * share + DOMINANCE_WEIGHT * dominance;

    // Corroborating metrics: independent counters that back the story.
    let mut bonus = |amount: f64, line: String| {
        score += amount;
        evidence.push(line);
    };
    match cause {
        Cause::CreditStarvation => {
            let stalls = ev.metric("rpc_credit_stalls_total");
            if stalls > 0.0 {
                bonus(STRONG_BONUS, format!("rpc_credit_stalls_total={stalls:.0}"));
            }
            let credits = ev.metric("rpc_credits");
            if ev.metrics.contains_key("rpc_credits") && credits <= 1.0 {
                bonus(
                    WEAK_BONUS,
                    format!("rpc_credits={credits:.0} (window exhausted)"),
                );
            }
        }
        Cause::SchedContention => {
            let shed = ev.metric("sched_shed_total");
            if shed > 0.0 {
                bonus(STRONG_BONUS, format!("sched_shed_total={shed:.0}"));
            }
            let queued = ev.metric("sched_queue_depth_peak");
            if queued > 0.0 {
                bonus(WEAK_BONUS, format!("sched_queue_depth_peak={queued:.0}"));
            }
        }
        Cause::PcieAmplification => {
            let blocks = ev.metric("rpc_blocks_sent_total");
            let responses = ev.metric("rpc_responses_total");
            if responses > 0.0 && blocks / responses > 1.5 {
                bonus(
                    STRONG_BONUS,
                    format!(
                        "block amplification {:.2}x (blocks/responses)",
                        blocks / responses
                    ),
                );
            }
        }
        Cause::HostDispatch => {
            let host = ev.metric("policy_route_total{route=\"host\"}");
            let total = ev.metric("policy_route_total");
            if total > 0.0 && host / total > 0.5 {
                bonus(
                    WEAK_BONUS,
                    format!("{} of routed requests on the host path", pct(host / total)),
                );
            }
        }
        Cause::LeaseFailover => {
            let failovers =
                ev.metric("session_failovers_total") + ev.metric("terminator_failovers_total");
            if failovers > 0.0 {
                bonus(STRONG_BONUS, format!("failovers={failovers:.0}"));
            }
            let lease = ev
                .metric("session_lease_state")
                .max(ev.metric("terminator_lease_state"));
            if lease > 0.0 {
                bonus(WEAK_BONUS, format!("lease_state={lease:.0} (not live)"));
            }
        }
        Cause::CacheThrash => {
            let hits = ev.metric("cache_hits_total");
            let misses = ev.metric("cache_misses_total");
            let stores = ev.metric("cache_stores_total");
            let evictions = ev.metric("cache_evictions_total");
            let expired = ev.metric("cache_expired_total");
            // Only score when the cache is actually in the datapath; a
            // run without a bound cache must not rank this cause at all.
            if stores > 0.0 || hits + misses > 0.0 {
                let churn = (evictions / stores.max(1.0)).min(1.0);
                if evictions > 0.0 {
                    bonus(
                        CACHE_CHURN_WEIGHT * churn,
                        format!(
                            "cache_evictions_total={evictions:.0} vs cache_stores_total=\
                             {stores:.0} ({} of stores evicted)",
                            pct(churn)
                        ),
                    );
                }
                let miss_share = misses / (hits + misses).max(1.0);
                if misses > 0.0 {
                    bonus(
                        CACHE_MISS_WEIGHT * miss_share,
                        format!(
                            "cache hit ratio {} ({hits:.0} hits / {misses:.0} misses)",
                            pct(1.0 - miss_share)
                        ),
                    );
                }
                if expired > 0.0 {
                    bonus(
                        WEAK_BONUS,
                        format!("cache_expired_total={expired:.0} (TTL churn)"),
                    );
                }
            }
        }
    }

    Finding {
        cause,
        score,
        evidence,
        exemplar: pick_exemplar(cause, ev),
    }
}

/// Scores every candidate cause and returns the findings ranked
/// most-likely first (ties broken by presentation order, which lists
/// datapath causes before recovery causes).
pub fn diagnose(ev: &Evidence) -> Vec<Finding> {
    let mut findings: Vec<Finding> = Cause::all().iter().map(|&c| score_one(c, ev)).collect();
    findings.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    findings
}

/// Renders the ranked report the CLI prints.
pub fn render_report(findings: &[Finding], ev: &Evidence) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "pbo_doctor: {} requests attributed, {} candidate causes\n\n",
        ev.finalized,
        findings.len()
    ));
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "#{} {:<20} score {:.3}  {}\n",
            i + 1,
            f.cause.name(),
            f.score,
            f.cause.describe()
        ));
        for line in &f.evidence {
            out.push_str(&format!("     - {line}\n"));
        }
        match &f.exemplar {
            Some(id) => out.push_str(&format!("     exemplar trace {id}\n")),
            None => {
                if f.score > 0.0 {
                    out.push_str("     (no exemplar retained)\n");
                }
            }
        }
    }
    if let Some(top) = findings.first() {
        out.push_str(&format!("\nverdict: {}", top.cause.name()));
        match &top.exemplar {
            Some(id) => out.push_str(&format!(" (see trace {id})\n")),
            None => out.push('\n'),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn starved_evidence() -> Evidence {
        Evidence {
            finalized: 100,
            stages: vec![
                StageRow {
                    stage: "credit_wait".into(),
                    self_ns_total: 700_000,
                    share: 0.7,
                    dominant_count: 80,
                    over_budget_count: 75,
                },
                StageRow {
                    stage: "host_dispatch".into(),
                    self_ns_total: 200_000,
                    share: 0.2,
                    dominant_count: 15,
                    over_budget_count: 2,
                },
                StageRow {
                    stage: "deserialize".into(),
                    self_ns_total: 100_000,
                    share: 0.1,
                    dominant_count: 5,
                    over_budget_count: 0,
                },
            ],
            keys: vec![KeyRow {
                tenant: "heavy".into(),
                class: "ints512".into(),
                route: "dpu".into(),
                dominant: "credit_wait".into(),
                requests: 80,
                mean_e2e_ns: 900_000.0,
                exemplars: vec!["0x00000000deadbeef".into()],
            }],
            conns: vec![],
            e2e_exemplars: vec!["0x0000000000000001".into()],
            metrics: BTreeMap::new(),
        }
    }

    #[test]
    fn credit_starvation_ranks_first_with_its_exemplar() {
        let ev = starved_evidence();
        let findings = diagnose(&ev);
        assert_eq!(findings[0].cause, Cause::CreditStarvation);
        // The exemplar comes from the credit_wait-dominated aggregate
        // cell, not the global worst-latency pool.
        assert_eq!(findings[0].exemplar.as_deref(), Some("0x00000000deadbeef"));
        assert!(findings[0].score > findings[1].score);
        assert!(findings[0]
            .evidence
            .iter()
            .any(|l| l.contains("credit_wait") && l.contains("80/100")));
    }

    #[test]
    fn corroborating_metric_breaks_a_tie() {
        // Two causes with identical critical-path mass; only the
        // failover story has a corroborating counter.
        let mut ev = Evidence {
            finalized: 10,
            stages: vec![
                StageRow {
                    stage: "sched_wait".into(),
                    self_ns_total: 500,
                    share: 0.5,
                    dominant_count: 5,
                    over_budget_count: 0,
                },
                StageRow {
                    stage: "failover".into(),
                    self_ns_total: 500,
                    share: 0.5,
                    dominant_count: 5,
                    over_budget_count: 0,
                },
            ],
            ..Evidence::default()
        };
        ev.metrics.insert("session_failovers_total".into(), 3.0);
        let findings = diagnose(&ev);
        assert_eq!(findings[0].cause, Cause::LeaseFailover);
        assert!(findings[0]
            .evidence
            .iter()
            .any(|l| l.contains("failovers=3")));
    }

    #[test]
    fn exemplar_falls_back_to_conn_then_global() {
        let mut ev = starved_evidence();
        ev.keys.clear();
        ev.conns.push(ConnRow {
            conn: "c0".into(),
            dominant: "credit_wait".into(),
            worst_e2e_ns: 1_000_000,
            worst_trace_id: "0x00000000000000aa".into(),
            worst_dominant: "credit_wait".into(),
        });
        let findings = diagnose(&ev);
        assert_eq!(
            findings[0].exemplar.as_deref(),
            Some("0x00000000000000aa"),
            "conn fallback"
        );
        ev.conns.clear();
        let findings = diagnose(&ev);
        assert_eq!(
            findings[0].exemplar.as_deref(),
            Some("0x0000000000000001"),
            "global fallback"
        );
    }

    #[test]
    fn evidence_parses_from_attrib_document() {
        let doc = r#"{
            "finalized": 3, "evicted": 0, "truncated_spans": 0,
            "stages": [{"stage":"credit_wait","self_ns_total":900,"share":0.900,
                        "dominant_count":3,"budget_ns":50000,"over_budget_count":0}],
            "keys": [{"tenant":"t","class":"c","route":"dpu","dominant":"credit_wait",
                      "requests":3,"e2e_sum_ns":3000,"dominant_self_sum_ns":900,
                      "max_e2e_ns":1200,"mean_e2e_ns":1000.000,"dominant_share":0.300,
                      "exemplars":[{"trace_id":"0x0000000000000042","e2e_ns":1200}]}],
            "conns": [{"conn":"c0","requests":3,"dominant":"credit_wait",
                       "worst_e2e_ns":1200,"worst_trace_id":"0x0000000000000042",
                       "worst_dominant":"credit_wait"}],
            "e2e_exemplars": [{"trace_id":"0x0000000000000042","e2e_ns":1200}],
            "tail": null
        }"#;
        let ev = Evidence::from_attrib(&json::parse(doc).unwrap()).unwrap();
        assert_eq!(ev.finalized, 3);
        assert_eq!(ev.stages[0].stage, "credit_wait");
        assert_eq!(ev.keys[0].exemplars, vec!["0x0000000000000042".to_string()]);
        assert_eq!(ev.conns[0].worst_dominant, "credit_wait");
        let findings = diagnose(&ev);
        assert_eq!(findings[0].cause, Cause::CreditStarvation);
        assert_eq!(findings[0].exemplar.as_deref(), Some("0x0000000000000042"));
    }

    #[test]
    fn cache_thrash_scores_only_when_cache_metrics_present() {
        // Without cache counters the cause is inert — the pre-cache
        // rankings are untouched.
        let findings = diagnose(&starved_evidence());
        let thrash = findings
            .iter()
            .find(|f| f.cause == Cause::CacheThrash)
            .unwrap();
        assert_eq!(thrash.score, 0.0);
        assert!(thrash.evidence.is_empty());

        // A miss storm with every store evicted and TTL churn outranks
        // the ordinary datapath causes of the same run: every request
        // pays the deserialize path, which no other cause owns.
        let ev = Evidence {
            finalized: 300,
            stages: vec![
                StageRow {
                    stage: "deserialize".into(),
                    self_ns_total: 800_000,
                    share: 0.8,
                    dominant_count: 240,
                    over_budget_count: 0,
                },
                StageRow {
                    stage: "host_dispatch".into(),
                    self_ns_total: 200_000,
                    share: 0.2,
                    dominant_count: 60,
                    over_budget_count: 0,
                },
            ],
            ..Evidence::default()
        }
        .with_metrics(
            "cache_hits_total{tenant=\"zipf\"} 3\n\
             cache_misses_total{tenant=\"zipf\"} 297\n\
             cache_stores_total{tenant=\"zipf\"} 290\n\
             cache_evictions_total{tenant=\"zipf\"} 288\n\
             cache_expired_total 288\n",
        );
        let findings = diagnose(&ev);
        assert_eq!(findings[0].cause, Cause::CacheThrash, "{findings:?}");
        let ev_lines = &findings[0].evidence;
        assert!(
            ev_lines.iter().any(|l| l.contains("of stores evicted")),
            "{ev_lines:?}"
        );
        assert!(
            ev_lines.iter().any(|l| l.contains("cache hit ratio")),
            "{ev_lines:?}"
        );
        assert!(
            ev_lines.iter().any(|l| l.contains("TTL churn")),
            "{ev_lines:?}"
        );
    }

    #[test]
    fn healthy_cache_does_not_rank_thrash_first() {
        // High hit ratio, a handful of capacity evictions: the cache is
        // doing its job, and the verdict stays with the datapath.
        let ev = starved_evidence().with_metrics(
            "cache_hits_total 900\n\
             cache_misses_total 100\n\
             cache_stores_total 100\n\
             cache_evictions_total 4\n",
        );
        let findings = diagnose(&ev);
        assert_eq!(findings[0].cause, Cause::CreditStarvation);
        let thrash = findings
            .iter()
            .find(|f| f.cause == Cause::CacheThrash)
            .unwrap();
        assert!(thrash.score < 0.1, "score {}", thrash.score);
    }

    #[test]
    fn metrics_merge_and_expect_vocabulary() {
        let ev = starved_evidence().with_metrics("rpc_credit_stalls_total 41\n");
        let findings = diagnose(&ev);
        assert!(findings[0]
            .evidence
            .iter()
            .any(|l| l.contains("rpc_credit_stalls_total=41")));
        let report = render_report(&findings, &ev);
        assert!(report.contains("verdict: credit_starvation"), "{report}");
        assert!(report.contains("0x00000000deadbeef"), "{report}");
    }
}
