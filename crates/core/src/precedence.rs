//! Routing precedence: which authority steers one request, and what the
//! DPU response cache may do with it. Four rules (DESIGN.md §13,
//! "Terminator composition"), strictly ordered, implemented here once for
//! both callers — the terminator's poll loop and
//! [`crate::ResilientSession`]:
//!
//! 1. **Lease.** Dead → host-direct; Rejoining → only ramp probes touch
//!    the DPU.
//! 2. **Breaker and cache.** An open breaker forces the serialized
//!    (degraded) route except for its periodic probes; the cache is looked
//!    up only while the lease is Live/Suspect and the breaker closed.
//! 3. **Policy.** Consulted — and therefore counted — once per request,
//!    and only when rules 1–2 left both routes open.
//! 4. **Stores.** Only native-route, status-0, non-degraded replies
//!    populate the cache; a failover or a breaker trip flushes it.

use crate::terminator::ForwardMode;
use pbo_cache::{ResponseCache, StoreOutcome};
use pbo_policy::Route;
use pbo_rpcrdma::LeaseState;
use pbo_trace::{stages, Span, SpanSink, Tracer};

/// The authority that routed a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Authority {
    /// Rule 1: the lease is Dead, or Rejoining and this is not a probe.
    Lease,
    /// Rule 1: a rejoin-ramp probe of the rebuilt DPU datapath.
    Ramp,
    /// Rule 2: the open breaker degraded this request.
    Breaker,
    /// Rule 2: the open breaker's periodic probe of the configured route.
    BreakerProbe,
    /// Rule 3: the per-class policy chose (a counted policy decision).
    Policy,
    /// Nothing above had a say: the connection's fixed [`ForwardMode`].
    Mode,
}

/// One routing decision and who made it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// How the request crosses the fabric: as a native object the DPU
    /// built (`Offload`) or as serialized bytes the host deserializes
    /// (`Forward`). `None`: not at all — [`crate::HostDirect`] serves it.
    pub fabric: Option<ForwardMode>,
    /// The authority that chose.
    pub by: Authority,
}

impl Verdict {
    /// The after-the-fact degrade: DPU-side deserialization failed on a
    /// native attempt, so the request is re-issued serialized and counts
    /// against the breaker.
    pub const DEGRADED: Verdict = Verdict {
        fabric: Some(ForwardMode::Forward),
        by: Authority::Breaker,
    };

    /// Rule 4: whether the reply to a request of a cacheable class routed
    /// this way may populate the cache.
    pub fn may_store(self) -> bool {
        use Authority::{BreakerProbe, Mode, Policy};
        self.fabric == Some(ForwardMode::Offload) && matches!(self.by, BreakerProbe | Policy | Mode)
    }
}

/// Rule 2: the cache answers only while the offload path is
/// authoritative.
pub fn may_lookup(lease: LeaseState, breaker_open: bool) -> bool {
    matches!(lease, LeaseState::Live | LeaseState::Suspect) && !breaker_open
}

/// Rules 1–3 for one request of a connection configured for `mode`. The
/// stateful authorities are closures so that each is asked at most once
/// and only when the rules above it left it a choice: `ramp_probe` while
/// Rejoining, `breaker_probe` while the breaker is open, `policy` (`None`
/// = none installed) when both routes are open.
pub fn route(
    lease: LeaseState,
    breaker_open: bool,
    mode: ForwardMode,
    ramp_probe: impl FnOnce() -> bool,
    breaker_probe: impl FnOnce() -> bool,
    policy: impl FnOnce() -> Option<Route>,
) -> Verdict {
    use Authority::*;
    let (fabric, by) = match lease {
        LeaseState::Dead => (None, Lease),
        LeaseState::Rejoining if ramp_probe() => (Some(mode), Ramp),
        LeaseState::Rejoining => (None, Lease),
        _ if breaker_open && breaker_probe() => (Some(mode), BreakerProbe),
        _ if breaker_open => (Some(ForwardMode::Forward), Breaker),
        // A forwarding connection has one route: nothing to pick between.
        _ if mode == ForwardMode::Forward => (Some(mode), Mode),
        _ => match policy() {
            Some(Route::Host) => (Some(ForwardMode::Forward), Policy),
            // The control loop never chooses `Cached` (the cache layer
            // reports it after the fact): anything else is the DPU.
            Some(Route::Dpu | Route::Cached) => (Some(ForwardMode::Offload), Policy),
            None => (Some(mode), Mode),
        },
    };
    Verdict { fabric, by }
}

/// Rule 4, the flush half: a failover or a breaker trip drops everything
/// the failing path produced; the epoch bump the flush carries turns
/// every [`ReplyStore`] armed before it into a no-op.
pub fn flush_on_fault(cache: Option<&ResponseCache>) {
    if let Some(cache) = cache {
        cache.flush();
    }
}

/// Rule 4, the store half: captured when a cacheable request enters the
/// datapath, run on its reply. The epoch captured here dies with any
/// intervening flush, so replays and late replies cannot repopulate a
/// cache a fault just emptied.
pub struct ReplyStore {
    cache: ResponseCache,
    epoch: u64,
    tenant: String,
    proc_id: u16,
    wire: Vec<u8>,
    trace: Option<(Tracer, SpanSink)>,
    trace_id: u64,
}

impl ReplyStore {
    /// `Some` when `proc_id` is a declared-cacheable class.
    pub fn arm(cache: &ResponseCache, tenant: &str, proc_id: u16, wire: &[u8]) -> Option<Self> {
        cache.is_cachable(proc_id).then(|| Self {
            cache: cache.clone(),
            epoch: cache.epoch(),
            tenant: tenant.to_string(),
            proc_id,
            wire: wire.to_vec(),
            trace: None,
            trace_id: 0,
        })
    }

    /// Records each store on `trace` as a `cache_store` span under
    /// `trace_id`.
    pub fn traced(mut self, trace: Option<(Tracer, SpanSink)>, trace_id: u64) -> Self {
        (self.trace, self.trace_id) = (trace, trace_id);
        self
    }

    /// Stores a status-0 reply (`now_ns` on the cache's clock).
    pub fn on_reply(&self, status: u16, payload: &[u8], now_ns: u64) {
        let (tenant, wire) = (&self.tenant, &self.wire);
        let stored = status == 0
            && self
                .cache
                .store(tenant, self.proc_id, wire, payload, now_ns, self.epoch)
                == StoreOutcome::Stored;
        if let (true, Some((tracer, sink))) = (stored, &self.trace) {
            let t_ns = tracer.now_ns();
            sink.record(Span {
                trace_id: self.trace_id,
                stage: stages::CACHE_STORE,
                start_ns: t_ns,
                end_ns: t_ns,
                bytes: payload.len() as u64,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    const LEASES: [LeaseState; 4] = [
        LeaseState::Live,
        LeaseState::Suspect,
        LeaseState::Dead,
        LeaseState::Rejoining,
    ];

    /// The whole input space against expectations written out
    /// independently of `route`'s control flow: lease state × ramp probe ×
    /// breaker open × breaker probe × policy verdict × cacheable × mode.
    #[test]
    fn precedence_table_is_exhaustive() {
        let policies = [None, Some(Route::Dpu), Some(Route::Host)];
        let mut rows = 0;
        for lease in LEASES {
            for ramp in [false, true] {
                for open in [false, true] {
                    for bprobe in [false, true] {
                        for policy in policies {
                            for cacheable in [false, true] {
                                for mode in [ForwardMode::Offload, ForwardMode::Forward] {
                                    check(lease, ramp, open, bprobe, policy, cacheable, mode);
                                    rows += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(rows, 4 * 2 * 2 * 2 * 3 * 2 * 2);
    }

    fn check(
        lease: LeaseState,
        ramp: bool,
        open: bool,
        bprobe: bool,
        policy: Option<Route>,
        cacheable: bool,
        mode: ForwardMode,
    ) {
        let (ramp_asked, breaker_asked, policy_asked) =
            (Cell::new(false), Cell::new(false), Cell::new(false));
        let v = route(
            lease,
            open,
            mode,
            || {
                ramp_asked.set(true);
                ramp
            },
            || {
                breaker_asked.set(true);
                bprobe
            },
            || {
                policy_asked.set(true);
                policy
            },
        );
        let ctx = format!("{lease:?} ramp={ramp} open={open} bprobe={bprobe} {policy:?} {mode:?}");
        let up = matches!(lease, LeaseState::Live | LeaseState::Suspect);
        let (native, serialized) = (Some(ForwardMode::Offload), Some(ForwardMode::Forward));

        // Decision.
        let want = if lease == LeaseState::Dead || (lease == LeaseState::Rejoining && !ramp) {
            None
        } else if lease == LeaseState::Rejoining {
            Some(mode)
        } else if open {
            if bprobe {
                Some(mode)
            } else {
                serialized
            }
        } else if mode == ForwardMode::Forward || policy == Some(Route::Host) {
            serialized
        } else {
            native
        };
        assert_eq!(v.fabric, want, "decision: {ctx}");

        // Each stateful authority is asked exactly when it has a say.
        assert_eq!(ramp_asked.get(), lease == LeaseState::Rejoining, "{ctx}");
        assert_eq!(breaker_asked.get(), up && open, "{ctx}");
        let both_open = up && !open && mode == ForwardMode::Offload;
        assert_eq!(policy_asked.get(), both_open, "{ctx}");
        // Counts as a policy decision only when a policy answered.
        assert_eq!(
            v.by == Authority::Policy,
            both_open && policy.is_some(),
            "{ctx}"
        );

        // Cache: lookups while the offload path is authoritative, stores
        // only for cacheable native replies that no fault response
        // produced (class 1 is declared cacheable, class 2 is not).
        assert_eq!(may_lookup(lease, open), up && !open, "{ctx}");
        let cache = ResponseCache::new(pbo_cache::CacheConfig::default());
        cache.declare_default(1);
        let proc_id = if cacheable { 1 } else { 2 };
        let stores = v.may_store() && ReplyStore::arm(&cache, "t", proc_id, b"").is_some();
        assert_eq!(stores, cacheable && up && v.fabric == native, "{ctx}");
        assert!(!Verdict::DEGRADED.may_store());
    }
}
