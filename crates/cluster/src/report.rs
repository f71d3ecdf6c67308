//! Measured outcome of a cluster run.

use dcs_sim::Histogram;

use crate::service::{CacheDecision, Request};

/// What one node contributed within the measurement window.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodePerf {
    /// Requests completed by the node.
    pub requests: u64,
    /// Payload bytes the node served.
    pub bytes: u64,
    /// Requests shed at admission (queue full).
    pub rejected: u64,
    /// Requests that completed with an error.
    pub failures: u64,
    /// Requests lost on the node (crashed or hung with them in flight,
    /// retry budget exhausted).
    pub lost: u64,
    /// Node CPU utilization (fraction of all cores) over the window.
    pub cpu_utilization: f64,
}

/// What one tenant of the store layer experienced over the window.
///
/// A tenant's *SLO attainment* is the fraction of its resolved requests
/// that were both served *and* under its latency objective — a denied or
/// shed request counts against the SLO just like a slow one, so shedding
/// a tenant cannot flatter its numbers.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TenantPerf {
    /// Tenant name (namespace).
    pub name: String,
    /// Requests served successfully.
    pub ok: u64,
    /// Requests denied: shed at admission, unroutable, or lost in flight.
    pub denied: u64,
    /// Payload bytes served.
    pub bytes: u64,
    /// GETs answered from a node's read cache (NVMe path skipped).
    pub cache_hits: u64,
    /// GETs that went to flash.
    pub cache_misses: u64,
    /// The tenant's latency objective, ns (0 = no SLO declared).
    pub slo_ns: u64,
    /// Served requests that finished within `slo_ns`.
    pub slo_met: u64,
    /// End-to-end latency of the tenant's served requests, ns.
    pub latency: Histogram,
}

impl TenantPerf {
    /// Fraction of resolved requests served within the SLO (vacuously 1
    /// when the tenant saw no traffic; equals availability when no SLO is
    /// declared because every served request then counts as met).
    pub fn slo_attainment(&self) -> f64 {
        ratio(self.slo_met, self.ok + self.denied)
    }

    /// Cache hit rate over the tenant's GETs (0 when it issued none).
    pub fn cache_hit_rate(&self) -> f64 {
        let gets = self.cache_hits + self.cache_misses;
        if gets == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / gets as f64
    }

    /// A percentile of the tenant's latency in microseconds.
    pub fn latency_us(&self, p: f64) -> f64 {
        self.latency.percentile(p).unwrap_or(0) as f64 / 1000.0
    }
}

/// Availability and tail latency over one slice of the window (the slices
/// are before / during / after the injected node failure).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhasePerf {
    /// Requests that arrived in the phase and were resolved (ok or not).
    pub requests: u64,
    /// Of those, requests served successfully.
    pub ok: u64,
    /// p99 end-to-end latency of the phase's served requests, ns.
    pub p99_ns: u64,
}

impl PhasePerf {
    /// Fraction of the phase's resolved requests that were served.
    pub fn availability(&self) -> f64 {
        if self.requests == 0 {
            return 1.0;
        }
        self.ok as f64 / self.requests as f64
    }
}

/// Cluster-wide measurements over the (warm-up-trimmed) window.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClusterReport {
    /// Measured span, ns.
    pub span_ns: u64,
    /// Requests completed cluster-wide.
    pub requests: u64,
    /// Payload bytes served cluster-wide (goodput numerator).
    pub bytes: u64,
    /// Requests shed at admission cluster-wide.
    pub rejected: u64,
    /// Requests completed with an error.
    pub failures: u64,
    /// GETs served successfully / denied (shed, unroutable, or lost).
    pub get_ok: u64,
    /// See [`get_ok`](Self::get_ok).
    pub get_denied: u64,
    /// PUTs served successfully / denied.
    pub put_ok: u64,
    /// See [`put_ok`](Self::put_ok).
    pub put_denied: u64,
    /// Hedged second GETs issued, and how many beat the primary leg.
    pub hedged: u64,
    /// See [`hedged`](Self::hedged).
    pub hedge_wins: u64,
    /// Requests re-dispatched to another replica after their node died.
    pub retried: u64,
    /// Requests lost outright (in flight on a failed node, budget spent).
    pub lost: u64,
    /// PUTs written to a surviving replica because the primary was
    /// unroutable.
    pub put_fallbacks: u64,
    /// Healthy → Degraded transitions observed (contained-error bursts:
    /// corruptions the node detected and recovered in place).
    pub degraded_marks: u64,
    /// Crash-to-`Dead` detection latency, when a node fault was injected
    /// and detected.
    pub detection_ns: Option<u64>,
    /// Fault-to-`Slow` differential-detection latency, when a gray fault
    /// was injected on a node and the EWMA comparison caught it.
    pub slow_detection_ns: Option<u64>,
    /// Healthy → Slow evictions by differential detection.
    pub slow_evictions: u64,
    /// Slow → Healthy readmissions after the hysteresis cleared.
    pub slow_readmissions: u64,
    /// Bytes re-replicated off the dead node.
    pub repair_bytes: u64,
    /// Detection-to-repair-complete latency, when repair ran.
    pub repair_ns: Option<u64>,
    /// Bytes streamed back to a rejoining node by anti-entropy repair.
    pub rejoin_bytes: u64,
    /// Restart-to-routable latency of the rejoin lifecycle, when a node
    /// rejoined.
    pub rejoin_ns: Option<u64>,
    /// Bytes of cache warm-up transfer to a rejoining node (store runs).
    pub warmup_bytes: u64,
    /// Availability before / during / after the failure window, when a
    /// node fault was injected.
    pub phases: Option<[PhasePerf; 3]>,
    /// GETs answered from a node read cache cluster-wide (store runs).
    pub cache_hits: u64,
    /// GETs that missed every cache and went to flash (store runs).
    pub cache_misses: u64,
    /// Cached GET responses that raced a write and returned bytes older
    /// than the committed version. Must be zero: the store invalidates on
    /// write commit, and the failover suite asserts it stays zero.
    pub stale_served: u64,
    /// End-to-end request latency (arrival at the front end to response
    /// fully received back at the front end), ns.
    pub latency: Histogram,
    /// Per-node contributions, indexed by node id.
    pub per_node: Vec<NodePerf>,
    /// Per-tenant contributions (store runs; empty for the Swift mix).
    pub per_tenant: Vec<TenantPerf>,
}

impl ClusterReport {
    /// Served goodput in Gbps (completed, non-failed payload only).
    pub fn goodput_gbps(&self) -> f64 {
        if self.span_ns == 0 {
            return 0.0;
        }
        self.bytes as f64 * 8.0 / self.span_ns as f64
    }

    /// Fraction of admitted-or-shed requests that were shed.
    pub fn rejection_rate(&self) -> f64 {
        let offered = self.requests + self.rejected + self.failures;
        if offered == 0 {
            return 0.0;
        }
        self.rejected as f64 / offered as f64
    }

    /// Fraction of resolved GETs that were served (1.0 when no GETs ran).
    pub fn get_availability(&self) -> f64 {
        ratio(self.get_ok, self.get_ok + self.get_denied)
    }

    /// Fraction of resolved PUTs that were served (write availability).
    pub fn put_availability(&self) -> f64 {
        ratio(self.put_ok, self.put_ok + self.put_denied)
    }

    /// Fraction of all resolved requests that were served.
    pub fn availability(&self) -> f64 {
        ratio(
            self.get_ok + self.put_ok,
            self.get_ok + self.get_denied + self.put_ok + self.put_denied,
        )
    }

    /// Imbalance of served bytes across nodes: max node over mean node
    /// (1.0 = perfectly even). Zero-traffic runs report 1.0.
    pub fn imbalance(&self) -> f64 {
        if self.per_node.is_empty() || self.bytes == 0 {
            return 1.0;
        }
        let max = self.per_node.iter().map(|n| n.bytes).max().unwrap_or(0) as f64;
        let mean = self.bytes as f64 / self.per_node.len() as f64;
        max / mean
    }

    /// A percentile of end-to-end latency in microseconds (0 if no
    /// samples).
    pub fn latency_us(&self, p: f64) -> f64 {
        self.latency.percentile(p).unwrap_or(0) as f64 / 1000.0
    }

    /// Cluster-wide cache hit rate over GETs that reached a cache
    /// decision (0 when the run had no cache).
    pub fn cache_hit_rate(&self) -> f64 {
        let gets = self.cache_hits + self.cache_misses;
        if gets == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / gets as f64
    }
}

/// Why a resolved request went unserved.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Denial {
    /// Shed at admission, or no replica was routable.
    Rejected,
    /// Stranded on a failed node with its retry budget spent.
    Lost,
    /// Its node completed it with an error.
    Failed,
}

impl ClusterReport {
    /// Tallies a resolved request that was not served, and `node`'s
    /// share when it got as far as a node.
    pub(crate) fn tally_denied<Op>(&mut self, req: &Request<Op>, node: Option<usize>, why: Denial) {
        if req.write {
            self.put_denied += 1;
        } else {
            self.get_denied += 1;
        }
        if let Some(t) = self.per_tenant.get_mut(req.stream) {
            t.denied += 1;
        }
        let (total, per_node): (&mut u64, fn(&mut NodePerf) -> &mut u64) = match why {
            Denial::Rejected => (&mut self.rejected, |p| &mut p.rejected),
            Denial::Lost => (&mut self.lost, |p| &mut p.lost),
            Denial::Failed => (&mut self.failures, |p| &mut p.failures),
        };
        *total += 1;
        if let Some(n) = node {
            *per_node(&mut self.per_node[n]) += 1;
        }
    }

    /// Tallies a request `node` served in `latency_ns` end to end;
    /// `hedge` when the winning leg was the hedged copy.
    pub(crate) fn tally_served<Op>(
        &mut self,
        node: usize,
        req: &Request<Op>,
        latency_ns: u64,
        hedge: bool,
        cache: Option<CacheDecision>,
    ) {
        let len = req.len as u64;
        self.requests += 1;
        self.bytes += len;
        self.per_node[node].requests += 1;
        self.per_node[node].bytes += len;
        self.latency.record(latency_ns);
        if req.write {
            self.put_ok += 1;
        } else {
            self.get_ok += 1;
        }
        if hedge {
            self.hedge_wins += 1;
        }
        let hit = cache.map(|c| c.hit);
        match hit {
            Some(true) => self.cache_hits += 1,
            Some(false) => self.cache_misses += 1,
            None => {}
        }
        if let Some(t) = self.per_tenant.get_mut(req.stream) {
            t.ok += 1;
            t.bytes += len;
            t.latency.record(latency_ns);
            if t.slo_ns == 0 || latency_ns <= t.slo_ns {
                t.slo_met += 1;
            }
            match hit {
                Some(true) => t.cache_hits += 1,
                Some(false) => t.cache_misses += 1,
                None => {}
            }
        }
    }
}

fn ratio(num: u64, denom: u64) -> f64 {
    if denom == 0 {
        return 1.0;
    }
    num as f64 / denom as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ClusterReport {
        let mut latency = Histogram::new();
        for v in [100_000u64, 200_000, 300_000, 4_000_000] {
            latency.record(v);
        }
        ClusterReport {
            span_ns: 1_000_000_000,
            requests: 4,
            bytes: 500_000_000,
            rejected: 1,
            failures: 0,
            latency,
            per_node: vec![
                NodePerf {
                    requests: 3,
                    bytes: 400_000_000,
                    ..Default::default()
                },
                NodePerf {
                    requests: 1,
                    bytes: 100_000_000,
                    ..Default::default()
                },
            ],
            ..ClusterReport::default()
        }
    }

    #[test]
    fn goodput_rejection_imbalance() {
        let r = report();
        assert!((r.goodput_gbps() - 4.0).abs() < 1e-9);
        assert!((r.rejection_rate() - 0.2).abs() < 1e-9);
        // max 400MB over mean 250MB.
        assert!((r.imbalance() - 1.6).abs() < 1e-9);
        assert!(r.latency_us(50.0) >= 200.0);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = ClusterReport::default();
        assert_eq!(r.goodput_gbps(), 0.0);
        assert_eq!(r.rejection_rate(), 0.0);
        assert_eq!(r.imbalance(), 1.0);
        assert_eq!(r.latency_us(99.0), 0.0);
        assert_eq!(r.availability(), 1.0, "no traffic is vacuously available");
    }

    #[test]
    fn availability_counts_denied_and_lost() {
        let r = ClusterReport {
            get_ok: 98,
            get_denied: 2,
            put_ok: 49,
            put_denied: 1,
            ..ClusterReport::default()
        };
        assert!((r.get_availability() - 0.98).abs() < 1e-9);
        assert!((r.put_availability() - 0.98).abs() < 1e-9);
        assert!((r.availability() - 0.98).abs() < 1e-9);
    }

    #[test]
    fn tenant_slo_and_cache_accounting() {
        let mut latency = Histogram::new();
        for v in [100_000u64, 150_000, 900_000] {
            latency.record(v);
        }
        let t = TenantPerf {
            name: "gold".into(),
            ok: 3,
            denied: 1,
            bytes: 1 << 20,
            cache_hits: 2,
            cache_misses: 2,
            slo_ns: 500_000,
            slo_met: 2,
            latency,
        };
        // 2 of 4 resolved requests met the SLO (one slow, one denied).
        assert!((t.slo_attainment() - 0.5).abs() < 1e-9);
        assert!((t.cache_hit_rate() - 0.5).abs() < 1e-9);
        assert!(t.latency_us(50.0) >= 100.0);
        // Vacuous cases.
        assert_eq!(TenantPerf::default().slo_attainment(), 1.0);
        assert_eq!(TenantPerf::default().cache_hit_rate(), 0.0);
    }

    #[test]
    fn phase_availability_is_vacuous_when_empty() {
        assert_eq!(PhasePerf::default().availability(), 1.0);
        let p = PhasePerf {
            requests: 4,
            ok: 3,
            p99_ns: 0,
        };
        assert!((p.availability() - 0.75).abs() < 1e-9);
    }
}
