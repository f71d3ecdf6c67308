//! # dcs-store — a multi-tenant object-store service layer over the DCS rack
//!
//! `dcs-cluster` answers *what does the HDC Engine buy a rack*; this crate
//! answers the next question up the stack: *what does it buy a serving
//! system with real tenants?* It layers a typed object-store service —
//! GET/PUT/DELETE/SCAN over per-tenant namespaces — on top of the cluster
//! substrate (consistent-hash sharding, ToR switch, per-node admission),
//! and adds the three mechanisms a shared store lives or dies by:
//!
//! * **Workloads** — each tenant runs one of the YCSB A–F mixes
//!   ([`dcs_workloads::ycsb`]) over its own keyspace with its own zipfian
//!   skew, offered load, and arrival process.
//! * **Read caching** — every node fronts its flash with a byte-bounded,
//!   deterministic-LRU read cache ([`ReadCache`]); a hit serves the value
//!   from host DRAM as a `MemRead → NicSend` pipeline, skipping NVMe and
//!   the integrity hash entirely. A scan-resistant admission policy keeps
//!   YCSB-E range scans from flushing the hot set, and version-checked
//!   lookups (invalidated at write commit) keep every hit current — the
//!   report's `stale_served` tripwire counts any would-be violation.
//! * **QoS** — when a node saturates, parked requests are ordered by
//!   start-time weighted fair queueing with per-tenant bounds
//!   ([`FairQueue`](qos::FairQueue)), so a noisy neighbor cannot starve a compliant
//!   tenant of queue space or dispatch share; FIFO is the ablation arm.
//!   Latency-critical tenants may additionally ride the ToR's
//!   strict-priority lane ([`Lane::Priority`](dcs_cluster::Lane)). Each
//!   tenant's p50/p99/p999 and SLO attainment land in the
//!   [`ClusterReport`]'s per-tenant rows.
//!
//! The crate has no request lifecycle of its own. [`StoreService`] is a
//! [`Service`](dcs_cluster::Service) run by the rack's
//! [`ClusterDriver`](dcs_cluster::ClusterDriver), so the store gets the
//! rack's health layer unchanged: [`StoreConfig::node_faults`] crashes
//! are detected by heartbeat probes, in-flight requests fail over, reads
//! are hedged, fail-slow nodes are caught by the differential detector,
//! and a restarted node rejoins with its cache warmed from the
//! survivors'.
//!
//! ```
//! use dcs_store::{run_store, StoreConfig, TenantSpec};
//! use dcs_store::cache::{Admission, CacheConfig};
//! use dcs_workloads::ycsb::YcsbWorkload;
//!
//! let report = run_store(&StoreConfig {
//!     nodes: 2,
//!     tenants: vec![TenantSpec::new("hot", YcsbWorkload::C)],
//!     cache: CacheConfig { capacity_bytes: 64 << 20, admission: Admission::ScanResistant },
//!     duration_ns: dcs_sim::time::ms(3),
//!     warmup_ns: dcs_sim::time::ms(1),
//!     ..StoreConfig::default()
//! });
//! assert_eq!(report.stale_served, 0);
//! ```

pub mod api;
pub mod cache;
pub mod service;
/// Admission queueing, shared with the rack: it lives in `dcs-cluster`.
pub use dcs_cluster::qos;

pub use api::{StoreConfig, TenantSpec};
pub use cache::{Admission, CacheConfig, ReadCache};
pub use service::StoreService;

use dcs_cluster::{build_frontend, Cluster, ClusterOutcome, ClusterReport};

/// The finished store report, left in the world like the rack's.
pub type StoreOutcome = ClusterOutcome;

/// Builds the store: N server/access node pairs (named `s{i}` / `s{i}-fe`,
/// which keys their CPU-stats pools) and the started front end, through
/// the cluster's bring-up. Device bring-up is settled before traffic
/// begins.
///
/// # Panics
///
/// Panics if `cfg.nodes` is zero or `cfg.tenants` is empty.
pub fn build_store(cfg: &StoreConfig) -> Cluster {
    build_frontend(&cfg.cluster_config(), "s", "store-frontend", |rng| {
        StoreService::new(cfg, rng)
    })
}

/// Builds the store, runs it to completion, and returns the measured
/// report (per-tenant rows populated).
///
/// # Panics
///
/// Panics if the simulation fails to drain or no report was produced.
pub fn run_store(cfg: &StoreConfig) -> ClusterReport {
    build_store(cfg).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_workloads::ycsb::YcsbWorkload;

    fn quick_cfg(tenants: Vec<TenantSpec>) -> StoreConfig {
        StoreConfig {
            nodes: 2,
            tenants,
            duration_ns: dcs_sim::time::ms(4),
            warmup_ns: dcs_sim::time::ms(1),
            ..StoreConfig::default()
        }
    }

    #[test]
    fn two_tenant_smoke_populates_per_tenant_rows() {
        let mut gold = TenantSpec::new("gold", YcsbWorkload::C);
        gold.offered_gbps = 1.5;
        let mut mixed = TenantSpec::new("mixed", YcsbWorkload::A);
        mixed.offered_gbps = 1.0;
        let r = run_store(&quick_cfg(vec![gold, mixed]));
        assert!(r.requests > 0, "the store must serve requests");
        assert_eq!(r.per_tenant.len(), 2);
        assert_eq!(r.per_tenant[0].name, "gold");
        assert!(r.per_tenant[0].ok > 0, "gold saw traffic");
        assert!(r.per_tenant[1].ok > 0, "mixed saw traffic");
        assert_eq!(r.stale_served, 0);
        // Workload C issues no writes; A is half writes.
        assert!(r.put_ok > 0, "workload A writes landed");
        assert!(r.get_ok > r.put_ok, "reads dominate the combined mix");
    }

    #[test]
    fn read_cache_serves_hits_and_cuts_latency() {
        let mut hot = TenantSpec::new("hot", YcsbWorkload::C);
        hot.keys = 64;
        hot.theta = 0.99;
        hot.offered_gbps = 4.0;
        let base = StoreConfig {
            duration_ns: dcs_sim::time::ms(6),
            warmup_ns: dcs_sim::time::ms(2),
            ..quick_cfg(vec![hot])
        };
        let cold = run_store(&base);
        let warm = run_store(&StoreConfig {
            cache: CacheConfig {
                capacity_bytes: 256 << 20,
                admission: Admission::AdmitAll,
            },
            ..base
        });
        assert_eq!(cold.cache_hits, 0, "no cache, no hits");
        assert!(
            warm.cache_hit_rate() > 0.5,
            "zipfian C over 512 keys should mostly hit: {:.2}",
            warm.cache_hit_rate()
        );
        assert_eq!(warm.stale_served, 0);
        assert!(
            warm.latency_us(50.0) < cold.latency_us(50.0),
            "hits skip flash: p50 {} vs {} us",
            warm.latency_us(50.0),
            cold.latency_us(50.0)
        );
    }

    #[test]
    fn writes_invalidate_and_never_serve_stale() {
        // Update-heavy A with a cache: every PUT must invalidate, and the
        // version tripwire must stay silent.
        let mut t = TenantSpec::new("ab", YcsbWorkload::A);
        t.keys = 256;
        t.offered_gbps = 1.5;
        let r = run_store(&StoreConfig {
            cache: CacheConfig {
                capacity_bytes: 64 << 20,
                admission: Admission::AdmitAll,
            },
            ..quick_cfg(vec![t])
        });
        assert!(r.put_ok > 0);
        assert!(r.cache_hits > 0, "the read half still hits between writes");
        assert_eq!(
            r.stale_served, 0,
            "invalidation on commit keeps hits current"
        );
    }

    #[test]
    fn store_run_is_deterministic() {
        let mut t = TenantSpec::new("det", YcsbWorkload::B);
        t.offered_gbps = 1.2;
        let cfg = StoreConfig {
            cache: CacheConfig {
                capacity_bytes: 32 << 20,
                admission: Admission::ScanResistant,
            },
            ..quick_cfg(vec![t])
        };
        let a = run_store(&cfg);
        let b = run_store(&cfg);
        assert_eq!(a, b, "identical reports");
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.cache_hits, b.cache_hits);
    }

    #[test]
    fn priority_lane_tenant_runs_end_to_end() {
        let mut prio = TenantSpec::new("prio", YcsbWorkload::C);
        prio.priority = true;
        prio.offered_gbps = 0.5;
        let r = run_store(&quick_cfg(vec![prio]));
        assert!(r.requests > 0);
        assert_eq!(r.stale_served, 0);
    }
}
