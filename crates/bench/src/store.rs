//! Extension experiment: the multi-tenant object-store sweep.
//!
//! Puts the serving layer (`dcs-store`) through four panels:
//!
//! 1. **YCSB A–F** — each standard mix as a single tenant on a cached
//!    4-node store: throughput, tails, and cache hit rate per workload
//!    letter.
//! 2. **Cache size** — workload C (zipfian point reads) as the per-node
//!    read cache grows from nothing: hit rate up, flash reads displaced
//!    (at 16 KiB values the e2e latency is wire-dominated, so the win is
//!    flash offload more than tail shaving).
//! 3. **Scan resistance** — a point-read tenant sharing the store with a
//!    YCSB-E scanner, admit-all vs scan-resistant admission: the ghost
//!    list keeps the scanner from flushing the point tenant's hot set.
//! 4. **Noisy neighbor** — a compliant tenant with an SLO sharing the
//!    store with a flooding tenant, FIFO vs weighted-fair queueing, plus
//!    the no-noisy baseline: WFQ holds the compliant tenant's SLO
//!    attainment at its baseline while FIFO lets the flood starve it.
//!
//! `repro store --quick --json-out .` regenerates the committed
//! `BENCH_store.json`, which `crates/bench/tests/bench_json.rs`
//! byte-compares.

use dcs_cluster::ClusterReport;
use dcs_store::cache::{Admission, CacheConfig};
use dcs_store::qos::QosPolicy;
use dcs_store::{run_store, StoreConfig, TenantSpec};
use dcs_workloads::ycsb::YcsbWorkload;

use crate::cluster::{run_row, tenant_table};
use crate::{row, Report};

/// Shared experiment shape; panels override tenants/cache/QoS.
fn base_cfg(quick: bool) -> StoreConfig {
    StoreConfig {
        nodes: 4,
        duration_ns: dcs_sim::time::ms(if quick { 8 } else { 30 }),
        warmup_ns: dcs_sim::time::ms(if quick { 2 } else { 6 }),
        ..StoreConfig::default()
    }
}

/// The default per-node cache for the YCSB panel: 64 MiB, scan-resistant.
fn default_cache() -> CacheConfig {
    CacheConfig {
        capacity_bytes: 64 << 20,
        admission: Admission::ScanResistant,
    }
}

/// One YCSB-panel run: workload `w` as a single tenant on the cached
/// store.
pub fn run_ycsb(w: YcsbWorkload, quick: bool) -> ClusterReport {
    let mut t = TenantSpec::new(w.letter(), w);
    t.keys = 4096;
    t.offered_gbps = 8.0;
    run_store(&StoreConfig {
        tenants: vec![t],
        cache: default_cache(),
        ..base_cfg(quick)
    })
}

/// One cache-size-panel run: workload C against `capacity_bytes` of
/// per-node cache.
pub(crate) fn run_cache_size(capacity_bytes: u64, quick: bool) -> ClusterReport {
    let mut t = TenantSpec::new("C", YcsbWorkload::C);
    t.keys = 4096;
    t.offered_gbps = 8.0;
    run_store(&StoreConfig {
        tenants: vec![t],
        cache: CacheConfig {
            capacity_bytes,
            admission: Admission::ScanResistant,
        },
        ..base_cfg(quick)
    })
}

/// One scan-resistance-panel run: a point-read tenant plus a YCSB-E
/// scanner under the given admission policy. The point tenant is
/// `per_tenant[0]`.
pub(crate) fn run_admission(admission: Admission, quick: bool) -> ClusterReport {
    // A small hot set (4 KiB values so the window holds many touches per
    // key) against a cache sized below the combined churn: admit-all lets
    // the scanner's sequential keys flush the hot set between touches,
    // scan-resistant admission never admits them.
    let mut point = TenantSpec::new("point", YcsbWorkload::C);
    point.keys = 256;
    point.value_bytes = 4 * 1024;
    point.offered_gbps = 6.0;
    let mut scan = TenantSpec::new("scan", YcsbWorkload::E);
    scan.keys = 64 * 1024;
    scan.offered_gbps = 20.0;
    run_store(&StoreConfig {
        tenants: vec![point, scan],
        cache: CacheConfig {
            capacity_bytes: 512 << 10,
            admission,
        },
        duration_ns: dcs_sim::time::ms(if quick { 16 } else { 40 }),
        warmup_ns: dcs_sim::time::ms(if quick { 4 } else { 8 }),
        ..base_cfg(quick)
    })
}

/// The compliant tenant of the noisy-neighbor panel: a modest YCSB-B mix
/// with a real latency SLO.
fn compliant() -> TenantSpec {
    let mut t = TenantSpec::new("compliant", YcsbWorkload::B);
    t.keys = 2048;
    t.offered_gbps = 3.0;
    t.slo_ns = dcs_sim::time::ms(12);
    t
}

/// One noisy-neighbor run on a 2-node store. `noisy` adds the flooding
/// tenant (an update-heavy A mix offered well past node capacity); `qos`
/// picks the queue discipline. The compliant tenant is `per_tenant[0]`.
pub fn run_noisy(noisy: bool, qos: QosPolicy, quick: bool) -> ClusterReport {
    let mut tenants = vec![compliant()];
    if noisy {
        let mut t = TenantSpec::new("noisy", YcsbWorkload::A);
        t.keys = 8192;
        t.offered_gbps = 24.0;
        t.slo_ns = 0;
        tenants.push(t);
    }
    run_store(&StoreConfig {
        nodes: 2,
        tenants,
        qos,
        cache: default_cache(),
        ..base_cfg(quick)
    })
}

/// All four panels, then every run's run-level fields and one row per
/// tenant of every run.
pub fn report(quick: bool) -> Report {
    let mut r = Report::new(
        "store",
        quick,
        "Store sweep — multi-tenant object store over the DCS rack (YCSB, caching, QoS)",
    );
    let mut runs: Vec<(String, ClusterReport)> = Vec::new();

    let t = r
        .section("YCSB A-F, 4 nodes, 64 MiB/node scan-resistant cache, 8 Gbps offered:")
        .table(
            "ycsb",
            "workload goodput:Gbps.2 requests p50:us p99:us cache_hit_rate:%.1 slo_attainment:%.2",
        );
    for w in YcsbWorkload::ALL {
        let run = run_ycsb(w, quick);
        row!(
            t,
            w.label(),
            run.goodput_gbps(),
            run.requests,
            run.latency_us(50.0),
            run.latency_us(99.0),
            run.cache_hit_rate(),
            run.per_tenant[0].slo_attainment(),
        );
        runs.push((format!("ycsb {}", w.letter()), run));
    }

    let t = r
        .section("Cache size, workload C (per-node budget -> hit rate, p50):")
        .table(
            "cache_size",
            "capacity:MiB cache_hit_rate:%.1 p50:us p99:us goodput:Gbps.2",
        );
    for cap in [0u64, 4 << 20, 16 << 20, 64 << 20] {
        let run = run_cache_size(cap, quick);
        row!(
            t,
            cap >> 20,
            run.cache_hit_rate(),
            run.latency_us(50.0),
            run.latency_us(99.0),
            run.goodput_gbps(),
        );
        runs.push((format!("cache_size {} MiB", cap >> 20), run));
    }

    let t = r
        .section("Scan resistance, point tenant + YCSB-E scanner, 512 KiB/node cache:")
        .table(
            "admission",
            "admission point_cache_hit_rate:%.1 point_p99:us scans_ok",
        );
    for (name, adm) in [
        ("admit-all", Admission::AdmitAll),
        ("scan-resistant", Admission::ScanResistant),
    ] {
        let run = run_admission(adm, quick);
        let point = &run.per_tenant[0];
        row!(
            t,
            name,
            point.cache_hit_rate(),
            point.latency_us(99.0),
            run.per_tenant[1].ok,
        );
        runs.push((format!("admission {name}"), run));
    }

    let s =
        r.section("Noisy neighbor, 2 nodes: compliant B tenant (12 ms SLO) vs a 24 Gbps flood:");
    let t = s.table(
        "noisy_neighbor",
        "run compliant_slo_attainment:%.2 compliant_p99:us compliant_denied noisy_ok",
    );
    for (name, noisy, qos) in [
        ("baseline", false, QosPolicy::Wfq),
        ("noisy + fifo", true, QosPolicy::Fifo),
        ("noisy + wfq", true, QosPolicy::Wfq),
    ] {
        let run = run_noisy(noisy, qos, quick);
        let compliant = &run.per_tenant[0];
        // The baseline has no flood: nothing to deny, no noisy tenant.
        let flood = run.per_tenant.get(1);
        row!(
            t,
            name,
            compliant.slo_attainment(),
            compliant.latency_us(99.0),
            flood.map(|_| compliant.denied),
            flood.map(|t| t.ok),
        );
        runs.push((format!("noisy_neighbor {name}"), run));
    }
    s.note("(wfq holds the compliant tenant at its baseline; fifo hands the queue to the flood)");

    let s = r.section("Every run above:");
    let spec = "run goodput:Gbps.2 requests p50:us p99:us cache_hit_rate:%.1 stale_served";
    let t = s.table("runs", spec);
    for (name, run) in &runs {
        run_row(t, [name.as_str().into()], run);
    }
    let runs: Vec<(&str, &ClusterReport)> = runs.iter().map(|(n, r)| (n.as_str(), r)).collect();
    tenant_table(s, "tenants", &runs);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_resistance_protects_the_point_tenant() {
        let all = run_admission(Admission::AdmitAll, true);
        let resist = run_admission(Admission::ScanResistant, true);
        assert!(
            resist.per_tenant[0].cache_hit_rate() > all.per_tenant[0].cache_hit_rate(),
            "ghost-list admission must beat admit-all under scan pressure: {:.2} vs {:.2}",
            resist.per_tenant[0].cache_hit_rate(),
            all.per_tenant[0].cache_hit_rate()
        );
        assert_eq!(resist.stale_served, 0);
        assert_eq!(all.stale_served, 0);
    }

    #[test]
    fn cache_size_sweep_is_monotone_in_hit_rate() {
        let none = run_cache_size(0, true);
        let big = run_cache_size(64 << 20, true);
        assert_eq!(none.cache_hits, 0);
        assert!(big.cache_hit_rate() > 0.3, "{:.2}", big.cache_hit_rate());
    }
}
