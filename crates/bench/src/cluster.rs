//! Extension experiment: the cluster sweep.
//!
//! Scales the paper's single-server question up one level: N DCS servers
//! behind a modeled top-of-rack switch serving a Swift-style GET/PUT mix
//! through a load-balancing front end (see `dcs-cluster`). Three panels:
//!
//! 1. **Scaling** — goodput and tails as the rack grows 1→8 nodes at a
//!    fixed per-node offered load; goodput should scale near-linearly
//!    because nodes share nothing but the (overprovisioned) uplink.
//! 2. **Policy × load** — round-robin vs least-outstanding vs
//!    join-shortest-queue at moderate-to-saturating offered load; the
//!    queue-aware policies win on tails once queues form.
//! 3. **Degraded node** — one node's port drops to a tenth of line rate
//!    mid-run; JSQ reroutes around the backlog while oblivious
//!    round-robin keeps feeding it.
//!
//! A second sweep, `cluster-failover` (`failover_report`), measures the
//! node-failure tolerance layer: a whole-node crash mid-window under each
//! policy (detection time, availability through the failure, failover
//! retries, hedges, re-replication), the ablation with the health layer
//! disabled, and a hang long enough to be declared dead and revived.
//!
//! A third sweep, `cluster-gray` (`gray_report`), measures the
//! gray-failure layer: fail-slow nodes that keep acking probes (factor
//! sweep × differential-detection ablation), a degraded ToR link, and the
//! crash-restart-rejoin lifecycle with bandwidth-capped anti-entropy.

use dcs_cluster::{ClusterConfig, ClusterReport, HealthConfig, LbPolicy, NodeFault};
use dcs_workloads::gen::SizeDistribution;

use crate::{row, Cell, Report, Section, Table};

/// Offered load per node for the scaling and degrade panels, Gbps.
const BASE_GBPS: f64 = 6.0;

/// Offered load per node for the failover panels, Gbps: N-1-survivable
/// provisioning, so three survivors can absorb a dead peer's share
/// without shedding.
const FAILOVER_GBPS: f64 = 5.0;

/// Shared experiment shape; panels override nodes/policy/load/degrade.
fn base_cfg(quick: bool) -> ClusterConfig {
    // Request sojourn under load is ~10 ms (48-deep node pipelines), so
    // the measured window must be several times that or completions in
    // flight at the window edge dominate the tally.
    ClusterConfig {
        duration_ns: dcs_sim::time::ms(if quick { 12 } else { 60 }),
        warmup_ns: dcs_sim::time::ms(if quick { 3 } else { 10 }),
        ..ClusterConfig::default()
    }
}

/// One scaling-panel run: `nodes` nodes under JSQ at the base per-node
/// load.
pub(crate) fn run_scale(nodes: usize, quick: bool) -> ClusterReport {
    dcs_cluster::run_cluster(&ClusterConfig {
        nodes,
        policy: LbPolicy::JoinShortestQueue,
        offered_gbps_per_node: BASE_GBPS,
        ..base_cfg(quick)
    })
}

/// One policy-panel run: 4 nodes under `policy` at `offered` Gbps/node.
pub(crate) fn run_policy(policy: LbPolicy, offered: f64, quick: bool) -> ClusterReport {
    dcs_cluster::run_cluster(&ClusterConfig {
        nodes: 4,
        policy,
        offered_gbps_per_node: offered,
        ..base_cfg(quick)
    })
}

/// One degrade-panel run: 4 nodes at the base load; node 0's port drops
/// to 10% of line rate once warm-up ends.
pub(crate) fn run_degrade(policy: LbPolicy, quick: bool) -> ClusterReport {
    let cfg = base_cfg(quick);
    dcs_cluster::run_cluster(&ClusterConfig {
        nodes: 4,
        policy,
        offered_gbps_per_node: BASE_GBPS,
        node_faults: vec![NodeFault::LinkDegrade {
            node: 0,
            at_ns: cfg.warmup_ns,
            for_ns: NodeFault::UNTIL_END,
            speed_pct: 10,
        }],
        ..cfg
    })
}

/// One failover-panel run: 4 nodes at N-1-survivable load; node 1
/// crashes a quarter of the way into the measured window.
pub(crate) fn run_failover(policy: LbPolicy, health: HealthConfig, quick: bool) -> ClusterReport {
    let cfg = base_cfg(quick);
    let crash_at = cfg.warmup_ns + (cfg.duration_ns - cfg.warmup_ns) / 4;
    dcs_cluster::run_cluster(&ClusterConfig {
        nodes: 4,
        policy,
        offered_gbps_per_node: FAILOVER_GBPS,
        node_faults: vec![NodeFault::Crash {
            node: 1,
            at_ns: crash_at,
            restart_at_ns: None,
        }],
        health,
        ..cfg
    })
}

/// One hang-panel run: node 2 freezes mid-window against a detector slow
/// enough (bound ~7 ms) that hedged GETs beat failover to the rescue.
pub(crate) fn run_hang(quick: bool) -> ClusterReport {
    let cfg = base_cfg(quick);
    let at = cfg.warmup_ns + (cfg.duration_ns - cfg.warmup_ns) / 4;
    // Quick windows are too short for an 8 ms freeze to resolve before the
    // window closes; shrink it so the smoke run still shows the recovery.
    let for_ns = dcs_sim::time::ms(if quick { 5 } else { 8 });
    let health = HealthConfig {
        dead_after: 10,
        probe_timeout_ns: 2_000_000,
        hedge_max_ns: 4_000_000,
        hedge_default_ns: 4_000_000,
        ..HealthConfig::default()
    };
    dcs_cluster::run_cluster(&ClusterConfig {
        nodes: 4,
        policy: LbPolicy::JoinShortestQueue,
        offered_gbps_per_node: FAILOVER_GBPS,
        node_faults: vec![NodeFault::Hang {
            node: 2,
            at_ns: at,
            for_ns,
        }],
        health,
        ..cfg
    })
}

/// Shared shape of the gray-failure runs: small objects at a high
/// request rate, because differential detection is statistics — the
/// per-node latency EWMA needs a steady sample stream to converge
/// between probe ticks, and sub-millisecond per-request holds must
/// resolve inside the window so the tally sees them.
fn gray_cfg(quick: bool) -> ClusterConfig {
    ClusterConfig {
        nodes: 4,
        policy: LbPolicy::JoinShortestQueue,
        objects: 256,
        sizes: SizeDistribution {
            mu: 9.2,
            sigma: 0.6,
            min: 4096,
            max: 64 * 1024,
        },
        ..base_cfg(quick)
    }
}

/// One fail-slow run: node 1 serves `factor`× slower from the end of
/// warm-up through half of the measured window, while acking every probe
/// on time — the timeout detector is blind to it by construction; only
/// `health`'s differential arm can see it. Half a window of fault leaves
/// the other half for the readmission walk once the node runs fast again.
pub fn run_fail_slow(factor: u64, health: HealthConfig, quick: bool) -> ClusterReport {
    let cfg = gray_cfg(quick);
    let at = cfg.warmup_ns;
    let for_ns = (cfg.duration_ns - cfg.warmup_ns) / 2;
    dcs_cluster::run_cluster(&ClusterConfig {
        offered_gbps_per_node: 2.0,
        node_faults: vec![NodeFault::FailSlow {
            node: 1,
            at_ns: at,
            for_ns,
            factor,
        }],
        health,
        ..cfg
    })
}

/// One link-degrade run: node 2's ToR port drops to `speed_pct`% of line
/// rate mid-window. Probe acks still make their (generous) deadline, so
/// again only the differential arm notices. The load is set so the
/// *degraded* port is the bottleneck while the healthy cluster keeps
/// ample headroom — if survivors saturate too, the median rises with the
/// victim and no detector relative to the cluster can see an outlier.
pub fn run_link_degrade(speed_pct: u64, health: HealthConfig, quick: bool) -> ClusterReport {
    let cfg = gray_cfg(quick);
    let at = cfg.warmup_ns;
    let for_ns = (cfg.duration_ns - cfg.warmup_ns) / 2;
    dcs_cluster::run_cluster(&ClusterConfig {
        offered_gbps_per_node: 1.5,
        node_faults: vec![NodeFault::LinkDegrade {
            node: 2,
            at_ns: at,
            for_ns,
            speed_pct,
        }],
        health,
        ..cfg
    })
}

/// One rejoin run: node 1 crashes early in the measured window and
/// restarts only after the probe detector has had time to declare it
/// Dead (so failover and re-replication genuinely run first); it comes
/// back empty, streams its shards back from survivors (bandwidth-capped
/// anti-entropy), and only then takes traffic again. Small objects and a
/// raised rejoin rate keep the stream short enough to resolve inside the
/// window.
pub fn run_rejoin(quick: bool) -> ClusterReport {
    let cfg = gray_cfg(quick);
    let eighth = (cfg.duration_ns - cfg.warmup_ns) / 8;
    let crash_at = cfg.warmup_ns + eighth;
    let health = HealthConfig {
        rejoin_gbps: 8.0,
        ..HealthConfig::default()
    };
    let restart_at = crash_at + health.detection_bound_ns() + dcs_sim::time::ms(1);
    // Small objects make the nodes CPU-bound (~7 Gbps/node), so N-1
    // survivability needs a lower per-node offered load than the
    // network-bound failover panel uses — with headroom for the ring's
    // imbalance, which concentrates the dead node's share on its
    // successor.
    dcs_cluster::run_cluster(&ClusterConfig {
        offered_gbps_per_node: 3.5,
        node_faults: vec![NodeFault::Crash {
            node: 1,
            at_ns: crash_at,
            restart_at_ns: Some(restart_at),
        }],
        health,
        ..cfg
    })
}

/// The `cluster-gray` sweep.
pub(crate) fn gray_report(quick: bool) -> Report {
    let mut r = Report::new(
        "cluster-gray",
        quick,
        "Cluster gray-failure tolerance — fail-slow, degraded link, crash + rejoin",
    );
    let arms = || {
        [
            ("differential", HealthConfig::default()),
            ("blind", HealthConfig::blind()),
        ]
    };
    let t = r
        .section("Node 1 serves slow mid-window, probes still ack (factor × detection ablation):")
        .table(
            "fail_slow",
            "factor:x detector slow_detected:us slow_evicted readmitted p99:us availability:%.2",
        );
    for factor in [4u64, 10] {
        for (name, health) in arms() {
            // Whole-window p99, not the per-phase one: the "during" phase
            // ends at detection, so slicing by phase would compare
            // different time windows across the two arms.
            let run = run_fail_slow(factor, health, quick);
            run_row(t, [factor.into(), name.into()], &run);
        }
    }
    let t = r
        .section("Node 2's ToR port at 5% of line rate mid-window:")
        .table(
            "link_degrade",
            "detector slow_detected:us slow_evicted readmitted p99:us",
        );
    for (name, health) in arms() {
        run_row(t, [name.into()], &run_link_degrade(5, health, quick));
    }
    let s = r.section("Node 1 crashes, restarts empty, and rejoins via anti-entropy:");
    run_tables(s, "rejoin", "jsq", &run_rejoin(quick));
    r
}

/// The `cluster-failover` sweep.
pub(crate) fn failover_report(quick: bool) -> Report {
    let mut r = Report::new(
        "cluster-failover",
        quick,
        "Cluster node-failure tolerance — 4 nodes at 5 Gbps/node offered (N-1 survivable)",
    );
    let t = r
        .section("Node 1 crashes a quarter into the window; health layer on:")
        .table(
            "crash",
            "policy get_availability:%.2 put_availability:%.2 detected:us hedged hedge_wins \
             retried lost repaired:MiB.1 repair:ms.1",
        );
    for policy in LbPolicy::ALL {
        let run = run_failover(policy, HealthConfig::default(), quick);
        run_row(t, [policy.label().into()], &run);
    }
    let t = r
        .section("Ablation under JSQ — the same crash with the health layer off:")
        .table(
            "health_ablation",
            "health availability:%.2 get_availability:%.2 put_availability:%.2 lost rejected",
        );
    for (name, health) in [
        ("on", HealthConfig::default()),
        ("off", HealthConfig::disabled()),
    ] {
        let run = run_failover(LbPolicy::JoinShortestQueue, health, quick);
        run_row(t, [name.into()], &run);
    }
    let s = r.section("Hang: node 2 frozen mid-window, sluggish detector (hedges cover the gap):");
    run_tables(s, "hang", "jsq", &run_hang(quick));
    r
}

/// All three panels of the `cluster` sweep.
pub fn report(quick: bool) -> Report {
    let mut r = Report::new(
        "cluster",
        quick,
        "Cluster sweep — N DCS-ctrl nodes behind a ToR switch, Swift-style GET/PUT mix",
    );
    let s = r.section(format!("Scaling at {BASE_GBPS} Gbps/node offered, JSQ:"));
    for nodes in [1usize, 2, 4, 8] {
        let label = format!("{nodes} node{}", if nodes == 1 { "" } else { "s" });
        run_tables(
            s,
            &format!("scale-{nodes}"),
            &label,
            &run_scale(nodes, quick),
        );
    }

    // A node saturates near 7.5 Gbps served (the SSD→hash→NIC pipeline,
    // not the 10G port, is the binding resource): ~50%, ~80%, and ~95%
    // of that.
    let t = r
        .section("Policy comparison, 4 nodes (offered Gbps/node):")
        .table(
            "policy",
            "offered:Gbps.1 policy goodput:Gbps.2 shed:%.1 p50:us p99:us p999:us imbalance:.2",
        );
    for offered in [3.5, 6.0, 7.0] {
        for policy in LbPolicy::ALL {
            let run = run_policy(policy, offered, quick);
            run_row(t, [offered.into(), policy.label().into()], &run);
        }
    }

    let t = r
        .section(format!(
            "Degraded node (node 0 at 10% port speed after warm-up), {BASE_GBPS} Gbps/node:"
        ))
        .table(
            "degraded",
            "policy goodput:Gbps.2 shed:%.1 p99:us node0_requests healthy_mean_requests",
        );
    for policy in [LbPolicy::RoundRobin, LbPolicy::JoinShortestQueue] {
        run_row(t, [policy.label().into()], &run_degrade(policy, quick));
    }
    r
}

/// The value of column `name` for run `r`: one place names, and
/// converts, every run-level field the cluster and store tables print.
fn field(r: &ClusterReport, name: &str) -> Cell {
    let us = |ns: Option<u64>| ns.map(|ns| ns as f64 / 1000.0);
    let ms = |ns: Option<u64>| ns.map(|ns| ns as f64 / 1e6);
    let mib = |b: u64| b as f64 / (1 << 20) as f64;
    match name {
        "goodput" => r.goodput_gbps().into(),
        "requests" => r.requests.into(),
        "shed" => r.rejection_rate().into(),
        "p50" => r.latency_us(50.0).into(),
        "p99" => r.latency_us(99.0).into(),
        "p999" => r.latency_us(99.9).into(),
        "imbalance" => r.imbalance().into(),
        "availability" => r.availability().into(),
        "get_availability" => r.get_availability().into(),
        "put_availability" => r.put_availability().into(),
        "cache_hit_rate" => r.cache_hit_rate().into(),
        "cache_hits" => r.cache_hits.into(),
        "cache_misses" => r.cache_misses.into(),
        "stale_served" => r.stale_served.into(),
        "rejected" => r.rejected.into(),
        "hedged" => r.hedged.into(),
        "hedge_wins" => r.hedge_wins.into(),
        "retried" => r.retried.into(),
        "lost" => r.lost.into(),
        "put_fallbacks" => r.put_fallbacks.into(),
        "degraded" => r.degraded_marks.into(),
        "detected" => us(r.detection_ns).into(),
        "repaired" => r.repair_ns.map(|_| mib(r.repair_bytes)).into(),
        "repair" => ms(r.repair_ns).into(),
        "slow_detected" => us(r.slow_detection_ns).into(),
        "slow_evicted" => r.slow_evictions.into(),
        "readmitted" => r.slow_readmissions.into(),
        "anti_entropy" => mib(r.rejoin_bytes).into(),
        // Cluster runs have no node cache; only a store run that
        // transferred a cache warm-up shows one.
        "cache_warmup" => (r.warmup_bytes > 0).then(|| mib(r.warmup_bytes)).into(),
        "rejoin" => ms(r.rejoin_ns).into(),
        "node0_requests" => r.per_node[0].requests.into(),
        "healthy_mean_requests" => {
            let healthy = r.per_node[1..].iter().map(|n| n.requests).sum::<u64>();
            (healthy / (r.per_node.len() - 1) as u64).into()
        }
        other => unreachable!("no run-level field {other}"),
    }
}

/// Appends the cells `lead`, then run `r`'s value of every further
/// column of `t`.
pub(crate) fn run_row<const N: usize>(t: &mut Table, lead: [Cell; N], r: &ClusterReport) {
    let mut cells = lead.to_vec();
    cells.extend(t.columns[N..].iter().map(|c| field(r, &c.name)));
    t.row(cells);
}

/// Appends one cluster run's tables to `s`, named `<name>` and
/// `<name>.<part>`: the summary row under `label`, then only the parts
/// the run exercised (health, failure, gray, rejoin, phases, cache,
/// tenants), then one row per node.
pub fn run_tables(s: &mut Section, name: &str, label: &str, r: &ClusterReport) {
    const SUMMARY: &str = "run goodput:Gbps.2 requests shed:%.1 p50:us p99:us p999:us imbalance:.2";
    run_row(s.table(name, SUMMARY), [label.into()], r);
    let parts = [
        (
            "health",
            r.hedged + r.retried + r.lost + r.put_fallbacks + r.degraded_marks > 0
                || r.detection_ns.is_some(),
            "get_availability:%.2 put_availability:%.2 rejected hedged hedge_wins retried lost \
             put_fallbacks degraded",
        ),
        (
            "failure",
            r.detection_ns.is_some(),
            "detected:us repaired:MiB.1 repair:ms.2",
        ),
        (
            "gray",
            r.slow_detection_ns.is_some() || r.slow_evictions + r.slow_readmissions > 0,
            "slow_detected:us slow_evicted readmitted",
        ),
        (
            "rejoin",
            r.rejoin_ns.is_some() || r.rejoin_bytes + r.warmup_bytes > 0,
            "anti_entropy:MiB.1 cache_warmup:MiB.1 rejoin:ms.2",
        ),
    ];
    for (part, shown, spec) in parts {
        if shown {
            run_row(s.table(&format!("{name}.{part}"), spec), [], r);
        }
    }
    if let Some(phases) = &r.phases {
        let t = s.table(
            &format!("{name}.phases"),
            "phase requests availability:%.2 p99:us",
        );
        for (phase, p) in ["before", "during", "after"].iter().zip(phases) {
            row!(
                t,
                *phase,
                p.requests,
                p.availability(),
                p.p99_ns as f64 / 1000.0
            );
        }
    }
    if r.cache_hits + r.cache_misses > 0 {
        let spec = "cache_hit_rate:%.1 cache_hits cache_misses stale_served";
        run_row(s.table(&format!("{name}.cache"), spec), [], r);
    }
    if !r.per_tenant.is_empty() {
        tenant_table(s, &format!("{name}.tenants"), &[(label, r)]);
    }
    let t = s.table(
        &format!("{name}.nodes"),
        "node requests goodput:Gbps.2 rejected failed lost cpu:%.1",
    );
    for (i, n) in r.per_node.iter().enumerate() {
        let gbps = n.bytes as f64 * 8.0 / r.span_ns.max(1) as f64;
        row!(
            t,
            format!("node{i}"),
            n.requests,
            gbps,
            n.rejected,
            n.failures,
            n.lost,
            n.cpu_utilization
        );
    }
}

/// One row per tenant of each run: served and denied requests, tails,
/// SLO attainment and cache hit rate.
pub(crate) fn tenant_table(s: &mut Section, name: &str, runs: &[(&str, &ClusterReport)]) {
    let t = s.table(
        name,
        "run tenant ok denied p50:us p99:us p999:us slo_attainment:%.2 cache_hit_rate:%.1",
    );
    for (run, r) in runs {
        for x in &r.per_tenant {
            let p = |q: f64| x.latency_us(q);
            let (slo, cache) = (x.slo_attainment(), x.cache_hit_rate());
            row!(
                t,
                *run,
                x.name.as_str(),
                x.ok,
                x.denied,
                p(50.0),
                p(99.0),
                p(99.9),
                slo,
                cache
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use dcs_cluster::{NodePerf, PhasePerf, TenantPerf};
    use dcs_sim::Histogram;

    use super::*;

    /// `r`'s tables as `run_tables` appends them under `name`.
    fn tables(name: &str, r: &ClusterReport) -> Vec<Table> {
        let mut s = Section::default();
        run_tables(&mut s, name, "run", r);
        s.tables
    }

    fn names(tables: &[Table]) -> Vec<&str> {
        tables.iter().map(|t| t.name.as_str()).collect()
    }

    /// The cell of `table` in row `row` under column `column`.
    fn cell<'a>(tables: &'a [Table], table: &str, row: usize, column: &str) -> &'a Cell {
        let t = tables.iter().find(|t| t.name == table).expect("the table");
        let j = t
            .columns
            .iter()
            .position(|c| c.name == column)
            .expect("the column");
        &t.rows[row][j]
    }

    fn plain() -> ClusterReport {
        let mut latency = Histogram::new();
        for v in [100_000u64, 200_000, 300_000, 4_000_000] {
            latency.record(v);
        }
        let node = |requests, bytes| NodePerf {
            requests,
            bytes,
            ..Default::default()
        };
        ClusterReport {
            span_ns: 1_000_000_000,
            requests: 4,
            bytes: 500_000_000,
            rejected: 1,
            latency,
            per_node: vec![node(3, 400_000_000), node(1, 100_000_000)],
            ..ClusterReport::default()
        }
    }

    #[test]
    fn plain_run_shows_only_summary_and_nodes() {
        let t = tables("plain", &plain());
        // With no failover, gray, rejoin or store activity those parts
        // stay out of the way.
        assert_eq!(names(&t), ["plain", "plain.nodes"]);
        assert_eq!(cell(&t, "plain", 0, "goodput"), &Cell::Num(4.0));
        assert_eq!(t[1].rows.len(), 2);
        assert_eq!(cell(&t, "plain.nodes", 0, "node"), &Cell::from("node0"));
    }

    #[test]
    fn failover_lines_render() {
        let phase = |requests, ok, p99_ns| PhasePerf {
            requests,
            ok,
            p99_ns,
        };
        let r = ClusterReport {
            span_ns: 1_000_000,
            get_ok: 10,
            get_denied: 1,
            put_ok: 5,
            hedged: 4,
            hedge_wins: 2,
            retried: 3,
            lost: 1,
            put_fallbacks: 2,
            detection_ns: Some(2_250_000),
            repair_bytes: 4 << 20,
            repair_ns: Some(9_000_000),
            phases: Some([
                phase(100, 100, 500_000),
                phase(50, 45, 2_000_000),
                phase(100, 100, 600_000),
            ]),
            ..ClusterReport::default()
        };
        let t = tables("f", &r);
        assert_eq!(
            names(&t),
            ["f", "f.health", "f.failure", "f.phases", "f.nodes"]
        );
        assert_eq!(cell(&t, "f.health", 0, "hedged"), &Cell::Int(4));
        assert_eq!(cell(&t, "f.health", 0, "hedge_wins"), &Cell::Int(2));
        assert_eq!(cell(&t, "f.health", 0, "retried"), &Cell::Int(3));
        assert_eq!(cell(&t, "f.health", 0, "lost"), &Cell::Int(1));
        assert_eq!(cell(&t, "f.failure", 0, "detected"), &Cell::Num(2250.0));
        assert_eq!(cell(&t, "f.failure", 0, "repaired"), &Cell::Num(4.0));
        assert_eq!(cell(&t, "f.phases", 1, "phase"), &Cell::from("during"));
        assert_eq!(cell(&t, "f.phases", 1, "availability"), &Cell::Num(0.9));
    }

    #[test]
    fn gray_and_rejoin_lines_render() {
        let r = ClusterReport {
            span_ns: 1_000_000,
            slow_detection_ns: Some(3_000_000),
            slow_evictions: 1,
            slow_readmissions: 1,
            rejoin_bytes: 8 << 20,
            rejoin_ns: Some(12_000_000),
            warmup_bytes: 2 << 20,
            ..ClusterReport::default()
        };
        let t = tables("g", &r);
        assert_eq!(names(&t), ["g", "g.gray", "g.rejoin", "g.nodes"]);
        assert_eq!(cell(&t, "g.gray", 0, "slow_detected"), &Cell::Num(3000.0));
        assert_eq!(cell(&t, "g.gray", 0, "slow_evicted"), &Cell::Int(1));
        assert_eq!(cell(&t, "g.gray", 0, "readmitted"), &Cell::Int(1));
        assert_eq!(cell(&t, "g.rejoin", 0, "anti_entropy"), &Cell::Num(8.0));
        assert_eq!(cell(&t, "g.rejoin", 0, "cache_warmup"), &Cell::Num(2.0));
        assert_eq!(cell(&t, "g.rejoin", 0, "rejoin"), &Cell::Num(12.0));
        // A rejoin without a cache warm-up leaves that cell empty.
        let cold = ClusterReport {
            warmup_bytes: 0,
            ..r
        };
        let t = tables("c", &cold);
        assert_eq!(cell(&t, "c.rejoin", 0, "cache_warmup"), &Cell::Empty);
    }

    #[test]
    fn store_lines_render_per_tenant_and_cache() {
        let tenant = |name: &str, ok, denied| TenantPerf {
            name: name.into(),
            ok,
            denied,
            slo_met: ok,
            ..Default::default()
        };
        let r = ClusterReport {
            span_ns: 1_000_000,
            cache_hits: 30,
            cache_misses: 70,
            per_tenant: vec![tenant("gold", 9, 0), tenant("scan", 4, 4)],
            ..ClusterReport::default()
        };
        let t = tables("s", &r);
        assert_eq!(names(&t), ["s", "s.cache", "s.tenants", "s.nodes"]);
        assert_eq!(cell(&t, "s.cache", 0, "cache_hit_rate"), &Cell::Num(0.3));
        assert_eq!(cell(&t, "s.cache", 0, "stale_served"), &Cell::Int(0));
        assert_eq!(cell(&t, "s.tenants", 0, "tenant"), &Cell::from("gold"));
        assert_eq!(cell(&t, "s.tenants", 1, "tenant"), &Cell::from("scan"));
        assert_eq!(cell(&t, "s.tenants", 1, "slo_attainment"), &Cell::Num(0.5));
    }
}
