//! Node-failure tolerance, end to end: whole-node crashes and hangs
//! against the health layer (probe detection, circuit breaker, replica
//! failover, hedged GETs, PUT fallback, and re-replication), plus the
//! store layer's correctness-under-failure acceptance on the same
//! probe-driven layer: cached reads must never serve stale bytes across
//! writes, through a detected crash, a rejoin or a fail-slow node, and
//! the full YCSB sweep must be byte-identical across double runs.
//!
//! Asserts the acceptance properties of the `repro cluster-failover`
//! sweep: detection within the suspicion-timeout bound, high availability
//! through the failure under queue-aware balancing, a strictly worse
//! ablation with the health layer disabled, deterministic failure
//! handling from the seed, and detection/repair figures that are
//! invariant across load-balancing policies.

use dcs_ctrl::cluster::{run_cluster, ClusterConfig, HealthConfig, LbPolicy, NodeFault};
use dcs_ctrl::sim::time;
use dcs_ctrl::store::cache::{Admission, CacheConfig};
use dcs_ctrl::store::qos::QosPolicy;
use dcs_ctrl::store::{run_store, StoreConfig, TenantSpec};
use dcs_ctrl::workloads::gen::SizeDistribution;
use dcs_ctrl::workloads::ycsb::YcsbWorkload;

/// N-1-survivable provisioning: 5 Gbps/node over 4 nodes leaves the three
/// survivors enough headroom to absorb a dead peer's share.
fn failover_cfg() -> ClusterConfig {
    ClusterConfig {
        nodes: 4,
        sizes: SizeDistribution {
            max: 256 * 1024,
            ..SizeDistribution::default()
        },
        objects: 1024,
        offered_gbps_per_node: 5.0,
        duration_ns: time::ms(28),
        warmup_ns: time::ms(5),
        seed: 0xFA11,
        node_faults: vec![NodeFault::Crash {
            node: 1,
            at_ns: time::ms(9),
            restart_at_ns: None,
        }],
        ..ClusterConfig::default()
    }
}

#[test]
fn crash_is_detected_failed_over_and_repaired() {
    let r = run_cluster(&failover_cfg());
    // Detection within the probe-schedule bound.
    let detect = r.detection_ns.expect("the crash must be detected");
    let bound = HealthConfig::default().detection_bound_ns();
    assert!(detect <= bound, "detected in {detect} ns, bound {bound} ns");
    // In-flight requests on the dead node were re-dispatched, not lost.
    assert!(r.retried > 0, "failover must retry stranded requests");
    assert!(
        r.lost <= r.retried,
        "losses ({}) must not dominate retries ({})",
        r.lost,
        r.retried
    );
    // The cluster keeps serving through the failure.
    assert!(
        r.get_availability() >= 0.99,
        "GET availability {:.4} under JSQ with failover+hedging",
        r.get_availability()
    );
    assert!(
        r.availability() >= 0.98,
        "overall availability {:.4}",
        r.availability()
    );
    // Re-replication ran and finished (possibly after the window).
    assert!(
        r.repair_bytes > 0,
        "the dead node's shards must be re-replicated"
    );
    assert!(r.repair_ns.is_some(), "repair must complete");
    // Phase split: healthy before, recovered after.
    let phases = r.phases.expect("node-fault runs report phases");
    assert!(phases[0].availability() >= 0.99, "before: {:?}", phases[0]);
    assert!(phases[2].availability() >= 0.99, "after: {:?}", phases[2]);
    assert!(phases[1].requests > 0, "the failure window saw traffic");
}

#[test]
fn failure_handling_is_deterministic_and_detection_is_policy_invariant() {
    let mut detections = Vec::new();
    let mut repair_bytes = Vec::new();
    for policy in LbPolicy::ALL {
        let cfg = ClusterConfig {
            policy,
            ..failover_cfg()
        };
        let a = run_cluster(&cfg);
        let b = run_cluster(&cfg);
        // Same seed ⇒ bit-identical failure handling, counters included.
        assert_eq!(a, b, "{policy:?}");
        assert_eq!(
            (a.hedged, a.hedge_wins, a.retried, a.lost, a.rejected),
            (b.hedged, b.hedge_wins, b.retried, b.lost, b.rejected),
            "{policy:?}"
        );
        assert_eq!(a.detection_ns, b.detection_ns, "{policy:?}");
        assert_eq!(a.repair_bytes, b.repair_bytes, "{policy:?}");
        assert_eq!(a.repair_ns, b.repair_ns, "{policy:?}");
        detections.push(a.detection_ns.expect("detected"));
        repair_bytes.push(a.repair_bytes);
    }
    // Probes ride the control lane and repair plans off the ring alone,
    // so neither depends on how data traffic was balanced.
    assert!(
        detections.windows(2).all(|w| w[0] == w[1]),
        "detection time must not depend on the LB policy: {detections:?}"
    );
    assert!(
        repair_bytes.windows(2).all(|w| w[0] == w[1]),
        "repair volume must not depend on the LB policy: {repair_bytes:?}"
    );
}

#[test]
fn ablation_disabling_health_is_strictly_worse() {
    let with = run_cluster(&failover_cfg());
    let without = run_cluster(&ClusterConfig {
        health: HealthConfig::disabled(),
        ..failover_cfg()
    });
    // No probes: the crash is never detected, nothing retries or repairs.
    assert!(without.detection_ns.is_none());
    assert_eq!(without.hedged, 0);
    assert_eq!(without.retried, 0);
    assert_eq!(without.repair_bytes, 0);
    // Requests stranded on the dead node surface as losses...
    assert!(without.lost > 0, "stranded requests must be counted lost");
    // ...and availability is strictly worse than the tolerant arm.
    assert!(
        without.availability() < with.availability(),
        "ablation {:.4} must trail health-on {:.4}",
        without.availability(),
        with.availability()
    );
    assert!(
        without.get_availability() < with.get_availability(),
        "GET ablation {:.4} vs {:.4}",
        without.get_availability(),
        with.get_availability()
    );
}

#[test]
fn hang_is_detected_hedged_around_and_survived() {
    // A deliberately sluggish detector (bound ~7 ms) against an 8 ms
    // hang: the node is declared Dead mid-hang and revived by its first
    // post-hang ack. Hedging earns its keep in exactly this gap — the
    // hedge ceiling sits below the detection bound, so requests frozen on
    // the hung node get a second leg out before failover sweeps them.
    let health = HealthConfig {
        dead_after: 10,
        probe_timeout_ns: 2_000_000,
        hedge_max_ns: 4_000_000,
        hedge_default_ns: 4_000_000,
        ..HealthConfig::default()
    };
    let cfg = ClusterConfig {
        node_faults: vec![NodeFault::Hang {
            node: 2,
            at_ns: time::ms(9),
            for_ns: time::ms(8),
        }],
        health: health.clone(),
        ..failover_cfg()
    };
    let r = run_cluster(&cfg);
    let detect = r.detection_ns.expect("the hang must be detected");
    assert!(detect <= health.detection_bound_ns());
    // Requests stuck behind the frozen node were hedged to other
    // replicas, and some hedges beat the primary leg.
    assert!(r.hedged > 0, "hedges must fire against the hung node");
    assert!(r.hedge_wins > 0, "some hedges must win");
    // Between hedging and failover retries, nothing is lost and
    // availability holds through the freeze.
    assert_eq!(r.lost, 0, "hang with failover must lose nothing");
    assert!(
        r.get_availability() >= 0.99,
        "GET availability {:.4} through the hang",
        r.get_availability()
    );
    // After the hang the revived node serves again.
    let phases = r.phases.expect("phases reported");
    assert!(phases[2].availability() >= 0.99, "after: {:?}", phases[2]);
    assert!(
        r.per_node[2].requests > 0,
        "the revived node must serve requests again"
    );
}

#[test]
fn fail_slow_is_detected_within_bound_and_never_declared_dead() {
    // A 10× fail-slow node acks every probe on time, so the timeout
    // detector is blind by construction; the differential arm must catch
    // it from completion latencies alone, within its hysteresis bound.
    let health = HealthConfig::default();
    let r = dcs_bench::cluster::run_fail_slow(10, health.clone(), true);
    let detect = r
        .slow_detection_ns
        .expect("a 10x fail-slow must be caught by the differential detector");
    let bound = health.slow_detection_bound_ns();
    assert!(detect <= bound, "detected in {detect} ns, bound {bound} ns");
    assert!(r.slow_evictions > 0, "the slow node must be deprioritized");
    assert!(
        r.detection_ns.is_none(),
        "probes still ack on time: the timeout detector must stay blind"
    );
    // Slow is routable-but-deprioritized, never ejected: nothing strands.
    assert_eq!(r.lost, 0, "fail-slow must lose nothing");
    assert!(
        r.get_availability() >= 0.99,
        "GET availability {:.4} through the slow window",
        r.get_availability()
    );
}

#[test]
fn recovered_fail_slow_node_is_readmitted() {
    // The fault ends halfway through the window; once the node runs fast
    // again its EWMA decays below the hysteresis floor and it earns its
    // full routing weight back — eviction without readmission would
    // permanently waste a healthy node on a transient brownout.
    let r = dcs_bench::cluster::run_fail_slow(4, HealthConfig::default(), true);
    assert!(r.slow_evictions > 0, "the 4x brownout must be caught");
    assert!(
        r.slow_readmissions > 0,
        "the recovered node must be readmitted ({} evictions)",
        r.slow_evictions
    );
    assert!(
        r.per_node[1].requests > 0,
        "the readmitted node must serve requests"
    );
}

#[test]
fn fail_slow_blind_ablation_has_strictly_worse_tail() {
    // `HealthConfig::blind()` keeps probes, hedging, and failover but
    // switches the differential detector off — isolating exactly the
    // mechanism under test. Without it the slow node keeps its full JSQ
    // share and the tail absorbs every 10×-stretched service time.
    let with = dcs_bench::cluster::run_fail_slow(10, HealthConfig::default(), true);
    let blind = dcs_bench::cluster::run_fail_slow(10, HealthConfig::blind(), true);
    assert!(
        blind.slow_detection_ns.is_none(),
        "blind arm must not detect"
    );
    assert_eq!(blind.slow_evictions, 0);
    assert!(
        with.latency_us(99.0) < blind.latency_us(99.0),
        "differential p99 {:.0} us must strictly beat blind {:.0} us",
        with.latency_us(99.0),
        blind.latency_us(99.0)
    );
}

#[test]
fn link_degrade_is_caught_by_the_differential_detector() {
    // A ToR port at 5% line rate stretches data transfers but control
    // frames still make the (generous) probe deadline — the second
    // timeout-blind gray failure. Same acceptance: differential detection
    // within bound, and a strictly worse tail without it.
    let health = HealthConfig::default();
    let r = dcs_bench::cluster::run_link_degrade(5, health.clone(), true);
    let detect = r
        .slow_detection_ns
        .expect("the degraded link must be caught");
    assert!(detect <= health.slow_detection_bound_ns());
    assert!(r.detection_ns.is_none(), "probes must keep acking");
    let blind = dcs_bench::cluster::run_link_degrade(5, HealthConfig::blind(), true);
    assert!(
        r.latency_us(99.0) < blind.latency_us(99.0),
        "differential p99 {:.0} us must beat blind {:.0} us",
        r.latency_us(99.0),
        blind.latency_us(99.0)
    );
}

#[test]
fn crashed_node_rejoins_repairs_and_serves_again() {
    // The full lifecycle: crash → Dead (probe detection) → failover +
    // re-replication → restart empty → bandwidth-capped anti-entropy
    // from survivors → back in the GET rotation.
    let r = dcs_bench::cluster::run_rejoin(true);
    let detect = r.detection_ns.expect("the crash must be detected");
    assert!(detect <= HealthConfig::default().detection_bound_ns());
    assert!(r.repair_bytes > 0, "survivors must re-replicate first");
    assert!(r.rejoin_bytes > 0, "the anti-entropy stream must run");
    assert!(r.rejoin_ns.is_some(), "rejoin must complete in-window");
    assert!(
        r.per_node[1].requests > 0,
        "the rejoined node must serve requests again"
    );
    assert!(r.lost <= r.retried, "losses bounded by failover retries");
    assert!(
        r.get_availability() >= 0.99,
        "GET availability {:.4} through crash and rejoin",
        r.get_availability()
    );
    // The post-detection phase spans N-1 operation plus the rejoin
    // window, where the ring's imbalance concentrates the dead node's
    // share on its successor — some shedding there is the honest cost.
    let phases = r.phases.expect("node-fault runs report phases");
    assert!(
        phases[2].availability() >= 0.9,
        "after rejoin: {:?}",
        phases[2]
    );
}

#[test]
fn restart_before_detection_fails_over_what_the_node_swallowed() {
    // The node restarts 1 ms after crashing, well inside the probe
    // detection bound, so it is never declared Dead and never swept by
    // `on_node_dead`. It comes back empty: every leg it swallowed must
    // fail over at the restart instead of staying in flight forever.
    let r = run_cluster(&ClusterConfig {
        nodes: 4,
        offered_gbps_per_node: 4.0,
        duration_ns: time::ms(16),
        node_faults: vec![NodeFault::Crash {
            node: 1,
            at_ns: time::ms(5),
            restart_at_ns: Some(time::ms(6)),
        }],
        ..ClusterConfig::default()
    });
    assert_eq!(r.detection_ns, None, "restarted before detection");
    assert!(
        r.retried + r.lost > 0,
        "the swallowed legs must resolve (retried {} lost {})",
        r.retried,
        r.lost
    );
}

/// An update-heavy cached store with a mid-run node crash. Every PUT
/// commit bumps the object's version and invalidates every node's cache
/// entry; a crash additionally discards the dead node's cache wholesale,
/// and once the probes declare the node Dead its in-flight requests fail
/// over to surviving replicas.
fn crashed_store_cfg() -> StoreConfig {
    let mut t = TenantSpec::new("ab", YcsbWorkload::A);
    t.keys = 256;
    t.offered_gbps = 8.0;
    StoreConfig {
        nodes: 4,
        tenants: vec![t],
        cache: CacheConfig {
            capacity_bytes: 64 << 20,
            admission: Admission::AdmitAll,
        },
        duration_ns: time::ms(12),
        warmup_ns: time::ms(2),
        node_faults: vec![NodeFault::Crash {
            node: 1,
            at_ns: time::ms(5),
            restart_at_ns: None,
        }],
        ..StoreConfig::default()
    }
}

#[test]
fn cached_store_never_serves_stale_bytes_through_a_crash() {
    let r = run_store(&crashed_store_cfg());
    // The run exercised the interesting paths: writes committed, cached
    // reads hit, and the crash actually disturbed in-flight traffic.
    assert!(r.requests > 0, "the crashed store must serve requests");
    assert!(r.put_ok > 0, "workload A writes must land");
    assert!(r.cache_hits > 0, "cached reads must hit between writes");
    assert!(
        r.retried + r.lost > 0,
        "the crash must strand some in-flight requests (retried {} lost {})",
        r.retried,
        r.lost
    );
    // The store has no oracle: the rack's probes find the crash.
    let detect = r.detection_ns.expect("the probes must detect the crash");
    let bound = HealthConfig::default().detection_bound_ns();
    assert!(detect <= bound, "detected in {detect} ns, bound {bound} ns");
    // The acceptance property: version-checked lookups plus invalidation
    // at commit mean a cached GET can never return bytes older than the
    // last committed PUT — the tripwire counts any would-be violation,
    // including reads that raced the crash.
    assert_eq!(r.stale_served, 0, "stale cache bytes served");
}

#[test]
fn restarted_store_node_rejoins_warm_and_serves_no_stale_bytes() {
    // Same crash, but the node comes back at 8 ms — before the probes
    // could declare it Dead — so the restart itself fails over what it
    // swallowed. It must re-enter empty, stream its shards back from
    // survivors (anti-entropy), take a cache warm set at committed
    // versions, and serve again; the staleness tripwire must stay at
    // zero through all of it — a warm entry admitted at a stale version
    // would trip it on the first version-checked GET. The window runs to
    // 24 ms so the ~2 MiB anti-entropy stream lands with time to spare.
    let long = |restart_at_ns| StoreConfig {
        duration_ns: time::ms(24),
        node_faults: vec![NodeFault::Crash {
            node: 1,
            at_ns: time::ms(5),
            restart_at_ns,
        }],
        ..crashed_store_cfg()
    };
    let r = run_store(&long(Some(time::ms(8))));
    let stays_down = run_store(&long(None));
    assert!(
        r.retried + r.lost > 0,
        "the restart resolves swallowed legs"
    );
    assert!(r.rejoin_bytes > 0, "the shards must stream back");
    assert!(r.rejoin_ns.is_some(), "the rejoin must complete");
    assert!(r.warmup_bytes > 0, "the cache warm set must be admitted");
    assert!(
        r.per_node[1].requests > stays_down.per_node[1].requests,
        "the rejoined node must serve requests again ({} vs {} staying down)",
        r.per_node[1].requests,
        stays_down.per_node[1].requests
    );
    assert_eq!(r.stale_served, 0, "stale bytes served after rejoin");
}

#[test]
fn fail_slow_store_node_is_marked_slow_and_serves_no_stale_bytes() {
    // A gray failure under the store: node 1 serves 10× slower while
    // still acking every probe. The rack's differential detector must
    // mark it Slow (never Dead), and the version-checked cache must stay
    // stale-free while traffic shifts away from it.
    let r = run_store(&StoreConfig {
        duration_ns: time::ms(20),
        node_faults: vec![NodeFault::FailSlow {
            node: 1,
            at_ns: time::ms(3),
            for_ns: time::ms(14),
            factor: 10,
        }],
        ..crashed_store_cfg()
    });
    let detect = r
        .slow_detection_ns
        .expect("the differential detector must catch the slow node");
    let bound = HealthConfig::default().slow_detection_bound_ns();
    assert!(detect <= bound, "slow in {detect} ns, bound {bound} ns");
    assert!(r.slow_evictions > 0);
    assert_eq!(r.detection_ns, None, "a slow node is never declared dead");
    assert!(
        r.put_ok > 0 && r.cache_hits > 0,
        "writes must land and reads must hit ({} PUTs, {} hits)",
        r.put_ok,
        r.cache_hits
    );
    assert_eq!(r.stale_served, 0, "stale bytes served around a slow node");
}

#[test]
fn ycsb_sweep_is_byte_identical_across_double_runs() {
    // The acceptance determinism check for `repro store`: every YCSB
    // letter, run twice from the same seed, must replay identically
    // (latency histograms, cache counters, and per-tenant rows included).
    for w in YcsbWorkload::ALL {
        let a = dcs_bench::store::run_ycsb(w, true);
        let b = dcs_bench::store::run_ycsb(w, true);
        assert_eq!(a, b, "YCSB {} must replay identically", w.letter());
        assert_eq!(
            a.per_tenant[0].latency_us(99.9),
            b.per_tenant[0].latency_us(99.9)
        );
    }
}

#[test]
fn wfq_holds_the_compliant_tenant_slo_where_fifo_degrades_it() {
    // The noisy-neighbor acceptance: a compliant tenant's SLO attainment
    // under WFQ with a flooding neighbor must stay within 1% of its
    // no-noisy baseline, while the FIFO ablation visibly degrades it.
    let base = dcs_bench::store::run_noisy(false, QosPolicy::Wfq, true);
    let wfq = dcs_bench::store::run_noisy(true, QosPolicy::Wfq, true);
    let fifo = dcs_bench::store::run_noisy(true, QosPolicy::Fifo, true);
    let base_slo = base.per_tenant[0].slo_attainment();
    let wfq_slo = wfq.per_tenant[0].slo_attainment();
    let fifo_slo = fifo.per_tenant[0].slo_attainment();
    assert!(base_slo > 0.99, "baseline must be healthy: {base_slo:.4}");
    assert!(
        wfq_slo >= base_slo - 0.01,
        "WFQ must hold the compliant tenant at its baseline: {wfq_slo:.4} vs {base_slo:.4}"
    );
    assert!(
        fifo_slo < wfq_slo - 0.05,
        "FIFO must visibly degrade the compliant tenant: {fifo_slo:.4} vs WFQ {wfq_slo:.4}"
    );
    // The flood pays for fairness, not the compliant tenant.
    assert!(
        wfq.per_tenant[1].denied > 0,
        "WFQ must shed the flood, not the tenant"
    );
    assert_eq!(
        wfq.per_tenant[0].denied, 0,
        "the compliant tenant keeps its queue slots"
    );
}
