//! Cluster-level integration: N full DCS nodes behind the modeled ToR
//! switch, driven by the load-balancing front end (`dcs-cluster`).
//!
//! Asserts the properties the `repro cluster` sweep relies on: bit-exact
//! determinism from the seed (including fault injection and mid-run
//! degradation), near-linear goodput scaling with node count, the
//! queue-aware policy beating oblivious round-robin when a node degrades,
//! and composition with the PR 1 fault plan.

use dcs_ctrl::cluster::{
    build_cluster, run_cluster, ClusterConfig, HealthConfig, LbPolicy, NodeFault,
};
use dcs_ctrl::sim::{time, FaultPlan};
use dcs_ctrl::workloads::gen::SizeDistribution;

/// Small objects and short windows: integration-test sized, not
/// sweep-sized.
fn small_cfg() -> ClusterConfig {
    ClusterConfig {
        nodes: 3,
        sizes: SizeDistribution {
            max: 256 * 1024,
            ..SizeDistribution::default()
        },
        offered_gbps_per_node: 5.0,
        duration_ns: time::ms(16),
        warmup_ns: time::ms(3),
        seed: 0x5EED,
        ..ClusterConfig::default()
    }
}

#[test]
fn same_seed_reruns_are_bit_identical() {
    // Exercise every source of randomness at once: arrivals, sizes, the
    // GET/PUT mix, fault injection, and a mid-run port degradation.
    let cfg = ClusterConfig {
        fault_rate: 0.001,
        node_faults: vec![NodeFault::LinkDegrade {
            node: 1,
            at_ns: time::ms(5),
            for_ns: NodeFault::UNTIL_END,
            speed_pct: 25,
        }],
        ..small_cfg()
    };
    let a = run_cluster(&cfg);
    let b = run_cluster(&cfg);
    assert_eq!(a, b, "same seed, same report");
    assert_eq!(a.requests, b.requests);
    assert_eq!(a.latency.percentile(99.0), b.latency.percentile(99.0));
    assert!(a.requests > 10, "the run must do real work: {}", a.requests);

    // And a different seed genuinely changes the trace.
    let c = run_cluster(&ClusterConfig {
        seed: 0xBEEF,
        ..cfg
    });
    assert_ne!(a, c, "different seed, different run");
}

#[test]
fn goodput_scales_near_linearly_with_nodes() {
    let run = |nodes| {
        run_cluster(&ClusterConfig {
            nodes,
            duration_ns: time::ms(30),
            warmup_ns: time::ms(5),
            ..small_cfg()
        })
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one.failures, 0);
    assert_eq!(four.failures, 0);
    // Nodes share nothing but the overprovisioned uplink; goodput must
    // scale close to node count (window-edge effects cost a little).
    assert!(
        four.goodput_gbps() > 3.0 * one.goodput_gbps(),
        "1 node {:.2} Gbps, 4 nodes {:.2} Gbps",
        one.goodput_gbps(),
        four.goodput_gbps()
    );
    // And each run actually approached its offered load.
    assert!(one.goodput_gbps() > 3.0, "{:.2}", one.goodput_gbps());
}

#[test]
fn jsq_reroutes_around_a_degraded_node_where_round_robin_cannot() {
    // Full-size objects: with megabyte tails a 10%-speed port backs up
    // deeply, which is exactly the asymmetry queue-aware routing exists
    // for. (With small objects the degraded port keeps up and the
    // policies converge.) The health layer is pinned off to isolate the
    // *policy* contrast: with it on, differential slow-node detection
    // plus hedging rescue round-robin's stranded GETs and the policies
    // converge — which is the gray-failure layer's job, measured by
    // `repro cluster-gray`, not this test's.
    let run = |policy| {
        run_cluster(&ClusterConfig {
            nodes: 4,
            policy,
            offered_gbps_per_node: 6.0,
            duration_ns: time::ms(30),
            warmup_ns: time::ms(5),
            node_faults: vec![NodeFault::LinkDegrade {
                node: 0,
                at_ns: time::ms(5),
                for_ns: NodeFault::UNTIL_END,
                speed_pct: 10,
            }],
            health: HealthConfig::disabled(),
            ..ClusterConfig::default()
        })
    };
    let rr = run(LbPolicy::RoundRobin);
    let jsq = run(LbPolicy::JoinShortestQueue);
    // The queue-aware policy routes GETs to the healthy replicas and keeps
    // serving; oblivious round-robin keeps feeding the degraded port and
    // strands that share of its window there. The goodput gap is bounded
    // by the healthy nodes' spare capacity (JSQ cannot conjure a fourth
    // node), so the margin is moderate but must be systematic.
    assert!(
        jsq.goodput_gbps() > 1.05 * rr.goodput_gbps(),
        "jsq {:.2} Gbps must beat rr {:.2} Gbps",
        jsq.goodput_gbps(),
        rr.goodput_gbps()
    );
    assert!(
        jsq.requests > rr.requests,
        "jsq must complete more requests: {} vs {}",
        jsq.requests,
        rr.requests
    );
    // Round-robin's defining failure: a quarter of arrivals head for the
    // degraded port, but almost none come back through it.
    let healthy_avg = rr.per_node[1..].iter().map(|n| n.requests).sum::<u64>() / 3;
    assert!(
        rr.per_node[0].requests * 2 < healthy_avg,
        "rr must strand most node-0 work: node 0 completed {} vs healthy avg {healthy_avg}",
        rr.per_node[0].requests
    );
}

#[test]
fn queue_aware_policies_hold_the_tail_at_high_load() {
    // At ~95% of per-node capacity, queues form and replica choice
    // matters; merge three seeds per policy so the comparison is not one
    // sample path. (p99 over the merged histograms.)
    let run = |policy, seed| {
        run_cluster(&ClusterConfig {
            nodes: 4,
            policy,
            offered_gbps_per_node: 7.0,
            duration_ns: time::ms(30),
            warmup_ns: time::ms(5),
            seed,
            ..small_cfg()
        })
    };
    let merged = |policy| {
        let mut h = dcs_ctrl::sim::Histogram::new();
        for seed in [0x5EED, 0xB0B, 0xACE] {
            h.merge(&run(policy, seed).latency);
        }
        h
    };
    let rr = merged(LbPolicy::RoundRobin);
    let jsq = merged(LbPolicy::JoinShortestQueue);
    let (rr99, jsq99) = (rr.p99().unwrap(), jsq.p99().unwrap());
    assert!(
        (jsq99 as f64) <= 1.05 * rr99 as f64,
        "jsq p99 {jsq99} ns must not trail rr p99 {rr99} ns"
    );
}

#[test]
fn availability_accounting_is_consistent_without_node_faults() {
    let r = run_cluster(&small_cfg());
    // Every tallied resolution lands in exactly one per-op bucket: served
    // requests split across get_ok/put_ok, shed and errored ones across
    // the denied buckets.
    assert_eq!(r.requests, r.get_ok + r.put_ok);
    assert_eq!(r.rejected + r.failures, r.get_denied + r.put_denied);
    // Nothing in this run can lose or fail over a request.
    assert_eq!(r.lost, 0);
    assert_eq!(r.retried, 0);
    assert!(r.detection_ns.is_none());
    assert!(r.phases.is_none(), "phases only appear with node faults");
    assert_eq!(r.repair_bytes, 0);
    assert!(r.availability() > 0.9, "{:.4}", r.availability());
}

#[test]
fn fault_injection_composes_with_the_cluster() {
    // ECRC draws per TLP, so object-sized transfers see hundreds of
    // corruption events each; 4e-4 keeps the storm busy without drowning
    // every request in exhausted retries.
    let cfg = ClusterConfig {
        fault_rate: 0.0004,
        ..small_cfg()
    };
    let mut cluster = build_cluster(&cfg);
    cluster.sim.run();
    assert!(cluster.sim.is_idle(), "faulty cluster must still drain");
    let injected: u64 = cluster
        .sim
        .world()
        .get::<FaultPlan>()
        .expect("plan installed")
        .tallies()
        .map(|(_, s)| s.injected)
        .sum();
    assert!(injected > 0, "storm must actually fire");
    let report = cluster
        .sim
        .world_mut()
        .remove::<dcs_ctrl::cluster::ClusterOutcome>()
        .expect("report present")
        .0;
    // Recovery absorbs the storm: the cluster keeps serving, and every
    // request still completes exactly once (ok or error, never neither —
    // run_cluster's drain assertion above proves no request hung).
    assert!(report.requests > 10, "{}", report.requests);
}
