//! Determinism regression: the same seeded testbed job, run twice in
//! fresh processes' worth of state, must produce **byte-identical**
//! trace output — completions, final simulated time, and every counter
//! in the world stats (the latency anatomy is compared as a Chrome trace
//! by `chrome_traces_are_themselves_deterministic`).
//!
//! This is the property the workspace lints protect (DESIGN.md §10:
//! `clippy.toml`, `[workspace.lints]` and `tests/dcs_lint.rs`): before
//! the DetMap migration, any device table iterated in hash order could
//! silently reorder same-timestamp events between runs.
//! The serialized trace here deliberately includes every stats counter
//! so even a divergence that cancels out in the end-to-end latency
//! still fails the comparison.

use dcs_ctrl::host::job::{D2dDone, D2dOp};
use dcs_ctrl::ndp::NdpFunction;
use dcs_ctrl::nic::TcpFlow;
use dcs_ctrl::pcie::PhysMemory;
use dcs_ctrl::sim::FaultPlan;
use dcs_ctrl::workloads::scenario::{DesignUnderTest, Testbed, TestbedConfig};

const LEN: usize = 16 * 1024;

fn pattern() -> Vec<u8> {
    (0..LEN)
        .map(|i| (i.wrapping_mul(2654435761) >> 7) as u8)
        .collect()
}

/// Runs one server→client transfer (SSD read → NIC send | NIC recv →
/// MD5) on a fresh testbed and serializes everything observable about
/// the run into a text trace.
fn run_traced(design: DesignUnderTest, seed: u64, with_faults: bool) -> String {
    run_traced_obs(design, seed, with_faults, false)
}

/// Like [`run_traced`], optionally with the observability recorder
/// enabled — which must change *nothing* about the serialized trace.
fn run_traced_obs(design: DesignUnderTest, seed: u64, with_faults: bool, obs: bool) -> String {
    run_traced_full(design, seed, with_faults, obs, false)
}

/// The full-control variant: `reference_heap` swaps the timing-wheel
/// calendar for the `BinaryHeap` reference model before bring-up, so the
/// wheel-vs-heap sweep compares complete event streams.
fn run_traced_full(
    design: DesignUnderTest,
    seed: u64,
    with_faults: bool,
    obs: bool,
    reference_heap: bool,
) -> String {
    let pat = pattern();
    let mut tb = Testbed::new(
        design,
        &TestbedConfig {
            seed,
            ..Default::default()
        },
    );
    if reference_heap {
        tb.sim.set_reference_heap();
    }
    tb.sim.run(); // settle bring-up before touching flash
    if obs {
        tb.sim.world_mut().obs.enable();
    }
    let addr = tb.server.ssds[0].lba_addr(0);
    tb.sim
        .world_mut()
        .expect_mut::<PhysMemory>()
        .write(addr, &pat);
    if with_faults {
        tb.install_faults(|rng| FaultPlan::uniform(0.01, rng));
    }

    let flow = TcpFlow::example(1, 2, 41_000, 9_000);
    let server = tb.server.submit_to;
    let client = tb.client.submit_to;
    let done = tb.run_job_batch(vec![
        (
            server,
            vec![
                D2dOp::SsdRead {
                    ssd: 0,
                    lba: 0,
                    len: LEN,
                },
                D2dOp::NicSend { flow, seq: 0 },
            ],
            "det-send",
        ),
        (
            client,
            vec![
                D2dOp::NicRecv {
                    flow: flow.reversed(),
                    len: LEN,
                },
                D2dOp::Process {
                    function: NdpFunction::Md5,
                    aux: vec![],
                },
            ],
            "det-recv",
        ),
    ]);

    serialize_trace(&tb, &done)
}

fn serialize_trace(tb: &Testbed, done: &[D2dDone]) -> String {
    let mut out = String::new();
    out.push_str(&format!("now={:?}\n", tb.sim.now()));
    let mut done: Vec<&D2dDone> = done.iter().collect();
    done.sort_by_key(|d| d.id);
    for d in done {
        out.push_str(&format!(
            "job id={} ok={} payload_len={} digest={:?}\n",
            d.id, d.ok, d.payload_len, d.digest
        ));
    }
    // Every counter in the world: hash-order divergence anywhere in the
    // event stream shows up in retry/fault/queue counters even when the
    // end-to-end numbers agree. Stats iterates a BTreeMap, so the
    // serialization order itself is deterministic.
    for (name, value) in tb.sim.world().stats.iter() {
        out.push_str(&format!("stat {name}={value}\n"));
    }
    out
}

#[test]
fn same_seed_twice_is_byte_identical_on_every_design() {
    for design in [
        DesignUnderTest::SwOpt,
        DesignUnderTest::SwP2p,
        DesignUnderTest::DcsCtrl,
    ] {
        let a = run_traced(design, 0xD5EED, false);
        let b = run_traced(design, 0xD5EED, false);
        assert!(
            !a.is_empty() && a.contains("ok=true"),
            "{design}: job must succeed\n{a}"
        );
        assert_eq!(a, b, "{design}: same-seed trace diverged");
    }
}

#[test]
fn same_seed_twice_is_byte_identical_under_fault_storm() {
    // Faults exercise the retry/watchdog paths, which lean hardest on
    // the migrated device tables (outstanding ops, in-flight DMAs).
    let a = run_traced(DesignUnderTest::DcsCtrl, 0xFA0175, true);
    let b = run_traced(DesignUnderTest::DcsCtrl, 0xFA0175, true);
    assert!(a.contains("stat fault.injected"), "storm must fire:\n{a}");
    assert_eq!(a, b, "fault-storm trace diverged");
}

#[test]
fn tracing_on_vs_off_is_byte_identical() {
    // The observability recorder (DESIGN.md §11) is purely passive: a
    // run with spans/metrics recording must serialize exactly like one
    // without. This holds on the clean path and under a fault storm
    // (where recovery timing would expose any perturbation).
    for design in [DesignUnderTest::SwOpt, DesignUnderTest::DcsCtrl] {
        let off = run_traced_obs(design, 0x0B5E7E, false, false);
        let on = run_traced_obs(design, 0x0B5E7E, false, true);
        assert_eq!(off, on, "{design}: enabling tracing changed the simulation");
    }
    let off = run_traced_obs(DesignUnderTest::DcsCtrl, 0x0B5FA1, true, false);
    let on = run_traced_obs(DesignUnderTest::DcsCtrl, 0x0B5FA1, true, true);
    assert_eq!(off, on, "enabling tracing changed a fault-storm run");
}

#[test]
fn chrome_traces_are_themselves_deterministic() {
    // Two same-seed traced runs must export byte-identical trace JSON:
    // span order, pid assignment, and anatomy all derive from sim state.
    let export = || {
        let pat = pattern();
        let mut tb = Testbed::new(
            DesignUnderTest::DcsCtrl,
            &TestbedConfig {
                seed: 7,
                ..Default::default()
            },
        );
        tb.sim.run();
        tb.sim.world_mut().obs.enable();
        let addr = tb.server.ssds[0].lba_addr(0);
        tb.sim
            .world_mut()
            .expect_mut::<PhysMemory>()
            .write(addr, &pat);
        let flow = TcpFlow::example(1, 2, 41_500, 9_050);
        let server = tb.server.submit_to;
        let client = tb.client.submit_to;
        tb.run_job_batch(vec![
            (
                server,
                vec![
                    D2dOp::SsdRead {
                        ssd: 0,
                        lba: 0,
                        len: LEN,
                    },
                    D2dOp::NicSend { flow, seq: 0 },
                ],
                "det-send",
            ),
            (
                client,
                vec![D2dOp::NicRecv {
                    flow: flow.reversed(),
                    len: LEN,
                }],
                "det-recv",
            ),
        ]);
        dcs_ctrl::sim::chrome_trace(&tb.sim.world().obs)
    };
    let a = export();
    let b = export();
    assert!(a.contains("traceEvents"), "export must be a Chrome trace");
    assert_eq!(a, b, "same-seed trace JSON diverged");
}

#[test]
fn different_seeds_produce_different_traces_under_faults() {
    // Sanity check that the serialization actually captures run
    // behavior (a trivially constant trace would pass the tests above).
    let a = run_traced(DesignUnderTest::DcsCtrl, 1, true);
    let b = run_traced(DesignUnderTest::DcsCtrl, 2, true);
    assert_ne!(a, b, "different fault seeds should perturb the trace");
}

#[test]
fn wheel_and_heap_reference_trace_identically_across_seeds() {
    // The scheduler-equivalence gate (DESIGN.md §16): before the heap
    // was demoted to a test-only reference model, the timing wheel had
    // to produce byte-identical traces on the real device stack — here
    // under a fault storm, for 8 seeds, including every stats counter.
    const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 0xFEED, 0xD15EA5E];
    for seed in SEEDS {
        let wheel = run_traced_full(DesignUnderTest::DcsCtrl, seed, true, false, false);
        let heap = run_traced_full(DesignUnderTest::DcsCtrl, seed, true, false, true);
        assert!(
            wheel.contains("job id="),
            "seed {seed:#x}: run must complete jobs\n{wheel}"
        );
        assert_eq!(wheel, heap, "seed {seed:#x}: wheel-vs-heap trace diverged");
    }
}

#[test]
fn cluster_gray_fault_schedule_replays_byte_identically() {
    // Every gray-failure site at once: a fail-slow node (stretched
    // service, probes still acking), a degraded ToR port, and a crash
    // with a mid-window restart driving the full rejoin lifecycle
    // (anti-entropy stream included). Each adds its own event types and
    // timer cancellations to the calendar; the whole tangle must replay
    // byte-identically from the seed — counters, phase rows, and the
    // rejoin figures included. (Since the timing-wheel rebuild this
    // composite schedule runs on the wheel calendar — the heaviest
    // mixed-timer workload the determinism gate covers.)
    use dcs_ctrl::cluster::{run_cluster, ClusterConfig, HealthConfig, LbPolicy, NodeFault};
    use dcs_ctrl::sim::time;
    use dcs_ctrl::workloads::gen::SizeDistribution;

    let cfg = ClusterConfig {
        nodes: 4,
        policy: LbPolicy::JoinShortestQueue,
        objects: 256,
        sizes: SizeDistribution {
            mu: 9.2,
            sigma: 0.6,
            min: 4096,
            max: 64 * 1024,
        },
        offered_gbps_per_node: 2.0,
        duration_ns: time::ms(16),
        warmup_ns: time::ms(3),
        seed: 0x6EA7,
        node_faults: vec![
            NodeFault::FailSlow {
                node: 1,
                at_ns: time::ms(3),
                for_ns: time::ms(5),
                factor: 10,
            },
            NodeFault::LinkDegrade {
                node: 2,
                at_ns: time::ms(4),
                for_ns: time::ms(5),
                speed_pct: 5,
            },
            NodeFault::Crash {
                node: 3,
                at_ns: time::ms(5),
                restart_at_ns: Some(time::ms(11)),
            },
        ],
        health: HealthConfig {
            rejoin_gbps: 8.0,
            ..HealthConfig::default()
        },
        ..ClusterConfig::default()
    };
    let a = run_cluster(&cfg);
    let b = run_cluster(&cfg);
    assert_eq!(a, b, "same seed, same report");
    assert_eq!(
        (
            a.slow_evictions,
            a.slow_readmissions,
            a.rejoin_bytes,
            a.rejoin_ns
        ),
        (
            b.slow_evictions,
            b.slow_readmissions,
            b.rejoin_bytes,
            b.rejoin_ns
        )
    );
    assert_eq!(a.latency.percentile(99.9), b.latency.percentile(99.9));
    // The schedule did real damage and real work — a run where the
    // faults never fired would make the identity check vacuous.
    assert!(
        a.requests > 100,
        "the run must do real work: {}",
        a.requests
    );
    // (`detection_ns` attributes to the *first* configured fault's node —
    // here the fail-slow node, which correctly never goes Dead. The crash
    // being detected is proven by the rejoin stream, which only runs
    // after a Dead declaration.)
    assert!(a.rejoin_bytes > 0, "the rejoin stream must run");
    assert!(
        a.rejoin_ns.is_some(),
        "the restarted node must finish rejoining"
    );
    assert!(
        a.slow_detection_ns.is_some(),
        "a gray site must trip the differential detector"
    );
}

#[test]
fn store_fault_schedule_replays_byte_identically() {
    // The store runs the same probe-driven lifecycle as the rack: a
    // fail-slow node the differential detector must catch, plus a crash
    // whose node restarts and rejoins (failover, anti-entropy, cache
    // warm set). With caches, version commits and per-tenant rows on
    // top, the whole run must replay byte-identically from the seed.
    use dcs_ctrl::cluster::NodeFault;
    use dcs_ctrl::sim::time;
    use dcs_ctrl::store::cache::{Admission, CacheConfig};
    use dcs_ctrl::store::{run_store, StoreConfig, TenantSpec};
    use dcs_ctrl::workloads::ycsb::YcsbWorkload;

    let mut reads = TenantSpec::new("reads", YcsbWorkload::B);
    reads.keys = 512;
    reads.offered_gbps = 4.0;
    let mut updates = TenantSpec::new("updates", YcsbWorkload::A);
    updates.keys = 256;
    updates.offered_gbps = 2.0;
    let cfg = StoreConfig {
        nodes: 4,
        tenants: vec![reads, updates],
        cache: CacheConfig {
            capacity_bytes: 32 << 20,
            admission: Admission::ScanResistant,
        },
        duration_ns: time::ms(24),
        warmup_ns: time::ms(2),
        seed: 0x5707,
        node_faults: vec![
            NodeFault::FailSlow {
                node: 2,
                at_ns: time::ms(3),
                for_ns: time::ms(8),
                factor: 10,
            },
            NodeFault::Crash {
                node: 1,
                at_ns: time::ms(5),
                restart_at_ns: Some(time::ms(11)),
            },
        ],
        ..StoreConfig::default()
    };
    let a = run_store(&cfg);
    let b = run_store(&cfg);
    assert_eq!(a, b, "same seed, same report: every field replays");
    // The schedule did real damage and real work.
    assert!(
        a.requests > 100,
        "the run must do real work: {}",
        a.requests
    );
    assert!(
        a.slow_detection_ns.is_some(),
        "the slow node must be caught"
    );
    assert!(a.rejoin_ns.is_some(), "the crashed node must rejoin");
    assert_eq!(a.stale_served, 0);
}
