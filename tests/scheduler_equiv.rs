//! Full-stack scheduler equivalence: the timing-wheel calendar vs the
//! `BinaryHeap` reference model, compared on complete testbed and
//! cluster workloads (DESIGN.md §16).
//!
//! `crates/sim/tests/scheduler_equiv.rs` proves equivalence with
//! adversarial synthetic schedules; this suite proves it where it
//! matters — the real device models, with fault schedules pinned down
//! in the exact `Counterexample::repro` format the chaos fuzzer emits.
//! Any counterexample the fuzzer ever prints can be pasted into
//! `CORPUS` below and is then replayed on *both* calendars forever.

use dcs_ctrl::cluster::{run_cluster, ClusterConfig, ClusterOutcome, LbPolicy, NodeFault};
use dcs_ctrl::host::job::{D2dDone, D2dOp};
use dcs_ctrl::ndp::NdpFunction;
use dcs_ctrl::nic::TcpFlow;
use dcs_ctrl::pcie::PhysMemory;
use dcs_ctrl::sim::{time, FaultPlan, FaultSpec};
use dcs_ctrl::workloads::gen::SizeDistribution;
use dcs_ctrl::workloads::scenario::{DesignUnderTest, Testbed, TestbedConfig};

/// Fixed-seed corpus in the fuzzer's [`dcs_ctrl::sim::Counterexample::repro`]
/// output format. The first entry is schedule-free (a shrunk-to-nothing
/// counterexample, which the format permits); the rest pin fault events
/// at the indices most likely to land inside retry/watchdog windows.
const CORPUS: [&str; 4] = [
    "violation: non-deterministic replay\n\
     seed: 0x000000000000d5ee\n\
     schedule (0 fault events, shrunk from 12):\n",
    "violation: wrong payload delivered as success (job 1)\n\
     seed: 0x0000000000fa0175\n\
     schedule (3 fault events, shrunk from 21):\n\
     \x20 plan.enable(\"wire.drop\", FaultSpec::Nth(vec![0, 4]));\n\
     \x20 plan.enable(\"nvme.media\", FaultSpec::Nth(vec![1]));\n",
    "violation: hung/panicked request: job 2 stalled\n\
     seed: 0x0000000000c0ffee\n\
     schedule (4 fault events, shrunk from 30):\n\
     \x20 plan.enable(\"pcie.replay\", FaultSpec::Nth(vec![0, 1, 2]));\n\
     \x20 plan.enable(\"pcie.msi_loss\", FaultSpec::Nth(vec![0]));\n",
    "violation: wrong payload delivered as success (job 3)\n\
     seed: 0x00000000deadbea7\n\
     schedule (5 fault events, shrunk from 44):\n\
     \x20 plan.enable(\"pcie.dma_corrupt\", FaultSpec::Nth(vec![0, 2]));\n\
     \x20 plan.enable(\"pcie.cpl_corrupt\", FaultSpec::Nth(vec![1]));\n\
     \x20 plan.enable(\"wire.corrupt\", FaultSpec::Nth(vec![0, 3]));\n",
];

/// Parses one `Counterexample::repro` rendering back into the seed and
/// pinned per-site schedules. Site names resolve against
/// [`FaultPlan::SITES`] (the format quotes the `&'static str` site
/// constants verbatim).
fn parse_repro(text: &str) -> (u64, Vec<(&'static str, Vec<u64>)>) {
    let mut seed = None;
    let mut sites = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if let Some(hex) = line.strip_prefix("seed: 0x") {
            seed = Some(u64::from_str_radix(hex, 16).expect("seed line parses as hex"));
        } else if let Some(rest) = line.strip_prefix("plan.enable(\"") {
            let (name, rest) = rest.split_once('"').expect("site name closes its quote");
            let site = FaultPlan::SITES
                .iter()
                .copied()
                .find(|s| *s == name)
                .unwrap_or_else(|| panic!("corpus names unknown fault site {name:?}"));
            let list = rest
                .split_once("vec![")
                .expect("Nth schedule renders as vec![..]")
                .1
                .split_once(']')
                .expect("vec closes")
                .0;
            let idxs = list
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(|s| s.parse().expect("fault index parses"))
                .collect();
            sites.push((site, idxs));
        }
    }
    (seed.expect("corpus entry carries a seed"), sites)
}

const LEN: usize = 16 * 1024;

fn pattern() -> Vec<u8> {
    (0..LEN)
        .map(|i| (i.wrapping_mul(2654435761) >> 7) as u8)
        .collect()
}

/// Replays one pinned schedule on a full testbed (server→client
/// transfer, SSD → NIC | NIC → MD5) and serializes everything
/// observable. `reference_heap` selects the calendar — including for
/// bring-up, so the comparison covers the whole event stream.
fn replay(
    design: DesignUnderTest,
    seed: u64,
    schedule: &[(&'static str, Vec<u64>)],
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
    assert_eq!(
        tb.sim.scheduler_name(),
        if reference_heap {
            "reference-heap"
        } else {
            "timing-wheel"
        }
    );
    tb.sim.run();
    // Record each job's latency anatomy: both calendars must time every
    // phase alike, not only the end.
    tb.sim.world_mut().obs.enable();
    let addr = tb.server.ssds[0].lba_addr(0);
    tb.sim
        .world_mut()
        .expect_mut::<PhysMemory>()
        .write(addr, &pat);
    if !schedule.is_empty() {
        let schedule = schedule.to_vec();
        tb.install_faults(move |rng| {
            let mut plan = FaultPlan::new(rng);
            for (site, idxs) in schedule {
                plan.enable(site, FaultSpec::Nth(idxs));
            }
            plan
        });
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
            "equiv-send",
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
            "equiv-recv",
        ),
    ]);
    serialize(&tb, &done)
}

fn serialize(tb: &Testbed, done: &[D2dDone]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "now={:?} delivered={}\n",
        tb.sim.now(),
        tb.sim.delivered_events()
    ));
    let mut done: Vec<&D2dDone> = done.iter().collect();
    done.sort_by_key(|d| d.id);
    for d in done {
        out.push_str(&format!(
            "job id={} ok={} payload_len={} digest={:?}\n",
            d.id, d.ok, d.payload_len, d.digest
        ));
        if let Some(a) = tb.sim.world().obs.anatomy(d.id) {
            for (cat, ns) in &a.segments {
                out.push_str(&format!("  {}={ns}\n", cat.label()));
            }
        }
    }
    for (name, value) in tb.sim.world().stats.iter() {
        out.push_str(&format!("stat {name}={value}\n"));
    }
    out
}

#[test]
fn corpus_replays_identically_on_wheel_and_heap() {
    for (i, entry) in CORPUS.iter().enumerate() {
        let (seed, schedule) = parse_repro(entry);
        for design in [DesignUnderTest::DcsCtrl, DesignUnderTest::SwOpt] {
            let wheel = replay(design, seed, &schedule, false);
            let heap = replay(design, seed, &schedule, true);
            assert!(
                wheel.contains("job id="),
                "corpus[{i}] {design}: replay must complete jobs\n{wheel}"
            );
            assert_eq!(
                wheel, heap,
                "corpus[{i}] {design}: wheel and heap traces diverged"
            );
        }
    }
}

#[test]
fn corpus_schedules_actually_inject() {
    // The equivalence above would be vacuous if the pinned schedules
    // never fired; prove the faulted entries do real damage.
    let (seed, schedule) = parse_repro(CORPUS[1]);
    assert_eq!(schedule.len(), 2, "entry pins two sites");
    let trace = replay(DesignUnderTest::DcsCtrl, seed, &schedule, false);
    assert!(
        trace.contains("stat fault.injected"),
        "pinned schedule must fire:\n{trace}"
    );
}

#[test]
fn cluster_report_is_identical_on_wheel_and_heap() {
    // A cluster run exercises the calendar shapes the microbenches
    // cannot: tens of components, Poisson arrivals, probe timers, and a
    // mid-run fail-slow window. The heap arm swaps calendars *before*
    // the traffic phase via `build_cluster`'s exposed simulator.
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
        duration_ns: time::ms(8),
        warmup_ns: time::ms(2),
        seed: 0x005E_EDE0,
        node_faults: vec![NodeFault::FailSlow {
            node: 1,
            at_ns: time::ms(2),
            for_ns: time::ms(3),
            factor: 8,
        }],
        ..ClusterConfig::default()
    };
    let wheel = run_cluster(&cfg);
    let heap = {
        let mut cluster = dcs_ctrl::cluster::build_cluster(&cfg);
        cluster.sim.set_reference_heap();
        cluster.sim.run();
        assert!(cluster.sim.is_idle(), "heap-arm cluster must drain");
        cluster
            .sim
            .world_mut()
            .remove::<ClusterOutcome>()
            .expect("heap-arm run leaves a report")
            .0
    };
    assert!(wheel.requests > 50, "run must do real work");
    assert_eq!(wheel, heap, "cluster reports diverged between calendars");
    assert_eq!(
        wheel.latency.percentile(99.0),
        heap.latency.percentile(99.0)
    );
}
