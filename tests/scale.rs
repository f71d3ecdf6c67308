//! Scale tests: the Figure 13 hardware configuration (six SSDs per node),
//! bounded memory under sustained load, and the cluster-64 gate the
//! timing-wheel scheduler rebuild (DESIGN.md §16) is held to.

use dcs_ctrl::cluster::{build_cluster, ClusterConfig, ClusterOutcome, LbPolicy};
use dcs_ctrl::host::job::{D2dDone, D2dJob, D2dOp};
use dcs_ctrl::ndp::NdpFunction;
use dcs_ctrl::nic::TcpFlow;
use dcs_ctrl::pcie::PhysMemory;
use dcs_ctrl::sim::time;
use dcs_ctrl::sim::{Component, ComponentId, Ctx, Msg};
use dcs_ctrl::workloads::gen::SizeDistribution;
use dcs_ctrl::workloads::scenario::{DesignUnderTest, Testbed, TestbedConfig};

#[derive(Default, Debug)]
struct Inbox(Vec<D2dDone>);

struct App;

#[derive(Debug)]
struct Submit {
    to: ComponentId,
    job: D2dJob,
}

impl Component for App {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<Submit>() {
            Ok(Submit { to, job }) => {
                ctx.send_now(to, job);
                return;
            }
            Err(m) => m,
        };
        let done = msg.downcast::<D2dDone>().expect("completions");
        ctx.world().stats.counter("app.done").add(1);
        if done.ok {
            ctx.world().stats.counter("app.ok").add(1);
        }
        if ctx.world().get::<Inbox>().is_none() {
            ctx.world().insert(Inbox::default());
        }
        ctx.world().expect_mut::<Inbox>().0.push(done);
    }
}

#[test]
fn six_ssd_node_reads_from_every_drive() {
    let cfg = TestbedConfig {
        ssds_per_node: 6,
        ..TestbedConfig::default()
    };
    for design in [DesignUnderTest::SwOpt, DesignUnderTest::DcsCtrl] {
        let mut tb = Testbed::new(design, &cfg);
        let app = tb.sim.add("app", App);
        tb.sim.run();
        assert_eq!(tb.server.ssds.len(), 6);
        for (i, ssd) in tb.server.ssds.iter().enumerate() {
            let data = vec![i as u8 + 1; 8192];
            tb.sim
                .world_mut()
                .expect_mut::<PhysMemory>()
                .write(ssd.lba_addr(0), &data);
        }
        for i in 0..6u64 {
            let job = D2dJob {
                id: i,
                ops: vec![
                    D2dOp::SsdRead {
                        ssd: i as usize,
                        lba: 0,
                        len: 8192,
                    },
                    D2dOp::Process {
                        function: NdpFunction::Md5,
                        aux: vec![],
                    },
                ],
                reply_to: app,
                tag: "six-ssd",
            };
            tb.sim.kickoff(
                app,
                Submit {
                    to: tb.server.submit_to,
                    job,
                },
            );
        }
        tb.sim.run();
        assert_eq!(tb.sim.world().stats.counter_value("app.ok"), 6, "{design}");
        // Digests must differ per drive (distinct contents).
        let inbox = tb.sim.world().expect::<Inbox>();
        let mut digests: Vec<_> = inbox.0.iter().filter_map(|d| d.digest.clone()).collect();
        digests.sort();
        digests.dedup();
        assert_eq!(digests.len(), 6, "{design}");
    }
}

#[test]
fn sustained_stream_keeps_resident_memory_bounded() {
    let mut tb = Testbed::new(DesignUnderTest::DcsCtrl, &TestbedConfig::default());
    let app = tb.sim.add("app", App);
    tb.sim.run();
    let flow = TcpFlow::example(1, 2, 60_000, 9_600);
    // 200 x 64 KiB = 12.5 MiB through the engine.
    for i in 0..200u64 {
        let job = D2dJob {
            id: i,
            ops: vec![
                D2dOp::SsdRead {
                    ssd: 0,
                    lba: i * 16,
                    len: 64 * 1024,
                },
                D2dOp::NicSend {
                    flow,
                    seq: (i * 65536) as u32,
                },
            ],
            reply_to: app,
            tag: "stream",
        };
        tb.sim.kickoff(
            app,
            Submit {
                to: tb.server.submit_to,
                job,
            },
        );
    }
    tb.sim.run();
    assert_eq!(tb.sim.world().stats.counter_value("app.ok"), 200);
    // Sparse backing: resident bytes stay far below the address space
    // (< 256 MiB for a testbed whose regions span hundreds of GiB).
    let resident = tb.sim.world().expect::<PhysMemory>().resident_bytes();
    assert!(resident < 256 << 20, "resident {resident} bytes");
}

#[test]
fn wire_is_the_bottleneck_for_bulk_dcs_transfers() {
    // 64 MiB through the engine must take at least the wire time and not
    // much more (the control path adds microseconds, not milliseconds).
    let mut tb = Testbed::new(DesignUnderTest::DcsCtrl, &TestbedConfig::default());
    let app = tb.sim.add("app", App);
    tb.sim.run();
    let flow = TcpFlow::example(1, 2, 61_000, 9_700);
    let t0 = tb.sim.now();
    let total: usize = 64 << 20;
    let per = 1 << 20;
    for i in 0..(total / per) as u64 {
        let job = D2dJob {
            id: i,
            ops: vec![
                D2dOp::SsdRead {
                    ssd: 0,
                    lba: i * 256,
                    len: per,
                },
                D2dOp::NicSend {
                    flow,
                    seq: (i as u32).wrapping_mul(per as u32),
                },
            ],
            reply_to: app,
            tag: "bulk",
        };
        tb.sim.kickoff(
            app,
            Submit {
                to: tb.server.submit_to,
                job,
            },
        );
    }
    tb.sim.run();
    assert_eq!(
        tb.sim.world().stats.counter_value("app.ok"),
        (total / per) as u64
    );
    let elapsed = tb.sim.now() - t0;
    let wire_floor = dcs_ctrl::sim::Bandwidth::gbps(10.0).transfer_time(total);
    assert!(elapsed >= wire_floor, "{elapsed} >= {wire_floor}");
    assert!(
        elapsed < wire_floor * 2,
        "control overhead must not dominate bulk transfers: {elapsed} vs {wire_floor}"
    );
}

#[test]
fn cluster_64_open_loop_completes_inside_ci_time() {
    // The engine-speed gate: a 64-node rack — 64 full testbeds (PCIe
    // fabric, SSDs, NIC, HDC Engine each) plus the ToR switch and the
    // front end — under open-loop load, scaled down in duration so the
    // gate is CI-cheap. Before the timing wheel this exact shape is what
    // capped the sweeps at 8 nodes. The gate asserts completion, zero
    // wrong-payload/lost requests, and a conservative wall-clock floor
    // on delivered events/sec (the real trajectory numbers live in
    // BENCH_engine.json; this floor only catches order-of-magnitude
    // regressions on the slowest CI hardware).
    let cfg = ClusterConfig {
        nodes: 64,
        policy: LbPolicy::JoinShortestQueue,
        objects: 4096,
        sizes: SizeDistribution {
            mu: 9.2,
            sigma: 0.6,
            min: 4096,
            max: 64 * 1024,
        },
        offered_gbps_per_node: 2.0,
        duration_ns: time::ms(4),
        warmup_ns: time::ms(1),
        seed: 0x64C1,
        ..ClusterConfig::default()
    };
    let mut cluster = build_cluster(&cfg);
    let bringup_events = cluster.sim.delivered_events();
    #[expect(
        clippy::disallowed_methods,
        reason = "measures host elapsed time of the gate itself; never feeds simulation state"
    )]
    let wall_start = std::time::Instant::now();
    cluster.sim.run();
    let wall = wall_start.elapsed();
    assert!(cluster.sim.is_idle(), "cluster-64 must drain");
    let report = cluster
        .sim
        .world_mut()
        .remove::<ClusterOutcome>()
        .expect("cluster-64 run leaves a report")
        .0;
    let events = cluster.sim.delivered_events() - bringup_events;
    let events_per_sec = events as f64 / wall.as_secs_f64().max(1e-9);
    println!(
        "cluster-64 gate: {events} events in {:.2}s ({events_per_sec:.0} events/sec, \
         {} served requests, batched {})",
        wall.as_secs_f64(),
        report.requests,
        cluster.sim.batched_events(),
    );
    assert!(
        report.requests > 1_000,
        "open-loop window must serve real traffic: {} requests",
        report.requests
    );
    assert_eq!(report.failures, 0, "zero wrong-payload completions");
    assert_eq!(
        report.lost, 0,
        "no fault was configured; nothing may be lost"
    );
    assert!(
        report.latency.percentile(50.0).is_some(),
        "latency histogram must have signal"
    );
    // Floor chosen ~50× under the wheel's measured release-build rate so
    // debug builds and loaded CI runners pass; a heap-era regression at
    // this scale shows up as minutes, not seconds.
    assert!(
        events_per_sec > 20_000.0,
        "events/sec floor: {events_per_sec:.0}"
    );
    assert!(
        wall.as_secs() < 120,
        "cluster-64 gate must stay CI-cheap: {:.1}s",
        wall.as_secs_f64()
    );
}
