//! The HDFS balancer (§V-C2), end to end.
//!
//! Moves a batch of blocks from node A to node B: A reads each block off
//! its SSD and transmits; B gathers the packets, CRC32-checks the block,
//! and persists it. Prints per-node CPU bills for the software baseline
//! and DCS-ctrl, then verifies every byte landed intact.
//!
//! ```text
//! cargo run --example hdfs_balancer
//! ```

use dcs_ctrl::bench::{fig12::workload_table, Report};
use dcs_ctrl::pcie::PhysMemory;
use dcs_ctrl::sim::time;
use dcs_ctrl::workloads::scenario::DesignUnderTest;
use dcs_ctrl::workloads::{run_hdfs, HdfsConfig};

fn main() {
    let cfg = HdfsConfig {
        duration_ns: time::ms(30),
        warmup_ns: time::ms(8),
        offered_gbps: 6.0,
        block_size: 512 * 1024,
        ..HdfsConfig::default()
    };
    let runs: Vec<_> = [DesignUnderTest::SwOpt, DesignUnderTest::DcsCtrl]
        .into_iter()
        .map(|d| (d, run_hdfs(d, &cfg)))
        .collect();
    let mut r = Report::new(
        "hdfs_balancer",
        false,
        "HDFS balancer: sender reads+sends, receiver gathers+CRC32+stores",
    );
    workload_table(
        r.section(""),
        "hdfs",
        runs.iter().flat_map(|(d, (snd, rcv))| {
            [
                (format!("{} sender", d.label()), snd),
                (format!("{} receiver", d.label()), rcv),
            ]
        }),
    );
    println!("{}", r.text());

    // Byte-level verification on a fresh testbed: one balancer block,
    // checked end to end.
    use dcs_ctrl::host::job::{D2dDone, D2dJob, D2dOp};
    use dcs_ctrl::ndp::NdpFunction;
    use dcs_ctrl::nic::{TcpFlow, WireConfig};
    use dcs_ctrl::sim::{Component, ComponentId, Ctx, Msg, Simulator};

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
            if let Some(d) = &done.digest {
                println!(
                    "  receiver CRC32 of the block: {}",
                    dcs_ctrl::ndp::to_hex(d)
                );
            }
        }
    }

    let mut sim = Simulator::new(7);
    let (a, b) = dcs_ctrl::core::build_dcs_pair(
        &mut sim,
        &dcs_ctrl::core::DcsNodeBuilder::new("sender"),
        &dcs_ctrl::core::DcsNodeBuilder::new("receiver"),
        WireConfig::default(),
    );
    let app = sim.add("app", App);
    sim.run();
    let block: Vec<u8> = (0..512 * 1024).map(|i| (i * 131 % 251) as u8).collect();
    sim.world_mut()
        .expect_mut::<PhysMemory>()
        .write(a.ssds[0].lba_addr(0), &block);
    println!(
        "verification block: 512 KiB, crc32 {:08x}",
        dcs_ctrl::ndp::crc32::crc32(&block)
    );
    let flow = TcpFlow::example(1, 2, 42_000, 8_020);
    sim.kickoff(
        app,
        Submit {
            to: b.driver,
            job: D2dJob {
                id: 2,
                ops: vec![
                    D2dOp::NicRecv {
                        flow: flow.reversed(),
                        len: block.len(),
                    },
                    D2dOp::Process {
                        function: NdpFunction::Crc32,
                        aux: vec![],
                    },
                    D2dOp::SsdWrite { ssd: 0, lba: 4000 },
                ],
                reply_to: app,
                tag: "verify",
            },
        },
    );
    sim.kickoff(
        app,
        Submit {
            to: a.driver,
            job: D2dJob {
                id: 1,
                ops: vec![
                    D2dOp::SsdRead {
                        ssd: 0,
                        lba: 0,
                        len: block.len(),
                    },
                    D2dOp::NicSend { flow, seq: 0 },
                ],
                reply_to: app,
                tag: "verify",
            },
        },
    );
    sim.run();
    let landed = sim
        .world()
        .expect::<PhysMemory>()
        .read(b.ssds[0].lba_addr(4000), block.len());
    assert_eq!(
        landed, block,
        "block must land intact on the receiver's flash"
    );
    println!("  block landed intact on the receiver's SSD ✓");
}
