//! End-to-end DCS-ctrl tests: two nodes, HDC Engines orchestrating
//! off-the-shelf SSD and NIC models, data verified byte-for-byte.

use dcs_core::lib_api::Permissions;
use dcs_core::{build_dcs_pair, DcsNodeBuilder, FileDesc, HdcLibrary, SocketDesc};
use dcs_host::job::{D2dDone, D2dJob, D2dOp};
use dcs_ndp::{md5::md5, NdpFunction};
use dcs_nic::{TcpFlow, WireConfig};
use dcs_pcie::PhysMemory;
use dcs_sim::{
    fault, time, Category, Component, ComponentId, Ctx, FaultPlan, FaultSpec, Msg, RecoveryConfig,
    Rng, SimTime, Simulator,
};

/// World-resident mailbox the tests read results from.
#[derive(Default, Debug)]
struct Inbox(Vec<D2dDone>);

/// Collects D2dDone results into world stats + the [`Inbox`].
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
        let done = msg
            .downcast::<D2dDone>()
            .expect("app receives job completions");
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

struct Rig {
    sim: Simulator,
    a: dcs_core::DcsNode,
    b: dcs_core::DcsNode,
    app: ComponentId,
}

fn setup() -> Rig {
    let mut sim = Simulator::new(42);
    let (a, b) = build_dcs_pair(
        &mut sim,
        &DcsNodeBuilder::new("alpha"),
        &DcsNodeBuilder::new("beta"),
        WireConfig::default(),
    );
    let app = sim.add("app", App);
    // Let initialization settle.
    sim.run();
    Rig { sim, a, b, app }
}

#[test]
fn ssd_to_nic_d2d_transfers_real_bytes() {
    let mut rig = setup();
    let len = 64 * 1024;
    let payload: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
    rig.sim
        .world_mut()
        .expect_mut::<PhysMemory>()
        .write(rig.a.ssds[0].lba_addr(500), &payload);

    let flow = TcpFlow::example(1, 2, 40_000, 9000);
    // Sender job on A: SSD read -> NIC send.
    let send_job = D2dJob {
        id: 1,
        ops: vec![
            D2dOp::SsdRead {
                ssd: 0,
                lba: 500,
                len,
            },
            D2dOp::NicSend { flow, seq: 1000 },
        ],
        reply_to: rig.app,
        tag: "send",
    };
    // Receiver job on B: NIC recv -> MD5 digest (verifies payload).
    let recv_flow = flow.reversed();
    let recv_job = D2dJob {
        id: 2,
        ops: vec![
            D2dOp::NicRecv {
                flow: recv_flow,
                len,
            },
            D2dOp::Process {
                function: NdpFunction::Md5,
                aux: vec![],
            },
        ],
        reply_to: rig.app,
        tag: "recv",
    };
    rig.sim.kickoff(
        rig.app,
        Submit {
            to: rig.b.driver,
            job: recv_job,
        },
    );
    rig.sim.kickoff(
        rig.app,
        Submit {
            to: rig.a.driver,
            job: send_job,
        },
    );
    rig.sim.run();

    assert_eq!(rig.sim.world().stats.counter_value("app.ok"), 2);
    assert_eq!(
        rig.sim.world().stats.counter_value("hdc.cmd_parse_errors"),
        0
    );
    // The wire really carried the bytes: no drops, frames counted.
    assert_eq!(
        rig.sim
            .world()
            .stats
            .counter_value("nic.rx_dropped_no_buffer"),
        0
    );
    assert!(rig.sim.world().stats.counter_value("wire.frames") >= (len / 1448) as u64);
}

/// A job numbered `n` that reports to `app`.
fn job(n: usize, ops: Vec<D2dOp>, app: ComponentId) -> D2dJob {
    D2dJob {
        id: n as u64,
        ops,
        reply_to: app,
        tag: "large-transfer",
    }
}

/// Non-zero pattern bytes, distinct per flow.
fn pattern(len: usize, flow: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 131 + flow * 71) % 255) as u8 + 1)
        .collect()
}

#[test]
fn large_receive_on_two_concurrent_flows_lands_byte_identical() {
    // Hundreds of frames per flow, interleaved on the wire, gathered out
    // of the engine's reassembly buffers into DDR3 and written to B's
    // flash.
    let mut rig = setup();
    let len = 3 << 19;
    let flows = [
        TcpFlow::example(1, 2, 41_000, 9300),
        TcpFlow::example(1, 2, 41_001, 9301),
    ];
    let (src_lba, dst_lba) = ([0u64, 4096], [20_000u64, 24_096]);
    // Each flow carries 1.5 MiB in two sends, received by two jobs whose
    // boundary falls inside a frame. The engine drops frames of a flow
    // with no posted receive, so the first job is posted up front and
    // drains 896 KiB as it arrives; the rest of the first send and all of
    // the second wait in the reassembly buffer for the second job. (Ring
    // wrap-around inside that buffer is covered by
    // `crates/pcie/tests/mem_model.rs` and the SW-driver twin of this
    // test.)
    let t0 = rig.sim.now();
    let later = |n: u64| t0 + n * time::ms(20);
    let mut jobs: Vec<(SimTime, ComponentId, D2dJob)> = Vec::new();
    for (k, flow) in flows.iter().enumerate() {
        rig.sim
            .world_mut()
            .expect_mut::<PhysMemory>()
            .write(rig.a.ssds[0].lba_addr(src_lba[k]), &pattern(len, k));
        // (when, first byte, bytes) of each send and each receive.
        let sends = [
            (later(0), 0usize, 1usize << 20),
            (later(1), 1 << 20, 1 << 19),
        ];
        let recvs = [
            (later(0), 0usize, 896usize << 10),
            (later(2), 896 << 10, 640 << 10),
        ];
        for (at, offset, part) in sends {
            let ops = vec![
                D2dOp::SsdRead {
                    ssd: 0,
                    lba: src_lba[k] + (offset / 4096) as u64,
                    len: part,
                },
                D2dOp::NicSend {
                    flow: *flow,
                    seq: offset as u32,
                },
            ];
            jobs.push((at, rig.a.driver, job(jobs.len(), ops, rig.app)));
        }
        for (at, offset, part) in recvs {
            let ops = vec![
                D2dOp::NicRecv {
                    flow: flow.reversed(),
                    len: part,
                },
                D2dOp::SsdWrite {
                    ssd: 0,
                    lba: dst_lba[k] + (offset / 4096) as u64,
                },
            ];
            jobs.push((at, rig.b.driver, job(jobs.len(), ops, rig.app)));
        }
    }
    let count = jobs.len() as u64;
    for (at, to, job) in jobs {
        rig.sim.schedule_at(at, rig.app, Submit { to, job });
    }
    rig.sim.run();
    assert_eq!(rig.sim.world().stats.counter_value("app.ok"), count);
    for (k, lba) in dst_lba.into_iter().enumerate() {
        let on_b = rig
            .sim
            .world()
            .expect::<PhysMemory>()
            .read(rig.b.ssds[0].lba_addr(lba), len);
        assert!(on_b == pattern(len, k), "flow {k}: payload corrupted");
    }
}

#[test]
fn digest_travels_back_in_the_completion_record() {
    let mut rig = setup();
    let len = 16 * 1024;
    let payload: Vec<u8> = (0..len).map(|i| (i * 7 % 253) as u8).collect();
    let expected = md5(&payload);
    rig.sim
        .world_mut()
        .expect_mut::<PhysMemory>()
        .write(rig.a.ssds[0].lba_addr(0), &payload);

    let flow = TcpFlow::example(1, 2, 40_001, 9001);
    // A computes MD5 via NDP while sending.
    let job = D2dJob {
        id: 7,
        ops: vec![
            D2dOp::SsdRead {
                ssd: 0,
                lba: 0,
                len,
            },
            D2dOp::Process {
                function: NdpFunction::Md5,
                aux: vec![],
            },
            D2dOp::NicSend { flow, seq: 0 },
        ],
        reply_to: rig.app,
        tag: "send-md5",
    };
    // B receives and digests independently.
    let recv = D2dJob {
        id: 8,
        ops: vec![
            D2dOp::NicRecv {
                flow: flow.reversed(),
                len,
            },
            D2dOp::Process {
                function: NdpFunction::Md5,
                aux: vec![],
            },
        ],
        reply_to: rig.app,
        tag: "recv-md5",
    };
    rig.sim.kickoff(
        rig.app,
        Submit {
            to: rig.b.driver,
            job: recv,
        },
    );
    rig.sim.kickoff(
        rig.app,
        Submit {
            to: rig.a.driver,
            job,
        },
    );
    rig.sim.run();
    assert_eq!(rig.sim.world().stats.counter_value("app.ok"), 2);
    assert_eq!(rig.sim.world().stats.counter_value("hdc.ndp_errors"), 0);
    // Both completion records carry the digest of the exact bytes that
    // crossed the fabric — sender-side and receiver-side must agree.
    let inbox = rig.sim.world().expect::<Inbox>();
    let digests: Vec<&Vec<u8>> = inbox.0.iter().filter_map(|d| d.digest.as_ref()).collect();
    assert_eq!(digests.len(), 2, "both jobs hash");
    for d in &digests {
        assert_eq!(
            d.as_slice(),
            expected.as_slice(),
            "digest matches payload MD5"
        );
    }
}

#[test]
fn recvfile_persists_received_data_to_remote_flash() {
    let mut rig = setup();
    let len = 32 * 1024;
    let payload: Vec<u8> = (0..len).map(|i| (i % 239) as u8).collect();
    rig.sim
        .world_mut()
        .expect_mut::<PhysMemory>()
        .write(rig.a.ssds[0].lba_addr(100), &payload);

    let mut lib = HdcLibrary::new();
    let flow = TcpFlow::example(1, 2, 50_000, 9002);
    let src_file = FileDesc {
        ssd: 0,
        base_lba: 100,
        len: len as u64,
        perms: Permissions::RO,
    };
    let sock_a = SocketDesc {
        flow,
        seq: 0,
        perms: Permissions::RW,
    };
    let send = lib
        .sendfile(&src_file, &sock_a, 0, len, rig.app, "balancer-send")
        .unwrap();

    let dst_file = FileDesc {
        ssd: 0,
        base_lba: 900,
        len: len as u64,
        perms: Permissions::RW,
    };
    let sock_b = SocketDesc {
        flow: flow.reversed(),
        seq: 0,
        perms: Permissions::RW,
    };
    let recv = lib
        .recvfile_processed(
            &sock_b,
            &dst_file,
            0,
            len,
            Some((NdpFunction::Crc32, vec![])),
            rig.app,
            "balancer-recv",
        )
        .unwrap();

    rig.sim.kickoff(
        rig.app,
        Submit {
            to: rig.b.driver,
            job: recv,
        },
    );
    rig.sim.kickoff(
        rig.app,
        Submit {
            to: rig.a.driver,
            job: send,
        },
    );
    rig.sim.run();

    assert_eq!(rig.sim.world().stats.counter_value("app.ok"), 2);
    // The HDFS-balancer flow: data left A's flash, crossed the wire, was
    // CRC-checked by B's NDP unit, and landed on B's flash.
    let on_b = rig
        .sim
        .world()
        .expect::<PhysMemory>()
        .read(rig.b.ssds[0].lba_addr(900), len);
    assert_eq!(on_b, payload);
}

#[test]
fn aes_encrypted_transfer_decrypts_on_the_other_side() {
    let mut rig = setup();
    let len = 8 * 1024;
    let payload: Vec<u8> = (0..len).map(|i| (i * 13 % 251) as u8).collect();
    rig.sim
        .world_mut()
        .expect_mut::<PhysMemory>()
        .write(rig.a.ssds[0].lba_addr(0), &payload);
    let mut aux = vec![0x42u8; 32];
    aux.extend([0x17u8; 16]);

    let flow = TcpFlow::example(1, 2, 50_001, 9003);
    let send = D2dJob {
        id: 11,
        ops: vec![
            D2dOp::SsdRead {
                ssd: 0,
                lba: 0,
                len,
            },
            D2dOp::Process {
                function: NdpFunction::Aes256Encrypt,
                aux: aux.clone(),
            },
            D2dOp::NicSend { flow, seq: 0 },
        ],
        reply_to: rig.app,
        tag: "secure-send",
    };
    let recv = D2dJob {
        id: 12,
        ops: vec![
            D2dOp::NicRecv {
                flow: flow.reversed(),
                len,
            },
            D2dOp::Process {
                function: NdpFunction::Aes256Decrypt,
                aux,
            },
            D2dOp::SsdWrite { ssd: 0, lba: 700 },
        ],
        reply_to: rig.app,
        tag: "secure-recv",
    };
    rig.sim.kickoff(
        rig.app,
        Submit {
            to: rig.b.driver,
            job: recv,
        },
    );
    rig.sim.kickoff(
        rig.app,
        Submit {
            to: rig.a.driver,
            job: send,
        },
    );
    rig.sim.run();
    assert_eq!(rig.sim.world().stats.counter_value("app.ok"), 2);
    let on_b = rig
        .sim
        .world()
        .expect::<PhysMemory>()
        .read(rig.b.ssds[0].lba_addr(700), len);
    assert_eq!(on_b, payload, "decrypt(encrypt(x)) must land as x");
}

#[test]
fn invalid_lba_fails_cleanly_through_the_whole_stack() {
    let mut rig = setup();
    let job = D2dJob {
        id: 21,
        ops: vec![
            D2dOp::SsdRead {
                ssd: 0,
                lba: u64::MAX / 8192,
                len: 4096,
            },
            D2dOp::NicSend {
                flow: TcpFlow::example(1, 2, 3, 4),
                seq: 0,
            },
        ],
        reply_to: rig.app,
        tag: "bad",
    };
    rig.sim.kickoff(
        rig.app,
        Submit {
            to: rig.a.driver,
            job,
        },
    );
    rig.sim.run();
    assert_eq!(rig.sim.world().stats.counter_value("app.done"), 1);
    assert_eq!(rig.sim.world().stats.counter_value("app.ok"), 0);
}

/// Copies one block from lba 4 to lba 900 on node alpha with TLP-header
/// corruption at the `lost` draws after setup and no replay budget (each
/// hit is a completion timeout). Returns the rig, the job's completion
/// and the block.
fn copy_with_lost_tlps(lost: Vec<u64>) -> (Rig, D2dDone, Vec<u8>) {
    let mut rig = setup();
    let payload = vec![0x3Cu8; 4096];
    rig.sim
        .world_mut()
        .expect_mut::<PhysMemory>()
        .write(rig.a.ssds[0].lba_addr(4), &payload);
    let mut plan = FaultPlan::new(Rng::new(0xC0E));
    plan.enable(fault::TLP_HEADER, FaultSpec::Nth(lost));
    plan.recovery = RecoveryConfig {
        pcie_retries: 0,
        ..RecoveryConfig::default()
    };
    rig.sim.world_mut().insert(plan);
    let copy = D2dJob {
        id: 41,
        ops: vec![
            D2dOp::SsdRead {
                ssd: 0,
                lba: 4,
                len: 4096,
            },
            D2dOp::SsdWrite { ssd: 0, lba: 900 },
        ],
        reply_to: rig.app,
        tag: "lost-cqe",
    };
    rig.sim.kickoff(
        rig.app,
        Submit {
            to: rig.a.driver,
            job: copy,
        },
    );
    rig.sim.run();
    let done = rig.sim.world_mut().expect_mut::<Inbox>().0.remove(0);
    (rig, done, payload)
}

#[test]
fn lost_cqe_climbs_the_reset_ladder_and_recovers() {
    // Draws after setup: 0 = the read's SQ-entry fetch, 1 = its
    // data-out, 2 = its CQE write, 3 = the drive's CQE rewrite. Killing
    // 2 and 3 loses the completion entirely; the engine's watchdog must
    // then reset the controller and resubmit, as the host driver does
    // (`nvme_driver.rs`, the test of the same name).
    let (rig, done, payload) = copy_with_lost_tlps(vec![2, 3]);
    let stats = &rig.sim.world().stats;
    assert_eq!(stats.counter_value("nvme.cqe_lost"), 1);
    assert_eq!(stats.counter_value("hdc.nvme_resets"), 1);
    assert_eq!(
        stats.counter_value("nvme.resets"),
        1,
        "device saw the re-attach"
    );
    assert_eq!(stats.counter_value("aer.device_reset"), 1);
    assert!(done.ok, "the job completed after the reset");
    let on_flash = rig
        .sim
        .world()
        .expect::<PhysMemory>()
        .read(rig.a.ssds[0].lba_addr(900), payload.len());
    assert_eq!(on_flash, payload, "the copy landed intact");
}

#[test]
fn a_lost_write_cqe_is_saved_by_the_reset_rung_before_the_job_deadline() {
    // Draws 5 and 6 lose the write's CQE and its rewrite. The write was
    // issued after the read finished, so its ladder resets the
    // controller later than `OP_TIMEOUT_NS` after the job's submission:
    // the driver's job deadline outlasts the whole ladder
    // (`dcs_nvme::ladder_bound_ns`), so the resubmitted write completes
    // the job.
    let (rig, done, payload) = copy_with_lost_tlps(vec![5, 6]);
    let stats = &rig.sim.world().stats;
    assert_eq!(stats.counter_value("nvme.cqe_lost"), 1);
    assert_eq!(stats.counter_value("hdc.nvme_resets"), 1);
    assert_eq!(stats.counter_value("hdc.drv_timeouts"), 0);
    assert!(done.ok, "the job completed after the reset");
    let on_flash = rig
        .sim
        .world()
        .expect::<PhysMemory>()
        .read(rig.a.ssds[0].lba_addr(900), payload.len());
    assert_eq!(on_flash, payload, "the copy landed intact");
}

#[test]
fn a_completion_record_lost_for_good_still_fails_the_job() {
    // Draws 6 and 7 lose the job's completion record and the engine's
    // one rewrite of it. Nothing else can deliver the result, so the
    // driver's job deadline fails the job cleanly once the NVMe ladder's
    // worst case has passed.
    let (rig, done, _) = copy_with_lost_tlps(vec![6, 7]);
    let stats = &rig.sim.world().stats;
    assert_eq!(stats.counter_value("hdc.completion_rewrites"), 1);
    assert_eq!(stats.counter_value("hdc.completion_lost"), 1);
    assert_eq!(stats.counter_value("hdc.drv_timeouts"), 1);
    assert!(!done.ok, "a lost completion record fails the job");
    let bound = dcs_nvme::ladder_bound_ns(&RecoveryConfig::default());
    assert!(
        rig.sim.now().as_nanos() > bound,
        "not before the ladder gave up"
    );
}

#[test]
fn dcs_latency_beats_typical_software_budget() {
    // A 4 KiB SSD->NIC op completes within tens of microseconds: flash
    // latency dominates and software contributes almost nothing.
    let mut rig = setup();
    let len = 4096;
    rig.sim
        .world_mut()
        .expect_mut::<PhysMemory>()
        .write(rig.a.ssds[0].lba_addr(0), &vec![1u8; len]);
    let t0 = rig.sim.now();
    let job = D2dJob {
        id: 31,
        ops: vec![
            D2dOp::SsdRead {
                ssd: 0,
                lba: 0,
                len,
            },
            D2dOp::NicSend {
                flow: TcpFlow::example(1, 2, 5, 6),
                seq: 0,
            },
        ],
        reply_to: rig.app,
        tag: "latency",
    };
    rig.sim.kickoff(
        rig.app,
        Submit {
            to: rig.a.driver,
            job,
        },
    );
    rig.sim.run();
    let elapsed = rig.sim.now() - t0;
    assert_eq!(rig.sim.world().stats.counter_value("app.ok"), 1);
    assert!(
        elapsed > time::us(14),
        "must include flash latency: {elapsed}"
    );
    assert!(elapsed < time::us(40), "DCS path should be lean: {elapsed}");
}

#[test]
fn many_pipelined_commands_complete_in_order() {
    let mut rig = setup();
    let len = 16 * 1024;
    for i in 0..40u64 {
        rig.sim
            .world_mut()
            .expect_mut::<PhysMemory>()
            .write(rig.a.ssds[0].lba_addr(i * 8), &vec![i as u8; len]);
    }
    let flow = TcpFlow::example(1, 2, 60_000, 9100);
    for i in 0..40u64 {
        let job = D2dJob {
            id: 100 + i,
            ops: vec![
                D2dOp::SsdRead {
                    ssd: 0,
                    lba: i * 8,
                    len,
                },
                D2dOp::Process {
                    function: NdpFunction::Crc32,
                    aux: vec![],
                },
                D2dOp::NicSend {
                    flow,
                    seq: (i * len as u64) as u32,
                },
            ],
            reply_to: rig.app,
            tag: "stream",
        };
        rig.sim.kickoff(
            rig.app,
            Submit {
                to: rig.a.driver,
                job,
            },
        );
    }
    rig.sim.run();
    assert_eq!(rig.sim.world().stats.counter_value("app.ok"), 40);
    // Aggregate throughput bound: 40 * 16 KiB over the 10 Gbps wire.
    let floor = dcs_sim::Bandwidth::gbps(10.0).transfer_time(40 * len);
    assert!(rig.sim.now().as_nanos() >= floor);
}

#[test]
fn engine_reports_scoreboard_overhead_in_breakdowns() {
    // The Scoreboard category must be present and small (Figure 11's
    // "minimal scoreboard overhead").
    let mut rig = setup();
    rig.sim.world_mut().obs.enable();
    rig.sim
        .world_mut()
        .expect_mut::<PhysMemory>()
        .write(rig.a.ssds[0].lba_addr(0), &vec![9u8; 4096]);
    let job = D2dJob {
        id: 41,
        ops: vec![
            D2dOp::SsdRead {
                ssd: 0,
                lba: 0,
                len: 4096,
            },
            D2dOp::NicSend {
                flow: TcpFlow::example(1, 2, 7, 8),
                seq: 0,
            },
        ],
        reply_to: rig.app,
        tag: "breakdown",
    };
    rig.sim.kickoff(
        rig.app,
        Submit {
            to: rig.a.driver,
            job,
        },
    );
    rig.sim.run();
    assert_eq!(rig.sim.world().stats.counter_value("app.ok"), 1);
    let bd = rig.sim.world().obs.anatomy(41).expect("job traced");
    assert_eq!(bd.segment_sum_ns(), bd.total_ns().expect("job ended"));
    let scoreboard = bd.category_ns(Category::Scoreboard);
    assert!(scoreboard > 0, "scoreboard overhead must be visible");
    assert!(scoreboard < time::us(2), "and minimal: {scoreboard}ns");
    assert!(
        bd.category_ns(Category::Read) > time::us(10),
        "flash time dominates"
    );
    assert!(
        bd.category_ns(Category::DeviceControl) < time::us(10),
        "driver software is thin"
    );
}

/// Runs one SSD → AES → SSD job on node alpha with the first Data-class
/// DMAs after setup, the driver's aux-block writes, poisoned at `poisoned`
/// (no replay budget, so each hit lands poisoned). Returns the rig and the
/// job's completion.
fn aes_job_with_bad_aux_writes(poisoned: Vec<u64>) -> (Rig, D2dDone, Vec<u8>) {
    let mut rig = setup();
    let len = 8 * 1024;
    let payload: Vec<u8> = (0..len).map(|i| (i * 29 % 251) as u8).collect();
    rig.sim
        .world_mut()
        .expect_mut::<PhysMemory>()
        .write(rig.a.ssds[0].lba_addr(40), &payload);
    {
        let mut plan = FaultPlan::new(Rng::new(0xA0A0));
        plan.enable(fault::DMA_CORRUPT, FaultSpec::Nth(poisoned));
        plan.recovery = RecoveryConfig {
            pcie_retries: 0,
            ..RecoveryConfig::default()
        };
        rig.sim.world_mut().insert(plan);
    }
    let mut aux = vec![0x5Au8; 32];
    aux.extend([0xC3u8; 16]);
    let encrypt = D2dJob {
        id: 31,
        ops: vec![
            D2dOp::SsdRead {
                ssd: 0,
                lba: 40,
                len,
            },
            D2dOp::Process {
                function: NdpFunction::Aes256Encrypt,
                aux: aux.clone(),
            },
            D2dOp::SsdWrite { ssd: 0, lba: 800 },
        ],
        reply_to: rig.app,
        tag: "aux-poison",
    };
    rig.sim.kickoff(
        rig.app,
        Submit {
            to: rig.a.driver,
            job: encrypt,
        },
    );
    rig.sim.run();
    let done = rig.sim.world_mut().expect_mut::<Inbox>().0.remove(0);
    let want = NdpFunction::Aes256Encrypt
        .apply(&payload, &aux)
        .expect("valid key material")
        .data
        .expect("a transform returns data");
    (rig, done, want)
}

#[test]
fn a_poisoned_aux_write_is_retried_from_the_kept_block() {
    let (rig, done, want) = aes_job_with_bad_aux_writes(vec![0]);
    let stats = &rig.sim.world().stats;
    assert_eq!(stats.counter_value("hdc.drv_bad_aux_dmas"), 1);
    assert_eq!(stats.counter_value("hdc.drv_aux_failures"), 0);
    assert!(done.ok, "the retried aux block carries the intact key");
    let on_flash = rig
        .sim
        .world()
        .expect::<PhysMemory>()
        .read(rig.a.ssds[0].lba_addr(800), want.len());
    assert_eq!(on_flash, want, "encrypted under the key as submitted");
}

#[test]
fn a_second_poisoned_aux_write_fails_the_job() {
    let (rig, done, _) = aes_job_with_bad_aux_writes(vec![0, 1]);
    let stats = &rig.sim.world().stats;
    assert_eq!(stats.counter_value("hdc.drv_bad_aux_dmas"), 2);
    assert_eq!(stats.counter_value("hdc.drv_aux_failures"), 1);
    assert!(!done.ok, "a job whose aux block is suspect never runs");
    assert_eq!(stats.counter_value("hdc.jobs_done"), 0);
}

/// Runs SSD read → AES-256 encrypt under `enc_aux` → AES-256 decrypt
/// under `dec_aux` → SSD write as one job on node alpha. Returns the
/// plaintext, what landed on flash, and the job's completion.
fn encrypt_then_decrypt(enc_aux: &[u8], dec_aux: &[u8]) -> (Vec<u8>, Vec<u8>, D2dDone) {
    let mut rig = setup();
    let len = 8 * 1024;
    let payload: Vec<u8> = (0..len).map(|i| (i * 37 % 251) as u8).collect();
    rig.sim
        .world_mut()
        .expect_mut::<PhysMemory>()
        .write(rig.a.ssds[0].lba_addr(60), &payload);
    let two_keys = D2dJob {
        id: 41,
        ops: vec![
            D2dOp::SsdRead {
                ssd: 0,
                lba: 60,
                len,
            },
            D2dOp::Process {
                function: NdpFunction::Aes256Encrypt,
                aux: enc_aux.to_vec(),
            },
            D2dOp::Process {
                function: NdpFunction::Aes256Decrypt,
                aux: dec_aux.to_vec(),
            },
            D2dOp::SsdWrite { ssd: 0, lba: 900 },
        ],
        reply_to: rig.app,
        tag: "two-aux",
    };
    rig.sim.kickoff(
        rig.app,
        Submit {
            to: rig.a.driver,
            job: two_keys,
        },
    );
    rig.sim.run();
    let done = rig.sim.world_mut().expect_mut::<Inbox>().0.remove(0);
    let on_flash = rig
        .sim
        .world()
        .expect::<PhysMemory>()
        .read(rig.a.ssds[0].lba_addr(900), len);
    (payload, on_flash, done)
}

/// AES-256 key material: a 32-byte key and a 16-byte IV.
fn aes_aux(key: u8, iv: u8) -> Vec<u8> {
    let mut aux = vec![key; 32];
    aux.extend([iv; 16]);
    aux
}

#[test]
fn each_process_op_runs_with_its_own_aux_block() {
    let (key1, key2) = (aes_aux(0x11, 0x21), aes_aux(0x12, 0x22));
    let (payload, on_flash, done) = encrypt_then_decrypt(&key1, &key2);
    assert!(done.ok);
    let apply = |f: NdpFunction, data: &[u8], aux: &[u8]| {
        f.apply(data, aux)
            .expect("valid key material")
            .data
            .expect("a transform returns data")
    };
    let want = apply(
        NdpFunction::Aes256Decrypt,
        &apply(NdpFunction::Aes256Encrypt, &payload, &key1),
        &key2,
    );
    assert!(want != payload);
    assert!(
        on_flash != payload,
        "both ops ran under one aux block and restored the plaintext"
    );
    assert!(on_flash == want, "flash must hold dec(key 2) of enc(key 1)");
}

#[test]
fn an_encrypt_decrypt_round_trip_under_one_key_restores_the_plaintext() {
    let key1 = aes_aux(0x11, 0x21);
    let (payload, on_flash, done) = encrypt_then_decrypt(&key1, &key1);
    assert!(done.ok);
    assert!(
        on_flash == payload,
        "dec(key 1) of enc(key 1) is the plaintext"
    );
}
