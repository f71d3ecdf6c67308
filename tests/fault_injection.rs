//! Failure-injection tests: malformed requests fail *cleanly* on every
//! design — an error completion, no panic, no stuck simulation.
//!
//! Uses [`Testbed::run_one_job`], the same harness the chaos suite
//! (`tests/chaos.rs`) drives with randomized fault storms.

use dcs_ctrl::host::job::D2dOp;
use dcs_ctrl::ndp::NdpFunction;
use dcs_ctrl::nic::TcpFlow;
use dcs_ctrl::workloads::scenario::{DesignUnderTest, Testbed, TestbedConfig};

#[test]
fn out_of_range_lba_fails_cleanly_everywhere() {
    for design in [
        DesignUnderTest::SwOpt,
        DesignUnderTest::SwP2p,
        DesignUnderTest::DcsCtrl,
    ] {
        let mut tb = Testbed::new(design, &TestbedConfig::default());
        let done = tb.run_one_job(vec![
            D2dOp::SsdRead {
                ssd: 0,
                lba: u64::MAX / 8192,
                len: 4096,
            },
            D2dOp::NicSend {
                flow: TcpFlow::example(1, 2, 3, 4),
                seq: 0,
            },
        ]);
        assert!(!done.ok, "{design} must report the failure");
    }
}

#[test]
fn malformed_aes_key_fails_cleanly_everywhere() {
    for design in [DesignUnderTest::SwOpt, DesignUnderTest::DcsCtrl] {
        let mut tb = Testbed::new(design, &TestbedConfig::default());
        let done = tb.run_one_job(vec![
            D2dOp::SsdRead {
                ssd: 0,
                lba: 0,
                len: 4096,
            },
            // 10 bytes instead of key‖nonce (48).
            D2dOp::Process {
                function: NdpFunction::Aes256Encrypt,
                aux: vec![9; 10],
            },
        ]);
        assert!(!done.ok, "{design} must reject the malformed key");
    }
}

#[test]
fn undecodable_gzip_stream_fails_cleanly() {
    for design in [DesignUnderTest::SwOpt, DesignUnderTest::DcsCtrl] {
        let mut tb = Testbed::new(design, &TestbedConfig::default());
        let done = tb.run_one_job(vec![
            // Flash reads as zeros here: not a gzip stream.
            D2dOp::SsdRead {
                ssd: 0,
                lba: 0,
                len: 4096,
            },
            D2dOp::Process {
                function: NdpFunction::GzipDecompress,
                aux: vec![],
            },
        ]);
        assert!(!done.ok, "{design} must surface the inflate error");
    }
}

#[test]
fn pipeline_poisoning_skips_downstream_ops() {
    // The failing read must prevent the send: wire stays silent.
    let mut tb = Testbed::new(DesignUnderTest::DcsCtrl, &TestbedConfig::default());
    tb.sim.run(); // settle bring-up before sampling the frame counter
    let frames_before = tb.sim.world().stats.counter_value("wire.frames");
    let done = tb.run_one_job(vec![
        D2dOp::SsdRead {
            ssd: 0,
            lba: u64::MAX / 8192,
            len: 4096,
        },
        D2dOp::Process {
            function: NdpFunction::Md5,
            aux: vec![],
        },
        D2dOp::NicSend {
            flow: TcpFlow::example(1, 2, 3, 4),
            seq: 0,
        },
    ]);
    assert!(!done.ok);
    assert_eq!(
        tb.sim.world().stats.counter_value("wire.frames"),
        frames_before,
        "a poisoned pipeline must not transmit"
    );
}

#[test]
fn failures_do_not_leak_engine_buffers() {
    // Submit a run of failing commands; the allocator must recover all
    // chunks (observable by a subsequent large success).
    let mut tb = Testbed::new(DesignUnderTest::DcsCtrl, &TestbedConfig::default());
    let to = tb.server.submit_to;
    let batch: Vec<_> = (0..80)
        .map(|_| {
            (
                to,
                vec![D2dOp::SsdRead {
                    ssd: 0,
                    lba: u64::MAX / 8192,
                    len: 1 << 20,
                }],
                "leak",
            )
        })
        .collect();
    for done in tb.run_job_batch(batch) {
        assert!(!done.ok);
    }
    // Now a large legitimate command must still find buffer space.
    let done = tb.run_one_job(vec![
        D2dOp::SsdRead {
            ssd: 0,
            lba: 0,
            len: 4 << 20,
        },
        D2dOp::Process {
            function: NdpFunction::Crc32,
            aux: vec![],
        },
    ]);
    assert!(done.ok, "buffers must have been reclaimed");
}

/// Runs one 16 KiB SSD→wire transfer (twelve data frames) on `design`
/// with the `n`-th wire frame lost, and returns the receiver's go-back-N
/// tallies `(duplicates, gaps)` under its counter prefix, and whether
/// both jobs succeeded.
fn transfer_losing_frame(design: DesignUnderTest, n: u64, prefix: &str) -> (u64, u64, bool) {
    use dcs_ctrl::pcie::PhysMemory;
    use dcs_ctrl::sim::{fault, FaultPlan, FaultSpec};
    const LEN: usize = 16 * 1024;
    let mut tb = Testbed::new(design, &TestbedConfig::default());
    tb.sim.run();
    let pat: Vec<u8> = (0..LEN).map(|i| (i * 31 % 251) as u8).collect();
    let addr = tb.server.ssds[0].lba_addr(0);
    tb.sim
        .world_mut()
        .expect_mut::<PhysMemory>()
        .write(addr, &pat);
    tb.install_faults(|rng| {
        let mut plan = FaultPlan::new(rng);
        plan.enable(fault::WIRE_DROP, FaultSpec::Nth(vec![n]));
        plan
    });
    let flow = TcpFlow::example(1, 2, 43_000, 7_000);
    let (server, client) = (tb.server.submit_to, tb.client.submit_to);
    let send = vec![
        D2dOp::SsdRead {
            ssd: 0,
            lba: 0,
            len: LEN,
        },
        D2dOp::NicSend { flow, seq: 0 },
    ];
    let recv = vec![
        D2dOp::NicRecv {
            flow: flow.reversed(),
            len: LEN,
        },
        D2dOp::Process {
            function: NdpFunction::Md5,
            aux: vec![],
        },
    ];
    let done = tb.run_job_batch(vec![(server, send, "send"), (client, recv, "recv")]);
    let stats = &tb.sim.world().stats;
    (
        stats.counter_value(&format!("{prefix}.rx_duplicate_frames")),
        stats.counter_value(&format!("{prefix}.rx_out_of_order")),
        done.iter().all(|d| d.ok),
    )
}

// Losing the fourth frame: frames 0-2 land in order, 4-11 arrive past the
// gap and are discarded, and the sender's replay of the whole send
// re-delivers 0-2 as duplicates before 3-11 are accepted. The software
// driver and the HDC Engine count under their own names.

#[test]
fn go_back_n_discards_duplicates_and_gaps_in_the_software_driver() {
    assert_eq!(
        transfer_losing_frame(DesignUnderTest::SwP2p, 3, "nic"),
        (3, 8, true),
        "(duplicates, gaps, ok)"
    );
}

#[test]
fn go_back_n_discards_duplicates_and_gaps_in_the_hdc_engine() {
    assert_eq!(
        transfer_losing_frame(DesignUnderTest::DcsCtrl, 3, "hdc"),
        (3, 8, true),
        "(duplicates, gaps, ok)"
    );
}
