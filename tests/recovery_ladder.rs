//! Differential fault test of the shared recovery ladder: the same
//! two-node job under the same targeted faults must end the same way on
//! SW-ctrl P2P, where the host drivers climb the ladder, and on DCS-ctrl,
//! where the HDC Engine climbs it.
//!
//! The job is a 16 KiB SSD read → NIC send on the server, paired with a
//! NIC receive → MD5 on the client. Each case fires one site with
//! `FaultSpec::Nth` and pins, on both designs, each job's `ok`, the
//! faulted site's (injected, recovered, exhausted) tally, the client's
//! digest and length, and the drive's controller resets. Tallies that
//! break `injected == recovered + exhausted` are pinned as they stand:
//! each names ROADMAP item 7, which makes each fault end exactly once.

use dcs_ctrl::host::job::{D2dDone, D2dOp};
use dcs_ctrl::ndp::{md5::md5, NdpFunction};
use dcs_ctrl::nic::TcpFlow;
use dcs_ctrl::pcie::PhysMemory;
use dcs_ctrl::sim::{fault, FaultPlan, FaultSpec, RecoveryConfig};
use dcs_ctrl::workloads::scenario::{DesignUnderTest, Testbed, TestbedConfig};

const LEN: usize = 16 * 1024;

fn pattern() -> Vec<u8> {
    (0..LEN).map(|i| (i * 31 % 251) as u8).collect()
}

/// What one run of the paired job ended with.
#[derive(Debug, PartialEq, Eq)]
struct Ending {
    /// The server's and the client's job succeeded.
    ok: (bool, bool),
    /// The faulted site's (injected, recovered, exhausted).
    tally: (u64, u64, u64),
    /// The client's digest and payload length, whenever its job
    /// produced a digest (a failed receive ends the job before its MD5
    /// on both designs).
    delivered: Option<(Vec<u8>, usize)>,
    /// Controller resets the drive saw (`nvme.resets`).
    resets: u64,
}

/// Runs the paired job on `design` with `site` firing at its `nth`
/// eligible events under `recovery`.
fn run(
    design: DesignUnderTest,
    site: &'static str,
    nth: &[u64],
    recovery: &RecoveryConfig,
) -> Ending {
    let mut tb = Testbed::new(design, &TestbedConfig::default());
    tb.sim.run();
    let addr = tb.server.ssds[0].lba_addr(0);
    tb.sim
        .world_mut()
        .expect_mut::<PhysMemory>()
        .write(addr, &pattern());
    tb.install_faults(|rng| {
        let mut plan = FaultPlan::new(rng);
        plan.enable(site, FaultSpec::Nth(nth.to_vec()));
        plan.recovery = recovery.clone();
        plan
    });
    let flow = TcpFlow::example(1, 2, 44_000, 8_000);
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
    let job = |id: u64| -> &D2dDone { done.iter().find(|d| d.id == id).expect("one each") };
    let world = tb.sim.world();
    let tally = world
        .expect::<FaultPlan>()
        .tallies()
        .find(|(s, _)| *s == site)
        .map_or((0, 0, 0), |(_, t)| (t.injected, t.recovered, t.exhausted));
    Ending {
        ok: (job(1).ok, job(2).ok),
        tally,
        delivered: job(2).digest.clone().map(|d| (d, job(2).payload_len)),
        resets: world.stats.counter_value("nvme.resets"),
    }
}

/// Runs one case on both designs and checks each against `want`.
fn check(case: &str, site: &'static str, nth: &[u64], recovery: RecoveryConfig, want: Ending) {
    for design in [DesignUnderTest::SwP2p, DesignUnderTest::DcsCtrl] {
        let got = run(design, site, nth, &recovery);
        assert_eq!(
            got, want,
            "{case}: {design} did not end as both designs must"
        );
    }
}

/// Both jobs succeed and the client digests the bytes on flash.
fn recovered(tally: (u64, u64, u64)) -> Ending {
    Ending {
        ok: (true, true),
        tally,
        delivered: Some((md5(&pattern()).to_vec(), LEN)),
        resets: 0,
    }
}

#[test]
fn a_lost_completion_interrupt_is_recovered_by_a_poll() {
    // The first MSI is the read's completion interrupt: the host
    // driver's check or the engine's watchdog polls the CQ instead.
    check(
        "completion MSI",
        fault::MSI_LOSS,
        &[0],
        RecoveryConfig::default(),
        recovered((1, 0, 0)),
    );
}

#[test]
fn an_acked_send_whose_transmit_interrupt_was_lost_completes() {
    // The fourth MSI is a transmit interrupt: once the peer's ack covers
    // the send, the ladder's complete rung finishes it.
    check(
        "transmit MSI",
        fault::MSI_LOSS,
        &[3],
        RecoveryConfig::default(),
        recovered((1, 1, 0)),
    );
}

#[test]
fn a_dropped_frame_is_retransmitted() {
    check(
        "dropped frame",
        fault::WIRE_DROP,
        &[3],
        RecoveryConfig::default(),
        recovered((1, 1, 0)),
    );
}

#[test]
fn a_media_error_is_retried() {
    check(
        "media error",
        fault::NVME_MEDIA,
        &[0],
        RecoveryConfig::default(),
        recovered((1, 1, 0)),
    );
}

#[test]
fn a_lost_completion_entry_climbs_the_reset_rung() {
    // Header corruption with no replay budget is a completion timeout:
    // draws 3 and 4 are the read's CQE write and its rewrite, so the
    // completion is lost outright. The read's ladder resets the
    // controller and the resubmitted read succeeds, so the send does.
    // The client's receive waits out the ladder's worst case
    // (`dcs_nvme::ladder_bound_ns`), so the late bytes still land.
    // Tally: both corrupted TLPs count as injected, and each exhausts
    // the site at once (no replay budget); the reset that saves the
    // read is not credited back to the TLP site, so none is recovered.
    let mut want = recovered((2, 0, 2));
    want.resets = 1;
    check(
        "lost CQE",
        fault::TLP_HEADER,
        &[3, 4],
        RecoveryConfig {
            pcie_retries: 0,
            ..RecoveryConfig::default()
        },
        want,
    );
}

#[test]
fn a_corrupted_frame_is_dropped_and_retransmitted() {
    // The receiver's checksum drops the frame and the sender's replay
    // re-delivers it. Nothing credits the site: the fault is absorbed,
    // a state the tally gains with ROADMAP item 7.
    check(
        "corrupted frame",
        fault::WIRE_CORRUPT,
        &[3],
        RecoveryConfig::default(),
        recovered((1, 0, 0)),
    );
}

#[test]
fn two_drops_in_one_send_take_one_retransmission() {
    // One replay of the whole send covers both drops, so the tally
    // credits one recovery for two faults: ROADMAP item 7's
    // misattribution, pinned as it stands.
    check(
        "two drops in one send",
        fault::WIRE_DROP,
        &[3, 4],
        RecoveryConfig::default(),
        recovered((2, 1, 0)),
    );
}

#[test]
fn a_drop_without_a_retransmit_budget_fails_both_ends() {
    // The send fails at its first timeout and the receive, starved,
    // fails its stall test: one fault exhausts the site twice (ROADMAP
    // item 7's misattribution, pinned as it stands). The failed receive
    // ends the client's job before its MD5.
    check(
        "no retransmit budget",
        fault::WIRE_DROP,
        &[3],
        RecoveryConfig {
            nic_retries: 0,
            ..RecoveryConfig::default()
        },
        Ending {
            ok: (false, false),
            tally: (1, 0, 2),
            delivered: None,
            resets: 0,
        },
    );
}

#[test]
fn a_lost_transmit_interrupt_and_the_next_one_are_both_survived() {
    // The 16 KiB send is one descriptor, so the fourth MSI is its only
    // transmit interrupt and the fifth is the next interrupt of the run
    // (alone, it ends (1, 0, 0): a later scan or poll picks its work
    // up). The complete rung finishes the acked send, and that one
    // credit is all the tally shows for two faults (ROADMAP item 7's
    // misattribution, pinned as it stands).
    check(
        "two lost interrupts",
        fault::MSI_LOSS,
        &[3, 4],
        RecoveryConfig::default(),
        recovered((2, 1, 0)),
    );
}
