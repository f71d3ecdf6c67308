//! The frame path's event budget. A wire frame costs its delivery to the
//! receiving NIC and the completion of the DMA that lands it; everything
//! else (the send's gathers, the receive write-backs, interrupts,
//! doorbells) is per send or per interrupt batch, and the wire books its
//! deliveries in batches with one `BookNext` wake per batch of about 27
//! frames. Nothing relays: a DMA is one completion event, an MSI or a
//! doorbell one delivery, a send one `TransmitFrame`.
//!
//! One 128 KiB `SsdRead → NicSend` job with a peer `NicRecv` runs on a
//! two-node DCS-ctrl testbed: two 64 KiB LSO sends, 92 frames. The test
//! pins how many events each (component, payload) pair took, so an event
//! kind that comes back or grows fails naming itself, and bounds the
//! whole job, control events included, at 3.4 events per wire frame. A
//! single 64 KiB send would not meet that bound on its own: its 47 job
//! control events (submission, the NVMe command, completion records and
//! their interrupts) add one event per frame to its 46 frames. The same
//! job at 64 KiB is bounded on its own at 4.5 events per wire frame.

use std::collections::BTreeMap;

use dcs_ctrl::host::job::D2dOp;
use dcs_ctrl::nic::TcpFlow;
use dcs_ctrl::pcie::PhysMemory;
use dcs_ctrl::workloads::scenario::{DesignUnderTest, Testbed, TestbedConfig};

const LEN: usize = 128 * 1024;

/// Events the 128 KiB job delivers.
const EVENTS: u64 = 308;

/// Events per `(component kind, payload type)` for the 128 KiB job.
const PINNED: &[(&str, &str, u64)] = &[
    ("client-cpu", "CpuJob", 2),
    ("client-cpu", "JobRetired", 2),
    ("client-hdc-driver", "CpuJobDone", 2),
    ("client-hdc-driver", "D2dJob", 1),
    ("client-hdc-driver", "MsiDelivery", 1),
    ("client-hdc-engine", "AdmitCmd", 1),
    ("client-hdc-engine", "DmaComplete", 1),
    ("client-hdc-engine", "DmaStart", 1),
    ("client-hdc-engine", "GatherDone", 23),
    ("client-hdc-engine", "MmioWrite", 1),
    ("client-hdc-engine", "MsiDelivery", 23),
    ("client-hdc-engine", "RegisterConnection", 1),
    ("client-nic", "DmaComplete", 92),
    ("client-nic", "FrameDelivery", 92),
    ("client-nic", "RaiseRxIrq", 23),
    ("server-cpu", "CpuJob", 2),
    ("server-cpu", "JobRetired", 2),
    ("server-hdc-driver", "CpuJobDone", 2),
    ("server-hdc-driver", "D2dJob", 1),
    ("server-hdc-driver", "MsiDelivery", 1),
    ("server-hdc-engine", "AdmitCmd", 1),
    ("server-hdc-engine", "DmaComplete", 1),
    ("server-hdc-engine", "DmaStart", 1),
    ("server-hdc-engine", "MmioWrite", 1),
    ("server-hdc-engine", "MsiDelivery", 3),
    ("server-hdc-engine", "RegisterConnection", 1),
    ("server-nic", "DmaComplete", 5),
    ("server-nic", "MmioWrite", 1),
    ("server-nic", "TransmitDone", 2),
    ("server-ssd0", "DmaComplete", 4),
    ("server-ssd0", "DmaStart", 2),
    ("server-ssd0", "FlashDone", 1),
    ("server-ssd0", "MmioWrite", 2),
    ("testbed-app", "D2dDone", 2),
    ("testbed-app", "SubmitJob", 2),
    ("wire", "BookNext", 3),
    ("wire", "TransmitFrame", 2),
];

/// Runs one `SsdRead → NicSend` job of `len` bytes with a peer `NicRecv`
/// on a two-node DCS-ctrl testbed; returns the events it delivered, the
/// wire frames it sent and its events per `(component, payload)` kind.
fn run_send_job(len: usize) -> (u64, u64, BTreeMap<(String, String), u64>) {
    let mut tb = Testbed::new(DesignUnderTest::DcsCtrl, &TestbedConfig::default());
    tb.sim.run();
    let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8 + 1).collect();
    let flash = tb.server.ssds[0].lba_addr(0);
    tb.sim
        .world_mut()
        .expect_mut::<PhysMemory>()
        .write(flash, &payload);
    tb.sim.enable_host_profile();
    let events_before = tb.sim.delivered_events();
    let frames_before = tb.sim.world().stats.counter_value("wire.frames");

    let flow = TcpFlow::example(1, 2, 47_000, 9_470);
    let send = vec![
        D2dOp::SsdRead {
            ssd: 0,
            lba: 0,
            len,
        },
        D2dOp::NicSend { flow, seq: 0 },
    ];
    let recv = vec![D2dOp::NicRecv {
        flow: flow.reversed(),
        len,
    }];
    let jobs = vec![
        (tb.server.submit_to, send, "send"),
        (tb.client.submit_to, recv, "recv"),
    ];
    for done in tb.run_job_batch(jobs) {
        assert!(done.ok, "job {} failed", done.id);
    }

    let events = tb.sim.delivered_events() - events_before;
    let frames = tb.sim.world().stats.counter_value("wire.frames") - frames_before;
    let mut by_kind: BTreeMap<(String, String), u64> = BTreeMap::new();
    for row in tb.sim.host_profile() {
        *by_kind.entry((row.component, row.payload)).or_default() += row.calls;
    }
    (events, frames, by_kind)
}

#[test]
fn a_64_kib_send_costs_at_most_3_4_events_per_wire_frame() {
    let (events, frames, by_kind) = run_send_job(LEN);
    let pinned: BTreeMap<(String, String), u64> = PINNED
        .iter()
        .map(|&(c, p, n)| ((c.to_string(), p.to_string()), n))
        .collect();
    let moved: Vec<String> = by_kind
        .keys()
        .chain(pinned.keys())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .filter_map(|key| {
            let (got, want) = (by_kind.get(key), pinned.get(key));
            (got != want).then(|| {
                format!(
                    "{} <- {}: {} events (pinned {})",
                    key.0,
                    key.1,
                    got.copied().unwrap_or(0),
                    want.copied().unwrap_or(0)
                )
            })
        })
        .collect();
    assert!(
        moved.is_empty(),
        "events per kind moved ({events} events, {frames} frames):\n{}",
        moved.join("\n")
    );
    assert_eq!(by_kind.values().sum::<u64>(), events);
    assert_eq!(events, EVENTS);
    assert!(
        events as f64 <= 3.4 * frames as f64,
        "{events} events for {frames} wire frames: more than 3.4 per frame"
    );
}

#[test]
fn a_64_kib_send_costs_at_most_4_5_events_per_wire_frame() {
    let (events, frames, by_kind) = run_send_job(64 * 1024);
    assert_eq!(frames, 46);
    assert_eq!(by_kind.values().sum::<u64>(), events);
    assert!(
        events as f64 <= 4.5 * frames as f64,
        "{events} events for {frames} wire frames: more than 4.5 per frame"
    );
}
