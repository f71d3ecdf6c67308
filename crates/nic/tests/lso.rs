//! LSO segmentation builds each frame straight out of the gathered payload:
//! the frames a NIC puts on the wire must equal, byte for byte, the
//! frames `build_frame` makes from the payload cut into MSS chunks
//! (headers, per-segment seq/ack and both checksums).
//!
//! The NIC's DMAs run on a fabric of their own (a read's bytes come back
//! in its completion), and a recording wire keeps every frame handed to
//! it.

use dcs_nic::headers::{build_frame, build_template};
use dcs_nic::{
    ConfigureNic, NicConfig, NicDevice, RingWriter, SendDescriptor, TcpFlow, TransmitFrame, MSS,
};
use dcs_pcie::{
    install_fabric, AddrRange, MmioRouting, MmioWrite, MsiDelivery, PcieConfig, PhysMemory, PortId,
};
use dcs_sim::{Component, ComponentId, Ctx, Msg, Simulator};

/// Takes the NIC's interrupts.
struct MsiSink;

impl Component for MsiSink {
    fn handle(&mut self, _ctx: &mut Ctx<'_>, msg: Msg) {
        msg.downcast::<MsiDelivery>()
            .expect("the sink owns only MSI targets");
    }
}

/// Frames the NIC put on the wire, in order.
#[derive(Default)]
struct Sent(Vec<Vec<u8>>);

/// Stands in for the wire: records every frame of every send.
struct RecordingWire;

impl Component for RecordingWire {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let tf = msg
            .downcast::<TransmitFrame>()
            .expect("the NIC sends the wire only frames");
        ctx.world().expect_mut::<Sent>().0.extend(tf.frames);
    }
}

const HEADER: u64 = 0x4_0000;
const PAYLOAD: u64 = 0x10_0000;

/// One NIC on a fabric of its own, its rings in `host`.
fn rig() -> (Simulator, ComponentId, AddrRange, AddrRange) {
    let mut sim = Simulator::new(5);
    sim.world_mut().insert(PhysMemory::new());
    sim.world_mut().insert(Sent::default());
    sim.world_mut().insert(MmioRouting::new());
    let fabric = install_fabric(sim.world_mut(), PcieConfig::default());
    let wire = sim.add("wire", RecordingWire);
    let (bar, host) = {
        let mem = sim.world_mut().expect_mut::<PhysMemory>();
        (
            mem.alloc_region("nic-l-bar", 1 << 16, PortId(1)),
            mem.alloc_region("host", 1 << 21, PortId::ROOT),
        )
    };
    let config = NicConfig::default();
    let nic = sim.add(
        "nic-l",
        NicDevice::new(config, fabric, wire, bar, PortId(1)),
    );
    let rings = ConfigureNic {
        send_ring_base: host.start,
        send_ring_depth: 16,
        recv_ring_base: host.start + 0x1_0000,
        recv_ring_depth: 16,
        wb_ring_base: host.start + 0x2_0000,
        tx_msi_addr: host.start + 0x3_0000,
        tx_msi_vector: 1,
        rx_msi_addr: host.start + 0x3_0008,
        rx_msi_vector: 2,
    };
    let sink = sim.add("msi-sink", MsiSink);
    sim.world_mut()
        .expect_mut::<MmioRouting>()
        .claim(AddrRange::new(rings.tx_msi_addr, 16), sink);
    sim.kickoff(nic, rings);
    sim.run();
    (sim, nic, bar, host)
}

/// Sends `payload` as one LSO descriptor with segment size `mss` (0 for
/// the NIC's default) and returns the frames that reached the wire.
fn lso_frames(flow: &TcpFlow, seq: u32, ack: u32, payload: &[u8], mss: u16) -> Vec<Vec<u8>> {
    let (mut sim, nic, bar, host) = rig();
    let template = build_template(flow, seq, ack);
    let desc = SendDescriptor {
        header_addr: host.start + HEADER,
        header_len: template.len() as u16,
        payload_addr: host.start + PAYLOAD,
        payload_len: payload.len() as u32,
        mss,
        cookie: 7,
    };
    let mut ring = RingWriter::new(host.start, SendDescriptor::SIZE, 16);
    {
        let mem = sim.world_mut().expect_mut::<PhysMemory>();
        mem.write(desc.header_addr, &template);
        mem.write(desc.payload_addr, payload);
        ring.push(mem, &desc.to_bytes());
    }
    sim.kickoff(nic, MmioWrite::doorbell(bar.start + 0x100, ring.tail()));
    sim.run();
    std::mem::take(&mut sim.world_mut().expect_mut::<Sent>().0)
}

/// The frames the payload makes when first copied into a `Vec` and cut
/// into `mss`-byte chunks, each built by `build_frame`.
fn vec_path(flow: &TcpFlow, seq: u32, ack: u32, payload: &[u8], mss: usize) -> Vec<Vec<u8>> {
    if payload.is_empty() {
        return vec![build_frame(flow, seq, ack, &[])];
    }
    let mut offset = 0u32;
    payload
        .chunks(mss)
        .map(|chunk| {
            let f = build_frame(
                flow,
                seq.wrapping_add(offset),
                ack.wrapping_add(offset),
                chunk,
            );
            offset += chunk.len() as u32;
            f
        })
        .collect()
}

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 7 % 253) as u8 + 1).collect()
}

#[test]
fn lso_frames_equal_the_vec_path_byte_for_byte() {
    let flow = TcpFlow::example(3, 9, 41_000, 80);
    let mss = usize::from(MSS);
    // The sequence space wraps inside the send.
    let (seq, ack) = (u32::MAX - 3000, 0x0123_4567);
    for len in [0, 1, 1447, mss, 3 * mss + 517, 45 * mss + 1] {
        let data = payload(len);
        let got = lso_frames(&flow, seq, ack, &data, 0);
        let want = vec_path(&flow, seq, ack, &data, mss);
        assert_eq!(got.len(), want.len(), "{len} bytes: frame count");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!(g == w, "{len} bytes: frame {i} differs");
        }
    }
}

#[test]
fn an_explicit_segment_size_cuts_the_same_frames() {
    let flow = TcpFlow::example(4, 8, 50_000, 443);
    let data = payload(5 * 1000 + 3);
    let got = lso_frames(&flow, 77, 88, &data, 1000);
    assert_eq!(got.len(), 6);
    assert_eq!(got, vec_path(&flow, 77, 88, &data, 1000));
}
