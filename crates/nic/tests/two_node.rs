//! End-to-end NIC tests: two NICs on separate "nodes" joined by a wire,
//! each driven by a minimal initiator. Verifies LSO segmentation, real
//! header validation on the receive side, drop accounting, and wire
//! bandwidth behaviour.

use dcs_nic::headers::{build_template, parse_frame};
use dcs_nic::{
    install_nic, install_wire, ConfigureNic, NicConfig, NicHandle, RecvDescriptor, RecvWriteback,
    RingWriter, SendDescriptor, TcpFlow, WireConfig,
};
use dcs_pcie::{
    AddrRange, MmioRouting, MmioWrite, MsiDelivery, PcieConfig, PcieFabric, PhysAddr, PhysMemory,
    PortId,
};
use dcs_sim::{time, Component, ComponentId, Ctx, Msg, Simulator};

/// Counts MSIs per vector; the test harness inspects memory directly.
struct IrqSink;

impl Component for IrqSink {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let d = msg
            .downcast::<MsiDelivery>()
            .expect("sink only receives MSIs");
        match d.vector {
            1 => ctx.world().stats.counter("sink.tx_irq").add(1),
            2 => ctx.world().stats.counter("sink.rx_irq").add(1),
            v => panic!("unexpected vector {v}"),
        }
    }
}

struct Node {
    nic: NicHandle,
    mem_region: AddrRange,
    send_ring: RingWriter,
    recv_ring: RingWriter,
    wb_base: PhysAddr,
}

struct Rig {
    sim: Simulator,
    fabric: ComponentId,
    a: Node,
    b: Node,
}

fn setup(wire_cfg: WireConfig) -> Rig {
    let mut sim = Simulator::new(7);
    sim.world_mut().insert(PhysMemory::new());
    sim.world_mut().insert(MmioRouting::new());
    let fabric = sim.add("pcie", PcieFabric::new(PcieConfig::default()));
    let nic_a_id = sim.reserve("nic-a");
    let nic_b_id = sim.reserve("nic-b");
    let wire = install_wire(&mut sim, wire_cfg, nic_a_id, nic_b_id);
    let nic_a = install_nic(
        &mut sim,
        nic_a_id,
        fabric,
        wire,
        NicConfig::default(),
        "nic-a",
        PortId(1),
    );
    let nic_b = install_nic(
        &mut sim,
        nic_b_id,
        fabric,
        wire,
        NicConfig::default(),
        "nic-b",
        PortId(2),
    );
    let sink = sim.add("irq-sink", IrqSink);

    let mk_node = |sim: &mut Simulator, nic: NicHandle, name: &str| {
        let region = sim.world_mut().expect_mut::<PhysMemory>().alloc_region(
            &format!("{name}-host"),
            16 << 20,
            PortId::ROOT,
        );
        let send_base = region.start;
        let recv_base = region.start + 0x10000;
        let wb_base = region.start + 0x20000;
        let msi_base = region.start + 0x30000;
        sim.world_mut()
            .expect_mut::<MmioRouting>()
            .claim(AddrRange::new(msi_base, 0x100), sink);
        sim.kickoff(
            nic.device,
            ConfigureNic {
                send_ring_base: send_base,
                send_ring_depth: 256,
                recv_ring_base: recv_base,
                recv_ring_depth: 1024,
                wb_ring_base: wb_base,
                tx_msi_addr: msi_base,
                tx_msi_vector: 1,
                rx_msi_addr: msi_base + 8,
                rx_msi_vector: 2,
            },
        );
        Node {
            nic,
            mem_region: region,
            send_ring: RingWriter::new(send_base, SendDescriptor::SIZE, 256),
            recv_ring: RingWriter::new(recv_base, RecvDescriptor::SIZE, 1024),
            wb_base,
        }
    };
    let a = mk_node(&mut sim, nic_a, "a");
    let b = mk_node(&mut sim, nic_b, "b");
    Rig { sim, fabric, a, b }
}

/// Posts `n` receive buffers of `size` bytes on a node, returning the first
/// buffer's address (buffers are contiguous).
fn post_recv(rig: &mut Rig, on_b: bool, n: usize, size: u32) -> PhysAddr {
    let node = if on_b { &mut rig.b } else { &mut rig.a };
    let bufs = node.mem_region.start + 0x100000;
    for i in 0..n {
        let d = RecvDescriptor {
            buf_addr: bufs + (i as u64) * size as u64,
            buf_len: size,
        };
        let mem = rig.sim.world_mut().expect_mut::<PhysMemory>();
        node.recv_ring.push(mem, &d.to_bytes());
    }
    let tail = node.recv_ring.tail();
    let db = node.nic.rx_doorbell();
    rig.sim.kickoff(
        rig.fabric,
        MmioWrite {
            addr: db,
            data: (tail as u32).to_le_bytes().to_vec(),
        },
    );
    bufs
}

/// Stages a payload + header template on node A and rings the TX doorbell.
fn send_payload(rig: &mut Rig, flow: &TcpFlow, seq: u32, payload: &[u8], mss: u16) {
    let node = &mut rig.a;
    let hdr_addr = node.mem_region.start + 0x40000;
    let pay_addr = node.mem_region.start + 0x200000;
    let template = build_template(flow, seq, 0);
    {
        let mem = rig.sim.world_mut().expect_mut::<PhysMemory>();
        mem.write(hdr_addr, &template);
        mem.write(pay_addr, payload);
    }
    let desc = SendDescriptor {
        header_addr: hdr_addr,
        header_len: template.len() as u16,
        payload_addr: pay_addr,
        payload_len: payload.len() as u32,
        mss,
        cookie: 1,
    };
    {
        let mem = rig.sim.world_mut().expect_mut::<PhysMemory>();
        node.send_ring.push(mem, &desc.to_bytes());
    }
    let tail = node.send_ring.tail();
    let db = node.nic.tx_doorbell();
    rig.sim.kickoff(
        rig.fabric,
        MmioWrite {
            addr: db,
            data: (tail as u32).to_le_bytes().to_vec(),
        },
    );
}

/// Reads back the delivered frames on node B using the write-back ring and
/// reassembles the payload in sequence order.
fn gather_payload(rig: &Rig, bufs: PhysAddr, buf_size: u32, frames: usize) -> Vec<u8> {
    let mem = rig.sim.world().expect::<PhysMemory>();
    let mut out = Vec::new();
    for i in 0..frames {
        let wb_raw: [u8; RecvWriteback::SIZE] = mem
            .read(
                rig.b.wb_base + (i as u64) * RecvWriteback::SIZE as u64,
                RecvWriteback::SIZE,
            )
            .try_into()
            .expect("write-back entry is RecvWriteback::SIZE bytes");
        let wb = RecvWriteback::from_bytes(&wb_raw);
        assert!(wb.valid, "frame {i} writeback invalid");
        let frame = mem.read(bufs + (i as u64) * buf_size as u64, wb.frame_len as usize);
        let parsed = parse_frame(&frame).expect("delivered frame must validate");
        out.extend_from_slice(
            &frame[parsed.payload_offset..parsed.payload_offset + parsed.payload_len],
        );
    }
    out
}

#[test]
fn lso_send_is_segmented_and_reassembles() {
    let mut rig = setup(WireConfig::default());
    let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
    let flow = TcpFlow::example(1, 2, 40000, 8080);
    let bufs = post_recv(&mut rig, true, 64, 2048);
    send_payload(&mut rig, &flow, 7777, &payload, 1448);
    rig.sim.run();
    let frames = payload.len().div_ceil(1448);
    assert_eq!(
        rig.sim.world().stats.counter_value("nic.tx_frames"),
        frames as u64
    );
    assert_eq!(
        rig.sim.world().stats.counter_value("nic.rx_delivered"),
        frames as u64
    );
    assert_eq!(
        rig.sim
            .world()
            .stats
            .counter_value("nic.rx_dropped_no_buffer"),
        0
    );
    assert_eq!(rig.sim.world().stats.counter_value("sink.tx_irq"), 1);
    assert!(rig.sim.world().stats.counter_value("sink.rx_irq") >= 1);
    let got = gather_payload(&rig, bufs, 2048, frames);
    assert_eq!(got, payload);
}

#[test]
fn sequence_numbers_advance_per_segment() {
    let mut rig = setup(WireConfig::default());
    let payload = vec![0xAB; 4000];
    let flow = TcpFlow::example(1, 2, 1, 2);
    let bufs = post_recv(&mut rig, true, 8, 2048);
    send_payload(&mut rig, &flow, 100, &payload, 1448);
    rig.sim.run();
    let mem = rig.sim.world().expect::<PhysMemory>();
    let mut seqs = Vec::new();
    for i in 0..3 {
        let wb_raw: [u8; 8] = mem.read(rig.b.wb_base + i * 8, 8).try_into().unwrap();
        let wb = RecvWriteback::from_bytes(&wb_raw);
        let frame = mem.read(bufs + i * 2048, wb.frame_len as usize);
        seqs.push(parse_frame(&frame).unwrap().seq);
    }
    assert_eq!(seqs, vec![100, 100 + 1448, 100 + 2896]);
}

#[test]
fn frames_without_posted_buffers_are_dropped() {
    let mut rig = setup(WireConfig::default());
    let payload = vec![1u8; 3000];
    let flow = TcpFlow::example(1, 2, 9, 9);
    // No buffers posted on B.
    send_payload(&mut rig, &flow, 0, &payload, 1448);
    rig.sim.run();
    assert_eq!(
        rig.sim
            .world()
            .stats
            .counter_value("nic.rx_dropped_no_buffer"),
        3
    );
    assert_eq!(rig.sim.world().stats.counter_value("nic.rx_delivered"), 0);
}

#[test]
fn wire_bandwidth_bounds_transfer_time() {
    let mut rig = setup(WireConfig::default());
    // 1 MiB needs ~725 frames; the 1024-deep ring can post at most 1023
    // descriptors before the producer index would lap the consumer.
    let len = 1 << 20; // 1 MiB
    let payload: Vec<u8> = (0..len).map(|i| (i % 256) as u8).collect();
    let flow = TcpFlow::example(1, 2, 4, 5);
    post_recv(&mut rig, true, 1000, 2048);
    // 1 MiB exceeds a single LSO send; issue several 64 KiB descriptors.
    for (i, chunk) in payload.chunks(64 * 1024).enumerate() {
        // Stage each chunk at distinct addresses.
        let node = &mut rig.a;
        let hdr_addr = node.mem_region.start + 0x40000 + (i as u64) * 128;
        let pay_addr = node.mem_region.start + 0x200000 + (i as u64) * 0x10000;
        let template = build_template(&flow, (i * 64 * 1024) as u32, 0);
        {
            let mem = rig.sim.world_mut().expect_mut::<PhysMemory>();
            mem.write(hdr_addr, &template);
            mem.write(pay_addr, chunk);
        }
        let desc = SendDescriptor {
            header_addr: hdr_addr,
            header_len: template.len() as u16,
            payload_addr: pay_addr,
            payload_len: chunk.len() as u32,
            mss: 1448,
            cookie: i as u32,
        };
        let mem = rig.sim.world_mut().expect_mut::<PhysMemory>();
        node.send_ring.push(mem, &desc.to_bytes());
    }
    let tail = rig.a.send_ring.tail();
    let db = rig.a.nic.tx_doorbell();
    rig.sim.kickoff(
        rig.fabric,
        MmioWrite {
            addr: db,
            data: (tail as u32).to_le_bytes().to_vec(),
        },
    );
    rig.sim.run();
    // Time floor: payload + headers + framing at 10 Gbps. Each 64 KiB
    // descriptor segments independently (46 frames per chunk).
    let frames = (len as usize).div_ceil(64 * 1024) * (64 * 1024usize).div_ceil(1448);
    let wire_bytes = len as usize + frames * (54 + 24);
    let floor = dcs_sim::Bandwidth::gbps(10.0).transfer_time(wire_bytes);
    let t = rig.sim.now().as_nanos();
    assert!(t >= floor, "{t} >= {floor}");
    assert!(t < floor + time::us(200), "{t} too far above floor {floor}");
    assert_eq!(
        rig.sim.world().stats.counter_value("nic.rx_delivered"),
        frames as u64
    );
}

#[test]
fn non_lso_small_send_is_one_frame() {
    let mut rig = setup(WireConfig::default());
    let payload = b"tiny message".to_vec();
    let flow = TcpFlow::example(3, 4, 100, 200);
    let bufs = post_recv(&mut rig, true, 4, 2048);
    send_payload(&mut rig, &flow, 5, &payload, 0); // mss=0: device default, 1 frame
    rig.sim.run();
    assert_eq!(rig.sim.world().stats.counter_value("nic.tx_frames"), 1);
    let got = gather_payload(&rig, bufs, 2048, 1);
    assert_eq!(got, payload);
}
