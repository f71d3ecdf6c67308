//! The NIC's DMAs carry their own bytes: descriptor batches and send
//! gathers are fabric reads whose completions bring the bytes into the
//! adapter, and a received frame is a posted write that carries them out.
//! Nothing the NIC holds occupies host-visible memory, so frames in flight
//! cannot collide, and a completion that arrives for work the NIC dropped
//! must start nothing.
//!
//! A holding fabric records every DMA the NIC issues and completes them
//! only when a test says so, which makes "in flight" a state the test
//! controls.

use dcs_nic::headers::{build_frame, build_template};
use dcs_nic::{
    ConfigureNic, FrameDelivery, NicConfig, NicDevice, NicHandle, RecvDescriptor, RingWriter,
    SendDescriptor, TcpFlow, TransmitFrame,
};
use dcs_pcie::{
    AddrRange, DmaComplete, DmaOp, DmaRequest, DmaStatus, MmioWrite, Msi, PhysAddr, PhysMemory,
    PortId,
};
use dcs_sim::{Component, Ctx, Msg, Simulator};

/// What the NIC sent out: DMAs not yet completed (in issue order), MSIs
/// and frames handed to the wire.
#[derive(Default)]
struct Held {
    dmas: Vec<DmaRequest>,
    msis: usize,
    frames: usize,
}

/// Stands in for the PCIe fabric: holds DMAs, counts MSIs.
struct HoldingFabric;

impl Component for HoldingFabric {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let held = ctx.world().expect_mut::<Held>();
        match msg.downcast::<DmaRequest>() {
            Ok(req) => held.dmas.push(req),
            Err(m) => {
                m.downcast::<Msi>()
                    .expect("the NIC sends the fabric only DMAs and MSIs");
                held.msis += 1;
            }
        }
    }
}

/// Stands in for the wire: counts the frames handed to it.
struct CountingWire;

impl Component for CountingWire {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        msg.downcast::<TransmitFrame>()
            .expect("the NIC sends the wire only frames");
        ctx.world().expect_mut::<Held>().frames += 1;
    }
}

const HEADER: u64 = 0x4_0000;
const BUFFERS: u64 = 0x10_0000;
const PAYLOADS: u64 = 0x20_0000;

struct Rig {
    sim: Simulator,
    nic: NicHandle,
    host: AddrRange,
    rings: ConfigureNic,
    send_ring: RingWriter,
    recv_ring: RingWriter,
    flow: TcpFlow,
}

impl Rig {
    fn new() -> Rig {
        let mut sim = Simulator::new(3);
        sim.world_mut().insert(PhysMemory::new());
        sim.world_mut().insert(Held::default());
        let fabric = sim.add("fabric", HoldingFabric);
        let wire = sim.add("wire", CountingWire);
        let (bar, host) = {
            let mem = sim.world_mut().expect_mut::<PhysMemory>();
            (
                mem.alloc_region("nic-d-bar", 1 << 16, PortId(1)),
                mem.alloc_region("host", 16 << 20, PortId::ROOT),
            )
        };
        let config = NicConfig::default();
        let max_lso = config.max_lso;
        let device = sim.add(
            "nic-d",
            NicDevice::new(config, fabric, wire, bar, PortId(1)),
        );
        let rings = ConfigureNic {
            send_ring_base: host.start,
            send_ring_depth: 64,
            recv_ring_base: host.start + 0x1_0000,
            recv_ring_depth: 64,
            wb_ring_base: host.start + 0x2_0000,
            tx_msi_addr: host.start + 0x3_0000,
            tx_msi_vector: 1,
            rx_msi_addr: host.start + 0x3_0008,
            rx_msi_vector: 2,
        };
        let flow = TcpFlow::example(1, 2, 40_000, 8080);
        let template = build_template(&flow, 0, 0);
        sim.world_mut()
            .expect_mut::<PhysMemory>()
            .write(host.start + HEADER, &template);
        let mut rig = Rig {
            sim,
            nic: NicHandle {
                device,
                bar,
                port: PortId(1),
                max_lso,
            },
            host,
            rings,
            send_ring: RingWriter::new(rings.send_ring_base, SendDescriptor::SIZE, 64),
            recv_ring: RingWriter::new(rings.recv_ring_base, RecvDescriptor::SIZE, 64),
            flow,
        };
        rig.configure();
        rig
    }

    /// Programs the NIC's rings from index zero; a second call is a device
    /// reset.
    fn configure(&mut self) {
        self.send_ring = RingWriter::new(self.rings.send_ring_base, SendDescriptor::SIZE, 64);
        self.recv_ring = RingWriter::new(self.rings.recv_ring_base, RecvDescriptor::SIZE, 64);
        self.sim.kickoff(self.nic.device, self.rings);
        self.sim.run();
    }

    fn counter(&self, name: &str) -> u64 {
        self.sim.world().stats.counter_value(name)
    }

    fn held(&self) -> &Held {
        self.sim.world().expect::<Held>()
    }

    fn mem(&self) -> &PhysMemory {
        self.sim.world().expect::<PhysMemory>()
    }

    /// Takes every held DMA, in issue order.
    fn take(&mut self) -> Vec<DmaRequest> {
        std::mem::take(&mut self.sim.world_mut().expect_mut::<Held>().dmas)
    }

    /// Takes the single held DMA.
    fn take_one(&mut self) -> DmaRequest {
        let mut held = self.take();
        assert_eq!(held.len(), 1, "exactly one DMA in flight");
        held.remove(0)
    }

    /// Completes `req` with `status`, moving its bytes as the fabric would:
    /// a timed-out transfer moves nothing, and a poisoned one moves its
    /// bytes with the first bit flipped.
    fn complete(&mut self, req: &DmaRequest, status: DmaStatus) {
        let mut data = Vec::new();
        let mut len = 0;
        if status != DmaStatus::Timeout {
            let poison = u8::from(status == DmaStatus::Poisoned);
            let mem = self.sim.world_mut().expect_mut::<PhysMemory>();
            match &req.op {
                DmaOp::Copy { .. } => panic!("the NIC's DMAs all have a device end"),
                DmaOp::Write {
                    dst, data: bytes, ..
                } => {
                    let mut bytes = bytes.clone();
                    bytes[0] ^= poison;
                    mem.write(*dst, &bytes);
                    len = bytes.len();
                }
                DmaOp::Read { src, len: n, .. } => {
                    data = mem.read(*src, *n);
                    if let Some(b) = data.first_mut() {
                        *b ^= poison;
                    }
                    len = *n;
                }
            }
        }
        self.sim.kickoff(
            req.reply_to,
            DmaComplete {
                id: req.id,
                len,
                status,
                data,
            },
        );
        self.sim.run();
    }

    /// Hands the NIC `frame` from the wire and returns its delivery DMA.
    fn deliver(&mut self, frame: &[u8]) -> DmaRequest {
        let delivery = FrameDelivery {
            frame: frame.to_vec(),
        };
        self.sim.kickoff(self.nic.device, delivery);
        self.sim.run();
        self.take_one()
    }

    /// Posts `n` receive buffers of 2 KiB and lets their descriptors land.
    fn post_recv(&mut self, n: u64) {
        for i in 0..n {
            let desc = RecvDescriptor {
                buf_addr: self.buffer(i),
                buf_len: 2048,
            };
            let mem = self.sim.world_mut().expect_mut::<PhysMemory>();
            self.recv_ring.push(mem, &desc.to_bytes());
        }
        let doorbell = MmioWrite::doorbell(self.nic.rx_doorbell(), self.recv_ring.tail());
        self.sim.kickoff(self.nic.device, doorbell);
        self.sim.run();
        let batch = self.take_one();
        self.complete(&batch, DmaStatus::Ok);
    }

    fn buffer(&self, i: u64) -> PhysAddr {
        self.host.start + BUFFERS + i * 2048
    }

    /// Queues one send of `len` payload bytes per entry of `lens` behind
    /// one doorbell and returns the descriptor-batch fetch.
    fn send(&mut self, lens: &[u32]) -> DmaRequest {
        for (i, &len) in lens.iter().enumerate() {
            let payload_addr = self.host.start + PAYLOADS + i as u64 * (64 << 10);
            let payload: Vec<u8> = (0..len).map(|b| (b % 251) as u8 + 1).collect();
            let desc = SendDescriptor {
                header_addr: self.host.start + HEADER,
                header_len: build_template(&self.flow, 0, 0).len() as u16,
                payload_addr,
                payload_len: len,
                mss: 0,
                cookie: i as u32,
            };
            let mem = self.sim.world_mut().expect_mut::<PhysMemory>();
            mem.write(payload_addr, &payload);
            self.send_ring.push(mem, &desc.to_bytes());
        }
        let doorbell = MmioWrite::doorbell(self.nic.tx_doorbell(), self.send_ring.tail());
        self.sim.kickoff(self.nic.device, doorbell);
        self.sim.run();
        self.take_one()
    }

    /// Lets a send's descriptor batch land and returns its header and
    /// payload gathers.
    fn gathers(&mut self, batch: &DmaRequest) -> (DmaRequest, DmaRequest) {
        self.complete(batch, DmaStatus::Ok);
        let mut held = self.take();
        assert_eq!(held.len(), 2, "one header and one payload gather");
        let pay = held.pop().expect("payload gather");
        let hdr = held.pop().expect("header gather");
        (hdr, pay)
    }
}

/// A read's source and length.
fn read_of(req: &DmaRequest) -> (PhysAddr, usize) {
    match req.op {
        DmaOp::Read { port, src, len } => {
            assert_eq!(port, PortId(1), "the NIC reads into its own port");
            (src, len)
        }
        ref op => panic!("expected a read, got {op:?}"),
    }
}

/// A write's destination and bytes.
fn write_of(req: &DmaRequest) -> (PhysAddr, &[u8]) {
    match &req.op {
        DmaOp::Write { port, dst, data } => {
            assert_eq!(*port, PortId(1), "the NIC writes from its own port");
            (*dst, data)
        }
        op => panic!("expected a write, got {op:?}"),
    }
}

#[test]
fn two_frames_in_flight_land_independently() {
    let mut rig = Rig::new();
    rig.post_recv(2);
    let frames: Vec<Vec<u8>> = (0..2u32)
        .map(|i| build_frame(&rig.flow, i * 1000, 0, &[i as u8 + 1; 1000]))
        .collect();
    let first = rig.deliver(&frames[0]);
    let second = rig.deliver(&frames[1]);
    assert_eq!(write_of(&first), (rig.buffer(0), &frames[0][..]));
    assert_eq!(write_of(&second), (rig.buffer(1), &frames[1][..]));

    // Completing out of order lands each frame in its own buffer.
    rig.complete(&second, DmaStatus::Ok);
    let len = frames[0].len();
    assert_eq!(rig.mem().read(rig.buffer(1), len), frames[1]);
    assert_eq!(rig.mem().read(rig.buffer(0), len), vec![0; len]);
    rig.complete(&first, DmaStatus::Ok);
    for (i, frame) in frames.iter().enumerate() {
        assert_eq!(
            &rig.mem().read(rig.buffer(i as u64), frame.len()),
            frame,
            "frame {i} landed intact"
        );
    }
    assert_eq!(rig.counter("nic.rx_delivered"), 2);
}

#[test]
fn a_buffer_reads_zero_until_its_frames_write_completes() {
    let mut rig = Rig::new();
    rig.post_recv(1);
    let frame = build_frame(&rig.flow, 0, 0, &[9; 1200]);
    let resident = rig.mem().resident_bytes();
    let write = rig.deliver(&frame);
    assert_eq!(
        rig.mem().read(rig.buffer(0), frame.len()),
        vec![0; frame.len()]
    );
    assert_eq!(
        rig.mem().resident_bytes(),
        resident,
        "a frame in flight occupies no host-visible memory"
    );
    assert_eq!(rig.counter("nic.rx_delivered"), 0);
    rig.complete(&write, DmaStatus::Ok);
    assert_eq!(rig.mem().read(rig.buffer(0), frame.len()), frame);
    assert_eq!(rig.counter("nic.rx_delivered"), 1);
}

#[test]
fn a_send_whose_gather_fails_twice_is_dropped_and_its_siblings_late_data_is_stale() {
    let mut rig = Rig::new();
    let batch = rig.send(&[4096]);
    let (hdr, pay) = rig.gathers(&batch);
    assert_eq!(read_of(&pay), (rig.host.start + PAYLOADS, 4096));

    // The payload gather fails, and so does its one re-fetch: the op
    // aborts while its header gather is still in flight.
    rig.complete(&pay, DmaStatus::Poisoned);
    let refetch = rig.take_one();
    assert_eq!(
        read_of(&refetch),
        read_of(&pay),
        "a re-fetch reads the same span"
    );
    rig.complete(&refetch, DmaStatus::Poisoned);
    assert_eq!(rig.counter("nic.tx_aborted_gathers"), 1);

    // The header lands stale and sends nothing.
    rig.complete(&hdr, DmaStatus::Ok);
    assert_eq!(rig.counter("nic.stale_gathers"), 1);
    assert_eq!(rig.counter("nic.tx_frames"), 0);
    assert_eq!(rig.held().frames, 0);
    assert!(rig.take().is_empty(), "a dropped send starts no DMA");

    // The next send goes out whole: 4096 bytes are three MSS frames.
    let batch = rig.send(&[4096]);
    let (hdr, pay) = rig.gathers(&batch);
    rig.complete(&pay, DmaStatus::Ok);
    rig.complete(&hdr, DmaStatus::Ok);
    assert_eq!(rig.held().frames, 3);
}

#[test]
fn after_a_reset_late_completions_are_stale_and_start_nothing() {
    let mut rig = Rig::new();
    rig.post_recv(1);
    let frame = build_frame(&rig.flow, 0, 0, &[7; 1000]);
    let delivery = rig.deliver(&frame);
    let batch = rig.send(&[4096]);
    let (hdr, pay) = rig.gathers(&batch);
    rig.complete(&pay, DmaStatus::Ok);

    // The reset drops a send whose payload landed while its header gather
    // is in flight, and a frame delivery in flight.
    rig.configure();
    let msis = rig.held().msis;
    rig.complete(&delivery, DmaStatus::Ok);
    rig.complete(&hdr, DmaStatus::Ok);
    assert_eq!(rig.counter("nic.stale_completions"), 2);
    assert_eq!(rig.counter("nic.rx_delivered"), 0, "no write-back");
    assert_eq!(rig.counter("nic.tx_frames"), 0);
    assert_eq!(rig.held().frames, 0);
    assert_eq!(rig.held().msis, msis, "no interrupt");
    assert!(rig.take().is_empty(), "no DMA");

    // The reset NIC sends from ring index zero again.
    let batch = rig.send(&[100]);
    let (hdr, pay) = rig.gathers(&batch);
    assert_eq!(read_of(&batch).0, rig.rings.send_ring_base);
    rig.complete(&hdr, DmaStatus::Ok);
    rig.complete(&pay, DmaStatus::Ok);
    assert_eq!(rig.held().frames, 1);
}
