//! The NIC's DMAs carry their own bytes: descriptor batches and send
//! gathers are fabric reads whose completions bring the bytes into the
//! adapter, and a received frame is a posted write that carries them out.
//! Nothing the NIC holds occupies host-visible memory, so frames in flight
//! cannot collide, and a completion that arrives for work the NIC dropped
//! must start nothing.
//!
//! The NIC runs on a real fabric inside a holding wrapper: every DMA
//! completion the fabric sends it is kept, its bytes not yet landed, until
//! a test releases it, which makes "in flight" a state the test controls.
//! Poisoned transfers come from a fault plan that corrupts chosen TLPs.

use dcs_nic::headers::{build_frame, build_template};
use dcs_nic::{
    ConfigureNic, FrameDelivery, NicConfig, NicDevice, NicHandle, RecvDescriptor, RingWriter,
    SendDescriptor, TcpFlow, TransmitFrame,
};
use dcs_pcie::{
    install_fabric, AddrRange, DmaComplete, DmaOp, MmioRouting, MmioWrite, MsiDelivery, PcieConfig,
    PhysAddr, PhysMemory, PortId,
};
use dcs_sim::{fault, Component, Ctx, FaultPlan, FaultSpec, Msg, RecoveryConfig, Rng, Simulator};

/// What the NIC sent out: DMA completions not yet released (in arrival
/// order), MSIs and frames handed to the wire.
#[derive(Default)]
struct Held {
    dmas: Vec<DmaComplete>,
    msis: usize,
    frames: Vec<Vec<u8>>,
}

/// Releases a held completion to the NIC.
#[derive(Debug)]
struct Release(DmaComplete);

/// The NIC, with its DMA completions held until released.
struct Holding(NicDevice);

impl Component for Holding {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<DmaComplete>() {
            Ok(done) => return ctx.world().expect_mut::<Held>().dmas.push(done),
            Err(m) => m,
        };
        match msg.downcast::<Release>() {
            Ok(Release(done)) => self.0.handle(ctx, Msg::new(ctx.self_id(), done)),
            Err(m) => self.0.handle(ctx, m),
        }
    }
}

/// Counts the NIC's interrupts.
struct MsiCounter;

impl Component for MsiCounter {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        msg.downcast::<MsiDelivery>()
            .expect("the counter owns only MSI targets");
        ctx.world().expect_mut::<Held>().msis += 1;
    }
}

/// Stands in for the wire: keeps the frames handed to it.
struct KeepingWire;

impl Component for KeepingWire {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let tf = msg
            .downcast::<TransmitFrame>()
            .expect("the NIC sends the wire only frames");
        ctx.world().expect_mut::<Held>().frames.extend(tf.frames);
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
        sim.world_mut().insert(MmioRouting::new());
        sim.world_mut().insert(Held::default());
        let fabric = install_fabric(sim.world_mut(), PcieConfig::default());
        let wire = sim.add("wire", KeepingWire);
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
            Holding(NicDevice::new(config, fabric, wire, bar, PortId(1))),
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
        let counter = sim.add("msi-counter", MsiCounter);
        sim.world_mut()
            .expect_mut::<MmioRouting>()
            .claim(AddrRange::new(rings.tx_msi_addr, 16), counter);
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

    /// Poisons the data TLPs at the 0-based draw indices `tlps` (counted
    /// over every data DMA from now on), with no replay budget.
    fn poison(&mut self, tlps: Vec<u64>) {
        let mut plan = FaultPlan::new(Rng::new(0xD0A));
        plan.enable(fault::DMA_CORRUPT, FaultSpec::Nth(tlps));
        plan.recovery = RecoveryConfig::no_retries();
        self.sim.world_mut().insert(plan);
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

    /// Takes every held completion, in arrival order.
    fn take(&mut self) -> Vec<DmaComplete> {
        std::mem::take(&mut self.sim.world_mut().expect_mut::<Held>().dmas)
    }

    /// Takes the single held completion.
    fn take_one(&mut self) -> DmaComplete {
        let mut held = self.take();
        assert_eq!(held.len(), 1, "exactly one DMA in flight");
        held.remove(0)
    }

    /// Hands `done` to the NIC, which lands its bytes.
    fn release(&mut self, done: DmaComplete) {
        self.sim.kickoff(self.nic.device, Release(done));
        self.sim.run();
    }

    /// Hands the NIC `frame` from the wire and returns its delivery DMA.
    fn deliver(&mut self, frame: &[u8]) -> DmaComplete {
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
        self.release(batch);
    }

    fn buffer(&self, i: u64) -> PhysAddr {
        self.host.start + BUFFERS + i * 2048
    }

    fn payload_addr(&self, i: usize) -> PhysAddr {
        self.host.start + PAYLOADS + i as u64 * (64 << 10)
    }

    /// Queues one send of `len` payload bytes per entry of `lens` behind
    /// one doorbell and returns the descriptor-batch fetch.
    fn send(&mut self, lens: &[u32]) -> DmaComplete {
        for (i, &len) in lens.iter().enumerate() {
            let payload_addr = self.payload_addr(i);
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
    /// payload gathers (the shorter header transfer ends first).
    fn gathers(&mut self, batch: DmaComplete) -> (DmaComplete, DmaComplete) {
        self.release(batch);
        let mut held = self.take();
        assert_eq!(held.len(), 2, "one header and one payload gather");
        let pay = held.pop().expect("payload gather");
        let hdr = held.pop().expect("header gather");
        (hdr, pay)
    }
}

/// Whether `done` is the completion of `op` (its debug form names the
/// op; its fields are reachable only by landing it).
fn is_op(done: &DmaComplete, op: &DmaOp) -> bool {
    format!("{done:?}").contains(&format!("op: {op:?},"))
}

/// The NIC's read of `len` bytes at `src`.
fn read(src: PhysAddr, len: usize) -> DmaOp {
    DmaOp::Read {
        port: PortId(1),
        src,
        len,
    }
}

/// The NIC's write of `data` to `dst`.
fn write(dst: PhysAddr, data: &[u8]) -> DmaOp {
    DmaOp::Write {
        port: PortId(1),
        dst,
        data: data.to_vec(),
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
    assert!(is_op(&first, &write(rig.buffer(0), &frames[0])));
    assert!(is_op(&second, &write(rig.buffer(1), &frames[1])));

    // Completing out of order lands each frame in its own buffer.
    rig.release(second);
    let len = frames[0].len();
    assert_eq!(rig.mem().read(rig.buffer(1), len), frames[1]);
    assert_eq!(rig.mem().read(rig.buffer(0), len), vec![0; len]);
    rig.release(first);
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
    rig.release(write);
    assert_eq!(rig.mem().read(rig.buffer(0), frame.len()), frame);
    assert_eq!(rig.counter("nic.rx_delivered"), 1);
}

#[test]
fn a_send_whose_gather_fails_twice_is_dropped_and_its_siblings_late_data_is_stale() {
    let mut rig = Rig::new();
    // Data TLP draws: the 32-byte descriptor batch is draw 0, the 54-byte
    // header gather draw 1, the 4096-byte payload gather draws 2-17 (it
    // stops at its first hit), and its re-fetch starts at draw 3.
    rig.poison(vec![2, 3]);
    let batch = rig.send(&[4096]);
    let (hdr, pay) = rig.gathers(batch);
    let span = read(rig.payload_addr(0), 4096);
    assert!(is_op(&pay, &span), "{pay:?}");

    // The payload gather fails, and so does its one re-fetch: the op
    // aborts while its header gather is still in flight.
    rig.release(pay);
    let refetch = rig.take_one();
    assert!(is_op(&refetch, &span), "a re-fetch reads the same span");
    rig.release(refetch);
    assert_eq!(rig.counter("nic.tx_aborted_gathers"), 1);

    // The header lands stale and sends nothing.
    rig.release(hdr);
    assert_eq!(rig.counter("nic.stale_gathers"), 1);
    assert_eq!(rig.counter("nic.tx_frames"), 0);
    assert!(rig.held().frames.is_empty());
    assert!(rig.take().is_empty(), "a dropped send starts no DMA");

    // The next send goes out whole: 4096 bytes are three MSS frames.
    let batch = rig.send(&[4096]);
    let (hdr, pay) = rig.gathers(batch);
    rig.release(pay);
    rig.release(hdr);
    assert_eq!(rig.held().frames.len(), 3);
}

#[test]
fn after_a_reset_late_completions_are_stale_and_start_nothing() {
    let mut rig = Rig::new();
    rig.post_recv(1);
    let frame = build_frame(&rig.flow, 0, 0, &[7; 1000]);
    let delivery = rig.deliver(&frame);
    let batch = rig.send(&[4096]);
    let (hdr, pay) = rig.gathers(batch);
    rig.release(pay);

    // The reset drops a send whose payload landed while its header gather
    // is in flight, and a frame delivery in flight.
    rig.configure();
    let msis = rig.held().msis;
    rig.release(delivery);
    rig.release(hdr);
    assert_eq!(rig.counter("nic.stale_completions"), 2);
    assert_eq!(rig.counter("nic.rx_delivered"), 0, "no write-back");
    assert_eq!(rig.counter("nic.tx_frames"), 0);
    assert!(rig.held().frames.is_empty());
    assert_eq!(rig.held().msis, msis, "no interrupt");
    assert!(rig.take().is_empty(), "no DMA");

    // The reset NIC sends from ring index zero again.
    let batch = rig.send(&[100]);
    assert!(is_op(
        &batch,
        &read(rig.rings.send_ring_base, SendDescriptor::SIZE)
    ));
    let (hdr, pay) = rig.gathers(batch);
    rig.release(hdr);
    rig.release(pay);
    assert_eq!(rig.held().frames.len(), 1);
}
