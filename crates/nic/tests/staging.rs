//! NIC staging reuse: a span of device staging is handed out again only
//! after the last DMA through it has completed, and a window too small
//! for the data in flight panics rather than wrapping onto live bytes.
//!
//! A holding fabric records every DMA the NIC issues and completes them
//! only when a test says so, which makes "in flight" a state the test
//! controls.

use dcs_nic::headers::{build_frame, build_template};
use dcs_nic::{
    ConfigureNic, FrameDelivery, NicConfig, NicDevice, NicHandle, RecvDescriptor, RingWriter,
    SendDescriptor, TcpFlow,
};
use dcs_pcie::{AddrRange, DmaComplete, DmaRequest, DmaStatus, MmioWrite, Msi, PhysMemory, PortId};
use dcs_sim::{Component, Ctx, Msg, Simulator};

/// DMAs the NIC issued that have not completed yet, in issue order.
#[derive(Default)]
struct Held(Vec<DmaRequest>);

/// Stands in for the PCIe fabric: holds DMAs, swallows MSIs.
struct HoldingFabric;

impl Component for HoldingFabric {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.downcast::<DmaRequest>() {
            Ok(req) => ctx.world().expect_mut::<Held>().0.push(req),
            Err(m) => {
                m.downcast::<Msi>()
                    .expect("the NIC sends the fabric only DMAs and MSIs");
            }
        }
    }
}

/// Stands in for the wire: frames handed to it are dropped.
struct NullWire;

impl Component for NullWire {
    fn handle(&mut self, _ctx: &mut Ctx<'_>, _msg: Msg) {}
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
    /// A NIC named `nic-s` whose staging window is `staging_len` bytes.
    fn new(staging_len: u64) -> Rig {
        let mut sim = Simulator::new(3);
        sim.world_mut().insert(PhysMemory::new());
        sim.world_mut().insert(Held::default());
        let fabric = sim.add("fabric", HoldingFabric);
        let wire = sim.add("wire", NullWire);
        let (bar, staging, host) = {
            let mem = sim.world_mut().expect_mut::<PhysMemory>();
            (
                mem.alloc_region("nic-s-bar", 1 << 16, PortId(1)),
                mem.alloc_region("nic-s-staging", staging_len, PortId(1)),
                mem.alloc_region("host", 16 << 20, PortId::ROOT),
            )
        };
        let config = NicConfig::default();
        let max_lso = config.max_lso;
        let device = sim.add(
            "nic-s",
            NicDevice::new(config, fabric, wire, bar, staging, "nic-s"),
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
                staging,
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

    /// Takes every held DMA, in issue order.
    fn take(&mut self) -> Vec<DmaRequest> {
        std::mem::take(&mut self.sim.world_mut().expect_mut::<Held>().0)
    }

    /// Takes the single held DMA.
    fn take_one(&mut self) -> DmaRequest {
        let mut held = self.take();
        assert_eq!(held.len(), 1, "exactly one DMA in flight");
        held.remove(0)
    }

    /// Completes `req` with `status`, moving its bytes as the fabric
    /// would (a timed-out transfer writes nothing).
    fn complete(&mut self, req: &DmaRequest, status: DmaStatus) {
        if status != DmaStatus::Timeout {
            self.sim
                .world_mut()
                .expect_mut::<PhysMemory>()
                .copy(req.src, req.dst, req.len);
        }
        self.sim.kickoff(
            req.reply_to,
            DmaComplete {
                id: req.id,
                len: req.len,
                status,
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

    fn buffer(&self, i: u64) -> dcs_pcie::PhysAddr {
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

fn overlaps(a: &DmaRequest, b: &DmaRequest) -> bool {
    a.src.0 < b.src.0 + b.len as u64 && b.src.0 < a.src.0 + a.len as u64
}

#[test]
fn a_frames_staging_is_reused_only_after_its_delivery_completes() {
    let mut rig = Rig::new(32 << 20);
    rig.post_recv(3);
    let frames: Vec<Vec<u8>> = (0..3u32)
        .map(|i| build_frame(&rig.flow, i * 1000, 0, &[i as u8 + 1; 1000]))
        .collect();
    let first = rig.deliver(&frames[0]);
    let second = rig.deliver(&frames[1]);
    assert!(
        !overlaps(&first, &second),
        "two frames in flight share staging: {} and {}",
        first.src,
        second.src
    );
    for req in [&first, &second] {
        assert!(rig.nic.staging.contains_span(req.src, req.len));
    }

    rig.complete(&first, DmaStatus::Ok);
    let third = rig.deliver(&frames[2]);
    assert_eq!(third.src, first.src, "a delivered frame's span is reused");
    assert!(!overlaps(&third, &second), "a live span is never reused");

    rig.complete(&second, DmaStatus::Ok);
    rig.complete(&third, DmaStatus::Ok);
    let mem = rig.sim.world().expect::<PhysMemory>();
    for (i, frame) in frames.iter().enumerate() {
        assert_eq!(
            &mem.read(rig.buffer(i as u64), frame.len()),
            frame,
            "frame {i} landed intact"
        );
    }
    assert_eq!(rig.counter("nic.rx_delivered"), 3);
}

#[test]
fn an_aborted_sends_staging_waits_for_its_sibling_gather() {
    let mut rig = Rig::new(32 << 20);
    let batch = rig.send(&[4096]);
    let (hdr, pay) = rig.gathers(&batch);
    assert_eq!(pay.len, 4096);

    // The payload gather fails, and so does its one re-fetch: the op
    // aborts while its header gather is still in flight.
    rig.complete(&pay, DmaStatus::Poisoned);
    let refetch = rig.take_one();
    assert_eq!(refetch.dst, pay.dst, "a re-fetch lands on the same span");
    rig.complete(&refetch, DmaStatus::Poisoned);
    assert_eq!(rig.counter("nic.tx_aborted_gathers"), 1);

    let batch = rig.send(&[4096]);
    let (_, pay2) = rig.gathers(&batch);
    assert_ne!(
        pay2.dst, pay.dst,
        "the aborted op's payload span is reused while its header gather is in flight"
    );

    // The header lands stale; only now is the aborted op's staging free.
    rig.complete(&hdr, DmaStatus::Ok);
    assert_eq!(rig.counter("nic.stale_gathers"), 1);
    let batch = rig.send(&[4096]);
    let (_, pay3) = rig.gathers(&batch);
    assert_eq!(pay3.dst, pay.dst, "the released payload span is reused");
    assert_eq!(rig.counter("nic.tx_frames"), 0, "nothing was segmented yet");
}

#[test]
fn a_reset_frees_landed_staging_and_holds_abandoned_staging_until_its_late_completion() {
    let mut rig = Rig::new(32 << 20);
    rig.post_recv(1);
    let frame = build_frame(&rig.flow, 0, 0, &[7; 1000]);
    let abandoned = rig.deliver(&frame);
    let batch = rig.send(&[4096]);
    let (_, pay) = rig.gathers(&batch);
    rig.complete(&pay, DmaStatus::Ok);

    // The reset drops a send whose payload landed while its header gather
    // is in flight, and a frame delivery in flight.
    rig.configure();
    let batch = rig.send(&[4096]);
    let (_, pay2) = rig.gathers(&batch);
    assert_eq!(pay2.dst, pay.dst, "the landed payload's span is free");
    rig.post_recv(2);
    let second = rig.deliver(&frame);
    assert!(
        !overlaps(&second, &abandoned),
        "the fabric may still copy out of an abandoned delivery's span"
    );

    rig.complete(&abandoned, DmaStatus::Ok);
    assert_eq!(rig.counter("nic.stale_completions"), 1);
    let third = rig.deliver(&frame);
    assert_eq!(
        third.src, abandoned.src,
        "the late completion frees the span"
    );
}

#[test]
#[should_panic(expected = "nic-s: staging window of 131072 bytes exhausted")]
fn sends_overrunning_the_staging_window_panic_naming_the_nic() {
    let mut rig = Rig::new(128 << 10);
    let batch = rig.send(&[64 << 10; 4]);
    rig.complete(&batch, DmaStatus::Ok);
}
