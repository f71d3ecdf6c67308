//! Randomized property tests of the TCP/IP framing, the descriptor
//! formats and the initiator transport, driven by the deterministic
//! in-repo [`Rng`] (the workspace takes no external property-testing
//! dependency).

use dcs_nic::headers::{build_frame, build_template, parse_frame, parse_template};
use dcs_nic::{RecvDescriptor, RecvWriteback, SendDescriptor, TcpFlow};
use dcs_pcie::PhysAddr;
use dcs_sim::Rng;

fn random_flow(rng: &mut Rng) -> TcpFlow {
    let mut src_mac = [0u8; 6];
    let mut dst_mac = [0u8; 6];
    let mut src_ip = [0u8; 4];
    let mut dst_ip = [0u8; 4];
    rng.fill_bytes(&mut src_mac);
    rng.fill_bytes(&mut dst_mac);
    rng.fill_bytes(&mut src_ip);
    rng.fill_bytes(&mut dst_ip);
    TcpFlow {
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
        src_port: rng.next_u64() as u16,
        dst_port: rng.next_u64() as u16,
    }
}

fn random_bytes(rng: &mut Rng, lo: usize, hi: usize) -> Vec<u8> {
    let len = rng.gen_range(lo as u64..hi as u64) as usize;
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

/// Frames round-trip: any flow, seq/ack, and payload up to one MSS.
#[test]
fn frame_roundtrip() {
    let mut rng = Rng::new(0xF2A4E);
    for _ in 0..128 {
        let flow = random_flow(&mut rng);
        let seq = rng.next_u64() as u32;
        let ack = rng.next_u64() as u32;
        let payload = random_bytes(&mut rng, 0, 1448);
        let frame = build_frame(&flow, seq, ack, &payload);
        let parsed = parse_frame(&frame).unwrap();
        assert_eq!(parsed.flow, flow);
        assert_eq!(parsed.seq, seq);
        assert_eq!(parsed.ack, ack);
        assert_eq!(
            &frame[parsed.payload_offset..parsed.payload_offset + parsed.payload_len],
            payload.as_slice()
        );
    }
}

/// Any single-byte corruption of a frame is detected.
#[test]
fn corruption_detected() {
    let mut rng = Rng::new(0xC0_2217);
    for _ in 0..128 {
        let flow = random_flow(&mut rng);
        let payload = random_bytes(&mut rng, 1, 512);
        let mut frame = build_frame(&flow, 1, 2, &payload);
        let idx = rng.gen_range(0..frame.len() as u64) as usize;
        let flip = rng.gen_range(1..256) as u8;
        frame[idx] ^= flip;
        // Either the parse fails, or (for corrupted MAC bytes, which carry
        // no checksum — as on real Ethernet, where the FCS the model folds
        // into the wire covers them) the decoded flow differs.
        match parse_frame(&frame) {
            Err(_) => {}
            Ok(parsed) => assert_ne!(parsed.flow, flow, "corruption at {idx} unnoticed"),
        }
    }
}

/// Header templates round-trip.
#[test]
fn template_roundtrip() {
    let mut rng = Rng::new(0x7E4_B1A);
    for _ in 0..128 {
        let flow = random_flow(&mut rng);
        let seq = rng.next_u64() as u32;
        let ack = rng.next_u64() as u32;
        let t = build_template(&flow, seq, ack);
        let (f2, s2, a2) = parse_template(&t).unwrap();
        assert_eq!(f2, flow);
        assert_eq!(s2, seq);
        assert_eq!(a2, ack);
    }
}

/// Descriptor wire formats round-trip.
#[test]
fn descriptors_roundtrip() {
    let mut rng = Rng::new(0xDE_5C21);
    for _ in 0..128 {
        let d = SendDescriptor {
            header_addr: PhysAddr(rng.next_u64()),
            header_len: rng.next_u64() as u16,
            payload_addr: PhysAddr(rng.next_u64()),
            payload_len: rng.next_u64() as u32,
            mss: rng.next_u64() as u16,
            cookie: rng.next_u64() as u32,
        };
        assert_eq!(SendDescriptor::from_bytes(&d.to_bytes()), d);
        let r = RecvDescriptor {
            buf_addr: PhysAddr(rng.next_u64()),
            buf_len: rng.next_u64() as u32,
        };
        assert_eq!(RecvDescriptor::from_bytes(&r.to_bytes()), r);
        let w = RecvWriteback {
            frame_len: rng.next_u64() as u32,
            valid: rng.gen_bool(0.5),
        };
        assert_eq!(RecvWriteback::from_bytes(&w.to_bytes()), w);
    }
}

/// Transport property rig: two transports on one memory, each sending
/// two interleaved streams to the other over a test channel that, under a fault plan,
/// drops, duplicates and delays data frames and acks and drops transmit
/// interrupts, at random. A minimal adapter turns each pushed descriptor
/// chain into MSS frames read from memory, so replays carry the bytes
/// and offsets the transport staged.
mod transport {
    use std::collections::{BTreeMap, VecDeque};

    use dcs_nic::headers::parse_template;
    use dcs_nic::{
        ConfigureNic, Counters, NicHandle, RxFrame, SendCheck, SendDescriptor, TcpFlow, Transport,
        TxIrq, ACK_MAGIC, MSS,
    };
    use dcs_pcie::{AddrRange, PhysAddr, PhysMemory, PortId};
    use dcs_sim::{fault, ComponentId, FaultPlan, Rng, SimTime, World};

    const SENDS: usize = 10;
    const MAX_LEN: u64 = 6000;
    const MAX_LSO: usize = 4096;
    const RING: u16 = 64;
    /// Wire and adapter latency on the fault-free channel.
    const LATENCY_NS: u64 = 2_000;
    const SIDE_SPAN: u64 = 0x40_0000;

    const COUNTERS: Counters = Counters {
        bad_writebacks: "t.bad_writebacks",
        bad_frames: "t.bad_frames",
        duplicates: "t.duplicates",
        out_of_order: "t.out_of_order",
        retransmits: "t.retransmits",
        recv_timeouts: "t.recv_timeouts",
    };

    enum Ev {
        /// Side `side` sends its send `idx`.
        Open { side: usize, idx: usize },
        /// Side `side`'s adapter completes its oldest descriptor.
        TxIrq { side: usize },
        /// A data frame of stream `key` reaches side `to`.
        Data { to: usize, key: u16, frame: RxFrame },
        /// A cumulative ack for stream `key` reaches side `to`.
        Ack { to: usize, key: u16, ack: u32 },
        /// Both sides sweep their send ladders (fault plan only).
        Tick,
    }

    struct Side {
        t: Transport<u16, u64>,
        send_ring: PhysAddr,
        /// Send-ring index the adapter has read up to.
        tail: u32,
        /// Stream offset and bytes of each send; send `i` goes on stream
        /// `stream(side, i)`.
        sends: Vec<(u64, Vec<u8>)>,
        /// Completions per send.
        completions: Vec<u32>,
        /// Mirror of the descriptor queue: (send, last of its chain).
        descs: VecDeque<(usize, bool)>,
        /// Highest ack this side has received for each of its streams.
        acked: [u64; 2],
    }

    struct Rig {
        world: World,
        sides: Vec<Side>,
        rng: Rng,
        faulty: bool,
        now: u64,
        seq: u64,
        events: BTreeMap<(u64, u64), Ev>,
    }

    /// The stream side `side`'s send `idx` goes on: each side
    /// alternates between two.
    fn stream(side: usize, idx: usize) -> u16 {
        (2 * side + idx % 2) as u16
    }

    /// The flow stream `key` of side `side` travels on; its source port
    /// names the stream.
    fn flow(side: usize, key: u16) -> TcpFlow {
        TcpFlow::example(1 + side as u8, 2 - side as u8, 4000 + key, 5000)
    }

    fn side(mem: &mut PhysMemory, s: usize, base: PhysAddr, rng: &mut Rng) -> Side {
        let base = base + s as u64 * SIDE_SPAN;
        let handle = NicHandle {
            device: ComponentId::INVALID,
            bar: AddrRange::new(PhysAddr(0x3000_0000), 0x1000),
            port: PortId(2),
            max_lso: MAX_LSO,
        };
        let configure = ConfigureNic {
            send_ring_base: base,
            send_ring_depth: RING,
            recv_ring_base: base + 0x1000,
            recv_ring_depth: 3,
            wb_ring_base: base + 0x2000,
            tx_msi_addr: PhysAddr::ZERO,
            tx_msi_vector: 0,
            rx_msi_addr: PhysAddr::ZERO,
            rx_msi_vector: 1,
        };
        let mut offs = [0; 2];
        let sends = (0..SENDS)
            .map(|i| {
                // One send in four is empty; the rest span one to two
                // descriptors.
                let len = if rng.gen_bool(0.25) {
                    0
                } else {
                    rng.gen_range(1..MAX_LEN) as usize
                };
                let mut bytes = vec![0u8; len];
                rng.fill_bytes(&mut bytes);
                let start = offs[i % 2];
                offs[i % 2] += len as u64;
                (start, bytes)
            })
            .collect::<Vec<_>>();
        for (i, (_, bytes)) in sends.iter().enumerate() {
            mem.write(payload_addr(base, i), bytes);
        }
        Side {
            t: Transport::new(handle, configure, base + 0x10000, base + 0x4000, COUNTERS),
            send_ring: base,
            tail: 0,
            sends,
            completions: vec![0; SENDS],
            descs: VecDeque::new(),
            acked: [0; 2],
        }
    }

    fn payload_addr(side_base: PhysAddr, i: usize) -> PhysAddr {
        side_base + 0x10_0000 + i as u64 * 0x2000
    }

    fn recv_addr(side_base: PhysAddr, i: usize) -> PhysAddr {
        side_base + 0x20_0000 + i as u64 * 0x2000
    }

    impl Rig {
        fn new(seed: u64, faulty: bool) -> Rig {
            let mut rng = Rng::new(seed);
            let mut world = World::new(seed);
            let mut mem = PhysMemory::new();
            let base = mem.alloc_region("rig", 2 * SIDE_SPAN, PortId::ROOT).start;
            let sides: Vec<Side> = (0..2).map(|s| side(&mut mem, s, base, &mut rng)).collect();
            world.insert(mem);
            if faulty {
                let mut plan = FaultPlan::new(Rng::new(seed));
                plan.recovery.nic_retries = 64;
                world.insert(plan);
            }
            let mut rig = Rig {
                world,
                sides,
                rng,
                faulty,
                now: 0,
                seq: 0,
                events: BTreeMap::new(),
            };
            // Each side expects the peer's non-empty sends, in order.
            for to in 0..2 {
                let from = 1 - to;
                let to_base = base + to as u64 * SIDE_SPAN;
                for (i, (_, bytes)) in rig.sides[from].sends.clone().iter().enumerate() {
                    if !bytes.is_empty() {
                        let into = recv_addr(to_base, i);
                        rig.sides[to].t.open_recv(
                            SimTime::ZERO,
                            i as u64,
                            stream(from, i),
                            bytes.len(),
                            into,
                            (),
                        );
                    }
                }
            }
            // Each side opens its sends in order, at random gaps.
            for s in 0..2 {
                let mut at = 0;
                for idx in 0..SENDS {
                    at += rig.rng.gen_range(0..10_000);
                    rig.at(at, Ev::Open { side: s, idx });
                }
            }
            if faulty {
                rig.at(fault::NIC_RTO_NS, Ev::Tick);
            }
            rig
        }

        fn at(&mut self, delay: u64, ev: Ev) {
            self.seq += 1;
            self.events.insert((self.now + delay, self.seq), ev);
        }

        /// Delivery delays for one message: one copy after a fixed
        /// latency without a plan; under one, none (dropped), one or two
        /// (duplicated) at random delays that reorder.
        fn channel(&mut self) -> Vec<u64> {
            if !self.faulty {
                return vec![LATENCY_NS];
            }
            let copies = match self.rng.gen_range(0..10) {
                0 => 0,
                1 => 2,
                _ => 1,
            };
            (0..copies)
                .map(|_| self.rng.gen_range(1_000..40_000))
                .collect()
        }

        fn now(&self) -> SimTime {
            SimTime::ZERO + self.now
        }

        /// The minimal adapter: reads the descriptors a push staged,
        /// queues their interrupts and sends their frames.
        fn transmit(&mut self, s: usize, doorbell_tail: u32) {
            while self.sides[s].tail != doorbell_tail {
                let slot = self.sides[s].tail % u32::from(RING);
                self.sides[s].tail = (self.sides[s].tail + 1) % u32::from(RING);
                let mem = self.world.expect::<PhysMemory>();
                let at = self.sides[s].send_ring + u64::from(slot) * SendDescriptor::SIZE as u64;
                let raw: [u8; SendDescriptor::SIZE] = mem
                    .read(at, SendDescriptor::SIZE)
                    .try_into()
                    .expect("descriptor bytes");
                let d = SendDescriptor::from_bytes(&raw);
                let template = mem.read(d.header_addr, d.header_len as usize);
                let (f, seq, off) = parse_template(&template).expect("valid template");
                let payload = mem.read(d.payload_addr, d.payload_len as usize);
                let mss = usize::from(MSS);
                let frames: Vec<RxFrame> = (0..payload.len().max(1))
                    .step_by(mss)
                    .map(|o| RxFrame {
                        flow: f,
                        seq: seq.wrapping_add(o as u32),
                        ack: off.wrapping_add(o as u32),
                        payload: payload[o..payload.len().min(o + mss)].to_vec(),
                    })
                    .collect();
                for frame in frames {
                    for delay in self.channel() {
                        let ev = Ev::Data {
                            to: 1 - s,
                            key: f.src_port - 4000,
                            frame: frame.clone(),
                        };
                        self.at(delay, ev);
                    }
                }
                if !(self.faulty && self.rng.gen_bool(0.05)) {
                    self.at(LATENCY_NS, Ev::TxIrq { side: s });
                }
            }
        }

        fn complete(&mut self, s: usize, id: u64) {
            let side = &mut self.sides[s];
            let (off, bytes) = &side.sends[id as usize];
            side.completions[id as usize] += 1;
            if self.faulty && !bytes.is_empty() {
                assert!(
                    side.acked[id as usize % 2] >= off + bytes.len() as u64,
                    "send {id} of side {s} completed before its bytes were acked"
                );
            }
        }

        fn step(&mut self) -> bool {
            let Some(((t, _), ev)) = self.events.pop_first() else {
                return false;
            };
            self.now = t;
            let now = self.now();
            match ev {
                Ev::Open { side: s, idx } => {
                    let key = stream(s, idx);
                    let tx = dcs_nic::Transmit {
                        flow: flow(s, key),
                        seq: 0,
                        payload: payload_addr(self.sides[s].send_ring, idx),
                        len: self.sides[s].sends[idx].1.len(),
                        cookie: idx as u32,
                    };
                    let id = idx as u64;
                    let side = &mut self.sides[s];
                    let doorbell = side.t.send(&mut self.world, now, id, key, tx, ());
                    let n = tx.len.max(1).div_ceil(MAX_LSO);
                    side.descs.extend((0..n).map(|i| (idx, i + 1 == n)));
                    self.transmit(s, tail(&doorbell.data));
                }
                Ev::TxIrq { side: s } => {
                    let irq = self.sides[s].t.tx_irq();
                    let mirror = self.sides[s].descs.pop_front();
                    if !self.faulty {
                        // Without a plan a send completes on its last
                        // descriptor, and on nothing else.
                        let want = match mirror {
                            Some((idx, true)) => TxIrq::Complete(idx as u64, ()),
                            Some((_, false)) => TxIrq::Pending,
                            None => TxIrq::Stale,
                        };
                        assert_eq!(irq, want);
                    }
                    if let TxIrq::Complete(id, ()) = irq {
                        self.complete(s, id);
                    }
                }
                Ev::Data { to, key, frame } => {
                    let faulty = self.faulty;
                    let (kept, acks) =
                        self.sides[to]
                            .t
                            .accept(&mut self.world, faulty, vec![frame], |_, _| Some(key));
                    assert!(self.faulty || acks.is_empty(), "acks only under a plan");
                    for ack in acks {
                        let p = dcs_nic::headers::parse_frame(&ack.frame).expect("valid ack");
                        assert_eq!((p.seq, p.payload_len), (ACK_MAGIC, 0));
                        for delay in self.channel() {
                            self.at(
                                delay,
                                Ev::Ack {
                                    to: 1 - to,
                                    key,
                                    ack: p.ack,
                                },
                            );
                        }
                    }
                    let mem = self.world.expect_mut::<PhysMemory>();
                    self.sides[to].t.drain(mem, now, kept, |_, _| {});
                }
                Ev::Ack { to, key, ack } => {
                    let side = &mut self.sides[to];
                    let acked = &mut side.acked[usize::from(key) % 2];
                    *acked = (*acked).max(u64::from(ack));
                    for (id, ()) in side.t.on_ack(&mut self.world, key, ack) {
                        self.complete(to, id);
                    }
                }
                Ev::Tick => {
                    let rc = fault::recovery(&self.world).expect("a plan is installed");
                    for s in 0..2 {
                        for id in self.sides[s].t.send_ids() {
                            match self.sides[s].t.check_send(&mut self.world, id, now, &rc) {
                                Some(SendCheck::Complete(())) => self.complete(s, id),
                                Some(SendCheck::Retransmit(doorbell, _)) => {
                                    self.transmit(s, tail(&doorbell.data));
                                }
                                Some(SendCheck::Fail(())) => panic!("send {id} of side {s} failed"),
                                Some(SendCheck::Wait(_)) | None => {}
                            }
                        }
                    }
                    if self.sides.iter().any(|s| s.t.in_flight() > 0) || !self.events.is_empty() {
                        self.at(fault::WATCHDOG_PERIOD_NS, Ev::Tick);
                    }
                }
            }
            true
        }
    }

    fn tail(doorbell: &[u8]) -> u32 {
        u32::from_le_bytes(doorbell[..4].try_into().expect("4 bytes"))
    }

    /// Runs one exchange to quiescence, checks its end state and returns
    /// the run's (retransmits, duplicates, out-of-order frames,
    /// recoveries).
    fn exchange(seed: u64, faulty: bool) -> [u64; 4] {
        let mut rig = Rig::new(seed, faulty);
        let mut steps = 0;
        while rig.step() {
            steps += 1;
            assert!(
                steps < 200_000,
                "seed {seed:#x}: the exchange never settled"
            );
        }
        let base = rig.sides[0].send_ring;
        for to in 0..2 {
            let from = 1 - to;
            let side = &rig.sides[from];
            assert_eq!(
                side.completions,
                vec![1; SENDS],
                "seed {seed:#x}: every send of side {from} completes exactly once"
            );
            assert_eq!(side.t.in_flight(), 0);
            assert!(
                rig.sides[to].t.recv_ids().is_empty(),
                "every receive filled"
            );
            let mem = rig.world.expect::<PhysMemory>();
            for (i, (_, bytes)) in side.sends.iter().enumerate() {
                let into = recv_addr(base + to as u64 * SIDE_SPAN, i);
                assert_eq!(
                    &mem.read(into, bytes.len()),
                    bytes,
                    "seed {seed:#x}: receive {i} of side {to} holds its stream's bytes"
                );
            }
        }
        let stats = &rig.world.stats;
        [
            COUNTERS.retransmits,
            COUNTERS.duplicates,
            COUNTERS.out_of_order,
            "fault.recovered",
        ]
        .map(|c| stats.counter_value(c))
    }

    #[test]
    fn transports_deliver_each_stream_in_order_and_complete_each_send_once() {
        for seed in 0..4 {
            assert_eq!(exchange(0x7A11 + seed, false), [0; 4]);
        }
        let mut seen = [0; 4];
        for seed in 0..16 {
            let got = exchange(0xFA17 + seed, true);
            for (s, g) in seen.iter_mut().zip(got) {
                *s += g;
            }
        }
        // The lossy runs replayed sends, discarded duplicates and gaps,
        // and recovered (retransmitted sends, and acked sends whose
        // transmit interrupt was lost).
        assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
    }
}

/// Receive landing against a staging reference: random payload splits
/// over a few streams, with receives registered before and after their
/// bytes arrive, zero-length ones included, go through
/// `Transport::drain` and through a model that stages every accepted
/// byte before landing it. Both must put the same bytes at the same
/// addresses, charge each receive the same total per call in the same
/// order, fill the same receives in the same order and leave the same
/// stall clocks.
mod landing {
    use std::collections::{BTreeMap, VecDeque};

    use dcs_nic::{ConfigureNic, Counters, NicHandle, RecvCheck, Transport};
    use dcs_pcie::{AddrRange, PhysAddr, PhysMemory, PortId};
    use dcs_sim::{ComponentId, Rng, SimTime, World};

    const STREAMS: u64 = 3;
    /// Address stride of the receives; every receive is shorter.
    const SLOT: u64 = 0x1000;
    const MAX_RECVS: u64 = 24;
    const LIMIT_NS: u64 = 1_000;

    const COUNTERS: Counters = Counters {
        bad_writebacks: "l.bad_writebacks",
        bad_frames: "l.bad_frames",
        duplicates: "l.duplicates",
        out_of_order: "l.out_of_order",
        retransmits: "l.retransmits",
        recv_timeouts: "l.recv_timeouts",
    };

    /// One step of a case.
    #[derive(Clone, Debug)]
    enum Op {
        /// Registers a receive of `len` bytes on `key`; `drain` also
        /// lands staged bytes at once, as both callers do.
        Open { key: u16, len: usize, drain: bool },
        /// Lands accepted payloads.
        Drain(Vec<(u16, Vec<u8>)>),
    }

    /// One receive of the reference.
    struct RefRecv {
        id: u64,
        key: u16,
        len: usize,
        received: usize,
        last_progress: u64,
    }

    /// The staging reference: every accepted byte is queued on its
    /// stream first, then the queues fill the receives greedily in
    /// registration order.
    #[derive(Default)]
    struct Reference {
        staged: BTreeMap<u16, VecDeque<u8>>,
        recvs: Vec<RefRecv>,
        /// Bytes of the receive area.
        mem: Vec<u8>,
    }

    impl Reference {
        /// Returns the `(receive, bytes)` charges in order and the filled
        /// receives, newest first.
        fn drain(
            &mut self,
            now: u64,
            payloads: &[(u16, Vec<u8>)],
        ) -> (Vec<(u64, usize)>, Vec<u64>) {
            for (key, p) in payloads {
                self.staged.entry(*key).or_default().extend(p);
            }
            let mut charged = Vec::new();
            let mut filled = Vec::new();
            for (i, r) in self.recvs.iter_mut().enumerate() {
                let Some(q) = self.staged.get_mut(&r.key).filter(|q| !q.is_empty()) else {
                    continue;
                };
                let take = (r.len - r.received).min(q.len());
                let at = (r.id * SLOT) as usize + r.received;
                for (dst, b) in self.mem[at..at + take].iter_mut().zip(q.drain(..take)) {
                    *dst = b;
                }
                r.received += take;
                r.last_progress = now;
                charged.push((r.id, take));
                if r.received == r.len {
                    filled.push(i);
                }
            }
            let filled = filled
                .into_iter()
                .rev()
                .map(|i| self.recvs.remove(i).id)
                .collect();
            (charged, filled)
        }
    }

    /// A transport whose receives land in a `MAX_RECVS * SLOT` area of
    /// the world's memory; returns the area's base. Its rings are never
    /// used.
    fn rig() -> (World, Transport<u16, u64, u64>, PhysAddr) {
        let mut world = World::new(1);
        let mut mem = PhysMemory::new();
        let rings = mem.alloc_region("rings", 1 << 20, PortId::ROOT).start;
        let area = mem
            .alloc_region("recvs", MAX_RECVS * SLOT, PortId::ROOT)
            .start;
        world.insert(mem);
        let handle = NicHandle {
            device: ComponentId::INVALID,
            bar: AddrRange::new(PhysAddr(0x3000_0000), 0x1000),
            port: PortId(2),
            max_lso: 4096,
        };
        let configure = ConfigureNic {
            send_ring_base: rings,
            send_ring_depth: 16,
            recv_ring_base: rings + 0x1000,
            recv_ring_depth: 9,
            wb_ring_base: rings + 0x2000,
            tx_msi_addr: PhysAddr::ZERO,
            tx_msi_vector: 0,
            rx_msi_addr: PhysAddr::ZERO,
            rx_msi_vector: 1,
        };
        let t = Transport::new(handle, configure, rings + 0x10000, rings + 0x4000, COUNTERS);
        (world, t, area)
    }

    /// Runs `ops` through the transport and the reference, checking
    /// every step; returns how many receives were registered after
    /// bytes of their stream were staged, how many streams had two
    /// receives waiting at once, and how many zero-length receives
    /// filled.
    fn check(case: &str, ops: &[Op]) -> [usize; 3] {
        let (mut world, mut t, area) = rig();
        let mut reference = Reference {
            mem: vec![0; (MAX_RECVS * SLOT) as usize],
            ..Reference::default()
        };
        let mut seen = [0; 3];
        // Each receive's length, by id.
        let mut lens = Vec::new();
        for (step, op) in ops.iter().enumerate() {
            let now = 10 * (step as u64 + 1);
            let payloads = match op {
                Op::Open { key, len, drain } => {
                    let id = lens.len() as u64;
                    lens.push(*len);
                    assert!(id < MAX_RECVS && (*len as u64) < SLOT);
                    if reference.staged.get(key).is_some_and(|q| !q.is_empty()) {
                        seen[0] += 1;
                    }
                    if reference.recvs.iter().any(|r| r.key == *key) {
                        seen[1] += 1;
                    }
                    let into = area + id * SLOT;
                    t.open_recv(SimTime::from_nanos(now), id, *key, *len, into, id);
                    reference.recvs.push(RefRecv {
                        id,
                        key: *key,
                        len: *len,
                        received: 0,
                        last_progress: now,
                    });
                    if !drain {
                        continue;
                    }
                    Vec::new()
                }
                Op::Drain(payloads) => payloads.clone(),
            };
            let (want_charged, want_filled) = reference.drain(now, &payloads);
            seen[2] += want_filled
                .iter()
                .filter(|&&id| lens[id as usize] == 0)
                .count();
            let mut charged = Vec::new();
            let mem = world.expect_mut::<PhysMemory>();
            let filled = t.drain(mem, SimTime::from_nanos(now), payloads, |&mut id, n| {
                charged.push((id, n))
            });
            assert_eq!(charged, want_charged, "{case} step {step}: charges");
            let filled: Vec<u64> = filled
                .into_iter()
                .map(|(id, data)| {
                    assert_eq!(id, data);
                    id
                })
                .collect();
            assert_eq!(filled, want_filled, "{case} step {step}: filled receives");
            assert_eq!(
                mem.read(area, reference.mem.len()),
                reference.mem,
                "{case} step {step}: landed bytes"
            );
        }
        let ids: Vec<u64> = reference.recvs.iter().map(|r| r.id).collect();
        assert_eq!(t.recv_ids(), ids, "{case}: waiting receives");
        // The same stall clocks: each waiting receive is live one
        // nanosecond before its reference deadline and stalled at it.
        for r in &reference.recvs {
            let deadline = SimTime::from_nanos(r.last_progress + LIMIT_NS);
            assert_eq!(
                t.check_recv(&mut world, r.id, deadline - 1, LIMIT_NS),
                Some(RecvCheck::Live),
                "{case}: receive {} stall clock",
                r.id
            );
            assert_eq!(
                t.check_recv(&mut world, r.id, deadline, LIMIT_NS),
                Some(RecvCheck::Failed(r.id)),
                "{case}: receive {} stall clock",
                r.id
            );
        }
        seen
    }

    fn bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        rng.fill_bytes(&mut v);
        v
    }

    /// A random case: receives and payload batches interleaved, with
    /// some payloads empty and some receives zero-length.
    fn random_ops(rng: &mut Rng) -> Vec<Op> {
        let mut ops = Vec::new();
        let mut recvs = 0;
        for _ in 0..rng.gen_range(4..40) {
            if recvs < MAX_RECVS && rng.gen_bool(0.35) {
                recvs += 1;
                let len = if rng.gen_bool(0.15) {
                    0
                } else {
                    rng.gen_range(1..SLOT) as usize
                };
                ops.push(Op::Open {
                    key: rng.gen_range(0..STREAMS) as u16,
                    len,
                    drain: rng.gen_bool(0.7),
                });
            } else {
                let payloads = (0..rng.gen_range(0..5))
                    .map(|_| {
                        let len = if rng.gen_bool(0.1) {
                            0
                        } else {
                            rng.gen_range(1..1500) as usize
                        };
                        (rng.gen_range(0..STREAMS) as u16, bytes(rng, len))
                    })
                    .collect();
                ops.push(Op::Drain(payloads));
            }
        }
        ops
    }

    #[test]
    fn direct_landing_matches_the_staging_reference() {
        let mut rng = Rng::new(0x1A4D);
        // Two receives on one stream, one registered after its bytes,
        // and a zero-length one, in one scripted case.
        let scripted = [
            Op::Drain(vec![(0, bytes(&mut rng, 700)), (1, bytes(&mut rng, 50))]),
            Op::Open {
                key: 0,
                len: 300,
                drain: true,
            },
            Op::Open {
                key: 0,
                len: 900,
                drain: false,
            },
            Op::Open {
                key: 0,
                len: 0,
                drain: false,
            },
            Op::Drain(vec![(0, bytes(&mut rng, 1000)), (2, Vec::new())]),
            Op::Open {
                key: 1,
                len: 0,
                drain: true,
            },
            Op::Open {
                key: 1,
                len: 20,
                drain: true,
            },
        ];
        let got = check("scripted", &scripted);
        assert!(got.iter().all(|&n| n > 0), "scripted case covers {got:?}");
        let mut seen = [0; 3];
        for case in 0..200 {
            let ops = random_ops(&mut rng);
            let got = check(&format!("case {case}"), &ops);
            for (s, g) in seen.iter_mut().zip(got) {
                *s += g;
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "random cases cover {seen:?}");
    }
}
