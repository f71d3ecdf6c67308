//! The initiator side of the NIC protocol, shared by every initiator.
//!
//! The host NIC driver (baseline designs) and the HDC Engine's NIC
//! controller (DCS-ctrl) drive the adapter the same standard way
//! (§III-C): split a send at the adapter's LSO limit, stage one header
//! template per descriptor, push the descriptors and ring the transmit
//! doorbell; post receive buffers, then scan the write-back ring —
//! verify, clear, advance — and repost buffers once half the ring is
//! consumed. [`NicInitiator`] does that ring and memory work and returns
//! what happened: the doorbell writes to send and the received frames.
//!
//! While a fault plan is installed both initiators also run the same
//! go-back-N reliability protocol over the lossy wire, [`GoBackN`]: the
//! TCP `ack` field of a data frame carries the absolute per-stream offset
//! of its first byte, a receiver accepts only the next in-order frame and
//! answers with coalesced cumulative acks (`seq == ACK_MAGIC`, no
//! payload), and a sender retransmits a whole send until the peer's
//! cumulative ack covers it. The recovery ladder is shared too:
//! [`SendLadder`] and [`stalled`]. Callers keep their own timing and cost
//! accounting, flow keys, counters and timer shapes.

use dcs_pcie::{aer, MmioWrite, PhysAddr, PhysMemory};
use dcs_sim::{fault, ComponentId, DetMap, RecoveryConfig, SimTime, World};

use crate::device::{ConfigureNic, ControlFrame, NicHandle, MSS};
use crate::headers::{build_frame, build_template, parse_frame, TcpFlow, ACK_MAGIC};
use crate::ring::{RecvDescriptor, RecvWriteback, RingWriter, SendDescriptor};

/// Bytes per posted receive buffer (one frame each).
pub const RECV_BUF_SIZE: u64 = 2048;

/// Bytes per staged header-template slot.
const HDR_SLOT_SIZE: u64 = 64;

/// One send to stage as an LSO descriptor chain.
#[derive(Clone, Copy, Debug)]
pub struct Transmit {
    /// The connection to transmit on.
    pub flow: TcpFlow,
    /// TCP sequence number of the first payload byte.
    pub seq: u32,
    /// Stream offset of the first payload byte, carried in the `ack`
    /// field (go-back-N; zero-based per stream).
    pub stream_off: u64,
    /// Contiguous payload location.
    pub payload: PhysAddr,
    /// Payload length in bytes.
    pub len: usize,
    /// Initiator cookie echoed in the descriptor.
    pub cookie: u32,
}

/// A valid frame the receive scan found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RxFrame {
    /// The flow the frame belongs to (as seen from the sender).
    pub flow: TcpFlow,
    /// TCP sequence number.
    pub seq: u32,
    /// TCP ack field.
    pub ack: u32,
    /// Payload bytes (headers stripped).
    pub payload: Vec<u8>,
}

impl RxFrame {
    /// The cumulative ack this frame carries if it is a pure go-back-N
    /// ack (no payload, `seq == ACK_MAGIC`).
    pub fn pure_ack(&self) -> Option<u32> {
        (self.payload.is_empty() && self.seq == ACK_MAGIC).then_some(self.ack)
    }
}

/// One write-back slot the receive scan consumed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RxEvent {
    /// The write-back in `slot` failed its checksum: its frame was
    /// dropped (the sender's retransmission re-delivers the bytes) and an
    /// AER bad-completion-entry naming `slot` was recorded.
    BadWriteback {
        /// The corrupted write-back slot.
        slot: u16,
    },
    /// The frame failed header or checksum validation and was dropped.
    BadFrame,
    /// A valid frame.
    Frame(RxFrame),
}

/// Result of one receive scan.
#[derive(Debug)]
pub struct RxScan {
    /// Consumed slots in ring order.
    pub events: Vec<RxEvent>,
    /// Receive doorbell to send when the scan reposted buffers.
    pub repost: Option<MmioWrite>,
}

/// One initiator's send, receive and write-back rings on one adapter.
pub struct NicInitiator {
    handle: NicHandle,
    configure: ConfigureNic,
    send_ring: RingWriter,
    recv_ring: RingWriter,
    /// Receive frame buffers, one per receive-ring slot.
    recv_bufs: PhysAddr,
    /// Header template staging, one slot per send-ring entry.
    hdr_area: PhysAddr,
    hdr_slot: u64,
    /// Next write-back slot to scan.
    wb_next: u16,
    /// Slots consumed since the last repost.
    consumed: u16,
}

impl NicInitiator {
    /// An initiator for the rings `configure` describes on `handle`'s
    /// adapter. `recv_bufs` holds one [`RECV_BUF_SIZE`] buffer per
    /// receive-ring slot, `hdr_area` one 64-byte template per send-ring
    /// slot; LSO descriptors segment at [`MSS`].
    pub fn new(
        handle: NicHandle,
        configure: ConfigureNic,
        recv_bufs: PhysAddr,
        hdr_area: PhysAddr,
    ) -> Self {
        NicInitiator {
            send_ring: RingWriter::new(
                configure.send_ring_base,
                SendDescriptor::SIZE,
                configure.send_ring_depth,
            ),
            recv_ring: RingWriter::new(
                configure.recv_ring_base,
                RecvDescriptor::SIZE,
                configure.recv_ring_depth,
            ),
            handle,
            configure,
            recv_bufs,
            hdr_area,
            hdr_slot: 0,
            wb_next: 0,
            consumed: 0,
        }
    }

    /// The ring configuration to send to the adapter before first use.
    pub fn configure(&self) -> ConfigureNic {
        self.configure
    }

    /// The adapter component (control frames go to it directly).
    pub fn device(&self) -> ComponentId {
        self.handle.device
    }

    /// Receive buffers kept posted (one ring slot stays empty).
    fn recv_buffers(&self) -> u16 {
        self.configure.recv_ring_depth - 1
    }

    /// Posts `count` receive buffers and returns the receive doorbell.
    pub fn post_recv_buffers(&mut self, mem: &mut PhysMemory, count: u16) -> MmioWrite {
        for _ in 0..count {
            let idx = self.recv_ring.tail();
            let d = RecvDescriptor {
                buf_addr: self.recv_bufs + idx as u64 * RECV_BUF_SIZE,
                buf_len: RECV_BUF_SIZE as u32,
            };
            self.recv_ring.push(mem, &d.to_bytes());
        }
        MmioWrite::doorbell(self.handle.rx_doorbell(), self.recv_ring.tail())
    }

    /// Stages `tx` as descriptors split at the adapter's LSO limit (a
    /// zero-length send is one empty descriptor). Each descriptor's
    /// template carries the sequence number and stream offset of its
    /// first byte. Returns the descriptor count and the transmit
    /// doorbell. Also the retransmission path: re-pushing a send replays
    /// the same frames.
    pub fn push_send(&mut self, mem: &mut PhysMemory, tx: &Transmit) -> (usize, MmioWrite) {
        let lso = self.handle.max_lso;
        let mut descs = 0;
        for off in (0..tx.len.max(1)).step_by(lso) {
            let template = build_template(
                &tx.flow,
                tx.seq.wrapping_add(off as u32),
                (tx.stream_off as u32).wrapping_add(off as u32),
            );
            let depth = self.configure.send_ring_depth as u64;
            let header_addr = self.hdr_area + (self.hdr_slot % depth) * HDR_SLOT_SIZE;
            self.hdr_slot += 1;
            let desc = SendDescriptor {
                header_addr,
                header_len: template.len() as u16,
                payload_addr: tx.payload + off as u64,
                payload_len: lso.min(tx.len - off) as u32,
                mss: MSS,
                cookie: tx.cookie,
            };
            mem.write(header_addr, &template);
            self.send_ring.push(mem, &desc.to_bytes());
            descs += 1;
        }
        let tail = self.send_ring.tail();
        (descs, MmioWrite::doorbell(self.handle.tx_doorbell(), tail))
    }

    /// Scans the write-back ring for landed frames: verifies, clears and
    /// advances past each valid slot, takes its frame out of the receive
    /// buffer (which then reads as zero until the NIC refills it), and
    /// reposts the consumed buffers once half the ring is used. A
    /// write-back that fails its checksum is a corrupted completion
    /// entry: detecting it here is the recovery for that fault site,
    /// tallied and logged to AER.
    pub fn scan(&mut self, world: &mut World, now: SimTime) -> RxScan {
        let mut events = Vec::new();
        let depth = self.configure.recv_ring_depth;
        loop {
            let slot = self.wb_next;
            let wb_addr = self.configure.wb_ring_base + slot as u64 * RecvWriteback::SIZE as u64;
            let mem = world.expect_mut::<PhysMemory>();
            let mut raw = [0u8; RecvWriteback::SIZE];
            mem.read_into(wb_addr, &mut raw);
            let wb = RecvWriteback::from_bytes(&raw);
            if !wb.valid {
                break;
            }
            // Clear the write-back so the slot can be reused.
            mem.write(wb_addr, &[0u8; RecvWriteback::SIZE]);
            self.wb_next = (slot + 1) % depth;
            self.consumed += 1;
            if !RecvWriteback::verify(&raw) {
                fault::recovered(world, fault::CPL_CORRUPT);
                aer::record(
                    world,
                    now.as_nanos(),
                    slot as u64,
                    fault::CPL_CORRUPT,
                    aer::AerKind::BadCompletionEntry,
                );
                events.push(RxEvent::BadWriteback { slot });
                continue;
            }
            // The checksum guarantees frame_len is the device's value;
            // the clamp is pure defense against future layout drift.
            // Taken, not read: nothing reads the buffer again before the
            // NIC refills it, so its pages can be released.
            let buf = self.recv_bufs + slot as u64 * RECV_BUF_SIZE;
            let mut frame = mem.take(buf, (wb.frame_len as usize).min(RECV_BUF_SIZE as usize));
            events.push(match parse_frame(&frame) {
                Ok(p) => {
                    frame.truncate(p.payload_offset + p.payload_len);
                    frame.drain(..p.payload_offset);
                    RxEvent::Frame(RxFrame {
                        flow: p.flow,
                        seq: p.seq,
                        ack: p.ack,
                        payload: frame,
                    })
                }
                Err(_) => RxEvent::BadFrame,
            });
        }
        let repost = (self.consumed >= self.recv_buffers() / 2).then(|| {
            let n = std::mem::take(&mut self.consumed);
            self.post_recv_buffers(world.expect_mut::<PhysMemory>(), n)
        });
        RxScan { events, repost }
    }
}

/// The next step of the NIC send ladder for one tracked send.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SendRung {
    /// Within its timeout: keep waiting.
    Wait,
    /// Acked, but the last transmit interrupt never came: complete it.
    Complete,
    /// Unacked past its timeout with budget left: replay it.
    Retransmit,
    /// Unacked past its timeout with the budget spent: fail it.
    Fail,
}

/// One tracked send's place on the NIC recovery ladder; the host driver
/// and the HDC Engine keep one per send.
#[derive(Clone, Copy, Debug)]
pub struct SendLadder {
    /// Retransmissions so far.
    pub attempts: u32,
    /// When the send was last (re)transmitted.
    pub last_attempt: SimTime,
    /// Every transmit descriptor raised its interrupt.
    pub descs_done: bool,
    /// The peer's cumulative ack covers the send.
    pub acked: bool,
}

impl SendLadder {
    /// A send transmitted at `now`; `acked` when it has no bytes to ack.
    pub fn new(now: SimTime, acked: bool) -> SendLadder {
        SendLadder {
            attempts: 0,
            last_attempt: now,
            descs_done: false,
            acked,
        }
    }

    /// The retransmission timeout: `fault::NIC_RTO_NS`, doubling per
    /// retransmission up to 2^10 times.
    pub fn rto_ns(&self) -> u64 {
        fault::NIC_RTO_NS << self.attempts.min(10)
    }

    /// The ladder's next step at `now`, for the host driver and the HDC
    /// Engine alike: an acked send whose transmit interrupts are still
    /// missing `fault::NIC_RTO_NS` after its last transmission completes;
    /// an unacked one waits out [`rto_ns`](Self::rto_ns), then
    /// retransmits while `attempts` is below `rc.nic_retries`, then fails.
    pub fn rung(&self, now: SimTime, rc: &RecoveryConfig) -> SendRung {
        let age = now - self.last_attempt;
        match (self.acked, self.descs_done) {
            (true, false) if age >= fault::NIC_RTO_NS => SendRung::Complete,
            (true, _) => SendRung::Wait,
            _ if age < self.rto_ns() => SendRung::Wait,
            _ if self.attempts < rc.nic_retries => SendRung::Retransmit,
            _ => SendRung::Fail,
        }
    }

    /// Records a retransmission at `now`; returns the next timeout.
    pub fn retransmit(&mut self, now: SimTime) -> u64 {
        self.attempts += 1;
        self.last_attempt = now;
        self.rto_ns()
    }
}

/// The NIC stall test: a receive that landed no bytes for `idle_ns`, at
/// least `limit_ns`, lost its sender and fails; a transmit interrupt that
/// late was lost. A receive's limit is the sender's recovery worst case
/// (`dcs_nvme::ladder_bound_ns` when flash feeds it), so the receive
/// outlasts every rung that could still deliver its bytes.
pub fn stalled(idle_ns: u64, limit_ns: u64) -> bool {
    idle_ns >= limit_ns
}

/// How a received data frame relates to its stream's in-order count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RxOrder {
    /// The next bytes of the stream: accepted.
    InOrder,
    /// Bytes already accepted (their ack got lost): discarded.
    Duplicate,
    /// Bytes past a dropped frame: discarded until the sender replays.
    Gap,
}

/// Go-back-N stream state of one initiator, keyed by the caller's flow
/// key. Stream offsets stay far below 4 GiB per flow in this model, so
/// the 32-bit `ack` field is treated as absolute.
#[derive(Default)]
pub struct GoBackN<K> {
    /// Bytes submitted per transmit stream.
    tx_offset: DetMap<K, u64>,
    /// Highest cumulative ack received per transmit stream.
    snd_acked: DetMap<K, u64>,
    /// Bytes accepted in order per receive stream.
    rcv_count: DetMap<K, u64>,
    /// Receive streams owed an ack, with the flow to send it on.
    ack_due: DetMap<K, TcpFlow>,
}

impl<K: Copy + Ord + std::hash::Hash> GoBackN<K> {
    /// Reserves `len` bytes of the transmit stream `key`; returns the
    /// stream offset of the send's first byte.
    pub fn reserve(&mut self, key: K, len: usize) -> u64 {
        let off = self.tx_offset.entry(key).or_insert(0);
        let start = *off;
        *off += len as u64;
        start
    }

    /// Applies a cumulative ack to the transmit stream `key` and returns
    /// the highest ack seen (a stale, lower ack never moves it back).
    pub fn on_ack(&mut self, key: K, ack: u32) -> u64 {
        let acked = self.snd_acked.entry(key).or_insert(0);
        *acked = (*acked).max(ack as u64);
        *acked
    }

    /// Classifies a data frame of the receive stream `key` (its `ack`
    /// field is the stream offset of its first byte), accepting it if it
    /// is in order. Every data frame, accepted or not, makes the stream
    /// owe the peer an ack, so a sender whose ack got lost stops
    /// retransmitting.
    pub fn accept(&mut self, key: K, frame: &RxFrame) -> RxOrder {
        self.ack_due.insert(key, frame.flow.reversed());
        let count = self.rcv_count.entry(key).or_insert(0);
        let off = frame.ack as u64;
        if off < *count {
            RxOrder::Duplicate
        } else if off > *count {
            RxOrder::Gap
        } else {
            *count += frame.payload.len() as u64;
            RxOrder::InOrder
        }
    }

    /// One coalesced cumulative ack frame per stream owed one, in key
    /// order (map order must never reach the event sequence).
    pub fn take_acks(&mut self) -> Vec<ControlFrame> {
        let mut due: Vec<(K, TcpFlow)> = std::mem::take(&mut self.ack_due).into_iter().collect();
        due.sort_unstable_by_key(|(k, _)| *k);
        due.into_iter()
            .map(|(k, flow)| {
                let count = self.rcv_count.get(&k).copied().unwrap_or(0);
                ControlFrame {
                    frame: build_frame(&flow, ACK_MAGIC, count as u32, &[]),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headers::parse_template;
    use dcs_pcie::{AddrRange, AerLog, PortId};

    const SEND_DEPTH: u16 = 16;

    /// A world with host memory and an initiator on an adapter whose LSO
    /// limit is `max_lso`, keeping `recv_buffers` buffers posted.
    fn rig(max_lso: usize, recv_buffers: u16) -> (World, NicInitiator) {
        let mut world = World::new(3);
        let mut mem = PhysMemory::new();
        let r = mem.alloc_region("nic-area", 1 << 20, PortId::ROOT);
        world.insert(mem);
        let handle = NicHandle {
            device: ComponentId::INVALID,
            bar: AddrRange::new(PhysAddr(0x3000_0000), 0x1000),
            port: PortId(2),
            max_lso,
        };
        let configure = ConfigureNic {
            send_ring_base: r.start,
            send_ring_depth: SEND_DEPTH,
            recv_ring_base: r.start + 0x1000,
            recv_ring_depth: recv_buffers + 1,
            wb_ring_base: r.start + 0x2000,
            tx_msi_addr: PhysAddr::ZERO,
            tx_msi_vector: 0,
            rx_msi_addr: PhysAddr::ZERO,
            rx_msi_vector: 1,
        };
        let nic = NicInitiator::new(handle, configure, r.start + 0x10000, r.start + 0x4000);
        (world, nic)
    }

    fn flow() -> TcpFlow {
        TcpFlow::example(1, 2, 4000, 80)
    }

    fn index(doorbell: &MmioWrite) -> u32 {
        u32::from_le_bytes(doorbell.data[..4].try_into().expect("4 bytes"))
    }

    /// The send descriptors in slots `0..n`, with their templates'
    /// `(seq, ack)`.
    fn descs(world: &World, nic: &NicInitiator, n: u64) -> Vec<(SendDescriptor, u32, u32)> {
        let mem = world.expect::<PhysMemory>();
        (0..n)
            .map(|i| {
                let at = nic.configure.send_ring_base + i * SendDescriptor::SIZE as u64;
                let raw: [u8; SendDescriptor::SIZE] = mem
                    .read(at, SendDescriptor::SIZE)
                    .try_into()
                    .expect("32 bytes");
                let d = SendDescriptor::from_bytes(&raw);
                let t = mem.read(d.header_addr, d.header_len as usize);
                let (f, seq, ack) = parse_template(&t).expect("valid template");
                assert_eq!(f, flow());
                (d, seq, ack)
            })
            .collect()
    }

    fn send(len: usize, stream_off: u64) -> Transmit {
        Transmit {
            flow: flow(),
            seq: 7,
            stream_off,
            payload: PhysAddr(0x5000_0000),
            len,
            cookie: 42,
        }
    }

    /// Lands `frame` in receive slot `slot` with a good write-back.
    fn land(world: &mut World, nic: &NicInitiator, slot: u16, frame: &[u8]) {
        let mem = world.expect_mut::<PhysMemory>();
        mem.write(nic.recv_bufs + slot as u64 * RECV_BUF_SIZE, frame);
        let wb = RecvWriteback {
            frame_len: frame.len() as u32,
            valid: true,
        };
        let at = nic.configure.wb_ring_base + slot as u64 * RecvWriteback::SIZE as u64;
        mem.write(at, &wb.to_bytes());
    }

    fn data(ack: u32, len: usize) -> RxFrame {
        RxFrame {
            flow: flow(),
            seq: 0,
            ack,
            payload: vec![0xAB; len],
        }
    }

    #[test]
    fn sends_split_at_the_lso_limit_with_a_short_last_descriptor() {
        let (mut world, mut nic) = rig(4096, 8);
        let (n, db) = nic.push_send(world.expect_mut::<PhysMemory>(), &send(10_000, 100));
        assert_eq!((n, index(&db)), (3, 3));
        assert_eq!(db.addr, nic.handle.tx_doorbell());
        let got: Vec<(u32, PhysAddr, u32, u32)> = descs(&world, &nic, 3)
            .into_iter()
            .map(|(d, seq, ack)| (d.payload_len, d.payload_addr, seq, ack))
            .collect();
        let base = PhysAddr(0x5000_0000);
        assert_eq!(
            got,
            [
                (4096, base, 7, 100),
                (4096, base + 4096, 7 + 4096, 100 + 4096),
                (1808, base + 8192, 7 + 8192, 100 + 8192),
            ]
        );
        let (d, ..) = descs(&world, &nic, 1)[0];
        assert_eq!((d.mss, d.cookie), (1448, 42));
    }

    #[test]
    fn zero_length_send_is_one_empty_descriptor() {
        let (mut world, mut nic) = rig(4096, 8);
        let (n, db) = nic.push_send(world.expect_mut::<PhysMemory>(), &send(0, 0));
        assert_eq!((n, index(&db)), (1, 1));
        assert_eq!(descs(&world, &nic, 1)[0].0.payload_len, 0);
    }

    #[test]
    fn scan_reports_the_corrupted_writeback_slot() {
        let (mut world, mut nic) = rig(4096, 8);
        nic.post_recv_buffers(world.expect_mut::<PhysMemory>(), 8);
        let frame = build_frame(&flow(), 1, 2, b"payload");
        for slot in 0..4 {
            land(&mut world, &nic, slot, &frame);
        }
        // Corrupt the frame-length byte of slot 2's write-back.
        let k = 2u16;
        let at = nic.configure.wb_ring_base + k as u64 * RecvWriteback::SIZE as u64;
        world.expect_mut::<PhysMemory>().write(at, &[0x55]);
        let scan = nic.scan(&mut world, SimTime::ZERO + 500);
        let good = RxEvent::Frame(RxFrame {
            flow: flow(),
            seq: 1,
            ack: 2,
            payload: b"payload".to_vec(),
        });
        assert_eq!(
            scan.events,
            [
                good.clone(),
                good.clone(),
                RxEvent::BadWriteback { slot: k },
                good
            ]
        );
        let aer = world.expect::<AerLog>().entries();
        assert_eq!(aer.len(), 1);
        assert_eq!((aer[0].token, aer[0].time_ns), (k as u64, 500));
        assert_eq!(world.stats.counter_value("fault.recovered"), 1);
        // Every consumed write-back is cleared for reuse.
        let mem = world.expect::<PhysMemory>();
        let wbs = mem.read(nic.configure.wb_ring_base, 4 * RecvWriteback::SIZE);
        assert!(wbs.iter().all(|&b| b == 0));
    }

    #[test]
    fn scan_drops_bad_frames_and_reposts_at_half_the_ring() {
        let (mut world, mut nic) = rig(4096, 4);
        nic.post_recv_buffers(world.expect_mut::<PhysMemory>(), 4);
        let mut frame = build_frame(&flow(), 1, 2, b"x");
        land(&mut world, &nic, 0, &frame);
        let scan = nic.scan(&mut world, SimTime::ZERO);
        assert_eq!(scan.events.len(), 1);
        assert!(scan.repost.is_none(), "one of four buffers used");
        let last = frame.len() - 1;
        frame[last] ^= 1;
        land(&mut world, &nic, 1, &frame);
        let scan = nic.scan(&mut world, SimTime::ZERO);
        assert_eq!(scan.events, [RxEvent::BadFrame]);
        let db = scan.repost.expect("half the ring consumed");
        assert_eq!((db.addr, index(&db)), (nic.handle.rx_doorbell(), 1));
        assert!(nic.scan(&mut world, SimTime::ZERO).events.is_empty());
    }

    #[test]
    fn a_writeback_without_its_frame_never_replays_the_slots_last_frame() {
        let (mut world, mut nic) = rig(4096, 2);
        let depth = nic.configure.recv_ring_depth;
        let frame = build_frame(&flow(), 1, 2, b"old frame");
        for slot in 0..depth {
            land(&mut world, &nic, slot, &frame);
            assert!(matches!(
                nic.scan(&mut world, SimTime::ZERO).events[..],
                [RxEvent::Frame(_)]
            ));
        }
        // Wrapped around: a delivery that timed out posts slot 0's
        // write-back, but no frame bytes land.
        let wb = RecvWriteback {
            frame_len: frame.len() as u32,
            valid: true,
        };
        world
            .expect_mut::<PhysMemory>()
            .write(nic.configure.wb_ring_base, &wb.to_bytes());
        let scan = nic.scan(&mut world, SimTime::ZERO);
        assert_eq!(scan.events, [RxEvent::BadFrame]);
    }

    #[test]
    fn receiver_classifies_in_order_duplicate_and_gap_frames() {
        let mut gbn = GoBackN::default();
        assert_eq!(gbn.accept(9u16, &data(0, 100)), RxOrder::InOrder);
        assert_eq!(gbn.accept(9, &data(0, 100)), RxOrder::Duplicate);
        assert_eq!(gbn.accept(9, &data(200, 100)), RxOrder::Gap);
        assert_eq!(gbn.accept(9, &data(100, 100)), RxOrder::InOrder);
        assert_eq!(gbn.accept(9, &data(150, 100)), RxOrder::Duplicate);
        assert_eq!(gbn.accept(4, &data(0, 10)), RxOrder::InOrder);
        // One coalesced cumulative ack per stream, in key order, on the
        // reverse flow.
        let acks: Vec<_> = gbn
            .take_acks()
            .iter()
            .map(|c| parse_frame(&c.frame).expect("valid ack"))
            .map(|p| (p.flow, p.seq, p.ack, p.payload_len))
            .collect();
        let back = flow().reversed();
        assert_eq!(acks, [(back, ACK_MAGIC, 10, 0), (back, ACK_MAGIC, 200, 0)]);
        assert!(gbn.take_acks().is_empty());
        let ack = RxFrame {
            payload: vec![],
            seq: ACK_MAGIC,
            ..data(200, 0)
        };
        assert_eq!(ack.pure_ack(), Some(200));
        assert_eq!(data(200, 1).pure_ack(), None);
    }

    #[test]
    fn send_ladder_completes_retransmits_with_backoff_then_fails() {
        let rc = RecoveryConfig::default();
        let rto = fault::NIC_RTO_NS;
        let t0 = SimTime::ZERO;
        let mut send = SendLadder::new(t0, false);
        assert_eq!(send.rung(t0 + (rto - 1), &rc), SendRung::Wait);
        assert_eq!(send.rung(t0 + rto, &rc), SendRung::Retransmit);
        assert_eq!(send.retransmit(t0 + rto), 2 * rto, "the backoff doubles");
        assert_eq!(send.rung(t0 + (3 * rto - 1), &rc), SendRung::Wait);
        while send.attempts < rc.nic_retries {
            send.retransmit(t0);
        }
        assert_eq!(send.rto_ns(), rto << rc.nic_retries.min(10));
        assert_eq!(send.rung(t0 + send.rto_ns(), &rc), SendRung::Fail);
        send.attempts = 40;
        assert_eq!(send.rto_ns(), rto << 10, "the backoff is capped");
        send.acked = true;
        assert_eq!(send.rung(t0 + rto, &rc), SendRung::Complete);
        assert_eq!(send.rung(t0 + (rto - 1), &rc), SendRung::Wait);
        send.descs_done = true;
        assert_eq!(send.rung(t0 + 10 * rto, &rc), SendRung::Wait);
        let none = RecoveryConfig::no_retries();
        let fresh = SendLadder::new(t0, false);
        assert_eq!(fresh.rung(t0 + rto, &none), SendRung::Fail);
        assert!(!stalled(fault::OP_TIMEOUT_NS - 1, fault::OP_TIMEOUT_NS));
        assert!(stalled(fault::OP_TIMEOUT_NS, fault::OP_TIMEOUT_NS));
    }

    #[test]
    fn stale_cumulative_ack_never_moves_backwards() {
        let mut gbn = GoBackN::default();
        assert_eq!(gbn.reserve((1u16, 2u16), 100), 0);
        assert_eq!(gbn.reserve((1, 2), 50), 100);
        assert_eq!(gbn.reserve((3, 4), 10), 0);
        assert_eq!(gbn.on_ack((1, 2), 100), 100);
        assert_eq!(gbn.on_ack((1, 2), 40), 100, "stale ack");
        assert_eq!(gbn.on_ack((1, 2), 150), 150);
        assert_eq!(gbn.on_ack((3, 4), 5), 5, "streams are independent");
    }
}
