//! The initiator side of the NIC protocol, shared by every initiator.
//!
//! The host NIC driver (baseline designs) and the HDC Engine's NIC
//! controller (DCS-ctrl) drive the adapter the same standard way
//! (§III-C) with the same code, in two layers:
//!
//! * `NicInitiator` does the ring and memory work: split a send at the
//!   adapter's LSO limit, stage one header template per descriptor, push
//!   the descriptors and ring the transmit doorbell; post receive
//!   buffers, then scan the write-back ring — verify, clear, advance —
//!   and repost buffers once half the ring is consumed.
//! * [`Transport`], the one type the callers hold, owns an initiator and
//!   decides everything above it: when a send is complete, which ack
//!   covers which send, when the send ladder replays, completes or fails
//!   a send, which received bytes are accepted, which receive they land
//!   in, and when a receive has stalled.
//!
//! While a fault plan is installed the transport runs go-back-N over the
//! lossy wire: a data frame's TCP `ack` field carries the absolute stream
//! offset of its first byte, a receiver accepts only the next in-order
//! frame and answers with coalesced cumulative acks (`seq == ACK_MAGIC`,
//! no payload), and a sender replays a whole send until the peer's ack
//! covers it. Without a plan a send counts as acked from the start and
//! completes on its last descriptor's transmit interrupt.
//!
//! The callers keep what differs between them: their costs, their timer
//! shapes, their stream and operation keys, their anatomy marks and
//! their counter names ([`Counters`]).

use std::collections::VecDeque;
use std::hash::Hash;

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

/// What one receive scan found.
#[derive(Debug)]
pub struct RxBatch {
    /// Data frames, in ring order.
    pub frames: Vec<RxFrame>,
    /// Pure cumulative acks, in ring order (under a fault plan only).
    pub acks: Vec<RxFrame>,
    /// Receive doorbell to send when the scan reposted buffers.
    pub repost: Option<MmioWrite>,
    /// A fault plan was installed at the scan; [`Transport::accept`]
    /// takes it.
    pub faulty: bool,
}

/// One initiator's send, receive and write-back rings on one adapter.
struct NicInitiator {
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
    /// The rings of [`Transport::new`].
    fn new(
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

    /// Receive buffers kept posted (one ring slot stays empty).
    fn recv_buffers(&self) -> u16 {
        self.configure.recv_ring_depth - 1
    }

    /// Posts `count` receive buffers and returns the receive doorbell.
    fn post_recv_buffers(&mut self, mem: &mut PhysMemory, count: u16) -> MmioWrite {
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
    /// template carries the sequence number of its first byte and, in the
    /// `ack` field, that byte's stream offset (the send's is
    /// `stream_off`). Returns the descriptor count and the transmit
    /// doorbell.
    fn push_send(
        &mut self,
        mem: &mut PhysMemory,
        tx: &Transmit,
        stream_off: u64,
    ) -> (usize, MmioWrite) {
        let lso = self.handle.max_lso;
        let mut descs = 0;
        for off in (0..tx.len.max(1)).step_by(lso) {
            let template = build_template(
                &tx.flow,
                tx.seq.wrapping_add(off as u32),
                (stream_off as u32).wrapping_add(off as u32),
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
    /// tallied and logged to AER, and its frame is dropped (the sender's
    /// retransmission re-delivers the bytes), as is a frame that fails
    /// header or checksum validation (wire corruption). Each drop is
    /// counted under `counters`.
    fn scan(&mut self, world: &mut World, now: SimTime, counters: &Counters) -> RxBatch {
        let faulty = fault::active(world);
        let mut batch = RxBatch {
            frames: Vec::new(),
            acks: Vec::new(),
            repost: None,
            faulty,
        };
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
                world.stats.counter(counters.bad_writebacks).add(1);
                continue;
            }
            // The checksum guarantees frame_len is the device's value;
            // the clamp is pure defense against future layout drift.
            // Taken, not read: nothing reads the buffer again before the
            // NIC refills it, so its pages can be released.
            let buf = self.recv_bufs + slot as u64 * RECV_BUF_SIZE;
            let mut frame = mem.take(buf, (wb.frame_len as usize).min(RECV_BUF_SIZE as usize));
            let Ok(p) = parse_frame(&frame) else {
                world.stats.counter(counters.bad_frames).add(1);
                continue;
            };
            frame.truncate(p.payload_offset + p.payload_len);
            frame.drain(..p.payload_offset);
            let pure_ack = faulty && frame.is_empty() && p.seq == ACK_MAGIC;
            let f = RxFrame {
                flow: p.flow,
                seq: p.seq,
                ack: p.ack,
                payload: frame,
            };
            if pure_ack {
                batch.acks.push(f);
            } else {
                batch.frames.push(f);
            }
        }
        batch.repost = (self.consumed >= self.recv_buffers() / 2).then(|| {
            let n = std::mem::take(&mut self.consumed);
            self.post_recv_buffers(world.expect_mut::<PhysMemory>(), n)
        });
        batch
    }
}

/// The counter names one initiator reports its transport's drops and
/// replays under.
#[derive(Clone, Copy, Debug)]
pub struct Counters {
    /// Write-backs that failed their checksum.
    pub bad_writebacks: &'static str,
    /// Frames that failed header or checksum validation.
    pub bad_frames: &'static str,
    /// Data frames whose bytes were already accepted.
    pub duplicates: &'static str,
    /// Data frames past a dropped one.
    pub out_of_order: &'static str,
    /// Sends the ladder replayed.
    pub retransmits: &'static str,
    /// Receives failed as stalled.
    pub recv_timeouts: &'static str,
}

/// What one transmit interrupt retired.
#[derive(Debug, PartialEq, Eq)]
pub enum TxIrq<I, D> {
    /// No descriptor was outstanding, or its send had already ended.
    Stale,
    /// The send is not complete: it has descriptors outstanding, or it
    /// waits for the peer's ack.
    Pending,
    /// The send has left the adapter and is complete.
    Complete(I, D),
}

/// The send ladder's step for one send.
#[derive(Debug)]
pub enum SendCheck<D> {
    /// Within its timeout: check again after this many ns.
    Wait(u64),
    /// Replayed: ring the doorbell, check again after the backoff (ns).
    Retransmit(MmioWrite, u64),
    /// Acked, but its transmit interrupt was lost: completed.
    Complete(D),
    /// Unacked with the retransmit budget spent: failed.
    Fail(D),
}

/// The stall test's verdict on one receive.
#[derive(Debug, PartialEq, Eq)]
pub enum RecvCheck<D> {
    /// Bytes landed within the limit.
    Live,
    /// No bytes for the limit: failed.
    Failed(D),
}

/// One entry of the send table.
struct Send<K, I, D> {
    id: I,
    key: K,
    /// The descriptor chain, replayed on retransmission.
    tx: Transmit,
    /// Stream offset of its first byte (zero without a fault plan).
    stream_off: u64,
    /// Retransmissions so far.
    attempts: u32,
    /// When the send was last (re)transmitted.
    last_attempt: SimTime,
    /// Its entries in the transmit-descriptor queue.
    queued: u32,
    /// Every descriptor pushed for it raised its transmit interrupt.
    sent: bool,
    /// The peer's cumulative ack covers it.
    acked: bool,
    data: D,
}

impl<K, I, D> Send<K, I, D> {
    /// The retransmission timeout: `fault::NIC_RTO_NS`, doubling per
    /// retransmission up to 2^10 times.
    fn rto_ns(&self) -> u64 {
        fault::NIC_RTO_NS << self.attempts.min(10)
    }
}

/// One receive waiting for bytes.
struct Recv<K, I, D> {
    id: I,
    key: K,
    len: usize,
    into: PhysAddr,
    received: usize,
    /// Bytes the running [`Transport::drain`] call landed here, once the
    /// call reached it with bytes of its stream left; `None` otherwise.
    took: Option<usize>,
    /// Last time bytes landed, or the registration time before any did.
    last_progress: SimTime,
    data: D,
}

impl<K, I, D> Recv<K, I, D> {
    /// Room left for bytes.
    fn room(&self) -> usize {
        self.len - self.received
    }

    /// Counts `n` bytes this call landed, zero included.
    fn land(&mut self, n: usize) {
        self.received += n;
        *self.took.get_or_insert(0) += n;
    }
}

/// One stream's go-back-N state (kept only under a fault plan). A key
/// names a transmit stream, a receive stream, or both. Stream offsets
/// stay far below 4 GiB in this model, so the 32-bit `ack` field is
/// treated as absolute.
#[derive(Default)]
struct Stream {
    /// Bytes submitted (transmit).
    tx_off: u64,
    /// Highest cumulative ack received (transmit).
    acked: u64,
    /// Bytes accepted in order (receive).
    rcv_count: u64,
}

/// One initiator's NIC transport: its ring work, the send table with its
/// queue of pushed descriptors, the streams, the early bytes and the
/// receive list. `K` keys a stream, `I` names a send or a receive, and
/// `D` is what the caller keeps with each.
pub struct Transport<K, I, D = ()> {
    nic: NicInitiator,
    counters: Counters,
    /// In issue order; an initiator keeps a handful in flight, so ids
    /// are found by a scan.
    sends: Vec<Send<K, I, D>>,
    /// The send of each pushed descriptor, in adapter completion order;
    /// `None` once its send ended while the descriptor was still in the
    /// adapter (see [`retire`](Self::retire)).
    tx_descs: VecDeque<Option<I>>,
    streams: DetMap<K, Stream>,
    /// Accepted bytes no receive could take yet, per receive stream; a
    /// stream has an entry only while it has bytes staged.
    early: DetMap<K, VecDeque<u8>>,
    /// Receives in registration order; bytes fill the oldest first.
    recvs: Vec<Recv<K, I, D>>,
}

impl<K: Copy + Ord + Hash, I: Copy + Ord, D> Transport<K, I, D> {
    /// A transport on the rings `configure` describes on `handle`'s
    /// adapter, counting under `counters`. `recv_bufs` holds one
    /// [`RECV_BUF_SIZE`] buffer per receive-ring slot, `hdr_area` one
    /// 64-byte template per send-ring slot; LSO descriptors segment at
    /// [`MSS`].
    pub fn new(
        handle: NicHandle,
        configure: ConfigureNic,
        recv_bufs: PhysAddr,
        hdr_area: PhysAddr,
        counters: Counters,
    ) -> Self {
        Transport {
            nic: NicInitiator::new(handle, configure, recv_bufs, hdr_area),
            counters,
            sends: Vec::new(),
            tx_descs: VecDeque::new(),
            streams: DetMap::new(),
            early: DetMap::new(),
            recvs: Vec::new(),
        }
    }

    /// The ring configuration to send to the adapter before first use.
    pub fn configure(&self) -> ConfigureNic {
        self.nic.configure
    }

    /// The adapter component (control frames go to it directly).
    pub fn device(&self) -> ComponentId {
        self.nic.handle.device
    }

    /// Posts every receive buffer; returns the receive doorbell.
    pub fn post_recv_buffers(&mut self, mem: &mut PhysMemory) -> MmioWrite {
        let n = self.nic.recv_buffers();
        self.nic.post_recv_buffers(mem, n)
    }

    /// Enters send `id` on stream `key` and stages its descriptors at
    /// `now`; returns the transmit doorbell. Under a fault plan its bytes
    /// take the stream's next offsets and it waits for the peer's ack;
    /// otherwise, or with no bytes, it counts as acked.
    pub fn send(
        &mut self,
        world: &mut World,
        now: SimTime,
        id: I,
        key: K,
        tx: Transmit,
        data: D,
    ) -> MmioWrite {
        let faulty = fault::active(world);
        let mut stream_off = 0;
        if faulty {
            let st = self.streams.entry(key).or_default();
            stream_off = st.tx_off;
            st.tx_off += tx.len as u64;
        }
        assert!(self.find(id).is_none(), "a send id names one live send");
        self.sends.push(Send {
            id,
            key,
            tx,
            stream_off,
            attempts: 0,
            last_attempt: now,
            queued: 0,
            sent: false,
            acked: !faulty || tx.len == 0,
            data,
        });
        let at = self.sends.len() - 1;
        self.push(world.expect_mut::<PhysMemory>(), at, now)
    }

    /// The position of send `id` in the table.
    fn find(&self, id: I) -> Option<usize> {
        self.sends.iter().position(|s| s.id == id)
    }

    /// Stages the descriptors of the send at `at` in the table at `now`
    /// and returns the transmit doorbell. Also the retransmission path:
    /// re-pushing a send replays the same frames, which the receiver
    /// deduplicates by stream offset.
    fn push(&mut self, mem: &mut PhysMemory, at: usize, now: SimTime) -> MmioWrite {
        let s = &mut self.sends[at];
        let (descs, doorbell) = self.nic.push_send(mem, &s.tx, s.stream_off);
        s.last_attempt = now;
        s.queued += descs as u32;
        self.tx_descs.extend(std::iter::repeat_n(Some(s.id), descs));
        doorbell
    }

    /// Sends in the table.
    pub fn in_flight(&self) -> usize {
        self.sends.len()
    }

    /// The descriptor the next transmit interrupt retires (`None` when
    /// none is outstanding), with the caller's data for its send (`None`
    /// once that send ended).
    pub fn tx_front(&self) -> Option<Option<&D>> {
        let id = *self.tx_descs.front()?;
        Some(id.map(|id| &self.sends[self.find(id).expect("queued sends are live")].data))
    }

    /// Retires the oldest outstanding descriptor on a transmit interrupt
    /// (the adapter completes descriptors in push order). A send has left
    /// the adapter once every descriptor pushed for it so far has; a
    /// later replay does not take that back.
    pub fn tx_irq(&mut self) -> TxIrq<I, D> {
        let Some(Some(id)) = self.tx_descs.pop_front() else {
            return TxIrq::Stale;
        };
        let at = self.find(id).expect("queued descriptors name live sends");
        let s = &mut self.sends[at];
        s.queued -= 1;
        if s.queued > 0 || s.sent {
            return TxIrq::Pending;
        }
        s.sent = true;
        if !s.acked {
            return TxIrq::Pending;
        }
        TxIrq::Complete(id, self.retire(id, false))
    }

    /// Applies the peer's cumulative ack to transmit stream `key`: the
    /// unacked sends it covers are acked in issue order (a retransmitted
    /// one credits `wire.drop` as recovered), and those that have left
    /// the adapter complete and are returned.
    pub fn on_ack(&mut self, world: &mut World, key: K, ack: u32) -> Vec<(I, D)> {
        let st = self.streams.entry(key).or_default();
        st.acked = st.acked.max(u64::from(ack));
        let acked = st.acked;
        // A stream's offsets grow in issue order, so they order its sends.
        let mut covered: Vec<(u64, I)> = self
            .sends
            .iter()
            .filter(|s| s.key == key && !s.acked && s.stream_off + s.tx.len as u64 <= acked)
            .map(|s| (s.stream_off, s.id))
            .collect();
        covered.sort_unstable();
        let mut done = Vec::new();
        for (_, id) in covered {
            let at = self.find(id).expect("covered sends are live");
            let s = &mut self.sends[at];
            if s.attempts > 0 {
                fault::recovered(world, fault::WIRE_DROP);
            }
            s.acked = true;
            if s.sent {
                done.push((id, self.retire(id, false)));
            }
        }
        done
    }

    /// Every send in the table, in id order.
    pub fn send_ids(&self) -> Vec<I> {
        let mut ids: Vec<I> = self.sends.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids
    }

    /// Takes send `id`'s next rung on the ladder at `now` (`None` once it
    /// left the table). An acked send whose transmit interrupt is still
    /// missing `fault::NIC_RTO_NS` after its last transmission completes
    /// (`pcie.msi_loss` recovered). An unacked one waits out its
    /// timeout, then is replayed while `rc.nic_retries` lasts
    /// (`wire.drop` retried), then fails (`wire.drop` exhausted).
    pub fn check_send(
        &mut self,
        world: &mut World,
        id: I,
        now: SimTime,
        rc: &RecoveryConfig,
    ) -> Option<SendCheck<D>> {
        let at = self.find(id)?;
        let s = &mut self.sends[at];
        let age = now - s.last_attempt;
        let wait = if s.acked {
            s.sent || age < fault::NIC_RTO_NS
        } else {
            age < s.rto_ns()
        };
        Some(if wait {
            SendCheck::Wait(s.rto_ns())
        } else if s.acked {
            fault::recovered(world, fault::MSI_LOSS);
            SendCheck::Complete(self.retire(id, true))
        } else if s.attempts < rc.nic_retries {
            s.attempts += 1;
            let backoff = s.rto_ns();
            fault::retried(world, fault::WIRE_DROP);
            world.stats.counter(self.counters.retransmits).add(1);
            SendCheck::Retransmit(
                self.push(world.expect_mut::<PhysMemory>(), at, now),
                backoff,
            )
        } else {
            fault::exhausted(world, fault::WIRE_DROP);
            SendCheck::Fail(self.retire(id, true))
        })
    }

    /// Takes send `id` out of the table. Its descriptors still queued
    /// are dropped when their interrupts count as `lost` (the ladder's
    /// complete and fail rungs, `NIC_RTO_NS` or more after its last
    /// push); otherwise (an ack overtook a replay's interrupts) they stay
    /// as blanks their interrupts retire as stale, so no interrupt
    /// retires a later send's descriptor.
    fn retire(&mut self, id: I, lost: bool) -> D {
        let s = self
            .sends
            .remove(self.find(id).expect("retired sends are live"));
        if s.queued > 0 && lost {
            self.tx_descs.retain(|&d| d != Some(id));
        } else if s.queued > 0 {
            for d in self.tx_descs.iter_mut().filter(|d| **d == Some(id)) {
                *d = None;
            }
        }
        s.data
    }

    /// Scans the write-back ring and counts what it dropped; under a
    /// fault plan the pure acks come apart from the data frames.
    pub fn scan(&mut self, world: &mut World, now: SimTime) -> RxBatch {
        self.nic.scan(world, now, &self.counters)
    }

    /// Keys each of a scan's data `frames` to its receive stream (`key`
    /// returns `None` for a flow the caller does not know, and the frame
    /// is dropped) and returns the payloads of those whose bytes are next
    /// in their stream, with one cumulative ack frame per stream the
    /// frames came on, in key order. Without a fault plan (the scan's
    /// [`RxBatch::faulty`]) every payload is kept and none is acked.
    /// Under one, a duplicate (its ack got lost) or a frame past a gap
    /// (an earlier one dropped) is counted and discarded but still acked,
    /// so a sender whose ack got lost stops replaying.
    pub fn accept(
        &mut self,
        world: &mut World,
        faulty: bool,
        frames: Vec<RxFrame>,
        mut key: impl FnMut(&mut World, &TcpFlow) -> Option<K>,
    ) -> (Vec<(K, Vec<u8>)>, Vec<ControlFrame>) {
        let mut kept = Vec::new();
        let mut owed = Vec::new();
        for frame in frames {
            let Some(k) = key(world, &frame.flow) else {
                continue;
            };
            if faulty {
                owed.push((k, frame.flow.reversed()));
                let st = self.streams.entry(k).or_default();
                let off = u64::from(frame.ack);
                if off != st.rcv_count {
                    let c = &self.counters;
                    let name = if off < st.rcv_count {
                        c.duplicates
                    } else {
                        c.out_of_order
                    };
                    world.stats.counter(name).add(1);
                    continue;
                }
                st.rcv_count += frame.payload.len() as u64;
            }
            kept.push((k, frame.payload));
        }
        owed.sort_unstable_by_key(|&(k, _)| k);
        owed.dedup_by_key(|&mut (k, _)| k);
        let acks = owed
            .into_iter()
            .map(|(k, flow)| ControlFrame {
                frame: build_frame(&flow, ACK_MAGIC, self.streams[&k].rcv_count as u32, &[]),
            })
            .collect();
        (kept, acks)
    }

    /// Registers receive `id`: `len` bytes of stream `key`, landing
    /// contiguously at `into`.
    pub fn open_recv(&mut self, now: SimTime, id: I, key: K, len: usize, into: PhysAddr, data: D) {
        self.recvs.push(Recv {
            id,
            key,
            len,
            into,
            received: 0,
            took: None,
            last_progress: now,
            data,
        });
    }

    /// The caller's data for the oldest receive.
    pub fn first_recv(&self) -> Option<&D> {
        self.recvs.first().map(|r| &r.data)
    }

    /// Lands accepted `payloads` in the receives, each byte once: a
    /// stream's bytes fill its receives greedily in registration order,
    /// its staged bytes first, then each payload straight from its
    /// buffer. Only bytes no receive has room for yet are staged, and a
    /// stream's staging buffer is dropped once it is empty. `charge`
    /// sees each receive this call reached with bytes left in its stream
    /// once, in registration order, with the count it took. Returns the
    /// receives this filled, newest first.
    pub fn drain(
        &mut self,
        mem: &mut PhysMemory,
        now: SimTime,
        payloads: impl IntoIterator<Item = (K, Vec<u8>)>,
        mut charge: impl FnMut(&mut D, usize),
    ) -> Vec<(I, D)> {
        // Bytes staged before this call, for receives registered since.
        for r in &mut self.recvs {
            let Some(buf) = self.early.get_mut(&r.key) else {
                continue;
            };
            let take = r.room().min(buf.len());
            if take > 0 {
                mem.write_front(r.into + r.received as u64, buf, take);
            }
            r.land(take);
            if buf.is_empty() {
                self.early.remove(&r.key);
            }
        }
        for (key, payload) in payloads {
            if let Some(buf) = self.early.get_mut(&key) {
                // Every receive of the stream is full.
                buf.extend(payload);
                continue;
            }
            let mut off = 0;
            for r in self.recvs.iter_mut().filter(|r| r.key == key) {
                if off == payload.len() {
                    break;
                }
                let take = r.room().min(payload.len() - off);
                if take > 0 {
                    mem.write(r.into + r.received as u64, &payload[off..off + take]);
                }
                r.land(take);
                off += take;
            }
            if off < payload.len() {
                let mut rest = VecDeque::from(payload);
                rest.drain(..off);
                self.early.insert(key, rest);
            }
        }
        for r in &mut self.recvs {
            if let Some(took) = r.took {
                r.last_progress = now;
                charge(&mut r.data, took);
            }
        }
        let mut filled = Vec::new();
        for i in (0..self.recvs.len()).rev() {
            let r = &mut self.recvs[i];
            if r.took.take().is_some() && r.received == r.len {
                let r = self.recvs.remove(i);
                filled.push((r.id, r.data));
            }
        }
        filled
    }

    /// Every receive waiting for bytes, in registration order.
    pub fn recv_ids(&self) -> Vec<I> {
        self.recvs.iter().map(|r| r.id).collect()
    }

    /// The stall test for receive `id` at `now` (`None` once it ended):
    /// a receive that landed no bytes for `limit_ns` lost its sender and
    /// fails (`wire.drop` exhausted). The limit is the sender's recovery
    /// worst case (`dcs_nvme::ladder_bound_ns` when flash feeds it), so
    /// the receive outlasts every rung that could still deliver.
    pub fn check_recv(
        &mut self,
        world: &mut World,
        id: I,
        now: SimTime,
        limit_ns: u64,
    ) -> Option<RecvCheck<D>> {
        let pos = self.recvs.iter().position(|r| r.id == id)?;
        if now - self.recvs[pos].last_progress < limit_ns {
            return Some(RecvCheck::Live);
        }
        let r = self.recvs.remove(pos);
        fault::exhausted(world, fault::WIRE_DROP);
        world.stats.counter(self.counters.recv_timeouts).add(1);
        Some(RecvCheck::Failed(r.data))
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

    fn send(len: usize) -> Transmit {
        Transmit {
            flow: flow(),
            seq: 7,
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

    /// A data frame of stream `key` (its flow's source port).
    fn data(key: u16, ack: u32, len: usize) -> RxFrame {
        RxFrame {
            flow: TcpFlow::example(1, 2, key, 80),
            seq: 0,
            ack,
            payload: vec![0xAB; len],
        }
    }

    #[test]
    fn sends_split_at_the_lso_limit_with_a_short_last_descriptor() {
        let (mut world, mut nic) = rig(4096, 8);
        let (n, db) = nic.push_send(world.expect_mut::<PhysMemory>(), &send(10_000), 100);
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
        let (n, db) = nic.push_send(world.expect_mut::<PhysMemory>(), &send(0), 0);
        assert_eq!((n, index(&db)), (1, 1));
        assert_eq!(descs(&world, &nic, 1)[0].0.payload_len, 0);
    }

    const COUNTERS: Counters = Counters {
        bad_writebacks: "t.bad_writebacks",
        bad_frames: "t.bad_frames",
        duplicates: "t.duplicates",
        out_of_order: "t.out_of_order",
        retransmits: "t.retransmits",
        recv_timeouts: "t.recv_timeouts",
    };

    /// A transport on `rig`'s initiator, under a fault plan with default
    /// recovery budgets.
    fn faulty_transport() -> (World, Transport<u16, u64>) {
        let (mut world, nic) = rig(4096, 8);
        world.insert(dcs_sim::FaultPlan::new(dcs_sim::Rng::new(1)));
        let t = Transport::new(
            nic.handle,
            nic.configure,
            nic.recv_bufs,
            nic.hdr_area,
            COUNTERS,
        );
        (world, t)
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
        let scan = nic.scan(&mut world, SimTime::ZERO + 500, &COUNTERS);
        let good = RxFrame {
            flow: flow(),
            seq: 1,
            ack: 2,
            payload: b"payload".to_vec(),
        };
        assert_eq!(scan.frames, [good.clone(), good.clone(), good]);
        assert_eq!(world.stats.counter_value(COUNTERS.bad_writebacks), 1);
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
        let scan = nic.scan(&mut world, SimTime::ZERO, &COUNTERS);
        assert_eq!(scan.frames.len(), 1);
        assert!(scan.repost.is_none(), "one of four buffers used");
        let last = frame.len() - 1;
        frame[last] ^= 1;
        land(&mut world, &nic, 1, &frame);
        let scan = nic.scan(&mut world, SimTime::ZERO, &COUNTERS);
        assert!(scan.frames.is_empty());
        assert_eq!(world.stats.counter_value(COUNTERS.bad_frames), 1);
        let db = scan.repost.expect("half the ring consumed");
        assert_eq!((db.addr, index(&db)), (nic.handle.rx_doorbell(), 1));
        assert!(nic
            .scan(&mut world, SimTime::ZERO, &COUNTERS)
            .frames
            .is_empty());
    }

    #[test]
    fn a_writeback_without_its_frame_never_replays_the_slots_last_frame() {
        let (mut world, mut nic) = rig(4096, 2);
        let depth = nic.configure.recv_ring_depth;
        let frame = build_frame(&flow(), 1, 2, b"old frame");
        for slot in 0..depth {
            land(&mut world, &nic, slot, &frame);
            assert_eq!(
                nic.scan(&mut world, SimTime::ZERO, &COUNTERS).frames.len(),
                1
            );
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
        let scan = nic.scan(&mut world, SimTime::ZERO, &COUNTERS);
        assert!(scan.frames.is_empty());
        assert_eq!(world.stats.counter_value(COUNTERS.bad_frames), 1);
    }

    #[test]
    fn scan_splits_pure_acks_from_data_only_under_a_plan() {
        let ack = build_frame(&flow(), ACK_MAGIC, 200, &[]);
        for faulty in [false, true] {
            let (mut world, mut nic) = rig(4096, 8);
            if faulty {
                world.insert(dcs_sim::FaultPlan::new(dcs_sim::Rng::new(1)));
            }
            land(&mut world, &nic, 0, &ack);
            let scan = nic.scan(&mut world, SimTime::ZERO, &COUNTERS);
            assert_eq!(
                (scan.acks.len(), scan.frames.len()),
                (faulty as usize, !faulty as usize)
            );
        }
    }

    #[test]
    fn receiver_classifies_in_order_duplicate_and_gap_frames() {
        let (mut world, mut t) = faulty_transport();
        let frames = [
            (9u16, 0, 100),
            (9, 0, 100),
            (9, 200, 100),
            (9, 100, 100),
            (9, 150, 100),
            (4, 0, 10),
        ];
        let frames = frames.map(|(k, ack, len)| data(k, ack, len)).to_vec();
        let (kept, acks) = t.accept(&mut world, true, frames, |_, f| Some(f.src_port));
        let kept: Vec<(u16, usize)> = kept.iter().map(|(k, p)| (*k, p.len())).collect();
        assert_eq!(kept, [(9, 100), (9, 100), (4, 10)]);
        assert_eq!(world.stats.counter_value(COUNTERS.duplicates), 2);
        assert_eq!(world.stats.counter_value(COUNTERS.out_of_order), 1);
        // One coalesced cumulative ack per stream, in key order, on the
        // reverse flow.
        let acks: Vec<_> = acks
            .iter()
            .map(|c| parse_frame(&c.frame).expect("valid ack"))
            .map(|p| (p.flow, p.seq, p.ack, p.payload_len))
            .collect();
        let back = |key| TcpFlow::example(1, 2, key, 80).reversed();
        assert_eq!(
            acks,
            [(back(4), ACK_MAGIC, 10, 0), (back(9), ACK_MAGIC, 200, 0)]
        );
        // A duplicate alone is re-acked.
        let dup = vec![data(4, 0, 10)];
        let (kept, acks) = t.accept(&mut world, true, dup, |_, f| Some(f.src_port));
        assert_eq!((kept.len(), acks.len()), (0, 1));
        // Without a plan every frame of a known flow is kept, unacked.
        let frames = vec![data(4, 0, 10), data(5, 0, 10), data(9, 0, 10)];
        let known = |_: &mut World, f: &TcpFlow| (f.src_port != 5).then_some(f.src_port);
        let (kept, acks) = t.accept(&mut world, false, frames, known);
        assert_eq!((kept.len(), acks.len()), (2, 0));
    }

    /// Sends `len` bytes as send `id` on stream `key` at `at` ns.
    fn open(
        world: &mut World,
        t: &mut Transport<u16, u64>,
        id: u64,
        key: u16,
        len: usize,
        at: u64,
    ) {
        let now = SimTime::ZERO + at;
        t.send(world, now, id, key, send(len), ());
    }

    #[test]
    fn stale_cumulative_ack_never_moves_backwards() {
        let (mut world, mut t) = faulty_transport();
        for (id, key, len) in [(1, 1, 100), (2, 1, 50), (3, 1, 0), (4, 2, 10)] {
            open(&mut world, &mut t, id, key, len, 0);
        }
        let offs: Vec<u64> = t.sends.iter().map(|s| s.stream_off).collect();
        assert_eq!(offs, [0, 100, 150, 0], "each stream counts from zero");
        // Transmitted: the empty send completes at once, the others wait.
        let irqs: Vec<_> = (0..4).map(|_| t.tx_irq()).collect();
        assert_eq!(
            irqs,
            [
                TxIrq::Pending,
                TxIrq::Pending,
                TxIrq::Complete(3, ()),
                TxIrq::Pending
            ]
        );
        assert_eq!(t.tx_irq(), TxIrq::Stale);
        assert_eq!(t.on_ack(&mut world, 1, 120), [(1, ())]);
        assert!(t.on_ack(&mut world, 1, 40).is_empty(), "a stale ack");
        assert_eq!(t.on_ack(&mut world, 1, 150), [(2, ())]);
        assert_eq!(t.in_flight(), 1, "stream 1's acks leave stream 2's send");
        assert_eq!(
            t.on_ack(&mut world, 2, 10),
            [(4, ())],
            "streams are independent"
        );
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn an_ack_overtaking_a_replay_leaves_its_interrupt_to_it() {
        let rc = RecoveryConfig::default();
        let rto = fault::NIC_RTO_NS;
        let (mut world, mut t) = faulty_transport();
        open(&mut world, &mut t, 1, 1, 100, 0);
        assert_eq!(t.tx_irq(), TxIrq::Pending, "sent, waiting for its ack");
        let replay = t.check_send(&mut world, 1, SimTime::ZERO + rto, &rc);
        assert!(matches!(replay, Some(SendCheck::Retransmit(..))));
        // The original bytes' ack arrives before the replay's interrupt.
        assert_eq!(t.on_ack(&mut world, 1, 100), [(1, ())]);
        open(&mut world, &mut t, 2, 1, 50, rto);
        assert_eq!(t.tx_front(), Some(None), "the replay's descriptor is next");
        assert_eq!(t.tx_irq(), TxIrq::Stale, "the replay's interrupt");
        assert_eq!(t.tx_front(), Some(Some(&())));
        assert_eq!(t.tx_irq(), TxIrq::Pending, "send 2's own interrupt");
        assert_eq!(t.on_ack(&mut world, 1, 150), [(2, ())]);
        assert_eq!(t.tx_front(), None);
    }

    #[test]
    fn send_ladder_completes_retransmits_with_backoff_then_fails() {
        let rc = RecoveryConfig::default();
        let rto = fault::NIC_RTO_NS;
        let t0 = SimTime::ZERO;
        let (mut world, mut t) = faulty_transport();
        open(&mut world, &mut t, 1, 1, 100, 0);
        let check = |t: &mut Transport<u16, u64>, world: &mut World, at: u64| {
            t.check_send(world, 1, t0 + at, &rc)
        };
        assert!(matches!(check(&mut t, &mut world, rto - 1), Some(SendCheck::Wait(r)) if r == rto));
        let Some(SendCheck::Retransmit(_, backoff)) = check(&mut t, &mut world, rto) else {
            panic!("the first timeout replays the send");
        };
        assert_eq!(backoff, 2 * rto, "the backoff doubles");
        assert!(matches!(
            check(&mut t, &mut world, 3 * rto - 1),
            Some(SendCheck::Wait(_))
        ));
        t.sends[0].attempts = 40;
        assert_eq!(t.sends[0].rto_ns(), rto << 10, "the backoff is capped");
        let fail = check(&mut t, &mut world, rto + (rto << 10));
        assert!(matches!(fail, Some(SendCheck::Fail(()))));
        assert!(check(&mut t, &mut world, u64::MAX / 2).is_none());
        // Its two pushes' descriptors left the queue with it.
        assert_eq!(t.tx_irq(), TxIrq::Stale);
        assert_eq!(world.stats.counter_value(COUNTERS.retransmits), 1);
        let none = RecoveryConfig::no_retries();
        open(&mut world, &mut t, 2, 1, 100, 0);
        assert!(matches!(
            t.check_send(&mut world, 2, t0 + rto, &none),
            Some(SendCheck::Fail(()))
        ));
        // Acked, but its transmit interrupt never came: the complete rung
        // finishes it `NIC_RTO_NS` after its push, and its descriptor
        // leaves the queue with it.
        open(&mut world, &mut t, 3, 1, 100, 0);
        assert!(t.on_ack(&mut world, 1, 300).is_empty());
        let at = |ns| t0 + ns;
        assert!(matches!(
            t.check_send(&mut world, 3, at(rto - 1), &rc),
            Some(SendCheck::Wait(_))
        ));
        assert!(matches!(
            t.check_send(&mut world, 3, at(rto), &rc),
            Some(SendCheck::Complete(()))
        ));
        assert_eq!(t.tx_irq(), TxIrq::Stale);
        assert_eq!(world.stats.counter_value("fault.recovered"), 1);
    }

    #[test]
    fn receives_fill_in_registration_order_and_stall_without_bytes() {
        let (mut world, mut t) = faulty_transport();
        let at = |ns| SimTime::ZERO + ns;
        let base = world
            .expect_mut::<PhysMemory>()
            .alloc_region("dst", 0x1000, PortId::ROOT)
            .start;
        t.open_recv(at(0), 1, 5, 3, base, ());
        t.open_recv(at(0), 2, 5, 4, base + 0x100, ());
        t.open_recv(at(0), 3, 6, 4, base + 0x200, ());
        let mut took = Vec::new();
        let mem = world.expect_mut::<PhysMemory>();
        let filled = t.drain(mem, at(10), [(5, b"abcde".to_vec())], |_, n| took.push(n));
        assert_eq!((filled, took), (vec![(1, ())], vec![3, 2]));
        assert_eq!(mem.read(base, 3), b"abc");
        assert_eq!(mem.read(base + 0x100, 2), b"de");
        assert_eq!(t.recv_ids(), [2, 3]);
        let limit = fault::OP_TIMEOUT_NS;
        assert_eq!(
            t.check_recv(&mut world, 2, at(10 + limit - 1), limit),
            Some(RecvCheck::Live)
        );
        assert_eq!(
            t.check_recv(&mut world, 3, at(limit), limit),
            Some(RecvCheck::Failed(()))
        );
        assert_eq!(t.check_recv(&mut world, 3, at(limit), limit), None);
        assert_eq!(world.stats.counter_value(COUNTERS.recv_timeouts), 1);
    }

    #[test]
    fn a_streams_staging_buffer_is_freed_once_drained() {
        let (mut world, mut t) = faulty_transport();
        let at = |ns| SimTime::ZERO + ns;
        let base = world
            .expect_mut::<PhysMemory>()
            .alloc_region("dst", 0x1000, PortId::ROOT)
            .start;
        let mem = world.expect_mut::<PhysMemory>();
        // No receive yet: the bytes are staged.
        assert!(t
            .drain(mem, at(0), [(5, b"abc".to_vec())], |_, _| {})
            .is_empty());
        assert_eq!(t.early.len(), 1);
        // A receive with room for part of them leaves the rest staged.
        t.open_recv(at(1), 1, 5, 2, base, ());
        let filled = t.drain(mem, at(1), [(5, b"de".to_vec())], |_, _| {});
        assert_eq!(filled, [(1, ())]);
        assert_eq!(t.early[&5], b"cde".to_vec());
        // The next receive takes the rest, and the buffer goes with it.
        t.open_recv(at(2), 2, 5, 3, base + 0x100, ());
        assert_eq!(t.drain(mem, at(2), [], |_, _| {}), [(2, ())]);
        assert!(t.early.is_empty());
        assert_eq!(mem.read(base, 2), b"ab");
        assert_eq!(mem.read(base + 0x100, 3), b"cde");
        // Bytes a receive takes whole are never staged.
        t.open_recv(at(3), 3, 5, 4, base + 0x200, ());
        assert!(t
            .drain(mem, at(3), [(5, b"fg".to_vec())], |_, _| {})
            .is_empty());
        assert!(t.early.is_empty());
    }
}
