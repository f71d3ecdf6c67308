//! The host NIC driver and TCP/IP stack model.
//!
//! Transmit: per-operation socket/TCP setup plus per-packet work on the
//! CPU, then a descriptor + doorbell to the NIC (LSO pushes segmentation
//! into hardware, as the optimized baselines of the paper assume).
//!
//! Receive: the NIC lands whole frames in driver-posted buffers; the
//! driver's interrupt path charges per-packet TCP processing and then
//! *gathers* payload bytes into the consumer's contiguous buffer with CPU
//! copies — the "data gathering problem" (§V-C2) that costs the software
//! designs so dearly on receive-heavy workloads and that the HDC Engine
//! solves with packet-gathering hardware.
//!
//! While a [`dcs_sim::FaultPlan`] is installed the driver additionally
//! runs a go-back-N reliability protocol over the (then lossy) wire: the
//! TCP `ack` field of data frames carries the absolute per-flow stream
//! offset (both ends count from zero), receivers accept only the next
//! in-order frame and answer with coalesced pure-ACK frames (zero
//! payload, `seq == ACK_MAGIC`), and senders hold completions until
//! acknowledged, retransmitting on an exponential-backoff timeout within
//! a bounded budget. Frames that fail checksum validation are dropped
//! and counted rather than panicking. Without a plan none of this runs
//! and the event stream is identical to the fault-free simulator.

use std::collections::VecDeque;

use dcs_nic::headers::{build_frame, build_template, parse_frame, ACK_MAGIC};
use dcs_nic::{
    ConfigureNic, ControlFrame, NicHandle, RecvDescriptor, RecvWriteback, RingWriter,
    SendDescriptor, TcpFlow,
};
use dcs_pcie::{AddrRange, MmioWrite, MsiDelivery, PhysAddr, PhysMemory};
use dcs_sim::{fault, Breakdown, Category, Component, ComponentId, Ctx, DetMap, Msg, SimTime};

use crate::costs::{KernelCosts, KernelMode};
use crate::cpu::{CpuJob, CpuJobDone};

/// Driver-local layout and tuning.
#[derive(Clone, Debug)]
pub struct NicDriverConfig {
    /// Kernel mode (vanilla pays socket-buffer and extra copy costs).
    pub mode: KernelMode,
    /// Number of 2 KiB receive buffers kept posted.
    pub recv_buffers: u16,
    /// MSS assumed for LSO descriptors.
    pub mss: u16,
}

impl Default for NicDriverConfig {
    fn default() -> Self {
        NicDriverConfig {
            mode: KernelMode::Optimized,
            recv_buffers: 512,
            mss: 1448,
        }
    }
}

/// Transmit `len` payload bytes at `payload_addr` on `flow`.
#[derive(Debug, Clone)]
pub struct SendRequest {
    /// Requester-chosen identifier echoed in [`SendDone`].
    pub id: u64,
    /// Established connection to transmit on.
    pub flow: TcpFlow,
    /// Starting sequence number.
    pub seq: u32,
    /// Contiguous payload location (host memory, or device memory in P2P
    /// designs — the NIC gathers from wherever the descriptor points).
    pub payload_addr: PhysAddr,
    /// Payload length in bytes.
    pub len: usize,
    /// CPU-utilization tag.
    pub tag: &'static str,
    /// Component notified on completion.
    pub reply_to: ComponentId,
}

/// Completion of a [`SendRequest`].
#[derive(Debug, Clone)]
pub struct SendDone {
    /// Identifier from the originating request.
    pub id: u64,
    /// False when the fault-recovery retransmission budget ran out
    /// before the peer acknowledged the data (always true fault-free).
    pub ok: bool,
    /// Latency breakdown (network-stack CPU, device control, wire).
    pub breakdown: Breakdown,
}

/// Ask the driver to accumulate `len` received payload bytes of `flow`
/// into `into` (contiguous).
#[derive(Debug, Clone)]
pub struct RecvExpect {
    /// Requester-chosen identifier echoed in [`RecvDone`].
    pub id: u64,
    /// Connection to receive on (matched by source port of arriving
    /// frames).
    pub flow: TcpFlow,
    /// Payload bytes to accumulate.
    pub len: usize,
    /// Destination buffer for the gathered payload.
    pub into: PhysAddr,
    /// CPU-utilization tag.
    pub tag: &'static str,
    /// Component notified when `len` bytes have been gathered.
    pub reply_to: ComponentId,
}

/// Completion of a [`RecvExpect`].
#[derive(Debug, Clone)]
pub struct RecvDone {
    /// Identifier from the originating expectation.
    pub id: u64,
    /// False when the expectation made no progress for a full fault
    /// timeout and was abandoned (always true fault-free).
    pub ok: bool,
    /// Latency breakdown (per-packet network stack time, gather copies).
    pub breakdown: Breakdown,
}

struct PendingSend {
    req: SendRequest,
    stack_ns: u64,
    submitted_at: SimTime,
    /// Transmit descriptors still outstanding (large sends split at the
    /// LSO limit).
    descs_remaining: usize,
    /// Absolute per-flow stream offset of this send's first byte
    /// (fault mode; zero otherwise).
    start_off: u64,
    /// Retransmission attempts so far.
    attempts: u32,
    /// All transmit-completion MSIs observed.
    descs_done: bool,
    /// Peer acknowledged the full payload (initialized true outside
    /// fault mode and for zero-length sends).
    acked: bool,
}

struct Expectation {
    req: RecvExpect,
    received: usize,
    stack_ns: u64,
    copy_ns: u64,
    started_at: SimTime,
}

enum CpuPhase {
    TxSubmit,
    RxBatch {
        frames: Vec<(TcpFlow, u32, Vec<u8>)>,
        copy_ns: u64,
        stack_ns: u64,
    },
    TxComplete,
}

/// Internal: retransmission-timeout check for one send (fault mode only).
#[derive(Debug)]
struct TxCheck {
    id: u64,
}

/// Internal: progress check for one receive expectation (fault mode
/// only).
#[derive(Debug)]
struct RxCheck {
    id: u64,
    last_received: usize,
}

/// The driver component. One instance drives one NIC.
pub struct HostNicDriver {
    cpu: ComponentId,
    fabric: ComponentId,
    nic: NicHandle,
    costs: KernelCosts,
    config: NicDriverConfig,
    send_ring: RingWriter,
    recv_ring: RingWriter,
    wb_base: PhysAddr,
    /// Receive frame buffers (2 KiB each), reposted cyclically.
    recv_bufs: PhysAddr,
    /// Header template staging, one 64-byte slot per in-flight send.
    hdr_area: PhysAddr,
    /// Next write-back slot to scan.
    wb_next: u16,
    /// In-flight sends, completed in FIFO order by the NIC's tx MSIs.
    tx_queue: VecDeque<u64>,
    tx_submit_queue: VecDeque<u64>,
    sends: DetMap<u64, PendingSend>,
    /// Active receive expectations, served in arrival order per flow.
    expectations: Vec<Expectation>,
    /// Payload bytes that arrived before any matching expectation.
    early: DetMap<(u16, u16), VecDeque<u8>>,
    cpu_phases: DetMap<u64, CpuPhase>,
    next_cpu_token: u64,
    hdr_slot: u64,
    /// Frames consumed since the last buffer repost.
    consumed_since_repost: u16,
    /// Fault mode: cumulative payload bytes submitted per transmit flow
    /// key `(src_port, dst_port)`.
    tx_offset: DetMap<(u16, u16), u64>,
    /// Fault mode: highest cumulative ack received per transmit flow key.
    snd_acked: DetMap<(u16, u16), u64>,
    /// Fault mode: cumulative payload bytes accepted in order per
    /// receive key (the peer's transmit direction).
    rcv_count: DetMap<(u16, u16), u64>,
    /// Fault mode: unacknowledged send ids per transmit flow key,
    /// oldest first.
    unacked: DetMap<(u16, u16), VecDeque<u64>>,
}

impl HostNicDriver {
    /// Ring depths used by the driver.
    pub const SEND_DEPTH: u16 = 2048;

    /// Creates the driver and the NIC configuration message the caller
    /// must deliver to the device. `area` must provide ≳4 MiB of host
    /// memory; `msi_addr` (16 bytes) must be claimed for this component.
    pub fn new(
        cpu: ComponentId,
        fabric: ComponentId,
        nic: NicHandle,
        costs: KernelCosts,
        config: NicDriverConfig,
        area: AddrRange,
        msi_addr: PhysAddr,
    ) -> (Self, ConfigureNic) {
        let send_base = area.start;
        let recv_base = area.start + 0x10000;
        let wb_base = area.start + 0x20000;
        let hdr_area = area.start + 0x30000;
        let recv_bufs = area.start + 0x100000;
        let recv_depth = config.recv_buffers + 1;
        let configure = ConfigureNic {
            send_ring_base: send_base,
            send_ring_depth: Self::SEND_DEPTH,
            recv_ring_base: recv_base,
            recv_ring_depth: recv_depth,
            wb_ring_base: wb_base,
            tx_msi_addr: msi_addr,
            tx_msi_vector: 0x20,
            rx_msi_addr: msi_addr + 8,
            rx_msi_vector: 0x21,
        };
        let driver = HostNicDriver {
            cpu,
            fabric,
            nic,
            costs,
            config,
            send_ring: RingWriter::new(send_base, SendDescriptor::SIZE, Self::SEND_DEPTH),
            recv_ring: RingWriter::new(recv_base, RecvDescriptor::SIZE, recv_depth),
            wb_base,
            recv_bufs,
            hdr_area,
            wb_next: 0,
            tx_queue: VecDeque::new(),
            tx_submit_queue: VecDeque::new(),
            sends: DetMap::new(),
            expectations: Vec::new(),
            early: DetMap::new(),
            cpu_phases: DetMap::new(),
            next_cpu_token: 1,
            hdr_slot: 0,
            consumed_since_repost: 0,
            tx_offset: DetMap::new(),
            snd_acked: DetMap::new(),
            rcv_count: DetMap::new(),
            unacked: DetMap::new(),
        };
        (driver, configure)
    }

    /// Posts the initial receive buffers; call once after the NIC has been
    /// configured (the driver does it lazily on first message otherwise).
    fn post_recv_buffers(&mut self, ctx: &mut Ctx<'_>, count: u16) {
        {
            let mem = ctx.world().expect_mut::<PhysMemory>();
            for _ in 0..count {
                let idx = self.recv_ring.tail();
                let buf = self.recv_bufs + idx as u64 * 2048;
                let d = RecvDescriptor {
                    buf_addr: buf,
                    buf_len: 2048,
                };
                self.recv_ring.push(mem, &d.to_bytes());
            }
        }
        let tail = self.recv_ring.tail();
        let db = self.nic.rx_doorbell();
        let fabric = self.fabric;
        ctx.send_now(
            fabric,
            MmioWrite {
                addr: db,
                data: (tail as u32).to_le_bytes().to_vec(),
            },
        );
    }

    fn cpu_job(&mut self, ctx: &mut Ctx<'_>, cost: u64, tag: &'static str, phase: CpuPhase) {
        let token = self.next_cpu_token;
        self.next_cpu_token += 1;
        self.cpu_phases.insert(token, phase);
        let cpu = self.cpu;
        ctx.send_now(
            cpu,
            CpuJob {
                token,
                cost_ns: cost,
                tag,
                reply_to: ctx.self_id(),
            },
        );
    }

    fn on_send(&mut self, ctx: &mut Ctx<'_>, req: SendRequest) {
        let packets = req.len.div_ceil(self.config.mss as usize).max(1);
        let mut stack_ns = self.costs.net_tx_cost(self.config.mode, packets);
        if self.config.mode == KernelMode::Vanilla {
            // Stock kernel copies user data into socket buffers.
            stack_ns += self.costs.copy_cost(req.len);
        }
        let faulty = fault::active(ctx.world_ref());
        let key = (req.flow.src_port, req.flow.dst_port);
        let start_off = if faulty {
            let off = self.tx_offset.entry(key).or_insert(0);
            let s = *off;
            *off += req.len as u64;
            s
        } else {
            0
        };
        let id = req.id;
        let tag = req.tag;
        // Zero-length sends carry no stream bytes to acknowledge; they
        // complete on transmit like in the fault-free path.
        let acked = !faulty || req.len == 0;
        if faulty && req.len > 0 {
            self.unacked.entry(key).or_default().push_back(id);
        }
        self.sends.insert(
            id,
            PendingSend {
                req,
                stack_ns,
                submitted_at: ctx.now(),
                descs_remaining: 0,
                start_off,
                attempts: 0,
                descs_done: false,
                acked,
            },
        );
        self.tx_submit_queue.push_back(id);
        self.cpu_job(ctx, stack_ns, tag, CpuPhase::TxSubmit);
    }

    fn submit_send(&mut self, ctx: &mut Ctx<'_>) {
        let id = self
            .tx_submit_queue
            .pop_front()
            .expect("a send awaited this CPU job");
        self.sends.get_mut(&id).expect("live send").submitted_at = ctx.now();
        self.push_send_descs(ctx, id);
        if let Some(rc) = fault::recovery(ctx.world_ref()) {
            ctx.send_self_in(rc.nic_rto_ns, TxCheck { id });
        }
    }

    /// Stages the send's descriptors (splitting at the NIC's LSO limit,
    /// as real TSO does — one skb per 64 KiB by default) and rings the
    /// transmit doorbell.
    /// Also the retransmission path: re-pushing the same descriptors
    /// replays the same frames, which the receiver deduplicates by
    /// stream offset.
    fn push_send_descs(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        let lso_max = self.nic.max_lso;
        let (flow, seq0, ack0, payload_addr, len) = {
            let s = &self.sends[&id];
            (
                s.req.flow,
                s.req.seq,
                s.start_off as u32,
                s.req.payload_addr,
                s.req.len,
            )
        };
        let chunks: Vec<(u64, usize)> = if len == 0 {
            vec![(0, 0)]
        } else {
            (0..len)
                .step_by(lso_max)
                .map(|off| (off as u64, lso_max.min(len - off)))
                .collect()
        };
        self.sends.get_mut(&id).expect("live send").descs_remaining += chunks.len();
        for (off, chunk_len) in chunks {
            // The `ack` field carries the absolute stream offset; the NIC
            // advances it per LSO segment alongside the sequence number.
            let template = build_template(
                &flow,
                seq0.wrapping_add(off as u32),
                ack0.wrapping_add(off as u32),
            );
            let hdr_addr = self.hdr_area + (self.hdr_slot % 2048) * 64;
            self.hdr_slot += 1;
            let desc = SendDescriptor {
                header_addr: hdr_addr,
                header_len: template.len() as u16,
                payload_addr: payload_addr + off,
                payload_len: chunk_len as u32,
                mss: self.config.mss,
                cookie: id as u32,
            };
            let mem = ctx.world().expect_mut::<PhysMemory>();
            mem.write(hdr_addr, &template);
            self.send_ring.push(mem, &desc.to_bytes());
            self.tx_queue.push_back(id);
        }
        let tail = self.send_ring.tail();
        let db = self.nic.tx_doorbell();
        let fabric = self.fabric;
        ctx.send_now(
            fabric,
            MmioWrite {
                addr: db,
                data: (tail as u32).to_le_bytes().to_vec(),
            },
        );
    }

    fn on_tx_msi(&mut self, ctx: &mut Ctx<'_>) {
        // NIC completes sends in submission order. A stale MSI (its send
        // already force-completed or failed by the fault machinery) is
        // ignored.
        let Some(&id) = self.tx_queue.front() else {
            return;
        };
        let tag = self.sends.get(&id).map(|s| s.req.tag).unwrap_or("net-rx");
        let cost = self.costs.irq_entry_ns + self.costs.completion_path_ns;
        self.cpu_job(ctx, cost, tag, CpuPhase::TxComplete);
    }

    fn finish_send(&mut self, ctx: &mut Ctx<'_>) {
        let Some(id) = self.tx_queue.pop_front() else {
            return;
        };
        let Some(s) = self.sends.get_mut(&id) else {
            return;
        };
        s.descs_remaining -= 1;
        if s.descs_remaining > 0 {
            return;
        }
        s.descs_done = true;
        self.try_complete_send(ctx, id);
    }

    /// Completes a send once both its descriptors have left the adapter
    /// and (in fault mode) the peer has acknowledged the payload.
    fn try_complete_send(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        let ready = {
            let s = &self.sends[&id];
            s.descs_done && s.acked
        };
        if !ready {
            return;
        }
        let s = self.sends.remove(&id).expect("live send");
        let key = (s.req.flow.src_port, s.req.flow.dst_port);
        if let Some(q) = self.unacked.get_mut(&key) {
            q.retain(|&u| u != id);
        }
        let mut breakdown = Breakdown::new();
        breakdown.add(Category::NetworkStack, s.stack_ns);
        // Wire/device time: doorbell to MSI, minus the completion path we
        // just charged.
        let wire_time = (ctx.now() - s.submitted_at)
            .saturating_sub(self.costs.irq_entry_ns + self.costs.completion_path_ns);
        breakdown.add(Category::Wire, wire_time);
        breakdown.add(
            Category::RequestCompletion,
            self.costs.irq_entry_ns + self.costs.completion_path_ns,
        );
        ctx.send_now(
            s.req.reply_to,
            SendDone {
                id,
                ok: true,
                breakdown,
            },
        );
    }

    /// A cumulative ack for the transmit direction keyed by the frame's
    /// reversed ports arrived: complete newly covered sends in order.
    fn on_ack(&mut self, ctx: &mut Ctx<'_>, flow: &TcpFlow, ack: u32) {
        let key = (flow.dst_port, flow.src_port);
        let acked = self.snd_acked.entry(key).or_insert(0);
        // Stream offsets in this model stay far below 4 GiB per flow, so
        // the 32-bit ack is treated as absolute.
        *acked = (*acked).max(ack as u64);
        let acked = *acked;
        while let Some(&id) = self.unacked.get(&key).and_then(|q| q.front()) {
            match self.sends.get_mut(&id) {
                None => {
                    self.unacked
                        .get_mut(&key)
                        .expect("queue exists")
                        .pop_front();
                }
                Some(s) if s.start_off + s.req.len as u64 <= acked => {
                    if s.attempts > 0 {
                        fault::recovered(ctx.world(), fault::WIRE_DROP);
                    }
                    s.acked = true;
                    self.unacked
                        .get_mut(&key)
                        .expect("queue exists")
                        .pop_front();
                    self.try_complete_send(ctx, id);
                }
                Some(_) => break,
            }
        }
    }

    /// Retransmission-timeout check: retransmit the send's descriptors
    /// with exponential backoff until acknowledged or the budget runs
    /// out; also force-completes an acknowledged send whose transmit
    /// MSI was lost.
    fn on_tx_check(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        let Some(rc) = fault::recovery(ctx.world_ref()) else {
            return;
        };
        let retry = match self.sends.get_mut(&id) {
            None => return, // completed or failed
            Some(s) if s.acked => {
                if !s.descs_done {
                    // Data acknowledged but a transmit-completion MSI
                    // never arrived: resynchronize and complete.
                    s.descs_done = true;
                    s.descs_remaining = 0;
                    self.tx_queue.retain(|&q| q != id);
                    fault::recovered(ctx.world(), fault::MSI_LOSS);
                    self.try_complete_send(ctx, id);
                }
                return;
            }
            Some(s) if s.attempts < rc.nic_retries => {
                s.attempts += 1;
                true
            }
            Some(_) => false,
        };
        if retry {
            fault::retried(ctx.world(), fault::WIRE_DROP);
            ctx.world().stats.counter("nic.retransmits").add(1);
            self.push_send_descs(ctx, id);
            let attempts = self.sends[&id].attempts;
            let backoff = rc.nic_rto_ns << attempts.min(10);
            ctx.send_self_in(backoff, TxCheck { id });
        } else {
            fault::exhausted(ctx.world(), fault::WIRE_DROP);
            self.fail_send(ctx, id);
        }
    }

    fn fail_send(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        let Some(s) = self.sends.remove(&id) else {
            // A stale timer can race a completion that already retired
            // the send; failing twice would double-complete the job.
            ctx.world().stats.counter("nic.stale_fails").add(1);
            return;
        };
        let key = (s.req.flow.src_port, s.req.flow.dst_port);
        if let Some(q) = self.unacked.get_mut(&key) {
            q.retain(|&u| u != id);
        }
        let mut breakdown = Breakdown::new();
        breakdown.add(Category::NetworkStack, s.stack_ns);
        breakdown.add(Category::Wire, ctx.now() - s.submitted_at);
        ctx.send_now(
            s.req.reply_to,
            SendDone {
                id,
                ok: false,
                breakdown,
            },
        );
    }

    fn on_rx_msi(&mut self, ctx: &mut Ctx<'_>) {
        // Scan write-backs for newly landed frames.
        let faulty = fault::active(ctx.world_ref());
        let mut frames: Vec<(TcpFlow, u32, Vec<u8>)> = Vec::new();
        let depth = self.recv_ring_depth();
        loop {
            let wb_addr = self.wb_base + self.wb_next as u64 * RecvWriteback::SIZE as u64;
            let raw: [u8; RecvWriteback::SIZE] = {
                let mem = ctx.world_ref().expect::<PhysMemory>();
                mem.read(wb_addr, RecvWriteback::SIZE)
                    .try_into()
                    .expect("8 bytes")
            };
            let wb = RecvWriteback::from_bytes(&raw);
            if !wb.valid {
                break;
            }
            if !RecvWriteback::verify(&raw) {
                // Corrupted completion entry: nothing in it can be
                // trusted, so consume the slot and drop its frame
                // (go-back-N retransmission recovers the payload).
                // Detection here is the recovery for the write-back
                // corruption site — the entry never reached software.
                ctx.world()
                    .expect_mut::<PhysMemory>()
                    .write(wb_addr, &[0u8; 8]);
                self.wb_next = (self.wb_next + 1) % depth;
                self.consumed_since_repost += 1;
                ctx.world().stats.counter("nic.drv_bad_writebacks").add(1);
                fault::recovered(ctx.world(), fault::CPL_CORRUPT);
                let now = ctx.now();
                dcs_pcie::aer::record(
                    ctx.world(),
                    now.as_nanos(),
                    self.wb_next as u64,
                    fault::CPL_CORRUPT,
                    dcs_pcie::AerKind::BadCompletionEntry,
                );
                continue;
            }
            let frame = {
                let mem = ctx.world_ref().expect::<PhysMemory>();
                let buf = self.recv_bufs + self.wb_next as u64 * 2048;
                // The checksum guarantees frame_len is the device's value;
                // the clamp is pure defense against future layout drift.
                mem.read(buf, (wb.frame_len as usize).min(2048))
            };
            // Clear the write-back so the slot can be reused.
            ctx.world()
                .expect_mut::<PhysMemory>()
                .write(wb_addr, &[0u8; 8]);
            self.wb_next = (self.wb_next + 1) % depth;
            self.consumed_since_repost += 1;
            match parse_frame(&frame) {
                Ok(parsed) => {
                    if faulty && parsed.payload_len == 0 && parsed.seq == ACK_MAGIC {
                        // Pure protocol ACK: cheap driver work, handled
                        // outside the per-batch CPU charge.
                        let flow = parsed.flow;
                        let ack = parsed.ack;
                        self.on_ack(ctx, &flow, ack);
                        continue;
                    }
                    let payload = frame
                        [parsed.payload_offset..parsed.payload_offset + parsed.payload_len]
                        .to_vec();
                    frames.push((parsed.flow, parsed.ack, payload));
                }
                Err(_) => {
                    // Checksum or framing failure (wire corruption): the
                    // stack drops the frame; the sender's retransmission
                    // timer recovers the data.
                    ctx.world().stats.counter("nic.rx_bad_frames").add(1);
                }
            }
        }
        // Repost consumed buffers in batches (ACK-only and corrupt
        // frames consume posted buffers too).
        if self.consumed_since_repost >= self.config.recv_buffers / 2 {
            let n = self.consumed_since_repost;
            self.consumed_since_repost = 0;
            self.post_recv_buffers(ctx, n);
        }
        if frames.is_empty() {
            return;
        }
        let packets = frames.len();
        let payload_bytes: usize = frames.iter().map(|(_, _, p)| p.len()).sum();
        let stack_ns = self.costs.net_rx_cost(self.config.mode, packets);
        // Gather copy: payload bytes moved from frame buffers into the
        // consumer's contiguous buffer (and in vanilla mode, again to user
        // space).
        let mut copy_ns = self.costs.copy_cost(payload_bytes);
        if self.config.mode == KernelMode::Vanilla {
            copy_ns *= 2;
        }
        let tag = self
            .expectations
            .first()
            .map(|e| e.req.tag)
            .unwrap_or("net-rx");
        self.cpu_job(
            ctx,
            stack_ns + copy_ns,
            tag,
            CpuPhase::RxBatch {
                frames,
                copy_ns,
                stack_ns,
            },
        );
    }

    fn recv_ring_depth(&self) -> u16 {
        self.config.recv_buffers + 1
    }

    fn deliver_frames(
        &mut self,
        ctx: &mut Ctx<'_>,
        frames: Vec<(TcpFlow, u32, Vec<u8>)>,
        copy_ns: u64,
        stack_ns: u64,
    ) {
        // Amortize the batch's CPU time across delivered bytes when
        // attributing to expectations.
        let faulty = fault::active(ctx.world_ref());
        let total_bytes: usize = frames.iter().map(|(_, _, p)| p.len()).sum::<usize>().max(1);
        // Flows that need a (coalesced) ack after this batch.
        let mut ack_flows: DetMap<(u16, u16), TcpFlow> = DetMap::new();
        for (flow, ack, payload) in frames {
            let key = (flow.src_port, flow.dst_port);
            if faulty {
                ack_flows.insert(key, flow);
                let count = self.rcv_count.entry(key).or_insert(0);
                if ack as u64 != *count {
                    // A duplicate (already accepted, the ack got lost) or
                    // a gap (an earlier frame dropped): discard and
                    // re-ack; the sender's go-back-N replay fills gaps.
                    let c = if (ack as u64) < *count {
                        "nic.rx_duplicate_frames"
                    } else {
                        "nic.rx_out_of_order"
                    };
                    ctx.world().stats.counter(c).add(1);
                    continue;
                }
                *count += payload.len() as u64;
            }
            self.early.entry(key).or_default().extend(payload);
        }
        // Sorted: hash-map iteration order must never reach the event
        // sequence (seed reproducibility).
        let mut ack_flows: Vec<((u16, u16), TcpFlow)> = ack_flows.into_iter().collect();
        ack_flows.sort_unstable_by_key(|(k, _)| *k);
        for (key, flow) in ack_flows {
            let count = self.rcv_count.get(&key).copied().unwrap_or(0);
            let ack_frame = build_frame(&flow.reversed(), ACK_MAGIC, count as u32, &[]);
            let nic = self.nic.device;
            ctx.send_now(nic, ControlFrame { frame: ack_frame });
        }
        // Satisfy expectations greedily, in registration order. An
        // expectation names the connection by the *local* flow (the
        // direction this node transmits on); arriving frames carry the
        // peer's direction, so the lookup key is reversed.
        let mut done = Vec::new();
        for (i, e) in self.expectations.iter_mut().enumerate() {
            let key = (e.req.flow.dst_port, e.req.flow.src_port);
            let Some(buf) = self.early.get_mut(&key) else {
                continue;
            };
            if buf.is_empty() {
                continue;
            }
            let want = e.req.len - e.received;
            let take = want.min(buf.len());
            ctx.world().expect_mut::<PhysMemory>().write_front(
                e.req.into + e.received as u64,
                buf,
                take,
            );
            e.received += take;
            e.stack_ns += stack_ns * take as u64 / total_bytes as u64;
            e.copy_ns += copy_ns * take as u64 / total_bytes as u64;
            if e.received == e.req.len {
                done.push(i);
            }
        }
        for i in done.into_iter().rev() {
            let e = self.expectations.remove(i);
            let mut breakdown = Breakdown::new();
            breakdown.add(Category::NetworkStack, e.stack_ns);
            breakdown.add(Category::DataCopy, e.copy_ns);
            breakdown.add(
                Category::Wire,
                (ctx.now() - e.started_at).saturating_sub(e.stack_ns + e.copy_ns),
            );
            ctx.send_now(
                e.req.reply_to,
                RecvDone {
                    id: e.req.id,
                    ok: true,
                    breakdown,
                },
            );
        }
    }

    /// Progress check for a receive expectation: re-arms while bytes are
    /// still arriving, abandons the expectation after a full timeout
    /// with no progress (the peer's retry budget ran out).
    fn on_rx_check(&mut self, ctx: &mut Ctx<'_>, id: u64, last_received: usize) {
        let Some(rc) = fault::recovery(ctx.world_ref()) else {
            return;
        };
        let Some(pos) = self.expectations.iter().position(|e| e.req.id == id) else {
            return;
        };
        let received = self.expectations[pos].received;
        if received > last_received {
            ctx.send_self_in(
                rc.op_timeout_ns,
                RxCheck {
                    id,
                    last_received: received,
                },
            );
            return;
        }
        let e = self.expectations.remove(pos);
        fault::exhausted(ctx.world(), fault::WIRE_DROP);
        ctx.world().stats.counter("nic.rx_expect_timeouts").add(1);
        let mut breakdown = Breakdown::new();
        breakdown.add(Category::NetworkStack, e.stack_ns);
        breakdown.add(Category::DataCopy, e.copy_ns);
        breakdown.add(
            Category::Wire,
            (ctx.now() - e.started_at).saturating_sub(e.stack_ns + e.copy_ns),
        );
        ctx.send_now(
            e.req.reply_to,
            RecvDone {
                id: e.req.id,
                ok: false,
                breakdown,
            },
        );
    }
}

/// One-time driver start: post receive buffers.
#[derive(Debug, Clone, Copy)]
pub struct StartNicDriver;

impl Component for HostNicDriver {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<StartNicDriver>() {
            Ok(StartNicDriver) => {
                let n = self.config.recv_buffers;
                self.post_recv_buffers(ctx, n);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<SendRequest>() {
            Ok(req) => {
                self.on_send(ctx, req);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RecvExpect>() {
            Ok(req) => {
                let id = req.id;
                self.expectations.push(Expectation {
                    req,
                    received: 0,
                    stack_ns: 0,
                    copy_ns: 0,
                    started_at: ctx.now(),
                });
                if let Some(rc) = fault::recovery(ctx.world_ref()) {
                    ctx.send_self_in(
                        rc.op_timeout_ns,
                        RxCheck {
                            id,
                            last_received: 0,
                        },
                    );
                }
                // Data may already be waiting.
                self.deliver_frames(ctx, vec![], 0, 0);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<CpuJobDone>() {
            Ok(done) => {
                match self.cpu_phases.remove(&done.token).expect("live cpu phase") {
                    CpuPhase::TxSubmit => self.submit_send(ctx),
                    CpuPhase::TxComplete => self.finish_send(ctx),
                    CpuPhase::RxBatch {
                        frames,
                        copy_ns,
                        stack_ns,
                    } => self.deliver_frames(ctx, frames, copy_ns, stack_ns),
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<TxCheck>() {
            Ok(check) => {
                self.on_tx_check(ctx, check.id);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RxCheck>() {
            Ok(check) => {
                self.on_rx_check(ctx, check.id, check.last_received);
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<MsiDelivery>() {
            Ok(d) => match d.vector {
                0x20 => self.on_tx_msi(ctx),
                0x21 => self.on_rx_msi(ctx),
                v => panic!("unexpected MSI vector {v:#x}"),
            },
            Err(other) => panic!("HostNicDriver received unexpected message: {other:?}"),
        }
    }
}
