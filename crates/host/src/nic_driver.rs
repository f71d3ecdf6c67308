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
//! a bounded budget (the shared ladder, [`dcs_nic::SendLadder`] and
//! [`dcs_nic::stalled`]). Frames that fail checksum validation are
//! dropped and counted rather than panicking. Without a plan none of
//! this runs and the event stream is identical to the fault-free
//! simulator.

use std::collections::VecDeque;

use dcs_nic::{
    stalled, ConfigureNic, GoBackN, NicHandle, NicInitiator, RxEvent, RxFrame, RxOrder, SendLadder,
    SendRung, TcpFlow, Transmit, MSS,
};
use dcs_pcie::{AddrRange, MsiDelivery, PhysAddr, PhysMemory};
use dcs_sim::{fault, Category, Component, ComponentId, Ctx, DetMap, Msg, SimTime};

use crate::costs::{self, KernelMode};
use crate::cpu::{CpuJob, CpuJobDone};
use crate::job::OpDone;

/// Number of 2 KiB receive buffers kept posted.
pub const RECV_BUFFERS: u16 = 512;

/// Transmit `len` payload bytes at `payload_addr` on `flow`.
#[derive(Debug, Clone)]
pub struct SendRequest {
    /// Requester-chosen identifier echoed in [`OpDone`].
    pub id: u64,
    /// The D2D job this send serves: its anatomy takes the phases.
    pub job: u64,
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

/// Ask the driver to accumulate `len` received payload bytes of `flow`
/// into `into` (contiguous).
#[derive(Debug, Clone)]
pub struct RecvExpect {
    /// Requester-chosen identifier echoed in [`OpDone`].
    pub id: u64,
    /// The D2D job this receive serves: its anatomy takes the phases.
    pub job: u64,
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

struct PendingSend {
    req: SendRequest,
    /// Transmit descriptors still outstanding (large sends split at the
    /// LSO limit).
    descs_remaining: usize,
    /// Absolute per-flow stream offset of this send's first byte
    /// (fault mode; zero otherwise).
    start_off: u64,
    /// Retransmissions, transmit MSIs and the peer's ack (acked from the
    /// start outside fault mode and for zero-length sends).
    ladder: SendLadder,
}

struct Expectation {
    req: RecvExpect,
    received: usize,
    /// Network-stack and gather-copy CPU time charged to this receive
    /// (its share of each batch that delivered bytes to it).
    stack_ns: u64,
    copy_ns: u64,
    /// Last time bytes landed (fault mode abandons stalled receives).
    last_progress: SimTime,
}

enum CpuPhase {
    TxSubmit,
    RxBatch {
        frames: Vec<RxFrame>,
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
}

/// The driver component. One instance drives one NIC.
pub struct HostNicDriver {
    cpu: ComponentId,
    /// Kernel mode (vanilla pays socket-buffer and extra copy costs).
    mode: KernelMode,
    nic: NicInitiator,
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
    /// Fault mode: go-back-N streams keyed `(src_port, dst_port)` as the
    /// frames carry them (receive keys are the peer's transmit direction).
    gbn: GoBackN<(u16, u16)>,
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
        nic: NicHandle,
        mode: KernelMode,
        area: AddrRange,
        msi_addr: PhysAddr,
    ) -> (Self, ConfigureNic) {
        let send_base = area.start;
        let recv_base = area.start + 0x10000;
        let wb_base = area.start + 0x20000;
        let hdr_area = area.start + 0x30000;
        let recv_bufs = area.start + 0x100000;
        let recv_depth = RECV_BUFFERS + 1;
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
            mode,
            nic: NicInitiator::new(nic, configure, recv_bufs, hdr_area),
            tx_queue: VecDeque::new(),
            tx_submit_queue: VecDeque::new(),
            sends: DetMap::new(),
            expectations: Vec::new(),
            early: DetMap::new(),
            cpu_phases: DetMap::new(),
            next_cpu_token: 1,
            gbn: GoBackN::default(),
            unacked: DetMap::new(),
        };
        (driver, configure)
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
        let packets = req.len.div_ceil(usize::from(MSS)).max(1);
        let mut stack_ns = costs::net_tx_cost(self.mode, packets);
        if self.mode == KernelMode::Vanilla {
            // Stock kernel copies user data into socket buffers.
            stack_ns += costs::copy_cost(req.len);
        }
        let faulty = fault::active(ctx.world_ref());
        let key = (req.flow.src_port, req.flow.dst_port);
        let start_off = if faulty {
            self.gbn.reserve(key, req.len)
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
                descs_remaining: 0,
                start_off,
                ladder: SendLadder::new(ctx.now(), acked),
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
        let s = self.sends.get_mut(&id).expect("live send");
        s.ladder.last_attempt = ctx.now();
        ctx.mark(s.req.job, Category::NetworkStack);
        let rto = s.ladder.rto_ns();
        self.push_send_descs(ctx, id);
        if fault::active(ctx.world_ref()) {
            ctx.send_self_in(rto, TxCheck { id });
        }
    }

    /// Stages the send's descriptors (split at the NIC's LSO limit, as
    /// real TSO does) and rings the transmit doorbell. Also the
    /// retransmission path: re-pushing the same descriptors replays the
    /// same frames, which the receiver deduplicates by stream offset.
    fn push_send_descs(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        let s = &self.sends[&id];
        let tx = Transmit {
            flow: s.req.flow,
            seq: s.req.seq,
            stream_off: s.start_off,
            payload: s.req.payload_addr,
            len: s.req.len,
            cookie: id as u32,
        };
        let (descs, doorbell) = self
            .nic
            .push_send(ctx.world().expect_mut::<PhysMemory>(), &tx);
        self.sends.get_mut(&id).expect("live send").descs_remaining += descs;
        self.tx_queue.extend(std::iter::repeat_n(id, descs));
        dcs_pcie::mmio_write(ctx, 0, doorbell);
    }

    fn on_tx_msi(&mut self, ctx: &mut Ctx<'_>) {
        // NIC completes sends in submission order. A stale MSI (its send
        // already force-completed or failed by the fault machinery) is
        // ignored.
        let Some(&id) = self.tx_queue.front() else {
            return;
        };
        let tag = self.sends.get(&id).map(|s| s.req.tag).unwrap_or("net-rx");
        let cost = costs::IRQ_ENTRY_NS + costs::COMPLETION_PATH_NS;
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
        s.ladder.descs_done = true;
        self.try_complete_send(ctx, id);
    }

    /// Completes a send once both its descriptors have left the adapter
    /// and (in fault mode) the peer has acknowledged the payload.
    fn try_complete_send(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        let SendLadder {
            descs_done, acked, ..
        } = self.sends[&id].ladder;
        if !(descs_done && acked) {
            return;
        }
        let s = self.sends.remove(&id).expect("live send");
        let key = (s.req.flow.src_port, s.req.flow.dst_port);
        if let Some(q) = self.unacked.get_mut(&key) {
            q.retain(|&u| u != id);
        }
        // Wire/device time runs from the doorbell to the MSI, followed
        // by the completion path just charged.
        let now = ctx.now();
        let obs = &mut ctx.world().obs;
        let completion = costs::IRQ_ENTRY_NS + costs::COMPLETION_PATH_NS;
        obs.mark(s.req.job, Category::Wire, now - completion);
        obs.mark(s.req.job, Category::RequestCompletion, now);
        ctx.send_now(s.req.reply_to, OpDone { id, ok: true });
    }

    /// A cumulative ack for the transmit direction keyed by the frame's
    /// reversed ports arrived: complete newly covered sends in order.
    fn on_ack(&mut self, ctx: &mut Ctx<'_>, flow: &TcpFlow, ack: u32) {
        let key = (flow.dst_port, flow.src_port);
        let acked = self.gbn.on_ack(key, ack);
        while let Some(&id) = self.unacked.get(&key).and_then(|q| q.front()) {
            match self.sends.get_mut(&id) {
                None => {
                    self.unacked
                        .get_mut(&key)
                        .expect("queue exists")
                        .pop_front();
                }
                Some(s) if s.start_off + s.req.len as u64 <= acked => {
                    if s.ladder.attempts > 0 {
                        fault::recovered(ctx.world(), fault::WIRE_DROP);
                    }
                    s.ladder.acked = true;
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

    /// Retransmission-timeout check: takes the send ladder's next rung —
    /// force-complete an acknowledged send whose transmit MSI was lost,
    /// retransmit with exponential backoff, or fail once the budget runs
    /// out.
    fn on_tx_check(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        let (Some(rc), Some(s)) = (fault::recovery(ctx.world_ref()), self.sends.get_mut(&id))
        else {
            return; // fault-free, or the send completed or failed
        };
        match s.ladder.rung(ctx.now(), &rc) {
            SendRung::Wait => {
                let rto = s.ladder.rto_ns();
                ctx.send_self_in(rto, TxCheck { id });
            }
            SendRung::Complete => {
                // Data acknowledged but a transmit-completion MSI never
                // arrived: resynchronize and complete.
                s.ladder.descs_done = true;
                s.descs_remaining = 0;
                self.tx_queue.retain(|&q| q != id);
                fault::recovered(ctx.world(), fault::MSI_LOSS);
                self.try_complete_send(ctx, id);
            }
            SendRung::Retransmit => {
                let backoff = s.ladder.retransmit(ctx.now());
                fault::retried(ctx.world(), fault::WIRE_DROP);
                ctx.world().stats.counter("nic.retransmits").add(1);
                self.push_send_descs(ctx, id);
                ctx.send_self_in(backoff, TxCheck { id });
            }
            SendRung::Fail => {
                fault::exhausted(ctx.world(), fault::WIRE_DROP);
                self.fail_send(ctx, id);
            }
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
        ctx.mark(s.req.job, Category::Wire);
        ctx.send_now(s.req.reply_to, OpDone { id, ok: false });
    }

    fn on_rx_msi(&mut self, ctx: &mut Ctx<'_>) {
        // Scan write-backs for newly landed frames.
        let faulty = fault::active(ctx.world_ref());
        let now = ctx.now();
        let scan = self.nic.scan(ctx.world(), now);
        let mut frames = Vec::new();
        for event in scan.events {
            match event {
                // Detection is the recovery for the write-back corruption
                // site: the frame is dropped and go-back-N retransmission
                // recovers the payload.
                RxEvent::BadWriteback { .. } => {
                    ctx.world().stats.counter("nic.drv_bad_writebacks").add(1);
                }
                // Checksum or framing failure (wire corruption): the
                // stack drops the frame; the sender's retransmission
                // timer recovers the data.
                RxEvent::BadFrame => ctx.world().stats.counter("nic.rx_bad_frames").add(1),
                // Pure protocol ACK: cheap driver work, handled outside
                // the per-batch CPU charge.
                RxEvent::Frame(f) => match f.pure_ack() {
                    Some(ack) if faulty => self.on_ack(ctx, &f.flow, ack),
                    _ => frames.push(f),
                },
            }
        }
        // Reposts cover ACK-only and corrupt frames too: they consume
        // posted buffers as well.
        if let Some(doorbell) = scan.repost {
            dcs_pcie::mmio_write(ctx, 0, doorbell);
        }
        if frames.is_empty() {
            return;
        }
        let packets = frames.len();
        let payload_bytes: usize = frames.iter().map(|f| f.payload.len()).sum();
        let stack_ns = costs::net_rx_cost(self.mode, packets);
        // Gather copy: payload bytes moved from frame buffers into the
        // consumer's contiguous buffer (and in vanilla mode, again to user
        // space).
        let mut copy_ns = costs::copy_cost(payload_bytes);
        if self.mode == KernelMode::Vanilla {
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

    fn deliver_frames(
        &mut self,
        ctx: &mut Ctx<'_>,
        frames: Vec<RxFrame>,
        copy_ns: u64,
        stack_ns: u64,
    ) {
        // Amortize the batch's CPU time across delivered bytes when
        // attributing to expectations.
        let faulty = fault::active(ctx.world_ref());
        let total_bytes: usize = frames.iter().map(|f| f.payload.len()).sum::<usize>().max(1);
        for f in frames {
            let key = (f.flow.src_port, f.flow.dst_port);
            if faulty {
                // A duplicate (already accepted, the ack got lost) or a
                // gap (an earlier frame dropped) is discarded and re-acked;
                // the sender's go-back-N replay fills gaps.
                let c = match self.gbn.accept(key, &f) {
                    RxOrder::InOrder => None,
                    RxOrder::Duplicate => Some("nic.rx_duplicate_frames"),
                    RxOrder::Gap => Some("nic.rx_out_of_order"),
                };
                if let Some(c) = c {
                    ctx.world().stats.counter(c).add(1);
                    continue;
                }
            }
            self.early.entry(key).or_default().extend(f.payload);
        }
        for ack in self.gbn.take_acks() {
            ctx.send_now(self.nic.device(), ack);
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
            e.last_progress = ctx.now();
            e.stack_ns += stack_ns * take as u64 / total_bytes as u64;
            e.copy_ns += copy_ns * take as u64 / total_bytes as u64;
            if e.received == e.req.len {
                done.push(i);
            }
        }
        for i in done.into_iter().rev() {
            let e = self.expectations.remove(i);
            finish_recv(ctx, &e, true);
        }
    }

    /// Progress check for a receive expectation: re-arms while bytes are
    /// still arriving, abandons the expectation once the receive ladder
    /// finds it stalled (the peer's retry budget ran out).
    fn on_rx_check(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        let Some(pos) = self.expectations.iter().position(|e| e.req.id == id) else {
            return;
        };
        let limit = rx_limit_ns(ctx);
        if !stalled(ctx.now() - self.expectations[pos].last_progress, limit) {
            ctx.send_self_in(limit, RxCheck { id });
            return;
        }
        let e = self.expectations.remove(pos);
        fault::exhausted(ctx.world(), fault::WIRE_DROP);
        ctx.world().stats.counter("nic.rx_expect_timeouts").add(1);
        finish_recv(ctx, &e, false);
    }
}

/// How long a receive may land no bytes before it counts as stalled:
/// the NVMe ladder's worst case, since flash may feed the sender.
fn rx_limit_ns(ctx: &Ctx<'_>) -> u64 {
    fault::recovery(ctx.world_ref())
        .map_or(fault::OP_TIMEOUT_NS, |rc| dcs_nvme::ladder_bound_ns(&rc))
}

/// Completes a receive expectation. Its bytes were on the wire until the
/// last batch's CPU work, which ran network stack then gather copy.
fn finish_recv(ctx: &mut Ctx<'_>, e: &Expectation, ok: bool) {
    let now = ctx.now();
    let obs = &mut ctx.world().obs;
    let job = e.req.job;
    obs.mark(job, Category::Wire, now - (e.stack_ns + e.copy_ns));
    obs.mark(job, Category::NetworkStack, now - e.copy_ns);
    obs.mark(job, Category::DataCopy, now);
    ctx.send_now(e.req.reply_to, OpDone { id: e.req.id, ok });
}

/// One-time driver start: post receive buffers.
#[derive(Debug, Clone, Copy)]
pub struct StartNicDriver;

impl Component for HostNicDriver {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<StartNicDriver>() {
            Ok(StartNicDriver) => {
                let n = RECV_BUFFERS;
                let doorbell = self
                    .nic
                    .post_recv_buffers(ctx.world().expect_mut::<PhysMemory>(), n);
                dcs_pcie::mmio_write(ctx, 0, doorbell);
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
                    last_progress: ctx.now(),
                });
                if fault::active(ctx.world_ref()) {
                    ctx.send_self_in(rx_limit_ns(ctx), RxCheck { id });
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
                self.on_rx_check(ctx, check.id);
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
