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
//! The transport — the send table, acks, go-back-N under a
//! [`dcs_sim::FaultPlan`], the early-byte buffer, the receive list and
//! the stall tests — is one [`dcs_nic::Transport`], the type the HDC
//! Engine runs too. The driver keys it by port pair and keeps only its
//! CPU costs (a receive's share of each batch's stack and copy time),
//! its per-send `TxCheck` and per-receive `RxCheck` timers (armed only
//! under a plan, so fault-free runs schedule no extra events), its
//! anatomy marks and its `nic.*` counter names.

use std::collections::VecDeque;

use dcs_nic::{
    ConfigureNic, Counters, NicHandle, RecvCheck, RxFrame, SendCheck, TcpFlow, Transmit, Transport,
    TxIrq, MSS,
};
use dcs_pcie::{AddrRange, MsiDelivery, PhysAddr, PhysMemory};
use dcs_sim::{fault, Category, Component, ComponentId, Ctx, DetMap, Msg};

use crate::costs::{self, KernelMode};
use crate::cpu::{CpuJob, CpuJobDone};
use crate::job::OpDone;

/// Number of 2 KiB receive buffers kept posted.
pub const RECV_BUFFERS: u16 = 512;

/// The counters the driver's transport reports under.
const NIC_COUNTERS: Counters = Counters {
    bad_writebacks: "nic.drv_bad_writebacks",
    bad_frames: "nic.rx_bad_frames",
    duplicates: "nic.rx_duplicate_frames",
    out_of_order: "nic.rx_out_of_order",
    retransmits: "nic.retransmits",
    recv_timeouts: "nic.rx_expect_timeouts",
};

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

/// What the driver keeps with each send and receive in its transport.
struct Op {
    job: u64,
    tag: &'static str,
    reply_to: ComponentId,
    /// Network-stack and gather-copy CPU time charged to a receive (its
    /// share of each batch that delivered bytes to it).
    stack_ns: u64,
    copy_ns: u64,
}

impl Op {
    fn new(job: u64, tag: &'static str, reply_to: ComponentId) -> Op {
        Op {
            job,
            tag,
            reply_to,
            stack_ns: 0,
            copy_ns: 0,
        }
    }
}

enum CpuPhase {
    TxSubmit,
    RxBatch {
        frames: Vec<RxFrame>,
        faulty: bool,
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
    /// The NIC transport: streams keyed `(src_port, dst_port)` as the
    /// frames carry them (a receive's key is the peer's transmit
    /// direction), sends and receives by request id.
    nic: Transport<(u16, u16), u64, Op>,
    /// Sends awaiting their submit CPU job.
    tx_submit_queue: VecDeque<SendRequest>,
    cpu_phases: DetMap<u64, CpuPhase>,
    next_cpu_token: u64,
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
            nic: Transport::new(nic, configure, recv_bufs, hdr_area, NIC_COUNTERS),
            tx_submit_queue: VecDeque::new(),
            cpu_phases: DetMap::new(),
            next_cpu_token: 1,
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
        let tag = req.tag;
        self.tx_submit_queue.push_back(req);
        self.cpu_job(ctx, stack_ns, tag, CpuPhase::TxSubmit);
    }

    /// Stages the send's descriptors (split at the NIC's LSO limit, as
    /// real TSO does) and rings the transmit doorbell.
    fn submit_send(&mut self, ctx: &mut Ctx<'_>) {
        let req = self
            .tx_submit_queue
            .pop_front()
            .expect("a send awaited this CPU job");
        ctx.mark(req.job, Category::NetworkStack);
        let (id, now) = (req.id, ctx.now());
        let tx = Transmit {
            flow: req.flow,
            seq: req.seq,
            payload: req.payload_addr,
            len: req.len,
            cookie: id as u32,
        };
        let key = (req.flow.src_port, req.flow.dst_port);
        let op = Op::new(req.job, req.tag, req.reply_to);
        let doorbell = self.nic.send(ctx.world(), now, id, key, tx, op);
        dcs_pcie::mmio_write(ctx, 0, doorbell);
        if fault::active(ctx.world_ref()) {
            ctx.send_self_in(fault::NIC_RTO_NS, TxCheck { id });
        }
    }

    fn on_tx_msi(&mut self, ctx: &mut Ctx<'_>) {
        // The NIC completes descriptors in submission order; an interrupt
        // with none outstanding costs nothing.
        let Some(op) = self.nic.tx_front() else {
            return;
        };
        let tag = op.map_or("net-rx", |op| op.tag);
        let cost = costs::IRQ_ENTRY_NS + costs::COMPLETION_PATH_NS;
        self.cpu_job(ctx, cost, tag, CpuPhase::TxComplete);
    }

    /// Retransmission-timeout check: takes the send ladder's next rung —
    /// force-complete an acknowledged send whose transmit MSI was lost,
    /// retransmit with exponential backoff, or fail once the budget runs
    /// out.
    fn on_tx_check(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        let Some(rc) = fault::recovery(ctx.world_ref()) else {
            return;
        };
        let now = ctx.now();
        match self.nic.check_send(ctx.world(), id, now, &rc) {
            // The send completed or failed already.
            None => {}
            Some(SendCheck::Wait(ns)) => ctx.send_self_in(ns, TxCheck { id }),
            Some(SendCheck::Complete(op)) => complete_send(ctx, id, &op),
            Some(SendCheck::Retransmit(doorbell, backoff)) => {
                dcs_pcie::mmio_write(ctx, 0, doorbell);
                ctx.send_self_in(backoff, TxCheck { id });
            }
            Some(SendCheck::Fail(op)) => {
                ctx.mark(op.job, Category::Wire);
                ctx.send_now(op.reply_to, OpDone { id, ok: false });
            }
        }
    }

    fn on_rx_msi(&mut self, ctx: &mut Ctx<'_>) {
        // Scan write-backs for newly landed frames. Pure protocol acks are
        // cheap driver work, handled outside the per-batch CPU charge.
        let now = ctx.now();
        let batch = self.nic.scan(ctx.world(), now);
        for a in &batch.acks {
            let key = (a.flow.dst_port, a.flow.src_port);
            for (id, op) in self.nic.on_ack(ctx.world(), key, a.ack) {
                complete_send(ctx, id, &op);
            }
        }
        // Reposts cover ACK-only and corrupt frames too: they consume
        // posted buffers as well.
        if let Some(doorbell) = batch.repost {
            dcs_pcie::mmio_write(ctx, 0, doorbell);
        }
        let frames = batch.frames;
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
        let tag = self.nic.first_recv().map_or("net-rx", |op| op.tag);
        self.cpu_job(
            ctx,
            stack_ns + copy_ns,
            tag,
            CpuPhase::RxBatch {
                frames,
                faulty: batch.faulty,
                copy_ns,
                stack_ns,
            },
        );
    }

    /// The batch's CPU work is done: its in-order bytes go to the
    /// receives, and the batch is acked.
    fn deliver_frames(
        &mut self,
        ctx: &mut Ctx<'_>,
        frames: Vec<RxFrame>,
        faulty: bool,
        copy_ns: u64,
        stack_ns: u64,
    ) {
        let total_bytes = frames.iter().map(|f| f.payload.len()).sum::<usize>().max(1);
        let (payloads, acks) = self.nic.accept(ctx.world(), faulty, frames, |_, f| {
            Some((f.src_port, f.dst_port))
        });
        for ack in acks {
            ctx.send_now(self.nic.device(), ack);
        }
        self.drain(ctx, payloads, stack_ns, copy_ns, total_bytes as u64);
    }

    /// Lands `payloads` and queued bytes in the receives, charging each
    /// its share of the batch's CPU time (amortized across the batch's
    /// `total_bytes`).
    fn drain(
        &mut self,
        ctx: &mut Ctx<'_>,
        payloads: Vec<((u16, u16), Vec<u8>)>,
        stack_ns: u64,
        copy_ns: u64,
        total_bytes: u64,
    ) {
        let now = ctx.now();
        let mem = ctx.world().expect_mut::<PhysMemory>();
        let filled = self.nic.drain(mem, now, payloads, |op, took| {
            op.stack_ns += stack_ns * took as u64 / total_bytes;
            op.copy_ns += copy_ns * took as u64 / total_bytes;
        });
        for (id, op) in filled {
            finish_recv(ctx, id, &op, true);
        }
    }

    /// Progress check for a receive: re-arms while bytes are still
    /// arriving, fails the receive once the transport finds it stalled
    /// (the peer's retry budget ran out).
    fn on_rx_check(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        let limit = rx_limit_ns(ctx);
        let now = ctx.now();
        match self.nic.check_recv(ctx.world(), id, now, limit) {
            // The receive completed already.
            None => {}
            Some(RecvCheck::Live) => ctx.send_self_in(limit, RxCheck { id }),
            Some(RecvCheck::Failed(op)) => finish_recv(ctx, id, &op, false),
        }
    }
}

/// How long a receive may land no bytes before it counts as stalled:
/// the NVMe ladder's worst case, since flash may feed the sender.
fn rx_limit_ns(ctx: &Ctx<'_>) -> u64 {
    fault::recovery(ctx.world_ref())
        .map_or(fault::OP_TIMEOUT_NS, |rc| dcs_nvme::ladder_bound_ns(&rc))
}

/// Completes a send. Wire/device time runs from the doorbell to the MSI,
/// followed by the completion path.
fn complete_send(ctx: &mut Ctx<'_>, id: u64, op: &Op) {
    let now = ctx.now();
    let obs = &mut ctx.world().obs;
    let completion = costs::IRQ_ENTRY_NS + costs::COMPLETION_PATH_NS;
    obs.mark(op.job, Category::Wire, now - completion);
    obs.mark(op.job, Category::RequestCompletion, now);
    ctx.send_now(op.reply_to, OpDone { id, ok: true });
}

/// Completes a receive. Its bytes were on the wire until the last
/// batch's CPU work, which ran network stack then gather copy.
fn finish_recv(ctx: &mut Ctx<'_>, id: u64, op: &Op, ok: bool) {
    let now = ctx.now();
    let obs = &mut ctx.world().obs;
    obs.mark(op.job, Category::Wire, now - (op.stack_ns + op.copy_ns));
    obs.mark(op.job, Category::NetworkStack, now - op.copy_ns);
    obs.mark(op.job, Category::DataCopy, now);
    ctx.send_now(op.reply_to, OpDone { id, ok });
}

/// One-time driver start: post receive buffers.
#[derive(Debug, Clone, Copy)]
pub struct StartNicDriver;

impl Component for HostNicDriver {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<StartNicDriver>() {
            Ok(StartNicDriver) => {
                let doorbell = self
                    .nic
                    .post_recv_buffers(ctx.world().expect_mut::<PhysMemory>());
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
                let key = (req.flow.dst_port, req.flow.src_port);
                let op = Op::new(req.job, req.tag, req.reply_to);
                let now = ctx.now();
                self.nic.open_recv(now, id, key, req.len, req.into, op);
                if fault::active(ctx.world_ref()) {
                    ctx.send_self_in(rx_limit_ns(ctx), RxCheck { id });
                }
                // Data may already be waiting.
                self.drain(ctx, Vec::new(), 0, 0, 1);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<CpuJobDone>() {
            Ok(done) => {
                match self.cpu_phases.remove(&done.token).expect("live cpu phase") {
                    CpuPhase::TxSubmit => self.submit_send(ctx),
                    CpuPhase::TxComplete => {
                        if let TxIrq::Complete(id, op) = self.nic.tx_irq() {
                            complete_send(ctx, id, &op);
                        }
                    }
                    CpuPhase::RxBatch {
                        frames,
                        faulty,
                        copy_ns,
                        stack_ns,
                    } => self.deliver_frames(ctx, frames, faulty, copy_ns, stack_ns),
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
