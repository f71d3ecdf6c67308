//! The HDC Engine component (§III, Figure 5; implementation §IV-C).
//!
//! One FPGA board on a PCIe slot that orchestrates every device involved
//! in a D2D command:
//!
//! * **Host interface** — a 64-entry command queue fed by 64-byte MMIO
//!   writes from the HDC Driver, a command parser, and an interrupt
//!   generator that DMA-writes completion records into a host ring and
//!   raises MSIs.
//! * **Scoreboard** — splits commands into device commands and schedules
//!   them (the [`Scoreboard`](crate::scoreboard) logic bound to simulated
//!   time).
//! * **Standard NVMe controller** — per-SSD submission/completion rings in
//!   FPGA BRAM; builds real NVMe commands with PRP lists pointing at the
//!   engine's DDR3, rings drive doorbells over PCIe P2P, consumes
//!   completions.
//! * **Standard NIC controller** — send/recv rings in BRAM, TCP/IP header
//!   generation from the registered connection table, LSO descriptors,
//!   packet-gathering logic that strips headers from received frames and
//!   lands payloads contiguously in DDR3 (§IV-C).
//! * **NDP units** — Table III banks executing real processing over the
//!   bytes in DDR3.
//!
//! The engine runs *no host software*: its only CPU interaction is the
//! driver's command write and the completion interrupt.

use std::collections::VecDeque;

use dcs_ndp::NdpFunction;
use dcs_nic::headers::{build_frame, build_template, parse_frame, ACK_MAGIC};
use dcs_nic::{
    ConfigureNic, ControlFrame, NicHandle, RecvDescriptor, RecvWriteback, RingWriter,
    SendDescriptor, TcpFlow,
};
use dcs_nvme::{
    AttachQueuePair, CompletionQueueReader, NvmeCommand, NvmeHandle, NvmeOpcode, PrpList,
    SubmissionQueueWriter, LBA_SIZE,
};
use dcs_pcie::{
    aer, AddrRange, DmaComplete, DmaRequest, MmioWrite, Msi, MsiDelivery, PhysAddr, PhysMemory,
    TlpClass,
};
use dcs_sim::{
    fault, Bandwidth, Breakdown, Category, Component, ComponentId, Ctx, DetMap, FifoServer, Msg,
    SimTime,
};

use crate::buffers::{ChunkAllocator, CHUNK_SIZE};
use crate::command::{CompletionRecord, D2dCommand, DevOpCode};
use crate::ndp_unit::NdpBank;
use crate::scoreboard::{ControllerClass, DevCmd, Scoreboard, SlotRef};

/// Engine hardware parameters.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Host-interface command parse latency, ns.
    pub cmd_parse_ns: u64,
    /// Scoreboard bookkeeping latency per issue/update, ns.
    pub scoreboard_step_ns: u64,
    /// Completion-record assembly latency, ns.
    pub completion_write_ns: u64,
    /// NDP functions instantiated (Table III banks).
    pub ndp_functions: Vec<NdpFunction>,
    /// Aggregate throughput target per NDP function (Table III sizes the
    /// banks for 10 Gbps; raise it to instantiate more units).
    pub ndp_target_gbps: f64,
    /// Issue limit per SSD controller.
    pub nvme_outstanding: usize,
    /// Issue limit for the NIC controller's transmit path.
    pub nic_outstanding: usize,
    /// DDR3 packet-gather copy bandwidth.
    pub gather_bandwidth: Bandwidth,
    /// Scoreboard command slots.
    pub scoreboard_slots: usize,
    /// Receive frame buffers posted to the NIC (2 KiB each, in DDR3).
    pub recv_buffers: u16,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cmd_parse_ns: 120,
            scoreboard_step_ns: 60,
            completion_write_ns: 100,
            ndp_functions: vec![
                NdpFunction::Md5,
                NdpFunction::Sha1,
                NdpFunction::Sha256,
                NdpFunction::Crc32,
                NdpFunction::Aes256Encrypt,
                NdpFunction::GzipCompress,
            ],
            ndp_target_gbps: 10.0,
            nvme_outstanding: 16,
            nic_outstanding: 8,
            gather_bandwidth: Bandwidth::gbps(51.2),
            scoreboard_slots: 64,
            recv_buffers: 1024,
        }
    }
}

/// Driver → engine: where to deliver completions.
#[derive(Debug, Clone, Copy)]
pub struct EngineInit {
    /// Completion ring base in host DRAM.
    pub completion_ring: PhysAddr,
    /// Ring depth in 64-byte records.
    pub completion_depth: u16,
    /// Driver MSI target.
    pub msi_addr: PhysAddr,
    /// Driver MSI vector.
    pub msi_vector: u32,
}

/// Driver → engine: register an established connection under an id
/// (§IV-B: the driver retrieves flow metadata from the kernel).
#[derive(Debug, Clone, Copy)]
pub struct RegisterConnection {
    /// Connection id referenced by D2D commands.
    pub conn: u16,
    /// The flow's 5-tuple + MACs.
    pub flow: TcpFlow,
    /// Initial transmit sequence number.
    pub seq: u32,
}

/// Out-of-band instrumentation: the engine's internal latency split for a
/// completed command (read by the driver to assemble Figure 11-style
/// breakdowns; not part of the architectural interface).
#[derive(Debug, Clone)]
pub struct EngineBreakdown {
    /// The D2D command id.
    pub id: u64,
    /// Per-category engine-side latency.
    pub breakdown: Breakdown,
}

/// Internal messages.
#[derive(Debug)]
struct AdmitCmd {
    cmd: D2dCommand,
}
#[derive(Debug)]
struct NdpDone {
    token: u64,
}
#[derive(Debug)]
struct HostReadDone {
    token: u64,
}
#[derive(Debug)]
struct GatherDone {
    frames: Vec<(u16, Vec<u8>)>,
}
/// Fault-recovery sweep timer (armed only while a `FaultPlan` is active).
#[derive(Debug)]
struct WatchdogTick;

/// An in-flight completion-record DMA, kept until the fabric confirms it
/// landed clean (a poisoned record is rewritten once from BRAM staging).
#[derive(Clone, Copy)]
struct CompDma {
    id: u64,
    src: PhysAddr,
    dst: PhysAddr,
    attempts: u8,
}

/// Per-command context.
struct CmdCtx {
    /// Buffers owned by the command (freed at completion).
    buffers: Vec<AddrRange>,
    /// Digest from the last digest NDP op.
    digest: Option<Vec<u8>>,
    /// Engine-side latency split.
    breakdown: Breakdown,
    /// Fixed scoreboard/interface overhead accumulated.
    scoreboard_ns: u64,
}

/// One outstanding NVMe sub-command (an MDTS chunk), with enough geometry
/// to resubmit it after a retryable media error.
#[derive(Clone, Copy)]
struct NvmeOp {
    at: SlotRef,
    issued_at: SimTime,
    is_write: bool,
    /// Absolute starting LBA of this chunk.
    lba: u64,
    /// Chunk length in bytes.
    len: usize,
    /// Chunk buffer address in DDR3.
    buf: PhysAddr,
    attempts: u32,
}

/// Engine-side NVMe controller state for one SSD.
struct EngineNvme {
    handle: NvmeHandle,
    sq: SubmissionQueueWriter,
    cq: CompletionQueueReader,
    prp_scratch: PhysAddr,
    outstanding: DetMap<u16, NvmeOp>,
    next_cid: u16,
    inflight: usize,
}

/// Engine-side NIC controller state.
struct EngineNic {
    handle: NicHandle,
    send_ring: RingWriter,
    recv_ring: RingWriter,
    wb_base: PhysAddr,
    recv_bufs: PhysAddr,
    hdr_area: PhysAddr,
    hdr_slot: u64,
    wb_next: u16,
    consumed_since_repost: u16,
    /// In-flight transmit descriptors in NIC completion order; the bool
    /// marks the last descriptor of its scoreboard entry.
    tx_fifo: VecDeque<(SlotRef, SimTime, bool)>,
    inflight_tx: usize,
}

/// A pending receive expectation.
struct RecvExpectation {
    at: SlotRef,
    conn: u16,
    len: usize,
    buf: PhysAddr,
    received: usize,
    issued_at: SimTime,
    /// Last time bytes landed (fault watchdog abandons stalled receives).
    last_progress: SimTime,
}

/// A transmit tracked by the fault-recovery reliability protocol: the
/// scoreboard entry completes only once the peer acknowledged the bytes
/// (go-back-N with cumulative stream-offset acks, mirroring the host NIC
/// driver's protocol so the two interoperate).
struct EngineSend {
    conn: u16,
    seq: u32,
    buf: PhysAddr,
    len: usize,
    /// Absolute per-connection stream offset of this send's first byte.
    start_off: u64,
    attempts: u32,
    last_attempt: SimTime,
    /// All transmit descriptors completed (last-descriptor tx interrupt).
    descs_done: bool,
    /// The peer's cumulative ack covers this send.
    acked: bool,
}

/// The HDC Engine component.
pub struct HdcEngine {
    config: EngineConfig,
    fabric: ComponentId,
    /// BAR: command queue + rings live here (BRAM window).
    bar: AddrRange,
    /// On-board DDR3.
    ddr: AddrRange,
    allocator: ChunkAllocator,
    /// Aux staging area (first MiB of DDR3, outside the allocator).
    aux_base: PhysAddr,
    scoreboard: Scoreboard,
    contexts: DetMap<u64, CmdCtx>,
    /// Commands awaiting scoreboard room or buffer space.
    pending_admit: VecDeque<D2dCommand>,
    ndp: NdpBank,
    ndp_pending: DetMap<u64, (SlotRef, SimTime)>,
    /// In-flight host-DRAM fetches (cache-hit fast path), by token.
    hostread_pending: DetMap<u64, (SlotRef, SimTime)>,
    /// Outstanding NVMe sub-commands per scoreboard entry (MDTS splits).
    nvme_subops: DetMap<SlotRef, (usize, bool)>,
    nvme: Vec<EngineNvme>,
    nic: EngineNic,
    connections: DetMap<u16, (TcpFlow, u32)>,
    expectations: Vec<RecvExpectation>,
    early: DetMap<u16, VecDeque<u8>>,
    /// Fault mode: sends awaiting peer acknowledgement, by scoreboard entry.
    nic_sends: DetMap<SlotRef, EngineSend>,
    /// Fault mode: next transmit stream offset per connection.
    tx_offset: DetMap<u16, u64>,
    /// Fault mode: highest cumulative ack received per connection.
    snd_acked: DetMap<u16, u64>,
    /// Fault mode: cumulative in-order bytes accepted per connection.
    rcv_count: DetMap<u16, u64>,
    /// A `WatchdogTick` is scheduled.
    watchdog_armed: bool,
    gather_unit: FifoServer,
    init: Option<EngineInit>,
    /// Completion ring cursor + phase.
    comp_tail: u16,
    comp_phase: bool,
    /// Completion-record DMA token → in-flight record (MSI follows the DMA).
    comp_dmas: DetMap<u64, CompDma>,
    next_token: u64,
    /// MSI vector namespace: 0x40+i = SSD i CQ, 0x60 = NIC tx, 0x61 = NIC rx.
    started: bool,
}

impl HdcEngine {
    const CMD_QUEUE_OFFSET: u64 = 0x0;
    const MSI_SSD_BASE: u32 = 0x40;
    const MSI_NIC_TX: u32 = 0x60;
    const MSI_NIC_RX: u32 = 0x61;

    /// Creates the engine. The caller supplies the BAR and DDR3 regions
    /// and the device handles (see [`build_dcs_node`](crate::node)).
    pub fn new(
        config: EngineConfig,
        fabric: ComponentId,
        bar: AddrRange,
        ddr: AddrRange,
        ssds: Vec<NvmeHandle>,
        nic: NicHandle,
    ) -> Self {
        // BRAM layout inside the BAR window: per-SSD rings + NIC rings.
        let mut off = 0x1000u64;
        let nvme = ssds
            .into_iter()
            .map(|handle| {
                let sq_base = bar.start + off;
                off += 128 * NvmeCommand::SIZE as u64;
                let cq_base = bar.start + off;
                off += 128 * 16;
                let prp_scratch = bar.start + off.div_ceil(4096) * 4096;
                off = (prp_scratch - bar.start) + 128 * 4096;
                EngineNvme {
                    handle,
                    sq: SubmissionQueueWriter::new(sq_base, 128),
                    cq: CompletionQueueReader::new(cq_base, 128),
                    prp_scratch,
                    outstanding: DetMap::new(),
                    next_cid: 0,
                    inflight: 0,
                }
            })
            .collect::<Vec<_>>();

        let send_base = bar.start + off;
        off += 2048 * SendDescriptor::SIZE as u64;
        let recv_base = bar.start + off;
        off += (config.recv_buffers as u64 + 1) * RecvDescriptor::SIZE as u64;
        let wb_base = bar.start + off;
        off += (config.recv_buffers as u64 + 1) * RecvWriteback::SIZE as u64;
        let hdr_area = bar.start + off;
        off += 2048 * 64;
        assert!(off <= bar.len, "BRAM layout exceeds BAR window");

        // DDR3 layout: 1 MiB aux area, then recv frame buffers, then the
        // chunked intermediate-buffer pool.
        let aux_base = ddr.start;
        let recv_bufs = ddr.start + (1 << 20);
        let pool_start = recv_bufs + config.recv_buffers as u64 * 2048;
        let pool_start = PhysAddr(pool_start.as_u64().div_ceil(CHUNK_SIZE) * CHUNK_SIZE);
        let pool = AddrRange::new(pool_start, ddr.end() - pool_start);

        let nic_ctrl = EngineNic {
            handle: nic,
            send_ring: RingWriter::new(send_base, SendDescriptor::SIZE, 2048),
            recv_ring: RingWriter::new(recv_base, RecvDescriptor::SIZE, config.recv_buffers + 1),
            wb_base,
            recv_bufs,
            hdr_area,
            hdr_slot: 0,
            wb_next: 0,
            consumed_since_repost: 0,
            tx_fifo: VecDeque::new(),
            inflight_tx: 0,
        };

        HdcEngine {
            allocator: ChunkAllocator::new(pool),
            scoreboard: Scoreboard::new(config.scoreboard_slots),
            ndp: NdpBank::with_target(
                &config.ndp_functions,
                Bandwidth::gbps(config.ndp_target_gbps),
            ),
            config,
            fabric,
            bar,
            ddr,
            aux_base,
            contexts: DetMap::new(),
            pending_admit: VecDeque::new(),
            ndp_pending: DetMap::new(),
            hostread_pending: DetMap::new(),
            nvme_subops: DetMap::new(),
            nvme,
            nic: nic_ctrl,
            connections: DetMap::new(),
            expectations: Vec::new(),
            early: DetMap::new(),
            nic_sends: DetMap::new(),
            tx_offset: DetMap::new(),
            snd_acked: DetMap::new(),
            rcv_count: DetMap::new(),
            watchdog_armed: false,
            gather_unit: FifoServer::new(),
            init: None,
            comp_tail: 0,
            comp_phase: true,
            comp_dmas: DetMap::new(),
            next_token: 1,
            started: false,
        }
    }

    /// The engine BAR (the driver writes commands at offset 0).
    pub fn bar(&self) -> AddrRange {
        self.bar
    }

    /// Address the driver writes 64-byte D2D commands to.
    pub fn cmd_queue_addr(&self) -> PhysAddr {
        self.bar.start + Self::CMD_QUEUE_OFFSET
    }

    /// Aux-buffer base (the driver DMA-stages aux data here).
    pub fn aux_base(&self) -> PhysAddr {
        self.aux_base
    }

    /// The on-board DDR3 region (intermediate + packet buffers).
    pub fn ddr(&self) -> AddrRange {
        self.ddr
    }

    fn token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        t
    }

    /// One-time device setup: attach queue pairs and configure the NIC
    /// (runs when the driver sends [`EngineInit`]).
    fn start_devices(&mut self, ctx: &mut Ctx<'_>) {
        assert!(!self.started, "engine initialized twice");
        self.started = true;
        for (i, ssd) in self.nvme.iter().enumerate() {
            let attach = AttachQueuePair {
                qid: 2, // the host driver owns qid 1; the engine dedicates qid 2 (§IV-B)
                sq_base: ssd.sq.base(),
                cq_base: ssd.cq.base(),
                depth: 128,
                msi_addr: self.engine_msi_addr(),
                msi_vector: Self::MSI_SSD_BASE + i as u32,
            };
            ctx.send_now(ssd.handle.device, attach);
        }
        let configure = ConfigureNic {
            send_ring_base: self.nic.send_ring.base(),
            send_ring_depth: 2048,
            recv_ring_base: self.nic.recv_ring.base(),
            recv_ring_depth: self.config.recv_buffers + 1,
            wb_ring_base: self.nic.wb_base,
            tx_msi_addr: self.engine_msi_addr() + 8,
            tx_msi_vector: Self::MSI_NIC_TX,
            rx_msi_addr: self.engine_msi_addr() + 16,
            rx_msi_vector: Self::MSI_NIC_RX,
        };
        ctx.send_now(self.nic.handle.device, configure);
        let n = self.config.recv_buffers;
        self.post_recv_buffers(ctx, n);
    }

    /// MSI window inside the BAR claimed by the engine itself (devices
    /// interrupt the engine, not the host).
    fn engine_msi_addr(&self) -> PhysAddr {
        self.bar.start + (self.bar.len - 0x100)
    }

    fn post_recv_buffers(&mut self, ctx: &mut Ctx<'_>, count: u16) {
        {
            let mem = ctx.world().expect_mut::<PhysMemory>();
            for _ in 0..count {
                let idx = self.nic.recv_ring.tail();
                let buf = self.nic.recv_bufs + idx as u64 * 2048;
                let d = RecvDescriptor {
                    buf_addr: buf,
                    buf_len: 2048,
                };
                self.nic.recv_ring.push(mem, &d.to_bytes());
            }
        }
        let tail = self.nic.recv_ring.tail();
        let db = self.nic.handle.rx_doorbell();
        let fabric = self.fabric;
        ctx.send_now(
            fabric,
            MmioWrite {
                addr: db,
                data: (tail as u32).to_le_bytes().to_vec(),
            },
        );
    }

    // ------------------------------------------------------------------
    // Command admission.
    // ------------------------------------------------------------------

    fn on_command_write(&mut self, ctx: &mut Ctx<'_>, data: &[u8]) {
        let bytes: [u8; D2dCommand::SIZE] = data.try_into().expect("command writes are 64 bytes");
        match D2dCommand::from_bytes(&bytes) {
            Ok(cmd) => {
                let parse = self.config.cmd_parse_ns;
                {
                    let now = ctx.now();
                    let obs = &mut ctx.world().obs;
                    obs.span("hdc", "cmd-parse", cmd.id, now, now + parse);
                    obs.count("hdc", "cmds.received", 1);
                }
                ctx.send_self_in(parse, AdmitCmd { cmd });
            }
            Err(e) => {
                // Parser rejects the command: error completion with the id
                // field read best-effort.
                let id = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
                ctx.world().stats.counter("hdc.cmd_parse_errors").add(1);
                let _ = e;
                self.contexts.insert(
                    id,
                    CmdCtx {
                        buffers: vec![],
                        digest: None,
                        breakdown: Breakdown::new(),
                        scoreboard_ns: self.config.cmd_parse_ns,
                    },
                );
                self.deliver_completion(ctx, id, false, 0);
            }
        }
    }

    fn try_admit(&mut self, ctx: &mut Ctx<'_>, cmd: D2dCommand) {
        self.arm_watchdog(ctx);
        if !self.scoreboard.has_room() {
            self.pending_admit.push_back(cmd);
            return;
        }
        // Allocate the pipeline buffer from the first producing op.
        let first_len = match cmd.ops[0] {
            DevOpCode::SsdRead { len, .. } => len as usize,
            DevOpCode::NicRecv { len, .. } => len as usize,
            DevOpCode::MemRead { len, .. } => len as usize,
            _ => unreachable!("validated at decode"),
        };
        // Transforms can grow the payload (gzip on incompressible data);
        // reserve half again plus a chunk.
        let reserve = first_len + first_len / 2 + CHUNK_SIZE as usize;
        let Some(buf) = self.allocator.alloc(reserve) else {
            self.pending_admit.push_back(cmd);
            return;
        };
        let mut dev_cmds = Vec::with_capacity(cmd.ops.len());
        let mut ok = true;
        for op in &cmd.ops {
            let dc = match *op {
                DevOpCode::SsdRead { ssd, lba, len } => {
                    if ssd as usize >= self.nvme.len() {
                        ok = false;
                        break;
                    }
                    DevCmd::NvmeRead {
                        ssd: ssd as usize,
                        lba,
                        len: len as usize,
                        buf: buf.start,
                    }
                }
                DevOpCode::SsdWrite { ssd, lba } => {
                    if ssd as usize >= self.nvme.len() {
                        ok = false;
                        break;
                    }
                    DevCmd::NvmeWrite {
                        ssd: ssd as usize,
                        lba,
                        len: 0,
                        buf: buf.start,
                    }
                }
                DevOpCode::Process {
                    function,
                    aux_off,
                    aux_len,
                } => {
                    if !self.ndp.supports(function) {
                        ok = false;
                        break;
                    }
                    let aux = ctx
                        .world_ref()
                        .expect::<PhysMemory>()
                        .read(self.aux_base + aux_off as u64, aux_len as usize);
                    DevCmd::Ndp {
                        function,
                        aux,
                        buf: buf.start,
                        len: 0,
                    }
                }
                DevOpCode::NicSend { conn, seq } => {
                    if !self.connections.contains_key(&conn) {
                        ok = false;
                        break;
                    }
                    DevCmd::NicSend {
                        conn,
                        seq,
                        buf: buf.start,
                        len: 0,
                    }
                }
                DevOpCode::NicRecv { conn, len } => {
                    if !self.connections.contains_key(&conn) {
                        ok = false;
                        break;
                    }
                    DevCmd::NicRecv {
                        conn,
                        len: len as usize,
                        buf: buf.start,
                    }
                }
                DevOpCode::MemRead { len } => DevCmd::HostRead {
                    len: len as usize,
                    buf: buf.start,
                },
            };
            dev_cmds.push(dc);
        }
        let id = cmd.id;
        let mut context = CmdCtx {
            buffers: vec![buf],
            digest: None,
            breakdown: Breakdown::new(),
            scoreboard_ns: self.config.cmd_parse_ns,
        };
        if !ok {
            ctx.world()
                .stats
                .counter("hdc.cmd_validation_errors")
                .add(1);
            self.contexts.insert(id, context);
            self.deliver_completion(ctx, id, false, 0);
            return;
        }
        context.scoreboard_ns += self.config.scoreboard_step_ns * dev_cmds.len() as u64;
        self.contexts.insert(id, context);
        self.scoreboard
            .admit(id, dev_cmds)
            .expect("room checked above");
        ctx.world().stats.counter("hdc.cmds_admitted").add(1);
        {
            let now = ctx.now();
            let obs = &mut ctx.world().obs;
            obs.mark(id, "hdc:parse+admit", now);
            obs.count("hdc", "cmds.admitted", 1);
        }
        self.pump(ctx);
    }

    // ------------------------------------------------------------------
    // Scheduling.
    // ------------------------------------------------------------------

    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            let nvme_room: Vec<bool> = self
                .nvme
                .iter()
                .map(|c| c.inflight < self.config.nvme_outstanding)
                .collect();
            let nic_room = self.nic.inflight_tx < self.config.nic_outstanding;
            let issued = self.scoreboard.issue_next(|class| match class {
                ControllerClass::Nvme(i) => nvme_room[i],
                ControllerClass::Nic => nic_room,
                ControllerClass::Ndp => true,
                // The host-DMA path is the same mover the gather path
                // uses; modeling it as always-issuable keeps cache hits
                // from ever queueing behind flash work.
                ControllerClass::Dma => true,
            });
            let Some((at, cmd)) = issued else { break };
            match cmd {
                DevCmd::NvmeRead { ssd, lba, len, buf } => {
                    self.issue_nvme(ctx, at, ssd, lba, len, buf, false)
                }
                DevCmd::NvmeWrite { ssd, lba, len, buf } => {
                    self.issue_nvme(ctx, at, ssd, lba, len, buf, true)
                }
                DevCmd::Ndp {
                    function, buf, len, ..
                } => {
                    let _ = buf;
                    let token = self.token();
                    let done = self.ndp.schedule(ctx.now(), function, len);
                    self.ndp_pending.insert(token, (at, ctx.now()));
                    let delay = done - ctx.now();
                    {
                        let now = ctx.now();
                        let obs = &mut ctx.world().obs;
                        obs.span("hdc", "ndp", token, now, done);
                        obs.observe("hdc", "ndp.ns", delay);
                    }
                    ctx.send_self_in(delay, NdpDone { token });
                }
                DevCmd::NicSend {
                    conn,
                    seq,
                    buf,
                    len,
                } => self.issue_nic_send(ctx, at, conn, seq, buf, len),
                DevCmd::HostRead { len, buf } => {
                    let token = self.token();
                    // The fetch crosses the fabric at the engine's DDR3
                    // copy bandwidth — the same mover the NIC gather path
                    // models.
                    let delay = self.config.gather_bandwidth.transfer_time(len).max(1);
                    self.hostread_pending.insert(token, (at, ctx.now()));
                    {
                        let now = ctx.now();
                        let done = now + delay;
                        let obs = &mut ctx.world().obs;
                        obs.span("hdc", "host-read", token, now, done);
                        obs.observe("hdc", "host_read.ns", delay);
                    }
                    // The cache bytes themselves are modeled as zeros in
                    // engine memory (the store layer accounts content by
                    // version, not by value).
                    let zeros = vec![0u8; len];
                    ctx.world().expect_mut::<PhysMemory>().write(buf, &zeros);
                    ctx.send_self_in(delay, HostReadDone { token });
                }
                DevCmd::NicRecv { conn, len, buf } => {
                    self.expectations.push(RecvExpectation {
                        at,
                        conn,
                        len,
                        buf,
                        received: 0,
                        issued_at: ctx.now(),
                        last_progress: ctx.now(),
                    });
                    self.drain_early(ctx);
                }
            }
        }
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "one device operation's full geometry, unpacked from its scoreboard entry"
    )]
    fn issue_nvme(
        &mut self,
        ctx: &mut Ctx<'_>,
        at: SlotRef,
        ssd: usize,
        lba: u64,
        len: usize,
        buf: PhysAddr,
        is_write: bool,
    ) {
        // Split at the drive's advertised max transfer size (MDTS; the
        // PRP-list page bounds one command at 2 MiB).
        let mdts = self.nvme[ssd].handle.max_transfer;
        let padded = len.div_ceil(LBA_SIZE as usize).max(1) * LBA_SIZE as usize;
        let chunks: Vec<(u64, usize)> = (0..padded)
            .step_by(mdts)
            .map(|off| (off as u64, mdts.min(padded - off)))
            .collect();
        self.nvme_subops.insert(at, (chunks.len(), false));
        let (doorbell, tail) = {
            let ctrl = &mut self.nvme[ssd];
            for (off, chunk_len) in &chunks {
                let cid = ctrl.next_cid;
                ctrl.next_cid = ctrl.next_cid.wrapping_add(1);
                ctrl.outstanding.insert(
                    cid,
                    NvmeOp {
                        at,
                        issued_at: ctx.now(),
                        is_write,
                        lba: lba + off / LBA_SIZE,
                        len: *chunk_len,
                        buf: buf + *off,
                        attempts: 0,
                    },
                );
                let list_page = ctrl.prp_scratch + (cid as u64 % 128) * 4096;
                let prps = PrpList::for_contiguous(buf + *off, *chunk_len, list_page);
                let cmd = NvmeCommand {
                    opcode: if is_write {
                        NvmeOpcode::Write
                    } else {
                        NvmeOpcode::Read
                    },
                    cid,
                    nsid: 1,
                    prp1: prps.prp1,
                    prp2: prps.prp2,
                    slba: lba + off / LBA_SIZE,
                    nlb: (chunk_len / LBA_SIZE as usize - 1) as u16,
                };
                let mem = ctx.world().expect_mut::<PhysMemory>();
                if !prps.list_entries.is_empty() {
                    mem.write(list_page, &prps.list_bytes());
                }
                ctrl.sq.push(mem, &cmd);
            }
            ctrl.inflight += 1;
            (ctrl.handle.sq_doorbell(2), ctrl.sq.tail())
        };
        // Hardware-speed doorbell: a posted PCIe P2P write, with the
        // scoreboard's bookkeeping as the only added latency.
        let fabric = self.fabric;
        ctx.send_in(
            self.config.scoreboard_step_ns,
            fabric,
            MmioWrite {
                addr: doorbell,
                data: (tail as u32).to_le_bytes().to_vec(),
            },
        );
    }

    fn issue_nic_send(
        &mut self,
        ctx: &mut Ctx<'_>,
        at: SlotRef,
        conn: u16,
        seq: u32,
        buf: PhysAddr,
        len: usize,
    ) {
        let faulty = fault::active(ctx.world_ref());
        let start_off = if faulty {
            let off = self.tx_offset.entry(conn).or_insert(0);
            let s = *off;
            *off += len as u64;
            s
        } else {
            0
        };
        if faulty {
            // Under fault injection the entry completes only once the peer
            // acknowledged the bytes; zero-length sends have nothing to ack.
            self.nic_sends.insert(
                at,
                EngineSend {
                    conn,
                    seq,
                    buf,
                    len,
                    start_off,
                    attempts: 0,
                    last_attempt: ctx.now(),
                    descs_done: false,
                    acked: len == 0,
                },
            );
        }
        self.nic.inflight_tx += 1;
        self.push_send_descs(ctx, at, conn, seq, buf, len, start_off, faulty);
    }

    /// Writes the LSO descriptor chain for one send and rings the transmit
    /// doorbell. `start_off` seeds the TCP `ack` field with the send's
    /// absolute stream offset (the reliability protocol's per-segment
    /// cursor); fault-free sends keep the seed at zero, byte-identical to
    /// the non-recovering engine. Also the retransmission path.
    #[expect(
        clippy::too_many_arguments,
        reason = "one device operation's full geometry, unpacked from its scoreboard entry"
    )]
    fn push_send_descs(
        &mut self,
        ctx: &mut Ctx<'_>,
        at: SlotRef,
        conn: u16,
        seq: u32,
        buf: PhysAddr,
        len: usize,
        start_off: u64,
        faulty: bool,
    ) {
        let (flow, _) = *self.connections.get(&conn).expect("validated at admit");
        // Split at the NIC's LSO limit; the entry completes with its last
        // descriptor.
        let lso_max = self.nic.handle.max_lso;
        let chunks: Vec<(u64, usize)> = if len == 0 {
            vec![(0, 0)]
        } else {
            (0..len)
                .step_by(lso_max)
                .map(|off| (off as u64, lso_max.min(len - off)))
                .collect()
        };
        let n = chunks.len();
        for (i, (off, chunk_len)) in chunks.into_iter().enumerate() {
            let ack = if faulty {
                (start_off as u32).wrapping_add(off as u32)
            } else {
                0
            };
            let template = build_template(&flow, seq.wrapping_add(off as u32), ack);
            let hdr_addr = self.nic.hdr_area + (self.nic.hdr_slot % 2048) * 64;
            self.nic.hdr_slot += 1;
            let desc = SendDescriptor {
                header_addr: hdr_addr,
                header_len: template.len() as u16,
                payload_addr: buf + off,
                payload_len: chunk_len as u32,
                mss: 1448,
                cookie: 0,
            };
            let mem = ctx.world().expect_mut::<PhysMemory>();
            mem.write(hdr_addr, &template);
            self.nic.send_ring.push(mem, &desc.to_bytes());
            self.nic.tx_fifo.push_back((at, ctx.now(), i == n - 1));
        }
        let tail = self.nic.send_ring.tail();
        let db = self.nic.handle.tx_doorbell();
        let fabric = self.fabric;
        ctx.send_in(
            self.config.scoreboard_step_ns,
            fabric,
            MmioWrite {
                addr: db,
                data: (tail as u32).to_le_bytes().to_vec(),
            },
        );
    }

    // ------------------------------------------------------------------
    // Completions from devices.
    // ------------------------------------------------------------------

    fn on_ssd_msi(&mut self, ctx: &mut Ctx<'_>, ssd: usize) {
        self.drain_ssd_cq(ctx, ssd);
    }

    /// Pops every pending CQ entry for one SSD. Called from the CQ MSI
    /// and from the fault watchdog (which thereby recovers completions
    /// whose interrupt was lost).
    fn drain_ssd_cq(&mut self, ctx: &mut Ctx<'_>, ssd: usize) {
        let mut entries = Vec::new();
        {
            let ctrl = &mut self.nvme[ssd];
            let mem = ctx.world_ref().expect::<PhysMemory>();
            while let Some(entry) = ctrl.cq.pop(mem) {
                ctrl.sq.update_head(entry.sq_head);
                entries.push(entry);
            }
        }
        if entries.is_empty() {
            return;
        }
        // Ring the CQ head doorbell.
        let head = self.nvme[ssd].cq.head();
        let db = self.nvme[ssd].handle.cq_doorbell(2);
        let fabric = self.fabric;
        ctx.send_now(
            fabric,
            MmioWrite {
                addr: db,
                data: (head as u32).to_le_bytes().to_vec(),
            },
        );
        for entry in entries {
            let Some(op) = self.nvme[ssd].outstanding.remove(&entry.cid) else {
                // Straggler for a sub-command the watchdog already timed
                // out — its scoreboard entry is long settled.
                ctx.world().stats.counter("hdc.stale_cqe").add(1);
                continue;
            };
            if entry.status.is_retryable() {
                if let Some(rc) = fault::recovery(ctx.world_ref()) {
                    if op.attempts < rc.nvme_retries {
                        fault::retried(ctx.world(), fault::NVME_MEDIA);
                        self.resubmit_nvme(ctx, ssd, op);
                        continue;
                    }
                }
                fault::exhausted(ctx.world(), fault::NVME_MEDIA);
                self.nvme_subop_done(ctx, ssd, &op, false);
                continue;
            }
            if entry.status.is_ok() && op.attempts > 0 {
                fault::recovered(ctx.world(), fault::NVME_MEDIA);
            }
            self.nvme_subop_done(ctx, ssd, &op, entry.status.is_ok());
        }
        self.after_progress(ctx);
    }

    /// Reissues a media-errored chunk under a fresh cid, budget permitting.
    fn resubmit_nvme(&mut self, ctx: &mut Ctx<'_>, ssd: usize, op: NvmeOp) {
        let (doorbell, tail) = {
            let ctrl = &mut self.nvme[ssd];
            let cid = ctrl.next_cid;
            ctrl.next_cid = ctrl.next_cid.wrapping_add(1);
            ctrl.outstanding.insert(
                cid,
                NvmeOp {
                    attempts: op.attempts + 1,
                    ..op
                },
            );
            let list_page = ctrl.prp_scratch + (cid as u64 % 128) * 4096;
            let prps = PrpList::for_contiguous(op.buf, op.len, list_page);
            let cmd = NvmeCommand {
                opcode: if op.is_write {
                    NvmeOpcode::Write
                } else {
                    NvmeOpcode::Read
                },
                cid,
                nsid: 1,
                prp1: prps.prp1,
                prp2: prps.prp2,
                slba: op.lba,
                nlb: (op.len / LBA_SIZE as usize - 1) as u16,
            };
            let mem = ctx.world().expect_mut::<PhysMemory>();
            if !prps.list_entries.is_empty() {
                mem.write(list_page, &prps.list_bytes());
            }
            ctrl.sq.push(mem, &cmd);
            (ctrl.handle.sq_doorbell(2), ctrl.sq.tail())
        };
        let fabric = self.fabric;
        ctx.send_in(
            self.config.scoreboard_step_ns,
            fabric,
            MmioWrite {
                addr: doorbell,
                data: (tail as u32).to_le_bytes().to_vec(),
            },
        );
    }

    /// Settles one NVMe sub-command (successful, errored, or timed out);
    /// the scoreboard entry resolves when its last sub-command settles.
    fn nvme_subop_done(&mut self, ctx: &mut Ctx<'_>, ssd: usize, op: &NvmeOp, ok: bool) {
        let Some(entry) = self.nvme_subops.get_mut(&op.at) else {
            ctx.world().stats.counter("hdc.stale_subop").add(1);
            return;
        };
        entry.0 -= 1;
        entry.1 |= !ok;
        if entry.0 > 0 {
            return;
        }
        let (_, any_failed) = self.nvme_subops.remove(&op.at).expect("present");
        self.nvme[ssd].inflight -= 1;
        let id = self.scoreboard.id_of(op.at.slot);
        let cat = if op.is_write {
            Category::Write
        } else {
            Category::Read
        };
        let dur = ctx.now() - op.issued_at;
        if let Some(c) = self.contexts.get_mut(&id) {
            c.breakdown.add(cat, dur);
            c.scoreboard_ns += self.config.scoreboard_step_ns;
        }
        if !any_failed {
            let len = self.scoreboard.op(op.at).len();
            self.scoreboard.mark_done(op.at, len);
        } else {
            self.scoreboard.mark_failed(op.at);
        }
    }

    fn on_ndp_done(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let (at, issued_at) = self.ndp_pending.remove(&token).expect("live ndp op");
        if !self.scoreboard.is_issued(at) {
            // The entry was settled by other means (fault recovery timed
            // the command out); a stale unit completion must not touch
            // whatever occupies the slot now.
            ctx.world().stats.counter("hdc.stale_ndp_done").add(1);
            return;
        }
        let (function, aux, buf, len) = match self.scoreboard.op(at) {
            DevCmd::Ndp {
                function,
                aux,
                buf,
                len,
            } => (*function, aux.clone(), *buf, *len),
            _ => {
                // A unit completion pointing at a non-NDP entry is device
                // misbehavior; fail the entry instead of crashing the
                // engine (satellite: no panics on device-originated state).
                ctx.world().stats.counter("hdc.ndp_errors").add(1);
                self.scoreboard.mark_failed(at);
                self.after_progress(ctx);
                return;
            }
        };
        let input = ctx.world_ref().expect::<PhysMemory>().read(buf, len);
        let id = self.scoreboard.id_of(at.slot);
        match self.ndp.execute(function, &input, &aux) {
            Ok(out) => {
                let mut out_len = len;
                if let Some(d) = out.digest {
                    if let Some(c) = self.contexts.get_mut(&id) {
                        c.digest = Some(d);
                    }
                }
                if let Some(data) = out.data {
                    // Transform: write the result back into the command's
                    // buffer (reserved with growth headroom at admit). If
                    // the output outgrew it — decompression can — move the
                    // pipeline to a larger allocation.
                    out_len = data.len();
                    let current = *self.contexts[&id]
                        .buffers
                        .last()
                        .expect("command owns a buffer");
                    if out_len <= current.len as usize {
                        ctx.world().expect_mut::<PhysMemory>().write(buf, &data);
                    } else {
                        let need = out_len + out_len / 2 + CHUNK_SIZE as usize;
                        let Some(new_buf) = self.allocator.alloc(need) else {
                            ctx.world().stats.counter("hdc.ndp_errors").add(1);
                            self.scoreboard.mark_failed(at);
                            self.after_progress(ctx);
                            return;
                        };
                        ctx.world()
                            .expect_mut::<PhysMemory>()
                            .write(new_buf.start, &data);
                        self.scoreboard.rebase_buffers(at, new_buf.start);
                        let context = self.contexts.get_mut(&id).expect("live command");
                        context.buffers.push(new_buf);
                        let old = context.buffers.remove(context.buffers.len() - 2);
                        self.allocator.free(old);
                    }
                }
                if let Some(c) = self.contexts.get_mut(&id) {
                    c.breakdown.add(Category::Hash, ctx.now() - issued_at);
                    c.scoreboard_ns += self.config.scoreboard_step_ns;
                }
                self.scoreboard.mark_done(at, out_len);
            }
            Err(_) => {
                ctx.world().stats.counter("hdc.ndp_errors").add(1);
                self.scoreboard.mark_failed(at);
            }
        }
        self.after_progress(ctx);
    }

    fn on_hostread_done(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let (at, issued_at) = self
            .hostread_pending
            .remove(&token)
            .expect("live host read");
        if !self.scoreboard.is_issued(at) {
            // Settled by fault recovery in the meantime; never touch the
            // slot (it may have been reassigned).
            ctx.world().stats.counter("hdc.stale_hostread_done").add(1);
            return;
        }
        let len = self.scoreboard.op(at).len();
        let id = self.scoreboard.id_of(at.slot);
        if let Some(c) = self.contexts.get_mut(&id) {
            c.breakdown.add(Category::DataCopy, ctx.now() - issued_at);
            c.scoreboard_ns += self.config.scoreboard_step_ns;
        }
        self.scoreboard.mark_done(at, len);
        self.after_progress(ctx);
    }

    fn on_nic_tx_msi(&mut self, ctx: &mut Ctx<'_>) {
        let Some((at, issued_at, last)) = self.nic.tx_fifo.pop_front() else {
            // A duplicate or late interrupt for a send the fault watchdog
            // already reclaimed.
            ctx.world().stats.counter("hdc.stale_tx_msi").add(1);
            return;
        };
        if !last {
            return;
        }
        if let Some(send) = self.nic_sends.get_mut(&at) {
            // Fault mode: completion additionally requires the peer's ack.
            if send.descs_done {
                return; // duplicate last-descriptor interrupt (retransmit)
            }
            send.descs_done = true;
            let id = self.scoreboard.id_of(at.slot);
            if let Some(c) = self.contexts.get_mut(&id) {
                c.breakdown.add(Category::Wire, ctx.now() - issued_at);
                c.scoreboard_ns += self.config.scoreboard_step_ns;
            }
            self.try_complete_nic_send(ctx, at);
            self.after_progress(ctx);
            return;
        }
        if fault::active(ctx.world_ref()) {
            // The send already completed or failed; never touch the slot
            // (it may have been reassigned).
            ctx.world().stats.counter("hdc.stale_tx_msi").add(1);
            return;
        }
        self.nic.inflight_tx -= 1;
        let id = self.scoreboard.id_of(at.slot);
        if let Some(c) = self.contexts.get_mut(&id) {
            c.breakdown.add(Category::Wire, ctx.now() - issued_at);
            c.scoreboard_ns += self.config.scoreboard_step_ns;
        }
        let len = self.scoreboard.op(at).len();
        self.scoreboard.mark_done(at, len);
        self.after_progress(ctx);
    }

    /// Completes a tracked send once both its descriptors finished and the
    /// peer's cumulative ack covers its bytes.
    fn try_complete_nic_send(&mut self, ctx: &mut Ctx<'_>, at: SlotRef) {
        let ready = self
            .nic_sends
            .get(&at)
            .is_some_and(|s| s.descs_done && s.acked);
        if !ready {
            return;
        }
        let send = self.nic_sends.remove(&at).expect("checked above");
        if send.attempts > 0 {
            fault::recovered(ctx.world(), fault::WIRE_DROP);
        }
        self.nic.inflight_tx -= 1;
        self.nic.tx_fifo.retain(|e| e.0 != at);
        let len = self.scoreboard.op(at).len();
        self.scoreboard.mark_done(at, len);
    }

    /// Abandons a tracked send after its retransmission budget ran out.
    fn fail_nic_send(&mut self, ctx: &mut Ctx<'_>, at: SlotRef) {
        if self.nic_sends.remove(&at).is_none() {
            return;
        }
        ctx.world().stats.counter("hdc.send_failures").add(1);
        self.nic.inflight_tx -= 1;
        self.nic.tx_fifo.retain(|e| e.0 != at);
        self.scoreboard.mark_failed(at);
    }

    /// Applies a peer's cumulative ack for one connection, completing every
    /// tracked send it covers.
    fn on_peer_ack(&mut self, ctx: &mut Ctx<'_>, conn: u16, ack: u32) {
        let acked = self.snd_acked.entry(conn).or_insert(0);
        *acked = (*acked).max(ack as u64);
        let acked = *acked;
        let mut covered: Vec<SlotRef> = self
            .nic_sends
            .iter_mut()
            .filter(|(_, s)| s.conn == conn && !s.acked && s.start_off + s.len as u64 <= acked)
            .map(|(at, s)| {
                s.acked = true;
                *at
            })
            .collect();
        covered.sort_unstable_by_key(|at| (at.slot, at.op));
        for at in covered {
            self.try_complete_nic_send(ctx, at);
        }
    }

    fn on_nic_rx_msi(&mut self, ctx: &mut Ctx<'_>) {
        // Packet-gathering hardware (§IV-C): scan write-backs, parse
        // headers, and queue the payload bytes for the gather copy.
        let faulty = fault::active(ctx.world_ref());
        let mut frames: Vec<(u16, Vec<u8>)> = Vec::new();
        let mut bytes = 0usize;
        let mut acks_in: Vec<(u16, u32)> = Vec::new();
        let mut ack_out: DetMap<u16, TcpFlow> = DetMap::new();
        {
            let depth = self.config.recv_buffers + 1;
            loop {
                let wb_addr =
                    self.nic.wb_base + self.nic.wb_next as u64 * RecvWriteback::SIZE as u64;
                let (raw, frame) = {
                    let mem = ctx.world_ref().expect::<PhysMemory>();
                    let raw: [u8; RecvWriteback::SIZE] = mem
                        .read(wb_addr, RecvWriteback::SIZE)
                        .try_into()
                        .expect("8 bytes");
                    let wb = RecvWriteback::from_bytes(&raw);
                    if !wb.valid {
                        break;
                    }
                    let buf = self.nic.recv_bufs + self.nic.wb_next as u64 * 2048;
                    (raw, mem.read(buf, (wb.frame_len as usize).min(2048)))
                };
                ctx.world()
                    .expect_mut::<PhysMemory>()
                    .write(wb_addr, &[0u8; 8]);
                let wb_idx = self.nic.wb_next;
                self.nic.wb_next = (self.nic.wb_next + 1) % depth;
                self.nic.consumed_since_repost += 1;
                if !RecvWriteback::verify(&raw) {
                    // A corrupted completion entry: consume the slot, drop
                    // the frame (the sender's retransmission re-delivers
                    // the bytes). Detection here *is* the recovery for the
                    // write-back corruption site.
                    ctx.world().stats.counter("hdc.rx_bad_writebacks").add(1);
                    fault::recovered(ctx.world(), fault::CPL_CORRUPT);
                    let now = ctx.now().as_nanos();
                    aer::record(
                        ctx.world(),
                        now,
                        wb_idx as u64,
                        fault::CPL_CORRUPT,
                        aer::AerKind::BadCompletionEntry,
                    );
                    continue;
                }
                let parsed = match parse_frame(&frame) {
                    Ok(p) => p,
                    Err(_) => {
                        // Checksum or framing failure (fault injection
                        // corrupts bits on the wire): drop the frame; the
                        // sender's retransmission recovers the bytes.
                        ctx.world().stats.counter("hdc.rx_bad_frames").add(1);
                        continue;
                    }
                };
                // Identify the registered connection this frame belongs to
                // (engine receives on the *destination* side of flows).
                let conn = self
                    .connections
                    .iter()
                    .filter(|(_, (f, _))| f.reversed() == parsed.flow || *f == parsed.flow)
                    .map(|(c, _)| *c)
                    .min();
                let Some(conn) = conn else {
                    ctx.world().stats.counter("hdc.rx_unknown_flow").add(1);
                    continue;
                };
                if faulty && parsed.payload_len == 0 && parsed.seq == ACK_MAGIC {
                    acks_in.push((conn, parsed.ack));
                    continue;
                }
                if faulty {
                    // Go-back-N acceptance: the frame's ack field carries
                    // the sender's absolute stream offset for these bytes.
                    let count = self.rcv_count.entry(conn).or_insert(0);
                    ack_out.insert(conn, parsed.flow.reversed());
                    if parsed.ack as u64 != *count {
                        let c = if (parsed.ack as u64) < *count {
                            "hdc.rx_duplicate_frames"
                        } else {
                            "hdc.rx_out_of_order"
                        };
                        ctx.world().stats.counter(c).add(1);
                        continue;
                    }
                    *count += parsed.payload_len as u64;
                }
                bytes += parsed.payload_len;
                frames.push((
                    conn,
                    frame[parsed.payload_offset..parsed.payload_offset + parsed.payload_len]
                        .to_vec(),
                ));
            }
        }
        if self.nic.consumed_since_repost >= self.config.recv_buffers / 2 {
            let n = self.nic.consumed_since_repost;
            self.nic.consumed_since_repost = 0;
            self.post_recv_buffers(ctx, n);
        }
        // Acknowledge the batch: one coalesced cumulative ack per flow that
        // delivered data (accepted or not — duplicates are re-acked so a
        // sender whose ack got lost stops retransmitting). Sorted: hash-map
        // order must not reach the event sequence.
        let mut ack_out: Vec<(u16, TcpFlow)> = ack_out.into_iter().collect();
        ack_out.sort_unstable_by_key(|(c, _)| *c);
        for (conn, rflow) in ack_out {
            let count = self.rcv_count.get(&conn).copied().unwrap_or(0);
            let ack_frame = build_frame(&rflow, ACK_MAGIC, count as u32, &[]);
            let nic = self.nic.handle.device;
            ctx.send_now(nic, ControlFrame { frame: ack_frame });
        }
        if !acks_in.is_empty() {
            for (conn, ack) in acks_in {
                self.on_peer_ack(ctx, conn, ack);
            }
            self.after_progress(ctx);
        }
        if frames.is_empty() {
            return;
        }
        // The gather engine copies payloads into contiguous DDR3 at its
        // copy bandwidth.
        let service = self.config.gather_bandwidth.transfer_time(bytes);
        let done = self.gather_unit.offer(ctx.now(), service);
        let delay = done - ctx.now();
        let _ = bytes;
        ctx.send_self_in(delay, GatherDone { frames });
    }

    fn on_gather_done(&mut self, ctx: &mut Ctx<'_>, frames: Vec<(u16, Vec<u8>)>) {
        for (conn, payload) in frames {
            self.early.entry(conn).or_default().extend(payload);
        }
        self.drain_early(ctx);
        self.after_progress(ctx);
    }

    fn drain_early(&mut self, ctx: &mut Ctx<'_>) {
        let mut completed = Vec::new();
        for (i, e) in self.expectations.iter_mut().enumerate() {
            let Some(buf) = self.early.get_mut(&e.conn) else {
                continue;
            };
            if buf.is_empty() {
                continue;
            }
            let want = e.len - e.received;
            let take = want.min(buf.len());
            ctx.world().expect_mut::<PhysMemory>().write_front(
                e.buf + e.received as u64,
                buf,
                take,
            );
            e.received += take;
            e.last_progress = ctx.now();
            if e.received == e.len {
                completed.push(i);
            }
        }
        for i in completed.into_iter().rev() {
            let e = self.expectations.remove(i);
            let id = self.scoreboard.id_of(e.at.slot);
            if let Some(c) = self.contexts.get_mut(&id) {
                c.breakdown.add(Category::Wire, ctx.now() - e.issued_at);
                c.scoreboard_ns += self.config.scoreboard_step_ns;
            }
            self.scoreboard.mark_done(e.at, e.len);
        }
    }

    // ------------------------------------------------------------------
    // Fault-recovery watchdog.
    // ------------------------------------------------------------------

    /// Schedules the next watchdog sweep if fault injection is active and
    /// no sweep is pending. The watchdog is the engine's whole-device
    /// recovery net: it polls completion paths whose interrupts may have
    /// been lost, retransmits unacknowledged sends, and converts sub-ops
    /// hung past the op deadline into clean error completions.
    fn arm_watchdog(&mut self, ctx: &mut Ctx<'_>) {
        if self.watchdog_armed {
            return;
        }
        let Some(rc) = fault::recovery(ctx.world_ref()) else {
            return;
        };
        self.watchdog_armed = true;
        ctx.send_self_in(rc.watchdog_period_ns, WatchdogTick);
    }

    fn on_watchdog(&mut self, ctx: &mut Ctx<'_>) {
        let Some(rc) = fault::recovery(ctx.world_ref()) else {
            self.watchdog_armed = false;
            return;
        };
        let now = ctx.now();
        // Poll every completion path directly: recovers SSD CQ entries and
        // NIC write-backs whose MSI was dropped by the fabric.
        for i in 0..self.nvme.len() {
            self.drain_ssd_cq(ctx, i);
        }
        self.on_nic_rx_msi(ctx);
        // NVMe sub-commands silent past the op deadline become errors.
        // Sweeps sort what they collect from hash maps: iteration order
        // must never leak into the event sequence (seed reproducibility).
        let mut timed_out: Vec<(usize, u16)> = Vec::new();
        for (i, ctrl) in self.nvme.iter().enumerate() {
            for (&cid, op) in &ctrl.outstanding {
                if now - op.issued_at > rc.op_timeout_ns {
                    timed_out.push((i, cid));
                }
            }
        }
        timed_out.sort_unstable();
        for (ssd, cid) in timed_out {
            let Some(op) = self.nvme[ssd].outstanding.remove(&cid) else {
                continue;
            };
            fault::exhausted(ctx.world(), fault::MSI_LOSS);
            ctx.world().stats.counter("hdc.nvme_timeouts").add(1);
            self.nvme_subop_done(ctx, ssd, &op, false);
        }
        // Tracked sends: force-complete acked sends whose last transmit
        // interrupt vanished; retransmit unacked sends past their RTO;
        // fail them once the budget runs out.
        let mut force = Vec::new();
        let mut retry = Vec::new();
        let mut fail = Vec::new();
        for (&at, s) in &self.nic_sends {
            if s.acked {
                if !s.descs_done && now - s.last_attempt > rc.nic_rto_ns {
                    force.push(at);
                }
                continue;
            }
            let rto = rc.nic_rto_ns << s.attempts.min(10);
            if now - s.last_attempt <= rto {
                continue;
            }
            if s.attempts < rc.nic_retries {
                retry.push(at);
            } else {
                fail.push(at);
            }
        }
        force.sort_unstable_by_key(|at| (at.slot, at.op));
        retry.sort_unstable_by_key(|at| (at.slot, at.op));
        fail.sort_unstable_by_key(|at| (at.slot, at.op));
        for at in force {
            let Some(send) = self.nic_sends.get_mut(&at) else {
                continue;
            };
            send.descs_done = true;
            fault::recovered(ctx.world(), fault::MSI_LOSS);
            self.try_complete_nic_send(ctx, at);
        }
        for at in retry {
            let Some(s) = self.nic_sends.get_mut(&at) else {
                continue;
            };
            let (conn, seq, buf, len, start_off) = {
                s.attempts += 1;
                s.last_attempt = now;
                (s.conn, s.seq, s.buf, s.len, s.start_off)
            };
            fault::retried(ctx.world(), fault::WIRE_DROP);
            ctx.world().stats.counter("hdc.retransmits").add(1);
            self.push_send_descs(ctx, at, conn, seq, buf, len, start_off, true);
        }
        for at in fail {
            fault::exhausted(ctx.world(), fault::WIRE_DROP);
            self.fail_nic_send(ctx, at);
        }
        // Receive expectations with no progress for a full deadline: the
        // sender gave up (or never existed); fail them cleanly.
        let stale: Vec<usize> = self
            .expectations
            .iter()
            .enumerate()
            .filter(|(_, e)| now - e.last_progress.max(e.issued_at) > rc.op_timeout_ns)
            .map(|(i, _)| i)
            .collect();
        for i in stale.into_iter().rev() {
            let e = self.expectations.remove(i);
            fault::exhausted(ctx.world(), fault::WIRE_DROP);
            ctx.world().stats.counter("hdc.recv_timeouts").add(1);
            self.scoreboard.mark_failed(e.at);
        }
        // Transmit-FIFO entries whose interrupts were lost long ago would
        // otherwise skew attribution forever; drop them.
        while let Some(&(_, t, _)) = self.nic.tx_fifo.front() {
            if now - t > rc.op_timeout_ns {
                self.nic.tx_fifo.pop_front();
                ctx.world().stats.counter("hdc.stale_tx_entries").add(1);
            } else {
                break;
            }
        }
        self.after_progress(ctx);
        if !self.contexts.is_empty() || !self.pending_admit.is_empty() {
            ctx.send_self_in(rc.watchdog_period_ns, WatchdogTick);
        } else {
            self.watchdog_armed = false;
        }
    }

    // ------------------------------------------------------------------
    // Completion delivery to the host.
    // ------------------------------------------------------------------

    fn after_progress(&mut self, ctx: &mut Ctx<'_>) {
        self.pump(ctx);
        for (id, ok, final_len) in self.scoreboard.pop_deliverable() {
            self.deliver_completion(ctx, id, ok, final_len);
        }
        // Freed scoreboard slots / buffers may unblock queued admissions.
        // Each queued command gets one retry; a command that re-queues
        // itself (still no room) stops the sweep.
        let rounds = self.pending_admit.len();
        for _ in 0..rounds {
            let Some(cmd) = self.pending_admit.pop_front() else {
                break;
            };
            let before = self.pending_admit.len();
            self.try_admit(ctx, cmd);
            if self.pending_admit.len() > before {
                break;
            }
        }
    }

    fn deliver_completion(&mut self, ctx: &mut Ctx<'_>, id: u64, ok: bool, final_len: usize) {
        let init = self.init.expect("engine initialized before use");
        let context = self.contexts.get_mut(&id).expect("live command context");
        context.breakdown.add(
            Category::Scoreboard,
            context.scoreboard_ns + self.config.completion_write_ns,
        );
        let record = CompletionRecord {
            id,
            ok,
            phase: self.comp_phase,
            payload_len: final_len as u32,
            digest: context.digest.clone().unwrap_or_default(),
        };
        let ring_idx = self.comp_tail as u64;
        let slot = init.completion_ring + ring_idx * CompletionRecord::SIZE as u64;
        self.comp_tail += 1;
        if self.comp_tail == init.completion_depth {
            self.comp_tail = 0;
            self.comp_phase = !self.comp_phase;
        }
        {
            let now = ctx.now();
            let obs = &mut ctx.world().obs;
            obs.mark(id, "hdc:data+compute", now);
            obs.span_begin("hdc", "completion-dma", id, now);
        }
        // Stage the record in BRAM and DMA it to the host ring; the MSI
        // follows the DMA completion. One staging slot per ring index:
        // in-order delivery can release long bursts of completions at one
        // instant, so shared staging would clobber in-flight records.
        let staging = self.bar.start + (self.bar.len - 0x10000 + ring_idx * 64);
        ctx.world()
            .expect_mut::<PhysMemory>()
            .write(staging, &record.to_bytes());
        let token = self.token();
        self.comp_dmas.insert(
            token,
            CompDma {
                id,
                src: staging,
                dst: slot,
                attempts: 0,
            },
        );
        let fabric = self.fabric;
        ctx.send_in(
            self.config.completion_write_ns,
            fabric,
            DmaRequest {
                id: token,
                src: staging,
                dst: slot,
                len: CompletionRecord::SIZE,
                class: TlpClass::Completion,
                reply_to: ctx.self_id(),
            },
        );
        ctx.world().stats.counter("hdc.completions").add(1);
    }

    fn on_completion_dma_done(&mut self, ctx: &mut Ctx<'_>, done: &DmaComplete) {
        let Some(dma) = self.comp_dmas.remove(&done.id) else {
            ctx.world()
                .stats
                .counter("hdc.stale_completion_dmas")
                .add(1);
            return;
        };
        let id = dma.id;
        if !done.status.is_ok() {
            if dma.attempts == 0 {
                // The staged record in BRAM is intact: rewrite the host
                // ring slot once before giving the record up for lost.
                ctx.world().stats.counter("hdc.completion_rewrites").add(1);
                let token = self.token();
                self.comp_dmas.insert(token, CompDma { attempts: 1, ..dma });
                let fabric = self.fabric;
                ctx.send_now(
                    fabric,
                    DmaRequest {
                        id: token,
                        src: dma.src,
                        dst: dma.dst,
                        len: CompletionRecord::SIZE,
                        class: TlpClass::Completion,
                        reply_to: ctx.self_id(),
                    },
                );
                return;
            }
            // Rewrite budget spent. Fall through and release the command's
            // resources anyway: the driver's ring poll times the job out
            // and fails it cleanly, so nothing hangs on the lost record.
            ctx.world().stats.counter("hdc.completion_lost").add(1);
        }
        let init = self.init.expect("initialized");
        {
            let now = ctx.now();
            let obs = &mut ctx.world().obs;
            obs.span_end("hdc", "completion-dma", id, now);
            obs.mark(id, "hdc:completion-dma", now);
            obs.count("hdc", "cmds.completed", 1);
        }
        // Free the command's buffers and surface the instrumentation to the
        // driver (resolved through its claimed MSI address).
        if let Some(context) = self.contexts.remove(&id) {
            for b in &context.buffers {
                self.allocator.free(*b);
            }
            let driver = ctx
                .world_ref()
                .expect::<dcs_pcie::MmioRouting>()
                .owner_of(init.msi_addr)
                .expect("driver claimed its MSI address");
            ctx.send_now(
                driver,
                EngineBreakdown {
                    id,
                    breakdown: context.breakdown,
                },
            );
        }
        let fabric = self.fabric;
        ctx.send_now(
            fabric,
            Msi {
                addr: init.msi_addr,
                vector: init.msi_vector,
            },
        );
        // Buffer space freed: retry queued admissions.
        self.after_progress(ctx);
    }
}

impl Component for HdcEngine {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if let Some(write) = msg.get::<MmioWrite>() {
            let off = write.addr - self.bar.start;
            if off == Self::CMD_QUEUE_OFFSET {
                let data = write.data.clone();
                self.on_command_write(ctx, &data);
            } else {
                panic!("write to unmodeled engine register {off:#x}");
            }
            return;
        }
        let msg = match msg.downcast::<EngineInit>() {
            Ok(init) => {
                assert!(self.init.is_none(), "engine initialized twice");
                self.init = Some(init);
                self.start_devices(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RegisterConnection>() {
            Ok(reg) => {
                self.connections.insert(reg.conn, (reg.flow, reg.seq));
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<AdmitCmd>() {
            Ok(AdmitCmd { cmd }) => {
                self.try_admit(ctx, cmd);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<NdpDone>() {
            Ok(NdpDone { token }) => {
                self.on_ndp_done(ctx, token);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<HostReadDone>() {
            Ok(HostReadDone { token }) => {
                self.on_hostread_done(ctx, token);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<GatherDone>() {
            Ok(GatherDone { frames, .. }) => {
                self.on_gather_done(ctx, frames);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<WatchdogTick>() {
            Ok(WatchdogTick) => {
                self.on_watchdog(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<MsiDelivery>() {
            Ok(d) => {
                match d.vector {
                    v if (Self::MSI_SSD_BASE..Self::MSI_SSD_BASE + 32).contains(&v) => {
                        self.on_ssd_msi(ctx, (v - Self::MSI_SSD_BASE) as usize)
                    }
                    Self::MSI_NIC_TX => self.on_nic_tx_msi(ctx),
                    Self::MSI_NIC_RX => self.on_nic_rx_msi(ctx),
                    _ => {
                        // A misrouted interrupt is device misbehavior, not
                        // an engine invariant; count it and move on.
                        ctx.world().stats.counter("hdc.unexpected_msi").add(1);
                    }
                }
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<DmaComplete>() {
            Ok(done) => self.on_completion_dma_done(ctx, &done),
            Err(other) => panic!("HdcEngine received unexpected message: {other:?}"),
        }
    }
}
