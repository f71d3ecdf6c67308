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
//!   completions. The protocol work is [`dcs_nvme::initiator`], the same
//!   code the host NVMe driver runs.
//! * **Standard NIC controller** — send/recv rings in BRAM, TCP/IP header
//!   generation from the registered connection table, LSO descriptors,
//!   packet-gathering logic that strips headers from received frames and
//!   lands payloads contiguously in DDR3 (§IV-C). The ring work and the
//!   whole transport above it — the send table, acks, go-back-N, the
//!   early-byte buffer and the receive list — are one
//!   [`dcs_nic::Transport`], the type the host NIC driver runs too. The
//!   engine keys it by connection id and keeps only its gather cost, its
//!   watchdog sweep, its anatomy marks and its `hdc.*` counter names.
//! * **NDP units** — Table III banks executing real processing over the
//!   bytes in DDR3.
//!
//! The engine runs *no host software*: its only CPU interaction is the
//! driver's command write and the completion interrupt.

use std::collections::VecDeque;

use dcs_host::job::{fill_mem_read, pad_to_blocks};
use dcs_ndp::NdpFunction;
use dcs_nic::initiator::RECV_BUF_SIZE;
use dcs_nic::{
    ConfigureNic, Counters, NicHandle, RecvCheck, RecvDescriptor, RecvWriteback, SendCheck,
    SendDescriptor, TcpFlow, Transmit, Transport, TxIrq,
};
use dcs_nvme::{
    AttachQueuePair, NvmeCommand, NvmeCompletion, NvmeHandle, NvmeInitiator, NvmeIo, Outcome, Rung,
};
use dcs_pcie::{
    AddrRange, DmaComplete, DmaOp, DmaRequest, DmaStart, FabricId, MmioWrite, Msi, MsiDelivery,
    PhysAddr, PhysMemory, PortId, TlpClass,
};
use dcs_sim::{fault, Bandwidth, Category, Component, Ctx, DetMap, FifoServer, Msg, World};

use crate::buffers::{ChunkAllocator, CHUNK_SIZE};
use crate::command::{CompletionRecord, D2dCommand, DevOpCode};
use crate::ndp_unit::NdpBank;
use crate::scoreboard::{ControllerClass, DevCmd, Scoreboard, SlotRef};

/// Host-interface command parse latency, ns.
pub const CMD_PARSE_NS: u64 = 120;
/// Scoreboard bookkeeping latency per issue/update, ns.
pub const SCOREBOARD_STEP_NS: u64 = 60;
/// Completion-record assembly latency, ns.
pub const COMPLETION_WRITE_NS: u64 = 100;
/// NDP functions instantiated (Table III banks).
pub const NDP_FUNCTIONS: [NdpFunction; 6] = [
    NdpFunction::Md5,
    NdpFunction::Sha1,
    NdpFunction::Sha256,
    NdpFunction::Crc32,
    NdpFunction::Aes256Encrypt,
    NdpFunction::GzipCompress,
];
/// Issue limit for the NIC controller's transmit path.
pub const NIC_OUTSTANDING: usize = 8;
/// DDR3 packet-gather copy bandwidth.
pub const GATHER_BANDWIDTH: Bandwidth = Bandwidth::gbps(51.2);
/// Scoreboard command slots.
pub const SCOREBOARD_SLOTS: usize = 64;
/// Receive frame buffers posted to the NIC (2 KiB each, in DDR3).
pub const RECV_BUFFERS: u16 = 1024;
/// The counters the NIC controller's transport reports under.
const NIC_COUNTERS: Counters = Counters {
    bad_writebacks: "hdc.rx_bad_writebacks",
    bad_frames: "hdc.rx_bad_frames",
    duplicates: "hdc.rx_duplicate_frames",
    out_of_order: "hdc.rx_out_of_order",
    retransmits: "hdc.retransmits",
    recv_timeouts: "hdc.recv_timeouts",
};

/// Engine parameters the ablation sweeps.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Aggregate throughput target per NDP function (Table III sizes the
    /// banks for 10 Gbps; raise it to instantiate more units).
    pub ndp_target_gbps: f64,
    /// Issue limit per SSD controller.
    pub nvme_outstanding: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            ndp_target_gbps: 10.0,
            nvme_outstanding: 16,
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
/// landed clean (a poisoned record is rewritten once from `record`).
#[derive(Clone, Copy)]
struct CompDma {
    id: u64,
    dst: PhysAddr,
    record: [u8; CompletionRecord::SIZE],
    attempts: u8,
}

/// Per-command context.
struct CmdCtx {
    /// Buffers owned by the command (freed at completion).
    buffers: Vec<AddrRange>,
    /// Digest from the last digest NDP op.
    digest: Option<Vec<u8>>,
}

/// The HDC Engine component.
pub struct HdcEngine {
    config: EngineConfig,
    fabric: FabricId,
    /// BAR: command queue + rings live here (BRAM window).
    bar: AddrRange,
    /// The engine's PCIe port: the device end of its completion writes.
    port: PortId,
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
    ndp_pending: DetMap<u64, SlotRef>,
    /// In-flight host-DRAM fetches (cache-hit fast path), by token.
    hostread_pending: DetMap<u64, SlotRef>,
    /// One NVMe controller per SSD; requests are keyed by scoreboard
    /// entry.
    nvme: Vec<NvmeInitiator<SlotRef>>,
    /// The NIC transport: streams keyed by connection id, sends and
    /// receives by scoreboard entry.
    nic: Transport<u16, SlotRef>,
    connections: Connections,
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

    /// Creates the engine. The caller supplies the BAR and DDR3 regions,
    /// the port they sit behind, and the device handles (see
    /// [`build_dcs_node`](crate::node)).
    pub fn new(
        config: EngineConfig,
        fabric: FabricId,
        bar: AddrRange,
        ddr: AddrRange,
        port: PortId,
        ssds: Vec<NvmeHandle>,
        nic: NicHandle,
    ) -> Self {
        // BRAM layout inside the BAR window: per-SSD rings + NIC rings.
        // Devices interrupt the engine through an MSI window at the top
        // of the BAR.
        let msi_addr = bar.start + (bar.len - 0x100);
        let mut off = 0x1000u64;
        let nvme = ssds
            .into_iter()
            .enumerate()
            .map(|(i, handle)| {
                let sq_base = bar.start + off;
                off += 128 * NvmeCommand::SIZE as u64;
                let cq_base = bar.start + off;
                off += 128 * NvmeCompletion::SIZE as u64;
                let prp_scratch = bar.start + off.div_ceil(4096) * 4096;
                off = (prp_scratch - bar.start) + 128 * 4096;
                let attach = AttachQueuePair {
                    qid: 2, // the host driver owns qid 1; the engine dedicates qid 2 (§IV-B)
                    sq_base,
                    cq_base,
                    depth: 128,
                    msi_addr,
                    msi_vector: Self::MSI_SSD_BASE + i as u32,
                };
                NvmeInitiator::new(handle, attach, prp_scratch)
            })
            .collect::<Vec<_>>();

        let send_base = bar.start + off;
        off += 2048 * SendDescriptor::SIZE as u64;
        let recv_base = bar.start + off;
        off += (RECV_BUFFERS as u64 + 1) * RecvDescriptor::SIZE as u64;
        let wb_base = bar.start + off;
        off += (RECV_BUFFERS as u64 + 1) * RecvWriteback::SIZE as u64;
        let hdr_area = bar.start + off;
        off += 2048 * 64;
        assert!(off <= bar.len, "BRAM layout exceeds BAR window");

        // DDR3 layout: 1 MiB aux area, then one recv frame buffer per
        // receive-ring slot (the ring keeps one slot more than it posts),
        // then the chunked intermediate-buffer pool.
        let aux_base = ddr.start;
        let recv_bufs = ddr.start + (1 << 20);
        let pool_start = recv_bufs + (RECV_BUFFERS as u64 + 1) * RECV_BUF_SIZE;
        let pool_start = PhysAddr(pool_start.as_u64().div_ceil(CHUNK_SIZE) * CHUNK_SIZE);
        let pool = AddrRange::new(pool_start, ddr.end() - pool_start);

        let configure = ConfigureNic {
            send_ring_base: send_base,
            send_ring_depth: 2048,
            recv_ring_base: recv_base,
            recv_ring_depth: RECV_BUFFERS + 1,
            wb_ring_base: wb_base,
            tx_msi_addr: msi_addr + 8,
            tx_msi_vector: Self::MSI_NIC_TX,
            rx_msi_addr: msi_addr + 16,
            rx_msi_vector: Self::MSI_NIC_RX,
        };

        HdcEngine {
            allocator: ChunkAllocator::new(pool),
            scoreboard: Scoreboard::new(SCOREBOARD_SLOTS),
            ndp: NdpBank::with_target(&NDP_FUNCTIONS, Bandwidth::gbps(config.ndp_target_gbps)),
            config,
            fabric,
            bar,
            port,
            ddr,
            aux_base,
            contexts: DetMap::new(),
            pending_admit: VecDeque::new(),
            ndp_pending: DetMap::new(),
            hostread_pending: DetMap::new(),
            nvme,
            nic: Transport::new(nic, configure, recv_bufs, hdr_area, NIC_COUNTERS),
            connections: Connections::default(),
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
    pub(crate) fn cmd_queue_addr(&self) -> PhysAddr {
        self.bar.start + Self::CMD_QUEUE_OFFSET
    }

    /// Aux-buffer base (the driver DMA-stages aux data here).
    pub(crate) fn aux_base(&self) -> PhysAddr {
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
        for ssd in &self.nvme {
            ctx.send_now(ssd.device(), ssd.attach());
        }
        ctx.send_now(self.nic.device(), self.nic.configure());
        let doorbell = self
            .nic
            .post_recv_buffers(ctx.world().expect_mut::<PhysMemory>());
        dcs_pcie::mmio_write(ctx, 0, doorbell);
    }

    // ------------------------------------------------------------------
    // Command admission.
    // ------------------------------------------------------------------

    fn on_command_write(&mut self, ctx: &mut Ctx<'_>, data: &[u8]) {
        let bytes: [u8; D2dCommand::SIZE] = data.try_into().expect("command writes are 64 bytes");
        match D2dCommand::from_bytes(&bytes) {
            Ok(cmd) => {
                let parse = CMD_PARSE_NS;
                {
                    // The command's trip from the driver ends here.
                    let now = ctx.now();
                    let obs = &mut ctx.world().obs;
                    obs.mark(cmd.id, Category::DeviceControl, now);
                    obs.span("hdc", "cmd-parse", cmd.id, now, now + parse);
                }
                ctx.send_self_in(parse, AdmitCmd { cmd });
            }
            Err(_) => {
                // Parser rejects the command: error completion with the id
                // field read best-effort.
                let id = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
                ctx.world().stats.counter("hdc.cmd_parse_errors").add(1);
                self.contexts.insert(
                    id,
                    CmdCtx {
                        buffers: vec![],
                        digest: None,
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
        // The engine's own resources: SSDs, NDP units and connections.
        let ok = cmd.ops.iter().all(|op| match *op {
            DevOpCode::SsdRead { ssd, .. } | DevOpCode::SsdWrite { ssd, .. } => {
                (ssd as usize) < self.nvme.len()
            }
            DevOpCode::Process { function, .. } => self.ndp.supports(function),
            DevOpCode::NicSend { conn, .. } | DevOpCode::NicRecv { conn, .. } => {
                self.connections.by_id.contains_key(&conn)
            }
            DevOpCode::MemRead { .. } => true,
        });
        let id = cmd.id;
        let context = CmdCtx {
            buffers: vec![buf],
            digest: None,
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
        let dev_cmds: Vec<DevCmd> = cmd
            .ops
            .iter()
            .map(|op| match *op {
                DevOpCode::SsdRead { ssd, lba, len } => DevCmd::NvmeRead {
                    ssd: ssd as usize,
                    lba,
                    len: len as usize,
                    buf: buf.start,
                },
                DevOpCode::SsdWrite { ssd, lba } => DevCmd::NvmeWrite {
                    ssd: ssd as usize,
                    lba,
                    len: 0,
                    buf: buf.start,
                },
                DevOpCode::Process {
                    function,
                    aux_off,
                    aux_len,
                } => DevCmd::Ndp {
                    function,
                    aux: ctx
                        .world_ref()
                        .expect::<PhysMemory>()
                        .read(self.aux_base + aux_off as u64, aux_len as usize),
                    buf: buf.start,
                    len: 0,
                },
                DevOpCode::NicSend { conn, seq } => DevCmd::NicSend {
                    conn,
                    seq,
                    buf: buf.start,
                    len: 0,
                },
                DevOpCode::NicRecv { conn, len } => DevCmd::NicRecv {
                    conn,
                    len: len as usize,
                    buf: buf.start,
                },
                DevOpCode::MemRead { len } => DevCmd::HostRead {
                    len: len as usize,
                    buf: buf.start,
                },
            })
            .collect();
        self.contexts.insert(id, context);
        self.scoreboard
            .admit(id, dev_cmds)
            .expect("room checked above");
        ctx.world().stats.counter("hdc.cmds_admitted").add(1);
        ctx.mark(id, Category::Scoreboard);
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
                .map(|c| c.in_flight() < self.config.nvme_outstanding)
                .collect();
            let nic_room = self.nic.in_flight() < NIC_OUTSTANDING;
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
                    pad_to_blocks(ctx.world().expect_mut::<PhysMemory>(), buf, len);
                    self.issue_nvme(ctx, at, ssd, lba, len, buf, true)
                }
                DevCmd::Ndp {
                    function, buf, len, ..
                } => {
                    let _ = buf;
                    let token = self.token();
                    let done = self.ndp.schedule(ctx.now(), function, len);
                    self.ndp_pending.insert(token, at);
                    let delay = done - ctx.now();
                    let now = ctx.now();
                    ctx.world().obs.span("hdc", "ndp", token, now, done);
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
                    let delay = GATHER_BANDWIDTH.transfer_time(len).max(1);
                    self.hostread_pending.insert(token, at);
                    let now = ctx.now();
                    ctx.world()
                        .obs
                        .span("hdc", "host-read", token, now, now + delay);
                    fill_mem_read(ctx.world().expect_mut::<PhysMemory>(), buf, len);
                    ctx.send_self_in(delay, HostReadDone { token });
                }
                DevCmd::NicRecv { conn, len, buf } => {
                    self.nic.open_recv(ctx.now(), at, conn, len, buf, ());
                    self.drain_recvs(ctx, Vec::new());
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
        write: bool,
    ) {
        let io = NvmeIo {
            req: at,
            write,
            lba,
            len,
            buf,
            issued_at: ctx.now(),
        };
        let ctrl = &mut self.nvme[ssd];
        let tag = ctrl.alloc_cid();
        let doorbell = ctrl.submit(ctx.world().expect_mut::<PhysMemory>(), tag, io);
        // Hardware-speed doorbell: a posted PCIe P2P write, with the
        // scoreboard's bookkeeping as the only added latency.
        dcs_pcie::mmio_write(ctx, SCOREBOARD_STEP_NS, doorbell);
    }

    /// Enters the send in the transport and rings the transmit doorbell;
    /// the entry completes when the transport says so.
    fn issue_nic_send(
        &mut self,
        ctx: &mut Ctx<'_>,
        at: SlotRef,
        conn: u16,
        seq: u32,
        buf: PhysAddr,
        len: usize,
    ) {
        let tx = Transmit {
            flow: self.connections.by_id[&conn].0,
            seq,
            payload: buf,
            len,
            cookie: 0,
        };
        let now = ctx.now();
        let doorbell = self.nic.send(ctx.world(), now, at, conn, tx, ());
        dcs_pcie::mmio_write(ctx, SCOREBOARD_STEP_NS, doorbell);
    }

    // ------------------------------------------------------------------
    // Completions from devices.
    // ------------------------------------------------------------------

    /// Pops every pending CQ entry for one SSD. Called from the CQ MSI
    /// and from the fault watchdog (which thereby recovers completions
    /// whose interrupt was lost).
    fn drain_ssd_cq(&mut self, ctx: &mut Ctx<'_>, ssd: usize) {
        let Some((entries, doorbell)) =
            self.nvme[ssd].drain(ctx.world_ref().expect::<PhysMemory>())
        else {
            return;
        };
        dcs_pcie::mmio_write(ctx, 0, doorbell);
        for entry in entries {
            match self.nvme[ssd].complete(ctx.world(), &entry) {
                // A poisoned entry, or a straggler a controller reset
                // retired: dropped without touching the SQ head.
                Outcome::Unknown => ctx.world().stats.counter("hdc.stale_cqe").add(1),
                // A straggler for a request the watchdog already failed.
                Outcome::Stale => ctx.world().stats.counter("hdc.stale_subop").add(1),
                Outcome::Retried(doorbell) => {
                    dcs_pcie::mmio_write(ctx, SCOREBOARD_STEP_NS, doorbell)
                }
                Outcome::Settled { io, done } => self.nvme_settled(ctx, io, done),
            }
        }
        self.after_progress(ctx);
    }

    /// One NVMe sub-command settled; the scoreboard entry resolves when
    /// its last sub-command does (`done`).
    fn nvme_settled(&mut self, ctx: &mut Ctx<'_>, io: NvmeIo<SlotRef>, done: Option<bool>) {
        let Some(ok) = done else {
            return;
        };
        let id = self.scoreboard.id_of(io.req.slot);
        let cat = if io.write {
            Category::Write
        } else {
            Category::Read
        };
        ctx.mark(id, cat);
        if ok {
            let len = self.scoreboard.op(io.req).len();
            self.scoreboard.mark_done(io.req, len);
        } else {
            self.scoreboard.mark_failed(io.req);
        }
    }

    fn on_ndp_done(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let at = self.ndp_pending.remove(&token).expect("live ndp op");
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
                ctx.mark(id, Category::Hash);
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
        let at = self
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
        ctx.mark(self.scoreboard.id_of(at.slot), Category::DataCopy);
        self.scoreboard.mark_done(at, len);
        self.after_progress(ctx);
    }

    fn on_nic_tx_msi(&mut self, ctx: &mut Ctx<'_>) {
        match self.nic.tx_irq() {
            // A duplicate or late interrupt: nothing was outstanding, or
            // its send already ended.
            TxIrq::Stale => ctx.world().stats.counter("hdc.stale_tx_msi").add(1),
            TxIrq::Pending => {}
            TxIrq::Complete(at, ()) => {
                self.nic_done(ctx, at);
                self.after_progress(ctx);
            }
        }
    }

    /// A send or receive the transport completed: its scoreboard entry is
    /// done.
    fn nic_done(&mut self, ctx: &mut Ctx<'_>, at: SlotRef) {
        ctx.mark(self.scoreboard.id_of(at.slot), Category::Wire);
        let len = self.scoreboard.op(at).len();
        self.scoreboard.mark_done(at, len);
    }

    fn on_nic_rx_msi(&mut self, ctx: &mut Ctx<'_>) {
        // Packet-gathering hardware (§IV-C): scan write-backs, parse
        // headers, and queue the accepted payload bytes for the gather
        // copy.
        let now = ctx.now();
        let batch = self.nic.scan(ctx.world(), now);
        let conns = &self.connections;
        let acks: Vec<(u16, u32)> = batch
            .acks
            .iter()
            .filter_map(|a| Some((conn_of(conns, ctx.world(), &a.flow)?, a.ack)))
            .collect();
        let (frames, acks_out) =
            self.nic
                .accept(ctx.world(), batch.faulty, batch.frames, |w, f| {
                    conn_of(conns, w, f)
                });
        if let Some(doorbell) = batch.repost {
            dcs_pcie::mmio_write(ctx, 0, doorbell);
        }
        for ack in acks_out {
            ctx.send_now(self.nic.device(), ack);
        }
        if !acks.is_empty() {
            for (conn, ack) in acks {
                for (at, ()) in self.nic.on_ack(ctx.world(), conn, ack) {
                    self.nic_done(ctx, at);
                }
            }
            self.after_progress(ctx);
        }
        if frames.is_empty() {
            return;
        }
        // The gather engine copies payloads into contiguous DDR3 at its
        // copy bandwidth.
        let bytes = frames.iter().map(|(_, p)| p.len()).sum();
        let service = GATHER_BANDWIDTH.transfer_time(bytes);
        let done = self.gather_unit.offer(ctx.now(), service);
        let delay = done - ctx.now();
        ctx.send_self_in(delay, GatherDone { frames });
    }

    fn on_gather_done(&mut self, ctx: &mut Ctx<'_>, frames: Vec<(u16, Vec<u8>)>) {
        self.drain_recvs(ctx, frames);
        self.after_progress(ctx);
    }

    /// Lands gathered bytes in the pending receives; a filled receive's
    /// entry is done.
    fn drain_recvs(&mut self, ctx: &mut Ctx<'_>, frames: Vec<(u16, Vec<u8>)>) {
        let now = ctx.now();
        let mem = ctx.world().expect_mut::<PhysMemory>();
        for (at, ()) in self.nic.drain(mem, now, frames, |_, _| {}) {
            self.nic_done(ctx, at);
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
        if !fault::active(ctx.world_ref()) {
            return;
        }
        self.watchdog_armed = true;
        ctx.send_self_in(fault::WATCHDOG_PERIOD_NS, WatchdogTick);
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
        // Silent NVMe requests climb each SSD's ladder: one controller
        // reset while the budget lasts, then clean errors. Sweeps walk
        // maps in insertion order, never hash order (seed
        // reproducibility).
        for ssd in 0..self.nvme.len() {
            let ladder = self.nvme[ssd].ladder(now, &rc);
            if ladder.iter().any(|&(_, step)| step == Rung::Reset) {
                ctx.world().stats.counter("hdc.nvme_resets").add(1);
                let ctrl = &mut self.nvme[ssd];
                let (attach, doorbell) = ctrl.reset(ctx.world().expect_mut::<PhysMemory>(), now);
                ctx.send_now(ctrl.device(), attach);
                dcs_pcie::mmio_write(ctx, SCOREBOARD_STEP_NS, doorbell);
            }
            for (at, _) in ladder.into_iter().filter(|&(_, step)| step == Rung::Fail) {
                self.nvme[ssd].abandon(&at);
                fault::exhausted(ctx.world(), fault::MSI_LOSS);
                ctx.world().stats.counter("hdc.nvme_timeouts").add(1);
                self.scoreboard.mark_failed(at);
            }
        }
        // Sends take the send ladder's next rung, in slot order.
        for at in self.nic.send_ids() {
            match self.nic.check_send(ctx.world(), at, now, &rc) {
                Some(SendCheck::Complete(())) => self.nic_done(ctx, at),
                Some(SendCheck::Retransmit(doorbell, _)) => {
                    dcs_pcie::mmio_write(ctx, SCOREBOARD_STEP_NS, doorbell);
                }
                Some(SendCheck::Fail(())) => {
                    ctx.world().stats.counter("hdc.send_failures").add(1);
                    self.scoreboard.mark_failed(at);
                }
                Some(SendCheck::Wait(_)) | None => {}
            }
        }
        // Receives the stall test finds stalled: the sender gave up (or
        // never existed); fail them cleanly.
        let limit = dcs_nvme::ladder_bound_ns(&rc);
        for at in self.nic.recv_ids() {
            if let Some(RecvCheck::Failed(())) = self.nic.check_recv(ctx.world(), at, now, limit) {
                self.scoreboard.mark_failed(at);
            }
        }
        self.after_progress(ctx);
        if !self.contexts.is_empty() || !self.pending_admit.is_empty() {
            ctx.send_self_in(fault::WATCHDOG_PERIOD_NS, WatchdogTick);
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
        let context = &self.contexts[&id];
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
            // Fault-free, the last op marked this instant; under fault
            // injection the watchdog may settle a stalled op later.
            let now = ctx.now();
            let obs = &mut ctx.world().obs;
            obs.mark(id, Category::Other, now);
            obs.span_begin("hdc", "completion-dma", id, now);
        }
        // Write the record to the host ring; the MSI follows the DMA
        // completion.
        let dma = CompDma {
            id,
            dst: slot,
            record: record.to_bytes(),
            attempts: 0,
        };
        self.write_record(ctx, COMPLETION_WRITE_NS, dma);
        ctx.world().stats.counter("hdc.completions").add(1);
    }

    /// Posts `dma`'s record to its host ring slot after `delay`.
    fn write_record(&mut self, ctx: &mut Ctx<'_>, delay: u64, dma: CompDma) {
        let token = self.token();
        let req = DmaRequest {
            id: token,
            op: DmaOp::Write {
                port: self.port,
                dst: dma.dst,
                data: dma.record.to_vec(),
            },
            class: TlpClass::Completion,
        };
        self.comp_dmas.insert(token, dma);
        dcs_pcie::dma_in(ctx, delay, self.fabric, req);
    }

    fn on_completion_dma_done(&mut self, ctx: &mut Ctx<'_>, done: DmaComplete) {
        let done = done.land(ctx.world());
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
                // The engine's copy of the record is intact: rewrite the
                // host ring slot once before giving the record up for lost.
                ctx.world().stats.counter("hdc.completion_rewrites").add(1);
                self.write_record(ctx, 0, CompDma { attempts: 1, ..dma });
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
            obs.mark(id, Category::RequestCompletion, now);
        }
        if let Some(context) = self.contexts.remove(&id) {
            for b in &context.buffers {
                self.allocator.free(*b);
            }
        }
        dcs_pcie::msi(
            ctx,
            Msi {
                addr: init.msi_addr,
                vector: init.msi_vector,
            },
        );
        // Buffer space freed: retry queued admissions.
        self.after_progress(ctx);
    }
}

/// The registered connections, indexed by flow for the receive path.
#[derive(Default)]
struct Connections {
    /// Each connection's flow and initial sequence number.
    by_id: DetMap<u16, (TcpFlow, u32)>,
    /// The smallest connection id registered on each flow, in either
    /// direction.
    by_flow: DetMap<TcpFlow, u16>,
}

impl Connections {
    /// Registers connection `reg.conn`. Re-registering an id on a new
    /// flow rebuilds the flow index, so the old flow no longer names it.
    fn register(&mut self, reg: RegisterConnection) {
        let old = self.by_id.insert(reg.conn, (reg.flow, reg.seq));
        if old.is_some_and(|(flow, _)| flow != reg.flow) {
            self.by_flow.clear();
            for (&conn, &(flow, _)) in self.by_id.iter() {
                index(&mut self.by_flow, conn, flow);
            }
        } else {
            index(&mut self.by_flow, reg.conn, reg.flow);
        }
    }
}

/// Indexes connection `conn` under `flow` in both directions, keeping
/// the smallest id per flow.
fn index(by_flow: &mut DetMap<TcpFlow, u16>, conn: u16, flow: TcpFlow) {
    for f in [flow, flow.reversed()] {
        let c = by_flow.entry(f).or_insert(conn);
        *c = (*c).min(conn);
    }
}

/// The registered connection a frame belongs to (the engine receives on
/// the *destination* side of flows): the smallest id on its flow.
fn conn_of(conns: &Connections, world: &mut World, flow: &TcpFlow) -> Option<u16> {
    let conn = conns.by_flow.get(flow).copied();
    if conn.is_none() {
        world.stats.counter("hdc.rx_unknown_flow").add(1);
    }
    conn
}

impl Component for HdcEngine {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        // Per-frame payloads first: every downcast that misses costs a
        // type check.
        let msg = match msg.downcast::<MsiDelivery>() {
            Ok(d) => {
                match d.vector {
                    v if (Self::MSI_SSD_BASE..Self::MSI_SSD_BASE + 32).contains(&v) => {
                        self.drain_ssd_cq(ctx, (v - Self::MSI_SSD_BASE) as usize)
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
        let msg = match msg.downcast::<GatherDone>() {
            Ok(GatherDone { frames, .. }) => {
                self.on_gather_done(ctx, frames);
                return;
            }
            Err(m) => m,
        };
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
            Ok(reg) => return self.connections.register(reg),
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
        let msg = match msg.downcast::<WatchdogTick>() {
            Ok(WatchdogTick) => {
                self.on_watchdog(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<DmaStart>() {
            Ok(start) => return start.book(ctx),
            Err(m) => m,
        };
        match msg.downcast::<DmaComplete>() {
            Ok(done) => self.on_completion_dma_done(ctx, done),
            Err(other) => panic!("HdcEngine received unexpected message: {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_sim::Rng;

    /// The flow lookup answers what a scan of every registration does:
    /// the smallest id whose flow matches in either direction, also
    /// after ids are re-registered on other flows.
    #[test]
    fn the_flow_index_matches_a_scan_of_the_registrations() {
        let mut rng = Rng::new(0xC0_22);
        let flows: Vec<TcpFlow> = (0..6)
            .map(|i| TcpFlow::example(1, 2, 4000 + i, 80))
            .collect();
        let mut conns = Connections::default();
        let mut world = World::new(1);
        let mut unknown = 0;
        for _ in 0..500 {
            let conn = rng.gen_range(0..8) as u16;
            let flow = flows[rng.gen_range(0..flows.len() as u64) as usize];
            let flow = if rng.gen_bool(0.5) {
                flow
            } else {
                flow.reversed()
            };
            conns.register(RegisterConnection { conn, flow, seq: 0 });
            for f in flows.iter().flat_map(|f| [*f, f.reversed()]) {
                let scan = conns
                    .by_id
                    .iter()
                    .filter(|(_, (g, _))| g.reversed() == f || *g == f)
                    .map(|(c, _)| *c)
                    .min();
                assert_eq!(conn_of(&conns, &mut world, &f), scan);
                unknown += u64::from(scan.is_none());
            }
        }
        assert!(unknown > 0);
        assert_eq!(world.stats.counter_value("hdc.rx_unknown_flow"), unknown);
    }
}
