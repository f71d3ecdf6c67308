//! The NVMe SSD device component.
//!
//! Models the drive side of the NVMe contract against any initiator (host
//! driver or HDC Engine NVMe controller):
//!
//! 1. Initiator writes a 64-byte command into the submission queue (in its
//!    own memory) and rings the SQ tail doorbell (MMIO into the drive BAR).
//! 2. The drive DMA-reads the new entries, parses them, and validates
//!    opcode / LBA range / PRP alignment exactly as hardware would.
//! 3. Reads: flash access (latency + bandwidth pipeline) then DMA of the
//!    data to the PRP pages (fetching the external PRP list first when one
//!    is used). Writes: DMA the data in, then flash program time.
//! 4. The drive DMA-writes a 16-byte completion entry (phase tag managed
//!    per queue) and raises an MSI at the queue's configured address.
//!
//! Timing defaults follow the Intel SSD 750 of Table V: 17.2 Gbps reads,
//! 7.2 Gbps writes.

use dcs_sim::DetMap;

use dcs_pcie::{
    aer, AddrRange, DmaComplete, DmaRequest, MmioWrite, Msi, PhysAddr, PhysMemory, PortId, TlpClass,
};
use dcs_sim::{time, Bandwidth, Component, ComponentId, Ctx, FifoServer, Msg, Simulator};

use crate::spec::{
    NvmeCommand, NvmeCompletion, NvmeOpcode, NvmeStatus, PrpList, LBA_SIZE, PAGE_SIZE,
};

/// Timing and capacity parameters of the SSD model.
#[derive(Clone, Debug)]
pub struct NvmeConfig {
    /// Sequential read bandwidth out of flash.
    pub read_bandwidth: Bandwidth,
    /// Sequential write (program) bandwidth into flash.
    pub write_bandwidth: Bandwidth,
    /// Access latency before read data starts flowing, in ns.
    pub read_latency_ns: u64,
    /// Program latency charged after write data arrives, in ns.
    pub write_latency_ns: u64,
    /// Controller-side fixed overhead per command (fetch/parse/complete).
    pub command_overhead_ns: u64,
    /// Namespace capacity in logical blocks.
    pub capacity_lbas: u64,
    /// Largest data transfer a single command may carry, in bytes (MDTS).
    pub max_transfer: usize,
}

impl Default for NvmeConfig {
    fn default() -> Self {
        NvmeConfig {
            read_bandwidth: Bandwidth::gbps(17.2),
            write_bandwidth: Bandwidth::gbps(7.2),
            read_latency_ns: time::us(14),
            write_latency_ns: time::us(18),
            command_overhead_ns: 700,
            // 400 GB at 4 KiB blocks.
            capacity_lbas: 400_000_000_000 / LBA_SIZE,
            max_transfer: 1 << 20,
        }
    }
}

/// Registers an I/O queue pair with the device.
///
/// In real hardware this handshake runs over the admin queue
/// (Create I/O CQ / Create I/O SQ commands); the model condenses it into
/// one configuration message carrying the same parameters, sent by the
/// initiator before first use.
#[derive(Debug, Clone, Copy)]
pub struct AttachQueuePair {
    /// Queue identifier (1-based; the admin queue is not modeled).
    pub qid: u16,
    /// Submission ring base (in the initiator's memory).
    pub sq_base: PhysAddr,
    /// Completion ring base.
    pub cq_base: PhysAddr,
    /// Entries in each ring.
    pub depth: u16,
    /// MSI target address for completions on this queue.
    pub msi_addr: PhysAddr,
    /// MSI vector for completions on this queue.
    pub msi_vector: u32,
}

/// Everything a scenario needs to talk to an installed SSD.
#[derive(Debug, Clone)]
pub struct NvmeHandle {
    /// The device component.
    pub device: ComponentId,
    /// The device's register BAR (doorbells live here).
    pub bar: AddrRange,
    /// The flash backing region (tests pre-populate data here).
    pub flash: AddrRange,
    /// The PCIe port the device occupies.
    pub port: PortId,
    /// Largest transfer one command may carry, in bytes (the drive's
    /// advertised MDTS, [`NvmeConfig::max_transfer`]). Initiators split
    /// larger requests at this size.
    pub max_transfer: usize,
}

impl NvmeHandle {
    /// Address of the SQ tail doorbell for queue `qid`.
    pub fn sq_doorbell(&self, qid: u16) -> PhysAddr {
        self.bar.start + 0x1000 + (qid as u64) * 8
    }

    /// Address of the CQ head doorbell for queue `qid`.
    pub fn cq_doorbell(&self, qid: u16) -> PhysAddr {
        self.bar.start + 0x1000 + (qid as u64) * 8 + 4
    }

    /// Physical flash address of a logical block.
    pub fn lba_addr(&self, lba: u64) -> PhysAddr {
        self.flash.start + lba * LBA_SIZE
    }
}

struct QueuePair {
    sq_base: PhysAddr,
    cq_base: PhysAddr,
    depth: u16,
    msi_addr: PhysAddr,
    msi_vector: u32,
    /// Device-side SQ head (next entry to fetch).
    sq_head: u16,
    /// Last tail value written to the doorbell.
    sq_tail: u16,
    /// Device-side CQ tail (next completion slot).
    cq_tail: u16,
    /// Phase tag for the current CQ pass.
    cq_phase: bool,
    /// CQ head as reported by the initiator's head doorbell.
    cq_head: u16,
}

impl QueuePair {
    fn cq_free(&self) -> u16 {
        self.depth - 1 - (self.cq_tail.wrapping_sub(self.cq_head) % self.depth)
    }
}

/// Device-internal operation state.
enum OpPhase {
    /// Waiting for the 64-byte SQ entry DMA.
    FetchEntry,
    /// Waiting for the external PRP-list page DMA.
    FetchPrpList { cmd: NvmeCommand },
    /// Waiting for flash read access; data DMA comes next.
    FlashRead {
        cmd: NvmeCommand,
        pages: Vec<PhysAddr>,
    },
    /// Waiting for data DMA(s); `remaining` counts outstanding segments,
    /// `tainted` whether any segment landed poisoned (the command then
    /// completes with a data-transfer error once all segments settle).
    DataTransfer {
        cmd: NvmeCommand,
        remaining: usize,
        tainted: bool,
    },
    /// Waiting for flash program time (writes).
    FlashWrite { cmd: NvmeCommand },
    /// Waiting for the completion-entry DMA; MSI follows. `slot` is the
    /// initiator-CQ destination (kept for one rewrite if the entry DMA
    /// lands poisoned), `attempts` how many rewrites happened already.
    WriteCompletion {
        qid: u16,
        slot: PhysAddr,
        attempts: u8,
    },
}

struct Op {
    qid: u16,
    phase: OpPhase,
}

/// Internal: flash access finished for token.
#[derive(Debug)]
struct FlashDone {
    token: u64,
}

/// The SSD component.
pub struct NvmeDevice {
    config: NvmeConfig,
    fabric: ComponentId,
    bar: AddrRange,
    flash: AddrRange,
    /// Scratch area inside the BAR region used to land SQ-entry and
    /// PRP-list fetches (device-internal SRAM).
    scratch: PhysAddr,
    queues: DetMap<u16, QueuePair>,
    ops: DetMap<u64, Op>,
    next_token: u64,
    flash_read_unit: FifoServer,
    flash_write_unit: FifoServer,
}

impl NvmeDevice {
    /// Creates the device.
    ///
    /// The caller supplies pre-allocated `bar` and `flash` regions (see
    /// [`install_nvme`] for the standard wiring).
    pub fn new(config: NvmeConfig, fabric: ComponentId, bar: AddrRange, flash: AddrRange) -> Self {
        // Scratch: upper half of the BAR page space, far from doorbells.
        let scratch = bar.start + bar.len / 2;
        NvmeDevice {
            config,
            fabric,
            bar,
            flash,
            scratch,
            queues: DetMap::new(),
            ops: DetMap::new(),
            next_token: 1,
            flash_read_unit: FifoServer::new(),
            flash_write_unit: FifoServer::new(),
        }
    }

    fn token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        t
    }

    fn scratch_for(&self, token: u64) -> PhysAddr {
        // 8 KiB of scratch per outstanding op, recycled modulo 64 ops.
        self.scratch + (token % 64) * 8192
    }

    fn on_doorbell(&mut self, ctx: &mut Ctx<'_>, write: &MmioWrite) {
        let off = write.addr - self.bar.start;
        assert!(off >= 0x1000, "write to unmodeled register {off:#x}");
        let db_index = (off - 0x1000) / 8;
        let qid = db_index as u16;
        let is_cq = (off - 0x1000) % 8 == 4;
        let value = u32::from_le_bytes(
            write
                .data
                .as_slice()
                .try_into()
                .expect("doorbell writes are 4 bytes"),
        ) as u16;
        if is_cq {
            if let Some(qp) = self.queues.get_mut(&qid) {
                qp.cq_head = value % qp.depth;
            }
            return;
        }
        let (sq_base, depth) = {
            let Some(qp) = self.queues.get_mut(&qid) else {
                panic!("doorbell for unattached queue {qid}");
            };
            qp.sq_tail = value % qp.depth;
            (qp.sq_base, qp.depth)
        };
        // Fetch every not-yet-fetched entry.
        loop {
            let slot = {
                let qp = self.queues.get_mut(&qid).expect("checked above");
                if qp.sq_head == qp.sq_tail {
                    break;
                }
                let slot = sq_base + qp.sq_head as u64 * NvmeCommand::SIZE as u64;
                qp.sq_head = (qp.sq_head + 1) % depth;
                slot
            };
            let token = self.token();
            let dst = self.scratch_for(token);
            self.ops.insert(
                token,
                Op {
                    qid,
                    phase: OpPhase::FetchEntry,
                },
            );
            {
                let now = ctx.now();
                let obs = &mut ctx.world().obs;
                obs.span_begin("nvme", "doorbell-fetch", token, now);
                obs.count("nvme", "sq.fetches", 1);
            }
            let req = DmaRequest {
                id: token,
                src: slot,
                dst,
                len: NvmeCommand::SIZE,
                class: TlpClass::Data,
                reply_to: ctx.self_id(),
            };
            let fabric = self.fabric;
            ctx.send_in(self.config.command_overhead_ns / 2, fabric, req);
        }
    }

    fn complete(&mut self, ctx: &mut Ctx<'_>, token: u64, qid: u16, cid: u16, status: NvmeStatus) {
        let qp = self
            .queues
            .get_mut(&qid)
            .expect("completing on attached queue");
        assert!(qp.cq_free() > 0, "completion queue overflow on queue {qid}");
        let entry = NvmeCompletion {
            sq_head: qp.sq_head,
            sq_id: qid,
            cid,
            phase: qp.cq_phase,
            status,
        };
        let slot = qp.cq_base + qp.cq_tail as u64 * NvmeCompletion::SIZE as u64;
        qp.cq_tail += 1;
        if qp.cq_tail == qp.depth {
            qp.cq_tail = 0;
            qp.cq_phase = !qp.cq_phase;
        }
        {
            let now = ctx.now();
            ctx.world().obs.span_begin("nvme", "cq-write", token, now);
        }
        // Stage the entry in scratch, then DMA it to the initiator's CQ.
        let staging = self.scratch_for(token) + 4096;
        ctx.world()
            .expect_mut::<PhysMemory>()
            .write(staging, &entry.to_bytes());
        self.ops.insert(
            token,
            Op {
                qid,
                phase: OpPhase::WriteCompletion {
                    qid,
                    slot,
                    attempts: 0,
                },
            },
        );
        let req = DmaRequest {
            id: token,
            src: staging,
            dst: slot,
            len: NvmeCompletion::SIZE,
            class: TlpClass::Completion,
            reply_to: ctx.self_id(),
        };
        let fabric = self.fabric;
        ctx.send_in(self.config.command_overhead_ns / 2, fabric, req);
    }

    fn on_entry_fetched(&mut self, ctx: &mut Ctx<'_>, token: u64, qid: u16) {
        let raw: [u8; NvmeCommand::SIZE] = ctx
            .world_ref()
            .expect::<PhysMemory>()
            .read(self.scratch_for(token), NvmeCommand::SIZE)
            .try_into()
            .expect("64 bytes");
        let Some(cmd) = NvmeCommand::from_bytes(&raw) else {
            // cid sits at a fixed offset even in unknown commands.
            let cid = u16::from_le_bytes([raw[2], raw[3]]);
            self.complete(ctx, token, qid, cid, NvmeStatus::InvalidOpcode);
            return;
        };
        // Validate.
        let len = cmd.transfer_len();
        if cmd.slba + cmd.nlb as u64 + 1 > self.config.capacity_lbas
            || len > self.config.max_transfer
        {
            self.complete(ctx, token, qid, cmd.cid, NvmeStatus::LbaOutOfRange);
            return;
        }
        if cmd.opcode == NvmeOpcode::Flush {
            self.complete(ctx, token, qid, cmd.cid, NvmeStatus::Success);
            return;
        }
        let pages = (len as u64).div_ceil(PAGE_SIZE);
        if pages > 2 {
            // External PRP list: fetch it first.
            let list_len = (pages as usize - 1) * 8;
            let dst = self.scratch_for(token) + 2048;
            self.ops.insert(
                token,
                Op {
                    qid,
                    phase: OpPhase::FetchPrpList { cmd },
                },
            );
            let req = DmaRequest {
                id: token,
                src: cmd.prp2,
                dst,
                len: list_len,
                class: TlpClass::Data,
                reply_to: ctx.self_id(),
            };
            let fabric = self.fabric;
            ctx.send_now(fabric, req);
        } else {
            self.start_data_phase(ctx, token, qid, cmd, vec![]);
        }
    }

    fn on_prp_list_fetched(&mut self, ctx: &mut Ctx<'_>, token: u64, qid: u16, cmd: NvmeCommand) {
        let pages = (cmd.transfer_len() as u64).div_ceil(PAGE_SIZE);
        let raw = ctx
            .world_ref()
            .expect::<PhysMemory>()
            .read(self.scratch_for(token) + 2048, (pages as usize - 1) * 8);
        let list = PrpList::parse_list(&raw, pages as usize - 1);
        self.start_data_phase(ctx, token, qid, cmd, list);
    }

    fn start_data_phase(
        &mut self,
        ctx: &mut Ctx<'_>,
        token: u64,
        qid: u16,
        cmd: NvmeCommand,
        list: Vec<PhysAddr>,
    ) {
        let len = cmd.transfer_len();
        let Some(pages) = PrpList::data_pages(cmd.prp1, cmd.prp2, &list, len) else {
            self.complete(ctx, token, qid, cmd.cid, NvmeStatus::InvalidPrp);
            return;
        };
        if pages[0].as_u64() % PAGE_SIZE != 0 {
            // The model requires page-aligned buffers throughout.
            self.complete(ctx, token, qid, cmd.cid, NvmeStatus::InvalidPrp);
            return;
        }
        match cmd.opcode {
            NvmeOpcode::Read => {
                // Flash access: latency + bandwidth-serialized streaming.
                let service = self.config.read_bandwidth.transfer_time(len);
                let ser_done = self.flash_read_unit.offer(ctx.now(), service);
                let done = ser_done.max(ctx.now() + self.config.read_latency_ns);
                self.ops.insert(
                    token,
                    Op {
                        qid,
                        phase: OpPhase::FlashRead { cmd, pages },
                    },
                );
                let delay = done - ctx.now();
                {
                    let now = ctx.now();
                    let obs = &mut ctx.world().obs;
                    obs.span("nvme", "flash-read", token, now, done);
                    obs.observe("nvme", "flash.read_ns", delay);
                }
                ctx.send_self_in(delay, FlashDone { token });
            }
            NvmeOpcode::Write => {
                // Pull the data in first.
                let runs = PrpList::coalesce(&pages, len);
                let flash_base = self.flash.start + cmd.slba * LBA_SIZE;
                let remaining = runs.len();
                self.ops.insert(
                    token,
                    Op {
                        qid,
                        phase: OpPhase::DataTransfer {
                            cmd,
                            remaining,
                            tainted: false,
                        },
                    },
                );
                {
                    let now = ctx.now();
                    ctx.world()
                        .obs
                        .span_begin("nvme", "data-transfer", token, now);
                }
                let mut off = 0u64;
                let fabric = self.fabric;
                let me = ctx.self_id();
                for (addr, run_len) in runs {
                    let req = DmaRequest {
                        id: token,
                        src: addr,
                        dst: flash_base + off,
                        len: run_len,
                        class: TlpClass::Data,
                        reply_to: me,
                    };
                    ctx.send_now(fabric, req);
                    off += run_len as u64;
                }
            }
            NvmeOpcode::Flush => unreachable!("handled before the data phase"),
        }
    }

    fn on_flash_read_done(
        &mut self,
        ctx: &mut Ctx<'_>,
        token: u64,
        qid: u16,
        cmd: NvmeCommand,
        pages: Vec<PhysAddr>,
    ) {
        // Data is in the internal buffer; DMA it out to the PRP pages.
        let len = cmd.transfer_len();
        let runs = PrpList::coalesce(&pages, len);
        let flash_base = self.flash.start + cmd.slba * LBA_SIZE;
        let remaining = runs.len();
        self.ops.insert(
            token,
            Op {
                qid,
                phase: OpPhase::DataTransfer {
                    cmd,
                    remaining,
                    tainted: false,
                },
            },
        );
        {
            let now = ctx.now();
            ctx.world()
                .obs
                .span_begin("nvme", "data-transfer", token, now);
        }
        let mut off = 0u64;
        let fabric = self.fabric;
        let me = ctx.self_id();
        for (addr, run_len) in runs {
            let req = DmaRequest {
                id: token,
                src: flash_base + off,
                dst: addr,
                len: run_len,
                class: TlpClass::Data,
                reply_to: me,
            };
            ctx.send_now(fabric, req);
            off += run_len as u64;
        }
    }

    fn on_data_segment_done(
        &mut self,
        ctx: &mut Ctx<'_>,
        token: u64,
        qid: u16,
        cmd: NvmeCommand,
        remaining: usize,
        tainted: bool,
    ) {
        if remaining > 0 {
            self.ops.insert(
                token,
                Op {
                    qid,
                    phase: OpPhase::DataTransfer {
                        cmd,
                        remaining,
                        tainted,
                    },
                },
            );
            return;
        }
        {
            let now = ctx.now();
            ctx.world()
                .obs
                .span_end("nvme", "data-transfer", token, now);
        }
        if tainted {
            // Poison followed the data: at least one segment is not
            // trustworthy, so the command must not succeed (and a write
            // must not program poisoned bytes as durable). The status is
            // retryable — the initiator resubmits the whole command.
            ctx.world()
                .stats
                .counter("nvme.data_transfer_errors")
                .add(1);
            self.complete(ctx, token, qid, cmd.cid, NvmeStatus::DataTransferError);
            return;
        }
        match cmd.opcode {
            NvmeOpcode::Read => {
                self.complete(ctx, token, qid, cmd.cid, NvmeStatus::Success);
            }
            NvmeOpcode::Write => {
                let service = self
                    .config
                    .write_bandwidth
                    .transfer_time(cmd.transfer_len());
                let ser_done = self.flash_write_unit.offer(ctx.now(), service);
                let done = ser_done.max(ctx.now() + self.config.write_latency_ns);
                self.ops.insert(
                    token,
                    Op {
                        qid,
                        phase: OpPhase::FlashWrite { cmd },
                    },
                );
                let delay = done - ctx.now();
                {
                    let now = ctx.now();
                    let obs = &mut ctx.world().obs;
                    obs.span("nvme", "flash-write", token, now, done);
                    obs.observe("nvme", "flash.write_ns", delay);
                }
                ctx.send_self_in(delay, FlashDone { token });
            }
            NvmeOpcode::Flush => unreachable!(),
        }
    }
}

impl Component for NvmeDevice {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if let Some(write) = msg.get::<MmioWrite>() {
            let write = write.clone();
            self.on_doorbell(ctx, &write);
            return;
        }
        let msg = match msg.downcast::<AttachQueuePair>() {
            Ok(att) => {
                assert!(att.qid != 0, "admin queue (qid 0) is not modeled");
                let prev = self.queues.insert(
                    att.qid,
                    QueuePair {
                        sq_base: att.sq_base,
                        cq_base: att.cq_base,
                        depth: att.depth,
                        msi_addr: att.msi_addr,
                        msi_vector: att.msi_vector,
                        sq_head: 0,
                        sq_tail: 0,
                        cq_tail: 0,
                        cq_phase: true,
                        cq_head: 0,
                    },
                );
                if prev.is_some() {
                    // Re-attaching a live queue is a controller reset for
                    // that qid: every in-flight op on it is abandoned (its
                    // late flash/DMA completions land as stale and are
                    // dropped) and the ring state starts over. The host
                    // driver resubmits whatever it still cares about.
                    let stale: Vec<u64> = self
                        .ops
                        .iter()
                        .filter(|(_, op)| op.qid == att.qid)
                        .map(|(&t, _)| t)
                        .collect();
                    let aborted = stale.len() as u64;
                    for t in stale {
                        self.ops.remove(&t);
                    }
                    let now = ctx.now();
                    let world = ctx.world();
                    world.stats.counter("nvme.resets").add(1);
                    world.stats.counter("nvme.reset_aborted_ops").add(aborted);
                    aer::record(
                        world,
                        now.as_nanos(),
                        u64::from(att.qid),
                        "nvme.reset",
                        aer::AerKind::DeviceReset,
                    );
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<FlashDone>() {
            Ok(FlashDone { token }) => {
                let Some(op) = self.ops.remove(&token) else {
                    // The op was abandoned by a controller reset while the
                    // flash access was in flight.
                    ctx.world().stats.counter("nvme.stale_completions").add(1);
                    return;
                };
                match op.phase {
                    OpPhase::FlashRead { cmd, pages } => {
                        if dcs_sim::fault::inject(ctx.world(), dcs_sim::fault::NVME_MEDIA).is_some()
                        {
                            // Unrecovered read error from the medium: no
                            // data moves; the host sees a retryable status
                            // and may resubmit the command.
                            ctx.world().stats.counter("nvme.media_errors").add(1);
                            self.complete(ctx, token, op.qid, cmd.cid, NvmeStatus::MediaError);
                            return;
                        }
                        self.on_flash_read_done(ctx, token, op.qid, cmd, pages)
                    }
                    OpPhase::FlashWrite { cmd } => {
                        self.complete(ctx, token, op.qid, cmd.cid, NvmeStatus::Success)
                    }
                    _ => panic!("FlashDone in unexpected phase"),
                }
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<DmaComplete>() {
            Ok(done) => {
                let token = done.id;
                let Some(op) = self.ops.remove(&token) else {
                    // Late completion for an op a controller reset dropped.
                    ctx.world().stats.counter("nvme.stale_completions").add(1);
                    return;
                };
                match op.phase {
                    OpPhase::FetchEntry => {
                        let now = ctx.now();
                        ctx.world()
                            .obs
                            .span_end("nvme", "doorbell-fetch", token, now);
                        if !done.status.is_ok() {
                            // The fetched SQ entry is poison or never
                            // arrived: parsing it would act on garbage
                            // opcodes and addresses. Drop the command; the
                            // host's per-command timeout resubmits it.
                            ctx.world().stats.counter("nvme.poisoned_fetches").add(1);
                            return;
                        }
                        self.on_entry_fetched(ctx, token, op.qid)
                    }
                    OpPhase::FetchPrpList { cmd } => {
                        if !done.status.is_ok() {
                            // A poisoned PRP list is a pile of garbage
                            // addresses; never walk it. We still know the
                            // command's cid, so fail it cleanly instead.
                            ctx.world().stats.counter("nvme.poisoned_prp_lists").add(1);
                            self.complete(
                                ctx,
                                token,
                                op.qid,
                                cmd.cid,
                                NvmeStatus::DataTransferError,
                            );
                            return;
                        }
                        self.on_prp_list_fetched(ctx, token, op.qid, cmd)
                    }
                    OpPhase::DataTransfer {
                        cmd,
                        remaining,
                        tainted,
                    } => {
                        let tainted = tainted || !done.status.is_ok();
                        self.on_data_segment_done(ctx, token, op.qid, cmd, remaining - 1, tainted)
                    }
                    OpPhase::WriteCompletion {
                        qid,
                        slot,
                        attempts,
                    } => {
                        if !done.status.is_ok() {
                            if attempts == 0 {
                                // The CQE itself was poisoned or timed out.
                                // Rewrite it once from the staged copy —
                                // the staging buffer still holds the good
                                // entry — before giving up.
                                ctx.world().stats.counter("nvme.cqe_rewrites").add(1);
                                self.ops.insert(
                                    token,
                                    Op {
                                        qid,
                                        phase: OpPhase::WriteCompletion {
                                            qid,
                                            slot,
                                            attempts: 1,
                                        },
                                    },
                                );
                                let req = DmaRequest {
                                    id: token,
                                    src: self.scratch_for(token) + 4096,
                                    dst: slot,
                                    len: NvmeCompletion::SIZE,
                                    class: TlpClass::Completion,
                                    reply_to: ctx.self_id(),
                                };
                                let fabric = self.fabric;
                                ctx.send_now(fabric, req);
                                return;
                            }
                            // Rewrite failed too: the CQE is lost. No MSI —
                            // the host driver's reset ladder recovers the
                            // whole queue.
                            ctx.world().stats.counter("nvme.cqe_lost").add(1);
                            return;
                        }
                        // Entry landed in the initiator's CQ: raise the MSI.
                        let qp = &self.queues[&qid];
                        let msi = Msi {
                            addr: qp.msi_addr,
                            vector: qp.msi_vector,
                        };
                        let fabric = self.fabric;
                        ctx.send_now(fabric, msi);
                        ctx.world().stats.counter("nvme.completions").add(1);
                        {
                            let now = ctx.now();
                            let obs = &mut ctx.world().obs;
                            obs.span_end("nvme", "cq-write", token, now);
                            obs.count("nvme", "cmd.completed", 1);
                        }
                    }
                    OpPhase::FlashRead { .. } | OpPhase::FlashWrite { .. } => {
                        panic!("DmaComplete in flash phase")
                    }
                }
            }
            Err(other) => panic!("NvmeDevice received unexpected message: {other:?}"),
        }
    }
}

/// Allocates regions, claims the BAR, and installs an SSD on `port`.
///
/// The standard wiring every scenario uses; returns the handle with the
/// device id and region addresses.
pub fn install_nvme(
    sim: &mut Simulator,
    fabric: ComponentId,
    config: NvmeConfig,
    name: &str,
    port: PortId,
) -> NvmeHandle {
    let capacity_bytes = config.capacity_lbas * LBA_SIZE;
    let max_transfer = config.max_transfer;
    let (bar, flash) = {
        let mem = sim.world_mut().expect_mut::<PhysMemory>();
        let bar = mem.alloc_region(&format!("{name}-bar"), 1 << 20, port);
        let flash = mem.alloc_region(&format!("{name}-flash"), capacity_bytes, port);
        (bar, flash)
    };
    let id = sim.add(name, NvmeDevice::new(config, fabric, bar, flash));
    sim.world_mut()
        .expect_mut::<dcs_pcie::MmioRouting>()
        .claim(AddrRange::new(bar.start, 0x2000), id);
    NvmeHandle {
        device: id,
        bar,
        flash,
        port,
        max_transfer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{CompletionQueueReader, SubmissionQueueWriter};
    use dcs_pcie::{MmioRouting, PcieConfig, PcieFabric};
    use dcs_sim::{FaultPlan, FaultSpec, RecoveryConfig, Rng};

    /// A minimal initiator driving the SSD directly (stands in for the
    /// host driver / HDC controller in these unit tests).
    struct Initiator {
        completions: Vec<NvmeCompletion>,
        cq: CompletionQueueReader,
    }

    impl Component for Initiator {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            if msg.get::<dcs_pcie::MsiDelivery>().is_some() {
                let popped = {
                    let mem = ctx.world_ref().expect::<PhysMemory>();
                    let mut out = vec![];
                    while let Some(e) = self.cq.pop(mem) {
                        out.push(e);
                    }
                    out
                };
                for e in popped {
                    ctx.world().stats.counter("init.completions").add(1);
                    if e.status.is_ok() {
                        ctx.world().stats.counter("init.ok").add(1);
                    }
                    self.completions.push(e);
                }
            }
        }
    }

    struct Bench {
        sim: Simulator,
        handle: NvmeHandle,
        fabric: ComponentId,
        initiator: ComponentId,
        sq: SubmissionQueueWriter,
        rings: AddrRange,
    }

    fn setup() -> Bench {
        let mut sim = Simulator::new(1);
        sim.world_mut().insert(PhysMemory::new());
        sim.world_mut().insert(MmioRouting::new());
        let fabric = sim.add("pcie", PcieFabric::new(PcieConfig::default()));
        let cfg = NvmeConfig {
            capacity_lbas: 1 << 20,
            ..NvmeConfig::default()
        };
        let handle = install_nvme(&mut sim, fabric, cfg, "ssd0", PortId(1));
        // Rings + data buffers live in a "host" region on the root port.
        let rings =
            sim.world_mut()
                .expect_mut::<PhysMemory>()
                .alloc_region("host", 1 << 22, PortId::ROOT);
        let sq_base = rings.start;
        let cq_base = rings.start + 64 * 64;
        let msi_addr = rings.start + 0x10000;
        let cq = CompletionQueueReader::new(cq_base, 64);
        let initiator = sim.add(
            "initiator",
            Initiator {
                completions: vec![],
                cq,
            },
        );
        sim.world_mut()
            .expect_mut::<MmioRouting>()
            .claim(AddrRange::new(msi_addr, 0x100), initiator);
        sim.kickoff(
            handle.device,
            AttachQueuePair {
                qid: 1,
                sq_base,
                cq_base,
                depth: 64,
                msi_addr,
                msi_vector: 1,
            },
        );
        let sq = SubmissionQueueWriter::new(sq_base, 64);
        Bench {
            sim,
            handle,
            fabric,
            initiator,
            sq,
            rings,
        }
    }

    /// Data buffer area within the host region (page-aligned).
    fn buf_addr(b: &Bench) -> PhysAddr {
        b.rings.start + 0x20000
    }

    fn submit(b: &mut Bench, cmd: NvmeCommand) {
        let Bench { sim, sq, .. } = b;
        let tail = {
            let mem = sim.world_mut().expect_mut::<PhysMemory>();
            sq.push(mem, &cmd);
            sq.tail()
        };
        b.sim.kickoff(
            b.fabric,
            MmioWrite {
                addr: b.handle.sq_doorbell(1),
                data: (tail as u32).to_le_bytes().to_vec(),
            },
        );
    }

    #[test]
    fn read_returns_flash_contents() {
        let mut b = setup();
        let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let lba = 100;
        b.sim
            .world_mut()
            .expect_mut::<PhysMemory>()
            .write(b.handle.lba_addr(lba), &payload);
        let dst = buf_addr(&b);
        submit(
            &mut b,
            NvmeCommand {
                opcode: NvmeOpcode::Read,
                cid: 1,
                nsid: 1,
                prp1: dst,
                prp2: PhysAddr::ZERO,
                slba: lba,
                nlb: 0,
            },
        );
        b.sim.run();
        assert_eq!(b.sim.world().stats.counter_value("init.ok"), 1);
        assert_eq!(
            b.sim.world().expect::<PhysMemory>().read(dst, 4096),
            payload
        );
        // Latency: ≥ flash read latency, within a few tens of us.
        let t = b.sim.now().as_nanos();
        assert!(t >= time::us(14), "{t}");
        assert!(t < time::us(40), "{t}");
    }

    #[test]
    fn write_persists_to_flash() {
        let mut b = setup();
        let payload = vec![0x5Au8; 8192];
        let src = buf_addr(&b);
        b.sim
            .world_mut()
            .expect_mut::<PhysMemory>()
            .write(src, &payload);
        submit(
            &mut b,
            NvmeCommand {
                opcode: NvmeOpcode::Write,
                cid: 2,
                nsid: 1,
                prp1: src,
                prp2: src + 4096,
                slba: 500,
                nlb: 1,
            },
        );
        b.sim.run();
        assert_eq!(b.sim.world().stats.counter_value("init.ok"), 1);
        assert_eq!(
            b.sim
                .world()
                .expect::<PhysMemory>()
                .read(b.handle.lba_addr(500), 8192),
            payload
        );
    }

    #[test]
    fn large_read_uses_prp_list() {
        let mut b = setup();
        let len = 64 * 1024;
        let payload: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
        b.sim
            .world_mut()
            .expect_mut::<PhysMemory>()
            .write(b.handle.lba_addr(0), &payload);
        let dst = buf_addr(&b);
        let list_page = b.rings.start + 0x18000;
        let prps = PrpList::for_contiguous(dst, len, list_page);
        assert!(!prps.list_entries.is_empty());
        b.sim
            .world_mut()
            .expect_mut::<PhysMemory>()
            .write(list_page, &prps.list_bytes());
        submit(
            &mut b,
            NvmeCommand {
                opcode: NvmeOpcode::Read,
                cid: 3,
                nsid: 1,
                prp1: prps.prp1,
                prp2: prps.prp2,
                slba: 0,
                nlb: (len / 4096 - 1) as u16,
            },
        );
        b.sim.run();
        assert_eq!(b.sim.world().stats.counter_value("init.ok"), 1);
        assert_eq!(b.sim.world().expect::<PhysMemory>().read(dst, len), payload);
    }

    #[test]
    fn out_of_range_lba_fails_cleanly() {
        let mut b = setup();
        let prp1 = buf_addr(&b);
        submit(
            &mut b,
            NvmeCommand {
                opcode: NvmeOpcode::Read,
                cid: 4,
                nsid: 1,
                prp1,
                prp2: PhysAddr::ZERO,
                slba: u64::MAX / LBA_SIZE,
                nlb: 0,
            },
        );
        b.sim.run();
        assert_eq!(b.sim.world().stats.counter_value("init.completions"), 1);
        assert_eq!(b.sim.world().stats.counter_value("init.ok"), 0);
    }

    #[test]
    fn misaligned_prp_fails_with_invalid_prp() {
        let mut b = setup();
        let prp1 = buf_addr(&b) + 12; // misaligned
        submit(
            &mut b,
            NvmeCommand {
                opcode: NvmeOpcode::Read,
                cid: 5,
                nsid: 1,
                prp1,
                prp2: PhysAddr::ZERO,
                slba: 0,
                nlb: 0,
            },
        );
        b.sim.run();
        assert_eq!(b.sim.world().stats.counter_value("init.completions"), 1);
        assert_eq!(b.sim.world().stats.counter_value("init.ok"), 0);
    }

    #[test]
    fn pipelined_reads_share_flash_bandwidth() {
        let mut b = setup();
        let n = 8u64;
        let len = 128 * 1024;
        for i in 0..n {
            let data = vec![i as u8; len];
            b.sim
                .world_mut()
                .expect_mut::<PhysMemory>()
                .write(b.handle.lba_addr(i * 64), &data);
        }
        let list_area = b.rings.start + 0x100000;
        for i in 0..n {
            let dst = buf_addr(&b) + i * len as u64;
            let list_page = list_area + i * 4096;
            let prps = PrpList::for_contiguous(dst, len, list_page);
            b.sim
                .world_mut()
                .expect_mut::<PhysMemory>()
                .write(list_page, &prps.list_bytes());
            submit(
                &mut b,
                NvmeCommand {
                    opcode: NvmeOpcode::Read,
                    cid: 10 + i as u16,
                    nsid: 1,
                    prp1: prps.prp1,
                    prp2: prps.prp2,
                    slba: i * 64,
                    nlb: (len / 4096 - 1) as u16,
                },
            );
        }
        b.sim.run();
        assert_eq!(b.sim.world().stats.counter_value("init.ok"), n);
        // Aggregate bandwidth bound: n * len bytes at 17.2 Gbps plus one
        // access latency, with some fabric slack.
        let total_bytes = (n as usize) * len;
        let floor = NvmeConfig::default()
            .read_bandwidth
            .transfer_time(total_bytes);
        let t = b.sim.now().as_nanos();
        assert!(t >= floor, "{t} >= {floor}");
        assert!(t < floor + time::us(120), "{t} < {floor} + slack");
        // Data integrity for each stream.
        for i in 0..n {
            let dst = buf_addr(&b) + i * len as u64;
            let got = b.sim.world().expect::<PhysMemory>().read(dst, len);
            assert!(got.iter().all(|&x| x == i as u8), "stream {i}");
        }
    }

    #[test]
    fn flush_completes_without_data_movement() {
        let mut b = setup();
        submit(
            &mut b,
            NvmeCommand {
                opcode: NvmeOpcode::Flush,
                cid: 9,
                nsid: 1,
                prp1: PhysAddr::ZERO,
                prp2: PhysAddr::ZERO,
                slba: 0,
                nlb: 0,
            },
        );
        b.sim.run();
        assert_eq!(b.sim.world().stats.counter_value("init.ok"), 1);
        assert!(b.sim.now().as_nanos() < time::us(10));
    }

    #[test]
    #[should_panic(expected = "unattached queue")]
    fn doorbell_on_unattached_queue_panics() {
        let mut b = setup();
        b.sim.kickoff(
            b.fabric,
            MmioWrite {
                addr: b.handle.sq_doorbell(5),
                data: 1u32.to_le_bytes().to_vec(),
            },
        );
        b.sim.run();
    }

    #[test]
    fn initiator_component_is_reachable() {
        // Guards against accidentally dropping the initiator from setup().
        let b = setup();
        assert!(b.initiator.index() < b.sim.component_count());
    }

    #[test]
    fn reattach_resets_the_queue_and_abandons_inflight_ops() {
        let mut b = setup();
        let payload = vec![0x77u8; 4096];
        b.sim
            .world_mut()
            .expect_mut::<PhysMemory>()
            .write(b.handle.lba_addr(3), &payload);
        let dst = buf_addr(&b);
        submit(
            &mut b,
            NvmeCommand {
                opcode: NvmeOpcode::Read,
                cid: 11,
                nsid: 1,
                prp1: dst,
                prp2: PhysAddr::ZERO,
                slba: 3,
                nlb: 0,
            },
        );
        // Reset qid 1 while the command is mid-flight: the flash read and
        // trailing DMAs land stale, nothing completes, and the ring state
        // is back at zero so a fresh submission works normally.
        let sq_base = b.rings.start;
        let cq_base = b.rings.start + 64 * 64;
        let msi_addr = b.rings.start + 0x10000;
        b.sim.schedule_at(
            dcs_sim::SimTime::from_us(2),
            b.handle.device,
            AttachQueuePair {
                qid: 1,
                sq_base,
                cq_base,
                depth: 64,
                msi_addr,
                msi_vector: 1,
            },
        );
        b.sim.run();
        let stats = &b.sim.world().stats;
        assert_eq!(stats.counter_value("nvme.resets"), 1);
        assert!(stats.counter_value("nvme.reset_aborted_ops") >= 1);
        assert!(stats.counter_value("nvme.stale_completions") >= 1);
        assert_eq!(stats.counter_value("init.completions"), 0);
        assert_eq!(b.sim.world().stats.counter_value("aer.device_reset"), 1);
        // The queue is usable again after the reset: resubmit from a fresh
        // writer (the device's ring state also restarted at zero).
        let mut b2 = Bench {
            sq: SubmissionQueueWriter::new(sq_base, 64),
            ..b
        };
        submit(
            &mut b2,
            NvmeCommand {
                opcode: NvmeOpcode::Read,
                cid: 12,
                nsid: 1,
                prp1: dst,
                prp2: PhysAddr::ZERO,
                slba: 3,
                nlb: 0,
            },
        );
        b2.sim.run();
        assert_eq!(b2.sim.world().stats.counter_value("init.ok"), 1);
        assert_eq!(
            b2.sim.world().expect::<PhysMemory>().read(dst, 4096),
            payload
        );
    }

    #[test]
    fn poisoned_cqe_is_rewritten_from_staging() {
        let mut b = setup();
        // Default recovery gives the fabric 2 ECRC replays; scheduling the
        // completion-class site at draws 0,1,2 burns the budget and poisons
        // the first CQE write. The device then rewrites the entry from its
        // staging copy (draw 3 is clean) and the command still succeeds.
        {
            let mut plan = FaultPlan::new(Rng::new(0xFA11));
            plan.enable(dcs_sim::fault::CPL_CORRUPT, FaultSpec::Nth(vec![0, 1, 2]));
            plan.recovery = RecoveryConfig::default();
            b.sim.world_mut().insert(plan);
        }
        let payload = vec![0x42u8; 4096];
        b.sim
            .world_mut()
            .expect_mut::<PhysMemory>()
            .write(b.handle.lba_addr(9), &payload);
        let dst = buf_addr(&b);
        submit(
            &mut b,
            NvmeCommand {
                opcode: NvmeOpcode::Read,
                cid: 21,
                nsid: 1,
                prp1: dst,
                prp2: PhysAddr::ZERO,
                slba: 9,
                nlb: 0,
            },
        );
        b.sim.run();
        let stats = &b.sim.world().stats;
        assert_eq!(stats.counter_value("nvme.cqe_rewrites"), 1);
        assert_eq!(
            stats.counter_value("init.ok"),
            1,
            "command completes after the rewrite"
        );
        assert_eq!(
            b.sim.world().expect::<PhysMemory>().read(dst, 4096),
            payload
        );
        // Conservation at the fabric: 3 injected = 2 replays + 1 poison.
        let tallies: std::collections::BTreeMap<_, _> =
            b.sim.world().expect::<FaultPlan>().tallies().collect();
        let t = tallies[dcs_sim::fault::CPL_CORRUPT];
        assert_eq!((t.injected, t.recovered, t.exhausted), (3, 2, 1));
    }
}
