//! The HDC Driver (§IV-B): the thin kernel module between applications
//! and the HDC Engine.
//!
//! Per D2D command the driver does exactly three things on the CPU —
//! an ioctl entry, metadata retrieval (block addresses from the VFS,
//! connection info from the TCP stack; including the page-cache
//! consistency check §IV-B describes), and a completion interrupt — and
//! everything else happens in hardware. That short list *is* DCS-ctrl's
//! performance story: compare with the per-operation submit/complete costs
//! in [`dcs_host::nvme_driver`] and [`dcs_host::nic_driver`].
//!
//! The driver accepts the same [`D2dJob`]s as the baseline executors, so
//! workloads and benchmarks swap designs by choosing which component they
//! submit to.

// A job that passed `D2dJob::check` fits the wire command's fields: every
// narrowing below is a checked conversion, never a silent `as`.
#![deny(clippy::cast_possible_truncation)]

use std::num::TryFromIntError;

use dcs_sim::DetMap;

use dcs_host::costs;
use dcs_host::cpu::{CpuJob, CpuJobDone};
use dcs_host::job::{D2dDone, D2dJob, D2dOp};
use dcs_nic::TcpFlow;
use dcs_pcie::{
    DmaComplete, DmaOp, DmaRequest, FabricId, MmioWrite, MsiDelivery, PhysAddr, PhysMemory, PortId,
    TlpClass,
};
use dcs_sim::{fault, Category, Component, ComponentId, Ctx, Msg, SimTime};

use crate::command::{CompletionRecord, D2dCommand, DevOpCode};
use crate::engine::{EngineInit, RegisterConnection};

/// Where the driver's host-side structures live.
#[derive(Debug, Clone, Copy)]
pub struct DriverLayout {
    /// Completion ring base (host DRAM, 64-byte records).
    pub completion_ring: PhysAddr,
    /// Ring depth.
    pub completion_depth: u16,
    /// The driver's MSI target (claimed for the driver component).
    pub msi_addr: PhysAddr,
}

struct JobCtx {
    job: D2dJob,
    submitted_at: SimTime,
    /// Poisoned aux DMAs retried for this job.
    aux_attempts: u8,
}

/// Slots in the engine's 1 MiB aux buffer.
const AUX_SLOTS: u32 = 16_384;

/// `v` in its D2D command field, which [`D2dJob::check`] made it fit.
fn field<T: TryFrom<usize, Error = TryFromIntError>>(v: usize) -> T {
    T::try_from(v).expect("D2dJob::check bounds the command fields")
}

/// An aux block and the offset of its 64-byte slot in the engine's aux
/// buffer.
type AuxBlock = (u32, Vec<u8>);

enum CpuPhase {
    /// Ioctl + metadata done: DMA the aux blocks, one per aux-bearing
    /// `Process` op, then write the command. Also each aux DMA's
    /// continuation: it keeps the blocks not yet landed, the one in
    /// flight first, for one retry.
    Submit {
        id: u64,
        cmd: D2dCommand,
        aux: Vec<AuxBlock>,
    },
    /// Interrupt handled: drain the completion ring.
    Complete,
}

/// Fault mode: periodic completion-ring poll, the fallback for a
/// completion whose MSI the fabric dropped.
#[derive(Debug)]
struct RingPoll;

/// The HDC Driver component.
pub struct HdcDriver {
    cpu: ComponentId,
    fabric: FabricId,
    engine: ComponentId,
    cmd_queue: PhysAddr,
    engine_aux_base: PhysAddr,
    layout: DriverLayout,
    jobs: DetMap<u64, JobCtx>,
    /// Registered connections (flow → engine conn id).
    conns: DetMap<TcpFlow, u16>,
    next_conn: u16,
    /// Completion ring consumer state.
    comp_head: u16,
    comp_phase: bool,
    cpu_phases: DetMap<u64, CpuPhase>,
    next_token: u64,
    /// Rotating cursor over the engine's aux slots.
    aux_slot: u32,
    /// A `RingPoll` is scheduled.
    poll_armed: bool,
}

impl HdcDriver {
    /// Creates the driver and the [`EngineInit`] the caller must deliver
    /// to the engine.
    pub fn new(
        cpu: ComponentId,
        fabric: FabricId,
        engine: ComponentId,
        cmd_queue: PhysAddr,
        engine_aux_base: PhysAddr,
        layout: DriverLayout,
    ) -> (Self, EngineInit) {
        let init = EngineInit {
            completion_ring: layout.completion_ring,
            completion_depth: layout.completion_depth,
            msi_addr: layout.msi_addr,
            msi_vector: 0x80,
        };
        let driver = HdcDriver {
            cpu,
            fabric,
            engine,
            cmd_queue,
            engine_aux_base,
            layout,
            jobs: DetMap::new(),
            conns: DetMap::new(),
            next_conn: 1,
            comp_head: 0,
            comp_phase: true,
            cpu_phases: DetMap::new(),
            next_token: 1,
            aux_slot: 0,
            poll_armed: false,
        };
        (driver, init)
    }

    fn cpu_job(&mut self, ctx: &mut Ctx<'_>, cost: u64, tag: &'static str, phase: CpuPhase) {
        let token = self.next_token;
        self.next_token += 1;
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

    /// Resolves (registering on first use) the engine connection id for a
    /// flow.
    fn conn_for(&mut self, ctx: &mut Ctx<'_>, flow: TcpFlow, seq: u32) -> u16 {
        if let Some(&c) = self.conns.get(&flow) {
            return c;
        }
        let c = self.next_conn;
        self.next_conn += 1;
        self.conns.insert(flow, c);
        let engine = self.engine;
        ctx.send_now(engine, RegisterConnection { conn: c, flow, seq });
        c
    }

    fn on_job(&mut self, ctx: &mut Ctx<'_>, job: D2dJob) {
        if job.check().is_err() {
            ctx.send_now(job.reply_to, D2dDone::failed(job.id));
            return;
        }
        // Translate the design-independent job into the wire command.
        // Each device op costs a metadata lookup: the VFS block mapping,
        // the TCP connection or the cache page table.
        let mut aux_blocks = Vec::new();
        let mut metadata_lookups = 0;
        let mut ops = Vec::with_capacity(job.ops.len());
        for op in &job.ops {
            metadata_lookups += u64::from(!matches!(op, D2dOp::Process { .. }));
            ops.push(match op {
                D2dOp::SsdRead { ssd, lba, len } => DevOpCode::SsdRead {
                    ssd: field(*ssd),
                    lba: *lba,
                    len: field(*len),
                },
                D2dOp::SsdWrite { ssd, lba } => DevOpCode::SsdWrite {
                    ssd: field(*ssd),
                    lba: *lba,
                },
                D2dOp::Process { function, aux } => {
                    let aux_off = if aux.is_empty() {
                        0
                    } else {
                        let off = self.aux_slot * field::<u32>(D2dJob::AUX_SLOT);
                        self.aux_slot = (self.aux_slot + 1) % AUX_SLOTS;
                        aux_blocks.push((off, aux.clone()));
                        off
                    };
                    DevOpCode::Process {
                        function: *function,
                        aux_off,
                        aux_len: field(aux.len()),
                    }
                }
                D2dOp::NicSend { flow, seq } => DevOpCode::NicSend {
                    conn: self.conn_for(ctx, *flow, *seq),
                    seq: *seq,
                },
                D2dOp::NicRecv { flow, len } => DevOpCode::NicRecv {
                    conn: self.conn_for(ctx, *flow, 0),
                    len: field(*len),
                },
                D2dOp::MemRead { len } => DevOpCode::MemRead { len: field(*len) },
            });
        }
        let id = job.id;
        let cmd = D2dCommand { id, ops };
        let cost = costs::HDC_IOCTL_NS + costs::HDC_METADATA_NS * metadata_lookups;
        {
            let now = ctx.now();
            let obs = &mut ctx.world().obs;
            obs.req_begin(id, now);
            obs.span_begin("host", "submit-cpu", id, now);
        }
        let tag = job.tag;
        self.jobs.insert(
            id,
            JobCtx {
                job,
                submitted_at: ctx.now(),
                aux_attempts: 0,
            },
        );
        self.cpu_job(
            ctx,
            cost,
            tag,
            CpuPhase::Submit {
                id,
                cmd,
                aux: aux_blocks,
            },
        );
        self.arm_poll(ctx);
    }

    /// Schedules the next ring poll if fault injection is active and no
    /// poll is pending. Fault-free runs never poll: the MSI is reliable.
    fn arm_poll(&mut self, ctx: &mut Ctx<'_>) {
        if self.poll_armed {
            return;
        }
        if !fault::active(ctx.world_ref()) {
            return;
        }
        self.poll_armed = true;
        ctx.send_self_in(fault::POLL_PERIOD_NS, RingPoll);
    }

    fn on_poll(&mut self, ctx: &mut Ctx<'_>) {
        let Some(rc) = fault::recovery(ctx.world_ref()) else {
            self.poll_armed = false;
            return;
        };
        ctx.world().stats.counter("hdc.drv_polls").add(1);
        self.drain_completions(ctx);
        // Fail jobs whose completion record was lost for good (e.g. a
        // poisoned record the engine could not rewrite): the engine-side
        // watchdog already accounted the fault, so this is containment
        // only — the submitter gets a clean `ok = false` instead of a hang.
        // The deadline outlasts the NVMe ladder, whose reset rung may
        // still complete the job.
        let now = ctx.now();
        let limit = dcs_nvme::ladder_bound_ns(&rc);
        let stale: Vec<u64> = self
            .jobs
            .iter()
            .filter(|(_, j)| now - j.submitted_at > limit)
            .map(|(&id, _)| id)
            .collect();
        for id in stale {
            self.fail_job(ctx, id, "hdc.drv_timeouts");
        }
        if self.jobs.is_empty() {
            self.poll_armed = false;
        } else {
            ctx.send_self_in(fault::POLL_PERIOD_NS, RingPoll);
        }
    }

    /// Fails a job cleanly: the submitter always gets a reply, never a
    /// wrong payload and never silence.
    fn fail_job(&mut self, ctx: &mut Ctx<'_>, id: u64, counter: &'static str) {
        ctx.world().stats.counter(counter).add(1);
        let Some(j) = self.jobs.remove(&id) else {
            return;
        };
        let now = ctx.now();
        ctx.world()
            .obs
            .req_end(id, Category::RequestCompletion, now);
        ctx.send_now(j.job.reply_to, D2dDone::failed(id));
    }

    fn submit(&mut self, ctx: &mut Ctx<'_>, id: u64, cmd: D2dCommand, aux: Vec<AuxBlock>) {
        let Some(job) = self.jobs.get_mut(&id) else {
            return;
        };
        job.submitted_at = ctx.now();
        {
            let now = ctx.now();
            let obs = &mut ctx.world().obs;
            obs.span_end("host", "submit-cpu", id, now);
            obs.mark(id, Category::DeviceControl, now);
        }
        self.send_aux_or_command(ctx, id, cmd, aux);
    }

    /// Posts the first of the aux blocks still to land, or writes the
    /// command once none is left.
    fn send_aux_or_command(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: u64,
        cmd: D2dCommand,
        aux: Vec<AuxBlock>,
    ) {
        if aux.is_empty() {
            self.write_command(ctx, &cmd);
        } else {
            self.send_aux_dma(ctx, id, cmd, aux);
        }
    }

    /// Writes `cmd` into the engine's command queue.
    fn write_command(&mut self, ctx: &mut Ctx<'_>, cmd: &D2dCommand) {
        dcs_pcie::mmio_write(
            ctx,
            0,
            MmioWrite {
                addr: self.cmd_queue,
                data: cmd.to_bytes().to_vec(),
            },
        );
    }

    /// Posts the first aux block into its slot of the engine's aux buffer
    /// as a write from the root port, parking the command and the blocks
    /// as the continuation: the token comes back via [`DmaComplete`]
    /// instead of [`CpuJobDone`], and the next block is posted, or the
    /// command written, once the DMA lands.
    fn send_aux_dma(&mut self, ctx: &mut Ctx<'_>, id: u64, cmd: D2dCommand, aux: Vec<AuxBlock>) {
        let (aux_off, block) = &aux[0];
        let req = DmaRequest {
            id: self.next_token,
            op: DmaOp::Write {
                port: PortId::ROOT,
                dst: self.engine_aux_base + *aux_off as u64,
                data: block.clone(),
            },
            class: TlpClass::Data,
        };
        self.next_token += 1;
        self.cpu_phases
            .insert(req.id, CpuPhase::Submit { id, cmd, aux });
        dcs_pcie::dma(ctx, self.fabric, req);
    }

    /// A poisoned/timed-out aux DMA. The driver still holds the blocks,
    /// so one clean re-DMA per job usually recovers; a second failure
    /// fails the job rather than submitting a command whose aux block is
    /// suspect.
    fn on_bad_aux_dma(&mut self, ctx: &mut Ctx<'_>, id: u64, cmd: D2dCommand, aux: Vec<AuxBlock>) {
        ctx.world().stats.counter("hdc.drv_bad_aux_dmas").add(1);
        let Some(j) = self.jobs.get_mut(&id) else {
            return;
        };
        j.aux_attempts += 1;
        if j.aux_attempts <= 1 {
            self.send_aux_dma(ctx, id, cmd, aux);
        } else {
            self.fail_job(ctx, id, "hdc.drv_aux_failures");
        }
    }

    fn drain_completions(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            let slot =
                self.layout.completion_ring + self.comp_head as u64 * CompletionRecord::SIZE as u64;
            let (record, crc_ok) = {
                let mem = ctx.world_ref().expect::<PhysMemory>();
                let raw: [u8; CompletionRecord::SIZE] = mem
                    .read(slot, CompletionRecord::SIZE)
                    .try_into()
                    .expect("64 bytes");
                (
                    CompletionRecord::from_bytes(&raw, self.comp_phase),
                    CompletionRecord::verify(&raw),
                )
            };
            let Some(record) = record else { break };
            if !crc_ok {
                // A corrupted completion record: consume the slot so the
                // ring keeps moving, but never trust its fields. The fault
                // was already attributed when the TLP crossed the fabric;
                // the owning job is recovered by the engine's record
                // rewrite or, failing that, by this driver's poll timeout.
                ctx.world().stats.counter("hdc.drv_bad_records").add(1);
                ctx.world()
                    .expect_mut::<PhysMemory>()
                    .write(slot, &[0u8; CompletionRecord::SIZE]);
                self.comp_head += 1;
                if self.comp_head == self.layout.completion_depth {
                    self.comp_head = 0;
                    self.comp_phase = !self.comp_phase;
                }
                continue;
            }
            ctx.world().stats.counter("hdc.driver_records").add(1);
            // Clear the slot so a stale same-phase record is never re-read.
            ctx.world()
                .expect_mut::<PhysMemory>()
                .write(slot, &[0u8; CompletionRecord::SIZE]);
            self.comp_head += 1;
            if self.comp_head == self.layout.completion_depth {
                self.comp_head = 0;
                self.comp_phase = !self.comp_phase;
            }
            self.finish(ctx, record);
        }
    }

    /// Completes the job a drained completion record names (none when the
    /// driver already failed it).
    fn finish(&mut self, ctx: &mut Ctx<'_>, record: CompletionRecord) {
        let id = record.id;
        let Some(j) = self.jobs.remove(&id) else {
            return;
        };
        ctx.world().stats.counter("hdc.jobs_done").add(1);
        let now = ctx.now();
        ctx.world()
            .obs
            .req_end(id, Category::RequestCompletion, now);
        ctx.send_now(
            j.job.reply_to,
            D2dDone {
                id,
                ok: record.ok,
                digest: (!record.digest.is_empty()).then_some(record.digest),
                payload_len: record.payload_len as usize,
            },
        );
    }
}

impl Component for HdcDriver {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<D2dJob>() {
            Ok(job) => {
                self.on_job(ctx, job);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<CpuJobDone>() {
            Ok(done) => {
                match self.cpu_phases.remove(&done.token).expect("live cpu phase") {
                    CpuPhase::Submit { id, cmd, aux } => self.submit(ctx, id, cmd, aux),
                    CpuPhase::Complete => self.drain_completions(ctx),
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<DmaComplete>() {
            Ok(done) => {
                // An aux DMA finished: post the next block or write the
                // command.
                let done = done.land(ctx.world());
                let Some(phase) = self.cpu_phases.remove(&done.id) else {
                    ctx.world().stats.counter("hdc.drv_stale_dmas").add(1);
                    return;
                };
                let CpuPhase::Submit { id, cmd, mut aux } = phase else {
                    panic!("unexpected continuation for aux DMA")
                };
                if !done.status.is_ok() {
                    self.on_bad_aux_dma(ctx, id, cmd, aux);
                    return;
                }
                aux.remove(0);
                self.send_aux_or_command(ctx, id, cmd, aux);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RingPoll>() {
            Ok(RingPoll) => {
                self.on_poll(ctx);
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<MsiDelivery>() {
            Ok(d) => {
                assert_eq!(d.vector, 0x80, "driver handles only engine completions");
                // Interrupt + completion handling on the CPU, then drain.
                let cost = costs::IRQ_ENTRY_NS + costs::HDC_COMPLETION_NS;
                // Tag under the oldest outstanding job's tag.
                let tag = self
                    .jobs
                    .values()
                    .min_by_key(|j| j.submitted_at)
                    .map(|j| j.job.tag)
                    .unwrap_or("hdc-driver");
                self.cpu_job(ctx, cost, tag, CpuPhase::Complete);
            }
            Err(other) => panic!("HdcDriver received unexpected message: {other:?}"),
        }
    }
}
