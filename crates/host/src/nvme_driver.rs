//! The host NVMe driver: the software initiator the baseline designs use.
//!
//! Speaks the same queues/doorbells/MSIs as the HDC Engine's NVMe
//! controller, but every step costs CPU time: submit-side kernel work
//! (syscall, VFS, block mapping, driver submit), then the interrupt and
//! completion path when the drive raises its MSI. Each phase's end is
//! marked in the anatomy of the D2D job the request serves, so Figure
//! 11-style breakdowns are assembled from real measurements.
//!
//! While a [`dcs_sim::FaultPlan`] is installed the driver also runs the
//! kernel's error path: a retryable completion status (media error)
//! resubmits just that MDTS chunk under a fresh CID within a bounded
//! budget, and a per-request check polls the completion queue directly
//! — recovering lost MSIs — and climbs the shared recovery ladder
//! ([`dcs_nvme::rung`]): wait, reset the controller, and only then
//! surface a clean error completion. Without a plan none of these timers
//! are armed and the event stream is identical to the fault-free
//! simulator.

use dcs_sim::DetMap;

use dcs_nvme::{
    AttachQueuePair, NvmeCommand, NvmeCompletion, NvmeHandle, NvmeInitiator, NvmeIo, Outcome, Rung,
    LBA_SIZE,
};
use dcs_pcie::{AddrRange, MsiDelivery, PhysAddr, PhysMemory};
use dcs_sim::{fault, Category, Component, ComponentId, Ctx, Msg, SimTime};

use crate::costs::{self, KernelMode};
use crate::cpu::{CpuJob, CpuJobDone};
use crate::job::OpDone;

/// Read or write.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BlockOp {
    /// Read from flash into the buffer.
    Read,
    /// Write the buffer to flash.
    Write,
}

/// A block I/O request against the driver.
#[derive(Debug, Clone)]
pub struct BlockRequest {
    /// Requester-chosen identifier echoed in [`OpDone`].
    pub id: u64,
    /// The D2D job this request serves: its anatomy takes the phases.
    pub job: u64,
    /// Direction.
    pub op: BlockOp,
    /// Starting logical block.
    pub lba: u64,
    /// Transfer length in bytes (multiple of 4 KiB).
    pub len: usize,
    /// Page-aligned data buffer (destination for reads, source for
    /// writes).
    pub buf: PhysAddr,
    /// CPU-utilization tag for this request's software work.
    pub tag: &'static str,
    /// Component notified on completion.
    pub reply_to: ComponentId,
}

struct Outstanding {
    req: BlockRequest,
    /// Device-control part of the submit path (the rest is file system).
    ctrl_ns: u64,
    /// When the last command settled (device time ends).
    device_done_at: Option<SimTime>,
    /// Every command succeeded.
    ok: bool,
}

enum CpuPhase {
    Submit { cid: u16 },
    Complete { cid: u16 },
}

/// Internal: command-timeout check for one outstanding request. Armed
/// only while a fault plan is installed.
#[derive(Debug)]
struct NvmeCheck {
    cid: u16,
}

/// The driver component. One instance drives one SSD queue pair.
pub struct HostNvmeDriver {
    cpu: ComponentId,
    mode: KernelMode,
    /// The queue pair; requests are keyed by their first command's CID
    /// (requests above the drive's MDTS split into several commands, as
    /// the kernel block layer does).
    nvme: NvmeInitiator<u16>,
    outstanding: DetMap<u16, Outstanding>,
    cpu_phases: DetMap<u64, CpuPhase>,
    next_cpu_token: u64,
}

impl HostNvmeDriver {
    /// Queue depth used by the driver.
    pub const QUEUE_DEPTH: u16 = 64;

    /// Creates the driver. `rings` must provide at least
    /// `64*64 + 64*16 + 64*4096` bytes of host memory for the SQ, CQ and
    /// PRP-list scratch; `msi_addr` must be claimed for this component.
    pub fn new(
        cpu: ComponentId,
        ssd: NvmeHandle,
        mode: KernelMode,
        rings: AddrRange,
        msi_addr: PhysAddr,
    ) -> (Self, AttachQueuePair) {
        let depth = Self::QUEUE_DEPTH;
        let sq_base = rings.start;
        let cq_base = rings.start + depth as u64 * NvmeCommand::SIZE as u64;
        let prp_base = cq_base + depth as u64 * NvmeCompletion::SIZE as u64;
        // PRP scratch must be page-aligned for list pages.
        let prp_base = PhysAddr((prp_base.as_u64() + 4095) & !4095);
        let attach = AttachQueuePair {
            qid: 1,
            sq_base,
            cq_base,
            depth,
            msi_addr,
            msi_vector: 0x10,
        };
        let driver = HostNvmeDriver {
            cpu,
            mode,
            nvme: NvmeInitiator::new(ssd, attach, prp_base),
            outstanding: DetMap::new(),
            cpu_phases: DetMap::new(),
            next_cpu_token: 1,
        };
        (driver, attach)
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

    fn on_request(&mut self, ctx: &mut Ctx<'_>, req: BlockRequest) {
        assert!(
            req.len.is_multiple_of(LBA_SIZE as usize),
            "length must be whole blocks"
        );
        assert!(!self.nvme.is_full(), "driver exceeded its queue depth");
        let cid = self.nvme.alloc_cid();
        let fs_ns = costs::VFS_LOOKUP_NS
            + costs::FS_BLOCK_MAP_NS
            + match self.mode {
                KernelMode::Vanilla => costs::PAGE_CACHE_LOOKUP_NS + costs::PAGE_CACHE_INSERT_NS,
                KernelMode::Optimized => 0,
            };
        let ctrl_ns = costs::SYSCALL_NS
            + costs::BLOCK_SUBMIT_NS
            + costs::BLOCK_PER_PAGE_NS * (req.len.div_ceil(4096) as u64);
        let tag = req.tag;
        self.outstanding.insert(
            cid,
            Outstanding {
                req,
                ctrl_ns,
                device_done_at: None,
                ok: true,
            },
        );
        self.cpu_job(ctx, fs_ns + ctrl_ns, tag, CpuPhase::Submit { cid });
    }

    /// Pushes the request's commands (the first under its own CID) and
    /// rings the doorbell once for the batch.
    fn submit_to_device(&mut self, ctx: &mut Ctx<'_>, cid: u16) {
        let now = ctx.now();
        let out = self.outstanding.get_mut(&cid).expect("live request");
        let obs = &mut ctx.world().obs;
        obs.mark(out.req.job, Category::FileSystem, now - out.ctrl_ns);
        obs.mark(out.req.job, Category::DeviceControl, now);
        let io = NvmeIo {
            req: cid,
            write: out.req.op == BlockOp::Write,
            lba: out.req.lba,
            len: out.req.len,
            buf: out.req.buf,
            issued_at: now,
        };
        let doorbell = self
            .nvme
            .submit(ctx.world().expect_mut::<PhysMemory>(), cid, io);
        dcs_pcie::mmio_write(ctx, 0, doorbell);
        if fault::active(ctx.world_ref()) {
            ctx.send_self_in(fault::NVME_TIMEOUT_NS, NvmeCheck { cid });
        }
    }

    /// Drains the CQ; charges one IRQ+completion path per completed
    /// request (the kernel does per-request completion work). Shared by
    /// the MSI path and the timeout poll fallback.
    fn drain_cq(&mut self, ctx: &mut Ctx<'_>) {
        let Some((entries, doorbell)) = self.nvme.drain(ctx.world_ref().expect::<PhysMemory>())
        else {
            // Spurious interrupt (MSI raced an earlier drain) or an idle
            // poll: ignore.
            return;
        };
        // Ring the CQ head doorbell once for the batch.
        dcs_pcie::mmio_write(ctx, 0, doorbell);
        for entry in entries {
            match self.nvme.complete(ctx.world(), &entry) {
                // A poisoned entry (the device rewrites the slot, but a
                // poll may race the rewrite) or one a reset retired.
                Outcome::Unknown => ctx.world().stats.counter("nvme.drv_bad_cqe").add(1),
                // A straggler for a request a timeout already failed.
                Outcome::Stale => ctx.world().stats.counter("nvme.drv_stale_cqe").add(1),
                Outcome::Retried(doorbell) => dcs_pcie::mmio_write(ctx, 0, doorbell),
                Outcome::Settled { done: None, .. } => {}
                Outcome::Settled { io, done: Some(ok) } => self.device_done(ctx, io.req, ok),
            }
        }
    }

    /// The device finished (or gave up on) request `cid`: charge the
    /// completion path.
    fn device_done(&mut self, ctx: &mut Ctx<'_>, cid: u16, ok: bool) {
        let out = self.outstanding.get_mut(&cid).expect("live request");
        out.device_done_at = Some(ctx.now());
        out.ok = ok;
        let cost = costs::STORAGE_COMPLETE_NS;
        let tag = out.req.tag;
        self.cpu_job(ctx, cost, tag, CpuPhase::Complete { cid });
    }

    /// Command-timeout check: polls the CQ directly (the MSI may have
    /// been lost), then takes the ladder's next rung for the request:
    /// wait, reset the controller (which resubmits every outstanding
    /// command), or surface a clean error completion.
    fn on_check(&mut self, ctx: &mut Ctx<'_>, cid: u16) {
        if !self.nvme.is_in_flight(&cid) {
            return; // completed (or already timed out); timer expires silently
        }
        ctx.world().stats.counter("nvme.drv_polls").add(1);
        self.drain_cq(ctx);
        let Some(rc) = fault::recovery(ctx.world_ref()) else {
            return;
        };
        let now = ctx.now();
        let ladder = self.nvme.ladder(now, &rc);
        match ladder.into_iter().find(|&(req, _)| req == cid) {
            None => return, // the poll recovered it
            Some((_, Rung::Wait)) => {}
            Some((_, Rung::Reset)) => {
                ctx.world().stats.counter("nvme.drv_resets").add(1);
                let (attach, doorbell) =
                    self.nvme.reset(ctx.world().expect_mut::<PhysMemory>(), now);
                ctx.send_now(self.nvme.device(), attach);
                dcs_pcie::mmio_write(ctx, 0, doorbell);
            }
            Some((_, Rung::Fail)) => {
                ctx.world().stats.counter("nvme.drv_timeouts").add(1);
                fault::exhausted(ctx.world(), fault::MSI_LOSS);
                self.nvme.abandon(&cid);
                self.device_done(ctx, cid, false);
                return;
            }
        }
        ctx.send_self_in(fault::NVME_TIMEOUT_NS, NvmeCheck { cid });
    }

    fn finish(&mut self, ctx: &mut Ctx<'_>, cid: u16) {
        let out = self.outstanding.remove(&cid).expect("live request");
        let device_done = out.device_done_at.expect("device completed");
        let dev_cat = match out.req.op {
            BlockOp::Read => Category::Read,
            BlockOp::Write => Category::Write,
        };
        let now = ctx.now();
        let obs = &mut ctx.world().obs;
        obs.mark(out.req.job, dev_cat, device_done);
        obs.mark(out.req.job, Category::RequestCompletion, now);
        ctx.send_now(
            out.req.reply_to,
            OpDone {
                id: out.req.id,
                ok: out.ok,
            },
        );
    }
}

impl Component for HostNvmeDriver {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<BlockRequest>() {
            Ok(req) => {
                self.on_request(ctx, req);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<CpuJobDone>() {
            Ok(done) => {
                match self.cpu_phases.remove(&done.token).expect("live cpu phase") {
                    CpuPhase::Submit { cid } => self.submit_to_device(ctx, cid),
                    CpuPhase::Complete { cid } => self.finish(ctx, cid),
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<NvmeCheck>() {
            Ok(check) => {
                self.on_check(ctx, check.cid);
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<MsiDelivery>() {
            Ok(_) => self.drain_cq(ctx),
            Err(other) => panic!("HostNvmeDriver received unexpected message: {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuPool;
    use dcs_nvme::{install_nvme, NvmeConfig};
    use dcs_pcie::{install_fabric, MmioRouting, PcieConfig, PortId};
    use dcs_sim::{time, Simulator};

    struct Caller {
        driver: ComponentId,
        done: Vec<OpDone>,
    }

    #[derive(Debug)]
    struct Go(BlockRequest);

    impl Component for Caller {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            let msg = match msg.downcast::<Go>() {
                Ok(Go(req)) => {
                    let drv = self.driver;
                    ctx.send_now(drv, req);
                    return;
                }
                Err(m) => m,
            };
            let d = msg
                .downcast::<OpDone>()
                .expect("caller gets block completions");
            ctx.world().stats.counter("caller.done").add(1);
            if d.ok {
                ctx.world().stats.counter("caller.ok").add(1);
            }
            self.done.push(d);
        }
    }

    fn setup(mode: KernelMode) -> (Simulator, ComponentId, NvmeHandle, AddrRange) {
        let mut sim = Simulator::new(5);
        sim.world_mut().insert(PhysMemory::new());
        sim.world_mut().insert(MmioRouting::new());
        let fabric = install_fabric(sim.world_mut(), PcieConfig::default());
        let cpu = sim.add("cpu", CpuPool::new("node0", 6));
        let ssd = install_nvme(
            &mut sim,
            fabric,
            NvmeConfig {
                capacity_lbas: 1 << 20,
                ..NvmeConfig::default()
            },
            "ssd0",
            PortId(1),
        );
        let dram = sim.world_mut().expect_mut::<PhysMemory>().alloc_region(
            "host-dram",
            64 << 20,
            PortId::ROOT,
        );
        let rings = AddrRange::new(dram.start, 1 << 20);
        let msi_addr = dram.start + (2 << 20);
        let driver_id = sim.reserve("nvme-driver");
        let (driver, attach) = HostNvmeDriver::new(cpu, ssd.clone(), mode, rings, msi_addr);
        sim.install(driver_id, driver);
        sim.world_mut()
            .expect_mut::<MmioRouting>()
            .claim(AddrRange::new(msi_addr, 0x100), driver_id);
        sim.kickoff(ssd.device, attach);
        let caller = sim.reserve("caller");
        sim.install(
            caller,
            Caller {
                driver: driver_id,
                done: vec![],
            },
        );
        (sim, caller, ssd, dram)
    }

    #[test]
    fn read_via_driver_returns_data_and_breakdown() {
        let (mut sim, caller, ssd, dram) = setup(KernelMode::Optimized);
        let payload: Vec<u8> = (0..8192u32).map(|i| (i % 253) as u8).collect();
        sim.world_mut()
            .expect_mut::<PhysMemory>()
            .write(ssd.lba_addr(10), &payload);
        let buf = dram.start + (4 << 20);
        let now = sim.now();
        sim.world_mut().obs.enable();
        sim.world_mut().obs.req_begin(1, now);
        sim.kickoff(
            caller,
            Go(BlockRequest {
                id: 1,
                job: 1,
                op: BlockOp::Read,
                lba: 10,
                len: 8192,
                buf,
                tag: "kernel",
                reply_to: caller,
            }),
        );
        sim.run();
        assert_eq!(sim.world().stats.counter_value("caller.ok"), 1);
        assert_eq!(sim.world().expect::<PhysMemory>().read(buf, 8192), payload);
        // The job's anatomy holds the software and device phases, in
        // order, ending where the completion path did.
        let stats = sim.world().expect::<crate::cpu::CpuStats>();
        assert!(stats.pool("node0").unwrap().jobs >= 2);
        let a = sim.world().obs.anatomy(1).expect("job begun");
        let cats: Vec<Category> = a.segments.iter().map(|s| s.0).collect();
        assert_eq!(
            cats,
            [
                Category::FileSystem,
                Category::DeviceControl,
                Category::Read,
                Category::RequestCompletion
            ]
        );
        assert_eq!(
            a.segments[0].1,
            costs::VFS_LOOKUP_NS + costs::FS_BLOCK_MAP_NS
        );
        assert_eq!(a.segments[3].1, costs::STORAGE_COMPLETE_NS);
        assert!(a.segments[2].1 > time::us(14), "includes flash latency");
    }

    #[test]
    fn vanilla_mode_spends_more_cpu_than_optimized() {
        let run = |mode| {
            let (mut sim, caller, _ssd, dram) = setup(mode);
            let buf = dram.start + (4 << 20);
            sim.kickoff(
                caller,
                Go(BlockRequest {
                    id: 1,
                    job: 1,
                    op: BlockOp::Read,
                    lba: 0,
                    len: 4096,
                    buf,
                    tag: "kernel",
                    reply_to: caller,
                }),
            );
            sim.run();
            let stats = sim.world().expect::<crate::cpu::CpuStats>();
            stats.pool("node0").unwrap().tracker.total_busy()
        };
        assert!(run(KernelMode::Vanilla) > run(KernelMode::Optimized));
    }

    #[test]
    fn write_via_driver_persists() {
        let (mut sim, caller, ssd, dram) = setup(KernelMode::Optimized);
        let buf = dram.start + (4 << 20);
        let payload = vec![0xC3u8; 4096];
        sim.world_mut()
            .expect_mut::<PhysMemory>()
            .write(buf, &payload);
        sim.kickoff(
            caller,
            Go(BlockRequest {
                id: 2,
                job: 2,
                op: BlockOp::Write,
                lba: 77,
                len: 4096,
                buf,
                tag: "kernel",
                reply_to: caller,
            }),
        );
        sim.run();
        assert_eq!(sim.world().stats.counter_value("caller.ok"), 1);
        assert_eq!(
            sim.world()
                .expect::<PhysMemory>()
                .read(ssd.lba_addr(77), 4096),
            payload
        );
    }

    #[test]
    fn failed_command_reports_not_ok() {
        let (mut sim, caller, _ssd, dram) = setup(KernelMode::Optimized);
        let buf = dram.start + (4 << 20);
        sim.kickoff(
            caller,
            Go(BlockRequest {
                id: 3,
                job: 3,
                op: BlockOp::Read,
                lba: (1 << 20) + 5, // beyond 1Mi-LBA namespace
                len: 4096,
                buf,
                tag: "kernel",
                reply_to: caller,
            }),
        );
        sim.run();
        assert_eq!(sim.world().stats.counter_value("caller.done"), 1);
        assert_eq!(sim.world().stats.counter_value("caller.ok"), 0);
    }

    #[test]
    fn media_error_is_retried_and_recovers() {
        let (mut sim, caller, ssd, dram) = setup(KernelMode::Optimized);
        let rng = sim.world_mut().rng.fork();
        let mut plan = dcs_sim::FaultPlan::new(rng);
        plan.enable(dcs_sim::fault::NVME_MEDIA, dcs_sim::FaultSpec::Nth(vec![0]));
        sim.world_mut().insert(plan);
        let payload = vec![0x5Au8; 4096];
        sim.world_mut()
            .expect_mut::<PhysMemory>()
            .write(ssd.lba_addr(3), &payload);
        let buf = dram.start + (4 << 20);
        sim.kickoff(
            caller,
            Go(BlockRequest {
                id: 9,
                job: 9,
                op: BlockOp::Read,
                lba: 3,
                len: 4096,
                buf,
                tag: "kernel",
                reply_to: caller,
            }),
        );
        sim.run();
        assert_eq!(sim.world().stats.counter_value("caller.ok"), 1);
        assert_eq!(sim.world().stats.counter_value("fault.injected"), 1);
        assert_eq!(sim.world().stats.counter_value("retry.count"), 1);
        assert_eq!(sim.world().stats.counter_value("fault.recovered"), 1);
        assert_eq!(sim.world().expect::<PhysMemory>().read(buf, 4096), payload);
    }

    #[test]
    fn media_error_without_budget_fails_cleanly() {
        let (mut sim, caller, _ssd, dram) = setup(KernelMode::Optimized);
        let rng = sim.world_mut().rng.fork();
        let mut plan = dcs_sim::FaultPlan::new(rng);
        plan.enable(dcs_sim::fault::NVME_MEDIA, dcs_sim::FaultSpec::Nth(vec![0]));
        plan.recovery = dcs_sim::RecoveryConfig::no_retries();
        sim.world_mut().insert(plan);
        let buf = dram.start + (4 << 20);
        sim.kickoff(
            caller,
            Go(BlockRequest {
                id: 10,
                job: 10,
                op: BlockOp::Read,
                lba: 0,
                len: 4096,
                buf,
                tag: "kernel",
                reply_to: caller,
            }),
        );
        sim.run();
        assert_eq!(sim.world().stats.counter_value("caller.done"), 1);
        assert_eq!(sim.world().stats.counter_value("caller.ok"), 0);
        assert_eq!(sim.world().stats.counter_value("fault.exhausted"), 1);
    }

    #[test]
    fn lost_completion_msi_is_recovered_by_poll() {
        let (mut sim, caller, ssd, dram) = setup(KernelMode::Optimized);
        let rng = sim.world_mut().rng.fork();
        let mut plan = dcs_sim::FaultPlan::new(rng);
        // Lose the first MSI the fabric routes; the driver's command
        // timeout must find the completion by polling the CQ.
        plan.enable(dcs_sim::fault::MSI_LOSS, dcs_sim::FaultSpec::Nth(vec![0]));
        sim.world_mut().insert(plan);
        let payload = vec![0x77u8; 4096];
        sim.world_mut()
            .expect_mut::<PhysMemory>()
            .write(ssd.lba_addr(8), &payload);
        let buf = dram.start + (4 << 20);
        sim.kickoff(
            caller,
            Go(BlockRequest {
                id: 11,
                job: 11,
                op: BlockOp::Read,
                lba: 8,
                len: 4096,
                buf,
                tag: "kernel",
                reply_to: caller,
            }),
        );
        sim.run();
        assert_eq!(sim.world().stats.counter_value("pcie.msi_lost"), 1);
        assert_eq!(sim.world().stats.counter_value("caller.ok"), 1);
        assert!(sim.world().stats.counter_value("nvme.drv_polls") >= 1);
        assert_eq!(sim.world().expect::<PhysMemory>().read(buf, 4096), payload);
    }

    #[test]
    fn lost_cqe_climbs_the_reset_ladder_and_recovers() {
        let (mut sim, caller, ssd, dram) = setup(KernelMode::Optimized);
        let rng = sim.world_mut().rng.fork();
        let mut plan = dcs_sim::FaultPlan::new(rng);
        // Header corruption with zero replay budget turns a TLP into a
        // completion timeout (no bytes move). Draws for the read command:
        // 0 = SQ-entry fetch, 1 = data-out, 2 = CQE write, 3 = the
        // device's CQE rewrite. Killing 2 and 3 loses the completion
        // entirely; the driver's op timeout must then reset the
        // controller and resubmit, which succeeds on fresh draws.
        plan.enable(
            dcs_sim::fault::TLP_HEADER,
            dcs_sim::FaultSpec::Nth(vec![2, 3]),
        );
        plan.recovery = dcs_sim::RecoveryConfig {
            pcie_retries: 0,
            ..Default::default()
        };
        sim.world_mut().insert(plan);
        let payload = vec![0x3Cu8; 4096];
        sim.world_mut()
            .expect_mut::<PhysMemory>()
            .write(ssd.lba_addr(4), &payload);
        let buf = dram.start + (4 << 20);
        sim.kickoff(
            caller,
            Go(BlockRequest {
                id: 12,
                job: 12,
                op: BlockOp::Read,
                lba: 4,
                len: 4096,
                buf,
                tag: "kernel",
                reply_to: caller,
            }),
        );
        sim.run();
        let stats = &sim.world().stats;
        assert_eq!(stats.counter_value("nvme.cqe_lost"), 1);
        assert_eq!(stats.counter_value("nvme.drv_resets"), 1);
        assert_eq!(
            stats.counter_value("nvme.resets"),
            1,
            "device saw the re-attach"
        );
        assert_eq!(stats.counter_value("aer.device_reset"), 1);
        assert_eq!(stats.counter_value("aer.cpl_timeout"), 2);
        assert_eq!(
            stats.counter_value("caller.ok"),
            1,
            "request completed after the reset"
        );
        assert_eq!(sim.world().expect::<PhysMemory>().read(buf, 4096), payload);
        // Conservation: both injected header corruptions were contained
        // as exhausted timeouts.
        let tallies: std::collections::BTreeMap<_, _> = sim
            .world()
            .expect::<dcs_sim::FaultPlan>()
            .tallies()
            .collect();
        let t = tallies[dcs_sim::fault::TLP_HEADER];
        assert_eq!((t.injected, t.recovered, t.exhausted), (2, 0, 2));
    }

    #[test]
    fn pipelined_requests_all_complete() {
        let (mut sim, caller, _ssd, dram) = setup(KernelMode::Optimized);
        for i in 0..16u64 {
            let buf = dram.start + (4 << 20) + i * 65536;
            sim.kickoff(
                caller,
                Go(BlockRequest {
                    id: i,
                    job: i,
                    op: BlockOp::Read,
                    lba: i * 16,
                    len: 65536,
                    buf,
                    tag: "kernel",
                    reply_to: caller,
                }),
            );
        }
        sim.run();
        assert_eq!(sim.world().stats.counter_value("caller.ok"), 16);
    }
}
