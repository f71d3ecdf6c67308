//! The baseline orchestrators: CPU-driven execution of multi-device tasks.
//!
//! One component, three personalities (Table I's left three columns):
//!
//! * **Linux** — vanilla kernel: page cache, socket buffers, user↔kernel
//!   copies; data staged through host DRAM; processing on the GPU with
//!   host↔GPU copies.
//! * **SwOpt** — the optimized software stacks of §III-E (direct I/O,
//!   zero-copy sockets), but still host-staged data and CPU-driven control.
//! * **SwP2p** — optimized software plus peer-to-peer *data* paths where
//!   device capabilities allow: the GPU exposes its memory (GPUDirect), so
//!   SSD→GPU and GPU→NIC transfers skip host DRAM. The SSD and NIC do not
//!   expose internal memory (§V-A), so SSD↔NIC still stages through host
//!   DRAM — exactly the asymmetry the paper exploits to motivate DCS-ctrl.
//!
//! Control, in every personality, stays on the CPU: each device operation
//! pays the submit-side and completion-side software costs through the
//! host drivers, and those costs show up in both the latency breakdowns
//! (Figure 11: each driver marks its phases in the job's anatomy) and the
//! CPU-utilization breakdowns (Figures 3b, 12).

use dcs_sim::DetMap;

use dcs_gpu::GpuHandle;
use dcs_ndp::NdpFunction;
use dcs_pcie::{
    DmaComplete, DmaOp, DmaRequest, DmaStart, FabricId, PhysAddr, PhysMemory, TlpClass,
};
use dcs_sim::{Category, Component, ComponentId, Ctx, IntegrityAudit, Msg, SimTime};

use crate::costs::{self, KernelMode};
use crate::cpu::{CpuJob, CpuJobDone};
use crate::gpu_driver::{GpuOpDone, GpuOpRequest};
use crate::job::{fill_mem_read, pad_to_blocks, D2dDone, D2dJob, D2dOp, OpDone};
use crate::nic_driver::{RecvExpect, SendRequest};
use crate::nvme_driver::{BlockOp, BlockRequest};

/// Which baseline personality an executor runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SwDesign {
    /// Vanilla kernel paths.
    Linux,
    /// Optimized kernel, host-staged data.
    SwOpt,
    /// Optimized kernel, P2P data paths via GPU memory.
    SwP2p,
}

impl SwDesign {
    /// The kernel mode drivers should run in under this design.
    pub(crate) fn kernel_mode(self) -> KernelMode {
        match self {
            SwDesign::Linux => KernelMode::Vanilla,
            SwDesign::SwOpt | SwDesign::SwP2p => KernelMode::Optimized,
        }
    }
}

/// Where the pipeline payload currently lives.
#[derive(Clone, Copy, Debug)]
struct PayloadLoc {
    addr: PhysAddr,
    len: usize,
    in_gpu: bool,
}

/// Why the executor is waiting.
enum Waiting {
    /// A block, send or receive request of a host driver ([`OpDone`]).
    Driver,
    /// A GPU kernel running the function.
    Gpu(NdpFunction),
    /// A host↔GPU staging copy; `then` resumes the op afterwards.
    Copy {
        then: AfterCopy,
    },
    CpuHash {
        function: NdpFunction,
        aux: Vec<u8>,
    },
    /// A cache-hit memory copy filling the staging buffer from host DRAM.
    MemFill {
        len: usize,
    },
}

enum AfterCopy {
    /// Copy into GPU finished: launch the kernel.
    RunGpu { function: NdpFunction, aux: Vec<u8> },
    /// Copy out of GPU finished: payload is in host memory, advance.
    Advance,
}

struct JobState {
    job: D2dJob,
    step: usize,
    payload: PayloadLoc,
    digest: Option<Vec<u8>>,
    ok: bool,
    waiting: Option<Waiting>,
    copy_started: SimTime,
    /// Host staging buffer for this job.
    host_buf: PhysAddr,
    /// GPU staging buffer for this job (when a GPU is attached).
    gpu_buf: Option<PhysAddr>,
}

/// Wiring an executor needs.
#[derive(Clone, Debug)]
pub struct ExecutorWiring {
    /// The node's CPU pool.
    pub cpu: ComponentId,
    /// The node's PCIe fabric.
    pub fabric: FabricId,
    /// NVMe driver components, indexed by `D2dOp::SsdRead::ssd`.
    pub nvme_drivers: Vec<ComponentId>,
    /// The NIC driver.
    pub nic_driver: ComponentId,
    /// GPU driver + handle, if the node has an accelerator.
    pub gpu: Option<(ComponentId, GpuHandle)>,
    /// Host staging area: `slots` buffers of `slot_len` bytes.
    pub staging_base: PhysAddr,
    /// Per-job staging slot size in bytes.
    pub slot_len: u64,
    /// Number of staging slots (bounds in-flight jobs).
    pub slots: u64,
}

/// The baseline orchestrator component.
pub struct SwExecutor {
    design: SwDesign,
    wiring: ExecutorWiring,
    jobs: DetMap<u64, JobState>,
    /// Sub-request token → job id.
    tokens: DetMap<u64, u64>,
    next_token: u64,
    next_slot: u64,
    /// GPU staging slot cursor.
    next_gpu_slot: u64,
}

impl SwExecutor {
    /// Creates an executor.
    pub fn new(design: SwDesign, wiring: ExecutorWiring) -> Self {
        SwExecutor {
            design,
            wiring,
            jobs: DetMap::new(),
            tokens: DetMap::new(),
            next_token: 1,
            next_slot: 0,
            next_gpu_slot: 0,
        }
    }

    fn token_for(&mut self, job_id: u64) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        self.tokens.insert(t, job_id);
        t
    }

    fn start_job(&mut self, ctx: &mut Ctx<'_>, job: D2dJob) {
        // The job contract, then the node's SSDs (as on the HDC Engine):
        // a job failing either runs no CPU job and no device op.
        let ssds = self.wiring.nvme_drivers.len();
        let missing_ssd = job.ops.iter().any(|op| {
            matches!(op, D2dOp::SsdRead { ssd, .. } | D2dOp::SsdWrite { ssd, .. } if *ssd >= ssds)
        });
        if missing_ssd || job.check().is_err() {
            ctx.send_now(job.reply_to, D2dDone::failed(job.id));
            return;
        }
        let slot = self.next_slot % self.wiring.slots;
        self.next_slot += 1;
        let host_buf = self.wiring.staging_base + slot * self.wiring.slot_len;
        let gpu_buf = self.wiring.gpu.as_ref().map(|(_, h)| {
            let gslot = self.next_gpu_slot % self.wiring.slots;
            self.next_gpu_slot += 1;
            h.memory.start + gslot * self.wiring.slot_len
        });
        let id = job.id;
        let state = JobState {
            job,
            step: 0,
            payload: PayloadLoc {
                addr: host_buf,
                len: 0,
                in_gpu: false,
            },
            digest: None,
            ok: true,
            waiting: None,
            copy_started: ctx.now(),
            host_buf,
            gpu_buf,
        };
        assert!(
            self.jobs.insert(id, state).is_none(),
            "duplicate job id {id}"
        );
        {
            let now = ctx.now();
            let obs = &mut ctx.world().obs;
            obs.req_begin(id, now);
            obs.span_begin("host", "sw-execute", id, now);
        }
        self.advance(ctx, id);
    }

    /// Charges `cost_ns` of CPU time under `tag`; `token` routes its
    /// completion.
    fn cpu_job(&self, ctx: &mut Ctx<'_>, token: u64, cost_ns: u64, tag: &'static str) {
        let reply_to = ctx.self_id();
        let job = CpuJob {
            token,
            cost_ns,
            tag,
            reply_to,
        };
        ctx.send_now(self.wiring.cpu, job);
    }

    fn advance(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        let (step, total, ok) = {
            let s = &self.jobs[&id];
            (s.step, s.job.ops.len(), s.ok)
        };
        // A failed op ends the job, as on the HDC Engine: no later op
        // digests an unfilled buffer or sends one.
        if step >= total || !ok {
            self.finish(ctx, id);
            return;
        }
        let op = self.jobs[&id].job.ops[step].clone();
        match op {
            D2dOp::SsdRead { ssd, lba, len } => self.do_ssd_read(ctx, id, ssd, lba, len),
            D2dOp::SsdWrite { ssd, lba } => self.do_ssd_write(ctx, id, ssd, lba),
            D2dOp::Process { function, aux } => self.do_process(ctx, id, function, aux),
            D2dOp::NicSend { flow, seq } => self.do_send(ctx, id, flow, seq),
            D2dOp::NicRecv { flow, len } => self.do_recv(ctx, id, flow, len),
            D2dOp::MemRead { len } => self.do_mem_read(ctx, id, len),
        }
    }

    fn do_mem_read(&mut self, ctx: &mut Ctx<'_>, id: u64, len: usize) {
        // Cache-hit fast path: the bytes are already resident in host
        // DRAM, so the kernel only pays the memcpy into the job's staging
        // buffer — no flash, no PCIe block transfer.
        let token = self.token_for(id);
        let state = self.jobs.get_mut(&id).expect("live job");
        state.waiting = Some(Waiting::MemFill { len });
        let tag = state.job.tag;
        self.cpu_job(ctx, token, costs::copy_cost(len).max(1), tag);
    }

    fn do_ssd_read(&mut self, ctx: &mut Ctx<'_>, id: u64, ssd: usize, lba: u64, len: usize) {
        // P2P: if the data is about to be processed on the GPU, read
        // straight into GPU memory (GPUDirect).
        let state = &self.jobs[&id];
        let to_gpu = self.design == SwDesign::SwP2p
            && matches!(
                state.job.ops.get(state.step + 1),
                Some(D2dOp::Process { .. })
            )
            && self.wiring.gpu.is_some();
        let token = self.token_for(id);
        let state = self.jobs.get_mut(&id).expect("live job");
        let buf = if to_gpu {
            state.gpu_buf.expect("gpu staged")
        } else {
            state.host_buf
        };
        state.payload = PayloadLoc {
            addr: buf,
            len,
            in_gpu: to_gpu,
        };
        state.waiting = Some(Waiting::Driver);
        let tag = state.job.tag;
        let driver = self.wiring.nvme_drivers[ssd];
        ctx.send_now(
            driver,
            BlockRequest {
                id: token,
                job: id,
                op: BlockOp::Read,
                lba,
                len,
                buf,
                tag,
                reply_to: ctx.self_id(),
            },
        );
    }

    /// Outside P2P a device reads only host DRAM: starts copying a payload
    /// out of the GPU (the op reruns afterwards) and says whether it did.
    fn stage_out_of_gpu(&mut self, ctx: &mut Ctx<'_>, id: u64) -> bool {
        let stage = self.jobs[&id].payload.in_gpu && self.design != SwDesign::SwP2p;
        if stage {
            self.copy_gpu_host(ctx, id, false, AfterCopy::Advance);
        }
        stage
    }

    fn do_ssd_write(&mut self, ctx: &mut Ctx<'_>, id: u64, ssd: usize, lba: u64) {
        // The SSD pulls write data via PRPs; under P2P it may pull from
        // GPU memory, otherwise the payload must be in host DRAM first.
        if self.stage_out_of_gpu(ctx, id) {
            return;
        }
        let token = self.token_for(id);
        let state = self.jobs.get_mut(&id).expect("live job");
        state.waiting = Some(Waiting::Driver);
        let tag = state.job.tag;
        let driver = self.wiring.nvme_drivers[ssd];
        let (buf, len) = (state.payload.addr, state.payload.len);
        let len = pad_to_blocks(ctx.world().expect_mut::<PhysMemory>(), buf, len);
        ctx.send_now(
            driver,
            BlockRequest {
                id: token,
                job: id,
                op: BlockOp::Write,
                lba,
                len,
                buf,
                tag,
                reply_to: ctx.self_id(),
            },
        );
    }

    fn do_process(&mut self, ctx: &mut Ctx<'_>, id: u64, function: NdpFunction, aux: Vec<u8>) {
        if self.wiring.gpu.is_none() {
            // No accelerator: hash on the CPU.
            let token = self.token_for(id);
            let state = self.jobs.get_mut(&id).expect("live job");
            state.waiting = Some(Waiting::CpuHash { function, aux });
            let (cost, tag) = (costs::cpu_hash_cost(state.payload.len), state.job.tag);
            self.cpu_job(ctx, token, cost, tag);
            return;
        }
        let in_gpu = self.jobs[&id].payload.in_gpu;
        if !in_gpu {
            // Stage into GPU memory first (cudaMemcpy H2D / P2P DMA).
            self.copy_gpu_host(ctx, id, true, AfterCopy::RunGpu { function, aux });
            return;
        }
        self.launch_gpu(ctx, id, function, aux);
    }

    fn launch_gpu(&mut self, ctx: &mut Ctx<'_>, id: u64, function: NdpFunction, aux: Vec<u8>) {
        let token = self.token_for(id);
        let output_addr = self.gpu_out_addr(id);
        let state = self.jobs.get_mut(&id).expect("live job");
        state.waiting = Some(Waiting::Gpu(function));
        let driver = self.wiring.gpu.as_ref().expect("gpu attached").0;
        ctx.send_now(
            driver,
            GpuOpRequest {
                id: token,
                job: id,
                function,
                aux,
                input_addr: state.payload.addr,
                input_len: state.payload.len,
                output_addr,
                // GPU control CPU time gets its own utilization tag so the
                // Figure 12-style breakdowns separate it from kernel work.
                tag: "gpu-control",
                reply_to: ctx.self_id(),
            },
        );
    }

    /// Where a GPU op of job `id` writes its output: the half of the
    /// job's GPU slot its input does not occupy. A staged payload sits in
    /// the first half and a transform's output in the second, so a digest
    /// after a transform goes to the first half instead of over the data.
    fn gpu_out_addr(&self, id: u64) -> PhysAddr {
        let state = &self.jobs[&id];
        let base = state.gpu_buf.expect("gpu staged");
        let upper = base + self.wiring.slot_len / 2;
        if state.payload.addr == upper {
            base
        } else {
            upper
        }
    }

    /// Starts a host↔GPU staging copy (`to_gpu` chooses direction).
    fn copy_gpu_host(&mut self, ctx: &mut Ctx<'_>, id: u64, to_gpu: bool, then: AfterCopy) {
        let token = self.token_for(id);
        let state = self.jobs.get_mut(&id).expect("live job");
        state.waiting = Some(Waiting::Copy { then });
        state.copy_started = ctx.now();
        let (src, dst) = if to_gpu {
            (state.payload.addr, state.gpu_buf.expect("gpu attached"))
        } else {
            (state.payload.addr, state.host_buf)
        };
        let len = state.payload.len;
        state.payload = PayloadLoc {
            addr: dst,
            len,
            in_gpu: to_gpu,
        };
        // The CUDA driver charges setup CPU time; the copy itself is DMA.
        let setup = costs::GPU_COPY_SETUP_NS;
        let cpu_token = self.token_for(id);
        // The CPU setup and the DMA run back-to-back; we only gate job
        // progress on the DMA completion, which marks the setup as GPU
        // control and the DMA as the copy.
        self.cpu_job(ctx, cpu_token, setup, "gpu-copy");
        self.tokens.remove(&cpu_token); // accounted, no continuation
        let req = DmaRequest {
            id: token,
            op: DmaOp::Copy { src, dst, len },
            class: TlpClass::Data,
        };
        dcs_pcie::dma_in(ctx, setup, self.wiring.fabric, req);
    }

    fn do_send(&mut self, ctx: &mut Ctx<'_>, id: u64, flow: dcs_nic::TcpFlow, seq: u32) {
        // Under SwOpt/Linux the NIC gathers from host memory; stage out of
        // the GPU if needed. Under SwP2p GPUDirect lets the NIC gather
        // straight from GPU memory.
        if self.stage_out_of_gpu(ctx, id) {
            return;
        }
        let token = self.token_for(id);
        let state = self.jobs.get_mut(&id).expect("live job");
        state.waiting = Some(Waiting::Driver);
        let tag = state.job.tag;
        let nic = self.wiring.nic_driver;
        ctx.send_now(
            nic,
            SendRequest {
                id: token,
                job: id,
                flow,
                seq,
                payload_addr: state.payload.addr,
                len: state.payload.len,
                tag,
                reply_to: ctx.self_id(),
            },
        );
    }

    fn do_recv(&mut self, ctx: &mut Ctx<'_>, id: u64, flow: dcs_nic::TcpFlow, len: usize) {
        let token = self.token_for(id);
        let state = self.jobs.get_mut(&id).expect("live job");
        state.waiting = Some(Waiting::Driver);
        state.payload = PayloadLoc {
            addr: state.host_buf,
            len,
            in_gpu: false,
        };
        let tag = state.job.tag;
        let nic = self.wiring.nic_driver;
        ctx.send_now(
            nic,
            RecvExpect {
                id: token,
                job: id,
                flow,
                len,
                into: state.host_buf,
                tag,
                reply_to: ctx.self_id(),
            },
        );
    }

    fn finish(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        let state = self.jobs.remove(&id).expect("live job");
        ctx.world().stats.counter("executor.jobs_done").add(1);
        // End-to-end integrity audit: record what this job is reporting
        // as its result so tests can cross-check "completed ok" against
        // the actual payload bytes. The payload is read only when an
        // audit is installed.
        if ctx.world_ref().get::<IntegrityAudit>().is_some() {
            let payload = ctx
                .world_ref()
                .expect::<PhysMemory>()
                .read(state.payload.addr, state.payload.len);
            dcs_sim::integrity::audit(ctx.world(), id, state.ok, &payload);
        }
        {
            let now = ctx.now();
            let obs = &mut ctx.world().obs;
            obs.span_end("host", "sw-execute", id, now);
            obs.req_end(id, Category::RequestCompletion, now);
        }
        ctx.send_now(
            state.job.reply_to,
            D2dDone {
                id,
                ok: state.ok,
                digest: state.digest,
                payload_len: state.payload.len,
            },
        );
    }

    /// Ends the current op; a failed one (`ok = false`) ends the job.
    fn step_done(&mut self, ctx: &mut Ctx<'_>, id: u64, ok: bool) {
        let state = self.jobs.get_mut(&id).expect("live job");
        state.ok &= ok;
        state.step += 1;
        state.waiting = None;
        self.advance(ctx, id);
    }
}

impl Component for SwExecutor {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<D2dJob>() {
            Ok(job) => {
                self.start_job(ctx, job);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<OpDone>() {
            Ok(done) => {
                // A block, send or receive request settled.
                let id = self.tokens.remove(&done.id).expect("token routed");
                self.step_done(ctx, id, done.ok);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<GpuOpDone>() {
            Ok(done) => {
                let id = self.tokens.remove(&done.id).expect("token routed");
                let function = match self.jobs[&id].waiting {
                    Some(Waiting::Gpu(function)) => function,
                    ref other => {
                        panic!("GpuOpDone while not waiting on GPU: {:?}", other.is_some())
                    }
                };
                let out_addr = self.gpu_out_addr(id);
                if function.is_digest() {
                    let dlen = function.digest_len().expect("digest function");
                    let digest = ctx.world_ref().expect::<PhysMemory>().read(out_addr, dlen);
                    // Fetching the digest to the host is a small D2H read,
                    // folded into the GPU-control segment.
                    self.jobs.get_mut(&id).expect("live job").digest = Some(digest);
                } else {
                    self.jobs.get_mut(&id).expect("live job").payload = PayloadLoc {
                        addr: out_addr,
                        len: done.output_len,
                        in_gpu: true,
                    };
                }
                self.step_done(ctx, id, done.ok);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<DmaStart>() {
            Ok(start) => {
                start.book(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<DmaComplete>() {
            Ok(done) => {
                let done = done.land(ctx.world());
                let id = self.tokens.remove(&done.id).expect("token routed");
                let then = {
                    let state = self.jobs.get_mut(&id).expect("live job");
                    let now = ctx.now();
                    let obs = &mut ctx.world().obs;
                    let dma_start = state.copy_started + costs::GPU_COPY_SETUP_NS;
                    obs.mark(id, Category::GpuControl, dma_start);
                    obs.mark(id, Category::GpuCopy, now);
                    if !done.status.is_ok() {
                        // Poisoned or timed-out staging copy: the payload
                        // can't be trusted, so the job is marked failed
                        // but still runs to completion (steps that parse
                        // the payload tolerate garbage bytes).
                        state.ok = false;
                        ctx.world().stats.counter("executor.poisoned_copies").add(1);
                    }
                    match state.waiting.take() {
                        Some(Waiting::Copy { then }) => then,
                        _ => panic!("DmaComplete while not waiting on a copy"),
                    }
                };
                match then {
                    AfterCopy::RunGpu { function, aux } => self.launch_gpu(ctx, id, function, aux),
                    AfterCopy::Advance => {
                        // The copy was a prerequisite of the *current* op;
                        // re-run it now that the payload is in host memory.
                        self.advance(ctx, id);
                    }
                }
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<CpuJobDone>() {
            Ok(done) => {
                let Some(id) = self.tokens.remove(&done.token) else {
                    // Fire-and-forget accounting job (copy setup).
                    return;
                };
                let (function, aux, addr, len) = {
                    let state = self.jobs.get_mut(&id).expect("live job");
                    match state.waiting.take() {
                        Some(Waiting::CpuHash { function, aux }) => {
                            (function, aux, state.payload.addr, state.payload.len)
                        }
                        Some(Waiting::MemFill { len }) => {
                            // Cache copy finished: the staging buffer is
                            // the payload now.
                            let host_buf = state.host_buf;
                            state.payload = PayloadLoc {
                                addr: host_buf,
                                len,
                                in_gpu: false,
                            };
                            fill_mem_read(ctx.world().expect_mut::<PhysMemory>(), host_buf, len);
                            ctx.mark(id, Category::DataCopy);
                            self.step_done(ctx, id, true);
                            return;
                        }
                        _ => panic!("CpuJobDone while not hashing on CPU"),
                    }
                };
                ctx.mark(id, Category::Hash);
                let input = ctx.world_ref().expect::<PhysMemory>().read(addr, len);
                let result = function.apply(&input, &aux);
                let state = self.jobs.get_mut(&id).expect("live job");
                let ok = result.is_ok();
                if let Ok(out) = result {
                    if let Some(d) = out.digest {
                        state.digest = Some(d);
                    }
                    if let Some(data) = out.data {
                        let host_buf = state.host_buf;
                        state.payload = PayloadLoc {
                            addr: host_buf,
                            len: data.len(),
                            in_gpu: false,
                        };
                        ctx.world()
                            .expect_mut::<PhysMemory>()
                            .write(host_buf, &data);
                    }
                }
                self.step_done(ctx, id, ok);
            }
            Err(other) => panic!("SwExecutor received unexpected message: {other:?}"),
        }
    }
}
