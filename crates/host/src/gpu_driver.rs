//! The host GPU driver (CUDA-runtime stand-in).
//!
//! The baseline designs accelerate intermediate processing on the GPU, and
//! the paper's point is precisely what that costs the host: a driver
//! ioctl to launch each kernel and another round of driver work to
//! synchronize on completion, all on the CPU (Figures 3 and 11b's
//! "GPU control" segments). The data movement to and from GPU memory is
//! done by the caller over the normal PCIe fabric, matching how the
//! baselines differ (SwOpt copies host↔GPU; SwP2p DMAs peer-to-peer).

use dcs_sim::DetMap;

use dcs_gpu::{GpuHandle, KernelDone, LaunchKernel};
use dcs_ndp::NdpFunction;
use dcs_pcie::PhysAddr;
use dcs_sim::{Category, Component, ComponentId, Ctx, Msg};

use crate::costs;
use crate::cpu::{CpuJob, CpuJobDone};

/// Run `function` over data already resident in GPU memory.
#[derive(Debug, Clone)]
pub struct GpuOpRequest {
    /// Requester-chosen identifier echoed in [`GpuOpDone`].
    pub id: u64,
    /// The D2D job this op serves: its anatomy takes the phases.
    pub job: u64,
    /// The processing function.
    pub function: NdpFunction,
    /// Function parameters (AES key‖nonce).
    pub aux: Vec<u8>,
    /// Input address in GPU memory.
    pub input_addr: PhysAddr,
    /// Input length in bytes.
    pub input_len: usize,
    /// Output address in GPU memory.
    pub output_addr: PhysAddr,
    /// CPU-utilization tag.
    pub tag: &'static str,
    /// Component notified on completion.
    pub reply_to: ComponentId,
}

/// Completion of a [`GpuOpRequest`].
#[derive(Debug, Clone)]
pub struct GpuOpDone {
    /// Identifier from the originating request.
    pub id: u64,
    /// Whether the kernel succeeded.
    pub ok: bool,
    /// Bytes written at the output address.
    pub output_len: usize,
}

struct Pending {
    req: GpuOpRequest,
    ok: bool,
    output_len: usize,
}

enum CpuPhase {
    Launch { token: u64 },
    Sync { token: u64 },
}

/// The driver component. One instance drives one GPU.
pub struct HostGpuDriver {
    cpu: ComponentId,
    gpu: GpuHandle,
    pending: DetMap<u64, Pending>,
    cpu_phases: DetMap<u64, CpuPhase>,
    next_token: u64,
}

impl HostGpuDriver {
    /// Creates the driver.
    pub fn new(cpu: ComponentId, gpu: GpuHandle) -> Self {
        HostGpuDriver {
            cpu,
            gpu,
            pending: DetMap::new(),
            cpu_phases: DetMap::new(),
            next_token: 1,
        }
    }

    fn cpu_job(&mut self, ctx: &mut Ctx<'_>, cost: u64, tag: &'static str, phase: CpuPhase) {
        let t = self.next_token;
        self.next_token += 1;
        self.cpu_phases.insert(t, phase);
        let cpu = self.cpu;
        ctx.send_now(
            cpu,
            CpuJob {
                token: t,
                cost_ns: cost,
                tag,
                reply_to: ctx.self_id(),
            },
        );
    }
}

impl Component for HostGpuDriver {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<GpuOpRequest>() {
            Ok(req) => {
                let token = self.next_token;
                self.next_token += 1;
                let tag = req.tag;
                self.pending.insert(
                    token,
                    Pending {
                        req,
                        ok: false,
                        output_len: 0,
                    },
                );
                let cost = costs::GPU_LAUNCH_NS;
                self.cpu_job(ctx, cost, tag, CpuPhase::Launch { token });
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<CpuJobDone>() {
            Ok(done) => {
                match self.cpu_phases.remove(&done.token).expect("live cpu phase") {
                    CpuPhase::Launch { token } => {
                        let p = self.pending.get_mut(&token).expect("live op");
                        ctx.mark(p.req.job, Category::GpuControl);
                        let launch = LaunchKernel {
                            id: token,
                            function: p.req.function,
                            input_addr: p.req.input_addr,
                            input_len: p.req.input_len,
                            aux: p.req.aux.clone(),
                            output_addr: p.req.output_addr,
                        };
                        let gpu = self.gpu.device;
                        ctx.send_now(gpu, launch);
                    }
                    CpuPhase::Sync { token } => {
                        let p = self.pending.remove(&token).expect("live op");
                        ctx.mark(p.req.job, Category::GpuControl);
                        ctx.send_now(
                            p.req.reply_to,
                            GpuOpDone {
                                id: p.req.id,
                                ok: p.ok,
                                output_len: p.output_len,
                            },
                        );
                    }
                }
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<KernelDone>() {
            Ok(done) => {
                let tag = {
                    let p = self.pending.get_mut(&done.id).expect("live op");
                    p.ok = done.ok;
                    p.output_len = done.output_len;
                    ctx.mark(p.req.job, Category::Hash);
                    p.req.tag
                };
                let cost = costs::GPU_SYNC_NS;
                let token = done.id;
                self.cpu_job(ctx, cost, tag, CpuPhase::Sync { token });
            }
            Err(other) => panic!("HostGpuDriver received unexpected message: {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuPool;
    use dcs_gpu::install_gpu;
    use dcs_pcie::{PhysMemory, PortId};
    use dcs_sim::Simulator;

    struct Caller {
        driver: ComponentId,
        done: Vec<GpuOpDone>,
    }

    #[derive(Debug)]
    struct Go(GpuOpRequest);

    impl Component for Caller {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            let msg = match msg.downcast::<Go>() {
                Ok(Go(req)) => {
                    let d = self.driver;
                    ctx.send_now(d, req);
                    return;
                }
                Err(m) => m,
            };
            let d = msg
                .downcast::<GpuOpDone>()
                .expect("caller gets gpu completions");
            ctx.world().stats.counter("caller.done").add(1);
            if d.ok {
                ctx.world().stats.counter("caller.ok").add(1);
            }
            self.done.push(d);
        }
    }

    #[test]
    fn gpu_op_charges_control_cpu_and_produces_digest() {
        let mut sim = Simulator::new(2);
        sim.world_mut().insert(PhysMemory::new());
        let cpu = sim.add("cpu", CpuPool::new("node0", 4));
        let gpu = install_gpu(&mut sim, "gpu0", PortId(3));
        let driver = sim.add("gpu-driver", HostGpuDriver::new(cpu, gpu.clone()));
        let caller = sim.reserve("caller");
        sim.install(
            caller,
            Caller {
                driver,
                done: vec![],
            },
        );
        sim.world_mut()
            .expect_mut::<PhysMemory>()
            .write(gpu.memory.start, b"abc");
        sim.kickoff(
            caller,
            Go(GpuOpRequest {
                id: 1,
                job: 1,
                function: NdpFunction::Md5,
                aux: vec![],
                input_addr: gpu.memory.start,
                input_len: 3,
                output_addr: gpu.memory.start + 0x1000,
                tag: "gpu-control",
                reply_to: caller,
            }),
        );
        sim.run();
        assert_eq!(sim.world().stats.counter_value("caller.ok"), 1);
        let digest = sim
            .world()
            .expect::<PhysMemory>()
            .read(gpu.memory.start + 0x1000, 16);
        assert_eq!(dcs_ndp::to_hex(&digest), "900150983cd24fb0d6963f7d28e17f72");
        // CPU accounting includes launch + sync.
        let stats = sim.world().expect::<crate::cpu::CpuStats>();
        assert_eq!(
            stats.pool("node0").unwrap().tracker.busy_for("gpu-control"),
            costs::GPU_LAUNCH_NS + costs::GPU_SYNC_NS
        );
    }
}
