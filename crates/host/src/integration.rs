//! An idealized consolidated device — the *device integration* reference
//! point of Figure 3 and Table I.
//!
//! QuickSAN/BlueDBM-style devices fuse storage, network, and processing
//! behind one internal interconnect: data never crosses the PCIe switch
//! and control never leaves the device. This executor models that upper
//! bound analytically: per-op device service times (flash, processing,
//! wire) plus a tiny internal control overhead, with a single syscall of
//! host software per job. It really moves and processes the bytes (so
//! digests remain comparable), but intentionally skips fabric contention —
//! it exists to show how close DCS-ctrl gets to a fused design while
//! keeping off-the-shelf devices.

use dcs_sim::DetMap;

use dcs_nic::wire::PROPAGATION_NS;
use dcs_nvme::{device as nvme, LBA_SIZE};
use dcs_pcie::{AddrRange, PhysMemory};
use dcs_sim::{Bandwidth, Category, Component, ComponentId, Ctx, Msg};

use crate::costs;
use crate::cpu::{CpuJob, CpuJobDone};
use crate::job::{D2dDone, D2dJob, D2dOp};

// Timing of the consolidated device. Its flash is the discrete SSD's
// silicon (`dcs_nvme::device`) and its wire the discrete link's
// (`dcs_nic::wire`).

/// Internal interconnect bandwidth between the fused engines.
pub const INTERNAL_BANDWIDTH: Bandwidth = Bandwidth::gbps(64.0);
/// Hardware control overhead per device operation.
pub const CONTROL_NS: u64 = 300;
/// Processing throughput of the integrated accelerator.
pub const PROCESSING: Bandwidth = Bandwidth::gbps(40.0);
/// Network line rate of the integrated NIC.
pub const WIRE: Bandwidth = Bandwidth::gbps(10.0);

/// The idealized integrated-device executor.
///
/// Accepts the same [`D2dJob`]s as every other executor. Storage reads
/// take their data from the given flash region so end-to-end digests match
/// the discrete designs.
pub struct IntegratedExecutor {
    cpu: ComponentId,
    /// Flash backing region (shared layout with the discrete SSD model).
    flash: AddrRange,
    pending: DetMap<u64, D2dJob>,
    next_token: u64,
    tokens: DetMap<u64, u64>,
}

/// Internal: all device work for a job has elapsed.
#[derive(Debug)]
struct DeviceDone {
    job_id: u64,
    /// The device phases in order, `(category, ns)`; the job waits their
    /// sum.
    phases: Vec<(Category, u64)>,
    digest: Option<Vec<u8>>,
    ok: bool,
    payload_len: usize,
}

impl IntegratedExecutor {
    /// Creates the executor over a flash region.
    pub fn new(cpu: ComponentId, flash: AddrRange) -> Self {
        IntegratedExecutor {
            cpu,
            flash,
            pending: DetMap::new(),
            next_token: 1,
            tokens: DetMap::new(),
        }
    }

    /// Computes device time and runs the data path to `job`'s first failure.
    fn execute(&self, ctx: &mut Ctx<'_>, job: &D2dJob) -> DeviceDone {
        let mut phases = Vec::new();
        let mut payload: Vec<u8> = Vec::new();
        let mut digest = None;
        let mut ok = true;
        for op in &job.ops {
            phases.push((Category::DeviceControl, CONTROL_NS));
            match op {
                D2dOp::SsdRead { lba, len, .. } => {
                    let t = nvme::READ_LATENCY_NS
                        + nvme::READ_BANDWIDTH.transfer_time(*len)
                        + INTERNAL_BANDWIDTH.transfer_time(*len);
                    phases.push((Category::Read, t));
                    payload = ctx
                        .world_ref()
                        .expect::<PhysMemory>()
                        .read(self.flash.start + *lba * LBA_SIZE, *len);
                }
                D2dOp::SsdWrite { lba, .. } => {
                    let t = nvme::WRITE_LATENCY_NS
                        + nvme::WRITE_BANDWIDTH.transfer_time(payload.len())
                        + INTERNAL_BANDWIDTH.transfer_time(payload.len());
                    phases.push((Category::Write, t));
                    ctx.world()
                        .expect_mut::<PhysMemory>()
                        .write(self.flash.start + *lba * LBA_SIZE, &payload);
                }
                D2dOp::Process { function, aux } => {
                    let t = PROCESSING.transfer_time(payload.len());
                    phases.push((Category::Hash, t));
                    let Ok(out) = function.apply(&payload, aux) else {
                        ok = false;
                        break;
                    };
                    digest = out.digest.or(digest);
                    payload = out.data.unwrap_or(payload);
                }
                D2dOp::NicSend { .. } => {
                    let t = WIRE.transfer_time(payload.len()) + PROPAGATION_NS;
                    phases.push((Category::Wire, t));
                }
                D2dOp::NicRecv { len, .. } => {
                    let t = WIRE.transfer_time(*len) + PROPAGATION_NS;
                    phases.push((Category::Wire, t));
                    // Integrated receive synthesizes the payload locally
                    // (the fused device has no discrete peer in this
                    // reference model).
                    payload = vec![0u8; *len];
                }
                D2dOp::MemRead { len } => {
                    // Cache-hit fast path: the fused device pulls the
                    // bytes from host DRAM over its internal interconnect.
                    let t = INTERNAL_BANDWIDTH.transfer_time(*len);
                    phases.push((Category::DataCopy, t));
                    payload = vec![0u8; *len];
                }
            }
        }
        DeviceDone {
            job_id: job.id,
            phases,
            digest,
            ok,
            payload_len: payload.len(),
        }
    }
}

impl Component for IntegratedExecutor {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<D2dJob>() {
            Ok(job) => {
                if job.check().is_err() {
                    ctx.send_now(job.reply_to, D2dDone::failed(job.id));
                    return;
                }
                // One syscall of host software per job.
                let now = ctx.now();
                ctx.world().obs.req_begin(job.id, now);
                let token = self.next_token;
                self.next_token += 1;
                self.tokens.insert(token, job.id);
                let cpu = self.cpu;
                let tag = job.tag;
                self.pending.insert(job.id, job);
                let cost = costs::SYSCALL_NS + costs::VFS_LOOKUP_NS;
                ctx.send_now(
                    cpu,
                    CpuJob {
                        token,
                        cost_ns: cost,
                        tag,
                        reply_to: ctx.self_id(),
                    },
                );
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<CpuJobDone>() {
            Ok(done) => {
                let job_id = self.tokens.remove(&done.token).expect("token routed");
                let job = self.pending.get(&job_id).expect("live job").clone();
                ctx.mark(job_id, Category::DeviceControl);
                let result = self.execute(ctx, &job);
                let delay = result.phases.iter().map(|(_, ns)| ns).sum();
                ctx.send_self_in(delay, result);
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<DeviceDone>() {
            Ok(done) => {
                let job = self.pending.remove(&done.job_id).expect("live job");
                let now = ctx.now();
                let obs = &mut ctx.world().obs;
                let mut at = now - done.phases.iter().map(|(_, ns)| ns).sum::<u64>();
                for &(category, ns) in &done.phases {
                    at += ns;
                    obs.mark(done.job_id, category, at);
                }
                obs.req_end(done.job_id, Category::DeviceControl, now);
                ctx.send_now(
                    job.reply_to,
                    D2dDone {
                        id: done.job_id,
                        ok: done.ok,
                        digest: done.digest,
                        payload_len: done.payload_len,
                    },
                );
            }
            Err(other) => panic!("IntegratedExecutor received unexpected message: {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuPool;
    use dcs_ndp::NdpFunction;
    use dcs_pcie::PortId;
    use dcs_sim::{time, Simulator};

    struct Sink;
    impl Component for Sink {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            let d = msg
                .downcast::<D2dDone>()
                .expect("sink gets job completions");
            ctx.world().stats.counter("sink.done").add(1);
            if let Some(digest) = d.digest {
                assert_eq!(
                    dcs_ndp::to_hex(&digest),
                    dcs_ndp::to_hex(&dcs_ndp::md5::md5(&vec![0x11u8; 8192]))
                );
                ctx.world().stats.counter("sink.digest_ok").add(1);
            }
        }
    }

    #[test]
    fn integrated_read_hash_send_is_fast_and_correct() {
        let mut sim = Simulator::new(4);
        sim.world_mut().insert(PhysMemory::new());
        let flash = sim.world_mut().expect_mut::<PhysMemory>().alloc_region(
            "fused-flash",
            1 << 30,
            PortId(1),
        );
        sim.world_mut()
            .expect_mut::<PhysMemory>()
            .write(flash.start, &vec![0x11u8; 8192]);
        let cpu = sim.add("cpu", CpuPool::new("node0", 6));
        let exec = sim.add("integrated", IntegratedExecutor::new(cpu, flash));
        let sink = sim.add("sink", Sink);
        sim.kickoff(
            exec,
            D2dJob {
                id: 1,
                ops: vec![
                    D2dOp::SsdRead {
                        ssd: 0,
                        lba: 0,
                        len: 8192,
                    },
                    D2dOp::Process {
                        function: NdpFunction::Md5,
                        aux: vec![],
                    },
                    D2dOp::NicSend {
                        flow: dcs_nic::TcpFlow::example(1, 2, 3, 4),
                        seq: 0,
                    },
                ],
                reply_to: sink,
                tag: "fused",
            },
        );
        sim.run();
        assert_eq!(sim.world().stats.counter_value("sink.done"), 1);
        assert_eq!(sim.world().stats.counter_value("sink.digest_ok"), 1);
        // The fused device should complete well under 50us for 8 KiB.
        assert!(sim.now().as_nanos() < time::us(50), "{}", sim.now());
    }

    /// Completions land in the world, for tests that read them.
    #[derive(Default)]
    struct Inbox(Vec<D2dDone>);

    struct Collect;
    impl Component for Collect {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            let d = msg.downcast::<D2dDone>().expect("job completions");
            ctx.world().expect_mut::<Inbox>().0.push(d);
        }
    }

    #[test]
    fn a_failed_op_ends_the_job_before_the_write() {
        let mut sim = Simulator::new(4);
        sim.world_mut().insert(PhysMemory::new());
        sim.world_mut().insert(Inbox::default());
        let flash = sim.world_mut().expect_mut::<PhysMemory>().alloc_region(
            "fused-flash",
            1 << 30,
            PortId(1),
        );
        sim.world_mut()
            .expect_mut::<PhysMemory>()
            .write(flash.start, &[0x5au8; 4096]);
        let cpu = sim.add("cpu", CpuPool::new("node0", 6));
        let exec = sim.add("integrated", IntegratedExecutor::new(cpu, flash));
        let sink = sim.add("sink", Collect);
        let ops = vec![
            D2dOp::SsdRead {
                ssd: 0,
                lba: 0,
                len: 4096,
            },
            D2dOp::Process {
                function: NdpFunction::GzipDecompress,
                aux: vec![],
            },
            D2dOp::SsdWrite { ssd: 0, lba: 8 },
        ];
        let job = D2dJob {
            id: 1,
            ops,
            reply_to: sink,
            tag: "fused",
        };
        sim.kickoff(exec, job);
        sim.run();
        let done = &sim.world().expect::<Inbox>().0;
        assert_eq!(done.len(), 1);
        assert!(!done[0].ok, "non-gzip input cannot decompress");
        let written = sim
            .world()
            .expect::<PhysMemory>()
            .read(flash.start + 8 * LBA_SIZE, 4096);
        assert!(
            written.iter().all(|&b| b == 0),
            "the undecoded payload must not reach flash"
        );
    }

    #[test]
    fn end_to_end_is_one_syscall_plus_the_device_ops() {
        let mut sim = Simulator::new(4);
        sim.world_mut().insert(PhysMemory::new());
        sim.world_mut().obs.enable();
        let flash = sim.world_mut().expect_mut::<PhysMemory>().alloc_region(
            "fused-flash",
            1 << 30,
            PortId(1),
        );
        let len = 8192;
        sim.world_mut()
            .expect_mut::<PhysMemory>()
            .write(flash.start, &vec![0x11u8; len]);
        let cpu = sim.add("cpu", CpuPool::new("node0", 6));
        let exec = sim.add("integrated", IntegratedExecutor::new(cpu, flash));
        let sink = sim.add("sink", Sink);
        let ops = vec![
            D2dOp::SsdRead {
                ssd: 0,
                lba: 0,
                len,
            },
            D2dOp::Process {
                function: NdpFunction::Md5,
                aux: vec![],
            },
            D2dOp::NicSend {
                flow: dcs_nic::TcpFlow::example(1, 2, 3, 4),
                seq: 0,
            },
        ];
        let job = D2dJob {
            id: 7,
            ops,
            reply_to: sink,
            tag: "fused",
        };
        sim.kickoff(exec, job);
        sim.run();
        let syscall = costs::SYSCALL_NS + costs::VFS_LOOKUP_NS;
        let read = nvme::READ_LATENCY_NS
            + nvme::READ_BANDWIDTH.transfer_time(len)
            + INTERNAL_BANDWIDTH.transfer_time(len);
        let process = PROCESSING.transfer_time(len);
        let send = WIRE.transfer_time(len) + PROPAGATION_NS;
        let e2e = syscall + 3 * CONTROL_NS + read + process + send;
        assert_eq!(sim.now().as_nanos(), e2e, "the syscall is paid once");
        let a = sim.world().obs.anatomy(7).expect("job begun");
        assert_eq!(a.total_ns(), Some(e2e));
        assert_eq!(
            a.by_category(),
            [
                (Category::Hash, process),
                (Category::Read, read),
                (Category::DeviceControl, syscall + 3 * CONTROL_NS),
                (Category::Wire, send),
            ]
        );
    }
}
