//! # dcs-gpu — the GPU model used by the baseline designs
//!
//! The paper's baseline designs (software optimization and
//! software-controlled P2P) offload intermediate data processing — MD5 for
//! Swift, CRC32 for HDFS — to an NVIDIA Tesla K20m (§V-B): the CPU copies
//! or P2P-DMAs data into GPU memory, launches a kernel, and fetches the
//! result. DCS-ctrl's pitch is that this *GPU control* and *CPU↔GPU copy*
//! time disappears when the processing moves into the HDC Engine's NDP
//! units, so the GPU model concentrates on exactly those costs:
//!
//! * BAR-exposed device memory (GPUDirect-style): other devices and the
//!   host DMA straight into GPU memory through the normal PCIe fabric.
//! * Kernel launch latency and a compute engine with a fixed
//!   per-function throughput (Tesla K20m-era constants); the *actual*
//!   computation runs the same [`dcs_ndp`] code the NDP units use, so
//!   results are comparable byte-for-byte.
//! * A completion message back to the launching component (the driver's
//!   completion interrupt).
//!
//! ```no_run
//! use dcs_gpu::LaunchKernel;
//! use dcs_ndp::NdpFunction;
//! # let (input_addr, output_addr) = unimplemented!();
//! let launch = LaunchKernel {
//!     id: 1,
//!     function: NdpFunction::Md5,
//!     input_addr,
//!     input_len: 4096,
//!     aux: vec![],
//!     output_addr,
//! };
//! ```

use dcs_sim::DetMap;

use dcs_ndp::NdpFunction;
use dcs_pcie::{AddrRange, PhysAddr, PhysMemory, PortId};
use dcs_sim::{time, Bandwidth, Component, ComponentId, Ctx, FifoServer, Msg, Simulator};

/// Driver-to-execution kernel launch latency, in ns.
pub const LAUNCH_LATENCY_NS: u64 = time::us(22);
/// Completion signaling latency back to the host, in ns.
pub const COMPLETION_LATENCY_NS: u64 = time::us(9);
/// Compute throughput for digest kernels (MD5/SHA/CRC).
pub const HASH_THROUGHPUT: Bandwidth = Bandwidth::gbps(30.0);
/// Compute throughput for transform kernels (AES/GZIP).
pub const TRANSFORM_THROUGHPUT: Bandwidth = Bandwidth::gbps(20.0);
/// Device memory size in bytes.
pub const MEMORY_SIZE: u64 = 5 << 30;

/// Asks the GPU to run `function` over `input_len` bytes at `input_addr`
/// (which must already be in GPU memory), storing the digest or transformed
/// data at `output_addr`.
#[derive(Debug, Clone)]
pub struct LaunchKernel {
    /// Requester-chosen token echoed in [`KernelDone`].
    pub id: u64,
    /// The processing function to execute.
    pub function: NdpFunction,
    /// Input data address (in GPU memory).
    pub input_addr: PhysAddr,
    /// Input length in bytes.
    pub input_len: usize,
    /// Function-specific parameters (AES key‖nonce).
    pub aux: Vec<u8>,
    /// Where to store the digest (digest functions) or transformed data.
    pub output_addr: PhysAddr,
}

/// Kernel completion notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelDone {
    /// Token from the originating [`LaunchKernel`].
    pub id: u64,
    /// Whether the kernel succeeded (processing errors surface here).
    pub ok: bool,
    /// Bytes written at `output_addr`.
    pub output_len: usize,
}

/// Internal: compute finished.
#[derive(Debug)]
struct ComputeDone {
    token: u64,
}

struct Pending {
    launch: LaunchKernel,
    reply_to: ComponentId,
}

/// Handle returned by [`install_gpu`].
#[derive(Debug, Clone)]
pub struct GpuHandle {
    /// The GPU component.
    pub device: ComponentId,
    /// BAR-exposed device memory (GPUDirect target for P2P DMA).
    pub memory: AddrRange,
    /// PCIe port the GPU occupies.
    pub port: PortId,
}

/// The GPU component.
pub struct GpuDevice {
    compute: FifoServer,
    pending: DetMap<u64, Pending>,
    next_token: u64,
}

impl GpuDevice {
    /// Creates an idle GPU ([`install_gpu`] wires one up).
    fn new() -> Self {
        GpuDevice {
            compute: FifoServer::new(),
            pending: DetMap::new(),
            next_token: 1,
        }
    }

    fn throughput_for(f: NdpFunction) -> Bandwidth {
        if f.is_digest() {
            HASH_THROUGHPUT
        } else {
            TRANSFORM_THROUGHPUT
        }
    }
}

impl Component for GpuDevice {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let reply_to = msg.src;
        let msg = match msg.downcast::<LaunchKernel>() {
            Ok(launch) => {
                let token = self.next_token;
                self.next_token += 1;
                let service = Self::throughput_for(launch.function).transfer_time(launch.input_len);
                let start_at = ctx.now() + LAUNCH_LATENCY_NS;
                let done = self.compute.offer(start_at, service);
                ctx.world().stats.counter("gpu.kernels").add(1);
                ctx.world()
                    .stats
                    .counter("gpu.bytes")
                    .add(launch.input_len as u64);
                self.pending.insert(token, Pending { launch, reply_to });
                let delay = done - ctx.now();
                ctx.send_self_in(delay, ComputeDone { token });
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<ComputeDone>() {
            Ok(ComputeDone { token }) => {
                let Pending { launch, reply_to } = self
                    .pending
                    .remove(&token)
                    .expect("compute completion for live kernel");
                let input = ctx
                    .world_ref()
                    .expect::<PhysMemory>()
                    .read(launch.input_addr, launch.input_len);
                let (ok, out_bytes) = match launch.function.apply(&input, &launch.aux) {
                    Ok(out) => {
                        let bytes = match (&out.digest, &out.data) {
                            (Some(d), _) => d.clone(),
                            (None, Some(d)) => d.clone(),
                            (None, None) => vec![],
                        };
                        (true, bytes)
                    }
                    Err(_) => (false, vec![]),
                };
                if ok && !out_bytes.is_empty() {
                    ctx.world()
                        .expect_mut::<PhysMemory>()
                        .write(launch.output_addr, &out_bytes);
                }
                let done = KernelDone {
                    id: launch.id,
                    ok,
                    output_len: out_bytes.len(),
                };
                ctx.send_in(COMPLETION_LATENCY_NS, reply_to, done);
            }
            Err(other) => panic!("GpuDevice received unexpected message: {other:?}"),
        }
    }
}

/// Allocates GPU memory and installs the device on `port`.
pub fn install_gpu(sim: &mut Simulator, name: &str, port: PortId) -> GpuHandle {
    let memory = {
        let mem = sim.world_mut().expect_mut::<PhysMemory>();
        mem.alloc_region(&format!("{name}-mem"), MEMORY_SIZE, port)
    };
    let device = sim.add(name, GpuDevice::new());
    GpuHandle {
        device,
        memory,
        port,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_ndp::to_hex;

    struct Launcher {
        gpu: ComponentId,
        results: Vec<KernelDone>,
    }

    #[derive(Debug)]
    struct Go(LaunchKernel);

    impl Component for Launcher {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            let msg = match msg.downcast::<Go>() {
                Ok(Go(launch)) => {
                    let gpu = self.gpu;
                    ctx.send_now(gpu, launch);
                    return;
                }
                Err(m) => m,
            };
            match msg.downcast::<KernelDone>() {
                Ok(done) => {
                    ctx.world().stats.counter("launcher.done").add(1);
                    if done.ok {
                        ctx.world().stats.counter("launcher.ok").add(1);
                    }
                    self.results.push(done);
                }
                Err(other) => panic!("unexpected: {other:?}"),
            }
        }
    }

    fn setup() -> (Simulator, GpuHandle, ComponentId) {
        let mut sim = Simulator::new(3);
        sim.world_mut().insert(PhysMemory::new());
        let gpu = install_gpu(&mut sim, "gpu0", PortId(3));
        let launcher = sim.add(
            "launcher",
            Launcher {
                gpu: gpu.device,
                results: vec![],
            },
        );
        (sim, gpu, launcher)
    }

    #[test]
    fn md5_kernel_produces_correct_digest() {
        let (mut sim, gpu, launcher) = setup();
        let input = b"abc";
        sim.world_mut()
            .expect_mut::<PhysMemory>()
            .write(gpu.memory.start, input);
        sim.kickoff(
            launcher,
            Go(LaunchKernel {
                id: 9,
                function: NdpFunction::Md5,
                input_addr: gpu.memory.start,
                input_len: input.len(),
                aux: vec![],
                output_addr: gpu.memory.start + 0x1000,
            }),
        );
        sim.run();
        assert_eq!(sim.world().stats.counter_value("launcher.ok"), 1);
        let digest = sim
            .world()
            .expect::<PhysMemory>()
            .read(gpu.memory.start + 0x1000, 16);
        assert_eq!(to_hex(&digest), "900150983cd24fb0d6963f7d28e17f72");
        // Latency ≥ launch + completion latencies.
        assert!(sim.now().as_nanos() >= time::us(11));
    }

    #[test]
    fn kernels_serialize_on_the_compute_engine() {
        let (mut sim, gpu, launcher) = setup();
        let len = 1 << 20;
        let data = vec![7u8; len];
        sim.world_mut()
            .expect_mut::<PhysMemory>()
            .write(gpu.memory.start, &data);
        for i in 0..2 {
            sim.kickoff(
                launcher,
                Go(LaunchKernel {
                    id: i,
                    function: NdpFunction::Crc32,
                    input_addr: gpu.memory.start,
                    input_len: len,
                    aux: vec![],
                    output_addr: gpu.memory.start + 0x200000 + i * 64,
                }),
            );
        }
        sim.run();
        assert_eq!(sim.world().stats.counter_value("launcher.ok"), 2);
        let one = HASH_THROUGHPUT.transfer_time(len);
        let t = sim.now().as_nanos();
        assert!(t >= 2 * one, "{t} >= {}", 2 * one);
    }

    #[test]
    fn failed_processing_reports_not_ok() {
        let (mut sim, gpu, launcher) = setup();
        sim.kickoff(
            launcher,
            Go(LaunchKernel {
                id: 1,
                function: NdpFunction::Aes256Encrypt,
                input_addr: gpu.memory.start,
                input_len: 16,
                aux: vec![1, 2, 3], // malformed key material
                output_addr: gpu.memory.start + 0x1000,
            }),
        );
        sim.run();
        assert_eq!(sim.world().stats.counter_value("launcher.done"), 1);
        assert_eq!(sim.world().stats.counter_value("launcher.ok"), 0);
    }

    #[test]
    fn transform_kernel_writes_output_data() {
        let (mut sim, gpu, launcher) = setup();
        let input = b"compressible compressible compressible".repeat(10);
        sim.world_mut()
            .expect_mut::<PhysMemory>()
            .write(gpu.memory.start, &input);
        sim.kickoff(
            launcher,
            Go(LaunchKernel {
                id: 2,
                function: NdpFunction::GzipCompress,
                input_addr: gpu.memory.start,
                input_len: input.len(),
                aux: vec![],
                output_addr: gpu.memory.start + 0x10000,
            }),
        );
        sim.run();
        assert_eq!(sim.world().stats.counter_value("launcher.ok"), 1);
        // Decompress what the GPU wrote and compare.
        let mem = sim.world().expect::<PhysMemory>();
        // Compressed length is not directly visible here; read generously
        // and trust the gzip framing to delimit the stream.
        let blob = mem.read(gpu.memory.start + 0x10000, input.len() + 64);
        let back = dcs_ndp::deflate::gzip_decompress(
            &blob[..gzip_member_len(&blob).expect("valid gzip member")],
        )
        .unwrap();
        assert_eq!(back, input);
    }

    /// Finds the length of the gzip member at the start of `blob` by
    /// attempting decompression at decreasing lengths (test helper).
    fn gzip_member_len(blob: &[u8]) -> Option<usize> {
        (18..=blob.len()).find(|&n| dcs_ndp::deflate::gzip_decompress(&blob[..n]).is_ok())
    }
}
