//! Wiring helpers: assemble a full host node (CPU pool, PCIe fabric,
//! devices, drivers, executor) and pair two nodes over a wire.
//!
//! Scenarios and benchmarks build their testbeds through
//! [`HostNodeBuilder`]; the returned [`HostNode`] carries every id and
//! address a workload needs.

use dcs_gpu::{install_gpu, GpuHandle};
use dcs_nic::{install_nic, install_wire, NicConfig, NicHandle, WireConfig};
use dcs_nvme::{install_nvme, NvmeConfig, NvmeHandle};
use dcs_pcie::{
    install_fabric, AddrRange, FabricId, MmioRouting, PcieConfig, PhysAddr, PhysMemory, PortId,
};
use dcs_sim::{ComponentId, Simulator};

use crate::cpu::CpuPool;
use crate::executor::{ExecutorWiring, SwDesign, SwExecutor};
use crate::gpu_driver::HostGpuDriver;
use crate::nic_driver::{HostNicDriver, StartNicDriver};
use crate::nvme_driver::HostNvmeDriver;

/// Per-job staging slot size (bounds the largest payload).
pub const SLOT_LEN: u64 = 4 << 20;
/// Number of staging slots (bounds in-flight jobs).
pub const SLOTS: u64 = 64;

/// Declarative description of a host node.
#[derive(Clone, Debug)]
pub struct HostNodeBuilder {
    /// Node name (prefixes component and region names; keys CPU stats).
    pub name: String,
    /// CPU cores.
    pub cores: usize,
    /// Baseline personality the node's executor runs.
    pub design: SwDesign,
    /// One config per SSD to mount.
    pub ssds: Vec<NvmeConfig>,
    /// Attach a GPU accelerator?
    pub gpu: bool,
    /// NIC device parameters.
    pub nic: NicConfig,
}

impl HostNodeBuilder {
    /// A sensible default node: 6 cores (Table V's Xeon E5-2630), one SSD,
    /// a GPU, 10 GbE NIC.
    pub fn new(name: &str, design: SwDesign) -> Self {
        HostNodeBuilder {
            name: name.to_string(),
            cores: 6,
            design,
            ssds: vec![NvmeConfig::default()],
            gpu: true,
            nic: NicConfig::default(),
        }
    }
}

/// A fully wired host node.
#[derive(Debug, Clone)]
pub struct HostNode {
    /// Node name.
    pub name: String,
    /// CPU pool component (stats key = node name).
    pub cpu: ComponentId,
    /// Core count.
    pub cores: usize,
    /// The node's PCIe fabric.
    pub fabric: FabricId,
    /// Host DRAM region.
    pub dram: AddrRange,
    /// Mounted SSDs.
    pub ssds: Vec<NvmeHandle>,
    /// NVMe driver per SSD.
    pub nvme_drivers: Vec<ComponentId>,
    /// The NIC.
    pub nic: NicHandle,
    /// The NIC driver.
    pub nic_driver: ComponentId,
    /// GPU, if attached.
    pub gpu: Option<GpuHandle>,
    /// GPU driver, if attached.
    pub gpu_driver: Option<ComponentId>,
    /// The node's baseline executor.
    pub executor: ComponentId,
    /// Staging area used by the executor.
    pub staging: AddrRange,
    /// Free DRAM for workload buffers.
    free_base: PhysAddr,
    free_len: u64,
}

impl HostNode {
    /// Bump-allocates a page-aligned workload buffer from node DRAM.
    ///
    /// # Panics
    ///
    /// Panics when node DRAM is exhausted.
    pub fn alloc(&mut self, len: u64) -> PhysAddr {
        let len = len.div_ceil(4096) * 4096;
        assert!(len <= self.free_len, "node {} DRAM exhausted", self.name);
        let addr = self.free_base;
        self.free_base = self.free_base + len;
        self.free_len -= len;
        addr
    }
}

/// Builds a node against an already-installed wire endpoint.
///
/// `nic_id` must be a reserved component id that the wire was created
/// with; this function installs the NIC into it.
pub(crate) fn build_node(
    sim: &mut Simulator,
    builder: &HostNodeBuilder,
    nic_id: ComponentId,
    wire: ComponentId,
) -> HostNode {
    let name = &builder.name;
    // Per-node PCIe switch: the root port plus one port per device.
    let ports = 2 + builder.ssds.len() + usize::from(builder.gpu) + 1;
    let fabric = install_fabric(
        sim.world_mut(),
        PcieConfig {
            ports,
            ..PcieConfig::default()
        },
    );
    let cpu = sim.add(&format!("{name}-cpu"), CpuPool::new(name, builder.cores));
    let dram = sim.world_mut().expect_mut::<PhysMemory>().alloc_region(
        &format!("{name}-dram"),
        2 << 30,
        PortId::ROOT,
    );

    let mut next_port = 1u16;
    let mut port = || {
        let p = PortId(next_port);
        next_port += 1;
        p
    };

    // SSDs + drivers.
    let mut ssds = Vec::new();
    let mut nvme_drivers = Vec::new();
    let mut dram_off = 0u64;
    for (i, cfg) in builder.ssds.iter().enumerate() {
        let ssd = install_nvme(sim, fabric, cfg.clone(), &format!("{name}-ssd{i}"), port());
        let rings = AddrRange::new(dram.start + dram_off, 1 << 20);
        dram_off += 1 << 20;
        let msi_addr = dram.start + dram_off;
        dram_off += 4096;
        let driver_id = sim.reserve(&format!("{name}-nvme-driver{i}"));
        let (driver, attach) = HostNvmeDriver::new(
            cpu,
            ssd.clone(),
            builder.design.kernel_mode(),
            rings,
            msi_addr,
        );
        sim.install(driver_id, driver);
        sim.world_mut()
            .expect_mut::<MmioRouting>()
            .claim(AddrRange::new(msi_addr, 0x100), driver_id);
        sim.kickoff(ssd.device, attach);
        ssds.push(ssd);
        nvme_drivers.push(driver_id);
    }

    // NIC + driver.
    let nic = install_nic(
        sim,
        nic_id,
        fabric,
        wire,
        builder.nic.clone(),
        &format!("{name}-nic"),
        port(),
    );
    let nic_area = AddrRange::new(dram.start + dram_off, 8 << 20);
    dram_off += 8 << 20;
    let nic_msi = dram.start + dram_off;
    dram_off += 4096;
    let nic_driver_id = sim.reserve(&format!("{name}-nic-driver"));
    let (nic_driver, configure) = HostNicDriver::new(
        cpu,
        nic.clone(),
        builder.design.kernel_mode(),
        nic_area,
        nic_msi,
    );
    sim.install(nic_driver_id, nic_driver);
    sim.world_mut()
        .expect_mut::<MmioRouting>()
        .claim(AddrRange::new(nic_msi, 0x100), nic_driver_id);
    sim.kickoff(nic.device, configure);
    sim.kickoff(nic_driver_id, StartNicDriver);

    // GPU + driver.
    let (gpu, gpu_driver) = if builder.gpu {
        let handle = install_gpu(sim, &format!("{name}-gpu"), port());
        let driver = sim.add(
            &format!("{name}-gpu-driver"),
            HostGpuDriver::new(cpu, handle.clone()),
        );
        (Some(handle), Some(driver))
    } else {
        (None, None)
    };

    // Executor + staging.
    let staging_len = SLOT_LEN * SLOTS;
    let staging = AddrRange::new(dram.start + dram_off, staging_len);
    dram_off += staging_len;
    let wiring = ExecutorWiring {
        cpu,
        fabric,
        nvme_drivers: nvme_drivers.clone(),
        nic_driver: nic_driver_id,
        gpu: gpu_driver.and_then(|d| gpu.clone().map(|h| (d, h))),
        staging_base: staging.start,
        slot_len: SLOT_LEN,
        slots: SLOTS,
    };
    let executor = sim.add(
        &format!("{name}-executor"),
        SwExecutor::new(builder.design, wiring),
    );

    let free_base = dram.start + dram_off;
    let free_len = dram.len - dram_off;
    HostNode {
        name: name.clone(),
        cpu,
        cores: builder.cores,
        fabric,
        dram,
        ssds,
        nvme_drivers,
        nic,
        nic_driver: nic_driver_id,
        gpu,
        gpu_driver,
        executor,
        staging,
        free_base,
        free_len,
    }
}

/// Builds two nodes joined by a wire (the paper's two-node testbed).
///
/// Installs `PhysMemory` and `MmioRouting` into the world if absent.
pub fn build_pair(
    sim: &mut Simulator,
    a: &HostNodeBuilder,
    b: &HostNodeBuilder,
    wire_cfg: WireConfig,
) -> (HostNode, HostNode) {
    if sim.world().get::<PhysMemory>().is_none() {
        sim.world_mut().insert(PhysMemory::new());
    }
    if sim.world().get::<MmioRouting>().is_none() {
        sim.world_mut().insert(MmioRouting::new());
    }
    let nic_a = sim.reserve(&format!("{}-nic", a.name));
    let nic_b = sim.reserve(&format!("{}-nic", b.name));
    let wire = install_wire(sim, wire_cfg, nic_a, nic_b);
    let node_a = build_node(sim, a, nic_a, wire);
    let node_b = build_node(sim, b, nic_b, wire);
    (node_a, node_b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_builds_and_allocates() {
        let mut sim = Simulator::new(1);
        let (mut a, b) = build_pair(
            &mut sim,
            &HostNodeBuilder::new("alpha", SwDesign::SwOpt),
            &HostNodeBuilder::new("beta", SwDesign::SwOpt),
            WireConfig::default(),
        );
        assert_eq!(a.ssds.len(), 1);
        assert!(a.gpu.is_some());
        assert_ne!(a.nic.device, b.nic.device);
        let b1 = a.alloc(100);
        let b2 = a.alloc(5000);
        assert_eq!(b1.as_u64() % 4096, 0);
        assert!(b2 > b1);
        // Initial configuration messages must drain cleanly.
        sim.run();
        assert!(sim.is_idle());
    }

    #[test]
    fn node_without_gpu_builds() {
        let mut sim = Simulator::new(1);
        let mut builder = HostNodeBuilder::new("nogpu", SwDesign::Linux);
        builder.gpu = false;
        let (node, _) = build_pair(
            &mut sim,
            &builder,
            &HostNodeBuilder::new("peer", SwDesign::Linux),
            WireConfig::default(),
        );
        assert!(node.gpu.is_none());
        assert!(node.gpu_driver.is_none());
        sim.run();
    }

    #[test]
    #[should_panic(expected = "DRAM exhausted")]
    fn alloc_exhaustion_panics() {
        let mut sim = Simulator::new(1);
        let (mut a, _) = build_pair(
            &mut sim,
            &HostNodeBuilder::new("a", SwDesign::SwOpt),
            &HostNodeBuilder::new("b", SwDesign::SwOpt),
            WireConfig::default(),
        );
        a.alloc(4 << 30);
    }
}
