//! Wiring: a complete DCS-ctrl node (Figure 9) and two-node testbeds
//! (Figure 10).
//!
//! A DCS node carries the same host CPU, SSDs, and NIC as a baseline node,
//! plus the HDC Engine on its own PCIe slot; the engine owns dedicated
//! device queue pairs (qid 2 on the SSDs, the NIC's rings in BRAM), and
//! the HDC Driver on the host submits [`D2dJob`](dcs_host::D2dJob)s.

use dcs_host::cpu::CpuPool;
use dcs_nic::{install_nic, install_wire, NicConfig, NicHandle, WireConfig};
use dcs_nvme::{install_nvme, NvmeConfig, NvmeHandle};
use dcs_pcie::{
    install_fabric, AddrRange, FabricId, MmioRouting, PcieConfig, PhysAddr, PhysMemory, PortId,
};
use dcs_sim::{ComponentId, Simulator};

use crate::driver::{DriverLayout, HdcDriver};
use crate::engine::{EngineConfig, HdcEngine};

/// Declarative description of a DCS-ctrl node.
#[derive(Clone, Debug)]
pub struct DcsNodeBuilder {
    /// Node name (prefixes components; keys CPU stats).
    pub name: String,
    /// Host CPU cores.
    pub cores: usize,
    /// One config per SSD.
    pub ssds: Vec<NvmeConfig>,
    /// NIC parameters.
    pub nic: NicConfig,
    /// Engine parameters.
    pub engine: EngineConfig,
}

impl DcsNodeBuilder {
    /// A default node matching the paper's testbed: 6 cores, one Intel
    /// 750-like SSD, 10 GbE NIC, full NDP bank.
    pub fn new(name: &str) -> Self {
        DcsNodeBuilder {
            name: name.to_string(),
            cores: 6,
            ssds: vec![NvmeConfig::default()],
            nic: NicConfig::default(),
            engine: EngineConfig::default(),
        }
    }
}

/// A fully wired DCS-ctrl node.
#[derive(Debug, Clone)]
pub struct DcsNode {
    /// Node name.
    pub name: String,
    /// Host CPU pool.
    pub cpu: ComponentId,
    /// Core count.
    pub cores: usize,
    /// Node PCIe fabric.
    pub fabric: FabricId,
    /// Host DRAM.
    pub dram: AddrRange,
    /// Mounted SSDs.
    pub ssds: Vec<NvmeHandle>,
    /// The NIC.
    pub nic: NicHandle,
    /// The HDC Engine.
    pub engine: ComponentId,
    /// Engine DDR3 region (intermediate buffers).
    pub engine_ddr: AddrRange,
    /// The HDC Driver — submit [`D2dJob`](dcs_host::D2dJob)s here.
    pub driver: ComponentId,
    free_base: PhysAddr,
    free_len: u64,
}

impl DcsNode {
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

/// Builds a DCS node against an already-reserved NIC id / wire.
pub(crate) fn build_dcs_node(
    sim: &mut Simulator,
    builder: &DcsNodeBuilder,
    nic_id: ComponentId,
    wire: ComponentId,
) -> DcsNode {
    let name = &builder.name;
    let ports = 2 + builder.ssds.len() + 1 /* engine */ + 1;
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

    // Devices.
    let ssds: Vec<NvmeHandle> = builder
        .ssds
        .iter()
        .enumerate()
        .map(|(i, cfg)| install_nvme(sim, fabric, cfg.clone(), &format!("{name}-ssd{i}"), port()))
        .collect();
    let nic = install_nic(
        sim,
        nic_id,
        fabric,
        wire,
        builder.nic.clone(),
        &format!("{name}-nic"),
        port(),
    );

    // HDC Engine: BAR (BRAM window) + DDR3 on its own slot.
    let engine_port = port();
    let (engine_bar, engine_ddr) = {
        let mem = sim.world_mut().expect_mut::<PhysMemory>();
        let bar = mem.alloc_region(&format!("{name}-hdc-bar"), 8 << 20, engine_port);
        let ddr = mem.alloc_region(&format!("{name}-hdc-ddr"), 1 << 30, engine_port);
        (bar, ddr)
    };
    let engine_id = sim.reserve(&format!("{name}-hdc-engine"));
    let engine = HdcEngine::new(
        builder.engine.clone(),
        fabric,
        engine_bar,
        engine_ddr,
        engine_port,
        ssds.clone(),
        nic.clone(),
    );
    let cmd_queue = engine.cmd_queue_addr();
    let aux_base = engine.aux_base();
    sim.install(engine_id, engine);
    sim.world_mut()
        .expect_mut::<MmioRouting>()
        .claim(engine_bar, engine_id);

    // HDC Driver: completion ring + MSI in host DRAM. Aux blocks need no
    // room here: the driver posts them to the engine as DMA writes.
    let mut dram_off = 0u64;
    let completion_ring = dram.start;
    dram_off += 256 * 64;
    let msi_addr = dram.start + dram_off;
    dram_off += 4096;
    let layout = DriverLayout {
        completion_ring,
        completion_depth: 256,
        msi_addr,
    };
    let driver_id = sim.reserve(&format!("{name}-hdc-driver"));
    let (driver, init) = HdcDriver::new(cpu, fabric, engine_id, cmd_queue, aux_base, layout);
    sim.install(driver_id, driver);
    sim.world_mut()
        .expect_mut::<MmioRouting>()
        .claim(AddrRange::new(msi_addr, 0x100), driver_id);
    sim.kickoff(engine_id, init);

    let free_base = dram.start + dram_off;
    let free_len = dram.len - dram_off;
    DcsNode {
        name: name.clone(),
        cpu,
        cores: builder.cores,
        fabric,
        dram,
        ssds,
        nic,
        engine: engine_id,
        engine_ddr,
        driver: driver_id,
        free_base,
        free_len,
    }
}

/// Builds two DCS nodes joined by a wire.
///
/// Installs `PhysMemory` / `MmioRouting` into the world if absent.
pub fn build_dcs_pair(
    sim: &mut Simulator,
    a: &DcsNodeBuilder,
    b: &DcsNodeBuilder,
    wire_cfg: WireConfig,
) -> (DcsNode, DcsNode) {
    if sim.world().get::<PhysMemory>().is_none() {
        sim.world_mut().insert(PhysMemory::new());
    }
    if sim.world().get::<MmioRouting>().is_none() {
        sim.world_mut().insert(MmioRouting::new());
    }
    let nic_a = sim.reserve(&format!("{}-nic", a.name));
    let nic_b = sim.reserve(&format!("{}-nic", b.name));
    let wire = install_wire(sim, wire_cfg, nic_a, nic_b);
    let node_a = build_dcs_node(sim, a, nic_a, wire);
    let node_b = build_dcs_node(sim, b, nic_b, wire);
    (node_a, node_b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dcs_pair_builds_and_settles() {
        let mut sim = Simulator::new(11);
        let (a, b) = build_dcs_pair(
            &mut sim,
            &DcsNodeBuilder::new("alpha"),
            &DcsNodeBuilder::new("beta"),
            WireConfig::default(),
        );
        assert_eq!(a.ssds.len(), 1);
        assert_ne!(a.engine, b.engine);
        // Initialization (queue attach, NIC config, recv-buffer posting)
        // must drain without panics.
        sim.run();
        assert!(sim.is_idle());
    }
}
