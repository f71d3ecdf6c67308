//! # dcs-pcie — the PCIe fabric of the simulated server
//!
//! The DCS-ctrl testbed hangs every device — NVMe SSD, 10 GbE NIC, GPU, and
//! the HDC Engine itself — off one PCIe Gen2 switch (a Cyclone PCIe2-2707:
//! five slots, 80 Gbps aggregate). All three communication schemes the paper
//! compares differ only in *who* drives this fabric and *where* data lands,
//! so the fabric model is shared by every design:
//!
//! * [`mem::PhysMemory`] — the global physical address map. Every memory in
//!   the system (host DRAM, SSD flash, GPU BAR, HDC BRAM/DDR3) is a
//!   sparsely-backed region; DMA moves real bytes between them (devices'
//!   internal buffers stay off the map: their DMAs carry the bytes).
//! * [`routing::MmioRouting`] — which component owns which MMIO range
//!   (doorbell registers, command queues, MSI target addresses).
//! * [`fabric`] — the switch: [`dma`] books a [`DmaRequest`] with
//!   bandwidth/latency/TLP-overhead modeling, [`mmio_write`] routes posted
//!   [`MmioWrite`]s, and [`msi`] delivers message-signaled interrupts,
//!   each called by the device that starts the transaction.
//!
//! `PhysMemory`, `MmioRouting` and the switches' link state live in the
//! simulator [`World`](dcs_sim::World) so that any component can reach
//! them.
//!
//! ```
//! use dcs_sim::Simulator;
//! use dcs_pcie::{PhysMemory, PortId};
//!
//! let mut sim = Simulator::new(0);
//! let mut mem = PhysMemory::new();
//! let dram = mem.alloc_region("host-dram", 1 << 30, PortId::ROOT);
//! mem.write(dram.start, b"hello");
//! assert_eq!(mem.read(dram.start, 5), b"hello");
//! sim.world_mut().insert(mem);
//! ```

pub mod addr;
pub mod aer;
pub mod config;
pub mod fabric;
pub mod mem;
pub mod routing;

pub use addr::{AddrRange, PhysAddr};
pub use aer::{AerEntry, AerKind, AerLog};
pub use config::PcieConfig;
pub use fabric::{
    dma, dma_in, install_fabric, mmio_write, msi, DmaComplete, DmaLanded, DmaOp, DmaRequest,
    DmaStart, DmaStatus, FabricId, MmioWrite, Msi, MsiDelivery, TlpClass,
};
pub use mem::{PhysMemory, PortId, RegionInfo};
pub use routing::MmioRouting;
