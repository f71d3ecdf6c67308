//! # dcs-core — the HDC Engine, Driver, and Library (the paper's contribution)
//!
//! DCS-ctrl moves device control out of host software and into an
//! independent FPGA board, the **HDC Engine** (§III). This crate implements
//! that engine and its software interface on the simulated testbed:
//!
//! * [`resources`] — the FPGA resource model: Table III's NDP IP cores
//!   (LUTs, registers, clock, per-unit throughput, units needed for
//!   10 Gbps) and Table IV's device-controller utilization, with headroom
//!   checks.
//! * [`command`] — the 64-byte D2D command format the HDC Driver writes
//!   into the engine's host-interface queue, plus the completion-record
//!   format the engine DMA-writes back (carrying digests to the
//!   application).
//! * [`scoreboard`] — §III-B: splits each D2D command into device commands,
//!   tracks their `wait → ready → issue → done` lifecycle, enforces
//!   dependencies, and delivers completions in request order (§IV-C).
//! * [`buffers`] — the 1 GB on-board DDR3 chunked into 64 KiB blocks
//!   (§IV-C) used for intermediate buffers and packet receive buffers.
//! * [`ndp_unit`] — §III-D: banks of near-device processing units with
//!   Table III throughput; the computation itself is the real
//!   [`dcs_ndp`] code.
//! * [`engine`] — the HDC Engine component: host interface, standard NVMe
//!   and NIC controllers (real queues in FPGA BRAM, doorbells over PCIe
//!   P2P), packet-gathering logic, interrupt generator.
//! * [`driver`] — the HDC Driver: ioctl + metadata costs on the host CPU,
//!   command submission, completion interrupts. Exposes the same
//!   [`D2dJob`](dcs_host::D2dJob) interface as the baseline executors.
//! * [`lib_api`] — the HDC Library: `sendfile`-like helpers over
//!   file/socket descriptors with permission checks (§IV-A).
//! * [`node`] — wiring: a DCS-ctrl node and two-node testbeds.

pub mod buffers;
pub mod command;
pub mod driver;
pub mod engine;
pub mod lib_api;
pub mod ndp_unit;
pub mod node;
pub mod resources;
pub mod scoreboard;

pub use buffers::ChunkAllocator;
pub use command::{CompletionRecord, D2dCommand, DevOpCode};
pub use driver::HdcDriver;
pub use engine::{EngineConfig, HdcEngine, RegisterConnection};
pub use lib_api::{FileDesc, HdcLibrary, SocketDesc};
pub use ndp_unit::{NdpBank, NdpUnitSpec};
pub use node::{build_dcs_pair, DcsNode, DcsNodeBuilder};
pub use resources::{table3_cores, FpgaBudget, IpCore, ResourceReport, TABLE4_ENGINE};
pub use scoreboard::{CmdState, DevCmd, Scoreboard, SlotRef};
