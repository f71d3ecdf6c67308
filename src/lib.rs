//! # dcs-ctrl — a reproduction of *DCS-ctrl* (ISCA 2018)
//!
//! DCS-ctrl is a hardware-based device-control (HDC) mechanism for
//! device-centric servers: an independent FPGA board (the *HDC Engine*)
//! that orchestrates direct device-to-device communication among
//! off-the-shelf NVMe SSDs, NICs, and GPUs over a PCIe switch — moving both
//! the *data path* and the *control path* out of host software.
//!
//! This workspace reproduces the paper's system on a deterministic
//! discrete-event simulation of the full testbed (the original requires an
//! FPGA prototype and a physical PCIe switch). This facade crate re-exports
//! every subsystem:
//!
//! * [`sim`] — the discrete-event simulation kernel.
//! * [`pcie`] — the PCIe fabric: address map, links, switch, DMA, MMIO, MSI.
//! * [`nvme`] — a functional NVMe SSD model (queues, doorbells, PRP lists).
//! * [`nic`] — a 10 GbE NIC model with real TCP/IP header build/parse.
//! * [`gpu`] — the GPU used by baseline designs for hash offload.
//! * [`host`] — host CPU pool, kernel cost models, baseline orchestrators.
//! * [`ndp`] — pure-Rust MD5 / SHA-1 / SHA-256 / AES-256 / CRC32 / DEFLATE.
//! * [`core`] — **the paper's contribution**: the HDC Engine (scoreboard,
//!   standard device controllers, NDP units), HDC Driver and HDC Library.
//! * [`workloads`] — Swift-like object store and HDFS-balancer workloads.
//! * [`cluster`] — multi-node DCS serving behind a modeled top-of-rack
//!   switch: load balancing, consistent-hash sharding, admission control.
//! * [`store`] — multi-tenant object-store service layer over the rack:
//!   YCSB tenants, per-node read caching, weighted-fair QoS, SLO rows.
//! * [`bench`](mod@bench) — the experiment harness behind the `repro`
//!   binary, including the latency-anatomy trace capture (`--trace-out`).
//!
//! See `README.md` for a quickstart, `DESIGN.md` for the system inventory,
//! and `EXPERIMENTS.md` for paper-vs-measured results.

pub use dcs_bench as bench;
pub use dcs_cluster as cluster;
pub use dcs_core as core;
pub use dcs_gpu as gpu;
pub use dcs_host as host;
pub use dcs_ndp as ndp;
pub use dcs_nic as nic;
pub use dcs_nvme as nvme;
pub use dcs_pcie as pcie;
pub use dcs_sim as sim;
pub use dcs_store as store;
pub use dcs_workloads as workloads;

/// README.md, compiled as doctests: its Rust snippet builds against the
/// API it names, so a README that outlives an API fails `cargo test`.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
