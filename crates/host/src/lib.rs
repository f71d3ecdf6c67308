//! # dcs-host — the host software stack and the baseline designs
//!
//! DCS-ctrl's evaluation is entirely *relative*: every figure compares the
//! HDC Engine against software designs running on the host CPU. This crate
//! models that side of the comparison:
//!
//! * [`costs`] — the cost model for kernel routines (syscalls, VFS,
//!   block layer, TCP/IP, page cache, copies), in vanilla-Linux and
//!   optimized (§III-E-style) variants.
//! * [`cpu`] — the CPU pool: every software routine runs as a timed job on
//!   a core, producing the busy-time breakdowns behind Figures 3b, 8, 12
//!   and 13.
//! * [`job`] — the design-independent description of a multi-device task
//!   ([`D2dJob`]): read from SSD, process, send to NIC, … Every design
//!   (the baselines here, the HDC Engine in `dcs-core`) executes the same
//!   job type, so experiments compare like for like.
//! * [`nvme_driver`] / [`nic_driver`] / [`gpu_driver`] — host kernel
//!   drivers: they speak the same rings/doorbells/MSIs as the HDC Engine's
//!   hardware controllers, but charge CPU time for every step.
//! * [`executor`] — the baseline orchestrators: `Linux` (vanilla kernel),
//!   `SwOpt` (optimized kernel, host-staged data), `SwP2p` (optimized
//!   kernel + peer-to-peer data path where device capabilities allow).
//! * [`integration`] — an idealized consolidated device (the
//!   *device integration* reference point of Figure 3).
//! * [`node`] — wiring helpers that assemble a full host node.

pub mod costs;
pub mod cpu;
pub mod executor;
pub mod gpu_driver;
pub mod integration;
pub mod job;
pub mod nic_driver;
pub mod node;
pub mod nvme_driver;

pub use costs::KernelMode;
pub use cpu::{CpuJob, CpuJobDone, CpuPool, CpuStats};
pub use executor::{ExecutorWiring, SwDesign, SwExecutor};
pub use gpu_driver::{GpuOpDone, GpuOpRequest, HostGpuDriver};
pub use integration::IntegratedExecutor;
pub use job::{D2dDone, D2dJob, D2dOp, JobError, OpDone};
pub use nic_driver::{HostNicDriver, RecvExpect, SendRequest, StartNicDriver};
pub use node::{build_pair, HostNode, HostNodeBuilder};
pub use nvme_driver::{BlockOp, BlockRequest, HostNvmeDriver};
