//! # dcs-nvme — a functional NVMe SSD device model
//!
//! DCS-ctrl's flexibility claim rests on the HDC Engine speaking the
//! *standard* command protocols of off-the-shelf devices (§III-C): its NVMe
//! controller allocates a submission/completion queue pair in FPGA BRAM,
//! builds real NVMe commands, rings the drive's doorbell registers over
//! PCIe P2P, and consumes completions — exactly what a host driver does.
//! This crate models the drive side of that contract:
//!
//! * [`spec`] — wire-format structures: 64-byte submission entries, 16-byte
//!   completion entries with phase bits, PRP data-pointer handling. These
//!   are real bytes written to and parsed from simulated memory, so any
//!   component that builds a malformed command is caught the way real
//!   hardware would catch it.
//! * [`queue`] — producer/consumer helpers for submission and completion
//!   rings.
//! * [`initiator`] — the initiator side of the protocol, shared by the host
//!   driver ([`dcs-host`](../dcs_host/index.html)) and the HDC Engine's
//!   NVMe controller: MDTS splitting, CIDs and PRP-list pages, completion
//!   draining, and per-request settling with bounded media-error retries.
//! * [`device`] — the SSD component: doorbell MMIO, command fetch over DMA,
//!   flash timing (Intel 750-like: 17.2 Gbps read / 7.2 Gbps write), PRP
//!   resolution, data DMA, completion write-back, MSI.
//!
//! Timing constants model the paper's Intel SSD 750 (Table V).

pub mod device;
pub mod initiator;
pub mod queue;
pub mod spec;

pub use device::{install_nvme, AttachQueuePair, NvmeConfig, NvmeDevice, NvmeHandle};
pub use initiator::{ladder_bound_ns, rung, NvmeInitiator, NvmeIo, Outcome, Rung};
pub use queue::{CompletionQueueReader, SubmissionQueueWriter};
pub use spec::{NvmeCommand, NvmeCompletion, NvmeOpcode, NvmeStatus, PrpList, LBA_SIZE};
