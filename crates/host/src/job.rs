//! The design-independent description of a multi-device task.
//!
//! A [`D2dJob`] is what the paper calls a *D2D command* at the application
//! level: a pipeline of device operations with optional intermediate
//! processing, e.g. `SSD read → MD5 → NIC send` (Figure 11b) or
//! `NIC recv → CRC32 → SSD write` (the HDFS receiver). Every executor —
//! the baselines in this crate and the HDC Engine in `dcs-core` — accepts
//! the same job type and reports the same completion shape, so experiment
//! code swaps designs without touching workloads.

use dcs_ndp::NdpFunction;
use dcs_nic::TcpFlow;
use dcs_sim::ComponentId;

/// One step of a multi-device task.
#[derive(Debug, Clone)]
pub enum D2dOp {
    /// Read `len` bytes starting at `lba` from SSD `ssd`; the data becomes
    /// the pipeline payload.
    SsdRead {
        /// Index of the SSD (nodes may mount several).
        ssd: usize,
        /// Starting logical block.
        lba: u64,
        /// Bytes to read (multiple of the 4 KiB block size).
        len: usize,
    },
    /// Write the current payload to SSD `ssd` starting at `lba`.
    SsdWrite {
        /// Index of the SSD.
        ssd: usize,
        /// Starting logical block.
        lba: u64,
    },
    /// Apply an NDP/accelerator function to the payload. Digest functions
    /// leave the payload unchanged and record the digest in the
    /// completion; transforms replace the payload.
    Process {
        /// The function to apply.
        function: NdpFunction,
        /// Function-specific parameters (AES key‖nonce).
        aux: Vec<u8>,
    },
    /// Transmit the payload on an established connection.
    NicSend {
        /// The connection (as retrieved from the kernel).
        flow: TcpFlow,
        /// Starting TCP sequence number.
        seq: u32,
    },
    /// Receive exactly `len` payload bytes of `flow` (becomes the
    /// pipeline payload).
    NicRecv {
        /// The connection being received on.
        flow: TcpFlow,
        /// Bytes to accumulate before the op completes.
        len: usize,
    },
    /// Materialize `len` bytes from host DRAM — a node's read cache — as
    /// the pipeline payload, skipping the flash path entirely. The store
    /// layer emits this for cache-hit GETs; the only cost is the memory
    /// copy into the staging buffer.
    MemRead {
        /// Bytes to copy out of the cache.
        len: usize,
    },
}

impl D2dOp {
    /// Short label for traces.
    pub fn label(&self) -> &'static str {
        match self {
            D2dOp::SsdRead { .. } => "ssd-read",
            D2dOp::SsdWrite { .. } => "ssd-write",
            D2dOp::Process { .. } => "process",
            D2dOp::NicSend { .. } => "nic-send",
            D2dOp::NicRecv { .. } => "nic-recv",
            D2dOp::MemRead { .. } => "mem-read",
        }
    }
}

/// A complete multi-device task submitted to an executor.
#[derive(Debug, Clone)]
pub struct D2dJob {
    /// Requester-chosen identifier echoed in [`D2dDone`]. The job's
    /// latency anatomy (`world.obs`, when enabled) is keyed on it: every
    /// executor, driver and engine phase it passes through marks there.
    pub id: u64,
    /// Pipeline steps, executed in order.
    pub ops: Vec<D2dOp>,
    /// Component notified on completion.
    pub reply_to: ComponentId,
    /// Utilization tag under which this job's CPU work is recorded
    /// (e.g. `"kernel-get"` vs `"kernel-put"` for Figure 12a).
    pub tag: &'static str,
}

/// Completion report for a [`D2dJob`].
#[derive(Debug, Clone)]
pub struct D2dDone {
    /// Identifier from the originating job.
    pub id: u64,
    /// Whether every step succeeded.
    pub ok: bool,
    /// Digest produced by the last digest-type [`D2dOp::Process`] step, if
    /// any.
    pub digest: Option<Vec<u8>>,
    /// Payload length at pipeline exit.
    pub payload_len: usize,
}

/// The communication designs the paper compares (Table I / Figure 1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Design {
    /// Vanilla host-centric kernel (Figure 8's "Linux").
    Linux,
    /// Optimized kernel stacks, data staged through host DRAM.
    SwOpt,
    /// Optimized kernel + P2P data paths where devices allow.
    SwP2p,
    /// Idealized consolidated device (Figure 3 reference).
    DeviceIntegration,
    /// The paper's contribution: HDC Engine control + data paths.
    DcsCtrl,
}

impl Design {
    /// All designs in presentation order.
    pub const ALL: [Design; 5] = [
        Design::Linux,
        Design::SwOpt,
        Design::SwP2p,
        Design::DeviceIntegration,
        Design::DcsCtrl,
    ];

    /// Display label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            Design::Linux => "Linux",
            Design::SwOpt => "SW opt",
            Design::SwP2p => "SW-ctrl P2P",
            Design::DeviceIntegration => "Device integration",
            Design::DcsCtrl => "DCS-ctrl",
        }
    }
}

impl std::fmt::Display for Design {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_labels_cover_all_variants() {
        let ops = [
            D2dOp::SsdRead {
                ssd: 0,
                lba: 0,
                len: 4096,
            },
            D2dOp::SsdWrite { ssd: 0, lba: 0 },
            D2dOp::Process {
                function: NdpFunction::Md5,
                aux: vec![],
            },
            D2dOp::NicSend {
                flow: TcpFlow::example(1, 2, 3, 4),
                seq: 0,
            },
            D2dOp::NicRecv {
                flow: TcpFlow::example(1, 2, 3, 4),
                len: 4096,
            },
            D2dOp::MemRead { len: 4096 },
        ];
        let labels: Vec<_> = ops.iter().map(|o| o.label()).collect();
        assert_eq!(
            labels,
            vec![
                "ssd-read",
                "ssd-write",
                "process",
                "nic-send",
                "nic-recv",
                "mem-read"
            ]
        );
    }

    #[test]
    fn design_labels_match_paper() {
        assert_eq!(Design::SwP2p.label(), "SW-ctrl P2P");
        assert_eq!(Design::DcsCtrl.to_string(), "DCS-ctrl");
        assert_eq!(Design::ALL.len(), 5);
    }
}
