//! The design-independent description of a multi-device task.
//!
//! A [`D2dJob`] is what the paper calls a *D2D command* at the application
//! level: a pipeline of device operations with optional intermediate
//! processing, e.g. `SSD read → MD5 → NIC send` (Figure 11b) or
//! `NIC recv → CRC32 → SSD write` (the HDFS receiver). Every executor —
//! the baselines in this crate and the HDC Engine in `dcs-core` — accepts
//! the same job type and reports the same completion shape, so experiment
//! code swaps designs without touching workloads. Every executor also
//! accepts the same jobs: [`D2dJob::check`] is the one definition of a
//! valid job, and each executor calls it before doing anything else.

use dcs_ndp::{NdpError, NdpFunction};
use dcs_nic::TcpFlow;
use dcs_nvme::LBA_SIZE;
use dcs_pcie::{PhysAddr, PhysMemory};
use dcs_sim::ComponentId;

/// One step of a multi-device task. Which steps make a valid job, and
/// in which order, is [`D2dJob::check`]'s to say.
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
    /// Whether the op produces the pipeline payload (only op 0 may).
    pub fn is_source(&self) -> bool {
        matches!(
            self,
            D2dOp::SsdRead { .. } | D2dOp::NicRecv { .. } | D2dOp::MemRead { .. }
        )
    }
}

/// Fills the `len` bytes at `buf` a [`D2dOp::MemRead`] copies out of the
/// cache: zeros, as the store accounts content by version, not value.
pub fn fill_mem_read(mem: &mut PhysMemory, buf: PhysAddr, len: usize) {
    mem.write(buf, &vec![0u8; len]);
}

/// Zero-pads the `len` payload bytes at `buf` to the whole blocks a
/// [`D2dOp::SsdWrite`] moves, and returns that length.
pub fn pad_to_blocks(mem: &mut PhysMemory, buf: PhysAddr, len: usize) -> usize {
    let padded = len.div_ceil(LBA_SIZE as usize) * LBA_SIZE as usize;
    mem.write(buf + len as u64, &vec![0u8; padded - len]);
    padded
}

/// A complete multi-device task submitted to an executor; valid when
/// [`D2dJob::check`] passes.
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

impl D2dJob {
    /// Most ops one job carries: the D2D command's four op slots.
    pub const MAX_OPS: usize = 4;
    /// Most aux bytes one [`D2dOp::Process`] carries: one slot of the
    /// engine's aux buffer.
    pub const AUX_SLOT: usize = 64;

    /// The job contract (DESIGN.md §3), checked once at submission on
    /// every design: an invalid job completes with `ok = false` and
    /// touches no device.
    ///
    /// # Errors
    ///
    /// Returns the first rule the job breaks.
    pub fn check(&self) -> Result<(), JobError> {
        let n = self.ops.len();
        if !(1..=Self::MAX_OPS).contains(&n) {
            return Err(JobError::OpCount(n));
        }
        for (at, op) in self.ops.iter().enumerate() {
            match (at, op.is_source()) {
                (0, false) => return Err(JobError::NoSource),
                (1.., true) => return Err(JobError::LateSource(at)),
                _ => {}
            }
            let fits = |field, ok: bool| ok.then_some(()).ok_or(JobError::Field(at, field));
            let (ssd, lba, len) = match op {
                D2dOp::SsdRead { ssd, lba, len } => (*ssd, *lba, *len),
                D2dOp::SsdWrite { ssd, lba } => (*ssd, *lba, 0),
                D2dOp::NicRecv { len, .. } | D2dOp::MemRead { len } => (0, 0, *len),
                D2dOp::Process { aux, .. } if aux.len() > Self::AUX_SLOT => {
                    return Err(JobError::AuxSlot(at, aux.len()))
                }
                D2dOp::Process { function, aux } => {
                    function.check_aux(aux).map_err(|e| JobError::Aux(at, e))?;
                    continue;
                }
                D2dOp::NicSend { .. } => continue,
            };
            fits("ssd", ssd <= u8::MAX.into())?;
            fits("lba", lba < 1 << 48)?;
            fits("len", u32::try_from(len).is_ok())?;
            if matches!(op, D2dOp::SsdRead { .. }) && !(len as u64).is_multiple_of(LBA_SIZE) {
                return Err(JobError::Unaligned(at, len));
            }
        }
        Ok(())
    }
}

/// The rule of [`D2dJob::check`] a job breaks; the first `usize` of a
/// variant that has one names the op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// No ops, or more than [`D2dJob::MAX_OPS`]: the count.
    OpCount(usize),
    /// Op 0 does not produce a payload.
    NoSource,
    /// A payload source after op 0.
    LateSource(usize),
    /// An aux block over one [`D2dJob::AUX_SLOT`], and its length.
    AuxSlot(usize, usize),
    /// An aux block its function rejects.
    Aux(usize, NdpError),
    /// An `SsdRead` length that is not whole blocks.
    Unaligned(usize, usize),
    /// A value too wide for its D2D command field (`ssd`, `lba`, `len`).
    Field(usize, &'static str),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::OpCount(n) => write!(f, "{n} ops, not 1..={}", D2dJob::MAX_OPS),
            JobError::NoSource => f.write_str("op 0 produces no payload"),
            JobError::LateSource(at) => write!(f, "op {at} produces a second payload"),
            JobError::AuxSlot(at, len) => write!(f, "op {at}: {len} aux bytes overflow a slot"),
            JobError::Aux(at, e) => write!(f, "op {at}: {e}"),
            JobError::Unaligned(at, len) => write!(f, "op {at}: {len} B is not whole blocks"),
            JobError::Field(at, field) => write!(f, "op {at}: {field} overflows its field"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Aux(_, e) => Some(e),
            _ => None,
        }
    }
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

impl D2dDone {
    /// The completion of a job that failed, or never started.
    pub fn failed(id: u64) -> Self {
        D2dDone {
            id,
            ok: false,
            digest: None,
            payload_len: 0,
        }
    }
}

/// Completion of one host-driver request ([`crate::BlockRequest`],
/// [`crate::SendRequest`] or [`crate::RecvExpect`]).
#[derive(Debug, Clone)]
pub struct OpDone {
    /// Identifier from the originating request.
    pub id: u64,
    /// False when the device failed the request or fault recovery gave up
    /// (a send unacknowledged, a receive stalled); true fault-free.
    pub ok: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_are_the_three_producing_ops() {
        let flow = TcpFlow::example(1, 2, 3, 4);
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
            D2dOp::NicSend { flow, seq: 0 },
            D2dOp::NicRecv { flow, len: 4096 },
            D2dOp::MemRead { len: 4096 },
        ];
        let sources: Vec<_> = ops.iter().map(D2dOp::is_source).collect();
        assert_eq!(sources, [true, false, false, false, true, true]);
    }

    #[test]
    fn check_names_the_first_broken_rule() {
        let job = |ops| D2dJob {
            id: 1,
            ops,
            reply_to: ComponentId::INVALID,
            tag: "t",
        };
        let read = |len| D2dOp::SsdRead {
            ssd: 0,
            lba: 0,
            len,
        };
        let aes = |aux_len| D2dOp::Process {
            function: NdpFunction::Aes256Decrypt,
            aux: vec![0; aux_len],
        };
        assert_eq!(job(vec![read(8192), aes(48)]).check(), Ok(()));
        assert_eq!(
            job(vec![read(8192), aes(65)]).check(),
            Err(JobError::AuxSlot(1, 65))
        );
        let err = job(vec![read(8192), aes(47)]).check().unwrap_err();
        assert!(
            matches!(err, JobError::Aux(1, NdpError::BadAux { .. })),
            "{err}"
        );
        assert_eq!(
            job(vec![read(100), aes(48)]).check(),
            Err(JobError::Unaligned(0, 100))
        );
        // The op count is checked before op 0's length.
        assert_eq!(job(vec![read(100); 5]).check(), Err(JobError::OpCount(5)));
        let wide = D2dOp::SsdWrite {
            ssd: 0,
            lba: 1 << 48,
        };
        assert_eq!(
            job(vec![read(4096), wide]).check(),
            Err(JobError::Field(1, "lba"))
        );
        assert_eq!(
            job(vec![read(4096), read(4096)]).check(),
            Err(JobError::LateSource(1))
        );
        assert_eq!(
            JobError::Field(0, "ssd").to_string(),
            "op 0: ssd overflows its field"
        );
    }
}
