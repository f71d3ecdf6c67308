//! NVMe wire-format structures (NVM Express 1.2, the revision the paper
//! cites as \[40\]).
//!
//! Commands and completions serialize to their real on-the-wire layouts and
//! are written into / parsed out of simulated memory, so the HDC Engine's
//! NVMe controller and the host driver interoperate with the device model
//! through actual bytes, not Rust structs.

use dcs_pcie::PhysAddr;

/// Logical block size used by all namespaces in the model (the Intel 750
/// supports 4 KiB-formatted namespaces; 4 KiB also matches the paper's
/// per-command transfer unit in §IV-C).
pub const LBA_SIZE: u64 = 4096;

/// Memory page size assumed by PRP handling (`CC.MPS` = 4 KiB).
pub const PAGE_SIZE: u64 = 4096;

/// NVM command-set opcodes used in the model.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum NvmeOpcode {
    /// Flush (no-op in the model: writes are durable at completion).
    Flush = 0x00,
    /// Write logical blocks.
    Write = 0x01,
    /// Read logical blocks.
    Read = 0x02,
}

impl NvmeOpcode {
    /// Parses an opcode byte.
    pub(crate) fn from_u8(v: u8) -> Option<NvmeOpcode> {
        match v {
            0x00 => Some(NvmeOpcode::Flush),
            0x01 => Some(NvmeOpcode::Write),
            0x02 => Some(NvmeOpcode::Read),
            _ => None,
        }
    }
}

/// Command completion status (generic command status codes).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum NvmeStatus {
    /// Successful completion.
    Success,
    /// Opcode not supported.
    InvalidOpcode,
    /// PRP offset or alignment rules violated.
    InvalidPrp,
    /// LBA range exceeds namespace capacity.
    LbaOutOfRange,
    /// Unrecovered read error from the medium (SCT=2 media error). A
    /// transient flash fault: the spec marks it retryable and hosts are
    /// expected to resubmit within their retry budget.
    MediaError,
    /// Data transfer error (generic SC=0x04): the controller detected a
    /// transport-level problem moving data — in this model, a poisoned
    /// TLP on a command's data or PRP-list DMA. Transient at the fabric
    /// level, so retryable, but the retry is a *resubmission of the
    /// whole command*; the corrupted transfer itself is never completed
    /// as success.
    DataTransferError,
}

impl NvmeStatus {
    /// Status-field encoding (SCT in bits 10:8, low bits = status code).
    pub(crate) fn to_code(self) -> u16 {
        match self {
            NvmeStatus::Success => 0x0000,
            NvmeStatus::InvalidOpcode => 0x0001,
            NvmeStatus::InvalidPrp => 0x0013,
            NvmeStatus::LbaOutOfRange => 0x0080,
            NvmeStatus::MediaError => 0x0281, // SCT=2, SC=0x81 unrecovered read
            NvmeStatus::DataTransferError => 0x0004,
        }
    }

    /// Decodes a status field.
    pub(crate) fn from_code(code: u16) -> NvmeStatus {
        match code & 0x7FF {
            0x0000 => NvmeStatus::Success,
            0x0004 => NvmeStatus::DataTransferError,
            0x0013 => NvmeStatus::InvalidPrp,
            0x0080 => NvmeStatus::LbaOutOfRange,
            0x0281 => NvmeStatus::MediaError,
            _ => NvmeStatus::InvalidOpcode,
        }
    }

    /// Whether the status signals success.
    pub fn is_ok(self) -> bool {
        self == NvmeStatus::Success
    }

    /// Whether resubmitting the command may succeed (transient faults).
    pub(crate) fn is_retryable(self) -> bool {
        matches!(self, NvmeStatus::MediaError | NvmeStatus::DataTransferError)
    }
}

/// A 64-byte NVM submission-queue entry.
///
/// Only the fields the model interprets are meaningful; the rest serialize
/// as zeros, as a real initiator would leave reserved fields.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NvmeCommand {
    /// Opcode (CDW0 bits 07:00).
    pub opcode: NvmeOpcode,
    /// Command identifier (CDW0 bits 31:16), echoed in the completion.
    pub cid: u16,
    /// Namespace identifier.
    pub nsid: u32,
    /// PRP entry 1: first data page.
    pub prp1: PhysAddr,
    /// PRP entry 2: second page, or pointer to a PRP list.
    pub prp2: PhysAddr,
    /// Starting LBA (CDW10/11).
    pub slba: u64,
    /// Number of logical blocks, zero-based (CDW12 bits 15:00).
    pub nlb: u16,
}

impl NvmeCommand {
    /// Size of a submission entry in bytes.
    pub const SIZE: usize = 64;

    /// Transfer length in bytes implied by `nlb` (zero-based field).
    pub(crate) fn transfer_len(&self) -> usize {
        (self.nlb as usize + 1) * LBA_SIZE as usize
    }

    /// Serializes to the 64-byte submission-entry layout.
    pub fn to_bytes(&self) -> [u8; Self::SIZE] {
        let mut b = [0u8; Self::SIZE];
        b[0] = self.opcode as u8;
        b[2..4].copy_from_slice(&self.cid.to_le_bytes());
        b[4..8].copy_from_slice(&self.nsid.to_le_bytes());
        b[24..32].copy_from_slice(&self.prp1.as_u64().to_le_bytes());
        b[32..40].copy_from_slice(&self.prp2.as_u64().to_le_bytes());
        b[40..48].copy_from_slice(&self.slba.to_le_bytes());
        b[48..50].copy_from_slice(&self.nlb.to_le_bytes());
        b
    }

    /// Parses a 64-byte submission entry.
    ///
    /// Returns `None` for opcodes outside the supported NVM set — the
    /// device completes such commands with
    /// [`NvmeStatus::InvalidOpcode`].
    pub fn from_bytes(b: &[u8; Self::SIZE]) -> Option<NvmeCommand> {
        let opcode = NvmeOpcode::from_u8(b[0])?;
        Some(NvmeCommand {
            opcode,
            cid: u16::from_le_bytes([b[2], b[3]]),
            nsid: u32::from_le_bytes(b[4..8].try_into().expect("4 bytes")),
            prp1: PhysAddr(u64::from_le_bytes(b[24..32].try_into().expect("8 bytes"))),
            prp2: PhysAddr(u64::from_le_bytes(b[32..40].try_into().expect("8 bytes"))),
            slba: u64::from_le_bytes(b[40..48].try_into().expect("8 bytes")),
            nlb: u16::from_le_bytes([b[48], b[49]]),
        })
    }
}

/// A 16-byte completion-queue entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NvmeCompletion {
    /// Submission-queue head pointer at completion time.
    pub sq_head: u16,
    /// Submission queue the command came from.
    pub sq_id: u16,
    /// Command identifier being completed.
    pub cid: u16,
    /// Phase tag — toggles each pass around the CQ ring.
    pub phase: bool,
    /// Completion status.
    pub status: NvmeStatus,
}

impl NvmeCompletion {
    /// Size of a completion entry in bytes.
    pub const SIZE: usize = 16;

    /// Serializes to the 16-byte completion-entry layout.
    pub fn to_bytes(&self) -> [u8; Self::SIZE] {
        let mut b = [0u8; Self::SIZE];
        b[8..10].copy_from_slice(&self.sq_head.to_le_bytes());
        b[10..12].copy_from_slice(&self.sq_id.to_le_bytes());
        b[12..14].copy_from_slice(&self.cid.to_le_bytes());
        let sf = (self.status.to_code() << 1) | self.phase as u16;
        b[14..16].copy_from_slice(&sf.to_le_bytes());
        b
    }

    /// Parses a 16-byte completion entry.
    pub fn from_bytes(b: &[u8; Self::SIZE]) -> NvmeCompletion {
        let sf = u16::from_le_bytes([b[14], b[15]]);
        NvmeCompletion {
            sq_head: u16::from_le_bytes([b[8], b[9]]),
            sq_id: u16::from_le_bytes([b[10], b[11]]),
            cid: u16::from_le_bytes([b[12], b[13]]),
            phase: sf & 1 == 1,
            status: NvmeStatus::from_code(sf >> 1),
        }
    }
}

/// Builds and resolves PRP (Physical Region Page) data pointers.
///
/// NVMe describes a data buffer as up to two inline page pointers, or one
/// inline pointer plus a pointer to a *PRP list* page holding further
/// 8-byte entries. The paper's §IV-C notes that HDC Engine "uses a PRP list
/// to transfer multiple blocks with a single NVMe command" — this type is
/// that mechanism, shared by every initiator in the model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrpList {
    /// First data pointer (may carry a page offset for the first page).
    pub prp1: PhysAddr,
    /// Second data pointer or list pointer (zero when unused).
    pub prp2: PhysAddr,
    /// Entries stored in the external list page, if one is needed.
    pub list_entries: Vec<PhysAddr>,
}

impl PrpList {
    /// Describes a *page-aligned, physically contiguous* buffer of `len`
    /// bytes at `base`, writing an external PRP list page at `list_page`
    /// when more than two pages are spanned.
    ///
    /// Returns the descriptor; if `list_entries` is non-empty the caller
    /// must store those 8-byte little-endian entries at `list_page` before
    /// submitting the command (a real initiator DMA-writes the list page).
    ///
    /// # Panics
    ///
    /// Panics if `base` is not page-aligned, `len` is zero, or the list
    /// would exceed one page (512 entries ⇒ 2 MiB max, beyond the model's
    /// 1 MiB max transfer).
    pub(crate) fn for_contiguous(base: PhysAddr, len: usize, list_page: PhysAddr) -> PrpList {
        assert!(len > 0, "empty data buffer");
        assert!(
            base.as_u64().is_multiple_of(PAGE_SIZE),
            "PRP1 must be page-aligned in this model"
        );
        let pages = (len as u64).div_ceil(PAGE_SIZE);
        match pages {
            1 => PrpList {
                prp1: base,
                prp2: PhysAddr::ZERO,
                list_entries: vec![],
            },
            2 => PrpList {
                prp1: base,
                prp2: base + PAGE_SIZE,
                list_entries: vec![],
            },
            n => {
                assert!(n <= 512, "transfer exceeds one PRP list page");
                let list_entries = (1..n).map(|i| base + i * PAGE_SIZE).collect::<Vec<_>>();
                PrpList {
                    prp1: base,
                    prp2: list_page,
                    list_entries,
                }
            }
        }
    }

    /// Serializes the external list entries (empty when none are needed).
    pub(crate) fn list_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.list_entries.len() * 8);
        for e in &self.list_entries {
            out.extend_from_slice(&e.as_u64().to_le_bytes());
        }
        out
    }

    /// Parses `n` entries of an external PRP list page.
    pub(crate) fn parse_list(bytes: &[u8], n: usize) -> Vec<PhysAddr> {
        assert!(bytes.len() >= n * 8, "PRP list page too short");
        (0..n)
            .map(|i| {
                PhysAddr(u64::from_le_bytes(
                    bytes[i * 8..i * 8 + 8].try_into().expect("8 bytes"),
                ))
            })
            .collect()
    }

    /// The page addresses a transfer of `len` bytes covers, in order,
    /// given the resolved pointers (prp1, prp2-or-list).
    ///
    /// `resolved_list` must be the parsed external list when one is in use.
    /// Returns `None` if any pointer beyond the first is not page-aligned
    /// (the device fails such commands with [`NvmeStatus::InvalidPrp`]).
    pub(crate) fn data_pages(
        prp1: PhysAddr,
        prp2: PhysAddr,
        resolved_list: &[PhysAddr],
        len: usize,
    ) -> Option<Vec<PhysAddr>> {
        let pages = (len as u64).div_ceil(PAGE_SIZE);
        let mut out = Vec::with_capacity(pages as usize);
        out.push(prp1);
        match pages {
            0 | 1 => {}
            2 if resolved_list.is_empty() => {
                if !prp2.as_u64().is_multiple_of(PAGE_SIZE) {
                    return None;
                }
                out.push(prp2);
            }
            _ => {
                if resolved_list.len() != pages as usize - 1 {
                    return None;
                }
                for &e in resolved_list {
                    if e.as_u64() % PAGE_SIZE != 0 {
                        return None;
                    }
                    out.push(e);
                }
            }
        }
        Some(out)
    }

    /// Coalesces an ordered page list into maximal physically-contiguous
    /// `(addr, len)` runs so the device can issue one DMA per run (the
    /// common case — one run — keeps event counts low).
    pub fn coalesce(pages: &[PhysAddr], len: usize) -> Vec<(PhysAddr, usize)> {
        let mut runs: Vec<(PhysAddr, usize)> = Vec::new();
        let mut remaining = len;
        for (i, &p) in pages.iter().enumerate() {
            let this = remaining.min(PAGE_SIZE as usize);
            remaining -= this;
            match runs.last_mut() {
                Some((start, run_len)) if *start + *run_len as u64 == p && i != 0 => {
                    *run_len += this;
                }
                _ => runs.push((p, this)),
            }
        }
        debug_assert_eq!(remaining, 0);
        runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_roundtrips_through_bytes() {
        let cmd = NvmeCommand {
            opcode: NvmeOpcode::Read,
            cid: 0xBEEF,
            nsid: 1,
            prp1: PhysAddr(0x1000),
            prp2: PhysAddr(0x2000),
            slba: 0x1234_5678_9ABC,
            nlb: 31,
        };
        let bytes = cmd.to_bytes();
        assert_eq!(bytes[0], 0x02);
        assert_eq!(NvmeCommand::from_bytes(&bytes), Some(cmd));
        assert_eq!(cmd.transfer_len(), 32 * 4096);
    }

    #[test]
    fn unknown_opcode_parses_to_none() {
        let mut bytes = [0u8; 64];
        bytes[0] = 0x99;
        assert_eq!(NvmeCommand::from_bytes(&bytes), None);
    }

    #[test]
    fn completion_roundtrips_with_phase_and_status() {
        for phase in [false, true] {
            for status in [
                NvmeStatus::Success,
                NvmeStatus::LbaOutOfRange,
                NvmeStatus::InvalidPrp,
                NvmeStatus::MediaError,
                NvmeStatus::DataTransferError,
            ] {
                let c = NvmeCompletion {
                    sq_head: 7,
                    sq_id: 1,
                    cid: 42,
                    phase,
                    status,
                };
                let parsed = NvmeCompletion::from_bytes(&c.to_bytes());
                assert_eq!(parsed, c);
            }
        }
    }

    #[test]
    fn status_codes_match_spec_values() {
        assert_eq!(NvmeStatus::Success.to_code(), 0);
        assert_eq!(NvmeStatus::LbaOutOfRange.to_code(), 0x80);
        assert_eq!(NvmeStatus::MediaError.to_code(), 0x281);
        assert_eq!(NvmeStatus::from_code(0x281), NvmeStatus::MediaError);
        assert!(NvmeStatus::Success.is_ok());
        assert!(!NvmeStatus::InvalidPrp.is_ok());
        assert!(NvmeStatus::MediaError.is_retryable());
        assert!(!NvmeStatus::LbaOutOfRange.is_retryable());
        assert_eq!(NvmeStatus::DataTransferError.to_code(), 0x0004);
        assert_eq!(NvmeStatus::from_code(0x0004), NvmeStatus::DataTransferError);
        assert!(NvmeStatus::DataTransferError.is_retryable());
    }

    #[test]
    fn prp_one_page() {
        let p = PrpList::for_contiguous(PhysAddr(0x1000), 100, PhysAddr(0xF000));
        assert_eq!(p.prp1, PhysAddr(0x1000));
        assert_eq!(p.prp2, PhysAddr::ZERO);
        assert!(p.list_entries.is_empty());
    }

    #[test]
    fn prp_two_pages_inline() {
        let p = PrpList::for_contiguous(PhysAddr(0x1000), 8192, PhysAddr(0xF000));
        assert_eq!(p.prp2, PhysAddr(0x2000));
        assert!(p.list_entries.is_empty());
    }

    #[test]
    fn prp_list_for_many_pages() {
        let p = PrpList::for_contiguous(PhysAddr(0x10000), 5 * 4096, PhysAddr(0xF000));
        assert_eq!(p.prp2, PhysAddr(0xF000));
        assert_eq!(p.list_entries.len(), 4);
        assert_eq!(p.list_entries[0], PhysAddr(0x11000));
        let bytes = p.list_bytes();
        assert_eq!(PrpList::parse_list(&bytes, 4), p.list_entries);
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    fn prp_rejects_unaligned_base() {
        let _ = PrpList::for_contiguous(PhysAddr(0x1004), 100, PhysAddr(0xF000));
    }

    #[test]
    fn data_pages_resolution_and_validation() {
        // Two inline pages.
        let pages = PrpList::data_pages(PhysAddr(0x1000), PhysAddr(0x2000), &[], 8192).unwrap();
        assert_eq!(pages, vec![PhysAddr(0x1000), PhysAddr(0x2000)]);
        // Misaligned prp2 is rejected.
        assert!(PrpList::data_pages(PhysAddr(0x1000), PhysAddr(0x2004), &[], 8192).is_none());
        // List with wrong entry count is rejected.
        assert!(PrpList::data_pages(
            PhysAddr(0x1000),
            PhysAddr(0xF000),
            &[PhysAddr(0x2000)],
            3 * 4096
        )
        .is_none());
    }

    #[test]
    fn coalesce_merges_contiguous_runs() {
        let pages = vec![
            PhysAddr(0x1000),
            PhysAddr(0x2000),
            PhysAddr(0x3000),
            PhysAddr(0x9000), // gap
            PhysAddr(0xA000),
        ];
        let runs = PrpList::coalesce(&pages, 5 * 4096);
        assert_eq!(
            runs,
            vec![(PhysAddr(0x1000), 3 * 4096), (PhysAddr(0x9000), 2 * 4096)]
        );
        // Short tail: last page partially used.
        let runs = PrpList::coalesce(&pages[..2], 4096 + 100);
        assert_eq!(runs, vec![(PhysAddr(0x1000), 4196)]);
    }
}
