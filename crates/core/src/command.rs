//! The D2D command and completion wire formats.
//!
//! The HDC Driver describes a multi-device task to the engine as a single
//! 64-byte *D2D command* written into the engine's host-interface command
//! queue (§IV-C: "the 64-entry command queue (4KB)"), carrying up to four
//! device operations. Auxiliary data that does not fit (AES keys/nonces)
//! is staged into the engine's DDR3 aux buffer beforehand and referenced
//! by offset. Completions travel the other way as 64-byte records the
//! engine DMA-writes into a host ring — big enough to carry a digest back
//! to the application without an extra round trip.
//!
//! Connection endpoints are referenced by a connection id; the driver
//! registers each flow's metadata with the engine once (mirroring §IV-B's
//! retrieval of TCP connection information from the kernel).

use dcs_host::job::D2dJob;
use dcs_ndp::NdpFunction;

/// One encoded device operation inside a D2D command.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DevOpCode {
    /// Read `len` bytes from LBA `lba` of SSD `ssd`.
    SsdRead {
        /// SSD index on the engine's NVMe controller.
        ssd: u8,
        /// Starting logical block (48-bit).
        lba: u64,
        /// Bytes to read.
        len: u32,
    },
    /// Write the pipeline payload to SSD `ssd` at `lba`.
    SsdWrite {
        /// SSD index.
        ssd: u8,
        /// Starting logical block (48-bit).
        lba: u64,
    },
    /// Apply an NDP function; aux parameters live in the engine's aux
    /// buffer at `aux_off`.
    Process {
        /// Function selector.
        function: NdpFunction,
        /// Offset of aux data in the engine aux buffer.
        aux_off: u32,
        /// Aux data length.
        aux_len: u16,
    },
    /// Transmit the payload on registered connection `conn`.
    NicSend {
        /// Connection id (registered via the connection table).
        conn: u16,
        /// Starting TCP sequence number.
        seq: u32,
    },
    /// Receive `len` payload bytes of connection `conn`.
    NicRecv {
        /// Connection id.
        conn: u16,
        /// Bytes to accumulate.
        len: u32,
    },
    /// Pull `len` bytes from host DRAM (a cache-resident object) into the
    /// engine buffer as the pipeline payload — the cache-hit fast path
    /// that skips the flash controllers entirely.
    MemRead {
        /// Bytes to fetch from the host.
        len: u32,
    },
}

impl DevOpCode {
    fn kind(&self) -> u8 {
        match self {
            DevOpCode::SsdRead { .. } => 0,
            DevOpCode::SsdWrite { .. } => 1,
            DevOpCode::Process { .. } => 2,
            DevOpCode::NicSend { .. } => 3,
            DevOpCode::NicRecv { .. } => 4,
            DevOpCode::MemRead { .. } => 5,
        }
    }
}

fn function_code(f: NdpFunction) -> u8 {
    match f {
        NdpFunction::Md5 => 0,
        NdpFunction::Sha1 => 1,
        NdpFunction::Sha256 => 2,
        NdpFunction::Crc32 => 3,
        NdpFunction::Aes256Encrypt => 4,
        NdpFunction::Aes256Decrypt => 5,
        NdpFunction::GzipCompress => 6,
        NdpFunction::GzipDecompress => 7,
    }
}

fn function_from_code(c: u8) -> Option<NdpFunction> {
    Some(match c {
        0 => NdpFunction::Md5,
        1 => NdpFunction::Sha1,
        2 => NdpFunction::Sha256,
        3 => NdpFunction::Crc32,
        4 => NdpFunction::Aes256Encrypt,
        5 => NdpFunction::Aes256Decrypt,
        6 => NdpFunction::GzipCompress,
        7 => NdpFunction::GzipDecompress,
        _ => return None,
    })
}

/// Errors decoding a D2D command (the engine completes such commands with
/// an error record, as hardware command parsers do).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CommandError {
    /// Magic byte mismatch.
    BadMagic,
    /// Operation count outside `1..=4`.
    BadOpCount,
    /// Unknown op or function selector.
    BadOpKind,
    /// First op does not produce a payload, or pipeline shape is invalid.
    BadPipeline,
}

impl std::fmt::Display for CommandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            CommandError::BadMagic => "bad command magic",
            CommandError::BadOpCount => "op count must be 1..=4",
            CommandError::BadOpKind => "unknown op kind or function selector",
            CommandError::BadPipeline => "pipeline must start with a producing op",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for CommandError {}

/// A decoded 64-byte D2D command.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct D2dCommand {
    /// Driver-assigned unique id (echoed in the completion record).
    pub id: u64,
    /// The device-operation pipeline (1–4 ops).
    pub ops: Vec<DevOpCode>,
}

const MAGIC: u8 = 0xD2;

impl D2dCommand {
    /// Encoded size.
    pub const SIZE: usize = 64;

    /// Encodes into the 64-byte layout.
    ///
    /// # Panics
    ///
    /// Panics if the command holds no ops or more than
    /// [`D2dJob::MAX_OPS`].
    pub fn to_bytes(&self) -> [u8; Self::SIZE] {
        assert!(
            (1..=D2dJob::MAX_OPS).contains(&self.ops.len()),
            "a D2D command carries 1..=4 ops"
        );
        let mut b = [0u8; Self::SIZE];
        b[0] = MAGIC;
        b[1] = self.ops.len() as u8;
        b[8..16].copy_from_slice(&self.id.to_le_bytes());
        for (i, op) in self.ops.iter().enumerate() {
            let o = 16 + i * 12;
            b[o] = op.kind();
            match *op {
                DevOpCode::SsdRead { ssd, lba, len } => {
                    b[o + 1] = ssd;
                    b[o + 2..o + 8].copy_from_slice(&lba.to_le_bytes()[..6]);
                    b[o + 8..o + 12].copy_from_slice(&len.to_le_bytes());
                }
                DevOpCode::SsdWrite { ssd, lba } => {
                    b[o + 1] = ssd;
                    b[o + 2..o + 8].copy_from_slice(&lba.to_le_bytes()[..6]);
                }
                DevOpCode::Process {
                    function,
                    aux_off,
                    aux_len,
                } => {
                    b[o + 1] = function_code(function);
                    b[o + 2..o + 6].copy_from_slice(&aux_off.to_le_bytes());
                    b[o + 6..o + 8].copy_from_slice(&aux_len.to_le_bytes());
                }
                DevOpCode::NicSend { conn, seq } => {
                    b[o + 1..o + 3].copy_from_slice(&conn.to_le_bytes());
                    b[o + 3..o + 7].copy_from_slice(&seq.to_le_bytes());
                }
                DevOpCode::NicRecv { conn, len } => {
                    b[o + 1..o + 3].copy_from_slice(&conn.to_le_bytes());
                    b[o + 3..o + 7].copy_from_slice(&len.to_le_bytes());
                }
                DevOpCode::MemRead { len } => {
                    b[o + 1..o + 5].copy_from_slice(&len.to_le_bytes());
                }
            }
        }
        b
    }

    /// Decodes and validates a 64-byte command.
    ///
    /// # Errors
    ///
    /// Returns a [`CommandError`] on malformed input.
    pub fn from_bytes(b: &[u8; Self::SIZE]) -> Result<D2dCommand, CommandError> {
        if b[0] != MAGIC {
            return Err(CommandError::BadMagic);
        }
        let n = b[1] as usize;
        if !(1..=D2dJob::MAX_OPS).contains(&n) {
            return Err(CommandError::BadOpCount);
        }
        let id = u64::from_le_bytes(b[8..16].try_into().expect("8 bytes"));
        let mut ops = Vec::with_capacity(n);
        for i in 0..n {
            let o = 16 + i * 12;
            let mut lba_bytes = [0u8; 8];
            lba_bytes[..6].copy_from_slice(&b[o + 2..o + 8]);
            let op = match b[o] {
                0 => DevOpCode::SsdRead {
                    ssd: b[o + 1],
                    lba: u64::from_le_bytes(lba_bytes),
                    len: u32::from_le_bytes(b[o + 8..o + 12].try_into().expect("4 bytes")),
                },
                1 => DevOpCode::SsdWrite {
                    ssd: b[o + 1],
                    lba: u64::from_le_bytes(lba_bytes),
                },
                2 => DevOpCode::Process {
                    function: function_from_code(b[o + 1]).ok_or(CommandError::BadOpKind)?,
                    aux_off: u32::from_le_bytes(b[o + 2..o + 6].try_into().expect("4 bytes")),
                    aux_len: u16::from_le_bytes([b[o + 6], b[o + 7]]),
                },
                3 => DevOpCode::NicSend {
                    conn: u16::from_le_bytes([b[o + 1], b[o + 2]]),
                    seq: u32::from_le_bytes(b[o + 3..o + 7].try_into().expect("4 bytes")),
                },
                4 => DevOpCode::NicRecv {
                    conn: u16::from_le_bytes([b[o + 1], b[o + 2]]),
                    len: u32::from_le_bytes(b[o + 3..o + 7].try_into().expect("4 bytes")),
                },
                5 => DevOpCode::MemRead {
                    len: u32::from_le_bytes(b[o + 1..o + 5].try_into().expect("4 bytes")),
                },
                _ => return Err(CommandError::BadOpKind),
            };
            ops.push(op);
        }
        // The first op must produce the pipeline payload.
        if !matches!(
            ops[0],
            DevOpCode::SsdRead { .. } | DevOpCode::NicRecv { .. } | DevOpCode::MemRead { .. }
        ) {
            return Err(CommandError::BadPipeline);
        }
        Ok(D2dCommand { id, ops })
    }
}

/// The 64-byte completion record the engine DMA-writes into the host
/// completion ring.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CompletionRecord {
    /// Id of the completed D2D command.
    pub id: u64,
    /// Success flag.
    pub ok: bool,
    /// Phase tag (the ring works like an NVMe CQ).
    pub phase: bool,
    /// Payload length at pipeline exit.
    pub payload_len: u32,
    /// Digest from the last digest-type NDP op (≤ 32 bytes).
    pub digest: Vec<u8>,
}

impl CompletionRecord {
    /// Encoded size.
    pub const SIZE: usize = 64;

    /// FNV-1a over every byte except the CRC field itself (bytes 4..8).
    /// The record crosses the fabric as a completion TLP; the consumer
    /// uses this to tell a corrupted record from a well-formed one.
    fn crc(b: &[u8; Self::SIZE]) -> u32 {
        let mut h: u32 = 0x811C_9DC5;
        for (i, &x) in b.iter().enumerate() {
            if (4..8).contains(&i) {
                continue;
            }
            h ^= u32::from(x);
            h = h.wrapping_mul(0x0100_0193);
        }
        h
    }

    /// Encodes into the 64-byte layout, stamping the CRC into bytes 4..8.
    ///
    /// # Panics
    ///
    /// Panics if the digest exceeds 32 bytes.
    pub fn to_bytes(&self) -> [u8; Self::SIZE] {
        assert!(self.digest.len() <= 32, "digest exceeds the record's field");
        let mut b = [0u8; Self::SIZE];
        b[0] = MAGIC;
        b[1] = (self.ok as u8) | ((self.phase as u8) << 1);
        b[2] = self.digest.len() as u8;
        b[8..16].copy_from_slice(&self.id.to_le_bytes());
        b[16..20].copy_from_slice(&self.payload_len.to_le_bytes());
        b[32..32 + self.digest.len()].copy_from_slice(&self.digest);
        let crc = Self::crc(&b);
        b[4..8].copy_from_slice(&crc.to_le_bytes());
        b
    }

    /// Whether the serialized bytes pass the CRC. A record whose phase tag
    /// matched but whose CRC does not is a corrupted completion entry: the
    /// consumer must discard the slot, not trust its fields.
    pub fn verify(b: &[u8; Self::SIZE]) -> bool {
        u32::from_le_bytes(b[4..8].try_into().expect("4 bytes")) == Self::crc(b)
    }

    /// Decodes a 64-byte record; `None` when the slot has not been written
    /// with the expected phase (ring-consumption protocol).
    pub fn from_bytes(b: &[u8; Self::SIZE], expected_phase: bool) -> Option<CompletionRecord> {
        if b[0] != MAGIC {
            return None;
        }
        let phase = b[1] & 0b10 != 0;
        if phase != expected_phase {
            return None;
        }
        let digest_len = b[2] as usize;
        Some(CompletionRecord {
            id: u64::from_le_bytes(b[8..16].try_into().expect("8 bytes")),
            ok: b[1] & 1 == 1,
            phase,
            payload_len: u32::from_le_bytes(b[16..20].try_into().expect("4 bytes")),
            digest: b[32..32 + digest_len.min(32)].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_roundtrip_all_op_kinds() {
        let cmd = D2dCommand {
            id: 0xDEAD_BEEF_CAFE,
            ops: vec![
                DevOpCode::SsdRead {
                    ssd: 1,
                    lba: 0x12_3456_789A,
                    len: 65536,
                },
                DevOpCode::Process {
                    function: NdpFunction::Aes256Encrypt,
                    aux_off: 4096,
                    aux_len: 48,
                },
                DevOpCode::NicSend {
                    conn: 7,
                    seq: 0xAABB_CCDD,
                },
            ],
        };
        let decoded = D2dCommand::from_bytes(&cmd.to_bytes()).unwrap();
        assert_eq!(decoded, cmd);
    }

    #[test]
    fn recv_pipeline_roundtrip() {
        let cmd = D2dCommand {
            id: 1,
            ops: vec![
                DevOpCode::NicRecv {
                    conn: 3,
                    len: 1 << 20,
                },
                DevOpCode::Process {
                    function: NdpFunction::Crc32,
                    aux_off: 0,
                    aux_len: 0,
                },
                DevOpCode::SsdWrite { ssd: 0, lba: 42 },
            ],
        };
        assert_eq!(D2dCommand::from_bytes(&cmd.to_bytes()).unwrap(), cmd);
    }

    #[test]
    fn memread_pipeline_roundtrip() {
        // The cache-hit fast path: host-DRAM fetch straight to the wire.
        let cmd = D2dCommand {
            id: 3,
            ops: vec![
                DevOpCode::MemRead { len: 128 * 1024 },
                DevOpCode::NicSend {
                    conn: 9,
                    seq: 0x0102_0304,
                },
            ],
        };
        assert_eq!(D2dCommand::from_bytes(&cmd.to_bytes()).unwrap(), cmd);
    }

    #[test]
    fn decode_rejects_malformed() {
        let good = D2dCommand {
            id: 1,
            ops: vec![DevOpCode::SsdRead {
                ssd: 0,
                lba: 0,
                len: 4096,
            }],
        }
        .to_bytes();

        let mut bad = good;
        bad[0] = 0;
        assert_eq!(D2dCommand::from_bytes(&bad), Err(CommandError::BadMagic));

        let mut bad = good;
        bad[1] = 0;
        assert_eq!(D2dCommand::from_bytes(&bad), Err(CommandError::BadOpCount));
        bad[1] = 5;
        assert_eq!(D2dCommand::from_bytes(&bad), Err(CommandError::BadOpCount));

        let mut bad = good;
        bad[16] = 99;
        assert_eq!(D2dCommand::from_bytes(&bad), Err(CommandError::BadOpKind));

        // A pipeline starting with a consuming op is invalid.
        let bad_pipeline = D2dCommand {
            id: 1,
            ops: vec![DevOpCode::NicSend { conn: 0, seq: 0 }],
        }
        .to_bytes();
        assert_eq!(
            D2dCommand::from_bytes(&bad_pipeline),
            Err(CommandError::BadPipeline)
        );
    }

    #[test]
    #[should_panic(expected = "1..=4")]
    fn encode_rejects_empty() {
        let _ = D2dCommand { id: 0, ops: vec![] }.to_bytes();
    }

    #[test]
    fn completion_roundtrip_with_digest_and_phase() {
        for phase in [false, true] {
            let rec = CompletionRecord {
                id: 99,
                ok: true,
                phase,
                payload_len: 4096,
                digest: (0..16u8).collect(),
            };
            let b = rec.to_bytes();
            assert_eq!(CompletionRecord::from_bytes(&b, phase), Some(rec.clone()));
            assert_eq!(CompletionRecord::from_bytes(&b, !phase), None);
        }
    }

    #[test]
    fn completion_crc_detects_any_single_bit_flip() {
        let rec = CompletionRecord {
            id: 0x0123_4567_89AB_CDEF,
            ok: true,
            phase: true,
            payload_len: 65536,
            digest: vec![7; 32],
        };
        let good = rec.to_bytes();
        assert!(CompletionRecord::verify(&good));
        for byte in 0..CompletionRecord::SIZE {
            for bit in 0..8 {
                let mut bad = good;
                bad[byte] ^= 1 << bit;
                assert!(
                    !CompletionRecord::verify(&bad),
                    "byte {byte} bit {bit} escaped"
                );
            }
        }
    }

    #[test]
    fn unwritten_slot_reads_as_none() {
        let zeros = [0u8; 64];
        assert_eq!(CompletionRecord::from_bytes(&zeros, true), None);
        assert_eq!(CompletionRecord::from_bytes(&zeros, false), None);
    }

    #[test]
    fn lba_48bit_roundtrip() {
        let cmd = D2dCommand {
            id: 2,
            ops: vec![DevOpCode::SsdRead {
                ssd: 0,
                lba: (1 << 48) - 1,
                len: 4096,
            }],
        };
        assert_eq!(D2dCommand::from_bytes(&cmd.to_bytes()).unwrap(), cmd);
    }
}
