//! NIC descriptor rings: send descriptors (with LSO metadata) and receive
//! buffer descriptors with device write-back.
//!
//! Like the NVMe rings, descriptors are real bytes in the initiator's
//! memory (host DRAM for the kernel driver, FPGA BRAM for the HDC NIC
//! controller): the initiator serializes them, the device DMA-reads and
//! parses them, and receive completions are written back in place.

use dcs_pcie::{PhysAddr, PhysMemory};

/// A transmit descriptor: where the prebuilt headers and the payload live,
/// and whether the device should LSO-segment the payload.
///
/// This condenses the Broadcom BD (buffer descriptor) layout to the fields
/// the model interprets, serialized into 32 bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SendDescriptor {
    /// Address of the header template (Ethernet+IP+TCP) to use.
    pub header_addr: PhysAddr,
    /// Length of the header template in bytes.
    pub header_len: u16,
    /// Address of the (contiguous) payload to transmit.
    pub payload_addr: PhysAddr,
    /// Payload length in bytes.
    pub payload_len: u32,
    /// Large-send offload: if non-zero, the device splits the payload into
    /// segments of at most this many bytes, fixing up per-segment headers.
    pub mss: u16,
    /// Initiator-chosen cookie echoed in the completion.
    pub cookie: u32,
}

impl SendDescriptor {
    /// Serialized descriptor size.
    pub const SIZE: usize = 32;

    /// Serializes the descriptor.
    pub fn to_bytes(&self) -> [u8; Self::SIZE] {
        let mut b = [0u8; Self::SIZE];
        b[0..8].copy_from_slice(&self.header_addr.as_u64().to_le_bytes());
        b[8..10].copy_from_slice(&self.header_len.to_le_bytes());
        b[10..12].copy_from_slice(&self.mss.to_le_bytes());
        b[12..16].copy_from_slice(&self.cookie.to_le_bytes());
        b[16..24].copy_from_slice(&self.payload_addr.as_u64().to_le_bytes());
        b[24..28].copy_from_slice(&self.payload_len.to_le_bytes());
        b
    }

    /// Parses a serialized descriptor.
    pub fn from_bytes(b: &[u8; Self::SIZE]) -> SendDescriptor {
        SendDescriptor {
            header_addr: PhysAddr(u64::from_le_bytes(b[0..8].try_into().expect("8 bytes"))),
            header_len: u16::from_le_bytes([b[8], b[9]]),
            mss: u16::from_le_bytes([b[10], b[11]]),
            cookie: u32::from_le_bytes(b[12..16].try_into().expect("4 bytes")),
            payload_addr: PhysAddr(u64::from_le_bytes(b[16..24].try_into().expect("8 bytes"))),
            payload_len: u32::from_le_bytes(b[24..28].try_into().expect("4 bytes")),
        }
    }
}

/// A receive buffer descriptor posted by the initiator: one frame lands in
/// one buffer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RecvDescriptor {
    /// Buffer address.
    pub buf_addr: PhysAddr,
    /// Buffer capacity in bytes.
    pub buf_len: u32,
}

impl RecvDescriptor {
    /// Serialized descriptor size.
    pub const SIZE: usize = 16;

    /// Serializes the descriptor.
    pub fn to_bytes(&self) -> [u8; Self::SIZE] {
        let mut b = [0u8; Self::SIZE];
        b[0..8].copy_from_slice(&self.buf_addr.as_u64().to_le_bytes());
        b[8..12].copy_from_slice(&self.buf_len.to_le_bytes());
        b
    }

    /// Parses a serialized descriptor.
    pub fn from_bytes(b: &[u8; Self::SIZE]) -> RecvDescriptor {
        RecvDescriptor {
            buf_addr: PhysAddr(u64::from_le_bytes(b[0..8].try_into().expect("8 bytes"))),
            buf_len: u32::from_le_bytes(b[8..12].try_into().expect("4 bytes")),
        }
    }
}

/// Device write-back after a frame lands in a posted buffer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RecvWriteback {
    /// Bytes written into the buffer (whole frame, headers included).
    pub frame_len: u32,
    /// Non-zero when the frame was delivered intact.
    pub valid: bool,
}

impl RecvWriteback {
    /// Serialized write-back size.
    pub const SIZE: usize = 8;

    /// Checksum over the meaningful bytes (0..5). Order-sensitive so any
    /// single corrupted byte — including the valid flag — mismatches.
    fn checksum(b: &[u8; Self::SIZE]) -> u8 {
        b[..5]
            .iter()
            .fold(0xA5u8, |acc, &x| acc.wrapping_add(x).rotate_left(1))
    }

    /// Serializes the write-back, stamping the checksum into byte 5.
    pub fn to_bytes(&self) -> [u8; Self::SIZE] {
        let mut b = [0u8; Self::SIZE];
        b[0..4].copy_from_slice(&self.frame_len.to_le_bytes());
        b[4] = self.valid as u8;
        b[5] = Self::checksum(&b);
        b
    }

    /// Whether the serialized bytes pass the checksum. Consumers must
    /// check this before trusting `frame_len`/`valid`: a write-back that
    /// fails is a corrupted completion entry and the slot's frame must be
    /// dropped, not parsed.
    pub fn verify(b: &[u8; Self::SIZE]) -> bool {
        b[5] == Self::checksum(b)
    }

    /// Parses a serialized write-back (does not validate; see [`Self::verify`]).
    pub fn from_bytes(b: &[u8; Self::SIZE]) -> RecvWriteback {
        RecvWriteback {
            frame_len: u32::from_le_bytes(b[0..4].try_into().expect("4 bytes")),
            valid: b[4] != 0,
        }
    }
}

/// Producer-side helper for a ring of fixed-size serialized records.
///
/// Used for both send and receive rings; the device tracks its own consumer
/// index from doorbell values.
#[derive(Clone, Debug)]
pub struct RingWriter {
    base: PhysAddr,
    entry_size: usize,
    depth: u16,
    tail: u16,
}

impl RingWriter {
    /// A writer over a ring of `depth` entries of `entry_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(base: PhysAddr, entry_size: usize, depth: u16) -> Self {
        assert!(depth > 0, "ring depth must be positive");
        RingWriter {
            base,
            entry_size,
            depth,
            tail: 0,
        }
    }

    /// Producer index to write to the doorbell.
    pub fn tail(&self) -> u16 {
        self.tail
    }

    /// Writes one serialized record and advances the producer index,
    /// returning the slot address.
    pub fn push(&mut self, mem: &mut PhysMemory, record: &[u8]) -> PhysAddr {
        assert_eq!(record.len(), self.entry_size, "record size mismatch");
        let slot = self.base + self.tail as u64 * self.entry_size as u64;
        mem.write(slot, record);
        self.tail = (self.tail + 1) % self.depth;
        slot
    }

    /// Address of slot `index`.
    pub fn slot(&self, index: u16) -> PhysAddr {
        self.base + (index % self.depth) as u64 * self.entry_size as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_pcie::PortId;

    #[test]
    fn send_descriptor_roundtrip() {
        let d = SendDescriptor {
            header_addr: PhysAddr(0x1234),
            header_len: 54,
            payload_addr: PhysAddr(0xABCD_0000),
            payload_len: 65536,
            mss: 1448,
            cookie: 0xDEAD_BEEF,
        };
        assert_eq!(SendDescriptor::from_bytes(&d.to_bytes()), d);
    }

    #[test]
    fn recv_descriptor_and_writeback_roundtrip() {
        let d = RecvDescriptor {
            buf_addr: PhysAddr(0x9000),
            buf_len: 2048,
        };
        assert_eq!(RecvDescriptor::from_bytes(&d.to_bytes()), d);
        let w = RecvWriteback {
            frame_len: 1502,
            valid: true,
        };
        assert_eq!(RecvWriteback::from_bytes(&w.to_bytes()), w);
    }

    #[test]
    fn writeback_checksum_detects_any_single_byte_flip() {
        let w = RecvWriteback {
            frame_len: 1502,
            valid: true,
        };
        let good = w.to_bytes();
        assert!(RecvWriteback::verify(&good));
        // Flip one bit in each covered byte (incl. the checksum itself).
        for byte in 0..6 {
            for bit in 0..8 {
                let mut bad = good;
                bad[byte] ^= 1 << bit;
                assert!(
                    !RecvWriteback::verify(&bad),
                    "byte {byte} bit {bit} escaped"
                );
            }
        }
    }

    #[test]
    fn ring_writer_wraps() {
        let mut mem = PhysMemory::new();
        let r = mem.alloc_region("ring", 4096, PortId::ROOT);
        let mut ring = RingWriter::new(r.start, 16, 3);
        let d = RecvDescriptor {
            buf_addr: PhysAddr(0x1000),
            buf_len: 64,
        };
        let s0 = ring.push(&mut mem, &d.to_bytes());
        let s1 = ring.push(&mut mem, &d.to_bytes());
        let s2 = ring.push(&mut mem, &d.to_bytes());
        let s3 = ring.push(&mut mem, &d.to_bytes());
        assert_eq!(s0, r.start);
        assert_eq!(s1, r.start + 16);
        assert_eq!(s2, r.start + 32);
        assert_eq!(s3, r.start, "wraps to slot 0");
        assert_eq!(ring.slot(4), r.start + 16);
        assert_eq!(ring.tail(), 1);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn ring_rejects_wrong_record_size() {
        let mut mem = PhysMemory::new();
        let r = mem.alloc_region("ring", 4096, PortId::ROOT);
        let mut ring = RingWriter::new(r.start, 16, 3);
        ring.push(&mut mem, &[0u8; 8]);
    }
}
