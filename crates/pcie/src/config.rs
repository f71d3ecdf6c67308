//! Timing and topology parameters of the PCIe fabric.
//!
//! The constants model the paper's testbed (Table V): a Cyclone
//! PCIe2-2707 Gen2 switch with five slots and 80 Gbps aggregate
//! bandwidth, devices attached at Gen2 x8 (≈32 Gbps effective per link
//! after 8b/10b and protocol overhead).

use dcs_sim::Bandwidth;

/// Effective per-link bandwidth (post-encoding).
pub const LINK_BANDWIDTH: Bandwidth = Bandwidth::gbps(32.0);
/// Aggregate switch crossbar bandwidth.
pub const SWITCH_BANDWIDTH: Bandwidth = Bandwidth::gbps(80.0);
/// One-way propagation + switching latency per hop, in nanoseconds.
pub const HOP_LATENCY_NS: u64 = 250;
/// Maximum TLP payload per packet, in bytes.
pub const MAX_PAYLOAD: usize = 256;
/// TLP header + DLLP/framing overhead per packet, in bytes: 12B TLP hdr
/// + 2B seq + 4B LCRC + 8B framing/ACK amortized.
pub const TLP_OVERHEAD: usize = 26;
/// Latency of a posted MMIO write reaching the target device.
pub const MMIO_WRITE_NS: u64 = 300;
/// Latency of an MSI write reaching its target.
pub const MSI_NS: u64 = 300;
/// Completion timeout for non-posted requests: how long the requester
/// waits before a request whose completion can never arrive (e.g. an
/// unrecognizably corrupted header with no replay budget) is failed
/// with a Timeout-status completion.
pub const CPL_TIMEOUT_NS: u64 = 50_000;

/// Fabric topology configuration.
#[derive(Clone, Debug)]
pub struct PcieConfig {
    /// Number of switch ports (including the root/upstream port).
    pub ports: usize,
    /// End-to-end CRC on every TLP: corruption in flight is *detected*
    /// at the receiver (and replayed or poisoned) instead of landing as
    /// silent bad data. Off models a fabric without ECRC support, where
    /// payload corruption escapes into "successful" completions.
    pub ecrc: bool,
}

impl Default for PcieConfig {
    fn default() -> Self {
        PcieConfig {
            ports: 6, // root + 5 slots (SSD, NIC, GPU, HDC Engine, spare)
            ecrc: true,
        }
    }
}

/// Bytes actually moved on a link for a `len`-byte transfer, including
/// per-TLP overhead.
pub fn wire_bytes(len: usize) -> usize {
    if len == 0 {
        return 0;
    }
    let packets = len.div_ceil(MAX_PAYLOAD);
    len + packets * TLP_OVERHEAD
}

/// Serialization time of a `len`-byte transfer on one link.
pub(crate) fn link_time(len: usize) -> u64 {
    LINK_BANDWIDTH.transfer_time(wire_bytes(len))
}

/// Serialization time of a `len`-byte transfer through the crossbar.
pub(crate) fn switch_time(len: usize) -> u64 {
    SWITCH_BANDWIDTH.transfer_time(wire_bytes(len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bytes_adds_per_packet_overhead() {
        assert_eq!(wire_bytes(0), 0);
        assert_eq!(wire_bytes(1), 1 + 26);
        assert_eq!(wire_bytes(256), 256 + 26);
        assert_eq!(wire_bytes(257), 257 + 2 * 26);
        assert_eq!(wire_bytes(4096), 4096 + 16 * 26);
    }

    #[test]
    fn link_time_scales_with_size() {
        let t1 = link_time(4096);
        let t2 = link_time(8192);
        assert!(t2 > t1, "{t2} > {t1}");
        // 4KB + overhead at 32 Gbps ≈ 1.13 us.
        assert!((1_000..1_300).contains(&t1), "{t1}");
    }

    #[test]
    fn switch_is_faster_than_link_per_transfer() {
        assert!(switch_time(65536) < link_time(65536));
    }
}
