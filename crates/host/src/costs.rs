//! The kernel cost model.
//!
//! Each constant is the CPU time one invocation of a software routine
//! occupies (or its per-byte rate, where noted), in nanoseconds on a
//! 2.3 GHz Xeon E5-2630 core (Table V). Values are calibrated so the
//! *shape* of the paper's Figures 2, 3, 8 and 11 holds: device control
//! and boundary crossings dominate the software side of an optimized I/O
//! path, vanilla-Linux paths pay page-cache and socket-buffer management
//! on top, and per-byte costs (copies, TCP processing) scale with
//! transfer size. EXPERIMENTS.md records the resulting paper-vs-measured
//! comparison.

/// Whether a driver path models the stock kernel or the optimized stacks
/// the paper builds on (§III-E: direct I/O, page-cache and socket-buffer
/// bypass, dedicated buffers).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KernelMode {
    /// Stock kernel: page cache, socket buffers, user↔kernel copies.
    Vanilla,
    /// Optimized stacks: direct I/O, zero-copy, dedicated buffers.
    Optimized,
}

/// User→kernel→user boundary crossing for one syscall/ioctl.
pub const SYSCALL_NS: u64 = 700;
/// File-descriptor → inode resolution and permission checks.
pub const VFS_LOOKUP_NS: u64 = 900;
/// File-system extent/block mapping for one request.
pub const FS_BLOCK_MAP_NS: u64 = 2_200;
/// Page-cache lookup (vanilla mode only).
pub const PAGE_CACHE_LOOKUP_NS: u64 = 1_200;
/// Page-cache insertion/bookkeeping per request (vanilla mode only).
pub const PAGE_CACHE_INSERT_NS: u64 = 2_600;
/// Block-layer request build + NVMe driver submit (bio, tagging,
/// doorbell write).
pub const BLOCK_SUBMIT_NS: u64 = 2_000;
/// Block-layer per-page work (bio segments, mapping) per 4 KiB page.
pub const BLOCK_PER_PAGE_NS: u64 = 300;
/// Interrupt entry/dispatch.
pub const IRQ_ENTRY_NS: u64 = 600;
/// Block/NIC completion path: CQ processing, request teardown, wakeup.
pub const COMPLETION_PATH_NS: u64 = 1_900;
/// Context switch when a blocked task resumes.
pub const CONTEXT_SWITCH_NS: u64 = 1_300;
/// Socket/TCP transmit setup per operation (locks, cb setup).
pub const TCP_TX_SETUP_NS: u64 = 1_600;
/// TCP transmit work per packet (headers handled by LSO; this is
/// skb/queue management).
pub const TCP_TX_PER_PACKET_NS: u64 = 2_200;
/// TCP receive work per packet (protocol processing, reassembly).
pub const TCP_RX_PER_PACKET_NS: u64 = 3_000;
/// Socket-buffer management per operation (vanilla mode only).
pub const SOCKET_BUFFER_NS: u64 = 2_400;
/// memcpy throughput for kernel↔user and bounce-buffer copies,
/// in bytes per nanosecond (12 ≈ 12 GB/s).
pub const COPY_BYTES_PER_NS: f64 = 7.0;
/// CUDA-driver cost to set up one async memcpy (cudaMemcpy overhead).
pub const GPU_COPY_SETUP_NS: u64 = 9_000;
/// CPU hashing throughput when no accelerator is used, in bytes/ns.
pub const CPU_HASH_BYTES_PER_NS: f64 = 1.2;
/// CUDA-driver cost to launch a kernel (ioctl + driver work).
pub const GPU_LAUNCH_NS: u64 = 16_000;
/// CUDA-driver cost to synchronize/complete a kernel.
pub const GPU_SYNC_NS: u64 = 13_000;
/// HDC Driver: ioctl entry + command marshalling (DCS-ctrl path).
pub const HDC_IOCTL_NS: u64 = 900;
/// HDC Driver: metadata retrieval from VFS / TCP stack per command.
pub const HDC_METADATA_NS: u64 = 1_400;
/// HDC Driver: completion interrupt handling per command.
pub const HDC_COMPLETION_NS: u64 = 1_100;

/// Cost of copying `len` bytes with the CPU.
pub(crate) fn copy_cost(len: usize) -> u64 {
    (len as f64 / COPY_BYTES_PER_NS).ceil() as u64
}

/// Cost of hashing `len` bytes with the CPU.
pub(crate) fn cpu_hash_cost(len: usize) -> u64 {
    (len as f64 / CPU_HASH_BYTES_PER_NS).ceil() as u64
}

/// Completion-side storage cost (IRQ + completion + context switch).
pub const STORAGE_COMPLETE_NS: u64 = IRQ_ENTRY_NS + COMPLETION_PATH_NS + CONTEXT_SWITCH_NS;

/// Transmit-side network software cost for `packets` packets of an
/// operation (socket setup + per-packet work + optional buffering).
pub(crate) fn net_tx_cost(mode: KernelMode, packets: usize) -> u64 {
    let base = SYSCALL_NS + TCP_TX_SETUP_NS + TCP_TX_PER_PACKET_NS * packets as u64;
    match mode {
        KernelMode::Vanilla => base + SOCKET_BUFFER_NS,
        KernelMode::Optimized => base,
    }
}

/// Receive-side network software cost for `packets` packets.
pub(crate) fn net_rx_cost(mode: KernelMode, packets: usize) -> u64 {
    let base = IRQ_ENTRY_NS + TCP_RX_PER_PACKET_NS * packets as u64 + COMPLETION_PATH_NS;
    match mode {
        KernelMode::Vanilla => base + SOCKET_BUFFER_NS,
        KernelMode::Optimized => base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_cost_scales_linearly() {
        assert_eq!(copy_cost(0), 0);
        assert_eq!(copy_cost(7_000), 1_000);
        assert!(copy_cost(1) >= 1);
    }

    #[test]
    fn vanilla_paths_cost_more_than_optimized() {
        assert!(net_tx_cost(KernelMode::Vanilla, 4) > net_tx_cost(KernelMode::Optimized, 4));
        assert!(net_rx_cost(KernelMode::Vanilla, 4) > net_rx_cost(KernelMode::Optimized, 4));
    }

    #[test]
    fn per_packet_costs_scale() {
        let one = net_tx_cost(KernelMode::Optimized, 1);
        let ten = net_tx_cost(KernelMode::Optimized, 10);
        assert_eq!(ten - one, 9 * TCP_TX_PER_PACKET_NS);
    }
}
