//! Latency-breakdown categories.
//!
//! Figures 2, 3a and 11 of the paper decompose end-to-end operation
//! latency into labelled phases (file system, network stack, hash, device
//! control, …). Every segment of a request's anatomy
//! ([`crate::obs::Anatomy`]) carries one [`Category`]; the figures sum
//! the segments per category, so their totals are the end-to-end latency.

use std::fmt;

/// Latency-breakdown categories, the union of the phase labels used across
/// Figures 2, 3a and 11 of the paper.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Category {
    /// VFS / file-system metadata work (block-address lookup, permissions).
    FileSystem,
    /// Kernel TCP/IP stack processing and socket management.
    NetworkStack,
    /// Checksum / hash computation itself (CPU, GPU, or NDP unit).
    Hash,
    /// Host-memory staging copies (user↔kernel, bounce buffers).
    DataCopy,
    /// CPU↔GPU data movement in the GPU-offload baselines.
    GpuCopy,
    /// GPU control: kernel launch, synchronization, completion polling.
    GpuControl,
    /// The storage-device read itself (command execution on the SSD).
    Read,
    /// The storage-device write itself.
    Write,
    /// Software device-control: command build/submit, doorbells, boundary
    /// crossings.
    DeviceControl,
    /// Completion handling: interrupts, completion-queue processing,
    /// wakeups back to user space.
    RequestCompletion,
    /// HDC Engine scoreboard overhead (fetch, split, schedule, update).
    Scoreboard,
    /// Time on the network wire / NIC transmit.
    Wire,
    /// Anything not covered above.
    Other,
}

impl Category {
    /// All categories, in presentation order (matching the figure legends).
    pub const ALL: [Category; 13] = [
        Category::FileSystem,
        Category::NetworkStack,
        Category::Hash,
        Category::DataCopy,
        Category::GpuCopy,
        Category::GpuControl,
        Category::Read,
        Category::Write,
        Category::DeviceControl,
        Category::RequestCompletion,
        Category::Scoreboard,
        Category::Wire,
        Category::Other,
    ];

    /// Short label used in printed tables.
    pub fn label(self) -> &'static str {
        match self {
            Category::FileSystem => "File System",
            Category::NetworkStack => "Network Stack",
            Category::Hash => "Hash",
            Category::DataCopy => "Data Copy",
            Category::GpuCopy => "CPU-GPU Data Copy",
            Category::GpuControl => "GPU Control",
            Category::Read => "Read",
            Category::Write => "Write",
            Category::DeviceControl => "Device Control",
            Category::RequestCompletion => "Request Completion",
            Category::Scoreboard => "Scoreboard",
            Category::Wire => "Wire",
            Category::Other => "Other",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_labels_are_unique() {
        let mut labels: Vec<_> = Category::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Category::ALL.len());
    }
}
