//! Latency-breakdown accounting.
//!
//! Figures 3a and 11 of the paper decompose end-to-end operation latency
//! into labelled phases (file system, network stack, hash, device control,
//! …). Each in-flight request in our simulation carries a [`Breakdown`]
//! that the orchestrators and the HDC Engine fill in as phases complete.

use std::collections::BTreeMap;
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

/// Accumulated per-category durations for one request.
///
/// ```
/// use dcs_sim::{Breakdown, Category};
/// let mut b = Breakdown::new();
/// b.add(Category::Read, 20_000);
/// b.add(Category::DeviceControl, 3_000);
/// b.add(Category::DeviceControl, 2_000);
/// assert_eq!(b.get(Category::DeviceControl), 5_000);
/// assert_eq!(b.total(), 25_000);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Breakdown {
    spans: BTreeMap<Category, u64>,
}

impl Breakdown {
    /// An empty breakdown.
    pub fn new() -> Self {
        Breakdown::default()
    }

    /// Adds `dur_ns` to `category`.
    pub fn add(&mut self, category: Category, dur_ns: u64) {
        *self.spans.entry(category).or_insert(0) += dur_ns;
    }

    /// Accumulated time for a category (zero if never recorded).
    pub fn get(&self, category: Category) -> u64 {
        self.spans.get(&category).copied().unwrap_or(0)
    }

    /// Sum across all categories.
    pub fn total(&self) -> u64 {
        self.spans.values().sum()
    }

    /// Non-zero `(category, duration)` pairs in presentation order.
    pub fn entries(&self) -> Vec<(Category, u64)> {
        Category::ALL
            .iter()
            .filter_map(|&c| {
                let v = self.get(c);
                (v > 0).then_some((c, v))
            })
            .collect()
    }

    /// Element-wise sum with another breakdown.
    pub fn merge(&mut self, other: &Breakdown) {
        for (&cat, &dur) in &other.spans {
            self.add(cat, dur);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_accumulates_and_orders_entries() {
        let mut b = Breakdown::new();
        b.add(Category::Scoreboard, 10);
        b.add(Category::FileSystem, 5);
        b.add(Category::Scoreboard, 10);
        let entries = b.entries();
        assert_eq!(
            entries,
            vec![(Category::FileSystem, 5), (Category::Scoreboard, 20)]
        );
        assert_eq!(b.total(), 25);
    }

    #[test]
    fn category_labels_are_unique() {
        let mut labels: Vec<_> = Category::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Category::ALL.len());
    }
}
