//! The NIC's staging pool: device-internal memory that holds received
//! frames, descriptor batches and send gathers around their DMAs.
//!
//! Spans come in power-of-two size classes (64 B up), carved on demand
//! from the staging window and returned to a per-class free list once the
//! last DMA that reads or writes them has completed. Reuse is LIFO, so the
//! addresses a run hands out are deterministic, and the window's resident
//! pages follow the data in flight rather than the bytes streamed. A carve
//! past the window panics: wrapping would land new bytes on live ones.

use dcs_pcie::{AddrRange, PhysAddr};

/// Smallest span, as a shift: 64 bytes, the staging alignment.
const MIN_SHIFT: u32 = 6;

/// One staged span: its address and size class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Span {
    /// First byte of the span.
    pub(crate) addr: PhysAddr,
    class: u8,
}

/// Size-class free lists over one staging window.
pub(crate) struct StagingPool {
    /// Owner's name, for the exhaustion panic.
    name: String,
    window: AddrRange,
    /// Bytes carved from the window so far.
    carved: u64,
    /// Free spans per class, reused last-in first-out.
    free: Vec<Vec<PhysAddr>>,
}

impl StagingPool {
    /// An empty pool over `window`, owned by the device called `name`.
    pub(crate) fn new(name: &str, window: AddrRange) -> Self {
        StagingPool {
            name: name.to_string(),
            window,
            carved: 0,
            free: Vec::new(),
        }
    }

    /// A span of at least `len` bytes (zero-length spans take the smallest
    /// class, so every span has an address inside the window).
    ///
    /// # Panics
    ///
    /// Panics, naming the owner, when no free span fits and the window has
    /// no room left to carve one.
    pub(crate) fn alloc(&mut self, len: usize) -> Span {
        let size = len.max(1 << MIN_SHIFT).next_power_of_two() as u64;
        let class = (size.trailing_zeros() - MIN_SHIFT) as u8;
        if let Some(addr) = self.free.get_mut(class as usize).and_then(Vec::pop) {
            return Span { addr, class };
        }
        assert!(
            self.carved + size <= self.window.len,
            "{}: staging window of {} bytes exhausted carving {size} more ({} carved)",
            self.name,
            self.window.len,
            self.carved
        );
        let addr = self.window.start + self.carved;
        self.carved += size;
        Span { addr, class }
    }

    /// Returns `span` to its class's free list.
    pub(crate) fn free(&mut self, span: Span) {
        let class = span.class as usize;
        if self.free.len() <= class {
            self.free.resize_with(class + 1, Vec::new);
        }
        self.free[class].push(span.addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(len: u64) -> StagingPool {
        StagingPool::new("nic-t", AddrRange::new(PhysAddr(1 << 32), len))
    }

    #[test]
    fn spans_round_up_to_power_of_two_classes() {
        let mut p = pool(1 << 20);
        let a = p.alloc(0);
        let b = p.alloc(64);
        let c = p.alloc(65);
        let d = p.alloc(1514);
        assert_eq!(b.addr - a.addr, 64);
        assert_eq!(c.addr - b.addr, 64);
        assert_eq!(d.addr - c.addr, 128);
        assert_eq!(p.carved, 64 + 64 + 128 + 2048);
    }

    #[test]
    fn freed_spans_are_reused_last_in_first_out_within_their_class() {
        let mut p = pool(1 << 20);
        let a = p.alloc(2000);
        let b = p.alloc(2000);
        let small = p.alloc(100);
        p.free(a);
        p.free(b);
        p.free(small);
        assert_eq!(p.alloc(1500), b);
        assert_eq!(p.alloc(1500), a);
        assert_eq!(p.alloc(128), small);
        let fresh = p.alloc(1500);
        assert_eq!(fresh.addr - small.addr, 128, "an empty class carves anew");
    }

    #[test]
    #[should_panic(expected = "nic-t: staging window of 4096 bytes exhausted")]
    fn carving_past_the_window_panics_instead_of_wrapping() {
        let mut p = pool(4096);
        let _live = p.alloc(4096);
        p.alloc(64);
    }
}
