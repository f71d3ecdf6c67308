//! The engine's on-board DDR3 intermediate buffers.
//!
//! §IV-C: "we utilize on-board 1GB DDR3 DRAMs as intermediate buffers for
//! intermediate processing and packet recv buffers for NIC devices. To
//! easily manage large memory space, the intermediate buffers and packet
//! recv buffers are chunked into multiple fixed-size blocks (64KB)."
//!
//! [`ChunkAllocator`] implements that scheme: a bitmap of 64 KiB chunks
//! with contiguous-run allocation (device DMA wants physically contiguous
//! targets) and explicit free.

use dcs_pcie::AddrRange;

/// Chunk size, per the paper.
pub const CHUNK_SIZE: u64 = 64 * 1024;

/// A fixed-size-chunk allocator over one memory region.
#[derive(Debug, Clone)]
pub struct ChunkAllocator {
    region: AddrRange,
    used: Vec<bool>,
    allocated_chunks: usize,
    /// Rotating search start, so freed space is reused round-robin.
    cursor: usize,
}

impl ChunkAllocator {
    /// An allocator over `region` (truncated down to whole chunks).
    ///
    /// # Panics
    ///
    /// Panics if `region` holds less than one chunk.
    pub fn new(region: AddrRange) -> Self {
        let chunks = (region.len / CHUNK_SIZE) as usize;
        assert!(chunks > 0, "region smaller than one chunk");
        ChunkAllocator {
            region,
            used: vec![false; chunks],
            allocated_chunks: 0,
            cursor: 0,
        }
    }

    /// Total chunks managed.
    pub fn capacity(&self) -> usize {
        self.used.len()
    }

    /// Chunks currently allocated.
    pub fn allocated(&self) -> usize {
        self.allocated_chunks
    }

    /// Allocates a physically contiguous buffer of at least `len` bytes.
    /// Returns the range, or `None` when no contiguous run is free
    /// (callers surface this as a device-busy condition).
    pub fn alloc(&mut self, len: usize) -> Option<AddrRange> {
        let need = (len as u64).div_ceil(CHUNK_SIZE).max(1) as usize;
        if need > self.used.len() {
            return None;
        }
        let n = self.used.len();
        // First-fit from the cursor, wrapping once.
        let mut start = self.cursor;
        let mut scanned = 0;
        while scanned < n {
            // A run must not wrap the region boundary.
            if start + need > n {
                scanned += n - start;
                start = 0;
                continue;
            }
            let run_used = (start..start + need).position(|i| self.used[i]);
            match run_used {
                None => {
                    for slot in &mut self.used[start..start + need] {
                        *slot = true;
                    }
                    self.allocated_chunks += need;
                    self.cursor = (start + need) % n;
                    let addr = self.region.start + start as u64 * CHUNK_SIZE;
                    return Some(AddrRange::new(addr, need as u64 * CHUNK_SIZE));
                }
                Some(p) => {
                    let skip = p + 1;
                    scanned += skip;
                    start += skip;
                    if start >= n {
                        start = 0;
                    }
                }
            }
        }
        None
    }

    /// Frees a previously allocated range.
    ///
    /// # Panics
    ///
    /// Panics on double-free or on a range this allocator never produced.
    pub fn free(&mut self, range: AddrRange) {
        assert!(
            range.start >= self.region.start && range.end().as_u64() <= self.region.end().as_u64(),
            "range {range} outside the managed region"
        );
        let start_off = range.start - self.region.start;
        assert!(
            start_off.is_multiple_of(CHUNK_SIZE) && range.len.is_multiple_of(CHUNK_SIZE),
            "not chunk-aligned"
        );
        let first = (start_off / CHUNK_SIZE) as usize;
        let count = (range.len / CHUNK_SIZE) as usize;
        for i in first..first + count {
            assert!(self.used[i], "double free of chunk {i}");
            self.used[i] = false;
        }
        self.allocated_chunks -= count;
    }

    /// The managed region.
    pub fn region(&self) -> AddrRange {
        self.region
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_pcie::PhysAddr;

    fn region() -> AddrRange {
        AddrRange::new(PhysAddr(0x1000_0000), 16 * CHUNK_SIZE)
    }

    #[test]
    fn alloc_rounds_up_to_chunks() {
        let mut a = ChunkAllocator::new(region());
        let r = a.alloc(1).unwrap();
        assert_eq!(r.len, CHUNK_SIZE);
        let r2 = a.alloc(CHUNK_SIZE as usize + 1).unwrap();
        assert_eq!(r2.len, 2 * CHUNK_SIZE);
        assert_eq!(a.allocated(), 3);
        assert!(!r.overlaps(r2));
    }

    #[test]
    fn exhaustion_returns_none_and_free_recovers() {
        let mut a = ChunkAllocator::new(region());
        let big = a.alloc((16 * CHUNK_SIZE) as usize).unwrap();
        assert!(a.alloc(1).is_none());
        a.free(big);
        assert_eq!(a.allocated(), 0);
        assert!(a.alloc((16 * CHUNK_SIZE) as usize).is_some());
    }

    #[test]
    fn fragmentation_prevents_large_contiguous_runs() {
        let mut a = ChunkAllocator::new(region());
        let rs: Vec<_> = (0..16).map(|_| a.alloc(1).unwrap()).collect();
        // Free every other chunk: 8 free chunks, but max run = 1.
        for r in rs.iter().step_by(2) {
            a.free(*r);
        }
        assert!(a.alloc((2 * CHUNK_SIZE) as usize).is_none());
        assert!(a.alloc(1).is_some());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = ChunkAllocator::new(region());
        let r = a.alloc(1).unwrap();
        a.free(r);
        a.free(r);
    }

    #[test]
    #[should_panic(expected = "outside the managed region")]
    fn foreign_range_panics() {
        let mut a = ChunkAllocator::new(region());
        a.free(AddrRange::new(PhysAddr(0), CHUNK_SIZE));
    }

    #[test]
    fn allocations_never_overlap_under_churn() {
        let mut a = ChunkAllocator::new(region());
        let mut live: Vec<AddrRange> = Vec::new();
        let mut seed = 0x2545F491_4F6CDD1Du64;
        for _ in 0..1000 {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            if seed.is_multiple_of(3) && !live.is_empty() {
                let idx = (seed as usize / 7) % live.len();
                a.free(live.swap_remove(idx));
            } else if let Some(r) = a.alloc(((seed % 3 + 1) * CHUNK_SIZE) as usize) {
                for l in &live {
                    assert!(!l.overlaps(r), "{l} overlaps {r}");
                }
                live.push(r);
            }
        }
    }
}
