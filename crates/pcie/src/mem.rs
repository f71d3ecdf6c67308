//! The global physical memory map: sparsely-backed regions that DMA moves
//! real bytes between.
//!
//! Regions can be huge (the SSD flash region is hundreds of gigabytes) but
//! only pages holding a non-zero byte are materialized, so scenarios stay
//! cheap: an absent page reads as zero, so writing zeros onto one is a
//! no-op. A consumer done with a buffer [`take`](PhysMemory::take)s its
//! bytes instead of reading them: the span then reads as zero, and a page
//! the take leaves all zero is released into one pool shared by every
//! region. A released page is all zero, so the next page to materialize
//! anywhere in the map is popped from the pool instead of allocated and
//! zero-filled; pooled pages are not resident. [`PhysMemory::read`]
//! zero-fills its buffer once and copies only the present pages into it.
//!
//! Regions are kept sorted by start address. Allocated regions each start
//! a fresh 4 GiB slot, so a table indexed by `addr >> 32` finds the region
//! holding an address in O(1); where fixed-address regions share a slot
//! and the table's region misses, a binary search over a dense vector of
//! region starts decides. Each region is tagged with the PCIe [`PortId`]
//! it sits behind so the fabric can charge transfers to the right links.

use dcs_sim::DetMap;
use std::collections::VecDeque;
use std::fmt;

use crate::addr::{AddrRange, PhysAddr};

/// Identifies a PCIe port (switch slot or the root port toward the host).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PortId(pub u16);

impl PortId {
    /// The root port: host DRAM and everything reached through the root
    /// complex sits behind this port.
    pub const ROOT: PortId = PortId(0);
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "port{}", self.0)
    }
}

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Whether every byte of `data` is zero.
fn is_zero(data: &[u8]) -> bool {
    // OR-folding fixed-size chunks vectorizes; the early exit per chunk
    // keeps non-zero payloads cheap.
    data.chunks(64)
        .all(|c| c.iter().fold(0u8, |acc, &b| acc | b) == 0)
}

type Page = Box<[u8; PAGE_SIZE]>;

/// Bytes per granule of a page's [`Slot::live`] bitmap: 64 granules
/// cover a page.
const GRANULE: usize = PAGE_SIZE / 64;

/// The `live` bits of the granules `[in_page, in_page + n)` touches.
fn granules(in_page: usize, n: usize) -> u64 {
    let first = in_page / GRANULE;
    let last = (in_page + n - 1) / GRANULE;
    (u64::MAX >> (63 - last)) & (u64::MAX << first)
}

/// The `live` bits of the granules `[in_page, in_page + n)` covers
/// whole.
fn whole_granules(in_page: usize, n: usize) -> u64 {
    let first = in_page.div_ceil(GRANULE);
    let end = (in_page + n) / GRANULE;
    if first >= end {
        return 0;
    }
    granules(first * GRANULE, (end - first) * GRANULE)
}

/// All-zero pages released by takes, shared by every region of a
/// [`PhysMemory`].
#[derive(Default)]
struct PagePool(Vec<Page>);

impl PagePool {
    /// An all-zero page: a released one if any, else a fresh one.
    fn zeroed(&mut self) -> Page {
        self.0.pop().unwrap_or_else(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Keeps `page`, which the caller has checked is all zero.
    fn release(&mut self, page: Page) {
        self.0.push(page);
    }
}

/// A materialized page and which of its granules may hold a non-zero
/// byte.
struct Slot {
    /// Bit `i` is set when granule `i` was written since a take last
    /// cleared it; a clear bit means the granule is all zero, so a take
    /// decides whether the page is all zero by looking only at set bits.
    live: u64,
    bytes: Page,
}

impl Slot {
    /// Clears the bit of every granule in `bits` that is all zero, and
    /// stops at the first one that is not. Returns whether the page is
    /// all zero.
    fn settle(&mut self, mut bits: u64) -> bool {
        while bits != 0 {
            let g = bits.trailing_zeros() as usize;
            if !is_zero(&self.bytes[g * GRANULE..(g + 1) * GRANULE]) {
                return false;
            }
            self.live &= !(1 << g);
            bits &= bits - 1;
        }
        self.live == 0
    }
}

/// Byte storage materialized page-by-page on the first non-zero write.
#[derive(Default)]
struct SparseBytes {
    pages: DetMap<u64, Slot>,
}

impl SparseBytes {
    /// Reads `out.len()` bytes at `offset` into `out`. Absent pages read
    /// as zero; when `out` is already zeroed they are skipped.
    fn read_into(&self, offset: u64, out: &mut [u8], out_zeroed: bool) {
        let mut off = offset;
        let mut done = 0;
        while done < out.len() {
            let page = off >> PAGE_SHIFT;
            let in_page = (off as usize) & (PAGE_SIZE - 1);
            let n = (PAGE_SIZE - in_page).min(out.len() - done);
            match self.pages.get(&page) {
                Some(p) => out[done..done + n].copy_from_slice(&p.bytes[in_page..in_page + n]),
                None if out_zeroed => {}
                None => out[done..done + n].fill(0),
            }
            off += n as u64;
            done += n;
        }
    }

    /// Materializes `page` from `pool` with `chunk` at `in_page`.
    fn insert(&mut self, page: u64, in_page: usize, chunk: &[u8], pool: &mut PagePool) {
        let mut bytes = pool.zeroed();
        bytes[in_page..in_page + chunk.len()].copy_from_slice(chunk);
        let live = granules(in_page, chunk.len());
        self.pages.insert(page, Slot { live, bytes });
    }

    fn write_from(&mut self, offset: u64, data: &[u8], pool: &mut PagePool) {
        let mut off = offset;
        let mut done = 0;
        while done < data.len() {
            let page = off >> PAGE_SHIFT;
            let in_page = (off as usize) & (PAGE_SIZE - 1);
            let n = (PAGE_SIZE - in_page).min(data.len() - done);
            let chunk = &data[done..done + n];
            match self.pages.get_mut(&page) {
                Some(p) => {
                    p.bytes[in_page..in_page + n].copy_from_slice(chunk);
                    p.live |= granules(in_page, n);
                }
                // An absent page already reads as zero.
                None if is_zero(chunk) => {}
                None => self.insert(page, in_page, chunk, pool),
            }
            off += n as u64;
            done += n;
        }
    }

    /// Moves `out.len()` bytes at `offset` into `out`, leaving the span
    /// zero, and releases each page the move leaves all zero into `pool`.
    /// The granules the span covers whole are zero after the move; a
    /// page is all zero once the rest of its live granules are, and the
    /// check stops at the first that is not.
    fn take_into(&mut self, offset: u64, out: &mut [u8], pool: &mut PagePool) {
        let mut off = offset;
        let mut done = 0;
        while done < out.len() {
            let page = off >> PAGE_SHIFT;
            let in_page = (off as usize) & (PAGE_SIZE - 1);
            let n = (PAGE_SIZE - in_page).min(out.len() - done);
            if let Some(p) = self.pages.get_mut(&page) {
                let span = &mut p.bytes[in_page..in_page + n];
                out[done..done + n].copy_from_slice(span);
                span.fill(0);
                let whole = whole_granules(in_page, n);
                p.live &= !whole;
                if p.settle(p.live) {
                    let p = self.pages.remove(&page).expect("present page");
                    pool.release(p.bytes);
                }
            }
            off += n as u64;
            done += n;
        }
    }

    /// Copies `len` bytes at `src_off` in `src` to `dst_off` here, page
    /// to page in one pass: a present source page is copied onto a
    /// present destination page or materializes an absent one if the
    /// chunk holds a non-zero byte, and an absent source page zero-fills
    /// a present destination page and leaves an absent one absent.
    fn copy_from(
        &mut self,
        src: &SparseBytes,
        src_off: u64,
        dst_off: u64,
        len: usize,
        pool: &mut PagePool,
    ) {
        let mut done = 0;
        while done < len {
            let (s, d) = (src_off + done as u64, dst_off + done as u64);
            let s_in = (s as usize) & (PAGE_SIZE - 1);
            let d_in = (d as usize) & (PAGE_SIZE - 1);
            let n = (PAGE_SIZE - s_in.max(d_in)).min(len - done);
            let d_page = d >> PAGE_SHIFT;
            match (
                src.pages.get(&(s >> PAGE_SHIFT)),
                self.pages.get_mut(&d_page),
            ) {
                (Some(from), Some(to)) => {
                    to.bytes[d_in..d_in + n].copy_from_slice(&from.bytes[s_in..s_in + n]);
                    to.live |= granules(d_in, n);
                }
                (None, Some(to)) => to.bytes[d_in..d_in + n].fill(0),
                (Some(from), None) => {
                    let chunk = &from.bytes[s_in..s_in + n];
                    if !is_zero(chunk) {
                        self.insert(d_page, d_in, chunk, pool);
                    }
                }
                (None, None) => {}
            }
            done += n;
        }
    }

    fn resident_bytes(&self) -> usize {
        self.pages.len() * PAGE_SIZE
    }
}

/// Metadata describing a registered region.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionInfo {
    /// Human-readable name (`"host-dram"`, `"ssd0-flash"`, …).
    pub name: String,
    /// The address range the region occupies.
    pub range: AddrRange,
    /// The PCIe port the region's owner sits behind.
    pub port: PortId,
}

struct Region {
    info: RegionInfo,
    bytes: SparseBytes,
}

/// The system-wide physical memory map.
///
/// Lives in the simulator [`World`](dcs_sim::World); components read and
/// write it directly (memory accuracy is byte-level, timing is modeled by
/// the fabric and device components).
pub struct PhysMemory {
    regions: Vec<Region>,
    /// `regions[i].info.range.start`, kept beside `regions` so the lookup
    /// binary-searches one dense vector of addresses.
    starts: Vec<PhysAddr>,
    /// Per 4 GiB slot (`addr >> SLOT_SHIFT`): the index of the last region
    /// touching it, or [`NO_REGION`].
    slots: Vec<u32>,
    next_free: u64,
    /// Pages released by takes, reused by every region's writes.
    pool: PagePool,
}

impl Default for PhysMemory {
    fn default() -> Self {
        Self::new()
    }
}

/// Log2 of [`REGION_ALIGN`]: an address's slot is `addr >> SLOT_SHIFT`.
const SLOT_SHIFT: u32 = 32;
/// Alignment for allocated regions: 4 GiB keeps region bases readable in
/// traces, leaves room to grow, and gives each allocation its own slots.
const REGION_ALIGN: u64 = 1 << SLOT_SHIFT;
/// A slot no region touches.
const NO_REGION: u32 = u32::MAX;
/// Slots past this many are never tabled, so a fixed region far up the
/// address space cannot size the table; lookups there search.
const MAX_SLOTS: u64 = 1 << 20;

impl PhysMemory {
    /// An empty memory map.
    pub fn new() -> Self {
        PhysMemory {
            regions: Vec::new(),
            starts: Vec::new(),
            slots: Vec::new(),
            next_free: REGION_ALIGN,
            pool: PagePool::default(),
        }
    }

    /// Allocates a fresh region of `len` bytes behind `port`, placed at the
    /// next free aligned address, and returns its range.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn alloc_region(&mut self, name: &str, len: u64, port: PortId) -> AddrRange {
        assert!(len > 0, "cannot allocate an empty region");
        let start = PhysAddr(self.next_free);
        let range = AddrRange::new(start, len);
        self.next_free = (start.0 + len).div_ceil(REGION_ALIGN) * REGION_ALIGN;
        self.insert_sorted(name, range, port);
        range
    }

    /// Registers a region at a fixed range (used by tests and for MMIO
    /// windows that must not collide with allocation).
    ///
    /// # Panics
    ///
    /// Panics if the range overlaps an existing region.
    pub fn add_region_at(&mut self, name: &str, range: AddrRange, port: PortId) {
        for r in &self.regions {
            assert!(
                !r.info.range.overlaps(range),
                "region {name} at {range} overlaps {} at {}",
                r.info.name,
                r.info.range
            );
        }
        self.next_free = self
            .next_free
            .max((range.end().as_u64()).div_ceil(REGION_ALIGN) * REGION_ALIGN);
        self.insert_sorted(name, range, port);
    }

    /// Inserts a region keeping `regions` sorted by `(start, len)`: among
    /// regions sharing a start (only an empty one can), the non-empty one
    /// sorts last, where `region_index_of` looks.
    fn insert_sorted(&mut self, name: &str, range: AddrRange, port: PortId) {
        let key = (range.start, range.len);
        let pos = self
            .regions
            .partition_point(|r| (r.info.range.start, r.info.range.len) <= key);
        self.starts.insert(pos, range.start);
        self.regions.insert(
            pos,
            Region {
                info: RegionInfo {
                    name: name.to_string(),
                    range,
                    port,
                },
                bytes: SparseBytes::default(),
            },
        );
        if pos + 1 == self.regions.len() {
            self.table_slots(pos);
        } else {
            // Every later region's index moved: table them all again.
            self.slots.clear();
            for i in 0..self.regions.len() {
                self.table_slots(i);
            }
        }
    }

    /// Records `regions[i]` in each slot it touches (an empty region
    /// touches the slot of its start), over any earlier region there.
    fn table_slots(&mut self, i: usize) {
        let range = self.regions[i].info.range;
        let first = range.start.0 >> SLOT_SHIFT;
        let last = ((range.start.0 + range.len.max(1) - 1) >> SLOT_SHIFT).min(MAX_SLOTS - 1);
        if first > last {
            return;
        }
        if self.slots.len() as u64 <= last {
            self.slots.resize(last as usize + 1, NO_REGION);
        }
        self.slots[first as usize..=last as usize].fill(i as u32);
    }

    fn region_index_of(&self, addr: PhysAddr, len: usize) -> usize {
        // Regions never overlap, so the answer is the last region starting
        // at or below `addr`. When the last region touching `addr`'s slot
        // holds the span, no later region can start at or below `addr`, so
        // it is that one. Otherwise (an earlier region in a shared slot, or
        // a zero-length access at the end of a region that ends on a slot
        // boundary) the binary search decides.
        let contains = |i: usize| self.regions[i].info.range.contains_span(addr, len);
        let slot = self.slots.get((addr.0 >> SLOT_SHIFT) as usize).copied();
        if let Some(i) = slot.filter(|&i| i != NO_REGION && contains(i as usize)) {
            return i as usize;
        }
        let candidate = self
            .starts
            .partition_point(|&s| s <= addr)
            .checked_sub(1)
            .filter(|&i| contains(i));
        candidate.unwrap_or_else(|| {
            panic!(
                "access [{addr} +{len}) hits no single region; registered: {:?}",
                self.regions
                    .iter()
                    .map(|r| (&r.info.name, r.info.range))
                    .collect::<Vec<_>>()
            )
        })
    }

    /// Region metadata for the region containing `[addr, addr+len)`.
    ///
    /// # Panics
    ///
    /// Panics if the span is not fully contained in one region.
    pub fn region_of(&self, addr: PhysAddr, len: usize) -> &RegionInfo {
        &self.regions[self.region_index_of(addr, len)].info
    }

    /// Looks up a region by name.
    pub fn region_named(&self, name: &str) -> Option<&RegionInfo> {
        self.regions
            .iter()
            .map(|r| &r.info)
            .find(|i| i.name == name)
    }

    /// Reads `len` bytes starting at `addr`. Untouched memory reads as zero.
    ///
    /// # Panics
    ///
    /// Panics if the span is not fully contained in one region.
    pub fn read(&self, addr: PhysAddr, len: usize) -> Vec<u8> {
        let idx = self.region_index_of(addr, len);
        let r = &self.regions[idx];
        let mut out = vec![0u8; len];
        r.bytes.read_into(addr - r.info.range.start, &mut out, true);
        out
    }

    /// Reads into a caller-provided buffer (avoids allocation in hot paths).
    pub fn read_into(&self, addr: PhysAddr, out: &mut [u8]) {
        let idx = self.region_index_of(addr, out.len());
        let r = &self.regions[idx];
        r.bytes.read_into(addr - r.info.range.start, out, false);
    }

    /// Reads `len` bytes starting at `addr` and leaves the span reading
    /// as zero: a consumer that is done with a buffer hands its pages
    /// back. A page the take leaves all zero is released for reuse.
    ///
    /// # Panics
    ///
    /// Panics if the span is not fully contained in one region.
    pub fn take(&mut self, addr: PhysAddr, len: usize) -> Vec<u8> {
        let idx = self.region_index_of(addr, len);
        let r = &mut self.regions[idx];
        let mut out = vec![0u8; len];
        r.bytes
            .take_into(addr - r.info.range.start, &mut out, &mut self.pool);
        out
    }

    /// Writes `data` starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the span is not fully contained in one region.
    pub fn write(&mut self, addr: PhysAddr, data: &[u8]) {
        let idx = self.region_index_of(addr, data.len());
        let r = &mut self.regions[idx];
        let off = addr - r.info.range.start;
        r.bytes.write_from(off, data, &mut self.pool);
    }

    /// Writes the first `len` bytes of `queue` starting at `addr` and
    /// removes them from the queue: the receive gather out of a
    /// reassembly buffer, straight from the ring's two slices.
    ///
    /// # Panics
    ///
    /// Panics if the queue holds fewer than `len` bytes or the span is
    /// not fully contained in one region.
    pub fn write_front(&mut self, addr: PhysAddr, queue: &mut VecDeque<u8>, len: usize) {
        let idx = self.region_index_of(addr, len);
        let r = &mut self.regions[idx];
        let off = addr - r.info.range.start;
        let (head, tail) = queue.as_slices();
        let first = len.min(head.len());
        r.bytes.write_from(off, &head[..first], &mut self.pool);
        r.bytes
            .write_from(off + first as u64, &tail[..len - first], &mut self.pool);
        queue.drain(..len);
    }

    /// Copies `len` bytes from `src` to `dst` (the data movement behind a
    /// completed DMA). Source and destination may be in different regions;
    /// overlapping self-copies behave like `memmove`.
    pub fn copy(&mut self, src: PhysAddr, dst: PhysAddr, len: usize) {
        if len == 0 {
            return;
        }
        let s = self.region_index_of(src, len);
        let d = self.region_index_of(dst, len);
        let src_off = src - self.regions[s].info.range.start;
        let dst_off = dst - self.regions[d].info.range.start;
        if s != d {
            // Distinct regions never alias: move the bytes page to page.
            let (from, to) = if s < d {
                let (lo, hi) = self.regions.split_at_mut(d);
                (&lo[s], &mut hi[0])
            } else {
                let (lo, hi) = self.regions.split_at_mut(s);
                (&hi[0], &mut lo[d])
            };
            to.bytes
                .copy_from(&from.bytes, src_off, dst_off, len, &mut self.pool);
            return;
        }
        // Spans can only overlap inside one region. When the destination
        // starts inside the source, copy back to front so every chunk is
        // read before a later chunk's write lands on it.
        let backward = dst_off > src_off && dst_off < src_off + len as u64;
        let bytes = &mut self.regions[s].bytes;
        let mut buf = [0u8; PAGE_SIZE];
        let mut done = 0;
        while done < len {
            let n = PAGE_SIZE.min(len - done);
            let at = if backward { len - done - n } else { done } as u64;
            let chunk = &mut buf[..n];
            bytes.read_into(src_off + at, chunk, false);
            bytes.write_from(dst_off + at, chunk, &mut self.pool);
            done += n;
        }
    }

    /// Total bytes of materialized backing store (for memory-pressure
    /// assertions in tests). Pooled pages map no address and do not count.
    pub fn resident_bytes(&self) -> usize {
        self.regions.iter().map(|r| r.bytes.resident_bytes()).sum()
    }

    /// Iterates over registered region metadata.
    pub fn regions(&self) -> impl Iterator<Item = &RegionInfo> + '_ {
        self.regions.iter().map(|r| &r.info)
    }
}

impl fmt::Debug for PhysMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhysMemory")
            .field(
                "regions",
                &self.regions.iter().map(|r| &r.info).collect::<Vec<_>>(),
            )
            .field("resident_bytes", &self.resident_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_regions_do_not_overlap_and_are_aligned() {
        let mut m = PhysMemory::new();
        let a = m.alloc_region("a", 10, PortId::ROOT);
        let b = m.alloc_region("b", 1 << 33, PortId(1));
        let c = m.alloc_region("c", 1, PortId(2));
        assert!(!a.overlaps(b) && !b.overlaps(c) && !a.overlaps(c));
        assert_eq!(a.start.as_u64() % REGION_ALIGN, 0);
        assert_eq!(b.start.as_u64() % REGION_ALIGN, 0);
        assert_eq!(c.start.as_u64() % REGION_ALIGN, 0);
    }

    #[test]
    fn read_write_roundtrip_across_pages() {
        let mut m = PhysMemory::new();
        let r = m.alloc_region("dram", 1 << 20, PortId::ROOT);
        // Span two pages.
        let addr = r.start + (PAGE_SIZE as u64 - 3);
        let data: Vec<u8> = (0..10u8).collect();
        m.write(addr, &data);
        assert_eq!(m.read(addr, 10), data);
        // Untouched bytes read back as zero.
        assert_eq!(m.read(r.start, 4), vec![0; 4]);
    }

    #[test]
    fn sparse_backing_stays_small() {
        let mut m = PhysMemory::new();
        let r = m.alloc_region("flash", 400 << 30, PortId(1)); // 400 GiB
        m.write(r.start + (300u64 << 30), b"x");
        assert!(m.resident_bytes() <= 2 * PAGE_SIZE);
    }

    #[test]
    fn copy_moves_bytes_between_regions() {
        let mut m = PhysMemory::new();
        let a = m.alloc_region("a", 1 << 16, PortId::ROOT);
        let b = m.alloc_region("b", 1 << 16, PortId(1));
        m.write(a.start, b"dcs-ctrl");
        m.copy(a.start, b.start + 100, 8);
        assert_eq!(m.read(b.start + 100, 8), b"dcs-ctrl");
    }

    #[test]
    fn region_lookup_and_port_tagging() {
        let mut m = PhysMemory::new();
        let r = m.alloc_region("gpu-bar", 1 << 20, PortId(3));
        let info = m.region_of(r.start + 5, 10);
        assert_eq!(info.name, "gpu-bar");
        assert_eq!(info.port, PortId(3));
        assert_eq!(m.region_named("gpu-bar").unwrap().range, r);
        assert!(m.region_named("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "no single region")]
    fn access_outside_regions_panics() {
        let m = PhysMemory::new();
        let _ = m.read(PhysAddr(0x10), 4);
    }

    #[test]
    #[should_panic(expected = "no single region")]
    fn access_spanning_region_end_panics() {
        let mut m = PhysMemory::new();
        let r = m.alloc_region("small", 8, PortId::ROOT);
        let _ = m.read(r.start + 4, 8);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn fixed_region_overlap_is_rejected() {
        let mut m = PhysMemory::new();
        m.add_region_at("x", AddrRange::new(PhysAddr(0x1000), 0x1000), PortId::ROOT);
        m.add_region_at("y", AddrRange::new(PhysAddr(0x1800), 0x1000), PortId::ROOT);
    }

    #[test]
    fn take_across_a_page_boundary_releases_both_pages() {
        let mut m = PhysMemory::new();
        let r = m.alloc_region("ddr", 1 << 20, PortId::ROOT);
        let addr = r.start + (PAGE_SIZE as u64 - 3);
        m.write(addr, b"frame-bytes");
        assert_eq!(m.resident_bytes(), 2 * PAGE_SIZE);
        assert_eq!(m.take(addr, 11), b"frame-bytes");
        assert_eq!(m.read(addr, 11), vec![0; 11]);
        assert_eq!(m.resident_bytes(), 0);
    }

    #[test]
    fn take_keeps_a_page_that_still_holds_data() {
        let mut m = PhysMemory::new();
        let r = m.alloc_region("ddr", 1 << 20, PortId::ROOT);
        m.write(r.start, b"slot0");
        m.write(r.start + 2048, b"slot1");
        assert_eq!(m.take(r.start, 5), b"slot0");
        assert_eq!(m.resident_bytes(), PAGE_SIZE);
        assert_eq!(m.read(r.start + 2048, 5), b"slot1");
        assert_eq!(m.take(r.start + 2048, 5), b"slot1");
        assert_eq!(m.resident_bytes(), 0);
    }

    #[test]
    fn two_buffers_sharing_a_page_release_it_when_both_are_taken() {
        let mut m = PhysMemory::new();
        let r = m.alloc_region("ddr", 1 << 20, PortId::ROOT);
        // Two 2 KiB receive buffers on one page, each taking frames that
        // end mid-granule, written and taken in interleaved order.
        let (a, b) = (r.start, r.start + 2048);
        let frame = |len: usize, fill: u8| vec![fill; len];
        for round in 0..3u8 {
            let (la, lb) = (1514 - usize::from(round) * 100, 61 + usize::from(round));
            m.write(a, &frame(la, 0xA0 + round));
            assert_eq!(m.resident_bytes(), PAGE_SIZE);
            m.write(b, &frame(lb, 0xB0 + round));
            assert_eq!(m.take(a, la), frame(la, 0xA0 + round));
            assert_eq!(m.resident_bytes(), PAGE_SIZE, "b still holds its frame");
            // A zero write onto the taken buffer leaves nothing to keep.
            m.write(a, &[0; 100]);
            assert_eq!(m.take(b, lb), frame(lb, 0xB0 + round));
            assert_eq!(m.resident_bytes(), 0, "round {round}: both taken");
            assert_eq!(m.pool.0.len(), 1, "the page went back to the pool");
        }
        // A take that leaves a written byte in a granule it only partly
        // covers keeps the page.
        m.write(a, b"head+tail");
        assert_eq!(m.take(a, 4), b"head");
        assert_eq!(m.resident_bytes(), PAGE_SIZE);
        assert_eq!(m.take(a + 4, 5), b"+tail");
        assert_eq!(m.resident_bytes(), 0);
    }

    #[test]
    fn take_of_absent_pages_reads_zero_and_allocates_nothing() {
        let mut m = PhysMemory::new();
        let r = m.alloc_region("ddr", 1 << 20, PortId::ROOT);
        assert_eq!(m.take(r.start + 100, 3 * PAGE_SIZE), vec![0; 3 * PAGE_SIZE]);
        assert_eq!(m.resident_bytes(), 0);
    }

    #[test]
    fn a_released_page_is_reused_zeroed_at_another_address() {
        let mut m = PhysMemory::new();
        let a = m.alloc_region("a", 1 << 20, PortId::ROOT);
        let b = m.alloc_region("b", 1 << 20, PortId(1));
        m.write(a.start, &[0xAB; PAGE_SIZE]);
        assert_eq!(m.take(a.start, PAGE_SIZE), vec![0xAB; PAGE_SIZE]);
        assert_eq!(m.pool.0.len(), 1, "the take released its page");
        assert_eq!(m.resident_bytes(), 0, "a pooled page is not resident");
        // Another region, another page, another offset in the page.
        let page = b.start + 3 * PAGE_SIZE as u64;
        m.write(page + 100, b"xyz");
        assert!(m.pool.0.is_empty(), "the write reused the released page");
        assert_eq!(m.resident_bytes(), PAGE_SIZE);
        let got = m.read(page, PAGE_SIZE);
        assert_eq!(&got[100..103], b"xyz");
        assert!(
            got[..100].iter().chain(&got[103..]).all(|&x| x == 0),
            "outside the written span the reused page reads zero"
        );
        // A cross-region copy that materializes a page reuses one too.
        m.write(a.start + 64, &[0xCD; 512]);
        assert_eq!(m.take(page + 100, 3), b"xyz");
        assert_eq!(m.pool.0.len(), 1);
        let dst = b.start + 7 * PAGE_SIZE as u64;
        m.copy(a.start + 64, dst + 1000, 512);
        assert!(m.pool.0.is_empty(), "the copy reused the released page");
        let got = m.read(dst, PAGE_SIZE);
        assert!(got[1000..1512].iter().all(|&x| x == 0xCD));
        assert!(got[..1000].iter().chain(&got[1512..]).all(|&x| x == 0));
        assert_eq!(m.resident_bytes(), 2 * PAGE_SIZE);
    }

    #[test]
    fn a_page_still_holding_data_is_not_released() {
        let mut m = PhysMemory::new();
        let r = m.alloc_region("ddr", 1 << 20, PortId::ROOT);
        m.write(r.start, b"kept");
        m.write(r.start + 8, b"taken");
        assert_eq!(m.take(r.start + 8, 5), b"taken");
        assert!(m.pool.0.is_empty());
        assert_eq!(m.read(r.start, 13), b"kept\0\0\0\0\0\0\0\0\0");
    }

    #[test]
    fn default_allocates_like_new_and_never_at_address_zero() {
        let mut d = PhysMemory::default();
        let mut n = PhysMemory::new();
        let a = d.alloc_region("a", 64, PortId::ROOT);
        assert_eq!(a, n.alloc_region("a", 64, PortId::ROOT));
        assert_ne!(a.start, PhysAddr::ZERO, "address zero means \"no address\"");
        assert_eq!(d.region_of(a.start, 64).name, "a");
    }

    #[test]
    fn copy_between_regions_follows_both_page_grids() {
        let mut m = PhysMemory::new();
        let a = m.alloc_region("a", 1 << 16, PortId::ROOT);
        let b = m.alloc_region("b", 1 << 16, PortId(1));
        // Source: page 0 present from byte 100, page 1 absent, page 2
        // holding 50 nines, page 3 absent.
        let src = a.start + 100;
        m.write(src, &[7u8; PAGE_SIZE - 100]);
        m.write(a.start + 2 * PAGE_SIZE as u64, &[9u8; 50]);
        // Destination page 1 is present with stale bytes.
        m.write(b.start + PAGE_SIZE as u64, &[5u8; PAGE_SIZE]);
        let before = m.resident_bytes();
        let dst = b.start + 3000;
        let len = 3 * PAGE_SIZE;
        m.copy(src, dst, len);
        let mut want = vec![7u8; PAGE_SIZE - 100];
        want.resize(2 * PAGE_SIZE - 100, 0);
        want.extend_from_slice(&[9u8; 50]);
        want.resize(len, 0);
        assert_eq!(m.read(dst, len), want);
        // Destination pages 0 and 2 received non-zero bytes and
        // materialized; page 1 was zero-filled where the source was
        // absent; page 3 received only zeros and stays absent.
        assert_eq!(m.resident_bytes(), before + 2 * PAGE_SIZE);
    }

    #[test]
    fn zero_length_copy_is_noop() {
        let mut m = PhysMemory::new();
        let a = m.alloc_region("a", 16, PortId::ROOT);
        m.copy(a.start, a.start + 8, 0);
        assert_eq!(m.resident_bytes(), 0);
    }
}
