//! `PhysMemory` against a flat reference model: random sequences of
//! writes (all-zero chunks included), copies (across regions, and within
//! one region overlapping in both directions), receive gathers out of a
//! wrapped ring, takes, and reads, each checked byte for byte, over a
//! four-region map and over a rack-scale map of several hundred regions
//! whose region lookups are checked too, and under a churn of takes that
//! release pages and writes and copies that reuse them at other
//! addresses. Lookups through the 4 GiB slot table (a region spanning 94
//! slots, slots that fixed regions share, spans ending on a slot
//! boundary) are checked against a linear scan. Driven by the in-repo
//! deterministic [`Rng`] (the workspace builds offline, without a
//! property-testing framework).

use std::collections::{BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};

use dcs_pcie::{AddrRange, PhysAddr, PhysMemory, PortId};
use dcs_sim::Rng;

/// The backing-store page size `PhysMemory` materializes in.
const PAGE: u64 = 4096;

/// One region of the reference model: a flat byte vector, plus the pages
/// that received a non-zero byte and that no take has since left all
/// zero (exactly the pages `PhysMemory` may materialize).
struct ModelRegion {
    name: String,
    start: u64,
    bytes: Vec<u8>,
    dirty_pages: BTreeSet<u64>,
}

struct Model {
    regions: Vec<ModelRegion>,
}

impl Model {
    fn new(mem: &PhysMemory) -> Model {
        let regions = mem
            .regions()
            .map(|r| ModelRegion {
                name: r.name.clone(),
                start: r.range.start.as_u64(),
                bytes: vec![0; r.range.len as usize],
                dirty_pages: BTreeSet::new(),
            })
            .collect();
        Model { regions }
    }

    /// The region holding `[addr, addr + len)`: the non-empty one where an
    /// empty region shares its start, found by a linear scan.
    fn index_of(&self, addr: u64, len: usize) -> usize {
        self.regions
            .iter()
            .rposition(|r| addr >= r.start && addr + len as u64 <= r.start + r.bytes.len() as u64)
            .expect("model access inside a region")
    }

    fn region(&mut self, addr: u64, len: usize) -> &mut ModelRegion {
        let i = self.index_of(addr, len);
        &mut self.regions[i]
    }

    fn write(&mut self, addr: u64, data: &[u8]) {
        let r = self.region(addr, data.len());
        let off = (addr - r.start) as usize;
        r.bytes[off..off + data.len()].copy_from_slice(data);
        for (i, &b) in data.iter().enumerate() {
            if b != 0 {
                r.dirty_pages.insert((off + i) as u64 / PAGE);
            }
        }
    }

    fn read(&mut self, addr: u64, len: usize) -> Vec<u8> {
        let r = self.region(addr, len);
        let off = (addr - r.start) as usize;
        r.bytes[off..off + len].to_vec()
    }

    /// Returns the span's bytes and zeroes them; every page the take
    /// leaves all zero is no longer dirty.
    fn take(&mut self, addr: u64, len: usize) -> Vec<u8> {
        let out = self.read(addr, len);
        let r = self.region(addr, len);
        let off = (addr - r.start) as usize;
        r.bytes[off..off + len].fill(0);
        if len > 0 {
            for page in off as u64 / PAGE..=(off + len - 1) as u64 / PAGE {
                let lo = (page * PAGE) as usize;
                let hi = (lo + PAGE as usize).min(r.bytes.len());
                if r.bytes[lo..hi].iter().all(|&b| b == 0) {
                    r.dirty_pages.remove(&page);
                }
            }
        }
        out
    }

    fn resident_bytes(&self) -> usize {
        self.regions
            .iter()
            .map(|r| r.dirty_pages.len() * PAGE as usize)
            .sum()
    }
}

/// Four regions: two allocated, two placed out of address order with
/// `add_region_at` (one below every allocation, one in the gap after the
/// first). Sizes and bases are deliberately not page multiples.
fn setup() -> (PhysMemory, Model) {
    let mut mem = PhysMemory::new();
    let a = mem.alloc_region("a", 64 * 1024, PortId::ROOT);
    mem.alloc_region("b", 40 * 1024 + 123, PortId(1));
    let c = AddrRange::new(PhysAddr(0x10_0800), 24 * 1024 + 7);
    mem.add_region_at("c", c, PortId(2));
    let d = AddrRange::new(a.start + (1 << 20) + 0x321, 16 * 1024);
    mem.add_region_at("d", d, PortId(3));
    let model = Model::new(&mem);
    (mem, model)
}

/// Regions of each kind in [`rack_setup`].
const RACK_GROUPS: u64 = 128;

/// A rack-sized map of 4 × [`RACK_GROUPS`] regions, most of them a few
/// pages or less like a node's rings and BARs:
/// - one allocated region per group, on the 4 GiB grid;
/// - one `add_region_at` region per group in the gap *below* that
///   allocation, so placement runs against address order;
/// - one region per group below 4 GiB, placed from the top down, each
///   ending exactly where the one above it starts (adjacent regions);
/// - one empty region per group sharing the start of that group's
///   low region, so the lookup must pick the non-empty one.
fn rack_setup() -> (PhysMemory, Model) {
    let mut mem = PhysMemory::new();
    let mut rng = Rng::new(0xACE);
    let mut size = |max: u64| rng.gen_range(1..max + 1);
    let low_len = 5000;
    let mut low_top = RACK_GROUPS * low_len + 0x1000;
    for g in 0..RACK_GROUPS {
        let a = mem.alloc_region(&format!("alloc{g}"), size(3 * PAGE), PortId::ROOT);
        let below = a.start.as_u64() - (1 << 30) - size(PAGE);
        let gap = AddrRange::new(PhysAddr(below), size(2 * PAGE));
        mem.add_region_at(&format!("gap{g}"), gap, PortId(1));
        low_top -= low_len;
        let low = AddrRange::new(PhysAddr(low_top), low_len);
        mem.add_region_at(&format!("low{g}"), low, PortId(2));
        let empty = AddrRange::new(low.start, 0);
        mem.add_region_at(&format!("empty{g}"), empty, PortId(3));
    }
    let model = Model::new(&mem);
    (mem, model)
}

/// A random payload: all zeros, dense random, or mostly zero with a few
/// non-zero bytes.
fn payload(rng: &mut Rng, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    match rng.gen_range(0..3) {
        0 => {}
        1 => rng.fill_bytes(&mut v),
        _ => {
            for _ in 0..rng.gen_range(1..4) {
                if len > 0 {
                    let i = rng.gen_range(0..len as u64) as usize;
                    v[i] = rng.gen_range(1..256) as u8;
                }
            }
        }
    }
    v
}

/// A random span of at most `max` bytes inside region `r`: `(addr, len)`.
fn span(rng: &mut Rng, model: &Model, r: usize, max: u64) -> (u64, usize) {
    let region = &model.regions[r];
    let size = region.bytes.len() as u64;
    let len = rng.gen_range(0..max.min(size) + 1);
    let off = rng.gen_range(0..size - len + 1);
    (region.start + off, len as usize)
}

fn run_sequence(setup: fn() -> (PhysMemory, Model), seed: u64, ops: usize) {
    let (mut mem, mut model) = setup();
    let mut rng = Rng::new(seed);
    let n = model.regions.len();
    let mut wrapped = 0;
    for step in 0..ops {
        let r = rng.gen_range(0..n as u64) as usize;
        match rng.gen_range(0..7) {
            // Write, possibly all zeros onto absent or present pages.
            0 | 1 => {
                let (addr, len) = span(&mut rng, &model, r, 3 * PAGE);
                let data = payload(&mut rng, len);
                let before = mem.resident_bytes();
                mem.write(PhysAddr(addr), &data);
                model.write(addr, &data);
                if data.iter().all(|&b| b == 0) {
                    assert_eq!(
                        mem.resident_bytes(),
                        before,
                        "seed {seed} step {step}: a zero write materialized pages"
                    );
                }
            }
            // Copy across regions.
            2 => {
                let other = (r + 1 + rng.gen_range(0..n as u64 - 1) as usize) % n;
                let (src, len) = span(&mut rng, &model, r, 3 * PAGE);
                let dst_region = &model.regions[other];
                let size = dst_region.bytes.len() as u64;
                let len = len.min(size as usize);
                let dst = dst_region.start + rng.gen_range(0..size - len as u64 + 1);
                let data = model.read(src, len);
                mem.copy(PhysAddr(src), PhysAddr(dst), len);
                model.write(dst, &data);
            }
            // Overlapping copy inside one region, in either direction.
            3 => {
                let (src, len) = span(&mut rng, &model, r, 3 * PAGE);
                let region = &model.regions[r];
                let (lo, hi) = (region.start, region.start + region.bytes.len() as u64);
                let shift = rng.gen_range(0..len as u64 + 1);
                let dst = if rng.gen_bool(0.5) {
                    (src + shift).min(hi - len as u64)
                } else {
                    src.saturating_sub(shift).max(lo)
                };
                let data = model.read(src, len);
                mem.copy(PhysAddr(src), PhysAddr(dst), len);
                model.write(dst, &data);
            }
            // Receive gather out of a ring that has wrapped.
            4 => {
                let (addr, len) = span(&mut rng, &model, r, 2 * PAGE);
                // Park the ring's head near the end of its buffer so the
                // payload wraps around into the two-slice shape.
                let mut ring: VecDeque<u8> = VecDeque::with_capacity(len + 1);
                let head = ring.capacity() - rng.gen_range(0..len as u64 + 1) as usize;
                ring.extend(std::iter::repeat_n(0xEE, head));
                while ring.pop_front().is_some() {}
                let data = payload(&mut rng, len);
                ring.extend(data.iter().copied());
                ring.push_back(0x77);
                wrapped += usize::from(!ring.as_slices().1.is_empty());
                mem.write_front(PhysAddr(addr), &mut ring, len);
                model.write(addr, &data);
                assert_eq!(
                    ring,
                    [0x77],
                    "seed {seed} step {step}: gather left the tail"
                );
            }
            // Take: a consumer releasing a buffer it has read.
            5 => {
                let (addr, len) = span(&mut rng, &model, r, 3 * PAGE);
                assert_eq!(
                    mem.take(PhysAddr(addr), len),
                    model.take(addr, len),
                    "seed {seed} step {step}: take [{addr:#x} +{len})"
                );
            }
            // Read, and the region lookup behind it.
            _ => {
                let (addr, len) = span(&mut rng, &model, r, 3 * PAGE);
                let want = &model.regions[model.index_of(addr, len)].name;
                assert_eq!(
                    &mem.region_of(PhysAddr(addr), len).name,
                    want,
                    "seed {seed} step {step}: region of [{addr:#x} +{len})"
                );
                assert_eq!(
                    mem.read(PhysAddr(addr), len),
                    model.read(addr, len),
                    "seed {seed} step {step}: read [{addr:#x} +{len})"
                );
            }
        }
        assert_eq!(
            mem.resident_bytes(),
            model.resident_bytes(),
            "seed {seed} step {step}: only pages holding a non-zero byte are resident"
        );
    }
    assert!(wrapped > 0, "seed {seed}: no gather read a wrapped ring");
    for r in &model.regions {
        let mut out = vec![0xFFu8; r.bytes.len()];
        mem.read_into(PhysAddr(r.start), &mut out);
        assert!(out == r.bytes, "seed {seed}: final contents diverge");
    }
}

#[test]
fn random_sequences_match_the_flat_model() {
    for seed in 1..=12 {
        run_sequence(setup, seed, 1500);
    }
}

#[test]
fn rack_scale_sequences_match_the_flat_model() {
    for seed in 1..=4 {
        run_sequence(rack_setup, seed, 3000);
    }
}

/// Takes release whole pages, and the next write or copy anywhere in the
/// map may land on one of them: dense pages are written and taken in
/// one region while sparse bytes land at other page offsets of other
/// regions, every write and copy read back page-wide against the model
/// and `resident_bytes` checked after each step (released pages are not
/// resident).
#[test]
fn released_pages_reused_across_regions_match_the_flat_model() {
    let (mut mem, mut model) = setup();
    let mut rng = Rng::new(0x9001);
    let n = model.regions.len();
    let page_start = |addr: u64| addr - addr % PAGE;
    for step in 0..2000 {
        let r = rng.gen_range(0..n as u64) as usize;
        let (addr, len) = span(&mut rng, &model, r, 2 * PAGE);
        let mut data = vec![0u8; len];
        rng.fill_bytes(&mut data);
        match rng.gen_range(0..3) {
            // Fill, then hand the span back at once.
            0 => {
                mem.write(PhysAddr(addr), &data);
                model.write(addr, &data);
                assert_eq!(
                    mem.take(PhysAddr(addr), len),
                    model.take(addr, len),
                    "step {step}: take"
                );
            }
            // A few non-zero bytes, likely on a released page.
            1 => {
                let few = &mut data[..len.min(3)];
                few.iter_mut().for_each(|b| *b |= 1);
                mem.write(PhysAddr(addr), few);
                model.write(addr, few);
            }
            // A copy from another region, likely onto a released page.
            _ => {
                let other = (r + 1 + rng.gen_range(0..n as u64 - 1) as usize) % n;
                let (src, len) = span(&mut rng, &model, other, len as u64);
                let bytes = model.read(src, len);
                mem.copy(PhysAddr(src), PhysAddr(addr), len);
                model.write(addr, &bytes);
            }
        }
        // The whole pages around the span: bytes nobody wrote read zero.
        let region = &model.regions[model.index_of(addr, len)];
        let end = region.start + region.bytes.len() as u64;
        let lo = page_start(addr).max(region.start);
        let hi = (page_start(addr + len as u64) + PAGE).min(end);
        let wide = (hi - lo) as usize;
        assert!(
            mem.read(PhysAddr(lo), wide) == model.read(lo, wide),
            "step {step}: pages around [{addr:#x} +{len})"
        );
        assert_eq!(
            mem.resident_bytes(),
            model.resident_bytes(),
            "step {step}: released pages are not resident"
        );
    }
}

#[test]
fn rack_scale_lookups_find_every_region() {
    let (mem, model) = rack_setup();
    assert_eq!(model.regions.len() as u64, 4 * RACK_GROUPS);
    // `regions()` iterates in address order, the non-empty region last
    // among those sharing a start.
    let starts: Vec<(u64, usize)> = model
        .regions
        .iter()
        .map(|r| (r.start, r.bytes.len()))
        .collect();
    assert!(starts.windows(2).all(|w| w[0] <= w[1]));
    for r in model.regions.iter().filter(|r| !r.bytes.is_empty()) {
        let len = r.bytes.len();
        for (addr, n) in [(r.start, 1), (r.start + len as u64 - 1, 1), (r.start, len)] {
            assert_eq!(mem.region_of(PhysAddr(addr), n).name, r.name);
        }
    }
}

#[test]
fn a_span_straddling_adjacent_regions_panics_and_lists_the_regions() {
    let (mem, model) = rack_setup();
    let low0 = model
        .regions
        .iter()
        .find(|r| r.name == "low0")
        .expect("low0");
    let low1 = model
        .regions
        .iter()
        .find(|r| r.name == "low1")
        .expect("low1");
    // `low1` ends exactly where `low0` starts.
    assert_eq!(low1.start + low1.bytes.len() as u64, low0.start);
    let err = catch_unwind(AssertUnwindSafe(|| {
        drop(mem.read(PhysAddr(low0.start - 4), 8));
    }))
    .expect_err("a span across two adjacent regions must panic");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("no single region"), "{msg}");
    for name in ["\"low0\"", "\"low1\"", "\"empty0\"", "\"alloc127\""] {
        assert!(msg.contains(name), "the panic lists {name}: {msg}");
    }
}

#[test]
fn overlapping_copies_behave_like_memmove() {
    let (mut mem, mut model) = setup();
    let base = model.regions[0].start;
    let data: Vec<u8> = (0..3 * PAGE as usize)
        .map(|i| (i % 251) as u8 + 1)
        .collect();
    mem.write(PhysAddr(base + 100), &data);
    model.write(base + 100, &data);
    // Forward overlap (destination above source), then backward, each
    // straddling several pages.
    for (src, dst, len) in [(100, 2000, 9000), (2000, 5, 9000), (5, 4096 + 1, 4095)] {
        let expect = model.read(base + src, len);
        mem.copy(PhysAddr(base + src), PhysAddr(base + dst), len);
        model.write(base + dst, &expect);
        assert_eq!(mem.read(PhysAddr(base + dst), len), expect);
    }
    let whole = model.regions[0].bytes.clone();
    assert_eq!(mem.read(PhysAddr(base), whole.len()), whole);
}

#[test]
fn spans_outside_one_region_panic() {
    let (mut mem, model) = setup();
    let c = &model.regions[2];
    let c_end = c.start + c.bytes.len() as u64;
    let a = model.regions[0].start;
    type Access = Box<dyn FnOnce(&mut PhysMemory)>;
    let cases: Vec<(&str, Access)> = vec![
        (
            "read crossing the end of an out-of-order region",
            Box::new(move |m: &mut PhysMemory| drop(m.read(PhysAddr(c_end - 4), 8))),
        ),
        (
            "write landing in the gap below the first allocation",
            Box::new(move |m: &mut PhysMemory| m.write(PhysAddr(c_end + 16), b"x")),
        ),
        (
            "copy whose destination crosses a region start",
            Box::new(move |m: &mut PhysMemory| m.copy(PhysAddr(a), PhysAddr(a - 2), 4)),
        ),
        (
            "gather crossing a region end",
            Box::new(move |m: &mut PhysMemory| {
                let mut q: VecDeque<u8> = vec![1; 16].into();
                m.write_front(PhysAddr(c_end - 8), &mut q, 16);
            }),
        ),
        (
            "read below every region",
            Box::new(|m: &mut PhysMemory| drop(m.read(PhysAddr(0x10), 4))),
        ),
    ];
    for (what, op) in cases {
        let err = catch_unwind(AssertUnwindSafe(|| op(&mut mem)))
            .expect_err(&format!("{what} must panic"));
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("no single region"), "{what}: {msg}");
    }
}

/// One 4 GiB slot: allocated regions each start a fresh one.
const SLOT: u64 = 1 << 32;

/// The region a linear scan over `regions()` finds for `[addr, addr +
/// len)`: the last one containing it, as the model's lookup does.
fn scanned_region(mem: &PhysMemory, addr: u64, len: usize) -> Option<String> {
    let end = addr.checked_add(len as u64)?;
    mem.regions()
        .filter(|r| addr >= r.range.start.as_u64() && end <= r.range.end().as_u64())
        .last()
        .map(|r| r.name.clone())
}

/// Checks `region_of` at every probe against the linear scan: the same
/// region where the scan finds one, and otherwise a panic that lists the
/// registered regions.
fn assert_lookups_match_the_scan(mem: &PhysMemory, probes: &[(u64, usize)]) {
    for &(addr, len) in probes {
        let got = catch_unwind(AssertUnwindSafe(|| {
            mem.region_of(PhysAddr(addr), len).name.clone()
        }));
        match (scanned_region(mem, addr, len), got) {
            (Some(want), Ok(got)) => assert_eq!(got, want, "region of [{addr:#x} +{len})"),
            (None, Err(err)) => {
                let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
                assert!(msg.contains("no single region"), "{msg}");
                for r in mem.regions() {
                    let name = format!("{:?}", r.name);
                    assert!(msg.contains(&name), "the panic lists {name}: {msg}");
                }
            }
            (want, got) => panic!(
                "[{addr:#x} +{len}): the scan finds {want:?}, the lookup {:?}",
                got.map_err(|_| "a panic")
            ),
        }
    }
}

/// Probes around every region's edges: the first and last byte, one byte
/// past each end, the whole region, zero-length accesses at both ends,
/// and spans straddling each end.
fn edge_probes(mem: &PhysMemory) -> Vec<(u64, usize)> {
    let mut probes = Vec::new();
    for r in mem.regions() {
        let (start, end) = (r.range.start.as_u64(), r.range.end().as_u64());
        for at in [start, end] {
            probes.extend([(at, 0), (at, 1), (at.saturating_sub(1), 1)]);
            probes.extend([(at.saturating_sub(4), 8), (at.saturating_sub(1), 2)]);
        }
        probes.extend([(start, r.range.len as usize), (end.saturating_sub(8), 8)]);
    }
    probes
}

#[test]
fn a_400_gib_region_is_found_from_every_slot_it_spans() {
    let mut mem = PhysMemory::new();
    mem.alloc_region("rings", 64 * 1024, PortId::ROOT);
    let flash = mem.alloc_region("flash", 400_000_000_000, PortId(1));
    mem.alloc_region("bar", 1 << 20, PortId(1));
    let (first, last) = (
        flash.start.as_u64() / SLOT,
        (flash.end().as_u64() - 1) / SLOT,
    );
    assert_eq!(last - first + 1, 94, "400 GB spans 94 slots");
    let mut probes = edge_probes(&mem);
    for slot in first..=last + 1 {
        let base = slot * SLOT;
        probes.extend([
            (base, 1),
            (base - 1, 2),
            (base + 12_345, 4096),
            (base - 4096, 4096),
        ]);
    }
    assert_lookups_match_the_scan(&mem, &probes);
}

#[test]
fn fixed_regions_sharing_a_slot_are_found_by_the_search() {
    let mut mem = PhysMemory::new();
    mem.alloc_region("first", 8192, PortId::ROOT);
    // Adjacent and empty regions placed against address order, so the
    // earlier one is inserted below the later one: a zero-length access
    // where they meet belongs to the later one.
    let slot = 5 * SLOT;
    for (name, off, len) in [
        ("y-adjacent", 0x1100, 0x200),
        ("y", 0x1000, 0x100),
        ("x", 0x3000, 0x1000),
        ("z", 0x8000, 0x40),
        ("empty", 0x8000, 0),
    ] {
        mem.add_region_at(name, AddrRange::new(PhysAddr(slot + off), len), PortId(2));
    }
    // One region straddles the boundary into the next slot, which it then
    // shares with another.
    let straddle = AddrRange::new(PhysAddr(6 * SLOT - 0x800), 0x1000);
    mem.add_region_at("straddle", straddle, PortId(3));
    mem.add_region_at(
        "w",
        AddrRange::new(PhysAddr(6 * SLOT + 0x2000), 0x10),
        PortId(3),
    );
    let after = mem.alloc_region("after", 4096, PortId::ROOT);
    assert_eq!(after.start.as_u64(), 7 * SLOT);
    // A slot holding only an adjacent pair, the later one placed first.
    for (name, off) in [("q", 0x200), ("p", 0x100)] {
        mem.add_region_at(
            name,
            AddrRange::new(PhysAddr(9 * SLOT + off), 0x100),
            PortId(1),
        );
    }
    assert_eq!(mem.region_of(PhysAddr(9 * SLOT + 0x200), 0).name, "q");
    assert_eq!(mem.region_of(PhysAddr(slot + 0x1100), 0).name, "y-adjacent");
    let mut probes = edge_probes(&mem);
    probes.extend([
        (slot, 1),
        (slot + 0x2500, 4),
        (6 * SLOT, 0x100),
        (6 * SLOT + 0x900, 1),
    ]);
    assert_lookups_match_the_scan(&mem, &probes);
}

#[test]
fn spans_ending_exactly_on_a_slot_boundary() {
    let mut mem = PhysMemory::new();
    // A whole-slot allocation ends on a boundary; the next one starts on
    // it, adjacent.
    let whole = mem.alloc_region("whole", SLOT, PortId::ROOT);
    let next = mem.alloc_region("next", 4096, PortId(1));
    assert_eq!(whole.end(), next.start);
    // A fixed region ending on a boundary, then one starting past it in
    // the same slot: a zero-length access at the first one's end belongs
    // to it, not to the slot's region.
    let early = AddrRange::new(PhysAddr(8 * SLOT - 0x1000), 0x1000);
    mem.add_region_at("early", early, PortId(2));
    mem.add_region_at(
        "later",
        AddrRange::new(PhysAddr(8 * SLOT + 0x5000), 0x100),
        PortId(2),
    );
    // An allocation then lands on the boundary a fixed region ends on.
    let fixed = AddrRange::new(PhysAddr(10 * SLOT - 64), 64);
    mem.add_region_at("fixed", fixed, PortId(3));
    let last = mem.alloc_region("last", SLOT, PortId(3));
    assert_eq!(last.start.as_u64(), 10 * SLOT);
    assert_eq!(mem.region_of(PhysAddr(8 * SLOT), 0).name, "early");
    let mut probes = edge_probes(&mem);
    probes.extend([(whole.end().as_u64() - 64, 128), (11 * SLOT, 0)]);
    assert_lookups_match_the_scan(&mem, &probes);
}

#[test]
fn an_access_past_a_regions_end_inside_its_last_slot_panics_and_lists_the_regions() {
    let mut mem = PhysMemory::new();
    let a = mem.alloc_region("a", 10_000, PortId::ROOT);
    mem.alloc_region("b", 3 * SLOT + 5, PortId(1));
    let b = mem.region_named("b").expect("b").range;
    for (addr, len) in [
        (a.start.as_u64() + 9_996, 8),
        (a.start.as_u64() + 20_000, 4),
        (b.end().as_u64(), 1),
        (b.end().as_u64() + 4096, 16),
    ] {
        assert!(scanned_region(&mem, addr, len).is_none());
        let err = catch_unwind(AssertUnwindSafe(|| {
            drop(mem.read(PhysAddr(addr), len));
        }))
        .expect_err("an access past the end must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("no single region"), "{msg}");
        assert!(msg.contains("\"a\"") && msg.contains("\"b\""), "{msg}");
    }
}
