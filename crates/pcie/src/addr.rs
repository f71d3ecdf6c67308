//! Physical addresses and address ranges.

use std::fmt;
use std::ops::{Add, Sub};

/// A physical address in the system-wide PCIe address map.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// The zero address.
    pub const ZERO: PhysAddr = PhysAddr(0);

    /// Raw address value.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Offset of this address within a range starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `self < base`.
    #[inline]
    pub(crate) fn offset_from(self, base: PhysAddr) -> u64 {
        self.0
            .checked_sub(base.0)
            .expect("address below region base")
    }

    /// Rounds down to a multiple of `align` (a power of two).
    #[inline]
    #[cfg(test)]
    pub(crate) fn align_down(self, align: u64) -> PhysAddr {
        debug_assert!(align.is_power_of_two());
        PhysAddr(self.0 & !(align - 1))
    }
}

impl Add<u64> for PhysAddr {
    type Output = PhysAddr;
    #[inline]
    fn add(self, off: u64) -> PhysAddr {
        PhysAddr(self.0.checked_add(off).expect("physical address overflow"))
    }
}

impl Sub<PhysAddr> for PhysAddr {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: PhysAddr) -> u64 {
        self.offset_from(rhs)
    }
}

impl fmt::Debug for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PhysAddr({:#014x})", self.0)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#014x}", self.0)
    }
}

impl fmt::LowerHex for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for PhysAddr {
    fn from(v: u64) -> Self {
        PhysAddr(v)
    }
}

/// A half-open `[start, start+len)` range of physical addresses.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct AddrRange {
    /// First address in the range.
    pub start: PhysAddr,
    /// Length in bytes.
    pub len: u64,
}

impl AddrRange {
    /// Creates a range.
    ///
    /// # Panics
    ///
    /// Panics if the range would wrap the address space.
    pub fn new(start: PhysAddr, len: u64) -> Self {
        start.0.checked_add(len).expect("address range overflow");
        AddrRange { start, len }
    }

    /// One past the last address.
    #[inline]
    pub fn end(self) -> PhysAddr {
        PhysAddr(self.start.0 + self.len)
    }

    /// Whether `addr` lies within the range.
    #[inline]
    pub fn contains(self, addr: PhysAddr) -> bool {
        addr >= self.start && addr < self.end()
    }

    /// Whether `[addr, addr+len)` lies entirely within the range.
    #[inline]
    pub(crate) fn contains_span(self, addr: PhysAddr, len: usize) -> bool {
        addr >= self.start && addr.0 + len as u64 <= self.end().0
    }

    /// Whether two ranges share any address.
    #[inline]
    pub fn overlaps(self, other: AddrRange) -> bool {
        self.start < other.end() && other.start < self.end()
    }

    /// The address `offset` bytes into the range.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of bounds (an offset equal to `len` is also
    /// rejected — the result must be addressable).
    #[inline]
    pub fn at(self, offset: u64) -> PhysAddr {
        assert!(
            offset < self.len,
            "offset {offset} outside range of {} bytes",
            self.len
        );
        self.start + offset
    }
}

impl fmt::Display for AddrRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}..{})", self.start, self.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_arithmetic() {
        let a = PhysAddr(0x1000);
        assert_eq!((a + 0x20).as_u64(), 0x1020);
        assert_eq!((a + 0x20) - a, 0x20);
        assert_eq!(PhysAddr(0x1fff).align_down(0x1000), PhysAddr(0x1000));
        assert_eq!(PhysAddr::from(7u64).as_u64(), 7);
    }

    #[test]
    #[should_panic(expected = "below region base")]
    fn offset_from_panics_when_below_base() {
        let _ = PhysAddr(0x10).offset_from(PhysAddr(0x20));
    }

    #[test]
    fn range_membership() {
        let r = AddrRange::new(PhysAddr(100), 50);
        assert!(r.contains(PhysAddr(100)));
        assert!(r.contains(PhysAddr(149)));
        assert!(!r.contains(PhysAddr(150)));
        assert!(r.contains_span(PhysAddr(100), 50));
        assert!(!r.contains_span(PhysAddr(101), 50));
        assert_eq!(r.at(49), PhysAddr(149));
    }

    #[test]
    fn range_overlap() {
        let a = AddrRange::new(PhysAddr(0), 10);
        let b = AddrRange::new(PhysAddr(10), 10);
        let c = AddrRange::new(PhysAddr(5), 10);
        assert!(!a.overlaps(b));
        assert!(a.overlaps(c));
        assert!(c.overlaps(b));
    }

    #[test]
    #[should_panic(expected = "outside range")]
    fn range_at_rejects_out_of_bounds() {
        let r = AddrRange::new(PhysAddr(0), 10);
        let _ = r.at(10);
    }

    #[test]
    fn display_formats() {
        assert_eq!(PhysAddr(0x1000).to_string(), "0x000000001000");
        let r = AddrRange::new(PhysAddr(0), 16);
        assert_eq!(r.to_string(), "[0x000000000000..0x000000000010)");
    }
}
