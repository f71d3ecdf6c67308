//! MMIO ownership: which component's registers live at which addresses.
//!
//! Device models claim their register windows (NVMe doorbells, NIC mailbox
//! registers, the HDC Engine's host-interface command queue, MSI target
//! addresses) before the simulation starts; the fabric consults this table
//! to route posted writes and interrupts. The table lives in the simulator
//! [`World`](dcs_sim::World).

use dcs_sim::ComponentId;

use crate::addr::{AddrRange, PhysAddr};

/// The MMIO routing table.
#[derive(Debug, Default)]
pub struct MmioRouting {
    /// Sorted by `(start, len)`; claims never overlap, so an address's
    /// only candidate owner is the last claim starting at or below it.
    claims: Vec<(AddrRange, ComponentId)>,
}

impl MmioRouting {
    /// An empty table.
    pub fn new() -> Self {
        MmioRouting::default()
    }

    /// Claims `range` for `owner`.
    ///
    /// # Panics
    ///
    /// Panics if the range overlaps an existing claim.
    pub fn claim(&mut self, range: AddrRange, owner: ComponentId) {
        for (existing, other) in &self.claims {
            assert!(
                !existing.overlaps(range),
                "MMIO claim {range} overlaps {existing} owned by {other}"
            );
        }
        let key = (range.start, range.len);
        let pos = self
            .claims
            .partition_point(|(r, _)| (r.start, r.len) <= key);
        self.claims.insert(pos, (range, owner));
    }

    /// The component owning `addr`, if any.
    pub fn owner_of(&self, addr: PhysAddr) -> Option<ComponentId> {
        let idx = self.claims.partition_point(|(r, _)| r.start <= addr);
        let (range, owner) = self.claims.get(idx.checked_sub(1)?)?;
        range.contains(addr).then_some(*owner)
    }

    /// Number of registered claims.
    pub fn len(&self) -> usize {
        self.claims.len()
    }

    /// Whether no claims exist.
    pub fn is_empty(&self) -> bool {
        self.claims.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_route_by_address() {
        let mut r = MmioRouting::new();
        let a = ComponentId::INVALID;
        r.claim(AddrRange::new(PhysAddr(0x1000), 0x100), a);
        assert_eq!(r.owner_of(PhysAddr(0x1000)), Some(a));
        assert_eq!(r.owner_of(PhysAddr(0x10ff)), Some(a));
        assert_eq!(r.owner_of(PhysAddr(0x1100)), None);
        assert_eq!(r.len(), 1);
        assert!(!r.is_empty());
    }

    #[test]
    fn out_of_order_claims_route_by_address() {
        let mut r = MmioRouting::new();
        let mut sim = dcs_sim::Simulator::new(0);
        let owners: Vec<ComponentId> = (0..4).map(|i| sim.reserve(&format!("dev{i}"))).collect();
        // Registered out of address order, with an empty claim sharing a
        // start with a real one and gaps between windows.
        r.claim(AddrRange::new(PhysAddr(0x3000), 0x100), owners[0]);
        r.claim(AddrRange::new(PhysAddr(0x1000), 0x100), owners[1]);
        r.claim(AddrRange::new(PhysAddr(0x2000), 0x800), owners[2]);
        r.claim(AddrRange::new(PhysAddr(0x2000), 0), owners[3]);
        assert_eq!(r.owner_of(PhysAddr(0xfff)), None);
        assert_eq!(r.owner_of(PhysAddr(0x1000)), Some(owners[1]));
        assert_eq!(r.owner_of(PhysAddr(0x1100)), None);
        assert_eq!(r.owner_of(PhysAddr(0x2000)), Some(owners[2]));
        assert_eq!(r.owner_of(PhysAddr(0x27ff)), Some(owners[2]));
        assert_eq!(r.owner_of(PhysAddr(0x2800)), None);
        assert_eq!(r.owner_of(PhysAddr(0x30ff)), Some(owners[0]));
        assert_eq!(r.owner_of(PhysAddr(u64::MAX)), None);
        assert_eq!(r.len(), 4);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_claims_rejected() {
        let mut r = MmioRouting::new();
        r.claim(AddrRange::new(PhysAddr(0), 16), ComponentId::INVALID);
        r.claim(AddrRange::new(PhysAddr(8), 16), ComponentId::INVALID);
    }
}
