//! Shared simulation state: a typed singleton store plus global statistics
//! and the deterministic RNG.
//!
//! Subsystem crates stash their cross-component state here — e.g. the PCIe
//! crate registers the global physical-memory map so that a DMA completion
//! handled inside the switch can deposit bytes into SSD/NIC/HDC memory
//! without components holding references to each other.

use crate::detmap::DetMap;
use std::any::{Any, TypeId};

use crate::obs::Recorder;
use crate::rng::Rng;
use crate::stats::Stats;

/// Mutable state shared by every component, reachable through
/// [`Ctx::world`](crate::Ctx::world).
pub struct World {
    /// Deterministic random source for the whole simulation.
    pub rng: Rng,
    /// Global named counters.
    pub stats: Stats,
    /// Sim-time span/metric recorder (disabled by default; see
    /// [`crate::obs`]). Recording is purely observational, so enabling
    /// it cannot change simulation behaviour.
    pub obs: Recorder,
    resources: DetMap<TypeId, Box<dyn Any + Send>>,
}

impl World {
    /// Creates an empty world seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        World {
            rng: Rng::new(seed),
            stats: Stats::new(),
            obs: Recorder::new(),
            resources: DetMap::new(),
        }
    }

    /// Registers (or replaces) the singleton of type `T`, returning the
    /// previous value if one was present.
    ///
    /// Resources are `Send`, so no two worlds can share one through a
    /// reference-counted handle:
    ///
    /// ```compile_fail
    /// let mut world = dcs_sim::World::new(1);
    /// world.insert(std::rc::Rc::new(0u8));
    /// ```
    pub fn insert<T: Any + Send>(&mut self, value: T) -> Option<T> {
        self.resources
            .insert(TypeId::of::<T>(), Box::new(value))
            .map(|old| *old.downcast::<T>().expect("keyed by TypeId"))
    }

    /// Borrows the singleton of type `T`, if registered.
    pub fn get<T: Any>(&self) -> Option<&T> {
        self.resources
            .get(&TypeId::of::<T>())
            .map(|b| b.downcast_ref::<T>().expect("keyed by TypeId"))
    }

    /// Mutably borrows the singleton of type `T`, if registered.
    pub fn get_mut<T: Any>(&mut self) -> Option<&mut T> {
        self.resources
            .get_mut(&TypeId::of::<T>())
            .map(|b| b.downcast_mut::<T>().expect("keyed by TypeId"))
    }

    /// Borrows the singleton of type `T`.
    ///
    /// # Panics
    ///
    /// Panics if no `T` was registered — use [`World::get`] when absence is
    /// a legitimate state.
    pub fn expect<T: Any>(&self) -> &T {
        self.get::<T>().unwrap_or_else(|| {
            panic!(
                "world resource not registered: {}",
                std::any::type_name::<T>()
            )
        })
    }

    /// Mutably borrows the singleton of type `T`.
    ///
    /// # Panics
    ///
    /// Panics if no `T` was registered.
    pub fn expect_mut<T: Any>(&mut self) -> &mut T {
        self.get_mut::<T>().unwrap_or_else(|| {
            panic!(
                "world resource not registered: {}",
                std::any::type_name::<T>()
            )
        })
    }

    /// Removes and returns the singleton of type `T`, if registered.
    pub fn remove<T: Any>(&mut self) -> Option<T> {
        self.resources
            .remove(&TypeId::of::<T>())
            .map(|b| *b.downcast::<T>().expect("keyed by TypeId"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Shared(Vec<u8>);

    #[test]
    fn insert_get_mutate_remove_roundtrip() {
        let mut w = World::new(1);
        assert!(w.get::<Shared>().is_none());
        assert!(w.insert(Shared(vec![1])).is_none());
        w.expect_mut::<Shared>().0.push(2);
        assert_eq!(w.expect::<Shared>().0, vec![1, 2]);
        assert_eq!(w.insert(Shared(vec![9])), Some(Shared(vec![1, 2])));
        assert_eq!(w.remove::<Shared>(), Some(Shared(vec![9])));
        assert!(w.get::<Shared>().is_none());
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn expect_panics_when_absent() {
        let w = World::new(1);
        let _ = w.expect::<Shared>();
    }

    #[test]
    fn distinct_types_do_not_collide() {
        let mut w = World::new(1);
        w.insert(1u32);
        w.insert(2u64);
        assert_eq!(*w.expect::<u32>(), 1);
        assert_eq!(*w.expect::<u64>(), 2);
    }
}
