//! The component abstraction: everything in the simulated server — a PCIe
//! switch port, an SSD, a CPU pool, the HDC Engine scoreboard — is a
//! [`Component`] registered with the [`Simulator`](crate::Simulator) and
//! addressed by a [`ComponentId`].

use std::fmt;

use crate::engine::Ctx;
use crate::event::Msg;

/// A stable handle to a registered component.
///
/// Ids are dense indices handed out by
/// [`Simulator::add`](crate::Simulator::add) /
/// [`Simulator::reserve`](crate::Simulator::reserve) and are valid for the
/// lifetime of the simulator that produced them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub(crate) u32);

impl ComponentId {
    /// A sentinel id that no real component ever has. Used as the `src` of
    /// simulator-injected kickoff messages and in unit tests.
    pub const INVALID: ComponentId = ComponentId(u32::MAX);

    /// The raw index value (useful for diagnostics and dense side tables).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == ComponentId::INVALID {
            write!(f, "ComponentId(INVALID)")
        } else {
            write!(f, "ComponentId({})", self.0)
        }
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A reactive simulation actor.
///
/// Components own their private state and mutate it only in response to
/// messages; all interaction with the rest of the system goes through the
/// [`Ctx`]: scheduling future messages to themselves or to other components
/// and touching shared [`World`](crate::World) resources.
///
/// Implementations should treat an unexpected payload type as a logic bug
/// and panic with a useful message (the test suites rely on this loudness).
///
/// Components are `Send`: each one owns its state outright, so a whole
/// simulation can move between threads. A component that aliases state
/// through `Rc`/`RefCell` does not compile:
///
/// ```compile_fail
/// use std::{cell::RefCell, rc::Rc};
/// use dcs_sim::{Component, Ctx, Msg};
///
/// struct Aliased { shared: Rc<RefCell<u64>> }
/// impl Component for Aliased {
///     fn handle(&mut self, _ctx: &mut Ctx<'_>, _msg: Msg) {
///         *self.shared.borrow_mut() += 1;
///     }
/// }
/// ```
///
/// nor does one holding a raw pointer into memory it does not own:
///
/// ```compile_fail
/// use dcs_sim::{Component, Ctx, Msg};
///
/// struct Window { base: *mut u8 }
/// impl Component for Window {
///     fn handle(&mut self, _ctx: &mut Ctx<'_>, _msg: Msg) {}
/// }
/// ```
pub trait Component: Send {
    /// Reacts to one message at the current simulation time.
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_id_is_distinct_and_debuggable() {
        assert_eq!(
            format!("{:?}", ComponentId::INVALID),
            "ComponentId(INVALID)"
        );
        assert_eq!(format!("{:?}", ComponentId(3)), "ComponentId(3)");
        assert_ne!(ComponentId(0), ComponentId::INVALID);
        assert_eq!(ComponentId(5).index(), 5);
    }
}
