//! Type-erased messages exchanged between components.
//!
//! Each subsystem crate defines its own payload structs (NVMe doorbell
//! writes, DMA completions, CPU job completions, …). The simulator core
//! does not need to know about any of them: a [`Msg`] carries a
//! `Box<dyn Payload>` that the receiving component downcasts back to the
//! concrete type it expects.

use std::any::Any;
use std::fmt;

use crate::component::ComponentId;

/// A type-erased message payload.
///
/// Blanket-implemented for every `'static` type that is `Debug` and
/// `Send`, so any plain struct can be sent through the simulator without
/// ceremony. The `Send` bound keeps shared handles out of messages:
///
/// ```compile_fail
/// use dcs_sim::{ComponentId, Msg};
/// let shared = std::rc::Rc::new(0u64);
/// let _ = Msg::new(ComponentId::INVALID, shared);
/// ```
pub trait Payload: Any + fmt::Debug + Send {
    /// Borrow as `Any` for by-reference downcasting.
    fn as_any(&self) -> &dyn Any;
    /// Convert into `Any` for by-value downcasting.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
    /// The concrete type's name, as [`std::any::type_name`] spells it.
    fn type_name(&self) -> &'static str;
}

impl<T: Any + fmt::Debug + Send> Payload for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
    fn type_name(&self) -> &'static str {
        std::any::type_name::<T>()
    }
}

/// A message delivered to a [`Component`](crate::Component).
///
/// `src` identifies the sender (or the component itself for self-scheduled
/// wakeups), which lets request/response protocols reply without configuring
/// back-references.
pub struct Msg {
    /// The component that scheduled this message.
    pub src: ComponentId,
    payload: Box<dyn Payload>,
}

impl Msg {
    /// Wraps a concrete payload into a message from `src`.
    pub fn new<P: Payload>(src: ComponentId, payload: P) -> Self {
        Msg {
            src,
            payload: Box::new(payload),
        }
    }

    /// Whether the payload is a `P`.
    pub fn is<P: Payload>(&self) -> bool {
        (*self.payload).as_any().is::<P>()
    }

    /// Borrows the payload as a `P`, if it is one.
    pub fn get<P: Payload>(&self) -> Option<&P> {
        (*self.payload).as_any().downcast_ref::<P>()
    }

    /// Consumes the message, returning the payload if it is a `P`; otherwise
    /// hands the message back so another downcast can be tried.
    ///
    /// ```
    /// use dcs_sim::{Msg, ComponentId};
    /// #[derive(Debug, PartialEq)]
    /// struct Tick;
    /// let msg = Msg::new(ComponentId::INVALID, Tick);
    /// assert!(msg.downcast::<u32>().is_err() || false);
    /// ```
    pub fn downcast<P: Payload>(self) -> Result<P, Msg> {
        if self.is::<P>() {
            let any = self.payload.into_any();
            Ok(*any.downcast::<P>().expect("checked by is::<P>"))
        } else {
            Err(self)
        }
    }

    /// The payload's concrete type name (host-time profile key).
    pub fn type_name(&self) -> &'static str {
        (*self.payload).type_name()
    }

    /// A short description of the payload type, for diagnostics.
    pub fn payload_debug(&self) -> String {
        format!("{:?}", self.payload)
    }
}

impl fmt::Debug for Msg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Msg")
            .field("src", &self.src)
            .field("payload", &self.payload)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Foo(u32);
    #[derive(Debug, PartialEq)]
    struct Bar(&'static str);

    #[test]
    fn downcast_by_value_succeeds_and_fails_recoverably() {
        let msg = Msg::new(ComponentId::INVALID, Foo(7));
        let msg = match msg.downcast::<Bar>() {
            Ok(_) => panic!("Foo is not Bar"),
            Err(m) => m,
        };
        assert_eq!(msg.downcast::<Foo>().unwrap(), Foo(7));
    }

    #[test]
    fn reference_downcasts() {
        let msg = Msg::new(ComponentId::INVALID, Bar("hi"));
        assert!(msg.is::<Bar>());
        assert!(!msg.is::<Foo>());
        assert_eq!(msg.get::<Bar>(), Some(&Bar("hi")));
        assert_eq!(msg.get::<Foo>(), None);
    }

    #[test]
    fn debug_includes_payload() {
        let msg = Msg::new(ComponentId::INVALID, Foo(3));
        let dbg = format!("{msg:?}");
        assert!(dbg.contains("Foo(3)"), "{dbg}");
        assert!(msg.payload_debug().contains("Foo"));
        assert!(msg.type_name().ends_with("::Foo"), "{}", msg.type_name());
    }
}
