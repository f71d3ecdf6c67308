//! Type-erased messages exchanged between components.
//!
//! Each subsystem crate defines its own payload structs (NVMe doorbell
//! writes, DMA completions, CPU job completions, …). The simulator core
//! does not need to know about any of them: a [`Msg`] carries a
//! `Box<dyn Payload>` that the receiving component downcasts back to the
//! concrete type it expects.
//!
//! A component tests a message against its payload types one after
//! another, so most tests miss. The [`TypeId`] of the payload is stored
//! beside the box when the message is built: [`Msg::is`] and a missed
//! [`Msg::downcast`] compare it and make no virtual call.

use std::any::{Any, TypeId};
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
    /// The component it is scheduled for, set when it enters the
    /// calendar (it fills what would be padding after `src`).
    pub(crate) dst: ComponentId,
    /// `TypeId::of` the payload's concrete type.
    tag: TypeId,
    payload: Box<dyn Payload>,
}

impl Msg {
    /// Wraps a concrete payload into a message from `src`.
    pub fn new<P: Payload>(src: ComponentId, payload: P) -> Self {
        Msg {
            src,
            dst: ComponentId::INVALID,
            tag: TypeId::of::<P>(),
            payload: Box::new(payload),
        }
    }

    /// Whether the payload is a `P`.
    pub fn is<P: Payload>(&self) -> bool {
        self.tag == TypeId::of::<P>()
    }

    /// Borrows the payload as a `P`, if it is one.
    pub fn get<P: Payload>(&self) -> Option<&P> {
        if self.is::<P>() {
            (*self.payload).as_any().downcast_ref::<P>()
        } else {
            None
        }
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
    pub(crate) fn type_name(&self) -> &'static str {
        (*self.payload).type_name()
    }

    /// A short description of the payload type, for diagnostics.
    #[cfg(test)]
    pub(crate) fn payload_debug(&self) -> String {
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

    /// Two payload types that share the name `Tick`.
    mod left {
        #[derive(Debug, PartialEq)]
        pub struct Tick(pub u32);
    }
    mod right {
        #[derive(Debug, PartialEq)]
        pub struct Tick(pub u32);
    }

    #[test]
    fn same_named_payloads_never_downcast_into_each_other() {
        let msg = Msg::new(ComponentId::INVALID, left::Tick(1));
        assert!(msg.is::<left::Tick>());
        assert!(!msg.is::<right::Tick>());
        assert_eq!(msg.get::<left::Tick>(), Some(&left::Tick(1)));
        assert_eq!(msg.get::<right::Tick>(), None);
        let msg = msg
            .downcast::<right::Tick>()
            .expect_err("a left Tick is not a right Tick");
        assert_eq!(msg.downcast::<left::Tick>().ok(), Some(left::Tick(1)));
        let msg = Msg::new(ComponentId::INVALID, right::Tick(2));
        assert!(!msg.is::<left::Tick>());
        assert_eq!(msg.downcast::<right::Tick>().ok(), Some(right::Tick(2)));
    }

    #[test]
    fn is_get_and_downcast_agree() {
        /// Message `i` of six, each with a payload of a different type.
        fn make(i: usize) -> Msg {
            let src = ComponentId::INVALID;
            match i {
                0 => Msg::new(src, Foo(1)),
                1 => Msg::new(src, Bar("b")),
                2 => Msg::new(src, left::Tick(3)),
                3 => Msg::new(src, right::Tick(4)),
                4 => Msg::new(src, 5u32),
                _ => Msg::new(src, Box::new(Foo(6))),
            }
        }
        /// Whether `msg` holds a `P`, after checking that `is`, `get` and
        /// `downcast` all give the same answer.
        fn holds<P: Payload>(msg: Msg) -> bool {
            let is = msg.is::<P>();
            assert_eq!(msg.get::<P>().is_some(), is, "{msg:?}");
            assert_eq!(msg.downcast::<P>().is_ok(), is);
            is
        }
        for i in 0..6 {
            let hits = [
                holds::<Foo>(make(i)),
                holds::<Bar>(make(i)),
                holds::<left::Tick>(make(i)),
                holds::<right::Tick>(make(i)),
                holds::<u32>(make(i)),
                holds::<Box<Foo>>(make(i)),
            ];
            let want: Vec<bool> = (0..6).map(|j| j == i).collect();
            assert_eq!(hits.to_vec(), want, "message {i}");
        }
    }

    #[test]
    fn forwarded_messages_keep_their_type() {
        use crate::{Component, Ctx, Simulator};

        /// Forwards every message to `to` unopened.
        struct Hop {
            to: ComponentId,
        }
        impl Component for Hop {
            fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
                ctx.forward_in(7, self.to, msg);
            }
        }
        /// Counts `left::Tick`s and fails on anything else.
        struct Sink;
        impl Component for Sink {
            fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
                assert!(!msg.is::<right::Tick>());
                let tick = msg.downcast::<left::Tick>().expect("a forwarded left Tick");
                ctx.world()
                    .stats
                    .counter("left.ticks")
                    .add(u64::from(tick.0));
            }
        }

        let mut sim = Simulator::new(0);
        let sink = sim.add("sink", Sink);
        let hop = sim.add("hop", Hop { to: sink });
        sim.kickoff(hop, left::Tick(40));
        sim.kickoff(hop, left::Tick(2));
        sim.run();
        assert_eq!(sim.world().stats.counter_value("left.ticks"), 42);
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
