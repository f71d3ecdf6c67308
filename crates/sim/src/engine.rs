//! The simulator: an event calendar, a component registry, and the
//! dispatch loop that drives them.
//!
//! The calendar is the hierarchical timing wheel in `calendar.rs`
//! (DESIGN.md §16): near-future events live in ring slots with O(1)
//! insert, far-future timers overflow to a small heap, and the dispatch
//! loop batches consecutive same-time/same-`dst` deliveries into one
//! component borrow. The old `BinaryHeap` calendar survives as a
//! reference model behind [`Simulator::set_reference_heap`] so the
//! equivalence suites can prove the wheel observationally identical.

use crate::calendar::{Calendar, HeapCalendar, Scheduled, TimingWheel};
use crate::component::{Component, ComponentId};
use crate::event::{Msg, Payload};
use crate::profile::{host_clock, HostProfile, ProfileRow};
use crate::time::SimTime;
use crate::trace::Category;
use crate::world::World;

/// The deterministic discrete-event simulator.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
pub struct Simulator {
    now: SimTime,
    seq: u64,
    calendar: Calendar,
    components: Vec<Option<Box<dyn Component>>>,
    names: Vec<String>,
    world: World,
    delivered: u64,
    batched: u64,
    /// Pooled per-dispatch output buffer: taken by [`Ctx`] during
    /// `handle`, drained into the calendar, and kept (capacity intact)
    /// for the next step instead of allocating a fresh `Vec`.
    scratch_out: Vec<(SimTime, ComponentId, Msg)>,
    /// Host-time profile, when [`Simulator::enable_host_profile`] asked
    /// for one.
    profile: Option<Box<HostProfile>>,
}

impl Simulator {
    /// Creates an empty simulator whose [`World`] RNG is seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Simulator {
            now: SimTime::ZERO,
            seq: 0,
            calendar: Calendar::Wheel(TimingWheel::new()),
            components: Vec::new(),
            names: Vec::new(),
            world: World::new(seed),
            delivered: 0,
            batched: 0,
            scratch_out: Vec::new(),
            profile: None,
        }
    }

    /// Starts timing every handler call on the host clock, keyed by
    /// component kind and payload type (see [`crate::profile`]). Off by
    /// default; the readings never reach the [`World`], so a profiled
    /// run delivers exactly the events an unprofiled one does.
    pub fn enable_host_profile(&mut self) {
        self.profile.get_or_insert_with(Box::default);
    }

    /// The host-time profile so far, heaviest row first; empty unless
    /// [`Simulator::enable_host_profile`] was called.
    pub fn host_profile(&self) -> Vec<ProfileRow> {
        self.profile
            .as_ref()
            .map_or_else(Vec::new, |p| p.rows(&self.names))
    }

    /// Swaps the calendar for the `BinaryHeap` reference model,
    /// migrating any pending events. Test-only: the scheduler
    /// equivalence and determinism suites run full workloads on both
    /// calendars and assert byte-identical traces. Never use this on a
    /// hot path — the wheel exists because the heap was the bottleneck.
    #[doc(hidden)]
    pub fn set_reference_heap(&mut self) {
        let mut heap = HeapCalendar::default();
        while let Some(ev) = self.calendar.pop() {
            heap.push(ev);
        }
        self.calendar = Calendar::Heap(heap);
    }

    /// Which calendar implementation is driving this simulator
    /// (`"timing-wheel"` or `"reference-heap"`).
    pub fn scheduler_name(&self) -> &'static str {
        self.calendar.name()
    }

    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of messages delivered so far.
    #[inline]
    pub fn delivered_events(&self) -> u64 {
        self.delivered
    }

    /// Of the delivered messages, how many rode a same-time/same-`dst`
    /// batch (delivered without re-borrowing the component). Purely
    /// informational — the engine benchmark reports it.
    #[inline]
    pub fn batched_events(&self) -> u64 {
        self.batched
    }

    /// The time of the next pending event without delivering it, or
    /// `None` when the calendar is empty. [`Simulator::run_until`] is
    /// built on this: the event delivered by the following
    /// [`Simulator::step`] is exactly the one peeked (no pop can
    /// observe a different head than the peek did).
    #[inline]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.calendar.peek_time()
    }

    /// Shared world state (memories, stats, RNG).
    #[inline]
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Mutable shared world state.
    #[inline]
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    /// Registers a component and returns its id.
    pub fn add<C: Component + 'static>(&mut self, name: &str, component: C) -> ComponentId {
        let id = self.reserve(name);
        self.install(id, component);
        id
    }

    /// Reserves an id so that mutually-referencing components can learn each
    /// other's addresses before construction. The slot must be filled with
    /// [`Simulator::install`] before any message reaches it.
    pub fn reserve(&mut self, name: &str) -> ComponentId {
        let id = ComponentId(u32::try_from(self.components.len()).expect("too many components"));
        self.components.push(None);
        self.names.push(name.to_string());
        id
    }

    /// Fills a slot previously handed out by [`Simulator::reserve`].
    ///
    /// # Panics
    ///
    /// Panics if the slot is already occupied.
    pub fn install<C: Component + 'static>(&mut self, id: ComponentId, component: C) {
        let slot = &mut self.components[id.index()];
        assert!(
            slot.is_none(),
            "component slot {} ({}) already installed",
            id,
            self.names[id.index()]
        );
        *slot = Some(Box::new(component));
    }

    /// Number of registered (or reserved) components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Schedules `payload` for delivery to `dst` at absolute time `at`,
    /// attributed to no sender. Used to seed the initial events of a
    /// scenario.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_at<P: Payload>(&mut self, at: SimTime, dst: ComponentId, payload: P) {
        assert!(at >= self.now, "cannot schedule into the past");
        let seq = self.seq;
        self.seq += 1;
        let msg = Msg::new(ComponentId::INVALID, payload);
        self.calendar.push(Scheduled::new(at, seq, dst, msg));
    }

    /// Schedules `payload` for immediate delivery to `dst` (at the current
    /// time, after already-pending same-time events).
    pub fn kickoff<P: Payload>(&mut self, dst: ComponentId, payload: P) {
        self.schedule_at(self.now, dst, payload);
    }

    /// Delivers the next message — plus, in the same component borrow,
    /// any immediately following messages with the same timestamp and
    /// destination (batched dispatch: a fan-in burst costs one
    /// take/restore, not one per message). Returns `false` when the
    /// calendar is empty.
    ///
    /// Batching preserves the exact unbatched delivery order: the
    /// batched messages are precisely the next heads of the calendar,
    /// and anything a handler schedules carries a later sequence number
    /// than every already-pending same-time event, so it sorts after
    /// the whole batch either way.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.calendar.pop() else {
            return false;
        };
        debug_assert!(ev.time >= self.now, "calendar produced a past event");
        let dst = ev.dst();
        self.now = ev.time;
        self.delivered += 1;

        let mut component = self.components[dst.index()].take().unwrap_or_else(|| {
            panic!(
                "message {:?} delivered to vacant component {} ({}); reserved but never installed, \
                 or a component sent itself a message while being dispatched re-entrantly",
                ev.msg,
                dst,
                self.names[dst.index()]
            )
        });

        let mut out = std::mem::take(&mut self.scratch_out);
        {
            let mut ctx = Ctx {
                now: self.now,
                self_id: dst,
                out: &mut out,
                world: &mut self.world,
            };
            deliver(
                &mut *component,
                &mut ctx,
                ev.msg,
                self.profile.as_deref_mut(),
            );
            while let Some(next) = self.calendar.pop_if(ev.time, dst) {
                self.delivered += 1;
                self.batched += 1;
                deliver(
                    &mut *component,
                    &mut ctx,
                    next.msg,
                    self.profile.as_deref_mut(),
                );
            }
        }
        self.components[dst.index()] = Some(component);

        for (time, dst, msg) in out.drain(..) {
            let seq = self.seq;
            self.seq += 1;
            self.calendar.push(Scheduled::new(time, seq, dst, msg));
        }
        self.scratch_out = out;
        true
    }

    /// Runs until the calendar is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs until the calendar is empty or the clock passes `deadline`.
    /// Events at exactly `deadline` are still delivered. Returns the number
    /// of events delivered by this call.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let before = self.delivered;
        // The bounded peek answers "is the head at or before the
        // deadline" without materializing wheel windows beyond it, so a
        // standing far-future timer population costs this loop nothing.
        while let Some(head_time) = self.calendar.peek_time_through(deadline) {
            debug_assert!(head_time <= deadline);
            // `step` pops exactly the head the peek surfaced — the
            // calendar cannot reorder between the peek and the pop.
            let stepped = self.step();
            debug_assert!(stepped, "peeked head must be deliverable");
        }
        // Advance the clock to the deadline even if we ran dry early, so
        // utilization denominators are well defined.
        if self.now < deadline {
            self.now = deadline;
        }
        self.delivered - before
    }

    /// Whether any events remain pending.
    pub fn is_idle(&self) -> bool {
        self.calendar.is_empty()
    }
}

/// Hands one message to its component, timing the call when the host
/// profile is on.
#[inline]
fn deliver(
    component: &mut dyn Component,
    ctx: &mut Ctx<'_>,
    msg: Msg,
    profile: Option<&mut HostProfile>,
) {
    match profile {
        None => component.handle(ctx, msg),
        Some(profile) => {
            let payload = msg.type_name();
            let start = host_clock();
            component.handle(ctx, msg);
            profile.record(ctx.self_id, payload, start.elapsed());
        }
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("pending", &self.calendar.len())
            .field("components", &self.components.len())
            .field("delivered", &self.delivered)
            .finish()
    }
}

/// The interface a component uses to act on the simulation while handling a
/// message: read the clock, schedule messages, touch shared state.
pub struct Ctx<'a> {
    now: SimTime,
    self_id: ComponentId,
    out: &'a mut Vec<(SimTime, ComponentId, Msg)>,
    world: &'a mut World,
}

impl Ctx<'_> {
    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the component currently handling the message.
    #[inline]
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// Shared world state.
    #[inline]
    pub fn world(&mut self) -> &mut World {
        self.world
    }

    /// Read-only shared world state.
    #[inline]
    pub fn world_ref(&self) -> &World {
        self.world
    }

    /// Marks, now, the end of request `req`'s `category` phase in its
    /// latency anatomy (`world.obs`; a no-op while recording is off).
    #[inline]
    pub fn mark(&mut self, req: u64, category: Category) {
        self.world.obs.mark(req, category, self.now);
    }

    /// Schedules `payload` for delivery to `dst` after `delay` nanoseconds.
    pub fn send_in<P: Payload>(&mut self, delay: u64, dst: ComponentId, payload: P) {
        let msg = Msg::new(self.self_id, payload);
        self.out.push((self.now + delay, dst, msg));
    }

    /// Schedules `payload` for delivery to `dst` at the current time (after
    /// already-pending same-time events).
    pub fn send_now<P: Payload>(&mut self, dst: ComponentId, payload: P) {
        self.send_in(0, dst, payload);
    }

    /// Schedules `payload` for delivery to `dst` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn send_at<P: Payload>(&mut self, at: SimTime, dst: ComponentId, payload: P) {
        assert!(at >= self.now, "cannot schedule into the past");
        let msg = Msg::new(self.self_id, payload);
        self.out.push((at, dst, msg));
    }

    /// Schedules a wakeup for this component after `delay` nanoseconds.
    pub fn send_self_in<P: Payload>(&mut self, delay: u64, payload: P) {
        let dst = self.self_id;
        self.send_in(delay, dst, payload);
    }

    /// Forwards an existing message (preserving its original sender) to
    /// another component after `delay`.
    pub fn forward_in(&mut self, delay: u64, dst: ComponentId, msg: Msg) {
        self.out.push((self.now + delay, dst, msg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::us;

    #[derive(Debug)]
    struct Tick(u64);

    /// Records the order in which ticks arrive.
    struct Recorder {
        seen: Vec<u64>,
        log_id: ComponentId,
    }
    impl Component for Recorder {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            let t = msg
                .downcast::<Tick>()
                .expect("recorder only receives ticks");
            self.seen.push(t.0);
            ctx.world().stats.counter("ticks").add(1);
            // also prove send_now works without recursion issues
            if t.0 == 99 {
                ctx.send_now(self.log_id, Tick(100));
            }
        }
    }

    /// A component that relays to a peer with a fixed delay.
    struct Relay {
        peer: ComponentId,
        delay: u64,
    }
    impl Component for Relay {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            let t = msg.downcast::<Tick>().expect("relay only receives ticks");
            ctx.send_in(self.delay, self.peer, Tick(t.0 + 1));
        }
    }

    #[test]
    fn same_time_events_deliver_in_schedule_order() {
        let mut sim = Simulator::new(0);
        let rec = sim.reserve("rec");
        sim.install(
            rec,
            Recorder {
                seen: vec![],
                log_id: rec,
            },
        );
        for i in 0..5 {
            sim.schedule_at(SimTime::from_us(1), rec, Tick(i));
        }
        sim.run();
        // All five land at t=1us; order must match scheduling order.
        assert_eq!(sim.now(), SimTime::from_us(1));
        assert_eq!(sim.world().stats.counter_value("ticks"), 5);
    }

    #[test]
    fn relay_chain_advances_clock() {
        let mut sim = Simulator::new(0);
        let rec_id = sim.reserve("rec");
        let relay = sim.add(
            "relay",
            Relay {
                peer: rec_id,
                delay: us(5),
            },
        );
        sim.install(
            rec_id,
            Recorder {
                seen: vec![],
                log_id: rec_id,
            },
        );
        sim.kickoff(relay, Tick(1));
        sim.run();
        assert_eq!(sim.now(), SimTime::from_us(5));
        assert_eq!(sim.delivered_events(), 2);
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let mut sim = Simulator::new(0);
        let rec = sim.reserve("rec");
        sim.install(
            rec,
            Recorder {
                seen: vec![],
                log_id: rec,
            },
        );
        sim.schedule_at(SimTime::from_us(10), rec, Tick(0));
        sim.schedule_at(SimTime::from_us(30), rec, Tick(1));
        let n = sim.run_until(SimTime::from_us(20));
        assert_eq!(n, 1);
        assert_eq!(sim.now(), SimTime::from_us(20));
        assert!(!sim.is_idle());
        sim.run();
        assert_eq!(sim.now(), SimTime::from_us(30));
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut sim = Simulator::new(0);
        sim.run_until(SimTime::from_ms(3));
        assert_eq!(sim.now(), SimTime::from_ms(3));
    }

    #[test]
    fn run_until_same_time_events_straddling_deadline() {
        // Regression for the peek/step double-pop hazard: several
        // events at exactly the deadline plus events just beyond it.
        // Every at-deadline event (including ones scheduled *during*
        // the run at the deadline) must deliver; nothing beyond may.
        struct Echo;
        #[derive(Debug)]
        struct AtDeadline(bool);
        impl Component for Echo {
            fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
                let m = msg.downcast::<AtDeadline>().expect("echo payload");
                ctx.world().stats.counter("echo").add(1);
                if m.0 {
                    // Schedule another event at the very same instant;
                    // run_until must still pick it up.
                    ctx.send_now(ctx.self_id(), AtDeadline(false));
                }
            }
        }
        let mut sim = Simulator::new(0);
        let e = sim.add("echo", Echo);
        let deadline = SimTime::from_us(10);
        for _ in 0..3 {
            sim.schedule_at(deadline, e, AtDeadline(true));
        }
        sim.schedule_at(deadline + 1, e, AtDeadline(false));
        sim.schedule_at(SimTime::from_us(20), e, AtDeadline(false));
        let n = sim.run_until(deadline);
        // 3 seeded at the deadline + 3 echoed at the deadline.
        assert_eq!(n, 6);
        assert_eq!(sim.now(), deadline);
        assert_eq!(sim.peek_time(), Some(deadline + 1));
        sim.run();
        assert_eq!(sim.world().stats.counter_value("echo"), 8);
    }

    #[test]
    fn batched_dispatch_preserves_order_and_counts() {
        let mut sim = Simulator::new(0);
        let rec = sim.reserve("rec");
        sim.install(
            rec,
            Recorder {
                seen: vec![],
                log_id: rec,
            },
        );
        let other = sim.add(
            "other",
            Recorder {
                seen: vec![],
                log_id: rec,
            },
        );
        // A same-time burst to `rec` split by one event to `other`.
        for i in 0..4 {
            sim.schedule_at(SimTime::from_us(1), rec, Tick(i));
        }
        sim.schedule_at(SimTime::from_us(1), other, Tick(90));
        for i in 4..6 {
            sim.schedule_at(SimTime::from_us(1), rec, Tick(i));
        }
        sim.run();
        assert_eq!(sim.delivered_events(), 7);
        // First burst batches 3 behind its head; trailing pair batches 1.
        assert_eq!(sim.batched_events(), 4);
        // Both components are Recorders; every delivery ticks the counter.
        assert_eq!(sim.world().stats.counter_value("ticks"), 7);
    }

    #[test]
    #[should_panic(expected = "vacant component")]
    fn message_to_reserved_but_uninstalled_slot_panics() {
        let mut sim = Simulator::new(0);
        let ghost = sim.reserve("ghost");
        sim.kickoff(ghost, Tick(0));
        sim.run();
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run_once() -> (u64, u64) {
            let mut sim = Simulator::new(7);
            let rec_id = sim.reserve("rec");
            let relay = sim.add(
                "relay",
                Relay {
                    peer: rec_id,
                    delay: 17,
                },
            );
            sim.install(
                rec_id,
                Recorder {
                    seen: vec![],
                    log_id: rec_id,
                },
            );
            for i in 0..100 {
                let jitter = sim.world_mut().rng.gen_range(0..1000);
                sim.schedule_at(SimTime::from_nanos(jitter), relay, Tick(i));
            }
            sim.run();
            (sim.now().as_nanos(), sim.delivered_events())
        }
        assert_eq!(run_once(), run_once());
    }
}
