//! Event calendars: the hierarchical timing-wheel scheduler that drives
//! the hot path, and the binary-heap reference model it is proven
//! against.
//!
//! The simulator needs one operation mix done fast: insert events keyed
//! by `(time, seq)`, and drain them in strictly ascending key order. A
//! `BinaryHeap` does both in `O(log n)` with cache-hostile sifts, and
//! `n` includes every pending far-future timer (watchdogs, heartbeats,
//! retransmission deadlines) even though those are popped rarely. The
//! [`TimingWheel`] splits the calendar into three tiers instead:
//!
//! * **current slot** — a sorted [`VecDeque`] holding every pending
//!   event whose time falls at or before the end of the current
//!   [`SLOT_SPAN`]-ns window. Pops are `pop_front` (`O(1)`), same-time
//!   inserts append at the back (`O(1)`), and other near inserts are a
//!   binary-search splice.
//! * **near wheel** — [`WHEEL_SLOTS`] ring slots of [`SLOT_SPAN`] ns
//!   each (~[`NEAR_HORIZON_NS`] ns of horizon). Inserts are `O(1)`
//!   appends; a slot is sorted once, when it becomes current. A bitmap
//!   finds the next occupied slot without scanning empties one by one.
//! * **far tier** — a small heap for events beyond the wheel horizon.
//!   Slow timers live here without taxing every near-future operation;
//!   they migrate into the wheel as the horizon slides over them.
//!
//! **Ordering invariant.** Every event is keyed by `(time, seq)` with
//! `seq` unique and monotone, so the total order is strict and the
//! per-slot `sort_unstable_by` is deterministic. The tiers partition
//! the key space by time — current slot < ring slots < far tier — so
//! the globally smallest key is always at the front of the current
//! slot once [`TimingWheel::materialize`] has run. The equivalence
//! harness (`crates/sim/tests/scheduler_equiv.rs`, root
//! `tests/scheduler_equiv.rs`) replays randomized and adversarial
//! schedules through both this wheel and [`HeapCalendar`] and asserts
//! byte-identical delivery.
//!
//! **Pooling invariant.** Slot buffers are recycled in place: draining
//! swaps the slot's `VecDeque` with the (empty, capacity-retaining)
//! current buffer, so after the first revolution a steady-state
//! workload allocates nothing per event beyond the `Msg` payload box
//! itself.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::component::ComponentId;
use crate::event::Msg;
use crate::time::SimTime;

/// Log2 of the nanoseconds covered by one wheel slot.
const SLOT_SHIFT: u32 = 9;
/// Width of one wheel slot: 512 ns — fine enough that a slot holds a
/// burst, not an epoch, at the event densities the testbeds produce.
pub(crate) const SLOT_SPAN: u64 = 1 << SLOT_SHIFT;
/// Number of ring slots (power of two). Deliberately small: the ring's
/// resident footprint (headers + pooled buffers) is what the dispatch
/// loop drags through cache every revolution, and sparse workloads pay
/// for empty breadth without getting anything back. 128 slots keep the
/// whole ring a few tens of KiB; everything past the horizon is the far
/// tier's problem and costs one migration, once.
pub(crate) const WHEEL_SLOTS: usize = 1 << 7;
const WHEEL_MASK: u64 = WHEEL_SLOTS as u64 - 1;
/// The wheel horizon: ~65.5 µs. Device-latency events (ns–µs) stay in
/// the ring; slower timers (heartbeats, watchdogs, request timeouts)
/// overflow to the far tier. Public so a component that books a deep
/// queue ahead (the NIC wire) can keep its bookings inside the ring.
pub const NEAR_HORIZON_NS: u64 = (WHEEL_SLOTS as u64) << SLOT_SHIFT;

/// A message waiting on the calendar. Its destination rides in the
/// message's own padding beside the sender, which keeps an entry at 56
/// bytes with the payload's type tag.
pub(crate) struct Scheduled {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    pub(crate) msg: Msg,
}

const _: () = assert!(
    std::mem::size_of::<Scheduled>() <= 56,
    "a calendar entry outgrew 56 bytes"
);

impl Scheduled {
    /// `msg`, due at `time` for `dst`, `seq`-th in scheduling order.
    #[inline]
    pub(crate) fn new(time: SimTime, seq: u64, dst: ComponentId, mut msg: Msg) -> Scheduled {
        msg.dst = dst;
        Scheduled { time, seq, msg }
    }

    /// The component the message is for.
    #[inline]
    pub(crate) fn dst(&self) -> ComponentId {
        self.msg.dst
    }

    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // (time, seq) — seq breaks ties so same-time events keep their
        // scheduling order, which is what makes the simulation
        // deterministic.
        self.key().cmp(&other.key())
    }
}

/// The calendar behind a [`Simulator`](crate::Simulator): the timing
/// wheel in production, or the heap reference model when a test asked
/// for it via `Simulator::set_reference_heap`.
pub(crate) enum Calendar {
    Wheel(TimingWheel),
    Heap(HeapCalendar),
}

impl Calendar {
    #[inline]
    pub(crate) fn push(&mut self, ev: Scheduled) {
        match self {
            Calendar::Wheel(w) => w.push(ev),
            Calendar::Heap(h) => h.push(ev),
        }
    }

    #[inline]
    pub(crate) fn pop(&mut self) -> Option<Scheduled> {
        match self {
            Calendar::Wheel(w) => w.pop(),
            Calendar::Heap(h) => h.pop(),
        }
    }

    /// The next event, but only if it matches the `(time, dst)` of the
    /// event just popped — the batched-dispatch fast path.
    #[inline]
    pub(crate) fn pop_if(&mut self, time: SimTime, dst: ComponentId) -> Option<Scheduled> {
        match self {
            Calendar::Wheel(w) => w.pop_if(time, dst),
            Calendar::Heap(h) => h.pop_if(time, dst),
        }
    }

    #[inline]
    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        match self {
            Calendar::Wheel(w) => w.peek_time(),
            Calendar::Heap(h) => h.peek_time(),
        }
    }

    /// The head's time, but only if it is `<= limit` — the
    /// deadline-bounded peek `run_until` is built on. Observationally
    /// identical to `peek_time().filter(|t| t <= limit)` on both
    /// calendars; on the wheel it additionally avoids materializing
    /// windows beyond the deadline.
    #[inline]
    pub(crate) fn peek_time_through(&mut self, limit: SimTime) -> Option<SimTime> {
        match self {
            Calendar::Wheel(w) => w.peek_time_through(limit),
            Calendar::Heap(h) => h.peek_time().filter(|&t| t <= limit),
        }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        match self {
            Calendar::Wheel(w) => w.len(),
            Calendar::Heap(h) => h.len(),
        }
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn name(&self) -> &'static str {
        match self {
            Calendar::Wheel(_) => "timing-wheel",
            Calendar::Heap(_) => "reference-heap",
        }
    }
}

/// The hierarchical timing-wheel / calendar-queue scheduler.
///
/// See the [module docs](self) for the tier layout and invariants.
pub(crate) struct TimingWheel {
    /// Ring slots; slot `i` holds events whose time `t` satisfies
    /// `(t >> SLOT_SHIFT) & WHEEL_MASK == i` and lies within the
    /// horizon. Unsorted until the slot becomes current.
    slots: Vec<VecDeque<Scheduled>>,
    /// One bit per slot: set iff the slot is non-empty.
    occupied: [u64; WHEEL_SLOTS / 64],
    /// Events currently in ring slots.
    ring_len: usize,
    /// The current-slot buffer, ascending by `(time, seq)`. Also
    /// absorbs any event scheduled at or before the current window's
    /// end — including behind `cur_start` when a `peek_time` has
    /// materialized ahead of the engine clock.
    cur: VecDeque<Scheduled>,
    /// Slot-aligned start of the current window. Monotone.
    cur_start: u64,
    /// Last nanosecond of the current window, inclusive
    /// (`cur_start + SLOT_SPAN - 1`). Cached so the push tier check is
    /// two `u64` compares, no horizon arithmetic.
    cur_last: u64,
    /// Last nanosecond covered by the ring, inclusive, saturating at
    /// `u64::MAX` (where every representable time is within the
    /// horizon, which is exactly what saturation expresses).
    wheel_last: u64,
    /// Events beyond the wheel horizon, min-first.
    far: BinaryHeap<Reverse<Scheduled>>,
    /// Total pending events across all three tiers.
    len: usize,
}

impl TimingWheel {
    pub(crate) fn new() -> Self {
        // Pre-size every slot for a typical burst and touch the buffer
        // once: first use on the hot path must neither realloc nor take
        // the page fault for a cold arena page (construction is off the
        // measured path; slot growth beyond this is pooled thereafter).
        let slots = (0..WHEEL_SLOTS)
            .map(|_| {
                let mut s = VecDeque::with_capacity(8);
                s.push_back(Scheduled::new(
                    SimTime::ZERO,
                    0,
                    ComponentId(0),
                    Msg::new(ComponentId::INVALID, ()),
                ));
                s.clear();
                s
            })
            .collect();
        TimingWheel {
            slots,
            occupied: [0; WHEEL_SLOTS / 64],
            ring_len: 0,
            cur: VecDeque::new(),
            cur_start: 0,
            cur_last: SLOT_SPAN - 1,
            wheel_last: NEAR_HORIZON_NS - 1,
            far: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Moves the window to the slot starting at `start` (slot-aligned)
    /// and refreshes the cached bounds.
    #[inline]
    fn set_window(&mut self, start: u64) {
        debug_assert_eq!(start & (SLOT_SPAN - 1), 0);
        self.cur_start = start;
        self.cur_last = start + (SLOT_SPAN - 1);
        self.wheel_last = start.saturating_add(NEAR_HORIZON_NS - 1);
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Ring index of the current window.
    #[inline]
    fn pos(&self) -> usize {
        ((self.cur_start >> SLOT_SHIFT) & WHEEL_MASK) as usize
    }

    #[inline]
    fn set_bit(&mut self, idx: usize) {
        self.occupied[idx >> 6] |= 1u64 << (idx & 63);
    }

    #[inline]
    fn clear_bit(&mut self, idx: usize) {
        self.occupied[idx >> 6] &= !(1u64 << (idx & 63));
    }

    pub(crate) fn push(&mut self, ev: Scheduled) {
        let t = ev.time.as_nanos();
        self.len += 1;
        // Tier selection against the cached inclusive bounds. Both are
        // exact out to `u64::MAX` times (the equivalence harness
        // schedules there): `cur_last` never overflows because
        // `cur_start` is slot-aligned, and `wheel_last` saturates only
        // when the true horizon exceeds every representable time.
        if t <= self.cur_last {
            // Current window (or behind a materialized-ahead window).
            // Steady state — a handler scheduling at or after the event
            // being delivered — appends at the back in O(1); anything
            // arriving out of order splices by binary search, and
            // `VecDeque::insert` shifts whichever side is shorter.
            let key = (ev.time, ev.seq);
            match self.cur.back() {
                Some(back) if back.key() > key => {
                    let at = self.cur.partition_point(|e| e.key() < key);
                    self.cur.insert(at, ev);
                }
                _ => self.cur.push_back(ev),
            }
        } else if t <= self.wheel_last {
            // Near wheel: O(1) append; the slot index is derived from
            // absolute time bits, so it needs no per-event distance
            // arithmetic. `t > cur_last` guarantees the slot is ahead
            // of the current one.
            let idx = ((t >> SLOT_SHIFT) & WHEEL_MASK) as usize;
            self.slots[idx].push_back(ev);
            self.set_bit(idx);
            self.ring_len += 1;
        } else {
            self.far.push(Reverse(ev));
        }
    }

    pub(crate) fn pop(&mut self) -> Option<Scheduled> {
        if !self.materialize() {
            return None;
        }
        self.len -= 1;
        self.cur.pop_front()
    }

    pub(crate) fn pop_if(&mut self, time: SimTime, dst: ComponentId) -> Option<Scheduled> {
        // Every pending event sharing `time` lives in `cur` (same-time
        // means same window, and the window was materialized to pop the
        // event this one is batched behind), so no tier scan is needed.
        let head = self.cur.front()?;
        if head.time == time && head.dst() == dst {
            self.len -= 1;
            self.cur.pop_front()
        } else {
            None
        }
    }

    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        if !self.materialize() {
            return None;
        }
        self.cur.front().map(|e| e.time)
    }

    /// [`peek_time`](Self::peek_time) bounded by `limit`: returns the
    /// head's time only if it is `<= limit`, and — crucially — refuses
    /// to slide the window past `limit` to find out. A deadline-bounded
    /// `run_until` loop that drains and re-arms the same near-future
    /// window therefore never drags far-tier timers into the ring; a
    /// standing population of pending timeouts costs it nothing.
    pub(crate) fn peek_time_through(&mut self, limit: SimTime) -> Option<SimTime> {
        let limit_ns = limit.as_nanos();
        loop {
            if let Some(head) = self.cur.front() {
                return if head.time <= limit {
                    Some(head.time)
                } else {
                    None
                };
            }
            if self.len == 0 {
                return None;
            }
            if self.ring_len > 0 {
                let k = self.next_occupied_distance();
                // Slot-aligned lower bound on every ring event; no
                // overflow because the occupied slot holds a real
                // `u64` time at or past this start.
                if self.cur_start + ((k as u64) << SLOT_SHIFT) > limit_ns {
                    return None;
                }
                self.advance_to_ring_slot(k);
            } else {
                // Ring empty: the far head is the global minimum.
                let head_t = match self.far.peek() {
                    Some(Reverse(ev)) => ev.time.as_nanos(),
                    None => unreachable!("non-empty calendar with empty tiers"),
                };
                if head_t > limit_ns {
                    return None;
                }
                self.jump_to_far_head(head_t);
            }
        }
    }

    /// Ensures the globally smallest pending event sits at
    /// `cur.front()`. Returns `false` iff the calendar is empty.
    fn materialize(&mut self) -> bool {
        while self.cur.is_empty() {
            if self.len == 0 {
                return false;
            }
            self.advance();
        }
        true
    }

    /// Moves the current window forward to the next tier content:
    /// either the next occupied ring slot, or (empty ring) a jump to
    /// the far tier's head window. Called only with `cur` empty and at
    /// least one event pending.
    fn advance(&mut self) {
        if self.ring_len == 0 {
            let head_t = match self.far.peek() {
                Some(Reverse(ev)) => ev.time.as_nanos(),
                None => unreachable!("advance called on an empty calendar"),
            };
            self.jump_to_far_head(head_t);
        } else {
            let k = self.next_occupied_distance();
            self.advance_to_ring_slot(k);
        }
    }

    /// Advances the window `k` slots to the next occupied ring slot and
    /// drains it into `cur`.
    fn advance_to_ring_slot(&mut self, k: usize) {
        self.set_window(self.cur_start + ((k as u64) << SLOT_SHIFT));
        let idx = self.pos();
        std::mem::swap(&mut self.cur, &mut self.slots[idx]);
        self.clear_bit(idx);
        self.ring_len -= self.cur.len();
        self.finish_window();
    }

    /// Jumps the window straight to the slot of the earliest far event
    /// (`head_t`, pre-peeked by the caller); the refill then lands it
    /// (and any horizon-mates) in `cur` / the ring.
    fn jump_to_far_head(&mut self, head_t: u64) {
        self.set_window(head_t & !(SLOT_SPAN - 1));
        self.finish_window();
    }

    /// Refills from the far tier and sorts the freshly current window.
    fn finish_window(&mut self) {
        self.refill_from_far();
        // Sort the drained slot once. Keys are unique, so the unstable
        // sort is deterministic.
        self.cur.make_contiguous().sort_unstable_by_key(|a| a.key());
    }

    /// Slides far-tier events that the advanced horizon now covers into
    /// the wheel (or straight into `cur` for the current window).
    fn refill_from_far(&mut self) {
        while let Some(Reverse(head)) = self.far.peek() {
            let t = head.time.as_nanos();
            if t > self.wheel_last {
                break;
            }
            let Some(Reverse(ev)) = self.far.pop() else {
                break;
            };
            if t <= self.cur_last {
                self.cur.push_back(ev); // sorted by the caller
            } else {
                let idx = ((t >> SLOT_SHIFT) & WHEEL_MASK) as usize;
                self.slots[idx].push_back(ev);
                self.set_bit(idx);
                self.ring_len += 1;
            }
        }
    }

    /// Distance (in slots, `1..WHEEL_SLOTS`) from the current position
    /// to the next occupied ring slot, scanning the occupancy bitmap a
    /// word at a time. Caller guarantees `ring_len > 0`; the current
    /// slot's own bit is always clear.
    fn next_occupied_distance(&self) -> usize {
        let pos = self.pos();
        let mask = WHEEL_SLOTS - 1;
        let mut idx = (pos + 1) & mask;
        let mut scanned = 0usize;
        loop {
            let word = self.occupied[idx >> 6] >> (idx & 63);
            if word != 0 {
                let found = idx + word.trailing_zeros() as usize;
                return (found + WHEEL_SLOTS - pos) & mask;
            }
            // Skip to the start of the next bitmap word.
            idx = ((idx >> 6) + 1) << 6;
            idx &= mask;
            scanned += 1;
            debug_assert!(
                scanned <= WHEEL_SLOTS / 64 + 1,
                "occupancy bitmap scan found no slot with ring_len={}",
                self.ring_len
            );
        }
    }
}

/// The original `BinaryHeap` calendar, kept as the reference model the
/// timing wheel is proven observationally identical to. Demoted from
/// the hot path; reachable only through the `#[doc(hidden)]`
/// `Simulator::set_reference_heap`, which the scheduler-equivalence and
/// determinism suites use to replay full workloads on both schedulers.
#[derive(Default)]
pub(crate) struct HeapCalendar {
    heap: BinaryHeap<Reverse<Scheduled>>,
}

impl HeapCalendar {
    #[inline]
    pub(crate) fn push(&mut self, ev: Scheduled) {
        self.heap.push(Reverse(ev));
    }

    #[inline]
    pub(crate) fn pop(&mut self) -> Option<Scheduled> {
        self.heap.pop().map(|Reverse(ev)| ev)
    }

    pub(crate) fn pop_if(&mut self, time: SimTime, dst: ComponentId) -> Option<Scheduled> {
        match self.heap.peek() {
            Some(Reverse(head)) if head.time == time && head.dst() == dst => self.pop(),
            _ => None,
        }
    }

    #[inline]
    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(ev)| ev.time)
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn ev(time: u64, seq: u64) -> Scheduled {
        Scheduled::new(
            SimTime::from_nanos(time),
            seq,
            ComponentId(0),
            Msg::new(ComponentId::INVALID, ()),
        )
    }

    /// Drains a wheel and a heap loaded with the same events and
    /// asserts identical pop order.
    fn assert_equivalent_drain(events: Vec<(u64, u64)>) {
        let mut wheel = TimingWheel::new();
        let mut heap = HeapCalendar::default();
        for &(t, s) in &events {
            wheel.push(ev(t, s));
            heap.push(ev(t, s));
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            match (&a, &b) {
                (Some(x), Some(y)) => assert_eq!(x.key(), y.key()),
                (None, None) => break,
                _ => panic!("wheel and heap drained different counts"),
            }
        }
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn drains_in_time_seq_order_across_tiers() {
        // One event per tier-interesting region: current slot, mid
        // ring, just inside horizon, far beyond, and slot boundaries.
        assert_equivalent_drain(vec![
            (0, 0),
            (SLOT_SPAN - 1, 1),
            (SLOT_SPAN, 2),
            (SLOT_SPAN * 3, 3),
            (NEAR_HORIZON_NS - 1, 4),
            (NEAR_HORIZON_NS, 5),
            (NEAR_HORIZON_NS * 7 + 13, 6),
            (5, 7),
        ]);
    }

    #[test]
    fn same_time_events_pop_in_seq_order() {
        let mut wheel = TimingWheel::new();
        for s in 0..100 {
            wheel.push(ev(1_000, s));
        }
        for s in 0..100 {
            assert_eq!(wheel.pop().unwrap().seq, s);
        }
    }

    #[test]
    fn randomized_drain_matches_heap() {
        let mut rng = Rng::new(0xCA1E17DA);
        for _ in 0..50 {
            let n = rng.gen_range(1..400) as usize;
            let mut seq = 0u64;
            let events: Vec<(u64, u64)> = (0..n)
                .map(|_| {
                    // Mix of near, horizon-straddling, and far times,
                    // with frequent exact collisions.
                    let t = match rng.gen_range(0..5) {
                        0 => rng.gen_range(0..SLOT_SPAN),
                        1 => rng.gen_range(0..NEAR_HORIZON_NS),
                        2 => (rng.gen_range(0..64)) * SLOT_SPAN, // boundaries
                        3 => rng.gen_range(0..32) * 1_000,       // collisions
                        _ => rng.gen_range(0..u64::MAX >> 1),
                    };
                    seq += 1;
                    (t, seq)
                })
                .collect();
            assert_equivalent_drain(events);
        }
    }

    #[test]
    fn interleaved_push_pop_matches_heap() {
        // Pushes interleaved with pops, always scheduling at or after
        // the last popped time (the engine's contract).
        let mut rng = Rng::new(0x1A7E12);
        for _ in 0..30 {
            let mut wheel = TimingWheel::new();
            let mut heap = HeapCalendar::default();
            let mut seq = 0u64;
            let mut now = 0u64;
            let push_both =
                |wheel: &mut TimingWheel, heap: &mut HeapCalendar, t: u64, seq: &mut u64| {
                    wheel.push(ev(t, *seq));
                    heap.push(ev(t, *seq));
                    *seq += 1;
                };
            for _ in 0..40 {
                push_both(&mut wheel, &mut heap, now, &mut seq);
            }
            for _ in 0..400 {
                if rng.gen_range(0..3) == 0 || wheel.len() == 0 {
                    let delay = match rng.gen_range(0..4) {
                        0 => 0,
                        1 => rng.gen_range(0..SLOT_SPAN * 2),
                        2 => rng.gen_range(0..NEAR_HORIZON_NS * 2),
                        _ => SLOT_SPAN * rng.gen_range(0..WHEEL_SLOTS as u64),
                    };
                    push_both(&mut wheel, &mut heap, now.saturating_add(delay), &mut seq);
                } else {
                    let a = wheel.pop().unwrap();
                    let b = heap.pop().unwrap();
                    assert_eq!(a.key(), b.key());
                    now = a.time.as_nanos();
                }
            }
        }
    }

    #[test]
    fn near_u64_max_times_survive() {
        let mut wheel = TimingWheel::new();
        let top = u64::MAX;
        wheel.push(ev(top, 2));
        wheel.push(ev(top - 1, 1));
        wheel.push(ev(0, 0));
        assert_eq!(wheel.pop().unwrap().seq, 0);
        assert_eq!(wheel.pop().unwrap().seq, 1);
        assert_eq!(wheel.pop().unwrap().seq, 2);
        assert!(wheel.pop().is_none());
    }

    #[test]
    fn push_behind_materialized_window_stays_ordered() {
        // peek_time materializes the window of a far event; a later
        // push in between `now` and that window must still pop first.
        let mut wheel = TimingWheel::new();
        wheel.push(ev(NEAR_HORIZON_NS * 3, 0));
        assert_eq!(
            wheel.peek_time(),
            Some(SimTime::from_nanos(NEAR_HORIZON_NS * 3))
        );
        wheel.push(ev(7, 1)); // behind the materialized window
        wheel.push(ev(NEAR_HORIZON_NS * 2, 2));
        assert_eq!(wheel.pop().unwrap().seq, 1);
        assert_eq!(wheel.pop().unwrap().seq, 2);
        assert_eq!(wheel.pop().unwrap().seq, 0);
    }

    #[test]
    fn pop_if_takes_only_matching_head() {
        let mut wheel = TimingWheel::new();
        let t = SimTime::from_nanos(100);
        wheel.push(Scheduled::new(
            t,
            0,
            ComponentId(1),
            Msg::new(ComponentId::INVALID, ()),
        ));
        wheel.push(Scheduled::new(
            t,
            1,
            ComponentId(1),
            Msg::new(ComponentId::INVALID, ()),
        ));
        wheel.push(Scheduled::new(
            t,
            2,
            ComponentId(2),
            Msg::new(ComponentId::INVALID, ()),
        ));
        let first = wheel.pop().unwrap();
        assert_eq!(first.dst(), ComponentId(1));
        // Same time, same dst: batched.
        assert!(wheel.pop_if(t, ComponentId(1)).is_some());
        // Same time, different dst: refused.
        assert!(wheel.pop_if(t, ComponentId(1)).is_none());
        assert_eq!(wheel.pop().unwrap().dst(), ComponentId(2));
    }

    #[test]
    fn slot_buffers_are_recycled() {
        // After a full revolution the wheel must not grow: capacity
        // moves between `cur` and the slots, never leaks.
        let mut wheel = TimingWheel::new();
        let mut seq = 0;
        for round in 0..5u64 {
            for i in 0..200 {
                wheel.push(ev(round * NEAR_HORIZON_NS + i * 17, seq));
                seq += 1;
            }
            while wheel.pop().is_some() {}
        }
        assert_eq!(wheel.len(), 0);
    }
}
