//! Scheduler-equivalence property harness (DESIGN.md §16).
//!
//! The timing-wheel calendar must be *observationally identical* to the
//! binary-heap reference model: same delivery order, same `now()`, same
//! `delivered_events()`, for any legal schedule. This harness drives
//! randomized and adversarial schedules through both calendars — the
//! wheel via `Simulator::new`, the reference via the `#[doc(hidden)]`
//! `Simulator::set_reference_heap` — and compares the full delivery
//! logs. The generator deliberately lands on every boundary the wheel
//! has: same-time ties, the `at == now` past-assert boundary, slot and
//! wheel-revolution rollovers, the far-future overflow tier, and times
//! within a hair of `u64::MAX`.

use dcs_sim::{Component, ComponentId, Ctx, Msg, Rng, SimTime, Simulator};

/// The slot width mirrored from `crates/sim/src/calendar.rs`; it is
/// private to the crate, so the adversarial generator restates it
/// (drifting is harmless — the schedules stay legal, they just stop
/// landing exactly on the boundaries).
const SLOT_SPAN: u64 = 512;
const WHEEL_HORIZON: u64 = dcs_sim::NEAR_HORIZON_NS;

/// Everything observable about one delivery.
#[derive(Debug, PartialEq, Eq, Default)]
struct DeliveryLog(Vec<(u64, u32, u64)>); // (now_ns, dst_index, tick id)

/// How many follow-up sends the chaos components may still make
/// (bounds the run without wall-clock involvement).
#[derive(Debug)]
struct SendBudget(u64);

#[derive(Debug)]
struct Tick(u64);

/// Logs every delivery; never replies. Near-`u64::MAX` events are
/// routed here so follow-up delays cannot overflow the clock.
struct Sink {
    index: u32,
}
impl Component for Sink {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let t = msg.downcast::<Tick>().expect("sink receives ticks");
        let now = ctx.now().as_nanos();
        ctx.world()
            .expect_mut::<DeliveryLog>()
            .0
            .push((now, self.index, t.0));
    }
}

/// Logs every delivery and, budget permitting, fans out follow-up
/// ticks with adversarial delays drawn from the world RNG (identical
/// across both calendars by determinism).
struct Chaos {
    index: u32,
    peers: Vec<ComponentId>,
}
impl Component for Chaos {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let t = msg.downcast::<Tick>().expect("chaos receives ticks");
        let now = ctx.now().as_nanos();
        ctx.world()
            .expect_mut::<DeliveryLog>()
            .0
            .push((now, self.index, t.0));
        let fanout = ctx.world().rng.gen_range(0..4);
        for i in 0..fanout {
            let budget = &mut ctx.world().expect_mut::<SendBudget>().0;
            if *budget == 0 {
                return;
            }
            *budget -= 1;
            let delay = adversarial_delay(&mut ctx.world().rng);
            let peer = self.peers[ctx.world().rng.gen_range(0..self.peers.len() as u64) as usize];
            // Wrapping: ids are lineage tags, not counters, and deep
            // relay chains overflow a ×10 genealogy quickly.
            ctx.send_in(delay, peer, Tick(t.0.wrapping_mul(10).wrapping_add(i)));
        }
    }
}

/// Delays that stress every tier boundary: zero (same-time ties at the
/// `at == now` boundary), sub-slot, exact slot multiples (rollover),
/// around a full wheel revolution, and far-future overflow.
fn adversarial_delay(rng: &mut Rng) -> u64 {
    match rng.gen_range(0..8) {
        0 => 0,
        1 => rng.gen_range(1..SLOT_SPAN),
        2 => SLOT_SPAN * rng.gen_range(1..5),
        3 => SLOT_SPAN - 1 + rng.gen_range(0..3), // straddle a slot edge
        4 => WHEEL_HORIZON - SLOT_SPAN + rng.gen_range(0..2 * SLOT_SPAN),
        5 => WHEEL_HORIZON * rng.gen_range(1..4) + rng.gen_range(0..97),
        6 => rng.gen_range(0..10_000),
        _ => rng.gen_range(0..50_000_000), // ms-scale timers
    }
}

/// Builds the scenario and runs it to completion on one calendar.
/// Returns (delivery log, final now, delivered count).
fn run_scenario(seed: u64, reference_heap: bool) -> (DeliveryLog, SimTime, u64) {
    let mut sim = Simulator::new(seed);
    if reference_heap {
        sim.set_reference_heap();
    }
    sim.world_mut().insert(DeliveryLog::default());
    sim.world_mut().insert(SendBudget(600));

    let chaos_ids: Vec<ComponentId> = (0..6).map(|i| sim.reserve(&format!("chaos{i}"))).collect();
    for (i, id) in chaos_ids.iter().enumerate() {
        sim.install(
            *id,
            Chaos {
                index: i as u32,
                peers: chaos_ids.clone(),
            },
        );
    }
    let sink = sim.add("sink", Sink { index: 99 });

    // Initial schedule: a seeded mix hitting ties, boundaries, the far
    // tier, and the top of the clock. The RNG here is separate from
    // the world RNG so the schedule itself is a pure function of seed.
    let mut gen = Rng::new(seed ^ 0x5EED_5C4E);
    for n in 0..80u64 {
        let at = match gen.gen_range(0..6) {
            0 => 1_000, // a pile of exact ties
            1 => SLOT_SPAN * gen.gen_range(0..4096),
            2 => gen.gen_range(0..WHEEL_HORIZON * 3),
            3 => WHEEL_HORIZON * gen.gen_range(0..8) + gen.gen_range(0..2) * (SLOT_SPAN - 1),
            4 => gen.gen_range(0..200),
            _ => gen.gen_range(0..100_000_000),
        };
        let dst = chaos_ids[gen.gen_range(0..chaos_ids.len() as u64) as usize];
        sim.schedule_at(SimTime::from_nanos(at), dst, Tick(n));
    }
    // The top of the clock: deliverable, but must never fan out (the
    // sink absorbs them), or `now + delay` would overflow.
    for (i, off) in [0u64, 1, 511, 512, 513].iter().enumerate() {
        sim.schedule_at(
            SimTime::from_nanos(u64::MAX - off),
            sink,
            Tick(900 + i as u64),
        );
    }

    sim.run();
    let log = sim.world_mut().remove::<DeliveryLog>().expect("log stays");
    (log, sim.now(), sim.delivered_events())
}

#[test]
fn wheel_matches_heap_reference_across_seeds() {
    for seed in [
        1,
        2,
        3,
        0xDEAD,
        0xBEEF,
        0xD15EA5E,
        42,
        0xFFFF_FFFF,
        0x1234_5678_9ABC,
        7,
        11,
        13,
    ] {
        let (wheel_log, wheel_now, wheel_n) = run_scenario(seed, false);
        let (heap_log, heap_now, heap_n) = run_scenario(seed, true);
        assert!(
            wheel_log.0.len() > 80,
            "seed {seed}: scenario must do real work ({} deliveries)",
            wheel_log.0.len()
        );
        assert_eq!(wheel_log, heap_log, "seed {seed}: delivery order diverged");
        assert_eq!(wheel_now, heap_now, "seed {seed}: final now diverged");
        assert_eq!(wheel_n, heap_n, "seed {seed}: delivered count diverged");
        // The u64-top events really were delivered.
        assert_eq!(wheel_now.as_nanos(), u64::MAX, "seed {seed}");
    }
}

/// Same scenario, driven through `run_until` at randomized deadlines:
/// both calendars must agree on the per-window delivered counts and on
/// `peek_time` at every pause (the peek/step coherence the restructured
/// `run_until` relies on).
#[test]
fn run_until_windows_match_heap_reference() {
    for seed in [5u64, 0xAB, 0xCDEF, 99] {
        let build = |reference: bool| {
            let mut sim = Simulator::new(seed);
            if reference {
                sim.set_reference_heap();
            }
            sim.world_mut().insert(DeliveryLog::default());
            sim.world_mut().insert(SendBudget(300));
            let ids: Vec<ComponentId> = (0..4).map(|i| sim.reserve(&format!("c{i}"))).collect();
            for (i, id) in ids.iter().enumerate() {
                sim.install(
                    *id,
                    Chaos {
                        index: i as u32,
                        peers: ids.clone(),
                    },
                );
            }
            let mut gen = Rng::new(seed ^ 0x00DE_AD11);
            for n in 0..50u64 {
                let at = gen.gen_range(0..WHEEL_HORIZON * 2);
                sim.schedule_at(
                    SimTime::from_nanos(at),
                    ids[gen.gen_range(0..ids.len() as u64) as usize],
                    Tick(n),
                );
            }
            sim
        };
        let mut wheel = build(false);
        let mut heap = build(true);
        let mut gen = Rng::new(seed ^ 0x000E_AD11);
        let mut deadline = 0u64;
        for _ in 0..40 {
            deadline += gen.gen_range(0..WHEEL_HORIZON / 4);
            let d = SimTime::from_nanos(deadline);
            let a = wheel.run_until(d);
            let b = heap.run_until(d);
            assert_eq!(a, b, "seed {seed}: window to {deadline} diverged");
            assert_eq!(wheel.now(), heap.now(), "seed {seed}");
            assert_eq!(wheel.peek_time(), heap.peek_time(), "seed {seed}");
        }
        wheel.run();
        heap.run();
        assert_eq!(
            wheel.world().expect::<DeliveryLog>(),
            heap.world().expect::<DeliveryLog>(),
            "seed {seed}: final logs diverged"
        );
        assert_eq!(wheel.delivered_events(), heap.delivered_events());
    }
}

/// Scheduling at exactly `now` (the past-assert boundary) from outside
/// the dispatch loop, after `run_until` has advanced the clock into a
/// region the wheel may have materialized past.
#[test]
fn schedule_at_now_after_deadline_jump_matches() {
    for seed in [3u64, 17, 0xFACE] {
        let run = |reference: bool| {
            let mut sim = Simulator::new(seed);
            if reference {
                sim.set_reference_heap();
            }
            sim.world_mut().insert(DeliveryLog::default());
            let sink = sim.add("sink", Sink { index: 0 });
            // A far event to materialize toward, then a deadline stop
            // well before it.
            sim.schedule_at(SimTime::from_nanos(WHEEL_HORIZON * 5), sink, Tick(0));
            sim.run_until(SimTime::from_nanos(WHEEL_HORIZON)); // peeks the far head
            assert_eq!(sim.now().as_nanos(), WHEEL_HORIZON);
            // Now schedule behind the materialized window: at `now`
            // exactly, and between `now` and the far event.
            sim.schedule_at(sim.now(), sink, Tick(1));
            sim.schedule_at(SimTime::from_nanos(WHEEL_HORIZON * 2), sink, Tick(2));
            sim.run();
            let log = sim.world_mut().remove::<DeliveryLog>().expect("log");
            (log, sim.now(), sim.delivered_events())
        };
        assert_eq!(run(false), run(true), "seed {seed}");
    }
}
