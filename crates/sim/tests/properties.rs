//! Randomized property tests of the simulation kernel's invariants,
//! driven by the deterministic in-repo [`Rng`] (the container builds
//! offline, so no external property-testing framework is available).

use dcs_sim::{time, Category, Component, Ctx, FifoServer, Msg, Recorder, Rng, SimTime, Simulator};

/// FIFO servers never travel back in time, conserve total service, and
/// serve work-conservingly.
#[test]
fn fifo_server_monotone() {
    let mut rng = Rng::new(0x51_F1F0);
    for _ in 0..128 {
        let n = rng.gen_range(1..200) as usize;
        let mut offers: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.gen_range(0..1_000_000), rng.gen_range(1..10_000)))
            .collect();
        offers.sort_by_key(|(t, _)| *t);
        let mut server = FifoServer::new();
        let mut last_done = SimTime::ZERO;
        let mut total = 0;
        for (t, service) in offers {
            let done = server.offer(SimTime::from_nanos(t), service);
            assert!(done >= last_done, "completions are FIFO-ordered");
            assert!(done.as_nanos() >= t + service);
            last_done = done;
            total += service;
        }
        assert_eq!(server.busy_time(), total);
    }
}

/// The RNG's range sampling stays in bounds and the exponential stays
/// positive.
#[test]
fn rng_bounds() {
    let mut meta = Rng::new(0x51_B07D);
    for _ in 0..128 {
        let seed = meta.next_u64();
        let lo = meta.gen_range(0..1_000);
        let span = meta.gen_range(1..1_000);
        let mut rng = Rng::new(seed);
        for _ in 0..100 {
            let v = rng.gen_range(lo..lo + span);
            assert!((lo..lo + span).contains(&v));
            assert!(rng.gen_exp(50.0) > 0.0);
            let f = rng.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }
}

/// Anatomy marks telescope under any mark sequence, past times
/// included: the per-category sums equal the end-to-end latency.
#[test]
fn anatomy_category_sums_equal_end_to_end() {
    let mut rng = Rng::new(0x51_B12D);
    let cats = Category::ALL;
    for _ in 0..128 {
        let mut rec = Recorder::new();
        rec.enable();
        let begin = rng.gen_range(0..1_000_000);
        rec.req_begin(1, SimTime::from_nanos(begin));
        let mut now = begin;
        for _ in 0..rng.gen_range(0..40) {
            now += rng.gen_range(0..10_000);
            // Some marks land before the previous one.
            let at = now.saturating_sub(rng.gen_range(0..20_000));
            let c = cats[rng.gen_range(0..cats.len() as u64) as usize];
            rec.mark(1, c, SimTime::from_nanos(at));
        }
        now += rng.gen_range(0..10_000);
        rec.req_end(1, Category::Other, SimTime::from_nanos(now));
        let a = rec.anatomy(1).expect("begun");
        assert_eq!(a.total_ns(), Some(now - begin));
        let by_cat: u64 = a.by_category().iter().map(|(_, ns)| ns).sum();
        assert_eq!(by_cat, now - begin);
        assert!(a.segments.iter().all(|&(_, ns)| ns > 0));
        assert!(a.segments.windows(2).all(|w| w[0].0 != w[1].0));
    }
}

/// Event delivery is globally ordered by (time, schedule order): a
/// component observing its own inbox never sees time regress.
#[test]
fn event_ordering() {
    struct Watcher {
        last: SimTime,
    }
    #[derive(Debug)]
    struct Tick;
    impl Component for Watcher {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            msg.downcast::<Tick>().expect("ticks only");
            assert!(ctx.now() >= self.last, "time regressed");
            self.last = ctx.now();
            ctx.world().stats.counter("ticks").add(1);
        }
    }
    let mut rng = Rng::new(0x51_02DE);
    for _ in 0..64 {
        let n = rng.gen_range(1..100) as usize;
        let delays: Vec<u64> = (0..n).map(|_| rng.gen_range(0..10_000)).collect();
        let mut sim = Simulator::new(1);
        let w = sim.add(
            "w",
            Watcher {
                last: SimTime::ZERO,
            },
        );
        for d in &delays {
            sim.schedule_at(SimTime::from_nanos(*d), w, Tick);
        }
        sim.run();
        assert_eq!(
            sim.world().stats.counter_value("ticks"),
            delays.len() as u64
        );
        let max = delays.iter().max().copied().unwrap_or(0);
        assert_eq!(sim.now(), SimTime::ZERO + time::ns(max));
    }
}
