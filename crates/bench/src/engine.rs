//! Engine-speed benchmark: wall-clock events/sec of the simulation
//! kernel, timing wheel vs the `BinaryHeap` reference calendar.
//!
//! ROADMAP item 1's receipts. Four scenarios, each run on both
//! calendars (the heap arm via `Simulator::set_reference_heap`, the
//! same hook the equivalence suites use):
//!
//! * **ping-pong** — two components bouncing one message; the pure
//!   per-event overhead floor (calendar depth 1, nothing to batch).
//! * **fan-out** — same-time bursts to a sink group while a large
//!   standing population of far-future timers (pending request
//!   timeouts, the classic timing-wheel motivation) deepens the
//!   calendar. The heap pays `O(log n)` per push/pop against the full
//!   population; the wheel appends to the current slot in `O(1)` and
//!   drains each burst through batched same-time/same-dst dispatch.
//! * **cluster-8** / **cluster-64** — the real rack workload (open-loop
//!   GET/PUT traffic over the ToR switch) at the old sweep ceiling and
//!   at the scale ROADMAP item 1 asks for.
//!
//! [`collect`] runs every arm [`runs`] times (5 under `--quick`, 11
//! otherwise), alternating which arm of a pair goes first, and reports
//! each arm's median wall time with its quartiles; the speedup is the
//! ratio of the medians. Single-shot arms were unreadable: host noise
//! alone moved cluster-8 between 0.76× and 1.05×.
//!
//! `repro engine --json-out .` writes `BENCH_engine.json`, which also
//! carries the cluster-64 host-time profile (`profile`: component,
//! payload, calls and wall_ns per row, heaviest first). Wall-clock
//! numbers vary across machines, so the committed file is *not*
//! byte-compared; instead `crates/bench/tests/bench_engine_json.rs`
//! checks the schema, regenerates the machine-independent fields
//! (`events`, `sim_ns` — identical on every host by determinism),
//! asserts wheel and heap arms agree on them, and holds the committed
//! fan-out speedup to the ≥5× acceptance floor.

use dcs_cluster::{build_cluster, ClusterConfig, ClusterOutcome};
use dcs_sim::{Component, ComponentId, Ctx, Json, Msg, ProfileRow, SimTime, Simulator};

/// One scenario measured on one calendar.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// Scenario name (`ping-pong`, `fan-out`, `cluster-8`, `cluster-64`).
    pub name: &'static str,
    /// Calendar that ran it (`timing-wheel` / `reference-heap`).
    pub scheduler: &'static str,
    /// Events delivered inside the measured window (machine-independent).
    pub events: u64,
    /// Of those, events delivered by a same-time/same-dst batch.
    pub batched: u64,
    /// Final simulated time of the run, ns (machine-independent).
    pub sim_ns: u64,
    /// Wall-clock time of the measured window, ns; the median when the
    /// result folds several runs.
    pub wall_ns: u64,
    /// Every run's wall time, ns, ascending.
    pub walls: Vec<u64>,
}

impl ScenarioResult {
    /// Quartile `q` of the runs' wall times, ns (`q = 2` is the
    /// median), interpolating linearly between order statistics.
    pub fn wall_quartile(&self, q: u64) -> u64 {
        let w = &self.walls;
        let quarters = (w.len() as u64 - 1) * q;
        let lo = (quarters / 4) as usize;
        let hi = (lo + 1).min(w.len() - 1);
        w[lo] + (w[hi] - w[lo]) * (quarters % 4) / 4
    }

    /// Delivered events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }
}

/// A wheel/heap pair for one scenario.
pub type ScenarioPair = (ScenarioResult, ScenarioResult);

/// Host wall time `f` takes, in ns.
#[expect(
    clippy::disallowed_methods,
    reason = "the benchmark measures host wall time of the kernel itself; nothing feeds back into simulation state"
)]
fn wall_ns_of(f: impl FnOnce()) -> u64 {
    let start = std::time::Instant::now();
    f();
    start.elapsed().as_nanos() as u64
}

#[derive(Debug)]
struct Ball;

/// One side of the ping-pong: return every ball until the rally budget
/// is spent.
struct Pinger {
    peer: ComponentId,
    remaining: u64,
}
impl Component for Pinger {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        msg.downcast::<Ball>().expect("pingers only see balls");
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send_in(100, self.peer, Ball);
        }
    }
}

/// Two components, one message, N bounces: the per-event overhead floor.
pub fn run_ping_pong(quick: bool, reference_heap: bool) -> ScenarioResult {
    let bounces: u64 = if quick { 400_000 } else { 4_000_000 };
    let mut sim = Simulator::new(1);
    if reference_heap {
        sim.set_reference_heap();
    }
    let a = sim.reserve("ping");
    let b = sim.reserve("pong");
    sim.install(
        a,
        Pinger {
            peer: b,
            remaining: bounces / 2,
        },
    );
    sim.install(
        b,
        Pinger {
            peer: a,
            remaining: bounces / 2,
        },
    );
    sim.kickoff(a, Ball);
    let wall_ns = wall_ns_of(|| sim.run());
    ScenarioResult {
        name: "ping-pong",
        scheduler: sim.scheduler_name(),
        events: sim.delivered_events(),
        batched: sim.batched_events(),
        sim_ns: sim.now().as_nanos(),
        wall_ns,
        walls: vec![wall_ns],
    }
}

/// A sink that just consumes the pulse (zero-sized payload: no
/// allocation anywhere on the hot path, so the calendar dominates).
struct Sink;
#[derive(Debug)]
struct Pulse;
impl Component for Sink {
    fn handle(&mut self, _ctx: &mut Ctx<'_>, msg: Msg) {
        msg.downcast::<Pulse>().expect("sinks only see pulses");
    }
}

/// Same-time bursts against a deep calendar of standing timers.
pub fn run_fan_out(quick: bool, reference_heap: bool) -> ScenarioResult {
    // Deep enough that the heap's sift paths fall out of cache even on
    // big-L3 server parts (8M entries ≈ 400 MB): pending timeouts, one
    // per outstanding request, are exactly the population a rack at
    // scale carries. The wheel parks them in the far tier and never
    // touches them — the bounded peek under `run_until` refuses to
    // materialize past the deadline.
    let standing: u64 = if quick { 8_388_608 } else { 16_777_216 };
    let rounds: u64 = if quick { 5_000 } else { 20_000 };
    const SINKS: usize = 4;
    const BURST_PER_SINK: u64 = 32;
    // Far enough out that no standing timer fires inside the run.
    const FAR_BASE: u64 = 1 << 40;

    let mut sim = Simulator::new(2);
    if reference_heap {
        sim.set_reference_heap();
    }
    let sinks: Vec<ComponentId> = (0..SINKS)
        .map(|i| sim.add(&format!("sink{i}"), Sink))
        .collect();
    // The standing population: pending timeouts, one per outstanding
    // request, with scattered deadlines (a sorted population would
    // degenerate the heap's sift-down to one always-warm spine). They
    // never fire — their cost is the depth they add to every push/pop
    // the bursts do. splitmix64 keeps the schedule identical on both
    // arms without touching the world RNG.
    let mut mix = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..standing {
        mix = mix.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = mix;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        sim.schedule_at(
            SimTime::from_nanos(FAR_BASE + (z & ((1 << 29) - 1))),
            sinks[(i as usize) % SINKS],
            Pulse,
        );
    }
    // One burst round: sink-major order, so consecutive sequence
    // numbers share a dst — exactly the shape batched dispatch drains
    // in one component borrow.
    let round = |sim: &mut Simulator, t: u64| {
        for &s in &sinks {
            for _ in 0..BURST_PER_SINK {
                sim.schedule_at(SimTime::from_nanos(t), s, Pulse);
            }
        }
        sim.run_until(SimTime::from_nanos(t));
    };
    // Warm-up: several full wheel revolutions (128 slots each) so the
    // measured window sees the steady state the pooling invariant
    // promises — every slot buffer allocated and recycled in place,
    // nothing allocated per event. The heap arm gets the same warm-up
    // (its backing array reaches final capacity here instead of
    // reallocating mid-measurement).
    let mut t = 1_000u64;
    for _ in 0..512u64 {
        round(&mut sim, t);
        t += 512;
    }
    let delivered0 = sim.delivered_events();
    let batched0 = sim.batched_events();
    let wall_ns = wall_ns_of(|| {
        for _ in 0..rounds {
            round(&mut sim, t);
            t += 512;
        }
    });
    ScenarioResult {
        name: "fan-out",
        scheduler: sim.scheduler_name(),
        events: sim.delivered_events() - delivered0,
        batched: sim.batched_events() - batched0,
        sim_ns: sim.now().as_nanos(),
        wall_ns,
        walls: vec![wall_ns],
    }
}

fn cluster_config(nodes: usize, quick: bool) -> ClusterConfig {
    ClusterConfig {
        nodes,
        offered_gbps_per_node: 2.0,
        duration_ns: dcs_sim::time::ms(if quick { 3 } else { 12 }),
        warmup_ns: dcs_sim::time::ms(1),
        seed: 0xE26 + nodes as u64,
        ..ClusterConfig::default()
    }
}

/// The rack workload at `nodes` nodes: open-loop GET/PUT traffic over
/// the ToR switch. Bring-up runs outside the measured window (and, for
/// the heap arm, before the calendar swap — equivalence makes the
/// starting state identical either way).
pub fn run_cluster_n(nodes: usize, quick: bool, reference_heap: bool) -> ScenarioResult {
    let mut cluster = build_cluster(&cluster_config(nodes, quick));
    if reference_heap {
        cluster.sim.set_reference_heap();
    }
    let bringup = cluster.sim.delivered_events();
    let batched0 = cluster.sim.batched_events();
    let wall_ns = wall_ns_of(|| cluster.sim.run());
    assert!(cluster.sim.is_idle(), "cluster benchmark must drain");
    let report = cluster
        .sim
        .world_mut()
        .remove::<ClusterOutcome>()
        .expect("cluster run leaves a report")
        .0;
    assert!(report.requests > 0, "benchmark window must serve traffic");
    ScenarioResult {
        name: if nodes == 8 {
            "cluster-8"
        } else {
            "cluster-64"
        },
        scheduler: cluster.sim.scheduler_name(),
        events: cluster.sim.delivered_events() - bringup,
        batched: cluster.sim.batched_events() - batched0,
        sim_ns: cluster.sim.now().as_nanos(),
        wall_ns,
        walls: vec![wall_ns],
    }
}

/// Host-time profile of the cluster-64 scenario (timing wheel): where
/// the dispatch loop's wall time goes, per component kind and payload
/// type, heaviest first.
pub fn profile(quick: bool) -> Vec<ProfileRow> {
    let mut cluster = build_cluster(&cluster_config(64, quick));
    cluster.sim.enable_host_profile();
    cluster.sim.run();
    cluster.sim.host_profile()
}

/// Renders [`profile`] rows as the `repro engine --profile` table.
pub fn render_profile(rows: &[ProfileRow]) -> String {
    const TOP: usize = 24;
    let total: u64 = rows.iter().map(|r| r.wall_ns).sum();
    let mut out = format!(
        "Host-time profile — cluster-64, wall time inside Component::handle ({:.3} s total)\n\n",
        total as f64 / 1e9
    );
    out.push_str(&format!(
        "  {:<20} {:<24} {:>10} {:>10} {:>9} {:>7}\n",
        "component", "payload", "calls", "total ms", "ns/call", "share"
    ));
    for r in rows.iter().take(TOP) {
        out.push_str(&format!(
            "  {:<20} {:<24} {:>10} {:>10.1} {:>9.0} {:>6.1}%\n",
            r.component,
            r.payload,
            r.calls,
            r.wall_ns as f64 / 1e6,
            r.wall_ns as f64 / r.calls.max(1) as f64,
            r.wall_ns as f64 / total.max(1) as f64 * 100.0,
        ));
    }
    if rows.len() > TOP {
        let rest: u64 = rows[TOP..].iter().map(|r| r.wall_ns).sum();
        out.push_str(&format!(
            "  ({} more rows, {:.1}%)\n",
            rows.len() - TOP,
            rest as f64 / total.max(1) as f64 * 100.0
        ));
    }
    out
}

/// Runs of each arm [`collect`] folds into one result.
pub fn runs(quick: bool) -> usize {
    if quick {
        5
    } else {
        11
    }
}

/// Runs every scenario on both calendars, [`runs`] times per arm:
/// `(wheel, heap)` per entry, each the median of its runs.
pub fn collect(quick: bool) -> Vec<ScenarioPair> {
    let n = runs(quick);
    vec![
        median_pair(n, |heap| run_ping_pong(quick, heap)),
        median_pair(n, |heap| run_fan_out(quick, heap)),
        median_pair(n, |heap| run_cluster_n(8, quick, heap)),
        median_pair(n, |heap| run_cluster_n(64, quick, heap)),
    ]
}

/// Runs both arms of one scenario `n` times each, alternating which arm
/// goes first so slow drift in host speed hits both alike.
fn median_pair(n: usize, run: impl Fn(bool) -> ScenarioResult) -> ScenarioPair {
    let (mut wheel, mut heap) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for i in 0..n {
        if i % 2 == 0 {
            wheel.push(run(false));
            heap.push(run(true));
        } else {
            heap.push(run(true));
            wheel.push(run(false));
        }
    }
    (summarize(&wheel), summarize(&heap))
}

/// Folds one arm's runs into one result with their median wall time.
/// The deterministic fields must agree run to run.
fn summarize(runs: &[ScenarioResult]) -> ScenarioResult {
    let first = &runs[0];
    assert!(
        runs.iter()
            .all(|r| (r.events, r.batched, r.sim_ns) == (first.events, first.batched, first.sim_ns)),
        "{} on {}: reruns must replay identically",
        first.name,
        first.scheduler
    );
    let mut walls: Vec<u64> = runs.iter().map(|r| r.wall_ns).collect();
    walls.sort_unstable();
    let mut folded = ScenarioResult {
        walls,
        ..first.clone()
    };
    folded.wall_ns = folded.wall_quartile(2);
    folded
}

/// Wheel-over-heap wall-clock speedup for one scenario pair (a ratio
/// of medians when the pair came from [`collect`]).
pub fn speedup(pair: &ScenarioPair) -> f64 {
    pair.0.events_per_sec() / pair.1.events_per_sec().max(f64::MIN_POSITIVE)
}

/// Renders the engine table from collected rows.
pub fn render_rows(rows: &[ScenarioPair]) -> String {
    let mut out = format!(
        "Engine speed — simulation-kernel events/sec, timing wheel vs heap reference \
         (median of {} runs per arm)\n\n",
        rows.first().map_or(0, |pair| pair.0.walls.len())
    );
    out.push_str(&format!(
        "  {:<12} {:>12} {:>14} {:>14} {:>9} {:>9}\n",
        "scenario", "events", "wheel ev/s", "heap ev/s", "speedup", "batched%"
    ));
    for pair in rows {
        let (wheel, heap) = pair;
        debug_assert_eq!(wheel.events, heap.events, "arms must deliver identically");
        out.push_str(&format!(
            "  {:<12} {:>12} {:>14.0} {:>14.0} {:>8.2}x {:>8.1}%\n",
            wheel.name,
            wheel.events,
            wheel.events_per_sec(),
            heap.events_per_sec(),
            speedup(pair),
            wheel.batched as f64 / wheel.events.max(1) as f64 * 100.0,
        ));
    }
    out.push_str(
        "  (standing far-future timers deepen the fan-out calendar; the wheel keeps\n   \
         burst pushes O(1) and drains same-time/same-dst runs in one component borrow)\n",
    );
    out
}

fn scenario_json(r: &ScenarioResult) -> Json {
    Json::Obj(vec![
        ("scheduler".into(), Json::Str(r.scheduler.into())),
        ("events".into(), Json::Int(r.events as i128)),
        ("batched".into(), Json::Int(r.batched as i128)),
        ("sim_ns".into(), Json::Int(r.sim_ns as i128)),
        ("runs".into(), Json::Int(r.walls.len() as i128)),
        ("wall_ns".into(), Json::Int(r.wall_ns as i128)),
        ("wall_q1_ns".into(), Json::Int(r.wall_quartile(1) as i128)),
        ("wall_q3_ns".into(), Json::Int(r.wall_quartile(3) as i128)),
        ("events_per_sec".into(), Json::Float(r.events_per_sec())),
    ])
}

fn profile_json(r: &ProfileRow) -> Json {
    Json::Obj(vec![
        ("component".into(), Json::Str(r.component.clone())),
        ("payload".into(), Json::Str(r.payload.clone())),
        ("calls".into(), Json::Int(r.calls as i128)),
        ("wall_ns".into(), Json::Int(r.wall_ns as i128)),
    ])
}

/// The machine-readable report (`BENCH_engine.json`): the scenario
/// pairs and the cluster-64 host-time profile.
pub fn json_report(rows: &[ScenarioPair], profile: &[ProfileRow], quick: bool) -> Json {
    Json::Obj(vec![
        ("experiment".into(), Json::Str("engine".into())),
        ("quick".into(), Json::Bool(quick)),
        (
            "scenarios".into(),
            Json::Arr(
                rows.iter()
                    .map(|pair| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(pair.0.name.into())),
                            ("wheel".into(), scenario_json(&pair.0)),
                            ("heap".into(), scenario_json(&pair.1)),
                            ("speedup".into(), Json::Float(speedup(pair))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "profile".into(),
            Json::Arr(profile.iter().map(profile_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microbench_arms_agree_on_deterministic_fields() {
        // Tiny-budget smoke: both calendars must deliver identical event
        // counts and identical final sim time (full-size equivalence is
        // the scheduler_equiv suites' job).
        let wheel = run_ping_pong(true, false);
        let heap = run_ping_pong(true, true);
        assert_eq!(wheel.events, heap.events);
        assert_eq!(wheel.sim_ns, heap.sim_ns);
        assert_eq!(wheel.scheduler, "timing-wheel");
        assert_eq!(heap.scheduler, "reference-heap");
        assert!(wheel.events > 100_000);
    }

    #[test]
    fn profiling_leaves_the_run_unchanged() {
        let run = |profile: bool| {
            let mut cluster = build_cluster(&ClusterConfig {
                nodes: 2,
                duration_ns: dcs_sim::time::ms(1),
                warmup_ns: 0,
                ..ClusterConfig::default()
            });
            if profile {
                cluster.sim.enable_host_profile();
            }
            cluster.sim.run();
            let report = cluster.sim.world_mut().remove::<ClusterOutcome>();
            let rows = cluster.sim.host_profile();
            (
                cluster.sim.delivered_events(),
                cluster.sim.now(),
                format!("{report:?}"),
                rows,
            )
        };
        let (events, now, report, rows) = run(true);
        let (plain_events, plain_now, plain_report, plain_rows) = run(false);
        assert_eq!(
            (events, now, &report),
            (plain_events, plain_now, &plain_report)
        );
        assert!(plain_rows.is_empty());
        // Every delivery after the profile was switched on is charged to
        // exactly one row; node prefixes are folded into kinds.
        let calls: u64 = rows.iter().map(|r| r.calls).sum();
        assert!(calls > 0 && calls <= events, "{calls} of {events}");
        assert!(rows.iter().any(|r| r.component == "hdc-engine"));
        assert!(rows.iter().all(|r| !r.component.starts_with("n1-")));
    }

    #[test]
    fn runs_fold_into_their_median_and_interpolated_quartiles() {
        let base = run_ping_pong(true, false);
        let runs: Vec<ScenarioResult> = [0, 100, 10, 90, 20, 80, 30, 70, 40, 60, 50]
            .iter()
            .map(|&wall_ns| ScenarioResult {
                wall_ns,
                ..base.clone()
            })
            .collect();
        // Eleven runs: the quartiles fall halfway between order
        // statistics 2|3 and 7|8.
        let folded = summarize(&runs);
        assert_eq!(folded.wall_ns, 50);
        let quartiles = (folded.wall_quartile(1), folded.wall_quartile(3));
        assert_eq!((quartiles, folded.walls.len()), ((25, 75), 11));
        assert_eq!(summarize(&runs[..5]).wall_quartile(1), 10);
    }

    #[test]
    fn fan_out_batches_on_the_wheel() {
        let wheel = run_fan_out(true, false);
        let heap = run_fan_out(true, true);
        assert_eq!(wheel.events, heap.events);
        assert_eq!(wheel.sim_ns, heap.sim_ns);
        // Sink-major same-time bursts: most deliveries ride a batch.
        assert!(
            wheel.batched * 2 > wheel.events,
            "batched {} of {}",
            wheel.batched,
            wheel.events
        );
    }
}
