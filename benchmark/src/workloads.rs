//! The three benchmark workloads: their generated configs, one measured
//! window each, and the modeled results a window leaves behind.
//!
//! Every window is built from a seed the benchmark derives from
//! `--seed`, so the same seed always hands the program the same configs.
//! Bring-up (topology build plus settling device initialization) is timed
//! apart from the traffic window.

use std::collections::BTreeMap;

use dcs_cluster::{build_cluster, ClusterConfig, ClusterOutcome, ClusterReport};
use dcs_host::cpu::CpuStats;
use dcs_host::job::{D2dDone, D2dJob, D2dOp};
use dcs_ndp::NdpFunction;
use dcs_nic::TcpFlow;
use dcs_pcie::PhysMemory;
use dcs_sim::{Component, ComponentId, Ctx, Histogram, Msg, SimTime, Simulator};
use dcs_store::cache::{Admission, CacheConfig};
use dcs_store::qos::QosPolicy;
use dcs_store::{build_store, StoreConfig, StoreOutcome, TenantSpec};
use dcs_workloads::gen::SizeDistribution;
use dcs_workloads::scenario::{start_scenario_with_app, Request, ScenarioConfig, ScenarioOutcome};
use dcs_workloads::ycsb::YcsbWorkload;
use dcs_workloads::{DesignUnderTest, Testbed, TestbedConfig, WorkloadReport};

use crate::clock;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 64 DCS-ctrl nodes behind the ToR switch, Swift GET/PUT mix.
    Rack64,
    /// An 8-node multi-tenant store: YCSB-B reads, YCSB-A updates, a
    /// YCSB-E scanner, WFQ on, caches smaller than the working set.
    StoreMixed,
    /// The paper's two-node testbed, Fig 12a Swift mix on SW-ctrl P2P
    /// and on DCS-ctrl.
    NodeSwift,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Rack64, Workload::StoreMixed, Workload::NodeSwift];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Rack64 => "rack-64",
            Workload::StoreMixed => "store-mixed",
            Workload::NodeSwift => "node-swift",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Distinct-seed windows pooled into one run's modeled metrics. More
    /// windows give more requests per run, which narrows the spread of
    /// the modeled tails across seeds.
    pub fn windows(self) -> u64 {
        match self {
            Workload::Rack64 => 3,
            Workload::StoreMixed => 3,
            Workload::NodeSwift => 8,
        }
    }

    /// Seed of window `i` of a run started with `seed` (splitmix64, so
    /// neighbouring seeds give unrelated streams).
    pub fn window_seed(self, seed: u64, i: u64) -> u64 {
        let salt = match self {
            Workload::Rack64 => 0x64,
            Workload::StoreMixed => 0x5707,
            Workload::NodeSwift => 0x5F17,
        };
        splitmix(splitmix(seed ^ salt).wrapping_add(i))
    }
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ----------------------------------------------------------------------
// Generated configs.
// ----------------------------------------------------------------------

/// The rack-64 config: 2 Gbps per node, fault-free, health probing on
/// (the default `HealthConfig`).
pub fn rack_config(seed: u64, nodes: usize, design: DesignUnderTest) -> ClusterConfig {
    ClusterConfig {
        nodes,
        design,
        offered_gbps_per_node: 2.0,
        duration_ns: dcs_sim::time::ms(14),
        warmup_ns: dcs_sim::time::ms(1),
        seed,
        ..ClusterConfig::default()
    }
}

/// Nodes in the SW-ctrl P2P reference rack that prices rack-64's CPU
/// reduction (same per-node load, fewer nodes).
pub const RACK_REFERENCE_NODES: usize = 8;

/// The store-mixed tenants: point reads, updates beside reads, and a
/// scanner, over keyspaces whose combined footprint exceeds the cache.
pub fn store_tenants() -> Vec<TenantSpec> {
    let mut reads = TenantSpec::new("reads", YcsbWorkload::B);
    reads.keys = 8192;
    reads.offered_gbps = 6.0;
    let mut updates = TenantSpec::new("updates", YcsbWorkload::A);
    updates.keys = 4096;
    updates.offered_gbps = 3.0;
    let mut scan = TenantSpec::new("scan", YcsbWorkload::E);
    scan.keys = 16 * 1024;
    scan.value_bytes = 4 * 1024;
    scan.offered_gbps = 2.0;
    vec![reads, updates, scan]
}

/// The store-mixed config: 8 nodes, 16 MiB scan-resistant cache per
/// node, WFQ.
pub fn store_config(seed: u64, design: DesignUnderTest) -> StoreConfig {
    StoreConfig {
        nodes: 8,
        design,
        tenants: store_tenants(),
        cache: CacheConfig {
            capacity_bytes: 16 << 20,
            admission: Admission::ScanResistant,
        },
        qos: QosPolicy::Wfq,
        duration_ns: dcs_sim::time::ms(40),
        warmup_ns: dcs_sim::time::ms(8),
        seed,
        ..StoreConfig::default()
    }
}

/// The node-swift traffic: the Fig 12a Swift mix (67% GETs, Dropbox-like
/// sizes, 48 slots) offered at 6 Gbps, below the DCS-ctrl node's knee:
/// at the figure's 8.5 Gbps the node saturates and the modeled goodput
/// and tails swing by a quarter from seed to seed.
#[derive(Clone, Debug)]
pub struct SwiftShape {
    /// Fraction of GETs.
    pub get_fraction: f64,
    /// Object sizes.
    pub sizes: SizeDistribution,
    /// Offered load, Gbps.
    pub offered_gbps: f64,
    /// Run length, ns.
    pub duration_ns: u64,
    /// Warm-up excluded from every modeled metric, ns.
    pub warmup_ns: u64,
    /// Concurrent request slots.
    pub slots: usize,
}

/// The node-swift shape.
pub fn swift_shape() -> SwiftShape {
    SwiftShape {
        get_fraction: 0.67,
        sizes: SizeDistribution::default(),
        offered_gbps: 6.0,
        duration_ns: dcs_sim::time::ms(60),
        warmup_ns: dcs_sim::time::ms(10),
        slots: 48,
    }
}

/// The designs node-swift compares, in run order.
pub const SWIFT_DESIGNS: [DesignUnderTest; 2] = [DesignUnderTest::SwP2p, DesignUnderTest::DcsCtrl];

// ----------------------------------------------------------------------
// Windows.
// ----------------------------------------------------------------------

/// What the traced run records while a window runs.
#[derive(Default)]
pub struct StepTrace {
    /// Host nanoseconds of each `Simulator::step`.
    pub step_ns: Vec<u32>,
    /// Sim-time spans and metrics of the window (node-swift: the spans
    /// of both designs, the metrics of the first).
    pub recorder: Option<dcs_sim::obs::Recorder>,
}

/// Program state read after a window, summed over its simulators.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// Events delivered in the traffic window.
    pub events: u64,
    /// Of those, delivered by a same-time/same-dst batch.
    pub batched: u64,
    /// Every `world.stats` counter, summed by name.
    pub stats: BTreeMap<&'static str, u64>,
    /// Materialized `PhysMemory` bytes at the end of the window (max over
    /// simulators).
    pub resident_bytes: u64,
    /// CPU busy ns per tag over the measured span, server pools only.
    pub cpu_busy_ns: BTreeMap<String, u64>,
    /// CPU jobs retired over the measured span, server pools only.
    pub cpu_jobs: u64,
}

impl Counts {
    fn absorb(&mut self, sim: &Simulator, events0: u64, batched0: u64, pools: &[String]) {
        self.events += sim.delivered_events() - events0;
        self.batched += sim.batched_events() - batched0;
        let world = sim.world();
        for (name, v) in world.stats.iter() {
            *self.stats.entry(name).or_default() += v;
        }
        if let Some(mem) = world.get::<PhysMemory>() {
            self.resident_bytes = self.resident_bytes.max(mem.resident_bytes() as u64);
        }
        if let Some(cpu) = world.get::<CpuStats>() {
            for pool in pools {
                if let Some(p) = cpu.pool(pool) {
                    self.cpu_jobs += p.jobs;
                    for (tag, ns) in p.tracker.iter() {
                        *self.cpu_busy_ns.entry(tag.to_string()).or_default() += ns;
                    }
                }
            }
        }
    }

    /// A `world.stats` counter (zero when never touched).
    pub fn stat(&self, name: &str) -> u64 {
        self.stats.get(name).copied().unwrap_or(0)
    }
}

/// The modeled outcome of one window.
#[derive(Clone, Debug)]
pub enum Modeled {
    /// A rack or store run: its report.
    Cluster(Box<ClusterReport>),
    /// node-swift: each design's server report, plus the DCS-ctrl
    /// request latency the benchmark's tap measured.
    Swift {
        /// `(design, server report)` per design, in [`SWIFT_DESIGNS`] order.
        rows: Vec<(DesignUnderTest, WorkloadReport)>,
        /// DCS-ctrl request latency, ns.
        latency: Histogram,
        /// Arrivals that found every slot busy (DCS-ctrl).
        backlogged: u64,
    },
}

/// Everything one window produced.
pub struct Window {
    /// Host seconds of the traffic window, bring-up excluded.
    pub wall_s: f64,
    /// Program counts.
    pub counts: Counts,
    /// Modeled results.
    pub modeled: Modeled,
    /// Every simulator drained.
    pub idle: bool,
}

/// Runs one window of `w` with `seed`. With `trace` set, the sim-time
/// recorder is on and each `Simulator::step` is timed into `trace`.
pub fn run_window(w: Workload, seed: u64, trace: Option<&mut StepTrace>) -> Window {
    match w {
        Workload::Rack64 => {
            let cfg = rack_config(seed, 64, DesignUnderTest::DcsCtrl);
            let mut c = build_cluster(&cfg);
            let pools = (0..cfg.nodes).map(|i| format!("n{i}")).collect::<Vec<_>>();
            drive(&mut c.sim, &pools, trace, |sim| {
                let outcome = sim.world_mut().remove::<ClusterOutcome>();
                Modeled::Cluster(Box::new(outcome.expect("cluster run leaves a report").0))
            })
        }
        Workload::StoreMixed => {
            let cfg = store_config(seed, DesignUnderTest::DcsCtrl);
            let mut s = build_store(&cfg);
            let pools = (0..cfg.nodes).map(|i| format!("s{i}")).collect::<Vec<_>>();
            drive(&mut s.sim, &pools, trace, |sim| {
                let outcome = sim.world_mut().remove::<StoreOutcome>();
                Modeled::Cluster(Box::new(outcome.expect("store run leaves a report").0))
            })
        }
        Workload::NodeSwift => run_swift_window(seed, trace),
    }
}

/// Times one bring-up of `w` alone (build plus settle), in seconds.
pub fn bringup_seconds(w: Workload, seed: u64) -> f64 {
    let t0 = clock::now();
    match w {
        Workload::Rack64 => drop(build_cluster(&rack_config(
            seed,
            64,
            DesignUnderTest::DcsCtrl,
        ))),
        Workload::StoreMixed => drop(build_store(&store_config(seed, DesignUnderTest::DcsCtrl))),
        Workload::NodeSwift => {
            for design in SWIFT_DESIGNS {
                drop(swift_bringup(design, seed));
            }
        }
    }
    t0.elapsed().as_secs_f64()
}

/// Runs a built simulator's traffic window and collects the window.
fn drive(
    sim: &mut Simulator,
    pools: &[String],
    trace: Option<&mut StepTrace>,
    take: impl FnOnce(&mut Simulator) -> Modeled,
) -> Window {
    let (events0, batched0) = (sim.delivered_events(), sim.batched_events());
    let wall_s = run_traffic(sim, trace);
    let idle = sim.is_idle();
    let mut counts = Counts::default();
    counts.absorb(sim, events0, batched0, pools);
    let modeled = take(sim);
    Window {
        wall_s,
        counts,
        modeled,
        idle,
    }
}

/// Runs `sim` to idle and returns the host seconds it took. Traced runs
/// enable the recorder first and time every step.
fn run_traffic(sim: &mut Simulator, trace: Option<&mut StepTrace>) -> f64 {
    match trace {
        None => {
            let t0 = clock::now();
            sim.run();
            t0.elapsed().as_secs_f64()
        }
        Some(tr) => {
            sim.world_mut().obs.enable();
            let t0 = clock::now();
            loop {
                let s = clock::now();
                if !sim.step() {
                    break;
                }
                let ns = s.elapsed().as_nanos();
                tr.step_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
            }
            let wall = t0.elapsed().as_secs_f64();
            let rec = std::mem::take(&mut sim.world_mut().obs);
            match &mut tr.recorder {
                // node-swift traces both of its designs into one recorder.
                Some(all) => {
                    for s in rec.spans() {
                        all.span(
                            s.cat,
                            s.name,
                            s.req,
                            SimTime::from_nanos(s.start_ns),
                            SimTime::from_nanos(s.end_ns),
                        );
                    }
                }
                None => tr.recorder = Some(rec),
            }
            wall
        }
    }
}

// ----------------------------------------------------------------------
// node-swift.
// ----------------------------------------------------------------------

/// Request latency measured by [`LatencyTap`], left in the world.
#[derive(Default, Debug)]
struct TapLatency {
    hist: Histogram,
}

/// Sits between the scenario driver and the two nodes: forwards every
/// job and completion unchanged, and records each request's latency
/// from its launch to its last job's completion.
struct LatencyTap {
    driver: ComponentId,
    server: ComponentId,
    client: ComponentId,
    window: (u64, u64),
    started: BTreeMap<u64, (u64, usize)>,
}

impl LatencyTap {
    /// Requests take two consecutive job ids starting at an odd id.
    fn key(job: u64) -> u64 {
        job.div_ceil(2)
    }
}

impl Component for LatencyTap {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let now = ctx.now().as_nanos();
        let msg = match msg.downcast::<D2dJob>() {
            Ok(job) => {
                self.started.entry(Self::key(job.id)).or_insert((now, 0)).1 += 1;
                let to = if job.tag == "client" {
                    self.client
                } else {
                    self.server
                };
                ctx.send_now(to, job);
                return;
            }
            Err(m) => m,
        };
        let done = msg
            .downcast::<D2dDone>()
            .expect("the latency tap only carries jobs and completions");
        let key = Self::key(done.id);
        let entry = self
            .started
            .get_mut(&key)
            .expect("completion of a launched job");
        entry.1 -= 1;
        if entry.1 == 0 {
            let (start, _) = self.started.remove(&key).expect("present");
            let (from, to) = self.window;
            if start >= from && now <= to {
                ctx.world()
                    .expect_mut::<TapLatency>()
                    .hist
                    .record(now - start);
            }
        }
        ctx.send_now(self.driver, done);
    }
}

/// The Fig 12a Swift request generator (the same mix as
/// `dcs_workloads::run_swift`, rebuilt here so the benchmark can time
/// bring-up apart from the window and route jobs through its latency
/// tap). Jobs of request `r` take ids `2r-1` and `2r`.
fn swift_requests(shape: &SwiftShape, tap: ComponentId) -> dcs_workloads::scenario::MakeRequest {
    let sizes = shape.sizes.clone();
    let get_fraction = shape.get_fraction;
    let mut get_lba = 0u64;
    let mut put_lba = 1u64 << 18;
    let lba_window = (4u64 << 30) / 4096;
    Box::new(move |rng, slot, _reply_to, next_id: &mut u64| {
        let len = sizes.sample(rng);
        let blocks = (len / 4096) as u64;
        let is_get = rng.gen_bool(get_fraction);
        let first = *next_id;
        *next_id += 2;
        let (server_ops, client_ops, server_tag) = if is_get {
            let flow = TcpFlow::example(1, 2, 20_000 + slot as u16, 8_000 + slot as u16);
            let lba = get_lba;
            get_lba = (get_lba + blocks) % lba_window;
            (
                vec![
                    D2dOp::SsdRead { ssd: 0, lba, len },
                    D2dOp::Process {
                        function: NdpFunction::Md5,
                        aux: vec![],
                    },
                    D2dOp::NicSend { flow, seq: 0 },
                ],
                vec![D2dOp::NicRecv {
                    flow: flow.reversed(),
                    len,
                }],
                "kernel-get",
            )
        } else {
            let flow = TcpFlow::example(2, 1, 30_000 + slot as u16, 8_100 + slot as u16);
            let lba = put_lba;
            put_lba = (1 << 18) + ((put_lba + blocks) % lba_window);
            (
                vec![
                    D2dOp::NicRecv {
                        flow: flow.reversed(),
                        len,
                    },
                    D2dOp::Process {
                        function: NdpFunction::Md5,
                        aux: vec![],
                    },
                    D2dOp::SsdWrite { ssd: 0, lba },
                ],
                vec![
                    D2dOp::SsdRead {
                        ssd: 0,
                        lba: lba % lba_window,
                        len,
                    },
                    D2dOp::NicSend { flow, seq: 0 },
                ],
                "kernel-put",
            )
        };
        let job = |id, ops, tag| D2dJob {
            id,
            ops,
            reply_to: tap,
            tag,
        };
        Request {
            jobs: vec![
                (tap, job(first, server_ops, server_tag)),
                (tap, job(first + 1, client_ops, "client")),
            ],
            bytes: len,
            app_cost_ns: 80_000 + (len / 10) as u64,
            app_tag: if is_get { "app-get" } else { "app-put" },
        }
    })
}

/// Bring-up of one node-swift design: `Testbed::new` plus settling.
fn swift_bringup(design: DesignUnderTest, seed: u64) -> Testbed {
    let mut tb = Testbed::new(
        design,
        &TestbedConfig {
            seed,
            ..TestbedConfig::default()
        },
    );
    tb.sim.run();
    tb
}

fn run_swift_window(seed: u64, mut trace: Option<&mut StepTrace>) -> Window {
    let shape = swift_shape();
    let mut wall_s = 0.0;
    let mut counts = Counts::default();
    let mut rows = Vec::new();
    let mut latency = Histogram::new();
    let mut backlogged = 0;
    let mut idle = true;
    for design in SWIFT_DESIGNS {
        let mut tb = swift_bringup(design, seed);
        let start = tb.sim.now().as_nanos();
        tb.sim.world_mut().insert(TapLatency::default());
        let tap = tb.sim.reserve("latency-tap");
        let scenario = ScenarioConfig {
            duration_ns: shape.duration_ns,
            warmup_ns: shape.warmup_ns,
            mean_interarrival_ns: shape.sizes.mean_estimate() * 8.0 / shape.offered_gbps,
            slots: shape.slots,
        };
        let server = tb.server.clone();
        let driver = start_scenario_with_app(
            &mut tb.sim,
            scenario,
            swift_requests(&shape, tap),
            vec![(server.cpu_key.clone(), server.cores)],
            Some(server.cpu),
        );
        tb.sim.install(
            tap,
            LatencyTap {
                driver,
                server: server.submit_to,
                client: tb.client.submit_to,
                window: (start + shape.warmup_ns, start + shape.duration_ns),
                started: BTreeMap::new(),
            },
        );
        let (events0, batched0) = (tb.sim.delivered_events(), tb.sim.batched_events());
        wall_s += run_traffic(&mut tb.sim, trace.as_deref_mut());
        idle &= tb.sim.is_idle();
        counts.absorb(
            &tb.sim,
            events0,
            batched0,
            std::slice::from_ref(&server.cpu_key),
        );
        let report = tb.sim.world().expect::<ScenarioOutcome>().reports[&server.cpu_key].clone();
        if design == DesignUnderTest::DcsCtrl {
            latency = tb.sim.world_mut().remove::<TapLatency>().expect("tap").hist;
            backlogged = tb.sim.world().stats.counter_value("scenario.backlogged");
        }
        rows.push((design, report));
    }
    Window {
        wall_s,
        counts,
        modeled: Modeled::Swift {
            rows,
            latency,
            backlogged,
        },
        idle,
    }
}

// ----------------------------------------------------------------------
// SW-ctrl P2P references for the rack and store CPU reduction.
// ----------------------------------------------------------------------

/// The SW-ctrl P2P twin of window `seed`, priced per node: rack-64 runs
/// it as an [`RACK_REFERENCE_NODES`]-node rack at the same per-node
/// load, store-mixed as the same store. `None` for node-swift, whose
/// windows already run both designs.
pub fn run_reference(w: Workload, seed: u64) -> Option<ClusterReport> {
    match w {
        Workload::Rack64 => Some(dcs_cluster::run_cluster(&rack_config(
            seed,
            RACK_REFERENCE_NODES,
            DesignUnderTest::SwP2p,
        ))),
        Workload::StoreMixed => Some(dcs_store::run_store(&store_config(
            seed,
            DesignUnderTest::SwP2p,
        ))),
        Workload::NodeSwift => None,
    }
}
