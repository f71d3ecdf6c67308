//! The design-agnostic testbed and scenario driver.
//!
//! [`Testbed`] builds the paper's two-node setup for any design under
//! test; [`ScenarioDriver`] generates requests (Poisson arrivals), keeps a
//! bounded number in flight on dedicated connection slots, and measures
//! throughput and CPU utilization over a warm-up-trimmed window.

use std::collections::{BTreeMap, VecDeque};

use dcs_core::{build_dcs_pair, DcsNodeBuilder};
use dcs_host::cpu::{CpuJob, CpuJobDone, CpuStats};
use dcs_host::job::{D2dDone, D2dJob, D2dOp};
use dcs_host::{build_pair, HostNodeBuilder, SwDesign};
use dcs_nic::WireConfig;
use dcs_nvme::{NvmeConfig, NvmeHandle};
use dcs_sim::{Component, ComponentId, Ctx, FaultPlan, Msg, Rng, SimTime, Simulator};

use crate::gen::poisson_gap;
use crate::report::WorkloadReport;

/// The designs a workload can run over.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DesignUnderTest {
    /// Vanilla kernel baseline.
    Linux,
    /// Optimized software baseline.
    SwOpt,
    /// Optimized software + P2P data paths.
    SwP2p,
    /// The HDC Engine.
    DcsCtrl,
}

impl DesignUnderTest {
    /// Figure-legend label.
    pub fn label(self) -> &'static str {
        match self {
            DesignUnderTest::Linux => "Linux",
            DesignUnderTest::SwOpt => "SW opt",
            DesignUnderTest::SwP2p => "SW-ctrl P2P",
            DesignUnderTest::DcsCtrl => "DCS-ctrl",
        }
    }

    /// The designs Figure 12/13 compare.
    pub const FIG12: [DesignUnderTest; 3] = [
        DesignUnderTest::SwOpt,
        DesignUnderTest::SwP2p,
        DesignUnderTest::DcsCtrl,
    ];
}

impl std::fmt::Display for DesignUnderTest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One node of the testbed, as workloads see it.
#[derive(Debug, Clone)]
pub struct NodeRef {
    /// Where D2D jobs are submitted (executor or HDC driver).
    pub submit_to: ComponentId,
    /// The node's CPU pool (for application-level CPU charges).
    pub cpu: ComponentId,
    /// CPU-stats pool key.
    pub cpu_key: String,
    /// Core count.
    pub cores: usize,
    /// The node's SSDs.
    pub ssds: Vec<NvmeHandle>,
}

/// A built two-node testbed.
pub struct Testbed {
    /// The simulator (run it!).
    pub sim: Simulator,
    /// The measured storage-server node.
    pub server: NodeRef,
    /// The client/peer node.
    pub client: NodeRef,
    /// The design that was built.
    pub design: DesignUnderTest,
    /// Lazily created completion-collector component (job harness).
    harness: Option<ComponentId>,
    next_job_id: u64,
}

/// Completions collected by the testbed's job harness, in delivery order.
#[derive(Default, Debug)]
pub struct JobInbox(pub Vec<D2dDone>);

#[derive(Debug)]
struct SubmitJob {
    to: ComponentId,
    job: D2dJob,
}

/// Collector component behind [`Testbed::run_one_job`]: forwards queued
/// submissions and records every completion in the world's [`JobInbox`].
struct JobApp;

impl Component for JobApp {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<SubmitJob>() {
            Ok(SubmitJob { to, job }) => {
                ctx.send_now(to, job);
                return;
            }
            Err(m) => m,
        };
        let done = msg.downcast::<D2dDone>().expect("completions");
        if ctx.world().get::<JobInbox>().is_none() {
            ctx.world().insert(JobInbox::default());
        }
        ctx.world().expect_mut::<JobInbox>().0.push(done);
    }
}

/// Device configuration shared by testbeds.
#[derive(Clone, Debug)]
pub struct TestbedConfig {
    /// SSDs per node.
    pub ssds_per_node: usize,
    /// Wire between the nodes.
    pub wire: WireConfig,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            ssds_per_node: 1,
            wire: WireConfig::default(),
            seed: 7,
        }
    }
}

/// Builds one server/client node pair for `design` into an existing
/// simulator, under caller-chosen node names (which key the CPU-stats
/// pools, so they must be unique within the simulation). This is the
/// building block behind [`Testbed::new`] and the multi-node clusters of
/// `dcs-cluster`, which instantiate many pairs in one deterministic world.
pub fn build_testbed_nodes(
    sim: &mut Simulator,
    design: DesignUnderTest,
    cfg: &TestbedConfig,
    server_name: &str,
    client_name: &str,
) -> (NodeRef, NodeRef) {
    let ssds = vec![NvmeConfig::default(); cfg.ssds_per_node];
    match design {
        DesignUnderTest::DcsCtrl => {
            let mut a = DcsNodeBuilder::new(server_name);
            a.ssds = ssds.clone();
            let mut b = DcsNodeBuilder::new(client_name);
            b.ssds = ssds;
            let (na, nb) = build_dcs_pair(sim, &a, &b, cfg.wire.clone());
            let server = NodeRef {
                submit_to: na.driver,
                cpu: na.cpu,
                cpu_key: na.name.clone(),
                cores: na.cores,
                ssds: na.ssds.clone(),
            };
            let client = NodeRef {
                submit_to: nb.driver,
                cpu: nb.cpu,
                cpu_key: nb.name.clone(),
                cores: nb.cores,
                ssds: nb.ssds.clone(),
            };
            (server, client)
        }
        other => {
            let sw = match other {
                DesignUnderTest::Linux => SwDesign::Linux,
                DesignUnderTest::SwOpt => SwDesign::SwOpt,
                DesignUnderTest::SwP2p => SwDesign::SwP2p,
                DesignUnderTest::DcsCtrl => unreachable!(),
            };
            let mut a = HostNodeBuilder::new(server_name, sw);
            a.ssds = ssds.clone();
            let mut b = HostNodeBuilder::new(client_name, sw);
            b.ssds = ssds;
            let (na, nb) = build_pair(sim, &a, &b, cfg.wire.clone());
            let server = NodeRef {
                submit_to: na.executor,
                cpu: na.cpu,
                cpu_key: na.name.clone(),
                cores: na.cores,
                ssds: na.ssds.clone(),
            };
            let client = NodeRef {
                submit_to: nb.executor,
                cpu: nb.cpu,
                cpu_key: nb.name.clone(),
                cores: nb.cores,
                ssds: nb.ssds.clone(),
            };
            (server, client)
        }
    }
}

impl Testbed {
    /// Builds the two-node testbed for `design`.
    pub fn new(design: DesignUnderTest, cfg: &TestbedConfig) -> Testbed {
        let mut sim = Simulator::new(cfg.seed);
        let (server, client) = build_testbed_nodes(&mut sim, design, cfg, "server", "client");
        Testbed {
            sim,
            server,
            client,
            design,
            harness: None,
            next_job_id: 1,
        }
    }

    /// Installs a [`FaultPlan`] built from an RNG forked off the world's
    /// master RNG: the same testbed seed reproduces the same fault
    /// sequence. Call before submitting work.
    pub fn install_faults(&mut self, build: impl FnOnce(Rng) -> FaultPlan) {
        let rng = self.sim.world_mut().rng.fork();
        let plan = build(rng);
        self.sim.world_mut().insert(plan);
    }

    fn app(&mut self) -> ComponentId {
        if let Some(a) = self.harness {
            return a;
        }
        let a = self.sim.add("testbed-app", JobApp);
        self.harness = Some(a);
        a
    }

    /// Submits one job to the server node, runs the simulation to idle,
    /// and returns its completion. The single-job harness shared by the
    /// fault-injection and chaos integration tests.
    ///
    /// # Panics
    ///
    /// Panics if the simulation fails to drain or the job does not
    /// complete exactly once.
    pub fn run_one_job(&mut self, ops: Vec<D2dOp>) -> D2dDone {
        let to = self.server.submit_to;
        let mut done = self.run_job_batch(vec![(to, ops, "job")]);
        assert_eq!(done.len(), 1, "{}: exactly one completion", self.design);
        done.pop().expect("checked")
    }

    /// Submits a batch of `(submit_to, ops, tag)` jobs at once (ids are
    /// assigned sequentially in batch order from the testbed's counter),
    /// runs the simulation to idle, and returns the completions in
    /// delivery order, asserting exactly one completion per job.
    pub fn run_job_batch(
        &mut self,
        jobs: Vec<(ComponentId, Vec<D2dOp>, &'static str)>,
    ) -> Vec<D2dDone> {
        let app = self.app();
        // Settle device bring-up (queue attach, ring config) first.
        self.sim.run();
        let mut ids = Vec::with_capacity(jobs.len());
        for (to, ops, tag) in jobs {
            let id = self.next_job_id;
            self.next_job_id += 1;
            ids.push(id);
            let job = D2dJob {
                id,
                ops,
                reply_to: app,
                tag,
            };
            self.sim.kickoff(app, SubmitJob { to, job });
        }
        self.sim.run();
        assert!(self.sim.is_idle(), "{}: simulation must drain", self.design);
        let inbox = self.sim.world_mut().expect_mut::<JobInbox>();
        let done = std::mem::take(&mut inbox.0);
        for &id in &ids {
            assert_eq!(
                done.iter().filter(|d| d.id == id).count(),
                1,
                "{}: job {id} must complete exactly once",
                self.design
            );
        }
        assert_eq!(
            done.len(),
            ids.len(),
            "{}: no stray completions",
            self.design
        );
        done
    }
}

/// One generated request: jobs to co-submit plus the payload size
/// attributed to it.
pub struct Request {
    /// `(submit_to, job)` pairs; all must complete to finish the request.
    pub jobs: Vec<(ComponentId, D2dJob)>,
    /// Payload bytes this request moves.
    pub bytes: usize,
    /// Application-level CPU work on the server for this request
    /// (request parsing, HTTP handling — identical across designs).
    pub app_cost_ns: u64,
    /// Utilization tag for the application charge.
    pub app_tag: &'static str,
}

/// Builds a request for connection slot `slot`; draws ids from
/// `next_job_id`.
pub type MakeRequest = Box<dyn FnMut(&mut Rng, usize, ComponentId, &mut u64) -> Request + Send>;

/// Scenario timing parameters.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// Total run length.
    pub duration_ns: u64,
    /// Measurement starts after this much warm-up.
    pub warmup_ns: u64,
    /// Mean inter-arrival time.
    pub mean_interarrival_ns: f64,
    /// Concurrent requests / connection slots.
    pub slots: usize,
}

/// The measured outcome, stored in the world when the run window closes.
#[derive(Debug, Default)]
pub struct ScenarioOutcome {
    /// Per-node reports keyed by CPU pool name.
    pub reports: BTreeMap<String, WorkloadReport>,
}

/// Internal events.
#[derive(Debug)]
struct Start;
#[derive(Debug)]
struct Arrival;
#[derive(Debug)]
struct WarmupOver;
#[derive(Debug)]
struct WindowOver;

struct InFlight {
    slot: usize,
    pending_jobs: usize,
    bytes: usize,
    failed: bool,
}

/// The generic scenario driver component.
pub struct ScenarioDriver {
    cfg: ScenarioConfig,
    make: MakeRequest,
    nodes: Vec<(String, usize)>,
    /// CPU pool charged with per-request application work (the server).
    app_cpu: Option<ComponentId>,
    rng: Rng,
    free_slots: Vec<usize>,
    backlog: VecDeque<()>,
    inflight: BTreeMap<u64, InFlight>,
    /// Job id → request key.
    job_to_req: BTreeMap<u64, u64>,
    next_job_id: u64,
    next_req: u64,
    measuring: bool,
    window_closed: bool,
    measure_start: SimTime,
    bytes: u64,
    requests: u64,
    failures: u64,
}

impl ScenarioDriver {
    /// Creates the driver.
    ///
    /// `nodes` lists `(cpu_pool_key, cores)` pairs to report on.
    pub fn new(
        cfg: ScenarioConfig,
        make: MakeRequest,
        nodes: Vec<(String, usize)>,
        app_cpu: Option<ComponentId>,
        rng: Rng,
    ) -> Self {
        let slots = (0..cfg.slots).rev().collect();
        ScenarioDriver {
            cfg,
            make,
            nodes,
            app_cpu,
            rng,
            free_slots: slots,
            backlog: VecDeque::new(),
            inflight: BTreeMap::new(),
            job_to_req: BTreeMap::new(),
            next_job_id: 1,
            next_req: 1,
            measuring: false,
            window_closed: false,
            measure_start: SimTime::ZERO,
            bytes: 0,
            requests: 0,
            failures: 0,
        }
    }

    fn launch(&mut self, ctx: &mut Ctx<'_>) {
        let Some(slot) = self.free_slots.pop() else {
            self.backlog.push_back(());
            ctx.world().stats.counter("scenario.backlogged").add(1);
            return;
        };
        let req = (self.make)(&mut self.rng, slot, ctx.self_id(), &mut self.next_job_id);
        let key = self.next_req;
        self.next_req += 1;
        if let (Some(cpu), true) = (self.app_cpu, req.app_cost_ns > 0) {
            // Fire-and-forget application work; the completion is ignored.
            let token = u64::MAX - key;
            ctx.send_now(
                cpu,
                CpuJob {
                    token,
                    cost_ns: req.app_cost_ns,
                    tag: req.app_tag,
                    reply_to: ctx.self_id(),
                },
            );
        }
        let pending = req.jobs.len();
        for (target, job) in &req.jobs {
            self.job_to_req.insert(job.id, key);
            ctx.send_now(*target, job.clone());
        }
        self.inflight.insert(
            key,
            InFlight {
                slot,
                pending_jobs: pending,
                bytes: req.bytes,
                failed: false,
            },
        );
    }

    fn on_done(&mut self, ctx: &mut Ctx<'_>, done: D2dDone) {
        let Some(key) = self.job_to_req.remove(&done.id) else {
            panic!("completion for unknown job {}", done.id);
        };
        let finished = {
            let r = self.inflight.get_mut(&key).expect("live request");
            r.pending_jobs -= 1;
            r.failed |= !done.ok;
            r.pending_jobs == 0
        };
        if !finished {
            return;
        }
        let r = self.inflight.remove(&key).expect("live request");
        self.free_slots.push(r.slot);
        if self.measuring && !self.window_closed {
            self.requests += 1;
            if r.failed {
                self.failures += 1;
            } else {
                self.bytes += r.bytes as u64;
            }
        }
        // A freed slot can serve backlog, unless the window has closed.
        if !self.window_closed && self.backlog.pop_front().is_some() {
            self.launch(ctx);
        }
    }

    fn close_window(&mut self, ctx: &mut Ctx<'_>) {
        self.window_closed = true;
        let span = ctx.now() - self.measure_start;
        let mut outcome = ScenarioOutcome::default();
        let stats = ctx.world_ref().get::<CpuStats>();
        for (key, cores) in &self.nodes {
            let cpu_breakdown = stats
                .map(|s| s.breakdown(key, span).into_iter().collect())
                .unwrap_or_default();
            outcome.reports.insert(
                key.clone(),
                WorkloadReport {
                    span_ns: span,
                    requests: self.requests,
                    bytes: self.bytes,
                    cpu_breakdown,
                    failures: self.failures,
                },
            );
            let _ = cores;
        }
        ctx.world().insert(outcome);
    }
}

impl Component for ScenarioDriver {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<Start>() {
            Ok(Start) => {
                let gap = poisson_gap(&mut self.rng, self.cfg.mean_interarrival_ns);
                ctx.send_self_in(gap, Arrival);
                ctx.send_self_in(self.cfg.warmup_ns, WarmupOver);
                ctx.send_self_in(self.cfg.duration_ns, WindowOver);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<Arrival>() {
            Ok(Arrival) => {
                if !self.window_closed {
                    self.launch(ctx);
                    let gap = poisson_gap(&mut self.rng, self.cfg.mean_interarrival_ns);
                    ctx.send_self_in(gap, Arrival);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<WarmupOver>() {
            Ok(WarmupOver) => {
                self.measuring = true;
                self.measure_start = ctx.now();
                if let Some(stats) = ctx.world().get_mut::<CpuStats>() {
                    stats.reset();
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<WindowOver>() {
            Ok(WindowOver) => {
                self.close_window(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<CpuJobDone>() {
            Ok(_) => return, // application-charge completion: nothing to do
            Err(m) => m,
        };
        match msg.downcast::<D2dDone>() {
            Ok(done) => self.on_done(ctx, done),
            Err(other) => panic!("ScenarioDriver received unexpected message: {other:?}"),
        }
    }
}

/// Installs and starts a scenario driver; returns its id. Run the sim,
/// then read [`ScenarioOutcome`] from the world.
pub fn start_scenario(
    sim: &mut Simulator,
    cfg: ScenarioConfig,
    make: MakeRequest,
    nodes: Vec<(String, usize)>,
) -> ComponentId {
    start_scenario_with_app(sim, cfg, make, nodes, None)
}

/// Like [`start_scenario`], with a CPU pool charged per-request
/// application work (see [`Request::app_cost_ns`]).
pub fn start_scenario_with_app(
    sim: &mut Simulator,
    cfg: ScenarioConfig,
    make: MakeRequest,
    nodes: Vec<(String, usize)>,
    app_cpu: Option<ComponentId>,
) -> ComponentId {
    let rng = sim.world_mut().rng.fork();
    let driver = sim.add(
        "scenario",
        ScenarioDriver::new(cfg, make, nodes, app_cpu, rng),
    );
    sim.kickoff(driver, Start);
    driver
}
