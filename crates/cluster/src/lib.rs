//! # dcs-cluster — multi-node DCS serving over a simulated datacenter rack
//!
//! The paper evaluates DCS-ctrl on a single server; this crate scales the
//! question up one level: *what does the HDC Engine buy a whole rack?* It
//! instantiates N independent DCS server nodes — each a full host with its
//! own PCIe fabric, NVMe SSDs, NIC, and HDC Engine (or a software-baseline
//! stack), exactly the testbed `dcs-workloads` measures — inside one
//! deterministic [`Simulator`] world, and joins them through a modeled
//! top-of-rack switch ([`TorSwitch`]) with per-port serialization, fixed
//! switching latency, and output queueing.
//!
//! In front of the rack sits a [`ClusterDriver`], the one request
//! lifecycle every workload runs through: a consistent-hash object shard
//! map with R-way replication ([`HashRing`]), a pluggable load balancer
//! ([`LbPolicy`]: round-robin, least-outstanding, join-shortest-queue
//! over a read's replica set), and per-node admission control (bounded
//! outstanding + a bounded [`QosQueue`], then shed) so overload degrades
//! tail latency gracefully instead of collapsing. What the requests are
//! comes from a [`Service`]: [`SwiftMix`] scales the Swift-style GET/PUT
//! mix to the cluster's offered load, and `dcs-store` plugs in YCSB
//! tenants with node read caches through the same trait.
//!
//! Everything composes with the fault layer from `dcs-sim`: a
//! [`FaultPlan`] injects wire/flash/PCIe faults inside any node. A
//! [`NodeFault`] acts on a node as a whole: it crashes (and may
//! restart), hangs, serves slowly, or has its switch port degraded
//! (`LinkDegrade`, the `repro cluster` degraded-node panel, where the
//! queue-aware policies observe the backlog and reroute).
//!
//! The front end is split along its three jobs, as modules of the one
//! [`ClusterDriver`] component:
//!
//! - [`driver`] serves requests: arrivals, routing, admission, hedging,
//!   dispatch, responses, failover and the measurement window.
//! - [`node_fault`] is fault injection, the ground truth of what the rack
//!   does to a node: whether work reaching it runs, vanishes or waits,
//!   and how much slower it serves.
//! - [`health`] is what the front end believes about a node and what it
//!   does about it, for every service alike: heartbeat probing over the
//!   switch's strict-priority control lane, a per-node circuit breaker,
//!   the failover retry budget, hedge delays, write fallback to
//!   surviving replicas and differential slow-node detection.
//!
//! A private `repair` module streams a dead node's shards to ring
//! successors and a restarted node's back to it (the rejoin lifecycle).
//! The `repro cluster-failover` sweep measures detection time,
//! availability through the failure, and time-to-repair.
//!
//! ```
//! use dcs_cluster::{run_cluster, ClusterConfig, LbPolicy};
//!
//! let report = run_cluster(&ClusterConfig {
//!     nodes: 2,
//!     policy: LbPolicy::JoinShortestQueue,
//!     duration_ns: dcs_sim::time::ms(3),
//!     warmup_ns: dcs_sim::time::ms(1),
//!     ..ClusterConfig::default()
//! });
//! assert!(report.requests > 0);
//! ```

pub mod driver;
pub mod health;
pub mod node_fault;
pub mod policy;
pub mod qos;
mod repair;
pub mod report;
pub mod service;
pub mod shard;
pub mod switch;

pub use driver::ClusterDriver;
pub use health::{
    BreakerState, HealthConfig, HealthMonitor, NodeState, SlowTransition, Transition,
};
pub use node_fault::NodeFault;
pub use policy::{LbPolicy, NodeLoad};
pub use qos::{FairQueue, QosPolicy, QosQueue};
pub use report::{ClusterReport, NodePerf, PhasePerf, TenantPerf};
pub use service::{CacheDecision, Request, Service, SwiftMix};
pub use shard::HashRing;
pub use switch::{Lane, SwitchConfig, TorSwitch};

use dcs_sim::{ComponentId, FaultPlan, Rng, Simulator};
use dcs_workloads::build_testbed_nodes;
use dcs_workloads::gen::SizeDistribution;
use dcs_workloads::scenario::NodeRef;

/// Full description of a cluster experiment.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of DCS server nodes.
    pub nodes: usize,
    /// Design each node runs (the HDC Engine, or a software baseline).
    pub design: dcs_workloads::DesignUnderTest,
    /// Load-balancing policy at the front end.
    pub policy: LbPolicy,
    /// Replica count per object (GETs choose among these).
    pub replication: usize,
    /// Virtual nodes per physical node on the hash ring.
    pub vnodes_per_node: usize,
    /// Size of the object-id space.
    pub objects: u64,
    /// Fraction of requests that are GETs.
    pub get_fraction: f64,
    /// Object-size distribution.
    pub sizes: SizeDistribution,
    /// Offered load per node, Gbps (cluster offered load is this × N).
    pub offered_gbps_per_node: f64,
    /// Total run length.
    pub duration_ns: u64,
    /// Warm-up trimmed from measurements.
    pub warmup_ns: u64,
    /// Per-node concurrent request limit (admission control).
    pub max_outstanding: usize,
    /// Per-node admission queue bound per arrival stream; beyond it
    /// requests are shed.
    pub queue_cap: usize,
    /// Top-of-rack switch provisioning.
    pub switch: SwitchConfig,
    /// Per-node testbed parameters (SSD count, node wire).
    pub testbed: dcs_workloads::TestbedConfig,
    /// Simulation seed (drives arrivals, sizes, and any fault plan).
    pub seed: u64,
    /// If positive, installs `FaultPlan::uniform(rate)` over every
    /// injection site in every node before traffic starts.
    pub fault_rate: f64,
    /// Whole-node faults to inject: crashes, hangs, fail-slow nodes and
    /// degraded switch ports.
    pub node_faults: Vec<NodeFault>,
    /// The failure-tolerance layer (probing, failover, hedging, repair);
    /// [`HealthConfig::disabled`] is the ablation arm.
    pub health: HealthConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 4,
            design: dcs_workloads::DesignUnderTest::DcsCtrl,
            policy: LbPolicy::JoinShortestQueue,
            replication: 2,
            // Placement spread shrinks like 1/sqrt(vnodes); 256 keeps the
            // hottest node within ~10% of the mean, which matters because
            // PUTs are pinned to primaries and cannot be rerouted.
            vnodes_per_node: 256,
            objects: 4096,
            get_fraction: 0.67,
            sizes: SizeDistribution::default(),
            offered_gbps_per_node: 6.0,
            duration_ns: dcs_sim::time::ms(30),
            warmup_ns: dcs_sim::time::ms(5),
            // The node pipeline (SSD → hash → NIC, 48-deep wire interleave)
            // needs ~48 concurrent requests to reach line rate; the queue
            // bound keeps worst-case sojourn a small multiple of service.
            max_outstanding: 48,
            queue_cap: 64,
            switch: SwitchConfig::default(),
            testbed: dcs_workloads::TestbedConfig::default(),
            seed: 0xDC5C,
            fault_rate: 0.0,
            node_faults: vec![],
            health: HealthConfig::default(),
        }
    }
}

/// The finished report, left in the world when the window closes (or, if a
/// repair stream outlives the window, when the repair completes).
#[derive(Debug)]
pub struct ClusterOutcome(pub ClusterReport);

/// One cluster node as the front end sees it: the measured server and its
/// rack-side access peer (the opposite end of the node's downlink wire).
#[derive(Clone, Debug)]
pub struct ClusterNode {
    /// The DCS server.
    pub server: NodeRef,
    /// The access endpoint terminating the node's downlink at the rack.
    pub access: NodeRef,
}

/// A built (but not yet run) cluster.
pub struct Cluster {
    /// The simulator holding every node and the front end.
    pub sim: Simulator,
    /// The front-end driver component.
    pub frontend: ComponentId,
    /// The nodes, indexed consistently with the shard map and report.
    pub nodes: Vec<ClusterNode>,
}

/// Builds the cluster: N server/access node pairs (named `n{i}` /
/// `n{i}-fe`, which keys their CPU-stats pools), the optional fault plan,
/// and the started front end serving the Swift mix. Device bring-up is
/// settled before traffic begins.
///
/// # Panics
///
/// Panics if `cfg.nodes` is zero.
pub fn build_cluster(cfg: &ClusterConfig) -> Cluster {
    build_frontend(cfg, "n", "cluster-frontend", |rng| SwiftMix::new(cfg, rng))
}

/// The bring-up every front end shares: N server/access node pairs named
/// `{prefix}{i}` / `{prefix}{i}-fe`, the optional fault plan, and a
/// started [`ClusterDriver`] called `name` serving the service `make`
/// builds from the front end's forked RNG.
///
/// # Panics
///
/// Panics if `cfg.nodes` is zero.
pub fn build_frontend<S: Service>(
    cfg: &ClusterConfig,
    prefix: &str,
    name: &str,
    make: impl FnOnce(Rng) -> S,
) -> Cluster {
    assert!(cfg.nodes > 0, "a cluster needs at least one node");
    let mut sim = Simulator::new(cfg.seed);
    let mut nodes = Vec::with_capacity(cfg.nodes);
    for i in 0..cfg.nodes {
        let (server, access) = build_testbed_nodes(
            &mut sim,
            cfg.design,
            &cfg.testbed,
            &format!("{prefix}{i}"),
            &format!("{prefix}{i}-fe"),
        );
        nodes.push(ClusterNode { server, access });
    }
    // Settle bring-up (queue attach, ring config) before traffic starts.
    sim.run();
    if cfg.fault_rate > 0.0 {
        let rng = sim.world_mut().rng.fork();
        sim.world_mut()
            .insert(FaultPlan::uniform(cfg.fault_rate, rng));
    }
    let rng = sim.world_mut().rng.fork();
    let frontend = sim.add(
        name,
        ClusterDriver::new(cfg.clone(), nodes.clone(), make(rng)),
    );
    sim.kickoff(frontend, driver::Start);
    Cluster {
        sim,
        frontend,
        nodes,
    }
}

impl Cluster {
    /// Runs the built cluster to completion and returns the measured
    /// report.
    ///
    /// # Panics
    ///
    /// Panics if the simulation fails to drain (a stuck request) or no
    /// report was produced.
    pub fn run(mut self) -> ClusterReport {
        self.sim.run();
        assert!(self.sim.is_idle(), "cluster simulation must drain");
        self.sim
            .world_mut()
            .remove::<ClusterOutcome>()
            .expect("cluster run leaves a report in the world")
            .0
    }
}

/// Builds the cluster, runs it to completion, and returns the measured
/// report.
///
/// # Panics
///
/// Panics if the simulation fails to drain (a stuck request) or no report
/// was produced.
pub fn run_cluster(cfg: &ClusterConfig) -> ClusterReport {
    build_cluster(cfg).run()
}
