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
//! [`FaultPlan`] injects wire/flash/PCIe faults inside
//! any node, and [`Degrade`] slows one node's switch port mid-run — the
//! queue-aware policies observe the backlog and reroute, which is the
//! cluster-level payoff the `repro cluster` sweep quantifies.
//!
//! Whole-node failures ([`NodeFault`]: crashes, hangs and gray failures)
//! are handled by the failure-tolerance layer in [`health`], for every
//! service alike: heartbeat probing over the switch's strict-priority
//! control lane, a per-node circuit breaker, replica failover with
//! bounded retries, hedged reads, write fallback to surviving replicas,
//! differential slow-node detection, bandwidth-capped re-replication of
//! the dead node's shards, and the crash-restart rejoin lifecycle — the
//! `repro cluster-failover` sweep measures detection time, availability
//! through the failure, and time-to-repair.
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
pub mod policy;
pub mod qos;
pub mod report;
pub mod service;
pub mod shard;
pub mod switch;

pub use driver::{ClusterConfig, ClusterDriver, ClusterNode, ClusterOutcome, Degrade, NodeFault};
pub use health::{
    BreakerState, HealthConfig, HealthMonitor, NodeState, SlowTransition, Transition,
};
pub use policy::{LbPolicy, NodeLoad};
pub use qos::{FairQueue, QosPolicy, QosQueue};
pub use report::{ClusterReport, NodePerf, PhasePerf, TenantPerf};
pub use service::{CacheDecision, Request, Service, SwiftMix};
pub use shard::HashRing;
pub use switch::{Lane, SwitchConfig, TorSwitch};

use dcs_sim::{ComponentId, FaultPlan, Rng, Simulator};
use dcs_workloads::build_testbed_nodes;

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
