//! The front end: the one request lifecycle every workload runs through.
//!
//! One [`ClusterDriver`] component plays the role of the datacenter's
//! front-end tier. Its [`Service`] draws open-loop arrivals (the rack's
//! Swift mix, or the store's YCSB tenants); the driver resolves each
//! object through the consistent-hash [`HashRing`], lets the service's
//! cache affinity or else the configured [`LbPolicy`] pick a replica,
//! and pushes the request through the [`TorSwitch`] to the chosen node,
//! where it runs as real simulated [`D2dJob`]s on that node's devices
//! (SSD → MD5 → NIC for reads, the reverse for writes, DRAM → NIC for a
//! cache hit).
//!
//! Overload is handled at admission: each node serves at most
//! `max_outstanding` requests with more parked in a per-node
//! [`QosQueue`] (FIFO bounded by `queue_cap` for one stream, weighted-fair
//! per tenant for several); beyond its bound a request is shed
//! immediately. Shedding bounds every queue in the system, so p99 latency
//! of *served* requests degrades gracefully instead of growing without
//! bound as offered load passes saturation.
//!
//! Whole-node failures ([`NodeFault`]) are tolerated by the health layer
//! (see [`crate::health`]), whatever the service:
//!
//! - every node is heartbeat-probed over the switch's strict-priority
//!   control lane; consecutive missed deadlines walk it Healthy → Suspect
//!   → Dead, at which point routing skips it, its in-flight requests are
//!   re-dispatched to surviving replicas (bounded retry budget), its
//!   admission queue is re-routed, and re-replication starts;
//! - reads may be *hedged*: after a p99-derived delay a second copy goes
//!   to another replica and the first completion wins;
//! - writes whose primary is unroutable fall back to a surviving replica
//!   (write availability), counted as `put_fallbacks`;
//! - re-replication copies the dead node's shard ranges to ring successors
//!   as a bandwidth-capped chunk stream that contends with foreground
//!   traffic on the switch ports;
//! - a crashed node that restarts comes back empty: whatever it still
//!   held fails over, and it rejoins through anti-entropy repair.
//!
//! Availability is accounted at *resolution*: every generated request ends
//! as served, denied (shed or unroutable), or lost (stranded on a failed
//! node with its retry budget spent), which is what the failover sweep's
//! before/during/after phase split reports.

use std::collections::{BTreeMap, VecDeque};

use dcs_host::cpu::{CpuJob, CpuJobDone, CpuStats};
use dcs_host::job::{D2dDone, D2dJob, D2dOp};
use dcs_ndp::NdpFunction;
use dcs_nic::TcpFlow;
use dcs_sim::{Bandwidth, Component, Ctx, Histogram, Msg, SimTime};
use dcs_workloads::gen::SizeDistribution;
use dcs_workloads::scenario::NodeRef;

use crate::health::{self, HealthConfig, HealthMonitor, NodeState, SlowTransition, Transition};
use crate::policy::{LbPolicy, NodeLoad};
use crate::qos::QosQueue;
use crate::report::{ClusterReport, NodePerf, PhasePerf, TenantPerf};
use crate::service::{CacheDecision, Request, Service};
use crate::shard::HashRing;
use crate::switch::{SwitchConfig, TorSwitch};

/// Bytes of a read request on the wire (headers only).
const GET_REQ_BYTES: usize = 512;
/// Header overhead on a write request (the payload rides along).
const PUT_REQ_OVERHEAD: usize = 512;
/// Response overhead on a read (headers + integrity digest).
const GET_RESP_OVERHEAD: usize = 256;
/// Bytes of a write acknowledgement.
const PUT_ACK_BYTES: usize = 128;
/// Blocks in each of a node's two 4 GiB flash windows (reads, writes).
const WINDOW_BLOCKS: u64 = (4u64 << 30) / 4096;

/// A mid-run node degradation: at `at_ns`, `node`'s switch port drops to
/// `factor` of its line rate (a flapping cable / half-dead transceiver).
/// Queue-aware policies reroute around it; round-robin keeps feeding it.
#[derive(Clone, Copy, Debug)]
pub struct Degrade {
    /// Node to degrade.
    pub node: usize,
    /// When to degrade it (absolute simulation time, ns).
    pub at_ns: u64,
    /// Remaining fraction of port speed (e.g. 0.1).
    // dcs-lint: allow(float-in-sim-state) — an input knob set before the run and never mutated
    pub factor: f64,
}

/// A whole-node failure injected mid-run. Unlike [`Degrade`] (a slow port)
/// or a [`FaultPlan`](dcs_sim::FaultPlan) (retried device errors), these
/// take requests down with the node — the cases the health layer exists
/// for.
#[derive(Clone, Copy, Debug)]
pub enum NodeFault {
    /// At `at_ns` (after traffic start) the node stops dead: requests in
    /// flight there are lost, nothing is accepted or completed afterwards.
    /// With `restart_at_ns` set the node comes back *empty* at that time
    /// and runs the rejoin lifecycle: `Joining` (unroutable, acks probes)
    /// → anti-entropy shard repair from surviving replicas → routable.
    Crash {
        /// Node to crash.
        node: usize,
        /// When to crash it, ns after traffic start.
        at_ns: u64,
        /// When (ns after traffic start, must be after `at_ns`) the node
        /// restarts and begins rejoining; `None` = it stays down.
        restart_at_ns: Option<u64>,
    },
    /// At `at_ns` the node freezes for `for_ns`: it keeps accepting bytes
    /// but completes nothing — and acks no probes — until the hang ends,
    /// at which point everything it swallowed resumes.
    Hang {
        /// Node to hang.
        node: usize,
        /// When to hang it, ns after traffic start.
        at_ns: u64,
        /// Hang duration, ns.
        for_ns: u64,
    },
    /// A *gray* failure: from `at_ns` for `for_ns` the node serves every
    /// request `factor`× slower (a dying SSD, thermal throttling, a
    /// runaway background job) while still acking every probe on time —
    /// the timeout detector is provably blind to it; only the
    /// differential (median-relative EWMA) detector sees it.
    FailSlow {
        /// Node to slow.
        node: usize,
        /// When the slowdown starts, ns after traffic start.
        at_ns: u64,
        /// Slowdown duration, ns.
        for_ns: u64,
        /// Service-latency multiplier (e.g. 10 = everything takes 10×).
        factor: u64,
    },
    /// A degraded ToR port: from `at_ns` for `for_ns` the node's switch
    /// port runs at `speed_pct`% of line rate (a flapping transceiver).
    /// Mild enough that probe acks still make their deadlines — another
    /// gray failure only the differential detector catches.
    LinkDegrade {
        /// Node whose port degrades.
        node: usize,
        /// When the degradation starts, ns after traffic start.
        at_ns: u64,
        /// Degradation duration, ns.
        for_ns: u64,
        /// Remaining port speed, percent of line rate (1..=100).
        speed_pct: u64,
    },
}

impl NodeFault {
    /// The faulted node.
    pub fn node(&self) -> usize {
        match *self {
            NodeFault::Crash { node, .. }
            | NodeFault::Hang { node, .. }
            | NodeFault::FailSlow { node, .. }
            | NodeFault::LinkDegrade { node, .. } => node,
        }
    }

    /// When the fault fires, ns after traffic start.
    pub fn at_ns(&self) -> u64 {
        match *self {
            NodeFault::Crash { at_ns, .. }
            | NodeFault::Hang { at_ns, .. }
            | NodeFault::FailSlow { at_ns, .. }
            | NodeFault::LinkDegrade { at_ns, .. } => at_ns,
        }
    }

    /// When the fault clears (ns after traffic start), for faults with a
    /// bounded window. `None` for a crash (a restart is a new lifecycle
    /// phase, not the fault clearing on its own).
    pub fn end_ns(&self) -> Option<u64> {
        match *self {
            NodeFault::Crash { .. } => None,
            NodeFault::Hang { at_ns, for_ns, .. }
            | NodeFault::FailSlow { at_ns, for_ns, .. }
            | NodeFault::LinkDegrade { at_ns, for_ns, .. } => Some(at_ns + for_ns),
        }
    }
}

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
    /// Optional mid-run node degradation.
    pub degrade: Option<Degrade>,
    /// Whole-node failures to inject.
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
            degrade: None,
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

/// Kickoff event for the front end (sent once by
/// [`build_cluster`](crate::build_cluster)).
#[derive(Debug)]
pub struct Start;
/// The next open-loop arrival of one stream.
#[derive(Debug)]
struct Arrival {
    stream: usize,
}
#[derive(Debug)]
struct WarmupOver;
#[derive(Debug)]
struct WindowOver;
#[derive(Debug)]
struct DegradeNow;
/// The request's bytes finished arriving at the node port: submit its jobs.
#[derive(Debug)]
struct Delivered {
    req: u64,
}
/// The response's bytes finished arriving back at the front end.
#[derive(Debug)]
struct Response {
    req: u64,
}
/// Heartbeat cadence: probe every node, then re-arm.
#[derive(Debug)]
struct ProbeTick;
/// A probe frame finished arriving at the node.
#[derive(Debug)]
struct ProbeDelivered {
    node: usize,
    seq: u64,
}
/// A probe ack finished arriving back at the front end.
#[derive(Debug)]
struct ProbeAck {
    node: usize,
    seq: u64,
}
/// The probe's deadline: no ack by now counts as a miss.
#[derive(Debug)]
struct ProbeDeadline {
    node: usize,
    seq: u64,
}
/// Fire the `idx`-th configured [`NodeFault`].
#[derive(Debug)]
struct NodeFaultAt {
    idx: usize,
}
/// The window of the `idx`-th configured [`NodeFault`] (a hang,
/// fail-slow or link degrade) elapsed.
#[derive(Debug)]
struct NodeFaultOver {
    idx: usize,
}
/// A crashed node's configured restart time: begin the rejoin lifecycle.
#[derive(Debug)]
struct RestartAt {
    node: usize,
}
/// The hedge delay for `req` elapsed: issue the second read if the first
/// has not resolved.
#[derive(Debug)]
struct HedgeFire {
    req: u64,
}
/// Pacing tick of a chunk stream: ship the next chunk.
#[derive(Debug)]
struct StreamChunk(StreamKind);
/// The last chunk of a stream was delivered.
#[derive(Debug)]
struct StreamDone(StreamKind);

/// The two east-west chunk streams.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StreamKind {
    /// Re-replication: survivors copy a dead node's shards to ring
    /// successors.
    Repair,
    /// Rejoin anti-entropy: survivors stream a restarted node's shards
    /// back to it (re-replication run in reverse).
    Rejoin,
}

/// A bandwidth-capped chunk stream between nodes over the switch ports,
/// contending with foreground traffic.
#[derive(Debug, Default)]
struct ChunkStream {
    /// Remaining `(src, dst, bytes)` transfers, drained front first.
    queue: VecDeque<(usize, usize, u64)>,
    bytes_sent: u64,
    last_delivery: SimTime,
    start_at: Option<SimTime>,
    done_at: Option<SimTime>,
    active: bool,
}

impl ChunkStream {
    /// Start-to-finish time, once the stream has run to completion.
    fn elapsed_ns(&self) -> Option<u64> {
        Some(self.done_at? - self.start_at?)
    }
}

/// A generated request not yet dispatched (parked at admission).
#[derive(Debug)]
struct Pending<Op> {
    req: Request<Op>,
    arrival: SimTime,
    /// Remaining failover re-dispatches if the serving node dies.
    retries_left: u32,
}

/// A dispatched request leg (a hedged read has two, linked by `partner`).
#[derive(Debug)]
struct InFlight<Op> {
    req: Request<Op>,
    node: usize,
    slot: usize,
    arrival: SimTime,
    /// When this leg left the front end for its node. Per-leg latency is
    /// measured from here, not from `arrival`: a hedge leg fired after a
    /// long hedge delay must not charge that wait to the healthy node
    /// serving it, or every node's EWMA rises with the victim's and the
    /// differential detector loses its outlier.
    dispatched_at: SimTime,
    /// When the node actually started serving (jobs submitted); the
    /// fail-slow hold scales the span between this and job completion.
    served_at: SimTime,
    pending_jobs: usize,
    failed: bool,
    /// The node-cache decision taken at dispatch, if the request was
    /// cacheable.
    cache: Option<CacheDecision>,
    /// This leg is the hedged second copy.
    is_hedge: bool,
    /// The other leg of the same logical request, while both are live.
    partner: Option<u64>,
    retries_left: u32,
    /// The other leg already resolved the request: on completion just
    /// release resources, tally nothing.
    orphaned: bool,
}

/// One resolved request, kept (only when node faults are configured) for
/// the before/during/after phase split.
#[derive(Clone, Copy, Debug)]
struct Rec {
    /// Arrival time, absolute ns.
    at_ns: u64,
    ok: bool,
    latency_ns: u64,
}

/// The front-end component, running the workload `S` supplies.
pub struct ClusterDriver<S: Service> {
    cfg: ClusterConfig,
    nodes: Vec<ClusterNode>,
    switch: TorSwitch,
    ring: HashRing,
    svc: S,
    /// Flash blocks per object slot, sized by the service's largest
    /// object.
    slot_blocks: u64,
    // Admission state, indexed by node.
    outstanding: Vec<usize>,
    queues: Vec<QosQueue<Pending<S::Op>>>,
    free_slots: Vec<Vec<usize>>,
    rr_cursor: usize,
    // Request tracking.
    inflight: BTreeMap<u64, InFlight<S::Op>>,
    job_to_req: BTreeMap<u64, u64>,
    next_req: u64,
    next_job_id: u64,
    // Health and node-fault state, indexed by node.
    health: HealthMonitor,
    crashed: Vec<bool>,
    hung_until: Vec<Option<SimTime>>,
    /// Requests delivered to a hung node, waiting for it to wake.
    held_jobs: Vec<Vec<u64>>,
    /// Responses computed on a node that hung before shipping them.
    held_responses: Vec<Vec<u64>>,
    /// Probe seqs swallowed by a hung node, acked when it wakes.
    held_probes: Vec<Vec<u64>>,
    probe_seq: u64,
    last_ack: Vec<u64>,
    /// Nodes that failed a request since the last probe tick (exhausted-
    /// burst attribution).
    node_fail_marks: Vec<bool>,
    last_exhausted: u64,
    /// Nodes that served a request since the last probe tick (contained-
    /// burst attribution).
    node_serve_marks: Vec<bool>,
    last_contained: u64,
    /// First configured fault, for detection/phase accounting.
    fault_at_abs: u64,
    fault_node: usize,
    detected_at: Option<SimTime>,
    /// When the first fault's window clears (hang / fail-slow / link
    /// degrade), for the phase split.
    fault_end_abs: Option<u64>,
    /// Active fail-slow multiplier per node.
    fail_slow: Vec<Option<u64>>,
    /// When the first fault's node was marked Slow by the differential
    /// detector (gray-failure detection latency).
    slow_detected_at: Option<SimTime>,
    slow_evictions: u64,
    slow_readmissions: u64,
    // Re-replication state.
    repair_started: Vec<bool>,
    repair: ChunkStream,
    rejoin: ChunkStream,
    /// The node currently rejoining (at most one crash-restart per run is
    /// scheduled by the sweeps, but the queue tags (src, dst) anyway).
    rejoin_node: Option<usize>,
    /// Report built at window close, held until no stream is running.
    report_pending: Option<ClusterReport>,
    // Measurement.
    measuring: bool,
    window_closed: bool,
    measure_start: SimTime,
    latency: Histogram,
    requests: u64,
    bytes: u64,
    rejected: u64,
    failures: u64,
    get_ok: u64,
    get_denied: u64,
    put_ok: u64,
    put_denied: u64,
    hedged: u64,
    hedge_wins: u64,
    retried: u64,
    lost: u64,
    put_fallbacks: u64,
    degraded_marks: u64,
    cache_hits: u64,
    cache_misses: u64,
    records: Vec<Rec>,
    per_node: Vec<NodePerf>,
    per_tenant: Vec<TenantPerf>,
}

impl<S: Service> ClusterDriver<S> {
    /// Creates the front end over `nodes` (one entry per cluster node),
    /// serving the workload `svc`.
    pub fn new(cfg: ClusterConfig, nodes: Vec<ClusterNode>, svc: S) -> ClusterDriver<S> {
        assert_eq!(cfg.nodes, nodes.len(), "node list must match config");
        assert!(cfg.max_outstanding > 0, "admission needs at least one slot");
        let n = nodes.len();
        let switch = TorSwitch::new(n, cfg.switch.clone());
        let ring = HashRing::new(n, cfg.vnodes_per_node, cfg.replication);
        let health = HealthMonitor::new(&cfg.health, n);
        let (qos, weights) = svc.queue();
        ClusterDriver {
            switch,
            ring,
            slot_blocks: svc.max_object_bytes().div_ceil(4096) as u64,
            outstanding: vec![0; n],
            queues: (0..n)
                .map(|_| QosQueue::new(qos, &weights, cfg.queue_cap))
                .collect(),
            free_slots: (0..n)
                .map(|_| (0..cfg.max_outstanding).rev().collect())
                .collect(),
            rr_cursor: 0,
            inflight: BTreeMap::new(),
            job_to_req: BTreeMap::new(),
            next_req: 1,
            next_job_id: 1,
            health,
            crashed: vec![false; n],
            hung_until: vec![None; n],
            held_jobs: vec![Vec::new(); n],
            held_responses: vec![Vec::new(); n],
            held_probes: vec![Vec::new(); n],
            probe_seq: 0,
            last_ack: vec![0; n],
            node_fail_marks: vec![false; n],
            last_exhausted: 0,
            node_serve_marks: vec![false; n],
            last_contained: 0,
            fault_at_abs: u64::MAX,
            fault_node: usize::MAX,
            detected_at: None,
            fault_end_abs: None,
            fail_slow: vec![None; n],
            slow_detected_at: None,
            slow_evictions: 0,
            slow_readmissions: 0,
            repair_started: vec![false; n],
            repair: ChunkStream::default(),
            rejoin: ChunkStream::default(),
            rejoin_node: None,
            report_pending: None,
            measuring: false,
            window_closed: false,
            measure_start: SimTime::ZERO,
            latency: Histogram::new(),
            requests: 0,
            bytes: 0,
            rejected: 0,
            failures: 0,
            get_ok: 0,
            get_denied: 0,
            put_ok: 0,
            put_denied: 0,
            hedged: 0,
            hedge_wins: 0,
            retried: 0,
            lost: 0,
            put_fallbacks: 0,
            degraded_marks: 0,
            cache_hits: 0,
            cache_misses: 0,
            records: Vec::new(),
            per_node: vec![NodePerf::default(); n],
            per_tenant: svc.tenants(),
            svc,
            cfg,
            nodes,
        }
    }

    /// Maps an object to its LBA inside a node's flash window. Reads and
    /// writes use disjoint 4 GiB windows so reads never race writes.
    fn lba_for(&self, object: u64, read: bool) -> u64 {
        let slots = (WINDOW_BLOCKS / self.slot_blocks).max(1);
        let base = if read { 0 } else { WINDOW_BLOCKS };
        base + (object % slots) * self.slot_blocks
    }

    fn load(&self, n: usize) -> NodeLoad {
        NodeLoad {
            outstanding: self.outstanding[n],
            queued: self.queues[n].len(),
            // A Slow node stays routable but queue-aware policies see it
            // carrying phantom load, steering new work to faster replicas
            // first.
            penalty: if self.cfg.health.enabled && self.health.state(n) == NodeState::Slow {
                health::SLOW_LOAD_PENALTY
            } else {
                0
            },
        }
    }

    /// The configured policy's pick among `candidates`; only their loads
    /// are read.
    fn pick(&mut self, candidates: &[usize]) -> usize {
        let mut cursor = self.rr_cursor;
        let node = self
            .cfg
            .policy
            .choose_by(candidates, |n| self.load(n), &mut cursor);
        self.rr_cursor = cursor;
        node
    }

    fn tally_active(&self) -> bool {
        self.measuring && !self.window_closed
    }

    /// Is the node currently swallowing work (crashed or mid-hang)?
    fn stuck(&self, node: usize) -> bool {
        self.crashed[node] || self.hung_until[node].is_some()
    }

    fn push_record(&mut self, arrival: SimTime, ok: bool, latency_ns: u64) {
        if self.cfg.node_faults.is_empty() {
            return;
        }
        self.records.push(Rec {
            at_ns: arrival.as_nanos(),
            ok,
            latency_ns,
        });
    }

    /// Tallies a request that arrived at `arrival` and was not served.
    fn tally_denied(&mut self, req: &Request<S::Op>, arrival: SimTime) {
        if req.write {
            self.put_denied += 1;
        } else {
            self.get_denied += 1;
        }
        if let Some(t) = self.per_tenant.get_mut(req.stream) {
            t.denied += 1;
        }
        self.push_record(arrival, false, 0);
    }

    /// A request resolved without being served: shed/unroutable (`lost ==
    /// false`) or gone down with a failed node (`lost == true`).
    fn note_denied(&mut self, pend: &Pending<S::Op>, node: Option<usize>, lost: bool) {
        if !self.tally_active() {
            return;
        }
        self.tally_denied(&pend.req, pend.arrival);
        if lost {
            self.lost += 1;
            if let Some(n) = node {
                self.per_node[n].lost += 1;
            }
        } else {
            self.rejected += 1;
            if let Some(n) = node {
                self.per_node[n].rejected += 1;
            }
        }
    }

    /// One open-loop arrival on `stream`: draw the request and route it.
    fn on_arrival(&mut self, ctx: &mut Ctx<'_>, stream: usize) {
        let mut req = self.svc.draw(stream);
        if !req.write {
            // A long read (a scan) must not run off the read window's
            // edge.
            let room = (WINDOW_BLOCKS - self.lba_for(req.object, true)) * 4096;
            req.len = req.len.min(room as usize);
        }
        let pend = Pending {
            req,
            arrival: ctx.now(),
            // Failover is part of the health layer: with it off, a
            // request stranded on a failed node is simply lost.
            retries_left: if self.cfg.health.enabled {
                health::REQUEST_RETRIES
            } else {
                0
            },
        };
        self.route_and_admit(ctx, pend);
    }

    /// Picks a replica for `pend` (skipping Dead / Joining / breaker-open
    /// nodes), then admits, queues, or sheds it.
    fn route_and_admit(&mut self, ctx: &mut Ctx<'_>, pend: Pending<S::Op>) {
        let mask = if self.cfg.health.enabled {
            self.health.unroutable_mask(ctx.now())
        } else {
            vec![false; self.nodes.len()]
        };
        let node = if !pend.req.write {
            let candidates = self.ring.replicas_excluding(pend.req.object, &mask);
            if candidates.is_empty() {
                ctx.world().stats.counter(S::UNROUTABLE).add(1);
                self.note_denied(&pend, None, false);
                return;
            }
            match self.svc.affinity(&pend.req, &candidates) {
                Some(n) => n,
                None => self.pick(&candidates),
            }
        } else {
            // Writes pin to the primary; with the primary unroutable they
            // fall back to the next surviving replica in ring order. A
            // Slow primary keeps its in-flight work but takes no *new*
            // write leadership while a faster replica survives.
            let replicas = self.ring.replicas(pend.req.object);
            let not_slow = |n: usize| self.health.state(n) != NodeState::Slow;
            let Some(&node) = replicas
                .iter()
                .find(|&&n| !mask[n] && not_slow(n))
                .or_else(|| replicas.iter().find(|&&n| !mask[n]))
            else {
                ctx.world().stats.counter(S::UNROUTABLE).add(1);
                self.note_denied(&pend, None, false);
                return;
            };
            if node != replicas[0] && self.tally_active() {
                self.put_fallbacks += 1;
            }
            node
        };
        if self.outstanding[node] < self.cfg.max_outstanding {
            self.dispatch(ctx, node, pend, None);
            return;
        }
        let (stream, cost) = (pend.req.stream, pend.req.len as f64);
        match self.queues[node].try_push(stream, cost, pend) {
            Ok(()) => {}
            Err(pend) => {
                // The stream's queue bound is full: shed at the front
                // end, graceful overload.
                ctx.world().stats.counter(S::SHED).add(1);
                self.note_denied(&pend, Some(node), false);
            }
        }
    }

    /// Takes the cache decision for `pend` on `node` and sends the
    /// request's bytes through the switch; its jobs are submitted when
    /// the transfer completes. `hedge_of` links a hedged second leg back
    /// to its primary.
    fn dispatch(
        &mut self,
        ctx: &mut Ctx<'_>,
        node: usize,
        pend: Pending<S::Op>,
        hedge_of: Option<u64>,
    ) -> u64 {
        let slot = self.free_slots[node]
            .pop()
            .expect("outstanding < max implies a free slot");
        self.outstanding[node] += 1;
        if self.cfg.health.enabled {
            self.health.on_dispatch(node);
            self.node_serve_marks[node] = true;
        }
        let req = self.next_req;
        self.next_req += 1;
        let cache = self.svc.decide(ctx, node, &pend.req);
        let write = pend.req.write;
        let wire_bytes = if write {
            pend.req.len + PUT_REQ_OVERHEAD
        } else {
            GET_REQ_BYTES
        };
        let lane = self.svc.lane(pend.req.stream);
        self.inflight.insert(
            req,
            InFlight {
                req: pend.req,
                node,
                slot,
                arrival: pend.arrival,
                dispatched_at: ctx.now(),
                served_at: pend.arrival,
                pending_jobs: 0,
                failed: false,
                cache,
                is_hedge: hedge_of.is_some(),
                partner: hedge_of,
                retries_left: pend.retries_left,
                orphaned: false,
            },
        );
        let deliver = self
            .switch
            .send_to_node_lane(ctx.now(), node, wire_bytes, lane);
        {
            let now = ctx.now();
            let obs = &mut ctx.world().obs;
            obs.span(S::LABEL, "uplink", req, now, deliver);
            // Read by the benchmark's `cluster.dispatched`
            // (`benchmark/src/run.rs`).
            obs.count(S::LABEL, "dispatched", 1);
        }
        ctx.send_at(deliver, ctx.self_id(), Delivered { req });
        let h = &self.cfg.health;
        if h.enabled && !write && hedge_of.is_none() && self.ring.replication() > 1 {
            ctx.send_self_in(self.hedge_delay(node), HedgeFire { req });
        }
        req
    }

    /// How long to wait before hedging a read on `node`: the minimum
    /// against a Suspect, Degraded, or Slow node, else the measured p99
    /// (clamped) once the histogram has signal, else the configured
    /// default.
    fn hedge_delay(&self, node: usize) -> u64 {
        let h = &self.cfg.health;
        if matches!(
            self.health.state(node),
            NodeState::Suspect | NodeState::Degraded | NodeState::Slow
        ) {
            return health::HEDGE_MIN_NS;
        }
        if self.latency.count() >= 64 {
            if let Some(p99) = self.latency.percentile(99.0) {
                return p99.clamp(health::HEDGE_MIN_NS, h.hedge_max_ns);
            }
        }
        h.hedge_default_ns
    }

    /// The hedge delay elapsed: issue the second leg if the primary is
    /// still unresolved and another replica has a free slot.
    fn on_hedge_fire(&mut self, ctx: &mut Ctx<'_>, req: u64) {
        if self.window_closed {
            return;
        }
        let (node, request, arrival) = match self.inflight.get(&req) {
            Some(r) if !r.orphaned && r.partner.is_none() => (r.node, r.req, r.arrival),
            _ => return,
        };
        let mask = self.health.unroutable_mask(ctx.now());
        let candidates: Vec<usize> = self
            .ring
            .replicas_excluding(request.object, &mask)
            .into_iter()
            .filter(|&n| n != node && self.outstanding[n] < self.cfg.max_outstanding)
            .collect();
        if candidates.is_empty() {
            return;
        }
        let target = self.pick(&candidates);
        let pend = Pending {
            req: request,
            arrival,
            retries_left: 0,
        };
        let hedge = self.dispatch(ctx, target, pend, Some(req));
        self.inflight
            .get_mut(&req)
            .expect("primary leg is in flight")
            .partner = Some(hedge);
        if self.tally_active() {
            self.hedged += 1;
        }
        ctx.world().stats.counter("cluster.hedged").add(1);
    }

    /// The request reached the node port. A healthy node runs it; a
    /// crashed node swallows it (stranded until failover sweeps it); a
    /// hung node parks it until the hang ends.
    fn on_delivered(&mut self, ctx: &mut Ctx<'_>, req: u64) {
        let Some(r) = self.inflight.get(&req) else {
            assert!(
                !self.cfg.node_faults.is_empty(),
                "delivered request is in flight"
            );
            return;
        };
        let node = r.node;
        if self.crashed[node] {
            return;
        }
        if self.hung_until[node].is_some() {
            self.held_jobs[node].push(req);
            return;
        }
        self.submit_jobs(ctx, req);
    }

    /// Runs the request as real device jobs on its node.
    fn submit_jobs(&mut self, ctx: &mut Ctx<'_>, req: u64) {
        let (node, slot, len, write, object, hit) = {
            let r = self
                .inflight
                .get(&req)
                .expect("submitted request is in flight");
            let hit = r.cache.is_some_and(|c| c.hit);
            (r.node, r.slot, r.req.len, r.req.write, r.req.object, hit)
        };
        let lba = self.lba_for(object, !write);
        let (job_tag, app_tag) = self.svc.tags(write, hit);
        let server = &self.nodes[node].server;
        let access = &self.nodes[node].access;
        let reply_to = ctx.self_id();
        let mut id = || {
            let i = self.next_job_id;
            self.next_job_id += 1;
            i
        };
        let slot16 = u16::try_from(slot).expect("slot fits a port");
        let jobs: Vec<(dcs_sim::ComponentId, D2dJob)> = if !write {
            // Server: flash → integrity hash → downlink, or DRAM →
            // downlink on a cache hit (hashed at admission). Access:
            // receive.
            let flow = TcpFlow::example(1, 2, 20_000 + slot16, 8_000 + slot16);
            let server_ops = if hit {
                vec![D2dOp::MemRead { len }, D2dOp::NicSend { flow, seq: 0 }]
            } else {
                vec![
                    D2dOp::SsdRead { ssd: 0, lba, len },
                    D2dOp::Process {
                        function: NdpFunction::Md5,
                        aux: vec![],
                    },
                    D2dOp::NicSend { flow, seq: 0 },
                ]
            };
            vec![
                (
                    access.submit_to,
                    D2dJob {
                        id: id(),
                        ops: vec![D2dOp::NicRecv {
                            flow: flow.reversed(),
                            len,
                        }],
                        reply_to,
                        tag: "access",
                    },
                ),
                (
                    server.submit_to,
                    D2dJob {
                        id: id(),
                        ops: server_ops,
                        reply_to,
                        tag: job_tag,
                    },
                ),
            ]
        } else {
            // Access streams the body down the node link; server receives,
            // verifies, persists.
            let flow = TcpFlow::example(2, 1, 30_000 + slot16, 8_100 + slot16);
            vec![
                (
                    server.submit_to,
                    D2dJob {
                        id: id(),
                        ops: vec![
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
                        reply_to,
                        tag: job_tag,
                    },
                ),
                (
                    access.submit_to,
                    D2dJob {
                        id: id(),
                        ops: vec![
                            D2dOp::SsdRead { ssd: 0, lba, len },
                            D2dOp::NicSend { flow, seq: 0 },
                        ],
                        reply_to,
                        tag: "access",
                    },
                ),
            ]
        };
        // Front-end/application CPU work on the server (request parsing,
        // HTTP), identical across designs.
        ctx.send_now(
            server.cpu,
            CpuJob {
                token: u64::MAX - req,
                cost_ns: 80_000 + (len / 10) as u64,
                tag: app_tag,
                reply_to,
            },
        );
        let r = self.inflight.get_mut(&req).expect("still in flight");
        r.pending_jobs = jobs.len();
        r.served_at = ctx.now();
        {
            let now = ctx.now();
            ctx.world().obs.span_begin(S::LABEL, "node-serve", req, now);
        }
        for (target, job) in jobs {
            self.job_to_req.insert(job.id, req);
            ctx.send_now(target, job);
        }
    }

    fn on_job_done(&mut self, ctx: &mut Ctx<'_>, done: D2dDone) {
        let Some(req) = self.job_to_req.remove(&done.id) else {
            // Jobs of a failed-over request: its legs were swept already.
            assert!(
                !self.cfg.node_faults.is_empty(),
                "completion for unknown job {}",
                done.id
            );
            return;
        };
        let finished = {
            let r = self.inflight.get_mut(&req).expect("live request");
            r.pending_jobs -= 1;
            r.failed |= !done.ok;
            r.pending_jobs == 0
        };
        if !finished {
            return;
        }
        let node = self.inflight[&req].node;
        if self.crashed[node] {
            // The response dies with the node.
            return;
        }
        if self.hung_until[node].is_some() {
            self.held_responses[node].push(req);
            return;
        }
        self.ship_response(ctx, req);
    }

    /// All jobs done: ship the response back up through the switch. On a
    /// fail-slow node the response is *held* first: the node's whole
    /// service span is stretched by the configured factor (while its
    /// probe acks, which never touch the data path, stay on time).
    fn ship_response(&mut self, ctx: &mut Ctx<'_>, req: u64) {
        let (node, req_shape, served_at) = {
            let r = &self.inflight[&req];
            (r.node, r.req, r.served_at)
        };
        let resp_bytes = if req_shape.write {
            PUT_ACK_BYTES
        } else {
            req_shape.len + GET_RESP_OVERHEAD
        };
        let lane = self.svc.lane(req_shape.stream);
        let arrive = self
            .switch
            .send_to_frontend_lane(ctx.now(), node, resp_bytes, lane);
        let arrive = match self.fail_slow[node] {
            // factor × span: the span already elapsed once, so the hold
            // adds the remaining (factor - 1) multiples. Pure integer
            // arithmetic keeps the schedule bit-identical across runs.
            Some(factor) => arrive + ctx.now().saturating_since(served_at) * (factor - 1),
            None => arrive,
        };
        {
            let now = ctx.now();
            let obs = &mut ctx.world().obs;
            obs.span_end(S::LABEL, "node-serve", req, now);
            obs.span(S::LABEL, "downlink", req, now, arrive);
        }
        ctx.send_at(arrive, ctx.self_id(), Response { req });
    }

    fn on_response(&mut self, ctx: &mut Ctx<'_>, req: u64) {
        let Some(r) = self.inflight.remove(&req) else {
            // The leg was swept by failover between completion and arrival.
            assert!(
                !self.cfg.node_faults.is_empty(),
                "responding request is in flight"
            );
            return;
        };
        self.free_leg(&r);
        // The freed slot admits the queue's next pick, before the served
        // leg's effects land.
        if !self.window_closed {
            if let Some((_, pend)) = self.queues[r.node].pop() {
                let waited = ctx.now() - pend.arrival;
                ctx.world()
                    .obs
                    .observe(S::LABEL, "qos.queue_wait_ns", waited);
                self.dispatch(ctx, r.node, pend, None);
            }
        }
        if !r.failed {
            self.svc.commit(ctx, r.node, &r.req, r.cache);
        }
        // Every completed leg — orphaned hedges included — is a genuine
        // observation of its node's service speed; a fail-slow node's
        // legs mostly lose their hedges, so skipping orphans would starve
        // exactly the EWMA that needs the signal. Measured per leg (from
        // dispatch, not request arrival) so a slow node's waits are
        // charged only to it — see `InFlight::dispatched_at`.
        if self.cfg.health.enabled && !r.failed {
            self.health
                .record_latency(r.node, ctx.now().saturating_since(r.dispatched_at));
        }
        if r.orphaned {
            // The other leg already resolved the request.
            return;
        }
        // This leg wins: the partner (if still live) becomes the orphan.
        if let Some(p) = r.partner {
            if let Some(pr) = self.inflight.get_mut(&p) {
                pr.orphaned = true;
                pr.partner = None;
            }
        }
        if self.cfg.health.enabled {
            if r.failed {
                self.health.on_request_failure(r.node, ctx.now());
                self.node_fail_marks[r.node] = true;
            } else {
                self.health.on_request_success(r.node);
            }
        }
        if !self.tally_active() {
            return;
        }
        if r.failed {
            self.failures += 1;
            self.per_node[r.node].failures += 1;
            self.tally_denied(&r.req, r.arrival);
            return;
        }
        let perf = &mut self.per_node[r.node];
        let tenant = self.per_tenant.get_mut(r.req.stream);
        let len = r.req.len as u64;
        self.requests += 1;
        self.bytes += len;
        perf.requests += 1;
        perf.bytes += len;
        let lat = ctx.now() - r.arrival;
        self.latency.record(lat);
        if r.req.write {
            self.put_ok += 1;
        } else {
            self.get_ok += 1;
        }
        if r.is_hedge {
            self.hedge_wins += 1;
        }
        if let Some(c) = r.cache {
            if c.hit {
                self.cache_hits += 1;
            } else {
                self.cache_misses += 1;
            }
        }
        if let Some(t) = tenant {
            t.ok += 1;
            t.bytes += len;
            t.latency.record(lat);
            if t.slo_ns == 0 || lat <= t.slo_ns {
                t.slo_met += 1;
            }
            match r.cache {
                Some(c) if c.hit => t.cache_hits += 1,
                Some(_) => t.cache_misses += 1,
                None => {}
            }
        }
        self.push_record(r.arrival, true, lat);
    }

    // ------------------------------------------------------------------
    // Probing and node-fault handling.
    // ------------------------------------------------------------------

    fn on_probe_tick(&mut self, ctx: &mut Ctx<'_>) {
        if self.window_closed {
            return;
        }
        // A jump in the cluster-wide retry-exhaustion tally is a fault
        // storm: nodes that failed requests since the last tick turn
        // Suspect immediately instead of waiting out probe deadlines.
        let cur = dcs_sim::fault::exhausted_total(ctx.world_ref());
        if cur.saturating_sub(self.last_exhausted) >= health::EXHAUSTED_BURST {
            for node in 0..self.nodes.len() {
                if self.node_fail_marks[node] {
                    self.health.on_exhausted_burst(node, ctx.now());
                }
            }
        }
        self.last_exhausted = cur;
        self.node_fail_marks.iter_mut().for_each(|m| *m = false);
        // A jump in the *contained*-fault tally (corruptions detected and
        // recovered in place: ECRC replays, completion-entry rewrites,
        // device resets) marks the nodes that were serving Degraded — not
        // Suspect, and never Dead: every one of those errors was caught.
        let contained = dcs_sim::fault::contained_total(ctx.world_ref());
        if contained.saturating_sub(self.last_contained) >= health::CONTAINED_BURST {
            for node in 0..self.nodes.len() {
                if self.node_serve_marks[node] {
                    if self.health.state(node) == NodeState::Healthy {
                        ctx.world().stats.counter("cluster.nodes_degraded").add(1);
                        self.degraded_marks += 1;
                    }
                    self.health.on_contained_burst(node);
                }
            }
        }
        self.last_contained = contained;
        self.node_serve_marks.iter_mut().for_each(|m| *m = false);
        // Differential gray-failure detection: one median-relative EWMA
        // evaluation per tick, with hysteresis inside the monitor.
        for t in self.health.evaluate_slow() {
            match t {
                SlowTransition::Slowed(node) => {
                    ctx.world().stats.counter("cluster.node_slow").add(1);
                    self.slow_evictions += 1;
                    if self.slow_detected_at.is_none() && node == self.fault_node {
                        self.slow_detected_at = Some(ctx.now());
                    }
                }
                SlowTransition::Readmitted(_) => {
                    ctx.world().stats.counter("cluster.node_readmitted").add(1);
                    self.slow_readmissions += 1;
                }
            }
        }
        for node in 0..self.nodes.len() {
            self.probe_seq += 1;
            let seq = self.probe_seq;
            let oneway = self.switch.control_oneway_ns(node, health::PROBE_BYTES);
            ctx.send_self_in(oneway, ProbeDelivered { node, seq });
            ctx.send_self_in(
                self.cfg.health.probe_timeout_ns,
                ProbeDeadline { node, seq },
            );
        }
        ctx.send_self_in(health::PROBE_PERIOD_NS, ProbeTick);
    }

    fn on_probe_delivered(&mut self, ctx: &mut Ctx<'_>, node: usize, seq: u64) {
        if self.crashed[node] {
            return;
        }
        if self.hung_until[node].is_some() {
            self.held_probes[node].push(seq);
            return;
        }
        let oneway = self.switch.control_oneway_ns(node, health::PROBE_BYTES);
        ctx.send_self_in(oneway, ProbeAck { node, seq });
    }

    fn on_probe_ack(&mut self, ctx: &mut Ctx<'_>, node: usize, seq: u64) {
        if seq > self.last_ack[node] {
            self.last_ack[node] = seq;
        }
        // The Revived transition flips the routing state by itself; the
        // resume counters live in `resume_node`, the single code path
        // through which every node comes back (hang wake-up or crash
        // rejoin).
        let _: Option<Transition> = self.health.on_probe_ack(node, ctx.now());
    }

    fn on_probe_deadline(&mut self, ctx: &mut Ctx<'_>, node: usize, seq: u64) {
        if self.last_ack[node] >= seq {
            return;
        }
        if self.health.on_probe_miss(node, ctx.now()) == Some(Transition::Died) {
            self.on_node_dead(ctx, node);
        }
    }

    /// The suspicion score crossed the kill threshold: fail over
    /// everything the node holds and start re-replicating its shards.
    fn on_node_dead(&mut self, ctx: &mut Ctx<'_>, node: usize) {
        if self.detected_at.is_none() && node == self.fault_node {
            self.detected_at = Some(ctx.now());
        }
        ctx.world().stats.counter("cluster.node_dead").add(1);
        self.evacuate(ctx, node);
        self.start_repair(ctx, node);
    }

    /// Fails over every leg still assigned to `node`, forgets whatever it
    /// was holding, and re-routes its admission queue (to survivors, once
    /// the routing mask excludes it).
    fn evacuate(&mut self, ctx: &mut Ctx<'_>, node: usize) {
        let swept: Vec<u64> = self
            .inflight
            .iter()
            .filter(|(_, r)| r.node == node)
            .map(|(&k, _)| k)
            .collect();
        for req in swept {
            self.fail_over(ctx, req);
        }
        self.held_jobs[node].clear();
        self.held_responses[node].clear();
        self.held_probes[node].clear();
        for (_, pend) in self.queues[node].drain() {
            self.route_and_admit(ctx, pend);
        }
    }

    /// Releases one in-flight leg of a dead node and re-dispatches or
    /// resolves the request it carried.
    fn fail_over(&mut self, ctx: &mut Ctx<'_>, req: u64) {
        let Some(r) = self.inflight.remove(&req) else {
            return;
        };
        self.free_leg(&r);
        self.job_to_req.retain(|_, v| *v != req);
        if r.orphaned {
            return;
        }
        // A live hedge partner finishes the request on its own.
        if let Some(p) = r.partner {
            if let Some(pr) = self.inflight.get_mut(&p) {
                pr.partner = None;
                return;
            }
        }
        let pend = Pending {
            req: r.req,
            arrival: r.arrival,
            retries_left: r.retries_left.saturating_sub(1),
        };
        if r.retries_left > 0 {
            if self.tally_active() {
                self.retried += 1;
            }
            ctx.world().stats.counter(S::RETRIED).add(1);
            self.route_and_admit(ctx, pend);
        } else {
            self.note_denied(&pend, Some(r.node), true);
        }
    }

    fn on_node_fault(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let fault = self.cfg.node_faults[idx];
        match fault {
            NodeFault::Crash { node, .. } => {
                self.crashed[node] = true;
                self.svc.on_crash(node);
                ctx.world().stats.counter("cluster.node_crash").add(1);
            }
            NodeFault::Hang { node, for_ns, .. } => {
                self.hung_until[node] = Some(ctx.now() + for_ns);
                ctx.world().stats.counter("cluster.node_hang").add(1);
            }
            NodeFault::FailSlow { node, factor, .. } => {
                self.fail_slow[node] = Some(factor);
                ctx.world().stats.counter("cluster.node_fail_slow").add(1);
            }
            NodeFault::LinkDegrade {
                node, speed_pct, ..
            } => {
                self.switch
                    .set_node_speed_factor(node, speed_pct as f64 / 100.0);
                ctx.world().stats.counter("cluster.link_degraded").add(1);
            }
        }
        if let Some(end) = fault.end_ns() {
            ctx.send_self_in(end - fault.at_ns(), NodeFaultOver { idx });
        }
    }

    /// A bounded fault's window elapsed: a hung node resumes where it
    /// froze, a slow node's service latency normalizes, a degraded port
    /// recovers line rate.
    fn on_node_fault_over(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        match self.cfg.node_faults[idx] {
            NodeFault::Hang { node, .. } => self.resume_node(ctx, node, "cluster.node_revived"),
            NodeFault::FailSlow { node, .. } => self.fail_slow[node] = None,
            NodeFault::LinkDegrade { node, .. } => self.switch.set_node_speed_factor(node, 1.0),
            // A crash has no window: it ends at its restart, if any.
            NodeFault::Crash { .. } => {}
        }
    }

    /// The single path through which an unavailable node comes back:
    /// everything it swallowed resumes — parked requests run, finished
    /// responses ship, swallowed probes ack (which revives a node already
    /// declared Dead) — and the lifecycle's own `counter` fires
    /// (`cluster.node_revived` after a hang, `cluster.node_rejoined` after
    /// a crash-restart's rejoin).
    fn resume_node(&mut self, ctx: &mut Ctx<'_>, node: usize, counter: &'static str) {
        self.hung_until[node] = None;
        let held = std::mem::take(&mut self.held_jobs[node]);
        for req in held {
            if self.inflight.contains_key(&req) {
                self.submit_jobs(ctx, req);
            }
        }
        let resp = std::mem::take(&mut self.held_responses[node]);
        for req in resp {
            if self.inflight.contains_key(&req) {
                self.ship_response(ctx, req);
            }
        }
        let probes = std::mem::take(&mut self.held_probes[node]);
        let oneway = self.switch.control_oneway_ns(node, health::PROBE_BYTES);
        for seq in probes {
            ctx.send_self_in(oneway, ProbeAck { node, seq });
        }
        ctx.world().stats.counter(counter).add(1);
    }

    // ------------------------------------------------------------------
    // Re-replication.
    // ------------------------------------------------------------------

    /// Plans the repair of `node`'s shards: for every object replicated on
    /// it, a surviving replica streams a copy to the first ring successor
    /// outside the replica set. Transfers aggregate per (src, dst) pair
    /// and drain as a bandwidth-capped chunk stream.
    fn start_repair(&mut self, ctx: &mut Ctx<'_>, node: usize) {
        if self.repair_started[node] {
            return;
        }
        self.repair_started[node] = true;
        let mut transfers: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        for (object, object_bytes) in self.svc.objects() {
            let replicas = self.ring.replicas(object);
            if !replicas.contains(&node) {
                continue;
            }
            let alive = |n: usize| self.health.state(n) != NodeState::Dead;
            let Some(&src) = replicas.iter().find(|&&n| n != node && alive(n)) else {
                continue; // every replica is gone: nothing left to copy
            };
            let pref = self.ring.preference_list(object, self.nodes.len());
            let Some(&dst) = pref.iter().find(|&&n| !replicas.contains(&n) && alive(n)) else {
                continue; // no surviving successor to hold the new copy
            };
            *transfers.entry((src, dst)).or_insert(0) += object_bytes;
        }
        if transfers.is_empty() {
            return;
        }
        self.repair.start_at.get_or_insert(ctx.now());
        let transfers = transfers.into_iter().map(|((src, dst), b)| (src, dst, b));
        self.enqueue(ctx, StreamKind::Repair, transfers);
    }

    /// Queues `transfers` on the `kind` stream, starting it if idle.
    fn enqueue(
        &mut self,
        ctx: &mut Ctx<'_>,
        kind: StreamKind,
        transfers: impl Iterator<Item = (usize, usize, u64)>,
    ) {
        let s = self.stream(kind);
        let was_active = s.active;
        s.queue.extend(transfers);
        s.active = true;
        if !was_active {
            ctx.send_now(ctx.self_id(), StreamChunk(kind));
        }
    }

    fn stream(&mut self, kind: StreamKind) -> &mut ChunkStream {
        match kind {
            StreamKind::Repair => &mut self.repair,
            StreamKind::Rejoin => &mut self.rejoin,
        }
    }

    fn on_stream_chunk(&mut self, ctx: &mut Ctx<'_>, kind: StreamKind) {
        let h = &self.cfg.health;
        let cap = health::REPAIR_CHUNK_BYTES as u64;
        let gbps = match kind {
            StreamKind::Repair => health::REPAIR_GBPS,
            StreamKind::Rejoin => h.rejoin_gbps,
        };
        let s = match kind {
            StreamKind::Repair => &mut self.repair,
            StreamKind::Rejoin => &mut self.rejoin,
        };
        let Some(&(src, dst, remaining)) = s.queue.front() else {
            return;
        };
        let chunk = remaining.min(cap);
        let delivered = self
            .switch
            .node_to_node(ctx.now(), src, dst, chunk as usize);
        s.last_delivery = s.last_delivery.max(delivered);
        s.bytes_sent += chunk;
        if remaining > chunk {
            s.queue.front_mut().expect("front still queued").2 = remaining - chunk;
        } else {
            s.queue.pop_front();
        }
        if s.queue.is_empty() {
            ctx.send_at(s.last_delivery, ctx.self_id(), StreamDone(kind));
        } else {
            // The pacing cap: the ports may drain a chunk faster, but the
            // stream never offers more than its Gbps cap on average.
            let pace = Bandwidth::gbps(gbps).transfer_time(chunk as usize).max(1);
            ctx.send_self_in(pace, StreamChunk(kind));
        }
    }

    fn on_stream_done(&mut self, ctx: &mut Ctx<'_>, kind: StreamKind) {
        if !self.stream(kind).queue.is_empty() {
            // A second failure queued more transfers after the finish was
            // scheduled: keep streaming.
            self.on_stream_chunk(ctx, kind);
            return;
        }
        match kind {
            StreamKind::Repair => {
                self.repair.active = false;
                self.repair.done_at = Some(ctx.now());
                self.maybe_emit_report(ctx);
            }
            StreamKind::Rejoin => self.finish_rejoin(ctx),
        }
    }

    /// Leaves the closed window's report in the world — once no repair
    /// or rejoin stream is running, so it carries the true time-to-repair
    /// — with the stream and service fields stamped.
    fn maybe_emit_report(&mut self, ctx: &mut Ctx<'_>) {
        if self.repair.active || self.rejoin.active {
            return;
        }
        let Some(mut report) = self.report_pending.take() else {
            return;
        };
        report.repair_bytes = self.repair.bytes_sent;
        report.repair_ns = self.repair.elapsed_ns();
        report.rejoin_bytes = self.rejoin.bytes_sent;
        report.rejoin_ns = self.rejoin.elapsed_ns();
        self.svc.stamp(&mut report);
        ctx.world().insert(ClusterOutcome(report));
    }

    // ------------------------------------------------------------------
    // Rejoin: a restarted node's anti-entropy repair, the re-replication
    // path run in reverse (survivors stream the node's shards back).
    // ------------------------------------------------------------------

    /// The crashed node's configured restart time arrived: it comes back
    /// *empty*, so every leg it swallowed (the probes may not have
    /// declared it Dead yet) fails over now. With the health layer on it
    /// enters `Joining` (alive to probes, unroutable), the service gathers
    /// what survivors can hand it, and anti-entropy repair begins; with
    /// the layer off — the ablation — it simply starts serving again,
    /// lifecycle unmanaged.
    fn on_restart(&mut self, ctx: &mut Ctx<'_>, node: usize) {
        assert!(self.crashed[node], "restart of a node that never crashed");
        self.crashed[node] = false;
        // A later crash of the same node must be able to re-replicate
        // again from scratch.
        self.repair_started[node] = false;
        ctx.world().stats.counter("cluster.node_restart").add(1);
        let managed = self.cfg.health.enabled;
        if managed {
            self.health.begin_join(node);
        }
        self.evacuate(ctx, node);
        if !managed {
            return;
        }
        let donors: Vec<bool> = (0..self.nodes.len())
            .map(|d| {
                d != node
                    && !self.crashed[d]
                    && !matches!(self.health.state(d), NodeState::Dead | NodeState::Joining)
            })
            .collect();
        self.svc.on_restart(ctx, &self.ring, node, &donors);
        self.start_rejoin(ctx, node);
    }

    /// Plans the rejoin stream: for every object replicated on `node`, a
    /// surviving replica streams the shard back. Transfers aggregate per
    /// source and drain as a bandwidth-capped chunk stream, exactly like
    /// re-replication but pointed at the rejoining node.
    fn start_rejoin(&mut self, ctx: &mut Ctx<'_>, node: usize) {
        let mut transfers: BTreeMap<usize, u64> = BTreeMap::new();
        for (object, object_bytes) in self.svc.objects() {
            let replicas = self.ring.replicas(object);
            if !replicas.contains(&node) {
                continue;
            }
            let alive =
                |n: usize| self.health.state(n) != NodeState::Dead && !self.crashed[n] && n != node;
            let Some(&src) = replicas.iter().find(|&&n| alive(n)) else {
                continue; // no surviving replica holds this shard
            };
            *transfers.entry(src).or_insert(0) += object_bytes;
        }
        self.rejoin_node = Some(node);
        self.rejoin.start_at = Some(ctx.now());
        if transfers.is_empty() {
            // Nothing to copy (degenerate ring): the node joins at once.
            self.finish_rejoin(ctx);
            return;
        }
        let transfers = transfers.into_iter().map(|(src, b)| (src, node, b));
        self.enqueue(ctx, StreamKind::Rejoin, transfers);
    }

    /// Anti-entropy complete: the node leaves `Joining` through the
    /// unified resume path and becomes routable again.
    fn finish_rejoin(&mut self, ctx: &mut Ctx<'_>) {
        let node = self.rejoin_node.take().expect("a rejoin was running");
        self.rejoin.active = false;
        self.rejoin.done_at = Some(ctx.now());
        self.health.complete_join(node);
        self.svc.on_rejoined(ctx, node);
        self.resume_node(ctx, node, "cluster.node_rejoined");
        self.maybe_emit_report(ctx);
    }

    // ------------------------------------------------------------------
    // Window close and the report.
    // ------------------------------------------------------------------

    fn free_leg(&mut self, r: &InFlight<S::Op>) {
        self.outstanding[r.node] -= 1;
        self.free_slots[r.node].push(r.slot);
    }

    /// Availability split into before / during / after the failure, with
    /// "during" ending at detection (crash, fail-slow) or at the fault's
    /// scheduled end (hang, link degrade, undetected slow window).
    fn phases(&self, end_ns: u64) -> [PhasePerf; 3] {
        let fault_at = self.fault_at_abs;
        let recovery = self
            .detected_at
            .map(|t| t.as_nanos())
            .or(self.slow_detected_at.map(|t| t.as_nanos()))
            .or(self.fault_end_abs)
            .unwrap_or(end_ns)
            .max(fault_at);
        let mut phases = [PhasePerf::default(); 3];
        let mut hists = [Histogram::new(), Histogram::new(), Histogram::new()];
        for rec in &self.records {
            let idx = if rec.at_ns < fault_at {
                0
            } else if rec.at_ns < recovery {
                1
            } else {
                2
            };
            phases[idx].requests += 1;
            if rec.ok {
                phases[idx].ok += 1;
                hists[idx].record(rec.latency_ns);
            }
        }
        for (p, h) in phases.iter_mut().zip(&hists) {
            p.p99_ns = h.percentile(99.0).unwrap_or(0);
        }
        phases
    }

    fn close_window(&mut self, ctx: &mut Ctx<'_>) {
        // Resolve work stranded on failed nodes while tallies still
        // count: with the health layer off this is where every loss
        // surfaces (the ablation's availability gap).
        let stranded: Vec<u64> = self
            .inflight
            .iter()
            .filter(|(_, r)| self.stuck(r.node))
            .map(|(&k, _)| k)
            .collect();
        for req in stranded {
            let Some(r) = self.inflight.get(&req) else {
                continue;
            };
            if r.orphaned {
                let r = self.inflight.remove(&req).expect("checked above");
                self.free_leg(&r);
                continue;
            }
            // A live partner on a healthy node will finish the request
            // after the window (excluded from tallies either way).
            let partner_completes = r
                .partner
                .and_then(|p| self.inflight.get(&p))
                .is_some_and(|pr| !self.stuck(pr.node));
            if let Some(p) = r.partner {
                if let Some(pr) = self.inflight.get_mut(&p) {
                    pr.orphaned = true;
                    pr.partner = None;
                }
            }
            let r = self.inflight.remove(&req).expect("checked above");
            self.free_leg(&r);
            self.job_to_req.retain(|_, v| *v != req);
            if !partner_completes {
                let pend = Pending {
                    req: r.req,
                    arrival: r.arrival,
                    retries_left: 0,
                };
                self.note_denied(&pend, Some(r.node), true);
            }
        }
        for node in 0..self.nodes.len() {
            if self.stuck(node) {
                for (_, pend) in self.queues[node].drain() {
                    self.note_denied(&pend, Some(node), true);
                }
            }
        }
        self.window_closed = true;
        // Parked requests on healthy nodes are abandoned: nothing was
        // submitted for them.
        for q in &mut self.queues {
            q.drain();
        }
        let span = ctx.now() - self.measure_start;
        let stats = ctx.world_ref().get::<CpuStats>();
        for (i, node) in self.nodes.iter().enumerate() {
            self.per_node[i].cpu_utilization = stats
                .map(|s| s.utilization(&node.server.cpu_key, span))
                .unwrap_or(0.0);
        }
        let mut report = ClusterReport {
            span_ns: span,
            requests: self.requests,
            bytes: self.bytes,
            rejected: self.rejected,
            failures: self.failures,
            get_ok: self.get_ok,
            get_denied: self.get_denied,
            put_ok: self.put_ok,
            put_denied: self.put_denied,
            hedged: self.hedged,
            hedge_wins: self.hedge_wins,
            retried: self.retried,
            lost: self.lost,
            put_fallbacks: self.put_fallbacks,
            degraded_marks: self.degraded_marks,
            detection_ns: self
                .detected_at
                .map(|t| t.as_nanos().saturating_sub(self.fault_at_abs)),
            slow_detection_ns: self
                .slow_detected_at
                .map(|t| t.as_nanos().saturating_sub(self.fault_at_abs)),
            slow_evictions: self.slow_evictions,
            slow_readmissions: self.slow_readmissions,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            latency: self.latency.clone(),
            per_node: self.per_node.clone(),
            per_tenant: self.per_tenant.clone(),
            ..ClusterReport::default()
        };
        if !self.cfg.node_faults.is_empty() {
            report.phases = Some(self.phases(ctx.now().as_nanos()));
        }
        self.report_pending = Some(report);
        self.maybe_emit_report(ctx);
    }
}

impl<S: Service> Component for ClusterDriver<S> {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<Start>() {
            Ok(Start) => {
                for stream in 0..self.svc.streams() {
                    let gap = self.svc.gap_ns(stream);
                    ctx.send_self_in(gap, Arrival { stream });
                }
                ctx.send_self_in(self.cfg.warmup_ns, WarmupOver);
                ctx.send_self_in(self.cfg.duration_ns, WindowOver);
                if let Some(d) = self.cfg.degrade {
                    assert!(d.node < self.nodes.len(), "degraded node out of range");
                    ctx.send_self_in(d.at_ns, DegradeNow);
                }
                for (idx, f) in self.cfg.node_faults.iter().enumerate() {
                    assert!(f.node() < self.nodes.len(), "faulted node out of range");
                    match *f {
                        NodeFault::Crash {
                            node,
                            at_ns,
                            restart_at_ns: Some(restart),
                        } => {
                            assert!(restart > at_ns, "restart must follow the crash");
                            ctx.send_self_in(restart, RestartAt { node });
                        }
                        NodeFault::FailSlow { factor, .. } => {
                            assert!(factor >= 1, "fail-slow factor must be >= 1");
                        }
                        NodeFault::LinkDegrade { speed_pct, .. } => {
                            assert!(
                                (1..=100).contains(&speed_pct),
                                "link speed_pct must be in 1..=100"
                            );
                        }
                        _ => {}
                    }
                    ctx.send_self_in(f.at_ns(), NodeFaultAt { idx });
                }
                if let Some(first) = self
                    .cfg
                    .node_faults
                    .iter()
                    .min_by_key(|f| f.at_ns())
                    .copied()
                {
                    self.fault_at_abs = ctx.now().as_nanos() + first.at_ns();
                    self.fault_node = first.node();
                    self.fault_end_abs = first.end_ns().map(|e| ctx.now().as_nanos() + e);
                }
                if self.cfg.health.enabled {
                    ctx.send_self_in(health::PROBE_PERIOD_NS, ProbeTick);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<Arrival>() {
            Ok(Arrival { stream }) => {
                if !self.window_closed {
                    self.on_arrival(ctx, stream);
                    let gap = self.svc.gap_ns(stream);
                    ctx.send_self_in(gap, Arrival { stream });
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
        let msg = match msg.downcast::<DegradeNow>() {
            Ok(DegradeNow) => {
                let d = self
                    .cfg
                    .degrade
                    .expect("DegradeNow only fires when configured");
                self.switch.set_node_speed_factor(d.node, d.factor);
                ctx.world().stats.counter("cluster.degraded").add(1);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<Delivered>() {
            Ok(Delivered { req }) => {
                self.on_delivered(ctx, req);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<Response>() {
            Ok(Response { req }) => {
                self.on_response(ctx, req);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<ProbeTick>() {
            Ok(ProbeTick) => {
                self.on_probe_tick(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<ProbeDelivered>() {
            Ok(ProbeDelivered { node, seq }) => {
                self.on_probe_delivered(ctx, node, seq);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<ProbeAck>() {
            Ok(ProbeAck { node, seq }) => {
                self.on_probe_ack(ctx, node, seq);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<ProbeDeadline>() {
            Ok(ProbeDeadline { node, seq }) => {
                self.on_probe_deadline(ctx, node, seq);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<NodeFaultAt>() {
            Ok(NodeFaultAt { idx }) => {
                self.on_node_fault(ctx, idx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<NodeFaultOver>() {
            Ok(NodeFaultOver { idx }) => {
                self.on_node_fault_over(ctx, idx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RestartAt>() {
            Ok(RestartAt { node }) => {
                self.on_restart(ctx, node);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<StreamChunk>() {
            Ok(StreamChunk(kind)) => {
                self.on_stream_chunk(ctx, kind);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<StreamDone>() {
            Ok(StreamDone(kind)) => {
                self.on_stream_done(ctx, kind);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<HedgeFire>() {
            Ok(HedgeFire { req }) => {
                self.on_hedge_fire(ctx, req);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<CpuJobDone>() {
            Ok(_) => return, // application-charge completion: nothing to do
            Err(m) => m,
        };
        match msg.downcast::<D2dDone>() {
            Ok(done) => self.on_job_done(ctx, done),
            Err(other) => panic!("ClusterDriver received unexpected message: {other:?}"),
        }
    }
}
