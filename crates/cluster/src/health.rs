//! The health layer: what the front end believes about each node, and
//! what it does about it.
//!
//! [`HealthMonitor`] owns the probe loop (sequence numbers, acks,
//! deadlines), the per-node state machines below, the routing mask, the
//! retry budget and the hedge delay. It also owns
//! [`HealthConfig::enabled`]: a disabled monitor is inert — every node
//! stays Healthy and routable, the request hooks do nothing, and it
//! grants no retries and no hedges — so the front end never asks whether
//! the layer is on.
//!
//! The front end probes every node over the ToR switch's strict-priority
//! control lane (see `TorSwitch::control_oneway_ns`). Each probe gets a
//! deadline; a node that misses consecutive deadlines accumulates a
//! *suspicion score* — a timeout-based simplification of the phi-accrual
//! detector: the score is the fraction of the kill threshold reached, it
//! rises one step per missed deadline and collapses to zero on any ack —
//! and transitions `Healthy → Suspect → Dead`. Any later ack (a hung node
//! waking up) flips it straight back to `Healthy`.
//!
//! Independently, request outcomes drive a classic per-node **circuit
//! breaker**: `BREAKER_FAILURES` *consecutive* request failures open it
//! (the node is excluded from routing), after `BREAKER_OPEN_NS` it goes
//! half-open (one trial request is let through), and a success — a trial
//! request completing, or a heartbeat ack — closes it again.
//!
//! Both signals are consumed by the routing mask:
//! `HealthMonitor::unroutable_mask` marks a node unroutable while it is
//! `Dead`, `Joining`, or its breaker is open, which is what
//! `HashRing::replicas_excluding` consumes.
//!
//! **Differential slow-node detection.** Timeout-based probing is blind
//! to *gray* failures: a node that acks every probe while serving data
//! 10× slower never misses a deadline. The monitor therefore keeps a
//! per-node fixed-point EWMA of observed data-path service latency
//! (pure `u64` shift arithmetic — bit-identical across runs, which the
//! `float-in-sim-state` lint rule enforces) and, on every probe tick,
//! compares each node's EWMA against the cluster median. A node whose
//! EWMA exceeds `median × SLOW_THRESHOLD_PCT / 100` for `SLOW_AFTER`
//! consecutive evaluations is marked [`NodeState::Slow`]: still
//! routable, but deprioritized (load penalty under JSQ/LO, hedges at
//! the minimum delay, no new PUT leadership). `READMIT_AFTER`
//! consecutive below-threshold evaluations readmit it — deterministic
//! hysteresis in both directions. `differential: false` ablates the
//! detector so the blind baseline stays measurable.
//!
//! Everything here is plain deterministic state driven by simulator
//! events; the module owns no RNG, so detection times are reproducible
//! bit-for-bit from the probe schedule alone.

use dcs_sim::{Ctx, Histogram, SimTime};

use crate::switch::TorSwitch;

/// Liveness state of one node as the front end believes it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum NodeState {
    /// Acking probes; fully routable.
    #[default]
    Healthy,
    /// Missed at least `SUSPECT_AFTER` consecutive probe deadlines (or
    /// showed a retry-exhaustion burst); still routable, but hedges fire
    /// at the minimum delay against it.
    Suspect,
    /// Showed a burst of *contained* errors (corruptions the node
    /// detected and recovered — ECRC replays, rewritten completion
    /// entries, device resets). The node answers probes and serves
    /// traffic, so it is neither Suspect nor Dead; it stays routable with
    /// hedges at the minimum delay until two consecutive clean probe acks
    /// clear it.
    Degraded,
    /// Gray failure: the node acks every probe on time but its data-path
    /// latency EWMA sits above the cluster median by the configured
    /// ratio. Still routable, but deprioritized — JSQ/LO see a load
    /// penalty, hedges fire at the minimum delay, and PUTs skip it as
    /// primary when a faster replica survives. Readmitted to Healthy
    /// after `READMIT_AFTER` consecutive below-threshold evaluations.
    Slow,
    /// A restarted node running its rejoin lifecycle: it acks probes
    /// (alive) but is not yet routable — anti-entropy shard repair and
    /// cache warm-up must complete first.
    Joining,
    /// Missed `dead_after` consecutive probe deadlines: unroutable,
    /// in-flight requests are failed over, re-replication starts.
    Dead,
}

/// Per-node circuit-breaker state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation.
    #[default]
    Closed,
    /// Tripped by consecutive failures: unroutable until the open window
    /// elapses.
    Open,
    /// Open window elapsed: exactly one trial request may pass; its
    /// outcome (or a probe ack) decides Open vs Closed.
    HalfOpen,
}

/// Heartbeat period per node.
pub const PROBE_PERIOD_NS: u64 = 500_000;
/// Control-frame size on the wire.
pub const PROBE_BYTES: usize = 128;
/// Consecutive misses before `Healthy → Suspect`.
pub const SUSPECT_AFTER: u32 = 2;
/// Consecutive request failures that open the breaker.
pub const BREAKER_FAILURES: u32 = 3;
/// How long the breaker stays open before going half-open.
pub const BREAKER_OPEN_NS: u64 = 3_000_000;
/// Per-request budget for re-dispatching a request whose node died with
/// it in flight.
pub const REQUEST_RETRIES: u32 = 2;
/// Floor for the hedge delay (and the delay used against Suspect nodes).
pub const HEDGE_MIN_NS: u64 = 2_000_000;
/// Jump in the cluster-wide `SiteStats::exhausted` tally within one probe
/// period that counts as a fault storm: nodes failing requests during
/// such a burst are marked Suspect immediately instead of waiting out
/// probe deadlines.
pub const EXHAUSTED_BURST: u64 = 3;
/// Jump in the cluster-wide *contained*-fault tally (errors detected and
/// recovered in place: ECRC replays, completion-entry rewrites, device
/// resets) within one probe period that marks serving nodes Degraded
/// instead of Suspect: the node is alive and correct, just riding a fault
/// storm.
pub const CONTAINED_BURST: u64 = 8;
/// A node is slow when its latency EWMA exceeds
/// `cluster median × SLOW_THRESHOLD_PCT / 100`.
pub const SLOW_THRESHOLD_PCT: u64 = 250;
/// Consecutive above-threshold evaluations (one per probe tick) before
/// `Healthy → Slow`.
pub const SLOW_AFTER: u32 = 3;
/// Consecutive below-threshold evaluations before `Slow → Healthy`.
pub const READMIT_AFTER: u32 = 6;
/// Fixed-point EWMA smoothing: `ewma += (sample - ewma) >> EWMA_SHIFT`.
pub const EWMA_SHIFT: u32 = 3;
/// Outstanding-request penalty JSQ/LO charge a Slow node, steering new
/// work toward faster replicas without unrouting it.
pub const SLOW_LOAD_PENALTY: usize = 32;

/// Knobs for detection, failover, hedging, and repair that the sweeps
/// vary. Lives inside [`ClusterConfig`](crate::ClusterConfig);
/// `enabled: false` turns the entire tolerance layer off (the ablation
/// the failover sweep measures).
#[derive(Clone, Debug)]
pub struct HealthConfig {
    /// Master switch: probes, failover, retries, hedging, and repair all
    /// key off this.
    pub enabled: bool,
    /// Probe deadline: an ack not seen this long after the probe was sent
    /// counts as a miss.
    pub probe_timeout_ns: u64,
    /// Consecutive misses before `Suspect → Dead`.
    pub dead_after: u32,
    /// Ceiling for the hedge delay.
    pub hedge_max_ns: u64,
    /// Hedge delay until the latency histogram has enough samples for a
    /// p99.
    pub hedge_default_ns: u64,
    /// Differential (median-relative) slow-node detection. `false` is
    /// the gray-failure ablation arm: probes alone, provably blind to a
    /// fail-slow node that keeps acking them.
    pub differential: bool,
    /// Pacing rate of the rejoin anti-entropy stream, Gbps (the reverse
    /// of re-replication: survivors stream the rejoining node's shards
    /// back to it).
    pub rejoin_gbps: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            enabled: true,
            probe_timeout_ns: 2_500_000,
            dead_after: 4,
            hedge_max_ns: 25_000_000,
            hedge_default_ns: 12_000_000,
            differential: true,
            rejoin_gbps: 2.0,
        }
    }
}

impl HealthConfig {
    /// The whole tolerance layer off: no probes, no failover, no hedges,
    /// no repair. Node faults still fire — this is the ablation arm.
    pub fn disabled() -> HealthConfig {
        HealthConfig {
            enabled: false,
            ..HealthConfig::default()
        }
    }

    /// Probes on, differential detection off: the gray-failure ablation
    /// arm. Crashes and hangs are still caught (they miss deadlines);
    /// fail-slow and degraded-link grays are not.
    pub fn blind() -> HealthConfig {
        HealthConfig {
            differential: false,
            ..HealthConfig::default()
        }
    }

    /// Upper bound on crash-to-`Dead` detection latency: the first probe
    /// after the crash is at most one period away, `dead_after - 1` more
    /// periods accumulate the misses, and the last probe's deadline pays
    /// the timeout.
    pub fn detection_bound_ns(&self) -> u64 {
        self.dead_after as u64 * PROBE_PERIOD_NS + self.probe_timeout_ns
    }

    /// Upper bound on fail-slow detection latency: the EWMA needs at most
    /// `SLOW_AFTER` evaluations past the point where enough slow samples
    /// accumulated; evaluations run once per probe period. The constant
    /// in front budgets EWMA convergence (`2^EWMA_SHIFT` samples) on top
    /// of the hysteresis walk — generous but still tight enough to make
    /// "bounded, seed-reproducible detection" a real assertion.
    pub fn slow_detection_bound_ns(&self) -> u64 {
        let convergence = 1u64 << EWMA_SHIFT;
        (convergence + SLOW_AFTER as u64 + 1) * PROBE_PERIOD_NS + self.probe_timeout_ns
    }
}

/// What a probe event changed, when it changed something the driver must
/// act on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transition {
    /// The node just crossed the death threshold: fail over its in-flight
    /// requests and start re-replication.
    Died,
    /// A previously-Dead node acked a probe (a hang ended): it is
    /// routable again.
    Revived,
}

/// What a differential evaluation changed (one entry per node that
/// crossed the hysteresis threshold this probe tick).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlowTransition {
    /// `Healthy → Slow`: the node's EWMA sat above the median threshold
    /// for `SLOW_AFTER` consecutive evaluations.
    Slowed(usize),
    /// `Slow → Healthy`: below threshold for `READMIT_AFTER` consecutive
    /// evaluations.
    Readmitted(usize),
}

/// Heartbeat cadence: probe every node, then re-arm.
#[derive(Debug)]
pub(crate) struct ProbeTick;

/// A probe frame finished arriving at the node.
#[derive(Debug)]
pub(crate) struct ProbeDelivered {
    pub(crate) node: usize,
    pub(crate) seq: u64,
}

/// A probe ack finished arriving back at the front end.
#[derive(Debug)]
pub(crate) struct ProbeAck {
    node: usize,
    seq: u64,
}

/// The probe's deadline: no ack by now counts as a miss.
#[derive(Debug)]
pub(crate) struct ProbeDeadline {
    node: usize,
    seq: u64,
}

/// What one probe tick changed, for the front end's report.
#[derive(Debug)]
pub(crate) struct Tick {
    /// Nodes a contained-fault burst moved from Healthy to Degraded.
    pub(crate) degraded: u64,
    /// Nodes differential detection marked Slow, in node order.
    pub(crate) slowed: Vec<usize>,
    /// Slow nodes readmitted.
    pub(crate) readmitted: u64,
}

/// Node `node` acks probe `seq`: the ack crosses the control lane back
/// to the front end.
pub(crate) fn ack_probe(ctx: &mut Ctx<'_>, switch: &TorSwitch, node: usize, seq: u64) {
    let oneway = switch.control_oneway_ns(node, PROBE_BYTES);
    ctx.send_self_in(oneway, ProbeAck { node, seq });
}

#[derive(Clone, Debug, Default)]
struct NodeHealth {
    state: NodeState,
    /// Consecutive missed probe deadlines.
    misses: u32,
    breaker: BreakerState,
    opened_at: SimTime,
    consecutive_failures: u32,
    /// A half-open trial request is in flight; hold further traffic.
    trial_inflight: bool,
    /// Consecutive clean probe acks while Degraded (two clear the state).
    clean_acks: u32,
    /// Fixed-point EWMA of observed data-path service latency, ns
    /// (0 = no samples yet). Plain `u64` shift arithmetic on purpose:
    /// accumulated simulation state must be bit-identical across runs.
    ewma_ns: u64,
    /// Consecutive above-threshold differential evaluations.
    slow_marks: u32,
    /// Consecutive below-threshold evaluations while Slow.
    fast_marks: u32,
    /// Highest probe seq acked.
    last_ack: u64,
    /// Failed a request since the last probe tick (exhausted-burst
    /// attribution).
    fail_mark: bool,
    /// Was dispatched a request since the last probe tick (contained-
    /// burst attribution).
    serve_mark: bool,
}

/// The front end's per-node health book-keeping (probes in, routing mask
/// out). Owned and driven by the
/// [`ClusterDriver`](crate::ClusterDriver); see the module docs for the
/// state machines.
pub struct HealthMonitor {
    cfg: HealthConfig,
    nodes: Vec<NodeHealth>,
    /// Last probe seq sent (probes are numbered across nodes).
    probe_seq: u64,
    /// The cluster-wide exhausted and contained fault tallies at the
    /// last probe tick: the baselines a burst is measured against.
    last_exhausted: u64,
    last_contained: u64,
}

impl HealthMonitor {
    /// A monitor over `n` nodes, all Healthy with closed breakers.
    pub fn new(cfg: &HealthConfig, n: usize) -> HealthMonitor {
        HealthMonitor {
            cfg: cfg.clone(),
            nodes: vec![NodeHealth::default(); n],
            probe_seq: 0,
            last_exhausted: 0,
            last_contained: 0,
        }
    }

    /// Traffic starts: arm the probe loop (not on a disabled monitor).
    pub(crate) fn start(&self, ctx: &mut Ctx<'_>) {
        if self.cfg.enabled {
            ctx.send_self_in(PROBE_PERIOD_NS, ProbeTick);
        }
    }

    /// One probe tick. A jump in the cluster-wide retry-exhaustion tally
    /// is a fault storm: nodes that failed requests since the last tick
    /// turn Suspect at once instead of waiting out probe deadlines. A
    /// jump in the *contained*-fault tally (corruptions detected and
    /// recovered in place: ECRC replays, completion-entry rewrites,
    /// device resets) marks the nodes that were serving Degraded — not
    /// Suspect, and never Dead: every one of those errors was caught.
    /// Then one differential evaluation, a probe to every node over
    /// `switch`'s control lane with its deadline, and the next tick.
    pub(crate) fn on_probe_tick(&mut self, ctx: &mut Ctx<'_>, switch: &TorSwitch) -> Tick {
        let now = ctx.now();
        let exhausted = dcs_sim::fault::exhausted_total(ctx.world_ref());
        if exhausted.saturating_sub(self.last_exhausted) >= EXHAUSTED_BURST {
            for node in 0..self.nodes.len() {
                if self.nodes[node].fail_mark {
                    self.on_exhausted_burst(node, now);
                }
            }
        }
        self.last_exhausted = exhausted;
        let contained = dcs_sim::fault::contained_total(ctx.world_ref());
        let mut degraded = 0;
        if contained.saturating_sub(self.last_contained) >= CONTAINED_BURST {
            for node in 0..self.nodes.len() {
                if self.nodes[node].serve_mark {
                    if self.state(node) == NodeState::Healthy {
                        ctx.world().stats.counter("cluster.nodes_degraded").add(1);
                        degraded += 1;
                    }
                    self.on_contained_burst(node);
                }
            }
        }
        self.last_contained = contained;
        for n in &mut self.nodes {
            n.fail_mark = false;
            n.serve_mark = false;
        }
        let (mut slowed, mut readmitted) = (Vec::new(), 0);
        for t in self.evaluate_slow() {
            let counter = match t {
                SlowTransition::Slowed(node) => {
                    slowed.push(node);
                    "cluster.node_slow"
                }
                SlowTransition::Readmitted(_) => {
                    readmitted += 1;
                    "cluster.node_readmitted"
                }
            };
            ctx.world().stats.counter(counter).add(1);
        }
        for node in 0..self.nodes.len() {
            self.probe_seq += 1;
            let seq = self.probe_seq;
            let oneway = switch.control_oneway_ns(node, PROBE_BYTES);
            ctx.send_self_in(oneway, ProbeDelivered { node, seq });
            ctx.send_self_in(self.cfg.probe_timeout_ns, ProbeDeadline { node, seq });
        }
        ctx.send_self_in(PROBE_PERIOD_NS, ProbeTick);
        Tick {
            degraded,
            slowed,
            readmitted,
        }
    }

    /// Probe `seq`'s ack from `node` arrived. The Revived transition
    /// flips the routing state by itself; the front end's resume path
    /// is the one place a node comes back.
    pub(crate) fn on_ack(&mut self, msg: &ProbeAck, now: SimTime) {
        let n = &mut self.nodes[msg.node];
        n.last_ack = n.last_ack.max(msg.seq);
        let _: Option<Transition> = self.on_probe_ack(msg.node, now);
    }

    /// Probe `seq`'s deadline for `node` passed. Returns the node when
    /// this miss declared it Dead.
    pub(crate) fn on_deadline(&mut self, msg: &ProbeDeadline, now: SimTime) -> Option<usize> {
        if self.nodes[msg.node].last_ack >= msg.seq {
            return None;
        }
        (self.on_probe_miss(msg.node, now) == Some(Transition::Died)).then_some(msg.node)
    }

    /// Failover re-dispatches a new request may spend if its node dies
    /// with it in flight (none on a disabled monitor: the request is
    /// simply lost).
    pub(crate) fn retries(&self) -> u32 {
        if self.cfg.enabled {
            REQUEST_RETRIES
        } else {
            0
        }
    }

    /// Phantom outstanding requests queue-aware policies charge `node`:
    /// a Slow node stays routable, but new work goes to faster replicas
    /// first.
    pub(crate) fn load_penalty(&self, node: usize) -> usize {
        if self.state(node) == NodeState::Slow {
            SLOW_LOAD_PENALTY
        } else {
            0
        }
    }

    /// How long to wait before hedging a read on `node`, given the
    /// window's served `latency` so far: the minimum against a Suspect,
    /// Degraded or Slow node, else the measured p99 (clamped) once the
    /// histogram has signal, else the configured default. `None` on a
    /// disabled monitor: no hedges.
    pub(crate) fn hedge_delay(&self, node: usize, latency: &Histogram) -> Option<u64> {
        if !self.cfg.enabled {
            return None;
        }
        if matches!(
            self.state(node),
            NodeState::Suspect | NodeState::Degraded | NodeState::Slow
        ) {
            return Some(HEDGE_MIN_NS);
        }
        if latency.count() >= 64 {
            if let Some(p99) = latency.percentile(99.0) {
                return Some(p99.clamp(HEDGE_MIN_NS, self.cfg.hedge_max_ns));
            }
        }
        Some(self.cfg.hedge_default_ns)
    }

    /// The winning leg of a request on `node` completed, `ok` or not.
    pub(crate) fn on_request_done(&mut self, node: usize, ok: bool, now: SimTime) {
        if !self.cfg.enabled {
            return;
        }
        if ok {
            self.on_request_success(node);
        } else {
            self.on_request_failure(node, now);
            self.nodes[node].fail_mark = true;
        }
    }

    /// Current liveness state of `node`.
    pub fn state(&self, node: usize) -> NodeState {
        self.nodes[node].state
    }

    /// Current breaker state of `node` (without the lazy Open → HalfOpen
    /// promotion; use [`routable`](Self::routable) for routing decisions).
    pub fn breaker(&self, node: usize) -> BreakerState {
        self.nodes[node].breaker
    }

    /// The suspicion score: fraction of the kill threshold the node's
    /// consecutive misses have reached (>= 1.0 means Dead).
    pub fn score(&self, node: usize) -> f64 {
        self.nodes[node].misses as f64 / self.cfg.dead_after.max(1) as f64
    }

    /// A probe deadline passed without an ack.
    pub(crate) fn on_probe_miss(&mut self, node: usize, _now: SimTime) -> Option<Transition> {
        let n = &mut self.nodes[node];
        n.misses = n.misses.saturating_add(1);
        n.clean_acks = 0;
        if n.state == NodeState::Joining {
            // A rejoining node is already unroutable and being repaired;
            // misses are noted but drive no further transition.
            return None;
        }
        if n.misses >= self.cfg.dead_after && n.state != NodeState::Dead {
            n.state = NodeState::Dead;
            return Some(Transition::Died);
        }
        if n.misses >= SUSPECT_AFTER
            && matches!(
                n.state,
                NodeState::Healthy | NodeState::Degraded | NodeState::Slow
            )
        {
            // Liveness doubt outranks a contained-error or slow downgrade.
            n.state = NodeState::Suspect;
        }
        None
    }

    /// A probe ack arrived (possibly after its deadline — late acks from
    /// a waking node still count as life).
    pub(crate) fn on_probe_ack(&mut self, node: usize, _now: SimTime) -> Option<Transition> {
        let n = &mut self.nodes[node];
        n.misses = 0;
        // A heartbeat is the half-open "probe": it closes the breaker.
        if n.breaker != BreakerState::Closed {
            n.breaker = BreakerState::Closed;
            n.consecutive_failures = 0;
            n.trial_inflight = false;
        }
        match n.state {
            NodeState::Dead => {
                n.state = NodeState::Healthy;
                n.clean_acks = 0;
                Some(Transition::Revived)
            }
            NodeState::Suspect => {
                n.state = NodeState::Healthy;
                n.clean_acks = 0;
                None
            }
            NodeState::Degraded => {
                // Contained-error downgrades clear slowly: two consecutive
                // clean acks (the fault storm has to actually subside).
                n.clean_acks += 1;
                if n.clean_acks >= 2 {
                    n.state = NodeState::Healthy;
                    n.clean_acks = 0;
                }
                None
            }
            // An on-time ack says nothing about data-path speed: only the
            // differential evaluation readmits a Slow node.
            NodeState::Slow => None,
            // A rejoining node acks probes by definition; it becomes
            // routable when its repair completes, not here.
            NodeState::Joining => None,
            NodeState::Healthy => None,
        }
    }

    /// Feed one observed data-path service latency for `node` into its
    /// fixed-point EWMA. Dead and Joining nodes are skipped (their
    /// "latencies" are failover artifacts, not service observations).
    pub fn record_latency(&mut self, node: usize, sample_ns: u64) {
        let shift = EWMA_SHIFT;
        let n = &mut self.nodes[node];
        if !self.cfg.enabled || matches!(n.state, NodeState::Dead | NodeState::Joining) {
            return;
        }
        if n.ewma_ns == 0 {
            n.ewma_ns = sample_ns;
        } else if sample_ns >= n.ewma_ns {
            n.ewma_ns += (sample_ns - n.ewma_ns) >> shift;
        } else {
            n.ewma_ns -= (n.ewma_ns - sample_ns) >> shift;
        }
    }

    /// Current latency EWMA of `node` (0 = no samples yet).
    pub fn ewma_ns(&self, node: usize) -> u64 {
        self.nodes[node].ewma_ns
    }

    /// One differential evaluation (run per probe tick): compare every
    /// node's EWMA against the cluster median and walk the slow/readmit
    /// hysteresis. Returns the transitions that fired, in node order.
    pub fn evaluate_slow(&mut self) -> Vec<SlowTransition> {
        if !self.cfg.differential {
            return Vec::new();
        }
        // The median is taken over nodes with at least one sample that
        // are participating in service (not Dead, not Joining).
        let mut samples: Vec<u64> = self
            .nodes
            .iter()
            .filter(|n| n.ewma_ns > 0 && !matches!(n.state, NodeState::Dead | NodeState::Joining))
            .map(|n| n.ewma_ns)
            .collect();
        if samples.len() < 2 {
            return Vec::new(); // one opinion is not a differential
        }
        samples.sort_unstable();
        let mid = samples.len() / 2;
        let median = if samples.len().is_multiple_of(2) {
            (samples[mid - 1] + samples[mid]) / 2
        } else {
            samples[mid]
        };
        let threshold = median.saturating_mul(SLOW_THRESHOLD_PCT) / 100;
        let mut out = Vec::new();
        for (i, n) in self.nodes.iter_mut().enumerate() {
            if n.ewma_ns == 0 {
                continue;
            }
            match n.state {
                NodeState::Healthy if n.ewma_ns > threshold => {
                    n.slow_marks += 1;
                    n.fast_marks = 0;
                    if n.slow_marks >= SLOW_AFTER {
                        n.state = NodeState::Slow;
                        n.slow_marks = 0;
                        out.push(SlowTransition::Slowed(i));
                    }
                }
                NodeState::Healthy => {
                    n.slow_marks = 0;
                }
                NodeState::Slow if n.ewma_ns <= threshold => {
                    n.fast_marks += 1;
                    if n.fast_marks >= READMIT_AFTER {
                        n.state = NodeState::Healthy;
                        n.fast_marks = 0;
                        n.slow_marks = 0;
                        out.push(SlowTransition::Readmitted(i));
                    }
                }
                NodeState::Slow => {
                    n.fast_marks = 0;
                }
                _ => {}
            }
        }
        out
    }

    /// A crashed node restarted: it comes back *empty* in `Joining` —
    /// alive to probes but unroutable until anti-entropy repair and cache
    /// warm-up complete ([`complete_join`](Self::complete_join)). Its
    /// EWMA and hysteresis restart from scratch. Returns whether the
    /// rejoin lifecycle runs: a disabled monitor leaves the node to
    /// serve again at once, unmanaged.
    pub(crate) fn begin_join(&mut self, node: usize) -> bool {
        if !self.cfg.enabled {
            return false;
        }
        let n = &mut self.nodes[node];
        *n = NodeHealth {
            state: NodeState::Joining,
            opened_at: n.opened_at,
            last_ack: n.last_ack,
            fail_mark: n.fail_mark,
            serve_mark: n.serve_mark,
            ..NodeHealth::default()
        };
        true
    }

    /// The rejoin lifecycle finished: the node is routable again.
    pub(crate) fn complete_join(&mut self, node: usize) {
        let n = &mut self.nodes[node];
        assert_eq!(n.state, NodeState::Joining, "complete_join without join");
        n.state = NodeState::Healthy;
    }

    /// A request to `node` completed successfully.
    fn on_request_success(&mut self, node: usize) {
        let n = &mut self.nodes[node];
        n.consecutive_failures = 0;
        if n.breaker == BreakerState::HalfOpen {
            n.breaker = BreakerState::Closed;
            n.trial_inflight = false;
        }
    }

    /// A request to `node` completed with an error.
    fn on_request_failure(&mut self, node: usize, now: SimTime) {
        let n = &mut self.nodes[node];
        n.consecutive_failures = n.consecutive_failures.saturating_add(1);
        match n.breaker {
            BreakerState::HalfOpen => {
                // The trial failed: back to fully open.
                n.breaker = BreakerState::Open;
                n.opened_at = now;
                n.trial_inflight = false;
            }
            BreakerState::Closed if n.consecutive_failures >= BREAKER_FAILURES => {
                n.breaker = BreakerState::Open;
                n.opened_at = now;
            }
            _ => {}
        }
    }

    /// The cluster-wide retry-exhaustion tally jumped this probe period
    /// and `node` failed requests during it: treat the node as Suspect
    /// right away and push its breaker toward opening.
    pub(crate) fn on_exhausted_burst(&mut self, node: usize, now: SimTime) {
        {
            let n = &mut self.nodes[node];
            if n.state == NodeState::Healthy {
                n.state = NodeState::Suspect;
                n.misses = n.misses.max(SUSPECT_AFTER);
            }
        }
        self.on_request_failure(node, now);
    }

    /// The cluster-wide *contained*-fault tally jumped this probe period
    /// and `node` was serving during it: mark it Degraded. Unlike
    /// [`on_exhausted_burst`](Self::on_exhausted_burst) this neither feeds
    /// the breaker nor touches the miss count — the node detected and
    /// recovered every one of those errors, so it stays fully routable.
    pub(crate) fn on_contained_burst(&mut self, node: usize) {
        let n = &mut self.nodes[node];
        if n.state == NodeState::Healthy {
            n.state = NodeState::Degraded;
            n.clean_acks = 0;
        }
    }

    /// May traffic be routed to `node` right now? False while Dead,
    /// Joining, or breaker-open; a half-open breaker admits exactly one
    /// trial (the driver reports the dispatch via `on_dispatch`).
    /// Promotes Open → HalfOpen lazily once the open window elapses.
    pub fn routable(&mut self, node: usize, now: SimTime) -> bool {
        let open_ns = BREAKER_OPEN_NS;
        let n = &mut self.nodes[node];
        if matches!(n.state, NodeState::Dead | NodeState::Joining) {
            return false;
        }
        match n.breaker {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if now.saturating_since(n.opened_at) >= open_ns {
                    n.breaker = BreakerState::HalfOpen;
                    n.trial_inflight = false;
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => !n.trial_inflight,
        }
    }

    /// `excluded[n] == true` for every node routing must skip, in the
    /// shape [`HashRing::replicas_excluding`] consumes.
    ///
    /// [`HashRing::replicas_excluding`]: crate::HashRing::replicas_excluding
    pub(crate) fn unroutable_mask(&mut self, now: SimTime) -> Vec<bool> {
        if !self.cfg.enabled {
            return vec![false; self.nodes.len()];
        }
        (0..self.nodes.len())
            .map(|n| !self.routable(n, now))
            .collect()
    }

    /// The driver dispatched a request to `node`; a half-open breaker
    /// spends its single trial on it.
    pub(crate) fn on_dispatch(&mut self, node: usize) {
        if !self.cfg.enabled {
            return;
        }
        let n = &mut self.nodes[node];
        n.serve_mark = true;
        if n.breaker == BreakerState::HalfOpen {
            n.trial_inflight = true;
        }
    }

    /// Count of nodes currently believed Dead.
    #[cfg(test)]
    pub(crate) fn dead_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.state == NodeState::Dead)
            .count()
    }

    /// Count of nodes currently marked Slow (gray-failure detection).
    #[cfg(test)]
    pub(crate) fn slow_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.state == NodeState::Slow)
            .count()
    }
}

#[cfg(test)]
mod tests;
