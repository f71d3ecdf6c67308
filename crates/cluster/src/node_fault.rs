//! Fault injection: what the rack does to a node.
//!
//! A run schedules whole-node failures as [`NodeFault`]s: crashes (with
//! an optional restart), hangs, fail-slow service and degraded switch
//! ports. `NodeFaults` holds each node's injected condition and answers
//! the front end's questions about it: does work that reaches the node
//! run, vanish (crashed) or wait (hung); how far does a fail-slow node
//! stretch a response; and what does a hung node release when it
//! resumes. It also keeps the first fault's anchors and the resolved
//! requests behind the report's before/during/after phase split.
//!
//! This is the ground truth. What the front end *believes* about a node
//! is the health layer's ([`crate::health`]), which sees these faults
//! only through missed probes and slow responses.

use dcs_sim::{Ctx, Histogram, SimTime};

use crate::report::{ClusterReport, PhasePerf};
use crate::service::Service;
use crate::switch::TorSwitch;

/// A whole-node failure injected mid-run. Unlike a
/// [`FaultPlan`](dcs_sim::FaultPlan) (retried device errors), these take
/// requests down with the node or slow it as a whole: the cases the
/// health layer exists for. Every time is ns after traffic start.
#[derive(Clone, Copy, Debug)]
pub enum NodeFault {
    /// At `at_ns` the node stops dead: requests in flight there are
    /// lost, nothing is accepted or completed afterwards. With
    /// `restart_at_ns` set the node comes back *empty* at that time and
    /// runs the rejoin lifecycle: `Joining` (unroutable, acks probes) →
    /// anti-entropy shard repair from surviving replicas → routable.
    Crash {
        /// Node to crash.
        node: usize,
        /// When to crash it.
        at_ns: u64,
        /// When (after `at_ns`) the node restarts and begins rejoining;
        /// `None` = it stays down.
        restart_at_ns: Option<u64>,
    },
    /// At `at_ns` the node freezes for `for_ns`: it keeps accepting bytes
    /// but completes nothing — and acks no probes — until the hang ends,
    /// at which point everything it swallowed resumes.
    Hang {
        /// Node to hang.
        node: usize,
        /// When to hang it.
        at_ns: u64,
        /// Hang duration, ns ([`NodeFault::UNTIL_END`]: never resumes).
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
        /// When the slowdown starts.
        at_ns: u64,
        /// Slowdown duration, ns ([`NodeFault::UNTIL_END`]: to the end).
        for_ns: u64,
        /// Service-latency multiplier (e.g. 10 = everything takes 10×).
        factor: u64,
    },
    /// A degraded ToR port: from `at_ns` for `for_ns` the node's switch
    /// port runs at `speed_pct`% of line rate (a flapping transceiver, a
    /// half-dead cable). Mild enough that probe acks still make their
    /// deadlines — another gray failure only the differential detector
    /// catches; queue-aware policies reroute around it, round-robin
    /// keeps feeding it.
    LinkDegrade {
        /// Node whose port degrades.
        node: usize,
        /// When the degradation starts.
        at_ns: u64,
        /// Degradation duration, ns ([`NodeFault::UNTIL_END`]: to the
        /// end of the run).
        for_ns: u64,
        /// Remaining port speed, percent of line rate (1..=100).
        speed_pct: u64,
    },
}

impl NodeFault {
    /// A `for_ns` that lasts to the end of the run: the fault never
    /// clears, and no event is scheduled to clear it.
    pub const UNTIL_END: u64 = u64::MAX;

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
    /// phase, not the fault clearing on its own) and for a window of
    /// [`UNTIL_END`](Self::UNTIL_END).
    pub fn end_ns(&self) -> Option<u64> {
        match *self {
            NodeFault::Crash { .. } => None,
            NodeFault::Hang { at_ns, for_ns, .. }
            | NodeFault::FailSlow { at_ns, for_ns, .. }
            | NodeFault::LinkDegrade { at_ns, for_ns, .. } => {
                (for_ns != Self::UNTIL_END).then(|| at_ns + for_ns)
            }
        }
    }

    /// Panics unless the fault is well formed for a rack of `nodes`.
    fn validate(&self, nodes: usize) {
        assert!(self.node() < nodes, "faulted node out of range");
        match *self {
            NodeFault::Crash {
                at_ns,
                restart_at_ns: Some(restart),
                ..
            } => assert!(restart > at_ns, "restart must follow the crash"),
            NodeFault::FailSlow { factor, .. } => {
                assert!(factor >= 1, "fail-slow factor must be >= 1");
            }
            NodeFault::LinkDegrade { speed_pct, .. } => assert!(
                (1..=100).contains(&speed_pct),
                "link speed_pct must be in 1..=100"
            ),
            NodeFault::Crash { .. } | NodeFault::Hang { .. } => {}
        }
    }

    /// The stats counter bumped when the fault fires.
    fn counter(&self) -> &'static str {
        match self {
            NodeFault::Crash { .. } => "cluster.node_crash",
            NodeFault::Hang { .. } => "cluster.node_hang",
            NodeFault::FailSlow { .. } => "cluster.node_fail_slow",
            NodeFault::LinkDegrade { .. } => "cluster.link_degraded",
        }
    }
}

/// Fire the `idx`-th configured [`NodeFault`].
#[derive(Debug)]
pub(crate) struct NodeFaultAt {
    pub(crate) idx: usize,
}

/// The window of the `idx`-th configured [`NodeFault`] (a hang,
/// fail-slow or link degrade) elapsed.
#[derive(Debug)]
pub(crate) struct NodeFaultOver {
    pub(crate) idx: usize,
}

/// A crashed node's configured restart time: begin the rejoin lifecycle.
#[derive(Debug)]
pub(crate) struct RestartAt {
    pub(crate) node: usize,
}

/// Work that reached a node. A hung node holds it; on resume it is
/// released kind by kind in this declaration order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Work {
    /// Request `req`'s bytes arrived: submit its jobs.
    Jobs(u64),
    /// Request `req`'s jobs finished: ship its response.
    Response(u64),
    /// Probe `seq` arrived: ack it.
    Probe(u64),
}

impl Work {
    fn rank(self) -> u8 {
        match self {
            Work::Jobs(_) => 0,
            Work::Response(_) => 1,
            Work::Probe(_) => 2,
        }
    }
}

/// What the injected faults currently do to one node.
#[derive(Clone, Debug, Default)]
struct Condition {
    crashed: bool,
    hung: bool,
    /// Active fail-slow multiplier.
    slow_factor: Option<u64>,
    /// Work a hung node swallowed, in arrival order.
    held: Vec<Work>,
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

/// The first configured fault, anchoring detection latency and the
/// phase split.
#[derive(Clone, Copy, Debug)]
struct Anchor {
    node: usize,
    /// When it fires, absolute ns.
    at_ns: u64,
    /// When its window clears, absolute ns (hang, fail-slow, link
    /// degrade).
    end_ns: Option<u64>,
    /// When the health layer declared its node Dead.
    dead_at: Option<SimTime>,
    /// When differential detection marked its node Slow.
    slow_at: Option<SimTime>,
}

/// Every node's injected condition, and the first fault's accounting.
pub(crate) struct NodeFaults {
    faults: Vec<NodeFault>,
    nodes: Vec<Condition>,
    anchor: Option<Anchor>,
    records: Vec<Rec>,
}

impl NodeFaults {
    /// The `faults` a run of `n` nodes injects, none fired yet.
    pub(crate) fn new(faults: Vec<NodeFault>, n: usize) -> NodeFaults {
        NodeFaults {
            faults,
            nodes: vec![Condition::default(); n],
            anchor: None,
            records: Vec::new(),
        }
    }

    /// Traffic starts: validates every fault, schedules its firing (a
    /// crash's restart first), and anchors the earliest fault.
    pub(crate) fn start(&mut self, ctx: &mut Ctx<'_>) {
        for (idx, f) in self.faults.iter().enumerate() {
            f.validate(self.nodes.len());
            if let NodeFault::Crash {
                node,
                restart_at_ns: Some(restart),
                ..
            } = *f
            {
                ctx.send_self_in(restart, RestartAt { node });
            }
            ctx.send_self_in(f.at_ns(), NodeFaultAt { idx });
        }
        let now = ctx.now().as_nanos();
        self.anchor = self
            .faults
            .iter()
            .min_by_key(|f| f.at_ns())
            .map(|first| Anchor {
                node: first.node(),
                at_ns: now + first.at_ns(),
                end_ns: first.end_ns().map(|e| now + e),
                dead_at: None,
                slow_at: None,
            });
    }

    /// Fires the `idx`-th fault — a crash also wipes `svc`'s state of
    /// the node, a link degrade slows its `switch` port — and schedules
    /// the fault's end, if it has one.
    pub(crate) fn fire(
        &mut self,
        ctx: &mut Ctx<'_>,
        idx: usize,
        switch: &mut TorSwitch,
        svc: &mut impl Service,
    ) {
        let fault = self.inject(idx);
        match fault {
            NodeFault::Crash { node, .. } => svc.on_crash(node),
            NodeFault::LinkDegrade {
                node, speed_pct, ..
            } => switch.set_node_speed_factor(node, speed_pct as f64 / 100.0),
            NodeFault::Hang { .. } | NodeFault::FailSlow { .. } => {}
        }
        ctx.world().stats.counter(fault.counter()).add(1);
        if let Some(end) = fault.end_ns() {
            ctx.send_self_in(end - fault.at_ns(), NodeFaultOver { idx });
        }
    }

    /// Sets the `idx`-th fault's condition on its node.
    fn inject(&mut self, idx: usize) -> NodeFault {
        let fault = self.faults[idx];
        let n = &mut self.nodes[fault.node()];
        match fault {
            NodeFault::Crash { .. } => n.crashed = true,
            NodeFault::Hang { .. } => n.hung = true,
            NodeFault::FailSlow { factor, .. } => n.slow_factor = Some(factor),
            NodeFault::LinkDegrade { .. } => {}
        }
        fault
    }

    /// The `idx`-th fault's window elapsed: a slow node's service
    /// normalizes, a degraded `switch` port recovers line rate. Returns
    /// the node of a hang, which the caller resumes.
    pub(crate) fn clear(&mut self, idx: usize, switch: &mut TorSwitch) -> Option<usize> {
        match self.faults[idx] {
            NodeFault::Hang { node, .. } => return Some(node),
            NodeFault::FailSlow { node, .. } => self.nodes[node].slow_factor = None,
            NodeFault::LinkDegrade { node, .. } => switch.set_node_speed_factor(node, 1.0),
            // A crash has no window: it ends at its restart, if any.
            NodeFault::Crash { .. } => {}
        }
        None
    }

    /// Whether `work` that reached `node` runs now. A crashed node
    /// swallows it for good; a hung node holds it until
    /// [`resume`](Self::resume).
    pub(crate) fn admit(&mut self, node: usize, work: Work) -> bool {
        let n = &mut self.nodes[node];
        if n.crashed {
            return false;
        }
        if n.hung {
            n.held.push(work);
            return false;
        }
        true
    }

    /// `node` resumes (a hang ended, or a rejoin completed): everything it
    /// held, jobs first, then responses, then probes, each kind in
    /// arrival order.
    pub(crate) fn resume(&mut self, node: usize) -> Vec<Work> {
        let n = &mut self.nodes[node];
        n.hung = false;
        let mut held = std::mem::take(&mut n.held);
        held.sort_by_key(|w| w.rank());
        held
    }

    /// The front end failed over everything `node` held.
    pub(crate) fn forget(&mut self, node: usize) {
        self.nodes[node].held.clear();
    }

    /// A crashed `node` restarts.
    pub(crate) fn restart(&mut self, node: usize) {
        let n = &mut self.nodes[node];
        assert!(n.crashed, "restart of a node that never crashed");
        n.crashed = false;
    }

    pub(crate) fn crashed(&self, node: usize) -> bool {
        self.nodes[node].crashed
    }

    /// Is `node` swallowing work (crashed or mid-hang)?
    pub(crate) fn stuck(&self, node: usize) -> bool {
        self.crashed(node) || self.nodes[node].hung
    }

    /// How much later a response from `node` ships after `span_ns` of
    /// service: a fail-slow node takes `factor ×` the span, so the hold
    /// adds `span_ns × (factor − 1)`. Integer arithmetic keeps the
    /// schedule bit-identical across runs.
    pub(crate) fn stretch_ns(&self, node: usize, span_ns: u64) -> u64 {
        self.nodes[node]
            .slow_factor
            .map_or(0, |factor| span_ns * (factor - 1))
    }

    /// The health layer declared `node` Dead at `now`.
    pub(crate) fn note_dead(&mut self, node: usize, now: SimTime) {
        if let Some(a) = self.anchor.as_mut().filter(|a| a.node == node) {
            a.dead_at.get_or_insert(now);
        }
    }

    /// Differential detection marked `node` Slow at `now`.
    pub(crate) fn note_slow(&mut self, node: usize, now: SimTime) {
        if let Some(a) = self.anchor.as_mut().filter(|a| a.node == node) {
            a.slow_at.get_or_insert(now);
        }
    }

    /// Keeps one measured request that arrived at `arrival` for the
    /// phase split (nothing when no fault is configured).
    pub(crate) fn record(&mut self, arrival: SimTime, ok: bool, latency_ns: u64) {
        if self.anchor.is_some() {
            self.records.push(Rec {
                at_ns: arrival.as_nanos(),
                ok,
                latency_ns,
            });
        }
    }

    /// Writes the detection latencies and the phase split into `report`,
    /// for a window closing at `end`.
    pub(crate) fn stamp(&self, report: &mut ClusterReport, end: SimTime) {
        let Some(a) = self.anchor else {
            return;
        };
        let since_fault = |t: Option<SimTime>| t.map(|t| t.as_nanos().saturating_sub(a.at_ns));
        report.detection_ns = since_fault(a.dead_at);
        report.slow_detection_ns = since_fault(a.slow_at);
        report.phases = Some(self.phases(a, end.as_nanos()));
    }

    /// Availability split into before / during / after the failure, with
    /// "during" ending at detection (crash, fail-slow) or at the fault's
    /// scheduled end (hang, link degrade, undetected slow window).
    fn phases(&self, a: Anchor, end_ns: u64) -> [PhasePerf; 3] {
        let recovery = a
            .dead_at
            .or(a.slow_at)
            .map(|t| t.as_nanos())
            .or(a.end_ns)
            .unwrap_or(end_ns)
            .max(a.at_ns);
        let mut phases = [PhasePerf::default(); 3];
        let mut hists = [Histogram::new(), Histogram::new(), Histogram::new()];
        for rec in &self.records {
            let idx = if rec.at_ns < a.at_ns {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn faults() -> NodeFaults {
        NodeFaults::new(
            vec![
                NodeFault::Crash {
                    node: 0,
                    at_ns: 10,
                    restart_at_ns: None,
                },
                NodeFault::Hang {
                    node: 1,
                    at_ns: 20,
                    for_ns: 5,
                },
                NodeFault::FailSlow {
                    node: 2,
                    at_ns: 30,
                    for_ns: 5,
                    factor: 10,
                },
            ],
            3,
        )
    }

    #[test]
    fn a_crashed_node_swallows_everything_for_good() {
        let mut f = faults();
        assert!(f.admit(0, Work::Jobs(1)), "a healthy node runs its work");
        f.inject(0);
        assert!(f.stuck(0));
        for w in [Work::Jobs(2), Work::Response(3), Work::Probe(4)] {
            assert!(!f.admit(0, w));
        }
        assert_eq!(f.resume(0), vec![], "nothing was held");
        f.restart(0);
        assert!(!f.stuck(0));
        assert!(f.admit(0, Work::Jobs(5)));
    }

    #[test]
    fn a_hung_node_holds_then_releases_jobs_responses_probes() {
        let mut f = faults();
        f.inject(1);
        assert!(f.stuck(1) && !f.crashed(1));
        for w in [
            Work::Probe(7),
            Work::Response(3),
            Work::Jobs(5),
            Work::Probe(8),
            Work::Jobs(2),
            Work::Response(1),
        ] {
            assert!(!f.admit(1, w), "{w:?} waits out the hang");
        }
        assert_eq!(
            f.resume(1),
            vec![
                Work::Jobs(5),
                Work::Jobs(2),
                Work::Response(3),
                Work::Response(1),
                Work::Probe(7),
                Work::Probe(8),
            ]
        );
        assert!(!f.stuck(1));
        assert!(f.admit(1, Work::Jobs(9)), "a resumed node runs work again");
        assert_eq!(f.resume(1), vec![]);
    }

    #[test]
    fn forgetting_drops_what_a_node_held() {
        let mut f = faults();
        f.inject(1);
        assert!(!f.admit(1, Work::Jobs(1)));
        f.forget(1);
        assert_eq!(f.resume(1), vec![]);
    }

    #[test]
    fn fail_slow_stretches_by_span_times_factor_minus_one() {
        let mut f = faults();
        assert_eq!(f.stretch_ns(2, 1_000), 0, "a healthy node adds nothing");
        f.inject(2);
        assert_eq!(f.stretch_ns(2, 1_000), 1_000 * (10 - 1));
        assert_eq!(f.stretch_ns(2, 0), 0);
        assert!(f.admit(2, Work::Jobs(1)), "a slow node still runs work");
        f.clear(2, &mut TorSwitch::new(3, Default::default()));
        assert_eq!(f.stretch_ns(2, 1_000), 0);
    }

    #[test]
    fn until_end_windows_never_clear() {
        let degrade = |for_ns| NodeFault::LinkDegrade {
            node: 0,
            at_ns: 5,
            for_ns,
            speed_pct: 10,
        };
        assert_eq!(degrade(NodeFault::UNTIL_END).end_ns(), None);
        assert_eq!(degrade(7).end_ns(), Some(12));
    }
}
