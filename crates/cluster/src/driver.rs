//! The front end: the one request lifecycle every workload runs through.
//!
//! One [`ClusterDriver`] component plays the datacenter's front-end tier.
//! Its [`Service`] draws open-loop arrivals (the rack's Swift mix, or the
//! store's YCSB tenants); the driver resolves each object through the
//! consistent-hash [`HashRing`], lets the service's cache affinity or
//! else the configured [`LbPolicy`](crate::LbPolicy) pick a replica, and
//! pushes the request through the [`TorSwitch`] to that node, where it
//! runs as real simulated [`D2dJob`]s on the node's devices.
//!
//! Overload is handled at admission: each node serves at most
//! `max_outstanding` requests with more parked in a per-node
//! [`QosQueue`] (FIFO bounded by `queue_cap` for one stream, weighted-fair
//! per tenant for several); beyond its bound a request is shed at once,
//! so the p99 of *served* requests degrades gracefully past saturation.
//!
//! The front end asks [`crate::node_fault`] what the rack does to a node
//! (does work reaching it run, vanish or wait) and [`crate::health`] what
//! it believes about one (routing mask, retry budget, hedge delay, and
//! the probe loop that declares nodes Dead or Slow); the `repair` module
//! re-replicates a dead node's shards and streams a restarted node's
//! back. Availability is accounted at *resolution*: every request ends
//! served, denied (shed or unroutable), or lost (stranded on a failed
//! node with its retry budget spent).

use std::collections::BTreeMap;

use dcs_host::cpu::{CpuJob, CpuJobDone, CpuStats};
use dcs_host::job::{D2dDone, D2dJob};
use dcs_sim::{Component, Ctx, Msg, SimTime};

use crate::health::{
    self, HealthMonitor, NodeState, ProbeAck, ProbeDeadline, ProbeDelivered, ProbeTick,
};
use crate::node_fault::{NodeFaultAt, NodeFaultOver, NodeFaults, RestartAt, Work};
use crate::policy::NodeLoad;
use crate::qos::QosQueue;
use crate::repair::{Landed, Repair, StreamChunk, StreamDone};
use crate::report::{ClusterReport, Denial, NodePerf};
use crate::service::{self, CacheDecision, Request, Service};
use crate::shard::HashRing;
use crate::switch::TorSwitch;
use crate::{ClusterConfig, ClusterNode, ClusterOutcome};

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
/// The hedge delay for read `req` elapsed: maybe issue a second leg.
#[derive(Debug)]
struct HedgeFire {
    req: u64,
}

/// Where the measurement window stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Window {
    Warmup,
    Open,
    Closed,
    Reported,
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
    /// When this leg left for its node: per-leg latency starts here, so a
    /// hedge leg fired late does not charge its wait to the node serving
    /// it (the differential detector would lose its outlier).
    dispatched_at: SimTime,
    /// When the node actually started serving (jobs submitted); the
    /// fail-slow hold scales the span between this and job completion.
    served_at: SimTime,
    pending_jobs: usize,
    failed: bool,
    /// The node-cache decision taken at dispatch, if cacheable.
    cache: Option<CacheDecision>,
    /// This leg is the hedged second copy.
    is_hedge: bool,
    /// The other leg of the same logical request, while both are live.
    partner: Option<u64>,
    retries_left: u32,
    /// The other leg resolved the request: free this one, tally nothing.
    orphaned: bool,
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
    // Admission state, indexed by node: free slots (`max_outstanding`
    // less those in flight) and the parked requests.
    free_slots: Vec<Vec<usize>>,
    queues: Vec<QosQueue<Pending<S::Op>>>,
    rr_cursor: usize,
    // Request tracking.
    inflight: BTreeMap<u64, InFlight<S::Op>>,
    job_to_req: BTreeMap<u64, u64>,
    next_req: u64,
    next_job_id: u64,
    /// What the front end believes about each node.
    health: HealthMonitor,
    /// What the rack does to each node.
    faults: NodeFaults,
    /// Re-replication and rejoin streams.
    repair: Repair,
    window: Window,
    measure_start: SimTime,
    /// The window's report: tallied while it is open, stamped when it
    /// closes, emitted once no repair or rejoin stream is running.
    report: ClusterReport,
}

impl<S: Service> ClusterDriver<S> {
    /// Creates the front end over `nodes` (one entry per cluster node),
    /// serving the workload `svc`.
    pub fn new(cfg: ClusterConfig, nodes: Vec<ClusterNode>, svc: S) -> ClusterDriver<S> {
        assert_eq!(cfg.nodes, nodes.len(), "node list must match config");
        assert!(cfg.max_outstanding > 0, "admission needs at least one slot");
        let n = nodes.len();
        let (qos, weights) = svc.queue();
        ClusterDriver {
            switch: TorSwitch::new(n, cfg.switch.clone()),
            ring: HashRing::new(n, cfg.vnodes_per_node, cfg.replication),
            slot_blocks: svc.max_object_bytes().div_ceil(4096) as u64,
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
            health: HealthMonitor::new(&cfg.health, n),
            faults: NodeFaults::new(cfg.node_faults.clone(), n),
            repair: Repair::new(n, cfg.health.rejoin_gbps),
            window: Window::Warmup,
            measure_start: SimTime::ZERO,
            report: ClusterReport {
                per_node: vec![NodePerf::default(); n],
                per_tenant: svc.tenants(),
                ..ClusterReport::default()
            },
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

    /// The configured policy's pick among `candidates`, by their loads.
    fn pick(&mut self, candidates: &[usize]) -> usize {
        let load = |n: usize| NodeLoad {
            outstanding: self.cfg.max_outstanding - self.free_slots[n].len(),
            queued: self.queues[n].len(),
            penalty: self.health.load_penalty(n),
        };
        let mut cursor = self.rr_cursor;
        let node = self.cfg.policy.choose_by(candidates, load, &mut cursor);
        self.rr_cursor = cursor;
        node
    }

    /// A `what` found its leg gone: only a node fault's failover sweeps legs.
    fn assert_swept(&self, what: &str) {
        assert!(
            !self.cfg.node_faults.is_empty(),
            "{what} for a leg that is not in flight"
        );
    }

    fn tally_active(&self) -> bool {
        self.window == Window::Open
    }

    /// A request that arrived `at` resolved without being served (at
    /// `node`, if it got that far).
    fn note_denied(&mut self, req: &Request<S::Op>, at: SimTime, node: Option<usize>, why: Denial) {
        if self.tally_active() {
            self.report.tally_denied(req, node, why);
            self.faults.record(at, false, 0);
        }
    }

    fn start(&mut self, ctx: &mut Ctx<'_>) {
        for stream in 0..self.svc.streams() {
            let gap = self.svc.gap_ns(stream);
            ctx.send_self_in(gap, Arrival { stream });
        }
        ctx.send_self_in(self.cfg.warmup_ns, WarmupOver);
        ctx.send_self_in(self.cfg.duration_ns, WindowOver);
        self.faults.start(ctx);
        self.health.start(ctx);
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
            retries_left: self.health.retries(),
        };
        self.route_and_admit(ctx, pend);
    }

    /// Routes `pend` to a replica, then admits, queues, or sheds it.
    fn route_and_admit(&mut self, ctx: &mut Ctx<'_>, pend: Pending<S::Op>) {
        let Some(node) = self.route(ctx.now(), &pend.req) else {
            ctx.world().stats.counter(S::UNROUTABLE).add(1);
            self.note_denied(&pend.req, pend.arrival, None, Denial::Rejected);
            return;
        };
        if !self.free_slots[node].is_empty() {
            self.dispatch(ctx, node, pend, None);
            return;
        }
        let (stream, cost) = (pend.req.stream, pend.req.len as f64);
        if let Err(pend) = self.queues[node].try_push(stream, cost, pend) {
            // The stream's queue bound is full: shed at the front end,
            // graceful overload.
            ctx.world().stats.counter(S::SHED).add(1);
            self.note_denied(&pend.req, pend.arrival, Some(node), Denial::Rejected);
        }
    }

    /// The replica `req` goes to, skipping Dead / Joining / breaker-open
    /// nodes; `None` when no replica is routable.
    fn route(&mut self, now: SimTime, req: &Request<S::Op>) -> Option<usize> {
        let mask = self.health.unroutable_mask(now);
        if !req.write {
            let candidates = self.ring.replicas_excluding(req.object, &mask);
            if candidates.is_empty() {
                return None;
            }
            let affine = self.svc.affinity(req, &candidates);
            return Some(affine.unwrap_or_else(|| self.pick(&candidates)));
        }
        // Writes pin to the primary; with the primary unroutable they fall
        // back to the next surviving replica in ring order. A Slow primary
        // keeps its in-flight work but takes no *new* write leadership
        // while a faster replica survives.
        let replicas = self.ring.replicas(req.object);
        let not_slow = |n: usize| self.health.state(n) != NodeState::Slow;
        let &node = replicas
            .iter()
            .find(|&&n| !mask[n] && not_slow(n))
            .or_else(|| replicas.iter().find(|&&n| !mask[n]))?;
        if node != replicas[0] && self.tally_active() {
            self.report.put_fallbacks += 1;
        }
        Some(node)
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
        let slot = self.free_slots[node].pop().expect("a free slot");
        self.health.on_dispatch(node);
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
        let now = ctx.now();
        let obs = &mut ctx.world().obs;
        obs.span(S::LABEL, "uplink", req, now, deliver);
        // Read by the benchmark's `cluster.dispatched`
        // (`benchmark/src/run.rs`).
        obs.count(S::LABEL, "dispatched", 1);
        ctx.send_at(deliver, ctx.self_id(), Delivered { req });
        if !write && hedge_of.is_none() && self.ring.replication() > 1 {
            if let Some(delay) = self.health.hedge_delay(node, &self.report.latency) {
                ctx.send_self_in(delay, HedgeFire { req });
            }
        }
        req
    }

    /// The hedge delay elapsed: issue the second leg if the primary is
    /// still unresolved and another replica has a free slot.
    fn on_hedge_fire(&mut self, ctx: &mut Ctx<'_>, req: u64) {
        if self.window >= Window::Closed {
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
            .filter(|&n| n != node && !self.free_slots[n].is_empty())
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
            self.report.hedged += 1;
        }
        ctx.world().stats.counter("cluster.hedged").add(1);
    }

    /// The request reached the node port: it runs there unless a fault
    /// swallows or holds it.
    fn on_delivered(&mut self, ctx: &mut Ctx<'_>, req: u64) {
        let Some(r) = self.inflight.get(&req) else {
            return self.assert_swept("delivery");
        };
        if self.faults.admit(r.node, Work::Jobs(req)) {
            self.submit_jobs(ctx, req);
        }
    }

    /// Runs the request as real device jobs on its node.
    fn submit_jobs(&mut self, ctx: &mut Ctx<'_>, req: u64) {
        let r = &self.inflight[&req];
        let (node, len, write) = (r.node, r.req.len, r.req.write);
        let hit = r.cache.is_some_and(|c| c.hit);
        let lba = self.lba_for(r.req.object, !write);
        let slot = u16::try_from(r.slot).expect("slot fits a port");
        let (job_tag, app_tag) = self.svc.tags(write, hit);
        let (server, access) = (&self.nodes[node].server, &self.nodes[node].access);
        let jobs = service::node_jobs(write, hit, len, lba, slot, job_tag);
        let reply_to = ctx.self_id();
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
        let now = ctx.now();
        ctx.world().obs.span_begin(S::LABEL, "node-serve", req, now);
        for (on_server, ops, tag) in jobs {
            let target = if on_server { server } else { access }.submit_to;
            let id = self.next_job_id;
            self.next_job_id += 1;
            self.job_to_req.insert(id, req);
            let job = D2dJob {
                id,
                ops,
                reply_to,
                tag,
            };
            ctx.send_now(target, job);
        }
    }

    fn on_job_done(&mut self, ctx: &mut Ctx<'_>, done: &D2dDone) {
        let Some(req) = self.job_to_req.remove(&done.id) else {
            return self.assert_swept("job completion");
        };
        let r = self.inflight.get_mut(&req).expect("live request");
        r.pending_jobs -= 1;
        r.failed |= !done.ok;
        if r.pending_jobs == 0 && self.faults.admit(r.node, Work::Response(req)) {
            self.ship_response(ctx, req);
        }
    }

    /// All jobs done: ship the response back up through the switch. A
    /// fail-slow node holds it first, stretching its whole service span
    /// by the fault's factor (while its probe acks, which never touch the
    /// data path, stay on time).
    fn ship_response(&mut self, ctx: &mut Ctx<'_>, req: u64) {
        let r = &self.inflight[&req];
        let (node, write, len, stream) = (r.node, r.req.write, r.req.len, r.req.stream);
        let span_ns = ctx.now().saturating_since(r.served_at);
        let resp_bytes = if write {
            PUT_ACK_BYTES
        } else {
            len + GET_RESP_OVERHEAD
        };
        let lane = self.svc.lane(stream);
        let arrive = self
            .switch
            .send_to_frontend_lane(ctx.now(), node, resp_bytes, lane)
            + self.faults.stretch_ns(node, span_ns);
        let now = ctx.now();
        let obs = &mut ctx.world().obs;
        obs.span_end(S::LABEL, "node-serve", req, now);
        obs.span(S::LABEL, "downlink", req, now, arrive);
        ctx.send_at(arrive, ctx.self_id(), Response { req });
    }

    fn on_response(&mut self, ctx: &mut Ctx<'_>, req: u64) {
        let Some(r) = self.inflight.remove(&req) else {
            return self.assert_swept("response");
        };
        self.free_leg(&r);
        // The freed slot admits the queue's next pick, before the served
        // leg's effects land.
        if self.window < Window::Closed {
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
            // Every completed leg, orphaned hedges included, observes its
            // node's speed: a fail-slow node's legs mostly lose their
            // hedges, so skipping orphans would starve its EWMA.
            self.health
                .record_latency(r.node, ctx.now().saturating_since(r.dispatched_at));
        }
        if r.orphaned {
            // The other leg already resolved the request.
            return;
        }
        // This leg wins: the partner (if still live) becomes the orphan.
        if let Some(pr) = r.partner.and_then(|p| self.inflight.get_mut(&p)) {
            pr.orphaned = true;
            pr.partner = None;
        }
        self.health.on_request_done(r.node, !r.failed, ctx.now());
        if r.failed {
            self.note_denied(&r.req, r.arrival, Some(r.node), Denial::Failed);
        } else if self.tally_active() {
            let lat = ctx.now() - r.arrival;
            self.report
                .tally_served(r.node, &r.req, lat, r.is_hedge, r.cache);
            self.faults.record(r.arrival, true, lat);
        }
    }

    /// The probes declared `node` Dead: fail over and re-replicate it.
    fn on_node_dead(&mut self, ctx: &mut Ctx<'_>, node: usize) {
        self.faults.note_dead(node, ctx.now());
        ctx.world().stats.counter("cluster.node_dead").add(1);
        self.evacuate(ctx, node);
        self.repair
            .start_repair(ctx, node, &self.svc, &self.ring, &self.health);
    }

    /// Fails over every leg still assigned to `node`, forgets whatever it
    /// was holding, and re-routes its admission queue (to survivors, once
    /// the routing mask excludes it).
    fn evacuate(&mut self, ctx: &mut Ctx<'_>, node: usize) {
        for req in self.legs(|n| n == node) {
            self.fail_over(ctx, req);
        }
        self.faults.forget(node);
        for (_, pend) in self.queues[node].drain() {
            self.route_and_admit(ctx, pend);
        }
    }

    /// Releases a dead node's leg; re-dispatches or resolves its request.
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
        if let Some(pr) = r.partner.and_then(|p| self.inflight.get_mut(&p)) {
            pr.partner = None;
            return;
        }
        if r.retries_left == 0 {
            self.note_denied(&r.req, r.arrival, Some(r.node), Denial::Lost);
            return;
        }
        if self.tally_active() {
            self.report.retried += 1;
        }
        ctx.world().stats.counter(S::RETRIED).add(1);
        let pend = Pending {
            req: r.req,
            arrival: r.arrival,
            retries_left: r.retries_left - 1,
        };
        self.route_and_admit(ctx, pend);
    }

    /// The one path by which a node comes back (a hang ends, a rejoin
    /// completes): what it held resumes — requests run, responses ship,
    /// probes ack, reviving a node declared Dead — and `counter` fires.
    fn resume_node(&mut self, ctx: &mut Ctx<'_>, node: usize, counter: &'static str) {
        for work in self.faults.resume(node) {
            match work {
                Work::Jobs(req) if self.inflight.contains_key(&req) => self.submit_jobs(ctx, req),
                Work::Response(req) if self.inflight.contains_key(&req) => {
                    self.ship_response(ctx, req);
                }
                Work::Probe(seq) => health::ack_probe(ctx, &self.switch, node, seq),
                Work::Jobs(_) | Work::Response(_) => {}
            }
        }
        ctx.world().stats.counter(counter).add(1);
    }

    /// A crashed node restarts *empty*: every leg it swallowed fails over
    /// now (the probes may not have declared it Dead yet), and it rejoins
    /// — `Joining`, then anti-entropy repair — unless the health layer is
    /// off, in which case it simply serves again.
    fn on_restart(&mut self, ctx: &mut Ctx<'_>, node: usize) {
        self.faults.restart(node);
        self.repair.restarted(node);
        ctx.world().stats.counter("cluster.node_restart").add(1);
        let managed = self.health.begin_join(node);
        self.evacuate(ctx, node);
        if managed {
            let (svc, ring) = (&mut self.svc, &self.ring);
            let landed = self
                .repair
                .start_rejoin(ctx, node, svc, ring, &self.health, &self.faults);
            self.on_landed(ctx, landed);
        }
    }

    /// A repair or rejoin stream finished (or is still running): a
    /// rejoined node leaves `Joining` through the resume path, and the
    /// report is emitted once no stream runs.
    fn on_landed(&mut self, ctx: &mut Ctx<'_>, landed: Landed) {
        match landed {
            Landed::Streaming => return,
            Landed::Repaired => {}
            Landed::Rejoined(node) => {
                self.health.complete_join(node);
                self.svc.on_rejoined(ctx, node);
                self.resume_node(ctx, node, "cluster.node_rejoined");
            }
        }
        self.maybe_emit_report(ctx);
    }

    /// The in-flight legs on the nodes `on` picks.
    fn legs(&self, on: impl Fn(usize) -> bool) -> Vec<u64> {
        let legs = self.inflight.iter().filter(|(_, r)| on(r.node));
        legs.map(|(&k, _)| k).collect()
    }

    fn free_leg(&mut self, r: &InFlight<S::Op>) {
        self.free_slots[r.node].push(r.slot);
    }

    /// Leaves the closed window's report in the world — once no repair
    /// or rejoin stream is running, so it carries the true time-to-repair
    /// — with the stream and service fields stamped.
    fn maybe_emit_report(&mut self, ctx: &mut Ctx<'_>) {
        if self.window != Window::Closed || !self.repair.idle() {
            return;
        }
        self.window = Window::Reported;
        let mut report = self.report.clone();
        self.repair.stamp(&mut report);
        self.svc.stamp(&mut report);
        ctx.world().insert(ClusterOutcome(report));
    }

    fn close_window(&mut self, ctx: &mut Ctx<'_>) {
        // Resolve work stranded on failed nodes while tallies still
        // count: with the health layer off this is where every loss
        // surfaces (the ablation's availability gap).
        let stranded = self.legs(|n| self.faults.stuck(n));
        for req in stranded {
            let r = self.inflight.remove(&req).expect("a stranded leg");
            self.free_leg(&r);
            if r.orphaned {
                continue;
            }
            // A live partner on a healthy node will finish the request
            // after the window (excluded from tallies either way).
            let partner = r.partner.and_then(|p| self.inflight.get_mut(&p));
            let partner_completes = partner
                .as_ref()
                .is_some_and(|pr| !self.faults.stuck(pr.node));
            if let Some(pr) = partner {
                pr.orphaned = true;
                pr.partner = None;
            }
            self.job_to_req.retain(|_, v| *v != req);
            if !partner_completes {
                self.note_denied(&r.req, r.arrival, Some(r.node), Denial::Lost);
            }
        }
        for node in 0..self.nodes.len() {
            if self.faults.stuck(node) {
                for (_, pend) in self.queues[node].drain() {
                    self.note_denied(&pend.req, pend.arrival, Some(node), Denial::Lost);
                }
            }
        }
        self.window = Window::Closed;
        // Parked requests on healthy nodes are abandoned: nothing was
        // submitted for them.
        for q in &mut self.queues {
            q.drain();
        }
        let span = ctx.now() - self.measure_start;
        self.report.span_ns = span;
        let stats = ctx.world_ref().get::<CpuStats>();
        for (perf, node) in self.report.per_node.iter_mut().zip(&self.nodes) {
            perf.cpu_utilization = stats
                .map(|s| s.utilization(&node.server.cpu_key, span))
                .unwrap_or(0.0);
        }
        self.faults.stamp(&mut self.report, ctx.now());
        self.maybe_emit_report(ctx);
    }
}

impl<S: Service> Component for ClusterDriver<S> {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        // Per-request messages first, then the rare ones.
        if let Some(done) = msg.get::<D2dDone>() {
            self.on_job_done(ctx, done);
        } else if msg.is::<CpuJobDone>() {
            // An application-charge completion: nothing to do.
        } else if let Some(&Delivered { req }) = msg.get() {
            self.on_delivered(ctx, req);
        } else if let Some(&Response { req }) = msg.get() {
            self.on_response(ctx, req);
        } else if let Some(&Arrival { stream }) = msg.get() {
            if self.window < Window::Closed {
                self.on_arrival(ctx, stream);
                let gap = self.svc.gap_ns(stream);
                ctx.send_self_in(gap, Arrival { stream });
            }
        } else if let Some(&HedgeFire { req }) = msg.get() {
            self.on_hedge_fire(ctx, req);
        } else if let Some(&ProbeDelivered { node, seq }) = msg.get() {
            if self.faults.admit(node, Work::Probe(seq)) {
                health::ack_probe(ctx, &self.switch, node, seq);
            }
        } else if let Some(ack) = msg.get::<ProbeAck>() {
            self.health.on_ack(ack, ctx.now());
        } else if let Some(deadline) = msg.get::<ProbeDeadline>() {
            if let Some(node) = self.health.on_deadline(deadline, ctx.now()) {
                self.on_node_dead(ctx, node);
            }
        } else if msg.is::<ProbeTick>() {
            if self.window < Window::Closed {
                let tick = self.health.on_probe_tick(ctx, &self.switch);
                self.report.degraded_marks += tick.degraded;
                self.report.slow_evictions += tick.slowed.len() as u64;
                self.report.slow_readmissions += tick.readmitted;
                for node in tick.slowed {
                    self.faults.note_slow(node, ctx.now());
                }
            }
        } else if let Some(&StreamChunk(kind)) = msg.get() {
            self.repair.on_chunk(ctx, kind, &mut self.switch);
        } else if let Some(&StreamDone(kind)) = msg.get() {
            let landed = self.repair.on_done(ctx, kind, &mut self.switch);
            self.on_landed(ctx, landed);
        } else if let Some(&NodeFaultAt { idx }) = msg.get() {
            self.faults.fire(ctx, idx, &mut self.switch, &mut self.svc);
        } else if let Some(&NodeFaultOver { idx }) = msg.get() {
            // A hung node resumes where it froze.
            if let Some(node) = self.faults.clear(idx, &mut self.switch) {
                self.resume_node(ctx, node, "cluster.node_revived");
            }
        } else if let Some(&RestartAt { node }) = msg.get() {
            self.on_restart(ctx, node);
        } else if msg.is::<WarmupOver>() {
            self.window = Window::Open;
            self.measure_start = ctx.now();
            if let Some(stats) = ctx.world().get_mut::<CpuStats>() {
                stats.reset();
            }
        } else if msg.is::<WindowOver>() {
            self.close_window(ctx);
        } else if msg.is::<Start>() {
            self.start(ctx);
        } else {
            panic!("ClusterDriver received unexpected message: {msg:?}");
        }
    }
}
