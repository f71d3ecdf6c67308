//! Re-replication and rejoin: bandwidth-capped chunk streams between
//! nodes.
//!
//! When the health layer declares a node Dead, every object it
//! replicated is copied from a surviving replica to the first ring
//! successor outside the replica set (re-replication). When a crashed
//! node restarts, survivors stream its shards back to it (rejoin
//! anti-entropy: the same path in reverse). Both plans aggregate their
//! transfers per (source, destination) pair and drain as a chunk stream
//! over the switch's node ports, paced at a Gbps cap and contending with
//! foreground traffic.

use std::collections::{BTreeMap, VecDeque};

use dcs_sim::{Bandwidth, Ctx, SimTime};

use crate::health::{HealthMonitor, NodeState};
use crate::node_fault::NodeFaults;
use crate::report::ClusterReport;
use crate::service::Service;
use crate::shard::HashRing;
use crate::switch::TorSwitch;

/// Pacing rate of the re-replication stream, Gbps (the bandwidth cap;
/// chunks still serialize — and contend — on the ToR ports).
const REPAIR_GBPS: f64 = 2.0;
/// Chunk size of both streams.
const CHUNK_BYTES: usize = 256 * 1024;

/// The two east-west chunk streams.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum StreamKind {
    /// Re-replication: survivors copy a dead node's shards to ring
    /// successors.
    Repair,
    /// Rejoin anti-entropy: survivors stream a restarted node's shards
    /// back to it.
    Rejoin,
}

/// Pacing tick of a chunk stream: ship the next chunk.
#[derive(Debug)]
pub(crate) struct StreamChunk(pub(crate) StreamKind);

/// The last chunk of a stream was delivered.
#[derive(Debug)]
pub(crate) struct StreamDone(pub(crate) StreamKind);

/// What a stream event finished.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Landed {
    /// Nothing yet: the stream is still running.
    Streaming,
    /// Re-replication completed.
    Repaired,
    /// The rejoin stream to this node completed.
    Rejoined(usize),
}

/// A bandwidth-capped chunk stream between nodes over the switch ports.
#[derive(Debug)]
struct ChunkStream {
    pace: Bandwidth,
    /// Remaining `(src, dst, bytes)` transfers, drained front first.
    queue: VecDeque<(usize, usize, u64)>,
    bytes_sent: u64,
    last_delivery: SimTime,
    start_at: Option<SimTime>,
    done_at: Option<SimTime>,
    active: bool,
}

impl ChunkStream {
    fn new(gbps: f64) -> ChunkStream {
        ChunkStream {
            pace: Bandwidth::gbps(gbps),
            queue: VecDeque::new(),
            bytes_sent: 0,
            last_delivery: SimTime::ZERO,
            start_at: None,
            done_at: None,
            active: false,
        }
    }

    /// Start-to-finish time, once the stream has run to completion.
    fn elapsed_ns(&self) -> Option<u64> {
        Some(self.done_at? - self.start_at?)
    }
}

/// Both streams, and which nodes they serve.
pub(crate) struct Repair {
    /// Nodes whose death already planned a re-replication.
    started: Vec<bool>,
    repair: ChunkStream,
    rejoin: ChunkStream,
    /// The node currently rejoining.
    rejoin_node: Option<usize>,
}

impl Repair {
    /// Idle streams for `n` nodes; rejoin streams pace at `rejoin_gbps`.
    pub(crate) fn new(n: usize, rejoin_gbps: f64) -> Repair {
        Repair {
            started: vec![false; n],
            repair: ChunkStream::new(REPAIR_GBPS),
            rejoin: ChunkStream::new(rejoin_gbps),
            rejoin_node: None,
        }
    }

    fn stream(&mut self, kind: StreamKind) -> &mut ChunkStream {
        match kind {
            StreamKind::Repair => &mut self.repair,
            StreamKind::Rejoin => &mut self.rejoin,
        }
    }

    /// Plans the repair of dead `node`'s shards, once per death: for
    /// every object replicated on it, a replica `health` does not believe
    /// Dead streams a copy to the first such ring successor outside the
    /// replica set.
    pub(crate) fn start_repair<S: Service>(
        &mut self,
        ctx: &mut Ctx<'_>,
        node: usize,
        svc: &S,
        ring: &HashRing,
        health: &HealthMonitor,
    ) {
        if self.started[node] {
            return;
        }
        self.started[node] = true;
        let alive = |n: usize| health.state(n) != NodeState::Dead;
        let mut transfers: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        for (object, object_bytes) in svc.objects() {
            let replicas = ring.replicas(object);
            if !replicas.contains(&node) {
                continue;
            }
            let Some(&src) = replicas.iter().find(|&&n| n != node && alive(n)) else {
                continue; // every replica is gone: nothing left to copy
            };
            let pref = ring.preference_list(object, ring.nodes());
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

    /// A crashed `node` restarted: a later crash re-replicates it again
    /// from scratch.
    pub(crate) fn restarted(&mut self, node: usize) {
        self.started[node] = false;
    }

    /// A restarted `node` begins its rejoin: the service gathers what the
    /// donors (up, and neither Dead nor Joining to `health`) can hand it,
    /// then for every object replicated on the node a surviving replica
    /// streams the shard back. With nothing to copy (a degenerate ring)
    /// the node rejoins at once.
    pub(crate) fn start_rejoin<S: Service>(
        &mut self,
        ctx: &mut Ctx<'_>,
        node: usize,
        svc: &mut S,
        ring: &HashRing,
        health: &HealthMonitor,
        faults: &NodeFaults,
    ) -> Landed {
        let up = |n: usize| n != node && !faults.crashed(n);
        let donors: Vec<bool> = (0..ring.nodes())
            .map(|d| up(d) && !matches!(health.state(d), NodeState::Dead | NodeState::Joining))
            .collect();
        svc.on_restart(ctx, ring, node, &donors);
        let alive = |n: usize| up(n) && health.state(n) != NodeState::Dead;
        let mut transfers: BTreeMap<usize, u64> = BTreeMap::new();
        for (object, object_bytes) in svc.objects() {
            let replicas = ring.replicas(object);
            if !replicas.contains(&node) {
                continue;
            }
            let Some(&src) = replicas.iter().find(|&&n| alive(n)) else {
                continue; // no surviving replica holds this shard
            };
            *transfers.entry(src).or_insert(0) += object_bytes;
        }
        self.rejoin_node = Some(node);
        self.rejoin.start_at = Some(ctx.now());
        if transfers.is_empty() {
            return self.finish(StreamKind::Rejoin, ctx.now());
        }
        let transfers = transfers.into_iter().map(|(src, b)| (src, node, b));
        self.enqueue(ctx, StreamKind::Rejoin, transfers);
        Landed::Streaming
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

    /// Ships the `kind` stream's next chunk through `switch`, then paces
    /// the next one or schedules the stream's finish.
    pub(crate) fn on_chunk(&mut self, ctx: &mut Ctx<'_>, kind: StreamKind, switch: &mut TorSwitch) {
        let s = self.stream(kind);
        let Some(&(src, dst, remaining)) = s.queue.front() else {
            return;
        };
        let chunk = remaining.min(CHUNK_BYTES as u64);
        let delivered = switch.node_to_node(ctx.now(), src, dst, chunk as usize);
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
            let pace = s.pace.transfer_time(chunk as usize).max(1);
            ctx.send_self_in(pace, StreamChunk(kind));
        }
    }

    /// The `kind` stream's scheduled finish arrived. A second failure
    /// may have queued more transfers since: then it keeps streaming.
    pub(crate) fn on_done(
        &mut self,
        ctx: &mut Ctx<'_>,
        kind: StreamKind,
        switch: &mut TorSwitch,
    ) -> Landed {
        if !self.stream(kind).queue.is_empty() {
            self.on_chunk(ctx, kind, switch);
            return Landed::Streaming;
        }
        self.finish(kind, ctx.now())
    }

    fn finish(&mut self, kind: StreamKind, now: SimTime) -> Landed {
        let s = self.stream(kind);
        s.active = false;
        s.done_at = Some(now);
        match kind {
            StreamKind::Repair => Landed::Repaired,
            StreamKind::Rejoin => {
                Landed::Rejoined(self.rejoin_node.take().expect("a rejoin was running"))
            }
        }
    }

    /// Is no stream running?
    pub(crate) fn idle(&self) -> bool {
        !self.repair.active && !self.rejoin.active
    }

    /// Writes both streams' volume and duration into `report`.
    pub(crate) fn stamp(&self, report: &mut ClusterReport) {
        report.repair_bytes = self.repair.bytes_sent;
        report.repair_ns = self.repair.elapsed_ns();
        report.rejoin_bytes = self.rejoin.bytes_sent;
        report.rejoin_ns = self.rejoin.elapsed_ns();
    }
}
