//! What the request lifecycle asks of a workload.
//!
//! [`ClusterDriver`](crate::ClusterDriver) runs everything a request goes
//! through once it exists: admission, routing, dispatch, the health
//! layer, failover, hedging, repair and rejoin, and the window close. A
//! [`Service`] supplies only what differs between workloads: where
//! requests come from and what they look like, how a node's cache treats
//! them, what a served request changes, and what a crash or a rejoin does
//! to the service's own state. [`SwiftMix`] is the rack's service (the
//! Swift-style GET/PUT mix); `dcs-store` plugs in its multi-tenant
//! object store the same way.

use std::fmt;

use dcs_host::job::D2dOp;
use dcs_ndp::NdpFunction;
use dcs_nic::TcpFlow;
use dcs_sim::{Ctx, Rng};
use dcs_workloads::gen::{poisson_gap, SizeDistribution};

use crate::qos::QosPolicy;
use crate::report::{ClusterReport, TenantPerf};
use crate::shard::HashRing;
use crate::switch::Lane;
use crate::ClusterConfig;

/// One request as the lifecycle routes it.
#[derive(Clone, Copy, Debug)]
pub struct Request<Op> {
    /// Global object id: its place on the hash ring and in flash.
    pub object: u64,
    /// Payload bytes moved: the value read or the body written.
    pub len: usize,
    /// Writes pin to the primary replica; reads choose among replicas
    /// and may be hedged.
    pub write: bool,
    /// The arrival stream (tenant) it came from: its admission-queue
    /// class, its switch lane and its per-tenant report row.
    pub stream: usize,
    /// The service's own description of the operation.
    pub op: Op,
}

/// A node-cache decision, taken at dispatch against the committed
/// version of the object.
#[derive(Clone, Copy, Debug)]
pub struct CacheDecision {
    /// Served from the node's DRAM cache as `MemRead → NicSend`: no
    /// flash read, no integrity hash.
    pub hit: bool,
    /// The object's committed version when the decision was taken.
    pub version: u64,
}

/// The device jobs that serve one request on its node, the receiving
/// end's first, each as (runs on the server rather than its access peer,
/// ops, tag). A read's server sends flash → integrity hash → downlink
/// (DRAM → downlink on a cache `hit`, hashed at admission) to the access
/// peer; a write's access peer streams the body down the node link and
/// the server receives, verifies and persists it at `lba`. The
/// request's admission `slot` picks its TCP ports; `server_tag` tags the
/// server's job.
pub(crate) fn node_jobs(
    write: bool,
    hit: bool,
    len: usize,
    lba: u64,
    slot: u16,
    server_tag: &'static str,
) -> [(bool, Vec<D2dOp>, &'static str); 2] {
    let flow = if write {
        TcpFlow::example(2, 1, 30_000 + slot, 8_100 + slot)
    } else {
        TcpFlow::example(1, 2, 20_000 + slot, 8_000 + slot)
    };
    let md5 = D2dOp::Process {
        function: NdpFunction::Md5,
        aux: vec![],
    };
    let mut recv = vec![D2dOp::NicRecv {
        flow: flow.reversed(),
        len,
    }];
    let mut send = vec![D2dOp::SsdRead { ssd: 0, lba, len }];
    if write {
        recv.extend([md5, D2dOp::SsdWrite { ssd: 0, lba }]);
    } else if hit {
        send = vec![D2dOp::MemRead { len }];
    } else {
        send.push(md5);
    }
    send.push(D2dOp::NicSend { flow, seq: 0 });
    let tag = |on_server: bool| if on_server { server_tag } else { "access" };
    [(write, recv, tag(write)), (!write, send, tag(!write))]
}

/// The workload-specific half of a front end; see the module docs.
///
/// Every hook runs inside the driver's event handler, so a service may
/// touch the world (stats, obs) through `ctx` but must keep its own state
/// deterministic: its RNGs are forked from the front end's at build time.
pub trait Service: Send + 'static {
    /// The service's operation type, carried inside every [`Request`].
    type Op: Copy + fmt::Debug + Send + 'static;
    /// The `obs` component name of the front end's spans and counts.
    const LABEL: &'static str;
    /// Stats counter bumped for every request shed at admission.
    const SHED: &'static str;
    /// Stats counter bumped for every failover re-dispatch.
    const RETRIED: &'static str;
    /// Stats counter bumped when no replica of an object is routable.
    const UNROUTABLE: &'static str;

    /// Number of independent open-loop arrival streams.
    fn streams(&self) -> usize;
    /// Draws the gap to `stream`'s next arrival, ns (at least 1).
    fn gap_ns(&mut self, stream: usize) -> u64;
    /// Draws `stream`'s next request. The lifecycle draws it before the
    /// gap that follows it.
    fn draw(&mut self, stream: usize) -> Request<Self::Op>;
    /// Largest object payload, bytes: sizes every object's flash slot.
    fn max_object_bytes(&self) -> usize;
    /// Tags of the server's device job and of the application CPU charge
    /// for a request of this shape.
    fn tags(&self, write: bool, hit: bool) -> (&'static str, &'static str);
    /// Every object the shard map places, with its size in bytes: the set
    /// re-replication and rejoin anti-entropy copy.
    fn objects(&self) -> Vec<(u64, u64)>;

    /// Admission-queue ordering and one weight per stream.
    fn queue(&self) -> (QosPolicy, Vec<f64>) {
        (QosPolicy::Fifo, vec![1.0])
    }
    /// The switch lane `stream`'s requests and responses ride.
    fn lane(&self, _stream: usize) -> Lane {
        Lane::Bulk
    }
    /// Per-tenant report rows, one per stream (empty: no tenant rows).
    fn tenants(&self) -> Vec<TenantPerf> {
        Vec::new()
    }
    /// A read's preferred replica among the routable `candidates`, taken
    /// ahead of the load balancer (cache affinity).
    fn affinity(&self, _req: &Request<Self::Op>, _candidates: &[usize]) -> Option<usize> {
        None
    }
    /// The cache decision for `req` on `node` at dispatch; `None` when
    /// the request is not cacheable.
    fn decide(
        &mut self,
        _ctx: &mut Ctx<'_>,
        _node: usize,
        _req: &Request<Self::Op>,
    ) -> Option<CacheDecision> {
        None
    }
    /// State effects of a leg `node` served successfully. Runs whether
    /// or not the window is measuring.
    fn commit(
        &mut self,
        _ctx: &mut Ctx<'_>,
        _node: usize,
        _req: &Request<Self::Op>,
        _cache: Option<CacheDecision>,
    ) {
    }
    /// `node` crashed: whatever it held in memory is gone.
    fn on_crash(&mut self, _node: usize) {}
    /// `node` restarted and begins rejoining; `donors[n]` marks the nodes
    /// that are up and serving.
    fn on_restart(&mut self, _ctx: &mut Ctx<'_>, _ring: &HashRing, _node: usize, _donors: &[bool]) {
    }
    /// `node` finished rejoining and is about to take traffic again.
    fn on_rejoined(&mut self, _ctx: &mut Ctx<'_>, _node: usize) {}
    /// Writes the service's own fields into the finished report.
    fn stamp(&self, _report: &mut ClusterReport) {}
}

/// The rack's service: one Poisson stream of Swift-style GETs and PUTs
/// over a fixed object set, sized to the cluster's offered load. GETs run
/// `SsdRead → MD5 → NicSend`, PUTs the reverse; nothing is cached.
pub struct SwiftMix {
    rng: Rng,
    objects: u64,
    // dcs-lint: allow(float-in-sim-state) — an input ratio copied from the config; read-only thereafter
    get_fraction: f64,
    sizes: SizeDistribution,
    // dcs-lint: allow(float-in-sim-state) — derived once from the offered load at build; read-only thereafter
    mean_interarrival_ns: f64,
}

impl SwiftMix {
    /// The mix `cfg` describes, drawing from `rng`.
    pub fn new(cfg: &ClusterConfig, rng: Rng) -> SwiftMix {
        assert!(
            cfg.sizes.max as u64 * 8 <= 4 << 30,
            "object window sizing assumes objects of at most 512 MiB"
        );
        let total_gbps = cfg.offered_gbps_per_node * cfg.nodes as f64;
        SwiftMix {
            rng,
            objects: cfg.objects,
            get_fraction: cfg.get_fraction,
            sizes: cfg.sizes.clone(),
            mean_interarrival_ns: cfg.sizes.mean_estimate() * 8.0 / total_gbps,
        }
    }
}

impl Service for SwiftMix {
    type Op = ();
    const LABEL: &'static str = "cluster";
    const SHED: &'static str = "cluster.shed";
    const RETRIED: &'static str = "cluster.retried";
    const UNROUTABLE: &'static str = "cluster.unroutable";

    fn streams(&self) -> usize {
        1
    }

    fn gap_ns(&mut self, _stream: usize) -> u64 {
        poisson_gap(&mut self.rng, self.mean_interarrival_ns)
    }

    fn draw(&mut self, _stream: usize) -> Request<()> {
        let object = self.rng.gen_range(0..self.objects);
        let len = self.sizes.sample(&mut self.rng);
        let is_get = self.rng.gen_bool(self.get_fraction);
        Request {
            object,
            len,
            write: !is_get,
            stream: 0,
            op: (),
        }
    }

    fn max_object_bytes(&self) -> usize {
        self.sizes.max
    }

    fn tags(&self, write: bool, _hit: bool) -> (&'static str, &'static str) {
        if write {
            ("kernel-put", "app-put")
        } else {
            ("kernel-get", "app-get")
        }
    }

    fn objects(&self) -> Vec<(u64, u64)> {
        let bytes = self.sizes.mean_estimate().ceil() as u64;
        (0..self.objects).map(|o| (o, bytes)).collect()
    }
}
