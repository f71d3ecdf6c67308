//! The store as a [`Service`] of the cluster's one request lifecycle.
//!
//! [`ClusterDriver`](dcs_cluster::ClusterDriver) runs every store request
//! end to end — admission, routing, dispatch, probes, failover, hedging,
//! repair and rejoin. [`StoreService`] supplies what is the store's own:
//! one open-loop stream per tenant walking its YCSB op stream
//! ([`YcsbGenerator`]); cache affinity and the version-checked cache
//! decision at dispatch (a hit runs `MemRead → NicSend`); commit effects
//! (a write bumps the object's version and invalidates every node's
//! copy, a read feeds the serving node's [`ReadCache`]); and the crash
//! and rejoin hooks. A crashed node loses its cache; when it restarts,
//! the service gathers a warm set from the survivors' caches (entries for
//! objects the node replicates, at the committed version) and admits
//! whatever is still current once the node's anti-entropy repair
//! completes.

use dcs_cluster::{
    CacheDecision, ClusterReport, HashRing, Lane, QosPolicy, Request, Service, TenantPerf,
};
use dcs_sim::{Ctx, DetMap, DetSet, Rng};
use dcs_workloads::gen::poisson_gap;
use dcs_workloads::ycsb::{StoreOp, StoreOpKind, YcsbGenerator};

use crate::api::{object_id, StoreConfig, TenantSpec, KEY_BITS};
use crate::cache::ReadCache;

/// Payload bytes of a DELETE (a tombstone record).
const TOMBSTONE_BYTES: usize = 512;

/// The store's workload: tenants, their generators, the node caches and
/// the committed versions.
pub struct StoreService {
    tenants: Vec<TenantSpec>,
    qos: QosPolicy,
    gens: Vec<YcsbGenerator>,
    rngs: Vec<Rng>,
    // dcs-lint: allow(float-in-sim-state) — derived once from per-tenant offered load at build; read-only thereafter
    mean_gap_ns: Vec<f64>,
    caches: Vec<ReadCache>,
    /// Committed version per global object id (absent = 0, never written).
    committed: DetMap<u64, u64>,
    /// Entries gathered from survivors at a restart, admitted when the
    /// node rejoins: `(object, len, version)`.
    warm_plan: Vec<(u64, u64, u64)>,
    warmup_bytes: u64,
    stale_served: u64,
}

impl StoreService {
    /// The service `cfg` describes; every tenant draws from its own fork
    /// of `rng`.
    ///
    /// # Panics
    ///
    /// Panics on an empty tenant list, more than 2^16 tenants, or an
    /// empty tenant value.
    pub fn new(cfg: &StoreConfig, mut rng: Rng) -> StoreService {
        assert!(!cfg.tenants.is_empty(), "a store needs at least one tenant");
        assert!(cfg.tenants.len() < 1 << 16, "tenant id must fit 16 bits");
        assert!(
            cfg.tenants.iter().all(|t| t.value_bytes > 0),
            "tenant values must be non-empty"
        );
        let mean_gap_ns = cfg
            .tenants
            .iter()
            .map(|t| {
                // Scans move (1 + max)/2 values per op on average; fold
                // that into the per-op payload so `offered_gbps` is the
                // tenant's *byte* rate, not its op rate.
                let scan_factor = (1.0 + YcsbGenerator::DEFAULT_MAX_SCAN as f64) / 2.0 - 1.0;
                let mean_bytes = t.value_bytes as f64 * (1.0 + t.workload.mix().scan * scan_factor);
                mean_bytes * 8.0 / t.offered_gbps
            })
            .collect();
        StoreService {
            gens: cfg
                .tenants
                .iter()
                .map(|t| YcsbGenerator::new(t.workload, t.keys, t.theta))
                .collect(),
            rngs: cfg.tenants.iter().map(|_| rng.fork()).collect(),
            mean_gap_ns,
            caches: (0..cfg.nodes).map(|_| ReadCache::new(&cfg.cache)).collect(),
            committed: DetMap::new(),
            warm_plan: Vec::new(),
            warmup_bytes: 0,
            stale_served: 0,
            tenants: cfg.tenants.clone(),
            qos: cfg.qos,
        }
    }

    /// Committed version of a global object (0 = never written).
    fn committed(&self, object: u64) -> u64 {
        self.committed.get(&object).copied().unwrap_or(0)
    }
}

impl Service for StoreService {
    type Op = StoreOp;
    const LABEL: &'static str = "store";
    const SHED: &'static str = "store.shed";
    const RETRIED: &'static str = "store.retried";
    const UNROUTABLE: &'static str = "store.unroutable";

    fn streams(&self) -> usize {
        self.tenants.len()
    }

    fn gap_ns(&mut self, tenant: usize) -> u64 {
        poisson_gap(&mut self.rngs[tenant], self.mean_gap_ns[tenant])
    }

    fn draw(&mut self, tenant: usize) -> Request<StoreOp> {
        let op = self.gens[tenant].next_op(&mut self.rngs[tenant]);
        let value = self.tenants[tenant].value_bytes;
        let len = match op.kind {
            StoreOpKind::Scan { keys } => keys as usize * value,
            StoreOpKind::Delete => TOMBSTONE_BYTES.min(value),
            _ => value,
        };
        Request {
            object: object_id(tenant, op.key),
            len,
            write: op.kind.is_write(),
            stream: tenant,
            op,
        }
    }

    /// The largest tenant value, so every tenant shares one flash layout.
    fn max_object_bytes(&self) -> usize {
        self.tenants
            .iter()
            .map(|t| t.value_bytes)
            .max()
            .expect("tenants checked non-empty")
    }

    fn tags(&self, write: bool, hit: bool) -> (&'static str, &'static str) {
        match (write, hit) {
            (true, _) => ("store-write", "store-app-write"),
            (false, true) => ("store-read-hit", "store-app-read"),
            (false, false) => ("store-read", "store-app-read"),
        }
    }

    /// Every tenant's live keyspace (inserts grow it).
    fn objects(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for (t, (spec, gen)) in self.tenants.iter().zip(&self.gens).enumerate() {
            out.extend((0..gen.keys()).map(|key| (object_id(t, key), spec.value_bytes as u64)));
        }
        out
    }

    fn queue(&self) -> (QosPolicy, Vec<f64>) {
        (self.qos, self.tenants.iter().map(|t| t.weight).collect())
    }

    fn lane(&self, tenant: usize) -> Lane {
        if self.tenants[tenant].priority {
            Lane::Priority
        } else {
            Lane::Bulk
        }
    }

    fn tenants(&self) -> Vec<TenantPerf> {
        self.tenants
            .iter()
            .map(|t| TenantPerf {
                name: t.name.clone(),
                slo_ns: t.slo_ns,
                ..Default::default()
            })
            .collect()
    }

    /// A point read goes to a replica already holding the current
    /// version, if any.
    fn affinity(&self, req: &Request<StoreOp>, candidates: &[usize]) -> Option<usize> {
        if !matches!(req.op.kind, StoreOpKind::Get) {
            return None;
        }
        let cur = self.committed(req.object);
        candidates
            .iter()
            .copied()
            .find(|&n| self.caches[n].peek(req.object) == Some(cur))
    }

    /// Only point reads are eligible, and only a version-current entry
    /// may be served. A version mismatch here is the `stale_served`
    /// tripwire: an invalidation was missed and the old bytes *would*
    /// have been served.
    fn decide(
        &mut self,
        ctx: &mut Ctx<'_>,
        node: usize,
        req: &Request<StoreOp>,
    ) -> Option<CacheDecision> {
        if !matches!(req.op.kind, StoreOpKind::Get) {
            return None;
        }
        let version = self.committed(req.object);
        let mut hit = false;
        if let Some(v) = self.caches[node].lookup(req.object) {
            if v == version {
                hit = true;
            } else {
                self.stale_served += 1;
                self.caches[node].evict_stale(req.object);
                ctx.world().stats.counter("store.stale_lookup").add(1);
            }
        }
        Some(CacheDecision { hit, version })
    }

    /// Writes commit (version bump + cache invalidation everywhere);
    /// reads feed the serving node's cache.
    fn commit(
        &mut self,
        ctx: &mut Ctx<'_>,
        node: usize,
        req: &Request<StoreOp>,
        cache: Option<CacheDecision>,
    ) {
        let object = req.object;
        match req.op.kind {
            StoreOpKind::Put
            | StoreOpKind::Insert
            | StoreOpKind::ReadModifyWrite
            | StoreOpKind::Delete => {
                let v = self.committed(object) + 1;
                self.committed.insert(object, v);
                let mut dropped = 0u64;
                for cache in &mut self.caches {
                    if cache.invalidate(object) {
                        dropped += 1;
                    }
                }
                if dropped > 0 {
                    // Read by the benchmark's `store.invalidations`
                    // (`benchmark/src/run.rs`).
                    ctx.world().obs.count("store", "cache.invalidated", dropped);
                }
            }
            StoreOpKind::Get => {
                if let Some(d) = cache.filter(|d| !d.hit) {
                    if self.committed(object) == d.version {
                        // The flash bytes are still current: offer them.
                        self.caches[node].admit(object, req.len as u64, d.version, false);
                    }
                }
            }
            StoreOpKind::Scan { keys } => {
                // Scan traffic is offered too — AdmitAll lets it flush
                // the hot set (the pollution ablation), ScanResistant
                // refuses it wholesale.
                let value = self.tenants[req.stream].value_bytes as u64;
                for i in 0..keys {
                    let Some(key) = req.op.key.checked_add(i) else {
                        break;
                    };
                    if key >= 1 << KEY_BITS {
                        break;
                    }
                    let obj = object_id(req.stream, key);
                    let cur = self.committed(obj);
                    self.caches[node].admit(obj, value, cur, true);
                }
            }
        }
    }

    fn on_crash(&mut self, node: usize) {
        self.caches[node].clear();
    }

    /// Gathers the warm set in donor order (deterministic: DetMap
    /// insertion order per cache, nodes ascending), deduped by object:
    /// every resident entry a donor holds for an object `node`
    /// replicates, at the version committed now.
    fn on_restart(&mut self, _ctx: &mut Ctx<'_>, ring: &HashRing, node: usize, donors: &[bool]) {
        let mut seen: DetSet<u64> = DetSet::new();
        let mut plan = Vec::new();
        for donor in (0..self.caches.len()).filter(|&d| donors[d]) {
            for (object, len, version) in self.caches[donor].warm_set() {
                if ring.replicas(object).contains(&node)
                    && version == self.committed(object)
                    && seen.insert(object)
                {
                    plan.push((object, len, version));
                }
            }
        }
        self.warm_plan = plan;
    }

    /// Admits every gathered entry still at its committed version (a
    /// write during the rejoin invalidates by simply not being admitted).
    fn on_rejoined(&mut self, ctx: &mut Ctx<'_>, node: usize) {
        for (object, len, version) in std::mem::take(&mut self.warm_plan) {
            if version != self.committed(object) {
                continue;
            }
            self.warmup_bytes += len;
            self.caches[node].admit_warm(object, len, version);
        }
        ctx.world().stats.counter("store.node_warmed").add(1);
    }

    fn stamp(&self, report: &mut ClusterReport) {
        report.stale_served = self.stale_served;
        report.warmup_bytes = self.warmup_bytes;
    }
}
