//! Layer probes: timed calls into each crate's public functions, sized
//! from the workload's own config and run outside every `wall_s` timer.
//!
//! Each probe repeats its measurement a few times and reports the median,
//! so one preempted batch does not move the figure.

use std::hint::black_box;

use dcs_cluster::{HashRing, HealthConfig, HealthMonitor, LbPolicy, NodeLoad};
use dcs_ndp::NdpFunction;
use dcs_nic::headers::{build_frame, parse_frame};
use dcs_nic::TcpFlow;
use dcs_pcie::{PhysMemory, PortId};
use dcs_sim::stats::Stats;
use dcs_sim::{DetMap, Rng};
use dcs_store::cache::{Admission, CacheConfig, ReadCache};
use dcs_store::qos::{QosPolicy, QosQueue};
use dcs_workloads::gen::{SizeDistribution, Zipfian};

use crate::clock;

/// Batches per probe; the median batch is reported.
const REPEATS: usize = 5;

/// The sizes a workload's probes run at.
#[derive(Clone, Debug)]
pub struct ProbeShape {
    /// Largest keyed table the workload holds and removes from.
    pub table_entries: usize,
    /// Mean DMA transfer size, bytes.
    pub dma_bytes: usize,
    /// Mean wire-frame payload size, bytes.
    pub frame_payload: usize,
    /// Object sizes the NDP kernels hash.
    pub objects: ObjectSizes,
    /// Nodes the front end routes over.
    pub nodes: usize,
    /// Virtual nodes per node on the hash ring.
    pub vnodes_per_node: usize,
    /// Replicas per object.
    pub replication: usize,
    /// Keyspace of the zipfian key draws.
    pub keys: u64,
    /// Zipfian skew.
    pub theta: f64,
    /// Per-node read-cache budget, bytes.
    pub cache_bytes: u64,
    /// Value size the cache holds, bytes.
    pub value_bytes: u64,
    /// Tenants sharing the admission queue.
    pub tenants: usize,
    /// Per-tenant admission-queue bound.
    pub queue_cap: usize,
    /// `world.stats` counter names the workload registers.
    pub counter_names: Vec<&'static str>,
}

/// Object sizes for the hashing probe.
#[derive(Clone, Debug)]
pub enum ObjectSizes {
    /// Drawn from a size distribution.
    Dist(SizeDistribution),
    /// Fixed-size values.
    Fixed(usize),
}

/// One probe's result plus its host-time span.
pub struct ProbeResult {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Host-time start, ns since the run began.
    pub start_ns: u64,
    /// Host-time duration, ns.
    pub dur_ns: u64,
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Runs `batch` [`REPEATS`] times; each returns (host ns, operations)
/// and the median ns per operation is reported.
fn per_op(mut batch: impl FnMut() -> (u128, u64)) -> f64 {
    median(
        (0..REPEATS)
            .map(|_| {
                let (ns, ops) = batch();
                ns as f64 / ops.max(1) as f64
            })
            .collect(),
    )
}

/// Runs every probe at `shape`; spans are stamped relative to `epoch`.
pub fn run_all(shape: &ProbeShape, epoch: clock::Instant) -> Vec<ProbeResult> {
    type Probe = fn(&ProbeShape) -> f64;
    let probes: [(&'static str, Probe); 12] = [
        ("sim.dispatch_floor_ns", dispatch_floor_ns),
        ("sim.detmap_remove_ns", detmap_remove_ns),
        ("sim.counter_ns", counter_ns),
        ("pcie.copy_mb_per_s", copy_mb_per_s),
        ("nic.frame_codec_ns", frame_codec_ns),
        ("ndp.md5_mb_per_s", md5_mb_per_s),
        ("workloads.zipf_sample_ns", zipf_sample_ns),
        ("cluster.route_ns", route_ns),
        ("cluster.health_eval_ns", health_eval_ns),
        ("store.cache_lookup_ns", cache_lookup_ns),
        ("store.cache_admit_ns", cache_admit_ns),
        ("store.qos_ns", qos_ns),
    ];
    probes
        .into_iter()
        .map(|(name, f)| {
            let t0 = clock::now();
            let value = f(shape);
            ProbeResult {
                name,
                value,
                start_ns: (t0 - epoch).as_nanos() as u64,
                dur_ns: t0.elapsed().as_nanos() as u64,
            }
        })
        .collect()
}

/// Two components bouncing one message through `Simulator::step`: the
/// calendar-and-dispatch cost of one event (the same at every shape).
fn dispatch_floor_ns(_: &ProbeShape) -> f64 {
    median(
        (0..REPEATS)
            .map(|_| {
                let r = dcs_bench::engine::run_ping_pong(true, false);
                r.wall_ns as f64 / r.events.max(1) as f64
            })
            .collect(),
    )
}

/// `DetMap::remove` on a table of the workload's largest size (each
/// removed key is re-inserted untimed, so the size holds).
fn detmap_remove_ns(s: &ProbeShape) -> f64 {
    let n = s.table_entries.max(1) as u64;
    let mut map: DetMap<u64, u64> = DetMap::new();
    for k in 0..n {
        map.insert(k, k);
    }
    let mut rng = Rng::new(0xDE7);
    let batch = 256u64;
    per_op(|| {
        let keys: Vec<u64> = (0..batch).map(|_| rng.gen_range(0..n)).collect();
        let mut ns = 0;
        for &k in &keys {
            let t0 = clock::now();
            let v = black_box(map.remove(&k));
            ns += t0.elapsed().as_nanos();
            map.insert(k, v.unwrap_or(k));
        }
        (ns, batch)
    })
}

/// `Stats::counter(name).add` over the workload's registered names.
fn counter_ns(s: &ProbeShape) -> f64 {
    let mut stats = Stats::new();
    let names = if s.counter_names.is_empty() {
        vec!["probe"]
    } else {
        s.counter_names.clone()
    };
    for &n in &names {
        stats.counter(n).add(1);
    }
    let ops = 200_000u64;
    per_op(|| {
        let t0 = clock::now();
        for i in 0..ops {
            stats
                .counter(black_box(names[i as usize % names.len()]))
                .add(1);
        }
        (t0.elapsed().as_nanos(), ops)
    })
}

/// `PhysMemory::write` then `read` at the mean DMA transfer size, MB/s
/// of bytes moved (each byte counts once per direction).
fn copy_mb_per_s(s: &ProbeShape) -> f64 {
    let len = s.dma_bytes.max(64);
    let mut mem = PhysMemory::new();
    let region = mem.alloc_region("probe", 1 << 30, PortId::ROOT);
    let data = vec![0xA5u8; len];
    let slots = ((64usize << 20) / len).max(1) as u64;
    let mut out = vec![0u8; len];
    let rounds = slots * 2;
    let per_byte_ns = per_op(|| {
        let t0 = clock::now();
        for i in 0..rounds {
            let addr = region.start + (i % slots) * len as u64;
            mem.write(addr, black_box(&data));
            mem.read_into(addr, &mut out);
            black_box(&out);
        }
        (t0.elapsed().as_nanos(), rounds * 2 * len as u64)
    });
    1e3 / per_byte_ns
}

/// `headers::build_frame` + `parse_frame` at the mean frame payload.
fn frame_codec_ns(s: &ProbeShape) -> f64 {
    let flow = TcpFlow::example(1, 2, 20_000, 8_000);
    let payload = vec![0x5Au8; s.frame_payload.clamp(1, 9000)];
    let ops = 20_000u64;
    per_op(|| {
        let t0 = clock::now();
        for i in 0..ops {
            let f = build_frame(&flow, i as u32, 0, black_box(&payload));
            black_box(parse_frame(&f).expect("a frame the codec built parses"));
        }
        (t0.elapsed().as_nanos(), ops)
    })
}

/// `NdpFunction::Md5.apply` over the workload's object sizes, MB/s.
fn md5_mb_per_s(s: &ProbeShape) -> f64 {
    let mut rng = Rng::new(0x3D5);
    let sizes: Vec<usize> = match &s.objects {
        ObjectSizes::Dist(d) => {
            let mut v = Vec::new();
            let mut total = 0;
            while total < 8 << 20 {
                let n = d.sample(&mut rng);
                total += n;
                v.push(n);
            }
            v
        }
        ObjectSizes::Fixed(n) => vec![*n; ((8usize << 20) / n.max(&1)).max(1)],
    };
    let buf = vec![0x3Cu8; sizes.iter().copied().max().unwrap_or(1)];
    let total: usize = sizes.iter().sum();
    let per_byte_ns = per_op(|| {
        let t0 = clock::now();
        for &n in &sizes {
            black_box(
                NdpFunction::Md5
                    .apply(black_box(&buf[..n]), &[])
                    .expect("MD5 takes any input"),
            );
        }
        (t0.elapsed().as_nanos(), total as u64)
    });
    1e3 / per_byte_ns
}

/// `Zipfian::sample` over the workload's keyspace.
fn zipf_sample_ns(s: &ProbeShape) -> f64 {
    let z = Zipfian::new(s.keys.max(1), s.theta);
    let mut rng = Rng::new(0x21F);
    let ops = 200_000u64;
    per_op(|| {
        let t0 = clock::now();
        for _ in 0..ops {
            black_box(z.sample(&mut rng));
        }
        (t0.elapsed().as_nanos(), ops)
    })
}

/// `HashRing::replicas` + `LbPolicy::choose` (JSQ) over one `NodeLoad`
/// per node.
fn route_ns(s: &ProbeShape) -> f64 {
    let ring = HashRing::new(s.nodes, s.vnodes_per_node, s.replication.min(s.nodes));
    let mut rng = Rng::new(0x2047);
    let loads: Vec<NodeLoad> = (0..s.nodes)
        .map(|_| NodeLoad {
            outstanding: rng.gen_range(0..48) as usize,
            queued: rng.gen_range(0..8) as usize,
            penalty: 0,
        })
        .collect();
    let objects: Vec<u64> = (0..4096).map(|_| rng.gen_range(0..u64::MAX >> 1)).collect();
    let mut cursor = 0;
    per_op(|| {
        let t0 = clock::now();
        for &o in &objects {
            let reps = ring.replicas(black_box(o));
            black_box(LbPolicy::JoinShortestQueue.choose(&reps, &loads, &mut cursor));
        }
        (t0.elapsed().as_nanos(), objects.len() as u64)
    })
}

/// `HealthMonitor::evaluate_slow` at the workload's node count, every
/// node carrying latency samples.
fn health_eval_ns(s: &ProbeShape) -> f64 {
    let mut mon = HealthMonitor::new(&HealthConfig::default(), s.nodes);
    let mut rng = Rng::new(0x4EA1);
    for n in 0..s.nodes {
        for _ in 0..16 {
            mon.record_latency(n, 200_000 + rng.gen_range(0..50_000));
        }
    }
    let ops = 2_000u64;
    per_op(|| {
        let t0 = clock::now();
        for _ in 0..ops {
            black_box(mon.evaluate_slow());
        }
        (t0.elapsed().as_nanos(), ops)
    })
}

/// A scan-resistant cache filled to capacity, and a zipfian key trace
/// over the keyspace to replay against it.
fn filled_cache(s: &ProbeShape) -> (ReadCache, Vec<u64>) {
    let mut cache = ReadCache::new(&CacheConfig {
        capacity_bytes: s.cache_bytes,
        admission: Admission::ScanResistant,
    });
    // Every key offered twice clears scan-resistant admission.
    for k in 0..s.keys.min(s.cache_bytes / s.value_bytes.max(1) + 1) {
        cache.admit(k, s.value_bytes, 1, false);
        cache.admit(k, s.value_bytes, 1, false);
    }
    let z = Zipfian::new(s.keys.max(1), s.theta);
    let mut rng = Rng::new(0xCAC4E);
    let trace = (0..50_000).map(|_| z.sample(&mut rng)).collect();
    (cache, trace)
}

/// `ReadCache::lookup` on a full cache, replaying a zipfian trace.
fn cache_lookup_ns(s: &ProbeShape) -> f64 {
    let (mut cache, trace) = filled_cache(s);
    per_op(|| {
        let t0 = clock::now();
        for &k in &trace {
            black_box(cache.lookup(black_box(k)));
        }
        (t0.elapsed().as_nanos(), trace.len() as u64)
    })
}

/// `ReadCache::admit` on a full cache (refreshes and evictions),
/// replaying a zipfian trace.
fn cache_admit_ns(s: &ProbeShape) -> f64 {
    let (mut cache, trace) = filled_cache(s);
    per_op(|| {
        let t0 = clock::now();
        for &k in &trace {
            cache.admit(black_box(k), s.value_bytes, 1, false);
        }
        (t0.elapsed().as_nanos(), trace.len() as u64)
    })
}

/// `QosQueue::try_push` + `pop` (WFQ) at full queue depth.
fn qos_ns(s: &ProbeShape) -> f64 {
    let tenants = s.tenants.max(1);
    let weights = vec![1.0; tenants];
    let mut q: QosQueue<u64> = QosQueue::new(QosPolicy::Wfq, &weights, s.queue_cap);
    for i in 0..(tenants * s.queue_cap.saturating_sub(1)) as u64 {
        q.try_push(i as usize % tenants, 16384.0, i)
            .expect("below the per-tenant bound");
    }
    let ops = 100_000u64;
    per_op(|| {
        let t0 = clock::now();
        for i in 0..ops {
            // Refill the tenant just served, so every depth holds.
            let (tenant, _) = q.pop().expect("the queue is never empty");
            q.try_push(tenant, 16384.0, black_box(i))
                .expect("the popped tenant has a free slot");
        }
        (t0.elapsed().as_nanos(), ops)
    })
}
