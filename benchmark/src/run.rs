//! The measured run (`--trace 0`: end-to-end metrics, tracing off) and
//! the traced run (`--trace 1`: per-layer metrics).
//!
//! Correctness, per window: the simulation drains, no cached response is
//! stale, nothing panics, and the digest of the modeled report repeats on
//! every re-run of the same window.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use dcs_cluster::ClusterReport;
use dcs_sim::obs::{chrome_trace, MetricValue, Recorder};
use dcs_sim::{fnv1a64, Histogram, SimTime};
use dcs_workloads::{DesignUnderTest, WorkloadReport};

use crate::clock;
use crate::probes::{self, ObjectSizes, ProbeShape};
use crate::workloads::{self, Modeled, StepTrace, Window, Workload};

/// Steps slower than this count as heavy (host ns).
const HEAVY_STEP_NS: u32 = 20_000;
/// Sim-time spans written to the chrome trace (the first ones recorded).
const TRACE_SPANS: usize = 50_000;

/// What one run reports.
pub struct Outcome {
    /// Every check held.
    pub correct: bool,
    /// Modeled requests attempted.
    pub attempted: u64,
    /// Modeled requests that failed, were shed, denied or lost.
    pub failed: u64,
    /// `(name, value)` per metric, in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Digest of every modeled report of the run.
    pub digest: u64,
    /// Why a check failed, one line each.
    pub problems: Vec<String>,
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One window under `catch_unwind`, its digest, and its checks.
struct Checked {
    window: Window,
    digest: u64,
}

fn checked_window(
    w: Workload,
    seed: u64,
    trace: Option<&mut StepTrace>,
    problems: &mut Vec<String>,
) -> Option<Checked> {
    let result = catch_unwind(AssertUnwindSafe(|| workloads::run_window(w, seed, trace)));
    let window = match result {
        Ok(win) => win,
        Err(_) => {
            problems.push(format!("window seed {seed:#x} panicked"));
            return None;
        }
    };
    if !window.idle {
        problems.push(format!("window seed {seed:#x} did not drain"));
    }
    if let Modeled::Cluster(r) = &window.modeled {
        if r.stale_served != 0 {
            problems.push(format!(
                "window seed {seed:#x} served {} stale",
                r.stale_served
            ));
        }
    }
    let digest = fnv1a64(format!("{:?}", window.modeled).as_bytes());
    Some(Checked { window, digest })
}

/// Requests attempted and failed in a window's modeled result.
fn attempted_failed(m: &Modeled) -> (u64, u64) {
    match m {
        Modeled::Cluster(r) => {
            let failed = r.get_denied + r.put_denied;
            (r.get_ok + r.put_ok + failed, failed)
        }
        Modeled::Swift { rows, .. } => rows
            .iter()
            .fold((0, 0), |(a, f), (_, r)| (a + r.requests, f + r.failures)),
    }
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ----------------------------------------------------------------------
// Modeled metrics.
// ----------------------------------------------------------------------

/// Span-weighted pool of server reports (one design).
fn pool_reports<'a>(reports: impl Iterator<Item = &'a WorkloadReport>) -> WorkloadReport {
    let mut out = WorkloadReport::default();
    let mut busy: BTreeMap<String, f64> = BTreeMap::new();
    for r in reports {
        out.span_ns += r.span_ns;
        out.requests += r.requests;
        out.bytes += r.bytes;
        out.failures += r.failures;
        for (tag, u) in &r.cpu_breakdown {
            *busy.entry(tag.clone()).or_default() += u * r.span_ns as f64;
        }
    }
    let span = out.span_ns.max(1) as f64;
    out.cpu_breakdown = busy.into_iter().map(|(t, b)| (t, b / span)).collect();
    out
}

/// One rack/store report as a per-node server report, for the CPU
/// reduction (bytes per node, mean node utilization).
fn per_node_report(r: &ClusterReport) -> WorkloadReport {
    let nodes = r.per_node.len().max(1);
    let util = r.per_node.iter().map(|n| n.cpu_utilization).sum::<f64>() / nodes as f64;
    WorkloadReport {
        span_ns: r.span_ns,
        requests: r.requests / nodes as u64,
        bytes: r.bytes / nodes as u64,
        cpu_breakdown: [("node".to_string(), util)].into_iter().collect(),
        failures: r.failures,
    }
}

/// Inclusive upper bound of `Histogram` bucket `idx`, in the layout its
/// docs state: exact buckets below 32, then 32 linear sub-buckets per
/// power-of-two octave.
fn bucket_upper(idx: usize) -> u64 {
    const SUB: usize = 32;
    if idx < 2 * SUB {
        idx as u64
    } else {
        let shift = (idx / SUB - 1) as u32;
        (((idx % SUB + SUB + 1) as u64) << shift) - 1
    }
}

/// Percentile `p` of `h`, interpolated by rank within the bucket that
/// holds it. `Histogram::percentile` reports the bucket's upper bound,
/// which reads the same on every seed whose percentile shares a bucket.
fn percentile_ns(h: &Histogram, p: f64) -> f64 {
    let (Some(min), Some(max)) = (h.min(), h.max()) else {
        return 0.0;
    };
    let rank = (p / 100.0 * h.count() as f64).max(1.0);
    let mut seen = 0u64;
    for (idx, n) in h.nonzero_buckets() {
        if (seen + n) as f64 >= rank {
            let lo = if idx == 0 {
                0
            } else {
                bucket_upper(idx - 1) + 1
            }
            .max(min);
            let hi = bucket_upper(idx).min(max);
            let frac = (rank - seen as f64) / n as f64;
            return lo as f64 + (hi - lo) as f64 * frac;
        }
        seen += n;
    }
    max as f64
}

/// End-to-end modeled metrics pooled over a run's windows (all but
/// `model.ok_ratio`, which the caller counts).
fn modeled_metrics(
    windows: &[&Modeled],
    reference: Option<&ClusterReport>,
) -> Vec<(&'static str, f64)> {
    let mut latency = Histogram::new();
    let (dcs, p2p) = match windows[0] {
        Modeled::Cluster(_) => {
            let reports: Vec<&ClusterReport> = windows
                .iter()
                .map(|m| match m {
                    Modeled::Cluster(r) => r.as_ref(),
                    Modeled::Swift { .. } => unreachable!("one workload per run"),
                })
                .collect();
            for r in &reports {
                latency.merge(&r.latency);
            }
            let per_node: Vec<WorkloadReport> =
                reports.iter().map(|r| per_node_report(r)).collect();
            let dcs = pool_reports(per_node.iter());
            let p2p = per_node_report(reference.expect("rack and store runs price a reference"));
            (dcs, p2p)
        }
        Modeled::Swift { .. } => {
            let mut rows: BTreeMap<&'static str, Vec<&WorkloadReport>> = BTreeMap::new();
            for m in windows {
                if let Modeled::Swift {
                    rows: r,
                    latency: l,
                    ..
                } = m
                {
                    latency.merge(l);
                    for (d, rep) in r {
                        rows.entry(d.label()).or_default().push(rep);
                    }
                }
            }
            let pick = |d: DesignUnderTest| pool_reports(rows[d.label()].iter().copied());
            (pick(DesignUnderTest::DcsCtrl), pick(DesignUnderTest::SwP2p))
        }
    };
    let goodput = match windows[0] {
        // Rack and store goodput is cluster-wide; `dcs` is per node.
        Modeled::Cluster(_) => {
            let (bytes, span) = windows.iter().fold((0, 0), |(b, s), m| match m {
                Modeled::Cluster(r) => (b + r.bytes, s + r.span_ns),
                Modeled::Swift { .. } => (b, s),
            });
            bytes as f64 * 8.0 / span.max(1) as f64
        }
        Modeled::Swift { .. } => dcs.throughput_gbps(),
    };
    let cpu_util = dcs.cpu_utilization();
    let cpu_reduction = dcs_bench::fig12::cpu_reduction(&[
        (DesignUnderTest::SwP2p, p2p),
        (DesignUnderTest::DcsCtrl, dcs),
    ]);
    vec![
        ("model.goodput_gbps", goodput),
        ("model.p50_us", percentile_ns(&latency, 50.0) / 1e3),
        ("model.p99_us", percentile_ns(&latency, 99.0) / 1e3),
        ("model.cpu_util", cpu_util),
        ("model.cpu_reduction", cpu_reduction),
    ]
}

// ----------------------------------------------------------------------
// The measured run.
// ----------------------------------------------------------------------

/// Repeats passes over the workload's windows until `seconds` have gone
/// by (at least one pass), timing a lone bring-up before each window so
/// the samples spread over the whole run. Host metrics are medians;
/// modeled metrics pool the first pass's windows.
pub fn measured(w: Workload, seed: u64, seconds: f64) -> Outcome {
    let began = clock::now();
    let seeds: Vec<u64> = (0..w.windows()).map(|i| w.window_seed(seed, i)).collect();
    let mut problems = Vec::new();
    let mut setups = Vec::new();
    let mut first: Vec<Checked> = Vec::new();
    let mut walls = Vec::new();
    let mut pass = 0;
    while pass == 0 || began.elapsed().as_secs_f64() < seconds {
        let mut wall = 0.0;
        for (i, &s) in seeds.iter().enumerate() {
            setups.push(workloads::bringup_seconds(w, s));
            let Some(c) = checked_window(w, s, None, &mut problems) else {
                continue;
            };
            wall += c.window.wall_s;
            if pass == 0 {
                first.push(c);
            } else if first.get(i).map(|f| f.digest) != Some(c.digest) {
                problems.push(format!("window seed {s:#x} re-ran to a different digest"));
            }
        }
        walls.push(wall);
        pass += 1;
    }
    let peak = peak_rss_mb();
    let reference = catch_unwind(|| workloads::run_reference(w, seeds[0])).unwrap_or_else(|_| {
        problems.push("reference run panicked".into());
        None
    });
    let mut digest_text = String::new();
    for c in &first {
        digest_text.push_str(&format!("{:x};", c.digest));
    }
    if let Some(r) = &reference {
        digest_text.push_str(&format!("{r:?}"));
    }
    let (mut attempted, mut failed) = (0, 0);
    for c in &first {
        let (a, f) = attempted_failed(&c.window.modeled);
        attempted += a;
        failed += f;
    }
    let mut metrics = vec![
        ("wall_s", median(walls)),
        ("setup_s", median(setups)),
        ("peak_rss_mb", peak),
        (
            "model.ok_ratio",
            (attempted - failed) as f64 / attempted.max(1) as f64,
        ),
    ];
    if first.len() == seeds.len() && (reference.is_some() || w == Workload::NodeSwift) {
        let modeled: Vec<&Modeled> = first.iter().map(|c| &c.window.modeled).collect();
        metrics.extend(modeled_metrics(&modeled, reference.as_ref()));
    } else {
        problems.push("a window produced no modeled result".into());
    }
    eprintln!("{} passes of {} windows", pass, seeds.len());
    Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        digest: fnv1a64(digest_text.as_bytes()),
        problems,
    }
}

// ----------------------------------------------------------------------
// The traced run.
// ----------------------------------------------------------------------

/// Mean duration of the recorder's `cat/name` spans, µs (0 when none).
fn span_mean_us(rec: &Recorder, cats: &[&str], name: &str) -> f64 {
    let (mut n, mut sum) = (0u64, 0u64);
    for s in rec.spans() {
        if s.name == name && cats.contains(&s.cat) {
            n += 1;
            sum += s.end_ns - s.start_ns;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64 / 1e3
    }
}

/// A recorder counter summed over categories.
fn obs_count(rec: &Recorder, cats: &[&str], name: &str) -> u64 {
    rec.metrics()
        .snapshot()
        .entries
        .iter()
        .filter(|e| e.name == name && cats.contains(&e.component.as_str()))
        .map(|e| match e.value {
            MetricValue::Counter(v) => v,
            _ => 0,
        })
        .sum()
}

fn quantile_u32(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize] as f64
}

/// Probe sizes taken from the workload's config and its traced window.
fn probe_shape(w: Workload, win: &Window) -> ProbeShape {
    let c = &win.counts;
    let ratio = |a: u64, b: u64, dflt: u64| a.checked_div(b).unwrap_or(dflt) as usize;
    let mut shape = ProbeShape {
        table_entries: 0,
        dma_bytes: ratio(c.stat("pcie.dma_bytes"), c.stat("pcie.dma_ops"), 4096),
        frame_payload: ratio(c.stat("wire.bytes"), c.stat("wire.frames"), 1500),
        objects: ObjectSizes::Dist(dcs_workloads::SizeDistribution::default()),
        nodes: 2,
        vnodes_per_node: 256,
        replication: 2,
        keys: 4096,
        theta: 0.99,
        cache_bytes: 16 << 20,
        value_bytes: 16 << 10,
        tenants: 1,
        queue_cap: 64,
        counter_names: c.stats.keys().copied().collect(),
    };
    match w {
        Workload::Rack64 => {
            let cfg = workloads::rack_config(0, 64, DesignUnderTest::DcsCtrl);
            // The front end's in-flight table: every node's outstanding
            // requests.
            shape.table_entries = cfg.nodes * cfg.max_outstanding;
            shape.objects = ObjectSizes::Dist(cfg.sizes);
            shape.nodes = cfg.nodes;
            shape.vnodes_per_node = cfg.vnodes_per_node;
            shape.replication = cfg.replication;
            shape.keys = cfg.objects;
            shape.queue_cap = cfg.queue_cap;
        }
        Workload::StoreMixed => {
            let cfg = workloads::store_config(0, DesignUnderTest::DcsCtrl);
            let big = cfg
                .tenants
                .iter()
                .max_by_key(|t| t.keys)
                .expect("store-mixed has tenants");
            // A node cache's ghost list, the largest table it removes from.
            shape.table_entries = (cfg.cache.capacity_bytes / 4096).clamp(64, 4096) as usize;
            shape.objects = ObjectSizes::Fixed(cfg.tenants[0].value_bytes);
            shape.nodes = cfg.nodes;
            shape.vnodes_per_node = cfg.vnodes_per_node;
            shape.replication = cfg.replication;
            shape.keys = big.keys;
            shape.theta = big.theta;
            shape.cache_bytes = cfg.cache.capacity_bytes;
            shape.value_bytes = cfg.tenants[0].value_bytes as u64;
            shape.tenants = cfg.tenants.len();
            shape.queue_cap = cfg.queue_cap;
        }
        Workload::NodeSwift => {
            let s = workloads::swift_shape();
            // The scenario's in-flight request table.
            shape.table_entries = s.slots * 2;
            shape.objects = ObjectSizes::Dist(s.sizes);
        }
    }
    shape
}

/// Payload bytes that passed through an MD5 `Process` op in the
/// measured span (cache hits skip it).
fn hashed_bytes(m: &Modeled) -> u64 {
    match m {
        Modeled::Cluster(r) => {
            let tenants = workloads::store_tenants();
            let hit_bytes: u64 = r
                .per_tenant
                .iter()
                .map(|t| {
                    let v = tenants
                        .iter()
                        .find(|s| s.name == t.name)
                        .map_or(0, |s| s.value_bytes as u64);
                    t.cache_hits * v
                })
                .sum();
            r.bytes.saturating_sub(hit_bytes)
        }
        Modeled::Swift { rows, .. } => rows.iter().map(|(_, r)| r.bytes).sum(),
    }
}

/// Writes the traced run's artifacts: the first sim-time spans as a
/// chrome trace, and the host-time spans of the run and its probes.
fn write_artifacts(
    dir: &Path,
    w: Workload,
    rec: &Recorder,
    host_spans: &[(&str, &str, u64, u64)],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut head = Recorder::new();
    head.enable();
    for s in rec.spans().iter().take(TRACE_SPANS) {
        head.span(
            s.cat,
            s.name,
            s.req,
            SimTime::from_nanos(s.start_ns),
            SimTime::from_nanos(s.end_ns),
        );
    }
    std::fs::write(
        dir.join(format!("{}-sim-trace.json", w.name())),
        chrome_trace(&head),
    )?;
    let mut out = String::from("[\n");
    for (i, (name, parent, start, dur)) in host_spans.iter().enumerate() {
        let sep = if i + 1 == host_spans.len() { "" } else { "," };
        out.push_str(&format!(
            "  {{\"name\": \"{name}\", \"parent\": \"{parent}\", \"start_ns\": {start}, \"dur_ns\": {dur}}}{sep}\n"
        ));
    }
    out.push_str("]\n");
    std::fs::write(dir.join(format!("{}-host-spans.json", w.name())), out)
}

/// Untraced/traced pairs of the first window until `seconds` have gone
/// by (at least one), then the probes. Counts come from the first traced
/// window, which models exactly what the untraced one does.
pub fn traced(w: Workload, seed: u64, seconds: f64, out_dir: &Path) -> Outcome {
    let began = clock::now();
    let s0 = w.window_seed(seed, 0);
    let mut problems = Vec::new();
    let mut trace = StepTrace::default();
    let mut traced_win: Option<Checked> = None;
    let (mut plain_walls, mut overheads) = (Vec::new(), Vec::new());
    let mut host_spans: Vec<(&str, &str, u64, u64)> = Vec::new();
    let mut digest = None;
    let since = |t: clock::Instant| (t - began).as_nanos() as u64;
    while overheads.is_empty() || began.elapsed().as_secs_f64() < seconds {
        let t0 = clock::now();
        let plain = checked_window(w, s0, None, &mut problems);
        let t1 = clock::now();
        // Only the first traced window keeps its trace.
        let mut discarded = StepTrace::default();
        let tr = if traced_win.is_none() {
            &mut trace
        } else {
            &mut discarded
        };
        let traced = checked_window(w, s0, Some(tr), &mut problems);
        let t2 = clock::now();
        host_spans.push(("untraced-window", "run", since(t0), since(t1) - since(t0)));
        host_spans.push(("traced-window", "run", since(t1), since(t2) - since(t1)));
        let (Some(plain), Some(traced)) = (plain, traced) else {
            break;
        };
        for d in [plain.digest, traced.digest] {
            if *digest.get_or_insert(d) != d {
                problems.push("tracing or a re-run changed the modeled report".into());
            }
        }
        let (u, t) = (plain.window.wall_s, traced.window.wall_s);
        plain_walls.push(u);
        overheads.push((t - u) / u);
        if traced_win.is_none() {
            traced_win = Some(traced);
        }
    }
    let Some(tw) = traced_win else {
        return Outcome {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
            digest: 0,
            problems,
        };
    };
    let win = &tw.window;
    let rec = trace.recorder.take().unwrap_or_default();

    let probe_epoch = clock::now();
    let shape = probe_shape(w, win);
    let probe_results = probes::run_all(&shape, probe_epoch);
    for p in &probe_results {
        host_spans.push((p.name, "run", since(probe_epoch) + p.start_ns, p.dur_ns));
    }
    host_spans.insert(0, ("run", "", 0, since(clock::now())));
    if let Err(e) = write_artifacts(out_dir, w, &rec, &host_spans) {
        problems.push(format!("writing trace artifacts: {e}"));
    }
    let probe = |name: &str| {
        probe_results
            .iter()
            .find(|p| p.name == name)
            .map_or(0.0, |p| p.value)
    };

    let c = &win.counts;
    let untraced_wall = median(plain_walls);
    let mut steps = std::mem::take(&mut trace.step_ns);
    steps.sort_unstable();
    let step_total: u64 = steps.iter().map(|&s| s as u64).sum();
    let heavy: u64 = steps
        .iter()
        .filter(|&&s| s > HEAVY_STEP_NS)
        .map(|&s| s as u64)
        .sum();
    let (attempted, failed) = attempted_failed(&win.modeled);
    let hashed_mb = hashed_bytes(&win.modeled) as f64 / 1e6;
    let md5 = probe("ndp.md5_mb_per_s");
    let busy_ms = |pred: &dyn Fn(&str) -> bool| {
        c.cpu_busy_ns
            .iter()
            .filter(|(t, _)| pred(t))
            .map(|(_, ns)| *ns)
            .sum::<u64>() as f64
            / 1e6
    };
    let is_app = |t: &str| t.starts_with("app");
    let is_kernel = |t: &str| t.starts_with("kernel");
    let is_gpu = |t: &str| t.starts_with("gpu");
    let (backlogged, hit_ratio, slow_evictions) = match &win.modeled {
        Modeled::Swift { backlogged, .. } => (*backlogged as f64, 0.0, 0.0),
        Modeled::Cluster(r) => (0.0, r.cache_hit_rate(), r.slow_evictions as f64),
    };
    let front = ["cluster", "store"];
    let metrics: Vec<(&'static str, f64)> = vec![
        ("sim.events", c.events as f64),
        (
            "sim.ns_per_event",
            untraced_wall * 1e9 / c.events.max(1) as f64,
        ),
        ("sim.step_p50_ns", quantile_u32(&steps, 0.50)),
        ("sim.step_p99_ns", quantile_u32(&steps, 0.99)),
        (
            "sim.heavy_step_share",
            heavy as f64 / step_total.max(1) as f64,
        ),
        (
            "sim.batched_share",
            c.batched as f64 / c.events.max(1) as f64,
        ),
        ("sim.dispatch_floor_ns", probe("sim.dispatch_floor_ns")),
        ("sim.detmap_remove_ns", probe("sim.detmap_remove_ns")),
        ("sim.counter_ns", probe("sim.counter_ns")),
        ("pcie.dma_ops", c.stat("pcie.dma_ops") as f64),
        ("pcie.dma_bytes", c.stat("pcie.dma_bytes") as f64),
        ("pcie.msi", c.stat("pcie.msi") as f64),
        ("pcie.mmio_writes", c.stat("pcie.mmio_writes") as f64),
        (
            "pcie.resident_mb",
            c.resident_bytes as f64 / (1 << 20) as f64,
        ),
        ("pcie.copy_mb_per_s", probe("pcie.copy_mb_per_s")),
        ("pcie.dma_wait_us", span_mean_us(&rec, &["pcie"], "dma")),
        ("nvme.completions", c.stat("nvme.completions") as f64),
        (
            "nvme.flash_read_us",
            span_mean_us(&rec, &["nvme"], "flash-read"),
        ),
        (
            "nvme.flash_write_us",
            span_mean_us(&rec, &["nvme"], "flash-write"),
        ),
        ("nic.frames", c.stat("nic.tx_frames") as f64),
        ("nic.wire_bytes", c.stat("wire.bytes") as f64),
        ("nic.frame_codec_ns", probe("nic.frame_codec_ns")),
        ("ndp.md5_mb_per_s", md5),
        ("ndp.hashed_mb", hashed_mb),
        (
            "ndp.est_share",
            if md5 > 0.0 && untraced_wall > 0.0 {
                hashed_mb / md5 / untraced_wall
            } else {
                0.0
            },
        ),
        ("core.cmds", c.stat("hdc.cmds_admitted") as f64),
        ("core.ndp_wait_us", span_mean_us(&rec, &["hdc"], "ndp")),
        (
            "core.retries",
            [
                "hdc.retransmits",
                "nic.retransmits",
                "hdc.nvme_timeouts",
                "hdc.recv_timeouts",
                "nvme.drv_timeouts",
                "nic.rx_expect_timeouts",
            ]
            .iter()
            .map(|n| c.stat(n))
            .sum::<u64>() as f64,
        ),
        ("host.jobs", c.cpu_jobs as f64),
        ("host.cpu_busy_ms", busy_ms(&|_| true)),
        ("host.cpu_busy_ms.app", busy_ms(&is_app)),
        ("host.cpu_busy_ms.kernel", busy_ms(&is_kernel)),
        ("host.cpu_busy_ms.gpu", busy_ms(&is_gpu)),
        (
            "host.cpu_busy_ms.other",
            busy_ms(&|t| !is_app(t) && !is_kernel(t) && !is_gpu(t)),
        ),
        ("gpu.kernels", c.stat("gpu.kernels") as f64),
        ("workloads.offered", attempted as f64),
        ("workloads.backlogged", backlogged),
        (
            "workloads.zipf_sample_ns",
            probe("workloads.zipf_sample_ns"),
        ),
        (
            "cluster.dispatched",
            obs_count(&rec, &front, "dispatched") as f64,
        ),
        ("cluster.hedged", c.stat("cluster.hedged") as f64),
        (
            "cluster.retried",
            (c.stat("cluster.retried") + c.stat("store.retried")) as f64,
        ),
        ("cluster.shed", c.stat("cluster.shed") as f64),
        ("cluster.slow_evictions", slow_evictions),
        ("cluster.route_ns", probe("cluster.route_ns")),
        ("cluster.health_eval_ns", probe("cluster.health_eval_ns")),
        ("cluster.uplink_us", span_mean_us(&rec, &front, "uplink")),
        (
            "cluster.downlink_us",
            span_mean_us(&rec, &front, "downlink"),
        ),
        ("store.hit_ratio", hit_ratio),
        (
            "store.invalidations",
            obs_count(&rec, &["store"], "cache.invalidated") as f64,
        ),
        ("store.shed", c.stat("store.shed") as f64),
        ("store.cache_lookup_ns", probe("store.cache_lookup_ns")),
        ("store.cache_admit_ns", probe("store.cache_admit_ns")),
        ("store.qos_ns", probe("store.qos_ns")),
        ("trace.overhead_share", median(overheads)),
    ];
    Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        digest: digest.unwrap_or(0),
        problems,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_percentile_stays_inside_the_histogram_bucket() {
        // With samples {v, far}, the median is v: the library reports the
        // upper bound of v's bucket, the interpolation a point between v
        // and that bound.
        let far = 1u64 << 40;
        for v in (0..200_000u64)
            .step_by(997)
            .chain([31, 32, 63, 64, 65, 4095, 4096])
        {
            let mut h = Histogram::new();
            h.record(v);
            h.record(far);
            let bound = h.percentile(50.0).expect("two samples") as f64;
            let p = percentile_ns(&h, 50.0);
            assert!(
                v as f64 <= p && p <= bound,
                "v {v}: {p} outside [{v}, {bound}]"
            );
        }
    }

    #[test]
    fn interpolated_percentile_moves_within_a_bucket() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for i in 0..100 {
            a.record(1_000_000 + i);
            b.record(1_000_000 + i);
        }
        b.record(10);
        assert_eq!(a.percentile(50.0), b.percentile(50.0), "one bucket");
        assert!(percentile_ns(&a, 50.0) != percentile_ns(&b, 50.0));
    }
}
