//! The metric catalogue: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` lists the same names; the schema test
//! holds the two in step.

/// `(name, unit, better)` of one metric.
pub type Metric = (&'static str, &'static str, &'static str);

/// End-to-end metrics, printed with `--trace 0`. Host metrics are
/// wall-clock; `model.*` metrics are simulated and repeat exactly for one
/// build and seed.
pub const END_TO_END: &[Metric] = &[
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("model.goodput_gbps", "Gbps", "higher"),
    ("model.p50_us", "us", "lower"),
    ("model.p99_us", "us", "lower"),
    ("model.cpu_util", "fraction", "lower"),
    ("model.ok_ratio", "fraction", "higher"),
    ("model.cpu_reduction", "fraction", "higher"),
];

/// Per-layer metrics, printed with `--trace 1`. Names start with the
/// layer (the crate) they measure.
pub const PER_LAYER: &[Metric] = &[
    ("sim.events", "count", "lower"),
    ("sim.ns_per_event", "ns", "lower"),
    ("sim.step_p50_ns", "ns", "lower"),
    ("sim.step_p99_ns", "ns", "lower"),
    ("sim.heavy_step_share", "fraction", "lower"),
    ("sim.batched_share", "fraction", "higher"),
    ("sim.dispatch_floor_ns", "ns", "lower"),
    ("sim.detmap_remove_ns", "ns", "lower"),
    ("sim.counter_ns", "ns", "lower"),
    ("pcie.dma_ops", "count", "lower"),
    ("pcie.dma_bytes", "bytes", "lower"),
    ("pcie.msi", "count", "lower"),
    ("pcie.mmio_writes", "count", "lower"),
    ("pcie.resident_mb", "MiB", "lower"),
    ("pcie.copy_mb_per_s", "MB/s", "higher"),
    ("pcie.dma_wait_us", "us", "lower"),
    ("nvme.completions", "count", "lower"),
    ("nvme.flash_read_us", "us", "lower"),
    ("nvme.flash_write_us", "us", "lower"),
    ("nic.frames", "count", "lower"),
    ("nic.wire_bytes", "bytes", "lower"),
    ("nic.frame_codec_ns", "ns", "lower"),
    ("ndp.md5_mb_per_s", "MB/s", "higher"),
    ("ndp.hashed_mb", "MB", "lower"),
    ("ndp.est_share", "fraction", "lower"),
    ("core.cmds", "count", "lower"),
    ("core.ndp_wait_us", "us", "lower"),
    ("core.retries", "count", "lower"),
    ("host.jobs", "count", "lower"),
    ("host.cpu_busy_ms", "ms", "lower"),
    ("host.cpu_busy_ms.app", "ms", "lower"),
    ("host.cpu_busy_ms.kernel", "ms", "lower"),
    ("host.cpu_busy_ms.gpu", "ms", "lower"),
    ("host.cpu_busy_ms.other", "ms", "lower"),
    ("gpu.kernels", "count", "lower"),
    ("workloads.offered", "count", "higher"),
    ("workloads.backlogged", "count", "lower"),
    ("workloads.zipf_sample_ns", "ns", "lower"),
    ("cluster.dispatched", "count", "lower"),
    ("cluster.hedged", "count", "lower"),
    ("cluster.retried", "count", "lower"),
    ("cluster.shed", "count", "lower"),
    ("cluster.slow_evictions", "count", "lower"),
    ("cluster.route_ns", "ns", "lower"),
    ("cluster.health_eval_ns", "ns", "lower"),
    ("cluster.uplink_us", "us", "lower"),
    ("cluster.downlink_us", "us", "lower"),
    ("store.hit_ratio", "fraction", "higher"),
    ("store.invalidations", "count", "lower"),
    ("store.shed", "count", "lower"),
    ("store.cache_lookup_ns", "ns", "lower"),
    ("store.cache_admit_ns", "ns", "lower"),
    ("store.qos_ns", "ns", "lower"),
    ("trace.overhead_share", "fraction", "lower"),
];

/// The unit of a catalogued metric.
///
/// # Panics
///
/// Panics on a name missing from the catalogue (a benchmark bug).
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.0 == name)
        .unwrap_or_else(|| panic!("metric {name} is not catalogued"))
        .1
}
