//! Workload measurement results.

use std::collections::BTreeMap;

/// What a workload run measured on the server node.
#[derive(Clone, Debug, Default)]
pub struct WorkloadReport {
    /// Measured span (after warm-up), ns.
    pub span_ns: u64,
    /// Requests completed within the span.
    pub requests: u64,
    /// Payload bytes moved within the span.
    pub bytes: u64,
    /// Server-node CPU utilization (fraction of all cores) by tag.
    pub cpu_breakdown: BTreeMap<String, f64>,
    /// Requests that failed.
    pub failures: u64,
}

impl WorkloadReport {
    /// Achieved payload throughput in Gbps.
    pub fn throughput_gbps(&self) -> f64 {
        if self.span_ns == 0 {
            return 0.0;
        }
        self.bytes as f64 * 8.0 / self.span_ns as f64
    }

    /// Total CPU utilization across tags (fraction of all cores).
    pub fn cpu_utilization(&self) -> f64 {
        self.cpu_breakdown.values().sum()
    }

    /// Utilization for one tag (zero if absent).
    #[cfg(test)]
    pub(crate) fn cpu_for(&self, tag: &str) -> f64 {
        self.cpu_breakdown.get(tag).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_and_totals() {
        let mut r = WorkloadReport {
            span_ns: 1_000_000_000,
            requests: 10,
            bytes: 1_250_000_000, // 10 Gb in 1 s
            ..Default::default()
        };
        r.cpu_breakdown.insert("kernel-get".into(), 0.25);
        r.cpu_breakdown.insert("gpu-control".into(), 0.05);
        assert!((r.throughput_gbps() - 10.0).abs() < 1e-9);
        assert!((r.cpu_utilization() - 0.30).abs() < 1e-12);
        assert!((r.cpu_for("kernel-get") - 0.25).abs() < 1e-12);
        assert_eq!(r.cpu_for("absent"), 0.0);
    }

    #[test]
    fn empty_report_is_zero() {
        let r = WorkloadReport::default();
        assert_eq!(r.throughput_gbps(), 0.0);
        assert_eq!(r.cpu_utilization(), 0.0);
    }
}
