//! Figure 13 — estimated CPU utilization with high-performance devices.
//!
//! Projects the Figure 12 measurements onto a 40 Gbps NIC, six NVMe SSDs,
//! and a single 6-core Xeon: cores-vs-throughput curves per design, plus
//! the budget-capped maximum throughputs. Headlines: DCS-ctrl needs ≤3
//! cores at 40 Gbps and delivers ≈1.95× (Swift) / ≈2.06× (HDFS) the
//! throughput of software-controlled P2P under the 6-core budget.
//!
//! The projection is an estimate from the measured rows, so it runs
//! nothing: `sections` appends it to the `fig12` report, from the same
//! run of each workload.

use dcs_workloads::{project, DesignUnderTest, ProjectionInput, ProjectionResult, WorkloadReport};

use crate::{row, Report};

/// Target hardware of the projection.
pub const TARGET_GBPS: f64 = 40.0;
/// Core budget of the projection.
pub const CORE_BUDGET: f64 = 6.0;

/// One projected design.
#[derive(Clone, Debug)]
pub struct Fig13Row {
    /// Design.
    pub design: DesignUnderTest,
    /// Projection from the measured operating point.
    pub result: ProjectionResult,
}

/// Projects each design's measured operating point.
fn project_rows<'a>(
    rows: impl Iterator<Item = (DesignUnderTest, &'a WorkloadReport)>,
) -> Vec<Fig13Row> {
    rows.map(|(design, w)| Fig13Row {
        design,
        result: project(
            ProjectionInput {
                measured_gbps: w.throughput_gbps(),
                measured_util: w.cpu_utilization(),
                cores: 6,
            },
            TARGET_GBPS,
            CORE_BUDGET,
        ),
    })
    .collect()
}

/// Sub-figure (a): Swift projections of the measured server rows.
pub(crate) fn swift_projection(rows: &[(DesignUnderTest, WorkloadReport)]) -> Vec<Fig13Row> {
    project_rows(rows.iter().map(|(d, w)| (*d, w)))
}

/// Sub-figure (b): HDFS projections of the measured receiver rows (the
/// bottleneck node).
pub(crate) fn hdfs_projection(
    rows: &[(DesignUnderTest, WorkloadReport, WorkloadReport)],
) -> Vec<Fig13Row> {
    project_rows(rows.iter().map(|(d, _, rcv)| (*d, rcv)))
}

/// Throughput advantage of DCS-ctrl over SW-ctrl P2P under the budget.
pub(crate) fn throughput_ratio(rows: &[Fig13Row]) -> f64 {
    let cap = |d: DesignUnderTest| {
        rows.iter()
            .find(|r| r.design == d)
            .map(|r| r.result.max_gbps_within_budget)
            .expect("design projected")
    };
    cap(DesignUnderTest::DcsCtrl) / cap(DesignUnderTest::SwP2p)
}

/// Appends both sub-figures to `r`: each design's projected cores at
/// the target and its throughput within the core budget, plus the
/// headline ratios `BENCH_paper.json` pins.
pub(crate) fn sections(
    r: &mut Report,
    swift: &[(DesignUnderTest, WorkloadReport)],
    hdfs: &[(DesignUnderTest, WorkloadReport, WorkloadReport)],
) {
    for (app, heading, rows, paper) in [
        ("swift", "(a) Swift", swift_projection(swift), 1.95),
        ("hdfs", "(b) HDFS", hdfs_projection(hdfs), 2.06),
    ] {
        let s = r.section(format!(
            "Figure 13 {heading} — projected onto {TARGET_GBPS} Gbps"
        ));
        let t = s.table(
            &format!("{app}_projection"),
            "design target:Gbps cores_at_target:cores.2 budget:cores gbps_within_budget:Gbps.1",
        );
        for row in &rows {
            row!(
                t,
                row.design.label(),
                TARGET_GBPS,
                row.result.cores_at_target,
                CORE_BUDGET,
                row.result.max_gbps_within_budget,
            );
        }
        row!(
            s.table(&format!("{app}_ratio"), "pair throughput_ratio:x.2"),
            "DCS-ctrl vs SW-ctrl P2P",
            throughput_ratio(&rows),
        );
        s.note(format!("(paper: {paper:.2}x)"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig12::run_swift_rows;

    #[test]
    fn dcs_needs_few_cores_and_roughly_doubles_throughput() {
        let rows = swift_projection(&run_swift_rows(true));
        let dcs = rows
            .iter()
            .find(|r| r.design == DesignUnderTest::DcsCtrl)
            .expect("dcs projected");
        assert!(
            dcs.result.cores_at_target < 4.0,
            "paper: ≤3 cores at 40 Gbps; got {:.2}",
            dcs.result.cores_at_target
        );
        let ratio = throughput_ratio(&rows);
        assert!(
            ratio > 1.4,
            "throughput advantage {ratio:.2} must be near 2x"
        );
    }
}
