//! Figure 13 — estimated CPU utilization with high-performance devices.
//!
//! Projects the Figure 12 measurements onto a 40 Gbps NIC, six NVMe SSDs,
//! and a single 6-core Xeon: cores-vs-throughput curves per design, plus
//! the budget-capped maximum throughputs. Headlines: DCS-ctrl needs ≤3
//! cores at 40 Gbps and delivers ≈1.95× (Swift) / ≈2.06× (HDFS) the
//! throughput of software-controlled P2P under the 6-core budget.

use dcs_workloads::{project, DesignUnderTest, ProjectionInput, ProjectionResult};

use crate::fig12::{run_hdfs_rows, run_swift_rows};
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

/// Projects one application's measured rows.
fn project_rows(
    rows: Vec<(DesignUnderTest, f64, f64, usize)>, // (design, gbps, util, cores)
) -> Vec<Fig13Row> {
    rows.into_iter()
        .map(|(design, gbps, util, cores)| Fig13Row {
            design,
            result: project(
                ProjectionInput {
                    measured_gbps: gbps,
                    measured_util: util,
                    cores,
                },
                TARGET_GBPS,
                CORE_BUDGET,
            ),
        })
        .collect()
}

/// Sub-figure (a): Swift projections.
pub fn run_swift_projection(quick: bool) -> Vec<Fig13Row> {
    let rows = run_swift_rows(quick)
        .into_iter()
        .map(|(d, r)| (d, r.throughput_gbps(), r.cpu_utilization(), 6))
        .collect();
    project_rows(rows)
}

/// Sub-figure (b): HDFS projections (receiver node, the bottleneck).
pub fn run_hdfs_projection(quick: bool) -> Vec<Fig13Row> {
    let rows = run_hdfs_rows(quick)
        .into_iter()
        .map(|(d, _snd, rcv)| (d, rcv.throughput_gbps(), rcv.cpu_utilization(), 6))
        .collect();
    project_rows(rows)
}

/// Throughput advantage of DCS-ctrl over SW-ctrl P2P under the budget.
pub fn throughput_ratio(rows: &[Fig13Row]) -> f64 {
    let cap = |d: DesignUnderTest| {
        rows.iter()
            .find(|r| r.design == d)
            .map(|r| r.result.max_gbps_within_budget)
            .expect("design projected")
    };
    cap(DesignUnderTest::DcsCtrl) / cap(DesignUnderTest::SwP2p)
}

/// Both sub-figures: each design's projected cores at the target and
/// its throughput within the core budget, plus the headline ratios
/// `BENCH_paper.json` pins.
pub fn report(quick: bool) -> Report {
    let mut r = Report::new(
        "fig13",
        quick,
        "Figure 13 — projected CPU needs with a 40 Gbps NIC, 6 SSDs, one 6-core CPU",
    );
    for (app, heading, rows, paper) in [
        ("swift", "(a) Swift", run_swift_projection(quick), 1.95),
        ("hdfs", "(b) HDFS", run_hdfs_projection(quick), 2.06),
    ] {
        let s = r.section(heading);
        let t = s.table(
            app,
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
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dcs_needs_few_cores_and_roughly_doubles_throughput() {
        let rows = run_swift_projection(true);
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
