//! Figure 12 — CPU-utilization breakdown of the scale-out storage
//! applications at matched throughput.
//!
//! (a) OpenStack Swift (PUT/GET with MD5 integrity); (b) the HDFS
//! balancer (sender / receiver, CRC32 on receive). Headline: DCS-ctrl
//! cuts server CPU utilization by ≈52% vs software-controlled P2P. The
//! same report carries Figure 13, projected from these rows
//! ([`crate::fig13`]), so each workload runs once per design.

use dcs_sim::time;
use dcs_workloads::{
    run_hdfs, run_swift, DesignUnderTest, HdfsConfig, SwiftConfig, WorkloadReport,
};

use crate::{cpu_table, fig13, row, Report, Section};

/// Swift configuration used by the figure (shortened in quick mode).
pub(crate) fn swift_cfg(quick: bool) -> SwiftConfig {
    SwiftConfig {
        duration_ns: if quick { time::ms(60) } else { time::ms(160) },
        warmup_ns: if quick { time::ms(15) } else { time::ms(40) },
        ..SwiftConfig::default()
    }
}

/// HDFS configuration used by the figure.
pub(crate) fn hdfs_cfg(quick: bool) -> HdfsConfig {
    HdfsConfig {
        duration_ns: if quick { time::ms(40) } else { time::ms(120) },
        warmup_ns: if quick { time::ms(10) } else { time::ms(30) },
        ..HdfsConfig::default()
    }
}

/// Runs sub-figure (a): Swift server reports per design.
pub(crate) fn run_swift_rows(quick: bool) -> Vec<(DesignUnderTest, WorkloadReport)> {
    DesignUnderTest::FIG12
        .iter()
        .map(|&d| (d, run_swift(d, &swift_cfg(quick))))
        .collect()
}

/// Runs sub-figure (b): HDFS `(sender, receiver)` reports per design.
pub(crate) fn run_hdfs_rows(quick: bool) -> Vec<(DesignUnderTest, WorkloadReport, WorkloadReport)> {
    DesignUnderTest::FIG12
        .iter()
        .map(|&d| {
            let (s, r) = run_hdfs(d, &hdfs_cfg(quick));
            (d, s, r)
        })
        .collect()
}

/// CPU-utilization reduction of DCS-ctrl vs SW-ctrl P2P at equal
/// throughput (utilization normalized per Gbps to compare fairly).
pub fn cpu_reduction(rows: &[(DesignUnderTest, WorkloadReport)]) -> f64 {
    let norm = |d: DesignUnderTest| {
        let r = &rows
            .iter()
            .find(|(x, _)| *x == d)
            .expect("design measured")
            .1;
        r.cpu_utilization() / r.throughput_gbps().max(1e-9)
    };
    1.0 - norm(DesignUnderTest::DcsCtrl) / norm(DesignUnderTest::SwP2p)
}

/// Both sub-figures with the headline reduction, then Figure 13's
/// projection of the same rows; `BENCH_paper.json` pins the headlines of
/// both.
pub fn report(quick: bool) -> Report {
    let mut r = Report::new(
        "fig12",
        quick,
        "Figure 12 — CPU utilization of scale-out storage applications, \
         and Figure 13 — its projection onto a 40 Gbps NIC, 6 SSDs and one 6-core CPU",
    );
    let swift = run_swift_rows(quick);
    let s = r.section("(a) OpenStack Swift (PUT/GET, MD5 integrity)");
    workload_table(
        s,
        "swift",
        swift.iter().map(|(d, w)| (d.label().to_string(), w)),
    );
    row!(
        s.table("reduction", "pair cpu_per_gbps:%"),
        "DCS-ctrl vs SW-ctrl P2P",
        cpu_reduction(&swift),
    );
    s.note("(paper headline: 52%)");
    let hdfs = run_hdfs_rows(quick);
    let s = r.section("(b) HDFS balancer (CRC32 on receive)");
    workload_table(
        s,
        "hdfs",
        hdfs.iter().flat_map(|(d, snd, rcv)| {
            [
                (format!("{} sender", d.label()), snd),
                (format!("{} receiver", d.label()), rcv),
            ]
        }),
    );
    fig13::sections(&mut r, &swift, &hdfs);
    r
}

/// Appends table `name` to `s`: one row per labelled node report, with
/// its throughput, requests, CPU, and CPU by tag.
pub fn workload_table<'a>(
    s: &mut Section,
    name: &str,
    rows: impl Iterator<Item = (String, &'a WorkloadReport)>,
) {
    let rows = rows
        .map(|(label, w)| {
            let lead = vec![
                label.into(),
                w.throughput_gbps().into(),
                w.requests.into(),
                w.cpu_utilization().into(),
            ];
            (lead, &w.cpu_breakdown)
        })
        .collect();
    cpu_table(s, name, "node throughput:Gbps.2 requests cpu:%.1", rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swift_cpu_reduction_is_substantial() {
        let rows = run_swift_rows(true);
        for (d, r) in &rows {
            assert!(r.requests > 5, "{d}: {r:?}");
            assert_eq!(r.failures, 0, "{d}");
        }
        let red = cpu_reduction(&rows);
        assert!(
            red > 0.35,
            "reduction {red:.2} must approach the paper's 52%"
        );
        assert!(red < 0.95, "reduction {red:.2} must stay plausible");
    }

    #[test]
    fn hdfs_receiver_benefits_most() {
        let rows = run_hdfs_rows(true);
        let get = |d: DesignUnderTest| {
            rows.iter()
                .find(|(x, _, _)| *x == d)
                .map(|(_, s, r)| (s.clone(), r.clone()))
                .unwrap()
        };
        let (_, rcv_p2p) = get(DesignUnderTest::SwP2p);
        let (_, rcv_dcs) = get(DesignUnderTest::DcsCtrl);
        let norm_p2p = rcv_p2p.cpu_utilization() / rcv_p2p.throughput_gbps().max(1e-9);
        let norm_dcs = rcv_dcs.cpu_utilization() / rcv_dcs.throughput_gbps().max(1e-9);
        assert!(
            norm_dcs < norm_p2p * 0.5,
            "receiver: dcs {norm_dcs:.4} vs p2p {norm_p2p:.4}"
        );
    }
}
