//! Figure 11 — latency breakdown of inter-device communications.
//!
//! (a) SSD→NIC: read a block off the SSD and transmit it.
//! (b) SSD→Processing→NIC: MD5 the data in between — GPUs for the
//! baselines, an NDP unit for DCS-ctrl.
//!
//! Headline targets: DCS-ctrl reduces the *software* latency of
//! SW-ctrl-P2P by ≈42% for (a) and ≈72% for (b).

use dcs_host::job::D2dOp;
use dcs_ndp::NdpFunction;
use dcs_nic::TcpFlow;
use dcs_sim::{Anatomy, Category};
use dcs_workloads::scenario::DesignUnderTest;

use crate::probe::ProbedTestbed;
use crate::{breakdown_rows, row, Report, BREAKDOWN};

/// One bar of the figure.
#[derive(Clone, Debug)]
pub struct Fig11Row {
    /// The design measured.
    pub design: DesignUnderTest,
    /// The measured job's latency anatomy.
    pub anatomy: Anatomy,
}

/// The designs Figure 11 compares.
pub const DESIGNS: [DesignUnderTest; 3] = [
    DesignUnderTest::SwOpt,
    DesignUnderTest::SwP2p,
    DesignUnderTest::DcsCtrl,
];

/// Runs one design's single-op measurement and returns the job's
/// latency anatomy.
pub fn measure(design: DesignUnderTest, len: usize, with_processing: bool) -> Anatomy {
    let mut rig = ProbedTestbed::new(design);
    let payload: Vec<u8> = (0..len).map(|i| (i * 37 % 251) as u8).collect();
    rig.seed_flash(0, &payload);
    let mut ops = vec![D2dOp::SsdRead {
        ssd: 0,
        lba: 0,
        len,
    }];
    if with_processing {
        ops.push(D2dOp::Process {
            function: NdpFunction::Md5,
            aux: vec![],
        });
    }
    ops.push(D2dOp::NicSend {
        flow: TcpFlow::example(1, 2, 40_000, 9_000),
        seq: 0,
    });
    let done = rig.run_server_job(ops, "fig11");
    rig.anatomy(done.id)
}

/// Runs the full figure: `(sub-figure a rows, sub-figure b rows)`.
pub fn run(len: usize) -> (Vec<Fig11Row>, Vec<Fig11Row>) {
    let a = DESIGNS
        .iter()
        .map(|&design| Fig11Row {
            design,
            anatomy: measure(design, len, false),
        })
        .collect();
    let b = DESIGNS
        .iter()
        .map(|&design| Fig11Row {
            design,
            anatomy: measure(design, len, true),
        })
        .collect();
    (a, b)
}

/// Software-latency reduction of DCS-ctrl relative to SW-ctrl P2P
/// (the paper's 42% / 72% headline metric).
pub(crate) fn software_reduction(rows: &[Fig11Row]) -> f64 {
    let sw = |d: DesignUnderTest| {
        rows.iter()
            .find(|r| r.design == d)
            .map(|r| software_latency(&r.anatomy))
            .expect("design measured")
    };
    let p2p = sw(DesignUnderTest::SwP2p);
    let dcs = sw(DesignUnderTest::DcsCtrl);
    1.0 - dcs as f64 / p2p as f64
}

/// Total end-to-end latency reduction of DCS-ctrl vs SW-ctrl P2P.
pub(crate) fn total_reduction(rows: &[Fig11Row]) -> f64 {
    let total = |d: DesignUnderTest| {
        rows.iter()
            .find(|r| r.design == d)
            .map(|r| r.anatomy.segment_sum_ns())
            .expect("design measured")
    };
    1.0 - total(DesignUnderTest::DcsCtrl) as f64 / total(DesignUnderTest::SwP2p) as f64
}

/// The software portion of a latency: everything except raw device
/// service (read/write), wire time, and the hash computation itself.
pub fn software_latency(a: &Anatomy) -> u64 {
    let device = [
        Category::Read,
        Category::Write,
        Category::Wire,
        Category::Hash,
    ];
    a.segment_sum_ns() - device.iter().map(|&c| a.category_ns(c)).sum::<u64>()
}

/// Both sub-figures at 4 KiB with the headline changes (`quick`
/// changes nothing: single operations are already short). The `change`
/// tables hold DCS-ctrl's latency change vs SW-ctrl P2P, negative for a
/// reduction; `BENCH_paper.json` pins them.
pub fn report(quick: bool) -> Report {
    let len = 4096;
    let (a, b) = run(len);
    let mut r = Report::new(
        "fig11",
        quick,
        format!(
            "Figure 11 — inter-device communication latency ({} KiB)",
            len / 1024
        ),
    );
    for (sub, heading, rows, paper) in [
        ("a", "(a) SSD -> NIC", &a, 42),
        ("b", "(b) SSD -> Processing (MD5) -> NIC", &b, 72),
    ] {
        let s = r.section(heading);
        let t = s.table(&format!("latency_{sub}"), BREAKDOWN);
        for row in rows {
            breakdown_rows(t, row.design.label(), &row.anatomy);
        }
        row!(
            s.table(&format!("change_{sub}"), "pair total:% software:%"),
            "DCS-ctrl vs SW-ctrl P2P",
            -total_reduction(rows),
            -software_reduction(rows),
        );
        s.note(format!("(paper: {paper}% software latency reduction)"));
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dcs_wins_and_reductions_match_paper_shape() {
        // 4 KiB: the paper's per-command transfer unit (§IV-C).
        let (a, b) = run(4096);
        // Total latency ordering: DCS < P2P <= Opt in both sub-figures.
        for rows in [&a, &b] {
            let total = |d: DesignUnderTest| {
                rows.iter()
                    .find(|r| r.design == d)
                    .unwrap()
                    .anatomy
                    .segment_sum_ns()
            };
            assert!(
                total(DesignUnderTest::DcsCtrl) < total(DesignUnderTest::SwP2p),
                "dcs {} vs p2p {}",
                total(DesignUnderTest::DcsCtrl),
                total(DesignUnderTest::SwP2p)
            );
            assert!(total(DesignUnderTest::SwP2p) <= total(DesignUnderTest::SwOpt));
        }
        // Headline shape: substantial reductions, processing amplifies.
        let ra = total_reduction(&a);
        let rb = total_reduction(&b);
        assert!(ra > 0.20 && ra < 0.75, "fig11a total reduction {ra:.2}");
        assert!(rb > ra, "processing amplifies the win: {rb:.2} vs {ra:.2}");
        assert!(software_reduction(&a) > 0.5, "software all but disappears");
    }
}
