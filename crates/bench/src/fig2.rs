//! Figure 2 — the timeline of a software-based device-control mechanism.
//!
//! The paper's figure is schematic: user/kernel/driver code bouncing
//! across boundaries around each device operation. We regenerate it as a
//! measured timeline: the chronological anatomy of one SW-ctrl-P2P
//! SSD→MD5→NIC operation, each segment ending where a driver, the
//! executor or the engine marked a phase, showing exactly where software
//! sits between the device phases.

use dcs_sim::{Anatomy, Category};
use dcs_workloads::scenario::DesignUnderTest;

use crate::fig11::measure;
use crate::{row, Report, Section};

/// Lays an anatomy out as its chronological `(category, start_us,
/// end_us)` spans, from the job's submission.
pub fn timeline(a: &Anatomy) -> Vec<(Category, f64, f64)> {
    let mut end = 0;
    a.segments
        .iter()
        .map(|&(cat, ns)| {
            let start = end;
            end += ns;
            (cat, start as f64 / 1000.0, end as f64 / 1000.0)
        })
        .collect()
}

/// Appends `a`'s [`timeline`] to `s` as table `name`, each span with a
/// bar of its share of the whole, and returns the whole in µs.
pub fn timeline_table(s: &mut Section, name: &str, a: &Anatomy) -> f64 {
    let spans = timeline(a);
    let total = spans.last().map(|s| s.2).unwrap_or(0.0);
    let t = s.table(name, "phase start:us.1 end:us.1 span");
    for (cat, start, end) in &spans {
        let width = (((end - start) / total) * 40.0).ceil() as usize;
        row!(t, cat.label(), *start, *end, "#".repeat(width.max(1)));
    }
    total
}

/// The figure for one measured 4 KiB SW-ctrl-P2P operation (`quick`
/// changes nothing: one operation is already short).
pub fn report(quick: bool) -> Report {
    let len = 4096;
    let mut r = Report::new(
        "fig2",
        quick,
        format!(
            "Figure 2 — software device-control timeline (SW-ctrl P2P, SSD->MD5->NIC, {} KiB)",
            len / 1024
        ),
    );
    let s = r.section("");
    let total = timeline_table(s, "timeline", &measure(DesignUnderTest::SwP2p, len, true));
    s.note(format!(
        "total: {total:.1} us; every gap between device phases is host software"
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_is_contiguous_and_ordered() {
        let a = measure(DesignUnderTest::SwP2p, 16 * 1024, true);
        let spans = timeline(&a);
        assert!(spans.len() >= 5, "{spans:?}");
        for w in spans.windows(2) {
            assert!((w[0].2 - w[1].1).abs() < 1e-9, "spans must abut");
        }
        let total = a.total_ns().expect("completed") as f64 / 1000.0;
        assert!((spans.last().expect("spans").2 - total).abs() < 1e-9);
        // Software phases surround the device phases.
        assert!(spans.iter().any(|(c, _, _)| *c == Category::DeviceControl));
        assert!(spans.iter().any(|(c, _, _)| *c == Category::Read));
    }
}
