//! Figure 2 — the timeline of a software-based device-control mechanism.
//!
//! The paper's figure is schematic: user/kernel/driver code bouncing
//! across boundaries around each device operation. We regenerate it as a
//! measured timeline: the per-category spans of one SW-ctrl-P2P
//! SSD→MD5→NIC operation laid out in execution order, showing exactly
//! where software sits between the device phases.

use dcs_sim::{Breakdown, Category};
use dcs_workloads::scenario::DesignUnderTest;

use crate::fig11::measure;
use crate::{row, Report, Section};

/// The categories in the order the operation traverses them. Only the
/// HDC Engine has a Scoreboard segment.
const ORDER: [Category; 10] = [
    Category::FileSystem,
    Category::DeviceControl,
    Category::Read,
    Category::RequestCompletion,
    Category::GpuCopy,
    Category::GpuControl,
    Category::Hash,
    Category::NetworkStack,
    Category::Scoreboard,
    Category::Wire,
];

/// Lays a breakdown out as sequential `(category, start_us, end_us)`
/// spans.
pub fn timeline(b: &Breakdown) -> Vec<(Category, f64, f64)> {
    let mut t = 0.0;
    let mut out = Vec::new();
    for cat in ORDER {
        let dur = b.get(cat) as f64 / 1000.0;
        if dur > 0.0 {
            out.push((cat, t, t + dur));
            t += dur;
        }
    }
    out
}

/// Appends `b`'s [`timeline`] to `s` as table `name`, each span with a
/// bar of its share of the whole, and returns the whole in µs.
pub fn timeline_table(s: &mut Section, name: &str, b: &Breakdown) -> f64 {
    let spans = timeline(b);
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
        let b = measure(DesignUnderTest::SwP2p, 16 * 1024, true);
        let spans = timeline(&b);
        assert!(spans.len() >= 5, "{spans:?}");
        for w in spans.windows(2) {
            assert!((w[0].2 - w[1].1).abs() < 1e-9, "spans must abut");
        }
        // Software phases surround the device phases.
        assert!(spans.iter().any(|(c, _, _)| *c == Category::DeviceControl));
        assert!(spans.iter().any(|(c, _, _)| *c == Category::Read));
    }
}
