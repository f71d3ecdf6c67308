//! The anatomy of one D2D operation under each design.
//!
//! Prints the Figure-2-style timeline of a single `SSD -> MD5 -> NIC`
//! operation for every design the paper compares, showing exactly which
//! microseconds DCS-ctrl removes.
//!
//! ```text
//! cargo run --example latency_anatomy
//! ```

use dcs_bench::fig11::{measure, software_latency};
use dcs_bench::{fig2, Report};
use dcs_ctrl::workloads::scenario::DesignUnderTest;

fn main() {
    let len = 4096;
    let mut r = Report::new(
        "latency_anatomy",
        false,
        format!(
            "Anatomy of one SSD -> MD5 -> NIC operation ({} KiB)",
            len / 1024
        ),
    );
    for (i, design) in [
        DesignUnderTest::Linux,
        DesignUnderTest::SwOpt,
        DesignUnderTest::SwP2p,
        DesignUnderTest::DcsCtrl,
    ]
    .into_iter()
    .enumerate()
    {
        let a = measure(design, len, true);
        let s = r.section(format!(
            "{} — total {:.1} us, software {:.1} us",
            design.label(),
            a.segment_sum_ns() as f64 / 1000.0,
            software_latency(&a) as f64 / 1000.0
        ));
        fig2::timeline_table(s, &format!("timeline{i}"), &a);
    }
    println!("{}", r.text());
    println!("Every '#' of Device Control / GPU Control / Network Stack is host");
    println!("software the HDC Engine replaces with the thin Scoreboard slice.");
}
