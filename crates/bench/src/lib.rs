//! # dcs-bench — the experiment harness
//!
//! One module per table/figure of the paper's evaluation (§V), each
//! exposing typed `run*` functions and a `report(quick)` that runs the
//! experiment once and returns one [`Report`]. [`EXPERIMENTS`] lists
//! every experiment once; the [`repro`](../repro/index.html) binary
//! prints each report's text and, with `--json-out DIR`, writes the same
//! report as `DIR/BENCH_<exp>.json`. `BENCH_paper.json` at the repo root
//! pins the paper's headline claims to report paths (see
//! `tests/fingerprint.rs`). EXPERIMENTS.md records these outputs against
//! the paper's reported numbers.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`report`] | The typed report: sections, tables, columns with units |
//! | [`engine`] | Extension: simulation-kernel speed, timing wheel vs heap |
//! | [`fig2`] | Figure 2 — software device-control timeline |
//! | [`fig3`] | Figure 3 — microbenchmark latency + CPU breakdowns |
//! | [`fig8`] | Figure 8 — kernel-side CPU utilization, Linux vs DCS-ctrl |
//! | [`fig11`] | Figure 11 — inter-device communication latency |
//! | [`fig12`] | Figure 12 — Swift / HDFS CPU-utilization breakdowns, with Figure 13 projected from the same run |
//! | [`fig13`] | Figure 13 — scalability projection of the Figure 12 rows |
//! | [`table3`] | Table III — NDP unit resources and throughput |
//! | [`table4`] | Table IV — HDC Engine resource utilization |
//! | [`ablation`] | Extension: design-choice sweeps beyond the paper |
//! | [`faults`] | Extension: fault-injection sweep (robustness, §7 of DESIGN.md) |
//! | [`integrity`] | Extension: corruption audit + chaos-fuzz smoke (§12 of DESIGN.md) |
//! | [`cluster`] | Extension: multi-node cluster, failover and gray-failure sweeps (§8 of DESIGN.md) |
//! | [`anatomy`] | Extension: per-request latency anatomy + Chrome trace (§11 of DESIGN.md) |
//! | [`store`] | Extension: multi-tenant object-store sweep — YCSB, caching, QoS (§13 of DESIGN.md) |

use std::collections::{BTreeMap, BTreeSet};

pub mod report;

pub mod ablation;
pub mod anatomy;
pub mod cluster;
pub mod engine;
pub mod faults;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig2;
pub mod fig3;
pub mod fig8;
pub mod integrity;
pub mod probe;
pub mod store;
pub mod table3;
pub mod table4;

pub use report::{Cell, Report, Section, Table};

/// One `repro` experiment.
pub struct Experiment {
    /// Name on the command line, in `--list` and in `BENCH_<name>.json`.
    pub name: &'static str,
    /// Runs the experiment once (`true`: the shortened quick windows).
    pub run: fn(bool) -> Report,
    /// Hashed by the behaviour fingerprint. Only `engine` is not: its
    /// fan-out scenario holds ~400 MB of standing timers.
    pub pinned: bool,
}

impl Experiment {
    const fn new(name: &'static str, run: fn(bool) -> Report, pinned: bool) -> Experiment {
        Experiment { name, run, pinned }
    }
}

/// Every experiment, in presentation order.
pub static EXPERIMENTS: [Experiment; 16] = [
    Experiment::new("engine", engine::report, false),
    Experiment::new("table3", table3::report, true),
    Experiment::new("table4", table4::report, true),
    Experiment::new("fig2", fig2::report, true),
    Experiment::new("fig3", fig3::report, true),
    Experiment::new("fig8", fig8::report, true),
    Experiment::new("fig11", fig11::report, true),
    Experiment::new("fig12", fig12::report, true),
    Experiment::new("ablation", ablation::report, true),
    Experiment::new("faults", faults::report, true),
    Experiment::new("integrity", integrity::report, true),
    Experiment::new("cluster", cluster::report, true),
    Experiment::new("cluster-failover", cluster::failover_report, true),
    Experiment::new("cluster-gray", cluster::gray_report, true),
    Experiment::new("anatomy", anatomy::report, true),
    Experiment::new("store", store::report, true),
];

/// The experiment called `name`.
pub fn experiment(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// The columns [`breakdown_rows`] fills.
pub const BREAKDOWN: &str = "design segment latency:us.2";

/// Appends a request's latency breakdown to a `design` / `segment` /
/// `latency` table: a `total` row, then one row per nonzero category.
/// The rows are the anatomy's segments summed per category, so they add
/// up to the total exactly.
pub fn breakdown_rows(table: &mut Table, label: &str, a: &dcs_sim::Anatomy) {
    row!(table, label, "total", a.segment_sum_ns() as f64 / 1000.0);
    for (cat, ns) in a.by_category() {
        row!(table, label, cat.label(), ns as f64 / 1000.0);
    }
}

/// Appends a table with the columns of `spec`, then one `<tag>:%.1`
/// column per CPU tag any row carries. Each row is its leading cells,
/// then its share of all cores per tag (`-` where it has none).
pub(crate) fn cpu_table(
    s: &mut Section,
    name: &str,
    spec: &str,
    rows: Vec<(Vec<Cell>, &BTreeMap<String, f64>)>,
) {
    let tags: BTreeSet<&String> = rows.iter().flat_map(|(_, m)| m.keys()).collect();
    let mut spec = spec.to_string();
    for tag in &tags {
        spec.push_str(&format!(" {tag}:%.1"));
    }
    let t = s.table(name, &spec);
    for (mut cells, m) in rows {
        cells.extend(tags.iter().map(|tag| Cell::from(m.get(*tag).copied())));
        t.row(cells);
    }
}
