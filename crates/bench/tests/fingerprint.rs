//! Behaviour fingerprint of the deterministic `repro --quick` experiments.
//!
//! Each test renders one experiment's quick-mode text exactly as `repro`
//! prints it, hashes it with `fnv1a64`, and compares the digest with the
//! one committed in `fingerprint.txt`. A behaviour-preserving refactor
//! must leave every digest unchanged; a failing test names the experiment
//! whose output moved. `engine` and `table3` are left out because they
//! print host wall-clock numbers.
//!
//! After an intentional change to modeled output, replace the moved
//! experiment's line in `fingerprint.txt` with the digest the failure
//! message reports.

use dcs_bench::{
    ablation, anatomy, cluster, faults, fig11, fig12, fig13, fig2, fig3, fig8, integrity, store,
    table4,
};
use dcs_sim::fnv1a64;

/// The committed digest for `name`.
fn committed(name: &str) -> String {
    include_str!("fingerprint.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .find(|(n, _)| *n == name)
        .map(|(_, d)| d.trim().to_string())
        .unwrap_or_else(|| panic!("fingerprint.txt has no digest for {name}"))
}

fn check(name: &str, text: String) {
    let want = committed(name);
    let got = format!("{:016x}", fnv1a64(text.as_bytes()));
    assert!(
        got == want,
        "`repro --quick {name}` output moved: committed {want}, now {got}"
    );
}

#[test]
fn fig2() {
    check("fig2", fig2::render(4096));
}

#[test]
fn fig3() {
    check("fig3", fig3::render(16 * 1024, true));
}

#[test]
fn fig8() {
    check("fig8", fig8::render(true));
}

#[test]
fn fig11() {
    check("fig11", fig11::render(4096));
}

#[test]
fn fig12() {
    check("fig12", fig12::render(true));
}

#[test]
fn fig13() {
    check("fig13", fig13::render(true));
}

#[test]
fn ablation() {
    check("ablation", ablation::render(true));
}

#[test]
fn faults() {
    check("faults", faults::render(true));
}

#[test]
fn integrity() {
    check("integrity", integrity::render(true));
}

#[test]
fn table4() {
    check("table4", table4::render());
}

#[test]
fn anatomy() {
    check("anatomy", anatomy::render());
}

#[test]
fn cluster() {
    check("cluster", cluster::render(true));
}

#[test]
fn cluster_failover() {
    check("cluster-failover", cluster::render_failover(true));
}

#[test]
fn cluster_gray() {
    check("cluster-gray", cluster::render_gray(true));
}

#[test]
fn store() {
    check("store", store::render(true));
}
