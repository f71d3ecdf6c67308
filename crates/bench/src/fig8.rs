//! Figure 8 — kernel-side CPU utilization of simple SSD↔NIC
//! communication: stock Linux vs the optimized stack vs DCS-ctrl.
//!
//! §III-E's point: HDC Driver's bypasses (page cache, socket buffers,
//! dedicated queues) cut kernel CPU as much as the published software
//! optimizations do — and the hardware control path then removes most of
//! what remains.

use std::collections::BTreeMap;

use dcs_host::job::{D2dJob, D2dOp};
use dcs_nic::TcpFlow;
use dcs_sim::time;
use dcs_workloads::scenario::{
    start_scenario, DesignUnderTest, Request, ScenarioConfig, ScenarioOutcome, Testbed,
    TestbedConfig,
};

use crate::{cpu_table, Report};

/// The designs Figure 8 compares.
pub const DESIGNS: [DesignUnderTest; 3] = [
    DesignUnderTest::Linux,
    DesignUnderTest::SwOpt,
    DesignUnderTest::DcsCtrl,
];

/// Streams SSD→NIC ops and returns the server's CPU breakdown.
pub(crate) fn kernel_utilization(
    design: DesignUnderTest,
    len: usize,
    offered_gbps: f64,
    duration_ns: u64,
) -> BTreeMap<String, f64> {
    let mut tb = Testbed::new(design, &TestbedConfig::default());
    tb.sim.run();
    let target = tb.server.submit_to;
    let key = tb.server.cpu_key.clone();
    let cores = tb.server.cores;
    let make = Box::new(
        move |_rng: &mut dcs_sim::Rng, slot: usize, reply_to, next_id: &mut u64| {
            let id = *next_id;
            *next_id += 1;
            let job = D2dJob {
                id,
                ops: vec![
                    D2dOp::SsdRead {
                        ssd: 0,
                        lba: (id * 16) % (1 << 20),
                        len,
                    },
                    D2dOp::NicSend {
                        flow: TcpFlow::example(1, 2, 42_000 + slot as u16, 9_020 + slot as u16),
                        seq: 0,
                    },
                ],
                reply_to,
                tag: "kernel",
            };
            Request {
                jobs: vec![(target, job)],
                bytes: len,
                app_cost_ns: 0,
                app_tag: "app",
            }
        },
    );
    let scenario = ScenarioConfig {
        duration_ns,
        warmup_ns: duration_ns / 5,
        mean_interarrival_ns: len as f64 * 8.0 / offered_gbps,
        slots: 16,
    };
    start_scenario(&mut tb.sim, scenario, make, vec![(key.clone(), cores)]);
    tb.sim.run();
    let outcome = tb.sim.world().expect::<ScenarioOutcome>();
    outcome.reports[&key].cpu_breakdown.clone()
}

/// Runs the figure's sweep and returns per-design CPU breakdowns.
pub fn collect(quick: bool) -> Vec<(DesignUnderTest, BTreeMap<String, f64>)> {
    let len = 64 * 1024;
    let duration = if quick { time::ms(10) } else { time::ms(40) };
    DESIGNS
        .iter()
        .map(|&d| (d, kernel_utilization(d, len, 4.0, duration)))
        .collect()
}

/// The figure: each design's kernel-side CPU, total and by tag.
pub fn report(quick: bool) -> Report {
    let rows = collect(quick);
    let mut r = Report::new(
        "fig8",
        quick,
        "Figure 8 — kernel-side CPU utilization, SSD->NIC streaming (64 KiB ops, 4 Gbps)",
    );
    let linux_total: f64 = rows[0].1.values().sum();
    let rows_by_tag = rows
        .iter()
        .map(|(d, m)| {
            let total: f64 = m.values().sum();
            let lead = vec![
                d.label().into(),
                total.into(),
                (total / linux_total.max(1e-9)).into(),
            ];
            (lead, m)
        })
        .collect();
    let s = r.section("");
    cpu_table(s, "cores", "design cores:%.1 of_linux:x.2", rows_by_tag);
    s.note("(paper: DCS-ctrl reduces kernel-side CPU as much as the published SW optimizations)");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dcs_kernel_cpu_is_far_below_linux() {
        let len = 64 * 1024;
        let dur = time::ms(8);
        let linux: f64 = kernel_utilization(DesignUnderTest::Linux, len, 3.0, dur)
            .values()
            .sum();
        let opt: f64 = kernel_utilization(DesignUnderTest::SwOpt, len, 3.0, dur)
            .values()
            .sum();
        let dcs: f64 = kernel_utilization(DesignUnderTest::DcsCtrl, len, 3.0, dur)
            .values()
            .sum();
        assert!(linux > opt, "optimizations must help: {linux} vs {opt}");
        assert!(
            dcs < opt * 0.5,
            "hardware control must slash it: {dcs} vs {opt}"
        );
    }
}
