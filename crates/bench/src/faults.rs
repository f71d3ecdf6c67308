//! Extension experiment: fault-injection sweep.
//!
//! Drives paired 16 KiB SSD→wire→MD5 transfers through each design while
//! `dcs_sim::fault` storms every injection site at increasing rates, and
//! reports transfer goodput plus the recovery tallies. This is the
//! benchmark-side view of the robustness machinery `tests/chaos.rs`
//! asserts on: the interesting outputs are how many faults each design's
//! retry/timeout/watchdog paths absorb and what survives to an error
//! completion.

use dcs_host::job::D2dOp;
use dcs_ndp::NdpFunction;
use dcs_nic::TcpFlow;
use dcs_pcie::PhysMemory;
use dcs_sim::fault::SiteStats;
use dcs_sim::{FaultPlan, Histogram};
use dcs_workloads::scenario::{DesignUnderTest, Testbed, TestbedConfig};

use crate::probe::FaultReport;
use crate::{row, Report, Section};

/// Transfer size per round; small enough that whole-send retransmission
/// stays effective at percent-level frame-drop rates.
const LEN: usize = 16 * 1024;

/// Outcome of one (design, rate) cell of the sweep.
pub struct FaultRow {
    /// Design under test.
    pub design: DesignUnderTest,
    /// Per-site fault probability.
    pub rate: f64,
    /// Transfer rounds attempted.
    pub rounds: usize,
    /// Rounds where both the send and the receive job succeeded.
    pub ok_rounds: usize,
    /// Latency of successful rounds, ns.
    pub ok_lat: Histogram,
    /// Global fault/recovery tallies at the end of the run.
    pub report: FaultReport,
    /// The plan's per-site tallies, in site order (empty without one).
    pub sites: Vec<(&'static str, SiteStats)>,
}

impl FaultRow {
    /// Mean latency of successful rounds, µs.
    pub(crate) fn mean_us(&self) -> f64 {
        self.ok_lat.mean().unwrap_or(0.0) / 1000.0
    }

    /// p99 latency of successful rounds, µs (the worst round at these
    /// sample counts).
    pub fn p99_us(&self) -> f64 {
        self.ok_lat.p99().unwrap_or(0) as f64 / 1000.0
    }
}

/// Runs `rounds` paired transfers on `design` with every fault site
/// firing at `rate` (0 disables injection entirely).
pub fn run(design: DesignUnderTest, rate: f64, rounds: usize) -> FaultRow {
    let mut tb = Testbed::new(
        design,
        &TestbedConfig {
            seed: 0xFA17,
            ..Default::default()
        },
    );
    tb.sim.run();
    tb.sim.world_mut().obs.enable();
    let pat: Vec<u8> = (0..LEN).map(|i| (i * 31 % 251) as u8).collect();
    let addr = tb.server.ssds[0].lba_addr(0);
    tb.sim
        .world_mut()
        .expect_mut::<PhysMemory>()
        .write(addr, &pat);
    if rate > 0.0 {
        tb.install_faults(|rng| FaultPlan::uniform(rate, rng));
    }
    let mut ok_rounds = 0;
    let mut ok_lat = Histogram::new();
    for round in 0..rounds {
        let flow = TcpFlow::example(1, 2, 43_000 + round as u16, 7_000 + round as u16);
        let server = tb.server.submit_to;
        let client = tb.client.submit_to;
        let done = tb.run_job_batch(vec![
            (
                server,
                vec![
                    D2dOp::SsdRead {
                        ssd: 0,
                        lba: 0,
                        len: LEN,
                    },
                    D2dOp::NicSend { flow, seq: 0 },
                ],
                "fault-send",
            ),
            (
                client,
                vec![
                    D2dOp::NicRecv {
                        flow: flow.reversed(),
                        len: LEN,
                    },
                    D2dOp::Process {
                        function: NdpFunction::Md5,
                        aux: vec![],
                    },
                ],
                "fault-recv",
            ),
        ]);
        if done.iter().all(|d| d.ok) {
            ok_rounds += 1;
            // Round latency = the slower of the paired jobs' recorded
            // end-to-end latency (the drain afterwards also retires
            // recovery timers, which are not part of the transfer).
            let obs = &tb.sim.world().obs;
            let e2e = |id| obs.anatomy(id).and_then(|a| a.total_ns()).unwrap_or(0);
            ok_lat.record(done.iter().map(|d| e2e(d.id)).max().unwrap_or(0));
        }
    }
    let world = tb.sim.world();
    FaultRow {
        design,
        rate,
        rounds,
        ok_rounds,
        ok_lat,
        report: FaultReport::capture(world),
        sites: world
            .get::<FaultPlan>()
            .map(|plan| plan.tallies().collect())
            .unwrap_or_default(),
    }
}

/// The sweep: goodput and recovery tallies per design and rate, plus the
/// per-site breakdown of the sweep's DCS-ctrl row at the highest rate.
pub fn report(quick: bool) -> Report {
    let rounds = if quick { 4 } else { 12 };
    let rates = [0.0, 0.001, 0.005, 0.01];
    let designs = [
        DesignUnderTest::SwOpt,
        DesignUnderTest::SwP2p,
        DesignUnderTest::DcsCtrl,
    ];
    let mut r = Report::new(
        "faults",
        quick,
        format!(
            "Fault sweep — paired {} KiB SSD→NIC→NIC→MD5 transfers, all sites firing",
            LEN / 1024
        ),
    );
    let t = r.section("").table(
        "sweep",
        "design rate:%.1 ok rounds mean:us.1 p99:us.1 injected recovered exhausted retries",
    );
    let mut sites = Vec::new();
    for design in designs {
        for rate in rates {
            let row = run(design, rate, rounds);
            row!(
                t,
                row.design.to_string(),
                rate,
                row.ok_rounds,
                row.rounds,
                row.mean_us(),
                row.p99_us(),
                row.report.injected,
                row.report.recovered,
                row.report.exhausted,
                row.report.retries,
            );
            if design == DesignUnderTest::DcsCtrl && Some(&rate) == rates.last() {
                sites = row.sites;
            }
        }
    }
    site_table(
        r.section("Per-site tallies, dcs-ctrl @ 1.0%:"),
        "sites",
        sites.into_iter(),
    );
    r
}

/// A site / injected / recovered / exhausted table.
pub(crate) fn site_table(
    s: &mut Section,
    name: &str,
    sites: impl Iterator<Item = (&'static str, SiteStats)>,
) {
    let t = s.table(name, "site injected recovered exhausted");
    for (site, tally) in sites {
        row!(t, site, tally.injected, tally.recovered, tally.exhausted);
    }
}
