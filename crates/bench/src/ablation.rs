//! Ablation studies beyond the paper's figures.
//!
//! DESIGN.md calls out the load-bearing design choices of the HDC Engine;
//! these sweeps quantify each one:
//!
//! * `size_sweep` — single-operation latency vs transfer size per
//!   design. Exposes the honest crossover the paper does not plot: an MD5
//!   NDP unit processes one stream at 0.97 Gbps (Table III), so for large
//!   single objects the GPU's 30 Gbps hash eventually wins on *latency*
//!   even though DCS-ctrl always wins on CPU efficiency and throughput.
//! * `ndp_scaling` — Swift throughput vs the NDP bank's per-function
//!   target rate (how many MD5 units the engine instantiates).
//! * `outstanding_sweep` — the effect of the engine's per-SSD issue
//!   limit on pipelined read throughput.

use dcs_host::job::{D2dJob, D2dOp};
use dcs_ndp::NdpFunction;
use dcs_nic::TcpFlow;
use dcs_sim::{time, Bandwidth};
use dcs_workloads::scenario::DesignUnderTest;

use crate::fig11::measure;
use crate::probe::{Inbox, Submit};
use crate::{row, Report};

/// One point of the size sweep.
#[derive(Clone, Debug)]
pub struct SizePoint {
    /// Transfer size in bytes.
    pub len: usize,
    /// Total latency per design, ns: (SW opt, SW-ctrl P2P, DCS-ctrl).
    pub totals: [u64; 3],
}

/// Sweeps single-op `SSD→MD5→NIC` latency across sizes.
pub(crate) fn size_sweep(sizes: &[usize]) -> Vec<SizePoint> {
    sizes
        .iter()
        .map(|&len| {
            let totals = [
                measure(DesignUnderTest::SwOpt, len, true).segment_sum_ns(),
                measure(DesignUnderTest::SwP2p, len, true).segment_sum_ns(),
                measure(DesignUnderTest::DcsCtrl, len, true).segment_sum_ns(),
            ];
            SizePoint { len, totals }
        })
        .collect()
}

/// The size at which SW-ctrl P2P's single-op latency first beats
/// DCS-ctrl's (`None` if DCS wins everywhere in the swept range).
pub(crate) fn latency_crossover(points: &[SizePoint]) -> Option<usize> {
    points
        .iter()
        .find(|p| p.totals[2] > p.totals[1])
        .map(|p| p.len)
}

/// Swift GET-heavy run on a DCS testbed whose NDP banks are sized for
/// `ndp_target_gbps` aggregate per function (Table III's default is 10);
/// returns `(throughput_gbps, cpu_utilization)`.
///
/// The MD5 bank is the contended resource: halving its target visibly
/// queues requests, doubling it buys headroom.
pub(crate) fn ndp_scaling(ndp_target_gbps: f64, quick: bool) -> (f64, f64) {
    use dcs_core::{build_dcs_pair, DcsNodeBuilder};
    use dcs_host::job::{D2dJob as Job, D2dOp as Op};
    use dcs_nic::WireConfig;
    use dcs_pcie::PhysMemory;
    use dcs_sim::Simulator;
    use dcs_workloads::scenario::{start_scenario, Request, ScenarioConfig, ScenarioOutcome};

    let mut sim = Simulator::new(17);
    let mut builder = DcsNodeBuilder::new("server");
    builder.engine.ndp_target_gbps = ndp_target_gbps;
    let mut client_builder = DcsNodeBuilder::new("client");
    client_builder.engine.ndp_target_gbps = ndp_target_gbps;
    let (na, nb) = build_dcs_pair(&mut sim, &builder, &client_builder, WireConfig::default());
    sim.world_mut()
        .expect_mut::<PhysMemory>()
        .write(na.ssds[0].lba_addr(0), &vec![5u8; 256 * 1024]);
    sim.run();
    let server = na.driver;
    let client = nb.driver;
    let len = 256 * 1024usize;
    let make = Box::new(
        move |_rng: &mut dcs_sim::Rng, slot: usize, reply_to, next_id: &mut u64| {
            let mut id = || {
                let i = *next_id;
                *next_id += 1;
                i
            };
            let flow = TcpFlow::example(1, 2, 25_000 + slot as u16, 8_300 + slot as u16);
            let server_job = Job {
                id: id(),
                ops: vec![
                    Op::SsdRead {
                        ssd: 0,
                        lba: 0,
                        len,
                    },
                    Op::Process {
                        function: NdpFunction::Md5,
                        aux: vec![],
                    },
                    Op::NicSend { flow, seq: 0 },
                ],
                reply_to,
                tag: "kernel-get",
            };
            let client_job = Job {
                id: id(),
                ops: vec![Op::NicRecv {
                    flow: flow.reversed(),
                    len,
                }],
                reply_to,
                tag: "client",
            };
            Request {
                jobs: vec![(client, client_job), (server, server_job)],
                bytes: len,
                app_cost_ns: 0,
                app_tag: "app",
            }
        },
    );
    let duration = if quick { time::ms(20) } else { time::ms(60) };
    start_scenario(
        &mut sim,
        ScenarioConfig {
            duration_ns: duration,
            warmup_ns: duration / 4,
            mean_interarrival_ns: len as f64 * 8.0 / 8.5,
            slots: 40,
        },
        make,
        vec![("server".to_string(), 6)],
    );
    sim.run();
    let outcome = sim.world().expect::<ScenarioOutcome>();
    let report = &outcome.reports["server"];
    (report.throughput_gbps(), report.cpu_utilization())
}

/// One point of the outstanding-commands sweep.
#[derive(Clone, Debug)]
pub struct OutstandingPoint {
    /// Engine per-SSD issue limit.
    pub limit: usize,
    /// Achieved read throughput, Gbps.
    pub gbps: f64,
}

/// Sweeps the engine's NVMe issue limit with a stream of small (16 KiB)
/// reads — small enough that per-command latency, not flash bandwidth,
/// bounds a shallow pipeline.
pub(crate) fn outstanding_sweep(limits: &[usize]) -> Vec<OutstandingPoint> {
    use dcs_core::{build_dcs_pair, DcsNodeBuilder};
    use dcs_nic::WireConfig;
    use dcs_pcie::PhysMemory;
    use dcs_sim::Simulator;

    limits
        .iter()
        .map(|&limit| {
            let mut sim = Simulator::new(3);
            let mut a = DcsNodeBuilder::new("a");
            a.engine.nvme_outstanding = limit;
            let (na, _nb) = build_dcs_pair(
                &mut sim,
                &a,
                &DcsNodeBuilder::new("b"),
                WireConfig::default(),
            );
            let probe = sim.add("probe", crate::probe::Probe);
            sim.run();
            let len = 16 * 1024;
            let n = 256u64;
            sim.world_mut()
                .expect_mut::<PhysMemory>()
                .write(na.ssds[0].lba_addr(0), &vec![7u8; len]);
            let t0 = sim.now();
            for i in 0..n {
                let job = D2dJob {
                    id: i,
                    ops: vec![D2dOp::SsdRead {
                        ssd: 0,
                        lba: (i * 4) % 4096,
                        len,
                    }],
                    reply_to: probe,
                    tag: "sweep",
                };
                sim.kickoff(probe, Submit { to: na.driver, job });
            }
            sim.run();
            assert_eq!(sim.world().stats.counter_value("probe.ok"), n);
            let _ = sim.world().expect::<Inbox>();
            let elapsed = (sim.now() - t0).max(1);
            let gbps = (n as usize * len) as f64 * 8.0 / elapsed as f64;
            OutstandingPoint { limit, gbps }
        })
        .collect()
}

/// All three ablations.
pub fn report(quick: bool) -> Report {
    let mut r = Report::new(
        "ablation",
        quick,
        "Ablations — design-choice sweeps beyond the paper",
    );

    let s = r.section("(1) single-op SSD->MD5->NIC latency vs size (us)");
    let t = s.table(
        "size_sweep",
        "size:KiB sw_opt:us.1 sw_p2p:us.1 dcs_ctrl:us.1",
    );
    let points = size_sweep(&[4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20]);
    for p in &points {
        let us = |i: usize| p.totals[i] as f64 / 1000.0;
        row!(t, p.len / 1024, us(0), us(1), us(2));
    }
    match latency_crossover(&points) {
        Some(len) => s
            .note(format!(
                "crossover: above {} KiB the GPU's 30 Gbps hash beats the single",
                len / 1024
            ))
            .note("0.97 Gbps MD5 NDP unit on latency (throughput/CPU still favor DCS)"),
        None => s.note("no crossover in the swept range"),
    };

    let s = r.section("(2) engine NVMe issue limit vs pipelined read throughput");
    let t = s.table("issue_limit", "limit throughput:Gbps.2");
    for p in outstanding_sweep(&[1, 2, 4, 8, 16]) {
        row!(t, p.limit, p.gbps);
    }
    s.note(format!(
        "(flash ceiling: {:.1} Gbps read bandwidth)",
        Bandwidth::gbps(17.2).as_gbps()
    ));

    let t = r
        .section("(3) GET throughput vs NDP bank size (MD5 units = ceil(target/0.97))")
        .table(
            "ndp_bank",
            "bank_target:Gbps md5_units throughput:Gbps.2 cpu:%.1",
        );
    for target in [2.0, 5.0, 10.0, 20.0] {
        let (gbps, cpu) = ndp_scaling(target, quick);
        row!(t, target, (target / 0.97).ceil() as u32, gbps, cpu);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_sweep_shows_dcs_win_small_and_crossover_large() {
        let points = size_sweep(&[4 << 10, 1 << 20]);
        // At 4 KiB DCS wins outright.
        assert!(points[0].totals[2] < points[0].totals[1]);
        // At 1 MiB the serial MD5 unit loses the latency race (honest
        // consequence of Table III's 0.97 Gbps per-unit rate).
        assert!(points[1].totals[2] > points[1].totals[1]);
    }

    #[test]
    fn deeper_nvme_pipelines_increase_throughput_to_flash_limit() {
        let points = outstanding_sweep(&[1, 8]);
        assert!(points[1].gbps > points[0].gbps * 1.5, "{points:?}");
        assert!(points[1].gbps <= 17.2 + 0.5);
    }
}
