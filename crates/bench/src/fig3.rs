//! Figure 3 — software overheads of multi-device communication.
//!
//! The motivating microbenchmark: SSD→GPU(hash)→NIC. (a) decomposes the
//! latency of one operation; (b) the CPU utilization of a sustained
//! stream. Designs: SW opt, SW-ctrl P2P, and the idealized consolidated
//! device ("Device integration").

use std::collections::BTreeMap;

use dcs_host::cpu::CpuPool;
use dcs_host::integration::IntegratedExecutor;
use dcs_host::job::{D2dJob, D2dOp};
use dcs_ndp::NdpFunction;
use dcs_nic::TcpFlow;
use dcs_pcie::{PhysMemory, PortId};
use dcs_sim::{time, Breakdown, ComponentId, Simulator};
use dcs_workloads::scenario::{
    start_scenario, DesignUnderTest, Request, ScenarioConfig, ScenarioOutcome, Testbed,
    TestbedConfig,
};

use crate::probe::{Inbox, Probe, ProbedTestbed, Submit};
use crate::render_breakdown;

/// The three bars of Figure 3.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fig3Design {
    /// Optimized software, host-staged data.
    SwOpt,
    /// Optimized software + P2P data paths.
    SwP2p,
    /// Idealized consolidated device.
    DeviceIntegration,
}

impl Fig3Design {
    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            Fig3Design::SwOpt => "SW opt",
            Fig3Design::SwP2p => "SW-ctrl P2P",
            Fig3Design::DeviceIntegration => "Device integration",
        }
    }

    /// All three, in figure order.
    pub const ALL: [Fig3Design; 3] = [
        Fig3Design::SwOpt,
        Fig3Design::SwP2p,
        Fig3Design::DeviceIntegration,
    ];
}

fn micro_ops(len: usize) -> Vec<D2dOp> {
    vec![
        D2dOp::SsdRead {
            ssd: 0,
            lba: 0,
            len,
        },
        D2dOp::Process {
            function: NdpFunction::Md5,
            aux: vec![],
        },
        D2dOp::NicSend {
            flow: TcpFlow::example(1, 2, 41_000, 9_010),
            seq: 0,
        },
    ]
}

/// Builds the standalone consolidated-device rig.
fn integration_rig() -> (Simulator, ComponentId, ComponentId) {
    let mut sim = Simulator::new(5);
    sim.world_mut().insert(PhysMemory::new());
    let flash =
        sim.world_mut()
            .expect_mut::<PhysMemory>()
            .alloc_region("fused-flash", 8 << 30, PortId(1));
    let cpu = sim.add("fused-cpu", CpuPool::new("fused", 6));
    let exec = sim.add("fused-exec", IntegratedExecutor::new(cpu, flash));
    let probe = sim.add("probe", Probe);
    (sim, exec, probe)
}

/// Single-operation latency breakdown for one design.
pub fn latency(design: Fig3Design, len: usize) -> Breakdown {
    match design {
        Fig3Design::SwOpt => single_sw(DesignUnderTest::SwOpt, len),
        Fig3Design::SwP2p => single_sw(DesignUnderTest::SwP2p, len),
        Fig3Design::DeviceIntegration => {
            let (mut sim, exec, probe) = integration_rig();
            let job = D2dJob {
                id: 1,
                ops: micro_ops(len),
                reply_to: probe,
                tag: "fig3",
            };
            sim.kickoff(probe, Submit { to: exec, job });
            sim.run();
            sim.world().expect::<Inbox>().0[0].breakdown.clone()
        }
    }
}

fn single_sw(design: DesignUnderTest, len: usize) -> Breakdown {
    let mut rig = ProbedTestbed::new(design);
    rig.seed_flash(0, &vec![0x33; len]);
    rig.run_server_job(micro_ops(len), "fig3").breakdown
}

/// Sustained-stream CPU utilization (fraction of all cores) by tag.
pub fn cpu_utilization(
    design: Fig3Design,
    len: usize,
    offered_gbps: f64,
    duration_ns: u64,
) -> BTreeMap<String, f64> {
    let mean_interarrival_ns = len as f64 * 8.0 / offered_gbps;
    let scenario = ScenarioConfig {
        duration_ns,
        warmup_ns: duration_ns / 5,
        mean_interarrival_ns,
        slots: 16,
    };
    match design {
        Fig3Design::DeviceIntegration => {
            let (mut sim, exec, _probe) = integration_rig();
            let make = Box::new(
                move |_rng: &mut dcs_sim::Rng, _slot: usize, reply_to, next_id: &mut u64| {
                    let id = *next_id;
                    *next_id += 1;
                    Request {
                        jobs: vec![(
                            exec,
                            D2dJob {
                                id,
                                ops: micro_ops(len),
                                reply_to,
                                tag: "kernel",
                            },
                        )],
                        bytes: len,
                        app_cost_ns: 0,
                        app_tag: "app",
                    }
                },
            );
            start_scenario(&mut sim, scenario, make, vec![("fused".to_string(), 6)]);
            sim.run();
            let outcome = sim.world().expect::<ScenarioOutcome>();
            outcome.reports["fused"].cpu_breakdown.clone()
        }
        other => {
            let dut = match other {
                Fig3Design::SwOpt => DesignUnderTest::SwOpt,
                Fig3Design::SwP2p => DesignUnderTest::SwP2p,
                Fig3Design::DeviceIntegration => unreachable!(),
            };
            let mut tb = Testbed::new(dut, &TestbedConfig::default());
            tb.sim.run();
            let target = tb.server.submit_to;
            let key = tb.server.cpu_key.clone();
            let cores = tb.server.cores;
            let make = Box::new(
                move |_rng: &mut dcs_sim::Rng, slot: usize, reply_to, next_id: &mut u64| {
                    let id = *next_id;
                    *next_id += 1;
                    let mut ops = micro_ops(len);
                    // Distinct flow per slot keeps streams separated.
                    if let Some(D2dOp::NicSend { flow, .. }) = ops.last_mut() {
                        *flow = TcpFlow::example(1, 2, 41_000 + slot as u16, 9_010 + slot as u16);
                    }
                    Request {
                        jobs: vec![(
                            target,
                            D2dJob {
                                id,
                                ops,
                                reply_to,
                                tag: "kernel",
                            },
                        )],
                        bytes: len,
                        app_cost_ns: 0,
                        app_tag: "app",
                    }
                },
            );
            start_scenario(&mut tb.sim, scenario, make, vec![(key.clone(), cores)]);
            tb.sim.run();
            let outcome = tb.sim.world().expect::<ScenarioOutcome>();
            outcome.reports[&key].cpu_breakdown.clone()
        }
    }
}

/// Renders both sub-figures.
pub fn render(len: usize, quick: bool) -> String {
    let mut out = format!(
        "Figure 3 — software overheads of multi-device communication (SSD->GPU hash->NIC, {} KiB)\n",
        len / 1024
    );
    out.push_str("\n(a) latency breakdown\n");
    for d in Fig3Design::ALL {
        let b = latency(d, len);
        out.push_str(&render_breakdown(d.label(), &b));
    }
    out.push_str("\n(b) normalized CPU utilization of a sustained stream\n");
    let duration = if quick { time::ms(10) } else { time::ms(40) };
    let utils: Vec<(Fig3Design, BTreeMap<String, f64>)> = Fig3Design::ALL
        .iter()
        .map(|&d| (d, cpu_utilization(d, len, 4.0, duration)))
        .collect();
    let norm = utils
        .first()
        .map(|(_, m)| m.values().sum::<f64>())
        .unwrap_or(1.0)
        .max(1e-9);
    for (d, m) in &utils {
        let total: f64 = m.values().sum();
        out.push_str(&format!(
            "  {:<20} {:>6.2} (normalized to SW opt)\n",
            d.label(),
            total / norm
        ));
        for (tag, u) in m {
            out.push_str(&format!("      {tag:<16} {:>5.1}% of cores\n", u * 100.0));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integration_is_fastest_and_cheapest() {
        let len = 16 * 1024;
        let sw = latency(Fig3Design::SwOpt, len);
        let p2p = latency(Fig3Design::SwP2p, len);
        let fused = latency(Fig3Design::DeviceIntegration, len);
        assert!(p2p.total() <= sw.total());
        assert!(fused.total() < p2p.total());
    }

    #[test]
    fn cpu_stream_ordering_matches_figure() {
        let len = 64 * 1024;
        let dur = time::ms(8);
        let sw: f64 = cpu_utilization(Fig3Design::SwOpt, len, 3.0, dur)
            .values()
            .sum();
        let p2p: f64 = cpu_utilization(Fig3Design::SwP2p, len, 3.0, dur)
            .values()
            .sum();
        let fused: f64 = cpu_utilization(Fig3Design::DeviceIntegration, len, 3.0, dur)
            .values()
            .sum();
        assert!(sw > 0.0);
        assert!(p2p <= sw * 1.05, "p2p {p2p} vs sw {sw}");
        assert!(fused < p2p * 0.6, "fused {fused} vs p2p {p2p}");
    }
}
