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
use dcs_sim::{time, Anatomy, ComponentId, Simulator};
use dcs_workloads::scenario::{
    start_scenario, DesignUnderTest, Request, ScenarioConfig, ScenarioOutcome, Testbed,
    TestbedConfig,
};

use crate::probe::{Probe, ProbedTestbed, Submit};
use crate::{breakdown_rows, cpu_table, Report, BREAKDOWN};

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

/// Single-operation latency anatomy for one design.
pub fn latency(design: Fig3Design, len: usize) -> Anatomy {
    match design {
        Fig3Design::SwOpt => single_sw(DesignUnderTest::SwOpt, len),
        Fig3Design::SwP2p => single_sw(DesignUnderTest::SwP2p, len),
        Fig3Design::DeviceIntegration => {
            let (mut sim, exec, probe) = integration_rig();
            sim.world_mut().obs.enable();
            let job = D2dJob {
                id: 1,
                ops: micro_ops(len),
                reply_to: probe,
                tag: "fig3",
            };
            sim.kickoff(probe, Submit { to: exec, job });
            sim.run();
            let a = sim.world().obs.anatomy(1).filter(|a| a.end_ns.is_some());
            a.expect("job completes").clone()
        }
    }
}

fn single_sw(design: DesignUnderTest, len: usize) -> Anatomy {
    let mut rig = ProbedTestbed::new(design);
    rig.seed_flash(0, &vec![0x33; len]);
    let done = rig.run_server_job(micro_ops(len), "fig3");
    rig.anatomy(done.id)
}

/// Sustained-stream CPU utilization (fraction of all cores) by tag.
pub fn cpu_utilization(
    design: Fig3Design,
    len: usize,
    offered_gbps: f64,
    duration_ns: u64,
) -> BTreeMap<String, f64> {
    let scenario = ScenarioConfig {
        duration_ns,
        warmup_ns: duration_ns / 5,
        mean_interarrival_ns: len as f64 * 8.0 / offered_gbps,
        slots: 16,
    };
    // The software designs give each slot its own flow, which keeps
    // their streams separated; the consolidated device has no NIC queues.
    let (mut sim, target, key, cores, flow_per_slot) = match design {
        Fig3Design::DeviceIntegration => {
            let (sim, exec, _probe) = integration_rig();
            (sim, exec, "fused".to_string(), 6, false)
        }
        Fig3Design::SwOpt | Fig3Design::SwP2p => {
            let dut = if design == Fig3Design::SwOpt {
                DesignUnderTest::SwOpt
            } else {
                DesignUnderTest::SwP2p
            };
            let Testbed {
                mut sim, server, ..
            } = Testbed::new(dut, &TestbedConfig::default());
            sim.run();
            (sim, server.submit_to, server.cpu_key, server.cores, true)
        }
    };
    let make = Box::new(
        move |_rng: &mut dcs_sim::Rng, slot: usize, reply_to, next_id: &mut u64| {
            let id = *next_id;
            *next_id += 1;
            let mut ops = micro_ops(len);
            if let (true, Some(D2dOp::NicSend { flow, .. })) = (flow_per_slot, ops.last_mut()) {
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
    start_scenario(&mut sim, scenario, make, vec![(key.clone(), cores)]);
    sim.run();
    sim.world().expect::<ScenarioOutcome>().reports[&key]
        .cpu_breakdown
        .clone()
}

/// Both sub-figures at 16 KiB.
pub fn report(quick: bool) -> Report {
    let len = 16 * 1024;
    let mut r = Report::new(
        "fig3",
        quick,
        format!(
            "Figure 3 — software overheads of multi-device communication (SSD->GPU hash->NIC, {} KiB)",
            len / 1024
        ),
    );
    let t = r
        .section("(a) latency breakdown")
        .table("latency", BREAKDOWN);
    for d in Fig3Design::ALL {
        breakdown_rows(t, d.label(), &latency(d, len));
    }
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
    let s = r.section("(b) normalized CPU utilization of a sustained stream (% of cores by tag)");
    let rows = utils
        .iter()
        .map(|(d, m)| {
            (
                vec![d.label().into(), (m.values().sum::<f64>() / norm).into()],
                m,
            )
        })
        .collect();
    cpu_table(s, "cpu", "design normalized_to_sw_opt:x.2", rows);
    r
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
        assert!(p2p.total_ns() <= sw.total_ns());
        assert!(fused.total_ns() < p2p.total_ns());
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
