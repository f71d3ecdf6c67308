//! A Swift-like secure object store over every design.
//!
//! Serves a PUT/GET mix with MD5 integrity *and* AES-256 encryption in
//! flight (the Table II combination Swift deploys), comparing the server's
//! CPU bill across SW-opt, SW-ctrl-P2P, and DCS-ctrl at the same offered
//! load.
//!
//! ```text
//! cargo run --example secure_object_store
//! ```

use dcs_ctrl::bench::{fig12::workload_table, Report};
use dcs_ctrl::host::job::{D2dJob, D2dOp};
use dcs_ctrl::ndp::NdpFunction;
use dcs_ctrl::nic::TcpFlow;
use dcs_ctrl::sim::time;
use dcs_ctrl::workloads::gen::SizeDistribution;
use dcs_ctrl::workloads::scenario::{
    start_scenario_with_app, DesignUnderTest, Request, ScenarioConfig, ScenarioOutcome, Testbed,
    TestbedConfig,
};
use dcs_ctrl::workloads::WorkloadReport;

fn aes_aux() -> Vec<u8> {
    let mut aux = vec![0x42u8; 32]; // key
    aux.extend([0x17u8; 16]); // nonce
    aux
}

/// The server's CPU bill for the secure mix on `design`.
fn run(design: DesignUnderTest) -> WorkloadReport {
    let mut tb = Testbed::new(design, &TestbedConfig::default());
    tb.sim.run();
    let server = tb.server.clone();
    let client = tb.client.clone();
    let sizes = SizeDistribution {
        max: 512 * 1024,
        ..SizeDistribution::default()
    };
    let mean = sizes.mean_estimate();

    let mut lba = 0u64;
    let window = (4u64 << 30) / 4096;
    let make = Box::new(
        move |rng: &mut dcs_ctrl::sim::Rng, slot: usize, reply_to, next_id: &mut u64| {
            let len = sizes.sample(rng);
            let blocks = (len / 4096) as u64;
            let this_lba = lba;
            lba = (lba + blocks) % window;
            let mut id = || {
                let i = *next_id;
                *next_id += 1;
                i
            };
            // Secure GET: read -> MD5 -> AES encrypt -> send. (Four ops is the
            // D2D command limit; the decrypt+verify runs on the client.)
            let flow = TcpFlow::example(1, 2, 21_000 + slot as u16, 8_200 + slot as u16);
            let server_job = D2dJob {
                id: id(),
                ops: vec![
                    D2dOp::SsdRead {
                        ssd: 0,
                        lba: this_lba,
                        len,
                    },
                    D2dOp::Process {
                        function: NdpFunction::Md5,
                        aux: vec![],
                    },
                    D2dOp::Process {
                        function: NdpFunction::Aes256Encrypt,
                        aux: aes_aux(),
                    },
                    D2dOp::NicSend { flow, seq: 0 },
                ],
                reply_to,
                tag: "kernel-get",
            };
            let client_job = D2dJob {
                id: id(),
                ops: vec![
                    D2dOp::NicRecv {
                        flow: flow.reversed(),
                        len,
                    },
                    D2dOp::Process {
                        function: NdpFunction::Aes256Decrypt,
                        aux: aes_aux(),
                    },
                ],
                reply_to,
                tag: "client",
            };
            Request {
                jobs: vec![
                    (client.submit_to, client_job),
                    (server.submit_to, server_job),
                ],
                bytes: len,
                app_cost_ns: 80_000 + (len / 10) as u64,
                app_tag: "app",
            }
        },
    );

    let scenario = ScenarioConfig {
        duration_ns: time::ms(40),
        warmup_ns: time::ms(10),
        mean_interarrival_ns: mean * 8.0 / 6.0, // ~6 Gbps offered
        slots: 32,
    };
    start_scenario_with_app(
        &mut tb.sim,
        scenario,
        make,
        vec![(server.cpu_key.clone(), server.cores)],
        Some(server.cpu),
    );
    tb.sim.run();
    let outcome = tb.sim.world().expect::<ScenarioOutcome>();
    outcome.reports[&server.cpu_key].clone()
}

fn main() {
    let runs: Vec<_> = DesignUnderTest::FIG12
        .into_iter()
        .map(|d| (d, run(d)))
        .collect();
    let mut r = Report::new(
        "secure_object_store",
        false,
        "Secure object store: GET = SSD -> MD5 -> AES-256 -> NIC",
    );
    let s = r.section("");
    workload_table(
        s,
        "server",
        runs.iter().map(|(d, w)| (d.label().to_string(), w)),
    );
    s.note("Encryption is nearly free on the HDC Engine (AES at 40.9 Gbps per")
        .note("unit, Table III) but costs the baselines a second GPU round trip.");
    print!("{}", r.text());
}
