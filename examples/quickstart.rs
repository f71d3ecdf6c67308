//! Quickstart: one D2D transfer through the HDC Engine.
//!
//! Builds the two-node DCS-ctrl testbed, writes a file onto node A's SSD,
//! and uses the HDC Library's `sendfile` to push it straight from the SSD
//! to the NIC — no host staging, no kernel data path — while node B
//! receives and verifies it.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use dcs_ctrl::bench::{breakdown_rows, Report, BREAKDOWN};
use dcs_ctrl::core::lib_api::Permissions;
use dcs_ctrl::core::{build_dcs_pair, DcsNodeBuilder, FileDesc, HdcLibrary, SocketDesc};
use dcs_ctrl::host::job::{D2dDone, D2dJob, D2dOp};
use dcs_ctrl::ndp::md5::md5;
use dcs_ctrl::nic::{TcpFlow, WireConfig};
use dcs_ctrl::pcie::PhysMemory;
use dcs_ctrl::sim::{Component, ComponentId, Ctx, Msg, Simulator};

/// A tiny application component: submits jobs, prints completions.
struct App;

#[derive(Debug)]
struct Submit {
    to: ComponentId,
    job: D2dJob,
}

impl Component for App {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<Submit>() {
            Ok(Submit { to, job }) => {
                ctx.send_now(to, job);
                return;
            }
            Err(m) => m,
        };
        let done = msg.downcast::<D2dDone>().expect("job completions");
        let mut r = Report::new(
            "quickstart",
            false,
            format!(
                "job {} finished at t={} ok={} ({} payload bytes)",
                done.id,
                ctx.now(),
                done.ok,
                done.payload_len
            ),
        );
        let s = r.section("");
        let anatomy = ctx.world_ref().obs.anatomy(done.id).expect("job traced");
        breakdown_rows(s.table("breakdown", BREAKDOWN), "DCS-ctrl", anatomy);
        if let Some(d) = &done.digest {
            s.note(format!(
                "digest (from the completion record): {}",
                dcs_ctrl::ndp::to_hex(d)
            ));
        }
        println!("{}", r.text());
    }
}

fn main() {
    println!("DCS-ctrl quickstart: SSD -> MD5 (NDP) -> NIC, hardware-controlled\n");

    // 1. Build the two-node testbed: each node has a 6-core host, an
    //    Intel-750-like NVMe SSD, a 10 GbE NIC, and an HDC Engine.
    let mut sim = Simulator::new(2026);
    let (a, b) = build_dcs_pair(
        &mut sim,
        &DcsNodeBuilder::new("alpha"),
        &DcsNodeBuilder::new("beta"),
        WireConfig::default(),
    );
    let app = sim.add("app", App);
    sim.run(); // let device initialization settle
    sim.world_mut().obs.enable(); // record each job's latency anatomy

    // 2. Put a file on alpha's flash.
    let content: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
    sim.world_mut()
        .expect_mut::<PhysMemory>()
        .write(a.ssds[0].lba_addr(100), &content);
    println!(
        "file on alpha's SSD: 64 KiB, md5 {}\n",
        dcs_ctrl::ndp::to_hex(&md5(&content))
    );

    // 3. hdc_sendfile on alpha; a receive job on beta.
    let mut lib = HdcLibrary::new();
    let flow = TcpFlow::example(1, 2, 40_000, 9_000);
    let file = FileDesc {
        ssd: 0,
        base_lba: 100,
        len: content.len() as u64,
        perms: Permissions::RO,
    };
    let socket = SocketDesc {
        flow,
        seq: 0,
        perms: Permissions::RW,
    };
    let send = lib
        .sendfile_processed(
            &file,
            &socket,
            0,
            content.len(),
            Some((dcs_ctrl::ndp::NdpFunction::Md5, vec![])),
            app,
            "quickstart",
        )
        .expect("valid descriptors");
    let recv = D2dJob {
        id: 999,
        ops: vec![
            D2dOp::NicRecv {
                flow: flow.reversed(),
                len: content.len(),
            },
            D2dOp::Process {
                function: dcs_ctrl::ndp::NdpFunction::Md5,
                aux: vec![],
            },
        ],
        reply_to: app,
        tag: "quickstart",
    };
    sim.kickoff(
        app,
        Submit {
            to: b.driver,
            job: recv,
        },
    );
    sim.kickoff(
        app,
        Submit {
            to: a.driver,
            job: send,
        },
    );

    // 4. Run to completion.
    sim.run();
    println!("\nsimulated time: {}", sim.now());
    println!(
        "wire frames: {}, drops: {}",
        sim.world().stats.counter_value("wire.frames"),
        sim.world().stats.counter_value("nic.rx_dropped_no_buffer"),
    );
    println!("\nBoth digests above match the file's MD5: the bytes that crossed the");
    println!("fabric are the bytes on flash, and no host CPU touched the data path.");
}
