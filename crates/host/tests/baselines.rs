//! End-to-end tests of the baseline designs (Linux / SwOpt / SwP2p):
//! the same D2D jobs the HDC Engine runs, executed by host software over
//! identical device models.

use dcs_host::job::{D2dDone, D2dJob, D2dOp};
use dcs_host::{build_pair, CpuStats, HostNode, HostNodeBuilder, SwDesign};
use dcs_ndp::{md5::md5, NdpFunction};
use dcs_nic::{TcpFlow, WireConfig};
use dcs_pcie::PhysMemory;
use dcs_sim::{time, Anatomy, Category, Component, ComponentId, Ctx, Msg, SimTime, Simulator};

#[derive(Default, Debug)]
struct Inbox(Vec<D2dDone>);

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
        let done = msg
            .downcast::<D2dDone>()
            .expect("app receives job completions");
        ctx.world().stats.counter("app.done").add(1);
        if done.ok {
            ctx.world().stats.counter("app.ok").add(1);
        }
        if ctx.world().get::<Inbox>().is_none() {
            ctx.world().insert(Inbox::default());
        }
        ctx.world().expect_mut::<Inbox>().0.push(done);
    }
}

struct Rig {
    sim: Simulator,
    a: HostNode,
    b: HostNode,
    app: ComponentId,
}

fn setup(design: SwDesign) -> Rig {
    setup_with(|name| HostNodeBuilder::new(name, design))
}

fn setup_with(builder: impl Fn(&str) -> HostNodeBuilder) -> Rig {
    let mut sim = Simulator::new(9);
    sim.world_mut().obs.enable();
    let (a, b) = build_pair(
        &mut sim,
        &builder("alpha"),
        &builder("beta"),
        WireConfig::default(),
    );
    let app = sim.add("app", App);
    sim.run();
    Rig { sim, a, b, app }
}

fn run_read_hash_send(design: SwDesign) -> (Rig, D2dDone) {
    let mut rig = setup(design);
    let len = 16 * 1024;
    let payload: Vec<u8> = (0..len).map(|i| (i * 11 % 250) as u8).collect();
    rig.sim
        .world_mut()
        .expect_mut::<PhysMemory>()
        .write(rig.a.ssds[0].lba_addr(40), &payload);
    let job = D2dJob {
        id: 1,
        ops: vec![
            D2dOp::SsdRead {
                ssd: 0,
                lba: 40,
                len,
            },
            D2dOp::Process {
                function: NdpFunction::Md5,
                aux: vec![],
            },
            D2dOp::NicSend {
                flow: TcpFlow::example(1, 2, 40_000, 9000),
                seq: 0,
            },
        ],
        reply_to: rig.app,
        tag: "micro",
    };
    rig.sim.kickoff(
        rig.app,
        Submit {
            to: rig.a.executor,
            job,
        },
    );
    rig.sim.run();
    assert_eq!(
        rig.sim.world().stats.counter_value("app.ok"),
        1,
        "{design:?}"
    );
    let done = rig
        .sim
        .world()
        .expect::<Inbox>()
        .0
        .last()
        .expect("one result")
        .clone();
    // Digest correctness regardless of design.
    assert_eq!(
        done.digest.as_deref(),
        Some(md5(&payload).as_slice()),
        "{design:?}"
    );
    (rig, done)
}

/// Job `id`'s recorded latency anatomy.
fn anatomy(sim: &Simulator, id: u64) -> &Anatomy {
    sim.world().obs.anatomy(id).expect("job traced")
}

#[test]
fn swopt_read_hash_send_works_and_accounts_gpu() {
    let (rig, done) = run_read_hash_send(SwDesign::SwOpt);
    let bd = anatomy(&rig.sim, done.id);
    assert!(
        bd.category_ns(Category::GpuControl) > 0,
        "gpu control must appear"
    );
    assert!(
        bd.category_ns(Category::GpuCopy) > 0,
        "host->gpu copy must appear"
    );
    assert!(bd.category_ns(Category::Read) > time::us(10));
    assert!(bd.category_ns(Category::DeviceControl) > 0);
    // CPU accounting exists for the node.
    let stats = rig.sim.world().expect::<CpuStats>();
    assert!(stats.pool("alpha").unwrap().tracker.total_busy() > 0);
}

#[test]
fn linux_costs_more_cpu_than_swopt() {
    let (rig_linux, _) = run_read_hash_send(SwDesign::Linux);
    let (rig_opt, _) = run_read_hash_send(SwDesign::SwOpt);
    let busy = |rig: &Rig| {
        rig.sim
            .world()
            .expect::<CpuStats>()
            .pool("alpha")
            .unwrap()
            .tracker
            .total_busy()
    };
    assert!(
        busy(&rig_linux) > busy(&rig_opt),
        "vanilla kernel must burn more CPU: {} vs {}",
        busy(&rig_linux),
        busy(&rig_opt)
    );
}

#[test]
fn swp2p_reduces_gpu_copy_latency_vs_swopt() {
    let (rig_opt, done_opt) = run_read_hash_send(SwDesign::SwOpt);
    let (rig_p2p, done_p2p) = run_read_hash_send(SwDesign::SwP2p);
    let opt = anatomy(&rig_opt.sim, done_opt.id);
    let p2p = anatomy(&rig_p2p.sim, done_p2p.id);
    // P2P reads straight into GPU memory: the explicit host->GPU staging
    // copy disappears (digest read-back may keep a sliver).
    assert!(
        p2p.category_ns(Category::GpuCopy) < opt.category_ns(Category::GpuCopy),
        "p2p {} vs opt {}",
        p2p.category_ns(Category::GpuCopy),
        opt.category_ns(Category::GpuCopy)
    );
    // And total latency drops.
    assert!(p2p.total_ns() < opt.total_ns());
}

#[test]
fn send_and_receive_across_nodes_via_baselines() {
    let mut rig = setup(SwDesign::SwOpt);
    let len = 32 * 1024;
    let payload: Vec<u8> = (0..len).map(|i| (i % 241) as u8).collect();
    rig.sim
        .world_mut()
        .expect_mut::<PhysMemory>()
        .write(rig.a.ssds[0].lba_addr(0), &payload);
    let flow = TcpFlow::example(1, 2, 50_000, 9100);
    let send = D2dJob {
        id: 1,
        ops: vec![
            D2dOp::SsdRead {
                ssd: 0,
                lba: 0,
                len,
            },
            D2dOp::NicSend { flow, seq: 0 },
        ],
        reply_to: rig.app,
        tag: "send",
    };
    let recv = D2dJob {
        id: 2,
        ops: vec![
            D2dOp::NicRecv {
                flow: flow.reversed(),
                len,
            },
            D2dOp::Process {
                function: NdpFunction::Crc32,
                aux: vec![],
            },
            D2dOp::SsdWrite { ssd: 0, lba: 600 },
        ],
        reply_to: rig.app,
        tag: "recv",
    };
    rig.sim.kickoff(
        rig.app,
        Submit {
            to: rig.b.executor,
            job: recv,
        },
    );
    rig.sim.kickoff(
        rig.app,
        Submit {
            to: rig.a.executor,
            job: send,
        },
    );
    rig.sim.run();
    assert_eq!(rig.sim.world().stats.counter_value("app.ok"), 2);
    let on_b = rig
        .sim
        .world()
        .expect::<PhysMemory>()
        .read(rig.b.ssds[0].lba_addr(600), len);
    assert_eq!(
        on_b, payload,
        "payload must land intact on the remote flash"
    );
    // The receive side's CRC digest matches a direct computation.
    let crc = dcs_ndp::crc32::crc32(&payload).to_be_bytes();
    let inbox = rig.sim.world().expect::<Inbox>();
    let recv_done = inbox.0.iter().find(|d| d.id == 2).expect("recv completion");
    assert_eq!(recv_done.digest.as_deref(), Some(crc.as_slice()));
}

/// A job numbered `n` that reports to `app`.
fn job(n: usize, ops: Vec<D2dOp>, app: ComponentId) -> D2dJob {
    D2dJob {
        id: n as u64,
        ops,
        reply_to: app,
        tag: "large-transfer",
    }
}

/// Non-zero pattern bytes, distinct per flow.
fn pattern(len: usize, flow: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 131 + flow * 71) % 255) as u8 + 1)
        .collect()
}

#[test]
fn large_receive_on_two_concurrent_flows_lands_byte_identical() {
    // Through the software NIC driver: hundreds of frames per flow,
    // interleaved on the wire, gathered out of the driver's reassembly
    // buffers into host memory and written to B's flash.
    //
    // One core per node: `HostNicDriver` charges each receive batch's
    // protocol processing as its own CPU job, and on several cores a
    // short batch can finish before a longer, earlier one and reach the
    // flow first (the model does not serialize them the way a per-queue
    // softirq would). One core keeps the batches in ring order.
    let mut rig = setup_with(|name| HostNodeBuilder {
        cores: 1,
        ..HostNodeBuilder::new(name, SwDesign::SwP2p)
    });
    let len = 3 << 19;
    let flows = [
        TcpFlow::example(1, 2, 51_000, 9400),
        TcpFlow::example(1, 2, 51_001, 9401),
    ];
    let (src_lba, dst_lba) = ([0u64, 4096], [20_000u64, 24_096]);
    // Each flow carries 1.5 MiB in two sends, received by two jobs whose
    // boundary falls inside a frame. The first MiB arrives before any
    // receive is posted; the first job then drains 896 KiB of that
    // backlog, and the second send lands in the freed front of the
    // reassembly ring, so the second job gathers across its wrap.
    let t0 = rig.sim.now();
    let later = |n: u64| t0 + n * time::ms(20);
    let mut jobs: Vec<(SimTime, ComponentId, D2dJob)> = Vec::new();
    for (k, flow) in flows.iter().enumerate() {
        rig.sim
            .world_mut()
            .expect_mut::<PhysMemory>()
            .write(rig.a.ssds[0].lba_addr(src_lba[k]), &pattern(len, k));
        // (when, first byte, bytes) of each send and each receive.
        let sends = [
            (later(0), 0usize, 1usize << 20),
            (later(1), 1 << 20, 1 << 19),
        ];
        let recvs = [
            (later(1), 0usize, 896usize << 10),
            (later(2), 896 << 10, 640 << 10),
        ];
        for (at, offset, part) in sends {
            let ops = vec![
                D2dOp::SsdRead {
                    ssd: 0,
                    lba: src_lba[k] + (offset / 4096) as u64,
                    len: part,
                },
                D2dOp::NicSend {
                    flow: *flow,
                    seq: offset as u32,
                },
            ];
            jobs.push((at, rig.a.executor, job(jobs.len(), ops, rig.app)));
        }
        for (at, offset, part) in recvs {
            let ops = vec![
                D2dOp::NicRecv {
                    flow: flow.reversed(),
                    len: part,
                },
                D2dOp::SsdWrite {
                    ssd: 0,
                    lba: dst_lba[k] + (offset / 4096) as u64,
                },
            ];
            jobs.push((at, rig.b.executor, job(jobs.len(), ops, rig.app)));
        }
    }
    let count = jobs.len() as u64;
    for (at, to, job) in jobs {
        rig.sim.schedule_at(at, rig.app, Submit { to, job });
    }
    rig.sim.run();
    assert_eq!(rig.sim.world().stats.counter_value("app.ok"), count);
    for (k, lba) in dst_lba.into_iter().enumerate() {
        let on_b = rig
            .sim
            .world()
            .expect::<PhysMemory>()
            .read(rig.b.ssds[0].lba_addr(lba), len);
        assert!(on_b == pattern(len, k), "flow {k}: payload corrupted");
    }
}

#[test]
fn cpu_hash_fallback_when_no_gpu() {
    let mut sim = Simulator::new(3);
    sim.world_mut().obs.enable();
    let mut builder = HostNodeBuilder::new("alpha", SwDesign::SwOpt);
    builder.gpu = false;
    let (a, _b) = build_pair(
        &mut sim,
        &builder,
        &HostNodeBuilder::new("beta", SwDesign::SwOpt),
        WireConfig::default(),
    );
    let app = sim.add("app", App);
    sim.run();
    let len = 8192;
    let payload = vec![7u8; len];
    sim.world_mut()
        .expect_mut::<PhysMemory>()
        .write(a.ssds[0].lba_addr(0), &payload);
    let job = D2dJob {
        id: 5,
        ops: vec![
            D2dOp::SsdRead {
                ssd: 0,
                lba: 0,
                len,
            },
            D2dOp::Process {
                function: NdpFunction::Md5,
                aux: vec![],
            },
        ],
        reply_to: app,
        tag: "cpu-hash",
    };
    sim.kickoff(
        app,
        Submit {
            to: a.executor,
            job,
        },
    );
    sim.run();
    assert_eq!(sim.world().stats.counter_value("app.ok"), 1);
    let inbox = sim.world().expect::<Inbox>();
    assert_eq!(inbox.0[0].digest.as_deref(), Some(md5(&payload).as_slice()));
    // Hash time charged to the CPU.
    let bd = anatomy(&sim, inbox.0[0].id);
    assert!(bd.category_ns(Category::Hash) > 0);
    assert_eq!(bd.category_ns(Category::GpuControl), 0);
}

#[test]
fn failed_device_op_propagates_not_ok() {
    let mut rig = setup(SwDesign::SwOpt);
    let job = D2dJob {
        id: 9,
        ops: vec![D2dOp::SsdRead {
            ssd: 0,
            lba: u64::MAX / 8192,
            len: 4096,
        }],
        reply_to: rig.app,
        tag: "bad",
    };
    rig.sim.kickoff(
        rig.app,
        Submit {
            to: rig.a.executor,
            job,
        },
    );
    rig.sim.run();
    assert_eq!(rig.sim.world().stats.counter_value("app.done"), 1);
    assert_eq!(rig.sim.world().stats.counter_value("app.ok"), 0);
}
