//! The job-shape differential oracle. Valid chains of up to
//! `D2dJob::MAX_OPS` ops run on all four `Testbed` designs and must match
//! a pure fold of `NdpFunction::apply`: `ok`, the digest, the payload
//! length, the flash bytes at the sink LBA and the bytes the peer
//! received. Runtime failures are in the enumeration too: every chain
//! that GZIP-decompresses bytes that are no GZIP stream must end with
//! `ok = false` and leave its sink unwritten. Every invalid shape of the
//! job contract must fail at submission on every design and touch no
//! device.
//!
//! Each chain runs alone on its design's testbed (with the client job
//! that feeds or drains it), so a mismatch belongs to its shape. A
//! failure lists every mismatch with its shape, size and design.

use dcs_ctrl::host::job::{D2dDone, D2dJob, D2dOp, JobError};
use dcs_ctrl::ndp::{md5::md5, NdpFunction};
use dcs_ctrl::nic::TcpFlow;
use dcs_ctrl::nvme::LBA_SIZE;
use dcs_ctrl::pcie::PhysMemory;
use dcs_ctrl::sim::{Component, ComponentId, Ctx, Msg};
use dcs_ctrl::workloads::scenario::{DesignUnderTest, Testbed, TestbedConfig};

const ALL: [DesignUnderTest; 4] = [
    DesignUnderTest::Linux,
    DesignUnderTest::SwOpt,
    DesignUnderTest::SwP2p,
    DesignUnderTest::DcsCtrl,
];

/// One LBA, and one LBA either side of the engine's 64 KiB chunk.
const SMALL: [usize; 3] = [4096, 60 * 1024, 68 * 1024];
/// The NVMe max transfer.
const MAX_TRANSFER: usize = 1 << 20;

/// Where a sink writes: past the largest source extent at LBA 0.
const SINK_LBA: u64 = 1024;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Source {
    Ssd,
    Mem,
    Nic,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Sink {
    Write,
    Send,
}

/// A valid chain: a source, up to two `Process` steps, then sinks.
#[derive(Clone, Debug)]
struct Shape {
    source: Source,
    steps: Vec<NdpFunction>,
    sinks: Vec<Sink>,
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self.source {
            Source::Ssd => "ssd-read",
            Source::Mem => "mem-read",
            Source::Nic => "nic-recv",
        })?;
        for s in &self.steps {
            write!(f, " → {s}")?;
        }
        for s in &self.sinks {
            f.write_str(match s {
                Sink::Write => " → ssd-write",
                Sink::Send => " → nic-send",
            })?;
        }
        Ok(())
    }
}

/// Every valid chain of up to `D2dJob::MAX_OPS` ops whose steps are at
/// most `max_steps` of `functions`.
fn shapes(functions: &[NdpFunction], max_steps: usize) -> Vec<Shape> {
    let sinks = [
        vec![],
        vec![Sink::Write],
        vec![Sink::Send],
        vec![Sink::Write, Sink::Send],
        vec![Sink::Send, Sink::Write],
    ];
    let mut steps: Vec<Vec<NdpFunction>> = vec![vec![]];
    let mut last = steps.clone();
    for _ in 0..max_steps {
        last = last
            .iter()
            .flat_map(|s| {
                functions
                    .iter()
                    .map(move |&f| [s.as_slice(), &[f]].concat())
            })
            .collect();
        steps.extend(last.iter().cloned());
    }
    let mut out = Vec::new();
    for source in [Source::Ssd, Source::Mem, Source::Nic] {
        for st in &steps {
            for sk in &sinks {
                if 1 + st.len() + sk.len() <= D2dJob::MAX_OPS {
                    out.push(Shape {
                        source,
                        steps: st.clone(),
                        sinks: sk.clone(),
                    });
                }
            }
        }
    }
    out
}

/// The chains each size runs. Every chain runs at one LBA, where the
/// functions and their order are what varies. Past it the data path
/// varies instead (engine chunks, NVMe splits, LSO) and a run costs per
/// byte, so either side of the chunk every chain of at most one step
/// runs, and at the max transfer every chain of at most one digest,
/// length-keeping or shrinking transform with no sink or both sinks (in
/// either order, so each sink is once last). That keeps the oracle well
/// inside its tier-1 budget of 10 s.
fn plan() -> Vec<(usize, Vec<Shape>)> {
    let one_of_each_class = [
        NdpFunction::Md5,
        NdpFunction::Aes256Encrypt,
        NdpFunction::GzipCompress,
    ];
    let mut at_max_transfer = shapes(&one_of_each_class, 1);
    at_max_transfer.retain(|s| s.sinks.len() != 1);
    vec![
        (SMALL[0], shapes(&NdpFunction::ALL, 2)),
        (SMALL[1], shapes(&NdpFunction::ALL, 1)),
        (SMALL[2], shapes(&NdpFunction::ALL, 1)),
        (MAX_TRANSFER, at_max_transfer),
    ]
}

/// A valid aux block for step `at` running `f`: AES takes a 32-byte key
/// and a 16-byte nonce, the rest nothing. Each step gets its own key, so
/// a step that runs with another's aux shows.
fn aux(f: NdpFunction, at: usize) -> Vec<u8> {
    match f {
        NdpFunction::Aes256Encrypt | NdpFunction::Aes256Decrypt => {
            (0..48u8).map(|i| i ^ (at as u8 * 0x55)).collect()
        }
        _ => vec![],
    }
}

/// The server's flash bytes at LBA 0, which `SsdRead` reads.
fn server_bytes(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 131 % 251) as u8).collect()
}

/// The client's flash bytes at LBA 0, which it sends to a `NicRecv`.
fn client_bytes(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 7 % 253) as u8 ^ 0x3c).collect()
}

/// What a job must report: the pure fold of `NdpFunction::apply` over
/// the source bytes, ending at the first failed step.
struct Expected {
    ok: bool,
    digest: Option<Vec<u8>>,
    payload: Vec<u8>,
}

fn fold(shape: &Shape, len: usize) -> Expected {
    let mut payload = match shape.source {
        Source::Ssd => server_bytes(len),
        Source::Mem => vec![0; len],
        Source::Nic => client_bytes(len),
    };
    let mut digest = None;
    for (at, &f) in shape.steps.iter().enumerate() {
        let Ok(out) = f.apply(&payload, &aux(f, at)) else {
            return Expected {
                ok: false,
                digest: None,
                payload: vec![],
            };
        };
        digest = out.digest.or(digest);
        payload = out.data.unwrap_or(payload);
    }
    Expected {
        ok: true,
        digest,
        payload,
    }
}

/// ROADMAP item 9: a multi-core software receiver delivers a large
/// receive's batches out of ring order, so on the SW designs every 1 MiB
/// chain that receives (a `NicRecv` source, or a peer draining a
/// `NicSend`) computes over reordered bytes. Those runs compare `ok`
/// only, and the test fails once none of them diverges any more, so the
/// exemption leaves with the fix.
fn ring_order_exempt(design: DesignUnderTest, len: usize, shape: &Shape) -> bool {
    design != DesignUnderTest::DcsCtrl
        && len == MAX_TRANSFER
        && (shape.source == Source::Nic || shape.sinks.contains(&Sink::Send))
}

#[derive(Default, Debug)]
struct Inbox(Vec<D2dDone>);

#[derive(Debug)]
struct Submit(Vec<(ComponentId, D2dJob)>);

/// Submits jobs and collects every completion into the world's [`Inbox`].
struct App;

impl Component for App {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<Submit>() {
            Ok(Submit(jobs)) => {
                for (to, job) in jobs {
                    ctx.send_now(to, job);
                }
                return;
            }
            Err(m) => m,
        };
        let done = msg.downcast::<D2dDone>().expect("completions");
        ctx.world().expect_mut::<Inbox>().0.push(done);
    }
}

/// A testbed with the source bytes on both nodes' flash and a
/// completion collector.
struct Bench {
    tb: Testbed,
    app: ComponentId,
    next_id: u64,
    next_port: u16,
}

impl Bench {
    fn new(design: DesignUnderTest, len: usize) -> Bench {
        let mut tb = Testbed::new(design, &TestbedConfig::default());
        let app = tb.sim.add("app", App);
        tb.sim.world_mut().insert(Inbox::default());
        tb.sim.run();
        let (server, client) = (tb.server.ssds[0].lba_addr(0), tb.client.ssds[0].lba_addr(0));
        let mem = tb.sim.world_mut().expect_mut::<PhysMemory>();
        mem.write(server, &server_bytes(len));
        mem.write(client, &client_bytes(len));
        Bench {
            tb,
            app,
            next_id: 1,
            next_port: 1024,
        }
    }

    fn job(&mut self, ops: Vec<D2dOp>) -> D2dJob {
        let id = self.next_id;
        self.next_id += 1;
        D2dJob {
            id,
            ops,
            reply_to: self.app,
            tag: "shape",
        }
    }

    /// A fresh connection, as its sender transmits on it.
    fn flow(&mut self) -> TcpFlow {
        let port = self.next_port;
        self.next_port += 1;
        TcpFlow::example(1, 2, port, port)
    }

    /// Runs `jobs` to idle and returns their completions.
    fn run(&mut self, jobs: Vec<(ComponentId, D2dJob)>) -> Vec<D2dDone> {
        self.tb.sim.kickoff(self.app, Submit(jobs));
        self.tb.sim.run();
        std::mem::take(&mut self.tb.sim.world_mut().expect_mut::<Inbox>().0)
    }

    /// The server's flash blocks covering `len` bytes at `lba`, left
    /// zero for the next chain.
    fn take_flash(&mut self, lba: u64, len: usize) -> Vec<u8> {
        let addr = self.tb.server.ssds[0].lba_addr(lba);
        let blocks = len.div_ceil(LBA_SIZE as usize) * LBA_SIZE as usize;
        let mem = self.tb.sim.world_mut().expect_mut::<PhysMemory>();
        mem.take(addr, blocks)
    }

    /// Runs `shape` on `len` source bytes with the client jobs that feed
    /// and drain it; returns how its result differs from `e`.
    fn mismatches(&mut self, shape: &Shape, len: usize, e: &Expected) -> Vec<String> {
        let (server, client) = (self.tb.server.submit_to, self.tb.client.submit_to);
        let mut jobs = Vec::new();
        let mut ops = vec![match shape.source {
            Source::Ssd => D2dOp::SsdRead {
                ssd: 0,
                lba: 0,
                len,
            },
            Source::Mem => D2dOp::MemRead { len },
            Source::Nic => {
                let flow = self.flow();
                let feed = vec![
                    D2dOp::SsdRead {
                        ssd: 0,
                        lba: 0,
                        len,
                    },
                    D2dOp::NicSend { flow, seq: 0 },
                ];
                jobs.push((client, self.job(feed)));
                D2dOp::NicRecv {
                    flow: flow.reversed(),
                    len,
                }
            }
        }];
        ops.extend(
            shape
                .steps
                .iter()
                .enumerate()
                .map(|(at, &function)| D2dOp::Process {
                    function,
                    aux: aux(function, at),
                }),
        );
        let mut peer = None;
        for sink in &shape.sinks {
            ops.push(match sink {
                Sink::Write => D2dOp::SsdWrite {
                    ssd: 0,
                    lba: SINK_LBA,
                },
                Sink::Send => {
                    let flow = self.flow();
                    if e.ok {
                        let drain = vec![
                            D2dOp::NicRecv {
                                flow: flow.reversed(),
                                len: e.payload.len(),
                            },
                            D2dOp::Process {
                                function: NdpFunction::Md5,
                                aux: vec![],
                            },
                        ];
                        let job = self.job(drain);
                        peer = Some(job.id);
                        jobs.push((client, job));
                    }
                    D2dOp::NicSend { flow, seq: 0 }
                }
            });
        }
        let job = self.job(ops);
        assert_eq!(job.check(), Ok(()), "{shape} is a valid shape");
        let id = job.id;
        jobs.push((server, job));
        let done = self.run(jobs);

        let Some(d) = done.iter().find(|d| d.id == id) else {
            return vec!["no completion".into()];
        };
        let mut out = Vec::new();
        if d.ok != e.ok {
            out.push(format!("ok = {}, oracle {}", d.ok, e.ok));
        }
        if e.ok && d.ok {
            if d.payload_len != e.payload.len() {
                out.push(format!(
                    "payload_len {} != oracle {}",
                    d.payload_len,
                    e.payload.len()
                ));
            }
            if d.digest != e.digest {
                out.push("digest differs from the oracle".into());
            }
        }
        if shape.sinks.contains(&Sink::Write) {
            // Past the payload the last block is zero padding; a failed
            // job leaves the sink unwritten.
            let flash = self.take_flash(SINK_LBA, e.payload.len().max(len));
            let (payload, rest) = flash.split_at(e.payload.len());
            if payload != e.payload {
                let same = payload.iter().zip(&e.payload).take_while(|(a, b)| a == b);
                out.push(format!(
                    "flash at the sink differs from the oracle (first {} bytes match)",
                    same.count()
                ));
            }
            if rest.iter().any(|&x| x != 0) {
                out.push(
                    if e.ok {
                        "stale bytes pad the last block"
                    } else {
                        "a failed job wrote the sink"
                    }
                    .into(),
                );
            }
        }
        if let Some(peer) = peer {
            match done.iter().find(|d| d.id == peer) {
                Some(r) if r.ok && r.digest.as_deref() == Some(&md5(&e.payload)[..]) => {}
                Some(_) => out.push("the peer received other bytes".into()),
                None => out.push("the peer never received the payload".into()),
            }
        }
        out
    }
}

/// Every valid chain at every size: the full sweep (about 2 minutes in
/// the test profile).
fn full_plan() -> Vec<(usize, Vec<Shape>)> {
    SMALL
        .into_iter()
        .chain([MAX_TRANSFER])
        .map(|len| (len, shapes(&NdpFunction::ALL, 2)))
        .collect()
}

/// Runs `plan` on `design` and asserts every run matches the oracle.
fn check_design(design: DesignUnderTest, plan: Vec<(usize, Vec<Shape>)>) {
    let mut failures = Vec::new();
    let (mut runs, mut exempt_diverged) = (0, 0);
    for (len, shapes) in plan {
        let mut b = Bench::new(design, len);
        for shape in &shapes {
            runs += 1;
            let found = b.mismatches(shape, len, &fold(shape, len));
            if ring_order_exempt(design, len, shape) {
                exempt_diverged += usize::from(!found.is_empty());
                if found.iter().all(|m| !m.starts_with("ok =")) {
                    continue;
                }
            }
            failures.extend(
                found
                    .into_iter()
                    .map(|m| format!("{design}: {shape} at {len} B: {m}")),
            );
        }
    }
    assert!(
        failures.is_empty(),
        "{} mismatches with the oracle over {runs} runs:\n{}",
        failures.len(),
        failures.join("\n")
    );
    if design != DesignUnderTest::DcsCtrl {
        assert!(
            exempt_diverged > 0,
            "{design}: no 1 MiB receive diverged; if ROADMAP item 9 is fixed, \
             drop `ring_order_exempt`"
        );
    }
}

#[test]
#[ignore = "the full sweep takes about 2 minutes; CI runs it with --ignored"]
fn every_design_matches_the_oracle_on_every_shape_at_every_size() {
    for design in ALL {
        check_design(design, full_plan());
    }
}

#[test]
fn the_plan_covers_every_chain_at_one_lba() {
    let plan = plan();
    // 3 sources × (5 sink lists with no step, 5 with one of 8 steps,
    // 3 with two of 64).
    assert_eq!(plan[0].1.len(), 3 * (5 + 8 * 5 + 64 * 3));
    assert_eq!(plan[1].1.len(), 3 * (5 + 8 * 5));
    assert_eq!(plan[3].1.len(), 3 * (3 + 3 * 3));
}

#[test]
fn linux_matches_the_oracle_on_every_shape() {
    check_design(DesignUnderTest::Linux, plan());
}

#[test]
fn sw_opt_matches_the_oracle_on_every_shape() {
    check_design(DesignUnderTest::SwOpt, plan());
}

#[test]
fn sw_p2p_matches_the_oracle_on_every_shape() {
    check_design(DesignUnderTest::SwP2p, plan());
}

#[test]
fn dcs_ctrl_matches_the_oracle_on_every_shape() {
    check_design(DesignUnderTest::DcsCtrl, plan());
}

fn read(ssd: usize, lba: u64, len: usize) -> D2dOp {
    D2dOp::SsdRead { ssd, lba, len }
}

fn step(function: NdpFunction, aux: Vec<u8>) -> D2dOp {
    D2dOp::Process { function, aux }
}

fn md5_step() -> D2dOp {
    step(NdpFunction::Md5, vec![])
}

/// The jobs the contract rejects, each with the error `check` names.
fn invalid_jobs() -> Vec<(&'static str, Vec<D2dOp>, JobError)> {
    let crc = || step(NdpFunction::Crc32, vec![]);
    let aes = |len| step(NdpFunction::Aes256Encrypt, vec![7; len]);
    let write = D2dOp::SsdWrite { ssd: 0, lba: 8 };
    vec![
        (
            "5 ops",
            vec![read(0, 0, 4096), crc(), crc(), crc(), write.clone()],
            JobError::OpCount(5),
        ),
        (
            "AES-256 with an 80 B aux",
            vec![read(0, 0, 4096), aes(80)],
            JobError::AuxSlot(1, 80),
        ),
        ("no ops", vec![], JobError::OpCount(0)),
        ("SsdWrite with no source", vec![write], JobError::NoSource),
        ("MD5 with no source", vec![md5_step()], JobError::NoSource),
        (
            "SsdRead of 6,000 B",
            vec![read(0, 0, 6000), md5_step()],
            JobError::Unaligned(0, 6000),
        ),
        (
            "lba = 2^48",
            vec![read(0, 1 << 48, 4096), md5_step()],
            JobError::Field(0, "lba"),
        ),
        (
            "SsdRead 4 KiB → MemRead 1 MiB → MD5",
            vec![
                read(0, 0, 4096),
                D2dOp::MemRead { len: 1 << 20 },
                md5_step(),
            ],
            JobError::LateSource(1),
        ),
        (
            "ssd = 256",
            vec![read(256, 0, 4096), md5_step()],
            JobError::Field(0, "ssd"),
        ),
        (
            "MemRead of 4 GiB",
            vec![D2dOp::MemRead { len: 1 << 32 }, md5_step()],
            JobError::Field(0, "len"),
        ),
    ]
}

/// Device work on either node: one of these moving means a job reached a
/// device (the last one, the engine admitting a command, only on
/// DCS-ctrl).
const DEVICE_COUNTERS: [&str; 4] = [
    "nvme.completions",
    "nic.tx_frames",
    "gpu.kernels",
    "hdc.cmds_admitted",
];

fn device_ops(b: &Bench) -> Vec<u64> {
    let stats = &b.tb.sim.world().stats;
    DEVICE_COUNTERS
        .iter()
        .map(|c| stats.counter_value(c))
        .collect()
}

#[test]
fn every_design_rejects_an_invalid_job_at_submission() {
    for design in ALL {
        let mut b = Bench::new(design, 4096);
        let server = b.tb.server.submit_to;
        for (name, ops, error) in invalid_jobs() {
            let job = b.job(ops);
            assert_eq!(job.check(), Err(error), "{name}");
            let (id, t0, before) = (job.id, b.tb.sim.now(), device_ops(&b));
            let done = b.run(vec![(server, job)]);
            assert_eq!(done.len(), 1, "{design}: {name}: one completion");
            let d = &done[0];
            assert!(
                d.id == id && !d.ok && d.digest.is_none() && d.payload_len == 0,
                "{design}: {name}: {d:?}"
            );
            assert_eq!(
                b.tb.sim.now(),
                t0,
                "{design}: {name}: rejected at submission, with no CPU or device work"
            );
            assert_eq!(device_ops(&b), before, "{design}: {name}: no device op");
        }
    }
}

#[test]
fn every_design_fails_a_job_naming_a_missing_ssd_without_device_work() {
    // The SSD count is a node resource, not job shape: the contract
    // passes the job and each executor fails it.
    for design in ALL {
        let mut b = Bench::new(design, 4096);
        let server = b.tb.server.submit_to;
        let job = b.job(vec![read(3, 0, 4096), md5_step()]);
        assert_eq!(job.check(), Ok(()));
        let before = device_ops(&b);
        let done = b.run(vec![(server, job)]);
        assert_eq!(done.len(), 1, "{design}");
        assert!(!done[0].ok, "{design}: ssd = 3 does not exist");
        assert_eq!(device_ops(&b), before, "{design}: no device op");
    }
}

#[test]
fn mem_read_yields_zeros_in_a_reused_staging_slot() {
    // A slot's earlier bytes must not leak into a later `MemRead`: one
    // SSD read of 0x5a, then enough `MemRead`s to bring the SW
    // executor's 64 staging slots back round to the first.
    let zeros = md5(&[0u8; 4096]).to_vec();
    for design in ALL {
        let mut b = Bench::new(design, 4096);
        let server = b.tb.server.submit_to;
        let addr = b.tb.server.ssds[0].lba_addr(16);
        let mem = b.tb.sim.world_mut().expect_mut::<PhysMemory>();
        mem.write(addr, &[0x5a; 4096]);
        let first = b.job(vec![read(0, 16, 4096), md5_step()]);
        let done = b.run(vec![(server, first)]);
        assert_eq!(done[0].digest.as_deref(), Some(&md5(&[0x5a; 4096])[..]));
        let hits = (0..64)
            .map(|_| {
                (
                    server,
                    b.job(vec![D2dOp::MemRead { len: 4096 }, md5_step()]),
                )
            })
            .collect();
        for d in b.run(hits) {
            assert!(d.ok, "{design}: job {}", d.id);
            assert_eq!(d.digest.as_ref(), Some(&zeros), "{design}: job {}", d.id);
        }
    }
}

#[test]
fn dcs_ctrl_receive_buffers_stay_out_of_the_pipeline_pool() {
    // The engine's receive ring has one slot more than it posts, and each
    // slot owns a frame buffer. The first job's pipeline buffer opens the
    // pool, so a 1,150-frame stream through a fresh ring (past slot
    // 1,024) must not land a raw frame on that job's payload.
    let mut b = Bench::new(DesignUnderTest::DcsCtrl, MAX_TRANSFER);
    let (server, client) = (b.tb.server.submit_to, b.tb.client.submit_to);
    let (first, second) = (b.flow(), b.flow());
    let recv = |flow: TcpFlow, len| {
        vec![
            D2dOp::NicRecv {
                flow: flow.reversed(),
                len,
            },
            md5_step(),
        ]
    };
    let send = |flow, len| vec![read(0, 0, len), D2dOp::NicSend { flow, seq: 0 }];
    let (len_a, len_b) = (MAX_TRANSFER, 600 * 1024);
    let jobs = vec![
        (server, b.job(recv(first, len_a))),
        (server, b.job(recv(second, len_b))),
        (client, b.job(send(second, len_b))),
        (client, b.job(send(first, len_a))),
    ];
    let done = b.run(jobs);
    for (id, len) in [(1, len_a), (2, len_b)] {
        let d = done.iter().find(|d| d.id == id).expect("receive completed");
        let want = md5(&client_bytes(MAX_TRANSFER)[..len]);
        assert_eq!(d.digest.as_deref(), Some(&want[..]), "receive of {len} B");
    }
}
