//! Acceptance tests for the observability layer (DESIGN.md §11): the
//! Chrome trace export that `repro --trace-out` writes must be valid
//! JSON covering every instrumented layer, and each request's anatomy
//! segments must sum to its end-to-end latency **exactly** (±0 ns), on
//! every design and job shape. Also covers the machine-readable
//! `BENCH_fig8.json` report.

use std::collections::BTreeSet;

use dcs_bench::anatomy;
use dcs_bench::fig8;
use dcs_ctrl::host::cpu::CpuPool;
use dcs_ctrl::host::integration::IntegratedExecutor;
use dcs_ctrl::host::job::{D2dDone, D2dJob, D2dOp};
use dcs_ctrl::ndp::NdpFunction;
use dcs_ctrl::nic::TcpFlow;
use dcs_ctrl::pcie::{PhysMemory, PortId};
use dcs_ctrl::sim::{Component, ComponentId, Ctx, Json, Msg, Simulator};
use dcs_ctrl::workloads::scenario::{DesignUnderTest, Testbed, TestbedConfig};

/// Parses the capture that `--trace-out` writes verbatim.
fn traced_capture() -> (anatomy::TraceCapture, Json) {
    let cap = anatomy::capture(DesignUnderTest::DcsCtrl);
    let json = Json::parse(&cap.trace_json).expect("trace must be valid JSON");
    (cap, json)
}

#[test]
fn trace_export_covers_at_least_four_component_categories() {
    let (_, json) = traced_capture();
    let events = json
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("object form with traceEvents");
    assert!(!events.is_empty(), "trace must contain events");
    // Category names ride on the process_name metadata events.
    let mut cats = BTreeSet::new();
    for ev in events {
        if ev.get("ph").and_then(|p| p.as_str()) == Some("M") {
            if let Some(name) = ev
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(|n| n.as_str())
            {
                cats.insert(name.to_string());
            }
        }
    }
    assert!(
        cats.len() >= 4,
        "expected >=4 distinct component categories, got {cats:?}"
    );
    for want in ["hdc", "nvme", "pcie", "host"] {
        assert!(cats.contains(want), "missing category {want} in {cats:?}");
    }
    // Every complete event carries exact nanoseconds alongside the µs.
    for ev in events {
        if ev.get("ph").and_then(|p| p.as_str()) == Some("X") {
            let args = ev.get("args").expect("X events carry args");
            let start = args
                .get("start_ns")
                .and_then(|v| v.as_i128())
                .expect("exact start");
            let ns = args
                .get("ns")
                .and_then(|v| v.as_i128())
                .expect("exact duration");
            assert!(start >= 0 && ns >= 0);
        }
    }
}

#[test]
fn anatomy_segments_sum_to_end_to_end_latency_exactly() {
    let (cap, json) = traced_capture();
    assert!(!cap.anatomies.is_empty(), "capture must trace requests");
    let reqs = json
        .get("metadata")
        .and_then(|m| m.get("requests"))
        .and_then(|r| r.as_arr())
        .expect("metadata.requests present");
    assert_eq!(reqs.len(), cap.anatomies.len());
    for r in reqs {
        let e2e = r.get("e2e_ns").and_then(|v| v.as_i128()).expect("e2e_ns");
        let segs = r.get("anatomy").and_then(|a| a.as_arr()).expect("anatomy");
        assert!(!segs.is_empty(), "each request has segments");
        let sum: i128 = segs
            .iter()
            .map(|s| s.get("ns").and_then(|v| v.as_i128()).expect("segment ns"))
            .sum();
        // The ±0 invariant: sim-time segments telescope exactly.
        assert_eq!(sum, e2e, "segments must sum to the end-to-end latency");
    }
}

#[test]
fn bench_fig8_json_parses_and_contains_expected_keys() {
    let body = fig8::report(true).json().render();
    let json = Json::parse(&body).expect("BENCH_fig8.json must parse");
    assert_eq!(
        json.get("experiment").and_then(|e| e.as_str()),
        Some("fig8"),
        "experiment key"
    );
    let cores = json
        .get("sections")
        .and_then(|s| s.as_arr())
        .expect("sections")
        .iter()
        .flat_map(|s| s.get("tables").and_then(|t| t.as_arr()).expect("tables"))
        .find(|t| t.get("name").and_then(|n| n.as_str()) == Some("cores"))
        .expect("the cores table");
    let columns = cores.get("columns").and_then(|c| c.as_arr()).unwrap();
    let unit = columns[1].get("unit").and_then(|u| u.as_str());
    assert_eq!(unit, Some("fraction"), "cores are a fraction of all cores");
    // Past design, cores and of_linux: one column per CPU tag.
    let tags: Vec<&str> = columns[3..]
        .iter()
        .map(|c| c.get("name").and_then(|n| n.as_str()).expect("tag"))
        .collect();
    let rows = cores.get("rows").and_then(|r| r.as_arr()).unwrap();
    for label in ["Linux", "SW opt", "DCS-ctrl"] {
        let d = rows
            .iter()
            .find(|r| r.get("design").and_then(|d| d.as_str()) == Some(label))
            .unwrap_or_else(|| panic!("missing design {label}"));
        let total = d
            .get("cores")
            .and_then(|t| t.as_f64())
            .expect("total is a number");
        assert!(total.is_finite() && total >= 0.0);
        assert!(
            tags.iter()
                .any(|t| d.get(t).and_then(|v| v.as_f64()).is_some()),
            "per-category breakdown present"
        );
    }
}

/// Submits jobs and stamps, per job, when it was submitted and when its
/// completion arrived.
struct Stamper;

#[derive(Debug)]
struct Go {
    to: ComponentId,
    job: D2dJob,
}

/// One submitted job: when it went in, and when (and whether ok) it
/// came back.
struct Stamp {
    id: u64,
    submitted: u64,
    done: Option<(u64, bool)>,
}

/// Every submitted job, in submission order.
#[derive(Default)]
struct Stamps(Vec<Stamp>);

/// A shape's jobs, submitted at once: `(shape, [(target, ops)])`.
type Batch<'a> = (&'a str, Vec<(ComponentId, Vec<D2dOp>)>);

impl Component for Stamper {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let now = ctx.now().as_nanos();
        let msg = match msg.downcast::<Go>() {
            Ok(Go { to, job }) => {
                let stamp = Stamp {
                    id: job.id,
                    submitted: now,
                    done: None,
                };
                ctx.world().expect_mut::<Stamps>().0.push(stamp);
                ctx.send_now(to, job);
                return;
            }
            Err(m) => m,
        };
        let done = msg.downcast::<D2dDone>().expect("job completions");
        let stamps = ctx.world().expect_mut::<Stamps>();
        let stamp = stamps.0.iter_mut().find(|s| s.id == done.id);
        let stamp = stamp.expect("a submitted job");
        assert!(stamp.done.is_none(), "job {} completed twice", done.id);
        stamp.done = Some((now, done.ok));
    }
}

/// The four job shapes, each as `(server ops, client ops)`: the client's
/// ops feed or drain the server's network op. `n` keeps flows apart.
fn shapes(n: u16) -> Vec<(&'static str, Vec<D2dOp>, Vec<D2dOp>)> {
    let len = 16 * 1024;
    let flow = |k: u16| TcpFlow::example(1, 2, 44_000 + 8 * n + k, 9_400 + 8 * n + k);
    let read = D2dOp::SsdRead {
        ssd: 0,
        lba: 0,
        len,
    };
    let md5 = D2dOp::Process {
        function: NdpFunction::Md5,
        aux: vec![],
    };
    let recv = |k: u16| D2dOp::NicRecv {
        flow: flow(k).reversed(),
        len,
    };
    vec![
        (
            "SSD read -> NIC send",
            vec![
                read.clone(),
                D2dOp::NicSend {
                    flow: flow(0),
                    seq: 0,
                },
            ],
            vec![recv(0)],
        ),
        (
            "SSD read -> MD5 -> NIC send",
            vec![
                read,
                md5,
                D2dOp::NicSend {
                    flow: flow(1),
                    seq: 0,
                },
            ],
            vec![recv(1)],
        ),
        (
            "NIC recv -> SSD write",
            vec![
                D2dOp::NicRecv { flow: flow(2), len },
                D2dOp::SsdWrite { ssd: 0, lba: 512 },
            ],
            vec![
                D2dOp::MemRead { len },
                D2dOp::NicSend {
                    flow: flow(2).reversed(),
                    seq: 0,
                },
            ],
        ),
        (
            "memory read -> NIC send",
            vec![
                D2dOp::MemRead { len },
                D2dOp::NicSend {
                    flow: flow(3),
                    seq: 0,
                },
            ],
            vec![recv(3)],
        ),
    ]
}

/// Runs `batches` (each a set of `(target, ops)` submitted at once) to
/// completion and checks every job: it succeeded, its anatomy ended, and
/// its per-category sum is the probe's submit → `D2dDone` latency.
fn check_anatomies(sim: &mut Simulator, label: &str, batches: Vec<Batch<'_>>) {
    sim.run();
    sim.world_mut().obs.enable();
    sim.world_mut().insert(Stamps::default());
    let stamper = sim.add("stamper", Stamper);
    let mut id = 100;
    for (shape, jobs) in batches {
        let n = jobs.len();
        for (to, ops) in jobs {
            id += 1;
            let job = D2dJob {
                id,
                ops,
                reply_to: stamper,
                tag: "sweep",
            };
            sim.kickoff(stamper, Go { to, job });
        }
        sim.run();
        let stamps = &sim.world().expect::<Stamps>().0;
        assert_eq!(stamps.len(), n, "{label} {shape}");
        for &Stamp {
            id,
            submitted,
            done,
        } in stamps
        {
            let (done_at, ok) =
                done.unwrap_or_else(|| panic!("{label} {shape}: job {id} never completed"));
            assert!(ok, "{label} {shape}: job {id} failed");
            let a = sim.world().obs.anatomy(id).expect("job traced");
            let e2e = done_at - submitted;
            assert_eq!(a.total_ns(), Some(e2e), "{label} {shape}: job {id} end");
            let by_cat: u64 = a.by_category().iter().map(|(_, ns)| ns).sum();
            assert_eq!(by_cat, e2e, "{label} {shape}: job {id} {a:?}");
        }
        sim.world_mut().expect_mut::<Stamps>().0.clear();
    }
}

#[test]
fn every_design_and_shape_has_an_exact_category_sum() {
    for design in [
        DesignUnderTest::Linux,
        DesignUnderTest::SwOpt,
        DesignUnderTest::SwP2p,
        DesignUnderTest::DcsCtrl,
    ] {
        let mut tb = Testbed::new(design, &TestbedConfig::default());
        let (server, client) = (tb.server.submit_to, tb.client.submit_to);
        let batches = shapes(0)
            .into_iter()
            .map(|(shape, s, c)| (shape, vec![(client, c), (server, s)]))
            .collect();
        check_anatomies(&mut tb.sim, design.label(), batches);
    }
    // The consolidated device runs each shape alone: its receive
    // synthesizes the payload, and it has no peer.
    let mut sim = Simulator::new(5);
    sim.world_mut().insert(PhysMemory::new());
    let flash =
        sim.world_mut()
            .expect_mut::<PhysMemory>()
            .alloc_region("fused-flash", 1 << 30, PortId(1));
    let cpu = sim.add("fused-cpu", CpuPool::new("fused", 6));
    let exec = sim.add("fused-exec", IntegratedExecutor::new(cpu, flash));
    let batches = shapes(0)
        .into_iter()
        .map(|(shape, s, _)| (shape, vec![(exec, s)]))
        .collect();
    check_anatomies(&mut sim, "Device integration", batches);
}
