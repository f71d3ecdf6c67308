//! Latency anatomy — per-request trace capture over the observability
//! recorder ([`dcs_sim::obs`]).
//!
//! Runs representative D2D requests on a testbed with sim-time tracing
//! enabled and exports (a) Chrome trace-event JSON loadable in Perfetto
//! and (b) a per-request anatomy table whose segments sum to the
//! measured end-to-end latency exactly.

use dcs_host::job::D2dOp;
use dcs_ndp::NdpFunction;
use dcs_nic::TcpFlow;
use dcs_sim::{chrome_trace, Anatomy, Json};
use dcs_workloads::scenario::DesignUnderTest;

use crate::probe::ProbedTestbed;
use crate::{row, Report};

/// Everything one traced run yields.
pub struct TraceCapture {
    /// Chrome trace-event JSON (object form, `traceEvents` + metadata).
    pub trace_json: String,
    /// `(request id, anatomy)` for each completed request.
    pub anatomies: Vec<(u64, Anatomy)>,
}

/// Runs the representative request mix on `design` with the recorder
/// enabled and returns the trace.
///
/// The mix exercises every instrumented layer: a plain SSD read, and an
/// SSD-read → MD5 → NIC-send server job paired with a NIC-recv client
/// job (the paper's device-to-device composition).
pub fn capture(design: DesignUnderTest) -> TraceCapture {
    let mut ptb = ProbedTestbed::new(design);
    let payload = vec![0xA5u8; 16 * 1024];
    ptb.seed_flash(64, &payload);

    let mut done = Vec::new();
    done.push(ptb.run_server_job(
        vec![D2dOp::SsdRead {
            ssd: 0,
            lba: 64,
            len: payload.len(),
        }],
        "anatomy-read",
    ));
    let flow = TcpFlow::example(1, 2, 47_000, 9_470);
    done.extend(ptb.run_pair(
        vec![
            D2dOp::SsdRead {
                ssd: 0,
                lba: 64,
                len: payload.len(),
            },
            D2dOp::Process {
                function: NdpFunction::Md5,
                aux: vec![],
            },
            D2dOp::NicSend { flow, seq: 0 },
        ],
        vec![D2dOp::NicRecv {
            flow: flow.reversed(),
            len: payload.len(),
        }],
        "anatomy-d2d",
    ));

    TraceCapture {
        trace_json: chrome_trace(&ptb.tb.sim.world().obs),
        anatomies: done.iter().map(|d| (d.id, ptb.anatomy(d.id))).collect(),
    }
}

/// The anatomy experiment: one segment table per traced request, plus
/// a one-line summary of the trace, which the report carries for
/// `--trace-out` to write (`quick` changes nothing: three requests are
/// already short).
pub fn report(quick: bool) -> Report {
    let cap = capture(DesignUnderTest::DcsCtrl);
    let events = Json::parse(&cap.trace_json)
        .ok()
        .and_then(|j| {
            j.get("traceEvents")
                .and_then(|e| e.as_arr().map(|a| a.len()))
        })
        .unwrap_or(0);
    let mut r = Report::new(
        "anatomy",
        quick,
        "Latency anatomy — DCS-ctrl, per-request sim-time segments (sum == end-to-end)",
    );
    for (id, a) in &cap.anatomies {
        let total = a.total_ns().expect("a completed request");
        let t = r
            .section(format!(
                "request {id} — latency anatomy ({total} ns end-to-end)"
            ))
            .table(&format!("request-{id}"), "segment time:ns share:%.1");
        for &(category, ns) in &a.segments {
            row!(t, category.label(), ns, ns as f64 / total.max(1) as f64);
        }
        row!(t, "total", a.segment_sum_ns(), 1.0);
    }
    r.section("").note(format!(
        "({} trace events over {} requests; write the trace with --trace-out)",
        events,
        cap.anatomies.len()
    ));
    r.trace = Some(cap.trace_json);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_yields_anatomy_for_every_request() {
        let cap = capture(DesignUnderTest::DcsCtrl);
        assert_eq!(cap.anatomies.len(), 3, "all three requests complete traced");
    }

    #[test]
    fn software_designs_capture_coarse_anatomy_too() {
        let cap = capture(DesignUnderTest::SwOpt);
        assert_eq!(cap.anatomies.len(), 3);
        for (_, a) in &cap.anatomies {
            assert!(a.total_ns() > Some(0));
        }
    }
}
