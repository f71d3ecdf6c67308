//! Acceptance tests for the observability layer (DESIGN.md §11): the
//! Chrome trace export that `repro --trace-out` writes must be valid
//! JSON covering every instrumented layer, and each request's anatomy
//! segments must sum to its end-to-end latency **exactly** (±0 ns).
//! Also covers the machine-readable `BENCH_fig8.json` report.

use std::collections::BTreeSet;

use dcs_bench::anatomy;
use dcs_bench::fig8;
use dcs_ctrl::sim::Json;
use dcs_ctrl::workloads::scenario::DesignUnderTest;

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
