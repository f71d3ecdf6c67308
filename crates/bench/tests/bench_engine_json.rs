//! Contract tests for the committed `BENCH_engine.json`.
//!
//! Wall-clock numbers vary across machines, so unlike
//! `BENCH_cluster.json` the engine report is *not* byte-compared
//! against a regeneration. Instead this suite holds the committed file
//! to its contract: the schema downstream tooling keys on, the
//! machine-independent fields (`events`, `sim_ns` — identical on every
//! host by determinism, re-derived here for the cheap scenario), and
//! the acceptance floor ROADMAP item 1 set: the wheel must beat the
//! heap by ≥5× on fan-out. The cluster-64 host-time profile rides along
//! and is held to its schema and its heaviest-first order. On an
//! intentional change, regenerate with:
//!
//! ```text
//! cargo run --release -p dcs-bench --bin repro -- engine --quick --json-out .
//! ```

use std::fs;
use std::path::Path;

use dcs_sim::Json;

fn committed() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json");
    let text = fs::read_to_string(&path).expect("BENCH_engine.json is committed at the repo root");
    Json::parse(&text).expect("committed BENCH_engine.json parses")
}

/// The four scenarios the benchmark must cover, in report order.
const SCENARIOS: [&str; 4] = ["ping-pong", "fan-out", "cluster-8", "cluster-64"];

/// Per-arm fields every scenario entry must carry.
const ARM_FIELDS: [&str; 6] = [
    "scheduler",
    "events",
    "batched",
    "sim_ns",
    "wall_ns",
    "events_per_sec",
];

#[test]
fn committed_report_keeps_its_schema() {
    let report = committed();
    assert_eq!(
        report.get("experiment").and_then(Json::as_str),
        Some("engine")
    );
    assert!(
        matches!(report.get("quick"), Some(Json::Bool(_))),
        "quick flag present"
    );
    let scenarios = report
        .get("scenarios")
        .and_then(Json::as_arr)
        .expect("scenarios array");
    let names: Vec<&str> = scenarios
        .iter()
        .map(|s| s.get("name").and_then(Json::as_str).expect("scenario name"))
        .collect();
    assert_eq!(names, SCENARIOS, "all four scenarios, in order");
    for scenario in scenarios {
        let name = scenario.get("name").and_then(Json::as_str).unwrap();
        for arm in ["wheel", "heap"] {
            let arm_obj = scenario
                .get(arm)
                .unwrap_or_else(|| panic!("{name} has a {arm} arm"));
            for field in ARM_FIELDS {
                assert!(arm_obj.get(field).is_some(), "{name}.{arm} missing {field}");
            }
        }
        assert_eq!(
            scenario.get("wheel").unwrap().get("scheduler"),
            Some(&Json::Str("timing-wheel".into()))
        );
        assert_eq!(
            scenario.get("heap").unwrap().get("scheduler"),
            Some(&Json::Str("reference-heap".into()))
        );
        assert!(
            scenario.get("speedup").and_then(Json::as_f64).is_some(),
            "{name} carries a speedup"
        );
    }
}

#[test]
fn committed_profile_keeps_its_schema_heaviest_first() {
    let report = committed();
    let rows = report
        .get("profile")
        .and_then(Json::as_arr)
        .expect("profile array");
    assert!(!rows.is_empty(), "the cluster-64 profile has rows");
    let mut walls = Vec::new();
    for row in rows {
        for field in ["component", "payload"] {
            let name = row.get(field).and_then(Json::as_str);
            assert!(name.is_some_and(|n| !n.is_empty()), "row {field}: {row:?}");
        }
        let calls = row.get("calls").and_then(Json::as_i128).expect("calls");
        let wall_ns = row.get("wall_ns").and_then(Json::as_i128).expect("wall_ns");
        assert!(calls > 0 && wall_ns >= 0, "row counts: {row:?}");
        walls.push(wall_ns);
    }
    assert!(
        walls.windows(2).all(|w| w[0] >= w[1]),
        "profile rows must be heaviest first: {walls:?}"
    );
    // Node prefixes are folded into component kinds.
    assert!(rows
        .iter()
        .any(|r| r.get("component").and_then(Json::as_str) == Some("hdc-engine")));
}

#[test]
fn committed_arms_agree_on_machine_independent_fields() {
    // Both calendars replay the identical schedule, so `events` and
    // `sim_ns` must match arm-to-arm in the committed file — a mismatch
    // means the report was generated from a broken build.
    let report = committed();
    for scenario in report.get("scenarios").and_then(Json::as_arr).unwrap() {
        let name = scenario.get("name").and_then(Json::as_str).unwrap();
        let (wheel, heap) = (
            scenario.get("wheel").unwrap(),
            scenario.get("heap").unwrap(),
        );
        for field in ["events", "sim_ns"] {
            assert_eq!(
                wheel.get(field).and_then(Json::as_i128),
                heap.get(field).and_then(Json::as_i128),
                "{name}: wheel and heap disagree on {field}"
            );
        }
        let events = wheel.get("events").and_then(Json::as_i128).unwrap();
        assert!(events > 0, "{name} delivered no events");
    }
}

#[test]
fn committed_fan_out_speedup_holds_the_acceptance_floor() {
    let report = committed();
    let fan_out = report
        .get("scenarios")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some("fan-out"))
        .expect("fan-out scenario present");
    let speedup = fan_out.get("speedup").and_then(Json::as_f64).unwrap();
    assert!(
        speedup >= 5.0,
        "committed fan-out speedup {speedup:.2} below the 5x floor; \
         the wheel regressed — do not paper over this by regenerating"
    );
}

#[test]
fn committed_ping_pong_fields_match_regeneration() {
    // The cheap scenario is re-run here (both arms) and its
    // machine-independent fields compared against the committed quick
    // report. Fan-out and the clusters are too heavy for a debug test
    // binary; their determinism is covered arm-vs-arm above and by the
    // scheduler-equivalence suites.
    let report = committed();
    let quick = matches!(report.get("quick"), Some(Json::Bool(true)));
    assert!(quick, "the committed report is the --quick profile");
    let committed_pp = report
        .get("scenarios")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some("ping-pong"))
        .expect("ping-pong scenario present")
        .clone();
    let wheel = dcs_bench::engine::run_ping_pong(true, false);
    let heap = dcs_bench::engine::run_ping_pong(true, true);
    for (arm, fresh) in [("wheel", wheel), ("heap", heap)] {
        let arm_obj = committed_pp.get(arm).unwrap();
        assert_eq!(
            arm_obj.get("events").and_then(Json::as_i128),
            Some(fresh.events as i128),
            "{arm} events drifted from the committed report; regenerate it"
        );
        assert_eq!(
            arm_obj.get("sim_ns").and_then(Json::as_i128),
            Some(fresh.sim_ns as i128),
            "{arm} sim_ns drifted from the committed report; regenerate it"
        );
    }
}
