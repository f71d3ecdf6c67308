//! Integration tests for the lint workspace pass: the isolation rules
//! (the globals and shared handles `Send` bounds cannot see) against a
//! seeded violation fixture, and the cross-file semantic rule.
//!
//! World isolation itself is enforced by rustc: see the `compile_fail`
//! doctests on `dcs_sim::Component`, `dcs_sim::Payload`, and
//! `dcs_sim::World::insert`.

use dcs_lint::rules::{check_workspace, Finding, SourceFile};

const ISOLATION: &str = include_str!("fixtures/isolation_violations.rs");
const REPORT_DECL: &str = include_str!("fixtures/report_liveness_decl.rs");
const REPORT_WRITER: &str = include_str!("fixtures/report_liveness_writer.rs");

const ISOLATION_RULES: [&str; 3] = ["static-mut", "thread-local-state", "shared-mut-state"];

fn ws(files: &[(&str, &str)]) -> Vec<SourceFile> {
    files
        .iter()
        .map(|(r, s)| SourceFile::new(r.to_string(), s.to_string()))
        .collect()
}

fn by_rule<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn isolation_fixture_trips_every_isolation_rule() {
    let f = check_workspace(&ws(&[("crates/nic/src/fake_device.rs", ISOLATION)]));

    // `static mut EVENT_COUNTER` and the interior-mutable
    // `static SHARED_TALLY: Mutex<…>`; the static inside `thread_local!`
    // is left to `thread-local-state`.
    assert_eq!(by_rule(&f, "static-mut").len(), 2, "{f:#?}");
    assert_eq!(by_rule(&f, "thread-local-state").len(), 1, "{f:#?}");
    // Every shared-handle name: the three `use` lines (4 names), the
    // types and initializers of `SHARED_TALLY` and `SCRATCH` (2 each),
    // and PeerLink's `Rc<RefCell<_>>` and `Arc<Mutex<_>>` fields.
    assert_eq!(by_rule(&f, "shared-mut-state").len(), 12, "{f:#?}");
}

#[test]
fn isolation_rules_scoped_to_sim_state_crates() {
    // Outside the sim-state crates (the bench harness, root tests) the
    // isolation rules stay quiet: that code may use Arc freely.
    for path in ["crates/bench/src/fake_device.rs", "tests/fake_device.rs"] {
        let f = check_workspace(&ws(&[(path, ISOLATION)]));
        for rule in ISOLATION_RULES {
            assert!(
                by_rule(&f, rule).is_empty(),
                "{rule} must not fire in {path}: {f:#?}"
            );
        }
    }
    // `dcs-workloads` holds `ScenarioDriver`, a `Component`, so its
    // crate is sim state.
    let f = check_workspace(&ws(&[("crates/workloads/src/fake_device.rs", ISOLATION)]));
    for rule in ISOLATION_RULES {
        assert!(!by_rule(&f, rule).is_empty(), "{rule} must fire: {f:#?}");
    }
}

#[test]
fn isolation_rules_skip_test_code() {
    let src = "#[cfg(test)]\nmod tests {\n    static mut N: u64 = 0;\n    \
               thread_local! { static T: u8 = 0; }\n    fn f(_: std::rc::Rc<u8>) {}\n}\n";
    let f = check_workspace(&ws(&[("crates/sim/src/x.rs", src)]));
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn report_field_liveness_joins_across_files() {
    let findings = check_workspace(&ws(&[
        ("crates/cluster/src/report.rs", REPORT_DECL),
        ("crates/cluster/src/render.rs", REPORT_WRITER),
    ]));
    let dead = by_rule(&findings, "report-field-never-written");
    let fields: Vec<&str> = dead
        .iter()
        .map(|f| {
            let start = f.message.find('`').unwrap() + 1;
            &f.message[start..f.message[start..].find('`').unwrap() + start]
        })
        .collect();
    // `completed_ops` (plain assign), `notes` (mutator call), and
    // `p50_ns` (struct-literal init) are all written in the OTHER
    // file; `untouched` belongs to a non-report struct.
    assert_eq!(fields, vec!["dead_metric", "orphan_ns"], "{dead:#?}");
    // Findings point at the declaration, in the declaring file.
    assert!(dead
        .iter()
        .all(|f| f.file == "crates/cluster/src/report.rs"));
}
