//! Holds `BENCHMARK.json` and `benchmark/layer_map.json` to the
//! benchmark's contract: exactly the documented keys, the workload and
//! metric names the binary prints, bounds within a quarter of the median,
//! and one layer-map entry per per-layer metric.

use std::path::Path;

use dcs_benchmark::metrics::{Metric, END_TO_END, PER_LAYER};
use dcs_benchmark::workloads::Workload;
use dcs_sim::Json;

fn load(rel: &str) -> (Json, usize) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let json = Json::parse(&text).unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()));
    (json, text.len())
}

fn keys(j: &Json) -> Vec<&str> {
    match j {
        Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn arr<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    j.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("`{key}` is an array"))
}

fn string<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("`{key}` is a string in {j:?}"))
}

fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// The `(name, unit, better)` triples of a metric list, checking each
/// entry carries exactly `fields`.
fn metric_list(entries: &[Json], fields: &[&str]) -> Vec<(String, String, String)> {
    entries
        .iter()
        .map(|m| {
            assert_eq!(keys(m), fields, "{m:?}");
            let name = string(m, "name");
            let unit = string(m, "unit");
            let better = string(m, "better");
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} on {name}");
            assert!(
                better == "lower" || better == "higher",
                "{name}: better={better}"
            );
            (name.to_string(), unit.to_string(), better.to_string())
        })
        .collect()
}

fn catalogue(c: &[Metric]) -> Vec<(String, String, String)> {
    c.iter()
        .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
        .collect()
}

#[test]
fn benchmark_json_keeps_its_contract() {
    let (b, size) = load("../BENCHMARK.json");
    assert!(size <= 64 * 1024, "BENCHMARK.json is {size} bytes");
    assert_eq!(
        keys(&b),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let command = arr(&b, "command");
    assert!((1..=32).contains(&command.len()));
    for part in command {
        let s = part.as_str().expect("command parts are strings");
        assert!(
            s.len() <= 200 && !s.starts_with('/') && !s.contains(".."),
            "{s}"
        );
    }
    let paths: Vec<&str> = arr(&b, "paths").iter().filter_map(Json::as_str).collect();
    assert_eq!(
        paths,
        ["benchmark"],
        "the benchmark lives in its own directory"
    );

    let seconds = b
        .get("run_seconds")
        .and_then(Json::as_i128)
        .expect("whole seconds");
    assert!((1..=60).contains(&seconds));

    let workloads = arr(&b, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| {
            assert_eq!(keys(w), ["name", "why"]);
            let why = string(w, "why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
            string(w, "name")
        })
        .collect();
    let built: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(
        names, built,
        "BENCHMARK.json lists the workloads the binary runs"
    );

    let e2e = arr(&b, "end_to_end");
    assert_eq!(
        metric_list(e2e, &["name", "unit", "better", "bound"]),
        catalogue(END_TO_END),
        "end-to-end metrics match the catalogue the binary prints"
    );
    let bound = |m: &Json| {
        m.get("bound")
            .and_then(Json::as_f64)
            .expect("numeric bound")
    };
    for m in e2e {
        assert!(bound(m) > 0.0 && bound(m) <= 0.25, "{m:?}");
    }
    let setup = e2e
        .iter()
        .find(|m| string(m, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(
        (string(setup, "unit"), string(setup, "better")),
        ("s", "lower")
    );
    assert!(
        e2e.iter().all(|m| bound(m) <= bound(setup)),
        "setup_s has the largest bound"
    );

    let per_layer = arr(&b, "per_layer");
    assert!((1..=128).contains(&per_layer.len()));
    assert_eq!(
        metric_list(per_layer, &["name", "unit", "better"]),
        catalogue(PER_LAYER),
        "per-layer metrics match the catalogue the binary prints"
    );

    let mut all: Vec<&str> = e2e
        .iter()
        .chain(per_layer)
        .map(|m| string(m, "name"))
        .collect();
    all.extend(&names);
    let count = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), count, "every name is used once");
}

#[test]
fn layer_map_covers_every_per_layer_metric() {
    let (map, _) = load("layer_map.json");
    let default_seed = map.get("default_seed").and_then(Json::as_i128);
    let held_out = map.get("held_out_seed").and_then(Json::as_i128);
    assert!(default_seed.is_some() && held_out.is_some() && default_seed != held_out);

    let sources = keys(map.get("sources").expect("sources"));
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let metrics = map.get("metrics").expect("metrics");
    let mut mapped = keys(metrics);
    mapped.sort_unstable();
    let mut catalogued: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    catalogued.sort_unstable();
    assert_eq!(mapped, catalogued, "one entry per per-layer metric");

    for name in catalogued {
        let entry = metrics.get(name).expect("mapped");
        assert!(sources.contains(&string(entry, "source")), "{name}");
        for moved in arr(entry, "moves") {
            let moved = moved.as_str().expect("metric name");
            assert!(
                END_TO_END.iter().any(|m| m.0 == moved),
                "{name} moves unknown {moved}"
            );
        }
        let on = arr(entry, "on");
        assert!(!on.is_empty(), "{name} names its workloads");
        for w in on {
            assert!(
                workloads.contains(&w.as_str().expect("workload name")),
                "{name}: {w:?}"
            );
        }
    }
}
