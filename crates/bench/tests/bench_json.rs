//! Schema smoke for the committed `BENCH_store.json`.
//!
//! The repo root carries the machine-readable store sweep exactly as
//! `repro store --quick --json-out .` writes it. Regenerating it here and
//! byte-comparing catches two failure classes at once: schema drift (a
//! renamed or dropped field silently breaking downstream consumers) and
//! lost determinism (the same config no longer reproducing the same
//! numbers). On an intentional change, regenerate with:
//!
//! ```text
//! cargo run -p dcs-bench --bin repro -- store --quick --json-out .
//! ```

use std::fs;
use std::path::Path;

use dcs_sim::Json;

#[test]
fn committed_bench_store_json_matches_regeneration() {
    let committed_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_store.json");
    let committed = fs::read_to_string(&committed_path)
        .expect("BENCH_store.json is committed at the repo root");
    let fresh = dcs_bench::store::report(true).json().render();
    assert_eq!(
        committed, fresh,
        "BENCH_store.json drifted from `repro store --quick --json-out .`; \
         regenerate it (and review the schema change) if this is intentional"
    );
    // Belt and braces: the anchors downstream tooling keys on.
    let parsed = Json::parse(&committed).expect("committed file parses");
    assert_eq!(parsed.get("experiment"), Some(&Json::Str("store".into())));
    assert_eq!(parsed.get("quick"), Some(&Json::Bool(true)));
    let tables: Vec<&str> = parsed
        .get("sections")
        .and_then(Json::as_arr)
        .expect("sections")
        .iter()
        .flat_map(|s| s.get("tables").and_then(Json::as_arr).expect("tables"))
        .map(|t| t.get("name").and_then(Json::as_str).expect("table name"))
        .collect();
    for table in [
        "ycsb",
        "cache_size",
        "admission",
        "noisy_neighbor",
        "runs",
        "tenants",
    ] {
        assert!(tables.contains(&table), "missing table {table}");
    }
}
