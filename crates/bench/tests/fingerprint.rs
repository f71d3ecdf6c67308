//! Behaviour pins over the reports `repro --quick --json-out` writes.
//!
//! One run of the `repro` binary writes `BENCH_<exp>.json` for every
//! pinned experiment of `dcs_bench::EXPERIMENTS`; three checks read
//! those files:
//!
//! * **Schema** — each file, and the committed `BENCH_engine.json` (the
//!   one unpinned experiment), has the report's fields with their types,
//!   rows keyed by their table's columns, and unique table names.
//! * **Fingerprint** — the fnv1a64 of each report's JSON without its
//!   host-measured columns must equal the digest committed in
//!   `fingerprint.txt`. A behaviour-preserving refactor leaves every
//!   digest unchanged; the failure names every experiment that moved,
//!   and each experiment's own test (`fig2`, `cluster_failover`, ...)
//!   fails too. After an intentional change to modeled output, replace the moved
//!   lines with the digests the failure reports.
//! * **Paper claims** — each row of the committed `BENCH_paper.json`
//!   names a paper claim, a report path (experiment / table / row /
//!   column) and a band. The measured quick value must lie in the band
//!   and equal the value the ledger records; EXPERIMENTS.md's
//!   headline-claims table must be the ledger, rendered. The failure
//!   names every claim that moved.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use dcs_bench::EXPERIMENTS;
use dcs_sim::{fnv1a64, Json};

fn repo_file(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name)
}

fn parse(path: &Path) -> Json {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `(experiment, parsed BENCH_<exp>.json)` for every pinned experiment,
/// written by one `repro --quick --json-out` run.
fn written() -> &'static [(&'static str, Json)] {
    static WRITTEN: OnceLock<Vec<(&'static str, Json)>> = OnceLock::new();
    WRITTEN.get_or_init(|| {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("pinned-reports");
        let _ = fs::remove_dir_all(&dir);
        let names: Vec<&'static str> = EXPERIMENTS
            .iter()
            .filter(|e| e.pinned)
            .map(|e| e.name)
            .collect();
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg("--quick")
            .arg("--json-out")
            .arg(&dir)
            .args(&names)
            .output()
            .expect("repro runs");
        assert!(
            out.status.success(),
            "repro failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        names
            .into_iter()
            .map(|n| (n, parse(&dir.join(format!("BENCH_{n}.json")))))
            .collect()
    })
}

fn str_of<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string `{key}` in {v:?}"))
}

fn arr_of<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array `{key}`"))
}

/// Every table of a report, in print order.
fn tables(report: &Json) -> impl Iterator<Item = &Json> {
    let sections = arr_of(report, "sections").expect("sections");
    sections
        .iter()
        .flat_map(|s| arr_of(s, "tables").expect("tables"))
}

/// Checks a report against its schema: the top-level fields with their
/// types, each column's name, unit, precision and host mark, rows whose
/// keys are the column names in order and whose values are scalars, and
/// table names unique within the report.
fn check_schema(report: &Json) -> Result<(), String> {
    str_of(report, "experiment")?;
    str_of(report, "title")?;
    if !matches!(report.get("quick"), Some(Json::Bool(_))) {
        return Err("missing boolean `quick`".into());
    }
    if !matches!(report.get("failure"), Some(Json::Null | Json::Str(_))) {
        return Err("`failure` is neither null nor a string".into());
    }
    let mut names = Vec::new();
    for s in arr_of(report, "sections")? {
        str_of(s, "heading")?;
        if arr_of(s, "notes")?.iter().any(|n| n.as_str().is_none()) {
            return Err("a note is not a string".into());
        }
        for t in arr_of(s, "tables")? {
            let name = str_of(t, "name")?;
            let mut columns = Vec::new();
            for c in arr_of(t, "columns")? {
                str_of(c, "unit")?;
                let precision = c.get("precision").and_then(Json::as_i128);
                let host = c.get("host_measured");
                if precision.is_none_or(|p| p < 0) || !matches!(host, Some(Json::Bool(_))) {
                    return Err(format!("table {name}: column {c:?}"));
                }
                columns.push(str_of(c, "name")?);
            }
            for r in arr_of(t, "rows")? {
                let Json::Obj(cells) = r else {
                    return Err(format!("table {name}: a row is not an object"));
                };
                let keys: Vec<&str> = cells.iter().map(|(k, _)| k.as_str()).collect();
                if keys != columns {
                    return Err(format!(
                        "table {name}: row keys {keys:?}, columns {columns:?}"
                    ));
                }
                if cells
                    .iter()
                    .any(|(_, v)| matches!(v, Json::Arr(_) | Json::Obj(_)))
                {
                    return Err(format!("table {name}: a cell is not a scalar"));
                }
            }
            names.push(name);
        }
    }
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    if names.len() != count {
        return Err("table names repeat".into());
    }
    Ok(())
}

/// `report` without its host-measured columns: what the fingerprint
/// hashes.
fn without_host_columns(report: &Json) -> Json {
    match report {
        Json::Obj(fields) if fields.iter().any(|(k, _)| k == "columns") => {
            let host: Vec<&str> = arr_of(report, "columns")
                .expect("columns")
                .iter()
                .filter(|c| matches!(c.get("host_measured"), Some(Json::Bool(true))))
                .map(|c| str_of(c, "name").expect("column name"))
                .collect();
            let keep = |v: &Json| match v {
                Json::Obj(f) => {
                    let f = f.iter().filter(|(k, _)| !host.contains(&k.as_str()));
                    Json::Obj(f.cloned().collect())
                }
                other => other.clone(),
            };
            let is_host = |c: &&Json| str_of(c, "name").is_ok_and(|n| host.contains(&n));
            let columns = arr_of(report, "columns").expect("columns");
            let columns: Vec<Json> = columns.iter().filter(|c| !is_host(c)).cloned().collect();
            let rows = arr_of(report, "rows").expect("rows");
            Json::Obj(
                fields
                    .iter()
                    .map(|(k, v)| match k.as_str() {
                        "columns" => (k.clone(), Json::Arr(columns.clone())),
                        "rows" => (k.clone(), Json::Arr(rows.iter().map(keep).collect())),
                        _ => (k.clone(), v.clone()),
                    })
                    .collect(),
            )
        }
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .map(|(k, v)| (k.clone(), without_host_columns(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(without_host_columns).collect()),
        other => other.clone(),
    }
}

#[test]
fn every_listed_experiment_writes_a_schema_valid_report() {
    let engine = parse(&repo_file("BENCH_engine.json"));
    let files = written()
        .iter()
        .map(|(n, j)| (*n, j))
        .chain([("engine", &engine)]);
    let mut seen = Vec::new();
    for (name, json) in files {
        if let Err(e) = check_schema(json) {
            panic!("BENCH_{name}.json breaks the schema: {e}");
        }
        assert_eq!(str_of(json, "experiment"), Ok(name));
        assert_eq!(json.get("quick"), Some(&Json::Bool(true)), "{name}");
        assert_eq!(json.get("failure"), Some(&Json::Null), "{name}");
        assert!(tables(json).next().is_some(), "{name} has no table");
        seen.push(name);
    }
    seen.sort_unstable();
    let mut listed: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    listed.sort_unstable();
    assert_eq!(seen, listed, "one report per listed experiment");
}

/// `(experiment, digest)` for every line of `fingerprint.txt`.
fn committed() -> Vec<(&'static str, &'static str)> {
    include_str!("fingerprint.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .collect()
}

/// How `name`'s written report differs from its committed digest, if
/// it does.
fn moved(name: &str, json: &Json) -> Option<String> {
    let got = format!(
        "{:016x}",
        fnv1a64(without_host_columns(json).render().as_bytes())
    );
    match committed().into_iter().find(|(n, _)| *n == name) {
        Some((_, want)) if want == got => None,
        Some((_, want)) => Some(format!("{name} {got} (committed {want})")),
        None => Some(format!("{name} {got} (not in fingerprint.txt)")),
    }
}

#[test]
fn pinned_reports_match_fingerprint_txt() {
    let mut moved: Vec<String> = written()
        .iter()
        .filter_map(|(name, json)| moved(name, json))
        .collect();
    for (name, _) in committed() {
        if !written().iter().any(|(n, _)| *n == name) {
            moved.push(format!(
                "{name}: in fingerprint.txt but not a pinned experiment"
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "`repro --quick` reports moved:\n{}",
        moved.join("\n")
    );
}

/// One test per pinned experiment, so a failure also shows under the
/// experiment's own name.
macro_rules! pin {
    ($($test:ident => $name:literal),* $(,)?) => {$(
        #[test]
        fn $test() {
            let (_, json) = written()
                .iter()
                .find(|(n, _)| *n == $name)
                .expect(concat!($name, " is a pinned experiment"));
            if let Some(m) = moved($name, json) {
                panic!("`repro --quick {}` report moved: {m}", $name);
            }
        }
    )*};
}

pin! {
    table3 => "table3",
    table4 => "table4",
    fig2 => "fig2",
    fig3 => "fig3",
    fig8 => "fig8",
    fig11 => "fig11",
    fig12 => "fig12",
    ablation => "ablation",
    faults => "faults",
    integrity => "integrity",
    cluster => "cluster",
    cluster_failover => "cluster-failover",
    cluster_gray => "cluster-gray",
    anatomy => "anatomy",
    store => "store",
}

/// One row of `BENCH_paper.json`.
struct Claim<'a> {
    json: &'a Json,
}

impl Claim<'_> {
    fn str(&self, key: &str) -> &str {
        self.json
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("claim without `{key}`: {:?}", self.json))
    }

    fn num(&self, key: &str) -> f64 {
        self.json
            .get(key)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("claim {} without `{key}`", self.str("claim")))
    }

    fn band(&self) -> (f64, f64) {
        let band = self.json.get("band").and_then(Json::as_arr).expect("band");
        let bound = |i: usize| band[i].as_f64().expect("numeric band");
        (bound(0), bound(1))
    }

    /// The claim's value in the quick report, and its column (unit
    /// and precision).
    fn measure(&self) -> (f64, &'static Json) {
        let (exp, table, row, column) = (
            self.str("experiment"),
            self.str("table"),
            self.str("row"),
            self.str("column"),
        );
        let (_, json) = written()
            .iter()
            .find(|(n, _)| *n == exp)
            .unwrap_or_else(|| panic!("{}: no pinned experiment {exp}", self.str("claim")));
        let t = tables(json)
            .find(|t| str_of(t, "name") == Ok(table))
            .unwrap_or_else(|| panic!("{exp} has no table {table}"));
        let columns = arr_of(t, "columns").expect("columns");
        let first = str_of(&columns[0], "name").expect("a first column");
        let value = arr_of(t, "rows")
            .expect("rows")
            .iter()
            .find(|r| r.get(first).and_then(Json::as_str) == Some(row))
            .and_then(|r| r.get(column))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{exp} / {table} has no number at {row} / {column}"));
        let col = columns
            .iter()
            .find(|c| str_of(c, "name") == Ok(column))
            .expect("the column exists");
        (value, col)
    }
}

fn claims(ledger: &Json) -> Vec<Claim<'_>> {
    ledger
        .get("claims")
        .and_then(Json::as_arr)
        .expect("BENCH_paper.json holds a `claims` array")
        .iter()
        .map(|json| Claim { json })
        .collect()
}

/// `v` as its report column prints it, with the unit.
fn shown(v: f64, col: &Json) -> String {
    let p = col
        .get("precision")
        .and_then(Json::as_i128)
        .expect("precision") as usize;
    match str_of(col, "unit").expect("unit") {
        dcs_bench::report::FRACTION => format!("{:.p$}%", v * 100.0),
        "x" => format!("{v:.p$}x"),
        "" => format!("{v:.p$}"),
        unit => format!("{v:.p$} {unit}"),
    }
}

#[test]
fn paper_claims_stay_in_their_bands() {
    let ledger = parse(&repo_file("BENCH_paper.json"));
    let mut out = Vec::new();
    for claim in claims(&ledger) {
        let name = claim.str("claim");
        let (value, col) = claim.measure();
        let (lo, hi) = claim.band();
        let recorded = claim.num("quick");
        if !(lo..=hi).contains(&value) {
            out.push(format!(
                "{name}: measured {} left its band {} to {}",
                shown(value, col),
                shown(lo, col),
                shown(hi, col)
            ));
        } else if (value - recorded).abs() > 1e-9 * recorded.abs().max(1e-9) {
            out.push(format!(
                "{name}: measured {value}, but BENCH_paper.json records {recorded}"
            ));
        }
        let full = claim.num("full");
        if !(lo..=hi).contains(&full) {
            out.push(format!(
                "{name}: the recorded full-run value {full} is outside its band"
            ));
        }
    }
    assert!(out.is_empty(), "paper claims moved:\n{}", out.join("\n"));
}

#[test]
fn experiments_md_headline_table_is_the_ledger() {
    let ledger = parse(&repo_file("BENCH_paper.json"));
    let want: Vec<String> = claims(&ledger)
        .iter()
        .map(|c| {
            let (_, col) = c.measure();
            let (lo, hi) = c.band();
            format!(
                "| {} | {} | {} | {} | {} to {} | `{} / {} / {} / {}` | {} |",
                c.str("claim"),
                c.str("paper"),
                shown(c.num("full"), col),
                shown(c.num("quick"), col),
                shown(lo, col),
                shown(hi, col),
                c.str("experiment"),
                c.str("table"),
                c.str("row"),
                c.str("column"),
                c.str("verdict"),
            )
        })
        .collect();
    let doc = fs::read_to_string(repo_file("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let table: Vec<&str> = doc
        .split("## Headline claims")
        .nth(1)
        .expect("a headline-claims section")
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2)
        .collect();
    assert_eq!(
        table, want,
        "EXPERIMENTS.md's headline table differs from BENCH_paper.json"
    );
}
