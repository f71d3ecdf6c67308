//! Every repository path a document names must exist.
//!
//! DESIGN.md, README.md and EXPERIMENTS.md point readers at code with
//! backticked paths such as `crates/nic/src/initiator.rs`. This test
//! collects every backticked span that starts with `crates/`, `tests/`,
//! `benchmark/` or `examples/` and checks that the file or directory
//! exists, so the docs cannot keep pointing at deleted code. Globs and
//! placeholders (`crates/*/src`, `BENCH_<exp>.json`) are skipped; a
//! `::item` or `:line` suffix is dropped before the lookup.

use std::fs;
use std::path::Path;

const DOCS: [&str; 3] = ["DESIGN.md", "README.md", "EXPERIMENTS.md"];
const ROOTS: [&str; 4] = ["crates/", "tests/", "benchmark/", "examples/"];

/// The repository paths `text` names in backticks.
fn doc_paths(text: &str) -> Vec<&str> {
    text.split('`')
        .skip(1)
        .step_by(2)
        .filter(|span| ROOTS.iter().any(|r| span.starts_with(r)))
        .filter(|span| !span.contains(['*', '<', '>', '{', ' ', '…']))
        .map(|span| {
            let span = span.split("::").next().unwrap_or(span);
            match span.rsplit_once(':') {
                Some((path, line)) if line.chars().all(|c| c.is_ascii_digit()) => path,
                _ => span,
            }
        })
        .collect()
}

#[test]
fn doc_paths_finds_paths_and_skips_globs() {
    let text = "See `crates/sim/src/lib.rs`, `tests/chaos.rs::storm`, \
                `crates/host/src/executor.rs:361`, `crates/*/src`, \
                `BENCH_<exp>.json`, `cargo test`, ``, and `crates/gone.rs`.";
    assert_eq!(
        doc_paths(text),
        [
            "crates/sim/src/lib.rs",
            "tests/chaos.rs",
            "crates/host/src/executor.rs",
            "crates/gone.rs",
        ]
    );
}

#[test]
fn every_backticked_repository_path_in_the_docs_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).expect("the doc exists");
        for path in doc_paths(&text) {
            if !root.join(path).exists() {
                missing.push(format!("{doc}: `{path}`"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "docs name paths that do not exist:\n{}",
        missing.join("\n")
    );
}
