//! `repro` — regenerate every table and figure of the DCS-ctrl paper.
//!
//! ```text
//! repro [--quick] [--list] [--trace-out FILE] [--json-out DIR] [all|<experiment>]...
//! ```
//!
//! With no experiment arguments, runs everything; `--list` prints the
//! experiment names (`dcs_bench::EXPERIMENTS`), one per line, and exits.
//! Each experiment runs once and builds one typed report: `repro`
//! prints its text and, with `--json-out DIR`, writes the same report as
//! `DIR/BENCH_<experiment>.json`. `--quick` shortens the workload
//! windows (useful for smoke runs; EXPERIMENTS.md numbers come from the
//! full runs). `--trace-out FILE` writes the Chrome trace-event JSON of
//! the anatomy experiment's traced request mix (open in Perfetto),
//! running that mix once more only when `anatomy` was not among the
//! experiments. Unknown experiment names are rejected up front — before
//! anything runs — with the list of valid ones. A report that carries a
//! failed self-check (the integrity experiment's chaos fuzzer finding a
//! counterexample) exits 1 after printing it.

use std::env;
use std::fs;
use std::process::exit;

use dcs_bench::{experiment, EXPERIMENTS};

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut quick = false;
    let mut trace_out: Option<String> = None;
    let mut json_out: Option<String> = None;
    let mut requested: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            // Machine-friendly enumeration (shell completion, CI loops).
            "--list" => {
                for e in &EXPERIMENTS {
                    println!("{}", e.name);
                }
                return;
            }
            "--trace-out" => match it.next() {
                Some(p) => trace_out = Some(p.clone()),
                None => {
                    eprintln!("--trace-out requires a file path");
                    exit(2);
                }
            },
            "--json-out" => match it.next() {
                Some(d) => json_out = Some(d.clone()),
                None => {
                    eprintln!("--json-out requires a directory");
                    exit(2);
                }
            },
            s if s.starts_with("--") => {
                eprintln!("unknown flag: {s}");
                eprintln!("flags: --quick --list --trace-out FILE --json-out DIR");
                exit(2);
            }
            s => requested.push(s),
        }
    }

    // Validate everything before running anything: a typo at the end of
    // the list must not cost a full sweep first.
    let unknown: Vec<&str> = requested
        .iter()
        .copied()
        .filter(|w| *w != "all" && experiment(w).is_none())
        .collect();
    if !unknown.is_empty() {
        for u in &unknown {
            eprintln!("unknown experiment: {u}");
        }
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        eprintln!("valid experiments: all {}", names.join(" "));
        exit(2);
    }
    let wanted: Vec<&str> = if requested.is_empty() || requested.contains(&"all") {
        EXPERIMENTS.iter().map(|e| e.name).collect()
    } else {
        requested
    };
    if let Some(dir) = &json_out {
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            exit(1);
        }
    }

    println!("DCS-ctrl reproduction harness (quick={quick})");
    println!("==============================================\n");
    let mut trace: Option<String> = None;
    for name in wanted {
        let e = experiment(name).expect("validated above");
        let mut report = (e.run)(quick);
        trace = report.trace.take().or(trace);
        println!("{}", report.text());
        println!("----------------------------------------------\n");
        if let Some(dir) = &json_out {
            let path = format!("{dir}/BENCH_{name}.json");
            if let Err(err) = fs::write(&path, report.json().render()) {
                eprintln!("cannot write {path}: {err}");
                exit(1);
            }
            println!("wrote {path}");
        }
        if let Some(failure) = &report.failure {
            eprintln!("{failure}");
            exit(1);
        }
    }

    if let Some(path) = &trace_out {
        let trace = trace.unwrap_or_else(|| {
            dcs_bench::anatomy::capture(dcs_workloads::scenario::DesignUnderTest::DcsCtrl)
                .trace_json
        });
        if let Err(e) = fs::write(path, trace) {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        }
        println!("wrote {path} (open in Perfetto)");
    }
}
