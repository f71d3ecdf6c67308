//! `repro` — regenerate every table and figure of the DCS-ctrl paper.
//!
//! ```text
//! repro [--quick] [--list] [--profile] [--trace-out FILE] [--json-out DIR]
//!       [all|engine|fig2|fig3|fig8|fig11|fig12|fig13|table3|table4|ablation|faults|integrity|cluster|cluster-failover|cluster-gray|anatomy|store]...
//! ```
//!
//! With no experiment arguments, runs everything. `--quick` shortens the
//! workload windows (useful for smoke runs; EXPERIMENTS.md numbers come
//! from the full runs). `--list` prints the experiment names, one per
//! line, and exits. `--profile` adds a host-time profile of the
//! cluster-64 run to the `engine` experiment: wall time inside
//! `Component::handle` per component kind and payload type (the
//! `engine` JSON report always carries it).
//! `--trace-out FILE` additionally runs a traced request mix and writes
//! Chrome trace-event JSON (open in Perfetto).
//! `--json-out DIR` writes machine-readable `BENCH_<exp>.json` files for
//! experiments with structured reports. Unknown experiment names are
//! rejected up front — before anything runs — with the list of valid
//! ones.

use std::env;
use std::fs;
use std::process::exit;

/// Every experiment, in presentation order.
const EXPERIMENTS: [&str; 17] = [
    "engine",
    "table3",
    "table4",
    "fig2",
    "fig3",
    "fig8",
    "fig11",
    "fig12",
    "fig13",
    "ablation",
    "faults",
    "integrity",
    "cluster",
    "cluster-failover",
    "cluster-gray",
    "anatomy",
    "store",
];

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut quick = false;
    let mut profile = false;
    let mut trace_out: Option<String> = None;
    let mut json_out: Option<String> = None;
    let mut requested: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--profile" => profile = true,
            // Machine-friendly enumeration (shell completion, CI loops).
            "--list" => {
                for e in EXPERIMENTS {
                    println!("{e}");
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
                eprintln!("flags: --quick --list --profile --trace-out FILE --json-out DIR");
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
        .filter(|w| *w != "all" && !EXPERIMENTS.contains(w))
        .collect();
    if !unknown.is_empty() {
        for u in &unknown {
            eprintln!("unknown experiment: {u}");
        }
        eprintln!("valid experiments: all {}", EXPERIMENTS.join(" "));
        exit(2);
    }

    let wanted: Vec<&str> = if requested.is_empty() || requested.contains(&"all") {
        EXPERIMENTS.to_vec()
    } else {
        requested
    };

    println!("DCS-ctrl reproduction harness (quick={quick})");
    println!("==============================================\n");
    // The engine rows are costly (every arm runs several times), so the
    // table and the JSON report share one collection.
    let mut engine_rows = Vec::new();
    for w in &wanted {
        let out = match *w {
            "engine" => {
                engine_rows = dcs_bench::engine::collect(quick);
                let mut out = dcs_bench::engine::render_rows(&engine_rows);
                if profile {
                    out.push('\n');
                    let rows = dcs_bench::engine::profile(quick);
                    out.push_str(&dcs_bench::engine::render_profile(&rows));
                }
                out
            }
            "fig2" => dcs_bench::fig2::render(4096),
            "fig3" => dcs_bench::fig3::render(16 * 1024, quick),
            "fig8" => dcs_bench::fig8::render(quick),
            "fig11" => dcs_bench::fig11::render(4096),
            "fig12" => dcs_bench::fig12::render(quick),
            "fig13" => dcs_bench::fig13::render(quick),
            "table3" => dcs_bench::table3::render(if quick { 1 << 19 } else { 4 << 20 }),
            "table4" => dcs_bench::table4::render(),
            "ablation" => dcs_bench::ablation::render(quick),
            "faults" => dcs_bench::faults::render(quick),
            // The integrity experiment doubles as the CI chaos smoke: a
            // fuzz violation writes repro artifacts and fails the run.
            "integrity" => {
                let mut out = dcs_bench::integrity::render(quick);
                match dcs_bench::integrity::fuzz_smoke(quick, std::path::Path::new("fuzz-repro")) {
                    Ok(summary) => out.push_str(&summary),
                    Err(violation) => {
                        println!("{out}");
                        eprintln!("{violation}");
                        exit(1);
                    }
                }
                out
            }
            "cluster" => dcs_bench::cluster::render(quick),
            "cluster-failover" => dcs_bench::cluster::render_failover(quick),
            "cluster-gray" => dcs_bench::cluster::render_gray(quick),
            "anatomy" => dcs_bench::anatomy::render(),
            "store" => dcs_bench::store::render(quick),
            other => unreachable!("validated above: {other}"),
        };
        println!("{out}");
        println!("----------------------------------------------\n");
    }

    if let Some(dir) = &json_out {
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            exit(1);
        }
        if wanted.contains(&"engine") {
            let profile = dcs_bench::engine::profile(quick);
            let path = format!("{dir}/BENCH_engine.json");
            let body = dcs_bench::engine::json_report(&engine_rows, &profile, quick).render();
            if let Err(e) = fs::write(&path, body) {
                eprintln!("cannot write {path}: {e}");
                exit(1);
            }
            println!("wrote {path}");
        }
        if wanted.contains(&"fig8") {
            let rows = dcs_bench::fig8::collect(quick);
            let path = format!("{dir}/BENCH_fig8.json");
            let body = dcs_bench::fig8::json_report(&rows).render();
            if let Err(e) = fs::write(&path, body) {
                eprintln!("cannot write {path}: {e}");
                exit(1);
            }
            println!("wrote {path}");
        }
        if wanted.contains(&"store") {
            let path = format!("{dir}/BENCH_cluster.json");
            let body = dcs_bench::store::json_report(quick).render();
            if let Err(e) = fs::write(&path, body) {
                eprintln!("cannot write {path}: {e}");
                exit(1);
            }
            println!("wrote {path}");
        }
    }

    if let Some(path) = &trace_out {
        let cap = dcs_bench::anatomy::capture(dcs_workloads::scenario::DesignUnderTest::DcsCtrl);
        if let Err(e) = fs::write(path, &cap.trace_json) {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        }
        println!(
            "wrote {path} ({} requests traced; open in Perfetto)",
            cap.requests.len()
        );
        print!("{}", cap.table);
    }
}
