//! `dcs-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (`rack-64`, `store-mixed` or `node-swift`) and prints
//! its digest line, then one JSON object as the last line of stdout:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured with tracing
//! off; with `--trace 1` they are the per-layer ones, and the traced run
//! writes its sim-time chrome trace and host-time spans to
//! `benchmark/out/`.

use std::path::Path;
use std::process::ExitCode;

use dcs_benchmark::metrics::{unit_of, END_TO_END, PER_LAYER};
use dcs_benchmark::run::{self, Outcome};
use dcs_benchmark::workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: dcs-benchmark --workload <rack-64|store-mixed|node-swift> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The result line, with every catalogued metric of the run's kind.
fn result_json(o: &Outcome, trace: bool) -> Result<String, String> {
    let catalogue = if trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for (name, _, _) in catalogue {
        let value = o
            .metrics
            .iter()
            .find(|m| m.0 == *name)
            .map(|m| m.1)
            .ok_or(format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            unit_of(name)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted.max(1),
        o.failed,
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dcs-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        run::traced(args.workload, args.seed, args.seconds, &out)
    } else {
        run::measured(args.workload, args.seed, args.seconds)
    };
    for p in &outcome.problems {
        eprintln!("dcs-benchmark: check failed: {p}");
    }
    if let Some((_, r)) = outcome
        .metrics
        .iter()
        .find(|m| m.0 == "model.cpu_reduction")
    {
        let beside = match args.workload {
            Workload::NodeSwift => "paper Fig 12a: 0.52",
            _ => "unvalidated: the paper measures no rack or store",
        };
        println!("model.cpu_reduction {r:.4} ({beside})");
    }
    println!(
        "digest {} seed {} trace {}: {:016x}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        outcome.digest
    );
    match result_json(&outcome, args.trace) {
        Ok(line) => {
            println!("{line}");
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("dcs-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
