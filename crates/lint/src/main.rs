//! CLI for the workspace determinism & invariant analyzer.
//!
//! ```text
//! cargo run -p dcs-lint -- --workspace            # report violations
//! cargo run -p dcs-lint -- --workspace --deny     # exit 1 on any active finding (CI)
//! cargo run -p dcs-lint -- --list-rules           # rule table
//! cargo run -p dcs-lint -- path/to/file.rs ...    # lint specific files
//! cargo run -p dcs-lint -- --workspace --format json  # machine-readable findings
//! ```
//!
//! Exit codes: 0 clean (or findings without `--deny`), 1 active
//! findings or stale baseline entries under `--deny`, 2 usage/IO error.

use std::path::PathBuf;
use std::process::ExitCode;

use dcs_lint::baseline::Baseline;
use dcs_lint::rules::{Suppression, RULES};
use dcs_lint::{run, workspace_files, Report};

/// Findings output format.
#[derive(PartialEq)]
enum Format {
    /// `file:line: [rule] message` lines plus a summary — the shape
    /// the CI problem matcher (.github/problem-matchers/dcs-lint.json)
    /// parses into PR annotations.
    Text,
    /// One JSON document with findings and counts.
    Json,
}

struct Args {
    workspace: bool,
    deny: bool,
    list_rules: bool,
    no_baseline: bool,
    baseline: Option<PathBuf>,
    root: PathBuf,
    paths: Vec<PathBuf>,
    format: Format,
}

fn usage() -> &'static str {
    "usage: dcs-lint [--workspace] [--deny] [--baseline FILE] [--no-baseline] \
     [--root DIR] [--format text|json] [--list-rules] [PATH...]"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workspace: false,
        deny: false,
        list_rules: false,
        no_baseline: false,
        baseline: None,
        root: PathBuf::from("."),
        paths: Vec::new(),
        format: Format::Text,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => args.workspace = true,
            "--deny" => args.deny = true,
            "--list-rules" => args.list_rules = true,
            "--no-baseline" => args.no_baseline = true,
            "--baseline" => {
                args.baseline = Some(PathBuf::from(it.next().ok_or("--baseline needs a path")?));
            }
            "--root" => args.root = PathBuf::from(it.next().ok_or("--root needs a path")?),
            "--format" => {
                args.format = match it.next().as_deref() {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    other => {
                        return Err(format!(
                            "--format needs `text` or `json`, got `{}`",
                            other.unwrap_or("")
                        ))
                    }
                };
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`\n{}", usage()));
            }
            path => args.paths.push(PathBuf::from(path)),
        }
    }
    if !args.workspace && !args.list_rules && args.paths.is_empty() {
        return Err(usage().to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    if args.list_rules {
        println!("{:<24} {:<12} summary", "rule", "family");
        for r in RULES {
            println!("{:<24} {:<12} {}", r.id, r.family, r.summary);
        }
        return ExitCode::SUCCESS;
    }

    let targets = if args.workspace {
        std::slice::from_ref(&args.root)
    } else {
        &args.paths[..]
    };
    let mut files = Vec::new();
    for p in targets {
        if !p.is_dir() {
            files.push(p.clone());
            continue;
        }
        match workspace_files(p) {
            Ok(f) => files.extend(f),
            Err(e) => {
                eprintln!("dcs-lint: walking {}: {e}", p.display());
                return ExitCode::from(2);
            }
        }
    }

    // Baseline: explicit path, or <root>/lint-baseline.toml when present.
    let baseline = if args.no_baseline {
        None
    } else {
        let path = args
            .baseline
            .clone()
            .unwrap_or_else(|| args.root.join("lint-baseline.toml"));
        match std::fs::read_to_string(&path) {
            Ok(text) => match Baseline::parse(&text) {
                Ok(b) => Some(b),
                Err(errors) => {
                    for e in errors {
                        eprintln!("{}: {e}", path.display());
                    }
                    return ExitCode::from(2);
                }
            },
            Err(_) if args.baseline.is_none() => None, // default baseline is optional
            Err(e) => {
                eprintln!("dcs-lint: reading {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    };

    let report = match run(&args.root, &files, baseline) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dcs-lint: {e}");
            return ExitCode::from(2);
        }
    };

    match args.format {
        Format::Text => print_report(&report),
        Format::Json => print_json(&report),
    }

    if args.deny && !report.clean() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn print_report(report: &Report) {
    for f in report.active() {
        println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
    }
    for s in &report.stale_baseline {
        println!("{s}");
    }
    let active = report.active().count();
    let pragma = report.suppressed_count(Suppression::Pragma);
    let grandfathered = report.suppressed_count(Suppression::Baseline);
    println!(
        "dcs-lint: {} file(s), {} active finding(s), {} pragma-allowed, {} baselined, {} stale baseline entr(ies)",
        report.files,
        active,
        pragma,
        grandfathered,
        report.stale_baseline.len()
    );
}

/// One JSON document on stdout: active findings (file/line/rule/
/// message) and suppression counts. Hand-rolled — the crate is
/// deliberately dependency-free.
fn print_json(report: &Report) {
    let findings = report
        .active()
        .map(|f| {
            format!(
                "    {{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
                json_escape(&f.file),
                f.line,
                f.rule,
                json_escape(&f.message)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let stale = report
        .stale_baseline
        .iter()
        .map(|s| format!("\"{}\"", json_escape(s)))
        .collect::<Vec<_>>()
        .join(",");
    println!("{{");
    println!("  \"files\": {},", report.files);
    println!("  \"active\": {},", report.active().count());
    println!(
        "  \"pragma_allowed\": {},",
        report.suppressed_count(Suppression::Pragma)
    );
    println!(
        "  \"baselined\": {},",
        report.suppressed_count(Suppression::Baseline)
    );
    println!("  \"stale_baseline\": [{stale}],");
    println!("  \"findings\": [\n{findings}\n  ]");
    println!("}}");
}

/// Minimal JSON string escaping.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::json_escape;

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
