//! # dcs-lint — workspace determinism & invariant analyzer
//!
//! A repo-specific static analysis pass for the DCS-ctrl reproduction.
//! The simulator's entire evaluation rests on bit-identical same-seed
//! replay; this tool machine-checks the source-level discipline that
//! property depends on, the way sanitizers and race detectors guard a
//! real serving stack. See DESIGN.md §10 for the policy and
//! [`rules::RULES`] for the rule list.
//!
//! Built on a hand-rolled token scanner ([`lexer`]) rather than `syn`
//! because the workspace builds fully offline; the rules only need
//! token patterns, not types.
//!
//! Run it as:
//!
//! ```text
//! cargo run -p dcs-lint -- --workspace            # report
//! cargo run -p dcs-lint -- --workspace --deny     # CI gate
//! ```
//!
//! Suppression, from most to least local:
//!
//! * `// dcs-lint: allow(rule) — reason` on (or directly above) the
//!   offending line;
//! * `// dcs-lint: allow-file(rule) — reason` anywhere in the file;
//! * an entry in `lint-baseline.toml` (see [`baseline`]).

pub mod baseline;
pub mod lexer;
pub mod rules;

use std::path::{Path, PathBuf};

use baseline::Baseline;
use rules::{
    check_file, check_workspace, is_workspace_rule, rule_exists, Finding, SourceFile, Suppression,
};

/// A parsed `// dcs-lint: allow(...)` pragma.
#[derive(Debug)]
struct Pragma {
    /// Rules it allows.
    rules: Vec<String>,
    /// Source line the comment sits on.
    comment_line: u32,
    /// Whether it applies to the whole file.
    whole_file: bool,
    /// Whether a non-empty reason followed the rule list.
    has_reason: bool,
}

/// Parses every dcs-lint pragma out of the file's line comments.
fn parse_pragmas(lexed: &lexer::Lexed) -> Vec<Pragma> {
    let mut pragmas = Vec::new();
    for c in &lexed.comments {
        // Doc comments (`///`, `//!`) describe the pragma syntax in
        // prose; only plain `//` comments carry live pragmas.
        if c.text.starts_with("///") || c.text.starts_with("//!") {
            continue;
        }
        let Some(at) = c.text.find("dcs-lint:") else {
            continue;
        };
        let rest = c.text[at + "dcs-lint:".len()..].trim_start();
        let whole_file = rest.starts_with("allow-file(");
        let prefix = if whole_file { "allow-file(" } else { "allow(" };
        if !rest.starts_with(prefix) {
            continue;
        }
        let body = &rest[prefix.len()..];
        let Some(close) = body.find(')') else {
            continue;
        };
        let rules: Vec<String> = body[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        // A reason follows an em-dash or hyphen separator.
        let tail = body[close + 1..].trim_start();
        let has_reason = ["—", "--", "-"]
            .iter()
            .any(|sep| tail.strip_prefix(sep).is_some_and(|r| !r.trim().is_empty()));
        pragmas.push(Pragma {
            rules,
            comment_line: c.line,
            whole_file,
            has_reason,
        });
    }
    pragmas
}

/// Analyzes one file in isolation: runs the per-file rules, then
/// applies pragma suppression. Baseline suppression is layered on by
/// the caller via [`Baseline::apply`] (it is stateful across files).
/// The workspace pass ([`rules::check_workspace`]) does not run here —
/// use [`run`] for the full pipeline.
///
/// `rel` is the workspace-relative path — rules use it for crate
/// scoping, and reports print it verbatim.
pub fn analyze_source(rel: &str, src: &str) -> Vec<Finding> {
    let lexed = lexer::lex(src);
    let mut findings = check_file(rel, src);
    apply_pragmas(rel, &lexed, &mut findings, false);
    findings.sort_by_key(|f| f.line);
    findings
}

/// Applies this file's pragmas to `findings` (which must already hold
/// every finding for the file — per-file and, in the full pipeline,
/// workspace ones), appending the meta findings pragma application
/// itself produces (`pragma-missing-reason`, `stale-pragma`).
///
/// `workspace_pass` says whether `findings` includes the workspace
/// rules: a pragma for those can only be judged stale when they
/// actually ran.
fn apply_pragmas(
    rel: &str,
    lexed: &lexer::Lexed,
    findings: &mut Vec<Finding>,
    workspace_pass: bool,
) {
    let pragmas = parse_pragmas(lexed);

    // Lines that carry at least one token: a pragma on a comment-only
    // line targets the next such line.
    let mut code_lines: Vec<u32> = lexed.tokens.iter().map(|t| t.line).collect();
    code_lines.sort_unstable();
    code_lines.dedup();
    let next_code_line = |after: u32| -> Option<u32> {
        let idx = code_lines.partition_point(|&l| l <= after);
        code_lines.get(idx).copied()
    };

    for p in &pragmas {
        let mut all_rules_known = true;
        for rule in &p.rules {
            if !rule_exists(rule) {
                all_rules_known = false;
                findings.push(Finding {
                    rule: "pragma-missing-reason",
                    file: rel.to_string(),
                    line: p.comment_line,
                    message: format!("pragma allows unknown rule `{rule}`"),
                    suppressed: None,
                });
            }
        }
        if !p.has_reason {
            findings.push(Finding {
                rule: "pragma-missing-reason",
                file: rel.to_string(),
                line: p.comment_line,
                message: "allow pragma without a reason — write `// dcs-lint: allow(rule) — why`"
                    .to_string(),
                suppressed: None,
            });
            continue; // a reasonless pragma suppresses nothing
        }
        let target = if p.whole_file {
            None // matches every line
        } else if code_lines.binary_search(&p.comment_line).is_ok() {
            Some(p.comment_line)
        } else {
            next_code_line(p.comment_line)
        };
        let mut used = 0usize;
        for f in findings.iter_mut() {
            if f.suppressed.is_some() {
                continue;
            }
            let line_matches = target.is_none_or(|t| f.line == t);
            if line_matches && p.rules.iter().any(|r| r == f.rule) {
                f.suppressed = Some(Suppression::Pragma);
                used += 1;
            }
        }
        // A reasoned pragma for known rules that suppressed nothing is
        // itself a finding: the violation it waived is gone. Judged
        // only when every rule it names actually ran this pass.
        let judgeable = workspace_pass || p.rules.iter().all(|r| !is_workspace_rule(r));
        if used == 0 && all_rules_known && judgeable && !p.rules.is_empty() {
            findings.push(Finding {
                rule: "stale-pragma",
                file: rel.to_string(),
                line: p.comment_line,
                message: format!(
                    "allow pragma for `{}` suppressed nothing — the violation it waived is \
                     gone; delete the pragma",
                    p.rules.join(", ")
                ),
                suppressed: None,
            });
        }
    }
}

/// The text of 1-based `line` in `src` ("" when out of range).
pub fn source_line(src: &str, line: u32) -> &str {
    src.lines()
        .nth(line.saturating_sub(1) as usize)
        .unwrap_or("")
}

/// Recursively collects the workspace `.rs` files to lint, relative to
/// `root`. Skips build output, VCS metadata, and the linter's own rule
/// fixtures (which are violations on purpose).
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if name == "target" || name.starts_with('.') || name == "fixtures" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Everything one linter invocation produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings across every file, active and suppressed.
    pub findings: Vec<Finding>,
    /// Stale baseline entries (matched nothing), as display strings.
    pub stale_baseline: Vec<String>,
    /// Files scanned.
    pub files: usize,
}

impl Report {
    /// Findings that count against `--deny`.
    pub fn active(&self) -> impl Iterator<Item = &Finding> + '_ {
        self.findings.iter().filter(|f| f.suppressed.is_none())
    }

    /// Number of findings suppressed by `kind`.
    pub fn suppressed_count(&self, kind: Suppression) -> usize {
        self.findings
            .iter()
            .filter(|f| f.suppressed == Some(kind))
            .count()
    }

    /// True when the run is clean: no active findings, no stale
    /// baseline entries.
    pub fn clean(&self) -> bool {
        self.active().next().is_none() && self.stale_baseline.is_empty()
    }
}

/// Lints `files` (absolute or root-relative paths), reporting paths
/// relative to `root`, with optional baseline suppression.
///
/// This is the full two-pass pipeline (DESIGN.md §15): lex every file
/// once, run the per-file rules and the workspace rules (crate-scoped
/// isolation, cross-file semantic), merge per file, then apply pragmas
/// exactly once over the merged set, then the baseline.
pub fn run(
    root: &Path,
    files: &[PathBuf],
    mut baseline: Option<Baseline>,
) -> std::io::Result<Report> {
    let mut sources = Vec::with_capacity(files.len());
    for path in files {
        let src = std::fs::read_to_string(path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push(SourceFile::new(rel, src));
    }
    let ws_findings = check_workspace(&sources);

    let mut report = Report {
        files: files.len(),
        ..Default::default()
    };
    for file in &sources {
        let mut findings = check_file(&file.rel, &file.src);
        // Claim this file's share of the workspace findings.
        findings.extend(ws_findings.iter().filter(|f| f.file == file.rel).cloned());
        apply_pragmas(&file.rel, &file.lexed, &mut findings, true);
        findings.sort_by_key(|f| f.line);
        if let Some(b) = baseline.as_mut() {
            for f in findings.iter_mut() {
                let line = source_line(&file.src, f.line);
                b.apply(f, line);
            }
        }
        report.findings.extend(findings);
    }
    if let Some(b) = baseline {
        for e in b.stale() {
            report.stale_baseline.push(format!(
                "lint-baseline.toml:{}: stale entry (rule `{}`, file `{}`) matches nothing — delete it",
                e.decl_line, e.rule, e.file
            ));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pragma_on_same_line_suppresses() {
        let src =
            "use std::collections::HashMap; // dcs-lint: allow(hash-collection) — index only\n";
        let f = analyze_source("crates/x/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].suppressed, Some(Suppression::Pragma));
    }

    #[test]
    fn pragma_on_previous_line_suppresses_next_code_line() {
        let src = "\
// dcs-lint: allow(hash-collection) — justified here
// (continued commentary)
use std::collections::HashMap;
";
        let f = analyze_source("crates/x/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].suppressed, Some(Suppression::Pragma));
    }

    #[test]
    fn pragma_without_reason_suppresses_nothing_and_is_flagged() {
        let src = "use std::collections::HashMap; // dcs-lint: allow(hash-collection)\n";
        let f = analyze_source("crates/x/src/lib.rs", src);
        assert!(f
            .iter()
            .any(|f| f.rule == "pragma-missing-reason" && f.suppressed.is_none()));
        assert!(f
            .iter()
            .any(|f| f.rule == "hash-collection" && f.suppressed.is_none()));
    }

    #[test]
    fn pragma_for_other_rule_does_not_suppress() {
        let src = "use std::collections::HashMap; // dcs-lint: allow(wall-clock) — wrong rule\n";
        let f = analyze_source("crates/x/src/lib.rs", src);
        assert!(f
            .iter()
            .any(|f| f.rule == "hash-collection" && f.suppressed.is_none()));
    }

    #[test]
    fn allow_file_suppresses_every_occurrence() {
        let src = "\
// dcs-lint: allow-file(hash-collection) — interior index, never iterated
use std::collections::HashMap;
struct A { x: HashMap<u8, u8> }
struct B { y: HashMap<u8, u8> }
";
        let f = analyze_source("crates/x/src/lib.rs", src);
        assert!(f.iter().filter(|f| f.rule == "hash-collection").count() >= 3);
        assert!(
            f.iter().all(|f| f.suppressed == Some(Suppression::Pragma)),
            "{f:?}"
        );
    }

    #[test]
    fn unknown_rule_in_pragma_is_flagged() {
        let src = "let x = 1; // dcs-lint: allow(nonsense) — reason\n";
        let f = analyze_source("crates/x/src/lib.rs", src);
        assert!(f
            .iter()
            .any(|f| f.rule == "pragma-missing-reason" && f.message.contains("unknown rule")));
    }
}
