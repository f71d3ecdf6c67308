//! The five determinism and invariant rules clippy cannot express
//! (DESIGN.md §10), as token rules over `crates/*`, `src`, `tests` and
//! `examples` with comments and literals stripped. Clippy enforces the
//! rest from the root `clippy.toml` and `[workspace.lints]`.
//!
//! * `float-in-sim-state`: an `f32`/`f64` field of a cluster or store
//!   struct that is not a `*Config`/`*Spec` input or a `*Perf`/`*Report`
//!   output. Evolving state must be fixed-point to replay bit for bit.
//! * `report-field-never-written`: a `*Report`/`*Perf` field nothing in
//!   the workspace writes; it renders as a permanent zero.
//! * `unwrap-in-recovery-path`: `.unwrap()`/`.expect(..)` in a
//!   recovery-named fn (reset, abort, timeout, ...), which runs exactly
//!   when state is already damaged.
//! * `wildcard-event-arm`: an empty `_ => {}` arm in the NVMe, NIC or
//!   PCIe crates drops protocol events. `clippy::wildcard_enum_match_arm`
//!   misses integer matches such as MMIO register offsets.
//! * `lossy-cast`: a narrowing `as` cast of a time- or address-named
//!   value. `clippy::cast_possible_truncation` flags every narrowing cast.
//!
//! Test code is exempt. A sanctioned site carries
//! `// dcs-lint: allow(rule) — reason` on its line or on a comment line
//! above it. A pragma without a reason, one that suppresses nothing and
//! one naming a rule this file does not own all fail.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The rules this file owns; a pragma may name only these.
const RULES: [&str; 5] = [
    "float-in-sim-state",
    "report-field-never-written",
    "unwrap-in-recovery-path",
    "wildcard-event-arm",
    "lossy-cast",
];

/// An identifier, a number, or one punctuation character, with its
/// line.
struct Tok(String, u32);

impl Tok {
    fn is(&self, s: &str) -> bool {
        self.0 == s
    }

    fn ident(&self) -> Option<&str> {
        let c = self.0.chars().next()?;
        (c.is_alphabetic() || c == '_').then_some(&self.0)
    }
}

/// One file: its workspace-relative path, its tokens, and its `//`
/// comments with their lines.
struct Source {
    path: String,
    toks: Vec<Tok>,
    comments: Vec<(u32, String)>,
}

/// A violation: file, line, rule id (or `pragma` for a misused
/// pragma) and message.
#[derive(Debug)]
struct Finding(String, u32, &'static str, String);

/// Index just past the literal whose opening quote is at `open`;
/// `raw` holds a raw string's `#` count. Counts the newlines it skips.
fn skip_literal(c: &[char], open: usize, raw: Option<usize>, line: &mut u32) -> usize {
    let quote = c[open];
    let mut j = open + 1;
    while j < c.len() {
        match c[j] {
            '\n' => *line += 1,
            '\\' if raw.is_none() => {
                j += 1;
                if c.get(j) == Some(&'\n') {
                    *line += 1;
                }
            }
            q if q == quote => {
                let end = j + 1 + raw.unwrap_or(0);
                if c.get(j + 1..end)
                    .is_some_and(|h| h.iter().all(|&x| x == '#'))
                {
                    return end;
                }
            }
            _ => {}
        }
        j += 1;
    }
    c.len()
}

/// Splits `src` into tokens, dropping literals and comments (keeping
/// the `//` ones aside for pragmas).
fn lex(path: &str, src: &str) -> Source {
    let c: Vec<char> = src.chars().collect();
    let (mut toks, mut comments) = (Vec::new(), Vec::new());
    let (mut i, mut line) = (0, 1u32);
    while i < c.len() {
        let ch = c[i];
        let next = c.get(i + 1).copied();
        if ch == '\n' {
            line += 1;
            i += 1;
        } else if ch.is_whitespace() {
            i += 1;
        } else if ch == '/' && next == Some('/') {
            let end = c[i..]
                .iter()
                .position(|&x| x == '\n')
                .map_or(c.len(), |p| i + p);
            comments.push((line, c[i..end].iter().collect()));
            i = end;
        } else if ch == '/' && next == Some('*') {
            let mut depth = 0;
            while i < c.len() {
                match (c[i], c.get(i + 1)) {
                    ('/', Some('*')) => (depth, i) = (depth + 1, i + 2),
                    ('*', Some('/')) => (depth, i) = (depth - 1, i + 2),
                    ('\n', _) => (line, i) = (line + 1, i + 1),
                    _ => i += 1,
                }
                if depth == 0 {
                    break;
                }
            }
        } else if ch == '"' {
            i = skip_literal(&c, i, None, &mut line);
        } else if ch == '\'' {
            // A char literal (`'x'`, `'\''`), else a lifetime, whose
            // name then lexes as an identifier.
            if next == Some('\\') {
                i = skip_literal(&c, i, None, &mut line);
            } else if c.get(i + 2) == Some(&'\'') {
                i += 3;
            } else {
                i += 1;
            }
        } else if ch.is_alphanumeric() || ch == '_' {
            let start = i;
            while i < c.len() && (c[i].is_alphanumeric() || c[i] == '_') {
                i += 1;
            }
            let word: String = c[start..i].iter().collect();
            // String prefixes: `b"…"`, `b'…'`, `r"…"`, `r#"…"#`, `br"…"`.
            let raw = matches!(word.as_str(), "r" | "br");
            let hashes = c[i..].iter().take_while(|&&h| raw && h == '#').count();
            if (raw || word == "b") && c.get(i + hashes) == Some(&'"') {
                i = skip_literal(&c, i + hashes, raw.then_some(hashes), &mut line);
            } else if word != "b" || c.get(i) != Some(&'\'') {
                toks.push(Tok(word, line));
            }
        } else {
            toks.push(Tok(ch.into(), line));
            i += 1;
        }
    }
    Source {
        path: path.to_string(),
        toks,
        comments,
    }
}

/// True when the tokens from `at` on spell `pat`.
fn seq(toks: &[Tok], at: usize, pat: &[&str]) -> bool {
    pat.iter()
        .enumerate()
        .all(|(j, p)| toks.get(at + j).is_some_and(|t| t.is(p)))
}

/// Index of the `}` closing the `{` at `open` (the end when unclosed).
fn close_of(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is("{") {
            depth += 1;
        } else if t.is("}") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    toks.len()
}

/// Token ranges of `#[cfg(test)]` items and `#[test]` fns.
fn test_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let attr = seq(toks, i, &["#", "[", "cfg", "(", "test", ")", "]"])
            || seq(toks, i, &["#", "[", "test", "]"]);
        if let Some(open) = attr
            .then(|| toks[i..].iter().position(|t| t.is("{")))
            .flatten()
        {
            ranges.push((i, close_of(toks, i + open) + 1));
            i += open;
        }
        i += 1;
    }
    ranges
}

/// The innermost enclosing fn's name per token ("" at module scope).
fn fn_names(toks: &[Tok]) -> Vec<&str> {
    let mut names = vec![""; toks.len()];
    // (name, depth its body opened at); `None` until the body's `{`.
    let mut stack: Vec<(&str, Option<u32>)> = Vec::new();
    let mut depth = 0u32;
    for (i, t) in toks.iter().enumerate() {
        if t.is("fn") {
            if let Some(name) = toks.get(i + 1).and_then(Tok::ident) {
                stack.push((name, None));
            }
        } else if t.is("{") {
            if let Some(top) = stack.last_mut().filter(|top| top.1.is_none()) {
                top.1 = Some(depth);
            }
            depth += 1;
        } else if t.is("}") {
            depth = depth.saturating_sub(1);
            if stack.last().is_some_and(|top| top.1 == Some(depth)) {
                stack.pop();
            }
        } else if t.is(";") && stack.last().is_some_and(|top| top.1.is_none()) {
            stack.pop(); // a bodiless trait method
        }
        if let Some(&(name, Some(_))) = stack.last() {
            names[i] = name;
        }
    }
    names
}

/// `(end, Some(open))` for a `struct`/`enum` at `i` with a field block
/// `{…}`; `(end, None)` for a tuple or unit declaration.
fn decl_span(toks: &[Tok], i: usize) -> (usize, Option<usize>) {
    let open = toks[i..]
        .iter()
        .position(|t| t.is("{") || t.is("(") || t.is(";"))
        .map_or(toks.len(), |p| i + p);
    match toks.get(open) {
        Some(t) if t.is("{") => (close_of(toks, open), Some(open)),
        _ => (open, None),
    }
}

/// True when the token at `k` names a field: `name :` but not a path.
fn is_field_name(toks: &[Tok], k: usize) -> bool {
    toks[k].ident().is_some()
        && toks.get(k + 1).is_some_and(|t| t.is(":"))
        && !toks.get(k + 2).is_some_and(|t| t.is(":"))
        && !(k >= 1 && toks[k - 1].is(":"))
}

/// Recovery fns run when device state is already damaged.
fn is_recovery_fn(name: &str) -> bool {
    let marks = "recover reset abort retransmit resubmit watchdog timed_out timeout poison fail_";
    marks.split(' ').any(|m| name.contains(m)) || name == "fail"
}

/// Names that carry 64-bit simulated-time or address quantities.
fn is_wide_name(name: &str) -> bool {
    let n = name.to_ascii_lowercase();
    n.contains("time") || n.contains("addr") || n.ends_with("_ns") || n == "now" || n == "lba"
}

/// True when `path` lies in one of the crates `names`.
fn in_crates(path: &str, names: &[&str]) -> bool {
    names
        .iter()
        .any(|n| path.starts_with(&format!("crates/{n}/")))
}

/// The value an `as` at `i` casts: `name`, `x.name`, `name.0` or
/// `name(…)`.
fn cast_source(toks: &[Tok], i: usize) -> Option<&str> {
    let mut j = i.checked_sub(1)?;
    if toks[j].is(")") {
        let mut depth = 0;
        loop {
            if toks[j].is(")") {
                depth += 1;
            } else if toks[j].is("(") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j = j.checked_sub(1)?;
        }
        j = j.checked_sub(1)?;
    } else if toks[j].0.starts_with(|c: char| c.is_ascii_digit()) && j >= 2 && toks[j - 1].is(".") {
        j -= 2;
    }
    toks[j].ident()
}

/// The four single-file rules.
fn file_rules(s: &Source, out: &mut Vec<Finding>) {
    let toks = &s.toks;
    let tests = test_ranges(toks);
    let fns = fn_names(toks);
    let fixed_point = in_crates(&s.path, &["cluster", "store"]);
    let protocol = in_crates(&s.path, &["nvme", "nic", "pcie"]);
    let mut hit = |rule, line, msg| out.push(Finding(s.path.clone(), line, rule, msg));
    for (i, t) in toks.iter().enumerate() {
        if tests.iter().any(|&(a, b)| (a..b).contains(&i)) {
            continue;
        }
        if fixed_point && t.is("struct") {
            let name = toks.get(i + 1).and_then(Tok::ident).unwrap_or("");
            let exempt = ["Config", "Perf", "Report", "Spec"];
            if let (close, Some(open)) = decl_span(toks, i) {
                if exempt.iter().any(|x| name.ends_with(x)) {
                    continue;
                }
                for k in (open + 1..close).filter(|&k| toks[k].is("f32") || toks[k].is("f64")) {
                    let field = (open + 1..k)
                        .rev()
                        .find(|&j| is_field_name(toks, j))
                        .map_or("", |j| &toks[j].0);
                    let msg = format!("`{name}.{field}` is a float; state must be fixed-point");
                    hit("float-in-sim-state", toks[k].1, msg);
                }
            }
        }
        let call = i >= 1 && toks[i - 1].is(".") && toks.get(i + 1).is_some_and(|n| n.is("("));
        if (t.is("unwrap") || t.is("expect")) && call && is_recovery_fn(fns[i]) {
            let msg = format!("`.{}` in recovery fn `{}`: tolerate damage", t.0, fns[i]);
            hit("unwrap-in-recovery-path", t.1, msg);
        }
        if protocol
            && t.is("_")
            && seq(toks, i + 1, &["=", ">"])
            && (seq(toks, i + 3, &["{", "}"]) || seq(toks, i + 3, &["(", ")"]))
        {
            let msg = "an empty `_ => {}` arm drops protocol events".to_string();
            hit("wildcard-event-arm", t.1, msg);
        }
        let narrow = ["u8", "u16", "u32", "i8", "i16", "i32"];
        let target = toks.get(i + 1).map_or("", |n| n.0.as_str());
        if t.is("as") && narrow.contains(&target) {
            if let Some(name) = cast_source(toks, i).filter(|n| is_wide_name(n)) {
                let msg = format!("`{name} as {target}` can truncate; use try_into()");
                hit("lossy-cast", t.1, msg);
            }
        }
    }
}

/// `report-field-never-written`, across every file. Any plausible
/// write counts (`x.f = …`, `x.f += …`, `x.f.method(…)`, `&mut x.f`,
/// `f: …` outside a type declaration), so the rule errs toward silence.
fn report_liveness(sources: &[Source], out: &mut Vec<Finding>) {
    let mut fields = Vec::new(); // (file, struct, field, line)
    let mut decls: Vec<Vec<(usize, usize)>> = Vec::new();
    for s in sources {
        let toks = &s.toks;
        let tests = test_ranges(toks);
        let mut spans = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            if !(t.is("struct") || t.is("enum")) {
                continue;
            }
            let (end, open) = decl_span(toks, i);
            spans.push((i, end + 1));
            let name = toks.get(i + 1).and_then(Tok::ident).unwrap_or("");
            let in_test = tests.iter().any(|&(a, b)| (a..b).contains(&i));
            let output = name.ends_with("Report") || name.ends_with("Perf");
            if let Some(open) = open.filter(|_| t.is("struct") && output && !in_test) {
                for k in (open + 1..end).filter(|&k| is_field_name(toks, k)) {
                    fields.push((&s.path, name, &toks[k].0, toks[k].1));
                }
            }
        }
        decls.push(spans);
    }
    let names: BTreeSet<&str> = fields.iter().map(|f| f.2.as_str()).collect();
    let mut written = BTreeSet::new();
    for (s, spans) in sources.iter().zip(&decls) {
        let toks = &s.toks;
        for (i, t) in toks.iter().enumerate() {
            if !names.contains(t.0.as_str()) {
                continue;
            }
            let at = |k: usize, p: &str| toks.get(k).is_some_and(|t| t.is(p));
            let prev_dot = i >= 1 && at(i - 1, ".");
            let compound = toks
                .get(i + 1)
                .is_some_and(|t| t.0.len() == 1 && "+-*/%&|^<>".contains(&t.0));
            let assign = (at(i + 1, "=") && !at(i + 2, "="))
                || (compound && (at(i + 2, "=") || at(i + 3, "=")));
            let method =
                at(i + 1, ".") && toks.get(i + 2).and_then(Tok::ident).is_some() && at(i + 3, "(");
            let init = !spans.iter().any(|&(a, b)| (a..b).contains(&i))
                && (i == 0 || !at(i - 1, ":"))
                && at(i + 1, ":")
                && !at(i + 2, ":");
            // `&mut a.b.f`: walk back over the field path.
            let mut k = i;
            while k >= 2 && at(k - 1, ".") && toks[k - 2].ident().is_some() {
                k -= 2;
            }
            let borrow = prev_dot && k >= 2 && at(k - 1, "mut") && at(k - 2, "&");
            if (prev_dot && (assign || method)) || init || borrow {
                written.insert(t.0.as_str());
            }
        }
    }
    let rule = "report-field-never-written";
    for (path, name, field, line) in fields {
        if !written.contains(field.as_str()) {
            let msg = format!("nothing writes `{name}.{field}`; wire it up or delete it");
            out.push(Finding(path.clone(), line, rule, msg));
        }
    }
}

/// Runs every rule over `files` (path, source) as one workspace and
/// applies their pragmas. Returns what is left, plus pragma misuse.
fn lint(files: &[(String, String)]) -> Vec<Finding> {
    let sources: Vec<Source> = files.iter().map(|(p, s)| lex(p, s)).collect();
    let mut found = Vec::new();
    for s in &sources {
        file_rules(s, &mut found);
    }
    report_liveness(&sources, &mut found);
    let mut misuse = Vec::new();
    for s in &sources {
        let mut code_lines: Vec<u32> = s.toks.iter().map(|t| t.1).collect();
        code_lines.dedup();
        for (line, text) in &s.comments {
            if text.starts_with("///") || text.starts_with("//!") {
                continue;
            }
            let Some(at) = text.find("dcs-lint:") else {
                continue;
            };
            let mut flag = |msg: String| misuse.push(Finding(s.path.clone(), *line, "pragma", msg));
            let body = text[at + "dcs-lint:".len()..].trim_start();
            let Some((list, tail)) = body.strip_prefix("allow(").and_then(|b| b.split_once(')'))
            else {
                flag("malformed pragma: write `// dcs-lint: allow(rule) — reason`".into());
                continue;
            };
            let rules: Vec<&str> = list.split(',').map(str::trim).collect();
            if let Some(foreign) = rules.iter().find(|r| !RULES.contains(r)) {
                flag(format!(
                    "`{foreign}` is not a rule of this file (clippy's take #[expect])"
                ));
                continue;
            }
            let tail = tail.trim_start();
            let reasoned = ["—", "--", "-"]
                .iter()
                .any(|sep| tail.strip_prefix(sep).is_some_and(|r| !r.trim().is_empty()));
            if !reasoned {
                flag("pragma without a reason suppresses nothing".into());
                continue;
            }
            // A pragma on a comment-only line covers the next code line.
            let target = code_lines.iter().find(|&&l| l >= *line).copied();
            let before = found.len();
            found.retain(|f| !(f.0 == s.path && Some(f.1) == target && rules.contains(&f.2)));
            if found.len() == before {
                flag("stale pragma: it suppressed nothing".into());
            }
        }
    }
    found.extend(misuse);
    found.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
    found
}

/// Every `.rs` file under `crates/`, `src/`, `tests/` and `examples/`,
/// as (workspace-relative path, source).
fn workspace_sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut stack: Vec<PathBuf> = ["crates", "src", "tests", "examples"]
        .iter()
        .map(|d| root.join(d))
        .collect();
    let mut files = Vec::new();
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir).expect("workspace directory is readable") {
            let path = entry.expect("directory entry").path();
            let name = path
                .file_name()
                .map_or(String::new(), |n| n.to_string_lossy().into());
            if path.is_dir() && name != "target" && !name.starts_with('.') {
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path.strip_prefix(root).expect("under the root");
                let rel = rel.to_string_lossy().replace('\\', "/");
                files.push((rel, fs::read_to_string(&path).expect("source is UTF-8")));
            }
        }
    }
    files.sort();
    files
}

/// Files linted together, as (path, source).
type Files = &'static [(&'static str, &'static str)];

/// A rule's self-test: the rule, its fixture files, and the lines of
/// the first file it must flag. Line 1 of each fixture is clean.
struct Case(&'static str, Files, &'static [u32]);

const FLOAT: &str = r#"pub struct HealthConfig { pub repair_gbps: f64 }
pub struct NodePerf { pub cpu_utilization: f64 }
pub struct ClusterReport { pub goodput: f64 }
pub struct TenantSpec { pub weight: f64 }
pub struct Gbps(pub f64);
struct Driver {
    ewma_ns: u64,
    mean_gap_ns: f64,
    weights: Vec<f64>,
}
#[cfg(test)]
mod tests {
    struct Fixture { jitter: f64 }
}
"#;

const REPORT_DECL: &str = r#"pub struct SweepReport {
    pub completed_ops: u64,
    pub dead_metric: u64,
    pub notes: Vec<String>,
}
pub struct LatencyPerf {
    pub p50_ns: u64,
    pub orphan_ns: u64,
}
pub struct ScratchState {
    pub untouched: u64,
}
"#;

/// Writes in another file: assignment, mutator call, struct literal.
const REPORT_WRITER: &str = r#"pub fn render(r: &mut SweepReport) {
    r.completed_ops = 1;
    r.notes.push(String::from("phase done"));
}
pub fn build() -> LatencyPerf {
    LatencyPerf { p50_ns: 42, ..Default::default() }
}
"#;

const RECOVERY: &str = r#"use dcs_sim::{FaultPlan, World};
fn on_watchdog(x: Option<u32>) -> u32 { x.expect("live op") }
fn fail_job(x: Option<u32>) -> u32 { x.unwrap() }
fn controller_reset(x: Option<u32>) -> u32 { x.expect("queue") }
fn helper(x: Option<u32>) -> u32 { x.expect("fine outside recovery") }
fn resubmit_chunk(w: &mut World) {
    let plan = w.expect::<FaultPlan>();
}
#[cfg(test)]
mod tests {
    fn fail_job(x: Option<u32>) -> u32 { x.unwrap() }
}
"#;

const WILDCARD: &str = r#"enum Event { Doorbell, Completion, Reset }
fn handle(e: Event) {
    match e {
        Event::Doorbell => ring(),
        _ => {}
    }
}
fn register(offset: u64) {
    match offset { 0x00 => ring(), _ => () }
}
fn strict(offset: u64) {
    match offset { 0x00 => ring(), _ => panic!("unmodeled register {offset:#x}") }
}
#[test]
fn step() { match 3 { _ => {} } }
"#;

const LOSSY: &str = r#"use dcs_sim::SimTime;
fn truncations(deadline_time: u64, dma_addr: u64, count: u64) -> (u32, u16, u32) {
    let t = deadline_time as u32;
    let a = dma_addr as u16;
    let fine = count as u32;
    let wide = deadline_time as u64;
    (t, a, fine)
}
fn through_fields(t: SimTime) -> (u32, u32) {
    (t.start_time.0 as u32, now() as u32)
}
#[cfg(test)]
mod tests {
    fn f(lba: u64) -> u32 { lba as u32 }
}
"#;

const CASES: [Case; 5] = [
    Case(
        "float-in-sim-state",
        &[("crates/cluster/src/driver.rs", FLOAT)],
        &[8, 9],
    ),
    Case(
        "report-field-never-written",
        &[
            ("crates/cluster/src/report.rs", REPORT_DECL),
            ("crates/cluster/src/render.rs", REPORT_WRITER),
        ],
        &[3, 8],
    ),
    Case(
        "unwrap-in-recovery-path",
        &[("crates/host/src/recovery.rs", RECOVERY)],
        &[2, 3, 4],
    ),
    Case(
        "wildcard-event-arm",
        &[("crates/nvme/src/device.rs", WILDCARD)],
        &[5, 9],
    ),
    Case(
        "lossy-cast",
        &[("crates/core/src/engine.rs", LOSSY)],
        &[3, 4, 10, 10],
    ),
];

fn lines_of(found: &[Finding], rule: &str) -> Vec<u32> {
    found.iter().filter(|f| f.2 == rule).map(|f| f.1).collect()
}

/// The lines `rule` flags in `src` linted alone as `path`.
fn hits(path: &str, src: &str, rule: &str) -> Vec<u32> {
    lines_of(&lint(&[(path.into(), src.into())]), rule)
}

/// The messages of the findings on `line` of `src` linted as `path`.
fn messages(path: &str, src: &str, line: u32) -> Vec<String> {
    let found = lint(&[(path.into(), src.into())]);
    found
        .into_iter()
        .filter(|f| f.1 == line)
        .map(|f| f.3)
        .collect()
}

/// Lints `case` with `pragma` inserted as a new line before line `at`
/// of its first file, and checks which lines its rule still flags and
/// which lines hold a misused pragma.
fn check(case: &Case, pragma: Option<(u32, &str)>, flagged: &[u32], misused: &[u32]) {
    let Case(rule, files, _) = case;
    let files: Vec<(String, String)> = files
        .iter()
        .enumerate()
        .map(|(n, (path, src))| {
            let mut lines: Vec<&str> = src.lines().collect();
            if let Some((at, text)) = pragma.filter(|_| n == 0) {
                lines.insert(at as usize - 1, text);
            }
            (path.to_string(), lines.join("\n"))
        })
        .collect();
    let found = lint(&files);
    assert_eq!(lines_of(&found, rule), flagged, "{rule}: {found:#?}");
    assert_eq!(lines_of(&found, "pragma"), misused, "{rule}: {found:#?}");
}

/// A reasoned pragma for `case`'s rule; every fixture line at or after
/// an inserted pragma moves down by one.
fn reasoned(case: &Case) -> (String, Vec<u32>) {
    let pragma = format!(
        "    // dcs-lint: allow({}) — fixture: sanctioned here",
        case.0
    );
    (pragma, case.2.iter().map(|l| l + 1).collect())
}

#[test]
fn each_rule_flags_exactly_its_fixture_lines() {
    for case in &CASES {
        check(case, None, case.2, &[]);
    }
}

#[test]
fn float_state_flags_only_structs_that_are_not_inputs_or_outputs() {
    let (path, rule) = ("crates/cluster/src/driver.rs", "float-in-sim-state");
    assert_eq!(hits(path, FLOAT, rule), [8, 9]);
    let renamed = FLOAT
        .replace("HealthConfig", "Health")
        .replace("ClusterReport", "Totals");
    assert_eq!(hits(path, &renamed, rule), [1, 3, 8, 9]);
}

#[test]
fn float_state_exempts_test_structs() {
    let (path, rule) = ("crates/cluster/src/driver.rs", "float-in-sim-state");
    assert_eq!(hits(path, FLOAT, rule), [8, 9]);
    let untested = FLOAT.replace("#[cfg(test)]", "");
    assert_eq!(hits(path, &untested, rule), [8, 9, 13]);
}

#[test]
fn lossy_cast_flags_narrowed_time_and_addr_names_only() {
    let path = "crates/core/src/engine.rs";
    assert!(messages(path, LOSSY, 3)[0].contains("`deadline_time as u32`"));
    assert!(messages(path, LOSSY, 4)[0].contains("`dma_addr as u16`"));
    // `count as u32` is not a wide name; `as u64` does not narrow.
    assert!(messages(path, LOSSY, 5).is_empty() && messages(path, LOSSY, 6).is_empty());
}

#[test]
fn lossy_cast_sees_through_tuple_fields_and_calls() {
    let found = messages("crates/core/src/engine.rs", LOSSY, 10);
    assert!(found[0].contains("`start_time as u32`"), "{found:?}");
    assert!(found[1].contains("`now as u32`"), "{found:?}");
}

#[test]
fn recovery_fns_reject_unwrap_and_expect() {
    let (path, rule) = ("crates/host/src/recovery.rs", "unwrap-in-recovery-path");
    assert!(messages(path, RECOVERY, 4)[0].contains("`.expect` in recovery fn `controller_reset`"));
    // `helper` is no recovery fn; `w.expect::<T>()` is a World lookup.
    assert_eq!(hits(path, RECOVERY, rule), [2, 3, 4]);
    let renamed = RECOVERY.replace("controller_reset", "controller_tick");
    assert_eq!(hits(path, &renamed, rule), [2, 3]);
}

#[test]
fn wildcard_arm_with_a_body_passes() {
    let (path, rule) = ("crates/nvme/src/device.rs", "wildcard-event-arm");
    // Line 12's `_ => panic!(..)` arm is fine.
    assert_eq!(hits(path, WILDCARD, rule), [5, 9]);
    let handled = WILDCARD.replacen("_ => {}", "_ => drop(e),", 1);
    assert_eq!(hits(path, &handled, rule), [9]);
}

#[test]
fn report_fields_written_in_another_file_are_live() {
    let (path, rule) = ("crates/cluster/src/report.rs", "report-field-never-written");
    assert_eq!(hits(path, REPORT_DECL, rule), [2, 3, 4, 7, 8]);
    check(&CASES[1], None, &[3, 8], &[]);
}

#[test]
fn float_state_is_scoped_to_state_crates_and_skips_tuple_structs() {
    let rule = "float-in-sim-state";
    // Line 5 is the non-exempt tuple struct `Gbps(pub f64)`.
    assert_eq!(hits("crates/store/src/x.rs", FLOAT, rule), [8, 9]);
    assert!(hits("crates/workloads/src/x.rs", FLOAT, rule).is_empty());
}

#[test]
fn wildcard_arm_is_flagged_in_every_protocol_crate() {
    for krate in ["nvme", "nic", "pcie"] {
        let path = format!("crates/{krate}/src/x.rs");
        assert_eq!(
            hits(&path, WILDCARD, "wildcard-event-arm"),
            [5, 9],
            "{krate}"
        );
    }
}

#[test]
fn crate_scoped_rules_stay_in_their_crates() {
    for path in [
        "crates/cluster/src/x.rs",
        "crates/nvme-cli/src/x.rs",
        "src/nic/x.rs",
    ] {
        assert!(
            hits(path, WILDCARD, "wildcard-event-arm").is_empty(),
            "{path}"
        );
        // The path-independent rules still fire there.
        assert_eq!(
            hits(path, RECOVERY, "unwrap-in-recovery-path"),
            [2, 3, 4],
            "{path}"
        );
    }
}

#[test]
fn a_reasoned_pragma_waives_the_next_code_line_only() {
    for case in &CASES {
        let ((pragma, shifted), first) = (reasoned(case), case.2[0]);
        let rest: Vec<u32> = shifted.into_iter().filter(|&l| l != first + 1).collect();
        check(case, Some((first, &pragma)), &rest, &[]);
    }
}

#[test]
fn a_pragma_without_a_reason_waives_nothing_and_is_flagged() {
    for case in &CASES {
        let ((_, shifted), first) = (reasoned(case), case.2[0]);
        for bare in ["", " —  ", " -"] {
            let pragma = format!("// dcs-lint: allow({}){bare}", case.0);
            check(case, Some((first, &pragma)), &shifted, &[first]);
        }
    }
}

#[test]
fn a_reasonless_pragma_fails_in_the_allow_file_form_too() {
    for form in ["allow", "allow-file"] {
        let src =
            format!("// dcs-lint: {form}(lossy-cast)\nfn f(addr: u64) -> u32 {{ addr as u32 }}\n");
        let found = lint(&[("crates/core/src/x.rs".into(), src)]);
        assert_eq!(lines_of(&found, "lossy-cast"), [2], "{found:#?}");
        assert_eq!(lines_of(&found, "pragma"), [1], "{found:#?}");
    }
}

#[test]
fn a_stale_pragma_is_flagged_once_the_violation_is_gone() {
    for case in &CASES {
        // Line 1 is clean, so a pragma covering it is stale.
        let (pragma, shifted) = reasoned(case);
        check(case, Some((1, &pragma)), &shifted, &[1]);
    }
    let fixed = "fn f(addr: u64) -> u64 { addr } // dcs-lint: allow(lossy-cast) — was u32\n";
    assert_eq!(hits("crates/core/src/x.rs", fixed, "pragma"), [1]);
    let live = fixed.replace("u64 { addr }", "u32 { addr as u32 }");
    assert!(lint(&[("crates/core/src/x.rs".into(), live)]).is_empty());
}

#[test]
fn a_same_line_pragma_suppresses_too() {
    let pragma = "x.unwrap() } // dcs-lint: allow(unwrap-in-recovery-path) — fixture: reason";
    let src = RECOVERY.replacen("x.unwrap() }", pragma, 1);
    let path = "crates/host/src/recovery.rs";
    assert_eq!(hits(path, &src, "unwrap-in-recovery-path"), [2, 4]);
    assert!(hits(path, &src, "pragma").is_empty());
}

#[test]
fn pragmas_for_clippy_rules_or_of_unknown_form_fail() {
    for pragma in [
        "// dcs-lint: allow(wall-clock) — bench timing",
        "// dcs-lint: allow(hash-collection, lossy-cast) — x",
        "// dcs-lint: allow-file(lossy-cast) — whole file",
    ] {
        let src = format!("{pragma}\nfn f(addr: u64) -> u32 {{ addr as u32 }}\n");
        let found = lint(&[("crates/core/src/x.rs".into(), src)]);
        assert_eq!(lines_of(&found, "lossy-cast"), [2], "{found:#?}");
        assert_eq!(lines_of(&found, "pragma"), [1], "{found:#?}");
    }
}

/// Every rule trigger sits in a literal or a comment; only the last
/// line is code.
const TORTURE: &str = r####"const RAW: &str = r#"x as u32; _ => {} "quoted" addr as u8"#;
const NESTED: &str = r##"outer r#"now as u16"# still one literal"##;
/* nested /* block */ comments hide `deadline_time as u32` */
const MULTI: &str = "line one
  _ => {}
line three";
fn life<'a>(x: &'a str) -> &'a str { x }
const QUOTE: char = '\'';
const BYTES: &[u8] = b"start_time as u32";
const BYTE: u8 = b'"'; // _ => {}
fn f(lba: u64) -> u32 { lba as u32 }
"####;

#[test]
fn comments_and_literals_hide_rule_triggers() {
    // The code cast must still be found, on line 11.
    let found = lint(&[("crates/nvme/src/x.rs".into(), TORTURE.into())]);
    assert_eq!(found.len(), 1, "{found:#?}");
    assert_eq!((found[0].1, found[0].2), (11, "lossy-cast"));
}

#[test]
fn literal_and_comment_words_never_become_tokens() {
    let toks = lex("x.rs", TORTURE).toks;
    let words = "quoted addr outer now still one nested block deadline_time three start_time";
    for word in words.split(' ') {
        assert!(!toks.iter().any(|t| t.is(word)), "`{word}` leaked");
    }
}

#[test]
fn lifetimes_do_not_open_char_literals() {
    let src = "fn p<'a>(addr: &'a u64) -> u8 { *addr as u8 } const Q: char = '\\'';
fn q(x: &'static str, now: u64) -> u16 { now as u16 }\n";
    assert_eq!(hits("crates/nic/src/x.rs", src, "lossy-cast"), [1, 2]);
    assert!(lex("x.rs", src).toks.iter().any(|t| t.is("static")));
}

/// The gate itself: the real workspace is clean.
#[test]
fn workspace_is_clean() {
    let found: Vec<String> = lint(&workspace_sources())
        .iter()
        .map(|Finding(path, line, rule, msg)| format!("{path}:{line}: [{rule}] {msg}"))
        .collect();
    assert!(found.is_empty(), "lint failures:\n{}", found.join("\n"));
}

#[test]
fn workspace_walk_covers_every_source_tree() {
    let files = workspace_sources();
    for tree in ["crates/", "crates/bench/", "src/", "tests/", "examples/"] {
        assert!(
            files.iter().any(|f| f.0.starts_with(tree)),
            "{tree} unscanned"
        );
    }
    assert!(files.iter().all(|f| !f.0.contains("target/")));
    assert!(files.len() > 50, "walk found only {} files", files.len());
}
