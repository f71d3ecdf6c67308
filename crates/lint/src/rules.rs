//! The lint rules: machine-checkable violations of the repo's
//! determinism and protocol-invariant policy (DESIGN.md §10).
//!
//! Two families:
//!
//! * **Determinism** — constructs whose behavior depends on per-process
//!   randomness, wall-clock time, or OS scheduling. Any of these inside
//!   the simulation breaks the bit-identical same-seed replay that
//!   tests/chaos.rs, tests/cluster.rs, and tests/failover.rs assert.
//! * **Invariants** — patterns that swallow protocol events or panic in
//!   device event paths, where the policy is "fail loudly with a
//!   message" (`expect("why")`) or "handle every arm explicitly".
//!
//! Every rule reports `Finding`s; suppression (pragmas, baseline) is
//! layered on top by [`crate::analyze_source`] and [`crate::baseline`].
//!
//! There are two *passes* (DESIGN.md §15):
//!
//! * **Per-file** ([`check_file`]) — token-pattern rules that need one
//!   file at a time;
//! * **Workspace** ([`check_workspace`]) — the isolation family
//!   (`static-mut`, `thread-local-state`, `shared-mut-state`), scoped to
//!   the sim-state crates, and the cross-file
//!   `report-field-never-written`.
//!
//! World isolation itself is proven by rustc: `Component`, `Payload`,
//! and world resources are `Send` (crates/sim). The isolation family
//! covers only what `Send` cannot see.

use crate::lexer::{lex, Lexed, Token, TokenKind};

/// One rule violation at a specific source line.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id, e.g. `hash-collection`.
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// How the finding was suppressed, if it was.
    pub suppressed: Option<Suppression>,
}

/// Why a finding does not count against `--deny`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suppression {
    /// An inline `// dcs-lint: allow(rule) — reason` pragma.
    Pragma,
    /// A `lint-baseline.toml` entry.
    Baseline,
}

/// Rule metadata for `--list-rules` and the docs.
pub struct RuleInfo {
    pub id: &'static str,
    pub family: &'static str,
    pub summary: &'static str,
}

/// Every rule the analyzer knows, in report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "hash-collection",
        family: "determinism",
        summary: "std HashMap/HashSet/RandomState (randomized iteration order) — use dcs_sim::{DetMap, DetSet}",
    },
    RuleInfo {
        id: "hash-iter",
        family: "determinism",
        summary: "iteration over a hash-ordered collection declared in this file",
    },
    RuleInfo {
        id: "wall-clock",
        family: "determinism",
        summary: "Instant::now()/SystemTime::now() — simulation time must come from Ctx/SimTime",
    },
    RuleInfo {
        id: "ambient-rng",
        family: "determinism",
        summary: "thread_rng/OsRng/from_entropy/rand::random — randomness must come from the seeded World rng",
    },
    RuleInfo {
        id: "thread-spawn",
        family: "determinism",
        summary: "thread::spawn — the simulator is single-threaded by contract; OS scheduling is nondeterministic",
    },
    RuleInfo {
        id: "float-in-sim-state",
        family: "determinism",
        summary: "f32/f64 field in a cluster/store simulation-state struct — evolved state must be fixed-point integers; floats belong in *Config inputs and *Perf/*Report outputs",
    },
    RuleInfo {
        id: "unwrap-in-event-path",
        family: "invariant",
        summary: "bare .unwrap() inside handle/on_event/completion paths — use expect(\"invariant\") with a message",
    },
    RuleInfo {
        id: "unwrap-in-recovery-path",
        family: "invariant",
        summary: ".unwrap()/.expect(..) inside recovery/error-containment fns — damaged state is the expected input there; tolerate it (let-else + counter) instead of crashing",
    },
    RuleInfo {
        id: "wildcard-event-arm",
        family: "invariant",
        summary: "empty `_ => {}` match arm in an NVMe/NIC/PCIe state machine silently swallows protocol events",
    },
    RuleInfo {
        id: "lossy-cast",
        family: "invariant",
        summary: "narrowing `as` cast on a time/address-named value can truncate SimTime/PhysAddr quantities",
    },
    RuleInfo {
        id: "static-mut",
        family: "isolation",
        summary: "`static mut` or interior-mutable static in a sim-state crate — process-global state is shared by every World; per-world state must live in the World",
    },
    RuleInfo {
        id: "thread-local-state",
        family: "isolation",
        summary: "`thread_local!` in a sim-state crate — state keyed by OS thread forks the replay of a world moved to another thread",
    },
    RuleInfo {
        id: "shared-mut-state",
        family: "isolation",
        summary: "Rc/Arc/Cell/RefCell/Mutex/RwLock/Atomic* in non-test code of a sim-state crate — worlds must not alias mutable state, and `Send` does not rule out Arc<Mutex<_>>",
    },
    RuleInfo {
        id: "report-field-never-written",
        family: "semantic",
        summary: "a *Report/*Perf field is declared but never written anywhere in the workspace — it renders as a permanent zero",
    },
    RuleInfo {
        id: "pragma-missing-reason",
        family: "meta",
        summary: "a dcs-lint allow pragma must carry a reason after a dash",
    },
    RuleInfo {
        id: "stale-pragma",
        family: "meta",
        summary: "a reasoned allow pragma that suppressed nothing — the violation is gone; delete the pragma",
    },
];

/// Rules produced by the workspace pass ([`check_workspace`]) rather
/// than the per-file pass — [`crate::analyze_source`] must not treat a
/// pragma for these as stale, since it never sees their findings.
pub const WORKSPACE_RULES: &[&str] = &[
    "static-mut",
    "thread-local-state",
    "shared-mut-state",
    "report-field-never-written",
];

/// True if `id` is produced by the workspace pass.
pub fn is_workspace_rule(id: &str) -> bool {
    WORKSPACE_RULES.contains(&id)
}

/// True if `id` names a known rule.
pub fn rule_exists(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// Per-file analysis context shared by the rule passes.
struct FileCtx<'a> {
    file: &'a str,
    tokens: &'a [Token],
    /// Token-index ranges covered by `#[cfg(test)]` items.
    test_ranges: Vec<(usize, usize)>,
    /// Enclosing-fn name per token index (innermost), empty if none.
    fn_names: Vec<&'a str>,
}

impl<'a> FileCtx<'a> {
    fn new(file: &'a str, tokens: &'a [Token]) -> Self {
        FileCtx {
            file,
            tokens,
            test_ranges: find_test_ranges(tokens),
            fn_names: enclosing_fn_names(tokens),
        }
    }

    fn in_test(&self, idx: usize) -> bool {
        self.test_ranges.iter().any(|&(a, b)| idx >= a && idx < b)
    }
}

/// Runs every rule over one file. `file` is the workspace-relative
/// path; it scopes the protocol-crate rules (`wildcard-event-arm`).
/// Suppressions are NOT applied here.
pub fn check_file(file: &str, src: &str) -> Vec<Finding> {
    let lexed = lex(src);
    let ctx = FileCtx::new(file, &lexed.tokens);
    let mut findings = Vec::new();
    rule_hash_collection(&ctx, &mut findings);
    rule_hash_iter(&ctx, &mut findings);
    rule_wall_clock(&ctx, &mut findings);
    rule_ambient_rng(&ctx, &mut findings);
    rule_thread_spawn(&ctx, &mut findings);
    rule_float_in_sim_state(&ctx, &mut findings);
    rule_unwrap_in_event_path(&ctx, &mut findings);
    rule_unwrap_in_recovery_path(&ctx, &mut findings);
    rule_wildcard_event_arm(&ctx, &mut findings);
    rule_lossy_cast(&ctx, &mut findings);
    findings.sort_by_key(|f| f.line);
    findings
}

fn push(
    findings: &mut Vec<Finding>,
    rule: &'static str,
    ctx: &FileCtx,
    line: u32,
    message: String,
) {
    findings.push(Finding {
        rule,
        file: ctx.file.to_string(),
        line,
        message,
        suppressed: None,
    });
}

/// Token-index ranges of items annotated `#[cfg(test)]` (and `#[test]`
/// functions), where the invariant rules do not apply: test code may
/// unwrap freely.
fn find_test_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let is_cfg_test = matches_seq(tokens, i, &["#", "[", "cfg", "(", "test", ")", "]"]);
        let is_test_attr = matches_seq(tokens, i, &["#", "[", "test", "]"]);
        if is_cfg_test || is_test_attr {
            // The annotated item runs to the close of its brace block.
            if let Some(open) = tokens[i..].iter().position(|t| t.is_punct('{')) {
                let start = i + open;
                let end = matching_brace(tokens, start).unwrap_or(tokens.len());
                ranges.push((i, end + 1));
                i = start + 1;
                continue;
            }
        }
        i += 1;
    }
    ranges
}

/// For each token, the name of the innermost enclosing `fn` ("" when
/// at module scope). Closures count as part of their enclosing fn.
fn enclosing_fn_names(tokens: &[Token]) -> Vec<&str> {
    let mut names = vec![""; tokens.len()];
    // Stack of (fn name, depth at which its body opened); `None` depth
    // means the signature has not reached `{` yet.
    let mut stack: Vec<(&str, Option<u32>)> = Vec::new();
    let mut depth = 0u32;
    for (i, t) in tokens.iter().enumerate() {
        match &t.kind {
            TokenKind::Ident(name) if name == "fn" => {
                if let Some(TokenKind::Ident(fname)) = tokens.get(i + 1).map(|t| &t.kind) {
                    stack.push((fname.as_str(), None));
                }
            }
            TokenKind::Punct('{') => {
                if let Some(top) = stack.last_mut() {
                    if top.1.is_none() {
                        top.1 = Some(depth);
                    }
                }
                depth += 1;
            }
            TokenKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                if let Some(&(_, Some(d))) = stack.last() {
                    if d == depth {
                        stack.pop();
                    }
                }
            }
            TokenKind::Punct(';') => {
                // Trait method declaration without a body: `fn f(...);`
                if let Some(&(_, None)) = stack.last() {
                    stack.pop();
                }
            }
            _ => {}
        }
        if let Some(&(name, Some(_))) = stack.last() {
            names[i] = name;
        }
    }
    names
}

/// Index of the `}` matching the `{` at `open`.
fn matching_brace(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// True when the identifiers/punctuation at `start` match `pat` exactly
/// (each element is either an ident name or a single punct char).
fn matches_seq(tokens: &[Token], start: usize, pat: &[&str]) -> bool {
    pat.iter().enumerate().all(|(j, p)| {
        let Some(t) = tokens.get(start + j) else {
            return false;
        };
        if p.len() == 1 && !p.chars().next().unwrap().is_ascii_alphanumeric() {
            t.is_punct(p.chars().next().unwrap())
        } else {
            t.is_ident(p)
        }
    })
}

const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "RandomState", "DefaultHasher"];

fn rule_hash_collection(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    for t in ctx.tokens {
        if let TokenKind::Ident(name) = &t.kind {
            if HASH_TYPES.contains(&name.as_str()) {
                push(
                    findings,
                    "hash-collection",
                    ctx,
                    t.line,
                    format!(
                        "`{name}` has randomized iteration order; use `dcs_sim::DetMap`/`DetSet` \
                         so same-seed replay stays bit-identical"
                    ),
                );
            }
        }
    }
}

const ORDER_SENSITIVE_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

fn rule_hash_iter(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    // Pass 1: names declared with a hash-ordered type in this file
    // (`name: HashMap<..>` fields/params or `let name = HashMap::new()`).
    let mut hash_names: Vec<&str> = Vec::new();
    for (i, t) in ctx.tokens.iter().enumerate() {
        let TokenKind::Ident(tyname) = &t.kind else {
            continue;
        };
        if !HASH_TYPES.contains(&tyname.as_str()) {
            continue;
        }
        // Walk back over a path prefix (`std :: collections ::`).
        let mut j = i;
        while j >= 2 && ctx.tokens[j - 1].is_punct(':') && ctx.tokens[j - 2].is_punct(':') {
            j -= 2;
            if j >= 1 && ctx.tokens[j - 1].ident().is_some() {
                j -= 1;
            }
        }
        // `name : <path> HashMap <` — a field, param, or typed let.
        if j >= 2 && ctx.tokens[j - 1].is_punct(':') && !ctx.tokens[j - 2].is_punct(':') {
            if let Some(name) = ctx.tokens[j - 2].ident() {
                hash_names.push(name);
            }
        }
        // `let (mut)? name (: ..)? = HashMap :: new/with_capacity/from`.
        if let Some(eq) = (j.saturating_sub(6)..j)
            .rev()
            .find(|&k| ctx.tokens[k].is_punct('='))
        {
            let mut k = eq;
            while k >= 1 && !ctx.tokens[k].is_ident("let") {
                k -= 1;
            }
            if ctx.tokens[k].is_ident("let") {
                let name_idx = if ctx.tokens[k + 1].is_ident("mut") {
                    k + 2
                } else {
                    k + 1
                };
                if let Some(name) = ctx.tokens.get(name_idx).and_then(|t| t.ident()) {
                    hash_names.push(name);
                }
            }
        }
    }
    if hash_names.is_empty() {
        return;
    }
    hash_names.sort_unstable();
    hash_names.dedup();

    // Pass 2: order-sensitive uses of those names.
    for (i, t) in ctx.tokens.iter().enumerate() {
        let TokenKind::Ident(name) = &t.kind else {
            continue;
        };
        if hash_names.binary_search(&name.as_str()).is_err() {
            continue;
        }
        // `name . method (` with method order-sensitive.
        if ctx.tokens.get(i + 1).is_some_and(|t| t.is_punct('.')) {
            if let Some(m) = ctx.tokens.get(i + 2).and_then(|t| t.ident()) {
                if ORDER_SENSITIVE_METHODS.contains(&m) {
                    push(
                        findings,
                        "hash-iter",
                        ctx,
                        t.line,
                        format!(
                            "`.{m}()` on hash-ordered `{name}` visits entries in a \
                             seed-dependent order; migrate `{name}` to `DetMap`/`DetSet`"
                        ),
                    );
                }
            }
        }
        // `for .. in [&][mut] [self .] name {` — direct iteration.
        if i >= 1 {
            let mut j = i - 1;
            // Skip over `self .`, `&`, `mut` prefix tokens.
            loop {
                let tok = &ctx.tokens[j];
                let skip = tok.is_punct('.')
                    || tok.is_punct('&')
                    || tok.is_ident("self")
                    || tok.is_ident("mut");
                if skip && j > 0 {
                    j -= 1;
                } else {
                    break;
                }
            }
            if ctx.tokens[j].is_ident("in")
                && ctx.tokens.get(i + 1).is_some_and(|t| t.is_punct('{'))
            {
                push(
                    findings,
                    "hash-iter",
                    ctx,
                    t.line,
                    format!(
                        "iterating hash-ordered `{name}` in a `for` loop is seed-dependent; \
                         migrate `{name}` to `DetMap`/`DetSet`"
                    ),
                );
            }
        }
    }
}

fn rule_wall_clock(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        let TokenKind::Ident(name) = &t.kind else {
            continue;
        };
        if (name == "Instant" || name == "SystemTime")
            && matches_seq(ctx.tokens, i + 1, &[":", ":", "now"])
        {
            push(
                findings,
                "wall-clock",
                ctx,
                t.line,
                format!(
                    "`{name}::now()` reads the wall clock; simulation time must come from \
                     `ctx.now()`/`SimTime` so runs replay identically"
                ),
            );
        }
    }
}

fn rule_ambient_rng(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        let TokenKind::Ident(name) = &t.kind else {
            continue;
        };
        let ambient = match name.as_str() {
            "thread_rng" | "OsRng" | "from_entropy" => true,
            "random" => i >= 3 && matches_seq(ctx.tokens, i - 3, &["rand", ":", ":"]),
            _ => false,
        };
        if ambient {
            push(
                findings,
                "ambient-rng",
                ctx,
                t.line,
                format!(
                    "`{name}` draws OS entropy; all randomness must come from the seeded \
                     `World::rng` so the seed fully determines the run"
                ),
            );
        }
    }
}

fn rule_thread_spawn(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        if t.is_ident("thread") && matches_seq(ctx.tokens, i + 1, &[":", ":", "spawn"]) {
            push(
                findings,
                "thread-spawn",
                ctx,
                t.line,
                "`thread::spawn` introduces OS scheduling into the simulation; the event loop \
                 is single-threaded by contract"
                    .to_string(),
            );
        }
    }
}

/// Crates whose live simulation state `float-in-sim-state` polices:
/// the layers whose structs evolve during the event loop and feed the
/// bit-identical same-seed replay that tests/determinism.rs asserts.
const FIXED_POINT_CRATES: &[&str] = &["crates/cluster/", "crates/store/"];

/// Struct-name suffixes exempt from `float-in-sim-state`: `*Config`/
/// `*Spec` are inputs frozen before the run starts, `*Perf`/`*Report`
/// are derived outputs rendered after it ends. Neither evolves inside
/// the event loop, so float rounding there cannot fork a replay.
const FLOAT_OK_SUFFIXES: &[&str] = &["Config", "Perf", "Report", "Spec"];

/// True when the token at `k` names a field: a `name :` pair. A path
/// segment (`std :: vec`) has a second colon, which rules it out.
fn is_field_name(tokens: &[Token], k: usize) -> bool {
    tokens[k].ident().is_some()
        && tokens.get(k + 1).is_some_and(|t| t.is_punct(':'))
        && !tokens.get(k + 2).is_some_and(|t| t.is_punct(':'))
        && !(k >= 1 && tokens[k - 1].is_punct(':'))
}

/// The field name owning the type token at `k`: the closest preceding
/// field name inside the struct body opened at `open`.
fn field_name_before(tokens: &[Token], open: usize, k: usize) -> Option<&str> {
    let j = (open + 1..k).rev().find(|&j| is_field_name(tokens, j))?;
    tokens[j].ident()
}

fn rule_float_in_sim_state(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    let normalized = ctx.file.replace('\\', "/");
    if !FIXED_POINT_CRATES.iter().any(|p| normalized.contains(p)) {
        return;
    }
    for (i, t) in ctx.tokens.iter().enumerate() {
        if !t.is_ident("struct") || ctx.in_test(i) {
            continue;
        }
        let Some(name) = ctx.tokens.get(i + 1).and_then(|t| t.ident()) else {
            continue;
        };
        // Unit and tuple structs carry config-like scalars (`Bandwidth`),
        // not evolving state, and stay out of scope.
        let (close, Some(open)) = decl_span(ctx.tokens, i) else {
            continue;
        };
        if FLOAT_OK_SUFFIXES.iter().any(|s| name.ends_with(s)) {
            continue;
        }
        for k in open + 1..close {
            let Some(ty) = ctx.tokens[k].ident() else {
                continue;
            };
            if ty != "f32" && ty != "f64" {
                continue;
            }
            let field = field_name_before(ctx.tokens, open, k).unwrap_or("<field>");
            push(
                findings,
                "float-in-sim-state",
                ctx,
                ctx.tokens[k].line,
                format!(
                    "struct `{name}` holds `{ty}` field `{field}`; live simulation state must \
                     be fixed-point integers (u64 ns, bytes, shifted EWMAs) so same-seed \
                     replay stays bit-identical — floats belong in `*Config` inputs and \
                     `*Perf`/`*Report` outputs"
                ),
            );
        }
    }
}

/// Event-path function names: the component dispatch entry point and
/// completion handlers.
fn is_event_path_fn(name: &str) -> bool {
    name == "handle"
        || name == "on_event"
        || name.contains("complete")
        || name.contains("completion")
}

fn rule_unwrap_in_event_path(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        if !t.is_ident("unwrap") {
            continue;
        }
        let call = i >= 1
            && ctx.tokens[i - 1].is_punct('.')
            && matches_seq(ctx.tokens, i + 1, &["(", ")"]);
        if !call || ctx.in_test(i) {
            continue;
        }
        let fn_name = ctx.fn_names[i];
        if is_event_path_fn(fn_name) {
            push(
                findings,
                "unwrap-in-event-path",
                ctx,
                t.line,
                format!(
                    "bare `.unwrap()` inside event path `fn {fn_name}`; a poisoned event must \
                     fail with a protocol message — use `.expect(\"invariant…\")`"
                ),
            );
        }
    }
}

/// Recovery/error-containment function names: reset ladders, watchdog
/// and timeout sweeps, abort/failure handlers, poison containment.
/// These run precisely when device state is already damaged, so a
/// panic there turns a contained error into a simulator crash.
fn is_recovery_path_fn(name: &str) -> bool {
    const MARKS: &[&str] = &[
        "recover",
        "reset",
        "abort",
        "retransmit",
        "resubmit",
        "watchdog",
        "timed_out",
        "timeout",
        "poison",
        "fail_",
    ];
    MARKS.iter().any(|m| name.contains(m)) || name == "fail"
}

fn rule_unwrap_in_recovery_path(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        let TokenKind::Ident(name) = &t.kind else {
            continue;
        };
        if name != "unwrap" && name != "expect" {
            continue;
        }
        // A method call: `.unwrap()` / `.expect("…")`. The `(` check
        // also excludes `world.expect::<T>()` — a resource lookup whose
        // absence is a harness bug, not damaged protocol state.
        let method = i >= 1
            && ctx.tokens[i - 1].is_punct('.')
            && ctx.tokens.get(i + 1).is_some_and(|t| t.is_punct('('));
        if !method || ctx.in_test(i) {
            continue;
        }
        let fn_name = ctx.fn_names[i];
        if !is_recovery_path_fn(fn_name) {
            continue;
        }
        push(
            findings,
            "unwrap-in-recovery-path",
            ctx,
            t.line,
            format!(
                "`.{name}(…)` inside recovery path `fn {fn_name}` turns damaged state into a \
                 crash; recovery code must tolerate missing or duplicate state (let-else + a \
                 counter), since it runs exactly when invariants are already broken"
            ),
        );
    }
}

/// Path components that mark a file as part of a protocol state machine
/// for `wildcard-event-arm`.
const PROTOCOL_CRATES: &[&str] = &["crates/nvme/", "crates/nic/", "crates/pcie/"];

fn rule_wildcard_event_arm(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    let normalized = ctx.file.replace('\\', "/");
    if !PROTOCOL_CRATES.iter().any(|p| normalized.contains(p)) {
        return;
    }
    for (i, t) in ctx.tokens.iter().enumerate() {
        if !t.is_ident("_") {
            continue;
        }
        if ctx.in_test(i) {
            continue;
        }
        // `_ => {}` or `_ => ()` (with optional trailing comma).
        let arrow = matches_seq(ctx.tokens, i + 1, &["=", ">"]);
        if !arrow {
            continue;
        }
        let empty = matches_seq(ctx.tokens, i + 3, &["{", "}"])
            || matches_seq(ctx.tokens, i + 3, &["(", ")"]);
        if empty {
            push(
                findings,
                "wildcard-event-arm",
                ctx,
                t.line,
                "empty `_ => {}` arm in a protocol state machine silently drops events; \
                 match the variants explicitly or fail loudly"
                    .to_string(),
            );
        }
    }
}

const NARROW_INTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Identifier names that carry 64-bit simulated-time or address
/// quantities in this codebase.
fn is_wide_quantity_name(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    lower.contains("time")
        || lower.contains("addr")
        || lower.ends_with("_ns")
        || lower == "now"
        || lower == "lba"
}

fn rule_lossy_cast(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        if !t.is_ident("as") || ctx.in_test(i) {
            continue;
        }
        let Some(target) = ctx.tokens.get(i + 1).and_then(|t| t.ident()) else {
            continue;
        };
        if !NARROW_INTS.contains(&target) {
            continue;
        }
        // Source expression: `name as u32`, `name.0 as u32`,
        // `expr.name as u32`, or `name() as u32`.
        let mut j = i.checked_sub(1);
        // Skip a closing paren of a call: `name ( ... ) as` — walk to `(`'s callee.
        if let Some(k) = j {
            if ctx.tokens[k].is_punct(')') {
                let mut depth = 0i64;
                let mut m = k;
                loop {
                    if ctx.tokens[m].is_punct(')') {
                        depth += 1;
                    } else if ctx.tokens[m].is_punct('(') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    if m == 0 {
                        break;
                    }
                    m -= 1;
                }
                j = m.checked_sub(1);
            } else if ctx.tokens[k].kind == TokenKind::Number
                && k >= 1
                && ctx.tokens[k - 1].is_punct('.')
            {
                // Tuple field `.0`.
                j = (k - 1).checked_sub(1);
            }
        }
        let Some(k) = j else { continue };
        let Some(src_name) = ctx.tokens[k].ident() else {
            continue;
        };
        if is_wide_quantity_name(src_name) {
            push(
                findings,
                "lossy-cast",
                ctx,
                t.line,
                format!(
                    "`{src_name} as {target}` can truncate a 64-bit time/address quantity; \
                     use `try_into()` or widen the target"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------
// Workspace pass: crate-scoped isolation rules and cross-file rules.
// ---------------------------------------------------------------------

/// One file of a lint run: its workspace-relative path, text, and token
/// stream.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    pub src: String,
    pub lexed: Lexed,
}

impl SourceFile {
    pub fn new(rel: String, src: String) -> SourceFile {
        let lexed = lex(&src);
        SourceFile { rel, src, lexed }
    }
}

/// The crate a workspace-relative path belongs to (`crates/sim/…` →
/// `sim`); `None` for the root package, tests, and examples.
fn crate_of(rel: &str) -> Option<&str> {
    Some(rel.strip_prefix("crates/")?.split_once('/')?.0)
}

/// Crates holding simulation state: every `Component`, payload, and
/// world resource lives in one of these. `Send` bounds on those traits
/// make rustc reject non-`Send` state; the isolation rules here cover
/// what `Send` cannot see — process globals, thread-locals, and
/// `Send` shared-mutable handles such as `Arc<Mutex<_>>`.
const SIM_STATE_CRATES: &[&str] = &[
    "sim",
    "pcie",
    "nvme",
    "nic",
    "gpu",
    "core",
    "cluster",
    "store",
    "workloads",
];

/// True when the file at `rel` belongs to a sim-state crate.
fn in_sim_state_crate(rel: &str) -> bool {
    crate_of(rel).is_some_and(|c| SIM_STATE_CRATES.contains(&c))
}

/// Runs every workspace-level rule over `files`.
/// Suppressions are NOT applied here.
pub fn check_workspace(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        if !in_sim_state_crate(&file.rel) {
            continue;
        }
        let ctx = FileCtx::new(&file.rel, &file.lexed.tokens);
        rule_process_globals(&ctx, &mut findings);
        rule_shared_mut_state(&ctx, &mut findings);
    }
    rule_report_field_liveness(files, &mut findings);
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// Interior-mutable types: they make even a non-`mut` static mutable
/// in place.
fn is_interior_mut_type(name: &str) -> bool {
    matches!(name, "Cell" | "RefCell" | "UnsafeCell" | "Mutex" | "RwLock")
        || (name.starts_with("Atomic") && name.len() > "Atomic".len())
}

/// Shared-mutable handle types, which alias mutable state between
/// owners. rustc rejects `Rc` and `Arc<RefCell<_>>` in world state
/// (`!Send`), but `Arc<Mutex<_>>` and `Arc<Atomic*>` are `Send`: only
/// this rule catches those.
fn is_shared_mut_type(name: &str) -> bool {
    name == "Rc" || name == "Arc" || (name != "UnsafeCell" && is_interior_mut_type(name))
}

/// `static-mut` and `thread-local-state`: process-global and
/// thread-keyed state, which every `World` in the process shares.
fn rule_process_globals(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    let toks = ctx.tokens;
    let mut i = 0;
    while i < toks.len() {
        if ctx.in_test(i) {
            i += 1;
            continue;
        }
        if toks[i].is_ident("thread_local") && matches_seq(toks, i + 1, &["!"]) {
            push(
                findings,
                "thread-local-state",
                ctx,
                toks[i].line,
                "`thread_local!` keys state by OS thread; a world moved to another thread \
                 silently sees different state and forks its replay — store it in the `World` \
                 instead"
                    .to_string(),
            );
            // The statics it declares are covered by this finding.
            i = match toks.get(i + 2) {
                Some(t) if t.is_punct('{') => matching_brace(toks, i + 2).unwrap_or(toks.len()),
                _ => i + 1,
            };
            continue;
        }
        if !toks[i].is_ident("static") {
            i += 1;
            continue;
        }
        let line = toks[i].line;
        if toks.get(i + 1).is_some_and(|t| t.is_ident("mut")) {
            let name = toks.get(i + 2).and_then(|t| t.ident()).unwrap_or("?");
            push(
                findings,
                "static-mut",
                ctx,
                line,
                format!(
                    "`static mut {name}` is process-global mutable state shared by every `World` \
                     in the process — move it into the `World` (a resource or component field)"
                ),
            );
        } else if let Some(name) = toks.get(i + 1).and_then(|t| t.ident()) {
            // The declared type runs from `:` to the initializer.
            let ty_end = toks[i..]
                .iter()
                .position(|t| t.is_punct('=') || t.is_punct(';'))
                .map_or(toks.len(), |p| i + p);
            if let Some(ty) = toks[i + 2..ty_end]
                .iter()
                .filter_map(|t| t.ident())
                .find(|t| is_interior_mut_type(t))
            {
                push(
                    findings,
                    "static-mut",
                    ctx,
                    line,
                    format!(
                        "static `{name}` holds interior-mutable `{ty}` — a process-global that \
                         every `World` can write through; move it into the `World`"
                    ),
                );
            }
        }
        i += 1;
    }
}

fn rule_shared_mut_state(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        if is_shared_mut_type(name) && !ctx.in_test(i) {
            push(
                findings,
                "shared-mut-state",
                ctx,
                t.line,
                format!(
                    "`{name}` in a sim-state crate shares mutable state between owners; \
                     per-world state must be owned by the `World` or a component, never \
                     aliased (`Send` does not rule out `Arc<Mutex<_>>`)"
                ),
            );
        }
    }
}

/// Token range `[keyword, end]` of the `struct`/`enum` declaration at
/// `i` (`end` is the field block's `}`, else the tuple `(` or unit `;`),
/// with the index of its field block's `{` when it has one.
fn decl_span(tokens: &[Token], i: usize) -> (usize, Option<usize>) {
    // Hitting `;` or `(` first means a unit or tuple declaration.
    let open = tokens[i..]
        .iter()
        .position(|t| t.is_punct('{') || t.is_punct('(') || t.is_punct(';'))
        .map_or(tokens.len(), |p| i + p);
    match tokens.get(open) {
        Some(t) if t.is_punct('{') => (
            matching_brace(tokens, open).unwrap_or(tokens.len()),
            Some(open),
        ),
        _ => (open, None),
    }
}

/// `report-field-never-written`: a `*Report`/`*Perf` struct field that
/// no code anywhere in the workspace ever writes renders as a permanent
/// zero in every table — usually a refactor left the plumbing behind.
///
/// Write detection is deliberately generous (any plausible write
/// position counts), so the rule errs toward silence, never toward a
/// false positive: `x.f = …`, compound assigns, `f: …` struct-literal
/// inits outside type declarations, `&mut x.f`, and any method call on
/// the field (`r.f.push(…)`) all count as writes.
fn rule_report_field_liveness(files: &[SourceFile], findings: &mut Vec<Finding>) {
    // Candidate fields: named fields of non-test *Report/*Perf structs,
    // as (file, struct name, field name, line).
    let mut candidates: Vec<(&str, &str, &str, u32)> = Vec::new();
    // Per file, the token ranges of struct/enum declarations: `f:`
    // there is a field declaration, not a struct-literal write.
    let mut decl_spans: Vec<Vec<(usize, usize)>> = Vec::with_capacity(files.len());
    for file in files {
        let toks = &file.lexed.tokens;
        let test_ranges = find_test_ranges(toks);
        let mut spans = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            if !(t.is_ident("struct") || t.is_ident("enum")) {
                continue;
            }
            let (end, open) = decl_span(toks, i);
            spans.push((i, end + 1));
            let Some(name) = toks.get(i + 1).and_then(|t| t.ident()) else {
                continue;
            };
            let in_test = test_ranges.iter().any(|&(a, b)| i >= a && i < b);
            let Some(open) = open else { continue };
            if !t.is_ident("struct")
                || in_test
                || !(name.ends_with("Report") || name.ends_with("Perf"))
            {
                continue;
            }
            for k in (open + 1..end).filter(|&k| is_field_name(toks, k)) {
                let field = toks[k].ident().expect("field names are idents");
                candidates.push((&file.rel, name, field, toks[k].line));
            }
        }
        decl_spans.push(spans);
    }
    if candidates.is_empty() {
        return;
    }
    let mut names: Vec<&str> = candidates.iter().map(|c| c.2).collect();
    names.sort_unstable();
    names.dedup();

    let mut written: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    const COMPOUND_OPS: &[char] = &['+', '-', '*', '/', '%', '&', '|', '^', '<', '>'];
    for (file, spans) in files.iter().zip(&decl_spans) {
        let toks = &file.lexed.tokens;
        let in_decl = |i: usize| spans.iter().any(|&(a, b)| i >= a && i < b);
        for (i, t) in toks.iter().enumerate() {
            let Some(name) = t.ident() else { continue };
            if names.binary_search(&name).is_err() || written.contains(name) {
                continue;
            }
            let prev_dot = i >= 1 && toks[i - 1].is_punct('.');
            let prev_colon = i >= 1 && toks[i - 1].is_punct(':');
            let next = |k: usize| toks.get(i + k);
            let is_write =
                // `x.f = v` (not `==`), `x.f += v` and friends.
                (prev_dot
                    && ((next(1).is_some_and(|t| t.is_punct('='))
                        && !next(2).is_some_and(|t| t.is_punct('=')))
                        || (next(1).is_some_and(|t| COMPOUND_OPS.iter().any(|&c| t.is_punct(c)))
                            && (next(2).is_some_and(|t| t.is_punct('='))
                                || next(3).is_some_and(|t| t.is_punct('='))))))
                // `x.f.method(…)` — the method may mutate.
                || (prev_dot
                    && next(1).is_some_and(|t| t.is_punct('.'))
                    && next(2).is_some_and(|t| t.ident().is_some())
                    && next(3).is_some_and(|t| t.is_punct('(')))
                // `f: v` outside a type declaration — struct-literal init.
                || (!in_decl(i)
                    && !prev_colon
                    && next(1).is_some_and(|t| t.is_punct(':'))
                    && !next(2).is_some_and(|t| t.is_punct(':')))
                // `&mut x.y.f` — mutable borrow of the field.
                || (prev_dot && {
                    let mut k = i - 1; // at the `.`
                    while k >= 2
                        && toks[k].is_punct('.')
                        && toks[k - 1].ident().is_some()
                    {
                        k -= 2;
                        if !(k >= 1 && toks[k].is_punct('.')) {
                            break;
                        }
                    }
                    k >= 1 && toks[k].is_ident("mut") && toks[k - 1].is_punct('&')
                });
            if is_write {
                written.insert(name);
            }
        }
    }

    for &(file, struct_name, field, line) in &candidates {
        if !written.contains(field) {
            findings.push(Finding {
                rule: "report-field-never-written",
                file: file.to_string(),
                line,
                message: format!(
                    "field `{field}` of `{struct_name}` is never written anywhere in the \
                     workspace — it renders as a permanent default; wire it up or delete it"
                ),
                suppressed: None,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(file: &str, src: &str) -> Vec<&'static str> {
        let mut r: Vec<_> = check_file(file, src).into_iter().map(|f| f.rule).collect();
        r.dedup();
        r
    }

    #[test]
    fn clean_file_has_no_findings() {
        let src = r#"
            use dcs_sim::DetMap;
            struct S { m: DetMap<u64, u32> }
            impl S {
                fn handle(&mut self) {
                    for (k, v) in self.m.iter() { let _ = (k, v); }
                }
            }
        "#;
        assert!(check_file("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn detects_hash_collection_and_iteration() {
        let src = r#"
            use std::collections::HashMap;
            struct S { ops: HashMap<u64, u32> }
            impl S {
                fn scan(&self) {
                    for (k, v) in self.ops.iter() { let _ = (k, v); }
                }
            }
        "#;
        let hits = rules_hit("crates/x/src/lib.rs", src);
        assert!(hits.contains(&"hash-collection"));
        assert!(hits.contains(&"hash-iter"));
    }

    #[test]
    fn detects_for_loop_over_hash_field() {
        let src = r#"
            use std::collections::HashMap;
            struct S { sends: HashMap<u64, u32> }
            impl S {
                fn scan(&self) {
                    for (at, s) in &self.sends { let _ = (at, s); }
                }
            }
        "#;
        let f = check_file("crates/x/src/lib.rs", src);
        assert!(
            f.iter()
                .any(|f| f.rule == "hash-iter" && f.message.contains("for")),
            "{f:?}"
        );
    }

    #[test]
    fn detects_wall_clock_and_rng_and_spawn() {
        let src = r#"
            fn f() {
                let t = std::time::Instant::now();
                let s = std::time::SystemTime::now();
                let r = rand::thread_rng();
                std::thread::spawn(|| {});
            }
        "#;
        let hits = rules_hit("crates/x/src/lib.rs", src);
        assert!(hits.contains(&"wall-clock"));
        assert!(hits.contains(&"ambient-rng"));
        assert!(hits.contains(&"thread-spawn"));
    }

    #[test]
    fn unwrap_flagged_only_in_event_paths_and_not_in_tests() {
        let src = r#"
            fn handle(x: Option<u32>) -> u32 { x.unwrap() }
            fn helper(x: Option<u32>) -> u32 { x.unwrap() }
            fn on_dma_complete(x: Option<u32>) -> u32 { x.unwrap() }
            #[cfg(test)]
            mod tests {
                fn handle(x: Option<u32>) -> u32 { x.unwrap() }
            }
        "#;
        let f = check_file("crates/x/src/lib.rs", src);
        let lines: Vec<u32> = f
            .iter()
            .filter(|f| f.rule == "unwrap-in-event-path")
            .map(|f| f.line)
            .collect();
        assert_eq!(lines, vec![2, 4], "{f:?}");
    }

    #[test]
    fn recovery_paths_reject_unwrap_and_expect() {
        let src = r#"
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
        let f = check_file("crates/x/src/lib.rs", src);
        let lines: Vec<u32> = f
            .iter()
            .filter(|f| f.rule == "unwrap-in-recovery-path")
            .map(|f| f.line)
            .collect();
        // The turbofish `expect::<T>()` (line 7) and the helper are fine.
        assert_eq!(lines, vec![2, 3, 4], "{f:?}");
    }

    #[test]
    fn expect_with_message_is_sanctioned() {
        let src =
            r#"fn handle(x: Option<u32>) -> u32 { x.expect("queue attached before doorbell") }"#;
        assert!(check_file("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn wildcard_arm_only_in_protocol_crates() {
        let src = r#"
            fn step(e: u32) {
                match e {
                    0 => {}
                    _ => {}
                }
            }
        "#;
        assert!(rules_hit("crates/nvme/src/device.rs", src).contains(&"wildcard-event-arm"));
        assert!(rules_hit("crates/nic/src/device.rs", src).contains(&"wildcard-event-arm"));
        assert!(!rules_hit("crates/cluster/src/health.rs", src).contains(&"wildcard-event-arm"));
    }

    #[test]
    fn wildcard_arm_with_body_is_fine() {
        let src = r#"
            fn step(e: u32) {
                match e {
                    0 => {}
                    _ => panic!("unmodeled event"),
                }
            }
        "#;
        assert!(!rules_hit("crates/nvme/src/device.rs", src).contains(&"wildcard-event-arm"));
    }

    #[test]
    fn lossy_cast_on_time_and_addr_names() {
        let src = r#"
            fn f(deadline_time: u64, addr: u64, count: u64) {
                let a = deadline_time as u32;
                let b = addr as u16;
                let fine = count as u32;
                let also_fine = deadline_time as u64;
            }
        "#;
        let f = check_file("crates/x/src/lib.rs", src);
        let lines: Vec<u32> = f
            .iter()
            .filter(|f| f.rule == "lossy-cast")
            .map(|f| f.line)
            .collect();
        assert_eq!(lines, vec![3, 4], "{f:?}");
    }

    #[test]
    fn float_state_flagged_outside_config_and_report_structs() {
        let src = r#"
            pub struct HealthConfig { pub repair_gbps: f64 }
            pub struct NodePerf { pub cpu_utilization: f64 }
            pub struct ClusterReport { pub goodput: f64 }
            pub struct TenantSpec { pub weight: f64 }
            struct Driver { ewma_ns: u64, mean_gap_ns: f64, weights: Vec<f64> }
        "#;
        let f = check_file("crates/cluster/src/driver.rs", src);
        let hits: Vec<_> = f
            .iter()
            .filter(|f| f.rule == "float-in-sim-state")
            .collect();
        // Only the two `Driver` float fields; the suffix-exempt structs
        // pass untouched.
        assert_eq!(hits.len(), 2, "{f:?}");
        assert!(
            hits[0].message.contains("`mean_gap_ns`"),
            "{}",
            hits[0].message
        );
        assert!(hits[1].message.contains("`weights`"), "{}", hits[1].message);
    }

    #[test]
    fn float_state_scoped_to_state_crates_and_skips_tuple_structs() {
        // Out-of-scope crate: the workload generator's lognormal mu/sigma
        // are fine where they are.
        let src = "struct SizeState { mu: f64 }";
        assert!(!rules_hit("crates/workloads/src/gen.rs", src).contains(&"float-in-sim-state"));
        assert!(rules_hit("crates/store/src/qos.rs", src).contains(&"float-in-sim-state"));
        // Tuple structs (config-like scalars) are out of scope, and the
        // scan resynchronizes on the struct that follows.
        let src = r#"
            pub struct Gbps(pub f64);
            struct Next { vtime: f64 }
        "#;
        let f = check_file("crates/cluster/src/switch.rs", src);
        let lines: Vec<u32> = f
            .iter()
            .filter(|f| f.rule == "float-in-sim-state")
            .map(|f| f.line)
            .collect();
        assert_eq!(lines, vec![3], "{f:?}");
    }

    #[test]
    fn float_state_ignores_test_structs() {
        let src = r#"
            #[cfg(test)]
            mod tests {
                struct Fixture { jitter: f64 }
            }
        "#;
        assert!(!rules_hit("crates/cluster/src/health.rs", src).contains(&"float-in-sim-state"));
    }

    #[test]
    fn crate_attribution() {
        assert_eq!(crate_of("crates/sim/src/world.rs"), Some("sim"));
        assert_eq!(crate_of("crates/lint/src/lib.rs"), Some("lint"));
        assert_eq!(crate_of("src/lib.rs"), None);
        assert_eq!(crate_of("tests/cluster.rs"), None);
        assert!(in_sim_state_crate("crates/store/src/cache.rs"));
        assert!(in_sim_state_crate("crates/workloads/src/scenario.rs"));
        assert!(!in_sim_state_crate("crates/bench/src/engine.rs"));
        assert!(!in_sim_state_crate("examples/quickstart.rs"));
    }

    #[test]
    fn lossy_cast_through_tuple_field_and_call() {
        let src = r#"
            fn f(t: SimTime) {
                let a = t.start_time.0 as u32;
                let b = now() as u32;
            }
        "#;
        let f = check_file("crates/x/src/lib.rs", src);
        assert_eq!(
            f.iter().filter(|f| f.rule == "lossy-cast").count(),
            2,
            "{f:?}"
        );
    }
}
