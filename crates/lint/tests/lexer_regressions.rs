//! Lexer regression tests over the torture fixture: raw strings
//! (including nested-hash raw strings), nested block comments,
//! lifetimes vs char literals, byte strings, and multi-line string
//! literals. A lexer bug in any of these leaks rule-trigger words out
//! of literals — so the fixture deliberately hides `HashMap`,
//! `Instant`, `thread_rng`, and `SystemTime` inside them.

use dcs_lint::analyze_source;
use dcs_lint::lexer::{lex, TokenKind};

const TORTURE: &str = include_str!("fixtures/lexer_torture.rs");

#[test]
fn literal_and_comment_contents_never_become_idents() {
    let lexed = lex(TORTURE);
    let idents: Vec<&str> = lexed.tokens.iter().filter_map(|t| t.ident()).collect();
    for trigger in ["HashMap", "Instant", "thread_rng", "SystemTime"] {
        assert!(
            !idents.contains(&trigger),
            "`{trigger}` leaked out of a literal/comment: {idents:?}"
        );
    }
}

#[test]
fn torture_fixture_is_lint_clean() {
    // No rule may fire on trigger words that only exist inside
    // literals and comments.
    let findings = analyze_source("crates/x/src/torture.rs", TORTURE);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn every_literal_is_exactly_one_token() {
    // RAW, RAW_NESTED (inner `r#"…"#` and all), MULTI, ESCAPED_QUOTE,
    // BYTES, and SITE: six literals, each one token.
    let lexed = lex(TORTURE);
    let literals = lexed.tokens.iter().filter(|t| t.is_literal()).count();
    assert_eq!(literals, 6, "{:#?}", lexed.tokens);
}

#[test]
fn multiline_literal_reports_its_opening_line() {
    let lexed = lex(TORTURE);
    let multi = lexed
        .tokens
        .iter()
        .skip_while(|t| !t.is_ident("MULTI"))
        .find(|t| t.is_literal())
        .expect("multi-line literal");
    let decl_line = TORTURE
        .lines()
        .position(|l| l.contains("pub const MULTI"))
        .expect("MULTI decl") as u32
        + 1;
    assert_eq!(
        multi.line, decl_line,
        "a multi-line literal must anchor to the line it opens on"
    );
    // Tokens after it still carry correct lines: `pub fn life` sits two
    // lines below the literal's closing quote.
    let life = lexed
        .tokens
        .iter()
        .find(|t| t.is_ident("life"))
        .expect("fn life");
    let life_line = TORTURE
        .lines()
        .position(|l| l.contains("pub fn life"))
        .expect("life decl") as u32
        + 1;
    assert_eq!(life.line, life_line);
}

#[test]
fn lifetimes_lex_as_apostrophe_idents_not_char_literals() {
    let lexed = lex(TORTURE);
    assert!(
        lexed.tokens.iter().any(|t| t.is_ident("'a")),
        "lifetime 'a must be an ident token"
    );
    // The escaped-quote char literal is a literal, not a lifetime and
    // not a lexer derail: the token after `ESCAPED_QUOTE : char =`.
    let at = lexed
        .tokens
        .iter()
        .position(|t| t.is_ident("ESCAPED_QUOTE"))
        .expect("ESCAPED_QUOTE decl");
    assert_eq!(lexed.tokens[at + 4].kind, TokenKind::Literal);
    // `&'static str` keeps its apostrophe, so `static-mut` never
    // mistakes the lifetime for a `static` item.
    assert!(
        lexed.tokens.iter().any(|t| t.is_ident("'static")),
        "explicit 'static lifetime must lex as an ident"
    );
}

#[test]
fn unterminated_literal_is_tolerated_and_line_counts_survive() {
    // A file that ends mid-string must not panic or loop.
    let lexed = lex("const A: u8 = 1;\nlet s = \"never closed\nconst B");
    assert!(lexed.tokens.iter().any(|t| t.is_ident("A")));
    let a = lexed.tokens.iter().find(|t| t.is_ident("A")).unwrap();
    assert_eq!(a.line, 1);
}
