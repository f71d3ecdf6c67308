//! A minimal Rust lexer: just enough to token-scan workspace sources.
//!
//! The linter does not need types or a parse tree — every rule in
//! [`crate::rules`] is a pattern over identifiers and punctuation — but
//! it must never match inside string literals or comments, and it must
//! know which line every token sits on so pragmas and reports line up.
//! This lexer handles the full set of Rust literal syntaxes that appear
//! in the workspace: line and (nested) block comments, plain/byte/raw
//! strings, char literals vs. lifetimes, raw identifiers, and loose
//! numeric literals.

/// One lexed token.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    /// 1-based source line.
    pub line: u32,
}

/// The token classes the rule engine distinguishes.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `HashMap`, `r#type` → `type`).
    Ident(String),
    /// Single punctuation character (`{`, `:`, `=`, …).
    Punct(char),
    /// String, byte-string, or char literal (contents discarded).
    Literal,
    /// Numeric literal (contents discarded).
    Number,
}

impl Token {
    /// The identifier text, if this token is one.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True when this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.ident() == Some(name)
    }

    /// True when this token is the punctuation `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }

    /// True for any string/char literal token.
    pub fn is_literal(&self) -> bool {
        self.kind == TokenKind::Literal
    }
}

/// A line comment, with the line it starts on and its full text
/// (including the leading `//`). Used for pragma detection.
#[derive(Debug, Clone)]
pub struct Comment {
    pub line: u32,
    pub text: String,
}

/// Lexer output: the token stream plus every line comment.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

/// Tokenizes `src`. Unterminated literals/comments are tolerated (the
/// rest of the file is swallowed) — the linter reports what it can
/// rather than erroring out.
pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;

    macro_rules! bump_lines {
        ($range:expr) => {
            line += bytes[$range].iter().filter(|&&b| b == b'\n').count() as u32
        };
    }

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b if b.is_ascii_whitespace() => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                out.comments.push(Comment {
                    line,
                    text: src[start..i].to_string(),
                });
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                // Nested block comment.
                let start = i;
                let mut depth = 1;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                bump_lines!(start..i.min(bytes.len()));
            }
            b'"' => {
                let start = i;
                let start_line = line;
                i = skip_string(bytes, i);
                bump_lines!(start..i.min(bytes.len()));
                out.tokens.push(Token {
                    kind: TokenKind::Literal,
                    // Multi-line literals are reported at the line they
                    // open on, where the code (and any pragma) sits.
                    line: start_line,
                });
            }
            b'r' | b'b' if starts_raw_or_byte_string(bytes, i) => {
                let start = i;
                let start_line = line;
                i = skip_raw_or_byte_string(bytes, i);
                bump_lines!(start..i.min(bytes.len()));
                out.tokens.push(Token {
                    kind: TokenKind::Literal,
                    line: start_line,
                });
            }
            b'r' if bytes.get(i + 1) == Some(&b'#')
                && bytes.get(i + 2).is_some_and(|c| is_ident_start(*c)) =>
            {
                // Raw identifier r#type → emit `type`.
                let (ident, next) = take_ident(src, bytes, i + 2);
                out.tokens.push(Token {
                    kind: TokenKind::Ident(ident),
                    line,
                });
                i = next;
            }
            b'\'' => {
                // Lifetime or char literal.
                let next = bytes.get(i + 1).copied();
                let after = bytes.get(i + 2).copied();
                let is_lifetime = next.is_some_and(is_ident_start) && after != Some(b'\'');
                if is_lifetime {
                    // Emit the lifetime as an apostrophe-prefixed ident
                    // (`'static`) — no rule pattern can collide with a
                    // plain ident: `static-mut` must not read the
                    // `'static` of `&'static str` as a `static` item.
                    let start = i;
                    i += 1;
                    while i < bytes.len() && is_ident_continue(bytes[i]) {
                        i += 1;
                    }
                    out.tokens.push(Token {
                        kind: TokenKind::Ident(src[start..i].to_string()),
                        line,
                    });
                } else {
                    // Char literal: 'x', '\n', '\u{1F600}', '\''.
                    i += 1;
                    while i < bytes.len() {
                        match bytes[i] {
                            b'\\' => i += 2,
                            b'\'' => {
                                i += 1;
                                break;
                            }
                            b'\n' => break, // malformed; stop at EOL
                            _ => i += 1,
                        }
                    }
                    out.tokens.push(Token {
                        kind: TokenKind::Literal,
                        line,
                    });
                }
            }
            b if is_ident_start(b) => {
                let (ident, next) = take_ident(src, bytes, i);
                out.tokens.push(Token {
                    kind: TokenKind::Ident(ident),
                    line,
                });
                i = next;
            }
            b if b.is_ascii_digit() => {
                i += 1;
                while i < bytes.len() {
                    let c = bytes[i];
                    if c.is_ascii_alphanumeric() || c == b'_' {
                        i += 1;
                    } else if c == b'.' && bytes.get(i + 1).is_some_and(|d| d.is_ascii_digit()) {
                        // `1.5` is one number; `1..5` stops before the range.
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.tokens.push(Token {
                    kind: TokenKind::Number,
                    line,
                });
            }
            _ => {
                // Multi-byte UTF-8 (e.g. an em-dash in a string would have
                // been swallowed above; stray ones appear only in idents we
                // don't care about). Advance by the full code point.
                let ch_len = src[i..].chars().next().map_or(1, |c| c.len_utf8());
                if ch_len == 1 {
                    out.tokens.push(Token {
                        kind: TokenKind::Punct(b as char),
                        line,
                    });
                }
                i += ch_len;
            }
        }
    }
    out
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn take_ident(src: &str, bytes: &[u8], start: usize) -> (String, usize) {
    let mut i = start;
    while i < bytes.len() && is_ident_continue(bytes[i]) {
        i += 1;
    }
    (src[start..i].to_string(), i)
}

/// Skips a plain `"…"` string starting at the opening quote; returns
/// the index just past the closing quote.
fn skip_string(bytes: &[u8], start: usize) -> usize {
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// True when position `i` starts `r"`, `r#"`, `b"`, `br"`, `br#"`, or `b'`.
fn starts_raw_or_byte_string(bytes: &[u8], i: usize) -> bool {
    match bytes[i] {
        b'b' => match bytes.get(i + 1) {
            Some(b'"') | Some(b'\'') => true,
            Some(b'r') => matches!(bytes.get(i + 2), Some(b'"') | Some(b'#')),
            _ => false,
        },
        b'r' => match bytes.get(i + 1) {
            Some(b'"') => true,
            Some(b'#') => {
                // r#"…"# raw string, not r#ident: hashes then a quote.
                let mut j = i + 1;
                while bytes.get(j) == Some(&b'#') {
                    j += 1;
                }
                bytes.get(j) == Some(&b'"')
            }
            _ => false,
        },
        _ => false,
    }
}

/// Skips a raw/byte string (or byte char) starting at its prefix;
/// returns the index just past the literal.
fn skip_raw_or_byte_string(bytes: &[u8], start: usize) -> usize {
    let mut i = start;
    if bytes[i] == b'b' {
        i += 1;
        if bytes.get(i) == Some(&b'\'') {
            // Byte char b'x'.
            i += 1;
            while i < bytes.len() {
                match bytes[i] {
                    b'\\' => i += 2,
                    b'\'' => return i + 1,
                    _ => i += 1,
                }
            }
            return i;
        }
        if bytes.get(i) == Some(&b'"') {
            return skip_string(bytes, i);
        }
    }
    // r or br: count hashes, then scan for `"` + same hashes.
    debug_assert_eq!(bytes[i], b'r');
    i += 1;
    let mut hashes = 0;
    while bytes.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    debug_assert_eq!(bytes.get(i), Some(&b'"'));
    i += 1;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let mut j = i + 1;
            let mut seen = 0;
            while seen < hashes && bytes.get(j) == Some(&b'#') {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return j;
            }
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                TokenKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_do_not_leak_idents() {
        let src = r##"
            // HashMap in a comment
            /* Instant::now in /* a nested */ block */
            let s = "HashMap::new()";
            let r = r#"thread_rng"#;
            let b = b"SystemTime";
            let c = 'x';
            let esc = '\'';
        "##;
        let ids = idents(src);
        assert!(!ids.iter().any(|i| i == "HashMap"), "{ids:?}");
        assert!(!ids.iter().any(|i| i == "Instant"), "{ids:?}");
        assert!(!ids.iter().any(|i| i == "thread_rng"), "{ids:?}");
        assert!(!ids.iter().any(|i| i == "SystemTime"), "{ids:?}");
        assert!(ids.contains(&"let".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }";
        let lexed = lex(src);
        assert!(!lexed.tokens.iter().any(|t| t.is_literal()));
        assert!(lexed.tokens.iter().any(|t| t.is_ident("str")));
    }

    #[test]
    fn each_literal_is_one_token() {
        let lexed =
            lex(r###"let a = "plain"; let b = r#"raw "quoted" body"#; let c = b"bytes";"###);
        assert_eq!(lexed.tokens.iter().filter(|t| t.is_literal()).count(), 3);
        assert!(!lexed.tokens.iter().any(|t| t.is_ident("quoted")));
        let lexed = lex("let c = 'x'; let b = b'y';");
        assert_eq!(lexed.tokens.iter().filter(|t| t.is_literal()).count(), 2);
    }

    #[test]
    fn multiline_literals_report_their_opening_line() {
        let src = "let a = \"one\ntwo\n\"; let b = r#\"x\ny\"#;\nlet after = 1;";
        let lexed = lex(src);
        let lits: Vec<u32> = lexed
            .tokens
            .iter()
            .filter(|t| t.is_literal())
            .map(|t| t.line)
            .collect();
        assert_eq!(lits, vec![1, 3], "literals anchor at their opening line");
        let after = lexed.tokens.iter().find(|t| t.is_ident("after")).unwrap();
        assert_eq!(after.line, 5, "line counting resumes past the literal");
    }

    #[test]
    fn unterminated_literals_are_tolerated() {
        // The rest of the file is swallowed, but the lexer must not
        // panic or mis-slice on any of these torn endings.
        for src in [
            "let s = \"open",
            "let s = r#\"open",
            "let s = \"esc\\",
            "let c = '",
        ] {
            let _ = lex(src);
        }
    }

    #[test]
    fn raw_idents_and_numbers() {
        let ids = idents("let r#type = 0xFF_u64; let range = 1..5;");
        assert!(ids.contains(&"type".to_string()));
        // `1..5` is number, dot, dot, number — not a malformed float.
        let lexed = lex("1..5");
        assert_eq!(lexed.tokens.iter().filter(|t| t.is_punct('.')).count(), 2);
        assert_eq!(
            lexed
                .tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Number)
                .count(),
            2
        );
    }

    #[test]
    fn line_numbers_track_newlines() {
        let src = "a\nb\n\"multi\nline\"\nc";
        let lexed = lex(src);
        let c = lexed.tokens.iter().find(|t| t.is_ident("c")).unwrap();
        assert_eq!(c.line, 5);
    }

    #[test]
    fn comments_are_captured_with_lines() {
        let src = "let x = 1; // dcs-lint: allow(hash-collection) — reason\nlet y = 2;";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(lexed.comments[0].line, 1);
        assert!(lexed.comments[0].text.contains("dcs-lint"));
    }
}
