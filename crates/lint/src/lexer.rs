//! A comment- and string-aware Rust lexer.
//!
//! The analyzers in this crate work on token sequences, never on raw
//! text, so `format!` inside a doc comment or a string literal can
//! never trip a rule. The lexer is deliberately small: it distinguishes
//! identifiers, literals and punctuation, tracks line numbers, and gets
//! Rust's awkward cases right (nested block comments, raw strings,
//! lifetimes vs char literals). It does **not** build a syntax tree —
//! the analyzers carry their own brace-tracked notion of scope.

/// What a token is, at the fidelity the analyzers need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`fn`, `HashMap`, `now`, …).
    Ident,
    /// A lifetime (`'a`, `'static`).
    Lifetime,
    /// A numeric literal.
    Num,
    /// A string, byte-string, or char literal (content not preserved
    /// verbatim — only that it *is* a literal matters to the rules).
    Str,
    /// A single punctuation character (`:`, `.`, `{`, …).
    Punct,
}

/// One token with its source line (1-indexed).
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// The token text (for `Str`, the raw literal including quotes).
    pub text: String,
    /// 1-indexed line the token starts on.
    pub line: u32,
}

impl Tok {
    /// `true` when this token is the identifier `s`.
    #[must_use]
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// `true` when this token is the punctuation character `c`.
    #[must_use]
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// Tokenizes `src`, discarding comments and whitespace.
#[must_use]
pub fn tokenize(src: &str) -> Vec<Tok> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                // Line comment: skip to end of line (the newline itself
                // is handled above so the count stays right).
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                // Block comment, which Rust nests.
                let mut depth = 1usize;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                let start_line = line;
                let (end, newlines) = scan_string(bytes, i);
                line += newlines;
                toks.push(Tok {
                    kind: TokKind::Str,
                    text: src[i..end].to_string(),
                    line: start_line,
                });
                i = end;
            }
            'r' | 'b' if starts_string_prefix(bytes, i) => {
                let start_line = line;
                let (end, newlines) = scan_prefixed_string(src, bytes, i);
                line += newlines;
                toks.push(Tok {
                    kind: TokKind::Str,
                    text: src[i..end].to_string(),
                    line: start_line,
                });
                i = end;
            }
            '\'' => {
                // Lifetime or char literal. A char literal is `'x'` or
                // `'\…'`; a lifetime is `'` followed by an identifier
                // with no closing quote.
                if bytes.get(i + 1) == Some(&b'\\') {
                    // Escaped char literal: skip the escaped character
                    // (so `'\''` closes on the *fourth* byte), then scan
                    // to the closing quote (covers `'\u{…}'`).
                    let mut j = i + 3;
                    while j < bytes.len() && bytes[j] != b'\'' {
                        j += 1;
                    }
                    toks.push(Tok {
                        kind: TokKind::Str,
                        text: src[i..=j.min(bytes.len() - 1)].to_string(),
                        line,
                    });
                    i = j + 1;
                } else if bytes
                    .get(i + 2)
                    .is_some_and(|&b| b == b'\'')
                {
                    toks.push(Tok {
                        kind: TokKind::Str,
                        text: src[i..i + 3].to_string(),
                        line,
                    });
                    i += 3;
                } else {
                    let mut j = i + 1;
                    while j < bytes.len() && is_ident_byte(bytes[j]) {
                        j += 1;
                    }
                    toks.push(Tok {
                        kind: TokKind::Lifetime,
                        text: src[i..j].to_string(),
                        line,
                    });
                    i = j;
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut j = i + 1;
                while j < bytes.len() && is_ident_byte(bytes[j]) {
                    j += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text: src[i..j].to_string(),
                    line,
                });
                i = j;
            }
            c if c.is_ascii_digit() => {
                // Numbers: digits plus alphanumerics/underscore (covers
                // suffixes and hex). `1.5` lexes as Num(1) '.' Num(5),
                // which is fine — no analyzer interprets floats.
                let mut j = i + 1;
                while j < bytes.len() && is_ident_byte(bytes[j]) {
                    j += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Num,
                    text: src[i..j].to_string(),
                    line,
                });
                i = j;
            }
            c => {
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text: c.to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    toks
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whether position `i` starts a `r"`, `r#"`, `b"`, or `br#"` literal
/// (as opposed to an identifier that merely begins with `r` or `b`).
fn starts_string_prefix(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    while j < bytes.len() && (bytes[j] == b'r' || bytes[j] == b'b') && j - i < 2 {
        j += 1;
    }
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

/// Scans a `r"…"`, `r#"…"#`, or `b"…"` literal starting at its prefix;
/// returns the index one past the close and the newlines crossed.
fn scan_prefixed_string(src: &str, bytes: &[u8], i: usize) -> (usize, u32) {
    // Skip the prefix (`r`, `b`, `br`, `rb` are not legal but harmless)
    // up to the `#`*`"` opener.
    let mut j = i;
    while j < bytes.len() && (bytes[j] == b'r' || bytes[j] == b'b') {
        j += 1;
    }
    if bytes.get(j) == Some(&b'"') && src[i..=j].starts_with('b') && !src[i..=j].contains('r') {
        // Plain byte string `b"…"`: escapes apply.
        return scan_string(bytes, j);
    }
    // Raw string `r#*"…"#*`: no escapes, closes on a quote followed by
    // the same number of hashes.
    let mut line = 0u32;
    let mut hashes = 0usize;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    debug_assert_eq!(bytes.get(j), Some(&b'"'));
    j += 1;
    loop {
        match bytes.get(j) {
            None => break,
            Some(b'\n') => {
                line += 1;
                j += 1;
            }
            Some(b'"') => {
                let mut k = j + 1;
                let mut seen = 0usize;
                while seen < hashes && bytes.get(k) == Some(&b'#') {
                    seen += 1;
                    k += 1;
                }
                j = k;
                if seen == hashes {
                    break;
                }
            }
            Some(_) => j += 1,
        }
    }
    (j, line)
}

/// Extracts every `//` line comment with its 1-indexed line number,
/// skipping string/char literals — so comment-shaped text inside a
/// string can never be mistaken for a real comment. Used by the
/// `lint:allow` marker parser (markers live in comments, which
/// [`tokenize`] discards).
#[must_use]
pub fn line_comments(src: &str) -> Vec<(u32, String)> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                out.push((line, src[start..i].to_string()));
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 1usize;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                let (end, newlines) = scan_string(bytes, i);
                line += newlines;
                i = end;
            }
            'r' | 'b' if starts_string_prefix(bytes, i) => {
                let (end, newlines) = scan_prefixed_string(src, bytes, i);
                line += newlines;
                i = end;
            }
            '\'' => {
                if bytes.get(i + 1) == Some(&b'\\') {
                    let mut j = i + 3;
                    while j < bytes.len() && bytes[j] != b'\'' {
                        j += 1;
                    }
                    i = j + 1;
                } else if bytes.get(i + 2) == Some(&b'\'') {
                    i += 3;
                } else {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    out
}

/// Scans a `"…"` literal starting at the opening quote; returns the
/// index one past the closing quote and how many newlines were crossed.
fn scan_string(bytes: &[u8], start: usize) -> (usize, u32) {
    let mut i = start + 1;
    let mut newlines = 0u32;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'\n' => {
                newlines += 1;
                i += 1;
            }
            b'"' => return (i + 1, newlines),
            _ => i += 1,
        }
    }
    (i, newlines)
}

/// Removes every `#[cfg(test)]`-gated item from a token stream: test
/// modules (and functions) are exempt from all rules, so they are cut
/// out before any analyzer runs.
#[must_use]
pub fn strip_cfg_test(toks: &[Tok]) -> Vec<Tok> {
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0usize;
    while i < toks.len() {
        if is_cfg_test_attr(toks, i) {
            // Skip the attribute itself: `# [ cfg ( test ) ]`.
            i += 7;
            // Then skip the gated item: to the first `;` at depth 0
            // (a gated `use`), or over the balanced brace block.
            let mut depth = 0i32;
            while i < toks.len() {
                let t = &toks[i];
                if depth == 0 && t.is_punct(';') {
                    i += 1;
                    break;
                }
                match t.text.as_str() {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
        } else {
            out.push(toks[i].clone());
            i += 1;
        }
    }
    out
}

fn is_cfg_test_attr(toks: &[Tok], i: usize) -> bool {
    toks.len() > i + 6
        && toks[i].is_punct('#')
        && toks[i + 1].is_punct('[')
        && toks[i + 2].is_ident("cfg")
        && toks[i + 3].is_punct('(')
        && toks[i + 4].is_ident("test")
        && toks[i + 5].is_punct(')')
        && toks[i + 6].is_punct(']')
}

/// Finds the index of the matching close bracket for the open bracket at
/// `open` (`(`/`)`, `[`/`]`, `{`/`}`), or `toks.len()` if unbalanced.
#[must_use]
pub fn matching(toks: &[Tok], open: usize) -> usize {
    let (o, c) = match toks[open].text.as_str() {
        "(" => ('(', ')'),
        "[" => ('[', ']'),
        "{" => ('{', '}'),
        _ => return toks.len(),
    };
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        tokenize(src).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn comments_and_strings_are_not_idents() {
        let toks = tokenize(
            "// Instant::now in a comment\nlet s = \"Instant::now\"; /* SystemTime::now */ f();",
        );
        assert!(!toks.iter().any(|t| t.is_ident("Instant")));
        assert!(!toks.iter().any(|t| t.is_ident("SystemTime")));
        assert!(toks.iter().any(|t| t.is_ident("f")));
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let toks = tokenize("/* outer /* inner */ still comment */ real");
        assert_eq!(toks.len(), 1);
        assert!(toks[0].is_ident("real"));
    }

    #[test]
    fn raw_strings_and_byte_strings() {
        assert_eq!(texts(r##"x(r#"Instant::now"#)"##), vec!["x", "(", r##"r#"Instant::now"#"##, ")"]);
        let toks = tokenize("b\"bytes\" rest");
        assert_eq!(toks[0].kind, TokKind::Str);
        assert!(toks[1].is_ident("rest"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = tokenize("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Lifetime).count(),
            2
        );
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Str).count(), 2);
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let toks = tokenize("a\n/* x\ny */\nb \"s\ntr\" c");
        let a = toks.iter().find(|t| t.is_ident("a")).unwrap();
        let b = toks.iter().find(|t| t.is_ident("b")).unwrap();
        let c = toks.iter().find(|t| t.is_ident("c")).unwrap();
        assert_eq!((a.line, b.line, c.line), (1, 4, 5));
    }

    #[test]
    fn strip_cfg_test_removes_gated_items() {
        let src = "fn keep() {}\n#[cfg(test)]\nmod tests { fn gone() { bad(); } }\nfn also_keep() {}";
        let toks = strip_cfg_test(&tokenize(src));
        assert!(toks.iter().any(|t| t.is_ident("keep")));
        assert!(toks.iter().any(|t| t.is_ident("also_keep")));
        assert!(!toks.iter().any(|t| t.is_ident("bad")));
    }

    #[test]
    fn strip_cfg_test_handles_gated_use() {
        let src = "#[cfg(test)] use std::x;\nfn keep() {}";
        let toks = strip_cfg_test(&tokenize(src));
        assert!(toks.iter().any(|t| t.is_ident("keep")));
        assert!(!toks.iter().any(|t| t.is_ident("std")));
    }

    #[test]
    fn matching_finds_the_closing_bracket() {
        let toks = tokenize("f(a, (b, c), [d, e])");
        assert_eq!(matching(&toks, 1), toks.len() - 1);
        assert_eq!(matching(&toks, 4), 8, "nested parens close first");
        assert_eq!(matching(&toks, 0), toks.len(), "not a bracket");
    }
}
