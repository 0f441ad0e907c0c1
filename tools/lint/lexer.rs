//! A self-contained Rust lexer for the kernel lint.
//!
//! Produces a flat token stream with line provenance; comments (line and
//! nested block) are stripped here, so no downstream pass ever has to
//! reason about commented-out code. The lexer understands just enough of
//! Rust's lexical grammar to never mis-tokenize real workspace sources:
//! string/char/byte literals with escapes, raw strings with `#` fences,
//! lifetimes vs char literals, numeric literals (including `0..n` range
//! splits), and the multi-char punctuation the parser cares about
//! (`::`, `->`, `=>`, `||`, `&&`, `..`).

/// What a token is. `text` on [`Tok`] always carries the exact source
/// spelling (string literals keep their quotes so the parser can tell a
/// literal kernel name from an expression).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `let`, `warp`, …).
    Ident,
    /// Lifetime (`'a`, `'walk`).
    Lifetime,
    /// Integer or float literal.
    Num,
    /// String / raw-string / byte-string literal, quotes included.
    Str,
    /// Char or byte-char literal.
    Char,
    /// Punctuation — single char or one of the fused pairs
    /// (`::`, `->`, `=>`, `||`, `&&`, `..`).
    Punct,
    /// `(`, `[`, `{`.
    Open,
    /// `)`, `]`, `}`.
    Close,
}

/// One lexed token with 1-based line provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

impl Tok {
    pub fn is(&self, kind: TokKind, text: &str) -> bool {
        self.kind == kind && self.text == text
    }

    pub fn is_ident(&self, text: &str) -> bool {
        self.is(TokKind::Ident, text)
    }

    pub fn is_punct(&self, text: &str) -> bool {
        self.is(TokKind::Punct, text)
    }
}

/// Lex `src` into tokens. Unterminated constructs are tolerated (the rest
/// of the file becomes one token): the lint must never panic on a source
/// tree it is asked to scan.
pub fn lex(src: &str) -> Vec<Tok> {
    let b: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            // Line comment (also swallows doc comments).
            '/' if b.get(i + 1) == Some(&'/') => {
                while i < b.len() && b[i] != '\n' {
                    i += 1;
                }
            }
            // Nested block comment.
            '/' if b.get(i + 1) == Some(&'*') => {
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
            }
            // Raw / byte / raw-byte strings: r"…", r#"…"#, b"…", br#"…"#.
            'r' | 'b' if starts_string_prefix(&b, i) => {
                let start_line = line;
                let (text, consumed, newlines) = lex_prefixed_string(&b, i);
                line += newlines;
                i += consumed;
                toks.push(Tok {
                    kind: TokKind::Str,
                    text,
                    line: start_line,
                });
            }
            '"' => {
                let start_line = line;
                let (text, consumed, newlines) = lex_quoted(&b, i, '"');
                line += newlines;
                i += consumed;
                toks.push(Tok {
                    kind: TokKind::Str,
                    text,
                    line: start_line,
                });
            }
            // `'` starts either a char literal or a lifetime.
            '\'' => {
                if is_lifetime(&b, i) {
                    let start = i;
                    i += 1;
                    while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                        i += 1;
                    }
                    toks.push(Tok {
                        kind: TokKind::Lifetime,
                        text: b[start..i].iter().collect(),
                        line,
                    });
                } else {
                    let start_line = line;
                    let (text, consumed, newlines) = lex_quoted(&b, i, '\'');
                    line += newlines;
                    i += consumed;
                    toks.push(Tok {
                        kind: TokKind::Char,
                        text,
                        line: start_line,
                    });
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text: b[start..i].iter().collect(),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                i += 1;
                while i < b.len() {
                    let d = b[i];
                    if d.is_alphanumeric() || d == '_' {
                        i += 1;
                    } else if d == '.' {
                        // `0..n` is a range, not a float; `1.5` is a float.
                        if b.get(i + 1).is_some_and(|n| n.is_ascii_digit())
                            && !b[start..i].contains(&'.')
                        {
                            i += 1;
                        } else {
                            break;
                        }
                    } else {
                        break;
                    }
                }
                toks.push(Tok {
                    kind: TokKind::Num,
                    text: b[start..i].iter().collect(),
                    line,
                });
            }
            '(' | '[' | '{' => {
                toks.push(Tok {
                    kind: TokKind::Open,
                    text: c.to_string(),
                    line,
                });
                i += 1;
            }
            ')' | ']' | '}' => {
                toks.push(Tok {
                    kind: TokKind::Close,
                    text: c.to_string(),
                    line,
                });
                i += 1;
            }
            _ => {
                // Fuse the pairs the parser pattern-matches on; everything
                // else is a single-char punct.
                let pair: String = b[i..(i + 2).min(b.len())].iter().collect();
                let fused = matches!(pair.as_str(), "::" | "->" | "=>" | "||" | "&&" | "..");
                let text = if fused { pair } else { c.to_string() };
                i += text.chars().count();
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text,
                    line,
                });
            }
        }
    }
    toks
}

/// Does position `i` (at `r` or `b`) begin a raw/byte string literal
/// rather than a plain identifier?
fn starts_string_prefix(b: &[char], i: usize) -> bool {
    // Only when the previous char can't extend an identifier into this one
    // (`warp` vs `r"…"`).
    if i > 0 && (b[i - 1].is_alphanumeric() || b[i - 1] == '_') {
        return false;
    }
    let mut j = i;
    if b[j] == 'b' {
        j += 1;
    }
    if b.get(j) == Some(&'r') {
        j += 1;
        while b.get(j) == Some(&'#') {
            j += 1;
        }
        return b.get(j) == Some(&'"');
    }
    b.get(j) == Some(&'"') && b[i] == 'b'
}

/// Lex a raw or byte string starting at `i`; returns (text, chars
/// consumed, newlines crossed).
fn lex_prefixed_string(b: &[char], i: usize) -> (String, usize, u32) {
    let mut j = i;
    if b[j] == 'b' {
        j += 1;
    }
    let raw = b.get(j) == Some(&'r');
    if raw {
        j += 1;
        let mut fence = 0usize;
        while b.get(j) == Some(&'#') {
            fence += 1;
            j += 1;
        }
        j += 1; // opening quote
        let mut newlines = 0u32;
        while j < b.len() {
            if b[j] == '\n' {
                newlines += 1;
            }
            if b[j] == '"' && b[j + 1..].iter().take(fence).filter(|c| **c == '#').count() == fence
            {
                j += 1 + fence;
                return (b[i..j].iter().collect(), j - i, newlines);
            }
            j += 1;
        }
        (b[i..].iter().collect(), b.len() - i, newlines)
    } else {
        // b"…" — plain escapes.
        let (text, consumed, newlines) = lex_quoted(b, j, '"');
        let total = (j - i) + consumed;
        (
            format!("{}{}", b[i..j].iter().collect::<String>(), text),
            total,
            newlines,
        )
    }
}

/// Lex a `"…"` or `'…'` literal with backslash escapes starting at `i`.
fn lex_quoted(b: &[char], i: usize, quote: char) -> (String, usize, u32) {
    let mut j = i + 1;
    let mut newlines = 0u32;
    while j < b.len() {
        match b[j] {
            '\\' => j += 2,
            '\n' => {
                newlines += 1;
                j += 1;
            }
            c if c == quote => {
                j += 1;
                return (b[i..j].iter().collect(), j - i, newlines);
            }
            _ => j += 1,
        }
    }
    (b[i..].iter().collect(), b.len() - i, newlines)
}

/// Distinguish `'a` (lifetime) from `'a'` (char). A lifetime is `'` +
/// ident-start not followed by a closing `'` right after one char.
fn is_lifetime(b: &[char], i: usize) -> bool {
    match b.get(i + 1) {
        Some(c) if c.is_alphabetic() || *c == '_' => {
            // `'a'` is a char; `'a` / `'ab…` is a lifetime. Multi-char
            // ident runs are always lifetimes (`'walk`).
            b.get(i + 2) != Some(&'\'')
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn comments_are_stripped() {
        assert_eq!(texts("a // Ordering::AcqRel\nb"), vec!["a", "b"]);
        assert_eq!(texts("a /* x /* y */ z */ b"), vec!["a", "b"]);
    }

    #[test]
    fn strings_and_chars_and_lifetimes() {
        let toks = lex("warp.launch(\"edge_insert\", 'x', '\\n', 'walk: loop {})");
        assert_eq!(toks[4].kind, TokKind::Str);
        assert_eq!(toks[4].text, "\"edge_insert\"");
        assert_eq!(toks[6].kind, TokKind::Char);
        assert_eq!(toks[8].kind, TokKind::Char);
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'walk"));
    }

    #[test]
    fn raw_strings_do_not_confuse_idents() {
        let toks = lex("let r = r#\"a \"quoted\" b\"#; restarts");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Str && t.text.starts_with("r#")));
        assert!(toks.iter().any(|t| t.is_ident("restarts")));
    }

    #[test]
    fn ranges_are_not_floats() {
        let toks = lex("for i in 0..n { x(1.5, 2..=3) }");
        assert!(toks.iter().any(|t| t.is_punct("..")));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Num && t.text == "1.5"));
    }

    #[test]
    fn fused_puncts_and_lines() {
        let toks = lex("a::b -> c\n=> || && ..");
        for p in ["::", "->", "=>", "||", "&&", ".."] {
            assert!(toks.iter().any(|t| t.is_punct(p)), "{p}");
        }
        assert_eq!(toks.iter().find(|t| t.is_punct("=>")).unwrap().line, 2);
    }
}
