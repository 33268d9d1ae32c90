//! Lexer for the aspect language.
//!
//! Identifiers may carry LARA's `$` prefix (`$fCall`, `$func`); code
//! templates `%{ ... }%` are captured as single raw tokens and their
//! `[[expr]]` splices are parsed later by the [template](crate::template)
//! engine.

use crate::error::DslError;

/// One lexical token.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tok {
    /// Identifier or keyword, possibly `$`-prefixed.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (single or double quoted).
    Str(String),
    /// Raw template body between `%{` and `}%`.
    Template(String),
    /// Punctuation.
    Punct(&'static str),
    /// End of input.
    Eof,
}

/// A token plus its source position.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Token {
    /// The token.
    pub tok: Tok,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

const PUNCTS: &[&str] = &[
    "==", "!=", "<=", ">=", "&&", "||", "(", ")", "{", "}", ",", ";", ":", ".", "<", ">", "+", "-",
    "*", "/", "%", "!", "=",
];

/// Tokenizes aspect source text.
///
/// # Errors
///
/// Returns [`DslError::Parse`] on malformed literals or stray characters.
pub(crate) fn lex(source: &str) -> Result<Vec<Token>, DslError> {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    let mut line = 1u32;
    let mut col = 1u32;
    let advance = |i: &mut usize, line: &mut u32, col: &mut u32, n: usize| {
        for _ in 0..n {
            if *i < bytes.len() && bytes[*i] == b'\n' {
                *line += 1;
                *col = 1;
            } else {
                *col += 1;
            }
            *i += 1;
        }
    };
    'outer: while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_whitespace() {
            advance(&mut i, &mut line, &mut col, 1);
            continue;
        }
        // line comments
        if c == '/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
            while i < bytes.len() && bytes[i] != b'\n' {
                advance(&mut i, &mut line, &mut col, 1);
            }
            continue;
        }
        // block comments
        if c == '/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
            let (sline, scol) = (line, col);
            advance(&mut i, &mut line, &mut col, 2);
            loop {
                if i + 1 >= bytes.len() {
                    return Err(DslError::parse(sline, scol, "unterminated block comment"));
                }
                if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                    advance(&mut i, &mut line, &mut col, 2);
                    continue 'outer;
                }
                advance(&mut i, &mut line, &mut col, 1);
            }
        }
        let (tline, tcol) = (line, col);
        // template %{ ... }%
        if c == '%' && i + 1 < bytes.len() && bytes[i + 1] == b'{' {
            advance(&mut i, &mut line, &mut col, 2);
            let start = i;
            loop {
                if i + 1 >= bytes.len() {
                    return Err(DslError::parse(tline, tcol, "unterminated template `%{`"));
                }
                if bytes[i] == b'}' && bytes[i + 1] == b'%' {
                    break;
                }
                advance(&mut i, &mut line, &mut col, 1);
            }
            let body = source[start..i].to_string();
            advance(&mut i, &mut line, &mut col, 2);
            tokens.push(Token {
                tok: Tok::Template(body),
                line: tline,
                col: tcol,
            });
            continue;
        }
        // identifiers (with optional $ prefix)
        if c.is_ascii_alphabetic() || c == '_' || c == '$' {
            let start = i;
            advance(&mut i, &mut line, &mut col, 1);
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                advance(&mut i, &mut line, &mut col, 1);
            }
            let text = &source[start..i];
            if text == "$" {
                return Err(DslError::parse(
                    tline,
                    tcol,
                    "`$` must prefix an identifier",
                ));
            }
            tokens.push(Token {
                tok: Tok::Ident(text.to_string()),
                line: tline,
                col: tcol,
            });
            continue;
        }
        // numbers
        if c.is_ascii_digit() {
            let start = i;
            let mut is_float = false;
            while i < bytes.len() {
                let d = bytes[i] as char;
                if d.is_ascii_digit() {
                    advance(&mut i, &mut line, &mut col, 1);
                } else if d == '.'
                    && !is_float
                    && i + 1 < bytes.len()
                    && (bytes[i + 1] as char).is_ascii_digit()
                {
                    is_float = true;
                    advance(&mut i, &mut line, &mut col, 1);
                } else {
                    break;
                }
            }
            let text = &source[start..i];
            let tok =
                if is_float {
                    Tok::Float(text.parse().map_err(|_| {
                        DslError::parse(tline, tcol, format!("invalid float `{text}`"))
                    })?)
                } else {
                    Tok::Int(text.parse().map_err(|_| {
                        DslError::parse(tline, tcol, format!("invalid integer `{text}`"))
                    })?)
                };
            tokens.push(Token {
                tok,
                line: tline,
                col: tcol,
            });
            continue;
        }
        // strings, ' or "
        if c == '\'' || c == '"' {
            let quote = c;
            advance(&mut i, &mut line, &mut col, 1);
            let mut text = String::new();
            while i < bytes.len() && bytes[i] as char != quote {
                let d = bytes[i] as char;
                if d == '\\' && i + 1 < bytes.len() {
                    let esc = bytes[i + 1] as char;
                    text.push(match esc {
                        'n' => '\n',
                        't' => '\t',
                        other => other,
                    });
                    advance(&mut i, &mut line, &mut col, 2);
                } else {
                    text.push(d);
                    advance(&mut i, &mut line, &mut col, 1);
                }
            }
            if i >= bytes.len() {
                return Err(DslError::parse(tline, tcol, "unterminated string literal"));
            }
            advance(&mut i, &mut line, &mut col, 1);
            tokens.push(Token {
                tok: Tok::Str(text),
                line: tline,
                col: tcol,
            });
            continue;
        }
        for punct in PUNCTS {
            if source[i..].starts_with(punct) {
                tokens.push(Token {
                    tok: Tok::Punct(punct),
                    line: tline,
                    col: tcol,
                });
                advance(&mut i, &mut line, &mut col, punct.len());
                continue 'outer;
            }
        }
        return Err(DslError::parse(
            tline,
            tcol,
            format!("unexpected character `{c}`"),
        ));
    }
    tokens.push(Token {
        tok: Tok::Eof,
        line,
        col,
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn idents_with_dollar() {
        assert_eq!(
            toks("$fCall.name == funcName"),
            vec![
                Tok::Ident("$fCall".into()),
                Tok::Punct("."),
                Tok::Ident("name".into()),
                Tok::Punct("=="),
                Tok::Ident("funcName".into()),
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn template_captured_raw() {
        let t = toks("insert before %{profile_args('[[funcName]]', [[$fCall.argList]]);\n}%;");
        assert!(matches!(&t[2], Tok::Template(body)
            if body.contains("[[funcName]]") && body.contains("[[$fCall.argList]]")));
        assert_eq!(t[3], Tok::Punct(";"));
    }

    #[test]
    fn strings_both_quotes() {
        assert_eq!(
            toks("'kernel' \"size\""),
            vec![Tok::Str("kernel".into()), Tok::Str("size".into()), Tok::Eof]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            toks("42 3.5"),
            vec![Tok::Int(42), Tok::Float(3.5), Tok::Eof]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            toks("// c\n1 /* b */ 2"),
            vec![Tok::Int(1), Tok::Int(2), Tok::Eof]
        );
    }

    #[test]
    fn errors() {
        assert!(lex("%{ never closed").is_err());
        assert!(lex("'open").is_err());
        assert!(lex("@").is_err());
        assert!(lex("$ alone").is_err());
    }

    #[test]
    fn positions_tracked() {
        let tokens = lex("a\n  b").unwrap();
        assert_eq!((tokens[1].line, tokens[1].col), (2, 3));
    }
}
