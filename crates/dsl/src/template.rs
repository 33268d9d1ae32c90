//! Code templates: `%{ ... }%` bodies with `[[expr]]` splices.
//!
//! Rendering follows the conventions the paper's Fig. 2 template relies on:
//!
//! * a splice *inside* a string literal (`'[[funcName]]'`) inserts the raw
//!   text of the value, so the quotes in the template win;
//! * a splice *outside* any literal inserts a C literal: strings are quoted
//!   (`[[$fCall.location]]` becomes `"main_loop:0"`), numbers appear
//!   textually;
//! * [`DslValue::Code`] fragments always splice raw — that is how
//!   `[[$fCall.argList]]` re-emits the actual argument expressions so the
//!   profiling call receives the runtime argument *values*.

use crate::ast::{Template, TplPart};
use crate::error::DslError;
use crate::expr::{eval, Env};
use crate::value::DslValue;

/// Parses a raw template body (the text between `%{` and `}%`) into parts.
///
/// # Errors
///
/// Returns [`DslError::Parse`] if a `[[` splice is unterminated or its
/// expression does not parse.
pub(crate) fn parse_template(body: &str) -> Result<Template, DslError> {
    let mut parts = Vec::new();
    let mut rest = body;
    while let Some(open) = rest.find("[[") {
        if !rest[..open].is_empty() {
            parts.push(TplPart::Text(rest[..open].to_string()));
        }
        let after = &rest[open + 2..];
        let close = after
            .find("]]")
            .ok_or_else(|| DslError::parse(0, 0, "unterminated `[[` splice in template"))?;
        let expr = crate::parser::parse_dsl_expr(after[..close].trim())?;
        parts.push(TplPart::Splice(expr));
        rest = &after[close + 2..];
    }
    if !rest.is_empty() {
        parts.push(TplPart::Text(rest.to_string()));
    }
    Ok(Template { parts })
}

/// Renders a template against an environment, producing mini-C source text.
///
/// # Errors
///
/// Propagates expression-evaluation errors; splicing [`DslValue::Null`]
/// is an error (the aspect referenced a missing attribute).
pub(crate) fn render(template: &Template, env: &Env) -> Result<String, DslError> {
    let mut out = String::new();
    let mut in_single = false;
    let mut in_double = false;
    for part in &template.parts {
        match part {
            TplPart::Text(text) => {
                for c in text.chars() {
                    match c {
                        '\'' if !in_double => in_single = !in_single,
                        '"' if !in_single => in_double = !in_double,
                        _ => {}
                    }
                    out.push(c);
                }
            }
            TplPart::Splice(expr) => {
                let value = eval(expr, env)?;
                let rendered = splice_text(&value, in_single || in_double)?;
                out.push_str(&rendered);
            }
        }
    }
    Ok(out)
}

fn splice_text(value: &DslValue, in_quotes: bool) -> Result<String, DslError> {
    Ok(match value {
        DslValue::Null => {
            return Err(DslError::Eval(
                "cannot splice null into a code template".into(),
            ))
        }
        DslValue::Code(code) => code.clone(),
        DslValue::Str(s) => {
            if in_quotes {
                s.clone()
            } else {
                format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
            }
        }
        DslValue::Int(v) => v.to_string(),
        DslValue::Float(v) => {
            let text = format!("{v}");
            if text.contains('.') || text.contains('e') {
                text
            } else {
                format!("{text}.0")
            }
        }
        DslValue::Bool(b) => i64::from(*b).to_string(),
        other => {
            return Err(DslError::Eval(format!(
                "cannot splice {other} into a code template"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_with(pairs: &[(&str, DslValue)]) -> Env {
        let mut env = Env::new();
        for (name, value) in pairs {
            env.bind(*name, value.clone());
        }
        env
    }

    #[test]
    fn parse_splits_text_and_splices() {
        let t = parse_template("a [[x]] b [[y + 1]] c").unwrap();
        assert_eq!(t.parts.len(), 5);
        assert!(matches!(&t.parts[0], TplPart::Text(s) if s == "a "));
        assert!(matches!(&t.parts[1], TplPart::Splice(_)));
    }

    #[test]
    fn unterminated_splice_is_an_error() {
        assert!(parse_template("a [[x b").is_err());
    }

    #[test]
    fn splice_inside_quotes_is_raw() {
        let t = parse_template("f('[[name]]');").unwrap();
        let out = render(&t, &env_with(&[("name", DslValue::Str("kernel".into()))])).unwrap();
        assert_eq!(out, "f('kernel');");
    }

    #[test]
    fn splice_outside_quotes_is_a_literal() {
        let t = parse_template("f([[loc]], [[n]]);").unwrap();
        let out = render(
            &t,
            &env_with(&[
                ("loc", DslValue::Str("main:0".into())),
                ("n", DslValue::Int(4)),
            ]),
        )
        .unwrap();
        assert_eq!(out, "f(\"main:0\", 4);");
    }

    #[test]
    fn code_fragments_splice_raw() {
        let t = parse_template("f([[args]]);").unwrap();
        let out = render(&t, &env_with(&[("args", DslValue::Code("buf, 64".into()))])).unwrap();
        assert_eq!(out, "f(buf, 64);");
    }

    #[test]
    fn fig2_template_renders_parseable_code() {
        let t = parse_template("profile_args('[[funcName]]',\n[[loc]],\n[[args]]);\n").unwrap();
        let out = render(
            &t,
            &env_with(&[
                ("funcName", DslValue::Str("kernel".into())),
                ("loc", DslValue::Str("main_loop:1/0.0".into())),
                ("args", DslValue::Code("buf, 64".into())),
            ]),
        )
        .unwrap();
        let stmts = antarex_ir::parse_stmts(&out).unwrap();
        assert_eq!(stmts.len(), 1);
    }

    #[test]
    fn null_splice_is_an_error() {
        let t = parse_template("f([[x]]);").unwrap();
        assert!(render(&t, &env_with(&[("x", DslValue::Null)])).is_err());
    }

    #[test]
    fn float_splices_relex_as_floats() {
        let t = parse_template("double x = [[v]];").unwrap();
        let out = render(&t, &env_with(&[("v", DslValue::Float(2.0))])).unwrap();
        assert_eq!(out, "double x = 2.0;");
    }
}
