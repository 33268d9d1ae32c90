//! Pretty-printer producing C-like source from the AST.
//!
//! Printing is the source-to-source half of the ANTAREX flow: after weaving,
//! the enhanced program can be emitted as text again. The printer's output
//! re-parses to an equivalent AST (round-trip property, tested here and with
//! proptest in the crate's integration tests).

use crate::ast::{BinOp, Block, Expr, Function, LValue, Program, Stmt, UnOp};
use std::fmt::Write as _;

/// Prints a whole program as C-like source.
///
/// # Examples
///
/// ```
/// use antarex_ir::{parse_program, printer::print_program};
///
/// # fn main() -> Result<(), antarex_ir::IrError> {
/// let program = parse_program("int f(int x) { return x + 1; }")?;
/// let text = print_program(&program);
/// assert!(text.contains("return (x + 1);"));
/// # Ok(())
/// # }
/// ```
pub fn print_program(program: &Program) -> String {
    let mut out = String::new();
    for (i, function) in program.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        print_function_into(function, &mut out);
    }
    out
}

/// Prints a single function.
pub fn print_function(function: &Function) -> String {
    let mut out = String::new();
    print_function_into(function, &mut out);
    out
}

fn print_function_into(function: &Function, out: &mut String) {
    match function.ret {
        Some(ty) => {
            let _ = write!(out, "{ty} ");
        }
        None => out.push_str("void "),
    }
    let _ = write!(out, "{}(", function.name);
    for (i, param) in function.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{} {}", param.ty, param.name);
        if param.is_array {
            out.push_str("[]");
        }
    }
    out.push_str(") {\n");
    print_block(&function.body, 1, out);
    out.push_str("}\n");
}

fn indent(level: usize, out: &mut String) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn print_block(block: &Block, level: usize, out: &mut String) {
    for stmt in block {
        print_stmt(stmt, level, out);
    }
}

fn print_stmt(stmt: &Stmt, level: usize, out: &mut String) {
    indent(level, out);
    match stmt {
        Stmt::Decl { name, ty, init } => {
            let _ = write!(out, "{ty} {name}");
            if let Some(init) = init {
                let _ = write!(out, " = {}", print_expr(init));
            }
            out.push_str(";\n");
        }
        Stmt::ArrayDecl { name, ty, size } => {
            let _ = writeln!(out, "{ty} {name}[{size}];");
        }
        Stmt::Assign { target, value } => {
            let target_text = match target {
                LValue::Var(name) => name.clone(),
                LValue::Index(name, idx) => format!("{name}[{}]", print_expr(idx)),
            };
            let _ = writeln!(out, "{target_text} = {};", print_expr(value));
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let _ = writeln!(out, "if ({}) {{", print_expr(cond));
            print_block(then_branch, level + 1, out);
            indent(level, out);
            match else_branch {
                Some(else_branch) => {
                    out.push_str("} else {\n");
                    print_block(else_branch, level + 1, out);
                    indent(level, out);
                    out.push_str("}\n");
                }
                None => out.push_str("}\n"),
            }
        }
        Stmt::For {
            var,
            init,
            cond,
            step,
            body,
        } => {
            let _ = writeln!(
                out,
                "for (int {var} = {}; {}; {var} = {}) {{",
                print_expr(init),
                print_expr(cond),
                print_expr(step)
            );
            print_block(body, level + 1, out);
            indent(level, out);
            out.push_str("}\n");
        }
        Stmt::While { cond, body } => {
            let _ = writeln!(out, "while ({}) {{", print_expr(cond));
            print_block(body, level + 1, out);
            indent(level, out);
            out.push_str("}\n");
        }
        Stmt::Return(value) => match value {
            Some(value) => {
                let _ = writeln!(out, "return {};", print_expr(value));
            }
            None => out.push_str("return;\n"),
        },
        Stmt::ExprStmt(expr) => {
            let _ = writeln!(out, "{};", print_expr(expr));
        }
    }
}

/// Prints an expression with full parenthesisation (unambiguous, re-parses
/// to the same tree).
pub(crate) fn print_expr(expr: &Expr) -> String {
    match expr {
        Expr::Int(v) => v.to_string(),
        Expr::Float(v) => {
            let text = format!("{v}");
            // Ensure it re-lexes as a float literal.
            if text.contains('.')
                || text.contains('e')
                || text.contains("inf")
                || text.contains("NaN")
            {
                text
            } else {
                format!("{text}.0")
            }
        }
        Expr::Str(s) => format!(
            "\"{}\"",
            s.replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n")
        ),
        Expr::Var(name) => name.clone(),
        Expr::Unary(op, inner) => match op {
            UnOp::Neg => format!("-({})", print_expr(inner)),
            UnOp::Not => format!("!({})", print_expr(inner)),
        },
        Expr::Binary(op, lhs, rhs) => {
            format!("({} {} {})", print_expr(lhs), op_text(*op), print_expr(rhs))
        }
        Expr::Call(name, args) => {
            let args: Vec<String> = args.iter().map(print_expr).collect();
            format!("{name}({})", args.join(", "))
        }
        Expr::Index(name, idx) => format!("{name}[{}]", print_expr(idx)),
    }
}

fn op_text(op: BinOp) -> &'static str {
    op.symbol()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_program};

    #[test]
    fn round_trip_program() {
        let source = "double dot(double a[], double b[], int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++) { s += a[i] * b[i]; }
            if (n > 100) { s = s / 2.0; } else { s = -s; }
            return s;
        }";
        let program = parse_program(source).unwrap();
        let printed = print_program(&program);
        let reparsed = parse_program(&printed).unwrap();
        assert_eq!(program, reparsed, "print → parse is identity");
    }

    #[test]
    fn round_trip_expr_preserves_structure() {
        for src in [
            "1 + 2 * 3",
            "(1 + 2) * 3",
            "a && b || !c",
            "-x * -y",
            "f(a[i], \"s\\\"x\")",
            "1.5e3 + .25",
        ] {
            let expr = parse_expr(src).unwrap();
            let printed = print_expr(&expr);
            let reparsed = parse_expr(&printed).unwrap();
            assert_eq!(expr, reparsed, "failed on {src} -> {printed}");
        }
    }

    #[test]
    fn float_literal_without_fraction_gets_dot() {
        assert_eq!(print_expr(&Expr::Float(2.0)), "2.0");
        assert_eq!(print_expr(&Expr::Float(0.5)), "0.5");
    }

    #[test]
    fn while_and_arrays_print() {
        let program = parse_program(
            "int f() { int acc[4]; int i = 0; while (i < 4) { acc[i] = i; i++; } return acc[3]; }",
        )
        .unwrap();
        let text = print_program(&program);
        assert!(text.contains("int acc[4];"));
        assert!(text.contains("while ((i < 4)) {"));
        let reparsed = parse_program(&text).unwrap();
        assert_eq!(program, reparsed);
    }
}
