//! Statement-level variable substitution (constant propagation primitive).

use antarex_ir::{Block, Expr, LValue, Stmt};

/// Replaces every *read* of variable `name` with `value` throughout a block.
///
/// Writes to `name` are left intact (the caller decides whether the variable
/// is genuinely constant; specialization removes the parameter entirely so no
/// writes can exist, and unrolling substitutes the induction variable only in
/// body copies where it is not reassigned).
pub(crate) fn substitute_block(block: &Block, name: &str, value: &Expr) -> Block {
    block
        .iter()
        .map(|s| substitute_stmt(s, name, value))
        .collect()
}

/// Replaces every read of `name` with `value` in one statement (recursively).
pub(crate) fn substitute_stmt(stmt: &Stmt, name: &str, value: &Expr) -> Stmt {
    match stmt {
        Stmt::Decl { name: n, ty, init } => Stmt::Decl {
            name: n.clone(),
            ty: *ty,
            init: init.as_ref().map(|e| e.substitute(name, value)),
        },
        Stmt::ArrayDecl { .. } => stmt.clone(),
        Stmt::Assign { target, value: rhs } => Stmt::Assign {
            target: match target {
                LValue::Var(v) => LValue::Var(v.clone()),
                LValue::Index(arr, idx) => {
                    LValue::Index(arr.clone(), Box::new(idx.substitute(name, value)))
                }
            },
            value: rhs.substitute(name, value),
        },
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => Stmt::If {
            cond: cond.substitute(name, value),
            then_branch: substitute_block(then_branch, name, value),
            else_branch: else_branch
                .as_ref()
                .map(|b| substitute_block(b, name, value)),
        },
        Stmt::For {
            var,
            init,
            cond,
            step,
            body,
        } => {
            if var == name {
                // the loop shadows the substituted variable
                Stmt::For {
                    var: var.clone(),
                    init: init.substitute(name, value),
                    cond: cond.clone(),
                    step: step.clone(),
                    body: body.clone(),
                }
            } else {
                Stmt::For {
                    var: var.clone(),
                    init: init.substitute(name, value),
                    cond: cond.substitute(name, value),
                    step: step.substitute(name, value),
                    body: substitute_block(body, name, value),
                }
            }
        }
        Stmt::While { cond, body } => Stmt::While {
            cond: cond.substitute(name, value),
            body: substitute_block(body, name, value),
        },
        Stmt::Return(e) => Stmt::Return(e.as_ref().map(|e| e.substitute(name, value))),
        Stmt::ExprStmt(e) => Stmt::ExprStmt(e.substitute(name, value)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antarex_ir::parse_program;
    use antarex_ir::printer::print_function;

    fn substituted(src: &str, name: &str, value: i64) -> String {
        let program = parse_program(src).unwrap();
        let f = program.function("f").unwrap();
        let body = substitute_block(&f.body, name, &Expr::Int(value));
        let mut clone = (**f).clone();
        clone.body = body;
        print_function(&clone)
    }

    #[test]
    fn substitutes_reads_everywhere() {
        let text = substituted(
            "int f(int n) { int x = n + 1; if (n > 2) { return n; } return x; }",
            "n",
            9,
        );
        assert!(text.contains("int x = (9 + 1);"));
        assert!(text.contains("if ((9 > 2))"));
        assert!(text.contains("return 9;"));
    }

    #[test]
    fn loop_variable_shadows_substitution() {
        let text = substituted(
            "int f(int i) { int s = i; for (int i = 0; i < 4; i++) { s += i; } return s; }",
            "i",
            7,
        );
        // the init read of outer i is substituted...
        assert!(text.contains("int s = 7;"));
        // ...but the loop body keeps its own i
        assert!(text.contains("s = (s + i);"));
        assert!(text.contains("i < 4"));
    }

    #[test]
    fn array_index_reads_are_substituted() {
        let text = substituted("void f(double a[], int k) { a[k] = a[k] + 1.0; }", "k", 3);
        assert!(text.contains("a[3] = (a[3] + 1.0);"));
    }
}
