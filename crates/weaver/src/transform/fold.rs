//! Constant folding and branch pruning.
//!
//! Folding is what makes specialization (paper Fig. 4) profitable: after the
//! weaver substitutes a runtime value for a parameter, folding collapses the
//! now-constant arithmetic and prunes dead branches, and loop trip counts
//! become statically known — unlocking full unrolling.

use antarex_ir::{BinOp, Block, Expr, Stmt, UnOp};

/// Folds constants in an expression, returning a (possibly) simpler one.
///
/// Integer arithmetic folds exactly (wrapping); float arithmetic folds in
/// f64. Division by a constant zero is left unfolded so the runtime error
/// surfaces where the programmer wrote it.
pub(crate) fn fold_expr(expr: &Expr) -> Expr {
    match expr {
        Expr::Unary(op, inner) => {
            let inner = fold_expr(inner);
            match (op, &inner) {
                (UnOp::Neg, Expr::Int(v)) => Expr::Int(-v),
                (UnOp::Neg, Expr::Float(v)) => Expr::Float(-v),
                (UnOp::Not, Expr::Int(v)) => Expr::Int(i64::from(*v == 0)),
                _ => Expr::Unary(*op, Box::new(inner)),
            }
        }
        Expr::Binary(op, lhs, rhs) => {
            let lhs = fold_expr(lhs);
            let rhs = fold_expr(rhs);
            fold_binary(*op, lhs, rhs)
        }
        Expr::Call(name, args) => Expr::Call(name.clone(), args.iter().map(fold_expr).collect()),
        Expr::Index(name, idx) => Expr::Index(name.clone(), Box::new(fold_expr(idx))),
        other => other.clone(),
    }
}

fn fold_binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
    use BinOp::*;
    if let (Expr::Int(a), Expr::Int(b)) = (&lhs, &rhs) {
        let (a, b) = (*a, *b);
        let folded = match op {
            Add => Some(a.wrapping_add(b)),
            Sub => Some(a.wrapping_sub(b)),
            Mul => Some(a.wrapping_mul(b)),
            Div if b != 0 => Some(a.wrapping_div(b)),
            Rem if b != 0 => Some(a.wrapping_rem(b)),
            Eq => Some(i64::from(a == b)),
            Ne => Some(i64::from(a != b)),
            Lt => Some(i64::from(a < b)),
            Le => Some(i64::from(a <= b)),
            Gt => Some(i64::from(a > b)),
            Ge => Some(i64::from(a >= b)),
            And => Some(i64::from(a != 0 && b != 0)),
            Or => Some(i64::from(a != 0 || b != 0)),
            _ => None,
        };
        if let Some(v) = folded {
            return Expr::Int(v);
        }
    }
    let as_f64 = |e: &Expr| match e {
        Expr::Float(v) => Some(*v),
        Expr::Int(v) => Some(*v as f64),
        _ => None,
    };
    if matches!(lhs, Expr::Float(_)) || matches!(rhs, Expr::Float(_)) {
        if let (Some(a), Some(b)) = (as_f64(&lhs), as_f64(&rhs)) {
            let folded = match op {
                Add => Some(Expr::Float(a + b)),
                Sub => Some(Expr::Float(a - b)),
                Mul => Some(Expr::Float(a * b)),
                Div if b != 0.0 => Some(Expr::Float(a / b)),
                Eq => Some(Expr::Int(i64::from(a == b))),
                Ne => Some(Expr::Int(i64::from(a != b))),
                Lt => Some(Expr::Int(i64::from(a < b))),
                Le => Some(Expr::Int(i64::from(a <= b))),
                Gt => Some(Expr::Int(i64::from(a > b))),
                Ge => Some(Expr::Int(i64::from(a >= b))),
                _ => None,
            };
            if let Some(e) = folded {
                return e;
            }
        }
    }
    // algebraic identities with a constant on one side
    match (op, &lhs, &rhs) {
        (Add, e, Expr::Int(0)) | (Add, Expr::Int(0), e) | (Sub, e, Expr::Int(0)) => e.clone(),
        (Mul, e, Expr::Int(1)) | (Mul, Expr::Int(1), e) | (Div, e, Expr::Int(1)) => e.clone(),
        (Mul, _, Expr::Int(0)) | (Mul, Expr::Int(0), _) => Expr::Int(0),
        (Add, e, Expr::Float(z)) | (Add, Expr::Float(z), e) | (Sub, e, Expr::Float(z))
            if *z == 0.0 =>
        {
            e.clone()
        }
        (Mul, e, Expr::Float(one)) | (Mul, Expr::Float(one), e) | (Div, e, Expr::Float(one))
            if *one == 1.0 =>
        {
            e.clone()
        }
        _ => Expr::binary(op, lhs, rhs),
    }
}

/// Folds constants throughout a block: expressions are folded and `if`
/// statements with constant conditions are replaced by the taken branch.
pub fn fold_block(block: &Block) -> Block {
    let mut out = Vec::with_capacity(block.len());
    for stmt in block {
        match fold_stmt(stmt) {
            Folded::Stmt(s) => out.push(s),
            Folded::Splice(mut stmts) => out.append(&mut stmts),
            Folded::Removed => {}
        }
    }
    out
}

enum Folded {
    Stmt(Stmt),
    Splice(Vec<Stmt>),
    Removed,
}

fn fold_stmt(stmt: &Stmt) -> Folded {
    match stmt {
        Stmt::Decl { name, ty, init } => Folded::Stmt(Stmt::Decl {
            name: name.clone(),
            ty: *ty,
            init: init.as_ref().map(fold_expr),
        }),
        Stmt::ArrayDecl { .. } => Folded::Stmt(stmt.clone()),
        Stmt::Assign { target, value } => Folded::Stmt(Stmt::Assign {
            target: target.clone(),
            value: fold_expr(value),
        }),
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let cond = fold_expr(cond);
            match cond.as_const_int() {
                Some(0) => match else_branch {
                    Some(else_branch) => Folded::Splice(fold_block(else_branch)),
                    None => Folded::Removed,
                },
                Some(_) => Folded::Splice(fold_block(then_branch)),
                None => Folded::Stmt(Stmt::If {
                    cond,
                    then_branch: fold_block(then_branch),
                    else_branch: else_branch.as_ref().map(fold_block),
                }),
            }
        }
        Stmt::For {
            var,
            init,
            cond,
            step,
            body,
        } => Folded::Stmt(Stmt::For {
            var: var.clone(),
            init: fold_expr(init),
            cond: fold_expr(cond),
            step: fold_expr(step),
            body: fold_block(body),
        }),
        Stmt::While { cond, body } => {
            let cond = fold_expr(cond);
            if cond.as_const_int() == Some(0) {
                Folded::Removed
            } else {
                Folded::Stmt(Stmt::While {
                    cond,
                    body: fold_block(body),
                })
            }
        }
        Stmt::Return(e) => Folded::Stmt(Stmt::Return(e.as_ref().map(fold_expr))),
        Stmt::ExprStmt(e) => Folded::Stmt(Stmt::ExprStmt(fold_expr(e))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antarex_ir::parse_expr;

    fn fold(src: &str) -> Expr {
        fold_expr(&parse_expr(src).unwrap())
    }

    #[test]
    fn integer_arithmetic_folds() {
        assert_eq!(fold("2 + 3 * 4"), Expr::Int(14));
        assert_eq!(fold("(10 - 4) / 3"), Expr::Int(2));
        assert_eq!(fold("7 % 4"), Expr::Int(3));
        assert_eq!(fold("-(2 + 3)"), Expr::Int(-5));
        assert_eq!(fold("!0"), Expr::Int(1));
    }

    #[test]
    fn comparisons_fold() {
        assert_eq!(fold("3 < 4"), Expr::Int(1));
        assert_eq!(fold("3.5 >= 4.0"), Expr::Int(0));
        assert_eq!(fold("1 && 0"), Expr::Int(0));
        assert_eq!(fold("1 || 0"), Expr::Int(1));
    }

    #[test]
    fn float_arithmetic_folds() {
        assert_eq!(fold("1.5 * 2.0"), Expr::Float(3.0));
        assert_eq!(fold("1 + 0.5"), Expr::Float(1.5));
    }

    #[test]
    fn division_by_zero_not_folded() {
        assert!(matches!(fold("1 / 0"), Expr::Binary(BinOp::Div, _, _)));
        assert!(matches!(fold("1.0 / 0.0"), Expr::Binary(BinOp::Div, _, _)));
    }

    #[test]
    fn identities_simplify_symbolic_operands() {
        assert_eq!(fold("x + 0"), Expr::var("x"));
        assert_eq!(fold("0 + x"), Expr::var("x"));
        assert_eq!(fold("x * 1"), Expr::var("x"));
        assert_eq!(fold("x * 0"), Expr::Int(0));
        assert_eq!(fold("x - 0"), Expr::var("x"));
        assert_eq!(fold("x / 1"), Expr::var("x"));
    }

    #[test]
    fn nested_partial_folding() {
        // (2 * 3) + x -> 6 + x
        let e = fold("2 * 3 + x");
        assert_eq!(e, Expr::binary(BinOp::Add, Expr::Int(6), Expr::var("x")));
    }

    #[test]
    fn if_with_constant_condition_pruned() {
        let program = antarex_ir::parse_program(
            "int f(int x) { if (1 < 2) { return x; } else { return 0; } }",
        )
        .unwrap();
        let body = fold_block(&program.function("f").unwrap().body);
        assert_eq!(body.len(), 1);
        assert!(matches!(&body[0], Stmt::Return(Some(Expr::Var(v))) if v == "x"));
    }

    #[test]
    fn dead_else_and_dead_while_removed() {
        let program = antarex_ir::parse_program(
            "int f(int x) { if (0) { x = 1; } while (2 > 3) { x = 2; } return x; }",
        )
        .unwrap();
        let body = fold_block(&program.function("f").unwrap().body);
        assert_eq!(body.len(), 1, "only the return remains");
    }

    #[test]
    fn folding_preserves_execution_result() {
        use antarex_ir::interp::{ExecEnv, Interp};
        use antarex_ir::value::Value;
        let src = "int f(int x) {
            int a = 2 * 3 + x;
            if (4 > 2) { a = a + 10 * 0; } else { a = -1; }
            for (int i = 0; i < 2 + 1; i++) { a += i * 1; }
            return a;
        }";
        let program = antarex_ir::parse_program(src).unwrap();
        let mut folded_program = program.clone();
        folded_program
            .edit_function("f", |f| f.body = fold_block(&f.body))
            .unwrap();
        for x in [-3i64, 0, 11] {
            let a = Interp::new(program.clone())
                .call("f", &[Value::Int(x)], &mut ExecEnv::new())
                .unwrap();
            let b = Interp::new(folded_program.clone())
                .call("f", &[Value::Int(x)], &mut ExecEnv::new())
                .unwrap();
            assert_eq!(a, b, "folding changed semantics for x={x}");
        }
    }

    #[test]
    fn folding_reduces_cost() {
        use antarex_ir::interp::{ExecEnv, Interp};
        use antarex_ir::value::Value;
        let src = "int f(int x) { return x + 2 * 3 + 4 * 5; }";
        let program = antarex_ir::parse_program(src).unwrap();
        let mut folded_program = program.clone();
        folded_program
            .edit_function("f", |f| f.body = fold_block(&f.body))
            .unwrap();
        let mut env_a = ExecEnv::new();
        let mut env_b = ExecEnv::new();
        Interp::new(program)
            .call("f", &[Value::Int(1)], &mut env_a)
            .unwrap();
        Interp::new(folded_program)
            .call("f", &[Value::Int(1)], &mut env_b)
            .unwrap();
        assert!(env_b.stats.cost < env_a.stats.cost);
    }
}
