//! Dead-store elimination.
//!
//! Specialization and folding leave corpses: declarations whose variable
//! is never read again, assignments overwritten before use. This pass
//! removes them conservatively — only scalar declarations/assignments
//! whose target is never *read* anywhere after the statement, and whose
//! right-hand side contains no calls (calls may have effects). Loop
//! variables, array declarations and control flow are left alone.

use antarex_ir::{Block, Expr, LValue, NodePath, Stmt};
use std::collections::BTreeSet;

/// Names read anywhere in the statements `from..` of a pre-order listing.
fn reads_after(listing: &[(NodePath, &Stmt)], from: usize) -> BTreeSet<String> {
    let mut reads = BTreeSet::new();
    for (_, stmt) in &listing[from..] {
        stmt.own_exprs(&mut |expr| {
            expr.walk(&mut |e| match e {
                Expr::Var(name) => {
                    reads.insert(name.clone());
                }
                Expr::Index(name, _) => {
                    reads.insert(name.clone());
                }
                _ => {}
            });
        });
        // array-element stores read the array implicitly (the rest of the
        // array survives), and their index expression reads too
        if let Stmt::Assign {
            target: LValue::Index(name, _),
            ..
        } = stmt
        {
            reads.insert(name.clone());
        }
    }
    reads
}

fn has_call(expr: &Expr) -> bool {
    let mut found = false;
    expr.walk(&mut |e| found |= matches!(e, Expr::Call(_, _)));
    found
}

/// Removes dead scalar declarations and assignments from a body.
/// Returns the number of statements removed. Run to a fixed point by the
/// caller if cascading removal is wanted ([`eliminate_dead_stores`] does
/// one pass; [`dce_fixpoint`] iterates).
pub(crate) fn eliminate_dead_stores(body: &mut Block) -> usize {
    // collect candidate paths first (immutable walk), then delete in
    // reverse pre-order so paths stay valid
    let listing = NodePath::enumerate(body);
    let mut victims: Vec<NodePath> = Vec::new();
    for (i, (path, stmt)) in listing.iter().enumerate() {
        // a statement inside a loop may feed a *later iteration*: only
        // top-of-function straight-line statements are candidates
        if path.depth() != 1 {
            continue;
        }
        let dead = match stmt {
            Stmt::Decl { name, init, .. } => {
                let pure = init.as_ref().is_none_or(|e| !has_call(e));
                pure && !reads_after(&listing, i + 1).contains(name)
            }
            Stmt::Assign {
                target: LValue::Var(name),
                value,
            } => !has_call(value) && !reads_after(&listing, i + 1).contains(name),
            _ => false,
        };
        if dead {
            victims.push(path.clone());
        }
    }
    let removed = victims.len();
    for path in victims.into_iter().rev() {
        if let Ok((block, index)) = path.resolve_block_mut(body) {
            if index < block.len() {
                block.remove(index);
            }
        }
    }
    removed
}

/// Runs `eliminate_dead_stores` to a fixed point (removing a store can
/// kill the stores feeding it). Returns total statements removed.
pub fn dce_fixpoint(body: &mut Block) -> usize {
    let mut total = 0;
    loop {
        let removed = eliminate_dead_stores(body);
        total += removed;
        if removed == 0 {
            return total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antarex_ir::interp::{ExecEnv, Interp};
    use antarex_ir::parse_program;
    use antarex_ir::value::Value;

    fn body_of(src: &str) -> Block {
        parse_program(src)
            .unwrap()
            .function("f")
            .unwrap()
            .body
            .clone()
    }

    #[test]
    fn dead_decl_and_assignment_removed() {
        let mut body = body_of(
            "int f(int x) {
                 int dead = x * 2;
                 int alive = x + 1;
                 dead = dead + 5;
                 return alive;
             }",
        );
        let removed = dce_fixpoint(&mut body);
        assert_eq!(removed, 2, "decl of `dead` and its reassignment");
        assert_eq!(body.len(), 2);
    }

    #[test]
    fn cascading_removal_reaches_fixpoint() {
        let mut body = body_of(
            "int f(int x) {
                 int a = x;
                 int b = a * 2;
                 int c = b * 2;
                 return x;
             }",
        );
        // one pass removes c; fixpoint removes the whole chain
        let removed = dce_fixpoint(&mut body);
        assert_eq!(removed, 3);
        assert_eq!(body.len(), 1);
    }

    #[test]
    fn side_effecting_initializers_survive() {
        let mut body = body_of("int f() { int unused = g(); return 1; }");
        assert_eq!(dce_fixpoint(&mut body), 0, "the call may have effects");
    }

    #[test]
    fn loop_carried_values_survive() {
        let src = "int f(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) { s = s + i; }
            return s;
        }";
        let mut body = body_of(src);
        assert_eq!(dce_fixpoint(&mut body), 0);
        // and semantics are intact after (no-op) DCE
        let program = parse_program(src).unwrap();
        let out = Interp::new(program)
            .call("f", &[Value::Int(5)], &mut ExecEnv::new())
            .unwrap();
        assert_eq!(out, Value::Int(10));
    }

    #[test]
    fn array_stores_survive() {
        let mut body = body_of(
            "double f(double out[]) {
                 double t = 2.0;
                 out[0] = t;
                 return 0.0;
             }",
        );
        assert_eq!(dce_fixpoint(&mut body), 0, "t feeds a visible store");
    }

    #[test]
    fn dce_after_specialization_shrinks_code() {
        use crate::transform::fold::fold_block;
        use crate::transform::subst::substitute_block;
        let program = parse_program(
            "double f(double a[], int size) {
                 double scale = 1.0 / size;
                 double bias = size * 0.5;
                 double s = 0.0;
                 for (int i = 0; i < 4; i++) { s += a[i]; }
                 return s;
             }",
        )
        .unwrap();
        // specialize on size, fold: scale/bias become dead constants
        let f = program.function("f").unwrap();
        let mut body = fold_block(&substitute_block(
            &f.body,
            "size",
            &antarex_ir::Expr::Int(4),
        ));
        let removed = dce_fixpoint(&mut body);
        assert_eq!(removed, 2, "scale and bias eliminated");
    }

    #[test]
    fn semantics_preserved_on_mixed_bodies() {
        let src = "int f(int x, int y) {
            int junk = x * y;
            int keep = x - y;
            junk = junk * 2;
            int out = keep + 3;
            return out;
        }";
        let program = parse_program(src).unwrap();
        let mut cleaned = program.clone();
        cleaned
            .edit_function("f", |f| {
                dce_fixpoint(&mut f.body);
            })
            .unwrap();
        for (x, y) in [(1, 2), (-3, 7), (0, 0)] {
            let a = Interp::new(program.clone())
                .call("f", &[Value::Int(x), Value::Int(y)], &mut ExecEnv::new())
                .unwrap();
            let b = Interp::new(cleaned.clone())
                .call("f", &[Value::Int(x), Value::Int(y)], &mut ExecEnv::new())
                .unwrap();
            assert_eq!(a, b);
        }
    }
}
