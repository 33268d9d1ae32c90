//! Static analyses over the AST backing weaver conditions.
//!
//! The paper's `UnrollInnermostLoops` aspect (Fig. 3) guards its action with
//! `$loop.isInnermost && $loop.numIter <= threshold`; this module provides
//! exactly those attributes: [`trip_count`], `is_innermost`, plus the call
//! and loop inventories used by `select` statements.

use crate::ast::{BinOp, Block, Expr, Stmt};
use crate::path::NodePath;

/// Statically-known trip count of a counted `for` loop.
///
/// Recognizes the canonical shape the mini-C parser produces:
/// `for (i = <const>; i <op> <const>; i = i +/- <const>)` where `<op>` is one
/// of `<`, `<=`, `>`, `>=`, `!=`. Returns `None` for loops whose bounds or
/// stride are not compile-time constants (e.g. `i < n`), which is what makes
/// runtime specialization (paper Fig. 4) valuable: substituting a constant
/// for `n` turns `None` into `Some(...)` and unlocks full unrolling.
///
/// # Examples
///
/// ```
/// use antarex_ir::{parse_program, analysis::trip_count};
///
/// # fn main() -> Result<(), antarex_ir::IrError> {
/// let program = parse_program(
///     "void f(int n) {
///          for (int i = 0; i < 8; i++) { }
///          for (int j = 0; j < n; j++) { }
///      }",
/// )?;
/// let body = &program.function("f").unwrap().body;
/// assert_eq!(trip_count(&body[0]), Some(8));
/// assert_eq!(trip_count(&body[1]), None);
/// # Ok(())
/// # }
/// ```
pub fn trip_count(stmt: &Stmt) -> Option<u64> {
    let Stmt::For {
        var,
        init,
        cond,
        step,
        ..
    } = stmt
    else {
        return None;
    };
    let start = init.as_const_int()?;
    let (op, bound) = match cond {
        Expr::Binary(op, lhs, rhs) => match (&**lhs, &**rhs) {
            (Expr::Var(v), _) if v == var => (*op, rhs.as_const_int()?),
            (_, Expr::Var(v)) if v == var => (flip(*op)?, lhs.as_const_int()?),
            _ => return None,
        },
        _ => return None,
    };
    let stride = match step {
        Expr::Binary(BinOp::Add, lhs, rhs) => match (&**lhs, &**rhs) {
            (Expr::Var(v), _) if v == var => rhs.as_const_int()?,
            (_, Expr::Var(v)) if v == var => lhs.as_const_int()?,
            _ => return None,
        },
        Expr::Binary(BinOp::Sub, lhs, rhs) => match (&**lhs, &**rhs) {
            (Expr::Var(v), _) if v == var => -(rhs.as_const_int()?),
            _ => return None,
        },
        _ => return None,
    };
    if stride == 0 {
        return None;
    }
    let count = match op {
        BinOp::Lt if stride > 0 => ceil_div(bound - start, stride),
        BinOp::Le if stride > 0 => ceil_div(bound - start + 1, stride),
        BinOp::Gt if stride < 0 => ceil_div(start - bound, -stride),
        BinOp::Ge if stride < 0 => ceil_div(start - bound + 1, -stride),
        BinOp::Ne => {
            let span = bound - start;
            if span % stride != 0 || span / stride < 0 {
                return None; // never terminates exactly
            }
            span / stride
        }
        _ => return None, // direction disagrees with stride: 0 or infinite
    };
    u64::try_from(count.max(0)).ok()
}

fn ceil_div(num: i64, den: i64) -> i64 {
    debug_assert!(den > 0);
    if num <= 0 {
        0
    } else {
        (num + den - 1) / den
    }
}

fn flip(op: BinOp) -> Option<BinOp> {
    Some(match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        BinOp::Eq => BinOp::Eq,
        BinOp::Ne => BinOp::Ne,
        _ => return None,
    })
}

/// Returns `true` if the loop statement contains no nested loops.
///
/// Non-loop statements are vacuously *not* innermost loops (returns `false`).
pub(crate) fn is_innermost(stmt: &Stmt) -> bool {
    if !stmt.is_loop() {
        return false;
    }
    !contains_loop_in_children(stmt)
}

fn contains_loop_in_children(stmt: &Stmt) -> bool {
    stmt.child_blocks().into_iter().any(|block| {
        block
            .iter()
            .any(|s| s.is_loop() || contains_loop_in_children(s))
    })
}

/// A function call site discovered inside a statement.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CallSite {
    /// Path to the statement containing the call.
    pub path: NodePath,
    /// Callee name.
    pub callee: String,
    /// Argument expressions at the call.
    pub args: Vec<Expr>,
}

/// Lists every call site in a body, pre-order by statement.
///
/// A statement containing several calls yields several entries (same path).
pub(crate) fn call_sites(body: &Block) -> Vec<CallSite> {
    let mut sites = Vec::new();
    for (path, stmt) in NodePath::enumerate(body) {
        stmt.own_exprs(&mut |expr| {
            expr.walk(&mut |e| {
                if let Expr::Call(name, args) = e {
                    sites.push(CallSite {
                        path: path.clone(),
                        callee: name.clone(),
                        args: args.clone(),
                    });
                }
            });
        });
    }
    sites
}

/// Lists paths to every loop statement in a body, pre-order.
pub fn loops(body: &Block) -> Vec<(NodePath, &Stmt)> {
    NodePath::enumerate(body)
        .into_iter()
        .filter(|(_, stmt)| stmt.is_loop())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn loop_of(src: &str) -> Stmt {
        let program = parse_program(&format!("void f(int n) {{ {src} }}")).unwrap();
        program.function("f").unwrap().body[0].clone()
    }

    #[test]
    fn trip_count_canonical_shapes() {
        assert_eq!(
            trip_count(&loop_of("for (int i = 0; i < 8; i++) {}")),
            Some(8)
        );
        assert_eq!(
            trip_count(&loop_of("for (int i = 0; i <= 8; i++) {}")),
            Some(9)
        );
        assert_eq!(
            trip_count(&loop_of("for (int i = 8; i > 0; i--) {}")),
            Some(8)
        );
        assert_eq!(
            trip_count(&loop_of("for (int i = 8; i >= 0; i--) {}")),
            Some(9)
        );
        assert_eq!(
            trip_count(&loop_of("for (int i = 0; i < 7; i += 2) {}")),
            Some(4)
        );
        assert_eq!(
            trip_count(&loop_of("for (int i = 0; i != 6; i += 3) {}")),
            Some(2)
        );
        assert_eq!(
            trip_count(&loop_of("for (int i = 0; 8 > i; i++) {}")),
            Some(8)
        );
    }

    #[test]
    fn trip_count_zero_and_degenerate() {
        assert_eq!(
            trip_count(&loop_of("for (int i = 5; i < 5; i++) {}")),
            Some(0)
        );
        assert_eq!(
            trip_count(&loop_of("for (int i = 9; i < 5; i++) {}")),
            Some(0)
        );
        // non-exact != never terminates
        assert_eq!(
            trip_count(&loop_of("for (int i = 0; i != 5; i += 2) {}")),
            None
        );
        // direction mismatch
        assert_eq!(trip_count(&loop_of("for (int i = 0; i > 5; i++) {}")), None);
    }

    #[test]
    fn trip_count_dynamic_bound_is_unknown() {
        assert_eq!(trip_count(&loop_of("for (int i = 0; i < n; i++) {}")), None);
        assert_eq!(trip_count(&loop_of("for (int i = n; i < 8; i++) {}")), None);
    }

    #[test]
    fn trip_count_ignores_non_loops() {
        assert_eq!(trip_count(&Stmt::Return(None)), None);
        assert_eq!(trip_count(&loop_of("while (n > 0) { n--; }")), None);
    }

    #[test]
    fn innermost_detection() {
        let nested =
            loop_of("for (int i = 0; i < 4; i++) { for (int j = 0; j < 4; j++) { n = n + 1; } }");
        assert!(!is_innermost(&nested));
        match &nested {
            Stmt::For { body, .. } => assert!(is_innermost(&body[0])),
            _ => unreachable!(),
        }
        // while counts as a loop for nesting
        let with_while = loop_of("for (int i = 0; i < 4; i++) { while (n > 0) { n--; } }");
        assert!(!is_innermost(&with_while));
        assert!(!is_innermost(&Stmt::Return(None)));
    }

    #[test]
    fn innermost_sees_through_ifs() {
        let hidden = loop_of(
            "for (int i = 0; i < 4; i++) { if (n > 0) { for (int j = 0; j < 2; j++) {} } }",
        );
        assert!(!is_innermost(&hidden));
    }

    #[test]
    fn call_sites_found_everywhere() {
        let program = parse_program(
            "void f(int n) {
                 g(n);
                 if (h(n) > 0) { g(n + 1); }
                 for (int i = 0; i < n; i++) { g(i); }
                 int x = g(2) + g(3);
             }",
        )
        .unwrap();
        let sites = call_sites(&program.function("f").unwrap().body);
        let callees: Vec<&str> = sites.iter().map(|s| s.callee.as_str()).collect();
        assert_eq!(callees, vec!["g", "h", "g", "g", "g", "g"]);
    }

    #[test]
    fn loops_inventory() {
        let program = parse_program(
            "void f(int n) { for (int i = 0; i < 2; i++) { while (n > 0) { n--; } } }",
        )
        .unwrap();
        let found = loops(&program.function("f").unwrap().body);
        assert_eq!(found.len(), 2);
    }
}
