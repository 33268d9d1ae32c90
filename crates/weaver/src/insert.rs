//! Code-injection actions (`insert before` / `insert after`).
//!
//! These implement the instrumentation half of the paper's Fig. 2 aspect:
//! statements produced by a DSL template are spliced into a function body
//! relative to a join point addressed by [`NodePath`].

use antarex_ir::{Block, IrError, NodePath, Stmt};

/// Where to splice relative to the addressed statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum InsertPos {
    /// Immediately before the statement.
    Before,
    /// Immediately after the statement.
    After,
}

/// Inserts `stmts` immediately before the statement addressed by `path`.
///
/// # Errors
///
/// Returns [`IrError::BadPath`] if the path does not address a statement of
/// `body`.
pub fn insert_before(body: &mut Block, path: &NodePath, stmts: Vec<Stmt>) -> Result<(), IrError> {
    insert_at(body, path, stmts, InsertPos::Before)
}

/// Inserts `stmts` immediately after the statement addressed by `path`.
///
/// # Errors
///
/// Returns [`IrError::BadPath`] if the path does not address a statement of
/// `body`.
pub fn insert_after(body: &mut Block, path: &NodePath, stmts: Vec<Stmt>) -> Result<(), IrError> {
    insert_at(body, path, stmts, InsertPos::After)
}

/// Inserts `stmts` relative to the statement addressed by `path`.
///
/// # Errors
///
/// Returns [`IrError::BadPath`] if the path does not address a statement of
/// `body`.
pub(crate) fn insert_at(
    body: &mut Block,
    path: &NodePath,
    stmts: Vec<Stmt>,
    pos: InsertPos,
) -> Result<(), IrError> {
    let (block, index) = path.resolve_block_mut(body)?;
    if index >= block.len() {
        return Err(IrError::BadPath(format!(
            "statement index {index} out of bounds (len {})",
            block.len()
        )));
    }
    let at = match pos {
        InsertPos::Before => index,
        InsertPos::After => index + 1,
    };
    for (offset, stmt) in stmts.into_iter().enumerate() {
        block.insert(at + offset, stmt);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use antarex_ir::{parse_program, parse_stmt, printer::print_function};

    fn body_of(src: &str) -> Block {
        parse_program(src)
            .unwrap()
            .function("f")
            .unwrap()
            .body
            .clone()
    }

    #[test]
    fn insert_before_top_level_call() {
        let mut body = body_of("void f() { kernel(1); }");
        insert_before(
            &mut body,
            &NodePath::root(0),
            vec![parse_stmt("probe();").unwrap()],
        )
        .unwrap();
        assert_eq!(body.len(), 2);
        assert!(matches!(&body[0], Stmt::ExprStmt(antarex_ir::Expr::Call(n, _)) if n == "probe"));
    }

    #[test]
    fn insert_after_nested_statement() {
        let mut body = body_of("void f(int n) { for (int i = 0; i < n; i++) { kernel(i); } }");
        let path = NodePath::root(0).child(0, 0);
        insert_after(&mut body, &path, vec![parse_stmt("probe();").unwrap()]).unwrap();
        match &body[0] {
            Stmt::For {
                body: loop_body, ..
            } => {
                assert_eq!(loop_body.len(), 2);
                assert!(matches!(
                    &loop_body[1],
                    Stmt::ExprStmt(antarex_ir::Expr::Call(n, _)) if n == "probe"
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn insert_multiple_preserves_order() {
        let mut body = body_of("void f() { kernel(1); }");
        let stmts = vec![parse_stmt("a();").unwrap(), parse_stmt("b();").unwrap()];
        insert_before(&mut body, &NodePath::root(0), stmts).unwrap();
        let names: Vec<String> = body
            .iter()
            .filter_map(|s| match s {
                Stmt::ExprStmt(antarex_ir::Expr::Call(n, _)) => Some(n.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(names, vec!["a", "b", "kernel"]);
    }

    #[test]
    fn insert_out_of_bounds_errors() {
        let mut body = body_of("void f() { kernel(1); }");
        let err = insert_before(&mut body, &NodePath::root(5), vec![]).unwrap_err();
        assert!(matches!(err, IrError::BadPath(_)));
    }

    #[test]
    fn woven_function_still_prints() {
        let mut program = parse_program("void f() { kernel(1); }").unwrap();
        program
            .edit_function("f", |f| {
                insert_before(
                    &mut f.body,
                    &NodePath::root(0),
                    vec![parse_stmt("profile_args(\"f\", 1);").unwrap()],
                )
                .unwrap();
            })
            .unwrap();
        let text = print_function(program.function("f").unwrap());
        assert!(text.contains("profile_args(\"f\", 1);"));
    }
}
