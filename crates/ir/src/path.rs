//! Structural addressing of statements inside a function body.
//!
//! A [`NodePath`] identifies a statement by the route taken from the function
//! body to reach it: alternating *statement index* and *block index* steps.
//! The weaver uses paths to insert instrumentation before a call or replace a
//! loop with its unrolled form, without needing global node identifiers.

use crate::ast::{Block, Stmt};
use crate::error::IrError;
use std::fmt;

/// One step of a [`NodePath`]: which statement in the current block, and —
/// when descending further — which child block of that statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct PathStep {
    /// Index of the statement within the current block.
    pub stmt: usize,
    /// Index of the child block to descend into (0 = then/body, 1 = else).
    /// Only meaningful for non-final steps.
    pub block: usize,
}

/// A structural path from a function body to one of its statements.
///
/// The final step's `block` field is ignored; by convention it is 0.
///
/// # Examples
///
/// ```
/// use antarex_ir::{parse_program, NodePath};
///
/// # fn main() -> Result<(), antarex_ir::IrError> {
/// let program = parse_program(
///     "void f() { int x = 0; for (int i = 0; i < 4; i = i + 1) { x = x + i; } }",
/// )?;
/// let f = program.function("f").unwrap();
/// // The assignment inside the loop: statement 1 (the for), block 0, statement 0.
/// let path = NodePath::root(1).child(0, 0);
/// let stmt = path.resolve(&f.body)?;
/// assert!(matches!(stmt, antarex_ir::Stmt::Assign { .. }));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodePath {
    steps: Vec<PathStep>,
}

impl NodePath {
    /// Path to a top-level statement of the body.
    pub fn root(stmt: usize) -> Self {
        NodePath {
            steps: vec![PathStep { stmt, block: 0 }],
        }
    }

    /// Extends the path: descend into child block `block` of the current
    /// statement, then select statement `stmt` there.
    pub fn child(mut self, block: usize, stmt: usize) -> Self {
        if let Some(last) = self.steps.last_mut() {
            last.block = block;
        }
        self.steps.push(PathStep { stmt, block: 0 });
        self
    }

    /// Number of steps (nesting depth + 1). A path is never empty except for
    /// the default value, which addresses nothing.
    pub fn depth(&self) -> usize {
        self.steps.len()
    }

    /// Returns `true` if `self` addresses a statement inside the statement
    /// addressed by `other` (strictly deeper).
    pub fn is_inside(&self, other: &NodePath) -> bool {
        if self.steps.len() <= other.steps.len() {
            return false;
        }
        other.steps.iter().enumerate().all(|(i, step)| {
            self.steps[i].stmt == step.stmt
                && (i + 1 == other.steps.len() || self.steps[i].block == step.block)
        })
    }

    /// Resolves the path to a statement reference within `body`.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::BadPath`] if any step is out of bounds.
    pub fn resolve<'a>(&self, body: &'a Block) -> Result<&'a Stmt, IrError> {
        let mut block = body;
        for (i, step) in self.steps.iter().enumerate() {
            let stmt = block.get(step.stmt).ok_or_else(|| {
                IrError::BadPath(format!("statement index {} out of bounds", step.stmt))
            })?;
            if i + 1 == self.steps.len() {
                return Ok(stmt);
            }
            let blocks = stmt.child_blocks();
            block = blocks.get(step.block).copied().ok_or_else(|| {
                IrError::BadPath(format!("block index {} out of bounds", step.block))
            })?;
        }
        Err(IrError::BadPath("empty path".into()))
    }

    /// Resolves the path to the *block* containing the addressed statement,
    /// plus the statement's index in it. This is what insertion needs.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::BadPath`] if any step is out of bounds. The leaf
    /// index may equal the block length (one-past-the-end), which is valid
    /// for appending.
    pub fn resolve_block_mut<'a>(
        &self,
        body: &'a mut Block,
    ) -> Result<(&'a mut Block, usize), IrError> {
        let mut block = body;
        let last = self
            .steps
            .len()
            .checked_sub(1)
            .ok_or_else(|| IrError::BadPath("empty path".into()))?;
        for (i, step) in self.steps.iter().enumerate() {
            if i == last {
                if step.stmt > block.len() {
                    return Err(IrError::BadPath(format!(
                        "statement index {} out of bounds (len {})",
                        step.stmt,
                        block.len()
                    )));
                }
                return Ok((block, step.stmt));
            }
            let len = block.len();
            let stmt = block.get_mut(step.stmt).ok_or_else(|| {
                IrError::BadPath(format!(
                    "statement index {} out of bounds (len {len})",
                    step.stmt
                ))
            })?;
            let mut blocks = stmt.child_blocks_mut();
            let nblocks = blocks.len();
            block = blocks.drain(..).nth(step.block).ok_or_else(|| {
                IrError::BadPath(format!(
                    "block index {} out of bounds ({nblocks} blocks)",
                    step.block
                ))
            })?;
        }
        unreachable!("loop returns at last step")
    }

    /// Enumerates paths to every statement in `body`, pre-order.
    pub fn enumerate(body: &Block) -> Vec<(NodePath, &Stmt)> {
        let mut out = Vec::new();
        fn rec<'a>(block: &'a Block, prefix: &NodePath, out: &mut Vec<(NodePath, &'a Stmt)>) {
            for (i, stmt) in block.iter().enumerate() {
                let path = if prefix.steps.is_empty() {
                    NodePath::root(i)
                } else {
                    let mut p = prefix.clone();
                    p.steps.push(PathStep { stmt: i, block: 0 });
                    p
                };
                out.push((path.clone(), stmt));
                for (bi, child) in stmt.child_blocks().into_iter().enumerate() {
                    let mut down = path.clone();
                    down.steps.last_mut().expect("non-empty").block = bi;
                    rec(child, &down, out);
                }
            }
        }
        rec(body, &NodePath::default(), &mut out);
        out
    }
}

impl fmt::Display for NodePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, step) in self.steps.iter().enumerate() {
            if i > 0 {
                write!(f, ".{}", step.stmt)?;
            } else {
                write!(f, "{}", step.stmt)?;
            }
            if i + 1 < self.steps.len() {
                write!(f, "/{}", step.block)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Expr, Stmt};

    fn nested_body() -> Block {
        vec![
            Stmt::Return(None),
            Stmt::If {
                cond: Expr::Int(1),
                then_branch: vec![Stmt::ExprStmt(Expr::Int(10))],
                else_branch: Some(vec![Stmt::ExprStmt(Expr::Int(20)), Stmt::Return(None)]),
            },
        ]
    }

    #[test]
    fn resolve_top_level() {
        let body = nested_body();
        assert!(matches!(
            NodePath::root(0).resolve(&body),
            Ok(Stmt::Return(None))
        ));
        assert!(matches!(
            NodePath::root(1).resolve(&body),
            Ok(Stmt::If { .. })
        ));
        assert!(NodePath::root(2).resolve(&body).is_err());
    }

    #[test]
    fn resolve_nested_else_branch() {
        let body = nested_body();
        let stmt = NodePath::root(1).child(1, 0).resolve(&body).unwrap();
        assert_eq!(stmt, &Stmt::ExprStmt(Expr::Int(20)));
    }

    #[test]
    fn resolve_block_mut_allows_append_position() {
        let mut body = nested_body();
        let (block, idx) = NodePath::root(1)
            .child(0, 1) // one past the end of the then-branch
            .resolve_block_mut(&mut body)
            .unwrap();
        assert_eq!(idx, 1);
        assert_eq!(block.len(), 1);
        block.insert(idx, Stmt::Return(None));
        let then_len = match &body[1] {
            Stmt::If { then_branch, .. } => then_branch.len(),
            _ => unreachable!(),
        };
        assert_eq!(then_len, 2);
    }

    #[test]
    fn enumerate_is_preorder_and_complete() {
        let body = nested_body();
        let all = NodePath::enumerate(&body);
        // return, if, then-expr, else-expr, else-return
        assert_eq!(all.len(), 5);
        assert!(matches!(all[0].1, Stmt::Return(None)));
        assert!(matches!(all[1].1, Stmt::If { .. }));
        // every enumerated path resolves to the same statement
        for (path, stmt) in &all {
            assert_eq!(path.resolve(&body).unwrap(), *stmt);
        }
    }

    #[test]
    fn is_inside_relation() {
        let outer = NodePath::root(1);
        let inner = NodePath::root(1).child(1, 0);
        assert!(inner.is_inside(&outer));
        assert!(!outer.is_inside(&inner));
        assert!(!outer.is_inside(&outer));
        let sibling = NodePath::root(0);
        assert!(!inner.is_inside(&sibling));
    }

    #[test]
    fn display_round_trip_shape() {
        let path = NodePath::root(2).child(1, 3);
        assert_eq!(path.to_string(), "2/1.3");
    }
}
