//! Abstract syntax tree of the mini-C language.
//!
//! The tree is deliberately simple — expressions, statements, functions — but
//! rich enough to express the kernels the ANTAREX paper weaves over: counted
//! `for` loops, function calls, array accesses, scalar arithmetic. Statements
//! are addressed structurally by [`NodePath`](crate::path::NodePath) so the
//! weaver can insert or replace nodes without global identifiers.

use crate::types::Type;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Binary operators, in C semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%` (integers only)
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (short-circuit)
    And,
    /// `||` (short-circuit)
    Or,
}

impl BinOp {
    /// C source spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-x`.
    Neg,
    /// Logical not `!x`.
    Not,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UnOp::Neg => "-",
            UnOp::Not => "!",
        })
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// String literal (instrumentation only).
    Str(String),
    /// Variable reference.
    Var(String),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Function call `name(args...)`.
    Call(String, Vec<Expr>),
    /// Array element read `name[index]`.
    Index(String, Box<Expr>),
}

impl Expr {
    /// Builds a binary expression, boxing the operands.
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(lhs), Box::new(rhs))
    }

    /// Builds a variable reference.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// Returns the constant integer value of the expression, if it is a
    /// literal (possibly negated).
    pub fn as_const_int(&self) -> Option<i64> {
        match self {
            Expr::Int(v) => Some(*v),
            Expr::Unary(UnOp::Neg, inner) => inner.as_const_int().map(|v| -v),
            _ => None,
        }
    }

    /// Visits every sub-expression (including `self`), pre-order.
    pub fn walk(&self, visit: &mut dyn FnMut(&Expr)) {
        visit(self);
        match self {
            Expr::Unary(_, inner) => inner.walk(visit),
            Expr::Binary(_, lhs, rhs) => {
                lhs.walk(visit);
                rhs.walk(visit);
            }
            Expr::Call(_, args) => {
                for arg in args {
                    arg.walk(visit);
                }
            }
            Expr::Index(_, idx) => idx.walk(visit),
            Expr::Int(_) | Expr::Float(_) | Expr::Str(_) | Expr::Var(_) => {}
        }
    }

    /// Replaces every read of variable `name` with `value`, returning the
    /// rewritten expression. Used by specialization (constant propagation).
    pub fn substitute(&self, name: &str, value: &Expr) -> Expr {
        match self {
            Expr::Var(v) if v == name => value.clone(),
            Expr::Unary(op, inner) => Expr::Unary(*op, Box::new(inner.substitute(name, value))),
            Expr::Binary(op, lhs, rhs) => Expr::binary(
                *op,
                lhs.substitute(name, value),
                rhs.substitute(name, value),
            ),
            Expr::Call(f, args) => Expr::Call(
                f.clone(),
                args.iter().map(|a| a.substitute(name, value)).collect(),
            ),
            Expr::Index(arr, idx) => {
                Expr::Index(arr.clone(), Box::new(idx.substitute(name, value)))
            }
            other => other.clone(),
        }
    }
}

/// Assignment target: a scalar variable or an array element.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// Scalar variable.
    Var(String),
    /// Array element `name[index]`.
    Index(String, Box<Expr>),
}

impl LValue {
    /// Name of the underlying variable or array.
    pub(crate) fn name(&self) -> &str {
        match self {
            LValue::Var(name) | LValue::Index(name, _) => name,
        }
    }
}

/// A sequence of statements (function body, loop body, branch arm).
pub type Block = Vec<Stmt>;

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Scalar declaration `ty name = init;`.
    Decl {
        /// Variable name.
        name: String,
        /// Declared type (drives precision quantization on every store).
        ty: Type,
        /// Optional initializer; zero of the type if absent.
        init: Option<Expr>,
    },
    /// Array declaration `ty name[size];` (size must be a constant).
    ArrayDecl {
        /// Array name.
        name: String,
        /// Element type.
        ty: Type,
        /// Number of elements.
        size: usize,
    },
    /// Assignment `target = value;`.
    Assign {
        /// Destination.
        target: LValue,
        /// Right-hand side.
        value: Expr,
    },
    /// Conditional.
    If {
        /// Condition (non-zero is true).
        cond: Expr,
        /// Then-branch.
        then_branch: Block,
        /// Optional else-branch.
        else_branch: Option<Block>,
    },
    /// Counted loop `for (init; cond; step) body`.
    For {
        /// Loop variable name (declared by the loop, integer-typed).
        var: String,
        /// Initial value expression.
        init: Expr,
        /// Continuation condition.
        cond: Expr,
        /// Step statement's right-hand side: new value of `var` each
        /// iteration (e.g. `i + 1`).
        step: Expr,
        /// Loop body.
        body: Block,
    },
    /// Pre-test loop `while (cond) body`.
    While {
        /// Continuation condition.
        cond: Expr,
        /// Loop body.
        body: Block,
    },
    /// Return from the current function.
    Return(Option<Expr>),
    /// Expression evaluated for effect (typically a call).
    ExprStmt(Expr),
}

impl Stmt {
    /// Child blocks of this statement, in path order (see
    /// [`NodePath`](crate::path::NodePath)): `If` exposes then (0) and else
    /// (1); loops expose their body (0); other statements have none.
    pub fn child_blocks(&self) -> Vec<&Block> {
        match self {
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                let mut blocks = vec![then_branch];
                if let Some(else_branch) = else_branch {
                    blocks.push(else_branch);
                }
                blocks
            }
            Stmt::For { body, .. } | Stmt::While { body, .. } => vec![body],
            _ => vec![],
        }
    }

    /// Mutable variant of [`Stmt::child_blocks`].
    pub(crate) fn child_blocks_mut(&mut self) -> Vec<&mut Block> {
        match self {
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                let mut blocks = vec![then_branch];
                if let Some(else_branch) = else_branch {
                    blocks.push(else_branch);
                }
                blocks
            }
            Stmt::For { body, .. } | Stmt::While { body, .. } => vec![body],
            _ => vec![],
        }
    }

    /// Returns `true` if this statement is a loop (`for` or `while`).
    pub(crate) fn is_loop(&self) -> bool {
        matches!(self, Stmt::For { .. } | Stmt::While { .. })
    }

    /// Visits every expression contained directly in this statement (not
    /// descending into child blocks).
    pub fn own_exprs(&self, visit: &mut dyn FnMut(&Expr)) {
        match self {
            Stmt::Decl { init: Some(e), .. } => visit(e),
            Stmt::Decl { init: None, .. } | Stmt::ArrayDecl { .. } => {}
            Stmt::Assign { target, value } => {
                if let LValue::Index(_, idx) = target {
                    visit(idx);
                }
                visit(value);
            }
            Stmt::If { cond, .. } => visit(cond),
            Stmt::For {
                init, cond, step, ..
            } => {
                visit(init);
                visit(cond);
                visit(step);
            }
            Stmt::While { cond, .. } => visit(cond),
            Stmt::Return(Some(e)) => visit(e),
            Stmt::Return(None) => {}
            Stmt::ExprStmt(e) => visit(e),
        }
    }
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Parameter type (element type for arrays).
    pub ty: Type,
    /// `true` if the parameter is an array (`double a[]`).
    pub is_array: bool,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name (unique within a [`Program`]).
    pub name: String,
    /// Return type; `None` means `void`.
    pub ret: Option<Type>,
    /// Parameters in declaration order.
    pub params: Vec<Param>,
    /// Function body.
    pub body: Block,
}

impl Function {
    /// Creates a function.
    pub fn new(
        name: impl Into<String>,
        ret: Option<Type>,
        params: Vec<Param>,
        body: Block,
    ) -> Self {
        Function {
            name: name.into(),
            ret,
            params,
            body,
        }
    }

    /// Index of the parameter with the given name.
    pub fn param_index(&self, name: &str) -> Option<usize> {
        self.params.iter().position(|p| p.name == name)
    }
}

/// A whole program: an ordered map from name to function.
///
/// Functions are stored behind [`Arc`] so the interpreter can hold the body of
/// the currently-executing function while a dynamic-weaving hook adds new
/// (specialized) functions to the program, and so a program is `Send +
/// Sync`: evaluator threads share prebuilt programs. The function table
/// and its order sit behind one more [`Arc`], so a clone is a single
/// reference-count bump; [`Program::insert`] and
/// [`Program::edit_function`] copy the table on write when it is shared.
///
/// # Examples
///
/// ```
/// use antarex_ir::parse_program;
///
/// # fn main() -> Result<(), antarex_ir::IrError> {
/// let program = parse_program("int one() { return 1; } int two() { return 2; }")?;
/// assert_eq!(program.function_names(), vec!["one", "two"]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Default, PartialEq)]
pub struct Program {
    table: Arc<FunctionTable>,
}

/// What a [`Program`] shares between its clones.
#[derive(Clone, Default, PartialEq)]
struct FunctionTable {
    functions: BTreeMap<String, Arc<Function>>,
    /// Insertion order, for stable printing.
    order: Vec<String>,
}

/// Renders as the two fields it had before the table was shared, so
/// reports and state dumps that print a program read the same.
impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program")
            .field("functions", &self.table.functions)
            .field("order", &self.table.order)
            .finish()
    }
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) a function; returns the previous definition if the
    /// name was already bound.
    pub fn insert(&mut self, function: Function) -> Option<Arc<Function>> {
        let table = Arc::make_mut(&mut self.table);
        let name = function.name.clone();
        let prev = table.functions.insert(name.clone(), Arc::new(function));
        if prev.is_none() {
            table.order.push(name);
        }
        prev
    }

    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&Arc<Function>> {
        self.table.functions.get(name)
    }

    /// Returns `true` if a function with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.table.functions.contains_key(name)
    }

    /// Function names in insertion order.
    pub fn function_names(&self) -> Vec<&str> {
        self.table.order.iter().map(String::as_str).collect()
    }

    /// Iterates over functions in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<Function>> {
        let table = &*self.table;
        table.order.iter().filter_map(|n| table.functions.get(n))
    }

    /// Number of functions.
    pub fn len(&self) -> usize {
        self.table.functions.len()
    }

    /// Returns `true` if the program has no functions.
    pub fn is_empty(&self) -> bool {
        self.table.functions.is_empty()
    }

    /// Applies an in-place edit to the named function.
    ///
    /// The function is cloned out of its `Arc` (copy-on-write), mutated, and
    /// reinserted, so outstanding `Arc` handles (e.g. a frame currently being
    /// interpreted) keep seeing the old body — exactly the semantics of
    /// runtime code patching with in-flight activations.
    ///
    /// # Errors
    ///
    /// Returns [`crate::IrError::Unresolved`] if no such function exists.
    pub fn edit_function(
        &mut self,
        name: &str,
        edit: impl FnOnce(&mut Function),
    ) -> Result<(), crate::IrError> {
        let rc = self
            .function(name)
            .ok_or_else(|| crate::IrError::Unresolved(name.to_string()))?;
        let mut function = (**rc).clone();
        edit(&mut function);
        Arc::make_mut(&mut self.table)
            .functions
            .insert(name.to_string(), Arc::new(function));
        Ok(())
    }
}

impl FromIterator<Function> for Program {
    fn from_iter<I: IntoIterator<Item = Function>>(iter: I) -> Self {
        let mut program = Program::new();
        for function in iter {
            program.insert(function);
        }
        program
    }
}

impl Extend<Function> for Program {
    fn extend<I: IntoIterator<Item = Function>>(&mut self, iter: I) {
        for function in iter {
            self.insert(function);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_expr() -> Expr {
        // (x + 2) * f(x, a[x])
        Expr::binary(
            BinOp::Mul,
            Expr::binary(BinOp::Add, Expr::var("x"), Expr::Int(2)),
            Expr::Call(
                "f".into(),
                vec![
                    Expr::var("x"),
                    Expr::Index("a".into(), Box::new(Expr::var("x"))),
                ],
            ),
        )
    }

    #[test]
    fn walk_visits_all_nodes() {
        let mut count = 0;
        sample_expr().walk(&mut |_| count += 1);
        // mul, add, x, 2, call, x, index, x
        assert_eq!(count, 8);
    }

    #[test]
    fn substitute_replaces_every_read() {
        let substituted = sample_expr().substitute("x", &Expr::Int(7));
        let mut vars = 0;
        substituted.walk(&mut |e| {
            if matches!(e, Expr::Var(_)) {
                vars += 1;
            }
        });
        assert_eq!(vars, 0, "all x reads replaced");
    }

    #[test]
    fn substitute_does_not_touch_array_names() {
        let substituted = sample_expr().substitute("a", &Expr::Int(0));
        let mut has_index = false;
        substituted.walk(&mut |e| has_index |= matches!(e, Expr::Index(name, _) if name == "a"));
        assert!(has_index, "array base names are not variable reads");
    }

    #[test]
    fn as_const_int_handles_negation() {
        assert_eq!(Expr::Int(5).as_const_int(), Some(5));
        let neg = Expr::Unary(UnOp::Neg, Box::new(Expr::Int(5)));
        assert_eq!(neg.as_const_int(), Some(-5));
        assert_eq!(Expr::var("x").as_const_int(), None);
    }

    #[test]
    fn program_preserves_insertion_order() {
        let mut program = Program::new();
        for name in ["zeta", "alpha", "mid"] {
            program.insert(Function::new(name, None, vec![], vec![]));
        }
        assert_eq!(program.function_names(), vec!["zeta", "alpha", "mid"]);
    }

    #[test]
    fn program_replace_keeps_single_order_entry() {
        let mut program = Program::new();
        program.insert(Function::new("f", None, vec![], vec![]));
        let prev = program.insert(Function::new("f", Some(Type::Int), vec![], vec![]));
        assert!(prev.is_some());
        assert_eq!(program.len(), 1);
        assert_eq!(program.function_names(), vec!["f"]);
    }

    #[test]
    fn a_program_clone_shares_its_table_until_a_write() {
        let mut program = Program::new();
        program.insert(Function::new("f", None, vec![], vec![]));
        let snapshot = program.clone();
        assert!(Arc::ptr_eq(&program.table, &snapshot.table));
        program.insert(Function::new("g", None, vec![], vec![]));
        program
            .edit_function("f", |f| f.body.push(Stmt::Return(None)))
            .unwrap();
        assert_eq!(snapshot.function_names(), vec!["f"]);
        assert!(snapshot.function("f").unwrap().body.is_empty());
        assert_eq!(program.function_names(), vec!["f", "g"]);
    }

    #[test]
    fn a_program_renders_its_functions_and_order() {
        let mut program = Program::new();
        program.insert(Function::new("f", None, vec![], vec![]));
        let function = program.function("f").unwrap();
        assert_eq!(
            format!("{program:?}"),
            format!("Program {{ functions: {{\"f\": {function:?}}}, order: [\"f\"] }}")
        );
    }

    #[test]
    fn edit_function_is_copy_on_write() {
        let mut program = Program::new();
        program.insert(Function::new("f", None, vec![], vec![]));
        let old_handle = Arc::clone(program.function("f").unwrap());
        program
            .edit_function("f", |f| f.body.push(Stmt::Return(None)))
            .unwrap();
        assert!(old_handle.body.is_empty(), "old handle unchanged");
        assert_eq!(program.function("f").unwrap().body.len(), 1);
    }

    #[test]
    fn edit_unknown_function_errors() {
        let mut program = Program::new();
        let err = program.edit_function("nope", |_| {}).unwrap_err();
        assert!(matches!(err, crate::IrError::Unresolved(_)));
    }

    #[test]
    fn stmt_child_blocks_cover_if_and_loops() {
        let stmt = Stmt::If {
            cond: Expr::Int(1),
            then_branch: vec![Stmt::Return(None)],
            else_branch: Some(vec![]),
        };
        assert_eq!(stmt.child_blocks().len(), 2);
        let stmt = Stmt::While {
            cond: Expr::Int(1),
            body: vec![],
        };
        assert_eq!(stmt.child_blocks().len(), 1);
        assert!(stmt.is_loop());
        assert!(!Stmt::Return(None).is_loop());
    }
}
