//! # antarex-ir — mini-C intermediate representation
//!
//! The ANTAREX tool flow (Silvano et al., DATE 2016) weaves aspect-oriented
//! strategies into C/C++ applications. This crate provides the substrate the
//! rest of the workspace weaves into: a small C-like language with
//!
//! * an [`ast`] (AST) for expressions, statements, functions and programs,
//! * a `parser` for a C subset so applications can be written as text,
//! * a [pretty-printer](printer) producing C-like source back,
//! * a [join-point model](joinpoint) (functions, loops, calls, arguments)
//!   matching what the LARA-style DSL selects over,
//! * [static analyses](analysis) (trip counts, innermost-loop detection,
//!   constant expressions) backing weaver conditions such as
//!   `$loop.isInnermost && $loop.numIter <= threshold`, and
//! * a cost-accounting [interpreter](interp) so woven programs actually run
//!   and the effect of every transformation (instrumentation, unrolling,
//!   specialization, reduced precision) is observable as work, FLOPs and
//!   simulated energy,
//! * the shared [operational core](ops) (arithmetic, builtins, coercions
//!   with overflow-checked cost accounting), which lets the bytecode VM
//!   in `antarex-vm` — the engine production code runs — execute the
//!   same programs bit-identically to the interpreter, its test oracle.
//!
//! # Examples
//!
//! ```
//! use antarex_ir::{parse_program, interp::{ExecEnv, Interp}, value::Value};
//!
//! # fn main() -> Result<(), antarex_ir::IrError> {
//! let program = parse_program("int square(int x) { return x * x; }")?;
//! let mut interp = Interp::new(program);
//! let out = interp.call("square", &[Value::Int(7)], &mut ExecEnv::default())?;
//! assert_eq!(out, Value::Int(49));
//! # Ok(())
//! # }
//! ```

pub mod analysis;
pub mod ast;
pub mod cost;
pub mod error;
pub mod interp;
pub mod joinpoint;
pub mod ops;
pub(crate) mod parser;
pub(crate) mod path;
pub mod printer;
pub mod types;
pub mod value;

pub use ast::{BinOp, Block, Expr, Function, LValue, Program, Stmt, UnOp};
pub use error::IrError;
pub use parser::{parse_expr, parse_program, parse_stmt, parse_stmts};
pub use path::NodePath;
pub use types::Type;
