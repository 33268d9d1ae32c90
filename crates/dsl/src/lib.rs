//! # antarex-dsl — the ANTAREX aspect DSL (LARA dialect)
//!
//! The ANTAREX project (Silvano et al., DATE 2016) expresses extra-functional
//! concerns — instrumentation, adaptivity, autotuning strategies — in a DSL
//! inspired by aspect-oriented programming and built on LARA. This crate
//! implements that DSL for the mini-C substrate of [`antarex_ir`]:
//!
//! * `lexer` / `parser` / `ast` — the aspect language
//!   (`aspectdef` / `input` / `select` / `apply` / `condition`, code
//!   templates `%{ ... }%` with `[[expr]]` splices, weaver actions `do`,
//!   aspect composition `call`, and `apply dynamic` for runtime weaving);
//! * [`interp`] — the static weaver: runs aspects against a program,
//!   selecting join points and firing actions;
//! * `dynamic` — the runtime half: `apply dynamic` bodies become a
//!   `DynamicWeaver` that plugs into the mini-C
//!   interpreter as a call dispatcher and weaves specialized versions while
//!   the application runs (split compilation).
//!
//! All three aspect listings from the paper (Figs. 2–4) parse and execute
//! verbatim; see this crate's tests and the workspace-level integration
//! tests.
//!
//! # Examples
//!
//! ```
//! use antarex_dsl::{parse_aspects, interp::Weaver, value::DslValue};
//! use antarex_ir::parse_program;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let aspects = parse_aspects(
//!     "aspectdef AddProbe
//!        select fCall end
//!        apply
//!          insert before %{probe();}%;
//!        end
//!        condition $fCall.name == 'kernel' end
//!      end",
//! )?;
//! let mut program = parse_program("void run() { kernel(); other(); }")?;
//! let mut weaver = Weaver::new(aspects);
//! weaver.weave(&mut program, "AddProbe", &[])?;
//! let text = antarex_ir::printer::print_program(&program);
//! assert_eq!(text.matches("probe();").count(), 1);
//! # Ok(())
//! # }
//! ```

pub(crate) mod ast;
pub(crate) mod dynamic;
pub(crate) mod error;
pub(crate) mod expr;
pub mod figures;
pub mod interp;
pub(crate) mod lexer;
pub(crate) mod parser;
pub(crate) mod template;
pub mod value;

pub use error::DslError;
pub use parser::parse_aspects;
pub use value::DslValue;
