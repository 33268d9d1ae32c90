//! # antarex-weaver — source-to-source transformation engine
//!
//! Implements the weaving *actions* of the ANTAREX tool flow (Silvano et
//! al., DATE 2016): the operations a LARA-style aspect triggers on the
//! program under weaving.
//!
//! * `insert` — inject instrumentation statements before/after a join
//!   point (paper Fig. 2, `insert before %{profile_args(...)}%`),
//! * [`transform::unroll`] — full and partial loop unrolling (paper Fig. 3,
//!   `do LoopUnroll('full')`),
//! * [`transform::specialize`] — function specialization by constant
//!   propagation and folding (paper Fig. 4, `Specialize($fCall, ...)`),
//! * [`transform::fold`] — constant folding / branch pruning that makes
//!   specialization pay off,
//! * `versioning` — the multi-version dispatch tables behind
//!   `PrepareSpecialize` / `AddVersion`, consulted at runtime by the
//!   dynamic weaver (split compilation: offline preparation, online
//!   binding).
//!
//! # Examples
//!
//! ```
//! use antarex_ir::{parse_program, NodePath};
//! use antarex_weaver::transform::unroll::unroll_full;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut program = parse_program(
//!     "int f() { int s = 0; for (int i = 0; i < 4; i++) { s += i; } return s; }",
//! )?;
//! program.edit_function("f", |f| {
//!     unroll_full(&mut f.body, &NodePath::root(1)).expect("constant trip count");
//! })?;
//! // The loop is gone; 4 copies of the body remain.
//! assert_eq!(program.function("f").unwrap().body.len(), 6);
//! # Ok(())
//! # }
//! ```

pub(crate) mod insert;
pub mod transform;
pub(crate) mod versioning;

pub use insert::{insert_after, insert_before};
pub use versioning::VersionStore;
