//! # antarex-vm — metered bytecode VM for the mini-C substrate
//!
//! The tree-walking interpreter in `antarex-ir` is the *executable
//! reference*: it defines what a woven program computes and what it
//! costs. This crate is the fast path: it lowers the same AST to a
//! compact stack bytecode with the cost metering *woven in
//! at lowering time* (fused per-basic-block `Instr::Meter`
//! instructions instead of per-node charges), converts that stream
//! once into a register form (fused superinstructions, direct
//! frame-index operands), executes it on a [`Vm`], and memoizes the
//! ready-to-run code in a hash-keyed [`InstrumentedCodeCache`] so a
//! `(program digest, metering params)` pair lowers once and is shared
//! across tenants, DSE rounds and precision sweeps.
//!
//! The stack stream exists only inside lowering; the cached chunk holds
//! the register code the dispatch loop runs. Recognized metered loop
//! idioms — reduce and three-tap stencil — execute as native traces
//! with the exact charge schedule, falling back to generic dispatch
//! whenever entry validation cannot prove equivalence.
//!
//! The contract — enforced by the differential suite in `tests/`, which
//! calls the interpreter and the VM by name — is **bit-identity** with
//! the interpreter on everything observable: return values, every
//! [`ExecStats`](antarex_ir::cost::ExecStats) counter including
//! `flop_energy` to the last bit, reduced-precision quantization,
//! host-call traces (the join-point observability channel) and errors.
//! The one exception is a function too large for the register encoding:
//! the interpreter runs it, the VM returns an error when it reaches it.
//!
//! # Examples
//!
//! ```
//! use antarex_ir::{cost::CostModel, interp::ExecEnv, parse_program, value::Value};
//! use antarex_vm::{InstrumentedCodeCache, Vm};
//!
//! # fn main() -> Result<(), antarex_ir::IrError> {
//! let cache = InstrumentedCodeCache::new();
//! let program = parse_program(
//!     "double sumsq(double a[], int n) {
//!          double s = 0.0;
//!          for (int i = 0; i < n; i++) { s += a[i] * a[i]; }
//!          return s;
//!      }",
//! )?;
//! // first tenant lowers; every later tenant with the same program and
//! // cost model reuses the instrumented register code
//! let mut vm = Vm::with_cache(program, CostModel::new(), &cache);
//! let mut env = ExecEnv::new();
//! let out = vm.call(
//!     "sumsq",
//!     &[Value::from(vec![1.0, 2.0, 3.0]), Value::Int(3)],
//!     &mut env,
//! )?;
//! assert_eq!(out, Value::Float(14.0));
//! assert!(env.stats.flops >= 6);
//! # Ok(())
//! # }
//! ```

pub(crate) mod bytecode;
pub(crate) mod cache;
pub(crate) mod digest;
pub(crate) mod lower;
pub(crate) mod reg;
pub(crate) mod trace;
pub(crate) mod vm;

pub use cache::InstrumentedCodeCache;
pub use digest::CodeKey;
pub use lower::{lower_function, lower_program};
pub use vm::{Vm, VmScratch};
