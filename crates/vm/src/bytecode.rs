//! The two forms of a lowered mini-C function.
//!
//! Lowering walks the AST into the compact stack bytecode [`Instr`],
//! then converts that stream once into register form
//! ([`crate::reg`]). The stack stream lives only inside lowering; the
//! [`Chunk`] it produces holds the register code the VM runs, and that
//! chunk is what the code cache shares.
//!
//! Design notes:
//!
//! * **Metering is woven in at lowering time.** Statically-known costs —
//!   scalar reads/writes (`reg_op`), array traffic (`mem_op`), the
//!   short-circuit operators' `int_op`, loop overheads — are fused into
//!   explicit [`Instr::Meter`] instructions with basic-block granularity,
//!   so a straight-line run of nodes charges one add instead of one per
//!   node. Dynamically-typed costs (binary arithmetic, negation — int
//!   vs. float is only known at run time) are charged inside the shared
//!   `antarex_ir::ops` routines, exactly as the interpreter charges them.
//! * **Flush discipline.** A pending (unemitted) meter never survives
//!   across a jump, jump target, call, budget [`Instr::Check`] or
//!   statement boundary, so the cumulative cost at every observable
//!   point (budget checks, host calls, statement starts) is identical to
//!   the tree-walking interpreter's, instruction-order notwithstanding.
//! * **Slots, not names.** Every variable of a function gets a dense slot
//!   (parameters first, in order); names survive only in
//!   [`Chunk::slot_names`] for error messages, which must match the
//!   interpreter's byte-for-byte.

use crate::reg::RInstr;
use crate::trace::Trace;
use antarex_ir::ast::{BinOp, Param, UnOp};
use antarex_ir::types::Type;
use antarex_ir::value::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One stack-bytecode instruction. Jump targets are absolute indices
/// into the lowerer's instruction stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Instr {
    /// Push `consts[idx]`.
    Const(u32),
    /// Push the value of a slot; error if the variable is unbound.
    LoadVar(u16),
    /// Pop an index, push that element of the array in the slot.
    LoadIndex(u16),
    /// Declaration with initializer: bind the slot's declared type, pop
    /// the value, coerce it to the type and store (with quantization).
    StoreDecl {
        /// Destination slot.
        slot: u16,
        /// Declared type.
        ty: Type,
    },
    /// Declaration without initializer: bind the type, store its zero.
    DeclDefault {
        /// Destination slot.
        slot: u16,
        /// Declared type.
        ty: Type,
    },
    /// Array declaration: bind the element type, allocate `size` zeros.
    NewArray {
        /// Destination slot.
        slot: u16,
        /// Element type.
        ty: Type,
        /// Element count.
        size: u32,
    },
    /// Assignment to an existing variable: pop, coerce per the slot's
    /// dynamic type binding (pass-through when unbound), store.
    StoreVar(u16),
    /// Array element assignment: pop index then value, bounds-check,
    /// quantize per the slot's dynamic type, store.
    StoreIndex(u16),
    /// `for` init: bind the induction slot to `int`, pop + coerce + store.
    StoreForInit(u16),
    /// `for` step: pop + coerce to `int` + store, *without* re-binding
    /// the type (the body may have re-declared the variable).
    StoreForStep(u16),
    /// Unary operator (dynamic cost via `antarex_ir::ops::apply_unary`).
    Unary(UnOp),
    /// Non-short-circuit binary operator (dynamic cost via
    /// `antarex_ir::ops::apply_binary`).
    Binary(BinOp),
    /// Pop a value, push its truthiness as `Int(0|1)` (cost-free, the
    /// short-circuit operators' single `int_op` is metered separately).
    CastBool,
    /// Unconditional jump.
    Jump(u32),
    /// Pop; jump when falsy.
    JumpIfFalsy(u32),
    /// `&&` left-operand probe: pop; when falsy push `Int(0)` and jump
    /// past the right operand.
    AndProbe(u32),
    /// `||` left-operand probe: pop; when truthy push `Int(1)` and jump.
    OrProbe(u32),
    /// Call `callees[callee]` with the top `argc` stack values (pushed
    /// left-to-right); `copyout` indexes [`Chunk::copyouts`] for the
    /// array copy-out map of this call site.
    Call {
        /// Index into [`Chunk::callees`].
        callee: u16,
        /// Argument count.
        argc: u16,
        /// Index into [`Chunk::copyouts`].
        copyout: u16,
    },
    /// Return the popped value.
    Ret,
    /// Return `Unit`.
    RetUnit,
    /// Discard the top of stack (expression statements).
    Pop,
    /// Fused static meter: charge `cost` units and count `mem_ops`
    /// array operations for the preceding straight-line segment.
    Meter {
        /// Cost units to charge (overflow-checked).
        cost: u64,
        /// Array loads/stores performed by the segment.
        mem_ops: u32,
    },
    /// Count one loop iteration (loop back-edge).
    TickLoop,
    /// Budget check (statement start, loop back-edge; call entries check
    /// inside the call sequence).
    Check,
    /// Save the precision context; narrow it to `Some(bits)` (statically
    /// known declaration type) for the following store expression.
    PushPrec(Option<u8>),
    /// Save the precision context; narrow it per the slot's *dynamic*
    /// type binding (assignments — the destination type is runtime
    /// state).
    PushPrecOf(u16),
    /// Restore the precision context saved by the matching push.
    PopPrec,
}

/// A lowered function, ready to run: the register code the VM
/// dispatches, its frame size and native loop traces, plus the
/// constant/name tables the executor reads.
#[derive(Debug, Clone)]
pub struct Chunk {
    /// Function name (for dispatch and error messages).
    pub(crate) name: String,
    /// The register-form instruction stream.
    pub(crate) code: Vec<RInstr>,
    /// Frame size: named slots plus the maximum temporary depth.
    pub(crate) frame_size: usize,
    /// Native loop traces, indexed by [`RInstr::TraceHead`].
    pub(crate) traces: Vec<Trace>,
    /// Constant pool.
    pub(crate) consts: Vec<Value>,
    /// Callee names referenced by [`RInstr::Call`].
    pub(crate) callees: Vec<String>,
    /// Per-call-site copy-out maps: `(argument index, caller slot)` for
    /// every argument that is a plain variable reference. Applied to
    /// whatever array parameters the *resolved* callee reports at run
    /// time (the dispatcher may redirect calls).
    pub(crate) copyouts: Vec<Vec<(u16, u16)>>,
    /// Slot names, for error messages (`slot_names[i]` names slot `i`).
    pub(crate) slot_names: Vec<String>,
    /// Parameters (parameter `i` binds slot `i`).
    pub(crate) params: Vec<Param>,
    /// Declared return type (`None` = void), for return quantization.
    pub(crate) ret: Option<Type>,
}

impl Chunk {
    /// Number of local slots (parameters included).
    pub(crate) fn num_slots(&self) -> usize {
        self.slot_names.len()
    }

    /// Number of register instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Returns `true` for an empty instruction stream (never produced by
    /// the lowerer, which always emits at least a return).
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Number of loops the register code runs as native traces
    /// ([`crate::trace`]).
    pub fn trace_count(&self) -> usize {
        self.traces.len()
    }

    /// Number of instructions that charge a fused static meter — the
    /// weave-time metering density the v1 experiment reports. Each
    /// block-granular [`Instr::Meter`] of the stack form fuses into
    /// exactly one of them.
    pub fn meter_count(&self) -> usize {
        self.code
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    RInstr::Meter { .. }
                        | RInstr::MeterCheck { .. }
                        | RInstr::MeterJumpIfFalsy { .. }
                        | RInstr::MeterBinStoreForStepJump { .. }
                        | RInstr::LoopTick { .. }
                        | RInstr::LoopTickPushPrec { .. }
                        | RInstr::LoopTickPushPrecOf { .. }
                )
            })
            .count()
    }
}

/// A whole lowered program: one [`Chunk`] per function, shareable across
/// threads (`Arc`-wrapped chunks, no `Rc` anywhere).
#[derive(Debug, Clone, Default)]
pub struct CompiledProgram {
    chunks: BTreeMap<String, Arc<Chunk>>,
}

impl CompiledProgram {
    /// Creates an empty compiled program.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) a chunk under its function name.
    pub(crate) fn insert(&mut self, chunk: Chunk) {
        self.chunks.insert(chunk.name.clone(), Arc::new(chunk));
    }

    /// Looks up a chunk by function name.
    pub(crate) fn get(&self, name: &str) -> Option<&Arc<Chunk>> {
        self.chunks.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiled_program_is_send_sync() {
        fn assert_traits<T: Send + Sync>() {}
        assert_traits::<CompiledProgram>();
        assert_traits::<Chunk>();
    }

    #[test]
    fn instr_is_small() {
        // the dispatch loop copies instructions; keep them register-sized
        assert!(std::mem::size_of::<Instr>() <= 16);
    }
}
