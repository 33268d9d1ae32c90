//! Stack bytecode → register form: the code the VM executes.
//!
//! Lowering emits the stack stream ([`Instr`]) because metering is
//! easiest to weave there. Executing it directly, however, would pay
//! for a push/pop of a 32-byte `Value` around every operand. Lowering
//! therefore ends by converting the stream, once, into an equivalent
//! **register form** where every operand is a direct frame index:
//! locals keep their slots, and each stack depth `d` becomes the fixed
//! temporary `num_slots + d` (stack depths are static in structured
//! code, so the conversion is a compile-time simulation). The register
//! code is what a [`Chunk`](crate::bytecode::Chunk) holds, what the
//! code cache shares and what the VM dispatches.
//!
//! Three rules keep the conversion bit-identical to stack execution —
//! the differential suite drives random programs through both the
//! interpreter and this tier:
//!
//! 1. **Adjacent loads become operands.** A `LoadVar`/`Const` whose
//!    value is consumed with no *observable* instruction in between
//!    (nothing that can error, charge, or call) is folded into the
//!    consumer as a tagged operand; its unresolved-variable check runs
//!    at resolution, in original left-to-right order.
//! 2. **Observable instructions materialize first.** Before anything
//!    that can error or touch the statistics, every pending variable
//!    alias deeper in the stack is read into its canonical temporary
//!    ([`RInstr::Read`]), preserving the original read-and-error order.
//! 3. **Jumps see canonical frames.** At every jump, and therefore at
//!    every jump target, live entries sit in their depth-indexed
//!    temporaries, so both edges of a merge agree on where values live.
//!
//! The conversion also fuses the dispatch-heavy sequences that dominate
//! loop execution (`Meter`+`Check`, `Meter`+`TickLoop`+`Check`,
//! `Meter`+`JumpIfFalsy`, `PopPrec`+store, step+back-edge) into single
//! instructions, guarded so a fused interior is never a jump target.
//! Fused execution preserves the exact charge/check order of the
//! unfused sequence.

use crate::bytecode::Instr;
use crate::trace::Trace;
use antarex_ir::ast::{BinOp, UnOp};
use antarex_ir::error::IrError;
use antarex_ir::types::Type;
use antarex_ir::value::Value;

/// Operand tag bits (high two bits of a `u16` operand).
pub(crate) const TAG_MASK: u16 = 0xC000;
/// Operand names a local slot: resolve with an unresolved-variable check.
pub(crate) const TAG_SLOT: u16 = 0x4000;
/// Operand indexes the constant pool.
pub(crate) const TAG_CONST: u16 = 0x8000;
/// Low bits: the frame/pool index an operand refers to.
pub(crate) const IDX_MASK: u16 = 0x3FFF;

/// One register-form instruction. Operand fields (`src`, `l`, `r`,
/// `cond`, `val`, `idx`) are tagged per [`TAG_MASK`]; destination and
/// slot fields are plain frame indices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum RInstr {
    /// `frame[dst] = consts[idx]`.
    Const { idx: u32, dst: u16 },
    /// `frame[dst] = frame[slot]` with the unresolved-variable check.
    Read { slot: u16, dst: u16 },
    /// `frame[dst] = frame[arr][idx]` (bounds-checked).
    LoadIndex { arr: u16, idx: u16, dst: u16 },
    /// Fused variable read + indexed load (the `acc … a[i]` prologue):
    /// `frame[pre_dst] = frame[pre]` (checked), then the indexed load.
    ReadLoadIndex {
        pre: u16,
        pre_dst: u16,
        arr: u16,
        idx: u16,
        dst: u16,
    },
    /// Fused binary whose right operand is an indexed load:
    /// `frame[dst] = op(l, frame[arr][idx])` — the load runs first,
    /// exactly as the unfused pair did.
    BinLoad {
        op: BinOp,
        l: u16,
        arr: u16,
        idx: u16,
        dst: u16,
    },
    /// Fused binary feeding an indexed load's index:
    /// `frame[dst] = frame[arr][op(l, r)]` — the binary (and its
    /// charges) runs first, exactly as the unfused pair did.
    BinLoadIndex {
        op: BinOp,
        l: u16,
        r: u16,
        arr: u16,
        dst: u16,
    },
    /// Declaration with initializer: coerce to `ty`, bind, store.
    StoreDecl { src: u16, slot: u16, ty: Type },
    /// Declaration without initializer: bind `ty`, store its zero.
    DeclDefault { slot: u16, ty: Type },
    /// Array declaration: bind `ty`, allocate `size` zeros.
    NewArray { slot: u16, ty: Type, size: u32 },
    /// Assignment to an existing variable.
    StoreVar { src: u16, slot: u16 },
    /// Array element assignment.
    StoreIndex { val: u16, idx: u16, slot: u16 },
    /// Fused binary + array element assignment of its result.
    BinStoreIndex {
        op: BinOp,
        l: u16,
        r: u16,
        idx: u16,
        slot: u16,
    },
    /// `for` init: bind `int`, coerce, store.
    StoreForInit { src: u16, slot: u16 },
    /// `for` step: coerce to `int`, store without re-binding.
    StoreForStep { src: u16, slot: u16 },
    /// Fused `for` step + back-edge jump.
    StoreForStepJump { src: u16, slot: u16, target: u32 },
    /// Unary operator via `ops::apply_unary_with`.
    Unary { op: UnOp, src: u16, dst: u16 },
    /// Binary operator via `ops::apply_binary_with`.
    Binary { op: BinOp, l: u16, r: u16, dst: u16 },
    /// Fused binary + conditional jump on its (consumed) result.
    BinJumpIfFalsy {
        op: BinOp,
        l: u16,
        r: u16,
        target: u32,
    },
    /// Fused binary + `for` step store + back-edge jump.
    BinStoreForStepJump {
        op: BinOp,
        l: u16,
        r: u16,
        slot: u16,
        target: u32,
    },
    /// Fused static meter + binary + `for` step store + back-edge jump
    /// (the full bottom-of-loop sequence).
    MeterBinStoreForStepJump {
        cost: u64,
        mem_ops: u32,
        op: BinOp,
        l: u16,
        r: u16,
        slot: u16,
        target: u32,
    },
    /// Fused binary + `PopPrec` + `StoreVar` (the `x = a ⊕ b` shape).
    BinPopPrecStoreVar {
        op: BinOp,
        l: u16,
        r: u16,
        slot: u16,
    },
    /// Fused binary + `PopPrec` + `StoreDecl` (the `T x = a ⊕ b` shape).
    BinPopPrecStoreDecl {
        op: BinOp,
        l: u16,
        r: u16,
        slot: u16,
        ty: Type,
    },
    /// Fused budget check + `PushPrec` (statement prologue of a store).
    CheckPushPrec(Option<u8>),
    /// Fused budget check + `PushPrecOf`.
    CheckPushPrecOf(u16),
    /// `frame[dst] = Int(truthy(src))`.
    CastBool { src: u16, dst: u16 },
    /// Unconditional jump.
    Jump(u32),
    /// Jump when `cond` is falsy.
    JumpIfFalsy { cond: u16, target: u32 },
    /// Fused static meter + conditional jump (charge, then test).
    MeterJumpIfFalsy {
        cost: u64,
        mem_ops: u32,
        cond: u16,
        target: u32,
    },
    /// `&&` probe: when `cond` is falsy, `frame[dst] = Int(0)` and jump.
    AndProbe { cond: u16, dst: u16, target: u32 },
    /// `||` probe: when `cond` is truthy, `frame[dst] = Int(1)` and jump.
    OrProbe { cond: u16, dst: u16, target: u32 },
    /// Call with `argc` arguments in `frame[base..base + argc]`; the
    /// result lands in `frame[base]`.
    Call {
        callee: u16,
        argc: u16,
        copyout: u16,
        base: u16,
    },
    /// Return `src`.
    Ret { src: u16 },
    /// Return `Unit`.
    RetUnit,
    /// Fused static meter.
    Meter { cost: u64, mem_ops: u32 },
    /// Fused static meter + budget check.
    MeterCheck { cost: u64, mem_ops: u32 },
    /// Fused static meter + loop-iteration tick + budget check.
    LoopTick { cost: u64, mem_ops: u32 },
    /// Fused [`RInstr::LoopTick`] + `PushPrec` (loop head whose body
    /// starts with a precision-scoped store).
    LoopTickPushPrec {
        cost: u64,
        mem_ops: u32,
        bits: Option<u8>,
    },
    /// Fused [`RInstr::LoopTick`] + `PushPrecOf`.
    LoopTickPushPrecOf { cost: u64, mem_ops: u32, slot: u16 },
    /// Count one loop iteration.
    TickLoop,
    /// Budget check.
    Check,
    /// Save the precision context, optionally narrowing it.
    PushPrec(Option<u8>),
    /// Save the precision context, narrowing per the slot's type binding.
    PushPrecOf(u16),
    /// Restore the saved precision context.
    PopPrec,
    /// Fused `PopPrec` + `StoreVar`.
    PopPrecStoreVar { src: u16, slot: u16 },
    /// Fused `PopPrec` + `StoreDecl`.
    PopPrecStoreDecl { src: u16, slot: u16, ty: Type },
    /// Entry point of a native loop trace (see [`crate::trace`]): the VM
    /// validates the chunk's `traces[trace]` and either runs the whole
    /// loop natively or falls back to the generic body that follows.
    TraceHead { trace: u16 },
}

/// Compile-time symbolic stack entry.
#[derive(Clone, Copy, PartialEq)]
enum Sym {
    /// A value already materialized in its canonical depth temporary.
    Temp,
    /// An unread variable alias (deferred `LoadVar`).
    Slot(u16),
    /// An unread constant alias (deferred `Const`).
    Const(u32),
}

struct Conv {
    num_slots: usize,
    out: Vec<RInstr>,
    stack: Vec<Sym>,
    max_depth: usize,
}

impl Conv {
    /// The canonical temporary holding stack depth `d`, if an operand
    /// can name it.
    fn temp(&self, depth: usize) -> Result<u16, IrError> {
        let t = self.num_slots + depth;
        if t > IDX_MASK as usize {
            return Err(IrError::Eval(
                "function too large for register encoding".into(),
            ));
        }
        Ok(t as u16)
    }

    fn push(&mut self, entry: Sym) {
        self.stack.push(entry);
        self.max_depth = self.max_depth.max(self.stack.len());
    }

    /// Encodes the entry at `depth` as a tagged operand. A `Temp` entry
    /// was materialized through [`Conv::temp`], so its index fits.
    fn opnd(&self, depth: usize) -> u16 {
        match self.stack[depth] {
            Sym::Temp => (self.num_slots + depth) as u16,
            Sym::Slot(slot) => TAG_SLOT | slot,
            Sym::Const(idx) => TAG_CONST | (idx as u16),
        }
    }

    /// Materializes aliases below the top `keep_top` entries into their
    /// canonical temporaries (variable reads always; constants only when
    /// `consts_too`, i.e. before jumps, where merge states must agree).
    /// Emission is bottom-up — original push order — so deferred
    /// unresolved-variable errors fire in the original order.
    fn force(&mut self, keep_top: usize, consts_too: bool) -> Result<(), IrError> {
        let n = self
            .stack
            .len()
            .checked_sub(keep_top)
            .expect("stack underflow in conversion");
        for d in 0..n {
            match self.stack[d] {
                Sym::Temp => {}
                Sym::Slot(slot) => {
                    let dst = self.temp(d)?;
                    self.out.push(RInstr::Read { slot, dst });
                    self.stack[d] = Sym::Temp;
                }
                Sym::Const(idx) => {
                    if consts_too {
                        let dst = self.temp(d)?;
                        self.out.push(RInstr::Const { idx, dst });
                        self.stack[d] = Sym::Temp;
                    }
                }
            }
        }
        Ok(())
    }

    /// Materializes the top `count` entries (call arguments) into their
    /// canonical — and therefore contiguous — temporaries.
    fn force_top(&mut self, count: usize) -> Result<(), IrError> {
        let len = self.stack.len();
        for d in len - count..len {
            match self.stack[d] {
                Sym::Temp => {}
                Sym::Slot(slot) => {
                    let dst = self.temp(d)?;
                    self.out.push(RInstr::Read { slot, dst });
                    self.stack[d] = Sym::Temp;
                }
                Sym::Const(idx) => {
                    let dst = self.temp(d)?;
                    self.out.push(RInstr::Const { idx, dst });
                    self.stack[d] = Sym::Temp;
                }
            }
        }
        Ok(())
    }

    /// Consumes the top entry as an operand.
    fn consume(&mut self) -> u16 {
        let o = self.opnd(self.stack.len() - 1);
        self.stack.pop();
        o
    }
}

/// Converts a function's stack stream into register form, returning the
/// register code, its frame size and its native loop traces. `num_slots`
/// counts the function's named locals; `consts` is its constant pool.
///
/// # Errors
///
/// [`IrError::Eval`] when locals plus expression temporaries exceed what
/// a register operand can name.
pub(crate) fn regify(
    code: &[Instr],
    num_slots: usize,
    consts: &[Value],
) -> Result<(Vec<RInstr>, usize, Vec<Trace>), IrError> {
    let mut is_target = vec![false; code.len() + 1];
    for instr in code {
        if let Instr::Jump(t) | Instr::JumpIfFalsy(t) | Instr::AndProbe(t) | Instr::OrProbe(t) =
            instr
        {
            is_target[*t as usize] = true;
        }
    }
    let fusable = |j: usize| j < code.len() && !is_target[j];

    let mut c = Conv {
        num_slots,
        out: Vec::with_capacity(code.len()),
        stack: Vec::new(),
        max_depth: 0,
    };
    let mut map = vec![0u32; code.len() + 1];
    // Output position of the most recent jump target. Peepholes that
    // rewrite `c.out.last_mut()` are legal only when no jump target maps
    // to the *next* output position (`last_target_out != c.out.len()`):
    // a target mapping to the rewritten instruction itself is fine — the
    // fused instruction performs the old one first — but a target
    // mapping past it must not have the appended behaviour pulled in
    // front of it.
    let mut last_target_out = usize::MAX;
    let mut i = 0usize;
    while i < code.len() {
        map[i] = c.out.len() as u32;
        if is_target[i] {
            last_target_out = c.out.len();
            debug_assert!(
                c.stack.iter().all(|e| matches!(e, Sym::Temp)),
                "non-canonical stack at jump target {i}"
            );
        }
        let mut consumed = 1usize;
        match code[i] {
            Instr::Const(idx) => {
                if idx <= u32::from(IDX_MASK) {
                    c.push(Sym::Const(idx));
                } else {
                    let dst = c.temp(c.stack.len())?;
                    c.out.push(RInstr::Const { idx, dst });
                    c.push(Sym::Temp);
                }
            }
            Instr::LoadVar(slot) => {
                if slot <= IDX_MASK {
                    c.push(Sym::Slot(slot));
                } else {
                    let dst = c.temp(c.stack.len())?;
                    c.out.push(RInstr::Read { slot, dst });
                    c.push(Sym::Temp);
                }
            }
            Instr::LoadIndex(slot) => {
                c.force(1, false)?;
                let idx = c.consume();
                let dst = c.temp(c.stack.len())?;
                // peephole: a just-materialized variable read (the
                // accumulator of an indexed loop) rides along with the
                // load — `ReadLoadIndex` performs read-then-load in the
                // original order
                if last_target_out != c.out.len() {
                    if let Some(RInstr::Read {
                        slot: pre,
                        dst: pre_dst,
                    }) = c.out.last().copied()
                    {
                        *c.out.last_mut().expect("just matched") = RInstr::ReadLoadIndex {
                            pre,
                            pre_dst,
                            arr: slot,
                            idx,
                            dst,
                        };
                        c.push(Sym::Temp);
                        i += 1;
                        continue;
                    }
                }
                c.out.push(RInstr::LoadIndex {
                    arr: slot,
                    idx,
                    dst,
                });
                c.push(Sym::Temp);
            }
            Instr::StoreDecl { slot, ty } => {
                c.force(1, false)?;
                let src = c.consume();
                c.out.push(RInstr::StoreDecl { src, slot, ty });
            }
            Instr::DeclDefault { slot, ty } => c.out.push(RInstr::DeclDefault { slot, ty }),
            Instr::NewArray { slot, ty, size } => {
                c.out.push(RInstr::NewArray { slot, ty, size });
            }
            Instr::StoreVar(slot) => {
                c.force(1, false)?;
                let src = c.consume();
                c.out.push(RInstr::StoreVar { src, slot });
            }
            Instr::StoreIndex(slot) => {
                c.force(2, false)?;
                let idx = c.consume();
                let val = c.consume();
                // peephole: the stored value comes straight out of a
                // binary — the binary (and its charges) still runs first
                if last_target_out != c.out.len() {
                    if let Some(RInstr::Binary {
                        op,
                        l,
                        r,
                        dst: bdst,
                    }) = c.out.last().copied()
                    {
                        if val == bdst {
                            *c.out.last_mut().expect("just matched") = RInstr::BinStoreIndex {
                                op,
                                l,
                                r,
                                idx,
                                slot,
                            };
                            i += 1;
                            continue;
                        }
                    }
                }
                c.out.push(RInstr::StoreIndex { val, idx, slot });
            }
            Instr::StoreForInit(slot) => {
                c.force(1, false)?;
                let src = c.consume();
                c.out.push(RInstr::StoreForInit { src, slot });
            }
            Instr::StoreForStep(slot) => {
                c.force(1, false)?;
                let src = c.consume();
                if fusable(i + 1) {
                    if let Instr::Jump(target) = code[i + 1] {
                        debug_assert!(c.stack.is_empty(), "step jump with a live stack");
                        c.out.push(RInstr::StoreForStepJump { src, slot, target });
                        map[i + 1] = c.out.len() as u32 - 1;
                        consumed = 2;
                        i += consumed;
                        continue;
                    }
                }
                c.out.push(RInstr::StoreForStep { src, slot });
            }
            Instr::Unary(op) => {
                c.force(1, false)?;
                let src = c.consume();
                let dst = c.temp(c.stack.len())?;
                c.out.push(RInstr::Unary { op, src, dst });
                c.push(Sym::Temp);
            }
            Instr::Binary(op) => {
                c.force(2, false)?;
                // fuse consumers that take the result straight off the
                // stack (each preserves the unfused charge/error order)
                if fusable(i + 1) {
                    match code[i + 1] {
                        Instr::JumpIfFalsy(target) => {
                            c.force(2, true)?;
                            let r = c.consume();
                            let l = c.consume();
                            c.out.push(RInstr::BinJumpIfFalsy { op, l, r, target });
                            map[i + 1] = c.out.len() as u32 - 1;
                            i += 2;
                            continue;
                        }
                        Instr::StoreForStep(slot) if fusable(i + 2) => {
                            if let Instr::Jump(target) = code[i + 2] {
                                c.force(2, true)?;
                                let r = c.consume();
                                let l = c.consume();
                                debug_assert!(c.stack.is_empty(), "step jump with a live stack");
                                // peephole: the body's trailing meter sits
                                // directly before the step — carry it
                                if last_target_out != c.out.len() {
                                    if let Some(RInstr::Meter { cost, mem_ops }) =
                                        c.out.last().copied()
                                    {
                                        *c.out.last_mut().expect("just matched") =
                                            RInstr::MeterBinStoreForStepJump {
                                                cost,
                                                mem_ops,
                                                op,
                                                l,
                                                r,
                                                slot,
                                                target,
                                            };
                                        map[i + 1] = c.out.len() as u32 - 1;
                                        map[i + 2] = c.out.len() as u32 - 1;
                                        i += 3;
                                        continue;
                                    }
                                }
                                c.out.push(RInstr::BinStoreForStepJump {
                                    op,
                                    l,
                                    r,
                                    slot,
                                    target,
                                });
                                map[i + 1] = c.out.len() as u32 - 1;
                                map[i + 2] = c.out.len() as u32 - 1;
                                i += 3;
                                continue;
                            }
                        }
                        Instr::PopPrec if fusable(i + 2) => match code[i + 2] {
                            Instr::StoreVar(slot) => {
                                let r = c.consume();
                                let l = c.consume();
                                c.out.push(RInstr::BinPopPrecStoreVar { op, l, r, slot });
                                map[i + 1] = c.out.len() as u32 - 1;
                                map[i + 2] = c.out.len() as u32 - 1;
                                i += 3;
                                continue;
                            }
                            Instr::StoreDecl { slot, ty } => {
                                let r = c.consume();
                                let l = c.consume();
                                c.out
                                    .push(RInstr::BinPopPrecStoreDecl { op, l, r, slot, ty });
                                map[i + 1] = c.out.len() as u32 - 1;
                                map[i + 2] = c.out.len() as u32 - 1;
                                i += 3;
                                continue;
                            }
                            _ => {}
                        },
                        Instr::LoadIndex(arr) => {
                            // the result is the load's index; the binary
                            // (and its charges) still runs first
                            let r = c.consume();
                            let l = c.consume();
                            let dst = c.temp(c.stack.len())?;
                            c.out.push(RInstr::BinLoadIndex { op, l, r, arr, dst });
                            map[i + 1] = c.out.len() as u32 - 1;
                            c.push(Sym::Temp);
                            i += 2;
                            continue;
                        }
                        _ => {}
                    }
                }
                let r = c.consume();
                let l = c.consume();
                let dst = c.temp(c.stack.len())?;
                // peephole: right operand straight out of an indexed load
                // — the load still runs (and errors) before the binary.
                // The left operand must not be a deferred variable alias:
                // its unresolved check precedes the load in the original.
                if last_target_out != c.out.len() && (l & TAG_MASK) != TAG_SLOT {
                    if let Some(RInstr::LoadIndex {
                        arr,
                        idx,
                        dst: ldst,
                    }) = c.out.last().copied()
                    {
                        if r == ldst {
                            *c.out.last_mut().expect("just matched") = RInstr::BinLoad {
                                op,
                                l,
                                arr,
                                idx,
                                dst,
                            };
                            c.push(Sym::Temp);
                            i += 1;
                            continue;
                        }
                    }
                }
                c.out.push(RInstr::Binary { op, l, r, dst });
                c.push(Sym::Temp);
            }
            Instr::CastBool => {
                // pure, but the result must land in the canonical
                // temporary: it flows into a short-circuit merge point
                let src = c.consume();
                let dst = c.temp(c.stack.len())?;
                c.out.push(RInstr::CastBool { src, dst });
                c.push(Sym::Temp);
            }
            Instr::Jump(target) => {
                c.force(0, true)?;
                c.out.push(RInstr::Jump(target));
            }
            Instr::JumpIfFalsy(target) => {
                c.force(1, true)?;
                let cond = c.consume();
                c.out.push(RInstr::JumpIfFalsy { cond, target });
            }
            Instr::AndProbe(target) => {
                c.force(1, true)?;
                let cond = c.consume();
                let dst = c.temp(c.stack.len())?;
                c.out.push(RInstr::AndProbe { cond, dst, target });
            }
            Instr::OrProbe(target) => {
                c.force(1, true)?;
                let cond = c.consume();
                let dst = c.temp(c.stack.len())?;
                c.out.push(RInstr::OrProbe { cond, dst, target });
            }
            Instr::Call {
                callee,
                argc,
                copyout,
            } => {
                let n = argc as usize;
                c.force(n, false)?;
                c.force_top(n)?;
                for _ in 0..n {
                    c.stack.pop();
                }
                let base = c.temp(c.stack.len())?;
                c.out.push(RInstr::Call {
                    callee,
                    argc,
                    copyout,
                    base,
                });
                c.push(Sym::Temp);
            }
            Instr::Ret => {
                c.force(1, false)?;
                let src = c.consume();
                c.out.push(RInstr::Ret { src });
            }
            Instr::RetUnit => c.out.push(RInstr::RetUnit),
            Instr::Pop => {
                match c.stack.pop().expect("stack underflow in conversion") {
                    Sym::Slot(slot) => {
                        // the engines check the variable exists even when
                        // the value is discarded
                        let dst = c.temp(c.stack.len())?;
                        c.out.push(RInstr::Read { slot, dst });
                    }
                    Sym::Temp | Sym::Const(_) => {}
                }
            }
            Instr::Meter { cost, mem_ops } => {
                c.force(0, false)?;
                if fusable(i + 1) {
                    match code[i + 1] {
                        Instr::TickLoop if fusable(i + 2) && code[i + 2] == Instr::Check => {
                            c.out.push(RInstr::LoopTick { cost, mem_ops });
                            map[i + 1] = c.out.len() as u32 - 1;
                            map[i + 2] = c.out.len() as u32 - 1;
                            i += 3;
                            continue;
                        }
                        Instr::Check => {
                            c.out.push(RInstr::MeterCheck { cost, mem_ops });
                            map[i + 1] = c.out.len() as u32 - 1;
                            i += 2;
                            continue;
                        }
                        Instr::JumpIfFalsy(target) => {
                            c.force(1, true)?;
                            let cond = c.consume();
                            c.out.push(RInstr::MeterJumpIfFalsy {
                                cost,
                                mem_ops,
                                cond,
                                target,
                            });
                            map[i + 1] = c.out.len() as u32 - 1;
                            i += 2;
                            continue;
                        }
                        _ => {}
                    }
                }
                c.out.push(RInstr::Meter { cost, mem_ops });
            }
            Instr::TickLoop => {
                c.force(0, false)?;
                c.out.push(RInstr::TickLoop);
            }
            Instr::Check => {
                c.force(0, false)?;
                // a check immediately after another check (back-edge
                // check followed by a statement-prologue check, nothing
                // observable between) has the same outcome — drop it
                if !is_target[i]
                    && last_target_out != c.out.len()
                    && matches!(
                        c.out.last(),
                        Some(
                            RInstr::Check
                                | RInstr::MeterCheck { .. }
                                | RInstr::LoopTick { .. }
                                | RInstr::LoopTickPushPrec { .. }
                                | RInstr::LoopTickPushPrecOf { .. }
                                | RInstr::CheckPushPrec(_)
                                | RInstr::CheckPushPrecOf(_)
                        )
                    )
                {
                    i += 1;
                    continue;
                }
                if fusable(i + 1) {
                    match code[i + 1] {
                        Instr::PushPrec(bits) => {
                            c.out.push(RInstr::CheckPushPrec(bits));
                            map[i + 1] = c.out.len() as u32 - 1;
                            i += 2;
                            continue;
                        }
                        Instr::PushPrecOf(slot) => {
                            c.out.push(RInstr::CheckPushPrecOf(slot));
                            map[i + 1] = c.out.len() as u32 - 1;
                            i += 2;
                            continue;
                        }
                        _ => {}
                    }
                }
                c.out.push(RInstr::Check);
            }
            Instr::PushPrec(bits) => {
                // peephole: loop head directly followed by the body's
                // precision prologue (the budget check between them
                // deduplicated against the tick's own check)
                if last_target_out != c.out.len() {
                    if let Some(RInstr::LoopTick { cost, mem_ops }) = c.out.last().copied() {
                        *c.out.last_mut().expect("just matched") = RInstr::LoopTickPushPrec {
                            cost,
                            mem_ops,
                            bits,
                        };
                        i += 1;
                        continue;
                    }
                }
                c.out.push(RInstr::PushPrec(bits));
            }
            Instr::PushPrecOf(slot) => {
                if last_target_out != c.out.len() {
                    if let Some(RInstr::LoopTick { cost, mem_ops }) = c.out.last().copied() {
                        *c.out.last_mut().expect("just matched") = RInstr::LoopTickPushPrecOf {
                            cost,
                            mem_ops,
                            slot,
                        };
                        i += 1;
                        continue;
                    }
                }
                c.out.push(RInstr::PushPrecOf(slot));
            }
            Instr::PopPrec => {
                if fusable(i + 1) {
                    match code[i + 1] {
                        Instr::StoreVar(slot) => {
                            c.force(1, false)?;
                            let src = c.consume();
                            c.out.push(RInstr::PopPrecStoreVar { src, slot });
                            map[i + 1] = c.out.len() as u32 - 1;
                            i += 2;
                            continue;
                        }
                        Instr::StoreDecl { slot, ty } => {
                            c.force(1, false)?;
                            let src = c.consume();
                            c.out.push(RInstr::PopPrecStoreDecl { src, slot, ty });
                            map[i + 1] = c.out.len() as u32 - 1;
                            i += 2;
                            continue;
                        }
                        _ => {}
                    }
                }
                c.out.push(RInstr::PopPrec);
            }
        }
        i += consumed;
    }
    map[code.len()] = c.out.len() as u32;

    for instr in &mut c.out {
        match instr {
            RInstr::Jump(t)
            | RInstr::JumpIfFalsy { target: t, .. }
            | RInstr::MeterJumpIfFalsy { target: t, .. }
            | RInstr::BinJumpIfFalsy { target: t, .. }
            | RInstr::AndProbe { target: t, .. }
            | RInstr::OrProbe { target: t, .. }
            | RInstr::StoreForStepJump { target: t, .. }
            | RInstr::BinStoreForStepJump { target: t, .. }
            | RInstr::MeterBinStoreForStepJump { target: t, .. } => *t = map[*t as usize],
            _ => {}
        }
    }

    let traces = crate::trace::detect(&mut c.out, consts);
    Ok((c.out, num_slots + c.max_depth, traces))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::Chunk;
    use crate::lower::lower_function;
    use antarex_ir::cost::CostModel;
    use antarex_ir::parse_program;

    fn reg_of(src: &str, name: &str) -> Chunk {
        let program = parse_program(src).unwrap();
        lower_function(program.function(name).unwrap(), &CostModel::new()).unwrap()
    }

    #[test]
    fn rinstr_stays_register_sized() {
        // the dispatch loop copies instructions; keep them to three words
        assert!(std::mem::size_of::<RInstr>() <= 24);
    }

    #[test]
    fn loop_sequences_fuse() {
        let reg = reg_of(
            "double dot(double a[], double b[], int n) {
                 double s = 0.0;
                 for (int i = 0; i < n; i++) { s += a[i] * b[i]; }
                 return s;
             }",
            "dot",
        );
        assert!(
            reg.code
                .iter()
                .any(|r| matches!(r, RInstr::LoopTickPushPrecOf { .. })),
            "{:?}",
            reg.code
        );
        // the loop head is recognized as a native trace
        assert!(reg
            .code
            .iter()
            .any(|r| matches!(r, RInstr::TraceHead { .. })));
        assert_eq!(reg.traces.len(), 1);
        assert!(reg
            .code
            .iter()
            .any(|r| matches!(r, RInstr::MeterBinStoreForStepJump { .. })));
        assert!(reg
            .code
            .iter()
            .any(|r| matches!(r, RInstr::BinPopPrecStoreVar { .. })));
        assert!(reg
            .code
            .iter()
            .any(|r| matches!(r, RInstr::ReadLoadIndex { .. })));
        assert!(reg.code.iter().any(|r| matches!(r, RInstr::BinLoad { .. })));
        // the whole `s += a[i] * b[i]` loop body collapses to six dispatches
        let body_len = reg.code.len();
        assert!(body_len <= 13, "expected a compact chunk, got {body_len}");
    }

    #[test]
    fn canonical_kernels_get_traces() {
        use crate::trace::TraceKind;
        let stencil = reg_of(
            "void f(double input[], double output[]) {
                 for (int i = 1; i < 31; i++) {
                     output[i] = 0.25 * input[i - 1] + 0.5 * input[i] + 0.25 * input[i + 1];
                 }
             }",
            "f",
        );
        assert_eq!(stencil.traces.len(), 1, "{:?}", stencil.code);
        assert!(matches!(stencil.traces[0].kind, TraceKind::Stencil3 { .. }));
        let matvec = reg_of(
            "void f(double m[], double x[], double y[]) {
                 for (int i = 0; i < 8; i++) {
                     double acc = 0.0;
                     for (int j = 0; j < 8; j++) { acc += m[i * 8 + j] * x[j]; }
                     y[i] = acc;
                 }
             }",
            "f",
        );
        assert!(
            matvec
                .traces
                .iter()
                .any(|t| matches!(t.kind, TraceKind::Reduce { base: Some(_), .. })),
            "{:?}",
            matvec.code
        );
    }

    #[test]
    fn metered_conditions_fuse_with_their_jump() {
        // the condition performs array traffic, so its flushed meter sits
        // directly before the conditional jump
        let reg = reg_of(
            "double drain(double a[]) {
                 double s = 0.0;
                 while (a[0] > 0.0) { s += a[0]; a[0] -= 1.0; }
                 return s;
             }",
            "drain",
        );
        assert!(
            reg.code
                .iter()
                .any(|r| matches!(r, RInstr::MeterJumpIfFalsy { .. })),
            "{:?}",
            reg.code
        );
    }

    #[test]
    fn jump_targets_stay_in_bounds() {
        let reg = reg_of(
            "int f(int n) {
                 int s = 0;
                 for (int i = 0; i < n; i++) {
                     if (i % 2 == 0 && n > 3 || i == 1) { s += i; } else { s -= 1; }
                 }
                 while (s > 100) { s /= 2; }
                 return s;
             }",
            "f",
        );
        for instr in &reg.code {
            if let RInstr::Jump(t)
            | RInstr::JumpIfFalsy { target: t, .. }
            | RInstr::MeterJumpIfFalsy { target: t, .. }
            | RInstr::BinJumpIfFalsy { target: t, .. }
            | RInstr::AndProbe { target: t, .. }
            | RInstr::OrProbe { target: t, .. }
            | RInstr::StoreForStepJump { target: t, .. }
            | RInstr::BinStoreForStepJump { target: t, .. }
            | RInstr::MeterBinStoreForStepJump { target: t, .. } = instr
            {
                assert!((*t as usize) <= reg.code.len(), "target out of bounds");
            }
        }
    }

    #[test]
    fn frame_reserves_temporaries_beyond_slots() {
        let reg = reg_of("int f(int a, int b) { return a + b * a; }", "f");
        // two named slots plus at least one expression temporary
        assert!(reg.frame_size > 2);
    }
}
