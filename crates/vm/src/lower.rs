//! AST → bytecode lowering with weave-time metering injection.
//!
//! The stack stream built here is an intermediate: [`lower_function`]
//! hands it straight to [`crate::reg`] and returns the register-form
//! chunk the VM runs.
//!
//! The lowerer walks a function exactly once and emits bytecode whose
//! *observable accounting* matches the tree-walking interpreter
//! bit-for-bit. Two invariants make that true:
//!
//! 1. **Statics fuse, dynamics stay inline.** Costs that depend only on
//!    the program text (`reg_op` per variable access, `mem_op` per array
//!    access, the short-circuit `int_op`, loop overheads) accumulate in a
//!    pending meter and are emitted as one fused [`Instr::Meter`] per
//!    straight-line segment. Costs that depend on runtime types (binary
//!    arithmetic, negation) are charged by the shared `ops` routines at
//!    the instruction itself.
//! 2. **The pending meter never crosses a control edge.** `flush` runs
//!    before every jump, jump target, call, budget check and statement
//!    end — so cumulative cost agrees with the interpreter at every
//!    budget check and host-call boundary, and the overflow point of the
//!    cost counter is segment-identical (all charges are non-negative, so
//!    a segment's running sum overflows iff its total does, regardless of
//!    intra-segment order).

use crate::bytecode::{Chunk, CompiledProgram, Instr};
use crate::reg::regify;
use antarex_ir::ast::{BinOp, Block, Expr, Function, LValue, Program, Stmt};
use antarex_ir::cost::CostModel;
use antarex_ir::error::IrError;
use antarex_ir::value::Value;
use std::collections::HashMap;

/// Lowers a single function to a metered, ready-to-run `Chunk` under
/// `model`: the stack bytecode is emitted and converted to register
/// form in one step.
///
/// # Errors
///
/// [`IrError::Eval`] when the function exceeds an encoding limit: more
/// than 65,535 locals, callees, call sites or call arguments, a
/// constant pool beyond `u32`, an array size beyond `u32`, or more
/// locals plus expression temporaries than a register operand can name.
pub fn lower_function(function: &Function, model: &CostModel) -> Result<Chunk, IrError> {
    let stack = lower_stack(function, model)?;
    let (code, frame_size, traces) = regify(&stack.code, stack.slots.len(), &stack.consts)?;
    Ok(Chunk {
        name: function.name.clone(),
        code,
        frame_size,
        traces,
        consts: stack.consts,
        callees: stack.callees,
        copyouts: stack.copyouts,
        slot_names: stack.slots,
        params: function.params.clone(),
        ret: function.ret,
    })
}

/// Lowers every function of a program (the unit the
/// [`crate::cache::InstrumentedCodeCache`] keys and shares). A function
/// that fails to lower is left out; the VM lowers it again, and returns
/// the error, when execution reaches it.
pub fn lower_program(program: &Program, model: &CostModel) -> CompiledProgram {
    let mut compiled = CompiledProgram::new();
    for function in program.iter() {
        if let Ok(chunk) = lower_function(function, model) {
            compiled.insert(chunk);
        }
    }
    compiled
}

/// The stack-bytecode pass: the lowerer after it has walked the whole
/// function and emitted the final return.
fn lower_stack<'a>(function: &Function, model: &'a CostModel) -> Result<Lowerer<'a>, IrError> {
    let mut lowerer = Lowerer::new(model);
    for param in &function.params {
        lowerer.slot(&param.name)?;
    }
    lowerer.lower_block(&function.body)?;
    lowerer.flush();
    lowerer.emit(Instr::RetUnit);
    Ok(lowerer)
}

/// An encoding limit the input exceeded.
fn too_large(what: &str) -> IrError {
    IrError::Eval(what.to_string())
}

struct Lowerer<'a> {
    model: &'a CostModel,
    code: Vec<Instr>,
    consts: Vec<Value>,
    callees: Vec<String>,
    callee_index: HashMap<String, u16>,
    copyouts: Vec<Vec<(u16, u16)>>,
    slots: Vec<String>,
    slot_index: HashMap<String, u16>,
    pending_cost: u64,
    pending_mem: u32,
}

impl<'a> Lowerer<'a> {
    fn new(model: &'a CostModel) -> Self {
        Lowerer {
            model,
            code: Vec::new(),
            consts: Vec::new(),
            callees: Vec::new(),
            callee_index: HashMap::new(),
            // index 0 is the shared empty copy-out map
            copyouts: vec![Vec::new()],
            slots: Vec::new(),
            slot_index: HashMap::new(),
            pending_cost: 0,
            pending_mem: 0,
        }
    }

    fn slot(&mut self, name: &str) -> Result<u16, IrError> {
        if let Some(&slot) = self.slot_index.get(name) {
            return Ok(slot);
        }
        let slot =
            u16::try_from(self.slots.len()).map_err(|_| too_large("more than 65535 locals"))?;
        self.slots.push(name.to_string());
        self.slot_index.insert(name.to_string(), slot);
        Ok(slot)
    }

    fn konst(&mut self, value: Value) -> Result<u32, IrError> {
        // small pools: linear dedup keeps chunks compact without hashing
        // floats (NaN-safe via bit equality through PartialEq on Value is
        // not guaranteed, so compare bits for floats explicitly)
        for (i, existing) in self.consts.iter().enumerate() {
            let same = match (existing, &value) {
                (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
                (a, b) => a == b,
            };
            if same {
                return Ok(i as u32);
            }
        }
        let idx =
            u32::try_from(self.consts.len()).map_err(|_| too_large("constant pool overflow"))?;
        self.consts.push(value);
        Ok(idx)
    }

    fn callee(&mut self, name: &str) -> Result<u16, IrError> {
        if let Some(&i) = self.callee_index.get(name) {
            return Ok(i);
        }
        let i =
            u16::try_from(self.callees.len()).map_err(|_| too_large("more than 65535 callees"))?;
        self.callees.push(name.to_string());
        self.callee_index.insert(name.to_string(), i);
        Ok(i)
    }

    fn emit(&mut self, instr: Instr) -> usize {
        debug_assert!(
            !matches!(
                instr,
                Instr::Jump(_)
                    | Instr::JumpIfFalsy(_)
                    | Instr::AndProbe(_)
                    | Instr::OrProbe(_)
                    | Instr::Call { .. }
                    | Instr::Check
                    | Instr::TickLoop
                    | Instr::Ret
                    | Instr::RetUnit
            ) || (self.pending_cost == 0 && self.pending_mem == 0),
            "pending meter must be flushed before control flow"
        );
        self.code.push(instr);
        self.code.len() - 1
    }

    fn here(&self) -> u32 {
        debug_assert!(
            self.pending_cost == 0 && self.pending_mem == 0,
            "pending meter must be flushed before a jump target"
        );
        self.code.len() as u32
    }

    fn patch(&mut self, at: usize) {
        let target = self.here();
        match &mut self.code[at] {
            Instr::Jump(t) | Instr::JumpIfFalsy(t) | Instr::AndProbe(t) | Instr::OrProbe(t) => {
                *t = target
            }
            other => unreachable!("patching a non-jump instruction {other:?}"),
        }
    }

    /// Accumulates a statically-known cost into the pending meter. On the
    /// (pathological) verge of `u64` overflow, the segment splits: the
    /// accumulated part flushes and accumulation restarts, which keeps
    /// the runtime's checked accounting equivalent to charging each op
    /// individually (charges are non-negative, so any prefix overflows
    /// iff the total does).
    fn pend(&mut self, cost: u64) {
        match self.pending_cost.checked_add(cost) {
            Some(total) => self.pending_cost = total,
            None => {
                self.flush();
                self.pending_cost = cost;
            }
        }
    }

    fn pend_mem(&mut self) {
        if self.pending_mem == u32::MAX {
            self.flush();
        }
        self.pending_mem += 1;
    }

    /// Emits the pending fused meter, if any.
    fn flush(&mut self) {
        if self.pending_cost != 0 || self.pending_mem != 0 {
            self.code.push(Instr::Meter {
                cost: self.pending_cost,
                mem_ops: self.pending_mem,
            });
            self.pending_cost = 0;
            self.pending_mem = 0;
        }
    }

    fn lower_block(&mut self, block: &Block) -> Result<(), IrError> {
        for stmt in block {
            self.lower_stmt(stmt)?;
        }
        Ok(())
    }

    fn lower_stmt(&mut self, stmt: &Stmt) -> Result<(), IrError> {
        // statement prologue: the interpreter budget-checks every
        // statement before executing it
        self.flush();
        self.emit(Instr::Check);
        match stmt {
            Stmt::Decl { name, ty, init } => {
                let slot = self.slot(name)?;
                match init {
                    Some(init) => {
                        self.emit(Instr::PushPrec(ty.mantissa_bits()));
                        self.lower_expr(init)?;
                        self.emit(Instr::PopPrec);
                        self.emit(Instr::StoreDecl { slot, ty: *ty });
                    }
                    None => {
                        self.emit(Instr::DeclDefault { slot, ty: *ty });
                    }
                }
            }
            Stmt::ArrayDecl { name, ty, size } => {
                let slot = self.slot(name)?;
                let size =
                    u32::try_from(*size).map_err(|_| too_large("array too large to lower"))?;
                self.emit(Instr::NewArray {
                    slot,
                    ty: *ty,
                    size,
                });
            }
            Stmt::Assign { target, value } => match target {
                LValue::Var(name) => {
                    let slot = self.slot(name)?;
                    self.emit(Instr::PushPrecOf(slot));
                    self.lower_expr(value)?;
                    self.emit(Instr::PopPrec);
                    self.emit(Instr::StoreVar(slot));
                    self.pend(self.model.reg_op);
                }
                LValue::Index(name, index) => {
                    let slot = self.slot(name)?;
                    self.emit(Instr::PushPrecOf(slot));
                    self.lower_expr(value)?;
                    self.emit(Instr::PopPrec);
                    self.lower_expr(index)?;
                    self.emit(Instr::StoreIndex(slot));
                    self.pend(self.model.mem_op);
                    self.pend_mem();
                }
            },
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.lower_expr(cond)?;
                self.flush();
                let jf = self.emit(Instr::JumpIfFalsy(u32::MAX));
                self.lower_block(then_branch)?;
                match else_branch {
                    Some(else_branch) => {
                        self.flush();
                        let jend = self.emit(Instr::Jump(u32::MAX));
                        self.patch(jf);
                        self.lower_block(else_branch)?;
                        self.flush();
                        self.patch(jend);
                    }
                    None => {
                        self.flush();
                        self.patch(jf);
                    }
                }
            }
            Stmt::For {
                var,
                init,
                cond,
                step,
                body,
            } => {
                let slot = self.slot(var)?;
                self.lower_expr(init)?;
                self.flush();
                self.emit(Instr::StoreForInit(slot));
                let top = self.here();
                self.lower_expr(cond)?;
                self.flush();
                let jf = self.emit(Instr::JumpIfFalsy(u32::MAX));
                self.pend(self.model.loop_overhead);
                self.flush();
                self.emit(Instr::TickLoop);
                self.emit(Instr::Check);
                self.lower_block(body)?;
                self.lower_expr(step)?;
                self.flush();
                self.emit(Instr::StoreForStep(slot));
                self.emit(Instr::Jump(top));
                self.patch(jf);
            }
            Stmt::While { cond, body } => {
                let top = self.here();
                self.lower_expr(cond)?;
                self.flush();
                let jf = self.emit(Instr::JumpIfFalsy(u32::MAX));
                self.pend(self.model.loop_overhead);
                self.flush();
                self.emit(Instr::TickLoop);
                self.emit(Instr::Check);
                self.lower_block(body)?;
                self.flush();
                self.emit(Instr::Jump(top));
                self.patch(jf);
            }
            Stmt::Return(value) => match value {
                Some(value) => {
                    self.lower_expr(value)?;
                    self.flush();
                    self.emit(Instr::Ret);
                }
                None => {
                    self.flush();
                    self.emit(Instr::RetUnit);
                }
            },
            Stmt::ExprStmt(expr) => {
                self.lower_expr(expr)?;
                self.emit(Instr::Pop);
            }
        }
        // statement epilogue: fold this statement's statics into one meter
        self.flush();
        Ok(())
    }

    fn lower_expr(&mut self, expr: &Expr) -> Result<(), IrError> {
        match expr {
            Expr::Int(v) => {
                let idx = self.konst(Value::Int(*v))?;
                self.emit(Instr::Const(idx));
            }
            Expr::Float(v) => {
                let idx = self.konst(Value::Float(*v))?;
                self.emit(Instr::Const(idx));
            }
            Expr::Str(s) => {
                let idx = self.konst(Value::Str(s.clone()))?;
                self.emit(Instr::Const(idx));
            }
            Expr::Var(name) => {
                self.pend(self.model.reg_op);
                let slot = self.slot(name)?;
                self.emit(Instr::LoadVar(slot));
            }
            Expr::Index(name, index) => {
                let slot = self.slot(name)?;
                self.lower_expr(index)?;
                self.pend(self.model.mem_op);
                self.pend_mem();
                self.emit(Instr::LoadIndex(slot));
            }
            Expr::Unary(op, inner) => {
                self.lower_expr(inner)?;
                self.emit(Instr::Unary(*op));
            }
            Expr::Binary(BinOp::And, lhs, rhs) => {
                self.lower_expr(lhs)?;
                self.pend(self.model.int_op);
                self.flush();
                let probe = self.emit(Instr::AndProbe(u32::MAX));
                self.lower_expr(rhs)?;
                self.flush();
                self.emit(Instr::CastBool);
                self.patch(probe);
            }
            Expr::Binary(BinOp::Or, lhs, rhs) => {
                self.lower_expr(lhs)?;
                self.pend(self.model.int_op);
                self.flush();
                let probe = self.emit(Instr::OrProbe(u32::MAX));
                self.lower_expr(rhs)?;
                self.flush();
                self.emit(Instr::CastBool);
                self.patch(probe);
            }
            Expr::Binary(op, lhs, rhs) => {
                self.lower_expr(lhs)?;
                self.lower_expr(rhs)?;
                self.emit(Instr::Binary(*op));
            }
            Expr::Call(name, args) => {
                for arg in args {
                    self.lower_expr(arg)?;
                }
                self.flush();
                let callee = self.callee(name)?;
                let argc = u16::try_from(args.len())
                    .map_err(|_| too_large("more than 65535 arguments"))?;
                let mut map = Vec::new();
                for (i, arg) in args.iter().enumerate() {
                    if let Expr::Var(var) = arg {
                        map.push((i as u16, self.slot(var)?));
                    }
                }
                let copyout = if map.is_empty() {
                    0
                } else {
                    let idx = u16::try_from(self.copyouts.len())
                        .map_err(|_| too_large("more than 65535 call sites"))?;
                    self.copyouts.push(map);
                    idx
                };
                self.emit(Instr::Call {
                    callee,
                    argc,
                    copyout,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::RInstr;
    use antarex_ir::parse_program;

    fn chunk_of(src: &str, name: &str) -> Chunk {
        let program = parse_program(src).unwrap();
        lower_function(program.function(name).unwrap(), &CostModel::new()).unwrap()
    }

    /// The stack stream lowering emits before register conversion.
    fn stack_of(src: &str, name: &str) -> Vec<Instr> {
        let program = parse_program(src).unwrap();
        let model = CostModel::new();
        lower_stack(program.function(name).unwrap(), &model)
            .unwrap()
            .code
    }

    #[test]
    fn straight_line_block_fuses_meters() {
        // the loop body `s += a[i] * b[i]` touches two arrays, the index
        // twice, and s twice (read + write): statically 2 mem + 4 reg ops,
        // all fused into ONE meter at the statement end (the multiply and
        // add are dynamic and charged by ops::apply_binary)
        let code = stack_of(
            "double dot(double a[], double b[], int n) {
                 double s = 0.0;
                 for (int i = 0; i < n; i++) { s += a[i] * b[i]; }
                 return s;
             }",
            "dot",
        );
        let model = CostModel::new();
        let body_meter = Instr::Meter {
            cost: 2 * model.mem_op + 4 * model.reg_op,
            mem_ops: 2,
        };
        assert!(
            code.contains(&body_meter),
            "expected fused body meter in {code:?}"
        );
    }

    #[test]
    fn params_bind_the_first_slots() {
        let chunk = chunk_of("int f(int a, int b) { int c = a + b; return c; }", "f");
        assert_eq!(chunk.slot_names[0], "a");
        assert_eq!(chunk.slot_names[1], "b");
        assert_eq!(chunk.slot_names[2], "c");
        assert_eq!(chunk.params.len(), 2);
    }

    #[test]
    fn jumps_are_patched_in_bounds() {
        let code = stack_of(
            "int f(int n) {
                 int s = 0;
                 for (int i = 0; i < n; i++) { if (i % 2 == 0) { s += i; } else { s -= 1; } }
                 while (s > 100) { s /= 2; }
                 return s;
             }",
            "f",
        );
        for instr in &code {
            if let Instr::Jump(t) | Instr::JumpIfFalsy(t) | Instr::AndProbe(t) | Instr::OrProbe(t) =
                instr
            {
                assert!((*t as usize) <= code.len(), "unpatched jump {instr:?}");
                assert_ne!(*t, u32::MAX, "unpatched jump {instr:?}");
            }
        }
    }

    #[test]
    fn constants_deduplicate() {
        let chunk = chunk_of("int f() { return 7 + 7 + 7; }", "f");
        assert_eq!(
            chunk.consts.iter().filter(|v| **v == Value::Int(7)).count(),
            1
        );
    }

    #[test]
    fn call_sites_record_copyout_maps() {
        let chunk = chunk_of(
            "void g(double a[]) { a[0] = 1.0; }
             void f() { double buf[2]; g(buf); }",
            "f",
        );
        let call = chunk
            .code
            .iter()
            .find_map(|i| match i {
                RInstr::Call { copyout, .. } => Some(*copyout),
                _ => None,
            })
            .expect("call instruction");
        assert_eq!(chunk.copyouts[call as usize].len(), 1, "buf is a var arg");
    }

    #[test]
    fn register_form_is_denser_than_stack_form() {
        let src = "double poly(double x, int n) {
                       double s = 0.0;
                       for (int i = 0; i < n; i++) { s = s * x + 1.0; }
                       return s;
                   }";
        let (stack, chunk) = (stack_of(src, "poly"), chunk_of(src, "poly"));
        assert!(
            chunk.len() < stack.len(),
            "register form {} vs stack form {}",
            chunk.len(),
            stack.len()
        );
    }

    #[test]
    fn every_stack_meter_lands_in_one_register_instruction() {
        let src = "double drain(double a[], int n) {
                       double s = 0.0;
                       for (int i = 0; i < n; i++) { s += a[i] * a[i]; }
                       while (a[0] > 0.0 && n > 1) { s += a[0]; a[0] -= 1.0; }
                       return s;
                   }";
        let stack_meters = stack_of(src, "drain")
            .iter()
            .filter(|i| matches!(i, Instr::Meter { .. }))
            .count();
        assert_eq!(chunk_of(src, "drain").meter_count(), stack_meters);
    }
}
