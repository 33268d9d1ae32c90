//! The metered bytecode VM.
//!
//! [`Vm`] executes the register code of the [`Chunk`]s produced by
//! [`crate::lower`], with the same
//! observable behaviour as the tree-walking interpreter in `antarex-ir`:
//! identical values, identical [`ExecStats`]
//! (including `flop_energy` bit-for-bit), identical host-call traces and
//! identical errors. The differential suite in `tests/` enforces this.
//!
//! The engine-specific caveat: when execution *aborts with an error*, the
//! two engines may disagree on the partial statistics accrued after the
//! point of error (the VM's fused meters pend statically-known costs until
//! a segment boundary, so a mid-segment abort discards charges the
//! interpreter had already made). Error values themselves, and everything
//! observable on successful paths — budget-check outcomes included — are
//! identical.

use crate::bytecode::{Chunk, CompiledProgram};
use crate::cache::InstrumentedCodeCache;
use crate::digest::CodeKey;
use crate::lower::lower_function;
use crate::reg::{RInstr, IDX_MASK, TAG_MASK, TAG_SLOT};
use crate::trace::{Bound, LoopPrec, Trace, TraceKind};
use antarex_ir::ast::{BinOp, Function, Program};
use antarex_ir::cost::{CostModel, ExecStats};
use antarex_ir::error::IrError;
use antarex_ir::interp::{Dispatcher, ExecEnv, HostFn, MAX_CALL_DEPTH};
use antarex_ir::ops::{self, coerce_scalar, coerce_scalar_or_array, zero_of};
use antarex_ir::types::Type;
use antarex_ir::value::Value;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// The bytecode execution engine.
///
/// Functions lower lazily on first call — straight to the register code
/// the VM runs — and the chunk is memoized per function (invalidated
/// when the program's `Arc<Function>` identity changes, e.g. after
/// `edit_function` or a dispatcher insertion).
/// [`Vm::with_cache`] instead runs the chunks of a shared
/// [`InstrumentedCodeCache`] entry, so a `(program digest, metering
/// params)` pair lowers once process-wide.
///
/// # Examples
///
/// ```
/// use antarex_ir::{parse_program, interp::ExecEnv, value::Value};
/// use antarex_vm::Vm;
///
/// # fn main() -> Result<(), antarex_ir::IrError> {
/// let program = parse_program("int square(int x) { return x * x; }")?;
/// let mut vm = Vm::new(program);
/// let out = vm.call("square", &[Value::Int(7)], &mut ExecEnv::default())?;
/// assert_eq!(out, Value::Int(49));
/// # Ok(())
/// # }
/// ```
pub struct Vm {
    program: Program,
    /// The cached code of `program` as the VM was built with it
    /// ([`Vm::with_cache`]): consulted first, with no identity check,
    /// because nothing can edit the program while no dispatcher is
    /// installed; [`Vm::set_dispatcher`] moves it into `memo`.
    compiled: Option<Arc<CompiledProgram>>,
    /// Per-function lowering memo, validated by `Arc` pointer identity.
    memo: HashMap<String, (Arc<Function>, Arc<Chunk>)>,
    cost_model: CostModel,
    budget: Option<u64>,
    hosts: HashMap<String, HostFn>,
    dispatcher: Option<Box<dyn Dispatcher>>,
    /// Mantissa width of the destination currently being computed (the
    /// reduced-precision emulation context, mirroring the interpreter).
    prec_ctx: u8,
    /// Saved contexts for nested `PushPrec`/`PopPrec` pairs.
    prec_stack: Vec<u8>,
    /// Cached `ops::flop_unit(prec_ctx)` — recomputed only when the
    /// precision context changes, read on every float operation.
    prec_unit: f64,
    /// Current mini-C call depth.
    depth: u32,
    /// Recycled frames (values + type bindings), one per active depth.
    pool: Vec<Frame>,
}

/// A recycled frame: its values and its slots' type bindings.
type Frame = (Vec<Value>, Vec<Option<Type>>);

/// A VM's grow-only working memory: the recycled frames and type tables
/// of its frame pool and the saved-precision stack. A caller that runs
/// many short calls on fresh VMs hands one scratch from each finished
/// VM ([`Vm::into_scratch`]) to the next ([`Vm::with_scratch`]), so the
/// buffers are allocated once rather than once per VM.
///
/// A scratch carries capacity, never state: every frame is cleared and
/// resized when a call takes it, and the precision stack is cleared at
/// every top-level entry, so a run on a handed-on scratch — even one a
/// failed run left — behaves exactly as a run on a fresh VM.
#[derive(Debug, Default)]
pub struct VmScratch {
    pool: Vec<Frame>,
    prec_stack: Vec<u8>,
}

impl std::fmt::Debug for Vm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("functions", &self.program.function_names())
            .field("hosts", &self.hosts.keys().collect::<Vec<_>>())
            .field("budget", &self.budget)
            .finish_non_exhaustive()
    }
}

impl Vm {
    /// Creates a VM for `program` with the default cost model.
    pub fn new(program: Program) -> Self {
        Vm {
            program,
            compiled: None,
            memo: HashMap::new(),
            cost_model: CostModel::new(),
            budget: Some(200_000_000),
            hosts: HashMap::new(),
            dispatcher: None,
            prec_ctx: 52,
            prec_stack: Vec::new(),
            prec_unit: ops::flop_unit(52),
            depth: 0,
            pool: Vec::new(),
        }
    }

    /// Replaces the cost model (drops the lowered code — metering is
    /// woven into the bytecode, so chunks are model-specific).
    pub(crate) fn with_cost_model(mut self, cost_model: CostModel) -> Self {
        self.cost_model = cost_model;
        self.compiled = None;
        self.memo.clear();
        self
    }

    /// Creates a VM that runs the instrumented code of the shared
    /// `cache` (looked up, or lowered and cached, on the way in): the
    /// `(program digest, cost-model digest)` pair lowers once and the
    /// instrumented chunks are shared across tenants, DSE rounds and
    /// precision sweeps. A function the cache could not lower has no
    /// cached chunk; [`Vm::call`] returns its lowering error when
    /// execution reaches it.
    pub fn with_cache(
        program: Program,
        cost_model: CostModel,
        cache: &InstrumentedCodeCache,
    ) -> Self {
        let key = CodeKey::of(&program, &cost_model);
        Vm::with_cache_key(program, cost_model, cache, key)
    }

    /// [`Vm::with_cache`] for a caller that already holds the program's
    /// key, `CodeKey::of(&program, &cost_model)` — digested once when the
    /// program was built, rather than on every VM built from it.
    pub fn with_cache_key(
        program: Program,
        cost_model: CostModel,
        cache: &InstrumentedCodeCache,
        key: CodeKey,
    ) -> Self {
        let compiled = cache.instrument_keyed(key, &program, &cost_model);
        let mut vm = Vm::new(program).with_cost_model(cost_model);
        vm.compiled = Some(compiled);
        vm
    }

    /// Gives the VM the working memory another VM left
    /// ([`Vm::into_scratch`]), replacing its own (empty until it first
    /// runs).
    pub fn with_scratch(mut self, scratch: VmScratch) -> Self {
        self.pool = scratch.pool;
        self.prec_stack = scratch.prec_stack;
        self
    }

    /// Consumes the VM, returning its working memory for the next VM
    /// ([`Vm::with_scratch`]).
    pub fn into_scratch(self) -> VmScratch {
        VmScratch {
            pool: self.pool,
            prec_stack: self.prec_stack,
        }
    }

    /// Sets (or clears) the execution budget in cost units. The default
    /// is 2·10⁸ units, matching the interpreter.
    pub fn set_budget(&mut self, budget: Option<u64>) {
        self.budget = budget;
    }

    /// Registers a host (intrinsic) function callable from mini-C code.
    /// Returns the previously registered function for the name, if any.
    pub fn register_host(&mut self, name: impl Into<String>, f: HostFn) -> Option<HostFn> {
        self.hosts.insert(name.into(), f)
    }

    /// Installs the dynamic-weaving dispatcher. The dispatcher may edit
    /// the program, so cached chunks move into the identity-checked memo.
    pub fn set_dispatcher(&mut self, dispatcher: Box<dyn Dispatcher>) {
        if let Some(compiled) = self.compiled.take() {
            for function in self.program.iter() {
                if let Some(chunk) = compiled.get(&function.name) {
                    let entry = (Arc::clone(function), Arc::clone(chunk));
                    self.memo.insert(function.name.clone(), entry);
                }
            }
        }
        self.dispatcher = Some(dispatcher);
    }

    /// The program being executed (it may grow under dynamic weaving).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Calls a function by name with the given arguments.
    ///
    /// Statistics accrue into `env.stats` (across multiple calls, if the
    /// same environment is reused).
    ///
    /// # Errors
    ///
    /// * [`IrError::Unresolved`] — unknown function.
    /// * [`IrError::Type`] / [`IrError::Eval`] — dynamic errors, and a
    ///   reached function too large to lower.
    /// * [`IrError::BudgetExceeded`] — the work budget was exhausted.
    /// * [`IrError::CostOverflow`] — cost accounting overflowed.
    pub fn call(
        &mut self,
        name: &str,
        args: &[Value],
        env: &mut ExecEnv,
    ) -> Result<Value, IrError> {
        let (value, _) = self.call_owned(name, args.to_vec(), env)?;
        Ok(value)
    }

    /// [`Vm::call`] on arguments the VM may consume, returning with the
    /// value the arguments as the call left them (see
    /// [`Vm::call_with_writeback`]).
    fn call_owned(
        &mut self,
        name: &str,
        args: Vec<Value>,
        env: &mut ExecEnv,
    ) -> Result<(Value, Vec<Value>), IrError> {
        // The interpreter's precision context is provably 52 at every
        // top-level entry (it restores on unwind even through errors);
        // the VM skips per-frame unwinding and re-establishes the
        // invariant here instead.
        self.set_prec(52);
        self.prec_stack.clear();
        self.call_with_writeback(name, args, env)
    }

    /// Runs `name` as one *instrumented segment*: a fresh [`ExecEnv`]
    /// is created for the call and its final [`ExecStats`] — `cost`,
    /// `flops`, `flop_energy`, memory traffic — are returned alongside
    /// the value. This is the unit of metering the cross-layer tracing
    /// pipeline attributes energy to: one segment, one stats record,
    /// no bleed-through from other calls on the same VM. The arguments
    /// are moved in, so array data is not copied on the way, and come
    /// back out in the same vector: each array argument holds its final
    /// contents, every other position `Value::Unit`. A caller can run the
    /// same data again without having kept a copy.
    ///
    /// # Errors
    ///
    /// Same contract as [`Vm::call`].
    pub fn run_segment(
        &mut self,
        name: &str,
        args: Vec<Value>,
    ) -> Result<(Value, ExecStats, Vec<Value>), IrError> {
        let mut env = ExecEnv::new();
        let (value, args) = self.call_owned(name, args, &mut env)?;
        Ok((value, env.stats, args))
    }

    #[inline]
    fn set_prec(&mut self, bits: u8) {
        self.prec_ctx = bits;
        self.prec_unit = ops::flop_unit(bits);
    }

    fn check_budget(&self, env: &ExecEnv) -> Result<(), IrError> {
        if let Some(limit) = self.budget {
            if env.stats.cost > limit {
                return Err(IrError::BudgetExceeded { limit });
            }
        }
        Ok(())
    }

    /// The lowered chunk of `function`, the program's current definition
    /// of `name`.
    fn chunk_for(&mut self, name: &str, function: Arc<Function>) -> Result<Arc<Chunk>, IrError> {
        if let Some(chunk) = self.compiled.as_ref().and_then(|c| c.get(name)) {
            return Ok(Arc::clone(chunk));
        }
        if let Some((cached_fn, chunk)) = self.memo.get(name) {
            if Arc::ptr_eq(cached_fn, &function) {
                return Ok(Arc::clone(chunk));
            }
        }
        let chunk = Arc::new(lower_function(&function, &self.cost_model)?);
        self.memo
            .insert(name.to_string(), (function, Arc::clone(&chunk)));
        Ok(chunk)
    }

    /// Calls `name`, returning with its value the argument vector as the
    /// call left it — the copy-out of a nested call or a
    /// [`Vm::run_segment`] ([`Vm::call`] discards it): each array
    /// parameter's final contents sit at its index, and `Value::Unit`
    /// everywhere else. A builtin or host call copies nothing out.
    fn call_with_writeback(
        &mut self,
        name: &str,
        args: Vec<Value>,
        env: &mut ExecEnv,
    ) -> Result<(Value, Vec<Value>), IrError> {
        // Dynamic-weaving hook: the dispatcher may redirect and/or extend
        // the program with specialized versions (which then lower lazily).
        let resolved = match self.dispatcher.as_mut() {
            Some(dispatcher) => match dispatcher.resolve(name, &args, &mut self.program)? {
                Some(redirect) => Cow::Owned(redirect),
                None => Cow::Borrowed(name),
            },
            None => Cow::Borrowed(name),
        };

        if let Some(function) = self.program.function(&resolved).cloned() {
            let chunk = self.chunk_for(&resolved, function)?;
            return self.exec_chunk(&chunk, args, env);
        }
        if let Some(value) = ops::try_builtin(
            &resolved,
            &args,
            &self.cost_model,
            self.prec_ctx,
            &mut env.stats,
        )? {
            return Ok((value, vec![]));
        }
        if let Some(host) = self.hosts.get_mut(resolved.as_ref()) {
            env.stats.charge(self.cost_model.host_call)?;
            env.stats.host_calls = env.stats.host_calls.saturating_add(1);
            let value = host(&args)?;
            return Ok((value, vec![]));
        }
        Err(IrError::Unresolved(resolved.into_owned()))
    }

    fn exec_chunk(
        &mut self,
        chunk: &Arc<Chunk>,
        args: Vec<Value>,
        env: &mut ExecEnv,
    ) -> Result<(Value, Vec<Value>), IrError> {
        if args.len() != chunk.params.len() {
            return Err(IrError::Type(format!(
                "function `{}` expects {} arguments, got {}",
                chunk.name,
                chunk.params.len(),
                args.len()
            )));
        }
        env.stats.charge(self.cost_model.call_overhead)?;
        env.stats.calls = env.stats.calls.saturating_add(1);
        self.check_budget(env)?;
        self.depth += 1;
        if self.depth > MAX_CALL_DEPTH {
            self.depth -= 1;
            return Err(IrError::Eval(format!(
                "call depth exceeded {MAX_CALL_DEPTH} (runaway recursion in `{}`)",
                chunk.name
            )));
        }

        let frame_size = chunk.frame_size;
        let (mut frame, mut types) = self.pool.pop().unwrap_or_default();
        frame.clear();
        frame.resize(frame_size, Value::Unit);
        types.clear();
        types.resize(chunk.num_slots(), None);

        let result = self.exec_frame(chunk, args, &mut frame, &mut types, env);

        frame.clear();
        types.clear();
        self.pool.push((frame, types));
        result
    }

    fn exec_frame(
        &mut self,
        chunk: &Arc<Chunk>,
        mut args: Vec<Value>,
        frame: &mut [Value],
        types: &mut [Option<Type>],
        env: &mut ExecEnv,
    ) -> Result<(Value, Vec<Value>), IrError> {
        // NOTE: binding errors below deliberately do NOT restore `depth`
        // — the interpreter leaks one depth level on parameter-binding
        // failure and bit-identity includes replicating that.
        for (slot, (param, arg)) in chunk.params.iter().zip(args.iter_mut()).enumerate() {
            let arg = std::mem::replace(arg, Value::Unit);
            types[slot] = Some(param.ty);
            if param.is_array {
                match arg {
                    Value::Array(mut items) => {
                        // copy-in quantization: a narrow parameter type
                        // means the data arrives in that format
                        if param.ty.mantissa_bits().is_some_and(|b| b < 52) {
                            for item in &mut items {
                                if let Value::Float(v) = item {
                                    *item = Value::Float(param.ty.quantize(*v));
                                }
                            }
                        }
                        frame[slot] = Value::Array(items);
                    }
                    other => {
                        return Err(IrError::Type(format!(
                            "parameter `{}` of `{}` expects an array, got {other}",
                            param.name, chunk.name
                        )))
                    }
                }
            } else {
                let value = coerce_scalar(arg, param.ty)?;
                store_slot(frame, types, slot, value);
            }
        }

        let result = self.run(chunk, frame, types, env);
        self.depth -= 1;
        let mut result = result?;
        if let (Some(ty), Value::Float(v)) = (chunk.ret, &result) {
            result = Value::Float(ty.quantize(*v));
        }
        // copy-out array parameters, each into its argument's place
        for (i, param) in chunk.params.iter().enumerate() {
            if param.is_array {
                args[i] = std::mem::replace(&mut frame[i], Value::Unit);
            }
        }
        Ok((result, args))
    }

    fn run(
        &mut self,
        chunk: &Arc<Chunk>,
        frame: &mut [Value],
        types: &mut [Option<Type>],
        env: &mut ExecEnv,
    ) -> Result<Value, IrError> {
        // `ExecStats` is `Copy`: the dispatch loop accrues into a stack
        // local the optimizer can keep in registers, written back to the
        // environment on every exit and around nested calls. Observable
        // behaviour (budget-check outcomes, overflow points, merge order)
        // is unchanged — it is the same field-by-field arithmetic.
        let mut stats = env.stats;
        let result = self.run_inner(chunk, frame, types, env, &mut stats);
        env.stats = stats;
        result
    }

    fn run_inner(
        &mut self,
        chunk: &Arc<Chunk>,
        frame: &mut [Value],
        types: &mut [Option<Type>],
        env: &mut ExecEnv,
        stats: &mut antarex_ir::cost::ExecStats,
    ) -> Result<Value, IrError> {
        let code = &chunk.code;
        let budget = self.budget.unwrap_or(u64::MAX);
        let mut pc = 0usize;
        while pc < code.len() {
            let instr = code[pc];
            pc += 1;
            match instr {
                RInstr::Const { idx, dst } => {
                    frame[dst as usize] = chunk.consts[idx as usize].clone();
                }
                RInstr::Read { slot, dst } => {
                    let slot = slot as usize;
                    let value = match &frame[slot] {
                        Value::Unit => {
                            return Err(IrError::Unresolved(chunk.slot_names[slot].clone()))
                        }
                        value => value.clone(),
                    };
                    frame[dst as usize] = value;
                }
                RInstr::LoadIndex { arr, idx, dst } => {
                    let idx = read_opnd(frame, chunk, idx)?
                        .as_i64()
                        .ok_or_else(|| IrError::Type("array index must be numeric".into()))?;
                    frame[dst as usize] = load_index(frame, chunk, arr, idx)?;
                }
                RInstr::ReadLoadIndex {
                    pre,
                    pre_dst,
                    arr,
                    idx,
                    dst,
                } => {
                    // the checked read runs first: the load's index operand
                    // is usually the temp it produces
                    let slot = pre as usize;
                    let value = match &frame[slot] {
                        Value::Unit => {
                            return Err(IrError::Unresolved(chunk.slot_names[slot].clone()))
                        }
                        value => value.clone(),
                    };
                    frame[pre_dst as usize] = value;
                    let idx = read_opnd(frame, chunk, idx)?
                        .as_i64()
                        .ok_or_else(|| IrError::Type("array index must be numeric".into()))?;
                    frame[dst as usize] = load_index(frame, chunk, arr, idx)?;
                }
                RInstr::StoreDecl { src, slot, ty } => {
                    let value = coerce_scalar(take_opnd(frame, chunk, src)?, ty)?;
                    let slot = slot as usize;
                    types[slot] = Some(ty);
                    store_slot(frame, types, slot, value);
                }
                RInstr::DeclDefault { slot, ty } => {
                    let slot = slot as usize;
                    types[slot] = Some(ty);
                    store_slot(frame, types, slot, zero_of(ty));
                }
                RInstr::NewArray { slot, ty, size } => {
                    let slot = slot as usize;
                    types[slot] = Some(ty);
                    frame[slot] = Value::Array(vec![zero_of(ty); size as usize]);
                }
                RInstr::StoreVar { src, slot } => {
                    store_var(frame, types, chunk, src, slot)?;
                }
                RInstr::StoreIndex { val, idx, slot } => {
                    let value = take_opnd(frame, chunk, val)?;
                    let idx = read_opnd(frame, chunk, idx)?
                        .as_i64()
                        .ok_or_else(|| IrError::Type("array index must be numeric".into()))?;
                    store_index(frame, types, chunk, slot, idx, value)?;
                }
                RInstr::BinStoreIndex {
                    op,
                    l,
                    r,
                    idx,
                    slot,
                } => {
                    let unit = self.prec_unit;
                    let lv = read_opnd(frame, chunk, l)?;
                    let rv = read_opnd(frame, chunk, r)?;
                    let out = ops::apply_binary_with(op, lv, rv, &self.cost_model, || unit, stats)?;
                    let idx = read_opnd(frame, chunk, idx)?
                        .as_i64()
                        .ok_or_else(|| IrError::Type("array index must be numeric".into()))?;
                    store_index(frame, types, chunk, slot, idx, out)?;
                }
                RInstr::StoreForInit { src, slot } => {
                    let value = coerce_scalar(take_opnd(frame, chunk, src)?, Type::Int)?;
                    let slot = slot as usize;
                    types[slot] = Some(Type::Int);
                    store_slot(frame, types, slot, value);
                }
                RInstr::StoreForStep { src, slot } => {
                    // no type re-bind: the loop body may have re-declared
                    // the induction variable with a different type
                    let value = coerce_scalar(take_opnd(frame, chunk, src)?, Type::Int)?;
                    store_slot(frame, types, slot as usize, value);
                }
                RInstr::StoreForStepJump { src, slot, target } => {
                    let value = coerce_scalar(take_opnd(frame, chunk, src)?, Type::Int)?;
                    store_slot(frame, types, slot as usize, value);
                    pc = target as usize;
                }
                RInstr::Unary { op, src, dst } => {
                    let unit = self.prec_unit;
                    let value = read_opnd(frame, chunk, src)?;
                    let out = ops::apply_unary_with(op, value, &self.cost_model, || unit, stats)?;
                    frame[dst as usize] = out;
                }
                RInstr::Binary { op, l, r, dst } => {
                    let unit = self.prec_unit;
                    let lv = read_opnd(frame, chunk, l)?;
                    let rv = read_opnd(frame, chunk, r)?;
                    let out = ops::apply_binary_with(op, lv, rv, &self.cost_model, || unit, stats)?;
                    frame[dst as usize] = out;
                }
                RInstr::BinLoad {
                    op,
                    l,
                    arr,
                    idx,
                    dst,
                } => {
                    // the swallowed load supplied the right operand, so its
                    // errors (and the index resolution) come first
                    let idxv = read_opnd(frame, chunk, idx)?
                        .as_i64()
                        .ok_or_else(|| IrError::Type("array index must be numeric".into()))?;
                    let rv = load_index(frame, chunk, arr, idxv)?;
                    let unit = self.prec_unit;
                    let lv = read_opnd(frame, chunk, l)?;
                    let out =
                        ops::apply_binary_with(op, lv, &rv, &self.cost_model, || unit, stats)?;
                    frame[dst as usize] = out;
                }
                RInstr::BinLoadIndex { op, l, r, arr, dst } => {
                    // the binary result is the load's index: apply (and
                    // charge) first, then resolve the indexed read
                    let unit = self.prec_unit;
                    let lv = read_opnd(frame, chunk, l)?;
                    let rv = read_opnd(frame, chunk, r)?;
                    let out = ops::apply_binary_with(op, lv, rv, &self.cost_model, || unit, stats)?;
                    let idxv = out
                        .as_i64()
                        .ok_or_else(|| IrError::Type("array index must be numeric".into()))?;
                    frame[dst as usize] = load_index(frame, chunk, arr, idxv)?;
                }
                RInstr::BinJumpIfFalsy { op, l, r, target } => {
                    let unit = self.prec_unit;
                    let lv = read_opnd(frame, chunk, l)?;
                    let rv = read_opnd(frame, chunk, r)?;
                    let out = ops::apply_binary_with(op, lv, rv, &self.cost_model, || unit, stats)?;
                    if !out.truthy() {
                        pc = target as usize;
                    }
                }
                RInstr::BinStoreForStepJump {
                    op,
                    l,
                    r,
                    slot,
                    target,
                } => {
                    let unit = self.prec_unit;
                    let lv = read_opnd(frame, chunk, l)?;
                    let rv = read_opnd(frame, chunk, r)?;
                    let out = ops::apply_binary_with(op, lv, rv, &self.cost_model, || unit, stats)?;
                    let value = coerce_scalar(out, Type::Int)?;
                    store_slot(frame, types, slot as usize, value);
                    pc = target as usize;
                }
                RInstr::MeterBinStoreForStepJump {
                    cost,
                    mem_ops,
                    op,
                    l,
                    r,
                    slot,
                    target,
                } => {
                    stats.charge(cost)?;
                    stats.mem_ops = stats.mem_ops.saturating_add(u64::from(mem_ops));
                    let unit = self.prec_unit;
                    let lv = read_opnd(frame, chunk, l)?;
                    let rv = read_opnd(frame, chunk, r)?;
                    let out = ops::apply_binary_with(op, lv, rv, &self.cost_model, || unit, stats)?;
                    let value = coerce_scalar(out, Type::Int)?;
                    store_slot(frame, types, slot as usize, value);
                    pc = target as usize;
                }
                RInstr::BinPopPrecStoreVar { op, l, r, slot } => {
                    let unit = self.prec_unit;
                    let lv = read_opnd(frame, chunk, l)?;
                    let rv = read_opnd(frame, chunk, r)?;
                    let out = ops::apply_binary_with(op, lv, rv, &self.cost_model, || unit, stats)?;
                    if let Some(saved) = self.prec_stack.pop() {
                        self.set_prec(saved);
                    }
                    store_var_value(frame, types, chunk, slot, out)?;
                }
                RInstr::BinPopPrecStoreDecl { op, l, r, slot, ty } => {
                    let unit = self.prec_unit;
                    let lv = read_opnd(frame, chunk, l)?;
                    let rv = read_opnd(frame, chunk, r)?;
                    let out = ops::apply_binary_with(op, lv, rv, &self.cost_model, || unit, stats)?;
                    if let Some(saved) = self.prec_stack.pop() {
                        self.set_prec(saved);
                    }
                    let value = coerce_scalar(out, ty)?;
                    let slot = slot as usize;
                    types[slot] = Some(ty);
                    store_slot(frame, types, slot, value);
                }
                RInstr::CheckPushPrec(bits) => {
                    if stats.cost > budget {
                        return Err(IrError::BudgetExceeded { limit: budget });
                    }
                    self.prec_stack.push(self.prec_ctx);
                    if let Some(bits) = bits {
                        self.set_prec(bits);
                    }
                }
                RInstr::CheckPushPrecOf(slot) => {
                    if stats.cost > budget {
                        return Err(IrError::BudgetExceeded { limit: budget });
                    }
                    self.prec_stack.push(self.prec_ctx);
                    if let Some(bits) = types[slot as usize].and_then(Type::mantissa_bits) {
                        self.set_prec(bits);
                    }
                }
                RInstr::CastBool { src, dst } => {
                    let truthy = read_opnd(frame, chunk, src)?.truthy();
                    frame[dst as usize] = Value::Int(i64::from(truthy));
                }
                RInstr::Jump(target) => pc = target as usize,
                RInstr::JumpIfFalsy { cond, target } => {
                    if !read_opnd(frame, chunk, cond)?.truthy() {
                        pc = target as usize;
                    }
                }
                RInstr::MeterJumpIfFalsy {
                    cost,
                    mem_ops,
                    cond,
                    target,
                } => {
                    stats.charge(cost)?;
                    stats.mem_ops = stats.mem_ops.saturating_add(u64::from(mem_ops));
                    if !read_opnd(frame, chunk, cond)?.truthy() {
                        pc = target as usize;
                    }
                }
                RInstr::AndProbe { cond, dst, target } => {
                    if !read_opnd(frame, chunk, cond)?.truthy() {
                        frame[dst as usize] = Value::Int(0);
                        pc = target as usize;
                    }
                }
                RInstr::OrProbe { cond, dst, target } => {
                    if read_opnd(frame, chunk, cond)?.truthy() {
                        frame[dst as usize] = Value::Int(1);
                        pc = target as usize;
                    }
                }
                RInstr::Call {
                    callee,
                    argc,
                    copyout,
                    base,
                } => {
                    let base = base as usize;
                    let mut args = Vec::with_capacity(argc as usize);
                    for k in 0..argc as usize {
                        args.push(std::mem::replace(&mut frame[base + k], Value::Unit));
                    }
                    // nested calls (and host calls / builtins inside them)
                    // accrue into the environment: flush the local copy
                    // across the boundary in both directions
                    env.stats = *stats;
                    let nested =
                        self.call_with_writeback(&chunk.callees[callee as usize], args, env);
                    *stats = env.stats;
                    let (value, writeback) = nested?;
                    // copy-out: array arguments passed as plain variables
                    // get the callee's final contents back
                    let map = &chunk.copyouts[copyout as usize];
                    for (param_idx, array) in writeback.into_iter().enumerate() {
                        if matches!(array, Value::Unit) {
                            continue;
                        }
                        if let Some(&(_, slot)) =
                            map.iter().find(|(arg_i, _)| *arg_i as usize == param_idx)
                        {
                            let slot = slot as usize;
                            if !matches!(frame[slot], Value::Unit) {
                                frame[slot] = array;
                            }
                        }
                    }
                    frame[base] = value;
                }
                RInstr::Ret { src } => return take_opnd(frame, chunk, src),
                RInstr::RetUnit => return Ok(Value::Unit),
                RInstr::Meter { cost, mem_ops } => {
                    stats.charge(cost)?;
                    stats.mem_ops = stats.mem_ops.saturating_add(u64::from(mem_ops));
                }
                RInstr::MeterCheck { cost, mem_ops } => {
                    stats.charge(cost)?;
                    stats.mem_ops = stats.mem_ops.saturating_add(u64::from(mem_ops));
                    if stats.cost > budget {
                        return Err(IrError::BudgetExceeded { limit: budget });
                    }
                }
                RInstr::LoopTick { cost, mem_ops } => {
                    stats.charge(cost)?;
                    stats.mem_ops = stats.mem_ops.saturating_add(u64::from(mem_ops));
                    stats.loop_iters = stats.loop_iters.saturating_add(1);
                    if stats.cost > budget {
                        return Err(IrError::BudgetExceeded { limit: budget });
                    }
                }
                RInstr::LoopTickPushPrec {
                    cost,
                    mem_ops,
                    bits,
                } => {
                    stats.charge(cost)?;
                    stats.mem_ops = stats.mem_ops.saturating_add(u64::from(mem_ops));
                    stats.loop_iters = stats.loop_iters.saturating_add(1);
                    if stats.cost > budget {
                        return Err(IrError::BudgetExceeded { limit: budget });
                    }
                    self.prec_stack.push(self.prec_ctx);
                    if let Some(bits) = bits {
                        self.set_prec(bits);
                    }
                }
                RInstr::LoopTickPushPrecOf {
                    cost,
                    mem_ops,
                    slot,
                } => {
                    stats.charge(cost)?;
                    stats.mem_ops = stats.mem_ops.saturating_add(u64::from(mem_ops));
                    stats.loop_iters = stats.loop_iters.saturating_add(1);
                    if stats.cost > budget {
                        return Err(IrError::BudgetExceeded { limit: budget });
                    }
                    self.prec_stack.push(self.prec_ctx);
                    if let Some(bits) = types[slot as usize].and_then(Type::mantissa_bits) {
                        self.set_prec(bits);
                    }
                }
                RInstr::TickLoop => {
                    stats.loop_iters = stats.loop_iters.saturating_add(1);
                }
                RInstr::Check => {
                    if stats.cost > budget {
                        return Err(IrError::BudgetExceeded { limit: budget });
                    }
                }
                RInstr::PushPrec(bits) => {
                    self.prec_stack.push(self.prec_ctx);
                    if let Some(bits) = bits {
                        self.set_prec(bits);
                    }
                }
                RInstr::PushPrecOf(slot) => {
                    self.prec_stack.push(self.prec_ctx);
                    if let Some(bits) = types[slot as usize].and_then(Type::mantissa_bits) {
                        self.set_prec(bits);
                    }
                }
                RInstr::PopPrec => {
                    if let Some(saved) = self.prec_stack.pop() {
                        self.set_prec(saved);
                    }
                }
                RInstr::PopPrecStoreVar { src, slot } => {
                    if let Some(saved) = self.prec_stack.pop() {
                        self.set_prec(saved);
                    }
                    store_var(frame, types, chunk, src, slot)?;
                }
                RInstr::PopPrecStoreDecl { src, slot, ty } => {
                    if let Some(saved) = self.prec_stack.pop() {
                        self.set_prec(saved);
                    }
                    let value = coerce_scalar(take_opnd(frame, chunk, src)?, ty)?;
                    let slot = slot as usize;
                    types[slot] = Some(ty);
                    store_slot(frame, types, slot, value);
                }
                RInstr::TraceHead { trace } => {
                    let t = chunk.traces[trace as usize];
                    match self.run_trace(&t, frame, types, stats, budget)? {
                        Some(exit) => pc = exit as usize,
                        None => {
                            // validation declined the trace: execute the
                            // head condition the trace replaced and fall
                            // through to the generic body
                            let unit = self.prec_unit;
                            let lv = read_opnd(frame, chunk, t.cond_l)?;
                            let rv = read_opnd(frame, chunk, t.cond_r)?;
                            let out = ops::apply_binary_with(
                                BinOp::Lt,
                                lv,
                                rv,
                                &self.cost_model,
                                || unit,
                                stats,
                            )?;
                            if !out.truthy() {
                                pc = t.exit as usize;
                            }
                        }
                    }
                }
            }
        }
        Ok(Value::Unit)
    }

    /// Executes a recognized loop trace natively, or returns `Ok(None)`
    /// (with **no** side effects) when entry validation cannot prove the
    /// native loop equivalent to the generic body.
    ///
    /// Validation establishes that the only errors the loop can raise are
    /// accounting failures (`CostOverflow` / `BudgetExceeded`): counter,
    /// bound and base are bound `Int`s, the accumulator a `Float` with a
    /// float (or absent) type binding, every index the loop will touch is
    /// in bounds, every element it will read a `Float`, and the counter
    /// never overflows. The loop then replays the *exact* charge sequence
    /// of the generic instructions — one checked charge per original
    /// charge, in original order, with every budget checkpoint in its
    /// original place (the loop tick, and `FmaTemp`'s mid-body meter
    /// check) and one `count_flops` call per float op so `flop_energy`
    /// accumulates bit-identically. On an accounting failure mid-loop the
    /// frame is left exactly as the generic engine would leave it
    /// (counter, accumulator and any temporary at their last stored
    /// values, with the temporary's type binding) and, if the failure
    /// falls inside one of the loop's pushed precision windows, that push
    /// is reconstructed before the error propagates.
    fn run_trace(
        &mut self,
        t: &Trace,
        frame: &mut [Value],
        types: &mut [Option<Type>],
        stats: &mut ExecStats,
        budget: u64,
    ) -> Result<Option<u32>, IrError> {
        let Value::Int(i0) = frame[t.ctr as usize] else {
            return Ok(None);
        };
        let bound = match t.bound {
            Bound::Const(b) => b,
            Bound::Slot(s) => match frame[s as usize] {
                Value::Int(b) => b,
                _ => return Ok(None),
            },
        };
        // the counter values the loop will visit: i0, i0+step, .., last;
        // the loop leaves the counter at last+step, which must not wrap
        // (a wrapping counter re-enters the loop with unvalidated indices)
        let range = if i0 < bound {
            let Some(last) = (bound - 1)
                .checked_sub(i0)
                .map(|span| span / t.step)
                .and_then(|k| k.checked_mul(t.step))
                .and_then(|d| i0.checked_add(d))
            else {
                return Ok(None);
            };
            if last.checked_add(t.step).is_none() {
                return Ok(None);
            }
            Some((i0, last))
        } else {
            None
        };
        let outer_prec = self.prec_ctx;
        let eff_bits = match t.prec {
            LoopPrec::Of(slot) => types[slot as usize].and_then(Type::mantissa_bits),
            LoopPrec::Bits(bits) => bits,
        }
        .unwrap_or(outer_prec);
        let unit = ops::flop_unit(eff_bits);
        let cm = &self.cost_model;
        let (c_int, c_intmul, c_fmul, c_fop) = (cm.int_op, cm.int_mul, cm.float_mul, cm.float_op);
        match t.kind {
            TraceKind::Reduce {
                acc,
                arr_a,
                arr_b,
                base,
            } => {
                let acc_slot = acc as usize;
                let Value::Float(acc0) = frame[acc_slot] else {
                    return Ok(None);
                };
                let acc_ty = types[acc_slot];
                if acc_ty.is_some_and(|ty| !ty.is_float()) {
                    return Ok(None);
                }
                // the base product is loop-invariant only if its slot is
                // not the counter; checked here, wrapping in the generic
                // tier, so any overflow falls back
                let base_val = match base {
                    None => 0i64,
                    Some((slot, factor)) => {
                        if slot == t.ctr {
                            return Ok(None);
                        }
                        let Value::Int(v) = frame[slot as usize] else {
                            return Ok(None);
                        };
                        match v.checked_mul(factor) {
                            Some(b) => b,
                            None => return Ok(None),
                        }
                    }
                };
                let Some((lo, hi)) = range else {
                    // zero iterations: only the failing head condition runs
                    stats.charge(c_int)?;
                    return Ok(Some(t.exit));
                };
                let (mut i, mut acc) = (i0, acc0);
                let fail = {
                    let (Value::Array(a_items), Value::Array(b_items)) =
                        (&frame[arr_a as usize], &frame[arr_b as usize])
                    else {
                        return Ok(None);
                    };
                    let (Some(alo), Some(ahi)) =
                        (lo.checked_add(base_val), hi.checked_add(base_val))
                    else {
                        return Ok(None);
                    };
                    if !all_floats(a_items, alo, ahi) || !all_floats(b_items, lo, hi) {
                        return Ok(None);
                    }
                    let mut fail: Option<(IrError, bool)> = None;
                    loop {
                        // head condition (always Int < Int here)
                        if let Err(e) = stats.charge(c_int) {
                            fail = Some((e, false));
                            break;
                        }
                        if i >= bound {
                            break;
                        }
                        // loop tick: charge, traffic, iteration, budget
                        if let Err(e) = stats.charge(t.tick_cost) {
                            fail = Some((e, false));
                            break;
                        }
                        stats.mem_ops = stats.mem_ops.saturating_add(u64::from(t.tick_mem));
                        stats.loop_iters = stats.loop_iters.saturating_add(1);
                        if stats.cost > budget {
                            fail = Some((IrError::BudgetExceeded { limit: budget }, false));
                            break;
                        }
                        // precision context pushed from here to the store
                        if base.is_some() {
                            // base product and index addition (int charges)
                            if let Err(e) = stats.charge(c_intmul) {
                                fail = Some((e, true));
                                break;
                            }
                            if let Err(e) = stats.charge(c_int) {
                                fail = Some((e, true));
                                break;
                            }
                        }
                        let av = felem(a_items, base_val + i);
                        let bv = felem(b_items, i);
                        if let Err(e) = stats.charge(c_fmul) {
                            fail = Some((e, true));
                            break;
                        }
                        stats.count_flops(1, unit);
                        let m = av * bv;
                        if let Err(e) = stats.charge(c_fop) {
                            fail = Some((e, true));
                            break;
                        }
                        stats.count_flops(1, unit);
                        acc = quantize_opt(acc_ty, acc + m);
                        // precision popped (balanced); bottom-of-loop meter
                        if let Err(e) = stats.charge(t.meter_cost) {
                            fail = Some((e, false));
                            break;
                        }
                        stats.mem_ops = stats.mem_ops.saturating_add(u64::from(t.meter_mem));
                        if let Err(e) = stats.charge(c_int) {
                            fail = Some((e, false));
                            break;
                        }
                        i = i.wrapping_add(t.step);
                    }
                    fail
                };
                frame[t.ctr as usize] = Value::Int(i);
                frame[acc_slot] = Value::Float(acc);
                if let Some((e, prec_pushed)) = fail {
                    if prec_pushed {
                        self.prec_stack.push(outer_prec);
                        self.set_prec(eff_bits);
                    }
                    return Err(e);
                }
                Ok(Some(t.exit))
            }
            TraceKind::Stencil3 {
                taps,
                arr_out,
                w,
                offs,
            } => {
                let out_slot = arr_out as usize;
                let out_ty = types[out_slot];
                let Some((lo, hi)) = range else {
                    stats.charge(c_int)?;
                    return Ok(Some(t.exit));
                };
                let tap_offs = [offs[0], 0, offs[1]];
                {
                    let Value::Array(out_items) = &frame[out_slot] else {
                        return Ok(None);
                    };
                    if lo < 0 || hi >= out_items.len() as i64 {
                        return Ok(None);
                    }
                    for (k, &off) in tap_offs.iter().enumerate() {
                        let (Some(tlo), Some(thi)) = (lo.checked_add(off), hi.checked_add(off))
                        else {
                            return Ok(None);
                        };
                        let Value::Array(items) = &frame[taps[k] as usize] else {
                            return Ok(None);
                        };
                        if !all_floats(items, tlo, thi) {
                            return Ok(None);
                        }
                    }
                }
                // the output array is taken out of the frame so loads from
                // a tap that aliases it observe stores in program order;
                // it is restored on every exit path below
                let mut out_vec = match std::mem::replace(&mut frame[out_slot], Value::Unit) {
                    Value::Array(v) => v,
                    _ => unreachable!("validated as an array above"),
                };
                let mut i = i0;
                let mut fail: Option<(IrError, bool)> = None;
                loop {
                    if let Err(e) = stats.charge(c_int) {
                        fail = Some((e, false));
                        break;
                    }
                    if i >= bound {
                        break;
                    }
                    if let Err(e) = stats.charge(t.tick_cost) {
                        fail = Some((e, false));
                        break;
                    }
                    stats.mem_ops = stats.mem_ops.saturating_add(u64::from(t.tick_mem));
                    stats.loop_iters = stats.loop_iters.saturating_add(1);
                    if stats.cost > budget {
                        fail = Some((IrError::BudgetExceeded { limit: budget }, false));
                        break;
                    }
                    // precision window: first tap index (int), then the
                    // three weighted taps with their float charges
                    if let Err(e) = stats.charge(c_int) {
                        fail = Some((e, true));
                        break;
                    }
                    let v0 = tap_read(frame, out_slot, &out_vec, taps[0], i + tap_offs[0]);
                    if let Err(e) = stats.charge(c_fmul) {
                        fail = Some((e, true));
                        break;
                    }
                    stats.count_flops(1, unit);
                    let mut sum = w[0] * v0;
                    let v1 = tap_read(frame, out_slot, &out_vec, taps[1], i);
                    if let Err(e) = stats.charge(c_fmul) {
                        fail = Some((e, true));
                        break;
                    }
                    stats.count_flops(1, unit);
                    let p1 = w[1] * v1;
                    if let Err(e) = stats.charge(c_fop) {
                        fail = Some((e, true));
                        break;
                    }
                    stats.count_flops(1, unit);
                    sum += p1;
                    if let Err(e) = stats.charge(c_int) {
                        fail = Some((e, true));
                        break;
                    }
                    let v2 = tap_read(frame, out_slot, &out_vec, taps[2], i + tap_offs[2]);
                    if let Err(e) = stats.charge(c_fmul) {
                        fail = Some((e, true));
                        break;
                    }
                    stats.count_flops(1, unit);
                    let p2 = w[2] * v2;
                    if let Err(e) = stats.charge(c_fop) {
                        fail = Some((e, true));
                        break;
                    }
                    stats.count_flops(1, unit);
                    sum += p2;
                    // precision popped before the store; the store
                    // quantizes per the output's element type
                    out_vec[i as usize] = Value::Float(quantize_opt(out_ty, sum));
                    if let Err(e) = stats.charge(t.meter_cost) {
                        fail = Some((e, false));
                        break;
                    }
                    stats.mem_ops = stats.mem_ops.saturating_add(u64::from(t.meter_mem));
                    if let Err(e) = stats.charge(c_int) {
                        fail = Some((e, false));
                        break;
                    }
                    i = i.wrapping_add(t.step);
                }
                frame[out_slot] = Value::Array(out_vec);
                frame[t.ctr as usize] = Value::Int(i);
                if let Some((e, prec_pushed)) = fail {
                    if prec_pushed {
                        self.prec_stack.push(outer_prec);
                        self.set_prec(eff_bits);
                    }
                    return Err(e);
                }
                Ok(Some(t.exit))
            }
            TraceKind::FmaTemp {
                acc,
                tmp,
                tmp_ty,
                scale,
                arrs,
            } => {
                let (acc_slot, tmp_slot) = (acc as usize, tmp as usize);
                let Value::Float(acc0) = frame[acc_slot] else {
                    return Ok(None);
                };
                let acc_ty = types[acc_slot];
                if acc_ty.is_some_and(|ty| !ty.is_float()) {
                    return Ok(None);
                }
                // the matcher proved `scale` is never written in the body
                let Value::Float(s) = frame[scale as usize] else {
                    return Ok(None);
                };
                let Some((lo, hi)) = range else {
                    stats.charge(c_int)?;
                    return Ok(Some(t.exit));
                };
                // the second window runs under the accumulator's binding
                let acc_bits = acc_ty.and_then(Type::mantissa_bits).unwrap_or(outer_prec);
                let acc_unit = ops::flop_unit(acc_bits);
                let (mut i, mut acc_v) = (i0, acc0);
                // the temporary's last stored value, once an iteration
                // has reached its declaration
                let mut tmp_v: Option<f64> = None;
                // an accounting failure, with the precision context of the
                // window it fell in (`None`: between windows)
                let fail: Option<(IrError, Option<u8>)> = {
                    let mut items: [&[Value]; 3] = [&[]; 3];
                    for (k, &slot) in arrs.iter().enumerate() {
                        let Value::Array(arr) = &frame[slot as usize] else {
                            return Ok(None);
                        };
                        if !all_floats(arr, lo, hi) {
                            return Ok(None);
                        }
                        items[k] = arr.as_slice();
                    }
                    let [a, b, c] = items;
                    let between = |e| (e, None);
                    let in_decl = |e| (e, Some(eff_bits));
                    let in_acc = |e| (e, Some(acc_bits));
                    let mut body = || -> Result<(), (IrError, Option<u8>)> {
                        loop {
                            // head condition (always Int < Int here)
                            stats.charge(c_int).map_err(between)?;
                            if i >= bound {
                                return Ok(());
                            }
                            stats.charge(t.tick_cost).map_err(between)?;
                            stats.mem_ops = stats.mem_ops.saturating_add(u64::from(t.tick_mem));
                            stats.loop_iters = stats.loop_iters.saturating_add(1);
                            if stats.cost > budget {
                                return Err((IrError::BudgetExceeded { limit: budget }, None));
                            }
                            // the declaration's window: two products, a sum
                            stats.charge(c_fmul).map_err(in_decl)?;
                            stats.count_flops(1, unit);
                            let x = felem(a, i) * felem(b, i);
                            stats.charge(c_fmul).map_err(in_decl)?;
                            stats.count_flops(1, unit);
                            let y = s * felem(c, i);
                            stats.charge(c_fop).map_err(in_decl)?;
                            stats.count_flops(1, unit);
                            let tv = tmp_ty.quantize(x + y);
                            tmp_v = Some(tv);
                            // the mid-body meter and budget checkpoint
                            stats.charge(t.meter_cost).map_err(between)?;
                            stats.mem_ops = stats.mem_ops.saturating_add(u64::from(t.meter_mem));
                            if stats.cost > budget {
                                return Err((IrError::BudgetExceeded { limit: budget }, None));
                            }
                            // the accumulation's window
                            stats.charge(c_fmul).map_err(in_acc)?;
                            stats.count_flops(1, acc_unit);
                            let sq = tv * tv;
                            stats.charge(c_fop).map_err(in_acc)?;
                            stats.count_flops(1, acc_unit);
                            acc_v = quantize_opt(acc_ty, acc_v + sq);
                            // the step's add; no meter on this back edge
                            stats.charge(c_int).map_err(between)?;
                            i = i.wrapping_add(t.step);
                        }
                    };
                    body().err()
                };
                frame[t.ctr as usize] = Value::Int(i);
                frame[acc_slot] = Value::Float(acc_v);
                if let Some(tv) = tmp_v {
                    types[tmp_slot] = Some(tmp_ty);
                    frame[tmp_slot] = Value::Float(tv);
                }
                if let Some((e, window)) = fail {
                    if let Some(bits) = window {
                        self.prec_stack.push(outer_prec);
                        self.set_prec(bits);
                    }
                    return Err(e);
                }
                Ok(Some(t.exit))
            }
        }
    }
}

/// Resolves an operand to a borrowed value: a temporary directly, a named
/// slot with the unresolved-variable check, or a pool constant.
#[inline]
fn read_opnd<'a>(frame: &'a [Value], chunk: &'a Chunk, o: u16) -> Result<&'a Value, IrError> {
    let idx = (o & IDX_MASK) as usize;
    match o & TAG_MASK {
        0 => Ok(&frame[idx]),
        TAG_SLOT => match &frame[idx] {
            Value::Unit => Err(IrError::Unresolved(chunk.slot_names[idx].clone())),
            value => Ok(value),
        },
        _ => Ok(&chunk.consts[idx]),
    }
}

/// Resolves an operand to an owned value; temporaries are moved out (each
/// is consumed exactly once), slots and constants are cloned.
#[inline]
fn take_opnd(frame: &mut [Value], chunk: &Chunk, o: u16) -> Result<Value, IrError> {
    let idx = (o & IDX_MASK) as usize;
    match o & TAG_MASK {
        0 => Ok(std::mem::replace(&mut frame[idx], Value::Unit)),
        TAG_SLOT => match &frame[idx] {
            Value::Unit => Err(IrError::Unresolved(chunk.slot_names[idx].clone())),
            value => Ok(value.clone()),
        },
        _ => Ok(chunk.consts[idx].clone()),
    }
}

/// `StoreVar`: resolve the source, require the destination bound, coerce
/// per its dynamic type binding, store.
#[inline]
fn store_var(
    frame: &mut [Value],
    types: &[Option<Type>],
    chunk: &Chunk,
    src: u16,
    slot: u16,
) -> Result<(), IrError> {
    let value = take_opnd(frame, chunk, src)?;
    store_var_value(frame, types, chunk, slot, value)
}

/// `StoreVar` with an already-resolved source value.
#[inline]
fn store_var_value(
    frame: &mut [Value],
    types: &[Option<Type>],
    chunk: &Chunk,
    slot: u16,
    value: Value,
) -> Result<(), IrError> {
    let slot = slot as usize;
    if matches!(frame[slot], Value::Unit) {
        return Err(IrError::Unresolved(chunk.slot_names[slot].clone()));
    }
    let coerced = match types[slot] {
        Some(ty) => coerce_scalar_or_array(value, ty)?,
        None => value,
    };
    store_slot(frame, types, slot, coerced);
    Ok(())
}

/// Indexed read out of a named array slot, with the interpreter's exact
/// error vocabulary (unresolved → not-an-array → negative → out-of-bounds).
#[inline]
fn load_index(frame: &[Value], chunk: &Chunk, arr: u16, idx: i64) -> Result<Value, IrError> {
    let slot = arr as usize;
    let name = &chunk.slot_names[slot];
    let array = match &frame[slot] {
        Value::Unit => return Err(IrError::Unresolved(name.clone())),
        value => value,
    };
    let Value::Array(items) = array else {
        return Err(IrError::Type(format!("`{name}` is not an array")));
    };
    let len = items.len();
    items
        .get(
            usize::try_from(idx)
                .map_err(|_| IrError::Eval(format!("negative index {idx} into `{name}`")))?,
        )
        .cloned()
        .ok_or_else(|| {
            IrError::Eval(format!(
                "index {idx} out of bounds for `{name}` (len {len})"
            ))
        })
}

/// Indexed write into a named array slot, quantizing float elements per
/// the slot's declared element type.
#[inline]
fn store_index(
    frame: &mut [Value],
    types: &[Option<Type>],
    chunk: &Chunk,
    slot: u16,
    idx: i64,
    mut value: Value,
) -> Result<(), IrError> {
    let slot = slot as usize;
    let elem_ty = types[slot];
    let name = &chunk.slot_names[slot];
    let array = match &mut frame[slot] {
        Value::Unit => return Err(IrError::Unresolved(name.clone())),
        value => value,
    };
    let Value::Array(items) = array else {
        return Err(IrError::Type(format!("`{name}` is not an array")));
    };
    let len = items.len();
    let cell = items
        .get_mut(
            usize::try_from(idx)
                .map_err(|_| IrError::Eval(format!("negative index {idx} into `{name}`")))?,
        )
        .ok_or_else(|| {
            IrError::Eval(format!(
                "index {idx} out of bounds for `{name}` (len {len})"
            ))
        })?;
    if let (Some(ty), Value::Float(v)) = (elem_ty, &value) {
        value = Value::Float(ty.quantize(*v));
    }
    *cell = value;
    Ok(())
}

/// Trace validation: every element of `items[lo..=hi]` exists and is a
/// `Float`. A strided trace reads a subset of this range, so the check is
/// conservative (a non-float in a skipped element only costs the trace).
fn all_floats(items: &[Value], lo: i64, hi: i64) -> bool {
    if lo < 0 || hi >= items.len() as i64 {
        return false;
    }
    items[lo as usize..=hi as usize]
        .iter()
        .all(|v| matches!(v, Value::Float(_)))
}

/// Trace body: an element access whose bounds and kind were proven by
/// entry validation.
#[inline]
fn felem(items: &[Value], idx: i64) -> f64 {
    match items[idx as usize] {
        Value::Float(v) => v,
        _ => unreachable!("trace entry validation proved a float element"),
    }
}

/// Trace body: a stencil tap read, observing in-flight stores when the
/// tap aliases the (taken-out) output array.
#[inline]
fn tap_read(frame: &[Value], out_slot: usize, out_vec: &[Value], slot: u16, idx: i64) -> f64 {
    let items = if slot as usize == out_slot {
        out_vec
    } else {
        match &frame[slot as usize] {
            Value::Array(items) => items,
            _ => unreachable!("trace entry validation proved an array"),
        }
    };
    felem(items, idx)
}

/// The store-side quantization of [`store_slot`]/[`store_index`] on a raw
/// `f64` (identity when the binding is absent or full-width).
#[inline]
fn quantize_opt(ty: Option<Type>, v: f64) -> f64 {
    match ty {
        Some(ty) => ty.quantize(v),
        None => v,
    }
}

/// Stores into a slot, quantizing floats per the slot's dynamic type
/// binding (mirrors the interpreter's `Frame::store`).
fn store_slot(frame: &mut [Value], types: &[Option<Type>], slot: usize, mut value: Value) {
    if let (Some(ty), Value::Float(v)) = (types[slot], &value) {
        value = Value::Float(ty.quantize(*v));
    }
    frame[slot] = value;
}

#[cfg(test)]
mod tests {
    use super::*;
    use antarex_ir::cost::ExecStats;
    use antarex_ir::interp::Interp;
    use antarex_ir::parse_program;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn run_both(src: &str, f: &str, args: &[Value]) -> ((Value, ExecStats), (Value, ExecStats)) {
        let program = parse_program(src).unwrap();
        let mut interp = Interp::new(program.clone());
        let mut ienv = ExecEnv::new();
        let iout = interp.call(f, args, &mut ienv).unwrap();
        let mut vm = Vm::new(program);
        let mut venv = ExecEnv::new();
        let vout = vm.call(f, args, &mut venv).unwrap();
        ((iout, ienv.stats), (vout, venv.stats))
    }

    fn assert_identical(src: &str, f: &str, args: &[Value]) {
        let ((iout, istats), (vout, vstats)) = run_both(src, f, args);
        assert_eq!(iout, vout, "values differ for {f}");
        assert_eq!(istats.cost, vstats.cost, "cost differs for {f}");
        assert_eq!(istats.flops, vstats.flops, "flops differ for {f}");
        assert_eq!(
            istats.flop_energy.to_bits(),
            vstats.flop_energy.to_bits(),
            "flop_energy differs for {f}"
        );
        assert_eq!(istats.mem_ops, vstats.mem_ops, "mem_ops differ for {f}");
        assert_eq!(
            istats.loop_iters, vstats.loop_iters,
            "loop_iters differ for {f}"
        );
        assert_eq!(istats.calls, vstats.calls, "calls differ for {f}");
        assert_eq!(
            istats.host_calls, vstats.host_calls,
            "host_calls differ for {f}"
        );
    }

    #[test]
    fn recursion_matches_interp() {
        assert_identical(
            "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }",
            "fib",
            &[Value::Int(12)],
        );
    }

    #[test]
    fn dot_product_matches_interp() {
        assert_identical(
            "double dot(double a[], double b[], int n) {
                 double s = 0.0;
                 for (int i = 0; i < n; i++) { s += a[i] * b[i]; }
                 return s;
             }",
            "dot",
            &[
                Value::from(vec![1.5, 2.0, -3.25, 4.0]),
                Value::from(vec![0.5, 1.0, 2.0, -1.0]),
                Value::Int(4),
            ],
        );
    }

    #[test]
    fn short_circuit_and_builtins_match_interp() {
        assert_identical(
            "double f(double x, int n) {
                 double acc = 0.0;
                 for (int i = 0; i < n; i++) {
                     if (i % 2 == 0 && x > 0.0 || i == 3) { acc += sqrt(x) + pow(x, 2.0); }
                     else { acc -= fmin(x, 1.0); }
                 }
                 return fabs(acc);
             }",
            "f",
            &[Value::Float(2.25), Value::Int(7)],
        );
    }

    #[test]
    fn reduced_precision_matches_interp() {
        assert_identical(
            "double f(double a[], int n) {
                 float4 s = 0.0;
                 for (int i = 0; i < n; i++) { s += a[i] * 1.0625; }
                 return s;
             }",
            "f",
            &[Value::from(vec![1.03125, 2.0, 4.125]), Value::Int(3)],
        );
    }

    #[test]
    fn array_copy_out_matches_interp() {
        assert_identical(
            "void fill(double a[], int n) { for (int i = 0; i < n; i++) { a[i] = i * 2.0; } }
             double use() { double buf[4]; fill(buf, 4); return buf[3] + buf[0]; }",
            "use",
            &[],
        );
    }

    #[test]
    fn while_and_modulo_match_interp() {
        assert_identical(
            "int gcd(int a, int b) { while (b != 0) { int t = a % b; a = b; b = t; } return a; }",
            "gcd",
            &[Value::Int(1071), Value::Int(462)],
        );
    }

    #[test]
    fn budget_stops_infinite_loop() {
        let program = parse_program("void f() { while (1) { } }").unwrap();
        let mut vm = Vm::new(program);
        vm.set_budget(Some(10_000));
        let err = vm.call("f", &[], &mut ExecEnv::new()).unwrap_err();
        assert!(matches!(err, IrError::BudgetExceeded { .. }));
    }

    #[test]
    fn budget_error_is_identical_to_interp() {
        let src =
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i * i; } return s; }";
        let program = parse_program(src).unwrap();
        let mut interp = Interp::new(program.clone());
        interp.set_budget(Some(500));
        let ierr = interp
            .call("f", &[Value::Int(1000)], &mut ExecEnv::new())
            .unwrap_err();
        let mut vm = Vm::new(program);
        vm.set_budget(Some(500));
        let verr = vm
            .call("f", &[Value::Int(1000)], &mut ExecEnv::new())
            .unwrap_err();
        assert_eq!(ierr, verr);
    }

    #[test]
    fn host_call_trace_is_identical() {
        let src =
            "void probe(int n) { for (int i = 0; i < n; i++) { record(\"iter\", i, i * i); } }";
        let program = parse_program(src).unwrap();
        let recorder = || {
            let collected = Rc::new(RefCell::new(Vec::new()));
            let sink = Rc::clone(&collected);
            let host: HostFn = Box::new(move |args: &[Value]| {
                sink.borrow_mut().push(args.to_vec());
                Ok(Value::Unit)
            });
            (collected, host)
        };
        let interp_trace = {
            let (collected, host) = recorder();
            let mut interp = Interp::new(program.clone());
            interp.register_host("record", host);
            interp
                .call("probe", &[Value::Int(4)], &mut ExecEnv::new())
                .unwrap();
            collected.take()
        };
        let vm_trace = {
            let (collected, host) = recorder();
            let mut vm = Vm::new(program);
            vm.register_host("record", host);
            vm.call("probe", &[Value::Int(4)], &mut ExecEnv::new())
                .unwrap();
            collected.take()
        };
        assert_eq!(interp_trace, vm_trace);
        assert_eq!(interp_trace.len(), 4);
    }

    #[test]
    fn dispatcher_redirects_and_invalidates_memo() {
        struct Redirect;
        impl Dispatcher for Redirect {
            fn resolve(
                &mut self,
                callee: &str,
                args: &[Value],
                program: &mut Program,
            ) -> Result<Option<String>, IrError> {
                if callee == "kernel" && args == [Value::Int(2)] {
                    if !program.contains("kernel_2") {
                        let specialized =
                            parse_program("int kernel_2(int x) { return 222; }").unwrap();
                        program.insert((**specialized.function("kernel_2").unwrap()).clone());
                    }
                    return Ok(Some("kernel_2".into()));
                }
                Ok(None)
            }
        }
        let program =
            parse_program("int kernel(int x) { return x; } int f(int x) { return kernel(x); }")
                .unwrap();
        let mut vm = Vm::new(program);
        vm.set_dispatcher(Box::new(Redirect));
        let mut env = ExecEnv::new();
        assert_eq!(
            vm.call("f", &[Value::Int(1)], &mut env).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            vm.call("f", &[Value::Int(2)], &mut env).unwrap(),
            Value::Int(222)
        );
        assert!(vm.program().contains("kernel_2"));
    }

    #[test]
    fn runaway_recursion_is_caught() {
        let program = parse_program("int f(int x) { return f(x + 1); }").unwrap();
        let mut vm = Vm::new(program);
        vm.set_budget(None);
        let err = vm
            .call("f", &[Value::Int(0)], &mut ExecEnv::new())
            .unwrap_err();
        assert!(err.to_string().contains("call depth"), "{err}");
        // the VM remains usable afterwards
        vm.program = parse_program("int g() { return 7; }").unwrap();
        assert_eq!(
            vm.call("g", &[], &mut ExecEnv::new()).unwrap(),
            Value::Int(7)
        );
    }

    #[test]
    fn program_edit_invalidates_the_memo() {
        let program = parse_program("int f() { return 1; }").unwrap();
        let mut vm = Vm::new(program);
        assert_eq!(
            vm.call("f", &[], &mut ExecEnv::new()).unwrap(),
            Value::Int(1)
        );
        vm.program = parse_program("int f() { return 2; }").unwrap();
        assert_eq!(
            vm.call("f", &[], &mut ExecEnv::new()).unwrap(),
            Value::Int(2)
        );
    }

    #[test]
    fn unknown_function_is_unresolved() {
        let program = parse_program("void f() { ghost(); }").unwrap();
        let mut vm = Vm::new(program);
        let err = vm.call("f", &[], &mut ExecEnv::new()).unwrap_err();
        assert_eq!(err, IrError::Unresolved("ghost".into()));
    }

    #[test]
    fn tenants_of_one_program_run_the_cached_chunk() {
        let cache = InstrumentedCodeCache::new();
        let src = "int f(int x) { return x * x; }";
        let mut a = Vm::with_cache(parse_program(src).unwrap(), CostModel::new(), &cache);
        let mut b = Vm::with_cache(parse_program(src).unwrap(), CostModel::new(), &cache);
        for vm in [&mut a, &mut b] {
            let out = vm.call("f", &[Value::Int(6)], &mut ExecEnv::new());
            assert_eq!(out, Ok(Value::Int(36)));
        }
        let compiled = cache.instrument(&parse_program(src).unwrap(), &CostModel::new());
        let cached = compiled.get("f").expect("f lowered");
        for vm in [&a, &b] {
            let seeded = vm.compiled.as_ref().and_then(|c| c.get("f"));
            assert!(seeded.is_some_and(|chunk| Arc::ptr_eq(chunk, cached)));
            assert!(vm.memo.is_empty(), "nothing lowered outside the cache");
        }
        // the cache holds the register code the dispatch loop runs
        assert!(matches!(cached.code.last(), Some(RInstr::RetUnit)));
        assert!(cached.frame_size > cached.num_slots());
        assert_eq!((cache.misses(), cache.hits()), (1, 2));
    }

    #[test]
    fn a_dispatcher_on_a_cached_vm_keeps_the_cached_chunks() {
        struct Swap;
        impl Dispatcher for Swap {
            fn resolve(
                &mut self,
                callee: &str,
                args: &[Value],
                program: &mut Program,
            ) -> Result<Option<String>, IrError> {
                if callee == "g" && args == [Value::Int(2)] {
                    let edited = parse_program("int g(int x) { return 100 + x; }").unwrap();
                    program.insert((**edited.function("g").unwrap()).clone());
                }
                Ok(None)
            }
        }
        let cache = InstrumentedCodeCache::new();
        let src = "int g(int x) { return x; } int f(int x) { return g(x) * 2; }";
        let mut vm = Vm::with_cache(parse_program(src).unwrap(), CostModel::new(), &cache);
        vm.set_dispatcher(Box::new(Swap));
        let compiled = cache.instrument(&parse_program(src).unwrap(), &CostModel::new());
        for name in ["f", "g"] {
            assert!(Arc::ptr_eq(&vm.memo[name].1, compiled.get(name).unwrap()));
        }
        let mut env = ExecEnv::new();
        assert_eq!(vm.call("f", &[Value::Int(1)], &mut env), Ok(Value::Int(2)));
        // the edit replaces `g`'s `Arc`: its cached chunk is stale
        assert_eq!(
            vm.call("f", &[Value::Int(2)], &mut env),
            Ok(Value::Int(204))
        );
        assert!(Arc::ptr_eq(&vm.memo["f"].1, compiled.get("f").unwrap()));
    }

    /// A traced chunk and the same chunk with every trace head restored
    /// to the loop condition it replaced (the generic register tier).
    fn traced_and_generic(function: &Function, model: &CostModel) -> (Chunk, Chunk) {
        let traced = lower_function(function, model).unwrap();
        let mut generic = traced.clone();
        for instr in &mut generic.code {
            if let RInstr::TraceHead { trace } = *instr {
                let t = generic.traces[trace as usize];
                *instr = RInstr::BinJumpIfFalsy {
                    op: BinOp::Lt,
                    l: t.cond_l,
                    r: t.cond_r,
                    target: t.exit,
                };
            }
        }
        generic.traces.clear();
        (traced, generic)
    }

    #[test]
    fn the_fma_trace_replays_the_generic_tier_at_every_failure_point() {
        for ty in ["double", "float12"] {
            // the serving tier's probe kernel at two precision rungs
            let src = format!(
                "{ty} kernel({ty} a[], {ty} b[], int n) {{
                     {ty} acc = 0.0;
                     {ty} scale = 0.5;
                     for (int i = 0; i < n; i++) {{
                         {ty} t = a[i] * b[i] + scale * a[i];
                         acc += t * t;
                     }}
                     return acc;
                 }}"
            );
            let program = parse_program(&src).unwrap();
            let function = Arc::clone(program.function("kernel").unwrap());
            let ramp =
                |k: f64| Value::from((0..16).map(|i| i as f64 * k - 1.0).collect::<Vec<_>>());
            let args = [ramp(0.125), ramp(-0.0625), Value::Int(16)];
            let compare = |model: CostModel, budget: Option<u64>| {
                let (traced, generic) = traced_and_generic(&function, &model);
                assert_eq!(traced.traces.len(), 1, "{ty}");
                let run = |chunk: Chunk| {
                    let mut vm = Vm::new(program.clone()).with_cost_model(model.clone());
                    vm.memo
                        .insert("kernel".into(), (Arc::clone(&function), Arc::new(chunk)));
                    vm.set_budget(budget);
                    let mut env = ExecEnv::new();
                    let out = vm.call("kernel", &args, &mut env);
                    let s = env.stats;
                    let stats = (s.cost, s.flops, s.flop_energy.to_bits(), s.mem_ops);
                    (out, stats, s.loop_iters, vm.prec_ctx, vm.prec_stack)
                };
                let context = format!("{ty}, budget {budget:?}, {model:?}");
                assert_eq!(run(traced), run(generic), "{context}");
            };
            // every budget from the call entry to past the loop's end
            // exhausts at each checkpoint in turn (the loop tick, the
            // mid-body meter check), then succeeds
            for budget in 0..=700 {
                compare(CostModel::new(), Some(budget));
            }
            // an operation that overflows the cost counter on its k-th
            // charge fails inside the declaration's precision window, the
            // accumulation's, or between them (the loop's int charges)
            let huge: [fn(&mut CostModel, u64); 3] = [
                |m, c| m.float_mul = c,
                |m, c| m.float_op = c,
                |m, c| m.int_op = c,
            ];
            for (bump, k) in huge.iter().flat_map(|b| (4..16).map(move |k| (b, k))) {
                let mut model = CostModel::new();
                bump(&mut model, u64::MAX / k);
                compare(model, None);
            }
        }
    }

    #[test]
    fn a_function_too_large_to_encode_is_an_error_not_a_panic() {
        // 16,400 locals leave no operand index for an expression temporary
        let mut src = String::from("int f() {");
        for i in 0..16_400 {
            src.push_str(&format!(" int v{i} = {};", i % 7));
        }
        src.push_str(" return v0 + v16399; }");
        let program = parse_program(&src).unwrap();
        let expected = Err(IrError::Eval(
            "function too large for register encoding".into(),
        ));

        let mut interp = Interp::new(program.clone());
        let out = interp.call("f", &[], &mut ExecEnv::new());
        assert_eq!(out, Ok(Value::Int(5)));

        let mut vm = Vm::new(program.clone());
        assert_eq!(vm.call("f", &[], &mut ExecEnv::new()), expected);

        let cache = InstrumentedCodeCache::new();
        let compiled = cache.instrument(&program, &CostModel::new());
        assert!(
            compiled.get("f").is_none(),
            "the failed function is left out"
        );
        let mut vm = Vm::with_cache(program, CostModel::new(), &cache);
        assert_eq!(vm.call("f", &[], &mut ExecEnv::new()), expected);
    }
}
