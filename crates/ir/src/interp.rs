//! Cost-accounting interpreter for mini-C programs.
//!
//! The interpreter makes woven programs *runnable*: instrumentation inserted
//! by the weaver executes as host calls, unrolled loops demonstrably shed
//! loop-control cost, and specialized function versions can be added *while
//! the program runs* through the [`Dispatcher`] hook — the mechanism behind
//! the paper's dynamic weaving and split-compilation story (Fig. 4).
//!
//! # Semantics notes
//!
//! * Arrays are copy-in/copy-out: passing an array variable to a function
//!   and mutating the parameter writes back to the caller's variable on
//!   return, giving C-like by-reference behaviour for our kernels.
//! * Every store to a variable (or array) declared with a floating type is
//!   quantized to that type's mantissa width — the hook used by
//!   `antarex-precision` for customized-precision experiments.
//! * Execution accrues [`crate::cost::ExecStats`] per the
//!   configured [`crate::cost::CostModel`].

use crate::ast::{BinOp, Block, Expr, Function, LValue, Program, Stmt};
use crate::cost::{CostModel, ExecStats};
use crate::error::IrError;
use crate::ops::{self, coerce_scalar, coerce_scalar_or_array, zero_of};
use crate::types::Type;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// Host (intrinsic) function: receives evaluated arguments, returns a value.
pub type HostFn = Box<dyn FnMut(&[Value]) -> Result<Value, IrError>>;

/// Runtime call-resolution hook used for dynamic weaving.
///
/// Before any mini-C function call, the interpreter asks the dispatcher to
/// resolve the callee. The dispatcher may inspect the runtime argument
/// values, synthesize a specialized function, insert it into the program,
/// and redirect the call to it — this is how the paper's `SpecializeKernel`
/// aspect (Fig. 4) is enacted at runtime.
pub trait Dispatcher {
    /// Returns `Some(new_callee)` to redirect the call, `None` to keep it.
    ///
    /// # Errors
    ///
    /// May fail if specialization itself fails; the error aborts execution.
    fn resolve(
        &mut self,
        callee: &str,
        args: &[Value],
        program: &mut Program,
    ) -> Result<Option<String>, IrError>;
}

/// Per-run execution environment: accumulated statistics.
#[derive(Debug, Default, Clone)]
pub struct ExecEnv {
    /// Statistics accrued by calls made with this environment.
    pub stats: ExecStats,
}

impl ExecEnv {
    /// Creates a fresh environment with zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }
}

enum Flow {
    Normal,
    Return(Value),
}

struct Frame {
    locals: HashMap<String, Value>,
    types: HashMap<String, Type>,
}

impl Frame {
    fn new() -> Self {
        Frame {
            locals: HashMap::new(),
            types: HashMap::new(),
        }
    }

    fn store(&mut self, name: &str, mut value: Value) {
        if let (Some(ty), Value::Float(v)) = (self.types.get(name), &value) {
            value = Value::Float(ty.quantize(*v));
        }
        self.locals.insert(name.to_string(), value);
    }
}

/// The mini-C interpreter.
///
/// # Examples
///
/// ```
/// use antarex_ir::{parse_program, interp::{ExecEnv, Interp}, value::Value};
///
/// # fn main() -> Result<(), antarex_ir::IrError> {
/// let program = parse_program(
///     "double sumsq(double a[], int n) {
///          double s = 0.0;
///          for (int i = 0; i < n; i++) { s += a[i] * a[i]; }
///          return s;
///      }",
/// )?;
/// let mut interp = Interp::new(program);
/// let mut env = ExecEnv::new();
/// let out = interp.call(
///     "sumsq",
///     &[Value::from(vec![1.0, 2.0, 3.0]), Value::Int(3)],
///     &mut env,
/// )?;
/// assert_eq!(out, Value::Float(14.0));
/// assert!(env.stats.flops >= 6);
/// # Ok(())
/// # }
/// ```
pub struct Interp {
    program: Program,
    cost_model: CostModel,
    budget: Option<u64>,
    hosts: HashMap<String, HostFn>,
    dispatcher: Option<Box<dyn Dispatcher>>,
    /// Mantissa width of the destination currently being computed; flops
    /// accrue `(prec_ctx / 52)²` energy (see
    /// [`ExecStats::flop_energy`](crate::cost::ExecStats)).
    prec_ctx: u8,
    /// Current mini-C call depth (guards the host stack against runaway
    /// recursion).
    depth: u32,
}

/// Maximum mini-C call depth before execution aborts.
pub const MAX_CALL_DEPTH: u32 = 64;

impl std::fmt::Debug for Interp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interp")
            .field("functions", &self.program.function_names())
            .field("hosts", &self.hosts.keys().collect::<Vec<_>>())
            .field("budget", &self.budget)
            .finish_non_exhaustive()
    }
}

impl Interp {
    /// Creates an interpreter for `program` with the default cost model.
    pub fn new(program: Program) -> Self {
        Interp {
            program,
            cost_model: CostModel::new(),
            budget: Some(200_000_000),
            hosts: HashMap::new(),
            dispatcher: None,
            prec_ctx: 52,
            depth: 0,
        }
    }

    /// Evaluates `expr` with the precision context set to the mantissa
    /// width of the destination type (if a float type), restoring the
    /// previous context afterwards.
    fn eval_for_store(
        &mut self,
        expr: &Expr,
        ty: Option<Type>,
        frame: &mut Frame,
        env: &mut ExecEnv,
    ) -> Result<Value, IrError> {
        let saved = self.prec_ctx;
        if let Some(bits) = ty.and_then(Type::mantissa_bits) {
            self.prec_ctx = bits;
        }
        let result = self.eval(expr, frame, env);
        self.prec_ctx = saved;
        result
    }

    /// Sets (or clears) the execution budget in cost units. The default is
    /// 2·10⁸ units, which stops runaway loops in tests.
    pub fn set_budget(&mut self, budget: Option<u64>) {
        self.budget = budget;
    }

    /// Registers a host (intrinsic) function callable from mini-C code.
    /// Returns the previously registered function for the name, if any.
    pub fn register_host(&mut self, name: impl Into<String>, f: HostFn) -> Option<HostFn> {
        self.hosts.insert(name.into(), f)
    }

    /// Installs the dynamic-weaving dispatcher.
    pub fn set_dispatcher(&mut self, dispatcher: Box<dyn Dispatcher>) {
        self.dispatcher = Some(dispatcher);
    }

    /// Removes the dispatcher, returning it.
    pub fn take_dispatcher(&mut self) -> Option<Box<dyn Dispatcher>> {
        self.dispatcher.take()
    }

    /// The program being interpreted (it may grow under dynamic weaving).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Mutable access to the program (design-time edits between runs).
    pub fn program_mut(&mut self) -> &mut Program {
        &mut self.program
    }

    /// Calls a function by name with the given arguments.
    ///
    /// Statistics accrue into `env.stats` (across multiple calls, if the
    /// same environment is reused).
    ///
    /// # Errors
    ///
    /// * [`IrError::Unresolved`] — unknown function.
    /// * [`IrError::Type`] / [`IrError::Eval`] — dynamic errors.
    /// * [`IrError::BudgetExceeded`] — the work budget was exhausted.
    pub fn call(
        &mut self,
        name: &str,
        args: &[Value],
        env: &mut ExecEnv,
    ) -> Result<Value, IrError> {
        let (value, _) = self.call_with_writeback(name, args.to_vec(), env)?;
        Ok(value)
    }

    /// As [`Interp::call`], but also returns the final values of array
    /// parameters (copy-out), in parameter order.
    fn call_with_writeback(
        &mut self,
        name: &str,
        args: Vec<Value>,
        env: &mut ExecEnv,
    ) -> Result<(Value, Vec<(usize, Value)>), IrError> {
        // Dynamic-weaving hook: the dispatcher may redirect and/or extend
        // the program with specialized versions.
        let resolved = if let Some(dispatcher) = self.dispatcher.as_mut() {
            dispatcher
                .resolve(name, &args, &mut self.program)?
                .unwrap_or_else(|| name.to_string())
        } else {
            name.to_string()
        };

        if let Some(function) = self.program.function(&resolved) {
            let function = Arc::clone(function);
            return self.exec_function(&function, args, env);
        }
        if let Some(value) = self.try_builtin(&resolved, &args, env)? {
            return Ok((value, vec![]));
        }
        if self.hosts.contains_key(&resolved) {
            env.stats.charge(self.cost_model.host_call)?;
            env.stats.host_calls = env.stats.host_calls.saturating_add(1);
            let host = self.hosts.get_mut(&resolved).expect("checked above");
            let value = host(&args)?;
            return Ok((value, vec![]));
        }
        Err(IrError::Unresolved(resolved))
    }

    /// Built-in math intrinsics (`sqrt`, `exp`, `log`, `fabs`, `fmin`,
    /// `fmax`, `pow`), evaluated natively with FP cost accounting. User
    /// programs and host registrations take precedence over builtins.
    /// The implementation lives in [`crate::ops::try_builtin`], shared
    /// with the bytecode VM.
    fn try_builtin(
        &mut self,
        name: &str,
        args: &[Value],
        env: &mut ExecEnv,
    ) -> Result<Option<Value>, IrError> {
        ops::try_builtin(name, args, &self.cost_model, self.prec_ctx, &mut env.stats)
    }

    fn exec_function(
        &mut self,
        function: &Function,
        args: Vec<Value>,
        env: &mut ExecEnv,
    ) -> Result<(Value, Vec<(usize, Value)>), IrError> {
        if args.len() != function.params.len() {
            return Err(IrError::Type(format!(
                "function `{}` expects {} arguments, got {}",
                function.name,
                function.params.len(),
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
                function.name
            )));
        }

        let mut frame = Frame::new();
        for (param, arg) in function.params.iter().zip(args) {
            frame.types.insert(param.name.clone(), param.ty);
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
                        frame.locals.insert(param.name.clone(), Value::Array(items));
                    }
                    other => {
                        return Err(IrError::Type(format!(
                            "parameter `{}` of `{}` expects an array, got {other}",
                            param.name, function.name
                        )))
                    }
                }
            } else {
                frame.store(&param.name, coerce_scalar(arg, param.ty)?);
            }
        }

        let flow = self.exec_block(&function.body, &mut frame, env);
        self.depth -= 1;
        let flow = flow?;
        let mut result = match flow {
            Flow::Return(value) => value,
            Flow::Normal => Value::Unit,
        };
        if let (Some(ty), Value::Float(v)) = (function.ret, &result) {
            result = Value::Float(ty.quantize(*v));
        }
        // copy-out array parameters
        let mut writeback = Vec::new();
        for (i, param) in function.params.iter().enumerate() {
            if param.is_array {
                if let Some(value) = frame.locals.remove(&param.name) {
                    writeback.push((i, value));
                }
            }
        }
        Ok((result, writeback))
    }

    fn check_budget(&self, env: &ExecEnv) -> Result<(), IrError> {
        if let Some(limit) = self.budget {
            if env.stats.cost > limit {
                return Err(IrError::BudgetExceeded { limit });
            }
        }
        Ok(())
    }

    fn exec_block(
        &mut self,
        block: &Block,
        frame: &mut Frame,
        env: &mut ExecEnv,
    ) -> Result<Flow, IrError> {
        for stmt in block {
            match self.exec_stmt(stmt, frame, env)? {
                Flow::Normal => {}
                ret @ Flow::Return(_) => return Ok(ret),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(
        &mut self,
        stmt: &Stmt,
        frame: &mut Frame,
        env: &mut ExecEnv,
    ) -> Result<Flow, IrError> {
        self.check_budget(env)?;
        match stmt {
            Stmt::Decl { name, ty, init } => {
                frame.types.insert(name.clone(), *ty);
                let value = match init {
                    Some(init) => {
                        let v = self.eval_for_store(init, Some(*ty), frame, env)?;
                        coerce_scalar(v, *ty)?
                    }
                    None => zero_of(*ty),
                };
                frame.store(name, value);
            }
            Stmt::ArrayDecl { name, ty, size } => {
                frame.types.insert(name.clone(), *ty);
                frame
                    .locals
                    .insert(name.clone(), Value::Array(vec![zero_of(*ty); *size]));
            }
            Stmt::Assign { target, value } => {
                let dest_ty = frame.types.get(target.name()).copied();
                let value = self.eval_for_store(value, dest_ty, frame, env)?;
                match target {
                    LValue::Var(name) => {
                        if !frame.locals.contains_key(name) {
                            return Err(IrError::Unresolved(name.clone()));
                        }
                        let coerced = match frame.types.get(name) {
                            Some(ty) => coerce_scalar_or_array(value, *ty)?,
                            None => value,
                        };
                        frame.store(name, coerced);
                        env.stats.charge(self.cost_model.reg_op)?;
                    }
                    LValue::Index(name, index) => {
                        let idx = self
                            .eval(index, frame, env)?
                            .as_i64()
                            .ok_or_else(|| IrError::Type("array index must be numeric".into()))?;
                        let elem_ty = frame.types.get(name).copied();
                        let array = frame
                            .locals
                            .get_mut(name)
                            .ok_or_else(|| IrError::Unresolved(name.clone()))?;
                        let Value::Array(items) = array else {
                            return Err(IrError::Type(format!("`{name}` is not an array")));
                        };
                        let len = items.len();
                        let slot = items
                            .get_mut(usize::try_from(idx).map_err(|_| {
                                IrError::Eval(format!("negative index {idx} into `{name}`"))
                            })?)
                            .ok_or_else(|| {
                                IrError::Eval(format!(
                                    "index {idx} out of bounds for `{name}` (len {len})"
                                ))
                            })?;
                        let mut value = value;
                        if let (Some(ty), Value::Float(v)) = (elem_ty, &value) {
                            value = Value::Float(ty.quantize(*v));
                        }
                        *slot = value;
                        env.stats.charge(self.cost_model.mem_op)?;
                        env.stats.mem_ops = env.stats.mem_ops.saturating_add(1);
                    }
                }
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let taken = self.eval(cond, frame, env)?.truthy();
                if taken {
                    return self.exec_block(then_branch, frame, env);
                } else if let Some(else_branch) = else_branch {
                    return self.exec_block(else_branch, frame, env);
                }
            }
            Stmt::For {
                var,
                init,
                cond,
                step,
                body,
            } => {
                let start = self.eval(init, frame, env)?;
                frame.types.insert(var.clone(), Type::Int);
                frame.store(var, coerce_scalar(start, Type::Int)?);
                loop {
                    if !self.eval(cond, frame, env)?.truthy() {
                        break;
                    }
                    env.stats.charge(self.cost_model.loop_overhead)?;
                    env.stats.loop_iters = env.stats.loop_iters.saturating_add(1);
                    self.check_budget(env)?;
                    match self.exec_block(body, frame, env)? {
                        Flow::Normal => {}
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                    let next = self.eval(step, frame, env)?;
                    frame.store(var, coerce_scalar(next, Type::Int)?);
                }
            }
            Stmt::While { cond, body } => loop {
                if !self.eval(cond, frame, env)?.truthy() {
                    break;
                }
                env.stats.charge(self.cost_model.loop_overhead)?;
                env.stats.loop_iters = env.stats.loop_iters.saturating_add(1);
                self.check_budget(env)?;
                match self.exec_block(body, frame, env)? {
                    Flow::Normal => {}
                    ret @ Flow::Return(_) => return Ok(ret),
                }
            },
            Stmt::Return(value) => {
                let value = match value {
                    Some(value) => self.eval(value, frame, env)?,
                    None => Value::Unit,
                };
                return Ok(Flow::Return(value));
            }
            Stmt::ExprStmt(expr) => {
                self.eval(expr, frame, env)?;
            }
        }
        Ok(Flow::Normal)
    }

    fn eval(
        &mut self,
        expr: &Expr,
        frame: &mut Frame,
        env: &mut ExecEnv,
    ) -> Result<Value, IrError> {
        match expr {
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Float(v) => Ok(Value::Float(*v)),
            Expr::Str(s) => Ok(Value::Str(s.clone())),
            Expr::Var(name) => {
                env.stats.charge(self.cost_model.reg_op)?;
                frame
                    .locals
                    .get(name)
                    .cloned()
                    .ok_or_else(|| IrError::Unresolved(name.clone()))
            }
            Expr::Index(name, index) => {
                let idx = self
                    .eval(index, frame, env)?
                    .as_i64()
                    .ok_or_else(|| IrError::Type("array index must be numeric".into()))?;
                env.stats.charge(self.cost_model.mem_op)?;
                env.stats.mem_ops = env.stats.mem_ops.saturating_add(1);
                let array = frame
                    .locals
                    .get(name)
                    .ok_or_else(|| IrError::Unresolved(name.clone()))?;
                let Value::Array(items) = array else {
                    return Err(IrError::Type(format!("`{name}` is not an array")));
                };
                let len = items.len();
                items
                    .get(usize::try_from(idx).map_err(|_| {
                        IrError::Eval(format!("negative index {idx} into `{name}`"))
                    })?)
                    .cloned()
                    .ok_or_else(|| {
                        IrError::Eval(format!(
                            "index {idx} out of bounds for `{name}` (len {len})"
                        ))
                    })
            }
            Expr::Unary(op, inner) => {
                let value = self.eval(inner, frame, env)?;
                ops::apply_unary(*op, value, &self.cost_model, self.prec_ctx, &mut env.stats)
            }
            Expr::Binary(op, lhs, rhs) => {
                // short-circuit logical operators
                if *op == BinOp::And {
                    let l = self.eval(lhs, frame, env)?;
                    env.stats.charge(self.cost_model.int_op)?;
                    if !l.truthy() {
                        return Ok(Value::Int(0));
                    }
                    let r = self.eval(rhs, frame, env)?;
                    return Ok(Value::Int(i64::from(r.truthy())));
                }
                if *op == BinOp::Or {
                    let l = self.eval(lhs, frame, env)?;
                    env.stats.charge(self.cost_model.int_op)?;
                    if l.truthy() {
                        return Ok(Value::Int(1));
                    }
                    let r = self.eval(rhs, frame, env)?;
                    return Ok(Value::Int(i64::from(r.truthy())));
                }
                let l = self.eval(lhs, frame, env)?;
                let r = self.eval(rhs, frame, env)?;
                ops::apply_binary(*op, l, r, &self.cost_model, self.prec_ctx, &mut env.stats)
            }
            Expr::Call(name, args) => {
                let mut evaluated = Vec::with_capacity(args.len());
                for arg in args {
                    evaluated.push(self.eval(arg, frame, env)?);
                }
                let (value, writeback) = self.call_with_writeback(name, evaluated, env)?;
                // copy-out: array arguments passed as plain variables get the
                // callee's final contents back.
                for (param_idx, array) in writeback {
                    if let Some(Expr::Var(var)) = args.get(param_idx) {
                        if frame.locals.contains_key(var) {
                            frame.locals.insert(var.clone(), array);
                        }
                    }
                }
                Ok(value)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn run(src: &str, f: &str, args: &[Value]) -> (Value, ExecStats) {
        let program = parse_program(src).unwrap();
        let mut interp = Interp::new(program);
        let mut env = ExecEnv::new();
        let out = interp.call(f, args, &mut env).unwrap();
        (out, env.stats)
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let (out, _) = run(
            "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }",
            "fib",
            &[Value::Int(10)],
        );
        assert_eq!(out, Value::Int(55));
    }

    #[test]
    fn for_loop_accumulates() {
        let (out, stats) = run(
            "int sum(int n) { int s = 0; for (int i = 1; i <= n; i++) { s += i; } return s; }",
            "sum",
            &[Value::Int(100)],
        );
        assert_eq!(out, Value::Int(5050));
        assert_eq!(stats.loop_iters, 100);
    }

    #[test]
    fn while_loop_and_modulo() {
        let (out, _) = run(
            "int gcd(int a, int b) { while (b != 0) { int t = a % b; a = b; b = t; } return a; }",
            "gcd",
            &[Value::Int(48), Value::Int(36)],
        );
        assert_eq!(out, Value::Int(12));
    }

    #[test]
    fn arrays_copy_out_to_caller() {
        let (out, _) = run(
            "void fill(double a[], int n) { for (int i = 0; i < n; i++) { a[i] = i * 2.0; } }
             double use() { double buf[4]; fill(buf, 4); return buf[3]; }",
            "use",
            &[],
        );
        assert_eq!(out, Value::Float(6.0));
    }

    #[test]
    fn float_int_promotion() {
        let (out, _) = run(
            "double mix(int a, double b) { return a + b * 2; }",
            "mix",
            &[Value::Int(1), Value::Float(0.25)],
        );
        assert_eq!(out, Value::Float(1.5));
    }

    #[test]
    fn short_circuit_avoids_evaluation() {
        // g() would divide by zero; && must not evaluate it.
        let (out, _) = run(
            "int g() { return 1 / 0; }
             int f(int x) { if (x > 0 && x < 10) return 1; return 0; }",
            "f",
            &[Value::Int(-5)],
        );
        assert_eq!(out, Value::Int(0));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let program = parse_program("int f() { return 1 / 0; }").unwrap();
        let mut interp = Interp::new(program);
        let err = interp.call("f", &[], &mut ExecEnv::new()).unwrap_err();
        assert!(matches!(err, IrError::Eval(_)));
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let program = parse_program("int f() { int a[2]; return a[5]; }").unwrap();
        let mut interp = Interp::new(program);
        let err = interp.call("f", &[], &mut ExecEnv::new()).unwrap_err();
        assert!(err.to_string().contains("out of bounds"));
    }

    #[test]
    fn budget_stops_infinite_loop() {
        let program = parse_program("void f() { while (1) { } }").unwrap();
        let mut interp = Interp::new(program);
        interp.set_budget(Some(10_000));
        let err = interp.call("f", &[], &mut ExecEnv::new()).unwrap_err();
        assert!(matches!(err, IrError::BudgetExceeded { .. }));
    }

    #[test]
    fn host_functions_receive_arguments() {
        let program = parse_program("void f(int x) { record(\"f\", x, x * 2); }").unwrap();
        let mut interp = Interp::new(program);
        let seen: Rc<RefCell<Vec<Vec<Value>>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&seen);
        interp.register_host(
            "record",
            Box::new(move |args| {
                sink.borrow_mut().push(args.to_vec());
                Ok(Value::Unit)
            }),
        );
        let mut env = ExecEnv::new();
        interp.call("f", &[Value::Int(21)], &mut env).unwrap();
        let seen = seen.borrow();
        assert_eq!(seen.len(), 1);
        assert_eq!(
            seen[0],
            vec![Value::Str("f".into()), Value::Int(21), Value::Int(42)]
        );
        assert_eq!(env.stats.host_calls, 1);
    }

    #[test]
    fn unknown_function_is_unresolved() {
        let program = parse_program("void f() { ghost(); }").unwrap();
        let mut interp = Interp::new(program);
        let err = interp.call("f", &[], &mut ExecEnv::new()).unwrap_err();
        assert_eq!(err, IrError::Unresolved("ghost".into()));
    }

    #[test]
    fn precision_quantization_on_store() {
        // float4: 4 mantissa bits. 1.03125 = 1 + 1/32 needs 5 bits -> rounds.
        let (out, _) = run("double f() { float4 x = 1.03125; return x; }", "f", &[]);
        let Value::Float(v) = out else { panic!() };
        assert_ne!(v, 1.03125, "value must have been quantized");
        assert!((v - 1.03125).abs() <= 0.03125);
    }

    #[test]
    fn full_precision_not_quantized() {
        let (out, _) = run("double f() { double x = 1.03125; return x; }", "f", &[]);
        assert_eq!(out, Value::Float(1.03125));
    }

    #[test]
    fn stats_count_flops_and_mem_ops() {
        let (_, stats) = run(
            "double dot(double a[], double b[], int n) {
                 double s = 0.0;
                 for (int i = 0; i < n; i++) { s += a[i] * b[i]; }
                 return s;
             }",
            "dot",
            &[
                Value::from(vec![1.0, 2.0, 3.0, 4.0]),
                Value::from(vec![1.0, 1.0, 1.0, 1.0]),
                Value::Int(4),
            ],
        );
        assert_eq!(stats.flops, 8, "4 multiplies + 4 adds");
        assert_eq!(stats.mem_ops, 8, "8 loads");
        assert_eq!(stats.loop_iters, 4);
        assert_eq!(stats.calls, 1);
    }

    #[test]
    fn dispatcher_redirects_and_extends_program() {
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
        let mut interp = Interp::new(program);
        interp.set_dispatcher(Box::new(Redirect));
        let mut env = ExecEnv::new();
        assert_eq!(
            interp.call("f", &[Value::Int(1)], &mut env).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            interp.call("f", &[Value::Int(2)], &mut env).unwrap(),
            Value::Int(222)
        );
        assert!(interp.program().contains("kernel_2"));
    }

    #[test]
    fn argument_count_mismatch() {
        let program = parse_program("int f(int x) { return x; }").unwrap();
        let mut interp = Interp::new(program);
        let err = interp.call("f", &[], &mut ExecEnv::new()).unwrap_err();
        assert!(err.to_string().contains("expects 1 arguments"));
    }

    #[test]
    fn string_equality_in_conditions() {
        let (out, _) = run(
            "int f() { if (\"a\" == \"a\") return 1; return 0; }",
            "f",
            &[],
        );
        assert_eq!(out, Value::Int(1));
    }

    #[test]
    fn runaway_recursion_is_caught() {
        let program = parse_program("int f(int x) { return f(x + 1); }").unwrap();
        let mut interp = Interp::new(program);
        interp.set_budget(None); // the depth guard must catch it, not the budget
        let err = interp
            .call("f", &[Value::Int(0)], &mut ExecEnv::new())
            .unwrap_err();
        assert!(err.to_string().contains("call depth"), "{err}");
        // the interpreter remains usable afterwards
        *interp.program_mut() = parse_program("int g() { return 7; }").unwrap();
        assert_eq!(
            interp.call("g", &[], &mut ExecEnv::new()).unwrap(),
            Value::Int(7)
        );
    }

    #[test]
    fn math_builtins_work_and_count_flops() {
        let (out, stats) = run(
            "double f(double x) { return sqrt(x * x) + fmax(x, 0.0) + fabs(-x); }",
            "f",
            &[Value::Float(3.0)],
        );
        assert_eq!(out, Value::Float(9.0));
        assert!(stats.flops >= 5);
    }

    #[test]
    fn builtins_are_shadowed_by_program_functions() {
        let (out, _) = run(
            "double sqrt(double x) { return 42.0; } double f() { return sqrt(9.0); }",
            "f",
            &[],
        );
        assert_eq!(out, Value::Float(42.0), "user definition wins");
    }

    #[test]
    fn builtin_domain_errors() {
        let program = parse_program("double f() { return log(0.0 - 1.0); }").unwrap();
        let mut interp = Interp::new(program);
        assert!(interp.call("f", &[], &mut ExecEnv::new()).is_err());
    }

    #[test]
    fn return_type_quantized() {
        let program = parse_program("float4 f() { return 1.03125; }").unwrap();
        let mut interp = Interp::new(program);
        let out = interp.call("f", &[], &mut ExecEnv::new()).unwrap();
        let Value::Float(v) = out else { panic!() };
        assert_ne!(v, 1.03125);
    }
}
