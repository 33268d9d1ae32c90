//! The design-time → runtime tool flow (paper Fig. 1).

use antarex_dsl::interp::Weaver;
use antarex_dsl::{parse_aspects, DslError, DslValue};
use antarex_ir::cost::ExecStats;
use antarex_ir::interp::{ExecEnv, HostFn};
use antarex_ir::value::Value;
use antarex_ir::{parse_program, IrError, Program};
use antarex_vm::Vm;
use antarex_weaver::VersionStore;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Error of the combined tool flow.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// The functional (mini-C) source failed.
    Ir(IrError),
    /// The extra-functional (DSL) source or weaving failed.
    Dsl(DslError),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Ir(e) => write!(f, "{e}"),
            FlowError::Dsl(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::Ir(e) => Some(e),
            FlowError::Dsl(e) => Some(e),
        }
    }
}

impl From<IrError> for FlowError {
    fn from(e: IrError) -> Self {
        FlowError::Ir(e)
    }
}

impl From<DslError> for FlowError {
    fn from(e: DslError) -> Self {
        FlowError::Dsl(e)
    }
}

/// The design-time half: functional code plus aspect library, with
/// weaving applied in place.
///
/// See the [crate-level example](crate).
pub struct ToolFlow {
    program: Program,
    weaver: Weaver,
}

impl fmt::Debug for ToolFlow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ToolFlow")
            .field("functions", &self.program.function_names())
            .field("weaver", &self.weaver)
            .finish()
    }
}

impl ToolFlow {
    /// Parses the functional C-like source and the DSL aspect source.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError`] on parse errors in either language.
    pub fn new(c_source: &str, dsl_source: &str) -> Result<Self, FlowError> {
        let program = parse_program(c_source)?;
        let library = parse_aspects(dsl_source)?;
        Ok(ToolFlow {
            program,
            weaver: Weaver::new(library),
        })
    }

    /// The (current, possibly woven) program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The weaver (aspect library, captured dynamic plans).
    pub fn weaver(&self) -> &Weaver {
        &self.weaver
    }

    /// Applies an aspect with the given inputs (static parts weave now;
    /// `apply dynamic` parts are captured for runtime).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Dsl`] on weaving failures.
    pub fn weave(&mut self, aspect: &str, inputs: &[DslValue]) -> Result<DslValue, FlowError> {
        Ok(self.weaver.weave(&mut self.program, aspect, inputs)?)
    }

    /// Emits the woven program as C-like source (the source-to-source
    /// output of the flow).
    pub fn emit_source(&self) -> String {
        antarex_ir::printer::print_program(&self.program)
    }

    /// Finishes design time: deploys the woven program with the dynamic
    /// weaver installed as the call dispatcher, executing on the metered
    /// bytecode VM (the fast engine; bit-identical to the interpreter).
    pub fn deploy(self) -> Runtime {
        let store = self.weaver.store();
        let mut engine = Vm::new(self.program);
        engine.set_dispatcher(Box::new(self.weaver.into_dynamic()));
        Runtime {
            engine,
            store,
            env: ExecEnv::new(),
        }
    }
}

/// The runtime half: the deployed application under dynamic weaving.
pub struct Runtime {
    engine: Vm,
    store: Rc<RefCell<VersionStore>>,
    env: ExecEnv,
}

impl fmt::Debug for Runtime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runtime")
            .field("functions", &self.engine.program().function_names())
            .field("total_stats", &self.env.stats)
            .finish()
    }
}

impl Runtime {
    /// Calls a function, returning its value and the statistics of *this
    /// call* (cumulative stats are also kept and shown by `Debug`).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Ir`] on runtime errors.
    pub fn call(
        &mut self,
        function: &str,
        args: &[Value],
    ) -> Result<(Value, ExecStats), FlowError> {
        let mut env = ExecEnv::new();
        let value = self.engine.call(function, args, &mut env)?;
        self.env.stats.merge(&env.stats);
        Ok((value, env.stats))
    }

    /// Registers a host (instrumentation) function.
    pub fn register_host(&mut self, name: impl Into<String>, f: HostFn) {
        self.engine.register_host(name, f);
    }

    /// The running program (it grows as dynamic weaving adds versions).
    pub fn program(&self) -> &Program {
        self.engine.program()
    }

    /// Specialized versions registered for a function so far.
    pub fn version_count(&self, function: &str) -> usize {
        self.store.borrow().version_count(function)
    }

    /// Dispatch cache (hits, misses) for a function.
    pub fn dispatch_stats(&self, function: &str) -> (u64, u64) {
        self.store.borrow().stats(function)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{DYNAMIC_KERNEL, SUMSQ_KERNEL};
    use antarex_dsl::figures::{
        FIG2_PROFILE_ARGUMENTS, FIG3_UNROLL_INNERMOST_LOOPS, FIG4_SPECIALIZE_KERNEL,
    };
    use antarex_ir::interp::Interp;
    use std::cell::RefCell;

    #[test]
    fn fig1_flow_end_to_end() {
        // Fig. 1: DSL + C source -> weave -> deploy -> adaptive runtime.
        let aspects = format!("{FIG4_SPECIALIZE_KERNEL}\n{FIG3_UNROLL_INNERMOST_LOOPS}");
        let mut flow = ToolFlow::new(DYNAMIC_KERNEL, &aspects).unwrap();
        flow.weave("SpecializeKernel", &[DslValue::Int(4), DslValue::Int(64)])
            .unwrap();
        let mut runtime = flow.deploy();
        let buf = Value::from(vec![0.5; 32]);
        // first call specializes, second hits the version cache
        let (v1, _) = runtime.call("run", &[buf.clone(), Value::Int(32)]).unwrap();
        let (v2, stats2) = runtime.call("run", &[buf, Value::Int(32)]).unwrap();
        assert_eq!(v1, v2);
        assert_eq!(runtime.version_count("kernel"), 1);
        let (hits, _) = runtime.dispatch_stats("kernel");
        assert!(hits >= 1);
        assert_eq!(stats2.loop_iters, 0, "specialized version is unrolled");
    }

    #[test]
    fn weave_then_emit_source() {
        // note: Fig. 2's template splices the argument list, so the call
        // must have at least one argument to produce parseable code
        let mut flow =
            ToolFlow::new("void app(int n) { kernel(n); }", FIG2_PROFILE_ARGUMENTS).unwrap();
        flow.weave("ProfileArguments", &[DslValue::from("kernel")])
            .unwrap();
        let source = flow.emit_source();
        assert!(source.contains("profile_args("));
    }

    #[test]
    fn runtime_hosts_and_cumulative_stats() {
        let mut flow = ToolFlow::new(SUMSQ_KERNEL, FIG2_PROFILE_ARGUMENTS).unwrap();
        flow.weave("ProfileArguments", &[DslValue::from("none")])
            .unwrap();
        let mut runtime = flow.deploy();
        let calls = Rc::new(RefCell::new(0));
        let sink = Rc::clone(&calls);
        runtime.register_host(
            "probe",
            Box::new(move |_| {
                *sink.borrow_mut() += 1;
                Ok(Value::Unit)
            }),
        );
        let buf = Value::from(vec![1.0; 16]);
        runtime.call("sumsq16", std::slice::from_ref(&buf)).unwrap();
        runtime.call("sumsq16", &[buf]).unwrap();
        assert!(runtime.env.stats.flops >= 64);
        assert_eq!(*calls.borrow(), 0, "aspect matched nothing: no probes");
    }

    #[test]
    fn deploy_engines_are_equivalent() {
        // the deployed VM and the reference interpreter, given the same
        // woven program and dynamic weaver, must agree on values and
        // statistics
        let aspects = format!("{FIG4_SPECIALIZE_KERNEL}\n{FIG3_UNROLL_INNERMOST_LOOPS}");
        let woven = || {
            let mut flow = ToolFlow::new(DYNAMIC_KERNEL, &aspects).unwrap();
            flow.weave("SpecializeKernel", &[DslValue::Int(4), DslValue::Int(64)])
                .unwrap();
            flow
        };
        let args = [Value::from(vec![0.5; 32]), Value::Int(32)];

        let flow = woven();
        let mut interp = Interp::new(flow.program);
        interp.set_dispatcher(Box::new(flow.weaver.into_dynamic()));
        let mut reference = || {
            let mut env = ExecEnv::new();
            let value = interp.call("run", &args, &mut env).unwrap();
            (value, env.stats)
        };
        let (iv1, is1) = reference();
        let (iv2, is2) = reference();

        let mut runtime = woven().deploy();
        let (vv1, vs1) = runtime.call("run", &args).unwrap();
        let (vv2, vs2) = runtime.call("run", &args).unwrap();
        assert_eq!(iv1, vv1);
        assert_eq!(iv2, vv2);
        assert_eq!(is1, vs1, "first-call stats must be identical");
        assert_eq!(is2, vs2, "cached-version stats must be identical");
    }

    #[test]
    fn bad_sources_error() {
        assert!(matches!(
            ToolFlow::new("int f( {", "aspectdef A end"),
            Err(FlowError::Ir(_))
        ));
        assert!(matches!(
            ToolFlow::new("int f() { return 1; }", "aspectdef"),
            Err(FlowError::Dsl(_))
        ));
    }

    #[test]
    fn flow_error_display_and_source() {
        use std::error::Error as _;
        let err = FlowError::from(IrError::Unresolved("f".into()));
        assert!(err.to_string().contains("unresolved"));
        assert!(err.source().is_some());
    }
}
