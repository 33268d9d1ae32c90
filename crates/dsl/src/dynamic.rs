//! Dynamic weaving: enacting `apply dynamic` plans at runtime.
//!
//! A [`DynamicPlan`] is the design-time residue of an `apply dynamic`
//! section (paper Fig. 4): the pointcut, the condition over runtime values
//! (`$arg.runtimeValue >= lowT && ...`), the action body, and the captured
//! environment. A [`DynamicWeaver`] holds the plans and plugs into the
//! mini-C interpreter as a [`Dispatcher`]: before every call it checks the
//! multi-version table (fast path), and on a miss evaluates the plans —
//! possibly specializing the callee for the observed argument value,
//! unrolling it, and registering the new version. This is the paper's
//! split compilation: complexity was offloaded offline, the online step
//! binds code variants using runtime information.

use crate::ast::{Action, AspectLibrary, DExpr, Filter, Select};
use crate::error::DslError;
use crate::expr::{eval, Env};
use crate::interp::{ActionHost, Exec};
use crate::value::DslValue;
use antarex_ir::interp::Dispatcher;
use antarex_ir::value::Value as IrValue;
use antarex_ir::{IrError, Program};
use antarex_weaver::VersionStore;
use std::cell::RefCell;
use std::rc::Rc;

/// A captured `apply dynamic` section awaiting runtime enactment.
#[derive(Debug, Clone)]
pub struct DynamicPlan {
    /// The pointcut (e.g. `fCall{'kernel'}.arg{'size'}`).
    pub select: Select,
    /// Runtime condition guarding the actions.
    pub condition: Option<DExpr>,
    /// Actions to run when the condition holds.
    pub actions: Vec<Action>,
    /// Environment captured at weave time (aspect inputs, labels like
    /// `spCall`).
    pub env: Env,
}

/// Runtime statistics of the dynamic weaver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct DynamicStats {
    /// Calls redirected via the version table without running any plan.
    pub fast_hits: u64,
    /// Plan bodies executed (specializations performed).
    pub specializations: u64,
    /// Plan condition evaluations that declined to specialize.
    pub declined: u64,
}

/// The runtime half of the weaver: resolves calls against the version
/// table and runs `apply dynamic` plans on misses.
pub struct DynamicWeaver {
    library: AspectLibrary,
    actions: Box<dyn ActionHost>,
    store: Rc<RefCell<VersionStore>>,
    plans: Vec<DynamicPlan>,
    stats: DynamicStats,
}

impl std::fmt::Debug for DynamicWeaver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynamicWeaver")
            .field("plans", &self.plans.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl DynamicWeaver {
    /// Assembles a dynamic weaver; normally obtained via
    /// [`Weaver::into_dynamic`](crate::interp::Weaver::into_dynamic).
    pub(crate) fn new(
        library: AspectLibrary,
        actions: Box<dyn ActionHost>,
        store: Rc<RefCell<VersionStore>>,
        plans: Vec<DynamicPlan>,
    ) -> Self {
        DynamicWeaver {
            library,
            actions,
            store,
            plans,
            stats: DynamicStats::default(),
        }
    }

    fn try_plans(
        &mut self,
        callee: &str,
        args: &[IrValue],
        program: &mut Program,
    ) -> Result<(), DslError> {
        let plans = self.plans.clone();
        for plan in &plans {
            let Some(mut env) = match_plan(plan, callee, args, program)? else {
                continue;
            };
            if let Some(cond) = &plan.condition {
                if !eval(cond, &env)?.truthy() {
                    self.stats.declined += 1;
                    continue;
                }
            }
            let mut scratch = Vec::new();
            let mut exec = Exec {
                library: &self.library,
                actions: self.actions.as_mut(),
                plans: &mut scratch,
                depth: 0,
            };
            exec.exec_actions_threaded(&plan.actions, &mut env, None, program)?;
            self.stats.specializations += 1;
        }
        Ok(())
    }
}

/// Matches a plan's pointcut against a concrete call, binding `$fCall` and
/// (for `arg` links) `$arg` with its `runtimeValue`.
fn match_plan(
    plan: &DynamicPlan,
    callee: &str,
    args: &[IrValue],
    program: &Program,
) -> Result<Option<Env>, DslError> {
    let mut links = plan.select.links.iter();
    let Some(call_link) = links.next() else {
        return Ok(None);
    };
    if !matches!(call_link.kind.as_str(), "fCall" | "call") {
        return Ok(None);
    }
    let fcall = DslValue::record([
        ("name", DslValue::Str(callee.to_string())),
        ("numArgs", DslValue::Int(args.len() as i64)),
    ]);
    match &call_link.filter {
        None => {}
        Some(Filter::Name(name)) if name != callee => return Ok(None),
        Some(Filter::Name(_)) => {}
        Some(Filter::Expr(expr)) => {
            let probe = plan.env.with_candidate(fcall.clone());
            if !eval(expr, &probe)?.truthy() {
                return Ok(None);
            }
        }
    }
    let mut env = plan.env.clone();
    env.bind("$fCall", fcall);

    if let Some(arg_link) = links.next() {
        if arg_link.kind != "arg" {
            return Ok(None);
        }
        let function = program.function(callee);
        let mut matched = None;
        for (index, value) in args.iter().enumerate() {
            let formal = function
                .and_then(|f| f.params.get(index))
                .map(|p| p.name.clone())
                .unwrap_or_default();
            let candidate = DslValue::record([
                ("name", DslValue::Str(formal.clone())),
                ("index", DslValue::Int(index as i64)),
                ("runtimeValue", DslValue::from_ir(value)),
            ]);
            let passes = match &arg_link.filter {
                None => true,
                Some(Filter::Name(name)) => name == &formal,
                Some(Filter::Expr(expr)) => {
                    eval(expr, &env.with_candidate(candidate.clone()))?.truthy()
                }
            };
            if passes {
                matched = Some(candidate);
                break;
            }
        }
        match matched {
            Some(candidate) => {
                env.bind("$arg", candidate);
            }
            None => return Ok(None),
        }
    }
    Ok(Some(env))
}

impl Dispatcher for DynamicWeaver {
    fn resolve(
        &mut self,
        callee: &str,
        args: &[IrValue],
        program: &mut Program,
    ) -> Result<Option<String>, IrError> {
        // fast path: an already-registered version
        if let Some(name) = self.store.borrow_mut().resolve(callee, args) {
            self.stats.fast_hits += 1;
            return Ok(Some(name.to_string()));
        }
        if self.plans.is_empty() {
            return Ok(None);
        }
        self.try_plans(callee, args, program)
            .map_err(|e| IrError::Eval(format!("dynamic weaving failed: {e}")))?;
        Ok(self
            .store
            .borrow_mut()
            .resolve(callee, args)
            .map(str::to_string))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{FIG3_UNROLL_INNERMOST_LOOPS, FIG4_SPECIALIZE_KERNEL};
    use crate::interp::Weaver;
    use crate::parser::parse_aspects;
    use antarex_ir::interp::{ExecEnv, Interp};
    use antarex_ir::parse_program;

    const APP: &str = "double kernel(double a[], int size) {
        double s = 0.0;
        for (int i = 0; i < size; i++) { s += a[i] * a[i]; }
        return s;
    }
    double run(double buf[], int n) { return kernel(buf, n); }";

    fn woven_weaver() -> (Weaver, Program) {
        let lib = parse_aspects(&format!(
            "{FIG4_SPECIALIZE_KERNEL}\n{FIG3_UNROLL_INNERMOST_LOOPS}"
        ))
        .unwrap();
        let mut program = parse_program(APP).unwrap();
        let mut weaver = Weaver::new(lib);
        weaver
            .weave(
                &mut program,
                "SpecializeKernel",
                &[DslValue::Int(4), DslValue::Int(64)],
            )
            .unwrap();
        (weaver, program)
    }

    #[test]
    fn fig4_end_to_end_specializes_in_range() {
        let (weaver, program) = woven_weaver();
        let store = weaver.store();
        let mut interp = Interp::new(program);
        interp.set_dispatcher(Box::new(weaver.into_dynamic()));

        let buf = IrValue::from(vec![0.5; 64]);
        let mut env = ExecEnv::new();
        // size 8 in [4, 64]: triggers specialization on first call
        let v1 = interp
            .call("run", &[buf.clone(), IrValue::Int(8)], &mut env)
            .unwrap();
        assert!(interp.program().contains("kernel__size_8"));
        assert_eq!(store.borrow().version_count("kernel"), 1);
        // specialized version is fully unrolled: no loops
        let spec = interp.program().function("kernel__size_8").unwrap();
        assert!(antarex_ir::analysis::loops(&spec.body).is_empty());
        // result identical to generic computation
        let expected = IrValue::Float(0.25 * 8.0);
        assert_eq!(v1, expected);
    }

    #[test]
    fn fig4_out_of_range_values_not_specialized() {
        let (weaver, program) = woven_weaver();
        let mut interp = Interp::new(program);
        interp.set_dispatcher(Box::new(weaver.into_dynamic()));
        let buf = IrValue::from(vec![1.0; 128]);
        interp
            .call("run", &[buf, IrValue::Int(128)], &mut ExecEnv::new())
            .unwrap();
        assert!(
            !interp.program().contains("kernel__size_128"),
            "128 > highT=64"
        );
    }

    #[test]
    fn fig4_second_call_hits_version_cache() {
        let (weaver, program) = woven_weaver();
        let mut interp = Interp::new(program);
        interp.set_dispatcher(Box::new(weaver.into_dynamic()));
        let buf = IrValue::from(vec![1.0; 16]);
        for _ in 0..3 {
            interp
                .call("run", &[buf.clone(), IrValue::Int(16)], &mut ExecEnv::new())
                .unwrap();
        }
        let dispatcher = interp.take_dispatcher().unwrap();
        // we cannot downcast the box easily; re-check via program state:
        // exactly one specialized version despite three calls
        let names: Vec<&str> = interp
            .program()
            .function_names()
            .into_iter()
            .filter(|n| n.starts_with("kernel__"))
            .collect();
        assert_eq!(names, vec!["kernel__size_16"]);
        drop(dispatcher);
    }

    #[test]
    fn specialized_version_is_cheaper() {
        let (weaver, program) = woven_weaver();
        let mut interp = Interp::new(program.clone());
        interp.set_dispatcher(Box::new(weaver.into_dynamic()));
        let buf = IrValue::from(vec![0.25; 32]);

        // warm up: create the version
        interp
            .call("run", &[buf.clone(), IrValue::Int(32)], &mut ExecEnv::new())
            .unwrap();
        // measure specialized
        let mut env_spec = ExecEnv::new();
        interp
            .call("run", &[buf.clone(), IrValue::Int(32)], &mut env_spec)
            .unwrap();
        // measure generic (no dispatcher)
        let mut plain = Interp::new(program);
        let mut env_gen = ExecEnv::new();
        plain
            .call("run", &[buf, IrValue::Int(32)], &mut env_gen)
            .unwrap();
        assert!(
            env_spec.stats.cost < env_gen.stats.cost,
            "specialized {} !< generic {}",
            env_spec.stats.cost,
            env_gen.stats.cost
        );
    }

    #[test]
    fn distinct_values_get_distinct_versions() {
        let (weaver, program) = woven_weaver();
        let mut interp = Interp::new(program);
        interp.set_dispatcher(Box::new(weaver.into_dynamic()));
        for size in [4i64, 8, 12] {
            let buf = IrValue::from(vec![1.0; size as usize]);
            interp
                .call("run", &[buf, IrValue::Int(size)], &mut ExecEnv::new())
                .unwrap();
        }
        let versions = interp
            .program()
            .function_names()
            .into_iter()
            .filter(|n| n.starts_with("kernel__"))
            .count();
        assert_eq!(versions, 3);
    }

    #[test]
    fn plan_with_expr_filters_matches() {
        let lib = parse_aspects(
            "aspectdef A
               select fCall{name == 'kernel'}.arg{index == 1} end
               apply dynamic
                 call spOut: Specialize($fCall, $arg.name, $arg.runtimeValue);
                 call AddVersion(prep, spOut.$func, $arg.runtimeValue);
               end
               condition $arg.runtimeValue > 0 end
             end",
        )
        .unwrap();
        let mut program = parse_program(APP).unwrap();
        let mut weaver = Weaver::new(lib);
        // bind `prep` via a custom pre-step: prepare manually through store
        weaver.store().borrow_mut().prepare("kernel", 1);
        // `prep` must resolve inside the plan env: weave a wrapper aspect
        // that binds it is overkill here; instead exercise the error path:
        weaver.weave(&mut program, "A", &[]).unwrap();
        let mut interp = Interp::new(program);
        interp.set_dispatcher(Box::new(weaver.into_dynamic()));
        let buf = IrValue::from(vec![1.0; 4]);
        // `prep` is unbound -> dynamic weaving fails loudly, not silently
        let err = interp
            .call("run", &[buf, IrValue::Int(4)], &mut ExecEnv::new())
            .unwrap_err();
        assert!(err.to_string().contains("dynamic weaving failed"));
    }

    #[test]
    fn no_plans_is_a_no_op_dispatcher() {
        let lib =
            parse_aspects("aspectdef A select fCall end apply insert before %{p();}%; end end")
                .unwrap();
        let weaver = Weaver::new(lib);
        let mut dynamic = weaver.into_dynamic();
        let mut program = parse_program(APP).unwrap();
        let resolved = dynamic
            .resolve("kernel", &[IrValue::Int(1)], &mut program)
            .unwrap();
        assert_eq!(resolved, None);
    }
}
