//! The static weaver: executes aspects against a program.
//!
//! An aspect runs as a sequence of items: `call` statements invoke other
//! aspects or built-in weaver actions; a `select` establishes the current
//! pointcut; the following `apply` fires its actions once per join point
//! that satisfies the attached `condition` (which may appear before or
//! after the `apply`, as in the paper's listings).
//!
//! `apply dynamic` bodies are *not* executed here: they are captured as
//! `crate::dynamic::DynamicPlan`s together with their
//! environment, and enacted at runtime by a
//! `DynamicWeaver` — the paper's split
//! compilation: offline preparation, online binding.

use crate::ast::{Action, Apply, AspectLibrary, CallAspect, DExpr, Filter, Item, SelLink, Select};
use crate::dynamic::DynamicPlan;
use crate::error::DslError;
use crate::expr::{attr_of, bind_join_point, eval, Env};
use crate::template::render;
use crate::value::DslValue;
use antarex_ir::joinpoint::{collect_join_points, JoinPoint};
use antarex_ir::{parse_stmts, Program};
use antarex_weaver::transform::specialize::specialize;
use antarex_weaver::transform::unroll::{unroll_by_factor, unroll_full};
use antarex_weaver::{insert_after, insert_before, VersionStore};
use std::cell::RefCell;
use std::rc::Rc;

/// Host of weaver actions (`do X(...)` and built-in `call`s).
///
/// The [`StandardActions`] implementation provides the paper's action set
/// (`LoopUnroll`, `Specialize`, `PrepareSpecialize`, `AddVersion`);
/// embedders can wrap or replace it to add domain-specific actions.
pub(crate) trait ActionHost {
    /// Invokes action `name` with evaluated arguments, optionally targeted
    /// at a join point, possibly mutating the program.
    ///
    /// # Errors
    ///
    /// Returns [`DslError::Unresolved`] for unknown actions or
    /// [`DslError::Action`] when the transformation fails.
    fn invoke(
        &mut self,
        name: &str,
        args: &[DslValue],
        target: Option<&JoinPoint>,
        program: &mut Program,
    ) -> Result<DslValue, DslError>;
}

/// The built-in weaver actions from the paper's listings.
#[derive(Debug, Clone)]
pub(crate) struct StandardActions {
    store: Rc<RefCell<VersionStore>>,
}

impl StandardActions {
    /// Creates the standard action set with a fresh version store.
    pub(crate) fn new() -> Self {
        StandardActions {
            store: Rc::new(RefCell::new(VersionStore::new())),
        }
    }

    /// The shared multi-version dispatch store.
    pub(crate) fn store(&self) -> Rc<RefCell<VersionStore>> {
        Rc::clone(&self.store)
    }

    fn function_name_of(value: &DslValue) -> Result<String, DslError> {
        match value {
            DslValue::Jp(JoinPoint::Call { callee, .. }) => Ok(callee.clone()),
            DslValue::Record(fields) => fields
                .get("function")
                .or_else(|| fields.get("name"))
                .and_then(|v| v.as_str().map(str::to_string))
                .ok_or_else(|| DslError::Eval("record has no `function` or `name` field".into())),
            other => other
                .as_func_name()
                .map(str::to_string)
                .ok_or_else(|| DslError::Eval(format!("{other} does not name a function"))),
        }
    }
}

impl Default for StandardActions {
    fn default() -> Self {
        Self::new()
    }
}

impl ActionHost for StandardActions {
    fn invoke(
        &mut self,
        name: &str,
        args: &[DslValue],
        target: Option<&JoinPoint>,
        program: &mut Program,
    ) -> Result<DslValue, DslError> {
        match name {
            "LoopUnroll" => {
                let Some(JoinPoint::Loop { function, path, .. }) = target else {
                    return Err(DslError::action(name, "target join point is not a loop"));
                };
                let mode = args
                    .first()
                    .cloned()
                    .unwrap_or(DslValue::Str("full".into()));
                let factor = match (&mode, args.get(1)) {
                    (DslValue::Str(s), _) if s == "full" => None,
                    (DslValue::Str(s), Some(k)) if s == "partial" => {
                        Some(k.as_i64().ok_or_else(|| {
                            DslError::action(name, "partial unroll needs an integer factor")
                        })?)
                    }
                    (DslValue::Int(k), _) => Some(*k),
                    _ => {
                        return Err(DslError::action(
                            name,
                            format!("unsupported unroll mode {mode}"),
                        ))
                    }
                };
                let mut result = Ok(());
                program
                    .edit_function(function, |f| {
                        result = match factor {
                            None => unroll_full(&mut f.body, path),
                            Some(k) => {
                                let k = u64::try_from(k).unwrap_or(0);
                                unroll_by_factor(&mut f.body, path, k)
                            }
                        };
                    })
                    .map_err(|e| DslError::action(name, e))?;
                result.map_err(|e| DslError::action(name, e))?;
                Ok(DslValue::Bool(true))
            }
            "LoopTile" => {
                let Some(JoinPoint::Loop { function, path, .. }) = target else {
                    return Err(DslError::action(name, "target join point is not a loop"));
                };
                let size = args
                    .first()
                    .and_then(DslValue::as_i64)
                    .and_then(|s| u64::try_from(s).ok())
                    .ok_or_else(|| DslError::action(name, "expects a positive tile size"))?;
                let mut result = Ok(());
                program
                    .edit_function(function, |f| {
                        result = antarex_weaver::transform::tile::tile(&mut f.body, path, size);
                    })
                    .map_err(|e| DslError::action(name, e))?;
                result.map_err(|e| DslError::action(name, e))?;
                Ok(DslValue::Bool(true))
            }
            "Inline" => {
                let callee = args
                    .first()
                    .and_then(DslValue::as_str)
                    .map(str::to_string)
                    .or_else(|| match target {
                        Some(JoinPoint::Call { callee, .. }) => Some(callee.clone()),
                        _ => None,
                    })
                    .ok_or_else(|| {
                        DslError::action(name, "expects a callee name or an fCall target")
                    })?;
                let host = target
                    .map(JoinPoint::enclosing_function)
                    .ok_or_else(|| DslError::action(name, "needs a join-point target"))?
                    .to_string();
                let snapshot = program.clone();
                let mut result = Ok(0);
                program
                    .edit_function(&host, |f| {
                        result = antarex_weaver::transform::inline::inline_calls(
                            &mut f.body,
                            &snapshot,
                            &callee,
                        );
                    })
                    .map_err(|e| DslError::action(name, e))?;
                let inlined = result.map_err(|e| DslError::action(name, e))?;
                Ok(DslValue::Int(inlined as i64))
            }
            "Specialize" => {
                let [func, param, value] = args else {
                    return Err(DslError::action(name, "expects (function, param, value)"));
                };
                let function = Self::function_name_of(func)?;
                let param = param
                    .as_str()
                    .ok_or_else(|| DslError::action(name, "param must be a string"))?;
                let ir_value = value
                    .to_ir()
                    .ok_or_else(|| DslError::action(name, "value must be scalar"))?;
                let specialized = specialize(program, &function, param, &ir_value)
                    .map_err(|e| DslError::action(name, e))?;
                let spec_name = specialized.name.clone();
                program.insert(specialized);
                Ok(DslValue::record([
                    ("$func", DslValue::FuncRef(spec_name)),
                    ("origin", DslValue::Str(function)),
                ]))
            }
            "PrepareSpecialize" => {
                let [func, param] = args else {
                    return Err(DslError::action(name, "expects (function, param)"));
                };
                let function = Self::function_name_of(func)?;
                let param = param
                    .as_str()
                    .ok_or_else(|| DslError::action(name, "param must be a string"))?;
                let index = program
                    .function(&function)
                    .ok_or_else(|| {
                        DslError::action(name, format!("unknown function `{function}`"))
                    })?
                    .param_index(param)
                    .ok_or_else(|| {
                        DslError::action(name, format!("`{function}` has no parameter `{param}`"))
                    })?;
                self.store.borrow_mut().prepare(&function, index);
                Ok(DslValue::record([
                    ("function", DslValue::Str(function)),
                    ("param", DslValue::Str(param.to_string())),
                    ("index", DslValue::Int(index as i64)),
                ]))
            }
            "AddVersion" => {
                let [prep, func, value] = args else {
                    return Err(DslError::action(
                        name,
                        "expects (prepared, function, value)",
                    ));
                };
                let function = Self::function_name_of(prep)?;
                let specialized = func.as_func_name().ok_or_else(|| {
                    DslError::action(name, "second argument must name a function")
                })?;
                let ir_value = value
                    .to_ir()
                    .ok_or_else(|| DslError::action(name, "dispatch value must be scalar"))?;
                let added = self
                    .store
                    .borrow_mut()
                    .add_version(&function, &ir_value, specialized);
                if !added {
                    return Err(DslError::action(
                        name,
                        format!("function `{function}` was not prepared for versioning"),
                    ));
                }
                Ok(DslValue::Bool(true))
            }
            other => Err(DslError::Unresolved(format!("action `{other}`"))),
        }
    }
}

/// The static weaver: an aspect library plus an action host.
///
/// See the [crate-level example](crate) for typical usage.
pub struct Weaver {
    library: AspectLibrary,
    actions: Box<dyn ActionHost>,
    store: Rc<RefCell<VersionStore>>,
    dynamic_plans: Vec<DynamicPlan>,
}

impl std::fmt::Debug for Weaver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Weaver")
            .field("aspects", &self.library.names())
            .field("dynamic_plans", &self.dynamic_plans.len())
            .finish_non_exhaustive()
    }
}

impl Weaver {
    /// Creates a weaver over `library` with the standard action set.
    pub fn new(library: AspectLibrary) -> Self {
        let actions = StandardActions::new();
        let store = actions.store();
        Weaver {
            library,
            actions: Box::new(actions),
            store,
            dynamic_plans: Vec::new(),
        }
    }

    /// The multi-version dispatch store shared with dynamic weaving.
    pub fn store(&self) -> Rc<RefCell<VersionStore>> {
        Rc::clone(&self.store)
    }

    /// Dynamic plans captured so far by `apply dynamic` sections.
    pub fn dynamic_plans(&self) -> &[DynamicPlan] {
        &self.dynamic_plans
    }

    /// Runs an aspect against `program` with positional inputs.
    ///
    /// Returns the aspect's outputs as a record ([`DslValue::Record`]);
    /// aspects without outputs return an empty record.
    ///
    /// # Errors
    ///
    /// Returns [`DslError`] on unknown aspects, arity mismatches, failed
    /// conditions evaluation, or action failures.
    pub fn weave(
        &mut self,
        program: &mut Program,
        aspect: &str,
        inputs: &[DslValue],
    ) -> Result<DslValue, DslError> {
        let mut exec = Exec {
            library: &self.library,
            actions: self.actions.as_mut(),
            plans: &mut self.dynamic_plans,
            depth: 0,
        };
        exec.run_aspect(aspect, inputs, program)
    }

    /// Consumes the weaver, producing the runtime half: a
    /// `DynamicWeaver` that enacts the
    /// captured `apply dynamic` plans while the program runs.
    pub fn into_dynamic(self) -> crate::dynamic::DynamicWeaver {
        crate::dynamic::DynamicWeaver::new(
            self.library,
            self.actions,
            self.store,
            self.dynamic_plans,
        )
    }
}

const MAX_ASPECT_DEPTH: usize = 64;

pub(crate) struct Exec<'a> {
    pub library: &'a AspectLibrary,
    pub actions: &'a mut dyn ActionHost,
    pub plans: &'a mut Vec<DynamicPlan>,
    pub depth: usize,
}

impl Exec<'_> {
    pub(crate) fn run_aspect(
        &mut self,
        name: &str,
        inputs: &[DslValue],
        program: &mut Program,
    ) -> Result<DslValue, DslError> {
        if self.depth >= MAX_ASPECT_DEPTH {
            return Err(DslError::Eval(format!(
                "aspect call depth exceeded {MAX_ASPECT_DEPTH} (recursive aspects?)"
            )));
        }
        let aspect = self
            .library
            .get(name)
            .ok_or_else(|| DslError::Unresolved(format!("aspect `{name}`")))?
            .clone();
        if inputs.len() != aspect.inputs.len() {
            return Err(DslError::Eval(format!(
                "aspect `{name}` expects {} inputs, got {}",
                aspect.inputs.len(),
                inputs.len()
            )));
        }
        let mut env = Env::new();
        for (param, value) in aspect.inputs.iter().zip(inputs) {
            env.bind(param.clone(), value.clone());
        }
        self.depth += 1;
        let result = self.run_items(&aspect.items, &mut env, program);
        self.depth -= 1;
        result?;
        Ok(DslValue::record(aspect.outputs.iter().map(|out| {
            (out.clone(), env.get(out).cloned().unwrap_or(DslValue::Null))
        })))
    }

    fn run_items(
        &mut self,
        items: &[Item],
        env: &mut Env,
        program: &mut Program,
    ) -> Result<(), DslError> {
        let mut pending_select: Option<&Select> = None;
        let mut pending_condition: Option<&DExpr> = None;
        let mut i = 0;
        while i < items.len() {
            match &items[i] {
                Item::Call(call) => {
                    let result = self.run_call(call, env, None, program)?;
                    if let Some(label) = &call.label {
                        env.bind(label.clone(), result);
                    }
                }
                Item::Select(select) => {
                    pending_select = Some(select);
                    pending_condition = None;
                }
                Item::Condition(cond) => {
                    pending_condition = Some(cond);
                }
                Item::Apply(apply) => {
                    // condition may follow the apply (paper style)
                    let condition = if let Some(Item::Condition(cond)) = items.get(i + 1) {
                        i += 1;
                        Some(cond)
                    } else {
                        pending_condition.take()
                    };
                    let select = pending_select.ok_or_else(|| {
                        DslError::Eval("`apply` without a preceding `select`".into())
                    })?;
                    if apply.dynamic {
                        self.plans.push(DynamicPlan {
                            select: select.clone(),
                            condition: condition.cloned(),
                            actions: apply.actions.clone(),
                            env: env.clone(),
                        });
                    } else {
                        self.exec_static_apply(select, condition, apply, env, program)?;
                    }
                }
            }
            i += 1;
        }
        Ok(())
    }

    fn exec_static_apply(
        &mut self,
        select: &Select,
        condition: Option<&DExpr>,
        apply: &Apply,
        env: &Env,
        program: &mut Program,
    ) -> Result<(), DslError> {
        let mut matches = self.eval_select(select, env, program)?;
        // Reverse document order so structural edits (inserts, unrolls) do
        // not invalidate the paths of matches processed later.
        matches.sort_by(|a, b| {
            let ka = (a.0.enclosing_function().to_string(), a.0.path().cloned());
            let kb = (b.0.enclosing_function().to_string(), b.0.path().cloned());
            kb.cmp(&ka)
        });
        for (jp, jp_env) in matches {
            if let Some(cond) = condition {
                if !eval(cond, &jp_env)?.truthy() {
                    continue;
                }
            }
            for action in &apply.actions {
                self.exec_action(action, &jp_env, Some(&jp), program)?;
            }
        }
        Ok(())
    }

    pub(crate) fn exec_action(
        &mut self,
        action: &Action,
        env: &Env,
        target: Option<&JoinPoint>,
        program: &mut Program,
    ) -> Result<(), DslError> {
        match action {
            Action::Insert { before, template } => {
                let jp = target.ok_or_else(|| {
                    DslError::Eval("`insert` requires a join-point target".into())
                })?;
                let path = jp.path().ok_or_else(|| {
                    DslError::Eval(format!(
                        "`insert` target `{}` has no statement position",
                        jp.kind_name()
                    ))
                })?;
                let code = render(template, env)?;
                let stmts = parse_stmts(&code)?;
                let function = jp.enclosing_function().to_string();
                let mut result = Ok(());
                program
                    .edit_function(&function, |f| {
                        result = if *before {
                            insert_before(&mut f.body, path, stmts)
                        } else {
                            insert_after(&mut f.body, path, stmts)
                        };
                    })
                    .map_err(DslError::from)?;
                result.map_err(DslError::from)
            }
            Action::Do { name, args } => {
                let args = args
                    .iter()
                    .map(|a| eval(a, env))
                    .collect::<Result<Vec<_>, _>>()?;
                self.actions.invoke(name, &args, target, program)?;
                Ok(())
            }
            Action::Call(call) => {
                let result = self.run_call(call, env, target, program)?;
                // labels inside apply bodies bind into a scratch copy; the
                // only consumer is subsequent actions of the same apply,
                // which receive the same env — so we cannot bind here.
                // Dynamic bodies (the Fig. 4 pattern) are executed by the
                // dynamic weaver, which threads labels properly.
                let _ = result;
                Ok(())
            }
        }
    }

    /// Executes the actions of one apply body sequentially, threading label
    /// bindings (used for dynamic plans, where `call spOut: ...` results
    /// feed later actions).
    pub(crate) fn exec_actions_threaded(
        &mut self,
        actions: &[Action],
        env: &mut Env,
        target: Option<&JoinPoint>,
        program: &mut Program,
    ) -> Result<(), DslError> {
        for action in actions {
            match action {
                Action::Call(call) => {
                    let result = self.run_call(call, env, target, program)?;
                    if let Some(label) = &call.label {
                        env.bind(label.clone(), result);
                    }
                }
                other => self.exec_action(other, env, target, program)?,
            }
        }
        Ok(())
    }

    fn run_call(
        &mut self,
        call: &CallAspect,
        env: &Env,
        target: Option<&JoinPoint>,
        program: &mut Program,
    ) -> Result<DslValue, DslError> {
        let args = call
            .args
            .iter()
            .map(|a| eval(a, env))
            .collect::<Result<Vec<_>, _>>()?;
        if self.library.contains(&call.name) {
            self.run_aspect(&call.name, &args, program)
        } else {
            self.actions.invoke(&call.name, &args, target, program)
        }
    }

    pub(crate) fn eval_select(
        &mut self,
        select: &Select,
        env: &Env,
        program: &Program,
    ) -> Result<Vec<(JoinPoint, Env)>, DslError> {
        let scope: Option<String> = match &select.root {
            Some(var) => {
                let value = env
                    .get(var)
                    .ok_or_else(|| DslError::Unresolved(var.clone()))?;
                Some(
                    value
                        .as_func_name()
                        .ok_or_else(|| {
                            DslError::Eval(format!("`{var}` does not designate a function"))
                        })?
                        .to_string(),
                )
            }
            None => None,
        };
        let all = collect_join_points(program);
        for link in &select.links {
            if !known_kind(&link.kind) {
                return Err(DslError::Eval(format!(
                    "unknown join-point kind `{}` in select",
                    link.kind
                )));
            }
        }
        let first = select
            .links
            .first()
            .ok_or_else(|| DslError::Eval("empty selector".into()))?;
        let mut current: Vec<(JoinPoint, Env)> = Vec::new();
        for jp in &all {
            if jp.kind_name() != kind_of(&first.kind) {
                continue;
            }
            if let Some(scope) = &scope {
                let in_scope = match jp {
                    JoinPoint::Function { name } => name == scope,
                    other => other.enclosing_function() == scope,
                };
                if !in_scope {
                    continue;
                }
            }
            if self.filter_passes(first, jp, env)? {
                let mut jp_env = env.clone();
                bind_join_point(&mut jp_env, jp);
                current.push((jp.clone(), jp_env));
            }
        }
        for link in &select.links[1..] {
            let mut next = Vec::new();
            for (parent, parent_env) in &current {
                for jp in &all {
                    if jp.kind_name() != kind_of(&link.kind) {
                        continue;
                    }
                    if !related(parent, jp) {
                        continue;
                    }
                    if self.filter_passes(link, jp, parent_env)? {
                        let mut jp_env = parent_env.clone();
                        bind_join_point(&mut jp_env, jp);
                        next.push((jp.clone(), jp_env));
                    }
                }
            }
            current = next;
        }
        Ok(current)
    }

    fn filter_passes(&self, link: &SelLink, jp: &JoinPoint, env: &Env) -> Result<bool, DslError> {
        match &link.filter {
            None => Ok(true),
            Some(Filter::Name(name)) => Ok(matches!(
                attr_of(&DslValue::Jp(jp.clone()), "name"),
                DslValue::Str(s) if &s == name
            )),
            Some(Filter::Expr(expr)) => {
                let env = env.with_candidate(DslValue::Jp(jp.clone()));
                Ok(eval(expr, &env)?.truthy())
            }
        }
    }
}

/// Maps selector link names to join-point kind names (`function` and
/// `func` are synonyms, matching common LARA usage).
fn kind_of(link_kind: &str) -> &str {
    match link_kind {
        "func" | "function" => "function",
        "call" | "fCall" => "fCall",
        other => other,
    }
}

/// Returns `true` for join-point kinds the selector language knows.
fn known_kind(link_kind: &str) -> bool {
    matches!(kind_of(link_kind), "function" | "fCall" | "loop" | "arg")
}

/// Structural relation between a parent join point and a candidate child.
fn related(parent: &JoinPoint, child: &JoinPoint) -> bool {
    match (parent, child) {
        // anything inside a function
        (JoinPoint::Function { name }, other) => other.enclosing_function() == name,
        // an argument of a specific call site
        (
            JoinPoint::Call {
                function: pf,
                path: pp,
                callee: pc,
                ..
            },
            JoinPoint::Arg {
                function,
                path,
                callee,
                ..
            },
        ) => pf == function && pp == path && pc == callee,
        // statements nested inside a loop
        (
            JoinPoint::Loop {
                function: pf,
                path: pp,
                ..
            },
            other,
        ) => other.enclosing_function() == pf && other.path().is_some_and(|p| p.is_inside(pp)),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{FIG2_PROFILE_ARGUMENTS, FIG3_UNROLL_INNERMOST_LOOPS};
    use crate::parser::parse_aspects;
    use antarex_ir::interp::{ExecEnv, Interp};
    use antarex_ir::parse_program;
    use antarex_ir::printer::print_program;
    use antarex_ir::value::Value as IrValue;
    use std::cell::RefCell;

    #[test]
    fn fig2_weaves_profiling_calls() {
        let lib = parse_aspects(FIG2_PROFILE_ARGUMENTS).unwrap();
        let mut program = parse_program(
            "double kernel(double a[], int size) { return a[0] + size; }
             void main_loop(double buf[]) {
                 kernel(buf, 64);
                 other(buf);
                 kernel(buf, 128);
             }",
        )
        .unwrap();
        let mut weaver = Weaver::new(lib);
        weaver
            .weave(
                &mut program,
                "ProfileArguments",
                &[DslValue::from("kernel")],
            )
            .unwrap();
        let text = print_program(&program);
        assert_eq!(
            text.matches("profile_args(").count(),
            2,
            "both kernel call sites instrumented, `other` untouched:\n{text}"
        );
        assert!(
            text.contains("\"kernel\""),
            "funcName spliced inside quotes"
        );
        assert!(text.contains("buf, 64"), "argList spliced raw");
    }

    #[test]
    fn fig2_woven_program_profiles_at_runtime() {
        let lib = parse_aspects(FIG2_PROFILE_ARGUMENTS).unwrap();
        let mut program = parse_program(
            "double kernel(double a[], int size) { return a[0] + size; }
             double main_loop(double buf[]) {
                 double x = kernel(buf, 64);
                 return x + kernel(buf, 128);
             }",
        )
        .unwrap();
        Weaver::new(lib)
            .weave(
                &mut program,
                "ProfileArguments",
                &[DslValue::from("kernel")],
            )
            .unwrap();
        let mut interp = Interp::new(program);
        let seen = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&seen);
        interp.register_host(
            "profile_args",
            Box::new(move |args| {
                sink.borrow_mut().push(args.to_vec());
                Ok(IrValue::Unit)
            }),
        );
        interp
            .call(
                "main_loop",
                &[IrValue::from(vec![1.0])],
                &mut ExecEnv::new(),
            )
            .unwrap();
        let seen = seen.borrow();
        assert_eq!(seen.len(), 2);
        // name, location, then the actual argument values (array + int)
        assert_eq!(seen[0][0], IrValue::Str("kernel".into()));
        assert!(matches!(seen[0][2], IrValue::Array(_)));
        assert_eq!(seen[0][3], IrValue::Int(64));
        assert_eq!(seen[1][3], IrValue::Int(128));
    }

    #[test]
    fn fig3_unrolls_only_eligible_loops() {
        let lib = parse_aspects(FIG3_UNROLL_INNERMOST_LOOPS).unwrap();
        let mut program = parse_program(
            "int f(int n) {
                 int s = 0;
                 for (int i = 0; i < 8; i++) {           // innermost, 8 <= 16: unrolled
                     s += i;
                 }
                 for (int i = 0; i < 100; i++) {          // 100 > 16: kept
                     s += i;
                 }
                 for (int i = 0; i < 4; i++) {            // not innermost: kept
                     for (int j = 0; j < 2; j++) { s += j; }  // innermost, 2 <= 16: unrolled
                 }
                 for (int i = 0; i < n; i++) { s += i; }  // unknown count: kept
                 return s;
             }",
        )
        .unwrap();
        let mut weaver = Weaver::new(lib);
        weaver
            .weave(
                &mut program,
                "UnrollInnermostLoops",
                &[DslValue::FuncRef("f".into()), DslValue::Int(16)],
            )
            .unwrap();
        let loops = antarex_ir::analysis::loops(&program.function("f").unwrap().body);
        assert_eq!(loops.len(), 3, "8-iter and inner 2-iter loops unrolled");
        // result unchanged
        let mut interp = Interp::new(program);
        let v = interp
            .call("f", &[IrValue::Int(3)], &mut ExecEnv::new())
            .unwrap();
        let expected: i64 = (0..8).sum::<i64>()
            + (0..100).sum::<i64>()
            + 4 * (0..2).sum::<i64>()
            + (0..3).sum::<i64>();
        assert_eq!(v, IrValue::Int(expected));
    }

    #[test]
    fn condition_before_apply_also_works() {
        let lib = parse_aspects(
            "aspectdef A
               select fCall end
               condition $fCall.name == 'kernel' end
               apply
                 insert before %{probe();}%;
               end
             end",
        )
        .unwrap();
        let mut program = parse_program("void f() { kernel(); other(); }").unwrap();
        Weaver::new(lib).weave(&mut program, "A", &[]).unwrap();
        let text = print_program(&program);
        assert_eq!(text.matches("probe();").count(), 1);
    }

    #[test]
    fn insert_after_works() {
        let lib = parse_aspects(
            "aspectdef A select fCall{'kernel'} end apply insert after %{post();}%; end end",
        )
        .unwrap();
        let mut program = parse_program("void f() { kernel(); tail(); }").unwrap();
        Weaver::new(lib).weave(&mut program, "A", &[]).unwrap();
        let f = program.function("f").unwrap();
        let printed = print_program(&program);
        let kernel_pos = printed.find("kernel();").unwrap();
        let post_pos = printed.find("post();").unwrap();
        let tail_pos = printed.find("tail();").unwrap();
        assert!(kernel_pos < post_pos && post_pos < tail_pos);
        assert_eq!(f.body.len(), 3);
    }

    #[test]
    fn multiple_inserts_in_one_block_do_not_clobber() {
        let lib =
            parse_aspects("aspectdef A select fCall end apply insert before %{p();}%; end end")
                .unwrap();
        let mut program = parse_program("void f() { a(); b(); c(); }").unwrap();
        Weaver::new(lib).weave(&mut program, "A", &[]).unwrap();
        let text = print_program(&program);
        // probes also match nothing new; each original call gets one probe
        assert_eq!(text.matches("p();").count(), 3);
        let order: Vec<&str> = text
            .lines()
            .map(str::trim)
            .filter(|l| l.ends_with("();"))
            .collect();
        assert_eq!(order, vec!["p();", "a();", "p();", "b();", "p();", "c();"]);
    }

    #[test]
    fn apply_without_select_is_an_error() {
        let lib = parse_aspects("aspectdef A apply do X(); end end").unwrap();
        let mut program = parse_program("void f() { }").unwrap();
        let err = Weaver::new(lib).weave(&mut program, "A", &[]).unwrap_err();
        assert!(err.to_string().contains("without a preceding `select`"));
    }

    #[test]
    fn unknown_aspect_and_arity_errors() {
        let lib = parse_aspects("aspectdef A input x end end").unwrap();
        let mut program = parse_program("void f() { }").unwrap();
        let mut weaver = Weaver::new(lib);
        assert!(matches!(
            weaver.weave(&mut program, "Ghost", &[]),
            Err(DslError::Unresolved(_))
        ));
        assert!(weaver.weave(&mut program, "A", &[]).is_err(), "arity");
    }

    #[test]
    fn aspect_outputs_returned_as_record() {
        let lib = parse_aspects(
            "aspectdef A
               input f end
               output prep end
               call prep: PrepareSpecialize(f, 'size');
             end",
        )
        .unwrap();
        let mut program =
            parse_program("double kernel(double a[], int size) { return size; }").unwrap();
        let out = Weaver::new(lib)
            .weave(&mut program, "A", &[DslValue::from("kernel")])
            .unwrap();
        let DslValue::Record(fields) = out else {
            panic!()
        };
        let DslValue::Record(prep) = &fields["prep"] else {
            panic!()
        };
        assert_eq!(prep["function"], DslValue::Str("kernel".into()));
        assert_eq!(prep["index"], DslValue::Int(1));
    }

    #[test]
    fn dynamic_apply_captures_plan_without_executing() {
        let lib = parse_aspects(crate::figures::FIG4_SPECIALIZE_KERNEL).unwrap();
        let mut program = parse_program(
            "double kernel(double a[], int size) {
                 double s = 0.0;
                 for (int i = 0; i < size; i++) { s += a[i]; }
                 return s;
             }
             void run(double buf[]) { kernel(buf, 8); }",
        )
        .unwrap();
        let before = program.len();
        let mut weaver = Weaver::new(lib);
        weaver
            .weave(
                &mut program,
                "SpecializeKernel",
                &[DslValue::Int(4), DslValue::Int(64)],
            )
            .unwrap();
        assert_eq!(program.len(), before, "no specialization at design time");
        assert_eq!(weaver.dynamic_plans().len(), 1);
        assert!(weaver.store().borrow().is_prepared("kernel"));
    }

    #[test]
    fn aspect_can_call_aspect() {
        let lib = parse_aspects(&format!(
            "{FIG3_UNROLL_INNERMOST_LOOPS}
             aspectdef Driver
               input $func end
               call UnrollInnermostLoops($func, 32);
             end"
        ))
        .unwrap();
        let mut program = parse_program(
            "int f() { int s = 0; for (int i = 0; i < 4; i++) { s += i; } return s; }",
        )
        .unwrap();
        Weaver::new(lib)
            .weave(&mut program, "Driver", &[DslValue::FuncRef("f".into())])
            .unwrap();
        assert!(antarex_ir::analysis::loops(&program.function("f").unwrap().body).is_empty());
    }

    #[test]
    fn loop_tile_action_from_aspect() {
        let lib = parse_aspects(
            "aspectdef TileLoops
               input $func, size end
               select $func.loop{type=='for'} end
               apply do LoopTile(size); end
               condition $loop.numIter >= 16 end
             end",
        )
        .unwrap();
        let mut program = parse_program(
            "int f() { int s = 0; for (int i = 0; i < 32; i++) { s += i; } return s; }",
        )
        .unwrap();
        Weaver::new(lib)
            .weave(
                &mut program,
                "TileLoops",
                &[DslValue::FuncRef("f".into()), DslValue::Int(8)],
            )
            .unwrap();
        // the loop is now a tile nest
        let loops = antarex_ir::analysis::loops(&program.function("f").unwrap().body);
        assert_eq!(loops.len(), 2, "outer tile loop + inner intra-tile loop");
        let out = Interp::new(program)
            .call("f", &[], &mut ExecEnv::new())
            .unwrap();
        assert_eq!(out, IrValue::Int((0..32).sum()));
    }

    #[test]
    fn inline_action_from_aspect() {
        let lib = parse_aspects(
            "aspectdef InlineHelpers
               select fCall{'sq'} end
               apply do Inline(); end
             end",
        )
        .unwrap();
        let mut program = parse_program(
            "double sq(double x) { return x * x; }
             double f(double u) { return sq(u) + sq(3.0); }",
        )
        .unwrap();
        Weaver::new(lib)
            .weave(&mut program, "InlineHelpers", &[])
            .unwrap();
        let text = print_program(&program);
        let f_text = text.split("double f").nth(1).unwrap();
        assert!(!f_text.contains("sq("), "calls inlined:\n{text}");
        let out = Interp::new(program)
            .call("f", &[IrValue::Float(2.0)], &mut ExecEnv::new())
            .unwrap();
        assert_eq!(out, IrValue::Float(13.0));
    }

    #[test]
    fn unknown_action_is_unresolved() {
        let lib = parse_aspects("aspectdef A select fCall end apply do Warp(); end end").unwrap();
        let mut program = parse_program("void f() { g(); }").unwrap();
        let err = Weaver::new(lib).weave(&mut program, "A", &[]).unwrap_err();
        assert!(matches!(err, DslError::Unresolved(_)));
    }

    #[test]
    fn unknown_selector_kind_is_an_error() {
        let lib = parse_aspects("aspectdef A select warp end apply do X(); end end").unwrap();
        let mut program = parse_program("void f() { g(); }").unwrap();
        let err = Weaver::new(lib).weave(&mut program, "A", &[]).unwrap_err();
        assert!(err.to_string().contains("unknown join-point kind"), "{err}");
    }

    #[test]
    fn selector_loop_filter_by_expr() {
        let lib = parse_aspects(
            "aspectdef A
               input $func end
               select $func.loop{numIter >= 10} end
               apply do LoopUnroll('full'); end
             end",
        )
        .unwrap();
        let mut program = parse_program(
            "int f() {
                 int s = 0;
                 for (int i = 0; i < 4; i++) { s += i; }
                 for (int i = 0; i < 12; i++) { s += i; }
                 return s;
             }",
        )
        .unwrap();
        Weaver::new(lib)
            .weave(&mut program, "A", &[DslValue::FuncRef("f".into())])
            .unwrap();
        let loops = antarex_ir::analysis::loops(&program.function("f").unwrap().body);
        assert_eq!(loops.len(), 1, "only the 12-iteration loop unrolled");
    }
}
