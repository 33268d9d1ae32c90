//! Evaluation of aspect expressions.
//!
//! Expressions run against an [`Env`] of bound variables (aspect inputs,
//! join-point bindings like `$fCall`, labelled call results like `spOut`)
//! plus an optional *candidate* value whose attributes resolve as bare
//! identifiers — that is how `{type=='for'}` filters see the loop under
//! test.

use crate::ast::{DBinOp, DExpr, DUnOp};
use crate::error::DslError;
use crate::value::DslValue;
use antarex_ir::joinpoint::JoinPoint;
use std::collections::HashMap;

/// Variable bindings for expression evaluation.
#[derive(Debug, Clone, Default)]
pub struct Env {
    vars: HashMap<String, DslValue>,
    candidate: Option<DslValue>,
}

impl Env {
    /// Creates an empty environment.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Binds a variable, returning the previous value if shadowed.
    pub(crate) fn bind(&mut self, name: impl Into<String>, value: DslValue) -> Option<DslValue> {
        self.vars.insert(name.into(), value)
    }

    /// Looks up a variable.
    pub(crate) fn get(&self, name: &str) -> Option<&DslValue> {
        self.vars.get(name)
    }

    /// Returns a copy with the filter candidate installed: bare identifiers
    /// that are not bound variables resolve to the candidate's attributes.
    pub(crate) fn with_candidate(&self, candidate: DslValue) -> Env {
        let mut env = self.clone();
        env.candidate = Some(candidate);
        env
    }
}

/// Evaluates an aspect expression.
///
/// # Errors
///
/// Returns [`DslError::Unresolved`] for unknown variables and
/// [`DslError::Eval`] for type errors and division by zero. Missing join
/// point *attributes* are not errors: they evaluate to
/// [`DslValue::Null`], which fails comparisons, so conditions like
/// `$loop.numIter <= threshold` are simply false for loops with unknown
/// trip counts.
pub(crate) fn eval(expr: &DExpr, env: &Env) -> Result<DslValue, DslError> {
    match expr {
        DExpr::Int(v) => Ok(DslValue::Int(*v)),
        DExpr::Float(v) => Ok(DslValue::Float(*v)),
        DExpr::Str(s) => Ok(DslValue::Str(s.clone())),
        DExpr::Bool(b) => Ok(DslValue::Bool(*b)),
        DExpr::Null => Ok(DslValue::Null),
        DExpr::Var(name) => {
            if let Some(value) = env.get(name) {
                return Ok(value.clone());
            }
            if let Some(candidate) = &env.candidate {
                let attr = attr_of(candidate, name);
                if attr != DslValue::Null {
                    return Ok(attr);
                }
            }
            Err(DslError::Unresolved(name.clone()))
        }
        DExpr::Attr(base, name) => {
            let base = eval(base, env)?;
            Ok(attr_of(&base, name))
        }
        DExpr::Unary(op, inner) => {
            let value = eval(inner, env)?;
            match op {
                DUnOp::Not => Ok(DslValue::Bool(!value.truthy())),
                DUnOp::Neg => match value {
                    DslValue::Int(v) => Ok(DslValue::Int(-v)),
                    DslValue::Float(v) => Ok(DslValue::Float(-v)),
                    other => Err(DslError::Eval(format!("cannot negate {other}"))),
                },
            }
        }
        DExpr::Binary(op, lhs, rhs) => {
            if *op == DBinOp::And {
                let l = eval(lhs, env)?;
                if !l.truthy() {
                    return Ok(DslValue::Bool(false));
                }
                return Ok(DslValue::Bool(eval(rhs, env)?.truthy()));
            }
            if *op == DBinOp::Or {
                let l = eval(lhs, env)?;
                if l.truthy() {
                    return Ok(DslValue::Bool(true));
                }
                return Ok(DslValue::Bool(eval(rhs, env)?.truthy()));
            }
            let l = eval(lhs, env)?;
            let r = eval(rhs, env)?;
            binary(*op, &l, &r)
        }
    }
}

/// Resolves an attribute on a value: join points expose their static
/// attributes, records their fields, function references their name.
/// Unknown attributes yield [`DslValue::Null`].
pub(crate) fn attr_of(value: &DslValue, name: &str) -> DslValue {
    match value {
        DslValue::Jp(jp) => jp
            .attribute(name)
            .map(DslValue::from)
            .unwrap_or(DslValue::Null),
        DslValue::Record(fields) => fields.get(name).cloned().unwrap_or(DslValue::Null),
        DslValue::FuncRef(func) => match name {
            "name" => DslValue::Str(func.clone()),
            _ => DslValue::Null,
        },
        _ => DslValue::Null,
    }
}

fn binary(op: DBinOp, l: &DslValue, r: &DslValue) -> Result<DslValue, DslError> {
    use DBinOp::*;
    match op {
        Eq => return Ok(DslValue::Bool(values_equal(l, r))),
        Ne => return Ok(DslValue::Bool(!values_equal(l, r))),
        _ => {}
    }
    // string concatenation and comparison
    if let (Some(a), Some(b)) = (l.as_str(), r.as_str()) {
        return match op {
            Add => Ok(DslValue::Str(format!("{a}{b}"))),
            Lt => Ok(DslValue::Bool(a < b)),
            Le => Ok(DslValue::Bool(a <= b)),
            Gt => Ok(DslValue::Bool(a > b)),
            Ge => Ok(DslValue::Bool(a >= b)),
            _ => Err(DslError::Eval(
                "operator not defined on strings".to_string(),
            )),
        };
    }
    // Null poisons ordering comparisons to false, arithmetic to Null
    if matches!(l, DslValue::Null) || matches!(r, DslValue::Null) {
        return match op {
            Lt | Le | Gt | Ge => Ok(DslValue::Bool(false)),
            _ => Ok(DslValue::Null),
        };
    }
    let (a, b) = match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(DslError::Eval(format!(
                "operands {l} and {r} are not comparable"
            )))
        }
    };
    let both_int = matches!(l, DslValue::Int(_) | DslValue::Bool(_))
        && matches!(r, DslValue::Int(_) | DslValue::Bool(_));
    let arith = |v: f64| -> DslValue {
        if both_int {
            DslValue::Int(v as i64)
        } else {
            DslValue::Float(v)
        }
    };
    match op {
        Add => Ok(arith(a + b)),
        Sub => Ok(arith(a - b)),
        Mul => Ok(arith(a * b)),
        Div => {
            if b == 0.0 {
                Err(DslError::Eval("division by zero".into()))
            } else if both_int {
                Ok(DslValue::Int((a as i64) / (b as i64)))
            } else {
                Ok(DslValue::Float(a / b))
            }
        }
        Rem => {
            if both_int {
                let bi = b as i64;
                if bi == 0 {
                    Err(DslError::Eval("remainder by zero".into()))
                } else {
                    Ok(DslValue::Int((a as i64) % bi))
                }
            } else {
                Err(DslError::Eval("`%` requires integers".into()))
            }
        }
        Lt => Ok(DslValue::Bool(a < b)),
        Le => Ok(DslValue::Bool(a <= b)),
        Gt => Ok(DslValue::Bool(a > b)),
        Ge => Ok(DslValue::Bool(a >= b)),
        Eq | Ne | And | Or => unreachable!("handled above"),
    }
}

fn values_equal(l: &DslValue, r: &DslValue) -> bool {
    if let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) {
        return a == b;
    }
    if let (Some(a), Some(b)) = (l.as_str(), r.as_str()) {
        return a == b;
    }
    matches!((l, r), (DslValue::Null, DslValue::Null))
}

/// Binds a join point under its canonical variable name (`$fCall`, `$loop`,
/// `$arg`, `$func`).
pub(crate) fn bind_join_point(env: &mut Env, jp: &JoinPoint) {
    let var = match jp.kind_name() {
        "fCall" => "$fCall",
        "loop" => "$loop",
        "arg" => "$arg",
        "function" => "$func",
        other => other,
    };
    env.bind(var, DslValue::Jp(jp.clone()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_dsl_expr;

    fn eval_str(src: &str, env: &Env) -> DslValue {
        eval(&parse_dsl_expr(src).unwrap(), env).unwrap()
    }

    #[test]
    fn arithmetic_and_types() {
        let env = Env::new();
        assert_eq!(eval_str("1 + 2 * 3", &env), DslValue::Int(7));
        assert_eq!(eval_str("7 / 2", &env), DslValue::Int(3));
        assert_eq!(eval_str("7.0 / 2", &env), DslValue::Float(3.5));
        assert_eq!(eval_str("7 % 3", &env), DslValue::Int(1));
        assert_eq!(eval_str("-3 + 1", &env), DslValue::Int(-2));
    }

    #[test]
    fn string_operations() {
        let env = Env::new();
        assert_eq!(eval_str("'a' + 'b'", &env), DslValue::Str("ab".into()));
        assert_eq!(eval_str("'a' < 'b'", &env), DslValue::Bool(true));
        assert_eq!(eval_str("'x' == 'x'", &env), DslValue::Bool(true));
    }

    #[test]
    fn logic_short_circuits() {
        let env = Env::new();
        // `1/0` on the right of || must not evaluate
        assert_eq!(eval_str("true || 1 / 0 > 0", &env), DslValue::Bool(true));
        assert_eq!(eval_str("false && 1 / 0 > 0", &env), DslValue::Bool(false));
        assert_eq!(eval_str("!null", &env), DslValue::Bool(true));
    }

    #[test]
    fn null_comparisons_fail_closed() {
        let env = Env::new();
        assert_eq!(eval_str("null <= 4", &env), DslValue::Bool(false));
        assert_eq!(eval_str("null >= 4", &env), DslValue::Bool(false));
        assert_eq!(eval_str("null == null", &env), DslValue::Bool(true));
        assert_eq!(eval_str("null == 4", &env), DslValue::Bool(false));
    }

    #[test]
    fn variables_and_attrs() {
        let mut env = Env::new();
        env.bind("threshold", DslValue::Int(32));
        env.bind(
            "spOut",
            DslValue::record([("$func", DslValue::FuncRef("kernel__size_8".into()))]),
        );
        assert_eq!(eval_str("threshold + 1", &env), DslValue::Int(33));
        assert_eq!(
            eval_str("spOut.$func", &env),
            DslValue::FuncRef("kernel__size_8".into())
        );
        assert_eq!(
            eval_str("spOut.$func.name", &env),
            DslValue::Str("kernel__size_8".into())
        );
        assert_eq!(eval_str("spOut.missing", &env), DslValue::Null);
    }

    #[test]
    fn unresolved_variable_is_an_error() {
        let err = eval(&parse_dsl_expr("ghost + 1").unwrap(), &Env::new()).unwrap_err();
        assert_eq!(err, DslError::Unresolved("ghost".into()));
    }

    #[test]
    fn candidate_attributes_resolve_bare() {
        use antarex_ir::joinpoint::{JoinPoint, LoopKind};
        let jp = JoinPoint::Loop {
            function: "f".into(),
            path: antarex_ir::NodePath::root(0),
            kind: LoopKind::For,
            num_iter: Some(8),
            is_innermost: true,
        };
        let env = Env::new().with_candidate(DslValue::Jp(jp));
        assert_eq!(eval_str("type == 'for'", &env), DslValue::Bool(true));
        assert_eq!(eval_str("numIter >= 4", &env), DslValue::Bool(true));
    }

    #[test]
    fn join_point_condition_from_fig3() {
        use antarex_ir::joinpoint::{JoinPoint, LoopKind};
        let mut env = Env::new();
        env.bind("threshold", DslValue::Int(32));
        let mut bindable = Env::new();
        bindable.bind("threshold", DslValue::Int(32));
        let jp = JoinPoint::Loop {
            function: "f".into(),
            path: antarex_ir::NodePath::root(0),
            kind: LoopKind::For,
            num_iter: None, // dynamic bound
            is_innermost: true,
        };
        bind_join_point(&mut bindable, &jp);
        // numIter is Null -> condition is false, not an error
        assert_eq!(
            eval_str("$loop.isInnermost && $loop.numIter <= threshold", &bindable),
            DslValue::Bool(false)
        );
    }

    #[test]
    fn division_by_zero_errors() {
        assert!(eval(&parse_dsl_expr("1 / 0").unwrap(), &Env::new()).is_err());
        assert!(eval(&parse_dsl_expr("1 % 0").unwrap(), &Env::new()).is_err());
    }
}
