//! Shared operational semantics of mini-C: the numeric core used by
//! **both** execution engines.
//!
//! The tree-walking [`crate::interp::Interp`] (the reference the tests
//! hold the VM to) and the bytecode VM (`antarex-vm`, the engine
//! production code calls by name) must agree bit-for-bit on every value, every cost unit
//! and every precision-weighted energy contribution. The only way to make
//! that a structural guarantee rather than a test-enforced hope is to
//! have exactly one implementation of the dynamic operations — binary
//! arithmetic, unary operators, math builtins, scalar coercion — that
//! both engines call. This module is that implementation; the engines
//! differ only in *how they walk the program*, never in *what an
//! operation does or costs*.
//!
//! All cost charges route through [`ExecStats::charge`]
//! (overflow-checked) and all flop counting through
//! [`ExecStats::count_flops`] (saturating count, single `f64` energy
//! addition), so overflow behaviour is engine-independent too.

use crate::ast::{BinOp, UnOp};
use crate::cost::{CostModel, ExecStats};
use crate::error::IrError;
use crate::types::Type;
use crate::value::Value;

/// Precision-energy weight of one flop computed under precision context
/// `prec_ctx` (mantissa bits of the destination): `(prec_ctx / 52)²`.
/// Multiplier energy grows roughly quadratically with operand width.
#[inline]
pub fn flop_unit(prec_ctx: u8) -> f64 {
    (f64::from(prec_ctx) / 52.0).powi(2)
}

/// Applies a binary operator with full cost/flop accounting.
///
/// Short-circuit `&&`/`||` are *not* handled here — they never evaluate
/// through this path (the engines branch before evaluating the right
/// operand) — and reaching them is a panic.
///
/// # Errors
///
/// [`IrError::Type`] on operand mismatches, [`IrError::Eval`] on division
/// by zero, [`IrError::CostOverflow`] when accounting overflows.
///
/// # Panics
///
/// Panics if called with [`BinOp::And`] or [`BinOp::Or`].
#[inline]
pub(crate) fn apply_binary(
    op: BinOp,
    l: Value,
    r: Value,
    model: &CostModel,
    prec_ctx: u8,
    stats: &mut ExecStats,
) -> Result<Value, IrError> {
    apply_binary_with(op, &l, &r, model, || flop_unit(prec_ctx), stats)
}

/// `apply_binary` with borrowed operands and a lazily computed flop
/// unit — the hot-path entry the bytecode VM uses (it caches
/// [`flop_unit`] alongside its precision context, so `unit` is a
/// constant closure there). The unit closure runs at most once, only
/// when the operation actually counts a flop, so the integer path pays
/// nothing for it. Semantics, charge order and error text are identical
/// to `apply_binary` — the wrapper *is* this function.
///
/// # Errors
///
/// [`IrError::Type`] on operand mismatches, [`IrError::Eval`] on division
/// by zero, [`IrError::CostOverflow`] when accounting overflows.
///
/// # Panics
///
/// Panics if called with [`BinOp::And`] or [`BinOp::Or`].
#[inline]
pub fn apply_binary_with(
    op: BinOp,
    l: &Value,
    r: &Value,
    model: &CostModel,
    unit: impl FnOnce() -> f64,
    stats: &mut ExecStats,
) -> Result<Value, IrError> {
    use BinOp::*;
    // operand-kind dispatch: the arms are mutually exclusive, so trying
    // the overwhelmingly common same-kind pairs first changes nothing
    // observable relative to the string/float/int priority order; the
    // mixed/error cases live out of line to keep this path small
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => {
            let cost = match op {
                Mul => model.int_mul,
                Div | Rem => model.int_div,
                _ => model.int_op,
            };
            stats.charge(cost)?;
            int_binary(op, *a, *b)
        }
        (Value::Float(a), Value::Float(b)) => float_binary(op, *a, *b, model, unit, stats),
        _ => apply_binary_mixed(op, l, r, model, unit, stats),
    }
}

/// The float arm of [`apply_binary_with`]: charge, count the flop, apply.
#[inline]
fn float_binary(
    op: BinOp,
    a: f64,
    b: f64,
    model: &CostModel,
    unit: impl FnOnce() -> f64,
    stats: &mut ExecStats,
) -> Result<Value, IrError> {
    use BinOp::*;
    let (cost, is_flop) = match op {
        Mul => (model.float_mul, true),
        Div => (model.float_div, true),
        Add | Sub => (model.float_op, true),
        _ => (model.float_op, false),
    };
    stats.charge(cost)?;
    if is_flop {
        stats.count_flops(1, unit());
    }
    match op {
        Add => Ok(Value::Float(a + b)),
        Sub => Ok(Value::Float(a - b)),
        Mul => Ok(Value::Float(a * b)),
        Div => {
            if b == 0.0 {
                Err(IrError::Eval("float division by zero".into()))
            } else {
                Ok(Value::Float(a / b))
            }
        }
        Rem => Err(IrError::Type("`%` requires integer operands".into())),
        Eq => Ok(Value::Int(i64::from(a == b))),
        Ne => Ok(Value::Int(i64::from(a != b))),
        Lt => Ok(Value::Int(i64::from(a < b))),
        Le => Ok(Value::Int(i64::from(a <= b))),
        Gt => Ok(Value::Int(i64::from(a > b))),
        Ge => Ok(Value::Int(i64::from(a >= b))),
        And | Or => unreachable!("handled before operand evaluation"),
    }
}

/// Mixed-kind and error cases of [`apply_binary_with`], out of line.
/// Same priority order as always: strings, float promotion, integers.
fn apply_binary_mixed(
    op: BinOp,
    l: &Value,
    r: &Value,
    model: &CostModel,
    unit: impl FnOnce() -> f64,
    stats: &mut ExecStats,
) -> Result<Value, IrError> {
    use BinOp::*;
    match (l, r) {
        // string equality for instrumentation predicates
        (Value::Str(a), Value::Str(b)) => {
            stats.charge(model.int_op)?;
            match op {
                Eq => Ok(Value::Int(i64::from(a == b))),
                Ne => Ok(Value::Int(i64::from(a != b))),
                _ => Err(IrError::Type(format!(
                    "operator {op} not defined on strings"
                ))),
            }
        }
        _ if l.is_float() || r.is_float() => {
            let a = l
                .as_f64()
                .ok_or_else(|| IrError::Type(format!("non-numeric operand {l}")))?;
            let b = r
                .as_f64()
                .ok_or_else(|| IrError::Type(format!("non-numeric operand {r}")))?;
            let (cost, is_flop) = match op {
                Mul => (model.float_mul, true),
                Div => (model.float_div, true),
                Add | Sub => (model.float_op, true),
                _ => (model.float_op, false),
            };
            stats.charge(cost)?;
            if is_flop {
                stats.count_flops(1, unit());
            }
            match op {
                Add => Ok(Value::Float(a + b)),
                Sub => Ok(Value::Float(a - b)),
                Mul => Ok(Value::Float(a * b)),
                Div => {
                    if b == 0.0 {
                        Err(IrError::Eval("float division by zero".into()))
                    } else {
                        Ok(Value::Float(a / b))
                    }
                }
                Rem => Err(IrError::Type("`%` requires integer operands".into())),
                Eq => Ok(Value::Int(i64::from(a == b))),
                Ne => Ok(Value::Int(i64::from(a != b))),
                Lt => Ok(Value::Int(i64::from(a < b))),
                Le => Ok(Value::Int(i64::from(a <= b))),
                Gt => Ok(Value::Int(i64::from(a > b))),
                Ge => Ok(Value::Int(i64::from(a >= b))),
                And | Or => unreachable!("handled before operand evaluation"),
            }
        }
        _ => {
            let a = l
                .as_i64()
                .ok_or_else(|| IrError::Type(format!("non-numeric operand {l}")))?;
            let b = r
                .as_i64()
                .ok_or_else(|| IrError::Type(format!("non-numeric operand {r}")))?;
            let cost = match op {
                Mul => model.int_mul,
                Div | Rem => model.int_div,
                _ => model.int_op,
            };
            stats.charge(cost)?;
            int_binary(op, a, b)
        }
    }
}

/// The integer arm of [`apply_binary_with`] (charges already applied).
#[inline]
fn int_binary(op: BinOp, a: i64, b: i64) -> Result<Value, IrError> {
    use BinOp::*;
    match op {
        Add => Ok(Value::Int(a.wrapping_add(b))),
        Sub => Ok(Value::Int(a.wrapping_sub(b))),
        Mul => Ok(Value::Int(a.wrapping_mul(b))),
        Div => {
            if b == 0 {
                Err(IrError::Eval("integer division by zero".into()))
            } else {
                Ok(Value::Int(a.wrapping_div(b)))
            }
        }
        Rem => {
            if b == 0 {
                Err(IrError::Eval("integer remainder by zero".into()))
            } else {
                Ok(Value::Int(a.wrapping_rem(b)))
            }
        }
        Eq => Ok(Value::Int(i64::from(a == b))),
        Ne => Ok(Value::Int(i64::from(a != b))),
        Lt => Ok(Value::Int(i64::from(a < b))),
        Le => Ok(Value::Int(i64::from(a <= b))),
        Gt => Ok(Value::Int(i64::from(a > b))),
        Ge => Ok(Value::Int(i64::from(a >= b))),
        And | Or => unreachable!("handled before operand evaluation"),
    }
}

/// Applies a unary operator with cost/flop accounting.
///
/// # Errors
///
/// [`IrError::Type`] when negating a non-number,
/// [`IrError::CostOverflow`] when accounting overflows.
#[inline]
pub(crate) fn apply_unary(
    op: UnOp,
    value: Value,
    model: &CostModel,
    prec_ctx: u8,
    stats: &mut ExecStats,
) -> Result<Value, IrError> {
    apply_unary_with(op, &value, model, || flop_unit(prec_ctx), stats)
}

/// `apply_unary` with a borrowed operand and a lazily computed flop
/// unit (see [`apply_binary_with`]). Semantics are identical.
///
/// # Errors
///
/// [`IrError::Type`] when negating a non-number,
/// [`IrError::CostOverflow`] when accounting overflows.
#[inline]
pub fn apply_unary_with(
    op: UnOp,
    value: &Value,
    model: &CostModel,
    unit: impl FnOnce() -> f64,
    stats: &mut ExecStats,
) -> Result<Value, IrError> {
    match op {
        UnOp::Neg => match value {
            Value::Int(v) => {
                stats.charge(model.int_op)?;
                Ok(Value::Int(-v))
            }
            Value::Float(v) => {
                stats.charge(model.float_op)?;
                stats.count_flops(1, unit());
                Ok(Value::Float(-v))
            }
            other => Err(IrError::Type(format!("cannot negate {other}"))),
        },
        UnOp::Not => {
            stats.charge(model.int_op)?;
            Ok(Value::Int(i64::from(!value.truthy())))
        }
    }
}

/// Built-in math intrinsics (`sqrt`, `exp`, `log`, `fabs`, `fmin`,
/// `fmax`, `pow`), evaluated natively with FP cost accounting. Returns
/// `Ok(None)` when `name` is not a builtin. User programs and host
/// registrations take precedence over builtins (the engines check those
/// first).
///
/// # Errors
///
/// [`IrError::Type`] on bad arguments, [`IrError::Eval`] on `log` of a
/// non-positive number, [`IrError::CostOverflow`] when accounting
/// overflows.
pub fn try_builtin(
    name: &str,
    args: &[Value],
    model: &CostModel,
    prec_ctx: u8,
    stats: &mut ExecStats,
) -> Result<Option<Value>, IrError> {
    let unary = |args: &[Value]| -> Result<f64, IrError> {
        match args {
            [v] => v
                .as_f64()
                .ok_or_else(|| IrError::Type(format!("`{name}` expects a number"))),
            _ => Err(IrError::Type(format!("`{name}` expects one argument"))),
        }
    };
    let binary = |args: &[Value]| -> Result<(f64, f64), IrError> {
        match args {
            [a, b] => Ok((
                a.as_f64()
                    .ok_or_else(|| IrError::Type(format!("`{name}` expects numbers")))?,
                b.as_f64()
                    .ok_or_else(|| IrError::Type(format!("`{name}` expects numbers")))?,
            )),
            _ => Err(IrError::Type(format!("`{name}` expects two arguments"))),
        }
    };
    let (value, cost, flops) = match name {
        "sqrt" => (unary(args)?.sqrt(), model.float_div, 1),
        "exp" => (unary(args)?.exp(), 2 * model.float_div, 4),
        "log" => {
            let x = unary(args)?;
            if x <= 0.0 {
                return Err(IrError::Eval("log of a non-positive number".into()));
            }
            (x.ln(), 2 * model.float_div, 4)
        }
        "fabs" => (unary(args)?.abs(), model.float_op, 1),
        "fmin" => {
            let (a, b) = binary(args)?;
            (a.min(b), model.float_op, 1)
        }
        "fmax" => {
            let (a, b) = binary(args)?;
            (a.max(b), model.float_op, 1)
        }
        "pow" => {
            let (a, b) = binary(args)?;
            (a.powf(b), 3 * model.float_div, 8)
        }
        _ => return Ok(None),
    };
    stats.charge(cost)?;
    stats.count_flops(flops, flop_unit(prec_ctx));
    Ok(Some(Value::Float(value)))
}

/// The zero/default value of a declared type.
#[inline]
pub fn zero_of(ty: Type) -> Value {
    match ty {
        Type::Int => Value::Int(0),
        Type::Str => Value::Str(String::new()),
        _ => Value::Float(0.0),
    }
}

/// Coerces a scalar value into a declared type (C-like implicit
/// conversion: float→int truncates, int→float widens).
///
/// # Errors
///
/// [`IrError::Type`] when no conversion exists (e.g. array into scalar).
#[inline]
pub fn coerce_scalar(value: Value, ty: Type) -> Result<Value, IrError> {
    match (ty, value) {
        (Type::Int, Value::Int(v)) => Ok(Value::Int(v)),
        (Type::Int, Value::Float(v)) => Ok(Value::Int(v as i64)),
        (t, Value::Int(v)) if t.is_float() => Ok(Value::Float(v as f64)),
        (t, Value::Float(v)) if t.is_float() => Ok(Value::Float(v)),
        (Type::Str, Value::Str(s)) => Ok(Value::Str(s)),
        (ty, other) => Err(IrError::Type(format!("cannot store {other} into {ty}"))),
    }
}

/// As [`coerce_scalar`], but lets arrays pass through untouched (used on
/// whole-array assignment).
///
/// # Errors
///
/// Propagates [`coerce_scalar`] errors for non-array values.
#[inline]
pub fn coerce_scalar_or_array(value: Value, ty: Type) -> Result<Value, IrError> {
    match value {
        Value::Array(_) => Ok(value),
        other => coerce_scalar(other, ty),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_unit_is_quadratic() {
        assert_eq!(flop_unit(52), 1.0);
        assert_eq!(flop_unit(26), 0.25);
    }

    #[test]
    fn binary_overflow_is_typed() {
        let model = CostModel {
            int_op: u64::MAX,
            ..CostModel::new()
        };
        let mut stats = ExecStats::default();
        stats.charge(10).unwrap();
        let err = apply_binary(
            BinOp::Add,
            Value::Int(1),
            Value::Int(2),
            &model,
            52,
            &mut stats,
        )
        .unwrap_err();
        assert_eq!(err, IrError::CostOverflow);
    }

    #[test]
    fn builtin_log_checks_domain_before_charging() {
        let mut stats = ExecStats::default();
        let err = try_builtin(
            "log",
            &[Value::Float(-1.0)],
            &CostModel::new(),
            52,
            &mut stats,
        )
        .unwrap_err();
        assert!(matches!(err, IrError::Eval(_)));
        assert_eq!(stats.cost, 0, "domain error precedes the charge");
    }

    #[test]
    fn coercions_match_c_semantics() {
        assert_eq!(
            coerce_scalar(Value::Float(3.9), Type::Int).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            coerce_scalar(Value::Int(2), Type::F64).unwrap(),
            Value::Float(2.0)
        );
        assert!(coerce_scalar(Value::Array(vec![]), Type::Int).is_err());
        assert_eq!(
            coerce_scalar_or_array(Value::Array(vec![Value::Int(1)]), Type::Int).unwrap(),
            Value::Array(vec![Value::Int(1)])
        );
    }
}
