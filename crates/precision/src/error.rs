//! Output-quality metrics for precision tuning.

use antarex_ir::value::Value;

/// Relative error of `approx` against `exact`, with an absolute fallback
/// near zero: `|approx - exact| / max(|exact|, 1e-12)`.
pub(crate) fn rel_error(exact: f64, approx: f64) -> f64 {
    (approx - exact).abs() / exact.abs().max(1e-12)
}

/// Maximum relative error across paired outputs. Non-numeric or
/// length-mismatched pairs count as infinite error (fail closed).
pub(crate) fn max_rel_error(exact: &[Value], approx: &[Value]) -> f64 {
    if exact.len() != approx.len() {
        return f64::INFINITY;
    }
    exact
        .iter()
        .zip(approx)
        .map(|(e, a)| value_rel_error(e, a))
        .fold(0.0, f64::max)
}

fn value_rel_error(exact: &Value, approx: &Value) -> f64 {
    match (exact, approx) {
        (Value::Array(e), Value::Array(a)) => {
            if e.len() != a.len() {
                return f64::INFINITY;
            }
            e.iter()
                .zip(a)
                .map(|(x, y)| value_rel_error(x, y))
                .fold(0.0, f64::max)
        }
        _ => match (exact.as_f64(), approx.as_f64()) {
            (Some(e), Some(a)) => {
                if e.is_nan() && a.is_nan() {
                    0.0
                } else {
                    rel_error(e, a)
                }
            }
            _ => f64::INFINITY,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_error_basic() {
        assert_eq!(rel_error(2.0, 2.0), 0.0);
        assert!((rel_error(2.0, 2.2) - 0.1).abs() < 1e-12);
        // near-zero exact values fall back to absolute scale
        assert!(rel_error(0.0, 1e-6) > 0.0);
    }

    #[test]
    fn max_rel_error_over_values() {
        let exact = [Value::Float(1.0), Value::Float(10.0)];
        let approx = [Value::Float(1.0), Value::Float(11.0)];
        assert!((max_rel_error(&exact, &approx) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn arrays_compared_elementwise() {
        let exact = [Value::from(vec![1.0, 2.0])];
        let approx = [Value::from(vec![1.0, 2.1])];
        assert!((max_rel_error(&exact, &approx) - 0.05).abs() < 1e-12);
        let short = [Value::from(vec![1.0])];
        assert_eq!(max_rel_error(&exact, &short), f64::INFINITY);
    }

    #[test]
    fn type_mismatch_is_infinite() {
        let exact = [Value::Float(1.0)];
        let approx = [Value::Str("oops".into())];
        assert_eq!(max_rel_error(&exact, &approx), f64::INFINITY);
    }

    #[test]
    fn int_outputs_compare_numerically() {
        let exact = [Value::Int(10)];
        let approx = [Value::Int(10)];
        assert_eq!(max_rel_error(&exact, &approx), 0.0);
    }
}
