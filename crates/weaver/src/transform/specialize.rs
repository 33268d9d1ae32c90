//! Function specialization (`Specialize($fCall, arg, value)`, paper Fig. 4).
//!
//! Specialization clones a function, binds one parameter to a concrete
//! runtime value (constant propagation), folds the result, and gives the
//! clone a derived name. Combined with [`unroll`](super::unroll) — whose
//! trip counts become constant after binding a size parameter — this is the
//! split-compilation payoff the paper describes: the *offline* step prepared
//! the call site, the *online* step stamps out a version for the observed
//! value.

use super::dce::dce_fixpoint;
use super::fold::fold_block;
use super::subst::substitute_block;
use antarex_ir::value::Value;
use antarex_ir::{Expr, Function, Program};
use std::fmt;

/// Why specialization failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecializeError {
    /// The function to specialize does not exist.
    UnknownFunction(String),
    /// The function has no parameter with the given name.
    UnknownParam {
        /// Function name.
        function: String,
        /// Offending parameter name.
        param: String,
    },
    /// The binding value cannot appear as a source literal (arrays, unit).
    UnsupportedValue(String),
}

impl fmt::Display for SpecializeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecializeError::UnknownFunction(name) => write!(f, "unknown function `{name}`"),
            SpecializeError::UnknownParam { function, param } => {
                write!(f, "function `{function}` has no parameter `{param}`")
            }
            SpecializeError::UnsupportedValue(what) => {
                write!(f, "cannot specialize on non-scalar value {what}")
            }
        }
    }
}

impl std::error::Error for SpecializeError {}

/// Derives the name of the specialized version of `function` with `param`
/// bound to `value` (e.g. `kernel__size_64`).
pub(crate) fn specialized_name(function: &str, param: &str, value: &Value) -> String {
    let tag = match value {
        Value::Int(v) => v.to_string().replace('-', "m"),
        Value::Float(v) => format!("{v}").replace('-', "m").replace('.', "p"),
        other => format!("{other}"),
    };
    format!("{function}__{param}_{tag}")
}

/// Builds a specialized clone of `function` with `param` bound to `value`.
///
/// The clone substitutes the value throughout the body and constant-folds.
/// The bound parameter is *kept* in the signature (its incoming value is
/// simply never read), so existing call sites — and the runtime dispatcher
/// that redirects them — keep passing the same argument list. The caller is
/// responsible for inserting the returned function into the program (and
/// for updating call sites or a version table).
///
/// # Errors
///
/// See [`SpecializeError`].
pub fn specialize(
    program: &Program,
    function: &str,
    param: &str,
    value: &Value,
) -> Result<Function, SpecializeError> {
    let original = program
        .function(function)
        .ok_or_else(|| SpecializeError::UnknownFunction(function.to_string()))?;
    let index = original
        .param_index(param)
        .ok_or_else(|| SpecializeError::UnknownParam {
            function: function.to_string(),
            param: param.to_string(),
        })?;
    let literal = match value {
        Value::Int(v) => Expr::Int(*v),
        Value::Float(v) => Expr::Float(*v),
        Value::Str(s) => Expr::Str(s.clone()),
        other => return Err(SpecializeError::UnsupportedValue(other.to_string())),
    };
    let _ = index; // parameter kept for call compatibility; value unused
    let mut body = fold_block(&substitute_block(&original.body, param, &literal));
    dce_fixpoint(&mut body); // folding often leaves dead setup stores
    Ok(Function::new(
        specialized_name(function, param, value),
        original.ret,
        original.params.clone(),
        body,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use antarex_ir::interp::{ExecEnv, Interp};
    use antarex_ir::parse_program;

    const KERNEL: &str = "double kernel(double a[], int size) {
        double s = 0.0;
        for (int i = 0; i < size; i++) { s += a[i] * a[i]; }
        if (size > 100) { s = s / 2.0; }
        return s;
    }";

    #[test]
    fn specialization_preserves_result() {
        let program = parse_program(KERNEL).unwrap();
        let spec = specialize(&program, "kernel", "size", &Value::Int(4)).unwrap();
        assert_eq!(spec.name, "kernel__size_4");
        assert_eq!(
            spec.params.len(),
            2,
            "signature kept for call compatibility"
        );

        let mut program = program;
        program.insert(spec);
        let data = Value::from(vec![1.0, 2.0, 3.0, 4.0]);
        let mut interp = Interp::new(program);
        let generic = interp
            .call(
                "kernel",
                &[data.clone(), Value::Int(4)],
                &mut ExecEnv::new(),
            )
            .unwrap();
        // the bound parameter's incoming value is ignored: pass garbage
        let specialized = interp
            .call(
                "kernel__size_4",
                &[data, Value::Int(999)],
                &mut ExecEnv::new(),
            )
            .unwrap();
        assert_eq!(generic, specialized);
    }

    #[test]
    fn specialization_makes_trip_count_constant() {
        use antarex_ir::analysis::trip_count;
        let program = parse_program(KERNEL).unwrap();
        assert_eq!(
            trip_count(&program.function("kernel").unwrap().body[1]),
            None
        );
        let spec = specialize(&program, "kernel", "size", &Value::Int(8)).unwrap();
        assert_eq!(trip_count(&spec.body[1]), Some(8));
    }

    #[test]
    fn specialization_prunes_dead_branch() {
        let program = parse_program(KERNEL).unwrap();
        let spec = specialize(&program, "kernel", "size", &Value::Int(8)).unwrap();
        // size > 100 folds to false: if-statement removed
        assert_eq!(spec.body.len(), 3, "decl, loop, return — branch pruned");
    }

    #[test]
    fn specialize_plus_unroll_beats_generic() {
        use crate::transform::unroll::unroll_full;
        use antarex_ir::NodePath;
        let program = parse_program(KERNEL).unwrap();
        let mut spec = specialize(&program, "kernel", "size", &Value::Int(16)).unwrap();
        unroll_full(&mut spec.body, &NodePath::root(1)).unwrap();
        let spec_name = spec.name.clone();
        let mut program = program;
        program.insert(spec);

        let data = Value::from(vec![0.5; 16]);
        let mut interp = Interp::new(program);
        let mut env_generic = ExecEnv::new();
        let generic = interp
            .call("kernel", &[data.clone(), Value::Int(16)], &mut env_generic)
            .unwrap();
        let mut env_spec = ExecEnv::new();
        let specialized = interp
            .call(&spec_name, &[data, Value::Int(16)], &mut env_spec)
            .unwrap();
        assert_eq!(generic, specialized);
        assert!(
            env_spec.stats.cost < env_generic.stats.cost,
            "specialized+unrolled {} !< generic {}",
            env_spec.stats.cost,
            env_generic.stats.cost
        );
    }

    #[test]
    fn float_and_negative_names_sanitized() {
        assert_eq!(specialized_name("k", "x", &Value::Float(-2.5)), "k__x_m2p5");
        assert_eq!(specialized_name("k", "n", &Value::Int(-3)), "k__n_m3");
    }

    #[test]
    fn unknown_function_and_param_errors() {
        let program = parse_program(KERNEL).unwrap();
        assert!(matches!(
            specialize(&program, "ghost", "x", &Value::Int(1)),
            Err(SpecializeError::UnknownFunction(_))
        ));
        assert!(matches!(
            specialize(&program, "kernel", "ghost", &Value::Int(1)),
            Err(SpecializeError::UnknownParam { .. })
        ));
    }

    #[test]
    fn array_value_rejected() {
        let program = parse_program(KERNEL).unwrap();
        assert!(matches!(
            specialize(&program, "kernel", "size", &Value::Array(vec![])),
            Err(SpecializeError::UnsupportedValue(_))
        ));
    }
}
