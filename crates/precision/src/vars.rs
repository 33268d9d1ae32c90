//! Inventory and rewriting of a function's floating-point declarations.

use antarex_ir::{Function, IrError, NodePath, Program, Stmt, Type};

/// Where a float variable is declared.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum VarKind {
    /// Function parameter (by index).
    Param(usize),
    /// Local scalar declaration at a statement path.
    Local(NodePath),
    /// Local array declaration at a statement path.
    Array(NodePath),
    /// The function's return type.
    Return,
}

/// One tunable floating-point declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct FloatVar {
    /// Variable name (`"<return>"` for the return type).
    pub name: String,
    /// Declaration site.
    pub kind: VarKind,
    /// Declared type at inventory time.
    pub ty: Type,
}

/// Lists every float declaration of `function`: parameters, locals,
/// arrays and the return type, in a stable order.
pub fn float_vars(function: &Function) -> Vec<FloatVar> {
    let mut vars = Vec::new();
    for (i, param) in function.params.iter().enumerate() {
        if param.ty.is_float() {
            vars.push(FloatVar {
                name: param.name.clone(),
                kind: VarKind::Param(i),
                ty: param.ty,
            });
        }
    }
    for (path, stmt) in NodePath::enumerate(&function.body) {
        match stmt {
            Stmt::Decl { name, ty, .. } if ty.is_float() => vars.push(FloatVar {
                name: name.clone(),
                kind: VarKind::Local(path),
                ty: *ty,
            }),
            Stmt::ArrayDecl { name, ty, .. } if ty.is_float() => vars.push(FloatVar {
                name: name.clone(),
                kind: VarKind::Array(path),
                ty: *ty,
            }),
            _ => {}
        }
    }
    if let Some(ret) = function.ret {
        if ret.is_float() {
            vars.push(FloatVar {
                name: "<return>".to_string(),
                kind: VarKind::Return,
                ty: ret,
            });
        }
    }
    vars
}

/// Rewrites the declaration identified by `var` in `function` (of
/// `program`) to the given mantissa width (52 restores `double`, 23 maps
/// to `float`).
///
/// # Errors
///
/// Returns [`IrError`] if the function or declaration site no longer
/// exists.
pub fn set_precision(
    program: &mut Program,
    function: &str,
    var: &FloatVar,
    bits: u8,
) -> Result<(), IrError> {
    let ty = type_for_bits(bits);
    let mut result = Ok(());
    program.edit_function(function, |f| {
        result = apply(f, var, ty);
    })?;
    result
}

fn apply(function: &mut Function, var: &FloatVar, ty: Type) -> Result<(), IrError> {
    match &var.kind {
        VarKind::Param(i) => {
            let param = function
                .params
                .get_mut(*i)
                .ok_or_else(|| IrError::Unresolved(format!("parameter #{i}")))?;
            param.ty = ty;
            Ok(())
        }
        VarKind::Return => {
            function.ret = Some(ty);
            Ok(())
        }
        VarKind::Local(path) => {
            let (block, idx) = path.resolve_block_mut(&mut function.body)?;
            match block.get_mut(idx) {
                Some(Stmt::Decl { ty: t, .. }) => {
                    *t = ty;
                    Ok(())
                }
                _ => Err(IrError::BadPath(format!("no declaration at {path}"))),
            }
        }
        VarKind::Array(path) => {
            let (block, idx) = path.resolve_block_mut(&mut function.body)?;
            match block.get_mut(idx) {
                Some(Stmt::ArrayDecl { ty: t, .. }) => {
                    *t = ty;
                    Ok(())
                }
                _ => Err(IrError::BadPath(format!("no array declaration at {path}"))),
            }
        }
    }
}

/// Maps a mantissa width back to a source type (52 → `double`,
/// 23 → `float`, otherwise a custom width).
pub(crate) fn type_for_bits(bits: u8) -> Type {
    match bits {
        52 => Type::F64,
        23 => Type::F32,
        other => Type::float_custom(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antarex_ir::parse_program;

    const SRC: &str = "double kernel(double a[], double scale, int n) {
        double acc = 0.0;
        double tmp[4];
        for (int i = 0; i < n; i++) { acc += a[i] * scale; }
        return acc;
    }";

    #[test]
    fn inventory_finds_all_float_decls() {
        let program = parse_program(SRC).unwrap();
        let vars = float_vars(program.function("kernel").unwrap());
        let names: Vec<&str> = vars.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, vec!["a", "scale", "acc", "tmp", "<return>"]);
        assert!(matches!(vars[0].kind, VarKind::Param(0)));
        assert!(matches!(vars[4].kind, VarKind::Return));
    }

    #[test]
    fn int_only_function_has_no_float_vars() {
        let program = parse_program("int f(int x) { return x; }").unwrap();
        assert!(float_vars(program.function("f").unwrap()).is_empty());
    }

    #[test]
    fn set_precision_rewrites_each_site() {
        let mut program = parse_program(SRC).unwrap();
        let vars = float_vars(program.function("kernel").unwrap());
        for var in &vars {
            set_precision(&mut program, "kernel", var, 10).unwrap();
        }
        let f = program.function("kernel").unwrap();
        assert_eq!(f.params[0].ty, Type::FCustom(10));
        assert_eq!(f.params[1].ty, Type::FCustom(10));
        assert_eq!(f.ret, Some(Type::FCustom(10)));
        let text = antarex_ir::printer::print_function(f);
        assert!(text.contains("float10 acc"));
        assert!(text.contains("float10 tmp[4];"));
    }

    #[test]
    fn bits_round_trip_to_named_types() {
        assert_eq!(type_for_bits(52), Type::F64);
        assert_eq!(type_for_bits(23), Type::F32);
        assert_eq!(type_for_bits(10), Type::FCustom(10));
    }

    #[test]
    fn lowered_precision_changes_result_and_energy() {
        use antarex_ir::interp::{ExecEnv, Interp};
        use antarex_ir::value::Value;
        let program = parse_program(SRC).unwrap();
        let mut lowered = program.clone();
        let vars = float_vars(program.function("kernel").unwrap());
        for var in &vars {
            set_precision(&mut lowered, "kernel", var, 6).unwrap();
        }
        let args = [
            Value::from(vec![0.123456789, 0.987654321, 0.5, 0.25]),
            Value::Float(1.11),
            Value::Int(4),
        ];
        let mut env_full = ExecEnv::new();
        let full = Interp::new(program)
            .call("kernel", &args, &mut env_full)
            .unwrap();
        let mut env_low = ExecEnv::new();
        let low = Interp::new(lowered)
            .call("kernel", &args, &mut env_low)
            .unwrap();
        assert_ne!(full, low, "6 mantissa bits must perturb the result");
        assert!(
            env_low.stats.flop_energy < env_full.stats.flop_energy,
            "lowered precision must cost less energy"
        );
        // but the result is still in the right ballpark
        let (Value::Float(a), Value::Float(b)) = (full, low) else {
            panic!()
        };
        assert!((a - b).abs() / a.abs() < 0.2);
    }
}
