//! Structural digests keying the instrumented-code cache.
//!
//! A [`CodeKey`] is a 128-bit-per-lane structural hash of a program
//! (`code` lane) paired with a digest of the metering parameters
//! (`metering` lane). Two programs that lower to the same instrumented
//! bytecode under the same cost model produce the same key; any change to
//! either — a renamed variable, a reordered statement, a different
//! `mem_op` weight — produces a different one. The fold is *structural*:
//! every variant is tagged and every sequence is length-prefixed, so
//! concatenation ambiguities (`("ab", "c")` vs `("a", "bc")`) cannot
//! collide.
//!
//! This is deliberately not a cryptographic hash — it keys an in-process
//! cache, not an integrity check — but the two independent 128-bit lanes
//! (different seeds, different rotation schedules) make accidental
//! collisions vanishingly unlikely.

use antarex_ir::ast::{BinOp, Expr, Function, LValue, Program, Stmt, UnOp};
use antarex_ir::cost::CostModel;
use antarex_ir::types::Type;

/// Cache key for one `(program structure, metering parameters)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CodeKey {
    /// Structural digest of the program.
    pub code: u128,
    /// Digest of the cost model the bytecode was instrumented under.
    pub metering: u128,
}

impl CodeKey {
    /// Computes the key for `program` instrumented under `model`.
    pub fn of(program: &Program, model: &CostModel) -> Self {
        let mut code = Lanes::new();
        fold_program(&mut code, program);
        let mut metering = Lanes::new();
        fold_model(&mut metering, model);
        CodeKey {
            code: code.finish(),
            metering: metering.finish(),
        }
    }
}

/// Two independently-seeded 64-bit lanes folded in lockstep.
struct Lanes {
    lo: u64,
    hi: u64,
}

impl Lanes {
    fn new() -> Self {
        Lanes {
            lo: 0xcbf2_9ce4_8422_2325,
            hi: 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn mix(&mut self, v: u64) {
        self.lo = mix64(self.lo ^ v).rotate_left(17);
        self.hi = mix64(self.hi ^ v.rotate_left(31));
    }

    fn finish(self) -> u128 {
        (u128::from(mix64(self.hi)) << 64) | u128::from(mix64(self.lo))
    }
}

/// SplitMix64 finalizer: full-avalanche 64-bit mix.
fn mix64(mut z: u64) -> u64 {
    z ^= z >> 30;
    z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fold_str(lanes: &mut Lanes, s: &str) {
    lanes.mix(s.len() as u64);
    for chunk in s.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        lanes.mix(u64::from_le_bytes(word));
    }
}

fn fold_type(lanes: &mut Lanes, ty: Type) {
    let (tag, bits) = match ty {
        Type::Int => (1u64, 0u64),
        Type::F64 => (2, 0),
        Type::F32 => (3, 0),
        Type::FCustom(b) => (4, u64::from(b)),
        Type::Str => (5, 0),
    };
    lanes.mix(tag);
    lanes.mix(bits);
}

fn fold_opt_type(lanes: &mut Lanes, ty: Option<Type>) {
    match ty {
        None => lanes.mix(0),
        Some(ty) => fold_type(lanes, ty),
    }
}

fn fold_binop(lanes: &mut Lanes, op: BinOp) {
    fold_str(lanes, op.symbol());
}

fn fold_expr(lanes: &mut Lanes, expr: &Expr) {
    match expr {
        Expr::Int(v) => {
            lanes.mix(1);
            lanes.mix(*v as u64);
        }
        Expr::Float(v) => {
            lanes.mix(2);
            lanes.mix(v.to_bits());
        }
        Expr::Str(s) => {
            lanes.mix(3);
            fold_str(lanes, s);
        }
        Expr::Var(name) => {
            lanes.mix(4);
            fold_str(lanes, name);
        }
        Expr::Index(name, index) => {
            lanes.mix(5);
            fold_str(lanes, name);
            fold_expr(lanes, index);
        }
        Expr::Unary(op, inner) => {
            lanes.mix(6);
            lanes.mix(match op {
                UnOp::Neg => 1,
                UnOp::Not => 2,
            });
            fold_expr(lanes, inner);
        }
        Expr::Binary(op, lhs, rhs) => {
            lanes.mix(7);
            fold_binop(lanes, *op);
            fold_expr(lanes, lhs);
            fold_expr(lanes, rhs);
        }
        Expr::Call(name, args) => {
            lanes.mix(8);
            fold_str(lanes, name);
            lanes.mix(args.len() as u64);
            for arg in args {
                fold_expr(lanes, arg);
            }
        }
    }
}

fn fold_block(lanes: &mut Lanes, block: &[Stmt]) {
    lanes.mix(block.len() as u64);
    for stmt in block {
        fold_stmt(lanes, stmt);
    }
}

fn fold_stmt(lanes: &mut Lanes, stmt: &Stmt) {
    match stmt {
        Stmt::Decl { name, ty, init } => {
            lanes.mix(1);
            fold_str(lanes, name);
            fold_type(lanes, *ty);
            match init {
                None => lanes.mix(0),
                Some(init) => {
                    lanes.mix(1);
                    fold_expr(lanes, init);
                }
            }
        }
        Stmt::ArrayDecl { name, ty, size } => {
            lanes.mix(2);
            fold_str(lanes, name);
            fold_type(lanes, *ty);
            lanes.mix(*size as u64);
        }
        Stmt::Assign { target, value } => {
            lanes.mix(3);
            match target {
                LValue::Var(name) => {
                    lanes.mix(1);
                    fold_str(lanes, name);
                }
                LValue::Index(name, index) => {
                    lanes.mix(2);
                    fold_str(lanes, name);
                    fold_expr(lanes, index);
                }
            }
            fold_expr(lanes, value);
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            lanes.mix(4);
            fold_expr(lanes, cond);
            fold_block(lanes, then_branch);
            match else_branch {
                None => lanes.mix(0),
                Some(else_branch) => {
                    lanes.mix(1);
                    fold_block(lanes, else_branch);
                }
            }
        }
        Stmt::For {
            var,
            init,
            cond,
            step,
            body,
        } => {
            lanes.mix(5);
            fold_str(lanes, var);
            fold_expr(lanes, init);
            fold_expr(lanes, cond);
            fold_expr(lanes, step);
            fold_block(lanes, body);
        }
        Stmt::While { cond, body } => {
            lanes.mix(6);
            fold_expr(lanes, cond);
            fold_block(lanes, body);
        }
        Stmt::Return(value) => {
            lanes.mix(7);
            match value {
                None => lanes.mix(0),
                Some(value) => {
                    lanes.mix(1);
                    fold_expr(lanes, value);
                }
            }
        }
        Stmt::ExprStmt(expr) => {
            lanes.mix(8);
            fold_expr(lanes, expr);
        }
    }
}

fn fold_function(lanes: &mut Lanes, function: &Function) {
    fold_str(lanes, &function.name);
    fold_opt_type(lanes, function.ret);
    lanes.mix(function.params.len() as u64);
    for param in &function.params {
        fold_str(lanes, &param.name);
        fold_type(lanes, param.ty);
        lanes.mix(u64::from(param.is_array));
    }
    fold_block(lanes, &function.body);
}

fn fold_program(lanes: &mut Lanes, program: &Program) {
    lanes.mix(program.len() as u64);
    for function in program.iter() {
        fold_function(lanes, function);
    }
}

fn fold_model(lanes: &mut Lanes, model: &CostModel) {
    // exhaustive, no `..`: a new cost field fails to compile here instead
    // of silently aliasing the cache entries of models that differ in it
    let CostModel {
        int_op,
        int_mul,
        int_div,
        float_op,
        float_mul,
        float_div,
        mem_op,
        reg_op,
        loop_overhead,
        call_overhead,
        host_call,
    } = *model;
    for field in [
        int_op,
        int_mul,
        int_div,
        float_op,
        float_mul,
        float_div,
        mem_op,
        reg_op,
        loop_overhead,
        call_overhead,
        host_call,
    ] {
        lanes.mix(field);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antarex_ir::parse_program;

    fn key(src: &str) -> CodeKey {
        CodeKey::of(&parse_program(src).unwrap(), &CostModel::new())
    }

    #[test]
    fn same_program_same_key() {
        let a = key("int f(int x) { return x + 1; }");
        let b = key("int f(int x) { return x + 1; }");
        assert_eq!(a, b);
    }

    #[test]
    fn whitespace_is_structurally_irrelevant() {
        let a = key("int f(int x) { return x + 1; }");
        let b = key("int f(int x)\n{\n    return x + 1;\n}");
        assert_eq!(a, b);
    }

    #[test]
    fn any_structural_change_changes_the_key() {
        let base = key("int f(int x) { return x + 1; }");
        for variant in [
            "int f(int x) { return x + 2; }",                       // literal
            "int f(int x) { return x - 1; }",                       // operator
            "int f(int y) { return y + 1; }",                       // name
            "int g(int x) { return x + 1; }",                       // function name
            "double f(double x) { return x + 1; }",                 // types
            "int f(int x) { return x + 1; } int g() { return 0; }", // extra fn
        ] {
            assert_ne!(base, key(variant), "collision for {variant}");
        }
    }

    #[test]
    fn string_boundaries_do_not_collide() {
        // classic concatenation ambiguity: ("ab","c") vs ("a","bc")
        let a = key("void f() { probe(\"ab\", \"c\"); }");
        let b = key("void f() { probe(\"a\", \"bc\"); }");
        assert_ne!(a, b);
    }

    #[test]
    fn int_and_float_literals_with_equal_bits_do_not_collide() {
        // Int(0) vs Float(0.0): 0.0f64.to_bits() == 0, the variant tag
        // must separate them
        let a = key("int f() { return 0; }");
        let b = key("double f() { return 0.0; }");
        assert_ne!(a.code, b.code);
    }

    #[test]
    fn metering_lane_tracks_the_cost_model() {
        let program = parse_program("int f(int x) { return x + 1; }").unwrap();
        let base = CodeKey::of(&program, &CostModel::new());
        let mut tweaked = CostModel::new();
        tweaked.mem_op += 1;
        let other = CodeKey::of(&program, &tweaked);
        assert_eq!(base.code, other.code, "code lane is model-independent");
        assert_ne!(base.metering, other.metering);
    }

    #[test]
    fn every_cost_field_feeds_the_metering_lane() {
        let program = parse_program("int f(int x) { return x + 1; }").unwrap();
        let base = CodeKey::of(&program, &CostModel::new());
        let bumps: [fn(&mut CostModel); 11] = [
            |m| m.int_op += 1,
            |m| m.int_mul += 1,
            |m| m.int_div += 1,
            |m| m.float_op += 1,
            |m| m.float_mul += 1,
            |m| m.float_div += 1,
            |m| m.mem_op += 1,
            |m| m.reg_op += 1,
            |m| m.loop_overhead += 1,
            |m| m.call_overhead += 1,
            |m| m.host_call += 1,
        ];
        let mut seen = std::collections::HashSet::from([base.metering]);
        for (field, bump) in bumps.iter().enumerate() {
            let mut model = CostModel::new();
            bump(&mut model);
            let key = CodeKey::of(&program, &model);
            assert_eq!(key.code, base.code, "field {field}: code lane moved");
            assert!(
                seen.insert(key.metering),
                "field {field}: metering lane aliases another model"
            );
        }
    }

    #[test]
    fn empty_vs_unit_distinction() {
        let a = key("void f() { }");
        let b = key("void f() { return; }");
        assert_ne!(a, b);
    }
}
