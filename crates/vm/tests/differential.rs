//! Differential suite: the bytecode VM must be bit-identical to the
//! tree-walking interpreter on randomly generated *and randomly woven*
//! programs — values, every `ExecStats` counter (`flop_energy` compared
//! bit-for-bit), host-call traces and errors.
//!
//! Every case also runs a second time, on a VM handed the working memory
//! ([`VmScratch`]) the case before it left on the same thread, and must
//! match a fresh VM's run exactly: a scratch carries capacity, never
//! state, whichever way the run before it ended.
//!
//! On a mismatch the failure message embeds the pretty-printed program,
//! so the offending case round-trips into a reproducible unit test.

use antarex_ir::cost::CostModel;
use antarex_ir::cost::ExecStats;
use antarex_ir::interp::{ExecEnv, HostFn, Interp};
use antarex_ir::printer::print_program;
use antarex_ir::value::Value;
use antarex_ir::{analysis, parse_program, IrError, Program};
use antarex_vm::{lower_function, CodeKey, Vm, VmScratch};
use antarex_weaver::transform::dce::dce_fixpoint;
use antarex_weaver::transform::fold::fold_block;
use antarex_weaver::transform::inline::inline_calls;
use antarex_weaver::transform::tile::tile;
use antarex_weaver::transform::unroll::{unroll_by_factor, unroll_full};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;

const ARRAY_LEN: usize = 8;

/// Environment the generator threads through statement generation.
struct GenCtx {
    rng: StdRng,
    scalars: Vec<String>,
    int_vars: Vec<String>,
    arrays: Vec<String>,
    next_id: usize,
}

impl GenCtx {
    fn fresh(&mut self, prefix: &str) -> String {
        let name = format!("{prefix}{}", self.next_id);
        self.next_id += 1;
        name
    }

    fn pick<'a>(&mut self, items: &'a [String]) -> &'a str {
        &items[self.rng.gen_range(0..items.len())]
    }
}

fn gen_index(ctx: &mut GenCtx) -> String {
    // mostly-safe indices; ~2% deliberately out of bounds so the error
    // paths get differential coverage too
    if ctx.rng.gen_bool(0.02) {
        return ARRAY_LEN.to_string();
    }
    if !ctx.int_vars.is_empty() && ctx.rng.gen_bool(0.7) {
        let v = ctx.pick(&ctx.int_vars.clone()).to_string();
        return format!("({v} % {ARRAY_LEN})");
    }
    ctx.rng.gen_range(0..ARRAY_LEN as i64).to_string()
}

fn gen_expr(ctx: &mut GenCtx, depth: u32) -> String {
    if depth == 0 || ctx.rng.gen_bool(0.3) {
        return match ctx.rng.gen_range(0..5) {
            0 => ctx.rng.gen_range(0..9i64).to_string(),
            1 => ["0.5", "1.25", "2.0", "0.0625", "3.5", "0.2"][ctx.rng.gen_range(0..6usize)]
                .to_string(),
            2 if !ctx.scalars.is_empty() => ctx.pick(&ctx.scalars.clone()).to_string(),
            3 if !ctx.arrays.is_empty() => {
                let arr = ctx.pick(&ctx.arrays.clone()).to_string();
                let idx = gen_index(ctx);
                format!("{arr}[{idx}]")
            }
            _ => ctx.rng.gen_range(0..9i64).to_string(),
        };
    }
    match ctx.rng.gen_range(0..10) {
        0..=4 => {
            let op = ["+", "-", "*", "<", "<=", ">", "==", "!=", "&&", "||"]
                [ctx.rng.gen_range(0..10usize)];
            let l = gen_expr(ctx, depth - 1);
            let r = gen_expr(ctx, depth - 1);
            format!("({l} {op} {r})")
        }
        5 => {
            // division by a nonzero literal keeps most runs alive
            let l = gen_expr(ctx, depth - 1);
            let d = ["2", "4", "1.25", "0.5", "3"][ctx.rng.gen_range(0..5usize)];
            format!("({l} / {d})")
        }
        6 => {
            // modulo needs integer operands: use an int var or literal
            let l = if !ctx.int_vars.is_empty() && ctx.rng.gen_bool(0.8) {
                ctx.pick(&ctx.int_vars.clone()).to_string()
            } else {
                ctx.rng.gen_range(0..9i64).to_string()
            };
            let d = ctx.rng.gen_range(1..7i64);
            format!("({l} % {d})")
        }
        7 => {
            let inner = gen_expr(ctx, depth - 1);
            if ctx.rng.gen_bool(0.5) {
                format!("(-{inner})")
            } else {
                format!("(!{inner})")
            }
        }
        8 => {
            let inner = gen_expr(ctx, depth - 1);
            match ctx.rng.gen_range(0..4) {
                0 => format!("sqrt(fabs({inner}))"),
                1 => format!("fmin({inner}, 2.5)"),
                2 => format!("fmax({inner}, 0.25)"),
                _ => format!("h({inner})"),
            }
        }
        _ => {
            let inner = gen_expr(ctx, depth - 1);
            format!("pow(fabs({inner}), 2.0)")
        }
    }
}

fn gen_stmt(ctx: &mut GenCtx, out: &mut String, indent: usize, depth: u32) {
    let pad = "    ".repeat(indent);
    match ctx.rng.gen_range(0..10) {
        0 | 1 => {
            let ty = ["int", "double", "float", "float4", "float9", "float19"]
                [ctx.rng.gen_range(0..6usize)];
            let name = ctx.fresh("v");
            let init = gen_expr(ctx, 2);
            out.push_str(&format!("{pad}{ty} {name} = {init};\n"));
            if ty == "int" {
                ctx.int_vars.push(name.clone());
            }
            ctx.scalars.push(name);
        }
        2 | 3 if !ctx.scalars.is_empty() => {
            let name = ctx.pick(&ctx.scalars.clone()).to_string();
            let value = gen_expr(ctx, 2);
            out.push_str(&format!("{pad}{name} = {value};\n"));
        }
        4 if !ctx.arrays.is_empty() => {
            let arr = ctx.pick(&ctx.arrays.clone()).to_string();
            let idx = gen_index(ctx);
            let value = gen_expr(ctx, 2);
            out.push_str(&format!("{pad}{arr}[{idx}] = {value};\n"));
        }
        5 if depth > 0 => {
            let cond = gen_expr(ctx, 2);
            out.push_str(&format!("{pad}if ({cond}) {{\n"));
            gen_stmt(ctx, out, indent + 1, depth - 1);
            if ctx.rng.gen_bool(0.5) {
                out.push_str(&format!("{pad}}} else {{\n"));
                gen_stmt(ctx, out, indent + 1, depth - 1);
            }
            out.push_str(&format!("{pad}}}\n"));
        }
        6 if depth > 0 => {
            let var = ctx.fresh("i");
            let bound = ctx.rng.gen_range(2..7i64);
            out.push_str(&format!(
                "{pad}for (int {var} = 0; {var} < {bound}; {var}++) {{\n"
            ));
            ctx.int_vars.push(var.clone());
            ctx.scalars.push(var.clone());
            let n = ctx.rng.gen_range(1..3u32);
            for _ in 0..n {
                gen_stmt(ctx, out, indent + 1, depth - 1);
            }
            out.push_str(&format!("{pad}}}\n"));
            // the induction variable stays in scope after the loop
        }
        7 if depth > 0 => {
            let var = ctx.fresh("w");
            let start = ctx.rng.gen_range(1..5i64);
            out.push_str(&format!("{pad}int {var} = {start};\n"));
            out.push_str(&format!("{pad}while ({var} > 0) {{\n"));
            gen_stmt(ctx, out, indent + 1, depth - 1);
            out.push_str(&format!("{pad}    {var} = {var} - 1;\n"));
            out.push_str(&format!("{pad}}}\n"));
            ctx.int_vars.push(var.clone());
            ctx.scalars.push(var);
        }
        8 => {
            let value = gen_expr(ctx, 2);
            out.push_str(&format!("{pad}probe(\"p\", {value});\n"));
        }
        _ => {
            let value = gen_expr(ctx, 1);
            out.push_str(&format!("{pad}probe(\"q\", {value});\n"));
        }
    }
}

/// Generates a random-but-valid mini-C program around a `kernel`
/// function with two array parameters, a helper `h`, and host probes.
fn gen_program(seed: u64) -> String {
    let mut ctx = GenCtx {
        rng: StdRng::seed_from_u64(seed),
        scalars: vec!["n".into()],
        int_vars: vec!["n".into()],
        arrays: vec!["a".into(), "b".into()],
        next_id: 0,
    };
    let helper_body = gen_expr(&mut ctx, 2);
    let mut body = String::new();
    let local = ctx.fresh("c");
    body.push_str(&format!("    double {local}[{ARRAY_LEN}];\n"));
    ctx.arrays.push(local);
    let stmts = ctx.rng.gen_range(3..9u32);
    for _ in 0..stmts {
        gen_stmt(&mut ctx, &mut body, 1, 2);
    }
    let ret = gen_expr(&mut ctx, 2);
    format!(
        "double h(double x) {{ return {helper_body}; }}\n\
         double kernel(double a[], double b[], int n) {{\n{body}    return {ret};\n}}\n"
    )
}

/// Applies up to `count` random weaver transforms to `kernel`.
fn weave(program: &mut Program, seed: u64, count: u32) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..count {
        let choice = rng.gen_range(0..6);
        let factor = rng.gen_range(2..4u64);
        let pick = rng.gen_range(0..4usize);
        program
            .edit_function("kernel", |f| {
                match choice {
                    0 => {
                        let paths: Vec<_> = analysis::loops(&f.body)
                            .into_iter()
                            .map(|(p, _)| p)
                            .collect();
                        if let Some(path) = paths.get(pick % paths.len().max(1)) {
                            let _ = unroll_full(&mut f.body, path);
                        }
                    }
                    1 => {
                        let paths: Vec<_> = analysis::loops(&f.body)
                            .into_iter()
                            .map(|(p, _)| p)
                            .collect();
                        if let Some(path) = paths.get(pick % paths.len().max(1)) {
                            let _ = unroll_by_factor(&mut f.body, path, factor);
                        }
                    }
                    2 => {
                        let paths: Vec<_> = analysis::loops(&f.body)
                            .into_iter()
                            .map(|(p, _)| p)
                            .collect();
                        if let Some(path) = paths.get(pick % paths.len().max(1)) {
                            let _ = tile(&mut f.body, path, factor);
                        }
                    }
                    3 => f.body = fold_block(&f.body),
                    4 => {
                        dce_fixpoint(&mut f.body);
                    }
                    _ => {}
                };
            })
            .expect("kernel exists");
        if choice == 5 {
            // inlining needs the program (callee lookup), so it runs
            // outside edit_function on a cloned body
            let snapshot = program.clone();
            program
                .edit_function("kernel", |f| {
                    let _ = inline_calls(&mut f.body, &snapshot, "h");
                })
                .expect("kernel exists");
        }
    }
}

type Trace = Rc<RefCell<Vec<Vec<Value>>>>;

/// A tight budget keeps generated-runaway cases fast; budget errors are
/// themselves compared between the engines.
const BUDGET: Option<u64> = Some(300_000);

/// Runs one engine's `kernel` call: `call` receives the recording
/// `probe` host to register and a fresh environment.
fn observe(
    call: impl FnOnce(HostFn, &mut ExecEnv) -> Result<Value, IrError>,
) -> (Result<Value, IrError>, ExecStats, Vec<Vec<Value>>) {
    let trace: Trace = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&trace);
    let probe: HostFn = Box::new(move |args: &[Value]| {
        sink.borrow_mut().push(args.to_vec());
        Ok(Value::Unit)
    });
    let mut env = ExecEnv::new();
    let result = call(probe, &mut env);
    let observed = trace.take();
    (result, env.stats, observed)
}

fn assert_engines_agree(program: &Program, args: &[Value], context: &str) {
    assert_engines_agree_under(program, args, context, BUDGET);
}

fn assert_engines_agree_under(
    program: &Program,
    args: &[Value],
    context: &str,
    budget: Option<u64>,
) {
    let (ires, istats, itrace) = observe(|probe, env| {
        let mut interp = Interp::new(program.clone());
        interp.register_host("probe", probe);
        interp.set_budget(budget);
        interp.call("kernel", args, env)
    });
    let (vres, vstats, vtrace) = observe(|probe, env| {
        let mut vm = Vm::new(program.clone());
        vm.register_host("probe", probe);
        vm.set_budget(budget);
        vm.call("kernel", args, env)
    });

    let source = print_program(program);
    match (&ires, &vres) {
        (Ok(iv), Ok(vv)) => {
            assert_eq!(
                iv, vv,
                "[{context}] values diverge\n--- program ---\n{source}"
            );
            assert_eq!(
                (istats.cost, istats.flops, istats.mem_ops),
                (vstats.cost, vstats.flops, vstats.mem_ops),
                "[{context}] cost/flops/mem_ops diverge\n--- program ---\n{source}"
            );
            assert_eq!(
                istats.flop_energy.to_bits(),
                vstats.flop_energy.to_bits(),
                "[{context}] flop_energy diverges ({} vs {})\n--- program ---\n{source}",
                istats.flop_energy,
                vstats.flop_energy
            );
            assert_eq!(
                (istats.loop_iters, istats.calls, istats.host_calls),
                (vstats.loop_iters, vstats.calls, vstats.host_calls),
                "[{context}] loop/call counters diverge\n--- program ---\n{source}"
            );
        }
        (Err(ie), Err(ve)) => {
            assert_eq!(
                ie, ve,
                "[{context}] errors diverge\n--- program ---\n{source}"
            );
        }
        _ => panic!(
            "[{context}] one engine errored, the other did not:\n\
             interp: {ires:?}\nvm: {vres:?}\n--- program ---\n{source}"
        ),
    }
    assert_eq!(
        itrace, vtrace,
        "[{context}] host-call traces diverge\n--- program ---\n{source}"
    );
    assert_a_handed_on_scratch_changes_nothing(program, args, budget, context);
}

thread_local! {
    /// The working memory the last case's VM on this thread left.
    static LEFT: RefCell<VmScratch> = RefCell::default();
}

/// One [`Vm::run_segment`] of `kernel` on a VM given `scratch`: the
/// outcome (value, stats and handed-back arguments, or the error) and
/// host-call trace rendered with `{:?}` — so floats compare by their
/// digits, `NaN` and `-0.0` included — and the scratch the VM leaves.
fn run_segment_on(
    program: &Program,
    args: &[Value],
    budget: Option<u64>,
    scratch: VmScratch,
) -> (String, VmScratch) {
    let trace: Trace = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&trace);
    let mut vm = Vm::new(program.clone()).with_scratch(scratch);
    vm.register_host(
        "probe",
        Box::new(move |args: &[Value]| {
            sink.borrow_mut().push(args.to_vec());
            Ok(Value::Unit)
        }),
    );
    vm.set_budget(budget);
    let outcome = vm.run_segment("kernel", args.to_vec());
    let rendered = format!("{outcome:?} {:?}", trace.take());
    (rendered, vm.into_scratch())
}

/// Runs the case on a fresh VM and on one given the scratch the previous
/// case left, which it then leaves for the next.
fn assert_a_handed_on_scratch_changes_nothing(
    program: &Program,
    args: &[Value],
    budget: Option<u64>,
    context: &str,
) {
    let (fresh, _) = run_segment_on(program, args, budget, VmScratch::default());
    let (reused, left) = run_segment_on(program, args, budget, LEFT.take());
    LEFT.set(left);
    assert_eq!(
        fresh,
        reused,
        "[{context}] a handed-on scratch changed the run\n--- program ---\n{}",
        print_program(program)
    );
}

/// Runs that end every way a run can — a runaway recursion past the
/// call-depth limit (leaving a full frame pool), a nested call with the
/// wrong number of arguments, an array argument that is not one, an
/// index out of bounds inside a reduced-precision window (leaving a
/// saved context on the precision stack), a budget exhausted at every
/// checkpoint of a narrow loop — each followed by a run that succeeds,
/// so every ending hands its scratch to the next case.
#[test]
fn a_scratch_left_by_any_ending_changes_nothing() {
    let ok = "double kernel(double a[], double b[], int n) {
                  float9 s = 0.0;
                  for (int i = 0; i < n; i++) { s += a[i] * b[i]; probe(\"s\", s); }
                  return s;
              }";
    let runaway = "double r(double x) { return r(x + 1.0); }
                   double kernel(double a[], double b[], int n) { return r(a[0]); }";
    let arity = "double h(double x) { return x; }
                 double kernel(double a[], double b[], int n) {
                     double t = h(a[0]);
                     return t + h(a[1], b[1]);
                 }";
    let window = "double kernel(double a[], double b[], int n) {
                      float9 s = 0.0;
                      for (int i = 0; i < n; i++) { float5 t = a[i] * b[i + 1]; s += t; }
                      return s;
                  }";
    let narrow = "double kernel(double a[], double b[], int n) {
                      float11 s = 0.0;
                      for (int i = 0; i < n; i++) { float7 t = a[i] * b[i] + 0.5; s += t * t; }
                      return s;
                  }";
    let args = kernel_args(3);
    let scalar_a = vec![Value::Float(1.0), args[1].clone(), Value::Int(8)];
    // (case, program, arguments, how the run ends)
    let cases: Vec<(&str, &str, Vec<Value>, &str)> = vec![
        ("ok", ok, args.clone(), "Ok("),
        ("runaway", runaway, args.clone(), "call depth exceeded"),
        ("ok after call depth", ok, args.clone(), "Ok("),
        (
            "nested arity",
            arity,
            args.clone(),
            "expects 1 arguments, got 2",
        ),
        ("ok after arity error", ok, args.clone(), "Ok("),
        ("scalar for an array", ok, scalar_a, "expects an array"),
        ("ok after a binding error", ok, args.clone(), "Ok("),
        ("bounds in a window", window, args.clone(), "out of bounds"),
        ("ok after a window error", ok, args.clone(), "Ok("),
    ];
    for (context, source, args, ends) in cases {
        let program = parse_program(source).unwrap();
        let (outcome, _) = run_segment_on(&program, &args, BUDGET, VmScratch::default());
        assert!(outcome.contains(ends), "[{context}] ended {outcome}");
        assert_engines_agree(&program, &args, context);
    }
    let (_, left) = run_segment_on(
        &parse_program(window).unwrap(),
        &args,
        BUDGET,
        VmScratch::default(),
    );
    assert!(
        !format!("{left:?}").contains("prec_stack: []"),
        "the window's error leaves its saved context: {left:?}"
    );
    // exhaust the budget at every checkpoint of a narrow loop, each
    // abort followed by a full run on the scratch it left
    let program = parse_program(narrow).unwrap();
    for budget in 0..=120 {
        let context = format!("narrow budget {budget}");
        let (outcome, _) = run_segment_on(&program, &args, Some(budget), VmScratch::default());
        assert!(
            outcome.starts_with("Err(BudgetExceeded"),
            "[{context}] ended {outcome}"
        );
        assert_engines_agree_under(&program, &args, &context, Some(budget));
        assert_engines_agree(&program, &args, &format!("ok after {context}"));
    }
}

fn kernel_args(seed: u64) -> Vec<Value> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa5a5_5a5a);
    let mk = |rng: &mut StdRng| {
        Value::Array(
            (0..ARRAY_LEN)
                .map(|_| Value::Float(f64::from(rng.gen_range(-16..17i32)) / 8.0))
                .collect(),
        )
    };
    vec![mk(&mut rng), mk(&mut rng), Value::Int(ARRAY_LEN as i64)]
}

#[test]
fn random_programs_are_bit_identical() {
    for seed in 0..150u64 {
        let source = gen_program(seed);
        let program = parse_program(&source)
            .unwrap_or_else(|e| panic!("generator produced invalid source ({e}):\n{source}"));
        assert_engines_agree(&program, &kernel_args(seed), &format!("seed {seed}"));
    }
}

#[test]
fn randomly_woven_programs_are_bit_identical() {
    for seed in 0..100u64 {
        let source = gen_program(seed);
        let base = parse_program(&source).expect("generator produces valid source");
        for round in 1..3u64 {
            let mut woven = base.clone();
            weave(&mut woven, seed.wrapping_mul(31).wrapping_add(round), 3);
            assert_engines_agree(
                &woven,
                &kernel_args(seed),
                &format!("seed {seed} weave-round {round}"),
            );
        }
    }
}

#[test]
fn precision_sweep_is_bit_identical() {
    // the same kernel re-typed across the precision ladder: emulated
    // reduced precision (quantized stores, scaled flop energy) must
    // match the interpreter exactly at every width
    for ty in [
        "double", "float", "float19", "float11", "float7", "float4", "float2",
    ] {
        let source = format!(
            "double kernel(double a[], double b[], int n) {{
                 {ty} s = 0.0;
                 for (int i = 0; i < n; i++) {{
                     {ty} t = a[i] * b[i];
                     s += t;
                     probe(\"acc\", s);
                 }}
                 return s;
             }}"
        );
        let program = parse_program(&source).unwrap();
        assert_engines_agree(&program, &kernel_args(7), &format!("precision {ty}"));
    }
}

#[test]
fn generated_programs_have_distinct_cache_keys() {
    let model = CostModel::new();
    let mut keys = std::collections::HashSet::new();
    let mut sources = Vec::new();
    for seed in 0..150u64 {
        let source = gen_program(seed);
        let program = parse_program(&source).unwrap();
        let key = CodeKey::of(&program, &model);
        if !keys.insert(key) {
            // identical sources legitimately share a key; only a
            // *different* program colliding is a failure
            assert!(
                sources.contains(&source),
                "distinct programs collided on {key:?}:\n{source}"
            );
        }
        sources.push(source);
    }
    assert!(
        keys.len() > 100,
        "generator should produce diverse programs"
    );
}

/// Loop-trace scenarios: the canonical idioms the native trace tier
/// compiles, plus the inputs that force it to validate-and-fall-back
/// (non-float elements, out-of-bounds trips, zero iterations, budget
/// exhaustion mid-loop, in-place aliasing). Every case must be
/// bit-identical whichever tier actually ran.
#[test]
fn traced_loops_and_their_fallbacks_are_bit_identical() {
    let floats = |vals: &[f64]| Value::Array(vals.iter().map(|v| Value::Float(*v)).collect());
    let ramp = |n: usize| {
        Value::Array(
            (0..n)
                .map(|i| Value::Float(i as f64 * 0.25 - 3.0))
                .collect(),
        )
    };
    let dot = "double kernel(double a[], double b[], int n) {
                   double s = 0.0;
                   for (int i = 0; i < n; i++) { s += a[i] * b[i]; }
                   return s;
               }";
    let narrow_dot = "double kernel(double a[], double b[], int n) {
                          float11 s = 0.0;
                          for (int i = 0; i < n; i++) { s += a[i] * b[i]; }
                          return s;
                      }";
    let matvec = "double kernel(double a[], double b[], int n) {
                      double s = 0.0;
                      for (int i = 0; i < 4; i++) {
                          double acc = 0.0;
                          for (int j = 0; j < 4; j++) { acc += a[i * 4 + j] * b[j]; }
                          s += acc;
                      }
                      return s;
                  }";
    let stencil = "double kernel(double a[], double b[], int n) {
                       int m = n - 1;
                       for (int i = 1; i < m; i++) {
                           b[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
                       }
                       return b[1];
                   }";
    // in-place: the taps alias the written array, so iteration i reads
    // the value iteration i-1 stored
    let stencil_inplace = "double kernel(double a[], double b[], int n) {
                               int m = n - 1;
                               for (int i = 1; i < m; i++) {
                                   a[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
                               }
                               return a[2];
                           }";
    let a8 = ramp(8);
    let b8 = floats(&[0.5, -1.25, 2.0, 0.125, -0.5, 1.5, -2.25, 0.75]);
    let mixed = Value::Array(vec![
        Value::Float(1.0),
        Value::Float(2.0),
        Value::Int(3),
        Value::Float(4.0),
        Value::Float(5.0),
        Value::Float(6.0),
        Value::Float(7.0),
        Value::Float(8.0),
    ]);
    // the serving tier's probe kernel (`serve::kernel::DEFAULT_KERNEL`):
    // a declared temporary feeds the accumulator; `{ty}` is every float
    // declaration's type, as the precision knob rewrites it
    let fma = |ty: &str, a2: &str| {
        format!(
            "{ty} kernel({ty} a[], {ty} b[], int n) {{
                 {ty} acc = 0.0;
                 {ty} scale = 0.5;
                 for (int i = 0; i < n; i++) {{
                     {ty} t = a[i] * {a2}[i] + scale * a[i];
                     acc += t * t;
                 }}
                 return acc;
             }}"
        )
    };
    let fma_double = fma("double", "b");
    let fma_narrow = fma("float11", "b");
    let fma_aliased = fma("double", "a");
    for source in [&fma_double, &fma_narrow, &fma_aliased] {
        let program = parse_program(source).unwrap();
        let chunk = lower_function(program.function("kernel").unwrap(), &CostModel::new()).unwrap();
        assert_eq!(chunk.trace_count(), 1, "the FMA body is traced:\n{source}");
    }
    let big = ramp(16384);
    let cases: Vec<(&str, &str, Vec<Value>)> = vec![
        (
            "dot traced",
            dot,
            vec![a8.clone(), b8.clone(), Value::Int(8)],
        ),
        (
            "dot reduced precision",
            narrow_dot,
            vec![a8.clone(), b8.clone(), Value::Int(8)],
        ),
        (
            "matvec traced",
            matvec,
            vec![ramp(16), b8.clone(), Value::Int(0)],
        ),
        (
            "stencil traced",
            stencil,
            vec![a8.clone(), ramp(8), Value::Int(8)],
        ),
        (
            "stencil in-place aliasing",
            stencil_inplace,
            vec![a8.clone(), b8.clone(), Value::Int(8)],
        ),
        (
            "fallback: non-float element",
            dot,
            vec![mixed.clone(), b8.clone(), Value::Int(8)],
        ),
        (
            "fallback: out-of-bounds trip",
            dot,
            vec![a8.clone(), b8.clone(), Value::Int(12)],
        ),
        (
            "zero iterations",
            dot,
            vec![a8.clone(), b8.clone(), Value::Int(0)],
        ),
        (
            "zero iterations, negative bound",
            dot,
            vec![a8.clone(), b8.clone(), Value::Int(-3)],
        ),
        (
            "budget exhaustion mid-loop",
            dot,
            vec![big.clone(), big.clone(), Value::Int(16384)],
        ),
        (
            "fma traced",
            fma_double.as_str(),
            vec![a8.clone(), b8.clone(), Value::Int(8)],
        ),
        (
            "fma reduced precision",
            fma_narrow.as_str(),
            vec![a8.clone(), b8.clone(), Value::Int(8)],
        ),
        (
            "fma fallback: Int element",
            fma_double.as_str(),
            vec![mixed.clone(), b8.clone(), Value::Int(8)],
        ),
        (
            "fma fallback: n past the array length",
            fma_double.as_str(),
            vec![a8.clone(), b8.clone(), Value::Int(12)],
        ),
        (
            "fma zero iterations",
            fma_double.as_str(),
            vec![a8.clone(), b8.clone(), Value::Int(0)],
        ),
        (
            "fma a and b the same array",
            fma_aliased.as_str(),
            vec![a8.clone(), b8.clone(), Value::Int(8)],
        ),
    ];
    for (context, source, args) in cases {
        let program = parse_program(source).unwrap();
        assert_engines_agree(&program, &args, context);
    }
    // budget exhaustion: one FMA iteration charges 37 units with two
    // budget checkpoints (the loop tick and the mid-body meter check), so
    // sweeping the budget across more than one iteration's worth of cost
    // exhausts it at each checkpoint in turn
    let program = parse_program(&fma_double).unwrap();
    for budget in 300..=340 {
        assert_engines_agree_under(
            &program,
            &[ramp(64), ramp(64), Value::Int(64)],
            &format!("fma budget exhaustion at {budget}"),
            Some(budget),
        );
    }
}
