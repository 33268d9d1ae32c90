//! Property-based tests on the core invariants: parser/printer round
//! trips, semantic preservation of weaver transforms, design-space
//! enumeration, quantization monotonicity, the fault timeline's queries
//! and SLA accounting.
//!
//! The properties are exercised with seeded random case generation (the
//! workspace's deterministic [`rand`] shim) rather than proptest, which
//! is unavailable offline: each test draws a fixed number of cases from
//! a fixed seed, so failures reproduce exactly.

use antarex::ir::interp::{ExecEnv, Interp};
use antarex::ir::types::quantize_mantissa;
use antarex::ir::value::Value;
use antarex::ir::{parse_program, printer::print_program, NodePath};
use antarex::sim::faults::{FaultConfig, FaultSchedule};
use antarex::tuner::knob::Knob;
use antarex::tuner::space::DesignSpace;
use antarex::weaver::transform::fold::fold_block;
use antarex::weaver::transform::unroll::unroll_full;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Generates a random straight-line-plus-loop mini-C function source over
/// variables `x`, `y` and accumulator `s`.
fn arb_kernel(rng: &mut StdRng) -> String {
    let exprs = [
        "x + y",
        "x * 2 - y",
        "x * x + 3",
        "(x - y) * (x + y)",
        "x % (y + 107)", // y in -50..50: never zero
    ];
    let e = *exprs.choose(rng).expect("non-empty");
    let trip = rng.gen_range(0usize..20);
    let threshold = rng.gen_range(-20i64..20);
    format!(
        "int f(int x, int y) {{
             int s = 0;
             for (int i = 0; i < {trip}; i++) {{ s += i + x; }}
             if (x > {threshold}) {{ s += {e}; }} else {{ s -= {e}; }}
             return s;
         }}"
    )
}

fn run_f(program: &antarex::ir::Program, x: i64, y: i64) -> Value {
    Interp::new(program.clone())
        .call("f", &[Value::Int(x), Value::Int(y)], &mut ExecEnv::new())
        .expect("execution succeeds")
}

/// print(parse(print(p))) == print(p): printing is a fixed point.
#[test]
fn printer_parser_round_trip() {
    let mut rng = StdRng::seed_from_u64(0xA51);
    for _ in 0..64 {
        let src = arb_kernel(&mut rng);
        let program = parse_program(&src).unwrap();
        let once = print_program(&program);
        let reparsed = parse_program(&once).unwrap();
        assert_eq!(program, reparsed, "round trip of:\n{src}");
        assert_eq!(once, print_program(&reparsed));
    }
}

/// Constant folding never changes results.
#[test]
fn folding_preserves_semantics() {
    let mut rng = StdRng::seed_from_u64(0xA52);
    for _ in 0..64 {
        let src = arb_kernel(&mut rng);
        let x = rng.gen_range(-50i64..50);
        let y = rng.gen_range(-50i64..50);
        let program = parse_program(&src).unwrap();
        let mut folded = program.clone();
        folded
            .edit_function("f", |f| f.body = fold_block(&f.body))
            .unwrap();
        assert_eq!(
            run_f(&program, x, y),
            run_f(&folded, x, y),
            "folding changed f({x}, {y}) for:\n{src}"
        );
    }
}

/// Full unrolling never changes results and removes the loop.
#[test]
fn unrolling_preserves_semantics() {
    let mut rng = StdRng::seed_from_u64(0xA53);
    for _ in 0..64 {
        let src = arb_kernel(&mut rng);
        let x = rng.gen_range(-50i64..50);
        let y = rng.gen_range(-50i64..50);
        let program = parse_program(&src).unwrap();
        let mut unrolled = program.clone();
        unrolled
            .edit_function("f", |f| {
                unroll_full(&mut f.body, &NodePath::root(1)).unwrap();
            })
            .unwrap();
        assert!(
            antarex::ir::analysis::loops(&unrolled.function("f").unwrap().body).is_empty(),
            "loop survived unrolling in:\n{src}"
        );
        assert_eq!(run_f(&program, x, y), run_f(&unrolled, x, y));
    }
}

/// Quantization: idempotent, magnitude-bounded, monotone in bits.
#[test]
fn quantization_properties() {
    let mut rng = StdRng::seed_from_u64(0xA54);
    for _ in 0..256 {
        let x = rng.gen_range(-1e12f64..1e12);
        let bits = rng.gen_range(1u8..53);
        let q = quantize_mantissa(x, bits);
        assert_eq!(quantize_mantissa(q, bits), q, "not idempotent at {bits}");
        let err = (q - x).abs();
        let bound = x.abs() * 2.0f64.powi(-(i32::from(bits))) + f64::MIN_POSITIVE;
        assert!(err <= bound, "err {err} > bound {bound}");
        if bits < 52 {
            let finer = quantize_mantissa(x, bits + 1);
            assert!((finer - x).abs() <= err + f64::EPSILON * x.abs());
        }
    }
}

/// Design-space enumeration: size matches, configs are distinct and
/// admissible, and config_at agrees with iteration order.
#[test]
fn design_space_enumeration() {
    let mut rng = StdRng::seed_from_u64(0xA55);
    for _ in 0..32 {
        let a_hi = rng.gen_range(1i64..6);
        let step = rng.gen_range(1i64..3);
        let levels = rng.gen_range(1usize..4);
        let space = DesignSpace::new(vec![
            Knob::int("a", 0, a_hi, step),
            Knob::choice("v", (0..levels).map(|i| format!("c{i}"))),
        ]);
        let all: Vec<_> = space.iter().collect();
        assert_eq!(all.len() as u128, space.size());
        for (i, config) in all.iter().enumerate() {
            assert!(space.contains(config));
            assert_eq!(config, &space.config_at(i as u128));
        }
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}

/// Fault timeline: the point and window queries of one schedule agree
/// with each other. A node is down exactly on `[crash, repair)`,
/// `first_crash_in` sees a crash iff `node_alive` flips inside the
/// window, and the cluster-wide crash list is the sorted union of the
/// per-node ones.
#[test]
fn fault_timeline_queries_agree() {
    let mut rng = StdRng::seed_from_u64(0xA56);
    for _ in 0..64 {
        let seed: u64 = rng.gen();
        let nodes = rng.gen_range(1usize..12);
        let horizon = rng.gen_range(3600.0f64..86_400.0);
        let config = FaultConfig::exascale(seed, rng.gen_range(0.5f64..8.0));
        let schedule = FaultSchedule::generate(&config, nodes, horizon);

        let mut all_crashes = Vec::new();
        for node in 0..nodes {
            // walk the node's down windows: each crash, then its repair
            let mut down: Vec<(f64, f64)> = Vec::new();
            let mut from = 0.0;
            while let Some(crash) = schedule.first_crash_in(node, from, horizon) {
                let repair = schedule.next_repair_after(node, crash);
                let repair = repair.unwrap_or(f64::INFINITY);
                assert!(repair > crash, "node {node}: {crash} -> {repair}");
                down.push((crash, repair));
                from = repair;
            }
            // both edges of every window, and a grid finer than the repair
            // time: a window the walk skipped would be a dead sample
            let step = config.repair_time_s / 2.0;
            let marks: Vec<f64> = down
                .iter()
                .flat_map(|&(crash, repair)| [crash - 1e-6, crash, repair - 1e-6, repair])
                .filter(|t| t.is_finite())
                .chain(
                    (0..)
                        .map(|i| f64::from(i) * step)
                        .take_while(|&t| t <= horizon),
                )
                .collect();
            for &t in &marks {
                let is_down = down.iter().any(|&(crash, repair)| crash <= t && t < repair);
                assert_eq!(schedule.node_alive(node, t), !is_down, "node {node} at {t}");
            }
            // a window holds a crash iff the node goes down inside it
            for _ in 0..32 {
                let (a, b) = (
                    *marks.choose(&mut rng).unwrap(),
                    *marks.choose(&mut rng).unwrap(),
                );
                let expected = down.iter().map(|&(c, _)| c).find(|&c| a <= c && c < b);
                assert_eq!(
                    schedule.first_crash_in(node, a, b),
                    expected,
                    "node {node} [{a}, {b})"
                );
            }
            all_crashes.extend(down.iter().map(|&(crash, _)| crash));
        }
        // a node the schedule was not generated for never fails
        assert!(schedule.node_alive(nodes, horizon / 2.0));
        assert_eq!(schedule.first_crash_in(nodes, 0.0, horizon), None);

        all_crashes.sort_by(f64::total_cmp);
        for _ in 0..32 {
            let a = rng.gen_range(0.0..horizon);
            let b = rng.gen_range(a..horizon);
            let mut expected = all_crashes.clone();
            expected.retain(|&c| a <= c && c < b);
            assert_eq!(schedule.any_crash_between(a, b), expected, "[{a}, {b})");
        }
        assert_eq!(schedule.any_crash_between(0.0, horizon), all_crashes);
    }
}

/// SLA violation accounting: rate is consistent with direct counting.
#[test]
fn sla_counting() {
    let mut rng = StdRng::seed_from_u64(0xA57);
    for _ in 0..64 {
        let count = rng.gen_range(1usize..50);
        let values: Vec<f64> = (0..count).map(|_| rng.gen_range(0.0f64..2.0)).collect();
        let mut sla = antarex::monitor::Sla::upper_bound("m", 1.0);
        let mut manual = 0u64;
        for (i, v) in values.iter().enumerate() {
            if !sla.check(i as f64, *v) {
                manual += 1;
            }
        }
        assert_eq!(sla.report().violations, manual);
        assert_eq!(sla.report().checked, values.len() as u64);
    }
}

/// Fault schedules are a pure function of (config, nodes, horizon):
/// identical seeds yield identical schedules, different seeds differ.
#[test]
fn fault_schedules_deterministic_per_seed() {
    let mut rng = StdRng::seed_from_u64(0xA5B);
    for _ in 0..24 {
        let seed: u64 = rng.gen();
        let rate = rng.gen_range(0.5f64..8.0);
        let nodes = rng.gen_range(1usize..12);
        let horizon = rng.gen_range(3600.0f64..86_400.0);
        let config = FaultConfig::exascale(seed, rate);
        let a = FaultSchedule::generate(&config, nodes, horizon);
        let b = FaultSchedule::generate(&config, nodes, horizon);
        assert_eq!(a, b, "same inputs must replay identically");
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.summary(), b.summary());
        let other = FaultSchedule::generate(&FaultConfig::exascale(seed ^ 1, rate), nodes, horizon);
        assert_ne!(a.digest(), other.digest(), "seed must matter");
    }
}

/// Checkpoint/restart conservation: however the crashes fall, the run
/// completes exactly the requested work, wall clock covers it, and the
/// waste/overhead accounts are non-negative and consistent.
#[test]
fn checkpoint_restart_never_loses_completed_work() {
    use antarex::rtrm::checkpoint::{crash_source, run_to_completion, CheckpointPolicy};
    let mut rng = StdRng::seed_from_u64(0xA5C);
    for case in 0..48 {
        let work_s = rng.gen_range(500.0f64..5000.0);
        let interval = rng.gen_range(50.0f64..1500.0);
        let cost = rng.gen_range(0.0f64..20.0);
        let restart = rng.gen_range(0.0f64..60.0);
        let mtbf = rng.gen_range(200.0f64..4000.0);
        let policy = if case % 5 == 0 {
            CheckpointPolicy::none(restart)
        } else {
            CheckpointPolicy::every(interval, cost, restart)
        };
        // crash train long enough to outlive any sane wall clock
        let mut crashes = Vec::new();
        let mut t = 0.0;
        for _ in 0..64 {
            t += rng.gen_range(0.2 * mtbf..1.8 * mtbf);
            crashes.push(t);
        }
        let run = run_to_completion(work_s, policy, crash_source(crashes));
        assert_eq!(run.completed_work_s, work_s, "work must complete exactly");
        assert!(run.wasted_work_s >= 0.0);
        assert!(run.checkpoint_overhead_s >= 0.0);
        assert!(run.restart_overhead_s >= 0.0);
        assert!(
            run.wall_clock_s + 1e-6
                >= work_s + run.wasted_work_s + run.checkpoint_overhead_s + run.restart_overhead_s,
            "wall clock must cover every account"
        );
        assert!((0.0..1.0).contains(&run.overhead_fraction().min(1.0 - f64::EPSILON)));
    }
}

/// Random printable garbage for the robustness tests.
fn arb_garbage(rng: &mut StdRng, max_len: usize) -> String {
    let len = rng.gen_range(0..max_len + 1);
    (0..len)
        .map(|_| {
            // printable ASCII plus newline, as in the original "[ -~\n]"
            if rng.gen_bool(0.05) {
                '\n'
            } else {
                char::from(rng.gen_range(0x20u8..0x7F))
            }
        })
        .collect()
}

/// The mini-C parser returns errors, never panics, on arbitrary input.
#[test]
fn mini_c_parser_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xA58);
    for _ in 0..256 {
        let input = arb_garbage(&mut rng, 200);
        let _ = parse_program(&input);
        let _ = antarex::ir::parse_expr(&input);
        let _ = antarex::ir::parse_stmts(&input);
    }
}

/// The DSL front end returns errors, never panics, on arbitrary input.
#[test]
fn dsl_parser_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xA59);
    for _ in 0..256 {
        let input = arb_garbage(&mut rng, 200);
        let _ = antarex::dsl::parse_aspects(&input);
    }
}

/// Near-miss aspect sources (mutations of a valid one) never panic.
#[test]
fn dsl_parser_survives_mutations() {
    let mut rng = StdRng::seed_from_u64(0xA5A);
    let base = antarex::dsl::figures::FIG4_SPECIALIZE_KERNEL;
    for _ in 0..256 {
        let cut = rng.gen_range(0usize..200).min(base.len());
        let insert = arb_garbage(&mut rng, 5).replace('\n', " ");
        // splice garbage at a UTF-8 safe position
        let mut pos = cut;
        while !base.is_char_boundary(pos) {
            pos -= 1;
        }
        let mutated = format!("{}{}{}", &base[..pos], insert, &base[pos..]);
        let _ = antarex::dsl::parse_aspects(&mutated);
    }
}
