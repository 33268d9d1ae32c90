//! Headline numbers for the tuner hot-path data plane.
//!
//! Prints a JSON object (for `BENCH_tuner.json`) combining honest
//! *wall-clock* micro-loop timings on this machine — indexed select vs
//! the retained linear reference, structural cache probes vs the
//! retained string-keyed reference — with the *virtual-time* DSE
//! speedups, which are deterministic and hardware-independent (on a
//! single-core host the wall-clock DSE speedup sits near 1.0 while the
//! virtual speedup reflects the evaluation schedule).
//!
//! Its one gate, `dse_worker_invariance`, holds when every technique of
//! the DSE grid explores byte-identically at 1, 2, 4 and 8 workers; the
//! binary exits nonzero when it fails.
//!
//! Usage: `cargo run --release -p antarex-bench --bin tuner_bench`

use antarex_bench::tuner_exp::{dse_grid, HotPathScale, WORKER_COUNTS};
use antarex_bench::{exit_on_failed_gates, ns_per_op, physical_cores, print_gates, timed};
use antarex_serve::cache::{DesignKey, DesignPointCache, Metrics, ReferenceKey};
use antarex_tuner::goal::{Constraint, Objective};
use antarex_tuner::knob::KnobValue;
use antarex_tuner::space::Configuration;
use antarex_tuner::{KnowledgeBase, OperatingPoint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;

fn config(i: u64) -> Configuration {
    let mut c = Configuration::new();
    c.set("unroll", KnobValue::Int((i % 32) as i64));
    c.set("block", KnobValue::Int((i / 32 % 32) as i64));
    c.set("threads", KnobValue::Int((i / 1024 % 8) as i64));
    c
}

fn knowledge(points: u64) -> KnowledgeBase {
    let mut rng = StdRng::seed_from_u64(7);
    (0..points)
        .map(|i| {
            OperatingPoint::new(
                config(i),
                [
                    ("time".to_string(), rng.gen::<f64>() * 10.0),
                    ("energy".to_string(), rng.gen::<f64>() * 100.0),
                    ("quality".to_string(), rng.gen::<f64>()),
                ],
            )
        })
        .collect()
}

fn main() {
    let kb = knowledge(2048);
    let objective = Objective::minimize("time");
    let constraints = [
        Constraint::at_most("energy", 60.0),
        Constraint::at_least("quality", 0.2),
    ];

    // select micro-loop: indexed probe vs retained linear scan
    let select_indexed_ns = ns_per_op(20_000, || {
        black_box(kb.best(black_box(&objective), black_box(&constraints)));
    });
    let select_linear_ns = ns_per_op(2_000, || {
        black_box(kb.best_linear(black_box(&objective), black_box(&constraints)));
    });

    // learn micro-loop: steady-state online update on the indexed base
    let mut learner = kb.clone();
    let mut i = 0u64;
    let learn_ns = ns_per_op(20_000, || {
        i = i.wrapping_add(997);
        learner.learn(
            OperatingPoint::new(config(i % 2048), [("time".to_string(), 1.0)]),
            0.2,
        );
    });

    // cache probes: structural key vs retained string-keyed reference
    let cache = DesignPointCache::new(8);
    let metrics: Metrics = [("time".to_string(), 1.0)].into_iter().collect();
    let mut reference: BTreeMap<ReferenceKey, Metrics> = BTreeMap::new();
    for j in 0..256u64 {
        cache.insert(DesignKey::new(&config(j), &[1.0]), metrics.clone());
        reference.insert(ReferenceKey::new(&config(j), &[1.0]), metrics.clone());
    }
    let mut k = 0u64;
    let cache_hit_ns = ns_per_op(50_000, || {
        k = k.wrapping_add(1);
        black_box(cache.get(&DesignKey::new(&config(k % 256), &[1.0])));
    });
    let mut k = 0u64;
    let cache_ref_ns = ns_per_op(50_000, || {
        k = k.wrapping_add(1);
        black_box(reference.get(&ReferenceKey::new(&config(k % 256), &[1.0])));
    });

    // parallel DSE: deterministic virtual speedups + wall clock
    let scale = HotPathScale::full();
    let (grid, dse_wall_s) = timed(|| dse_grid(424244, scale.dse_budget));
    let diverged: Vec<&str> = grid
        .iter()
        .filter(|row| !row.invariant)
        .map(|row| row.technique)
        .collect();
    let gates = [(
        "dse_worker_invariance",
        if diverged.is_empty() {
            format!("reports identical at {WORKER_COUNTS:?} workers")
        } else {
            format!("diverged: {}", diverged.join(", "))
        },
        diverged.is_empty(),
    )];

    let cores = physical_cores();
    println!("{{");
    println!("  \"benchmark\": \"antarex-tuner: hot-path data plane\",");
    println!("  \"physical_cores\": {cores},");
    println!("  \"select_2048_points\": {{");
    println!("    \"indexed_ns_per_op\": {select_indexed_ns:.0},");
    println!("    \"linear_reference_ns_per_op\": {select_linear_ns:.0},");
    println!(
        "    \"speedup\": {:.1}",
        select_linear_ns / select_indexed_ns
    );
    println!("  }},");
    println!("  \"learn_2048_points\": {{");
    println!("    \"ns_per_op\": {learn_ns:.0}");
    println!("  }},");
    println!("  \"cache_probe_hit\": {{");
    println!("    \"structural_ns_per_op\": {cache_hit_ns:.0},");
    println!("    \"string_reference_ns_per_op\": {cache_ref_ns:.0},");
    println!("    \"speedup\": {:.1}", cache_ref_ns / cache_hit_ns);
    println!("  }},");
    print_gates(&gates);
    println!("  \"parallel_dse\": {{");
    println!("    \"budget_per_technique\": {},", scale.dse_budget);
    println!("    \"grid_wall_s\": {dse_wall_s:.3},");
    println!("    \"techniques\": [");
    for (t, row) in grid.iter().enumerate() {
        let comma = if t + 1 < grid.len() { "," } else { "" };
        let makespans = WORKER_COUNTS
            .iter()
            .zip(&row.makespans)
            .map(|(w, m)| format!("\"{w}\": {m:.2}"))
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "      {{\"technique\": \"{}\", \"evaluations\": {}, \"virtual_makespan_s\": {{{makespans}}}, \"virtual_speedup_4_workers\": {:.2}}}{comma}",
            row.technique,
            row.evaluations,
            row.makespans[0] / row.makespans[2]
        );
    }
    println!("    ]");
    println!("  }}");
    println!("}}");
    exit_on_failed_gates("tuner_bench", &gates);
}
