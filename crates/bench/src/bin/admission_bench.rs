//! Headline numbers and gates for the SLO front door.
//!
//! Prints a JSON object (for `BENCH_admission.json`) combining the
//! *virtual-time* overload metrics — deterministic,
//! hardware-independent — with honest *wall-clock* timings of the same
//! campaigns on this machine: per-class goodput and p99 across the
//! uncontended / open-door / controlled profiles, the virtual-capacity
//! invariance verdict, and the mid-campaign crash/recovery drill.
//!
//! The acceptance gates are evaluated after the report and the process
//! exits nonzero when any fails, so CI can run this binary directly:
//!
//! * the controlled stack keeps ≥ 95% of the uncontended well-behaved
//!   goodput while the open door keeps ≤ 90%;
//! * the controlled well-behaved p99 stays below the open door's;
//! * the autoscaler actually grew virtual capacity;
//! * outcomes and state are byte-identical across physical worker
//!   counts;
//! * crash recovery restores the front-door state bit-identically.
//!
//! Usage: `cargo run --release -p antarex-bench --bin admission_bench`

use antarex_bench::admission_exp::{
    crash_recovery_drill, overload_campaign, worker_invariance, AdmissionScale, RunOutcome,
};
use antarex_bench::{
    exit_on_failed_gates, physical_cores, print_crash_recovery, print_gates, timed,
};

fn print_run(row: &RunOutcome, comma: &str) {
    println!("    \"{}\": {{", row.profile);
    for (class, stats, trailing) in [("wb", &row.wb, ","), ("aggressive", &row.aggressive, ",")] {
        println!("      \"{class}\": {{");
        println!("        \"requests\": {},", stats.requests);
        println!("        \"served\": {},", stats.served);
        println!("        \"shed\": {},", stats.shed);
        println!("        \"failed\": {},", stats.failed);
        println!("        \"goodput\": {:.4},", stats.goodput());
        println!("        \"p99_latency_s\": {:.4}", stats.p99_latency_s);
        println!("      }}{trailing}");
    }
    println!("      \"degraded\": {},", row.degraded);
    println!("      \"admission_shed\": {},", row.admission_shed);
    println!("      \"tier_transitions\": {},", row.transitions);
    println!("      \"peak_virtual_capacity\": {}", row.peak_capacity);
    println!("    }}{comma}");
}

fn main() {
    let seed = 42;
    let scale = AdmissionScale::full();

    let (rows, wall_campaign_s) = timed(|| overload_campaign(seed, &scale));
    let (invariance, wall_invariance_s) = timed(|| worker_invariance(seed, &scale));
    let (recovery, wall_recovery_s) = timed(|| crash_recovery_drill(seed, &scale));

    let uncontended = &rows[0];
    let open_door = &rows[1];
    let controlled = &rows[2];
    let reference = uncontended.wb.goodput();
    let controlled_rel = controlled.wb.goodput() / reference;
    let open_rel = open_door.wb.goodput() / reference;

    let gates = [
        (
            "controlled_keeps_wb_goodput",
            format!("{controlled_rel:.4} >= 0.95"),
            controlled_rel >= 0.95,
        ),
        (
            "open_door_collapses",
            format!("{open_rel:.4} <= 0.90"),
            open_rel <= 0.90,
        ),
        (
            "controlled_holds_p99",
            format!(
                "{:.3} s < {:.3} s",
                controlled.wb.p99_latency_s, open_door.wb.p99_latency_s
            ),
            controlled.wb.p99_latency_s < open_door.wb.p99_latency_s,
        ),
        (
            "autoscaler_grew_capacity",
            format!("{} > {}", controlled.peak_capacity, scale.workers),
            controlled.peak_capacity > scale.workers,
        ),
        (
            "aggressive_tenants_shed",
            format!("{} > 0", controlled.admission_shed),
            controlled.admission_shed > 0,
        ),
        (
            "physical_worker_invariance",
            format!(
                "outcomes {} / state {}",
                invariance.outcomes_identical, invariance.state_identical
            ),
            invariance.outcomes_identical && invariance.state_identical,
        ),
        (
            "crash_recovery_bit_identical",
            format!("{}", recovery.bit_identical),
            recovery.bit_identical,
        ),
    ];

    let cores = physical_cores();
    println!("{{");
    println!("  \"benchmark\": \"antarex-serve: SLO front door under bursty overload\",");
    println!("  \"physical_cores\": {cores},");
    println!("  \"workload\": {{");
    println!("    \"well_behaved_tenants\": {},", scale.wb_tenants);
    println!("    \"aggressive_tenants\": {},", scale.aggressive_tenants);
    println!("    \"workers\": {},", scale.workers);
    println!("    \"queue_capacity\": {},", scale.queue_capacity);
    println!("    \"virtual_duration_s\": {:.0}", scale.duration_s);
    println!("  }},");
    println!("  \"overload_campaign\": {{");
    for (i, row) in rows.iter().enumerate() {
        print_run(row, if i + 1 < rows.len() { "," } else { "" });
    }
    println!("  }},");
    println!("  \"worker_invariance\": {{");
    println!("    \"worker_counts\": {:?},", invariance.worker_counts);
    println!(
        "    \"outcomes_identical\": {},",
        invariance.outcomes_identical
    );
    println!("    \"state_identical\": {}", invariance.state_identical);
    println!("  }},");
    print_crash_recovery(&recovery);
    print_gates(&gates);
    println!("  \"wall_clock_s\": {{");
    println!("    \"overload_campaign\": {wall_campaign_s:.3},");
    println!("    \"worker_invariance\": {wall_invariance_s:.3},");
    println!("    \"recovery_drill\": {wall_recovery_s:.3}");
    println!("  }}");
    println!("}}");

    exit_on_failed_gates("admission_bench", &gates);
}
