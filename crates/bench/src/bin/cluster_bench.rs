//! Headline numbers and gates for the fault-tolerant cluster RTRM.
//!
//! Prints a JSON object (for `BENCH_cluster.json`) combining the
//! *virtual-time* campaign metrics — deterministic,
//! hardware-independent — with honest *wall-clock* timings of the same
//! campaigns on this machine: goodput retention and facility-cap
//! overshoot per profile for the 4096-node cluster under the fault
//! storm (Weibull crashes + sensor dropouts + afternoon heat wave),
//! plus the worker-count invariance verdict.
//!
//! The acceptance gates are evaluated after the report and the process
//! exits nonzero when any fails, so CI can run this binary directly:
//!
//! * the fault-tolerant hierarchy holds the facility cap (peak
//!   overshoot ≤ 1%) AND keeps ≥ 95% of the fault-free goodput;
//! * the ambient-blind flat manager breaks the cap (> 1% overshoot);
//! * the checkpoint-less hierarchy loses goodput (< 95% retention);
//! * the storm actually fired (crashes and sensor fallbacks observed);
//! * the campaign digest is byte-identical at 1/2/4/8 workers.
//!
//! Usage: `cargo run --release -p antarex-bench --bin cluster_bench`

use antarex_bench::cluster_exp::{cluster_campaign, worker_invariance, ClusterScale};
use antarex_bench::{exit_on_failed_gates, physical_cores, print_gates, timed};

fn main() {
    let seed = 42;
    let scale = ClusterScale::full();
    let cores = physical_cores();
    let workers = cores.min(8);

    let (rows, wall_campaign_s) = timed(|| cluster_campaign(seed, &scale, workers));
    let (invariance, wall_invariance_s) = timed(|| worker_invariance(seed, &scale, &[1, 2, 4, 8]));

    let reference = rows[0].goodput_flops;
    let tolerant = &rows[1];
    let no_ckpt = &rows[2];
    let flat = &rows[3];
    let retention = |goodput: f64| goodput / reference;

    let gates = [
        (
            "tolerant_holds_facility_cap",
            format!("peak overshoot {:.4} <= 0.01", tolerant.peak_overshoot_frac),
            tolerant.peak_overshoot_frac <= 0.01,
        ),
        (
            "tolerant_retains_goodput",
            format!("retention {:.4} >= 0.95", retention(tolerant.goodput_flops)),
            retention(tolerant.goodput_flops) >= 0.95,
        ),
        (
            "flat_breaks_the_cap",
            format!("peak overshoot {:.4} > 0.01", flat.peak_overshoot_frac),
            flat.peak_overshoot_frac > 0.01,
        ),
        (
            "no_checkpoint_loses_goodput",
            format!("retention {:.4} < 0.95", retention(no_ckpt.goodput_flops)),
            retention(no_ckpt.goodput_flops) < 0.95,
        ),
        (
            "storm_actually_fired",
            format!(
                "crashes {} > 0, sensor fallbacks {} > 0",
                tolerant.crashes, tolerant.sensor_fallbacks
            ),
            tolerant.crashes > 0 && tolerant.sensor_fallbacks > 0,
        ),
        (
            "worker_invariance",
            format!("digests identical at {:?}", invariance.worker_counts),
            invariance.identical,
        ),
    ];

    println!("{{");
    println!("  \"benchmark\": \"antarex-rtrm: fault-tolerant cluster-scale control plane\",");
    println!("  \"physical_cores\": {cores},");
    println!("  \"workload\": {{");
    println!("    \"nodes\": {},", scale.nodes);
    println!("    \"jobs\": {},", scale.jobs);
    println!("    \"virtual_horizon_s\": {:.0},", scale.horizon_s);
    println!("    \"control_step_s\": {:.0},", scale.dt_s);
    println!("    \"facility_cap_w\": {:.0},", scale.facility_cap_w);
    println!("    \"node_mtbf_s\": {:.0},", scale.node_mtbf_s());
    println!(
        "    \"heat_wave_c\": [{:.0}, {:.0}],",
        scale.ambient_start_c, scale.ambient_peak_c
    );
    println!("    \"workers\": {workers}");
    println!("  }},");
    println!("  \"profiles\": {{");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        println!("    \"{}\": {{", row.profile);
        println!("      \"goodput_flops\": {:.6e},", row.goodput_flops);
        println!(
            "      \"goodput_retention\": {:.4},",
            retention(row.goodput_flops)
        );
        println!("      \"completed_jobs\": {},", row.completed_jobs);
        println!(
            "      \"peak_overshoot_frac\": {:.6},",
            row.peak_overshoot_frac
        );
        println!("      \"overshoot_ws\": {:.3},", row.overshoot_ws);
        println!("      \"crashes\": {},", row.crashes);
        println!("      \"requeues\": {},", row.requeues);
        println!("      \"migrations\": {},", row.migrations);
        println!("      \"throttle_events\": {},", row.throttle_events);
        println!("      \"sensor_fallbacks\": {},", row.sensor_fallbacks);
        println!("      \"checkpoints\": {},", row.checkpoints);
        println!("      \"energy_mj\": {:.3},", row.energy_j / 1e6);
        println!("      \"digest\": \"{:016x}\"", row.digest);
        println!("    }}{comma}");
    }
    println!("  }},");
    println!("  \"worker_invariance\": {{");
    println!("    \"worker_counts\": {:?},", invariance.worker_counts);
    println!(
        "    \"digests\": [{}],",
        invariance
            .digests
            .iter()
            .map(|d| format!("\"{d:016x}\""))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("    \"identical\": {}", invariance.identical);
    println!("  }},");
    print_gates(&gates);
    println!("  \"wall_clock_s\": {{");
    println!("    \"campaign\": {wall_campaign_s:.3},");
    println!("    \"worker_invariance\": {wall_invariance_s:.3}");
    println!("  }}");
    println!("}}");

    exit_on_failed_gates("cluster_bench", &gates);
}
