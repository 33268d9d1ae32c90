//! Headline numbers and gates for the work-stealing docking scheduler.
//!
//! Prints a JSON object (for `BENCH_docking.json`) combining the
//! *virtual-time* schedule metrics — deterministic,
//! hardware-independent — with honest *wall-clock* timings of the
//! scheduling passes on this machine: a million-ligand scaffold-sorted
//! screening library scheduled by every policy across a 1/2/4/8
//! virtual-core grid, the uniform control library, and the mixed
//! nav + docking service campaign at varying physical worker counts.
//!
//! The acceptance gates are evaluated after the report and the process
//! exits nonzero when any fails, so CI can run this binary directly:
//!
//! * the campaign is at drug-discovery scale (≥ 10⁶ tasks);
//! * stealing beats the static block partition ≥ 1.5× on the
//!   scaffold-sorted library at 8 cores;
//! * stealing stays within 1.02× of block on the uniform control;
//! * stealing actually stole (transactions observed);
//! * the mixed-campaign digest is byte-identical at 1/2/4/8 physical
//!   workers.
//!
//! Usage: `cargo run --release -p antarex-bench --bin docking_bench`

use antarex_bench::docking_exp::{
    campaign_invariance, scaffold_sorted_library, schedule_grid, uniform_library, DockingScale,
};
use antarex_bench::{exit_on_failed_gates, physical_cores, print_gates, timed};

fn main() {
    let scale = DockingScale::million();
    let cores = physical_cores();

    let (imbalanced, wall_library_s) = timed(|| scaffold_sorted_library(&scale));
    let total_work: f64 = imbalanced.costs.iter().sum();
    let (grid, wall_grid_s) = timed(|| schedule_grid(&imbalanced, &[1, 2, 4, 8]));
    let (uniform_grid, wall_uniform_s) = timed(|| schedule_grid(&uniform_library(&scale), &[8]));
    let counts = [1usize, 2, 4, 8];
    let ((digests, identical), wall_campaign_s) =
        timed(|| campaign_invariance(scale.seed, &counts));

    let eight = grid.last().expect("grid has rows");
    let uniform_eight = &uniform_grid[0];
    let uniform_ratio = uniform_eight.steal_s / uniform_eight.block_s;

    let gates = [
        (
            "million_task_scale",
            format!("{} tasks >= 1000000", scale.tasks),
            scale.tasks >= 1_000_000,
        ),
        (
            "stealing_beats_static_block",
            format!(
                "steal-vs-block {:.2}x >= 1.50x at 8 cores",
                eight.speedup_vs_block()
            ),
            eight.speedup_vs_block() >= 1.5,
        ),
        (
            "uniform_parity_held",
            format!("uniform steal/block {uniform_ratio:.4} <= 1.02"),
            uniform_ratio <= 1.02,
        ),
        (
            "stealing_actually_fired",
            format!("{} steal transactions at 8 cores", eight.steals),
            eight.steals > 0,
        ),
        (
            "physical_worker_invariance",
            format!("campaign digests identical at {counts:?}"),
            identical,
        ),
    ];

    println!("{{");
    println!(
        "  \"benchmark\": \"antarex-serve: deterministic work stealing at drug-discovery scale\","
    );
    println!("  \"physical_cores\": {cores},");
    println!("  \"workload\": {{");
    println!("    \"tasks\": {},", scale.tasks);
    println!("    \"scaffold_families\": {},", scale.families);
    println!("    \"pocket_spheres\": {},", scale.spheres);
    println!("    \"seed\": {},", scale.seed);
    println!("    \"total_work_core_s\": {total_work:.1}");
    println!("  }},");
    println!("  \"schedule_grid\": {{");
    for (i, row) in grid.iter().enumerate() {
        let comma = if i + 1 < grid.len() { "," } else { "" };
        println!("    \"cores_{}\": {{", row.cores);
        println!("      \"block_makespan_s\": {:.3},", row.block_s);
        println!("      \"list_makespan_s\": {:.3},", row.list_s);
        println!("      \"lpt_makespan_s\": {:.3},", row.lpt_s);
        println!("      \"steal_makespan_s\": {:.3},", row.steal_s);
        println!("      \"steals\": {},", row.steals);
        println!("      \"steal_vs_block\": {:.3},", row.speedup_vs_block());
        println!(
            "      \"effective_cores\": {:.3},",
            row.goodput_cores(total_work)
        );
        println!("      \"digest\": \"{:016x}\"", row.digest);
        println!("    }}{comma}");
    }
    println!("  }},");
    println!("  \"uniform_control\": {{");
    println!("    \"block_makespan_s\": {:.3},", uniform_eight.block_s);
    println!("    \"steal_makespan_s\": {:.3},", uniform_eight.steal_s);
    println!("    \"steal_over_block\": {uniform_ratio:.4}");
    println!("  }},");
    println!("  \"mixed_campaign_invariance\": {{");
    println!("    \"physical_workers\": {counts:?},");
    println!(
        "    \"digests\": [{}],",
        digests
            .iter()
            .map(|d| format!("\"{d:016x}\""))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("    \"identical\": {identical}");
    println!("  }},");
    print_gates(&gates);
    println!("  \"wall_clock_s\": {{");
    println!("    \"library\": {wall_library_s:.3},");
    println!("    \"schedule_grid\": {wall_grid_s:.3},");
    println!("    \"uniform_control\": {wall_uniform_s:.3},");
    println!("    \"mixed_campaign\": {wall_campaign_s:.3}");
    println!("  }}");
    println!("}}");

    exit_on_failed_gates("docking_bench", &gates);
}
