//! Headline numbers for the multi-tenant autotuning service.
//!
//! Prints a JSON object (for `BENCH_serve.json`) combining the
//! *virtual-time* metrics the reports are built on — deterministic,
//! hardware-independent — with honest *wall-clock* timings of the same
//! runs on this machine. On a single-core host the wall-clock speedup
//! sits near 1.0 while the virtual speedup reflects the pool's
//! scheduling; both are recorded side by side.
//!
//! Usage: `cargo run --release -p antarex-bench --bin serve_bench`

use antarex_bench::serve_exp::{batched_evaluation, scaling_row, ServeScale};
use antarex_bench::{physical_cores, timed};

fn main() {
    let seed = 42;
    let scale = ServeScale::full();
    let tenants = 64;

    let (one, wall_one_s) = timed(|| scaling_row(seed, &scale, tenants, 1));
    let (four, wall_four_s) = timed(|| scaling_row(seed, &scale, tenants, 4));
    let (bench, _) = timed(|| batched_evaluation(seed, scale.batch_tenants, 4));

    let cores = physical_cores();
    println!("{{");
    println!("  \"benchmark\": \"antarex-serve: multi-tenant autotuning service\",");
    println!("  \"physical_cores\": {cores},");
    println!("  \"driven_workload\": {{");
    println!("    \"tenants\": {tenants},");
    println!("    \"requests\": {},", one.requests);
    println!("    \"served\": {},", one.served);
    println!("    \"cache_hit_rate\": {:.4},", one.cache_hit_rate());
    println!(
        "    \"virtual_throughput_rps_1_worker\": {:.1},",
        one.throughput_rps()
    );
    println!(
        "    \"virtual_throughput_rps_4_workers\": {:.1},",
        four.throughput_rps()
    );
    println!("    \"wall_s_1_worker\": {wall_one_s:.3},");
    println!("    \"wall_s_4_workers\": {wall_four_s:.3}");
    println!("  }},");
    println!("  \"batched_evaluation\": {{");
    println!("    \"distinct_design_points\": {},", bench.jobs);
    println!(
        "    \"virtual_makespan_s_1_worker\": {:.3},",
        bench.serial_makespan_s
    );
    println!(
        "    \"virtual_makespan_s_4_workers\": {:.3},",
        bench.parallel_makespan_s
    );
    println!("    \"virtual_speedup_4_workers\": {:.2},", bench.speedup());
    println!(
        "    \"virtual_eval_per_s_1_worker\": {:.1},",
        bench.serial_throughput_rps()
    );
    println!(
        "    \"virtual_eval_per_s_4_workers\": {:.1}",
        bench.parallel_throughput_rps()
    );
    println!("  }}");
    println!("}}");
}
