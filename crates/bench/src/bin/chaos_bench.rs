//! Headline numbers for the chaos-hardened serving tier.
//!
//! Prints a JSON object (for `BENCH_chaos.json`) combining the
//! *virtual-time* availability metrics — deterministic,
//! hardware-independent — with honest *wall-clock* timings of the same
//! campaigns on this machine: goodput per hardening profile under the
//! R2 fault schedule, poisoned-tenant containment, and the mid-run
//! crash/recovery drill with its bit-identity verdict.
//!
//! Usage: `cargo run --release -p antarex-bench --bin chaos_bench`

use antarex_bench::chaos_exp::{
    crash_recovery_drill, goodput_campaign, poisoned_tenant_containment, ChaosScale,
};
use antarex_bench::{physical_cores, print_crash_recovery, timed};

fn main() {
    let seed = 42;
    let scale = ChaosScale::full();

    let (rows, wall_goodput_s) = timed(|| goodput_campaign(seed, &scale));
    let (containment, wall_containment_s) = timed(|| poisoned_tenant_containment(seed, &scale));
    let (recovery, wall_recovery_s) = timed(|| crash_recovery_drill(seed, &scale));

    let baseline = rows[0].stats.goodput();
    let cores = physical_cores();
    println!("{{");
    println!("  \"benchmark\": \"antarex-serve: chaos-hardened serving tier\",");
    println!("  \"physical_cores\": {cores},");
    println!("  \"workload\": {{");
    println!("    \"tenants\": {},", scale.tenants);
    println!("    \"workers\": {},", scale.workers);
    println!("    \"virtual_duration_s\": {:.0},", scale.duration_s);
    println!("    \"requests\": {}", rows[0].stats.requests);
    println!("  }},");
    println!("  \"goodput_under_faults\": {{");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        println!("    \"{}\": {{", row.profile);
        println!("      \"served\": {},", row.stats.served);
        println!("      \"failed\": {},", row.stats.failed);
        println!("      \"goodput\": {:.4},", row.stats.goodput());
        println!(
            "      \"relative_goodput\": {:.4},",
            if baseline > 0.0 {
                row.stats.goodput() / baseline
            } else {
                0.0
            }
        );
        println!("      \"retries\": {},", row.stats.retries);
        println!("      \"hedges\": {},", row.stats.hedges);
        println!("      \"quarantined\": {}", row.stats.quarantined);
        println!("    }}{comma}");
    }
    println!("  }},");
    println!("  \"poisoned_tenant_containment\": {{");
    println!(
        "    \"poisoned_requests\": {},",
        containment.poisoned_requests
    );
    println!(
        "    \"poisoned_rejected\": {},",
        containment.poisoned_rejected
    );
    println!("    \"breaker_trips\": {},", containment.breaker_trips);
    println!("    \"quarantined\": {},", containment.quarantined);
    println!("    \"others_served\": {}", containment.others_served);
    println!("  }},");
    print_crash_recovery(&recovery);
    println!("  \"wall_clock_s\": {{");
    println!("    \"goodput_campaign\": {wall_goodput_s:.3},");
    println!("    \"containment\": {wall_containment_s:.3},");
    println!("    \"recovery_drill\": {wall_recovery_s:.3}");
    println!("  }}");
    println!("}}");
}
