//! CL1 — fault-tolerant cluster-scale RTRM under a fault storm.
//!
//! The headline robustness campaign, [`antarex_rtrm::campaign`], as an
//! experiment: all four profiles at one seed, the worker-count
//! invariance check, the `cl1` report and `BENCH_cluster.json`.

use crate::{fixed, hex, list, BenchFile, Map, Value};
use antarex_rtrm::checkpoint::daly_interval_s;
// re-exported until every caller imports the campaign from `rtrm`
pub use antarex_rtrm::campaign::{
    run_profile, storm_config, ClusterProfile, ClusterScale, ProfileOutcome,
};

// ---------------------------------------------------------------------------
// Campaign + invariance
// ---------------------------------------------------------------------------

/// Runs all four profiles; order is fixed (`fault_free` first so row 0
/// is always the retention denominator).
pub(crate) fn cluster_campaign(
    seed: u64,
    scale: &ClusterScale,
    workers: usize,
) -> Vec<ProfileOutcome> {
    [
        ClusterProfile::FaultFree,
        ClusterProfile::FaultTolerant,
        ClusterProfile::NoCheckpoint,
        ClusterProfile::Flat,
    ]
    .iter()
    .map(|&profile| run_profile(seed, scale, profile, workers))
    .collect()
}

/// Worker-count invariance verdict.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct InvarianceOutcome {
    /// Worker counts exercised.
    pub worker_counts: Vec<usize>,
    /// Campaign digest per worker count.
    pub digests: Vec<u64>,
    /// Whether every digest matched the single-worker run.
    pub identical: bool,
}

/// Reruns the fault-tolerant profile at each worker count and compares
/// the full-state digests: physical parallelism must never leak into
/// the virtual campaign.
pub(crate) fn worker_invariance(
    seed: u64,
    scale: &ClusterScale,
    counts: &[usize],
) -> InvarianceOutcome {
    let digests: Vec<u64> = counts
        .iter()
        .map(|&workers| run_profile(seed, scale, ClusterProfile::FaultTolerant, workers).digest)
        .collect();
    let identical = digests.windows(2).all(|pair| pair[0] == pair[1]);
    InvarianceOutcome {
        worker_counts: counts.to_vec(),
        digests,
        identical,
    }
}

// ---------------------------------------------------------------------------
// Experiment report
// ---------------------------------------------------------------------------

/// The registered `cl1` experiment: the tiny-scale campaign with the
/// same four profiles and verdicts, deterministic text.
pub(crate) fn cl1_cluster_rtrm() -> String {
    let seed = 42;
    let scale = ClusterScale::tiny();
    let rows = cluster_campaign(seed, &scale, 2);
    let invariance = worker_invariance(seed, &scale, &[1, 2, 4]);
    let reference = rows[0].goodput_flops;

    let mut out = String::new();
    out.push_str(&format!(
        "cluster RTRM campaign (seed {seed}, {} nodes, {} jobs, {:.0} s virtual, cap {:.0} kW)\n",
        scale.nodes,
        scale.jobs,
        scale.horizon_s,
        scale.facility_cap_w / 1e3
    ));
    out.push_str(&format!(
        "storm: node MTBF {:.0} s, checkpoint interval {:.0} s (Daly), heat wave {:.0} -> {:.0} degC\n\n",
        scale.node_mtbf_s(),
        daly_interval_s(scale.node_mtbf_s(), scale.ckpt_cost_s),
        scale.ambient_start_c,
        scale.ambient_peak_c
    ));
    out.push_str(
        "profile          goodput  retain  peak-over  crashes  requeue  migrate  throttle  sensor-fb  ckpts\n",
    );
    for row in &rows {
        out.push_str(&format!(
            "{:<16} {:>7.2e}  {:>5.1}%  {:>8.2}%  {:>7}  {:>7}  {:>7}  {:>8}  {:>9}  {:>5}\n",
            row.profile,
            row.goodput_flops,
            100.0 * row.goodput_flops / reference,
            100.0 * row.peak_overshoot_frac,
            row.crashes,
            row.requeues,
            row.migrations,
            row.throttle_events,
            row.sensor_fallbacks,
            row.checkpoints,
        ));
    }
    let tolerant = &rows[1];
    let no_ckpt = &rows[2];
    let flat = &rows[3];
    out.push_str(&format!(
        "\nworker invariance ({:?} workers): digests {:?} -> {}\n",
        invariance.worker_counts,
        invariance
            .digests
            .iter()
            .map(|d| format!("{d:016x}"))
            .collect::<Vec<_>>(),
        if invariance.identical {
            "identical"
        } else {
            "DIVERGED"
        }
    ));
    out.push_str(&format!(
        "verdict: tolerant holds the cap ({}), checkpoints pay ({}), ambient-blind flat overshoots ({})\n",
        if tolerant.peak_overshoot_frac <= 0.01 { "yes" } else { "NO" },
        if tolerant.goodput_flops > no_ckpt.goodput_flops { "yes" } else { "NO" },
        if flat.peak_overshoot_frac > tolerant.peak_overshoot_frac { "yes" } else { "NO" },
    ));
    out
}

/// `BENCH_cluster.json`: the four profiles at 4096 nodes under the
/// storm, the 1/2/4/8-worker digests, and the control plane's gates.
pub(crate) fn cl1_bench() -> BenchFile {
    let seed = 42;
    let scale = ClusterScale::full();
    // the host's threads, at most 8: no field depends on the count
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
    let rows = cluster_campaign(seed, &scale, workers);
    let invariance = worker_invariance(seed, &scale, &[1, 2, 4, 8]);

    let retention = |row: &ProfileOutcome| row.goodput_flops / rows[0].goodput_flops;
    let outcome = |row: &ProfileOutcome| {
        map! {
            "goodput_flops": Value::Raw(format!("{:.6e}", row.goodput_flops)),
            "goodput_retention": fixed(retention(row), 4),
            "completed_jobs": row.completed_jobs,
            "peak_overshoot_frac": fixed(row.peak_overshoot_frac, 6),
            "overshoot_ws": fixed(row.overshoot_ws, 3),
            "crashes": row.crashes,
            "requeues": row.requeues,
            "migrations": row.migrations,
            "throttle_events": row.throttle_events,
            "sensor_fallbacks": row.sensor_fallbacks,
            "checkpoints": row.checkpoints,
            "energy_mj": fixed(row.energy_j / 1e6, 3),
            "digest": hex(row.digest),
        }
    };
    let (tolerant, no_ckpt, flat) = (&rows[1], &rows[2], &rows[3]);
    let (tolerant_over, flat_over) = (tolerant.peak_overshoot_frac, flat.peak_overshoot_frac);
    let (tolerant_kept, no_ckpt_kept) = (retention(tolerant), retention(no_ckpt));
    let (crashes, fallbacks) = (tolerant.crashes, tolerant.sensor_fallbacks);
    let counts = &invariance.worker_counts;

    BenchFile {
        title: "antarex-rtrm: fault-tolerant cluster-scale control plane",
        fields: map! {
            "workload": map! {
                "nodes": scale.nodes,
                "jobs": scale.jobs,
                "virtual_horizon_s": fixed(scale.horizon_s, 0),
                "control_step_s": fixed(scale.dt_s, 0),
                "facility_cap_w": fixed(scale.facility_cap_w, 0),
                "node_mtbf_s": fixed(scale.node_mtbf_s(), 0),
                "heat_wave_c": list([fixed(scale.ambient_start_c, 0), fixed(scale.ambient_peak_c, 0)]),
            },
            "profiles": rows.iter().map(|row| (row.profile, outcome(row))).collect::<Map>(),
            "worker_invariance": map! {
                "worker_counts": list(counts.clone()),
                "digests": list(invariance.digests.iter().map(|&digest| hex(digest))),
                "identical": invariance.identical,
            },
        },
        gates: gates! {
            "tolerant_holds_facility_cap": tolerant_over <= 0.01, "peak overshoot {tolerant_over:.4} <= 0.01";
            "tolerant_retains_goodput": tolerant_kept >= 0.95, "retention {tolerant_kept:.4} >= 0.95";
            "flat_breaks_the_cap": flat_over > 0.01, "peak overshoot {flat_over:.4} > 0.01";
            "no_checkpoint_loses_goodput": no_ckpt_kept < 0.95, "retention {no_ckpt_kept:.4} < 0.95";
            "storm_actually_fired": crashes > 0 && fallbacks > 0,
                "crashes {crashes} > 0, sensor fallbacks {fallbacks} > 0";
            "worker_invariance": invariance.identical, "digests identical at {counts:?}";
        },
        host_clock: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_state_is_worker_count_invariant() {
        let scale = ClusterScale::tiny();
        let invariance = worker_invariance(42, &scale, &[1, 2, 3, 8]);
        assert!(
            invariance.identical,
            "digests diverged: {:?}",
            invariance.digests
        );
    }

    #[test]
    fn tolerant_beats_no_checkpoint_and_flat_breaks_the_cap() {
        let scale = ClusterScale::tiny();
        let rows = cluster_campaign(42, &scale, 2);
        let (fault_free, tolerant, no_ckpt, flat) = (&rows[0], &rows[1], &rows[2], &rows[3]);
        assert_eq!(fault_free.crashes, 0);
        assert!(tolerant.crashes > 0, "storm must crash nodes");
        assert!(tolerant.sensor_fallbacks > 0, "storm must degrade sensors");
        assert!(
            tolerant.goodput_flops > no_ckpt.goodput_flops,
            "checkpoints must retain goodput: {} vs {}",
            tolerant.goodput_flops,
            no_ckpt.goodput_flops
        );
        assert!(
            flat.peak_overshoot_frac > tolerant.peak_overshoot_frac,
            "ambient-blind flat must overshoot more: {} vs {}",
            flat.peak_overshoot_frac,
            tolerant.peak_overshoot_frac
        );
        assert!(
            tolerant.peak_overshoot_frac <= 0.01,
            "tolerant must hold the cap, overshot {:.4}",
            tolerant.peak_overshoot_frac
        );
    }

    #[test]
    fn report_renders_and_is_stable() {
        let a = cl1_cluster_rtrm();
        let b = cl1_cluster_rtrm();
        assert_eq!(a, b);
        assert!(a.contains("fault_tolerant"));
        assert!(a.contains("identical"));
    }
}
