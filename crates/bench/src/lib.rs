//! # antarex-bench — the experiment harness
//!
//! Regenerates every figure and every quantitative claim of the paper
//! (Silvano et al., DATE 2016) on the simulated substrate. Each
//! experiment is a function returning a printable report; the
//! `experiments` binary prints them all (or a `--only` selection), and
//! the criterion benches time the underlying mechanisms.
//!
//! Experiment index (see DESIGN.md §4 and EXPERIMENTS.md):
//!
//! | id | source | reproduces |
//! |----|--------|------------|
//! | f2 | Fig. 2 | profiling aspect weaving + runtime histograms |
//! | f3 | Fig. 3 | unrolling speedup vs threshold |
//! | f4 | Fig. 4 | dynamic specialization in `[lowT, highT]` |
//! | c1 | §I     | heterogeneous ≈ 3× homogeneous MFLOPS/W |
//! | c2 | §V     | ≈15% energy variation across identical nodes |
//! | c3 | §V     | 18–50% savings: optimal P-state vs Linux governor |
//! | c4 | §V     | >10% PUE loss winter → summer |
//! | c5 | §I     | exascale power projection vs the 20–30 MW envelope |
//! | u1 | §VII-a | docking: static vs dynamic vs hetero-aware dispatch |
//! | u2 | §VII-b | navigation: fixed vs adaptive quality under load |
//! | a1 | §IV    | grey-box vs black-box autotuning convergence |
//! | a2 | §IV    | precision autotuning: energy vs error budget |
//! | a3 | §V     | hierarchical vs flat power management (ablation) |
//! | a4 | §V     | thermal-aware vs oblivious operation (ablation) |
//! | a5 | §V     | energy-aware co-scheduling under a power cap |
//! | a6 | §V     | FIFO vs EASY backfilling, replayed with energy |
//! | r1 | —      | fault campaign: checkpoint/restart, sensor loss, safe mode |
//! | s1 | §II    | autotuning-as-a-service: multi-tenant scaling, pool speedup, memoization |
//! | r2 | —      | chaos hardening: goodput under faults, breaker containment, crash recovery |
//! | p1 | —      | hot-path data plane: indexed select, structural cache keys, parallel DSE |
//! | o1 | —      | observability plane: worker-invariant traces, dual accounting, SLO burn |
//! | ad1 | —     | SLO front door: admission tiers, overload shedding, virtual autoscaling |
//! | v1 | —      | metered bytecode VM: engine equivalence, fused meters, code-cache replay |
//! | cl1 | §V    | fault-tolerant cluster RTRM: 4096-node hierarchy under a fault storm |
//! | d1 | §VII-a | work-stealing scheduler at drug-discovery scale: 10⁶ heavy-tailed docking tasks |
//! | e1 | —      | energy observability: causal traces + per-request joules, conservation exact |

use antarex_serve::driver::CrashDrill;
use antarex_serve::Evaluator;
use antarex_tuner::dse::par_map;
use std::time::Instant;

pub(crate) mod ablations;
pub mod admission_exp;
pub mod chaos_exp;
pub(crate) mod claims;
pub mod cluster_exp;
pub mod docking_exp;
pub mod energy_obs;
pub(crate) mod figures;
pub mod obs_exp;
pub(crate) mod resiliency;
pub mod serve_exp;
pub mod tuner_exp;
pub(crate) mod use_cases;
pub mod vm_exp;

/// The first `lines` lines of `text`, each indented two spaces.
pub(crate) fn head(text: &str, lines: usize) -> String {
    let mut out = String::new();
    for line in text.lines().take(lines) {
        out.push_str("  ");
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// 64-bit FNV-1a over a campaign's observable state: what every
/// worker-invariance check compares.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Digest(pub(crate) u64);

impl Digest {
    pub(crate) fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub(crate) fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }
}

/// Runs `f`; returns its value and the wall-clock seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// ns/op of `op` over `iters` iterations.
pub fn ns_per_op(iters: u64, mut op: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        op();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// A budget override from the environment, in nanoseconds.
pub fn env_budget_ns(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The host's hardware threads: the `"physical_cores"` of a gate file.
pub fn physical_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One acceptance gate of a `*_bench` binary: its name, the measured
/// detail it was judged on, and the verdict.
pub(crate) type Gate = (&'static str, String, bool);

/// Prints the `"gates"` object and the `"gates_passed"` line of a gate
/// file.
pub fn print_gates(gates: &[Gate]) {
    println!("  \"gates\": {{");
    for (i, (name, detail, ok)) in gates.iter().enumerate() {
        let comma = if i + 1 < gates.len() { "," } else { "" };
        println!("    \"{name}\": {{ \"pass\": {ok}, \"detail\": \"{detail}\" }}{comma}");
    }
    println!("  }},");
    println!("  \"gates_passed\": {},", gates.iter().all(|gate| gate.2));
}

/// Ends a `*_bench` binary: names the failed gates on stderr and exits
/// nonzero, so CI can run the binary directly; returns when all passed.
pub fn exit_on_failed_gates(bin: &str, gates: &[Gate]) {
    let failed: Vec<&str> = gates.iter().filter(|g| !g.2).map(|g| g.0).collect();
    if !failed.is_empty() {
        eprintln!("{bin}: FAILED gates: {}", failed.join(", "));
        std::process::exit(1);
    }
}

/// The crash-drill paragraph of a report; `what` names the state whose
/// recovery it vouches for.
pub(crate) fn crash_drill_line<E: Evaluator>(recovery: &CrashDrill<E>, what: &str) -> String {
    format!(
        "\ncrash after {} of {} windows: snapshot {}, {} journal entries replayed, recovered {what} {} the uninterrupted run\n",
        recovery.batches_before_crash,
        recovery.batches_before_crash + recovery.reports.len(),
        if recovery.had_snapshot { "present" } else { "absent" },
        recovery.replayed_entries,
        if recovery.bit_identical {
            "IDENTICAL to"
        } else {
            "DIVERGED from"
        }
    )
}

/// Prints the `"crash_recovery"` object of a gate file.
pub fn print_crash_recovery<E: Evaluator>(recovery: &CrashDrill<E>) {
    println!("  \"crash_recovery\": {{");
    println!(
        "    \"windows_before_crash\": {},",
        recovery.batches_before_crash
    );
    println!("    \"windows_after_crash\": {},", recovery.reports.len());
    println!("    \"had_snapshot\": {},", recovery.had_snapshot);
    println!("    \"replayed_entries\": {},", recovery.replayed_entries);
    println!("    \"bit_identical\": {}", recovery.bit_identical);
    println!("  }},");
}

/// One registered experiment.
pub struct Experiment {
    /// Short identifier (`f2`, `c1`, ...).
    pub id: &'static str,
    /// Human-readable title, citing the paper source.
    pub title: &'static str,
    /// Runs the experiment and renders its report.
    pub run: fn() -> String,
}

/// Every experiment, in presentation order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "f2",
            title: "Fig. 2 — ProfileArguments: weaving + runtime argument histogram",
            run: figures::f2_profile_arguments,
        },
        Experiment {
            id: "f3",
            title: "Fig. 3 — UnrollInnermostLoops: speedup vs threshold",
            run: figures::f3_unroll_threshold_sweep,
        },
        Experiment {
            id: "f4",
            title: "Fig. 4 — SpecializeKernel: dynamic weaving and the version cache",
            run: figures::f4_dynamic_specialization,
        },
        Experiment {
            id: "c1",
            title: "§I — heterogeneous vs homogeneous efficiency (paper: 7032 vs 2304 MFLOPS/W)",
            run: claims::c1_heterogeneous_efficiency,
        },
        Experiment {
            id: "c2",
            title: "§V — energy variation across nominally identical nodes (paper: 15%)",
            run: claims::c2_variability_spread,
        },
        Experiment {
            id: "c3",
            title: "§V — optimal operating point vs Linux governors (paper: 18-50%)",
            run: claims::c3_governor_savings,
        },
        Experiment {
            id: "c4",
            title: "§V — PUE loss winter to summer (paper: >10%)",
            run: claims::c4_pue_seasons,
        },
        Experiment {
            id: "c5",
            title: "§I — exascale power projection vs the 20-30 MW envelope",
            run: claims::c5_exascale_projection,
        },
        Experiment {
            id: "u1",
            title: "§VII-a — drug discovery: dispatch strategies on the heterogeneous cluster",
            run: use_cases::u1_docking_dispatch,
        },
        Experiment {
            id: "u2",
            title: "§VII-b — navigation: fixed vs SLA-adaptive quality under rush-hour load",
            run: use_cases::u2_navigation_adaptivity,
        },
        Experiment {
            id: "a1",
            title: "§IV — grey-box vs black-box autotuning convergence",
            run: ablations::a1_greybox_vs_blackbox,
        },
        Experiment {
            id: "a2",
            title: "§IV — precision autotuning: energy vs error budget",
            run: ablations::a2_precision_budget_sweep,
        },
        Experiment {
            id: "a3",
            title: "§V ablation — hierarchical vs flat power management",
            run: ablations::a3_hierarchical_vs_flat,
        },
        Experiment {
            id: "a4",
            title: "§V ablation — thermal-aware vs oblivious operation (MS3)",
            run: ablations::a4_thermal_aware,
        },
        Experiment {
            id: "a6",
            title: "§V — FIFO vs EASY-backfill scheduling, replayed with energy accounting",
            run: ablations::a6_scheduler_replay,
        },
        Experiment {
            id: "a5",
            title: "§V — energy-aware co-scheduling under a facility power cap (SuperMUC-style)",
            run: ablations::a5_energy_aware_scheduling,
        },
        Experiment {
            id: "r1",
            title: "fault campaign — checkpoint/restart, sensor-loss control, CADA safe mode",
            run: resiliency::r1_fault_campaign,
        },
        Experiment {
            id: "s1",
            title: "autotuning as a service — multi-tenant scaling, pool speedup, memoization",
            run: serve_exp::s1_service_scaling,
        },
        Experiment {
            id: "r2",
            title: "chaos hardening — goodput under faults, breaker containment, crash recovery",
            run: chaos_exp::r2_chaos_hardening,
        },
        Experiment {
            id: "p1",
            title: "hot-path data plane — indexed select, structural keys, parallel DSE",
            run: tuner_exp::p1_hot_path_report,
        },
        Experiment {
            id: "o1",
            title: "observability plane — worker-invariant traces, dual accounting, SLO burn",
            run: obs_exp::o1_observability,
        },
        Experiment {
            id: "ad1",
            title: "SLO front door — admission tiers, overload shedding, virtual autoscaling",
            run: admission_exp::ad1_admission_control,
        },
        Experiment {
            id: "v1",
            title: "metered bytecode VM — engine equivalence, fused meters, code-cache replay",
            run: vm_exp::v1_vm_equivalence,
        },
        Experiment {
            id: "cl1",
            title: "cluster RTRM — fault-tolerant hierarchy holds the cap through a fault storm",
            run: cluster_exp::cl1_cluster_rtrm,
        },
        Experiment {
            id: "d1",
            title: "§VII-a scale — deterministic work stealing over a million-ligand screen",
            run: docking_exp::d1_docking_scale,
        },
        Experiment {
            id: "e1",
            title: "energy observability — causal traces, per-request joules, exact conservation",
            run: energy_obs::e1_energy_observability,
        },
    ]
}

/// Runs experiments by id (all when `only` is empty) on `jobs` worker
/// threads.
///
/// Each experiment renders into its own buffer; the merged report is
/// emitted in registry order, so the output is identical to a serial
/// run (`jobs = 1`) no matter how the workers interleave.
///
/// # Errors
///
/// An id in `only` that names no experiment runs nothing and returns
/// `unknown experiment id(s): …; valid ids: …` — a typo must not read
/// as an empty, and therefore trivially deterministic, report.
///
/// # Panics
///
/// Panics when `jobs` is zero.
pub fn run_selected_jobs(only: &[String], jobs: usize) -> Result<String, String> {
    assert!(jobs > 0, "at least one job is required");
    let registry = all_experiments();
    let unknown: Vec<&str> = only
        .iter()
        .map(String::as_str)
        .filter(|id| registry.iter().all(|e| e.id != *id))
        .collect();
    if !unknown.is_empty() {
        let valid: Vec<&str> = registry.iter().map(|e| e.id).collect();
        return Err(format!(
            "unknown experiment id(s): {}; valid ids: {}",
            unknown.join(", "),
            valid.join(", ")
        ));
    }
    let selected: Vec<Experiment> = registry
        .into_iter()
        .filter(|e| only.is_empty() || only.iter().any(|o| o == e.id))
        .collect();
    let reports = par_map(&selected, jobs, |experiment| (experiment.run)());
    let mut out = String::new();
    for (experiment, body) in selected.iter().zip(reports) {
        out.push_str(&format!(
            "==============================================================\n[{}] {}\n==============================================================\n",
            experiment.id, experiment.title
        ));
        out.push_str(&body);
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique() {
        let experiments = all_experiments();
        for (i, a) in experiments.iter().enumerate() {
            for b in &experiments[i + 1..] {
                assert_ne!(a.id, b.id);
            }
        }
        assert_eq!(experiments.len(), 26);
    }

    #[test]
    fn selection_filters() {
        let report = run_selected_jobs(&["c4".to_string()], 1).unwrap();
        assert!(report.contains("[c4]"));
        assert!(!report.contains("[c1]"));
    }

    #[test]
    fn unknown_ids_are_an_error_not_an_empty_report() {
        let only = ["c4", "zz9", "s1", "r22"].map(String::from);
        let error = run_selected_jobs(&only, 2).unwrap_err();
        assert!(
            error.starts_with("unknown experiment id(s): zz9, r22; valid ids: f2, f3, "),
            "{error}"
        );
        assert!(error.ends_with(", d1, e1"), "{error}");
    }

    #[test]
    fn parallel_jobs_match_serial_output() {
        let only = vec!["c4".to_string(), "c5".to_string()];
        let serial = run_selected_jobs(&only, 1).expect("known ids");
        assert_eq!(run_selected_jobs(&only, 3), Ok(serial));
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn zero_jobs_rejected() {
        let _ = run_selected_jobs(&[], 0);
    }
}
