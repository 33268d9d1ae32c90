//! Experiments A1–A4: autotuning comparisons and design-choice ablations.

use crate::cluster_exp::{run_profile, ClusterProfile, ClusterScale};
use antarex_ir::interp::ExecEnv;
use antarex_ir::value::Value;
use antarex_ir::{parse_program, NodePath};
use antarex_precision::tuner::{PrecisionTuner, TunerOptions};
use antarex_rtrm::thermal_ctrl::{Ms3Admission, ThermalThrottle};
use antarex_sim::job::WorkUnit;
use antarex_sim::node::{Node, NodeSpec};
use antarex_sim::variability::ProcessVariation;
use antarex_tuner::dse::{explore, DseReport};
use antarex_tuner::goal::Objective;
use antarex_tuner::knob::Knob;
use antarex_tuner::search::annealing::Annealing;
use antarex_tuner::search::bandit::Bandit;
use antarex_tuner::search::exhaustive::Exhaustive;
use antarex_tuner::search::genetic::Genetic;
use antarex_tuner::search::hillclimb::HillClimb;
use antarex_tuner::search::random::RandomSearch;
use antarex_tuner::search::SearchTechnique;
use antarex_tuner::space::{Configuration, DesignSpace};
use antarex_vm::Vm;
use antarex_weaver::transform::unroll::unroll_by_factor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

const TUNING_KERNEL: &str = "double saxpy(double a[], double b[], int n) {
    double s = 0.0;
    for (int i = 0; i < 64; i++) { s += a[i] * 1.5 + b[i]; }
    return s;
}";

fn unrolled_cost(unroll: u64) -> f64 {
    let mut program = parse_program(TUNING_KERNEL).unwrap();
    if unroll > 1 {
        program
            .edit_function("saxpy", |f| {
                unroll_by_factor(&mut f.body, &NodePath::root(1), unroll).unwrap();
            })
            .unwrap();
    }
    let mut env = ExecEnv::new();
    Vm::new(program)
        .call(
            "saxpy",
            &[
                Value::from(vec![1.0; 64]),
                Value::from(vec![2.0; 64]),
                Value::Int(64),
            ],
            &mut env,
        )
        .unwrap();
    env.stats.cost as f64
}

/// Explores `space` with `technique` for up to `budget` evaluations of
/// the unrolled kernel's cost; returns the report and the best cost.
fn tune_unroll(
    space: &DesignSpace,
    technique: Box<dyn SearchTechnique>,
    budget: usize,
    seed: u64,
) -> (DseReport, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let report = explore(
        space,
        technique,
        &Objective::minimize("cost"),
        budget,
        &mut rng,
        |c: &Configuration| {
            let cost = unrolled_cost(c.get_int("unroll").unwrap() as u64);
            [("cost".to_string(), cost)].into()
        },
    );
    let best = report
        .knowledge
        .points()
        .iter()
        .filter_map(|p| p.metric("cost"))
        .fold(f64::INFINITY, f64::min);
    (report, best)
}

/// A1: evaluations-to-near-optimum for black-box techniques on the full
/// unroll space vs the same machinery on the annotation-shrunk grey-box
/// space.
pub(crate) fn a1_greybox_vs_blackbox() -> String {
    let black = DesignSpace::new(vec![Knob::int("unroll", 1, 64, 1)]);
    // the annotation: "unroll factors worth trying are powers of two"
    let grey = black.restrict("unroll", |v| {
        v.as_int().is_some_and(|i| i > 0 && (i & (i - 1)) == 0)
    });
    // ground truth optimum via exhaustive search on the full space
    let (_, optimum) = tune_unroll(&black, Box::new(Exhaustive::new()), 200, 1);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "knob: unroll factor. black-box space: {} configs; grey-box: {} configs",
        black.size(),
        grey.size()
    );
    let _ = writeln!(
        out,
        "{:<24} {:>10} {:>16}",
        "technique (space)", "best cost", "evals to <=5% opt"
    );

    let run_one = |space: &DesignSpace,
                   technique: Box<dyn SearchTechnique>,
                   label: &str,
                   out: &mut String| {
        let (report, best) = tune_unroll(space, technique, 40, 11);
        // the knowledge base holds the evaluations in order: the first
        // point within 5% of the optimum is the evaluation that hit it
        let threshold = optimum * 1.05;
        let hit = report
            .knowledge
            .points()
            .iter()
            .position(|p| p.metric("cost").is_some_and(|c| c <= threshold))
            .map(|index| (index + 1).to_string())
            .unwrap_or_else(|| "-".into());
        let _ = writeln!(out, "{label:<24} {best:>10.0} {hit:>16}");
    };

    run_one(
        &black,
        Box::new(RandomSearch::new()),
        "random (black)",
        &mut out,
    );
    run_one(
        &black,
        Box::new(HillClimb::new()),
        "hill-climb (black)",
        &mut out,
    );
    run_one(
        &black,
        Box::new(Annealing::new()),
        "annealing (black)",
        &mut out,
    );
    run_one(
        &black,
        Box::new(Genetic::new()),
        "genetic (black)",
        &mut out,
    );
    run_one(
        &black,
        Box::new(Bandit::default_ensemble()),
        "bandit (black)",
        &mut out,
    );
    run_one(
        &grey,
        Box::new(Exhaustive::new()),
        "exhaustive (grey)",
        &mut out,
    );
    run_one(
        &grey,
        Box::new(Bandit::default_ensemble()),
        "bandit (grey)",
        &mut out,
    );
    let _ = writeln!(
        out,
        "paper: grey-box autotuning 'can rely on code annotations to shrink the search space' (§IV)"
    );
    out
}

/// A2: precision autotuning across error budgets on the dot kernel.
pub(crate) fn a2_precision_budget_sweep() -> String {
    let program = parse_program(antarex_core::scenario::DOT_KERNEL).unwrap();
    let inputs: Vec<Vec<Value>> = (1..=5)
        .map(|k| {
            let a: Vec<f64> = (0..32).map(|i| 0.05 * (i + k) as f64).collect();
            let b: Vec<f64> = (0..32).map(|i| 1.0 / (1.0 + i as f64)).collect();
            vec![Value::from(a), Value::from(b), Value::Int(32)]
        })
        .collect();
    let tuner = PrecisionTuner::new(program, "dot", inputs);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>12} {:>14} {:>14} {:>10}",
        "budget", "energy ratio", "max rel err", "evals"
    );
    for budget in [1e-12, 1e-8, 1e-5, 1e-3, 1e-1] {
        let outcome = tuner
            .tune(&TunerOptions {
                error_budget: budget,
                max_sweeps: 8,
            })
            .unwrap();
        let _ = writeln!(
            out,
            "{budget:>12.0e} {:>14.3} {:>14.2e} {:>10}",
            outcome.energy_ratio, outcome.max_rel_error, outcome.evaluations
        );
    }
    let _ = writeln!(
        out,
        "paper: 'customized precision ... power/performance trade-offs when an\napplication can tolerate some loss of quality' (§IV)"
    );
    out
}

/// A3: hierarchical vs flat power management — the `rtrm::cluster_ctrl`
/// plane against one global P-state, both under the cl1 fault storm and
/// heat wave at the tiny scale.
pub(crate) fn a3_hierarchical_vs_flat() -> String {
    let seed = 10;
    let scale = ClusterScale::tiny();
    let flat = run_profile(seed, &scale, ClusterProfile::Flat, 1);
    let hier = run_profile(seed, &scale, ClusterProfile::FaultTolerant, 1);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "facility cap {:.1} kW over {} nodes, {:.0} s of cl1's fault storm and heat wave (seed {seed}):",
        scale.facility_cap_w / 1e3,
        scale.nodes,
        scale.horizon_s
    );
    let _ = writeln!(
        out,
        "{:<14} {:>12} {:>10} {:>10} {:>15}",
        "manager", "energy [MJ]", "goodput", "peak-over", "overshoot[kWs]"
    );
    for (label, outcome) in [("flat", &flat), ("hierarchical", &hier)] {
        let _ = writeln!(
            out,
            "{label:<14} {:>12.1} {:>10.2e} {:>9.2}% {:>15.1}",
            outcome.energy_j / 1e6,
            outcome.goodput_flops,
            100.0 * outcome.peak_overshoot_frac,
            outcome.overshoot_ws / 1e3
        );
    }
    let verdict = |holds: bool| if holds { "yes" } else { "NO" };
    let _ = writeln!(
        out,
        "verdict: hierarchical holds the cap ({}), flat overshoots it ({})",
        verdict(hier.peak_overshoot_frac <= 0.01),
        verdict(flat.overshoot_ws > hier.overshoot_ws),
    );
    let _ = writeln!(
        out,
        "paper: 'scalable and hierarchical optimal control-loops ... at different time scale' (§V)"
    );
    out
}

/// A4: thermal-aware operation in a hot rack vs an oblivious baseline,
/// plus the MS3 admission profile.
pub(crate) fn a4_thermal_aware() -> String {
    let throttle = ThermalThrottle {
        limit_c: 75.0,
        release_c: 65.0,
    };
    let work = vec![WorkUnit::compute_bound(2e13); 10];

    let mut managed = Node::nominal(NodeSpec::cineca_xeon(), 0);
    managed.set_inlet_temp(36.0);
    let (t_managed, e_managed, v_managed) = throttle.run(&mut managed, &work);

    let mut oblivious = Node::nominal(NodeSpec::cineca_xeon(), 1);
    oblivious.set_inlet_temp(36.0);
    let mut t_free = 0.0;
    let mut e_free = 0.0;
    let mut v_free = 0;
    for w in &work {
        let outcome = oblivious.execute(w);
        t_free += outcome.time_s;
        e_free += outcome.energy_j;
        if outcome.final_temp_c > throttle.limit_c {
            v_free += 1;
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "hot rack (36 C inlet), junction limit 75 C, 10 heavy units:"
    );
    let _ = writeln!(
        out,
        "{:<14} {:>10} {:>12} {:>12} {:>12}",
        "policy", "time [s]", "energy [kJ]", "violations", "final T"
    );
    let _ = writeln!(
        out,
        "{:<14} {t_free:>10.1} {:>12.1} {v_free:>12} {:>10.1} C",
        "oblivious",
        e_free / 1e3,
        oblivious.temp_c()
    );
    let _ = writeln!(
        out,
        "{:<14} {t_managed:>10.1} {:>12.1} {v_managed:>12} {:>10.1} C",
        "thermal-aware",
        e_managed / 1e3,
        managed.temp_c()
    );

    let ms3 = Ms3Admission::mediterranean();
    let _ = writeln!(out, "\nMS3 'do less when it's too hot' admission profile:");
    for ambient in [10.0, 18.0, 24.0, 30.0, 36.0] {
        let _ = writeln!(
            out,
            "  ambient {ambient:>4.0} C -> admit {:>4.0}% of offered load",
            100.0 * ms3.admitted_fraction(ambient)
        );
    }
    out
}

/// A5: energy-aware frequency assignment for co-scheduled jobs under a
/// facility cap (the SuperMUC-style scheduling the paper cites, §V, ref. 22).
pub(crate) fn a5_energy_aware_scheduling() -> String {
    use antarex_rtrm::energy_sched::{EnergyAwareAssigner, JobRequest};
    let jobs = vec![
        JobRequest {
            id: 0,
            nodes: 8,
            profile: WorkUnit::memory_bound(2e11),
        },
        JobRequest {
            id: 1,
            nodes: 8,
            profile: WorkUnit::with_intensity(3e11, 2.0),
        },
        JobRequest {
            id: 2,
            nodes: 8,
            profile: WorkUnit::compute_bound(5e11),
        },
    ];
    let spec = NodeSpec::cineca_xeon();
    let unconstrained = EnergyAwareAssigner::new(spec.clone(), 1e9).assign(&jobs);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "3 co-scheduled jobs x 8 nodes; energy-optimal baseline power {:.0} W",
        unconstrained.total_power_w
    );
    let _ = writeln!(
        out,
        "{:>10} {:>12} {:>10} {:>36}",
        "cap", "power [W]", "feasible", "per-job P-states (mem/mix/cpu)"
    );
    for fraction in [1.0, 0.9, 0.8, 0.7, 0.5] {
        let cap = unconstrained.total_power_w * fraction;
        let plan = EnergyAwareAssigner::new(spec.clone(), cap).assign(&jobs);
        let states: Vec<String> = plan
            .assignments
            .iter()
            .map(|a| format!("P{}", a.pstate))
            .collect();
        let _ = writeln!(
            out,
            "{:>9.0}% {:>12.0} {:>10} {:>36}",
            fraction * 100.0,
            plan.total_power_w,
            if plan.feasible { "yes" } else { "no" },
            states.join(" / ")
        );
    }
    let _ = writeln!(
        out,
        "memory-bound jobs absorb the cuts first (free slowdown); compute-bound\njobs keep their frequency until the cap forces everyone down."
    );
    out
}

/// A6: batch scheduling policies replayed on the node models — the
/// cluster-level "job dispatching" knob of §V, with energy accounting.
pub(crate) fn a6_scheduler_replay() -> String {
    use antarex_rtrm::replay::replay;
    use antarex_rtrm::scheduler::{BatchScheduler, SchedulerPolicy};
    use antarex_sim::job::Job;
    use antarex_sim::workload::poisson_jobs;

    // a contended morning: jobs arrive faster than they finish, with a
    // width mix that leaves holes only backfilling can use
    let mut rng = StdRng::seed_from_u64(14);
    let mut jobs = poisson_jobs(0.08, 600.0, 1, WorkUnit::compute_bound(6e12), &mut rng);
    for (i, job) in jobs.iter_mut().enumerate() {
        job.nodes = match i % 5 {
            0 => 4,
            1 | 2 => 2,
            _ => 1,
        };
        if i % 3 == 0 {
            job.work_per_node = WorkUnit::compute_bound(1.2e13);
        }
    }
    let jobs: Vec<Job> = jobs;
    // wall-time estimates close to the true runtime (288 GFLOP/s at the
    // max P-state) so the planned schedule survives replay
    let estimate = |job: &Job| job.work_per_node.flops / 288e9 * 1.05 + 1.0;

    let pool = |seed: u64| -> Vec<Node> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..4)
            .map(|i| {
                Node::with_variation(
                    NodeSpec::cineca_xeon(),
                    i,
                    ProcessVariation::sample(&mut rng),
                )
            })
            .collect()
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} jobs on 4 nodes, replayed on the node models:",
        jobs.len()
    );
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>13} {:>12}",
        "policy", "makespan", "utilization", "energy [MJ]"
    );
    for (label, policy) in [
        ("FIFO", SchedulerPolicy::Fifo),
        ("EASY backfill", SchedulerPolicy::EasyBackfill),
    ] {
        let schedule = match BatchScheduler::new(4, policy).schedule(&jobs, estimate) {
            Ok(schedule) => schedule,
            Err(err) => {
                let _ = writeln!(out, "{label:<16} {err}");
                continue;
            }
        };
        let mut nodes = pool(7);
        let outcome = replay(&schedule, &jobs, &mut nodes);
        let _ = writeln!(
            out,
            "{label:<16} {:>10.0} s {:>12.1}% {:>12.2}",
            outcome.makespan_s,
            100.0 * outcome.utilization,
            outcome.energy_j / 1e6
        );
    }
    let _ = writeln!(
        out,
        "backfilling fills scheduling holes: higher utilization, shorter\nmakespan, and less idle-power waste for the same work."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a6_backfill_not_worse_than_fifo() {
        let report = a6_scheduler_replay();
        let rows: Vec<(f64, f64)> = report
            .lines()
            .filter(|l| l.starts_with("FIFO") || l.starts_with("EASY"))
            .map(|l| {
                let cols: Vec<&str> = l.split_whitespace().collect();
                // policy may be two words; take from the end: energy, util%, "s", makespan
                let util: f64 = cols[cols.len() - 2].trim_end_matches('%').parse().unwrap();
                let makespan: f64 = cols[cols.len() - 4].parse().unwrap();
                (makespan, util)
            })
            .collect();
        assert_eq!(rows.len(), 2, "{report}");
        let (fifo, easy) = (rows[0], rows[1]);
        // EASY guarantees it never delays the head reservation, not a
        // strictly shorter makespan: a backfilled job can land on a node
        // whose process corner is slightly slower, shifting the replayed
        // makespan by a job or two. Allow 1% slack on the replay.
        assert!(
            easy.0 <= fifo.0 * 1.01,
            "easy makespan {} vs fifo {}: {report}",
            easy.0,
            fifo.0
        );
        assert!(easy.1 >= fifo.1 - 0.5, "{report}");
    }

    #[test]
    fn a5_caps_are_respected_and_ranked() {
        let report = a5_energy_aware_scheduling();
        assert!(report.contains("yes"), "{report}");
        let has_three_states = report.lines().any(|l| l.matches(" / ").count() == 2);
        assert!(has_three_states, "{report}");
    }

    #[test]
    fn a1_grey_box_converges() {
        let report = a1_greybox_vs_blackbox();
        assert!(report.contains("exhaustive (grey)"), "{report}");
        // the grey-box exhaustive row must have found a near-optimal cost
        assert!(!report.contains("exhaustive (grey)          -"), "{report}");
    }

    #[test]
    fn a2_energy_ratio_monotone_in_budget() {
        let report = a2_precision_budget_sweep();
        let ratios: Vec<f64> = report
            .lines()
            .skip(1)
            .filter_map(|l| {
                let cols: Vec<&str> = l.split_whitespace().collect();
                if cols.len() >= 4 {
                    cols[1].parse().ok()
                } else {
                    None
                }
            })
            .collect();
        assert!(ratios.len() >= 5, "{report}");
        for pair in ratios.windows(2) {
            assert!(
                pair[1] <= pair[0] + 1e-9,
                "looser budget must save at least as much: {report}"
            );
        }
    }

    #[test]
    fn a3_hierarchical_overshoot_not_worse() {
        let report = a3_hierarchical_vs_flat();
        assert!(
            report.contains("hierarchical holds the cap (yes), flat overshoots it (yes)"),
            "{report}"
        );
    }

    #[test]
    fn a4_thermal_policy_reduces_violations() {
        let report = a4_thermal_aware();
        let violations: Vec<u64> = report
            .lines()
            .filter(|l| l.starts_with("oblivious") || l.starts_with("thermal-aware"))
            .filter_map(|l| l.split_whitespace().nth(3).and_then(|v| v.parse().ok()))
            .collect();
        assert_eq!(violations.len(), 2, "{report}");
        assert!(violations[1] < violations[0], "{report}");
    }
}
