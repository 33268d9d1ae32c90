//! D1 — work-stealing scheduler at drug-discovery scale.
//!
//! The §VII-a use case is a screening campaign of ~10⁶ ligands whose
//! per-task cost follows the `atoms × pocket_spheres × poses` work law:
//! lognormal heavy-atom counts times scaffold-clustered pose budgets —
//! exactly the "unpredictable imbalance" the paper's dynamic dispatch
//! targets. This experiment proves the deterministic work-stealing
//! scheduler on that shape at two levels:
//!
//! * **Part A — schedule grid.** ≥10⁵ (10⁶ in the gated bench)
//!   synthetic docking tasks, scheduled by every policy (static block,
//!   static list, LPT, stealing) across a 1/2/4/8-virtual-core grid.
//!   The scheduler sees only per-*scaffold* estimates (the quantized
//!   feature key a real cost model would have); execution accrues the
//!   true per-ligand cost. Stealing must beat the block partition on
//!   the scaffold-sorted library and hold parity on a uniform one.
//! * **Part B — mixed campaign.** Navigation and docking tenants in one
//!   [`antarex_serve::TuningService`] behind a [`TenantMux`], scheduled with stealing,
//!   run at 1/2/4/8 *physical* workers with virtual capacity pinned —
//!   the full response/state digest must be byte-identical.

use crate::{fixed, hex, list, BenchFile, Digest, Map};
use antarex_serve::docking::TenantMux;
use antarex_serve::driver::{self, Batching, Campaign, Cohort, DriverConfig};
use antarex_serve::service::FrontDoorConfig;
use antarex_serve::store::TenantClass;
use antarex_serve::{AdmissionConfig, AutoscaleConfig, SchedConfig, TuningRequest};
use antarex_sim::sched::{block_schedule, list_schedule, lpt_schedule, steal_schedule};
use antarex_sim::workload::lognormal;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Flops per scored atom–sphere interaction (the docking kernel's
/// calibrated constant) over platform flops per second.
const SECONDS_PER_INTERACTION: f64 = 2000.0 / 4.0e9;

/// Pose budgets a scaffold family can carry — the 32× spread between
/// fragment screens and exhaustive refinement is what makes a
/// scaffold-sorted library adversarial for static partitioning.
const FAMILY_POSES: [usize; 6] = [64, 32, 16, 8, 4, 2];

// ---------------------------------------------------------------------------
// Part A — the synthetic screening library
// ---------------------------------------------------------------------------

/// Library sizing.
#[derive(Debug, Clone)]
pub(crate) struct DockingScale {
    /// Virtual docking tasks (ligands to score).
    pub tasks: usize,
    /// Scaffold families; each carries one pose budget (2–64) and its
    /// own median ligand size.
    pub families: usize,
    /// Pocket spheres (fixed per campaign).
    pub spheres: usize,
    /// Master seed.
    pub seed: u64,
}

impl DockingScale {
    /// The experiment-report scale: fast under `cargo test`.
    pub(crate) fn tiny() -> Self {
        DockingScale {
            tasks: 100_000,
            families: 48,
            spheres: 30,
            seed: 2016,
        }
    }

    /// The gated-bench scale: the use case's million-ligand campaign.
    pub(crate) fn million() -> Self {
        DockingScale {
            tasks: 1_048_576,
            ..DockingScale::tiny()
        }
    }
}

/// One synthetic library: true per-task costs plus the per-scaffold
/// estimates the scheduler is allowed to see.
#[derive(Debug, Clone)]
pub(crate) struct Library {
    /// True per-ligand docking cost, virtual seconds.
    pub costs: Vec<f64>,
    /// Quantized per-task estimate: the task's scaffold-family median
    /// cost (the cost model knows the family, not the ligand).
    pub estimates: Vec<f64>,
}

/// Generates the scaffold-sorted (imbalanced) library: ligands arrive
/// grouped by family, heaviest pose budgets first — the order a
/// screening deck file actually has, and the worst case for a static
/// block partition.
pub(crate) fn scaffold_sorted_library(scale: &DockingScale) -> Library {
    let mut rng = StdRng::seed_from_u64(scale.seed);
    // per-family median atom counts, themselves lognormal around the
    // library median of 24 heavy atoms
    let medians: Vec<f64> = (0..scale.families)
        .map(|_| (24.0 * lognormal(&mut rng, 0.0, 0.3)).clamp(8.0, 120.0))
        .collect();
    let mut families: Vec<usize> = (0..scale.families).collect();
    // heaviest scaffolds first: sort by estimated per-ligand work
    families.sort_by(|&a, &b| {
        let wa = medians[a] * FAMILY_POSES[a % FAMILY_POSES.len()] as f64;
        let wb = medians[b] * FAMILY_POSES[b % FAMILY_POSES.len()] as f64;
        wb.total_cmp(&wa).then(a.cmp(&b))
    });
    let mut costs = Vec::with_capacity(scale.tasks);
    let mut estimates = Vec::with_capacity(scale.tasks);
    let per_family = scale.tasks.div_ceil(scale.families);
    for &family in &families {
        let poses = FAMILY_POSES[family % FAMILY_POSES.len()] as f64;
        let family_estimate =
            medians[family] * scale.spheres as f64 * poses * SECONDS_PER_INTERACTION;
        for _ in 0..per_family {
            if costs.len() == scale.tasks {
                break;
            }
            let atoms = (medians[family] * lognormal(&mut rng, 0.0, 0.5)).clamp(4.0, 250.0);
            costs.push(atoms * scale.spheres as f64 * poses * SECONDS_PER_INTERACTION);
            estimates.push(family_estimate);
        }
    }
    Library { costs, estimates }
}

/// Generates the uniform control library: every ligand the median
/// fragment at the default pose budget. Static partitioning is optimal
/// here, so it bounds the stealing overhead.
pub(crate) fn uniform_library(scale: &DockingScale) -> Library {
    let cost = 24.0 * scale.spheres as f64 * 8.0 * SECONDS_PER_INTERACTION;
    Library {
        costs: vec![cost; scale.tasks],
        estimates: vec![cost; scale.tasks],
    }
}

/// One (policy × cores) grid cell.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GridRow {
    /// Virtual cores scheduled onto.
    pub cores: usize,
    /// Static block partition (OpenMP `schedule(static)` analogue).
    pub block_s: f64,
    /// Greedy list schedule in arrival order (the legacy pool policy).
    pub list_s: f64,
    /// Longest-processing-time by estimate.
    pub lpt_s: f64,
    /// Deterministic work stealing.
    pub steal_s: f64,
    /// Steal transactions in the stealing schedule.
    pub steals: u64,
    /// FNV digest of the stealing schedule (assignments + completions).
    pub digest: u64,
}

impl GridRow {
    /// Stealing speedup over the static block partition.
    pub(crate) fn speedup_vs_block(&self) -> f64 {
        self.block_s / self.steal_s
    }

    /// Effective cores: total work over the stealing makespan.
    pub(crate) fn goodput_cores(&self, total_work_s: f64) -> f64 {
        total_work_s / self.steal_s
    }
}

/// Schedules the library under every policy across the core grid.
pub(crate) fn schedule_grid(library: &Library, cores_grid: &[usize]) -> Vec<GridRow> {
    cores_grid
        .iter()
        .map(|&cores| {
            let steal = steal_schedule(&library.costs, &library.estimates, cores);
            let mut digest = Digest::new();
            for (&core, &done) in steal.assignments.iter().zip(&steal.completions) {
                digest.u64(core as u64);
                digest.f64(done);
            }
            GridRow {
                cores,
                block_s: block_schedule(&library.costs, cores).makespan_s,
                list_s: list_schedule(&library.costs, cores).makespan_s,
                lpt_s: lpt_schedule(&library.costs, &library.estimates, cores).makespan_s,
                steal_s: steal.makespan_s,
                steals: steal.stats.steals,
                digest: digest.0,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Part B — mixed nav + docking campaign invariance
// ---------------------------------------------------------------------------

/// First docking tenant id of the mixed campaigns (`d1`, `e1`) — nav
/// tenants occupy the ids below it.
pub(crate) const DOCKING_BASE: u64 = 1000;

/// A mixed nav + docking campaign over `cohorts` at `physical` pool
/// workers: work stealing, and the hardened front door with its
/// autoscaler pinned to four *virtual* workers, so everything
/// observable may depend only on the workload.
pub(crate) fn pinned_campaign(
    seed: u64,
    duration_s: f64,
    cohorts: Vec<Cohort>,
    batch: usize,
    physical: usize,
) -> Campaign {
    Campaign {
        cohorts,
        sched: SchedConfig::work_stealing(),
        front_door: Some(FrontDoorConfig {
            admission: AdmissionConfig::hardened(),
            autoscale: AutoscaleConfig {
                min_workers: 4,
                max_workers: 4,
                ..AutoscaleConfig::hardened()
            },
        }),
        ..Campaign::new(seed, duration_s, Batching::Count(batch))
    }
    .workers(physical)
}

/// Runs the mixed campaign at the given *physical* worker count and
/// digests every response plus the final service state.
pub(crate) fn mixed_campaign_digest(seed: u64, physical: usize) -> u64 {
    let smoke = DriverConfig::smoke(seed);
    let mut cohorts = smoke.campaign().cohorts;
    // registered only: docking tenants probe on a fixed clock,
    // interleaved with the nav arrivals
    cohorts.push(Cohort {
        first: DOCKING_BASE,
        class: TenantClass::Docking,
        ..Cohort::new(8, 1, 0.0)
    });
    let campaign = pinned_campaign(seed, smoke.duration_s, cohorts, 16, physical);
    let service = campaign.build(TenantMux::city_and_screening(seed));
    let mut requests = campaign.arrivals();
    requests.extend((0..48).map(|i| TuningRequest {
        tenant: DOCKING_BASE + i % 8,
        arrival_s: 0.4 + 1.1 * i as f64,
    }));
    driver::sort_arrivals(&mut requests);
    let mut digest = Digest::new();
    campaign.drive(&service, &requests, |_, report| {
        digest.bytes(format!("{report:?}").as_bytes());
    });
    digest.bytes(service.state_report().as_bytes());
    digest.0
}

/// Digests the mixed campaign at each physical worker count.
pub(crate) fn campaign_invariance(seed: u64, counts: &[usize]) -> (Vec<u64>, bool) {
    let digests: Vec<u64> = counts
        .iter()
        .map(|&physical| mixed_campaign_digest(seed, physical))
        .collect();
    let identical = digests.windows(2).all(|pair| pair[0] == pair[1]);
    (digests, identical)
}

// ---------------------------------------------------------------------------
// Experiment report
// ---------------------------------------------------------------------------

/// The registered `d1` experiment: the tiny-scale grid plus the mixed
/// campaign, deterministic text.
pub(crate) fn d1_docking_scale() -> String {
    let scale = DockingScale::tiny();
    let imbalanced = scaffold_sorted_library(&scale);
    let uniform = uniform_library(&scale);
    let total_work: f64 = imbalanced.costs.iter().sum();
    let grid = schedule_grid(&imbalanced, &[1, 2, 4, 8]);
    let uniform_grid = schedule_grid(&uniform, &[8]);
    let counts = [1usize, 2, 4, 8];
    let (digests, identical) = campaign_invariance(scale.seed, &counts);

    let mut out = String::new();
    out.push_str(&format!(
        "docking scheduler campaign (seed {}, {} tasks, {} scaffold families, {} spheres)\n",
        scale.seed, scale.tasks, scale.families, scale.spheres
    ));
    out.push_str(&format!(
        "library: scaffold-sorted, total work {:.1} core-s, heaviest/median task {:.1}x\n\n",
        total_work,
        heaviest_over_median(&imbalanced.costs)
    ));
    out.push_str(
        "cores  block(s)   list(s)    lpt(s)     steal(s)   steals   steal-vs-block  eff-cores\n",
    );
    for row in &grid {
        out.push_str(&format!(
            "{:>5}  {:>9.3}  {:>9.3}  {:>9.3}  {:>9.3}  {:>7}  {:>13.2}x  {:>9.2}\n",
            row.cores,
            row.block_s,
            row.list_s,
            row.lpt_s,
            row.steal_s,
            row.steals,
            row.speedup_vs_block(),
            row.goodput_cores(total_work),
        ));
    }
    let eight = grid.last().expect("grid has rows");
    let uniform_eight = &uniform_grid[0];
    out.push_str(&format!(
        "\nuniform control (8 cores): steal {:.3} s vs block {:.3} s -> {:.3}x overhead\n",
        uniform_eight.steal_s,
        uniform_eight.block_s,
        uniform_eight.steal_s / uniform_eight.block_s
    ));
    out.push_str(&format!(
        "mixed nav+docking campaign ({counts:?} physical workers): digests {:?} -> {}\n",
        digests
            .iter()
            .map(|d| format!("{d:016x}"))
            .collect::<Vec<_>>(),
        if identical { "identical" } else { "DIVERGED" }
    ));
    out.push_str(&format!(
        "verdict: stealing rebalances the scaffold tail ({}), stays near parity on uniform ({}), physical workers invisible ({})\n",
        if eight.speedup_vs_block() >= 1.5 { "yes" } else { "NO" },
        if uniform_eight.steal_s <= 1.02 * uniform_eight.block_s { "yes" } else { "NO" },
        if identical { "yes" } else { "NO" },
    ));
    out
}

/// `BENCH_docking.json`: the million-ligand schedule grid, the uniform
/// control, the mixed campaign's digests, and the scheduler's gates.
pub(crate) fn d1_bench() -> BenchFile {
    let scale = DockingScale::million();
    let imbalanced = scaffold_sorted_library(&scale);
    let total_work: f64 = imbalanced.costs.iter().sum();
    let grid = schedule_grid(&imbalanced, &[1, 2, 4, 8]);
    let uniform_grid = schedule_grid(&uniform_library(&scale), &[8]);
    let counts = [1usize, 2, 4, 8];
    let (digests, identical) = campaign_invariance(scale.seed, &counts);

    let cell = |row: &GridRow| {
        map! {
            "block_makespan_s": fixed(row.block_s, 3),
            "list_makespan_s": fixed(row.list_s, 3),
            "lpt_makespan_s": fixed(row.lpt_s, 3),
            "steal_makespan_s": fixed(row.steal_s, 3),
            "steals": row.steals,
            "steal_vs_block": fixed(row.speedup_vs_block(), 3),
            "effective_cores": fixed(row.goodput_cores(total_work), 3),
            "digest": hex(row.digest),
        }
    };
    let eight = grid.last().expect("grid has rows");
    let (speedup, steals) = (eight.speedup_vs_block(), eight.steals);
    let uniform = &uniform_grid[0];
    let uniform_ratio = uniform.steal_s / uniform.block_s;

    BenchFile {
        title: "antarex-serve: deterministic work stealing at drug-discovery scale",
        fields: map! {
            "workload": map! {
                "tasks": scale.tasks,
                "scaffold_families": scale.families,
                "pocket_spheres": scale.spheres,
                "seed": scale.seed,
                "total_work_core_s": fixed(total_work, 1),
            },
            "schedule_grid": grid.iter().map(|row| (format!("cores_{}", row.cores), cell(row))).collect::<Map>(),
            "uniform_control": map! {
                "block_makespan_s": fixed(uniform.block_s, 3),
                "steal_makespan_s": fixed(uniform.steal_s, 3),
                "steal_over_block": fixed(uniform_ratio, 4),
            },
            "mixed_campaign_invariance": map! {
                "physical_workers": list(counts),
                "digests": list(digests.into_iter().map(hex)),
                "identical": identical,
            },
        },
        gates: gates! {
            "million_task_scale": scale.tasks >= 1_000_000, "{} tasks >= 1000000", scale.tasks;
            "stealing_beats_static_block": speedup >= 1.5, "steal-vs-block {speedup:.2}x >= 1.50x at 8 cores";
            "uniform_parity_held": uniform_ratio <= 1.02, "uniform steal/block {uniform_ratio:.4} <= 1.02";
            "stealing_actually_fired": steals > 0, "{steals} steal transactions at 8 cores";
            "physical_worker_invariance": identical, "campaign digests identical at {counts:?}";
        },
        host_clock: Vec::new(),
    }
}

fn heaviest_over_median(costs: &[f64]) -> f64 {
    let mut sorted = costs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() - 1] / sorted[sorted.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_is_deterministic_and_heavy_tailed() {
        let scale = DockingScale {
            tasks: 5000,
            ..DockingScale::tiny()
        };
        let a = scaffold_sorted_library(&scale);
        let b = scaffold_sorted_library(&scale);
        assert_eq!(a.costs, b.costs);
        assert_eq!(a.estimates, b.estimates);
        assert_eq!(a.costs.len(), 5000);
        assert!(heaviest_over_median(&a.costs) > 4.0, "tail too light");
    }

    #[test]
    fn stealing_clears_the_gates_at_tiny_scale() {
        let scale = DockingScale {
            tasks: 20_000,
            ..DockingScale::tiny()
        };
        let grid = schedule_grid(&scaffold_sorted_library(&scale), &[8]);
        assert!(
            grid[0].speedup_vs_block() >= 1.5,
            "only {:.2}x over block",
            grid[0].speedup_vs_block()
        );
        let uniform = schedule_grid(&uniform_library(&scale), &[8]);
        assert!(
            uniform[0].steal_s <= 1.02 * uniform[0].block_s,
            "stealing overhead {:.3}x on uniform work",
            uniform[0].steal_s / uniform[0].block_s
        );
    }

    #[test]
    fn mixed_campaign_is_physical_worker_invariant() {
        let (digests, identical) = campaign_invariance(9, &[1, 2, 4]);
        assert!(identical, "digests diverged: {digests:?}");
    }

    #[test]
    fn d1_report_renders_with_green_verdicts() {
        let report = d1_docking_scale();
        assert!(report.contains("identical"));
        assert!(!report.contains("NO"), "report:\n{report}");
    }
}
