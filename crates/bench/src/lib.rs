//! # antarex-bench — the experiment harness
//!
//! Regenerates every figure and every quantitative claim of the paper
//! (Silvano et al., DATE 2016) on the simulated substrate. Each
//! experiment is a function returning a printable report; the
//! `experiments` binary prints them all (or a `--only` selection), and
//! the criterion benches time the underlying mechanisms.
//!
//! Seven experiments also run a full-scale campaign as a [`BenchFile`]:
//! named deterministic fields and acceptance gates, a function of the
//! seed alone. `experiments --bench <id>...|all` writes each as
//! `BENCH_<id>.json` ([`BENCHES`] lists the ids), exits nonzero when a
//! gate fails, and with `all` rewrites README's gate table
//! ([`gate_table`]) from the same values. The committed files are
//! goldens: a run whose gates pass reproduces them byte for byte. Four
//! gates judge the host's clock against constant bounds; the values
//! they judged are printed, never written ([`BenchFile::summary`]).
//! Every other host timing lives in a `cargo bench` group or an `e2e`
//! per-layer row.
//!
//! Each experiment's report is a golden too: `crates/bench/reports/<id>.txt`
//! holds the output of `experiments --only <id>`.
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

/// A gate-file object literal in the shape of the JSON it renders:
/// `map! { "key": value, ... }`, each value anything `Into<Value>`.
macro_rules! map {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::Map::default()$(.with($key, $value))*
    };
}

/// The gates of a gate file: `gates! { "name": pass, "detail", args...; ... }`,
/// the detail formatted as by `format!`.
macro_rules! gates {
    ($($name:literal: $pass:expr, $($detail:expr),+;)*) => {
        vec![$($crate::Gate { name: $name, pass: $pass, detail: format!($($detail),+) }),*]
    };
}

pub(crate) mod ablations;
pub(crate) mod admission_exp;
pub(crate) mod chaos_exp;
pub(crate) mod claims;
pub mod cluster_exp;
pub(crate) mod docking_exp;
pub(crate) mod energy_obs;
pub(crate) mod figures;
pub(crate) mod obs_exp;
pub(crate) mod resiliency;
pub(crate) mod serve_exp;
pub(crate) mod tuner_exp;
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

/// ns/op of `op` over `iters` iterations.
pub(crate) fn ns_per_op(iters: u64, mut op: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        op();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// One value of a gate file. A scalar carries its rendered text, so each
/// number keeps the digits it was always published with.
#[derive(Debug, Clone)]
pub(crate) enum Value {
    /// A number or boolean, rendered as is.
    Raw(String),
    Text(String),
    List(Vec<Value>),
    Map(Map),
}

/// `x` with `digits` decimals.
pub(crate) fn fixed(x: f64, digits: usize) -> Value {
    Value::Raw(format!("{x:.digits$}"))
}

/// A digest as sixteen hex digits.
pub(crate) fn hex(digest: u64) -> Value {
    Value::Text(format!("{digest:016x}"))
}

/// A list of values.
pub(crate) fn list<T: Into<Value>>(items: impl IntoIterator<Item = T>) -> Value {
    Value::List(items.into_iter().map(Into::into).collect())
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Raw(n.to_string())
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Raw(n.to_string())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Raw(b.to_string())
    }
}

impl From<&str> for Value {
    fn from(text: &str) -> Self {
        Value::Text(text.to_string())
    }
}

impl From<Map> for Value {
    fn from(map: Map) -> Self {
        Value::Map(map)
    }
}

impl Value {
    /// Renders a value whose key sits at `indent` spaces: a non-empty map
    /// one entry per line (`None`: on one line), anything else on one
    /// line. Text is program-written ASCII, for which `Debug` quoting is
    /// JSON quoting.
    fn render(&self, indent: Option<usize>, out: &mut String) {
        match self {
            Value::Raw(text) => out.push_str(text),
            Value::Text(text) => out.push_str(&format!("{text:?}")),
            Value::List(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ", " } else { "" });
                    item.render(None, out);
                }
                out.push(']');
            }
            Value::Map(map) => map.render(indent, out),
        }
    }
}

/// An ordered JSON object of a gate file.
#[derive(Debug, Clone, Default)]
pub(crate) struct Map(Vec<(String, Value)>);

impl Map {
    /// This map with `key: value` appended.
    pub(crate) fn with(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.0.push((key.into(), value.into()));
        self
    }

    /// Renders the map as [`Value::render`] does.
    fn render(&self, indent: Option<usize>, out: &mut String) {
        let (comma, lead, close) = match indent.filter(|_| !self.0.is_empty()) {
            Some(n) => (
                ",",
                format!("\n{}  ", " ".repeat(n)),
                format!("\n{}}}", " ".repeat(n)),
            ),
            None => (", ", String::new(), "}".to_string()),
        };
        out.push('{');
        for (i, (key, value)) in self.0.iter().enumerate() {
            out.push_str(&format!(
                "{}{lead}{key:?}: ",
                if i > 0 { comma } else { "" }
            ));
            value.render(indent.map(|n| n + 2), out);
        }
        out.push_str(&close);
    }
}

impl<K: Into<String>, V: Into<Value>> FromIterator<(K, V)> for Map {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(entries: I) -> Self {
        entries
            .into_iter()
            .fold(Map::default(), |map, (key, value)| map.with(key, value))
    }
}

/// One acceptance gate: its name, the verdict, and what the verdict was
/// judged against.
#[derive(Debug, Clone)]
pub(crate) struct Gate {
    pub(crate) name: &'static str,
    pub(crate) pass: bool,
    pub(crate) detail: String,
}

/// One gate file, `BENCH_<id>.json`, as a value: a title, named
/// deterministic fields and gates, plus the host-clock values its
/// timing gates judged. [`BenchFile::render`] writes everything but
/// those values, so a file whose gates pass depends on the seed alone.
#[derive(Debug, Clone)]
pub struct BenchFile {
    pub(crate) title: &'static str,
    pub(crate) fields: Map,
    pub(crate) gates: Vec<Gate>,
    /// `(name, value)` of each host-clock measurement a gate judged:
    /// printed by `experiments --bench`, never rendered into the file.
    pub(crate) host_clock: Vec<(&'static str, f64)>,
}

impl BenchFile {
    /// `(passed, total)` over the gates; no other boolean counts.
    pub fn tally(&self) -> (usize, usize) {
        let passed = self.gates.iter().filter(|gate| gate.pass).count();
        (passed, self.gates.len())
    }

    /// The names of the gates that failed.
    pub fn failed_gates(&self) -> Vec<&'static str> {
        let failed = self.gates.iter().filter(|gate| !gate.pass);
        failed.map(|gate| gate.name).collect()
    }

    /// `<passed>/<total> gates pass`, then the host-clock values the
    /// gates judged, one decimal each.
    pub fn summary(&self) -> String {
        let (passed, total) = self.tally();
        let mut out = format!("{passed}/{total} gates pass");
        for (i, (name, value)) in self.host_clock.iter().enumerate() {
            out.push_str(if i == 0 { "; host clock: " } else { ", " });
            out.push_str(&format!("{name} {value:.1}"));
        }
        out
    }

    /// The JSON text: the title as `"benchmark"`, the fields, and one
    /// line per gate (the object is omitted when there is none).
    pub fn render(&self) -> String {
        let mut out = format!("{{\n  \"benchmark\": {:?}", self.title);
        for (key, value) in &self.fields.0 {
            out.push_str(&format!(",\n  {key:?}: "));
            value.render(Some(2), &mut out);
        }
        if !self.gates.is_empty() {
            out.push_str(",\n  \"gates\": {");
            for (i, gate) in self.gates.iter().enumerate() {
                out.push_str(&format!(
                    "{}\n    {:?}: {{ \"pass\": {}, \"detail\": {:?} }}",
                    if i > 0 { "," } else { "" },
                    gate.name,
                    gate.pass,
                    gate.detail
                ));
            }
            out.push_str("\n  }");
        }
        out.push_str("\n}\n");
        out
    }
}

/// README's gate table: one row per file, by file name, with its gate
/// tally and a pass/FAIL verdict.
pub fn gate_table(files: &[(&str, BenchFile)]) -> String {
    let mut rows: Vec<&(&str, BenchFile)> = files.iter().collect();
    rows.sort_by_key(|(id, _)| *id);
    let mut out = String::from("| gate file | benchmark | gates | verdict |\n|---|---|---|---|\n");
    for (id, file) in rows {
        let (passed, total) = file.tally();
        let verdict = if passed == total { "pass" } else { "**FAIL**" };
        out.push_str(&format!(
            "| `BENCH_{id}.json` | {} | {passed}/{total} | {verdict} |\n",
            file.title
        ));
    }
    out
}

/// `readme` with the text between its `bench-summary` markers replaced
/// by `table`.
///
/// # Errors
///
/// A missing or out-of-order marker.
pub fn with_gate_table(readme: &str, table: &str) -> Result<String, String> {
    const START: &str = "<!-- bench-summary:start -->";
    const END: &str = "<!-- bench-summary:end -->";
    let start = readme
        .find(START)
        .ok_or("bench-summary:start marker missing")?;
    let end = readme.find(END).filter(|&end| end > start);
    let end = end.ok_or("bench-summary:end marker missing or misplaced")?;
    let head = &readme[..start + START.len()];
    Ok(format!("{head}\n{table}{}", &readme[end..]))
}

/// The `"crash_recovery"` object of a gate file.
pub(crate) fn crash_recovery_map<E: Evaluator>(recovery: &CrashDrill<E>) -> Map {
    map! {
        "windows_before_crash": recovery.batches_before_crash,
        "windows_after_crash": recovery.reports.len(),
        "had_snapshot": recovery.had_snapshot,
        "replayed_entries": recovery.replayed_entries,
        "bit_identical": recovery.bit_identical,
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

/// One gate file `experiments --bench` writes: the `<id>` of
/// `BENCH_<id>.json`, the experiment whose campaign it runs at full
/// scale, and the function that runs it.
pub type Bench = (&'static str, &'static str, fn() -> BenchFile);

/// Every gate file, in run order. `docking` and `energy_obs` run first:
/// their campaign digests still depend on which campaigns ran earlier
/// in the process (ROADMAP, "Outcomes are a function of the seed"), and
/// first they match a process of their own.
pub const BENCHES: [Bench; 7] = [
    ("docking", "d1", docking_exp::d1_bench),
    ("energy_obs", "e1", energy_obs::e1_bench),
    ("admission", "ad1", admission_exp::ad1_bench),
    ("cluster", "cl1", cluster_exp::cl1_bench),
    ("obs", "o1", obs_exp::o1_bench),
    ("tuner", "p1", tuner_exp::p1_bench),
    ("vm", "v1", vm_exp::v1_bench),
];

/// The bench ids `ids` selects, in run order; `all` selects every one.
///
/// # Errors
///
/// No id, or an id that names no gate file: nothing should run, and the
/// message lists the valid ids.
pub fn select_benches(ids: &[String]) -> Result<Vec<&'static str>, String> {
    let mut valid: Vec<&str> = BENCHES.iter().map(|(id, ..)| *id).collect();
    valid.push("all");
    let unknown: Vec<&str> = ids
        .iter()
        .map(String::as_str)
        .filter(|id| !valid.contains(id))
        .collect();
    if ids.is_empty() || !unknown.is_empty() {
        return Err(format!(
            "unknown or missing bench id(s) [{}]; valid ids: {}",
            unknown.join(", "),
            valid.join(", ")
        ));
    }
    let all = ids.iter().any(|id| id == "all");
    valid.retain(|id| *id != "all" && (all || ids.iter().any(|want| want == id)));
    Ok(valid)
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

    #[test]
    fn bench_ids_are_unique_and_each_names_one_experiment() {
        let experiments = all_experiments();
        for (i, (id, experiment, _)) in BENCHES.iter().enumerate() {
            for (other_id, other_experiment, _) in &BENCHES[i + 1..] {
                assert_ne!(id, other_id);
                assert_ne!(experiment, other_experiment);
            }
            let named = experiments.iter().filter(|e| e.id == *experiment);
            assert_eq!(named.count(), 1, "{id}");
        }
    }

    fn sample(gates: Vec<Gate>) -> BenchFile {
        BenchFile {
            title: "sample bench",
            fields: map! {
                "workload": map! { "tenants": 8usize, "share": fixed(0.5, 3), "nested": map! { "identical": true } },
                "digests": list([hex(0xaa), hex(0xbb)]),
                "rows": list([map! { "name": "a", "x": 1u64 }]),
            },
            gates,
            host_clock: vec![("hot_path_event_ns", 19.04), ("span_record_ns", 49.1)],
        }
    }

    #[test]
    fn the_writer_renders_the_golden_text() {
        let file = sample(gates! {
            "within_budget": true, "<= {:.1} ns", 25.0;
            "worker_invariant": false, "digests differ";
        });
        let golden = r#"{
  "benchmark": "sample bench",
  "workload": {
    "tenants": 8,
    "share": 0.500,
    "nested": {
      "identical": true
    }
  },
  "digests": ["00000000000000aa", "00000000000000bb"],
  "rows": [{"name": "a", "x": 1}],
  "gates": {
    "within_budget": { "pass": true, "detail": "<= 25.0 ns" },
    "worker_invariant": { "pass": false, "detail": "digests differ" }
  }
}
"#;
        assert_eq!(file.render(), golden);
        assert_eq!(
            file.summary(),
            "1/2 gates pass; host clock: hot_path_event_ns 19.0, span_record_ns 49.1"
        );
    }

    #[test]
    fn host_clock_values_never_reach_the_file() {
        let gates = || gates! { "within_budget": true, "<= {:.1} ns", 25.0; };
        let (fast, mut slow) = (sample(gates()), sample(gates()));
        slow.host_clock = vec![("hot_path_event_ns", 24.9)];
        assert_eq!(fast.render(), slow.render());
        assert_ne!(fast.summary(), slow.summary());
    }

    #[test]
    fn every_experiment_has_exactly_one_report_golden() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/reports");
        let mut goldens: Vec<String> = std::fs::read_dir(dir)
            .expect("the report goldens directory")
            .map(|entry| entry.expect("a directory entry").file_name())
            .map(|name| name.to_string_lossy().into_owned())
            .collect();
        goldens.sort();
        let mut ids: Vec<String> = all_experiments()
            .iter()
            .map(|experiment| format!("{}.txt", experiment.id))
            .collect();
        ids.sort();
        assert_eq!(goldens, ids);
    }

    #[test]
    fn gate_tally_counts_gates_entries_only() {
        // `identical` is a boolean field, not a gate
        let file = sample(gates! {
            "within_budget": true, "<= 25.0 ns";
            "worker_invariant": false, "digests differ";
        });
        assert_eq!(file.tally(), (1, 2));
        assert_eq!(file.failed_gates(), ["worker_invariant"]);
        let table = gate_table(&[("sample", file)]);
        assert!(table.contains("| `BENCH_sample.json` | sample bench | 1/2 | **FAIL** |"));
    }

    #[test]
    fn a_file_without_gates_tallies_zero_and_passes() {
        let file = sample(Vec::new());
        assert_eq!(file.tally(), (0, 0));
        assert!(file.failed_gates().is_empty());
        assert!(!file.render().contains("\"gates"));
        let table = gate_table(&[("zz", file.clone()), ("plain", file)]);
        let rows: Vec<&str> = table.lines().skip(2).collect();
        assert_eq!(
            rows,
            [
                "| `BENCH_plain.json` | sample bench | 0/0 | pass |",
                "| `BENCH_zz.json` | sample bench | 0/0 | pass |"
            ]
        );
    }

    #[test]
    fn the_table_replaces_the_marked_region_only() {
        let readme = "intro\n<!-- bench-summary:start -->\nold\n<!-- bench-summary:end -->\ntail\n";
        assert_eq!(
            with_gate_table(readme, "new\n").unwrap(),
            "intro\n<!-- bench-summary:start -->\nnew\n<!-- bench-summary:end -->\ntail\n"
        );
        assert!(with_gate_table("no markers", "new\n").is_err());
    }
}
