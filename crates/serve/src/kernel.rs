//! Mini-C kernels as serving-tier design-point evaluators.
//!
//! Closes the loop between the serving layer and the functional
//! substrate: a tenant's design point is a *precision knob* on a real
//! mini-C kernel, and a probe runs that kernel on the metered bytecode
//! VM ([`antarex_vm::Vm`]). All instrumented bytecode flows through one
//! shared [`InstrumentedCodeCache`], so a `(program digest, metering
//! params)` pair lowers exactly once no matter how many tenants,
//! design-space-exploration rounds, or precision rungs replay it —
//! the sharing story the VM's weave-time cache exists for.
//!
//! **Compile once, run once.** The kernel is parsed once, at
//! construction. Each mantissa rung's precision variant is built once,
//! on the first probe that asks for it, and kept together with the
//! [`CodeKey`] it digests to; a probe hands the ready program (a clone
//! is one reference-count bump) and that key to [`Vm::with_cache_key`],
//! so no probe parses, re-types, re-digests or copies anything. A
//! probe's working memory — the VM's frames and precision stack
//! ([`VmScratch`]) and the argument vector with its two input arrays —
//! is kept on a free list from one probe to the next, one entry per
//! thread that probed at once. The inputs are drawn into the kept arrays
//! and moved into the reference run, which hands them back for the tuned
//! run. At full precision the tuned program *is* the reference program,
//! so that probe runs it once and reports the one run as both segments;
//! an untraced probe builds no segments at all. A warm probe of
//! [`DEFAULT_KERNEL`] therefore costs a code-cache lookup and one or two
//! VM runs, plus the five allocations of the evaluation it returns:
//! three metric names, the map's node and its `Arc`. Each run rounds
//! its narrow `a` and `b` in place as it binds them, and its loop is a
//! single native loop trace (`vm::trace`): its 256-element charge fits
//! the VM's budget many times over, so every iteration runs in the
//! trace's unchecked exact prefix, over locals, rounding its narrow
//! stores without a data-dependent branch, and the generic tier it
//! hands off to evaluates only the final loop head.
//!
//! Like [`NavEvaluator`](crate::nav::NavEvaluator), the probe derives
//! its input data from [`probe_seed`], making every evaluation a pure
//! function of (configuration, workload features): the purity the pool
//! and the design-point cache demand. Metrics are virtual (derived from
//! metered cost and precision-weighted FP energy), never wall clock, so
//! results are bit-identical across machines and thread counts.

use crate::cache::probe_seed;
use crate::pool::Evaluation;
use crate::service::{Evaluator, ProbeSegment};
use crate::FreeList;
use antarex_ir::cost::CostModel;
use antarex_ir::cost::ExecStats;
use antarex_ir::value::Value;
use antarex_ir::{parse_program, IrError, Program};
use antarex_precision::vars::{float_vars, set_precision, FloatVar};
use antarex_tuner::goal::{Constraint, Objective};
use antarex_tuner::manager::AppManager;
use antarex_tuner::{Configuration, KnobValue, KnowledgeBase, OperatingPoint};
use antarex_vm::{CodeKey, InstrumentedCodeCache, Vm, VmScratch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, OnceLock};

/// The default probe kernel: a fused multiply-accumulate reduction with
/// enough float locals for the precision knob to bite.
pub const DEFAULT_KERNEL: &str = "double kernel(double a[], double b[], int n) {
    double acc = 0.0;
    double scale = 0.5;
    for (int i = 0; i < n; i++) {
        double t = a[i] * b[i] + scale * a[i];
        acc += t * t;
    }
    return acc;
}";

/// The narrowest mantissa rung the knob reaches.
const MIN_BITS: u8 = 2;
/// Full precision: the rung whose program is the parsed kernel itself.
const FULL_BITS: u8 = 52;

/// Evaluates precision design points of a mini-C kernel on the VM.
///
/// Knob: `mantissa` (int, 2..=52) — the mantissa width every float
/// declaration in the kernel is lowered to. Workload features:
/// `[problem_size]` (elements; defaults to 32, as does a NaN size).
///
/// The probe runs over `problem_size` clamped to `[4, 256]` elements,
/// after a missing or NaN size has become the default 32. The clamp
/// bounds a probe's cost, not its identity: the unclamped feature still
/// keys the design-point cache and seeds the input data,
/// so tenants asking for 300 and for 4,000 elements run distinct
/// probes of the same 256-element size. (Of `serve_kernel_cold`'s 4,000
/// tenants, sized 64‥4,159, all but about 190 run at n = 256 — its
/// per-probe figures are 256-element figures.)
#[derive(Debug, Clone)]
pub struct KernelEvaluator {
    function: String,
    /// The parsed kernel: the full-precision rung.
    base: Rung,
    /// The kernel's float declarations, inventoried from `base`.
    vars: Vec<FloatVar>,
    /// One precision variant per rung `MIN_BITS..FULL_BITS`, built on the
    /// rung's first probe.
    rungs: Box<[OnceLock<Rung>]>,
    cost_model: CostModel,
    cache: Arc<InstrumentedCodeCache>,
    /// The working memory of finished probes, for the next ones.
    scratch: FreeList<ProbeScratch>,
    /// Abstract metered cost units per virtual second (probe
    /// throughput calibration).
    pub cost_per_second: f64,
    /// Watts per unit of precision-weighted FP energy per element.
    pub watts_per_unit_energy: f64,
}

/// One rung's program and the code key it digests to under the
/// evaluator's cost model, computed once when the rung is built.
#[derive(Debug, Clone)]
struct Rung {
    program: Program,
    key: CodeKey,
}

impl Rung {
    fn new(program: Program, cost_model: &CostModel) -> Self {
        let key = CodeKey::of(&program, cost_model);
        Rung { program, key }
    }
}

/// What a probe works in, kept from one probe to the next: the VM's
/// frames and precision stack, and the `(a, b, n)` argument vector,
/// whose two arrays keep their capacity.
#[derive(Debug, Default)]
struct ProbeScratch {
    vm: VmScratch,
    args: Vec<Value>,
}

impl ProbeScratch {
    /// Refills the arguments with `n`-element `a` and `b`, drawn in that
    /// order, and `n`.
    fn draw_inputs(&mut self, rng: &mut StdRng, n: usize) {
        self.args.resize(3, Value::Unit);
        for slot in &mut self.args[..2] {
            let mut items = match std::mem::replace(slot, Value::Unit) {
                Value::Array(items) => items,
                _ => Vec::new(),
            };
            items.clear();
            items.extend((0..n).map(|_| Value::Float(rng.gen_range(-1.0..1.0))));
            *slot = Value::Array(items);
        }
        self.args[2] = Value::Int(n as i64);
    }
}

/// One metered run under the evaluator's calibration.
#[derive(Clone, Copy)]
struct Metered {
    value: f64,
    latency_s: f64,
    power_w: f64,
    energy_j: f64,
}

impl KernelEvaluator {
    /// Creates an evaluator over `function` of the given mini-C source,
    /// with a fresh instrumented-code cache. Precision variants are
    /// built lazily, one per rung, on first use.
    ///
    /// # Errors
    ///
    /// Returns [`IrError`] if the source fails to parse or lacks the
    /// function.
    fn new(source: &str, function: &str) -> Result<Self, IrError> {
        let base = parse_program(source)?;
        let vars = float_vars(
            base.function(function)
                .ok_or_else(|| IrError::Unresolved(function.to_string()))?,
        );
        let cost_model = CostModel::new();
        Ok(KernelEvaluator {
            function: function.to_string(),
            base: Rung::new(base, &cost_model),
            vars,
            rungs: (MIN_BITS..FULL_BITS).map(|_| OnceLock::new()).collect(),
            cost_model,
            cache: Arc::new(InstrumentedCodeCache::new()),
            scratch: FreeList::default(),
            cost_per_second: 2.0e6,
            watts_per_unit_energy: 0.02,
        })
    }

    /// The standard FMA-reduction kernel ([`DEFAULT_KERNEL`]).
    pub fn fma() -> Self {
        // cannot fire: `DEFAULT_KERNEL` is a constant that parses and
        // defines `kernel` — every test in this module builds it
        KernelEvaluator::new(DEFAULT_KERNEL, "kernel").expect("the default kernel parses")
    }

    /// The shared instrumented-code cache (hit/miss accounting).
    pub fn cache(&self) -> &Arc<InstrumentedCodeCache> {
        &self.cache
    }

    /// The rung with every float declaration at `bits` of mantissa
    /// (`MIN_BITS..=FULL_BITS`), built and digested on its first use.
    fn rung(&self, bits: u8) -> &Rung {
        if bits >= FULL_BITS {
            return &self.base;
        }
        self.rungs[usize::from(bits - MIN_BITS)].get_or_init(|| {
            let mut program = self.base.program.clone();
            for var in &self.vars {
                // cannot fire: `var` came from `float_vars` of this same
                // function in `new`, so its declaration is where it says
                set_precision(&mut program, &self.function, var, bits)
                    .expect("an inventoried variable exists");
            }
            Rung::new(program, &self.cost_model)
        })
    }

    /// Runs one rung on the scratch's `n`-element inputs and meters it,
    /// leaving in the scratch the arguments as the run handed them back
    /// ([`Vm::run_segment`]) and the VM's working memory.
    fn run(&self, rung: &Rung, scratch: &mut ProbeScratch, n: usize) -> Metered {
        let mut vm = Vm::with_cache_key(
            rung.program.clone(),
            self.cost_model.clone(),
            &self.cache,
            rung.key,
        )
        .with_scratch(std::mem::take(&mut scratch.vm));
        // cannot fire: the evaluator runs only `DEFAULT_KERNEL` (`new` is
        // private), whose `(a, b, n)` signature `args` matches with `a`
        // and `b` exactly n ≤ 256 floats long; its cost, ≈40 units per
        // element whatever the data, stays under 10⁴ against the VM's
        // 2·10⁸ budget
        let (value, stats, args) = vm
            .run_segment(&self.function, std::mem::take(&mut scratch.args))
            .expect("the kernel runs within budget");
        scratch.vm = vm.into_scratch();
        scratch.args = args;
        self.meter(scalar(&value), &stats, n)
    }

    /// Converts one run's metered stats to virtual seconds, watts and
    /// joules under the evaluator's calibration.
    fn meter(&self, value: f64, stats: &ExecStats, n: usize) -> Metered {
        let latency_s = stats.cost as f64 / self.cost_per_second;
        // power is intensity, not total work: weight FP energy per element
        let power_w = 5.0 + self.watts_per_unit_energy * stats.flop_energy / n as f64;
        Metered {
            value,
            latency_s,
            power_w,
            energy_j: power_w * latency_s,
        }
    }
}

fn scalar(value: &Value) -> f64 {
    match value {
        Value::Float(f) => *f,
        Value::Int(i) => *i as f64,
        _ => 0.0,
    }
}

impl KernelEvaluator {
    /// One probe: the evaluation of the tuned run, and the reference
    /// and tuned runs it was judged from.
    fn probe(&self, config: &Configuration, features: &[f64]) -> (Evaluation, Metered, Metered) {
        let bits = config
            .get_int("mantissa")
            .unwrap_or(52)
            .clamp(MIN_BITS.into(), FULL_BITS.into()) as u8;
        let n = features
            .first()
            .copied()
            .filter(|size| !size.is_nan())
            .unwrap_or(32.0)
            .clamp(4.0, 256.0) as usize;
        // inputs derive from the design key: identical (config, features)
        // pairs probe identical data forever
        let mut rng = StdRng::seed_from_u64(probe_seed(config, features));
        let mut scratch = self.scratch.take();
        scratch.draw_inputs(&mut rng, n);

        let reference = self.run(self.rung(FULL_BITS), &mut scratch, n);
        // at full precision the tuned program is the reference program:
        // the one run serves as both
        let tuned = if bits < FULL_BITS {
            // the reference takes `a` and `b` as `double` and never stores
            // to them, so the arrays it hands back are the drawn inputs
            scratch.args[2] = Value::Int(n as i64);
            self.run(self.rung(bits), &mut scratch, n)
        } else {
            reference
        };
        self.scratch.give_back(scratch);

        let error = (tuned.value - reference.value).abs() / reference.value.abs().max(1e-12);
        let evaluation = Evaluation {
            metrics: [
                ("latency".to_string(), tuned.latency_s),
                ("error".to_string(), error),
                ("power".to_string(), tuned.power_w),
            ]
            .into_iter()
            .collect(),
            cost_s: tuned.latency_s,
            energy_j: tuned.energy_j,
        };
        (evaluation, reference, tuned)
    }
}

impl Evaluator for KernelEvaluator {
    fn evaluate(&self, config: &Configuration, features: &[f64]) -> Evaluation {
        self.probe(config, features).0
    }

    fn evaluate_segmented(
        &self,
        config: &Configuration,
        features: &[f64],
    ) -> (Evaluation, Vec<ProbeSegment>) {
        let (evaluation, reference, tuned) = self.probe(config, features);
        // the reference run is metered too, but only the tuned kernel
        // is the probe's billable work: segments describe both for the
        // trace, the evaluation charges the tuned run alone
        let segments = vec![
            ProbeSegment {
                name: "reference",
                cost_s: reference.latency_s,
                energy_j: reference.energy_j,
            },
            ProbeSegment {
                name: "tuned",
                cost_s: tuned.latency_s,
                energy_j: tuned.energy_j,
            },
        ];
        (evaluation, segments)
    }
}

/// Design-time knowledge for the precision knob: optimistic estimates
/// the service corrects through online learning. Built once per
/// process; every kernel manager shares it for life and learns into an
/// overlay of its own.
fn kernel_knowledge() -> Arc<KnowledgeBase> {
    static BASE: OnceLock<Arc<KnowledgeBase>> = OnceLock::new();
    let base = BASE.get_or_init(|| {
        let points = [52i64, 23, 12, 8].into_iter().map(|bits| {
            let mut config = Configuration::new();
            config.set("mantissa", KnobValue::Int(bits));
            OperatingPoint::new(
                config,
                [
                    ("latency".to_string(), 0.01),
                    ("error".to_string(), (2.0f64).powi(-(bits as i32))),
                    ("power".to_string(), 5.0 + 0.1 * bits as f64),
                ],
            )
        });
        Arc::new(points.collect())
    });
    Arc::clone(base)
}

/// A per-tenant runtime manager over `kernel_knowledge`: minimize
/// power while the precision-loss error stays within `error_budget`.
pub fn kernel_manager(error_budget: f64) -> AppManager {
    let mut manager = AppManager::new(kernel_knowledge(), Objective::minimize("power"));
    manager.add_constraint(Constraint::at_most("error", error_budget));
    manager
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{Batching, Campaign};
    use crate::service::TuningRequest;

    fn config(bits: i64) -> Configuration {
        let mut c = Configuration::new();
        c.set("mantissa", KnobValue::Int(bits));
        c
    }

    #[test]
    fn evaluation_is_pure() {
        let evaluator = KernelEvaluator::fma();
        let a = evaluator.evaluate(&config(12), &[32.0]);
        let b = evaluator.evaluate(&config(12), &[32.0]);
        assert_eq!(a, b, "identical design points must evaluate identically");
    }

    #[test]
    fn lower_mantissa_sheds_power_but_adds_error() {
        let evaluator = KernelEvaluator::fma();
        let full = evaluator.evaluate(&config(52), &[64.0]);
        let low = evaluator.evaluate(&config(8), &[64.0]);
        assert_eq!(full.metrics["error"], 0.0, "full precision is exact");
        assert!(low.metrics["error"] > 0.0, "8 mantissa bits lose accuracy");
        assert!(
            low.metrics["power"] < full.metrics["power"],
            "narrow flops are cheaper: {} vs {}",
            low.metrics["power"],
            full.metrics["power"]
        );
    }

    #[test]
    fn a_nan_problem_size_probes_the_default_size() {
        let evaluator = KernelEvaluator::fma();
        for bits in [52, 12] {
            let nan = evaluator.evaluate_segmented(&config(bits), &[f64::NAN]);
            let (evaluation, segments) = &nan;
            for (name, raw) in probe_bits(&nan) {
                assert!(
                    f64::from_bits(raw).is_finite(),
                    "{name} of a NaN-sized probe"
                );
            }
            // n = 32: the same metered cost as a 32-element probe (the
            // kernel's cost depends on n alone, not on the data)
            let sized = evaluator.evaluate_segmented(&config(bits), &[32.0]);
            assert_eq!(evaluation.cost_s, sized.0.cost_s, "mantissa {bits}");
            assert_eq!(segments[0].cost_s, sized.1[0].cost_s, "mantissa {bits}");
            assert_ne!(
                evaluation.cost_s,
                evaluator.evaluate(&config(bits), &[31.0]).cost_s
            );
        }
    }

    #[test]
    fn replay_hits_the_instrumented_code_cache() {
        let evaluator = KernelEvaluator::fma();
        for round in 0..25 {
            for bits in [52i64, 23, 12, 8] {
                let features = [16.0 + (round % 3) as f64 * 8.0];
                evaluator.evaluate(&config(bits), &features);
            }
        }
        let cache = evaluator.cache();
        assert_eq!(cache.misses(), 4, "one lowering per distinct program");
        assert!(
            cache.hit_rate() >= 0.95,
            "serving-tier replay must hit: {}",
            cache.hit_rate()
        );
    }

    /// The probe as it was before rungs were kept: a parse per run, a
    /// fresh precision variant per tuned run, and two runs even at full
    /// precision. The oracle `evaluate_segmented` must reproduce.
    fn parse_per_probe(
        evaluator: &KernelEvaluator,
        config: &Configuration,
        features: &[f64],
    ) -> (Evaluation, Vec<ProbeSegment>) {
        let base_program = || parse_program(DEFAULT_KERNEL).unwrap();
        let variant = |bits: u8| {
            let mut program = base_program();
            let vars = float_vars(program.function("kernel").unwrap());
            for var in &vars {
                set_precision(&mut program, "kernel", var, bits).unwrap();
            }
            program
        };
        let run = |program: Program, args: &[Value]| {
            let mut vm = Vm::with_cache(program, CostModel::new(), evaluator.cache());
            let (value, stats, _) = vm.run_segment("kernel", args.to_vec()).unwrap();
            (scalar(&value), stats)
        };
        let meter = |stats: &ExecStats, n: usize| {
            let latency_s = stats.cost as f64 / evaluator.cost_per_second;
            let power_w = 5.0 + evaluator.watts_per_unit_energy * stats.flop_energy / n as f64;
            (latency_s, power_w * latency_s)
        };

        let bits = config.get_int("mantissa").unwrap_or(52).clamp(2, 52) as u8;
        let n = features.first().copied().unwrap_or(32.0).clamp(4.0, 256.0) as usize;
        let mut rng = StdRng::seed_from_u64(probe_seed(config, features));
        let a: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let args = vec![Value::from(a), Value::from(b), Value::Int(n as i64)];

        let (reference, ref_stats) = run(base_program(), &args);
        let (tuned, stats) = if bits < 52 {
            run(variant(bits), &args)
        } else {
            run(base_program(), &args)
        };

        let error = (tuned - reference).abs() / reference.abs().max(1e-12);
        let latency_s = stats.cost as f64 / evaluator.cost_per_second;
        let power_w = 5.0 + evaluator.watts_per_unit_energy * stats.flop_energy / n as f64;
        let (ref_cost_s, ref_energy_j) = meter(&ref_stats, n);
        let (tuned_cost_s, tuned_energy_j) = meter(&stats, n);
        let evaluation = Evaluation {
            metrics: [
                ("latency".to_string(), latency_s),
                ("error".to_string(), error),
                ("power".to_string(), power_w),
            ]
            .into_iter()
            .collect(),
            cost_s: latency_s,
            energy_j: tuned_energy_j,
        };
        let segments = vec![
            ProbeSegment {
                name: "reference",
                cost_s: ref_cost_s,
                energy_j: ref_energy_j,
            },
            ProbeSegment {
                name: "tuned",
                cost_s: tuned_cost_s,
                energy_j: tuned_energy_j,
            },
        ];
        (evaluation, segments)
    }

    /// Every float of a probe's outcome as raw bits, labelled.
    fn probe_bits((evaluation, segments): &(Evaluation, Vec<ProbeSegment>)) -> Vec<(String, u64)> {
        let mut bits: Vec<(String, u64)> = evaluation
            .metrics
            .iter()
            .map(|(name, v)| (name.clone(), v.to_bits()))
            .collect();
        bits.push(("cost_s".into(), evaluation.cost_s.to_bits()));
        bits.push(("energy_j".into(), evaluation.energy_j.to_bits()));
        for segment in segments {
            bits.push((format!("{}.cost_s", segment.name), segment.cost_s.to_bits()));
            bits.push((
                format!("{}.energy_j", segment.name),
                segment.energy_j.to_bits(),
            ));
        }
        bits
    }

    #[test]
    fn kept_rungs_and_one_full_precision_run_reproduce_the_parse_per_probe_oracle() {
        let evaluator = KernelEvaluator::fma();
        for bits in 2..=52 {
            for n in [1.0, 4.0, 37.0, 256.0, 4000.0] {
                let features = [n];
                let probe = evaluator.evaluate_segmented(&config(bits), &features);
                let oracle = parse_per_probe(&evaluator, &config(bits), &features);
                assert_eq!(
                    probe_bits(&probe),
                    probe_bits(&oracle),
                    "mantissa {bits}, n = {n}"
                );
            }
        }
    }

    #[test]
    fn two_threads_probing_one_evaluator_reproduce_the_serial_probes() {
        // sizes that shrink and grow the kept arrays, at rungs either
        // side of full precision
        let design: Vec<(i64, f64)> = [52, 12, 2, 23, 52, 8]
            .into_iter()
            .flat_map(|bits| [256.0, 3.0, 37.0, 4000.0, 1.0].map(|n| (bits, n)))
            .collect();
        let probe = |evaluator: &KernelEvaluator, &(bits, n): &(i64, f64)| {
            probe_bits(&evaluator.evaluate_segmented(&config(bits), &[n]))
        };
        let serial_evaluator = KernelEvaluator::fma();
        let serial: Vec<_> = design
            .iter()
            .map(|point| probe(&serial_evaluator, point))
            .collect();

        let shared = KernelEvaluator::fma();
        std::thread::scope(|scope| {
            let forward = scope.spawn(|| design.iter().map(|p| probe(&shared, p)).collect());
            let backward = scope.spawn(|| design.iter().rev().map(|p| probe(&shared, p)).collect());
            let forward: Vec<_> = forward.join().unwrap();
            let mut backward: Vec<_> = backward.join().unwrap();
            backward.reverse();
            assert_eq!(forward, serial, "forward thread");
            assert_eq!(backward, serial, "backward thread");
        });
        let kept = crate::lock_or_recover(&shared.scratch.0).len();
        assert!(
            (1..=2).contains(&kept),
            "one kept scratch per thread that probed at once, not {kept}"
        );
        assert_eq!(
            crate::lock_or_recover(&shared.clone().scratch.0).len(),
            0,
            "a clone starts with none"
        );
    }

    #[test]
    fn programs_and_the_evaluator_cross_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Program>();
        assert_send_sync::<KernelEvaluator>();
    }

    #[test]
    fn service_serves_kernel_tenants_end_to_end() {
        let service = Campaign::new(0, 1.0, Batching::Count(4)).build(KernelEvaluator::fma());
        for tenant in 0..4 {
            service
                .register_tenant(tenant, kernel_manager(1e-3), vec![32.0])
                .unwrap();
        }
        let requests: Vec<TuningRequest> = (0..4)
            .map(|tenant| TuningRequest {
                tenant,
                arrival_s: 0.1 * tenant as f64,
            })
            .collect();
        let report = service.serve_batch(&requests);
        assert_eq!(report.responses.len(), 4);
        assert!(report.evaluated >= 1);
        assert!(
            service.cache().hits() + service.cache().misses() > 0,
            "design points flowed through the memo cache"
        );
    }
}
