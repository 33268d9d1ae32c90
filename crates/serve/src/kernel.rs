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
//! Like [`NavEvaluator`](crate::nav::NavEvaluator), the probe derives
//! its input data from [`probe_seed`], making every evaluation a pure
//! function of (configuration, workload features): the purity the pool
//! and the design-point cache demand. Metrics are virtual (derived from
//! metered cost and precision-weighted FP energy), never wall clock, so
//! results are bit-identical across machines and thread counts.

use crate::cache::probe_seed;
use crate::pool::Evaluation;
use crate::service::{Evaluator, ProbeSegment};
use antarex_ir::cost::CostModel;
use antarex_ir::cost::ExecStats;
use antarex_ir::value::Value;
use antarex_ir::{parse_program, IrError, Program};
use antarex_precision::vars::{float_vars, set_precision};
use antarex_tuner::goal::{Constraint, Objective};
use antarex_tuner::manager::AppManager;
use antarex_tuner::{Configuration, KnobValue, KnowledgeBase, OperatingPoint};
use antarex_vm::{InstrumentedCodeCache, Vm};
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

/// Evaluates precision design points of a mini-C kernel on the VM.
///
/// Knob: `mantissa` (int, 2..=52) — the mantissa width every float
/// declaration in the kernel is lowered to. Workload features:
/// `[problem_size]` (elements; defaults to 32).
///
/// The probe runs over `problem_size` clamped to `[4, 256]` elements.
/// The clamp bounds a probe's cost, not its identity: the unclamped
/// feature still keys the design-point cache and seeds the input data,
/// so tenants asking for 300 and for 4,000 elements run distinct
/// probes of the same 256-element size. (Of `serve_kernel_cold`'s 4,000
/// tenants, sized 64‥4,159, all but about 190 run at n = 256 — its
/// per-probe figures are 256-element figures.)
#[derive(Debug, Clone)]
pub struct KernelEvaluator {
    source: String,
    function: String,
    cost_model: CostModel,
    cache: Arc<InstrumentedCodeCache>,
    /// Abstract metered cost units per virtual second (probe
    /// throughput calibration).
    pub cost_per_second: f64,
    /// Watts per unit of precision-weighted FP energy per element.
    pub watts_per_unit_energy: f64,
}

impl KernelEvaluator {
    /// Creates an evaluator over `function` of the given mini-C source,
    /// with a fresh instrumented-code cache.
    ///
    /// # Errors
    ///
    /// Returns [`IrError`] if the source fails to parse or lacks the
    /// function.
    pub(crate) fn new(
        source: impl Into<String>,
        function: impl Into<String>,
    ) -> Result<Self, IrError> {
        let source = source.into();
        let function = function.into();
        let program = parse_program(&source)?;
        if program.function(&function).is_none() {
            return Err(IrError::Unresolved(function));
        }
        Ok(KernelEvaluator {
            source,
            function,
            cost_model: CostModel::new(),
            cache: Arc::new(InstrumentedCodeCache::new()),
            cost_per_second: 2.0e6,
            watts_per_unit_energy: 0.02,
        })
    }

    /// The standard FMA-reduction kernel ([`DEFAULT_KERNEL`]).
    pub fn fma() -> Self {
        KernelEvaluator::new(DEFAULT_KERNEL, "kernel").expect("default kernel parses")
    }

    /// The shared instrumented-code cache (hit/miss accounting).
    pub fn cache(&self) -> &Arc<InstrumentedCodeCache> {
        &self.cache
    }

    /// The base program at full precision.
    fn base_program(&self) -> Program {
        parse_program(&self.source).expect("validated at construction")
    }

    /// The program with every float declaration lowered to `bits`.
    fn variant(&self, bits: u8) -> Program {
        let mut program = self.base_program();
        let vars = program
            .function(&self.function)
            .map(|f| float_vars(f))
            .unwrap_or_default();
        for var in &vars {
            set_precision(&mut program, &self.function, var, bits)
                .expect("inventoried variable exists");
        }
        program
    }

    /// Runs one program over the seeded inputs, returning the scalar
    /// output and the metered statistics.
    fn run(&self, program: Program, args: &[Value]) -> Result<(f64, ExecStats), IrError> {
        let mut vm = Vm::with_cache(program, self.cost_model.clone(), &self.cache);
        let (value, stats) = vm.run_segment(&self.function, args)?;
        Ok((scalar(&value), stats))
    }

    /// Converts one segment's metered stats to (virtual seconds,
    /// joules) under the evaluator's calibration.
    fn meter(&self, stats: &ExecStats, n: usize) -> (f64, f64) {
        let latency_s = stats.cost as f64 / self.cost_per_second;
        // power is intensity, not total work: weight FP energy per element
        let power_w = 5.0 + self.watts_per_unit_energy * stats.flop_energy / n as f64;
        (latency_s, power_w * latency_s)
    }
}

fn scalar(value: &Value) -> f64 {
    match value {
        Value::Float(f) => *f,
        Value::Int(i) => *i as f64,
        _ => 0.0,
    }
}

impl Evaluator for KernelEvaluator {
    fn evaluate(&self, config: &Configuration, features: &[f64]) -> Evaluation {
        self.evaluate_segmented(config, features).0
    }

    fn evaluate_segmented(
        &self,
        config: &Configuration,
        features: &[f64],
    ) -> (Evaluation, Vec<ProbeSegment>) {
        let bits = config.get_int("mantissa").unwrap_or(52).clamp(2, 52) as u8;
        let n = features.first().copied().unwrap_or(32.0).clamp(4.0, 256.0) as usize;
        // inputs derive from the design key: identical (config, features)
        // pairs probe identical data forever
        let mut rng = StdRng::seed_from_u64(probe_seed(config, features));
        let a: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let args = vec![Value::from(a), Value::from(b), Value::Int(n as i64)];

        let (reference, ref_stats) = self
            .run(self.base_program(), &args)
            .expect("full-precision kernel runs");
        let (tuned, stats) = if bits < 52 {
            self.run(self.variant(bits), &args)
                .expect("lowered kernel runs")
        } else {
            self.run(self.base_program(), &args)
                .expect("full-precision kernel runs")
        };

        let error = (tuned - reference).abs() / reference.abs().max(1e-12);
        let latency_s = stats.cost as f64 / self.cost_per_second;
        // power is intensity, not total work: weight FP energy per element
        let power_w = 5.0 + self.watts_per_unit_energy * stats.flop_energy / n as f64;
        let (ref_cost_s, ref_energy_j) = self.meter(&ref_stats, n);
        let (tuned_cost_s, tuned_energy_j) = self.meter(&stats, n);
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
        // the reference run is metered too, but only the tuned kernel
        // is the probe's billable work: segments describe both for the
        // trace, the evaluation charges the tuned run alone
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
}

/// Design-time knowledge for the precision knob: optimistic estimates
/// the service corrects through online learning. Built once per
/// process; every kernel manager shares it until it learns.
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
