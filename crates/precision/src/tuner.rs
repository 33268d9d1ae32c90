//! Greedy precision lowering under an error budget.
//!
//! The tuner follows the Precimonious recipe adapted to our substrate:
//! compute full-precision reference outputs over a test-input set, then
//! repeatedly try lowering one variable a rung down the precision ladder,
//! keeping the change only if the worst-case relative error stays within
//! budget. Energy is measured by the engine's precision-weighted
//! [`flop_energy`](antarex_ir::cost::ExecStats::flop_energy).
//!
//! Candidates run on the bytecode VM (bit-identical to the reference
//! interpreter, much faster across the many sweep evaluations).

use crate::error::max_rel_error;
use crate::vars::{float_vars, set_precision};
use antarex_ir::interp::ExecEnv;
use antarex_ir::value::Value;
use antarex_ir::{IrError, Program};
use antarex_vm::Vm;
use std::collections::BTreeMap;

/// The precision ladder, full precision first.
pub(crate) const LADDER: [u8; 7] = [52, 23, 16, 12, 10, 8, 5];

/// Options controlling the tuning run.
#[derive(Debug, Clone)]
pub struct TunerOptions {
    /// Maximum tolerated worst-case relative output error.
    pub error_budget: f64,
    /// Maximum greedy sweeps over the variable list.
    pub max_sweeps: usize,
}

impl Default for TunerOptions {
    fn default() -> Self {
        TunerOptions {
            error_budget: 1e-6,
            max_sweeps: 8,
        }
    }
}

/// Result of a tuning run.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// The program with lowered declarations.
    pub program: Program,
    /// Chosen mantissa width per variable name.
    pub assignment: BTreeMap<String, u8>,
    /// Worst-case relative error of the tuned program over the test set.
    pub max_rel_error: f64,
    /// FP energy of the tuned program relative to full precision (1.0 =
    /// no saving).
    pub energy_ratio: f64,
    /// Evaluations of the test set performed during tuning.
    pub evaluations: usize,
}

/// Precision tuner for one entry function over a test-input set.
#[derive(Debug)]
pub struct PrecisionTuner {
    program: Program,
    function: String,
    inputs: Vec<Vec<Value>>,
}

impl PrecisionTuner {
    /// Creates a tuner. `inputs` is the representative test set; every
    /// candidate assignment is validated against all of it.
    pub fn new(program: Program, function: impl Into<String>, inputs: Vec<Vec<Value>>) -> Self {
        PrecisionTuner {
            program,
            function: function.into(),
            inputs,
        }
    }

    /// Builds the candidate-evaluation engine for one program.
    fn engine(&self, program: &Program) -> Vm {
        Vm::new(program.clone())
    }

    /// Runs the test set, returning outputs and total FP energy.
    fn run(&self, program: &Program) -> Result<(Vec<Value>, f64), IrError> {
        let mut engine = self.engine(program);
        let mut env = ExecEnv::new();
        let mut outputs = Vec::with_capacity(self.inputs.len());
        for args in &self.inputs {
            outputs.push(engine.call(&self.function, args, &mut env)?);
        }
        Ok((outputs, env.stats.flop_energy))
    }

    /// Greedy tuning under the given options.
    ///
    /// # Errors
    ///
    /// Returns [`IrError`] if the entry function is missing or the test
    /// set fails to execute at full precision.
    pub fn tune(&self, options: &TunerOptions) -> Result<TuneOutcome, IrError> {
        self.tune_with(options, |program| self.run(program))
    }

    /// [`PrecisionTuner::tune`] with the test-set evaluation supplied by
    /// the caller: `run` maps a candidate program to its outputs and
    /// total FP energy.
    fn tune_with(
        &self,
        options: &TunerOptions,
        run: impl Fn(&Program) -> Result<(Vec<Value>, f64), IrError>,
    ) -> Result<TuneOutcome, IrError> {
        let function = self
            .program
            .function(&self.function)
            .ok_or_else(|| IrError::Unresolved(self.function.clone()))?;
        let vars = float_vars(function);
        let (reference, full_energy) = run(&self.program)?;
        let mut evaluations = 1;

        let mut program = self.program.clone();
        // rung index per variable, all starting at full precision
        let mut rungs: Vec<usize> = vec![0; vars.len()];
        let mut current_error = 0.0;

        for _sweep in 0..options.max_sweeps {
            let mut progressed = false;
            for (i, var) in vars.iter().enumerate() {
                if rungs[i] + 1 >= LADDER.len() {
                    continue;
                }
                let candidate_bits = LADDER[rungs[i] + 1];
                let mut candidate = program.clone();
                set_precision(&mut candidate, &self.function, var, candidate_bits)?;
                match run(&candidate) {
                    Ok((outputs, _)) => {
                        evaluations += 1;
                        let err = max_rel_error(&reference, &outputs);
                        if err <= options.error_budget {
                            program = candidate;
                            rungs[i] += 1;
                            current_error = err;
                            progressed = true;
                        }
                    }
                    // lowered precision caused a runtime failure (e.g. a
                    // loop bound collapsing): reject the candidate
                    Err(_) => {
                        evaluations += 1;
                    }
                }
            }
            if !progressed {
                break;
            }
        }

        let (outputs, tuned_energy) = run(&program)?;
        evaluations += 1;
        let final_error = max_rel_error(&reference, &outputs);
        debug_assert!(final_error <= options.error_budget || vars.is_empty());
        let _ = current_error;
        Ok(TuneOutcome {
            assignment: vars
                .iter()
                .zip(&rungs)
                .map(|(v, &r)| (v.name.clone(), LADDER[r]))
                .collect(),
            program,
            max_rel_error: final_error,
            energy_ratio: if full_energy > 0.0 {
                tuned_energy / full_energy
            } else {
                1.0
            },
            evaluations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antarex_ir::interp::Interp;
    use antarex_ir::parse_program;

    const DOT: &str = "double dot(double a[], double b[], int n) {
        double s = 0.0;
        for (int i = 0; i < n; i++) { s += a[i] * b[i]; }
        return s;
    }";

    fn dot_inputs() -> Vec<Vec<Value>> {
        (1..=6)
            .map(|k| {
                let a: Vec<f64> = (0..8).map(|i| 0.1 * (i + k) as f64).collect();
                let b: Vec<f64> = (0..8).map(|i| 1.0 / (1.0 + i as f64)).collect();
                vec![Value::from(a), Value::from(b), Value::Int(8)]
            })
            .collect()
    }

    #[test]
    fn loose_budget_sheds_energy() {
        let program = parse_program(DOT).unwrap();
        let tuner = PrecisionTuner::new(program, "dot", dot_inputs());
        let outcome = tuner
            .tune(&TunerOptions {
                error_budget: 1e-2,
                max_sweeps: 8,
            })
            .unwrap();
        assert!(outcome.energy_ratio < 0.5, "ratio {}", outcome.energy_ratio);
        assert!(outcome.max_rel_error <= 1e-2);
        // some variable actually dropped below double
        assert!(outcome.assignment.values().any(|&b| b < 52));
    }

    #[test]
    fn tight_budget_keeps_more_bits_than_loose() {
        let program = parse_program(DOT).unwrap();
        let tuner = PrecisionTuner::new(program, "dot", dot_inputs());
        let tight = tuner
            .tune(&TunerOptions {
                error_budget: 1e-10,
                max_sweeps: 8,
            })
            .unwrap();
        let loose = tuner
            .tune(&TunerOptions {
                error_budget: 1e-1,
                max_sweeps: 8,
            })
            .unwrap();
        let bits = |o: &TuneOutcome| o.assignment.values().map(|&b| u32::from(b)).sum::<u32>();
        assert!(
            bits(&tight) >= bits(&loose),
            "tight {} vs loose {}",
            bits(&tight),
            bits(&loose)
        );
        assert!(tight.energy_ratio >= loose.energy_ratio);
        assert!(tight.max_rel_error <= 1e-10);
    }

    #[test]
    fn zero_budget_changes_nothing_risky() {
        let program = parse_program(DOT).unwrap();
        let tuner = PrecisionTuner::new(program.clone(), "dot", dot_inputs());
        let outcome = tuner
            .tune(&TunerOptions {
                error_budget: 0.0,
                max_sweeps: 4,
            })
            .unwrap();
        assert_eq!(outcome.max_rel_error, 0.0);
    }

    #[test]
    fn unknown_function_errors() {
        let program = parse_program(DOT).unwrap();
        let tuner = PrecisionTuner::new(program, "ghost", vec![]);
        assert!(tuner.tune(&TunerOptions::default()).is_err());
    }

    #[test]
    fn integer_function_is_a_no_op() {
        let program = parse_program("int f(int x) { return x * 2; }").unwrap();
        let tuner = PrecisionTuner::new(program, "f", vec![vec![Value::Int(3)]]);
        let outcome = tuner.tune(&TunerOptions::default()).unwrap();
        assert!(outcome.assignment.is_empty());
        assert_eq!(outcome.energy_ratio, 1.0);
    }

    #[test]
    fn vm_and_reference_engine_tune_identically() {
        // the greedy search is driven by bit-exact outputs and energies,
        // so both engines must take the exact same decisions
        let options = TunerOptions {
            error_budget: 1e-4,
            max_sweeps: 8,
        };
        let tuner = PrecisionTuner::new(parse_program(DOT).unwrap(), "dot", dot_inputs());
        let vm = tuner.tune(&options).unwrap();
        let reference = tuner
            .tune_with(&options, |program| {
                let mut interp = Interp::new(program.clone());
                let mut env = ExecEnv::new();
                let outputs = tuner
                    .inputs
                    .iter()
                    .map(|args| interp.call("dot", args, &mut env))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok((outputs, env.stats.flop_energy))
            })
            .unwrap();
        assert_eq!(vm.assignment, reference.assignment);
        assert_eq!(vm.evaluations, reference.evaluations);
        assert_eq!(
            vm.max_rel_error.to_bits(),
            reference.max_rel_error.to_bits()
        );
        assert_eq!(vm.energy_ratio.to_bits(), reference.energy_ratio.to_bits());
    }

    #[test]
    fn tuned_program_prints_custom_types() {
        let program = parse_program(DOT).unwrap();
        let tuner = PrecisionTuner::new(program, "dot", dot_inputs());
        let outcome = tuner
            .tune(&TunerOptions {
                error_budget: 1e-2,
                max_sweeps: 8,
            })
            .unwrap();
        let text = antarex_ir::printer::print_program(&outcome.program);
        assert!(
            text.contains("float") || outcome.assignment.values().all(|&b| b == 52),
            "{text}"
        );
    }
}
