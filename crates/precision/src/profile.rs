//! Dynamic-range profiling of function parameters.
//!
//! The paper plans "fully automatic dynamic optimizations, based on
//! profiling information, and data acquired at runtime, e.g. dynamic range
//! of function parameters" (§IV). The profiler runs the test-input set and
//! records, per parameter, the observed magnitude range; the tuner uses it
//! to decide which variables to attack first (narrow ranges tolerate fewer
//! mantissa bits gracefully) and to compute the minimum *exponent* range a
//! custom format would need.

use antarex_ir::value::Value;
use antarex_ir::Function;
use std::collections::BTreeMap;

/// Observed value range of one parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Range {
    /// Smallest observed non-zero magnitude.
    pub min_magnitude: f64,
    /// Largest observed magnitude.
    pub max_magnitude: f64,
    /// Number of observations.
    pub samples: u64,
    /// Whether zero was observed.
    pub saw_zero: bool,
}

impl Range {
    fn empty() -> Self {
        Range {
            min_magnitude: f64::INFINITY,
            max_magnitude: 0.0,
            samples: 0,
            saw_zero: false,
        }
    }

    fn observe(&mut self, value: f64) {
        self.samples += 1;
        let mag = value.abs();
        if mag == 0.0 {
            self.saw_zero = true;
            return;
        }
        self.min_magnitude = self.min_magnitude.min(mag);
        self.max_magnitude = self.max_magnitude.max(mag);
    }

    /// Binary orders of magnitude spanned (log2 of max/min), 0 when fewer
    /// than two distinct magnitudes were seen.
    pub fn dynamic_range_bits(&self) -> f64 {
        if self.samples == 0 || self.min_magnitude > self.max_magnitude {
            return 0.0;
        }
        (self.max_magnitude / self.min_magnitude).log2().max(0.0)
    }
}

/// Per-parameter dynamic ranges of a function over a test-input set.
#[derive(Debug, Clone, Default)]
pub struct RangeProfile {
    ranges: BTreeMap<String, Range>,
}

impl RangeProfile {
    /// Profiles `function`'s parameters over `inputs` (each entry is one
    /// argument list). Array arguments contribute every element.
    pub fn of(function: &Function, inputs: &[Vec<Value>]) -> RangeProfile {
        let mut ranges: BTreeMap<String, Range> = BTreeMap::new();
        for args in inputs {
            for (param, arg) in function.params.iter().zip(args) {
                if !param.ty.is_float() {
                    continue;
                }
                let range = ranges
                    .entry(param.name.clone())
                    .or_insert_with(Range::empty);
                match arg {
                    Value::Float(v) => range.observe(*v),
                    Value::Int(v) => range.observe(*v as f64),
                    Value::Array(items) => {
                        for item in items {
                            if let Some(v) = item.as_f64() {
                                range.observe(v);
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        RangeProfile { ranges }
    }

    /// The observed range of a parameter.
    pub fn range(&self, param: &str) -> Option<&Range> {
        self.ranges.get(param)
    }

    /// Parameters ordered by ascending dynamic range — the ones most
    /// tolerant of precision reduction first.
    pub fn tuning_order(&self) -> Vec<&str> {
        let mut names: Vec<(&str, f64)> = self
            .ranges
            .iter()
            .map(|(name, range)| (name.as_str(), range.dynamic_range_bits()))
            .collect();
        names.sort_by(|a, b| a.1.total_cmp(&b.1));
        names.into_iter().map(|(n, _)| n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antarex_ir::parse_program;

    #[test]
    fn profiles_scalars_and_arrays() {
        let program =
            parse_program("double f(double x, double a[], int n) { return x + a[0] + n; }")
                .unwrap();
        let f = program.function("f").unwrap();
        let inputs = vec![
            vec![
                Value::Float(2.0),
                Value::from(vec![0.5, 100.0]),
                Value::Int(1),
            ],
            vec![Value::Float(4.0), Value::from(vec![0.25]), Value::Int(2)],
        ];
        let profile = RangeProfile::of(f, &inputs);
        assert!(profile.range("n").is_none(), "int parameter not profiled");
        let x = profile.range("x").unwrap();
        assert_eq!(x.min_magnitude, 2.0);
        assert_eq!(x.max_magnitude, 4.0);
        assert_eq!(x.samples, 2);
        let a = profile.range("a").unwrap();
        assert_eq!(a.max_magnitude, 100.0);
        assert_eq!(a.min_magnitude, 0.25);
    }

    #[test]
    fn dynamic_range_and_ordering() {
        let program =
            parse_program("double f(double narrow, double wide) { return narrow + wide; }")
                .unwrap();
        let f = program.function("f").unwrap();
        let inputs = vec![
            vec![Value::Float(1.0), Value::Float(1e-6)],
            vec![Value::Float(2.0), Value::Float(1e6)],
        ];
        let profile = RangeProfile::of(f, &inputs);
        assert!(profile.range("narrow").unwrap().dynamic_range_bits() < 2.0);
        assert!(profile.range("wide").unwrap().dynamic_range_bits() > 30.0);
        assert_eq!(profile.tuning_order(), vec!["narrow", "wide"]);
    }

    #[test]
    fn zero_values_tracked_separately() {
        let program = parse_program("double f(double x) { return x; }").unwrap();
        let f = program.function("f").unwrap();
        let inputs = vec![vec![Value::Float(0.0)], vec![Value::Float(3.0)]];
        let profile = RangeProfile::of(f, &inputs);
        let x = profile.range("x").unwrap();
        assert!(x.saw_zero);
        assert_eq!(x.min_magnitude, 3.0, "zero excluded from magnitude range");
    }

    #[test]
    fn empty_inputs_empty_profile() {
        let program = parse_program("double f(double x) { return x; }").unwrap();
        let profile = RangeProfile::of(program.function("f").unwrap(), &[]);
        assert!(profile.range("x").is_none());
    }
}
