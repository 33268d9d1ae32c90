//! Software knobs: the tunable parameters the DSL exposes.
//!
//! The paper's knob taxonomy (§I, §IV): *application parameters* (numeric
//! knobs), *code transformations* (e.g. unroll factors — integer knobs),
//! and *code variants* (categorical knobs naming alternative functions).

use std::fmt;

/// The value a knob is set to.
#[derive(Debug, Clone, PartialEq, PartialOrd)]
pub enum KnobValue {
    /// Integer setting.
    Int(i64),
    /// Floating-point setting.
    Float(f64),
    /// Categorical setting (e.g. a code-variant name).
    Choice(String),
}

impl KnobValue {
    /// Integer view.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            KnobValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Choice view.
    pub(crate) fn as_choice(&self) -> Option<&str> {
        match self {
            KnobValue::Choice(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for KnobValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KnobValue::Int(v) => write!(f, "{v}"),
            KnobValue::Float(v) => write!(f, "{v}"),
            KnobValue::Choice(s) => write!(f, "{s}"),
        }
    }
}

/// The domain of one knob.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum KnobDomain {
    /// Integers `lo..=hi` with the given step.
    Int {
        /// Lower bound (inclusive).
        lo: i64,
        /// Upper bound (inclusive).
        hi: i64,
        /// Step between admissible values (≥ 1).
        step: i64,
    },
    /// An explicit, sorted list of integer levels (produced by
    /// [`Knob::restrict`] when the survivors are not uniformly spaced).
    IntLevels(Vec<i64>),
    /// Categorical alternatives.
    Choices(Vec<String>),
}

/// A named tunable parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Knob {
    name: String,
    domain: KnobDomain,
}

impl Knob {
    /// Integer knob over `lo..=hi` stepping by `step`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `step < 1`.
    pub fn int(name: impl Into<String>, lo: i64, hi: i64, step: i64) -> Self {
        assert!(lo <= hi, "empty integer domain");
        assert!(step >= 1, "step must be at least 1");
        Knob {
            name: name.into(),
            domain: KnobDomain::Int { lo, hi, step },
        }
    }

    /// Categorical knob.
    ///
    /// # Panics
    ///
    /// Panics if `choices` is empty.
    pub fn choice<S: Into<String>>(
        name: impl Into<String>,
        choices: impl IntoIterator<Item = S>,
    ) -> Self {
        let choices: Vec<String> = choices.into_iter().map(Into::into).collect();
        assert!(!choices.is_empty(), "empty choice domain");
        Knob {
            name: name.into(),
            domain: KnobDomain::Choices(choices),
        }
    }

    /// Knob name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Number of admissible values.
    pub(crate) fn cardinality(&self) -> usize {
        match &self.domain {
            KnobDomain::Int { lo, hi, step } => ((hi - lo) / step + 1) as usize,
            KnobDomain::IntLevels(levels) => levels.len(),
            KnobDomain::Choices(choices) => choices.len(),
        }
    }

    /// The `index`-th admissible value (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `index >= cardinality()`.
    pub(crate) fn value_at(&self, index: usize) -> KnobValue {
        match &self.domain {
            KnobDomain::Int { lo, step, .. } => KnobValue::Int(lo + (index as i64) * step),
            KnobDomain::IntLevels(levels) => KnobValue::Int(levels[index]),
            KnobDomain::Choices(choices) => KnobValue::Choice(choices[index].clone()),
        }
    }

    /// Index of a value within the domain, if admissible.
    pub(crate) fn index_of(&self, value: &KnobValue) -> Option<usize> {
        match (&self.domain, value) {
            (KnobDomain::Int { lo, hi, step }, KnobValue::Int(v)) => {
                if v < lo || v > hi || (v - lo) % step != 0 {
                    None
                } else {
                    Some(((v - lo) / step) as usize)
                }
            }
            (KnobDomain::IntLevels(levels), KnobValue::Int(v)) => {
                levels.iter().position(|l| l == v)
            }
            (KnobDomain::Choices(choices), KnobValue::Choice(c)) => {
                choices.iter().position(|x| x == c)
            }
            _ => None,
        }
    }

    /// Restricts the domain to values accepted by `keep`, returning the
    /// shrunk knob (grey-box annotation support). Returns `None` if nothing
    /// survives.
    pub(crate) fn restrict(&self, keep: impl Fn(&KnobValue) -> bool) -> Option<Knob> {
        let surviving: Vec<usize> = (0..self.cardinality())
            .filter(|&i| keep(&self.value_at(i)))
            .collect();
        if surviving.is_empty() {
            return None;
        }
        let domain = match &self.domain {
            KnobDomain::Int { .. } | KnobDomain::IntLevels(_) => {
                let values: Vec<i64> = surviving
                    .iter()
                    .map(|&i| self.value_at(i).as_int().expect("int domain"))
                    .collect();
                // keep a stepped range when the survivors stay uniform,
                // otherwise an explicit integer level list
                if let Some(step) = uniform_step(&values) {
                    KnobDomain::Int {
                        lo: values[0],
                        hi: *values.last().expect("non-empty"),
                        step,
                    }
                } else {
                    KnobDomain::IntLevels(values)
                }
            }
            KnobDomain::Choices(choices) => {
                KnobDomain::Choices(surviving.iter().map(|&i| choices[i].clone()).collect())
            }
        };
        Some(Knob {
            name: self.name.clone(),
            domain,
        })
    }
}

fn uniform_step(values: &[i64]) -> Option<i64> {
    if values.len() < 2 {
        return Some(1);
    }
    let step = values[1] - values[0];
    if step < 1 {
        return None;
    }
    values
        .windows(2)
        .all(|w| w[1] - w[0] == step)
        .then_some(step)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_knob_enumeration() {
        let k = Knob::int("unroll", 1, 9, 2);
        assert_eq!(k.cardinality(), 5);
        assert_eq!(k.value_at(0), KnobValue::Int(1));
        assert_eq!(k.value_at(4), KnobValue::Int(9));
        assert_eq!(k.index_of(&KnobValue::Int(5)), Some(2));
        assert_eq!(k.index_of(&KnobValue::Int(4)), None, "off-step");
        assert_eq!(k.index_of(&KnobValue::Int(11)), None, "out of range");
    }

    #[test]
    fn choice_knob() {
        let k = Knob::choice("variant", ["a", "b", "c"]);
        assert_eq!(k.cardinality(), 3);
        assert_eq!(k.value_at(1), KnobValue::Choice("b".into()));
        assert_eq!(k.index_of(&KnobValue::Choice("c".into())), Some(2));
        assert_eq!(k.index_of(&KnobValue::Int(0)), None, "type mismatch");
    }

    #[test]
    fn restrict_shrinks_domain() {
        let k = Knob::int("unroll", 1, 16, 1);
        let shrunk = k
            .restrict(|v| v.as_int().is_some_and(|i| i > 0 && (i & (i - 1)) == 0))
            .unwrap();
        assert_eq!(shrunk.cardinality(), 5, "1, 2, 4, 8, 16");
        // non-uniform gaps fall back to explicit integer levels
        assert!(matches!(shrunk.domain, KnobDomain::IntLevels(_)));
        assert_eq!(shrunk.value_at(4), KnobValue::Int(16));
        assert_eq!(shrunk.index_of(&KnobValue::Int(8)), Some(3));
        let even = k
            .restrict(|v| v.as_int().is_some_and(|i| i % 2 == 0))
            .unwrap();
        assert!(matches!(even.domain, KnobDomain::Int { step: 2, .. }));
        assert!(k.restrict(|_| false).is_none());
    }

    #[test]
    fn value_conversions() {
        assert_eq!(KnobValue::Float(0.5).as_int(), None);
    }

    #[test]
    #[should_panic(expected = "empty integer domain")]
    fn inverted_bounds_panic() {
        let _ = Knob::int("x", 5, 1, 1);
    }
}
