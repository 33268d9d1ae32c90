//! The design space: cartesian product of knob domains.

use crate::intern::{intern, lookup, SymbolId};
use crate::knob::{Knob, KnobValue};
use rand::Rng;
use std::fmt;

/// One configuration: an assignment of a value to every knob.
///
/// Internally a small vector of `(SymbolId, KnobValue)` pairs kept
/// sorted by knob *name* — iteration order, `Display` output, and
/// equality are identical to the `BTreeMap<String, _>` representation
/// this replaced, but lookups compare dense `u32` ids instead of
/// strings and cloning copies no key strings.
#[derive(Debug, PartialEq, Default)]
pub struct Configuration {
    values: Vec<(SymbolId, KnobValue)>,
}

impl Clone for Configuration {
    fn clone(&self) -> Self {
        Configuration {
            values: self.values.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        // reuses the vector's allocation in hot loops (neighbour
        // generation, population search)
        self.values.clone_from(&source.values);
    }
}

impl Configuration {
    /// Creates an empty configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty configuration with room for `knobs` assignments.
    pub(crate) fn with_capacity(knobs: usize) -> Self {
        Configuration {
            values: Vec::with_capacity(knobs),
        }
    }

    /// Sets a knob value.
    pub fn set(&mut self, knob: impl AsRef<str>, value: KnobValue) {
        self.set_id(intern(knob.as_ref()), value);
    }

    /// Sets a knob value by pre-interned id (the allocation-free path
    /// the [`DesignSpace`] enumeration and search inner loops use).
    pub(crate) fn set_id(&mut self, id: SymbolId, value: KnobValue) {
        for entry in &mut self.values {
            if entry.0 == id {
                entry.1 = value;
                return;
            }
        }
        let name = id.name();
        let at = self
            .values
            .iter()
            .position(|(other, _)| other.name() > name)
            .unwrap_or(self.values.len());
        self.values.insert(at, (id, value));
    }

    /// Gets a knob value.
    pub(crate) fn get(&self, knob: &str) -> Option<&KnobValue> {
        self.get_id(lookup(knob)?)
    }

    /// Gets a knob value by pre-interned id.
    pub(crate) fn get_id(&self, id: SymbolId) -> Option<&KnobValue> {
        self.values
            .iter()
            .find(|(other, _)| *other == id)
            .map(|(_, v)| v)
    }

    /// Integer value of a knob.
    pub fn get_int(&self, knob: &str) -> Option<i64> {
        self.get(knob)?.as_int()
    }

    /// Choice value of a knob.
    pub fn get_choice(&self, knob: &str) -> Option<&str> {
        self.get(knob)?.as_choice()
    }

    /// Iterates over `(knob, value)` pairs in knob-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &KnobValue)> {
        self.values.iter().map(|(k, v)| (k.name(), v))
    }

    /// The raw `(id, value)` entries in knob-name order — the dense view
    /// structural hashing and cache keys are built from.
    pub fn entries(&self) -> &[(SymbolId, KnobValue)] {
        &self.values
    }

    /// Number of assigned knobs.
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }
}

impl fmt::Display for Configuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(String, KnobValue)> for Configuration {
    fn from_iter<I: IntoIterator<Item = (String, KnobValue)>>(iter: I) -> Self {
        let mut config = Configuration::new();
        for (name, value) in iter {
            config.set(name, value);
        }
        config
    }
}

/// The cartesian design space over a set of knobs.
///
/// # Examples
///
/// ```
/// use antarex_tuner::{knob::Knob, space::DesignSpace};
///
/// let space = DesignSpace::new(vec![
///     Knob::int("unroll", 1, 4, 1),
///     Knob::choice("variant", ["a", "b"]),
/// ]);
/// assert_eq!(space.size(), 8);
/// assert_eq!(space.iter().count(), 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    knobs: Vec<Knob>,
    ids: Vec<SymbolId>,
}

impl DesignSpace {
    /// Creates a space over `knobs`.
    ///
    /// # Panics
    ///
    /// Panics if two knobs share a name.
    pub fn new(knobs: Vec<Knob>) -> Self {
        for (i, a) in knobs.iter().enumerate() {
            for b in &knobs[i + 1..] {
                assert!(a.name() != b.name(), "duplicate knob `{}`", a.name());
            }
        }
        let ids = knobs.iter().map(|k| intern(k.name())).collect();
        DesignSpace { knobs, ids }
    }

    /// The knobs, in declaration order.
    pub(crate) fn knobs(&self) -> &[Knob] {
        &self.knobs
    }

    /// The knobs' interned ids, parallel to [`knobs`](Self::knobs).
    pub(crate) fn knob_ids(&self) -> &[SymbolId] {
        &self.ids
    }

    /// Total number of configurations.
    pub fn size(&self) -> u128 {
        self.knobs.iter().map(|k| k.cardinality() as u128).product()
    }

    /// Iterates over every configuration (row-major over knob order).
    pub fn iter(&self) -> SpaceIter<'_> {
        SpaceIter {
            space: self,
            indexes: vec![0; self.knobs.len()],
            done: self.knobs.iter().any(|k| k.cardinality() == 0),
        }
    }

    /// Uniformly samples one configuration.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Configuration {
        let mut config = Configuration::with_capacity(self.knobs.len());
        for (knob, &id) in self.knobs.iter().zip(&self.ids) {
            let index = rng.gen_range(0..knob.cardinality());
            config.set_id(id, knob.value_at(index));
        }
        config
    }

    /// Writes the neighbours of `config` into `out`, reusing its
    /// existing `Configuration` allocations — the buffer local search
    /// loops keep across iterations instead of reallocating every
    /// refill. Knobs are visited in declaration order, the lower neighbour first.
    pub(crate) fn neighbors_into(&self, config: &Configuration, out: &mut Vec<Configuration>) {
        let mut used = 0;
        for (knob, &id) in self.knobs.iter().zip(&self.ids) {
            let Some(value) = config.get_id(id) else {
                continue;
            };
            let Some(index) = knob.index_of(value) else {
                continue;
            };
            for delta in [-1i64, 1] {
                let j = index as i64 + delta;
                if j >= 0 && (j as usize) < knob.cardinality() {
                    if used < out.len() {
                        out[used].clone_from(config);
                    } else {
                        out.push(config.clone());
                    }
                    out[used].set_id(id, knob.value_at(j as usize));
                    used += 1;
                }
            }
        }
        out.truncate(used);
    }

    /// Returns `true` if the configuration assigns an admissible value to
    /// every knob (and nothing else).
    pub fn contains(&self, config: &Configuration) -> bool {
        config.len() == self.knobs.len()
            && self
                .knobs
                .iter()
                .zip(&self.ids)
                .all(|(k, &id)| config.get_id(id).is_some_and(|v| k.index_of(v).is_some()))
    }

    /// Grey-box annotation: returns a space with one knob's domain shrunk
    /// by the predicate. Knobs not named are unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the knob does not exist or nothing survives the filter.
    pub fn restrict(&self, knob: &str, keep: impl Fn(&KnobValue) -> bool) -> DesignSpace {
        let knobs = self
            .knobs
            .iter()
            .map(|k| {
                if k.name() == knob {
                    k.restrict(&keep)
                        .unwrap_or_else(|| panic!("restriction on `{knob}` left no values"))
                } else {
                    k.clone()
                }
            })
            .collect();
        let found = self.knobs.iter().any(|k| k.name() == knob);
        assert!(found, "no knob named `{knob}`");
        DesignSpace {
            knobs,
            ids: self.ids.clone(),
        }
    }

    /// The `index`-th configuration in row-major order (mixed-radix
    /// decode). Lets exhaustive search enumerate without borrowing.
    ///
    /// # Panics
    ///
    /// Panics if `index >= size()`.
    pub fn config_at(&self, mut index: u128) -> Configuration {
        assert!(index < self.size(), "configuration index out of range");
        let mut config = Configuration::with_capacity(self.knobs.len());
        for (knob, &id) in self.knobs.iter().zip(&self.ids).rev() {
            let card = knob.cardinality() as u128;
            let digit = (index % card) as usize;
            index /= card;
            config.set_id(id, knob.value_at(digit));
        }
        config
    }
}

/// Iterator over all configurations of a [`DesignSpace`].
#[derive(Debug)]
pub struct SpaceIter<'a> {
    space: &'a DesignSpace,
    indexes: Vec<usize>,
    done: bool,
}

impl Iterator for SpaceIter<'_> {
    type Item = Configuration;

    fn next(&mut self) -> Option<Configuration> {
        if self.done {
            return None;
        }
        let mut config = Configuration::with_capacity(self.space.knobs.len());
        for ((knob, &id), &i) in self
            .space
            .knobs
            .iter()
            .zip(&self.space.ids)
            .zip(&self.indexes)
        {
            config.set_id(id, knob.value_at(i));
        }
        // odometer increment
        let mut carry = true;
        for (i, knob) in self.space.knobs.iter().enumerate().rev() {
            if carry {
                self.indexes[i] += 1;
                if self.indexes[i] >= knob.cardinality() {
                    self.indexes[i] = 0;
                } else {
                    carry = false;
                }
            }
        }
        if carry {
            self.done = true;
        }
        // empty knob list: single empty configuration
        if self.space.knobs.is_empty() {
            self.done = true;
        }
        Some(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> DesignSpace {
        DesignSpace::new(vec![
            Knob::int("unroll", 1, 4, 1),
            Knob::choice("variant", ["a", "b"]),
        ])
    }

    #[test]
    fn size_and_iteration() {
        let s = space();
        assert_eq!(s.size(), 8);
        let all: Vec<Configuration> = s.iter().collect();
        assert_eq!(all.len(), 8);
        // all distinct
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert!(all.iter().all(|c| s.contains(c)));
    }

    #[test]
    fn empty_space_yields_one_empty_config() {
        let s = DesignSpace::new(vec![]);
        assert_eq!(s.size(), 1);
        let all: Vec<_> = s.iter().collect();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].len(), 0);
    }

    #[test]
    fn sampling_is_admissible() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            assert!(s.contains(&s.sample(&mut rng)));
        }
    }

    #[test]
    fn neighbors_move_one_step() {
        let s = space();
        let mut config = Configuration::new();
        config.set("unroll", KnobValue::Int(2));
        config.set("variant", KnobValue::Choice("a".into()));
        let mut neighbors = Vec::new();
        s.neighbors_into(&config, &mut neighbors);
        // unroll: 1 or 3; variant: b
        assert_eq!(neighbors.len(), 3);
        assert!(neighbors.iter().all(|n| s.contains(n)));
        // boundary: unroll=1 has only one integer neighbour
        config.set("unroll", KnobValue::Int(1));
        s.neighbors_into(&config, &mut neighbors);
        assert_eq!(neighbors.len(), 2);
    }

    #[test]
    fn neighbors_into_overwrites_a_reused_buffer() {
        let s = space();
        let mut config = Configuration::new();
        config.set("unroll", KnobValue::Int(2));
        config.set("variant", KnobValue::Choice("a".into()));
        // oversized, stale buffer: must be overwritten and truncated
        let mut buffer = vec![config.clone(); 7];
        s.neighbors_into(&config, &mut buffer);
        let mut fresh = Vec::new();
        s.neighbors_into(&config, &mut fresh);
        assert_eq!(buffer, fresh);
        // undersized buffer: must grow
        config.set("unroll", KnobValue::Int(3));
        buffer.truncate(1);
        s.neighbors_into(&config, &mut buffer);
        fresh.clear();
        s.neighbors_into(&config, &mut fresh);
        assert_eq!(buffer, fresh);
    }

    #[test]
    fn contains_rejects_bad_configs() {
        let s = space();
        let mut config = Configuration::new();
        config.set("unroll", KnobValue::Int(99));
        config.set("variant", KnobValue::Choice("a".into()));
        assert!(!s.contains(&config));
        let partial: Configuration = [("unroll".to_string(), KnobValue::Int(2))]
            .into_iter()
            .collect();
        assert!(!s.contains(&partial));
    }

    #[test]
    fn restrict_shrinks_one_knob() {
        let s = DesignSpace::new(vec![Knob::int("unroll", 1, 16, 1)]);
        let shrunk = s.restrict("unroll", |v| {
            v.as_int().is_some_and(|i| i > 0 && (i & (i - 1)) == 0)
        });
        assert_eq!(shrunk.size(), 5);
    }

    #[test]
    #[should_panic(expected = "duplicate knob")]
    fn duplicate_names_panic() {
        let _ = DesignSpace::new(vec![Knob::int("x", 0, 1, 1), Knob::int("x", 0, 1, 1)]);
    }

    #[test]
    fn configuration_display() {
        let mut c = Configuration::new();
        c.set("b", KnobValue::Int(1));
        c.set("a", KnobValue::Choice("x".into()));
        assert_eq!(c.to_string(), "{a=x, b=1}");
    }

    #[test]
    fn entries_are_name_sorted_and_overwritable() {
        let mut c = Configuration::new();
        c.set("zeta", KnobValue::Int(1));
        c.set("alpha", KnobValue::Int(2));
        c.set("mid", KnobValue::Int(3));
        let names: Vec<&str> = c.entries().iter().map(|(id, _)| id.name()).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
        c.set("mid", KnobValue::Int(9));
        assert_eq!(c.len(), 3);
        assert_eq!(c.get_int("mid"), Some(9));
    }

    #[test]
    fn get_by_id_matches_get_by_name() {
        let s = space();
        let c = s.iter().next().expect("a non-empty space");
        for (&id, knob) in s.knob_ids().iter().zip(s.knobs()) {
            assert_eq!(c.get_id(id), c.get(knob.name()));
        }
    }

    #[test]
    fn debug_rendering_names_knobs() {
        let s = space();
        assert!(format!("{s:?}").contains("unroll"));
    }
}
