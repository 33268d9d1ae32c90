//! Multi-version dispatch tables (`PrepareSpecialize` / `AddVersion`).
//!
//! The paper's Fig. 4 aspect "statically prepares the function call to
//! support several versions of the function" and later "adds the specialized
//! version as one of the possible function variants that can be called".
//! [`VersionStore`] is that mechanism: the *offline* half of split
//! compilation registers which (function, parameter) pairs are dispatchable;
//! the *online* half adds per-value specialized versions and resolves calls
//! against them.

use antarex_ir::value::Value;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Canonical dispatch key derived from a runtime argument value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct VersionKey(String);

impl VersionKey {
    /// Builds a key from a runtime value. Floats are keyed by their exact
    /// bit pattern, so `0.1` and `0.1 + 1e-18` are distinct versions.
    pub(crate) fn of(value: &Value) -> Option<VersionKey> {
        match value {
            Value::Int(v) => Some(VersionKey(format!("i{v}"))),
            Value::Float(v) => Some(VersionKey(format!("f{:016x}", v.to_bits()))),
            Value::Str(s) => Some(VersionKey(format!("s{s}"))),
            Value::Array(_) | Value::Unit => None,
        }
    }
}

impl fmt::Display for VersionKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

#[derive(Debug, Clone, Default)]
struct Table {
    param_index: usize,
    versions: BTreeMap<VersionKey, String>,
    hits: u64,
    misses: u64,
}

/// Registry of multi-versioned functions and their specialized variants.
///
/// # Examples
///
/// ```
/// use antarex_weaver::VersionStore;
/// use antarex_ir::value::Value;
///
/// let mut store = VersionStore::new();
/// store.prepare("kernel", 1);
/// store.add_version("kernel", &Value::Int(64), "kernel__size_64");
/// let resolved = store.resolve("kernel", &[Value::Unit, Value::Int(64)]);
/// assert_eq!(resolved, Some("kernel__size_64"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct VersionStore {
    tables: HashMap<String, Table>,
}

impl VersionStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `function` for multi-version dispatch on the parameter
    /// at position `param_index` (the offline preparation step).
    ///
    /// Re-preparing an already-prepared function resets its version table.
    pub fn prepare(&mut self, function: &str, param_index: usize) {
        self.tables.insert(
            function.to_string(),
            Table {
                param_index,
                ..Table::default()
            },
        );
    }

    /// Returns `true` if the function was prepared for dispatch.
    pub fn is_prepared(&self, function: &str) -> bool {
        self.tables.contains_key(function)
    }

    /// Adds a specialized version for the given dispatch value (the online
    /// binding step). Returns `false` if the function was never prepared or
    /// the value cannot be keyed.
    pub fn add_version(&mut self, function: &str, value: &Value, specialized: &str) -> bool {
        let Some(table) = self.tables.get_mut(function) else {
            return false;
        };
        let Some(key) = VersionKey::of(value) else {
            return false;
        };
        table.versions.insert(key, specialized.to_string());
        true
    }

    /// Resolves a call to `function` with runtime `args` to a specialized
    /// variant name, if one was registered for the dispatch argument.
    ///
    /// Updates hit/miss counters used by the split-compilation experiments.
    pub fn resolve(&mut self, function: &str, args: &[Value]) -> Option<&str> {
        let table = self.tables.get_mut(function)?;
        let arg = args.get(table.param_index)?;
        let key = VersionKey::of(arg)?;
        match table.versions.get(&key) {
            Some(name) => {
                table.hits += 1;
                Some(name.as_str())
            }
            None => {
                table.misses += 1;
                None
            }
        }
    }

    /// Number of versions registered for a function.
    pub fn version_count(&self, function: &str) -> usize {
        self.tables.get(function).map_or(0, |t| t.versions.len())
    }

    /// Dispatch cache (hits, misses) for a function.
    pub fn stats(&self, function: &str) -> (u64, u64) {
        self.tables
            .get(function)
            .map_or((0, 0), |t| (t.hits, t.misses))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_add_resolve_cycle() {
        let mut store = VersionStore::new();
        assert!(!store.is_prepared("kernel"));
        store.prepare("kernel", 1);
        assert!(store.is_prepared("kernel"));

        assert!(store.add_version("kernel", &Value::Int(8), "kernel__size_8"));
        assert!(store.add_version("kernel", &Value::Int(16), "kernel__size_16"));
        assert_eq!(store.version_count("kernel"), 2);

        let args = [Value::Unit, Value::Int(16)];
        assert_eq!(store.resolve("kernel", &args), Some("kernel__size_16"));
        assert_eq!(
            store.resolve("kernel", &[Value::Unit, Value::Int(99)]),
            None
        );
        assert_eq!(store.stats("kernel"), (1, 1));
    }

    #[test]
    fn unprepared_function_rejects_versions() {
        let mut store = VersionStore::new();
        assert!(!store.add_version("ghost", &Value::Int(1), "ghost_1"));
        assert_eq!(store.resolve("ghost", &[Value::Int(1)]), None);
    }

    #[test]
    fn float_keys_are_exact() {
        let mut store = VersionStore::new();
        store.prepare("k", 0);
        store.add_version("k", &Value::Float(0.5), "k_half");
        assert_eq!(store.resolve("k", &[Value::Float(0.5)]), Some("k_half"));
        assert_eq!(store.resolve("k", &[Value::Float(0.5000001)]), None);
    }

    #[test]
    fn array_dispatch_value_is_unkeyable() {
        let mut store = VersionStore::new();
        store.prepare("k", 0);
        assert!(!store.add_version("k", &Value::Array(vec![]), "nope"));
        assert_eq!(store.resolve("k", &[Value::Array(vec![])]), None);
    }

    #[test]
    fn re_prepare_resets_versions() {
        let mut store = VersionStore::new();
        store.prepare("k", 0);
        store.add_version("k", &Value::Int(1), "k_1");
        store.prepare("k", 0);
        assert_eq!(store.version_count("k"), 0);
    }
}
