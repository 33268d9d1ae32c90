//! Symbol interning for knob and metric names.
//!
//! The autotuning hot path — select, learn, observe, cache probes —
//! used to compare and clone `String` keys on every operation. Interning
//! maps each distinct name to a dense [`SymbolId`] (a `u32`) exactly
//! once; after that, every comparison is an integer compare and every
//! "key" in a configuration or metric column is `Copy`. Strings survive
//! only at API boundaries: callers still pass `&str`, reports still
//! print names, but nothing on the per-request path allocates.
//!
//! The table is process-global and append-only. Interned names are
//! leaked (`Box::leak`) so resolution hands out `&'static str` without
//! holding any lock across the caller's use. The set of distinct names
//! in a tuning deployment is small and fixed (knobs and metrics of the
//! registered applications), so the leak is bounded by design.
//!
//! Determinism: ids are assigned in first-intern order, which is a pure
//! function of program execution. No observable behaviour depends on
//! the numeric id values — [`crate::space::Configuration`] and
//! [`crate::point::OperatingPoint`] keep their entries ordered by
//! *name*, so iteration order, `Display` output, and tie-breaking are
//! byte-identical to the pre-interning string implementation.

use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

/// A dense identifier for an interned knob or metric name.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymbolId(u32);

impl std::fmt::Debug for SymbolId {
    /// Prints the interned *name*, not the numeric id: first-intern
    /// order can differ across processes (worker threads race to intern
    /// new names), so ids must never leak into reports that are
    /// byte-compared across runs.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.name())
    }
}

impl SymbolId {
    /// The raw dense index (0-based, in first-intern order).
    pub fn index(self) -> u32 {
        self.0
    }

    /// The interned name.
    pub fn name(self) -> &'static str {
        resolve(self)
    }
}

impl std::fmt::Display for SymbolId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[derive(Default)]
struct Interner {
    names: Vec<&'static str>,
    by_name: HashMap<&'static str, u32>,
}

fn table() -> &'static RwLock<Interner> {
    static TABLE: OnceLock<RwLock<Interner>> = OnceLock::new();
    TABLE.get_or_init(|| RwLock::new(Interner::default()))
}

/// Interns `name`, returning its stable [`SymbolId`]. The first call
/// for a given name takes the write lock and leaks one copy of the
/// string; every later call is a read-locked hash probe.
pub fn intern(name: &str) -> SymbolId {
    if let Some(id) = lookup(name) {
        return id;
    }
    let mut interner = match table().write() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    // double-check: another thread may have interned between the probe
    // and the write lock
    if let Some(&id) = interner.by_name.get(name) {
        return SymbolId(id);
    }
    let id = u32::try_from(interner.names.len()).expect("symbol table overflow");
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    interner.names.push(leaked);
    interner.by_name.insert(leaked, id);
    SymbolId(id)
}

/// Looks up an already-interned name without growing the table.
pub(crate) fn lookup(name: &str) -> Option<SymbolId> {
    let interner = match table().read() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    interner.by_name.get(name).map(|&id| SymbolId(id))
}

/// Resolves an id back to its name.
///
/// # Panics
///
/// Panics if `id` was not produced by [`intern`] in this process.
pub(crate) fn resolve(id: SymbolId) -> &'static str {
    let interner = match table().read() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    interner.names[id.0 as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = intern("intern-test-latency");
        let b = intern("intern-test-latency");
        assert_eq!(a, b);
        assert_eq!(a.name(), "intern-test-latency");
        assert_eq!(lookup("intern-test-latency"), Some(a));
    }

    #[test]
    fn distinct_names_get_distinct_ids() {
        let a = intern("intern-test-a");
        let b = intern("intern-test-b");
        assert_ne!(a, b);
        assert_ne!(a.index(), b.index());
        assert_eq!(resolve(a), "intern-test-a");
        assert_eq!(resolve(b), "intern-test-b");
    }

    #[test]
    fn concurrent_interning_agrees() {
        let ids: Vec<SymbolId> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| intern("intern-test-contended")))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn display_prints_the_name() {
        let id = intern("intern-test-display");
        assert_eq!(id.to_string(), "intern-test-display");
    }
}
