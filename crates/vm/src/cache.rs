//! The weave-time instrumented-code cache.
//!
//! Lowering a program injects metering instructions — it *instruments*
//! the code — and converts it to the register form the VM executes.
//! [`InstrumentedCodeCache`] memoizes that work under a [`CodeKey`]
//! (structural program digest × metering-parameter digest), so a given
//! `(program, cost model)` pair lowers exactly once per process and the
//! resulting [`CompiledProgram`] — ready-to-run chunks, not an
//! intermediate form — is shared across serving tenants, DSE rounds and
//! precision sweeps alike.
//!
//! The cache is `Sync`: chunks are `Arc`-shared and the map sits behind a
//! mutex (lowering is fast enough that holding the lock during a miss is
//! cheaper than the stampede it prevents).

use crate::bytecode::CompiledProgram;
use crate::digest::CodeKey;
use crate::lower::lower_program;
use antarex_ir::ast::Program;
use antarex_ir::cost::CostModel;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Process-wide cache of instrumented (metered) register code.
///
/// # Examples
///
/// ```
/// use antarex_ir::{cost::CostModel, parse_program};
/// use antarex_vm::InstrumentedCodeCache;
///
/// # fn main() -> Result<(), antarex_ir::IrError> {
/// let cache = InstrumentedCodeCache::new();
/// let program = parse_program("int f(int x) { return x * x; }")?;
/// let model = CostModel::new();
/// let a = cache.instrument(&program, &model);
/// let b = cache.instrument(&program, &model);
/// assert!(std::sync::Arc::ptr_eq(&a, &b), "second lookup is a hit");
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct InstrumentedCodeCache {
    map: Mutex<HashMap<CodeKey, Arc<CompiledProgram>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl InstrumentedCodeCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the instrumented code for `(program, model)`, lowering
    /// (and caching) it on first sight of the pair. A function that
    /// fails to lower is left out of the result.
    pub fn instrument(&self, program: &Program, model: &CostModel) -> Arc<CompiledProgram> {
        self.instrument_keyed(CodeKey::of(program, model), program, model)
    }

    /// [`InstrumentedCodeCache::instrument`] under a key the caller
    /// already holds, which must be `CodeKey::of(program, model)`.
    pub(crate) fn instrument_keyed(
        &self,
        key: CodeKey,
        program: &Program,
        model: &CostModel,
    ) -> Arc<CompiledProgram> {
        debug_assert_eq!(key, CodeKey::of(program, model), "a stale code key");
        let mut map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
        match map.entry(key) {
            std::collections::hash_map::Entry::Occupied(entry) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Arc::clone(entry.get())
            }
            std::collections::hash_map::Entry::Vacant(entry) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Arc::clone(entry.insert(Arc::new(lower_program(program, model))))
            }
        }
    }

    /// Number of lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that had to lower.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Hit fraction over all lookups so far (0.0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits();
        let total = hits + self.misses();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antarex_ir::parse_program;

    #[test]
    fn cache_is_send_sync() {
        fn assert_traits<T: Send + Sync>() {}
        assert_traits::<InstrumentedCodeCache>();
    }

    #[test]
    fn distinct_programs_get_distinct_entries() {
        let cache = InstrumentedCodeCache::new();
        let model = CostModel::new();
        let a = parse_program("int f() { return 1; }").unwrap();
        let b = parse_program("int f() { return 2; }").unwrap();
        let ca = cache.instrument(&a, &model);
        let cb = cache.instrument(&b, &model);
        assert!(!Arc::ptr_eq(&ca, &cb));
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn cost_model_is_part_of_the_key() {
        let cache = InstrumentedCodeCache::new();
        let program = parse_program("int f(int x) { return x + 1; }").unwrap();
        let base = CostModel::new();
        let mut tweaked = CostModel::new();
        tweaked.reg_op += 1;
        let a = cache.instrument(&program, &base);
        let b = cache.instrument(&program, &tweaked);
        assert!(!Arc::ptr_eq(&a, &b), "different metering, different entry");
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn hit_rate_reflects_replay() {
        let cache = InstrumentedCodeCache::new();
        let model = CostModel::new();
        let program = parse_program("int f() { return 0; }").unwrap();
        for _ in 0..20 {
            cache.instrument(&program, &model);
        }
        assert_eq!(cache.hits(), 19);
        assert_eq!(cache.misses(), 1);
        assert!(cache.hit_rate() > 0.94);
    }

    #[test]
    fn concurrent_instrumentation_shares_one_lowering() {
        let cache = Arc::new(InstrumentedCodeCache::new());
        // each thread parses its own copy: structural digesting, not
        // pointer identity, maps them to one cache entry
        let src = "int f(int x) { return x * x; }";
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    let program = parse_program(src).unwrap();
                    cache.instrument(&program, &CostModel::new())
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for pair in results.windows(2) {
            assert!(Arc::ptr_eq(&pair[0], &pair[1]));
        }
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 7);
    }
}
