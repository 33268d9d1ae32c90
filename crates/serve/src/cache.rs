//! The memoized design-point cache.
//!
//! Keyed by (knob configuration, quantized workload features): when two
//! tenants — or the same tenant twice — ask for the metrics of the same
//! configuration on the same kind of input, the second answer is a
//! lookup, not a re-evaluation. Entries are sharded like the session
//! store so concurrent readers contend only per shard; hit/miss counts
//! are lock-free [`Counter`] handles that can be shared with the
//! metric registry (`DesignPointCache::with_counters`), so the
//! cache's accessors and the observability plane read the same cells
//! rather than maintaining duplicate tallies.
//!
//! **Published metrics are immutable; a writer copies first.** An entry
//! is a [`Metrics`] handle on one shared map: [`DesignPointCache::get`]
//! hands out a reference-count bump, not a copy, and the same
//! allocation travels on through the response and the journal. Nothing
//! can write through a handle — mutation copies the map first — which
//! is the premise of the quarantine path: a corrupted delivery is a
//! private copy, and the cached entry it was taken from stays clean.
//! (The same rule as session snapshots, see [`crate::journal`].)
//!
//! # Key representation
//!
//! [`DesignKey`] used to render the configuration to a `String`
//! (`{a=1, b=2}`) and compare keys byte-by-byte — one heap allocation
//! plus an O(len) format pass per lookup, on the hottest path the
//! service has. It now stores a precomputed 128-bit structural hash
//! over the interned knob ids, their values, and the quantized
//! features. Equality and ordering compare the hash first (one 128-bit
//! compare); only a full 128-bit collision — never observed, and
//! guarded anyway — falls through to the dense knob vector, so a cache
//! probe does no formatting and no allocation.
//!
//! Key *equality* is bit-compatible with the retained string reference
//! ([`ReferenceKey`]): `-0.0` and `0.0` knob values stay distinct (they
//! rendered as `-0` vs `0`) and all NaN payloads collapse to one key
//! (they all rendered as `NaN`). The one deliberate divergence: the
//! string form conflated same-rendering values of different knob types
//! (`Int(1)`, `Float(1.0)` and `Choice("1")` all printed `1`); the
//! structural key tags the value variant, so those are now distinct
//! keys. Within one design space a knob has a single type, so the
//! conflation could never occur in practice — the property suite checks
//! equivalence over typed spaces, where the two keys agree exactly.

use crate::store::mix64;
use antarex_obs::Counter;
use antarex_tuner::intern::SymbolId;
use antarex_tuner::{Configuration, KnobValue};
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex};

/// Measured metrics of one design point (metric name → value): a
/// shared, immutable `BTreeMap<String, f64>`.
///
/// **Published metrics are immutable; a writer copies first.** Cloning
/// is a reference-count bump, so the cache entry, the response that
/// answers from it and the journal entry that records the answer are
/// one allocation. Reading goes through [`Deref`] (every `BTreeMap`
/// accessor, `&metrics` iteration, `metrics["power"]`); writing goes
/// through [`DerefMut`], which copies the map first when any other
/// handle shares it — so a fault injector flipping a bit in a delivered
/// result (`chaos::corrupt_evaluation`)
/// can never reach the memoized entry. `Debug` and `PartialEq` are the
/// map's own.
#[derive(Clone, Default, PartialEq)]
pub struct Metrics(Arc<BTreeMap<String, f64>>);

impl Metrics {
    /// Whether two handles share one allocation (not merely equal
    /// contents).
    pub fn ptr_eq(&self, other: &Metrics) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Deref for Metrics {
    type Target = BTreeMap<String, f64>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl DerefMut for Metrics {
    /// Copy-on-write: clones the map first if another handle shares it.
    fn deref_mut(&mut self) -> &mut Self::Target {
        Arc::make_mut(&mut self.0)
    }
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&*self.0, f)
    }
}

impl FromIterator<(String, f64)> for Metrics {
    /// Inserts the pairs one by one: `BTreeMap`'s own `from_iter` first
    /// collects them into a vector to sort, one allocation more for the
    /// few names a probe reports. A repeated name keeps its last value,
    /// as it does there.
    fn from_iter<I: IntoIterator<Item = (String, f64)>>(iter: I) -> Self {
        let mut map = BTreeMap::new();
        for (name, value) in iter {
            map.insert(name, value);
        }
        Metrics(Arc::new(map))
    }
}

impl<'a> IntoIterator for &'a Metrics {
    type Item = (&'a String, &'a f64);
    type IntoIter = std::collections::btree_map::Iter<'a, String, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// A knob value encoded for exact, totally-ordered comparison.
///
/// `Float` stores the raw bits (with every NaN canonicalized to one
/// quiet NaN) so that key equality matches what the old string
/// rendering distinguished: `-0.0 != 0.0`, `NaN == NaN`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum KnobBits {
    Int(i64),
    Float(u64),
    Choice(SymbolId),
}

const CANONICAL_NAN: u64 = 0x7FF8_0000_0000_0000;

impl KnobBits {
    fn encode(value: &KnobValue) -> Self {
        match value {
            KnobValue::Int(v) => KnobBits::Int(*v),
            KnobValue::Float(v) if v.is_nan() => KnobBits::Float(CANONICAL_NAN),
            KnobValue::Float(v) => KnobBits::Float(v.to_bits()),
            KnobValue::Choice(s) => KnobBits::Choice(antarex_tuner::intern::intern(s)),
        }
    }

    /// Folds this value into a running hash lane with a variant tag, so
    /// equal bit patterns of different variants cannot collide.
    fn fold(self, h: u64) -> u64 {
        match self {
            KnobBits::Int(v) => mix64(mix64(h ^ 0xA1) ^ (v as u64)),
            KnobBits::Float(bits) => mix64(mix64(h ^ 0xB2) ^ bits),
            KnobBits::Choice(id) => mix64(mix64(h ^ 0xC3) ^ u64::from(id.index())),
        }
    }
}

/// One element of a [`DesignKey`]: a knob assignment or a quantized
/// feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KeyPart {
    Knob(SymbolId, KnobBits),
    Feature(i64),
}

/// Cache key: a 128-bit structural hash of the configuration and the
/// workload features quantized to a fixed grid (micro-resolution, so
/// float noise below 1e-6 does not defeat memoization), plus the dense
/// knob vector and quantized features the hash was computed from, for
/// collision verification.
///
/// The knobs and features live in one shared allocation, so a clone is
/// a reference-count bump: the coalescing map, the cache entry and the
/// journal's `CacheInsert` share the key a session's
/// [`Selection`](crate::store::Selection) built.
///
/// Ordering is hash-first, then the knobs, then the features: `entries()`
/// dumps and the coalescing map iterate in hash order, which is
/// deterministic within a process but — like the hash itself — depends
/// on symbol-interning order, so raw key order must never surface in
/// output that is byte-compared across processes (reports print names,
/// not keys). `Debug` renders the hash, the knob vector and the feature
/// vector.
#[derive(Clone)]
pub struct DesignKey {
    hash: u128,
    parts: Arc<[KeyPart]>,
}

impl PartialEq for DesignKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.parts == other.parts
    }
}

impl Eq for DesignKey {}

impl PartialOrd for DesignKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DesignKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.hash
            .cmp(&other.hash)
            .then_with(|| self.knobs().cmp(other.knobs()))
            .then_with(|| self.features().cmp(other.features()))
    }
}

impl Hash for DesignKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // the structural hash already covers every equality field
        state.write_u128(self.hash);
    }
}

impl std::fmt::Debug for DesignKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        struct List<I>(I);
        impl<I: Iterator<Item = T> + Clone, T: std::fmt::Debug> std::fmt::Debug for List<I> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_list().entries(self.0.clone()).finish()
            }
        }
        f.debug_struct("DesignKey")
            .field("hash", &self.hash)
            .field("knobs", &List(self.knobs()))
            .field("features", &List(self.features()))
            .finish()
    }
}

impl DesignKey {
    /// Builds the key for a configuration evaluated under the given
    /// workload features: one allocation, no string formatting.
    pub fn new(config: &Configuration, features: &[f64]) -> Self {
        let knobs = config
            .entries()
            .iter()
            .map(|(id, value)| KeyPart::Knob(*id, KnobBits::encode(value)));
        let features = features.iter().map(|&f| KeyPart::Feature(quantize(f)));
        let parts: Arc<[KeyPart]> = knobs.chain(features).collect();
        // two independently-seeded 64-bit lanes make the 128-bit hash;
        // a collision needs both lanes to agree
        let mut lo = 0xcbf2_9ce4_8422_2325u64;
        let mut hi = 0x9e37_79b9_7f4a_7c15u64;
        for part in parts.iter() {
            match *part {
                KeyPart::Knob(id, bits) => {
                    lo = bits.fold(mix64(lo ^ u64::from(id.index())));
                    hi = bits.fold(mix64(hi ^ u64::from(id.index()).rotate_left(17)));
                }
                KeyPart::Feature(q) => {
                    lo = mix64(lo ^ (q as u64));
                    hi = mix64(hi ^ (q as u64).rotate_left(31));
                }
            }
        }
        DesignKey {
            hash: (u128::from(hi) << 64) | u128::from(lo),
            parts,
        }
    }

    fn knobs(&self) -> impl Iterator<Item = (SymbolId, KnobBits)> + Clone + '_ {
        self.parts.iter().filter_map(|part| match *part {
            KeyPart::Knob(id, bits) => Some((id, bits)),
            KeyPart::Feature(_) => None,
        })
    }

    fn features(&self) -> impl Iterator<Item = i64> + Clone + '_ {
        self.parts.iter().filter_map(|part| match *part {
            KeyPart::Feature(q) => Some(q),
            KeyPart::Knob(..) => None,
        })
    }

    /// Whether `features` quantize to the ones this key was built from
    /// — the only way the key (and [`probe_seed`]) reads them.
    pub(crate) fn has_features(&self, features: &[f64]) -> bool {
        self.features().eq(features.iter().map(|&f| quantize(f)))
    }

    /// Folds the key into a 64-bit value for shard selection — a pure
    /// function of the structural hash, identical across lookups within
    /// a run. (For the probe RNG seed, which must be stable across
    /// processes, use [`probe_seed`] instead.)
    pub(crate) fn seed(&self) -> u64 {
        (self.hash >> 64) as u64 ^ self.hash as u64
    }
}

/// The retained pre-optimization key: the canonical string rendering of
/// the configuration plus quantized features. Kept as the executable
/// reference the property suite and the p1 benchmark compare
/// [`DesignKey`] against — not used on any serving path.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReferenceKey {
    config: String,
    features: Vec<i64>,
}

impl ReferenceKey {
    /// Builds the reference key by formatting the configuration.
    pub fn new(config: &Configuration, features: &[f64]) -> Self {
        ReferenceKey {
            config: config.to_string(),
            features: features.iter().map(|&f| quantize(f)).collect(),
        }
    }

    /// The original SplitMix64 fold over the rendered configuration —
    /// the historical `DesignKey::seed()`.
    pub fn seed(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for byte in self.config.as_bytes() {
            h = mix64(h ^ u64::from(*byte));
        }
        for q in &self.features {
            h = mix64(h ^ (*q as u64));
        }
        h
    }
}

/// Streams `Display` output through the historical seed fold without
/// materializing the string.
struct SeedWriter(u64);

impl std::fmt::Write for SeedWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for byte in s.as_bytes() {
            self.0 = mix64(self.0 ^ u64::from(*byte));
        }
        Ok(())
    }
}

/// The deterministic probe-RNG seed for evaluating `config` under
/// `features` — byte-for-byte the value the old string-keyed
/// `DesignKey::seed()` produced, so every seeded evaluation in the
/// system reproduces its historical metrics exactly. Allocation-free:
/// the configuration's `Display` output is folded as it streams.
pub fn probe_seed(config: &Configuration, features: &[f64]) -> u64 {
    use std::fmt::Write;
    let mut writer = SeedWriter(0xcbf2_9ce4_8422_2325);
    let _ = write!(writer, "{config}");
    let mut h = writer.0;
    for f in features {
        h = mix64(h ^ (quantize(*f) as u64));
    }
    h
}

fn quantize(f: f64) -> i64 {
    if f.is_finite() {
        (f * 1e6).round() as i64
    } else {
        i64::MAX
    }
}

/// Sharded memoization table with hit/miss accounting.
///
/// # Examples
///
/// ```
/// use antarex_serve::cache::{DesignKey, DesignPointCache};
/// use antarex_tuner::{Configuration, KnobValue};
///
/// let cache = DesignPointCache::new(4);
/// let mut config = Configuration::new();
/// config.set("alternatives", KnobValue::Int(4));
/// let key = DesignKey::new(&config, &[8.5]);
/// assert!(cache.get(&key).is_none());
/// cache.insert(key.clone(), [("latency".to_string(), 0.2)].into_iter().collect());
/// assert_eq!(cache.get(&key).unwrap().get("latency"), Some(&0.2));
/// assert_eq!(cache.hits(), 1);
/// assert_eq!(cache.misses(), 1);
/// ```
#[derive(Debug)]
pub struct DesignPointCache {
    shards: Vec<Mutex<HashMap<DesignKey, Metrics>>>,
    hits: Counter,
    misses: Counter,
    quarantined: Counter,
}

impl DesignPointCache {
    /// Creates a cache with the given shard count and standalone
    /// counters (not yet visible on any registry).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        Self::with_counters(shards, Counter::new(), Counter::new(), Counter::new())
    }

    /// Creates a cache whose hit/miss/quarantine accounting lands in
    /// the given counter handles — typically handles registered on a
    /// metric registry, making the registry and the cache's accessors
    /// two views of the same cells.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub(crate) fn with_counters(
        shards: usize,
        hits: Counter,
        misses: Counter,
        quarantined: Counter,
    ) -> Self {
        assert!(shards > 0, "cache needs at least one shard");
        DesignPointCache {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            hits,
            misses,
            quarantined,
        }
    }

    fn shard_of(&self, key: &DesignKey) -> usize {
        (key.seed() % self.shards.len() as u64) as usize
    }

    fn lock(&self, index: usize) -> std::sync::MutexGuard<'_, HashMap<DesignKey, Metrics>> {
        crate::lock_or_recover(&self.shards[index])
    }

    /// Looks up a design point, counting a hit or a miss. A hit shares
    /// the cached entry's allocation.
    pub fn get(&self, key: &DesignKey) -> Option<Metrics> {
        let found = self.lock(self.shard_of(key)).get(key).cloned();
        match &found {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        };
        found
    }

    /// Inserts (or overwrites) a design point's metrics.
    pub fn insert(&self, key: DesignKey, metrics: Metrics) {
        self.lock(self.shard_of(&key)).insert(key, metrics);
    }

    /// Counts a hit that bypassed [`get`](Self::get) — a request
    /// coalesced onto an evaluation already in flight is served by the
    /// memo table even though the entry has not been filled yet.
    pub(crate) fn note_coalesced_hit(&self) {
        self.hits.inc();
    }

    /// Quarantines a design point whose evaluation failed or came back
    /// corrupted: whatever the slot holds is evicted so the next caller
    /// re-probes instead of being served a poisoned (or phantom) entry.
    /// The eviction is charged to the miss counter — the coalesced
    /// waiters that would have been hits must re-probe — and the
    /// quarantine counter records the incident.
    pub(crate) fn quarantine(&self, key: &DesignKey) {
        self.lock(self.shard_of(key)).remove(key);
        self.misses.inc();
        self.quarantined.inc();
    }

    /// Every cached entry in key order — the deterministic dump the
    /// snapshot machinery persists at a checkpoint boundary.
    pub(crate) fn entries(&self) -> Vec<(DesignKey, Metrics)> {
        let mut out: Vec<(DesignKey, Metrics)> = Vec::new();
        for i in 0..self.shards.len() {
            out.extend(self.lock(i).iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Design points quarantined after failed or corrupted evaluations.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.get()
    }

    /// Hit fraction over all lookups so far (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits() as f64;
        let total = hits + self.misses() as f64;
        if total > 0.0 {
            hits / total
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antarex_tuner::KnobValue;

    fn config(level: i64) -> Configuration {
        let mut c = Configuration::new();
        c.set("level", KnobValue::Int(level));
        c
    }

    fn metrics(latency: f64) -> Metrics {
        [("latency".to_string(), latency)].into_iter().collect()
    }

    #[test]
    fn hit_and_miss_accounting() {
        let cache = DesignPointCache::new(4);
        let key = DesignKey::new(&config(2), &[10.0]);
        assert!(cache.get(&key).is_none());
        cache.insert(key.clone(), metrics(0.3));
        assert_eq!(cache.get(&key).unwrap(), metrics(0.3));
        assert_eq!(cache.get(&key).unwrap(), metrics(0.3));
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 1);
        assert!((cache.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(cache.entries().len(), 1);
    }

    #[test]
    fn hits_share_the_cached_allocation() {
        let cache = DesignPointCache::new(4);
        let key = DesignKey::new(&config(2), &[10.0]);
        let inserted = metrics(0.3);
        cache.insert(key.clone(), inserted.clone());
        let (first, second) = (cache.get(&key).unwrap(), cache.get(&key).unwrap());
        assert!(first.ptr_eq(&second), "two hits, one allocation");
        assert!(
            first.ptr_eq(&inserted),
            "the inserted map itself is published"
        );
        assert!(
            !first.ptr_eq(&metrics(0.3)),
            "equal contents are not sharing"
        );
        assert!(cache.entries()[0].1.ptr_eq(&first), "a dump shares it too");
    }

    #[test]
    fn a_writer_copies_before_it_writes() {
        // the quarantine path's premise: corrupting a delivered result
        // can never reach the entry it was answered from
        let cache = DesignPointCache::new(4);
        let key = DesignKey::new(&config(2), &[10.0]);
        cache.insert(key.clone(), metrics(0.3));
        let delivered = crate::pool::Evaluation {
            metrics: cache.get(&key).unwrap(),
            cost_s: 0.3,
            energy_j: 1.0,
        };
        let corrupted = crate::chaos::corrupt_evaluation(&delivered);
        assert_ne!(corrupted.metrics, delivered.metrics, "a bit flipped");
        assert!(!corrupted.metrics.ptr_eq(&delivered.metrics));
        let cached = cache.get(&key).unwrap();
        assert_eq!(cached, metrics(0.3), "cached entry untouched");
        assert!(cached.ptr_eq(&delivered.metrics), "and still shared");
        // a sole owner writes in place
        let mut own = metrics(0.1);
        let before = std::ptr::from_ref(&*own);
        own.insert("power".to_string(), 5.0);
        assert_eq!(std::ptr::from_ref(&*own), before);
    }

    #[test]
    fn metrics_render_and_compare_as_the_map_they_wrap() {
        let map: BTreeMap<String, f64> = [
            ("latency".to_string(), 0.25),
            ("power".to_string(), f64::NAN),
            ("quality".to_string(), -0.0),
        ]
        .into_iter()
        .collect();
        let shared: Metrics = map.clone().into_iter().collect();
        assert_eq!(format!("{shared:?}"), format!("{map:?}"));
        assert_eq!(format!("{shared:#?}"), format!("{map:#?}"));
        assert_eq!(format!("{:?}", Metrics::default()), "{}");
        assert_eq!(*shared == map, map == map, "NaN compares as in the map");
        let bits = |(name, value): (&String, &f64)| (name.clone(), value.to_bits());
        assert_eq!(
            (&shared).into_iter().map(bits).collect::<Vec<_>>(),
            map.iter().map(bits).collect::<Vec<_>>()
        );
        assert_eq!(shared["latency"], 0.25);
    }

    #[test]
    fn a_repeated_metric_name_keeps_its_last_value_as_in_a_map() {
        let pairs = || {
            [
                ("power".to_string(), 1.0),
                ("latency".to_string(), 0.5),
                ("power".to_string(), 2.0),
                ("latency".to_string(), 0.25),
                ("power".to_string(), 3.0),
            ]
        };
        let metrics: Metrics = pairs().into_iter().collect();
        let map: BTreeMap<String, f64> = pairs().into_iter().collect();
        assert_eq!(*metrics, map);
        assert_eq!((metrics["latency"], metrics["power"]), (0.25, 3.0));
    }

    #[test]
    fn distinct_configs_and_features_do_not_collide() {
        let cache = DesignPointCache::new(4);
        cache.insert(DesignKey::new(&config(1), &[1.0]), metrics(0.1));
        cache.insert(DesignKey::new(&config(2), &[1.0]), metrics(0.2));
        cache.insert(DesignKey::new(&config(1), &[2.0]), metrics(0.3));
        assert_eq!(cache.entries().len(), 3);
        assert_eq!(
            cache.get(&DesignKey::new(&config(1), &[2.0])).unwrap(),
            metrics(0.3)
        );
    }

    #[test]
    fn quantization_absorbs_sub_micro_noise() {
        let cache = DesignPointCache::new(2);
        cache.insert(DesignKey::new(&config(1), &[10.0]), metrics(0.1));
        // 1e-9 of feature noise maps to the same cell
        assert!(cache
            .get(&DesignKey::new(&config(1), &[10.000000001]))
            .is_some());
        // 1e-3 does not
        assert!(cache.get(&DesignKey::new(&config(1), &[10.001])).is_none());
    }

    #[test]
    fn non_finite_features_are_usable_keys() {
        let cache = DesignPointCache::new(2);
        cache.insert(DesignKey::new(&config(1), &[f64::NAN]), metrics(1.0));
        assert!(cache
            .get(&DesignKey::new(&config(1), &[f64::INFINITY]))
            .is_some());
    }

    #[test]
    fn empty_cache_reports_zero_rate() {
        let cache = DesignPointCache::new(1);
        assert_eq!(cache.hit_rate(), 0.0);
        assert!(cache.entries().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = DesignPointCache::new(0);
    }

    #[test]
    fn quarantine_evicts_and_counts_a_miss() {
        let cache = DesignPointCache::new(4);
        let key = DesignKey::new(&config(3), &[7.0]);
        cache.insert(key.clone(), metrics(0.5));
        cache.quarantine(&key);
        assert!(
            cache.entries().is_empty(),
            "quarantined entry must be evicted"
        );
        assert_eq!(cache.quarantined(), 1);
        assert_eq!(cache.misses(), 1, "eviction charged as a miss");
        assert!(cache.get(&key).is_none(), "waiters re-probe after eviction");
        // quarantining an absent key is a no-op eviction but still counted
        cache.quarantine(&key);
        assert_eq!(cache.quarantined(), 2);
    }

    #[test]
    fn registry_counters_and_accessors_read_the_same_cells() {
        let registry = antarex_obs::MetricsRegistry::new();
        let hits = registry.counter("cache-test_hits_total", antarex_obs::Scope::Invariant);
        let misses = registry.counter("cache-test_misses_total", antarex_obs::Scope::Invariant);
        let quarantined = registry.counter(
            "cache-test_quarantined_total",
            antarex_obs::Scope::Invariant,
        );
        let cache = DesignPointCache::with_counters(4, hits.clone(), misses, quarantined);
        let key = DesignKey::new(&config(1), &[1.0]);
        cache.get(&key); // miss
        cache.insert(key.clone(), metrics(0.1));
        cache.get(&key); // hit
        cache.quarantine(&key);
        assert_eq!(cache.hits(), hits.get(), "accessor is a registry view");
        let exposition = antarex_obs::exposition(&registry.snapshot(None));
        assert!(
            exposition.contains("cache-test_hits_total 1"),
            "{exposition}"
        );
        assert!(exposition.contains("cache-test_misses_total 2"));
        assert!(exposition.contains("cache-test_quarantined_total 1"));
    }

    #[test]
    fn probe_seed_matches_the_historical_string_fold() {
        let mut c = Configuration::new();
        c.set("unroll", KnobValue::Int(8));
        c.set("alpha", KnobValue::Float(0.25));
        c.set("variant", KnobValue::Choice("blocked".into()));
        for features in [&[][..], &[1.5][..], &[f64::NAN, -3.0][..]] {
            assert_eq!(
                probe_seed(&c, features),
                ReferenceKey::new(&c, features).seed(),
                "probe_seed must reproduce the retained reference exactly"
            );
        }
    }

    #[test]
    fn key_equality_mirrors_the_string_reference() {
        // -0.0 rendered as "-0": distinct key from 0.0
        let mut neg = Configuration::new();
        neg.set("alpha", KnobValue::Float(-0.0));
        let mut pos = Configuration::new();
        pos.set("alpha", KnobValue::Float(0.0));
        assert_ne!(DesignKey::new(&neg, &[]), DesignKey::new(&pos, &[]));
        assert_ne!(ReferenceKey::new(&neg, &[]), ReferenceKey::new(&pos, &[]));
        // every NaN rendered as "NaN": one key
        let mut nan_a = Configuration::new();
        nan_a.set("alpha", KnobValue::Float(f64::NAN));
        let mut nan_b = Configuration::new();
        nan_b.set("alpha", KnobValue::Float(-f64::NAN));
        assert_eq!(DesignKey::new(&nan_a, &[]), DesignKey::new(&nan_b, &[]));
        assert_eq!(
            ReferenceKey::new(&nan_a, &[]),
            ReferenceKey::new(&nan_b, &[])
        );
    }

    #[test]
    fn variant_tags_separate_same_bits_across_types() {
        let mut int1 = Configuration::new();
        int1.set("k", KnobValue::Int(1));
        let mut choice1 = Configuration::new();
        choice1.set("k", KnobValue::Choice("1".into()));
        // the string reference conflated these; the structural key must not
        assert_ne!(DesignKey::new(&int1, &[]), DesignKey::new(&choice1, &[]));
    }
}
