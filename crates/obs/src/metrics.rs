//! Metric handles and the registry that owns them.
//!
//! Three instrument kinds cover the stack: [`Counter`] (monotone
//! event counts), [`Gauge`] (last-written level, e.g. a power budget),
//! and [`Histogram`] (log-bucketed distributions, re-exported from
//! [`crate::hist`]). Handles are cheap `Arc` clones around atomics, so
//! an instrumented module and the registry read the *same* cells — the
//! single-source-of-truth property the PR 5 migration relies on: the
//! cache's hit counter and the exposition's `serve_cache_hits_total`
//! row are one atomic, not two numbers that can drift.
//!
//! # Determinism scope
//!
//! Every metric is registered under a [`Scope`]:
//!
//! * [`Scope::Invariant`] — pure event counts. On the fault-free path
//!   these are byte-identical at any worker count (the PR 2–4 virtual
//!   time contract); experiment `o1` diffs this subset across
//!   1/2/4/8 workers.
//! * [`Scope::Timing`] — values derived from the virtual schedule
//!   (queued latencies, makespans, busy time). Deterministic run-to-run
//!   for a fixed worker count, but legitimately a function of the
//!   worker count itself.
//!
//! Metric names are interned through [`antarex_tuner::intern`]; all
//! snapshot and exposition ordering is by *resolved name* (then
//! tenant), never by numeric symbol id, because id assignment order can
//! race across threads.

use crate::hist::{Histogram, Snapshot as HistSnapshot};
use antarex_tuner::intern::{intern, SymbolId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Worker-count invariance class of a metric (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Scope {
    /// Event counts: byte-identical at any worker count (fault-free).
    Invariant,
    /// Virtual-schedule timing: varies with the worker count.
    Timing,
}

/// A monotone event counter. Clones share the same atomic cell.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Adds one event.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` events.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrites the count. Only for state restoration (e.g. syncing
    /// breaker trip totals after a crash-recovery restore) — normal
    /// instrumentation must stay monotone via [`inc`](Counter::inc) /
    /// [`add`](Counter::add).
    pub fn store(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// A last-written level (f64 bits in an atomic). Clones share the cell.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl Gauge {
    /// A fresh gauge at `0.0`.
    pub(crate) fn new() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }

    /// Sets the level.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({})", self.get())
    }
}

/// Identity of a registered metric: interned name plus optional tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct MetricKey {
    /// Interned metric name.
    pub name: SymbolId,
    /// Owning tenant, or `None` for service-wide metrics.
    pub tenant: Option<u64>,
}

impl MetricKey {
    /// Exposition ordering: resolved name first, then tenant —
    /// numeric symbol ids never influence output order.
    fn sort_key(&self) -> (&'static str, Option<u64>) {
        (self.name.name(), self.tenant)
    }
}

enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Entry {
    key: MetricKey,
    scope: Scope,
    instrument: Instrument,
}

/// The value of one metric at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(f64),
    /// Full histogram summary.
    Histogram(HistSnapshot),
}

/// One row of a registry snapshot.
#[derive(Debug, Clone)]
pub struct MetricSnapshot {
    /// Resolved metric name.
    pub name: &'static str,
    /// Owning tenant, if tenant-scoped.
    pub tenant: Option<u64>,
    /// Invariance class.
    pub scope: Scope,
    /// Reading.
    pub value: MetricValue,
}

/// Registry of every metric in the process, keyed by interned name and
/// optional tenant. Registration is idempotent: asking twice for the
/// same `(name, tenant)` returns a handle onto the same cells, so
/// modules can be wired independently without double-counting.
#[derive(Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<Entry>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn find_or_insert<T: Clone>(
        &self,
        name: &str,
        tenant: Option<u64>,
        scope: Scope,
        extract: impl Fn(&Instrument) -> Option<T>,
        build: impl FnOnce() -> (T, Instrument),
    ) -> T {
        let key = MetricKey {
            name: intern(name),
            tenant,
        };
        let mut entries = match self.entries.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        for entry in entries.iter() {
            if entry.key == key {
                return extract(&entry.instrument).unwrap_or_else(|| {
                    panic!("metric {name:?} already registered with a different kind")
                });
            }
        }
        let (handle, instrument) = build();
        entries.push(Entry {
            key,
            scope,
            instrument,
        });
        handle
    }

    /// Registers (or retrieves) a service-wide counter.
    pub fn counter(&self, name: &str, scope: Scope) -> Counter {
        self.tenant_counter(name, None, scope)
    }

    /// Registers (or retrieves) a per-tenant counter.
    pub(crate) fn tenant_counter(&self, name: &str, tenant: Option<u64>, scope: Scope) -> Counter {
        self.find_or_insert(
            name,
            tenant,
            scope,
            |instrument| match instrument {
                Instrument::Counter(c) => Some(c.clone()),
                _ => None,
            },
            || {
                let c = Counter::new();
                (c.clone(), Instrument::Counter(c))
            },
        )
    }

    /// Registers a counter backed by an *existing* handle, adopting its
    /// cell instead of creating a new one. This is how pre-existing
    /// module counters migrate onto the registry without breaking their
    /// accessors. Idempotent on the key; the first attached handle wins.
    pub(crate) fn attach_counter(&self, name: &str, scope: Scope, handle: &Counter) -> Counter {
        self.find_or_insert(
            name,
            None,
            scope,
            |instrument| match instrument {
                Instrument::Counter(c) => Some(c.clone()),
                _ => None,
            },
            || (handle.clone(), Instrument::Counter(handle.clone())),
        )
    }

    /// Registers (or retrieves) a service-wide gauge.
    pub fn gauge(&self, name: &str, scope: Scope) -> Gauge {
        self.tenant_gauge(name, None, scope)
    }

    /// Registers (or retrieves) a per-tenant gauge.
    pub(crate) fn tenant_gauge(&self, name: &str, tenant: Option<u64>, scope: Scope) -> Gauge {
        self.find_or_insert(
            name,
            tenant,
            scope,
            |instrument| match instrument {
                Instrument::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            || {
                let g = Gauge::new();
                (g.clone(), Instrument::Gauge(g))
            },
        )
    }

    /// Registers (or retrieves) a service-wide histogram.
    pub fn histogram(&self, name: &str, scope: Scope) -> Histogram {
        self.tenant_histogram(name, None, scope)
    }

    /// Registers (or retrieves) a per-tenant histogram.
    pub(crate) fn tenant_histogram(
        &self,
        name: &str,
        tenant: Option<u64>,
        scope: Scope,
    ) -> Histogram {
        self.find_or_insert(
            name,
            tenant,
            scope,
            |instrument| match instrument {
                Instrument::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            || {
                let h = Histogram::new();
                (h.clone(), Instrument::Histogram(h))
            },
        )
    }

    /// Number of registered metrics.
    pub(crate) fn len(&self) -> usize {
        match self.entries.lock() {
            Ok(guard) => guard.len(),
            Err(poisoned) => poisoned.into_inner().len(),
        }
    }

    /// Reads every metric (optionally restricted to one [`Scope`]),
    /// sorted by resolved name then tenant — a deterministic order
    /// independent of registration and interning order.
    pub fn snapshot(&self, scope: Option<Scope>) -> Vec<MetricSnapshot> {
        let entries = match self.entries.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        let mut rows: Vec<MetricSnapshot> = entries
            .iter()
            .filter(|entry| scope.is_none_or(|s| entry.scope == s))
            .map(|entry| MetricSnapshot {
                name: entry.key.name.name(),
                tenant: entry.key.tenant,
                scope: entry.scope,
                value: match &entry.instrument {
                    Instrument::Counter(c) => MetricValue::Counter(c.get()),
                    Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                    Instrument::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        rows.sort_by(|a, b| (a.name, a.tenant).cmp(&(b.name, b.tenant)));
        rows
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("metrics", &self.len())
            .finish()
    }
}

// keep MetricKey::sort_key exercised even though exposition sorts on
// resolved snapshots
impl PartialOrd for MetricKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MetricKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.sort_key().cmp(&other.sort_key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("obs-test-requests", Scope::Invariant);
        let b = reg.counter("obs-test-requests", Scope::Invariant);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "both handles share one cell");
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn tenant_keys_are_distinct() {
        let reg = MetricsRegistry::new();
        let t1 = reg.tenant_counter("obs-test-tenant-req", Some(1), Scope::Invariant);
        let t2 = reg.tenant_counter("obs-test-tenant-req", Some(2), Scope::Invariant);
        t1.inc();
        assert_eq!(t1.get(), 1);
        assert_eq!(t2.get(), 0);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn attach_adopts_an_existing_cell() {
        let reg = MetricsRegistry::new();
        let pre_existing = Counter::new();
        pre_existing.add(5);
        let attached = reg.attach_counter("obs-test-attached", Scope::Invariant, &pre_existing);
        pre_existing.inc();
        assert_eq!(attached.get(), 6, "registry reads the adopted cell");
        match &reg.snapshot(None)[0].value {
            MetricValue::Counter(v) => assert_eq!(*v, 6),
            other => panic!("expected counter, got {other:?}"),
        }
    }

    #[test]
    fn gauge_round_trips() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("obs-test-budget", Scope::Invariant);
        g.set(120.5);
        assert!((g.get() - 120.5).abs() < 1e-12);
    }

    #[test]
    fn snapshot_sorts_by_name_then_tenant() {
        let reg = MetricsRegistry::new();
        reg.tenant_counter("obs-test-zzz", Some(2), Scope::Invariant);
        reg.tenant_counter("obs-test-zzz", Some(1), Scope::Invariant);
        reg.counter("obs-test-aaa", Scope::Invariant);
        let names: Vec<(&str, Option<u64>)> = reg
            .snapshot(None)
            .iter()
            .map(|row| (row.name, row.tenant))
            .collect();
        assert_eq!(
            names,
            vec![
                ("obs-test-aaa", None),
                ("obs-test-zzz", Some(1)),
                ("obs-test-zzz", Some(2)),
            ]
        );
    }

    #[test]
    fn scope_filter_selects_the_subset() {
        let reg = MetricsRegistry::new();
        reg.counter("obs-test-inv", Scope::Invariant);
        reg.histogram("obs-test-lat", Scope::Timing);
        assert_eq!(reg.snapshot(Some(Scope::Invariant)).len(), 1);
        assert_eq!(reg.snapshot(Some(Scope::Timing)).len(), 1);
        assert_eq!(reg.snapshot(None).len(), 2);
    }

    #[test]
    fn metric_key_orders_by_name_not_id() {
        // intern in reverse-alphabetical order so id order and name
        // order disagree
        let z = MetricKey {
            name: intern("obs-test-order-z"),
            tenant: None,
        };
        let a = MetricKey {
            name: intern("obs-test-order-a"),
            tenant: None,
        };
        assert!(a < z, "ordering must follow resolved names");
    }
}
