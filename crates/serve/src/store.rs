//! The sharded session store.
//!
//! One `AppManager` per tenant, hash-sharded over independently locked
//! shards so lookups and updates from many serving threads contend only
//! within a shard, never globally. Shards hold `BTreeMap`s and the shard
//! index is a pure function of the tenant id, so every whole-store
//! iteration (`fold`, `dump`) visits sessions in the same order on
//! every run — the determinism the service's reports rely on.
//!
//! Sessions are copy-on-write: a shard holds `Arc<Session>`, a
//! [`SessionStore::dump`] shares those `Arc`s with the journal's
//! snapshot, and [`SessionStore::with`] copies a session before the
//! first write after a dump. A dump is therefore immutable. A session
//! gets a new `Arc` in exactly two places, [`SessionStore::insert`] and
//! that copy, and both record the tenant in its shard's written list
//! once the store keeps one (from its first refresh, or from the dump
//! it was recovered from). So a service that keeps its last snapshot
//! brings it up to date by replacing the written tenants' entries
//! alone: a checkpoint costs the sessions *written* since the last one
//! — one copy each, made by the write, and one entry swapped at the cut
//! — never a walk over the clean ones. Reads that must not write go
//! through [`SessionStore::read`], which copies nothing and records
//! nothing.
//!
//! The same rule holds one level down, for the design-time knowledge
//! base inside each session's manager: the manager factories hand every
//! tenant one shared `Arc<KnowledgeBase>`, which no manager ever writes.
//! What a tenant learns goes to its manager's overlay, one small row
//! behind an `Arc` of its own. So the copy of a touched session bumps a
//! reference count for the base and another for the row, a learning
//! round copies the row only while a snapshot still shares it, and the
//! shared base, like a snapshot, never changes. What the copy does
//! copy is the session itself, its features and the manager's
//! monitors, whose series all sit in one header table and one sample
//! buffer: at most four allocations however many metrics the tenant
//! reports, and as many blocks for the next cut to free when it drops
//! the version the copy replaced.
//!
//! A session also keeps its current [`Selection`] — the deployed
//! configuration with its design key and probe seed — so a request
//! that selects what the previous one selected derives nothing, and
//! one that selects anew shares the knowledge point's configuration
//! rather than copying it.

use crate::cache::{probe_seed, DesignKey};
use crate::error::ServeError;
use antarex_tuner::manager::AppManager;
use antarex_tuner::Configuration;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::ops::Deref;
use std::sync::{Arc, Mutex, PoisonError};

/// Tenant identifier: one concurrent application instance.
pub type TenantId = u64;

/// Workload class of a tenant, used to attribute scheduler and energy
/// metrics. Classes are coarse: they describe the
/// *shape* of the tenant's probe costs, not its identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum TenantClass {
    /// No declared shape.
    #[default]
    Generic,
    /// Navigation planning (use case b): near-uniform probe costs.
    Nav,
    /// Drug-discovery docking (use case a): heavy-tailed probe costs
    /// following the `atoms × pocket_spheres × poses` distribution.
    Docking,
}

impl TenantClass {
    /// Number of classes, for fixed-size per-class tables.
    pub const COUNT: usize = 3;

    /// Dense index for per-class tables.
    pub fn index(self) -> usize {
        match self {
            TenantClass::Generic => 0,
            TenantClass::Nav => 1,
            TenantClass::Docking => 2,
        }
    }

    /// Stable lowercase label for reports and metric names.
    pub fn label(self) -> &'static str {
        match self {
            TenantClass::Generic => "generic",
            TenantClass::Nav => "nav",
            TenantClass::Docking => "docking",
        }
    }

    /// All classes in index order.
    pub fn all() -> [TenantClass; TenantClass::COUNT] {
        [TenantClass::Generic, TenantClass::Nav, TenantClass::Docking]
    }
}

/// A session's current selection: the configuration its manager
/// deployed, with the identities derived from it under the session's
/// features — the design-cache key and the probe seed — behind one
/// shared allocation.
///
/// The configuration itself is the knowledge point's own `Arc`
/// ([`AppManager::select`] hands it out), so building a selection
/// copies no configuration: it allocates the shared block and the
/// key's parts, two allocations in all.
///
/// A session rebuilds its selection only when `select()` deploys a
/// different configuration or its features no longer quantize to the
/// ones the key was built from; every request in between shares it.
/// The cache probe, the coalescing map, the pending answer and the
/// response ([`TuningResponse::config`](crate::service::TuningResponse)) hold
/// the same `Arc`, so a clone is a reference-count bump. Reading goes
/// through [`Deref`] to the configuration; `Debug` and `PartialEq` are
/// the configuration's.
#[derive(Clone)]
pub struct Selection(Arc<Selected>);

// A selection stays one pointer wide: journal `Learn` entries, both
// session slots, pending answers and responses each hold one, so a
// wide selection (the configuration's `Arc`, the key and the seed
// inline, one allocation fewer per rebuild) raised the overload chaos
// benchmark's peak RSS from 27.30 MB to 28.79 MB (one run each, 2-core
// x86-64 host).
const _: () = assert!(std::mem::size_of::<Selection>() == std::mem::size_of::<usize>());

struct Selected {
    config: Arc<Configuration>,
    key: DesignKey,
    seed: u64,
}

impl Selection {
    /// Derives the key and the seed of `config` under `features`, and
    /// shares `config`.
    pub(crate) fn new(config: &Arc<Configuration>, features: &[f64]) -> Self {
        Selection(Arc::new(Selected {
            config: Arc::clone(config),
            key: DesignKey::new(config, features),
            seed: probe_seed(config, features),
        }))
    }

    /// Whether this selection is what [`new`](Selection::new) would
    /// build from `config` and `features`. The same `Arc` is the usual
    /// case; an equal configuration at another knowledge point counts
    /// too, since the key and the seed are functions of its value.
    fn is_current(&self, config: &Arc<Configuration>, features: &[f64]) -> bool {
        (Arc::ptr_eq(&self.0.config, config) || *self.0.config == **config)
            && self.0.key.has_features(features)
    }

    /// Whether `self` and `other` are the same selection (one shared
    /// block), not merely equal configurations.
    pub(crate) fn ptr_eq(&self, other: &Selection) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// The design-point cache key: `DesignKey::new(config, features)`.
    pub(crate) fn key(&self) -> &DesignKey {
        &self.0.key
    }

    /// The probe seed: `probe_seed(config, features)`.
    pub(crate) fn seed(&self) -> u64 {
        self.0.seed
    }
}

impl Deref for Selection {
    type Target = Configuration;

    fn deref(&self) -> &Configuration {
        &self.0.config
    }
}

impl PartialEq for Selection {
    fn eq(&self, other: &Selection) -> bool {
        self.0.config == other.0.config
    }
}

impl std::fmt::Debug for Selection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&self.0.config, f)
    }
}

/// Per-tenant session state: the tenant's runtime autotuner plus the
/// bookkeeping the service layer needs around it.
///
/// `Clone` so the store can copy a session a snapshot still shares
/// before writing to it.
#[derive(Debug, Clone)]
pub struct Session {
    /// The tenant's mARGOt-style runtime manager (knowledge base, SLA
    /// constraints, online learning).
    pub manager: AppManager,
    /// Workload features of this tenant (input size, time of day, ...),
    /// part of the design-point cache key.
    pub features: Vec<f64>,
    /// Requests answered for this tenant.
    pub requests: u64,
    /// Requests rejected (shed or infeasible).
    pub rejected: u64,
    /// Estimated power demand of the tenant's current operating point,
    /// watts — what the cluster-level power capper consumes.
    pub power_demand_w: f64,
    /// The selection that answered this tenant's most recent request,
    /// shared with the response and the journal entry.
    pub last_config: Option<Selection>,
    /// Workload class: which metric bucket the tenant's probes belong
    /// to.
    pub class: TenantClass,
    /// The selection the last `select()` deployed, if any; checked
    /// against the manager's choice and `features` before it is reused
    /// (see [`Session::select`]).
    selection: Option<Selection>,
}

impl Session {
    /// Creates a [`TenantClass::Generic`] session around a manager with
    /// the given workload features.
    pub fn new(manager: AppManager, features: Vec<f64>) -> Self {
        Session::classed(manager, features, TenantClass::Generic)
    }

    /// Creates a session with an explicit workload class.
    pub(crate) fn classed(manager: AppManager, features: Vec<f64>, class: TenantClass) -> Self {
        Session {
            manager,
            features,
            requests: 0,
            rejected: 0,
            power_demand_w: 0.0,
            last_config: None,
            class,
            selection: None,
        }
    }

    /// Runs the manager's `select()` and returns the deployed
    /// configuration's selection: the one this session kept when it is
    /// still current, a new one (kept for the next request) when the
    /// manager switched or `features` changed. `None` when no point is
    /// feasible.
    pub(crate) fn select(&mut self) -> Option<Selection> {
        let config = self.manager.select()?;
        match &self.selection {
            Some(kept) if kept.is_current(config, &self.features) => Some(kept.clone()),
            _ => {
                let fresh = Selection::new(config, &self.features);
                self.selection = Some(fresh.clone());
                Some(fresh)
            }
        }
    }
}

/// One lock's worth of the store: its sessions, and the tenants whose
/// `Arc` changed since the last [`refresh`](SessionStore::refresh).
#[derive(Debug, Default)]
struct Shard {
    sessions: BTreeMap<TenantId, Arc<Session>>,
    /// Tenants inserted, or copied before a write, since the last
    /// refresh; a tenant a dump other than the refreshed one also
    /// shares can appear twice. `None` until the first refresh, when
    /// every session counts as written: a store nobody refreshes (a
    /// service without a journal) records nothing.
    written: Option<Vec<TenantId>>,
}

/// SplitMix64 finalizer: a fixed, platform-independent mix so the
/// shard of a tenant never depends on hasher randomization.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash-sharded map of tenant sessions.
///
/// # Examples
///
/// ```
/// use antarex_serve::store::{Session, SessionStore};
/// use antarex_tuner::goal::Objective;
/// use antarex_tuner::{AppManager, KnowledgeBase};
///
/// let store = SessionStore::new(8);
/// let manager = AppManager::new(KnowledgeBase::new(), Objective::minimize("latency"));
/// store.insert(42, Session::new(manager, vec![1.0])).unwrap();
/// assert_eq!(store.len(), 1);
/// let requests = store.with(42, |s| {
///     s.requests += 1;
///     s.requests
/// }).unwrap();
/// assert_eq!(requests, 1);
/// ```
#[derive(Debug)]
pub struct SessionStore {
    shards: Vec<Mutex<Shard>>,
}

impl SessionStore {
    /// Creates a store with the given shard count.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "store needs at least one shard");
        SessionStore {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
        }
    }

    /// The tenant's shard: its `mix64` modulo the shard count, the rule
    /// the journal routes the same tenant's entries by.
    fn shard_of(&self, tenant: TenantId) -> usize {
        (mix64(tenant) % self.shards.len() as u64) as usize
    }

    fn lock(&self, index: usize) -> std::sync::MutexGuard<'_, Shard> {
        crate::lock_or_recover(&self.shards[index])
    }

    /// Registers a new tenant session.
    pub fn insert(&self, tenant: TenantId, session: Session) -> Result<(), ServeError> {
        let mut shard = self.lock(self.shard_of(tenant));
        if shard.sessions.contains_key(&tenant) {
            return Err(ServeError::TenantExists(tenant));
        }
        shard.sessions.insert(tenant, Arc::new(session));
        if let Some(written) = &mut shard.written {
            written.push(tenant);
        }
        Ok(())
    }

    /// Runs `f` on the tenant's session under the shard lock. A
    /// session a dump still shares is copied first, so `f` never writes
    /// through to a snapshot, and the copy is recorded as written.
    pub fn with<R>(
        &self,
        tenant: TenantId,
        f: impl FnOnce(&mut Session) -> R,
    ) -> Result<R, ServeError> {
        let mut shard = self.lock(self.shard_of(tenant));
        let Shard { sessions, written } = &mut *shard;
        match sessions.get_mut(&tenant) {
            Some(session) => {
                if let Some(written) = written {
                    if Arc::get_mut(session).is_none() {
                        written.push(tenant);
                    }
                }
                Ok(f(Arc::make_mut(session)))
            }
            None => Err(ServeError::UnknownTenant(tenant)),
        }
    }

    /// Runs `f` on the tenant's session under the shard lock, read
    /// only: nothing is copied, even while a dump shares the session.
    pub fn read<R>(
        &self,
        tenant: TenantId,
        f: impl FnOnce(&Session) -> R,
    ) -> Result<R, ServeError> {
        let shard = self.lock(self.shard_of(tenant));
        match shard.sessions.get(&tenant) {
            Some(session) => Ok(f(session)),
            None => Err(ServeError::UnknownTenant(tenant)),
        }
    }

    /// Total sessions across all shards.
    pub fn len(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.lock(i).sessions.len())
            .sum()
    }

    /// Returns `true` when no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every session in sorted-tenant order, shared with the store —
    /// the atomic dump the journal's snapshot machinery persists. No
    /// session is copied here: the store copies one before it next
    /// writes to it, so the dump never changes.
    pub fn dump(&self) -> Vec<(TenantId, Arc<Session>)> {
        self.fold_shared(Vec::new(), |mut acc, tenant, session| {
            acc.push((tenant, Arc::clone(session)));
            acc
        })
    }

    /// Brings `dump` up to what [`dump`](SessionStore::dump) would
    /// return now. `dump` must be what the previous refresh left, the
    /// dump this store was [recovered](SessionStore::recover) from, or
    /// empty before the first refresh of a new store: the written
    /// lists, which this drains, name every tenant whose `Arc` changed
    /// since then, and the rest of `dump` already shares the store's
    /// `Arc`s. Each written tenant's entry is replaced (found by binary
    /// search), and the tenants registered since are merged in one
    /// sorted pass; clean sessions are neither visited nor dropped.
    pub(crate) fn refresh(&self, dump: &mut Vec<(TenantId, Arc<Session>)>) {
        let mut written = Vec::new();
        {
            let mut guards: Vec<_> = (0..self.shards.len()).map(|i| self.lock(i)).collect();
            for shard in &mut guards {
                let Shard {
                    sessions,
                    written: tenants,
                } = &mut **shard;
                match tenants {
                    Some(tenants) => written.extend(
                        tenants
                            .drain(..)
                            .map(|tenant| (tenant, Arc::clone(&sessions[&tenant]))),
                    ),
                    None => {
                        written.extend(sessions.iter().map(|(&t, s)| (t, Arc::clone(s))));
                        *tenants = Some(Vec::new());
                    }
                }
            }
        }
        written.sort_unstable_by_key(|&(tenant, _)| tenant);
        written.dedup_by_key(|&mut (tenant, _)| tenant);
        let mut added = Vec::new();
        for (tenant, session) in written {
            match dump.binary_search_by_key(&tenant, |&(t, _)| t) {
                Ok(at) => dump[at].1 = session,
                Err(_) => added.push((tenant, session)),
            }
        }
        if added.is_empty() {
            return;
        }
        let mut added = added.into_iter().peekable();
        let mut merged = Vec::with_capacity(dump.len() + added.len());
        for entry in std::mem::take(dump) {
            while let Some(next) = added.next_if(|&(tenant, _)| tenant < entry.0) {
                merged.push(next);
            }
            merged.push(entry);
        }
        merged.extend(added);
        *dump = merged;
    }

    /// Rebuilds a store from a snapshot dump (crash recovery), adopting
    /// the dump's sessions without copying them, and records from then
    /// on what changes relative to that dump. The journal suffix is
    /// replayed on top by the caller — see [`crate::journal::replay`].
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero, or if the dump names a tenant twice
    /// (a [`dump`](SessionStore::dump) never does).
    pub fn recover(shards: usize, sessions: Vec<(TenantId, Arc<Session>)>) -> Self {
        let mut store = SessionStore::new(shards);
        for shard in &mut store.shards {
            shard
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner)
                .written = Some(Vec::new());
        }
        for (tenant, session) in sessions {
            let index = store.shard_of(tenant);
            let shard = store.shards[index]
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner);
            assert!(
                shard.sessions.insert(tenant, session).is_none(),
                "tenant {tenant} appears twice in the dump"
            );
        }
        store
    }

    /// Folds `f` over every session in sorted-tenant order, reading
    /// each in place. Every shard is locked for the whole fold, so `f`
    /// sees one consistent cut of the store and must not call back
    /// into it.
    pub fn fold<A>(&self, init: A, mut f: impl FnMut(A, TenantId, &Session) -> A) -> A {
        self.fold_shared(init, |acc, tenant, session| f(acc, tenant, session))
    }

    /// [`fold`](SessionStore::fold) over the shared handles: takes each
    /// shard guard once, in index order, and merges the shards' sorted
    /// iterators.
    fn fold_shared<A>(&self, init: A, mut f: impl FnMut(A, TenantId, &Arc<Session>) -> A) -> A {
        let guards: Vec<_> = (0..self.shards.len()).map(|i| self.lock(i)).collect();
        let mut iters: Vec<_> = guards
            .iter()
            .map(|g| g.sessions.iter().peekable())
            .collect();
        let mut heads: BinaryHeap<Reverse<(TenantId, usize)>> = iters
            .iter_mut()
            .enumerate()
            .filter_map(|(i, iter)| iter.peek().map(|(&tenant, _)| Reverse((tenant, i))))
            .collect();
        let mut acc = init;
        while let Some(Reverse((_, i))) = heads.pop() {
            let (&tenant, session) = iters[i].next().expect("the heap holds peeked heads");
            acc = f(acc, tenant, session);
            if let Some((&next, _)) = iters[i].peek() {
                heads.push(Reverse((next, i)));
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antarex_tuner::goal::{Constraint, Objective};
    use antarex_tuner::{KnobValue, KnowledgeBase, OperatingPoint};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn session() -> Session {
        Session::new(
            AppManager::new(KnowledgeBase::new(), Objective::minimize("latency")),
            vec![0.5],
        )
    }

    #[test]
    fn insert_and_lookup() {
        let store = SessionStore::new(4);
        store.insert(1, session()).unwrap();
        store.insert(2, session()).unwrap();
        assert_eq!(store.insert(1, session()), Err(ServeError::TenantExists(1)));
        assert_eq!(store.len(), 2);
        let tenants: Vec<TenantId> = store.dump().iter().map(|(t, _)| *t).collect();
        assert_eq!(tenants, vec![1, 2]);
        assert_eq!(
            store.with(3, |_| ()).unwrap_err(),
            ServeError::UnknownTenant(3)
        );
    }

    #[test]
    fn sessions_spread_across_shards() {
        let store = SessionStore::new(8);
        for t in 0..64 {
            store.insert(t, session()).unwrap();
        }
        let occupied = (0..8)
            .filter(|&i| {
                store.shards[i]
                    .lock()
                    .map(|s| !s.sessions.is_empty())
                    .unwrap_or(false)
            })
            .count();
        assert!(occupied >= 6, "64 tenants landed in only {occupied} shards");
        assert_eq!(store.len(), 64);
    }

    #[test]
    fn fold_visits_in_sorted_order() {
        let store = SessionStore::new(3);
        for t in [9, 2, 17, 4] {
            store.insert(t, session()).unwrap();
        }
        let order = store.fold(Vec::new(), |mut acc, t, _| {
            acc.push(t);
            acc
        });
        assert_eq!(order, vec![2, 4, 9, 17]);
    }

    #[test]
    fn fold_merges_uneven_and_empty_shards_in_sorted_order() {
        // more shards than tenants leaves some empty; many tenants per
        // shard exercises the merge past each shard's first head
        for shards in [1, 2, 7, 64] {
            let store = SessionStore::new(shards);
            let mut expected: Vec<TenantId> = (0..40).map(|t| mix64(t) % 1000).collect();
            expected.sort_unstable();
            expected.dedup();
            for &t in expected.iter().rev() {
                store.insert(t, session()).unwrap();
            }
            let order = store.fold(Vec::new(), |mut acc, t, _| {
                acc.push(t);
                acc
            });
            assert_eq!(order, expected, "{shards} shards");
            let dumped: Vec<TenantId> = store.dump().iter().map(|(t, _)| *t).collect();
            assert_eq!(dumped, expected);
        }
        assert_eq!(SessionStore::new(3).fold(0, |n, _, _| n + 1), 0);
    }

    #[test]
    fn concurrent_updates_are_all_counted() {
        let store = SessionStore::new(8);
        for t in 0..32 {
            store.insert(t, session()).unwrap();
        }
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let store = &store;
                scope.spawn(move || {
                    for round in 0..100 {
                        let tenant = (worker * 7 + round) % 32;
                        store.with(tenant, |s| s.requests += 1).unwrap();
                    }
                });
            }
        });
        let total = store.fold(0u64, |acc, _, s| acc + s.requests);
        assert_eq!(total, 400);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = SessionStore::new(0);
    }

    #[test]
    fn dump_and_recover_round_trip() {
        let store = SessionStore::new(4);
        for t in [5, 1, 9] {
            store.insert(t, session()).unwrap();
        }
        store.with(9, |s| s.requests = 42).unwrap();
        let dump = store.dump();
        assert_eq!(
            dump.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            vec![1, 5, 9],
            "dump is sorted"
        );
        let recovered = SessionStore::recover(4, dump);
        assert_eq!(recovered.len(), store.len());
        assert_eq!(recovered.with(9, |s| s.requests).unwrap(), 42);
    }

    #[test]
    fn dump_is_shared_until_the_store_writes() {
        let store = SessionStore::new(2);
        for t in [1, 2] {
            store.insert(t, session()).unwrap();
        }
        let dump = store.dump();
        store.with(2, |s| s.requests = 7).unwrap();
        let after = store.dump();
        assert!(Arc::ptr_eq(&dump[0].1, &after[0].1), "untouched: shared");
        assert!(!Arc::ptr_eq(&dump[1].1, &after[1].1), "written: copied");
        assert_eq!(dump[1].1.requests, 0, "the dump never changes");
        assert_eq!(after[1].1.requests, 7);
        // a store recovered from the dump adopts its sessions as they
        // are, and copies before it writes too
        let recovered = SessionStore::recover(2, dump.clone());
        assert!(Arc::ptr_eq(&dump[0].1, &recovered.dump()[0].1));
        recovered.with(1, |s| s.requests = 9).unwrap();
        assert_eq!(dump[0].1.requests, 0);
        assert_eq!(store.with(1, |s| s.requests).unwrap(), 0);
    }

    /// `kept` holds exactly the store's `Arc`s, in dump order.
    fn assert_current(store: &SessionStore, kept: &[(TenantId, Arc<Session>)]) {
        let dump = store.dump();
        assert_eq!(
            kept.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            dump.iter().map(|(t, _)| *t).collect::<Vec<_>>()
        );
        for ((tenant, kept), (_, now)) in kept.iter().zip(&dump) {
            assert!(Arc::ptr_eq(kept, now), "tenant {tenant}");
        }
    }

    /// Whether any shard keeps a written list.
    fn records(store: &SessionStore) -> bool {
        store
            .shards
            .iter()
            .any(|s| s.lock().unwrap().written.is_some())
    }

    #[test]
    fn refresh_swaps_in_what_was_written_and_nothing_else() {
        // a store nobody refreshed records nothing; its first refresh
        // takes every session
        let store = SessionStore::new(3);
        for t in [4, 1, 9] {
            store.insert(t, session()).unwrap();
        }
        store.with(4, |s| s.requests = 0).unwrap();
        assert!(!records(&store));
        let mut kept = Vec::new();
        store.refresh(&mut kept);
        assert_current(&store, &kept);
        assert!(records(&store));

        // a write copies and records; a read does neither; new tenants
        // land before, between and after the kept ones
        let before = kept.clone();
        store.with(9, |s| s.requests = 1).unwrap();
        assert_eq!(store.read(1, |s| s.requests).unwrap(), 0);
        for t in [12, 0, 5] {
            store.insert(t, session()).unwrap();
        }
        store.refresh(&mut kept);
        assert_current(&store, &kept);
        let entry = |dump: &[(TenantId, Arc<Session>)], t: TenantId| {
            Arc::clone(&dump.iter().find(|(other, _)| *other == t).unwrap().1)
        };
        for t in [1, 4] {
            assert!(Arc::ptr_eq(&entry(&before, t), &entry(&kept, t)), "{t}");
        }
        assert!(!Arc::ptr_eq(&entry(&before, 9), &entry(&kept, 9)));
        assert_eq!(entry(&before, 9).requests, 0, "the old cut never changes");

        // a tenant copied twice, once more for a dump held elsewhere,
        // is swapped in once; a refresh with nothing written is a no-op
        let elsewhere = store.dump();
        store.with(4, |s| s.requests = 2).unwrap();
        let again = store.dump();
        store.with(4, |s| s.requests = 3).unwrap();
        store.refresh(&mut kept);
        assert_current(&store, &kept);
        assert_eq!(entry(&kept, 4).requests, 3);
        drop((elsewhere, again));
        let settled = kept.clone();
        store.refresh(&mut kept);
        assert_current(&store, &settled);

        // a store recovered from a dump refreshes from that dump
        let recovered = SessionStore::recover(2, settled.clone());
        recovered.with(5, |s| s.requests = 4).unwrap();
        let mut from = settled.clone();
        recovered.refresh(&mut from);
        assert_current(&recovered, &from);
        for ((tenant, then), (_, now)) in settled.iter().zip(&from) {
            assert_eq!(Arc::ptr_eq(then, now), *tenant != 5, "{tenant}");
        }
        assert_eq!(
            store.with(3, |_| ()).unwrap_err(),
            ServeError::UnknownTenant(3)
        );
        assert_eq!(
            store.read(3, |_| ()).unwrap_err(),
            ServeError::UnknownTenant(3)
        );
    }

    #[test]
    #[should_panic(expected = "tenant 5 appears twice")]
    fn recover_rejects_a_duplicate_tenant() {
        let twice = vec![(5, Arc::new(session())), (5, Arc::new(session()))];
        let _ = SessionStore::recover(4, twice);
    }

    fn level(l: i64) -> Configuration {
        let mut c = Configuration::new();
        c.set("level", KnobValue::Int(l));
        c
    }

    fn point(config: Configuration, latency: f64, energy: f64) -> OperatingPoint {
        OperatingPoint::new(
            config,
            [
                ("latency".to_string(), latency),
                ("energy".to_string(), energy),
            ],
        )
    }

    /// A manager minimising latency under an energy bound.
    fn manager(base: &Arc<KnowledgeBase>, energy_at_most: f64) -> AppManager {
        let mut manager = AppManager::new(Arc::clone(base), Objective::minimize("latency"));
        manager.add_constraint(Constraint::at_most("energy", energy_at_most));
        manager
    }

    #[test]
    fn a_selection_shares_the_knowledge_points_configuration() {
        let base = Arc::new(KnowledgeBase::from_iter([
            point(level(1), 0.3, 1.0),
            point(level(2), 0.2, 2.0),
        ]));
        let mut session = Session::new(manager(&base, 1.5), vec![0.5]);
        let first = session.select().unwrap();
        let current = session.manager.current().unwrap();
        assert!(Arc::ptr_eq(&first.0.config, current));
        assert!(Arc::ptr_eq(&first.0.config, &base.points()[0].config));
        let again = session.select().unwrap();
        assert!(
            Arc::ptr_eq(&first.0, &again.0),
            "a current selection is kept"
        );

        // a switch builds a selection around the new point's `Arc`
        assert!(session.manager.set_constraint_bound("energy", 3.0));
        let switched = session.select().unwrap();
        assert!(Arc::ptr_eq(
            &switched.0.config,
            session.manager.current().unwrap()
        ));
        assert!(Arc::ptr_eq(&switched.0.config, &base.points()[1].config));
        assert_eq!(switched.get_int("level"), Some(2));
    }

    #[test]
    fn an_equal_configuration_at_another_point_keeps_the_selection() {
        // points 0 and 2 hold equal configurations in separate `Arc`s
        let base = Arc::new(KnowledgeBase::from_iter([
            point(level(1), 0.3, 1.0),
            point(level(2), 0.25, 4.0),
            point(level(1), 0.2, 2.0),
        ]));
        let mut session = Session::new(manager(&base, 1.5), vec![0.5]);
        let kept = session.select().unwrap();
        assert!(Arc::ptr_eq(&kept.0.config, &base.points()[0].config));

        // a manager that deploys point 2 hands out the other `Arc`: the
        // value-equality fallback keeps the selection, key and all
        session.manager = manager(&base, 3.0);
        let deployed = Arc::clone(session.manager.select().unwrap());
        assert!(Arc::ptr_eq(&deployed, &base.points()[2].config));
        assert!(!Arc::ptr_eq(&deployed, &kept.0.config));
        let reused = session.select().unwrap();
        assert!(Arc::ptr_eq(&reused.0, &kept.0), "not rebuilt");

        // and back to point 0, still without a rebuild
        session.manager = manager(&base, 1.5);
        assert!(Arc::ptr_eq(&session.select().unwrap().0, &kept.0));

        // new features do rebuild it, around the deployed `Arc`
        session.features = vec![0.75];
        let rebuilt = session.select().unwrap();
        assert!(!Arc::ptr_eq(&rebuilt.0, &kept.0));
        assert!(Arc::ptr_eq(
            &rebuilt.0.config,
            session.manager.current().unwrap()
        ));
    }

    #[test]
    fn a_selection_derives_what_the_key_and_the_seed_derive() {
        let mut rng = StdRng::seed_from_u64(2016);
        let float = |rng: &mut StdRng| match rng.gen_range(0..6) {
            0 => f64::NAN,
            1 => -0.0,
            2 => 0.0,
            3 => f64::INFINITY,
            _ => rng.gen_range(-1e3..1e3),
        };
        for _ in 0..500 {
            let mut config = Configuration::new();
            for knob in 0..rng.gen_range(0..5) {
                let value = match rng.gen_range(0..3) {
                    0 => KnobValue::Int(rng.gen_range(-50..50)),
                    1 => KnobValue::Float(float(&mut rng)),
                    _ => KnobValue::Choice(format!("variant{}", rng.gen_range(0..4))),
                };
                config.set(format!("knob{knob}"), value);
            }
            let features: Vec<f64> = (0..rng.gen_range(0..4)).map(|_| float(&mut rng)).collect();
            let shared = Arc::new(config);
            let selection = Selection::new(&shared, &features);
            assert!(Arc::ptr_eq(&selection.0.config, &shared));
            assert_eq!(*selection.key(), DesignKey::new(&shared, &features));
            assert_eq!(selection.seed(), probe_seed(&shared, &features));
            assert!(selection.is_current(&shared, &features));
        }
    }
}
