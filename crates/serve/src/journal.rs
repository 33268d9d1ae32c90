//! Crash-recoverable sessions: write-ahead journal, snapshots, replay.
//!
//! The serving tier's state — per-tenant managers with their learned
//! knowledge, the design-point cache, the circuit breakers — lives in
//! memory. A service crash would lose every tenant's online learning.
//! This module models the persistent side of the story:
//!
//! * every state mutation the service performs is first appended to a
//!   **write-ahead [`Journal`]** as a [`JournalEntry`] delta, sharded
//!   by tenant (cache deltas by key) with a global sequence number so
//!   replay has a total order;
//! * on a Daly-informed cadence (from
//!   [`antarex_rtrm::checkpoint::daly_interval_s`]) the service takes a
//!   [`Snapshot`] — every session shared with the store until the
//!   store next writes to it, plus copies of the cache entries and
//!   breaker states — and compacts the journal up to it;
//! * after a crash, [`replay`] applies the journal suffix on top of
//!   the last snapshot. Because every mutating call
//!   (`select`/`observe`/`adapt`, breaker transitions, cache fills) is
//!   deterministic and the journal preserves program order, the
//!   recovered state is **bit-identical** to the pre-crash state — the
//!   property the `r2` chaos experiment checks end to end.
//!
//! **A snapshot is immutable: the store copies before it writes.**
//! Sessions are `Arc`-shared between the [`SessionStore`] and the
//! snapshot; [`SessionStore::with`] deep-copies a shared session on its
//! first write after the checkpoint and never writes through, and
//! records the tenant as written. The service keeps its last snapshot
//! and cuts the next one by refreshing it in place: only the written
//! tenants' entries are replaced, so neither the cut nor the drop of
//! what it supersedes walks a clean session. A checkpoint costs one
//! session copy per tenant a request wrote to since the last one, and
//! that entry's swap at the cut — resilience paid in proportion to the
//! state that changed. [`take_snapshot`] cuts the same snapshot from
//! scratch.
//!
//! The journal lives in memory here (the simulator has no disk), but
//! the contract is exactly a WAL's: entries are durable the moment
//! they are appended, snapshots are atomic, and recovery = snapshot +
//! ordered suffix.

use crate::admission::{AdmissionController, TenantAdmission};
use crate::autoscale::{Autoscaler, AutoscalerState};
use crate::breaker::{BreakerBank, CircuitBreaker};
use crate::cache::{DesignKey, DesignPointCache, Metrics};
use crate::store::{mix64, Selection, Session, SessionStore, TenantClass, TenantId};
use antarex_tuner::manager::AppManager;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One durable state delta of the serving tier.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEntry {
    /// A tenant registered with its workload features. The manager is
    /// not journaled: registration-time managers are reproducible from
    /// the tenant id (the `make_manager` factory handed to [`replay`]).
    Register {
        /// The new tenant.
        tenant: TenantId,
        /// Its workload features.
        features: Vec<f64>,
        /// Its workload class (its metric bucket).
        class: TenantClass,
    },
    /// The tenant's manager ran one `select()` during request
    /// admission (deploys/updates its current configuration).
    Select {
        /// The selecting tenant.
        tenant: TenantId,
    },
    /// The tenant's breaker admitted a request at the time (replayed so
    /// open → half-open transitions happen at identical instants).
    BreakerAllow {
        /// The admitted tenant.
        tenant: TenantId,
        /// Virtual admission time, seconds.
        time_s: f64,
    },
    /// A request was answered: session bookkeeping plus one
    /// `observe()` per metric, and breaker success feedback.
    Learn {
        /// The answered tenant.
        tenant: TenantId,
        /// Virtual arrival time of the request, seconds.
        time_s: f64,
        /// The configuration that answered it (the session's selection,
        /// shared with the response).
        config: Selection,
        /// The measured (or cached) metrics fed to the monitors.
        metrics: Metrics,
    },
    /// A request failed for a known tenant: rejection bookkeeping, and
    /// breaker failure feedback when the error was a worker fault.
    Reject {
        /// The rejected tenant.
        tenant: TenantId,
        /// Virtual arrival time of the request, seconds.
        time_s: f64,
        /// Whether the failure counts against the tenant's breaker
        /// (worker crash / deadline — not shed, not contract errors).
        breaker_feedback: bool,
    },
    /// The tenant ran one adaptation round at the batch end.
    Adapt {
        /// The adapting tenant.
        tenant: TenantId,
        /// Virtual adaptation time, seconds.
        now_s: f64,
    },
    /// A verified design point landed in the cache.
    CacheInsert {
        /// The design point.
        key: DesignKey,
        /// Its metrics.
        metrics: Metrics,
    },
    /// A design point was quarantined (failed or corrupted evaluation).
    Quarantine {
        /// The evicted design point.
        key: DesignKey,
    },
    /// One admission-controller feedback window for a tenant: the
    /// batch's SLO check/violation tally at the batch end time. Replay
    /// calls the exact `update` the live path called, so EWMA burns
    /// and tier transitions recover bit-identically.
    AdmissionUpdate {
        /// The tenant whose burn was updated.
        tenant: TenantId,
        /// Virtual batch end time of the window, seconds.
        time_s: f64,
        /// SLO checks the window produced for this tenant.
        checked: u64,
        /// How many of them violated (or were degraded probe demand).
        violations: u64,
    },
    /// The autoscaler resized the pool's virtual capacity.
    Scale {
        /// Virtual decision time, seconds.
        time_s: f64,
        /// The new virtual worker capacity.
        workers: usize,
    },
}

impl JournalEntry {
    /// The 64-bit routing hash that picks this entry's journal shard.
    fn route(&self) -> u64 {
        match self {
            JournalEntry::Register { tenant, .. }
            | JournalEntry::Select { tenant }
            | JournalEntry::BreakerAllow { tenant, .. }
            | JournalEntry::Learn { tenant, .. }
            | JournalEntry::Reject { tenant, .. }
            | JournalEntry::Adapt { tenant, .. }
            | JournalEntry::AdmissionUpdate { tenant, .. } => mix64(*tenant),
            JournalEntry::CacheInsert { key, .. } | JournalEntry::Quarantine { key } => key.seed(),
            // capacity is global state: all scale decisions share one
            // shard (ordering still comes from the global sequence)
            JournalEntry::Scale { .. } => mix64(u64::MAX),
        }
    }
}

/// The sharded write-ahead journal. Entries append to the shard of
/// their tenant (or cache key) under that shard's lock; a global atomic
/// sequence number gives replay a total order across shards.
#[derive(Debug)]
pub struct Journal {
    shards: Vec<Mutex<Vec<(u64, JournalEntry)>>>,
    seq: AtomicU64,
}

impl Journal {
    /// An empty journal with the given shard count.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "journal needs at least one shard");
        Journal {
            shards: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            seq: AtomicU64::new(0),
        }
    }

    fn lock(&self, index: usize) -> std::sync::MutexGuard<'_, Vec<(u64, JournalEntry)>> {
        crate::lock_or_recover(&self.shards[index])
    }

    /// Appends one delta; returns its sequence number.
    pub fn append(&self, entry: JournalEntry) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let shard = (entry.route() % self.shards.len() as u64) as usize;
        self.lock(shard).push((seq, entry));
        seq
    }

    /// The sequence number the *next* append will get — the compaction
    /// watermark a snapshot records.
    pub(crate) fn next_seq(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// All pending entries merged back into append order.
    pub(crate) fn entries_in_order(&self) -> Vec<JournalEntry> {
        let mut all: Vec<(u64, JournalEntry)> = Vec::new();
        for i in 0..self.shards.len() {
            all.extend(self.lock(i).iter().cloned());
        }
        all.sort_by_key(|(seq, _)| *seq);
        all.into_iter().map(|(_, entry)| entry).collect()
    }

    /// Drops every entry with a sequence number below `through_seq` —
    /// they are covered by a snapshot now.
    pub(crate) fn compact(&self, through_seq: u64) {
        for i in 0..self.shards.len() {
            self.lock(i).retain(|(seq, _)| *seq >= through_seq);
        }
    }
}

/// One atomic checkpoint of the full serving state. Cloning one shares
/// its sessions rather than copying them.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Virtual time the snapshot was taken, seconds.
    pub at_s: f64,
    /// Journal watermark: entries with `seq < through_seq` are covered.
    pub through_seq: u64,
    /// Every tenant session as of the checkpoint, sorted by tenant id.
    /// Shared with the store that was dumped (and with any store
    /// recovered from this snapshot) until that store writes to the
    /// session, which copies it first.
    pub sessions: Vec<(TenantId, Arc<Session>)>,
    /// Every cached design point, sorted by key.
    pub cache: Vec<(DesignKey, Metrics)>,
    /// Every tenant's circuit breaker, sorted by tenant id.
    pub breakers: Vec<(TenantId, CircuitBreaker)>,
    /// Every tenant's admission state, sorted by tenant id (empty
    /// when the service runs without a front door).
    pub admission: Vec<(TenantId, TenantAdmission)>,
    /// The autoscaler's state (`None` without a front door).
    pub autoscaler: Option<AutoscalerState>,
}

/// Captures a snapshot of the serving state at virtual time `at_s`.
/// Sessions are shared with `store`, not copied
/// ([`SessionStore::dump`]); cache entries, breakers and front-door
/// state are copied. `front_door` carries the admission controller and
/// autoscaler when the service runs one.
pub fn take_snapshot(
    at_s: f64,
    journal: &Journal,
    store: &SessionStore,
    cache: &DesignPointCache,
    breakers: &BreakerBank,
    front_door: Option<(&AdmissionController, &Autoscaler)>,
) -> Snapshot {
    cut(at_s, journal, || store.dump(), cache, breakers, front_door)
}

/// The snapshot [`take_snapshot`] would cut now, made from `previous`
/// — the last snapshot this function returned for `store`, the one
/// `store` was recovered from, or `None` for a new store — by
/// refreshing its sessions in place ([`SessionStore::refresh`]).
/// `previous` is consumed: its sessions are reused, the rest is cut
/// afresh.
pub(crate) fn refresh_snapshot(
    previous: Option<Snapshot>,
    at_s: f64,
    journal: &Journal,
    store: &SessionStore,
    cache: &DesignPointCache,
    breakers: &BreakerBank,
    front_door: Option<(&AdmissionController, &Autoscaler)>,
) -> Snapshot {
    let mut sessions = previous.map(|snap| snap.sessions).unwrap_or_default();
    let refreshed = || {
        store.refresh(&mut sessions);
        sessions
    };
    cut(at_s, journal, refreshed, cache, breakers, front_door)
}

/// A snapshot whose sessions come from `sessions`, taken after the
/// journal watermark is read.
fn cut(
    at_s: f64,
    journal: &Journal,
    sessions: impl FnOnce() -> Vec<(TenantId, Arc<Session>)>,
    cache: &DesignPointCache,
    breakers: &BreakerBank,
    front_door: Option<(&AdmissionController, &Autoscaler)>,
) -> Snapshot {
    Snapshot {
        at_s,
        through_seq: journal.next_seq(),
        sessions: sessions(),
        cache: cache.entries(),
        breakers: breakers.snapshot(),
        admission: front_door
            .map(|(admission, _)| admission.snapshot())
            .unwrap_or_default(),
        autoscaler: front_door.map(|(_, autoscaler)| autoscaler.snapshot()),
    }
}

/// What each journaled delta *does*, written once. The live batch
/// stages call these functions and then append the entry; [`replay`]'s
/// arms call the same functions with the entry's fields. The deltas
/// that are a single method of the state they change need no function
/// here, for the same reason: both sides call that method
/// ([`DesignPointCache::insert`] and [`DesignPointCache::quarantine`],
/// [`AdmissionController::update`]; [`Autoscaler::decide`] and
/// [`Autoscaler::force`] commit through one private body).
pub(crate) mod apply {
    use super::{BreakerBank, Metrics, Selection, SessionStore, TenantClass, TenantId};
    use crate::error::ServeError;

    /// `Select`: the tenant's manager deploys its best feasible
    /// operating point, and the session's kept selection follows it
    /// ([`Session::select`](crate::store::Session)). `Err` means
    /// `select()` did not run (unknown tenant, empty knowledge) and
    /// nothing is journaled; `Ok(None)` means it ran and found the SLA
    /// infeasible.
    pub(crate) fn select(
        store: &SessionStore,
        tenant: TenantId,
    ) -> Result<Option<(Selection, TenantClass)>, ServeError> {
        store.with(tenant, |session| {
            if session.manager.knowledge().is_empty() {
                return Err(ServeError::EmptyKnowledge(tenant));
            }
            Ok(session.select().map(|selection| (selection, session.class)))
        })?
    }

    /// `BreakerAllow`: the tenant's breaker is asked to admit a request
    /// at `time_s` (an open breaker past its cooldown goes half-open).
    /// Journaled only when it said yes.
    pub(crate) fn breaker_allow(breakers: &BreakerBank, tenant: TenantId, time_s: f64) -> bool {
        breakers.with(tenant, |b| b.allow(time_s))
    }

    /// `Learn`: session bookkeeping, one `observe()` per metric, and
    /// breaker success feedback when breakers are live. The session
    /// keeps the answering selection itself, a reference-count bump.
    /// On a cache hit the answering selection is the one the session
    /// already keeps: replacing it with itself would change nothing (a
    /// NaN knob included, which the value comparison calls unequal), so
    /// the pointer test skips the comparison.
    pub(crate) fn learn(
        store: &SessionStore,
        breakers: &BreakerBank,
        tenant: TenantId,
        time_s: f64,
        config: &Selection,
        metrics: &Metrics,
    ) {
        let _ = store.with(tenant, |session| {
            session.requests += 1;
            let kept = session.last_config.as_ref();
            if !kept.is_some_and(|last| last.ptr_eq(config)) && kept != Some(config) {
                session.last_config = Some(config.clone());
            }
            session.power_demand_w = metrics.get("power").copied().unwrap_or(0.0);
            for (metric, value) in metrics {
                session.manager.observe(time_s, metric, *value);
            }
        });
        if breakers.enabled() {
            breakers.with(tenant, |b| b.on_success(time_s));
        }
    }

    /// `Reject`: breaker failure feedback when the error earned it,
    /// then rejection bookkeeping. Returns whether the tenant is known
    /// — an unknown tenant's rejection leaves no state and no entry.
    pub(crate) fn reject(
        store: &SessionStore,
        breakers: &BreakerBank,
        tenant: TenantId,
        time_s: f64,
        breaker_feedback: bool,
    ) -> bool {
        if breaker_feedback {
            breakers.with(tenant, |b| b.on_failure(time_s));
        }
        store
            .with(tenant, |session| {
                session.rejected += 1;
            })
            .is_ok()
    }

    /// `Adapt`: one adaptation round of the tenant's manager.
    pub(crate) fn adapt(store: &SessionStore, tenant: TenantId, now_s: f64) {
        let _ = store.with(tenant, |session| {
            session.manager.adapt(now_s);
        });
    }
}

/// Replays a journal suffix onto (already snapshot-restored) state.
///
/// Entries must be in append order. `make_manager` rebuilds the
/// registration-time manager of tenants whose `Register` landed after
/// the snapshot — it must be the same deterministic factory the
/// original registration used. `front_door` receives admission and
/// scaling entries; a service without one ignores them.
///
/// The arms are not copies of the live path: each one calls the very
/// function the batch stage that journaled the entry called, so replay
/// is bit-identical to the original execution by construction.
pub fn replay<F>(
    entries: &[JournalEntry],
    store: &SessionStore,
    cache: &DesignPointCache,
    breakers: &BreakerBank,
    front_door: Option<(&AdmissionController, &Autoscaler)>,
    make_manager: &F,
) where
    F: Fn(TenantId) -> AppManager,
{
    for entry in entries {
        match entry {
            JournalEntry::Register {
                tenant,
                features,
                class,
            } => {
                let _ = store.insert(
                    *tenant,
                    Session::classed(make_manager(*tenant), features.clone(), *class),
                );
            }
            JournalEntry::Select { tenant } => {
                let _ = apply::select(store, *tenant);
            }
            JournalEntry::BreakerAllow { tenant, time_s } => {
                apply::breaker_allow(breakers, *tenant, *time_s);
            }
            JournalEntry::Learn {
                tenant,
                time_s,
                config,
                metrics,
            } => apply::learn(store, breakers, *tenant, *time_s, config, metrics),
            JournalEntry::Reject {
                tenant,
                time_s,
                breaker_feedback,
            } => {
                apply::reject(store, breakers, *tenant, *time_s, *breaker_feedback);
            }
            JournalEntry::Adapt { tenant, now_s } => apply::adapt(store, *tenant, *now_s),
            JournalEntry::CacheInsert { key, metrics } => {
                cache.insert(key.clone(), metrics.clone());
            }
            JournalEntry::Quarantine { key } => cache.quarantine(key),
            JournalEntry::AdmissionUpdate {
                tenant,
                time_s,
                checked,
                violations,
            } => {
                if let Some((admission, _)) = front_door {
                    let _ = admission.update(*tenant, *time_s, *checked, *violations);
                }
            }
            JournalEntry::Scale { time_s, workers } => {
                if let Some((_, autoscaler)) = front_door {
                    autoscaler.force(*time_s, *workers);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerConfig;
    use antarex_tuner::goal::{Constraint, Objective};
    use antarex_tuner::{Configuration, KnobValue, KnowledgeBase, OperatingPoint};

    fn kb() -> KnowledgeBase {
        (1..=3)
            .map(|l| {
                let mut c = Configuration::new();
                c.set("level", KnobValue::Int(l));
                OperatingPoint::new(
                    c,
                    [
                        ("latency".to_string(), 0.1 * l as f64),
                        ("power".to_string(), 10.0 * l as f64),
                    ],
                )
            })
            .collect()
    }

    fn make_manager(_tenant: TenantId) -> AppManager {
        let mut m = AppManager::new(kb(), Objective::minimize("latency"));
        m.add_constraint(Constraint::at_most("latency", 0.5));
        m
    }

    fn level(l: i64) -> Configuration {
        let mut c = Configuration::new();
        c.set("level", KnobValue::Int(l));
        c
    }

    fn metrics(latency: f64) -> Metrics {
        [
            ("latency".to_string(), latency),
            ("power".to_string(), 11.0),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn entries_merge_back_in_append_order() {
        let journal = Journal::new(4);
        let script = vec![
            JournalEntry::Register {
                tenant: 3,
                features: vec![1.0],
                class: TenantClass::Generic,
            },
            JournalEntry::Select { tenant: 3 },
            JournalEntry::CacheInsert {
                key: DesignKey::new(&level(1), &[1.0]),
                metrics: metrics(0.1),
            },
            JournalEntry::Learn {
                tenant: 3,
                time_s: 2.0,
                config: Selection::new(&Arc::new(level(1)), &[1.0]),
                metrics: metrics(0.1),
            },
            JournalEntry::Adapt {
                tenant: 3,
                now_s: 2.0,
            },
        ];
        for entry in &script {
            journal.append(entry.clone());
        }
        assert_eq!(journal.entries_in_order(), script);
    }

    #[test]
    fn compaction_drops_only_covered_entries() {
        let journal = Journal::new(2);
        journal.append(JournalEntry::Select { tenant: 1 });
        journal.append(JournalEntry::Select { tenant: 2 });
        let watermark = journal.next_seq();
        journal.append(JournalEntry::Select { tenant: 3 });
        journal.compact(watermark);
        assert_eq!(
            journal.entries_in_order(),
            vec![JournalEntry::Select { tenant: 3 }]
        );
    }

    #[test]
    fn replay_reproduces_direct_execution() {
        // execute a small script directly...
        let direct_store = SessionStore::new(4);
        let direct_cache = DesignPointCache::new(4);
        let direct_breakers = BreakerBank::new(BreakerConfig::hardened());
        let journal = Journal::new(4);

        let run = |entry: JournalEntry| {
            journal.append(entry.clone());
            replay(
                &[entry],
                &direct_store,
                &direct_cache,
                &direct_breakers,
                None,
                &make_manager,
            );
        };
        run(JournalEntry::Register {
            tenant: 7,
            features: vec![2.0],
            class: TenantClass::Docking,
        });
        run(JournalEntry::Select { tenant: 7 });
        run(JournalEntry::Learn {
            tenant: 7,
            time_s: 1.5,
            config: Selection::new(&Arc::new(level(1)), &[2.0]),
            metrics: metrics(0.12),
        });
        run(JournalEntry::Reject {
            tenant: 7,
            time_s: 2.0,
            breaker_feedback: true,
        });
        run(JournalEntry::Adapt {
            tenant: 7,
            now_s: 2.5,
        });

        // ...then recover from the journal alone
        let recovered_store = SessionStore::new(4);
        let recovered_cache = DesignPointCache::new(4);
        let recovered_breakers = BreakerBank::new(BreakerConfig::hardened());
        replay(
            &journal.entries_in_order(),
            &recovered_store,
            &recovered_cache,
            &recovered_breakers,
            None,
            &make_manager,
        );

        let fingerprint = |store: &SessionStore, breakers: &BreakerBank| {
            let sessions = store.fold(String::new(), |mut acc, t, s| {
                acc.push_str(&format!(
                    "{t}:{}:{}:{:.6}:{:?};",
                    s.requests, s.rejected, s.power_demand_w, s.manager
                ));
                acc
            });
            let banks: Vec<String> = breakers
                .snapshot()
                .iter()
                .map(|(t, b)| format!("{t}:{}", b.state_label()))
                .collect();
            format!("{sessions}|{}", banks.join(","))
        };
        assert_eq!(
            fingerprint(&direct_store, &direct_breakers),
            fingerprint(&recovered_store, &recovered_breakers),
            "replayed state must be bit-identical"
        );
    }

    #[test]
    fn snapshot_plus_suffix_recovers_cache_and_breakers() {
        let store = SessionStore::new(2);
        let cache = DesignPointCache::new(2);
        let breakers = BreakerBank::new(BreakerConfig::hardened());
        let journal = Journal::new(2);

        let early = JournalEntry::CacheInsert {
            key: DesignKey::new(&level(1), &[1.0]),
            metrics: metrics(0.1),
        };
        journal.append(early.clone());
        replay(&[early], &store, &cache, &breakers, None, &make_manager);

        let snapshot = take_snapshot(10.0, &journal, &store, &cache, &breakers, None);
        journal.compact(snapshot.through_seq);
        assert!(journal.entries_in_order().is_empty());

        let late = JournalEntry::CacheInsert {
            key: DesignKey::new(&level(2), &[1.0]),
            metrics: metrics(0.2),
        };
        journal.append(late.clone());
        replay(&[late], &store, &cache, &breakers, None, &make_manager);

        // recover: snapshot first, then the suffix
        let r_store = SessionStore::new(2);
        let r_cache = DesignPointCache::new(2);
        let r_breakers = BreakerBank::new(BreakerConfig::hardened());
        for (key, m) in &snapshot.cache {
            r_cache.insert(key.clone(), m.clone());
        }
        r_breakers.restore(&snapshot.breakers);
        replay(
            &journal.entries_in_order(),
            &r_store,
            &r_cache,
            &r_breakers,
            None,
            &make_manager,
        );
        assert_eq!(r_cache.entries(), cache.entries());
    }

    #[test]
    fn quarantine_replays_as_eviction() {
        let store = SessionStore::new(1);
        let cache = DesignPointCache::new(1);
        let breakers = BreakerBank::new(BreakerConfig::disabled());
        let key = DesignKey::new(&level(1), &[3.0]);
        replay(
            &[
                JournalEntry::CacheInsert {
                    key: key.clone(),
                    metrics: metrics(0.3),
                },
                JournalEntry::Quarantine { key: key.clone() },
            ],
            &store,
            &cache,
            &breakers,
            None,
            &make_manager,
        );
        assert!(cache.entries().is_empty());
        assert_eq!(cache.quarantined(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = Journal::new(0);
    }
}
