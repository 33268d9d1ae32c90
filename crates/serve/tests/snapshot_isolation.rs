//! Property suite for copy-on-write session snapshots.
//!
//! A [`Snapshot`] shares every session with the store it was cut from,
//! and the store copies a session before its first write after the cut.
//! Two contracts follow, and both are checked over random seeds on a
//! journaled campaign with chaos, breakers and the front door on:
//!
//! * **A snapshot is immutable.** An *eager deep copy* of the store —
//!   the pre-copy-on-write snapshot, kept here as the test-only oracle —
//!   taken at the moment a snapshot is cut must still `Debug`-render
//!   byte-identically to that snapshot after any number of later
//!   batches; tenants that sent no later request stay pointer-shared,
//!   tenants that sent one are copied.
//! * **The refreshed snapshot is the full dump.** The service cuts
//!   each Daly snapshot by refreshing the one it kept, swapping in only
//!   the sessions written since. At every Daly batch the snapshot it
//!   keeps renders byte-identically to a full [`take_snapshot`] of an
//!   identical service, and a tenant no request reached since the
//!   previous cut keeps the previous cut's very `Arc`.
//! * **Recovery is exact at every batch boundary.** `recover(snapshot,
//!   suffix)` from a crash after any batch — before the first snapshot,
//!   exactly on a snapshot batch, or anywhere between two — continues
//!   to the uninterrupted run's `state_report()`, although the snapshot
//!   it recovers from was retained while later batches wrote to the
//!   store it shares sessions with.

use antarex_serve::chaos::ChaosConfig;
use antarex_serve::journal::{take_snapshot, Journal};
use antarex_serve::pool::Evaluation;
use antarex_serve::store::{Session, TenantId};
use antarex_serve::{
    FrontDoorConfig, JournalEntry, ResilienceConfig, ServiceConfig, Snapshot, TuningRequest,
    TuningService,
};
use antarex_sim::faults::{FaultConfig, FaultSchedule};
use antarex_tuner::goal::{Constraint, Objective};
use antarex_tuner::{AppManager, Configuration, KnobValue, KnowledgeBase, OperatingPoint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The tenant whose probes chaos corrupts: its windows burn, so its
/// breaker trips and the front door degrades and sheds it.
const POISONED: TenantId = 2;

/// Batches per campaign, one per 5 s window: the hardened Daly interval
/// (≈ 16.8 s) cuts a snapshot on about every fourth.
const BATCHES: usize = 14;

fn factory(_tenant: TenantId) -> AppManager {
    let kb: KnowledgeBase = (1..=4)
        .map(|level| {
            let mut config = Configuration::new();
            config.set("level", KnobValue::Int(level));
            OperatingPoint::new(
                config,
                [
                    ("latency".to_string(), 0.1 * level as f64),
                    ("quality".to_string(), level as f64),
                    ("power".to_string(), 10.0 * level as f64),
                ],
            )
        })
        .collect();
    let mut manager = AppManager::new(kb, Objective::maximize("quality"));
    manager.add_constraint(Constraint::at_most("latency", 0.45));
    manager
}

fn probe(config: &Configuration, features: &[f64]) -> Evaluation {
    let level = config.get_int("level").unwrap_or(1) as f64;
    let latency = 0.1 * level * features.first().copied().unwrap_or(1.0);
    Evaluation {
        metrics: [
            ("latency".to_string(), latency),
            ("quality".to_string(), level.sqrt()),
            ("power".to_string(), 10.0 * level),
        ]
        .into_iter()
        .collect(),
        cost_s: latency,
        energy_j: 10.0 * level * latency,
    }
}

type Probe = fn(&Configuration, &[f64]) -> Evaluation;

/// One seed's campaign: the tenant count and, per window, the random
/// subset of tenants that sends a request.
struct Campaign {
    tenants: u64,
    batches: Vec<Vec<TuningRequest>>,
}

impl Campaign {
    fn draw(seed: u64) -> Campaign {
        let mut rng = StdRng::seed_from_u64(seed);
        let tenants = rng.gen_range(12u64..32);
        let batches = (0..BATCHES)
            .map(|window| {
                let mut batch = Vec::new();
                for tenant in 0..tenants {
                    // the poisoned tenant always asks, so it burns
                    if tenant == POISONED || rng.gen_range(0..4) == 0 {
                        batch.push(TuningRequest {
                            tenant,
                            arrival_s: 5.0 * window as f64 + rng.gen_range(0.0..4.5),
                        });
                    }
                }
                batch.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
                batch
            })
            .collect();
        Campaign { tenants, batches }
    }

    fn chaos(&self) -> ChaosConfig {
        ChaosConfig::new(FaultSchedule::generate(&FaultConfig::none(1), 4, 10_000.0))
            .poison(POISONED)
    }

    fn service(&self) -> TuningService<Probe> {
        let service = TuningService::with_resilience(
            ServiceConfig::default(),
            ResilienceConfig::hardened(),
            probe as Probe,
        )
        .with_chaos(self.chaos())
        .with_front_door(FrontDoorConfig::hardened());
        for tenant in 0..self.tenants {
            service
                .register_tenant(tenant, factory(tenant), vec![1.0 + (tenant % 3) as f64])
                .unwrap();
        }
        service
    }

    /// Serves `batches[from..to]`; returns the tenants that sent a
    /// request. Every request writes to its tenant's session — a
    /// `select`, or the rejection count when the front door or an open
    /// breaker turns it away.
    fn serve(&self, service: &TuningService<Probe>, from: usize, to: usize) -> BTreeSet<TenantId> {
        let mut touched = BTreeSet::new();
        for batch in &self.batches[from..to] {
            let report = service.serve_batch(batch);
            assert_eq!(report.responses.len(), batch.len());
            touched.extend(batch.iter().map(|request| request.tenant));
        }
        touched
    }

    /// What stable storage holds after a crash following batch `at`.
    fn crash_after(&self, at: usize) -> (Option<Snapshot>, Vec<JournalEntry>) {
        let victim = self.service();
        self.serve(&victim, 0, at);
        victim.crash()
    }

    fn recover(
        &self,
        snapshot: Option<Snapshot>,
        entries: &[JournalEntry],
    ) -> TuningService<Probe> {
        TuningService::recover(
            ServiceConfig::default(),
            ResilienceConfig::hardened(),
            Some(self.chaos()),
            Some(FrontDoorConfig::hardened()),
            probe as Probe,
            snapshot,
            entries,
            &factory,
        )
    }
}

/// The oracle: what `SessionStore::dump` did before sessions were
/// shared — a deep copy of every session, in tenant order.
fn eager_copy(service: &TuningService<Probe>) -> Vec<(TenantId, Session)> {
    service
        .store()
        .fold(Vec::new(), |mut copies, tenant, session| {
            copies.push((tenant, session.clone()));
            copies
        })
}

fn render(sessions: &[(TenantId, impl std::fmt::Debug)]) -> String {
    format!("{sessions:?}")
}

#[test]
fn a_snapshot_never_sees_writes_made_after_it_was_cut() {
    for seed in 0..12u64 {
        let campaign = Campaign::draw(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let cut = rng.gen_range(1..BATCHES - 4);
        let until = cut + rng.gen_range(1usize..5);

        let service = campaign.service();
        campaign.serve(&service, 0, cut);
        let oracle = eager_copy(&service);
        let snapshot = take_snapshot(
            5.0 * cut as f64,
            &Journal::new(1),
            service.store(),
            service.cache(),
            service.breakers(),
            service.admission().zip(service.autoscaler()),
        );
        assert_eq!(render(&snapshot.sessions), render(&oracle));

        // the service cuts its own Daly snapshots meanwhile, so some
        // sessions are shared three ways
        let touched = campaign.serve(&service, cut, until);
        assert!(
            touched.len() > 1 && touched.len() < campaign.tenants as usize,
            "seed {seed}: the campaign must touch some tenants and spare others"
        );

        assert_eq!(
            render(&snapshot.sessions),
            render(&oracle),
            "seed {seed}: a later write reached the snapshot cut after batch {cut}"
        );
        let live = service.store().dump();
        assert_eq!(live.len(), snapshot.sessions.len());
        for ((tenant, then), (_, now)) in snapshot.sessions.iter().zip(&live) {
            assert_eq!(
                Arc::ptr_eq(then, now),
                !touched.contains(tenant),
                "seed {seed}: tenant {tenant} must be copied exactly when it sent a request"
            );
        }
        assert_ne!(
            render(&live),
            render(&oracle),
            "seed {seed}: the later batches must have changed the store"
        );
    }
}

#[test]
fn the_refreshed_snapshot_is_the_full_dump_at_every_daly_batch() {
    for seed in 0..12u64 {
        let campaign = Campaign::draw(seed);
        let service = campaign.service();
        let mut previous: Option<Snapshot> = None;
        let mut touched = BTreeSet::new();
        let mut cuts = 0;
        for at in 1..=BATCHES {
            touched.extend(campaign.serve(&service, at - 1, at));
            let Some(retained) = service.last_snapshot() else {
                continue;
            };
            if previous.as_ref().map(|p| p.at_s) == Some(retained.at_s) {
                continue;
            }
            cuts += 1;

            // what stable storage holds after a crash on this batch
            let (crashed, entries) = campaign.crash_after(at);
            let crashed = crashed.expect("the victim cut the same snapshot");
            assert!(entries.is_empty(), "seed {seed}: batch {at} compacted");
            assert_eq!(format!("{crashed:?}"), format!("{retained:?}"));

            // the oracle: a full cut of an identical service; the
            // watermark is the journal's append count, which recovery
            // checks, so it is carried over
            let twin = campaign.service();
            campaign.serve(&twin, 0, at);
            let oracle = Snapshot {
                through_seq: crashed.through_seq,
                ..take_snapshot(
                    crashed.at_s,
                    &Journal::new(1),
                    twin.store(),
                    twin.cache(),
                    twin.breakers(),
                    twin.admission().zip(twin.autoscaler()),
                )
            };
            assert_eq!(
                format!("{crashed:?}"),
                format!("{oracle:?}"),
                "seed {seed}: the snapshot refreshed at batch {at} is not the full dump"
            );

            if let Some(previous) = &previous {
                assert_eq!(previous.sessions.len(), retained.sessions.len());
                for ((tenant, then), (_, now)) in previous.sessions.iter().zip(&retained.sessions) {
                    assert_eq!(
                        Arc::ptr_eq(then, now),
                        !touched.contains(tenant),
                        "seed {seed}: tenant {tenant} at the cut after batch {at}"
                    );
                }
            }
            touched.clear();
            previous = Some(retained);
        }
        assert!(cuts >= 2, "seed {seed}: {cuts} Daly cuts");
    }
}

#[test]
fn recovery_is_exact_at_every_kind_of_batch_boundary() {
    for seed in 0..8u64 {
        let campaign = Campaign::draw(seed);
        let reference = campaign.service();
        campaign.serve(&reference, 0, BATCHES);
        let expected = reference.state_report();
        assert!(
            expected.contains(&format!("admission {POISONED}:"))
                && expected.contains("autoscaler: capacity="),
            "seed {seed}: front-door state to recover:\n{expected}"
        );

        // the first batch whose crash leaves a snapshot and an empty
        // suffix is the first Daly snapshot batch
        let on_snapshot = (1..BATCHES)
            .find(|&at| {
                let (snapshot, entries) = campaign.crash_after(at);
                snapshot.is_some() && entries.is_empty()
            })
            .expect("the campaign spans several Daly intervals");
        assert!(
            on_snapshot > 1,
            "seed {seed}: batch 1 ends before the interval"
        );

        let mut rng = StdRng::seed_from_u64(seed ^ 0xc4a5);
        let mut crash_points = vec![1, on_snapshot, on_snapshot + 1];
        crash_points.extend((0..3).map(|_| rng.gen_range(0..BATCHES + 1)));
        for at in crash_points {
            let (snapshot, entries) = campaign.crash_after(at);
            if at < on_snapshot {
                assert!(snapshot.is_none(), "seed {seed}: no snapshot before {at}");
            }
            let snapshot_at_s = snapshot.as_ref().map(|s| s.at_s);
            let recovered = campaign.recover(snapshot, &entries);
            campaign.serve(&recovered, at, BATCHES);
            assert_eq!(
                recovered.state_report(),
                expected,
                "seed {seed}: crash after batch {at} (snapshot at {snapshot_at_s:?}, {} entries)",
                entries.len()
            );
        }
    }
}
