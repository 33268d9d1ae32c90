//! Integration: what one tenant session holds.
//!
//! The serving tier keeps one runtime manager per tenant, so every byte
//! a session holds is multiplied by the tenant count. This test pins
//! these numbers, counting heap allocations exactly:
//!
//! * `driver::nav_manager(0.5)` costs at most 2 allocations and 256 B.
//!   It measures 1 allocation of 32 B, the shared constraint list:
//!   every navigation manager shares one process-wide design-time
//!   knowledge base. It measured 32 allocations and 2.3 KB while each
//!   manager built a base of its own.
//! * A fresh manager's first observation of three metrics costs at
//!   most 2 allocations. It measures 2 (512 B): the monitors' header
//!   table and their one sample buffer, each with room for four
//!   series. It measured 4 while each series had a ring of its own.
//! * Cloning a manager that has selected a configuration and observed
//!   three metrics, but not yet learned, costs at most 2 allocations —
//!   the copy a session pays on its first write after a snapshot — and
//!   the clone's next observation of the three metrics costs none. It
//!   measures 2 (384 B): the header table and the sample buffer, whose
//!   segments keep their free slots, so the next sample needs no
//!   growth. The base, the constraints and the deployed configuration
//!   (an index into the knowledge, whose points hold their
//!   configurations behind an `Arc`) are shared, not copied. It measured
//!   4 (504 B) while the clone copied a `Vec` of series and three
//!   rings, 6 (408 B) while it also copied the constraint list and the
//!   deployed configuration and each series kept only its samples, 24
//!   while the clone deep-copied the base, and 1,032 B while the series
//!   sat in a `BTreeMap` whose leaf reserves eleven slots.
//! * The first learning round of a `nav_manager` or a `kernel_manager`
//!   costs at most 1 allocation and leaves the base shared. It measures
//!   1, the overlay's row (twelve slots, 112 B); it measured 19
//!   allocations (1,700 B) while that round copied the base. A clone
//!   after learning stays within the pre-learning budget of 2: it
//!   measures the same 2 (384 B), because the row is shared too.
//! * A campaign shaped like the overload-chaos benchmark at its tiny
//!   scale (well-behaved tenants with a fresh-feature slice, bursty
//!   poisoned aggressors, hardened resilience with the journal on, the
//!   SLO front door) holds at most 3,470 B of live heap per session
//!   after serving, over what the same service holds with no tenants.
//!   Per-service memory that does not grow with the tenant count is
//!   made on both sides, so the difference cancels it and bills the
//!   sessions only what they hold. The empty service's evaluator runs
//!   one probe before it is built: the navigation evaluator keeps its
//!   route planner's memory (≈42 KB on the 16×16 city) from one probe
//!   to the next, one per worker that probed. The empty service then
//!   serves the campaign's same batches, every request addressed to a
//!   tenant it does not know: the service keeps one batch's buffers
//!   per batch served at once, reserved per request, and the phantom's
//!   batches grow them as the campaign's do, while admission and
//!   breaker state exist for the one phantom tenant only. The same
//!   drive also grows the rest of the memory the service sizes to its
//!   traffic rather than to its tenants, as the campaign does. It
//!   measures 2,984 B, with every selection sharing its knowledge
//!   point's configuration. It measured 3,037 B (budget 3,520 B), and
//!   3,975 B with the phantom drive left out, while each selection
//!   copied the configuration it deployed, 3,404 B (2,970 B with the
//!   phantom drive) while every
//!   batch built its own buffers, 3,928 B with the probe left out,
//!   3,392 B while every probe built its planner afresh, 3,450 B
//!   (budget 3,590 B) while each monitor series had a ring of its own,
//!   3,521 B while a session copy copied its constraints and deployed
//!   configuration, 4,944 B while a tenant's first learning round
//!   copied the shared base (budget 5,000 B), 6,132 B while the
//!   monitors sat in a `BTreeMap`, and 22,310 B while the SLO bank kept
//!   a 512-sample history per (tenant, objective) pair, every monitor
//!   series reserved 256 samples up front and every manager owned its
//!   base.
//!
//! The counters are process-wide, so this binary holds exactly one test.

use antarex::serve::chaos::ChaosConfig;
use antarex::serve::driver::{self, Batching, BurstProfile, Campaign, Cohort};
use antarex::serve::kernel::kernel_manager;
use antarex::serve::nav::NavEvaluator;
use antarex::serve::pool::PoolConfig;
use antarex::serve::{Evaluator, FrontDoorConfig, ResilienceConfig, ServiceConfig, TuningRequest};
use antarex::sim::faults::{FaultConfig, FaultSchedule};
use antarex::tuner::{AppManager, Configuration};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

// Relaxed: the cells are statistics that publish no other data.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);

/// `System`, counting every allocation, the bytes it asked for, and the
/// bytes still allocated.
struct CountingAlloc;

fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    LIVE.fetch_add(size as i64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SEED: u64 = 2016;
const SLA_S: f64 = 0.5;
const NAV_METRICS: [&str; 3] = ["latency", "power", "quality"];
const KERNEL_METRICS: [&str; 3] = ["error", "latency", "power"];

/// The overload-chaos benchmark at its tiny scale.
const WELL_BEHAVED: usize = 64;
const AGGRESSIVE: usize = 16;
const DURATION_S: f64 = 60.0;
/// A tenant id no campaign registers.
const PHANTOM: u64 = u64::MAX;

/// Allocations and bytes `f` asks for, and what it returns.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let before = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let result = f();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before.0;
    let bytes = BYTES.load(Ordering::Relaxed) - before.1;
    (allocs, bytes, result)
}

/// Live heap `f` leaves behind, held by what it returns (dropped after
/// measuring).
fn live_bytes<R>(f: impl FnOnce() -> R) -> i64 {
    let before = LIVE.load(Ordering::Relaxed);
    let held = f();
    let live = LIVE.load(Ordering::Relaxed) - before;
    drop(held);
    live
}

/// Well-behaved tenants sharing sixteen archetypes, every fourth with
/// features of its own, and bursty aggressors whose probes always fail
/// integrity, behind the hardened front door, journaled.
fn overload_chaos(cohorts: Vec<Cohort>) -> Campaign {
    let schedule = FaultSchedule::generate(&FaultConfig::none(SEED), 8, DURATION_S + 60.0);
    let aggressors = WELL_BEHAVED as u64..(WELL_BEHAVED + AGGRESSIVE) as u64;
    Campaign {
        cohorts,
        service: ServiceConfig {
            pool: PoolConfig {
                workers: 1,
                queue_capacity: 24,
            },
            ..ServiceConfig::default()
        },
        resilience: ResilienceConfig::hardened(),
        chaos: Some(aggressors.fold(ChaosConfig::new(schedule), ChaosConfig::poison)),
        front_door: Some(FrontDoorConfig::hardened()),
        ..Campaign::new(SEED, DURATION_S, Batching::Window(5.0))
    }
}

/// A manager's first learning round after it selected and observed
/// its deployed point's own design-time estimates (so the round learns
/// without switching): the allocations it costs, and the manager.
fn first_learning_round(mut manager: AppManager, metrics: [&str; 3]) -> (u64, AppManager) {
    let deployed = manager.select().expect("the SLA is feasible").clone();
    for metric in metrics {
        let estimate = manager.knowledge().metric(&deployed, metric);
        manager.observe(0.0, metric, estimate.expect("the base knows the metric"));
    }
    let (allocs, _, switched) = allocations(|| manager.adapt(1.0).is_some());
    assert!(
        !switched,
        "re-measuring the estimates keeps the deployed point"
    );
    (allocs, manager)
}

#[test]
fn a_session_holds_what_it_learned_and_shares_the_rest() {
    // the first manager builds the shared base and interns the metric
    // names; what a tenant pays is every manager after it
    let mut manager = driver::nav_manager(SLA_S);
    let (allocs, bytes, fresh) = allocations(|| driver::nav_manager(SLA_S));
    assert!(
        allocs <= 2 && bytes <= 256,
        "nav_manager: {allocs} allocations, {bytes} B (budget 2, 256 B)"
    );
    assert!(std::ptr::eq(
        fresh.knowledge().base(),
        manager.knowledge().base()
    ));

    manager.select().expect("the navigation SLA is feasible");
    let (allocs, _, ()) = allocations(|| {
        for metric in NAV_METRICS {
            manager.observe(0.0, metric, 0.1);
        }
    });
    assert!(
        allocs <= 2,
        "first observation of three metrics: {allocs} allocations (budget 2)"
    );
    let (allocs, _, mut copy) = allocations(|| manager.clone());
    assert!(
        allocs <= 2,
        "clone before learning: {allocs} allocations (budget 2)"
    );
    assert!(std::ptr::eq(
        copy.knowledge().base(),
        manager.knowledge().base()
    ));
    let (allocs, _, ()) = allocations(|| {
        for metric in NAV_METRICS {
            copy.observe(1.0, metric, 0.2);
        }
    });
    assert_eq!(allocs, 0, "the clone's next observe allocates nothing");
    drop((copy, manager));

    let kernel = kernel_manager(1e-3);
    for (name, manager, metrics) in [
        ("nav_manager", driver::nav_manager(SLA_S), NAV_METRICS),
        ("kernel_manager", kernel_manager(1e-3), KERNEL_METRICS),
    ] {
        let (allocs, learned) = first_learning_round(manager, metrics);
        assert!(
            allocs <= 1,
            "{name}'s first learning round: {allocs} allocations (budget 1)"
        );
        let base = if name == "kernel_manager" {
            &kernel
        } else {
            &fresh
        };
        assert!(
            std::ptr::eq(learned.knowledge().base(), base.knowledge().base()),
            "{name}: learning leaves the base shared"
        );
        let (allocs, _, copy) = allocations(|| learned.clone());
        assert!(
            allocs <= 2,
            "{name}: clone after learning: {allocs} allocations (budget 2)"
        );
        assert!(std::ptr::eq(
            copy.knowledge().base(),
            base.knowledge().base()
        ));
    }
    drop((fresh, kernel));

    let campaign = overload_chaos(vec![
        Cohort {
            fresh_every: 4,
            ..Cohort::new(WELL_BEHAVED, 16, 0.05)
        },
        Cohort {
            first: WELL_BEHAVED as u64,
            fresh_every: 1,
            burst: Some(BurstProfile::aggressive()),
            ..Cohort::new(AGGRESSIVE, 16, 0.2)
        },
    ]);
    let requests = campaign.arrivals();
    let evaluator = || {
        let mut evaluator = NavEvaluator::city(SEED);
        evaluator.expansions_per_s *= 8.0;
        evaluator
    };
    // the evaluator keeps one planner's memory per worker that probed,
    // and the service one batch's buffers per batch served at once,
    // whatever the tenant count: one probe before the empty build, and
    // the same batches addressed to a tenant the empty service does not
    // know, keep both there too, so served − empty holds the sessions
    // alone
    let phantom: Vec<TuningRequest> = requests
        .iter()
        .map(|request| TuningRequest {
            tenant: PHANTOM,
            ..*request
        })
        .collect();
    let empty = live_bytes(|| {
        let evaluator = evaluator();
        drop(evaluator.evaluate(&Configuration::new(), &[]));
        let empty = overload_chaos(Vec::new());
        let service = empty.build(evaluator);
        let stats = empty.drive(&service, &phantom, |_, _| ());
        assert_eq!(
            stats.rejected,
            phantom.len(),
            "the empty service answers none of the phantom's requests: {stats:?}"
        );
        service
    });
    let served = live_bytes(|| {
        let service = campaign.build(evaluator());
        let stats = campaign.drive(&service, &requests, |_, _| ());
        assert!(
            stats.served > 0 && stats.shed + stats.rejected + stats.failed > 0,
            "the campaign both answers and turns requests away: {stats:?}"
        );
        service
    });
    let sessions = (WELL_BEHAVED + AGGRESSIVE) as i64;
    let per_session = (served - empty) / sessions;
    assert!(
        per_session <= 3_470,
        "{per_session} B of live heap per session after serving (budget 3,470 B)"
    );
}
