//! Integration: the allocation budget of a request on the checkpointed
//! path.
//!
//! With the journal on, the service cuts a snapshot on a Daly cadence,
//! and a session the snapshot shares is copied by its next write. So
//! every tenant touched after a cut pays one session copy, and the next
//! cut drops the version it replaced: the cost the overload-chaos
//! benchmark's `allocs_per_op` counts, which no cache-hit budget sees.
//! This test drives the tiny overload-chaos campaign of
//! `session_footprint` (well-behaved tenants with a fresh-feature slice,
//! bursty poisoned aggressors, hardened resilience with the journal on,
//! the SLO front door) and counts heap allocations per request while it
//! drives, build excluded. The budget is 1.60 allocations per request.
//! The service measures 1.48 in a release build and 1.55 in a debug
//! one (1,698 and 1,778 allocations over 1,146 requests), with every
//! selection sharing its knowledge point's configuration. It measured
//! 1.60 in release and 1.67 in debug (budget 1.72) while each selection
//! copied the configuration it deployed, 1.75 in release and 1.82 in
//! debug (budget 1.85) while every batch
//! built its own buffers, 2.83 in release and 2.90 in debug (budget
//! 2.95) while every navigation probe built its route planner's buffers
//! afresh and a node list per route, and 3.06 in release while each
//! monitor series of a manager had a ring of its own, so a session copy
//! that grows by one block per series, or a probe that rebuilds what the
//! last one freed, fails here. (The counts are exact up to a few allocations per
//! rerun, not timings: the headroom is not noise margin.)
//!
//! The counters are process-wide, so this binary holds exactly one test.

use antarex::serve::chaos::ChaosConfig;
use antarex::serve::driver::{Batching, BurstProfile, Campaign, Cohort};
use antarex::serve::nav::NavEvaluator;
use antarex::serve::pool::PoolConfig;
use antarex::serve::{FrontDoorConfig, ResilienceConfig, ServiceConfig};
use antarex::sim::faults::{FaultConfig, FaultSchedule};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

// Relaxed: the cell is a statistic that publishes no other data.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// `System`, counting every allocation.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SEED: u64 = 2016;
const WELL_BEHAVED: usize = 64;
const AGGRESSIVE: usize = 16;
const DURATION_S: f64 = 60.0;

/// The overload-chaos benchmark at its tiny scale, as
/// `session_footprint` builds it.
fn overload_chaos() -> Campaign {
    let schedule = FaultSchedule::generate(&FaultConfig::none(SEED), 8, DURATION_S + 60.0);
    let aggressors = WELL_BEHAVED as u64..(WELL_BEHAVED + AGGRESSIVE) as u64;
    Campaign {
        cohorts: vec![
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
        ],
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

#[test]
fn a_checkpointed_request_stays_within_its_allocation_budget() {
    let campaign = overload_chaos();
    let requests = campaign.arrivals();
    let mut evaluator = NavEvaluator::city(SEED);
    evaluator.expansions_per_s *= 8.0;
    let service = campaign.build(evaluator);

    let before = ALLOCS.load(Ordering::Relaxed);
    let stats = campaign.drive(&service, &requests, |_, _| ());
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    assert!(
        stats.served > 0 && stats.shed + stats.rejected + stats.failed > 0,
        "the campaign both answers and turns requests away: {stats:?}"
    );
    let cut = service.last_snapshot().map(|snapshot| snapshot.at_s);
    assert!(
        cut.is_some_and(|at_s| at_s >= DURATION_S / 2.0),
        "the campaign cut checkpoints through its second half: {cut:?}"
    );
    let per_request = allocs as f64 / requests.len() as f64;
    assert!(
        per_request <= 1.60,
        "{per_request:.2} allocations per request on the checkpointed path (budget 1.60)"
    );
}
