//! Integration: the allocation budget of one navigation probe.
//!
//! A `NavEvaluator` probe plans three origin–destination pairs at one
//! time of day on one route planner, whose memory (an edge-cost table,
//! penalty flags, the search buffers and the distinct routes' nodes) it
//! takes from the evaluator's free list and gives back, and asks each
//! pair for a summary of its alternatives, not a route list. So a warm
//! probe should cost only the evaluation it returns: three metric
//! names, the map's node and its `Arc`. This test warms one evaluator
//! up at both knob settings and then counts the heap allocations of
//! single probes at each archetype's features: at most 5 at
//! `alternatives = 1` and 6 at `alternatives = 8`, the counts it
//! measures (5–6 at 8, by archetype: one archetype's routes outgrow the
//! kept node buffer once). It measured 18 and 41–42 while every probe
//! built its planner's buffers afresh and a node vector per route
//! (budgets 18 and 42 then), 19 and 42–43 while the metrics map was
//! built through a sort buffer (budgets 32 and 80 then), and 43–52 and
//! 285–331 when every search allocated its own buffers, so a buffer
//! rebuilt per probe or per search, a per-route list or one more
//! allocation per probe fails tier-1 if it comes back. (The counts are
//! exact, not timings.)
//!
//! The counters are process-wide, so this binary holds exactly one test.

use antarex::serve::driver::archetype_features;
use antarex::serve::nav::NavEvaluator;
use antarex::serve::Evaluator;
use antarex::tuner::{Configuration, KnobValue};
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

/// `(alternatives, allocation budget per probe)`.
const BUDGETS: [(i64, u64); 2] = [(1, 5), (8, 6)];

#[test]
fn a_navigation_probe_stays_within_its_allocation_budget() {
    let evaluator = NavEvaluator::city(2016);
    let mut config = Configuration::new();
    // warm up: one-time lazy state (thread-locals, the RNG) and the kept
    // planner memory are paid here, at both knob settings
    for (alternatives, _) in BUDGETS {
        config.set("alternatives", KnobValue::Int(alternatives));
        drop(evaluator.evaluate(&config, &archetype_features(0)));
    }

    for (alternatives, budget) in BUDGETS {
        config.set("alternatives", KnobValue::Int(alternatives));
        for archetype in 0..4 {
            let features = archetype_features(archetype);
            let before = ALLOCS.load(Ordering::Relaxed);
            let probe = evaluator.evaluate(&config, &features);
            let allocs = ALLOCS.load(Ordering::Relaxed) - before;
            drop(probe);
            assert!(
                allocs <= budget,
                "an alternatives = {alternatives} probe at archetype {archetype} made \
                 {allocs} allocations (budget {budget})"
            );
        }
    }
}
