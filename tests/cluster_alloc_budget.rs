//! Integration: the allocation budget of a cluster campaign pass.
//!
//! A pass of the RTRM campaign builds its cluster once and then runs
//! the control loop: what it allocates should follow the campaign's
//! shape (control steps, metrics, the fault schedule), not the number
//! of nodes it controls. This test runs the tiny storm campaign on one
//! worker and counts heap allocations. A pass must stay within 125 of
//! them; it measures 113, 17 of which generate the fault schedule.
//! Doubling the nodes must add none outside the schedule, whose event
//! list grows by doubling (one more reallocation at 128 nodes). The
//! pass measured 359, and 488 at 128 nodes, while every node held its
//! own copy of the node spec (a name `String` and a P-state `Vec`) and
//! the facility split built its demand weights and a cleaned copy of
//! them every control step; a per-node or per-step allocation coming
//! back fails here. (The counts are exact, not timings: the headroom is
//! not noise margin.)
//!
//! The counters are process-wide, so this binary holds exactly one test.

use antarex::rtrm::campaign::{run_profile, storm_config, ClusterProfile, ClusterScale};
use antarex::sim::faults::FaultSchedule;
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

/// Allocations of one single-worker pass of the storm at `scale`.
fn pass_allocations(scale: &ClusterScale) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    let outcome = run_profile(SEED, scale, ClusterProfile::FaultTolerant, 1);
    let allocations = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(outcome.completed_jobs > 0, "the pass completes jobs");
    assert!(outcome.throttle_events > 0, "the pass clamps hot nodes");
    allocations
}

/// Allocations of the fault storm a pass at `scale` generates.
fn schedule_allocations(scale: &ClusterScale) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    let schedule = FaultSchedule::generate(
        &storm_config(SEED, scale.crash_rate),
        scale.nodes,
        scale.horizon_s,
    );
    let allocations = ALLOCS.load(Ordering::Relaxed) - before;
    drop(schedule);
    allocations
}

#[test]
fn a_cluster_pass_stays_within_its_allocation_budget() {
    let tiny = ClusterScale::tiny();
    let doubled = ClusterScale {
        nodes: 2 * tiny.nodes,
        ..tiny.clone()
    };
    // the first pass also pays the process's one-time setup
    pass_allocations(&tiny);
    let small = pass_allocations(&tiny);
    assert!(
        small <= 125,
        "{small} allocations in a {}-node pass (budget 125)",
        tiny.nodes
    );

    let large = pass_allocations(&doubled);
    let (schedule_small, schedule_large) =
        (schedule_allocations(&tiny), schedule_allocations(&doubled));
    assert_eq!(
        large - schedule_large,
        small - schedule_small,
        "doubling the nodes from {} changed the allocations outside the \
         fault schedule ({large} against {small} in all)",
        tiny.nodes
    );
    assert!(
        schedule_large <= schedule_small + 1,
        "the fault schedule grew from {schedule_small} to {schedule_large} \
         allocations when the nodes doubled"
    );
}
