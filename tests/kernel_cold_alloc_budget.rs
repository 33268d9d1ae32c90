//! Integration: the allocation budget of a cold precision request.
//!
//! `serve_kernel_cold`'s tenants each ask for a problem size of their
//! own, so nearly every request probes the metered VM. This test runs
//! the benchmark's tiny shape of that campaign — 60 precision tenants at
//! 0.05 Hz for 40 virtual seconds, batches of 16, one worker — on a
//! fresh service and counts the heap allocations `serve_batch` makes per
//! request, the first lowering of every program and rung included: at
//! most 12.48. The campaign's 124 requests run 52 probes, so one more
//! allocation per probe adds 0.42 per request. It measures 12.17, with a
//! probe's VM frames, precision stack and input arrays kept from one
//! probe to the next, a batch's buffers kept from one batch to the
//! next, and every selection sharing its knowledge point's
//! configuration. It measured 12.59 (budget 12.9) while each selection
//! copied the configuration it deployed, 13.42 (budget 13.8) while
//! every batch built its own buffers, and 18.37 while every probe
//! allocated its VM memory afresh, so a per-probe buffer fails tier-1
//! if it comes back. (The count is exact, not a timing: the headroom is
//! not noise margin.)
//!
//! The counters are process-wide, so this binary holds exactly one test.

use antarex::serve::driver::{arrivals, DriverConfig};
use antarex::serve::kernel::{kernel_manager, KernelEvaluator};
use antarex::serve::pool::PoolConfig;
use antarex::serve::{ServiceConfig, TuningService};
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
const TENANTS: u64 = 60;
const BATCH: usize = 16;
/// Allocations a cold precision request may make, its share of the
/// batch's included.
const BUDGET: f64 = 12.48;

#[test]
fn a_cold_precision_request_stays_within_its_allocation_budget() {
    let service = TuningService::new(
        ServiceConfig {
            pool: PoolConfig {
                workers: 1,
                ..ServiceConfig::default().pool
            },
            ..ServiceConfig::default()
        },
        KernelEvaluator::fma(),
    );
    for tenant in 0..TENANTS {
        let problem_size = 64 + tenant * 7919 % 4096;
        service
            .register_tenant(tenant, kernel_manager(1e-3), vec![problem_size as f64])
            .expect("tenant ids are distinct");
    }
    let requests = arrivals(&DriverConfig {
        tenants: TENANTS as usize,
        archetypes: 1,
        duration_s: 40.0,
        rate_per_tenant_hz: 0.05,
        batch_window_s: 1.0,
        seed: SEED,
    });

    let (mut allocs, mut evaluated) = (0, 0);
    for batch in requests.chunks(BATCH) {
        let before = ALLOCS.load(Ordering::Relaxed);
        let report = service.serve_batch(batch);
        allocs += ALLOCS.load(Ordering::Relaxed) - before;
        evaluated += report.evaluated;
        assert_eq!(report.responses.len(), batch.len());
    }
    assert_eq!(
        (requests.len(), evaluated),
        (124, 52),
        "the campaign's shape (requests, probes)"
    );
    let per_request = allocs as f64 / requests.len() as f64;
    assert!(
        per_request <= BUDGET,
        "{per_request:.2} allocations per cold precision request (budget {BUDGET})"
    );
}
