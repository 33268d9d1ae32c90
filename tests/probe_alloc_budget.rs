//! Integration: the allocation budget of one precision probe.
//!
//! A `KernelEvaluator` probe should cost what it runs — the seeded
//! inputs, a code-cache lookup, a VM frame per run and the evaluation it
//! returns — not a re-parse of its kernel, a rebuild of its precision
//! variant or a copy of its inputs. This test warms one evaluator up on
//! a rung (the rung's variant is built, digested and lowered once, on
//! first use) and then counts the heap allocations of single probes at
//! mantissa 12 and n = 256: at most 40. The probe measures 29 (18 at
//! full precision, which runs the kernel once on the inputs it drew).
//! It measured 41 (26) while the inputs were staged as `f64` vectors,
//! copied into each run and the VM rebuilt a per-function memo on every
//! construction, and 577 (280) when every probe parsed the kernel twice
//! and re-typed it once, so a per-probe parse, variant build, AST copy
//! or argument copy fails tier-1 if it comes back. (The count is exact,
//! not a timing: the headroom is not noise margin.)
//!
//! The counters are process-wide, so this binary holds exactly one test.

use antarex::serve::kernel::KernelEvaluator;
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

const BUDGET: u64 = 40;

#[test]
fn a_precision_probe_stays_within_its_allocation_budget() {
    let evaluator = KernelEvaluator::fma();
    let mut config = Configuration::new();
    config.set("mantissa", KnobValue::Int(12));
    // warm up: builds the rung-12 variant and lowers both programs the
    // probe runs into the code cache
    evaluator.evaluate_segmented(&config, &[256.0]);

    // distinct sizes past the clamp: fresh data, all 256-element probes
    for size in [256.0, 300.0, 4_000.0] {
        let features = [size];
        let before = ALLOCS.load(Ordering::Relaxed);
        let probe = evaluator.evaluate_segmented(&config, &features);
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        drop(probe);
        assert!(
            allocs <= BUDGET,
            "a mantissa-12, n = 256 probe made {allocs} allocations (budget {BUDGET})"
        );
    }
    assert_eq!(evaluator.cache().misses(), 2, "one lowering per program");
}
