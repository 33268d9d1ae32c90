//! Integration: the allocation budget of one precision probe.
//!
//! A `KernelEvaluator` probe should cost what it runs — a code-cache
//! lookup, one or two VM runs and the evaluation it returns — not a
//! re-parse of its kernel, a rebuild of its precision variant, a copy of
//! its program or of its inputs, or fresh working memory. This test
//! warms one evaluator up on a rung (the rung's variant is built,
//! digested and lowered once, on first use, and the probe's working
//! memory is allocated once) and then counts the heap allocations of
//! single n = 256 probes: at most 6 at mantissa 12 and at full
//! precision, one more for a traced probe's segments. The untraced probe
//! measures 5 at both: the metrics of the evaluation it returns (three
//! names, the map's node and its `Arc`). It measured 17 (13 at full
//! precision, which runs the kernel once on the inputs it drew) while
//! every run allocated its VM frame, type table, frame pool and
//! precision stack, every probe its input arrays and argument vector, and
//! the metrics map went through a sort buffer; 29 (18), traced, while
//! every run cloned its program's function table and the reference run
//! took a copy of the inputs; 41 (26) while the inputs were staged as
//! `f64` vectors, copied into each run and the VM rebuilt a per-function
//! memo on every construction; and 577 (280) when every probe parsed the
//! kernel twice and re-typed it once. So a per-probe parse, variant
//! build, program copy, argument copy or working buffer fails tier-1 if
//! it comes back. (The count is exact, not a timing: the headroom is not
//! noise margin.)
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

/// Allocations an untraced mantissa-12 probe may make.
const NARROW_BUDGET: u64 = 6;
/// Allocations an untraced full-precision probe may make.
const FULL_BUDGET: u64 = 6;

/// Heap allocations `probe` makes, its result's included.
fn allocations<T>(probe: impl FnOnce() -> T) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    let result = probe();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    drop(result);
    allocs
}

#[test]
fn a_precision_probe_stays_within_its_allocation_budget() {
    let evaluator = KernelEvaluator::fma();
    for (bits, budget) in [(12, NARROW_BUDGET), (52, FULL_BUDGET)] {
        let mut config = Configuration::new();
        config.set("mantissa", KnobValue::Int(bits));
        // warm up: builds the rung's variant and lowers the programs the
        // probe runs into the code cache
        evaluator.evaluate_segmented(&config, &[256.0]);

        // distinct sizes past the clamp: fresh data, all 256-element probes
        for size in [256.0, 300.0, 4_000.0] {
            let features = [size];
            let untraced = allocations(|| evaluator.evaluate(&config, &features));
            assert!(
                untraced <= budget,
                "a mantissa-{bits}, n = 256 probe made {untraced} allocations (budget {budget})"
            );
            // a traced probe adds its one vector of segments
            let traced = allocations(|| evaluator.evaluate_segmented(&config, &features));
            assert!(
                traced <= budget + 1,
                "a traced mantissa-{bits}, n = 256 probe made {traced} allocations (budget {})",
                budget + 1
            );
        }
    }
    assert_eq!(evaluator.cache().misses(), 2, "one lowering per program");
}
