//! Integration: the allocation budget of a cache-hit request.
//!
//! A request answered from the design-point cache should cost what
//! changed — one selection, one probe, one sample per metric — not what
//! the service retains. This test serves a small navigation campaign
//! until every request is a cache hit and counts heap allocations per
//! request twice: while every monitor series is still short, and again
//! once every series holds its full 256 samples. Both phases must stay
//! within the same small budget — at most 0.08 allocations and 176 B
//! per request. The service measures 0.064 and 156 B while the series
//! still grow, 0.033 and 84 B once they are full: the batch's
//! `responses` vector shared out over its 32 requests (one allocation
//! in 32), and the series' growth. A batch takes its other buffers from
//! the service's kept scratch and schedules nothing when every request
//! hits, so one more allocation per batch (0.031 per request) fails
//! here. It measured 0.47 and 418 B, 0.44 and 346 B (budget 0.49 and
//! 448 B) while every batch built its own vectors, a per-tenant energy
//! map and an empty schedule, and 0.53 while the session's three
//! series grew one allocation each; in one shared buffer they grow at
//! one (budget 0.55 then). A hit allocates nothing of its own, because
//! the session keeps its selection (configuration, design key, probe
//! seed) and the response shares it. The budget was 4 allocations and
//! 1 KB while a hit copied the configuration and built the two vectors
//! of its design key (3.50, 376 B); it measured 4.56 while a hit still
//! copied the tenant's features, and 20 and 1.5 KB before it stopped
//! copying its metrics — so a per-request copy of the features, the
//! metrics map, the configuration or the key, a collected monitor
//! window, or anything that grows with the samples retained fails
//! tier-1 if it comes back. (The counts are exact, not timings: the
//! headroom is not noise margin.)
//!
//! The counters are process-wide, so this binary holds exactly one test.

use antarex::serve::driver::DriverConfig;
use antarex::serve::nav::NavEvaluator;
use antarex::serve::{BatchReport, TuningRequest, TuningService};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

// Relaxed: both cells are statistics that publish no other data.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// `System`, counting every allocation and the bytes it asked for.
struct CountingAlloc;

fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
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
const TENANTS: u64 = 16;
/// Requests per tenant per batch.
const ROUNDS: u64 = 2;
const SERIES_CAPACITY: usize = 256;
const NAV_METRICS: [&str; 3] = ["latency", "power", "quality"];

/// Batch `index`: every tenant asks `ROUNDS` times within one virtual
/// second, in arrival order.
fn batch(index: usize) -> Vec<TuningRequest> {
    (0..ROUNDS * TENANTS)
        .map(|slot| TuningRequest {
            tenant: slot % TENANTS,
            arrival_s: index as f64 + slot as f64 / (2 * ROUNDS * TENANTS) as f64,
        })
        .collect()
}

fn all_cache_hits(report: &BatchReport) -> bool {
    report.evaluated == 0
        && report
            .responses
            .iter()
            .all(|r| r.as_ref().is_ok_and(|answer| answer.cache_hit))
}

/// Shortest and longest monitor series over every tenant and metric.
fn series_lengths(service: &TuningService<NavEvaluator>) -> (usize, usize) {
    let mut lengths: Vec<usize> = Vec::new();
    for tenant in 0..TENANTS {
        service
            .store()
            .with(tenant, |session| {
                lengths.extend(
                    NAV_METRICS
                        .map(|m| session.manager.monitor(m).map_or(0, |series| series.len())),
                );
            })
            .expect("registered tenant");
    }
    (
        lengths.iter().copied().min().unwrap_or(0),
        lengths.iter().copied().max().unwrap_or(0),
    )
}

/// Serves `batches` batches starting at `*next`, counting only what
/// `serve_batch` itself allocates; returns (allocations, bytes) per
/// request.
fn measure(
    service: &TuningService<NavEvaluator>,
    next: &mut usize,
    batches: usize,
    phase: &str,
) -> (f64, f64) {
    let (mut allocs, mut bytes, mut requests) = (0u64, 0u64, 0u64);
    for _ in 0..batches {
        let requests_of_batch = batch(*next);
        *next += 1;
        let before = (
            ALLOCS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
        );
        let report = service.serve_batch(&requests_of_batch);
        allocs += ALLOCS.load(Ordering::Relaxed) - before.0;
        bytes += BYTES.load(Ordering::Relaxed) - before.1;
        requests += requests_of_batch.len() as u64;
        assert!(
            all_cache_hits(&report),
            "{phase}: the measured batches are cache hits only"
        );
    }
    (
        allocs as f64 / requests as f64,
        bytes as f64 / requests as f64,
    )
}

#[test]
fn a_cache_hit_request_stays_within_its_allocation_budget() {
    let service = DriverConfig {
        tenants: TENANTS as usize,
        archetypes: 4,
        ..DriverConfig::smoke(SEED)
    }
    .campaign()
    .build(NavEvaluator::city(SEED));

    // warm up: online learning moves tenants between operating points
    // for a few rounds; the cache is hot once a run of batches probes
    // nothing
    let mut next = 0usize;
    let mut quiet = 0;
    while quiet < 8 {
        assert!(next < 64, "the campaign must settle onto cached points");
        let report = service.serve_batch(&batch(next));
        next += 1;
        quiet = if all_cache_hits(&report) {
            quiet + 1
        } else {
            0
        };
    }

    let short = measure(&service, &mut next, 16, "short series");
    let (_, longest) = series_lengths(&service);
    assert!(
        longest < SERIES_CAPACITY,
        "first phase measured before any series filled ({longest} samples)"
    );

    while series_lengths(&service).0 < SERIES_CAPACITY {
        service.serve_batch(&batch(next));
        next += 1;
    }
    let full = measure(&service, &mut next, 16, "full series");

    for (phase, (allocs, bytes)) in [("short series", short), ("full series", full)] {
        assert!(
            allocs <= 0.08,
            "{phase}: {allocs:.3} allocations per cache-hit request (budget 0.08)"
        );
        assert!(
            bytes <= 176.0,
            "{phase}: {bytes:.0} bytes allocated per cache-hit request (budget 176)"
        );
    }
}
