//! Integration: every exact allocation budget, one counting allocator.
//!
//! The counters are process-wide, and a budget's count includes the
//! one-time setup an earlier budget would have paid, so `main` runs
//! each budget in a fresh child process of this binary, selected by the
//! argument `child:<name>`. A child prints one line: the budget's name,
//! what it measured and its bounds. The parent prints every line, then
//! every breach, in libtest's format, and fails if any budget did. Bare
//! arguments filter the budgets by substring; libtest's flags are
//! accepted, and `--skip` and `--list` act as they do there. The counts
//! are exact, not timings: a bound's headroom is not noise margin.

use antarex::rtrm::campaign::{run_profile, storm_config, ClusterProfile, ClusterScale};
use antarex::serve::chaos::ChaosConfig;
use antarex::serve::driver::{
    self, archetype_features, arrivals, Batching, BurstProfile, Campaign, Cohort, DriverConfig,
};
use antarex::serve::kernel::{kernel_manager, KernelEvaluator};
use antarex::serve::nav::NavEvaluator;
use antarex::serve::pool::PoolConfig;
use antarex::serve::{
    BatchReport, Evaluator, FrontDoorConfig, ResilienceConfig, ServiceConfig, TuningRequest,
    TuningService,
};
use antarex::sim::faults::{FaultConfig, FaultSchedule};
use antarex::tuner::{AppManager, Configuration, KnobValue};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Display;
use std::hint::black_box;
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

// Relaxed: the cells are statistics that publish no other data.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);

/// `System`, counting every allocation, the bytes it asked for, and the
/// bytes still allocated. A reallocation counts as one allocation of
/// its new size.
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

/// Asserts `measured <= bound` for `what`, and reports both.
#[track_caller]
fn within<T: PartialOrd + Display>(what: &str, measured: T, bound: T) -> String {
    assert!(measured <= bound, "{what}: {measured:.4} (budget {bound})");
    format!("{what} {measured:.4} (budget {bound})")
}

/// A budget, by name: it asserts its bounds and returns what it
/// measured, with the bounds, as one line.
type Budget = (&'static str, fn() -> String);

const BUDGETS: [Budget; 8] = [
    ("counting_alloc", counting_alloc),
    ("steady_alloc_budget", steady_alloc_budget),
    ("session_footprint", session_footprint),
    ("checkpoint_alloc_budget", checkpoint_alloc_budget),
    ("probe_alloc_budget", probe_alloc_budget),
    ("nav_probe_alloc_budget", nav_probe_alloc_budget),
    ("kernel_cold_alloc_budget", kernel_cold_alloc_budget),
    ("cluster_alloc_budget", cluster_alloc_budget),
];

/// The argument prefix that runs one budget in this process.
const CHILD: &str = "child:";

/// libtest's flags that take a value as the next argument.
const VALUE_FLAGS: [&str; 5] = ["--color", "--format", "--logfile", "--test-threads", "-Z"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(name) = args.first().and_then(|arg| arg.strip_prefix(CHILD)) {
        let (_, budget) = BUDGETS
            .iter()
            .find(|(budget, _)| *budget == name)
            .expect("the parent names a budget of this binary");
        // a breach is reported as its location and message, without a
        // backtrace
        std::panic::set_hook(Box::new(|panic| eprintln!("{panic}")));
        println!("{name}: {}", budget());
        return ExitCode::SUCCESS;
    }

    let (mut filters, mut skips, mut list) = (Vec::new(), Vec::new(), false);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => list = true,
            "--skip" => skips.extend(args.next()),
            flag if VALUE_FLAGS.contains(&flag) => {
                args.next();
            }
            flag if flag.starts_with('-') => {}
            filter => filters.push(filter),
        }
    }
    let selected: Vec<&str> = BUDGETS
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| filters.is_empty() || filters.iter().any(|f| name.contains(f)))
        .filter(|name| !skips.iter().any(|skip| name.contains(skip.as_str())))
        .collect();
    if list {
        for name in &selected {
            println!("{name}: test");
        }
        println!("\n{} tests, 0 benchmarks", selected.len());
        return ExitCode::SUCCESS;
    }

    let start = Instant::now();
    let exe = std::env::current_exe().expect("the test binary knows its own path");
    println!("\nrunning {} tests", selected.len());
    let (mut lines, mut breaches) = (Vec::new(), Vec::new());
    for name in &selected {
        let child = Command::new(&exe)
            .arg(format!("{CHILD}{name}"))
            .output()
            .expect("the test binary starts a copy of itself");
        if child.status.success() {
            println!("test {name} ... ok");
            lines.push(String::from_utf8_lossy(&child.stdout).trim_end().to_owned());
        } else {
            println!("test {name} ... FAILED");
            breaches.push(format!(
                "{name} ({}): {}",
                child.status,
                String::from_utf8_lossy(&child.stderr)
                    .trim_end()
                    .replace('\n', "\n        ")
            ));
        }
    }

    println!("\nbudgets:\n    {}", lines.join("\n    "));
    if !breaches.is_empty() {
        println!("\nbreaches:\n    {}", breaches.join("\n    "));
    }
    let (passed, failed) = (lines.len(), breaches.len());
    let verdict = if failed == 0 { "ok" } else { "FAILED" };
    let filtered = BUDGETS.len() - selected.len();
    let seconds = start.elapsed().as_secs_f64();
    println!(
        "\ntest result: {verdict}. {passed} passed; {failed} failed; 0 ignored; 0 measured; \
         {filtered} filtered out; finished in {seconds:.2}s\n"
    );
    ExitCode::from(u8::from(failed > 0))
}

const SEED: u64 = 2016;
const NAV_METRICS: [&str; 3] = ["latency", "power", "quality"];

/// The counter itself: every allocation path is counted once, at the
/// size it asks for, and what is freed leaves the live bytes. A
/// `CountingAlloc` that drops a method or miscounts a size fails here
/// before any budget below can read a wrong count.
fn counting_alloc() -> String {
    let mut counts = [(0, 0); 3];
    let leaked = live_bytes(|| {
        let (n, bytes, mut buffer) = allocations(|| black_box(Vec::<u8>::with_capacity(100)));
        counts[0] = (n, bytes);
        let (n, bytes, _zeros) = allocations(|| black_box(vec![0u8; 64]));
        counts[1] = (n, bytes);
        let (n, bytes, ()) = allocations(|| black_box(&mut buffer).reserve_exact(200));
        counts[2] = (n, bytes);
    });
    assert_eq!(
        counts,
        [(1, 100), (1, 64), (1, 200)],
        "(allocations, bytes) of Vec::with_capacity(100), vec![0u8; 64] (alloc_zeroed) and \
         reserve_exact(200) from 100"
    );
    assert_eq!(leaked, 0, "live bytes after the drops");
    format!(
        "(allocations, bytes) of with_capacity(100), vec![0; 64], reserve_exact(200): \
         {counts:?}, {leaked} B live after the drops (exact)"
    )
}

/// The allocation budget of a cache-hit request.
///
/// A request answered from the design-point cache should cost what
/// changed — one selection, one probe, one sample per metric — not what
/// the service retains. This test serves a small navigation campaign
/// until every request is a cache hit and counts heap allocations per
/// request twice: while every monitor series is still short, and again
/// once every series holds its full 256 samples. Both phases must stay
/// within the same small budget — at most 0.08 allocations and 176 B
/// per request. The service measures 0.064 and 156 B while the series
/// still grow, 0.033 and 84 B once they are full: the batch's
/// `responses` vector shared out over its 32 requests (one allocation
/// in 32), and the series' growth. A batch takes its other buffers from
/// the service's kept scratch and schedules nothing when every request
/// hits, so one more allocation per batch (0.031 per request) fails
/// here. It measured 0.47 and 418 B, 0.44 and 346 B (budget 0.49 and
/// 448 B) while every batch built its own vectors, a per-tenant energy
/// map and an empty schedule, and 0.53 while the session's three
/// series grew one allocation each; in one shared buffer they grow at
/// one (budget 0.55 then). A hit allocates nothing of its own, because
/// the session keeps its selection (configuration, design key, probe
/// seed) and the response shares it. The budget was 4 allocations and
/// 1 KB while a hit copied the configuration and built the two vectors
/// of its design key (3.50, 376 B); it measured 4.56 while a hit still
/// copied the tenant's features, and 20 and 1.5 KB before it stopped
/// copying its metrics — so a per-request copy of the features, the
/// metrics map, the configuration or the key, a collected monitor
/// window, or anything that grows with the samples retained fails
/// tier-1 if it comes back. (The counts are exact, not timings: the
/// headroom is not noise margin.)
fn steady_alloc_budget() -> String {
    const SERIES_CAPACITY: usize = 256;

    let service = DriverConfig {
        tenants: STEADY_TENANTS as usize,
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
        let report = service.serve_batch(&steady_batch(next));
        next += 1;
        quiet = if all_cache_hits(&report) {
            quiet + 1
        } else {
            0
        };
    }

    let short = steady_measure(&service, &mut next, 16, "short series");
    let (_, longest) = series_lengths(&service);
    assert!(
        longest < SERIES_CAPACITY,
        "first phase measured before any series filled ({longest} samples)"
    );

    while series_lengths(&service).0 < SERIES_CAPACITY {
        service.serve_batch(&steady_batch(next));
        next += 1;
    }
    let full = steady_measure(&service, &mut next, 16, "full series");

    let mut line = Vec::new();
    for (phase, (allocs, bytes)) in [("short series", short), ("full series", full)] {
        line.push(within(&format!("{phase}, allocations"), allocs, 0.08));
        line.push(within(&format!("{phase}, bytes"), bytes, 176.0));
    }
    line.join("; ")
}

const STEADY_TENANTS: u64 = 16;

/// Batch `index` of the cache-hit campaign: every tenant asks twice
/// within one virtual second, in arrival order.
fn steady_batch(index: usize) -> Vec<TuningRequest> {
    /// Requests per tenant per batch.
    const ROUNDS: u64 = 2;
    (0..ROUNDS * STEADY_TENANTS)
        .map(|slot| TuningRequest {
            tenant: slot % STEADY_TENANTS,
            arrival_s: index as f64 + slot as f64 / (2 * ROUNDS * STEADY_TENANTS) as f64,
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
    for tenant in 0..STEADY_TENANTS {
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
fn steady_measure(
    service: &TuningService<NavEvaluator>,
    next: &mut usize,
    batches: usize,
    phase: &str,
) -> (f64, f64) {
    let (mut allocs, mut bytes, mut requests) = (0u64, 0u64, 0u64);
    for _ in 0..batches {
        let requests_of_batch = steady_batch(*next);
        *next += 1;
        let (batch_allocs, batch_bytes, report) =
            allocations(|| service.serve_batch(&requests_of_batch));
        allocs += batch_allocs;
        bytes += batch_bytes;
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

/// Integration: what one tenant session holds.
///
/// The serving tier keeps one runtime manager per tenant, so every byte
/// a session holds is multiplied by the tenant count. This test pins
/// these numbers, counting heap allocations exactly:
///
/// * `driver::nav_manager(0.5)` costs at most 2 allocations and 256 B.
///   It measures 1 allocation of 32 B, the shared constraint list:
///   every navigation manager shares one process-wide design-time
///   knowledge base. It measured 32 allocations and 2.3 KB while each
///   manager built a base of its own.
/// * A fresh manager's first observation of three metrics costs at
///   most 2 allocations. It measures 2 (512 B): the monitors' header
///   table and their one sample buffer, each with room for four
///   series. It measured 4 while each series had a ring of its own.
/// * Cloning a manager that has selected a configuration and observed
///   three metrics, but not yet learned, costs at most 2 allocations —
///   the copy a session pays on its first write after a snapshot — and
///   the clone's next observation of the three metrics costs none. It
///   measures 2 (384 B): the header table and the sample buffer, whose
///   segments keep their free slots, so the next sample needs no
///   growth. The base, the constraints and the deployed configuration
///   (an index into the knowledge, whose points hold their
///   configurations behind an `Arc`) are shared, not copied. It measured
///   4 (504 B) while the clone copied a `Vec` of series and three
///   rings, 6 (408 B) while it also copied the constraint list and the
///   deployed configuration and each series kept only its samples, 24
///   while the clone deep-copied the base, and 1,032 B while the series
///   sat in a `BTreeMap` whose leaf reserves eleven slots.
/// * The first learning round of a `nav_manager` or a `kernel_manager`
///   costs at most 1 allocation and leaves the base shared. It measures
///   1, the overlay's row (twelve slots, 112 B); it measured 19
///   allocations (1,700 B) while that round copied the base. A clone
///   after learning stays within the pre-learning budget of 2: it
///   measures the same 2 (384 B), because the row is shared too.
/// * A campaign shaped like the overload-chaos benchmark at its tiny
///   scale (well-behaved tenants with a fresh-feature slice, bursty
///   poisoned aggressors, hardened resilience with the journal on, the
///   SLO front door) holds at most 3,470 B of live heap per session
///   after serving, over what the same service holds with no tenants.
///   Per-service memory that does not grow with the tenant count is
///   made on both sides, so the difference cancels it and bills the
///   sessions only what they hold. The empty service's evaluator runs
///   one probe before it is built: the navigation evaluator keeps its
///   route planner's memory (≈42 KB on the 16×16 city) from one probe
///   to the next, one per worker that probed. The empty service then
///   serves the campaign's same batches, every request addressed to a
///   tenant it does not know: the service keeps one batch's buffers
///   per batch served at once, reserved per request, and the phantom's
///   batches grow them as the campaign's do, while admission and
///   breaker state exist for the one phantom tenant only. The same
///   drive also grows the rest of the memory the service sizes to its
///   traffic rather than to its tenants, as the campaign does. It
///   measures 2,984 B, with every selection sharing its knowledge
///   point's configuration. It measured 3,037 B (budget 3,520 B), and
///   3,975 B with the phantom drive left out, while each selection
///   copied the configuration it deployed, 3,404 B (2,970 B with the
///   phantom drive) while every
///   batch built its own buffers, 3,928 B with the probe left out,
///   3,392 B while every probe built its planner afresh, 3,450 B
///   (budget 3,590 B) while each monitor series had a ring of its own,
///   3,521 B while a session copy copied its constraints and deployed
///   configuration, 4,944 B while a tenant's first learning round
///   copied the shared base (budget 5,000 B), 6,132 B while the
///   monitors sat in a `BTreeMap`, and 22,310 B while the SLO bank kept
///   a 512-sample history per (tenant, objective) pair, every monitor
///   series reserved 256 samples up front and every manager owned its
///   base.
fn session_footprint() -> String {
    const SLA_S: f64 = 0.5;
    const KERNEL_METRICS: [&str; 3] = ["error", "latency", "power"];
    /// A tenant id no campaign registers.
    const PHANTOM: u64 = u64::MAX;

    // the first manager builds the shared base and interns the metric
    // names; what a tenant pays is every manager after it
    let mut manager = driver::nav_manager(SLA_S);
    let (allocs, bytes, fresh) = allocations(|| driver::nav_manager(SLA_S));
    let mut line = vec![
        within("nav_manager: allocations", allocs, 2),
        within("nav_manager: bytes", bytes, 256),
    ];
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
    line.push(within("first observation of three metrics", allocs, 2));
    let (allocs, _, mut copy) = allocations(|| manager.clone());
    line.push(within("clone before learning", allocs, 2));
    assert!(std::ptr::eq(
        copy.knowledge().base(),
        manager.knowledge().base()
    ));
    let (allocs, _, ()) = allocations(|| {
        for metric in NAV_METRICS {
            copy.observe(1.0, metric, 0.2);
        }
    });
    line.push(within("the clone's next observation", allocs, 0));
    drop((copy, manager));

    let kernel = kernel_manager(1e-3);
    for (name, manager, metrics) in [
        ("nav_manager", driver::nav_manager(SLA_S), NAV_METRICS),
        ("kernel_manager", kernel_manager(1e-3), KERNEL_METRICS),
    ] {
        let (allocs, learned) = first_learning_round(manager, metrics);
        line.push(within(&format!("{name}'s first learning round"), allocs, 1));
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
        line.push(within(&format!("{name}: clone after learning"), allocs, 2));
        assert!(std::ptr::eq(
            copy.knowledge().base(),
            base.knowledge().base()
        ));
    }
    drop((fresh, kernel));

    let campaign = overload_chaos(overload_chaos_cohorts());
    let requests = campaign.arrivals();
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
        let evaluator = overload_chaos_evaluator();
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
        let service = campaign.build(overload_chaos_evaluator());
        let stats = campaign.drive(&service, &requests, |_, _| ());
        assert!(
            stats.served > 0 && stats.shed + stats.rejected + stats.failed > 0,
            "the campaign both answers and turns requests away: {stats:?}"
        );
        service
    });
    let sessions = (WELL_BEHAVED + AGGRESSIVE) as i64;
    let per_session = (served - empty) / sessions;
    line.push(within("live bytes per session", per_session, 3_470));
    line.join("; ")
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

/// The overload-chaos benchmark at its tiny scale.
const WELL_BEHAVED: usize = 64;
const AGGRESSIVE: usize = 16;
const DURATION_S: f64 = 60.0;

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

/// The overload-chaos campaign's tenants: the well-behaved cohort with
/// a fresh-feature slice, then the bursty aggressors.
fn overload_chaos_cohorts() -> Vec<Cohort> {
    vec![
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
    ]
}

/// The overload-chaos campaign's navigation evaluator.
fn overload_chaos_evaluator() -> NavEvaluator {
    let mut evaluator = NavEvaluator::city(SEED);
    evaluator.expansions_per_s *= 8.0;
    evaluator
}

/// The allocation budget of a request on the checkpointed
/// path.
///
/// With the journal on, the service cuts a snapshot on a Daly cadence,
/// and a session the snapshot shares is copied by its next write. So
/// every tenant touched after a cut pays one session copy, and the next
/// cut drops the version it replaced: the cost the overload-chaos
/// benchmark's `allocs_per_op` counts, which no cache-hit budget sees.
/// This test drives the tiny overload-chaos campaign of
/// `session_footprint` (well-behaved tenants with a fresh-feature slice,
/// bursty poisoned aggressors, hardened resilience with the journal on,
/// the SLO front door) and counts heap allocations per request while it
/// drives, build excluded. The budget is 1.60 allocations per request.
/// The service measures 1.48 in a release build and 1.55 in a debug
/// one (1,698 and 1,778 allocations over 1,146 requests), with every
/// selection sharing its knowledge point's configuration. It measured
/// 1.60 in release and 1.67 in debug (budget 1.72) while each selection
/// copied the configuration it deployed, 1.75 in release and 1.82 in
/// debug (budget 1.85) while every batch
/// built its own buffers, 2.83 in release and 2.90 in debug (budget
/// 2.95) while every navigation probe built its route planner's buffers
/// afresh and a node list per route, and 3.06 in release while each
/// monitor series of a manager had a ring of its own, so a session copy
/// that grows by one block per series, or a probe that rebuilds what the
/// last one freed, fails here. (The counts are exact up to a few allocations per
/// rerun, not timings: the headroom is not noise margin.)
fn checkpoint_alloc_budget() -> String {
    let campaign = overload_chaos(overload_chaos_cohorts());
    let requests = campaign.arrivals();
    let service = campaign.build(overload_chaos_evaluator());

    let (allocs, _, stats) = allocations(|| campaign.drive(&service, &requests, |_, _| ()));

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
    within("allocations per request", per_request, 1.60)
}

/// The allocation budget of one precision probe.
///
/// A `KernelEvaluator` probe should cost what it runs — a code-cache
/// lookup, one or two VM runs and the evaluation it returns — not a
/// re-parse of its kernel, a rebuild of its precision variant, a copy of
/// its program or of its inputs, or fresh working memory. This test
/// warms one evaluator up on a rung (the rung's variant is built,
/// digested and lowered once, on first use, and the probe's working
/// memory is allocated once) and then counts the heap allocations of
/// single n = 256 probes: at most 6 at mantissa 12 and at full
/// precision, one more for a traced probe's segments. The untraced probe
/// measures 5 at both: the metrics of the evaluation it returns (three
/// names, the map's node and its `Arc`). It measured 17 (13 at full
/// precision, which runs the kernel once on the inputs it drew) while
/// every run allocated its VM frame, type table, frame pool and
/// precision stack, every probe its input arrays and argument vector, and
/// the metrics map went through a sort buffer; 29 (18), traced, while
/// every run cloned its program's function table and the reference run
/// took a copy of the inputs; 41 (26) while the inputs were staged as
/// `f64` vectors, copied into each run and the VM rebuilt a per-function
/// memo on every construction; and 577 (280) when every probe parsed the
/// kernel twice and re-typed it once. So a per-probe parse, variant
/// build, program copy, argument copy or working buffer fails tier-1 if
/// it comes back. (The count is exact, not a timing: the headroom is not
/// noise margin.)
fn probe_alloc_budget() -> String {
    /// Allocations an untraced mantissa-12 probe may make.
    const NARROW_BUDGET: u64 = 6;
    /// Allocations an untraced full-precision probe may make.
    const FULL_BUDGET: u64 = 6;

    let evaluator = KernelEvaluator::fma();
    let mut line = Vec::new();
    for (bits, budget) in [(12, NARROW_BUDGET), (52, FULL_BUDGET)] {
        let mut config = Configuration::new();
        config.set("mantissa", KnobValue::Int(bits));
        // warm up: builds the rung's variant and lowers the programs the
        // probe runs into the code cache
        evaluator.evaluate_segmented(&config, &[256.0]);

        // distinct sizes past the clamp: fresh data, all 256-element probes
        let (mut untraced, mut traced) = ([0; 3], [0; 3]);
        for (i, size) in [256.0, 300.0, 4_000.0].into_iter().enumerate() {
            let features = [size];
            untraced[i] = allocations(|| evaluator.evaluate(&config, &features)).0;
            // a traced probe adds its one vector of segments
            traced[i] = allocations(|| evaluator.evaluate_segmented(&config, &features)).0;
        }
        for (kind, counts, bound) in [("", untraced, budget), (" traced", traced, budget + 1)] {
            let what = format!("mantissa-{bits}, n = 256{kind} probes {counts:?}, most");
            line.push(within(&what, counts.into_iter().max().unwrap_or(0), bound));
        }
    }
    assert_eq!(evaluator.cache().misses(), 2, "one lowering per program");
    line.join("; ")
}

/// The allocation budget of one navigation probe.
///
/// A `NavEvaluator` probe plans three origin–destination pairs at one
/// time of day on one route planner, whose memory (an edge-cost table,
/// penalty flags, the search buffers and the distinct routes' nodes) it
/// takes from the evaluator's free list and gives back, and asks each
/// pair for a summary of its alternatives, not a route list. So a warm
/// probe should cost only the evaluation it returns: three metric
/// names, the map's node and its `Arc`. This test warms one evaluator
/// up at both knob settings and then counts the heap allocations of
/// single probes at each archetype's features: at most 5 at
/// `alternatives = 1` and 6 at `alternatives = 8`, the counts it
/// measures (5–6 at 8, by archetype: one archetype's routes outgrow the
/// kept node buffer once). It measured 18 and 41–42 while every probe
/// built its planner's buffers afresh and a node vector per route
/// (budgets 18 and 42 then), 19 and 42–43 while the metrics map was
/// built through a sort buffer (budgets 32 and 80 then), and 43–52 and
/// 285–331 when every search allocated its own buffers, so a buffer
/// rebuilt per probe or per search, a per-route list or one more
/// allocation per probe fails tier-1 if it comes back. (The counts are
/// exact, not timings.)
fn nav_probe_alloc_budget() -> String {
    /// `(alternatives, allocation budget per probe)`.
    const BUDGETS: [(i64, u64); 2] = [(1, 5), (8, 6)];

    let evaluator = NavEvaluator::city(SEED);
    let mut config = Configuration::new();
    // warm up: one-time lazy state (thread-locals, the RNG) and the kept
    // planner memory are paid here, at both knob settings
    for (alternatives, _) in BUDGETS {
        config.set("alternatives", KnobValue::Int(alternatives));
        drop(evaluator.evaluate(&config, &archetype_features(0)));
    }

    let mut line = Vec::new();
    for (alternatives, budget) in BUDGETS {
        config.set("alternatives", KnobValue::Int(alternatives));
        let mut counts = [0; 4];
        for (archetype, count) in counts.iter_mut().enumerate() {
            let features = archetype_features(archetype);
            *count = allocations(|| evaluator.evaluate(&config, &features)).0;
        }
        let what = format!("alternatives = {alternatives}: probes by archetype {counts:?}, most");
        line.push(within(&what, counts.into_iter().max().unwrap_or(0), budget));
    }
    line.join("; ")
}

/// The allocation budget of a cold precision request.
///
/// `serve_kernel_cold`'s tenants each ask for a problem size of their
/// own, so nearly every request probes the metered VM. This test runs
/// the benchmark's tiny shape of that campaign — 60 precision tenants at
/// 0.05 Hz for 40 virtual seconds, batches of 16, one worker — on a
/// fresh service and counts the heap allocations `serve_batch` makes per
/// request, the first lowering of every program and rung included: at
/// most 12.48. The campaign's 124 requests run 52 probes, so one more
/// allocation per probe adds 0.42 per request. It measures 12.17, with a
/// probe's VM frames, precision stack and input arrays kept from one
/// probe to the next, a batch's buffers kept from one batch to the
/// next, and every selection sharing its knowledge point's
/// configuration. It measured 12.59 (budget 12.9) while each selection
/// copied the configuration it deployed, 13.42 (budget 13.8) while
/// every batch built its own buffers, and 18.37 while every probe
/// allocated its VM memory afresh, so a per-probe buffer fails tier-1
/// if it comes back. (The count is exact, not a timing: the headroom is
/// not noise margin.)
fn kernel_cold_alloc_budget() -> String {
    const TENANTS: u64 = 60;
    const BATCH: usize = 16;
    /// Allocations a cold precision request may make, its share of the
    /// batch's included.
    const BUDGET: f64 = 12.48;

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
        let (batch_allocs, _, report) = allocations(|| service.serve_batch(batch));
        allocs += batch_allocs;
        evaluated += report.evaluated;
        assert_eq!(report.responses.len(), batch.len());
    }
    assert_eq!(
        (requests.len(), evaluated),
        (124, 52),
        "the campaign's shape (requests, probes)"
    );
    let per_request = allocs as f64 / requests.len() as f64;
    within(
        "allocations per cold precision request",
        per_request,
        BUDGET,
    )
}

/// The allocation budget of a cluster campaign pass.
///
/// A pass of the RTRM campaign builds its cluster once and then runs
/// the control loop: what it allocates should follow the campaign's
/// shape (control steps, metrics, the fault schedule), not the number
/// of nodes it controls. This test runs the tiny storm campaign on one
/// worker and counts heap allocations. A pass must stay within 66 of
/// them; it measures 54, 17 of which generate the fault schedule.
/// Doubling the nodes must add none outside the schedule, whose event
/// list grows by doubling (one more reallocation at 128 nodes). The
/// pass measured 359, and 488 at 128 nodes, while every node held its
/// own copy of the node spec (a name `String` and a P-state `Vec`) and
/// the facility split built its demand weights and a cleaned copy of
/// them every control step; it measured 113 (budget 125) while the
/// split still returned a fresh `Vec` of caps every control step, 60 of
/// them in the tiny pass, where the cluster now keeps that buffer. A
/// per-node or per-step allocation coming back fails here. (The counts
/// are exact, not timings: the headroom is not noise margin.)
fn cluster_alloc_budget() -> String {
    let tiny = ClusterScale::tiny();
    let doubled = ClusterScale {
        nodes: 2 * tiny.nodes,
        ..tiny.clone()
    };
    // the first pass also pays the process's one-time setup
    pass_allocations(&tiny);
    let small = pass_allocations(&tiny);
    let pass = within(
        &format!("allocations of a {}-node pass", tiny.nodes),
        small,
        66,
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
    let what = format!("fault schedule at twice the nodes ({schedule_small} before)");
    let schedule = within(&what, schedule_large, schedule_small + 1);
    format!("{pass}; {schedule}")
}

/// Allocations of one single-worker pass of the storm at `scale`.
fn pass_allocations(scale: &ClusterScale) -> u64 {
    let (allocations, _, outcome) =
        allocations(|| run_profile(SEED, scale, ClusterProfile::FaultTolerant, 1));
    assert!(outcome.completed_jobs > 0, "the pass completes jobs");
    assert!(outcome.throttle_events > 0, "the pass clamps hot nodes");
    allocations
}

/// Allocations of the fault storm a pass at `scale` generates.
fn schedule_allocations(scale: &ClusterScale) -> u64 {
    allocations(|| {
        FaultSchedule::generate(
            &storm_config(SEED, scale.crash_rate),
            scale.nodes,
            scale.horizon_s,
        )
    })
    .0
}
