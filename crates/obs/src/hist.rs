//! Log-bucketed histograms with bounded relative error.
//!
//! The serving stack needs p50/p95/p99/p999 of virtual latencies
//! without keeping every sample: a histogram over geometrically-spaced
//! buckets (DDSketch-style) stores only counts, costs two relaxed
//! atomic operations per [`record`](Histogram::record), and answers
//! any quantile with a guaranteed relative error bound.
//!
//! # Accuracy contract
//!
//! Bucket `i` covers `[MIN·γ^i, MIN·γ^(i+1))` with `γ = 1.05`; a
//! quantile query returns the geometric midpoint `MIN·γ^(i+1/2)` of the
//! bucket the exact rank-`⌈q·n⌉` sample fell into. Because bucketing is
//! monotone, the ranked walk lands in **the same bucket as the exact
//! sorted-slice quantile**, so for any positive finite sample `v` in
//! `[MIN, MAX)` the estimate `e` satisfies `|e − v| / v ≤ √γ − 1`
//! (≈ 2.47%). The property suite in `tests/hist_properties.rs` checks
//! exactly this against exact quantiles over adversarial distributions.
//!
//! # Edge semantics
//!
//! * `NaN` samples are counted in [`Snapshot::nan`] and excluded from
//!   quantiles and the sum — a poisoned sensor must not poison the p99;
//! * samples below [`MIN_VALUE`] — including zero, negatives, and
//!   `-inf` — land in the underflow bucket and report as `0.0`;
//! * samples at or above [`MAX_VALUE`] — including `+inf` — land in the
//!   overflow bucket and report as `+inf`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Geometric bucket growth factor.
pub(crate) const GAMMA: f64 = 1.05;

/// Smallest value representable by a regular bucket (1 ns of virtual
/// time when the unit is seconds).
pub const MIN_VALUE: f64 = 1e-9;

/// Regular buckets between [`MIN_VALUE`] and [`MAX_VALUE`].
pub(crate) const BUCKETS: usize = 1136;

/// Upper edge of the last regular bucket, ≈ `MIN_VALUE · γ^BUCKETS`:
/// the smallest `f64` the bucket formula overflows. It and above report `+inf`.
pub const MAX_VALUE: f64 = 1.177_724_591_518_774_8e15;

/// The guaranteed relative error of quantile estimates over positive
/// finite samples in `[MIN_VALUE, MAX_VALUE)`: `√γ − 1`.
pub fn relative_error_bound() -> f64 {
    GAMMA.sqrt() - 1.0
}

/// The quantiles every exposition reports, in order.
pub const STANDARD_QUANTILES: [f64; 4] = [0.5, 0.95, 0.99, 0.999];

struct Core {
    buckets: Vec<AtomicU64>,
    underflow: AtomicU64,
    overflow: AtomicU64,
    nan: AtomicU64,
    /// Σ of non-NaN samples, stored as f64 bits behind a CAS loop.
    sum_bits: AtomicU64,
}

/// A shareable log-bucketed histogram handle. Cloning shares the
/// underlying buckets: the registry and the instrumented module read
/// and write the same counts — one source of truth.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<Core>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &snap.count)
            .field("sum", &snap.sum)
            .finish_non_exhaustive()
    }
}

/// Everything a histogram knows at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Non-NaN samples recorded (underflow + regular + overflow).
    pub count: u64,
    /// Sum of non-NaN samples.
    pub sum: f64,
    /// NaN samples (excluded from `count`, `sum`, and quantiles).
    pub nan: u64,
    /// Samples below [`MIN_VALUE`] (zero, negative, `-inf`).
    pub underflow: u64,
    /// Samples at or above [`MAX_VALUE`] (including `+inf`).
    pub overflow: u64,
    /// The [`STANDARD_QUANTILES`] estimates, aligned by index
    /// (`None` for every entry when no sample was recorded).
    pub quantiles: [Option<f64>; 4],
}

/// The regular bucket of `value`, `Some(BUCKETS)` for overflow, `None`
/// for underflow; callers have excluded NaN. It is the bucket the
/// formula `⌊ln(value / MIN_VALUE) / ln γ⌋` names (kept as the test
/// oracle `tests::formula_index`), found without a logarithm: a first
/// guess from the sample's exponent and top mantissa bits, corrected by
/// a compare or two against the [`Boundaries`] table.
fn bucket_index(value: f64) -> Option<usize> {
    if value < MIN_VALUE {
        return None; // underflow
    }
    let table = Boundaries::get();
    if value >= table.lower[BUCKETS] {
        return Some(BUCKETS); // overflow sentinel (+inf included)
    }
    let cell = ((value.to_bits() >> CELL_SHIFT) - FIRST_CELL) as usize;
    let mut index = usize::from(table.guess[cell]);
    while value >= table.lower[index + 1] {
        index += 1;
    }
    Some(index)
}

/// Mantissa bits dropped to name a cell: the 4 kept split each octave
/// into 16 cells, narrower than a bucket (≈ 14.2 per octave), so a
/// cell meets at most two buckets.
const CELL_SHIFT: u32 = 52 - 4;

/// The cell of [`MIN_VALUE`], the first a regular sample can land in.
const FIRST_CELL: u64 = MIN_VALUE.to_bits() >> CELL_SHIFT;

/// Cells up to twice [`MAX_VALUE`], which the overflow boundary stays
/// below (checked where the table is built).
const CELLS: usize = (((2.0 * MAX_VALUE).to_bits() >> CELL_SHIFT) - FIRST_CELL) as usize + 1;

/// Where the formula's buckets start, found once per process by
/// bisection over bit patterns, so bucketing is bit-exact against the
/// formula. Fixed-size: nothing on the heap.
struct Boundaries {
    /// `lower[i]`: the smallest `f64` the formula puts in bucket `i` or
    /// above; `lower[BUCKETS]` is where overflow starts.
    lower: [f64; BUCKETS + 1],
    /// The bucket of each cell's smallest value (0 below `MIN_VALUE`).
    guess: [u16; CELLS],
}

impl Boundaries {
    fn get() -> &'static Boundaries {
        static TABLE: std::sync::OnceLock<Boundaries> = std::sync::OnceLock::new();
        TABLE.get_or_init(Boundaries::build)
    }

    fn build() -> Boundaries {
        let mut lower = [MIN_VALUE; BUCKETS + 1];
        for (index, bound) in lower.iter_mut().enumerate().skip(1) {
            *bound = f64::from_bits(first_reaching(index));
        }
        assert!(
            lower[BUCKETS] < 2.0 * MAX_VALUE,
            "the cell table covers the regular buckets"
        );
        let mut guess = [0u16; CELLS];
        let mut index = 0;
        for (cell, slot) in guess.iter_mut().enumerate() {
            let smallest = f64::from_bits((FIRST_CELL + cell as u64) << CELL_SHIFT);
            while index < BUCKETS && smallest >= lower[index + 1] {
                index += 1;
            }
            *slot = index as u16;
        }
        Boundaries { lower, guess }
    }
}

/// The formula's real-valued bucket of a value at or above `MIN_VALUE`.
fn formula(value: f64) -> f64 {
    ((value / MIN_VALUE).ln() / GAMMA.ln()).floor()
}

/// The bits of the smallest positive `f64` the formula puts in bucket
/// `index` or above: gallop out from `MIN_VALUE · γ^index` until the
/// bracket straddles the boundary, then bisect the bit patterns (they
/// order positive floats as their values).
fn first_reaching(index: usize) -> u64 {
    let reaches = |bits: u64| formula(f64::from_bits(bits)) >= index as f64;
    let guess = (MIN_VALUE * GAMMA.powi(index as i32)).to_bits();
    let (mut below, mut reached) = (guess, guess);
    let mut step = 1;
    if reaches(guess) {
        while reaches(below) {
            reached = below;
            below -= step;
            step *= 2;
        }
    } else {
        while !reaches(reached) {
            below = reached;
            reached += step;
            step *= 2;
        }
    }
    while reached - below > 1 {
        let mid = below + (reached - below) / 2;
        if reaches(mid) {
            reached = mid;
        } else {
            below = mid;
        }
    }
    reached
}

fn representative(index: usize) -> f64 {
    MIN_VALUE * GAMMA.powf(index as f64 + 0.5)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            core: Arc::new(Core {
                buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
                underflow: AtomicU64::new(0),
                overflow: AtomicU64::new(0),
                nan: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0f64.to_bits()),
            }),
        }
    }

    /// Records one sample — the hot-path operation: one bucket
    /// increment plus one CAS on the running sum, no locks, no
    /// allocation.
    pub fn record(&self, value: f64) {
        if value.is_nan() {
            self.core.nan.fetch_add(1, Ordering::Relaxed);
            return;
        }
        match bucket_index(value) {
            None => self.core.underflow.fetch_add(1, Ordering::Relaxed),
            Some(BUCKETS) => self.core.overflow.fetch_add(1, Ordering::Relaxed),
            Some(i) => self.core.buckets[i].fetch_add(1, Ordering::Relaxed),
        };
        let mut bits = self.core.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(bits) + value).to_bits();
            match self.core.sum_bits.compare_exchange_weak(
                bits,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(observed) => bits = observed,
            }
        }
    }

    /// Non-NaN samples recorded so far.
    pub(crate) fn count(&self) -> u64 {
        let c = &self.core;
        c.underflow.load(Ordering::Relaxed)
            + c.overflow.load(Ordering::Relaxed)
            + c.buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .sum::<u64>()
    }

    /// The rank-`⌈q·n⌉` quantile estimate (see the module accuracy
    /// contract). `None` when nothing was recorded or `q` is NaN.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if q.is_nan() {
            return None;
        }
        let c = &self.core;
        let underflow = c.underflow.load(Ordering::Relaxed);
        let overflow = c.overflow.load(Ordering::Relaxed);
        let counts: Vec<u64> = c
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let n = underflow + overflow + counts.iter().sum::<u64>();
        if n == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
        if rank <= underflow {
            return Some(0.0);
        }
        let mut seen = underflow;
        for (i, &count) in counts.iter().enumerate() {
            seen += count;
            if rank <= seen {
                return Some(representative(i));
            }
        }
        Some(f64::INFINITY)
    }

    /// A consistent point-in-time summary.
    pub fn snapshot(&self) -> Snapshot {
        let c = &self.core;
        let mut quantiles = [None; 4];
        for (slot, &q) in quantiles.iter_mut().zip(STANDARD_QUANTILES.iter()) {
            *slot = self.quantile(q);
        }
        Snapshot {
            count: self.count(),
            sum: f64::from_bits(c.sum_bits.load(Ordering::Relaxed)),
            nan: c.nan.load(Ordering::Relaxed),
            underflow: c.underflow.load(Ordering::Relaxed),
            overflow: c.overflow.load(Ordering::Relaxed),
            quantiles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bucketing the table reproduces: the formula, applied to
    /// every non-NaN sample.
    pub(super) fn formula_index(value: f64) -> Option<usize> {
        if value < MIN_VALUE {
            return None; // underflow
        }
        let idx = formula(value);
        if idx >= BUCKETS as f64 {
            Some(BUCKETS) // overflow sentinel
        } else {
            Some(idx.max(0.0) as usize)
        }
    }

    fn next_up(value: f64) -> f64 {
        f64::from_bits(value.to_bits() + 1)
    }

    fn next_down(value: f64) -> f64 {
        f64::from_bits(value.to_bits() - 1)
    }

    #[test]
    fn every_boundary_is_bit_exact_against_the_formula() {
        let table = Boundaries::get();
        for (index, &bound) in table.lower.iter().enumerate() {
            assert_eq!(
                formula_index(bound),
                Some(index),
                "bucket {index} starts at {bound:e}"
            );
            for value in [next_down(bound), bound, next_up(bound)] {
                assert_eq!(bucket_index(value), formula_index(value), "{value:e}");
            }
        }
        for value in [
            MIN_VALUE,
            next_down(MIN_VALUE),
            MAX_VALUE,
            next_down(MAX_VALUE),
            next_up(MAX_VALUE),
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 3.0,
            0.0,
            -0.0,
            -1.0,
            1.0,
        ] {
            assert_eq!(bucket_index(value), formula_index(value), "{value:e}");
        }
        // a cell's guess is never past the bucket of the cell's values
        let mut value = MIN_VALUE;
        while value < 4.0 * MAX_VALUE {
            for probe in [value, next_up(value), value * 1.013, value * 1.031] {
                assert_eq!(bucket_index(probe), formula_index(probe), "{probe:e}");
            }
            value *= 1.0173;
        }
    }

    #[test]
    fn max_value_is_where_overflow_starts() {
        assert_eq!(Boundaries::get().lower[BUCKETS], MAX_VALUE);
    }

    #[test]
    fn nan_and_infinities_record_where_they_did() {
        let h = Histogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        let snap = h.snapshot();
        assert_eq!((snap.nan, snap.overflow, snap.underflow), (1, 1, 1));
        assert_eq!(snap.count, 2);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.count(), 0);
        let snap = h.snapshot();
        assert_eq!(snap.quantiles, [None; 4]);
    }

    #[test]
    fn single_sample_is_recovered_within_the_bound() {
        let h = Histogram::new();
        h.record(0.125);
        let est = h.quantile(0.5).unwrap();
        assert!((est - 0.125).abs() / 0.125 <= relative_error_bound());
        assert_eq!(h.count(), 1);
        assert!((h.snapshot().sum - 0.125).abs() < 1e-15);
    }

    #[test]
    fn nan_is_counted_but_never_poisons_quantiles() {
        let h = Histogram::new();
        h.record(f64::NAN);
        h.record(1.0);
        let snap = h.snapshot();
        assert_eq!(snap.nan, 1);
        assert_eq!(snap.count, 1);
        assert!((snap.sum - 1.0).abs() < 1e-15);
        let p50 = h.quantile(0.5).unwrap();
        assert!((p50 - 1.0).abs() <= relative_error_bound());
    }

    #[test]
    fn underflow_and_overflow_report_their_sentinels() {
        let h = Histogram::new();
        h.record(-3.0);
        h.record(0.0);
        h.record(f64::NEG_INFINITY);
        h.record(f64::INFINITY);
        assert_eq!(h.quantile(0.01), Some(0.0), "underflow reports 0");
        assert_eq!(h.quantile(1.0), Some(f64::INFINITY), "overflow reports inf");
        let snap = h.snapshot();
        assert_eq!(snap.underflow, 3);
        assert_eq!(snap.overflow, 1);
        assert_eq!(snap.count, 4);
    }

    #[test]
    fn quantile_walk_is_monotone() {
        let h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64 * 1e-3);
        }
        let mut last = 0.0;
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let est = h.quantile(q).unwrap();
            assert!(est >= last, "quantiles must be monotone in q");
            last = est;
        }
    }

    #[test]
    fn clone_shares_the_buckets() {
        let h = Histogram::new();
        let view = h.clone();
        h.record(2.0);
        assert_eq!(view.count(), 1, "clones must read the same counts");
    }

    #[test]
    fn bucket_index_is_monotone_across_the_range() {
        let mut last = None;
        let mut v = MIN_VALUE / 4.0;
        while v < MAX_VALUE * 4.0 {
            let idx = bucket_index(v).map_or(-1i64, |i| i as i64);
            if let Some(prev) = last {
                assert!(idx >= prev, "bucketing must preserve order at {v}");
            }
            last = Some(idx);
            v *= 1.31;
        }
    }
}
