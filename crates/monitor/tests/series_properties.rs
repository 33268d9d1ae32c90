//! Property suite for `TimeSeries`.
//!
//! `mean_since` walks back from the newest sample while the series is
//! time-ordered and filters every retained sample otherwise; both
//! promise the *bits* of the body they replaced, which survives here as
//! the oracle: filter the retained samples on `time >= since`, collect
//! them, sum oldest first, divide by the count.
//!
//! A series allocates its storage as samples arrive instead of up
//! front; [`PreSized`] keeps the up-front body as the oracle that
//! growth changes nothing a caller can see.
//!
//! A `SeriesSet` packs many series into one buffer and runs the same
//! ring code over each member's segment; a standalone `TimeSeries` per
//! member is the oracle that the packing changes nothing either.

use antarex_monitor::series::{Sample, SeriesSet, SeriesView, TimeSeries};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// The pre-optimization body of `mean_since`, verbatim, over the
/// retained samples oldest first.
fn mean_since_oracle<'a>(samples: impl Iterator<Item = &'a Sample>, since: f64) -> Option<f64> {
    let window: Vec<Sample> = samples.filter(|s| s.time >= since).copied().collect();
    if window.is_empty() {
        return None;
    }
    Some(window.iter().map(|s| s.value).sum::<f64>() / window.len() as f64)
}

fn random_value(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..16) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => 0.0,
        5 => -rng.gen::<f64>() * 1e6,
        _ => rng.gen::<f64>() * 10.0,
    }
}

/// Every `since` worth asking about: each retained time exactly (the
/// inclusive boundary), just either side of it, both infinities, NaN.
fn probes(series: &TimeSeries) -> Vec<f64> {
    let mut probes = vec![f64::NEG_INFINITY, f64::INFINITY, f64::NAN, 0.0, -1.0, 1e12];
    for sample in series.iter() {
        probes.extend([sample.time, sample.time - 0.25, sample.time + 0.25]);
    }
    probes
}

fn assert_matches_oracle(series: &TimeSeries, context: &str) {
    for since in probes(series) {
        assert_eq!(
            series.mean_since(since).map(f64::to_bits),
            mean_since_oracle(series.iter(), since).map(f64::to_bits),
            "{context}: mean_since({since}) over {series:?}"
        );
    }
}

#[test]
fn time_ordered_series_match_the_filter_oracle() {
    for seed in 0..48 {
        let mut rng = StdRng::seed_from_u64(seed);
        let capacity = rng.gen_range(1..12);
        let mut series = TimeSeries::with_capacity(capacity);
        assert_matches_oracle(&series, "empty");
        // up to four times the capacity, so the ring wraps repeatedly
        let mut time = if seed % 8 == 0 {
            f64::NEG_INFINITY
        } else {
            0.0
        };
        for step in 0..rng.gen_range(0..4 * capacity + 2) {
            // steps of zero make runs of ties at one timestamp
            time += [0.0, 0.0, 0.5, 1.0, 3.0][rng.gen_range(0..5usize)];
            if seed % 8 == 1 && step == 2 * capacity {
                time = f64::INFINITY;
            }
            series.push(time, random_value(&mut rng));
            assert_matches_oracle(&series, &format!("seed {seed} step {step}"));
        }
    }
}

#[test]
fn out_of_order_and_nan_times_take_the_filter_path() {
    for seed in 0..48 {
        let mut rng = StdRng::seed_from_u64(1_000 + seed);
        let capacity = rng.gen_range(1..12);
        let mut series = TimeSeries::with_capacity(capacity);
        for step in 0..rng.gen_range(1..4 * capacity + 2) {
            let time = match rng.gen_range(0..12) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => f64::from(rng.gen_range(0..8)),
            };
            series.push(time, random_value(&mut rng));
            assert_matches_oracle(&series, &format!("seed {seed} step {step}"));
        }
        // the series may look ordered again once the ring has turned
        // over, and `clear` starts a new one
        for step in 0..2 * capacity {
            series.push(100.0 + step as f64, random_value(&mut rng));
            assert_matches_oracle(&series, &format!("seed {seed} refill {step}"));
        }
        series.clear();
        for step in 0..capacity + 1 {
            series.push(step as f64, random_value(&mut rng));
            assert_matches_oracle(&series, &format!("seed {seed} cleared {step}"));
        }
    }
}

#[test]
fn a_window_is_not_assumed_to_be_a_suffix_after_a_late_sample() {
    // a walk back from the newest sample would stop at the late one and
    // miss the first
    let mut series = TimeSeries::with_capacity(8);
    series.push(5.0, 1.0);
    series.push(1.0, 100.0);
    series.push(6.0, 3.0);
    assert_eq!(series.mean_since(5.0), Some(2.0));
    // a NaN time is never in a window but must not end the walk either
    let mut series = TimeSeries::with_capacity(8);
    series.push(2.0, 1.0);
    series.push(f64::NAN, 100.0);
    series.push(3.0, 3.0);
    assert_eq!(series.mean_since(2.0), Some(2.0));
}

#[test]
fn the_boundary_sample_is_counted_in_both_windows() {
    // consecutive windows [0, ..] then [2, ..]: the sample stamped
    // exactly 2 belongs to both
    let mut series = TimeSeries::with_capacity(8);
    series.extend([(1.0, 10.0), (2.0, 20.0)]);
    assert_eq!(series.mean_since(0.0), Some(15.0));
    series.push(3.0, 40.0);
    assert_eq!(series.mean_since(2.0), Some(30.0));
}

#[test]
fn debug_rendering_shows_stored_state_only() {
    // crash-recovery reports byte-compare this rendering: whether the
    // series ever took a late sample must not show in it
    let mut late = TimeSeries::with_capacity(2);
    late.extend([(2.0, 1.0), (1.0, 1.0), (2.0, 2.0)]);
    let mut ordered = TimeSeries::with_capacity(2);
    ordered.extend([(0.0, 1.0), (1.0, 1.0), (2.0, 2.0)]);
    assert_eq!(format!("{late:?}"), format!("{ordered:?}"));
    assert_eq!(
        format!("{ordered:?}"),
        "TimeSeries { samples: [Sample { time: 1.0, value: 1.0 }, Sample { time: 2.0, value: 2.0 }], \
         capacity: 2, total_pushed: 3, ewma: Some(1.2), ewma_alpha: 0.2 }"
    );
}

/// The series as it was before it grew on demand: the whole window
/// reserved at construction, the oldest sample evicted when full.
struct PreSized {
    samples: VecDeque<Sample>,
    capacity: usize,
    total_pushed: u64,
    ewma: Option<f64>,
    ewma_alpha: f64,
}

impl PreSized {
    fn with_capacity(capacity: usize) -> Self {
        PreSized {
            samples: VecDeque::with_capacity(capacity),
            capacity,
            total_pushed: 0,
            ewma: None,
            ewma_alpha: 0.2,
        }
    }

    fn push(&mut self, time: f64, value: f64) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back(Sample { time, value });
        self.total_pushed += 1;
        self.ewma = Some(match self.ewma {
            Some(prev) => prev + self.ewma_alpha * (value - prev),
            None => value,
        });
    }
}

impl std::fmt::Debug for PreSized {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimeSeries")
            .field("samples", &self.samples)
            .field("capacity", &self.capacity)
            .field("total_pushed", &self.total_pushed)
            .field("ewma", &self.ewma)
            .field("ewma_alpha", &self.ewma_alpha)
            .finish()
    }
}

#[test]
fn a_series_grown_on_demand_matches_the_pre_sized_one() {
    for seed in 0..24 {
        let mut rng = StdRng::seed_from_u64(2_000 + seed);
        let capacity = rng.gen_range(1..601);
        let mut grown = TimeSeries::with_capacity(capacity);
        let mut oracle = PreSized::with_capacity(capacity);
        let ordered = seed % 2 == 0;
        let mut time = 0.0;
        // past the bound, so eviction runs over storage that grew
        let pushes = capacity + rng.gen_range(1..capacity + 9);
        for step in 0..pushes {
            time = if ordered {
                time + [0.0, 0.5, 1.0][rng.gen_range(0..3usize)]
            } else {
                match rng.gen_range(0..10) {
                    0 => f64::NAN,
                    1 => f64::NEG_INFINITY,
                    _ => f64::from(rng.gen_range(0..64)),
                }
            };
            let value = random_value(&mut rng);
            grown.push(time, value);
            oracle.push(time, value);
            assert_eq!(grown.len(), oracle.samples.len(), "seed {seed} step {step}");
            let retained = oracle.samples[rng.gen_range(0..oracle.samples.len())].time;
            for since in [f64::NEG_INFINITY, f64::NAN, time, retained, retained + 0.25] {
                assert_eq!(
                    grown.mean_since(since).map(f64::to_bits),
                    mean_since_oracle(oracle.samples.iter(), since).map(f64::to_bits),
                    "seed {seed} step {step}: mean_since({since})"
                );
            }
            if step % 97 == 0 || step + 1 == capacity || step + 1 == pushes {
                assert_eq!(
                    format!("{grown:?}"),
                    format!("{oracle:?}"),
                    "seed {seed} step {step}"
                );
            }
        }
    }
}

/// A member of the set under test: its oracle, how often it is fed and
/// how its times run.
struct Fed {
    oracle: TimeSeries,
    weight: u32,
    ordered: bool,
    time: f64,
}

impl Fed {
    fn next_time(&mut self, rng: &mut StdRng) -> f64 {
        self.time = if self.ordered {
            self.time + [0.0, 0.5, 1.0, 3.0][rng.gen_range(0..4usize)]
        } else {
            match rng.gen_range(0..10) {
                0 => f64::NAN,
                1 => f64::NEG_INFINITY,
                2 => f64::INFINITY,
                _ => f64::from(rng.gen_range(0..8)),
            }
        };
        self.time
    }
}

fn bits(samples: impl Iterator<Item = Sample>) -> Vec<(u64, u64)> {
    samples
        .map(|s| (s.time.to_bits(), s.value.to_bits()))
        .collect()
}

fn assert_member_matches(view: SeriesView<'_>, oracle: &TimeSeries, context: &str) {
    assert_eq!(view.len(), oracle.len(), "{context}");
    assert_eq!(
        bits(view.iter().copied()),
        bits(oracle.iter().copied()),
        "{context}"
    );
    for since in probes(oracle) {
        assert_eq!(
            view.mean_since(since).map(f64::to_bits),
            oracle.mean_since(since).map(f64::to_bits),
            "{context}: mean_since({since})"
        );
    }
    assert_eq!(format!("{view:?}"), format!("{oracle:?}"), "{context}");
}

#[test]
fn every_member_of_a_packed_set_matches_a_standalone_series() {
    for seed in 0..28u64 {
        let mut rng = StdRng::seed_from_u64(3_000 + seed);
        // bounds below, at and past the first segment, none a power of
        // two past it, so doublings clamp and full rings wrap
        let capacity = [1, 2, 3, 4, 5, 9, 37][seed as usize % 7];
        let members = rng.gen_range(3..7);
        let mut set = SeriesSet::new(capacity);
        let mut fed: Vec<Fed> = Vec::new();
        let mut keys: Vec<u64> = Vec::new();
        for step in 0..3 * members * capacity + 24 {
            // members join at random header positions while others grow,
            // so a new segment lands after segments that later double
            if fed.len() < members && (fed.len() < 3 || rng.gen_range(0..8) == 0) {
                let at = rng.gen_range(0..fed.len() + 1);
                let key = step as u64;
                set.insert(at, key);
                keys.insert(at, key);
                fed.insert(
                    at,
                    Fed {
                        oracle: TimeSeries::with_capacity(capacity),
                        weight: rng.gen_range(1..9),
                        ordered: rng.gen_range(0..3) > 0,
                        time: 0.0,
                    },
                );
            }
            let total: u32 = fed.iter().map(|f| f.weight).sum();
            let mut pick = rng.gen_range(0..total);
            let index = fed
                .iter()
                .position(|f| {
                    let hit = pick < f.weight;
                    pick = pick.saturating_sub(f.weight);
                    hit
                })
                .expect("a member is picked");
            let time = fed[index].next_time(&mut rng);
            let value = random_value(&mut rng);
            set.push(index, time, value);
            fed[index].oracle.push(time, value);
            assert!(set.keys().copied().eq(keys.iter().copied()));
            for (at, member) in fed.iter().enumerate() {
                let context = format!("seed {seed} step {step} member {at}");
                assert_member_matches(set.get(at), &member.oracle, &context);
            }
        }
        // a clone is the same set
        let copy = set.clone();
        assert_eq!(format!("{copy:?}"), format!("{set:?}"), "seed {seed}");
    }
}
