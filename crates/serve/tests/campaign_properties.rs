//! The two things a campaign made single: the batch iterator and the
//! arrival generator.
//!
//! * **One batch iterator.** Over random `(seed, window, rate)`,
//!   [`Batching::batches`] yields no empty batch, concatenates back to
//!   the arrival sequence, keeps every batch inside one window, and
//!   equals the chunks of the window loop `driver::drive` (and three
//!   copies of it in the experiment harness) used to carry — that loop
//!   is transcribed once below, as the oracle.
//! * **One arrival generator.** `arrivals` and `bursty_arrivals` were
//!   two implementations and are now two calls into the campaign's
//!   generator. **The digests below were captured from the parent
//!   commit's build (a0dfafe) before `driver.rs` was edited**, so
//!   merging the generators cannot have moved one `f64` bit.

use antarex_serve::driver::{
    arrivals, bursty_arrivals, Batching, BurstProfile, Campaign, Cohort, DriverConfig,
};
use antarex_serve::TuningRequest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The parent commit's window loop, verbatim but for collecting the
/// chunks instead of serving them.
fn parent_windows(events: &[TuningRequest], window_s: f64) -> Vec<&[TuningRequest]> {
    let mut windows = Vec::new();
    let mut start = 0;
    let mut window_end = window_s;
    while start < events.len() {
        let end = events[start..]
            .iter()
            .position(|e| e.arrival_s >= window_end)
            .map(|offset| start + offset)
            .unwrap_or(events.len());
        if end == start {
            window_end += window_s;
            continue;
        }
        windows.push(&events[start..end]);
        start = end;
    }
    windows
}

#[test]
fn the_batch_iterator_is_the_parent_window_loop() {
    let mut rng = StdRng::seed_from_u64(0xBA7C4);
    for case in 0..200 {
        let window_s = rng.gen_range(0.05..12.0);
        let config = DriverConfig {
            tenants: rng.gen_range(1usize..24),
            archetypes: 3,
            duration_s: rng.gen_range(1.0..90.0),
            rate_per_tenant_hz: rng.gen_range(0.01..2.0),
            batch_window_s: window_s,
            seed: rng.gen(),
        };
        let events = arrivals(&config);
        let batches: Vec<&[TuningRequest]> = Batching::Window(window_s).batches(&events).collect();
        assert_eq!(
            batches,
            parent_windows(&events, window_s),
            "case {case}: {config:?}"
        );
        assert_eq!(batches.concat(), events, "case {case}: {config:?}");
        for batch in &batches {
            let (first, last) = (batch[0], batch[batch.len() - 1]);
            assert!(
                last.arrival_s - first.arrival_s < window_s,
                "case {case}: a batch spans {first:?}..{last:?} at window {window_s}"
            );
        }

        let count = rng.gen_range(1usize..40);
        let chunks: Vec<&[TuningRequest]> = Batching::Count(count).batches(&events).collect();
        assert_eq!(
            chunks,
            events.chunks(count).collect::<Vec<_>>(),
            "case {case}"
        );
    }
}

/// FNV-1a over every request's tenant and arrival bits.
fn digest(requests: &[TuningRequest]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for request in requests {
        let bytes = request
            .tenant
            .to_le_bytes()
            .into_iter()
            .chain(request.arrival_s.to_bits().to_le_bytes());
        for byte in bytes {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    }
    hash
}

#[test]
fn arrival_streams_match_the_parent_commit() {
    let smoke = DriverConfig::smoke(7);
    let plain = arrivals(&smoke);
    assert_eq!(plain.len(), 89);
    assert_eq!(digest(&plain), 0x9d57_d7c9_4815_e823);
    let bursty = bursty_arrivals(&smoke, &BurstProfile::aggressive());
    assert_eq!(bursty.len(), 551);
    assert_eq!(digest(&bursty), 0x7f23_c9b0_7e90_36b9);

    // the ad1 mixed stream (`admission_exp::mixed_arrivals(7,
    // &AdmissionScale::tiny())` at the parent): 64 Poisson tenants and
    // 16 bursty ones with ids offset past them, both on the campaign
    // seed's own streams
    let mixed = Campaign {
        cohorts: vec![
            Cohort::new(64, 16, 0.05),
            Cohort {
                first: 64,
                burst: Some(BurstProfile::aggressive()),
                ..Cohort::new(16, 16, 0.2)
            },
        ],
        ..Campaign::new(7, 30.0, Batching::Window(5.0))
    }
    .arrivals();
    assert_eq!(mixed.len(), 778);
    assert_eq!(digest(&mixed), 0xee6b_44b5_3dba_2f40);
}
