//! The counting allocator, alone in its test binary: the counters are
//! process-wide, so nothing else may allocate while a count is taken.

use antarex_e2e::alloc::{snapshot, CountingAlloc};
use antarex_e2e::measure::serve_pass;
use antarex_e2e::workload::{Scale, SteadyMix};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn counts_a_known_push_sequence_and_repeats_across_passes() {
    // a Vec<u64> allocates room for 4 on the first push and doubles on
    // the fifth: two calls, 32 + 64 bytes
    let before = snapshot();
    let mut values: Vec<u64> = Vec::new();
    for value in 0..5 {
        values.push(black_box(value));
    }
    let counted = snapshot().since(before);
    black_box(&values);
    assert_eq!(counted.allocs, 2, "first push and the doubling");
    assert_eq!(counted.bytes, 32 + 64);

    // the first pass interns symbol names; the passes after it do
    // identical work and must count identically
    let spec = SteadyMix::at(Scale::Tiny);
    let allocs = || serve_pass(&spec, 2016, 1, None, |_, _, _| {}).pass.allocs;
    let _warm_up = allocs();
    let (second, third) = (allocs(), allocs());
    assert!(second > 0, "a serving pass allocates");
    assert_eq!(second, third, "the same pass must allocate the same");
}
