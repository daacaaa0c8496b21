//! Criterion bench for `1_synthesis`'s equivalence check on the two designs
//! `flowd_pairs` sends: `check_equivalence` of each input design against its
//! advanced-2016 mapped netlist, at the flow's first-attempt BDD budget.

use criterion::{criterion_group, criterion_main, Criterion};
use eda_bench::median_seconds;
use eda_logic::{check_equivalence, synthesize, SynthesisEffort};
use eda_netlist::{generate, Library, Netlist};
use std::hint::black_box;
use std::time::Instant;

/// `1_synthesis`'s first-attempt node budget (`flow.rs`'s `EC_BUDGET`).
const FLOW_BUDGET: usize = 1 << 19;

fn mapped(design: &Netlist) -> Netlist {
    synthesize(design, Library::generic(), SynthesisEffort::Advanced2016)
        .unwrap()
        .netlist
}

fn median_check(design: &Netlist, mapped: &Netlist, budget: usize) -> f64 {
    median_seconds(9, || {
        let t = Instant::now();
        black_box(check_equivalence(design, mapped, &[], &[], budget).unwrap());
        t.elapsed().as_secs_f64()
    })
}

fn bench_ec(_c: &mut Criterion) {
    let mult = generate::array_multiplier(8).unwrap();
    let mult_mapped = mapped(&mult);
    let fabric = generate::switch_fabric(8, 16).unwrap();
    let fabric_mapped = mapped(&fabric);
    println!("BENCHLINE ec/mult8 {:.9e}", median_check(&mult, &mult_mapped, FLOW_BUDGET));
    println!("BENCHLINE ec/fabric8x16 {:.9e}", median_check(&fabric, &fabric_mapped, FLOW_BUDGET));
    // A 32-node budget cannot hold mult:8, so its 16 inputs are enumerated by
    // the 64-lane simulation fallback: one `CombView` per side, built once,
    // and 2^10 `eval64` calls on each.
    println!("BENCHLINE ec/fallback_mult8 {:.9e}", median_check(&mult, &mult_mapped, 32));
}

criterion_group!(benches, bench_ec);
criterion_main!(benches);
