//! Criterion bench for claim C14's substrate: fault simulation and ATPG.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eda_dft::{
    compressed_fault_sim, fault_list, fault_sim, insert_scan, random_patterns,
    run_atpg, AtpgConfig, TestAccess,
};
use eda_netlist::{generate, CombView};
use std::hint::black_box;

fn bench_fault_sim(c: &mut Criterion) {
    let design = generate::switch_fabric(4, 4).unwrap();
    let view = CombView::new(&design).unwrap();
    let faults = fault_list(&design);
    let mut group = c.benchmark_group("fault_sim");
    for patterns in [32usize, 64, 128] {
        let pats = random_patterns(&view, patterns, 7);
        group.bench_with_input(BenchmarkId::from_parameter(patterns), &pats, |b, p| {
            b.iter(|| black_box(fault_sim(&design, &view, &faults, p).num_detected))
        });
    }
    group.finish();
}

/// What `10_dft` runs on the larger `flowd_pairs` design: the scan-inserted
/// 8x16 fabric, its full fault list, 96 patterns (one full block and one
/// partial).
fn bench_fault_sim_flow_sized(c: &mut Criterion) {
    let design = insert_scan(&generate::switch_fabric(8, 16).unwrap(), 4).unwrap().netlist;
    let view = CombView::new(&design).unwrap();
    let faults = fault_list(&design);
    let pats = random_patterns(&view, 96, 7);
    let mut group = c.benchmark_group("fault_sim");
    group.sample_size(10);
    group.bench_function("fabric8x16_96", |b| {
        b.iter(|| black_box(fault_sim(&design, &view, &faults, &pats).num_detected))
    });
    group.finish();
}

fn bench_atpg(c: &mut Criterion) {
    let design = generate::ripple_carry_adder(8).unwrap();
    let view = CombView::new(&design).unwrap();
    let faults = fault_list(&design);
    let mut group = c.benchmark_group("atpg");
    group.sample_size(10);
    group.bench_function("adder8_full_flow", |b| {
        b.iter(|| {
            black_box(
                run_atpg(
                    &design,
                    &view,
                    &faults,
                    &AtpgConfig { random_patterns: 16 },
                )
                .coverage,
            )
        })
    });
    group.finish();
}

fn bench_compression(c: &mut Criterion) {
    let design = generate::switch_fabric(4, 2).unwrap();
    let view = CombView::new(&design).unwrap();
    let faults = fault_list(&design);
    let access = TestAccess {
        scan_pins: 2,
        internal_chains: 16,
        flops: design.flops().len(),
        shift_mhz: 50.0,
    };
    c.bench_function("compressed_fault_sim_128", |b| {
        b.iter(|| {
            black_box(compressed_fault_sim(&design, &view, &faults, &access, 128, 3).coverage)
        })
    });
}

criterion_group!(
    benches,
    bench_fault_sim,
    bench_fault_sim_flow_sized,
    bench_atpg,
    bench_compression
);
criterion_main!(benches);
