//! Criterion bench for claim C2: technology mapping onto CMOS vs
//! controlled-polarity libraries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eda_bench::median_seconds;
use eda_logic::{map_aig, map_naive, optimize_aig, Aig, DEFAULT_REWRITE_PASSES};
use eda_netlist::{generate, Library};
use std::hint::black_box;
use std::time::Instant;

fn bench_map(c: &mut Criterion) {
    let design = generate::random_logic(generate::RandomLogicConfig {
        gates: 600,
        seed: 2,
        ..Default::default()
    })
    .unwrap();
    let (aig, bnd) = Aig::from_netlist(&design).unwrap();
    let mut group = c.benchmark_group("map");
    group.bench_function("naive_nand", |b| {
        b.iter(|| black_box(map_naive(&aig, &bnd, Library::nand_inv_2006()).unwrap().area_um2))
    });
    for (name, lib) in
        [("generic_area", Library::generic()), ("polarity_area", Library::controlled_polarity())]
    {
        let lib_ref = lib.clone();
        group.bench_with_input(BenchmarkId::from_parameter(name), &lib_ref, |b, l| {
            b.iter(|| black_box(map_aig(&aig, &bnd, l.clone()).unwrap().area_um2))
        });
    }
    group.finish();
}

fn bench_xor_rich(c: &mut Criterion) {
    let parity = generate::parity_tree(64).unwrap();
    let (aig, bnd) = Aig::from_netlist(&parity).unwrap();
    let mut group = c.benchmark_group("map_parity64");
    group.bench_function("cmos", |b| {
        b.iter(|| black_box(map_aig(&aig, &bnd, Library::generic()).unwrap().cells))
    });
    group.bench_function("polarity", |b| {
        b.iter(|| black_box(map_aig(&aig, &bnd, Library::controlled_polarity()).unwrap().cells))
    });
    group.finish();
}

/// The hierarchical mapper on the optimized 10⁴ mesh: serial wall clock plus
/// the two work counts that scale it. `map:claim` must stay at one visit per
/// realized gate — it was 102× that when every block walked its full cone.
fn bench_map_scale(_c: &mut Criterion) {
    let design = generate::scale_mesh(10_000, 1).unwrap();
    let (aig, bnd) = Aig::from_netlist(&design).unwrap();
    let (opt, _) = optimize_aig(&aig, DEFAULT_REWRITE_PASSES);
    let map = || map_aig(&opt, &bnd, Library::generic()).unwrap();
    let s = median_seconds(5, || {
        let t = Instant::now();
        black_box(map().cells);
        t.elapsed().as_secs_f64()
    });
    let m = map();
    println!("BENCHLINE map/mesh10k {s:.9e}");
    println!("BENCHLINE map:cuts/mesh10k {}", m.cuts_enumerated);
    println!("BENCHLINE map:claim/mesh10k {}", m.cone_visits);
}

criterion_group!(benches, bench_map, bench_xor_rich, bench_map_scale);
criterion_main!(benches);
