//! Criterion bench for claim C3: baseline-2006 vs advanced-2016 synthesis
//! runtime and the underlying AIG optimization passes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eda_bench::median_seconds;
use eda_logic::{
    optimize_aig, synthesize, Aig, SynthesisEffort, SynthesisOptions,
    DEFAULT_REWRITE_PASSES,
};
use eda_netlist::{generate, Library};
use std::hint::black_box;
use std::time::Instant;

fn bench_synthesis(c: &mut Criterion) {
    let opts = SynthesisOptions::default();
    let mut group = c.benchmark_group("synthesis");
    for gates in [200usize, 500, 1000] {
        let design = generate::random_logic(generate::RandomLogicConfig {
            gates,
            seed: 7,
            ..Default::default()
        })
        .unwrap();
        group.bench_with_input(BenchmarkId::new("baseline2006", gates), &design, |b, d| {
            b.iter(|| {
                black_box(
                    synthesize(
                        d,
                        Library::nand_inv_2006(),
                        SynthesisEffort::Baseline2006,
                        &opts,
                    )
                    .unwrap()
                    .area_um2,
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("advanced2016", gates), &design, |b, d| {
            b.iter(|| {
                black_box(
                    synthesize(
                        d,
                        Library::generic(),
                        SynthesisEffort::Advanced2016,
                        &opts,
                    )
                    .unwrap()
                    .area_um2,
                )
            })
        });
    }
    group.finish();
}

fn bench_aig_passes(c: &mut Criterion) {
    let design = generate::random_logic(generate::RandomLogicConfig {
        gates: 800,
        seed: 3,
        ..Default::default()
    })
    .unwrap();
    let (aig, _) = Aig::from_netlist(&design).unwrap();
    let mut group = c.benchmark_group("aig");
    group.bench_function("balance", |b| b.iter(|| black_box(aig.balance().num_ands())));
    group.bench_function("rewrite", |b| b.iter(|| black_box(aig.rewrite().num_ands())));
    group.bench_function("optimize_script", |b| {
        b.iter(|| black_box(optimize_aig(&aig, DEFAULT_REWRITE_PASSES).0.num_ands()))
    });
    group.finish();
}

/// One `Aig::rewrite` pass over the 10⁴ mesh: the cut kernel plus the
/// ISOP-cost table at the size where synthesis starts to own the flow wall.
fn bench_rewrite_scale(_c: &mut Criterion) {
    let design = generate::scale_mesh(10_000, 1).unwrap();
    let (aig, _) = Aig::from_netlist(&design).unwrap();
    let s = median_seconds(5, || {
        let t = Instant::now();
        black_box(aig.rewrite().num_ands());
        t.elapsed().as_secs_f64()
    });
    println!("BENCHLINE rewrite/mesh10k {s:.9e}");
}

/// One `Aig::rewrite` pass over the balanced 50 k mesh — the graph the
/// first rewrite of `mesh_t1`'s synthesis sees — so a cut-kernel or
/// structural-hash change can be judged without running the flow.
fn bench_rewrite_mesh50k(_c: &mut Criterion) {
    let design = generate::scale_mesh(50_000, 1).unwrap();
    let balanced = Aig::from_netlist(&design).unwrap().0.balance();
    drop(design);
    let s = median_seconds(5, || {
        let t = Instant::now();
        black_box(balanced.rewrite().num_ands());
        t.elapsed().as_secs_f64()
    });
    println!("BENCHLINE rewrite/mesh50k {s:.9e}");
}

criterion_group!(benches, bench_synthesis, bench_aig_passes, bench_rewrite_scale, bench_rewrite_mesh50k);
criterion_main!(benches);
