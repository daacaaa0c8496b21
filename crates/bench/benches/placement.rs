//! Criterion bench for claim C9: placement throughput vs thread count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use eda_netlist::generate;
use eda_place::{
    anneal, legalize, place_global, place_multilevel, place_parallel, AnnealConfig, Die,
    GlobalConfig, MultilevelConfig, ParallelConfig, Placement,
};
use std::hint::black_box;

fn bench_parallel_placement(c: &mut Criterion) {
    let design = generate::random_logic(generate::RandomLogicConfig {
        gates: 2000,
        seed: 5,
        ..Default::default()
    })
    .unwrap();
    let die = Die::for_netlist(&design, 0.7);
    let mut group = c.benchmark_group("place_parallel");
    group.sample_size(10);
    group.throughput(Throughput::Elements(design.num_instances() as u64));
    for threads in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| {
                black_box(
                    place_parallel(
                        &design,
                        die,
                        &ParallelConfig {
                            threads: t,
                            stripes: 4,
                            moves_per_cell: 10,
                            seed: 3,
                        },
                    )
                    .hpwl_final,
                )
            })
        });
    }
    group.finish();
}

fn bench_stages(c: &mut Criterion) {
    let design = generate::switch_fabric(4, 4).unwrap();
    let die = Die::for_netlist(&design, 0.7);
    let mut group = c.benchmark_group("place_stages");
    group.bench_function("global", |b| {
        b.iter(|| {
            black_box(
                place_global(&design, die, &GlobalConfig::default()).total_hpwl(&design),
            )
        })
    });
    let placed = place_global(&design, die, &GlobalConfig::default());
    group.bench_function("anneal", |b| {
        b.iter(|| {
            let mut p = placed.clone();
            black_box(
                anneal(
                    &design,
                    &mut p,
                    &AnnealConfig { moves_per_cell: 20, ..Default::default() },
                    None,
                    None,
                )
                .hpwl_after,
            )
        })
    });
    group.finish();
}

/// The kernels under the scale tier's placer, at a size where they show:
/// the 10⁴ mesh (the 4×4 fabric above fits in cache and has no occupied
/// runs to speak of).
fn bench_kernels(c: &mut Criterion) {
    let design = generate::scale_mesh(10_000, 3).unwrap();
    let die = Die::for_netlist(&design, 0.7);
    let mut group = c.benchmark_group("place_kernels_mesh10k");
    group.sample_size(10);
    // Every cell on the centre site: one occupied run as long as the netlist.
    let piled = Placement::new(&design, die);
    group.bench_function("legalize", |b| {
        b.iter(|| {
            let mut p = piled.clone();
            legalize(&mut p, &design);
            black_box(p)
        })
    });
    let placed = place_multilevel(
        &design,
        die,
        &MultilevelConfig { refine_moves_per_cell: 0, ..Default::default() },
    )
    .placement;
    group.bench_function("total_hpwl", |b| b.iter(|| black_box(placed.total_hpwl(&design))));
    group.bench_function("anneal", |b| {
        b.iter(|| {
            let mut p = placed.clone();
            black_box(
                anneal(
                    &design,
                    &mut p,
                    &AnnealConfig { moves_per_cell: 1, ..Default::default() },
                    None,
                    None,
                )
                .accepted,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_parallel_placement, bench_stages, bench_kernels);
criterion_main!(benches);
