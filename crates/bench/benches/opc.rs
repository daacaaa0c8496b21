//! Criterion bench for claim C15: aerial-image simulation and OPC iteration
//! cost vs pattern density.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eda_bench::{median_seconds, scaling_threads};
use eda_litho::{run_opc, OpcConfig, OpticalModel};
use std::hint::black_box;

fn grating(pitch: f64, lines: usize) -> (Vec<(f64, f64)>, f64) {
    let offset = 300.0;
    let target = (0..lines)
        .map(|i| {
            let x = offset + i as f64 * pitch;
            (x, x + pitch / 2.0)
        })
        .collect();
    (target, offset * 2.0 + pitch * lines as f64)
}

fn bench_aerial_image(c: &mut Criterion) {
    let model = OpticalModel::default();
    let mut group = c.benchmark_group("aerial_image");
    for lines in [8usize, 16, 32] {
        let (mask, extent) = grating(100.0, lines);
        group.bench_with_input(BenchmarkId::from_parameter(lines), &mask, |b, m| {
            b.iter(|| black_box(model.image(m, extent, 1).0.len()))
        });
    }
    group.finish();
}

fn bench_opc(c: &mut Criterion) {
    let model = OpticalModel::default();
    let mut group = c.benchmark_group("opc");
    group.sample_size(20);
    for pitch in [120.0f64, 90.0] {
        let (target, extent) = grating(pitch, 8);
        group.bench_with_input(BenchmarkId::from_parameter(pitch as u32), &target, |b, t| {
            b.iter(|| {
                black_box(run_opc(&model, t, extent, &OpcConfig::default()).0.final_rms_epe())
            })
        });
    }
    group.finish();
}

/// Thread-scaling row, a labelled PROJECTION (busiest worker's CPU seconds,
/// not a wall clock): a full OPC run (convolutions + fragment corrections)
/// at `EDA_BENCH_THREADS` workers.
fn bench_opc_scaling(_c: &mut Criterion) {
    let model = OpticalModel::default();
    let (target, extent) = grating(110.0, 24);
    for threads in scaling_threads() {
        let cfg = OpcConfig { threads, ..Default::default() };
        let s = median_seconds(5, || {
            run_opc(&model, &target, extent, &cfg).1.projected_wall_s()
        });
        println!("BENCHLINE opc_par/{threads} {s:.9e}");
    }
}

criterion_group!(benches, bench_aerial_image, bench_opc, bench_opc_scaling);
criterion_main!(benches);
