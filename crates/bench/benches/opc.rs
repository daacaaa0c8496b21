//! Criterion bench for claim C15: aerial-image simulation and OPC iteration
//! cost vs pattern density.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
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
            b.iter(|| black_box(model.image(m, extent).len()))
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
                black_box(run_opc(&model, t, extent, &OpcConfig::default()).final_rms_epe())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_aerial_image, bench_opc);
criterion_main!(benches);
