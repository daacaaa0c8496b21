//! Criterion bench for claim C4: multi-patterning decomposition cost vs
//! pitch and layout size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eda_litho::{decompose, required_masks, ConflictGraph, Layout};
use eda_tech::{Node, SINGLE_EXPOSURE_PITCH_NM};
use std::hint::black_box;

fn bench_decompose(c: &mut Criterion) {
    let mut group = c.benchmark_group("decompose");
    for &(pitch, k) in &[(64.0f64, 2u32), (36.0, 3), (24.0, 4)] {
        let layout = Layout::line_array(24, pitch, 4000.0);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("pitch{pitch}_k{k}")),
            &layout,
            |b, l| {
                b.iter(|| black_box(decompose(l, k, SINGLE_EXPOSURE_PITCH_NM, 8).masks))
            },
        );
    }
    group.finish();
}

/// What `8_litho` runs at N10 on both `flowd_pairs` designs: a 160-wire
/// proxy layout that two masks cannot colour, so the stitch loop spends its
/// whole budget — 80 on the first attempt, 160 on the retry.
fn bench_decompose_flow_sized(c: &mut Criterion) {
    let pitch = Node::N10.spec().metal_pitch_nm;
    let layout = Layout::random_wires(160, pitch, pitch * 40.0, 1);
    let mut group = c.benchmark_group("decompose");
    group.sample_size(10);
    for budget in [80usize, 160] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n10_wires160_k2_budget{budget}")),
            &layout,
            |b, l| b.iter(|| black_box(decompose(l, 2, SINGLE_EXPOSURE_PITCH_NM, budget).stitches)),
        );
    }
    group.finish();
}

fn bench_conflict_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("conflict_graph");
    for count in [50usize, 150, 400] {
        let layout = Layout::random_wires(count, 48.0, 6000.0, 3);
        group.bench_with_input(BenchmarkId::from_parameter(count), &layout, |b, l| {
            b.iter(|| black_box(ConflictGraph::build(l, SINGLE_EXPOSURE_PITCH_NM).num_edges()))
        });
    }
    group.finish();
}

fn bench_required_masks(c: &mut Criterion) {
    let layout = Layout::random_wires(80, 40.0, 3000.0, 5);
    c.bench_function("required_masks_random80", |b| {
        b.iter(|| black_box(required_masks(&layout, SINGLE_EXPOSURE_PITCH_NM)))
    });
}

criterion_group!(
    benches,
    bench_decompose,
    bench_decompose_flow_sized,
    bench_conflict_graph,
    bench_required_masks
);
criterion_main!(benches);
