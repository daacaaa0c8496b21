//! Criterion bench for claim C5: router algorithms under simple and
//! multi-patterned rule decks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eda_bench::median_seconds;
use eda_core::FlowConfig;
use eda_netlist::generate;
use eda_place::{place_global, place_multilevel, Die, GlobalConfig, MultilevelConfig};
use eda_route::{
    probe_window, route, GCell, RouteAlgorithm, RouteConfig, RoutingGrid, RuleDeck, SearchScratch,
    SearchWindow,
};
use eda_tech::Node;
use std::hint::black_box;
use std::time::Instant;

fn bench_full_route(c: &mut Criterion) {
    let design = generate::random_logic(generate::RandomLogicConfig {
        gates: 400,
        seed: 9,
        ..Default::default()
    })
    .unwrap();
    let die = Die::for_netlist(&design, 0.7);
    let placement = place_global(&design, die, &GlobalConfig::default());
    let mut group = c.benchmark_group("route_full");
    group.sample_size(10);
    for alg in [RouteAlgorithm::LeeBfs, RouteAlgorithm::AStar, RouteAlgorithm::LineSearch] {
        group.bench_with_input(BenchmarkId::from_parameter(format!("{alg:?}")), &alg, |b, &a| {
            b.iter(|| {
                black_box(
                    route(
                        &design,
                        &placement,
                        &RouteConfig { algorithm: a, ..Default::default() },
                    )
                    .wirelength,
                )
            })
        });
    }
    group.finish();
}

fn bench_single_connection(c: &mut Criterion) {
    let grid = RoutingGrid::new(64, 64, &RuleDeck::simple(6));
    let src = GCell::new(3, 5);
    let dst = GCell::new(58, 60);
    let (full, probe) = (SearchWindow::full(&grid), probe_window(&grid, src, dst));
    // One-shot searches: each iteration pays for a fresh scratch.
    let mut group = c.benchmark_group("route_2pin_64x64");
    group.bench_function("lee_bfs", |b| {
        b.iter(|| {
            let found = SearchScratch::new().lee_bfs_in(&grid, src, dst, full);
            black_box(found.unwrap().0.len())
        })
    });
    group.bench_function("astar", |b| {
        b.iter(|| {
            let found = SearchScratch::new().astar_in(&grid, src, dst, 1.0, full);
            black_box(found.unwrap().0.len())
        })
    });
    group.bench_function("mikami_tabuchi", |b| {
        b.iter(|| {
            let found = SearchScratch::new().mikami_tabuchi_in(&grid, src, dst, 10, probe);
            black_box(found.unwrap().0.len())
        })
    });
    group.finish();
}

/// Wall-clock rows for the two search kernels in the regimes the flow
/// benchmark puts them in (seconds per search, on a reused scratch as the
/// router runs them; line search blocked and open at level 1), and for
/// `flowd_pairs`' fabric routed dense on the
/// flow's 32-cell grid and on a saturated 16-cell one (seconds for both).
fn bench_search_kernels(_c: &mut Criterion) {
    // The saturated regime: every edge at 40x capacity with six rounds of
    // history, so a step costs hundreds of quantised units while a search
    // expands a few dozen cells.
    let mut grid = RoutingGrid::new(16, 16, &RuleDeck::simple(3));
    for y in 0..16 {
        for x in 0..15 {
            grid.add_usage(GCell::new(x, y), GCell::new(x + 1, y), 40 * grid.cap_h as i32);
            grid.add_usage(GCell::new(y, x), GCell::new(y, x + 1), 40 * grid.cap_v as i32);
        }
    }
    for _ in 0..6 {
        grid.bump_history();
    }
    let pairs: Vec<(GCell, GCell)> = (0..256u32)
        .map(|i| (GCell::new(i % 16, i / 16), GCell::new((i * 7 + 3) % 16, (i * 5 + 11) % 16)))
        .collect();
    let win = SearchWindow::full(&grid);
    let mut scratch = SearchScratch::new();
    let s = median_seconds(9, || {
        let t = Instant::now();
        for &(src, dst) in &pairs {
            black_box(scratch.astar_in(&grid, src, dst, 1.0, win));
        }
        t.elapsed().as_secs_f64() / pairs.len() as f64
    });
    println!("BENCHLINE astar/saturated16 {s:.9e}");

    // A wall of full edges with one gap between the pins: no level-0 probe
    // crosses, the level-1 probe through the gap does.
    let mut grid = RoutingGrid::new(48, 48, &RuleDeck::simple(6));
    for y in (0..48).filter(|&y| y != 20) {
        grid.add_usage(GCell::new(23, y), GCell::new(24, y), grid.cap_h as i32);
    }
    let (src, dst) = (GCell::new(5, 10), GCell::new(40, 30));
    let win = SearchWindow::full(&grid);
    assert!(scratch.mikami_tabuchi_in(&grid, src, dst, 1, win).is_none(), "level 0 is blocked");
    assert!(scratch.mikami_tabuchi_in(&grid, src, dst, 2, win).is_some(), "level 1 crosses");
    let s = median_seconds(9, || {
        let t = Instant::now();
        for _ in 0..200 {
            black_box(scratch.mikami_tabuchi_in(&grid, src, dst, 12, win));
        }
        t.elapsed().as_secs_f64() / 200.0
    });
    println!("BENCHLINE linesearch/level1_congested {s:.9e}");

    // The flood most level-1 searches of the 50 k mesh pay: an open grid
    // where one full edge beside each L corner stops the level-0 probes
    // short, so level 1 spawns a window-high line from every cell of the
    // source's and target's probes before one crosses.
    let mut grid = RoutingGrid::new(128, 128, &RuleDeck::simple(6));
    let (src, dst) = (GCell::new(10, 20), GCell::new(110, 100));
    grid.add_usage(GCell::new(105, 20), GCell::new(106, 20), grid.cap_h as i32);
    grid.add_usage(GCell::new(10, 95), GCell::new(10, 96), grid.cap_v as i32);
    let win = SearchWindow::full(&grid);
    assert!(scratch.mikami_tabuchi_in(&grid, src, dst, 1, win).is_none(), "level 0 is blocked");
    assert!(scratch.mikami_tabuchi_in(&grid, src, dst, 2, win).is_some(), "level 1 crosses");
    let s = median_seconds(9, || {
        let t = Instant::now();
        for _ in 0..50 {
            black_box(scratch.mikami_tabuchi_in(&grid, src, dst, 12, win));
        }
        t.elapsed().as_secs_f64() / 50.0
    });
    println!("BENCHLINE linesearch/level1_open {s:.9e}");

    // `flowd_pairs`' fabric on the dense 32-cell grid, then on a 16-cell
    // grid with a quarter of the capacity: seven rounds at ~4 000 overflow.
    let design = generate::switch_fabric(8, 16).unwrap();
    let die = Die::for_netlist(&design, 0.7);
    let placement = place_global(&design, die, &GlobalConfig::default());
    let dense = RouteConfig::default();
    let coarse = RouteConfig { grid_cells: 16, ..Default::default() };
    let s = median_seconds(3, || {
        let t = Instant::now();
        black_box(route(&design, &placement, &dense).overflow);
        black_box(route(&design, &placement, &coarse).overflow);
        t.elapsed().as_secs_f64()
    });
    println!("BENCHLINE route/fabric8x16_dense {s:.9e}");
}

/// The scale tier's route on its own: the 10⁴ mesh, multilevel-placed with
/// the scale preset's placer knobs, routed with the preset's windowed
/// config (seconds per route), plus the cells
/// the searches expanded — a count that must not move under performance
/// work.
fn bench_region_route(_c: &mut Criterion) {
    let cfg = FlowConfig::scale_2016(Node::N28, 10_000);
    let design = generate::scale_mesh(10_000, 1).unwrap();
    let placement = place_multilevel(
        &design,
        Die::for_netlist(&design, cfg.utilization),
        &MultilevelConfig {
            // `4_place`'s multilevel cluster size.
            cluster_size: 64,
            refine_moves_per_cell: cfg.anneal_moves_per_cell,
            seed: cfg.seed,
        },
    )
    .placement;
    let rcfg = RouteConfig {
        algorithm: cfg.router,
        deck: RuleDeck::simple(cfg.node.spec().typical_metal_layers),
        grid_cells: cfg.route_grid_cells,
        ripup_iterations: cfg.ripup_iterations,
        window_margin: cfg.route_window_margin,
    };
    let s = median_seconds(5, || {
        let t = Instant::now();
        black_box(route(&design, &placement, &rcfg).wirelength);
        t.elapsed().as_secs_f64()
    });
    println!("BENCHLINE route/mesh10k_regions {s:.9e}");
    let cells = route(&design, &placement, &rcfg).cells_expanded;
    println!("BENCHLINE route:cells/mesh10k_regions {cells}");
}

criterion_group!(
    benches,
    bench_full_route,
    bench_single_connection,
    bench_search_kernels,
    bench_region_route
);
criterion_main!(benches);
