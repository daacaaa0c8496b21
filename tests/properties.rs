//! Property-based tests (proptest) on the workspace's core invariants.

use eda::litho::{decompose, ConflictGraph, Layout};
use eda::logic::{isop, Aig, Cube, TruthTable};
use eda::netlist::generate;
use eda::place::{anneal, place_global, AnnealConfig, Die, GlobalConfig};
use eda::route::{probe_window, GCell, RoutingGrid, RuleDeck, SearchScratch, SearchWindow};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ISOP of any function is exact: the cover evaluates to the function.
    #[test]
    fn isop_exact_for_arbitrary_functions(bits in any::<u64>(), n in 1usize..=4) {
        let f = TruthTable::from_bits(n, bits);
        let cover = isop(&f, &f);
        for m in 0..(1usize << n) {
            let a: Vec<bool> = (0..n).map(|v| m >> v & 1 == 1).collect();
            prop_assert_eq!(cover.eval(&a), f.eval(&a));
        }
    }

    /// Cube containment is consistent with evaluation.
    #[test]
    fn cube_containment_semantics(
        lits_a in proptest::collection::vec((0usize..6, any::<bool>()), 0..4),
        lits_b in proptest::collection::vec((0usize..6, any::<bool>()), 0..4),
    ) {
        let mut a = Cube::full(6);
        for (v, val) in lits_a { a = a.with_literal(v, val); }
        let mut b = Cube::full(6);
        for (v, val) in lits_b { b = b.with_literal(v, val); }
        if a.contains(&b) {
            // Every minterm of b is in a.
            for m in 0..64usize {
                let assignment: Vec<bool> = (0..6).map(|v| m >> v & 1 == 1).collect();
                if b.eval(&assignment) {
                    prop_assert!(a.eval(&assignment));
                }
            }
        }
    }

    /// AIG construction from any netlist is simulation-equivalent.
    #[test]
    fn aig_roundtrip_equivalence(seed in 0u64..50, gates in 50usize..200) {
        let d = generate::random_logic(generate::RandomLogicConfig {
            gates,
            seed,
            flop_fraction: 0.0,
            ..Default::default()
        }).unwrap();
        let (aig, _) = Aig::from_netlist(&d).unwrap();
        let rewritten = aig.rewrite();
        let pats: Vec<u64> = (0..aig.num_pis())
            .map(|i| seed.wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(i as u32))
            .collect();
        let (golden, _) = d.simulate64(&pats, &[]);
        prop_assert_eq!(&aig.simulate64(&pats), &golden);
        prop_assert_eq!(&rewritten.simulate64(&pats), &golden);
        prop_assert!(rewritten.num_ands() <= aig.num_ands());
    }

    /// DSATUR always produces a proper colouring.
    #[test]
    fn coloring_always_proper(count in 5usize..40, seed in 0u64..25, pitch in 30.0f64..120.0) {
        let layout = Layout::random_wires(count, pitch, 2500.0, seed);
        let g = ConflictGraph::build(&layout, 80.0);
        let colors = g.dsatur();
        for v in 0..g.nodes {
            for &w in g.neighbours(v) {
                prop_assert_ne!(colors[v], colors[w as usize]);
            }
        }
    }

    /// Legal decompositions never assign conflicting features one mask.
    #[test]
    fn decomposition_legality(count in 5usize..25, seed in 0u64..20) {
        let layout = Layout::random_wires(count, 60.0, 2000.0, seed);
        let d = decompose(&layout, 3, 80.0, 6);
        if d.legal {
            let g = ConflictGraph::build(&d.layout, 80.0);
            for v in 0..g.nodes {
                for &w in g.neighbours(v) {
                    prop_assert_ne!(d.colors[v], d.colors[w as usize]);
                }
            }
            prop_assert!(d.masks <= 3);
        }
    }

    /// Every search returns its route as a canonical corner list: first
    /// corner the source, last the target, every run on one row or column
    /// and non-empty, consecutive runs turning, every corner inside the
    /// search window. Line search in its probe window, A* and Lee on the
    /// whole grid.
    #[test]
    fn linesearch_paths_well_formed(
        sx in 0u32..20, sy in 0u32..20, dx in 0u32..20, dy in 0u32..20,
    ) {
        let grid = RoutingGrid::new(20, 20, &RuleDeck::simple(6));
        let src = GCell::new(sx, sy);
        let dst = GCell::new(dx, dy);
        let (probe, full) = (probe_window(&grid, src, dst), SearchWindow::full(&grid));
        let mut scratch = SearchScratch::new();
        // On an empty grid level-0 probes always cross.
        let line = scratch.mikami_tabuchi_in(&grid, src, dst, 8, probe);
        prop_assert!(line.is_some(), "line search must succeed on an empty grid");
        let astar = scratch.astar_in(&grid, src, dst, 1.0, full);
        let lee = scratch.lee_bfs_in(&grid, src, dst, full);
        for (name, found, win) in [("line", line, probe), ("A*", astar, full), ("Lee", lee, full)] {
            let (path, _) = found.expect("the grid has no hard obstacles");
            prop_assert_eq!(path[0], src, "{}", name);
            prop_assert_eq!(*path.last().unwrap(), dst, "{}", name);
            prop_assert!(path.iter().all(|&c| win.contains(c)), "{}: {:?} leaves {:?}", name, path, win);
            for run in path.windows(2) {
                let (a, b) = (run[0], run[1]);
                prop_assert!(a != b && (a.x == b.x || a.y == b.y), "{}: {:?} -> {:?} is no run", name, a, b);
            }
            for turn in path.windows(3) {
                let (a, b, c) = (turn[0], turn[1], turn[2]);
                prop_assert!((a.y == b.y) != (b.y == c.y), "{}: runs through {:?} do not turn", name, b);
            }
            let length: u32 = path.windows(2).map(|r| r[0].manhattan(&r[1])).sum();
            prop_assert_eq!(length, src.manhattan(&dst), "{}: a detour on an empty grid", name);
        }
    }

    /// Annealing never loses placement legality (one cell per site).
    #[test]
    fn annealing_keeps_legality(seed in 0u64..10) {
        let d = generate::parity_tree(32).unwrap();
        let die = Die::for_netlist(&d, 0.7);
        let mut p = place_global(&d, die, &GlobalConfig { iterations: 3, seed });
        anneal(&d, &mut p, &AnnealConfig { moves_per_cell: 20, seed }, None, None);
        let mut seen = std::collections::HashSet::new();
        for i in 0..d.num_instances() {
            let pos = p.position(eda::netlist::InstId::from_index(i));
            let key = ((pos.x * 1e3) as i64, (pos.y * 1e3) as i64);
            prop_assert!(seen.insert(key), "overlap at {:?}", pos);
        }
    }

    /// Netlist generators always produce valid netlists.
    #[test]
    fn generators_always_valid(seed in 0u64..40, gates in 20usize..150) {
        let d = generate::random_logic(generate::RandomLogicConfig {
            gates,
            seed,
            ..Default::default()
        }).unwrap();
        prop_assert!(d.validate().is_ok());
        let h = generate::hierarchical_design(1 + (seed % 4) as usize, gates.min(60), seed).unwrap();
        prop_assert!(h.validate().is_ok());
    }

    /// Hierarchical mesh fabrics are DAG-legal (validate() proves no
    /// combinational cycle and every connection in-bounds) at every shape
    /// and seed, and every instance carries its tile's block label.
    #[test]
    fn mesh_fabrics_are_dag_legal(
        rows in 1usize..5, cols in 1usize..5, tile_gates in 1usize..60, seed in 0u64..20,
    ) {
        let m = generate::mesh_fabric(rows, cols, tile_gates, 4, seed).unwrap();
        prop_assert!(m.validate().is_ok());
        let labelled = m.instances().filter(|(_, i)| i.block().is_some()).count();
        prop_assert!(labelled > 0, "mesh instances must carry tile labels");
    }

    /// The mesh size cap is respected for any cap that admits the shape,
    /// and `scale_mesh` lands within a few percent of its target while
    /// never exceeding the global ceiling.
    #[test]
    fn mesh_size_caps_respected(
        rows in 1usize..4, cols in 1usize..4, tile_gates in 50usize..400,
        cap_slack in 0usize..200, seed in 0u64..10,
    ) {
        // Smallest mesh of this shape: one gate per tile plus spine/flops.
        let floor = generate::mesh_fabric_with_cap(rows, cols, 1, 4, seed, usize::MAX)
            .unwrap()
            .num_instances();
        let cap = floor + cap_slack;
        let m = generate::mesh_fabric_with_cap(rows, cols, tile_gates, 4, seed, cap).unwrap();
        prop_assert!(m.num_instances() <= cap, "{} > cap {cap}", m.num_instances());
        prop_assert!(m.validate().is_ok());
    }

    /// `scale_mesh` tracks its target within tolerance and stays DAG-legal.
    #[test]
    fn scale_mesh_tracks_target(target in 5_000usize..40_000, seed in 0u64..8) {
        let m = generate::scale_mesh(target, seed).unwrap();
        prop_assert!(m.validate().is_ok());
        let n = m.num_instances();
        prop_assert!(n <= generate::MAX_SCALE_INSTANCES);
        // Within 15% of the target at 10⁴-scale (the tiling quantizes).
        prop_assert!(
            n * 100 >= target * 85 && n * 100 <= target * 115,
            "scale_mesh({target}) produced {n} instances"
        );
    }
}
