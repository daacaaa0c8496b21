//! Route outcomes pinned from the commit before the search kernels were
//! rebuilt on `SearchScratch` (PR 16). Every deterministic `RouteOutcome`
//! field the searches feed — including `cells_expanded` and
//! `peak_window_cells`, which any change of visit order or window would
//! move — must equal the recorded value at 1, 2 and 4 threads, on both
//! schedules (legacy batched and region waves) and in the saturated
//! coarse-grid regime.
//!
//! After an *intended* QoR change the failure message is the whole table
//! as the code now computes it, ready to paste over `PINS`.

use eda::netlist::{generate, Netlist};
use eda::place::{place_global, Die, GlobalConfig, Placement};
use eda::route::{route, RouteAlgorithm, RouteConfig, RouteOutcome, RuleDeck};

fn placed(n: Netlist) -> (Netlist, Placement) {
    let die = Die::for_netlist(&n, 0.7);
    let p = place_global(&n, die, &GlobalConfig::default());
    (n, p)
}

fn random(gates: usize) -> (Netlist, Placement) {
    placed(
        generate::random_logic(generate::RandomLogicConfig { gates, seed: 9, ..Default::default() })
            .unwrap(),
    )
}

fn configs() -> Vec<(&'static str, RouteConfig)> {
    let with = |algorithm| RouteConfig { algorithm, ..Default::default() };
    vec![
        ("linesearch", RouteConfig::default()),
        ("astar", with(RouteAlgorithm::AStar)),
        ("lee", with(RouteAlgorithm::LeeBfs)),
        // The flow supervisor's coarse-grid retry on a thin stack: usage far
        // above capacity, history bumped every round.
        ("coarse16x3", RouteConfig { deck: RuleDeck::simple(3), ..Default::default() }.coarsened()),
        ("region16", RouteConfig { window_margin: 8, region_size: 16, ..Default::default() }),
    ]
}

fn fingerprint(o: &RouteOutcome) -> String {
    format!(
        "wl={} vias={} ovfl={} conns={} fallbacks={} expanded={} iters={} ripup={:?} peak={}",
        o.wirelength,
        o.vias,
        o.overflow,
        o.connections,
        o.linesearch_fallbacks,
        o.cells_expanded,
        o.iterations,
        o.ripup_overflow,
        o.peak_window_cells
    )
}

/// `(design, config, fingerprint)` recorded at commit 65098fd.
const PINS: &[(&str, &str, &str)] = &[
    ("random300", "linesearch", "wl=8221 vias=596 ovfl=0 conns=701 fallbacks=11 expanded=129502 iters=2 ripup=[41, 0] peak=1024"),
    ("random300", "astar", "wl=7515 vias=615 ovfl=0 conns=701 fallbacks=0 expanded=45019 iters=2 ripup=[8, 0] peak=1024"),
    ("random300", "lee", "wl=7475 vias=468 ovfl=336 conns=701 fallbacks=0 expanded=152098 iters=1 ripup=[336] peak=1024"),
    ("random300", "coarse16x3", "wl=3906 vias=713 ovfl=1313 conns=673 fallbacks=4373 expanded=266680 iters=7 ripup=[1707, 1363, 1333, 1319, 1319, 1316, 1313] peak=256"),
    ("random300", "region16", "wl=8211 vias=597 ovfl=0 conns=701 fallbacks=5 expanded=94605 iters=2 ripup=[5, 0] peak=1024"),
    ("random500", "linesearch", "wl=16466 vias=2067 ovfl=14 conns=1162 fallbacks=1172 expanded=1183400 iters=7 ripup=[797, 76, 33, 31, 38, 7, 14] peak=1024"),
    ("random500", "astar", "wl=13288 vias=1472 ovfl=8 conns=1162 fallbacks=0 expanded=634850 iters=7 ripup=[703, 38, 29, 15, 12, 7, 8] peak=1024"),
    ("random500", "lee", "wl=12306 vias=802 ovfl=1453 conns=1162 fallbacks=0 expanded=244396 iters=1 ripup=[1453] peak=1024"),
    ("random500", "coarse16x3", "wl=6322 vias=1057 ovfl=3531 conns=1099 fallbacks=7548 expanded=482320 iters=7 ripup=[4022, 3654, 3572, 3544, 3541, 3533, 3531] peak=256"),
    ("random500", "region16", "wl=15398 vias=1755 ovfl=2 conns=1162 fallbacks=670 expanded=343083 iters=7 ripup=[685, 41, 9, 8, 1, 1, 2] peak=1024"),
    ("fabric8x16", "linesearch", "wl=32410 vias=5336 ovfl=9508 conns=4041 fallbacks=26803 expanded=4158636 iters=7 ripup=[12059, 9790, 9723, 9689, 9625, 9562, 9508] peak=1024"),
    ("fabric8x16", "astar", "wl=32276 vias=5305 ovfl=9481 conns=4041 fallbacks=0 expanded=4012641 iters=7 ripup=[11624, 9922, 9750, 9681, 9613, 9523, 9481] peak=1024"),
    ("fabric8x16", "lee", "wl=28416 vias=1793 ovfl=12091 conns=4041 fallbacks=0 expanded=499351 iters=1 ripup=[12091] peak=1024"),
    ("fabric8x16", "coarse16x3", "wl=14458 vias=1949 ovfl=11578 conns=3674 fallbacks=25591 expanded=1044644 iters=7 ripup=[12110, 11684, 11620, 11610, 11594, 11582, 11578] peak=256"),
    ("fabric8x16", "region16", "wl=31500 vias=4605 ovfl=9194 conns=4041 fallbacks=25855 expanded=2904404 iters=7 ripup=[11626, 9639, 9404, 9294, 9235, 9204, 9194] peak=1024"),
    ("mesh2000", "linesearch", "wl=31166 vias=5363 ovfl=8910 conns=3280 fallbacks=21347 expanded=5092341 iters=7 ripup=[10096, 9061, 9031, 9052, 9022, 8983, 8910] peak=1024"),
    ("mesh2000", "astar", "wl=31244 vias=5343 ovfl=8930 conns=3280 fallbacks=0 expanded=4959953 iters=7 ripup=[10204, 9037, 9073, 9036, 8983, 8977, 8930] peak=1024"),
    ("mesh2000", "lee", "wl=22862 vias=1009 ovfl=10627 conns=3280 fallbacks=0 expanded=384359 iters=1 ripup=[10627] peak=1024"),
    ("mesh2000", "coarse16x3", "wl=12556 vias=1568 ovfl=9676 conns=2899 fallbacks=20159 expanded=1307765 iters=7 ripup=[9929, 9884, 9825, 9774, 9748, 9698, 9676] peak=256"),
    ("mesh2000", "region16", "wl=29416 vias=4362 ovfl=8570 conns=3280 fallbacks=20866 expanded=2873177 iters=7 ripup=[9726, 8733, 8656, 8643, 8602, 8571, 8570] peak=1024"),
];

fn assert_pinned(designs: &[(&str, (Netlist, Placement))]) {
    let mut table = String::new();
    let mut stale = Vec::new();
    for (dname, (netlist, placement)) in designs {
        for (cname, cfg) in configs() {
            let want = PINS.iter().find(|(d, c, _)| d == dname && *c == cname).map(|p| p.2);
            for threads in [1, 2, 4] {
                let out = route(netlist, placement, &RouteConfig { threads, ..cfg.clone() });
                let got = fingerprint(&out);
                if threads == 1 {
                    table.push_str(&format!("    (\"{dname}\", \"{cname}\", \"{got}\"),\n"));
                }
                if want != Some(got.as_str()) {
                    stale.push(format!("{dname}/{cname} threads={threads}"));
                }
            }
        }
    }
    assert!(stale.is_empty(), "pins differ for {stale:?}; table at 1 thread now:\n{table}");
}

#[test]
fn random_logic_outcomes_match_the_parent_at_1_2_4_threads() {
    assert_pinned(&[("random300", random(300)), ("random500", random(500))]);
}

/// The two designs that saturate the dense 32-cell grid (the `flowd_pairs`
/// fabric and a mesh): ~4 k connections and seven rip-up rounds each.
#[test]
#[cfg_attr(debug_assertions, ignore = "60 saturated routes are minutes unoptimized; run in release")]
fn saturated_design_outcomes_match_the_parent_at_1_2_4_threads() {
    assert_pinned(&[
        ("fabric8x16", placed(generate::switch_fabric(8, 16).unwrap())),
        ("mesh2000", placed(generate::scale_mesh(2_000, 1).unwrap())),
    ]);
}
