//! Pinned route outcomes. Every deterministic `RouteOutcome` field the
//! searches feed — including `cells_expanded` and `peak_window_cells`, which
//! any change of visit order or window would move — must equal the recorded
//! value: dense, saturated coarse-grid and windowed configurations. The `lee`
//! and `region16` rows date from before the search kernels were rebuilt and
//! have never moved — `region16` not even when the region partition it was
//! named for went, since the partition never shaped QoR;
//! the negotiated dense rows were re-recorded once, when the batched dense
//! passes were folded into the one schedule (each ends at overflow ≤ its old
//! value; table in CHANGES.md). After an *intended* QoR change the failure
//! message is the whole table as the code now computes it, ready to paste
//! over `PINS`.
//!
//! The independent pass auditor runs over the windowed and dense routes in
//! `assert_one_audited_schedule`.

use eda::netlist::{generate, Netlist};
use eda::place::{place_global, Die, GlobalConfig, Placement};
use eda::route::{route, route_audited, RouteAlgorithm, RouteConfig, RouteOutcome, RuleDeck};

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
        // A coarse grid on a thin stack: usage far above capacity, history
        // bumped every round.
        (
            "coarse16x3",
            RouteConfig { deck: RuleDeck::simple(3), grid_cells: 16, ..Default::default() },
        ),
        ("region16", RouteConfig { window_margin: 8, ..Default::default() }),
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

/// `(design, config, fingerprint)`: `lee` and `region16` rows recorded at
/// commit 65098fd, the rest at the commit that made one schedule the only
/// one.
const PINS: &[(&str, &str, &str)] = &[
    ("random300", "linesearch", "wl=8029 vias=591 ovfl=0 conns=701 fallbacks=3 expanded=112731 iters=2 ripup=[3, 0] peak=1024"),
    ("random300", "astar", "wl=7499 vias=604 ovfl=0 conns=701 fallbacks=0 expanded=43942 iters=2 ripup=[6, 0] peak=1024"),
    ("random300", "lee", "wl=7475 vias=468 ovfl=336 conns=701 fallbacks=0 expanded=152098 iters=1 ripup=[336] peak=1024"),
    ("random300", "coarse16x3", "wl=3904 vias=707 ovfl=1307 conns=673 fallbacks=4351 expanded=266616 iters=7 ripup=[1623, 1376, 1338, 1326, 1320, 1314, 1307] peak=256"),
    ("random300", "region16", "wl=8211 vias=597 ovfl=0 conns=701 fallbacks=5 expanded=94605 iters=2 ripup=[5, 0] peak=1024"),
    ("random500", "linesearch", "wl=15372 vias=1507 ovfl=0 conns=1162 fallbacks=469 expanded=426830 iters=3 ripup=[649, 20, 0] peak=1024"),
    ("random500", "astar", "wl=13284 vias=1364 ovfl=2 conns=1162 fallbacks=0 expanded=622453 iters=7 ripup=[538, 58, 29, 16, 5, 6, 2] peak=1024"),
    ("random500", "lee", "wl=12306 vias=802 ovfl=1453 conns=1162 fallbacks=0 expanded=244396 iters=1 ripup=[1453] peak=1024"),
    ("random500", "coarse16x3", "wl=6306 vias=1031 ovfl=3521 conns=1099 fallbacks=7495 expanded=483002 iters=7 ripup=[3917, 3586, 3553, 3551, 3537, 3523, 3521] peak=256"),
    ("random500", "region16", "wl=15398 vias=1755 ovfl=2 conns=1162 fallbacks=670 expanded=343083 iters=7 ripup=[685, 41, 9, 8, 1, 1, 2] peak=1024"),
    ("fabric8x16", "linesearch", "wl=31566 vias=4770 ovfl=9202 conns=4041 fallbacks=25979 expanded=4268451 iters=7 ripup=[11894, 9851, 9498, 9350, 9318, 9242, 9202] peak=1024"),
    ("fabric8x16", "astar", "wl=31660 vias=4852 ovfl=9235 conns=4041 fallbacks=0 expanded=4093096 iters=7 ripup=[11309, 9845, 9534, 9369, 9306, 9280, 9235] peak=1024"),
    ("fabric8x16", "lee", "wl=28416 vias=1793 ovfl=12091 conns=4041 fallbacks=0 expanded=499351 iters=1 ripup=[12091] peak=1024"),
    ("fabric8x16", "coarse16x3", "wl=14448 vias=1938 ovfl=11568 conns=3674 fallbacks=25194 expanded=1093264 iters=7 ripup=[12223, 11646, 11614, 11602, 11578, 11580, 11568] peak=256"),
    ("fabric8x16", "region16", "wl=31500 vias=4605 ovfl=9194 conns=4041 fallbacks=25855 expanded=2904404 iters=7 ripup=[11626, 9639, 9404, 9294, 9235, 9204, 9194] peak=1024"),
    ("mesh2000", "linesearch", "wl=29796 vias=4235 ovfl=8646 conns=3280 fallbacks=21052 expanded=5305300 iters=7 ripup=[9888, 8880, 8803, 8709, 8679, 8670, 8646] peak=1024"),
    ("mesh2000", "astar", "wl=29690 vias=4258 ovfl=8620 conns=3280 fallbacks=0 expanded=5160129 iters=7 ripup=[9895, 8897, 8801, 8725, 8673, 8638, 8620] peak=1024"),
    ("mesh2000", "lee", "wl=22862 vias=1009 ovfl=10627 conns=3280 fallbacks=0 expanded=384359 iters=1 ripup=[10627] peak=1024"),
    ("mesh2000", "coarse16x3", "wl=12480 vias=1476 ovfl=9600 conns=2899 fallbacks=20162 expanded=1317568 iters=7 ripup=[10129, 9715, 9686, 9656, 9628, 9604, 9600] peak=256"),
    ("mesh2000", "region16", "wl=29416 vias=4362 ovfl=8570 conns=3280 fallbacks=20866 expanded=2873177 iters=7 ripup=[9726, 8733, 8656, 8643, 8602, 8571, 8570] peak=1024"),
];

fn assert_pinned(designs: &[(&str, (Netlist, Placement))]) {
    let mut table = String::new();
    let mut stale = Vec::new();
    for (dname, (netlist, placement)) in designs {
        for (cname, cfg) in configs() {
            let want = PINS.iter().find(|(d, c, _)| d == dname && *c == cname).map(|p| p.2);
            let got = fingerprint(&route(netlist, placement, &cfg));
            table.push_str(&format!("    (\"{dname}\", \"{cname}\", \"{got}\"),\n"));
            if want != Some(got.as_str()) {
                stale.push(format!("{dname}/{cname}"));
            }
        }
    }
    assert!(stale.is_empty(), "pins differ for {stale:?}; table now:\n{table}");
}

fn random_designs() -> Vec<(&'static str, (Netlist, Placement))> {
    vec![("random300", random(300)), ("random500", random(500))]
}

/// The two designs that saturate the dense 32-cell grid (the `flowd_pairs`
/// fabric and a mesh): ~4 k connections and seven rip-up rounds each.
fn saturated_designs() -> Vec<(&'static str, (Netlist, Placement))> {
    vec![
        ("fabric8x16", placed(generate::switch_fabric(8, 16).unwrap())),
        ("mesh2000", placed(generate::scale_mesh(2_000, 1).unwrap())),
    ]
}

#[test]
fn random_logic_outcomes_match_the_pins() {
    assert_pinned(&random_designs());
}

#[test]
#[cfg_attr(debug_assertions, ignore = "10 saturated routes are minutes unoptimized; run in release")]
fn saturated_design_outcomes_match_the_pins() {
    assert_pinned(&saturated_designs());
}

/// Every route here goes through `route_audited`, which forces the
/// independent pass auditor on (release builds compile its `debug_assert`
/// form out): on the windowed and the dense route, after every pass the grid
/// must be exactly the sum of the committed paths. Auditing observes and
/// never steers, so each audited route equals the plain one.
fn assert_one_audited_schedule(designs: &[(&str, (Netlist, Placement))]) {
    for (dname, (netlist, placement)) in designs {
        for algorithm in [RouteAlgorithm::LineSearch, RouteAlgorithm::AStar] {
            for (shape, window_margin) in [("windowed", 8), ("dense", 0)] {
                let cfg = RouteConfig { algorithm, window_margin, ..Default::default() };
                let audited = route_audited(netlist, placement, &cfg);
                let tag = format!("{dname}/{algorithm:?} {shape}");
                assert_eq!(fingerprint(&audited), fingerprint(&route(netlist, placement, &cfg)), "{tag}");
            }
        }
    }
}

#[test]
fn random_logic_routes_follow_one_audited_schedule() {
    assert_one_audited_schedule(&random_designs());
}

#[test]
#[cfg_attr(debug_assertions, ignore = "saturated routes are minutes unoptimized; run in release")]
fn saturated_design_routes_follow_one_audited_schedule() {
    assert_one_audited_schedule(&saturated_designs());
}
