//! The panel's 18 claims (C1–C16, B1, B2) as data.
//!
//! Each function regenerates one claim and returns a [`Claim`]: its tables
//! and notes, already formatted, and its `shape` — EXPERIMENTS.md's **Match**
//! column transcribed as a predicate over the measured numbers (each function
//! quotes the wording it transcribes). `experiments run` prints the claims and
//! exits non-zero on a failed shape; `tests/claims.rs` asserts every shape.

use crate::Table;
use eda_core::{run_flow, FlowConfig, FlowTuner, StoreConfig};
use eda_dft::{
    bypass_fault_sim, compressed_fault_sim, fault_list, insert_scan, reorder_chains, run_atpg,
    scan_wirelength, AtpgConfig, TestAccess,
};
use eda_litho::{required_masks, run_opc, Layout, OpcConfig, OpticalModel};
use eda_logic::{synthesize, SynthesisEffort};
use eda_netlist::{generate, CombView, Library, Netlist, NetlistError};
use eda_place::{
    anneal, place_global, place_hierarchical, place_parallel, plan_buffers, AnnealConfig,
    CongestionMap, Die, GlobalConfig, ParallelConfig,
};
use eda_power::{
    analyze, dark_silicon_sweep, node_power_sweep, plan_decaps, Activity, ActivityConfig,
    PowerConfig, PowerGrid,
};
use eda_route::{route, RouteAlgorithm, RouteConfig, RuleDeck};
use eda_smart::{best_iot_node, codesign_flow, node_selection_sweep, sequential_flow, DutyCycle};
use eda_sta::{TimingAnalysis, TimingConfig};
use eda_tech::{CostModel, DesignStartModel, Node, PatterningPlan};
use std::error::Error;
use std::fmt;

/// One regenerated claim.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// Claim id: `c1` … `c16`, `b1`, `b2`.
    pub id: &'static str,
    /// The panel's statement, with its panelist.
    pub statement: &'static str,
    /// The measured tables, in print order.
    pub tables: Vec<Table>,
    /// Lines printed under the tables: summaries and host notes.
    pub notes: Vec<String>,
    /// `Ok` when the measurement has the shape EXPERIMENTS.md's Match column
    /// records, else the wording of every check that failed.
    pub shape: Result<(), String>,
}

/// A claim, or the kernel error that stopped it.
pub type ClaimResult = Result<Claim, Box<dyn Error>>;

/// Claim ids in print order.
pub const IDS: [&str; 18] = [
    "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9", "c10", "c11", "c12", "c13", "c14",
    "c15", "c16", "b1", "b2",
];

/// Regenerates claim `id`. `threads` (`0` = all cores) and `store` reach the
/// one claim that runs whole flows, C11.
pub fn run(id: &str, threads: usize, store: Option<&StoreConfig>) -> ClaimResult {
    match id {
        "c1" => c1(),
        "c2" => c2(),
        "c3" => c3(),
        "c4" => c4(),
        "c5" => c5(),
        "c6" => c6(),
        "c7" => c7(),
        "c8" => c8(),
        "c9" => c9(),
        "c10" => c10(),
        "c11" => c11(threads, store),
        "c12" => c12(),
        "c13" => c13(),
        "c14" => c14(),
        "c15" => c15(),
        "c16" => c16(),
        "b1" => b1(),
        "b2" => b2(),
        _ => Err(format!("unknown claim `{id}`").into()),
    }
}

impl fmt::Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== {} ===\nclaim: {}", self.id.to_uppercase(), self.statement)?;
        for (i, table) in self.tables.iter().enumerate() {
            write!(f, "{}{table}", if i > 0 { "\n" } else { "" })?;
        }
        for note in &self.notes {
            writeln!(f, "{note}")?;
        }
        match &self.shape {
            Ok(()) => writeln!(f, "shape: ok"),
            Err(why) => writeln!(f, "shape: FAIL {why}"),
        }
    }
}

/// `Ok` when every check holds, else the `; `-joined wording of the failed
/// ones. A check is the predicate and what to say when it is false.
fn verdict<const N: usize>(checks: [(bool, String); N]) -> Result<(), String> {
    let failed: Vec<String> = checks.into_iter().filter(|(ok, _)| !ok).map(|(_, why)| why).collect();
    failed.is_empty().then_some(()).ok_or_else(|| failed.join("; "))
}

/// `x` with `digits` decimals.
fn fx(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

/// The fraction `x` as a percentage with `digits` decimals.
fn pct(x: f64, digits: usize) -> String {
    format!("{:.digits$}%", 100.0 * x)
}

fn random_logic(gates: usize, seed: u64) -> Result<Netlist, NetlistError> {
    generate::random_logic(generate::RandomLogicConfig { gates, seed, ..Default::default() })
}

/// C1 — integration capacity: two orders of magnitude in a decade.
pub fn c1() -> ClaimResult {
    let nodes = [Node::N90, Node::N65, Node::N45, Node::N32, Node::N28, Node::N20, Node::N14, Node::N10];
    let mut t = Table::new(&["node", "MTr/mm2", "capacity"]);
    for node in nodes {
        let density = node.spec().density_mtr_per_mm2;
        t.row([node.to_string(), fx(density, 2), format!("{:.0}M", node.integration_capacity())]);
    }
    let growth = Node::N10.integration_capacity() / Node::N90.integration_capacity();
    let grows = nodes.windows(2).all(|w| w[1].integration_capacity() > w[0].integration_capacity());
    Ok(Claim {
        id: "c1",
        statement: "integration capacity +2 orders of magnitude, 90nm (2006) -> 10nm (2016)",
        tables: vec![t],
        notes: vec![format!("measured: {growth:.0}x  (paper: \"two orders of magnitude\")")],
        // Match: "✔ shape + magnitude".
        shape: verdict([
            (grows, "capacity does not grow at every shrink".into()),
            ((100.0..1000.0).contains(&growth), format!("90->10nm growth {growth:.0}x, want 100x-1000x")),
        ]),
    })
}

/// C2 — functionality-enhanced devices favour XOR-rich logic.
pub fn c2() -> ClaimResult {
    let designs = [
        ("parity16", generate::parity_tree(16)?),
        ("adder8", generate::ripple_carry_adder(8)?),
        ("comparator8", generate::equality_comparator(8)?),
        ("random", random_logic(300, 2)?),
    ];
    let mut t = Table::new(&["design", "CMOS um2", "polarity um2", "gain"]);
    let mut gains = Vec::new();
    for (name, d) in &designs {
        let area = |lib| synthesize(d, lib, SynthesisEffort::Advanced2016).map(|s| s.area_um2);
        let (cmos, pol) = (area(Library::generic())?, area(Library::controlled_polarity())?);
        gains.push(1.0 - pol / cmos);
        t.row([name.to_string(), fx(cmos, 1), fx(pol, 1), pct(1.0 - pol / cmos, 1)]);
    }
    let random = gains[3];
    Ok(Claim {
        id: "c2",
        statement: "controlled-polarity SiNW/CNT devices need new logic abstractions (De Micheli)",
        tables: vec![t],
        notes: vec![],
        // Match: "✔ the gain concentrates exactly where the panel says" —
        // XOR-rich circuits gain more than AND-dominated random logic.
        shape: verdict([
            (gains[..3].iter().all(|&g| g > random), "an XOR-rich design gains no more than random logic".into()),
            (random > 0.0, format!("random logic gains {:.1}%, want > 0", 100.0 * random)),
        ]),
    })
}

/// C3 — a decade of synthesis: ~30% area (and perf, power) improvement.
pub fn c3() -> ClaimResult {
    let designs = [
        ("adder16", generate::ripple_carry_adder(16)?),
        ("mult4", generate::array_multiplier(4)?),
        ("parity32", generate::parity_tree(32)?),
        ("rand500", random_logic(500, 7)?),
        ("fabric", generate::switch_fabric(4, 4)?),
    ];
    let mut t = Table::new(&["design", "2006 um2", "2016 um2", "area", "2006 ps", "2016 ps", "perf"]);
    // Suite totals, [2006, 2016]: area, critical path, power.
    let (mut area, mut delay, mut power) = ([0.0; 2], [0.0; 2], [0.0; 2]);
    for (name, d) in &designs {
        let base = synthesize(d, Library::nand_inv_2006(), SynthesisEffort::Baseline2006)?;
        let adv = synthesize(d, Library::generic(), SynthesisEffort::Advanced2016)?;
        let mut ps = [0.0; 2];
        for (i, out) in [&base, &adv].into_iter().enumerate() {
            let activity = Activity::estimate(&out.netlist, &ActivityConfig::default())?;
            ps[i] = TimingAnalysis::run(&out.netlist, &TimingConfig::default())?.critical_path_ps;
            area[i] += out.area_um2;
            delay[i] += ps[i];
            power[i] += analyze(&out.netlist, &activity, &PowerConfig::default()).total_mw();
        }
        let (ab, aa, [tb, ta]) = (base.area_um2, adv.area_um2, ps);
        t.row([name.to_string(), fx(ab, 0), fx(aa, 0), pct(1.0 - aa / ab, 1), fx(tb, 0), fx(ta, 0), pct(1.0 - ta / tb, 1)]);
    }
    let saving = |[old, new]: [f64; 2]| 100.0 * (1.0 - new / old);
    let [a, d, p] = [saving(area), saving(delay), saving(power)];
    let suite = format!("suite: area -{a:.1}%, delay -{d:.1}%, power -{p:.1}%");
    Ok(Claim {
        id: "c3",
        statement: "advanced RTL synthesis improved area ~30% in ten years (Domic)",
        tables: vec![t],
        notes: vec![format!("{suite}   (paper: ~30% each)")],
        // Match: "✔ direction on all three axes, and ~30 % or better on each".
        shape: verdict([
            (a > 0.0 && d > 0.0 && p > 0.0, format!("{suite}: not below the 2006 baseline on every axis")),
            (a.min(d).min(p) >= 25.0, format!("{suite}: want ~30% (>= 25%) on each axis")),
        ]),
    })
}

/// C4 — the multi-patterning ladder.
pub fn c4() -> ClaimResult {
    let mut t = Table::new(&["node", "pitch nm", "model masks", "scheme", "measured masks"]);
    let mut mismatched = Vec::new();
    for node in [Node::N28, Node::N22, Node::N20, Node::N14, Node::N10, Node::N7, Node::N5] {
        let plan = PatterningPlan::for_node(node);
        // Empirical: colour a dense line array at the node pitch.
        let pitch = node.spec().metal_pitch_nm;
        let measured = required_masks(&Layout::line_array(14, pitch, 3000.0), eda_tech::SINGLE_EXPOSURE_PITCH_NM);
        if measured != plan.line_masks {
            mismatched.push(format!("{node}: {measured} vs {}", plan.line_masks));
        }
        let exposures = plan.total_exposures().to_string();
        t.row([node.to_string(), fx(pitch, 0), exposures, plan.scheme().to_string(), measured.to_string()]);
    }
    Ok(Claim {
        id: "c4",
        statement: "80nm single-exposure pitch floor; double/triple/quad from 20nm; octuple at 5nm (Domic)",
        tables: vec![t],
        notes: vec![],
        // Match: "✔" on "measured line-array chromatic number matches the
        // line-mask term exactly".
        shape: verdict([(mismatched.is_empty(), format!("masks differ from the line-mask term: {}", mismatched.join(", ")))]),
    })
}

/// C5 — routers: line search vs maze, and the 6->4 layer cost lever.
pub fn c5() -> ClaimResult {
    let d = random_logic(500, 9)?;
    let placement = place_global(&d, Die::for_netlist(&d, 0.7), &GlobalConfig::default());
    let mut algorithms = Table::new(&["algorithm", "wl", "vias", "overflow", "expanded", "sec"]);
    let mut overflow = Vec::new();
    for alg in [RouteAlgorithm::LeeBfs, RouteAlgorithm::AStar, RouteAlgorithm::LineSearch] {
        let out = route(&d, &placement, &RouteConfig { algorithm: alg, grid_cells: 48, ..Default::default() });
        overflow.push(out.overflow);
        let counts = [out.wirelength, out.vias, out.overflow, out.cells_expanded].map(|n| n.to_string());
        algorithms.row([format!("{alg:?}")].into_iter().chain(counts).chain([fx(out.seconds, 3)]));
    }
    // Layer reduction: a lighter A&M/S-class digital block at 130nm. The
    // question is which router still closes as layers come off.
    let amsd = random_logic(250, 4)?;
    let ams_place = place_global(&amsd, Die::for_netlist(&amsd, 0.7), &GlobalConfig::default());
    let m = CostModel::new(Node::N130);
    let saving = |layers| 1.0 - m.wafer_cost_with_layers(layers) / m.wafer_cost_with_layers(6);
    let mut sweep = Table::new(&["layers", "Lee overflow", "A* overflow", "wafer cost $", "vs 6L"]);
    sweep.title = "layer sweep (baseline vs negotiated) with the 130nm cost model:".into();
    let mut min_clean = None;
    for layers in [6u32, 5, 4, 3] {
        let cfg = |algorithm| RouteConfig { algorithm, deck: RuleDeck::simple(layers), ..Default::default() };
        let with = |algorithm| route(&amsd, &ams_place, &cfg(algorithm)).overflow;
        let (lee, adv) = (with(RouteAlgorithm::LeeBfs), with(RouteAlgorithm::AStar));
        // The fewest layers it closes at, having closed at every count above.
        if adv == 0 && (layers == 6 || min_clean == Some(layers + 1)) {
            min_clean = Some(layers);
        }
        let cost = fx(m.wafer_cost_with_layers(layers), 0);
        sweep.row([layers.to_string(), lee.to_string(), adv.to_string(), cost, pct(saving(layers), 1)]);
    }
    let note = match min_clean {
        Some(l) if l <= 4 => format!("measured: the negotiated router closes at {l} layers ({} cheaper than 6L)", pct(saving(l), 1)),
        _ => "measured: this block needs more than 4 layers at this utilization".into(),
    };
    let (lee, line) = (overflow[0], overflow[2]);
    Ok(Claim {
        id: "c5",
        statement: "line-search routers win under simpler rules; 6->4 layers slashes 15-20% cost (Domic)",
        tables: vec![algorithms, sweep],
        notes: vec![note],
        // Match: "✔" on "line search … 0 overflow … the Lee flood leaves
        // overflow; … the negotiated router closes overflow-free at 6/5/4
        // layers … −18.6 % wafer cost at 4 layers".
        shape: verdict([
            (line == 0 && lee > 0, format!("line search leaves {line} overflow, Lee {lee}: want 0 and > 0")),
            (min_clean.is_some_and(|l| l <= 4), format!("negotiated router clean from 6 down to {min_clean:?} layers, want 4")),
            ((0.15..=0.20).contains(&saving(4)), format!("6->4 layers saves {:.1}%, want 15-20%", 100.0 * saving(4))),
        ]),
    })
}

/// C6 — power: the static crossover and design-for-power vs dark silicon.
pub fn c6() -> ClaimResult {
    let d = generate::switch_fabric(4, 4)?;
    let act = Activity::estimate(&d, &ActivityConfig::default())?;
    let mut power = Table::new(&["node", "dynamic mW", "static mW", "static %"]);
    let mut peak = (Node::N180, 0.0);
    for row in node_power_sweep(&d, &act, 200.0) {
        let share = row.leakage_mw / (row.dynamic_mw + row.leakage_mw);
        if share > peak.1 {
            peak = (row.node, share);
        }
        power.row([row.node.to_string(), fx(row.dynamic_mw, 3), fx(row.leakage_mw, 3), pct(share, 1)]);
    }
    let mut dark = Table::new(&["node", "naive usable", "with techniques"]);
    dark.title = "dark silicon (80mm2 die, 3W budget, 500MHz):".into();
    let mut recovery = Vec::new();
    for row in dark_silicon_sweep(80.0, 3.0, 500.0) {
        recovery.push((row.node, row.usable_with_techniques - row.usable_naive));
        dark.row([row.node.to_string(), pct(row.usable_naive, 0), pct(row.usable_with_techniques, 0)]);
    }
    let low = |&&(node, r): &&(Node, f64)| r < 0.0 || ((Node::N65..=Node::N28).contains(&node) && r < 0.15);
    let low_recovery: Vec<String> = recovery.iter().filter(low).map(|(node, r)| format!("{node} {:.0} points", 100.0 * r)).collect();
    Ok(Claim {
        id: "c6",
        statement: "voltage scaling from 130nm; static overtakes dynamic at 90/65; techniques prevent dark silicon (Domic)",
        tables: vec![power, dark],
        notes: vec![],
        // Match: "✔ shape (crossover + taming + recovery)" — the static
        // share peaks at 90–28 nm, and the technique stack recovers 18–36
        // points of usable die at 65–28 nm.
        shape: verdict([
            ((Node::N90..=Node::N28).contains(&peak.0), format!("static share peaks at {}, want 90-28nm", peak.0)),
            (low_recovery.is_empty(), format!("techniques recover too little: {}", low_recovery.join(", "))),
        ]),
    })
}

/// C7 — flat vs hierarchical implementation: buffering.
pub fn c7() -> ClaimResult {
    let d = generate::hierarchical_design(4, 150, 11)?;
    let die = Die::for_netlist(&d, 0.5);
    let hier = place_hierarchical(&d, die, 3);
    let mut flat = hier.placement.clone();
    anneal(&d, &mut flat, &AnnealConfig::default(), None, None);
    let max_len = die.width_um / 4.0;
    let flat_plan = plan_buffers(&d, &flat, max_len, &[]);
    let forced: Vec<(usize, u32)> = hier.crossing_nets.iter().map(|&i| (i, 2)).collect();
    let hier_plan = plan_buffers(&d, &hier.placement, max_len, &forced);
    let mut t = Table::new(&["flow", "buffers", "buf um2", "leak nW"]);
    for (name, p) in [("hierarchical", &hier_plan), ("flat", &flat_plan)] {
        t.row([name.into(), p.total.to_string(), fx(p.added_area_um2, 1), fx(p.added_leakage_nw, 1)]);
    }
    let saved = 1.0 - flat_plan.total as f64 / hier_plan.total.max(1) as f64;
    let crossing = hier.crossing_nets.len();
    let (f, h) = (&flat_plan, &hier_plan);
    let saves = f.total < h.total && f.added_area_um2 < h.added_area_um2 && f.added_leakage_nw < h.added_leakage_nw;
    Ok(Claim {
        id: "c7",
        statement: "flat implementation saves area & power through less buffering (Domic)",
        tables: vec![t],
        notes: vec![format!("measured: flat saves {:.0}% of buffers ({crossing} boundary-crossing nets)", 100.0 * saved)],
        // Match: "✔" on "flat saves … of buffers (and their area/leakage)".
        shape: verdict([(saves, "flat does not save buffers, their area and their leakage".into())]),
    })
}

/// C8 — design-start distribution.
pub fn c8() -> ClaimResult {
    let m = DesignStartModel::year_2016();
    let mut t = Table::new(&["node", "share"]);
    for &(node, share) in m.rows() {
        t.row([node.to_string(), pct(share, 1)]);
    }
    let (above, n180, top) = (m.share_at_or_above(Node::N28), m.share(Node::N180), m.most_designed());
    Ok(Claim {
        id: "c8",
        statement: ">90% of design starts at 32/28nm and above; 180nm >25% (Domic)",
        tables: vec![t],
        notes: vec![format!("at/above 32/28nm: {:.0}%   most designed: {top} ({:.0}%)", 100.0 * above, 100.0 * m.share(top))],
        // Match: "✔ by construction — the distribution is the model input";
        // the queries the panel quotes must hold on it.
        shape: verdict([
            (above > 0.9, format!("{:.0}% at/above 32/28nm, want > 90%", 100.0 * above)),
            (n180 > 0.25, format!("{:.0}% at 180nm, want > 25%", 100.0 * n180)),
        ]),
    })
}

/// C9 — multicore P&R throughput.
pub fn c9() -> ClaimResult {
    // Scale-tier mesh: per-stripe refine passes at this size run well past the
    // 1 µs clock floor, so the projected speedups are measurement, not noise.
    let d = generate::scale_mesh(20_000, 5)?;
    let die = Die::for_netlist(&d, 0.7);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Measured: the stripe dispatches' wall clock on this host, the fastest
    // of three alternating runs at 1 and 2 workers. Projected: the summed
    // per-dispatch busiest worker's CPU time, the wall a farm with a core per
    // worker would see. The stripe partition is fixed at 8, so every run
    // places identically.
    let mut fastest: Vec<(usize, eda_place::ParallelOutcome)> = Vec::new();
    let mut hpwl = Vec::new();
    for threads in [1usize, 2, 1, 2, 1, 2, 4, 8] {
        let cfg = ParallelConfig { threads, stripes: 8, moves_per_cell: 20, seed: 3 };
        let out = place_parallel(&d, die, &cfg);
        hpwl.push(out.hpwl_final);
        match fastest.iter_mut().find(|(t, _)| *t == threads) {
            Some((_, best)) if best.stats.wall_s <= out.stats.wall_s => {}
            Some((_, best)) => *best = out,
            None => fastest.push((threads, out)),
        }
    }
    fastest.sort_by_key(|&(t, _)| t);
    let refined = (d.num_instances() * 2) as f64;
    let (wall1, proj1) = (fastest[0].1.stats.wall_s, fastest[0].1.stats.projected_wall_s());
    let wall2 = fastest[1].1.stats.wall_s;
    let mut t = Table::new(&["threads", "wall-s", "speedup", "proj core-sec", "proj inst/day", "proj speedup", "hpwl"]);
    for (threads, out) in &fastest {
        let (wall, proj) = (out.stats.wall_s, out.stats.projected_wall_s());
        let measured = if *threads <= cores { [fx(wall, 3), format!("{:.2}x", wall1 / wall)] } else { ["-".into(), "-".into()] };
        let projected = [fx(proj, 3), format!("{:.2e}", refined / proj * 86_400.0), format!("{:.2}x", proj1 / proj)];
        t.row([threads.to_string()].into_iter().chain(measured).chain(projected).chain([fx(out.hpwl_final, 0)]));
    }
    Ok(Claim {
        id: "c9",
        statement: "P&R throughput ~1M instances/day on multicore farms (Rossi)",
        tables: vec![t],
        notes: vec![format!("design: {} instances; host: {cores} cores, so rows above {cores} workers are projection only; \
                             wall-s is the fastest of three alternating runs at 1 and 2 workers", d.num_instances())],
        // Match: "✔ scaling shape for the placer (measured at 2 workers,
        // projected beyond)" — the measured wall, not the projection, and the
        // same placement on every run.
        shape: verdict([
            (cores < 2 || wall2 <= 0.8 * wall1, format!("refine wall {wall2:.3} s at 2 workers vs {wall1:.3} s at 1, want <= 0.8x")),
            (hpwl.iter().all(|&h| h == hpwl[0]), format!("HPWL differs across worker counts: {hpwl:?}")),
        ]),
    })
}

/// C10 — scan-chain reordering during implementation.
pub fn c10() -> ClaimResult {
    let mut t = Table::new(&["design", "fe-order um", "reorder um", "gain", "peak demand"]);
    let mut short = Vec::new();
    let rand = generate::RandomLogicConfig { gates: 600, flop_fraction: 0.25, seed: 8, ..Default::default() };
    for (name, d) in [("fabric8", generate::switch_fabric(8, 4)?), ("rand", generate::random_logic(rand)?)] {
        let s = insert_scan(&d, 2)?;
        let p = place_global(&s.netlist, Die::for_netlist(&s.netlist, 0.7), &GlobalConfig::default());
        let before = scan_wirelength(&s.chains, &p);
        let after = scan_wirelength(&reorder_chains(&s.chains, &p), &p);
        if after > 0.5 * before {
            short.push(format!("{name} {before:.0} -> {after:.0} um"));
        }
        let demand = CongestionMap::build(&s.netlist, &p, 8, 1e9).max_demand();
        t.row([name.into(), fx(before, 0), fx(after, 0), pct(1.0 - after / before, 0), fx(demand, 0)]);
    }
    Ok(Claim {
        id: "c10",
        statement: "scan reordering during implementation relieves congestion/wirelength (Rossi)",
        tables: vec![t],
        notes: vec![],
        // Match: "✔ at least half on both designs".
        shape: verdict([(short.is_empty(), format!("reordering cuts less than half: {}", short.join(", ")))]),
    })
}

/// C11 — the self-learning implementation engine. Its flows run at
/// `threads` against `store`.
pub fn c11(threads: usize, store: Option<&StoreConfig>) -> ClaimResult {
    let d = random_logic(300, 21)?;
    let base_cfg = FlowConfig { threads, store: store.cloned(), ..FlowConfig::advanced_2016(Node::N28) };
    let mut tuner = FlowTuner::new(7);
    let mut t = Table::new(&["run", "arm", "score", "best-so-far"]);
    let mut best = f64::INFINITY;
    let mut picks = Vec::new();
    for run in 1..=10 {
        let i = tuner.suggest();
        let arm = tuner.arms()[i].clone();
        let score = run_flow(&d, &arm.apply(&base_cfg))?.score();
        tuner.record(i, score);
        best = best.min(score);
        picks.push(i);
        t.row([run.to_string(), arm.name.to_string(), fx(score, 1), fx(best, 1)]);
    }
    let learned = tuner.best_arm();
    let first = picks.iter().position(|&i| i == learned).map_or(usize::MAX, |p| p + 1);
    Ok(Claim {
        id: "c11",
        statement: "a built-in self-learning engine exploiting previous runs (Rossi)",
        tables: vec![t],
        notes: vec![format!("learned arm: `{}` — subsequent runs start from the best-known recipe", tuner.arms()[learned].name)],
        // Match: "✔" on "converges to the best-QoR arm … within ~5 runs and
        // exploits it thereafter".
        shape: verdict([
            (first <= 5, format!("the best arm is first tried at run {first}, want <= 5")),
            (picks[5..].iter().all(|&i| i == learned), format!("runs 6-10 pick arms {:?}, want {learned} only", &picks[5..])),
        ]),
    })
}

/// C12 — networking activity, hot spots, automatic decap.
pub fn c12() -> ClaimResult {
    let d = generate::switch_fabric(8, 4)?;
    let p = place_global(&d, Die::for_netlist(&d, 0.7), &GlobalConfig::default());
    let base = Activity::estimate(&d, &ActivityConfig::default())?;
    let pcfg = PowerConfig { node: Node::N28, freq_mhz: 1000.0 };
    let limit = PowerGrid::build(&d, &p, &base, &pcfg, 8).peak_droop(Node::N28) * 1.2;
    let mut t = Table::new(&["activity", "power mW", "hotspots", "decaps", "after"]);
    let mut wrong = Vec::new();
    for factor in [1.0, 3.0, 5.0, 8.0] {
        let act = base.scaled(factor);
        let power = analyze(&d, &act, &pcfg);
        let mut grid = PowerGrid::build(&d, &p, &act, &pcfg, 8);
        let before = grid.hotspots(Node::N28, limit).len();
        // Only the counts are printed, so the plan is never applied.
        let plan = plan_decaps(d.library(), &mut grid, Node::N28, limit)?;
        let after = plan.hotspots_after;
        if (factor == 1.0 && before > 0) || (factor >= 5.0 && (before == 0 || after > 0)) {
            wrong.push(format!("{factor}x: {before} -> {after}"));
        }
        let counts = [before, plan.decaps(), after].map(|n| n.to_string());
        t.row([format!("{factor:.0}x"), fx(power.total_mw(), 2)].into_iter().chain(counts));
    }
    Ok(Claim {
        id: "c12",
        statement: "networking ASICs at >5x switching activity need automatic hot-spot/decap handling (Rossi)",
        tables: vec![t],
        notes: vec![],
        // Match: "✔" on "1× activity has 0 hotspots, 5× has …; automatic decap
        // insertion clears all of them" — at every activity >= 5x.
        shape: verdict([(wrong.is_empty(), format!("hotspots before -> after decaps: {}", wrong.join(", ")))]),
    })
}

/// C13 — holistic co-design vs sequential ad-hoc.
pub fn c13() -> ClaimResult {
    let (seq, co) = (sequential_flow().metrics, codesign_flow().metrics);
    let mut t = Table::new(&["flow", "$ / unit", "mm2", "battery d", "TTM wks", "score"]);
    for (name, m) in [("sequential", &seq), ("codesign", &co)] {
        let cells = [(m.unit_cost_usd, 2), (m.footprint_mm2, 0), (m.battery_life_days, 0), (m.time_to_market_weeks, 0)];
        t.row([name.to_string()].into_iter().chain(cells.map(|(x, d)| fx(x, d))).chain([fx(m.score(), 1)]));
    }
    Ok(Claim {
        id: "c13",
        statement: "holistic smart-system co-design beats separate ad-hoc flows (Macii)",
        tables: vec![t],
        notes: vec![],
        // Match: "✔" on "co-design: −$/unit, +battery-days, fewer weeks TTM".
        shape: verdict([
            (co.unit_cost_usd < seq.unit_cost_usd, "co-design is not cheaper per unit".into()),
            (co.battery_life_days > seq.battery_life_days, "co-design does not last longer".into()),
            (co.time_to_market_weeks < seq.time_to_market_weeks, "co-design is not faster to market".into()),
            (co.score() < seq.score(), "co-design does not score better".into()),
        ]),
    })
}

/// C14 — test compression retargeted at low-pin-count test.
pub fn c14() -> ClaimResult {
    let d = generate::switch_fabric(4, 4)?;
    let view = CombView::new(&d)?;
    let faults = fault_list(&d);
    let flops = d.flops().len();
    let access = |scan_pins, internal_chains| TestAccess { scan_pins, internal_chains, flops, shift_mhz: 50.0 };
    let bypass = bypass_fault_sim(&d, &view, &faults, &access(2, 2), 256, 5);
    let mut t = Table::new(&["pins", "chains", "coverage", "test ms", "ratio"]);
    // The 2-pin, 16-chain row is the one the Match column quotes.
    let (mut coverage, mut time_s, mut ratio) = (0.0, f64::INFINITY, 0.0);
    for (pins, chains) in [(16usize, 16usize), (8, 16), (4, 16), (2, 16), (2, 32)] {
        let a = access(pins, chains);
        let out = compressed_fault_sim(&d, &view, &faults, &a, 256, 5);
        if (pins, chains) == (2, 16) {
            (coverage, time_s, ratio) = (out.coverage, out.test_time_s, a.compression_ratio());
        }
        let (cov, ms) = (pct(out.coverage, 1), fx(1e3 * out.test_time_s, 3));
        t.row([pins.to_string(), chains.to_string(), cov, ms, format!("{:.1}x", a.compression_ratio())]);
    }
    let atpg = run_atpg(&d, &view, &faults, &AtpgConfig::default());
    Ok(Claim {
        id: "c14",
        statement: "high-compression DFT retargets to low-pin-count test -> cheaper packages (Sawicki)",
        tables: vec![t],
        notes: vec![
            format!("bypass (2 pins, no compression): coverage {}, test {} ms", pct(bypass.coverage, 1), fx(1e3 * bypass.test_time_s, 3)),
            format!("ATPG reference coverage: {:.1}% with {} patterns", 100.0 * atpg.coverage, atpg.patterns.len()),
        ],
        // Match: "✔" on "2 pins + 16 chains keep full coverage at 8×
        // compression; test time … vs … uncompressed serial".
        shape: verdict([
            (ratio >= 8.0 && coverage >= bypass.coverage, format!("2 pins + 16 chains at {ratio}x: coverage {coverage} < {}", bypass.coverage)),
            (time_s < bypass.test_time_s, format!("2 pins + 16 chains test {time_s:e} s, bypass {:e} s", bypass.test_time_s)),
        ]),
    })
}

/// C15 — computational lithography: OPC vs feature size.
pub fn c15() -> ClaimResult {
    let model = OpticalModel::default();
    let cfg = OpcConfig::default();
    let mut t = Table::new(&["pitch nm", "no-OPC EPE", "OPC EPE", "iterations"]);
    let mut wrong = Vec::new();
    for pitch in [160.0, 120.0, 100.0, 90.0, 80.0, 64.0] {
        let (lines, offset) = (8, 300.0);
        let target: Vec<(f64, f64)> =
            (0..lines).map(|i| offset + i as f64 * pitch).map(|x| (x, x + pitch / 2.0)).collect();
        let out = run_opc(&model, &target, offset * 2.0 + pitch * lines as f64, &cfg);
        let (raw, opc) = (out.rms_epe_history[0], out.final_rms_epe());
        if (pitch >= 80.0 && opc > 0.5) || (pitch < 80.0 && opc <= raw) {
            wrong.push(format!("{pitch} nm: {raw:.2} -> {opc:.2}"));
        }
        t.row([fx(pitch, 0), fx(raw, 2), fx(opc, 2), cfg.iterations.to_string()]);
    }
    let contrast = [120.0, 80.0, 50.0].map(|p| model.grating_contrast(p));
    Ok(Claim {
        id: "c15",
        statement: "computational lithography (OPC) enables scaling without EUV (Sawicki)",
        tables: vec![t],
        notes: vec![format!("grating contrast: 120nm {:.2}, 80nm {:.2}, 50nm {:.2}", contrast[0], contrast[1], contrast[2])],
        // Match: "✔ including the hand-off point to multi-patterning" — OPC
        // EPE ~0 down to the 80 nm floor, no rescue at 64 nm, contrast
        // collapsing below it.
        shape: verdict([
            (wrong.is_empty(), format!("EPE no-OPC -> OPC, want <= 0.5 nm at >= 80 nm and worse at 64 nm: {}", wrong.join(", "))),
            (contrast[2] < 0.1, format!("50nm contrast {:.2}, want < 0.1", contrast[2])),
        ]),
    })
}

/// C16 — IoT node selection and energy autonomy.
pub fn c16() -> ClaimResult {
    let points = node_selection_sweep(&DutyCycle::new(0.01, 0.002), 800.0, 0.0);
    let mut t = Table::new(&["node", "MCU $", "battery d", "perf", "merit"]);
    for p in &points {
        let cells = [(p.mcu_cost_usd, 2), (p.battery_life_days, 0), (p.performance, 1), (p.merit, 1)];
        t.row([p.node.to_string()].into_iter().chain(cells.map(|(x, d)| fx(x, d))));
    }
    let best = best_iot_node(&points);
    let cost = |node| points.iter().find(|p| p.node == node).map_or(f64::NAN, |p| p.mcu_cost_usd);
    let fastest = points.iter().max_by(|a, b| a.performance.total_cmp(&b.performance)).map_or(best, |p| p.node);
    let dearer = cost(fastest) / cost(best);
    Ok(Claim {
        id: "c16",
        statement: "IoT leverages established-node variants; energy autonomy is the constraint (Sawicki)",
        tables: vec![t],
        notes: vec![format!("best IoT merit: {best} (established: {})", best.is_established())],
        // Match: "✔" on "best battery-life-per-dollar at 90 nm (established);
        // 5 nm wins raw performance but costs 35× more per MCU".
        shape: verdict([
            (best.is_established(), format!("best merit at {best}, not an established node")),
            (!fastest.is_established() && dearer >= 10.0, format!("fastest node {fastest} costs {dearer:.0}x the best's MCU")),
        ]),
    })
}

/// B1 — the format-dualism overhead (UPF/CPF, CCS/ECSM) and its remedy.
pub fn b1() -> ClaimResult {
    use eda_logic::{check_equivalence, EcVerdict};
    use eda_netlist::liberty;
    let lib = Library::generic();
    let as_liberty = liberty::write_liberty(&lib);
    let as_clf = liberty::write_clf(&lib);
    let identical = as_liberty == liberty::clf_to_liberty(&as_clf)?;
    let design = generate::alu(4)?;
    let effort = SynthesisEffort::Advanced2016;
    let a = synthesize(&design, liberty::parse_liberty(&as_liberty)?, effort)?;
    let b = synthesize(&design, liberty::parse_clf(&as_clf)?, effort)?;
    let equivalent = matches!(check_equivalence(&design, &a.netlist, &[], &[], 1 << 20)?, EcVerdict::Equivalent);
    Ok(Claim {
        id: "b1",
        statement: "format dualism (UPF/CPF, CCS-ECSM) duplicated IP delivery effort (Rossi)",
        tables: vec![],
        notes: vec![
            format!("deliveries: liberty {} B, clf {} B; clf->liberty conversion identical: {identical}", as_liberty.len(), as_clf.len()),
            format!("same QoR from either delivery ({:.1} vs {:.1} um2); formal EC: {equivalent}", a.area_um2, b.area_um2),
        ],
        // Match: "✔ the dualism is demonstrated to be pure syntax overhead" —
        // lossless conversion, identical QoR, formally equivalent.
        shape: verdict([
            (identical, "clf->liberty conversion is not byte-identical".into()),
            (a.area_um2 == b.area_um2, format!("QoR differs by delivery: {} vs {} um2", a.area_um2, b.area_um2)),
            (equivalent, "the synthesized netlist is not proved equivalent".into()),
        ]),
    })
}

/// B2 — decomposition clears printability hotspots.
pub fn b2() -> ClaimResult {
    use eda_litho::{decompose, find_hotspots, find_hotspots_per_mask, Hotspot, HotspotConfig, Rect};
    let model = OpticalModel::default();
    let mut layout = Layout::new();
    for i in 0..8 {
        let x = i as f64 * 50.0;
        layout.features.push(Rect::new(x, 0.0, x + 34.0, 2000.0));
    }
    let is_bridge = |h: &&Hotspot| matches!(h, Hotspot::Bridge { .. });
    let bridges = find_hotspots(&layout, &model, &HotspotConfig::default()).iter().filter(is_bridge).count();
    let deco = decompose(&layout, 2, eda_tech::SINGLE_EXPOSURE_PITCH_NM, 0);
    let per_mask = find_hotspots_per_mask(&deco, &model, &HotspotConfig::default());
    let after = per_mask.iter().flatten().filter(is_bridge).count();
    Ok(Claim {
        id: "b2",
        statement: "multi-patterning makes sub-pitch layouts printable (Domic/Sawicki, C4+C15)",
        tables: vec![],
        notes: vec![format!("34nm lines / 16nm spaces: {bridges} bridge hotspots single-exposure -> {after} after double patterning \
                             ({} masks, legal={})", deco.masks, deco.legal)],
        // Match: "✔ C4 and C15 connected end-to-end" on "every space bridges
        // in a single exposure; after automatic double patterning, zero
        // bridge hotspots per mask".
        shape: verdict([
            (bridges > 0 && after == 0, format!("{bridges} bridges single-exposure -> {after} after, want > 0 -> 0")),
            (deco.masks == 2 && deco.legal, format!("decomposition: {} masks, legal={}", deco.masks, deco.legal)),
        ]),
    })
}
