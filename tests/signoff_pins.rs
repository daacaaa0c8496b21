//! Pinned sign-off results. What `10_dft` and `8_litho` compute for the two
//! `flowd_pairs` designs through `advanced_2016(N10)` — the fault-simulation
//! `detected` map and the whole multi-patterning `Decomposition` at both of
//! the stage's stitch budgets — must equal the values recorded at commit
//! 8fa481a, before the fault simulator became cone-limited and `decompose`
//! started maintaining its conflict graph across stitches. Both kernels are
//! bit-identical by construction (a fault is detected or it is not; the
//! conflict predicate, DSATUR's tie-break and the victim choice are kept
//! exactly), so none of these rows may be re-recorded for a performance
//! change. After an *intended* QoR change the failure message is the whole
//! table as the code now computes it, ready to paste over `PINS`.

use eda::dft::{fault_list, fault_sim, random_patterns};
use eda::litho::{decompose, Layout};
use eda::netlist::memo::fnv1a;
use eda::netlist::{codec, generate, CombView, Netlist};
use eda::tech::{Node, PatterningPlan, SINGLE_EXPOSURE_PITCH_NM};
use eda::{run_flow, FlowConfig, FlowReport, StoreConfig};

/// The netlist `10_dft` reads: the netlist section of the entry the flow
/// stored for `9_power` (`netlist <len> <digest>`, then `len` bytes). The
/// report does not carry it; the store does.
fn post_power_netlist(store: &std::path::Path) -> Netlist {
    let bytes = std::fs::read(store).expect("the flow wrote its store");
    let text = String::from_utf8_lossy(&bytes);
    let entry = text
        .split("eda-stagecache v2\nstage 9_power\n")
        .nth(1)
        .expect("a 9_power stage entry");
    let (len, rest) = entry
        .split_once("\nnetlist ")
        .and_then(|(_, tail)| tail.split_once('\n'))
        .expect("the entry holds its netlist");
    let len: usize = len.split(' ').next().and_then(|n| n.parse().ok()).expect("netlist section length");
    codec::from_text(&rest[..len]).expect("the stored netlist parses")
}

fn flow(design: &Netlist, seed: u64, threads: usize, store: Option<StoreConfig>) -> FlowReport {
    let mut cfg = FlowConfig::advanced_2016(Node::N10);
    cfg.seed = seed;
    cfg.threads = threads;
    cfg.store = store;
    run_flow(design, &cfg).expect("flow completes")
}

/// What the report says about the two stages.
fn report_row(r: &FlowReport) -> String {
    format!(
        "cov={:016x} masks={} stitches={} legal={} epe={:016x}",
        r.test_coverage.to_bits(),
        r.masks,
        r.stitches,
        r.litho_legal,
        r.opc_rms_epe_nm.to_bits()
    )
}

/// `10_dft`'s kernel call on the netlist the stage saw.
fn dft_row(netlist: &Netlist, seed: u64) -> (f64, String) {
    let view = CombView::new(netlist).unwrap();
    let faults = fault_list(netlist);
    let pats = random_patterns(&view, 96, seed);
    let sim = fault_sim(netlist, &view, &faults, &pats);
    let digest = fnv1a(sim.detected.iter().map(|&d| u8::from(d)));
    (
        sim.coverage(),
        format!("faults={} detected={} map={digest:016x}", sim.total, sim.num_detected),
    )
}

/// `8_litho`'s `decompose` call at one stitch budget.
fn deco_row(layout: &Layout, k: u32, budget: usize) -> String {
    let d = decompose(layout, k, SINGLE_EXPOSURE_PITCH_NM, budget);
    let geometry = fnv1a(d.layout.features.iter().flat_map(|r| {
        [r.x0, r.y0, r.x1, r.y1].into_iter().flat_map(|v| v.to_bits().to_le_bytes())
    }));
    let colors = fnv1a(d.colors.iter().flat_map(|c| c.to_le_bytes()));
    format!(
        "b{budget}: features={} masks={} stitches={} legal={} layout={geometry:016x} colors={colors:016x}",
        d.layout.len(),
        d.masks,
        d.stitches,
        d.legal
    )
}

fn row(name: &str, design: &Netlist, seed: u64) -> String {
    let dir = std::env::temp_dir().join(format!("eda_signoff_pins_{}_{name}_{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("flow.store");
    let report = flow(design, seed, 1, Some(StoreConfig::at(&path)));
    let netlist = post_power_netlist(&path);
    let _ = std::fs::remove_dir_all(&dir);

    let head = report_row(&report);
    assert_eq!(report_row(&flow(design, seed, 4, None)), head, "{name} seed {seed}: 4 threads");

    let (coverage, dft) = dft_row(&netlist, seed);
    assert_eq!(coverage.to_bits(), report.test_coverage.to_bits(), "{name} seed {seed}: not the netlist 10_dft saw");

    // The stage's proxy layout, rebuilt the way `8_litho` builds it.
    let pitch = Node::N10.spec().metal_pitch_nm;
    let wires = (report.routed_wirelength / 4).clamp(24, 160) as usize;
    let layout = Layout::random_wires(wires, pitch, pitch * 40.0, seed);
    let k = PatterningPlan::for_node(Node::N10).total_exposures();
    format!(
        "{head} | {dft} | wires={wires} k={k} {} {}",
        deco_row(&layout, k, wires / 2),
        deco_row(&layout, k, wires)
    )
}

/// `(design, seed, fingerprint)`, recorded at commit 8fa481a. The `mult8`
/// rows were re-recorded once when balance stopped duplicating shared nodes:
/// the multiplier then maps to fewer cells, so it has fewer faults (2 740
/// before). The fabric has no shared supergate and kept its rows.
const PINS: &[(&str, u64, &str)] = &[
    ("mult8", 1, "cov=3fefde94137ef4a1 masks=2 stitches=160 legal=false epe=0000000000000000 | faults=2206 detected=2197 map=ebd3a7342a57af4c | wires=160 k=2 b80: features=240 masks=2 stitches=80 legal=false layout=6d46a67458c3ab33 colors=799e20275bdea5d5 b160: features=320 masks=2 stitches=160 legal=false layout=04f4e5b0b10380a9 colors=7fad1051765343c5"),
    ("mult8", 71, "cov=3fefcfb9717e7dcc masks=2 stitches=160 legal=false epe=0000000000000000 | faults=2206 detected=2193 map=dcf84e6073dabbce | wires=160 k=2 b80: features=240 masks=2 stitches=80 legal=false layout=4cc61b26057da66f colors=efe30b4aacf280a4 b160: features=320 masks=2 stitches=160 legal=false layout=2c3312a482cc3a7c colors=83fb5ecb57e7f835"),
    ("fabric8x16", 1, "cov=3fef6b517af501ed masks=2 stitches=160 legal=false epe=0000000000000000 | faults=4518 detected=4436 map=27ba89d1852cf105 | wires=160 k=2 b80: features=240 masks=2 stitches=80 legal=false layout=6d46a67458c3ab33 colors=799e20275bdea5d5 b160: features=320 masks=2 stitches=160 legal=false layout=04f4e5b0b10380a9 colors=7fad1051765343c5"),
    ("fabric8x16", 71, "cov=3fef67b1204c2770 masks=2 stitches=160 legal=false epe=0000000000000000 | faults=4518 detected=4434 map=f17a4341d1cc620d | wires=160 k=2 b80: features=240 masks=2 stitches=80 legal=false layout=4cc61b26057da66f colors=efe30b4aacf280a4 b160: features=320 masks=2 stitches=160 legal=false layout=2c3312a482cc3a7c colors=83fb5ecb57e7f835"),
];

#[test]
#[cfg_attr(debug_assertions, ignore = "eight N10 flows of the flowd_pairs designs are minutes unoptimized; run in release")]
fn dft_and_litho_results_match_the_parent_bit_for_bit() {
    let designs = [
        ("mult8", generate::array_multiplier(8).unwrap()),
        ("fabric8x16", generate::switch_fabric(8, 16).unwrap()),
    ];
    let mut table = String::new();
    let mut stale = Vec::new();
    for (name, design) in &designs {
        for seed in [1u64, 71] {
            let got = row(name, design, seed);
            table.push_str(&format!("    (\"{name}\", {seed}, \"{got}\"),\n"));
            let want = PINS.iter().find(|(d, s, _)| d == name && *s == seed).map(|p| p.2);
            if want != Some(got.as_str()) {
                stale.push(format!("{name}/seed{seed}"));
            }
        }
    }
    assert!(stale.is_empty(), "pins differ for {stale:?}; table now:\n{table}");
}
