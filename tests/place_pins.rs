//! Pinned placements. Every instance position (FNV over the `f64` bits, in
//! instance order) and every reported HPWL / accepted-move count of the four
//! placer entry points must equal the value recorded at commit 87a7171 —
//! before the placer's geometry moved onto the flat pin index, the cached
//! annealer and the next-free legaliser. Those are bit-identical by
//! construction (min/max are order-free, every `f64` sum keeps its operand
//! order, the annealer draws the same random numbers), so none of these rows
//! may ever be re-recorded for a performance change. After an *intended* QoR
//! change the failure message is the whole table as the code now computes
//! it, ready to paste over `PINS`.
//!
//! Each pinned placement also goes through the independent placement auditor
//! (`eda::place::audit_placement`), which debug builds run as an assertion
//! at the end of the flow's `4_place` stage.

use eda::netlist::memo::fnv1a;
use eda::netlist::{generate, InstId, Netlist};
use eda::place::{
    anneal, audit_placement, place_global, place_hierarchical, place_multilevel, place_parallel,
    AnnealConfig, Die, GlobalConfig, MultilevelConfig, ParallelConfig, Placement,
};

fn positions_digest(netlist: &Netlist, p: &Placement) -> u64 {
    fnv1a((0..netlist.num_instances()).flat_map(|i| {
        let pt = p.position(InstId::from_index(i));
        pt.x.to_bits()
            .to_le_bytes()
            .into_iter()
            .chain(pt.y.to_bits().to_le_bytes())
    }))
}

/// One row: positions digest, the entry point's own numbers, and the
/// auditor's verdict on the placement against the HPWL it reported.
fn row(netlist: &Netlist, p: &Placement, hpwl_final: f64, rest: String) -> String {
    if let Err(e) = audit_placement(netlist, p, hpwl_final) {
        panic!("place audit failed: {e}");
    }
    format!(
        "pos={:016x} final={:016x} {rest}",
        positions_digest(netlist, p),
        hpwl_final.to_bits()
    )
}

/// `place_multilevel` with the scale preset's effort on the 10⁴ mesh — the
/// `mesh_t1` placer path (serpentine cluster seed, one expansion and
/// legalize, one refinement move per cell).
fn multilevel_mesh() -> String {
    let n = generate::scale_mesh(10_000, 3).unwrap();
    let die = Die::for_netlist(&n, 0.7);
    let cfg = MultilevelConfig {
        cluster_size: 64,
        refine_moves_per_cell: 1,
        seed: 1,
    };
    let out = place_multilevel(&n, die, &cfg);
    row(
        &n,
        &out.placement,
        out.refine.hpwl_after,
        format!(
            "clusters={} expanded={:016x} before={:016x} accepted={}",
            out.clusters,
            out.hpwl_expanded.to_bits(),
            out.refine.hpwl_before.to_bits(),
            out.refine.accepted
        ),
    )
}

/// Flat `place_global` + whole-die `anneal` — the flow's monolithic branch.
fn global_anneal_mult() -> String {
    let n = generate::array_multiplier(8).unwrap();
    let die = Die::for_netlist(&n, 0.7);
    let mut p = place_global(
        &n,
        die,
        &GlobalConfig {
            iterations: 10,
            seed: 1,
        },
    );
    let global = positions_digest(&n, &p);
    let stats = anneal(
        &n,
        &mut p,
        &AnnealConfig {
            moves_per_cell: 40,
            seed: 1,
            ..Default::default()
        },
        None,
        None,
    );
    row(
        &n,
        &p,
        stats.hpwl_after,
        format!(
            "global={global:016x} before={:016x} proposed={} accepted={}",
            stats.hpwl_before.to_bits(),
            stats.proposed,
            stats.accepted
        ),
    )
}

/// Striped refinement — the `flowd_pairs` placer path — which must also not
/// see the thread count.
fn parallel_fabric(threads: usize) -> String {
    let n = generate::switch_fabric(8, 16).unwrap();
    let die = Die::for_netlist(&n, 0.7);
    let cfg = ParallelConfig {
        threads,
        stripes: 4,
        moves_per_cell: 40,
        passes: 2,
        seed: 1,
    };
    let out = place_parallel(&n, die, &cfg);
    row(
        &n,
        &out.placement,
        out.hpwl_final,
        format!(
            "global={:016x} accepted={}",
            out.hpwl_global.to_bits(),
            out.moves_accepted
        ),
    )
}

/// Per-block anneals confined to regions, after the region legaliser.
fn hierarchical_mesh() -> String {
    let n = generate::mesh_fabric(3, 3, 120, 6, 7).unwrap();
    let die = Die::for_netlist(&n, 0.7);
    let out = place_hierarchical(&n, die, 3);
    row(
        &n,
        &out.placement,
        out.hpwl,
        format!("crossing={}", out.crossing_nets.len()),
    )
}

/// `(entry point, fingerprint)`, recorded at commit 87a7171.
const PINS: &[(&str, &str)] = &[
    ("multilevel/mesh10k", "pos=80847b91ff9fddba final=41034d78d676a6de clusters=201 expanded=410351cea9273a47 before=410351cea9273a47 accepted=37"),
    ("global+anneal/mult8", "pos=c07c252ac3017f00 final=40a445346e15e361 global=6e9b3b964c154405 before=40ab5cea79ffbb5c proposed=9040 accepted=292"),
    ("hierarchical/mesh3x3", "pos=3ca7059c54c15a93 final=40c3edf169df6f46 crossing=50"),
    ("parallel/fabric8x16/t1", "pos=52c57a21c8dcf729 final=40e455a28bcb9bba global=40eb88501ae9e8b7 accepted=6670"),
    ("parallel/fabric8x16/t2", "pos=52c57a21c8dcf729 final=40e455a28bcb9bba global=40eb88501ae9e8b7 accepted=6670"),
    ("parallel/fabric8x16/t8", "pos=52c57a21c8dcf729 final=40e455a28bcb9bba global=40eb88501ae9e8b7 accepted=6670"),
];

#[test]
fn placements_match_the_parent_bit_for_bit() {
    let mut got: Vec<(&str, String)> = vec![
        ("multilevel/mesh10k", multilevel_mesh()),
        ("global+anneal/mult8", global_anneal_mult()),
        ("hierarchical/mesh3x3", hierarchical_mesh()),
    ];
    for (name, threads) in [
        ("parallel/fabric8x16/t1", 1),
        ("parallel/fabric8x16/t2", 2),
        ("parallel/fabric8x16/t8", 8),
    ] {
        got.push((name, parallel_fabric(threads)));
    }
    let table: String = got
        .iter()
        .map(|(n, f)| format!("    (\"{n}\", \"{f}\"),\n"))
        .collect();
    let stale: Vec<&str> = got
        .iter()
        .filter(|(n, f)| PINS.iter().find(|(p, _)| p == n).map(|p| p.1) != Some(f.as_str()))
        .map(|(n, _)| *n)
        .collect();
    assert!(
        stale.is_empty(),
        "pins differ for {stale:?}; table now:\n{table}"
    );
}
