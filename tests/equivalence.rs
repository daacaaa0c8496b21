//! Functional-equivalence integration tests: every netlist transformation in
//! the workspace must preserve mission-mode behaviour. Verified by
//! bit-parallel co-simulation across transformation pipelines.

use eda::dft::insert_scan;
use eda::logic::{check_equivalence, synthesize, EcVerdict, SynthesisEffort, SynthesisOptions};
use eda::netlist::{generate, verilog, CellFunction, InstId, Library, NetId, Netlist};
use eda::power::{implement, plan_clock_gating, PowerDomain, PowerIntent};

/// Compares two netlists on pseudo-random stimulus; `extra_ones` PIs of `b`
/// beyond `a`'s count are driven high (enables), `extra_zeros` driven low.
fn equivalent(a: &Netlist, b: &Netlist, extra_high: usize, extra_low: usize) {
    let k = a.primary_inputs().len();
    assert_eq!(k + extra_high + extra_low, b.primary_inputs().len(), "PI bookkeeping");
    for round in 0..4u64 {
        let pats: Vec<u64> = (0..k)
            .map(|i| 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1 + round * 131))
            .collect();
        let mut bpats = pats.clone();
        bpats.extend(std::iter::repeat_n(!0u64, extra_high));
        bpats.extend(std::iter::repeat_n(0u64, extra_low));
        let (oa, sa) = a.simulate64(&pats, &vec![0; a.flops().len()]);
        let (ob, sb) = b.simulate64(&bpats, &vec![0; b.flops().len()]);
        assert_eq!(oa[..], ob[..oa.len()], "outputs diverge on round {round}");
        assert_eq!(sa, sb, "state diverges on round {round}");
    }
}

#[test]
fn synthesis_pipeline_preserves_function() {
    for seed in [3u64, 14, 25] {
        let d = generate::random_logic(generate::RandomLogicConfig {
            gates: 250,
            seed,
            ..Default::default()
        })
        .unwrap();
        let adv =
            synthesize(&d, Library::generic(), SynthesisEffort::Advanced2016, &SynthesisOptions::default())
                .unwrap();
        equivalent(&d, &adv.netlist, 0, 0);
        let base = synthesize(
            &d,
            Library::nand_inv_2006(),
            SynthesisEffort::Baseline2006,
            &SynthesisOptions::default(),
        )
        .unwrap();
        equivalent(&d, &base.netlist, 0, 0);
    }
}

#[test]
fn synthesis_then_scan_then_gating_chain() {
    let d = generate::switch_fabric(3, 3).unwrap();
    let synth =
        synthesize(&d, Library::generic(), SynthesisEffort::Advanced2016, &SynthesisOptions::default()).unwrap();
    equivalent(&d, &synth.netlist, 0, 0);
    // Clock gating adds enable PIs (high = transparent).
    let plan = plan_clock_gating(&synth.netlist, 4).unwrap();
    let mut gated = synth.netlist.clone();
    plan.apply(&mut gated);
    equivalent(&synth.netlist, &gated, plan.gates(), 0);
    // Scan adds scan_en + scan_ins (low = mission mode).
    let scanned = insert_scan(&gated, 2).unwrap();
    equivalent(&gated, &scanned.netlist, 0, 3);
}

#[test]
fn verilog_roundtrip_after_synthesis() {
    let d = generate::array_multiplier(4).unwrap();
    let synth =
        synthesize(&d, Library::generic(), SynthesisEffort::Advanced2016, &SynthesisOptions::default()).unwrap();
    let text = verilog::write_verilog(&synth.netlist);
    let parsed = verilog::parse_verilog(&text, synth.netlist.library().clone()).unwrap();
    equivalent(&synth.netlist, &parsed, 0, 0);
    equivalent(&d, &parsed, 0, 0);
}

#[test]
fn power_intent_implementation_preserves_function() {
    let d = generate::hierarchical_design(3, 60, 7).unwrap();
    let mut intent = PowerIntent::single_domain(0.9);
    let low = intent.add_domain(PowerDomain { name: "LP".into(), vdd_v: 0.6, switchable: true });
    intent.assign_block(&d, "blk0", low);
    let fixed = implement(&d, &intent).unwrap();
    // One iso_en PI, driven high (power on).
    let extra = fixed.netlist.primary_inputs().len() - d.primary_inputs().len();
    equivalent(&d, &fixed.netlist, extra, 0);
}

#[test]
fn formal_ec_verifies_transformation_chain() {
    // Formal (BDD) verification across the same chain the simulation tests
    // cover: synthesis, then clock gating with tied-high enables, then scan
    // with tied-low scan controls.
    let d = generate::switch_fabric(3, 2).unwrap();
    let synth =
        synthesize(&d, Library::generic(), SynthesisEffort::Advanced2016, &SynthesisOptions::default()).unwrap();
    assert_eq!(
        check_equivalence(&d, &synth.netlist, &[], &[], 1 << 20).unwrap(),
        EcVerdict::Equivalent
    );
    let plan = plan_clock_gating(&synth.netlist, 4).unwrap();
    let mut gated = synth.netlist.clone();
    plan.apply(&mut gated);
    let base_pis = synth.netlist.primary_inputs().len();
    let ties_high: Vec<usize> = (base_pis..base_pis + plan.gates()).collect();
    assert_eq!(
        check_equivalence(&synth.netlist, &gated, &ties_high, &[], 1 << 20).unwrap(),
        EcVerdict::Equivalent
    );
    let scanned = insert_scan(&gated, 2).unwrap();
    let gated_pis = gated.primary_inputs().len();
    let ties_low: Vec<usize> = (gated_pis..gated_pis + 3).collect(); // scan_en + 2 scan_in
    assert_eq!(
        check_equivalence(&gated, &scanned.netlist, &[], &ties_low, 1 << 20).unwrap(),
        EcVerdict::Equivalent
    );
}

/// `adder:4` rebuilt with the final carry as OR instead of MAJ.
fn adder_with_or_carry() -> Netlist {
    let mut broken = Netlist::new("broken");
    let a: Vec<_> = (0..4).map(|i| broken.add_input(format!("a{i}"))).collect();
    let b: Vec<_> = (0..4).map(|i| broken.add_input(format!("b{i}"))).collect();
    let mut carry = broken.add_input("cin");
    for i in 0..4 {
        let axb = broken.add_gate_fn(format!("x1_{i}"), CellFunction::Xor2, &[a[i], b[i]]).unwrap();
        let sum = broken.add_gate_fn(format!("x2_{i}"), CellFunction::Xor2, &[axb, carry]).unwrap();
        let cy = if i == 3 {
            let t = broken.add_gate_fn("bad_or", CellFunction::Or(2), &[a[i], b[i]]).unwrap();
            broken.add_gate_fn("bad_or2", CellFunction::Or(2), &[t, carry]).unwrap()
        } else {
            broken.add_gate_fn(format!("mj_{i}"), CellFunction::Maj3, &[a[i], b[i], carry]).unwrap()
        };
        broken.add_output(format!("sum{i}"), sum);
        carry = cy;
    }
    broken.add_output("cout", carry);
    broken
}

#[test]
fn formal_ec_catches_an_injected_bug() {
    // Mutate one gate of a synthesized design and prove non-equivalence.
    let d = generate::ripple_carry_adder(4).unwrap();
    let broken = adder_with_or_carry();
    match check_equivalence(&d, &broken, &[], &[], 1 << 20).unwrap() {
        EcVerdict::Counterexample(cex) => {
            let (oa, _) = d.simulate(&cex, &[]);
            let (ob, _) = broken.simulate(&cex, &[]);
            assert_ne!(oa, ob, "counterexample must actually distinguish");
        }
        other => panic!("expected counterexample, got {other:?}"),
    }
}

#[test]
fn polarity_library_mapping_is_equivalent() {
    let d = generate::parity_tree(24).unwrap();
    let pol = synthesize(
        &d,
        Library::controlled_polarity(),
        SynthesisEffort::Advanced2016,
        &SynthesisOptions::default(),
    )
    .unwrap();
    equivalent(&d, &pol.netlist, 0, 0);
}

/// Feeds `sinks` of `net` through a fresh inverter: the function of a
/// one-gate polarity bug.
fn invert_at(n: &mut Netlist, net: NetId, sinks: &[(InstId, usize)]) {
    let inv = n.add_gate_fn("bug_inv", CellFunction::Inv, &[net]).unwrap();
    for &(inst, pin) in sinks {
        n.replace_input(inst, pin, inv);
    }
}

#[test]
fn counterexamples_are_pinned() {
    // `satisfy` answers the least model with variable 0 most significant, a
    // function of the miter alone; these vectors are what the checker
    // answered before its BDD kernel gained complement edges.
    let cex = |a: &Netlist, b: &Netlist| match check_equivalence(a, b, &[], &[], 1 << 19).unwrap() {
        EcVerdict::Counterexample(cex) => cex,
        other => panic!("expected a counterexample, got {other:?}"),
    };
    let bits = |v: &[bool]| v.iter().map(|&b| if b { '1' } else { '0' }).collect::<String>();

    assert_eq!(bits(&cex(&generate::ripple_carry_adder(4).unwrap(), &adder_with_or_carry())), "000000010");

    // mult:4 with the full adder's `fa_x_2_1` XOR2 turned into an XNOR2.
    let m = generate::array_multiplier(4).unwrap();
    let mut bm = m.clone();
    let x = bm.find_net("fa_x_2_1_out").unwrap();
    let sinks = bm.net(x).sinks().to_vec();
    invert_at(&mut bm, x, &sinks);
    assert_eq!(bits(&cex(&m, &bm)), "00000000");

    // fabric:3x3 with the first flop's D inverted.
    let f = generate::switch_fabric(3, 3).unwrap();
    let mut bf = f.clone();
    let flop = bf.flops()[0];
    let d = bf.instance(flop).inputs()[0];
    invert_at(&mut bf, d, &[(flop, 0)]);
    assert_eq!(bits(&cex(&f, &bf)), "0".repeat(28));
}

#[test]
fn flowd_pairs_designs_verify_at_the_flow_budget() {
    // The designs `flowd_pairs` sends, against the advanced-2016 netlist at
    // `1_synthesis`'s first-attempt budget of 2^19 nodes.
    for d in [generate::array_multiplier(8).unwrap(), generate::switch_fabric(8, 16).unwrap()] {
        let synth =
            synthesize(&d, Library::generic(), SynthesisEffort::Advanced2016, &SynthesisOptions::default())
                .unwrap();
        assert_eq!(check_equivalence(&d, &synth.netlist, &[], &[], 1 << 19).unwrap(), EcVerdict::Equivalent, "{}", d.name());
    }
}
