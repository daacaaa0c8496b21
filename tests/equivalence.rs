//! Functional-equivalence integration tests: every netlist transformation in
//! the workspace must preserve mission-mode behaviour. Verified by
//! bit-parallel co-simulation across transformation pipelines.

use eda::dft::insert_scan;
use eda::logic::{synthesize, MapGoal, SynthesisEffort, SynthesisOptions};
use eda::netlist::{generate, verilog, Library, Netlist};
use eda::power::{implement, insert_clock_gating, PowerDomain, PowerIntent};

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
            synthesize(&d, Library::generic(), SynthesisEffort::Advanced2016, MapGoal::Area, &SynthesisOptions::default())
                .unwrap();
        equivalent(&d, &adv.netlist, 0, 0);
        let base = synthesize(
            &d,
            Library::nand_inv_2006(),
            SynthesisEffort::Baseline2006,
            MapGoal::Area,
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
        synthesize(&d, Library::generic(), SynthesisEffort::Advanced2016, MapGoal::Area, &SynthesisOptions::default()).unwrap();
    equivalent(&d, &synth.netlist, 0, 0);
    // Clock gating adds enable PIs (high = transparent).
    let gated = insert_clock_gating(&synth.netlist, 4).unwrap();
    equivalent(&synth.netlist, &gated.netlist, gated.gates_inserted, 0);
    // Scan adds scan_en + scan_ins (low = mission mode).
    let scanned = insert_scan(&gated.netlist, 2).unwrap();
    equivalent(&gated.netlist, &scanned.netlist, 0, 3);
}

#[test]
fn verilog_roundtrip_after_synthesis() {
    let d = generate::array_multiplier(4).unwrap();
    let synth =
        synthesize(&d, Library::generic(), SynthesisEffort::Advanced2016, MapGoal::Delay, &SynthesisOptions::default()).unwrap();
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
    use eda::logic::{check_equivalence, EcVerdict};
    // Formal (BDD) verification across the same chain the simulation tests
    // cover: synthesis, then clock gating with tied-high enables, then scan
    // with tied-low scan controls.
    let d = generate::switch_fabric(3, 2).unwrap();
    let synth =
        synthesize(&d, Library::generic(), SynthesisEffort::Advanced2016, MapGoal::Area, &SynthesisOptions::default()).unwrap();
    assert_eq!(
        check_equivalence(&d, &synth.netlist, &[], &[], 1 << 20).unwrap(),
        EcVerdict::Equivalent
    );
    let gated = insert_clock_gating(&synth.netlist, 4).unwrap();
    let base_pis = synth.netlist.primary_inputs().len();
    let ties_high: Vec<usize> = (base_pis..base_pis + gated.gates_inserted).collect();
    assert_eq!(
        check_equivalence(&synth.netlist, &gated.netlist, &ties_high, &[], 1 << 20).unwrap(),
        EcVerdict::Equivalent
    );
    let scanned = insert_scan(&gated.netlist, 2).unwrap();
    let gated_pis = gated.netlist.primary_inputs().len();
    let ties_low: Vec<usize> = (gated_pis..gated_pis + 3).collect(); // scan_en + 2 scan_in
    assert_eq!(
        check_equivalence(&gated.netlist, &scanned.netlist, &[], &ties_low, 1 << 20).unwrap(),
        EcVerdict::Equivalent
    );
}

#[test]
fn formal_ec_catches_an_injected_bug() {
    use eda::logic::{check_equivalence, EcVerdict};
    use eda::netlist::{CellFunction, Netlist};
    // Mutate one gate of a synthesized design and prove non-equivalence.
    let d = generate::ripple_carry_adder(4).unwrap();
    let mut broken = Netlist::new("broken");
    // Rebuild the adder but with the final carry using OR instead of MAJ.
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
        MapGoal::Area,
        &SynthesisOptions::default(),
    )
    .unwrap();
    equivalent(&d, &pol.netlist, 0, 0);
}
