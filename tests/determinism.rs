//! Serial-vs-parallel determinism for every kernel behind the `eda-par`
//! layer: fault simulation, OPC, and the full flow must be bit-identical
//! for any thread count (the contract in DESIGN.md's "Parallel execution"
//! section).

use eda::core::{run_flow, FlowConfig};
use eda::dft::{fault_list, fault_sim, random_patterns, CombView};
use eda::litho::{run_opc, OpcConfig, OpticalModel};
use eda::netlist::generate;
use eda::tech::Node;
use proptest::prelude::*;

/// The full flow at 2 and 8 worker threads reproduces the 1-thread QoR
/// exactly, down to the last f64 bit.
#[test]
fn full_flow_qor_is_identical_at_any_thread_count() {
    let d = generate::random_logic(generate::RandomLogicConfig {
        gates: 200,
        seed: 11,
        ..Default::default()
    })
    .unwrap();
    let mut cfg = FlowConfig::advanced_2016(Node::N28);
    cfg.threads = 1;
    let base = run_flow(&d, &cfg).unwrap();
    for threads in [2, 8] {
        cfg.threads = threads;
        let r = run_flow(&d, &cfg).unwrap();
        assert_eq!(base.hpwl_um.to_bits(), r.hpwl_um.to_bits(), "threads={threads}");
        assert_eq!(base.routed_wirelength, r.routed_wirelength, "threads={threads}");
        assert_eq!(base.vias, r.vias, "threads={threads}");
        assert_eq!(base.overflow, r.overflow, "threads={threads}");
        assert_eq!(base.wns_ps.to_bits(), r.wns_ps.to_bits(), "threads={threads}");
        assert_eq!(base.test_coverage.to_bits(), r.test_coverage.to_bits(), "threads={threads}");
        assert_eq!(base.dynamic_mw.to_bits(), r.dynamic_mw.to_bits(), "threads={threads}");
        assert_eq!(base.masks, r.masks, "threads={threads}");
        assert_eq!(base.hold_violations, r.hold_violations, "threads={threads}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Fault-simulation coverage maps are thread-invariant on arbitrary
    /// designs and pattern sets.
    #[test]
    fn fault_sim_coverage_is_thread_invariant(
        gates in 80usize..200,
        seed in 0u64..20,
        npat in 32usize..96,
    ) {
        let d = generate::random_logic(generate::RandomLogicConfig {
            gates,
            seed,
            ..Default::default()
        })
        .unwrap();
        let view = CombView::new(&d).unwrap();
        let faults = fault_list(&d);
        let pats = random_patterns(&view, npat, seed ^ 0x5eed);
        let serial = fault_sim(&d, &view, &faults, &pats, 1).0;
        for threads in [2usize, 8] {
            let (par, _) = fault_sim(&d, &view, &faults, &pats, threads);
            prop_assert_eq!(&par.detected, &serial.detected, "threads={}", threads);
            prop_assert_eq!(par.num_detected, serial.num_detected);
        }
    }

    /// OPC masks and per-iteration EPE fields are bit-identical across
    /// thread counts for arbitrary line/space targets.
    #[test]
    fn opc_epe_field_is_thread_invariant(
        pitch in 90.0f64..150.0,
        lines in 4usize..12,
    ) {
        let target: Vec<(f64, f64)> = (0..lines)
            .map(|i| {
                let x = 300.0 + i as f64 * pitch;
                (x, x + pitch / 2.0)
            })
            .collect();
        let extent = 600.0 + pitch * lines as f64;
        let model = OpticalModel::default();
        let serial = run_opc(&model, &target, extent, &OpcConfig::default()).0;
        for threads in [2usize, 8] {
            let cfg = OpcConfig { threads, ..Default::default() };
            let (par, _) = run_opc(&model, &target, extent, &cfg);
            for (a, b) in serial.mask.iter().zip(&par.mask) {
                prop_assert_eq!(a.0.to_bits(), b.0.to_bits(), "threads={}", threads);
                prop_assert_eq!(a.1.to_bits(), b.1.to_bits(), "threads={}", threads);
            }
            for (a, b) in serial.rms_epe_history.iter().zip(&par.rms_epe_history) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "threads={}", threads);
            }
        }
    }
}
