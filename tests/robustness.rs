//! Supervised-flow robustness: the deterministic fault-injection matrix and
//! the no-collateral-damage property (an injected fault never changes the
//! QoR of untouched stages). Resuming a killed flow is the store's contract:
//! `tests/incremental.rs`.

use eda::core::{
    run_flow, DesignSpec, Fault, FaultPlan, FlowConfig, FlowError, FlowReport, LibraryChoice,
    PowerOptions, StageFailure, StageOutcome, STAGES,
};
use eda::netlist::{generate, Netlist};
use eda::tech::Node;
use proptest::prelude::*;
use std::sync::OnceLock;

fn design() -> Netlist {
    generate::switch_fabric(3, 2).unwrap()
}

#[test]
fn every_stage_reports_a_status_at_four_threads() {
    let d = design();
    let mut cfg = FlowConfig::advanced_2016(Node::N28);
    cfg.threads = 4;
    let report = run_flow(&d, &cfg).unwrap();
    assert_eq!(report.stage_status.len(), STAGES.len());
    for stage in STAGES {
        assert!(report.stage_status.contains_key(stage), "missing status for {stage}");
    }
}

/// Every stage × every fault kind at invocation 0: the flow either recovers
/// (run succeeds and the stage carries a typed non-panic outcome) or fails
/// with a typed error naming the stage. At 28nm the litho stage is skipped,
/// so it gets its own matrix entry at 10nm below.
#[test]
fn fault_matrix_recovers_or_reports_typed_errors() {
    let d = design();
    for stage in STAGES {
        for fault in [Fault::Fail, Fault::Timeout, Fault::Degrade] {
            let mut cfg = FlowConfig::advanced_2016(Node::N28);
            cfg.fault_plan = Some(FaultPlan::new(7).with(stage, Some(0), fault));
            match run_flow(&d, &cfg) {
                Ok(report) => {
                    let status = &report.stage_status[stage];
                    assert!(status.attempts <= 2, "{stage} {fault} used {} attempts", status.attempts);
                }
                Err(e) => {
                    assert_eq!(e.stage(), stage, "{stage} {fault}: error blamed {:?}", e.stage());
                    assert!(
                        !e.partial().statuses.contains_key(stage),
                        "{stage} {fault}: salvaged state claims the failed stage finished"
                    );
                }
            }
        }
    }
}

#[test]
fn fault_matrix_covers_litho_at_ten_nanometres() {
    let d = design();
    for fault in [Fault::Fail, Fault::Timeout, Fault::Degrade] {
        let mut cfg = FlowConfig::advanced_2016(Node::N10);
        cfg.fault_plan = Some(FaultPlan::new(7).with("8_litho", Some(0), fault));
        let report = run_flow(&d, &cfg)
            .unwrap_or_else(|e| panic!("litho {fault} should be survivable: {e}"));
        let status = &report.stage_status["8_litho"];
        assert!(
            !matches!(status.outcome, StageOutcome::Skipped { .. }),
            "litho must actually run at 10nm"
        );
    }
}

/// The 2006 NAND/INV library has neither a clock-gate nor a decap cell, so
/// both netlist-editing stages fail their plan and degrade with a typed
/// note. A failed plan edits nothing: the flow ends with the cells, flops
/// and area of the same config with both edits switched off.
#[test]
fn gating_and_decaps_degrade_without_their_cells_and_leave_the_netlist_alone() {
    let d = generate::switch_fabric(4, 4).unwrap();
    let cfg = FlowConfig { library: LibraryChoice::NandInv2006, ..FlowConfig::advanced_2016(Node::N28) };
    let degraded = run_flow(&d, &cfg).unwrap();
    let reason = |stage: &str| match &degraded.stage_status[stage].outcome {
        StageOutcome::Degraded { reason } => reason.clone(),
        other => panic!("{stage} must degrade without its cell, got {other}"),
    };
    assert_eq!(
        reason("2_clock_gating"),
        "clock gating failed, keeping the ungated netlist: unknown name `ClockGate`"
    );
    assert_eq!(
        reason("9_power"),
        "decap insertion failed, continuing without decaps: unknown name `Decap`"
    );
    let off = FlowConfig {
        power: PowerOptions { clock_gating_group: 0, decap_droop_limit_mv: None },
        ..cfg
    };
    let clean = run_flow(&d, &off).unwrap();
    assert_eq!(degraded.cells, clean.cells);
    assert_eq!(degraded.flops, clean.flops);
    assert_eq!(degraded.cell_area_um2.to_bits(), clean.cell_area_um2.to_bits());
    assert_eq!(degraded.decaps, 0);
}

/// A stage that fails on every attempt exhausts its budget and surfaces a
/// typed error carrying the stage name and the progress made before it.
#[test]
fn persistent_failure_exhausts_the_budget() {
    let d = design();
    let mut cfg = FlowConfig::advanced_2016(Node::N28);
    cfg.fault_plan = Some(FaultPlan::new(7).with("4_place", None, Fault::Fail));
    let err = run_flow(&d, &cfg).expect_err("a permanently failing stage cannot complete");
    match &err {
        FlowError::BudgetExhausted { stage, attempts, partial, .. } => {
            assert_eq!(*stage, "4_place");
            assert_eq!(*attempts, 2);
            assert!(partial.statuses.contains_key("1_synthesis"));
            assert!(!partial.statuses.contains_key("4_place"));
        }
        other => panic!("expected BudgetExhausted, got {other}"),
    }
}

/// A design that maps to no instances fails `4_place` with a typed error,
/// never the floorplanner's panic: a bare input-to-output wire under every
/// preset, and `rand:1:2` (one gate that synthesis folds into wires; the
/// 2006 NAND/INV library keeps four cells of it) under the two 2016 presets,
/// at one and two threads.
#[test]
fn a_design_with_no_instances_fails_placement_with_a_typed_error() {
    let mut wire = Netlist::new("wire");
    let a = wire.add_input("a");
    wire.add_output("y", a);
    let rand: Netlist = "rand:1:2".parse::<DesignSpec>().unwrap().build().unwrap();
    let basic = FlowConfig::basic_2006(Node::N28);
    let advanced = FlowConfig::advanced_2016(Node::N28);
    let scale = FlowConfig::scale_2016(Node::N28, 1_000);
    let runs = [
        (&wire, &basic),
        (&wire, &advanced),
        (&wire, &scale),
        (&rand, &advanced),
        (&rand, &scale),
    ];
    for (design, preset) in runs {
        for threads in [1, 2] {
            let cfg = FlowConfig { threads, ..preset.clone() };
            let label = format!("{} under {} at {threads} threads", design.name(), cfg.name);
            match run_flow(design, &cfg) {
                Err(FlowError::Stage { stage, source: StageFailure::NoInstances, partial }) => {
                    assert_eq!(stage, "4_place", "{label}");
                    assert!(partial.statuses.contains_key("1_synthesis"), "{label}");
                }
                Err(other) => panic!("{label}: expected a 4_place NoInstances error, got {other}"),
                Ok(_) => panic!("{label}: placed a design with no instances"),
            }
        }
    }
}

/// The clean 28nm advanced report, computed once for the property below.
fn clean_report() -> &'static FlowReport {
    static CLEAN: OnceLock<FlowReport> = OnceLock::new();
    CLEAN.get_or_init(|| run_flow(&design(), &FlowConfig::advanced_2016(Node::N28)).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// No collateral damage: a single injected fault makes the supervisor
    /// retry or degrade the targeted stage, but every QoR number of the
    /// flow stays bit-identical — recovery parameters adapt only to
    /// *observed* failures, never to injected ones, so untouched stages see
    /// exactly the inputs they would in a clean run.
    #[test]
    fn single_injected_fault_never_changes_qor(stage_idx in 0usize..STAGES.len(), kind in 0u8..3) {
        let fault = match kind {
            0 => Fault::Fail,
            1 => Fault::Timeout,
            _ => Fault::Degrade,
        };
        let stage = STAGES[stage_idx];
        let mut cfg = FlowConfig::advanced_2016(Node::N28);
        cfg.fault_plan = Some(FaultPlan::new(11).with(stage, Some(0), fault));
        let faulted = run_flow(&design(), &cfg)
            .unwrap_or_else(|e| panic!("single fault on {stage} must be survivable: {e}"));
        // Same QoR modulo the targeted stage's own status bookkeeping.
        let mut masked = faulted.clone();
        masked.stage_status = clean_report().stage_status.clone();
        prop_assert!(
            masked.same_qor(clean_report()),
            "fault {fault} on {stage} leaked into QoR"
        );
    }
}
