//! Clock-gating insertion.
//!
//! Domic: "advanced EDA has made much of 'design for power' techniques
//! automatic and part of 'standard' design". This module performs the
//! flagship such technique: grouping flops under integrated clock gates so
//! the clock tree stops toggling where no data changes.

use eda_netlist::{CellFunction, NetId, Netlist, NetlistError};

/// Result of inserting clock gates.
#[derive(Debug, Clone)]
pub struct GatingOutcome {
    /// The transformed netlist (one new `en_g<i>` primary input per group).
    pub netlist: Netlist,
    /// Number of clock-gate cells inserted.
    pub gates_inserted: usize,
    /// Number of flops now clocked through a gate.
    pub flops_gated: usize,
}

/// Groups flops (`group_size` per gate) and reroutes their CK pins through
/// [`CellFunction::ClockGate`] cells. Each group's enable is a fresh primary
/// input named `en_g<i>`, so the caller controls the gating scenario; with
/// every enable high the design behaves identically to the original.
///
/// # Errors
///
/// Returns an error if the library lacks a clock-gate cell.
///
/// # Panics
///
/// Panics if `group_size == 0`.
pub fn insert_clock_gating(netlist: &Netlist, group_size: usize) -> Result<GatingOutcome, NetlistError> {
    assert!(group_size > 0, "groups must hold at least one flop");
    let lib = netlist.library();
    let cg = lib
        .find_function(CellFunction::ClockGate)
        .ok_or_else(|| NetlistError::UnknownName("ClockGate".into()))?;
    let flops = netlist.flops();
    let mut out = netlist.clone();
    let mut gates = 0usize;
    let mut gated = 0usize;
    for (gi, group) in flops.chunks(group_size).enumerate() {
        // All flops in a group must share a clock net.
        let ck: NetId = out.instance(group[0]).inputs()[1];
        if group.iter().any(|&f| out.instance(f).inputs()[1] != ck) {
            continue;
        }
        let en = out.add_input(format!("en_g{gi}"));
        let gck = out.add_gate(format!("cg{gi}"), cg, &[ck, en])?;
        for &f in group {
            out.replace_input(f, 1, gck);
            gated += 1;
        }
        gates += 1;
    }
    Ok(GatingOutcome { netlist: out, gates_inserted: gates, flops_gated: gated })
}

/// Estimated clock-power saving factor for a gating scenario: the fraction
/// of cycles each enable is low directly removes that share of gated clock
/// toggling.
pub fn clock_saving_fraction(enable_duty: f64, gated_fraction: f64) -> f64 {
    assert!((0.0..=1.0).contains(&enable_duty), "duty must be a probability");
    assert!((0.0..=1.0).contains(&gated_fraction), "fraction must be a probability");
    gated_fraction * (1.0 - enable_duty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::{Activity, ActivityConfig};
    use crate::analysis::{analyze, PowerConfig};
    use eda_netlist::generate;

    #[test]
    fn gating_preserves_function_with_enables_high() {
        let n = generate::switch_fabric(3, 2).unwrap();
        let g = insert_clock_gating(&n, 4).unwrap();
        assert!(g.gates_inserted > 0);
        assert_eq!(g.flops_gated, n.flops().len());
        g.netlist.validate().unwrap();
        // Original inputs + one enable per gate.
        let k = n.primary_inputs().len();
        let pats: Vec<u64> =
            (0..k).map(|i| 0x0123_4567_89AB_CDEFu64.rotate_left(i as u32 * 5)).collect();
        let mut gated_pats = pats.clone();
        gated_pats.extend(std::iter::repeat_n(!0u64, g.gates_inserted)); // enables = 1
        let (o1, s1) = n.simulate64(&pats, &vec![0; n.flops().len()]);
        let (o2, s2) = g.netlist.simulate64(&gated_pats, &vec![0; g.netlist.flops().len()]);
        assert_eq!(o1, o2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn gating_cuts_clock_power_when_idle() {
        let n = generate::switch_fabric(4, 4).unwrap();
        let g = insert_clock_gating(&n, 8).unwrap();
        // Idle enables: probability 0.1 of being active.
        let base_act = Activity::estimate(&n, &ActivityConfig::default()).unwrap();
        let base = analyze(&n, &base_act, &PowerConfig::default());
        let gated_act = Activity::estimate(&g.netlist, &ActivityConfig { input_prob: 0.1, ..Default::default() })
            .unwrap();
        let gated = analyze(&g.netlist, &gated_act, &PowerConfig::default());
        // The gated-clock nets toggle ~10% of the time; flop clock-pin load
        // dominates, so dynamic power must drop noticeably.
        assert!(
            gated.dynamic_mw < base.dynamic_mw,
            "gated {} must be below ungated {}",
            gated.dynamic_mw,
            base.dynamic_mw
        );
    }

    #[test]
    fn saving_formula_bounds() {
        assert_eq!(clock_saving_fraction(1.0, 1.0), 0.0);
        assert_eq!(clock_saving_fraction(0.0, 1.0), 1.0);
        assert!((clock_saving_fraction(0.25, 0.8) - 0.6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one flop")]
    fn zero_group_panics() {
        let n = generate::switch_fabric(3, 2).unwrap();
        let _ = insert_clock_gating(&n, 0);
    }
}
