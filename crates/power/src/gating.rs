//! Clock-gating insertion.
//!
//! Domic: "advanced EDA has made much of 'design for power' techniques
//! automatic and part of 'standard' design". This module performs the
//! flagship such technique: grouping flops under integrated clock gates so
//! the clock tree stops toggling where no data changes.

use eda_netlist::{CellFunction, CellId, InstId, NetId, Netlist, NetlistError};

/// Clock gates to insert, planned from a read-only netlist: the gate cell
/// and, per gateable group, its index and its flops. [`GatingPlan::apply`]
/// edits the netlist in place, so a flow holds one netlist across the edit.
#[derive(Debug, Clone)]
pub struct GatingPlan {
    cell: CellId,
    /// `(group index, flops)` for every group whose flops share a clock.
    groups: Vec<(usize, Vec<InstId>)>,
}

/// Groups flops (`group_size` per gate) for rerouting their CK pins through
/// [`CellFunction::ClockGate`] cells. Each group's enable will be a fresh
/// primary input named `en_g<i>`, so the caller controls the gating
/// scenario; with every enable high the design behaves identically to the
/// original. A group whose flops do not share a clock net is skipped.
///
/// # Errors
///
/// Returns an error if the library lacks a clock-gate cell.
///
/// # Panics
///
/// Panics if `group_size == 0`.
pub fn plan_clock_gating(netlist: &Netlist, group_size: usize) -> Result<GatingPlan, NetlistError> {
    assert!(group_size > 0, "groups must hold at least one flop");
    let lib = netlist.library();
    let cell = lib
        .find_function(CellFunction::ClockGate)
        .ok_or_else(|| NetlistError::UnknownName("ClockGate".into()))?;
    // Groups are disjoint, so an earlier group's rewiring never touches a
    // later group's clock pins: reading the input answers the shared-clock
    // test exactly as reading the partly gated netlist would.
    let groups = netlist
        .flops()
        .chunks(group_size)
        .enumerate()
        .filter(|(_, group)| {
            let ck: NetId = netlist.instance(group[0]).inputs()[1];
            group.iter().all(|&f| netlist.instance(f).inputs()[1] == ck)
        })
        .map(|(gi, group)| (gi, group.to_vec()))
        .collect();
    Ok(GatingPlan { cell, groups })
}

impl GatingPlan {
    /// Clock-gate cells the plan inserts.
    pub fn gates(&self) -> usize {
        self.groups.len()
    }

    /// Flops the plan clocks through a gate.
    pub fn flops_gated(&self) -> usize {
        self.groups.iter().map(|(_, g)| g.len()).sum()
    }

    /// Inserts the planned gates into `netlist`, which must be the netlist
    /// the plan was made from: per group, in group order, one `en_g<i>`
    /// input, one `cg<i>` gate on the group's clock, and its flops' CK pins
    /// moved onto the gated clock.
    pub fn apply(&self, netlist: &mut Netlist) {
        for (gi, group) in &self.groups {
            let ck = netlist.instance(group[0]).inputs()[1];
            let en = netlist.add_input(format!("en_g{gi}"));
            let gck = netlist
                .add_gate(format!("cg{gi}"), self.cell, &[ck, en])
                .expect("a clock gate has two pins: clock and enable");
            for &f in group {
                netlist.replace_input(f, 1, gck);
            }
        }
    }
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
        let plan = plan_clock_gating(&n, 4).unwrap();
        assert!(plan.gates() > 0);
        assert_eq!(plan.flops_gated(), n.flops().len());
        let mut gated = n.clone();
        plan.apply(&mut gated);
        gated.validate().unwrap();
        // Original inputs + one enable per gate.
        let k = n.primary_inputs().len();
        let pats: Vec<u64> =
            (0..k).map(|i| 0x0123_4567_89AB_CDEFu64.rotate_left(i as u32 * 5)).collect();
        let mut gated_pats = pats.clone();
        gated_pats.extend(std::iter::repeat_n(!0u64, plan.gates())); // enables = 1
        let (o1, s1) = n.simulate64(&pats, &vec![0; n.flops().len()]);
        let (o2, s2) = gated.simulate64(&gated_pats, &vec![0; gated.flops().len()]);
        assert_eq!(o1, o2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn gating_cuts_clock_power_when_idle() {
        let n = generate::switch_fabric(4, 4).unwrap();
        let mut g = n.clone();
        plan_clock_gating(&n, 8).unwrap().apply(&mut g);
        // Idle enables: probability 0.1 of being active.
        let base_act = Activity::estimate(&n, &ActivityConfig::default()).unwrap();
        let base = analyze(&n, &base_act, &PowerConfig::default());
        let gated_act = Activity::estimate(&g, &ActivityConfig { input_prob: 0.1, ..Default::default() })
            .unwrap();
        let gated = analyze(&g, &gated_act, &PowerConfig::default());
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
        let _ = plan_clock_gating(&n, 0);
    }
}
