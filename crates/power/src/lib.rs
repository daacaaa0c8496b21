//! Power analysis and optimization for the `eda` workspace.
//!
//! Implements the panel's "design for power" story end to end: switching
//! [`activity`] estimation, per-node [`analysis`] (the dynamic/static
//! crossover of claim C6), automatic clock [`gating`], UPF-style power
//! intent with checking and implementation ([`domains`], Domic's "scores of
//! voltage/supply/shutdown domains"), the [`dark`]-silicon model, and
//! power-density mapping with automatic decap insertion ([`grid`],
//! Rossi's networking-ASIC hot spots, claim C12).
//!
//! # Examples
//!
//! ```
//! use eda_netlist::generate;
//! use eda_power::{analyze, Activity, ActivityConfig, PowerConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = generate::switch_fabric(4, 4)?;
//! let activity = Activity::estimate(&design, &ActivityConfig::default())?;
//! let report = analyze(&design, &activity, &PowerConfig::default());
//! assert!(report.total_mw() > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod activity;
pub mod analysis;
pub mod dark;
pub mod domains;
pub mod gating;
pub mod grid;
pub mod irdrop;

pub use activity::{clock_nets, Activity, ActivityConfig};
pub use analysis::{analyze, node_power_sweep, NodePowerRow, PowerConfig, PowerReport};
pub use dark::{dark_silicon_sweep, DarkSiliconRow, TechniqueStack};
pub use domains::{check, implement, ImplementOutcome, IntentViolation, PowerDomain, PowerIntent};
pub use gating::{clock_saving_fraction, plan_clock_gating, GatingPlan};
pub use grid::{plan_decaps, DecapPlan, PowerGrid};
pub use irdrop::{solve_ir_drop, IrDropMap, MeshConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use eda_netlist::{codec, generate, memo::fnv1a};
    use eda_place::{place_global, Die, GlobalConfig};
    use eda_tech::Node;

    /// The two in-place edits, pinned by the FNV of the netlist codec text
    /// they leave: net and instance ids, names and order all count. The
    /// digests were recorded from the entry points that returned an edited
    /// copy, so applying a plan must reproduce that copy exactly.
    #[test]
    fn edited_netlists_are_pinned() {
        let fabric = generate::switch_fabric(4, 4).unwrap();
        let mut gated = fabric.clone();
        plan_clock_gating(&fabric, 4).unwrap().apply(&mut gated);
        assert_eq!(fnv1a(codec::to_text(&gated).bytes()), 0x8013_8578_15da_697d);

        // `grid::tests::decap_insertion_clears_hotspots`' hot-bin scenario.
        let die = Die::for_netlist(&fabric, 0.7);
        let p = place_global(&fabric, die, &GlobalConfig::default());
        let a = Activity::estimate(&fabric, &ActivityConfig::default()).unwrap();
        let cfg = PowerConfig { freq_mhz: 2000.0, ..Default::default() };
        let mut grid = PowerGrid::build(&fabric, &p, &a.scaled(5.0), &cfg, 8);
        let limit = grid.peak_droop(Node::N28) * 0.3;
        let plan = plan_decaps(fabric.library(), &mut grid, Node::N28, limit).unwrap();
        assert_eq!(plan.decaps(), 36);
        let mut decapped = fabric.clone();
        plan.apply(&mut decapped);
        assert_eq!(fnv1a(codec::to_text(&decapped).bytes()), 0x2bb0_f7be_f6cd_364f);
    }
}
