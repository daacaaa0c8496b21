//! Placement for the `eda` workspace: floorplanning, global placement,
//! simulated-annealing refinement, multi-threaded partitioned placement,
//! congestion estimation, buffer planning, and hierarchical (per-block)
//! placement.
//!
//! The crate carries three of the panel's claims: multicore P&R throughput
//! (Rossi, claim C9, [`place_parallel`]), flat-vs-hierarchical buffering
//! (Domic, claim C7, [`place_hierarchical`] + [`plan_buffers`]), and the
//! congestion substrate behind scan-chain reordering (Rossi, claim C10,
//! [`CongestionMap`]).
//!
//! # Examples
//!
//! ```
//! use eda_netlist::generate;
//! use eda_place::{anneal, place_global, AnnealConfig, Die, GlobalConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = generate::ripple_carry_adder(16)?;
//! let die = Die::for_netlist(&design, 0.7);
//! let mut placement = place_global(&design, die, &GlobalConfig::default());
//! let stats = anneal(&design, &mut placement, &AnnealConfig::default(), None, None);
//! assert!(stats.hpwl_after <= stats.hpwl_before);
//! # Ok(())
//! # }
//! ```

pub mod anneal;
pub mod audit;
pub mod buffer;
pub mod congestion;
pub mod cts;
pub mod floorplan;
pub mod global;
pub mod hier;
pub mod multilevel;
pub mod parallel;
pub mod pins;
pub mod placement;

pub use anneal::{anneal, AnnealConfig, AnnealStats, Region};
pub use audit::audit_placement;
pub use buffer::{plan_buffers, BufferPlan};
pub use congestion::CongestionMap;
pub use cts::{star_distribution, synthesize_clock_tree, ClockBuffer, ClockTree, CtsConfig};
pub use floorplan::{Die, Point};
pub use global::{legalize, place_global, GlobalConfig};
pub use hier::{place_hierarchical, HierOutcome};
pub use multilevel::{place_multilevel, MultilevelConfig, MultilevelOutcome, CLUSTER_SIZE};
pub use parallel::{place_parallel, thread_cpu_seconds, ParallelConfig, ParallelOutcome, StripeStats};
pub use pins::NetPins;
pub use placement::{Placement, PlacementSnapshot};
