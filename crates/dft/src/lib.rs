//! Design-for-test for the `eda` workspace: scan insertion, placement-aware
//! scan-chain reordering, stuck-at fault simulation, PODEM ATPG, and
//! EDT-style test compression for low-pin-count test.
//!
//! Fault simulation, PODEM and compaction all work on the full-scan
//! combinational core through [`eda_netlist::CombView`], the netlist's one
//! levelized view: callers build it once per netlist and pass it in.
//!
//! Carries two panel claims: Rossi's scan-chain reordering during physical
//! implementation (claim C10, [`reorder_chains`]) and Sawicki's retargeting
//! of high-compression DFT at low-pin-count test for cheap IoT packages
//! (claim C14, [`compress`]).
//!
//! # Examples
//!
//! ```
//! use eda_dft::{fault_list, run_atpg, AtpgConfig};
//! use eda_netlist::{generate, CombView};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = generate::ripple_carry_adder(4)?;
//! let view = CombView::new(&design)?;
//! let faults = fault_list(&design);
//! let out = run_atpg(&design, &view, &faults, &AtpgConfig::default());
//! assert!(out.coverage > 0.95);
//! # Ok(())
//! # }
//! ```

pub mod atpg;
pub mod compress;
pub mod faults;
pub mod scan;

pub use atpg::{generate_test, run_atpg, AtpgConfig, AtpgOutcome, AtpgResult};
pub use compress::{bypass_fault_sim, compact, compressed_fault_sim, CompressionOutcome, TestAccess};
pub use faults::{fault_list, fault_sim, random_patterns, Fault, FaultSimOutcome};
pub use scan::{insert_scan, reorder_chains, scan_wirelength, ScanOutcome};
