//! Logic synthesis for the `eda` workspace: truth tables, irredundant
//! sum-of-products covers, and-inverter graphs, and cut-based technology
//! mapping.
//!
//! The crate reproduces the synthesis story the DATE 2016 panel tells:
//! Domic's decade of RTL-synthesis improvement ([`synthesize`] with its two
//! effort presets), and De Micheli's functionality-enhanced devices (mapping
//! onto the controlled-polarity library).
//!
//! # Examples
//!
//! ```
//! use eda_logic::{synthesize, SynthesisEffort, SynthesisOptions};
//! use eda_netlist::{generate, Library};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = generate::parity_tree(16)?;
//! let out = synthesize(&design, Library::generic(), SynthesisEffort::Advanced2016,
//!                      &SynthesisOptions::default())?;
//! assert!(out.area_um2 > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod aig;
pub mod bdd;
pub mod cube;
mod cuts;
pub mod ec;
pub mod isop;
pub mod map;
pub mod synth;
pub mod tt;

pub use aig::{Aig, AigError, FlopBoundary, Lit, SeqBoundary};
pub use bdd::{BddManager, BddRef};
pub use ec::{check_equivalence, EcError, EcVerdict};
pub use cube::{Cover, Cube};
pub use isop::isop;
pub use map::{map_aig, map_naive, MapError, MapOutcome};
pub use synth::{
    optimize_aig, synthesize, AigPass, SynthesisEffort, SynthesisError, SynthesisOptions,
    SynthesisOutcome, BALANCE_REV, DEFAULT_REWRITE_PASSES,
};
pub use tt::TruthTable;
