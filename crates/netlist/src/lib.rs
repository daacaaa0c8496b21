//! Gate-level netlist substrate for the `eda` workspace.
//!
//! Provides the shared vocabulary every other subsystem speaks:
//!
//! * [`cell`] — logic functions, characterized cells, and the three standard
//!   [`Library`] flavours the panel's comparisons need;
//! * [`netlist`] — the flat netlist graph with validation, topological
//!   ordering and bit-parallel simulation;
//! * [`view`] — [`CombView`], the full-scan combinational core sorted once:
//!   the one 64-lane evaluator that simulation, equivalence checking, fault
//!   simulation and test generation all run through;
//! * [`generate`] — seeded synthetic design generators (adders, multipliers,
//!   parity trees, switch fabrics, hierarchical SoCs, random logic, and the
//!   scale-tier mesh fabrics);
//! * [`memo`] — the FNV-1a content hash the flow's cache keys derive from;
//! * [`stats`] — structural statistics;
//! * [`verilog`] — a structural-Verilog writer/parser for interchange.
//!
//! # Examples
//!
//! ```
//! use eda_netlist::{generate, NetlistStats};
//!
//! # fn main() -> Result<(), eda_netlist::NetlistError> {
//! let fabric = generate::switch_fabric(4, 8)?;
//! fabric.validate()?;
//! let stats = NetlistStats::of(&fabric);
//! assert!(stats.flops > 0);
//! # Ok(())
//! # }
//! ```

pub mod cell;
pub mod codec;
pub mod generate;
pub mod liberty;
pub mod memo;
pub mod netlist;
pub mod stats;
pub mod verilog;
pub mod view;

pub use cell::{CellDef, CellFunction, CellId, Library};
pub use codec::CodecError;
pub use netlist::{InstId, Instance, Net, NetDriver, NetId, Netlist, NetlistError, WIRE_CAP_PER_FANOUT_FF};
pub use liberty::{parse_clf, parse_liberty, write_clf, write_liberty, ParseLibError};
pub use stats::NetlistStats;
pub use verilog::{parse_verilog, write_verilog, ParseVerilogError};
pub use view::CombView;
