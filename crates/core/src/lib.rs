//! The integrated EDA flow — the panel's primary subject, as a library.
//!
//! `eda-core` wires every substrate crate into one RTL-to-layout pipeline
//! ([`run_flow`]) with two presets bracketing the panel's decade
//! ([`FlowConfig::basic_2006`] vs [`FlowConfig::advanced_2016`] — Domic's "if
//! one uses an advanced EDA solution, one can do more with less"), and adds
//! the self-learning flow engine Rossi asks for ([`FlowTuner`], claim C11).
//!
//! # Examples
//!
//! ```
//! use eda_core::{run_flow, FlowConfig};
//! use eda_netlist::generate;
//! use eda_tech::Node;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = generate::ripple_carry_adder(8)?;
//! let report = run_flow(&design, &FlowConfig::advanced_2016(Node::N28))?;
//! assert!(report.cell_area_um2 > 0.0);
//! println!("{report}");
//! # Ok(())
//! # }
//! ```

// The flow library must never panic on user-reachable paths: recover,
// degrade, or return a typed error instead. `.expect()` stays legal for
// documented internal invariants; test modules are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod cache;
pub mod config;
pub mod daemon;
mod engine;
pub mod flow;
pub mod harness;
pub mod learn;
pub mod report;
pub mod server;
mod state;
pub mod store;
pub mod telemetry;

pub use config::{ConfigError, FlowConfig, LibraryChoice, PlaceAlgorithm, PowerOptions, ScanOptions};
pub use daemon::client::{DaemonClient, Endpoint, RequestOutcome, RetryPolicy, Terminal};
pub use daemon::protocol::{
    flow_config_for, DaemonStats, DesignSpec, QuerySpec, RejectReason, SubmitSpec,
    TransportFault, TransportFaultPlan,
};
pub use daemon::{Daemon, DaemonConfig};
pub use flow::{run_flow, run_flow_observed, FlowError, PartialFlow, StageFailure, STAGES};
pub use harness::{Fault, FaultPlan, FaultRule, FaultSpecError, StageOutcome, StageStatus};
pub use learn::{Arm, ArmStats, FlowTuner};
pub use report::FlowReport;
pub use server::{FlowRequest, FlowResponse, FlowServer, FlowServerBuilder, ServerReport};
pub use store::{
    FlowStore, Lookup, QorQuery, QorRow, Query, StageRow, Store, StoreConfig,
    StoreError, Table,
};
pub use telemetry::{read_peak_rss_bytes, Histogram, Metric, Span, SpanKind, Telemetry, TelemetrySnapshot, WallSpan};
