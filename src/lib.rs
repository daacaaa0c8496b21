//! The `eda` facade: one crate, one namespace, the whole flow.
//!
//! Everything a downstream user needs lives at the crate root — running a
//! flow ([`run_flow`], [`FlowConfig`], [`FlowReport`], [`FlowError`]),
//! serving many designs through one flow ([`FlowServer`], [`FlowRequest`],
//! [`FlowResponse`]), and exporting telemetry ([`TelemetrySnapshot`] with
//! its `deterministic_text` / `chrome_trace_json` / `metrics_json` /
//! `folded_stacks` exports). The subsystem crates remain reachable under
//! their module aliases (`eda::netlist`, `eda::tech`, …) for anything not
//! re-exported.
//!
//! # Examples
//!
//! Run one design through the flow:
//!
//! ```
//! use eda::{run_flow, FlowConfig};
//! use eda::netlist::generate;
//! use eda::tech::Node;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = generate::ripple_carry_adder(8)?;
//! let cfg = FlowConfig { name: "quickstart".into(), node: Node::N28, threads: 1, ..FlowConfig::default() };
//! let report = run_flow(&design, &cfg)?;
//! assert!(report.cell_area_um2 > 0.0);
//! let _trace = report.telemetry.chrome_trace_json();
//! # Ok(())
//! # }
//! ```
//!
//! Serve a batch of designs through one server sharing a flow store:
//!
//! ```no_run
//! use eda::{FlowConfig, FlowRequest, FlowServer, StoreConfig};
//! use eda::netlist::generate;
//! use eda::tech::Node;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = FlowConfig::advanced_2016(Node::N28);
//! let batch = vec![
//!     FlowRequest::new(generate::parity_tree(8)?, cfg.clone()).with_priority(1),
//!     FlowRequest::new(generate::ripple_carry_adder(8)?, cfg),
//! ];
//! let store = StoreConfig::at("/tmp/eda-cache/flow.store");
//! let server = FlowServer::builder().threads(4).store(store).build();
//! let report = server.serve(batch);
//! assert_eq!(report.responses.len(), 2);
//! println!("{:.1} designs/s", report.throughput_per_s());
//! # Ok(())
//! # }
//! ```
//!
//! Run a flow against a persistent store, then query its QoR provenance —
//! [`FlowStore`] is the typed surface over one append-friendly file holding
//! the stage cache, the sub-stage memo, and the run history:
//!
//! ```
//! use eda::{run_flow, FlowConfig, FlowStore, QorQuery, StoreConfig};
//! use eda::netlist::generate;
//! use eda::tech::Node;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dir = std::env::temp_dir().join(format!("eda-facade-{}", std::process::id()));
//! let store = StoreConfig::at(dir.join("flow.store"));
//!
//! let design = generate::ripple_carry_adder(8)?;
//! let cfg = FlowConfig {
//!     name: "quickstart".into(),
//!     node: Node::N28,
//!     threads: 1,
//!     store: Some(store.clone()),
//!     ..FlowConfig::default()
//! };
//! let report = run_flow(&design, &cfg)?;
//!
//! // Every completed run appended a provenance row keyed by the design's
//! // name; ask for the history.
//! let handle = FlowStore::open(&store)?;
//! let rows = handle.qor_history(&QorQuery {
//!     design: Some(design.name().into()),
//!     stage: None,
//!     last: 10,
//! })?;
//! assert_eq!(rows.len(), 1);
//! assert_eq!(rows[0].qor_fp, report.qor_fingerprint());
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

pub use eda_core as core;
pub use eda_dft as dft;
pub use eda_litho as litho;
pub use eda_logic as logic;
pub use eda_netlist as netlist;
pub use eda_place as place;
pub use eda_power as power;
pub use eda_route as route;
pub use eda_smart as smart;
pub use eda_sta as sta;
pub use eda_tech as tech;

pub use eda_core::{
    run_flow, ConfigError, Fault, FaultPlan, FlowConfig, FlowError, FlowReport, FlowRequest,
    FlowResponse, FlowServer, FlowServerBuilder, FlowStore, FlowTuner, Lookup, Metric, PartialFlow, QorQuery, QorRow, ServerReport, Span, SpanKind,
    StageRow, StageStatus, Store, StoreConfig, StoreError, Table, Telemetry, TelemetrySnapshot,
    STAGES,
};
