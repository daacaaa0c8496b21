//! Computational lithography for the `eda` workspace: multi-patterning
//! layout decomposition (conflict-graph colouring with stitch insertion) and
//! aerial-image simulation with model-based OPC.
//!
//! Two panel claims live here: Domic's multi-patterning progression
//! (claim C4 — single-exposure pitch floor near 80 nm, double/triple/
//! quadruple at 20 nm and below, octuple at 5 nm without EUV) and Sawicki's
//! computational-lithography enablement (claim C15 — OPC recovering edge
//! placement down to, but not past, the single-exposure resolution limit).
//!
//! # Examples
//!
//! ```
//! use eda_litho::{decompose, Layout};
//!
//! // A 40nm-pitch line array under an 80nm same-mask rule: double patterning.
//! let layout = Layout::line_array(10, 40.0, 2000.0);
//! let d = decompose(&layout, 2, 80.0, 0);
//! assert!(d.legal);
//! assert_eq!(d.masks, 2);
//! ```

pub mod aerial;
pub mod coloring;
pub mod geom;
pub mod hotspot;
pub mod opc;

pub use aerial::{edge_placement_errors, rms, OpticalModel};
pub use coloring::{decompose, required_masks, ConflictGraph, Decomposition};
pub use geom::{Layout, Rect};
pub use hotspot::{find_hotspots, find_hotspots_per_mask, Hotspot, HotspotConfig};
pub use opc::{run_opc, OpcConfig, OpcOutcome};
