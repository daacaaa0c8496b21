//! Global routing for the `eda` workspace: a capacitated g-cell grid, Lee
//! BFS and congestion-aware A* maze routing, Mikami–Tabuchi line search, and
//! PathFinder-style negotiated rip-up and re-route.
//!
//! The crate carries Domic's routing claims (C5): line-search routers doing
//! less work under simpler rule decks, negotiation closing designs on fewer
//! layers, and multi-patterned decks eating capacity ([`RuleDeck`]).
//!
//! # Examples
//!
//! ```
//! use eda_netlist::generate;
//! use eda_place::{place_global, Die, GlobalConfig};
//! use eda_route::{route, RouteConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let n = generate::parity_tree(32)?;
//! let die = Die::for_netlist(&n, 0.7);
//! let placement = place_global(&n, die, &GlobalConfig::default());
//! let out = route(&n, &placement, &RouteConfig::default());
//! assert!(out.wirelength > 0);
//! # Ok(())
//! # }
//! ```

mod audit;
pub mod grid;
pub mod linesearch;
pub mod maze;
#[cfg(test)]
mod reference;
pub mod region;
pub mod router;
pub mod rules;
pub mod scratch;

pub use grid::{DemandGrid, GCell, RoutingGrid};
pub use region::{OverlayGrid, RegionMap, RegionScheduler, RegionTask};
pub use linesearch::probe_window;
pub use maze::{count_bends, Path, SearchStats, SearchWindow};
pub use router::{
    route, route_audited, route_stats, route_stats_memo, RouteAlgorithm, RouteConfig,
    RouteOutcome, ROUTE_OUTCOME_KIND, SCHEDULE_REV,
};
pub use rules::RuleDeck;
pub use scratch::SearchScratch;
