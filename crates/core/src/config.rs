//! Flow configuration: the knobs of the integrated RTL-to-layout pipeline,
//! with the two presets the panel's decade comparison needs.

use crate::harness::FaultPlan;
use crate::store::StoreConfig;
use eda_logic::SynthesisEffort;
use eda_netlist::Library;
use eda_route::RouteAlgorithm;
use eda_tech::Node;
use std::sync::Arc;

/// Which standard-cell library the flow maps onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LibraryChoice {
    /// The rich modern library.
    Generic,
    /// The impoverished NAND2/INV/DFF baseline library.
    NandInv2006,
}

impl LibraryChoice {
    /// Resolves to the concrete library.
    pub fn library(self) -> Arc<Library> {
        match self {
            LibraryChoice::Generic => Library::generic(),
            LibraryChoice::NandInv2006 => Library::nand_inv_2006(),
        }
    }
}

/// Placement algorithm selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlaceAlgorithm {
    /// Force-directed global placement, then one serial anneal over the
    /// whole die (decade-old baseline).
    Flat,
    /// Global placement, then annealing refinement over stripe partitions,
    /// the one placement path [`FlowConfig::threads`] reaches. The stripe
    /// partition, not the worker count, determines the result.
    Striped,
    /// Cluster → serpentine seed → refine, serial; the scale tier's
    /// placer.
    Multilevel,
}

/// DFT options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanOptions {
    /// Number of scan chains.
    pub chains: usize,
    /// Reorder chains from placement (Rossi's complaint when absent).
    pub placement_aware_reorder: bool,
}

/// Power options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerOptions {
    /// Insert clock gates with this group size (0 = off).
    pub clock_gating_group: usize,
    /// Automatic decap insertion against this droop limit in mV
    /// (`None` = off).
    pub decap_droop_limit_mv: Option<f64>,
}

/// The complete flow configuration.
///
/// A QoR-relevant field is here because a preset, a front door or a claim
/// sets it to more than one value, and each is some stage's cache knob
/// (`name`, `threads`, `store`, `fault_plan` and `deadline_s` are run
/// settings no stage reads). A value that no caller varies is a constant
/// of the kernel that reads it instead (the rewrite bound, the multilevel
/// cluster size, the CTS, STA, power, OPC and ATPG model constants), so the
/// knob space a tuner searches holds only what the decade comparison
/// varies.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowConfig {
    /// Preset name (for reports).
    pub name: String,
    /// Target node.
    pub node: Node,
    /// Library to map onto.
    pub library: LibraryChoice,
    /// Synthesis preset. Mapping always targets area, and the advanced
    /// script's rewrite bound is [`eda_logic::REWRITE_PASSES`].
    pub synthesis: SynthesisEffort,
    /// Core utilization for floorplanning.
    pub utilization: f64,
    /// Placer algorithm.
    pub placer: PlaceAlgorithm,
    /// Annealing moves per cell: the refinement budget of every
    /// [`PlaceAlgorithm`].
    pub anneal_moves_per_cell: usize,
    /// Router algorithm. It routes on the node's typical metal stack.
    pub router: RouteAlgorithm,
    /// Rip-up and re-route iterations.
    pub ripup_iterations: usize,
    /// G-cells per side of the routing grid (the resolution congestion is
    /// negotiated at). Larger designs want finer grids.
    pub route_grid_cells: u32,
    /// Routing search bound: `0` (the default) lets every maze search
    /// materialize the full grid. When positive, each search is confined to
    /// its connection's bounding box expanded by this many g-cells —
    /// per-search scratch becomes proportional to the connection instead of
    /// the grid area, which is how the scale tier routes without a dense
    /// grid — and rip-up takes only paths on strictly overflowed edges as
    /// victims instead of every path on an at-capacity edge. QoR-relevant
    /// (detour room and victim rule), so it folds into the config
    /// fingerprint; still bit-identical at any thread count (the router is
    /// serial).
    pub route_window_margin: u32,
    /// Scan insertion (None = no DFT).
    pub scan: Option<ScanOptions>,
    /// Power techniques.
    pub power: PowerOptions,
    /// Clock frequency in MHz.
    pub clock_mhz: f64,
    /// Formally verify the mapped netlist against the input design (BDD
    /// equivalence check with simulation fallback).
    pub verify_synthesis: bool,
    /// RNG seed for all stochastic stages.
    pub seed: u64,
    /// Worker threads for the one parallel kernel, the partitioned
    /// placer's stripe refinement (`0` = all available cores). It reaches
    /// only [`PlaceAlgorithm::Striped`]; the other placers, synthesis,
    /// routing, OPC and fault simulation run serially. The stripe partition
    /// never depends on the worker count and stripes merge in stripe order
    /// (`eda_place::parallel`), so every QoR output
    /// is bit-identical for any value of this knob — including the
    /// deterministic section of [`FlowReport::telemetry`], which records
    /// worker counts and wall clocks only in its separate `wall` section.
    ///
    /// [`FlowReport::telemetry`]: crate::report::FlowReport::telemetry
    pub threads: usize,
    /// The persistent flow store (`None` = no caching, no resume, no
    /// provenance): stage cache and QoR provenance in one
    /// file (DESIGN.md §9, §14). A warm rerun, or the rerun of a killed
    /// flow, replays every stage that completed, bit-identically; its traffic
    /// lands in the `cache.*` metrics. Ignored while a
    /// [`fault_plan`](Self::fault_plan) is active, so injected faults
    /// exercise the real stage bodies. Excluded from the config fingerprint:
    /// where results are cached cannot change what they are.
    pub store: Option<StoreConfig>,
    /// Deterministic fault-injection plan (`None` = no injection). Faults
    /// are keyed on `(stage name, invocation count)`, so an injected plan
    /// reproduces identically at any thread count.
    pub fault_plan: Option<FaultPlan>,
    /// Flow-level wall-clock deadline in seconds (`None` = no deadline).
    /// Checked at every stage boundary: once the flow has run longer than
    /// this, the next stage surfaces a typed
    /// [`FlowError::DeadlineExceeded`](crate::flow::FlowError::DeadlineExceeded)
    /// carrying the partial state — a running attempt is never interrupted,
    /// so every stage that finished is whole in the [`store`](Self::store)
    /// and a rerun replays it.
    /// Excluded from the config fingerprint, like `fault_plan`: it cannot
    /// change the QoR of a flow that completes.
    pub deadline_s: Option<f64>,
}

impl Default for FlowConfig {
    /// Modern single-run defaults: the advanced-2016 knob set at N28 with no
    /// caching or fault injection. A config is a struct-update literal over
    /// this (`FlowConfig { seed: 7, ..FlowConfig::default() }`), so call
    /// sites keep compiling as fields are added.
    fn default() -> FlowConfig {
        FlowConfig {
            name: "custom".into(),
            node: Node::N28,
            library: LibraryChoice::Generic,
            synthesis: SynthesisEffort::Advanced2016,
            utilization: 0.7,
            placer: PlaceAlgorithm::Striped,
            anneal_moves_per_cell: 40,
            router: RouteAlgorithm::LineSearch,
            ripup_iterations: 6,
            route_grid_cells: 32,
            route_window_margin: 0,
            scan: Some(ScanOptions { chains: 2, placement_aware_reorder: true }),
            power: PowerOptions { clock_gating_group: 8, decap_droop_limit_mv: Some(50.0) },
            clock_mhz: 200.0,
            verify_synthesis: true,
            seed: 1,
            threads: 0,
            store: None,
            fault_plan: None,
            deadline_s: None,
        }
    }
}

/// A knob combination [`FlowConfig::validate`] rejects.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The config name is empty.
    EmptyName,
    /// Core utilization must lie in `(0, 1]`.
    Utilization(f64),
    /// The clock frequency must be finite and positive.
    ClockMhz(f64),
    /// Scan insertion was requested with zero chains.
    NoScanChains,
    /// The routing grid needs at least 2 g-cells per side.
    RouteGrid(u32),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::EmptyName => write!(f, "flow config name must not be empty"),
            ConfigError::Utilization(u) => {
                write!(f, "core utilization must be in (0, 1], got {u}")
            }
            ConfigError::ClockMhz(mhz) => {
                write!(f, "clock frequency must be finite and positive, got {mhz} MHz")
            }
            ConfigError::NoScanChains => {
                write!(f, "scan insertion was requested with zero chains")
            }
            ConfigError::RouteGrid(cells) => {
                write!(f, "routing grid needs at least 2 g-cells per side, got {cells}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl FlowConfig {
    /// Checks the knobs a stage kernel would otherwise trip over (a panic or
    /// a NaN clock). [`run_flow`](crate::flow::run_flow) calls this before
    /// the first stage, so every path into the flow gets the typed error.
    ///
    /// # Examples
    ///
    /// ```
    /// use eda_core::{ConfigError, FlowConfig, StoreConfig};
    /// use eda_tech::Node;
    ///
    /// let cfg = FlowConfig {
    ///     name: "nightly".into(),
    ///     node: Node::N10,
    ///     threads: 4,
    ///     store: Some(StoreConfig::at("/tmp/eda/flow.store")),
    ///     ..FlowConfig::default()
    /// };
    /// assert_eq!(cfg.validate(), Ok(()));
    ///
    /// let bad = FlowConfig { utilization: 1.5, ..cfg };
    /// assert_eq!(bad.validate(), Err(ConfigError::Utilization(1.5)));
    /// ```
    ///
    /// # Errors
    ///
    /// The first [`ConfigError`] found, checked in declaration order.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.name.is_empty() {
            return Err(ConfigError::EmptyName);
        }
        if !(self.utilization > 0.0 && self.utilization <= 1.0) {
            return Err(ConfigError::Utilization(self.utilization));
        }
        if !(self.clock_mhz.is_finite() && self.clock_mhz > 0.0) {
            return Err(ConfigError::ClockMhz(self.clock_mhz));
        }
        if matches!(self.scan, Some(ScanOptions { chains: 0, .. })) {
            return Err(ConfigError::NoScanChains);
        }
        if self.route_grid_cells < 2 {
            return Err(ConfigError::RouteGrid(self.route_grid_cells));
        }
        Ok(())
    }

    /// The decade-old baseline: naive synthesis onto the poor library, BFS
    /// routing without negotiation, no design-for-power, no placement-aware
    /// scan.
    pub fn basic_2006(node: Node) -> FlowConfig {
        FlowConfig {
            name: "basic-2006".into(),
            node,
            library: LibraryChoice::NandInv2006,
            synthesis: SynthesisEffort::Baseline2006,
            utilization: 0.6,
            placer: PlaceAlgorithm::Flat,
            anneal_moves_per_cell: 10,
            router: RouteAlgorithm::LeeBfs,
            ripup_iterations: 0,
            scan: Some(ScanOptions { chains: 1, placement_aware_reorder: false }),
            power: PowerOptions { clock_gating_group: 0, decap_droop_limit_mv: None },
            verify_synthesis: false,
            threads: 1,
            ..FlowConfig::default()
        }
    }

    /// The advanced 2016 flow: optimized synthesis onto the rich library,
    /// negotiated line-search routing, clock gating, decaps, and
    /// placement-aware scan reordering.
    pub fn advanced_2016(node: Node) -> FlowConfig {
        FlowConfig { name: "advanced-2016".into(), node, ..FlowConfig::default() }
    }

    /// The memory-lean scale-tier preset: the advanced flow retargeted at
    /// 10⁵–10⁶-instance mesh fabrics (see
    /// [`scale_mesh`](eda_netlist::generate::scale_mesh)).
    ///
    /// Placement goes multilevel (cluster → serpentine seed → refine), routing
    /// negotiates on a finer grid but confines every maze search to its
    /// connection's bounding box plus an 8-g-cell margin, and the two
    /// verification passes whose cost is super-linear in design size — the
    /// BDD/simulation equivalence check and random-pattern fault
    /// simulation (with the scan stages that only exist to feed it) — are
    /// off. Every stage that remains is meant to be near-linear in
    /// instances; 10⁵ is the largest run recorded so far. Still
    /// bit-identical at any thread count.
    ///
    /// `instances` is the expected design size and only sizes the routing
    /// grid. Per-edge track capacity is a constant of the rule deck, so
    /// total capacity grows as `grid²` while demand (tile-local wirelength
    /// measured in g-cells) grows as `grid·√instances`: holding the grid
    /// fixed would saturate it, and *coarsening* concentrates the same wires
    /// onto fewer edges and makes congestion strictly worse. So the grid
    /// side scales as √instances. That holds utilization constant only while
    /// nets stay tile-local, and as measured they do not: with the seed
    /// placement, routed wirelength per connection grows from 41 g-cells at
    /// 2.5·10⁴ to 74 at 10⁵. Negotiation still closes overflow-free at
    /// 1.25·10⁵, but not on every seed at 2·10⁵.
    pub fn scale_2016(node: Node, instances: usize) -> FlowConfig {
        // ~3.25·√n: with this family of meshes the constant pins steady-state
        // edge utilization (demand/capacity ∝ 1/constant) near 70%, enough
        // headroom for negotiation to close the remaining hotspots. Floor
        // keeps tiny smoke designs on a sane grid.
        let grid = ((instances as f64).sqrt() * 3.25).round().max(32.0) as u32;
        FlowConfig {
            name: "scale-2016".into(),
            node,
            placer: PlaceAlgorithm::Multilevel,
            anneal_moves_per_cell: 1,
            route_grid_cells: grid,
            route_window_margin: 8,
            ripup_iterations: 5,
            scan: None,
            verify_synthesis: false,
            ..FlowConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_where_it_matters() {
        let b = FlowConfig::basic_2006(Node::N90);
        let a = FlowConfig::advanced_2016(Node::N90);
        assert_ne!(b.synthesis, a.synthesis);
        assert_ne!(b.router, a.router);
        assert_eq!(b.power.clock_gating_group, 0);
        assert!(a.power.clock_gating_group > 0);
        assert_eq!((b.placer, a.placer), (PlaceAlgorithm::Flat, PlaceAlgorithm::Striped));
        // 2006 ran single-threaded; 2016 uses every core (0 = auto).
        assert_eq!(b.threads, 1);
        assert_eq!(a.threads, 0);
    }

    #[test]
    fn defaults_match_the_advanced_preset() {
        // The only deltas from `FlowConfig::default()` are name and node.
        let adv = FlowConfig::advanced_2016(Node::N10);
        let dflt = FlowConfig { name: adv.name.clone(), node: adv.node, ..FlowConfig::default() };
        assert_eq!(dflt, adv);
    }

    #[test]
    fn scale_preset_is_memory_lean() {
        let s = FlowConfig::scale_2016(Node::N28, 100_000);
        assert_eq!(s.placer, PlaceAlgorithm::Multilevel, "scale places multilevel");
        assert!(s.route_window_margin > 0, "scale routes in bounded windows");
        assert!(s.route_grid_cells > FlowConfig::default().route_grid_cells);
        assert!(!s.verify_synthesis && s.scan.is_none(), "super-linear passes are off");
    }

    #[test]
    fn validate_rejects_invalid_knobs() {
        let ok = FlowConfig::default();
        let rows: [(FlowConfig, Result<(), ConfigError>); 7] = [
            (FlowConfig { name: String::new(), ..ok.clone() }, Err(ConfigError::EmptyName)),
            (FlowConfig { utilization: 0.0, ..ok.clone() }, Err(ConfigError::Utilization(0.0))),
            (FlowConfig { utilization: 1.01, ..ok.clone() }, Err(ConfigError::Utilization(1.01))),
            (FlowConfig { clock_mhz: -1.0, ..ok.clone() }, Err(ConfigError::ClockMhz(-1.0))),
            (
                FlowConfig {
                    scan: Some(ScanOptions { chains: 0, placement_aware_reorder: true }),
                    ..ok.clone()
                },
                Err(ConfigError::NoScanChains),
            ),
            (FlowConfig { route_grid_cells: 1, ..ok.clone() }, Err(ConfigError::RouteGrid(1))),
            (FlowConfig { utilization: 1.0, scan: None, ..ok.clone() }, Ok(())),
        ];
        for (cfg, want) in rows {
            assert_eq!(cfg.validate(), want, "{cfg:?}");
        }
        // NaN never compares equal, so its row matches on the variant.
        let nan = FlowConfig { clock_mhz: f64::NAN, ..ok.clone() };
        assert!(matches!(nan.validate(), Err(ConfigError::ClockMhz(mhz)) if mhz.is_nan()));
        for preset in [
            FlowConfig::basic_2006(Node::N90),
            FlowConfig::advanced_2016(Node::N10),
            FlowConfig::scale_2016(Node::N28, 10_000),
            ok,
        ] {
            assert_eq!(preset.validate(), Ok(()), "{}", preset.name);
        }
    }

    #[test]
    fn struct_literal_updates_keep_compiling() {
        // The one way to build a config.
        let cfg = FlowConfig { seed: 7, threads: 2, ..FlowConfig::default() };
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.threads, 2);
        assert_eq!(cfg.library, LibraryChoice::Generic);
    }

    #[test]
    fn library_choices_resolve() {
        assert!(LibraryChoice::Generic.library().find("XOR2_X1").is_some());
        assert!(LibraryChoice::NandInv2006.library().find("XOR2_X1").is_none());
    }
}
