//! Flow configuration: the knobs of the integrated RTL-to-layout pipeline,
//! with the two presets the panel's decade comparison needs.

use crate::harness::FaultPlan;
use crate::store::StoreConfig;
use eda_logic::{MapGoal, SynthesisEffort, DEFAULT_REWRITE_PASSES};
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
    /// De Micheli's controlled-polarity device library.
    ControlledPolarity,
}

impl LibraryChoice {
    /// Resolves to the concrete library.
    pub fn library(self) -> Arc<Library> {
        match self {
            LibraryChoice::Generic => Library::generic(),
            LibraryChoice::NandInv2006 => Library::nand_inv_2006(),
            LibraryChoice::ControlledPolarity => Library::controlled_polarity(),
        }
    }
}

/// Placement effort knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlaceEffort {
    /// Global-placement smoothing iterations.
    pub global_iterations: usize,
    /// Annealing moves per cell.
    pub anneal_moves_per_cell: usize,
    /// Stripe partitions for partitioned refinement (`<= 1` = monolithic
    /// serial annealing). Determines the placement result; worker threads
    /// come from [`FlowConfig::threads`] and never change the result.
    pub stripes: usize,
    /// Target instances per cluster for the multilevel
    /// (cluster → coarse-place → refine) pass the scale tier places with.
    /// `0` (the default) keeps the flat global + anneal path; when positive
    /// it replaces both the flat pass and striped refinement, and
    /// `anneal_moves_per_cell` becomes the refinement budget.
    pub cluster_gates: usize,
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
#[derive(Debug, Clone, PartialEq)]
pub struct FlowConfig {
    /// Preset name (for reports).
    pub name: String,
    /// Target node.
    pub node: Node,
    /// Library to map onto.
    pub library: LibraryChoice,
    /// Synthesis preset.
    pub synthesis: SynthesisEffort,
    /// Mapping objective.
    pub map_goal: MapGoal,
    /// AIG rewrite passes in the advanced synthesis script (the
    /// balance–rewriteⁿ–balance recipe; ignored by the 2006 baseline).
    /// QoR-relevant, so it folds into the config fingerprint — and it is
    /// the canonical "small edit" of the incremental demo: changing it
    /// invalidates the synthesis *stage* entry while the per-pass sub-stage
    /// entries of the unchanged prefix still replay from the store.
    pub aig_rewrite_passes: usize,
    /// Core utilization for floorplanning.
    pub utilization: f64,
    /// Placement effort.
    pub place: PlaceEffort,
    /// Router algorithm.
    pub router: RouteAlgorithm,
    /// Metal layers used for routing.
    pub layers: u32,
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
    /// fingerprint; still bit-identical at any thread count.
    pub route_window_margin: u32,
    /// Partition shape of the router's wave schedule: `0` (the default) is
    /// one region covering the grid, i.e. the canonical order routed
    /// serially. When positive (requires a positive
    /// [`route_window_margin`](Self::route_window_margin) — full-grid
    /// windows overlap every region), the grid is tiled into regions this
    /// many g-cells on a side and workers search-and-commit region-interior
    /// connections against private overlays, negotiating only seam-crossing
    /// connections — the parallel mode of the scale tier. Shapes
    /// parallelism, never QoR: outcomes are bit-identical at any region
    /// size *and* any thread count (only the partition diagnostics in the
    /// telemetry move, which is why it stays in the config fingerprint).
    pub route_region_size: u32,
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
    /// Worker threads for every parallel kernel — partitioned placement,
    /// wave-scheduled routing, fault simulation (`0` = all available
    /// cores). The deterministic parallel layer (`eda-par`) guarantees every QoR output
    /// is bit-identical for any value of this knob — including the
    /// deterministic section of [`FlowReport::telemetry`], which records
    /// worker counts and wall clocks only in its separate `wall` section.
    ///
    /// [`FlowReport::telemetry`]: crate::report::FlowReport::telemetry
    pub threads: usize,
    /// The persistent flow store (`None` = no caching, no resume, no
    /// provenance). One schema'd append-friendly file holding the
    /// content-addressed stage cache (keyed by `(stage kind, per-stage
    /// config fingerprint, pre-stage state hash)` — a hit replays the stored
    /// post-stage state bit-identically), the sub-stage cache (per-AIG-pass
    /// and whole-route-outcome entries that survive edits which invalidate
    /// a whole stage), and the QoR provenance tables `experiments query`
    /// reads. It is also how a killed flow resumes: rerun the same design
    /// and config against the same store, and every stage that completed
    /// replays while the rest compute, bit-identical to an uninterrupted run.
    /// Hits/misses/errors land in the telemetry metric registry
    /// (`cache.hits`, `cache.misses`, `cache.errors`, `cache.evicted_miss`,
    /// `cache.substage_hits`, `cache.substage_misses`) and tag the stage
    /// spans; corrupt or evicted entries silently fall back to recompute.
    /// Ignored — nothing read, nothing persisted — while a
    /// [`fault_plan`](Self::fault_plan) is active — injected faults must
    /// exercise the real stage bodies, not replay cached results. Excluded
    /// from the config fingerprint: where results are cached cannot change
    /// what they are.
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
    /// caching or fault injection. Struct-literal updates
    /// (`FlowConfig { seed: 7, ..FlowConfig::default() }`) therefore keep
    /// compiling as fields are added.
    fn default() -> FlowConfig {
        FlowConfig {
            name: "custom".into(),
            node: Node::N28,
            library: LibraryChoice::Generic,
            synthesis: SynthesisEffort::Advanced2016,
            map_goal: MapGoal::Area,
            aig_rewrite_passes: DEFAULT_REWRITE_PASSES,
            utilization: 0.7,
            place: PlaceEffort {
                global_iterations: 10,
                anneal_moves_per_cell: 40,
                stripes: 4,
                cluster_gates: 0,
            },
            router: RouteAlgorithm::LineSearch,
            layers: Node::N28.spec().typical_metal_layers,
            ripup_iterations: 6,
            route_grid_cells: 32,
            route_window_margin: 0,
            route_region_size: 0,
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

/// A knob combination [`FlowConfigBuilder::build`] refuses to produce.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The config name is empty.
    EmptyName,
    /// Core utilization must lie in `(0, 1]`.
    Utilization(f64),
    /// At least one metal layer is required for routing.
    NoLayers,
    /// The clock frequency must be finite and positive.
    ClockMhz(f64),
    /// Scan insertion was requested with zero chains.
    NoScanChains,
    /// The routing grid needs at least 2 g-cells per side.
    RouteGrid(u32),
    /// Region-partitioned routing was requested without a bounded search
    /// window (the seam protocol needs windows to bound each connection's
    /// demand footprint).
    RegionWithoutWindow(u32),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::EmptyName => write!(f, "flow config name must not be empty"),
            ConfigError::Utilization(u) => {
                write!(f, "core utilization must be in (0, 1], got {u}")
            }
            ConfigError::NoLayers => write!(f, "routing needs at least one metal layer"),
            ConfigError::ClockMhz(mhz) => {
                write!(f, "clock frequency must be finite and positive, got {mhz} MHz")
            }
            ConfigError::NoScanChains => {
                write!(f, "scan insertion was requested with zero chains")
            }
            ConfigError::RouteGrid(cells) => {
                write!(f, "routing grid needs at least 2 g-cells per side, got {cells}")
            }
            ConfigError::RegionWithoutWindow(size) => {
                write!(
                    f,
                    "region-partitioned routing (region size {size}) requires a \
                     positive route window margin"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Typed builder for [`FlowConfig`], validating at [`build`](Self::build).
///
/// Starts from [`FlowConfig::default`] (the modern knob set), so a builder
/// only names the knobs it changes. `layers` tracks the target node unless
/// set explicitly.
///
/// # Examples
///
/// ```
/// use eda_core::{ConfigError, FlowConfig, StoreConfig};
/// use eda_tech::Node;
///
/// let cfg = FlowConfig::builder()
///     .name("nightly")
///     .node(Node::N10)
///     .threads(4)
///     .store(StoreConfig::at("/tmp/eda/flow.store"))
///     .build()?;
/// assert_eq!(cfg.layers, Node::N10.spec().typical_metal_layers);
///
/// let err = FlowConfig::builder().utilization(1.5).build();
/// assert_eq!(err, Err(ConfigError::Utilization(1.5)));
/// # Ok::<(), ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FlowConfigBuilder {
    cfg: FlowConfig,
    /// Explicit layer override; `None` resolves from the node at build time.
    layers: Option<u32>,
}

impl FlowConfigBuilder {
    /// Preset name (for reports).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.cfg.name = name.into();
        self
    }

    /// Target node. Also re-resolves the default metal-layer count unless
    /// [`layers`](Self::layers) was set explicitly.
    pub fn node(mut self, node: Node) -> Self {
        self.cfg.node = node;
        self
    }

    /// Library to map onto.
    pub fn library(mut self, library: LibraryChoice) -> Self {
        self.cfg.library = library;
        self
    }

    /// Synthesis preset.
    pub fn synthesis(mut self, synthesis: SynthesisEffort) -> Self {
        self.cfg.synthesis = synthesis;
        self
    }

    /// Mapping objective.
    pub fn map_goal(mut self, map_goal: MapGoal) -> Self {
        self.cfg.map_goal = map_goal;
        self
    }

    /// AIG rewrite passes in the advanced synthesis script.
    pub fn aig_rewrite_passes(mut self, passes: usize) -> Self {
        self.cfg.aig_rewrite_passes = passes;
        self
    }

    /// Core utilization for floorplanning; must be in `(0, 1]`.
    pub fn utilization(mut self, utilization: f64) -> Self {
        self.cfg.utilization = utilization;
        self
    }

    /// Placement effort.
    pub fn place(mut self, place: PlaceEffort) -> Self {
        self.cfg.place = place;
        self
    }

    /// Router algorithm.
    pub fn router(mut self, router: RouteAlgorithm) -> Self {
        self.cfg.router = router;
        self
    }

    /// Metal layers used for routing (defaults to the node's typical stack).
    pub fn layers(mut self, layers: u32) -> Self {
        self.layers = Some(layers);
        self
    }

    /// Rip-up and re-route iterations.
    pub fn ripup_iterations(mut self, iterations: usize) -> Self {
        self.cfg.ripup_iterations = iterations;
        self
    }

    /// G-cells per side of the routing grid; must be at least 2.
    pub fn route_grid_cells(mut self, cells: u32) -> Self {
        self.cfg.route_grid_cells = cells;
        self
    }

    /// Bounded-memory routing window margin in g-cells (`0` = full-grid
    /// searches).
    pub fn route_window_margin(mut self, margin: u32) -> Self {
        self.cfg.route_window_margin = margin;
        self
    }

    /// Region side length of the router's wave schedule (`0` = one region,
    /// serial); a positive size requires a positive window margin.
    pub fn route_region_size(mut self, size: u32) -> Self {
        self.cfg.route_region_size = size;
        self
    }

    /// Scan insertion (`None` = no DFT).
    pub fn scan(mut self, scan: Option<ScanOptions>) -> Self {
        self.cfg.scan = scan;
        self
    }

    /// Power techniques.
    pub fn power(mut self, power: PowerOptions) -> Self {
        self.cfg.power = power;
        self
    }

    /// Clock frequency in MHz; must be finite and positive.
    pub fn clock_mhz(mut self, clock_mhz: f64) -> Self {
        self.cfg.clock_mhz = clock_mhz;
        self
    }

    /// Formally verify the mapped netlist against the input design.
    pub fn verify_synthesis(mut self, verify: bool) -> Self {
        self.cfg.verify_synthesis = verify;
        self
    }

    /// RNG seed for all stochastic stages.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Worker threads for every parallel kernel (`0` = all cores); never
    /// changes QoR.
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads;
        self
    }

    /// The persistent flow store: stage cache, sub-stage cache, and QoR
    /// provenance in one size-bounded file.
    pub fn store(mut self, store: StoreConfig) -> Self {
        self.cfg.store = Some(store);
        self
    }

    /// Deterministic fault-injection plan.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.cfg.fault_plan = Some(plan);
        self
    }

    /// Flow-level wall-clock deadline in seconds, enforced at stage
    /// boundaries.
    pub fn deadline_s(mut self, deadline_s: f64) -> Self {
        self.cfg.deadline_s = Some(deadline_s);
        self
    }

    /// Validates the knob combination and produces the config.
    pub fn build(self) -> Result<FlowConfig, ConfigError> {
        let mut cfg = self.cfg;
        cfg.layers = self.layers.unwrap_or_else(|| cfg.node.spec().typical_metal_layers);
        if cfg.name.is_empty() {
            return Err(ConfigError::EmptyName);
        }
        if !(cfg.utilization > 0.0 && cfg.utilization <= 1.0) {
            return Err(ConfigError::Utilization(cfg.utilization));
        }
        if cfg.layers == 0 {
            return Err(ConfigError::NoLayers);
        }
        if !(cfg.clock_mhz.is_finite() && cfg.clock_mhz > 0.0) {
            return Err(ConfigError::ClockMhz(cfg.clock_mhz));
        }
        if matches!(cfg.scan, Some(ScanOptions { chains: 0, .. })) {
            return Err(ConfigError::NoScanChains);
        }
        if cfg.route_grid_cells < 2 {
            return Err(ConfigError::RouteGrid(cfg.route_grid_cells));
        }
        if cfg.route_region_size > 0 && cfg.route_window_margin == 0 {
            return Err(ConfigError::RegionWithoutWindow(cfg.route_region_size));
        }
        Ok(cfg)
    }
}

impl FlowConfig {
    /// A typed builder seeded with [`FlowConfig::default`]; knobs are
    /// validated together at [`FlowConfigBuilder::build`].
    pub fn builder() -> FlowConfigBuilder {
        FlowConfigBuilder { cfg: FlowConfig::default(), layers: None }
    }

    /// The decade-old baseline: naive synthesis onto the poor library, BFS
    /// routing without negotiation, no design-for-power, no placement-aware
    /// scan.
    pub fn basic_2006(node: Node) -> FlowConfig {
        FlowConfig::builder()
            .name("basic-2006")
            .node(node)
            .library(LibraryChoice::NandInv2006)
            .synthesis(SynthesisEffort::Baseline2006)
            .utilization(0.6)
            .place(PlaceEffort {
                global_iterations: 4,
                anneal_moves_per_cell: 10,
                stripes: 1,
                cluster_gates: 0,
            })
            .router(RouteAlgorithm::LeeBfs)
            .ripup_iterations(0)
            .scan(Some(ScanOptions { chains: 1, placement_aware_reorder: false }))
            .power(PowerOptions { clock_gating_group: 0, decap_droop_limit_mv: None })
            .verify_synthesis(false)
            .threads(1)
            .build()
            .expect("the 2006 preset is statically valid")
    }

    /// The advanced 2016 flow: optimized synthesis onto the rich library,
    /// negotiated line-search routing, clock gating, decaps, and
    /// placement-aware scan reordering.
    pub fn advanced_2016(node: Node) -> FlowConfig {
        FlowConfig::builder()
            .name("advanced-2016")
            .node(node)
            .build()
            .expect("the 2016 preset is statically valid")
    }

    /// The memory-lean scale-tier preset: the advanced flow retargeted at
    /// 10⁵–10⁶-instance mesh fabrics (see
    /// [`scale_mesh`](eda_netlist::generate::scale_mesh)).
    ///
    /// Placement goes multilevel (cluster → coarse-place → refine), routing
    /// negotiates on a finer grid but confines every maze search to its
    /// connection's bounding box plus an 8-g-cell margin, and the two
    /// verification passes whose cost is super-linear in design size — the
    /// BDD/simulation equivalence check and random-pattern fault
    /// simulation (with the scan stages that only exist to feed it) — are
    /// off. Every stage that remains is near-linear in instances, which is
    /// what lets the same 11-stage supervised flow finish at a million
    /// gates. Still bit-identical at any thread count.
    ///
    /// `instances` is the expected design size and only sizes the routing
    /// grid. Per-edge track capacity is a constant of the rule deck, so
    /// total capacity grows as `grid²` while demand (tile-local wirelength
    /// measured in g-cells) grows as `grid·√instances`: holding the grid
    /// fixed would saturate it, and *coarsening* concentrates the same wires
    /// onto fewer edges and makes congestion strictly worse. Scaling the
    /// grid side as √instances keeps
    /// edge utilization roughly constant from 10⁴ to 10⁶.
    pub fn scale_2016(node: Node, instances: usize) -> FlowConfig {
        // ~3.25·√n: with this family of meshes the constant pins steady-state
        // edge utilization (demand/capacity ∝ 1/constant) near 70%, enough
        // headroom for negotiation to close the remaining hotspots. Floor
        // keeps tiny smoke designs on a sane grid.
        let grid = ((instances as f64).sqrt() * 3.25).round().max(32.0) as u32;
        FlowConfig::builder()
            .name("scale-2016")
            .node(node)
            .place(PlaceEffort {
                global_iterations: 8,
                anneal_moves_per_cell: 1,
                stripes: 1,
                cluster_gates: 64,
            })
            .route_grid_cells(grid)
            .route_window_margin(8)
            // ~8 regions per side (≥2× the window margin so most
            // connections are region-interior): enough parallel grain for
            // any sane worker count while keeping seam fraction low.
            .route_region_size((grid / 8).max(16))
            .ripup_iterations(5)
            .scan(None)
            .verify_synthesis(false)
            .build()
            .expect("the scale preset is statically valid")
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
        assert!(a.place.stripes > b.place.stripes);
        // 2006 ran single-threaded; 2016 uses every core (0 = auto).
        assert_eq!(b.threads, 1);
        assert_eq!(a.threads, 0);
    }

    #[test]
    fn builder_defaults_match_the_advanced_preset() {
        // The presets are now built on the builder; the only deltas from
        // `FlowConfig::default()` are the name and the node-derived layers.
        let mut dflt = FlowConfig::default();
        let adv = FlowConfig::advanced_2016(Node::N10);
        dflt.name = adv.name.clone();
        dflt.node = adv.node;
        dflt.layers = adv.layers;
        assert_eq!(dflt, adv);
    }

    #[test]
    fn scale_preset_is_memory_lean() {
        let s = FlowConfig::scale_2016(Node::N28, 100_000);
        assert!(s.place.cluster_gates > 0, "scale places multilevel");
        assert_eq!(s.place.stripes, 1);
        assert!(s.route_window_margin > 0, "scale routes in bounded windows");
        assert!(s.route_region_size > 0, "scale routes region-partitioned");
        assert!(
            s.route_region_size >= 2 * s.route_window_margin,
            "regions must dwarf the window margin or everything is a seam"
        );
        assert!(s.route_grid_cells > FlowConfig::default().route_grid_cells);
        assert!(!s.verify_synthesis && s.scan.is_none(), "super-linear passes are off");
    }

    #[test]
    fn builder_resolves_layers_from_the_node() {
        let cfg = FlowConfig::builder().node(Node::N10).build().unwrap();
        assert_eq!(cfg.layers, Node::N10.spec().typical_metal_layers);
        let cfg = FlowConfig::builder().node(Node::N10).layers(3).build().unwrap();
        assert_eq!(cfg.layers, 3);
    }

    #[test]
    fn builder_rejects_invalid_knobs() {
        assert_eq!(FlowConfig::builder().name("").build(), Err(ConfigError::EmptyName));
        assert_eq!(
            FlowConfig::builder().utilization(0.0).build(),
            Err(ConfigError::Utilization(0.0))
        );
        assert_eq!(
            FlowConfig::builder().utilization(1.01).build(),
            Err(ConfigError::Utilization(1.01))
        );
        assert_eq!(FlowConfig::builder().layers(0).build(), Err(ConfigError::NoLayers));
        assert!(matches!(
            FlowConfig::builder().clock_mhz(f64::NAN).build(),
            Err(ConfigError::ClockMhz(_))
        ));
        assert_eq!(
            FlowConfig::builder().clock_mhz(-1.0).build(),
            Err(ConfigError::ClockMhz(-1.0))
        );
        assert_eq!(
            FlowConfig::builder()
                .scan(Some(ScanOptions { chains: 0, placement_aware_reorder: true }))
                .build(),
            Err(ConfigError::NoScanChains)
        );
        assert_eq!(
            FlowConfig::builder().route_grid_cells(1).build(),
            Err(ConfigError::RouteGrid(1))
        );
        assert_eq!(
            FlowConfig::builder().route_region_size(16).build(),
            Err(ConfigError::RegionWithoutWindow(16))
        );
        assert!(FlowConfig::builder()
            .route_region_size(16)
            .route_window_margin(4)
            .build()
            .is_ok());
    }

    #[test]
    fn struct_literal_updates_keep_compiling() {
        // The documented migration path for pre-builder call sites.
        let cfg = FlowConfig { seed: 7, threads: 2, ..FlowConfig::default() };
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.threads, 2);
        assert_eq!(cfg.library, LibraryChoice::Generic);
    }

    #[test]
    fn library_choices_resolve() {
        assert!(LibraryChoice::Generic.library().find("XOR2_X1").is_some());
        assert!(LibraryChoice::NandInv2006.library().find("XOR2_X1").is_none());
        assert!(LibraryChoice::ControlledPolarity.library().find("XOR2_P").is_some());
    }
}
