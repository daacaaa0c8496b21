//! The integrated RTL-to-layout flow: the panel's "advanced EDA solution"
//! as one callable pipeline, executed under a supervising harness.
//!
//! Stages: synthesis → clock gating → scan insertion → placement →
//! scan reordering → clock-tree synthesis → timing → routing → lithography
//! decomposition + OPC → power analysis → test-coverage estimation. Every
//! stage runs inside the [`harness`](crate::harness) supervisor: it gets
//! two attempts, a typed [`StageStatus`](crate::harness::StageStatus) in the
//! report, and a recovery policy (see DESIGN.md §7 for the full table):
//!
//! * an inconclusive equivalence check escalates the simulation budget once
//!   (2²² nodes), then records `Degraded` instead of silently reporting
//!   "not verified";
//! * routing that still overflows after its rip-up budget degrades to
//!   partial routes (no escalation: a coarser grid has less capacity);
//! * a decomposition that stays illegal or an OPC pass that misses its EPE
//!   target retries with a doubled stitch budget and a halved OPC gain;
//! * an IR-drop solve that stalls at the iteration cap retries with a
//!   relaxed tolerance;
//! * clock gating that fails keeps the ungated netlist and degrades.
//!
//! The flow is one stage table (`TABLE`: per stage its name, the config
//! knobs its cache key covers, the parts of the flow state it reads and
//! writes, its scalar outputs, and its body) and one driver loop
//! (`run_flow_shared`) that alone runs the per-stage protocol — cache probe,
//! body or replay, cache store, clock. The driver enforces the declarations:
//! a body runs with every part it does not read taken out of the state, and
//! every taken-out part it does not write must still be empty afterwards.
//!
//! With `FlowConfig::store` set, the driver stores what every stage it
//! computes wrote, keyed on what the stage read; a killed flow rerun against
//! the same store replays every stage that completed, restarts from the
//! first one that did not, and produces bit-identical QoR
//! ([`FlowReport::same_qor`]). The store is the only resume mechanism:
//! without one, or under a fault plan (which bypasses it), nothing is
//! persisted or serialized and a rerun starts over.

use crate::cache::{self, CacheError, Entry};
use crate::config::{ConfigError, FlowConfig, PlaceAlgorithm};
use crate::harness::{StageCtx, StageStatus, StageTry, Supervisor};
use crate::report::FlowReport;
use crate::state::{self, FlowState, Part, Scalar};
use crate::store::{FlowStore, QorRow, StageRow, Store, Table};
use crate::telemetry::{SpanKind, Telemetry};
use eda_dft::{fault_list, fault_sim, insert_scan, random_patterns, reorder_chains, scan_wirelength, CombView};
use eda_litho::{decompose, run_opc, Layout, OpcConfig, OpticalModel};
use eda_logic::{check_equivalence, synthesize, EcVerdict};
use eda_netlist::memo::{fnv1a, Fnv1a};
use eda_netlist::{codec, Netlist, NetlistStats};
use eda_place::{anneal, place_global, place_multilevel, plan_buffers, synthesize_clock_tree, AnnealConfig, CtsConfig, Die, GlobalConfig, MultilevelConfig, ParallelConfig};
use eda_power::{analyze, plan_clock_gating, plan_decaps, solve_ir_drop, Activity, ActivityConfig, DecapPlan, MeshConfig, PowerConfig, PowerGrid};
use eda_route::{RouteConfig, RuleDeck};
use eda_sta::{TimingAnalysis, TimingConfig};
use eda_tech::PatterningPlan;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// RMS edge-placement error below which the flow's OPC pass counts as
/// converged, nm.
const OPC_RMS_EPE_LIMIT_NM: f64 = 4.0;

/// Simulation budgets for the synthesis equivalence check: the first
/// attempt, and the escalated retry after an inconclusive verdict.
const EC_BUDGET: usize = 1 << 19;
const EC_BUDGET_ESCALATED: usize = 1 << 22;

/// `4_place`'s fixed per-algorithm parameters: the flat placer's
/// global-smoothing iterations and the striped placer's partitions per pass
/// (the multilevel placer's cluster size is `eda_place::CLUSTER_SIZE`).
const FLAT_GLOBAL_ITERATIONS: usize = 4;
const PLACE_STRIPES: usize = 4;

/// A hard failure inside one stage that no recovery policy can absorb.
#[derive(Debug)]
pub enum StageFailure {
    /// The config failed [`FlowConfig::validate`]; raised before any stage
    /// runs, attributed to the first.
    Config(ConfigError),
    /// Synthesis failed.
    Synthesis(eda_logic::SynthesisError),
    /// A netlist transformation or traversal failed.
    Netlist(eda_netlist::NetlistError),
    /// The design mapped to no instances, so there is nothing to floorplan
    /// or place (a netlist of bare wires from inputs to outputs).
    NoInstances,
}

impl std::fmt::Display for StageFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StageFailure::Config(e) => write!(f, "{e}"),
            StageFailure::Synthesis(e) => write!(f, "{e}"),
            StageFailure::Netlist(e) => write!(f, "{e}"),
            StageFailure::NoInstances => write!(f, "the netlist has no instances to place"),
        }
    }
}

impl std::error::Error for StageFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StageFailure::Config(e) => Some(e),
            StageFailure::Synthesis(e) => Some(e),
            StageFailure::Netlist(e) => Some(e),
            StageFailure::NoInstances => None,
        }
    }
}

impl From<eda_logic::SynthesisError> for StageFailure {
    fn from(e: eda_logic::SynthesisError) -> Self {
        StageFailure::Synthesis(e)
    }
}

impl From<eda_netlist::NetlistError> for StageFailure {
    fn from(e: eda_netlist::NetlistError) -> Self {
        StageFailure::Netlist(e)
    }
}

/// Salvageable state carried by a flow error: everything completed before
/// the failure.
#[derive(Debug, Clone)]
pub struct PartialFlow {
    /// Statuses of every stage that finished (or was skipped) before the
    /// failure, keyed by stage name.
    pub statuses: BTreeMap<String, StageStatus>,
}

/// Errors surfaced by the flow, carrying the failing stage and salvageable
/// partial state.
#[derive(Debug)]
pub enum FlowError {
    /// A stage hit a hard failure.
    Stage {
        /// The failing stage.
        stage: &'static str,
        /// The underlying failure.
        source: StageFailure,
        /// Everything completed before the failure.
        partial: Box<PartialFlow>,
    },
    /// A stage ran out of attempts (or an injected timeout forbade the
    /// retry) without producing an acceptable or salvageable result.
    BudgetExhausted {
        /// The exhausted stage.
        stage: &'static str,
        /// Attempts consumed.
        attempts: usize,
        /// Why the last attempt was rejected.
        reason: String,
        /// Everything completed before the failure.
        partial: Box<PartialFlow>,
    },
    /// The flow blew its wall-clock deadline
    /// ([`FlowConfig::deadline_s`](crate::config::FlowConfig::deadline_s)).
    /// Raised at a stage boundary — a running attempt always finishes, so a
    /// worker is never left hung — and carries everything completed before
    /// the deadline. With a store bound, a rerun replays those stages.
    DeadlineExceeded {
        /// The stage that was about to start when the deadline tripped.
        stage: &'static str,
        /// Wall-clock seconds the flow had consumed.
        elapsed_s: f64,
        /// The configured deadline.
        deadline_s: f64,
        /// Everything completed before the deadline.
        partial: Box<PartialFlow>,
    },
}

impl FlowError {
    /// The stage the error is attributed to; every variant names one.
    pub fn stage(&self) -> &'static str {
        match self {
            FlowError::Stage { stage, .. }
            | FlowError::BudgetExhausted { stage, .. }
            | FlowError::DeadlineExceeded { stage, .. } => stage,
        }
    }

    /// The salvageable partial state; every variant carries one.
    pub fn partial(&self) -> &PartialFlow {
        match self {
            FlowError::Stage { partial, .. }
            | FlowError::BudgetExhausted { partial, .. }
            | FlowError::DeadlineExceeded { partial, .. } => partial,
        }
    }
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Stage { stage, source, partial } => {
                write!(f, "stage `{stage}` failed after {} completed stage(s): {source}", partial.statuses.len())
            }
            FlowError::BudgetExhausted { stage, attempts, reason, .. } => {
                write!(f, "stage `{stage}` exhausted its budget after {attempts} attempt(s): {reason}")
            }
            FlowError::DeadlineExceeded { stage, elapsed_s, deadline_s, partial } => {
                write!(
                    f,
                    "flow deadline exceeded before stage `{stage}`: {elapsed_s:.3} s elapsed against a {deadline_s:.3} s deadline, {} stage(s) completed",
                    partial.statuses.len()
                )
            }
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::Stage { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// What every stage body reads besides the flow state: the run's inputs and
/// what is derived from them once.
struct Env<'a> {
    cfg: &'a FlowConfig,
    design: &'a Netlist,
    plan: PatterningPlan,
}

/// What a stage body hands back to the driver: its outputs live in the flow
/// state, so only the failure is left to return.
type StageResult = Result<(), FlowError>;

/// One row of the stage table — the single definition of a stage. Its
/// position in [`TABLE`] is its position in the flow.
struct Stage {
    /// The stage key: span name, status key, fault-plan target,
    /// wire-protocol stage id.
    name: &'static str,
    /// The config knobs `body` reads, rendered for the stage's cache key —
    /// `node` and `seed` included, and only where the body reads them. Knobs
    /// the body never looks at must not be here (they would invalidate its
    /// entries for nothing); every knob it does read must be, or a warm run
    /// could replay state computed under a different effective config —
    /// `tests/incremental.rs` edits each knob of the whole-config
    /// fingerprint in turn to hold that. The first argument is the design's
    /// content digest ([`design_digest`]); it appears only in `1_synthesis`:
    /// downstream stages see the design through the parts they read.
    knobs: fn(u64, &FlowConfig) -> String,
    /// The parts of the flow state `body` reads: the stage's cache key
    /// hashes their digests. The body runs with every other part taken out.
    reads: &'static [Part],
    /// The parts `body` writes besides its own outputs, in entry order
    /// (chains, placement, netlist): the stage's entry holds them.
    writes: &'static [Part],
    /// The stage's own scalar outputs, [`Part::Outputs`] of its position:
    /// the fields of the state only its body writes.
    outputs: fn(&mut FlowState) -> Vec<&mut dyn Scalar>,
    /// Runs the stage under the supervisor: reads its inputs from the flow
    /// state, writes its outputs back. Everything else a stage needs — cache
    /// probe and store, clocks — is the driver's ([`run_flow_shared`]),
    /// never the body's.
    body: fn(&'static str, &Env<'_>, &mut FlowState, &mut Supervisor<'_>) -> StageResult,
}

impl Stage {
    /// The per-stage config fingerprint: the stage's name and its knobs.
    fn config_fp(&self, design: u64, cfg: &FlowConfig) -> u64 {
        fnv1a(format!("{}{}", self.name, (self.knobs)(design, cfg)).bytes())
    }
}

/// The netlist and the placement: the parts a stage that places, times,
/// routes or powers the design reads.
const PHYSICAL: &[Part] = &[Part::Netlist, Part::Placement];
const NETLIST: &[Part] = &[Part::Netlist];

/// The position of `7_route`, whose outputs `8_litho` reads.
const ROUTE: usize = 7;

/// Scan insertion, reordering, and fault simulation all key on the scan
/// options (chains and reorder flag both change their results or their skip
/// notes).
fn scan_knobs(_: u64, cfg: &FlowConfig) -> String {
    format!("|{:?}", cfg.scan)
}

/// The design's identity in the `1_synthesis` key: FNV-1a of its codec
/// text, so two designs key alike only when their content is alike. A run
/// computes it once, and only when a store is open.
fn design_digest(design: &Netlist) -> u64 {
    let mut h = Fnv1a::new();
    codec::write_text(design, &mut h).expect("hashing never fails");
    h.finish()
}

const TABLE: [Stage; 11] = [
    Stage {
        name: "1_synthesis",
        // The balance revision keeps a store written by an older script
        // (balance or rewrite bound) from replaying its netlists under this
        // one.
        knobs: |design, cfg| {
            format!(
                "|rev{}|{design:016x}|{:?}|{:?}|{}",
                eda_logic::BALANCE_REV,
                cfg.library,
                cfg.synthesis,
                cfg.verify_synthesis,
            )
        },
        reads: &[],
        writes: NETLIST,
        outputs: |st| vec![&mut st.synthesis_verified],
        body: synthesis,
    },
    Stage {
        name: "2_clock_gating",
        knobs: |_, cfg| format!("|{}", cfg.power.clock_gating_group),
        reads: NETLIST,
        writes: NETLIST,
        outputs: |_| Vec::new(),
        body: clock_gating,
    },
    Stage {
        name: "3_scan",
        knobs: scan_knobs,
        reads: NETLIST,
        writes: &[Part::Chains, Part::Netlist],
        outputs: |st| vec![&mut st.cells, &mut st.flops],
        body: scan,
    },
    Stage {
        name: "4_place",
        knobs: |_, cfg| {
            format!(
                "|{}|{:016x}|{:?}|{}",
                cfg.seed,
                cfg.utilization.to_bits(),
                cfg.placer,
                cfg.anneal_moves_per_cell
            )
        },
        reads: NETLIST,
        writes: &[Part::Placement],
        outputs: |_| Vec::new(),
        body: place,
    },
    Stage {
        name: "5_scan_reorder",
        knobs: scan_knobs,
        reads: &[Part::Placement, Part::Chains],
        writes: &[Part::Chains],
        outputs: |st| vec![&mut st.scan_wirelength_um],
        body: scan_reorder,
    },
    // CTS runs on defaults.
    Stage {
        name: "6_cts",
        knobs: |_, _| String::new(),
        reads: PHYSICAL,
        writes: &[],
        outputs: |st| vec![&mut st.clock_skew_ps, &mut st.clock_tree_um],
        body: cts,
    },
    Stage {
        name: "6_sta",
        knobs: |_, cfg| format!("|{:016x}", cfg.clock_mhz.to_bits()),
        reads: NETLIST,
        writes: &[],
        outputs: |st| vec![&mut st.wns_ps, &mut st.critical_path_ps, &mut st.hold_violations],
        body: sta,
    },
    Stage {
        name: "7_route",
        // The schedule revision keeps a store written by an older router
        // from replaying that router's results under this one. The node
        // gives the metal stack and the patterning plan's rule deck.
        knobs: |_, cfg| {
            format!(
                "|rev{}|{:?}|{:?}|{}|{}|{}",
                eda_route::SCHEDULE_REV,
                cfg.node,
                cfg.router,
                cfg.ripup_iterations,
                cfg.route_grid_cells,
                cfg.route_window_margin,
            )
        },
        reads: PHYSICAL,
        writes: &[],
        outputs: |st| vec![&mut st.routed_wirelength, &mut st.routed_vias, &mut st.routed_overflow],
        body: route,
    },
    // Litho derives its plan and pitch from the node, and its wire
    // population from the seed and the routed wirelength.
    Stage {
        name: "8_litho",
        knobs: |_, cfg| format!("|{:?}|{}", cfg.node, cfg.seed),
        reads: &[Part::Outputs(ROUTE)],
        writes: &[],
        outputs: |st| vec![&mut st.masks, &mut st.stitches, &mut st.litho_legal, &mut st.opc_rms_epe_nm],
        body: litho,
    },
    Stage {
        name: "9_power",
        knobs: |_, cfg| {
            format!(
                "|{:?}|{:016x}|{:016x}",
                cfg.node,
                cfg.clock_mhz.to_bits(),
                cfg.power.decap_droop_limit_mv.map(f64::to_bits).unwrap_or(u64::MAX),
            )
        },
        reads: PHYSICAL,
        // The netlist with its decaps applied.
        writes: NETLIST,
        outputs: |st| {
            vec![&mut st.decaps, &mut st.dynamic_mw, &mut st.leakage_mw, &mut st.hotspots, &mut st.ir_drop_mv]
        },
        body: power,
    },
    // The random test patterns come from the seed.
    Stage {
        name: "10_dft",
        knobs: |d, cfg| format!("|{}{}", cfg.seed, scan_knobs(d, cfg)),
        reads: NETLIST,
        writes: &[],
        outputs: |st| vec![&mut st.test_coverage],
        body: dft,
    },
];

/// Fingerprint of every QoR-relevant config field plus the design's content
/// digest: the fold of every stage's own fingerprint, so the table is the
/// one list of knobs. Labels provenance rows. Fields that cannot change the
/// result are no stage's knob: `name`, `threads` (the placer's stripe
/// partition never depends on it, `eda_place::parallel`), `store`,
/// `fault_plan`, and `deadline_s`.
fn fingerprint(design: u64, cfg: &FlowConfig) -> u64 {
    fnv1a(TABLE.iter().flat_map(|s| s.config_fp(design, cfg).to_le_bytes()))
}

/// Every stage the supervisor runs, in execution order. Each key appears in
/// [`FlowReport::stage_status`] after any successful run.
pub const STAGES: [&str; 11] = {
    let mut names = [""; 11];
    let mut i = 0;
    while i < names.len() {
        names[i] = TABLE[i].name;
        i += 1;
    }
    names
};

/// Runs the full flow on a design under the stage supervisor.
///
/// # Errors
///
/// Returns a [`FlowError`] when the config fails [`FlowConfig::validate`]
/// ([`FlowError::Stage`] with [`StageFailure::Config`], before any stage
/// runs), when a stage hard-fails ([`FlowError::Stage`]),
/// exhausts its attempt budget without a salvageable result
/// ([`FlowError::BudgetExhausted`]), or blows its flow-level deadline
/// ([`FlowError::DeadlineExceeded`]). Every error carries a [`PartialFlow`]
/// with everything completed before the failure.
pub fn run_flow(design: &Netlist, cfg: &FlowConfig) -> Result<FlowReport, FlowError> {
    run_flow_observed(design, cfg, None)
}

/// [`run_flow`] with an optional live per-stage progress observer: the
/// callback fires `(stage, outcome, attempts)` the moment each stage's
/// status is recorded, while the flow is still running. Observation-only —
/// installing an observer can never change the QoR. The flow daemon uses
/// this to stream stage events to clients mid-request.
pub fn run_flow_observed(
    design: &Netlist,
    cfg: &FlowConfig,
    observer: Option<crate::telemetry::ProgressFn>,
) -> Result<FlowReport, FlowError> {
    run_flow_shared(design, cfg, observer, None)
}

/// [`run_flow_observed`] with an optionally pre-opened flow store. The
/// request engine (`engine.rs`, under the server and the daemon) opens the
/// store once and passes the same `Arc` to every worker, so concurrent
/// requests share one index instead of each re-opening (and re-scanning) the
/// file; `None` opens [`FlowConfig::store`] per run.
///
/// This is the driver: the one place the per-stage protocol is written. For
/// each row of [`TABLE`], in order: key the stage on the digests of the
/// parts it reads and probe the stage cache; on a hit install what the entry
/// holds — the status, the outputs and the chains parsed, the netlist and
/// placement texts deferred — else parse the deferred texts the stage reads,
/// run the body, and store what it wrote; lap the clock. Resuming a killed
/// run is this loop and nothing else: the stages it completed hit, the rest
/// compute.
pub(crate) fn run_flow_shared(
    design: &Netlist,
    cfg: &FlowConfig,
    observer: Option<crate::telemetry::ProgressFn>,
    shared_store: Option<Arc<FlowStore>>,
) -> Result<FlowReport, FlowError> {
    let started = Instant::now();
    // Every path into the flow (struct literals, field edits, the server,
    // the daemon) is checked here, before a kernel can trip over a knob.
    cfg.validate().map_err(|e| FlowError::Stage {
        stage: TABLE[0].name,
        source: StageFailure::Config(e),
        partial: Box::new(PartialFlow { statuses: BTreeMap::new() }),
    })?;
    // Telemetry collects for this run only: a replayed stage records the
    // span of its replay, not the spans and metrics of the run that computed
    // it (entries carry QoR state, not telemetry), which is why `same_qor`
    // ignores the snapshot.
    let tel = Telemetry::new();
    if let Some(obs) = observer {
        tel.set_observer(obs);
    }
    let mut sup = Supervisor::new(cfg.fault_plan.as_ref(), &tel);

    // The persistent flow store (DESIGN.md §14): stage cache and QoR
    // provenance in one file. Disabled while a fault plan is active:
    // injected faults must exercise the real stage bodies, not replay cached
    // results. An unopenable store downgrades to an uncached run (counted,
    // never fatal).
    let store: Option<Arc<FlowStore>> = if cfg.fault_plan.is_some() {
        None
    } else {
        shared_store.or_else(|| {
            cfg.store.as_ref().and_then(|sc| match FlowStore::open(sc) {
                Ok(s) => Some(Arc::new(s)),
                Err(_) => {
                    tel.count("cache.open_errors", 1);
                    None
                }
            })
        })
    };
    // The design's digest is the one key input that costs a pass over the
    // design, so a storeless run never pays for it.
    let keyed = store.as_deref().map(|s| (s, design_digest(design)));
    let env = Env { cfg, design, plan: PatterningPlan::for_node(cfg.node) };

    // What this run observed about itself: a replayed stage reports what
    // replaying it took, never the clock of the run that computed it.
    let mut stage_seconds = BTreeMap::new();
    let mut lap = Instant::now();
    let flow_span = tel.span(SpanKind::Flow, "flow");
    flow_span.tag("flow", &cfg.name);
    flow_span.tag("design", design.name());
    flow_span.tag("node", cfg.node);

    let mut st = FlowState::fresh();
    // Per part, the digest of its text as the stage that last wrote it
    // stored it: what the keys of the stages that read the part hash. Kept
    // only while a store is open; a storeless run serializes nothing.
    let mut digests = [0u64; Part::COUNT];
    let mut deferred = Deferred::default();
    // Stages recomputed without a probe: a deferred text that does not
    // parse restarts the loop, and the stage that wrote it and those after
    // it, up to where it surfaced, are recomputed, so the damaged entry is
    // rewritten rather than replayed.
    let mut unprobed = 0u32;
    // Stages whose replay stands, counted in `cache.hits` once the loop
    // ends: a restart drops the stages it recomputes. The stages before the
    // restart's writer replay a second time; `spanned` keeps that second
    // replay out of the trace.
    let (mut hits, mut spanned) = (0u32, 0u32);
    let mut text = String::new();
    let mut next = 0;
    loop {
        let Some(stage) = TABLE.get(next) else {
            // The report reads the netlist and the placement.
            let Err(writer) = deferred.parse(&mut st, PHYSICAL, &tel) else { break };
            unprobed |= (1 << next) - (1 << writer);
            hits &= (1 << writer) - 1;
            (st, digests, deferred, next) = (FlowState::fresh(), [0; Part::COUNT], Deferred::default(), 0);
            sup.statuses.clear();
            continue;
        };
        // The deadline trips at stage boundaries only, before the stage is
        // computed, replayed or skipped: an attempt that is already running
        // always finishes (its result never depends on the clock), so a
        // worker is never left hung mid-stage.
        if let Some(deadline_s) = cfg.deadline_s {
            let elapsed_s = started.elapsed().as_secs_f64();
            if elapsed_s > deadline_s {
                let partial = Box::new(PartialFlow { statuses: sup.statuses });
                return Err(FlowError::DeadlineExceeded { stage: stage.name, elapsed_s, deadline_s, partial });
            }
        }
        // The key's config component is the *per-stage* fingerprint and its
        // state component the digests of the parts the stage reads: an edit
        // misses exactly the stages that read a knob or a part it moved.
        let probe = keyed.map(|(store, design)| {
            let reads = stage.reads.iter().map(|part| digests[part.index()]);
            (store, cache::entry_key(stage.name, stage.config_fp(design, cfg), reads))
        });
        let written: Vec<Part> = std::iter::once(Part::Outputs(next)).chain(stage.writes.iter().copied()).collect();
        let looked = probe.filter(|_| unprobed & 1 << next == 0).map(|(store, key)| {
            match cache::load(store, stage.name, key, &written, (stage.outputs)(&mut st).len()) {
                Ok(Some(hit)) => Ok(hit),
                Ok(None) => Err(("cache.misses", "miss")),
                Err(CacheError::Corrupt(_)) => Err(("cache.errors", "error")),
            }
        });
        match looked {
            Some(Ok(hit)) => {
                if spanned & 1 << next == 0 {
                    sup.cache_hit(stage.name, hit.status);
                } else {
                    sup.statuses.insert(stage.name.to_string(), hit.status);
                }
                (hits, spanned) = (hits | 1 << next, spanned | 1 << next);
                for (field, bits) in (stage.outputs)(&mut st).into_iter().zip(hit.outputs) {
                    field.set_bits(bits);
                }
                if let Some(chains) = hit.chains {
                    st.chains = chains;
                }
                for (part, text) in hit.texts {
                    // A text the state already holds — `9_power` inserting
                    // no decap stores the netlist it read — is not parsed
                    // again.
                    if !hit.digests.contains(&(part, digests[part.index()])) {
                        deferred.defer(&mut st, part, next, text);
                    }
                }
                for (part, digest) in hit.digests {
                    digests[part.index()] = digest;
                }
            }
            cold => {
                if let Err(writer) = deferred.parse(&mut st, stage.reads, &tel) {
                    unprobed |= (1 << next) - (1 << writer);
                    hits &= (1 << writer) - 1;
                    (st, digests, deferred, next) = (FlowState::fresh(), [0; Part::COUNT], Deferred::default(), 0);
                    sup.statuses.clear();
                    continue;
                }
                if let Some(Err((metric, note))) = cold {
                    sup.cache_cold(metric, note);
                }
                deferred.forget(stage.writes);
                run_body(next, &env, &mut st, &mut sup)?;
                // Only the parts the stage wrote are serialized and hashed;
                // a failed store never fails the flow.
                if let Some((store, key)) = probe {
                    let outputs: Vec<u64> = (stage.outputs)(&mut st).iter().map(|field| field.bits()).collect();
                    let mut entry = Entry::new(stage.name, key, &sup.statuses[stage.name]);
                    for &part in &written {
                        text.clear();
                        state::write_part(&st, part, &outputs, &mut text);
                        digests[part.index()] = entry.section(part, &text);
                    }
                    if entry.store(store, key).is_err() {
                        tel.count("cache.errors", 1);
                    }
                }
            }
        }
        let now = Instant::now();
        stage_seconds.insert(stage.name.to_string(), now.duration_since(lap).as_secs_f64());
        lap = now;
        next += 1;
    }
    if hits != 0 {
        tel.count("cache.hits", hits.count_ones().into());
    }

    // Long-net buffering is part of area accounting.
    let netlist = current_netlist(&st);
    let placement = current_placement(&st);
    let buffers = plan_buffers(netlist, placement, placement.die.width_um / 2.0, &[]);

    drop(flow_span);
    let report = FlowReport {
        flow: cfg.name.clone(),
        design: design.name().to_string(),
        node: cfg.node.to_string(),
        cell_area_um2: netlist.area_um2() + buffers.added_area_um2,
        cells: st.cells,
        flops: st.flops,
        wns_ps: st.wns_ps,
        critical_path_ps: st.critical_path_ps,
        hpwl_um: placement.total_hpwl(netlist),
        routed_wirelength: st.routed_wirelength,
        vias: st.routed_vias,
        overflow: st.routed_overflow,
        masks: st.masks,
        stitches: st.stitches,
        litho_legal: st.litho_legal,
        opc_rms_epe_nm: st.opc_rms_epe_nm,
        dynamic_mw: st.dynamic_mw,
        leakage_mw: st.leakage_mw,
        test_coverage: st.test_coverage,
        scan_wirelength_um: st.scan_wirelength_um,
        decaps: st.decaps,
        hotspots: st.hotspots,
        clock_skew_ps: st.clock_skew_ps,
        clock_tree_um: st.clock_tree_um,
        ir_drop_mv: st.ir_drop_mv,
        hold_violations: st.hold_violations,
        synthesis_verified: st.synthesis_verified,
        stage_status: sup.statuses,
        stage_seconds,
        telemetry: tel.snapshot(),
    };
    if let Some((store, digest)) = keyed {
        record_provenance(store, &report, digest, fingerprint(digest, cfg));
    }
    Ok(report)
}

/// The netlist and placement texts the last hits that wrote those parts
/// replayed, each with the position of the stage that wrote it. A text is
/// parsed when a computed stage or the report reads its part, and dropped
/// unparsed when a later stage writes the part; while it waits, the part's
/// slot in the state is empty.
#[derive(Default)]
struct Deferred([Option<(usize, String)>; 2]);

impl Deferred {
    /// Defers `text`, `part` as the stage at `writer` stored it.
    fn defer(&mut self, st: &mut FlowState, part: Part, writer: usize, text: String) {
        match part {
            Part::Netlist => st.netlist = None,
            _ => st.placement = None,
        }
        self.0[part.index()] = Some((writer, text));
    }

    /// Drops the texts of `parts`: a stage is about to write them.
    fn forget(&mut self, parts: &[Part]) {
        for part in parts {
            if let Some(slot) = self.0.get_mut(part.index()) {
                *slot = None;
            }
        }
    }

    /// Parses the deferred texts of `parts` into `st`, each counted in
    /// `cache.body_parses` (so only a run with a store open records one).
    /// A text that does not parse — an entry with an intact record and head
    /// but a damaged part — is counted in `cache.errors`, and the position
    /// of the stage that wrote it is the error.
    fn parse(&mut self, st: &mut FlowState, parts: &[Part], tel: &Telemetry) -> Result<(), usize> {
        for &part in parts {
            let Some((writer, text)) = self.0.get_mut(part.index()).and_then(Option::take) else { continue };
            tel.count("cache.body_parses", 1);
            let parsed = match part {
                Part::Netlist => state::read_netlist(&text).map(|n| st.netlist = Some(n)),
                _ => state::read_placement(&text).map(|p| st.placement = Some(p)),
            };
            if parsed.is_err() {
                tel.count("cache.errors", 1);
                return Err(writer);
            }
        }
        Ok(())
    }
}

/// Runs the body of the stage at `position` with every part of `st` it does
/// not read taken out, then puts back each taken-out part it does not
/// write, asserting the body left that slot empty: an undeclared read finds
/// nothing there, and an undeclared write is caught.
fn run_body(position: usize, env: &Env<'_>, st: &mut FlowState, sup: &mut Supervisor<'_>) -> StageResult {
    let stage = &TABLE[position];
    let reads = |part| stage.reads.contains(&part);
    let writes = |part| part == Part::Outputs(position) || stage.writes.contains(&part);
    let netlist = (!reads(Part::Netlist)).then(|| st.netlist.take());
    let placement = (!reads(Part::Placement)).then(|| st.placement.take());
    let chains = (!reads(Part::Chains)).then(|| std::mem::take(&mut st.chains));
    let outputs: Vec<(usize, Vec<u64>)> = (0..TABLE.len())
        .filter(|&i| !reads(Part::Outputs(i)))
        .map(|i| {
            let taken = (TABLE[i].outputs)(st).into_iter().map(|field| {
                let bits = field.bits();
                field.set_bits(0);
                bits
            });
            (i, taken.collect())
        })
        .collect();

    let result = (stage.body)(stage.name, env, st, sup);

    let undeclared = |part: Part, empty: bool| {
        assert!(empty || writes(part), "{} writes {part:?}, which its row does not declare", stage.name);
        !writes(part)
    };
    if let Some(taken) = netlist.filter(|_| undeclared(Part::Netlist, st.netlist.is_none())) {
        st.netlist = taken;
    }
    if let Some(taken) = placement.filter(|_| undeclared(Part::Placement, st.placement.is_none())) {
        st.placement = taken;
    }
    if let Some(taken) = chains.filter(|_| undeclared(Part::Chains, st.chains.is_empty())) {
        st.chains = taken;
    }
    for (i, taken) in outputs {
        let mut fields = (TABLE[i].outputs)(st);
        if undeclared(Part::Outputs(i), fields.iter().all(|field| field.bits() == 0)) {
            fields.iter_mut().zip(taken).for_each(|(field, bits)| field.set_bits(bits));
        }
    }
    result
}

/// `1_synthesis`: synthesis, plus the optional equivalence check.
fn synthesis(stage: &'static str, env: &Env<'_>, st: &mut FlowState, sup: &mut Supervisor<'_>) -> StageResult {
    let (cfg, design) = (env.cfg, env.design);
    let lib = cfg.library.library();
    let (netlist, verified) = sup.run_stage(stage, |ctx: StageCtx<'_>| {
        let synth = synthesize(design, lib.clone(), cfg.synthesis).map_err(StageFailure::Synthesis)?;
        ctx.tel.count("synth.aig_nodes_before", synth.aig_nodes_before as u64);
        ctx.tel.count("synth.aig_nodes_after", synth.aig_nodes_after as u64);
        ctx.tel.count("synth.cells", synth.cells as u64);
        ctx.tel.count("synth.cone_visits", synth.cone_visits);
        ctx.tel.count("synth.cuts_enumerated", synth.cuts_enumerated);
        for pass in &synth.passes {
            let span = ctx.tel.span(SpanKind::Kernel, &format!("aig:{}", pass.name));
            span.tag("nodes_before", pass.nodes_before);
            span.tag("nodes_after", pass.nodes_after);
            span.tag("kept", pass.kept);
        }
        let netlist = synth.netlist;
        if !cfg.verify_synthesis {
            return Ok(StageTry::Done((netlist, None)));
        }
        let budget = if ctx.adapt == 0 { EC_BUDGET } else { EC_BUDGET_ESCALATED };
        ctx.tel.count("synth.ec_sim_budget", budget as u64);
        match check_equivalence(design, &netlist, &[], &[], budget) {
            Ok(EcVerdict::Equivalent) => Ok(StageTry::Done((netlist, Some(true)))),
            Ok(EcVerdict::Counterexample(_)) => Ok(StageTry::Degraded(
                (netlist, Some(false)),
                "equivalence counterexample found against the input design".into(),
            )),
            Ok(EcVerdict::Inconclusive) => {
                if ctx.adapt == 0 {
                    Ok(StageTry::Retry {
                        reason: format!("equivalence inconclusive at the {budget}-node budget"),
                        salvage: Some(((netlist, None), "equivalence unresolved".to_string())),
                    })
                } else {
                    Ok(StageTry::Degraded(
                        (netlist, None),
                        "equivalence still inconclusive after budget escalation".into(),
                    ))
                }
            }
            Err(e) => Ok(StageTry::Degraded(
                (netlist, None),
                format!("equivalence check failed: {e}"),
            )),
        }
    })?;
    st.netlist = Some(netlist);
    st.synthesis_verified = verified;
    Ok(())
}

/// `2_clock_gating`: before scan, so gates see plain flops.
fn clock_gating(stage: &'static str, env: &Env<'_>, st: &mut FlowState, sup: &mut Supervisor<'_>) -> StageResult {
    let cfg = env.cfg;
    if cfg.power.clock_gating_group == 0 {
        // The netlist stays where it is: a skip copies nothing.
        sup.skip(stage, "clock gating disabled", ());
        return Ok(());
    }
    // The body only plans, from a borrow; the one netlist is edited after
    // the supervisor settles, so a retried or salvaged attempt never applies
    // a plan twice and a failed one leaves the netlist untouched.
    let cur = current_netlist(st);
    let plan = sup.run_stage(stage, |ctx: StageCtx<'_>| {
        match plan_clock_gating(cur, cfg.power.clock_gating_group) {
            Ok(plan) => {
                ctx.tel.count("gating.gates_inserted", plan.gates() as u64);
                ctx.tel.count("gating.flops_gated", plan.flops_gated() as u64);
                Ok(StageTry::Done(Some(plan)))
            }
            Err(e) => Ok(StageTry::Degraded(
                None,
                format!("clock gating failed, keeping the ungated netlist: {e}"),
            )),
        }
    })?;
    if let Some(plan) = plan {
        plan.apply(current_netlist_mut(st));
    }
    Ok(())
}

/// `3_scan`: scan insertion.
fn scan(stage: &'static str, env: &Env<'_>, st: &mut FlowState, sup: &mut Supervisor<'_>) -> StageResult {
    match env.cfg.scan {
        Some(scan) => {
            let cur = current_netlist(st);
            let (scanned, chains) = sup.run_stage(stage, |ctx: StageCtx<'_>| {
                let s = insert_scan(cur, scan.chains).map_err(StageFailure::Netlist)?;
                ctx.tel.count("scan.chains", s.chains.len() as u64);
                ctx.tel
                    .count("scan.flops_stitched", s.chains.iter().map(|c| c.len() as u64).sum());
                Ok(StageTry::Done((s.netlist, s.chains)))
            })?;
            st.netlist = Some(scanned);
            st.chains = chains;
        }
        // The netlist stays where it is: a skip copies nothing.
        None => st.chains = sup.skip(stage, "scan insertion disabled", Vec::new()),
    }
    (st.cells, st.flops) = NetlistStats::cell_counts(current_netlist(st));
    Ok(())
}

/// `4_place`: placement.
fn place(stage: &'static str, env: &Env<'_>, st: &mut FlowState, sup: &mut Supervisor<'_>) -> StageResult {
    let cfg = env.cfg;
    let cur = current_netlist(st);
    let (placement, hpwl_final) = sup.run_stage(stage, |ctx: StageCtx<'_>| {
        if cur.num_instances() == 0 {
            return Err(StageFailure::NoInstances);
        }
        let die = Die::for_netlist(cur, cfg.utilization);
        match cfg.placer {
            PlaceAlgorithm::Multilevel => {
                // Scale tier: multilevel cluster → serpentine seed → refine.
                // Serial by construction, so thread-invariance is trivial.
                let out = place_multilevel(
                    cur,
                    die,
                    &MultilevelConfig { refine_moves_per_cell: cfg.anneal_moves_per_cell, seed: cfg.seed },
                );
                ctx.tel.count("place.clusters", out.clusters as u64);
                ctx.tel.count("place.moves_proposed", out.refine.proposed as u64);
                ctx.tel.count("place.moves_accepted", out.refine.accepted as u64);
                ctx.tel.gauge("place.hpwl_global_um", out.hpwl_expanded);
                ctx.tel.gauge("place.hpwl_final_um", out.refine.hpwl_after);
                Ok(StageTry::Done((out.placement, out.refine.hpwl_after)))
            }
            PlaceAlgorithm::Striped => {
                let out = eda_place::place_parallel(
                    cur,
                    die,
                    &ParallelConfig {
                        threads: cfg.threads,
                        stripes: PLACE_STRIPES,
                        moves_per_cell: cfg.anneal_moves_per_cell,
                        seed: cfg.seed,
                    },
                );
                ctx.tel.kernel("place:stripe_refine", &out.stats);
                ctx.tel.count("place.moves_accepted", out.moves_accepted as u64);
                ctx.tel.gauge("place.hpwl_global_um", out.hpwl_global);
                ctx.tel.gauge("place.hpwl_final_um", out.hpwl_final);
                Ok(StageTry::Done((out.placement, out.hpwl_final)))
            }
            PlaceAlgorithm::Flat => {
                let mut p = place_global(
                    cur,
                    die,
                    &GlobalConfig { iterations: FLAT_GLOBAL_ITERATIONS, seed: cfg.seed },
                );
                let stats = anneal(
                    cur,
                    &mut p,
                    &AnnealConfig { moves_per_cell: cfg.anneal_moves_per_cell, seed: cfg.seed },
                    None,
                    None,
                );
                ctx.tel.count("place.moves_proposed", stats.proposed as u64);
                ctx.tel.count("place.moves_accepted", stats.accepted as u64);
                ctx.tel.gauge("place.hpwl_global_um", stats.hpwl_before);
                ctx.tel.gauge("place.hpwl_final_um", stats.hpwl_after);
                Ok(StageTry::Done((p, stats.hpwl_after)))
            }
        }
    })?;
    // The independent auditor: legal sites, one cell per site, and the
    // reported wirelength recomputed by a plain netlist walk.
    debug_assert_eq!(
        eda_place::audit_placement(cur, &placement, hpwl_final),
        Ok(()),
        "place audit failed"
    );
    st.placement = Some(placement);
    Ok(())
}

/// `5_scan_reorder`: placement-aware scan reordering.
fn scan_reorder(stage: &'static str, env: &Env<'_>, st: &mut FlowState, sup: &mut Supervisor<'_>) -> StageResult {
    let placement = current_placement(st);
    let reorder_on = env.cfg.scan.is_some_and(|s| s.placement_aware_reorder);
    let (chains, scan_wl) = if reorder_on && !st.chains.is_empty() {
        let chains0 = &st.chains;
        sup.run_stage(stage, |ctx: StageCtx<'_>| {
            let before = scan_wirelength(chains0, placement);
            let reordered = reorder_chains(chains0, placement);
            let wl = scan_wirelength(&reordered, placement);
            ctx.tel.gauge("scan.wirelength_before_um", before);
            ctx.tel.gauge("scan.wirelength_um", wl);
            Ok(StageTry::Done((reordered, wl)))
        })?
    } else {
        let cause = if st.chains.is_empty() { "no scan chains to reorder" } else { "placement-aware reorder disabled" };
        let wl = scan_wirelength(&st.chains, placement);
        sup.skip(stage, cause, (st.chains.clone(), wl))
    };
    st.chains = chains;
    st.scan_wirelength_um = scan_wl;
    Ok(())
}

/// `6_cts`: clock-tree synthesis.
fn cts(stage: &'static str, _: &Env<'_>, st: &mut FlowState, sup: &mut Supervisor<'_>) -> StageResult {
    let cur = current_netlist(st);
    let placement = current_placement(st);
    let (skew_ps, tree_um) = sup.run_stage(stage, |ctx: StageCtx<'_>| {
        let (tree, sinks) = synthesize_clock_tree(cur, placement, &CtsConfig::default());
        ctx.tel.count("cts.sinks", sinks.len() as u64);
        ctx.tel.gauge("cts.skew_ps", tree.skew_ps());
        ctx.tel.gauge("cts.wirelength_um", tree.wirelength_um);
        Ok(StageTry::Done((tree.skew_ps(), tree.wirelength_um)))
    })?;
    st.clock_skew_ps = skew_ps;
    st.clock_tree_um = tree_um;
    Ok(())
}

/// `6_sta`: timing — setup at nominal, hold at the fast corner.
fn sta(stage: &'static str, env: &Env<'_>, st: &mut FlowState, sup: &mut Supervisor<'_>) -> StageResult {
    let cur = current_netlist(st);
    let tcfg = TimingConfig { clock_period_ps: 1e6 / env.cfg.clock_mhz, ..Default::default() };
    let (wns, cp, holds) = sup.run_stage(stage, |ctx: StageCtx<'_>| {
        let timing = TimingAnalysis::run(cur, &tcfg).map_err(StageFailure::Netlist)?;
        ctx.tel.count("sta.arcs_timed", timing.arcs_timed as u64);
        ctx.tel.count("sta.endpoints", timing.endpoints as u64);
        ctx.tel.count("sta.failing_endpoints", timing.failing_endpoints as u64);
        ctx.tel.count("sta.hold_violations", timing.hold_violations as u64);
        ctx.tel.gauge("sta.wns_ps", timing.wns_ps);
        ctx.tel.gauge("sta.tns_ps", timing.tns_ps);
        Ok(StageTry::Done((timing.wns_ps, timing.critical_path_ps, timing.hold_violations)))
    })?;
    st.wns_ps = wns;
    st.critical_path_ps = cp;
    st.hold_violations = holds;
    Ok(())
}

/// `7_route`: routing.
fn route(stage: &'static str, env: &Env<'_>, st: &mut FlowState, sup: &mut Supervisor<'_>) -> StageResult {
    let (cfg, plan) = (env.cfg, &env.plan);
    let cur = current_netlist(st);
    let placement = current_placement(st);
    let layers = cfg.node.spec().typical_metal_layers;
    let deck = if plan.needs_decomposition() {
        RuleDeck::multi_patterned(layers, plan.total_exposures())
    } else {
        RuleDeck::simple(layers)
    };
    // No escalation: overflow left after the rip-up budget is reported
    // as partial routes. A coarser grid cannot help — per-edge capacity
    // comes from the deck alone, so halving the grid quarters total
    // capacity while the same wires cross half as many cut lines
    // (DESIGN.md §7).
    let routed = sup.run_stage(stage, |ctx: StageCtx<'_>| {
        let rcfg = RouteConfig {
            algorithm: cfg.router,
            deck: deck.clone(),
            grid_cells: cfg.route_grid_cells,
            ripup_iterations: cfg.ripup_iterations,
            window_margin: cfg.route_window_margin,
        };
        let out = eda_route::route(cur, placement, &rcfg);
        ctx.tel.count("route.ripup_iterations", out.iterations as u64);
        ctx.tel.count("route.connections", out.connections as u64);
        ctx.tel.count("route.cells_expanded", out.cells_expanded);
        ctx.tel.count("route.linesearch_fallbacks", out.linesearch_fallbacks as u64);
        ctx.tel.gauge("route.window_peak_cells", out.peak_window_cells as f64);
        ctx.tel.gauge("route.dense_grid_cells", out.dense_grid_cells as f64);
        for &overflow in &out.ripup_overflow {
            ctx.tel.observe(
                "route.ripup_overflow",
                &[0.0, 2.0, 8.0, 32.0, 128.0, 512.0],
                overflow as f64,
            );
        }
        if out.is_clean() || cfg.ripup_iterations == 0 {
            return Ok(StageTry::Done(out));
        }
        let overflow = out.overflow;
        Ok(StageTry::Degraded(out, format!("partial routes ({overflow} overflow)")))
    })?;
    st.routed_wirelength = routed.wirelength;
    st.routed_vias = routed.vias;
    st.routed_overflow = routed.overflow;
    Ok(())
}

/// `8_litho`: lithography decomposition + OPC of the critical layer.
/// Single-patterned nodes print the layer in one exposure — nothing to
/// decompose or correct. Below the single-exposure pitch, the critical-layer
/// geometry is modeled as a wire population whose count tracks routed
/// wirelength at the node's minimum pitch (see DESIGN.md).
fn litho(stage: &'static str, env: &Env<'_>, st: &mut FlowState, sup: &mut Supervisor<'_>) -> StageResult {
    let (cfg, plan) = (env.cfg, &env.plan);
    let (masks, stitches, legal, epe) = if !plan.needs_decomposition() {
        sup.skip(stage, "single-patterned node needs no decomposition or OPC", (1u32, 0usize, true, 0.0f64))
    } else {
        let pitch = cfg.node.spec().metal_pitch_nm;
        let wires = (st.routed_wirelength / 4).clamp(24, 160) as usize;
        let layout = Layout::random_wires(wires, pitch, pitch * 40.0, cfg.seed);
        let model = OpticalModel::default();
        // After decomposition each mask prints at the relaxed pitch.
        let relaxed_pitch = pitch * plan.total_exposures() as f64;
        sup.run_stage(stage, |ctx: StageCtx<'_>| {
            // Recovery: double the stitch budget and halve the OPC gain.
            let stitch_budget = if ctx.adapt == 0 { wires / 2 } else { wires };
            let deco = decompose(&layout, plan.total_exposures(), eda_tech::SINGLE_EXPOSURE_PITCH_NM, stitch_budget);
            ctx.tel.count("litho.masks", u64::from(deco.masks));
            ctx.tel.count("litho.stitches", deco.stitches as u64);
            let ocfg = if ctx.adapt == 0 { OpcConfig::default() } else { OpcConfig::default().backoff() };
            let target: Vec<(f64, f64)> = (0..6)
                .map(|i| {
                    let x = 200.0 + i as f64 * relaxed_pitch;
                    (x, x + relaxed_pitch / 2.0)
                })
                .collect();
            let extent = 400.0 + relaxed_pitch * 6.0;
            let opc = run_opc(&model, &target, extent, &ocfg);
            ctx.tel.count("opc.fragment_moves", opc.fragment_moves as u64);
            ctx.tel
                .count("opc.iterations", opc.rms_epe_history.len().saturating_sub(1) as u64);
            for &epe_nm in &opc.rms_epe_history {
                ctx.tel.observe(
                    "opc.rms_epe_nm",
                    &[0.5, 1.0, 2.0, 4.0, 8.0, 16.0],
                    epe_nm,
                );
            }
            let epe = opc.final_rms_epe();
            let converged = opc.converged(OPC_RMS_EPE_LIMIT_NM);
            let value = (deco.masks, deco.stitches, deco.legal, epe);
            if deco.legal && converged {
                return Ok(StageTry::Done(value));
            }
            let mut reasons = Vec::new();
            if !deco.legal {
                reasons.push(format!("decomposition illegal within a {stitch_budget}-stitch budget"));
            }
            if !converged {
                reasons.push(format!("OPC unconverged at {epe:.2} nm rms EPE"));
            }
            let reason = reasons.join("; ");
            if ctx.adapt == 0 {
                Ok(StageTry::Retry {
                    reason: reason.clone(),
                    salvage: Some((value, format!("best-effort masks ({reason})"))),
                })
            } else {
                Ok(StageTry::Degraded(value, format!("{reason} (after stitch-budget and OPC-gain retry)")))
            }
        })?
    };
    st.masks = masks;
    st.stitches = stitches;
    st.litho_legal = legal;
    st.opc_rms_epe_nm = epe;
    Ok(())
}

/// `9_power`: power analysis, decap insertion, IR signoff.
fn power(stage: &'static str, env: &Env<'_>, st: &mut FlowState, sup: &mut Supervisor<'_>) -> StageResult {
    let cfg = env.cfg;
    let cur = current_netlist(st);
    let placement = current_placement(st);
    let pcfg = PowerConfig { node: cfg.node, freq_mhz: cfg.clock_mhz };
    // As in `2_clock_gating`: the body plans the decaps from a borrow and
    // the stage applies the kept plan once, after the supervisor settles.
    let (plan, dynamic_mw, leakage_mw, hotspots, ir_mv) = sup.run_stage(stage, |ctx: StageCtx<'_>| {
        let activity = Activity::estimate(cur, &ActivityConfig::default()).map_err(StageFailure::Netlist)?;
        let power = analyze(cur, &activity, &pcfg);
        let mut plan = None;
        let mut hotspots = 0usize;
        let mut notes: Vec<String> = Vec::new();
        // One power map, over the netlist `activity` and `placement`
        // describe: decaps are physical-only cells that add decoupling to a
        // bin, not power, so the IR solve below reads this same map.
        let mut grid = PowerGrid::build(cur, placement, &activity, &pcfg, 8);
        if let Some(limit) = cfg.power.decap_droop_limit_mv {
            match plan_decaps(cur.library(), &mut grid, cfg.node, limit) {
                Ok(p) => {
                    hotspots = p.hotspots_after;
                    plan = Some(p);
                }
                Err(e) => notes.push(format!("decap insertion failed, continuing without decaps: {e}")),
            }
        }
        let decaps = plan.as_ref().map_or(0, DecapPlan::decaps);
        // Static IR drop of the power map. Recovery: a stalled Gauss–Seidel
        // relaxation retries with a relaxed tolerance.
        let mesh = if ctx.adapt == 0 { MeshConfig::default() } else { MeshConfig::default().relaxed() };
        let ir = solve_ir_drop(&grid, cfg.node, &mesh);
        let converged = ir.converged(&mesh);
        ctx.tel.count("power.decaps_inserted", decaps as u64);
        ctx.tel.count("power.hotspots_after", hotspots as u64);
        ctx.tel.count("power.ir_iterations", ir.iterations as u64);
        ctx.tel.gauge("power.dynamic_mw", power.dynamic_mw);
        ctx.tel.gauge("power.leakage_mw", power.leakage_mw);
        ctx.tel.gauge("power.ir_drop_mv", ir.worst_drop_mv());
        let value = (plan, power.dynamic_mw, power.leakage_mw, hotspots, ir.worst_drop_mv());
        if converged {
            if notes.is_empty() {
                Ok(StageTry::Done(value))
            } else {
                Ok(StageTry::Degraded(value, notes.join("; ")))
            }
        } else if ctx.adapt == 0 {
            notes.push(format!("IR solver stalled at the {}-iteration cap", mesh.max_iterations));
            let reason = notes.join("; ");
            Ok(StageTry::Retry {
                reason: reason.clone(),
                salvage: Some((value, "unconverged IR solution".to_string())),
            })
        } else {
            notes.push("IR solver unconverged even with relaxed tolerance".into());
            Ok(StageTry::Degraded(value, notes.join("; ")))
        }
    })?;
    st.decaps = plan.as_ref().map_or(0, DecapPlan::decaps);
    if let Some(plan) = plan {
        plan.apply(current_netlist_mut(st));
    }
    st.dynamic_mw = dynamic_mw;
    st.leakage_mw = leakage_mw;
    st.hotspots = hotspots;
    st.ir_drop_mv = ir_mv;
    Ok(())
}

/// `10_dft`: test coverage (random-pattern estimate).
fn dft(stage: &'static str, env: &Env<'_>, st: &mut FlowState, sup: &mut Supervisor<'_>) -> StageResult {
    let cfg = env.cfg;
    if cfg.scan.is_none() {
        st.test_coverage = sup.skip(stage, "scan insertion disabled", 0.0);
        return Ok(());
    }
    let cur = current_netlist(st);
    st.test_coverage = sup.run_stage(stage, |ctx: StageCtx<'_>| {
        let view = CombView::new(cur).map_err(StageFailure::Netlist)?;
        let faults = fault_list(cur);
        let pats = random_patterns(&view, 96, cfg.seed);
        let sim = fault_sim(cur, &view, &faults, &pats);
        ctx.tel.count("dft.faults", sim.total as u64);
        ctx.tel.count("dft.detected", sim.num_detected as u64);
        ctx.tel.count("dft.pattern_blocks", sim.pattern_blocks as u64);
        ctx.tel.gauge("dft.coverage", sim.coverage());
        Ok(StageTry::Done(sim.coverage()))
    })?;
    Ok(())
}

/// Appends one `qor` row plus per-stage `qstage` rows for a completed flow,
/// feeding `experiments query`. Every row names the design by its name and
/// by `design_digest`, the content digest `1_synthesis` keys on. Best-effort by
/// design: a full or locked store must never fail a flow that already
/// produced its report.
fn record_provenance(store: &FlowStore, report: &FlowReport, design_digest: u64, cfg_fp: u64) {
    let row = QorRow {
        seq: 0,
        design: report.design.clone(),
        design_digest: Some(design_digest),
        node: report.node.clone(),
        cfg_fp,
        qor_fp: report.qor_fingerprint(),
        wns_ps: report.wns_ps,
        overflow: report.overflow,
        hpwl_um: report.hpwl_um,
        wall_s: report.total_seconds(),
        peak_rss_bytes: crate::telemetry::read_peak_rss_bytes(),
    };
    let _ = store.append(Table::Qor, &row.to_payload());
    for (stage, status) in &report.stage_status {
        let srow = StageRow {
            seq: 0,
            design: report.design.clone(),
            design_digest: Some(design_digest),
            stage: stage.clone(),
            outcome: status.outcome.to_string(),
            attempts: status.attempts as u32,
            wall_s: report.stage_seconds.get(stage).copied().unwrap_or(0.0),
        };
        let _ = store.append(Table::QStage, &srow.to_payload());
    }
}

/// The netlist as of the last completed stage. Internal invariant: every
/// stage past `1_synthesis` has one.
fn current_netlist(st: &FlowState) -> &Netlist {
    st.netlist.as_ref().expect("netlist exists after synthesis")
}

/// The netlist a stage edits in place, after its supervisor has settled.
fn current_netlist_mut(st: &mut FlowState) -> &mut Netlist {
    st.netlist.as_mut().expect("netlist exists after synthesis")
}

/// The placement as of the last completed stage. Internal invariant: every
/// stage past `4_place` has one.
fn current_placement(st: &FlowState) -> &eda_place::Placement {
    st.placement.as_ref().expect("placement exists after the place stage")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScanOptions;
    use crate::harness::StageOutcome;
    use crate::server::{FlowRequest, FlowServer};
    use eda_netlist::generate;
    use eda_tech::Node;

    #[test]
    fn table_names_are_the_published_stage_keys() {
        // benchmark/, the wire protocol's stage events and every fault spec
        // read these strings: a renamed or reordered row is an API break.
        let published = [
            "1_synthesis",
            "2_clock_gating",
            "3_scan",
            "4_place",
            "5_scan_reorder",
            "6_cts",
            "6_sta",
            "7_route",
            "8_litho",
            "9_power",
            "10_dft",
        ];
        assert_eq!(STAGES, published);
    }

    fn stage_fp(name: &str, design: &Netlist, cfg: &FlowConfig) -> u64 {
        let stage = TABLE.iter().find(|s| s.name == name).expect("a table row");
        stage.config_fp(design_digest(design), cfg)
    }

    #[test]
    fn stage_fp_tracks_only_the_fields_a_stage_reads() {
        let design = generate::ripple_carry_adder(4).unwrap();
        let base = FlowConfig::advanced_2016(Node::N28);

        // A routing knob must move the route fingerprint and nothing
        // upstream of it — that is the whole prefix-reuse story.
        let mut routed = base.clone();
        routed.ripup_iterations += 1;
        for stage in ["1_synthesis", "2_clock_gating", "3_scan", "4_place", "6_cts", "6_sta"] {
            assert_eq!(
                stage_fp(stage, &design, &base),
                stage_fp(stage, &design, &routed),
                "{stage} must not see ripup_iterations"
            );
        }
        assert_ne!(stage_fp("7_route", &design, &base), stage_fp("7_route", &design, &routed));

        // The seed and the node key exactly the stages whose bodies read
        // them, so a seed or node sweep replays the prefix before those.
        let mut reseeded = base.clone();
        reseeded.seed += 1;
        let mut renoded = base.clone();
        renoded.node = Node::N10;
        let readers = [(&reseeded, ["4_place", "8_litho", "10_dft"]), (&renoded, ["7_route", "8_litho", "9_power"])];
        for (edited, readers) in readers {
            for stage in STAGES {
                let moved = stage_fp(stage, &design, &base) != stage_fp(stage, &design, edited);
                assert_eq!(moved, readers.contains(&stage), "{stage}: seed {} node {:?}", edited.seed, edited.node);
            }
        }

        // Design identity binds only the first stage; downstream stages key
        // on the digests of the parts they read instead.
        let other = generate::ripple_carry_adder(8).unwrap();
        assert_ne!(stage_fp("1_synthesis", &design, &base), stage_fp("1_synthesis", &other, &base));
        assert_eq!(stage_fp("4_place", &design, &base), stage_fp("4_place", &other, &base));

        // The whole-config fingerprint folds them all: any stage's knob
        // moves it, fields that cannot change QoR do not.
        let digest = design_digest(&design);
        let fp = fingerprint(digest, &base);
        for edited in [&routed, &reseeded, &renoded] {
            assert_ne!(fingerprint(digest, edited), fp);
        }
        assert_ne!(fingerprint(design_digest(&other), &base), fp);
        let mut same = base.clone();
        same.threads = 7;
        same.deadline_s = Some(1.0);
        same.name = "renamed".into();
        assert_eq!(fingerprint(digest, &same), fp);
    }

    /// Every key a preset addresses the store with. A key moves when what
    /// its stage reads moves, and only then: a store written by an older
    /// binary keeps replaying every stage whose inputs did not change, so a
    /// moved column needs the reason its stage's inputs moved.
    #[test]
    fn preset_keys_are_pinned() {
        let design = design_digest(&generate::ripple_carry_adder(4).unwrap());
        let rows: [(FlowConfig, u64, [u64; 11]); 5] = [
            (FlowConfig::basic_2006(Node::N90), 0xe02babb99cab0b0d, [
                0x6ff30c39bb6364c2, 0xd40f4275fad65bc9, 0xb65c1c1aa3edab84, 0xdc1fea19585b3f65, 0x363807b9a346a252, 0xd98c9f314d347122,
                0x08d4c07f5147ad0d, 0xed8b14301ed02f12, 0x79c0af0c3138c53c, 0x48910909d4ba049e, 0xce4f276e35e6d15c,
            ]),
            (FlowConfig::advanced_2016(Node::N28), 0xd50c6eaefb3d264e, [
                0x10181f9d49bc2dbc, 0xd40f4a75fad66961, 0x144025e6bf92623a, 0x33f81b6bdca06873, 0x53785f128c9f0c2c, 0xd98c9f314d347122,
                0x08d4c07f5147ad0d, 0xb8e8c5bed1ec67fc, 0x56439535baa5492f, 0xab881f2500de6196, 0x303847bb2153f132,
            ]),
            (FlowConfig::advanced_2016(Node::N10), 0xb642b59b2f8ddc59, [
                0x10181f9d49bc2dbc, 0xd40f4a75fad66961, 0x144025e6bf92623a, 0x33f81b6bdca06873, 0x53785f128c9f0c2c, 0xd98c9f314d347122,
                0x08d4c07f5147ad0d, 0xd3dd6427e239f0b7, 0xa724af501f9bb7b4, 0x49f25f8743f1b431, 0x303847bb2153f132,
            ]),
            (FlowConfig::scale_2016(Node::N28, 10_000), 0x5fcb3b5262e4b3c7, [
                0x11e28602a0f71d8f, 0xd40f4a75fad66961, 0x085d31939f0080ec, 0x60a3da63cf6a7f90, 0xdadf2c9caea7bee6, 0xd98c9f314d347122,
                0x08d4c07f5147ad0d, 0x9da92e0a3778d9a2, 0x56439535baa5492f, 0xab881f2500de6196, 0x384a5a720163d0e4,
            ]),
            (FlowConfig::scale_2016(Node::N28, 50_000), 0xdee9fb77b213a039, [
                0x11e28602a0f71d8f, 0xd40f4a75fad66961, 0x085d31939f0080ec, 0x60a3da63cf6a7f90, 0xdadf2c9caea7bee6, 0xd98c9f314d347122,
                0x08d4c07f5147ad0d, 0xc75bd361980af098, 0x56439535baa5492f, 0xab881f2500de6196, 0x384a5a720163d0e4,
            ]),
        ];
        for (cfg, whole, per_stage) in rows {
            let label = format!("{} {:?} grid {}", cfg.name, cfg.node, cfg.route_grid_cells);
            assert_eq!(fingerprint(design, &cfg), whole, "{label}: fingerprint");
            for (stage, want) in TABLE.iter().zip(per_stage) {
                assert_eq!(stage.config_fp(design, &cfg), want, "{label}: {}", stage.name);
            }
        }
    }

    #[test]
    fn a_node_edit_routes_on_that_nodes_stack() {
        // The struct-update path must key (and route) N10 exactly like the
        // N10 preset; a stored layer count once kept N28's 10-layer stack.
        let design = generate::ripple_carry_adder(4).unwrap();
        let edited = FlowConfig { node: Node::N10, ..FlowConfig::default() };
        let preset = FlowConfig::advanced_2016(Node::N10);
        assert_eq!(stage_fp("7_route", &design, &edited), stage_fp("7_route", &design, &preset));
    }

    #[test]
    fn invalid_configs_are_typed_errors_on_every_path() {
        let design = generate::ripple_carry_adder(4).unwrap();
        let ok = FlowConfig { threads: 1, ..FlowConfig::default() };
        let rows = [
            FlowConfig { utilization: 1.5, ..ok.clone() },
            FlowConfig { clock_mhz: f64::NAN, ..ok.clone() },
            FlowConfig { scan: Some(ScanOptions { chains: 0, placement_aware_reorder: true }), ..ok.clone() },
            FlowConfig { route_grid_cells: 1, ..ok.clone() },
            FlowConfig { name: String::new(), ..ok },
        ];
        // NaN never equals itself, so the errors compare by message.
        let is_config_error = |e: &FlowError, want: &ConfigError| {
            matches!(e, FlowError::Stage { stage: "1_synthesis", source: StageFailure::Config(got), partial }
                if partial.statuses.is_empty() && got.to_string() == want.to_string())
        };
        for cfg in rows {
            let want = cfg.validate().expect_err("every row is invalid");
            let err = run_flow(&design, &cfg).expect_err("run_flow must refuse the config");
            assert!(is_config_error(&err, &want), "run_flow: {err}");
            let served = FlowServer::builder().threads(1).build().serve(vec![FlowRequest::new(design.clone(), cfg)]);
            let err = served.responses[0].outcome.as_ref().expect_err("the server must refuse the config");
            assert!(is_config_error(err, &want), "FlowServer: {err}");
        }
    }

    /// The `7_route` fingerprint as the batched-schedule revision computed
    /// it: no schedule revision field, and the layer-count and region-size
    /// slots of knobs deleted since.
    fn route_stage_fp_rev1(cfg: &FlowConfig) -> u64 {
        let region_size = if cfg.route_window_margin > 0 { (cfg.route_grid_cells / 8).max(16) } else { 0 };
        fnv1a(format!(
            "7_route|{:?}|{}|{:?}|{}|{}|{}|{}|{}",
            cfg.node,
            cfg.seed,
            cfg.router,
            cfg.node.spec().typical_metal_layers,
            cfg.ripup_iterations,
            cfg.route_grid_cells,
            cfg.route_window_margin,
            region_size,
        )
        .bytes())
    }

    #[test]
    fn route_entries_of_the_batched_revision_are_never_addressed() {
        let design = generate::ripple_carry_adder(4).unwrap();
        for cfg in [
            FlowConfig::advanced_2016(Node::N28),
            FlowConfig::basic_2006(Node::N90),
            FlowConfig::scale_2016(Node::N28, 10_000),
        ] {
            let old = route_stage_fp_rev1(&cfg);
            assert_ne!(stage_fp("7_route", &design, &cfg), old, "{}", cfg.name);
            // Same read digests, old fingerprint: a different address.
            assert_ne!(
                cache::entry_key("7_route", stage_fp("7_route", &design, &cfg), [1, 2]),
                cache::entry_key("7_route", old, [1, 2])
            );
        }
    }

    #[test]
    fn the_deadline_is_checked_before_every_stage_a_skip_included() {
        // A `1_synthesis` far longer than the deadline (an EC-verified 8-bit
        // multiplier against 5 ms), then a stage that only skips: the flow
        // stops before the skip, not at the next stage that computes.
        let design = generate::array_multiplier(8).unwrap();
        let mut cfg = FlowConfig::advanced_2016(Node::N10);
        cfg.threads = 1;
        cfg.power.clock_gating_group = 0;
        cfg.deadline_s = Some(0.005);
        let err = run_flow(&design, &cfg).expect_err("the deadline must trip");
        assert!(matches!(err, FlowError::DeadlineExceeded { stage: "2_clock_gating", .. }), "{err}");
        assert_eq!(err.partial().statuses.keys().collect::<Vec<_>>(), ["1_synthesis"]);
    }

    #[test]
    fn advanced_flow_runs_end_to_end() {
        let design = generate::switch_fabric(3, 3).unwrap();
        let report = run_flow(&design, &FlowConfig::advanced_2016(Node::N28)).unwrap();
        assert!(report.cell_area_um2 > 0.0);
        assert!(report.hpwl_um > 0.0);
        assert!(report.routed_wirelength > 0);
        assert!(report.test_coverage > 0.5);
        assert!(report.dynamic_mw > 0.0);
        assert!(!report.stage_seconds.is_empty());
    }

    #[test]
    fn basic_flow_runs_end_to_end() {
        let design = generate::ripple_carry_adder(8).unwrap();
        let report = run_flow(&design, &FlowConfig::basic_2006(Node::N90)).unwrap();
        assert!(report.cell_area_um2 > 0.0);
        assert_eq!(report.decaps, 0, "2006 flow has no auto-decap");
    }

    #[test]
    fn advanced_beats_basic_on_score() {
        let design = generate::random_logic(generate::RandomLogicConfig {
            gates: 250,
            seed: 6,
            ..Default::default()
        })
        .unwrap();
        let basic = run_flow(&design, &FlowConfig::basic_2006(Node::N90)).unwrap();
        let advanced = run_flow(&design, &FlowConfig::advanced_2016(Node::N90)).unwrap();
        assert!(
            advanced.cell_area_um2 < basic.cell_area_um2,
            "advanced area {:.0} must beat basic {:.0}",
            advanced.cell_area_um2,
            basic.cell_area_um2
        );
        assert!(advanced.score() < basic.score());
    }

    #[test]
    fn multipatterned_node_reports_masks() {
        let design = generate::parity_tree(16).unwrap();
        let report = run_flow(&design, &FlowConfig::advanced_2016(Node::N10)).unwrap();
        assert!(report.masks >= 2, "10nm critical layer needs multiple masks");
        let litho = &report.stage_status["8_litho"];
        assert!(
            !matches!(litho.outcome, StageOutcome::Skipped { .. }),
            "multi-patterned flow must run decomposition + OPC, got {}",
            litho.outcome
        );
        assert!(
            report.opc_rms_epe_nm <= super::OPC_RMS_EPE_LIMIT_NM,
            "OPC must converge at the decomposed pitch, got {:.2} nm",
            report.opc_rms_epe_nm
        );
    }

    #[test]
    fn every_stage_reports_a_status() {
        let design = generate::switch_fabric(3, 3).unwrap();
        for cfg in [FlowConfig::advanced_2016(Node::N28), FlowConfig::basic_2006(Node::N90)] {
            let report = run_flow(&design, &cfg).unwrap();
            assert_eq!(report.stage_status.len(), STAGES.len(), "flow {}", cfg.name);
            for stage in STAGES {
                assert!(report.stage_status.contains_key(stage), "missing status for {stage}");
            }
        }
    }

    #[test]
    fn basic_flow_skips_what_it_lacks() {
        let design = generate::ripple_carry_adder(8).unwrap();
        let report = run_flow(&design, &FlowConfig::basic_2006(Node::N90)).unwrap();
        let skipped = |stage: &str| {
            matches!(
                report.stage_status[stage].outcome,
                StageOutcome::Skipped { .. }
            )
        };
        assert!(skipped("2_clock_gating"), "basic flow has no clock gating");
        assert!(skipped("8_litho"), "90nm is single-patterned");
        assert!(report.stage_status["1_synthesis"].is_clean());
    }
}
