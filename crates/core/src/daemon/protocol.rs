//! Typed frames of the daemon's line-delimited JSON protocol, plus the
//! deterministic transport-layer fault space used to test it.
//!
//! # Protocol grammar
//!
//! Every frame is one JSON object on one `\n`-terminated line. Client →
//! server:
//!
//! ```text
//! {"type":"submit","id":N,"design":SPEC,"node":"10nm","seed":N,
//!  "priority":N,"deadline_ms":N,"inject":FAULTSPEC}   // run a flow
//! {"type":"query","design":S,"last":N}                // QoR provenance history
//! {"type":"ping"}                                     // liveness + stats
//! {"type":"shutdown"}                                 // begin graceful drain
//! ```
//!
//! Server → client:
//!
//! ```text
//! {"type":"accepted","id":N,"queued":N}
//! {"type":"rejected","id":N,"reason":R,"detail":S}    // R: queue-full | draining | bad-request
//! {"type":"stage","id":N,"stage":S,"outcome":S,"attempts":N}
//! {"type":"done","id":N,"ok":true,"qor_fp":HEX16,"wall_s":F,"stages":N}
//! {"type":"done","id":N,"ok":false,"error":S,"stages":N}
//! {"type":"query-result","rows":[{"seq":N,"design":S,...}]}
//! {"type":"pong", ...stats}
//! {"type":"shutdown-ack", ...stats}
//! {"type":"protocol-error","detail":S}                // then the connection closes
//! ```
//!
//! A `query` reads the daemon's flow store (QoR provenance table) and is
//! answered inline on the connection's reader thread — it never waits for,
//! or occupies, a flow worker. A daemon without a store answers with zero
//! rows.
//!
//! `id` is chosen by the client and scopes every later frame about that
//! request; ids are per-connection, so two clients may both use `1`.
//! `qor_fp` is the FNV-1a fingerprint of the report's QoR text
//! ([`FlowReport::qor_fingerprint`](crate::report::FlowReport::qor_fingerprint)),
//! sent as a 16-digit hex string because `u64` does not survive a JSON
//! `f64` round trip.

use std::fmt;
use std::str::FromStr;

use eda_netlist::{generate, Netlist, NetlistError};
use eda_tech::Node;

use crate::config::FlowConfig;
use crate::daemon::wire::{self, Json};
use crate::harness::FaultPlan;
use crate::store::{QorRow, StoreConfig};

/// One flow request as submitted over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitSpec {
    /// Client-chosen request id; scopes every response frame.
    pub id: u64,
    /// Design generator spec, e.g. `fabric:3x3` (see [`DesignSpec`]).
    pub design: String,
    /// Target technology node.
    pub node: Node,
    /// Flow seed: equal seeds give bit-identical QoR.
    pub seed: u64,
    /// Scheduling priority: higher runs earlier, ties keep admission order.
    pub priority: i64,
    /// Wall-clock deadline from admission, in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Optional deterministic stage-fault spec (see
    /// [`FaultPlan::parse`](crate::harness::FaultPlan::parse)).
    pub inject: Option<String>,
}

impl SubmitSpec {
    /// A minimal spec: 10 nm, seed 1, no priority, deadline, or faults.
    pub fn new(id: u64, design: impl Into<String>) -> SubmitSpec {
        SubmitSpec {
            id,
            design: design.into(),
            node: Node::N10,
            seed: 1,
            priority: 0,
            deadline_ms: None,
            inject: None,
        }
    }
}

/// One provenance query as submitted over the wire: filters over the
/// daemon store's QoR history table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuerySpec {
    /// Keep rows of this design only (`None` = every design).
    pub design: Option<String>,
    /// Keep only the newest N matching rows (`0` = unlimited).
    pub last: u64,
}

/// A frame sent by a client.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientFrame {
    /// Run a flow.
    Submit(SubmitSpec),
    /// Read QoR provenance history from the daemon's flow store; answered
    /// with [`ServerFrame::QueryResult`] without occupying a flow worker.
    Query(QuerySpec),
    /// Liveness probe; answered with [`ServerFrame::Pong`].
    Ping,
    /// Begin graceful drain; answered with [`ServerFrame::ShutdownAck`]
    /// once every in-flight request has finished.
    Shutdown,
}

impl ClientFrame {
    /// Renders the frame as one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            ClientFrame::Ping => "{\"type\":\"ping\"}".to_string(),
            ClientFrame::Shutdown => "{\"type\":\"shutdown\"}".to_string(),
            ClientFrame::Query(q) => {
                let mut line = "{\"type\":\"query\"".to_string();
                if let Some(design) = &q.design {
                    line.push_str(&format!(",\"design\":\"{}\"", wire::escape(design)));
                }
                line.push_str(&format!(",\"last\":{}}}", q.last));
                line
            }
            ClientFrame::Submit(s) => {
                let mut line = format!(
                    "{{\"type\":\"submit\",\"id\":{},\"design\":\"{}\",\"node\":\"{}\",\"seed\":{},\"priority\":{}",
                    s.id,
                    wire::escape(&s.design),
                    wire::escape(&s.node.name()),
                    s.seed,
                    s.priority
                );
                if let Some(ms) = s.deadline_ms {
                    line.push_str(&format!(",\"deadline_ms\":{ms}"));
                }
                if let Some(inject) = &s.inject {
                    line.push_str(&format!(",\"inject\":\"{}\"", wire::escape(inject)));
                }
                line.push('}');
                line
            }
        }
    }
}

/// Why the daemon refused a submit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded admission queue is at its high-water mark: shed load.
    QueueFull,
    /// The daemon is draining and no longer admits work.
    Draining,
    /// The submit frame was well-formed JSON but semantically invalid
    /// (unknown design spec, bad node, bad fault spec, missing id).
    BadRequest,
}

impl RejectReason {
    /// Wire token for the reason.
    pub fn token(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue-full",
            RejectReason::Draining => "draining",
            RejectReason::BadRequest => "bad-request",
        }
    }

    fn from_token(t: &str) -> Option<RejectReason> {
        match t {
            "queue-full" => Some(RejectReason::QueueFull),
            "draining" => Some(RejectReason::Draining),
            "bad-request" => Some(RejectReason::BadRequest),
            _ => None,
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// Daemon lifetime counters, carried in pong and shutdown-ack frames.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Submits admitted to the queue.
    pub accepted: u64,
    /// Submits shed with `queue-full`.
    pub rejected_full: u64,
    /// Submits refused with `draining`.
    pub rejected_draining: u64,
    /// Submits refused with `bad-request`.
    pub rejected_bad: u64,
    /// Admitted requests that completed with a report.
    pub completed: u64,
    /// Admitted requests that ended in a typed flow error.
    pub failed: u64,
    /// Connections closed after an unparseable or oversized frame.
    pub protocol_errors: u64,
    /// Admitted requests cancelled because their client vanished.
    pub disconnects: u64,
}

impl DaemonStats {
    /// Every submit the daemon turned away, by any reason.
    pub fn rejected(&self) -> u64 {
        self.rejected_full + self.rejected_draining + self.rejected_bad
    }

    fn fields(&self) -> String {
        format!(
            "\"accepted\":{},\"rejected_full\":{},\"rejected_draining\":{},\"rejected_bad\":{},\"completed\":{},\"failed\":{},\"protocol_errors\":{},\"disconnects\":{}",
            self.accepted,
            self.rejected_full,
            self.rejected_draining,
            self.rejected_bad,
            self.completed,
            self.failed,
            self.protocol_errors,
            self.disconnects
        )
    }

    fn from_json(v: &Json) -> DaemonStats {
        let g = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
        DaemonStats {
            accepted: g("accepted"),
            rejected_full: g("rejected_full"),
            rejected_draining: g("rejected_draining"),
            rejected_bad: g("rejected_bad"),
            completed: g("completed"),
            failed: g("failed"),
            protocol_errors: g("protocol_errors"),
            disconnects: g("disconnects"),
        }
    }
}

/// A frame sent by the daemon.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerFrame {
    /// The submit passed admission and is queued.
    Accepted {
        /// Request id.
        id: u64,
        /// Queue depth right after admission.
        queued: usize,
    },
    /// The submit was refused; nothing was queued.
    Rejected {
        /// Request id (0 when the frame had none).
        id: u64,
        /// Why.
        reason: RejectReason,
        /// Human-readable detail.
        detail: String,
    },
    /// A stage of the request finished (streamed mid-run).
    Stage {
        /// Request id.
        id: u64,
        /// Stage name, e.g. `4_place`.
        stage: String,
        /// Stage outcome text, e.g. `done` or `degraded (2 attempts)`.
        outcome: String,
        /// Attempts the stage took.
        attempts: usize,
    },
    /// Terminal frame for a request.
    Done {
        /// Request id.
        id: u64,
        /// `true` when the flow produced a report.
        ok: bool,
        /// QoR fingerprint of the report (present when `ok`).
        qor_fp: Option<u64>,
        /// Wall-clock seconds from admission to completion.
        wall_s: f64,
        /// Stages that recorded a status.
        stages: usize,
        /// Typed flow-error text (present when `!ok`).
        error: Option<String>,
    },
    /// Answer to a query: matching QoR provenance rows, newest first.
    QueryResult {
        /// The matching rows (empty when the daemon has no store, the
        /// store is unreadable, or nothing matches).
        rows: Vec<QorRow>,
    },
    /// Answer to a ping.
    Pong(DaemonStats),
    /// Drain finished; the daemon is about to exit 0.
    ShutdownAck(DaemonStats),
    /// The client's last frame was unparseable; the connection closes.
    ProtocolError {
        /// What was wrong.
        detail: String,
    },
}

impl ServerFrame {
    /// Renders the frame as one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            ServerFrame::Accepted { id, queued } => {
                format!("{{\"type\":\"accepted\",\"id\":{id},\"queued\":{queued}}}")
            }
            ServerFrame::Rejected { id, reason, detail } => format!(
                "{{\"type\":\"rejected\",\"id\":{id},\"reason\":\"{}\",\"detail\":\"{}\"}}",
                reason.token(),
                wire::escape(detail)
            ),
            ServerFrame::Stage { id, stage, outcome, attempts } => format!(
                "{{\"type\":\"stage\",\"id\":{id},\"stage\":\"{}\",\"outcome\":\"{}\",\"attempts\":{attempts}}}",
                wire::escape(stage),
                wire::escape(outcome)
            ),
            ServerFrame::Done { id, ok, qor_fp, wall_s, stages, error } => {
                let mut line = format!("{{\"type\":\"done\",\"id\":{id},\"ok\":{ok}");
                if let Some(fp) = qor_fp {
                    line.push_str(&format!(",\"qor_fp\":\"{fp:016x}\""));
                }
                if let Some(err) = error {
                    line.push_str(&format!(",\"error\":\"{}\"", wire::escape(err)));
                }
                line.push_str(&format!(",\"wall_s\":{wall_s:.6},\"stages\":{stages}}}"));
                line
            }
            ServerFrame::QueryResult { rows } => {
                let items: Vec<String> = rows.iter().map(qor_row_json).collect();
                format!("{{\"type\":\"query-result\",\"rows\":[{}]}}", items.join(","))
            }
            ServerFrame::Pong(stats) => format!("{{\"type\":\"pong\",{}}}", stats.fields()),
            ServerFrame::ShutdownAck(stats) => {
                format!("{{\"type\":\"shutdown-ack\",{}}}", stats.fields())
            }
            ServerFrame::ProtocolError { detail } => format!(
                "{{\"type\":\"protocol-error\",\"detail\":\"{}\"}}",
                wire::escape(detail)
            ),
        }
    }
}

/// Renders one QoR provenance row as a JSON object. Fingerprints travel as
/// 16-digit hex strings (u64s do not survive a JSON `f64` round trip);
/// floats use Rust's shortest round-trip formatting.
fn qor_row_json(r: &QorRow) -> String {
    let digest = r.design_digest.map_or(String::new(), |d| format!(",\"design_digest\":\"{d:016x}\""));
    format!(
        "{{\"seq\":{},\"design\":\"{}\"{digest},\"node\":\"{}\",\"cfg_fp\":\"{:016x}\",\"qor_fp\":\"{:016x}\",\"wns_ps\":{},\"overflow\":{},\"hpwl_um\":{},\"wall_s\":{},\"peak_rss_bytes\":{}}}",
        r.seq,
        wire::escape(&r.design),
        wire::escape(&r.node),
        r.cfg_fp,
        r.qor_fp,
        r.wns_ps,
        r.overflow,
        r.hpwl_um,
        r.wall_s,
        r.peak_rss_bytes
    )
}

fn qor_row_from_json(v: &Json) -> Option<QorRow> {
    let hex =
        |k: &str| v.get(k).and_then(Json::as_str).and_then(|h| u64::from_str_radix(h, 16).ok());
    Some(QorRow {
        seq: v.get("seq").and_then(Json::as_u64)?,
        design: v.get("design").and_then(Json::as_str)?.to_string(),
        design_digest: hex("design_digest"),
        node: v.get("node").and_then(Json::as_str).unwrap_or("").to_string(),
        cfg_fp: hex("cfg_fp")?,
        qor_fp: hex("qor_fp")?,
        wns_ps: v.get("wns_ps").and_then(Json::as_f64).unwrap_or(0.0),
        overflow: v.get("overflow").and_then(Json::as_u64).unwrap_or(0),
        hpwl_um: v.get("hpwl_um").and_then(Json::as_f64).unwrap_or(0.0),
        wall_s: v.get("wall_s").and_then(Json::as_f64).unwrap_or(0.0),
        peak_rss_bytes: v.get("peak_rss_bytes").and_then(Json::as_u64).unwrap_or(0),
    })
}

/// A semantically malformed frame: well-formed JSON that is not a valid
/// frame of the given direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError(pub String);

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad frame: {}", self.0)
    }
}

impl std::error::Error for FrameError {}

fn frame_type(v: &Json) -> Result<&str, FrameError> {
    v.get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| FrameError("missing `type` field".to_string()))
}

/// Parses one client line into a typed frame. JSON syntax errors and
/// unknown frame types are both [`FrameError`]s — the daemon answers with
/// `protocol-error` and closes the connection.
pub fn parse_client_frame(line: &str) -> Result<ClientFrame, FrameError> {
    let v = wire::parse(line).map_err(|e| FrameError(e.to_string()))?;
    match frame_type(&v)? {
        "ping" => Ok(ClientFrame::Ping),
        "shutdown" => Ok(ClientFrame::Shutdown),
        "query" => Ok(ClientFrame::Query(QuerySpec {
            design: v.get("design").and_then(Json::as_str).map(str::to_string),
            last: v.get("last").and_then(Json::as_u64).unwrap_or(0),
        })),
        "submit" => {
            let id = v
                .get("id")
                .and_then(Json::as_u64)
                .ok_or_else(|| FrameError("submit needs a numeric `id`".to_string()))?;
            let design = v
                .get("design")
                .and_then(Json::as_str)
                .ok_or_else(|| FrameError("submit needs a `design` string".to_string()))?
                .to_string();
            let node = match v.get("node").and_then(Json::as_str) {
                None => Node::N10,
                Some(s) => Node::from_str(s)
                    .map_err(|e| FrameError(format!("bad node `{s}`: {e}")))?,
            };
            let seed = v.get("seed").and_then(Json::as_u64).unwrap_or(1);
            let priority = v.get("priority").and_then(Json::as_f64).unwrap_or(0.0) as i64;
            let deadline_ms = v.get("deadline_ms").and_then(Json::as_u64);
            let inject = v.get("inject").and_then(Json::as_str).map(str::to_string);
            Ok(ClientFrame::Submit(SubmitSpec {
                id,
                design,
                node,
                seed,
                priority,
                deadline_ms,
                inject,
            }))
        }
        other => Err(FrameError(format!("unknown frame type `{other}`"))),
    }
}

/// Parses one server line into a typed frame (the client half).
pub fn parse_server_frame(line: &str) -> Result<ServerFrame, FrameError> {
    let v = wire::parse(line).map_err(|e| FrameError(e.to_string()))?;
    let id = || v.get("id").and_then(Json::as_u64).unwrap_or(0);
    let text = |k: &str| v.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    match frame_type(&v)? {
        "accepted" => Ok(ServerFrame::Accepted {
            id: id(),
            queued: v.get("queued").and_then(Json::as_u64).unwrap_or(0) as usize,
        }),
        "rejected" => {
            let token = text("reason");
            let reason = RejectReason::from_token(&token)
                .ok_or_else(|| FrameError(format!("unknown reject reason `{token}`")))?;
            Ok(ServerFrame::Rejected { id: id(), reason, detail: text("detail") })
        }
        "stage" => Ok(ServerFrame::Stage {
            id: id(),
            stage: text("stage"),
            outcome: text("outcome"),
            attempts: v.get("attempts").and_then(Json::as_u64).unwrap_or(0) as usize,
        }),
        "done" => {
            let ok = v
                .get("ok")
                .and_then(Json::as_bool)
                .ok_or_else(|| FrameError("done needs `ok`".to_string()))?;
            let qor_fp = match v.get("qor_fp").and_then(Json::as_str) {
                None => None,
                Some(hex) => Some(
                    u64::from_str_radix(hex, 16)
                        .map_err(|_| FrameError(format!("bad qor_fp `{hex}`")))?,
                ),
            };
            let error = v.get("error").and_then(Json::as_str).map(str::to_string);
            Ok(ServerFrame::Done {
                id: id(),
                ok,
                qor_fp,
                wall_s: v.get("wall_s").and_then(Json::as_f64).unwrap_or(0.0),
                stages: v.get("stages").and_then(Json::as_u64).unwrap_or(0) as usize,
                error,
            })
        }
        "query-result" => {
            let rows = match v.get("rows") {
                Some(Json::Arr(items)) => items.iter().filter_map(qor_row_from_json).collect(),
                _ => Vec::new(),
            };
            Ok(ServerFrame::QueryResult { rows })
        }
        "pong" => Ok(ServerFrame::Pong(DaemonStats::from_json(&v))),
        "shutdown-ack" => Ok(ServerFrame::ShutdownAck(DaemonStats::from_json(&v))),
        "protocol-error" => Ok(ServerFrame::ProtocolError { detail: text("detail") }),
        other => Err(FrameError(format!("unknown frame type `{other}`"))),
    }
}

/// The design generators reachable over the wire, as a parsed spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesignSpec {
    /// `fabric:RxC` — an RxC switch fabric.
    Fabric {
        /// Port rows.
        rows: usize,
        /// Port columns (the fabric's word width).
        cols: usize,
    },
    /// `adder:N` — an N-bit ripple-carry adder.
    Adder(usize),
    /// `parity:N` — an N-input parity tree.
    Parity(usize),
    /// `mult:N` — an N×N array multiplier.
    Mult(usize),
    /// `rand:GATES:SEED` — seeded random logic.
    Rand {
        /// Combinational gate count.
        gates: usize,
        /// Generator seed (independent of the flow seed).
        seed: u64,
    },
}

/// Generated designs are capped so a hostile `rand:999999999:1` submit
/// cannot balloon daemon memory; real designs in this workspace are far
/// smaller. A unit tracks generated instances: the width for the linear
/// generators, N² for `mult:N` and R²·C for `fabric:RxC`, whose generators
/// build about 4N² and 2R²C instances.
const MAX_DESIGN_UNITS: usize = 1 << 16;

impl FromStr for DesignSpec {
    type Err = FrameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || FrameError(format!("bad design spec `{s}` (want fabric:RxC, adder:N, parity:N, mult:N, or rand:GATES:SEED)"));
        let mut parts = s.split(':');
        let kind = parts.next().ok_or_else(bad)?;
        let arg = parts.next().ok_or_else(bad)?;
        let spec = match kind {
            "fabric" => {
                let (r, c) = arg.split_once('x').ok_or_else(bad)?;
                DesignSpec::Fabric {
                    rows: r.parse().map_err(|_| bad())?,
                    cols: c.parse().map_err(|_| bad())?,
                }
            }
            "adder" => DesignSpec::Adder(arg.parse().map_err(|_| bad())?),
            "parity" => DesignSpec::Parity(arg.parse().map_err(|_| bad())?),
            "mult" => DesignSpec::Mult(arg.parse().map_err(|_| bad())?),
            "rand" => DesignSpec::Rand {
                gates: arg.parse().map_err(|_| bad())?,
                seed: parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?,
            },
            _ => return Err(bad()),
        };
        if parts.next().is_some() {
            return Err(bad());
        }
        let units = match spec {
            DesignSpec::Fabric { rows, cols } => rows.saturating_mul(rows).saturating_mul(cols),
            DesignSpec::Mult(n) => n.saturating_mul(n),
            DesignSpec::Adder(n) | DesignSpec::Parity(n) => n,
            DesignSpec::Rand { gates, .. } => gates,
        };
        if units == 0 || units > MAX_DESIGN_UNITS {
            return Err(FrameError(format!(
                "design spec `{s}` out of range (1..={MAX_DESIGN_UNITS} units)"
            )));
        }
        // Each generator's own floor: it asserts below it, and `build` runs
        // on the connection's reader thread.
        let below_floor = match spec {
            DesignSpec::Fabric { rows, .. } => rows < 2,
            DesignSpec::Parity(n) | DesignSpec::Mult(n) => n < 2,
            DesignSpec::Adder(_) | DesignSpec::Rand { .. } => false,
        };
        if below_floor {
            return Err(FrameError(format!(
                "design spec `{s}` below its generator's minimum (fabric needs 2 ports, parity and mult width 2)"
            )));
        }
        Ok(spec)
    }
}

impl fmt::Display for DesignSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesignSpec::Fabric { rows, cols } => write!(f, "fabric:{rows}x{cols}"),
            DesignSpec::Adder(n) => write!(f, "adder:{n}"),
            DesignSpec::Parity(n) => write!(f, "parity:{n}"),
            DesignSpec::Mult(n) => write!(f, "mult:{n}"),
            DesignSpec::Rand { gates, seed } => write!(f, "rand:{gates}:{seed}"),
        }
    }
}

impl DesignSpec {
    /// Generates the netlist. Equal specs give bit-identical netlists.
    pub fn build(&self) -> Result<Netlist, NetlistError> {
        match *self {
            DesignSpec::Fabric { rows, cols } => generate::switch_fabric(rows, cols),
            DesignSpec::Adder(n) => generate::ripple_carry_adder(n),
            DesignSpec::Parity(n) => generate::parity_tree(n),
            DesignSpec::Mult(n) => generate::array_multiplier(n),
            DesignSpec::Rand { gates, seed } => generate::random_logic(generate::RandomLogicConfig {
                inputs: 16,
                outputs: 8,
                gates,
                flop_fraction: 0.15,
                seed,
            }),
        }
    }
}

/// Builds the [`FlowConfig`] a submit runs under. The daemon and any
/// out-of-band verifier both call this, so every QoR-relevant knob (preset,
/// node, seed, fault plan) is derived from the spec alone — `threads` and
/// the shared store are execution detail that cannot move the QoR. The
/// fourth parameter is ignored; it stays only because `benchmark/` passes
/// four arguments and is edited by benchmark PRs alone.
pub fn flow_config_for(
    spec: &SubmitSpec,
    threads: usize,
    store: Option<&StoreConfig>,
    _: Option<&std::path::Path>,
) -> Result<FlowConfig, FrameError> {
    let mut cfg = FlowConfig::advanced_2016(spec.node);
    cfg.name = format!("daemon-{}", spec.design);
    cfg.seed = spec.seed;
    cfg.threads = threads.max(1);
    cfg.store = store.cloned();
    if let Some(inject) = &spec.inject {
        let plan = FaultPlan::parse(inject, spec.seed)
            .map_err(|e| FrameError(format!("bad inject spec `{inject}`: {e}")))?;
        cfg.fault_plan = Some(plan);
    }
    Ok(cfg)
}

/// A transport-layer fault a test client injects deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportFault {
    /// Close the connection instead of sending the frame.
    ConnDrop,
    /// Replace the frame with unparseable bytes.
    FrameGarbage,
    /// Pause mid-frame (a slow-loris write) before completing it.
    Stall,
}

impl TransportFault {
    fn token(self) -> &'static str {
        match self {
            TransportFault::ConnDrop => "conn-drop",
            TransportFault::FrameGarbage => "frame-garbage",
            TransportFault::Stall => "stall",
        }
    }
}

/// A malformed transport-fault spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportFaultError {
    /// The fault name is not one of `conn-drop`, `frame-garbage`, `stall`.
    UnknownFault(String),
    /// The `@N` frame index is missing or unparseable.
    BadIndex(String),
}

impl fmt::Display for TransportFaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportFaultError::UnknownFault(s) => write!(
                f,
                "unknown transport fault `{s}` (want conn-drop, frame-garbage, or stall)"
            ),
            TransportFaultError::BadIndex(s) => {
                write!(f, "bad transport fault index in `{s}` (want fault@N)")
            }
        }
    }
}

impl std::error::Error for TransportFaultError {}

/// The deterministic transport-fault space: which client frames (0-based)
/// get sabotaged, and how. The counterpart of the stage-level
/// [`FaultPlan`](crate::harness::FaultPlan), one layer down the stack.
///
/// Grammar: comma-separated `conn-drop@N | frame-garbage@N | stall@N`,
/// where `N` is the index of the client frame the fault fires on. Equal
/// specs misbehave identically, so every hostile-client test is replayable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransportFaultPlan {
    rules: Vec<(u64, TransportFault)>,
}

impl TransportFaultPlan {
    /// Parses the spec; see the type docs for the grammar.
    pub fn parse(spec: &str) -> Result<TransportFaultPlan, TransportFaultError> {
        let mut rules = Vec::new();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (name, at) = part
                .split_once('@')
                .ok_or_else(|| TransportFaultError::BadIndex(part.to_string()))?;
            let fault = match name.trim() {
                "conn-drop" => TransportFault::ConnDrop,
                "frame-garbage" => TransportFault::FrameGarbage,
                "stall" => TransportFault::Stall,
                other => return Err(TransportFaultError::UnknownFault(other.to_string())),
            };
            let index: u64 = at
                .trim()
                .parse()
                .map_err(|_| TransportFaultError::BadIndex(part.to_string()))?;
            rules.push((index, fault));
        }
        Ok(TransportFaultPlan { rules })
    }

    /// The fault to fire when sending client frame `index`, if any (first
    /// matching rule wins).
    pub fn fault_for(&self, index: u64) -> Option<TransportFault> {
        self.rules.iter().find(|(at, _)| *at == index).map(|(_, f)| *f)
    }

    /// Whether the plan has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

impl fmt::Display for TransportFaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> =
            self.rules.iter().map(|(at, fault)| format!("{}@{at}", fault.token())).collect();
        f.write_str(&parts.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_frames_round_trip() {
        let spec = SubmitSpec {
            id: 7,
            design: "fabric:3x3".into(),
            node: Node::N10,
            seed: 42,
            priority: -2,
            deadline_ms: Some(1500),
            inject: Some("route=fail@1".into()),
        };
        let frames = [
            ClientFrame::Submit(spec),
            ClientFrame::Ping,
            ClientFrame::Shutdown,
            ClientFrame::Query(QuerySpec { design: Some("fabric:3x3".into()), last: 10 }),
            ClientFrame::Query(QuerySpec::default()),
        ];
        for f in frames {
            let line = f.to_line();
            assert_eq!(parse_client_frame(&line).expect("parses"), f, "line: {line}");
        }
    }

    #[test]
    fn query_results_round_trip_with_exact_fingerprints() {
        let row = QorRow {
            seq: 12,
            design: "daemon-adder:8".into(),
            design_digest: Some(0x00d1_6e57_0000_0001),
            node: "10nm".into(),
            cfg_fp: u64::MAX - 3,
            qor_fp: 0x0123_4567_89ab_cdef,
            wns_ps: -42.5,
            overflow: 3,
            hpwl_um: 1234.0625,
            wall_s: 0.25,
            peak_rss_bytes: 1 << 20,
        };
        let frames = [
            // A row written before rows carried the design digest has none.
            ServerFrame::QueryResult { rows: vec![row.clone(), QorRow { design_digest: None, ..row }] },
            ServerFrame::QueryResult { rows: Vec::new() },
        ];
        for f in frames {
            let line = f.to_line();
            assert_eq!(parse_server_frame(&line).expect("parses"), f, "line: {line}");
        }
    }

    #[test]
    fn server_frames_round_trip() {
        let stats = DaemonStats { accepted: 4, rejected_full: 2, completed: 3, ..Default::default() };
        let frames = [
            ServerFrame::Accepted { id: 1, queued: 3 },
            ServerFrame::Rejected {
                id: 2,
                reason: RejectReason::QueueFull,
                detail: "queue at high water (4)".into(),
            },
            ServerFrame::Stage { id: 1, stage: "4_place".into(), outcome: "done".into(), attempts: 1 },
            ServerFrame::Done {
                id: 1,
                ok: true,
                qor_fp: Some(0x00ab_cdef_0123_4567),
                wall_s: 0.25,
                stages: 11,
                error: None,
            },
            ServerFrame::Done {
                id: 3,
                ok: false,
                qor_fp: None,
                wall_s: 0.125,
                stages: 4,
                error: Some("flow deadline exceeded before stage `7_route`".into()),
            },
            ServerFrame::Pong(stats),
            ServerFrame::ShutdownAck(stats),
            ServerFrame::ProtocolError { detail: "bad JSON at byte 0".into() },
        ];
        for f in frames {
            let line = f.to_line();
            assert_eq!(parse_server_frame(&line).expect("parses"), f, "line: {line}");
        }
    }

    #[test]
    fn qor_fp_survives_the_wire_as_hex() {
        // The motivating case: u64s above 2^53 corrupt silently as f64.
        let fp = u64::MAX - 1;
        let line = ServerFrame::Done {
            id: 1,
            ok: true,
            qor_fp: Some(fp),
            wall_s: 0.0,
            stages: 11,
            error: None,
        }
        .to_line();
        match parse_server_frame(&line).expect("parses") {
            ServerFrame::Done { qor_fp, .. } => assert_eq!(qor_fp, Some(fp)),
            other => panic!("wrong frame: {other:?}"),
        }
    }

    #[test]
    fn design_specs_parse_build_and_bound() {
        for (s, name) in [
            ("fabric:3x3", "fabric_3x3"),
            ("adder:16", "rca16"),
            ("parity:32", "parity32"),
            // Each generator's floor builds.
            ("fabric:2x1", "fabric_2x1"),
            ("parity:2", "parity2"),
            ("mult:2", "mul2"),
            ("adder:1", "rca1"),
        ] {
            let spec: DesignSpec = s.parse().expect("parses");
            assert_eq!(spec.to_string(), s);
            let net = spec.build().expect("builds");
            assert!(!net.name().is_empty(), "{s} → {name}");
        }
        for bad in [
            "fabric:3", "adder:x", "rand:100", "nope:1", "adder:0", "rand:99999999:1", "adder:4:4",
            "fabric:1x8", "parity:1", "mult:1",
            // The quadratic generators are bounded by size, not width.
            "mult:257", "mult:65536", "fabric:256x256", "fabric:65536x1",
        ] {
            assert!(bad.parse::<DesignSpec>().is_err(), "{bad} should fail");
        }
        // The largest legal quadratic specs: parsed only, never built here.
        for edge in ["mult:256", "fabric:16x256"] {
            assert_eq!(edge.parse::<DesignSpec>().expect("at the cap").to_string(), edge);
        }
    }

    #[test]
    fn transport_fault_grammar() {
        let plan = TransportFaultPlan::parse("conn-drop@2, frame-garbage@0,stall@5").expect("parses");
        assert_eq!(plan.fault_for(0), Some(TransportFault::FrameGarbage));
        assert_eq!(plan.fault_for(1), None);
        assert_eq!(plan.fault_for(2), Some(TransportFault::ConnDrop));
        assert_eq!(plan.fault_for(5), Some(TransportFault::Stall));
        assert_eq!(plan.to_string(), "conn-drop@2,frame-garbage@0,stall@5");
        assert!(TransportFaultPlan::parse("").expect("empty ok").is_empty());
        assert!(matches!(
            TransportFaultPlan::parse("bomb@1"),
            Err(TransportFaultError::UnknownFault(_))
        ));
        assert!(matches!(
            TransportFaultPlan::parse("stall"),
            Err(TransportFaultError::BadIndex(_))
        ));
        assert!(matches!(
            TransportFaultPlan::parse("stall@x"),
            Err(TransportFaultError::BadIndex(_))
        ));
    }

    #[test]
    fn flow_config_is_a_pure_function_of_the_spec() {
        let spec = SubmitSpec { inject: Some("route=fail@0".into()), ..SubmitSpec::new(1, "adder:8") };
        let a = flow_config_for(&spec, 1, None, None).expect("builds");
        let store = StoreConfig::at("/tmp/c/flow.store");
        let b = flow_config_for(&spec, 8, Some(&store), None).expect("builds");
        // Threads and the shared store differ; everything QoR-relevant matches.
        assert_eq!(a.name, b.name);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.node, b.node);
        assert!(b.fault_plan.is_some());
        assert!(flow_config_for(
            &SubmitSpec { inject: Some("bogus=x".into()), ..SubmitSpec::new(1, "adder:8") },
            1,
            None,
            None
        )
        .is_err());
    }
}
