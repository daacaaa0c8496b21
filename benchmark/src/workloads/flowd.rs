//! `flowd_pairs`: an in-process flow daemon on a Unix socket, two client
//! connections in closed loop. One op is `DaemonClient::drive` of a
//! `mult:8` + `fabric:8x16` pair with a seed no other op uses, so every
//! request is cold. The only workload on the `advanced_2016` preset:
//! EC-verified synthesis, scan + ATPG, N10 litho/OPC and the dense router.

use super::{setup_err, Ctx, Outcome, SetupError};
use crate::flowop::{accumulate, record_stage_spans};
use crate::host::process_cpu_s;
use crate::metrics::Layers;
use crate::trace::Tracer;
use eda::core::daemon::protocol::{ClientFrame, ServerFrame};
use eda::core::{
    flow_config_for, Daemon, DaemonClient, DaemonConfig, DesignSpec, Endpoint, RequestOutcome,
    RetryPolicy, SubmitSpec, Terminal,
};
use eda::{run_flow, FlowRequest, FlowServer, StoreConfig};
use std::path::Path;
use std::time::Instant;

const DESIGNS: [&str; 2] = ["mult:8", "fabric:8x16"];
const QUICK_DESIGNS: [&str; 2] = ["mult:4", "fabric:3x3"];

/// Client connections, each a closed loop of one op at a time.
const CONNECTIONS: u64 = 2;

/// Nominal wall of one op (a pair) on the sizing host with both
/// connections loaded (2.5-3.2 s), so `--seconds 46` is 16 ops per
/// connection.
const NOMINAL_OP_S: f64 = 2.8;

/// Ops per connection whose responses are compared bit for bit with a solo
/// `run_flow` made in set-up.
const SAMPLED_OPS: u64 = 1;

/// The pair of submits that make up op `k` of connection `conn`. The flow
/// seed is unique to the op, so nothing replays from the daemon's store.
fn pair(ctx: &Ctx, conn: u64, k: u64) -> [SubmitSpec; 2] {
    let designs = if ctx.quick { QUICK_DESIGNS } else { DESIGNS };
    let op_seed = ctx
        .seed
        .wrapping_mul(1_000_003)
        .wrapping_add(conn * 10_007 + k);
    [0, 1].map(|i| {
        let mut spec = SubmitSpec::new(k * 2 + i as u64 + 1, designs[i]);
        spec.seed = op_seed;
        spec
    })
}

/// A sampled op's solo references: what `run_flow` alone, outside the
/// daemon, makes of each spec of the pair.
struct Sampled {
    conn: u64,
    k: u64,
    fingerprints: [u64; 2],
}

/// Runs `spec` solo and returns its fingerprint; the design and report
/// counts go to `layers` (a pair's two specs sum into one sample each).
fn solo(
    tr: &Tracer,
    spec: &SubmitSpec,
    parent: Option<usize>,
    counts: &mut [f64; 5],
) -> Result<u64, SetupError> {
    let parsed = spec
        .design
        .parse::<DesignSpec>()
        .map_err(|e| SetupError(format!("design spec: {}", e.0)))?;
    let (design, gen_s) = tr.time("generate", "netlist", parent, 0, || parsed.build());
    let design = design.map_err(setup_err("design build"))?;
    let cfg = flow_config_for(spec, 1, None, None)
        .map_err(|e| SetupError(format!("flow config: {}", e.0)))?;
    let (report, _) = tr.time(&format!("solo {}", spec.design), "flow", parent, 0, || {
        run_flow(&design, &cfg)
    });
    let report = report.map_err(setup_err("solo reference flow"))?;
    let add = [
        gen_s,
        design.num_instances() as f64,
        report.cells as f64,
        report.overflow as f64,
        report.routed_wirelength as f64,
    ];
    counts.iter_mut().zip(add).for_each(|(sum, v)| *sum += v);
    Ok(report.qor_fingerprint())
}

/// Checks one response: admitted, finished with a report and a
/// fingerprint, and — when a solo reference exists — equal to it.
fn check(outcome: &RequestOutcome, expected: Option<u64>) -> Result<(), String> {
    match &outcome.terminal {
        Terminal::Done {
            ok: true,
            qor_fp: Some(fp),
            ..
        } => match expected {
            Some(want) if want != *fp => Err(format!(
                "request {}: fingerprint {fp:016x} differs from solo {want:016x}",
                outcome.id
            )),
            _ => Ok(()),
        },
        Terminal::Done { error, .. } => Err(format!(
            "request {}: flow error {}",
            outcome.id,
            error.as_deref().unwrap_or("(none)")
        )),
        Terminal::Rejected { reason, detail } => Err(format!(
            "request {}: rejected {}: {detail}",
            outcome.id,
            reason.token()
        )),
    }
}

/// `DaemonClient::drive` re-done over `send`/`recv` so every frame is
/// timestamped on arrival: the request spans and the per-stage spans of a
/// traced op come from the client's side of the socket.
fn drive_traced(
    tr: &Tracer,
    client: &mut DaemonClient,
    specs: &[SubmitSpec],
    parent: Option<usize>,
    op: u64,
    layers: &mut Layers,
) -> Result<Vec<RequestOutcome>, String> {
    struct Pending {
        submitted: f64,
        accepted: Option<f64>,
        boundaries: Vec<(String, f64)>,
        outcome: Option<RequestOutcome>,
    }
    let mut pending: Vec<Pending> = Vec::new();
    for spec in specs {
        pending.push(Pending {
            submitted: tr.now(),
            accepted: None,
            boundaries: Vec::new(),
            outcome: None,
        });
        client
            .send(&ClientFrame::Submit(spec.clone()))
            .map_err(|e| format!("send: {e}"))?;
    }
    let slot = |id: u64| specs.iter().position(|s| s.id == id);
    while pending.iter().any(|p| p.outcome.is_none()) {
        let frame = client.recv().map_err(|e| format!("recv: {e}"))?;
        let now = tr.now();
        match frame {
            ServerFrame::Accepted { id, .. } => {
                if let Some(s) = slot(id) {
                    pending[s].accepted = Some(now);
                }
            }
            ServerFrame::Stage { id, stage, .. } => {
                if let Some(s) = slot(id) {
                    pending[s].boundaries.push((stage, now));
                }
            }
            ServerFrame::Rejected { id, reason, detail } => {
                if let Some(s) = slot(id) {
                    pending[s].outcome = Some(RequestOutcome {
                        id,
                        accepted: false,
                        stages: Vec::new(),
                        terminal: Terminal::Rejected { reason, detail },
                        latency_s: now - pending[s].submitted,
                    });
                }
            }
            ServerFrame::Done {
                id,
                ok,
                qor_fp,
                wall_s,
                stages,
                error,
            } => {
                if let Some(s) = slot(id) {
                    pending[s].outcome = Some(RequestOutcome {
                        id,
                        accepted: pending[s].accepted.is_some(),
                        stages: Vec::new(),
                        terminal: Terminal::Done {
                            ok,
                            qor_fp,
                            wall_s,
                            stages,
                            error,
                        },
                        latency_s: now - pending[s].submitted,
                    });
                }
            }
            ServerFrame::ProtocolError { detail } => {
                return Err(format!("protocol error: {detail}"))
            }
            ServerFrame::QueryResult { .. }
            | ServerFrame::Pong(_)
            | ServerFrame::ShutdownAck(_) => {}
        }
    }
    let mut outcomes = Vec::new();
    let mut per_metric: Vec<(&'static str, f64)> = Vec::new();
    let mut self_s = 0.0;
    for (spec, p) in specs.iter().zip(pending) {
        let outcome = p
            .outcome
            .expect("the loop above ends only when every request has an outcome");
        let end = p.submitted + outcome.latency_s;
        let span = tr.record(
            &format!("request {}", spec.design),
            "daemon",
            p.submitted,
            end,
            parent,
            op,
        );
        // Stage spans start at admission: both workers are free when a
        // traced op is driven, so no queue wait hides in the first one.
        let start = p.accepted.unwrap_or(p.submitted);
        self_s += p.boundaries.last().map_or(0.0, |(_, at)| end - at);
        for (metric, s) in record_stage_spans(tr, span, op, start, &p.boundaries) {
            accumulate(&mut per_metric, metric, s);
        }
        outcomes.push(outcome);
    }
    for (metric, s) in per_metric {
        layers.add(metric, s);
    }
    layers.add("flow.self_s", self_s);
    Ok(outcomes)
}

/// Adds the client-side view of one response to the daemon layer metrics.
fn add_daemon_metrics(layers: &mut Layers, spec: &SubmitSpec, outcome: &RequestOutcome) {
    let rtt = if spec.design.starts_with("mult") {
        "daemon.rtt_mult_s"
    } else {
        "daemon.rtt_fabric_s"
    };
    let run_s = match outcome.terminal {
        Terminal::Done { wall_s, .. } => wall_s,
        Terminal::Rejected { .. } => 0.0,
    };
    layers.add(rtt, outcome.latency_s);
    layers.add("daemon.run_s", run_s);
    layers.add("daemon.overhead_s", outcome.latency_s - run_s);
}

fn expected_for(sampled: &[Sampled], conn: u64, k: u64) -> Option<[u64; 2]> {
    sampled
        .iter()
        .find(|s| (s.conn, s.k) == (conn, k))
        .map(|s| s.fingerprints)
}

/// What one connection's closed loop measured.
struct ConnResult {
    /// `(op wall, verdict)` per op.
    ops: Vec<(f64, Result<(), String>)>,
    fingerprints: Vec<(String, u64)>,
    outcomes: Vec<(SubmitSpec, RequestOutcome)>,
    end: Instant,
}

/// One connection's closed loop: ops `ks`, each pair driven to completion
/// before the next is sent.
fn connection_loop(
    ctx: &Ctx,
    client: &mut DaemonClient,
    conn: u64,
    ks: std::ops::Range<u64>,
    sampled: &[Sampled],
) -> ConnResult {
    let mut result = ConnResult {
        ops: Vec::new(),
        fingerprints: Vec::new(),
        outcomes: Vec::new(),
        end: Instant::now(),
    };
    for k in ks {
        let specs = pair(ctx, conn, k);
        let expected = expected_for(sampled, conn, k);
        let started = Instant::now();
        let driven = client.drive(&specs);
        let wall_s = started.elapsed().as_secs_f64();
        let verdict = match driven {
            Err(e) => Err(format!("conn {conn} op {k}: {e}")),
            Ok(outcomes) => {
                let verdict = outcomes
                    .iter()
                    .enumerate()
                    .try_for_each(|(i, o)| check(o, expected.map(|fps| fps[i])))
                    .map_err(|why| format!("conn {conn} op {k}: {why}"));
                for (spec, o) in specs.iter().zip(outcomes) {
                    if let Some(fp) = o.qor_fp() {
                        result
                            .fingerprints
                            .push((format!("{}@{}", spec.design, spec.seed), fp));
                    }
                    result.outcomes.push((spec.clone(), o));
                }
                verdict
            }
        };
        result.ops.push((wall_s, verdict));
    }
    result.end = Instant::now();
    result
}

/// `FlowServer::serve` of the same four requests a loaded daemon runs at
/// once: the before/after number for merging the two schedulers.
fn probe_server(ctx: &Ctx, store: &Path, layers: &mut Layers) -> Result<(), String> {
    let mut requests = Vec::new();
    for conn in 0..CONNECTIONS {
        for spec in pair(ctx, conn, 1_000_000) {
            let design = spec
                .design
                .parse::<DesignSpec>()
                .map_err(|e| e.0)?
                .build()
                .map_err(|e| format!("server probe design: {e}"))?;
            let cfg = flow_config_for(&spec, 1, None, None).map_err(|e| e.0)?;
            requests.push(FlowRequest::new(design, cfg));
        }
    }
    let server = FlowServer::builder()
        .threads(2)
        .workers(2)
        .store(StoreConfig::at(store).with_max_bytes(1 << 30))
        .build();
    let (report, s) = ctx.tracer.time("serve batch of 4", "server", None, 0, || {
        server.serve(requests)
    });
    if report.failed() > 0 {
        return Err(format!(
            "server probe: {} of 4 requests failed",
            report.failed()
        ));
    }
    layers.add("server.batch4_s", s);
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, SetupError> {
    let tr = &ctx.tracer;
    let mut out = Outcome::default();
    let ops = if ctx.traced() {
        1
    } else {
        ctx.ops(NOMINAL_OP_S) as u64
    };
    let socket = ctx.run_dir.join("flowd.sock");
    let endpoint = Endpoint::Unix(socket.clone());

    // Set-up: solo references for the sampled ops, the daemon, both
    // connections, and one untimed warm-up op on a seed of its own.
    let setup = tr.open("setup", "bench", None, 0);
    let setup_start = tr.now();
    let mut sampled: Vec<Sampled> = Vec::new();
    let refs = tr.open("solo references", "bench", setup, 0);
    for conn in 0..CONNECTIONS {
        for k in 0..SAMPLED_OPS.min(ops) {
            let specs = pair(ctx, conn, k);
            // gen_s, instances, cells, overflow, wirelength of the pair.
            let mut counts = [0.0; 5];
            let fingerprints = [
                solo(tr, &specs[0], refs, &mut counts)?,
                solo(tr, &specs[1], refs, &mut counts)?,
            ];
            sampled.push(Sampled {
                conn,
                k,
                fingerprints,
            });
            if ctx.traced() {
                let names = [
                    "netlist.gen_s",
                    "netlist.instances",
                    "logic.cells",
                    "route.overflow",
                    "route.wirelength",
                ];
                names
                    .into_iter()
                    .zip(counts)
                    .for_each(|(name, v)| out.layers.add(name, v));
            }
        }
    }
    tr.close(refs);
    let (daemon, _) = tr.time("bind", "daemon", setup, 0, || {
        let mut cfg = DaemonConfig::new(&socket);
        cfg.workers = 2;
        cfg.threads = 2;
        cfg.queue_high_water = 8;
        // Bounded far above what a run writes: this workload never evicts.
        cfg.store = Some(StoreConfig::at(ctx.run_dir.join("flowd.store")).with_max_bytes(1 << 30));
        Daemon::bind(cfg)
    });
    let daemon = daemon.map_err(setup_err("daemon bind"))?;
    let server = std::thread::spawn(move || daemon.run());
    let mut clients = Vec::new();
    for _ in 0..CONNECTIONS {
        clients.push(
            DaemonClient::connect_retry(&endpoint, &RetryPolicy::default())
                .map_err(setup_err("connect"))?,
        );
    }
    let warm_specs = pair(ctx, 0, 2_000_000);
    let (warm, warm_s) = tr.time("warm-up", "daemon", setup, 0, || {
        clients[0].drive(&warm_specs)
    });
    let warm = warm.map_err(setup_err("warm-up op"))?;
    warm.iter()
        .try_for_each(|o| check(o, None))
        .map_err(SetupError)?;
    // Two `mult:8` side by side, one per worker and in phase. The
    // multiplier's equivalence check is the memory peak of this workload
    // (~46 MB solo), and whether the loaded loop ever lines two of them up
    // depends on how the connections' requests interleave (runs settled at
    // 78 MB or 102 MB). The high-water mark is a maximum: reach the worst
    // case here, every run, so `peak_rss_mb` repeats.
    let abreast = [
        pair(ctx, 0, 2_000_001)[0].clone(),
        pair(ctx, 0, 2_000_002)[0].clone(),
    ];
    let (primed, _) = tr.time("two mults abreast", "daemon", setup, 0, || {
        clients[0].drive(&abreast)
    });
    let primed = primed.map_err(setup_err("two mults abreast"))?;
    primed
        .iter()
        .try_for_each(|o| check(o, None))
        .map_err(SetupError)?;
    tr.close(setup);
    out.setup_s = tr.now() - setup_start;

    let window_start = Instant::now();
    if ctx.traced() {
        // Phase A: one op per connection, one connection at a time, every
        // frame timestamped: clean per-stage spans with two flows in
        // flight, as under load, but nothing queued.
        for (conn, client) in clients.iter_mut().enumerate() {
            let specs = pair(ctx, conn as u64, 0);
            let expected = expected_for(&sampled, conn as u64, 0);
            let op_id = conn as u64 + 1;
            let span = tr.open("op", "bench", None, op_id);
            let started = tr.now();
            let driven = drive_traced(tr, client, &specs, span, op_id, &mut out.layers);
            tr.close(span);
            let wall_s = tr.now() - started;
            out.layers.add("trace.overhead_ratio", wall_s / warm_s);
            let verdict = driven.and_then(|outcomes| {
                outcomes
                    .iter()
                    .enumerate()
                    .try_for_each(|(i, o)| check(o, expected.map(|f| f[i])))
            });
            out.op(
                wall_s,
                verdict.map_err(|why| format!("traced conn {conn}: {why}")),
            );
        }
    }
    // The loaded phase (phase B of a traced run, whose op 0 is spent):
    // both connections loop at once through the library's own `drive`.
    let loaded_start = Instant::now();
    let loaded_cpu0 = process_cpu_s();
    let first_k = u64::from(ctx.traced());
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                let sampled = &sampled;
                scope.spawn(move || {
                    connection_loop(ctx, client, conn as u64, first_k..first_k + ops, sampled)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a connection loop never panics"))
            .collect()
    });
    let loaded_end = results.iter().map(|r| r.end).max().unwrap_or(loaded_start);
    let loaded_s = loaded_end.duration_since(loaded_start).as_secs_f64();
    let loaded_cpu_s = process_cpu_s() - loaded_cpu0;
    out.window_s = loaded_end.duration_since(window_start).as_secs_f64();

    for r in results {
        for (wall_s, verdict) in r.ops {
            out.op(wall_s, verdict);
        }
        out.fingerprints.extend(r.fingerprints);
        if ctx.traced() {
            for (spec, outcome) in &r.outcomes {
                add_daemon_metrics(&mut out.layers, spec, outcome);
            }
        }
    }

    // Tear-down: drain the daemon and wait for it; its lifetime stats are
    // the last check (nothing rejected, nothing failed).
    let acked = clients[0].shutdown().map_err(|e| format!("shutdown: {e}"));
    drop(clients);
    let ran = server
        .join()
        .map_err(|_| "daemon thread panicked".to_string())
        .and_then(|r| r.map_err(|e| format!("daemon run: {e}")));
    match (acked, ran) {
        (Ok(_), Ok(stats)) => {
            if stats.rejected() > 0 || stats.failed > 0 {
                out.failures.push(format!(
                    "daemon stats: {} rejected, {} failed",
                    stats.rejected(),
                    stats.failed
                ));
            }
            if ctx.traced() {
                out.layers.add("daemon.rejected", stats.rejected() as f64);
                // Share of the two workers' cores the loaded phase kept
                // busy: process CPU seconds over workers x window.
                out.layers
                    .add("daemon.utilization", loaded_cpu_s / (2.0 * loaded_s));
            }
        }
        (Err(why), _) | (_, Err(why)) => out.failures.push(why),
    }

    if ctx.traced() {
        let store_bytes = std::fs::metadata(ctx.run_dir.join("flowd.store")).map_or(0, |m| m.len());
        out.layers.add("store.bytes_written", store_bytes as f64);
        if let Err(why) = probe_server(ctx, &ctx.run_dir.join("server.store"), &mut out.layers) {
            out.failures.push(why);
        }
        // The store's own layer numbers: `replay20k` is too noisy to gate,
        // so its traced op and probes ride here, in the traced run of the
        // gated workload that has the store switched on.
        super::replay::store_probe(ctx, &mut out);
    }
    Ok(out)
}
