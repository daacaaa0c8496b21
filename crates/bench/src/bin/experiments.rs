//! The experiment runner: regenerates every quantitative claim of the DATE
//! 2016 panel (see DESIGN.md §2 and EXPERIMENTS.md for the claim index).
//!
//! ```text
//! cargo run --release -p eda-bench --bin experiments run            # all claims
//! cargo run --release -p eda-bench --bin experiments run c3 c5 c9   # a subset
//! cargo run --release -p eda-bench --bin experiments run --inject smoke
//! cargo run --release -p eda-bench --bin experiments incremental
//! cargo run --release -p eda-bench --bin experiments trace flow.trace.json
//! cargo run --release -p eda-bench --bin experiments daemon serve --socket /tmp/flowd.sock
//! cargo run --release -p eda-bench --bin experiments daemon submit --socket /tmp/flowd.sock --count 4 --verify
//! ```
//!
//! `experiments --help` describes every subcommand and option; `print_help`
//! below is the one place they are documented.
//!
//! Any failure exits nonzero with a one-line message on stderr.

// The CLI reports failures as readable messages + nonzero exit, never a
// panic: everything fallible routes through `CliError`.
#![deny(clippy::unwrap_used)]

use eda_core::{
    run_flow, Arm, Daemon, DaemonClient, DaemonConfig, DesignSpec, Endpoint, FaultPlan,
    FlowConfig, FlowStore, FlowTuner, QorQuery, QorRow, Query, QuerySpec, RejectReason,
    RetryPolicy, StageRow, StoreConfig, SubmitSpec, Terminal, TransportFaultPlan,
};
use eda_dft::{
    bypass_fault_sim, compressed_fault_sim, fault_list, insert_scan, reorder_chains, run_atpg,
    scan_wirelength, AtpgConfig, CombView, TestAccess,
};
use eda_litho::{required_masks, run_opc, Layout, OpcConfig, OpticalModel};
use eda_logic::{synthesize, SynthesisEffort, SynthesisOptions};
use eda_netlist::{generate, Library, Netlist};
use eda_place::{
    anneal, place_global, place_hierarchical, place_parallel, plan_buffers, AnnealConfig,
    CongestionMap, Die, GlobalConfig, ParallelConfig,
};
use eda_power::{
    analyze, dark_silicon_sweep, node_power_sweep, plan_decaps, Activity, ActivityConfig,
    PowerConfig, PowerGrid,
};
use eda_route::{route, RouteAlgorithm, RouteConfig, RuleDeck};
use eda_smart::{best_iot_node, codesign_flow, node_selection_sweep, sequential_flow, DutyCycle};
use eda_sta::{TimingAnalysis, TimingConfig};
use eda_tech::{CostModel, DesignStartModel, Node, PatterningPlan};

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// A CLI failure: a message for stderr, built from any underlying error.
struct CliError(String);

impl<E: std::error::Error> From<E> for CliError {
    fn from(e: E) -> Self {
        CliError(e.to_string())
    }
}

type CliResult = Result<(), CliError>;
/// A claim id paired with the function that regenerates it.
type Claim = (&'static str, fn() -> CliResult);

/// Worker threads for the flows the claims run (`0` = all cores), set once from
/// `--threads` before any claim runs.
static THREADS: AtomicUsize = AtomicUsize::new(0);

fn threads() -> usize {
    THREADS.load(Ordering::Relaxed)
}

/// Flow-store configuration from `--store`, set once before any claim runs.
static STORE: OnceLock<StoreConfig> = OnceLock::new();

/// Applies the global flow store (when given) to a flow config, so every
/// flow the claims run shares one content-addressed store.
fn with_cache(mut cfg: FlowConfig) -> FlowConfig {
    if let Some(sc) = STORE.get() {
        cfg.store = Some(sc.clone());
    }
    cfg
}

fn main() {
    if let Err(e) = run() {
        eprintln!("experiments: {}", e.0);
        std::process::exit(1);
    }
}

/// What the CLI was asked to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    /// Regenerate panel claims (or an injected flow with `--inject`).
    Run,
    /// Cold + warm smoke flow against the stage cache.
    Incremental,
    /// Smoke flow once, telemetry written to disk.
    Trace,
    /// Long-lived socket daemon (`daemon serve|submit|ping|query|shutdown`).
    Daemon,
    /// QoR / stage provenance history read straight from the flow store.
    Query,
}

/// One typed option set shared by every subcommand.
#[derive(Debug)]
struct Options {
    /// `--threads N`: global budget for every parallel kernel. `0` = all
    /// cores.
    threads: usize,
    /// `--store PATH`: the persistent flow store file (stage + sub-stage
    /// cache and QoR provenance, DESIGN.md §14).
    store: Option<String>,
    /// `--store-max-bytes N`: size bound for the store (0 = default 64 MiB).
    store_max_bytes: u64,
    /// `--design NAME`: provenance filter for `query`.
    design: Option<String>,
    /// `--stage STAGE`: `query` switches to per-stage history rows.
    stage: Option<String>,
    /// `--metric M`: `query` column selector (wns|overflow|hpwl|wall|rss|all).
    metric: Option<String>,
    /// `--last N`: newest-N limit for `query` (0 = unlimited).
    last: usize,
    /// `--inject SPEC`: deterministic fault plan.
    inject: Option<String>,
    /// `trace` output path.
    trace_out: Option<String>,
    /// `--workers W`: flow workers for `daemon serve` (0 = 2).
    workers: usize,
    /// Claim ids for `run` (empty = all).
    claims: Vec<String>,
    /// `daemon` verb: `serve`, `submit`, `ping`, or `shutdown`.
    verb: Option<String>,
    /// `--socket PATH`: the daemon's Unix socket.
    socket: Option<String>,
    /// `--tcp ADDR`: optional TCP endpoint for `daemon serve`.
    tcp: Option<String>,
    /// `--queue N`: admission high-water mark for `daemon serve`.
    queue: usize,
    /// `--count N`: requests per `daemon submit`.
    count: usize,
    /// `--deadline-ms N`: per-request deadline for `daemon submit`.
    deadline_ms: Option<u64>,
    /// `--verify`: replay each completed submit solo and compare QoR
    /// fingerprints (the end-to-end determinism check).
    verify: bool,
    /// `--xfault SPEC`: deterministic transport-fault plan applied to the
    /// `daemon submit` client itself (`conn-drop@N,frame-garbage@N,stall@N`).
    xfault: Option<String>,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            threads: 0,
            store: None,
            store_max_bytes: 0,
            design: None,
            stage: None,
            metric: None,
            last: 10,
            inject: None,
            trace_out: None,
            workers: 0,
            claims: Vec::new(),
            verb: None,
            socket: None,
            tcp: None,
            queue: 8,
            count: 4,
            deadline_ms: None,
            verify: false,
            xfault: None,
        }
    }
}

fn print_help() {
    println!(
        "experiments — regenerate the DATE 2016 panel's claims and drive the flow

USAGE:
    experiments SUBCOMMAND [OPTIONS] [CLAIMS...]

SUBCOMMANDS:
    run [CLAIMS...]    regenerate panel claims (default: all), in claim
                       order, in this process
    incremental        cold + warm + edited smoke flow against the flow
                       store; fails unless the warm run skips >= 8 of 11
                       stages and a one-AIG-pass edit replays >= 1 sub-stage
                       memo entry, both with bit-identical QoR
    query              read QoR / stage provenance history out of the flow
                       store (--store, with --design / --stage / --metric /
                       --last filters) and print QUERYLINE rows newest-first
    trace OUT.json     run the smoke flow once; write Chrome-trace JSON,
                       OUT.metrics.json, and OUT.folded
    daemon VERB        long-lived flow daemon over a Unix socket:
                         serve      bind --socket and serve until drained
                                    (shutdown frame or SIGTERM); exits 0
                         submit     send --count requests, stream stage
                                    events, print DAEMONLINE rows
                         ping       liveness probe + lifetime stats
                         query      QoR history over the wire (answered from
                                    the daemon's store, no flow worker used)
                         shutdown   graceful drain, then print final stats

OPTIONS (shared by every subcommand; `--flag V` and `--flag=V` both work):
    --threads N        global thread budget, 0 = all cores (default 0);
                       results are bit-identical for any value
    --store PATH       persistent flow store file: stage + sub-stage cache
                       and QoR provenance (DESIGN.md section 14)
    --store-max-bytes N
                       store size bound in bytes; LRU compaction keeps the
                       file under it (default 0 = 64 MiB)
    --design NAME      query: only rows for this design
    --stage STAGE      query: per-stage history rows for STAGE instead of
                       whole-run QoR rows
    --metric M         query: value column, one of wns|overflow|hpwl|wall|
                       rss|all (default all)
    --last N           query: newest N rows only (default 10, 0 = unlimited)
    --inject SPEC      deterministic fault plan: smoke, random:N, or a comma
                       list of stage=fail|timeout|degrade[@invocation]
                       (run: supervised faulted flow; trace: faulted trace;
                       daemon submit: prefix with the request id the rows
                       print, from 1, e.g. `2:route=fail@1`, `;`-separated
                       for several)
    --workers W        daemon serve: flow workers (default 2)
    --socket PATH      daemon: Unix socket path (required)
    --tcp ADDR         daemon serve: also listen on this TCP address
    --queue N          daemon serve: admission high-water mark, at least 1 (default 8)
    --count N          daemon submit: number of requests (default 4)
    --deadline-ms N    daemon submit: per-request deadline from admission
    --verify           daemon submit: replay each completed request solo and
                       require bit-identical QoR fingerprints
    --xfault SPEC      daemon submit: sabotage the client deterministically
                       (conn-drop@N | frame-garbage@N | stall@N, comma list)
    -h, --help         this text"
    );
}

/// Subcommand spellings, in `--help` order.
const SUBCOMMANDS: [(&str, Command); 5] = [
    ("run", Command::Run),
    ("incremental", Command::Incremental),
    ("query", Command::Query),
    ("trace", Command::Trace),
    ("daemon", Command::Daemon),
];

/// Parses argv into `(Command, Options)`. Subcommand names and flags are
/// case-insensitive; values (paths, fault specs) are taken verbatim.
fn parse_args() -> Result<(Command, Options), CliError> {
    let mut cmd: Option<(&str, Command)> = None;
    let mut opts = Options::default();
    let take = |flag: &str, v: Option<String>| -> Result<String, CliError> {
        v.ok_or(CliError(format!("{flag} needs a value")))
    };
    let count = |flag: &str, v: Option<String>| -> Result<usize, CliError> {
        v.and_then(|v| v.parse().ok())
            .ok_or(CliError(format!("{flag} needs a non-negative integer")))
    };
    // `--flag=V` is `--flag V`: split it here, once, so each flag has one arm.
    let mut args = std::env::args().skip(1).flat_map(|raw| match raw.split_once('=') {
        Some((flag, value)) if flag.starts_with("--") => vec![flag.to_string(), value.to_string()],
        _ => vec![raw],
    });
    while let Some(raw) = args.next() {
        let a = raw.to_lowercase();
        match a.as_str() {
            "-h" | "--help" => {
                print_help();
                std::process::exit(0);
            }
            "--threads" => opts.threads = count("--threads", args.next())?,
            "--workers" => opts.workers = count("--workers", args.next())?,
            "--inject" => {
                opts.inject = Some(take("--inject (try `--inject smoke`)", args.next())?);
            }
            "--store" => opts.store = Some(take("--store", args.next())?),
            "--store-max-bytes" => {
                opts.store_max_bytes = count("--store-max-bytes", args.next())? as u64;
            }
            "--design" => opts.design = Some(take("--design", args.next())?),
            "--stage" => opts.stage = Some(take("--stage", args.next())?),
            "--metric" => opts.metric = Some(take("--metric", args.next())?),
            "--last" => opts.last = count("--last", args.next())?,
            "--socket" => opts.socket = Some(take("--socket", args.next())?),
            "--tcp" => opts.tcp = Some(take("--tcp", args.next())?),
            "--queue" => opts.queue = count("--queue", args.next())?,
            "--count" => opts.count = count("--count", args.next())?.max(1),
            "--deadline-ms" => {
                opts.deadline_ms = Some(count("--deadline-ms", args.next())? as u64);
            }
            "--verify" => opts.verify = true,
            "--xfault" => opts.xfault = Some(take("--xfault", args.next())?),
            _ if a.starts_with("--") => {
                return Err(CliError(format!("unknown flag `{a}` (see --help)")));
            }
            // The first positional names the subcommand; under `trace` the
            // next is the output path, under `daemon` the verb; everything
            // else is a claim id.
            _ if cmd.is_none() => {
                let known = SUBCOMMANDS.iter().find(|(name, _)| *name == a);
                cmd = Some(*known.ok_or_else(|| {
                    CliError(format!("unknown subcommand `{a}` (see --help)"))
                })?);
            }
            _ if matches!(cmd, Some((_, Command::Trace))) && opts.trace_out.is_none() => {
                opts.trace_out = Some(raw);
            }
            _ if matches!(cmd, Some((_, Command::Daemon))) && opts.verb.is_none() => {
                opts.verb = Some(a);
            }
            _ => opts.claims.push(a),
        }
    }
    let (name, cmd) = cmd.ok_or(CliError("missing subcommand (see --help)".into()))?;
    if cmd != Command::Run && !opts.claims.is_empty() {
        return Err(CliError(format!(
            "`{name}` takes no claim arguments (got: {})",
            opts.claims.join(" ")
        )));
    }
    Ok((cmd, opts))
}

/// The flow store the CLI should run against: `--store PATH` with
/// `--store-max-bytes` applied, or `None`.
fn store_config(opts: &Options) -> Option<StoreConfig> {
    let base = StoreConfig::at(opts.store.as_ref()?);
    Some(if opts.store_max_bytes > 0 {
        base.with_max_bytes(opts.store_max_bytes)
    } else {
        base
    })
}

fn run() -> CliResult {
    let (cmd, opts) = parse_args()?;
    THREADS.store(opts.threads, Ordering::Relaxed);
    if let Some(sc) = store_config(&opts) {
        let _ = STORE.set(sc);
    }
    match cmd {
        Command::Incremental => incremental_demo(&opts),
        Command::Query => query_demo(&opts),
        Command::Trace => {
            let path = opts.trace_out.as_deref().ok_or(CliError(
                "trace needs an output path (try `experiments trace flow.trace.json`)".into(),
            ))?;
            trace_demo(path, opts.threads, opts.inject.as_deref())
        }
        Command::Daemon => daemon_demo(&opts),
        Command::Run => {
            if let Some(spec) = &opts.inject {
                return inject_demo(spec, opts.threads);
            }
            run_claims(&opts.claims)
        }
    }
}

/// `run [CLAIMS...]`: regenerate the selected claims (all by default), one
/// after another in claim order.
fn run_claims(claims: &[String]) -> CliResult {
    let experiments: Vec<Claim> = vec![
        ("c1", c1),
        ("c2", c2),
        ("c3", c3),
        ("c4", c4),
        ("c5", c5),
        ("c6", c6),
        ("c7", c7),
        ("c8", c8),
        ("c9", c9),
        ("c10", c10),
        ("c11", c11),
        ("c12", c12),
        ("c13", c13),
        ("c14", c14),
        ("c15", c15),
        ("c16", c16),
        ("b1", b1),
        ("b2", b2),
    ];
    for id in claims {
        if !experiments.iter().any(|(known, _)| known == id) {
            let known: Vec<&str> = experiments.iter().map(|(id, _)| *id).collect();
            return Err(CliError(format!("unknown claim `{id}` (known: {})", known.join(" "))));
        }
    }
    for (id, run) in experiments {
        if claims.is_empty() || claims.iter().any(|a| a == id) {
            run().map_err(|e| CliError(format!("claim {id}: {}", e.0)))?;
            println!();
        }
    }
    Ok(())
}

/// `incremental`: cold + warm + edited smoke flow against the flow store.
///
/// Runs the smoke flow twice against `--store` (or a fresh temp store),
/// prints both wall clocks, the
/// fraction of stages replayed from the store, and the QoR comparison; then
/// re-runs with one AIG rewrite pass dropped — the sub-stage memo must
/// replay at least one per-pass entry even though the synthesis stage entry
/// itself misses. Fails unless the warm run skipped at least 8 of the 11
/// stages and the edited run's QoR matches an uncached reference,
/// bit-identically. Unreadable (poisoned) entries are recomputed and
/// counted, never fatal, so a partially damaged store still passes as long
/// as enough stages replay.
fn incremental_demo(opts: &Options) -> CliResult {
    let sc = store_config(opts).unwrap_or_else(|| {
        StoreConfig::at(
            std::env::temp_dir()
                .join(format!("eda_incremental_{}", std::process::id()))
                .join("flow.store"),
        )
    });
    let design = generate::switch_fabric(3, 3)?;
    let mut cfg = FlowConfig::advanced_2016(Node::N10);
    cfg.threads = opts.threads;
    cfg.store = Some(sc.clone());
    println!(
        "=== incremental flow: {} on {} (store at {}) ===",
        cfg.name,
        design.name(),
        sc.path.display()
    );

    let counter = |r: &eda_core::FlowReport, name: &str| -> u64 {
        match r.telemetry.metrics.get(name) {
            Some(eda_core::Metric::Counter(n)) => *n,
            _ => 0,
        }
    };

    let t = Instant::now();
    let cold = run_flow(&design, &cfg).map_err(|e| CliError(format!("cold run failed: {e}")))?;
    let cold_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let warm = run_flow(&design, &cfg).map_err(|e| CliError(format!("warm run failed: {e}")))?;
    let warm_s = t.elapsed().as_secs_f64();

    let total = warm.stage_status.len() as u64;
    let hits = counter(&warm, "cache.hits");
    let errors = counter(&warm, "cache.errors");
    let same = cold.same_qor(&warm);
    println!("cold run: {cold_s:>8.3}s  ({} stage misses)", counter(&cold, "cache.misses"));
    println!(
        "warm run: {warm_s:>8.3}s  \
         ({hits}/{total} stages replayed, {errors} unreadable entries recomputed)"
    );
    println!("warm speedup: {:.1}x, QoR bit-identical: {same}", cold_s / warm_s.max(1e-9));

    // Edit-replay: drop one AIG rewrite pass. The synthesis stage entry
    // misses (its config fingerprint covers the pass count), but the
    // per-pass sub-stage memo replays every pass the edit didn't remove.
    // QoR is judged against an uncached run of the edited config.
    let mut edited = cfg.clone();
    edited.aig_rewrite_passes = cfg.aig_rewrite_passes.saturating_sub(1);
    let t = Instant::now();
    let edit =
        run_flow(&design, &edited).map_err(|e| CliError(format!("edited run failed: {e}")))?;
    let edit_s = t.elapsed().as_secs_f64();
    let mut uncached = edited.clone();
    uncached.store = None;
    let reference = run_flow(&design, &uncached)
        .map_err(|e| CliError(format!("uncached reference run failed: {e}")))?;
    let sub_hits = counter(&edit, "cache.substage_hits");
    let sub_misses = counter(&edit, "cache.substage_misses");
    let edit_hits = counter(&edit, "cache.hits");
    let edit_same = reference.same_qor(&edit);
    println!(
        "edit run: {edit_s:>8.3}s  (one rewrite pass dropped: {edit_hits} stage hits, \
         {sub_hits} sub-stage hits / {sub_misses} misses, QoR vs uncached: {edit_same})"
    );

    // Machine-readable rows for scripts/check.sh. The `cold_*` rows
    // describe the first run of THIS invocation — against
    // a pre-filled store it hits too, and against a damaged one it reports
    // the unreadable entries it recomputed.
    println!("INCRLINE cold_s {cold_s:.6}");
    println!("INCRLINE cold_hits {}", counter(&cold, "cache.hits"));
    println!("INCRLINE cold_errors {}", counter(&cold, "cache.errors"));
    println!("INCRLINE cold_substage_misses {}", counter(&cold, "cache.substage_misses"));
    println!("INCRLINE warm_s {warm_s:.6}");
    println!("INCRLINE stages_total {total}");
    println!("INCRLINE stages_skipped {hits}");
    println!("INCRLINE cache_errors {errors}");
    println!("INCRLINE same_qor {}", same as u32);
    println!("INCRLINE edit_s {edit_s:.6}");
    println!("INCRLINE edit_stage_hits {edit_hits}");
    println!("INCRLINE edit_substage_hits {sub_hits}");
    println!("INCRLINE edit_substage_misses {sub_misses}");
    println!("INCRLINE edit_same_qor {}", edit_same as u32);
    if hits < 8 {
        return Err(CliError(format!(
            "warm run replayed only {hits}/{total} stages (expected >= 8)"
        )));
    }
    if !same {
        return Err(CliError("warm QoR diverged from the cold run".into()));
    }
    // A store pre-filled by an earlier edited run replays the whole edited
    // flow from the stage cache (never consulting the memo), so the
    // sub-stage gate only binds when synthesis actually recomputed.
    if sub_hits < 1 && edit_hits < total {
        return Err(CliError(
            "edited run replayed no sub-stage entries (expected >= 1 per-pass memo hit)".into(),
        ));
    }
    if !edit_same {
        return Err(CliError("edited QoR diverged from the uncached reference".into()));
    }
    println!(
        "incremental: warm run skipped {hits}/{total} stages, \
         edit replayed {sub_hits} sub-stage entries, QoR identical"
    );
    Ok(())
}

/// `query`: the provenance read side — QoR history (or, with `--stage`,
/// per-stage history) straight out of the flow store, newest first.
///
/// Prints a human table plus stable machine-readable rows:
///
/// * `QUERYLINE qor <seq> <design> <node> <cfg_fp> <qor_fp> <wns_ps>
///   <overflow> <hpwl_um> <wall_s> <peak_rss_bytes>` (with `--metric all`),
/// * `QUERYLINE <metric> <seq> <design> <value>` for a single metric,
/// * `QUERYLINE stage <seq> <design> <stage> <attempts> <wall_s> <outcome>`
///   with `--stage`,
/// * a trailing `QUERYLINE rows <n>` count either way.
fn query_demo(opts: &Options) -> CliResult {
    let sc = store_config(opts).ok_or(CliError("query needs --store PATH".into()))?;
    let store = FlowStore::open(&sc).map_err(|e| CliError(format!("cannot open store: {e}")))?;
    let q = QorQuery {
        design: opts.design.clone(),
        stage: opts.stage.clone(),
        last: opts.last,
    };

    if opts.stage.is_some() {
        let rows: Vec<StageRow> = store.stage_history(&q)?;
        println!("{:>5} {:<14} {:<12} {:>8} {:>9}  outcome", "seq", "design", "stage", "attempts", "wall_s");
        for row in &rows {
            println!(
                "{:>5} {:<14} {:<12} {:>8} {:>9.3}  {}",
                row.seq, row.design, row.stage, row.attempts, row.wall_s, row.outcome
            );
        }
        for row in &rows {
            println!(
                "QUERYLINE stage {} {} {} {} {:.6} {}",
                row.seq, row.design, row.stage, row.attempts, row.wall_s, row.outcome
            );
        }
        println!("QUERYLINE rows {}", rows.len());
        return Ok(());
    }

    let metric = opts.metric.as_deref().unwrap_or("all");
    if !matches!(metric, "all" | "wns" | "overflow" | "hpwl" | "wall" | "rss") {
        return Err(CliError(format!(
            "unknown --metric `{metric}` (want wns, overflow, hpwl, wall, rss, or all)"
        )));
    }
    print_qor_rows(&store.qor_history(&q)?, metric);
    Ok(())
}

/// The QoR rows of `query` and `daemon query`: a human table, one
/// `QUERYLINE` row per run (`check.sh` parses these bytes), and the count.
fn print_qor_rows(rows: &[QorRow], metric: &str) {
    println!(
        "{:>5} {:<14} {:<6} {:>10} {:>6} {:>12} {:>9} {:>9}",
        "seq", "design", "node", "wns_ps", "ovfl", "hpwl_um", "wall_s", "rss_mb"
    );
    for row in rows {
        println!(
            "{:>5} {:<14} {:<6} {:>10.1} {:>6} {:>12.1} {:>9.3} {:>9.1}",
            row.seq,
            row.design,
            row.node,
            row.wns_ps,
            row.overflow,
            row.hpwl_um,
            row.wall_s,
            row.peak_rss_bytes as f64 / (1024.0 * 1024.0)
        );
    }
    let value = |row: &QorRow| -> String {
        match metric {
            "wns" => format!("{:.3}", row.wns_ps),
            "overflow" => row.overflow.to_string(),
            "hpwl" => format!("{:.3}", row.hpwl_um),
            "wall" => format!("{:.6}", row.wall_s),
            "rss" => row.peak_rss_bytes.to_string(),
            _ => String::new(),
        }
    };
    for row in rows {
        if metric == "all" {
            println!(
                "QUERYLINE qor {} {} {} {:016x} {:016x} {:.3} {} {:.3} {:.6} {}",
                row.seq,
                row.design,
                row.node,
                row.cfg_fp,
                row.qor_fp,
                row.wns_ps,
                row.overflow,
                row.hpwl_um,
                row.wall_s,
                row.peak_rss_bytes
            );
        } else {
            println!("QUERYLINE {metric} {} {} {}", row.seq, row.design, value(row));
        }
    }
    println!("QUERYLINE rows {}", rows.len());
}

/// Parses `--inject` entries of the form `INDEX:SPEC` (`;`-separated, since
/// SPEC itself may contain commas) into per-request fault specs, validating
/// each SPEC against the fault grammar up front. INDEX is the request's wire
/// id, the one `daemon submit` prints: `1..=batch`.
fn parse_indexed_injects(spec: &str, batch: usize) -> Result<Vec<(u64, String)>, CliError> {
    let mut out = Vec::new();
    for entry in spec.split(';').map(str::trim).filter(|e| !e.is_empty()) {
        let (idx, plan) = entry.split_once(':').ok_or_else(|| {
            CliError(format!(
                "per-request inject wants INDEX:SPEC (e.g. `2:route=fail@1`), got `{entry}`"
            ))
        })?;
        let idx: u64 = idx
            .trim()
            .parse()
            .map_err(|_| CliError(format!("bad request index in `{entry}`")))?;
        if idx == 0 || idx > batch as u64 {
            return Err(CliError(format!(
                "inject index {idx} out of range (batch of {batch})"
            )));
        }
        let plan = plan.trim();
        FaultPlan::parse(plan, 42)?;
        out.push((idx, plan.to_string()));
    }
    Ok(out)
}

/// `daemon VERB`: the network-facing flow daemon (DESIGN.md §11).
fn daemon_demo(opts: &Options) -> CliResult {
    let verb = opts.verb.as_deref().ok_or(CliError(
        "daemon needs a verb: serve, submit, ping, query, or shutdown (see --help)".into(),
    ))?;
    let socket = opts.socket.as_deref().ok_or(CliError(
        "daemon needs --socket PATH (e.g. --socket /tmp/flowd.sock)".into(),
    ))?;
    match verb {
        "serve" => daemon_serve(opts, socket),
        "submit" => daemon_submit(opts, socket),
        "ping" => daemon_ping(socket),
        "query" => daemon_query(opts, socket),
        "shutdown" => daemon_shutdown(socket),
        other => Err(CliError(format!(
            "unknown daemon verb `{other}` (want serve, submit, ping, query, or shutdown)"
        ))),
    }
}

/// The one way the client verbs reach the daemon: its Unix socket, with the
/// default connect-retry policy.
fn connect(socket: &str) -> Result<DaemonClient, CliError> {
    DaemonClient::connect_retry(&Endpoint::Unix(PathBuf::from(socket)), &RetryPolicy::default())
        .map_err(|e| CliError(format!("cannot reach daemon at {socket}: {e}")))
}

fn print_daemon_stats(stats: &eda_core::DaemonStats) {
    println!("DAEMONLINE accepted {}", stats.accepted);
    println!("DAEMONLINE rejected {}", stats.rejected());
    println!("DAEMONLINE rejected_full {}", stats.rejected_full);
    println!("DAEMONLINE rejected_draining {}", stats.rejected_draining);
    println!("DAEMONLINE rejected_bad {}", stats.rejected_bad);
    println!("DAEMONLINE completed {}", stats.completed);
    println!("DAEMONLINE failed {}", stats.failed);
    println!("DAEMONLINE protocol_errors {}", stats.protocol_errors);
    println!("DAEMONLINE disconnects {}", stats.disconnects);
}

/// `daemon serve`: bind the socket(s) and serve until drained (a `shutdown`
/// frame or SIGTERM), then print lifetime stats and exit 0.
fn daemon_serve(opts: &Options, socket: &str) -> CliResult {
    let mut cfg = DaemonConfig::new(socket);
    cfg.tcp = opts.tcp.clone();
    cfg.workers = if opts.workers == 0 { 2 } else { opts.workers };
    cfg.threads = opts.threads;
    cfg.queue_high_water = opts.queue;
    cfg.store = store_config(opts);
    cfg.handle_sigterm = true;
    let workers = cfg.workers;
    let daemon = Daemon::bind(cfg)?;
    println!(
        "=== flow daemon on {socket} ({workers} workers, queue high water {}) ===",
        opts.queue
    );
    if let Some(addr) = daemon.tcp_addr() {
        println!("tcp endpoint: {addr}");
    }
    // Scripts wait for this marker (and the socket file) before submitting.
    println!("DAEMONLINE ready 1");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let stats = daemon.run()?;
    print_daemon_stats(&stats);
    println!("daemon drained cleanly");
    Ok(())
}

/// `daemon submit`: send `--count` requests over one connection, stream the
/// per-stage events, and print per-request rows plus DAEMONLINE metrics.
/// With `--verify`, every completed request is replayed solo and must match
/// its wire QoR fingerprint bit-for-bit. With `--xfault`, this client
/// sabotages its own transport deterministically (hostile-client mode) and
/// a dropped connection counts as the expected outcome.
fn daemon_submit(opts: &Options, socket: &str) -> CliResult {
    let mut client = connect(socket)?;
    let hostile = opts.xfault.is_some();
    if let Some(spec) = &opts.xfault {
        client = client.with_faults(TransportFaultPlan::parse(spec)?);
    }

    let designs = ["fabric:3x3", "fabric:4x3", "parity:32", "fabric:3x4"];
    let injects = match &opts.inject {
        None => Vec::new(),
        Some(spec) => parse_indexed_injects(spec, opts.count)?,
    };
    let mut specs = Vec::with_capacity(opts.count);
    for i in 0..opts.count {
        let mut spec = SubmitSpec::new((i + 1) as u64, designs[i % designs.len()]);
        spec.deadline_ms = opts.deadline_ms;
        if let Some((_, inj)) = injects.iter().find(|(id, _)| *id == spec.id) {
            spec.inject = Some(inj.clone());
        }
        specs.push(spec);
    }

    println!("=== daemon submit: {} request(s) to {socket} ===", opts.count);
    let t = Instant::now();
    let outcomes = match client.drive(&specs) {
        Ok(o) => o,
        Err(e) if hostile => {
            // A sabotaged transport is expected to die; the daemon's health
            // after the abuse is what the scripts check.
            println!("hostile client lost its connection as planned: {e}");
            println!("DAEMONLINE dropped 1");
            return Ok(());
        }
        Err(e) => return Err(CliError(e.to_string())),
    };
    let wall_s = t.elapsed().as_secs_f64();

    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let mut rejected_full = 0u64;
    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut latencies: Vec<f64> = Vec::new();
    println!("{:>3}  {:<10} {:>8}  outcome", "req", "design", "lat_s");
    for (spec, out) in specs.iter().zip(&outcomes) {
        accepted += u64::from(out.accepted);
        let text = match &out.terminal {
            Terminal::Done { ok: true, qor_fp, stages, .. } => {
                completed += 1;
                latencies.push(out.latency_s);
                format!(
                    "ok, {stages} stages, qor_fp {}",
                    qor_fp.map_or("?".to_string(), |fp| format!("{fp:016x}"))
                )
            }
            Terminal::Done { ok: false, error, stages, .. } => {
                failed += 1;
                format!(
                    "failed after {stages} stage(s): {}",
                    error.as_deref().unwrap_or("unknown")
                )
            }
            Terminal::Rejected { reason, detail } => {
                rejected += 1;
                rejected_full += u64::from(*reason == RejectReason::QueueFull);
                format!("rejected ({reason}): {detail}")
            }
        };
        println!("{:>3}  {:<10} {:>8.3}  {text}", spec.id, spec.design, out.latency_s);
    }

    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let pct = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let rank = (p * (latencies.len() - 1) as f64).round() as usize;
        latencies[rank.min(latencies.len() - 1)]
    };
    println!("DAEMONLINE submitted {}", opts.count);
    println!("DAEMONLINE client_accepted {accepted}");
    println!("DAEMONLINE client_rejected {rejected}");
    println!("DAEMONLINE client_rejected_full {rejected_full}");
    println!("DAEMONLINE client_completed {completed}");
    println!("DAEMONLINE client_failed {failed}");
    println!("DAEMONLINE wall_s {wall_s:.6}");
    println!("DAEMONLINE throughput_per_s {:.3}", completed as f64 / wall_s.max(1e-9));
    println!("DAEMONLINE p50_s {:.6}", pct(0.50));
    println!("DAEMONLINE p95_s {:.6}", pct(0.95));

    if opts.verify {
        // End-to-end determinism: replay each completed request solo, from
        // the same wire spec, and require the identical QoR fingerprint.
        for (spec, out) in specs.iter().zip(&outcomes) {
            let Some(wire_fp) = out.qor_fp() else { continue };
            let design: DesignSpec = spec.design.parse()?;
            let netlist = design.build()?;
            let cfg = eda_core::flow_config_for(spec, opts.threads.max(1), None, None)?;
            let report = run_flow(&netlist, &cfg)
                .map_err(|e| CliError(format!("solo replay of request {} failed: {e}", spec.id)))?;
            if report.qor_fingerprint() != wire_fp {
                return Err(CliError(format!(
                    "request {} QoR diverged: wire {wire_fp:016x} vs solo {:016x}",
                    spec.id,
                    report.qor_fingerprint()
                )));
            }
        }
        println!("DAEMONLINE verified 1");
        println!("every completed request matches its solo replay bit-for-bit");
    }
    Ok(())
}

/// `daemon query`: QoR provenance history over the wire. The daemon answers
/// from its flow store on the connection's reader thread — no flow worker is
/// occupied, so this works even while the queue is full.
fn daemon_query(opts: &Options, socket: &str) -> CliResult {
    let spec = QuerySpec { design: opts.design.clone(), last: opts.last as u64 };
    let rows = connect(socket)?.query(&spec).map_err(|e| CliError(e.to_string()))?;
    print_qor_rows(&rows, "all");
    Ok(())
}

/// `daemon ping`: liveness probe; prints the daemon's lifetime stats.
fn daemon_ping(socket: &str) -> CliResult {
    let stats = connect(socket)?.ping().map_err(|e| CliError(e.to_string()))?;
    print_daemon_stats(&stats);
    Ok(())
}

/// `daemon shutdown`: ask for graceful drain and wait for the final ack.
fn daemon_shutdown(socket: &str) -> CliResult {
    let stats = connect(socket)?.shutdown().map_err(|e| CliError(e.to_string()))?;
    println!("DAEMONLINE drained 1");
    print_daemon_stats(&stats);
    Ok(())
}

/// `--inject SPEC`: the supervised flow under a deterministic fault plan.
///
/// Runs the advanced flow at 10nm (so every stage, including decomposition +
/// OPC, is exercised) with the parsed plan, prints the typed outcome of every
/// stage, then repeats the faulted run and checks bit-identical QoR — the
/// injection layer is keyed on `(stage, invocation)`, never on wall clock.
fn inject_demo(spec: &str, threads_arg: usize) -> CliResult {
    let plan = FaultPlan::parse(spec, 42)?;
    println!("=== fault injection: `{spec}` ===");
    let design = generate::switch_fabric(3, 3)?;
    let mut cfg = FlowConfig::advanced_2016(Node::N10);
    cfg.threads = threads_arg;
    cfg.fault_plan = Some(plan);
    let report = run_flow(&design, &cfg)
        .map_err(|e| CliError(format!("supervised flow did not survive the plan: {e}")))?;
    println!("{:<16} {:>8}  outcome", "stage", "attempts");
    for (stage, status) in &report.stage_status {
        println!("{:<16} {:>8}  {}", stage, status.attempts, status.outcome);
    }
    let again = run_flow(&design, &cfg)
        .map_err(|e| CliError(format!("second faulted run failed: {e}")))?;
    if !report.same_qor(&again) {
        return Err(CliError("faulted run is not reproducible (QoR drifted between two identical runs)".into()));
    }
    println!("faulted run reproduces bit-identically at threads={threads_arg}");
    Ok(())
}

/// `--trace OUT.json`: run the smoke flow once and write its telemetry.
///
/// Emits three files: Chrome-trace JSON at the given path (open in
/// `chrome://tracing` or Perfetto), a flat metrics JSON next to it, and a
/// folded-stack text file for `flamegraph.pl`. With `--inject SPEC` the flow
/// runs under that fault plan, so retries and degradations show up as tagged
/// attempt spans in the trace.
fn trace_demo(path: &str, threads_arg: usize, inject: Option<&str>) -> CliResult {
    let design = generate::switch_fabric(3, 3)?;
    let mut cfg = with_cache(FlowConfig::advanced_2016(Node::N10));
    cfg.threads = threads_arg;
    if let Some(spec) = inject {
        cfg.fault_plan = Some(FaultPlan::parse(spec, 42)?);
    }
    let report = run_flow(&design, &cfg)
        .map_err(|e| CliError(format!("traced flow failed: {e}")))?;
    let tel = &report.telemetry;

    let stem = path.strip_suffix(".json").unwrap_or(path);
    let metrics_path = format!("{stem}.metrics.json");
    let folded_path = format!("{stem}.folded");
    std::fs::write(path, tel.chrome_trace_json())?;
    std::fs::write(&metrics_path, tel.metrics_json())?;
    std::fs::write(&folded_path, tel.folded_stacks())?;

    println!("=== flow trace: {} on {} at {:?} ===", cfg.name, design.name(), cfg.node);
    println!("spans   {:>6}  -> {path} (chrome://tracing / Perfetto)", tel.spans.len());
    println!("metrics {:>6}  -> {metrics_path}", tel.metrics.len());
    println!("stacks          -> {folded_path} (flamegraph.pl)");
    Ok(())
}

fn header(id: &str, claim: &str) {
    println!("=== {} ===", id.to_uppercase());
    println!("claim: {claim}");
}

/// B1 — the format-dualism overhead (UPF/CPF, CCS/ECSM) and its remedy.
fn b1() -> CliResult {
    use eda_logic::{check_equivalence, EcVerdict};
    use eda_netlist::liberty;
    header("b1", "format dualism (UPF/CPF, CCS-ECSM) duplicated IP delivery effort (Rossi)");
    let lib = Library::generic();
    let as_liberty = liberty::write_liberty(&lib);
    let as_clf = liberty::write_clf(&lib);
    let converted = liberty::clf_to_liberty(&as_clf)?;
    println!(
        "deliveries: liberty {} B, clf {} B; clf->liberty conversion identical: {}",
        as_liberty.len(),
        as_clf.len(),
        as_liberty == converted
    );
    let design = generate::alu(4)?;
    let a = synthesize(
        &design,
        liberty::parse_liberty(&as_liberty)?,
        SynthesisEffort::Advanced2016,
        &SynthesisOptions::default(),
    )?;
    let b = synthesize(
        &design,
        liberty::parse_clf(&as_clf)?,
        SynthesisEffort::Advanced2016,
        &SynthesisOptions::default(),
    )?;
    let ec = check_equivalence(&design, &a.netlist, &[], &[], 1 << 20)?;
    println!(
        "same QoR from either delivery ({:.1} vs {:.1} um2); formal EC: {}",
        a.area_um2,
        b.area_um2,
        matches!(ec, EcVerdict::Equivalent)
    );
    Ok(())
}

/// B2 — decomposition clears printability hotspots.
fn b2() -> CliResult {
    use eda_litho::{decompose, find_hotspots, find_hotspots_per_mask, Hotspot, HotspotConfig, Rect};
    header("b2", "multi-patterning makes sub-pitch layouts printable (Domic/Sawicki, C4+C15)");
    let model = OpticalModel::default();
    let mut layout = Layout::new();
    for i in 0..8 {
        let x = i as f64 * 50.0;
        layout.features.push(Rect::new(x, 0.0, x + 34.0, 2000.0));
    }
    let single = find_hotspots(&layout, &model, &HotspotConfig::default());
    let bridges =
        single.iter().filter(|h| matches!(h, Hotspot::Bridge { .. })).count();
    let deco = decompose(&layout, 2, eda_tech::SINGLE_EXPOSURE_PITCH_NM, 0);
    let after: usize = find_hotspots_per_mask(&deco, &model, &HotspotConfig::default())
        .iter()
        .flatten()
        .filter(|h| matches!(h, Hotspot::Bridge { .. }))
        .count();
    println!(
        "34nm lines / 16nm spaces: {bridges} bridge hotspots single-exposure -> {after} after double patterning ({} masks, legal={})",
        deco.masks, deco.legal
    );
    Ok(())
}

/// C1 — integration capacity: two orders of magnitude in a decade.
fn c1() -> CliResult {
    header("c1", "integration capacity +2 orders of magnitude, 90nm (2006) -> 10nm (2016)");
    println!("{:>7} {:>10} {:>12}", "node", "MTr/mm2", "capacity");
    for node in
        [Node::N90, Node::N65, Node::N45, Node::N32, Node::N28, Node::N20, Node::N14, Node::N10]
    {
        println!(
            "{:>7} {:>10.2} {:>11.0}M",
            node.to_string(),
            node.spec().density_mtr_per_mm2,
            node.integration_capacity()
        );
    }
    let growth = Node::N10.integration_capacity() / Node::N90.integration_capacity();
    println!("measured: {growth:.0}x  (paper: \"two orders of magnitude\")");
    Ok(())
}

/// C2 — functionality-enhanced devices favour XOR-rich logic.
fn c2() -> CliResult {
    header("c2", "controlled-polarity SiNW/CNT devices need new logic abstractions (De Micheli)");
    let designs: Vec<(&str, Netlist)> = vec![
        ("parity16", generate::parity_tree(16)?),
        ("adder8", generate::ripple_carry_adder(8)?),
        ("comparator8", generate::equality_comparator(8)?),
        (
            "random",
            generate::random_logic(generate::RandomLogicConfig {
                gates: 300,
                seed: 2,
                ..Default::default()
            })?,
        ),
    ];
    println!("{:>12} {:>12} {:>14} {:>8}", "design", "CMOS um2", "polarity um2", "gain");
    let opts = SynthesisOptions::default();
    for (name, d) in &designs {
        let cmos = synthesize(d, Library::generic(), SynthesisEffort::Advanced2016, &opts)?;
        let pol = synthesize(
            d,
            Library::controlled_polarity(),
            SynthesisEffort::Advanced2016,
            &opts,
        )?;
        println!(
            "{:>12} {:>12.1} {:>14.1} {:>7.1}%",
            name,
            cmos.area_um2,
            pol.area_um2,
            100.0 * (1.0 - pol.area_um2 / cmos.area_um2)
        );
    }
    println!("shape: XOR-rich functions gain most on polarity devices");
    Ok(())
}

/// C3 — a decade of synthesis: ~30% area (and perf, power) improvement.
fn c3() -> CliResult {
    header("c3", "advanced RTL synthesis improved area ~30% in ten years (Domic)");
    let designs: Vec<(&str, Netlist)> = vec![
        ("adder16", generate::ripple_carry_adder(16)?),
        ("mult4", generate::array_multiplier(4)?),
        ("parity32", generate::parity_tree(32)?),
        (
            "rand500",
            generate::random_logic(generate::RandomLogicConfig {
                gates: 500,
                seed: 7,
                ..Default::default()
            })?,
        ),
        ("fabric", generate::switch_fabric(4, 4)?),
    ];
    println!(
        "{:>9} {:>11} {:>11} {:>7} {:>9} {:>9} {:>7}",
        "design", "2006 um2", "2016 um2", "area", "2006 ps", "2016 ps", "perf"
    );
    let (mut a06, mut a16, mut p06, mut p16, mut w06, mut w16) = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    let opts = SynthesisOptions::default();
    for (name, d) in &designs {
        let base = synthesize(
            d,
            Library::nand_inv_2006(),
            SynthesisEffort::Baseline2006,
            &opts,
        )?;
        let adv = synthesize(d, Library::generic(), SynthesisEffort::Advanced2016, &opts)?;
        let tb = TimingAnalysis::run(&base.netlist, &TimingConfig::default())?;
        let ta = TimingAnalysis::run(&adv.netlist, &TimingConfig::default())?;
        let act = ActivityConfig::default();
        let pb = analyze(
            &base.netlist,
            &Activity::estimate(&base.netlist, &act)?,
            &PowerConfig::default(),
        );
        let pa = analyze(
            &adv.netlist,
            &Activity::estimate(&adv.netlist, &act)?,
            &PowerConfig::default(),
        );
        println!(
            "{:>9} {:>11.0} {:>11.0} {:>6.1}% {:>9.0} {:>9.0} {:>6.1}%",
            name,
            base.area_um2,
            adv.area_um2,
            100.0 * (1.0 - adv.area_um2 / base.area_um2),
            tb.critical_path_ps,
            ta.critical_path_ps,
            100.0 * (1.0 - ta.critical_path_ps / tb.critical_path_ps),
        );
        a06 += base.area_um2;
        a16 += adv.area_um2;
        p06 += tb.critical_path_ps;
        p16 += ta.critical_path_ps;
        w06 += pb.total_mw();
        w16 += pa.total_mw();
    }
    println!(
        "suite: area -{:.1}%, delay -{:.1}%, power -{:.1}%   (paper: ~30% each)",
        100.0 * (1.0 - a16 / a06),
        100.0 * (1.0 - p16 / p06),
        100.0 * (1.0 - w16 / w06)
    );
    Ok(())
}

/// C4 — the multi-patterning ladder.
fn c4() -> CliResult {
    header(
        "c4",
        "80nm single-exposure pitch floor; double/triple/quad from 20nm; octuple at 5nm (Domic)",
    );
    println!("{:>7} {:>10} {:>15} {:>15}", "node", "pitch nm", "model masks", "measured masks");
    for node in [Node::N28, Node::N22, Node::N20, Node::N14, Node::N10, Node::N7, Node::N5] {
        let plan = PatterningPlan::for_node(node);
        // Empirical: colour a dense line array at the node pitch.
        let layout = Layout::line_array(14, node.spec().metal_pitch_nm, 3000.0);
        let measured = required_masks(&layout, eda_tech::SINGLE_EXPOSURE_PITCH_NM);
        println!(
            "{:>7} {:>10.0} {:>6} ({:>8}) {:>13}",
            node.to_string(),
            node.spec().metal_pitch_nm,
            plan.total_exposures(),
            plan.scheme().to_string(),
            measured
        );
    }
    println!("shape: measured line-mask count matches the model's line-multiplicity term");
    Ok(())
}

/// C5 — routers: line search vs maze, and the 6->4 layer cost lever.
fn c5() -> CliResult {
    header(
        "c5",
        "line-search routers win under simpler rules; 6->4 layers slashes 15-20% cost (Domic)",
    );
    let d = generate::random_logic(generate::RandomLogicConfig {
        gates: 500,
        seed: 9,
        ..Default::default()
    })?;
    let die = Die::for_netlist(&d, 0.7);
    let placement = place_global(&d, die, &GlobalConfig::default());
    println!(
        "{:>11} {:>10} {:>8} {:>10} {:>10} {:>9}",
        "algorithm", "wl", "vias", "overflow", "expanded", "sec"
    );
    for alg in [RouteAlgorithm::LeeBfs, RouteAlgorithm::AStar, RouteAlgorithm::LineSearch] {
        let out = route(
            &d,
            &placement,
            &RouteConfig { algorithm: alg, grid_cells: 48, ..Default::default() },
        );
        println!(
            "{:>11} {:>10} {:>8} {:>10} {:>10} {:>9.3}",
            format!("{alg:?}"),
            out.wirelength,
            out.vias,
            out.overflow,
            out.cells_expanded,
            out.seconds
        );
    }
    // Layer reduction: a lighter A&M/S-class digital block at 130nm. The
    // question is which router still closes as layers come off.
    let amsd = generate::random_logic(generate::RandomLogicConfig {
        gates: 250,
        seed: 4,
        ..Default::default()
    })?;
    let ams_die = Die::for_netlist(&amsd, 0.7);
    let ams_place = place_global(&amsd, ams_die, &GlobalConfig::default());
    println!("\nlayer sweep (baseline vs negotiated) with the 130nm cost model:");
    let m = CostModel::new(Node::N130);
    println!(
        "{:>7} {:>14} {:>14} {:>13} {:>9}",
        "layers", "Lee overflow", "A* overflow", "wafer cost $", "vs 6L"
    );
    let mut min_clean = None;
    for layers in [6u32, 5, 4, 3] {
        let with = |algorithm| {
            let deck = RuleDeck::simple(layers);
            route(&amsd, &ams_place, &RouteConfig { algorithm, deck, ..Default::default() })
        };
        let (lee, adv) = (with(RouteAlgorithm::LeeBfs), with(RouteAlgorithm::AStar));
        if adv.overflow == 0 {
            min_clean = Some(layers);
        }
        let cost = m.wafer_cost_with_layers(layers);
        println!(
            "{:>7} {:>14} {:>14} {:>13.0} {:>8.1}%",
            layers,
            lee.overflow,
            adv.overflow,
            cost,
            100.0 * (1.0 - cost / m.wafer_cost_with_layers(6))
        );
    }
    match min_clean {
        Some(l) if l <= 4 => println!(
            "measured: the negotiated router closes at {l} layers ({:.1}% cheaper than 6L)",
            100.0 * (1.0 - m.wafer_cost_with_layers(l) / m.wafer_cost_with_layers(6))
        ),
        _ => println!("measured: this block needs more than 4 layers at this utilization"),
    }
    Ok(())
}

/// C6 — power: the static crossover and design-for-power vs dark silicon.
fn c6() -> CliResult {
    header(
        "c6",
        "voltage scaling from 130nm; static overtakes dynamic at 90/65; techniques prevent dark silicon (Domic)",
    );
    let d = generate::switch_fabric(4, 4)?;
    let act = Activity::estimate(&d, &ActivityConfig::default())?;
    println!("{:>7} {:>12} {:>12} {:>10}", "node", "dynamic mW", "static mW", "static %");
    for row in node_power_sweep(&d, &act, 200.0) {
        println!(
            "{:>7} {:>12.3} {:>12.3} {:>9.1}%",
            row.node.to_string(),
            row.dynamic_mw,
            row.leakage_mw,
            100.0 * row.leakage_mw / (row.dynamic_mw + row.leakage_mw)
        );
    }
    println!("\ndark silicon (80mm2 die, 3W budget, 500MHz):");
    println!("{:>7} {:>12} {:>16}", "node", "naive usable", "with techniques");
    for row in dark_silicon_sweep(80.0, 3.0, 500.0) {
        println!(
            "{:>7} {:>11.0}% {:>15.0}%",
            row.node.to_string(),
            100.0 * row.usable_naive,
            100.0 * row.usable_with_techniques
        );
    }
    Ok(())
}

/// C7 — flat vs hierarchical implementation: buffering.
fn c7() -> CliResult {
    header("c7", "flat implementation saves area & power through less buffering (Domic)");
    let d = generate::hierarchical_design(4, 150, 11)?;
    let die = Die::for_netlist(&d, 0.5);
    let hier = place_hierarchical(&d, die, 3);
    let mut flat = hier.placement.clone();
    anneal(&d, &mut flat, &AnnealConfig::default(), None, None);
    let max_len = die.width_um / 4.0;
    let flat_plan = plan_buffers(&d, &flat, max_len, &[]);
    let forced: Vec<(usize, u32)> = hier.crossing_nets.iter().map(|&i| (i, 2)).collect();
    let hier_plan = plan_buffers(&d, &hier.placement, max_len, &forced);
    println!("{:>14} {:>10} {:>12} {:>12}", "flow", "buffers", "buf um2", "leak nW");
    println!(
        "{:>14} {:>10} {:>12.1} {:>12.1}",
        "hierarchical", hier_plan.total, hier_plan.added_area_um2, hier_plan.added_leakage_nw
    );
    println!(
        "{:>14} {:>10} {:>12.1} {:>12.1}",
        "flat", flat_plan.total, flat_plan.added_area_um2, flat_plan.added_leakage_nw
    );
    println!(
        "measured: flat saves {:.0}% of buffers ({} boundary-crossing nets)",
        100.0 * (1.0 - flat_plan.total as f64 / hier_plan.total.max(1) as f64),
        hier.crossing_nets.len()
    );
    Ok(())
}

/// C8 — design-start distribution.
fn c8() -> CliResult {
    header("c8", ">90% of design starts at 32/28nm and above; 180nm >25% (Domic)");
    let m = DesignStartModel::year_2016();
    println!("{:>7} {:>9}", "node", "share");
    for &(node, share) in m.rows() {
        println!("{:>7} {:>8.1}%", node.to_string(), share * 100.0);
    }
    println!(
        "at/above 32/28nm: {:.0}%   most designed: {} ({:.0}%)",
        100.0 * m.share_at_or_above(Node::N28),
        m.most_designed(),
        100.0 * m.share(m.most_designed())
    );
    Ok(())
}

/// C9 — multicore P&R throughput.
fn c9() -> CliResult {
    header("c9", "P&R throughput ~1M instances/day on multicore farms (Rossi)");
    // Scale-tier mesh, not the old 3k-gate random design: per-stripe refine
    // passes at this size run well past the 1 µs clock floor, so the
    // projected speedups are measurement, not noise.
    let d = generate::scale_mesh(20_000, 5)?;
    let die = Die::for_netlist(&d, 0.7);
    println!("design: {} instances", d.num_instances());
    println!(
        "{:>8} {:>12} {:>14} {:>16} {:>10}",
        "threads", "core-sec", "inst/sec", "inst/day", "hpwl"
    );
    // Projected timing: the placer measures each worker's busy time and
    // takes the per-dispatch maximum, i.e. the wall clock a real multicore
    // farm would see (this host may have fewer cores than workers). The
    // stripe partition is fixed at 8, so the placement itself is identical
    // on every row — only the worker count changes.
    let refined = (d.num_instances() * 2) as f64;
    let mut t1 = 0.0;
    for threads in [1usize, 2, 4, 8] {
        let out = place_parallel(
            &d,
            die,
            &ParallelConfig { threads, stripes: 8, moves_per_cell: 20, passes: 2, seed: 3 },
        );
        let proj = out.par_stats.projected_wall_s();
        if threads == 1 {
            t1 = proj;
        }
        let ips = out.projected_instances_per_second(refined);
        println!(
            "{:>8} {:>12.2} {:>14.0} {:>16.2e} {:>10.0}  (speedup {:.2}x)",
            threads,
            proj,
            ips,
            ips * 86_400.0,
            out.hpwl_final,
            t1 / proj
        );
    }
    println!("shape: throughput scales with cores; absolute numbers reflect the simulator substrate");
    Ok(())
}

/// C10 — scan-chain reordering during implementation.
fn c10() -> CliResult {
    header("c10", "scan reordering during implementation relieves congestion/wirelength (Rossi)");
    println!(
        "{:>10} {:>12} {:>12} {:>8} {:>12}",
        "design", "fe-order um", "reorder um", "gain", "peak demand"
    );
    for (name, d) in [
        ("fabric8", generate::switch_fabric(8, 4)?),
        (
            "rand",
            generate::random_logic(generate::RandomLogicConfig {
                gates: 600,
                flop_fraction: 0.25,
                seed: 8,
                ..Default::default()
            })?,
        ),
    ] {
        let s = insert_scan(&d, 2)?;
        let die = Die::for_netlist(&s.netlist, 0.7);
        let p = place_global(&s.netlist, die, &GlobalConfig::default());
        let before = scan_wirelength(&s.chains, &p);
        let reordered = reorder_chains(&s.chains, &p);
        let after = scan_wirelength(&reordered, &p);
        let cong = CongestionMap::build(&s.netlist, &p, 8, 1e9);
        println!(
            "{:>10} {:>12.0} {:>12.0} {:>7.0}% {:>12.0}",
            name,
            before,
            after,
            100.0 * (1.0 - after / before),
            cong.max_demand()
        );
    }
    Ok(())
}

/// C11 — the self-learning implementation engine.
fn c11() -> CliResult {
    header("c11", "a built-in self-learning engine exploiting previous runs (Rossi)");
    let d = generate::random_logic(generate::RandomLogicConfig {
        gates: 300,
        seed: 21,
        ..Default::default()
    })?;
    let mut base_cfg = with_cache(FlowConfig::advanced_2016(Node::N28));
    base_cfg.threads = threads();
    let mut tuner = FlowTuner::new(7);
    println!("{:>5} {:>10} {:>12} {:>12}", "run", "arm", "score", "best-so-far");
    let mut best = f64::INFINITY;
    for run in 0..10 {
        let i = tuner.suggest();
        let arm: Arm = tuner.arms()[i].clone();
        let cfg = arm.apply(&base_cfg);
        let report = run_flow(&d, &cfg)?;
        let score = report.score();
        tuner.record(i, score);
        best = best.min(score);
        println!("{:>5} {:>10} {:>12.1} {:>12.1}", run + 1, arm.name, score, best);
    }
    let learned = &tuner.arms()[tuner.best_arm()];
    println!("learned arm: `{}` — subsequent runs start from the best-known recipe", learned.name);
    Ok(())
}

/// C12 — networking activity, hot spots, automatic decap.
fn c12() -> CliResult {
    header(
        "c12",
        "networking ASICs at >5x switching activity need automatic hot-spot/decap handling (Rossi)",
    );
    let d = generate::switch_fabric(8, 4)?;
    let die = Die::for_netlist(&d, 0.7);
    let p = place_global(&d, die, &GlobalConfig::default());
    let base = Activity::estimate(&d, &ActivityConfig::default())?;
    let pcfg = PowerConfig { node: Node::N28, freq_mhz: 1000.0, ..Default::default() };
    let limit = {
        let g1 = PowerGrid::build(&d, &p, &base, &pcfg, 8);
        g1.peak_droop(Node::N28) * 1.2
    };
    println!("{:>10} {:>12} {:>10} {:>9} {:>8}", "activity", "power mW", "hotspots", "decaps", "after");
    for factor in [1.0, 3.0, 5.0, 8.0] {
        let act = base.scaled(factor);
        let power = analyze(&d, &act, &pcfg);
        let mut grid = PowerGrid::build(&d, &p, &act, &pcfg, 8);
        let before = grid.hotspots(Node::N28, limit).len();
        // Only the counts are printed, so the plan is never applied.
        let plan = plan_decaps(d.library(), &mut grid, Node::N28, limit)?;
        println!(
            "{:>9.0}x {:>12.2} {:>10} {:>9} {:>8}",
            factor,
            power.total_mw(),
            before,
            plan.decaps(),
            plan.hotspots_after
        );
    }
    Ok(())
}

/// C13 — holistic co-design vs sequential ad-hoc.
fn c13() -> CliResult {
    header("c13", "holistic smart-system co-design beats separate ad-hoc flows (Macii)");
    let seq = sequential_flow();
    let co = codesign_flow();
    println!(
        "{:>12} {:>10} {:>10} {:>12} {:>10} {:>8}",
        "flow", "$ / unit", "mm2", "battery d", "TTM wks", "score"
    );
    for (name, f) in [("sequential", seq), ("codesign", co)] {
        println!(
            "{:>12} {:>10.2} {:>10.0} {:>12.0} {:>10.0} {:>8.1}",
            name,
            f.metrics.unit_cost_usd,
            f.metrics.footprint_mm2,
            f.metrics.battery_life_days,
            f.metrics.time_to_market_weeks,
            f.metrics.score()
        );
    }
    Ok(())
}

/// C14 — test compression retargeted at low-pin-count test.
fn c14() -> CliResult {
    header(
        "c14",
        "high-compression DFT retargets to low-pin-count test -> cheaper packages (Sawicki)",
    );
    let d = generate::switch_fabric(4, 4)?;
    let view = CombView::new(&d)?;
    let faults = fault_list(&d);
    let flops = d.flops().len();
    println!("{:>6} {:>8} {:>11} {:>12} {:>12}", "pins", "chains", "coverage", "test ms", "ratio");
    for (pins, chains) in [(16usize, 16usize), (8, 16), (4, 16), (2, 16), (2, 32)] {
        let access = TestAccess { scan_pins: pins, internal_chains: chains, flops, shift_mhz: 50.0 };
        let out = compressed_fault_sim(&d, &view, &faults, &access, 256, 5);
        println!(
            "{:>6} {:>8} {:>10.1}% {:>12.3} {:>11.1}x",
            pins,
            chains,
            100.0 * out.coverage,
            1e3 * out.test_time_s,
            access.compression_ratio()
        );
    }
    let bypass = bypass_fault_sim(
        &d,
        &view,
        &faults,
        &TestAccess { scan_pins: 2, internal_chains: 2, flops, shift_mhz: 50.0 },
        256,
        5,
    );
    println!(
        "bypass (2 pins, no compression): coverage {:.1}%, test {:.3} ms",
        100.0 * bypass.coverage,
        1e3 * bypass.test_time_s
    );
    let atpg = run_atpg(&d, &view, &faults, &AtpgConfig::default());
    println!(
        "ATPG reference coverage: {:.1}% with {} patterns",
        100.0 * atpg.coverage,
        atpg.patterns.len()
    );
    Ok(())
}

/// C15 — computational lithography: OPC vs feature size.
fn c15() -> CliResult {
    header("c15", "computational lithography (OPC) enables scaling without EUV (Sawicki)");
    let model = OpticalModel::default();
    println!("{:>10} {:>12} {:>12} {:>12}", "pitch nm", "no-OPC EPE", "OPC EPE", "iterations");
    for pitch in [160.0, 120.0, 100.0, 90.0, 80.0, 64.0] {
        let lines = 8;
        let offset = 300.0;
        let target: Vec<(f64, f64)> = (0..lines)
            .map(|i| {
                let x = offset + i as f64 * pitch;
                (x, x + pitch / 2.0)
            })
            .collect();
        let extent = offset * 2.0 + pitch * lines as f64;
        let cfg = OpcConfig::default();
        let out = run_opc(&model, &target, extent, &cfg);
        println!(
            "{:>10.0} {:>12.2} {:>12.2} {:>12}",
            pitch,
            out.rms_epe_history[0],
            out.final_rms_epe(),
            cfg.iterations
        );
    }
    println!("shape: OPC recovers EPE down to the single-exposure pitch, then multi-patterning must take over (C4)");
    println!(
        "grating contrast: 120nm {:.2}, 80nm {:.2}, 50nm {:.2}",
        model.grating_contrast(120.0),
        model.grating_contrast(80.0),
        model.grating_contrast(50.0)
    );
    Ok(())
}

/// C16 — IoT node selection and energy autonomy.
fn c16() -> CliResult {
    header(
        "c16",
        "IoT leverages established-node variants; energy autonomy is the constraint (Sawicki)",
    );
    let duty = DutyCycle::new(0.01, 0.002);
    println!("{:>7} {:>10} {:>12} {:>8} {:>9}", "node", "MCU $", "battery d", "perf", "merit");
    let points = node_selection_sweep(&duty, 800.0, 0.0);
    for p in &points {
        println!(
            "{:>7} {:>10.2} {:>12.0} {:>8.1} {:>9.1}",
            p.node.to_string(),
            p.mcu_cost_usd,
            p.battery_life_days,
            p.performance,
            p.merit
        );
    }
    let best = best_iot_node(&points);
    println!("best IoT merit: {best} (established: {})", best.is_established());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::parse_indexed_injects;

    #[test]
    fn inject_index_is_the_wire_id_the_rows_print() {
        let parsed = parse_indexed_injects("1:route=fail@1; 4:litho=timeout", 4).ok();
        let want = vec![(1, "route=fail@1".to_string()), (4, "litho=timeout".to_string())];
        assert_eq!(parsed, Some(want));
        for (spec, msg) in [
            ("0:route=fail@1", "inject index 0 out of range (batch of 4)"),
            ("5:route=fail@1", "inject index 5 out of range (batch of 4)"),
        ] {
            assert_eq!(parse_indexed_injects(spec, 4).err().map(|e| e.0).as_deref(), Some(msg));
        }
    }
}
