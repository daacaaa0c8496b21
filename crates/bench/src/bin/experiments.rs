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

use eda_bench::{claims, Table};
use eda_core::{
    run_flow, Daemon, DaemonClient, DaemonConfig, DesignSpec, Endpoint, FaultPlan, FlowConfig,
    FlowStore, QorQuery, QorRow, QuerySpec, RejectReason, RetryPolicy, SpanKind, StageRow,
    StoreConfig, SubmitSpec, Terminal, TransportFaultPlan,
};
use eda_netlist::generate;
use eda_tech::Node;

use std::path::PathBuf;
use std::time::Instant;

/// A CLI failure: a message for stderr, built from any underlying error.
struct CliError(String);

impl<E: std::error::Error> From<E> for CliError {
    fn from(e: E) -> Self {
        CliError(e.to_string())
    }
}

type CliResult = Result<(), CliError>;

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

/// One typed option set shared by every subcommand. `parse_args` starts
/// from [`Options::default`] with `--last 10`, `--queue 8` and `--count 4`.
#[derive(Debug, Default)]
struct Options {
    /// `--threads N`: global budget for every parallel kernel. `0` = all
    /// cores.
    threads: usize,
    /// `--store PATH`: the persistent flow store file (stage cache and QoR
    /// provenance, DESIGN.md §14).
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
                       stages and an unmeetable-clock edit replays its
                       7_route stage, both with bit-identical QoR
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
    --store PATH       persistent flow store file: stage cache and QoR
                       provenance (DESIGN.md section 14)
    --store-max-bytes N
                       store size bound in bytes; LRU compaction keeps the
                       file under it (default 0 = 64 MiB)
    --design NAME      query: only rows for this design (its name, or for
                       QoR rows its 16-hex content digest)
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
    let mut opts = Options { last: 10, queue: 8, count: 4, ..Options::default() };
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
    Some(if opts.store_max_bytes > 0 { base.with_max_bytes(opts.store_max_bytes) } else { base })
}

fn run() -> CliResult {
    let (cmd, opts) = parse_args()?;
    match cmd {
        Command::Incremental => incremental_demo(&opts),
        Command::Query => query_demo(&opts),
        Command::Trace => {
            let missing = "trace needs an output path (try `experiments trace flow.trace.json`)";
            let path = opts.trace_out.as_deref().ok_or(CliError(missing.into()))?;
            trace_demo(path, opts.threads, opts.inject.as_deref(), store_config(&opts))
        }
        Command::Daemon => daemon_demo(&opts),
        Command::Run => {
            if let Some(spec) = &opts.inject {
                return inject_demo(spec, opts.threads);
            }
            run_claims(&opts.claims, opts.threads, store_config(&opts).as_ref())
        }
    }
}

/// `run [CLAIMS...]`: regenerate the selected claims (all by default), one
/// after another in claim order, and print each with its shape verdict.
/// Fails if a claim's kernel errs or any claim's shape fails.
fn run_claims(ids: &[String], threads: usize, store: Option<&StoreConfig>) -> CliResult {
    if let Some(id) = ids.iter().find(|id| !claims::IDS.contains(&id.as_str())) {
        return Err(CliError(format!("unknown claim `{id}` (known: {})", claims::IDS.join(" "))));
    }
    let mut failed = Vec::new();
    for id in claims::IDS.into_iter().filter(|id| ids.is_empty() || ids.iter().any(|a| a == id)) {
        let claim = claims::run(id, threads, store).map_err(|e| CliError(format!("claim {id}: {e}")))?;
        println!("{claim}");
        if claim.shape.is_err() {
            failed.push(id);
        }
    }
    if !failed.is_empty() {
        return Err(CliError(format!("shape failed: {}", failed.join(" "))));
    }
    Ok(())
}

/// `incremental`: cold + warm + edited smoke flow against the flow store.
///
/// Runs the smoke flow twice against `--store` (or a fresh temp store),
/// prints both wall clocks, the fraction of stages replayed from the store,
/// and the QoR comparison; then re-runs at a clock the design cannot meet —
/// `6_sta` and `9_power` miss (their bodies read the clock), but the
/// netlist and the placement `7_route` reads did not move, so its stage
/// entry must replay. Fails unless the warm run skipped at least 8 of the 11
/// stages, the edited run replayed `7_route`, and its QoR matches an
/// uncached reference, bit-identically. Unreadable (poisoned) entries are recomputed and
/// counted, never fatal, so a partially damaged store still passes as long
/// as enough stages replay.
/// A clock `incremental`'s smoke design cannot meet.
const UNMEETABLE_MHZ: f64 = 50_000.0;

fn incremental_demo(opts: &Options) -> CliResult {
    let sc = store_config(opts).unwrap_or_else(|| {
        StoreConfig::at(
            std::env::temp_dir()
                .join(format!("eda_incremental_{}", std::process::id()))
                .join("flow.store"),
        )
    });
    let design = generate::switch_fabric(3, 3)?;
    let cfg = FlowConfig { threads: opts.threads, store: Some(sc.clone()), ..FlowConfig::advanced_2016(Node::N10) };
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

    // Edit-replay: a clock no smoke design meets (their critical paths are
    // 40-80 ps). `6_sta` and `9_power` miss, `7_route` replays. QoR is
    // judged against an uncached run of the edited config.
    let mut edited = cfg.clone();
    edited.clock_mhz = UNMEETABLE_MHZ;
    let t = Instant::now();
    let edit =
        run_flow(&design, &edited).map_err(|e| CliError(format!("edited run failed: {e}")))?;
    let edit_s = t.elapsed().as_secs_f64();
    let mut uncached = edited.clone();
    uncached.store = None;
    let reference = run_flow(&design, &uncached)
        .map_err(|e| CliError(format!("uncached reference run failed: {e}")))?;
    let route_hit = edit.telemetry.spans.iter().any(|s| {
        s.kind == SpanKind::Stage && s.name == "7_route" && s.tags.get("cache").is_some_and(|t| t == "hit")
    });
    let edit_hits = counter(&edit, "cache.hits");
    let edit_same = reference.same_qor(&edit);
    println!(
        "edit run: {edit_s:>8.3}s  (unmeetable clock: {edit_hits} stage hits, \
         7_route replayed: {route_hit}, QoR vs uncached: {edit_same})"
    );

    // Machine-readable rows for scripts/check.sh. The `cold_*` rows
    // describe the first run of THIS invocation — against
    // a pre-filled store it hits too, and against a damaged one it reports
    // the unreadable entries it recomputed.
    println!("INCRLINE cold_s {cold_s:.6}");
    println!("INCRLINE cold_hits {}", counter(&cold, "cache.hits"));
    println!("INCRLINE cold_errors {}", counter(&cold, "cache.errors"));
    println!("INCRLINE warm_s {warm_s:.6}");
    println!("INCRLINE warm_body_parses {}", counter(&warm, "cache.body_parses"));
    println!("INCRLINE stages_total {total}");
    println!("INCRLINE stages_skipped {hits}");
    println!("INCRLINE cache_errors {errors}");
    println!("INCRLINE same_qor {}", same as u32);
    println!("INCRLINE edit_s {edit_s:.6}");
    println!("INCRLINE edit_stage_hits {edit_hits}");
    println!("INCRLINE edit_route_hit {}", route_hit as u32);
    println!("INCRLINE edit_same_qor {}", edit_same as u32);
    if hits < 8 {
        return Err(CliError(format!(
            "warm run replayed only {hits}/{total} stages (expected >= 8)"
        )));
    }
    if !same {
        return Err(CliError("warm QoR diverged from the cold run".into()));
    }
    if !route_hit {
        return Err(CliError("edited run recomputed 7_route, whose reads it left alone".into()));
    }
    if !edit_same {
        return Err(CliError("edited QoR diverged from the uncached reference".into()));
    }
    println!(
        "incremental: warm run skipped {hits}/{total} stages, \
         edit replayed 7_route, QoR identical"
    );
    Ok(())
}

/// `query`: the provenance read side — QoR history (or, with `--stage`,
/// per-stage history) straight out of the flow store, newest first.
///
/// Prints a human table plus stable machine-readable rows:
///
/// * `QUERYLINE qor <seq> <design> <node> <cfg_fp> <qor_fp> <wns_ps>
///   <overflow> <hpwl_um> <wall_s> <peak_rss_bytes> <digest>` (with
///   `--metric all`; `digest` is the design's content digest, `-` on rows
///   written before rows carried it, and `--design` matches it as well as
///   the name),
/// * `QUERYLINE <metric> <seq> <design> <value>` for a single metric,
/// * `QUERYLINE stage <seq> <design> <stage> <attempts> <wall_s> <outcome>`
///   with `--stage`,
/// * a trailing `QUERYLINE rows <n>` count either way.
fn query_demo(opts: &Options) -> CliResult {
    let sc = store_config(opts).ok_or(CliError("query needs --store PATH".into()))?;
    let store = FlowStore::open(&sc).map_err(|e| CliError(format!("cannot open store: {e}")))?;
    let q = QorQuery { design: opts.design.clone(), stage: opts.stage.clone(), last: opts.last };

    if opts.stage.is_some() {
        let rows: Vec<StageRow> = store.stage_history(&q)?;
        let mut t = Table::new(&["seq", "design", "stage", "attempts", "wall_s", "outcome"]);
        for row in &rows {
            let (seq, attempts, wall) = (row.seq.to_string(), row.attempts.to_string(), format!("{:.3}", row.wall_s));
            t.row([seq, row.design.clone(), row.stage.clone(), attempts, wall, row.outcome.to_string()]);
        }
        print!("{t}");
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
    let mut t = Table::new(&["seq", "design", "node", "wns_ps", "ovfl", "hpwl_um", "wall_s", "rss_mb"]);
    for row in rows {
        let rss_mb = row.peak_rss_bytes as f64 / (1024.0 * 1024.0);
        let ids = [row.seq.to_string(), row.design.clone(), row.node.clone(), format!("{:.1}", row.wns_ps)];
        let values = [row.overflow.to_string(), format!("{:.1}", row.hpwl_um), format!("{:.3}", row.wall_s), format!("{rss_mb:.1}")];
        t.row(ids.into_iter().chain(values));
    }
    print!("{t}");
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
            let digest = row.design_digest.map_or("-".to_string(), |d| format!("{d:016x}"));
            println!(
                "QUERYLINE qor {} {} {} {:016x} {:016x} {:.3} {} {:.3} {:.6} {} {digest}",
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
    let mut t = Table::new(&["req", "design", "lat_s", "outcome"]);
    for (spec, out) in specs.iter().zip(&outcomes) {
        accepted += u64::from(out.accepted);
        let text = match &out.terminal {
            Terminal::Done { ok: true, qor_fp, stages, .. } => {
                completed += 1;
                latencies.push(out.latency_s);
                format!("ok, {stages} stages, qor_fp {}", qor_fp.map_or("?".to_string(), |fp| format!("{fp:016x}")))
            }
            Terminal::Done { ok: false, error, stages, .. } => {
                failed += 1;
                format!("failed after {stages} stage(s): {}", error.as_deref().unwrap_or("unknown"))
            }
            Terminal::Rejected { reason, detail } => {
                rejected += 1;
                rejected_full += u64::from(*reason == RejectReason::QueueFull);
                format!("rejected ({reason}): {detail}")
            }
        };
        t.row([spec.id.to_string(), spec.design.clone(), format!("{:.3}", out.latency_s), text]);
    }
    print!("{t}");

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
    let cfg = FlowConfig { threads: threads_arg, fault_plan: Some(plan), ..FlowConfig::advanced_2016(Node::N10) };
    let report = run_flow(&design, &cfg)
        .map_err(|e| CliError(format!("supervised flow did not survive the plan: {e}")))?;
    let mut t = Table::new(&["stage", "attempts", "outcome"]);
    for (stage, status) in &report.stage_status {
        t.row([stage.to_string(), status.attempts.to_string(), status.outcome.to_string()]);
    }
    print!("{t}");
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
fn trace_demo(path: &str, threads: usize, inject: Option<&str>, store: Option<StoreConfig>) -> CliResult {
    let design = generate::switch_fabric(3, 3)?;
    let mut cfg = FlowConfig { threads, store, ..FlowConfig::advanced_2016(Node::N10) };
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
