//! The repo's wall-clock benchmark. One command runs one workload:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload mesh_t1 --seed 1 --seconds 46 --trace 0
//! ```
//!
//! It builds the inputs from `--seed`, runs set-up and a fixed number of
//! ops, checks every op's output, prints every metric by name and unit, and
//! ends with one JSON line (`correct`, `attempted`, `failed`, `metrics`).
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is the separate
//! traced run that reports the per-layer metrics and writes a Chrome trace
//! plus a layer table. See README.md for the why of every choice.

mod flowop;
mod host;
mod metrics;
mod trace;
mod workloads;

use metrics::{median, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Ctx, Outcome};

const USAGE: &str = "usage: eda-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--selfcheck]
       eda-benchmark --list
  --workload   mesh_t1 | flowd_pairs, or the ungated (too noisy to gate) replay20k | mesh_t2
  --seed       workload seed: the flow seed of every request (default 1)
  --seconds    sets the fixed op count: seconds / nominal op wall (default: run_seconds of BENCHMARK.json)
  --trace      0 = end-to-end metrics (default); 1 = traced run, per-layer metrics
  --quick      one op on small inputs: a smoke test of the harness, not a measurement
  --selfcheck  run the workload twice back to back and compare the end-to-end metrics against their bounds
  --list       print the workloads and metric names as one JSON line";

/// `run_seconds` of BENCHMARK.json, the default for `--seconds`.
const DEFAULT_SECONDS: f64 = 46.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    selfcheck: bool,
}

enum Parsed {
    Run(Args),
    List,
}

fn parse_args(argv: &[String]) -> Result<Parsed, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        selfcheck: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed wants a whole number".to_string())?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds wants a number".to_string())?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got `{other}`")),
                }
            }
            "--quick" => args.quick = true,
            "--selfcheck" => args.selfcheck = true,
            "--list" => return Ok(Parsed::List),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.iter().any(|w| w.name == args.workload) {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {}", known.join(", ")));
    }
    Ok(Parsed::Run(args))
}

/// Where traces and per-run scratch go: under the cargo target directory,
/// which the root `.gitignore` already covers. Relative on purpose — the
/// daemon's Unix socket path must stay under the ~100-byte `sun_path` limit
/// however deep the checkout sits.
fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("benchmark")
}

/// The per-run scratch directory, removed on drop.
struct RunDir(PathBuf);

impl RunDir {
    fn create(parent: &Path) -> std::io::Result<RunDir> {
        let dir = parent.join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn list_json() -> String {
    let defs = |defs: &'static [MetricDef], with_bound: bool| {
        let items: Vec<String> = defs
            .iter()
            .map(|m| {
                let bound = if with_bound {
                    format!(",\"bound\":{}", m.bound)
                } else {
                    String::new()
                };
                format!(
                    "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"{bound}}}",
                    m.name, m.unit, m.better
                )
            })
            .collect();
        format!("[{}]", items.join(","))
    };
    let workloads = |gated: bool| {
        let items: Vec<String> = WORKLOADS
            .iter()
            .filter(|w| w.gated == gated)
            .map(|w| format!("{{\"name\":\"{}\",\"why\":\"{}\"}}", w.name, w.why))
            .collect();
        items.join(",")
    };
    format!(
        "{{\"run_seconds\":{DEFAULT_SECONDS},\"workloads\":[{}],\"ungated_workloads\":[{}],\"end_to_end\":{},\"per_layer\":{}}}",
        workloads(true),
        workloads(false),
        defs(&END_TO_END, true),
        defs(&PER_LAYER, false)
    )
}

/// The run's result as the driver reads it: the last line of stdout.
fn result_json(correct: bool, out: &Outcome, values: &[(&MetricDef, f64)]) -> String {
    let mut metrics = String::new();
    for (i, (def, value)) in values.iter().enumerate() {
        if i > 0 {
            metrics.push(',');
        }
        let _ = write!(
            metrics,
            "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            def.name, def.unit
        );
    }
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        out.attempted, out.failed
    )
}

fn run(args: &Args) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let host = host::HostInfo::probe();
    let calib_before = host::calibrate();
    let out_dir = out_dir();
    let run_dir = RunDir::create(&out_dir)?;
    let ctx = Ctx {
        tracer: trace::Tracer::new(args.trace),
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        run_dir: run_dir.0.clone(),
    };
    let mut out = match args.workload.as_str() {
        "mesh_t1" => workloads::mesh::run(&ctx, 1)?,
        "mesh_t2" => workloads::mesh::run(&ctx, 2)?,
        "replay20k" => workloads::replay::run(&ctx)?,
        "flowd_pairs" => workloads::flowd::run(&ctx)?,
        other => unreachable!("parse_args admits only known workloads, got {other}"),
    };
    drop(run_dir);
    let calib_after = host::calibrate();
    let calib_ratio = calib_after / calib_before;

    println!(
        "workload {} seed {} seconds {} trace {} quick {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        u8::from(args.quick)
    );
    println!(
        "host nproc {} available_parallelism {} kernel {} cpu \"{}\" loadavg \"{}\"",
        host.nproc, host.available_parallelism, host.kernel, host.cpu_model, host.loadavg
    );
    println!(
        "host.calib before {calib_before:.4} s after {calib_after:.4} s ratio {calib_ratio:.3} (reported only, adjusts nothing)"
    );
    for (name, fp) in &out.fingerprints {
        println!("qor_fp {name} {fp:016x}");
    }
    for why in &out.failures {
        println!("FAILED {why}");
    }
    println!(
        "ops_attempted {} ops_failed {} samples {}",
        out.attempted,
        out.failed,
        out.op_walls.len()
    );
    let walls: Vec<String> = out.op_walls.iter().map(|s| format!("{s:.3}")).collect();
    println!("op_walls_s {}", walls.join(" "));

    let passed = out.attempted - out.failed;
    let values: Vec<(&MetricDef, f64)> = if args.trace {
        out.layers.add("host.calib_ratio", calib_ratio);
        let stem = format!("{}.seed{}", args.workload, args.seed);
        ctx.tracer.write(&out_dir, &stem)?;
        println!(
            "trace written to {}",
            out_dir.join(format!("{stem}.trace.json")).display()
        );
        print!("{}", ctx.tracer.layer_table_text());
        PER_LAYER
            .iter()
            .map(|def| (def, out.layers.value(def.name)))
            .collect()
    } else {
        let by_name = |name: &str| match name {
            "setup_s" => out.setup_s,
            "op_wall_s" => median(&out.op_walls),
            "ops_per_s" => passed as f64 / out.window_s,
            "peak_rss_mb" => host::peak_rss_mb(),
            other => unreachable!("END_TO_END names only the four metrics above, got {other}"),
        };
        END_TO_END
            .iter()
            .map(|def| (def, by_name(def.name)))
            .collect()
    };
    for (def, value) in &values {
        println!("{:<28} {:>16.6} {}", def.name, value, def.unit);
    }
    let correct = out.failed == 0 && out.failures.is_empty() && out.attempted > 0;
    println!("{}", result_json(correct, &out, &values));
    Ok(ExitCode::SUCCESS)
}

/// The metrics of a finished child run, parsed from its last stdout line.
fn child_metrics(stdout: &str) -> Result<Vec<(String, f64)>, String> {
    use eda::core::daemon::wire::{parse, Json};
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    let json = parse(line).map_err(|e| format!("child result: {e}"))?;
    if json.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err("child run was not correct".to_string());
    }
    match json.get("metrics") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(name, m)| {
                m.get("value")
                    .and_then(Json::as_f64)
                    .map(|v| (name.clone(), v))
                    .ok_or_else(|| format!("metric {name} has no value"))
            })
            .collect(),
        _ => Err("child result has no metrics".to_string()),
    }
}

/// `--selfcheck`: the A/A mode. Runs the workload twice, back to back, each
/// in a process of its own (peak RSS is per process), and prints how far
/// the two runs' end-to-end metrics sit apart next to each metric's bound.
fn selfcheck(args: &Args) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let exe = std::env::current_exe()?;
    let mut runs = Vec::new();
    for _ in 0..2 {
        let mut cmd = std::process::Command::new(&exe);
        let (seed, seconds) = (args.seed.to_string(), args.seconds.to_string());
        cmd.args([
            "--workload",
            &args.workload,
            "--seed",
            &seed,
            "--seconds",
            &seconds,
            "--trace",
            "0",
        ]);
        if args.quick {
            cmd.arg("--quick");
        }
        let output = cmd.output()?;
        if !output.status.success() {
            return Err(format!(
                "child run failed: {}",
                String::from_utf8_lossy(&output.stderr)
            )
            .into());
        }
        runs.push(child_metrics(&String::from_utf8_lossy(&output.stdout))?);
    }
    println!(
        "selfcheck {} seed {}: two runs of the same code",
        args.workload, args.seed
    );
    println!(
        "{:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "metric", "run 1", "run 2", "rel diff", "bound"
    );
    let mut within = true;
    for def in &END_TO_END {
        let find = |run: &[(String, f64)]| run.iter().find(|(n, _)| n == def.name).map(|(_, v)| *v);
        let (a, b) = (
            find(&runs[0]).ok_or("metric missing")?,
            find(&runs[1]).ok_or("metric missing")?,
        );
        let rel = (a - b).abs() / a.min(b);
        let ok = rel <= def.bound;
        within &= ok;
        println!(
            "{:<14} {:>14.6} {:>14.6} {:>8.2}% {:>6.0}%  {}",
            def.name,
            a,
            b,
            rel * 100.0,
            def.bound * 100.0,
            if ok { "within" } else { "OUTSIDE" }
        );
    }
    Ok(if within {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&argv) {
        Ok(Parsed::List) => {
            println!("{}", list_json());
            return ExitCode::SUCCESS;
        }
        Ok(Parsed::Run(args)) if args.selfcheck => selfcheck(&args),
        Ok(Parsed::Run(args)) => run(&args),
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("eda-benchmark: {e}");
        ExitCode::from(2)
    })
}
