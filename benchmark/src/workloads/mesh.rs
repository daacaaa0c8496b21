//! `mesh_t1` / `mesh_t2`: one scale-tier mesh through `run_flow`, no store.
//! The same design and config at `threads = 1` and `threads = 2`, so a
//! change to `eda-par` dispatch or to a threaded kernel moves `mesh_t2`
//! while `mesh_t1` stays put. Only `mesh_t1` is gated: at two threads
//! `eda-par` spawns OS threads per dispatch, and on the 2-vCPU sizing VM the
//! same op took anywhere from 11 s to 35 s (see README, known gaps).

use super::{setup_err, Ctx, Outcome, SetupError, MESH_GENERATOR_SEED};
use crate::flowop::{self, clean};
use crate::trace::Tracer;
use eda::netlist::generate;
use eda::tech::Node;
use eda::FlowConfig;

/// Mesh size of the full workload and of `--quick`.
const INSTANCES: usize = 50_000;
const QUICK_INSTANCES: usize = 2_000;

/// Nominal op wall on the sizing host (2 vCPU): 7.1-9.1 s at one thread, so
/// `--seconds 46` is 6 ops; at two threads, 11 s on a quiet host (parallel
/// is slower than serial today).
const NOMINAL_T1_S: f64 = 7.5;
const NOMINAL_T2_S: f64 = 11.0;

pub fn run(ctx: &Ctx, threads: usize) -> Result<Outcome, SetupError> {
    let tr = &ctx.tracer;
    let mut out = Outcome::default();
    let instances = if ctx.quick {
        QUICK_INSTANCES
    } else {
        INSTANCES
    };
    let ops = if ctx.traced() {
        1
    } else {
        ctx.ops(if threads == 1 {
            NOMINAL_T1_S
        } else {
            NOMINAL_T2_S
        })
    };

    // Set-up: generate the design, then one untimed warm-up op identical to
    // a timed op. Its report is the reference every timed op must match.
    let setup = tr.open("setup", "bench", None, 0);
    let setup_start = tr.now();
    let (design, gen_s) = tr.time("generate", "netlist", setup, 0, || {
        generate::scale_mesh(instances, MESH_GENERATOR_SEED)
    });
    let design = design.map_err(setup_err("scale_mesh"))?;
    let mut cfg = FlowConfig::scale_2016(Node::N28, instances);
    cfg.threads = threads;
    cfg.seed = ctx.seed;
    // Run with tracing off in a traced run too: its wall is the baseline of
    // `trace.overhead_ratio`.
    let off = Tracer::new(false);
    let (warm, _) = tr.time("warm-up", "flow", setup, 0, || {
        flowop::run(&off, "warm-up", None, 0, &design, &cfg)
    });
    let warm = warm.map_err(setup_err("warm-up op"))?;
    if !clean(&warm.report) {
        return Err(SetupError(format!(
            "warm-up op is not clean: overflow {} with {} stage statuses",
            warm.report.overflow,
            warm.report.stage_status.len()
        )));
    }
    tr.close(setup);
    out.setup_s = tr.now() - setup_start;
    out.fingerprints
        .push((design.name().to_string(), warm.report.qor_fingerprint()));

    let window_start = tr.now();
    for op in 1..=ops as u64 {
        match flowop::run(tr, "op", None, op, &design, &cfg) {
            Ok(run) => {
                let passed = if !clean(&run.report) {
                    Err(format!(
                        "op {op}: overflow {} or a stage status missing",
                        run.report.overflow
                    ))
                } else if !run.report.same_qor(&warm.report) {
                    Err(format!("op {op}: QoR differs from the warm-up op"))
                } else {
                    Ok(())
                };
                if ctx.traced() {
                    flowop::add_runs(&mut out.layers, &[&run]);
                    out.layers
                        .add("trace.overhead_ratio", run.wall_s / warm.wall_s);
                }
                out.op(run.wall_s, passed);
            }
            Err(e) => out.lost(format!("op {op}: {e}")),
        }
    }
    out.window_s = tr.now() - window_start;

    if ctx.traced() {
        out.layers.add("netlist.gen_s", gen_s);
        out.layers
            .add("netlist.instances", design.num_instances() as f64);
        out.layers.add("logic.cells", warm.report.cells as f64);
        out.layers
            .add("route.overflow", warm.report.overflow as f64);
        out.layers
            .add("route.wirelength", warm.report.routed_wirelength as f64);
        // The measured parallel speed-up needs both thread counts from the
        // same process and minute: one untraced op at the other count.
        let mut other = cfg.clone();
        other.threads = if threads == 1 { 2 } else { 1 };
        let (run, other_s) = tr.time("other-thread-count", "flow", None, 0, || {
            eda::run_flow(&design, &other)
        });
        let (serial_s, parallel_s) = if threads == 1 {
            (warm.wall_s, other_s)
        } else {
            (other_s, warm.wall_s)
        };
        match run {
            Ok(r) if r.same_qor(&warm.report) => out
                .layers
                .add("par.speedup_measured", serial_s / parallel_s),
            Ok(_) => out
                .failures
                .push("QoR differs between threads=1 and threads=2".to_string()),
            Err(e) => out
                .failures
                .push(format!("op at threads={}: {e}", other.threads)),
        }
    }
    Ok(out)
}
