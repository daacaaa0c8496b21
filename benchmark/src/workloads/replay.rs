//! `replay20k`: the flow store used three ways in one op — a cold fill
//! (writes), a warm replay (whole-stage reads), and a route-edit replay
//! (`ripup_iterations + 1`: ten stage hits plus the per-net memo) — each op
//! against a fresh store file, so a gain for one use that costs another
//! shows in the same number.
//!
//! Ungated: the store's work (syscalls and streaming copies) swings about
//! twice as far with the host's state as the flow's own, so identical ops
//! took 5.3-9.3 s within six minutes (README, known gaps). Its traced run
//! doubles as the store probe of the traced `flowd_pairs` run
//! ([`store_probe`]), which is how the driver still sees the store's layer
//! numbers.

use super::{setup_err, Ctx, Outcome, SetupError, MESH_GENERATOR_SEED};
use crate::flowop::{self, clean, counter};
use crate::metrics::Layers;
use crate::trace::Tracer;
use eda::netlist::{generate, Netlist};
use eda::tech::Node;
use eda::{FlowConfig, FlowReport, FlowStore, Lookup, Store, StoreConfig, Table};
use std::path::Path;

const INSTANCES: usize = 20_000;
const QUICK_INSTANCES: usize = 1_000;

/// Nominal op wall on the sizing host: ~4.1 s cold + 0.9 s warm + 1.4 s
/// edit on a quiet minute.
const NOMINAL_OP_S: f64 = 6.5;

/// The designs, configs and uncached references every op is checked against.
struct Fixture {
    design: Netlist,
    cfg: FlowConfig,
    edited: FlowConfig,
    /// Uncached run of `cfg`.
    reference: FlowReport,
    reference_s: f64,
    /// Uncached run of `edited`.
    edited_reference: FlowReport,
}

/// One cold → warm → edit op against a fresh store at `store_path`.
/// Returns the op wall and its verdict; per-phase numbers go to `layers`.
fn op(
    tr: &Tracer,
    fx: &Fixture,
    store_path: &Path,
    name: &str,
    parent: Option<usize>,
    id: u64,
    layers: Option<&mut Layers>,
) -> (f64, Result<(), String>) {
    let span = tr.open(name, "bench", parent, id);
    let start = tr.now();
    let store = StoreConfig::at(store_path);
    let mut cfg = fx.cfg.clone();
    cfg.store = Some(store.clone());
    let mut edited = fx.edited.clone();
    edited.store = Some(store);

    let verdict = (|| {
        let cold = flowop::run(tr, "cold", span, id, &fx.design, &cfg)
            .map_err(|e| format!("cold fill: {e}"))?;
        let warm = flowop::run(tr, "warm", span, id, &fx.design, &cfg)
            .map_err(|e| format!("warm replay: {e}"))?;
        let edit = flowop::run(tr, "edit", span, id, &fx.design, &edited)
            .map_err(|e| format!("edit replay: {e}"))?;
        if let Some(layers) = layers {
            flowop::add_runs(layers, &[&cold, &warm, &edit]);
            let hits = counter(&edit.report, "cache.substage_hits");
            let misses = counter(&edit.report, "cache.substage_misses");
            layers.add("store.cold_s", cold.wall_s);
            layers.add("store.cold_overhead_s", cold.wall_s - fx.reference_s);
            layers.add("store.warm_s", warm.wall_s);
            layers.add("store.edit_route_s", edit.wall_s);
            layers.add(
                "store.stage_hits",
                counter(&warm.report, "cache.hits") as f64,
            );
            layers.add("store.substage_hits", hits as f64);
            layers.add("store.substage_misses", misses as f64);
            layers.add(
                "store.hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
            );
            let bytes = std::fs::metadata(store_path).map_or(0, |m| m.len());
            layers.add("store.bytes_written", bytes as f64);
        }
        if !clean(&cold.report) || !cold.report.same_qor(&fx.reference) {
            return Err("cold fill differs from the uncached reference".to_string());
        }
        if !warm.report.same_qor(&cold.report) {
            return Err("warm replay differs from the cold fill".to_string());
        }
        if counter(&warm.report, "cache.hits") == 0 {
            return Err("warm replay hit no stage entry".to_string());
        }
        if !edit.report.same_qor(&fx.edited_reference) {
            return Err("edit replay differs from the uncached edited reference".to_string());
        }
        Ok(())
    })();
    tr.close(span);
    (
        tr.now() - start,
        verdict.map_err(|why| format!("{name} {id}: {why}")),
    )
}

/// Direct probes through `FlowStore::open` + `Store::{put,get}` on the file
/// an op just filled (bound lifted so the probe never compacts).
fn probe_store(tr: &Tracer, store_path: &Path, layers: &mut Layers) -> Result<(), String> {
    const RECORDS: u64 = 128;
    let payload = "x".repeat(64 * 1024);
    let mb = (RECORDS as usize * payload.len()) as f64 / 1e6;
    let sc = StoreConfig::at(store_path).with_max_bytes(1 << 30);
    let (opened, open_s) = tr.time("open", "store", None, 0, || FlowStore::open(&sc));
    let store = opened.map_err(|e| format!("store probe open: {e}"))?;
    layers.add("store.open_s", open_s);
    let key = |i: u64| 0xbe7c_0000_0000_0000 | i;
    let (put, put_s) = tr.time("put", "store", None, 0, || {
        (0..RECORDS).try_for_each(|i| store.put(Table::Sub, key(i), &payload))
    });
    put.map_err(|e| format!("store probe put: {e}"))?;
    layers.add("store.put_mb_per_s", mb / put_s);
    let (hits, get_s) = tr.time("get", "store", None, 0, || {
        (0..RECORDS).filter(|&i| matches!(store.get(Table::Sub, key(i)), Lookup::Hit(p) if p.len() == payload.len())).count()
    });
    if hits as u64 != RECORDS {
        return Err(format!("store probe read back {hits} of {RECORDS} records"));
    }
    layers.add("store.get_mb_per_s", mb / get_s);
    Ok(())
}

/// The store-at-capacity probe: fill a store bounded at 4 MiB, then time
/// 200 more puts. `compact` has no hysteresis, so once the file is full
/// every append rewrites it; this is the number that regime is tracked by
/// until a workload can afford it (see README, known gaps).
fn probe_capacity(tr: &Tracer, store_path: &Path, layers: &mut Layers) -> Result<(), String> {
    const BOUND: u64 = 4 << 20;
    const TIMED_PUTS: u64 = 200;
    let payload = "y".repeat(16 * 1024);
    let fill_puts = BOUND / payload.len() as u64 + 16;
    let store = FlowStore::open(&StoreConfig::at(store_path).with_max_bytes(BOUND))
        .map_err(|e| format!("capacity probe open: {e}"))?;
    let (fill, _) = tr.time("fill-to-bound", "store", None, 0, || {
        (0..fill_puts).try_for_each(|i| store.put(Table::Sub, i, &payload))
    });
    fill.map_err(|e| format!("capacity probe fill: {e}"))?;
    let (timed, s) = tr.time("put-at-capacity", "store", None, 0, || {
        (fill_puts..fill_puts + TIMED_PUTS).try_for_each(|i| store.put(Table::Sub, i, &payload))
    });
    timed.map_err(|e| format!("capacity probe put: {e}"))?;
    layers.add("store.put_at_capacity_ms", s * 1e3 / TIMED_PUTS as f64);
    Ok(())
}

/// The per-layer metrics only this workload's traced op and probes measure.
const STORE_PROBE_METRICS: [&str; 12] = [
    "store.cold_s",
    "store.cold_overhead_s",
    "store.warm_s",
    "store.edit_route_s",
    "store.stage_hits",
    "store.substage_hits",
    "store.substage_misses",
    "store.hit_ratio",
    "store.open_s",
    "store.put_mb_per_s",
    "store.get_mb_per_s",
    "store.put_at_capacity_ms",
];

/// Runs this workload's traced op and store probes inside another
/// workload's traced run and adds the store's layer numbers (and any
/// failure) to `out`. The op's spans land in the same trace.
pub fn store_probe(ctx: &Ctx, out: &mut Outcome) {
    match run(ctx) {
        Ok(probe) => {
            for name in STORE_PROBE_METRICS {
                out.layers.add(name, probe.layers.value(name));
            }
            out.fingerprints.extend(probe.fingerprints);
            out.failures.extend(
                probe
                    .failures
                    .into_iter()
                    .map(|why| format!("store probe: {why}")),
            );
        }
        Err(e) => out.failures.push(format!("store probe: {e}")),
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, SetupError> {
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
        ctx.ops(NOMINAL_OP_S)
    };
    let store_path = |id: u64| ctx.run_dir.join(format!("replay-{id}.store"));

    // Set-up: design, the two uncached references, and one warm-up op
    // (tracing off in a traced run too: its wall is the baseline of
    // `trace.overhead_ratio`).
    let setup = tr.open("setup", "bench", None, 0);
    let setup_start = tr.now();
    let (design, gen_s) = tr.time("generate", "netlist", setup, 0, || {
        generate::scale_mesh(instances, MESH_GENERATOR_SEED)
    });
    let design = design.map_err(setup_err("scale_mesh"))?;
    let mut cfg = FlowConfig::scale_2016(Node::N28, instances);
    cfg.threads = 1;
    cfg.seed = ctx.seed;
    let mut edited = cfg.clone();
    edited.ripup_iterations += 1;
    let reference = flowop::run(tr, "reference", setup, 0, &design, &cfg)
        .map_err(setup_err("uncached reference"))?;
    let edited_reference = flowop::run(tr, "edited-reference", setup, 0, &design, &edited)
        .map_err(setup_err("uncached edited reference"))?;
    let fx = Fixture {
        design,
        cfg,
        edited,
        reference: reference.report,
        reference_s: reference.wall_s,
        edited_reference: edited_reference.report,
    };
    let off = Tracer::new(false);
    let ((warm_s, warm), _) = tr.time("warm-up", "bench", setup, 0, || {
        op(&off, &fx, &store_path(0), "warm-up", None, 0, None)
    });
    warm.map_err(SetupError)?;
    let _ = std::fs::remove_file(store_path(0));
    tr.close(setup);
    out.setup_s = tr.now() - setup_start;
    out.fingerprints
        .push((fx.design.name().to_string(), fx.reference.qor_fingerprint()));
    out.fingerprints.push((
        format!("{}+ripup", fx.design.name()),
        fx.edited_reference.qor_fingerprint(),
    ));

    let window_start = tr.now();
    for id in 1..=ops as u64 {
        let path = store_path(id);
        let layers = ctx.traced().then_some(&mut out.layers);
        let (wall_s, verdict) = op(tr, &fx, &path, "op", None, id, layers);
        if ctx.traced() {
            out.layers.add("trace.overhead_ratio", wall_s / warm_s);
            if let Err(why) = probe_store(tr, &path, &mut out.layers) {
                out.failures.push(why);
            }
        }
        out.op(wall_s, verdict);
        let _ = std::fs::remove_file(&path);
    }
    out.window_s = tr.now() - window_start;

    if ctx.traced() {
        out.layers.add("netlist.gen_s", gen_s);
        out.layers
            .add("netlist.instances", fx.design.num_instances() as f64);
        out.layers.add("logic.cells", fx.reference.cells as f64);
        out.layers
            .add("route.overflow", fx.reference.overflow as f64);
        out.layers
            .add("route.wirelength", fx.reference.routed_wirelength as f64);
        if let Err(why) = probe_capacity(tr, &ctx.run_dir.join("capacity.store"), &mut out.layers) {
            out.failures.push(why);
        }
    }
    Ok(out)
}
