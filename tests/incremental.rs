//! Incremental-flow contract: the content-addressed stage cache replays
//! warm runs bit-identically, invalidates on any input change, treats
//! damaged entries as cold — never as errors — and is how a killed flow
//! resumes.
//!
//! The cache key is `(stage kind, the config knobs that stage reads, the
//! digests of the state parts it reads)` — the design's content digest keys
//! `1_synthesis` only, the seed and the node only the stages that read
//! them — so these tests pin the four
//! behaviors the flow depends on: a warm re-run of an unchanged flow skips
//! every stage with `same_qor` against the cold run at any thread count;
//! changing the design, the seed, or any QoR-relevant config knob misses
//! exactly where a stage reads what it moved; a poisoned entry silently
//! falls back to a recompute; and a run cut off after any stage, rerun on
//! what it left in the store, replays the stages it completed and computes
//! the rest.

use eda_core::{
    run_flow, Fault, FaultPlan, FlowConfig, FlowReport, FlowStore, LibraryChoice, PlaceAlgorithm,
    PowerOptions, QorQuery, SpanKind, StoreConfig, STAGES,
};
use eda_logic::SynthesisEffort;
use eda_netlist::{generate, Netlist};
use eda_route::RouteAlgorithm;
use eda_tech::Node;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A scratch cache directory, unique per test and per process.
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "eda_incr_{}_{tag}_{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cached_cfg(dir: &Path, threads: usize) -> FlowConfig {
    cached_cfg_at(Node::N10, dir, threads)
}

fn cached_cfg_at(node: Node, dir: &Path, threads: usize) -> FlowConfig {
    let mut cfg = FlowConfig::advanced_2016(node);
    cfg.threads = threads;
    cfg.store = Some(StoreConfig::at(dir.join("flow.store")));
    cfg
}

fn counter(report: &FlowReport, name: &str) -> u64 {
    match report.telemetry.metrics.get(name) {
        Some(eda_core::Metric::Counter(n)) => *n,
        _ => 0,
    }
}

fn smoke_design() -> Netlist {
    generate::switch_fabric(3, 3).unwrap()
}

#[test]
fn warm_run_skips_every_stage_with_identical_qor() {
    let dir = scratch("warm");
    let design = smoke_design();
    let cold = run_flow(&design, &cached_cfg(&dir, 1)).unwrap();
    assert_eq!(counter(&cold, "cache.hits"), 0, "first run must be cold");
    assert_eq!(counter(&cold, "cache.misses"), 11, "all 11 stages miss cold");

    let warm = run_flow(&design, &cached_cfg(&dir, 1)).unwrap();
    assert_eq!(counter(&warm, "cache.hits"), 11, "warm run must hit every stage");
    assert_eq!(counter(&warm, "cache.misses"), 0);
    assert!(cold.same_qor(&warm), "warm QoR must be bit-identical to cold");
    // Eleven hits, two parses: the report reads the netlist and the
    // placement, each parsed once from the last entry that wrote it, and a
    // cold run never reads one back.
    assert_eq!(counter(&warm, "cache.body_parses"), 2);
    assert_eq!(counter(&cold, "cache.body_parses"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The store an earlier build of the flow wrote for one serial N28 advanced
/// run of the smoke design, committed as it came off the disk.
const COMMITTED_STORE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/xbar3x3_n28.store");

/// The same run's store as entry revision 2 wrote it: whole pre- and
/// post-stage bodies, and the route outcome in the sub-stage table.
const REV2_STORE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/xbar3x3_n28.rev2.store");

/// Runs the N28 smoke flow at `threads` over a copy of `store`.
fn run_over_copy(store: &str, threads: usize) -> (FlowReport, FlowConfig) {
    let dir = scratch("committed");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(store, dir.join("flow.store")).unwrap();
    let cfg = cached_cfg_at(Node::N28, &dir, threads);
    let report = run_flow(&smoke_design(), &cfg).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    (report, FlowConfig { store: None, ..cfg })
}

#[test]
fn a_committed_store_replays_every_stage() {
    // Cache keys and entries must stay readable across builds: a store
    // file written before this build replays whole, at any thread count,
    // with the QoR an uncached run computes. A format or key change that
    // means to break it re-records the file.
    for threads in [1usize, 4] {
        let (warm, uncached) = run_over_copy(COMMITTED_STORE, threads);
        assert_eq!(counter(&warm, "cache.hits"), 11, "at {threads} threads");
        assert_eq!(counter(&warm, "cache.errors"), 0, "at {threads} threads");
        assert!(warm.same_qor(&run_flow(&smoke_design(), &uncached).unwrap()), "replayed QoR at {threads} threads");
    }
}

#[test]
fn a_store_of_the_previous_entry_revision_reads_as_clean_misses() {
    // Its keys hash whole bodies under revision 2, so none is addressed:
    // every stage misses, nothing counts as damage, and its route outcome
    // record is never read.
    let (cold, uncached) = run_over_copy(REV2_STORE, 1);
    assert_eq!(counter(&cold, "cache.misses"), 11);
    assert_eq!(counter(&cold, "cache.errors"), 0);
    assert!(cold.same_qor(&run_flow(&smoke_design(), &uncached).unwrap()));
}

#[test]
fn warm_qor_is_thread_invariant() {
    // One cache dir, filled at 1 thread, replayed at 2/4/8: every warm run
    // must hit everything and match the cold QoR bit for bit.
    let dir = scratch("threads");
    let design = smoke_design();
    let cold = run_flow(&design, &cached_cfg(&dir, 1)).unwrap();
    for threads in [1usize, 2, 4, 8] {
        let warm = run_flow(&design, &cached_cfg(&dir, threads)).unwrap();
        assert_eq!(
            counter(&warm, "cache.hits"),
            11,
            "warm run at {threads} threads must hit every stage"
        );
        assert!(
            cold.same_qor(&warm),
            "warm QoR at {threads} threads must match the cold run"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_run_reports_its_own_clock_in_the_report_and_the_provenance() {
    let dir = scratch("clock");
    let design = smoke_design();
    let cold = run_flow(&design, &cached_cfg(&dir, 1)).unwrap();
    let started = Instant::now();
    let warm = run_flow(&design, &cached_cfg(&dir, 1)).unwrap();
    let warm_wall_s = started.elapsed().as_secs_f64();
    assert_eq!(counter(&warm, "cache.hits"), 11);

    // A replayed stage costs what replaying it cost: no stage carries the
    // clock of the run that wrote its entry.
    assert!(
        warm.total_seconds() <= warm_wall_s,
        "warm run reports {:.6}s but took {warm_wall_s:.6}s in all",
        warm.total_seconds()
    );
    assert_eq!(warm.stage_seconds.len(), STAGES.len());
    for stage in STAGES {
        assert_ne!(
            warm.stage_seconds[stage].to_bits(),
            cold.stage_seconds[stage].to_bits(),
            "{stage}: the warm run replays the cold run's clock"
        );
    }

    // The provenance rows of the warm run record the same, bit for bit.
    let store = FlowStore::open(&StoreConfig::at(dir.join("flow.store"))).unwrap();
    let newest = |last| QorQuery { design: None, stage: None, last };
    let runs = store.qor_history(&newest(2)).unwrap();
    assert_eq!(runs[0].wall_s.to_bits(), warm.total_seconds().to_bits());
    assert_eq!(runs[1].wall_s.to_bits(), cold.total_seconds().to_bits());
    let stage_rows = store.stage_history(&newest(STAGES.len())).unwrap();
    assert_eq!(stage_rows.len(), STAGES.len());
    for row in &stage_rows {
        assert_eq!(row.wall_s.to_bits(), warm.stage_seconds[&row.stage].to_bits(), "{}", row.stage);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `cache` tag of every stage span of a run, in flow order.
fn cache_tags(report: &FlowReport) -> Vec<&str> {
    let spans = report.telemetry.spans.iter().filter(|s| s.kind == SpanKind::Stage);
    spans.map(|s| s.tags.get("cache").map_or("-", String::as_str)).collect()
}

#[test]
fn cache_invalidates_on_netlist_config_and_seed_change() {
    // At 28nm, where litho is skipped and a flow is cheap: the matrix below
    // runs two flows per knob, and the node edit still takes it to 10nm.
    let dir = scratch("invalidate");
    let warm_cfg = || cached_cfg_at(Node::N28, &dir, 1);
    let design = smoke_design();
    let _ = run_flow(&design, &warm_cfg()).unwrap();

    // Different design: the config fingerprint folds in design identity.
    let other = generate::parity_tree(16).unwrap();
    let r = run_flow(&other, &warm_cfg()).unwrap();
    assert_eq!(counter(&r, "cache.hits"), 0, "a different netlist must miss");

    // Identity is the design's content, not its name: these two share the
    // name `rand_120g_s1` and 133 instances, and must not share entries.
    let rand = |inputs| {
        generate::random_logic(generate::RandomLogicConfig { gates: 120, inputs, ..Default::default() }).unwrap()
    };
    let (wide, narrow) = (rand(32), rand(12));
    assert_eq!((wide.name(), wide.num_instances()), (narrow.name(), narrow.num_instances()));
    let _ = run_flow(&wide, &warm_cfg()).unwrap();
    let r = run_flow(&narrow, &warm_cfg()).unwrap();
    assert_eq!(cache_tags(&r)[0], "miss", "a same-named design must miss at 1_synthesis");
    let uncached = run_flow(&narrow, &FlowConfig { store: None, ..warm_cfg() }).unwrap();
    assert!(r.same_qor(&uncached), "a same-named design replayed another's flow");

    // Every QoR-relevant knob — the union of the stage table's `knobs` —
    // edited on the warm store, one at a time. Per-stage fingerprints scope
    // the invalidation to the stages that read the knob: the edit misses at
    // the first stage that reads it and the whole prefix before that still
    // replays (`ripup_iterations` is a 7_route input, so 1_synthesis through
    // 6_sta hit). Past it, a stage whose reads the edit left alone hits too
    // (the must-hit column: `6_sta` reads the netlist, which a seed does not
    // move). A knob missing from its stage's key would hit there and replay
    // state computed under the old value — caught by the comparison against
    // an uncached run of the edited config.
    //
    // Every field of `FlowConfig`, named without `..`: a new field does not
    // compile here until it gets a row below or joins the fields that
    // cannot move QoR.
    let FlowConfig {
        node: _,
        seed: _,
        library: _,
        synthesis: _,
        verify_synthesis: _,
        power: PowerOptions { clock_gating_group: _, decap_droop_limit_mv: _ },
        scan: _,
        utilization: _,
        placer: _,
        anneal_moves_per_cell: _,
        clock_mhz: _,
        router: _,
        ripup_iterations: _,
        route_grid_cells: _,
        route_window_margin: _,
        // No stage reads these (`flow.rs`'s `fingerprint`).
        name: _,
        threads: _,
        store: _,
        fault_plan: _,
        deadline_s: _,
    } = warm_cfg();
    type Edit = fn(&mut FlowConfig);
    const PLACED: &[&str] = &["6_sta"];
    const ROUTED: &[&str] = &["9_power", "10_dft"];
    let knobs: [(&str, &str, &[&str], Edit); 16] = [
        ("node", "7_route", &[], |c| c.node = Node::N10),
        ("seed", "4_place", PLACED, |c| c.seed = 99),
        ("library", "1_synthesis", &[], |c| c.library = LibraryChoice::NandInv2006),
        ("synthesis", "1_synthesis", &[], |c| c.synthesis = SynthesisEffort::Baseline2006),
        // The check never changes the netlist it checks.
        ("verify_synthesis", "1_synthesis", &STAGES[1..], |c| c.verify_synthesis = false),
        ("power.clock_gating_group", "2_clock_gating", &[], |c| c.power.clock_gating_group = 4),
        ("scan", "3_scan", &[], |c| c.scan.as_mut().unwrap().chains += 1),
        ("utilization", "4_place", PLACED, |c| c.utilization = 0.6),
        ("placer", "4_place", PLACED, |c| c.placer = PlaceAlgorithm::Flat),
        ("anneal_moves_per_cell", "4_place", PLACED, |c| c.anneal_moves_per_cell += 1),
        ("clock_mhz", "6_sta", &["7_route", "8_litho"], |c| c.clock_mhz = 250.0),
        ("router", "7_route", ROUTED, |c| c.router = RouteAlgorithm::AStar),
        ("ripup_iterations", "7_route", ROUTED, |c| c.ripup_iterations += 1),
        ("route_grid_cells", "7_route", ROUTED, |c| c.route_grid_cells = 24),
        ("route_window_margin", "7_route", ROUTED, |c| c.route_window_margin = 4),
        ("power.decap_droop_limit_mv", "9_power", &[], |c| c.power.decap_droop_limit_mv = Some(40.0)),
    ];
    for (knob, first_reader, must_hit, edit) in knobs {
        let mut cfg = warm_cfg();
        edit(&mut cfg);
        let edited = run_flow(&design, &cfg).unwrap();
        let reader = STAGES.iter().position(|s| *s == first_reader).unwrap();
        let tags = cache_tags(&edited);
        assert!(
            tags[..reader].iter().all(|t| *t == "hit") && tags[reader] == "miss",
            "{knob}: want {reader} hits then a miss at {first_reader}, got {tags:?}"
        );
        for stage in must_hit {
            let k = STAGES.iter().position(|s| s == stage).unwrap();
            assert_eq!(tags[k], "hit", "{knob}: {stage} reads nothing the edit moved, got {tags:?}");
        }
        cfg.store = None;
        let uncached = run_flow(&design, &cfg).unwrap();
        assert!(edited.same_qor(&uncached), "{knob}: the edited warm run replayed stale state");
    }

    // The unchanged flow still hits: invalidation is per-key, not global.
    let r = run_flow(&design, &warm_cfg()).unwrap();
    assert_eq!(counter(&r, "cache.hits"), 11);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn threads_do_not_invalidate_the_cache() {
    // `threads` shapes wall-clock only, never QoR, so it is deliberately
    // outside the cache key: a cache filled at 4 threads serves 1.
    let dir = scratch("threads_key");
    let design = smoke_design();
    let cold = run_flow(&design, &cached_cfg(&dir, 4)).unwrap();
    let warm = run_flow(&design, &cached_cfg(&dir, 1)).unwrap();
    assert_eq!(counter(&warm, "cache.hits"), 11);
    assert!(cold.same_qor(&warm));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The payload byte range of every `stage`-table record of a store file, in
/// file order — a cold run appends one per stage, in flow order.
fn stage_payloads(bytes: &[u8]) -> Vec<Range<usize>> {
    let text = std::str::from_utf8(bytes).unwrap();
    let mut payloads = Vec::new();
    let mut pos = 0;
    while let Some(off) = text[pos..].find("%rec ") {
        let start = pos + off;
        let header_end = start + text[start..].find('\n').unwrap() + 1;
        let fields: Vec<&str> = text[start..header_end - 1].split(' ').collect();
        let payload_len: usize = fields[3].parse().unwrap();
        if fields[1] == "stage" {
            payloads.push(header_end..header_end + payload_len);
        }
        pos = header_end + payload_len + 1;
    }
    payloads
}

/// Flips one payload byte in every `stage`-table record of a store file,
/// leaving the framing (and every other table) intact. Returns how many
/// records were damaged.
fn poison_stage_records(path: &Path) -> usize {
    let mut bytes = std::fs::read(path).unwrap();
    let payloads = stage_payloads(&bytes);
    for payload in &payloads {
        bytes[payload.start] ^= 0x01;
    }
    std::fs::write(path, bytes).unwrap();
    payloads.len()
}

#[test]
fn poisoned_entries_fall_back_to_recompute() {
    let dir = scratch("poison");
    let design = smoke_design();
    let cold = run_flow(&design, &cached_cfg(&dir, 1)).unwrap();

    // Flip a payload byte in every stage-cache record: the checksums no
    // longer match, so every stage lookup sees a corrupt (not missing)
    // entry. Sub-stage and provenance records stay intact.
    let store_file = dir.join("flow.store");
    assert_eq!(poison_stage_records(&store_file), 11, "one record per stage");

    // The warm run sees 11 unreadable entries, recomputes everything, and
    // still lands on identical QoR — corruption is never an error.
    let warm = run_flow(&design, &cached_cfg(&dir, 1)).unwrap();
    assert_eq!(counter(&warm, "cache.hits"), 0);
    assert_eq!(counter(&warm, "cache.errors"), 11);
    assert!(cold.same_qor(&warm), "recomputed QoR must match the cold run");

    // The recompute rewrote the damaged entries, so a third run hits again.
    let again = run_flow(&design, &cached_cfg(&dir, 1)).unwrap();
    assert_eq!(counter(&again, "cache.hits"), 11);
    assert!(cold.same_qor(&again));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The stage position of each named stage.
fn position(stage: &str) -> usize {
    STAGES.iter().position(|s| *s == stage).unwrap()
}

#[test]
fn a_replayed_state_that_does_not_parse_is_recomputed() {
    // A record with an intact checksum, head and sections passes every check
    // a hit makes; its netlist or placement text is parsed only when a stage
    // the run computes, or the report, reads the part. A damaged text read
    // at the end (`3_scan`'s netlist, `4_place`'s placement) or mid-run
    // (`3_scan`'s netlist, read by the `4_place` a seed edit recomputes)
    // must be counted and recomputed from the stage that wrote it — the flow
    // neither fails nor panics, and lands on the uncached QoR. One that a
    // later hit overwrote (`2_clock_gating`'s netlist), or whose digest
    // names the text the state already holds (`9_power`'s, which inserts
    // no decap here), is never parsed, so it is no error at all.
    use eda_core::{Store, Table};
    let design = smoke_design();
    let cold_dir = scratch("deferred_cold");
    let cfg = cached_cfg_at(Node::N28, &cold_dir, 1);
    let _ = run_flow(&design, &cfg).unwrap();
    let whole = std::fs::read(cold_dir.join("flow.store")).unwrap();
    let records = stage_payloads(&whole);
    assert_eq!(records.len(), STAGES.len(), "one record per stage");
    let netlist = ("\neda-netlist v1\n", "\neda-netlist v0\n");
    let placement = ("\ndie ", "\ndxe ");
    let reseed: fn(&mut FlowConfig) = |c| c.seed = 99;
    let cases = [
        ("3_scan", netlist, None, 1),
        ("4_place", placement, None, 1),
        ("3_scan", netlist, Some(reseed), 1),
        ("2_clock_gating", netlist, None, 0),
        ("9_power", netlist, None, 0),
    ];
    for (stage, (from, to), edit, errors) in cases {
        let dir = scratch("deferred");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("flow.store"), &whole).unwrap();
        let entry = std::str::from_utf8(&whole[records[position(stage)].clone()]).unwrap();
        let key_line = entry.lines().nth(2).unwrap();
        let key = u64::from_str_radix(key_line.strip_prefix("key ").unwrap(), 16).unwrap();
        let broken = entry.replacen(from, to, 1);
        assert_ne!(broken, entry, "{stage}: the entry carries the part");
        FlowStore::open(&StoreConfig::at(dir.join("flow.store")))
            .unwrap()
            .put(Table::Stage, key, &broken)
            .unwrap();

        let mut cfg = cached_cfg_at(Node::N28, &dir, 1);
        if let Some(edit) = edit {
            edit(&mut cfg);
        }
        let uncached = run_flow(&design, &FlowConfig { store: None, ..cfg.clone() }).unwrap();
        let warm = run_flow(&design, &cfg).unwrap();
        assert_eq!(counter(&warm, "cache.errors"), errors, "{stage}");
        assert!(warm.same_qor(&uncached), "damaged {stage} replayed");
        // Every stage ends replayed or recomputed, once: the restart from
        // the damaged text's writer replays the stages before it a second
        // time without counting or tracing them again, and the replays it
        // recomputes are no hits.
        let spans = warm.telemetry.spans.iter().filter(|s| s.kind == SpanKind::Stage);
        let (replays, computed): (Vec<_>, Vec<_>) =
            spans.partition(|s| s.tags.get("cache").is_some_and(|c| c == "hit"));
        let names = |spans: &[&eda_core::Span]| spans.iter().map(|s| s.name.clone()).collect::<BTreeSet<_>>();
        assert_eq!(names(&replays).len(), replays.len(), "{stage}: a replay traced twice");
        let hits = counter(&warm, "cache.hits") as usize;
        assert_eq!(hits + names(&computed).len(), STAGES.len(), "{stage}: hits plus recomputed stages");

        // The next run replays whole: a damaged text that was read was
        // rewritten by its recompute, and one that was not is never read.
        let again = run_flow(&design, &cfg).unwrap();
        assert_eq!(counter(&again, "cache.hits"), 11, "{stage}");
        assert_eq!(counter(&again, "cache.errors"), 0, "{stage}");
        assert!(again.same_qor(&uncached));
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&cold_dir);
}

/// The resume contract: a run that dies after any stage and is rerun against
/// the store it left behind replays every stage it completed, computes the
/// rest, and lands on the QoR of an uninterrupted run — at one worker thread
/// and at four. The kill is a cut store file, which is what `kill -9` leaves:
/// between two appends for even `k`, in the middle of one for odd `k`.
#[test]
fn a_run_cut_off_after_any_stage_resumes_from_the_store() {
    let design = smoke_design();
    for threads in [1usize, 4] {
        let mut storeless = FlowConfig::advanced_2016(Node::N10);
        storeless.threads = threads;
        let uninterrupted = run_flow(&design, &storeless).unwrap();

        // Every stage of the 10nm advanced flow executes, so the cold run
        // leaves eleven stage records and each cut point is reachable.
        let cold_dir = scratch("resume_cold");
        let _ = run_flow(&design, &cached_cfg(&cold_dir, threads)).unwrap();
        let whole = std::fs::read(cold_dir.join("flow.store")).unwrap();
        let records = stage_payloads(&whole);
        assert_eq!(records.len(), STAGES.len(), "one record per stage");

        for k in 1..STAGES.len() {
            let cut = if k % 2 == 0 {
                records[k - 1].end + 1 // the k-th record and its newline, whole
            } else {
                (records[k].start + records[k].end) / 2 // the next one, torn
            };
            let dir = scratch("resume_cut");
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join("flow.store"), &whole[..cut]).unwrap();

            let resumed = run_flow(&design, &cached_cfg(&dir, threads)).unwrap();
            let tags = cache_tags(&resumed);
            assert!(
                tags[..k].iter().all(|t| *t == "hit") && tags[k..].iter().all(|t| *t == "miss"),
                "cut after stage {k} (threads={threads}): want {k} hits then misses, got {tags:?}"
            );
            assert_eq!(counter(&resumed, "cache.errors"), 0, "a cut store is cold, not corrupt");
            assert!(
                resumed.same_qor(&uninterrupted),
                "resume after stage {k} (threads={threads}) drifted from the uninterrupted run"
            );

            // The resumed run completed the store: nothing is left to compute.
            let again = run_flow(&design, &cached_cfg(&dir, threads)).unwrap();
            assert_eq!(counter(&again, "cache.hits"), 11, "after the resume from stage {k}");
            assert!(again.same_qor(&uninterrupted));
            let _ = std::fs::remove_dir_all(&dir);
        }
        let _ = std::fs::remove_dir_all(&cold_dir);
    }
}

/// A clock no test design can meet (their critical paths are 40–80 ps): the
/// edit that moves `6_sta` and `9_power`, which read the clock, while
/// leaving the netlist and the placement, all `7_route` reads, alone.
const UNMEETABLE_MHZ: f64 = 50_000.0;

/// `(stage, sub)` record counts of a store file, read off its framing.
fn record_counts(path: &Path) -> (usize, usize) {
    let bytes = std::fs::read(path).unwrap();
    let count = |needle: &[u8]| bytes.windows(needle.len()).filter(|w| *w == needle).count();
    (count(b"\n%rec stage "), count(b"\n%rec sub "))
}

#[test]
fn store_traffic_is_per_stage_not_per_net() {
    // A cold run writes one record per stage, whatever the design size —
    // here one with > 2 000 nets — and nothing into the sub-stage table.
    let dir = scratch("budget");
    let design = generate::switch_fabric(8, 16).unwrap();
    let mut plain = FlowConfig::advanced_2016(Node::N10);
    plain.threads = 1;
    let storeless = run_flow(&design, &plain).unwrap();
    let cold = run_flow(&design, &cached_cfg(&dir, 1)).unwrap();
    assert!(storeless.same_qor(&cold));
    assert_eq!(record_counts(&dir.join("flow.store")), (11, 0));

    // An entry holds what its stage writes: only the netlist writers carry
    // a netlist section, and only `4_place` a placement.
    let whole = std::fs::read(dir.join("flow.store")).unwrap();
    for (stage, payload) in STAGES.iter().zip(stage_payloads(&whole)) {
        let entry = std::str::from_utf8(&whole[payload]).unwrap();
        assert!(entry.contains(&format!("\nstage {stage}\n")), "records come in stage order");
        let netlist = ["1_synthesis", "2_clock_gating", "3_scan", "9_power"].contains(stage);
        assert_eq!(entry.contains("\nnetlist "), netlist, "{stage}: netlist section");
        assert_eq!(entry.contains("\nplacement "), *stage == "4_place", "{stage}: placement section");
    }

    // A clock edit misses the stages that read the clock and replays the
    // route, whose reads it left alone, at any thread count.
    plain.clock_mhz = UNMEETABLE_MHZ;
    let reference = run_flow(&design, &plain).unwrap();
    assert!(reference.wns_ps < cold.wns_ps);
    for threads in [1usize, 4] {
        let copy = scratch("budget_edit");
        std::fs::create_dir_all(&copy).unwrap();
        std::fs::copy(dir.join("flow.store"), copy.join("flow.store")).unwrap();
        let mut cfg = cached_cfg(&copy, threads);
        cfg.clock_mhz = UNMEETABLE_MHZ;
        let edited = run_flow(&design, &cfg).unwrap();
        let tags = cache_tags(&edited);
        assert_eq!((tags[position("6_sta")], tags[position("7_route")]), ("miss", "hit"), "threads={threads}");
        assert!(reference.same_qor(&edited), "threads={threads}");
        let _ = std::fs::remove_dir_all(&copy);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn substage_replay_is_thread_invariant() {
    // Partial replay must be as thread-proof as a full warm run: fill the
    // store at one thread count, edit the clock so only the stages that
    // read it recompute, and demand the exact QoR an uncached run produces.
    let design = smoke_design();
    let mut ref_cfg = FlowConfig::advanced_2016(Node::N10);
    ref_cfg.threads = 1;
    ref_cfg.clock_mhz = UNMEETABLE_MHZ;
    let reference = run_flow(&design, &ref_cfg).unwrap();

    for threads in [1usize, 2, 4, 8] {
        let dir = scratch("subthreads");
        let _ = run_flow(&design, &cached_cfg(&dir, threads)).unwrap();
        let mut cfg = cached_cfg(&dir, threads);
        cfg.clock_mhz = UNMEETABLE_MHZ;
        let replay = run_flow(&design, &cfg).unwrap();
        let tags = cache_tags(&replay);
        assert_eq!(
            (tags[position("6_sta")], tags[position("7_route")]),
            ("miss", "hit"),
            "partial replay must engage at {threads} threads"
        );
        assert!(
            reference.same_qor(&replay),
            "partial replay at {threads} threads must be bit-identical to uncached"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn orphaned_per_net_records_of_an_older_store_are_inert() {
    // A store an older build wrote holds per-net MST records and a route
    // outcome in its sub-stage table. Nothing addresses them any more: they
    // must neither replay nor count as damage, and the stage entries beside
    // them must still hit.
    let dir = scratch("orphans");
    let design = smoke_design();
    let cold = run_flow(&design, &cached_cfg(&dir, 1)).unwrap();
    {
        use eda_core::{Store, Table};
        use eda_netlist::memo::fnv1a;
        let store = FlowStore::open(&StoreConfig::at(dir.join("flow.store"))).unwrap();
        // The deleted key formula: `<kind>|<fnv of the kind's input>`. The
        // kinds are spelled in pieces so a grep for them finds no live user.
        let key = |kind: &str, input: &str| fnv1a(format!("{kind}|{:016x}", fnv1a(input.bytes())).bytes());
        for x in 0..40u32 {
            let payload = format!("netmst v1 1\ntp {x} 3 {} 7 2\nend\n", x + 2);
            let input = format!("net|{x},3;{},7;", x + 2);
            store.put(Table::Sub, key(concat!("route", ".", "net"), &input), &payload).unwrap();
        }
        let outcome = "routeout v2 1 2 0 3 0 40 1 0 1024\nro 0\nend\n";
        store.put(Table::Sub, key(concat!("route", ".", "outcome"), "route|rev2"), outcome).unwrap();
    }
    let warm = run_flow(&design, &cached_cfg(&dir, 1)).unwrap();
    assert_eq!(counter(&warm, "cache.hits"), 11);
    assert_eq!(counter(&warm, "cache.errors"), 0);
    assert!(cold.same_qor(&warm));

    // Past the stage cache too: the clock edit recomputes what reads the
    // clock and replays the route from its stage entry.
    let mut cfg = cached_cfg(&dir, 1);
    cfg.clock_mhz = UNMEETABLE_MHZ;
    let edited = run_flow(&design, &cfg).unwrap();
    assert_eq!(cache_tags(&edited)[position("7_route")], "hit");
    assert_eq!(counter(&edited, "cache.errors"), 0);
    let uncached = run_flow(&design, &FlowConfig { store: None, ..cfg }).unwrap();
    assert!(edited.same_qor(&uncached));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_is_bypassed_under_fault_injection() {
    // Injected faults must exercise the real stage bodies; a cached replay
    // would skip the code path under test.
    let dir = scratch("faults");
    let design = smoke_design();
    let _ = run_flow(&design, &cached_cfg(&dir, 1)).unwrap();

    let mut cfg = cached_cfg(&dir, 1);
    cfg.fault_plan = Some(FaultPlan::new(7).with("7_route", Some(0), Fault::Degrade));
    let injected = run_flow(&design, &cfg).unwrap();
    assert_eq!(counter(&injected, "cache.hits"), 0, "fault plans bypass the cache");
    assert!(
        !injected.stage_status["7_route"].is_clean(),
        "the injected degradation must actually land"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any netlist, any seed: a warm re-run replays the cold QoR exactly.
    #[test]
    fn warm_replay_is_exact_for_arbitrary_netlists(
        gates in 40usize..160,
        design_seed in 0u64..1_000,
        flow_seed in 0u64..1_000,
    ) {
        let design = generate::random_logic(generate::RandomLogicConfig {
            gates,
            seed: design_seed,
            ..Default::default()
        })
        .unwrap();
        let dir = scratch("prop");
        let mut cfg = cached_cfg(&dir, 2);
        cfg.seed = flow_seed;
        let cold = run_flow(&design, &cfg).unwrap();
        let warm = run_flow(&design, &cfg).unwrap();
        prop_assert_eq!(counter(&warm, "cache.misses"), 0);
        prop_assert!(cold.same_qor(&warm));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
