//! Persistent flow-store contract: round trips, damage tolerance, size
//! bounds, and queryable provenance.
//!
//! Mirrors the codec property suite (`tests/codec.rs`) one layer up: the
//! store must (1) round-trip arbitrary payloads across reopen, (2) degrade
//! truncation and byte corruption to misses or typed corrupt lookups —
//! never a panic, never a wrong payload, (3) hold its `max_bytes` bound
//! under concurrent server writers while preserving QoR, (4) answer
//! provenance queries with a stable row format, and (5) stay writable and
//! lose no provenance row when writers share it or die holding its lock.

use eda::{
    run_flow, FlowConfig, FlowReport, FlowRequest, FlowServer, FlowStore, Lookup, QorQuery,
    QorRow, StageRow, Store, StoreConfig, Table,
};
use eda::netlist::{generate, Netlist};
use eda::netlist::memo::fnv1a;
use eda::tech::Node;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A scratch store directory, unique per test case and per process.
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("eda_store_{}_{tag}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Hostile payload alphabet: record markers, newlines, escapes, unicode.
/// Sampled token indices assemble into payload strings so the round-trip
/// property exercises every framing hazard the store format must survive.
const TOKENS: &[&str] = &[
    "a", "payload", " ", "\n", "%rec ", "%", "%%", "\t", "0", "行き先", "\u{1}", "::",
];

fn assemble(indices: &[usize]) -> String {
    indices.iter().map(|&i| TOKENS[i % TOKENS.len()]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary payloads (spaces, newlines, `%rec `, unicode) round-trip
    /// through put/get, survive a reopen, and later puts win.
    #[test]
    fn payloads_roundtrip_across_reopen(
        entries in collection::vec((any::<u64>(), collection::vec(0usize..12, 0..24)), 1..12),
        rewrite_toks in collection::vec(0usize..12, 0..12),
    ) {
        let entries: Vec<(u64, String)> =
            entries.iter().map(|(k, toks)| (*k, assemble(toks))).collect();
        let rewrite = assemble(&rewrite_toks);
        let dir = scratch("prop_rt");
        let cfg = StoreConfig::at(dir.join("flow.store"));
        {
            let store = FlowStore::open(&cfg).unwrap();
            for (key, payload) in &entries {
                store.put(Table::Sub, *key, payload).unwrap();
            }
            // Replace the first key: the newer record must win.
            store.put(Table::Sub, entries[0].0, &rewrite).unwrap();
        }
        let store = FlowStore::open(&cfg).unwrap();
        // Replay the puts in order: the last write to each key wins.
        let mut expected = std::collections::HashMap::new();
        for (key, payload) in &entries {
            expected.insert(*key, payload.clone());
        }
        expected.insert(entries[0].0, rewrite);
        for (key, want) in &expected {
            match store.get(Table::Sub, *key) {
                Lookup::Hit(p) => prop_assert_eq!(&p, want),
                other => prop_assert!(false, "key {key:x} should hit, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Truncating the file at any byte loses at most the tail: every
    /// surviving key reads its exact original payload, every lost key is a
    /// clean miss, and opening never fails or panics.
    #[test]
    fn truncation_degrades_to_misses(
        payload_seed in 0u64..1000,
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = scratch("prop_trunc");
        let cfg = StoreConfig::at(dir.join("flow.store"));
        let keys: Vec<u64> = (0..8).map(|i| payload_seed.wrapping_mul(31).wrapping_add(i)).collect();
        {
            let store = FlowStore::open(&cfg).unwrap();
            for key in &keys {
                store.put(Table::Stage, *key, &format!("payload for {key:016x}\nline two")).unwrap();
            }
        }
        let bytes = std::fs::read(&cfg.path).unwrap();
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        std::fs::write(&cfg.path, &bytes[..cut]).unwrap();

        let store = FlowStore::open(&cfg).unwrap();
        for key in &keys {
            match store.get(Table::Stage, *key) {
                Lookup::Hit(p) => prop_assert_eq!(p, format!("payload for {key:016x}\nline two")),
                Lookup::Miss => {}
                Lookup::Corrupt(why) => prop_assert!(false, "truncation must not corrupt: {why}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flipping any single byte never panics and never serves a wrong
    /// payload: each key reads its exact original bytes, a typed corrupt
    /// lookup, or a miss.
    #[test]
    fn byte_corruption_is_typed_never_wrong(
        flip_at_frac in 0.0f64..1.0,
        flip_bits in 1u8..=255,
    ) {
        let dir = scratch("prop_flip");
        let cfg = StoreConfig::at(dir.join("flow.store"));
        let keys: Vec<u64> = (10..16).collect();
        {
            let store = FlowStore::open(&cfg).unwrap();
            for key in &keys {
                store.put(Table::Sub, *key, &format!("stable payload {key}")).unwrap();
            }
        }
        let mut bytes = std::fs::read(&cfg.path).unwrap();
        let at = ((bytes.len() - 1) as f64 * flip_at_frac) as usize;
        bytes[at] ^= flip_bits;
        std::fs::write(&cfg.path, &bytes).unwrap();

        let store = FlowStore::open(&cfg).unwrap();
        for key in &keys {
            match store.get(Table::Sub, *key) {
                Lookup::Hit(p) => prop_assert_eq!(p, format!("stable payload {key}")),
                Lookup::Miss | Lookup::Corrupt(_) => {}
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn eviction_holds_the_bound_under_concurrent_server_writers() {
    // Many designs, several workers, one small store: every write path
    // (stage cache, provenance) runs concurrently, and the
    // file must end under `max_bytes` with every request's QoR intact.
    let dir = scratch("server_lru");
    let max_bytes = 48 * 1024;
    let path = dir.join("flow.store");
    // Path and bound are the whole configuration: LRU eviction and
    // provenance recording are not options.
    assert_eq!(StoreConfig::at(&path), StoreConfig { path: path.clone(), max_bytes: 64 << 20 });
    let store = StoreConfig::at(path).with_max_bytes(max_bytes);

    let cfg = FlowConfig::advanced_2016(Node::N10);
    let designs: Vec<_> = (3..9)
        .map(|n| generate::ripple_carry_adder(n * 4).unwrap())
        .collect();
    let batch: Vec<FlowRequest> = designs
        .iter()
        .map(|d| FlowRequest::new(d.clone(), cfg.clone()))
        .collect();

    let server = FlowServer::builder().threads(4).store(store.clone()).build();
    let first = server.serve(batch.clone());
    assert_eq!(first.failed(), 0);
    let handle = FlowStore::open(&store).unwrap();
    assert!(
        handle.len_bytes() <= max_bytes,
        "store must stay under its bound (got {} > {max_bytes})",
        handle.len_bytes()
    );
    drop(handle);

    // Second pass over the same batch: whatever mix of hits, misses, and
    // evictions each request sees, the QoR must be bit-identical.
    let second = server.serve(batch);
    assert_eq!(second.failed(), 0);
    for (a, b) in first.responses.iter().zip(&second.responses) {
        let (ra, rb) = (a.report().unwrap(), b.report().unwrap());
        assert!(ra.same_qor(rb), "eviction must never move QoR ({})", a.design);
    }
    let handle = FlowStore::open(&store).unwrap();
    assert!(handle.len_bytes() <= max_bytes);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn provenance_queries_answer_run_history() {
    // Three runs — two of one design at different seeds, one of another —
    // then the query surface must reproduce the history newest-first.
    let dir = scratch("query");
    let store = StoreConfig::at(dir.join("flow.store"));
    let fabric = generate::switch_fabric(3, 3).unwrap();
    let parity = generate::parity_tree(16).unwrap();

    let mut cfg = FlowConfig::advanced_2016(Node::N10);
    cfg.threads = 1;
    cfg.store = Some(store.clone());
    let r1 = run_flow(&fabric, &cfg).unwrap();
    cfg.seed = 7;
    let r2 = run_flow(&fabric, &cfg).unwrap();
    let r3 = run_flow(&parity, &cfg).unwrap();

    let handle = FlowStore::open(&store).unwrap();
    let fabric_rows = handle
        .qor_history(&QorQuery { design: Some(fabric.name().into()), stage: None, last: 10 })
        .unwrap();
    assert_eq!(fabric_rows.len(), 2, "two fabric runs recorded");
    assert!(fabric_rows[0].seq > fabric_rows[1].seq, "newest first");
    assert_eq!(fabric_rows[0].qor_fp, r2.qor_fingerprint());
    assert_eq!(fabric_rows[1].qor_fp, r1.qor_fingerprint());
    assert_ne!(
        fabric_rows[0].cfg_fp, fabric_rows[1].cfg_fp,
        "different seeds run under different config fingerprints"
    );

    let all = handle.qor_history(&QorQuery::default()).unwrap();
    assert_eq!(all.len(), 3);
    assert_eq!(all[0].qor_fp, r3.qor_fingerprint());
    let last_one = handle.qor_history(&QorQuery { last: 1, ..QorQuery::default() }).unwrap();
    assert_eq!(last_one.len(), 1);
    assert_eq!(last_one[0].qor_fp, r3.qor_fingerprint());

    let route_rows = handle
        .stage_history(&QorQuery {
            design: Some(fabric.name().into()),
            stage: Some("7_route".into()),
            last: 0,
        })
        .unwrap();
    assert_eq!(route_rows.len(), 2);
    for row in &route_rows {
        assert_eq!(row.stage, "7_route");
        assert!(row.attempts >= 1);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two designs that share the name `rand_120g_s1` (and 133 instances), run
/// one after the other on a fresh store at `dir`, with their reports.
fn same_named_runs(dir: &Path) -> (StoreConfig, [Netlist; 2], Vec<FlowReport>) {
    let store = StoreConfig::at(dir.join("flow.store"));
    let rand = |inputs| {
        generate::random_logic(generate::RandomLogicConfig { gates: 120, inputs, ..Default::default() }).unwrap()
    };
    let designs = [rand(32), rand(12)];
    assert_eq!(designs[0].name(), designs[1].name());
    let cfg = FlowConfig { threads: 1, store: Some(store.clone()), ..FlowConfig::advanced_2016(Node::N28) };
    let reports = designs.iter().map(|d| run_flow(d, &cfg).unwrap()).collect();
    (store, designs, reports)
}

fn content_digest(design: &Netlist) -> u64 {
    fnv1a(eda::netlist::codec::to_text(design).bytes())
}

#[test]
fn provenance_rows_name_a_design_by_its_content() {
    // A query by the shared name returns both runs, a query by either run's
    // content digest — the one `1_synthesis` keys on — returns that run
    // alone.
    let dir = scratch("digest");
    let (store, designs, reports) = same_named_runs(&dir);

    let handle = FlowStore::open(&store).unwrap();
    let query = |design: String| handle.qor_history(&QorQuery { design: Some(design), ..QorQuery::default() }).unwrap();
    assert_eq!(query(designs[0].name().to_string()).len(), 2);
    for (design, report) in designs.iter().zip(&reports) {
        let digest = content_digest(design);
        let rows = query(format!("{digest:016x}"));
        assert_eq!(rows.len(), 1, "{digest:016x}");
        assert_eq!(rows[0].design_digest, Some(digest));
        assert_eq!(rows[0].qor_fp, report.qor_fingerprint());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stage_rows_name_a_design_by_its_content() {
    // The per-stage history selects by content digest as the run history
    // does: each digest's `7_route` history is its own run's row alone.
    let dir = scratch("stage_digest");
    let (store, designs, _) = same_named_runs(&dir);
    let handle = FlowStore::open(&store).unwrap();
    let routes = |design: String| {
        let q = QorQuery { design: Some(design), stage: Some("7_route".into()), last: 0 };
        handle.stage_history(&q).unwrap()
    };
    assert_eq!(routes(designs[0].name().to_string()).len(), 2);
    let seqs: Vec<u64> = designs
        .iter()
        .map(|d| {
            let rows = routes(format!("{:016x}", content_digest(d)));
            assert_eq!(rows.len(), 1, "{}: {rows:?}", d.name());
            assert_eq!(rows[0].stage, "7_route");
            rows[0].seq
        })
        .collect();
    // The runs appended their stage rows in order, so the first design's
    // row is the older one.
    assert!(seqs[0] < seqs[1], "{seqs:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn provenance_row_format_is_golden() {
    // The row payload is an on-disk format shared across runs and tools:
    // pin it byte-for-byte so accidental format drift fails loudly.
    let row = QorRow {
        seq: 42,
        design: "smoke design".into(),
        design_digest: None,
        node: "10nm".into(),
        cfg_fp: 0x0123_4567_89ab_cdef,
        qor_fp: 0xfedc_ba98_7654_3210,
        wns_ps: -12.5,
        overflow: 3,
        hpwl_um: 1024.25,
        wall_s: 0.5,
        peak_rss_bytes: 1 << 20,
    };
    let payload = row.to_payload();
    assert_eq!(
        payload,
        "run smoke%20design 10nm 0123456789abcdef fedcba9876543210 c029000000000000 3 4090010000000000 3fe0000000000000 1048576"
    );
    assert_eq!(QorRow::parse(42, &payload), Some(row.clone()));
    // A row that names the design's content carries the digest last; a row
    // written before rows carried it parses as above, with none.
    let named = QorRow { design_digest: Some(0x0f1e_2d3c_4b5a_6978), ..row };
    let payload = named.to_payload();
    assert_eq!(
        payload,
        "run smoke%20design 10nm 0123456789abcdef fedcba9876543210 c029000000000000 3 4090010000000000 3fe0000000000000 1048576 0f1e2d3c4b5a6978"
    );
    assert_eq!(QorRow::parse(42, &payload), Some(named));

    let srow = StageRow {
        seq: 43,
        design: "smoke design".into(),
        design_digest: None,
        stage: "7_route".into(),
        outcome: "degraded (2 attempts)".into(),
        attempts: 2,
        wall_s: 0.25,
    };
    let payload = srow.to_payload();
    assert_eq!(
        payload,
        "stage smoke%20design 7_route degraded%20(2%20attempts) 2 3fd0000000000000"
    );
    assert_eq!(StageRow::parse(43, &payload), Some(srow.clone()));
    // Stage rows carry the digest last too, and a row written before they
    // did still parses.
    let named = StageRow { design_digest: Some(0x0f1e_2d3c_4b5a_6978), ..srow };
    let payload = named.to_payload();
    assert_eq!(
        payload,
        "stage smoke%20design 7_route degraded%20(2%20attempts) 2 3fd0000000000000 0f1e2d3c4b5a6978"
    );
    assert_eq!(StageRow::parse(43, &payload), Some(named));
}

/// The cache records a fresh store holds after one flow run: every `stage`
/// and `sub` header (table, key, payload length, FNV-1a of the payload) in
/// file order. Keys pin every cache-key input and sums pin every body byte,
/// so a change to either — or to what the flow writes when — moves a row.
const RIPPLE4_N28_RECORDS: [&str; 11] = [
    // The netlist writers' entries carry the netlist; `4_place`'s the
    // placement; every other entry holds only its status and outputs.
    "%rec stage d569ce49d2a925eb 3680 257bbf8dd38c5c7e",
    "%rec stage b113bea2b53444b3 3665 81983a24e8e6567d",
    "%rec stage 6cd744842661323a 3791 c30cecf6c17c7464",
    "%rec stage 13907a157d713fee 2785 6fbb376da74f94e9",
    "%rec stage b7d370d1199d759b 147 85c1e7559d3890a3",
    "%rec stage b64c1501ed007e54 121 540d039d19b21ec1",
    "%rec stage d44c262837d8428c 138 e7d88d3ff265684f",
    "%rec stage 0d3dbc0d854cb365 140 d8ca98c9a0b64c8b",
    "%rec stage 54a67d55aa2ca510 221 ce4fd27405b5e5b7",
    "%rec stage de68caa4362e6cf6 3809 826bd46c863b6747",
    "%rec stage d211e5a860a0314f 105 5f87805304e54524",
];

/// Walks a store file record by record (header line, `payload_len` bytes,
/// `\n`) and returns the `stage` and `sub` header lines in file order; the
/// provenance rows carry wall clocks and are left out.
fn cache_record_headers(path: &Path) -> Vec<String> {
    let bytes = std::fs::read(path).unwrap();
    let line_end = |from: usize| from + bytes[from..].iter().position(|&b| b == b'\n').unwrap();
    let mut pos = line_end(0) + 1;
    let mut headers = Vec::new();
    while pos < bytes.len() {
        let end = line_end(pos);
        let header = std::str::from_utf8(&bytes[pos..end]).unwrap().to_string();
        let payload_len: usize = header.split(' ').nth(3).unwrap().parse().unwrap();
        pos = end + 1 + payload_len + 1;
        if header.starts_with("%rec stage ") || header.starts_with("%rec sub ") {
            headers.push(header);
        }
    }
    headers
}

/// A fresh store written by one serial N28 run of a 4-bit ripple adder holds
/// exactly the pinned cache records.
#[test]
fn a_fresh_store_holds_the_pinned_cache_records() {
    let dir = scratch("record_headers");
    let cfg = FlowConfig {
        threads: 1,
        store: Some(StoreConfig::at(dir.join("flow.store"))),
        ..FlowConfig::advanced_2016(Node::N28)
    };
    run_flow(&generate::ripple_carry_adder(4).unwrap(), &cfg).unwrap();
    assert_eq!(cache_record_headers(&dir.join("flow.store")), RIPPLE4_N28_RECORDS);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `kill -9` of a writer leaves its `<store>.lock` sidecar behind. The
/// kernel drops a dead writer's lock, so the file alone stalls no one.
#[test]
fn a_leftover_lock_file_stalls_no_write() {
    let dir = scratch("leftover_lock");
    let cfg = StoreConfig::at(dir.join("flow.store"));
    let store = FlowStore::open(&cfg).unwrap();
    std::fs::write(dir.join("flow.store.lock"), "4242").unwrap();
    let second = std::time::Duration::from_secs(1);
    let started = std::time::Instant::now();
    store.put(Table::Stage, 1, "after a dead writer").unwrap();
    assert!(started.elapsed() < second, "put took {:?}", started.elapsed());
    let started = std::time::Instant::now();
    store.append(Table::Qor, "run d generic 0 0 0 0 0 0 0").unwrap();
    assert!(started.elapsed() < second, "append took {:?}", started.elapsed());
    assert_eq!(store.get(Table::Stage, 1), Lookup::Hit("after a dead writer".into()));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two handles — two processes, as far as the store can tell — open one
/// fresh path at once and interleave cache puts with provenance appends
/// under a bound that forces compaction after compaction. Provenance rows
/// are never evicted, so every one of them must survive; every cache entry
/// still indexed must read back exactly, and no lookup may be corrupt.
#[test]
fn two_handles_on_one_store_lose_no_provenance_row() {
    const ROWS: u64 = 150;
    for run in 0..5 {
        let dir = scratch("two_handles");
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = StoreConfig::at(dir.join("flow.store")).with_max_bytes(128 * 1024);
        let payload = |key: u64| format!("{key:016x}").repeat(64);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for handle in 0..2u64 {
                let (cfg, start) = (&cfg, &start);
                scope.spawn(move || {
                    start.wait();
                    let store = FlowStore::open(cfg).unwrap();
                    for i in 0..ROWS {
                        let key = handle << 32 | i;
                        store.put(Table::Sub, key, &payload(key)).unwrap();
                        // The writer's own version holds what it just wrote,
                        // whatever the other handle compacted since.
                        assert_eq!(store.get(Table::Sub, key), Lookup::Hit(payload(key)), "run {run}");
                        store.append(Table::Qor, &format!("run h{handle}r{i} generic 0 0 0 0 0 0 0")).unwrap();
                    }
                });
            }
        });
        let store = FlowStore::open(&cfg).unwrap();
        let rows = store.qor_history(&QorQuery::default()).unwrap();
        let designs: std::collections::HashSet<&str> = rows.iter().map(|r| r.design.as_str()).collect();
        assert_eq!((rows.len(), designs.len()), (2 * ROWS as usize, 2 * ROWS as usize), "run {run}");
        for key in (0..2u64).flat_map(|handle| (0..ROWS).map(move |i| handle << 32 | i)) {
            match store.get(Table::Sub, key) {
                Lookup::Hit(p) => assert_eq!(p, payload(key), "run {run}"),
                Lookup::Miss => {}
                Lookup::Corrupt(why) => panic!("run {run}: key {key:x} is corrupt: {why}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
