//! Persistent flow-store contract: round trips, damage tolerance, size
//! bounds, and queryable provenance.
//!
//! Mirrors the codec property suite (`tests/codec.rs`) one layer up: the
//! store must (1) round-trip arbitrary payloads across reopen, (2) degrade
//! truncation and byte corruption to misses or typed corrupt lookups —
//! never a panic, never a wrong payload, (3) hold its `max_bytes` bound
//! under concurrent server writers while preserving QoR, and (4) answer
//! provenance queries with a stable row format.

use eda::{
    run_flow, FlowConfig, FlowRequest, FlowServer, FlowStore, Lookup, QorQuery,
    QorRow, Query, StageRow, Store, StoreConfig, Table,
};
use eda::netlist::generate;
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
                Lookup::Miss | Lookup::Evicted => {}
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
                Lookup::Miss | Lookup::Evicted | Lookup::Corrupt(_) => {}
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn eviction_holds_the_bound_under_concurrent_server_writers() {
    // Many designs, several workers, one small store: every write path
    // (stage cache, sub-stage memo, provenance) runs concurrently, and the
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

#[test]
fn provenance_row_format_is_golden() {
    // The row payload is an on-disk format shared across runs and tools:
    // pin it byte-for-byte so accidental format drift fails loudly.
    let row = QorRow {
        seq: 42,
        design: "smoke design".into(),
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
    assert_eq!(QorRow::parse(42, &payload), Some(row));

    let srow = StageRow {
        seq: 43,
        design: "smoke design".into(),
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
    assert_eq!(StageRow::parse(43, &payload), Some(srow));
}

/// The cache records a fresh store holds after one flow run: every `stage`
/// and `sub` header (table, key, payload length, FNV-1a of the payload) in
/// file order. Keys pin every cache-key input and sums pin every body byte,
/// so a change to either — or to what the flow writes when — moves a row.
const RIPPLE4_N28_RECORDS: [&str; 17] = [
    // The two balance entries carry the balance revision in their keys; the
    // two rewrite entries between them kept theirs.
    "%rec sub edc8ac62722e7786 29 3a9e41fcb7ecb64c",
    "%rec sub 934998a1090ec98a 607 b1e9b05f621afe23",
    "%rec sub 39e773cb90bbaa87 585 1b696f1e0683eaa6",
    "%rec sub 6514b9990e3c9008 29 90aa82934b008524",
    "%rec sub 2721760b5f00ce66 585 ba0c1422d16ff99c",
    "%rec stage a61355c597f5e240 3873 c2e53ebc8a4c2ae8",
    "%rec stage c29449c2eac6b9ea 3897 f18e56a2717a019c",
    "%rec stage 1832201a8483a52b 3976 887a096b5153daea",
    "%rec stage 7310547a76694a27 6656 2c5eff82ac42215d",
    "%rec stage 2f57a85489c6f2d9 6684 56a1bf055fef9e15",
    "%rec stage 5ca8a839b6f757bc 6687 ac70ee39f326f8bc",
    "%rec stage 72575016640d4809 6699 8929e3efd302b822",
    // The route outcome: `routeout v2`, keyed without a region-size slot.
    "%rec sub c74acb0df47cfe0c 56 1d350444beeca4e4",
    "%rec stage c84fd65a2d3c0faa 6719 c2b127206fec9929",
    "%rec stage 6df5a5303a6ab10a 6797 916c1e2f6c86d505",
    "%rec stage 79b4511140d79f21 6813 8277e36e9b093543",
    "%rec stage 4484c4aa4cdb61a0 6825 7fb2cfeb3b4e18a6",
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
