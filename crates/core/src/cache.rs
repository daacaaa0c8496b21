//! Content-addressed stage result cache: the incremental-flow engine, now
//! backed by the persistent [`FlowStore`].
//!
//! Every stage of `run_flow` transforms one flow state into the next, and
//! both ends of that transform are deterministic functions of (design,
//! config, seed). That makes each stage memoizable: the cache key is an
//! FNV-1a hash over `(body format revision, stage name, per-stage config
//! fingerprint, pre-stage body)`, where the pre-stage body is the serialized
//! flow state the stage starts from — its entire input, and the very bytes
//! the previous stage's entry stored. An entry is the post-stage state in
//! the body codec of [`crate::state`] (`f64` as bit-exact hex), so a hit
//! replays bit-identical QoR. That is also the flow's only resume mechanism:
//! a run that was killed left an entry for every stage it completed, and
//! the same (design, config) rerun against the same store replays them and
//! computes the rest.
//!
//! The per-stage fingerprint covers only the config fields the stage's body
//! actually reads — the node and the seed included, and only where a body
//! reads them — not the whole config; each stage declares its knobs next to
//! its body, in the flow's stage table (`crate::flow`). The payoff is prefix
//! reuse: changing `ripup_iterations` or the node leaves the
//! synthesis-through-STA keys untouched, so a warm rerun replays seven
//! stages and recomputes only routing and what follows; a new seed replays
//! synthesis, clock gating and scan and recomputes from placement on. The design's content digest (FNV-1a of its
//! codec text, not its name) is folded in only for `1_synthesis` — every
//! later stage's input netlist arrives through the pre-stage body, so two
//! designs that converge to the same intermediate state share downstream
//! entries.
//!
//! The body holds state only — no wall clock, no worker count — so how long
//! an earlier stage took, or how many workers computed it, can never
//! invalidate a downstream entry: a recomputed stage still yields
//! downstream hits, and a warm run at 8 threads hits entries written at 1.
//!
//! A hit costs a lookup, not a parse: [`load`] checks the store record's
//! checksum, the head (stage name and key against the address) and the
//! body's cursor, reads the statuses, and hands the body bytes over
//! unparsed. The flow loop adopts them as the next stage's key input and parses
//! the state once, before the first stage it computes or at the end of the
//! run, so a warm run of eleven hits parses one body, not eleven.
//!
//! Failures are contained by design: a corrupt or truncated entry is a
//! typed [`CacheError`] that `run_flow` downgrades to a recompute (counted
//! in the `cache.errors` metric), never a flow error and never a panic. A
//! body that passes those checks but whose state does not parse is caught
//! by that deferred parse, counted the same way, and recomputed from the
//! last state that did parse. A probe never races a compaction: the store
//! reads an indexed entry from the version of the file it indexed, so an
//! entry another writer evicts after the probe found it is still a hit
//! (its bytes are checksummed and content-addressed), and only a miss
//! looks at the newer file. Store writes are serialized by the kernel's
//! lock on the store's sidecar file, so concurrent flows — server or
//! daemon workers, or separate CLI processes, sharing one store — can race
//! on the same entry and both land on identical bytes, and a writer killed
//! mid-append never blocks the next.

use crate::state::{self, Statuses};
use crate::store::{FlowStore, Lookup, Store, StoreError, Table};
use eda_netlist::memo::fnv1a;

/// Why a cache entry could not be read. Never fatal to the flow: it
/// downgrades to a recompute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CacheError {
    /// The entry exists but is truncated, unparseable, or was written for a
    /// different stage/key than its address claims.
    Corrupt(String),
}

/// The content address of one stage execution: `(body format revision,
/// stage kind, per-stage config fingerprint, pre-stage body)`. The revision
/// keeps entries written under an older body format from ever being
/// addressed, the way `eda_route::SCHEDULE_REV` retires an older router's.
pub(crate) fn entry_key(stage: &str, config_fp: u64, pre_body: &str) -> u64 {
    let rev = state::BODY_REV;
    fnv1a(format!("body{rev}|{stage}|{config_fp:016x}|{:016x}", fnv1a(pre_body.bytes())).bytes())
}

/// The lines that precede the body in an entry: what it is and where it
/// lives, so a record copied to another address is caught on load.
fn entry_head(stage: &str, key: u64) -> String {
    format!("eda-stagecache v1\nstage {stage}\nkey {key:016x}\n")
}

/// A stage-cache hit: the entry's body, and the statuses of the stages that
/// produced it. The body's state is not parsed here — the flow loop adopts the
/// bytes as the next stage's key input and parses them once, when a stage
/// body or the report first needs the state ([`state::read_body`]).
pub(crate) struct Hit {
    pub statuses: Statuses,
    pub body: String,
}

/// Looks up the entry for `(stage, key)`, where `stage` is the `position`-th
/// of the flow. Every check but the state's parse runs here: the store's
/// record checksum, the head (format, stage name, key) against the address,
/// and the body's cursor against `position`.
///
/// `Ok(None)` = no entry (cold). `Err(Corrupt)` = an entry exists but cannot
/// be trusted, and the caller recomputes.
pub(crate) fn load(store: &FlowStore, stage: &str, position: usize, key: u64) -> Result<Option<Hit>, CacheError> {
    let mut text = match store.get(Table::Stage, key) {
        Lookup::Miss => return Ok(None),
        Lookup::Corrupt(m) => return Err(CacheError::Corrupt(m)),
        Lookup::Hit(text) => text,
    };
    let corrupt = |m: String| CacheError::Corrupt(format!("stage {stage} key {key:016x}: {m}"));
    let head = entry_head(stage, key);
    let Some(body) = text.strip_prefix(&head) else {
        let got: Vec<&str> = text.lines().take(3).collect();
        return Err(corrupt(format!("entry is headed {got:?}, its address wants {head:?}")));
    };
    let (cursor, statuses) = state::read_head(body).map_err(|e| corrupt(e.to_string()))?;
    // Stops at the wrong cursor: replaying it would derail the stage
    // sequence.
    if cursor != position {
        return Err(corrupt(format!("entry stops at cursor {cursor}, the stage at {position}")));
    }
    text.drain(..head.len());
    Ok(Some(Hit { statuses, body: text }))
}

/// Writes `body`, the post-stage state, for `(stage, key)` — atomic at
/// record granularity by the store's append discipline.
pub(crate) fn store(store: &FlowStore, stage: &str, key: u64, body: &str) -> Result<(), StoreError> {
    store.put(Table::Stage, key, &(entry_head(stage, key) + body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::FlowState;
    use crate::harness::{StageOutcome, StageStatus};
    use crate::store::StoreConfig;
    use std::collections::BTreeMap;

    fn tmp_cache(tag: &str) -> (FlowStore, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("eda_cache_test_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store =
            FlowStore::open(&StoreConfig::at(dir.join("flow.store"))).expect("open test store");
        (store, dir)
    }

    /// A post-`3_scan` state, its statuses, and their body.
    fn sample() -> (FlowState, BTreeMap<String, StageStatus>, String) {
        let mut st = FlowState::fresh();
        st.cursor = 3;
        st.cells = 42;
        st.wns_ps = -1.2345;
        let mut statuses = BTreeMap::new();
        statuses.insert(
            "1_synthesis".to_string(),
            StageStatus { outcome: StageOutcome::Completed, attempts: 1 },
        );
        let mut body = String::new();
        state::write_body(&st, &statuses, &mut body);
        (st, statuses, body)
    }

    #[test]
    fn roundtrip_preserves_state_bits() {
        let (cache, dir) = tmp_cache("roundtrip");
        let (st, statuses, body) = sample();
        let key = entry_key("3_scan", 0xdead_beef, "pre-stage body");
        store(&cache, "3_scan", key, &body).unwrap();
        let back = load(&cache, "3_scan", 3, key).unwrap().unwrap();
        assert_eq!(back.statuses, statuses);
        assert_eq!(back.body, body, "the loaded body is the stored body, byte for byte");
        let (state, _) = state::read_body(&back.body).unwrap();
        assert_eq!(state.cursor, st.cursor);
        assert_eq!(state.cells, st.cells);
        assert_eq!(state.wns_ps.to_bits(), st.wns_ps.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_entry_is_a_clean_miss() {
        let (cache, dir) = tmp_cache("miss");
        assert!(load(&cache, "1_synthesis", 1, 7).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_separates_revision_stage_config_and_state() {
        let (_, _, body) = sample();
        let base = entry_key("4_place", 1, &body);
        assert_ne!(base, entry_key("5_scan_reorder", 1, &body));
        assert_ne!(base, entry_key("4_place", 2, &body));
        assert_ne!(base, entry_key("4_place", 1, &format!("{body}\n")));
        // The address as the previous body revision (wall-clock maps in the
        // entry) computed it: a store written then is never addressed now.
        let rev1 = fnv1a(format!("4_place|{:016x}|{:016x}", 1, fnv1a(body.bytes())).bytes());
        assert_ne!(base, rev1);
    }

    #[test]
    fn corrupt_entries_are_typed_errors() {
        let (cache, dir) = tmp_cache("corrupt");
        let (_, _, body) = sample();
        let key = entry_key("3_scan", 9, "pre-stage body");
        store(&cache, "3_scan", key, &body).unwrap();

        // A payload stored under the wrong address (a copied entry) is
        // Corrupt, not a silent wrong-state replay.
        assert!(matches!(load(&cache, "3_scan", 3, key ^ 1), Ok(None)));
        let hijack = entry_head("3_scan", key) + &body;
        cache.put(Table::Stage, key ^ 1, &hijack).unwrap();
        assert!(matches!(load(&cache, "3_scan", 3, key ^ 1), Err(CacheError::Corrupt(_))));

        // Same address, different stage name.
        assert!(matches!(load(&cache, "4_place", 3, key), Err(CacheError::Corrupt(_))));

        // Same address and name, but the state stops at another position.
        assert!(matches!(load(&cache, "3_scan", 4, key), Err(CacheError::Corrupt(_))));

        // Garbage payload at a valid record address.
        cache.put(Table::Stage, 77, "not a cache entry\n").unwrap();
        assert!(matches!(load(&cache, "3_scan", 3, 77), Err(CacheError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
