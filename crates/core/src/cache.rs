//! Content-addressed stage result cache: the incremental-flow engine, now
//! backed by the persistent [`FlowStore`].
//!
//! Every stage of `run_flow` transforms one [`FlowState`] into the next, and
//! both ends of that transform are deterministic functions of (design,
//! config, seed). That makes each stage memoizable: the cache key is an
//! FNV-1a hash over `(stage name, per-stage config fingerprint, state
//! hash)`, where the state hash covers the exact serialized pre-stage flow
//! state — the stage's entire input. An entry is the post-stage state in the
//! checkpoint body codec (`f64` as bit-exact hex), so a hit replays
//! bit-identical QoR, the same guarantee resume gives.
//!
//! The per-stage fingerprint ([`stage_fp`]) covers only the config fields
//! the stage's body actually reads (plus node and seed, which almost every
//! stage consumes), instead of the whole-config fingerprint checkpoints
//! use. The payoff is prefix reuse: changing `ripup_iterations` leaves the
//! synthesis-through-STA keys untouched, so a warm rerun replays seven
//! stages and recomputes only routing and what follows. Design identity is
//! folded in only for `1_synthesis` — every later stage's input netlist
//! arrives through the state hash, so two designs that converge to the same
//! intermediate state share downstream entries.
//!
//! The state hash deliberately excludes the wall-clock maps
//! (`stage_seconds`, `stage_speedup`, `stage_threads`): how long an earlier
//! stage took, or how many workers computed it, must never invalidate a
//! downstream entry — a recomputed stage still yields downstream hits, and a
//! warm run at 8 threads hits entries written at 1.
//!
//! Failures are contained by design: a corrupt or truncated entry is a
//! typed [`CacheError`] that `run_flow` downgrades to a recompute (counted
//! in the `cache.errors` metric), never a flow error and never a panic. An
//! entry that vanishes between the index probe and the record read — the
//! store compacted under a concurrent writer — is [`CacheError::Evicted`],
//! its own variant precisely so the flow can count it as an expected
//! `cache.evicted_miss` instead of a scary I/O error. Store writes are
//! serialized by the store's sidecar lock, so concurrent flows — e.g.
//! `experiments` child processes sharing one store — can race on the same
//! entry and both land on identical bytes.

use crate::checkpoint::{self, FlowState, Lines, LoadError};
use crate::config::FlowConfig;
use crate::store::{FlowStore, Lookup, Store, Table};
use eda_netlist::memo::fnv1a;
use eda_netlist::Netlist;
use std::sync::Arc;

/// Why a cache entry could not be read or written. Never fatal to the flow:
/// every variant downgrades to a recompute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CacheError {
    /// The entry exists but is truncated, unparseable, or was written for a
    /// different stage/key than its address claims.
    Corrupt(String),
    /// Store failure reading or writing the entry.
    Io(String),
    /// The entry was present at probe time but evicted (LRU compaction by
    /// a concurrent writer) before it could be read. An expected race, not
    /// a fault: the caller recomputes and counts `cache.evicted_miss`.
    Evicted,
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Corrupt(m) => write!(f, "corrupt cache entry: {m}"),
            CacheError::Io(m) => write!(f, "cache I/O: {m}"),
            CacheError::Evicted => write!(f, "entry evicted between probe and read"),
        }
    }
}

/// Hash of the deterministic portion of a flow state — a stage's entire
/// input. Serializes through [`checkpoint::write_body`] with the wall-clock
/// maps excluded, so the hash is a pure function of QoR-relevant state.
pub(crate) fn state_hash(st: &FlowState) -> u64 {
    let mut body = String::new();
    checkpoint::write_body(st, &mut body, false);
    fnv1a(body.bytes())
}

/// The content address of one stage execution:
/// `(stage kind, per-stage config fingerprint, pre-stage state hash)`.
pub(crate) fn entry_key(stage: &str, config_fp: u64, state_hash: u64) -> u64 {
    fnv1a(format!("{stage}|{config_fp:016x}|{state_hash:016x}").bytes())
}

/// The per-stage config fingerprint: node and seed (consumed nearly
/// everywhere) plus exactly the config fields `stage`'s body reads. Fields
/// a stage never looks at must not invalidate its entries; fields it does
/// read must all be here, or a warm run could replay state computed under a
/// different effective config. Design identity appears only in
/// `1_synthesis` — downstream stages see the design through their pre-stage
/// state hash.
pub(crate) fn stage_fp(stage: &str, design: &Netlist, cfg: &FlowConfig) -> u64 {
    let mut key = format!("{stage}|{:?}|{}", cfg.node, cfg.seed);
    match stage {
        "1_synthesis" => key.push_str(&format!(
            "|{}|{}|{:?}|{:?}|{:?}|{}|{}",
            design.name(),
            design.num_instances(),
            cfg.library,
            cfg.synthesis,
            cfg.map_goal,
            cfg.aig_rewrite_passes,
            cfg.verify_synthesis,
        )),
        "2_clock_gating" => key.push_str(&format!("|{}", cfg.power.clock_gating_group)),
        // Scan insertion, reordering, and fault simulation all key on the
        // scan options (chains and reorder flag both change their results
        // or their skip notes).
        "3_scan" | "5_scan_reorder" | "10_dft" => key.push_str(&format!("|{:?}", cfg.scan)),
        "4_place" => {
            key.push_str(&format!("|{:016x}|{:?}", cfg.utilization.to_bits(), cfg.place))
        }
        // CTS runs on defaults; litho derives everything from the node (in
        // the common part) and the routed state.
        "6_cts" | "8_litho" => {}
        "6_sta" => key.push_str(&format!("|{:016x}", cfg.clock_mhz.to_bits())),
        // The schedule revision keeps a store written by an older router
        // from replaying that router's results under this one.
        "7_route" => key.push_str(&format!(
            "|rev{}|{:?}|{}|{}|{}|{}|{}",
            eda_route::SCHEDULE_REV,
            cfg.router,
            cfg.layers,
            cfg.ripup_iterations,
            cfg.route_grid_cells,
            cfg.route_window_margin,
            cfg.route_region_size,
        )),
        "9_power" => key.push_str(&format!(
            "|{:016x}|{:016x}",
            cfg.clock_mhz.to_bits(),
            cfg.power.decap_droop_limit_mv.map(f64::to_bits).unwrap_or(u64::MAX),
        )),
        // A stage this audit does not know falls back to the full-config
        // fingerprint: correct (never a false hit), just less incremental.
        _ => key.push_str(&format!("|{:016x}", checkpoint::fingerprint(design, cfg))),
    }
    fnv1a(key.bytes())
}

/// The stage-granular view of the flow store.
#[derive(Debug, Clone)]
pub(crate) struct StageCache {
    store: Arc<FlowStore>,
}

impl StageCache {
    pub fn new(store: Arc<FlowStore>) -> StageCache {
        StageCache { store }
    }

    /// Loads the post-stage state for `(stage, key)`.
    ///
    /// `Ok(None)` = no entry (cold). `Err(Corrupt | Io)` = an entry exists
    /// but cannot be trusted; `Err(Evicted)` = it vanished under a
    /// concurrent compaction. The caller recomputes in every `Err` case.
    pub fn load(&self, stage: &str, key: u64) -> Result<Option<FlowState>, CacheError> {
        let text = match self.store.get(Table::Stage, key) {
            Lookup::Miss => return Ok(None),
            Lookup::Evicted => return Err(CacheError::Evicted),
            Lookup::Corrupt(m) => return Err(CacheError::Corrupt(m)),
            Lookup::Hit(text) => text,
        };
        let corrupt = |m: String| CacheError::Corrupt(format!("stage {stage} key {key:016x}: {m}"));
        let mut lines = Lines::new(&text);
        let demote = |e: LoadError| match e {
            LoadError::Corrupt(m) | LoadError::Mismatch(m) => corrupt(m),
        };
        let header = lines.next().map_err(demote)?;
        if header != "eda-stagecache v1" {
            return Err(corrupt(format!("bad header {header:?}")));
        }
        let stage_line = lines.next().map_err(demote)?;
        if stage_line.strip_prefix("stage ") != Some(stage) {
            return Err(corrupt(format!("entry names a different stage ({stage_line:?})")));
        }
        let key_line = lines.next().map_err(demote)?;
        let stored = key_line
            .strip_prefix("key ")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| corrupt(format!("bad key line {key_line:?}")))?;
        if stored != key {
            return Err(corrupt(format!(
                "entry key {stored:016x} does not match its address {key:016x}"
            )));
        }
        let st = checkpoint::read_body(&mut lines).map_err(demote)?;
        Ok(Some(st))
    }

    /// Writes the post-stage state for `(stage, key)` — atomic at record
    /// granularity by the store's append discipline.
    pub fn store(&self, stage: &str, key: u64, st: &FlowState) -> Result<(), CacheError> {
        let mut out = String::new();
        out.push_str("eda-stagecache v1\n");
        out.push_str(&format!("stage {stage}\n"));
        out.push_str(&format!("key {key:016x}\n"));
        checkpoint::write_body(st, &mut out, true);
        self.store
            .put(Table::Stage, key, &out)
            .map_err(|e| CacheError::Io(format!("stage {stage} key {key:016x}: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{StageOutcome, StageStatus};
    use crate::store::StoreConfig;
    use eda_netlist::generate;
    use eda_tech::Node;

    fn tmp_cache(tag: &str) -> (StageCache, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("eda_cache_test_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store =
            FlowStore::open(&StoreConfig::at(dir.join("flow.store"))).expect("open test store");
        (StageCache::new(Arc::new(store)), dir)
    }

    fn sample_state() -> FlowState {
        let mut st = FlowState::fresh();
        st.cursor = 3;
        st.cells = 42;
        st.wns_ps = -1.2345;
        st.statuses.insert(
            "1_synthesis".into(),
            StageStatus { outcome: StageOutcome::Completed, attempts: 1 },
        );
        st
    }

    #[test]
    fn roundtrip_preserves_state_bits() {
        let (cache, dir) = tmp_cache("roundtrip");
        let st = sample_state();
        let key = entry_key("3_scan", 0xdead_beef, state_hash(&st));
        cache.store("3_scan", key, &st).unwrap();
        let back = cache.load("3_scan", key).unwrap().unwrap();
        assert_eq!(back.cursor, st.cursor);
        assert_eq!(back.cells, st.cells);
        assert_eq!(back.wns_ps.to_bits(), st.wns_ps.to_bits());
        assert_eq!(back.statuses, st.statuses);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_entry_is_a_clean_miss() {
        let (cache, dir) = tmp_cache("miss");
        assert!(cache.load("1_synthesis", 7).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn state_hash_ignores_wall_clock_maps() {
        let mut a = sample_state();
        let mut b = sample_state();
        a.stage_seconds.insert("1_synthesis".into(), 0.5);
        b.stage_seconds.insert("1_synthesis".into(), 99.0);
        b.stage_threads.insert("4_place".into(), 8);
        b.stage_speedup.insert("4_place".into(), 3.2);
        assert_eq!(state_hash(&a), state_hash(&b));

        let mut c = sample_state();
        c.cells += 1;
        assert_ne!(state_hash(&a), state_hash(&c));
    }

    #[test]
    fn key_separates_stage_config_and_state() {
        let h = state_hash(&sample_state());
        let base = entry_key("4_place", 1, h);
        assert_ne!(base, entry_key("5_scan_reorder", 1, h));
        assert_ne!(base, entry_key("4_place", 2, h));
        assert_ne!(base, entry_key("4_place", 1, h ^ 1));
    }

    #[test]
    fn stage_fp_tracks_only_the_fields_a_stage_reads() {
        let design = generate::ripple_carry_adder(4).unwrap();
        let base = FlowConfig::advanced_2016(Node::N28);

        // A routing knob must move the route fingerprint and nothing
        // upstream of it — that is the whole prefix-reuse story.
        let mut routed = base.clone();
        routed.ripup_iterations += 1;
        for stage in ["1_synthesis", "2_clock_gating", "3_scan", "4_place", "6_cts", "6_sta"] {
            assert_eq!(
                stage_fp(stage, &design, &base),
                stage_fp(stage, &design, &routed),
                "{stage} must not see ripup_iterations"
            );
        }
        assert_ne!(stage_fp("7_route", &design, &base), stage_fp("7_route", &design, &routed));

        // The synthesis script length is a synthesis-only concern.
        let mut scripted = base.clone();
        scripted.aig_rewrite_passes -= 1;
        assert_ne!(
            stage_fp("1_synthesis", &design, &base),
            stage_fp("1_synthesis", &design, &scripted)
        );
        assert_eq!(stage_fp("7_route", &design, &base), stage_fp("7_route", &design, &scripted));

        // The seed feeds nearly every stage: it lives in the common part.
        let mut reseeded = base.clone();
        reseeded.seed += 1;
        assert_ne!(stage_fp("4_place", &design, &base), stage_fp("4_place", &design, &reseeded));

        // Design identity binds only the first stage; downstream stages key
        // on their pre-stage state instead.
        let other = generate::ripple_carry_adder(8).unwrap();
        assert_ne!(stage_fp("1_synthesis", &design, &base), stage_fp("1_synthesis", &other, &base));
        assert_eq!(stage_fp("4_place", &design, &base), stage_fp("4_place", &other, &base));
    }

    /// The `7_route` fingerprint as the batched-schedule revision computed
    /// it: no schedule revision field.
    fn route_stage_fp_rev1(cfg: &FlowConfig) -> u64 {
        fnv1a(format!(
            "7_route|{:?}|{}|{:?}|{}|{}|{}|{}|{}",
            cfg.node,
            cfg.seed,
            cfg.router,
            cfg.layers,
            cfg.ripup_iterations,
            cfg.route_grid_cells,
            cfg.route_window_margin,
            cfg.route_region_size,
        )
        .bytes())
    }

    #[test]
    fn route_entries_of_the_batched_revision_are_never_addressed() {
        let design = generate::ripple_carry_adder(4).unwrap();
        for cfg in [
            FlowConfig::advanced_2016(Node::N28),
            FlowConfig::basic_2006(Node::N90),
            FlowConfig::scale_2016(Node::N28, 10_000),
        ] {
            let old = route_stage_fp_rev1(&cfg);
            assert_ne!(stage_fp("7_route", &design, &cfg), old, "{}", cfg.name);
            // Same pre-stage state, old fingerprint: a different address.
            let h = state_hash(&sample_state());
            assert_ne!(
                entry_key("7_route", stage_fp("7_route", &design, &cfg), h),
                entry_key("7_route", old, h)
            );
        }
    }

    #[test]
    fn corrupt_entries_are_typed_errors() {
        let (cache, dir) = tmp_cache("corrupt");
        let st = sample_state();
        let key = entry_key("4_place", 9, state_hash(&st));
        cache.store("4_place", key, &st).unwrap();

        // A payload stored under the wrong address (a copied entry) is
        // Corrupt, not a silent wrong-state replay.
        assert!(matches!(cache.load("4_place", key ^ 1), Ok(None)));
        let mut hijack = String::new();
        hijack.push_str("eda-stagecache v1\n");
        hijack.push_str("stage 4_place\n");
        hijack.push_str(&format!("key {key:016x}\n"));
        checkpoint::write_body(&st, &mut hijack, true);
        cache.store.put(Table::Stage, key ^ 1, &hijack).unwrap();
        assert!(matches!(cache.load("4_place", key ^ 1), Err(CacheError::Corrupt(_))));

        // Same address, different stage name.
        assert!(matches!(cache.load("5_scan_reorder", key), Err(CacheError::Corrupt(_))));

        // Garbage payload at a valid record address.
        cache.store.put(Table::Stage, 77, "not a cache entry\n").unwrap();
        assert!(matches!(cache.load("4_place", 77), Err(CacheError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
