//! Content-addressed stage result cache: the incremental-flow engine, now
//! backed by the persistent [`FlowStore`].
//!
//! Every stage of `run_flow` reads some parts of the flow state and writes
//! others ([`Part`]), and what it writes is a deterministic function of what
//! it reads and of the config knobs its body looks at. That makes each stage
//! memoizable: the cache key is an FNV-1a hash over `(entry format revision,
//! stage name, per-stage config fingerprint, digests of the parts it reads)`,
//! where a part's digest is the FNV-1a of its text as the stage that wrote
//! it stored it. An entry holds the stage's own status and the parts it
//! wrote — its scalar outputs, and the netlist, the placement or the chains
//! where the stage writes them — in the codec of [`crate::state`] (`f64` as
//! bit-exact hex), so a hit replays bit-identical QoR. That is also the
//! flow's only resume mechanism: a run that was killed left an entry for
//! every stage it completed, and the same (design, config) rerun against the
//! same store replays them and computes the rest.
//!
//! The per-stage fingerprint covers only the config fields the stage's body
//! actually reads, and the digests only the parts it reads; each stage
//! declares both next to its body, in the flow's stage table
//! (`crate::flow`). The payoff is reuse past an edit: changing the clock
//! misses `6_sta` and `9_power`, whose bodies read it, while routing —
//! which reads the netlist and the placement, both untouched — still hits,
//! and so does every stage before. The design's content digest (FNV-1a of
//! its codec text, not its name) is folded in only for `1_synthesis`; every
//! later stage sees the design through the parts it reads, so two designs
//! that converge to the same intermediate state share downstream entries.
//!
//! Entries hold state only — no wall clock, no worker count — so how long
//! an earlier stage took, or how many workers computed it, can never
//! invalidate a downstream entry, and a warm run at 8 threads hits entries
//! written at 1.
//!
//! A hit costs a lookup, not a parse of the big parts: [`load`] checks the
//! store record's checksum and the head (stage name and key against the
//! address), reads the status, the scalar outputs and the chains, and hands
//! the netlist and placement texts over unparsed with their digests. The
//! flow loop parses such a text only when a stage it computes, or the
//! report, reads the part; a text a later hit overwrote is never parsed.
//!
//! Failures are contained by design: a corrupt or truncated entry is a
//! typed [`CacheError`] that `run_flow` downgrades to a recompute (counted
//! in the `cache.errors` metric), never a flow error and never a panic. A
//! netlist or placement text that passes those checks but does not parse is
//! caught by that deferred parse, counted the same way, and recomputed from
//! the stage that wrote it. A probe never races a compaction: the store
//! reads an indexed entry from the version of the file it indexed, so an
//! entry another writer evicts after the probe found it is still a hit (its
//! bytes are checksummed and content-addressed), and only a miss looks at
//! the newer file. Store writes are serialized by the kernel's lock on the
//! store's sidecar file, so concurrent flows — server or daemon workers, or
//! separate CLI processes, sharing one store — can race on the same entry
//! and both land on identical bytes, and a writer killed mid-append never
//! blocks the next.

use crate::harness::StageStatus;
use crate::state::{self, Part};
use crate::store::{FlowStore, Lookup, Store, StoreError, Table};
use eda_netlist::codec::Lines;
use eda_netlist::memo::{fnv1a, Fnv1a};
use eda_netlist::InstId;
use std::fmt::Write;

/// Why a cache entry could not be read. Never fatal to the flow: it
/// downgrades to a recompute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CacheError {
    /// The entry exists but is truncated, unparseable, or was written for a
    /// different stage/key than its address claims.
    Corrupt(String),
}

/// The content address of one stage execution: `(entry format revision,
/// stage kind, per-stage config fingerprint, digests of the parts it reads)`.
/// The revision keeps entries written under an older format from ever being
/// addressed, the way `eda_route::SCHEDULE_REV` retires an older router's.
pub(crate) fn entry_key(stage: &str, config_fp: u64, reads: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv1a::new();
    let _ = write!(h, "body{}|{stage}|{config_fp:016x}", state::BODY_REV);
    for digest in reads {
        let _ = write!(h, "|{digest:016x}");
    }
    h.finish()
}

/// The lines that precede the status in an entry: what it is and where it
/// lives, so a record copied to another address is caught on load.
fn entry_head(stage: &str, key: u64) -> String {
    format!("eda-stagecache v2\nstage {stage}\nkey {key:016x}\n")
}

/// A stage-cache hit: the stage's status, its scalar outputs' bits and the
/// chains where it wrote them, parsed; the netlist and placement texts it
/// wrote, not parsed; and the digest of every part it wrote.
pub(crate) struct Hit {
    pub status: StageStatus,
    pub outputs: Vec<u64>,
    pub chains: Option<Vec<Vec<InstId>>>,
    pub texts: Vec<(Part, String)>,
    pub digests: Vec<(Part, u64)>,
}

/// Looks up the entry for `(stage, key)`, whose sections must be `parts` in
/// that order — the stage's outputs (`outputs` values) first, then what else
/// it writes. Every check but the netlist's and the placement's parse runs
/// here: the store's record checksum, the head (format, stage name, key)
/// against the address, the status, and each section's tag and length.
///
/// `Ok(None)` = no entry (cold). `Err(Corrupt)` = an entry exists but cannot
/// be trusted, and the caller recomputes.
pub(crate) fn load(
    store: &FlowStore,
    stage: &str,
    key: u64,
    parts: &[Part],
    outputs: usize,
) -> Result<Option<Hit>, CacheError> {
    let text = match store.get(Table::Stage, key) {
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
    let lines = &mut Lines::new(body);
    let status = state::read_status(lines).map_err(|e| corrupt(e.to_string()))?;
    let mut hit = Hit { status, outputs: Vec::new(), chains: None, texts: Vec::new(), digests: Vec::new() };
    let mut rest = lines.rest();
    for &part in parts {
        let (section, digest, after) = split_section(rest, part.tag()).map_err(&corrupt)?;
        let bad = |e: eda_netlist::CodecError| corrupt(format!("{} section: {e}", part.tag()));
        match part {
            Part::Outputs(_) => hit.outputs = state::read_outputs(section, outputs).map_err(bad)?,
            Part::Chains => hit.chains = Some(state::read_chains(section).map_err(bad)?),
            Part::Netlist | Part::Placement => hit.texts.push((part, section.to_string())),
        }
        hit.digests.push((part, digest));
        rest = after;
    }
    if !rest.is_empty() {
        return Err(corrupt("text past the last section".into()));
    }
    Ok(Some(hit))
}

/// Splits the section tagged `tag` off the front of `text`: its
/// `<tag> <len> <digest>` line, then `len` bytes. Returns those bytes, the
/// digest, and the text after them.
fn split_section<'a>(text: &'a str, tag: &str) -> Result<(&'a str, u64, &'a str), String> {
    let (line, rest) = text.split_once('\n').ok_or(format!("missing `{tag}` section"))?;
    let fields: Vec<&str> = line.split(' ').collect();
    let [got, len, digest] = fields[..] else { return Err(format!("bad section line {line:?}")) };
    if got != tag {
        return Err(format!("expected a `{tag}` section, got {line:?}"));
    }
    let len: usize = len.parse().map_err(|_| format!("bad section line {line:?}"))?;
    let digest = u64::from_str_radix(digest, 16).map_err(|_| format!("bad section line {line:?}"))?;
    let section = rest.get(..len).ok_or(format!("`{tag}` section cut short"))?;
    Ok((section, digest, &rest[len..]))
}

/// An entry being written: the head, the stage's status, then one section
/// per part the stage wrote, in the order [`load`] reads them.
pub(crate) struct Entry(String);

impl Entry {
    pub fn new(stage: &str, key: u64, status: &StageStatus) -> Entry {
        let mut text = entry_head(stage, key);
        state::write_status(status, &mut text);
        Entry(text)
    }

    /// Appends `text`, the text of `part`, as a section and returns its
    /// digest: what the keys of the stages that read the part hash.
    pub fn section(&mut self, part: Part, text: &str) -> u64 {
        let digest = fnv1a(text.bytes());
        let _ = writeln!(self.0, "{} {} {digest:016x}", part.tag(), text.len());
        self.0.push_str(text);
        digest
    }

    /// Stores the entry under `key` — atomic at record granularity by the
    /// store's append discipline.
    pub fn store(&self, store: &FlowStore, key: u64) -> Result<(), StoreError> {
        store.put(Table::Stage, key, &self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::StageOutcome;
    use crate::state::FlowState;
    use crate::store::StoreConfig;

    fn tmp_cache(tag: &str) -> (FlowStore, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("eda_cache_test_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store =
            FlowStore::open(&StoreConfig::at(dir.join("flow.store"))).expect("open test store");
        (store, dir)
    }

    const SCAN: [Part; 3] = [Part::Outputs(2), Part::Chains, Part::Netlist];

    /// A `3_scan` entry: its status, two outputs, its chains and a netlist.
    fn sample(key: u64) -> (Entry, Vec<u64>) {
        let st = FlowState {
            chains: vec![vec![InstId::from_index(1), InstId::from_index(0)]],
            netlist: Some(eda_netlist::generate::ripple_carry_adder(2).unwrap()),
            ..FlowState::default()
        };
        let status = StageStatus { outcome: StageOutcome::Completed, attempts: 1 };
        let mut entry = Entry::new("3_scan", key, &status);
        let outputs = vec![42, 7];
        let digests = SCAN
            .iter()
            .map(|&part| {
                let mut text = String::new();
                state::write_part(&st, part, &outputs, &mut text);
                entry.section(part, &text)
            })
            .collect();
        (entry, digests)
    }

    #[test]
    fn roundtrip_preserves_every_section() {
        let (cache, dir) = tmp_cache("roundtrip");
        let key = entry_key("3_scan", 0xdead_beef, [1, 2]);
        let (entry, digests) = sample(key);
        entry.store(&cache, key).unwrap();
        let back = load(&cache, "3_scan", key, &SCAN, 2).unwrap().unwrap();
        assert_eq!(back.status, StageStatus { outcome: StageOutcome::Completed, attempts: 1 });
        assert_eq!(back.outputs, [42, 7]);
        assert_eq!(back.chains, Some(vec![vec![InstId::from_index(1), InstId::from_index(0)]]));
        assert_eq!(back.digests.iter().map(|d| d.1).collect::<Vec<_>>(), digests);
        let (part, text) = &back.texts[0];
        assert_eq!(*part, Part::Netlist);
        assert_eq!(fnv1a(text.bytes()), digests[2], "the digest is the text's");
        state::read_netlist(text).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_entry_is_a_clean_miss() {
        let (cache, dir) = tmp_cache("miss");
        assert!(load(&cache, "1_synthesis", 7, &[Part::Outputs(0)], 1).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_separates_revision_stage_config_and_reads() {
        let base = entry_key("4_place", 1, [5]);
        assert_ne!(base, entry_key("5_scan_reorder", 1, [5]));
        assert_ne!(base, entry_key("4_place", 2, [5]));
        assert_ne!(base, entry_key("4_place", 1, [6]));
        assert_ne!(base, entry_key("4_place", 1, [5, 0]));
        // The address as the previous revision (a hash of the whole
        // pre-stage body) computed it: a store written then is never
        // addressed now.
        let rev2 = fnv1a(format!("body2|4_place|{:016x}|{:016x}", 1, 5).bytes());
        assert_ne!(base, rev2);
    }

    #[test]
    fn corrupt_entries_are_typed_errors() {
        let (cache, dir) = tmp_cache("corrupt");
        let key = entry_key("3_scan", 9, []);
        let (entry, _) = sample(key);
        entry.store(&cache, key).unwrap();

        // A payload stored under the wrong address (a copied entry) is
        // Corrupt, not a silent wrong-state replay.
        assert!(matches!(load(&cache, "3_scan", key ^ 1, &SCAN, 2), Ok(None)));
        cache.put(Table::Stage, key ^ 1, &entry.0).unwrap();
        assert!(matches!(load(&cache, "3_scan", key ^ 1, &SCAN, 2), Err(CacheError::Corrupt(_))));

        // Same address, different stage name.
        assert!(matches!(load(&cache, "4_place", key, &SCAN, 2), Err(CacheError::Corrupt(_))));

        // Same address and name, but other sections or another output count.
        assert!(matches!(load(&cache, "3_scan", key, &SCAN[..2], 2), Err(CacheError::Corrupt(_))));
        assert!(matches!(load(&cache, "3_scan", key, &[SCAN[0], SCAN[2]], 2), Err(CacheError::Corrupt(_))));
        assert!(matches!(load(&cache, "3_scan", key, &SCAN, 3), Err(CacheError::Corrupt(_))));

        // A section cut short, and garbage at a valid record address.
        let cut = entry.0.replacen("\nchains ", "\nchains 9", 1);
        cache.put(Table::Stage, key, &cut).unwrap();
        assert!(matches!(load(&cache, "3_scan", key, &SCAN, 2), Err(CacheError::Corrupt(_))));
        cache.put(Table::Stage, 77, "not a cache entry\n").unwrap();
        assert!(matches!(load(&cache, "3_scan", 77, &SCAN, 2), Err(CacheError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
