//! The embedded flow store: one schema'd, append-friendly file holding the
//! stage cache and the QoR provenance history (DESIGN.md §14). The flow
//! writes nothing into [`Table::Sub`] any more; the table stays only as the
//! key-value probe the standalone benchmark's replay workload writes.
//!
//! The store replaces the loose directory of `.stage` files the PR-4 cache
//! wrote: a single file of length-framed, checksummed records over four
//! typed tables ([`Table`]), with size-bounded LRU compaction and
//! corruption-always-downgrades-to-recompute semantics. It is reached
//! through:
//!
//! * [`Store`] — typed key-value access for cache entries plus append-only
//!   provenance rows;
//! * [`FlowStore::qor_history`] and [`FlowStore::stage_history`] — the read
//!   side `experiments query` and the daemon `query` frame answer from: QoR
//!   history per design, stage history per run.
//!
//! [`StoreConfig`] is the user-facing knob bundle ([`crate::FlowConfig`]
//! threads it through the flow, server, and daemon); [`FlowStore`] is the
//! file-backed implementation.
//!
//! # Examples
//!
//! ```
//! use eda_core::store::{FlowStore, Lookup, QorQuery, Store, StoreConfig, Table};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dir = std::env::temp_dir().join(format!("eda-store-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir)?;
//! let cfg = StoreConfig::at(dir.join("flow.store"));
//! let store = FlowStore::open(&cfg)?;
//! store.put(Table::Stage, 7, "payload")?;
//! assert_eq!(store.get(Table::Stage, 7), Lookup::Hit("payload".into()));
//! store.append(Table::Qor, "run demo generic 0 0 0 0 0 0 0")?;
//! let rows = store.qor_history(&QorQuery { design: Some("demo".into()), ..Default::default() })?;
//! assert_eq!(rows.len(), 1);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

mod file;

pub use file::FlowStore;

use eda_netlist::codec;
use std::path::PathBuf;

/// Default size bound for a store file (64 MiB).
pub const DEFAULT_MAX_BYTES: u64 = 64 * 1024 * 1024;

/// Typed configuration for the embedded flow store: where the file is and
/// how large it may grow. Construct with [`StoreConfig::at`]; thread through
/// [`crate::FlowConfig::store`], [`crate::FlowServerBuilder`], or the
/// daemon config. Eviction is always LRU compaction (provenance rows are
/// never evicted) and every completed run appends its provenance rows.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreConfig {
    /// The store file. Parent directory is created on open.
    pub path: PathBuf,
    /// Size bound in bytes; LRU compaction keeps the file under it.
    pub max_bytes: u64,
}

impl StoreConfig {
    /// A store at `path` with the default 64 MiB bound.
    pub fn at(path: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig { path: path.into(), max_bytes: DEFAULT_MAX_BYTES }
    }

    /// Same config with a different size bound.
    pub fn with_max_bytes(mut self, max_bytes: u64) -> StoreConfig {
        self.max_bytes = max_bytes;
        self
    }
}

/// The store's tables. Cache tables ([`Table::Stage`], [`Table::Sub`]) hold
/// content-addressed entries and are subject to eviction; provenance tables
/// ([`Table::Qor`], [`Table::QStage`]) are append-only sequences and never
/// evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Table {
    /// Stage cache entries: what one stage wrote, keyed on what it read.
    Stage,
    /// A key-value table no flow reads or writes: the standalone
    /// benchmark writes its store probe here, and records an older build
    /// left here are never addressed and age out.
    Sub,
    /// One row per completed flow run (QoR + config fingerprints).
    Qor,
    /// One row per executed stage of a completed run.
    QStage,
}

impl Table {
    /// The token recorded in the file framing.
    pub fn as_str(self) -> &'static str {
        match self {
            Table::Stage => "stage",
            Table::Sub => "sub",
            Table::Qor => "qor",
            Table::QStage => "qstage",
        }
    }

    pub(crate) fn parse(s: &str) -> Option<Table> {
        match s {
            "stage" => Some(Table::Stage),
            "sub" => Some(Table::Sub),
            "qor" => Some(Table::Qor),
            "qstage" => Some(Table::QStage),
            _ => None,
        }
    }

    /// Whether rows in this table survive compaction unconditionally.
    pub fn is_provenance(self) -> bool {
        matches!(self, Table::Qor | Table::QStage)
    }
}

/// The outcome of a point lookup. Every non-`Hit` variant downgrades to a
/// recompute in cache layers — the distinction exists for telemetry
/// (`cache.misses` vs `cache.errors`).
#[derive(Debug, Clone, PartialEq)]
pub enum Lookup {
    /// The entry's payload, checksum-verified. It is read from the version
    /// of the file the handle indexed, so it is valid even if another
    /// handle has compacted the entry away since: entries are
    /// content-addressed.
    Hit(String),
    /// No such entry, in the version the handle indexed or in the file now
    /// at the path.
    Miss,
    /// The entry's bytes are present but fail validation (checksum or
    /// framing). The reason string feeds diagnostics, never control flow.
    Corrupt(String),
}

/// Errors from store operations. Cache layers treat every one of these as
/// "not cached" — the flow never fails because its store did.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// Underlying I/O failure (message carries the `std::io::Error`).
    Io(String),
    /// A record would push the file past `max_bytes` and compaction cannot
    /// make room (callers treat that as "not cached").
    TooLarge {
        /// Bytes the record needs.
        need: u64,
        /// The configured bound.
        max: u64,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(m) => write!(f, "store i/o: {m}"),
            StoreError::TooLarge { need, max } => {
                write!(f, "record needs {need} B but the store is bounded at {max} B")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

/// Typed write/read surface over the store's tables.
pub trait Store {
    /// Writes `payload` under `(table, key)`, replacing any prior entry.
    ///
    /// # Errors
    ///
    /// Fails on I/O, or when the record cannot fit under the size bound.
    fn put(&self, table: Table, key: u64, payload: &str) -> Result<(), StoreError>;

    /// Point lookup of `(table, key)`.
    fn get(&self, table: Table, key: u64) -> Lookup;

    /// Appends a row to a sequence table and returns its sequence number
    /// (keys are assigned monotonically per table).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Store::put`].
    fn append(&self, table: Table, payload: &str) -> Result<u64, StoreError>;

    /// Current store file size in bytes.
    fn len_bytes(&self) -> u64;
}

/// Filters for provenance queries. `None` fields match everything;
/// `last = 0` means unlimited.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QorQuery {
    /// Match rows of this design only: rows whose design name equals it, or
    /// whose 16-hex design digest does (which tells apart two designs that
    /// share a name).
    pub design: Option<String>,
    /// Match stage rows of this stage only (ignored by
    /// [`FlowStore::qor_history`]).
    pub stage: Option<String>,
    /// Keep only the newest N rows (after filtering).
    pub last: usize,
}

/// One whole-run provenance row (table [`Table::Qor`]), newest runs last in
/// the file, returned newest-first by queries.
#[derive(Debug, Clone, PartialEq)]
pub struct QorRow {
    /// Sequence number (monotonic per store file).
    pub seq: u64,
    /// Design name.
    pub design: String,
    /// The design's content digest — the one `1_synthesis` keys on (FNV-1a
    /// of its codec text). `None` on rows written before rows carried it.
    pub design_digest: Option<u64>,
    /// Process node label.
    pub node: String,
    /// Config fingerprint the run executed under.
    pub cfg_fp: u64,
    /// Fingerprint of the run's deterministic QoR serialization.
    pub qor_fp: u64,
    /// Worst negative slack in picoseconds.
    pub wns_ps: f64,
    /// Routing overflow after the final iteration.
    pub overflow: u64,
    /// Total half-perimeter wirelength in µm.
    pub hpwl_um: f64,
    /// Wall-clock seconds for the run.
    pub wall_s: f64,
    /// Peak resident set in bytes (0 when unavailable).
    pub peak_rss_bytes: u64,
}

/// One per-stage provenance row (table [`Table::QStage`]).
#[derive(Debug, Clone, PartialEq)]
pub struct StageRow {
    /// Sequence number (monotonic per store file).
    pub seq: u64,
    /// Design name.
    pub design: String,
    /// The design's content digest, as in [`QorRow::design_digest`]. `None`
    /// on rows written before stage rows carried it.
    pub design_digest: Option<u64>,
    /// Stage name (for example `7_route`).
    pub stage: String,
    /// Final stage status (`ok`, `degraded:<policy>`, `cached`, ...).
    pub outcome: String,
    /// Attempts the supervisor spent.
    pub attempts: u32,
    /// Stage wall-clock seconds.
    pub wall_s: f64,
}

/// One row field: [`codec::write_token`]'s escaping, plus `%00` for the
/// empty string so an empty value still fills its slot on the space-split row.
fn field(s: &str) -> String {
    if s.is_empty() {
        return "%00".into();
    }
    let mut out = String::with_capacity(s.len());
    codec::write_token(&mut out, s).expect("writing to a String never fails");
    out
}

/// Inverse of [`field`]; `None` on malformed escapes.
fn parse_field(s: &str) -> Option<String> {
    if s == "%00" {
        return Some(String::new());
    }
    codec::unescape(s).ok()
}

/// Whether a provenance row naming `name`, with content digest `digest`, is
/// of `design`: its name, or its content digest as 16 hex digits.
fn is_design(name: &str, digest: Option<u64>, design: &str) -> bool {
    name == design || digest.is_some_and(|d| format!("{d:016x}") == design)
}

/// Appends a row's optional trailing field, the design digest.
fn push_digest(payload: &mut String, digest: Option<u64>) {
    if let Some(d) = digest {
        payload.push_str(&format!(" {d:016x}"));
    }
}

/// Parses what is left of a row after its fixed fields: nothing (a row
/// written before rows carried the digest) or the design digest alone.
/// `None` when it is malformed or followed by more.
fn parse_digest<'a>(mut rest: impl Iterator<Item = &'a str>) -> Option<Option<u64>> {
    let digest = match rest.next() {
        Some(d) => Some(u64::from_str_radix(d, 16).ok()?),
        None => None,
    };
    rest.next().is_none().then_some(digest)
}

impl QorRow {
    /// Whether the row is of `design`: its name, or its content digest as
    /// 16 hex digits.
    pub fn is_design(&self, design: &str) -> bool {
        is_design(&self.design, self.design_digest, design)
    }

    /// Serializes to the store's `qor` row payload; the design digest, when
    /// there is one, is the trailing field.
    pub fn to_payload(&self) -> String {
        let mut payload = format!(
            "run {} {} {:016x} {:016x} {:016x} {} {:016x} {:016x} {}",
            field(&self.design),
            field(&self.node),
            self.cfg_fp,
            self.qor_fp,
            self.wns_ps.to_bits(),
            self.overflow,
            self.hpwl_um.to_bits(),
            self.wall_s.to_bits(),
            self.peak_rss_bytes,
        );
        push_digest(&mut payload, self.design_digest);
        payload
    }

    /// Parses a `qor` row payload (the sequence number comes from the
    /// record key), with or without the trailing design digest. `None` on
    /// malformed rows — queries skip them.
    pub fn parse(seq: u64, payload: &str) -> Option<QorRow> {
        let mut f = payload.split(' ');
        if f.next()? != "run" {
            return None;
        }
        let mut row = QorRow {
            seq,
            design: parse_field(f.next()?)?,
            design_digest: None,
            node: parse_field(f.next()?)?,
            cfg_fp: u64::from_str_radix(f.next()?, 16).ok()?,
            qor_fp: u64::from_str_radix(f.next()?, 16).ok()?,
            wns_ps: f64::from_bits(u64::from_str_radix(f.next()?, 16).ok()?),
            overflow: f.next()?.parse().ok()?,
            hpwl_um: f64::from_bits(u64::from_str_radix(f.next()?, 16).ok()?),
            wall_s: f64::from_bits(u64::from_str_radix(f.next()?, 16).ok()?),
            peak_rss_bytes: f.next()?.parse().ok()?,
        };
        row.design_digest = parse_digest(f)?;
        Some(row)
    }
}

impl StageRow {
    /// Whether the row is of `design`, by the rule of [`QorRow::is_design`].
    pub fn is_design(&self, design: &str) -> bool {
        is_design(&self.design, self.design_digest, design)
    }

    /// Serializes to the store's `qstage` row payload; the design digest,
    /// when there is one, is the trailing field.
    pub fn to_payload(&self) -> String {
        let mut payload = format!(
            "stage {} {} {} {} {:016x}",
            field(&self.design),
            field(&self.stage),
            field(&self.outcome),
            self.attempts,
            self.wall_s.to_bits(),
        );
        push_digest(&mut payload, self.design_digest);
        payload
    }

    /// Parses a `qstage` row payload, with or without the trailing design
    /// digest; `None` on malformed rows.
    pub fn parse(seq: u64, payload: &str) -> Option<StageRow> {
        let mut f = payload.split(' ');
        if f.next()? != "stage" {
            return None;
        }
        let mut row = StageRow {
            seq,
            design: parse_field(f.next()?)?,
            design_digest: None,
            stage: parse_field(f.next()?)?,
            outcome: parse_field(f.next()?)?,
            attempts: f.next()?.parse().ok()?,
            wall_s: f64::from_bits(u64::from_str_radix(f.next()?, 16).ok()?),
        };
        row.design_digest = parse_digest(f)?;
        Some(row)
    }
}
