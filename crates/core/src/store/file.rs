//! [`FlowStore`]: the single-file, schema'd store behind the flow cache and
//! provenance tables.
//!
//! ## On-disk format
//!
//! ```text
//! eda-store v1\n
//! %rec <table> <key:016x> <payload_len> <fnv:016x>\n
//! <payload bytes>\n
//! %rec ...
//! ```
//!
//! Records are length-framed and checksummed (FNV-1a over the payload);
//! writes append under a sidecar file lock, so the file is valid at every
//! record boundary. A crashed writer leaves at worst a broken tail, which
//! the scanner skips (lost entries read as misses — recompute, never
//! failure) and the next append cuts off before it writes, so its record
//! starts on a record boundary. Re-`put`ting a key appends a newer record;
//! the scan's later-wins rule keeps point lookups on the newest version and
//! compaction drops the dead bytes.
//!
//! ## Eviction
//!
//! When an append would push the file past [`StoreConfig::max_bytes`] the
//! store compacts: provenance rows ([`Table::is_provenance`]) are always
//! kept, cache entries are kept newest-touched-first while they fit, and the
//! survivors are rewritten through a temp file + atomic rename. A reader
//! holding a stale index entry across a compaction observes
//! [`Lookup::Evicted`] — an expected race that downgrades to recompute, not
//! an I/O error.

use super::{Lookup, QorQuery, QorRow, StageRow, Store, StoreConfig, StoreError, Table};
use eda_netlist::memo::fnv1a;
use std::collections::HashMap;
use std::fs::{self, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const HEADER: &[u8] = b"eda-store v1\n";
const REC_MAGIC: &[u8] = b"%rec ";

fn encode_header(table: Table, key: u64, payload_len: usize, sum: u64) -> String {
    format!("%rec {} {key:016x} {payload_len} {sum:016x}\n", table.as_str())
}

/// One indexed record.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Byte offset of the record header line in the file.
    offset: u64,
    header_len: u32,
    payload_len: u32,
    /// FNV-1a of the payload, as claimed by the header (verified on read).
    sum: u64,
    /// LRU clock value of the last hit (or the scan order on open).
    touched: u64,
}

impl Entry {
    fn record_len(&self) -> u64 {
        self.header_len as u64 + self.payload_len as u64 + 1
    }
}

#[derive(Debug, Default)]
struct Inner {
    /// Inode of the file the index was built against (0 = unknown).
    ino: u64,
    /// File size as of the last scan.
    file_len: u64,
    /// One past the last record the scan accepted — where the next append
    /// lands. Short of `file_len` when the file ends in a torn record.
    tail: u64,
    /// Monotonic LRU clock.
    touch: u64,
    index: HashMap<(Table, u64), Entry>,
    next_qor: u64,
    next_qstage: u64,
}

/// Why a point read at an indexed offset did not produce a payload.
enum ReadFail {
    /// The bytes at the offset are not the expected record: the file was
    /// compacted or replaced under us.
    Stale,
    /// The record is where the index says, but its content fails
    /// validation.
    Corrupt(String),
}

/// Sidecar lock guarding cross-process writes. Dropping releases it.
struct FileLock {
    path: PathBuf,
}

impl Drop for FileLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

fn acquire_lock(path: &Path) -> Result<FileLock, StoreError> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match OpenOptions::new().write(true).create_new(true).open(path) {
            Ok(mut f) => {
                let _ = write!(f, "{}", std::process::id());
                return Ok(FileLock { path: path.to_path_buf() });
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                // A lock abandoned by a dead writer goes stale after 30 s.
                let stale = fs::metadata(path)
                    .ok()
                    .and_then(|m| m.modified().ok())
                    .and_then(|m| m.elapsed().ok())
                    .is_some_and(|age| age > Duration::from_secs(30));
                if stale {
                    let _ = fs::remove_file(path);
                    continue;
                }
                if Instant::now() >= deadline {
                    return Err(StoreError::LockTimeout(path.to_path_buf()));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// The file-backed flow store. Cheap to share: in-process callers clone an
/// `Arc<FlowStore>`; separate processes open the same path and coordinate
/// through the sidecar write lock and stale-tolerant reads.
#[derive(Debug)]
pub struct FlowStore {
    cfg: StoreConfig,
    lock_path: PathBuf,
    inner: Mutex<Inner>,
}

impl FlowStore {
    /// Opens (creating if absent) the store file described by `cfg` and
    /// indexes its records. A file with a broken tail or embedded garbage
    /// opens fine — unreadable records are simply not indexed.
    ///
    /// # Errors
    ///
    /// Fails only when the file (or its parent directory) cannot be
    /// created or read at all.
    pub fn open(cfg: &StoreConfig) -> Result<FlowStore, StoreError> {
        if let Some(parent) = cfg.path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let mut lock_name = cfg.path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
        lock_name.push(".lock");
        let lock_path = cfg.path.with_file_name(lock_name);
        let store = FlowStore { cfg: cfg.clone(), lock_path, inner: Mutex::new(Inner::default()) };
        {
            let mut inner = store.lock_inner();
            if fs::metadata(&store.cfg.path).is_err() {
                fs::write(&store.cfg.path, HEADER)?;
            }
            store.rescan(&mut inner)?;
        }
        Ok(store)
    }

    /// The store file path.
    pub fn path(&self) -> &Path {
        &self.cfg.path
    }

    /// The configuration the store was opened with.
    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    fn lock_inner(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn stat(&self) -> Option<(u64, u64)> {
        fs::metadata(&self.cfg.path).ok().map(|m| (m.ino(), m.len()))
    }

    /// Rebuilds the index from the file (full scan).
    fn rescan(&self, inner: &mut Inner) -> Result<(), StoreError> {
        let bytes = fs::read(&self.cfg.path)?;
        let (ino, _) = self.stat().unwrap_or((0, 0));
        inner.ino = ino;
        inner.index.clear();
        inner.next_qor = 0;
        inner.next_qstage = 0;
        inner.tail = Self::scan(inner, &bytes, 0);
        inner.file_len = bytes.len() as u64;
        Ok(())
    }

    /// Brings the index up to date if the file changed since the last scan:
    /// appended-to files are scanned incrementally from the last accepted
    /// record (a record that was still being written last time is whole
    /// now), replaced or shrunk files from scratch. Missing files are
    /// recreated empty.
    fn refresh(&self, inner: &mut Inner) -> Result<(), StoreError> {
        match self.stat() {
            None => {
                fs::write(&self.cfg.path, HEADER)?;
                self.rescan(inner)
            }
            Some((ino, len)) => {
                if ino != inner.ino || len < inner.tail {
                    self.rescan(inner)
                } else if len != inner.file_len {
                    self.scan_tail(inner)
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Indexes what follows the last accepted record. Same-inode writers
    /// only append, or cut a torn tail and append, so everything before
    /// `tail` is as it was scanned.
    fn scan_tail(&self, inner: &mut Inner) -> Result<(), StoreError> {
        let mut f = fs::File::open(&self.cfg.path)?;
        f.seek(SeekFrom::Start(inner.tail))?;
        let mut bytes = Vec::new();
        f.read_to_end(&mut bytes)?;
        let base = inner.tail;
        inner.tail = Self::scan(inner, &bytes, base);
        inner.file_len = base + bytes.len() as u64;
        Ok(())
    }

    /// Indexes every parseable record in `bytes` (positioned at `base` in
    /// the file), later records winning duplicate keys. Garbage resyncs to
    /// the next `\n%rec `; a truncated tail is dropped. Returns the file
    /// offset one past the last record accepted (past the file header, or
    /// `base`, when there is none).
    fn scan(inner: &mut Inner, bytes: &[u8], base: u64) -> u64 {
        let mut pos = 0usize;
        if base == 0 && bytes.starts_with(HEADER) {
            pos = HEADER.len();
        }
        let mut accepted = pos;
        while pos < bytes.len() {
            if !bytes[pos..].starts_with(REC_MAGIC) {
                match bytes[pos..].windows(6).position(|w| w == b"\n%rec ") {
                    Some(i) => {
                        pos += i + 1;
                        continue;
                    }
                    None => break,
                }
            }
            // Header lines are short; a missing newline within the bound
            // means a truncated or corrupted header.
            let bound = (pos + 160).min(bytes.len());
            let Some(nl) = bytes[pos..bound].iter().position(|&b| b == b'\n') else {
                break;
            };
            let parsed = std::str::from_utf8(&bytes[pos + REC_MAGIC.len()..pos + nl])
                .ok()
                .and_then(|line| {
                    let mut f = line.split(' ');
                    let table = Table::parse(f.next()?)?;
                    let key = u64::from_str_radix(f.next()?, 16).ok()?;
                    let len: usize = f.next()?.parse().ok()?;
                    let sum = u64::from_str_radix(f.next()?, 16).ok()?;
                    if f.next().is_some() {
                        return None;
                    }
                    Some((table, key, len, sum))
                });
            let Some((table, key, len, sum)) = parsed else {
                pos += 1;
                continue;
            };
            let payload_off = pos + nl + 1;
            if payload_off + len + 1 > bytes.len() {
                break; // truncated tail: entries past here are lost
            }
            if bytes[payload_off + len] != b'\n' {
                pos += 1;
                continue;
            }
            inner.touch += 1;
            inner.index.insert(
                (table, key),
                Entry {
                    offset: base + pos as u64,
                    header_len: (nl + 1) as u32,
                    payload_len: len as u32,
                    sum,
                    touched: inner.touch,
                },
            );
            match table {
                Table::Qor => inner.next_qor = inner.next_qor.max(key + 1),
                Table::QStage => inner.next_qstage = inner.next_qstage.max(key + 1),
                _ => {}
            }
            pos = payload_off + len + 1;
            accepted = pos;
        }
        base + accepted as u64
    }

    /// Reads and validates one record at its indexed location.
    fn read_entry(&self, table: Table, key: u64, e: &Entry) -> Result<String, ReadFail> {
        let expected = encode_header(table, key, e.payload_len as usize, e.sum);
        let total = e.record_len() as usize;
        let mut buf = vec![0u8; total];
        let read = fs::File::open(&self.cfg.path)
            .and_then(|mut f| {
                f.seek(SeekFrom::Start(e.offset))?;
                f.read_exact(&mut buf)
            });
        if read.is_err() {
            return Err(ReadFail::Stale);
        }
        if &buf[..e.header_len as usize] != expected.as_bytes() {
            return Err(ReadFail::Stale);
        }
        let payload = &buf[e.header_len as usize..total - 1];
        if buf[total - 1] != b'\n' {
            return Err(ReadFail::Corrupt("record framing".to_string()));
        }
        if fnv1a(payload.iter().copied()) != e.sum {
            return Err(ReadFail::Corrupt("checksum mismatch".to_string()));
        }
        String::from_utf8(payload.to_vec())
            .map_err(|_| ReadFail::Corrupt("non-utf8 payload".to_string()))
    }

    /// Appends one record under the already-held write lock. Bytes past the
    /// last whole record — looked at again now that the lock is held — are
    /// a dead writer's torn append (a live one would hold the lock): they
    /// are cut off first, or the new header would sit mid-line where no
    /// later scan resyncs to it.
    fn append_record(
        &self,
        inner: &mut Inner,
        table: Table,
        key: u64,
        payload: &str,
    ) -> Result<(), StoreError> {
        self.refresh(inner)?;
        if inner.tail < inner.file_len {
            self.scan_tail(inner)?;
        }
        let sum = fnv1a(payload.bytes());
        let header = encode_header(table, key, payload.len(), sum);
        let rec_len = header.len() as u64 + payload.len() as u64 + 1;
        if inner.tail + rec_len > self.cfg.max_bytes {
            self.compact(inner, rec_len)?;
        }
        let mut f = OpenOptions::new().append(true).open(&self.cfg.path)?;
        if inner.tail < inner.file_len {
            f.set_len(inner.tail)?;
        }
        f.write_all(header.as_bytes())?;
        f.write_all(payload.as_bytes())?;
        f.write_all(b"\n")?;
        inner.touch += 1;
        inner.index.insert(
            (table, key),
            Entry {
                offset: inner.tail,
                header_len: header.len() as u32,
                payload_len: payload.len() as u32,
                sum,
                touched: inner.touch,
            },
        );
        inner.tail += rec_len;
        inner.file_len = inner.tail;
        Ok(())
    }

    /// Rewrites the file keeping all provenance rows plus the
    /// most-recently-touched cache entries that fit under
    /// `max_bytes - reserve`, through a temp file and atomic rename.
    fn compact(&self, inner: &mut Inner, reserve: u64) -> Result<(), StoreError> {
        let bytes = fs::read(&self.cfg.path)?;
        let budget = self.cfg.max_bytes.saturating_sub(reserve);
        let in_file = |e: &Entry| (e.offset + e.record_len()) as usize <= bytes.len();
        let payload_ok = |e: &Entry| {
            let start = (e.offset + e.header_len as u64) as usize;
            fnv1a(bytes[start..start + e.payload_len as usize].iter().copied()) == e.sum
        };

        let mut kept: Vec<((Table, u64), Entry)> = Vec::new();
        let mut used = HEADER.len() as u64;
        for (&k, e) in inner.index.iter().filter(|((t, _), e)| t.is_provenance() && in_file(e)) {
            used += e.record_len();
            kept.push((k, *e));
        }
        if used > budget {
            return Err(StoreError::TooLarge { need: reserve, max: self.cfg.max_bytes });
        }
        let mut cache: Vec<((Table, u64), Entry)> = inner
            .index
            .iter()
            .filter(|((t, _), e)| !t.is_provenance() && in_file(e) && payload_ok(e))
            .map(|(&k, e)| (k, *e))
            .collect();
        cache.sort_by_key(|(_, e)| std::cmp::Reverse(e.touched));
        for (k, e) in cache {
            if used + e.record_len() <= budget {
                used += e.record_len();
                kept.push((k, e));
            }
        }
        // Rewrite in original offset order so append ordering survives.
        kept.sort_by_key(|(_, e)| e.offset);
        let tmp = self.cfg.path.with_extension(format!("tmp.{}", std::process::id()));
        let mut out = Vec::with_capacity(used as usize);
        out.extend_from_slice(HEADER);
        let mut new_index: HashMap<(Table, u64), Entry> = HashMap::new();
        for (k, e) in kept {
            let new_offset = out.len() as u64;
            let start = e.offset as usize;
            out.extend_from_slice(&bytes[start..start + e.record_len() as usize]);
            new_index.insert(k, Entry { offset: new_offset, ..e });
        }
        fs::write(&tmp, &out)?;
        fs::rename(&tmp, &self.cfg.path)?;
        inner.index = new_index;
        inner.file_len = out.len() as u64;
        inner.tail = inner.file_len;
        inner.ino = self.stat().map(|(ino, _)| ino).unwrap_or(0);
        Ok(())
    }

    /// Newest-first sequence rows of `table`, parsed by `parse`, filtered
    /// by `keep`, truncated to `last` (0 = all). Malformed or unreadable
    /// rows are skipped.
    fn history<R>(
        &self,
        table: Table,
        last: usize,
        parse: impl Fn(u64, &str) -> Option<R>,
        keep: impl Fn(&R) -> bool,
    ) -> Result<Vec<R>, StoreError> {
        let mut inner = self.lock_inner();
        self.refresh(&mut inner)?;
        let mut keys: Vec<u64> =
            inner.index.keys().filter(|(t, _)| *t == table).map(|&(_, k)| k).collect();
        keys.sort_unstable_by_key(|&k| std::cmp::Reverse(k));
        let mut rows = Vec::new();
        for k in keys {
            let Some(e) = inner.index.get(&(table, k)).copied() else { continue };
            let Ok(payload) = self.read_entry(table, k, &e) else { continue };
            if let Some(row) = parse(k, &payload) {
                if keep(&row) {
                    rows.push(row);
                    if last > 0 && rows.len() == last {
                        break;
                    }
                }
            }
        }
        Ok(rows)
    }
}

impl Store for FlowStore {
    fn put(&self, table: Table, key: u64, payload: &str) -> Result<(), StoreError> {
        let _lk = acquire_lock(&self.lock_path)?;
        let mut inner = self.lock_inner();
        self.append_record(&mut inner, table, key, payload)
    }

    fn get(&self, table: Table, key: u64) -> Lookup {
        let mut inner = self.lock_inner();
        let mut entry = inner.index.get(&(table, key)).copied();
        if entry.is_none() {
            // Another process may have appended since our last scan; a miss
            // is the cheap moment to find out.
            if self.refresh(&mut inner).is_err() {
                return Lookup::Miss;
            }
            entry = inner.index.get(&(table, key)).copied();
        }
        let Some(e) = entry else {
            return Lookup::Miss;
        };
        match self.read_entry(table, key, &e) {
            Ok(p) => {
                inner.touch += 1;
                let now = inner.touch;
                if let Some(slot) = inner.index.get_mut(&(table, key)) {
                    slot.touched = now;
                }
                Lookup::Hit(p)
            }
            Err(ReadFail::Corrupt(reason)) => Lookup::Corrupt(reason),
            Err(ReadFail::Stale) => {
                // The file was compacted or replaced between probe and
                // read. Rebuild the index and try once more; a key that is
                // gone was evicted — an expected race, not an error.
                if self.rescan(&mut inner).is_err() {
                    return Lookup::Evicted;
                }
                match inner.index.get(&(table, key)).copied() {
                    None => Lookup::Evicted,
                    Some(e2) => match self.read_entry(table, key, &e2) {
                        Ok(p) => {
                            inner.touch += 1;
                            let now = inner.touch;
                            if let Some(slot) = inner.index.get_mut(&(table, key)) {
                                slot.touched = now;
                            }
                            Lookup::Hit(p)
                        }
                        Err(ReadFail::Corrupt(reason)) => Lookup::Corrupt(reason),
                        Err(ReadFail::Stale) => Lookup::Evicted,
                    },
                }
            }
        }
    }

    fn append(&self, table: Table, payload: &str) -> Result<u64, StoreError> {
        let _lk = acquire_lock(&self.lock_path)?;
        let mut inner = self.lock_inner();
        self.refresh(&mut inner)?;
        let key = match table {
            Table::Qor => inner.next_qor,
            Table::QStage => inner.next_qstage,
            // Sequence semantics only exist on the provenance tables;
            // cache tables get explicit content-addressed keys via `put`.
            Table::Stage | Table::Sub => inner.index.len() as u64,
        };
        self.append_record(&mut inner, table, key, payload)?;
        match table {
            Table::Qor => inner.next_qor = key + 1,
            Table::QStage => inner.next_qstage = key + 1,
            _ => {}
        }
        Ok(key)
    }

    fn len_bytes(&self) -> u64 {
        self.stat().map(|(_, len)| len).unwrap_or(0)
    }
}

// The read side over the provenance tables.
impl FlowStore {
    /// Whole-run QoR history matching `q`, newest first.
    ///
    /// # Errors
    ///
    /// Fails only on I/O; malformed rows are skipped, never fatal.
    pub fn qor_history(&self, q: &QorQuery) -> Result<Vec<QorRow>, StoreError> {
        self.history(Table::Qor, q.last, QorRow::parse, |r: &QorRow| {
            q.design.as_deref().is_none_or(|d| r.is_design(d))
        })
    }

    /// Per-stage history matching `q` (design and stage filters), newest
    /// first.
    ///
    /// # Errors
    ///
    /// Fails only on I/O; malformed rows are skipped, never fatal.
    pub fn stage_history(&self, q: &QorQuery) -> Result<Vec<StageRow>, StoreError> {
        self.history(Table::QStage, q.last, StageRow::parse, |r: &StageRow| {
            q.design.as_deref().is_none_or(|d| r.is_design(d)) && q.stage.as_deref().is_none_or(|s| s == r.stage)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("eda-store-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        dir.join("flow.store")
    }

    #[test]
    fn put_get_roundtrip_and_replacement() {
        let cfg = StoreConfig::at(scratch("roundtrip"));
        let s = FlowStore::open(&cfg).unwrap();
        assert_eq!(s.get(Table::Stage, 1), Lookup::Miss);
        s.put(Table::Stage, 1, "first").unwrap();
        s.put(Table::Sub, 1, "other table, same key").unwrap();
        assert_eq!(s.get(Table::Stage, 1), Lookup::Hit("first".into()));
        s.put(Table::Stage, 1, "second").unwrap();
        assert_eq!(s.get(Table::Stage, 1), Lookup::Hit("second".into()));
        assert_eq!(s.get(Table::Sub, 1), Lookup::Hit("other table, same key".into()));
    }

    #[test]
    fn reopen_rebuilds_the_index() {
        let cfg = StoreConfig::at(scratch("reopen"));
        {
            let s = FlowStore::open(&cfg).unwrap();
            s.put(Table::Stage, 7, "persisted").unwrap();
            s.append(Table::Qor, "run d generic 0 0 0 0 0 0 0").unwrap();
        }
        let s = FlowStore::open(&cfg).unwrap();
        assert_eq!(s.get(Table::Stage, 7), Lookup::Hit("persisted".into()));
        // Sequence numbering continues where the prior process stopped.
        assert_eq!(s.append(Table::Qor, "run d generic 0 0 0 0 0 0 0").unwrap(), 1);
    }

    #[test]
    fn corrupted_payload_reads_corrupt_and_broken_tail_is_lost() {
        let cfg = StoreConfig::at(scratch("corrupt"));
        let s = FlowStore::open(&cfg).unwrap();
        s.put(Table::Stage, 1, "aaaaaaaa").unwrap();
        s.put(Table::Stage, 2, "bbbbbbbb").unwrap();
        drop(s);
        // Flip one payload byte of entry 1.
        let mut bytes = fs::read(&cfg.path).unwrap();
        let at = bytes.windows(8).position(|w| w == b"aaaaaaaa").unwrap();
        bytes[at] = b'Z';
        // Truncate mid-way through the last record.
        let keep = bytes.len() - 3;
        fs::write(&cfg.path, &bytes[..keep]).unwrap();
        let s = FlowStore::open(&cfg).unwrap();
        assert!(matches!(s.get(Table::Stage, 1), Lookup::Corrupt(_)));
        assert_eq!(s.get(Table::Stage, 2), Lookup::Miss, "truncated tail is lost, not fatal");
        // The store keeps working.
        s.put(Table::Stage, 3, "cccc").unwrap();
        assert_eq!(s.get(Table::Stage, 3), Lookup::Hit("cccc".into()));
    }

    #[test]
    fn append_after_a_torn_tail_survives_reopen() {
        let cfg = StoreConfig::at(scratch("torn"));
        let s = FlowStore::open(&cfg).unwrap();
        s.put(Table::Stage, 1, "alpha line one").unwrap();
        s.put(Table::Stage, 2, "bravo line two which is torn").unwrap();
        drop(s);
        // kill -9 mid-append: the last record loses its final 12 bytes.
        let bytes = fs::read(&cfg.path).unwrap();
        fs::write(&cfg.path, &bytes[..bytes.len() - 12]).unwrap();

        let s = FlowStore::open(&cfg).unwrap();
        s.put(Table::Stage, 3, "charlie").unwrap();
        let seq = s.append(Table::Qor, "run d generic 0 0 0 0 0 0 0").unwrap();
        drop(s);

        // The first record appended after the tear starts on a record
        // boundary, so a later open finds it — and everything after it.
        let s = FlowStore::open(&cfg).unwrap();
        assert_eq!(s.get(Table::Stage, 1), Lookup::Hit("alpha line one".into()));
        assert_eq!(s.get(Table::Stage, 2), Lookup::Miss, "the torn record is lost");
        assert_eq!(s.get(Table::Stage, 3), Lookup::Hit("charlie".into()));
        assert_eq!(s.append(Table::Qor, "run d generic 0 0 0 0 0 0 0").unwrap(), seq + 1);
        let text = fs::read_to_string(&cfg.path).unwrap();
        assert!(!text.contains("bravo"), "the torn bytes were cut off, not appended to");
    }

    #[test]
    fn a_record_that_replaced_a_torn_tail_byte_for_byte_is_not_cut() {
        let cfg = StoreConfig::at(scratch("torn-race"));
        let s = FlowStore::open(&cfg).unwrap();
        s.put(Table::Stage, 1, "alpha line one").unwrap();
        let whole = s.len_bytes();
        s.put(Table::Stage, 2, "bravo line two which is torn").unwrap();
        drop(s);
        let bytes = fs::read(&cfg.path).unwrap();
        fs::write(&cfg.path, &bytes[..bytes.len() - 12]).unwrap();
        let torn = bytes.len() - 12 - whole as usize;

        // Two handles index the torn file. `b` repairs it with a record
        // exactly as long as the torn bytes, so the length `a` remembers
        // still matches the file: `a` must look again before it cuts.
        let a = FlowStore::open(&cfg).unwrap();
        let b = FlowStore::open(&cfg).unwrap();
        let payload = "x".repeat(torn - encode_header(Table::Stage, 3, 10, 0).len() - 1);
        b.put(Table::Stage, 3, &payload).unwrap();
        assert_eq!(a.len_bytes(), whole + torn as u64);
        a.put(Table::Stage, 4, "delta").unwrap();

        let s = FlowStore::open(&cfg).unwrap();
        assert_eq!(s.get(Table::Stage, 3), Lookup::Hit(payload));
        assert_eq!(s.get(Table::Stage, 4), Lookup::Hit("delta".into()));
    }

    #[test]
    fn lru_compaction_keeps_provenance_and_newest_entries() {
        let path = scratch("lru");
        let cfg = StoreConfig::at(path).with_max_bytes(4096);
        let s = FlowStore::open(&cfg).unwrap();
        let seq = s.append(Table::Qor, "run d generic 0 0 0 0 0 0 0").unwrap();
        let blob = "x".repeat(900);
        for k in 0..20u64 {
            s.put(Table::Stage, k, &blob).unwrap();
            assert!(s.len_bytes() <= 4096, "store stays under max_bytes after put {k}");
        }
        // Provenance survived every compaction.
        let rows = s.qor_history(&QorQuery::default()).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].seq, seq);
        // The newest cache entry survived; the oldest did not.
        assert_eq!(s.get(Table::Stage, 19), Lookup::Hit(blob.clone()));
        assert_eq!(s.get(Table::Stage, 0), Lookup::Miss);
    }

    #[test]
    fn a_record_compaction_cannot_fit_is_rejected_and_evicts_nothing() {
        let path = scratch("toolarge");
        let cfg = StoreConfig::at(path).with_max_bytes(1024);
        let s = FlowStore::open(&cfg).unwrap();
        let blob = "y".repeat(600);
        s.put(Table::Stage, 1, &blob).unwrap();
        let err = s.put(Table::Stage, 2, &"y".repeat(2000)).unwrap_err();
        assert!(matches!(err, StoreError::TooLarge { .. }));
        assert_eq!(s.get(Table::Stage, 1), Lookup::Hit(blob), "existing entries untouched");
    }

    #[test]
    fn stale_reader_sees_evicted_not_an_error() {
        let path = scratch("evicted");
        let cfg = StoreConfig::at(path).with_max_bytes(4096);
        let writer = FlowStore::open(&cfg).unwrap();
        let blob = "z".repeat(900);
        writer.put(Table::Stage, 1, &blob).unwrap();
        // A second handle (stands in for another process) indexes entry 1.
        let reader = FlowStore::open(&cfg).unwrap();
        assert_eq!(reader.get(Table::Stage, 1), Lookup::Hit(blob.clone()));
        // The writer pushes entry 1 out through LRU compaction.
        for k in 2..20u64 {
            writer.put(Table::Stage, k, &blob).unwrap();
        }
        assert_eq!(writer.get(Table::Stage, 1), Lookup::Miss);
        // The reader's index still points at the pre-compaction offset: the
        // probe-then-read race resolves to Evicted, never an I/O error.
        assert_eq!(reader.get(Table::Stage, 1), Lookup::Evicted);
        // And the reader recovers fully for live keys.
        assert_eq!(reader.get(Table::Stage, 19), Lookup::Hit(blob));
    }

    #[test]
    fn cross_handle_appends_become_visible() {
        let cfg = StoreConfig::at(scratch("shared"));
        let a = FlowStore::open(&cfg).unwrap();
        let b = FlowStore::open(&cfg).unwrap();
        a.put(Table::Sub, 11, "from a").unwrap();
        assert_eq!(b.get(Table::Sub, 11), Lookup::Hit("from a".into()));
        b.put(Table::Sub, 12, "from b").unwrap();
        assert_eq!(a.get(Table::Sub, 12), Lookup::Hit("from b".into()));
    }

    #[test]
    fn history_filters_and_orders_newest_first() {
        let cfg = StoreConfig::at(scratch("history"));
        let s = FlowStore::open(&cfg).unwrap();
        for i in 0..5 {
            let row = QorRow {
                seq: 0,
                design: if i % 2 == 0 { "even".into() } else { "odd".into() },
                // Odd rows name their content too; even rows are as written
                // before rows carried a digest.
                design_digest: (i % 2 == 1).then_some(0xd16e_0000 + i),
                node: "generic".into(),
                cfg_fp: i,
                qor_fp: i,
                wns_ps: -(i as f64),
                overflow: i,
                hpwl_um: 10.0 * i as f64,
                wall_s: 0.5,
                peak_rss_bytes: 0,
            };
            s.append(Table::Qor, &row.to_payload()).unwrap();
        }
        let all = s.qor_history(&QorQuery::default()).unwrap();
        assert_eq!(all.len(), 5);
        assert!(all.windows(2).all(|w| w[0].seq > w[1].seq), "newest first");
        let even = s
            .qor_history(&QorQuery { design: Some("even".into()), last: 2, ..Default::default() })
            .unwrap();
        assert_eq!(even.len(), 2);
        assert_eq!(even[0].cfg_fp, 4);
        assert_eq!(even[1].cfg_fp, 2);
        let by_digest = s
            .qor_history(&QorQuery { design: Some(format!("{:016x}", 0xd16e_0003u64)), ..Default::default() })
            .unwrap();
        assert_eq!(by_digest.iter().map(|r| r.cfg_fp).collect::<Vec<_>>(), [3]);
        for row in &all[..2] {
            assert_eq!(QorRow::parse(row.seq, &row.to_payload()).as_ref(), Some(row));
        }
    }

    #[test]
    fn stage_history_roundtrip() {
        let cfg = StoreConfig::at(scratch("qstage"));
        let s = FlowStore::open(&cfg).unwrap();
        for stage in ["1_synthesis", "7_route"] {
            let row = StageRow {
                seq: 0,
                design: "demo design".into(),
                design_digest: None,
                stage: stage.into(),
                outcome: "ok".into(),
                attempts: 1,
                wall_s: 0.25,
            };
            s.append(Table::QStage, &row.to_payload()).unwrap();
        }
        let routes = s
            .stage_history(&QorQuery {
                design: Some("demo design".into()),
                stage: Some("7_route".into()),
                ..Default::default()
            })
            .unwrap();
        assert_eq!(routes.len(), 1);
        assert_eq!(routes[0].stage, "7_route");
        assert_eq!(routes[0].design, "demo design");
    }
}
