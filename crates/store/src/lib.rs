//! # tdo-store — persistent, content-addressed experiment-result store
//!
//! The experiment engine memoizes simulation results in memory, per process.
//! This crate makes that cache durable and shareable: one append-only,
//! checksummed record log under one directory, keyed by a stable 64-bit
//! FNV-1a hash of the experiment cell's fingerprint. Every bench binary, CI
//! job and CLI invocation pointed at the same directory (`TDO_STORE` /
//! `--store-dir`, default `.tdo-store/`) reuses each other's simulations,
//! one at a time: an open store holds an exclusive lock on its directory.
//!
//! The store is deliberately generic: it maps `u64` keys to versioned
//! integer payloads (`Vec<u64>`). The `SimResult` record schema lives next
//! to `SimResult` itself (`tdo_sim::persist`), so this crate has no
//! dependencies and no knowledge of simulator types.
//!
//! **Durability contract.** A put is one append and one `fsync` of the log,
//! so a crash can only ever lose the record being written, never corrupt
//! acknowledged ones. The log is the only copy of the key map: open scans
//! it once and keeps the newest record per key. Records that fail their
//! checksum are *quarantined* — moved to `quarantine.log` and dropped from
//! the live log — rather than failing the run; a store with a torn tail
//! (killed mid-append) or a flipped bit heals itself on open and keeps
//! serving the surviving records. The log is rewritten (write to a temp
//! file, then rename) only to heal it, to start it, and by [`Store::gc`].

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod record;
pub mod shard;

use std::collections::HashMap;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tdo_fault::Site;
use tdo_metrics::{Counter, Histogram, HistogramSnapshot, Registry};

pub use record::FORMAT_VERSION;
pub use shard::{ShardMap, ShardedStore};

use record::{Decoded, Record};

/// Environment variable naming the store directory.
pub const STORE_ENV: &str = "TDO_STORE";
/// Default store directory (relative to the working directory).
pub const DEFAULT_DIR: &str = ".tdo-store";

const LOG_FILE: &str = "records.log";
const QUARANTINE_FILE: &str = "quarantine.log";

#[derive(Clone, Copy, Debug)]
struct Entry {
    offset: u64,
    version: u32,
    words: u32,
}

#[derive(Debug, Default)]
struct Inner {
    index: HashMap<u64, Entry>,
    log_len: u64,
    shadowed: u64,
}

/// Point-in-time store statistics (see [`Store::stats`]).
#[derive(Clone, Debug, Default)]
pub struct StoreStats {
    /// Live (addressable) records.
    pub live_records: u64,
    /// Records in the log superseded by a newer write of the same key.
    pub shadowed_records: u64,
    /// Log file size in bytes.
    pub log_bytes: u64,
    /// Quarantine file size in bytes (total ever quarantined).
    pub quarantine_bytes: u64,
    /// Corrupt records this process quarantined at open or caught on read.
    pub quarantined: u64,
    /// Successful reads served by this process.
    pub hits: u64,
    /// Lookups this process could not serve (absent or stale version).
    pub misses: u64,
    /// Records written by this process.
    pub puts: u64,
}

/// Live-record footprint of one schema generation (see [`Store::size_stats`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GenerationSize {
    /// Schema version of the records.
    pub version: u32,
    /// Live records stored at this version.
    pub records: u64,
    /// Encoded bytes those records occupy in the log.
    pub bytes: u64,
}

/// On-demand size breakdown of the live records (see [`Store::size_stats`]).
#[derive(Clone, Debug, Default)]
pub struct SizeStats {
    /// Per-generation record and byte totals, sorted by version.
    pub per_generation: Vec<GenerationSize>,
    /// Distribution of encoded record sizes in bytes.
    pub record_bytes: HistogramSnapshot,
}

/// Outcome of a full-log verification pass (see [`Store::verify`] and
/// [`Store::verify_dir`]).
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// Records whose checksum verified.
    pub good: u64,
    /// Records whose checksum failed (still counted, not yet quarantined).
    pub corrupt: u64,
    /// Bytes at the end of the log that do not frame records.
    pub trailing_garbage_bytes: u64,
}

impl VerifyReport {
    /// Whether the log is fully intact.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.corrupt == 0 && self.trailing_garbage_bytes == 0
    }
}

/// Outcome of a garbage collection (see [`Store::gc`]).
#[derive(Clone, Debug, Default)]
pub struct GcReport {
    /// Live records kept.
    pub kept: u64,
    /// Live records dropped for having a stale schema version.
    pub dropped_stale: u64,
    /// Shadowed or corrupt records reclaimed.
    pub dropped_shadowed: u64,
    /// Log size before, in bytes.
    pub bytes_before: u64,
    /// Log size after, in bytes.
    pub bytes_after: u64,
}

/// A persistent key → versioned-integer-payload store over one directory.
///
/// All operations are thread-safe; the store can be shared behind an `Arc`
/// by engine workers and server threads alike. It holds an exclusive lock
/// on its directory until dropped, so no second store appends to the same
/// log.
pub struct Store {
    dir: PathBuf,
    /// Open handle on `dir`: holds the store's lock, and is synced after a
    /// log rename. Puts append to the renamed file, so a rename lost in a
    /// crash would take the records acknowledged since with it.
    dir_handle: fs::File,
    inner: Mutex<Inner>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    puts: Arc<Counter>,
    quarantined: Arc<Counter>,
    get_latency_us: Arc<Histogram>,
    put_latency_us: Arc<Histogram>,
    verify_latency_us: Arc<Histogram>,
    record_bytes: Arc<Histogram>,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store").field("dir", &self.dir).finish_non_exhaustive()
    }
}

impl Store {
    /// Resolves the store directory: an explicit override (`--store-dir`),
    /// else [`STORE_ENV`], else [`DEFAULT_DIR`].
    #[must_use]
    pub fn resolve_dir(override_dir: Option<&str>) -> PathBuf {
        match override_dir {
            Some(d) => PathBuf::from(d),
            None => match std::env::var(STORE_ENV) {
                Ok(d) if !d.is_empty() => PathBuf::from(d),
                _ => PathBuf::from(DEFAULT_DIR),
            },
        }
    }

    /// Opens (creating if necessary) the store under `dir` and locks the
    /// directory for the store's lifetime.
    ///
    /// The key map is built by one scan of the log. A log the scan cannot
    /// read whole is healed: its corrupt records and torn tail are
    /// quarantined and the log is rewritten with the good records.
    ///
    /// # Errors
    ///
    /// Returns an error naming the directory if another open store holds
    /// it, and any I/O error creating the directory or reading/writing the
    /// store files. Corrupt *contents* are never an error — they are
    /// quarantined.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Store> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let store = Store {
            dir_handle: lock_dir(&dir)?,
            dir,
            inner: Mutex::new(Inner::default()),
            hits: Arc::new(Counter::new()),
            misses: Arc::new(Counter::new()),
            puts: Arc::new(Counter::new()),
            quarantined: Arc::new(Counter::new()),
            get_latency_us: Arc::new(Histogram::new()),
            put_latency_us: Arc::new(Histogram::new()),
            verify_latency_us: Arc::new(Histogram::new()),
            record_bytes: Arc::new(Histogram::new()),
        };
        store.load()?;
        Ok(store)
    }

    /// The directory this store lives in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of live (addressable) records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().index.len()
    }

    /// Whether the store has no live records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up the payload stored under `key`, requiring schema `version`.
    ///
    /// Returns `None` when the key is absent, stored under a different
    /// schema version, or fails its checksum on read (in which case the
    /// key is forgotten — the caller re-simulates and overwrites it — and
    /// the next open quarantines the record if it is bad on disk).
    #[must_use]
    pub fn get(&self, key: u64, version: u32) -> Option<Vec<u64>> {
        let _span = tdo_obs::SpanScope::enter(tdo_obs::FlightKind::StoreGet, key);
        let t0 = Instant::now();
        let out = self.get_inner(key, version);
        self.get_latency_us.observe(elapsed_us(t0));
        out
    }

    fn get_inner(&self, key: u64, version: u32) -> Option<Vec<u64>> {
        let mut inner = self.lock();
        let Some(entry) = inner.index.get(&key).copied() else {
            self.misses.inc();
            return None;
        };
        if entry.version != version {
            self.misses.inc();
            return None;
        }
        match self.read_record(&entry) {
            Ok(Decoded::Good { rec, .. }) if rec.key == key => {
                self.hits.inc();
                Some(rec.payload)
            }
            _ => {
                // Bad bytes under a live key: forget the key. If the bytes
                // are bad on disk too, the next open quarantines them.
                self.quarantined.inc();
                inner.index.remove(&key);
                self.misses.inc();
                None
            }
        }
    }

    /// Writes (or overwrites) the payload under `key` at schema `version`.
    ///
    /// The record is appended to the log and flushed with one `fsync`; an
    /// older record under the same key becomes shadowed (reclaimable by
    /// [`Store::gc`]).
    ///
    /// # Errors
    ///
    /// Returns any I/O error appending or flushing. The store stays
    /// consistent on failure: the next put overwrites a half-appended
    /// record, and the next open quarantines one left at the tail.
    pub fn put(&self, key: u64, version: u32, payload: &[u64]) -> io::Result<()> {
        let _span = tdo_obs::SpanScope::enter(tdo_obs::FlightKind::StorePut, key);
        let t0 = Instant::now();
        let bytes = record::encode_record(&Record { version, key, payload: payload.to_vec() });
        self.record_bytes.observe(bytes.len() as u64);
        let mut inner = self.lock();
        let mut f = fs::OpenOptions::new().write(true).open(self.dir.join(LOG_FILE))?;
        // A previously failed append may have left torn bytes past the last
        // acknowledged record; truncate them so this record lands at
        // `log_len` instead of after mid-log garbage (which would cost every
        // later record on the next rescan).
        let file_len = f.seek(SeekFrom::End(0))?;
        let offset = inner.log_len;
        if file_len > offset {
            f.set_len(offset)?;
        }
        f.seek(SeekFrom::Start(offset))?;
        if let Some(token) = tdo_fault::fire(Site::StoreShortWrite) {
            // Injected crash mid-append: a prefix of the record reaches the
            // file, the caller sees an error, and the tail stays torn.
            let cut = token as usize % bytes.len();
            let _ = f.write_all(&bytes[..cut]);
            let _ = f.sync_data();
            return Err(io::Error::new(io::ErrorKind::WriteZero, "injected short write"));
        }
        f.write_all(&bytes)?;
        if tdo_fault::fire(Site::StoreFsyncFail).is_some() {
            // Injected fsync failure: the bytes may or may not be durable;
            // the record stays unacknowledged (log_len is not advanced).
            return Err(io::Error::other("injected fsync failure"));
        }
        f.sync_data()?;
        inner.log_len = offset + bytes.len() as u64;
        let words = u32::try_from(payload.len()).expect("payload fits u32");
        if inner.index.insert(key, Entry { offset, version, words }).is_some() {
            inner.shadowed += 1;
        }
        self.puts.inc();
        self.put_latency_us.observe(elapsed_us(t0));
        Ok(())
    }

    /// Point-in-time statistics.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let inner = self.lock();
        StoreStats {
            live_records: inner.index.len() as u64,
            shadowed_records: inner.shadowed,
            log_bytes: inner.log_len,
            quarantine_bytes: fs::metadata(self.dir.join(QUARANTINE_FILE)).map_or(0, |m| m.len()),
            quarantined: self.quarantined.get(),
            hits: self.hits.get(),
            misses: self.misses.get(),
            puts: self.puts.get(),
        }
    }

    /// Per-generation (schema-version) footprint of the live records plus
    /// a record-size histogram, computed on demand from the in-memory key
    /// map. Purely a function of the live records, so deterministic for a
    /// given store state.
    #[must_use]
    pub fn size_stats(&self) -> SizeStats {
        let inner = self.lock();
        let hist = Histogram::new();
        let mut per: HashMap<u32, (u64, u64)> = HashMap::new();
        for entry in inner.index.values() {
            let bytes = record::record_len(entry.words) as u64;
            hist.observe(bytes);
            let slot = per.entry(entry.version).or_insert((0, 0));
            slot.0 += 1;
            slot.1 += bytes;
        }
        let mut per_generation: Vec<GenerationSize> = per
            .into_iter()
            .map(|(version, (records, bytes))| GenerationSize { version, records, bytes })
            .collect();
        per_generation.sort_by_key(|g| g.version);
        SizeStats { per_generation, record_bytes: hist.snapshot() }
    }

    /// Registers this store's counters and histograms with `reg` under the
    /// `tdo_store_*` families. Call at most once per registry.
    pub fn register_metrics(&self, reg: &Registry) {
        self.register_metrics_labeled(reg, &[]);
    }

    /// Like [`Store::register_metrics`] but with extra labels on every
    /// family — how a [`shard::ShardedStore`] distinguishes its shards
    /// (`{shard="0"}`, `{shard="1"}`, …) in one registry.
    pub fn register_metrics_labeled(&self, reg: &Registry, labels: &[(&str, &str)]) {
        reg.register_counter(
            "tdo_store_hits_total",
            labels,
            "Reads served from the store by this process.",
            Arc::clone(&self.hits),
        );
        reg.register_counter(
            "tdo_store_misses_total",
            labels,
            "Lookups the store could not serve (absent or stale version).",
            Arc::clone(&self.misses),
        );
        reg.register_counter(
            "tdo_store_puts_total",
            labels,
            "Records written by this process.",
            Arc::clone(&self.puts),
        );
        reg.register_counter(
            "tdo_store_quarantined_total",
            labels,
            "Corrupt records quarantined by this process.",
            Arc::clone(&self.quarantined),
        );
        reg.register_histogram(
            "tdo_store_get_latency_us",
            labels,
            "Store read latency.",
            Arc::clone(&self.get_latency_us),
        );
        reg.register_histogram(
            "tdo_store_put_latency_us",
            labels,
            "Store write latency.",
            Arc::clone(&self.put_latency_us),
        );
        reg.register_histogram(
            "tdo_store_verify_latency_us",
            labels,
            "Full-log verify latency.",
            Arc::clone(&self.verify_latency_us),
        );
        reg.register_histogram(
            "tdo_store_record_bytes",
            labels,
            "Encoded record size at write time.",
            Arc::clone(&self.record_bytes),
        );
    }

    /// Re-reads the whole log and checks every record's checksum without
    /// modifying anything.
    ///
    /// # Errors
    ///
    /// Returns any I/O error reading the log.
    pub fn verify(&self) -> io::Result<VerifyReport> {
        let _span = tdo_obs::SpanScope::enter(tdo_obs::FlightKind::StoreVerify, 0);
        let t0 = Instant::now();
        let _inner = self.lock();
        let report = Scan::of(&fs::read(self.dir.join(LOG_FILE))?).report;
        self.verify_latency_us.observe(elapsed_us(t0));
        Ok(report)
    }

    /// Checks the log under `dir` as it lies on disk, without opening a
    /// store there: opening heals the log, which would erase the damage a
    /// check exists to report. Takes the directory lock while it reads.
    ///
    /// # Errors
    ///
    /// Returns an error naming the directory if an open store holds it,
    /// and any I/O error reading the log.
    pub fn verify_dir(dir: impl AsRef<Path>) -> io::Result<VerifyReport> {
        let dir = dir.as_ref();
        let _dir_lock = lock_dir(dir)?;
        Ok(Scan::of(&fs::read(dir.join(LOG_FILE))?).report)
    }

    /// Compacts the log: keeps only live records whose schema version is
    /// `keep_version`, dropping stale-schema, shadowed and corrupt records
    /// and any bytes past the last acknowledged record. The new log is
    /// committed atomically.
    ///
    /// # Errors
    ///
    /// Returns any I/O error rewriting the log; the old log then stays.
    pub fn gc(&self, keep_version: u32) -> io::Result<GcReport> {
        let mut inner = self.lock();
        let mut bytes = fs::read(self.dir.join(LOG_FILE))?;
        bytes.truncate(usize::try_from(inner.log_len).unwrap_or(usize::MAX));
        let scan = Scan::of(&bytes);
        let mut report = GcReport {
            dropped_shadowed: scan.map.shadowed + scan.report.corrupt,
            bytes_before: bytes.len() as u64,
            ..GcReport::default()
        };
        let mut live: Vec<(u64, Entry)> = scan.map.index.into_iter().collect();
        live.sort_unstable_by_key(|&(key, _)| key);
        let mut log = record::log_header();
        let mut index = HashMap::new();
        for (key, entry) in live {
            if entry.version != keep_version {
                report.dropped_stale += 1;
                continue;
            }
            let start = usize::try_from(entry.offset).expect("offset fits usize");
            index.insert(key, Entry { offset: log.len() as u64, ..entry });
            log.extend_from_slice(&bytes[start..start + record::record_len(entry.words)]);
        }
        self.commit(&self.dir.join(LOG_FILE), &log)?;
        report.kept = index.len() as u64;
        report.bytes_after = log.len() as u64;
        *inner = Inner { index, log_len: log.len() as u64, shadowed: 0 };
        self.dir_handle.sync_all()?;
        Ok(report)
    }

    // ---- internals ------------------------------------------------------

    /// Locks the inner state, recovering from a poisoned mutex (a panicking
    /// thread must not take the whole store down with it).
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Atomic write-then-rename commit of `bytes` to `path`. On error the
    /// rename has not happened; the caller syncs the directory once its
    /// state matches the new file.
    fn commit(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            if let Some(token) = tdo_fault::fire(Site::StoreTornRename) {
                // Injected crash mid-commit: a prefix of the temp file
                // lands, the rename never happens, the target is untouched.
                let cut = token as usize % bytes.len().max(1);
                let _ = f.write_all(&bytes[..cut]);
                return Err(io::Error::new(io::ErrorKind::Interrupted, "injected torn commit"));
            }
            f.write_all(bytes)?;
            f.sync_data()?;
        }
        if tdo_fault::fire(Site::StoreRenameFail).is_some() {
            return Err(io::Error::other("injected rename failure"));
        }
        fs::rename(&tmp, path)
    }

    fn read_record(&self, entry: &Entry) -> io::Result<Decoded> {
        let mut f = fs::File::open(self.dir.join(LOG_FILE))?;
        f.seek(SeekFrom::Start(entry.offset))?;
        let mut buf = vec![0u8; record::record_len(entry.words)];
        match f.read_exact(&mut buf) {
            Ok(()) => {
                if let Some(token) = tdo_fault::fire(Site::StoreReadCorrupt) {
                    // Injected bit rot on the read path: flip one bit so the
                    // checksum trips and the key is forgotten.
                    let pos = token as usize % buf.len();
                    buf[pos] ^= 1 << ((token >> 8) & 7);
                }
                Ok(record::decode_record(&buf))
            }
            Err(_) => Ok(Decoded::Garbage),
        }
    }

    /// Builds the key map from one scan of the log. A missing log is
    /// started, and a log the scan could not read whole is healed first.
    fn load(&self) -> io::Result<()> {
        let bytes = match fs::read(self.dir.join(LOG_FILE)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let mut scan = Scan::of(&bytes);
        if bytes.is_empty() || !scan.bad.is_empty() {
            scan = Scan::of(&self.heal(&bytes, &scan.bad)?);
        }
        *self.lock() = scan.map;
        Ok(())
    }

    /// Appends the `bad` ranges of `bytes` to the quarantine file, commits
    /// a log of everything else (the good records, shadowed ones included,
    /// in their order) and returns it.
    fn heal(&self, bytes: &[u8], bad: &[Range<usize>]) -> io::Result<Vec<u8>> {
        let mut log = record::log_header();
        let mut quarantine = Vec::new();
        let mut at = record::LOG_HEADER_BYTES as usize;
        for range in bad {
            // An unreadable header's range starts at 0, before `at`.
            log.extend_from_slice(&bytes[at.min(range.start)..range.start]);
            quarantine.extend_from_slice(&bytes[range.clone()]);
            at = range.end;
        }
        log.extend_from_slice(&bytes[at.min(bytes.len())..]);
        if !quarantine.is_empty() {
            self.quarantined.add(bad.len() as u64);
            fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.dir.join(QUARANTINE_FILE))?
                .write_all(&quarantine)?;
        }
        self.commit(&self.dir.join(LOG_FILE), &log)?;
        self.dir_handle.sync_all()?;
        Ok(log)
    }
}

/// Takes the exclusive lock an open [`Store`] holds on its directory. The
/// directory, not the log: healing and [`Store::gc`] replace the log file.
fn lock_dir(dir: &Path) -> io::Result<fs::File> {
    let handle = fs::File::open(dir)?;
    match handle.try_lock() {
        Ok(()) => Ok(handle),
        Err(fs::TryLockError::WouldBlock) => Err(io::Error::new(
            io::ErrorKind::WouldBlock,
            format!("store {} is held by another open store", dir.display()),
        )),
        Err(fs::TryLockError::Error(e)) => Err(e),
    }
}

/// Whole microseconds elapsed since `t0`, saturating.
fn elapsed_us(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// One pass over a whole log image: the key map it implies (the newest
/// good record per key wins), the verification counts, and the byte
/// ranges holding no good record.
#[derive(Default)]
struct Scan {
    map: Inner,
    report: VerifyReport,
    /// An unreadable header (then the whole image), records that fail
    /// their checksum, and an unframeable tail, in log order.
    bad: Vec<Range<usize>>,
}

impl Scan {
    fn of(bytes: &[u8]) -> Scan {
        let mut scan = Scan::default();
        scan.map.log_len = bytes.len() as u64;
        if !record::check_log_header(bytes) {
            scan.report.trailing_garbage_bytes = bytes.len() as u64;
            if !bytes.is_empty() {
                scan.bad.push(0..bytes.len());
            }
            return scan;
        }
        let mut pos = record::LOG_HEADER_BYTES as usize;
        while pos < bytes.len() {
            match record::decode_record(&bytes[pos..]) {
                Decoded::Good { rec, len } => {
                    let words = u32::try_from(rec.payload.len()).expect("payload fits u32");
                    let entry = Entry { offset: pos as u64, version: rec.version, words };
                    if scan.map.index.insert(rec.key, entry).is_some() {
                        scan.map.shadowed += 1;
                    }
                    scan.report.good += 1;
                    pos += len;
                }
                Decoded::BadChecksum { len } => {
                    scan.report.corrupt += 1;
                    scan.bad.push(pos..pos + len);
                    pos += len;
                }
                Decoded::Garbage => {
                    scan.report.trailing_garbage_bytes = (bytes.len() - pos) as u64;
                    scan.bad.push(pos..bytes.len());
                    break;
                }
            }
        }
        scan
    }
}
