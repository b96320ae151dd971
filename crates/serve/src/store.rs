//! Persistent content-addressed result store: append-only CRC-checked
//! segments on disk, fronting the in-memory LRU.
//!
//! The disk layer makes the cache survive restarts: because results are
//! deterministic functions of their canonical spec (see [`crate::cache`]),
//! a body read back from disk is byte-identical to the cold run that wrote
//! it, so a freshly booted server serves the same bytes the previous
//! process did.
//!
//! # On-disk format
//!
//! A store directory holds numbered segment files `seg-<n>.log`, each an
//! append-only sequence of records:
//!
//! ```text
//! [magic u32][key_len u32][body_len u32][crc32 u32]  -- 16-byte header, LE
//! [key bytes][body bytes]
//! ```
//!
//! The CRC covers `key || body`. There is no in-place mutation and no
//! separate index file: the in-memory index is rebuilt by scanning the
//! segments in id order at startup (last record for a key wins). A crash
//! mid-append leaves a truncated or CRC-failing tail record; recovery
//! truncates the segment at the last valid record and carries on — losing
//! at most the record being written, never an earlier one.
//!
//! Re-inserting an existing key appends a superseding record and marks the
//! old one dead. When dead bytes outweigh live bytes, [`DiskStore::insert`]
//! compacts opportunistically: live records are rewritten into fresh
//! segments and the old files deleted, preserving every live digest.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::cache::ResultCache;

/// Record-header magic: `"DSR1"` little-endian.
const MAGIC: u32 = 0x3152_5344;
/// Fixed record-header size (magic, key length, body length, CRC).
const HEADER_BYTES: usize = 16;
/// Segment rotation threshold: a new record opens a fresh segment once the
/// active one holds this many bytes. Small enough that compaction rewrites
/// stay incremental, large enough that a segment holds many sweep records.
const MAX_SEGMENT_BYTES: u64 = 8 * 1024 * 1024;
/// Keys are digests (32 hex chars today); cap generously so a scan never
/// mistakes a corrupt length field for a gigantic allocation.
const MAX_KEY_BYTES: u32 = 1024;
/// Bodies are rendered JSON records; same defensive cap (64 MiB).
const MAX_BODY_BYTES: u32 = 64 * 1024 * 1024;

/// IEEE CRC-32 (reflected, polynomial `0xEDB88320`), table-driven.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 == 1 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        table
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = table[usize::from((crc as u8) ^ b)] ^ (crc >> 8);
    }
    !crc
}

/// Where a live record's body lives.
#[derive(Debug, Clone, Copy)]
struct RecordLoc {
    segment: u64,
    /// Byte offset of the body within the segment file.
    body_offset: u64,
    body_len: u32,
}

#[derive(Debug)]
struct StoreInner {
    /// key -> newest record holding it.
    index: HashMap<String, RecordLoc>,
    /// Ids of all segment files on disk, ascending.
    segments: Vec<u64>,
    /// Append handle for the newest segment.
    active: File,
    active_id: u64,
    active_bytes: u64,
    /// Bytes consumed by superseded records (header + key + body).
    dead_bytes: u64,
    dead_records: u64,
    /// Total bytes across all segment files.
    total_bytes: u64,
    /// Lifetime count of compactions (observable for tests/metrics).
    compactions: u64,
}

/// Point-in-time store gauges for `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Segment files on disk.
    pub segments: u64,
    /// Total bytes across segment files.
    pub bytes: u64,
    /// Live (addressable) records.
    pub records: u64,
    /// Superseded records awaiting compaction.
    pub dead_records: u64,
    /// Compaction passes performed since open.
    pub compactions: u64,
}

/// The append-only segment store. All operations take the store lock; the
/// workload is one insert per *cold simulated sweep*, so contention is
/// negligible next to the compute being cached.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    max_segment_bytes: u64,
    inner: Mutex<StoreInner>,
}

impl DiskStore {
    /// Opens (or creates) a store at `dir`, rebuilding the index by
    /// scanning every segment. Torn or corrupt tails are truncated away.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created or a segment cannot be
    /// read/repaired.
    pub fn open(dir: &Path) -> std::io::Result<Self> {
        Self::open_with_segment_cap(dir, MAX_SEGMENT_BYTES)
    }

    /// [`Self::open`] with a custom rotation threshold (tests use tiny
    /// segments to exercise rotation and compaction cheaply).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Self::open`].
    pub fn open_with_segment_cap(dir: &Path, max_segment_bytes: u64) -> std::io::Result<Self> {
        fs::create_dir_all(dir)?;
        let mut ids: Vec<u64> = fs::read_dir(dir)?
            .filter_map(|entry| {
                let name = entry.ok()?.file_name();
                let name = name.to_str()?;
                let id = name.strip_prefix("seg-")?.strip_suffix(".log")?;
                id.parse::<u64>().ok()
            })
            .collect();
        ids.sort_unstable();

        let mut index: HashMap<String, RecordLoc> = HashMap::new();
        let mut dead_bytes = 0u64;
        let mut dead_records = 0u64;
        let mut total_bytes = 0u64;
        for &id in &ids {
            let path = segment_path(dir, id);
            let valid = scan_segment(&path, id, &mut index, &mut dead_bytes, &mut dead_records)?;
            // Repair: drop any torn/corrupt tail so the segment ends on a
            // record boundary and future appends can't interleave with
            // garbage.
            let on_disk = fs::metadata(&path)?.len();
            if on_disk != valid {
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(valid)?;
            }
            total_bytes += valid;
        }

        let active_id = ids.last().copied().unwrap_or(0);
        if ids.is_empty() {
            ids.push(active_id);
        }
        let active_path = segment_path(dir, active_id);
        let active = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&active_path)?;
        let active_bytes = active.metadata()?.len();

        Ok(Self {
            dir: dir.to_path_buf(),
            max_segment_bytes,
            inner: Mutex::new(StoreInner {
                index,
                segments: ids,
                active,
                active_id,
                active_bytes,
                dead_bytes,
                dead_records,
                total_bytes,
                compactions: 0,
            }),
        })
    }

    /// Reads the body stored under `key`, if any.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<Vec<u8>> {
        let loc = {
            let inner = self.inner.lock().expect("store lock poisoned");
            *inner.index.get(key)?
        };
        // Reads go straight to the segment file outside the lock: records
        // are immutable once written, and compaction (which could unlink
        // the file) retakes the lock before touching anything — a read
        // racing it either wins the open or retries via the fresh index.
        let mut f = File::open(segment_path(&self.dir, loc.segment)).ok()?;
        f.seek(SeekFrom::Start(loc.body_offset)).ok()?;
        let mut body = vec![0u8; loc.body_len as usize];
        f.read_exact(&mut body).ok()?;
        Some(body)
    }

    /// Appends `body` under `key`, superseding any previous record, and
    /// compacts if dead records now outweigh live ones.
    ///
    /// # Errors
    ///
    /// Propagates segment I/O failures (the in-memory index is only
    /// updated after a successful append + flush).
    pub fn insert(&self, key: &str, body: &[u8]) -> std::io::Result<()> {
        assert!(key.len() <= MAX_KEY_BYTES as usize, "oversized store key");
        assert!(
            body.len() <= MAX_BODY_BYTES as usize,
            "oversized store body"
        );
        let mut inner = self.inner.lock().expect("store lock poisoned");
        self.insert_locked(&mut inner, key, body)?;

        // Opportunistic compaction: amortized against the insert that
        // crossed the threshold, so no background thread is needed and the
        // store is always compact at rest.
        if inner.dead_records > 0 && inner.dead_bytes * 2 > inner.total_bytes {
            self.compact_locked(&mut inner)?;
        }
        Ok(())
    }

    /// Rewrites live records into fresh segments and deletes the old
    /// files. Exposed for tests; [`Self::insert`] triggers it
    /// automatically when dead bytes outweigh live bytes.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; on failure the old segments are left
    /// untouched.
    pub fn compact(&self) -> std::io::Result<()> {
        let mut inner = self.inner.lock().expect("store lock poisoned");
        self.compact_locked(&mut inner)
    }

    fn compact_locked(&self, inner: &mut StoreInner) -> std::io::Result<()> {
        // Collect live payloads in deterministic (key-sorted) order.
        let mut keys: Vec<String> = inner.index.keys().cloned().collect();
        keys.sort_unstable();
        let mut live: Vec<(String, Vec<u8>)> = Vec::with_capacity(keys.len());
        for key in keys {
            let loc = inner.index[&key];
            let mut f = File::open(segment_path(&self.dir, loc.segment))?;
            f.seek(SeekFrom::Start(loc.body_offset))?;
            let mut body = vec![0u8; loc.body_len as usize];
            f.read_exact(&mut body)?;
            live.push((key, body));
        }

        let old_segments = std::mem::take(&mut inner.segments);
        let new_base = old_segments.last().copied().unwrap_or(0) + 1;
        inner.index.clear();
        inner.segments = vec![new_base];
        inner.active = OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(&self.dir, new_base))?;
        inner.active_id = new_base;
        inner.active_bytes = 0;
        inner.dead_bytes = 0;
        inner.dead_records = 0;
        inner.total_bytes = 0;
        inner.compactions += 1;
        for &id in &old_segments {
            let _ = fs::remove_file(segment_path(&self.dir, id));
        }
        drop(old_segments);
        for (key, body) in live {
            // Re-insert through the normal path: rotation and accounting
            // stay consistent. Dead counters stay zero because the index
            // was cleared.
            self.insert_locked(inner, &key, &body)?;
        }
        Ok(())
    }

    /// The append half of [`Self::insert`] for a caller already holding
    /// the lock (compaction).
    fn insert_locked(&self, inner: &mut StoreInner, key: &str, body: &[u8]) -> std::io::Result<()> {
        let record_len = (HEADER_BYTES + key.len() + body.len()) as u64;
        // Rotate before the write so a single record never straddles the
        // cap by more than its own size.
        if inner.active_bytes > 0 && inner.active_bytes + record_len > self.max_segment_bytes {
            let next_id = inner.active_id + 1;
            let f = OpenOptions::new()
                .create(true)
                .append(true)
                .open(segment_path(&self.dir, next_id))?;
            inner.active = f;
            inner.active_id = next_id;
            inner.active_bytes = 0;
            inner.segments.push(next_id);
        }
        let mut record = Vec::with_capacity(record_len as usize);
        record.extend_from_slice(&MAGIC.to_le_bytes());
        record.extend_from_slice(&(key.len() as u32).to_le_bytes());
        record.extend_from_slice(&(body.len() as u32).to_le_bytes());
        let mut crc_input = Vec::with_capacity(key.len() + body.len());
        crc_input.extend_from_slice(key.as_bytes());
        crc_input.extend_from_slice(body);
        record.extend_from_slice(&crc32(&crc_input).to_le_bytes());
        record.extend_from_slice(&crc_input);
        inner.active.write_all(&record)?;
        inner.active.flush()?;
        let loc = RecordLoc {
            segment: inner.active_id,
            body_offset: inner.active_bytes + (HEADER_BYTES + key.len()) as u64,
            body_len: body.len() as u32,
        };
        inner.active_bytes += record_len;
        inner.total_bytes += record_len;
        if let Some(old) = inner.index.insert(key.to_owned(), loc) {
            inner.dead_records += 1;
            inner.dead_bytes += (HEADER_BYTES + key.len()) as u64 + u64::from(old.body_len);
        }
        Ok(())
    }

    /// Current store gauges.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock().expect("store lock poisoned");
        StoreStats {
            segments: inner.segments.len() as u64,
            bytes: inner.total_bytes,
            records: inner.index.len() as u64,
            dead_records: inner.dead_records,
            compactions: inner.compactions,
        }
    }
}

fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id}.log"))
}

/// Scans one segment, folding its valid records into `index` (later
/// records supersede earlier ones). Returns the byte offset of the first
/// invalid position — the length the file should be truncated to.
fn scan_segment(
    path: &Path,
    segment: u64,
    index: &mut HashMap<String, RecordLoc>,
    dead_bytes: &mut u64,
    dead_records: &mut u64,
) -> std::io::Result<u64> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    let mut offset = 0usize;
    // `data.get` bounds-checks every slice: a clean EOF, a torn header, or
    // a torn payload all end the scan at the last fully-valid record.
    while let Some(header) = data.get(offset..offset + HEADER_BYTES) {
        let magic = u32::from_le_bytes(header[0..4].try_into().expect("sliced"));
        let key_len = u32::from_le_bytes(header[4..8].try_into().expect("sliced"));
        let body_len = u32::from_le_bytes(header[8..12].try_into().expect("sliced"));
        let crc = u32::from_le_bytes(header[12..16].try_into().expect("sliced"));
        if magic != MAGIC || key_len > MAX_KEY_BYTES || body_len > MAX_BODY_BYTES {
            break; // corrupt header
        }
        let payload_start = offset + HEADER_BYTES;
        let payload_len = key_len as usize + body_len as usize;
        let Some(payload) = data.get(payload_start..payload_start + payload_len) else {
            break; // torn payload
        };
        if crc32(payload) != crc {
            break; // bit rot or torn write detected by checksum
        }
        let Ok(key) = std::str::from_utf8(&payload[..key_len as usize]) else {
            break;
        };
        let loc = RecordLoc {
            segment,
            body_offset: (payload_start + key_len as usize) as u64,
            body_len,
        };
        if let Some(old) = index.insert(key.to_owned(), loc) {
            *dead_records += 1;
            *dead_bytes += (HEADER_BYTES + key.len()) as u64 + u64::from(old.body_len);
        }
        offset = payload_start + payload_len;
    }
    Ok(offset as u64)
}

/// The in-memory LRU fronting an optional [`DiskStore`]: the cache layer
/// the server actually talks to.
///
/// * `get` — LRU first; on miss, the disk store (promoting hits back into
///   the LRU so hot digests stay memory-resident).
/// * `insert` — writes through to both tiers.
///
/// Hit/miss accounting lives here (a disk hit is a cache hit), so
/// `/metrics` reports the fleet-visible ratio, not per-tier internals.
#[derive(Debug)]
pub struct TieredCache {
    lru: ResultCache,
    disk: Option<DiskStore>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TieredCache {
    /// A tiered cache with the given LRU capacity and optional disk tier.
    #[must_use]
    pub fn new(capacity: usize, disk: Option<DiskStore>) -> Self {
        Self {
            lru: ResultCache::new(capacity),
            disk,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks up `key` across both tiers.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<std::sync::Arc<String>> {
        if let Some(body) = self.lru.get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(body);
        }
        if let Some(disk) = &self.disk {
            if let Some(bytes) = disk.get(key) {
                if let Ok(text) = String::from_utf8(bytes) {
                    let body = std::sync::Arc::new(text);
                    self.lru.insert(key.to_owned(), body.clone());
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Some(body);
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Writes `body` through both tiers. Disk failures are reported on
    /// stderr but never fail the request: the result was computed and can
    /// be served; only its persistence is degraded.
    pub fn insert(&self, key: String, body: std::sync::Arc<String>) {
        if let Some(disk) = &self.disk {
            if let Err(e) = disk.insert(&key, body.as_bytes()) {
                eprintln!("dante-serve: disk cache write failed for {key}: {e}");
            }
        }
        self.lru.insert(key, body);
    }

    /// `(hits, misses)` across both tiers since startup.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Entries resident in the memory tier.
    #[must_use]
    pub fn memory_len(&self) -> usize {
        self.lru.len()
    }

    /// Disk-tier gauges (zeroes when no disk tier is configured).
    #[must_use]
    pub fn disk_stats(&self) -> StoreStats {
        self.disk.as_ref().map(DiskStore::stats).unwrap_or_default()
    }

    /// Whether a disk tier is configured.
    #[must_use]
    pub fn has_disk(&self) -> bool {
        self.disk.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// A fresh per-test directory under the system temp dir (std-only; no
    /// tempfile crate). Unique per process + per call.
    fn scratch_dir(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("dante-store-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn round_trips_and_survives_reopen() {
        let dir = scratch_dir("reopen");
        {
            let store = DiskStore::open(&dir).unwrap();
            store.insert("k1", b"hello").unwrap();
            store.insert("k2", b"world").unwrap();
            assert_eq!(store.get("k1").unwrap(), b"hello");
            assert_eq!(store.stats().records, 2);
        }
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.get("k1").unwrap(), b"hello");
        assert_eq!(store.get("k2").unwrap(), b"world");
        assert!(store.get("k3").is_none());
        assert_eq!(store.stats().records, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_record_is_discarded_on_reopen() {
        let dir = scratch_dir("torn");
        {
            let store = DiskStore::open(&dir).unwrap();
            store.insert("keep", b"intact-body").unwrap();
            store.insert("torn", b"this-record-gets-cut").unwrap();
        }
        // Simulate a crash mid-append: chop bytes off the segment tail.
        let seg = segment_path(&dir, 0);
        let len = fs::metadata(&seg).unwrap().len();
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 7).unwrap();
        drop(f);

        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(
            store.get("keep").unwrap(),
            b"intact-body",
            "earlier record intact"
        );
        assert!(store.get("torn").is_none(), "torn tail dropped");
        assert_eq!(store.stats().records, 1);
        // The repair truncated the file to the valid prefix, so appends
        // continue cleanly.
        store.insert("torn", b"rewritten").unwrap();
        assert_eq!(store.get("torn").unwrap(), b"rewritten");
        let reopened = DiskStore::open(&dir).unwrap();
        assert_eq!(reopened.get("torn").unwrap(), b"rewritten");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc_corruption_is_detected_and_later_records_dropped() {
        let dir = scratch_dir("crc");
        {
            let store = DiskStore::open(&dir).unwrap();
            store.insert("first", b"aaaa").unwrap();
            store.insert("second", b"bbbb").unwrap();
        }
        // Flip one payload bit inside the *first* record's body.
        let seg = segment_path(&dir, 0);
        let mut data = fs::read(&seg).unwrap();
        let body_offset = HEADER_BYTES + "first".len();
        data[body_offset] ^= 0x01;
        fs::write(&seg, &data).unwrap();

        let store = DiskStore::open(&dir).unwrap();
        // The scan cannot trust anything at or after the corruption: both
        // records are gone, and the segment was truncated to offset 0.
        assert!(
            store.get("first").is_none(),
            "corrupt record rejected by CRC"
        );
        assert!(
            store.get("second").is_none(),
            "records after corruption are unreachable"
        );
        assert_eq!(store.stats().records, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn superseding_inserts_trigger_compaction_preserving_digests() {
        let dir = scratch_dir("compact");
        let store = DiskStore::open_with_segment_cap(&dir, 256).unwrap();
        for i in 0..8 {
            store
                .insert(&format!("key-{i}"), format!("body-{i}").as_bytes())
                .unwrap();
        }
        // Supersede half the keys repeatedly; dead bytes eventually
        // outweigh live bytes and compaction fires on its own.
        for round in 0..6 {
            for i in 0..4 {
                store
                    .insert(&format!("key-{i}"), format!("body-{i}-r{round}").as_bytes())
                    .unwrap();
            }
        }
        let stats = store.stats();
        assert!(stats.compactions >= 1, "auto-compaction fired: {stats:?}");
        assert!(
            stats.dead_records * 2 <= stats.records + stats.dead_records + 1,
            "compaction keeps the dead ratio bounded: {stats:?}"
        );
        // Every digest still resolves to its newest body.
        for i in 0..4 {
            assert_eq!(
                store.get(&format!("key-{i}")).unwrap(),
                format!("body-{i}-r5").as_bytes()
            );
        }
        for i in 4..8 {
            assert_eq!(
                store.get(&format!("key-{i}")).unwrap(),
                format!("body-{i}").as_bytes()
            );
        }
        // And the compacted layout survives a reopen byte-for-byte.
        drop(store);
        let reopened = DiskStore::open_with_segment_cap(&dir, 256).unwrap();
        for i in 0..4 {
            assert_eq!(
                reopened.get(&format!("key-{i}")).unwrap(),
                format!("body-{i}-r5").as_bytes()
            );
        }
        assert_eq!(reopened.stats().records, 8);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn explicit_compact_preserves_all_records_across_segments() {
        let dir = scratch_dir("explicit");
        let store = DiskStore::open_with_segment_cap(&dir, 128).unwrap();
        let mut expected = Vec::new();
        for i in 0..10 {
            let key = format!("digest-{i:02}");
            let body = format!("payload-{i}-{}", "x".repeat(i));
            store.insert(&key, body.as_bytes()).unwrap();
            expected.push((key, body));
        }
        assert!(store.stats().segments > 1, "tiny cap forces rotation");
        store.compact().unwrap();
        for (key, body) in &expected {
            assert_eq!(store.get(key).unwrap(), body.as_bytes());
        }
        assert_eq!(store.stats().dead_records, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiered_cache_promotes_disk_hits_and_counts_once() {
        let dir = scratch_dir("tiered");
        let store = DiskStore::open(&dir).unwrap();
        store.insert("cold", b"persisted-body").unwrap();
        let cache = TieredCache::new(4, Some(store));
        assert_eq!(cache.memory_len(), 0);
        // Disk hit: served, promoted, counted as a hit.
        assert_eq!(cache.get("cold").unwrap().as_str(), "persisted-body");
        assert_eq!(cache.memory_len(), 1);
        // Second get is a pure LRU hit.
        assert_eq!(cache.get("cold").unwrap().as_str(), "persisted-body");
        assert!(cache.get("absent").is_none());
        assert_eq!(cache.stats(), (2, 1));
        assert_eq!(cache.disk_stats().records, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiered_cache_without_disk_degrades_to_lru() {
        let cache = TieredCache::new(2, None);
        assert!(!cache.has_disk());
        cache.insert("a".into(), std::sync::Arc::new("A".into()));
        assert_eq!(cache.get("a").unwrap().as_str(), "A");
        assert!(cache.get("b").is_none());
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.disk_stats(), StoreStats::default());
    }
}
