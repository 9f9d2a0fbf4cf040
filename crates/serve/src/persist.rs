//! Registry durability: an append-only WAL of `PUT /v1/schemas/{name}` bodies
//! plus periodic compacted snapshots, replayed on boot.
//!
//! Two files live in the data directory:
//!
//! - `registry.wal` — every accepted PUT appended as one record, flushed
//!   before the response is sent.
//! - `registry.snap` — a compacted image of the whole registry (one record
//!   per live schema, last-writer-wins applied), written atomically via a
//!   temp file + rename whenever the WAL payload exceeds the configured
//!   threshold; the WAL is truncated back to its header afterwards.
//!
//! Both files share a versioned 8-byte magic header ([`WAL_MAGIC`] /
//! [`SNAP_MAGIC`]) followed by records of the form
//!
//! ```text
//! [u32le name_len][u32le body_len][u32le crc32(name ++ body)][name][body]
//! ```
//!
//! A `DELETE /v1/schemas/{name}` appends a *tombstone*: the same frame with
//! the sentinel `body_len == u32::MAX`, zero body bytes, and the CRC taken
//! over the name alone. Old logs (which cannot contain the sentinel — a
//! 4 GiB body would be rejected long before the WAL) replay unchanged, so
//! no magic bump is needed. Replay applies a tombstone by removing the
//! name from the image; compaction snapshots only live schemas, so
//! tombstones never outlive the log segment they were written to.
//!
//! Replay applies the snapshot first, then the WAL on top (later records
//! win). A torn tail — a record cut short by `SIGKILL`/power loss, or one
//! whose CRC disagrees — ends replay at the last good record, and the WAL
//! is truncated back to that offset so subsequent appends extend a clean
//! log instead of a corrupt one. Everything before the torn record is
//! recovered.
//!
//! Appends are durable before the response is sent: each record is
//! `fdatasync`'d by default, or — with a group-commit window configured
//! via `--fsync-batch-ms` — at most once per window, trading a bounded
//! tail of un-synced records for one syscall per burst.
//!
//! Consistency with the in-memory registry relies on an ordering contract
//! (see `handlers::put_schema`): a schema is registered in memory *before*
//! its WAL append, and [`Persist::compact`] takes the registry dump inside
//! the WAL lock — so every record a compaction truncates away is already
//! covered by the snapshot it wrote.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Versioned magic opening `registry.wal` (bump the trailing byte on
/// format changes).
pub const WAL_MAGIC: &[u8; 8] = b"QMWAL\0\0\x01";
/// Versioned magic opening `registry.snap`.
pub const SNAP_MAGIC: &[u8; 8] = b"QMSNP\0\0\x01";

/// WAL file name inside the data directory.
const WAL_FILE: &str = "registry.wal";
/// Snapshot file name inside the data directory.
const SNAP_FILE: &str = "registry.snap";

/// The `body_len` sentinel marking a tombstone (deletion) record. No real
/// body can reach this length — ingest limits cap bodies far below 4 GiB.
const TOMBSTONE_LEN: u32 = u32::MAX;

/// Hand-rolled CRC-32 (IEEE 802.3, reflected), table built at first use —
/// the stdlib ships no checksum and the container has no crates.
fn crc32(chunks: &[&[u8]]) -> u32 {
    fn table() -> &'static [u32; 256] {
        use std::sync::OnceLock;
        static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
        TABLE.get_or_init(|| {
            let mut table = [0u32; 256];
            for (i, slot) in table.iter_mut().enumerate() {
                let mut c = i as u32;
                for _ in 0..8 {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                }
                *slot = c;
            }
            table
        })
    }
    let table = table();
    let mut crc = 0xFFFF_FFFFu32;
    for chunk in chunks {
        for &b in *chunk {
            crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
    }
    !crc
}

/// One record serialized to `[len][len][crc][name][body]`.
fn encode_record(name: &str, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + name.len() + body.len());
    out.extend_from_slice(&(name.len() as u32).to_le_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&[name.as_bytes(), body]).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(body);
    out
}

/// A tombstone for `name`: the sentinel `body_len`, no body bytes, CRC
/// over the name alone.
fn encode_tombstone(name: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + name.len());
    out.extend_from_slice(&(name.len() as u32).to_le_bytes());
    out.extend_from_slice(&TOMBSTONE_LEN.to_le_bytes());
    out.extend_from_slice(&crc32(&[name.as_bytes()]).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    out
}

/// One decoded record: a `Some` body is an upsert, `None` a tombstone.
type DecodedRecord = (String, Option<Vec<u8>>);

/// Decodes records from `bytes` (already past the magic), stopping at the
/// first incomplete or corrupt record. Returns the decoded records and
/// the offset (relative to `bytes`) of the first byte *not* consumed by a
/// good record — the truncation point for a torn tail.
fn decode_records(bytes: &[u8]) -> (Vec<DecodedRecord>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= 12 {
        let name_len =
            u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let raw_body_len = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(bytes[pos + 8..pos + 12].try_into().expect("4 bytes"));
        let tombstone = raw_body_len == TOMBSTONE_LEN;
        let body_len = if tombstone { 0 } else { raw_body_len as usize };
        let data_start = pos + 12;
        let Some(data_end) = data_start.checked_add(name_len + body_len) else {
            break;
        };
        if data_end > bytes.len() {
            break; // torn tail: record cut short
        }
        let name_bytes = &bytes[data_start..data_start + name_len];
        let body = &bytes[data_start + name_len..data_end];
        if crc32(&[name_bytes, body]) != crc {
            break; // corrupt record: stop trusting the log here
        }
        let Ok(name) = std::str::from_utf8(name_bytes) else {
            break;
        };
        records.push((name.to_owned(), (!tombstone).then(|| body.to_vec())));
        pos = data_end;
    }
    (records, pos)
}

/// What [`Persist::open`] recovered from disk.
#[derive(Debug, Default)]
pub struct Replayed {
    /// The surviving registry image (snapshot + WAL applied in order,
    /// later records winning), sorted by name.
    pub schemas: Vec<(String, Vec<u8>)>,
    /// Records recovered from the WAL (after the snapshot).
    pub wal_records: usize,
    /// Whether a torn WAL tail was detected and truncated away.
    pub truncated_tail: bool,
}

/// Live-bytes bookkeeping for the current WAL segment: which payload
/// bytes replay would actually keep, versus garbage a compaction would
/// discard (superseded upserts plus tombstones).
#[derive(Debug, Default)]
struct Ledger {
    /// Per-name byte length of the *latest upsert record* in the current
    /// WAL segment, for names not since tombstoned.
    live: std::collections::HashMap<String, u64>,
    /// Sum of `live` values, kept incrementally.
    live_bytes: u64,
}

impl Ledger {
    /// Applies one appended/replayed record of `len` bytes. An upsert
    /// supersedes any earlier record for the name; a tombstone
    /// (`upsert == false`) turns the name's bytes — and its own — into
    /// garbage.
    fn account(&mut self, name: &str, len: u64, upsert: bool) {
        if upsert {
            if let Some(old) = self.live.insert(name.to_owned(), len) {
                self.live_bytes -= old;
            }
            self.live_bytes += len;
        } else if let Some(old) = self.live.remove(name) {
            self.live_bytes -= old;
        }
    }
}

struct Inner {
    wal: File,
    /// Payload bytes currently in the WAL (excluding the magic header).
    wal_payload: u64,
    /// Which of those payload bytes are still live (see [`Ledger`]).
    ledger: Ledger,
    /// When the WAL was last fsync'd (group-commit bookkeeping).
    last_sync: Instant,
    /// Whether bytes have been written since `last_sync`.
    dirty: bool,
}

/// The durability engine: one WAL handle plus the compaction threshold.
/// All file mutation happens under one mutex — appends are small
/// sequential writes, and PUTs are already serialized per schema name by
/// shard ownership, so the lock is not a hot path.
pub struct Persist {
    dir: PathBuf,
    inner: Mutex<Inner>,
    compact_threshold: u64,
    /// Group-commit window: zero fsyncs every append; a positive window
    /// fsyncs at most once per window (plus on compaction and drop).
    fsync_batch: Duration,
}

impl std::fmt::Debug for Persist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Persist").field("dir", &self.dir).finish()
    }
}

impl Persist {
    /// Opens (creating if needed) the data directory, replays snapshot +
    /// WAL, truncates any torn WAL tail, and returns the engine plus the
    /// recovered registry image. `compact_threshold` is the WAL payload
    /// size (bytes) beyond which [`Persist::needs_compaction`] fires.
    /// Every append is fsync'd; see [`Persist::open_with`] for group
    /// commit.
    pub fn open(dir: &Path, compact_threshold: u64) -> std::io::Result<(Persist, Replayed)> {
        Persist::open_with(dir, compact_threshold, Duration::ZERO)
    }

    /// [`Persist::open`] with a group-commit window: a zero `fsync_batch`
    /// fsyncs every append before it returns; a positive window fsyncs at
    /// most once per window, so a crash can lose up to one window of
    /// acknowledged writes in exchange for one `fdatasync` per burst.
    pub fn open_with(
        dir: &Path,
        compact_threshold: u64,
        fsync_batch: Duration,
    ) -> std::io::Result<(Persist, Replayed)> {
        std::fs::create_dir_all(dir)?;
        let mut replayed = Replayed::default();
        let mut image: std::collections::BTreeMap<String, Vec<u8>> = Default::default();
        // Snapshot first: it is written atomically (temp + rename), so a
        // bad magic means "not ours"/empty, not a torn write.
        if let Ok(bytes) = std::fs::read(dir.join(SNAP_FILE)) {
            if bytes.len() >= 8 && &bytes[..8] == SNAP_MAGIC {
                let (records, _) = decode_records(&bytes[8..]);
                for (name, body) in records {
                    match body {
                        Some(body) => image.insert(name, body),
                        None => image.remove(&name),
                    };
                }
            }
        }
        // Then the WAL on top; a torn tail is truncated back to the last
        // good record so future appends extend a clean log.
        let wal_path = dir.join(WAL_FILE);
        let mut wal_payload = 0u64;
        let mut ledger = Ledger::default();
        match std::fs::read(&wal_path) {
            Ok(bytes) if bytes.len() >= 8 && &bytes[..8] == WAL_MAGIC => {
                let (records, good_end) = decode_records(&bytes[8..]);
                replayed.wal_records = records.len();
                for (name, body) in records {
                    // Reconstruct the record's on-disk length so the
                    // live-bytes ledger survives restarts (an upsert is
                    // `12 + name + body`, a tombstone `12 + name`).
                    let len = 12 + name.len() as u64 + body.as_ref().map_or(0, |b| b.len() as u64);
                    ledger.account(&name, len, body.is_some());
                    match body {
                        Some(body) => image.insert(name, body),
                        None => image.remove(&name),
                    };
                }
                if 8 + good_end < bytes.len() {
                    replayed.truncated_tail = true;
                    let f = OpenOptions::new().write(true).open(&wal_path)?;
                    f.set_len(8 + good_end as u64)?;
                    f.sync_all()?;
                }
                wal_payload = good_end as u64;
            }
            Ok(_) | Err(_) => {
                // Missing, empty, or foreign file: start a fresh WAL.
                let mut f = File::create(&wal_path)?;
                f.write_all(WAL_MAGIC)?;
                f.sync_all()?;
            }
        }
        let mut wal = OpenOptions::new().append(true).open(&wal_path)?;
        wal.seek(SeekFrom::End(0))?;
        replayed.schemas = image.into_iter().collect();
        Ok((
            Persist {
                dir: dir.to_path_buf(),
                inner: Mutex::new(Inner {
                    wal,
                    wal_payload,
                    ledger,
                    last_sync: Instant::now(),
                    dirty: false,
                }),
                compact_threshold: compact_threshold.max(1),
                fsync_batch,
            },
            replayed,
        ))
    }

    /// The data directory this engine writes to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one accepted PUT to the WAL and syncs it per the
    /// group-commit policy. Returns the bytes appended (for the
    /// `wal_bytes_total` counter).
    pub fn append(&self, name: &str, body: &[u8]) -> std::io::Result<u64> {
        self.append_raw(name, true, encode_record(name, body))
    }

    /// Appends one accepted DELETE as a tombstone record.
    pub fn append_tombstone(&self, name: &str) -> std::io::Result<u64> {
        self.append_raw(name, false, encode_tombstone(name))
    }

    fn append_raw(&self, name: &str, upsert: bool, record: Vec<u8>) -> std::io::Result<u64> {
        let mut inner = self.inner.lock().expect("wal lock");
        inner.wal.write_all(&record)?;
        inner.dirty = true;
        // Group commit: with a zero window every append is durable before
        // the response; with a positive one, at most one fdatasync per
        // window covers every record written inside it.
        if self.fsync_batch.is_zero() || inner.last_sync.elapsed() >= self.fsync_batch {
            inner.wal.sync_data()?;
            inner.last_sync = Instant::now();
            inner.dirty = false;
        }
        inner.wal_payload += record.len() as u64;
        inner.ledger.account(name, record.len() as u64, upsert);
        Ok(record.len() as u64)
    }

    /// Forces any group-commit-deferred WAL bytes to disk (shutdown path).
    pub fn sync(&self) -> std::io::Result<()> {
        let mut inner = self.inner.lock().expect("wal lock");
        if inner.dirty {
            inner.wal.sync_data()?;
            inner.last_sync = Instant::now();
            inner.dirty = false;
        }
        Ok(())
    }

    /// Whether the WAL payload has outgrown the compaction threshold.
    pub fn needs_compaction(&self) -> bool {
        self.inner.lock().expect("wal lock").wal_payload >= self.compact_threshold
    }

    /// Writes a compacted snapshot and truncates the WAL back to its
    /// header. `dump` is called *inside* the WAL lock so the snapshot is
    /// guaranteed to cover every record the truncation discards (see the
    /// module docs for the ordering argument).
    pub fn compact<F>(&self, dump: F) -> std::io::Result<()>
    where
        F: FnOnce() -> Vec<(String, Arc<[u8]>)>,
    {
        let mut inner = self.inner.lock().expect("wal lock");
        let entries = dump();
        let tmp_path = self.dir.join("registry.snap.tmp");
        {
            let mut tmp = File::create(&tmp_path)?;
            tmp.write_all(SNAP_MAGIC)?;
            for (name, body) in &entries {
                tmp.write_all(&encode_record(name, body))?;
            }
            tmp.sync_all()?;
        }
        std::fs::rename(&tmp_path, self.dir.join(SNAP_FILE))?;
        // The snapshot is durable; the WAL records it covers can go —
        // including any group-commit-deferred bytes, which the snapshot
        // (taken from the in-memory registry) already covers.
        inner.wal.set_len(8)?;
        inner.wal.seek(SeekFrom::End(0))?;
        inner.wal.sync_all()?;
        inner.wal_payload = 0;
        inner.ledger = Ledger::default();
        inner.last_sync = Instant::now();
        inner.dirty = false;
        Ok(())
    }

    /// Current WAL payload bytes (records only, header excluded).
    pub fn wal_payload(&self) -> u64 {
        self.inner.lock().expect("wal lock").wal_payload
    }

    /// Fraction of the WAL payload that replay would keep: bytes of each
    /// name's latest upsert, for names not since tombstoned, over the
    /// total payload. `1.0` for an empty (freshly compacted) WAL; low
    /// values mean the log is mostly superseded upserts and tombstones —
    /// garbage the next compaction will discard.
    pub fn wal_live_fraction(&self) -> f64 {
        let inner = self.inner.lock().expect("wal lock");
        if inner.wal_payload == 0 {
            1.0
        } else {
            inner.ledger.live_bytes as f64 / inner.wal_payload as f64
        }
    }
}

impl Drop for Persist {
    fn drop(&mut self) {
        // Best effort: flush any group-commit tail so a clean shutdown
        // never loses acknowledged writes.
        let _ = self.sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "qmatch-persist-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE check value for "123456789".
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(
            crc32(&[b"1234", b"56789"]),
            0xCBF4_3926,
            "chunking is transparent"
        );
        assert_eq!(crc32(&[b""]), 0);
    }

    #[test]
    fn append_replay_round_trip() {
        let dir = tempdir("roundtrip");
        {
            let (p, replayed) = Persist::open(&dir, 1 << 20).unwrap();
            assert!(replayed.schemas.is_empty());
            p.append("a", b"<alpha/>").unwrap();
            p.append("b", b"<beta/>").unwrap();
            p.append("a", b"<alpha v2/>").unwrap(); // replacement: later wins
        }
        let (_, replayed) = Persist::open(&dir, 1 << 20).unwrap();
        assert_eq!(replayed.wal_records, 3);
        assert!(!replayed.truncated_tail);
        assert_eq!(
            replayed.schemas,
            vec![
                ("a".to_owned(), b"<alpha v2/>".to_vec()),
                ("b".to_owned(), b"<beta/>".to_vec()),
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_later_appends_survive() {
        let dir = tempdir("torn");
        {
            let (p, _) = Persist::open(&dir, 1 << 20).unwrap();
            p.append("keep", b"<kept/>").unwrap();
            p.append("lost", b"<torn-away/>").unwrap();
        }
        // Cut the final record short, as a crash mid-write would.
        let wal = dir.join(WAL_FILE);
        let len = std::fs::metadata(&wal).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&wal)
            .unwrap()
            .set_len(len - 5)
            .unwrap();
        let (p, replayed) = Persist::open(&dir, 1 << 20).unwrap();
        assert!(replayed.truncated_tail);
        assert_eq!(
            replayed.schemas,
            vec![("keep".to_owned(), b"<kept/>".to_vec())]
        );
        // The log is clean again: appends after recovery replay fine.
        p.append("after", b"<recovered/>").unwrap();
        drop(p);
        let (_, replayed) = Persist::open(&dir, 1 << 20).unwrap();
        assert_eq!(
            replayed
                .schemas
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            ["after", "keep"]
        );
        assert!(!replayed.truncated_tail);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tombstones_delete_on_replay_and_reput_revives() {
        let dir = tempdir("tombstone");
        {
            let (p, _) = Persist::open(&dir, 1 << 20).unwrap();
            p.append("a", b"<alpha/>").unwrap();
            p.append("b", b"<beta/>").unwrap();
            let bytes = p.append_tombstone("a").unwrap();
            // name_len + body_len sentinel + crc + "a"
            assert_eq!(bytes, 13);
        }
        let (p, replayed) = Persist::open(&dir, 1 << 20).unwrap();
        assert_eq!(replayed.wal_records, 3, "the tombstone is a record");
        assert!(!replayed.truncated_tail, "tombstone crc must verify");
        assert_eq!(
            replayed.schemas,
            vec![("b".to_owned(), b"<beta/>".to_vec())],
            "the tombstone removed \"a\" from the live image"
        );
        // Delete → re-put replays in order: the re-put wins.
        p.append("a", b"<alpha v2/>").unwrap();
        drop(p);
        let (_, replayed) = Persist::open(&dir, 1 << 20).unwrap();
        assert_eq!(
            replayed.schemas,
            vec![
                ("a".to_owned(), b"<alpha v2/>".to_vec()),
                ("b".to_owned(), b"<beta/>".to_vec()),
            ]
        );
        // Tombstoning a name that was never logged is harmless on replay.
        let (p, _) = Persist::open(&dir, 1 << 20).unwrap();
        p.append_tombstone("ghost").unwrap();
        drop(p);
        let (_, replayed) = Persist::open(&dir, 1 << 20).unwrap();
        assert_eq!(replayed.schemas.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_defers_fsync_and_sync_flushes_the_tail() {
        let dir = tempdir("group-commit");
        {
            let (p, _) = Persist::open_with(&dir, 1 << 20, Duration::from_secs(3600)).unwrap();
            // Both records land in the file (write_all), but only the
            // window-expiry path would sync them; sync() forces it.
            p.append("a", b"<alpha/>").unwrap();
            p.append_tombstone("a").unwrap();
            p.sync().unwrap();
            p.append("b", b"<beta/>").unwrap();
            // Dropped dirty: Drop syncs the tail.
        }
        let (_, replayed) = Persist::open_with(&dir, 1 << 20, Duration::ZERO).unwrap();
        assert_eq!(replayed.wal_records, 3);
        assert_eq!(
            replayed.schemas,
            vec![("b".to_owned(), b"<beta/>".to_vec())]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_crc_stops_replay_at_the_bad_record() {
        let dir = tempdir("crc");
        {
            let (p, _) = Persist::open(&dir, 1 << 20).unwrap();
            p.append("good", b"<ok/>").unwrap();
            p.append("bad", b"<flipped/>").unwrap();
        }
        let wal = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&wal).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // flip a body byte: CRC now disagrees
        std::fs::write(&wal, &bytes).unwrap();
        let (_, replayed) = Persist::open(&dir, 1 << 20).unwrap();
        assert!(replayed.truncated_tail);
        assert_eq!(
            replayed.schemas,
            vec![("good".to_owned(), b"<ok/>".to_vec())]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_moves_the_wal_into_the_snapshot() {
        let dir = tempdir("compact");
        {
            let (p, _) = Persist::open(&dir, 1).unwrap(); // threshold 1: always due
            p.append("a", b"<alpha/>").unwrap();
            assert!(p.needs_compaction());
            p.compact(|| vec![("a".to_owned(), Arc::from(b"<alpha/>".as_slice()))])
                .unwrap();
            assert_eq!(p.wal_payload(), 0);
            assert!(!p.needs_compaction() || p.compact_threshold == 1);
            // Post-compaction appends land in the fresh WAL.
            p.append("b", b"<beta/>").unwrap();
        }
        let (_, replayed) = Persist::open(&dir, 1).unwrap();
        assert_eq!(replayed.wal_records, 1, "only b is in the WAL");
        assert_eq!(
            replayed
                .schemas
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            ["a", "b"],
            "a comes from the snapshot, b from the WAL"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_fraction_tracks_supersession_tombstones_and_compaction() {
        let dir = tempdir("live-fraction");
        let (p, _) = Persist::open(&dir, 1 << 20).unwrap();
        assert_eq!(p.wal_live_fraction(), 1.0, "empty WAL is all live");
        let first = p.append("a", b"<alpha/>").unwrap();
        assert_eq!(p.wal_live_fraction(), 1.0, "one upsert is all live");
        let second = p.append("a", b"<alpha version two/>").unwrap();
        let expected = second as f64 / (first + second) as f64;
        assert!(
            (p.wal_live_fraction() - expected).abs() < 1e-12,
            "a superseded upsert is garbage: {} vs {expected}",
            p.wal_live_fraction()
        );
        let tomb = p.append_tombstone("a").unwrap();
        assert_eq!(
            p.wal_live_fraction(),
            0.0,
            "a tombstoned name leaves only garbage"
        );
        // The ledger is rebuilt from the log on restart.
        drop(p);
        let (p, _) = Persist::open(&dir, 1 << 20).unwrap();
        assert_eq!(p.wal_payload(), first + second + tomb);
        assert_eq!(p.wal_live_fraction(), 0.0, "replay rebuilds the ledger");
        let third = p.append("b", b"<beta/>").unwrap();
        let expected = third as f64 / (first + second + tomb + third) as f64;
        assert!((p.wal_live_fraction() - expected).abs() < 1e-12);
        // Compaction empties the WAL: everything left is live by definition.
        p.compact(|| vec![("b".to_owned(), Arc::from(b"<beta/>".as_slice()))])
            .unwrap();
        assert_eq!(p.wal_live_fraction(), 1.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_or_empty_files_start_fresh() {
        let dir = tempdir("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(WAL_FILE), b"not a wal at all").unwrap();
        std::fs::write(dir.join(SNAP_FILE), b"junk").unwrap();
        let (p, replayed) = Persist::open(&dir, 1 << 20).unwrap();
        assert!(replayed.schemas.is_empty());
        p.append("x", b"<x/>").unwrap();
        drop(p);
        let (_, replayed) = Persist::open(&dir, 1 << 20).unwrap();
        assert_eq!(replayed.schemas.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
