//! # mxq-wal — durability primitives
//!
//! A std-only write-ahead log plus the small file-format utilities the
//! on-disk page store shares with it:
//!
//! * [`crc32`] — the CRC-32 (IEEE) checksum every record and every on-disk
//!   page image carries;
//! * [`WalWriter`] / [`read_records`] — length-prefixed, CRC-checksummed,
//!   generation-stamped records appended to a log file, with torn/corrupt
//!   tail detection on read: a record is either completely on disk and
//!   checksum-clean, or it (and everything after it) is discarded;
//! * [`SyncPolicy`] — when the log fsyncs: on every append, every N
//!   appends, never (the OS flushes whenever it likes), or group commit
//!   (the caller batches concurrent appenders behind one fsync);
//! * [`write_atomic`] — write-to-temp + fsync + rename, so a checkpoint
//!   file is either the old version or the complete new one.
//!
//! The crate has no dependencies (the build container has no crates.io
//! access) and knows nothing about XML or pages: payloads are opaque byte
//! strings framed as
//!
//! ```text
//! record := len:u32 LE | generation:u64 LE | crc:u32 LE | payload (len bytes)
//! ```
//!
//! where `crc` covers the generation stamp and the payload, so a record
//! whose length field survived a crash but whose body did not is still
//! rejected.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320)
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of a byte string — the checksum used by WAL records and
/// on-disk page images.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Streaming CRC-32 state update (feed the pre-inverted state; invert the
/// final state).  [`crc32`] is the one-shot form.
pub fn crc32_update(mut state: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        state = CRC_TABLE[((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

// ---------------------------------------------------------------------------
// sync policy
// ---------------------------------------------------------------------------

/// When the write-ahead log forces appended records to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` after every append — an acknowledged update survives an OS
    /// crash (the durability the paper's "persistent store" implies).
    Always,
    /// `fsync` after every N appends (group commit): up to N−1 acknowledged
    /// updates can be lost on an OS crash, bounded write amplification.
    EveryN(u32),
    /// Never `fsync` explicitly; the OS flushes on its own schedule.
    /// Process crashes lose nothing (the kernel has the writes); power
    /// loss can lose the unflushed suffix.
    Never,
    /// Group commit for concurrent appenders: `append` itself never
    /// fsyncs — a coordinator above this crate gathers the records that
    /// arrive within the window, issues one [`WalWriter::sync`] for the
    /// whole batch, and only then acknowledges them.  Same durability as
    /// [`SyncPolicy::Always`] (an acknowledged record survives an OS
    /// crash) at a fraction of the fsync count under concurrency.
    GroupCommit(std::time::Duration),
}

impl SyncPolicy {
    /// Parse the `MXQ_SYNC` environment variable: `always` (default when
    /// unset or empty), `never`, `every=N` / `every:N` for periodic
    /// fsyncs, or `group=W` / `group:W` for group commit with gather
    /// window `W` (`5ms`, `500us`, or a bare number meaning milliseconds).
    ///
    /// A set-but-invalid value is an error naming the variable, so a typo
    /// can never silently weaken durability.
    pub fn from_env() -> Result<SyncPolicy, String> {
        match std::env::var("MXQ_SYNC") {
            Ok(raw) if !raw.trim().is_empty() => raw
                .trim()
                .parse()
                .map_err(|e| format!("invalid MXQ_SYNC `{raw}`: {e}")),
            _ => Ok(SyncPolicy::Always),
        }
    }
}

impl std::str::FromStr for SyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "always" => Ok(SyncPolicy::Always),
            "never" => Ok(SyncPolicy::Never),
            other => {
                if let Some(w) = other
                    .strip_prefix("group=")
                    .or_else(|| other.strip_prefix("group:"))
                {
                    let (digits, unit) = if let Some(d) = w.strip_suffix("us") {
                        (d, 1u64)
                    } else if let Some(d) = w.strip_suffix("ms") {
                        (d, 1000u64)
                    } else {
                        (w, 1000u64)
                    };
                    let n: u64 = digits
                        .parse()
                        .map_err(|_| format!("`{w}` is not a group-commit window"))?;
                    return Ok(SyncPolicy::GroupCommit(std::time::Duration::from_micros(
                        n * unit,
                    )));
                }
                let n = other
                    .strip_prefix("every=")
                    .or_else(|| other.strip_prefix("every:"))
                    .ok_or_else(|| {
                        "expected `always`, `never`, `every=N` or `group=W`".to_string()
                    })?;
                let n: u32 = n
                    .parse()
                    .map_err(|_| format!("`{n}` is not a record count"))?;
                if n == 0 {
                    return Err("`every=0` is meaningless; use `always`".into());
                }
                Ok(SyncPolicy::EveryN(n))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// errors
// ---------------------------------------------------------------------------

/// Errors from the write-ahead log.
#[derive(Debug)]
pub enum WalError {
    /// An I/O operation on the log file failed.
    Io(std::io::Error),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "write-ahead log I/O failed: {e}"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// record framing
// ---------------------------------------------------------------------------

/// Bytes of a record header: `len:u32 | generation:u64 | crc:u32`.
pub const RECORD_HEADER_LEN: u64 = 16;

/// One complete, checksum-verified log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The generation stamp the record was appended with (for the store:
    /// the publish generation the logged operation produced).
    pub generation: u64,
    /// The opaque payload.
    pub payload: Vec<u8>,
    /// Byte offset of the record header in the log file.
    pub offset: u64,
}

impl WalRecord {
    /// Total encoded length of the record (header + payload).
    pub fn encoded_len(&self) -> u64 {
        RECORD_HEADER_LEN + self.payload.len() as u64
    }
}

/// The outcome of scanning a log file.
#[derive(Debug)]
pub struct WalScan {
    /// The complete, checksum-clean records, in append order.
    pub records: Vec<WalRecord>,
    /// Length of the valid prefix in bytes.  Anything after this offset is
    /// a torn or corrupt tail and must be discarded before appending.
    pub valid_len: u64,
    /// True if the file held bytes past the valid prefix (a torn append or
    /// a corrupted record was detected and discarded).
    pub tail_discarded: bool,
}

/// Scan a log file, verifying every record checksum.  Scanning stops at the
/// first incomplete or corrupt record: a crash mid-append leaves exactly a
/// valid prefix.  A missing file is an empty log.
pub fn read_records(path: &Path) -> Result<WalScan, WalError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    let mut records = Vec::new();
    let mut pos = 0usize;
    while let Some(header) = bytes.get(pos..pos + RECORD_HEADER_LEN as usize) {
        let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
        let generation = u64::from_le_bytes(header[4..12].try_into().unwrap());
        let crc = u32::from_le_bytes(header[12..16].try_into().unwrap());
        let body_start = pos + RECORD_HEADER_LEN as usize;
        let Some(payload) = bytes.get(body_start..body_start + len) else {
            break; // torn tail: the payload never made it to disk
        };
        if record_crc(generation, payload) != crc {
            break; // corrupt record: discard it and everything after
        }
        records.push(WalRecord {
            generation,
            payload: payload.to_vec(),
            offset: pos as u64,
        });
        pos = body_start + len;
    }
    Ok(WalScan {
        records,
        valid_len: pos as u64,
        tail_discarded: pos < bytes.len(),
    })
}

fn record_crc(generation: u64, payload: &[u8]) -> u32 {
    let state = crc32_update(0xFFFF_FFFF, &generation.to_le_bytes());
    crc32_update(state, payload) ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// the writer
// ---------------------------------------------------------------------------

/// An append-only write-ahead log file.
///
/// Opening scans the existing file, truncates any torn/corrupt tail, and
/// positions the writer after the last complete record; [`WalWriter::append`]
/// frames one payload and applies the [`SyncPolicy`].
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    policy: SyncPolicy,
    len: u64,
    appends_since_sync: u32,
    /// Total payload+header bytes appended through this writer.
    bytes_appended: u64,
    /// Number of `fsync` calls issued by this writer.
    syncs: u64,
    /// Remaining [`WalWriter::sync`] calls that fail with an injected
    /// error (test-only failure injection, see
    /// [`WalWriter::inject_sync_failures`]).
    fail_syncs: u32,
}

impl WalWriter {
    /// Open (or create) the log at `path`, returning the writer and the
    /// complete records recovered from the existing file.  A torn or
    /// corrupt tail is truncated away so new appends extend the valid
    /// prefix.
    pub fn open(path: &Path, policy: SyncPolicy) -> Result<(WalWriter, WalScan), WalError> {
        let scan = read_records(path)?;
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(path)?;
        file.set_len(scan.valid_len)?;
        file.seek(SeekFrom::Start(scan.valid_len))?;
        if scan.tail_discarded {
            file.sync_all()?;
        }
        Ok((
            WalWriter {
                file,
                path: path.to_path_buf(),
                policy,
                len: scan.valid_len,
                appends_since_sync: 0,
                bytes_appended: 0,
                syncs: 0,
                fail_syncs: 0,
            },
            scan,
        ))
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current length of the valid log in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total bytes appended through this writer (headers included).
    pub fn bytes_appended(&self) -> u64 {
        self.bytes_appended
    }

    /// Number of `fsync` calls this writer has issued.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// The configured sync policy.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    /// Append one record and apply the sync policy.  Returns the bytes
    /// written (header + payload).  On any error the file is restored to
    /// the last known-good length (best effort), so a partially written
    /// frame can never sit in front of later records; the caller must
    /// treat the logged operation as NOT durable (and must not publish
    /// it).  Under [`SyncPolicy::GroupCommit`] no fsync happens here —
    /// the group-commit coordinator calls [`WalWriter::sync`] once per
    /// batch.
    pub fn append(&mut self, generation: u64, payload: &[u8]) -> Result<u64, WalError> {
        let mut frame = Vec::with_capacity(RECORD_HEADER_LEN as usize + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&generation.to_le_bytes());
        frame.extend_from_slice(&record_crc(generation, payload).to_le_bytes());
        frame.extend_from_slice(payload);
        if let Err(e) = self.file.write_all(&frame) {
            let _ = self.file.set_len(self.len);
            let _ = self.file.seek(SeekFrom::Start(self.len));
            return Err(e.into());
        }
        let before = self.len;
        self.len += frame.len() as u64;
        self.bytes_appended += frame.len() as u64;
        let must_sync = match self.policy {
            SyncPolicy::Always => true,
            SyncPolicy::EveryN(n) => {
                self.appends_since_sync += 1;
                self.appends_since_sync >= n
            }
            SyncPolicy::Never | SyncPolicy::GroupCommit(_) => false,
        };
        if must_sync {
            if let Err(e) = self.sync() {
                // the record is in the file but its durability is unknown —
                // the caller will fail the operation, so take the record
                // back out (best effort) lest recovery replay an update the
                // client was told failed.  If the rollback itself fails the
                // record may survive; the operation's outcome across a
                // crash is then indeterminate.
                let _ = self.file.set_len(before);
                let _ = self.file.seek(SeekFrom::Start(before));
                self.len = before;
                self.bytes_appended -= frame.len() as u64;
                if let SyncPolicy::EveryN(_) = self.policy {
                    self.appends_since_sync -= 1;
                }
                return Err(e);
            }
        }
        Ok(frame.len() as u64)
    }

    /// Force everything appended so far to stable storage.
    pub fn sync(&mut self) -> Result<(), WalError> {
        if self.fail_syncs > 0 {
            self.fail_syncs -= 1;
            return Err(WalError::Io(std::io::Error::other(
                "injected fsync failure",
            )));
        }
        self.file.sync_all()?;
        self.appends_since_sync = 0;
        self.syncs += 1;
        Ok(())
    }

    /// Make the next `n` [`WalWriter::sync`] calls fail with an injected
    /// I/O error, for testing the failure paths above this crate (group
    /// commit poisoning, failed-record rollback).  Hidden from docs; never
    /// used outside tests.
    #[doc(hidden)]
    pub fn inject_sync_failures(&mut self, n: u32) {
        self.fail_syncs = n;
    }

    /// Truncate the log back to `len` bytes and persist the truncation:
    /// the group-commit coordinator's failure path, taking unacknowledged
    /// records back out of the file so recovery cannot replay an operation
    /// whose commit was reported failed.  `len` must be a record boundary
    /// the caller knows to be durable (everything at or below it survived
    /// a completed fsync).  No-op when the file is already at `len`.
    pub fn truncate_to(&mut self, len: u64) -> Result<(), WalError> {
        if self.len == len {
            return Ok(());
        }
        debug_assert!(len < self.len, "truncate_to must not extend the log");
        self.file.set_len(len)?;
        self.file.seek(SeekFrom::Start(len))?;
        self.file.sync_all()?;
        self.len = len;
        self.appends_since_sync = 0;
        self.syncs += 1;
        Ok(())
    }

    /// Drop every record (a checkpoint made them redundant) and persist the
    /// truncation.
    pub fn truncate(&mut self) -> Result<(), WalError> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_all()?;
        self.len = 0;
        self.appends_since_sync = 0;
        self.syncs += 1;
        Ok(())
    }

    /// Rotate the log, keeping only records stamped strictly after
    /// `generation` — the concurrent-safe replacement for [`WalWriter::truncate`]
    /// when a checkpoint covers generations up to `generation` but later
    /// commits may already have appended records behind it.  The retained
    /// records are rewritten atomically ([`write_atomic`], so a crash
    /// mid-rotation leaves either the old or the new log) and the writer
    /// reopens its handle at the new file.  If nothing survives the filter
    /// this degenerates to [`WalWriter::truncate`].
    pub fn retain_after(&mut self, generation: u64) -> Result<(), WalError> {
        // the caller serializes rotation against appends, so every record
        // (synced or not) is visible to this read
        let scan = read_records(&self.path)?;
        let retained: Vec<&WalRecord> = scan
            .records
            .iter()
            .filter(|r| r.generation > generation)
            .collect();
        if retained.is_empty() {
            return self.truncate();
        }
        let mut bytes = Vec::new();
        for r in &retained {
            bytes.extend_from_slice(&(r.payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&r.generation.to_le_bytes());
            bytes.extend_from_slice(&record_crc(r.generation, &r.payload).to_le_bytes());
            bytes.extend_from_slice(&r.payload);
        }
        write_atomic(&self.path, &bytes)?;
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::Start(bytes.len() as u64))?;
        self.file = file;
        self.len = bytes.len() as u64;
        self.appends_since_sync = 0;
        self.syncs += 1; // write_atomic fsynced the rotated file
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// atomic file replacement
// ---------------------------------------------------------------------------

/// Write `bytes` to `path` atomically: write a temp file in the same
/// directory, fsync it, then rename over the destination.  Readers (and a
/// crash at any point) observe either the previous content or the complete
/// new one, never a torn file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), std::io::Error> {
    let dir = path.parent().unwrap_or(Path::new("."));
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // persist the rename itself (directory entry); failures to open the
    // directory (platform-dependent) fall back to the rename alone
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Read a whole file; a missing file is `None`, other errors propagate.
pub fn read_optional(path: &Path) -> Result<Option<Vec<u8>>, std::io::Error> {
    match std::fs::read(path) {
        Ok(b) => Ok(Some(b)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mxq-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // standard check value for "123456789"
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    #[test]
    fn append_and_read_round_trip() {
        let path = tmp("roundtrip");
        let (mut w, scan) = WalWriter::open(&path, SyncPolicy::Always).unwrap();
        assert!(scan.records.is_empty());
        w.append(1, b"first").unwrap();
        w.append(2, b"second, longer payload").unwrap();
        w.append(3, b"").unwrap();
        drop(w);
        let scan = read_records(&path).unwrap();
        assert!(!scan.tail_discarded);
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.records[0].generation, 1);
        assert_eq!(scan.records[0].payload, b"first");
        assert_eq!(scan.records[1].payload, b"second, longer payload");
        assert_eq!(scan.records[2].generation, 3);
        assert!(scan.records[2].payload.is_empty());
        assert_eq!(scan.records[1].offset, scan.records[0].encoded_len());
    }

    #[test]
    fn torn_tail_is_discarded_at_every_byte_boundary() {
        let path = tmp("torn");
        let (mut w, _) = WalWriter::open(&path, SyncPolicy::Never).unwrap();
        w.append(1, b"intact record").unwrap();
        let keep = w.len();
        w.append(2, b"the tail record that will be torn").unwrap();
        let full = w.len();
        drop(w);
        let bytes = std::fs::read(&path).unwrap();
        for cut in keep..full {
            std::fs::write(&path, &bytes[..cut as usize]).unwrap();
            let scan = read_records(&path).unwrap();
            assert_eq!(scan.records.len(), 1, "cut at {cut}");
            assert_eq!(scan.valid_len, keep, "cut at {cut}");
            assert_eq!(scan.tail_discarded, cut > keep, "cut at {cut}");
        }
        // the full file reads both records
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_records(&path).unwrap().records.len(), 2);
    }

    #[test]
    fn corrupt_record_is_rejected_by_crc() {
        let path = tmp("corrupt");
        let (mut w, _) = WalWriter::open(&path, SyncPolicy::Never).unwrap();
        w.append(1, b"good").unwrap();
        let keep = w.len() as usize;
        w.append(2, b"bad-to-be").unwrap();
        drop(w);
        let bytes = std::fs::read(&path).unwrap();
        // flip one byte in every position of the tail record in turn
        for i in keep..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0x40;
            std::fs::write(&path, &corrupted).unwrap();
            let scan = read_records(&path).unwrap();
            assert_eq!(scan.records.len(), 1, "flipped byte {i}");
            assert!(scan.tail_discarded, "flipped byte {i}");
        }
    }

    #[test]
    fn open_truncates_torn_tail_and_appends_continue() {
        let path = tmp("reopen");
        let (mut w, _) = WalWriter::open(&path, SyncPolicy::Never).unwrap();
        w.append(1, b"kept").unwrap();
        let keep = w.len();
        w.append(2, b"torn").unwrap();
        drop(w);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..keep as usize + 5]).unwrap();
        let (mut w, scan) = WalWriter::open(&path, SyncPolicy::Always).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(scan.tail_discarded);
        assert_eq!(w.len(), keep);
        w.append(2, b"replacement").unwrap();
        drop(w);
        let scan = read_records(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[1].payload, b"replacement");
        assert!(!scan.tail_discarded);
    }

    #[test]
    fn truncate_empties_the_log() {
        let path = tmp("truncate");
        let (mut w, _) = WalWriter::open(&path, SyncPolicy::Always).unwrap();
        w.append(1, b"a").unwrap();
        w.append(2, b"b").unwrap();
        w.truncate().unwrap();
        assert!(w.is_empty());
        w.append(3, b"after").unwrap();
        drop(w);
        let scan = read_records(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].generation, 3);
    }

    #[test]
    fn sync_policies_count_fsyncs() {
        let path = tmp("syncs");
        let (mut w, _) = WalWriter::open(&path, SyncPolicy::Always).unwrap();
        w.append(1, b"x").unwrap();
        w.append(2, b"y").unwrap();
        assert_eq!(w.syncs(), 2);
        let path = tmp("syncs-group");
        let (mut w, _) = WalWriter::open(&path, SyncPolicy::EveryN(3)).unwrap();
        for g in 0..7 {
            w.append(g, b"z").unwrap();
        }
        assert_eq!(w.syncs(), 2, "7 appends at every=3 fsync twice");
        let path = tmp("syncs-never");
        let (mut w, _) = WalWriter::open(&path, SyncPolicy::Never).unwrap();
        for g in 0..5 {
            w.append(g, b"z").unwrap();
        }
        assert_eq!(w.syncs(), 0);
        // group commit never fsyncs inline: the coordinator owns the sync
        let path = tmp("syncs-groupcommit");
        let (mut w, _) =
            WalWriter::open(&path, SyncPolicy::GroupCommit(std::time::Duration::ZERO)).unwrap();
        for g in 0..5 {
            w.append(g, b"z").unwrap();
        }
        assert_eq!(w.syncs(), 0);
        w.sync().unwrap();
        assert_eq!(w.syncs(), 1);
    }

    #[test]
    fn sync_policy_parses() {
        assert_eq!("always".parse::<SyncPolicy>().unwrap(), SyncPolicy::Always);
        assert_eq!("never".parse::<SyncPolicy>().unwrap(), SyncPolicy::Never);
        assert_eq!(
            "every=8".parse::<SyncPolicy>().unwrap(),
            SyncPolicy::EveryN(8)
        );
        assert_eq!(
            "every:2".parse::<SyncPolicy>().unwrap(),
            SyncPolicy::EveryN(2)
        );
        assert_eq!(
            "group=2ms".parse::<SyncPolicy>().unwrap(),
            SyncPolicy::GroupCommit(std::time::Duration::from_millis(2))
        );
        assert_eq!(
            "group:500us".parse::<SyncPolicy>().unwrap(),
            SyncPolicy::GroupCommit(std::time::Duration::from_micros(500))
        );
        assert_eq!(
            "group=3".parse::<SyncPolicy>().unwrap(),
            SyncPolicy::GroupCommit(std::time::Duration::from_millis(3))
        );
        assert!("every=0".parse::<SyncPolicy>().is_err());
        assert!("group=fast".parse::<SyncPolicy>().is_err());
        assert!("sometimes".parse::<SyncPolicy>().is_err());
    }

    #[test]
    fn retain_after_keeps_only_newer_records() {
        let path = tmp("retain");
        let (mut w, _) = WalWriter::open(&path, SyncPolicy::Never).unwrap();
        for g in 1..=6 {
            w.append(g, format!("record-{g}").as_bytes()).unwrap();
        }
        w.retain_after(4).unwrap();
        assert_eq!(w.syncs(), 1);
        let scan = read_records(&path).unwrap();
        assert_eq!(
            scan.records
                .iter()
                .map(|r| r.generation)
                .collect::<Vec<_>>(),
            vec![5, 6]
        );
        assert_eq!(scan.records[1].payload, b"record-6");
        assert_eq!(w.len(), scan.valid_len);
        // appends continue cleanly on the rotated file
        w.append(7, b"post-rotate").unwrap();
        let scan = read_records(&path).unwrap();
        assert_eq!(scan.records.len(), 3);
        assert!(!scan.tail_discarded);
        // retaining past the newest record empties the log
        w.retain_after(100).unwrap();
        assert!(w.is_empty());
        assert_eq!(read_records(&path).unwrap().records.len(), 0);
    }

    #[test]
    fn write_atomic_replaces_whole_files() {
        let path = tmp("atomic");
        write_atomic(&path, b"version one").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"version one");
        write_atomic(&path, b"version two, different length").unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"version two, different length"
        );
        assert_eq!(
            read_optional(&path).unwrap().unwrap(),
            std::fs::read(&path).unwrap()
        );
        assert!(read_optional(&path.with_extension("missing"))
            .unwrap()
            .is_none());
    }

    #[test]
    fn truncate_to_rolls_back_unsynced_tail_records() {
        let path = tmp("truncate-to");
        let (mut w, _) = WalWriter::open(&path, SyncPolicy::Never).unwrap();
        w.append(1, b"durable one").unwrap();
        w.append(2, b"durable two").unwrap();
        w.sync().unwrap();
        let watermark = w.len();
        w.append(3, b"doomed").unwrap();
        w.append(4, b"also doomed").unwrap();
        w.truncate_to(watermark).unwrap();
        assert_eq!(w.len(), watermark);
        let scan = read_records(&path).unwrap();
        assert_eq!(
            scan.records
                .iter()
                .map(|r| r.generation)
                .collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert!(!scan.tail_discarded);
        // the writer keeps appending cleanly after the rollback, and
        // truncating to the current length is a no-op
        w.append(5, b"post-rollback").unwrap();
        w.truncate_to(w.len()).unwrap();
        drop(w);
        let scan = read_records(&path).unwrap();
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.records[2].generation, 5);
    }

    #[test]
    fn inline_sync_failure_takes_the_record_back_out() {
        let path = tmp("inline-fail");
        let (mut w, _) = WalWriter::open(&path, SyncPolicy::Always).unwrap();
        w.append(1, b"acknowledged").unwrap();
        let keep = w.len();
        let appended = w.bytes_appended();
        w.inject_sync_failures(1);
        let err = w.append(2, b"failed commit").unwrap_err();
        assert!(matches!(err, WalError::Io(_)));
        // the failed record was rolled back: file and counters unchanged,
        // so recovery can never replay an operation reported as failed
        assert_eq!(w.len(), keep);
        assert_eq!(w.bytes_appended(), appended);
        let scan = read_records(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].generation, 1);
        // the writer is usable again once syncs succeed
        w.append(3, b"next").unwrap();
        drop(w);
        let scan = read_records(&path).unwrap();
        assert_eq!(
            scan.records
                .iter()
                .map(|r| r.generation)
                .collect::<Vec<_>>(),
            vec![1, 3]
        );
    }
}
