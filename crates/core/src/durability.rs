//! The durability layer: write-ahead logging of logical operations, the
//! checkpoint catalog, and crash recovery.
//!
//! A durable [`Database`](crate::Database) keeps a directory with
//!
//! * `wal.log` — the write-ahead log (`mxq-wal` record framing).  Every
//!   logical operation that changes the published store — a document load
//!   or an update's pending-update list — is encoded, appended and (per
//!   the [`SyncPolicy`]) fsynced **before** the in-memory store mutates.
//!   Each record is stamped with the store generation the operation
//!   produces, so recovery can replay exactly up to the last published
//!   generation and stamps stay comparable across restarts.
//! * `doc-<frag>-<generation>.mxq` — one checksummed image per loaded
//!   document (`mxq_xmldb::disk` snapshot format: one page per column
//!   chunk), written by a checkpoint.  Image files are **immutable**: a checkpoint never
//!   rewrites a file an earlier catalog references — a changed document
//!   gets a fresh generation-stamped file, an unchanged document's
//!   existing file is referenced as-is (no rewrite).
//! * `catalog.mxq` — the checkpoint catalog: format version, the
//!   checkpointed generation and the fragment → (name, file) table.  Written atomically (temp + fsync + rename) **after**
//!   all page images, so the catalog only ever names complete files; the
//!   WAL is rotated (records stamped at or below the checkpointed
//!   generation dropped, later commits' records kept), and image files
//!   the new catalog no longer references are deleted, only after the
//!   catalog commit.  A crash anywhere before that commit is harmless:
//!   the previous catalog and every file it names are untouched, the
//!   surviving WAL records carry generations ≤ that catalog's checkpoint
//!   generation or are replayed on top of exactly the state they were
//!   logged against, and the next open sweeps up the unreferenced new
//!   images.
//!
//! With per-document write latches the WAL is multi-writer: records from
//! concurrent commits interleave in file order, but each carries its
//! commit-ticket generation, and for any single document the records
//! appear in ticket order (a later commit on the same document appends
//! only after the earlier one released the latch).  Under
//! [`SyncPolicy::GroupCommit`] appends do not fsync individually —
//! writers wait on the group-commit coordinator, which amortizes one
//! fsync over every record that arrived in the gather window, and a
//! commit publishes only after its record is covered by a completed
//! fsync.
//!
//! Recovery (`Database::open`) loads the catalog (if any), replays the
//! WAL's complete records with stamps beyond the checkpoint generation
//! in generation order, and truncates any torn or corrupt tail the CRC
//! scan rejected.  An update whose WAL record did not make it to disk
//! completely was never acknowledged — the commit pipeline logs (and,
//! under group commit, waits for the covering fsync) before it
//! publishes — so discarding the tail is exactly "recover to the last
//! published generation".

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use mxq_engine::NodeId;
use mxq_wal::{SyncPolicy, WalError, WalWriter};
use mxq_xmldb::disk::{decode_document, encode_document, DiskError};
use mxq_xmldb::{DocStore, Document};

use crate::pul::UpdatePrimitive;

/// Name of the write-ahead log file inside a durable database directory.
pub const WAL_FILE: &str = "wal.log";
/// Name of the checkpoint catalog file.
pub const CATALOG_FILE: &str = "catalog.mxq";
/// Magic bytes of the checkpoint catalog.
pub const CATALOG_MAGIC: &[u8; 4] = b"MXQC";
/// Catalog format version.  Version 1 also stored a page size (`u64`)
/// and a fill percent (`u8`) after the generation, which nothing reads;
/// decoding skips them.
pub const CATALOG_VERSION: u16 = 2;

/// The page-image file name for a fragment checkpointed at a generation.
/// The generation stamp makes image files immutable: a later checkpoint
/// of a changed document writes a *new* file instead of overwriting one
/// the committed catalog still references.
pub fn doc_file_name(frag: u32, generation: u64) -> String {
    format!("doc-{frag}-{generation}.mxq")
}

/// True if a directory entry name looks like a page-image file.
fn is_image_file(name: &str) -> bool {
    name.starts_with("doc-") && name.ends_with(".mxq")
}

/// Delete page-image files in `dir` that `images` (the committed catalog's
/// fragment → file table) does not reference: leftovers of a checkpoint
/// that crashed between writing images and committing its catalog, or
/// files superseded by a catalog that just committed.
pub(crate) fn remove_unreferenced_images(dir: &Path, images: &HashMap<u32, String>) {
    let referenced: HashSet<&str> = images.values().map(String::as_str).collect();
    remove_files(dir, |name| {
        is_image_file(name) && !referenced.contains(name)
    });
}

/// Delete stray `*.tmp` files in `dir`: debris of a [`mxq_wal::write_atomic`]
/// that crashed between creating its temp file and the rename.
pub(crate) fn remove_stale_tmp_files(dir: &Path) {
    remove_files(dir, |name| name.ends_with(".tmp"));
}

/// Delete the files in `dir` whose names `doomed` selects.  Best-effort —
/// a file that cannot be removed is simply left behind for the next sweep.
fn remove_files(dir: &Path, doomed: impl Fn(&str) -> bool) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        if entry.file_name().to_str().is_some_and(&doomed) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

// ---------------------------------------------------------------------------
// options
// ---------------------------------------------------------------------------

/// Configuration of a durable database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityOptions {
    /// When WAL appends are forced to disk (see [`SyncPolicy`]).
    pub sync: SyncPolicy,
    /// Optional resident-memory budget in bytes: after a checkpoint, clean
    /// documents are evicted (column images dropped, faulted back from
    /// their disk images on next access) until the store's estimated
    /// resident image bytes fit the budget.  `None` disables eviction.
    pub memory_budget: Option<usize>,
    /// If set, a background thread checkpoints the database at this
    /// interval, so checkpoint I/O runs off the writer path.  `None`
    /// leaves checkpoints entirely to explicit `checkpoint()` calls.
    pub checkpoint_interval: Option<Duration>,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            sync: SyncPolicy::Always,
            memory_budget: None,
            checkpoint_interval: None,
        }
    }
}

impl DurabilityOptions {
    /// Read the options from the environment: `MXQ_SYNC` (see
    /// [`SyncPolicy::from_env`]), `MXQ_MEMORY_BUDGET` (bytes; unset or
    /// `0` disables eviction) and `MXQ_CHECKPOINT_MS` (milliseconds
    /// between background checkpoints; unset or `0` disables the
    /// background thread).
    ///
    /// A set-but-unparsable value is an error naming the variable, so a
    /// typo cannot silently weaken durability or disable eviction.
    pub fn from_env() -> Result<DurabilityOptions, String> {
        /// A set, nonzero value of `var`; unset, empty and `0` are `None`.
        fn nonzero<T: std::str::FromStr + PartialEq + Default>(
            var: &str,
        ) -> Result<Option<T>, String> {
            match std::env::var(var) {
                Ok(raw) if !raw.trim().is_empty() => match raw.trim().parse::<T>() {
                    Ok(n) => Ok((n != T::default()).then_some(n)),
                    Err(_) => Err(format!("invalid {var} `{raw}`")),
                },
                _ => Ok(None),
            }
        }
        Ok(DurabilityOptions {
            sync: SyncPolicy::from_env()?,
            memory_budget: nonzero("MXQ_MEMORY_BUDGET")?,
            checkpoint_interval: nonzero("MXQ_CHECKPOINT_MS")?.map(Duration::from_millis),
        })
    }
}

// ---------------------------------------------------------------------------
// errors
// ---------------------------------------------------------------------------

/// Errors from the durability layer: WAL writes, checkpoint/catalog I/O,
/// image decoding, and recovery replay.
#[derive(Debug)]
pub enum DurabilityError {
    /// Appending to or truncating the write-ahead log failed.  The update
    /// that triggered the append was **not** applied: the in-memory store
    /// is untouched and the statement must be treated as failed.
    Wal(WalError),
    /// Reading or writing a checkpoint file failed.
    Io(std::io::Error),
    /// An on-disk image (page file or WAL payload) failed to decode.
    Disk(DiskError),
    /// The catalog or a WAL payload is structurally invalid.
    Corrupt(String),
    /// A group-commit fsync failed earlier, so the log can no longer
    /// guarantee durability; every subsequent durable commit and load
    /// fails with this error until the database is reopened (which
    /// recovers from the surviving, known-durable log prefix).  Exposed as
    /// [`DatabaseStats::wal_poisoned`](crate::DatabaseStats) so callers
    /// can distinguish "log poisoned, reopen required" from an ordinary
    /// I/O error.
    Poisoned,
}

impl std::fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityError::Wal(e) => write!(f, "{e}"),
            DurabilityError::Io(e) => write!(f, "durable store I/O failed: {e}"),
            DurabilityError::Disk(e) => write!(f, "on-disk image invalid: {e}"),
            DurabilityError::Corrupt(what) => write!(f, "durable store corrupt: {what}"),
            DurabilityError::Poisoned => write!(
                f,
                "write-ahead log poisoned: a group-commit fsync failed; \
                 reopen the database to recover"
            ),
        }
    }
}

impl std::error::Error for DurabilityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurabilityError::Wal(e) => Some(e),
            DurabilityError::Io(e) => Some(e),
            DurabilityError::Disk(e) => Some(e),
            DurabilityError::Corrupt(_) | DurabilityError::Poisoned => None,
        }
    }
}

impl From<WalError> for DurabilityError {
    fn from(e: WalError) -> Self {
        DurabilityError::Wal(e)
    }
}

impl From<std::io::Error> for DurabilityError {
    fn from(e: std::io::Error) -> Self {
        DurabilityError::Io(e)
    }
}

impl From<DiskError> for DurabilityError {
    fn from(e: DiskError) -> Self {
        DurabilityError::Disk(e)
    }
}

// ---------------------------------------------------------------------------
// durable state attached to a Database
// ---------------------------------------------------------------------------

/// Checkpoint bookkeeping, guarded by its own mutex so writers marking
/// fragments dirty never contend with WAL appends or group-commit fsyncs.
pub(crate) struct CheckpointState {
    /// Fragments whose published state moved past the last checkpoint:
    /// updated, freshly loaded, or reconstructed by WAL replay.  Only
    /// fragments *not* in this set may be evicted, and only their images
    /// may be reused (skipped) by the next checkpoint.
    pub(crate) dirty: HashSet<u32>,
    /// Fragment → image file referenced by the last committed catalog.
    /// A checkpoint reuses these entries for clean fragments instead of
    /// rewriting their images.
    pub(crate) images: HashMap<u32, String>,
    /// The WAL writer's cumulative `bytes_appended` observed by the last
    /// checkpoint.  The background thread skips a tick when the dirty set
    /// is empty *and* this still matches — i.e. nothing was appended (not
    /// even a not-yet-published commit's record) since the last round.
    pub(crate) wal_bytes_at_checkpoint: u64,
}

/// Group-commit coordination: concurrent writers append records, then wait
/// here until one of them (the batch leader) fsyncs the log for everyone
/// who arrived in the gather window.
struct GroupCommit {
    progress: Mutex<GroupProgress>,
    cv: Condvar,
    batches: AtomicU64,
    records: AtomicU64,
    /// Smallest batch so far (`u64::MAX` until the first batch lands).
    batch_min: AtomicU64,
    batch_max: AtomicU64,
    /// Mirrors [`GroupProgress::poisoned`] for readers that must not (or
    /// cannot) take the progress mutex: `Durable::append` checks it while
    /// holding the WAL mutex, so no record can be appended after the
    /// failure path truncated the log (the flag is set before the
    /// truncation, under that same WAL mutex).
    poisoned: AtomicBool,
    /// The log length known to be durable: the file length captured under
    /// the WAL mutex immediately before the last *successful* group fsync
    /// (initially the recovered length at open).  On a failed fsync the
    /// leader truncates the log back to this watermark, taking every
    /// unacknowledged record out of the file so recovery cannot replay an
    /// update whose commit was reported failed.
    synced_len: AtomicU64,
}

#[derive(Default)]
struct GroupProgress {
    /// Append sequence numbers handed out (1-based).
    appended: u64,
    /// Highest sequence covered by a completed fsync.
    synced: u64,
    /// A leader is currently gathering or fsyncing a batch.
    leader: bool,
    /// A group fsync failed; every later commit fails with
    /// [`DurabilityError::Poisoned`] rather than claim a durability the
    /// log cannot provide.  The failing leader truncated the
    /// unacknowledged suffix out of the log (best effort), so recovery
    /// replays only acknowledged commits.
    poisoned: bool,
}

/// The durability attachment of a [`crate::Database`]: directory, WAL
/// writer, checkpoint bookkeeping and options.  There is no single big
/// lock: appends take `wal`, dirty marking takes `ckpt`, and a checkpoint
/// never holds either while it writes images.
///
/// The checkpoint state is private to this file and reachable only
/// through [`Durable::mark_dirty`] and [`Durable::with_ckpt`], which take
/// the store (`&mut DocStore` / `&DocStore`) as proof that the caller
/// holds the store lock: the lock order store → ckpt is a property of the
/// signatures, and a dirty mark outside the publish critical section does
/// not compile.
pub(crate) struct Durable {
    pub(crate) dir: PathBuf,
    pub(crate) options: DurabilityOptions,
    /// The WAL writer: appends, group-commit fsyncs and checkpoint
    /// rotation serialize here and nowhere else.
    pub(crate) wal: Mutex<WalWriter>,
    /// Checkpoint bookkeeping (dirty set, image table).
    ckpt: Mutex<CheckpointState>,
    /// Held for the duration of a checkpoint so a manual `checkpoint()`
    /// and the background thread never interleave.
    pub(crate) checkpoint_serial: Mutex<()>,
    group: GroupCommit,
}

impl Durable {
    pub(crate) fn new(
        dir: PathBuf,
        options: DurabilityOptions,
        wal: WalWriter,
        images: HashMap<u32, String>,
    ) -> Durable {
        let wal_len = wal.len();
        Durable {
            dir,
            options,
            wal: Mutex::new(wal),
            ckpt: Mutex::new(CheckpointState {
                dirty: HashSet::new(),
                images,
                wal_bytes_at_checkpoint: 0,
            }),
            checkpoint_serial: Mutex::new(()),
            group: GroupCommit {
                progress: Mutex::new(GroupProgress::default()),
                cv: Condvar::new(),
                batches: AtomicU64::new(0),
                records: AtomicU64::new(0),
                batch_min: AtomicU64::new(u64::MAX),
                batch_max: AtomicU64::new(0),
                poisoned: AtomicBool::new(false),
                // everything recovered from disk at open is durable
                synced_len: AtomicU64::new(wal_len),
            },
        }
    }

    /// Absolute path of a file inside the database directory.
    pub(crate) fn file(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Append one generation-stamped record.  Under
    /// [`SyncPolicy::GroupCommit`] no fsync happens here; the returned
    /// sequence number is what [`Durable::wait_durable`] blocks on.  For
    /// every other policy the append applies the policy inline (exactly
    /// the pre-group-commit behaviour) and the sequence is `0`.
    pub(crate) fn append(&self, generation: u64, payload: &[u8]) -> Result<u64, DurabilityError> {
        let group = matches!(self.options.sync, SyncPolicy::GroupCommit(_));
        {
            let mut wal = self.wal.lock().unwrap();
            // the poison gate shares the WAL mutex with the failure path's
            // truncation: every record is either appended before a failing
            // leader truncates (and is taken back out of the file) or
            // rejected here — none can land durable-looking but
            // unacknowledged after a poisoning
            if group && self.group.poisoned.load(Ordering::Acquire) {
                return Err(DurabilityError::Poisoned);
            }
            wal.append(generation, payload)?;
        }
        if group {
            let mut p = self.group.progress.lock().unwrap();
            p.appended += 1;
            Ok(p.appended)
        } else {
            Ok(0)
        }
    }

    /// Block until the record with append sequence `seq` is durable.  A
    /// no-op except under [`SyncPolicy::GroupCommit`], where the first
    /// waiter becomes the batch leader: it gathers the batch (sleeping in
    /// short slices, stopping as soon as appends stop arriving or the
    /// window is spent), issues one fsync covering every record appended by
    /// then, and wakes the batch.  A commit may only publish after this
    /// returns `Ok`.
    pub(crate) fn wait_durable(&self, seq: u64) -> Result<(), DurabilityError> {
        let SyncPolicy::GroupCommit(window) = self.options.sync else {
            return Ok(());
        };
        let mut p = self.group.progress.lock().unwrap();
        loop {
            if p.synced >= seq {
                return Ok(());
            }
            if p.poisoned {
                return Err(DurabilityError::Poisoned);
            }
            if p.leader {
                p = self.group.cv.wait(p).unwrap();
                continue;
            }
            p.leader = true;
            let mut gathered = p.appended;
            drop(p);
            // adaptive gather: the window is a worst-case bound on added
            // latency, not a mandatory delay.  Yield the CPU so concurrent
            // writers can finish their appends; once appends stop arriving
            // the burst has drained and waiting longer only adds latency
            // (with cheap fsyncs a fixed timer sleep would dominate).
            if !window.is_zero() {
                let gather_deadline = std::time::Instant::now() + window;
                let mut idle = 0u32;
                while idle < 2 && std::time::Instant::now() < gather_deadline {
                    std::thread::yield_now();
                    let appended = self.group.progress.lock().unwrap().appended;
                    if appended == gathered {
                        idle += 1;
                    } else {
                        idle = 0;
                        gathered = appended;
                    }
                }
            }
            // read the batch target *before* the fsync: every sequence
            // number ≤ target was assigned after its record was fully in
            // the file, so the fsync below covers all of them
            let target = self.group.progress.lock().unwrap().appended;
            let res = {
                let mut wal = self.wal.lock().unwrap();
                // captured under the same WAL mutex hold as the fsync, so
                // it is exactly the bytes the fsync covers on success
                let len = wal.len();
                match wal.sync() {
                    Ok(()) => {
                        self.group.synced_len.store(len, Ordering::Release);
                        Ok(())
                    }
                    Err(e) => {
                        // poison first, then truncate the unacknowledged
                        // suffix, all while still holding the WAL mutex:
                        // concurrent appends gate on the flag under this
                        // mutex, so nothing can slip in behind the
                        // truncation.  Every record removed belongs to a
                        // commit that has not published (publish waits for
                        // this fsync) and will be reported failed.
                        self.group.poisoned.store(true, Ordering::Release);
                        let watermark = self.group.synced_len.load(Ordering::Acquire);
                        let rolled_back = wal.truncate_to(watermark).is_ok();
                        Err((e, rolled_back))
                    }
                }
            };
            p = self.group.progress.lock().unwrap();
            p.leader = false;
            match res {
                Ok(()) => {
                    let batch = target - p.synced;
                    self.group.batches.fetch_add(1, Ordering::Relaxed);
                    self.group.records.fetch_add(batch, Ordering::Relaxed);
                    self.group.batch_min.fetch_min(batch, Ordering::Relaxed);
                    self.group.batch_max.fetch_max(batch, Ordering::Relaxed);
                    p.synced = target;
                    self.group.cv.notify_all();
                }
                Err((e, _rolled_back)) => {
                    // if the rollback also failed, the unacknowledged
                    // records may survive in the file; their outcome across
                    // a crash is indeterminate (documented on SyncPolicy)
                    p.poisoned = true;
                    self.group.cv.notify_all();
                    return Err(e.into());
                }
            }
        }
    }

    /// Mark fragments dirty for the next checkpoint.  The `&mut DocStore`
    /// can only come from the store write guard, so marks happen inside the
    /// publish critical section (lock order: store → ckpt): the checkpoint
    /// captures the dirty set together with its store snapshot under the
    /// store read lock, and that capture is only atomic with respect to
    /// publishes because of this.
    pub(crate) fn mark_dirty(&self, _store: &mut DocStore, frags: &[u32]) {
        let mut ckpt = self.ckpt.lock().unwrap();
        ckpt.dirty.extend(frags.iter().copied());
    }

    /// Run `f` on the checkpoint bookkeeping: the checkpoint's capture,
    /// its bookkeeping after the catalog commit, and eviction's dirty-set
    /// read.  The `&DocStore` proves the caller holds the store lock
    /// (lock order: store → ckpt).
    pub(crate) fn with_ckpt<R>(
        &self,
        _store: &DocStore,
        f: impl FnOnce(&mut CheckpointState) -> R,
    ) -> R {
        f(&mut self.ckpt.lock().unwrap())
    }

    /// True once a group-commit fsync has failed: the log no longer
    /// guarantees durability and every subsequent durable commit fails
    /// with [`DurabilityError::Poisoned`] until the database is reopened.
    pub(crate) fn poisoned(&self) -> bool {
        self.group.poisoned.load(Ordering::Acquire)
    }

    /// Rotate the WAL after a checkpoint: drop records stamped at or
    /// before `generation`, keep later ones, and reset the group-commit
    /// durable watermark to the rotated file's length (the rotation is
    /// written atomically and fsynced, so the whole new file is durable).
    /// Returns the writer's cumulative `bytes_appended`.
    pub(crate) fn rotate_wal(&self, generation: u64) -> Result<u64, DurabilityError> {
        let mut wal = self.wal.lock().unwrap();
        wal.retain_after(generation)?;
        self.group.synced_len.store(wal.len(), Ordering::Release);
        Ok(wal.bytes_appended())
    }

    /// WAL traffic counters: (bytes appended, fsyncs issued).
    pub(crate) fn wal_counters(&self) -> (u64, u64) {
        let wal = self.wal.lock().unwrap();
        (wal.bytes_appended(), wal.syncs())
    }

    /// Group-commit batch histogram: (batches, records, min, max), with
    /// min reported as 0 while no batch has completed.
    pub(crate) fn group_commit_stats(&self) -> (u64, u64, u64, u64) {
        let batches = self.group.batches.load(Ordering::Relaxed);
        let min = self.group.batch_min.load(Ordering::Relaxed);
        (
            batches,
            self.group.records.load(Ordering::Relaxed),
            if batches == 0 { 0 } else { min },
            self.group.batch_max.load(Ordering::Relaxed),
        )
    }
}

// ---------------------------------------------------------------------------
// WAL payload codec
// ---------------------------------------------------------------------------

/// A decoded WAL operation — the logical unit recovery replays.
#[derive(Debug)]
pub(crate) enum WalOp {
    /// `load_document(name, xml)`: re-shred on replay.
    LoadXml { name: String, xml: String },
    /// `load_shredded(doc)`: the document travels as a page-less image.
    LoadDoc { doc: Box<Document> },
    /// One update's pending-update list, in collection order.
    Update { primitives: Vec<UpdatePrimitive> },
}

const OP_LOAD_XML: u8 = 1;
const OP_LOAD_DOC: u8 = 2;
const OP_UPDATE: u8 = 3;

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

fn put_node(out: &mut Vec<u8>, node: NodeId) {
    out.extend_from_slice(&node.frag.to_le_bytes());
    out.extend_from_slice(&node.pre.to_le_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DurabilityError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| DurabilityError::Corrupt("truncated WAL payload".into()))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DurabilityError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DurabilityError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, DurabilityError> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| DurabilityError::Corrupt("non-UTF-8 string in WAL payload".into()))
    }

    fn bytes(&mut self) -> Result<&'a [u8], DurabilityError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn node(&mut self) -> Result<NodeId, DurabilityError> {
        let frag = self.u32()?;
        let pre = self.u32()?;
        Ok(NodeId::new(frag, pre))
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

const PRIM_INSERT_INTO: u8 = 1;
const PRIM_INSERT_BEFORE: u8 = 2;
const PRIM_INSERT_AFTER: u8 = 3;
const PRIM_DELETE: u8 = 4;
const PRIM_REPLACE_NODE: u8 = 5;
const PRIM_REPLACE_VALUE: u8 = 6;
const PRIM_RENAME: u8 = 7;
const PRIM_SET_ATTRIBUTE: u8 = 8;
const PRIM_REMOVE_ATTRIBUTE: u8 = 9;
const PRIM_RENAME_ATTRIBUTE: u8 = 10;

fn put_primitive(out: &mut Vec<u8>, prim: &UpdatePrimitive) {
    match prim {
        UpdatePrimitive::InsertInto {
            parent,
            first,
            content,
        } => {
            out.push(PRIM_INSERT_INTO);
            put_node(out, *parent);
            out.push(*first as u8);
            put_bytes(out, &encode_document(content));
        }
        UpdatePrimitive::InsertBefore { target, content } => {
            out.push(PRIM_INSERT_BEFORE);
            put_node(out, *target);
            put_bytes(out, &encode_document(content));
        }
        UpdatePrimitive::InsertAfter { target, content } => {
            out.push(PRIM_INSERT_AFTER);
            put_node(out, *target);
            put_bytes(out, &encode_document(content));
        }
        UpdatePrimitive::Delete { target } => {
            out.push(PRIM_DELETE);
            put_node(out, *target);
        }
        UpdatePrimitive::ReplaceNode { target, content } => {
            out.push(PRIM_REPLACE_NODE);
            put_node(out, *target);
            put_bytes(out, &encode_document(content));
        }
        UpdatePrimitive::ReplaceValue { target, value } => {
            out.push(PRIM_REPLACE_VALUE);
            put_node(out, *target);
            put_str(out, value);
        }
        UpdatePrimitive::Rename { target, name } => {
            out.push(PRIM_RENAME);
            put_node(out, *target);
            put_str(out, name);
        }
        UpdatePrimitive::SetAttribute { elem, name, value } => {
            out.push(PRIM_SET_ATTRIBUTE);
            put_node(out, *elem);
            put_str(out, name);
            put_str(out, value);
        }
        UpdatePrimitive::RemoveAttribute { elem, name } => {
            out.push(PRIM_REMOVE_ATTRIBUTE);
            put_node(out, *elem);
            put_str(out, name);
        }
        UpdatePrimitive::RenameAttribute {
            elem,
            name,
            new_name,
        } => {
            out.push(PRIM_RENAME_ATTRIBUTE);
            put_node(out, *elem);
            put_str(out, name);
            put_str(out, new_name);
        }
    }
}

fn read_primitive(r: &mut Reader<'_>) -> Result<UpdatePrimitive, DurabilityError> {
    let tag = r.u8()?;
    Ok(match tag {
        PRIM_INSERT_INTO => {
            let parent = r.node()?;
            let first = r.u8()? != 0;
            let content = decode_document(r.bytes()?)?;
            UpdatePrimitive::InsertInto {
                parent,
                first,
                content,
            }
        }
        PRIM_INSERT_BEFORE => UpdatePrimitive::InsertBefore {
            target: r.node()?,
            content: decode_document(r.bytes()?)?,
        },
        PRIM_INSERT_AFTER => UpdatePrimitive::InsertAfter {
            target: r.node()?,
            content: decode_document(r.bytes()?)?,
        },
        PRIM_DELETE => UpdatePrimitive::Delete { target: r.node()? },
        PRIM_REPLACE_NODE => UpdatePrimitive::ReplaceNode {
            target: r.node()?,
            content: decode_document(r.bytes()?)?,
        },
        PRIM_REPLACE_VALUE => UpdatePrimitive::ReplaceValue {
            target: r.node()?,
            value: r.str()?,
        },
        PRIM_RENAME => UpdatePrimitive::Rename {
            target: r.node()?,
            name: r.str()?,
        },
        PRIM_SET_ATTRIBUTE => UpdatePrimitive::SetAttribute {
            elem: r.node()?,
            name: r.str()?,
            value: r.str()?,
        },
        PRIM_REMOVE_ATTRIBUTE => UpdatePrimitive::RemoveAttribute {
            elem: r.node()?,
            name: r.str()?,
        },
        PRIM_RENAME_ATTRIBUTE => UpdatePrimitive::RenameAttribute {
            elem: r.node()?,
            name: r.str()?,
            new_name: r.str()?,
        },
        other => {
            return Err(DurabilityError::Corrupt(format!(
                "unknown update primitive tag {other}"
            )))
        }
    })
}

/// Encode a `load_document` operation.
pub(crate) fn encode_load_xml(name: &str, xml: &str) -> Vec<u8> {
    let mut out = vec![OP_LOAD_XML];
    put_str(&mut out, name);
    put_str(&mut out, xml);
    out
}

/// Encode a `load_shredded` operation.
pub(crate) fn encode_load_doc(doc: &Document) -> Vec<u8> {
    let mut out = vec![OP_LOAD_DOC];
    put_bytes(&mut out, &encode_document(doc));
    out
}

/// Encode one update's pending-update list.
pub(crate) fn encode_update(primitives: &[UpdatePrimitive]) -> Vec<u8> {
    let mut out = vec![OP_UPDATE];
    out.extend_from_slice(&(primitives.len() as u32).to_le_bytes());
    for prim in primitives {
        put_primitive(&mut out, prim);
    }
    out
}

/// Decode a WAL payload back into the operation it logged.
pub(crate) fn decode_op(payload: &[u8]) -> Result<WalOp, DurabilityError> {
    let mut r = Reader::new(payload);
    let op = match r.u8()? {
        OP_LOAD_XML => WalOp::LoadXml {
            name: r.str()?,
            xml: r.str()?,
        },
        OP_LOAD_DOC => WalOp::LoadDoc {
            doc: Box::new(decode_document(r.bytes()?)?),
        },
        OP_UPDATE => {
            let count = r.u32()? as usize;
            let mut primitives = Vec::with_capacity(count);
            for _ in 0..count {
                primitives.push(read_primitive(&mut r)?);
            }
            WalOp::Update { primitives }
        }
        other => {
            return Err(DurabilityError::Corrupt(format!(
                "unknown WAL operation tag {other}"
            )))
        }
    };
    if !r.done() {
        return Err(DurabilityError::Corrupt(
            "trailing bytes in WAL payload".into(),
        ));
    }
    Ok(op)
}

// ---------------------------------------------------------------------------
// catalog codec
// ---------------------------------------------------------------------------

/// One checkpointed document in the catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CatalogDoc {
    pub(crate) frag: u32,
    pub(crate) name: String,
    pub(crate) file: String,
}

/// The decoded checkpoint catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Catalog {
    pub(crate) generation: u64,
    pub(crate) docs: Vec<CatalogDoc>,
}

pub(crate) fn encode_catalog(cat: &Catalog) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(CATALOG_MAGIC);
    out.extend_from_slice(&CATALOG_VERSION.to_le_bytes());
    out.extend_from_slice(&cat.generation.to_le_bytes());
    out.extend_from_slice(&(cat.docs.len() as u32).to_le_bytes());
    for d in &cat.docs {
        out.extend_from_slice(&d.frag.to_le_bytes());
        put_str(&mut out, &d.name);
        put_str(&mut out, &d.file);
    }
    // whole-file checksum so a damaged catalog is a structured error
    let crc = mxq_wal::crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

pub(crate) fn decode_catalog(bytes: &[u8]) -> Result<Catalog, DurabilityError> {
    if bytes.len() < 4 {
        return Err(DurabilityError::Corrupt("catalog too short".into()));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let crc = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if mxq_wal::crc32(body) != crc {
        return Err(DurabilityError::Corrupt(
            "catalog failed its checksum".into(),
        ));
    }
    let mut r = Reader::new(body);
    if r.take(4)? != CATALOG_MAGIC {
        return Err(DurabilityError::Corrupt("catalog has bad magic".into()));
    }
    let version = u16::from_le_bytes(r.take(2)?.try_into().unwrap());
    if !(1..=CATALOG_VERSION).contains(&version) {
        return Err(DurabilityError::Corrupt(format!(
            "unsupported catalog version {version}"
        )));
    }
    let generation = u64::from_le_bytes(r.take(8)?.try_into().unwrap());
    if version == 1 {
        // page size (u64) and fill percent (u8), unread
        r.take(9)?;
    }
    let count = r.u32()? as usize;
    let mut docs = Vec::with_capacity(count);
    for _ in 0..count {
        let frag = r.u32()?;
        let name = r.str()?;
        let file = r.str()?;
        docs.push(CatalogDoc { frag, name, file });
    }
    if !r.done() {
        return Err(DurabilityError::Corrupt("trailing bytes in catalog".into()));
    }
    Ok(Catalog { generation, docs })
}

/// Read and decode the catalog if one exists.
pub(crate) fn read_catalog(dir: &Path) -> Result<Option<Catalog>, DurabilityError> {
    match mxq_wal::read_optional(&dir.join(CATALOG_FILE))? {
        Some(bytes) => Ok(Some(decode_catalog(&bytes)?)),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mxq_xmldb::{shred, ShredOptions};

    #[test]
    fn catalog_round_trip_and_corruption() {
        let cat = Catalog {
            generation: 42,
            docs: vec![
                CatalogDoc {
                    frag: 1,
                    name: "a.xml".into(),
                    file: "doc-1.mxq".into(),
                },
                CatalogDoc {
                    frag: 2,
                    name: "b.xml".into(),
                    file: "doc-2.mxq".into(),
                },
            ],
        };
        let bytes = encode_catalog(&cat);
        assert_eq!(decode_catalog(&bytes).unwrap(), cat);
        let mut bad = bytes.clone();
        bad[10] ^= 1;
        assert!(matches!(
            decode_catalog(&bad),
            Err(DurabilityError::Corrupt(_))
        ));
    }

    /// A version-1 catalog (page size and fill percent after the
    /// generation) still opens.
    #[test]
    fn version_1_catalog_decodes() {
        let mut v1 = Vec::new();
        v1.extend_from_slice(b"MXQC");
        v1.extend_from_slice(&1u16.to_le_bytes());
        v1.extend_from_slice(&7u64.to_le_bytes());
        v1.extend_from_slice(&64u64.to_le_bytes());
        v1.push(75);
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&1u32.to_le_bytes());
        for s in ["a.xml", "doc-1-7.mxq"] {
            v1.extend_from_slice(&(s.len() as u32).to_le_bytes());
            v1.extend_from_slice(s.as_bytes());
        }
        let crc = mxq_wal::crc32(&v1);
        v1.extend_from_slice(&crc.to_le_bytes());
        let cat = decode_catalog(&v1).unwrap();
        assert_eq!(
            cat,
            Catalog {
                generation: 7,
                docs: vec![CatalogDoc {
                    frag: 1,
                    name: "a.xml".into(),
                    file: "doc-1-7.mxq".into(),
                }],
            }
        );
        // what this build writes is version 2, nine bytes shorter
        assert_eq!(encode_catalog(&cat).len() + 9, v1.len());
    }

    #[test]
    fn wal_ops_round_trip() {
        let frag_doc = shred(
            "#update-content",
            "<bidder n=\"1\"><date>x</date></bidder>",
            &ShredOptions::default(),
        )
        .unwrap();
        let prims = vec![
            UpdatePrimitive::InsertInto {
                parent: NodeId::new(3, 17),
                first: true,
                content: frag_doc.clone(),
            },
            UpdatePrimitive::Delete {
                target: NodeId::new(3, 4),
            },
            UpdatePrimitive::Rename {
                target: NodeId::new(1, 2),
                name: "renamed".into(),
            },
            UpdatePrimitive::SetAttribute {
                elem: NodeId::new(1, 9),
                name: "k".into(),
                value: "v".into(),
            },
            UpdatePrimitive::RenameAttribute {
                elem: NodeId::new(1, 9),
                name: "old".into(),
                new_name: "new".into(),
            },
        ];
        let payload = encode_update(&prims);
        match decode_op(&payload).unwrap() {
            WalOp::Update { primitives } => {
                assert_eq!(primitives.len(), prims.len());
                match (&primitives[0], &prims[0]) {
                    (
                        UpdatePrimitive::InsertInto {
                            parent: a,
                            first: fa,
                            content: ca,
                        },
                        UpdatePrimitive::InsertInto {
                            parent: b,
                            first: fb,
                            content: cb,
                        },
                    ) => {
                        assert_eq!(a, b);
                        assert_eq!(fa, fb);
                        assert_eq!(
                            mxq_xmldb::serialize_document(ca),
                            mxq_xmldb::serialize_document(cb)
                        );
                    }
                    _ => panic!("primitive kind changed in round trip"),
                }
            }
            other => panic!("expected update op, got {other:?}"),
        }

        let payload = encode_load_xml("doc.xml", "<a><b/></a>");
        match decode_op(&payload).unwrap() {
            WalOp::LoadXml { name, xml } => {
                assert_eq!(name, "doc.xml");
                assert_eq!(xml, "<a><b/></a>");
            }
            other => panic!("expected load op, got {other:?}"),
        }

        assert!(decode_op(&[99]).is_err());
        assert!(decode_op(&payload[..payload.len() - 1]).is_err());
    }

    #[test]
    fn options_default_to_always_sync() {
        let opts = DurabilityOptions::default();
        assert_eq!(opts.sync, SyncPolicy::Always);
        assert!(opts.memory_budget.is_none());
    }
}
