//! Opening a durable database, recovery replay, checkpoints and eviction.
//!
//! **Owns** [`Database::open`] / [`Database::open_with`] (load the last
//! checkpoint, replay the WAL tail past it), `replay` of one recovered WAL
//! operation, [`Database::checkpoint`] and the `run_checkpoint` pipeline
//! it shares with the background [`CheckpointThread`], including eviction
//! down to the memory budget.
//!
//! **May call** the commit pipeline's `splice` and `publish` phases
//! (replay goes through exactly the code live commits use, minus the log),
//! the latch table (eviction clears idle masters), and the durability
//! attachment.  Lock discipline: never holds a fragment latch across
//! checkpoint I/O; takes the checkpoint state only through
//! `Durable::with_ckpt`, which demands the store lock (store → ckpt → wal).

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use mxq_wal::WalWriter;
use mxq_xmldb::disk::encode_snapshot;
use mxq_xmldb::{decode_snapshot, DocStore};

use super::commit::{shred_document, splice, Change};
use super::latch::LatchTable;
use super::{Counters, Database};
use crate::durability::{
    self, decode_op, doc_file_name, Catalog, CatalogDoc, DurabilityError, DurabilityOptions,
    Durable, WalOp, CATALOG_FILE, WAL_FILE,
};
use crate::pul::PendingUpdateList;
use crate::Error;

/// Handle on the background checkpoint thread: dropping it (with the
/// database) disconnects the thread's stop channel, which wakes and ends
/// the thread, and joins it.
pub(super) struct CheckpointThread {
    stop: Option<mpsc::Sender<()>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl CheckpointThread {
    /// Start a thread that wakes every `interval` and checkpoints `db` —
    /// snapshotting the dirty set and writing the images without holding
    /// any fragment latch.
    fn spawn(
        interval: Duration,
        db: &Database,
        durable: Arc<Durable>,
    ) -> std::io::Result<CheckpointThread> {
        let (stop, stopped) = mpsc::channel();
        let store = db.store.clone();
        let latches = db.latches.clone();
        let counters = db.counters.clone();
        let handle = std::thread::Builder::new()
            .name("mxq-checkpoint".into())
            .spawn(move || {
                while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                    // a failed or skipped tick is retried next interval;
                    // the WAL still holds everything, durability is not
                    // weakened by a checkpoint that did not happen
                    if let Ok(true) = run_checkpoint(&store, &latches, &durable, &counters, true) {
                        counters
                            .background_checkpoints
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }
            })?;
        Ok(CheckpointThread {
            stop: Some(stop),
            handle: Some(handle),
        })
    }
}

impl Drop for CheckpointThread {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Database {
    /// Open (or create) a durable database rooted at `dir` with default
    /// [`DurabilityOptions`] (fsync on every WAL append, no eviction).
    ///
    /// If the directory holds an earlier database, its state is recovered:
    /// the last checkpoint's page images are loaded and the write-ahead
    /// log's complete records are replayed, which lands the store exactly on
    /// the last published generation.  A torn or corrupt log tail (a crash
    /// mid-append) is detected by checksum, discarded and truncated — the
    /// update it belonged to was never acknowledged, because
    /// update application syncs the log *before* it publishes.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, Error> {
        Self::open_with(dir, DurabilityOptions::default())
    }

    /// [`Database::open`] with explicit durability options.
    pub fn open_with(dir: impl AsRef<Path>, options: DurabilityOptions) -> Result<Self, Error> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| Error::Durability(e.into()))?;
        // debris from a crashed write_atomic: a temp file is meaningless
        // outside the write that created it
        durability::remove_stale_tmp_files(&dir);

        let mut db = Database::new();

        // 1. last checkpoint: page images + the generation they capture
        let catalog = durability::read_catalog(&dir)?;
        let checkpoint_generation = catalog.as_ref().map_or(0, |c| c.generation);
        let mut images: HashMap<u32, String> = HashMap::new();
        if let Some(cat) = &catalog {
            let mut store = db.store.write().unwrap();
            for doc in &cat.docs {
                let bytes = std::fs::read(dir.join(&doc.file)).map_err(|e| {
                    DurabilityError::Corrupt(format!(
                        "checkpoint image `{}` for document `{}` unreadable: {e}",
                        doc.file, doc.name
                    ))
                })?;
                let snap = decode_snapshot(&bytes).map_err(DurabilityError::from)?;
                let frag = store.add_paged(&doc.name, Arc::new(snap));
                if frag != doc.frag {
                    return Err(Error::Durability(DurabilityError::Corrupt(format!(
                        "catalog names fragment {} for `{}` but the store assigned {frag}",
                        doc.frag, doc.name
                    ))));
                }
                images.insert(doc.frag, doc.file.clone());
            }
            store.set_generation(cat.generation);
        }
        // image files the committed catalog does not reference were written
        // by a checkpoint that crashed before its commit point; the WAL
        // replay below re-derives whatever state they captured
        durability::remove_unreferenced_images(&dir, &images);

        // 2. attach the log before replaying it, so replay's publishes mark
        //    the fragments they change dirty exactly as live commits do:
        //    their on-disk images (if any) predate the replayed records.
        //    WalWriter::open truncates any torn/corrupt tail.
        let (wal, mut scan) = WalWriter::open(&dir.join(WAL_FILE), options.sync)
            .map_err(|e| Error::Durability(e.into()))?;
        let durable = Arc::new(Durable::new(dir, options, wal, images));
        db.durable = Some(durable.clone());

        // 3. replay the WAL's complete records past the checkpoint in
        //    generation order — concurrent commits interleave records in
        //    file order, but each record's stamp is its commit ticket, and
        //    per fragment the stamps are monotone (a later commit on the
        //    same document appended under the latch the earlier one had
        //    released), so stamp order is a valid replay order.  Records
        //    at or before the checkpoint generation survive a crash between
        //    catalog commit and log rotation; the images already hold them.
        scan.records.sort_by_key(|r| r.generation);
        let mut replays = 0;
        for record in scan.records {
            if record.generation > checkpoint_generation {
                db.replay(decode_op(&record.payload)?, record.generation)?;
                replays += 1;
            }
        }
        db.counters
            .recovery_replays
            .store(replays, Ordering::Relaxed);
        // commits resume ticketing from the recovered generation
        db.commit.reset(db.generation());

        if let Some(interval) = options.checkpoint_interval {
            let thread = CheckpointThread::spawn(interval, &db, durable);
            db.background = Some(thread.map_err(DurabilityError::Io)?);
        }
        Ok(db)
    }

    /// Apply one recovered WAL operation and land the store on the
    /// generation its record was stamped with: splice → publish for an
    /// update, publish for a load.  Replay never logs.
    fn replay(&self, op: WalOp, generation: u64) -> Result<(), Error> {
        let change = match op {
            WalOp::LoadXml { name, xml } => Change::Load(Box::new(shred_document(&name, &xml)?)),
            WalOp::LoadDoc { doc } => Change::Load(doc),
            WalOp::Update { primitives } => {
                let mut pul = PendingUpdateList::new();
                for prim in primitives {
                    pul.add(prim).map_err(|e| {
                        DurabilityError::Corrupt(format!("recovered update no longer applies: {e}"))
                    })?;
                }
                let snap = self.store.read().unwrap().snapshot();
                let mut pages = Vec::new();
                for frag in pul.fragments() {
                    let latch = self.latches.latch(frag);
                    let mut slot = latch.slot.lock().unwrap();
                    pages.push((frag, splice(&pul, frag, &mut slot, &snap).2));
                }
                Change::Snapshots(pages)
            }
        };
        self.publish(generation, change)
    }

    /// Write a checkpoint: a fresh generation-stamped page image for every
    /// document changed since the last checkpoint (unchanged documents keep
    /// their existing image files — checkpoint I/O is proportional to what
    /// changed, not to the database size), then the catalog (the atomic
    /// commit point, naming the exact image files), then rotate the
    /// write-ahead log and delete superseded images.  After a checkpoint,
    /// recovery starts from the images instead of replaying the whole log.
    /// No-op (returning `Ok`) on an in-memory database.
    ///
    /// Checkpoints never hold a fragment latch: writers keep committing
    /// while the images are written, and records stamped after the snapshot
    /// survive the log rotation.  Concurrent `checkpoint()` calls (including
    /// the background thread's) serialize on an internal lock.
    ///
    /// If a memory budget is configured, clean documents are evicted after
    /// the checkpoint until the resident page bytes fit the budget.
    pub fn checkpoint(&self) -> Result<(), Error> {
        let Some(durable) = &self.durable else {
            return Ok(());
        };
        run_checkpoint(&self.store, &self.latches, durable, &self.counters, false).map(|_| ())
    }
}

/// The checkpoint pipeline shared by [`Database::checkpoint`] and the
/// background thread.  Returns `Ok(true)` when a checkpoint was written,
/// `Ok(false)` when `skip_if_clean` found nothing to do.
///
/// Lock discipline: never holds a fragment latch, and reaches the
/// checkpoint state only through `Durable::with_ckpt`, which takes the
/// store lock as proof that it is held (store → ckpt) — the same order
/// writers use (`mark_dirty` inside the store write critical section of
/// the publish phase), so checkpointing can neither stall commits for
/// long nor deadlock them, and the dirty set always moves atomically with
/// the store generation.
fn run_checkpoint(
    store: &RwLock<DocStore>,
    latches: &LatchTable,
    durable: &Durable,
    counters: &Counters,
    skip_if_clean: bool,
) -> Result<bool, Error> {
    // one checkpoint at a time; writers are NOT excluded
    let _serial = durable.checkpoint_serial.lock().unwrap();

    // capture the dirty set and the snapshot ATOMICALLY with respect to
    // publishes: commits mark their fragments dirty inside the store
    // write-lock critical section, and this capture holds the store read
    // lock across both reads, so every commit is either entirely before it
    // (dirty mark and published container both visible — the images below
    // capture its effect) or entirely after it (its record is stamped past
    // the snapshot generation and survives the log rotation).  Capturing
    // the two under different locks would let a commit fall between them:
    // stale image reused AND record rotated away — an acknowledged, fsynced
    // commit silently lost on the next crash.
    let (dirty_before, images_before, snap) = {
        let store = store.read().unwrap();
        let captured = durable.with_ckpt(&store, |ckpt| {
            // nothing dirty and nothing appended (not even a record whose
            // commit has not published yet) since the last checkpoint
            let idle = skip_if_clean
                && ckpt.dirty.is_empty()
                && durable.wal_counters().0 == ckpt.wal_bytes_at_checkpoint;
            (!idle).then(|| (std::mem::take(&mut ckpt.dirty), ckpt.images.clone()))
        });
        let Some((dirty, images)) = captured else {
            return Ok(false);
        };
        (dirty, images, store.snapshot())
    };
    let generation = snap.generation();

    // 1. page images for every loaded document.  Image files are
    //    immutable: a dirty or never-imaged fragment gets a fresh
    //    generation-stamped file, while a clean fragment's existing image
    //    already is exactly its current state and is referenced as-is (no
    //    write, and for an evicted document no fault-in either).  Nothing
    //    the previous catalog references is touched, so a crash anywhere in
    //    this checkpoint leaves that checkpoint fully intact and consistent
    //    with the surviving WAL.
    let mut docs = Vec::new();
    for frag in snap.fragments() {
        let container = snap.container_owned(frag);
        let reuse = images_before
            .get(&frag)
            .filter(|_| !dirty_before.contains(&frag));
        let file = match reuse {
            Some(file) => file.clone(),
            None => {
                let file = doc_file_name(frag, generation);
                let image = encode_snapshot(container.document());
                mxq_wal::write_atomic(&durable.file(&file), &image)
                    .map_err(|e| Error::Durability(e.into()))?;
                file
            }
        };
        docs.push(CatalogDoc {
            frag,
            name: container.name().to_string(),
            file,
        });
    }

    // 2. the catalog — written atomically, this is the commit point;
    //    it names the exact image files (reused and new) just captured
    let catalog = Catalog { generation, docs };
    mxq_wal::write_atomic(
        &durable.file(CATALOG_FILE),
        &durability::encode_catalog(&catalog),
    )
    .map_err(|e| Error::Durability(e.into()))?;

    // 3. rotate the log: records stamped at or before the snapshot
    //    generation are captured by the images (they were published — and
    //    under group commit a record is only appended durable-then-
    //    published, so nothing the images missed is dropped); records
    //    stamped later belong to commits that raced this checkpoint and
    //    are kept for the next one
    let wal_bytes = durable.rotate_wal(generation)?;

    // 4. bookkeeping: fragments dirtied since the take above were
    //    re-inserted by their commits and stay dirty for the next round
    let images: HashMap<u32, String> = catalog
        .docs
        .iter()
        .map(|d| (d.frag, d.file.clone()))
        .collect();
    durable.with_ckpt(&store.read().unwrap(), |ckpt| {
        ckpt.images = images.clone();
        ckpt.wal_bytes_at_checkpoint = wal_bytes;
    });
    counters.checkpoints.fetch_add(1, Ordering::Relaxed);

    // now that the catalog committed, images it no longer references
    // (superseded by this checkpoint, or debris of an earlier crashed
    // one) are dead: no recovery path can need them
    durability::remove_unreferenced_images(&durable.dir, &images);

    // 5. eviction: now every clean document has a current on-disk image,
    //    so clean ones can be dropped down to the memory budget.  A held
    //    fragment latch means a writer is committing — skip, never wait.
    if let Some(budget) = durable.options.memory_budget {
        // read the dirty set while holding the store write lock (same
        // order as commits): a commit publishing between a free-standing
        // dirty read and the lock acquisition could otherwise be evicted
        // as "clean" onto its stale pre-commit image
        let mut store = store.write().unwrap();
        let dirty_now = durable.with_ckpt(&store, |ckpt| ckpt.dirty.clone());
        for frag in store.fragments() {
            if store.resident_page_bytes() <= budget {
                break;
            }
            if !store.is_resident(frag) || dirty_now.contains(&frag) {
                continue;
            }
            let Some(file) = images.get(&frag) else {
                continue;
            };
            // the master copy pins the image: only evict if the latch is
            // free and its slot can be cleared right now
            if latches.try_clear(frag) {
                let _ = store.evict_paged(frag, durable.file(file));
            }
        }
    }
    Ok(true)
}
