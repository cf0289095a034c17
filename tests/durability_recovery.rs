//! Crash-recovery tests for the durability subsystem.
//!
//! Every test drives a durable [`Database`] in a throwaway directory and
//! cross-checks the recovered state against an **in-memory oracle**: a
//! plain `Database::new()` fed the same statements.  Agreement is asserted
//! the way `update_differential.rs` does it — serialized text, reshred
//! fixpoint, pre|size|level invariants and the incremental column image —
//! so recovery is held to the same bar as the live update path.
//!
//! The kill-point suite simulates a crash at *every byte* of the log tail:
//! it truncates (or corrupts) a copy of the WAL at each offset, reopens,
//! and asserts the store lands exactly on the state of the last complete
//! record before the cut.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use mxq::wal::{read_records, SyncPolicy, RECORD_HEADER_LEN};
use mxq::xmldb::{serialize_document, shred, ShredOptions};
use mxq::xquery::{Database, DurabilityOptions, Error};

// ---------------------------------------------------------------------------
// harness
// ---------------------------------------------------------------------------

/// A self-cleaning scratch directory under the system temp dir.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("mxq-dur-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

const DOC: &str = "<site><people><person id=\"p0\"><name>Ann</name><age>27</age></person>\
                   <person id=\"p1\"><name>Bob</name></person></people>\
                   <items><item id=\"i0\"><price>12</price></item></items></site>";

/// A deterministic mixed update script exercising every primitive family.
fn script() -> Vec<String> {
    vec![
        "insert nodes <person id=\"p2\"><name>Cay</name></person> as last into \
         doc(\"d.xml\")/site/people"
            .into(),
        "insert nodes <item id=\"i1\"><price>3</price></item> as first into \
         doc(\"d.xml\")/site/items"
            .into(),
        "replace value of node doc(\"d.xml\")/site/people/person[1]/age with \"28\"".into(),
        "rename node doc(\"d.xml\")/site/items/item[2] as \"lot\"".into(),
        "replace node doc(\"d.xml\")/site/people/person[2]/name with <name>Robert</name>".into(),
        "delete nodes doc(\"d.xml\")/site/items/lot/price".into(),
        "replace value of node doc(\"d.xml\")/site/people/person[3]/@id with \"p2x\"".into(),
    ]
}

/// Page-image files (`doc-*.mxq`) currently in the directory, sorted.
fn image_files(dir: &Path) -> Vec<String> {
    let mut v: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("doc-") && n.ends_with(".mxq"))
        .collect();
    v.sort();
    v
}

/// Serialize the named document straight from the store.
fn doc_text(db: &Database, name: &str) -> String {
    let store = db.store();
    let frag = store.lookup(name).expect("document is loaded");
    serialize_document(store.container(frag))
}

/// The in-memory oracle: a fresh database fed `DOC` plus the first
/// `applied` statements of the script.
fn oracle(applied: usize) -> Arc<Database> {
    let db = Arc::new(Database::new());
    db.load_document("d.xml", DOC).unwrap();
    let mut s = db.session();
    for stmt in script().iter().take(applied) {
        s.execute_update(stmt).unwrap();
    }
    db
}

/// Assert a recovered database agrees with the oracle the same way the
/// update differential suite checks the live path: identical serialization,
/// reshred fixpoint, structural invariants, identical column image.
fn assert_matches_oracle(recovered: &Database, oracle: &Database) {
    let got = doc_text(recovered, "d.xml");
    let want = doc_text(oracle, "d.xml");
    assert_eq!(got, want, "recovered serialization diverged from oracle");
    assert_eq!(
        recovered.generation(),
        oracle.generation(),
        "recovered generation diverged from oracle"
    );

    let opts = ShredOptions {
        document_node: true,
        ..ShredOptions::default()
    };
    let reshred = shred("check.xml", &got, &opts).unwrap();
    reshred.check_invariants().unwrap();
    assert_eq!(serialize_document(&reshred), got, "reshred fixpoint");
    {
        let store = recovered.store();
        let frag = store.lookup("d.xml").unwrap();
        assert_eq!(store.container(frag).len(), reshred.len(), "node count");
    }
    recovered
        .document_columns("d.xml")
        .unwrap()
        .same_content(reshred.columns())
        .expect("recovered columns diverged from a reshred of the store");
    recovered
        .document_columns("d.xml")
        .unwrap()
        .same_content(&oracle.document_columns("d.xml").unwrap())
        .expect("recovered columns diverged from the oracle's");
}

/// Build a durable database in `dir`, apply the first `applied` script
/// statements, and drop it (no checkpoint unless the caller takes one).
fn build_durable(dir: &Path, options: DurabilityOptions, applied: usize) -> Arc<Database> {
    let db = Arc::new(Database::open_with(dir, options).unwrap());
    db.load_document("d.xml", DOC).unwrap();
    let mut s = db.session();
    for stmt in script().iter().take(applied) {
        s.execute_update(stmt).unwrap();
    }
    db
}

// ---------------------------------------------------------------------------
// plain recovery
// ---------------------------------------------------------------------------

#[test]
fn wal_only_recovery_replays_everything() {
    let dir = TempDir::new("wal-only");
    let n = script().len();
    {
        let db = build_durable(dir.path(), DurabilityOptions::default(), n);
        let stats = db.stats();
        assert!(stats.wal_bytes_written > 0, "updates must hit the log");
        // SyncPolicy::Always: one fsync per logged operation at minimum
        assert!(stats.wal_fsyncs > (n as u64));
        assert_eq!(stats.checkpoints, 0);
    }
    let db = Database::open(dir.path()).unwrap();
    // the load plus every update came back from the log
    assert_eq!(db.stats().recovery_replays, (n as u64) + 1);
    assert_matches_oracle(&db, &oracle(n));
}

#[test]
fn checkpoint_then_wal_tail_recovers() {
    let dir = TempDir::new("ckpt-tail");
    let n = script().len();
    let mid = 3;
    {
        let db = Arc::new(Database::open(dir.path()).unwrap());
        db.load_document("d.xml", DOC).unwrap();
        let mut s = db.session();
        for stmt in script().iter().take(mid) {
            s.execute_update(stmt).unwrap();
        }
        db.checkpoint().unwrap();
        assert_eq!(db.stats().checkpoints, 1);
        for stmt in script().iter().skip(mid) {
            s.execute_update(stmt).unwrap();
        }
    }
    let db = Database::open(dir.path()).unwrap();
    // only the post-checkpoint updates replay
    assert_eq!(db.stats().recovery_replays, (n - mid) as u64);
    assert_matches_oracle(&db, &oracle(n));
}

#[test]
fn checkpoint_at_head_recovers_without_replay() {
    let dir = TempDir::new("ckpt-clean");
    {
        let db = build_durable(dir.path(), DurabilityOptions::default(), script().len());
        db.checkpoint().unwrap();
    }
    let db = Database::open(dir.path()).unwrap();
    assert_eq!(db.stats().recovery_replays, 0, "checkpoint covered the log");
    assert_matches_oracle(&db, &oracle(script().len()));
}

#[test]
fn double_reopen_is_stable() {
    let dir = TempDir::new("double");
    drop(build_durable(dir.path(), DurabilityOptions::default(), 4));
    let first = {
        let db = Database::open(dir.path()).unwrap();
        db.checkpoint().unwrap();
        doc_text(&db, "d.xml")
    };
    let db = Database::open(dir.path()).unwrap();
    assert_eq!(doc_text(&db, "d.xml"), first);
    assert_matches_oracle(&db, &oracle(4));
}

#[test]
fn recovered_database_accepts_further_updates() {
    let dir = TempDir::new("continue");
    drop(build_durable(dir.path(), DurabilityOptions::default(), 2));
    {
        let db = Arc::new(Database::open(dir.path()).unwrap());
        let mut s = db.session();
        for stmt in script().iter().skip(2) {
            s.execute_update(stmt).unwrap();
        }
    }
    let db = Database::open(dir.path()).unwrap();
    assert_matches_oracle(&db, &oracle(script().len()));
}

// ---------------------------------------------------------------------------
// kill points: crash at every byte of the log tail
// ---------------------------------------------------------------------------

/// Record boundaries (cumulative end offsets) of a WAL file.
fn record_ends(wal: &[u8]) -> Vec<u64> {
    let mut ends = Vec::new();
    let mut pos = 0u64;
    while (pos as usize) + (RECORD_HEADER_LEN as usize) <= wal.len() {
        let len = u32::from_le_bytes(wal[pos as usize..pos as usize + 4].try_into().unwrap());
        pos += RECORD_HEADER_LEN + len as u64;
        assert!(pos as usize <= wal.len(), "log built by the test is whole");
        ends.push(pos);
    }
    ends
}

#[test]
fn kill_points_land_on_last_complete_generation() {
    let outer = TempDir::new("killpoints-src");
    // keep the log small: the load plus three updates, so the byte loop
    // stays in the thousands
    drop(build_durable(outer.path(), DurabilityOptions::default(), 3));
    let wal = fs::read(outer.path().join("wal.log")).unwrap();
    let ends = record_ends(&wal);
    assert_eq!(ends.len(), 4, "load + three updates");
    assert_eq!(*ends.last().unwrap() as usize, wal.len());

    // oracles[k] = expected state with k script statements applied; a cut
    // before the end of the load record leaves an empty store (None)
    let oracles: Vec<Arc<Database>> = (0..=3).map(oracle).collect();

    let scratch = TempDir::new("killpoints-run");
    for cut in 0..=wal.len() {
        let _ = fs::remove_dir_all(scratch.path());
        fs::create_dir_all(scratch.path()).unwrap();
        fs::write(scratch.path().join("wal.log"), &wal[..cut]).unwrap();

        let complete = ends.iter().filter(|&&e| e as usize <= cut).count();
        let db = Database::open(scratch.path())
            .unwrap_or_else(|e| panic!("cut at byte {cut} must recover, got {e}"));
        if complete == 0 {
            assert!(
                db.store().lookup("d.xml").is_none(),
                "cut at byte {cut}: load record incomplete, store must be empty"
            );
        } else {
            assert_matches_oracle(&db, &oracles[complete - 1]);
        }
        assert_eq!(db.stats().recovery_replays, complete as u64);

        // the torn tail was truncated away on open: a second open replays
        // the same prefix (idempotent recovery)
        drop(db);
        let again = Database::open(scratch.path()).unwrap();
        assert_eq!(again.stats().recovery_replays, complete as u64);
    }
}

#[test]
fn corrupt_byte_discards_record_and_tail() {
    let outer = TempDir::new("corrupt-src");
    drop(build_durable(outer.path(), DurabilityOptions::default(), 2));
    let wal = fs::read(outer.path().join("wal.log")).unwrap();
    let ends = record_ends(&wal);
    let oracles: Vec<Arc<Database>> = (0..=2).map(oracle).collect();

    let scratch = TempDir::new("corrupt-run");
    // flip one byte inside each record in turn (stride keeps it fast);
    // recovery must stop right before the damaged record
    for (idx, &end) in ends.iter().enumerate() {
        let start = if idx == 0 { 0 } else { ends[idx - 1] };
        for off in (start..end).step_by(7) {
            let mut bad = wal.clone();
            bad[off as usize] ^= 0x40;
            let _ = fs::remove_dir_all(scratch.path());
            fs::create_dir_all(scratch.path()).unwrap();
            fs::write(scratch.path().join("wal.log"), &bad).unwrap();

            let db = Database::open(scratch.path())
                .unwrap_or_else(|e| panic!("corrupt byte {off} must not fail open: {e}"));
            // a flipped length prefix can make the scan see a *longer*
            // (torn) record and stop earlier — never later than idx
            let replays = db.stats().recovery_replays as usize;
            assert!(
                replays <= idx,
                "corrupt byte {off} in record {idx}: replayed {replays}"
            );
            if replays > 0 {
                assert_matches_oracle(&db, &oracles[replays - 1]);
            } else {
                assert!(db.store().lookup("d.xml").is_none());
            }
        }
    }
}

#[test]
fn scan_reports_the_discarded_tail() {
    let dir = TempDir::new("scan");
    drop(build_durable(dir.path(), DurabilityOptions::default(), 1));
    let wal_path = dir.path().join("wal.log");
    let wal = fs::read(&wal_path).unwrap();
    fs::write(&wal_path, &wal[..wal.len() - 3]).unwrap();
    let scan = read_records(&wal_path).unwrap();
    assert!(scan.tail_discarded);
    assert_eq!(scan.records.len(), 1);
}

// ---------------------------------------------------------------------------
// damaged checkpoints are structured errors
// ---------------------------------------------------------------------------

#[test]
fn corrupt_checkpoint_artifacts_fail_open_cleanly() {
    let dir = TempDir::new("badckpt");
    {
        let db = build_durable(dir.path(), DurabilityOptions::default(), 3);
        db.checkpoint().unwrap();
    }

    // corrupt the page image → structured durability error, no panic
    let images = image_files(dir.path());
    let image = dir.path().join(
        images
            .iter()
            .find(|n| n.starts_with("doc-1-"))
            .expect("the checkpoint imaged fragment 1"),
    );
    let good = fs::read(&image).unwrap();
    let mut bad = good.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 1;
    fs::write(&image, &bad).unwrap();
    assert!(matches!(
        Database::open(dir.path()),
        Err(Error::Durability(_))
    ));

    // missing image → structured error
    fs::remove_file(&image).unwrap();
    assert!(matches!(
        Database::open(dir.path()),
        Err(Error::Durability(_))
    ));
    fs::write(&image, &good).unwrap();

    // corrupt the catalog → structured error
    let catalog = dir.path().join("catalog.mxq");
    let cat = fs::read(&catalog).unwrap();
    let mut badcat = cat.clone();
    badcat[6] ^= 1;
    fs::write(&catalog, &badcat).unwrap();
    assert!(matches!(
        Database::open(dir.path()),
        Err(Error::Durability(_))
    ));

    // restored artifacts recover again
    fs::write(&catalog, &cat).unwrap();
    let db = Database::open(dir.path()).unwrap();
    assert_matches_oracle(&db, &oracle(3));
}

// ---------------------------------------------------------------------------
// checkpoint atomicity: immutable images, incremental I/O, debris sweeping
// ---------------------------------------------------------------------------

#[test]
fn crashed_checkpoint_cannot_corrupt_the_previous_one() {
    // The double-apply scenario: a checkpoint commits at generation G, more
    // updates are logged in (G, G'], then a second checkpoint crashes after
    // writing its page images but before committing its catalog.  The
    // surviving catalog must still point at the untouched gen-G images, so
    // replaying the WAL tail lands exactly on the oracle — the newer images
    // are orphans and must be ignored (and swept) by recovery.
    let dir = TempDir::new("crashed-ckpt");
    let n = script().len();
    let mid = 3;
    {
        let db = Arc::new(Database::open(dir.path()).unwrap());
        db.load_document("d.xml", DOC).unwrap();
        let mut s = db.session();
        for stmt in script().iter().take(mid) {
            s.execute_update(stmt).unwrap();
        }
        db.checkpoint().unwrap();
        for stmt in script().iter().skip(mid) {
            s.execute_update(stmt).unwrap();
        }
    }
    let committed = image_files(dir.path());

    // simulate the crashed second checkpoint: run it to completion in a
    // copy of the directory, then graft only its image files — not its
    // catalog, not its truncated WAL — back into the original
    let copy = TempDir::new("crashed-ckpt-copy");
    for f in fs::read_dir(dir.path()).unwrap() {
        let f = f.unwrap();
        fs::copy(f.path(), copy.path().join(f.file_name())).unwrap();
    }
    {
        let db = Database::open(copy.path()).unwrap();
        db.checkpoint().unwrap();
    }
    let mut grafted = 0;
    for name in image_files(copy.path()) {
        if !committed.contains(&name) {
            fs::copy(copy.path().join(&name), dir.path().join(&name)).unwrap();
            grafted += 1;
        }
    }
    assert!(grafted > 0, "the second checkpoint wrote fresh image files");

    let db = Database::open(dir.path()).unwrap();
    assert_eq!(
        db.stats().recovery_replays,
        (n - mid) as u64,
        "the WAL tail replays once, against the gen-G images"
    );
    assert_matches_oracle(&db, &oracle(n));
    assert_eq!(
        image_files(dir.path()),
        committed,
        "orphan images from the crashed checkpoint are swept on open"
    );
}

#[test]
fn checkpoint_rewrites_only_changed_documents() {
    const LOG: &str = "<log><entry n=\"1\"/></log>";
    let dir = TempDir::new("incremental-ckpt");
    let db = Arc::new(Database::open(dir.path()).unwrap());
    db.load_document("d.xml", DOC).unwrap();
    db.load_document("e.xml", LOG).unwrap();
    db.checkpoint().unwrap();
    let first = image_files(dir.path());
    assert_eq!(first.len(), 2);

    // update only d.xml: the next checkpoint must image it afresh while
    // referencing e.xml's existing file unchanged
    db.session().execute_update(&script()[0]).unwrap();
    db.checkpoint().unwrap();
    let second = image_files(dir.path());
    assert_eq!(second.len(), 2);
    let e_image = first.iter().find(|n| n.starts_with("doc-2-")).unwrap();
    assert!(second.contains(e_image), "clean e.xml keeps its image file");
    let d_first = first.iter().find(|n| n.starts_with("doc-1-")).unwrap();
    let d_second = second.iter().find(|n| n.starts_with("doc-1-")).unwrap();
    assert_ne!(d_first, d_second, "dirty d.xml gets a fresh image file");
    assert!(
        !dir.path().join(d_first).exists(),
        "the superseded image is deleted after the catalog commit"
    );

    // a checkpoint with nothing dirty rewrites no image at all (same
    // files, same inodes — write_atomic would have produced fresh inodes)
    #[cfg(unix)]
    {
        use std::os::unix::fs::MetadataExt;
        let inos = |names: &[String]| -> Vec<u64> {
            names
                .iter()
                .map(|n| fs::metadata(dir.path().join(n)).unwrap().ino())
                .collect()
        };
        let before = inos(&second);
        db.checkpoint().unwrap();
        assert_eq!(image_files(dir.path()), second);
        assert_eq!(before, inos(&second), "clean images are not rewritten");
    }

    // recovery from the mixed-generation image set agrees with the oracle
    drop(db);
    let db = Database::open(dir.path()).unwrap();
    assert_eq!(db.stats().recovery_replays, 0);
    let twin = Arc::new(Database::new());
    twin.load_document("d.xml", DOC).unwrap();
    twin.load_document("e.xml", LOG).unwrap();
    twin.session().execute_update(&script()[0]).unwrap();
    assert_matches_oracle(&db, &twin);
}

#[test]
fn stale_tmp_files_are_removed_on_open() {
    let dir = TempDir::new("stale-tmp");
    {
        let db = build_durable(dir.path(), DurabilityOptions::default(), 2);
        db.checkpoint().unwrap();
    }
    // a crash inside write_atomic leaves its temp file behind
    fs::write(dir.path().join("catalog.mxq.tmp"), b"half-written").unwrap();
    fs::write(dir.path().join("doc-1-99.mxq.tmp"), b"half-written").unwrap();
    let db = Database::open(dir.path()).unwrap();
    assert_matches_oracle(&db, &oracle(2));
    let leftovers: Vec<String> = fs::read_dir(dir.path())
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".tmp"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "stale temp files swept on open: {leftovers:?}"
    );
}

// ---------------------------------------------------------------------------
// sync policies
// ---------------------------------------------------------------------------

#[test]
fn relaxed_sync_policies_recover_after_clean_drop() {
    for (tag, sync) in [
        ("every", SyncPolicy::EveryN(4)),
        ("never", SyncPolicy::Never),
    ] {
        let dir = TempDir::new(&format!("sync-{tag}"));
        let options = DurabilityOptions {
            sync,
            ..DurabilityOptions::default()
        };
        {
            let db = build_durable(dir.path(), options, script().len());
            if matches!(sync, SyncPolicy::Never) {
                assert_eq!(db.stats().wal_fsyncs, 0, "Never must not fsync appends");
            }
        }
        // a clean drop leaves the appended bytes in the file (they were
        // written, just not necessarily synced) — recovery sees them all
        let db = Database::open(dir.path()).unwrap();
        assert_matches_oracle(&db, &oracle(script().len()));
    }
}

// ---------------------------------------------------------------------------
// failed statements must not log
// ---------------------------------------------------------------------------

#[test]
fn rejected_statements_leave_no_log_records() {
    let dir = TempDir::new("rejected");
    {
        let db = Arc::new(Database::open(dir.path()).unwrap());
        db.load_document("d.xml", DOC).unwrap();
        let mut s = db.session();
        // invalid XML load: rejected before logging
        assert!(db.load_document("bad.xml", "<unclosed>").is_err());
        // update whose target selects nothing valid: collection fails
        assert!(s
            .execute_update("replace node doc(\"d.xml\")/site/nope with <x/>")
            .is_err());
        s.execute_update(&script()[0]).unwrap();
    }
    let db = Database::open(dir.path()).unwrap();
    // exactly two records made it to the log: the good load + one update
    assert_eq!(db.stats().recovery_replays, 2);
    assert_matches_oracle(&db, &oracle(1));
}

// ---------------------------------------------------------------------------
// eviction + fault-in
// ---------------------------------------------------------------------------

#[test]
fn eviction_faults_documents_back_from_disk() {
    let dir = TempDir::new("evict");
    let options = DurabilityOptions {
        memory_budget: Some(1), // evict everything evictable
        ..DurabilityOptions::default()
    };
    let db = Arc::new(Database::open_with(dir.path(), options).unwrap());
    db.load_document("d.xml", DOC).unwrap();
    db.load_document("e.xml", "<log><entry n=\"1\"/><entry n=\"2\"/></log>")
        .unwrap();
    let before = doc_text(&db, "d.xml");
    db.checkpoint().unwrap();
    {
        let store = db.store();
        let d = store.lookup("d.xml").unwrap();
        let e = store.lookup("e.xml").unwrap();
        assert!(!store.is_resident(d), "budget of 1 byte evicts d.xml");
        assert!(!store.is_resident(e), "budget of 1 byte evicts e.xml");
    }
    // queries fault the pages back in transparently
    let mut s = db.session();
    assert_eq!(
        s.query("count(doc(\"e.xml\")/log/entry)")
            .unwrap()
            .serialize(),
        "2"
    );
    assert_eq!(doc_text(&db, "d.xml"), before);
    assert!(db.store().is_resident(db.store().lookup("e.xml").unwrap()));

    // updates work against a faulted-in document and stay durable
    s.execute_update(&script()[0]).unwrap();
    drop(s);
    drop(db);
    let db = Database::open(dir.path()).unwrap();
    // the oracle must mirror the full session, second document included
    let twin = Arc::new(Database::new());
    twin.load_document("d.xml", DOC).unwrap();
    twin.load_document("e.xml", "<log><entry n=\"1\"/><entry n=\"2\"/></log>")
        .unwrap();
    twin.session().execute_update(&script()[0]).unwrap();
    assert_matches_oracle(&db, &twin);
}

#[test]
fn faulted_in_documents_can_be_evicted_again() {
    let dir = TempDir::new("re-evict");
    let options = DurabilityOptions {
        memory_budget: Some(1),
        ..DurabilityOptions::default()
    };
    let db = Arc::new(Database::open_with(dir.path(), options).unwrap());
    db.load_document("d.xml", DOC).unwrap();
    db.checkpoint().unwrap();
    assert!(!db.store().is_resident(1));
    // a read faults the pages back in without dirtying the document…
    let mut s = db.session();
    assert_eq!(
        s.query("count(doc(\"d.xml\")/site/people/person)")
            .unwrap()
            .serialize(),
        "2"
    );
    assert!(db.store().is_resident(1));
    // …so the next checkpoint must be able to drop it again, or the memory
    // budget would stay unenforced forever after one read
    db.checkpoint().unwrap();
    assert!(
        !db.store().is_resident(1),
        "a faulted-in clean document is evicted again"
    );
    // and it still reads correctly after the re-eviction
    assert_eq!(doc_text(&db, "d.xml"), doc_text(&oracle(0), "d.xml"));
}

#[test]
fn eviction_skips_dirty_documents() {
    let dir = TempDir::new("evict-dirty");
    let options = DurabilityOptions {
        memory_budget: Some(1),
        ..DurabilityOptions::default()
    };
    let db = Arc::new(Database::open_with(dir.path(), options).unwrap());
    db.load_document("d.xml", DOC).unwrap();
    db.checkpoint().unwrap();
    assert!(!db.store().is_resident(1));
    // fault back in via an update: the doc is now dirty again…
    let mut s = db.session();
    s.execute_update(&script()[0]).unwrap();
    assert!(db.store().is_resident(1));
    // …and the next checkpoint re-images and re-evicts it
    db.checkpoint().unwrap();
    assert!(!db.store().is_resident(1));
    assert_eq!(doc_text(&db, "d.xml"), doc_text(&oracle(1), "d.xml"));
}

// ---------------------------------------------------------------------------
// stats surface
// ---------------------------------------------------------------------------

#[test]
fn stats_track_durability_work() {
    let dir = TempDir::new("stats");
    let db = build_durable(dir.path(), DurabilityOptions::default(), 2);
    let s1 = db.stats();
    assert!(s1.wal_bytes_written > 0);
    assert!(s1.wal_fsyncs >= 3); // load + 2 updates under Always
    assert_eq!(s1.checkpoints, 0);
    assert_eq!(s1.recovery_replays, 0);
    db.checkpoint().unwrap();
    assert_eq!(db.stats().checkpoints, 1);

    // an in-memory database reports durability zeros
    let mem = Database::new();
    let s2 = mem.stats();
    assert_eq!(s2.wal_bytes_written, 0);
    assert_eq!(s2.wal_fsyncs, 0);
    assert_eq!(s2.checkpoints, 0);
}

// ---------------------------------------------------------------------------
// checkpoints racing live commits
// ---------------------------------------------------------------------------

/// Checkpoints spin concurrently with committing writers, then the
/// database is dropped and reopened.  Every acknowledged commit must
/// survive: a checkpoint captures its dirty set and store snapshot
/// atomically, so a commit publishing around a capture is either in the
/// checkpoint image or keeps its WAL record through rotation — never
/// neither (the lost-commit race this guards against reused a stale
/// pre-commit image while rotation dropped the commit's record).
#[test]
fn checkpoints_racing_commits_lose_nothing_across_recovery() {
    use std::sync::atomic::{AtomicBool, Ordering};

    const WRITERS: usize = 4;
    const COMMITS: usize = 40;

    let tmp = TempDir::new("ckpt-race");
    let opts = DurabilityOptions {
        sync: SyncPolicy::Never, // drop+reopen is the "crash"; skip fsyncs
        memory_budget: None,
        checkpoint_interval: None,
    };
    let db = Arc::new(Database::open_with(tmp.path(), opts).unwrap());
    for w in 0..WRITERS {
        db.load_document(&format!("w{w}.xml"), "<list/>").unwrap();
    }

    let done = Arc::new(AtomicBool::new(false));
    let ckpt = {
        let db = Arc::clone(&db);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut n = 0u32;
            while !done.load(Ordering::Relaxed) {
                db.checkpoint().unwrap();
                n += 1;
            }
            n
        })
    };
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let mut s = db.session();
                for i in 0..COMMITS {
                    s.execute(&format!(
                        "insert nodes <e n=\"{i}\"/> as last into doc(\"w{w}.xml\")/list"
                    ))
                    .unwrap();
                }
            })
        })
        .collect();
    for t in writers {
        t.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    assert!(ckpt.join().unwrap() > 0, "checkpointer never ran");
    drop(db);

    let db = Arc::new(Database::open_with(tmp.path(), opts).unwrap());
    // the disjoint-document writers serialize per document, so each
    // recovered document must equal a serial replay of its writer's script
    let serial = Arc::new(Database::new());
    {
        let mut s = serial.session();
        for w in 0..WRITERS {
            serial
                .load_document(&format!("w{w}.xml"), "<list/>")
                .unwrap();
            for i in 0..COMMITS {
                s.execute(&format!(
                    "insert nodes <e n=\"{i}\"/> as last into doc(\"w{w}.xml\")/list"
                ))
                .unwrap();
            }
        }
    }
    let mut s = db.session();
    for w in 0..WRITERS {
        let r = s
            .execute(&format!("count(doc(\"w{w}.xml\")/list/e)"))
            .unwrap();
        assert_eq!(
            r.as_query().unwrap().serialize(),
            COMMITS.to_string(),
            "writer {w} lost acknowledged commits"
        );
        assert_eq!(
            doc_text(&db, &format!("w{w}.xml")),
            doc_text(&serial, &format!("w{w}.xml")),
            "writer {w} diverged from serial replay"
        );
    }
}

/// Recovery replays commits into documents whose checkpoint images predate
/// them, so the replayed fragments must be dirty: the first checkpoint
/// after recovery images them afresh, while untouched documents keep their
/// image files.
#[test]
fn replayed_fragments_are_dirty_after_recovery() {
    const LOG: &str = "<log><entry n=\"1\"/></log>";
    let dir = TempDir::new("replay-dirty");
    {
        let db = Arc::new(Database::open(dir.path()).unwrap());
        db.load_document("d.xml", DOC).unwrap();
        db.load_document("e.xml", LOG).unwrap();
        db.checkpoint().unwrap();
        db.session().execute_update(&script()[0]).unwrap();
        // dropped without a checkpoint: the update lives only in the WAL
    }
    let first = image_files(dir.path());
    let d_first = first.iter().find(|n| n.starts_with("doc-1-")).unwrap();
    let e_image = first.iter().find(|n| n.starts_with("doc-2-")).unwrap();
    #[cfg(unix)]
    let e_ino = {
        use std::os::unix::fs::MetadataExt;
        fs::metadata(dir.path().join(e_image)).unwrap().ino()
    };

    {
        let db = Database::open(dir.path()).unwrap();
        assert_eq!(db.stats().recovery_replays, 1);
        db.checkpoint().unwrap();
    }
    let second = image_files(dir.path());
    assert_eq!(second.len(), 2);
    let d_second = second.iter().find(|n| n.starts_with("doc-1-")).unwrap();
    assert_ne!(d_first, d_second, "replayed d.xml gets a fresh image file");
    assert!(second.contains(e_image), "clean e.xml keeps its image file");
    #[cfg(unix)]
    {
        use std::os::unix::fs::MetadataExt;
        let ino = fs::metadata(dir.path().join(e_image)).unwrap().ino();
        assert_eq!(ino, e_ino, "clean e.xml's image is not rewritten");
    }

    let db = Database::open(dir.path()).unwrap();
    assert_eq!(
        db.stats().recovery_replays,
        0,
        "the checkpoint covered the log"
    );
    let twin = Arc::new(Database::new());
    twin.load_document("d.xml", DOC).unwrap();
    twin.load_document("e.xml", LOG).unwrap();
    twin.session().execute_update(&script()[0]).unwrap();
    assert_matches_oracle(&db, &twin);
}
