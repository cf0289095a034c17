//! Concurrency tests for the per-document write-latch path.
//!
//! * A property suite runs random update scripts from 2/4/8 concurrent
//!   writer sessions on *disjoint* documents and cross-checks against a
//!   serial oracle: because the documents are disjoint, every interleaving
//!   must serialize to exactly the oracle — identical document text,
//!   identical column images, identical store generation, and **zero**
//!   latch waits (disjoint writers must never touch each other's latches).
//! * A conflicting-writers test proves queue-on-latch semantics: writers
//!   hammering one shared document commit atomically, publish in ticket
//!   order (dense generations), and preserve each writer's program order.
//! * Durable rounds check that group-committed, interleaved multi-writer
//!   WAL records replay correctly, including from every record-boundary
//!   prefix of the log (a crash can cut the file anywhere; stamps — not
//!   file order — drive replay).

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use mxq::wal::{read_records, SyncPolicy};
use mxq::xmldb::{serialize_document, shred, ShredOptions};
use mxq::xquery::{Database, DurabilityOptions};

// ---------------------------------------------------------------------------
// harness
// ---------------------------------------------------------------------------

/// A self-cleaning scratch directory under the system temp dir.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("mxq-cw-{}-{tag}", std::process::id()));
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

const INIT: &str = "<list><anchor>0</anchor></list>";

fn writer_doc(w: usize) -> String {
    format!("w{w}.xml")
}

/// Serialize the named document straight from the store.
fn doc_text(db: &Database, name: &str) -> String {
    let store = db.store();
    let frag = store.lookup(name).expect("document is loaded");
    serialize_document(store.container(frag))
}

/// The update-differential bar applied to one document: reshred fixpoint,
/// structural invariants, and agreement of the live column image with a
/// from-scratch shred of the serialized text.
fn assert_doc_integrity(db: &Database, name: &str) {
    let text = doc_text(db, name);
    let opts = ShredOptions {
        document_node: true,
        ..ShredOptions::default()
    };
    let reshred = shred("check.xml", &text, &opts).unwrap();
    reshred.check_invariants().unwrap();
    assert_eq!(serialize_document(&reshred), text, "reshred fixpoint");
    db.document_columns(name)
        .unwrap()
        .same_content(reshred.columns())
        .expect("live columns diverged from a reshred of the store");
}

// ---------------------------------------------------------------------------
// random disjoint-document scripts vs the serial oracle
// ---------------------------------------------------------------------------

/// One always-valid update op against a writer's private document.  Every
/// op is total: `DeleteKey` accepts zero targets, `anchor` always exists
/// and is unique, so any op sequence executes without errors regardless of
/// what ran before it.
#[derive(Debug, Clone)]
enum Op {
    InsertLast(u8, u8),
    InsertFirst(u8, u8),
    DeleteKey(u8),
    ReplaceAnchor(u8),
    InsertIntoAnchor(u8),
}

fn op_statement(doc: &str, op: &Op) -> String {
    match op {
        Op::InsertLast(k, v) => {
            format!("insert nodes <e k=\"{k}\">{v}</e> as last into doc(\"{doc}\")/list")
        }
        Op::InsertFirst(k, v) => {
            format!("insert nodes <e k=\"{k}\">{v}</e> as first into doc(\"{doc}\")/list")
        }
        Op::DeleteKey(k) => format!("delete nodes doc(\"{doc}\")/list/e[@k = \"{k}\"]"),
        Op::ReplaceAnchor(v) => {
            format!("replace value of node doc(\"{doc}\")/list/anchor with \"{v}\"")
        }
        Op::InsertIntoAnchor(v) => {
            format!("insert nodes <m>{v}</m> as last into doc(\"{doc}\")/list/anchor")
        }
    }
}

fn arb_script() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        (0u8..6, 0u8..100).prop_map(|(k, v)| Op::InsertLast(k, v)),
        (0u8..6, 0u8..100).prop_map(|(k, v)| Op::InsertFirst(k, v)),
        (0u8..6).prop_map(Op::DeleteKey),
        (0u8..100).prop_map(Op::ReplaceAnchor),
        (0u8..100).prop_map(Op::InsertIntoAnchor),
    ];
    prop::collection::vec(op, 1..10)
}

/// Run `writers` concurrent sessions, writer `w` applying `scripts[w]` to
/// its private document, then compare every document, the column images and
/// the store generation against a serial oracle — and assert the writers
/// never waited on each other's latches.
fn run_disjoint_round(writers: usize, scripts: &[Vec<Op>]) {
    let db = Arc::new(Database::new());
    for w in 0..writers {
        db.load_document(&writer_doc(w), INIT).unwrap();
    }
    std::thread::scope(|scope| {
        for (w, script) in scripts.iter().take(writers).enumerate() {
            let db = db.clone();
            scope.spawn(move || {
                let mut s = db.session();
                let doc = writer_doc(w);
                for op in script {
                    s.execute_update(&op_statement(&doc, op)).unwrap();
                }
            });
        }
    });

    // the serial oracle: same documents, same scripts, one session
    let oracle = Arc::new(Database::new());
    for w in 0..writers {
        oracle.load_document(&writer_doc(w), INIT).unwrap();
    }
    let mut s = oracle.session();
    for (w, script) in scripts.iter().take(writers).enumerate() {
        let doc = writer_doc(w);
        for op in script {
            s.execute_update(&op_statement(&doc, op)).unwrap();
        }
    }

    for w in 0..writers {
        let name = writer_doc(w);
        assert_eq!(
            doc_text(&db, &name),
            doc_text(&oracle, &name),
            "writer {w}'s document diverged from the serial oracle"
        );
        db.document_columns(&name)
            .unwrap()
            .same_content(&oracle.document_columns(&name).unwrap())
            .expect("concurrent column image diverged from the oracle's");
        assert_doc_integrity(&db, &name);
    }
    // one generation per commit on both sides, and an empty-target delete
    // commits nothing on either side, so the counters must agree exactly
    assert_eq!(db.generation(), oracle.generation(), "generation drift");
    let stats = db.stats();
    assert_eq!(
        stats.latch_waits, 0,
        "disjoint-document writers must never wait on a fragment latch"
    );
    assert_eq!(stats.latch_conflicts, 0, "no snapshot conflicts either");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn disjoint_writers_serialize_to_the_oracle(
        scripts in prop::collection::vec(arb_script(), 8..9),
    ) {
        for writers in [2usize, 4, 8] {
            run_disjoint_round(writers, &scripts);
        }
    }
}

// ---------------------------------------------------------------------------
// conflicting writers on one shared document
// ---------------------------------------------------------------------------

#[test]
fn conflicting_writers_queue_on_the_latch_and_publish_in_ticket_order() {
    const WRITERS: usize = 4;
    const INSERTS: u64 = 25;

    let db = Arc::new(Database::new());
    db.load_document("shared.xml", "<list/>").unwrap();
    let base = db.generation();

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let db = db.clone();
            scope.spawn(move || {
                let mut s = db.session();
                for i in 0..INSERTS {
                    s.execute_update(&format!(
                        "insert nodes <e w=\"{w}\" i=\"{i}\"/> as last into \
                         doc(\"shared.xml\")/list"
                    ))
                    .unwrap();
                }
            });
        }
    });

    // publishes happened in ticket order and every commit took exactly one
    // generation: dense, no gaps, no lost updates
    assert_eq!(
        db.generation(),
        base + WRITERS as u64 * INSERTS,
        "every commit must advance the generation exactly once"
    );
    let count: u64 = db
        .execute("count(doc(\"shared.xml\")/list/e)")
        .unwrap()
        .into_query()
        .unwrap()
        .serialize()
        .parse()
        .unwrap();
    assert_eq!(count, WRITERS as u64 * INSERTS, "no insert was lost");

    // queue-on-latch semantics: each writer's inserts appear in its own
    // program order (a later insert of writer w can only have committed
    // after its earlier one released the latch)
    let text = doc_text(&db, "shared.xml");
    let mut per_writer: Vec<Vec<u64>> = vec![Vec::new(); WRITERS];
    for piece in text.split("<e ").skip(1) {
        let attrs = piece.split("/>").next().unwrap();
        let w: usize = attrs
            .split("w=\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
            .unwrap()
            .parse()
            .unwrap();
        let i: u64 = attrs
            .split("i=\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
            .unwrap()
            .parse()
            .unwrap();
        per_writer[w].push(i);
    }
    for (w, order) in per_writer.iter().enumerate() {
        let expect: Vec<u64> = (0..INSERTS).collect();
        assert_eq!(
            order, &expect,
            "writer {w}'s inserts must appear in program order"
        );
    }
    assert_doc_integrity(&db, "shared.xml");
}

// ---------------------------------------------------------------------------
// durable rounds: interleaved multi-writer WAL records
// ---------------------------------------------------------------------------

#[test]
fn group_committed_multi_writer_log_recovers_exactly() {
    const WRITERS: usize = 4;
    const INSERTS: usize = 8;

    let dir = TempDir::new("group-commit");
    let options = DurabilityOptions {
        sync: SyncPolicy::GroupCommit(Duration::from_micros(500)),
        ..DurabilityOptions::default()
    };
    let mut before = Vec::new();
    {
        let db = Arc::new(Database::open_with(dir.path(), options).unwrap());
        for w in 0..WRITERS {
            db.load_document(&writer_doc(w), INIT).unwrap();
        }
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let db = db.clone();
                scope.spawn(move || {
                    let mut s = db.session();
                    let doc = writer_doc(w);
                    for i in 0..INSERTS {
                        s.execute_update(&format!(
                            "insert nodes <e i=\"{i}\"/> as last into doc(\"{doc}\")/list"
                        ))
                        .unwrap();
                    }
                });
            }
        });
        let stats = db.stats();
        let commits = (WRITERS + WRITERS * INSERTS) as u64;
        assert_eq!(
            stats.group_commit_records, commits,
            "every commit went through the group-commit coordinator"
        );
        assert!(stats.group_commit_batches >= 1);
        assert!(stats.group_commit_batches <= commits);
        assert_eq!(
            stats.wal_fsyncs, stats.group_commit_batches,
            "exactly one fsync per group-commit batch"
        );
        assert!(stats.group_commit_batch_min >= 1);
        assert!(stats.group_commit_batch_max <= commits);
        for w in 0..WRITERS {
            before.push(doc_text(&db, &writer_doc(w)));
        }
    }

    // reopen: the interleaved records replay in stamp order and land every
    // document exactly where the writers left it
    let db = Database::open_with(dir.path(), options).unwrap();
    assert_eq!(
        db.stats().recovery_replays,
        (WRITERS + WRITERS * INSERTS) as u64
    );
    for (w, want) in before.iter().enumerate() {
        let name = writer_doc(w);
        assert_eq!(&doc_text(&db, &name), want, "writer {w}'s document");
        assert_doc_integrity(&db, &name);
    }
}

#[test]
fn every_record_boundary_prefix_of_a_multi_writer_log_recovers() {
    const WRITERS: usize = 4;
    const INSERTS: usize = 6;

    // write an interleaved multi-writer log (no fsync needed — we only
    // crash-cut the file after a clean close)
    let dir = TempDir::new("tail-cut");
    let options = DurabilityOptions {
        sync: SyncPolicy::Never,
        ..DurabilityOptions::default()
    };
    {
        let db = Arc::new(Database::open_with(dir.path(), options).unwrap());
        for w in 0..WRITERS {
            db.load_document(&writer_doc(w), INIT).unwrap();
        }
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let db = db.clone();
                scope.spawn(move || {
                    let mut s = db.session();
                    let doc = writer_doc(w);
                    for i in 0..INSERTS {
                        s.execute_update(&format!(
                            "insert nodes <e i=\"{i}\"/> as last into doc(\"{doc}\")/list"
                        ))
                        .unwrap();
                    }
                });
            }
        });
    }

    let wal = dir.path().join("wal.log");
    let scan = read_records(&wal).unwrap();
    assert_eq!(scan.records.len(), WRITERS + WRITERS * INSERTS);
    let bytes = fs::read(&wal).unwrap();
    assert_eq!(bytes.len() as u64, scan.valid_len);

    // a crash preserves an arbitrary file prefix; at record granularity
    // that is any count of leading records (file order, NOT stamp order).
    // Every such prefix must recover: per document the surviving records
    // are a ticket-order prefix of that document's commits.
    let mut offset = 0u64;
    for keep in 0..=scan.records.len() {
        let surviving = &scan.records[..keep];
        let cut = TempDir::new(&format!("tail-cut-{keep}"));
        fs::write(cut.path().join("wal.log"), &bytes[..offset as usize]).unwrap();
        let db = Database::open_with(cut.path(), options).unwrap();

        // replay lands on the highest surviving stamp (stamp-sorted replay)
        let max_stamp = surviving.iter().map(|r| r.generation).max().unwrap_or(0);
        assert_eq!(db.generation(), max_stamp, "prefix of {keep} records");

        // each recovered document holds a program-order prefix of its
        // writer's inserts: i attributes are exactly 0..n in order
        for w in 0..WRITERS {
            let name = writer_doc(w);
            if db.store().lookup(&name).is_none() {
                continue;
            }
            let text = doc_text(&db, &name);
            let seen: Vec<usize> = text
                .split("<e i=\"")
                .skip(1)
                .map(|p| p.split('"').next().unwrap().parse().unwrap())
                .collect();
            let expect: Vec<usize> = (0..seen.len()).collect();
            assert_eq!(
                seen, expect,
                "prefix of {keep} records left writer {w} mid-sequence"
            );
            assert_doc_integrity(&db, &name);
        }
        if keep < scan.records.len() {
            offset += scan.records[keep].encoded_len();
        }
    }
}

// ---------------------------------------------------------------------------
// cross-document read/write statements must serialize (no write skew)
// ---------------------------------------------------------------------------

/// The classic write-skew shape: T1 reads b and writes a (`a := a + b`),
/// T2 reads a and writes b (`b := a + b`).  Because commits latch their
/// READ fragments as well as their write fragments, the two statements
/// conflict and the final pair must be reachable by some serial
/// interleaving of the 2·ROUNDS statements.  A snapshot-isolation
/// anomaly — a commit computed from a stale read of the *other*
/// document — lands outside that set (e.g. both transactions reading
/// (1,1) gives (2,2), which no serial order produces).
#[test]
fn cross_document_read_write_statements_serialize() {
    const ROUNDS: usize = 6;
    const TRIALS: usize = 8;

    // every final (a, b) a serial interleaving can produce
    fn walk(a: i64, b: i64, t1: usize, t2: usize, out: &mut std::collections::HashSet<(i64, i64)>) {
        if t1 == 0 && t2 == 0 {
            out.insert((a, b));
            return;
        }
        if t1 > 0 {
            walk(a + b, b, t1 - 1, t2, out);
        }
        if t2 > 0 {
            walk(a, a + b, t1, t2 - 1, out);
        }
    }
    let mut reachable = std::collections::HashSet::new();
    walk(1, 1, ROUNDS, ROUNDS, &mut reachable);

    for trial in 0..TRIALS {
        let db = Arc::new(Database::new());
        db.load_document("a.xml", "<d><v>1</v></d>").unwrap();
        db.load_document("b.xml", "<d><v>1</v></d>").unwrap();
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let spawn = |target: &'static str, other: &'static str| {
            let db = Arc::clone(&db);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut s = db.session();
                barrier.wait();
                for _ in 0..ROUNDS {
                    s.execute(&format!(
                        "replace value of node doc(\"{target}\")/d/v with \
                         string(number(doc(\"{target}\")/d/v) + number(doc(\"{other}\")/d/v))"
                    ))
                    .unwrap();
                }
            })
        };
        let t1 = spawn("a.xml", "b.xml");
        let t2 = spawn("b.xml", "a.xml");
        t1.join().unwrap();
        t2.join().unwrap();

        let read = |name: &str| -> i64 {
            let mut s = db.session();
            s.execute(&format!("string(doc(\"{name}\")/d/v)"))
                .unwrap()
                .as_query()
                .unwrap()
                .serialize()
                .parse()
                .unwrap()
        };
        let (a, b) = (read("a.xml"), read("b.xml"));
        assert!(
            reachable.contains(&(a, b)),
            "trial {trial}: final state ({a}, {b}) is not reachable by any \
             serial interleaving — write skew"
        );
        assert_doc_integrity(&db, "a.xml");
        assert_doc_integrity(&db, "b.xml");
    }
}
