//! Crash-recovery smoke driver for CI.
//!
//! Two subcommands over one durable database directory:
//!
//! * `recovery_smoke run <dir> [writers]` — open the directory, load an
//!   XMark document (`MXQ_SCALE`, default 0.003), take a checkpoint, then
//!   apply updates in a tight loop until killed.  With `writers` = N > 1,
//!   N concurrent writer threads run: thread 0 on `auction.xml`, thread w
//!   on its own copy `auction-w<w>.xml`, so the kill lands mid-flight in a
//!   multi-writer commit pipeline (latches, commit ordering, and — under
//!   `MXQ_SYNC=group=W` — group-committed WAL batches).  CI SIGKILLs this
//!   process mid-run to simulate a crash at an arbitrary point.
//! * `recovery_smoke verify <dir>` — reopen the directory (recovering the
//!   checkpoint + WAL tail, discarding any torn record the kill produced)
//!   and verify the store end-to-end: every recovered document (the base
//!   one plus any writer copies found) serializes, the serialization
//!   reshreds to a byte-identical image with valid pre|size|level
//!   invariants, the incremental column image agrees with a from-scratch
//!   rebuild, and a real XMark query runs.  Prints `RECOVERY OK` on
//!   success; any disagreement panics.

use std::sync::Arc;

use mxq_xmark::gen::{generate_xml, GenParams};
use mxq_xmldb::{serialize_document, shred, ShredOptions};
use mxq_xquery::{Database, DurabilityOptions};

/// The XMark scale factor: `MXQ_SCALE`, default 0.003; exits with status
/// 2 on an invalid value.
fn scale() -> f64 {
    mxq_bench::env_scale()
        .unwrap_or_else(|e| {
            eprintln!("[recovery_smoke] {e}");
            std::process::exit(2)
        })
        .unwrap_or(0.003)
}

/// Document updated by writer thread `w`: thread 0 keeps the historical
/// single-writer behavior on `auction.xml`, the rest get their own copies
/// so the writers commit to pairwise disjoint documents.
fn writer_doc(w: usize) -> String {
    if w == 0 {
        "auction.xml".to_string()
    } else {
        format!("auction-w{w}.xml")
    }
}

fn update_stmt(doc: &str, i: usize) -> String {
    match i % 3 {
        0 => format!(
            "insert nodes <bidder><date>2006-08-{:02}</date>\
             <increase>{}.50</increase></bidder> as last into \
             doc(\"{doc}\")/site/open_auctions/open_auction[{}]",
            (i % 28) + 1,
            i % 9,
            (i % 5) + 1
        ),
        1 => format!(
            "replace value of node doc(\"{doc}\")/site/open_auctions/\
             open_auction[{}]/current with \"{}.00\"",
            (i % 5) + 1,
            i % 100
        ),
        _ => format!(
            "insert nodes <watch open_auction=\"open_auction{}\"/> as first into \
             doc(\"{doc}\")/site/people/person[{}]/watches",
            i % 5,
            (i % 3) + 1
        ),
    }
}

fn update_loop(db: &Arc<Database>, w: usize) -> ! {
    let doc = writer_doc(w);
    let mut s = db.session();
    let mut i: usize = 0;
    loop {
        // a statement may legitimately select nothing at tiny scales — only
        // I/O or store failures should abort the driver
        match s.execute_update(&update_stmt(&doc, i)) {
            Ok(_) => {}
            Err(mxq_xquery::Error::Durability(e)) => panic!("durability failure mid-run: {e}"),
            Err(_) => {}
        }
        i += 1;
        if i.is_multiple_of(64) {
            eprintln!("[recovery_smoke] writer {w}: {i} updates applied");
        }
    }
}

fn run(dir: &str, writers: usize) -> ! {
    assert!(writers >= 1, "writer count must be at least 1");
    // honor MXQ_SYNC / MXQ_CHECKPOINT_MS so CI can point the kill at a
    // specific logging configuration (e.g. group commit)
    let options = DurabilityOptions::from_env().unwrap_or_else(|e| {
        eprintln!("[recovery_smoke] {e}");
        std::process::exit(2)
    });
    let db = Arc::new(Database::open_with(dir, options).expect("open durable database"));
    let xml = generate_xml(&GenParams::with_factor(scale()));
    for w in 0..writers {
        db.load_document(&writer_doc(w), &xml).expect("load XMark");
    }
    db.checkpoint().expect("initial checkpoint");
    eprintln!(
        "[recovery_smoke] loaded + checkpointed {writers} document(s), \
         entering update loop ({writers} writer(s))"
    );
    for w in 1..writers {
        let db = Arc::clone(&db);
        std::thread::spawn(move || update_loop(&db, w));
    }
    update_loop(&db, 0)
}

/// Full per-document agreement check: serialize, reshred, compare images
/// and the incrementally maintained columns against a from-scratch rebuild.
fn verify_doc(db: &Database, name: &str) {
    let text = {
        let store = db.store();
        let frag = store
            .lookup(name)
            .unwrap_or_else(|| panic!("document {name} survives the crash"));
        serialize_document(store.container(frag))
    };
    let opts = ShredOptions {
        document_node: true,
        ..ShredOptions::default()
    };
    let reshred = shred("check.xml", &text, &opts).expect("recovered store serializes valid XML");
    reshred
        .check_invariants()
        .expect("pre|size|level invariants hold after recovery");
    assert_eq!(
        serialize_document(&reshred),
        text,
        "serialization agreement for {name}: reshred of the recovered store is a fixpoint"
    );
    {
        let store = db.store();
        let frag = store.lookup(name).unwrap();
        assert_eq!(
            store.container(frag).len(),
            reshred.len(),
            "node count agreement for {name} after recovery"
        );
    }
    db.document_columns(name)
        .unwrap()
        .same_content(reshred.columns())
        .expect("recovered column image agrees with a from-scratch rebuild");
}

fn verify(dir: &str) {
    let db = Database::open(dir).expect("recovery must succeed after SIGKILL");
    let stats = db.stats();
    eprintln!(
        "[recovery_smoke] reopened: generation {}, {} WAL records replayed",
        db.generation(),
        stats.recovery_replays
    );

    // the base document must exist; writer copies are verified if the run
    // that was killed had loaded them (their names are deterministic)
    verify_doc(&db, "auction.xml");
    let mut docs = 1usize;
    for w in 1.. {
        let name = writer_doc(w);
        if db.store().lookup(&name).is_none() {
            break;
        }
        verify_doc(&db, &name);
        docs += 1;
    }
    eprintln!("[recovery_smoke] {docs} document(s) verified");

    let db = Arc::new(db);
    let mut s = db.session();
    let n = s
        .query("count(doc(\"auction.xml\")/site/open_auctions/open_auction/bidder)")
        .expect("recovered store answers queries")
        .serialize()
        .to_string();
    eprintln!("[recovery_smoke] {n} bidders after recovery");
    println!("RECOVERY OK");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("run") if args.len() == 3 => run(&args[2], 1),
        Some("run") if args.len() == 4 => run(
            &args[2],
            args[3].parse().expect("writer count must be a number"),
        ),
        Some("verify") if args.len() == 3 => verify(&args[2]),
        _ => {
            eprintln!("usage: recovery_smoke <run|verify> <dir> [writers]");
            std::process::exit(2);
        }
    }
}
