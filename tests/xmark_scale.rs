//! Scale validation (ROADMAP "XMark scale factors", ≥ 0.1): generate an
//! XMark document at scale factor 0.1 (≈4 MB of XML with this generator's
//! laptop-scale element mix), run representative
//! queries (Q1 value lookup, Q8 join, Q15 deep path) against the paged
//! store, apply a mixed update script, and cross-check every paged-scan
//! result against a **full reshred** of the serialized store — the
//! from-scratch oracle for the incremental page/column maintenance.
//!
//! Ignored by default (the run takes tens of seconds in debug builds):
//!
//! ```sh
//! cargo test --release --test xmark_scale -- --ignored
//! ```
//!
//! `MXQ_SCALE` overrides the scale factor (e.g. `MXQ_SCALE=0.02` for a
//! quicker CI-sized run).

use std::sync::Arc;

use mxq::xmark::gen::{generate_xml, GenParams};
use mxq::xmark::queries::query_text;
use mxq::xmldb::serialize_document;
use mxq::xquery::Database;

fn scale() -> f64 {
    match std::env::var("MXQ_SCALE") {
        Ok(raw) if !raw.trim().is_empty() => raw
            .trim()
            .parse()
            .expect("MXQ_SCALE must be a positive number"),
        _ => 0.1,
    }
}

/// The mixed update script: structural inserts and deletes, value and
/// subtree replacement, renames — each touching a different region of the
/// document.
fn update_script() -> Vec<String> {
    let mut script = Vec::new();
    for i in 0..10 {
        script.push(format!(
            "insert nodes <bidder><date>2006-07-{:02}</date><increase>{}.50</increase></bidder> \
             as last into doc(\"auction.xml\")/site/open_auctions/open_auction[{}]",
            1 + i,
            1 + i % 9,
            1 + i * 3
        ));
    }
    script.push(
        "delete nodes doc(\"auction.xml\")/site/open_auctions/open_auction[2]/bidder[1]".into(),
    );
    script.push(
        "replace value of node doc(\"auction.xml\")/site/open_auctions/open_auction[3]/current \
         with \"999.99\""
            .into(),
    );
    script.push(
        "replace node doc(\"auction.xml\")/site/open_auctions/open_auction[4]/annotation/happiness \
         with <happiness>10</happiness>"
            .into(),
    );
    script.push(
        "rename node doc(\"auction.xml\")/site/open_auctions/open_auction[5]/type as \"kind\""
            .into(),
    );
    script.push(
        "insert nodes <watch open_auction=\"open_auction0\"/> as first into \
         doc(\"auction.xml\")/site/people/person[1]/watches"
            .into(),
    );
    script
}

#[test]
#[ignore = "scale >= 0.1 run; enable with -- --ignored (MXQ_SCALE overrides the factor)"]
fn xmark_scale_01_queries_and_updates_match_full_reshred() {
    let factor = scale();
    let xml = generate_xml(&GenParams::with_factor(factor));
    assert!(
        factor < 0.1 || xml.len() > 2_000_000,
        "sf {factor} generated only {} bytes",
        xml.len()
    );

    let db = Arc::new(Database::new());
    db.load_document("auction.xml", &xml).unwrap();
    let mut session = db.session();

    let queries = [query_text(1), query_text(8), query_text(15)];

    // -- phase 1: fresh-load paged scans vs. a reshred of the same text ---
    let fresh: Vec<String> = queries
        .iter()
        .map(|q| session.query(q).unwrap().serialize().to_string())
        .collect();
    {
        let oracle = Arc::new(Database::new());
        oracle.load_document("auction.xml", &xml).unwrap();
        let mut os = oracle.session();
        for (q, want) in queries.iter().zip(&fresh) {
            assert_eq!(&os.query(q).unwrap().serialize().to_string(), want);
        }
    }

    // -- phase 2: mixed update script, then cross-check again -------------
    let mut primitives = 0usize;
    for stmt in update_script() {
        primitives += session.execute_update(&stmt).unwrap().primitives;
    }
    assert!(
        primitives >= 14,
        "script applied only {primitives} primitives"
    );

    let updated: Vec<String> = queries
        .iter()
        .map(|q| session.query(q).unwrap().serialize().to_string())
        .collect();

    // serialize the updated paged store (rendered from pages on demand) and
    // reshred it into a fresh database: the full-rebuild oracle
    let text = {
        let store = db.store();
        let frag = store.lookup("auction.xml").unwrap();
        serialize_document(store.container(frag))
    };
    let oracle = Arc::new(Database::new());
    oracle.load_document("auction.xml", &text).unwrap();
    let mut os = oracle.session();
    for (q, want) in queries.iter().zip(&updated) {
        assert_eq!(
            &os.query(q).unwrap().serialize().to_string(),
            want,
            "paged-scan result diverges from full reshred for {q}"
        );
    }

    // updates must be visible (Q1 is auction-independent; bidder counts move)
    let bidders: i64 = session
        .query("count(doc(\"auction.xml\")/site/open_auctions/open_auction/bidder)")
        .unwrap()
        .serialize()
        .parse()
        .unwrap();
    let oracle_bidders: i64 = os
        .query("count(doc(\"auction.xml\")/site/open_auctions/open_auction/bidder)")
        .unwrap()
        .serialize()
        .parse()
        .unwrap();
    assert_eq!(bidders, oracle_bidders);
}

/// The same scale run against the **on-disk store**: load + update a
/// durable database, checkpoint it, crash-recover (drop without another
/// checkpoint, so the WAL tail replays), and compare every query result
/// with the in-memory run.  Prints the cold (checkpoint-image decode) vs.
/// warm (XML shred) open times recorded in BASELINES.md.
#[test]
#[ignore = "scale >= 0.1 run; enable with -- --ignored (MXQ_SCALE overrides the factor)"]
fn xmark_scale_01_on_disk_store_cold_vs_warm() {
    use std::time::Instant;

    let factor = scale();
    let xml = generate_xml(&GenParams::with_factor(factor));
    let dir = std::env::temp_dir().join(format!("mxq-scale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let queries = [query_text(1), query_text(8), query_text(15)];

    // in-memory oracle: load, update, query
    let mem = Arc::new(Database::new());
    let warm_load = {
        let started = Instant::now();
        mem.load_document("auction.xml", &xml).unwrap();
        started.elapsed().as_secs_f64()
    };
    let mut ms = mem.session();
    for stmt in update_script() {
        ms.execute_update(&stmt).unwrap();
    }
    let want: Vec<String> = queries
        .iter()
        .map(|q| ms.query(q).unwrap().serialize().to_string())
        .collect();

    // durable run: checkpoint after the load, updates stay in the WAL
    {
        let db = Arc::new(Database::open(&dir).unwrap());
        db.load_document("auction.xml", &xml).unwrap();
        db.checkpoint().unwrap();
        let mut s = db.session();
        for stmt in update_script() {
            s.execute_update(&stmt).unwrap();
        }
    }

    // cold start: decode the page images + replay the update tail
    let started = Instant::now();
    let db = Database::open(&dir).unwrap();
    let cold_open = started.elapsed().as_secs_f64();
    let replays = db.stats().recovery_replays;
    assert_eq!(replays, update_script().len() as u64);

    let db = Arc::new(db);
    let mut s = db.session();
    for (q, want) in queries.iter().zip(&want) {
        assert_eq!(
            &s.query(q).unwrap().serialize().to_string(),
            want,
            "on-disk store diverges from the in-memory run for {q}"
        );
    }
    println!(
        "xmark_scale sf {factor}: cold open (images + {replays} replays) {cold_open:.3}s \
         vs warm xml shred {warm_load:.3}s"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
