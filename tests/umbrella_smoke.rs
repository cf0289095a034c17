//! Smoke test for the umbrella `mxq` crate: every re-exported subsystem is
//! reachable through `mxq::*`, a document round-trips through the relational
//! engine, and an XMark-style FLWOR query agrees with the naive DOM-walking
//! interpreter.

use mxq::xmark::gen::{generate_xml, GenParams};
use mxq::xmark::NaiveInterpreter;
use mxq::xmldb::DocStore;
use mxq::xquery::Database;
use std::sync::Arc;

/// An XMark-flavoured FLWOR query: path steps, a predicate on an attribute,
/// ordering and element construction.
const FLWOR: &str = r#"
for $p in doc("auction.xml")/site/people/person
where not(empty($p/profile))
order by $p/name/text()
return <who id="{$p/@id}">{$p/name/text()}</who>
"#;

fn naive_result(xml: &str, query: &str) -> String {
    let mut store = DocStore::new();
    store.load_xml("auction.xml", xml).expect("naive load");
    let snap = store.snapshot();
    let mut naive = NaiveInterpreter::new(&snap);
    let items = naive.run(query).expect("naive evaluation");
    naive.serialize(&items)
}

#[test]
fn umbrella_engine_matches_naive_on_flwor_query() {
    let xml = generate_xml(&GenParams::with_factor(0.0005));

    let db = Arc::new(Database::new());
    db.load_document("auction.xml", &xml).expect("load");
    let result = db.session().query(FLWOR).expect("relational evaluation");
    assert!(!result.is_empty(), "profile-carrying people must exist");

    let reference = naive_result(&xml, FLWOR);
    assert_eq!(result.serialize(), reference);
}

#[test]
fn umbrella_reexports_cover_all_subsystems() {
    // engine: build a column directly through the re-export
    let col = mxq::engine::Column::dense(0, 3);
    assert_eq!(col.len(), 3);
    assert!(col.is_dense());

    // xmldb: shred + serialize round-trip
    let doc = mxq::xmldb::shred("t.xml", "<a><b>x</b></a>", &Default::default()).unwrap();
    assert_eq!(mxq::xmldb::serialize_document(&doc), "<a><b>x</b></a>");

    // staircase: a child step over the shredded document
    let mut stats = mxq::staircase::ScanStats::default();
    let kids = mxq::staircase::staircase_step(
        &doc,
        &[0],
        mxq::staircase::Axis::Child,
        &mxq::staircase::NodeTest::AnyKind,
        &mut stats,
    );
    assert_eq!(kids.len(), 1, "<a> has exactly one child element");

    // xquery + xmark: counting query through the server-style facade
    let db = Arc::new(Database::new());
    db.load_document("t.xml", "<a><b/><b/></a>").unwrap();
    assert_eq!(
        db.session()
            .query("count(doc(\"t.xml\")//b)")
            .unwrap()
            .serialize(),
        "2"
    );
    assert_eq!(mxq::xmark::QUERY_IDS.len(), 20);
}
