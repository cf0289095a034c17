//! Cross-crate integration tests: updates feeding queries, multiple
//! documents, optimizer statistics, and the ablation switches.

use mxq::xmark::gen::{generate_xml, GenParams};
use mxq::xmark::queries::query_text;
use mxq::xmldb::update::{fragment_from_xml, PagedDocument, StructuralUpdate};
use mxq::xmldb::{serialize_document, shred, ShredOptions};
use mxq::xquery::{Database, ExecConfig, Session};
use std::sync::Arc;

fn session() -> Session {
    Arc::new(Database::new()).session()
}

fn session_with_config(config: ExecConfig) -> Session {
    Arc::new(Database::new()).session_with_config(config)
}

#[test]
fn query_after_structural_update() {
    let xml =
        "<site><open_auctions><open_auction id=\"a0\"><bidder><increase>5</increase></bidder>\
               </open_auction></open_auctions></site>";
    let doc = shred("auction.xml", xml, &ShredOptions::default()).unwrap();
    let mut paged = PagedDocument::from_document(&doc);
    let auction = doc.elements_named("open_auction")[0];
    for i in 0..5 {
        paged.insert_last_child(
            auction,
            &fragment_from_xml(&format!("<bidder><increase>{}</increase></bidder>", 10 + i)),
        );
    }
    let updated = serialize_document(&paged.to_document());

    let mut engine = session();
    engine
        .database()
        .load_document("auction.xml", &updated)
        .unwrap();
    let count = engine
        .query("count(doc(\"auction.xml\")/site/open_auctions/open_auction/bidder)")
        .unwrap();
    assert_eq!(count.serialize(), "6");
    let max = engine
        .query("max(doc(\"auction.xml\")//increase/text())")
        .unwrap();
    assert_eq!(max.serialize(), "14");
}

#[test]
fn queries_across_multiple_documents() {
    let mut engine = session();
    engine
        .database()
        .load_document(
            "people.xml",
            "<people><p id=\"1\">Ann</p><p id=\"2\">Bob</p></people>",
        )
        .unwrap();
    engine
        .database()
        .load_document(
            "orders.xml",
            "<orders><o p=\"1\"/><o p=\"1\"/><o p=\"2\"/></orders>",
        )
        .unwrap();
    let r = engine
        .query(
            "for $p in doc(\"people.xml\")/people/p \
             return <r n=\"{$p/text()}\">{count(for $o in doc(\"orders.xml\")/orders/o \
                                               where $o/@p = $p/@id return $o)}</r>",
        )
        .unwrap();
    assert_eq!(r.serialize(), "<r n=\"Ann\">2</r><r n=\"Bob\">1</r>");
}

#[test]
fn order_awareness_reports_avoided_sorts() {
    let xml = generate_xml(&GenParams::with_factor(0.0005));
    let mut optimized = session();
    optimized
        .database()
        .load_document("auction.xml", &xml)
        .unwrap();
    let (_, with) = optimized.query_with_report(query_text(8)).unwrap();

    let mut unoptimized = session_with_config(ExecConfig {
        order_aware: false,
        ..ExecConfig::default()
    });
    unoptimized
        .database()
        .load_document("auction.xml", &xml)
        .unwrap();
    let (_, without) = unoptimized.query_with_report(query_text(8)).unwrap();

    assert!(
        with.stats.sorts_avoided > 0,
        "order-aware execution avoids sorts"
    );
    assert!(
        without.stats.sorts > with.stats.sorts,
        "disabling order awareness performs more sorts ({} vs {})",
        without.stats.sorts,
        with.stats.sorts
    );
}

#[test]
fn loop_lifting_reduces_document_passes() {
    let xml = generate_xml(&GenParams::with_factor(0.0005));
    let mut ll = session();
    ll.database().load_document("auction.xml", &xml).unwrap();
    let (_, with) = ll.query_with_report(query_text(2)).unwrap();

    let mut iterative = session_with_config(ExecConfig {
        loop_lifted_child: false,
        loop_lifted_descendant: false,
        nametest_pushdown: false,
        ..ExecConfig::default()
    });
    iterative
        .database()
        .load_document("auction.xml", &xml)
        .unwrap();
    let (_, without) = iterative.query_with_report(query_text(2)).unwrap();

    assert!(
        without.stats.staircase.passes > with.stats.staircase.passes,
        "iterative staircase joins perform one pass per iteration ({} vs {})",
        without.stats.staircase.passes,
        with.stats.staircase.passes
    );
}

#[test]
fn join_recognition_reduces_materialised_rows() {
    let xml = generate_xml(&GenParams::with_factor(0.001));
    let mut with_join = session();
    with_join
        .database()
        .load_document("auction.xml", &xml)
        .unwrap();
    let (r1, rep1) = with_join.query_with_report(query_text(8)).unwrap();

    let mut without_join = session_with_config(ExecConfig {
        join_recognition: false,
        ..ExecConfig::default()
    });
    without_join
        .database()
        .load_document("auction.xml", &xml)
        .unwrap();
    let (r2, rep2) = without_join.query_with_report(query_text(8)).unwrap();

    assert_eq!(r1.serialize(), r2.serialize());
    assert!(
        rep2.stats.peak_rows > rep1.stats.peak_rows,
        "without join recognition the Cartesian-product intermediate dominates ({} vs {})",
        rep2.stats.peak_rows,
        rep1.stats.peak_rows
    );
}

#[test]
fn plan_sizes_are_in_the_papers_ballpark() {
    // the paper reports an average of 86 operators per XMark plan
    let engine = session();
    let mut total = 0usize;
    for id in [2usize, 3, 8, 9, 10, 11, 12, 19, 20] {
        total += engine.compile(query_text(id)).unwrap().operator_count();
    }
    let avg = total / 9;
    assert!(
        (20..300).contains(&avg),
        "average XMark plan size should be tens of operators, got {avg}"
    );
}

#[test]
fn constructed_results_serialize_as_xml() {
    let xml = generate_xml(&GenParams::with_factor(0.0005));
    let mut engine = session();
    engine
        .database()
        .load_document("auction.xml", &xml)
        .unwrap();
    let q2 = engine.query(query_text(2)).unwrap();
    assert!(q2.serialize().starts_with("<increase"));
    let q20 = engine.query(query_text(20)).unwrap();
    assert!(q20.serialize().starts_with("<result>"));
    assert!(q20.serialize().contains("<preferred>"));
}
