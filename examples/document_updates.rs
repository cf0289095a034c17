//! Structural updates (Section 5.2): insert new auctions into a stored
//! document under the chunk-wise remappable pre-number scheme and compare
//! the update cost with naive renumbering, then query the updated document.
//!
//! The run asserts the shape of the paper's claim: the rows the paged
//! scheme writes per insert stay bounded by a chunk, while the naive
//! scheme's grow with the document.
//!
//! ```sh
//! cargo run --release --example document_updates
//! ```

use mxq::xmark::gen::{generate_xml, GenParams};
use mxq::xmldb::columns::DEFAULT_CHUNK_ROWS;
use mxq::xmldb::update::{fragment_from_xml, NaiveDocument, PagedDocument, StructuralUpdate};
use mxq::xmldb::{serialize_document, shred, Document, ShredOptions};
use std::sync::Arc;

use mxq::xquery::Database;

const INSERTS: u64 = 25;

/// Apply `INSERTS` bidder inserts into the first auction of `doc` under
/// both schemes; returns them for inspection.
fn insert_bids(doc: &Document) -> (PagedDocument, NaiveDocument) {
    let new_bid =
        fragment_from_xml("<bidder><date>2006-06-27</date><personref person=\"person0\"/><increase>13.50</increase></bidder>");
    let target = doc.elements_named("open_auction")[0];
    // the paper's scheme: chunks as logical pages
    let mut paged = PagedDocument::from_document(doc);
    // the baseline: shift-everything renumbering
    let mut naive = NaiveDocument::from_document(doc);
    for _ in 0..INSERTS {
        paged.insert_last_child(target, &new_bid);
        naive.insert_last_child(target, &new_bid);
    }
    (paged, naive)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("{INSERTS} subtree inserts into one auction, rows written per insert:");
    println!("  {:>8} {:>8} {:>8}", "nodes", "paged", "naive");
    let mut naive_costs = Vec::new();
    let mut updated = None;
    for factor in [0.002, 0.008] {
        let xml = generate_xml(&GenParams::with_factor(factor));
        let doc = shred("auction.xml", &xml, &ShredOptions::default())?;
        let (paged, naive) = insert_bids(&doc);
        let paged_cost = paged.stats.tuples_written / INSERTS;
        let naive_cost = naive.stats.tuples_written / INSERTS;
        println!("  {:>8} {:>8} {:>8}", doc.len(), paged_cost, naive_cost);
        // Section 5.2: an insert rewrites at most the chunk it lands in
        assert!(
            paged_cost <= 2 * DEFAULT_CHUNK_ROWS as u64,
            "paged scheme wrote {paged_cost} rows per insert"
        );
        // both schemes materialise the same logical document
        let paged_doc = paged.to_document();
        assert_eq!(
            serialize_document(&paged_doc),
            serialize_document(&naive.to_document())
        );
        naive_costs.push(naive_cost);
        updated = Some(paged_doc);
    }
    // renumbering shifts every following row: four times the document,
    // at least twice the rows per insert
    assert!(
        naive_costs[1] >= 2 * naive_costs[0],
        "naive rows per insert {naive_costs:?} must grow with the document"
    );
    println!("  both schemes agree on the resulting documents ✓");
    let paged_doc = updated.expect("two scale factors ran");

    // query the updated document
    let db = Arc::new(Database::new());
    db.load_document("auction.xml", &serialize_document(&paged_doc))?;
    let mut session = db.session();
    let bids =
        session.query("count(doc(\"auction.xml\")/site/open_auctions/open_auction[1]/bidder)")?;
    println!("\nbidders on the updated auction: {}", bids.serialize());

    // the same write path, driven from XQuery Update Facility text: the
    // statements are parsed, compiled, collected into a pending update list
    // and applied to the engine's own paged representation
    let report = session.execute_update(
        "insert nodes <bidder><date>2006-06-28</date><increase>20.00</increase></bidder> \
         as last into doc(\"auction.xml\")/site/open_auctions/open_auction[1], \
         replace value of node doc(\"auction.xml\")/site/open_auctions/open_auction[1]/current \
         with \"999.99\"",
    )?;
    println!(
        "\nXQUF batch: {} statements → {} primitives, {} tuples written, {} pages touched",
        report.statements,
        report.primitives,
        report.stats.tuples_written,
        report.stats.pages_touched
    );
    let bids =
        session.query("count(doc(\"auction.xml\")/site/open_auctions/open_auction[1]/bidder)")?;
    let current =
        session.query("doc(\"auction.xml\")/site/open_auctions/open_auction[1]/current/text()")?;
    println!(
        "after the batch: {} bidders, current price {}",
        bids.serialize(),
        current.serialize()
    );
    Ok(())
}
