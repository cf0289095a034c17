//! Regenerates Table 1: elapsed time per XMark query, the relational engine
//! vs the naive DOM-walking comparator, next to the published MonetDB/XQuery
//! times for reference.
//!
//! ```sh
//! cargo run --release --example table1_xmark [scale_factor]
//! ```

use std::time::Instant;

use mxq::xmark::gen::{generate_xml, GenParams};
use mxq::xmark::naive::NaiveInterpreter;
use mxq::xmark::queries::{query_text, QUERY_IDS};
use mxq::xmark::survey::mxq_published;
use mxq::xmldb::DocStore;
use std::sync::Arc;

use mxq::xquery::Database;

fn main() {
    let factor: f64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(0.001);
    let xml = generate_xml(&GenParams::with_factor(factor));
    println!(
        "Table 1 — XMark query evaluation (this reproduction, scale factor {factor}, {:.1} KB)",
        xml.len() as f64 / 1024.0
    );

    let db = Arc::new(Database::new());
    db.load_document("auction.xml", &xml).unwrap();
    let mut session = db.session();

    let published = mxq_published("1.1MB");
    println!(
        "{:>4} {:>14} {:>14} {:>10}   {:>16}",
        "Q", "relational [s]", "naive [s]", "speedup", "paper MXQ@1.1MB"
    );
    for id in QUERY_IDS {
        let t = Instant::now();
        session.query(query_text(id)).expect("relational");
        let rel = t.elapsed().as_secs_f64();

        let mut store = DocStore::new();
        store.load_xml("auction.xml", &xml).unwrap();
        let snap = store.snapshot();
        let mut naive = NaiveInterpreter::new(&snap);
        let t = Instant::now();
        naive.run(query_text(id)).expect("naive");
        let nai = t.elapsed().as_secs_f64();

        let pub_time = published
            .iter()
            .find(|(q, _)| *q == id)
            .and_then(|(_, v)| *v)
            .map(|v| format!("{v:.3}"))
            .unwrap_or_else(|| "DNF".into());
        println!(
            "{id:>4} {rel:>14.4} {nai:>14.4} {:>9.1}x   {pub_time:>16}",
            nai / rel.max(1e-9)
        );
    }
    println!("\nThe naive interpreter stands in for the tuple-at-a-time comparators of the paper");
    println!("(eXist / Galax / X-Hive / BDB); the join queries Q8–Q12 show the largest gaps.");
}
