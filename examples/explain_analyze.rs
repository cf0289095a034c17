//! `EXPLAIN ANALYZE`: the per-operator profiles of XMark Q10, Q12 and Q20.
//!
//! Every plan node shows its self and inclusive time, rows out, memo hits,
//! the sorts it did and avoided, and the document rows its location steps
//! scanned and the storage runs they skipped (see `Session::profile`).
//! Q10 and Q12 are the costliest join statements, Q20 the costliest
//! path/aggregate one.  Each query is profiled seven times on a warm plan
//! cache; the run with the median execution time is printed.
//!
//! ```sh
//! cargo run --release --example explain_analyze          # sf 0.01
//! cargo run --release --example explain_analyze -- 0.1  # sf 0.1
//! ```

use std::sync::Arc;

use mxq::xmark::gen::{generate_xml, GenParams};
use mxq::xmark::queries::query_text;
use mxq::xquery::{Database, Profile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let factor = match std::env::args().nth(1) {
        Some(arg) => arg.parse()?,
        None => 0.01,
    };
    let db = Arc::new(Database::new());
    let xml = generate_xml(&GenParams {
        factor,
        ..GenParams::default()
    });
    db.load_document("auction.xml", &xml)?;
    let mut session = db.session();
    for q in [10, 12, 20] {
        let text = query_text(q);
        let mut runs: Vec<Profile> = (0..7)
            .map(|_| session.profile(text))
            .collect::<Result<_, _>>()?;
        runs.sort_by_key(|p| p.exec_ns);
        let profile = &runs[runs.len() / 2];
        println!("== XMark Q{q} at sf {factor} ==");
        println!("{profile}");
        println!(
            "operator self times cover {:.1} % of the execution; {} sorts, {} avoided; \
             {} rows scanned, {} runs skipped\n",
            100.0 * profile.self_ns_total() as f64 / profile.exec_ns as f64,
            profile.stats.sorts,
            profile.stats.sorts_avoided,
            profile.stats.staircase.nodes_scanned,
            profile.stats.staircase.pages_skipped
        );
    }
    Ok(())
}
