//! `EXPLAIN ANALYZE`: the per-operator profiles of XMark Q10, Q12 and Q20.
//!
//! Every plan node shows its self and inclusive time, rows out, memo hits,
//! the sorts it did and avoided, and the document rows its location steps
//! scanned and the storage runs they skipped (see `Session::profile`).
//! Q10 and Q12 are the costliest join statements, Q20 the costliest
//! path/aggregate one.  Each query is profiled seven times on a warm plan
//! cache; the run with the median execution time is printed, followed by
//! its self time and rows scanned summed per operator kind (`scj`, `elem`,
//! `attr`, …), so a layer's share can be quoted from the output.
//!
//! ```sh
//! cargo run --release --example explain_analyze          # sf 0.01
//! cargo run --release --example explain_analyze -- 0.1  # sf 0.1
//! ```

use std::collections::HashMap;
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
             {} rows scanned, {} runs skipped",
            100.0 * profile.self_ns_total() as f64 / profile.exec_ns as f64,
            profile.stats.sorts,
            profile.stats.sorts_avoided,
            profile.stats.staircase.nodes_scanned,
            profile.stats.staircase.pages_skipped
        );
        print_by_kind(profile);
    }
    Ok(())
}

/// The profile's self time, rows scanned and node count summed per
/// operator kind, costliest first.
fn print_by_kind(profile: &Profile) {
    let mut kinds: HashMap<&str, (u64, u64, usize)> = HashMap::new();
    for op in &profile.ops {
        let kind = kinds.entry(op.op).or_default();
        kind.0 += op.self_ns;
        kind.1 += op.nodes_scanned;
        kind.2 += 1;
    }
    let mut kinds: Vec<_> = kinds.into_iter().collect();
    kinds.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then(a.0.cmp(b.0)));
    let total = profile.self_ns_total().max(1) as f64;
    println!(
        "{:<14} {:>9} {:>7} {:>8} {:>5}",
        "operator kind", "self ms", "share", "scanned", "nodes"
    );
    for (kind, (self_ns, scanned, nodes)) in kinds {
        println!(
            "{kind:<14} {:>9.3} {:>6.1}% {scanned:>8} {nodes:>5}",
            self_ns as f64 / 1e6,
            100.0 * self_ns as f64 / total
        );
    }
    println!();
}
