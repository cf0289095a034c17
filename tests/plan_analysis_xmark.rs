//! Static plan analysis over the XMark workload: the verifier accepts all
//! twenty query plans, the simplifier's eliminations show up in the
//! annotated `explain`, the recognised joins of Q8 and Q9 compare attribute
//! steps and run code-to-code, and executing under runtime validation
//! changes no results.

use mxq::xmark::gen::{generate_xml, GenParams};
use mxq::xmark::queries::query_text;
use mxq::xquery::Database;
use std::sync::Arc;

/// Switch on runtime plan validation for this test process, as
/// `MXQ_VALIDATE_PLANS=1` does: every executor built from here on asserts
/// the inferred plan properties against each table it materializes.
fn validate_plans() {
    std::env::set_var("MXQ_VALIDATE_PLANS", "1");
}

fn xmark_db() -> Arc<Database> {
    let db = Arc::new(Database::new());
    db.load_document("auction.xml", &generate_xml(&GenParams::with_factor(0.002)))
        .unwrap();
    db
}

#[test]
fn all_twenty_xmark_plans_verify_and_explain() {
    let db = Arc::new(Database::new());
    let session = db.session();
    for id in 1..=20 {
        let s = session
            .explain(query_text(id))
            .unwrap_or_else(|e| panic!("Q{id} failed analysis: {e}"));
        assert!(s.contains("[0]"), "Q{id} explain is empty:\n{s}");
    }
}

#[test]
fn xmark_join_queries_commit_to_the_dictionary_join() {
    // Q8 and Q9 equi-join person ids against buyer/item references: the
    // compiler recognises each join as nest(⋈), and both comparison
    // operands atomize attribute steps, i.e. `Dict` columns over the
    // document's attribute-value interner, which `radix_hash_join` joins
    // code to code
    let session = Arc::new(Database::new()).session();
    for id in [8, 9] {
        let s = session.explain(query_text(id)).unwrap();
        let lines: Vec<&str> = s.lines().collect();
        let indent = |l: &str| l.len() - l.trim_start().len();
        let joins: Vec<usize> = (0..lines.len())
            .filter(|&i| lines[i].contains("nest(⋈) {"))
            .collect();
        assert!(!joins.is_empty(), "Q{id} join not recognised:\n{s}");
        for i in joins {
            let child = indent(lines[i]) + 2;
            // the comparison operands are the third and fourth children
            let operands: Vec<usize> = (i + 1..lines.len())
                .take_while(|&j| indent(lines[j]) >= child)
                .filter(|&j| indent(lines[j]) == child)
                .skip(2)
                .take(2)
                .collect();
            assert_eq!(operands.len(), 2, "Q{id} join has no operands:\n{s}");
            for j in operands {
                assert!(
                    lines[j].contains("data {") && lines[j + 1].contains("attr {"),
                    "Q{id} join operand `{}` is not an atomized attribute step:\n{s}",
                    lines[j].trim()
                );
            }
        }
    }
}

#[test]
fn xmark_join_queries_count_proven_dict_joins() {
    let db = xmark_db();
    let mut session = db.session();
    for id in [8, 9] {
        let (_, report) = session.query_with_report(query_text(id)).unwrap();
        assert!(
            report.stats.proven_dict_joins >= 1,
            "Q{id} executed without a proven dictionary join"
        );
    }
}

#[test]
fn xmark_plans_show_property_driven_eliminations() {
    let session = Arc::new(Database::new()).session();
    // two distinct rewrite kinds across the workload: removed
    // document-order δs and count(⋈) fusions
    let mut docorder_eliminations = 0;
    let mut count_fusions = 0;
    for id in 1..=20 {
        let s = session.explain(query_text(id)).unwrap();
        if s.contains("removed docorder-δ") {
            docorder_eliminations += 1;
        }
        if s.contains("into count(⋈)") {
            count_fusions += 1;
        }
    }
    assert!(
        docorder_eliminations > 0,
        "no XMark plan had a redundant docorder-δ removed"
    );
    assert!(
        count_fusions > 0,
        "no XMark plan had a count fused over its join"
    );
}

#[test]
fn xmark_results_are_unchanged_under_runtime_validation() {
    let db = xmark_db();
    let mut session = db.session();
    let plain: Vec<String> = (1..=20)
        .map(|id| {
            session
                .query(query_text(id))
                .unwrap()
                .serialize()
                .to_string()
        })
        .collect();
    validate_plans();
    for (id, a) in (1..=20).zip(plain) {
        let b = session
            .query(query_text(id))
            .unwrap_or_else(|e| panic!("Q{id} violated an inferred property: {e}"))
            .serialize()
            .to_string();
        assert_eq!(a, b, "Q{id} diverges under validation");
    }
}

#[test]
fn xmark_counted_joins_fuse_into_count_join() {
    // Q8, Q11 and Q12 count the `for` variable of a recognised join per
    // person: the simplifier fuses the count into count(⋈) (Q12 once the ⋉
    // of its outer `where` is dropped); Q9 returns names and Q10 elements
    // from its joins, so those stay as they are
    let session = Arc::new(Database::new()).session();
    for id in [8, 11, 12] {
        let s = session.explain(query_text(id)).unwrap();
        assert!(
            s.contains("count(⋈)") && s.contains("fused agg(count)"),
            "Q{id} count not fused:\n{s}"
        );
        assert_eq!(s.contains("dropped ⋉"), id == 12, "Q{id}:\n{s}");
    }
    for id in [9, 10] {
        let s = session.explain(query_text(id)).unwrap();
        assert!(!s.contains("count(⋈)"), "Q{id} fused:\n{s}");
    }
}

#[test]
fn xmark_theta_join_counts_build_no_pairs() {
    // at sf 0.02 the pairs Q11 and Q12 used to build (≈ 8 k) outnumber
    // the persons and open auctions (750) together
    let db = Arc::new(Database::new());
    db.load_document("auction.xml", &generate_xml(&GenParams::with_factor(0.02)))
        .unwrap();
    let mut session = db.session();
    let mut count = |path: &str| -> u64 {
        let query = format!("count(doc(\"auction.xml\")/site/{path})");
        let result = session.query(&query).unwrap();
        result.serialize().parse().unwrap()
    };
    let persons = count("people/person");
    let bound = persons + count("open_auctions/open_auction");
    for id in [11, 12] {
        let (_, report) = session.query_with_report(query_text(id)).unwrap();
        // Q12's only comparison pairs are those of its outer `where`
        // (`cmp∃`, one per person's income)
        let pairs = if id == 11 { 0 } else { persons };
        assert!(
            report.stats.join_pairs <= pairs,
            "Q{id} built {} join pairs",
            report.stats.join_pairs
        );
        assert!(
            report.stats.peak_rows <= bound,
            "Q{id} materialized a {}-row table (bound {bound})",
            report.stats.peak_rows
        );
    }
}
