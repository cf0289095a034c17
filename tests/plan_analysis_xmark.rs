//! Static plan analysis over the XMark workload: the verifier accepts all
//! twenty query plans, the simplifier's eliminations and the statically
//! proven code-to-code joins show up in the annotated `explain`, and
//! executing under runtime validation changes no results.

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
    // Q8 and Q9 equi-join person ids against buyer/item references; both
    // sides read codes of the document's attribute-value dictionary, so the
    // analyser proves the code-to-code path statically (Q10 feeds one side
    // through distinct-values and Q11/Q12 are theta joins, so they cannot
    // commit)
    let session = Arc::new(Database::new()).session();
    for id in [8, 9] {
        let s = session.explain(query_text(id)).unwrap();
        assert!(
            s.contains("code=code"),
            "Q{id} join not statically committed:\n{s}"
        );
    }
}

#[test]
fn xmark_plans_show_property_driven_eliminations() {
    let session = Arc::new(Database::new()).session();
    // two distinct rewrite kinds across the workload: removed
    // document-order δs and statically committed dictionary joins
    let mut docorder_eliminations = 0;
    let mut join_commitments = 0;
    for id in 1..=20 {
        let s = session.explain(query_text(id)).unwrap();
        if s.contains("removed docorder-δ") {
            docorder_eliminations += 1;
        }
        if s.contains("committed nest(⋈)") {
            join_commitments += 1;
        }
    }
    assert!(
        docorder_eliminations > 0,
        "no XMark plan had a redundant docorder-δ removed"
    );
    assert!(
        join_commitments > 0,
        "no XMark plan had its join statically committed"
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
