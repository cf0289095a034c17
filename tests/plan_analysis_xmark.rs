//! Static plan analysis over the XMark workload: the verifier accepts all
//! twenty query plans, the simplifier's eliminations show up in the
//! annotated `explain`, the recognised joins of Q8 and Q9 compare attribute
//! steps and run code-to-code, executing under runtime validation
//! changes no results, and no simplified plan holds two identical nodes.

use mxq::staircase::{Axis, NodeTest};
use mxq::xmark::gen::{generate_xml, GenParams};
use mxq::xmark::queries::query_text;
use mxq::xquery::algebra::Op;
use mxq::xquery::{Database, PlanRef};
use std::collections::{BTreeMap, HashMap};
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
fn xmark_explains_are_the_same_in_every_database() {
    // plan ids are handed out in compile order; a scope that re-bases its
    // visible variables must visit them in one order, or the ids of the
    // re-based nodes (and the rewrite log naming them) differ from one
    // compile to the next
    let xml = generate_xml(&GenParams::with_factor(0.001));
    let sessions: Vec<_> = (0..8)
        .map(|_| {
            let db = Arc::new(Database::new());
            db.load_document("auction.xml", &xml).unwrap();
            db.session()
        })
        .collect();
    for id in 1..=20 {
        let explains: Vec<String> = sessions
            .iter()
            .map(|s| s.explain(query_text(id)).unwrap())
            .collect();
        for e in &explains[1..] {
            assert_eq!(e, &explains[0], "Q{id} explains differ");
        }
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

/// Every node of the DAG under `root`, once, by ascending id.
fn plan_nodes(root: &PlanRef) -> Vec<PlanRef> {
    let mut seen = BTreeMap::new();
    let mut todo = vec![root.clone()];
    while let Some(p) = todo.pop() {
        if seen.insert(p.id, p.clone()).is_none() {
            todo.extend(p.children());
        }
    }
    seen.into_values().collect()
}

#[test]
fn xmark_plans_share_identical_nodes() {
    // the simplifier hash-conses the plan: outside element constructors
    // (each makes new nodes) and literals (each has its own plan-cache
    // slot), no two nodes agree on operator, fields and input ids, so the
    // executor's memo evaluates every sub-plan once
    let session = Arc::new(Database::new()).session();
    for id in 1..=20 {
        let plan = session.compile(query_text(id)).unwrap();
        let mut by_op: HashMap<&Op, usize> = HashMap::new();
        let nodes = plan_nodes(&plan);
        for node in &nodes {
            if matches!(node.op, Op::ElemCtor { .. } | Op::ConstSeq { .. }) {
                continue;
            }
            if let Some(first) = by_op.insert(&node.op, node.id) {
                panic!("Q{id}: [{first}] and [{}] are the same node", node.id);
            }
        }
    }
    // Q20's four counts read one `person/profile` step
    let plan = session.compile(query_text(20)).unwrap();
    let profile_steps = plan_nodes(&plan)
        .iter()
        .filter(|p| {
            matches!(&p.op, Op::AxisStep { axis: Axis::Child, test: NodeTest::Named(n), .. }
                if n.as_ref() == "profile")
        })
        .count();
    assert_eq!(profile_steps, 1, "{}", plan.explain());
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
