//! Query-level differential tests for the join-recognised existential
//! comparison (`for … for … where L op R`, Section 4.2): the sort-merge
//! theta join with min/max push-down (`ExecConfig::default()`), the
//! join-then-δ ablation (`existential_minmax: false`), the fully naive
//! relational configuration and the DOM-walking `NaiveInterpreter` must
//! agree on operands that are multi-valued on both sides, empty,
//! non-numeric (`"abc" > 5` matches nothing) and NaN; the fused
//! `count(⋈)` (by rank or over the pairs) must agree with them too — and a
//! constructor whose content is itself a constructed subtree, three levels
//! deep, must copy within the transient container correctly.
//!
//! CI also runs this file under `MXQ_VALIDATE_PLANS=1`.

use std::sync::Arc;

use mxq::xmark::naive::NaiveInterpreter;
use mxq::xmldb::DocStore;
use mxq::xquery::{Database, ExecConfig};

/// People with untyped `inc` values and offers with untyped `amt` values:
/// multi-valued (`p1`: string order "10" < "9" inverts numeric order),
/// non-numeric (`p2`), empty (`p3`, `o3`), mixed (`p4`, `o4`), NaN (`p5`,
/// `o7`) and zero (`p6`, `o6`: negated on one side it is `-0`).
const DOC: &str = r#"<db>
  <people>
    <p id="p1"><inc>10</inc><inc>9</inc></p>
    <p id="p2"><inc>abc</inc></p>
    <p id="p3"/>
    <p id="p4"><inc>3</inc><inc>abc</inc><inc>20</inc></p>
    <p id="p5"><inc>NaN</inc></p>
    <p id="p6"><inc>0</inc></p>
  </people>
  <offers>
    <o id="o1"><amt>9.5</amt><amt>2</amt></o>
    <o id="o2"><amt>100</amt></o>
    <o id="o3"/>
    <o id="o4"><amt>x</amt><amt>15</amt></o>
    <o id="o5"><amt>9</amt><amt>9</amt></o>
    <o id="o6"><amt>0</amt></o>
    <o id="o7"><amt>NaN</amt></o>
  </offers>
</db>"#;

/// `=` takes the radix hash join, the other five the theta join.
const OPS: [&str; 6] = ["=", "!=", "<", "<=", ">", ">="];

fn configs() -> [(&'static str, ExecConfig); 3] {
    [
        ("default", ExecConfig::default()),
        (
            "join-then-δ",
            ExecConfig {
                existential_minmax: false,
                ..ExecConfig::default()
            },
        ),
        ("naive config", ExecConfig::naive()),
    ]
}

fn database() -> Arc<Database> {
    let db = Arc::new(Database::new());
    db.load_document("t.xml", DOC).unwrap();
    db
}

fn naive_result(query: &str) -> String {
    let mut store = DocStore::new();
    store.load_xml("t.xml", DOC).unwrap();
    let snap = store.snapshot();
    let mut naive = NaiveInterpreter::new(&snap);
    let items = naive.run(query).expect("naive evaluation");
    naive.serialize(&items)
}

/// Run `query` under every relational configuration and the interpreter,
/// assert they agree, and return the common result.
fn agreed_result(query: &str) -> String {
    let db = database();
    let expected = naive_result(query);
    for (name, config) in configs() {
        let got = db
            .session_with_config(config)
            .query(query)
            .unwrap_or_else(|e| panic!("`{query}` failed under {name}: {e}"))
            .serialize()
            .to_string();
        assert_eq!(
            got, expected,
            "`{query}` under {name} differs from the interpreter"
        );
    }
    expected
}

/// The (person, offer) pairs whose `left op right` holds existentially.
fn pairs_query(left: &str, op: &str, right: &str) -> String {
    format!(
        "for $p in doc(\"t.xml\")/db/people/p \
         for $o in doc(\"t.xml\")/db/offers/o \
         where {left} {op} {right} \
         return concat(string($p/@id), \"-\", string($o/@id))"
    )
}

/// `amt` values cast one by one: a multi-valued typed (double) operand.
const TYPED_AMT: &str = "(for $a in $o/amt return number($a))";
const TYPED_INC: &str = "(for $i in $p/inc return number($i))";

#[test]
fn the_tested_queries_are_join_recognised() {
    let db = database();
    for (left, right) in [("$p/inc", "$o/amt"), ("$p/inc", TYPED_AMT)] {
        let plan = db
            .session()
            .explain(&pairs_query(left, "<", right))
            .unwrap();
        assert!(plan.contains("nest(⋈)"), "not join-recognised:\n{plan}");
    }
}

#[test]
fn untyped_operands_compare_as_strings_for_every_operator() {
    for op in OPS {
        agreed_result(&pairs_query("$p/inc", op, "$o/amt"));
    }
    // "9" > "100" and "9" > "15" as strings; nothing is greater than "x"
    let greater = agreed_result(&pairs_query("$p/inc", ">", "$o/amt"));
    assert!(greater.contains("p1-o2") && greater.contains("p1-o4"));
    assert!(greater.contains("p2-o1"), "\"abc\" > \"9.5\" as strings");
    assert!(!greater.contains("p3") && !greater.contains("o3"));
}

#[test]
fn untyped_against_typed_operands_compare_numerically() {
    for op in OPS {
        agreed_result(&pairs_query("$p/inc", op, TYPED_AMT));
        agreed_result(&pairs_query(TYPED_INC, op, "$o/amt"));
        agreed_result(&pairs_query(TYPED_INC, op, TYPED_AMT));
    }
    let greater = agreed_result(&pairs_query("$p/inc", ">", TYPED_AMT));
    // the numeric maximum of ("10", "9") is 10 although "9" is the string
    // maximum: 10 > 9.5 must be found
    assert!(greater.contains("p1-o1"), "{greater}");
    // 20 > 15 although "abc" sorts after "20"
    assert!(greater.contains("p4-o4"), "{greater}");
    // "abc" > 5 matches nothing, NaN matches nothing, empty matches nothing
    for absent in ["p2", "p3", "p5", "o3"] {
        assert!(!greater.contains(absent), "{absent} in {greater}");
    }
    assert!(!greater.contains("o2"), "nothing exceeds 100: {greater}");
}

#[test]
fn equality_on_doubles_knows_nan_and_signed_zero() {
    let equal = agreed_result(&pairs_query(TYPED_INC, "=", TYPED_AMT));
    assert!(
        equal.contains("p6-o6") && equal.contains("p1-o5"),
        "{equal}"
    );
    assert!(
        !equal.contains("p5") && !equal.contains("o7"),
        "NaN = NaN is false: {equal}"
    );
    // -0 on the left (0 * -1), +0 on the right
    let negated = "(for $i in $p/inc return number($i) * -1)";
    let equal = agreed_result(&pairs_query(negated, "=", TYPED_AMT));
    assert_eq!(
        equal, "p6-o6",
        "-0 = +0, and nothing else is its own negation"
    );
    // two untyped "NaN" are equal — as strings
    let untyped = agreed_result(&pairs_query("$p/inc", "=", "$o/amt"));
    assert!(untyped.contains("p5-o7"), "{untyped}");
}

#[test]
fn not_equal_needs_one_differing_pair() {
    let differing = agreed_result(&pairs_query(TYPED_INC, "!=", TYPED_AMT));
    // (10, 9) != (9, 9): 10 differs although max(l) = … = 9 on the right
    assert!(differing.contains("p1-o5"), "{differing}");
    assert!(!differing.contains("p5"), "NaN != x is false here");
}

/// The three operand typings of a join: untyped against untyped compares
/// as strings, untyped against typed and typed against typed numerically.
/// A multi-valued untyped group keeps two min/max candidates (its string
/// and its numeric extreme), so `count(⋈)` counts the pairs there; typed
/// groups keep one candidate, so it counts by rank.
const TYPINGS: [(&str, &str); 3] = [
    ("$p/inc", "$o/amt"),
    ("$p/inc", TYPED_AMT),
    (TYPED_INC, TYPED_AMT),
];

#[test]
fn let_bound_join_counts_agree() {
    // the Q11/Q12 shapes: a let-bound join-recognised FLWOR, then count
    let db = database();
    let people = "for $p in doc(\"t.xml\")/db/people/p";
    let person = "<r id=\"{$p/@id}\">";
    for (typing, (left, right)) in TYPINGS.into_iter().enumerate() {
        for op in OPS {
            let join = format!("for $o in doc(\"t.xml\")/db/offers/o where {left} {op} {right}");
            // count of the `for` variable: fused into count(⋈)
            let q11 =
                format!("{people} let $l := {join} return $o return {person}{{count($l)}}</r>");
            let q12 = format!(
                "{people} let $l := {join} return $o where $p/inc > 5 \
                 return {person}{{count($l)}}</r>"
            );
            // sum, and a body other than the variable: not fused
            let q12_sum = format!(
                "{people} let $l := {join} return count($o/amt) where $p/inc > 5 \
                 return {person}{{sum($l)}}</r>"
            );
            let amounts =
                format!("{people} let $l := {join} return $o/amt return {person}{{count($l)}}</r>");
            for (query, fused) in [
                (&q11, true),
                (&q12, true),
                (&q12_sum, false),
                (&amounts, false),
            ] {
                agreed_result(query);
                let plan = db.session().explain(query).unwrap();
                assert_eq!(plan.contains("count(⋈)"), fused, "`{query}`:\n{plan}");
            }
            // typed operands with a θ-operator count by rank: no pair built
            let (_, report) = db.session().query_with_report(&q11).unwrap();
            let by_rank = typing == 2 && !matches!(op, "=" | "!=");
            assert_eq!(
                report.stats.join_pairs == 0,
                by_rank,
                "`{q11}` built {} pairs",
                report.stats.join_pairs
            );
        }
    }
}

#[test]
fn constructed_subtrees_nest_three_levels() {
    // every constructor copies the subtree its content constructed before
    // it (same transient container), at three nesting depths, next to
    // copies from the loaded document and atomic content
    let result = agreed_result(
        "for $p in doc(\"t.xml\")/db/people/p \
         let $inner := <inner n=\"{count($p/inc)}\">{$p/inc}</inner> \
         let $mid := <mid>{$inner}<sep/>{$inner}</mid> \
         return <outer id=\"{$p/@id}\">{$mid}{string($p/@id)}{$mid/inner[1]}</outer>",
    );
    assert!(
        result.starts_with(
            "<outer id=\"p1\"><mid><inner n=\"2\"><inc>10</inc><inc>9</inc></inner><sep/>\
             <inner n=\"2\"><inc>10</inc><inc>9</inc></inner></mid>p1\
             <inner n=\"2\"><inc>10</inc><inc>9</inc></inner></outer>"
        ),
        "{result}"
    );
    assert!(result.contains("<outer id=\"p3\"><mid><inner n=\"0\"/><sep/><inner n=\"0\"/></mid>p3<inner n=\"0\"/></outer>"));
}
