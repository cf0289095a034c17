//! Element construction differential suite.  Randomly nested constructors
//! (depth 1–4) take their attributes from stored text, from attribute
//! values and from atomics, and their content from stored subtrees,
//! constructed nodes, comments and processing instructions, document
//! nodes, atomics and empty sequences.  For every constructor:
//!
//! * the default configuration, `ExecConfig::naive()` and the naive
//!   interpreter serialize the same result;
//! * the transient container the execution built passes its structural
//!   invariants;
//! * steps over the constructed content (`$e//f`, `$e/f/text()`) agree as
//!   well, so the name index of the transient container stays correct
//!   under the range copy (the default configuration answers named steps
//!   from that index, the naive one scans).

use std::sync::Arc;

use proptest::prelude::*;

use mxq::xmark::naive::NaiveInterpreter;
use mxq::xmldb::DocStore;
use mxq::xquery::{serialize_items_snapshot, Database, ExecConfig, Executor, Params};

/// The stored document: nested elements with attributes, text, a comment
/// and a processing instruction.
const DOC: &str = r#"<r><a id="a1">x<f>one</f></a><a id="a2"><!--note--><?pi data?>z<f k="v">two</f><g><f/></g></a><e/></r>"#;

/// One enclosed content expression, or a directly nested constructor.
fn arb_content() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        // stored subtrees and texts
        r#"doc("d.xml")//a[1]"#,
        r#"doc("d.xml")//f"#,
        r#"doc("d.xml")//f/text()"#,
        // stored comment, PI and texts, in document order
        r#"doc("d.xml")//a[2]/node()"#,
        // a document node contributes its children
        r#"doc("d.xml")"#,
        // adjacent atomics merge into one text node
        r#"1, "two", 3"#,
        r#"doc("d.xml")//a/@id"#,
        "()",
        // constructed nodes, copied within the transient container
        "<f>t</f>",
        "let $x := <g><f>u</f></g> return ($x, $x/f)",
    ])
    .prop_map(|s| s.to_string())
}

/// One attribute value.
fn arb_attr_value() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        // a stored text node
        "{doc('d.xml')//f/text()}",
        // an attribute value
        "{doc('d.xml')//a/@id}",
        // atomics
        "{1 + 2}",
        "lit",
        "{()}",
    ])
    .prop_map(|s| s.to_string())
}

fn render(name: &str, attrs: &[String], content: &[String]) -> String {
    let attrs: String = attrs
        .iter()
        .enumerate()
        .map(|(i, v)| format!(" k{i}=\"{v}\""))
        .collect();
    let content: String = content
        .iter()
        .map(|c| {
            if c.starts_with('<') {
                c.clone()
            } else {
                format!("{{{c}}}")
            }
        })
        .collect();
    format!("<{name}{attrs}>{content}</{name}>")
}

/// A constructor named `e`, `f` or `g` with up to two attributes, nested
/// up to four deep.
fn arb_ctor() -> impl Strategy<Value = String> {
    let names = || prop::sample::select(vec!["e", "f", "g"]);
    let attrs = || prop::collection::vec(arb_attr_value(), 0..3);
    let leaf = (names(), attrs(), prop::collection::vec(arb_content(), 0..3))
        .prop_map(|(name, attrs, content)| render(name, &attrs, &content));
    leaf.prop_recursive(3, 32, 3, move |inner| {
        let part = prop_oneof![inner, arb_content()];
        (names(), attrs(), prop::collection::vec(part, 1..4))
            .prop_map(|(name, attrs, content)| render(name, &attrs, &content))
    })
}

fn database() -> Arc<Database> {
    let db = Arc::new(Database::new());
    db.load_document("d.xml", DOC).unwrap();
    db
}

/// Serialize `query` under the default configuration, checking the
/// structural invariants of the transient container it built.
fn run_checked(db: &Arc<Database>, query: &str) -> String {
    let plan = db
        .session()
        .compile(query)
        .unwrap_or_else(|e| panic!("{query}: {e}"));
    let snap = db.snapshot();
    let mut exec = Executor::with_params(&snap, ExecConfig::default(), Params::new());
    let items = exec.eval_result(&plan).unwrap();
    let (transient, stats) = exec.finish();
    transient
        .check_invariants()
        .unwrap_or_else(|e| panic!("{query}: {e}"));
    assert!(stats.copied_nodes <= transient.len() as u64, "{query}");
    serialize_items_snapshot(&snap, &transient, &items)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn constructors_agree_across_engines(ctor in arb_ctor()) {
        let db = database();
        let mut naive_session = db.session_with_config(ExecConfig::naive());
        let mut store = DocStore::new();
        store.load_xml("d.xml", DOC).unwrap();
        let snap = store.snapshot();
        let mut oracle = NaiveInterpreter::new(&snap);
        for query in [
            ctor.clone(),
            format!("let $e := {ctor} return ($e//f, count($e//node()))"),
            format!("let $e := {ctor} return $e/f/text()"),
            format!("<w>{{let $e := {ctor} return ($e, $e//f)}}</w>"),
        ] {
            let got = run_checked(&db, &query);
            let naive = naive_session.query(&query).unwrap().serialize().to_string();
            prop_assert_eq!(&got, &naive, "ExecConfig::naive() on {}", query);
            let items = oracle.run(&query).unwrap();
            prop_assert_eq!(&got, &oracle.serialize(&items), "naive interpreter on {}", query);
        }
    }
}
