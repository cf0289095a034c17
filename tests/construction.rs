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

/// The serialization of `query` under the default configuration, after
/// checking that `ExecConfig::naive()` and the naive interpreter (which
/// builds its content without `append_content`) serialize the same.
fn agreed(query: &str) -> String {
    let db = database();
    let got = run_checked(&db, query);
    let naive = db
        .session_with_config(ExecConfig::naive())
        .query(query)
        .unwrap()
        .serialize()
        .to_string();
    assert_eq!(got, naive, "ExecConfig::naive() on {query}");
    let mut store = DocStore::new();
    store.load_xml("d.xml", DOC).unwrap();
    let snap = store.snapshot();
    let mut oracle = NaiveInterpreter::new(&snap);
    let items = oracle.run(query).unwrap();
    assert_eq!(
        got,
        oracle.serialize(&items),
        "naive interpreter on {query}"
    );
    got
}

/// Constructors nested over one loop are built inside their parent; the
/// cases pin the serializations of the materialize-and-copy build.
#[test]
fn nested_constructors_serialize_as_copies() {
    let cases = [
        // computed attributes and content at every level
        (
            r#"for $a in doc("d.xml")//a
               return <x n="{$a/@id}">{$a/@id}<y m="{$a//f[1]/text()}">{$a//f/text()}<z k="{count($a//f)}">{$a/f}</z></y>{"end"}</x>"#,
            "<x n=\"a1\">a1<y m=\"one\">one<z k=\"1\"><f>one</f></z></y>end</x><x n=\"a2\">a2<y m=\"two\">two<z k=\"2\"><f k=\"v\">two</f></z></y>end</x>",
        ),
        // a constructor under a different loop is materialized, then copied
        (
            r#"<x>{for $a in doc("d.xml")//a return <y i="{$a/@id}">{$a/f}</y>}</x>"#,
            "<x><y i=\"a1\"><f>one</f></y><y i=\"a2\"><f k=\"v\">two</f></y></x>",
        ),
        (
            r#"for $a in doc("d.xml")//a return <x>{for $f in $a//f return <y>{$f/text()}</y>}<z/></x>"#,
            "<x><y>one</y><z/></x><x><y>two</y><y/><z/></x>",
        ),
        // one constructor shared by two parents and returned itself
        (
            r#"let $c := <c k="{1 + 1}">{doc("d.xml")//f[1]/text()}</c> return (<a>{$c}</a>, <b>{$c}{$c}</b>, $c)"#,
            "<a><c k=\"2\">onetwo</c></a><b><c k=\"2\">onetwo</c><c k=\"2\">onetwo</c></b><c k=\"2\">onetwo</c>",
        ),
        (
            r#"for $a in doc("d.xml")//a let $c := <c>{$a/@id}</c> return <p>{$c}<q>{$c}</q></p>"#,
            "<p><c>a1</c><q><c>a1</c></q></p><p><c>a2</c><q><c>a2</c></q></p>",
        ),
        // node identity inside constructed content
        (
            r#"let $x := <x><y><w/></y><z/></x>
               return ($x/y << $x/z, $x/z << $x/y, $x/y/w << $x/z, $x/y is $x/y, $x/y is $x/z, ($x//w)[1] is $x/y/w)"#,
            "true false true true false true",
        ),
        (
            r#"let $c := <c/> let $p := <p>{$c}</p> return ($p/c is $c, $p/c is $p/c, count($p/c))"#,
            "false true 1",
        ),
    ];
    for (query, want) in cases {
        assert_eq!(agreed(query), want, "{query}");
    }
}

/// Adjacent atomics merge into one text node, separated by single spaces;
/// an empty string adds no separator before the next value.
#[test]
fn content_adjacency_rules() {
    let cases = [
        (r#"<a>{"x"}{"y"}</a>"#, "<a>x y</a>"),
        (r#"<a>{""}{"y"}</a>"#, "<a>y</a>"),
        (r#"<a>{"x"}{""}</a>"#, "<a>x </a>"),
        (r#"string-length(<a>{"x"}{""}</a>)"#, "2"),
        (r#"<a>{"x"}<b/>{"y"}</a>"#, "<a>x<b/>y</a>"),
        (r#"<a>{1}{"x"}</a>"#, "<a>1 x</a>"),
        (r#"<a>{""}</a>"#, "<a/>"),
        (r#"count(<a>{""}</a>/node())"#, "0"),
        (
            r#"<a>{doc("d.xml")//f[1]/text()}{"x"}</a>"#,
            "<a>onetwox</a>",
        ),
        (
            r#"<a>{"x"}{doc("d.xml")//f[1]/text()}{2}</a>"#,
            "<a>xonetwo2</a>",
        ),
        (
            r#"count(<a>{"x"}{doc("d.xml")//f[1]/text()}</a>/text())"#,
            "3",
        ),
        (
            r#"for $i in (1, 2) return <a>{$i}{"x"}</a>"#,
            "<a>1 x</a><a>2 x</a>",
        ),
    ];
    for (query, want) in cases {
        assert_eq!(agreed(query), want, "{query}");
    }
}

/// Two constructors of one statement build in two sessions, the second's
/// tag and attribute name sorting before the first's: the second session
/// gives them the next codes and copies the first's elements unchanged.
#[test]
fn a_later_constructor_whose_tag_sorts_first() {
    let query = r#"let $z := for $f in doc("d.xml")//f return <z k="{$f/text()}">{$f/text()}</z> return <a b="{count($z)}">{$z}</a>"#;
    assert_eq!(
        agreed(query),
        "<a b=\"3\"><z k=\"one\">one</z><z k=\"two\">two</z><z k=\"\"/></a>"
    );
}

/// Equal constructors are two constructors: sharing identical plan nodes
/// never merges them, whatever the configuration.
#[test]
fn equal_constructors_make_distinct_nodes() {
    let cases = [
        ("let $x := <a/> let $y := <a/> return $x is $y", "false"),
        ("count((<a/>, <a/>)/self::a)", "2"),
        (
            "for $i in (1, 2) return (<b>{$i}</b> is <b>{$i}</b>)",
            "false false",
        ),
        (
            "let $x := <a><c/></a> let $y := <a><c/></a> return count(($x, $y)/c)",
            "2",
        ),
        // of two distinct nodes exactly one comes first
        (
            "let $x := <a/> let $y := <a/> return (($x << $y) or ($y << $x), $x << $x)",
            "true false",
        ),
    ];
    for (query, want) in cases {
        assert_eq!(agreed(query), want, "{query}");
    }
}

/// A build session leaves its chunks' name indexes for the first named
/// read to build: a named step into constructed content answers right,
/// also one whose context subtrees cross a chunk boundary of the
/// transient (2 801 rows, `<g>` subtrees of four rows, one of them on
/// rows 1021–1024).
#[test]
fn named_steps_into_constructed_content() {
    let cases = [
        ("let $x := <a><b/><c/><b/></a> return count($x/b)", "2"),
        (
            "let $x := <a><b/><c/><b/></a> return ($x/b, $x//c)",
            "<b/><b/><c/>",
        ),
        (
            r#"let $t := (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
               let $x := <a>{for $i in $t, $j in $t, $k in (1, 2, 3, 4, 5, 6, 7)
                             return <g><f>{($i - 1) * 70 + ($j - 1) * 7 + $k}</f><e/></g>}</a>
               return (count($x/g/f), count($x//f), sum(for $g in $x/g return count($g/f)),
                       string($x/g[256]/f), string($x/g[700]/f))"#,
            "700 700 700 256 700",
        ),
    ];
    for (query, want) in cases {
        assert_eq!(agreed(query), want, "{query}");
    }
}
