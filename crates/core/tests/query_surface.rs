//! Behavioural tests of the XQuery surface: one small document, many
//! queries, exact expected serializations.  These pin down the semantics the
//! compiler + executor implement (sequence order, existential comparisons,
//! effective boolean values, constructors, axes, functions).

use mxq_xquery::{Database, Error, ExecConfig, Session};
use std::sync::Arc;

const DOC: &str = r#"<shop>
  <staff><employee id="e1" dept="sales"><name>Ann</name><salary>50000</salary></employee>
         <employee id="e2" dept="it"><name>Bob</name><salary>65000</salary></employee>
         <employee id="e3" dept="sales"><name>Cyd</name></employee></staff>
  <sales><sale by="e1" amount="120"/><sale by="e1" amount="80"/><sale by="e3" amount="200"/></sales>
  <note lang="en">year <b>2006</b> report</note>
</shop>"#;

fn engine() -> Session {
    let db = Arc::new(Database::new());
    db.load_document("shop.xml", DOC).unwrap();
    db.session()
}

fn run(q: &str) -> String {
    engine().query(q).unwrap().serialize().to_string()
}

#[test]
fn sequence_and_arithmetic_semantics() {
    assert_eq!(run("(1, (2, 3), ())"), "1 2 3");
    assert_eq!(run("2 + 3 * 4 - 1"), "13");
    assert_eq!(run("(7 idiv 2, 7 mod 2, -3)"), "3 1 -3");
    assert_eq!(run("1.5 * 2"), "3");
    assert_eq!(run("if (()) then 1 else 2"), "2");
    assert_eq!(run("if ((0)) then 1 else 2"), "2");
    assert_eq!(run("if (\"x\") then 1 else 2"), "1");
}

#[test]
fn path_navigation_and_axes() {
    assert_eq!(run("count(doc(\"shop.xml\")//employee)"), "3");
    assert_eq!(
        run("doc(\"shop.xml\")/shop/staff/employee[2]/name/text()"),
        "Bob"
    );
    assert_eq!(
        run("doc(\"shop.xml\")//employee[@id = \"e3\"]/name/text()"),
        "Cyd"
    );
    assert_eq!(
        run("for $n in doc(\"shop.xml\")//name return $n/parent::employee/@id"),
        "e1 e2 e3"
    );
    assert_eq!(
        run("count(doc(\"shop.xml\")//name/ancestor::*)"),
        // ancestors of the three name elements, duplicate-free within the
        // single iteration: employee×3, staff, shop
        "5"
    );
    assert_eq!(
        run("doc(\"shop.xml\")//employee[1]/following-sibling::employee[1]/name/text()"),
        "Bob"
    );
    // 16 elements + 8 text nodes below the document node
    assert_eq!(run("count(doc(\"shop.xml\")//node())"), "24");
    assert_eq!(
        run("doc(\"shop.xml\")/shop/note/b/preceding-sibling::text()"),
        "year "
    );
}

#[test]
fn filter_expression_positional_predicates() {
    // positions in a filter expression are relative to the whole sequence,
    // not to a per-context-node group (the path-step normalisation)
    assert_eq!(run("(3, 1, 2)[2]"), "1");
    assert_eq!(run("(3, 1, 2)[last()]"), "2");
    assert_eq!(run("(3, 1, 2)[position() = 1]"), "3");
    assert_eq!(run("(doc(\"shop.xml\")//employee/@id)[2]"), "e2");
    assert_eq!(
        run("let $s := doc(\"shop.xml\")//employee/@id return $s[2]"),
        "e2"
    );
    // filter then continue the path
    assert_eq!(run("(doc(\"shop.xml\")//employee)[2]/name/text()"), "Bob");
    // stacked predicates: general filter first, then positional
    assert_eq!(
        run("(doc(\"shop.xml\")//employee)[@dept = \"sales\"][2]/@id"),
        "e3"
    );
    // non-positional filters keep sequence order and duplicates
    assert_eq!(
        run("(doc(\"shop.xml\")//employee)[@dept = \"sales\"]/@id"),
        "e1 e3"
    );
    // per-iteration positions: a for-bound singleton is its own sequence
    assert_eq!(
        run("for $e in doc(\"shop.xml\")//employee return $e[1]/@id"),
        "e1 e2 e3"
    );
    assert_eq!(
        run("for $e in doc(\"shop.xml\")//employee return $e[2]/@id"),
        ""
    );
    // a let-bound sequence filtered inside each iteration of an outer loop
    assert_eq!(
        run("for $st in doc(\"shop.xml\")//staff \
             let $e := $st/employee return $e[2]/@id"),
        "e2"
    );
    // filters on atomics must not re-sort: the sequence order survives
    assert_eq!(run("(9, 4, 7)[. > 3]"), "9 4 7");
}

#[test]
fn numeric_predicates_select_by_position() {
    // a predicate whose value is one number keeps the candidate at that
    // position, however the number is written — not only the literal `[N]`
    // (which EBV would otherwise make true for every non-zero number)
    let db = Arc::new(Database::new());
    db.load_document("abc.xml", "<a><b>1</b><b>2</b><b>3</b></a>")
        .unwrap();
    let mut s = db.session();
    let mut run = |q: &str| s.query(q).unwrap().serialize().to_string();
    for q in [
        "for $i in (2) return doc(\"abc.xml\")/a/b[$i]",
        "declare variable $i external := 2; doc(\"abc.xml\")/a/b[$i]",
        "doc(\"abc.xml\")/a/b[1 + 1]",
        "doc(\"abc.xml\")/a/b[2.0]",
        "doc(\"abc.xml\")/a/b[2]",
        "doc(\"abc.xml\")/a/b[position() = 2]",
    ] {
        assert_eq!(run(q), "<b>2</b>", "{q}");
    }
    assert_eq!(run("doc(\"abc.xml\")/a/b[2.5]"), "");
    assert_eq!(
        run("for $i in (3, 1) return doc(\"abc.xml\")/a/b[$i]/text()"),
        "31"
    );
    // filter expressions: positions over the whole sequence
    assert_eq!(run("for $i in (1, 3) return (10, 20, 30)[$i]"), "10 30");
    assert_eq!(
        run("declare variable $i external := 2; (10, 20, 30)[$i]"),
        "20"
    );
    assert_eq!(run("(10, 20, 30)[4 - 1]"), "30");
    assert_eq!(run("(10, 20, 30)[.]"), "", "no item equals its position");
    // non-numeric predicate values still decide by their EBV
    assert_eq!(run("doc(\"abc.xml\")/a/b[\"x\"]/text()"), "123");
    assert_eq!(run("doc(\"abc.xml\")/a/b[. = \"2\"]"), "<b>2</b>");
    assert_eq!(run("doc(\"abc.xml\")/a/b[text()]/text()"), "123");
    // a prepared statement binds the position per execution
    let stmt = s
        .prepare("declare variable $pos external; doc(\"abc.xml\")/a/b[$pos]/text()")
        .unwrap();
    for (pos, want) in [(3, "3"), (1, "1"), (4, "")] {
        assert_eq!(stmt.bind("pos", pos).query().unwrap().serialize(), want);
    }
}

#[test]
fn general_comparisons_are_existential() {
    // any sale amount over 150?
    assert_eq!(run("doc(\"shop.xml\")//sale/@amount > 150"), "true");
    // all comparisons against the empty sequence are false
    assert_eq!(run("doc(\"shop.xml\")//missing = 1"), "false");
    // string vs number promotion on untyped attribute values
    assert_eq!(run("doc(\"shop.xml\")//employee/@dept = \"it\""), "true");
    assert_eq!(run("doc(\"shop.xml\")//salary/text() = 50000"), "true");
    // value comparison on singletons
    assert_eq!(run("\"abc\" lt \"abd\""), "true");
}

#[test]
fn general_comparisons_on_sequences() {
    // sequence vs sequence: true iff ANY pair compares true
    assert_eq!(run("(1, 2, 3) = (3, 4)"), "true");
    assert_eq!(run("(1, 2, 3) = (4, 5)"), "false");
    assert_eq!(run("(1, 2) < (2, 0)"), "true");
    assert_eq!(run("(5, 6) < (1, 2)"), "false");
    assert_eq!(run("(1, 2) > (5, 6)"), "false");
    // `!=` is existential too: some pair differs, even though both
    // sequences are equal as sequences
    assert_eq!(run("(1, 2) != (1, 2)"), "true");
    // string sequences compare lexicographically, existentially
    assert_eq!(run("(\"a\", \"b\") = \"b\""), "true");
    assert_eq!(run("(\"a\", \"b\") < (\"aa\")"), "true");
    // empty sequence on either side is always false, for every operator
    assert_eq!(run("() = ()"), "false");
    assert_eq!(run("(1, 2) <= ()"), "false");
    // node sequences from the document: any @by matching any @id?
    assert_eq!(
        run("doc(\"shop.xml\")//sale/@by = doc(\"shop.xml\")//employee/@id"),
        "true"
    );
    assert_eq!(
        run("doc(\"shop.xml\")//sale/@by = (\"e2\", \"e9\")"),
        "false"
    );
    // numeric promotion across a whole sequence of untyped attribute values
    assert_eq!(run("doc(\"shop.xml\")//sale/@amount = (80, 999)"), "true");
}

#[test]
fn flwor_where_order_let_and_joins() {
    assert_eq!(
        run("for $e in doc(\"shop.xml\")//employee \
             where exists($e/salary) \
             order by $e/salary/text() descending \
             return $e/name/text()"),
        "BobAnn"
    );
    assert_eq!(
        run("for $e at $i in doc(\"shop.xml\")//employee return concat($i, \":\", $e/@id)"),
        "1:e1 2:e2 3:e3"
    );
    // a value join: total sales per employee
    assert_eq!(
        run("for $e in doc(\"shop.xml\")//employee \
             let $s := for $x in doc(\"shop.xml\")//sale where $x/@by = $e/@id return $x \
             return <t who=\"{$e/name/text()}\">{sum(for $x in $s return number($x/@amount))}</t>"),
        "<t who=\"Ann\">200</t><t who=\"Bob\">0</t><t who=\"Cyd\">200</t>"
    );
}

#[test]
fn order_by_with_multiple_keys() {
    // string major key, string minor key with its own direction: dept
    // ascending groups (it, sales), ids descending inside each group
    assert_eq!(
        run("for $e in doc(\"shop.xml\")//employee \
             order by $e/@dept, $e/@id descending \
             return $e/@id"),
        "e2 e3 e1"
    );
    // string + numeric key mix: group sales by seller (string), amounts
    // numerically descending within each seller
    assert_eq!(
        run("for $s in doc(\"shop.xml\")//sale \
             order by $s/@by, number($s/@amount) descending \
             return $s/@amount"),
        "120 80 200"
    );
    assert_eq!(
        run("for $s in doc(\"shop.xml\")//sale \
             order by $s/@by, number($s/@amount) \
             return $s/@amount"),
        "80 120 200"
    );
    // three keys; the major key has one group so the second decides, the
    // third breaks the remaining tie
    assert_eq!(
        run("for $s in doc(\"shop.xml\")//sale \
             order by \"all\", $s/@by descending, number($s/@amount) \
             return $s/@amount"),
        "200 80 120"
    );
    // multi-key ordering through the join-recognised FLWOR shape
    assert_eq!(
        run("for $s in doc(\"shop.xml\")//sale \
             where $s/@by = doc(\"shop.xml\")//employee/@id \
             order by $s/@by descending, number($s/@amount) \
             return $s/@amount"),
        "200 80 120"
    );
}

#[test]
fn functions_and_aggregates() {
    assert_eq!(run("sum(doc(\"shop.xml\")//sale/@amount)"), "400");
    assert_eq!(run("max(doc(\"shop.xml\")//sale/@amount)"), "200");
    assert_eq!(run("min(doc(\"shop.xml\")//salary/text())"), "50000");
    assert_eq!(
        run("count(distinct-values(doc(\"shop.xml\")//employee/@dept))"),
        "2"
    );
    assert_eq!(
        run("string(doc(\"shop.xml\")/shop/note)"),
        "year 2006 report"
    );
    assert_eq!(
        run("contains(string(doc(\"shop.xml\")/shop/note), \"2006\")"),
        "true"
    );
    assert_eq!(
        run("string-join(doc(\"shop.xml\")//name/text(), \", \")"),
        "Ann, Bob, Cyd"
    );
    assert_eq!(run("normalize-space(\"  a   b \")"), "a b");
    assert_eq!(
        run("(floor(2.7), ceiling(2.1), round(2.5), abs(-3))"),
        "2 3 3 3"
    );
    assert_eq!(run("substring(\"staircase\", 6)"), "case");
    assert_eq!(run("substring(\"staircase\", 1, 5)"), "stair");
    assert_eq!(run("translate(\"abcabc\", \"ab\", \"xy\")"), "xycxyc");
    assert_eq!(run("upper-case(\"MonetDB/xquery\")"), "MONETDB/XQUERY");
    assert_eq!(run("name(doc(\"shop.xml\")/shop/staff)"), "staff");
    assert_eq!(run("empty(doc(\"shop.xml\")//cafeteria)"), "true");
    assert_eq!(run("not(doc(\"shop.xml\")//employee)"), "false");
    assert_eq!(run("subsequence((1,2,3,4,5), 2, 3)"), "2 3 4");
}

#[test]
fn constructors_nest_and_copy() {
    assert_eq!(
        run("<wrap n=\"{count(doc(\"shop.xml\")//employee)}\"><inner/>{doc(\"shop.xml\")/shop/note/b}</wrap>"),
        "<wrap n=\"3\"><inner/><b>2006</b></wrap>"
    );
    // adjacent atomics in content are space separated, nodes are deep copied
    assert_eq!(run("<s>{1, 2, \"x\"}</s>"), "<s>1 2 x</s>");
}

#[test]
fn document_node_in_element_content_contributes_its_children() {
    let db = Arc::new(Database::new());
    db.load_document("d.xml", "<r><x>1</x><!--c--></r>")
        .unwrap();
    for config in [ExecConfig::default(), ExecConfig::naive()] {
        let mut session = db.session_with_config(config);
        assert_eq!(
            session
                .query("<w>{doc(\"d.xml\")}</w>")
                .unwrap()
                .serialize(),
            "<w><r><x>1</x><!--c--></r></w>"
        );
        assert_eq!(
            session
                .query("let $w := <w>{doc(\"d.xml\"), 2}</w> return count($w/r)")
                .unwrap()
                .serialize(),
            "1"
        );
    }
}

#[test]
fn quantified_expressions() {
    assert_eq!(
        run("some $s in doc(\"shop.xml\")//sale satisfies $s/@amount > 150"),
        "true"
    );
    assert_eq!(
        run("every $s in doc(\"shop.xml\")//sale satisfies $s/@amount > 150"),
        "false"
    );
    assert_eq!(
        run("every $s in doc(\"shop.xml\")//sale satisfies $s/@amount > 10"),
        "true"
    );
    assert_eq!(run("some $x in () satisfies true()"), "false");
}

#[test]
fn node_order_comparisons() {
    assert_eq!(
        run("doc(\"shop.xml\")//employee[@id=\"e1\"] << doc(\"shop.xml\")//employee[@id=\"e3\"]"),
        "true"
    );
    assert_eq!(
        run("doc(\"shop.xml\")//employee[@id=\"e1\"] >> doc(\"shop.xml\")//employee[@id=\"e3\"]"),
        "false"
    );
    assert_eq!(
        run("doc(\"shop.xml\")//employee[1] is doc(\"shop.xml\")//employee[@id=\"e1\"]"),
        "true"
    );
}

#[test]
fn results_identical_across_all_optimizer_configs() {
    let queries = [
        "for $e in doc(\"shop.xml\")//employee order by $e/@id descending return $e/@dept",
        "for $e in doc(\"shop.xml\")//employee \
         return count(for $s in doc(\"shop.xml\")//sale where $s/@by = $e/@id return $s)",
        "sum(doc(\"shop.xml\")//sale/@amount)",
    ];
    let reference: Vec<String> = queries.iter().map(|q| run(q)).collect();
    for config in [
        ExecConfig::naive(),
        ExecConfig {
            order_aware: false,
            ..ExecConfig::default()
        },
        ExecConfig {
            join_recognition: false,
            existential_minmax: false,
            ..ExecConfig::default()
        },
    ] {
        let db = Arc::new(Database::new());
        db.load_document("shop.xml", DOC).unwrap();
        let mut e = db.session_with_config(config);
        for (q, want) in queries.iter().zip(&reference) {
            assert_eq!(
                &e.query(q).unwrap().serialize().to_string(),
                want,
                "query {q}"
            );
        }
    }
}

#[test]
fn error_paths_are_typed() {
    let mut e = engine();
    assert!(matches!(e.query("1 +"), Err(Error::Parse(_))));
    assert!(matches!(e.query("$nope"), Err(Error::Compile(_))));
    assert!(matches!(
        e.query("doc(\"other.xml\")//x"),
        Err(Error::Exec(_))
    ));
    assert!(matches!(
        Database::new().load_document("bad.xml", "<a><b></a>"),
        Err(Error::Shred(_))
    ));
}

#[test]
fn profiles_attribute_the_execution_to_operators() {
    let mut e = engine();
    let q = r#"for $e in doc("shop.xml")/shop/staff/employee
               return <row id="{$e/@id}"><n>{$e/name/text()}</n></row>"#;
    let profile = e.profile(q).unwrap();
    let plan = e.compile(q).unwrap();
    assert_eq!(
        profile.ops.len(),
        plan.operator_count(),
        "one row per plan node"
    );
    let root = &profile.ops[0];
    assert_eq!((root.id, root.depth, root.evals), (plan.id, 0, 1));
    assert_eq!(root.rows, 3);
    assert_eq!(profile.result_items, 3);
    for op in &profile.ops {
        assert!(op.self_ns <= op.total_ns, "{op:?}");
    }
    assert!(profile.self_ns_total() <= profile.exec_ns);
    // the nested <n> is built inside <row>: it has a row but no evaluation
    assert!(profile.ops.iter().any(|o| o.op == "elem" && o.evals == 0));
    // sorts done and avoided add up to the execution's counters (the
    // result extraction avoids one more)
    let avoided: u64 = profile.ops.iter().map(|o| o.sorts_avoided).sum();
    let sorts: u64 = profile.ops.iter().map(|o| o.sorts).sum();
    assert_eq!(
        (sorts, avoided + 1),
        (profile.stats.sorts, profile.stats.sorts_avoided)
    );
    // so do the staircase rows scanned and runs skipped, charged to the
    // step nodes
    let scanned: u64 = profile.ops.iter().map(|o| o.nodes_scanned).sum();
    let skipped: u64 = profile.ops.iter().map(|o| o.pages_skipped).sum();
    let staircase = profile.stats.staircase;
    assert!(scanned > 0);
    assert_eq!(
        (scanned, skipped),
        (staircase.nodes_scanned, staircase.pages_skipped)
    );
    assert!(profile
        .ops
        .iter()
        .filter(|o| o.nodes_scanned > 0)
        .all(|o| o.op == "scj"));
    assert!(profile.to_string().contains("[0] loop"));

    // the same through a prepared statement; updates have no profile
    let prepared = e.prepare(q).unwrap();
    assert_eq!(prepared.profile().unwrap().ops.len(), profile.ops.len());
    assert!(matches!(
        e.profile(r#"delete nodes doc("shop.xml")//sale"#),
        Err(Error::WrongStatementKind { .. })
    ));
}
