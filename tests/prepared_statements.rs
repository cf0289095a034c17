//! The server-style API end to end: shared `Database`, `Session`s, prepared
//! statements with external variables, the plan cache, streaming results,
//! and the store-generation staleness guard.

use std::sync::Arc;

use mxq::engine::Item;
use mxq::xmark::gen::{generate_xml, GenParams};
use mxq::xmark::naive::NaiveInterpreter;
use mxq::xmldb::DocStore;
use mxq::xquery::{Database, Error, Params};

/// XMark Q1 with the person id as an external variable (the acceptance
/// query of the API redesign: prepare once, bind `$site`, execute many).
const Q1_EXTERNAL: &str = r#"
declare variable $site external;
for $b in doc("auction.xml")/site/people/person[@id = $site]
return $b/name/text()
"#;

fn xmark_database(factor: f64) -> (Arc<Database>, String) {
    let xml = generate_xml(&GenParams::with_factor(factor));
    let db = Arc::new(Database::new());
    db.load_document("auction.xml", &xml).unwrap();
    (db, xml)
}

#[test]
fn prepared_q1_with_external_site_executes_without_reparsing() {
    let (db, xml) = xmark_database(0.0005);
    let mut session = db.session();

    let before = db.stats();
    let stmt = session.prepare(Q1_EXTERNAL).unwrap();
    assert_eq!(stmt.external_variables(), ["site"]);
    assert!(stmt.plan_operators().unwrap() > 5);

    // serial oracle: the naive interpreter over the same document and params
    let mut store = DocStore::new();
    store.load_xml("auction.xml", &xml).unwrap();
    let snap = store.snapshot();
    let mut naive = NaiveInterpreter::new(&snap);

    // re-execute ≥ 2× with different bindings; compile must have happened once
    for person in ["person0", "person1", "person2", "person0"] {
        let result = stmt.bind("site", person).query().unwrap();
        let mut params = Params::new();
        params.set("site", person);
        let oracle = naive.run_with_params(Q1_EXTERNAL, &params).unwrap();
        assert_eq!(
            result.serialize(),
            naive.serialize(&oracle),
            "binding {person}"
        );
    }
    assert_eq!(stmt.executions(), 4);
    let after = db.stats();
    assert_eq!(
        after.prepares - before.prepares,
        1,
        "Q1 was parsed + compiled exactly once for four executions"
    );
    assert_eq!(after.queries - before.queries, 4);
}

#[test]
fn hot_execute_path_is_served_by_the_plan_cache() {
    let (db, _) = xmark_database(0.0005);
    let mut session = db.session();
    let q = "count(doc(\"auction.xml\")/site/people/person)";
    let first = session.query(q).unwrap().serialize().to_string();
    let before = db.stats();
    for _ in 0..10 {
        assert_eq!(session.query(q).unwrap().serialize(), first);
    }
    let after = db.stats();
    assert_eq!(
        after.prepares, before.prepares,
        "no re-parse, no re-compile"
    );
    assert_eq!(after.plan_cache_hits - before.plan_cache_hits, 10);
    assert_eq!(session.stats().plan_cache_hits, 10);
    assert_eq!(session.stats().plan_cache_misses, 1);
}

#[test]
fn statement_auto_detection_round_trip() {
    let db = Arc::new(Database::new());
    db.load_document("doc.xml", "<inventory><item id=\"i1\"/></inventory>")
        .unwrap();
    let mut session = db.session();
    // one entry point for both kinds of text
    let r = session
        .execute("insert nodes <item id=\"i2\"/> as last into doc(\"doc.xml\")/inventory")
        .unwrap();
    assert!(r.is_update());
    assert_eq!(r.as_update().unwrap().primitives, 1);
    let r = session.execute("count(doc(\"doc.xml\")//item)").unwrap();
    assert_eq!(r.as_query().unwrap().serialize(), "2");
    // kind-specific entry points reject the other kind
    assert!(matches!(
        session.query("delete nodes doc(\"doc.xml\")//item"),
        Err(Error::WrongStatementKind { expected: "query" })
    ));
    assert!(matches!(
        session.execute_update("count(doc(\"doc.xml\")//item)"),
        Err(Error::WrongStatementKind { expected: "update" })
    ));
}

#[test]
fn prepared_update_with_external_variable() {
    let db = Arc::new(Database::new());
    db.load_document("doc.xml", "<a><v>old</v></a>").unwrap();
    let mut session = db.session();
    let stmt = session
        .prepare(
            "declare variable $val external; \
             replace value of node doc(\"doc.xml\")/a/v with $val",
        )
        .unwrap();
    assert!(stmt.is_update());
    for val in ["first", "second"] {
        let report = stmt
            .bind("val", val)
            .execute()
            .unwrap()
            .into_update()
            .unwrap();
        assert_eq!(report.primitives, 1);
        assert_eq!(
            session
                .query("doc(\"doc.xml\")/a/v/text()")
                .unwrap()
                .serialize(),
            val
        );
    }
}

#[test]
fn stale_prepared_statements_revalidate_after_updates() {
    // regression for the store-generation guard: a prepared plan executed
    // after an update must observe the post-update store, never the dropped
    // snapshot it cached earlier
    let db = Arc::new(Database::new());
    db.load_document("doc.xml", "<a><b/><b/></a>").unwrap();
    let mut session = db.session();
    let stmt = session.prepare("count(doc(\"doc.xml\")//b)").unwrap();

    assert_eq!(
        stmt.execute().unwrap().into_query().unwrap().serialize(),
        "2"
    );
    assert_eq!(
        stmt.execute().unwrap().into_query().unwrap().serialize(),
        "2"
    );
    assert_eq!(stmt.revalidations(), 0, "no writes → snapshot reused");

    let gen_before = db.generation();
    session
        .execute_update("delete nodes doc(\"doc.xml\")/a/b[1]")
        .unwrap();
    assert!(db.generation() > gen_before, "updates bump the generation");

    assert_eq!(
        stmt.execute().unwrap().into_query().unwrap().serialize(),
        "1",
        "the prepared statement sees the post-update document"
    );
    assert_eq!(stmt.revalidations(), 1, "the stale snapshot was re-taken");

    // results produced *before* an update keep their pinned snapshot
    let result = stmt.execute().unwrap().into_query().unwrap();
    session
        .execute_update("delete nodes doc(\"doc.xml\")/a/b[1]")
        .unwrap();
    assert_eq!(result.serialize(), "1", "results are snapshot-stable");
    assert_eq!(
        stmt.execute().unwrap().into_query().unwrap().serialize(),
        "0"
    );
}

#[test]
fn streaming_results_avoid_the_big_string() {
    let (db, _) = xmark_database(0.0005);
    let mut session = db.session();
    let q = "for $p in doc(\"auction.xml\")/site/people/person return $p/name/text()";
    let materialized = session.query(q).unwrap();
    let expected: Vec<String> = materialized
        .items()
        .iter()
        .map(|i| materialized.serialize_item(i))
        .collect();
    assert!(!expected.is_empty());

    // Session::execute_streaming
    let mut stream = session.execute_streaming(q).unwrap();
    assert_eq!(stream.len(), expected.len());
    let mut streamed = Vec::new();
    while let Some(item) = stream.next() {
        streamed.push(stream.serialize_item(&item));
    }
    assert_eq!(streamed, expected);

    // QueryResult::into_iter
    let items: Vec<Item> = session.query(q).unwrap().into_iter().collect();
    assert_eq!(items.len(), expected.len());
}

#[test]
fn sequence_bindings_and_defaults() {
    let db = Arc::new(Database::new());
    db.load_document("doc.xml", "<a/>").unwrap();
    let mut session = db.session();
    let stmt = session
        .prepare(
            "declare variable $xs external; \
             declare variable $scale external := 10; \
             sum(for $x in $xs return $x * $scale)",
        )
        .unwrap();
    assert_eq!(stmt.external_variables(), ["xs", "scale"]);
    let r = stmt
        .bind_seq("xs", vec![Item::Int(1), Item::Int(2), Item::Int(3)])
        .query()
        .unwrap();
    assert_eq!(r.serialize(), "60");
    let r = stmt
        .bind_seq("xs", vec![Item::Int(1)])
        .bind("scale", 2)
        .query()
        .unwrap();
    assert_eq!(r.serialize(), "2");
    // leaving $xs unbound is an execution-time error (no default)
    assert!(matches!(stmt.execute(), Err(Error::Exec(_))));
    // binding a name the statement does not declare is rejected (a typo
    // must not silently fall back to the default)
    let err = stmt
        .bind_seq("xs", vec![Item::Int(1)])
        .bind("scal", 2)
        .query()
        .unwrap_err();
    assert!(
        err.to_string().contains("scal"),
        "typo'd bind name is reported: {err}"
    );
}

#[test]
fn relational_and_naive_agree_on_external_variables() {
    let db = Arc::new(Database::new());
    let xml = "<site><people><person id=\"p0\"><name>Ann</name></person>\
               <person id=\"p1\"><name>Bob</name></person></people></site>";
    db.load_document("doc.xml", xml).unwrap();
    let mut session = db.session();
    let q = "declare variable $who external; \
             for $p in doc(\"doc.xml\")/site/people/person[@id = $who] \
             return $p/name/text()";
    let stmt = session.prepare(q).unwrap();

    let mut store = DocStore::new();
    store.load_xml("doc.xml", xml).unwrap();
    let snap = store.snapshot();
    let mut naive = NaiveInterpreter::new(&snap);
    for who in ["p0", "p1", "nope"] {
        let mut params = Params::new();
        params.set("who", who);
        let relational = stmt.bind("who", who).query().unwrap();
        let oracle = naive.run_with_params(q, &params).unwrap();
        assert_eq!(relational.serialize(), naive.serialize(&oracle));
    }
}
