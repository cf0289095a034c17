//! End-to-end tests of the XQuery Update Facility surface: statements parsed
//! from text mutate the paged store, and subsequent queries observe the
//! post-update state.

use mxq_xquery::{Database, Error, ExecConfig, PulError, Session};
use std::sync::Arc;

fn engine_with(xml: &str) -> Session {
    let db = Arc::new(Database::new());
    db.load_document("doc.xml", xml).unwrap();
    db.session()
}

fn run(e: &mut Session, q: &str) -> String {
    e.query(q).unwrap().serialize().to_string()
}

#[test]
fn insert_nodes_as_last_into() {
    let mut e = engine_with("<site><items><item>a</item></items></site>");
    let rep = e
        .execute_update("insert nodes <item>b</item> as last into doc(\"doc.xml\")/site/items")
        .unwrap();
    assert_eq!(rep.statements, 1);
    assert_eq!(rep.primitives, 1);
    assert_eq!(rep.documents_touched, 1);
    assert_eq!(
        run(&mut e, "doc(\"doc.xml\")/site/items"),
        "<items><item>a</item><item>b</item></items>"
    );
    assert_eq!(run(&mut e, "count(doc(\"doc.xml\")//item)"), "2");
}

#[test]
fn insert_positions() {
    let mut e = engine_with("<r><a/><b/></r>");
    e.execute_update("insert nodes <first/> as first into doc(\"doc.xml\")/r")
        .unwrap();
    e.execute_update("insert nodes <x/> before doc(\"doc.xml\")/r/b")
        .unwrap();
    e.execute_update("insert nodes <y/> after doc(\"doc.xml\")/r/b")
        .unwrap();
    e.execute_update("insert nodes <plain/> into doc(\"doc.xml\")/r")
        .unwrap();
    assert_eq!(
        run(&mut e, "doc(\"doc.xml\")/r"),
        "<r><first/><a/><x/><b/><y/><plain/></r>"
    );
}

#[test]
fn delete_nodes_accepts_sequences() {
    let mut e = engine_with("<r><k/><v>1</v><k/><v>2</v></r>");
    let rep = e
        .execute_update("delete nodes doc(\"doc.xml\")/r/k")
        .unwrap();
    assert_eq!(rep.primitives, 2);
    assert_eq!(run(&mut e, "doc(\"doc.xml\")/r"), "<r><v>1</v><v>2</v></r>");
    // deleting an empty sequence is a no-op, not an error
    let rep = e
        .execute_update("delete nodes doc(\"doc.xml\")/r/missing")
        .unwrap();
    assert_eq!(rep.primitives, 0);
}

#[test]
fn replace_node_and_value() {
    let mut e = engine_with("<r><old><deep/></old><keep/></r>");
    e.execute_update("replace node doc(\"doc.xml\")/r/old with <new>n</new>")
        .unwrap();
    assert_eq!(
        run(&mut e, "doc(\"doc.xml\")/r"),
        "<r><new>n</new><keep/></r>"
    );
    e.execute_update("replace value of node doc(\"doc.xml\")/r/new with \"altered\"")
        .unwrap();
    assert_eq!(run(&mut e, "doc(\"doc.xml\")/r/new/text()"), "altered");
}

#[test]
fn rename_node_updates_queries() {
    let mut e = engine_with("<r><x>v</x></r>");
    e.execute_update("rename node doc(\"doc.xml\")/r/x as \"y\"")
        .unwrap();
    assert_eq!(run(&mut e, "count(doc(\"doc.xml\")/r/x)"), "0");
    assert_eq!(run(&mut e, "doc(\"doc.xml\")/r/y/text()"), "v");
}

#[test]
fn attribute_updates() {
    let mut e = engine_with("<r><i id=\"1\" drop=\"x\"/></r>");
    e.execute_update("replace value of node doc(\"doc.xml\")/r/i/@id with \"2\"")
        .unwrap();
    e.execute_update("delete nodes doc(\"doc.xml\")/r/i/@drop")
        .unwrap();
    e.execute_update("rename node doc(\"doc.xml\")/r/i/@id as \"key\"")
        .unwrap();
    assert_eq!(run(&mut e, "doc(\"doc.xml\")/r/i"), "<i key=\"2\"/>");
    // setting a fresh attribute through replace value of a missing @name
    // (the subset's attribute-insertion form — documented extension)
    e.execute_update("replace value of node doc(\"doc.xml\")/r/i/@lang with \"en\"")
        .unwrap();
    assert_eq!(run(&mut e, "doc(\"doc.xml\")/r/i/@lang"), "en");
    // renaming a missing attribute is an empty target — an error
    assert!(matches!(
        e.execute_update("rename node doc(\"doc.xml\")/r/i/@missing as \"m\""),
        Err(Error::Update(PulError::ExactlyOne { got: 0, .. }))
    ));
}

#[test]
fn attribute_updates_are_statement_order_independent() {
    // rename @k + replace value of @k in one snapshot: both orders converge
    // on the renamed attribute carrying the new value
    for stmts in [
        "rename node doc(\"doc.xml\")/a/@k as \"j\", \
         replace value of node doc(\"doc.xml\")/a/@k with \"9\"",
        "replace value of node doc(\"doc.xml\")/a/@k with \"9\", \
         rename node doc(\"doc.xml\")/a/@k as \"j\"",
    ] {
        let mut e = engine_with("<a k=\"old\"/>");
        e.execute_update(stmts).unwrap();
        assert_eq!(run(&mut e, "doc(\"doc.xml\")/a"), "<a j=\"9\"/>", "{stmts}");
    }
    // delete @k + replace value of @k: the delete applies last — gone
    for stmts in [
        "delete nodes doc(\"doc.xml\")/a/@k, \
         replace value of node doc(\"doc.xml\")/a/@k with \"9\"",
        "replace value of node doc(\"doc.xml\")/a/@k with \"9\", \
         delete nodes doc(\"doc.xml\")/a/@k",
    ] {
        let mut e = engine_with("<a k=\"old\"/>");
        e.execute_update(stmts).unwrap();
        assert_eq!(run(&mut e, "doc(\"doc.xml\")/a"), "<a/>", "{stmts}");
    }
    // rename @k + delete @k: the delete follows the rename — gone either way
    for stmts in [
        "rename node doc(\"doc.xml\")/a/@k as \"j\", \
         delete nodes doc(\"doc.xml\")/a/@k",
        "delete nodes doc(\"doc.xml\")/a/@k, \
         rename node doc(\"doc.xml\")/a/@k as \"j\"",
    ] {
        let mut e = engine_with("<a k=\"old\"/>");
        e.execute_update(stmts).unwrap();
        assert_eq!(run(&mut e, "doc(\"doc.xml\")/a"), "<a/>", "{stmts}");
    }
}

#[test]
fn tied_insert_positions_keep_their_levels() {
    // <p/> is empty, so "first child of p" and "before s" share the numeric
    // position; the shallower insert must not capture the deeper content
    for stmts in [
        "insert nodes <x/> as first into doc(\"doc.xml\")/a/p, \
         insert nodes <y/> before doc(\"doc.xml\")/a/s",
        "insert nodes <y/> before doc(\"doc.xml\")/a/s, \
         insert nodes <x/> as first into doc(\"doc.xml\")/a/p",
    ] {
        let mut e = engine_with("<a><p/><s/></a>");
        e.execute_update(stmts).unwrap();
        assert_eq!(
            run(&mut e, "doc(\"doc.xml\")/a"),
            "<a><p><x/></p><y/><s/></a>",
            "{stmts}"
        );
    }
    // same shape with "as last into" and "after"
    for stmts in [
        "insert nodes <x/> as last into doc(\"doc.xml\")/a/p, \
         insert nodes <y/> after doc(\"doc.xml\")/a/p",
        "insert nodes <y/> after doc(\"doc.xml\")/a/p, \
         insert nodes <x/> as last into doc(\"doc.xml\")/a/p",
    ] {
        let mut e = engine_with("<a><p/><s/></a>");
        e.execute_update(stmts).unwrap();
        assert_eq!(
            run(&mut e, "doc(\"doc.xml\")/a"),
            "<a><p><x/></p><y/><s/></a>",
            "{stmts}"
        );
    }
}

#[test]
fn failed_updates_do_not_leak_transient_nodes() {
    let mut e = engine_with("<r><x/></r>");
    let before = e.database().store().total_nodes();
    // the source constructor is evaluated, then collection fails (two targets)
    for _ in 0..5 {
        assert!(e
            .execute_update("insert nodes <big><a/><b/><c/></big> into doc(\"doc.xml\")/r/missing")
            .is_err());
    }
    assert_eq!(
        e.database().store().total_nodes(),
        before,
        "failed updates must not accumulate constructed nodes"
    );
}

#[test]
fn bulk_attribute_delete() {
    let mut e = engine_with("<a><b k=\"1\"/><b k=\"2\"/><b/></a>");
    let rep = e
        .execute_update("delete nodes doc(\"doc.xml\")/a/b/@k")
        .unwrap();
    assert_eq!(rep.primitives, 3, "one remove per owning element");
    assert_eq!(run(&mut e, "doc(\"doc.xml\")/a"), "<a><b/><b/><b/></a>");
}

#[test]
fn multi_statement_snapshot_semantics() {
    // both statements see the same snapshot: the second targets <b>, which
    // the first deletes — the insert must still land where <b> was
    let mut e = engine_with("<r><a/><b/><c/></r>");
    e.execute_update(
        "delete nodes doc(\"doc.xml\")/r/b, \
         insert nodes <n/> before doc(\"doc.xml\")/r/b",
    )
    .unwrap();
    assert_eq!(run(&mut e, "doc(\"doc.xml\")/r"), "<r><a/><n/><c/></r>");
}

#[test]
fn conflicting_statements_are_atomic() {
    let mut e = engine_with("<r><x/></r>");
    let err = e
        .execute_update(
            "rename node doc(\"doc.xml\")/r/x as \"a\", \
             rename node doc(\"doc.xml\")/r/x as \"b\"",
        )
        .unwrap_err();
    assert!(matches!(err, Error::Update(PulError::Conflict { .. })));
    // nothing was applied
    assert_eq!(run(&mut e, "doc(\"doc.xml\")/r"), "<r><x/></r>");
}

/// Renames that would give one element two attributes of one name fail
/// (XUDY0021) and leave the document as it was.
#[test]
fn attribute_renames_never_duplicate_a_name() {
    for script in [
        // onto a name the element already has
        "rename node doc(\"doc.xml\")/r/i/@a as \"b\"",
        // two renames onto one new name
        "rename node doc(\"doc.xml\")/r/i/@a as \"c\", \
         rename node doc(\"doc.xml\")/r/i/@b as \"c\"",
    ] {
        let mut e = engine_with("<r><i a=\"1\" b=\"2\"/></r>");
        let err = e.execute_update(script).unwrap_err();
        assert!(
            matches!(err, Error::Update(PulError::DuplicateAttribute { .. })),
            "{script}: {err}"
        );
        assert_eq!(
            run(&mut e, "doc(\"doc.xml\")/r"),
            "<r><i a=\"1\" b=\"2\"/></r>",
            "{script}"
        );
    }
    // renaming an attribute onto its own name changes nothing
    let mut e = engine_with("<r><i a=\"1\" b=\"2\"/></r>");
    e.execute_update("rename node doc(\"doc.xml\")/r/i/@a as \"a\"")
        .unwrap();
    assert_eq!(
        run(&mut e, "doc(\"doc.xml\")/r"),
        "<r><i a=\"1\" b=\"2\"/></r>"
    );
}

#[test]
fn update_errors() {
    let mut e = engine_with("<r><a/><a/></r>");
    // exactly-one violations
    assert!(matches!(
        e.execute_update("insert nodes <x/> into doc(\"doc.xml\")/r/a"),
        Err(Error::Update(PulError::ExactlyOne { .. }))
    ));
    // structural updates of the root are rejected
    assert!(matches!(
        e.execute_update("delete nodes doc(\"doc.xml\")"),
        Err(Error::Update(PulError::TargetIsRoot))
    ));
    // non-node targets
    assert!(matches!(
        e.execute_update("delete nodes \"str\""),
        Err(Error::Update(PulError::NotANode(_)))
    ));
    // invalid rename
    assert!(matches!(
        e.execute_update("rename node doc(\"doc.xml\")/r/a[1] as \"not a name\""),
        Err(Error::Update(PulError::InvalidName(_)))
    ));
    // rename of a text node
    assert!(matches!(
        e.execute_update("rename node doc(\"doc.xml\")/r/a[1]/text() as \"t\""),
        Err(Error::Update(PulError::ExactlyOne { .. }))
    ));
    // unknown document
    assert!(matches!(
        e.execute_update("delete nodes doc(\"missing.xml\")/r"),
        Err(Error::Exec(_))
    ));
    // parse error
    assert!(matches!(
        e.execute_update("insert nodes <x/>"),
        Err(Error::Parse(_))
    ));
}

#[test]
fn inserted_content_is_a_snapshot_copy() {
    // inserting a node from the same document copies it: later mutations of
    // the original leave the copy untouched
    let mut e = engine_with("<r><src><leaf/></src><dst/></r>");
    e.execute_update("insert nodes doc(\"doc.xml\")/r/src as last into doc(\"doc.xml\")/r/dst")
        .unwrap();
    e.execute_update("delete nodes doc(\"doc.xml\")/r/src[1]")
        .unwrap();
    assert_eq!(
        run(&mut e, "doc(\"doc.xml\")/r"),
        "<r><dst><src><leaf/></src></dst></r>"
    );
}

#[test]
fn computed_content_through_flwor() {
    let mut e = engine_with("<r><v>1</v><v>2</v><dst/></r>");
    e.execute_update(
        "insert nodes (for $v in doc(\"doc.xml\")/r/v return <w>{$v/text()}</w>) \
         as last into doc(\"doc.xml\")/r/dst",
    )
    .unwrap();
    assert_eq!(
        run(&mut e, "doc(\"doc.xml\")/r/dst"),
        "<dst><w>1</w><w>2</w></dst>"
    );
}

#[test]
fn atomic_content_becomes_text() {
    let mut e = engine_with("<r><dst/></r>");
    e.execute_update("insert nodes (1, 2, \"x\") as last into doc(\"doc.xml\")/r/dst")
        .unwrap();
    assert_eq!(run(&mut e, "doc(\"doc.xml\")/r/dst"), "<dst>1 2 x</dst>");
}

#[test]
fn insert_sources_mix_atomics_and_stored_text() {
    // atomics around a stored text node: each run of atomics is one text
    // node (an empty string adds no separator), the stored text is copied
    // as it is; the serializations are pinned from the build that copied
    // strings instead of sharing them
    let source =
        r#"("x", doc("doc.xml")/r/src/text(), 1, "", "y", doc("doc.xml")/r/src/text(), "")"#;
    for config in [ExecConfig::default(), ExecConfig::naive()] {
        let db = Arc::new(Database::new());
        db.load_document("doc.xml", "<r><src>abc</src><dst/></r>")
            .unwrap();
        let mut e = db.session_with_config(config);
        e.execute_update(&format!(
            "insert nodes {source} as last into doc(\"doc.xml\")/r/dst"
        ))
        .unwrap();
        assert_eq!(
            run(&mut e, "doc(\"doc.xml\")/r/dst"),
            "<dst>xabc1  yabc</dst>"
        );
        assert_eq!(run(&mut e, "count(doc(\"doc.xml\")/r/dst/text())"), "4");
        assert_eq!(run(&mut e, "doc(\"doc.xml\")/r/src"), "<src>abc</src>");
    }
}

#[test]
fn document_columns_refresh_after_update() {
    let mut e = engine_with("<r><a/></r>");
    let before = e.database().document_columns("doc.xml").unwrap();
    assert!(before.tags().code_of("brandnew").is_none());
    e.execute_update("insert nodes <brandnew/> as last into doc(\"doc.xml\")/r")
        .unwrap();
    let after = e.database().document_columns("doc.xml").unwrap();
    assert!(
        after.tags().code_of("brandnew").is_some(),
        "tag dictionary must be refreshed after the update"
    );
    assert_eq!(after.len(), before.len() + 1);
    // the cache returns the same export until the next update
    let again = e.database().document_columns("doc.xml").unwrap();
    assert!(std::sync::Arc::ptr_eq(&after, &again));
}

#[test]
fn updates_visible_under_all_configs() {
    for config in [ExecConfig::default(), ExecConfig::naive()] {
        let db = Arc::new(Database::new());
        db.load_document("doc.xml", "<r><a>1</a></r>").unwrap();
        let mut e = db.session_with_config(config);
        e.execute_update("insert nodes <a>2</a> as last into doc(\"doc.xml\")/r")
            .unwrap();
        assert_eq!(run(&mut e, "count(doc(\"doc.xml\")/r/a)"), "2");
    }
}

#[test]
fn update_report_counts_paged_costs() {
    let mut e = engine_with("<r><a/></r>");
    let rep = e
        .execute_update("insert nodes <b/> as last into doc(\"doc.xml\")/r")
        .unwrap();
    assert!(rep.stats.tuples_written >= 1);
    assert!(rep.stats.pages_touched >= 1);
}
