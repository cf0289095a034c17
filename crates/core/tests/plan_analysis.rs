//! Behavioural tests of the static plan analysis: annotated `explain`
//! output, verifier errors at prepare time, property-driven simplification
//! visible in the rendered plan, and runtime validation of inferred
//! properties.

use mxq_xquery::{parse_update, Compiler, Database, Error, ExecConfig, Executor, Session};
use std::sync::Arc;

/// Switch on runtime plan validation for this test process, as
/// `MXQ_VALIDATE_PLANS=1` does: every executor built from here on asserts
/// the inferred plan properties against each table it materializes.
fn validate_plans() {
    std::env::set_var("MXQ_VALIDATE_PLANS", "1");
}

const DOC: &str = r#"<site>
  <people><person id="p0"><name>Ann</name></person>
          <person id="p1"><name>Bob</name></person></people>
  <orders><order buyer="p0" amount="12"/><order buyer="p0" amount="7"/>
          <order buyer="p1" amount="3"/></orders>
</site>"#;

fn engine() -> Session {
    let db = Arc::new(Database::new());
    db.load_document("site.xml", DOC).unwrap();
    db.session()
}

#[test]
fn explain_annotates_inferred_properties() {
    let s = engine()
        .explain("doc(\"site.xml\")/site/people/person/@id")
        .unwrap();
    // axis steps prove document order, duplicate freedom and [iter, pos]
    // sortedness; the attribute step inherits the value dictionary
    assert!(s.contains("scj"), "{s}");
    assert!(s.contains("doc-order"), "{s}");
    assert!(s.contains("dup-free"), "{s}");
    assert!(s.contains("dict=attr-values(site.xml)"), "{s}");
    assert!(s.contains("doc=site.xml"), "{s}");
}

#[test]
fn explain_reports_docorder_elimination() {
    // `$p` binds one node per iteration, so the predicated step needs no
    // document-order δ after back-mapping — the simplifier removes it
    let s = engine()
        .explain("for $p in doc(\"site.xml\")/site/people/person return $p/name[1]")
        .unwrap();
    // the operator is gone from the plan tree (the rewrite log below the
    // tree still names it)
    let tree_has_delta = s
        .lines()
        .filter(|l| !l.starts_with("--"))
        .any(|l| l.contains("docorder-δ"));
    assert!(!tree_has_delta, "{s}");
    assert!(s.contains("removed docorder-δ"), "{s}");
}

#[test]
fn explain_reports_distinct_elimination() {
    let s = engine()
        .explain(
            "for $p in doc(\"site.xml\")/site/people/person \
             return distinct-values($p/@id)",
        )
        .unwrap();
    assert!(s.contains("replaced distinct with data"), "{s}");
}

/// The annotation lines of the comparison operands (the third and fourth
/// children) of every recognised join `nest(⋈)` in an annotated explain.
fn join_operands(explain: &str) -> Vec<[&str; 2]> {
    let lines: Vec<&str> = explain.lines().collect();
    let indent = |l: &str| l.len() - l.trim_start().len();
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if !line.contains("nest(⋈) {") {
            continue;
        }
        let child = indent(line) + 2;
        let children: Vec<&str> = lines[i + 1..]
            .iter()
            .take_while(|l| indent(l) >= child)
            .filter(|l| indent(l) == child)
            .copied()
            .collect();
        out.push([children[2], children[3]]);
    }
    out
}

#[test]
fn explain_reports_proven_dictionary_join() {
    let s = engine()
        .explain(
            "for $p in doc(\"site.xml\")/site/people/person \
             for $o in doc(\"site.xml\")/site/orders/order \
             where $o/@buyer = $p/@id return $o/@amount",
        )
        .unwrap();
    let joins = join_operands(&s);
    assert_eq!(joins.len(), 1, "{s}");
    for operand in joins[0] {
        assert!(operand.contains("dict=attr-values(site.xml)"), "{s}");
    }
}

#[test]
fn explain_mentions_no_rewrites_when_none_apply() {
    let s = engine().explain("1 + 2").unwrap();
    assert!(s.contains("no rewrites applied"), "{s}");
}

#[test]
fn verifier_rejects_path_steps_over_atomics_at_prepare_time() {
    // a path step whose context provably holds no nodes used to return the
    // empty sequence silently; the verifier turns it into a static error
    let err = engine().compile("(1, 2)/self::a").unwrap_err();
    assert!(matches!(err, Error::PlanInvariant(_)), "{err}");
    let msg = err.to_string();
    assert!(msg.contains("node-free"), "{msg}");
}

#[test]
fn simplified_plans_produce_unchanged_results() {
    // queries hit by each rewrite rule still produce correct answers
    let mut e = engine();
    assert_eq!(
        e.query("for $p in doc(\"site.xml\")/site/people/person return $p/name[1]/text()")
            .unwrap()
            .serialize(),
        "AnnBob"
    );
    assert_eq!(
        e.query(
            "for $p in doc(\"site.xml\")/site/people/person \
             return distinct-values($p/@id)"
        )
        .unwrap()
        .serialize(),
        "p0 p1"
    );
    assert_eq!(
        e.query(
            "for $p in doc(\"site.xml\")/site/people/person \
             for $o in doc(\"site.xml\")/site/orders/order \
             where $o/@buyer = $p/@id return $o/@amount"
        )
        .unwrap()
        .serialize(),
        "12 7 3"
    );
}

#[test]
fn proven_dict_joins_are_counted() {
    let db = Arc::new(Database::new());
    db.load_document("site.xml", DOC).unwrap();
    let mut s = db.session();
    let (_, report) = s
        .query_with_report(
            "for $p in doc(\"site.xml\")/site/people/person \
             for $o in doc(\"site.xml\")/site/orders/order \
             where $o/@buyer = $p/@id return $o",
        )
        .unwrap();
    assert_eq!(report.stats.proven_dict_joins, 1);
}

#[test]
fn runtime_validation_accepts_correct_plans() {
    let db = Arc::new(Database::new());
    db.load_document("site.xml", DOC).unwrap();
    validate_plans();
    let mut checked = db.session();
    for q in [
        "doc(\"site.xml\")//person[@id = \"p1\"]/name/text()",
        "for $p in doc(\"site.xml\")/site/people/person return $p/name[1]",
        "distinct-values(doc(\"site.xml\")//order/@buyer)",
        "count(doc(\"site.xml\")//order[@amount >= 7])",
        "for $p in doc(\"site.xml\")/site/people/person \
         for $o in doc(\"site.xml\")/site/orders/order \
         where $o/@buyer = $p/@id order by $o/@amount return $o/@amount",
    ] {
        checked.query(q).unwrap_or_else(|e| panic!("{q}: {e}"));
    }
}

#[test]
fn validation_works_under_the_naive_config_too() {
    let db = Arc::new(Database::new());
    db.load_document("site.xml", DOC).unwrap();
    validate_plans();
    let mut checked = db.session_with_config(ExecConfig::naive());
    let r = checked
        .query("for $p in doc(\"site.xml\")//person return $p/@id")
        .unwrap();
    assert_eq!(r.serialize(), "p0 p1");
}

#[test]
fn updates_are_verified_and_validated() {
    let db = Arc::new(Database::new());
    db.load_document("site.xml", DOC).unwrap();
    validate_plans();
    let mut checked = db.session();
    checked
        .execute_update(
            "insert nodes <order buyer=\"p1\" amount=\"9\"/> as last into \
             doc(\"site.xml\")/site/orders",
        )
        .unwrap();
    assert_eq!(
        checked
            .query("count(doc(\"site.xml\")//order)")
            .unwrap()
            .serialize(),
        "4"
    );
}

#[test]
fn update_targets_trust_the_table_convention() {
    // update plans skip the simplifier: the order-aware executor must still
    // take the axis step's output as sorted, without a sort of its own
    let db = Arc::new(Database::new());
    db.load_document("d.xml", "<a><b>1</b><c/><b>2</b><b>3</b></a>")
        .unwrap();
    let snap = db.snapshot();
    let run = |config: ExecConfig| {
        let parsed = parse_update("delete nodes doc(\"d.xml\")/a/b").unwrap();
        let plan = Compiler::new(config).compile_update(&parsed).unwrap();
        let mut exec = Executor::new(&snap, config);
        let items: Vec<_> = plan
            .roots()
            .into_iter()
            .map(|root| exec.eval_result(root).unwrap())
            .collect();
        (items, exec.stats)
    };
    let (targets, stats) = run(ExecConfig::default());
    assert_eq!(stats.sorts, 0, "{stats:?}");
    assert_eq!(targets.concat().len(), 3);
    let naive = ExecConfig {
        order_aware: false,
        ..ExecConfig::default()
    };
    let (resorted, naive_stats) = run(naive);
    assert!(naive_stats.sorts > 0, "{naive_stats:?}");
    assert_eq!(targets, resorted);
}

#[test]
fn a_nested_constructor_over_another_loop_is_not_built_in_place() {
    use mxq_engine::Item;
    use mxq_xquery::algebra::{ConstItems, Op, Plan};
    use mxq_xquery::{serialize_items_snapshot, Params};

    // <x>{ <y/> over a loop that selects no iteration }</x>: the inner
    // constructor builds nothing, so the outer element stays empty
    let mut next = 0;
    let mut plan = |op| {
        next += 1;
        Arc::new(Plan { id: next, op })
    };
    let outer_loop = plan(Op::LoopOne);
    let cond = plan(Op::ConstSeq {
        loop_: outer_loop.clone(),
        items: ConstItems::Inline(vec![Item::Bool(false)]),
    });
    let inner_loop = plan(Op::SelectIters {
        cond,
        loop_: outer_loop.clone(),
        negate: false,
    });
    let inner = plan(Op::ElemCtor {
        loop_: inner_loop,
        name: "y".into(),
        attrs: Vec::new(),
        content: Vec::new(),
    });
    let outer = plan(Op::ElemCtor {
        loop_: outer_loop,
        name: "x".into(),
        attrs: Vec::new(),
        content: vec![inner],
    });
    let db = Database::new();
    let snap = db.snapshot();
    let mut exec = Executor::with_params(&snap, ExecConfig::default(), Params::new());
    let items = exec.eval_result(&outer).unwrap();
    let (transient, _) = exec.finish();
    assert_eq!(serialize_items_snapshot(&snap, &transient, &items), "<x/>");
}
