//! Work bounds of the location step and sharing of the column image — the
//! two properties a benchmark would only show as a slowdown.
//!
//! * **Work bound.**  On an XMark document (sf 0.01, default seed) every
//!   `child` / `descendant(-or-self)::name` step of Q1–Q20 is run by the
//!   executor itself, and the [`ScanStats`] it reports for that one step
//!   are held to the paper's bound (§3, §3.2):
//!   with the name-test push-down the step reads the element-name index and
//!   touches at most `|context| + |result|` rows (a `child` step would also
//!   touch same-named elements below child level that lie outside every
//!   result subtree; XMark has none, so the bound is asserted without
//!   slack — not even the "one row per chunk a region overlaps" the index
//!   lookup could claim);
//!   with `nametest_pushdown: false` it scans, and touches at most
//!   `|context| + |axis::node()|` rows.  A step that walks the document —
//!   or a name index that is rebuilt per step — fails here, not in a
//!   benchmark.
//! * **Sharing.**  A patch after `snapshot()` copies the chunks it lands in
//!   and leaves every other chunk of the column image pointer-equal between
//!   the published and the patched image.
//!
//! CI also runs this file under `MXQ_VALIDATE_PLANS=1`.

use std::collections::BTreeSet;
use std::sync::Arc;

use mxq::engine::{Column, NodeId};
use mxq::staircase::{looplifted_step, Axis, NodeTest, ScanStats};
use mxq::xmark::gen::{generate_xml, GenParams};
use mxq::xmark::naive::NaiveInterpreter;
use mxq::xmark::queries::query_text;
use mxq::xmldb::update::{fragment_from_xml, PagedDocument, StructuralUpdate};
use mxq::xmldb::{shred, DocStore, ShredOptions};
use mxq::xquery::algebra::Op;
use mxq::xquery::{
    analysis, parse_statement, Compiler, Database, ExecConfig, Executor, Params, PlanRef, Statement,
};

/// Compile a query the way `Session::execute` does.
fn compile(text: &str, config: ExecConfig) -> PlanRef {
    let Statement::Query(query) = parse_statement(text).expect("parses") else {
        panic!("not a query: {text}");
    };
    let plan = Compiler::new(config)
        .compile_query(&query)
        .expect("compiles");
    let inferred = analysis::analyze(&plan);
    analysis::verify(&plan, &inferred).expect("verifies");
    analysis::simplify(&plan, &inferred).plan
}

/// The operators of a plan DAG, children before parents, each once.
fn post_order(plan: &PlanRef, seen: &mut BTreeSet<usize>, out: &mut Vec<PlanRef>) {
    if seen.insert(plan.id) {
        for child in plan.children() {
            post_order(&child, seen, out);
        }
        out.push(plan.clone());
    }
}

fn minus(after: ScanStats, before: ScanStats) -> ScanStats {
    ScanStats {
        nodes_scanned: after.nodes_scanned - before.nodes_scanned,
        contexts: after.contexts - before.contexts,
        results: after.results - before.results,
        passes: after.passes - before.passes,
        pages_skipped: after.pages_skipped - before.pages_skipped,
    }
}

#[test]
fn named_steps_touch_context_plus_result_rows() {
    let xml = generate_xml(&GenParams::with_factor(0.01));
    let db = Arc::new(Database::new());
    db.load_document("auction.xml", &xml).unwrap();
    let snapshot = db.snapshot();
    let scanning = ExecConfig {
        nametest_pushdown: false,
        ..ExecConfig::default()
    };
    let mut steps_checked = 0;
    for q in 1..=20 {
        for (leg, config) in [("index", ExecConfig::default()), ("scan", scanning)] {
            let plan = compile(query_text(q), config);
            let mut ops = Vec::new();
            post_order(&plan, &mut BTreeSet::new(), &mut ops);
            let mut executor = Executor::with_params(&snapshot, config, Params::new());
            for op in &ops {
                let Op::AxisStep {
                    ctx,
                    axis: axis @ (Axis::Child | Axis::Descendant | Axis::DescendantOrSelf),
                    test: test @ NodeTest::Named(_),
                } = &op.op
                else {
                    continue;
                };
                let context = executor.eval(ctx).unwrap();
                let before = executor.stats.staircase;
                executor.eval(op).unwrap();
                let step = minus(executor.stats.staircase, before);
                assert_eq!(step.passes, 1, "Q{q}: the step ran once, right now");

                // the context pairs, per container
                let iters = context.column("iter").unwrap().as_int().unwrap();
                let Column::Node(nodes) = context.column("item").unwrap() else {
                    panic!("Q{q}: a step context is a node column");
                };
                let frags: BTreeSet<u32> = nodes.iter().map(|n| n.frag).collect();
                // |axis::node()|: what the step yields without its name test
                let mut unfiltered = 0u64;
                for &frag in &frags {
                    let pairs: Vec<(i64, u32)> = iters
                        .iter()
                        .zip(nodes)
                        .filter(|(_, n)| n.frag == frag)
                        .map(|(&it, n)| (it, n.pre))
                        .collect();
                    let container = snapshot.resolve(executor.transient(), frag);
                    let mut any = ScanStats::default();
                    looplifted_step(container, &pairs, *axis, &NodeTest::AnyKind, &mut any);
                    unfiltered += any.results;
                }
                let bound = match leg {
                    "index" => step.contexts + step.results,
                    _ => step.contexts + unfiltered,
                };
                assert!(
                    step.nodes_scanned <= bound,
                    "Q{q} ({leg}) {axis}::{test:?}: {} rows touched for {} contexts, \
                     {} results, {unfiltered} unfiltered results",
                    step.nodes_scanned,
                    step.contexts,
                    step.results,
                );
                steps_checked += 1;
            }
        }
    }
    assert!(
        steps_checked > 100,
        "only {steps_checked} named steps found"
    );
}

#[test]
fn a_patch_after_a_publish_copies_only_the_chunks_it_touches() {
    let mut xml = String::from("<root>");
    for i in 0..2000 {
        xml.push_str(&format!("<r i=\"{i}\"><t>x{i}</t></r>"));
    }
    xml.push_str("</root>");
    let doc = shred("w.xml", &xml, &ShredOptions::default()).unwrap();
    let mut master = PagedDocument::from_document(&doc);
    let published = master.snapshot();
    let chunks = published.columns().chunk_count();
    assert!(chunks >= 5, "{chunks} chunks");

    // an insert deep inside the document: the splice lands in one chunk,
    // the ancestor size patch in the root's
    let target = NodeId::new(1, doc.elements_named("r")[1500]);
    // (of a name the dictionary knows: a new name re-codes every chunk)
    master.insert_last_child(target.pre, &fragment_from_xml("<t>more</t>"));
    let patched = master.columns();
    assert_eq!(patched.chunk_count(), chunks);
    let copied: Vec<usize> = (0..chunks)
        .filter(|&i| !patched.shares_chunk(i, published.columns(), i))
        .collect();
    let splice_chunk = published.columns().chunk_of(target.pre);
    assert_eq!(copied, vec![0, splice_chunk], "chunks copied by the patch");

    // the published image is untouched and still answers from its own index
    assert_eq!(published.len(), doc.len());
    assert_eq!(master.len(), doc.len() + 2);
    let t = published.lookup_qname("t").unwrap();
    let republished = master.snapshot();
    assert_eq!(
        published.run_named(target.pre, t).offsets.len() + 1,
        republished.run_named(target.pre, t).offsets.len(),
        "the patched chunk's index gained the new <t>; the published one did not"
    );
}

/// Two small documents for the child-step cases.
const D: &str =
    r#"<r><a id="a1"><f>1</f><f>2</f></a><a id="a2"><f>3</f><g><f>4</f></g></a><e/></r>"#;
const E: &str = r#"<s><a id="b1"><f>5</f></a><a id="b2"/></s>"#;

/// The serialization of `query` under the default configuration, after
/// checking that the scanning child step, `ExecConfig::naive()` (the
/// iterative staircase join) and the naive interpreter agree.
fn agreed(query: &str) -> String {
    let db = Arc::new(Database::new());
    db.load_document("d.xml", D).unwrap();
    db.load_document("e.xml", E).unwrap();
    let run = |config| {
        let mut session = db.session_with_config(config);
        session.query(query).unwrap().serialize().to_string()
    };
    let got = run(ExecConfig::default());
    let scanning = ExecConfig {
        nametest_pushdown: false,
        ..ExecConfig::default()
    };
    assert_eq!(got, run(scanning), "scanning child step on {query}");
    assert_eq!(
        got,
        run(ExecConfig::naive()),
        "ExecConfig::naive() on {query}"
    );
    let mut store = DocStore::new();
    store.load_xml("d.xml", D).unwrap();
    store.load_xml("e.xml", E).unwrap();
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

/// Child steps whose context holds one node per iteration walk it in
/// iteration order; every other context keeps the `(pre, iter)` sweep.
/// The cases pin the serializations of the sweep.
#[test]
fn child_steps_in_iteration_order_agree() {
    let cases = [
        // iterations with 0, 1 or many context nodes
        (
            r#"for $n in doc("d.xml")/r/* return <i>{count($n/f)}</i>"#,
            "<i>2</i><i>1</i><i>0</i>",
        ),
        (
            r#"for $i in (1, 2) return <i>{doc("d.xml")//a/f/text()}</i>"#,
            "<i>123</i><i>123</i>",
        ),
        (
            r#"for $a in doc("d.xml")//a return ($a/f, $a/g/f)"#,
            "<f>1</f><f>2</f><f>3</f><f>4</f>",
        ),
        // nested context nodes in one iteration
        (
            r#"for $i in (1, 2) return <i>{(doc("d.xml")//g, doc("d.xml")//a)/f/text()}</i>"#,
            "<i>1234</i><i>1234</i>",
        ),
        // iterations that descend in document order
        (
            r#"for $id in ("a2", "a1") return for $a in doc("d.xml")//a where $a/@id = $id return <i>{$a/f/text()}</i>"#,
            "<i>3</i><i>12</i>",
        ),
        (
            r#"for $id in ("a2", "a1"), $a in doc("d.xml")/r/a[@id = $id] return $a/*"#,
            "<f>3</f><g><f>4</f></g><f>1</f><f>2</f>",
        ),
        // contexts in the statement's transient fragment
        (
            r#"let $x := <x><a><f>t1</f></a><a><f>t2</f><f>t3</f></a></x> for $a in $x/a return <i>{$a/f/text()}</i>"#,
            "<i>t1</i><i>t2t3</i>",
        ),
        // contexts in two documents, and in a document and the transient
        (
            r#"for $a in (doc("d.xml")//a, doc("e.xml")//a) return <i>{$a/f/text()}</i>"#,
            "<i>12</i><i>3</i><i>5</i><i/>",
        ),
        (
            r#"for $a in (doc("e.xml")//a, <a><f>t</f></a>, doc("d.xml")//a) return <i>{$a/f/text()}</i>"#,
            "<i>5</i><i/><i>t</i><i>12</i><i>3</i>",
        ),
    ];
    for (query, want) in cases {
        assert_eq!(agreed(query), want, "{query}");
    }
}
