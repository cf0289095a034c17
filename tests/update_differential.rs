//! Differential testing of the update path: random update scripts applied
//! through the pending-update-list machinery to
//!
//! * the paged scheme ([`PagedDocument`], at chunk row targets from 2 to
//!   the default, so splices cross chunks, split them and empty them),
//! * the naive renumbering scheme ([`NaiveDocument`]), and
//! * a reshred of the serialized result (shred ∘ serialize fixpoint)
//!
//! must agree exactly, and every materialized document must satisfy the
//! pre|size|level invariants.  A second suite drives the same comparison
//! end-to-end through `XQueryEngine::execute_update` on an XMark document.

use proptest::prelude::*;

use mxq::engine::NodeId;
use mxq::xmldb::columns::DEFAULT_CHUNK_ROWS;
use mxq::xmldb::update::{fragment_from_xml, NaiveDocument, PagedDocument, StructuralUpdate};
use mxq::xmldb::{serialize_document, shred, Document, NodeKind, ShredOptions};
use mxq::xquery::{Database, PendingUpdateList, UpdatePrimitive};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// random scripts over random trees
// ---------------------------------------------------------------------------

/// A recursive strategy producing small random XML trees: elements with
/// text, attribute, comment and PI leaves, under one `<r>` root (a comment
/// or PI cannot be the document element).
fn arb_xml_tree() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        "[a-e]{1,6}".prop_map(|t| format!("<leaf>{t}</leaf>")),
        Just("<empty/>".to_string()),
        "[a-e]{1,4}".prop_map(|v| format!("<node attr=\"{v}\"/>")),
        Just("<!--c-->".to_string()),
        Just("<?pi d?>".to_string()),
    ];
    leaf.prop_recursive(4, 48, 4, |inner| {
        (
            prop::sample::select(vec!["a", "b", "item", "person", "x"]),
            prop::collection::vec(inner, 0..4),
        )
            .prop_map(|(name, children)| format!("<{name}>{}</{name}>", children.join("")))
    })
    .prop_map(|tree| format!("<r>{tree}</r>"))
}

/// One symbolic update op; targets are picked by index into the non-root
/// node/element lists of the *snapshot* document.
#[derive(Debug, Clone)]
enum ScriptOp {
    InsertFirst(usize, &'static str),
    InsertLast(usize, &'static str),
    InsertBefore(usize, &'static str),
    InsertAfter(usize, &'static str),
    Delete(usize),
    ReplaceNode(usize, &'static str),
    ReplaceValue(usize, String),
    ReplaceLeafValue(usize, String),
    Rename(usize, &'static str),
    SetAttr(usize, &'static str, String),
    RemoveAttr(usize, &'static str),
}

const FRAGS: [&str; 5] = [
    "<k/>",
    "<k><l/><m>t</m></k>",
    "<p q=\"1\">text</p>",
    "<deep><a><b><c/></b></a></deep>",
    "<n><!--note--><?t v?></n>",
];

fn frag_strategy() -> impl Strategy<Value = &'static str> {
    prop::sample::select(FRAGS.to_vec())
}

fn arb_op() -> impl Strategy<Value = ScriptOp> {
    prop_oneof![
        (0usize..64, frag_strategy()).prop_map(|(i, f)| ScriptOp::InsertFirst(i, f)),
        (0usize..64, frag_strategy()).prop_map(|(i, f)| ScriptOp::InsertLast(i, f)),
        (0usize..64, frag_strategy()).prop_map(|(i, f)| ScriptOp::InsertBefore(i, f)),
        (0usize..64, frag_strategy()).prop_map(|(i, f)| ScriptOp::InsertAfter(i, f)),
        (0usize..64).prop_map(ScriptOp::Delete),
        (0usize..64, frag_strategy()).prop_map(|(i, f)| ScriptOp::ReplaceNode(i, f)),
        (0usize..64, "[a-d]{0,5}").prop_map(|(i, v)| ScriptOp::ReplaceValue(i, v)),
        (0usize..64, "[a-d]{1,5}").prop_map(|(i, v)| ScriptOp::ReplaceLeafValue(i, v)),
        (0usize..64, prop::sample::select(vec!["rn1", "rn2"]))
            .prop_map(|(i, n)| ScriptOp::Rename(i, n)),
        (
            0usize..64,
            prop::sample::select(vec!["attr", "zz"]),
            "[a-d]{0,4}"
        )
            .prop_map(|(i, n, v)| ScriptOp::SetAttr(i, n, v)),
        (0usize..64, prop::sample::select(vec!["attr", "zz"]))
            .prop_map(|(i, n)| ScriptOp::RemoveAttr(i, n)),
    ]
}

/// Resolve a script against a snapshot into a conflict-free PUL.  Ops whose
/// index has no valid target (or that would conflict) are skipped — the same
/// resolution is used for every scheme, so the comparison stays exact.
fn resolve(doc: &Document, script: &[ScriptOp]) -> PendingUpdateList {
    let frag_id = 1u32;
    let non_roots: Vec<u32> = (0..doc.len() as u32)
        .filter(|&p| doc.level(p) > 0)
        .collect();
    let of_kinds = |kinds: &[NodeKind]| -> Vec<u32> {
        (0..doc.len() as u32)
            .filter(|&p| kinds.contains(&doc.kind(p)))
            .collect()
    };
    let elements = of_kinds(&[NodeKind::Element]);
    // text, comment and PI rows: their value lives in the text column
    let leaves = of_kinds(&[
        NodeKind::Text,
        NodeKind::Comment,
        NodeKind::ProcessingInstruction,
    ]);
    let renamable = of_kinds(&[NodeKind::Element, NodeKind::ProcessingInstruction]);
    let pick = |list: &[u32], i: usize| -> Option<u32> {
        if list.is_empty() {
            None
        } else {
            Some(list[i % list.len()])
        }
    };
    let mut pul = PendingUpdateList::new();
    for op in script {
        let prim = match op {
            ScriptOp::InsertFirst(i, f) => {
                pick(&elements, *i).map(|p| UpdatePrimitive::InsertInto {
                    parent: NodeId::new(frag_id, p),
                    first: true,
                    content: fragment_from_xml(f),
                })
            }
            ScriptOp::InsertLast(i, f) => {
                pick(&elements, *i).map(|p| UpdatePrimitive::InsertInto {
                    parent: NodeId::new(frag_id, p),
                    first: false,
                    content: fragment_from_xml(f),
                })
            }
            ScriptOp::InsertBefore(i, f) => {
                pick(&non_roots, *i).map(|p| UpdatePrimitive::InsertBefore {
                    target: NodeId::new(frag_id, p),
                    content: fragment_from_xml(f),
                })
            }
            ScriptOp::InsertAfter(i, f) => {
                pick(&non_roots, *i).map(|p| UpdatePrimitive::InsertAfter {
                    target: NodeId::new(frag_id, p),
                    content: fragment_from_xml(f),
                })
            }
            ScriptOp::Delete(i) => pick(&non_roots, *i).map(|p| UpdatePrimitive::Delete {
                target: NodeId::new(frag_id, p),
            }),
            ScriptOp::ReplaceNode(i, f) => {
                pick(&non_roots, *i).map(|p| UpdatePrimitive::ReplaceNode {
                    target: NodeId::new(frag_id, p),
                    content: fragment_from_xml(f),
                })
            }
            ScriptOp::ReplaceValue(i, v) => {
                pick(&elements, *i).map(|p| UpdatePrimitive::ReplaceValue {
                    target: NodeId::new(frag_id, p),
                    value: v.clone(),
                })
            }
            ScriptOp::ReplaceLeafValue(i, v) => {
                pick(&leaves, *i).map(|p| UpdatePrimitive::ReplaceValue {
                    target: NodeId::new(frag_id, p),
                    value: v.clone(),
                })
            }
            ScriptOp::Rename(i, n) => pick(&renamable, *i).map(|p| UpdatePrimitive::Rename {
                target: NodeId::new(frag_id, p),
                name: n.to_string(),
            }),
            ScriptOp::SetAttr(i, n, v) => {
                pick(&elements, *i).map(|p| UpdatePrimitive::SetAttribute {
                    elem: NodeId::new(frag_id, p),
                    name: n.to_string(),
                    value: v.clone(),
                })
            }
            ScriptOp::RemoveAttr(i, n) => {
                pick(&elements, *i).map(|p| UpdatePrimitive::RemoveAttribute {
                    elem: NodeId::new(frag_id, p),
                    name: n.to_string(),
                })
            }
        };
        if let Some(prim) = prim {
            // conflicting ops (two renames of one node, …) are legitimately
            // rejected — skip them so the scripts stay applicable
            let _ = pul.add(prim);
        }
    }
    pul
}

/// Deletes may nest (delete an ancestor and a descendant): the descendant's
/// snapshot position is consumed by the ancestor delete for reshredding
/// purposes, but both schemes resolve it identically — so only require that
/// the two schemes agree, plus reshred-fixpoint and invariants.
fn check_script(xml: &str, script: &[ScriptOp]) {
    check_script_at(xml, script, &[2, 4, 16, DEFAULT_CHUNK_ROWS]);
}

/// `check_script` with the paged scheme run at the given chunk sizes only.
fn check_script_at(xml: &str, script: &[ScriptOp], chunk_sizes: &[usize]) {
    let doc = shred("d.xml", xml, &ShredOptions::default()).expect("generated tree parses");
    let pul = resolve(&doc, script);
    let mut naive = NaiveDocument::from_document(&doc);
    let applied = pul.apply_to(1, &mut naive);
    let naive_doc = naive.to_document();
    naive_doc.check_invariants().unwrap();
    let naive_xml = serialize_document(&naive_doc);

    // the paged scheme at every chunk geometry: two-row chunks make nearly
    // every splice cross a chunk bound, split a chunk or empty one
    for &chunk_rows in chunk_sizes {
        let mut paged = PagedDocument::from_document(&doc);
        paged.rechunk_columns(chunk_rows);
        assert_eq!(
            pul.apply_to(1, &mut paged),
            applied,
            "chunk size {chunk_rows}: both schemes apply the same primitive count"
        );
        let paged_doc = paged.to_document();
        paged_doc.check_invariants().unwrap();
        assert_eq!(
            serialize_document(&paged_doc),
            naive_xml,
            "chunk size {chunk_rows}: paged vs naive disagreement"
        );
        // incremental column maintenance: the image patched primitive by
        // primitive must be well-formed (sizes, summaries, posting index,
        // text column) and agree with a from-scratch rebuild of the naive
        // result, in release too — the commit pipeline's debug assert only
        // covers debug builds
        let cols = paged.columns();
        cols.check_invariants()
            .unwrap_or_else(|e| panic!("chunk size {chunk_rows}: broken image: {e}"));
        cols.same_content(naive_doc.columns()).unwrap_or_else(|e| {
            panic!("chunk size {chunk_rows}: incremental vs rebuilt columns diverged: {e}")
        });
        // the published snapshot serves the same logical view
        assert_eq!(serialize_document(&paged.snapshot()), naive_xml);
    }

    // reshred of the serialized result must be a fixpoint with the same
    // node count (guards against corrupt size/level maintenance that still
    // happens to serialize identically)
    if !naive_xml.is_empty() && naive_doc.fragment_roots().count() == 1 {
        let reshred = shred("re.xml", &naive_xml, &ShredOptions::default())
            .expect("serialized update result must reparse");
        assert_eq!(serialize_document(&reshred), naive_xml);
        assert_eq!(reshred.len(), naive_doc.len(), "node count after reshred");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_scripts_agree_across_schemes(
        xml in arb_xml_tree(),
        script in prop::collection::vec(arb_op(), 1..12),
    ) {
        // every prefix: the image (and its name index) is checked after
        // each step of the script, not only at its end
        for steps in 1..=script.len() {
            check_script(&xml, &script[..steps]);
        }
    }

    #[test]
    fn random_scripts_agree_under_small_tight_pages(
        xml in arb_xml_tree(),
        script in prop::collection::vec(arb_op(), 8..24),
    ) {
        // stress chunk splits: long scripts splicing into tiny chunks
        check_script_at(&xml, &script, &[2, 4]);
    }

    #[test]
    fn random_scripts_agree_under_large_loose_pages(
        xml in arb_xml_tree(),
        script in prop::collection::vec(arb_op(), 8..24),
    ) {
        // long scripts whose splices mostly land inside one large chunk
        check_script_at(&xml, &script, &[16, DEFAULT_CHUNK_ROWS]);
    }
}

/// Grow one chunk until it splits (twice its row target), at both chunk
/// sizes the store runs with: the split pieces' posting indexes must be the
/// ones a rebuild produces, and an index-driven step must see every element
/// on either side of the new chunk boundaries.
#[test]
fn name_index_survives_chunk_splits() {
    use mxq::staircase::{looplifted_step, looplifted_step_candidates, Axis, NodeTest, ScanStats};
    let doc = shred("d.xml", "<r><k/><x><k/></x></r>", &ShredOptions::default()).unwrap();
    for chunk_rows in [64usize, 1024] {
        let mut paged = PagedDocument::from_document(&doc);
        paged.rechunk_columns(chunk_rows);
        let frag = fragment_from_xml("<k><x/></k>");
        let inserts = 3 * chunk_rows / 2;
        for i in 0..inserts {
            paged.insert_first_child(0, &frag);
            if i % (chunk_rows / 8) != 0 && i + 1 != inserts {
                continue;
            }
            // an independent image of the same state: a reshred of its
            // serialization, chunked and indexed from scratch
            let now = shred(
                "d.xml",
                &serialize_document(&paged.snapshot()),
                &ShredOptions::default(),
            )
            .unwrap();
            paged
                .columns()
                .same_content(now.columns())
                .unwrap_or_else(|e| panic!("chunk size {chunk_rows}, insert {i}: {e}"));
            let snap = paged.snapshot();
            for axis in [Axis::Child, Axis::Descendant] {
                let indexed = looplifted_step_candidates(
                    &snap,
                    &[(1, 0)],
                    axis,
                    "k",
                    &mut ScanStats::default(),
                );
                let scanned = looplifted_step(
                    &now,
                    &[(1, 0)],
                    axis,
                    &NodeTest::named("k"),
                    &mut ScanStats::default(),
                );
                assert_eq!(
                    indexed, scanned,
                    "chunk size {chunk_rows}, insert {i}, {axis}"
                );
            }
        }
        assert!(
            paged.columns().chunk_count() > 2,
            "chunk size {chunk_rows}: {inserts} inserts must split a chunk"
        );
    }
}

// ---------------------------------------------------------------------------
// end-to-end: XQUF text over an XMark document
// ---------------------------------------------------------------------------

#[test]
fn xmark_mixed_query_update_round_trip() {
    // MXQ_SCALE grows the document (the CI chunk-scan smoke job uses 0.01)
    let factor: f64 = match std::env::var("MXQ_SCALE") {
        Ok(raw) if !raw.trim().is_empty() => raw
            .trim()
            .parse()
            .expect("MXQ_SCALE must be a positive number"),
        _ => 0.0005,
    };
    let xml = mxq::xmark::gen::generate_xml(&mxq::xmark::gen::GenParams::with_factor(factor));
    let db = Arc::new(Database::new());
    db.load_document("auction.xml", &xml).unwrap();
    let mut s = db.session();
    let count = |s: &mut mxq::xquery::Session| -> i64 {
        s.query("count(doc(\"auction.xml\")/site/open_auctions/open_auction/bidder)")
            .unwrap()
            .serialize()
            .parse()
            .unwrap()
    };
    let before = count(&mut s);
    s.execute_update(
        "insert nodes <bidder><date>2006-07-28</date><increase>6.00</increase></bidder> \
         as last into doc(\"auction.xml\")/site/open_auctions/open_auction[1]",
    )
    .unwrap();
    s.execute_update(
        "insert nodes <bidder><date>2006-07-29</date><increase>1.50</increase></bidder> \
         as first into doc(\"auction.xml\")/site/open_auctions/open_auction[1]",
    )
    .unwrap();
    assert_eq!(count(&mut s), before + 2);
    s.execute_update(
        "delete nodes doc(\"auction.xml\")/site/open_auctions/open_auction[1]/bidder[1]",
    )
    .unwrap();
    assert_eq!(count(&mut s), before + 1);
    // the mutated store still answers a real XMark query
    assert!(s.query(mxq::xmark::queries::query_text(1)).is_ok());
    // the serialized paged store state (rendered from the column image)
    // reparses cleanly and reshreds to the same incremental column image
    let text = {
        let store = db.store();
        let frag = store.lookup("auction.xml").unwrap();
        serialize_document(store.container(frag))
    };
    let opts = ShredOptions {
        document_node: true,
        ..ShredOptions::default()
    };
    let reshred = shred("check.xml", &text, &opts).unwrap();
    reshred.check_invariants().unwrap();
    assert_eq!(serialize_document(&reshred), text);
    // structural agreement beyond serialization: the reshred and the paged
    // store must hold the same node count (guards size/level corruption
    // that happens to serialize identically)
    {
        let store = db.store();
        let frag = store.lookup("auction.xml").unwrap();
        assert_eq!(store.container(frag).len(), reshred.len());
    }
    db.document_columns("auction.xml")
        .unwrap()
        .same_content(reshred.columns())
        .expect("published columns diverged from a reshred of the store");
}

/// Durability is a pure persistence knob: the same mixed workload driven
/// through a durable database, crash-recovered from its write-ahead log,
/// must agree byte-for-byte with the in-memory run — which this suite
/// already holds to the paged-vs-naive differential oracle.  The recovered
/// image gets the same reshred-fixpoint and column checks.
#[test]
fn recovered_store_agrees_with_in_memory_oracle() {
    let dir = std::env::temp_dir().join(format!("mxq-dur-diff-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let xml = mxq::xmark::gen::generate_xml(&mxq::xmark::gen::GenParams::with_factor(0.0005));
    let statements = [
        "insert nodes <bidder><date>2006-07-28</date><increase>6.00</increase></bidder> \
         as last into doc(\"auction.xml\")/site/open_auctions/open_auction[1]",
        "insert nodes <bidder><date>2006-07-29</date><increase>1.50</increase></bidder> \
         as first into doc(\"auction.xml\")/site/open_auctions/open_auction[2]",
        "delete nodes doc(\"auction.xml\")/site/open_auctions/open_auction[1]/bidder[1]",
        "replace value of node doc(\"auction.xml\")/site/open_auctions/open_auction[3]/current \
         with \"99.99\"",
        "rename node doc(\"auction.xml\")/site/open_auctions/open_auction[4]/type as \"kind\"",
    ];

    // in-memory oracle
    let mem = Arc::new(Database::new());
    mem.load_document("auction.xml", &xml).unwrap();
    let mut s = mem.session();
    for stmt in &statements {
        s.execute_update(stmt).unwrap();
    }

    // durable run: same statements, half followed by a checkpoint, then a
    // simulated crash (drop without checkpoint) and recovery
    {
        let db = Arc::new(mxq::xquery::Database::open(&dir).unwrap());
        db.load_document("auction.xml", &xml).unwrap();
        let mut s = db.session();
        for (i, stmt) in statements.iter().enumerate() {
            s.execute_update(stmt).unwrap();
            if i == statements.len() / 2 {
                db.checkpoint().unwrap();
            }
        }
    }
    let recovered = mxq::xquery::Database::open(&dir).unwrap();

    let text_of = |db: &Database| {
        let store = db.store();
        let frag = store.lookup("auction.xml").unwrap();
        serialize_document(store.container(frag))
    };
    let text = text_of(&recovered);
    assert_eq!(text, text_of(&mem), "recovered vs in-memory serialization");
    assert_eq!(recovered.generation(), mem.generation());

    let opts = ShredOptions {
        document_node: true,
        ..ShredOptions::default()
    };
    let reshred = shred("check.xml", &text, &opts).unwrap();
    reshred.check_invariants().unwrap();
    assert_eq!(serialize_document(&reshred), text);
    recovered
        .document_columns("auction.xml")
        .unwrap()
        .same_content(reshred.columns())
        .expect("recovered columns diverged from a reshred of the store");
    recovered
        .document_columns("auction.xml")
        .unwrap()
        .same_content(&mem.document_columns("auction.xml").unwrap())
        .expect("recovered columns diverged from the in-memory oracle's");
    let _ = std::fs::remove_dir_all(&dir);
}
