//! Property-based tests over the core invariants of the system:
//!
//! * shredding and serialization are inverses on arbitrary XML trees;
//! * the pre|size|level invariants hold for every shredded document;
//! * the loop-lifted staircase join agrees with the iterative staircase join
//!   on every axis, for arbitrary trees and arbitrary multi-iteration
//!   contexts, while touching no more document rows than |result|+|context|
//!   for the child axis;
//! * the paged and the naive structural-update schemes produce identical
//!   documents for arbitrary insert/delete sequences;
//! * the relational XQuery engine and the naive interpreter agree on simple
//!   generated queries over arbitrary documents;
//! * string dictionaries round-trip (encode→decode identity), never move a
//!   code they handed out, leave a shared copy untouched when they grow,
//!   append across dictionaries like their decoded strings, and a
//!   dictionary column sorts like its decoded strings.

use proptest::prelude::*;

use mxq::engine::sort::{is_sorted, sort_permutation, SortOrder};
use mxq::engine::{Column, Dictionary};
use mxq::staircase::{looplifted_step, staircase_step, Axis, NodeTest, ScanStats};
use mxq::xmldb::update::{fragment_from_xml, NaiveDocument, PagedDocument, StructuralUpdate};
use mxq::xmldb::NodeKind;
use mxq::xmldb::{serialize_document, shred, Document, ShredOptions};
use mxq::xquery::Database;

/// Switch on runtime plan validation for this test process, as
/// `MXQ_VALIDATE_PLANS=1` does: every executor built from here on asserts
/// the inferred plan properties against each table it materializes.
fn validate_plans() {
    std::env::set_var("MXQ_VALIDATE_PLANS", "1");
}

// ---------------------------------------------------------------------------
// random tree generation
// ---------------------------------------------------------------------------

/// A recursive strategy producing small random XML element trees.
fn arb_xml_tree() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        "[a-e]{1,6}".prop_map(|t| format!("<leaf>{t}</leaf>")),
        Just("<empty/>".to_string()),
        "[a-e]{1,4}".prop_map(|v| format!("<node attr=\"{v}\"/>")),
    ];
    leaf.prop_recursive(4, 64, 5, |inner| {
        (
            prop::sample::select(vec!["a", "b", "item", "person", "x"]),
            prop::collection::vec(inner, 0..5),
        )
            .prop_map(|(name, children)| format!("<{name}>{}</{name}>", children.join("")))
    })
}

fn doc_from(xml: &str) -> Document {
    shred("t.xml", xml, &ShredOptions::default()).expect("generated tree is well-formed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn shred_serialize_roundtrip(xml in arb_xml_tree()) {
        let doc = doc_from(&xml);
        doc.check_invariants().unwrap();
        let serialized = serialize_document(&doc);
        // serialization is a fixpoint: shredding it again yields the same text
        let doc2 = doc_from(&serialized);
        prop_assert_eq!(serialize_document(&doc2), serialized);
        prop_assert_eq!(doc2.len(), doc.len());
    }

    #[test]
    fn pre_size_level_invariants(xml in arb_xml_tree()) {
        let doc = doc_from(&xml);
        // size of the root covers the whole fragment
        prop_assert_eq!(doc.size(0) as usize, doc.len() - 1);
        // post order rank recovery stays within bounds and is unique
        let mut posts: Vec<i64> = (0..doc.len() as u32)
            .map(|p| p as i64 + doc.size(p) as i64 - doc.level(p) as i64)
            .collect();
        posts.sort_unstable();
        posts.dedup();
        prop_assert_eq!(posts.len(), doc.len());
    }

    #[test]
    fn looplifted_matches_iterative_on_all_axes(
        xml in arb_xml_tree(),
        picks in prop::collection::vec((1i64..4, 0usize..64), 1..12),
    ) {
        let doc = doc_from(&xml);
        let n = doc.len() as u32;
        let ctx: Vec<(i64, u32)> = picks
            .into_iter()
            .map(|(it, p)| (it, (p as u32) % n))
            .collect();
        for axis in [
            Axis::Child,
            Axis::Descendant,
            Axis::DescendantOrSelf,
            Axis::Parent,
            Axis::Ancestor,
            Axis::AncestorOrSelf,
            Axis::Following,
            Axis::Preceding,
            Axis::FollowingSibling,
            Axis::PrecedingSibling,
            Axis::SelfAxis,
        ] {
            let mut ll_stats = ScanStats::default();
            let got = looplifted_step(&doc, &ctx, axis, &NodeTest::AnyKind, &mut ll_stats);

            // reference: run the iterative staircase join once per iteration
            let mut want: Vec<(i64, u32)> = Vec::new();
            let mut iters: Vec<i64> = ctx.iter().map(|&(i, _)| i).collect();
            iters.sort_unstable();
            iters.dedup();
            for it in iters {
                let c: Vec<u32> = ctx.iter().filter(|&&(i, _)| i == it).map(|&(_, p)| p).collect();
                let mut st = ScanStats::default();
                for p in staircase_step(&doc, &c, axis, &NodeTest::AnyKind, &mut st) {
                    want.push((it, p));
                }
            }
            want.sort_unstable_by_key(|&(it, p)| (p, it));
            prop_assert_eq!(&got, &want, "axis {} on {}", axis, serialize_document(&doc));
        }
    }

    #[test]
    fn child_step_scan_bound(xml in arb_xml_tree(), picks in prop::collection::vec((1i64..4, 0usize..64), 1..10)) {
        let doc = doc_from(&xml);
        let n = doc.len() as u32;
        let mut ctx: Vec<(i64, u32)> = picks.into_iter().map(|(it, p)| (it, (p as u32) % n)).collect();
        ctx.sort_unstable();
        ctx.dedup();
        let mut stats = ScanStats::default();
        let result = looplifted_step(&doc, &ctx, Axis::Child, &NodeTest::AnyKind, &mut stats);
        // Section 3: never touch more than |result| + |context| nodes
        prop_assert!(
            stats.nodes_scanned <= (result.len() + ctx.len()) as u64,
            "scanned {} > result {} + context {}",
            stats.nodes_scanned,
            result.len(),
            ctx.len()
        );
        prop_assert_eq!(stats.passes, 1);
    }

    #[test]
    fn update_schemes_agree(
        xml in arb_xml_tree(),
        ops in prop::collection::vec((0usize..32, any::<bool>()), 1..10),
    ) {
        let doc = doc_from(&xml);
        let mut paged = PagedDocument::from_document(&doc);
        let mut naive = NaiveDocument::from_document(&doc);
        let frag = fragment_from_xml("<ins><x/>payload</ins>");
        for (target, is_insert) in ops {
            let len = paged.len() as u32;
            let pre = (target as u32) % len;
            if is_insert {
                // only elements may receive children
                if paged.kind(pre) == NodeKind::Element {
                    paged.insert_last_child(pre, &frag);
                    naive.insert_last_child(pre, &frag);
                }
            } else if pre != 0 && paged.len() > 1 {
                // never delete the root
                paged.delete_subtree(pre.max(1));
                naive.delete_subtree(pre.max(1));
            }
        }
        let a = serialize_document(&paged.to_document());
        let b = serialize_document(&naive.to_document());
        prop_assert_eq!(a, b);
        paged.to_document().check_invariants().unwrap();
    }

    #[test]
    fn dictionary_encode_decode_identity(
        rows in prop::collection::vec("[a-e0-9]{0,4}", 1..40),
    ) {
        let col = Column::dict_from_strings(rows.iter().map(|s| s.as_str()));
        prop_assert_eq!(col.len(), rows.len());
        let decoded: Vec<String> = col.iter_items().map(|i| i.string_value()).collect();
        prop_assert_eq!(&decoded, &rows, "encode→decode is the identity");
        // decode() produces an equivalent plain string column
        let plain = col.decode();
        let via_decode: Vec<String> = plain.iter_items().map(|i| i.string_value()).collect();
        prop_assert_eq!(&via_decode, &rows);
    }

    #[test]
    fn dictionary_sortedness_invariant(
        rows in prop::collection::vec("[a-e0-9]{0,4}", 1..40),
    ) {
        // codes follow first-seen order, not string order: a dictionary
        // column still sorts (and tests sorted) exactly like its strings
        let col = Column::dict_from_strings(rows.iter().map(|s| s.as_str()));
        let plain = col.decode();
        for order in [SortOrder::Asc, SortOrder::Desc] {
            prop_assert_eq!(
                sort_permutation(&[(&col, order)]),
                sort_permutation(&[(&plain, order)])
            );
        }
        prop_assert_eq!(is_sorted(&col), is_sorted(&plain));
        let sorted = col.gather(&sort_permutation(&[(&col, SortOrder::Asc)]));
        prop_assert!(is_sorted(&sorted));
    }

    #[test]
    fn interned_codes_never_move(
        first in prop::collection::vec("[a-e0-9]{0,3}", 0..20),
        later in prop::collection::vec("[a-e0-9]{0,3}", 1..20),
    ) {
        let (codes, mut dict) = Dictionary::encode(first.iter().map(|s| s.as_str()));
        let published = dict.clone();
        let later_codes: Vec<u32> = later.iter().map(|s| dict.intern(s)).collect();
        // every code handed out before still resolves to its string
        for (s, &c) in first.iter().zip(&codes) {
            prop_assert_eq!(dict.code_of(s), Some(c));
        }
        // str_of(code_of(s)) == s for every string ever interned
        for (s, &c) in later.iter().zip(&later_codes) {
            prop_assert_eq!(dict.code_of(s), Some(c));
            prop_assert_eq!(dict.str_of(c).as_ref(), s.as_str());
        }
        prop_assert!(dict.check().is_ok());
        // the shared copy saw none of the later strings it lacked
        let old: Vec<&str> = published.iter().map(|s| s.as_ref()).collect();
        let mut want: Vec<&str> = Vec::new();
        for s in &first {
            if !want.contains(&s.as_str()) {
                want.push(s);
            }
        }
        prop_assert_eq!(old, want);
    }

    #[test]
    fn dict_append_equals_decode_then_append(
        left in prop::collection::vec("[a-c]{0,3}", 0..20),
        right in prop::collection::vec("[b-e]{0,3}", 0..20),
    ) {
        let mut col = Column::dict_from_strings(left.iter().map(|s| s.as_str()));
        let other = Column::dict_from_strings(right.iter().map(|s| s.as_str()));
        let left_codes = col.dict_parts().map(|(c, _)| c.to_vec());
        let mut plain = col.decode();
        plain.append(&other.decode());
        col.append(&other);
        let strings = |c: &Column| -> Vec<String> { c.iter_items().map(|i| i.string_value()).collect() };
        prop_assert_eq!(strings(&col), strings(&plain));
        // only the right side's codes change
        let (codes, dict) = col.dict_parts().expect("two dictionary columns stay one");
        prop_assert_eq!(Some(codes[..left.len()].to_vec()), left_codes);
        prop_assert!(dict.check().is_ok());
    }

    #[test]
    fn inferred_plan_properties_hold_at_runtime(
        xml in arb_xml_tree(),
        name in prop::sample::select(vec!["a", "b", "item", "person", "leaf", "x"]),
        k in 1i64..4,
    ) {
        // a query mix exercising the analyser's main claims: document order
        // and duplicate-freeness of steps, attribute dictionaries, positional
        // cardinality, distinct elimination and join recognition
        let queries = [
            format!("count(doc(\"t.xml\")//{name})"),
            format!("doc(\"t.xml\")//{name}[@attr = \"a\"]"),
            format!("for $v in doc(\"t.xml\")//{name} return $v/@attr"),
            "distinct-values(doc(\"t.xml\")//node/@attr)".to_string(),
            format!("doc(\"t.xml\")//{name}[{k}]"),
            format!(
                "for $v in doc(\"t.xml\")//{name} order by $v/@attr \
                 return <r>{{$v/text()}}</r>"
            ),
            "for $l in doc(\"t.xml\")//leaf for $n in doc(\"t.xml\")//node \
             where $n/@attr = $l/text() return $n"
                .to_string(),
        ];
        let db = std::sync::Arc::new(Database::new());
        db.load_document("t.xml", &xml).unwrap();
        let mut session = db.session();
        let plain: Vec<String> = queries
            .iter()
            .map(|q| session.query(q).unwrap().serialize().to_string())
            .collect();
        validate_plans();
        for (q, a) in queries.iter().zip(plain) {
            // validation asserts every inferred property against every
            // intermediate table; a violation fails the query
            let b = session.query(q).unwrap().serialize().to_string();
            prop_assert_eq!(a, b, "validated result diverges for {}", q);
        }
    }

    #[test]
    fn inferred_properties_hold_for_update_scripts(
        xml in arb_xml_tree(),
        v in "[a-e]{1,4}",
        second in any::<bool>(),
    ) {
        let script = if second {
            format!(
                "insert nodes <n attr=\"{v}\"/> as last into doc(\"t.xml\")/*[1], \
                 delete nodes doc(\"t.xml\")//empty"
            )
        } else {
            format!("insert nodes <leaf>{v}</leaf> as first into doc(\"t.xml\")/*[1]")
        };
        let plain_db = std::sync::Arc::new(Database::new());
        plain_db.load_document("t.xml", &xml).unwrap();
        let checked_db = std::sync::Arc::new(Database::new());
        checked_db.load_document("t.xml", &xml).unwrap();
        plain_db.session().execute_update(&script).unwrap();
        validate_plans();
        checked_db.session().execute_update(&script).unwrap();
        let q = "count(doc(\"t.xml\")//*)";
        prop_assert_eq!(
            plain_db.session().query(q).unwrap().serialize().to_string(),
            checked_db.session().query(q).unwrap().serialize().to_string()
        );
    }

    #[test]
    fn engine_agrees_with_naive_on_generated_counts(xml in arb_xml_tree(), name in prop::sample::select(vec!["a", "b", "item", "person", "leaf", "x"])) {
        let query = format!("count(doc(\"t.xml\")//{name})");
        let db = std::sync::Arc::new(Database::new());
        db.load_document("t.xml", &xml).unwrap();
        let relational = db.session().query(&query).unwrap().serialize().to_string();

        let mut store = mxq::xmldb::DocStore::new();
        store.load_xml("t.xml", &xml).unwrap();
        let snap = store.snapshot();
        let mut naive = mxq::xmark::naive::NaiveInterpreter::new(&snap);
        let items = naive.run(&query).unwrap();
        let reference = naive.serialize(&items);
        prop_assert_eq!(relational, reference);
    }
}
