//! Exhaustive per-axis checks of the staircase join against a brute-force
//! oracle on the paper's Figure 4 document and on a deeper synthetic tree.
//!
//! The oracle evaluates each axis by its set definition over the pre/size
//! encoding (no pruning, no skipping), so any divergence points at the
//! staircase join's optimisations.
//!
//! The property test at the end holds the loop-lifted step — scanning and
//! name-index variants, on the flat document and on the paged read view cut
//! into tiny chunks — to the iterative staircase join run once per
//! iteration, on random multi-fragment documents, every axis, and random
//! multi-iteration contexts (overlapping, nested, with duplicate pairs).

use proptest::prelude::*;

use mxq_staircase::{
    child_step_in_iter_order, looplifted_step, looplifted_step_candidates, staircase_step, Axis,
    NodeTest, ScanStats,
};
use mxq_xmldb::shred::{shred, ShredOptions};
use mxq_xmldb::update::PagedDocument;
use mxq_xmldb::{Document, DocumentBuilder, NodeRead};

fn fig4() -> Document {
    shred(
        "fig4",
        "<a><b><c><d/><e/></c></b><f><g/><h><i/><j/></h></f></a>",
        &ShredOptions::default(),
    )
    .unwrap()
}

fn deep() -> Document {
    // a 3-level comb: root with 6 children, each with 3 children, some text
    let mut xml = String::from("<root>");
    for i in 0..6 {
        xml.push_str(&format!("<branch id=\"{i}\">"));
        for j in 0..3 {
            xml.push_str(&format!("<twig n=\"{j}\">t{i}{j}</twig>"));
        }
        xml.push_str("</branch>");
    }
    xml.push_str("</root>");
    shred("deep", &xml, &ShredOptions::default()).unwrap()
}

/// Brute-force oracle for one axis from one context node.
fn oracle(doc: &Document, c: u32, axis: Axis) -> Vec<u32> {
    let n = doc.len() as u32;
    let in_subtree = |anc: u32, v: u32| v > anc && v <= anc + doc.size(anc);
    (0..n)
        .filter(|&v| match axis {
            Axis::Child => doc.parent(v) == Some(c),
            Axis::Descendant => in_subtree(c, v),
            Axis::DescendantOrSelf => v == c || in_subtree(c, v),
            Axis::SelfAxis => v == c,
            Axis::Parent => doc.parent(c) == Some(v),
            Axis::Ancestor => in_subtree(v, c),
            Axis::AncestorOrSelf => v == c || in_subtree(v, c),
            Axis::Following => v > c + doc.size(c),
            Axis::Preceding => v + doc.size(v) < c,
            Axis::FollowingSibling => {
                doc.parent(v) == doc.parent(c) && doc.parent(c).is_some() && v > c
            }
            Axis::PrecedingSibling => {
                doc.parent(v) == doc.parent(c) && doc.parent(c).is_some() && v < c
            }
            Axis::Attribute => false,
        })
        .collect()
}

const AXES: [Axis; 11] = [
    Axis::Child,
    Axis::Descendant,
    Axis::DescendantOrSelf,
    Axis::SelfAxis,
    Axis::Parent,
    Axis::Ancestor,
    Axis::AncestorOrSelf,
    Axis::Following,
    Axis::Preceding,
    Axis::FollowingSibling,
    Axis::PrecedingSibling,
];

#[test]
fn iterative_staircase_matches_oracle_for_every_single_context() {
    for doc in [fig4(), deep()] {
        for axis in AXES {
            for c in 0..doc.len() as u32 {
                let mut stats = ScanStats::default();
                let got = staircase_step(&doc, &[c], axis, &NodeTest::AnyKind, &mut stats);
                let want = oracle(&doc, c, axis);
                assert_eq!(got, want, "axis {axis} from context {c} in {}", doc.name);
            }
        }
    }
}

#[test]
fn iterative_staircase_matches_oracle_for_context_sets() {
    let doc = deep();
    let n = doc.len() as u32;
    // a handful of multi-node context sets, including nested and overlapping ones
    let contexts: Vec<Vec<u32>> = vec![
        vec![0, 1, 2],
        vec![1, 5, 9],
        (0..n).step_by(3).collect(),
        vec![n - 1, n - 2, 0],
        (0..n).collect(),
    ];
    for axis in AXES {
        for ctx in &contexts {
            let mut stats = ScanStats::default();
            let got = staircase_step(&doc, ctx, axis, &NodeTest::AnyKind, &mut stats);
            let mut want: Vec<u32> = ctx.iter().flat_map(|&c| oracle(&doc, c, axis)).collect();
            want.sort_unstable();
            want.dedup();
            assert_eq!(got, want, "axis {axis} for context {ctx:?}");
        }
    }
}

#[test]
fn looplifted_results_are_per_iteration_duplicate_free_and_document_ordered() {
    let doc = deep();
    let n = doc.len() as u32;
    let ctx: Vec<(i64, u32)> = (0..n).map(|p| ((p % 5) as i64 + 1, p)).collect();
    for axis in AXES {
        let mut stats = ScanStats::default();
        let result = looplifted_step(&doc, &ctx, axis, &NodeTest::AnyKind, &mut stats);
        // sorted by (pre, iter) and free of duplicates
        let mut sorted = result.clone();
        sorted.sort_unstable_by_key(|&(it, p)| (p, it));
        sorted.dedup();
        assert_eq!(result, sorted, "axis {axis} output order");
        assert_eq!(stats.passes, 1);
        assert_eq!(stats.results, result.len() as u64);
    }
}

#[test]
fn nametest_filters_apply_during_the_scan() {
    let doc = deep();
    let mut stats = ScanStats::default();
    let root_ctx = vec![(1i64, 0u32)];
    let twigs = looplifted_step(
        &doc,
        &root_ctx,
        Axis::Descendant,
        &NodeTest::named("twig"),
        &mut stats,
    );
    assert_eq!(twigs.len(), 18);
    let branches = looplifted_step(
        &doc,
        &root_ctx,
        Axis::Child,
        &NodeTest::named("branch"),
        &mut stats,
    );
    assert_eq!(branches.len(), 6);
    let none = looplifted_step(
        &doc,
        &root_ctx,
        Axis::Descendant,
        &NodeTest::named("nope"),
        &mut stats,
    );
    assert!(none.is_empty());
    let text = looplifted_step(
        &doc,
        &root_ctx,
        Axis::Descendant,
        &NodeTest::Text,
        &mut stats,
    );
    assert_eq!(text.len(), 18);
}

#[test]
fn candidate_pushdown_equals_scan_with_nametest_on_larger_contexts() {
    let doc = deep();
    let branches: Vec<(i64, u32)> = doc
        .elements_named("branch")
        .iter()
        .enumerate()
        .map(|(i, &p)| ((i % 2) as i64 + 1, p))
        .collect();
    for axis in [Axis::Child, Axis::Descendant, Axis::DescendantOrSelf] {
        let mut s1 = ScanStats::default();
        let scan = looplifted_step(&doc, &branches, axis, &NodeTest::named("twig"), &mut s1);
        let mut s2 = ScanStats::default();
        let push = looplifted_step_candidates(&doc, &branches, axis, "twig", &mut s2);
        assert_eq!(scan, push, "axis {axis}");
    }
}

// ---------------------------------------------------------------------------
// loop-lifted step == per-iteration staircase join, on random inputs
// ---------------------------------------------------------------------------

/// Small random element trees over a five-name vocabulary, so names recur
/// at every depth (a `child::a` step meets `a` elements below child level).
fn arb_tree() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        "[a-c]{1,3}".prop_map(|t| format!("<a>{t}</a>")),
        Just("<b/>".to_string()),
        Just("<c><a/></c>".to_string()),
    ];
    leaf.prop_recursive(5, 80, 4, |inner| {
        (
            prop::sample::select(vec!["a", "b", "c", "d", "e"]),
            prop::collection::vec(inner, 0..4),
        )
            .prop_map(|(name, kids)| format!("<{name}>{}</{name}>", kids.join("")))
    })
}

/// One container holding every tree as a fragment of its own.
fn container_of(trees: &[String]) -> Document {
    let mut b = DocumentBuilder::new("multi");
    for xml in trees {
        let tree = shred("t", xml, &ShredOptions::default()).expect("well-formed");
        b.copy_subtree(&tree, 0);
    }
    b.finish()
}

/// The reference: one iterative staircase join per iteration.
fn per_iteration(
    doc: &Document,
    ctx: &[(i64, u32)],
    axis: Axis,
    test: &NodeTest,
) -> Vec<(i64, u32)> {
    let mut iters: Vec<i64> = ctx.iter().map(|&(it, _)| it).collect();
    iters.sort_unstable();
    iters.dedup();
    let mut out = Vec::new();
    for it in iters {
        let own: Vec<u32> = ctx.iter().filter(|c| c.0 == it).map(|c| c.1).collect();
        let found = staircase_step(doc, &own, axis, test, &mut ScanStats::default());
        out.extend(found.into_iter().map(|p| (it, p)));
    }
    out.sort_unstable_by_key(|&(it, p)| (p, it));
    out
}

/// Every way the executor can run the step over one representation.
fn check_steps<D: NodeRead>(doc: &D, flat: &Document, ctx: &[(i64, u32)], what: &str) {
    let tests = [
        NodeTest::AnyKind,
        NodeTest::AnyElement,
        NodeTest::Text,
        NodeTest::named("a"),
        NodeTest::named("d"),
        NodeTest::named("absent"),
    ];
    for axis in AXES {
        for test in &tests {
            let want = per_iteration(flat, ctx, axis, test);
            let mut stats = ScanStats::default();
            let got = looplifted_step(doc, ctx, axis, test, &mut stats);
            assert_eq!(got, want, "{what}: scanning {axis}::{test:?} for {ctx:?}");
            assert_eq!(stats.results, want.len() as u64);
            if let NodeTest::Named(name) = test {
                let mut stats = ScanStats::default();
                let got = looplifted_step_candidates(doc, ctx, axis, name, &mut stats);
                assert_eq!(got, want, "{what}: indexed {axis}::{name} for {ctx:?}");
                assert_eq!(stats.results, want.len() as u64);
            }
        }
    }
    // the child step over one context node per iteration, walked in
    // iteration order: the nodes come in any document order, so the
    // name-index cursor revisits storage runs out of order
    let one_per_iter: Vec<(i64, u32)> = (1..).zip(ctx.iter().map(|&(_, p)| p)).collect();
    for test in &tests {
        let mut want = per_iteration(flat, &one_per_iter, Axis::Child, test);
        want.sort_unstable();
        for pushdown in [false, true] {
            let mut got = Vec::new();
            let mut stats = ScanStats::default();
            child_step_in_iter_order(
                doc,
                one_per_iter.iter().copied(),
                test,
                pushdown,
                &mut stats,
                |it, pos, pre| got.push((it, pos, pre)),
            );
            let positions_run = got.windows(2).all(|w| {
                if w[0].0 == w[1].0 {
                    w[1].1 == w[0].1 + 1
                } else {
                    w[1].1 == 1
                }
            });
            assert!(
                got.first().is_none_or(|g| g.1 == 1) && positions_run,
                "{what}: positions"
            );
            let got: Vec<(i64, u32)> = got.into_iter().map(|(it, _, pre)| (it, pre)).collect();
            assert_eq!(
                got, want,
                "{what}: child::{test:?} in iteration order, pushdown {pushdown}"
            );
            assert_eq!(stats.results, want.len() as u64);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn looplifted_step_equals_per_iteration_staircase_join(
        trees in prop::collection::vec(arb_tree(), 1..4),
        picks in prop::collection::vec((0i64..4, 0usize..10_000), 0..24),
        chunk_rows in prop::sample::select(vec![2usize, 8, 1024]),
    ) {
        let flat = container_of(&trees);
        // contexts anywhere in the container: nested, overlapping, repeated
        let mut ctx: Vec<(i64, u32)> = picks
            .iter()
            .map(|&(it, p)| (it, (p % flat.len()) as u32))
            .collect();
        ctx.extend_from_within(..ctx.len() / 3);
        check_steps(&flat, &flat, &ctx, "flat document");

        // the paged read view, its column image cut so that context regions
        // straddle chunks
        let mut paged = PagedDocument::from_document(&flat);
        paged.rechunk_columns(chunk_rows);
        check_steps(&paged.snapshot(), &flat, &ctx, "paged snapshot");
    }
}
