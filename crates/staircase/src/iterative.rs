//! The plain (iterative) staircase join: evaluates one XPath location step
//! for a *single* context node sequence.
//!
//! This is the algorithm of \[19\] with its three techniques — pruning,
//! partitioning and skipping (Figures 1–3 of the paper).  Inside an XQuery
//! for-loop it must be invoked once per iteration, performing one sequential
//! pass over the document encoding each time; the loop-lifted variant in
//! [`crate::looplifted`] removes exactly this overhead (Figure 12).

use mxq_xmldb::NodeRead;

use crate::axis::Axis;
use crate::nametest::{CompiledTest, NodeTest};
use crate::stats::ScanStats;

/// Evaluate one location step for a single context node sequence.
///
/// The context is a set of preorder ranks (any order, duplicates allowed);
/// the result is duplicate free and in document order, as required by XPath.
pub fn staircase_step<D: NodeRead>(
    doc: &D,
    ctx: &[u32],
    axis: Axis,
    test: &NodeTest,
    stats: &mut ScanStats,
) -> Vec<u32> {
    stats.passes += 1;
    stats.contexts += ctx.len() as u64;
    let mut ctx: Vec<u32> = ctx.to_vec();
    ctx.sort_unstable();
    ctx.dedup();
    if ctx.is_empty() {
        return Vec::new();
    }
    // resolve the node test once: name tests become qname-id comparisons
    let test = &test.compile(doc);
    let mut result = match axis {
        Axis::Child => child(doc, &ctx, test, stats),
        Axis::Descendant => descendant(doc, &ctx, test, stats, false),
        Axis::DescendantOrSelf => descendant(doc, &ctx, test, stats, true),
        Axis::SelfAxis => self_axis(doc, &ctx, test, stats),
        Axis::Parent => parent(doc, &ctx, test, stats),
        Axis::Ancestor => ancestor(doc, &ctx, test, stats, false),
        Axis::AncestorOrSelf => ancestor(doc, &ctx, test, stats, true),
        Axis::Following => following(doc, &ctx, test, stats),
        Axis::Preceding => preceding(doc, &ctx, test, stats),
        Axis::FollowingSibling => siblings(doc, &ctx, test, stats, true),
        Axis::PrecedingSibling => siblings(doc, &ctx, test, stats, false),
        Axis::Attribute => Vec::new(),
    };
    result.sort_unstable();
    result.dedup();
    stats.results += result.len() as u64;
    result
}

/// Prune context nodes covered by (i.e. inside the subtree of) another
/// context node — Figure 1.  `ctx` must be sorted ascending.
pub fn prune_covered<D: NodeRead>(doc: &D, ctx: &[u32]) -> Vec<u32> {
    let mut out: Vec<u32> = Vec::with_capacity(ctx.len());
    let mut cover_end: Option<u32> = None;
    for &c in ctx {
        match cover_end {
            Some(end) if c <= end => continue,
            _ => {
                cover_end = Some(c + doc.size(c));
                out.push(c);
            }
        }
    }
    out
}

fn child<D: NodeRead>(
    doc: &D,
    ctx: &[u32],
    test: &CompiledTest,
    stats: &mut ScanStats,
) -> Vec<u32> {
    let mut out = Vec::new();
    for &c in ctx {
        for v in doc.children(c) {
            stats.nodes_scanned += 1;
            if test.matches(doc, v) {
                out.push(v);
            }
        }
    }
    out
}

fn descendant<D: NodeRead>(
    doc: &D,
    ctx: &[u32],
    test: &CompiledTest,
    stats: &mut ScanStats,
    or_self: bool,
) -> Vec<u32> {
    // Pruning makes the remaining subtree ranges disjoint; scanning them in
    // order yields document order directly, skipping everything in between.
    // Within a range, whole storage runs (column chunks) whose summary rules
    // out the test are skipped without touching a node.
    let pruned = prune_covered(doc, ctx);
    let mut out = Vec::new();
    for &c in &pruned {
        let mut v = if or_self { c } else { c + 1 };
        let end = c + doc.size(c);
        while v <= end {
            let run_end = doc.run_end(v).min(end);
            if !test.may_match_run(doc, v) {
                stats.pages_skipped += 1;
                v = run_end + 1;
                continue;
            }
            while v <= run_end {
                stats.nodes_scanned += 1;
                if test.matches(doc, v) {
                    out.push(v);
                }
                v += 1;
            }
        }
    }
    if or_self {
        // context nodes pruned away are still their own descendant-or-self
        for &c in ctx {
            if test.matches(doc, c) {
                out.push(c);
            }
        }
    }
    out
}

fn self_axis<D: NodeRead>(
    doc: &D,
    ctx: &[u32],
    test: &CompiledTest,
    stats: &mut ScanStats,
) -> Vec<u32> {
    stats.nodes_scanned += ctx.len() as u64;
    ctx.iter()
        .copied()
        .filter(|&c| test.matches(doc, c))
        .collect()
}

fn parent<D: NodeRead>(
    doc: &D,
    ctx: &[u32],
    test: &CompiledTest,
    stats: &mut ScanStats,
) -> Vec<u32> {
    let mut out = Vec::new();
    for &c in ctx {
        if let Some(p) = doc.parent(c) {
            stats.nodes_scanned += 1;
            if test.matches(doc, p) {
                out.push(p);
            }
        }
    }
    out
}

fn ancestor<D: NodeRead>(
    doc: &D,
    ctx: &[u32],
    test: &CompiledTest,
    stats: &mut ScanStats,
    or_self: bool,
) -> Vec<u32> {
    let mut out = Vec::new();
    for &c in ctx {
        if or_self && test.matches(doc, c) {
            out.push(c);
        }
        let mut cur = c;
        while let Some(p) = doc.parent(cur) {
            stats.nodes_scanned += 1;
            if test.matches(doc, p) {
                out.push(p);
            }
            cur = p;
        }
    }
    out
}

fn following<D: NodeRead>(
    doc: &D,
    ctx: &[u32],
    test: &CompiledTest,
    stats: &mut ScanStats,
) -> Vec<u32> {
    // Partitioning (Figure 2): the context node with the smallest
    // pre + size boundary covers the whole following region of the set.
    let boundary = ctx.iter().map(|&c| c + doc.size(c)).min().unwrap();
    let mut out = Vec::new();
    let end = doc.len() as u32 - 1;
    let mut v = boundary + 1;
    while v <= end {
        let run_end = doc.run_end(v);
        if !test.may_match_run(doc, v) {
            stats.pages_skipped += 1;
            v = run_end + 1;
            continue;
        }
        while v <= run_end {
            stats.nodes_scanned += 1;
            if test.matches(doc, v) {
                out.push(v);
            }
            v += 1;
        }
    }
    out
}

fn preceding<D: NodeRead>(
    doc: &D,
    ctx: &[u32],
    test: &CompiledTest,
    stats: &mut ScanStats,
) -> Vec<u32> {
    // The context node with the largest pre covers the whole preceding
    // region; ancestors (subtree still open at that pre) are excluded.
    let boundary = *ctx.iter().max().unwrap();
    let mut out = Vec::new();
    let mut v = 0u32;
    while v < boundary {
        // runs that cannot match contribute nothing (the ancestor check
        // below only gates emission), so they are skipped wholesale
        if !test.may_match_run(doc, v) {
            stats.pages_skipped += 1;
            v = (doc.run_end(v) + 1).min(boundary);
            continue;
        }
        stats.nodes_scanned += 1;
        if v + doc.size(v) < boundary {
            if test.matches(doc, v) {
                out.push(v);
            }
            v += 1;
        } else {
            // v is an ancestor of the boundary node: its subtree may still
            // contain preceding nodes, so descend (do not skip the subtree).
            v += 1;
        }
    }
    out
}

fn siblings<D: NodeRead>(
    doc: &D,
    ctx: &[u32],
    test: &CompiledTest,
    stats: &mut ScanStats,
    following: bool,
) -> Vec<u32> {
    let mut out = Vec::new();
    for &c in ctx {
        let Some(p) = doc.parent(c) else { continue };
        for v in doc.children(p) {
            stats.nodes_scanned += 1;
            let keep = if following { v > c } else { v < c };
            if keep && test.matches(doc, v) {
                out.push(v);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mxq_xmldb::shred::{shred, ShredOptions};
    use mxq_xmldb::Document;

    /// The Figure 4 document: <a><b><c><d/><e/></c></b><f><g/><h><i/><j/></h></f></a>
    fn fig4() -> Document {
        shred(
            "fig4",
            "<a><b><c><d/><e/></c></b><f><g/><h><i/><j/></h></f></a>",
            &ShredOptions::default(),
        )
        .unwrap()
    }

    fn step(doc: &Document, ctx: &[u32], axis: Axis) -> Vec<u32> {
        let mut stats = ScanStats::default();
        staircase_step(doc, ctx, axis, &NodeTest::AnyKind, &mut stats)
    }

    #[test]
    fn descendant_with_pruning() {
        let d = fig4();
        // (c, e, f, i)/descendant — e and i are covered by c and f (Figure 1 analogue)
        let res = step(&d, &[2, 4, 5, 8], Axis::Descendant);
        assert_eq!(res, vec![3, 4, 6, 7, 8, 9]);
    }

    #[test]
    fn ancestor_results() {
        let d = fig4();
        // (c,e,f,i)/ancestor = {a, b, c, f, h}
        let res = step(&d, &[2, 4, 5, 8], Axis::Ancestor);
        assert_eq!(res, vec![0, 1, 2, 5, 7]);
    }

    #[test]
    fn child_axis_uses_skipping() {
        let d = fig4();
        let mut stats = ScanStats::default();
        let res = staircase_step(&d, &[0, 5], Axis::Child, &NodeTest::AnyKind, &mut stats);
        assert_eq!(res, vec![1, 5, 6, 7]);
        // children only: b,f for a and g,h for f — exactly 4 nodes scanned
        assert_eq!(stats.nodes_scanned, 4);
    }

    #[test]
    fn following_and_preceding() {
        let d = fig4();
        // (c,g,i)/following (Figure 2): following(c)={f,g,h,i,j}, following(g)={h,i,j}, following(i)={j}
        let res = step(&d, &[2, 6, 8], Axis::Following);
        assert_eq!(res, vec![5, 6, 7, 8, 9]);
        // preceding of {e(4), g(6)}: preceding(g) = {b,c,d,e} ∪ preceding(e)={d}
        let res = step(&d, &[4, 6], Axis::Preceding);
        assert_eq!(res, vec![1, 2, 3, 4]);
    }

    #[test]
    fn parent_self_and_siblings() {
        let d = fig4();
        assert_eq!(step(&d, &[3, 4, 8], Axis::Parent), vec![2, 7]);
        assert_eq!(step(&d, &[3, 4], Axis::SelfAxis), vec![3, 4]);
        assert_eq!(step(&d, &[1], Axis::FollowingSibling), vec![5]);
        assert_eq!(step(&d, &[9], Axis::PrecedingSibling), vec![8]);
        assert_eq!(step(&d, &[0], Axis::Ancestor), Vec::<u32>::new());
    }

    #[test]
    fn descendant_or_self_and_nametest() {
        let d = fig4();
        let mut stats = ScanStats::default();
        let res = staircase_step(
            &d,
            &[7],
            Axis::DescendantOrSelf,
            &NodeTest::AnyKind,
            &mut stats,
        );
        assert_eq!(res, vec![7, 8, 9]);
        let res = staircase_step(
            &d,
            &[0],
            Axis::Descendant,
            &NodeTest::named("h"),
            &mut stats,
        );
        assert_eq!(res, vec![7]);
    }

    #[test]
    fn pruning_helper() {
        let d = fig4();
        assert_eq!(prune_covered(&d, &[2, 4, 5, 8]), vec![2, 5]);
        assert_eq!(prune_covered(&d, &[0, 1, 2, 3]), vec![0]);
    }

    #[test]
    fn empty_context_yields_empty_result() {
        let d = fig4();
        assert!(step(&d, &[], Axis::Descendant).is_empty());
    }
}
