//! The loop-lifted staircase join (Section 3 of the paper).
//!
//! The context is the relational encoding of *all* context node sequences of
//! all iterations of the enclosing for-loops: a set of `(iter, pre)` pairs,
//! processed in `(pre, iter)` order so that context nodes appear in document
//! order and, per context node, all interested iterations appear clustered.
//!
//! Compared to the plain staircase join:
//!
//! * **pruning** removes a context pair only when it is covered by an earlier
//!   context node *of the same iteration*;
//! * **partitioning** is implemented with a stack of active context nodes,
//!   each annotated with the iterations it is active for (Figure 6);
//! * **skipping** is unchanged — the algorithms below touch at most
//!   `|result| + |context|` rows of the document encoding and keep a strictly
//!   forward (or strictly backward, for reverse axes) access pattern.
//!
//! The context is one flat `(pre, iter)`-sorted slice throughout: the
//! iterations of a context node are a *run* of that slice, the partitioning
//! stacks hold borrowed runs, and nothing is allocated per context node.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Range;

use mxq_xmldb::{Document, NamedRun};

use crate::axis::Axis;
use crate::nametest::{CompiledTest, NodeTest};
use crate::stats::ScanStats;

/// A context pair: (iteration number, preorder rank).
pub type CtxPair = (i64, u32);

/// The `(pre, iter)` sort key of a pair.
fn key(&(iter, pre): &CtxPair) -> (u32, i64) {
    (pre, iter)
}

/// The context in strict `(pre, iter)` order — borrowed when it arrives
/// that way (every single-iteration step, every `for $x in …/tag` step),
/// sorted and de-duplicated otherwise.
fn ordered(ctx: &[CtxPair]) -> Cow<'_, [CtxPair]> {
    if ctx.windows(2).all(|w| key(&w[0]) < key(&w[1])) {
        return Cow::Borrowed(ctx);
    }
    let mut sorted = ctx.to_vec();
    sorted.sort_unstable_by_key(key);
    sorted.dedup();
    Cow::Owned(sorted)
}

/// The runs of equal `pre` of an ordered context: one per context node,
/// holding the iterations it is a context node of (ascending).
fn groups(ctx: &[CtxPair]) -> impl Iterator<Item = &[CtxPair]> {
    ctx.chunk_by(|a, b| a.1 == b.1)
}

/// Evaluate one location step for all iterations at once.
///
/// The result contains, for every iteration, the duplicate-free set of result
/// nodes of that iteration; it is returned sorted by `(pre, iter)` (document
/// order, iterations clustered per node), mirroring the emission order of the
/// algorithm in Figure 6.
pub fn looplifted_step(
    doc: &Document,
    ctx: &[CtxPair],
    axis: Axis,
    test: &NodeTest,
    stats: &mut ScanStats,
) -> Vec<CtxPair> {
    stats.passes += 1;
    stats.contexts += ctx.len() as u64;
    let ctx = &*ordered(ctx);
    // resolve the node test once: name tests become qname-id comparisons
    let test = &test.compile(doc);
    let result = match axis {
        Axis::Child => ll_child(doc, ctx, test, stats),
        Axis::Descendant => ll_descendant(doc, ctx, Matches::Scan(test), stats, false),
        Axis::DescendantOrSelf => ll_descendant(doc, ctx, Matches::Scan(test), stats, true),
        Axis::SelfAxis => ctx
            .iter()
            .copied()
            .filter(|&(_, p)| {
                stats.nodes_scanned += 1;
                test.matches(doc, p)
            })
            .collect(),
        Axis::Parent => ll_parent(doc, ctx, test, stats),
        Axis::Ancestor => ll_ancestor(doc, ctx, test, stats, false),
        Axis::AncestorOrSelf => ll_ancestor(doc, ctx, test, stats, true),
        Axis::Following => ll_following(doc, ctx, test, stats),
        Axis::Preceding => ll_preceding(doc, ctx, test, stats),
        Axis::FollowingSibling => ll_siblings(doc, ctx, test, stats, true),
        Axis::PrecedingSibling => ll_siblings(doc, ctx, test, stats, false),
        Axis::Attribute => Vec::new(),
    };
    finish(result, stats)
}

/// The nametest-pushdown variant of Section 3.2: instead of scanning the
/// document encoding, a `child`/`descendant(-or-self)::name` step consumes
/// the *candidate list* of the name — the container's element-name index,
/// read run by run ([`Document::run_named`]) — and touches only the
/// candidates inside the context regions: `|context| + |result|` rows (plus,
/// for `child`, the same-named elements below child level that are not
/// themselves inside a result).  No document-wide list is ever built; the
/// other axes evaluate the name test on the scanning path.
pub fn looplifted_step_candidates(
    doc: &Document,
    ctx: &[CtxPair],
    axis: Axis,
    name: &str,
    stats: &mut ScanStats,
) -> Vec<CtxPair> {
    let indexed = matches!(
        axis,
        Axis::Child | Axis::Descendant | Axis::DescendantOrSelf
    );
    if !indexed {
        return looplifted_step(doc, ctx, axis, &NodeTest::named(name), stats);
    }
    stats.passes += 1;
    stats.contexts += ctx.len() as u64;
    let ctx = &*ordered(ctx);
    let Some(code) = doc.lookup_qname(name) else {
        return Vec::new();
    };
    let index = NameIndex::new(doc, code);
    let result = match axis {
        Axis::Child => named_child(doc, ctx, index, stats),
        _ => {
            let or_self = axis == Axis::DescendantOrSelf;
            ll_descendant(doc, ctx, Matches::Index(index), stats, or_self)
        }
    };
    finish(result, stats)
}

/// Close a step: the sweeps emit in `(pre, iter)` order whenever the context
/// regions are disjoint; nested regions emit region by region and are put
/// back in order here.  The upward and sibling axes can reach one node from
/// several context nodes of an iteration, hence the de-duplication.
fn finish(mut result: Vec<CtxPair>, stats: &mut ScanStats) -> Vec<CtxPair> {
    if !result.windows(2).all(|w| key(&w[0]) <= key(&w[1])) {
        result.sort_unstable_by_key(key);
    }
    result.dedup();
    stats.results += result.len() as u64;
    result
}

/// A cursor over the element-name index of one name: remembers the storage
/// run it looked at last, so consecutive small context regions inside one
/// run share a single index lookup, and every run it has looked at, so
/// contexts that come back to a run (one node per iteration, in iteration
/// order) find it again without a lookup.
struct NameIndex<'d> {
    doc: &'d Document,
    code: u32,
    run: NamedRun<'d>,
    /// The runs looked up so far, by their last preorder rank (runs are
    /// disjoint).
    seen: BTreeMap<u32, NamedRun<'d>>,
}

impl<'d> NameIndex<'d> {
    fn new(doc: &'d Document, code: u32) -> Self {
        NameIndex {
            doc,
            code,
            // an empty run that contains no position: the first lookup loads
            run: NamedRun {
                base: 1,
                offsets: &[],
                end: 0,
            },
            seen: BTreeMap::new(),
        }
    }

    /// The index entries of the run containing `pre`.
    fn run_at(&mut self, pre: u32, stats: &mut ScanStats) -> NamedRun<'d> {
        if pre < self.run.base || pre > self.run.end {
            self.run = match self.seen.range(pre..).next() {
                Some((_, &run)) if run.base <= pre => run,
                _ => {
                    let run = self.doc.run_named(pre, self.code);
                    self.seen.insert(run.end, run);
                    run
                }
            };
            if self.run.offsets.is_empty() {
                // the index rules the whole run out
                stats.pages_skipped += 1;
            }
        }
        self.run
    }
}

/// How a sweep finds the nodes of a region that satisfy the node test.
enum Matches<'t, 'd> {
    /// Scan the region, skipping storage runs whose summary rules the test
    /// out (the page-level bookkeeping of Section 5.2).
    Scan(&'t CompiledTest),
    /// Read the candidates of a name test off the element-name index.
    Index(NameIndex<'d>),
}

impl Matches<'_, '_> {
    /// Call `emit` for every matching node of `lo..=hi`, in document order.
    fn for_each_in(
        &mut self,
        doc: &Document,
        lo: u32,
        hi: u32,
        stats: &mut ScanStats,
        mut emit: impl FnMut(u32),
    ) {
        let mut v = lo;
        while v <= hi {
            match self {
                Matches::Scan(test) => {
                    let run_end = doc.run_end(v).min(hi);
                    if !test.may_match_run(doc, v) {
                        stats.pages_skipped += 1;
                        v = run_end + 1;
                        continue;
                    }
                    while v <= run_end {
                        stats.nodes_scanned += 1;
                        if test.matches(doc, v) {
                            emit(v);
                        }
                        v += 1;
                    }
                }
                Matches::Index(index) => {
                    let run = index.run_at(v, stats);
                    let from = run.offsets.partition_point(|&o| run.base + o < v);
                    for &o in &run.offsets[from..] {
                        if run.base + o > hi {
                            return;
                        }
                        stats.nodes_scanned += 1;
                        emit(run.base + o);
                    }
                    v = run.end + 1;
                }
            }
        }
    }
}

/// Loop-lifted child step — the algorithm of Figure 6.
fn ll_child(
    doc: &Document,
    ctx: &[CtxPair],
    test: &CompiledTest,
    stats: &mut ScanStats,
) -> Vec<CtxPair> {
    struct Active<'c> {
        /// end of scope: last preorder rank inside the context's subtree
        eos: u32,
        /// next child to process
        nxt_child: u32,
        /// the iterations this context node is active for
        iters: &'c [CtxPair],
    }

    let mut result: Vec<CtxPair> = Vec::new();
    let mut active: Vec<Active> = Vec::new();

    // emit the children of the top-of-stack context up to and including `until`
    let inner_loop_child =
        |top: &mut Active, until: u32, result: &mut Vec<CtxPair>, stats: &mut ScanStats| {
            let mut v = top.nxt_child;
            while v <= until && v <= top.eos {
                stats.nodes_scanned += 1;
                if test.matches(doc, v) {
                    result.extend(top.iters.iter().map(|&(it, _)| (it, v)));
                }
                v = v + doc.size(v) + 1; // skip the child's subtree (skipping)
            }
            top.nxt_child = v;
        };

    for group in groups(ctx) {
        let pre = group[0].1;
        // contexts that end before this one are finished: 4, 5
        while let Some(top) = active.last_mut() {
            if pre <= top.eos {
                // this context is a descendant of the current one: 2
                inner_loop_child(top, pre, &mut result, stats);
                break;
            }
            let eos = top.eos;
            inner_loop_child(top, eos, &mut result, stats);
            active.pop();
        }
        stats.nodes_scanned += 1; // the context node itself is inspected
        active.push(Active {
            eos: pre + doc.size(pre),
            nxt_child: pre + 1,
            iters: group,
        }); // 1, 3
    }
    while let Some(mut top) = active.pop() {
        let eos = top.eos;
        inner_loop_child(&mut top, eos, &mut result, stats); // 6, 7
    }
    result
}

/// `child::name` off the element-name index, one context node at a time
/// ([`named_children`]).
fn named_child(
    doc: &Document,
    ctx: &[CtxPair],
    mut index: NameIndex<'_>,
    stats: &mut ScanStats,
) -> Vec<CtxPair> {
    let mut result: Vec<CtxPair> = Vec::new();
    for group in groups(ctx) {
        named_children(doc, group[0].1, &mut index, stats, |cand| {
            result.extend(group.iter().map(|&(it, _)| (it, cand)));
        });
    }
    result
}

/// The children of `pre` off the element-name index, in document order:
/// the candidates inside its subtree, each either a child (emitted) or
/// deeper (dropped) — and in both cases nothing below it can be a child, so
/// the candidate's whole subtree is jumped over without being touched.
fn named_children(
    doc: &Document,
    pre: u32,
    index: &mut NameIndex<'_>,
    stats: &mut ScanStats,
    mut emit: impl FnMut(u32),
) {
    let eos = pre + doc.size(pre);
    let child_level = doc.level(pre) + 1;
    let mut v = pre + 1;
    'region: while v <= eos {
        let run = index.run_at(v, stats);
        let from = run.offsets.partition_point(|&o| run.base + o < v);
        for &o in &run.offsets[from..] {
            let cand = run.base + o;
            if cand > eos {
                break 'region;
            }
            if cand < v {
                continue; // inside a subtree already jumped over
            }
            stats.nodes_scanned += 1;
            if doc.level(cand) == child_level {
                emit(cand);
            }
            v = cand + doc.size(cand) + 1;
        }
        v = v.max(run.end + 1);
    }
}

/// The child step over a context that holds one node per iteration, in
/// ascending iteration order (`for $t in … return $t/name` inside an outer
/// loop).  Such a context has nothing to prune, so it is walked as it
/// comes, with no `(pre, iter)` sort: per context node, its children (off
/// the element-name index for a name test when `pushdown` is set, by a
/// scan of the child list otherwise) go to `emit(iter, pos, pre)` already
/// in `[iter, pos]` order, numbered `1..k` per iteration.
pub fn child_step_in_iter_order(
    doc: &Document,
    ctx: impl IntoIterator<Item = CtxPair>,
    test: &NodeTest,
    pushdown: bool,
    stats: &mut ScanStats,
    mut emit: impl FnMut(i64, i64, u32),
) {
    stats.passes += 1;
    let compiled = test.compile(doc);
    let mut index = match compiled {
        CompiledTest::Element(Some(code)) if pushdown => Some(NameIndex::new(doc, code)),
        _ => None,
    };
    // a name the container does not hold has no children to find
    let none = compiled == CompiledTest::Element(None);
    let mut results = 0;
    for (it, pre) in ctx {
        stats.contexts += 1;
        if none {
            continue;
        }
        let mut pos = 0;
        let mut child = |v| {
            pos += 1;
            emit(it, pos, v);
        };
        match &mut index {
            Some(index) => named_children(doc, pre, index, stats, &mut child),
            None => {
                stats.nodes_scanned += 1; // the context node itself is inspected
                let eos = pre + doc.size(pre);
                let mut v = pre + 1;
                while v <= eos {
                    stats.nodes_scanned += 1;
                    if compiled.matches(doc, v) {
                        child(v);
                    }
                    v += doc.size(v) + 1;
                }
            }
        }
        results += pos as u64;
    }
    stats.results += results;
}

/// An open context region of the descendant sweep; its iterations are a
/// range of the context pairs that survived pruning.
struct Open {
    eos: u32,
    iters: Range<usize>,
}

/// Loop-lifted descendant / descendant-or-self step: a single forward sweep
/// with a stack of open context regions annotated with their iterations.
/// Pruning is per iteration and happens on the way: a context pair whose
/// iteration is already open in an enclosing region adds nothing.
fn ll_descendant(
    doc: &Document,
    ctx: &[CtxPair],
    mut matches: Matches<'_, '_>,
    stats: &mut ScanStats,
    or_self: bool,
) -> Vec<CtxPair> {
    let (scanning, self_test) = match &matches {
        Matches::Scan(test) => (true, (*test).clone()),
        Matches::Index(index) => (false, CompiledTest::Element(Some(index.code))),
    };
    let mut result: Vec<CtxPair> = Vec::new();
    // the context pairs that survive pruning, one run per open region
    let mut kept: Vec<CtxPair> = Vec::with_capacity(ctx.len());
    let mut open: Vec<Open> = Vec::new();
    // first preorder rank the sweep has not passed yet
    let mut next = 0u32;

    // sweep `next..=until`: every match is a descendant of all open regions
    let mut sweep = |open: &[Open],
                     kept: &[CtxPair],
                     next: &mut u32,
                     until: u32,
                     result: &mut Vec<CtxPair>,
                     stats: &mut ScanStats| {
        matches.for_each_in(doc, *next, until, stats, |v| {
            for region in open {
                result.extend(kept[region.iters.clone()].iter().map(|&(it, _)| (it, v)));
            }
        });
        *next = until + 1;
    };

    for group in groups(ctx) {
        let pre = group[0].1;
        while let Some(top) = open.last() {
            if pre <= top.eos {
                break;
            }
            sweep(&open, &kept, &mut next, top.eos, &mut result, stats);
            open.pop();
        }
        if scanning {
            stats.nodes_scanned += 1; // the context node itself is inspected
        }
        if open.is_empty() {
            // nothing between two regions is ever touched
            next = pre + 1;
        } else {
            // `pre` itself is a descendant of the regions around it
            sweep(&open, &kept, &mut next, pre, &mut result, stats);
        }
        let first = kept.len();
        for &(it, _) in group {
            let covered = open.iter().any(|region| {
                kept[region.iters.clone()]
                    .binary_search_by_key(&it, |&(i, _)| i)
                    .is_ok()
            });
            if !covered {
                kept.push((it, pre));
            }
        }
        if or_self && self_test.matches(doc, pre) {
            // the covered iterations got `pre` from the region covering them
            result.extend_from_slice(&kept[first..]);
        }
        if kept.len() > first {
            open.push(Open {
                eos: pre + doc.size(pre),
                iters: first..kept.len(),
            });
        }
    }
    while let Some(top) = open.last() {
        sweep(&open, &kept, &mut next, top.eos, &mut result, stats);
        open.pop();
    }
    result
}

fn ll_parent(
    doc: &Document,
    ctx: &[CtxPair],
    test: &CompiledTest,
    stats: &mut ScanStats,
) -> Vec<CtxPair> {
    let mut out = Vec::new();
    for group in groups(ctx) {
        if let Some(p) = doc.parent(group[0].1) {
            stats.nodes_scanned += 1;
            if test.matches(doc, p) {
                out.extend(group.iter().map(|&(it, _)| (it, p)));
            }
        }
    }
    out
}

fn ll_ancestor(
    doc: &Document,
    ctx: &[CtxPair],
    test: &CompiledTest,
    stats: &mut ScanStats,
    or_self: bool,
) -> Vec<CtxPair> {
    let mut out = Vec::new();
    for group in groups(ctx) {
        let pre = group[0].1;
        if or_self && test.matches(doc, pre) {
            out.extend_from_slice(group);
        }
        let mut cur = pre;
        while let Some(p) = doc.parent(cur) {
            stats.nodes_scanned += 1;
            if test.matches(doc, p) {
                out.extend(group.iter().map(|&(it, _)| (it, p)));
            }
            cur = p;
        }
    }
    out
}

/// One `(boundary, iter)` entry per iteration, ascending: the `bound` of an
/// iteration folded over its context nodes with `pick`.
fn per_iter_boundary(
    ctx: &[CtxPair],
    bound: impl Fn(u32) -> u32,
    pick: impl Fn(u32, u32) -> u32,
) -> Vec<(u32, i64)> {
    let mut by_iter: Vec<(i64, u32)> = ctx.iter().map(|&(it, p)| (it, bound(p))).collect();
    by_iter.sort_unstable();
    let mut bounds: Vec<(u32, i64)> = by_iter
        .chunk_by(|a, b| a.0 == b.0)
        .map(|run| {
            let b = run.iter().map(|&(_, b)| b).reduce(&pick);
            (b.expect("runs are non-empty"), run[0].0)
        })
        .collect();
    bounds.sort_unstable();
    bounds
}

fn ll_following(
    doc: &Document,
    ctx: &[CtxPair],
    test: &CompiledTest,
    stats: &mut ScanStats,
) -> Vec<CtxPair> {
    // per-iteration partition boundary: the smallest pre+size of that iter
    let iters = per_iter_boundary(ctx, |p| p + doc.size(p), u32::min);
    let Some(&(min_b, _)) = iters.first() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut active: Vec<i64> = Vec::new();
    let mut next = 0usize;
    let end = doc.len() as u32 - 1;
    let mut v = min_b + 1;
    while v <= end {
        // skip whole runs that cannot match; activation catches up after
        // the jump (activations matter only at emission points)
        let run_end = doc.run_end(v);
        if !test.may_match_run(doc, v) {
            stats.pages_skipped += 1;
            v = run_end + 1;
            continue;
        }
        while v <= run_end {
            while next < iters.len() && iters[next].0 < v {
                active.push(iters[next].1);
                next += 1;
            }
            stats.nodes_scanned += 1;
            if test.matches(doc, v) {
                for &it in &active {
                    out.push((it, v));
                }
            }
            v += 1;
        }
    }
    out
}

fn ll_preceding(
    doc: &Document,
    ctx: &[CtxPair],
    test: &CompiledTest,
    stats: &mut ScanStats,
) -> Vec<CtxPair> {
    // per-iteration boundary: the largest context pre of that iter
    let bounds = per_iter_boundary(ctx, |p| p, u32::max);
    let Some(&(max_b, _)) = bounds.last() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for v in 0..max_b {
        stats.nodes_scanned += 1;
        let end = v + doc.size(v);
        if !test.matches(doc, v) {
            continue;
        }
        // v precedes iteration `it` iff its subtree closes before that
        // iteration's boundary context node
        let idx = bounds.partition_point(|&(b, _)| b <= end);
        for &(_, it) in &bounds[idx..] {
            out.push((it, v));
        }
    }
    out
}

fn ll_siblings(
    doc: &Document,
    ctx: &[CtxPair],
    test: &CompiledTest,
    stats: &mut ScanStats,
    following: bool,
) -> Vec<CtxPair> {
    let mut out = Vec::new();
    for group in groups(ctx) {
        let pre = group[0].1;
        let Some(p) = doc.parent(pre) else { continue };
        for v in doc.children(p) {
            stats.nodes_scanned += 1;
            let keep = if following { v > pre } else { v < pre };
            if keep && test.matches(doc, v) {
                out.extend(group.iter().map(|&(it, _)| (it, v)));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iterative::staircase_step;
    use mxq_xmldb::shred::{shred, ShredOptions};
    use mxq_xmldb::Document;

    fn fig4() -> Document {
        shred(
            "fig4",
            "<a><b><c><d/><e/></c></b><f><g/><h><i/><j/></h></f></a>",
            &ShredOptions::default(),
        )
        .unwrap()
    }

    /// Reference: evaluate per iteration with the iterative staircase join.
    fn reference(doc: &Document, ctx: &[CtxPair], axis: Axis, test: &NodeTest) -> Vec<CtxPair> {
        let mut iters: Vec<i64> = ctx.iter().map(|&(it, _)| it).collect();
        iters.sort_unstable();
        iters.dedup();
        let mut out = Vec::new();
        for it in iters {
            let c: Vec<u32> = ctx
                .iter()
                .filter(|&&(i, _)| i == it)
                .map(|&(_, p)| p)
                .collect();
            let mut stats = ScanStats::default();
            for p in staircase_step(doc, &c, axis, test, &mut stats) {
                out.push((it, p));
            }
        }
        out.sort_unstable_by_key(|&(it, p)| (p, it));
        out
    }

    fn check_axis(axis: Axis, ctx: &[CtxPair]) {
        let doc = fig4();
        let mut stats = ScanStats::default();
        let got = looplifted_step(&doc, ctx, axis, &NodeTest::AnyKind, &mut stats);
        let want = reference(&doc, ctx, axis, &NodeTest::AnyKind);
        assert_eq!(got, want, "axis {axis}");
    }

    #[test]
    fn paper_example_child_step() {
        // Section 3.1: iteration 1 has context (c1), iteration 2 has (c1, c2);
        // with c1 = f (pre 5) and c2 = h (pre 7): children of f are g,h and of h are i,j.
        let doc = fig4();
        let ctx = vec![(1, 5), (2, 5), (2, 7)];
        let mut stats = ScanStats::default();
        let got = looplifted_step(&doc, &ctx, Axis::Child, &NodeTest::AnyKind, &mut stats);
        assert_eq!(
            got,
            vec![(1, 6), (2, 6), (1, 7), (2, 7), (2, 8), (2, 9)],
            "children produced in document order, iterations clustered"
        );
        assert_eq!(stats.passes, 1);
    }

    #[test]
    fn matches_iterative_reference_on_all_axes() {
        let ctx = vec![(1, 2), (1, 5), (2, 4), (2, 8), (3, 0), (3, 7)];
        for axis in [
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
        ] {
            check_axis(axis, &ctx);
        }
    }

    #[test]
    fn per_iter_pruning_keeps_other_iterations() {
        let doc = fig4();
        // pre 2 (c) covers pre 3 (d) — but only within the same iteration:
        // iteration 1 sees d once (as a descendant of c), iteration 2 sees
        // only itself
        let ctx = [(1, 2), (1, 3), (2, 3)];
        let mut stats = ScanStats::default();
        let got = looplifted_step(
            &doc,
            &ctx,
            Axis::DescendantOrSelf,
            &NodeTest::AnyKind,
            &mut stats,
        );
        assert_eq!(got, vec![(1, 2), (1, 3), (2, 3), (1, 4)]);
        assert_eq!(
            got,
            reference(&doc, &ctx, Axis::DescendantOrSelf, &NodeTest::AnyKind)
        );
    }

    #[test]
    fn candidate_variant_matches_nametest_scan() {
        let doc = fig4();
        let ctx = vec![(1, 0), (2, 5)];
        let test = NodeTest::named("h");
        let mut s1 = ScanStats::default();
        let full = looplifted_step(&doc, &ctx, Axis::Descendant, &test, &mut s1);
        let mut s2 = ScanStats::default();
        let pushed = looplifted_step_candidates(&doc, &ctx, Axis::Descendant, "h", &mut s2);
        assert_eq!(full, pushed);
        assert!(
            s2.nodes_scanned < s1.nodes_scanned,
            "pushdown touches only candidates ({} < {})",
            s2.nodes_scanned,
            s1.nodes_scanned
        );
    }

    #[test]
    fn child_scan_bound_result_plus_context() {
        let doc = fig4();
        let ctx = vec![(1, 0), (1, 5), (2, 7)];
        let mut stats = ScanStats::default();
        let res = looplifted_step(&doc, &ctx, Axis::Child, &NodeTest::AnyKind, &mut stats);
        // |result| counts distinct (pre) emissions per active context; the
        // bound of Section 3 is on document rows touched
        assert!(stats.nodes_scanned <= res.len() as u64 + ctx.len() as u64);
    }

    #[test]
    fn child_step_in_iteration_order_matches_the_sweep() {
        let doc = fig4();
        // one node per iteration, iterations ascending, nodes out of order
        let ctx = [(1, 5), (2, 0), (3, 7), (4, 2), (6, 3)];
        for (test, pushdown) in [
            (NodeTest::AnyKind, false),
            (NodeTest::named("h"), true),
            (NodeTest::named("h"), false),
            (NodeTest::named("nope"), true),
        ] {
            let mut got = Vec::new();
            let mut stats = ScanStats::default();
            child_step_in_iter_order(&doc, ctx, &test, pushdown, &mut stats, |it, pos, pre| {
                got.push((it, pos, pre))
            });
            let mut want = reference(&doc, &ctx, Axis::Child, &test);
            want.sort_unstable();
            let mut numbered: Vec<(i64, i64, u32)> = Vec::new();
            for (it, pre) in want {
                let pos = match numbered.last() {
                    Some(&(last, pos, _)) if last == it => pos + 1,
                    _ => 1,
                };
                numbered.push((it, pos, pre));
            }
            assert_eq!(got, numbered, "{test:?}, pushdown {pushdown}");
            assert_eq!(stats.results, got.len() as u64);
            assert_eq!((stats.passes, stats.contexts), (1, ctx.len() as u64));
        }
    }

    #[test]
    fn empty_context() {
        let doc = fig4();
        let mut stats = ScanStats::default();
        assert!(
            looplifted_step(&doc, &[], Axis::Descendant, &NodeTest::AnyKind, &mut stats).is_empty()
        );
    }
}
