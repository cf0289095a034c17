//! Location steps.
//!
//! **Owns** the axis step (`eval_axis_step`: the iteration-order child
//! step, or per container the pushdown, loop-lifted or iterative staircase
//! join picked by `axis_step_on`), the attribute step (`eval_attr_step`,
//! with its dictionary-code fast path) and `StepOut`, the sequence a step
//! builds.
//!
//! **May call** the staircase kernels, the containers' columns and
//! `value`.

use std::borrow::Cow;

use mxq_engine::rank::row_number_streaming;
use mxq_engine::{Column, Item, NodeId};
use mxq_staircase::looplifted::CtxPair;
use mxq_staircase::{
    child_step_in_iter_order, looplifted_step, looplifted_step_candidates, staircase_step, Axis,
    NodeTest, ScanStats,
};
use mxq_xmldb::Document;

use crate::algebra::PlanRef;
use crate::config::ExecConfig;

use super::{EResult, Executor, Seq, Value};

impl Executor<'_> {
    pub(super) fn eval_axis_step(
        &mut self,
        ctx: &PlanRef,
        axis: Axis,
        test: &NodeTest,
    ) -> EResult<Value> {
        let t = self.seq(ctx)?;
        let iters = &t.iter;
        let mut stats = ScanStats::default();
        let mut out = StepOut::default();
        // one node per iteration, ascending, in one container: the child
        // step walks the contexts as they come and emits in `[iter, pos]`
        // order (no sort either side of the staircase)
        if let (Axis::Child, true, Column::Node(nodes)) =
            (axis, self.config.loop_lifted_child, &t.item)
        {
            let frag = nodes.first().map(|n| n.frag);
            let one_per_iter =
                (1..nodes.len()).all(|i| iters[i - 1] < iters[i] && Some(nodes[i].frag) == frag);
            if let (Some(frag), true) = (frag, one_per_iter) {
                let ctx = iters.iter().zip(nodes).map(|(&it, n)| (it, n.pre));
                let pushdown = self.config.nametest_pushdown;
                let mut emit = |it, pos, pre| out.push(it, pos, NodeId::new(frag, pre));
                let doc = self.container(frag);
                child_step_in_iter_order(doc, ctx, test, pushdown, &mut stats, &mut emit);
                self.stats.staircase.merge(&stats);
                self.stats.sorts_avoided += 1;
                return Ok(out.into_seq().into());
            }
        }
        // the context pairs of each document container (fragment) — nearly
        // always a single one, found by a one-entry scan
        let mut per_frag: Vec<(u32, Vec<CtxPair>)> = Vec::new();
        let mut add = |it: i64, n: NodeId| {
            let slot = per_frag
                .iter()
                .position(|(frag, _)| *frag == n.frag)
                .unwrap_or_else(|| {
                    per_frag.push((n.frag, Vec::new()));
                    per_frag.len() - 1
                });
            per_frag[slot].1.push((it, n.pre));
        };
        match &t.item {
            Column::Node(nodes) => iters.iter().zip(nodes).for_each(|(&it, &n)| add(it, n)),
            // a polymorphic column: atomic items are not context nodes
            other => iters
                .iter()
                .zip(other.iter_items())
                .for_each(|(&it, item)| item.as_node().into_iter().for_each(|n| add(it, n))),
        }
        let mut found: Vec<(i64, NodeId)> = Vec::new();
        let config = self.config;
        for (frag, pairs) in &per_frag {
            let results = axis_step_on(
                self.container(*frag),
                pairs,
                axis,
                test,
                &config,
                &mut stats,
            );
            found.extend(
                results
                    .iter()
                    .map(|&(it, pre)| (it, NodeId::new(*frag, pre))),
            );
        }
        self.stats.staircase.merge(&stats);
        // order by (iter, document order) — the step emits in (document
        // order, iter), which is the same thing for a single iteration and
        // for disjoint context regions whose iterations ascend with them
        if found.windows(2).all(|w| w[0] <= w[1]) {
            self.stats.sorts_avoided += 1;
        } else {
            self.stats.sorts += 1;
            found.sort_unstable();
        }
        for (it, n) in found {
            out.number(it, n);
        }
        Ok(out.into_seq().into())
    }

    pub(super) fn eval_attr_step(&mut self, ctx: &PlanRef, name: Option<&str>) -> EResult<Value> {
        let t = self.seq(ctx)?;
        let sorted = self.sorted_seq(&t);
        // the context nodes with their iterations (an atomic item has no
        // attributes)
        let (iters, nodes): (Cow<[i64]>, Cow<[NodeId]>) = match &sorted.item {
            Column::Node(nodes) => (Cow::Borrowed(&sorted.iter), Cow::Borrowed(nodes)),
            items => {
                let (iters, nodes) = (sorted.iter.iter())
                    .zip(items.iter_items())
                    .filter_map(|(&it, item)| Some((it, item.as_node()?)))
                    .unzip();
                (Cow::Owned(iters), Cow::Owned(nodes))
            }
        };

        // Dictionary fast path: when every context node lives in one
        // container, the attribute values are already codes into the
        // container's shared value dictionary — emit a `Column::Dict` item
        // column so an equi-join against another attribute column of the
        // same document runs code-to-code.
        let single_frag = (nodes.first())
            .map(|n| n.frag)
            .filter(|&f| nodes.iter().all(|n| n.frag == f));
        if let Some(doc) = single_frag.map(|frag| self.container(frag)) {
            let cols = doc.columns_arc();
            // the name's code, resolved once per step (`None`: no node of
            // the container has the attribute)
            let code = name.map(|a| cols.attr_names().code_of(a));
            let (mut oi, mut codes) = (Vec::new(), Vec::new());
            for (it, n) in iters.iter().zip(nodes.iter()) {
                match code {
                    Some(None) => break,
                    Some(Some(a)) => {
                        if let Some(c) = cols.attr_value_code_of(n.pre, a) {
                            oi.push(*it);
                            codes.push(c);
                        }
                    }
                    None => {
                        for &c in cols.attr_value_codes_of(n.pre) {
                            oi.push(*it);
                            codes.push(c);
                        }
                    }
                }
            }
            let pos = row_number_streaming(&oi);
            let item = Column::Dict {
                codes,
                dict: cols.attr_values().clone(),
            };
            return Ok(Seq::new(oi, pos, item).into());
        }

        let (mut oi, mut oit) = (Vec::new(), Vec::new());
        for (it, n) in iters.iter().zip(nodes.iter()) {
            let doc = self.container(n.frag);
            match name {
                Some(a) => {
                    if let Some(v) = doc.attribute(n.pre, a) {
                        oi.push(*it);
                        oit.push(Item::str(v));
                    }
                }
                None => {
                    for (_, value) in doc.attrs(n.pre) {
                        oi.push(*it);
                        oit.push(Item::str(value.as_ref()));
                    }
                }
            }
        }
        let pos = row_number_streaming(&oi);
        Ok(Seq::new(oi, pos, Column::from_items(oit)).into())
    }
}

/// The columns of a location step's sequence, built in one pass
/// over its `[iter, document order]` result.
#[derive(Default)]
struct StepOut {
    iters: Vec<i64>,
    pos: Vec<i64>,
    nodes: Vec<NodeId>,
}

impl StepOut {
    fn push(&mut self, it: i64, pos: i64, n: NodeId) {
        self.iters.push(it);
        self.pos.push(pos);
        self.nodes.push(n);
    }

    /// Append a row, numbering it after the previous row of its iteration.
    fn number(&mut self, it: i64, n: NodeId) {
        let pos = match (self.iters.last(), self.pos.last()) {
            (Some(&last), Some(&p)) if last == it => p + 1,
            _ => 1,
        };
        self.push(it, pos, n);
    }

    fn into_seq(self) -> Seq {
        Seq::new(self.iters, self.pos, Column::Node(self.nodes))
    }
}

/// One location step over one container: picks the candidate-pushdown,
/// loop-lifted or iterative staircase variant according to the config.
fn axis_step_on(
    doc: &Document,
    pairs: &[CtxPair],
    axis: Axis,
    test: &NodeTest,
    config: &ExecConfig,
    stats: &mut ScanStats,
) -> Vec<CtxPair> {
    let loop_lifted = match axis {
        Axis::Child => config.loop_lifted_child,
        Axis::Descendant | Axis::DescendantOrSelf => config.loop_lifted_descendant,
        _ => true,
    };
    match test {
        NodeTest::Named(name)
            if config.nametest_pushdown
                && matches!(
                    axis,
                    Axis::Child | Axis::Descendant | Axis::DescendantOrSelf
                ) =>
        {
            looplifted_step_candidates(doc, pairs, axis, name, stats)
        }
        _ if loop_lifted => looplifted_step(doc, pairs, axis, test, stats),
        _ => {
            // iterative: one staircase join invocation (and document scan)
            // per iteration — the baseline of Figure 12
            let mut by_iter = pairs.to_vec();
            by_iter.sort_unstable();
            let mut res = Vec::new();
            for run in by_iter.chunk_by(|a, b| a.0 == b.0) {
                let ctx: Vec<u32> = run.iter().map(|&(_, p)| p).collect();
                let found = staircase_step(doc, &ctx, axis, test, stats);
                res.extend(found.into_iter().map(|p| (run[0].0, p)));
            }
            res
        }
    }
}
