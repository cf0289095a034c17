//! Sequence operators: positional filters, `fn:subsequence`,
//! `fn:distinct-values`, the document-order δ and union.
//!
//! **Owns** those and `renumber_pos`, which numbers the rows a filter
//! kept.
//!
//! **May call** the engine's streaming row numbering, `value` and
//! `scalar`'s atomization.

use std::collections::HashMap;

use mxq_engine::rank::row_number_streaming;
use mxq_engine::{Column, Item};

use crate::algebra::{PlanRef, PosFilterKind};

use super::{EResult, Executor, IterRuns, Seq, Value};

impl Executor<'_> {
    pub(super) fn eval_pos_filter(
        &mut self,
        seq: &PlanRef,
        kind: &PosFilterKind,
    ) -> EResult<Value> {
        let t = self.seq(seq)?;
        let (iters, poss) = (&t.iter, &t.pos);
        let rows: Vec<usize> = match kind {
            PosFilterKind::Eq(n) => (0..poss.len()).filter(|&i| poss[i] == *n).collect(),
            PosFilterKind::Last => {
                let mut max_pos: HashMap<i64, i64> = HashMap::new();
                for i in 0..iters.len() {
                    let e = max_pos.entry(iters[i]).or_insert(i64::MIN);
                    *e = (*e).max(poss[i]);
                }
                (0..iters.len())
                    .filter(|&i| poss[i] == max_pos[&iters[i]])
                    .collect()
            }
        };
        Ok(self.renumber_pos(t.gather(&rows)).into())
    }

    pub(super) fn eval_subsequence(
        &mut self,
        seq: &PlanRef,
        start: i64,
        len: Option<i64>,
    ) -> EResult<Value> {
        let t = self.seq(seq)?;
        let end = len.map(|l| start + l);
        let rows: Vec<usize> = (0..t.pos.len())
            .filter(|&i| t.pos[i] >= start && end.map(|e| t.pos[i] < e).unwrap_or(true))
            .collect();
        Ok(self.renumber_pos(t.gather(&rows)).into())
    }

    pub(super) fn eval_distinct_values(&mut self, seq: &PlanRef) -> EResult<Value> {
        let t = self.seq(seq)?;
        let sorted = self.sorted_seq(&t);
        let iters = &sorted.iter;
        let items = sorted.item.to_items();
        let mut seen: std::collections::HashSet<(i64, String)> = std::collections::HashSet::new();
        let (mut oi, mut oit) = (Vec::new(), Vec::new());
        for i in 0..iters.len() {
            if seen.insert((iters[i], self.item_string(&items[i]))) {
                oi.push(iters[i]);
                oit.push(self.atomize(items[i].clone()));
            }
        }
        // the iterations ascend: number each one's kept rows 1..k
        let pos = row_number_streaming(&oi);
        Ok(Seq::new(oi, pos, Column::from_items(oit)).into())
    }

    pub(super) fn eval_doc_order_distinct(&mut self, seq: &PlanRef) -> EResult<Value> {
        let t = self.eval_in_iter_order(seq)?;
        let mut runs = IterRuns::new(&t.iter);
        let (mut oi, mut op, mut oit) = (Vec::new(), Vec::new(), Vec::new());
        let mut nodes: Vec<Item> = Vec::new();
        while let Some((it, run)) = runs.next_run() {
            nodes.clear();
            nodes.extend(run.map(|row| t.item.item(row)));
            nodes.sort_by(|a, b| a.total_cmp(b));
            nodes.dedup_by(|a, b| a.total_cmp(b) == std::cmp::Ordering::Equal);
            oi.resize(oi.len() + nodes.len(), it);
            op.extend(1..=nodes.len() as i64);
            oit.append(&mut nodes);
        }
        self.stats.sorts += 1;
        Ok(Seq::new(oi, op, Column::from_items(oit)).into())
    }

    fn renumber_pos(&mut self, t: Seq) -> Seq {
        let mut t = if self.config.order_aware {
            // grpord: the rows of each iteration are already in pos order
            t
        } else {
            self.stats.sorts += 1;
            t.gather(&t.iter_pos_order())
        };
        t.pos = row_number_streaming(&t.iter);
        t
    }

    pub(super) fn eval_union(&mut self, parts: &[PlanRef]) -> EResult<Value> {
        let mut rows: Vec<(i64, i64, i64, Item)> = Vec::new();
        for (pidx, p) in parts.iter().enumerate() {
            let t = self.seq(p)?;
            for i in 0..t.iter.len() {
                rows.push((t.iter[i], pidx as i64, t.pos[i], t.item.item(i)));
            }
        }
        self.stats.sorts += 1;
        rows.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let iters: Vec<i64> = rows.iter().map(|r| r.0).collect();
        let pos = row_number_streaming(&iters);
        let items: Vec<Item> = rows.into_iter().map(|r| r.3).collect();
        Ok(Seq::new(iters, pos, Column::from_items(items)).into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExecConfig;

    #[test]
    fn renumber_pos_replaces_positions() {
        let snap = mxq_xmldb::DocStore::new().snapshot();
        // the rows a positional filter kept: in iteration order for the
        // order-aware mode, in any order for the naive one
        for (config, iter, pos, item) in [
            (ExecConfig::default(), [1, 1, 3], [2, 5, 4], [10, 20, 30]),
            (ExecConfig::naive(), [3, 1, 1], [4, 5, 2], [30, 20, 10]),
        ] {
            let mut ex = Executor::new(&snap, config);
            let t = ex.renumber_pos(Seq {
                iter: iter.to_vec(),
                pos: pos.to_vec(),
                item: Column::Int(item.to_vec()),
            });
            assert_eq!((t.iter, t.pos), (vec![1, 1, 3], vec![1, 2, 1]));
            assert_eq!(t.item.as_int(), Ok(&[10, 20, 30][..]));
        }
    }
}
