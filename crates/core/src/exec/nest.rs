//! Nest maps: lifting a sequence into a `for` loop's iterations, mapping a
//! body back to the outer loop, and the recognised joins that build a nest
//! map (`nest(⋈)`) or count its pairs (`count(⋈)`).
//!
//! **Owns** `eval_lift_through`, `eval_back_map` (with its `order by`),
//! `eval_join` (the min/max reduction and the rank count of Figure 8),
//! `eval_nest_from_join` and `eval_join_count`.
//!
//! **May call** the engine's join kernels (`radix_hash_join`,
//! `theta_join`, `theta_join_counts`, `minmax_candidates`,
//! `lookup_sorted`) and `value`.

use std::rc::Rc;
use std::sync::Arc;

use mxq_engine::join::{
    lookup_sorted, minmax_candidates, radix_hash_join, theta_join, theta_join_counts,
};
use mxq_engine::rank::row_number_streaming;
use mxq_engine::{CmpOp, Column, Item};

use crate::algebra::{Op, PlanRef};

use super::{EResult, ExecError, Executor, IterRuns, Nest, Seq, Value};

impl Executor<'_> {
    pub(super) fn eval_lift_through(&mut self, seq: &PlanRef, nest: &PlanRef) -> EResult<Value> {
        let s = self.seq(seq)?;
        let s = self.sorted_seq(&s);
        let n = self.nest(nest)?;
        let (s_iter, s_pos) = (&s.iter, &s.pos);
        // `s` is sorted on iter: one run of rows per outer iteration
        let mut run_iter = Vec::new();
        let mut run_start = Vec::new();
        for (row, &it) in s_iter.iter().enumerate() {
            if run_iter.last() != Some(&it) {
                run_iter.push(it);
                run_start.push(row);
            }
        }
        run_start.push(s_iter.len());
        let (mut oi, mut op, mut rows) = (Vec::new(), Vec::new(), Vec::new());
        lookup_sorted(&run_iter, &n.outer, |k, run| {
            let run = run_start[run]..run_start[run + 1];
            oi.resize(oi.len() + run.len(), n.inner[k]);
            op.extend_from_slice(&s_pos[run.clone()]);
            rows.extend(run);
        });
        Ok(Seq::new(oi, op, s.item.gather(&rows)).into())
    }

    pub(super) fn eval_back_map(
        &mut self,
        body: &PlanRef,
        nest: &PlanRef,
        order_keys: &[(PlanRef, bool)],
    ) -> EResult<Value> {
        let b = self.seq(body)?;
        let n = self.nest(nest)?;
        let (n_outer, n_inner) = (&n.outer, &n.inner);
        let (b_iter, b_pos) = (&b.iter, &b.pos);
        // inner -> outer: the body rows that map back, with their outer
        // iteration (both nest operators number `inner` ascending)
        debug_assert!(n_inner.windows(2).all(|w| w[0] < w[1]));
        let (mut outer, mut rows) = (Vec::new(), Vec::new());
        lookup_sorted(n_inner, b_iter, |row, k| {
            outer.push(n_outer[k]);
            rows.push(row);
        });

        if self.config.order_aware && order_keys.is_empty() {
            // inner iteration numbers are assigned in (outer, pos) order, so a
            // body sorted on [inner, pos] maps back already sorted on outer
            self.stats.sorts_avoided += 1;
        } else {
            self.stats.sorts += 1;
            // order keys per kept row, major key first; a missing
            // (empty-sequence) key sorts as the empty string — the same
            // default the naive interpreter uses, so the two evaluators stay
            // comparable under differential testing
            let mut keys: Vec<(Vec<Item>, bool)> = Vec::with_capacity(order_keys.len());
            for (k, descending) in order_keys {
                let kt = self.eval_in_iter_order(k)?;
                let k_items = &kt.item;
                // (iteration, first row) of every run of the key sequence
                let (mut k_iter, mut k_first) = (Vec::new(), Vec::new());
                let mut runs = IterRuns::new(&kt.iter);
                while let Some((it, run)) = runs.next_run() {
                    k_iter.push(it);
                    k_first.push(run.start);
                }
                let probes: Vec<i64> = rows.iter().map(|&row| b_iter[row]).collect();
                let mut column = vec![Item::str(""); rows.len()];
                lookup_sorted(&k_iter, &probes, |x, run| {
                    column[x] = k_items.item(k_first[run]);
                });
                keys.push((column, *descending));
            }
            let mut perm: Vec<usize> = (0..rows.len()).collect();
            perm.sort_by(|&x, &y| {
                let mut ord = outer[x].cmp(&outer[y]);
                for (column, descending) in &keys {
                    if ord != std::cmp::Ordering::Equal {
                        break;
                    }
                    let k = column[x].total_cmp(&column[y]);
                    ord = if *descending { k.reverse() } else { k };
                }
                ord.then(b_iter[rows[x]].cmp(&b_iter[rows[y]]))
                    .then(b_pos[rows[x]].cmp(&b_pos[rows[y]]))
            });
            outer = perm.iter().map(|&x| outer[x]).collect();
            rows = perm.iter().map(|&x| rows[x]).collect();
        }
        let pos = row_number_streaming(&outer);
        Ok(Seq::new(outer, pos, b.item.gather(&rows)).into())
    }

    /// The recognised join of `nest(⋈)` and `count(⋈)`: evaluate the source
    /// and both operands, reduce θ-operands to their min/max candidates
    /// (Figure 8(b)), and join.  With `count`, a θ-join whose candidates are
    /// one per outer iteration and one per source row is answered by rank
    /// ([`theta_join_counts`]): every (left, right) candidate pair is then
    /// one (outer iteration, source row) pair and matches in at most one
    /// comparison class, so the range lengths are the counts.  Every other
    /// join builds its pairs and removes duplicates (δ, Figure 8(a)).
    fn eval_join(&mut self, join: &PlanRef, count: bool) -> EResult<Joined> {
        let Op::NestFromJoin {
            source,
            left,
            right,
            op,
            ..
        } = &join.op
        else {
            return Err(ExecError::Internal(format!(
                "[{}] {} is not a recognised join",
                join.id,
                join.op_name()
            )));
        };
        let op = *op;
        let src = self.seq(source)?;
        let src = self.sorted_seq(&src);
        let lt = self.seq(left)?;
        let rt = self.seq(right)?;
        let (l_iter, r_iter) = (&lt.iter[..], &rt.iter[..]);
        let (l_item, r_item) = (&lt.item, &rt.item);
        // source position -> source row (`pos - 1` when the positions are
        // dense); the source was evaluated in the singleton loop, so its
        // sorted `pos` column ascends
        let src_pos = &src.pos;
        debug_assert!(src_pos.windows(2).all(|w| w[0] <= w[1]));

        // push min/max aggregates below the theta join (Figure 8(b)): for
        // `l < r` it suffices to compare min(l) with max(r), etc. — keep the
        // smallest left / largest right for `<`-like ops and the reverse for
        // `>`-like ops (`!=` needs both extremes and joins unreduced)
        let minmax = self.config.existential_minmax
            && matches!(op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge);
        let reduce = |iter: &[i64], item: &Column, take_min: bool| {
            let rows = minmax_candidates(iter, item, take_min);
            // single-valued operands reduce to themselves
            (rows.len() < item.len()).then(|| (item.gather(&rows), rows))
        };
        let left_min = matches!(op, CmpOp::Lt | CmpOp::Le);
        let l = minmax.then(|| reduce(l_iter, l_item, left_min)).flatten();
        let r = minmax.then(|| reduce(r_iter, r_item, !left_min)).flatten();
        let (l_col, r_col) = (
            l.as_ref().map_or(l_item, |(reduced, _)| reduced),
            r.as_ref().map_or(r_item, |(reduced, _)| reduced),
        );
        // candidate -> operand iteration
        let l_of = |a: usize| l_iter[l.as_ref().map_or(a, |(_, rows)| rows[a])];
        let r_of = |b: usize| r_iter[r.as_ref().map_or(b, |(_, rows)| rows[b])];

        if count && minmax {
            // exact when each outer iteration and each source row kept one
            // candidate (strictly ascending `iter`s) and every right
            // candidate is a row of the source, as the pairs path requires
            let ascending = |n: usize, of: &dyn Fn(usize) -> i64| (1..n).all(|k| of(k - 1) < of(k));
            let r_iters: Vec<i64> = (0..r_col.len()).map(r_of).collect();
            let mut sources = 0;
            lookup_sorted(src_pos, &r_iters, |_, _| sources += 1);
            if ascending(l_col.len(), &l_of)
                && ascending(r_col.len(), &r_of)
                && sources == r_iters.len()
            {
                let counts = theta_join_counts(l_col, r_col, op);
                return Ok(Joined::Counts(
                    counts
                        .into_iter()
                        .enumerate()
                        .map(|(a, n)| (l_of(a), n))
                        .collect(),
                ));
            }
        }

        // matching (left row, right row) pairs with existential semantics
        let (li, ri) = if op.is_equality() {
            // radix-partitioned hash join straight over the stored item
            // columns (no re-materialisation); joins two dictionary-encoded
            // columns sharing a dictionary code-to-code.  The δ afterwards
            // works on the [iter1, iter2]-ordered output (Section 4.2,
            // Figure 8(a)).
            if let (Some((_, ld)), Some((_, rd))) = (l_col.dict_parts(), r_col.dict_parts()) {
                self.stats.proven_dict_joins += Arc::ptr_eq(ld, rd) as u64;
            }
            radix_hash_join(l_col, r_col)
        } else {
            theta_join(l_col, r_col, op)
        };
        self.stats.join_pairs += li.len() as u64;
        // (outer iter, source position)
        let mut pairs: Vec<(i64, i64)> = li
            .into_iter()
            .zip(ri)
            .map(|(a, b)| (l_of(a), r_of(b)))
            .collect();
        // δ — single-valued operands over sorted iters join duplicate-free
        // and in order already
        if !pairs.windows(2).all(|w| w[0] < w[1]) {
            pairs.sort_unstable();
            pairs.dedup();
        }
        let probes: Vec<i64> = pairs.iter().map(|&(_, p)| p).collect();
        let mut joined = Vec::with_capacity(pairs.len());
        lookup_sorted(src_pos, &probes, |k, row| joined.push((pairs[k].0, row)));
        Ok(Joined::Pairs(src.clone(), joined))
    }

    pub(super) fn eval_nest_from_join(&mut self, join: &PlanRef) -> EResult<Value> {
        let Joined::Pairs(src, pairs) = self.eval_join(join, false)? else {
            return Err(ExecError::Internal("nest(⋈) joined to counts".into()));
        };
        let (outer, rows): (Vec<i64>, Vec<usize>) = pairs.into_iter().unzip();
        Ok(Value::Nest(Rc::new(Nest {
            outer,
            inner: (1..=rows.len() as i64).collect(),
            pos: rows.iter().map(|&row| src.pos[row]).collect(),
            item: src.item.gather(&rows),
        })))
    }

    /// `count(⋈)`: per iteration of `loop_` the number of source rows the
    /// join pairs it with — by rank, or by counting the runs of the pairs.
    pub(super) fn eval_join_count(&mut self, join: &PlanRef, loop_: &PlanRef) -> EResult<Value> {
        let counts = match self.eval_join(join, true)? {
            Joined::Counts(counts) => counts,
            // the pairs ascend by outer iteration
            Joined::Pairs(_, pairs) => {
                let mut counts: Vec<(i64, usize)> = Vec::new();
                for (outer, _) in pairs {
                    match counts.last_mut() {
                        Some((it, n)) if *it == outer => *n += 1,
                        _ => counts.push((outer, 1)),
                    }
                }
                counts
            }
        };
        let iters = self.loop_iters(loop_)?;
        let mut counts = counts.into_iter().peekable();
        Ok(self.per_iter(iters, &[], |_, it, _| {
            while counts.next_if(|&(outer, _)| outer < it).is_some() {}
            let n = counts
                .next_if(|&(outer, _)| outer == it)
                .map_or(0, |(_, n)| n);
            Some(Item::Int(n as i64))
        }))
    }
}

/// What a recognised join hands its consumer ([`Executor::eval_join`]).
enum Joined {
    /// The qualifying (outer iteration, source row) pairs, ascending and
    /// duplicate free, next to the evaluated source (sorted on `pos`).
    Pairs(Rc<Seq>, Vec<(i64, usize)>),
    /// Per outer iteration (ascending), the number of qualifying source
    /// rows: the rank count.
    Counts(Vec<(i64, usize)>),
}
