//! Per-iteration functions: every operator here yields at most one item
//! per iteration of its loop, or maps items one to one.
//!
//! **Owns** atomization (`atomize`, `item_string`, `first_str` and
//! `fn:data`), value and general comparisons, effective boolean values and
//! the boolean operators, `empty`, arithmetic and the number functions,
//! `string()`, the string functions and the aggregates.
//!
//! **May call** the engine's grouped aggregation, the containers' string
//! values and `value` (the per-iteration walk).

use std::borrow::Cow;
use std::ops::Range;

use mxq_engine::agg::{aggregate_grouped, AggFunc};
use mxq_engine::{CmpOp, Column, Item, NodeId};
use mxq_xmldb::NodeKind;

use crate::algebra::{Op, PlanRef, StrFnKind};
use crate::ast::ArithOp;

use super::{const_items, EResult, ExecError, Executor, IterRuns, Seq, Value};

impl Executor<'_> {
    /// An item, atomized: a node becomes its string value.
    pub(super) fn atomize(&self, item: Item) -> Item {
        match item {
            Item::Node(n) => Item::str(self.node_string_value(n)),
            atomic => atomic,
        }
    }

    pub(super) fn item_string(&self, item: &Item) -> String {
        match item {
            Item::Node(n) => self.node_string_value(*n),
            other => other.string_value(),
        }
    }

    /// String value of the first item of a run (`""` for an empty run),
    /// borrowed where the column holds it: the string of a string item, or
    /// the heap bytes of a stored text, comment or PI node.
    pub(super) fn first_str<'c>(&'c self, items: &'c Column, run: Range<usize>) -> Cow<'c, str> {
        let node = |n: NodeId| {
            let doc = self.container(n.frag);
            match doc.kind(n.pre) {
                NodeKind::Element | NodeKind::Document => Cow::Owned(doc.string_value(n.pre)),
                _ => Cow::Borrowed(doc.text_of(n.pre)),
            }
        };
        if run.is_empty() {
            return Cow::Borrowed("");
        }
        match items {
            Column::Str(strings) => Cow::Borrowed(&strings[run.start]),
            Column::Dict { codes, dict } => Cow::Borrowed(dict.str_of(codes[run.start])),
            Column::Node(nodes) => node(nodes[run.start]),
            Column::Item(all) => match &all[run.start] {
                Item::Str(s) => Cow::Borrowed(s),
                Item::Node(n) => node(*n),
                atomic => Cow::Owned(atomic.string_value()),
            },
            atomics => Cow::Owned(atomics.item(run.start).string_value()),
        }
    }

    pub(super) fn eval_value_cmp(&mut self, op: CmpOp, l: &PlanRef, r: &PlanRef) -> EResult<Value> {
        let lt = self.eval_in_iter_order(l)?;
        let rt = self.eval_in_iter_order(r)?;
        Ok(zip_firsts(&lt, &rt, |a, b| Item::Bool(a.compare(op, &b))))
    }

    pub(super) fn eval_bool_and_or(
        &mut self,
        is_and: bool,
        l: &PlanRef,
        r: &PlanRef,
        loop_: &PlanRef,
    ) -> EResult<Value> {
        let inputs = [self.eval_in_iter_order(l)?, self.eval_in_iter_order(r)?];
        let iters = self.loop_iters(loop_)?;
        let (l_items, r_items) = (&inputs[0].item, &inputs[1].item);
        Ok(self.per_iter(iters, &inputs, |_, _, runs| {
            let a = first_ebv(l_items, runs[0].clone());
            let b = first_ebv(r_items, runs[1].clone());
            Some(Item::Bool(if is_and { a && b } else { a || b }))
        }))
    }

    pub(super) fn eval_bool_not(&mut self, e: &PlanRef, loop_: &PlanRef) -> EResult<Value> {
        let inputs = [self.eval_in_iter_order(e)?];
        let iters = self.loop_iters(loop_)?;
        let values = &inputs[0].item;
        Ok(self.per_iter(iters, &inputs, |_, _, runs| {
            Some(Item::Bool(!ebv_of(values, runs[0].clone())))
        }))
    }

    pub(super) fn eval_empty(&mut self, seq: &PlanRef, loop_: &PlanRef) -> EResult<Value> {
        let inputs = [self.eval_in_iter_order(seq)?];
        let iters = self.loop_iters(loop_)?;
        Ok(self.per_iter(iters, &inputs, |_, _, runs| {
            Some(Item::Bool(runs[0].is_empty()))
        }))
    }

    /// `-e`, `number(e)` and the rounding functions: `f` over every item's
    /// atomized number (`NaN` for a non-number).
    pub(super) fn eval_number_fn(&mut self, seq: &PlanRef, f: fn(f64) -> f64) -> EResult<Value> {
        let t = self.seq(seq)?;
        let number = |i: Item| self.atomize(i).as_number().unwrap_or(f64::NAN);
        Ok(t.map_items(|i| Item::Dbl(f(number(i)))).into())
    }

    pub(super) fn eval_atomize(&mut self, seq: &PlanRef) -> EResult<Value> {
        let t = self.seq(seq)?;
        // a dictionary-encoded item column holds only strings, which are
        // already atomic: pass it through unchanged so the codes (and the
        // shared dictionary) survive to a downstream join
        if t.item.dict_parts().is_some() {
            return Ok(Value::Seq(t));
        }
        Ok(t.map_items(|i| self.atomize(i)).into())
    }

    pub(super) fn eval_general_cmp(
        &mut self,
        op: CmpOp,
        l: &PlanRef,
        r: &PlanRef,
        loop_: &PlanRef,
    ) -> EResult<Value> {
        let inputs = [self.eval_in_iter_order(l)?, self.eval_in_iter_order(r)?];
        let iters = self.loop_iters(loop_)?;
        // a loop-constant operand (the atomized literal or literal slot) is
        // taken once, not atomized per iteration
        let r_const: Option<Vec<Item>> = match &r.op {
            Op::Atomize { seq } => match &seq.op {
                Op::ConstSeq { items, .. } => Some(const_items(items, &self.params)?.to_vec()),
                _ => None,
            },
            _ => None,
        };
        let (l_items, r_items) = (&inputs[0].item, &inputs[1].item);
        let mut r_run_items: Vec<Item> = Vec::new();
        Ok(self.per_iter(iters, &inputs, |ex, _, runs| {
            let (l_run, r_run) = (runs[0].clone(), runs[1].clone());
            let rs: &[Item] = match &r_const {
                Some(items) if !r_run.is_empty() => items,
                _ => {
                    r_run_items.clear();
                    r_run_items.extend(r_run.map(|row| ex.atomize(r_items.item(row))));
                    &r_run_items
                }
            };
            let mut found = false;
            'outer: for row in l_run {
                let a = ex.atomize(l_items.item(row));
                for b in rs {
                    ex.stats.join_pairs += 1;
                    if a.compare(op, b) {
                        found = true;
                        break 'outer;
                    }
                }
            }
            Some(Item::Bool(found))
        }))
    }

    pub(super) fn eval_ebv(
        &mut self,
        seq: &PlanRef,
        loop_: &PlanRef,
        positions: Option<&PlanRef>,
    ) -> EResult<Value> {
        let mut inputs = vec![self.eval_in_iter_order(seq)?];
        if let Some(p) = positions {
            inputs.push(self.eval_in_iter_order(p)?);
        }
        let iters = self.loop_iters(loop_)?;
        let values = &inputs[0].item;
        let pos_items = inputs.get(1).map(|p| &p.item);
        Ok(self.per_iter(iters, &inputs, |_, _, runs| {
            let run = runs[0].clone();
            // a numeric predicate value selects by context position
            let by_position = match (pos_items, run.len()) {
                (Some(pos_items), 1) => {
                    let number = match values.item(run.start) {
                        Item::Int(i) => Some(i as f64),
                        Item::Dbl(d) => Some(d),
                        _ => None,
                    };
                    number.map(|n| {
                        let pos = &runs[1];
                        !pos.is_empty() && pos_items.item(pos.start).as_number() == Some(n)
                    })
                }
                _ => None,
            };
            Some(Item::Bool(
                by_position.unwrap_or_else(|| ebv_of(values, run)),
            ))
        }))
    }

    pub(super) fn eval_string_value(&mut self, seq: &PlanRef, loop_: &PlanRef) -> EResult<Value> {
        let inputs = [self.eval_in_iter_order(seq)?];
        let iters = self.loop_iters(loop_)?;
        let values = &inputs[0].item;
        // a string item keeps its shared string; only a node's string value
        // is allocated
        Ok(self.per_iter(iters, &inputs, |ex, _, runs| {
            let run = runs[0].clone();
            Some(match run.clone().next().map(|row| values.item(row)) {
                Some(s @ Item::Str(_)) => s,
                _ => Item::str(ex.first_str(values, run)),
            })
        }))
    }

    pub(super) fn eval_arith(&mut self, op: ArithOp, l: &PlanRef, r: &PlanRef) -> EResult<Value> {
        let lt = self.eval_in_iter_order(l)?;
        let rt = self.eval_in_iter_order(r)?;
        Ok(zip_firsts(&lt, &rt, |l, r| {
            let a = self.atomize(l.clone()).as_number().unwrap_or(f64::NAN);
            let b = self.atomize(r.clone()).as_number().unwrap_or(f64::NAN);
            let both_int = matches!(l, Item::Int(_)) && matches!(r, Item::Int(_));
            let v = match op {
                ArithOp::Add => a + b,
                ArithOp::Sub => a - b,
                ArithOp::Mul => a * b,
                ArithOp::Div => a / b,
                ArithOp::IDiv => (a / b).trunc(),
                ArithOp::Mod => a % b,
            };
            let keep_int = both_int
                && matches!(
                    op,
                    ArithOp::Add | ArithOp::Sub | ArithOp::Mul | ArithOp::IDiv | ArithOp::Mod
                );
            if keep_int {
                Item::Int(v as i64)
            } else {
                Item::Dbl(v)
            }
        }))
    }

    pub(super) fn eval_aggregate(
        &mut self,
        func: AggFunc,
        seq: &PlanRef,
        loop_: &PlanRef,
    ) -> EResult<Value> {
        let t = self.seq(seq)?;
        let loop_iters = self.loop_iters(loop_)?;
        let (iters, item) = (&t.iter, &t.item);
        // `count` reads no value at all; the others atomize only a column
        // that can hold nodes
        let atomized;
        let values = match item {
            Column::Node(_) | Column::Item(_) if func != AggFunc::Count => {
                atomized = Column::from_items(item.iter_items().map(|i| self.atomize(i)).collect());
                &atomized
            }
            _ => item,
        };
        // groups are runs of the `iter` column, which the order-aware mode
        // trusts to ascend (the table convention); otherwise the input is
        // sorted (stably, so every group keeps its row order) first
        let agg = if self.config.order_aware {
            self.stats.sorts_avoided += 1;
            aggregate_grouped(iters, values, func)
        } else {
            self.stats.sorts += 1;
            let mut perm: Vec<usize> = (0..iters.len()).collect();
            perm.sort_by_key(|&row| iters[row]);
            let sorted_iters: Vec<i64> = perm.iter().map(|&row| iters[row]).collect();
            aggregate_grouped(&sorted_iters, &values.gather(&perm), func)
        }
        .map_err(ExecError::Engine)?;
        // merge the (ascending) groups into the (ascending) loop
        let mut found = agg.groups.into_iter().zip(agg.values).peekable();
        Ok(self.per_iter(loop_iters, &[], |_, it, _| {
            while found.next_if(|(g, _)| *g < it).is_some() {}
            match found.next_if(|(g, _)| *g == it) {
                Some((_, v)) => Some(v),
                // count/sum of the empty sequence is 0; min/max/avg yield
                // the empty sequence
                None if matches!(func, AggFunc::Count | AggFunc::Sum) => Some(Item::Int(0)),
                None => None,
            }
        }))
    }

    pub(super) fn eval_string_fn(
        &mut self,
        kind: StrFnKind,
        args: &[PlanRef],
        loop_: &PlanRef,
    ) -> EResult<Value> {
        let loop_iters = self.loop_iters(loop_)?;
        let mut tables = Vec::with_capacity(args.len());
        for a in args {
            tables.push(self.eval_in_iter_order(a)?);
        }
        let values: Vec<&Column> = tables.iter().map(|t| &t.item).collect();
        Ok(self.per_iter(loop_iters, &tables, |ex, _, runs| {
            // string value of an argument's first item ("" for none)
            let get = |idx: usize| match runs.get(idx) {
                Some(run) => ex.first_str(values[idx], run.clone()),
                None => Cow::Borrowed(""),
            };
            Some(match kind {
                StrFnKind::Contains => Item::Bool(get(0).contains(&*get(1))),
                StrFnKind::StartsWith => Item::Bool(get(0).starts_with(&*get(1))),
                StrFnKind::EndsWith => Item::Bool(get(0).ends_with(&*get(1))),
                StrFnKind::Concat => {
                    let mut s = String::new();
                    for idx in 0..args.len() {
                        s.push_str(&get(idx));
                    }
                    Item::str(s)
                }
                StrFnKind::StringLength => Item::Int(get(0).chars().count() as i64),
                StrFnKind::Substring => {
                    let s = get(0);
                    let start = get(1).parse::<f64>().unwrap_or(1.0).round() as i64;
                    let len = (args.len() > 2)
                        .then(|| get(2).parse::<f64>().unwrap_or(0.0).round() as i64);
                    let chars: Vec<char> = s.chars().collect();
                    let from = (start.max(1) - 1) as usize;
                    let to = match len {
                        Some(l) => ((start - 1 + l).max(0) as usize).min(chars.len()),
                        None => chars.len(),
                    };
                    Item::str(chars[from.min(chars.len())..to].iter().collect::<String>())
                }
                StrFnKind::StringJoin => {
                    let sep = get(1);
                    let parts: Vec<String> = runs
                        .first()
                        .map(|run| run.clone().map(|row| ex.item_string(&values[0].item(row))))
                        .into_iter()
                        .flatten()
                        .collect();
                    Item::str(parts.join(&sep))
                }
                StrFnKind::UpperCase => Item::str(get(0).to_uppercase()),
                StrFnKind::LowerCase => Item::str(get(0).to_lowercase()),
                StrFnKind::NormalizeSpace => {
                    Item::str(get(0).split_whitespace().collect::<Vec<_>>().join(" "))
                }
                StrFnKind::Translate => {
                    let s = get(0);
                    let from: Vec<char> = get(1).chars().collect();
                    let to: Vec<char> = get(2).chars().collect();
                    let out: String = s
                        .chars()
                        .filter_map(|c| match from.iter().position(|f| *f == c) {
                            Some(i) => to.get(i).copied(),
                            None => Some(c),
                        })
                        .collect();
                    Item::str(out)
                }
                StrFnKind::NodeName => {
                    let name = runs
                        .first()
                        .filter(|run| !run.is_empty())
                        .and_then(|run| values[0].item(run.start).as_node())
                        .map(|n| ex.container(n.frag).name_of(n.pre).to_string())
                        .unwrap_or_default();
                    Item::str(name)
                }
            })
        }))
    }
}

/// Combine the first items of the iterations two `[iter, pos]`-ordered
/// sequences share: per iteration, `f(left first, right first)` at `pos` 1.
fn zip_firsts(l: &Seq, r: &Seq, mut f: impl FnMut(Item, Item) -> Item) -> Value {
    let (mut l_runs, mut r_runs) = (IterRuns::new(&l.iter), IterRuns::new(&r.iter));
    let (mut iters, mut items) = (Vec::new(), Vec::new());
    while let Some((it, l_run)) = l_runs.next_run() {
        let r_run = r_runs.of(it);
        if !r_run.is_empty() {
            iters.push(it);
            items.push(f(l.item.item(l_run.start), r.item.item(r_run.start)));
        }
    }
    let n = iters.len();
    Seq::new(iters, vec![1; n], Column::from_items(items)).into()
}

/// Effective boolean value of one iteration's rows: a single atomic decides
/// by its value; a node, or more than one item, is true.
pub(super) fn ebv_of(items: &Column, run: Range<usize>) -> bool {
    match run.len() {
        0 => false,
        1 => items.item(run.start).effective_boolean(),
        _ => true,
    }
}

/// Effective boolean value of the first item of one iteration's rows.
pub(super) fn first_ebv(items: &Column, run: Range<usize>) -> bool {
    !run.is_empty() && items.item(run.start).effective_boolean()
}
