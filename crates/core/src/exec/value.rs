//! The executor's typed values and its one per-iteration walk.
//!
//! **Owns** the three shapes of the relational XQuery encoding, each a
//! struct with the shape's fixed columns — [`Loop`] (`iter`), [`Nest`]
//! (`outer|inner|pos|item`) and [`Seq`] (`iter|pos|item`) — the [`Value`]
//! a plan node evaluates to, `IterRuns` (the merge cursor over a
//! sequence's `iter` column) and `Executor::per_iter`, which walks a
//! loop's iterations next to each input's runs.
//!
//! **May call** the engine's columns only.

use std::ops::Range;
use std::rc::Rc;

use mxq_engine::{Column, Item};

use crate::algebra::Shape;

use super::Executor;

/// A loop relation: the iterations of one scope, strictly ascending.
#[derive(Debug)]
pub struct Loop {
    /// The iterations.
    pub iter: Vec<i64>,
}

/// A nest map: every item of a `for` source, at its position, bound to a
/// fresh `inner` iteration of its `outer` iteration.  Both nest operators
/// number `inner` ascending in `(outer, pos)` order.
#[derive(Debug)]
pub struct Nest {
    /// The iteration the source item was evaluated in.
    pub outer: Vec<i64>,
    /// The iteration the item is bound in.
    pub inner: Vec<i64>,
    /// The item's position in its source sequence.
    pub pos: Vec<i64>,
    /// The bound items.
    pub item: Column,
}

/// A sequence: per iteration the items at positions `1..k`, sorted on
/// `[iter, pos]`.
#[derive(Debug)]
pub struct Seq {
    /// The iteration of each row.
    pub iter: Vec<i64>,
    /// The position of each row within its iteration.
    pub pos: Vec<i64>,
    /// The items.
    pub item: Column,
}

/// The value of one plan node, of the node's [`Shape`].  It is shared
/// (`Rc`) with the memo, so repeated evaluation of a shared sub-plan costs
/// one reference-count bump, not a deep column copy.
#[derive(Debug, Clone)]
pub enum Value {
    /// A loop relation.
    Loop(Rc<Loop>),
    /// A nest map.
    Nest(Rc<Nest>),
    /// A sequence.
    Seq(Rc<Seq>),
}

impl Value {
    /// The shape of the value.
    pub fn shape(&self) -> Shape {
        match self {
            Value::Loop(_) => Shape::Loop,
            Value::Nest(_) => Shape::Nest,
            Value::Seq(_) => Shape::Seq,
        }
    }

    /// The number of rows.
    pub fn nrows(&self) -> usize {
        match self {
            Value::Loop(l) => l.iter.len(),
            Value::Nest(n) => n.outer.len(),
            Value::Seq(s) => s.iter.len(),
        }
    }
}

impl From<Seq> for Value {
    fn from(s: Seq) -> Self {
        Value::Seq(Rc::new(s))
    }
}

impl Seq {
    pub(super) fn new(iter: Vec<i64>, pos: Vec<i64>, item: Column) -> Seq {
        Seq { iter, pos, item }
    }

    /// The rows `rows` (in order, duplicates allowed).
    pub(super) fn gather(&self, rows: &[usize]) -> Seq {
        let iter = rows.iter().map(|&row| self.iter[row]).collect();
        let pos = rows.iter().map(|&row| self.pos[row]).collect();
        Seq::new(iter, pos, self.item.gather(rows))
    }

    /// The stable permutation that sorts the rows on `[iter, pos]`.
    pub(super) fn iter_pos_order(&self) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..self.iter.len()).collect();
        perm.sort_by_key(|&row| (self.iter[row], self.pos[row]));
        perm
    }

    /// The same rows with every item mapped by `f`.
    pub(super) fn map_items(&self, f: impl FnMut(Item) -> Item) -> Seq {
        let item = Column::from_items(self.item.iter_items().map(f).collect());
        Seq::new(self.iter.clone(), self.pos.clone(), item)
    }
}

/// The sequence `items` in every iteration of `iters`.
pub(super) fn replicated(iters: &[i64], items: &[Item]) -> Seq {
    let mut oi = Vec::with_capacity(iters.len() * items.len());
    let mut op = Vec::with_capacity(oi.capacity());
    let mut oit = Vec::with_capacity(oi.capacity());
    for &it in iters {
        for (k, item) in (1..).zip(items) {
            oi.push(it);
            op.push(k);
            oit.push(item.clone());
        }
    }
    Seq::new(oi, op, Column::from_items(oit))
}

impl Executor<'_> {
    /// The one per-iteration walk: for every iteration of `iters`
    /// (ascending) `f` gets the iteration and its rows in each of `inputs`
    /// (`[iter, pos]`-ordered; a run is empty where an input has none), and
    /// each `Some(item)` it returns becomes that iteration's row at `pos` 1.
    /// Input iterations outside `iters` are skipped; one runs buffer serves
    /// every iteration.
    pub(super) fn per_iter<F>(&mut self, mut iters: Vec<i64>, inputs: &[Rc<Seq>], mut f: F) -> Value
    where
        F: FnMut(&mut Self, i64, &[Range<usize>]) -> Option<Item>,
    {
        let mut cursors: Vec<IterRuns> = inputs.iter().map(|t| IterRuns::new(&t.iter)).collect();
        let mut runs = vec![0..0; cursors.len()];
        let mut items = Vec::with_capacity(iters.len());
        // `retain` visits the iterations once, in order: those that yield
        // an item stay, as the output's `iter` column
        iters.retain(|&it| {
            for (run, cursor) in runs.iter_mut().zip(&mut cursors) {
                *run = cursor.of(it);
            }
            f(self, it, &runs).map(|item| items.push(item)).is_some()
        });
        let n = iters.len();
        Seq::new(iters, vec![1; n], Column::from_items(items)).into()
    }
}

/// Merge cursor over the `iter` column of a sequence in `[iter, pos]` order:
/// the rows of one iteration are a run, and consumers that walk the
/// iterations of their loop in ascending order find each run by advancing
/// — no per-iteration map, no per-iteration allocation.
pub(super) struct IterRuns<'a> {
    iters: &'a [i64],
    at: usize,
}

impl<'a> IterRuns<'a> {
    pub(super) fn new(iters: &'a [i64]) -> Self {
        IterRuns { iters, at: 0 }
    }

    /// The rows of iteration `it` (empty when it has none).  Iterations
    /// must be asked for in strictly ascending order.
    pub(super) fn of(&mut self, it: i64) -> Range<usize> {
        while self.iters.get(self.at).is_some_and(|&i| i < it) {
            self.at += 1;
        }
        let start = self.at;
        while self.iters.get(self.at) == Some(&it) {
            self.at += 1;
        }
        start..self.at
    }

    /// The next iteration that has rows, with its rows.
    pub(super) fn next_run(&mut self) -> Option<(i64, Range<usize>)> {
        let &it = self.iters.get(self.at)?;
        Some((it, self.of(it)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExecConfig;
    use crate::exec::{EResult, ExecError};

    #[test]
    fn per_iter_walks_the_loop_next_to_every_input() -> EResult<()> {
        let seq = |iter: Vec<i64>| {
            let n = iter.len();
            Rc::new(Seq {
                pos: vec![1; n],
                item: Column::Int(iter.clone()),
                iter,
            })
        };
        // iterations 0 and 4 of `a` are not in the loop; 1 has no rows in
        // either input, 3 has rows in `b` only
        let (a, b) = (seq(vec![0, 2, 2, 4]), seq(vec![2, 3]));
        let snap = mxq_xmldb::DocStore::new().snapshot();
        let mut ex = Executor::new(&snap, ExecConfig::default());
        let mut seen = Vec::new();
        let out = ex.per_iter(vec![1, 2, 3, 5], &[a, b], |_, it, runs| {
            seen.push((it, runs.to_vec()));
            // an iteration without rows in `a` yields no row
            (!runs[0].is_empty()).then_some(Item::Int(10 * it))
        });
        assert_eq!(
            seen,
            [
                (1, vec![1..1, 0..0]),
                (2, vec![1..3, 0..1]),
                (3, vec![3..3, 1..2]),
                (5, vec![4..4, 2..2]),
            ]
        );
        let Value::Seq(out) = out else {
            return Err(ExecError::Internal("per_iter makes a sequence".into()));
        };
        assert_eq!((&out.iter, &out.pos), (&vec![2], &vec![1]));
        assert_eq!(out.item.as_int(), Ok(&[20][..]));
        Ok(())
    }

    #[test]
    fn seq_gather_keeps_rows_together() {
        let t = Seq {
            iter: vec![2, 1, 1],
            pos: vec![1, 2, 1],
            item: Column::from_items(vec![Item::str("c"), Item::str("b"), Item::str("a")]),
        };
        let sorted = t.gather(&t.iter_pos_order());
        assert_eq!(
            (&sorted.iter, &sorted.pos),
            (&vec![1, 1, 2], &vec![1, 2, 1])
        );
        assert_eq!(sorted.item.item(0).string_value(), "a");
        // rows may repeat
        let picked = t.gather(&[0, 0]);
        assert_eq!((picked.iter, picked.pos), (vec![2, 2], vec![1, 1]));
    }

    #[test]
    fn dict_items_flow_through_seq_gather() {
        let t = Seq {
            iter: vec![1, 1, 2],
            pos: vec![1, 2, 1],
            item: Column::dict_from_strings(["site", "item", "item"]),
        };
        let g = t.gather(&[2, 0]);
        assert_eq!(g.item.item(0).string_value(), "item");
        assert!(matches!(g.item, Column::Dict { .. }));
    }
}
