//! The relational algebra targeted by the XQuery compiler.
//!
//! Every operator consumes and produces *sequence tables* with the pervasive
//! `iter|pos|item` schema of Section 2.1 (loop relations are unary `iter`
//! tables, nest maps carry `outer|inner|pos|item`).  The operator set mirrors
//! the logical algebra of the paper — σ, π, ⋈, ×, \, ∪̇, the row-numbering
//! operator ρ, aggregates — but the variants are specialised to the plan
//! shapes the loop-lifting compiler emits, which is exactly the property the
//! peephole optimizer of Section 4.1 exploits.
//!
//! Plans are DAGs: sub-plans are shared via [`PlanRef`] (reference counting),
//! and the executor memoises evaluated nodes by plan id, mirroring the
//! materialisation of intermediate results in MonetDB/XQuery.

use std::sync::Arc;

use mxq_engine::agg::AggFunc;
use mxq_engine::{CmpOp, Item};
use mxq_staircase::{Axis, NodeTest};

use crate::ast::ArithOp;

/// A reference-counted plan node.  Plans are immutable after compilation and
/// atomically reference counted, so a compiled plan (and with it a
/// [`crate::Prepared`] statement or a plan-cache entry) can be shared and
/// executed from many threads concurrently.
pub type PlanRef = Arc<Plan>;

/// A plan node: a unique id (for memoisation) and the operator.
#[derive(Debug)]
pub struct Plan {
    /// Unique identifier within one compilation.
    pub id: usize,
    /// The operator.
    pub op: Op,
}

/// String functions supported by [`Op::StringFn`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrFnKind {
    /// `fn:contains(a, b)`.
    Contains,
    /// `fn:starts-with(a, b)`.
    StartsWith,
    /// `fn:ends-with(a, b)`.
    EndsWith,
    /// `fn:concat(a, b, …)`.
    Concat,
    /// `fn:string-length(a)`.
    StringLength,
    /// `fn:substring(a, start[, len])`.
    Substring,
    /// `fn:string-join(seq, sep)`.
    StringJoin,
    /// `fn:upper-case(a)`.
    UpperCase,
    /// `fn:lower-case(a)`.
    LowerCase,
    /// `fn:normalize-space(a)`.
    NormalizeSpace,
    /// `fn:name(node)` — element name.
    NodeName,
    /// `fn:translate(a, from, to)`.
    Translate,
}

/// Numeric single-argument functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumFnKind {
    /// `fn:round`.
    Round,
    /// `fn:floor`.
    Floor,
    /// `fn:ceiling`.
    Ceiling,
    /// `fn:abs`.
    Abs,
}

/// Positional predicate kinds (`[3]`, `[last()]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PosFilterKind {
    /// Keep the item whose position equals the given constant.
    Eq(i64),
    /// Keep the last item of every iteration.
    Last,
}

/// The items of an [`Op::ConstSeq`].
#[derive(Debug, Clone)]
pub enum ConstItems {
    /// Literal items compiled into the plan.
    Inline(Vec<Item>),
    /// One literal lifted out of the statement text into a parameter slot
    /// ([`crate::ast::Expr::Param`]): the plan is shared by every text of
    /// the statement's shape, and each execution reads the value from its
    /// [`crate::Params`].
    Slot(usize),
}

/// The algebra operators.
///
/// Every operator emits its table in one convention, so the `ord`, `grpord`
/// and `dense` properties of Section 4.1 hold for every plan node and no node
/// records them: a loop relation ascends strictly on `iter`, a nest map
/// numbers `inner` ascending, and a sequence table is sorted on
/// `[iter, pos]` with positions `1..k` within each iteration.
/// [`crate::analysis::validate_table`] checks it under `MXQ_VALIDATE_PLANS=1`.
#[derive(Debug, Clone)]
pub enum Op {
    /// The outermost loop relation: a single iteration (`iter = [1]`).
    LoopOne,
    /// A constant sequence, loop-lifted: for every iteration of `loop_`, the
    /// same literal items at positions `1..len`.
    ConstSeq {
        /// The loop relation to lift over.
        loop_: PlanRef,
        /// The literal items, inline or in a parameter slot.
        items: ConstItems,
    },
    /// The root node of a loaded document, loop-lifted over `loop_`.
    DocRoot {
        /// The loop relation.
        loop_: PlanRef,
        /// Document name as passed to `fn:doc`.
        name: String,
    },
    /// An external variable (`declare variable $x external;`): its value is
    /// supplied at execution time through [`crate::Params`] and loop-lifted
    /// over `loop_` exactly like a constant sequence.  The optional `default`
    /// plan (from `declare variable $x external := expr;`) is evaluated when
    /// no binding is supplied; without a default, executing with the
    /// variable unbound is an error.
    ExternalVar {
        /// The loop relation to lift over.
        loop_: PlanRef,
        /// Variable name (without `$`).
        name: String,
        /// Default-value plan when the prolog declares one.
        default: Option<PlanRef>,
    },
    /// ρ: turn a sequence into a *nest map* describing one new inner
    /// iteration per input tuple.  Output columns `outer|inner|pos|item`
    /// where `inner` is densely numbered in `[iter, pos]` order.
    NestFromSeq {
        /// The sequence being iterated by a `for` clause.
        seq: PlanRef,
    },
    /// Join-recognised nesting (Section 4.1/4.2): the `for` source is
    /// independent of the enclosing loop and the `where` clause is a general
    /// comparison between an outer-only and an inner-only expression.  The
    /// nest map contains one inner iteration per *qualifying* pair of
    /// (outer iteration, source row), computed with a join instead of a
    /// Cartesian product.
    NestFromJoin {
        /// Source sequence evaluated once (in the singleton loop).
        source: PlanRef,
        /// The enclosing loop relation.
        outer_loop: PlanRef,
        /// Outer-only comparison operand, keyed by the outer `iter`.
        left: PlanRef,
        /// Source-only comparison operand, keyed by the source row (its `iter`
        /// equals the source row number).
        right: PlanRef,
        /// The comparison operator (existential semantics).
        op: CmpOp,
    },
    /// Inner loop relation of a nest map (`iter` = the `inner` column).
    NestLoop {
        /// The nest map.
        nest: PlanRef,
    },
    /// The `for` variable of a nest map: `iter = inner`, `pos = 1`, `item`.
    NestVar {
        /// The nest map.
        nest: PlanRef,
    },
    /// The positional (`at $i`) variable of a nest map.
    NestVarPos {
        /// The nest map.
        nest: PlanRef,
    },
    /// Lift a sequence of the outer scope into the inner scope of `nest`
    /// (the "loop-lifting" join over the scope map relation).
    LiftThrough {
        /// The outer-scope sequence.
        seq: PlanRef,
        /// The nest map defining the inner scope.
        nest: PlanRef,
    },
    /// Map an inner-scope result back to the outer scope (the back-mapping
    /// equi-join of Figure 5(c)), renumbering positions; optional order keys
    /// (each keyed by inner iteration, major key first, with a per-key
    /// direction) implement multi-key `order by`.
    BackMap {
        /// The inner-scope result.
        body: PlanRef,
        /// The nest map.
        nest: PlanRef,
        /// `order by` keys: one item per inner iteration each, paired with
        /// the key's descending flag.  Empty when there is no `order by`.
        order_keys: Vec<(PlanRef, bool)>,
    },
    /// Iterations of a (boolean, single-item) condition that are true
    /// (`negate = false`) or absent/false (`negate = true`) — the σ/σ¬ pair
    /// of Figure 5(b).  Output: unary `iter` table.
    SelectIters {
        /// The per-iteration condition.
        cond: PlanRef,
        /// The loop relation (needed to compute the complement).
        loop_: PlanRef,
        /// Return the complement?
        negate: bool,
    },
    /// Keep only tuples whose `iter` appears in the given loop relation.
    RestrictToIters {
        /// The sequence to restrict.
        seq: PlanRef,
        /// The loop relation to restrict to.
        iters: PlanRef,
    },
    /// Disjoint union of sequences evaluated in disjoint (or ordered)
    /// iteration sets; positions are renumbered per iteration with the part
    /// index as the major key (sequence construction `e1, e2`).
    Union {
        /// The parts, in sequence order.
        parts: Vec<PlanRef>,
    },
    /// An XPath axis step evaluated with the (loop-lifted) staircase join.
    AxisStep {
        /// The context sequence (node items).
        ctx: PlanRef,
        /// The axis.
        axis: Axis,
        /// The node test.
        test: NodeTest,
    },
    /// Attribute access: for each context node, the value(s) of the named
    /// attribute (or all attributes), as untyped string items.
    AttrStep {
        /// The context sequence (node items).
        ctx: PlanRef,
        /// Attribute name; `None` selects all attributes.
        name: Option<String>,
    },
    /// Binary arithmetic on per-iteration single items.
    Arith {
        /// The operator.
        op: ArithOp,
        /// Left operand.
        l: PlanRef,
        /// Right operand.
        r: PlanRef,
    },
    /// Unary minus.
    Neg {
        /// Operand.
        e: PlanRef,
    },
    /// Value comparison (`eq`, `lt`, …) on per-iteration single items; also
    /// used for node order comparisons (`<<`, `>>`, `is`).
    ValueCmp {
        /// The operator.
        op: CmpOp,
        /// Left operand.
        l: PlanRef,
        /// Right operand.
        r: PlanRef,
    },
    /// General comparison with existential semantics (Section 4.2): true for
    /// an iteration iff *any* pair of items compares true.
    GeneralCmp {
        /// The operator.
        op: CmpOp,
        /// Left operand sequence.
        l: PlanRef,
        /// Right operand sequence.
        r: PlanRef,
        /// The loop relation (iterations with empty operands yield false).
        loop_: PlanRef,
    },
    /// Logical `and` / `or` of per-iteration booleans.
    BoolAndOr {
        /// True for `and`.
        is_and: bool,
        /// Left operand.
        l: PlanRef,
        /// Right operand.
        r: PlanRef,
        /// The loop relation.
        loop_: PlanRef,
    },
    /// Logical negation of a per-iteration boolean (`fn:not`).
    BoolNot {
        /// Operand (effective boolean value is taken).
        e: PlanRef,
        /// The loop relation.
        loop_: PlanRef,
    },
    /// Effective boolean value per iteration (`fn:exists` shape): true iff
    /// the iteration has at least one item whose EBV is true (for node items:
    /// non-empty).
    Ebv {
        /// The sequence.
        seq: PlanRef,
        /// The loop relation (absent iterations get `false`).
        loop_: PlanRef,
        /// Set for a predicate that may evaluate to a number: an iteration
        /// whose value is one numeric item is true iff that number equals
        /// the iteration's row here (the candidate's context position).
        positions: Option<PlanRef>,
    },
    /// `fn:empty`.
    Empty {
        /// The sequence.
        seq: PlanRef,
        /// The loop relation.
        loop_: PlanRef,
    },
    /// Grouped aggregate (`count`, `sum`, `avg`, `min`, `max`) per iteration.
    Aggregate {
        /// The aggregate function.
        func: AggFunc,
        /// The sequence to aggregate (atomised).
        seq: PlanRef,
        /// The loop relation: `count`/`sum` produce 0 for empty iterations,
        /// the others produce the empty sequence.
        loop_: PlanRef,
    },
    /// `count` of a join-recognised FLWOR that returns its `for` variable:
    /// for every iteration of `loop_`, the number of source rows `join`
    /// pairs it with, without building the pairs (introduced by
    /// [`crate::analysis::simplify`] for `Aggregate(count)` over the
    /// back-mapped [`Op::NestVar`] of a [`Op::NestFromJoin`]).
    JoinCount {
        /// The recognised join ([`Op::NestFromJoin`]), never evaluated
        /// itself: its operands are.
        join: PlanRef,
        /// The loop relation (an iteration without a match counts 0).
        loop_: PlanRef,
    },
    /// Atomisation (`fn:data`): nodes are replaced by their typed value
    /// (string value; numeric strings stay strings — casts are explicit).
    Atomize {
        /// The sequence.
        seq: PlanRef,
    },
    /// `fn:string` of the first item (empty string for the empty sequence).
    StringValue {
        /// The sequence.
        seq: PlanRef,
        /// The loop relation.
        loop_: PlanRef,
    },
    /// `fn:number` — cast to double.
    CastNumber {
        /// The sequence.
        seq: PlanRef,
    },
    /// String functions (see [`StrFnKind`]).
    StringFn {
        /// Which function.
        kind: StrFnKind,
        /// Arguments (each a per-iteration sequence, atomised to its first item).
        args: Vec<PlanRef>,
        /// The loop relation.
        loop_: PlanRef,
    },
    /// Numeric functions (round/floor/ceiling/abs).
    NumFn {
        /// Which function.
        kind: NumFnKind,
        /// Argument.
        arg: PlanRef,
    },
    /// `fn:distinct-values` per iteration (atomised).
    DistinctValues {
        /// The sequence.
        seq: PlanRef,
    },
    /// Sort node items into document order and remove duplicates, per
    /// iteration (the implicit step between path steps).
    DocOrderDistinct {
        /// The sequence of node items.
        seq: PlanRef,
    },
    /// Positional predicate (`[3]`, `[last()]`) per iteration.
    PosFilter {
        /// The sequence.
        seq: PlanRef,
        /// Which positions to keep.
        kind: PosFilterKind,
    },
    /// `fn:subsequence(seq, start[, len])` with constant bounds.
    Subsequence {
        /// The sequence.
        seq: PlanRef,
        /// 1-based start position.
        start: i64,
        /// Optional length.
        len: Option<i64>,
    },
    /// Element construction: for every iteration of `loop_`, build a new
    /// element node in the transient container with the given (computed)
    /// attributes and child content.
    ElemCtor {
        /// The loop relation (one element per iteration).
        loop_: PlanRef,
        /// Element name.
        name: String,
        /// Attributes: name and per-iteration string value.
        attrs: Vec<(String, PlanRef)>,
        /// Child content parts, concatenated per iteration.
        content: Vec<PlanRef>,
    },
}

/// The table shape an operator emits and each of its inputs must have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Unary `iter` loop relation.
    Loop,
    /// `outer|inner|pos|item` nest map.
    Nest,
    /// `iter|pos|item` sequence table.
    Seq,
}

/// The one list of an operator's inputs: calls `$f(input, shape, slot)` for
/// every input field in order, with the [`Shape`] that input must have and
/// the name the verifier reports it by.  Over `&Op` the inputs are
/// `&PlanRef`s, over `&mut Op` they are `&mut PlanRef`s.
macro_rules! for_each_input {
    ($op:expr, $f:ident) => {{
        use Shape::{Loop, Nest, Seq};
        match $op {
            Op::LoopOne => {}
            Op::ConstSeq { loop_, .. } | Op::DocRoot { loop_, .. } => $f(loop_, Loop, "loop"),
            Op::ExternalVar { loop_, default, .. } => {
                $f(loop_, Loop, "loop");
                if let Some(d) = default {
                    $f(d, Seq, "default");
                }
            }
            Op::NestFromSeq { seq } => $f(seq, Seq, "seq"),
            Op::NestFromJoin {
                source,
                outer_loop,
                left,
                right,
                ..
            } => {
                $f(source, Seq, "source");
                $f(outer_loop, Loop, "outer loop");
                $f(left, Seq, "left operand");
                $f(right, Seq, "right operand");
            }
            Op::NestLoop { nest } | Op::NestVar { nest } | Op::NestVarPos { nest } => {
                $f(nest, Nest, "nest")
            }
            Op::LiftThrough { seq, nest } => {
                $f(seq, Seq, "seq");
                $f(nest, Nest, "nest");
            }
            Op::BackMap {
                body,
                nest,
                order_keys,
            } => {
                $f(body, Seq, "body");
                $f(nest, Nest, "nest");
                for (k, _) in order_keys {
                    $f(k, Seq, "order key");
                }
            }
            Op::SelectIters { cond, loop_, .. } => {
                $f(cond, Seq, "condition");
                $f(loop_, Loop, "loop");
            }
            Op::RestrictToIters { seq, iters } => {
                $f(seq, Seq, "seq");
                $f(iters, Loop, "iters");
            }
            Op::Union { parts } => {
                for part in parts {
                    $f(part, Seq, "part");
                }
            }
            Op::AxisStep { ctx, .. } | Op::AttrStep { ctx, .. } => $f(ctx, Seq, "context"),
            Op::Arith { l, r, .. } | Op::ValueCmp { l, r, .. } => {
                $f(l, Seq, "left");
                $f(r, Seq, "right");
            }
            Op::Neg { e } => $f(e, Seq, "operand"),
            Op::GeneralCmp { l, r, loop_, .. } | Op::BoolAndOr { l, r, loop_, .. } => {
                $f(l, Seq, "left");
                $f(r, Seq, "right");
                $f(loop_, Loop, "loop");
            }
            Op::BoolNot { e, loop_ } => {
                $f(e, Seq, "operand");
                $f(loop_, Loop, "loop");
            }
            Op::Ebv {
                seq,
                loop_,
                positions,
            } => {
                $f(seq, Seq, "seq");
                $f(loop_, Loop, "loop");
                if let Some(p) = positions {
                    $f(p, Seq, "positions");
                }
            }
            Op::Empty { seq, loop_ }
            | Op::Aggregate { seq, loop_, .. }
            | Op::StringValue { seq, loop_ } => {
                $f(seq, Seq, "seq");
                $f(loop_, Loop, "loop");
            }
            Op::JoinCount { join, loop_ } => {
                $f(join, Nest, "join");
                $f(loop_, Loop, "loop");
            }
            Op::Atomize { seq }
            | Op::CastNumber { seq }
            | Op::DistinctValues { seq }
            | Op::DocOrderDistinct { seq }
            | Op::PosFilter { seq, .. }
            | Op::Subsequence { seq, .. } => $f(seq, Seq, "seq"),
            Op::StringFn { args, loop_, .. } => {
                for a in args {
                    $f(a, Seq, "argument");
                }
                $f(loop_, Loop, "loop");
            }
            Op::NumFn { arg, .. } => $f(arg, Seq, "argument"),
            Op::ElemCtor {
                loop_,
                attrs,
                content,
                ..
            } => {
                $f(loop_, Loop, "loop");
                for (_, a) in attrs {
                    $f(a, Seq, "attribute value");
                }
                for c in content {
                    $f(c, Seq, "content");
                }
            }
        }
    }};
}

impl Op {
    /// Visit the operator's inputs in order, each with the [`Shape`] it
    /// must have and its slot name.
    pub(crate) fn for_each_input(&self, mut f: impl FnMut(&PlanRef, Shape, &'static str)) {
        for_each_input!(self, f)
    }

    /// Visit the operator's inputs in order, mutably (to rewrite them in
    /// place).
    pub(crate) fn for_each_input_mut(&mut self, mut f: impl FnMut(&mut PlanRef)) {
        let mut f = |input: &mut PlanRef, _: Shape, _: &'static str| f(input);
        for_each_input!(self, f)
    }
}

impl Plan {
    /// Number of operators in the plan DAG (each shared node counted once) —
    /// the paper reports an average of 86 operators for XMark plans.
    pub fn operator_count(self: &Arc<Self>) -> usize {
        let mut seen = std::collections::HashSet::new();
        fn walk(p: &PlanRef, seen: &mut std::collections::HashSet<usize>) {
            if !seen.insert(p.id) {
                return;
            }
            p.op.for_each_input(|c, _, _| walk(c, seen));
        }
        walk(self, &mut seen);
        seen.len()
    }

    /// The children of this plan node (shared references).
    pub fn children(&self) -> Vec<PlanRef> {
        let mut v = Vec::new();
        self.op.for_each_input(|c, _, _| v.push(c.clone()));
        v
    }

    /// Short operator name for debug dumps and plan statistics.
    pub fn op_name(&self) -> &'static str {
        match &self.op {
            Op::LoopOne => "loop",
            Op::ConstSeq { .. } => "const",
            Op::DocRoot { .. } => "doc",
            Op::ExternalVar { .. } => "extern",
            Op::NestFromSeq { .. } => "nest(ρ)",
            Op::NestFromJoin { .. } => "nest(⋈)",
            Op::NestLoop { .. } => "nest-loop",
            Op::NestVar { .. } => "nest-var",
            Op::NestVarPos { .. } => "nest-pos",
            Op::LiftThrough { .. } => "lift(⋈)",
            Op::BackMap { .. } => "backmap(⋈ρ)",
            Op::SelectIters { .. } => "σ-iters",
            Op::RestrictToIters { .. } => "⋉",
            Op::Union { .. } => "∪̇",
            Op::AxisStep { .. } => "scj",
            Op::AttrStep { .. } => "attr",
            Op::Arith { .. } => "arith",
            Op::Neg { .. } => "neg",
            Op::ValueCmp { .. } => "cmp",
            Op::GeneralCmp { .. } => "cmp∃",
            Op::BoolAndOr { .. } => "bool",
            Op::BoolNot { .. } => "not",
            Op::Ebv { .. } => "ebv",
            Op::Empty { .. } => "empty",
            Op::Aggregate { .. } => "agg",
            Op::JoinCount { .. } => "count(⋈)",
            Op::Atomize { .. } => "data",
            Op::StringValue { .. } => "string",
            Op::CastNumber { .. } => "number",
            Op::StringFn { .. } => "strfn",
            Op::NumFn { .. } => "numfn",
            Op::DistinctValues { .. } => "distinct",
            Op::DocOrderDistinct { .. } => "docorder-δ",
            Op::PosFilter { .. } => "pos-σ",
            Op::Subsequence { .. } => "subseq",
            Op::ElemCtor { .. } => "elem",
        }
    }

    /// Render the DAG as an indented tree (shared nodes are expanded once and
    /// referenced by id afterwards) — useful for `EXPLAIN`-style output.
    pub fn explain(self: &Arc<Self>) -> String {
        self.explain_with(|_| None)
    }

    /// Render the DAG like [`Plan::explain`], with `tag(node)` (when it
    /// returns one) after each expanded node's name.
    pub(crate) fn explain_with(self: &Arc<Self>, tag: impl Fn(&Plan) -> Option<String>) -> String {
        fn walk(
            p: &PlanRef,
            depth: usize,
            tag: &dyn Fn(&Plan) -> Option<String>,
            seen: &mut std::collections::HashSet<usize>,
            out: &mut String,
        ) {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&format!("[{}] {}", p.id, p.op_name()));
            if !seen.insert(p.id) {
                out.push_str(" (shared)\n");
                return;
            }
            if let Some(t) = tag(p) {
                out.push(' ');
                out.push_str(&t);
            }
            out.push('\n');
            p.op.for_each_input(|c, _, _| walk(c, depth + 1, tag, seen, out));
        }
        let mut out = String::new();
        let mut seen = std::collections::HashSet::new();
        walk(self, 0, &tag, &mut seen, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(id: usize, op: Op) -> PlanRef {
        Arc::new(Plan { id, op })
    }

    #[test]
    fn operator_count_counts_shared_nodes_once() {
        let loop_ = mk(0, Op::LoopOne);
        let a = mk(
            1,
            Op::ConstSeq {
                loop_: loop_.clone(),
                items: ConstItems::Inline(vec![Item::Int(1)]),
            },
        );
        let b = mk(
            2,
            Op::ConstSeq {
                loop_: loop_.clone(),
                items: ConstItems::Inline(vec![Item::Int(2)]),
            },
        );
        let top = mk(3, Op::Union { parts: vec![a, b] });
        assert_eq!(top.operator_count(), 4);
    }

    #[test]
    fn explain_mentions_operators() {
        let loop_ = mk(0, Op::LoopOne);
        let c = mk(
            1,
            Op::ConstSeq {
                loop_,
                items: ConstItems::Inline(vec![Item::Int(1)]),
            },
        );
        let s = c.explain();
        assert!(s.contains("const"));
        assert!(s.contains("loop"));
    }
}
