//! Static plan analysis: property inference, plan verification and
//! property-driven simplification (Section 4.1 taken to its conclusion).
//!
//! Order and position numbering need no inference: every operator emits its
//! table sorted on `[iter, pos]` with positions `1..k` per iteration (the
//! convention documented on [`Op`]).  This module derives the properties that
//! do vary bottom-up over the finished DAG — per-iteration
//! duplicate-freeness, document order, at-most-one-item cardinality,
//! constant columns, the source document of a node column and the
//! dictionary a string column's codes come from — and puts it to work three
//! ways:
//!
//! * [`verify`] checks the structural preconditions of every operator (loop
//!   relations where loops are expected, nest maps where nest maps are
//!   expected, node sequences under the document-order δ) and that plan ids
//!   are unique, so a broken rewrite or compiler bug surfaces at `prepare()`
//!   time as [`crate::Error::PlanInvariant`] instead of as a silently wrong
//!   answer;
//! * [`simplify`] removes operators the properties prove redundant (a
//!   `docorder-δ` whose input is already in document order and duplicate
//!   free, a `distinct` over at-most-one-item iterations) and fuses `count`
//!   over a recognised join into `count(⋈)` (no pairs built);
//! * [`validate_table`] asserts the table convention and the inferred
//!   properties against actually executed tables when the environment sets
//!   `MXQ_VALIDATE_PLANS=1` — the analysis is itself tested differentially,
//!   on every table of every query of the test suite.
//!
//! [`explain_annotated`] renders a plan with its inferred properties, which
//! [`crate::Session::explain`] exposes together with the list of applied
//! rewrites.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use mxq_engine::agg::AggFunc;
use mxq_engine::{Item, Table};

use crate::algebra::{ConstItems, Op, Plan, PlanRef};

// ---------------------------------------------------------------------------
// the inferred property set
// ---------------------------------------------------------------------------

/// Table shape of an operator's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Unary `iter` loop relation.
    Loop,
    /// `outer|inner|pos|item` nest map.
    Nest,
    /// `iter|pos|item` sequence table.
    Seq,
}

/// What the `item` column of a sequence can hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// Provably only node references.
    Nodes,
    /// Provably only atomic values (never nodes).
    Atomic,
    /// Statically unknown.
    Mixed,
}

impl ItemKind {
    fn join(self, other: ItemKind) -> ItemKind {
        if self == other {
            self
        } else {
            ItemKind::Mixed
        }
    }
}

/// Provenance of a dictionary-encoded string column: which shared dictionary
/// its codes resolve against.  Two columns with the same origin are backed by
/// the same [`mxq_engine::Dictionary`] instance at runtime, so an equi-join
/// between them runs code-to-code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DictOrigin {
    /// The attribute-value dictionary of the named loaded document.
    AttrValues(String),
}

impl fmt::Display for DictOrigin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DictOrigin::AttrValues(doc) => write!(f, "attr-values({doc})"),
        }
    }
}

/// The properties inferred for one plan node.  Every `true` is a guarantee
/// (checked at runtime under `MXQ_VALIDATE_PLANS=1`); `false` means
/// "not proven", never "proven false".
#[derive(Debug, Clone)]
pub struct NodeProps {
    /// Output table shape.
    pub shape: Shape,
    /// Every iteration holds at most one row.
    pub max_one_per_iter: bool,
    /// No iteration holds the same node twice (trivially true for
    /// sequences proven to hold no nodes).
    pub dup_free_iter: bool,
    /// Node items appear in document order within each iteration
    /// (vacuously true for sequences proven to hold no nodes).
    pub item_doc_order: bool,
    /// What the `item` column can hold.
    pub item_kind: ItemKind,
    /// The literal items every iteration repeats (constant columns).
    pub const_items: Option<Vec<Item>>,
    /// Every node item provably belongs to this loaded document.
    pub source_doc: Option<String>,
    /// The dictionary the item column's codes provably come from.
    pub dict: Option<DictOrigin>,
}

impl NodeProps {
    /// Properties of a loop relation (`iter` only; item facts are vacuous).
    fn loop_shape() -> NodeProps {
        NodeProps {
            shape: Shape::Loop,
            max_one_per_iter: true,
            dup_free_iter: true,
            item_doc_order: true,
            item_kind: ItemKind::Mixed,
            const_items: None,
            source_doc: None,
            dict: None,
        }
    }

    /// Properties of a per-iteration single atomic value (comparisons,
    /// aggregates, boolean connectives, …).
    fn scalar() -> NodeProps {
        NodeProps {
            shape: Shape::Seq,
            max_one_per_iter: true,
            dup_free_iter: true,
            item_doc_order: true,
            item_kind: ItemKind::Atomic,
            const_items: None,
            source_doc: None,
            dict: None,
        }
    }

    /// Greatest lower bound of two property sets (used when an operator can
    /// produce either of two tables, e.g. an external variable falling back
    /// to its declared default).
    fn meet(&self, other: &NodeProps) -> NodeProps {
        NodeProps {
            shape: self.shape,
            max_one_per_iter: self.max_one_per_iter && other.max_one_per_iter,
            dup_free_iter: self.dup_free_iter && other.dup_free_iter,
            item_doc_order: self.item_doc_order && other.item_doc_order,
            item_kind: self.item_kind.join(other.item_kind),
            const_items: None,
            source_doc: match (&self.source_doc, &other.source_doc) {
                (Some(a), Some(b)) if a == b => Some(a.clone()),
                _ => None,
            },
            dict: match (&self.dict, &other.dict) {
                (Some(a), Some(b)) if a == b => Some(a.clone()),
                _ => None,
            },
        }
    }

    /// Compact annotation used by [`explain_annotated`].
    pub fn annotation(&self) -> String {
        let mut tags: Vec<String> = Vec::new();
        match self.shape {
            Shape::Loop => tags.push("loop".into()),
            Shape::Nest => tags.push("nest".into()),
            Shape::Seq => {
                if self.max_one_per_iter {
                    tags.push("max1".into());
                }
                match self.item_kind {
                    ItemKind::Nodes => {
                        tags.push("nodes".into());
                        if self.dup_free_iter {
                            tags.push("dup-free".into());
                        }
                        if self.item_doc_order {
                            tags.push("doc-order".into());
                        }
                    }
                    ItemKind::Atomic => tags.push("atomic".into()),
                    ItemKind::Mixed => {}
                }
                if self.const_items.is_some() {
                    tags.push("const".into());
                }
                if let Some(doc) = &self.source_doc {
                    tags.push(format!("doc={doc}"));
                }
                if let Some(d) = &self.dict {
                    tags.push(format!("dict={d}"));
                }
            }
        }
        format!("{{{}}}", tags.join(" "))
    }
}

/// Structural equality of literal items (bitwise on doubles, so `NaN`
/// constants compare equal to themselves).
fn items_equal(a: &Item, b: &Item) -> bool {
    match (a, b) {
        (Item::Int(x), Item::Int(y)) => x == y,
        (Item::Dbl(x), Item::Dbl(y)) => x.to_bits() == y.to_bits(),
        (Item::Str(x), Item::Str(y)) => x == y,
        (Item::Bool(x), Item::Bool(y)) => x == y,
        (Item::Node(x), Item::Node(y)) => x == y,
        _ => false,
    }
}

fn kind_of_items(items: &[Item]) -> ItemKind {
    let nodes = items.iter().filter(|i| i.is_node()).count();
    if nodes == 0 {
        ItemKind::Atomic
    } else if nodes == items.len() {
        ItemKind::Nodes
    } else {
        ItemKind::Mixed
    }
}

fn pairwise_distinct(items: &[Item]) -> bool {
    // literal sequences are tiny; quadratic is fine (and capped for safety)
    items.len() <= 64
        && items
            .iter()
            .enumerate()
            .all(|(i, a)| items[i + 1..].iter().all(|b| !items_equal(a, b)))
}

// ---------------------------------------------------------------------------
// bottom-up inference
// ---------------------------------------------------------------------------

/// The result of analysing one plan DAG: inferred properties per plan id.
#[derive(Debug, Default)]
pub struct Analysis {
    props: HashMap<usize, NodeProps>,
}

impl Analysis {
    /// The inferred properties of a plan node, by id.
    ///
    /// # Panics
    /// Panics when the id does not belong to the analysed DAG.
    pub fn props(&self, id: usize) -> &NodeProps {
        &self.props[&id]
    }

    /// The inferred properties of a plan node, by id, if analysed.
    pub fn get(&self, id: usize) -> Option<&NodeProps> {
        self.props.get(&id)
    }

    /// Number of analysed nodes.
    pub fn len(&self) -> usize {
        self.props.len()
    }

    /// True when no nodes were analysed.
    pub fn is_empty(&self) -> bool {
        self.props.is_empty()
    }

    /// Analyse another root into this map (used when one execution evaluates
    /// several plans sharing an id space, e.g. update statements).
    pub fn extend_with(&mut self, root: &PlanRef) {
        analyze_into(root, &mut self.props);
    }
}

/// Infer properties for every node of the DAG, bottom-up.
pub fn analyze(root: &PlanRef) -> Analysis {
    let mut a = Analysis::default();
    a.extend_with(root);
    a
}

fn analyze_into(root: &PlanRef, out: &mut HashMap<usize, NodeProps>) {
    if out.contains_key(&root.id) {
        return;
    }
    for c in root.children() {
        analyze_into(&c, out);
    }
    let props = infer_node(&root.op, out);
    out.insert(root.id, props);
}

/// Per-operator inference.  `env` holds the already-inferred children.
fn infer_node(op: &Op, env: &HashMap<usize, NodeProps>) -> NodeProps {
    let p = |r: &PlanRef| &env[&r.id];
    match op {
        Op::LoopOne | Op::NestLoop { .. } | Op::SelectIters { .. } => NodeProps::loop_shape(),

        Op::ConstSeq {
            items: ConstItems::Inline(items),
            ..
        } => {
            let kind = kind_of_items(items);
            NodeProps {
                shape: Shape::Seq,
                max_one_per_iter: items.len() <= 1,
                dup_free_iter: pairwise_distinct(items),
                item_doc_order: items.len() <= 1 || kind == ItemKind::Atomic,
                item_kind: kind,
                const_items: Some(items.clone()),
                source_doc: None,
                dict: None,
            }
        }
        // a lifted literal: typed exactly like the single literal it came
        // from, except that its value is unknown until execution
        Op::ConstSeq {
            items: ConstItems::Slot(_),
            ..
        } => NodeProps::scalar(),

        Op::DocRoot { name, .. } => NodeProps {
            shape: Shape::Seq,
            max_one_per_iter: true,
            dup_free_iter: true,
            item_doc_order: true,
            item_kind: ItemKind::Nodes,
            const_items: None,
            source_doc: Some(name.clone()),
            dict: None,
        },

        Op::ExternalVar { default, .. } => {
            // bound: the same opaque items replicated per iteration
            let bound = NodeProps {
                shape: Shape::Seq,
                max_one_per_iter: false,
                dup_free_iter: false,
                item_doc_order: false,
                item_kind: ItemKind::Mixed,
                const_items: None,
                source_doc: None,
                dict: None,
            };
            match default {
                // unbound executions return the default's table verbatim
                Some(d) => bound.meet(p(d)),
                None => bound,
            }
        }

        Op::NestFromSeq { seq } => {
            let s = p(seq);
            NodeProps {
                shape: Shape::Nest,
                // at most one *inner iteration per outer iteration* — the
                // cardinality BackMap needs to inherit its body's order
                max_one_per_iter: s.max_one_per_iter,
                dup_free_iter: false,
                item_doc_order: false,
                item_kind: s.item_kind,
                const_items: None,
                source_doc: s.source_doc.clone(),
                dict: None,
            }
        }

        Op::NestFromJoin { source, .. } => {
            let s = p(source);
            NodeProps {
                shape: Shape::Nest,
                max_one_per_iter: false,
                dup_free_iter: false,
                item_doc_order: false,
                item_kind: s.item_kind,
                const_items: None,
                source_doc: s.source_doc.clone(),
                dict: None,
            }
        }

        Op::NestVar { nest } => {
            let n = p(nest);
            NodeProps {
                shape: Shape::Seq,
                max_one_per_iter: true,
                dup_free_iter: true,
                item_doc_order: true,
                item_kind: n.item_kind,
                const_items: None,
                source_doc: n.source_doc.clone(),
                dict: None,
            }
        }

        Op::NestVarPos { .. } => NodeProps::scalar(),

        Op::LiftThrough { seq, .. } => {
            // each inner iteration receives a verbatim copy of its outer
            // iteration's rows, emitted in (inner, pos) order
            let s = p(seq);
            NodeProps {
                shape: Shape::Seq,
                dict: None, // the copy re-materialises the item column
                ..s.clone()
            }
        }

        Op::BackMap {
            body,
            nest,
            order_keys,
        } => {
            let b = p(body);
            // when each outer iteration owns at most one inner iteration,
            // back-mapping concatenates at most one group: the body's
            // per-iteration order and duplicate facts survive.  With several
            // groups (or explicit order keys) they do not.
            let single_group = order_keys.is_empty() && p(nest).max_one_per_iter;
            NodeProps {
                shape: Shape::Seq,
                max_one_per_iter: single_group && b.max_one_per_iter,
                dup_free_iter: single_group && b.dup_free_iter,
                item_doc_order: single_group && b.item_doc_order,
                item_kind: b.item_kind,
                const_items: None,
                source_doc: b.source_doc.clone(),
                dict: None,
            }
        }

        Op::RestrictToIters { seq, .. } => {
            // whole iterations are dropped; surviving ones are untouched (the
            // row filter preserves order and the column encoding)
            NodeProps {
                shape: Shape::Seq,
                ..p(seq).clone()
            }
        }

        Op::Union { parts } => {
            if let [part] = parts.as_slice() {
                let q = p(part);
                return NodeProps {
                    shape: Shape::Seq,
                    dict: None,
                    ..q.clone()
                };
            }
            let kinds = parts
                .iter()
                .map(|q| p(q).item_kind)
                .reduce(ItemKind::join)
                .unwrap_or(ItemKind::Mixed);
            let source = parts
                .iter()
                .map(|q| p(q).source_doc.clone())
                .reduce(|a, b| if a == b { a } else { None })
                .flatten();
            NodeProps {
                shape: Shape::Seq,
                max_one_per_iter: false,
                dup_free_iter: kinds == ItemKind::Atomic,
                item_doc_order: kinds == ItemKind::Atomic,
                item_kind: kinds,
                const_items: None,
                source_doc: if kinds == ItemKind::Nodes {
                    source
                } else {
                    None
                },
                dict: None,
            }
        }

        Op::AxisStep { ctx, .. } => NodeProps {
            // the staircase join result is deduplicated per iteration and the
            // executor orders it by (iter, node): document order, duplicate
            // free
            shape: Shape::Seq,
            max_one_per_iter: false,
            dup_free_iter: true,
            item_doc_order: true,
            item_kind: ItemKind::Nodes,
            const_items: None,
            source_doc: p(ctx).source_doc.clone(),
            dict: None,
        },

        Op::AttrStep { ctx, name } => {
            let c = p(ctx);
            // one named attribute per element: a single-node context yields
            // at most one row per iteration
            let single = c.max_one_per_iter && name.is_some();
            NodeProps {
                shape: Shape::Seq,
                max_one_per_iter: single,
                dup_free_iter: true, // holds no nodes
                item_doc_order: true,
                item_kind: ItemKind::Atomic,
                const_items: None,
                source_doc: None,
                // context nodes of one loaded document read their attribute
                // values as codes into that document's value dictionary
                dict: c
                    .source_doc
                    .clone()
                    .filter(|_| c.item_kind == ItemKind::Nodes)
                    .map(DictOrigin::AttrValues),
            }
        }

        Op::Arith { .. }
        | Op::ValueCmp { .. }
        | Op::GeneralCmp { .. }
        | Op::BoolAndOr { .. }
        | Op::BoolNot { .. }
        | Op::Ebv { .. }
        | Op::Empty { .. }
        | Op::Aggregate { .. }
        | Op::JoinCount { .. }
        | Op::StringValue { .. }
        | Op::StringFn { .. } => NodeProps::scalar(),

        Op::Neg { e: seq }
        | Op::CastNumber { seq }
        | Op::NumFn { arg: seq, .. }
        | Op::DistinctValues { seq } => NodeProps {
            max_one_per_iter: p(seq).max_one_per_iter,
            ..NodeProps::scalar()
        },

        Op::Atomize { seq } => {
            let s = p(seq);
            NodeProps {
                max_one_per_iter: s.max_one_per_iter,
                // distinct nodes may atomise to equal strings
                dup_free_iter: s.max_one_per_iter,
                const_items: if s.item_kind == ItemKind::Atomic {
                    s.const_items.clone()
                } else {
                    None
                },
                // a dictionary-encoded column is already atomic and passes
                // through unchanged, codes and all
                dict: s.dict.clone(),
                ..NodeProps::scalar()
            }
        }

        Op::DocOrderDistinct { seq } => {
            let s = p(seq);
            NodeProps {
                shape: Shape::Seq,
                max_one_per_iter: s.max_one_per_iter,
                dup_free_iter: true,
                item_doc_order: true,
                item_kind: s.item_kind,
                const_items: None,
                source_doc: s.source_doc.clone(),
                dict: None,
            }
        }

        // positions are unique per iteration, so a positional pick keeps at
        // most one row
        Op::PosFilter { seq, .. } => NodeProps {
            shape: Shape::Seq,
            max_one_per_iter: true,
            dup_free_iter: true,
            const_items: None,
            ..p(seq).clone()
        },

        Op::Subsequence { seq, len, .. } => {
            let s = p(seq);
            let max_one = s.max_one_per_iter || matches!(len, Some(l) if *l <= 1);
            NodeProps {
                shape: Shape::Seq,
                max_one_per_iter: max_one,
                dup_free_iter: s.dup_free_iter || max_one,
                const_items: None,
                ..s.clone()
            }
        }

        Op::ElemCtor { .. } => NodeProps {
            shape: Shape::Seq,
            max_one_per_iter: true,
            dup_free_iter: true,
            item_doc_order: true,
            item_kind: ItemKind::Nodes,
            const_items: None,
            // constructed nodes live in the transient container, not in a
            // loaded document
            source_doc: None,
            dict: None,
        },
    }
}

// ---------------------------------------------------------------------------
// plan verification
// ---------------------------------------------------------------------------

/// A structural invariant violated by a plan — a compiler or rewrite bug
/// caught before execution.
#[derive(Debug, Clone)]
pub struct PlanViolation {
    /// Id of the offending plan node.
    pub plan_id: usize,
    /// Operator name of the offending node.
    pub op: &'static str,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.plan_id, self.op, self.message)
    }
}

impl std::error::Error for PlanViolation {}

/// Verify the structural preconditions of every operator in the DAG.
///
/// Checked invariants: every `loop_` input is a loop relation, every `nest`
/// input is a nest map, every sequence input is a sequence; the
/// document-order δ and the axis steps consume sequences that can actually
/// hold nodes; literal sequences hold no node references; plan ids are
/// unique across the DAG (distinct nodes sharing an id would corrupt the
/// executor's memo table).
pub fn verify(root: &PlanRef, analysis: &Analysis) -> Result<(), PlanViolation> {
    let mut ids: HashMap<usize, *const Plan> = HashMap::new();
    verify_node(root, analysis, &mut ids)
}

fn verify_node(
    p: &PlanRef,
    analysis: &Analysis,
    ids: &mut HashMap<usize, *const Plan>,
) -> Result<(), PlanViolation> {
    let ptr = Arc::as_ptr(p);
    match ids.get(&p.id) {
        Some(&seen) if std::ptr::eq(seen, ptr) => return Ok(()),
        Some(_) => {
            return Err(PlanViolation {
                plan_id: p.id,
                op: p.op_name(),
                message: "two distinct plan nodes share one id (memo corruption)".into(),
            })
        }
        None => {
            ids.insert(p.id, ptr);
        }
    }
    for c in p.children() {
        verify_node(&c, analysis, ids)?;
    }

    let violation = |message: String| PlanViolation {
        plan_id: p.id,
        op: p.op_name(),
        message,
    };
    let shape_of = |r: &PlanRef| analysis.props(r.id).shape;
    let expect = |r: &PlanRef, want: Shape, slot: &str| -> Result<(), PlanViolation> {
        let got = shape_of(r);
        if got == want {
            Ok(())
        } else {
            Err(violation(format!(
                "{slot} input [{}] has shape {got:?}, expected {want:?}",
                r.id
            )))
        }
    };

    use Shape::{Loop, Nest, Seq};
    match &p.op {
        Op::LoopOne => {}
        Op::ConstSeq { loop_, items } => {
            expect(loop_, Loop, "loop")?;
            if matches!(items, ConstItems::Inline(items) if items.iter().any(Item::is_node)) {
                return Err(violation("literal sequence holds a node reference".into()));
            }
        }
        // count(⋈) reads the operands of a recognised join, never a
        // computed nest map
        Op::JoinCount { join, .. } if !matches!(join.op, Op::NestFromJoin { .. }) => {
            return Err(violation(format!(
                "join input [{}] is {}, not a recognised join",
                join.id,
                join.op_name()
            )));
        }
        Op::DocRoot { loop_, .. } | Op::JoinCount { loop_, .. } => expect(loop_, Loop, "loop")?,
        Op::ExternalVar { loop_, default, .. } => {
            expect(loop_, Loop, "loop")?;
            if let Some(d) = default {
                expect(d, Seq, "default")?;
            }
        }
        Op::NestFromSeq { seq } => expect(seq, Seq, "seq")?,
        Op::NestFromJoin {
            source,
            outer_loop,
            left,
            right,
            ..
        } => {
            expect(source, Seq, "source")?;
            expect(outer_loop, Loop, "outer loop")?;
            expect(left, Seq, "left operand")?;
            expect(right, Seq, "right operand")?;
        }
        Op::NestLoop { nest } | Op::NestVar { nest } | Op::NestVarPos { nest } => {
            expect(nest, Nest, "nest")?
        }
        Op::LiftThrough { seq, nest } => {
            expect(seq, Seq, "seq")?;
            expect(nest, Nest, "nest")?;
        }
        Op::BackMap {
            body,
            nest,
            order_keys,
        } => {
            expect(body, Seq, "body")?;
            expect(nest, Nest, "nest")?;
            for (k, _) in order_keys {
                expect(k, Seq, "order key")?;
            }
        }
        Op::SelectIters { cond, loop_, .. } => {
            expect(cond, Seq, "condition")?;
            expect(loop_, Loop, "loop")?;
        }
        Op::RestrictToIters { seq, iters } => {
            expect(seq, Seq, "seq")?;
            expect(iters, Loop, "iters")?;
        }
        Op::Union { parts } => {
            for part in parts {
                expect(part, Seq, "part")?;
            }
        }
        Op::AxisStep { ctx, .. } | Op::AttrStep { ctx, .. } => {
            expect(ctx, Seq, "context")?;
            if analysis.props(ctx.id).item_kind == ItemKind::Atomic {
                return Err(violation(
                    "path step over a provably node-free sequence (XPTY0019)".into(),
                ));
            }
        }
        Op::Arith { l, r, .. } | Op::ValueCmp { l, r, .. } => {
            expect(l, Seq, "left")?;
            expect(r, Seq, "right")?;
        }
        Op::Neg { e } => expect(e, Seq, "operand")?,
        Op::GeneralCmp { l, r, loop_, .. } | Op::BoolAndOr { l, r, loop_, .. } => {
            expect(l, Seq, "left")?;
            expect(r, Seq, "right")?;
            expect(loop_, Loop, "loop")?;
        }
        Op::BoolNot { e, loop_ } => {
            expect(e, Seq, "operand")?;
            expect(loop_, Loop, "loop")?;
        }
        Op::Ebv {
            seq,
            loop_,
            positions,
        } => {
            expect(seq, Seq, "seq")?;
            expect(loop_, Loop, "loop")?;
            if let Some(p) = positions {
                expect(p, Seq, "positions")?;
            }
        }
        Op::Empty { seq, loop_ }
        | Op::Aggregate { seq, loop_, .. }
        | Op::StringValue { seq, loop_ } => {
            expect(seq, Seq, "seq")?;
            expect(loop_, Loop, "loop")?;
        }
        Op::Atomize { seq }
        | Op::CastNumber { seq }
        | Op::DistinctValues { seq }
        | Op::PosFilter { seq, .. }
        | Op::Subsequence { seq, .. } => expect(seq, Seq, "seq")?,
        Op::DocOrderDistinct { seq } => {
            expect(seq, Seq, "seq")?;
            if analysis.props(seq.id).item_kind == ItemKind::Atomic {
                return Err(violation(
                    "document-order δ over a provably node-free sequence".into(),
                ));
            }
        }
        Op::StringFn { args, loop_, .. } => {
            for a in args {
                expect(a, Seq, "argument")?;
            }
            expect(loop_, Loop, "loop")?;
        }
        Op::NumFn { arg, .. } => expect(arg, Seq, "argument")?,
        Op::ElemCtor {
            loop_,
            attrs,
            content,
            ..
        } => {
            expect(loop_, Loop, "loop")?;
            for (_, a) in attrs {
                expect(a, Seq, "attribute value")?;
            }
            for c in content {
                expect(c, Seq, "content")?;
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// property-driven simplification
// ---------------------------------------------------------------------------

/// One applied rewrite, for `EXPLAIN`-style reporting.
#[derive(Debug, Clone)]
pub struct Rewrite {
    /// Id of the node the rewrite applied to (in the pre-rewrite plan).
    pub plan_id: usize,
    /// Human-readable description.
    pub description: String,
}

impl fmt::Display for Rewrite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.plan_id, self.description)
    }
}

/// The outcome of [`simplify`].
#[derive(Debug)]
pub struct Simplified {
    /// The rewritten plan (shares untouched sub-DAGs with the input).
    pub plan: PlanRef,
    /// Operator eliminations and fusions, in application order.
    pub rewrites: Vec<Rewrite>,
}

struct Simplifier<'a> {
    analysis: &'a Analysis,
    memo: HashMap<usize, PlanRef>,
    next_id: usize,
    rewrites: Vec<Rewrite>,
}

/// Rewrite a plan using the inferred properties:
///
/// * drop a [`Op::DocOrderDistinct`] whose input is provably in document
///   order and duplicate free — the δ would be an expensive no-op;
/// * replace a [`Op::DistinctValues`] over at-most-one-item iterations with
///   plain atomisation;
/// * drop a `⋉` under `count` that restricts to the count's own loop, and
///   fuse `count(for $x in S where L op R return $x)` over a recognised join
///   into [`Op::JoinCount`];
///
/// Only the nodes a rewrite touches and their ancestors are rebuilt: a plan
/// no rewrite applies to comes back as the input `Arc`.  Node ids are
/// preserved for rebuilt nodes (replacement nodes get fresh ids), so the
/// executor's memoisation keeps working across shared sub-DAGs.
pub fn simplify(root: &PlanRef, analysis: &Analysis) -> Simplified {
    let mut max_id = 0;
    fn walk_max(p: &PlanRef, seen: &mut HashMap<usize, ()>, max_id: &mut usize) {
        if seen.insert(p.id, ()).is_some() {
            return;
        }
        *max_id = (*max_id).max(p.id);
        for c in p.children() {
            walk_max(&c, seen, max_id);
        }
    }
    walk_max(root, &mut HashMap::new(), &mut max_id);

    let mut s = Simplifier {
        analysis,
        memo: HashMap::new(),
        next_id: max_id + 1,
        rewrites: Vec::new(),
    };
    let plan = s.rewrite(root);
    Simplified {
        plan,
        rewrites: s.rewrites,
    }
}

impl Simplifier<'_> {
    fn rewrite(&mut self, p: &PlanRef) -> PlanRef {
        if let Some(done) = self.memo.get(&p.id) {
            return done.clone();
        }
        let result = self.rewrite_uncached(p);
        self.memo.insert(p.id, result.clone());
        result
    }

    fn rewrite_uncached(&mut self, p: &PlanRef) -> PlanRef {
        // -- elimination: redundant document-order δ ------------------------
        if let Op::DocOrderDistinct { seq } = &p.op {
            let a = self.analysis.props(seq.id);
            if a.item_kind == ItemKind::Nodes && a.item_doc_order && a.dup_free_iter {
                self.rewrites.push(Rewrite {
                    plan_id: p.id,
                    description: format!(
                        "removed docorder-δ: input [{}] is already in document order \
                         and duplicate-free",
                        seq.id
                    ),
                });
                return self.rewrite(seq);
            }
        }

        // -- elimination: distinct-values over singleton iterations ---------
        if let Op::DistinctValues { seq } = &p.op {
            let a = self.analysis.props(seq.id);
            if a.max_one_per_iter {
                self.rewrites.push(Rewrite {
                    plan_id: p.id,
                    description: format!(
                        "replaced distinct with data: input [{}] holds at most one \
                         item per iteration",
                        seq.id
                    ),
                });
                let op = Op::Atomize {
                    seq: self.rewrite(seq),
                };
                return self.replacement(op);
            }
        }

        // -- count: redundant ⋉, count over a recognised join ---------------
        if let Op::Aggregate {
            func: AggFunc::Count,
            seq,
            loop_,
        } = &p.op
        {
            if let Some(fused) = self.rewrite_count(p, seq, loop_) {
                return fused;
            }
        }

        // -- generic rebuild with rewritten children ------------------------
        match self.rebuild_op(p) {
            Some(op) => Arc::new(Plan { id: p.id, op }),
            None => p.clone(),
        }
    }

    /// A new node (fresh id) computing what the node it replaces computes.
    fn replacement(&mut self, op: Op) -> PlanRef {
        let id = self.next_id;
        self.next_id += 1;
        Arc::new(Plan { id, op })
    }

    /// The two `count` rewrites, in order:
    ///
    /// * drop a `⋉` that restricts the counted sequence to the count's own
    ///   loop: the aggregate emits only the groups of its loop anyway, and
    ///   counting reads no value, so the rows the `⋉` kept out cannot make
    ///   it fail (the compiler feeds the other aggregates through
    ///   `number()`, never straight from a `⋉`);
    /// * replace `count` over the back-mapped `for` variable of a recognised
    ///   join with [`Op::JoinCount`], which never builds the pairs (the
    ///   back-map's order keys do not change a count).
    fn rewrite_count(
        &mut self,
        p: &PlanRef,
        mut seq: &PlanRef,
        loop_: &PlanRef,
    ) -> Option<PlanRef> {
        let mut dropped_semijoin = false;
        if let Op::RestrictToIters { seq: inner, iters } = &seq.op {
            if iters.id == loop_.id {
                self.rewrites.push(Rewrite {
                    plan_id: p.id,
                    description: format!(
                        "dropped ⋉ [{}] under agg(count): it restricts to the count's \
                         own loop [{}]",
                        seq.id, loop_.id
                    ),
                });
                seq = inner;
                dropped_semijoin = true;
            }
        }
        let op = match returned_join_var(seq) {
            Some(join) => {
                self.rewrites.push(Rewrite {
                    plan_id: p.id,
                    description: format!(
                        "fused agg(count) over backmap [{}] into count(⋈): the \
                         FLWOR returns the `for` variable of join [{}]",
                        seq.id, join.id
                    ),
                });
                Op::JoinCount {
                    join: self.rewrite(join),
                    loop_: self.rewrite(loop_),
                }
            }
            None if dropped_semijoin => Op::Aggregate {
                func: AggFunc::Count,
                seq: self.rewrite(seq),
                loop_: self.rewrite(loop_),
            },
            None => return None,
        };
        Some(self.replacement(op))
    }

    /// Rebuild the operator with rewritten children; `None` when every child
    /// rewrote to itself (pointer-identical).
    fn rebuild_op(&mut self, p: &PlanRef) -> Option<Op> {
        let before: Vec<PlanRef> = p.children();
        let after: Vec<PlanRef> = before.iter().map(|c| self.rewrite(c)).collect();
        if before.iter().zip(&after).all(|(a, b)| Arc::ptr_eq(a, b)) {
            return None;
        }
        Some(self.rebuild_with(p))
    }

    fn rebuild_with(&mut self, p: &PlanRef) -> Op {
        let rw = |s: &mut Self, r: &PlanRef| s.rewrite(r);
        match &p.op {
            Op::LoopOne => Op::LoopOne,
            Op::ConstSeq { loop_, items } => Op::ConstSeq {
                loop_: rw(self, loop_),
                items: items.clone(),
            },
            Op::DocRoot { loop_, name } => Op::DocRoot {
                loop_: rw(self, loop_),
                name: name.clone(),
            },
            Op::ExternalVar {
                loop_,
                name,
                default,
            } => Op::ExternalVar {
                loop_: rw(self, loop_),
                name: name.clone(),
                default: default.as_ref().map(|d| rw(self, d)),
            },
            Op::NestFromSeq { seq } => Op::NestFromSeq { seq: rw(self, seq) },
            Op::NestFromJoin {
                source,
                outer_loop,
                left,
                right,
                op,
            } => Op::NestFromJoin {
                source: rw(self, source),
                outer_loop: rw(self, outer_loop),
                left: rw(self, left),
                right: rw(self, right),
                op: *op,
            },
            Op::NestLoop { nest } => Op::NestLoop {
                nest: rw(self, nest),
            },
            Op::NestVar { nest } => Op::NestVar {
                nest: rw(self, nest),
            },
            Op::NestVarPos { nest } => Op::NestVarPos {
                nest: rw(self, nest),
            },
            Op::LiftThrough { seq, nest } => Op::LiftThrough {
                seq: rw(self, seq),
                nest: rw(self, nest),
            },
            Op::BackMap {
                body,
                nest,
                order_keys,
            } => Op::BackMap {
                body: rw(self, body),
                nest: rw(self, nest),
                order_keys: order_keys.iter().map(|(k, d)| (rw(self, k), *d)).collect(),
            },
            Op::SelectIters {
                cond,
                loop_,
                negate,
            } => Op::SelectIters {
                cond: rw(self, cond),
                loop_: rw(self, loop_),
                negate: *negate,
            },
            Op::RestrictToIters { seq, iters } => Op::RestrictToIters {
                seq: rw(self, seq),
                iters: rw(self, iters),
            },
            Op::Union { parts } => Op::Union {
                parts: parts.iter().map(|q| rw(self, q)).collect(),
            },
            Op::AxisStep { ctx, axis, test } => Op::AxisStep {
                ctx: rw(self, ctx),
                axis: *axis,
                test: test.clone(),
            },
            Op::AttrStep { ctx, name } => Op::AttrStep {
                ctx: rw(self, ctx),
                name: name.clone(),
            },
            Op::Arith { op, l, r } => Op::Arith {
                op: *op,
                l: rw(self, l),
                r: rw(self, r),
            },
            Op::Neg { e } => Op::Neg { e: rw(self, e) },
            Op::ValueCmp { op, l, r } => Op::ValueCmp {
                op: *op,
                l: rw(self, l),
                r: rw(self, r),
            },
            Op::GeneralCmp { op, l, r, loop_ } => Op::GeneralCmp {
                op: *op,
                l: rw(self, l),
                r: rw(self, r),
                loop_: rw(self, loop_),
            },
            Op::BoolAndOr {
                is_and,
                l,
                r,
                loop_,
            } => Op::BoolAndOr {
                is_and: *is_and,
                l: rw(self, l),
                r: rw(self, r),
                loop_: rw(self, loop_),
            },
            Op::BoolNot { e, loop_ } => Op::BoolNot {
                e: rw(self, e),
                loop_: rw(self, loop_),
            },
            Op::Ebv {
                seq,
                loop_,
                positions,
            } => Op::Ebv {
                seq: rw(self, seq),
                loop_: rw(self, loop_),
                positions: positions.as_ref().map(|p| rw(self, p)),
            },
            Op::Empty { seq, loop_ } => Op::Empty {
                seq: rw(self, seq),
                loop_: rw(self, loop_),
            },
            Op::Aggregate { func, seq, loop_ } => Op::Aggregate {
                func: *func,
                seq: rw(self, seq),
                loop_: rw(self, loop_),
            },
            Op::JoinCount { join, loop_ } => Op::JoinCount {
                join: rw(self, join),
                loop_: rw(self, loop_),
            },
            Op::Atomize { seq } => Op::Atomize { seq: rw(self, seq) },
            Op::StringValue { seq, loop_ } => Op::StringValue {
                seq: rw(self, seq),
                loop_: rw(self, loop_),
            },
            Op::CastNumber { seq } => Op::CastNumber { seq: rw(self, seq) },
            Op::StringFn { kind, args, loop_ } => Op::StringFn {
                kind: *kind,
                args: args.iter().map(|a| rw(self, a)).collect(),
                loop_: rw(self, loop_),
            },
            Op::NumFn { kind, arg } => Op::NumFn {
                kind: *kind,
                arg: rw(self, arg),
            },
            Op::DistinctValues { seq } => Op::DistinctValues { seq: rw(self, seq) },
            Op::DocOrderDistinct { seq } => Op::DocOrderDistinct { seq: rw(self, seq) },
            Op::PosFilter { seq, kind } => Op::PosFilter {
                seq: rw(self, seq),
                kind: *kind,
            },
            Op::Subsequence { seq, start, len } => Op::Subsequence {
                seq: rw(self, seq),
                start: *start,
                len: *len,
            },
            Op::ElemCtor {
                loop_,
                name,
                attrs,
                content,
            } => Op::ElemCtor {
                loop_: rw(self, loop_),
                name: name.clone(),
                attrs: attrs
                    .iter()
                    .map(|(n, a)| (n.clone(), rw(self, a)))
                    .collect(),
                content: content.iter().map(|c| rw(self, c)).collect(),
            },
        }
    }
}

/// The recognised join whose `for` variable `seq` back-maps, unchanged:
/// `for $x in S where L op R return $x`.
fn returned_join_var(seq: &PlanRef) -> Option<&PlanRef> {
    let Op::BackMap { body, nest, .. } = &seq.op else {
        return None;
    };
    match (&body.op, &nest.op) {
        (Op::NestVar { nest: var_of }, Op::NestFromJoin { .. }) if var_of.id == nest.id => {
            Some(nest)
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// runtime validation (MXQ_VALIDATE_PLANS=1)
// ---------------------------------------------------------------------------

/// Assert the table convention (see [`Op`]) and the inferred properties of
/// one plan node against its executed table.  Returns a description of the
/// first violation, if any.
///
/// Loop relations must ascend strictly on `iter`; nest maps are skipped
/// (their invariants are structural); sequence tables must be sorted on
/// `[iter, pos]` with positions `1..k` per iteration, and are checked for
/// cardinality, item kind, per-iteration duplicate freedom, document order,
/// constant columns and dictionary encoding.
pub fn validate_table(props: &NodeProps, t: &Table) -> Result<(), String> {
    match props.shape {
        Shape::Nest => return Ok(()),
        Shape::Loop => {
            let Ok(col) = t.column("iter") else {
                return Ok(());
            };
            let Ok(iters) = col.as_int() else {
                return Ok(());
            };
            if iters.windows(2).any(|w| w[0] >= w[1]) {
                return Err("loop iterations do not ascend strictly".into());
            }
            return Ok(());
        }
        Shape::Seq => {}
    }
    let (Ok(iter), Ok(pos), Ok(item)) = (t.column("iter"), t.column("pos"), t.column("item"))
    else {
        return Ok(());
    };
    let (Ok(iters), Ok(poss)) = (iter.as_int(), pos.as_int()) else {
        return Ok(());
    };
    let items = item.to_items();

    // every iteration is one run of rows numbered 1..k, runs ascend on iter
    let mut runs: Vec<(i64, &[Item])> = Vec::new();
    let mut start = 0;
    for row in 0..iters.len() {
        let it = iters[row];
        if row > 0 && iters[row - 1] > it {
            return Err(format!("[iter, pos] order is violated at row {row}"));
        }
        if poss[row] != (row - start) as i64 + 1 {
            return Err(format!("iteration {it} positions are not 1..=k"));
        }
        if row + 1 == iters.len() || iters[row + 1] != it {
            runs.push((it, &items[start..=row]));
            start = row + 1;
        }
    }

    if props.max_one_per_iter {
        if let Some((it, _)) = runs.iter().find(|(_, rows)| rows.len() > 1) {
            return Err(format!("iteration {it} holds more than one item"));
        }
    }
    match props.item_kind {
        ItemKind::Nodes => {
            if items.iter().any(|i| !i.is_node()) {
                return Err("claimed node column holds a non-node item".into());
            }
        }
        ItemKind::Atomic => {
            if items.iter().any(Item::is_node) {
                return Err("claimed atomic column holds a node".into());
            }
        }
        ItemKind::Mixed => {}
    }
    if props.item_kind == ItemKind::Nodes {
        for (it, rows) in &runs {
            let nodes: Vec<_> = rows.iter().filter_map(Item::as_node).collect();
            if props.item_doc_order && nodes.windows(2).any(|w| w[0] > w[1]) {
                return Err(format!("iteration {it} nodes are not in document order"));
            }
            if props.dup_free_iter {
                let mut seen = std::collections::HashSet::new();
                if nodes.iter().any(|n| !seen.insert(*n)) {
                    return Err(format!("iteration {it} holds a duplicate node"));
                }
            }
        }
    }
    if let Some(want) = &props.const_items {
        for (it, rows) in &runs {
            if rows.len() != want.len()
                || rows.iter().zip(want).any(|(got, w)| !items_equal(got, w))
            {
                return Err(format!(
                    "iteration {it} does not repeat the claimed constant sequence"
                ));
            }
        }
    }
    if props.dict.is_some() && t.nrows() > 0 && item.dict_parts().is_none() {
        return Err("claimed dictionary-encoded column is not dictionary-encoded".into());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// annotated explain
// ---------------------------------------------------------------------------

/// Render the DAG like [`Plan::explain`], annotating every node with its
/// inferred properties.  Shared nodes are expanded once.
pub fn explain_annotated(root: &PlanRef, analysis: &Analysis) -> String {
    let mut out = String::new();
    let mut seen = std::collections::HashSet::new();
    fn walk(
        p: &PlanRef,
        depth: usize,
        analysis: &Analysis,
        seen: &mut std::collections::HashSet<usize>,
        out: &mut String,
    ) {
        out.push_str(&"  ".repeat(depth));
        if !seen.insert(p.id) {
            out.push_str(&format!("[{}] {} (shared)\n", p.id, p.op_name()));
            return;
        }
        let ann = analysis
            .get(p.id)
            .map(|np| np.annotation())
            .unwrap_or_default();
        out.push_str(&format!("[{}] {} {}\n", p.id, p.op_name(), ann));
        for c in p.children() {
            walk(&c, depth + 1, analysis, seen, out);
        }
    }
    walk(root, 0, analysis, &mut seen, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::Compiler;
    use crate::config::ExecConfig;
    use crate::parser::parse_query;

    fn plan_of(q: &str) -> PlanRef {
        let parsed = parse_query(q).expect("parse");
        Compiler::new(ExecConfig::default())
            .compile_query(&parsed)
            .expect("compile")
    }

    #[test]
    fn literal_sequences_are_constant_and_atomic() {
        let plan = plan_of("3");
        let a = analyze(&plan);
        let p = a.props(plan.id);
        assert_eq!(p.item_kind, ItemKind::Atomic);
        assert!(p.max_one_per_iter);
        assert!(matches!(p.const_items.as_deref(), Some([Item::Int(3)])));

        // lifted into a parameter slot, the literal keeps every fact but
        // its (now per-execution) value
        let mut stmt = crate::parser::parse_statement("3").unwrap();
        assert_eq!(crate::compile::lift_literals(&mut stmt).len(), 1);
        let crate::ast::Statement::Query(q) = stmt else {
            unreachable!()
        };
        let slotted = Compiler::new(ExecConfig::default())
            .compile_query(&q)
            .unwrap();
        let s = analyze(&slotted);
        let s = s.props(slotted.id);
        assert_eq!(s.item_kind, ItemKind::Atomic);
        assert!(s.max_one_per_iter && s.dup_free_iter);
        assert!(s.const_items.is_none());

        // sequence construction unions singleton constants: still atomic,
        // but no longer a single constant column
        let plan = plan_of("(1, 2, 3)");
        let a = analyze(&plan);
        let p = a.props(plan.id);
        assert_eq!(p.item_kind, ItemKind::Atomic);
        assert!(p.const_items.is_none());
        assert!(!p.max_one_per_iter);
    }

    #[test]
    fn axis_steps_prove_document_order_and_source() {
        let plan = plan_of("doc(\"d.xml\")/a/b");
        let a = analyze(&plan);
        let p = a.props(plan.id);
        assert_eq!(p.item_kind, ItemKind::Nodes);
        assert!(p.dup_free_iter && p.item_doc_order);
        assert_eq!(p.source_doc.as_deref(), Some("d.xml"));
    }

    #[test]
    fn attribute_steps_inherit_the_value_dictionary() {
        let plan = plan_of("doc(\"d.xml\")/a/@id");
        let a = analyze(&plan);
        let p = a.props(plan.id);
        assert_eq!(p.item_kind, ItemKind::Atomic);
        assert_eq!(p.dict, Some(DictOrigin::AttrValues("d.xml".to_string())));
    }

    #[test]
    fn every_compiled_plan_verifies() {
        for q in [
            "1 + 2",
            "(1, 2)[2]",
            "doc(\"d.xml\")//a[@id = \"x\"]/b[1]",
            "for $x in doc(\"d.xml\")/a/b order by $x/@k return <r>{$x}</r>",
            "for $x in doc(\"d.xml\")/a/b for $y in doc(\"d.xml\")/c \
             where $y/@ref = $x/@id return $y",
            "declare variable $v external := 3; $v * 2",
        ] {
            let plan = plan_of(q);
            let a = analyze(&plan);
            verify(&plan, &a).unwrap_or_else(|v| panic!("{q} violates: {v}"));
        }
    }

    #[test]
    fn verifier_rejects_steps_over_atomics() {
        let plan = plan_of("(1, 2)/self::a");
        let a = analyze(&plan);
        let err = verify(&plan, &a).expect_err("atomic context must be rejected");
        assert!(err.message.contains("node-free"));
    }

    #[test]
    fn verifier_rejects_duplicate_ids() {
        let l1 = Arc::new(Plan {
            id: 0,
            op: Op::LoopOne,
        });
        let l2 = Arc::new(Plan {
            id: 0,
            op: Op::LoopOne,
        });
        let bad = Arc::new(Plan {
            id: 1,
            op: Op::Union {
                parts: vec![
                    Arc::new(Plan {
                        id: 2,
                        op: Op::ConstSeq {
                            loop_: l1,
                            items: ConstItems::Inline(vec![Item::Int(1)]),
                        },
                    }),
                    Arc::new(Plan {
                        id: 3,
                        op: Op::ConstSeq {
                            loop_: l2,
                            items: ConstItems::Inline(vec![Item::Int(2)]),
                        },
                    }),
                ],
            },
        });
        let a = analyze(&bad);
        let err = verify(&bad, &a).expect_err("duplicate ids must be rejected");
        assert!(err.message.contains("share one id"));
    }

    #[test]
    fn simplifier_drops_redundant_docorder_delta() {
        // `$b` binds one node per iteration, so the predicated step's
        // back-mapping concatenates a single staircase-join group: already
        // document-ordered and duplicate-free
        let plan = plan_of("for $b in doc(\"d.xml\")/site/a return $b/bidder[1]");
        assert!(plan.explain().contains("docorder-δ"));
        let a = analyze(&plan);
        let simplified = simplify(&plan, &a);
        assert!(
            !simplified.plan.explain().contains("docorder-δ"),
            "redundant δ must be removed:\n{}",
            simplified.plan.explain()
        );
        assert!(simplified
            .rewrites
            .iter()
            .any(|r| r.description.contains("docorder-δ")));
    }

    #[test]
    fn simplifier_keeps_required_docorder_delta() {
        // the context of the predicated step is a full node sequence — the
        // back-mapped groups may interleave, the δ must stay
        let plan = plan_of("doc(\"d.xml\")//a[@id = \"x\"]");
        let a = analyze(&plan);
        let simplified = simplify(&plan, &a);
        assert!(simplified.plan.explain().contains("docorder-δ"));
    }

    #[test]
    fn simplifier_rewrites_distinct_over_singletons() {
        let plan = plan_of("for $x in doc(\"d.xml\")/a return distinct-values($x/@id)");
        let a = analyze(&plan);
        let simplified = simplify(&plan, &a);
        assert!(!simplified.plan.explain().contains("distinct"));
        assert!(simplified
            .rewrites
            .iter()
            .any(|r| r.description.contains("distinct")));
    }

    #[test]
    fn join_operands_share_the_value_dictionary() {
        let plan = plan_of(
            "for $p in doc(\"d.xml\")/site/people/person \
             for $o in doc(\"d.xml\")/site/orders/order \
             where $o/@buyer = $p/@id return $p",
        );
        fn join_of(p: &PlanRef) -> Option<PlanRef> {
            match &p.op {
                Op::NestFromJoin { .. } => Some(p.clone()),
                _ => p.children().iter().find_map(join_of),
            }
        }
        let a = analyze(&plan);
        // source, outer loop, left operand, right operand
        let children = join_of(&plan).map(|j| j.children()).unwrap_or_default();
        assert_eq!(children.len(), 4, "join must be recognised");
        let origin = Some(DictOrigin::AttrValues("d.xml".to_string()));
        for operand in &children[2..] {
            assert_eq!(a.props(operand.id).dict, origin);
        }
    }

    #[test]
    fn simplifier_fuses_count_over_a_recognised_join() {
        let query = |ret: &str, outer_where: &str, agg: &str| {
            format!(
                "for $p in doc(\"d.xml\")/a/p \
                 let $l := for $o in doc(\"d.xml\")/a/o where $p/@n > $o/@n return {ret} \
                 {outer_where} return {agg}($l)"
            )
        };
        let where_ = "where $p/@k = \"x\"";
        for (q, fused, dropped) in [
            (query("$o", "", "count"), true, false),
            (query("$o", where_, "count"), true, true),
            (query("$o/@n", where_, "count"), false, true),
            // the other aggregates read `number()` of the ⋉, not the ⋉
            (query("$o", where_, "sum"), false, false),
        ] {
            let plan = plan_of(&q);
            let simplified = simplify(&plan, &analyze(&plan));
            let has = |what: &str| {
                simplified
                    .rewrites
                    .iter()
                    .any(|r| r.description.contains(what))
            };
            assert_eq!(has("fused agg(count)"), fused, "{q}");
            assert_eq!(has("dropped ⋉"), dropped, "{q}");
            assert_eq!(simplified.plan.explain().contains("count(⋈)"), fused, "{q}");
            let re = analyze(&simplified.plan);
            let verified = verify(&simplified.plan, &re).map_err(|v| v.to_string());
            assert_eq!(verified, Ok(()), "{q}");
        }
    }

    #[test]
    fn verifier_rejects_count_over_a_computed_nest() {
        // a FLWOR's back-map reads its nest map second
        let plan = plan_of("for $x in doc(\"d.xml\")/a return $x");
        let nest = &plan.children()[1];
        assert!(matches!(nest.op, Op::NestFromSeq { .. }));
        let loop_ = Arc::new(Plan {
            id: 1000,
            op: Op::LoopOne,
        });
        let bad = Arc::new(Plan {
            id: 1001,
            op: Op::JoinCount {
                join: nest.clone(),
                loop_,
            },
        });
        let err = verify(&bad, &analyze(&bad)).expect_err("nest(ρ) is not a join");
        assert!(err.message.contains("not a recognised join"), "{err}");
    }

    #[test]
    fn simplifier_returns_a_plan_without_rewrites_unchanged() {
        let plan = plan_of("doc(\"d.xml\")/a/b/c");
        let simplified = simplify(&plan, &analyze(&plan));
        assert!(simplified.rewrites.is_empty());
        assert!(Arc::ptr_eq(&simplified.plan, &plan));
    }

    #[test]
    fn simplified_plans_keep_unique_ids_and_verify() {
        for q in [
            "for $b in doc(\"d.xml\")/a return $b/c[1]/text()",
            "for $x in doc(\"d.xml\")/a return distinct-values($x/@id)",
            "doc(\"d.xml\")//a[@id = \"x\"]/b",
        ] {
            let plan = plan_of(q);
            let a = analyze(&plan);
            let simplified = simplify(&plan, &a);
            let re = analyze(&simplified.plan);
            verify(&simplified.plan, &re)
                .unwrap_or_else(|v| panic!("{q} violates after simplify: {v}"));
        }
    }

    type EngineResult = Result<(), mxq_engine::EngineError>;

    fn seq_table(iters: &[i64], poss: &[i64]) -> Result<Table, mxq_engine::EngineError> {
        let items = iters.iter().map(|&i| Item::Int(i)).collect();
        Table::from_columns(vec![
            ("iter", mxq_engine::Column::Int(iters.to_vec())),
            ("pos", mxq_engine::Column::Int(poss.to_vec())),
            ("item", mxq_engine::Column::from_items(items)),
        ])
    }

    fn loop_table(iters: &[i64]) -> Result<Table, mxq_engine::EngineError> {
        Table::from_columns(vec![("iter", mxq_engine::Column::Int(iters.to_vec()))])
    }

    /// Sequence facts that hold for any atomic table, so that only the
    /// table convention can fail.
    fn any_atomic_seq() -> NodeProps {
        NodeProps {
            max_one_per_iter: false,
            dup_free_iter: false,
            ..NodeProps::scalar()
        }
    }

    #[test]
    fn validation_accepts_the_table_convention() -> EngineResult {
        let t = seq_table(&[1, 1, 1, 3], &[1, 2, 3, 1])?;
        assert_eq!(validate_table(&any_atomic_seq(), &t), Ok(()));
        let l = loop_table(&[1, 2, 5])?;
        assert_eq!(validate_table(&NodeProps::loop_shape(), &l), Ok(()));
        Ok(())
    }

    #[test]
    fn validation_rejects_an_unsorted_sequence() -> EngineResult {
        let t = seq_table(&[2, 2, 1], &[1, 2, 1])?;
        let err = validate_table(&any_atomic_seq(), &t).unwrap_err();
        assert!(err.contains("order is violated at row 2"), "{err}");
        Ok(())
    }

    #[test]
    fn validation_rejects_positions_that_do_not_start_at_one() -> EngineResult {
        let t = seq_table(&[1, 1, 2], &[2, 3, 1])?;
        let err = validate_table(&any_atomic_seq(), &t).unwrap_err();
        assert!(err.contains("iteration 1 positions are not 1..=k"), "{err}");
        Ok(())
    }

    #[test]
    fn validation_rejects_a_descending_loop_relation() -> EngineResult {
        let l = loop_table(&[3, 2, 1])?;
        let err = validate_table(&NodeProps::loop_shape(), &l).unwrap_err();
        assert!(err.contains("do not ascend"), "{err}");
        Ok(())
    }

    #[test]
    fn annotations_render_inferred_properties() {
        let plan = plan_of("doc(\"d.xml\")/a/@id");
        let a = analyze(&plan);
        let s = explain_annotated(&plan, &a);
        assert!(s.contains("dict=attr-values(d.xml)"), "{s}");
        assert!(s.contains("{max1 nodes dup-free doc-order"), "{s}");
    }
}
