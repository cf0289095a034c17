//! Static plan analysis: property inference, plan verification and
//! property-driven simplification (Section 4.1 taken to its conclusion).
//!
//! Order and position numbering need no inference: every operator emits its
//! table sorted on `[iter, pos]` with positions `1..k` per iteration (the
//! convention documented on [`Op`]).  This module derives the properties that
//! do vary bottom-up over the finished DAG — the table shape,
//! at-most-one-item cardinality, per-iteration duplicate-freeness, document
//! order and the item kind — and puts them to work three ways:
//!
//! * [`verify`] checks the structural preconditions of every operator (each
//!   input has the [`Shape`] that `Op::for_each_input` lists for it, node
//!   sequences under the document-order δ and the path steps) and that plan
//!   ids are unique, so a broken rewrite or compiler bug surfaces at
//!   `prepare()` time as [`crate::Error::PlanInvariant`] instead of as a
//!   silently wrong answer;
//! * [`simplify`] removes operators the properties prove redundant (a
//!   `docorder-δ` whose input is already in document order and duplicate
//!   free, a `distinct` over at-most-one-item iterations), fuses `count`
//!   over a recognised join into `count(⋈)` (no pairs built), and then
//!   shares structurally identical nodes: a node with the operator, fields
//!   and input ids of a node with a lower id becomes that node, so the
//!   executor's memo (keyed by plan id) evaluates each sub-plan once, as
//!   Pathfinder's operator DAGs have MonetDB do.  Element constructors never
//!   merge (each makes new node identities: `<a/> is <a/>` is false), and
//!   neither do literals (the plan cache lifts each into a slot of its own,
//!   so merging equal inline literals would make a fresh compile run fewer
//!   operators than the cached plan of the same statement);
//! * [`validate_table`] asserts the shape, the value convention and the
//!   inferred properties against actually executed values when the
//!   environment sets `MXQ_VALIDATE_PLANS=1` — the analysis is itself
//!   tested differentially, on every value of every query of the test
//!   suite.
//!
//! [`explain_annotated`] renders a plan with its inferred properties, which
//! [`crate::Session::explain`] exposes together with the list of applied
//! rewrites.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use mxq_engine::agg::AggFunc;
use mxq_engine::Item;

use crate::algebra::{ConstItems, Op, Plan, PlanRef, Shape};
use crate::exec::Value;

// ---------------------------------------------------------------------------
// the inferred property set
// ---------------------------------------------------------------------------

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

/// The properties inferred for one plan node.  Every `true` is a guarantee
/// (checked at runtime under `MXQ_VALIDATE_PLANS=1`); `false` means
/// "not proven", never "proven false".
#[derive(Debug, Clone, Copy)]
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
        }
    }

    /// Greatest lower bound of two property sets (used when an operator can
    /// produce either of two tables, e.g. an external variable falling back
    /// to its declared default).
    fn meet(self, other: NodeProps) -> NodeProps {
        NodeProps {
            shape: self.shape,
            max_one_per_iter: self.max_one_per_iter && other.max_one_per_iter,
            dup_free_iter: self.dup_free_iter && other.dup_free_iter,
            item_doc_order: self.item_doc_order && other.item_doc_order,
            item_kind: self.item_kind.join(other.item_kind),
        }
    }

    /// Compact annotation used by [`explain_annotated`].
    pub fn annotation(&self) -> String {
        let mut tags = Vec::new();
        match self.shape {
            Shape::Loop => tags.push("loop"),
            Shape::Nest => tags.push("nest"),
            Shape::Seq => {
                if self.max_one_per_iter {
                    tags.push("max1");
                }
                match self.item_kind {
                    ItemKind::Nodes => {
                        tags.push("nodes");
                        if self.dup_free_iter {
                            tags.push("dup-free");
                        }
                        if self.item_doc_order {
                            tags.push("doc-order");
                        }
                    }
                    ItemKind::Atomic => tags.push("atomic"),
                    ItemKind::Mixed => {}
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

/// The entry of plan id `id` in a table indexed by plan id, grown on
/// demand: the compiler numbers a plan's nodes densely from 0.
fn by_id<T: Clone>(table: &mut Vec<Option<T>>, id: usize) -> &mut Option<T> {
    if table.len() <= id {
        table.resize(id + 1, None);
    }
    &mut table[id]
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
    root.op.for_each_input(|c, _, _| analyze_into(c, out));
    let props = infer_node(&root.op, out);
    out.insert(root.id, props);
}

/// Per-operator inference.  `env` holds the already-inferred children.
fn infer_node(op: &Op, env: &HashMap<usize, NodeProps>) -> NodeProps {
    let p = |r: &PlanRef| env[&r.id];
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
            }
        }
        // a lifted literal: typed exactly like the single literal it came
        // from, except that its value is unknown until execution
        Op::ConstSeq {
            items: ConstItems::Slot(_),
            ..
        } => NodeProps::scalar(),

        Op::DocRoot { .. } => NodeProps {
            item_kind: ItemKind::Nodes,
            ..NodeProps::scalar()
        },

        Op::ExternalVar { default, .. } => {
            // bound: the same opaque items replicated per iteration
            let bound = NodeProps {
                shape: Shape::Seq,
                max_one_per_iter: false,
                dup_free_iter: false,
                item_doc_order: false,
                item_kind: ItemKind::Mixed,
            };
            match default {
                // unbound executions return the default's value verbatim
                Some(d) => bound.meet(p(d)),
                None => bound,
            }
        }

        // at most one *inner iteration per outer iteration* — the
        // cardinality BackMap needs to inherit its body's order
        Op::NestFromSeq { seq } => NodeProps {
            shape: Shape::Nest,
            max_one_per_iter: p(seq).max_one_per_iter,
            dup_free_iter: false,
            item_doc_order: false,
            item_kind: p(seq).item_kind,
        },

        Op::NestFromJoin { source, .. } => NodeProps {
            shape: Shape::Nest,
            max_one_per_iter: false,
            dup_free_iter: false,
            item_doc_order: false,
            item_kind: p(source).item_kind,
        },

        Op::NestVar { nest } => NodeProps {
            item_kind: p(nest).item_kind,
            ..NodeProps::scalar()
        },

        Op::NestVarPos { .. } => NodeProps::scalar(),

        // each inner iteration receives a verbatim copy of its outer
        // iteration's rows, emitted in (inner, pos) order; ⋉ drops whole
        // iterations and leaves the surviving ones untouched
        Op::LiftThrough { seq, .. } | Op::RestrictToIters { seq, .. } => NodeProps {
            shape: Shape::Seq,
            ..p(seq)
        },

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
            }
        }

        Op::Union { parts } => {
            if let [part] = parts.as_slice() {
                return NodeProps {
                    shape: Shape::Seq,
                    ..p(part)
                };
            }
            let kinds = parts
                .iter()
                .map(|q| p(q).item_kind)
                .reduce(ItemKind::join)
                .unwrap_or(ItemKind::Mixed);
            NodeProps {
                shape: Shape::Seq,
                max_one_per_iter: false,
                dup_free_iter: kinds == ItemKind::Atomic,
                item_doc_order: kinds == ItemKind::Atomic,
                item_kind: kinds,
            }
        }

        // the staircase join result is deduplicated per iteration and the
        // executor orders it by (iter, node): document order, duplicate free
        Op::AxisStep { .. } => NodeProps {
            max_one_per_iter: false,
            item_kind: ItemKind::Nodes,
            ..NodeProps::scalar()
        },

        // one named attribute per element: a single-node context yields at
        // most one row per iteration
        Op::AttrStep { ctx, name } => NodeProps {
            max_one_per_iter: p(ctx).max_one_per_iter && name.is_some(),
            ..NodeProps::scalar()
        },

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

        Op::Atomize { seq } => NodeProps {
            max_one_per_iter: p(seq).max_one_per_iter,
            // distinct nodes may atomise to equal strings
            dup_free_iter: p(seq).max_one_per_iter,
            ..NodeProps::scalar()
        },

        Op::DocOrderDistinct { seq } => NodeProps {
            max_one_per_iter: p(seq).max_one_per_iter,
            item_kind: p(seq).item_kind,
            ..NodeProps::scalar()
        },

        // positions are unique per iteration, so a positional pick keeps at
        // most one row
        Op::PosFilter { seq, .. } => NodeProps {
            shape: Shape::Seq,
            max_one_per_iter: true,
            dup_free_iter: true,
            ..p(seq)
        },

        Op::Subsequence { seq, len, .. } => {
            let s = p(seq);
            let max_one = s.max_one_per_iter || matches!(len, Some(l) if *l <= 1);
            NodeProps {
                shape: Shape::Seq,
                max_one_per_iter: max_one,
                dup_free_iter: s.dup_free_iter || max_one,
                ..s
            }
        }

        Op::ElemCtor { .. } => NodeProps {
            item_kind: ItemKind::Nodes,
            ..NodeProps::scalar()
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
/// Checked invariants: every input has the [`Shape`] the operator's input
/// list gives it (a loop relation, a nest map or a sequence); the
/// document-order δ and the path steps consume sequences that can actually
/// hold nodes; literal sequences hold no node references; `count(⋈)` reads
/// a recognised join; plan ids are unique across the DAG (distinct nodes
/// sharing an id would corrupt the executor's memo table).
pub fn verify(root: &PlanRef, analysis: &Analysis) -> Result<(), PlanViolation> {
    verify_node(root, analysis, &mut Vec::new())
}

fn verify_node(
    p: &PlanRef,
    analysis: &Analysis,
    ids: &mut Vec<Option<*const Plan>>,
) -> Result<(), PlanViolation> {
    let ptr = Arc::as_ptr(p);
    let seen = by_id(ids, p.id);
    match *seen {
        Some(seen) if std::ptr::eq(seen, ptr) => return Ok(()),
        Some(_) => {
            return Err(PlanViolation {
                plan_id: p.id,
                op: p.op_name(),
                message: "two distinct plan nodes share one id (memo corruption)".into(),
            })
        }
        None => *seen = Some(ptr),
    }
    let mut inputs = Ok(());
    p.op.for_each_input(|c, _, _| {
        if inputs.is_ok() {
            inputs = verify_node(c, analysis, ids);
        }
    });
    inputs?;

    let violation = |message: String| PlanViolation {
        plan_id: p.id,
        op: p.op_name(),
        message,
    };
    let mut misshapen = None;
    p.op.for_each_input(|input, want, slot| {
        let got = analysis.props(input.id).shape;
        if got != want && misshapen.is_none() {
            misshapen = Some(format!(
                "{slot} input [{}] has shape {got:?}, expected {want:?}",
                input.id
            ));
        }
    });
    if let Some(message) = misshapen {
        return Err(violation(message));
    }

    let node_free = |r: &PlanRef| analysis.props(r.id).item_kind == ItemKind::Atomic;
    match &p.op {
        Op::ConstSeq {
            items: ConstItems::Inline(items),
            ..
        } if items.iter().any(Item::is_node) => {
            Err(violation("literal sequence holds a node reference".into()))
        }
        // count(⋈) reads the operands of a recognised join, never a
        // computed nest map
        Op::JoinCount { join, .. } if !matches!(join.op, Op::NestFromJoin { .. }) => {
            Err(violation(format!(
                "join input [{}] is {}, not a recognised join",
                join.id,
                join.op_name()
            )))
        }
        Op::AxisStep { ctx, .. } | Op::AttrStep { ctx, .. } if node_free(ctx) => Err(violation(
            "path step over a provably node-free sequence (XPTY0019)".into(),
        )),
        Op::DocOrderDistinct { seq } if node_free(seq) => Err(violation(
            "document-order δ over a provably node-free sequence".into(),
        )),
        _ => Ok(()),
    }
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
    memo: Vec<Option<PlanRef>>,
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
/// and then share structurally identical nodes: a node with the operator,
/// fields and input ids of a node with a lower id becomes that node (never
/// an [`Op::ElemCtor`] or an [`Op::ConstSeq`]), so that the executor, which
/// memoises values by plan id, evaluates each sub-plan once.
///
/// Only the nodes a rewrite or a merge touches and their ancestors are
/// rebuilt: a plan neither applies to comes back as the input `Arc`.  A
/// rebuilt node keeps its id and a replacement node takes the id of the
/// node it replaces, so an input's id stays below its consumer's, as the
/// compiler numbers them.
pub fn simplify(root: &PlanRef, analysis: &Analysis) -> Simplified {
    let mut s = Simplifier {
        analysis,
        memo: Vec::new(),
        rewrites: Vec::new(),
    };
    let plan = share(&s.rewrite(root));
    Simplified {
        plan,
        rewrites: s.rewrites,
    }
}

impl Simplifier<'_> {
    fn rewrite(&mut self, p: &PlanRef) -> PlanRef {
        if let Some(done) = by_id(&mut self.memo, p.id) {
            return done.clone();
        }
        let result = self.rewrite_uncached(p);
        self.memo[p.id] = Some(result.clone());
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
                return Arc::new(Plan { id: p.id, op });
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
        let mut op = p.op.clone();
        let mut changed = false;
        op.for_each_input_mut(|input| {
            let rewritten = self.rewrite(input);
            changed |= !Arc::ptr_eq(input, &rewritten);
            *input = rewritten;
        });
        if changed {
            Arc::new(Plan { id: p.id, op })
        } else {
            p.clone()
        }
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
        Some(Arc::new(Plan { id: p.id, op }))
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
// sharing identical nodes
// ---------------------------------------------------------------------------

/// A plan node keyed by its operator one level deep: the operator, its
/// fields and the ids of its inputs (see [`Op`]'s equality).  Hashing it
/// costs the same for a leaf and for the root of a large sub-plan.
struct ByOp(PlanRef);

impl PartialEq for ByOp {
    fn eq(&self, other: &Self) -> bool {
        self.0.op == other.0.op
    }
}

impl Eq for ByOp {}

impl Hash for ByOp {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.op.hash(state);
    }
}

/// Hash-cons the plan: a node whose operator, fields and (already shared)
/// inputs equal those of a node with a lower id is replaced by that node,
/// so equal sub-plans collapse bottom-up into one.  Nodes are visited in
/// ascending id order, so the lowest id of each class survives and the
/// plan's explain text does not depend on the process.  Two operators never
/// merge:
///
/// * [`Op::ElemCtor`]: every constructor makes new node identities
///   (`<a/> is <a/>` is false);
/// * [`Op::ConstSeq`]: the plan cache lifts each literal into a slot of its
///   own, so merging equal inline literals would make a fresh compile run
///   fewer operators than the cached plan of the same statement.
fn share(root: &PlanRef) -> PlanRef {
    fn collect<'a>(p: &'a PlanRef, nodes: &mut Vec<Option<&'a PlanRef>>) {
        let slot = by_id(nodes, p.id);
        if slot.is_none() {
            *slot = Some(p);
            p.op.for_each_input(|c, _, _| collect(c, nodes));
        }
    }
    let mut nodes = Vec::new();
    collect(root, &mut nodes);
    let mut sharer = Sharer {
        done: vec![None; nodes.len()],
        classes: HashMap::with_capacity(nodes.len()),
    };
    for node in nodes.into_iter().flatten() {
        sharer.share(node);
    }
    sharer.share(root)
}

struct Sharer {
    /// The shared node of each visited id.
    done: Vec<Option<PlanRef>>,
    /// The surviving node of each class of equal nodes.
    classes: HashMap<ByOp, PlanRef>,
}

impl Sharer {
    fn share(&mut self, p: &PlanRef) -> PlanRef {
        if let Some(done) = &self.done[p.id] {
            return done.clone();
        }
        let mut changed = false;
        p.op.for_each_input(|input, _, _| changed |= !Arc::ptr_eq(input, &self.share(input)));
        let node = if changed {
            let mut op = p.op.clone();
            op.for_each_input_mut(|input| *input = self.share(input));
            Arc::new(Plan { id: p.id, op })
        } else {
            p.clone()
        };
        let shared = match node.op {
            Op::ElemCtor { .. } | Op::ConstSeq { .. } => node,
            _ => self
                .classes
                .entry(ByOp(node.clone()))
                .or_insert(node)
                .clone(),
        };
        self.done[p.id] = Some(shared.clone());
        shared
    }
}

// ---------------------------------------------------------------------------
// runtime validation (MXQ_VALIDATE_PLANS=1)
// ---------------------------------------------------------------------------

/// Assert the value convention (see [`Op`]) and the inferred properties of
/// one plan node against its executed value.  Returns a description of the
/// first violation, if any.
///
/// The value must have the node's shape.  Loop relations must ascend
/// strictly on `iter`; nest maps are not checked further (their invariants
/// are structural); sequences must be sorted on `[iter, pos]` with
/// positions `1..k` per iteration, and are checked for cardinality, item
/// kind, per-iteration duplicate freedom and document order.
pub fn validate_table(props: &NodeProps, value: &Value) -> Result<(), String> {
    let seq = match (props.shape, value) {
        (Shape::Nest, Value::Nest(_)) => return Ok(()),
        (Shape::Loop, Value::Loop(l)) => {
            if l.iter.windows(2).any(|w| w[0] >= w[1]) {
                return Err("loop iterations do not ascend strictly".into());
            }
            return Ok(());
        }
        (Shape::Seq, Value::Seq(seq)) => seq,
        (shape, other) => {
            return Err(format!(
                "a {shape:?} node evaluated to a {:?}",
                other.shape()
            ))
        }
    };
    let (iters, poss) = (&seq.iter, &seq.pos);
    let items = seq.item.to_items();

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
    Ok(())
}

// ---------------------------------------------------------------------------
// annotated explain
// ---------------------------------------------------------------------------

/// Render the DAG like [`Plan::explain`], annotating every node with its
/// inferred properties.  Shared nodes are expanded once.
pub fn explain_annotated(root: &PlanRef, analysis: &Analysis) -> String {
    root.explain_with(|p| analysis.get(p.id).map(NodeProps::annotation))
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

        // sequence construction unions singleton constants: still atomic,
        // but no longer one item per iteration
        let plan = plan_of("(1, 2, 3)");
        let a = analyze(&plan);
        let p = a.props(plan.id);
        assert_eq!(p.item_kind, ItemKind::Atomic);
        assert!(!p.max_one_per_iter);
    }

    #[test]
    fn axis_steps_prove_document_order_and_source() {
        let plan = plan_of("doc(\"d.xml\")/a/b");
        let a = analyze(&plan);
        let p = a.props(plan.id);
        assert_eq!(p.item_kind, ItemKind::Nodes);
        assert!(p.dup_free_iter && p.item_doc_order);
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
    fn simplifier_shares_identical_nodes_under_the_lowest_id() {
        use mxq_staircase::{Axis, NodeTest};
        let mk = |id, op| Arc::new(Plan { id, op });
        let loop_ = mk(0, Op::LoopOne);
        let doc = mk(
            1,
            Op::DocRoot {
                loop_: loop_.clone(),
                name: "d.xml".into(),
            },
        );
        let step = |id| {
            mk(
                id,
                Op::AxisStep {
                    ctx: doc.clone(),
                    axis: Axis::Child,
                    test: NodeTest::named("a"),
                },
            )
        };
        let ctor = |id| {
            mk(
                id,
                Op::ElemCtor {
                    loop_: loop_.clone(),
                    name: "c".into(),
                    attrs: Vec::new(),
                    content: Vec::new(),
                },
            )
        };
        // the higher id comes first in the DAG walk; the lower one survives
        let parts = vec![step(3), step(2), ctor(4), ctor(5)];
        let root = mk(6, Op::Union { parts });
        let shared = simplify(&root, &analyze(&root)).plan;
        let ids: Vec<usize> = shared.children().iter().map(|p| p.id).collect();
        assert_eq!(ids, [2, 2, 4, 5], "{}", shared.explain());
        assert_eq!(shared.operator_count(), 6);
        let verified = verify(&shared, &analyze(&shared)).map_err(|v| v.to_string());
        assert_eq!(verified, Ok(()));

        // a plan without equal nodes comes back as it was
        let unique = mk(
            7,
            Op::Union {
                parts: vec![step(2)],
            },
        );
        assert!(Arc::ptr_eq(
            &simplify(&unique, &analyze(&unique)).plan,
            &unique
        ));
    }

    #[test]
    fn simplifier_shares_a_path_compiled_twice() {
        let plan = plan_of("(doc(\"d.xml\")/a/b, doc(\"d.xml\")/a/b)");
        let simplified = simplify(&plan, &analyze(&plan)).plan;
        assert!(
            matches!(&simplified.op, Op::Union { parts } if Arc::ptr_eq(&parts[0], &parts[1])),
            "{}",
            simplified.explain()
        );
        assert!(simplified.operator_count() < plan.operator_count());
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

    fn seq_value(iters: &[i64], poss: &[i64]) -> Value {
        let items = iters.iter().map(|&i| Item::Int(i)).collect();
        crate::exec::Seq {
            iter: iters.to_vec(),
            pos: poss.to_vec(),
            item: mxq_engine::Column::from_items(items),
        }
        .into()
    }

    fn loop_value(iters: &[i64]) -> Value {
        let iter = iters.to_vec();
        Value::Loop(std::rc::Rc::new(crate::exec::Loop { iter }))
    }

    /// Sequence facts that hold for any atomic sequence, so that only the
    /// value convention can fail.
    fn any_atomic_seq() -> NodeProps {
        NodeProps {
            max_one_per_iter: false,
            dup_free_iter: false,
            ..NodeProps::scalar()
        }
    }

    #[test]
    fn validation_accepts_the_table_convention() {
        let t = seq_value(&[1, 1, 1, 3], &[1, 2, 3, 1]);
        assert_eq!(validate_table(&any_atomic_seq(), &t), Ok(()));
        let l = loop_value(&[1, 2, 5]);
        assert_eq!(validate_table(&NodeProps::loop_shape(), &l), Ok(()));
    }

    #[test]
    fn validation_rejects_an_unsorted_sequence() {
        let t = seq_value(&[2, 2, 1], &[1, 2, 1]);
        let err = validate_table(&any_atomic_seq(), &t).unwrap_err();
        assert!(err.contains("order is violated at row 2"), "{err}");
    }

    #[test]
    fn validation_rejects_positions_that_do_not_start_at_one() {
        let t = seq_value(&[1, 1, 2], &[2, 3, 1]);
        let err = validate_table(&any_atomic_seq(), &t).unwrap_err();
        assert!(err.contains("iteration 1 positions are not 1..=k"), "{err}");
    }

    #[test]
    fn validation_rejects_a_descending_loop_relation() {
        let l = loop_value(&[3, 2, 1]);
        let err = validate_table(&NodeProps::loop_shape(), &l).unwrap_err();
        assert!(err.contains("do not ascend"), "{err}");
    }

    #[test]
    fn validation_rejects_a_loop_value_under_sequence_props() {
        // a well-formed loop relation, but the node claims a sequence
        let l = loop_value(&[1, 2, 5]);
        let err = validate_table(&any_atomic_seq(), &l).unwrap_err();
        assert!(err.contains("a Seq node evaluated to a Loop"), "{err}");
    }

    #[test]
    fn validation_rejects_a_sequence_value_under_loop_props() {
        // its `iter` descends, but the shape is what is wrong first
        let t = seq_value(&[3, 2, 1], &[1, 1, 1]);
        let err = validate_table(&NodeProps::loop_shape(), &t).unwrap_err();
        assert!(err.contains("a Loop node evaluated to a Seq"), "{err}");
    }

    #[test]
    fn annotations_render_inferred_properties() {
        let plan = plan_of("doc(\"d.xml\")/a/@id");
        let a = analyze(&plan);
        let s = explain_annotated(&plan, &a);
        assert!(s.contains("{max1 nodes dup-free doc-order"), "{s}");
    }
}
