//! The plan executor: evaluates the relational algebra DAG against the
//! column-store kernel and an immutable snapshot of the document store.
//!
//! Every plan node evaluates to a typed value of its [`Shape`] (exactly the
//! schemas MonetDB/XQuery fixes for its temporary BATs): a [`Loop`] relation
//! `iter`, a [`Nest`] map `outer|inner|pos|item` or a [`Seq`] `iter|pos|item`.
//! Shared sub-plans are evaluated once and memoised by plan id; a consumer
//! asks for the shape it reads (`seq`, `nest`, `loop_`), and a value of
//! another shape is an internal error, not a missing column.  Every
//! operator emits its value in one convention: loop relations ascend on
//! `iter`, sequences are sorted on `[iter, pos]` with positions `1..k` per
//! iteration (see [`Op`]).  The order-aware mode (Section 4.1) trusts that
//! convention and skips the sorts that would re-establish it; without it
//! every order requirement is met by a full sort.  The staircase-join
//! switches (Section 3) pick between the loop-lifted and the iterative axis
//! step and enable the nametest pushdown.
//!
//! The executor reads loaded documents through a [`StoreSnapshot`] and never
//! mutates shared state: nodes built by element constructors go into a
//! *private* transient container owned by the executor, which the caller
//! takes over ([`Executor::finish`]) together with the result items.  This
//! is what makes one compiled plan executable from many sessions/threads
//! concurrently — every execution has its own scratch space and pins its own
//! store snapshot.
//!
//! # Module contract
//!
//! This file **owns** the [`Executor`]: its memo, read set, profile hook
//! and runtime validation at the one chokepoint [`Executor::eval`], the
//! shape accessors (`seq`, `nest`, `loop_`), the order and loop helpers
//! every family shares (`sorted_seq`, `eval_in_iter_order`, `loop_iters`),
//! the operator dispatch with its few inline arms (sources, nest
//! projections, iteration selection) and result serialization.  It **may
//! call** every submodule.  A submodule may call this file, `value` and
//! the one `scalar` helper its row names; families reach each other's
//! operators only through [`Executor::eval`]:
//!
//! | module | owns | may call |
//! |---|---|---|
//! | `value` | [`Loop`], [`Nest`], [`Seq`], [`Value`], `IterRuns`, the per-iteration walk `per_iter` | the engine's columns |
//! | `nest` | lift, back-map, `nest(⋈)`, `count(⋈)` | the engine's join kernels |
//! | `steps` | axis and attribute steps | the staircase kernels |
//! | `scalar` | atomization, comparisons, boolean operators, arithmetic, string functions, aggregates | the engine's grouped aggregation |
//! | `seq` | positional filters, `subsequence`, `distinct-values`, document-order δ, union | row numbering, `scalar`'s atomization |
//! | `construct` | element construction | `DocumentBuilder`, `scalar`'s `first_str` |

use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use mxq_engine::join::lookup_sorted;
use mxq_engine::value::format_double;
use mxq_engine::{Column, EngineError, Item, NodeId};
use mxq_xmldb::{Document, StoreSnapshot, TRANSIENT_FRAG};

use crate::algebra::{ConstItems, NumFnKind, Op, PlanRef, Shape};
use crate::config::{ExecConfig, ExecStats};
use crate::params::Params;
use crate::profile::{OpProfile, ProfileSink};

mod construct;
mod nest;
mod scalar;
mod seq;
mod steps;
mod value;

use scalar::first_ebv;
use value::{replicated, IterRuns};
pub use value::{Loop, Nest, Seq, Value};

/// Errors raised during execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// An engine-level failure (type/length mismatch).
    Engine(EngineError),
    /// `fn:doc` referenced a document that is not loaded.
    UnknownDocument(String),
    /// An external variable was not bound and has no declared default.
    UnboundVariable(String),
    /// A binding was supplied for a name the statement does not declare as
    /// an external variable (usually a typo in the bind name).
    NotExternal(String),
    /// Internal invariant violation.
    Internal(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Engine(e) => write!(f, "engine error: {e}"),
            ExecError::UnknownDocument(d) => write!(f, "document not loaded: {d}"),
            ExecError::UnboundVariable(v) => {
                write!(
                    f,
                    "external variable ${v} is not bound (and has no default)"
                )
            }
            ExecError::NotExternal(v) => {
                write!(
                    f,
                    "a binding was supplied for ${v}, which the statement does not \
                     declare as an external variable"
                )
            }
            ExecError::Internal(m) => write!(f, "internal executor error: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<EngineError> for ExecError {
    fn from(e: EngineError) -> Self {
        ExecError::Engine(e)
    }
}

type EResult<T> = Result<T, ExecError>;

/// The executor.  Reads loaded documents through an immutable store
/// snapshot, constructs new nodes into a private transient container, and
/// resolves external variables against a [`Params`] binding set.
pub struct Executor<'a> {
    snap: &'a StoreSnapshot,
    /// Private scratch container for constructed nodes (fragment 0 of this
    /// execution); taken over by [`Executor::finish`].
    transient: Document,
    config: ExecConfig,
    params: Params,
    /// Statistics accumulated over all [`Executor::eval`] calls.
    pub stats: ExecStats,
    memo: HashMap<usize, Value>,
    /// Lazily grown property map for runtime validation; `Some` when the
    /// environment sets `MXQ_VALIDATE_PLANS=1`.
    validation: Option<crate::analysis::Analysis>,
    /// Store fragments this execution has read (documents resolved by
    /// `fn:doc`, node items entering through external variables, and every
    /// container access).  The update pipeline latches this read set along
    /// with the write set, so a concurrent commit cannot invalidate what a
    /// committing update computed from — see `Database::apply_update`.
    reads: std::cell::RefCell<std::collections::HashSet<u32>>,
    /// Last fragment recorded into `reads` — container access is per-node
    /// in a few hot paths, and runs of accesses hit the same fragment.
    last_read: std::cell::Cell<u32>,
    /// Per-operator costs; `Some` for a profiled execution
    /// ([`Executor::with_profiling`]).
    profile: Option<Box<ProfileSink>>,
}

impl<'a> Executor<'a> {
    /// Create an executor over a store snapshot with no external bindings.
    pub fn new(snap: &'a StoreSnapshot, config: ExecConfig) -> Self {
        Self::with_params(snap, config, Params::default())
    }

    /// Create an executor over a store snapshot with external-variable
    /// bindings.
    pub fn with_params(snap: &'a StoreSnapshot, config: ExecConfig, params: Params) -> Self {
        let validate = std::env::var("MXQ_VALIDATE_PLANS").is_ok_and(|v| v == "1");
        Executor {
            snap,
            transient: Document::new("#transient"),
            config,
            params,
            stats: ExecStats::default(),
            memo: HashMap::new(),
            validation: validate.then(crate::analysis::Analysis::default),
            reads: std::cell::RefCell::new(std::collections::HashSet::new()),
            last_read: std::cell::Cell::new(TRANSIENT_FRAG),
            profile: None,
        }
    }

    /// Profile this execution: every plan node [`Executor::eval`] evaluates
    /// records its costs, read back with [`Executor::profile`].
    pub fn with_profiling(mut self) -> Self {
        self.profile = Some(Box::default());
        self
    }

    /// The per-operator costs of `plan`'s nodes so far, in plan preorder
    /// (empty unless the executor was built [`Executor::with_profiling`]).
    pub fn profile(&self, plan: &PlanRef) -> Vec<OpProfile> {
        self.profile
            .as_ref()
            .map_or_else(Vec::new, |p| p.rows(plan))
    }

    /// Finish the execution: hand back the private transient container
    /// (holding every node constructed by the evaluated plans) and the
    /// runtime statistics.
    pub fn finish(self) -> (Document, ExecStats) {
        (self.transient, self.stats)
    }

    /// Borrow the private transient container of this execution.
    pub fn transient(&self) -> &Document {
        &self.transient
    }

    /// Record a store fragment into the read set (the private transient
    /// container is not shared state and is never recorded).
    fn record_read(&self, frag: u32) {
        if frag != TRANSIENT_FRAG && self.last_read.get() != frag {
            self.last_read.set(frag);
            self.reads.borrow_mut().insert(frag);
        }
    }

    /// The store fragments this execution has read so far, in ascending
    /// order.  Every fragment whose content can have influenced a result —
    /// documents resolved via `fn:doc`, node bindings from external
    /// variables, and any container access — is included; axis steps never
    /// leave a fragment, so recording the entry points is exhaustive.
    pub fn read_fragments(&self) -> Vec<u32> {
        let mut frags: Vec<u32> = self.reads.borrow().iter().copied().collect();
        frags.sort_unstable();
        frags
    }

    /// Resolve a fragment id: the executor's own transient container for
    /// fragment 0, the snapshot's loaded documents otherwise.
    fn container(&self, frag: u32) -> &Document {
        self.record_read(frag);
        self.snap.resolve(&self.transient, frag)
    }

    fn node_string_value(&self, n: NodeId) -> String {
        self.container(n.frag).string_value(n.pre)
    }

    /// Evaluate a plan, returning its value (shared with the memo).
    pub fn eval(&mut self, plan: &PlanRef) -> EResult<Value> {
        if let Some(v) = self.memo.get(&plan.id) {
            if let Some(p) = self.profile.as_mut() {
                p.memo_hit(plan.id);
            }
            return Ok(v.clone());
        }
        let v = match self.profile.as_mut() {
            None => self.eval_op(plan)?,
            Some(p) => {
                p.enter(&self.stats);
                let v = self.eval_op(plan);
                let rows = v.as_ref().ok().map(Value::nrows);
                if let Some(p) = self.profile.as_mut() {
                    p.exit(plan.id, rows, &self.stats);
                }
                v?
            }
        };
        self.stats.ops_evaluated += 1;
        self.stats.record_table(v.nrows());
        if let Some(analysis) = self.validation.as_mut() {
            if analysis.get(plan.id).is_none() {
                analysis.extend_with(plan);
            }
            if let Some(props) = analysis.get(plan.id) {
                if let Err(msg) = crate::analysis::validate_table(props, &v) {
                    return Err(ExecError::Internal(format!(
                        "inferred plan property violated at [{}] {}: {msg}",
                        plan.id,
                        plan.op_name()
                    )));
                }
            }
        }
        self.memo.insert(plan.id, v.clone());
        Ok(v)
    }

    /// Evaluate a plan whose value is a sequence.
    fn seq(&mut self, plan: &PlanRef) -> EResult<Rc<Seq>> {
        match self.eval(plan)? {
            Value::Seq(s) => Ok(s),
            other => Err(shape_mismatch(plan, Shape::Seq, &other)),
        }
    }

    /// Evaluate a plan whose value is a nest map.
    fn nest(&mut self, plan: &PlanRef) -> EResult<Rc<Nest>> {
        match self.eval(plan)? {
            Value::Nest(n) => Ok(n),
            other => Err(shape_mismatch(plan, Shape::Nest, &other)),
        }
    }

    /// Evaluate a plan whose value is a loop relation.
    fn loop_(&mut self, plan: &PlanRef) -> EResult<Rc<Loop>> {
        match self.eval(plan)? {
            Value::Loop(l) => Ok(l),
            other => Err(shape_mismatch(plan, Shape::Loop, &other)),
        }
    }

    /// Evaluate and extract the result items of the outermost iteration in
    /// sequence order.
    pub fn eval_result(&mut self, plan: &PlanRef) -> EResult<Vec<Item>> {
        let t = self.seq(plan)?;
        Ok(self.sorted_seq(&t).item.to_items())
    }

    /// Ensure a sequence is sorted by `[iter, pos]`.  The order-aware mode
    /// trusts the convention (see [`Op`]) and returns the input (shared, no
    /// copy); otherwise the order is re-established with a full sort.
    fn sorted_seq(&mut self, t: &Rc<Seq>) -> Rc<Seq> {
        if self.config.order_aware {
            self.stats.sorts_avoided += 1;
            return t.clone();
        }
        self.stats.sorts += 1;
        Rc::new(t.gather(&t.iter_pos_order()))
    }

    /// Evaluate an operand of a per-iteration operator and hand it over in
    /// `[iter, pos]` order, so that the rows of one iteration are a run
    /// ([`IterRuns`]) led by its first item: the memoised sequence itself in
    /// the order-aware mode, which trusts the convention, a sorted copy
    /// otherwise ([`Executor::sorted_seq`]).
    fn eval_in_iter_order(&mut self, plan: &PlanRef) -> EResult<Rc<Seq>> {
        let t = self.seq(plan)?;
        Ok(self.sorted_seq(&t))
    }

    fn loop_iters(&mut self, loop_: &PlanRef) -> EResult<Vec<i64>> {
        let t = self.loop_(loop_)?;
        let mut iters = t.iter.clone();
        if self.config.order_aware {
            self.stats.sorts_avoided += 1;
        } else {
            self.stats.sorts += 1;
            iters.sort_unstable();
        }
        Ok(iters)
    }

    // -------------------------------------------------------------------
    // operator dispatch
    // -------------------------------------------------------------------

    fn eval_op(&mut self, plan: &PlanRef) -> EResult<Value> {
        match &plan.op {
            Op::LoopOne => Ok(Value::Loop(Rc::new(Loop { iter: vec![1] }))),
            Op::ConstSeq { loop_, items } => {
                let iters = self.loop_iters(loop_)?;
                let items = const_items(items, &self.params)?;
                Ok(replicated(&iters, items).into())
            }
            Op::DocRoot { loop_, name } => {
                let root = self
                    .snap
                    .document_root(name)
                    .ok_or_else(|| ExecError::UnknownDocument(name.clone()))?;
                self.record_read(root.frag);
                let iters = self.loop_iters(loop_)?;
                Ok(replicated(&iters, &[Item::Node(root)]).into())
            }
            Op::ExternalVar {
                loop_,
                name,
                default,
            } => {
                let items: Vec<Item> = match self.params.get(name) {
                    Some(bound) => bound.to_vec(),
                    None => match default {
                        Some(d) => return self.eval(d),
                        None => return Err(ExecError::UnboundVariable(name.clone())),
                    },
                };
                for item in &items {
                    if let Item::Node(n) = item {
                        self.record_read(n.frag);
                    }
                }
                let iters = self.loop_iters(loop_)?;
                Ok(replicated(&iters, &items).into())
            }
            Op::NestFromSeq { seq } => {
                let t = self.seq(seq)?;
                let s = self.sorted_seq(&t);
                Ok(Value::Nest(Rc::new(Nest {
                    outer: s.iter.clone(),
                    inner: (1..=s.iter.len() as i64).collect(),
                    pos: s.pos.clone(),
                    item: s.item.clone(),
                })))
            }
            Op::NestFromJoin { .. } => self.eval_nest_from_join(plan),
            Op::NestLoop { nest } => {
                let iter = self.nest(nest)?.inner.clone();
                Ok(Value::Loop(Rc::new(Loop { iter })))
            }
            Op::NestVar { nest } => {
                let t = self.nest(nest)?;
                Ok(Seq::new(t.inner.clone(), vec![1; t.inner.len()], t.item.clone()).into())
            }
            Op::NestVarPos { nest } => {
                let t = self.nest(nest)?;
                let n = t.inner.len();
                Ok(Seq::new(t.inner.clone(), vec![1; n], Column::Int(t.pos.clone())).into())
            }
            Op::LiftThrough { seq, nest } => self.eval_lift_through(seq, nest),
            Op::BackMap {
                body,
                nest,
                order_keys,
            } => self.eval_back_map(body, nest, order_keys),
            Op::SelectIters {
                cond,
                loop_,
                negate,
            } => {
                let c = self.eval_in_iter_order(cond)?;
                let mut runs = IterRuns::new(&c.iter);
                let mut out = self.loop_iters(loop_)?;
                out.retain(|&it| first_ebv(&c.item, runs.of(it)) != *negate);
                Ok(Value::Loop(Rc::new(Loop { iter: out })))
            }
            Op::RestrictToIters { seq, iters } => {
                let t = self.seq(seq)?;
                let keep = self.loop_iters(iters)?;
                let mut rows = Vec::new();
                lookup_sorted(&keep, &t.iter, |row, _| rows.push(row));
                Ok(t.gather(&rows).into())
            }
            Op::Union { parts } => self.eval_union(parts),
            Op::AxisStep { ctx, axis, test } => self.eval_axis_step(ctx, *axis, test),
            Op::AttrStep { ctx, name } => self.eval_attr_step(ctx, name.as_deref()),
            Op::Arith { op, l, r } => self.eval_arith(*op, l, r),
            Op::Neg { e } => self.eval_number_fn(e, |v| -v),
            Op::CastNumber { seq } => self.eval_number_fn(seq, |v| v),
            Op::NumFn { kind, arg } => self.eval_number_fn(
                arg,
                match kind {
                    NumFnKind::Round => f64::round,
                    NumFnKind::Floor => f64::floor,
                    NumFnKind::Ceiling => f64::ceil,
                    NumFnKind::Abs => f64::abs,
                },
            ),
            Op::ValueCmp { op, l, r } => self.eval_value_cmp(*op, l, r),
            Op::GeneralCmp { op, l, r, loop_ } => self.eval_general_cmp(*op, l, r, loop_),
            Op::BoolAndOr {
                is_and,
                l,
                r,
                loop_,
            } => self.eval_bool_and_or(*is_and, l, r, loop_),
            Op::BoolNot { e, loop_ } => self.eval_bool_not(e, loop_),
            Op::Ebv {
                seq,
                loop_,
                positions,
            } => self.eval_ebv(seq, loop_, positions.as_ref()),
            Op::Empty { seq, loop_ } => self.eval_empty(seq, loop_),
            Op::Aggregate { func, seq, loop_ } => self.eval_aggregate(*func, seq, loop_),
            Op::JoinCount { join, loop_ } => self.eval_join_count(join, loop_),
            Op::Atomize { seq } => self.eval_atomize(seq),
            Op::StringValue { seq, loop_ } => self.eval_string_value(seq, loop_),
            Op::StringFn { kind, args, loop_ } => self.eval_string_fn(*kind, args, loop_),
            Op::DistinctValues { seq } => self.eval_distinct_values(seq),
            Op::DocOrderDistinct { seq } => self.eval_doc_order_distinct(seq),
            Op::PosFilter { seq, kind } => self.eval_pos_filter(seq, kind),
            Op::Subsequence { seq, start, len } => self.eval_subsequence(seq, *start, *len),
            Op::ElemCtor {
                loop_,
                name,
                attrs,
                content,
            } => self.eval_elem_ctor(loop_, name, attrs, content),
        }
    }
}

/// The items of a constant sequence: inline, or this execution's literal in
/// a parameter slot.
fn const_items<'p>(items: &'p ConstItems, params: &'p Params) -> EResult<&'p [Item]> {
    match items {
        ConstItems::Inline(items) => Ok(items),
        ConstItems::Slot(slot) => params
            .literal(*slot)
            .map(std::slice::from_ref)
            .ok_or_else(|| ExecError::Internal(format!("literal slot {slot} is unbound"))),
    }
}

/// The internal error of a consumer that got a value of another shape than
/// the one it reads.
fn shape_mismatch(plan: &PlanRef, want: Shape, got: &Value) -> ExecError {
    ExecError::Internal(format!(
        "[{}] {} evaluated to a {:?}, read as a {want:?}",
        plan.id,
        plan.op_name(),
        got.shape()
    ))
}

/// Format a sequence of result items the way our serializer does for
/// examples/tests: nodes as XML, atomics as their string value, separated by
/// single spaces between adjacent atomics.  `container_of` resolves a
/// fragment id to its container; node items render straight from its
/// column image.
fn serialize_items_by<'d, F>(container_of: F, items: &[Item]) -> String
where
    F: Fn(u32) -> &'d Document,
{
    let mut out = String::new();
    let mut prev_atomic = false;
    for item in items {
        match item {
            Item::Node(n) => {
                mxq_xmldb::serialize_node(container_of(n.frag), n.pre, &mut out);
                prev_atomic = false;
            }
            Item::Dbl(d) => {
                if prev_atomic {
                    out.push(' ');
                }
                out.push_str(&format_double(*d));
                prev_atomic = true;
            }
            atomic => {
                if prev_atomic {
                    out.push(' ');
                }
                out.push_str(&atomic.string_value());
                prev_atomic = true;
            }
        }
    }
    out
}

/// Serialize a result sequence against a store snapshot plus the private
/// transient container of the execution that produced the items.
pub fn serialize_items_snapshot(
    snap: &StoreSnapshot,
    transient: &Document,
    items: &[Item],
) -> String {
    serialize_items_by(|frag| snap.resolve(transient, frag), items)
}

/// Serialize a single item (see [`serialize_items_snapshot`]).
pub fn serialize_item_snapshot(snap: &StoreSnapshot, transient: &Document, item: &Item) -> String {
    serialize_items_snapshot(snap, transient, std::slice::from_ref(item))
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::scalar::ebv_of;
    use super::*;

    #[test]
    fn ebv_rules() {
        let items = Column::from_items(vec![
            Item::Node(NodeId::new(0, 1)),
            Item::Bool(false),
            Item::Int(3),
            Item::Bool(false),
        ]);
        assert!(!ebv_of(&items, 0..0));
        assert!(ebv_of(&items, 0..1));
        assert!(!ebv_of(&items, 1..2));
        assert!(ebv_of(&items, 2..3));
        assert!(ebv_of(&items, 1..4), "several items are true");
    }

    #[test]
    fn iter_runs_merge_in_ascending_order() {
        let mut runs = IterRuns::new(&[1, 1, 3, 4, 4, 4]);
        assert_eq!(runs.of(1), 0..2);
        assert!(runs.of(2).is_empty());
        assert_eq!(runs.next_run(), Some((3, 2..3)));
        assert_eq!(runs.of(4), 3..6);
        assert!(runs.of(9).is_empty());
        assert_eq!(runs.next_run(), None);
    }

    #[test]
    fn a_value_is_read_by_its_shape() -> EResult<()> {
        let snap = mxq_xmldb::DocStore::new().snapshot();
        let mut ex = Executor::new(&snap, ExecConfig::default());
        let one: PlanRef = Arc::new(crate::algebra::Plan {
            id: 0,
            op: Op::LoopOne,
        });
        let v = ex.eval(&one)?;
        assert_eq!((v.shape(), v.nrows()), (Shape::Loop, 1));
        assert_eq!(ex.loop_(&one)?.iter, [1]);
        // a loop relation is neither a sequence nor a nest map
        assert!(matches!(ex.seq(&one), Err(ExecError::Internal(_))));
        assert!(matches!(ex.nest(&one), Err(ExecError::Internal(_))));
        assert_eq!(ex.stats.ops_evaluated, 1, "the memo answers the rest");
        Ok(())
    }

    #[test]
    fn serialize_items_spaces_atomics() {
        let snap = mxq_xmldb::DocStore::new().snapshot();
        let items = [Item::Int(1), Item::Int(2), Item::str("x")];
        let s = serialize_items_snapshot(&snap, &Document::new("#transient"), &items);
        assert_eq!(s, "1 2 x");
    }
}
