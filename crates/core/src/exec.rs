//! The plan executor: evaluates the relational algebra DAG against the
//! column-store kernel and an immutable snapshot of the document store.
//!
//! All intermediate results are materialised `iter|pos|item` tables (exactly
//! like MonetDB/XQuery materialises its temporary BATs); shared sub-plans are
//! evaluated once and memoised by plan id.  Every operator emits its table
//! in one convention: loop relations ascend on `iter`, sequence tables are
//! sorted on `[iter, pos]` with positions `1..k` per iteration (see [`Op`]).
//! The order-aware mode (Section 4.1) trusts that convention and skips the
//! sorts that would re-establish it; without it every order requirement is
//! met by a full sort.  The staircase-join switches (Section 3) pick between
//! the loop-lifted and the iterative axis step and enable the nametest
//! pushdown.
//!
//! The executor reads loaded documents through a [`StoreSnapshot`] and never
//! mutates shared state: nodes built by element constructors go into a
//! *private* transient container owned by the executor, which the caller
//! takes over ([`Executor::finish`]) together with the result items.  This
//! is what makes one compiled plan executable from many sessions/threads
//! concurrently — every execution has its own scratch space and pins its own
//! store snapshot.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

use mxq_engine::agg::{aggregate_grouped, AggFunc};
use mxq_engine::join::{
    lookup_sorted, minmax_candidates, radix_hash_join, theta_join, theta_join_counts,
};
use mxq_engine::rank::row_number_streaming;
use mxq_engine::sort::{sort_permutation, SortOrder};
use mxq_engine::value::format_double;
use mxq_engine::{CmpOp, Column, EngineError, Item, NodeId, Table};
use mxq_staircase::looplifted::CtxPair;
use mxq_staircase::{
    child_step_in_iter_order, looplifted_step, looplifted_step_candidates, staircase_step, Axis,
    NodeTest, ScanStats,
};
use mxq_xmldb::{Document, DocumentBuilder, NodeKind, StoreSnapshot, TRANSIENT_FRAG};

use crate::algebra::{ConstItems, NumFnKind, Op, PlanRef, PosFilterKind, StrFnKind};
use crate::ast::ArithOp;
use crate::config::{ExecConfig, ExecStats};
use crate::params::Params;
use crate::profile::{OpProfile, ProfileSink};

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
    memo: HashMap<usize, Rc<Table>>,
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

// -- small helpers over sequence tables --------------------------------------

fn seq_table(iter: Vec<i64>, pos: Vec<i64>, items: Vec<Item>) -> Table {
    Table::from_columns(vec![
        ("iter", Column::Int(iter)),
        ("pos", Column::Int(pos)),
        ("item", Column::from_items(items)),
    ])
    .expect("sequence table construction")
}

/// The sequence `items` in every iteration of `iters`.
fn replicated(iters: &[i64], items: &[Item]) -> Table {
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
    seq_table(oi, op, oit)
}

/// A sequence table with the `iter` and `pos` columns of `t` and new items.
fn with_items(t: &Table, items: Vec<Item>) -> EResult<Table> {
    Table::from_columns(vec![
        ("iter", t.column("iter")?.clone()),
        ("pos", t.column("pos")?.clone()),
        ("item", Column::from_items(items)),
    ])
    .map_err(Into::into)
}

// Operators consume sequence tables as borrowed typed columns; only an
// operator that builds new items per row asks for owned ones.

fn iter_col(t: &Table) -> EResult<&[i64]> {
    Ok(t.column("iter")?.as_int()?)
}

fn pos_col(t: &Table) -> EResult<&[i64]> {
    Ok(t.column("pos")?.as_int()?)
}

fn items_col(t: &Table) -> EResult<Vec<Item>> {
    Ok(t.column("item")?.to_items())
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

    /// Evaluate a plan, returning its `iter|pos|item` table.  The table is
    /// shared (`Rc`) with the memo, so repeated evaluation of a shared
    /// sub-plan costs one reference-count bump, not a deep column copy.
    pub fn eval(&mut self, plan: &PlanRef) -> EResult<Rc<Table>> {
        if let Some(t) = self.memo.get(&plan.id) {
            if let Some(p) = self.profile.as_mut() {
                p.memo_hit(plan.id);
            }
            return Ok(t.clone());
        }
        let t = match self.profile.as_mut() {
            None => self.eval_op(plan)?,
            Some(p) => {
                p.enter(&self.stats);
                let t = self.eval_op(plan);
                let rows = t.as_ref().ok().map(Table::nrows);
                if let Some(p) = self.profile.as_mut() {
                    p.exit(plan.id, rows, &self.stats);
                }
                t?
            }
        };
        let t = Rc::new(t);
        self.stats.ops_evaluated += 1;
        self.stats.record_table(t.nrows());
        if let Some(analysis) = self.validation.as_mut() {
            if analysis.get(plan.id).is_none() {
                analysis.extend_with(plan);
            }
            if let Some(props) = analysis.get(plan.id) {
                if let Err(msg) = crate::analysis::validate_table(props, &t) {
                    return Err(ExecError::Internal(format!(
                        "inferred plan property violated at [{}] {}: {msg}",
                        plan.id,
                        plan.op_name()
                    )));
                }
            }
        }
        self.memo.insert(plan.id, t.clone());
        Ok(t)
    }

    /// Evaluate and extract the result items of the outermost iteration in
    /// sequence order.
    pub fn eval_result(&mut self, plan: &PlanRef) -> EResult<Vec<Item>> {
        let t = self.eval(plan)?;
        let sorted = self.sorted_seq(&t)?;
        items_col(&sorted)
    }

    /// Ensure a sequence table is sorted by `[iter, pos]`.  The order-aware
    /// mode trusts the table convention (see [`Op`]) and returns the input
    /// table (shared, no copy); otherwise the order is re-established with a
    /// full sort.
    fn sorted_seq(&mut self, t: &Rc<Table>) -> EResult<Rc<Table>> {
        if self.config.order_aware {
            self.stats.sorts_avoided += 1;
            return Ok(t.clone());
        }
        self.sort_by_iter_pos(t)
    }

    fn sort_by_iter_pos(&mut self, t: &Table) -> EResult<Rc<Table>> {
        self.stats.sorts += 1;
        let keys = [
            (t.column("iter")?, SortOrder::Asc),
            (t.column("pos")?, SortOrder::Asc),
        ];
        let perm = sort_permutation(&keys);
        Ok(Rc::new(t.gather(&perm)))
    }

    /// Evaluate an operand of a per-iteration operator and hand it over in
    /// `[iter, pos]` order, so that the rows of one iteration are a run
    /// ([`IterRuns`]) led by its first item: the memoised table itself in
    /// the order-aware mode, which trusts the table convention, a sorted
    /// copy otherwise ([`Executor::sorted_seq`]).
    fn eval_in_iter_order(&mut self, plan: &PlanRef) -> EResult<Rc<Table>> {
        let t = self.eval(plan)?;
        self.sorted_seq(&t)
    }

    fn loop_iters(&mut self, loop_: &PlanRef) -> EResult<Vec<i64>> {
        let t = self.eval(loop_)?;
        let mut iters = iter_col(&t)?.to_vec();
        if self.config.order_aware {
            self.stats.sorts_avoided += 1;
        } else {
            self.stats.sorts += 1;
            iters.sort_unstable();
        }
        Ok(iters)
    }

    fn atomize_item(&self, item: &Item) -> Item {
        match item {
            Item::Node(n) => Item::str(self.node_string_value(*n)),
            other => other.clone(),
        }
    }

    fn item_string(&self, item: &Item) -> String {
        match item {
            Item::Node(n) => self.node_string_value(*n),
            other => other.string_value(),
        }
    }

    /// Row `row` of an item column, atomized.
    fn atomized(&self, items: &Column, row: usize) -> Item {
        match items.item(row) {
            Item::Node(n) => Item::str(self.node_string_value(n)),
            atomic => atomic,
        }
    }

    /// String value of the first item of a run (`""` for an empty run),
    /// borrowed where the column holds it: the string of a string item, or
    /// the heap bytes of a stored text, comment or PI node.
    fn first_str<'c>(&'c self, items: &'c Column, run: Range<usize>) -> Cow<'c, str> {
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

    // -------------------------------------------------------------------
    // operator dispatch
    // -------------------------------------------------------------------

    fn eval_op(&mut self, plan: &PlanRef) -> EResult<Table> {
        match &plan.op {
            Op::LoopOne => {
                Table::from_columns(vec![("iter", Column::Int(vec![1]))]).map_err(Into::into)
            }
            Op::ConstSeq { loop_, items } => {
                let iters = self.loop_iters(loop_)?;
                let items = const_items(items, &self.params)?;
                Ok(replicated(&iters, items))
            }
            Op::DocRoot { loop_, name } => {
                let root = self
                    .snap
                    .document_root(name)
                    .ok_or_else(|| ExecError::UnknownDocument(name.clone()))?;
                self.record_read(root.frag);
                let iters = self.loop_iters(loop_)?;
                Ok(replicated(&iters, &[Item::Node(root)]))
            }
            Op::ExternalVar {
                loop_,
                name,
                default,
            } => {
                let items: Vec<Item> = match self.params.get(name) {
                    Some(bound) => bound.to_vec(),
                    None => match default {
                        Some(d) => return Ok((*self.eval(d)?).clone()),
                        None => return Err(ExecError::UnboundVariable(name.clone())),
                    },
                };
                for item in &items {
                    if let Item::Node(n) = item {
                        self.record_read(n.frag);
                    }
                }
                let iters = self.loop_iters(loop_)?;
                Ok(replicated(&iters, &items))
            }
            Op::NestFromSeq { seq } => {
                let t = self.eval(seq)?;
                let sorted = self.sorted_seq(&t)?;
                Table::from_columns(vec![
                    ("outer", sorted.column("iter")?.clone()),
                    ("inner", Column::dense(1, sorted.nrows())),
                    ("pos", sorted.column("pos")?.clone()),
                    ("item", sorted.column("item")?.clone()),
                ])
                .map_err(Into::into)
            }
            Op::NestFromJoin { .. } => self.eval_nest_from_join(plan),
            Op::NestLoop { nest } => {
                let t = self.eval(nest)?;
                Table::from_columns(vec![("iter", t.column("inner")?.clone())]).map_err(Into::into)
            }
            Op::NestVar { nest } => {
                let t = self.eval(nest)?;
                let n = t.nrows();
                Table::from_columns(vec![
                    ("iter", t.column("inner")?.clone()),
                    ("pos", Column::Int(vec![1; n])),
                    ("item", t.column("item")?.clone()),
                ])
                .map_err(Into::into)
            }
            Op::NestVarPos { nest } => {
                let t = self.eval(nest)?;
                let n = t.nrows();
                Table::from_columns(vec![
                    ("iter", t.column("inner")?.clone()),
                    ("pos", Column::Int(vec![1; n])),
                    ("item", t.column("pos")?.clone()),
                ])
                .map_err(Into::into)
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
                let mut runs = IterRuns::new(iter_col(&c)?);
                let items = c.column("item")?;
                let mut out = self.loop_iters(loop_)?;
                out.retain(|&it| first_ebv(items, runs.of(it)) != *negate);
                Table::from_columns(vec![("iter", Column::Int(out))]).map_err(Into::into)
            }
            Op::RestrictToIters { seq, iters } => {
                let t = self.eval(seq)?;
                let keep = self.loop_iters(iters)?;
                let mut rows = Vec::new();
                lookup_sorted(&keep, iter_col(&t)?, |row, _| rows.push(row));
                Ok(t.gather(&rows))
            }
            Op::Union { parts } => self.eval_union(parts),
            Op::AxisStep { ctx, axis, test } => self.eval_axis_step(ctx, *axis, test),
            Op::AttrStep { ctx, name } => self.eval_attr_step(ctx, name.as_deref()),
            Op::Arith { op, l, r } => self.eval_arith(*op, l, r),
            Op::Neg { e } => {
                let t = self.eval(e)?;
                let items: Vec<Item> = t
                    .column("item")?
                    .iter_items()
                    .map(|i| Item::Dbl(-self.atomize_item(&i).as_number().unwrap_or(f64::NAN)))
                    .collect();
                with_items(&t, items)
            }
            Op::ValueCmp { op, l, r } => {
                let lt = self.eval_in_iter_order(l)?;
                let rt = self.eval_in_iter_order(r)?;
                let (iters, items) = zip_firsts(&lt, &rt, |a, b| Item::Bool(a.compare(*op, &b)))?;
                let n = iters.len();
                Ok(seq_table(iters, vec![1; n], items))
            }
            Op::GeneralCmp { op, l, r, loop_ } => {
                let lt = self.eval_in_iter_order(l)?;
                let rt = self.eval_in_iter_order(r)?;
                let (l_items, r_items) = (lt.column("item")?, rt.column("item")?);
                let (mut l_runs, mut r_runs) =
                    (IterRuns::new(iter_col(&lt)?), IterRuns::new(iter_col(&rt)?));
                let iters = self.loop_iters(loop_)?;
                // a loop-constant operand (the atomized literal or literal
                // slot) is taken once, not atomized per iteration
                let r_const: Option<&[Item]> = match &r.op {
                    Op::Atomize { seq } => match &seq.op {
                        Op::ConstSeq { items, .. } => Some(const_items(items, &self.params)?),
                        _ => None,
                    },
                    _ => None,
                };
                let mut r_run_items: Vec<Item> = Vec::new();
                let mut out_items = Vec::with_capacity(iters.len());
                for &it in &iters {
                    let (l_run, r_run) = (l_runs.of(it), r_runs.of(it));
                    let rs: &[Item] = match r_const {
                        Some(items) if !r_run.is_empty() => items,
                        _ => {
                            r_run_items.clear();
                            r_run_items.extend(r_run.map(|row| self.atomized(r_items, row)));
                            &r_run_items
                        }
                    };
                    let mut found = false;
                    'outer: for row in l_run {
                        let a = self.atomized(l_items, row);
                        for b in rs {
                            self.stats.join_pairs += 1;
                            if a.compare(*op, b) {
                                found = true;
                                break 'outer;
                            }
                        }
                    }
                    out_items.push(Item::Bool(found));
                }
                let n = iters.len();
                Ok(seq_table(iters, vec![1; n], out_items))
            }
            Op::BoolAndOr {
                is_and,
                l,
                r,
                loop_,
            } => {
                let lt = self.eval_in_iter_order(l)?;
                let rt = self.eval_in_iter_order(r)?;
                let (l_items, r_items) = (lt.column("item")?, rt.column("item")?);
                let (mut l_runs, mut r_runs) =
                    (IterRuns::new(iter_col(&lt)?), IterRuns::new(iter_col(&rt)?));
                let iters = self.loop_iters(loop_)?;
                let items: Vec<Item> = iters
                    .iter()
                    .map(|&it| {
                        let a = first_ebv(l_items, l_runs.of(it));
                        let b = first_ebv(r_items, r_runs.of(it));
                        Item::Bool(if *is_and { a && b } else { a || b })
                    })
                    .collect();
                let n = iters.len();
                Ok(seq_table(iters, vec![1; n], items))
            }
            Op::BoolNot { e, loop_ } => {
                let t = self.eval_in_iter_order(e)?;
                let mut runs = IterRuns::new(iter_col(&t)?);
                let values = t.column("item")?;
                let iters = self.loop_iters(loop_)?;
                let items: Vec<Item> = iters
                    .iter()
                    .map(|&it| Item::Bool(!ebv_of(values, runs.of(it))))
                    .collect();
                let n = iters.len();
                Ok(seq_table(iters, vec![1; n], items))
            }
            Op::Ebv {
                seq,
                loop_,
                positions,
            } => {
                let t = self.eval_in_iter_order(seq)?;
                let mut runs = IterRuns::new(iter_col(&t)?);
                let values = t.column("item")?;
                let positions = match positions {
                    Some(p) => Some(self.eval_in_iter_order(p)?),
                    None => None,
                };
                let mut positions = match &positions {
                    Some(p) => Some((IterRuns::new(iter_col(p)?), p.column("item")?)),
                    None => None,
                };
                let iters = self.loop_iters(loop_)?;
                let items: Vec<Item> = iters
                    .iter()
                    .map(|&it| {
                        let run = runs.of(it);
                        // a numeric predicate value selects by context position
                        let by_position = match (&mut positions, run.len()) {
                            (Some((pos_runs, pos_items)), 1) => {
                                let number = match values.item(run.start) {
                                    Item::Int(i) => Some(i as f64),
                                    Item::Dbl(d) => Some(d),
                                    _ => None,
                                };
                                number.map(|n| {
                                    let pos = pos_runs.of(it);
                                    !pos.is_empty()
                                        && pos_items.item(pos.start).as_number() == Some(n)
                                })
                            }
                            _ => None,
                        };
                        Item::Bool(by_position.unwrap_or_else(|| ebv_of(values, run)))
                    })
                    .collect();
                let n = iters.len();
                Ok(seq_table(iters, vec![1; n], items))
            }
            Op::Empty { seq, loop_ } => {
                let t = self.eval_in_iter_order(seq)?;
                let mut runs = IterRuns::new(iter_col(&t)?);
                let iters = self.loop_iters(loop_)?;
                let items: Vec<Item> = iters
                    .iter()
                    .map(|&it| Item::Bool(runs.of(it).is_empty()))
                    .collect();
                let n = iters.len();
                Ok(seq_table(iters, vec![1; n], items))
            }
            Op::Aggregate { func, seq, loop_ } => self.eval_aggregate(*func, seq, loop_),
            Op::JoinCount { join, loop_ } => self.eval_join_count(join, loop_),
            Op::Atomize { seq } => {
                let t = self.eval(seq)?;
                // a dictionary-encoded item column holds only strings, which
                // are already atomic: pass it through unchanged so the codes
                // (and the shared dictionary) survive to a downstream join
                if t.column("item")?.dict_parts().is_some() {
                    return Ok((*t).clone());
                }
                let items: Vec<Item> = t
                    .column("item")?
                    .iter_items()
                    .map(|i| self.atomize_item(&i))
                    .collect();
                with_items(&t, items)
            }
            Op::StringValue { seq, loop_ } => {
                let t = self.eval_in_iter_order(seq)?;
                let mut runs = IterRuns::new(iter_col(&t)?);
                let values = t.column("item")?;
                let iters = self.loop_iters(loop_)?;
                // a string item keeps its shared string; only a node's
                // string value is allocated
                let items: Vec<Item> = iters
                    .iter()
                    .map(|&it| {
                        let run = runs.of(it);
                        match run.clone().next().map(|row| values.item(row)) {
                            Some(s @ Item::Str(_)) => s,
                            _ => Item::str(self.first_str(values, run)),
                        }
                    })
                    .collect();
                let n = iters.len();
                Ok(seq_table(iters, vec![1; n], items))
            }
            Op::CastNumber { seq } => {
                let t = self.eval(seq)?;
                let items: Vec<Item> = t
                    .column("item")?
                    .iter_items()
                    .map(|i| Item::Dbl(self.atomize_item(&i).as_number().unwrap_or(f64::NAN)))
                    .collect();
                with_items(&t, items)
            }
            Op::StringFn { kind, args, loop_ } => self.eval_string_fn(*kind, args, loop_),
            Op::NumFn { kind, arg } => {
                let t = self.eval(arg)?;
                let items: Vec<Item> = t
                    .column("item")?
                    .iter_items()
                    .map(|i| {
                        let v = self.atomize_item(&i).as_number().unwrap_or(f64::NAN);
                        let r = match kind {
                            NumFnKind::Round => v.round(),
                            NumFnKind::Floor => v.floor(),
                            NumFnKind::Ceiling => v.ceil(),
                            NumFnKind::Abs => v.abs(),
                        };
                        Item::Dbl(r)
                    })
                    .collect();
                with_items(&t, items)
            }
            Op::DistinctValues { seq } => {
                let t = self.eval(seq)?;
                let sorted = self.sorted_seq(&t)?;
                let iters = iter_col(&sorted)?;
                let items = items_col(&sorted)?;
                let mut seen: std::collections::HashSet<(i64, String)> =
                    std::collections::HashSet::new();
                let (mut oi, mut op, mut oit) = (Vec::new(), Vec::new(), Vec::new());
                let mut per_iter_count: HashMap<i64, i64> = HashMap::new();
                for i in 0..sorted.nrows() {
                    let key = (iters[i], self.item_string(&items[i]));
                    if seen.insert(key) {
                        let c = per_iter_count.entry(iters[i]).or_insert(0);
                        *c += 1;
                        oi.push(iters[i]);
                        op.push(*c);
                        oit.push(self.atomize_item(&items[i]));
                    }
                }
                Ok(seq_table(oi, op, oit))
            }
            Op::DocOrderDistinct { seq } => {
                let t = self.eval_in_iter_order(seq)?;
                let mut runs = IterRuns::new(iter_col(&t)?);
                let values = t.column("item")?;
                let (mut oi, mut op, mut oit) = (Vec::new(), Vec::new(), Vec::new());
                let mut nodes: Vec<Item> = Vec::new();
                while let Some((it, run)) = runs.next_run() {
                    nodes.clear();
                    nodes.extend(run.map(|row| values.item(row)));
                    nodes.sort_by(|a, b| a.total_cmp(b));
                    nodes.dedup_by(|a, b| a.total_cmp(b) == std::cmp::Ordering::Equal);
                    oi.resize(oi.len() + nodes.len(), it);
                    op.extend(1..=nodes.len() as i64);
                    oit.append(&mut nodes);
                }
                self.stats.sorts += 1;
                Ok(seq_table(oi, op, oit))
            }
            Op::PosFilter { seq, kind } => {
                let t = self.eval(seq)?;
                let iters = iter_col(&t)?;
                let poss = pos_col(&t)?;
                let mask: Vec<bool> = match kind {
                    PosFilterKind::Eq(n) => poss.iter().map(|p| p == n).collect(),
                    PosFilterKind::Last => {
                        let mut max_pos: HashMap<i64, i64> = HashMap::new();
                        for i in 0..t.nrows() {
                            let e = max_pos.entry(iters[i]).or_insert(i64::MIN);
                            *e = (*e).max(poss[i]);
                        }
                        (0..t.nrows())
                            .map(|i| poss[i] == max_pos[&iters[i]])
                            .collect()
                    }
                };
                let filtered = t.filter(&mask)?;
                self.renumber_pos(&filtered)
            }
            Op::Subsequence { seq, start, len } => {
                let t = self.eval(seq)?;
                let poss = pos_col(&t)?;
                let end = len.map(|l| start + l);
                let mask: Vec<bool> = poss
                    .iter()
                    .map(|p| *p >= *start && end.map(|e| *p < e).unwrap_or(true))
                    .collect();
                let filtered = t.filter(&mask)?;
                self.renumber_pos(&filtered)
            }
            Op::ElemCtor {
                loop_,
                name,
                attrs,
                content,
            } => self.eval_elem_ctor(loop_, name, attrs, content),
        }
    }

    fn renumber_pos(&mut self, t: &Table) -> EResult<Table> {
        let iters = iter_col(t)?;
        let new_pos = if self.config.order_aware {
            // grpord: the rows of each iteration are already in pos order
            row_number_streaming(iters)
        } else {
            self.stats.sorts += 1;
            let keys = [
                (t.column("iter")?, SortOrder::Asc),
                (t.column("pos")?, SortOrder::Asc),
            ];
            let perm = sort_permutation(&keys);
            let sorted = t.gather(&perm);
            let iters_sorted = iter_col(&sorted)?;
            let pos = row_number_streaming(iters_sorted);
            let mut out = sorted;
            out.add_column("pos", Column::Int(pos))?;
            return Ok(out);
        };
        let mut out = t.clone();
        out.add_column("pos", Column::Int(new_pos))?;
        Ok(out)
    }

    // -------------------------------------------------------------------
    // nesting operators
    // -------------------------------------------------------------------

    fn eval_lift_through(&mut self, seq: &PlanRef, nest: &PlanRef) -> EResult<Table> {
        let s = self.eval(seq)?;
        let s = self.sorted_seq(&s)?;
        let n = self.eval(nest)?;
        let s_iter = iter_col(&s)?;
        let s_pos = pos_col(&s)?;
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
        let n_outer = n.column("outer")?.as_int()?;
        let n_inner = n.column("inner")?.as_int()?;
        let (mut oi, mut op, mut rows) = (Vec::new(), Vec::new(), Vec::new());
        lookup_sorted(&run_iter, n_outer, |k, run| {
            let run = run_start[run]..run_start[run + 1];
            oi.resize(oi.len() + run.len(), n_inner[k]);
            op.extend_from_slice(&s_pos[run.clone()]);
            rows.extend(run);
        });
        Table::from_columns(vec![
            ("iter", Column::Int(oi)),
            ("pos", Column::Int(op)),
            ("item", s.column("item")?.gather(&rows)),
        ])
        .map_err(Into::into)
    }

    fn eval_back_map(
        &mut self,
        body: &PlanRef,
        nest: &PlanRef,
        order_keys: &[(PlanRef, bool)],
    ) -> EResult<Table> {
        let b = self.eval(body)?;
        let n = self.eval(nest)?;
        let n_outer = n.column("outer")?.as_int()?;
        let n_inner = n.column("inner")?.as_int()?;
        let b_iter = iter_col(&b)?;
        let b_pos = pos_col(&b)?;
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
                let k_items = kt.column("item")?;
                // (iteration, first row) of every run of the key table
                let (mut k_iter, mut k_first) = (Vec::new(), Vec::new());
                let mut runs = IterRuns::new(iter_col(&kt)?);
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
        Table::from_columns(vec![
            ("iter", Column::Int(outer)),
            ("pos", Column::Int(pos)),
            ("item", b.column("item")?.gather(&rows)),
        ])
        .map_err(Into::into)
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
        let src = self.eval(source)?;
        let src = self.sorted_seq(&src)?;
        let lt = self.eval(left)?;
        let rt = self.eval(right)?;
        let (l_iter, r_iter) = (iter_col(&lt)?, iter_col(&rt)?);
        let (l_item, r_item) = (lt.column("item")?, rt.column("item")?);
        // source position -> source row (`pos - 1` when the positions are
        // dense); the source was evaluated in the singleton loop, so its
        // sorted `pos` column ascends
        let src_pos = pos_col(&src)?;
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

    fn eval_nest_from_join(&mut self, join: &PlanRef) -> EResult<Table> {
        let Joined::Pairs(src, pairs) = self.eval_join(join, false)? else {
            return Err(ExecError::Internal("nest(⋈) joined to counts".into()));
        };
        let src_pos = pos_col(&src)?;
        let (outer, rows): (Vec<i64>, Vec<usize>) = pairs.into_iter().unzip();
        Table::from_columns(vec![
            ("outer", Column::Int(outer)),
            ("inner", Column::dense(1, rows.len())),
            (
                "pos",
                Column::Int(rows.iter().map(|&row| src_pos[row]).collect()),
            ),
            ("item", src.column("item")?.gather(&rows)),
        ])
        .map_err(Into::into)
    }

    /// `count(⋈)`: per iteration of `loop_` the number of source rows the
    /// join pairs it with — by rank, or by counting the runs of the pairs.
    fn eval_join_count(&mut self, join: &PlanRef, loop_: &PlanRef) -> EResult<Table> {
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
        let items: Vec<Item> = iters
            .iter()
            .map(|&it| {
                while counts.next_if(|&(outer, _)| outer < it).is_some() {}
                let n = counts
                    .next_if(|&(outer, _)| outer == it)
                    .map_or(0, |(_, n)| n);
                Item::Int(n as i64)
            })
            .collect();
        let n = iters.len();
        Ok(seq_table(iters, vec![1; n], items))
    }

    fn eval_union(&mut self, parts: &[PlanRef]) -> EResult<Table> {
        let mut rows: Vec<(i64, i64, i64, Item)> = Vec::new();
        for (pidx, p) in parts.iter().enumerate() {
            let t = self.eval(p)?;
            let iters = iter_col(&t)?;
            let poss = pos_col(&t)?;
            let items = t.column("item")?;
            for i in 0..t.nrows() {
                rows.push((iters[i], pidx as i64, poss[i], items.item(i)));
            }
        }
        self.stats.sorts += 1;
        rows.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let iters: Vec<i64> = rows.iter().map(|r| r.0).collect();
        let pos = row_number_streaming(&iters);
        let items: Vec<Item> = rows.into_iter().map(|r| r.3).collect();
        Ok(seq_table(iters, pos, items))
    }

    // -------------------------------------------------------------------
    // axis steps
    // -------------------------------------------------------------------

    fn eval_axis_step(&mut self, ctx: &PlanRef, axis: Axis, test: &NodeTest) -> EResult<Table> {
        let t = self.eval(ctx)?;
        let iters = iter_col(&t)?;
        let mut stats = ScanStats::default();
        let mut out = StepOut::default();
        // one node per iteration, ascending, in one container: the child
        // step walks the contexts as they come and emits in `[iter, pos]`
        // order (no sort either side of the staircase)
        if let (Axis::Child, true, Column::Node(nodes)) =
            (axis, self.config.loop_lifted_child, t.column("item")?)
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
                return out.into_table();
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
        match t.column("item")? {
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
        out.into_table()
    }

    fn eval_attr_step(&mut self, ctx: &PlanRef, name: Option<&str>) -> EResult<Table> {
        let t = self.eval(ctx)?;
        let sorted = self.sorted_seq(&t)?;
        let iters = iter_col(&sorted)?;
        let items = items_col(&sorted)?;

        // Dictionary fast path: when every context node lives in one
        // container, the attribute values are already codes into the
        // container's shared value dictionary — emit a `Column::Dict` item
        // column so an equi-join against another attribute column of the
        // same document runs code-to-code.
        let mut frags = items.iter().filter_map(|i| match i {
            Item::Node(n) => Some(n.frag),
            _ => None,
        });
        let single_frag = frags.next().filter(|&f| frags.all(|g| g == f));
        if let Some(doc) = single_frag.map(|frag| self.container(frag)) {
            let cols = doc.columns_arc();
            // the name's code, resolved once per step (`None`: no node of
            // the container has the attribute)
            let code = name.map(|a| cols.attr_names().code_of(a));
            let (mut oi, mut codes) = (Vec::new(), Vec::new());
            for (it, item) in iters.iter().zip(&items) {
                let Item::Node(n) = item else { continue };
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
            return Ok(Table::from_columns(vec![
                ("iter", Column::Int(oi)),
                ("pos", Column::Int(pos)),
                ("item", item),
            ])
            .expect("sequence table construction"));
        }

        let (mut oi, mut oit) = (Vec::new(), Vec::new());
        for (it, item) in iters.iter().zip(&items) {
            let Item::Node(n) = item else { continue };
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
        Ok(seq_table(oi, pos, oit))
    }

    // -------------------------------------------------------------------
    // scalar / aggregate operators
    // -------------------------------------------------------------------

    fn eval_arith(&mut self, op: ArithOp, l: &PlanRef, r: &PlanRef) -> EResult<Table> {
        let lt = self.eval_in_iter_order(l)?;
        let rt = self.eval_in_iter_order(r)?;
        let (iters, items) = zip_firsts(&lt, &rt, |l, r| {
            let a = self.atomize_item(&l).as_number().unwrap_or(f64::NAN);
            let b = self.atomize_item(&r).as_number().unwrap_or(f64::NAN);
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
        })?;
        let n = iters.len();
        Ok(seq_table(iters, vec![1; n], items))
    }

    fn eval_aggregate(&mut self, func: AggFunc, seq: &PlanRef, loop_: &PlanRef) -> EResult<Table> {
        let t = self.eval(seq)?;
        let loop_iters = self.loop_iters(loop_)?;
        let iters = iter_col(&t)?;
        let item = t.column("item")?;
        // `count` reads no value at all; the others atomize only a column
        // that can hold nodes
        let atomized;
        let values = match item {
            Column::Node(_) | Column::Item(_) if func != AggFunc::Count => {
                atomized =
                    Column::from_items(item.iter_items().map(|i| self.atomize_item(&i)).collect());
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
        let (mut oi, mut oit) = (Vec::new(), Vec::new());
        for it in loop_iters {
            while found.next_if(|(g, _)| *g < it).is_some() {}
            match found.next_if(|(g, _)| *g == it) {
                Some((_, v)) => {
                    oi.push(it);
                    oit.push(v);
                }
                // count/sum of the empty sequence is 0; min/max/avg yield
                // the empty sequence
                None if matches!(func, AggFunc::Count | AggFunc::Sum) => {
                    oi.push(it);
                    oit.push(Item::Int(0));
                }
                None => {}
            }
        }
        let n = oi.len();
        Ok(seq_table(oi, vec![1; n], oit))
    }

    fn eval_string_fn(
        &mut self,
        kind: StrFnKind,
        args: &[PlanRef],
        loop_: &PlanRef,
    ) -> EResult<Table> {
        let loop_iters = self.loop_iters(loop_)?;
        let mut tables = Vec::with_capacity(args.len());
        for a in args {
            tables.push(self.eval_in_iter_order(a)?);
        }
        let mut values = Vec::with_capacity(args.len());
        let mut cursors = Vec::with_capacity(args.len());
        for t in &tables {
            values.push(t.column("item")?);
            cursors.push(IterRuns::new(iter_col(t)?));
        }
        // the rows of the current iteration, per argument
        let mut runs: Vec<Range<usize>> = Vec::with_capacity(args.len());
        let (mut oi, mut oit) = (Vec::new(), Vec::new());
        for it in loop_iters {
            runs.clear();
            runs.extend(cursors.iter_mut().map(|c| c.of(it)));
            // string value of an argument's first item ("" for none)
            let get = |idx: usize| match runs.get(idx) {
                Some(run) => self.first_str(values[idx], run.clone()),
                None => Cow::Borrowed(""),
            };
            let result = match kind {
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
                    let len = if args.len() > 2 {
                        Some(get(2).parse::<f64>().unwrap_or(0.0).round() as i64)
                    } else {
                        None
                    };
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
                        .map(|run| {
                            run.clone()
                                .map(|row| self.item_string(&values[0].item(row)))
                        })
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
                        .map(|n| self.container(n.frag).name_of(n.pre).to_string())
                        .unwrap_or_default();
                    Item::str(name)
                }
            };
            oi.push(it);
            oit.push(result);
        }
        let n = oi.len();
        Ok(seq_table(oi, vec![1; n], oit))
    }

    // -------------------------------------------------------------------
    // element construction
    // -------------------------------------------------------------------

    fn eval_elem_ctor(
        &mut self,
        loop_: &PlanRef,
        name: &str,
        attrs: &[(String, PlanRef)],
        content: &[PlanRef],
    ) -> EResult<Table> {
        let loop_iters = self.loop_iters(loop_)?;
        let mut layout = CtorLayout::default();
        self.lay_out_ctor(&mut layout, loop_, name, attrs, content)?;
        let CtorLayout {
            program,
            names,
            tables,
        } = layout;
        let mut columns = Vec::with_capacity(tables.len());
        let mut cursors = Vec::with_capacity(tables.len());
        for t in &tables {
            columns.push(t.column("item")?);
            cursors.push(IterRuns::new(iter_col(t)?));
        }

        // content nodes constructed by child plans already live in the
        // transient container the new elements are appended to
        let mut builder = DocumentBuilder::append_to(std::mem::take(&mut self.transient));
        // names are interned / allocated once per call, not per element
        let qids: Vec<u32> = names.iter().map(|n| builder.intern(n)).collect();

        let (mut oi, mut oit) = (Vec::new(), Vec::new());
        for it in loop_iters {
            let root_pre = builder.next_pre();
            for step in &program {
                match step {
                    Build::Start(k) => {
                        builder.start_interned(qids[*k]);
                        self.stats.constructed_nodes += 1;
                    }
                    Build::Attr(aname, t) => {
                        let run = cursors[*t].of(it);
                        builder.attribute(aname, &self.first_str(columns[*t], run));
                    }
                    Build::Content(ts) => {
                        let runs = ts.iter().map(|&t| (columns[t], cursors[t].of(it)));
                        self.stats.copied_nodes += builder.append_content(runs, |frag| {
                            (frag != TRANSIENT_FRAG).then(|| self.container(frag))
                        });
                    }
                    Build::End => builder.end_element(),
                }
            }
            oi.push(it);
            oit.push(Item::Node(NodeId::new(TRANSIENT_FRAG, root_pre)));
        }
        self.transient = builder.finish();
        let n = oi.len();
        Ok(seq_table(oi, vec![1; n], oit))
    }

    /// Lay out one constructor as build instructions, evaluating its
    /// attribute and content tables.  A content part that is itself a
    /// constructor over the same loop is laid out inline: it is built in
    /// place inside its parent instead of being materialized and then
    /// copied, which the parent's deep copy makes the same thing.  (A
    /// constructor some other consumer also uses is still evaluated there.)
    fn lay_out_ctor<'p>(
        &mut self,
        layout: &mut CtorLayout<'p>,
        loop_: &PlanRef,
        name: &'p str,
        attrs: &[(String, PlanRef)],
        content: &'p [PlanRef],
    ) -> EResult<()> {
        layout.program.push(Build::Start(layout.names.len()));
        layout.names.push(name);
        for (aname, plan) in attrs {
            layout
                .program
                .push(Build::Attr(Arc::from(aname.as_str()), layout.tables.len()));
            layout.tables.push(self.eval_in_iter_order(plan)?);
        }
        for part in content {
            match &part.op {
                Op::ElemCtor {
                    loop_: inner,
                    name,
                    attrs,
                    content,
                } if inner.id == loop_.id => {
                    self.lay_out_ctor(layout, loop_, name, attrs, content)?;
                }
                _ => {
                    let t = layout.tables.len();
                    match layout.program.last_mut() {
                        Some(Build::Content(ts)) => ts.push(t),
                        _ => layout.program.push(Build::Content(vec![t])),
                    }
                    layout.tables.push(self.eval_in_iter_order(part)?);
                }
            }
        }
        layout.program.push(Build::End);
        Ok(())
    }
}

/// An element constructor laid out for its per-iteration build
/// ([`Executor::lay_out_ctor`]): the instructions, the element names they
/// open and the evaluated attribute and content tables they read.
#[derive(Default)]
struct CtorLayout<'p> {
    program: Vec<Build>,
    names: Vec<&'p str>,
    tables: Vec<Rc<Table>>,
}

/// One instruction of an element constructor's per-iteration build.
enum Build {
    /// Open an element named `names[k]`.
    Start(usize),
    /// Add an attribute: its name, and the table of its string values.
    Attr(Arc<str>, usize),
    /// Append the items of these tables as one content sequence (adjacent
    /// atomics merge across them).
    Content(Vec<usize>),
    /// Close the element.
    End,
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

/// Merge cursor over the `iter` column of a table in `[iter, pos]` order:
/// the rows of one iteration are a run, and consumers that walk the
/// iterations of their loop in ascending order find each run by advancing
/// — no per-iteration map, no per-iteration allocation.
struct IterRuns<'a> {
    iters: &'a [i64],
    at: usize,
}

impl<'a> IterRuns<'a> {
    fn new(iters: &'a [i64]) -> Self {
        IterRuns { iters, at: 0 }
    }

    /// The rows of iteration `it` (empty when it has none).  Iterations
    /// must be asked for in strictly ascending order.
    fn of(&mut self, it: i64) -> Range<usize> {
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
    fn next_run(&mut self) -> Option<(i64, Range<usize>)> {
        let &it = self.iters.get(self.at)?;
        Some((it, self.of(it)))
    }
}

/// The columns of a location step's sequence table, built in one pass
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

    fn into_table(self) -> EResult<Table> {
        Table::from_columns(vec![
            ("iter", Column::Int(self.iters)),
            ("pos", Column::Int(self.pos)),
            ("item", Column::Node(self.nodes)),
        ])
        .map_err(Into::into)
    }
}

/// What a recognised join hands its consumer ([`Executor::eval_join`]).
enum Joined {
    /// The qualifying (outer iteration, source row) pairs, ascending and
    /// duplicate free, next to the evaluated source (sorted on `pos`).
    Pairs(Rc<Table>, Vec<(i64, usize)>),
    /// Per outer iteration (ascending), the number of qualifying source
    /// rows: the rank count.
    Counts(Vec<(i64, usize)>),
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

/// Effective boolean value of one iteration's rows: a single atomic decides
/// by its value; a node, or more than one item, is true.
fn ebv_of(items: &Column, run: Range<usize>) -> bool {
    match run.len() {
        0 => false,
        1 => items.item(run.start).effective_boolean(),
        _ => true,
    }
}

/// Effective boolean value of the first item of one iteration's rows.
fn first_ebv(items: &Column, run: Range<usize>) -> bool {
    !run.is_empty() && items.item(run.start).effective_boolean()
}

/// Combine the first items of the iterations two `[iter, pos]`-ordered
/// sequence tables share: `(iterations, f(left first, right first))`.
fn zip_firsts(
    l: &Table,
    r: &Table,
    mut f: impl FnMut(Item, Item) -> Item,
) -> EResult<(Vec<i64>, Vec<Item>)> {
    let (l_items, r_items) = (l.column("item")?, r.column("item")?);
    let (mut l_runs, mut r_runs) = (IterRuns::new(iter_col(l)?), IterRuns::new(iter_col(r)?));
    let (mut iters, mut items) = (Vec::new(), Vec::new());
    while let Some((it, l_run)) = l_runs.next_run() {
        let r_run = r_runs.of(it);
        if !r_run.is_empty() {
            iters.push(it);
            items.push(f(l_items.item(l_run.start), r_items.item(r_run.start)));
        }
    }
    Ok((iters, items))
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
    fn serialize_items_spaces_atomics() {
        let snap = mxq_xmldb::DocStore::new().snapshot();
        let items = [Item::Int(1), Item::Int(2), Item::str("x")];
        let s = serialize_items_snapshot(&snap, &Document::new("#transient"), &items);
        assert_eq!(s, "1 2 x");
    }
}
