//! A naive, DOM-walking XQuery interpreter.
//!
//! This evaluator plays the role of the non-relational comparator systems of
//! the paper's Table 1 (eXist, Galax, X-Hive, BerkeleyDB XML): it navigates
//! the tree one node at a time, re-evaluates path expressions for every
//! iteration of every `for` loop, and evaluates value joins by nested loops.
//! There is no loop lifting, no staircase join, no join recognition and no
//! order-property bookkeeping — which is exactly why it exhibits the
//! behaviour the paper's comparison highlights (joins degrade quadratically,
//! path-heavy queries pay repeated traversals).
//!
//! It shares the parser and AST with `mxq-xquery`, so both engines accept the
//! same query texts and their results can be compared 1:1 in tests.

use std::collections::HashMap;
use std::fmt;

use mxq_engine::{Item, NodeId};
use mxq_staircase::{Axis, NodeTest};
use mxq_xmldb::{Document, DocumentBuilder, NodeKind, StoreSnapshot, TRANSIENT_FRAG};
use mxq_xquery::ast::*;
use mxq_xquery::parser::parse_query;
use mxq_xquery::{serialize_items_snapshot, Params};

/// Errors raised by the naive interpreter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NaiveError {
    /// Parse failure (same parser as the relational engine).
    Parse(String),
    /// A variable that is not in scope.
    UnknownVariable(String),
    /// An external variable without binding or default.
    UnboundVariable(String),
    /// An unknown function.
    UnknownFunction(String),
    /// A document that is not loaded.
    UnknownDocument(String),
    /// A construct the interpreter does not handle.
    Unsupported(String),
}

impl fmt::Display for NaiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NaiveError::Parse(m) => write!(f, "parse error: {m}"),
            NaiveError::UnknownVariable(v) => write!(f, "unknown variable ${v}"),
            NaiveError::UnboundVariable(v) => {
                write!(
                    f,
                    "external variable ${v} is not bound (and has no default)"
                )
            }
            NaiveError::UnknownFunction(n) => write!(f, "unknown function {n}()"),
            NaiveError::UnknownDocument(d) => write!(f, "document not loaded: {d}"),
            NaiveError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for NaiveError {}

type NResult<T> = Result<T, NaiveError>;
type Env = HashMap<String, Vec<Item>>;

/// The naive interpreter over a store snapshot.
pub struct NaiveInterpreter<'a> {
    snap: &'a StoreSnapshot,
    /// The interpreter's own transient container (fragment 0): the nodes
    /// its element constructors build.
    transient: Document,
    functions: HashMap<String, FunctionDecl>,
}

impl<'a> NaiveInterpreter<'a> {
    /// Create an interpreter over the documents of a store snapshot.
    pub fn new(snap: &'a StoreSnapshot) -> Self {
        NaiveInterpreter {
            snap,
            transient: Document::new("#transient"),
            functions: HashMap::new(),
        }
    }

    fn container(&self, frag: u32) -> &Document {
        self.snap.resolve(&self.transient, frag)
    }

    /// Parse and evaluate a query, returning the result item sequence.
    pub fn run(&mut self, query: &str) -> NResult<Vec<Item>> {
        self.run_with_params(query, &Params::new())
    }

    /// Parse and evaluate a query with external-variable bindings — the
    /// naive counterpart of the relational engine's prepared-statement
    /// parameters, so both evaluators accept the same parameterized texts.
    pub fn run_with_params(&mut self, query: &str, params: &Params) -> NResult<Vec<Item>> {
        let parsed = parse_query(query).map_err(|e| NaiveError::Parse(e.to_string()))?;
        for f in &parsed.functions {
            self.functions.insert(f.name.clone(), f.clone());
        }
        let mut env = Env::new();
        for decl in &parsed.variables {
            let v = if decl.external {
                match params.get(&decl.name) {
                    Some(bound) => bound.to_vec(),
                    None => match &decl.init {
                        Some(default) => self.eval(default, &env)?,
                        None => return Err(NaiveError::UnboundVariable(decl.name.clone())),
                    },
                }
            } else {
                let init = decl.init.as_ref().ok_or_else(|| {
                    NaiveError::Unsupported(format!("variable ${} without a value", decl.name))
                })?;
                self.eval(init, &env)?
            };
            env.insert(decl.name.clone(), v);
        }
        self.eval(&parsed.body, &env)
    }

    fn eval(&mut self, expr: &Expr, env: &Env) -> NResult<Vec<Item>> {
        match expr {
            Expr::Literal(l) => Ok(vec![l.to_item()]),
            Expr::Param { .. } => Err(NaiveError::Unsupported(
                "lifted literal slots (the oracle runs statement text)".into(),
            )),
            Expr::Empty => Ok(vec![]),
            Expr::Var(v) => env
                .get(v)
                .cloned()
                .ok_or_else(|| NaiveError::UnknownVariable(v.clone())),
            Expr::Sequence(parts) => {
                let mut out = Vec::new();
                for p in parts {
                    out.extend(self.eval(p, env)?);
                }
                Ok(out)
            }
            Expr::Flwor {
                clauses,
                where_,
                order_by,
                ret,
            } => self.eval_flwor(clauses, where_.as_deref(), order_by.as_ref(), ret, env),
            Expr::If { cond, then, els } => {
                let c = self.eval(cond, env)?;
                if ebv(&c) {
                    self.eval(then, env)
                } else {
                    self.eval(els, env)
                }
            }
            Expr::Quantified {
                some,
                var,
                source,
                satisfies,
            } => {
                let src = self.eval(source, env)?;
                let mut result = !*some;
                for item in src {
                    let mut env2 = env.clone();
                    env2.insert(var.clone(), vec![item]);
                    let sat = ebv(&self.eval(satisfies, &env2)?);
                    if *some && sat {
                        result = true;
                        break;
                    }
                    if !*some && !sat {
                        result = false;
                        break;
                    }
                }
                Ok(vec![Item::Bool(result)])
            }
            Expr::Arith { op, l, r } => {
                let a = self.first_number(l, env)?;
                let b = self.first_number(r, env)?;
                let (Some(a), Some(b)) = (a, b) else {
                    return Ok(vec![]);
                };
                let v = match op {
                    ArithOp::Add => a + b,
                    ArithOp::Sub => a - b,
                    ArithOp::Mul => a * b,
                    ArithOp::Div => a / b,
                    ArithOp::IDiv => (a / b).trunc(),
                    ArithOp::Mod => a % b,
                };
                if v.fract() == 0.0
                    && matches!(
                        op,
                        ArithOp::Add | ArithOp::Sub | ArithOp::Mul | ArithOp::IDiv | ArithOp::Mod
                    )
                {
                    Ok(vec![Item::Int(v as i64)])
                } else {
                    Ok(vec![Item::Dbl(v)])
                }
            }
            Expr::Neg(e) => {
                let v = self.first_number(e, env)?;
                Ok(v.map(|x| vec![Item::Dbl(-x)]).unwrap_or_default())
            }
            Expr::Comparison { kind, l, r } => {
                let lv = self.eval(l, env)?;
                let rv = self.eval(r, env)?;
                let result = match kind {
                    CompKind::General(op) => {
                        // nested-loop existential comparison
                        let mut found = false;
                        'outer: for a in &lv {
                            for b in &rv {
                                if self.atomize(a).compare(*op, &self.atomize(b)) {
                                    found = true;
                                    break 'outer;
                                }
                            }
                        }
                        found
                    }
                    CompKind::Value(op) => match (lv.first(), rv.first()) {
                        (Some(a), Some(b)) => self.atomize(a).compare(*op, &self.atomize(b)),
                        _ => false,
                    },
                    CompKind::NodeBefore | CompKind::NodeAfter | CompKind::NodeIs => {
                        match (
                            lv.first().and_then(|i| i.as_node()),
                            rv.first().and_then(|i| i.as_node()),
                        ) {
                            (Some(a), Some(b)) => match kind {
                                CompKind::NodeBefore => a < b,
                                CompKind::NodeAfter => a > b,
                                _ => a == b,
                            },
                            _ => false,
                        }
                    }
                };
                Ok(vec![Item::Bool(result)])
            }
            Expr::Logical { is_and, l, r } => {
                let a = ebv(&self.eval(l, env)?);
                let b = ebv(&self.eval(r, env)?);
                Ok(vec![Item::Bool(if *is_and { a && b } else { a || b })])
            }
            Expr::Path { start, steps } => {
                let mut ctx = match start {
                    Some(s) => self.eval(s, env)?,
                    None => {
                        return Err(NaiveError::Unsupported("absolute path".into()));
                    }
                };
                for step in steps {
                    ctx = self.eval_step(&ctx, step, env)?;
                }
                Ok(ctx)
            }
            Expr::FunCall { name, args } => self.eval_funcall(name, args, env),
            Expr::Element(ctor) => Ok(vec![self.construct(ctor, env)?]),
        }
    }

    // ------------------------------------------------------------------
    // FLWOR
    // ------------------------------------------------------------------

    fn eval_flwor(
        &mut self,
        clauses: &[Clause],
        where_: Option<&Expr>,
        order_by: Option<&OrderSpec>,
        ret: &Expr,
        env: &Env,
    ) -> NResult<Vec<Item>> {
        // build the tuple stream (environments) clause by clause
        let mut envs: Vec<Env> = vec![env.clone()];
        for clause in clauses {
            let mut next = Vec::new();
            match clause {
                Clause::For { var, at, source } => {
                    for e in &envs {
                        let src = self.eval(source, e)?;
                        for (idx, item) in src.into_iter().enumerate() {
                            let mut e2 = e.clone();
                            e2.insert(var.clone(), vec![item]);
                            if let Some(a) = at {
                                e2.insert(a.clone(), vec![Item::Int(idx as i64 + 1)]);
                            }
                            next.push(e2);
                        }
                    }
                }
                Clause::Let { var, value } => {
                    for e in &envs {
                        let v = self.eval(value, e)?;
                        let mut e2 = e.clone();
                        e2.insert(var.clone(), v);
                        next.push(e2);
                    }
                }
            }
            envs = next;
        }
        // where
        if let Some(w) = where_ {
            let mut kept = Vec::new();
            for e in envs {
                if ebv(&self.eval(w, &e)?) {
                    kept.push(e);
                }
            }
            envs = kept;
        }
        // order by (multi-key: compare major key first, per-key direction)
        if let Some(spec) = order_by {
            let mut keyed: Vec<(Vec<Item>, Env)> = Vec::new();
            for e in envs {
                let mut keys = Vec::with_capacity(spec.keys.len());
                for k in &spec.keys {
                    let key = self
                        .eval(&k.key, &e)?
                        .first()
                        .map(|i| self.atomize(i))
                        .unwrap_or(Item::str(""));
                    keys.push(key);
                }
                keyed.push((keys, e));
            }
            keyed.sort_by(|a, b| {
                for (i, k) in spec.keys.iter().enumerate() {
                    let ord = a.0[i].total_cmp(&b.0[i]);
                    let ord = if k.descending { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            envs = keyed.into_iter().map(|(_, e)| e).collect();
        }
        // return
        let mut out = Vec::new();
        for e in envs {
            out.extend(self.eval(ret, &e)?);
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // paths
    // ------------------------------------------------------------------

    fn eval_step(&mut self, ctx: &[Item], step: &Step, env: &Env) -> NResult<Vec<Item>> {
        let mut out: Vec<Item> = Vec::new();
        for item in ctx {
            let Some(node) = item.as_node() else { continue };
            let mut results = self.axis_nodes(node, step.axis, &step.test);
            for pred in &step.predicates {
                results = self.apply_predicate(results, pred, env)?;
            }
            out.extend(results);
        }
        // document order + duplicate elimination over node results
        if out.iter().all(|i| i.is_node()) {
            out.sort_by(|a, b| a.total_cmp(b));
            out.dedup_by(|a, b| a.total_cmp(b) == std::cmp::Ordering::Equal);
        }
        Ok(out)
    }

    fn apply_predicate(
        &mut self,
        results: Vec<Item>,
        pred: &Expr,
        env: &Env,
    ) -> NResult<Vec<Item>> {
        // positional forms
        if let Expr::Literal(Literal::Integer(n)) = pred {
            let idx = *n as usize;
            return Ok(results
                .get(idx.wrapping_sub(1))
                .cloned()
                .into_iter()
                .collect());
        }
        if let Expr::FunCall { name, args } = pred {
            if name == "last" && args.is_empty() {
                return Ok(results.last().cloned().into_iter().collect());
            }
        }
        let mut kept = Vec::new();
        for (position, item) in (1..).zip(results) {
            let mut env2 = env.clone();
            env2.insert(".".into(), vec![item.clone()]);
            // a predicate value that is one number selects by position
            let keep = match self.eval(pred, &env2)?.as_slice() {
                [Item::Int(n)] => *n == position,
                [Item::Dbl(d)] => *d == position as f64,
                value => ebv(value),
            };
            if keep {
                kept.push(item);
            }
        }
        Ok(kept)
    }

    /// Per-node axis navigation: a plain recursive tree walk, no skipping, no
    /// pruning, no shared scans.
    fn axis_nodes(&self, node: NodeId, axis: Axis, test: &NodeTest) -> Vec<Item> {
        let doc = self.container(node.frag);
        let pre = node.pre;
        let mk = |p: u32| Item::Node(NodeId::new(node.frag, p));
        match axis {
            Axis::Attribute => {
                let mut out = Vec::new();
                match test {
                    NodeTest::Named(name) => {
                        if let Some(v) = doc.attribute(pre, name) {
                            out.push(Item::str(v));
                        }
                    }
                    _ => {
                        for (_, value) in doc.attrs(pre) {
                            out.push(Item::str(value.as_ref()));
                        }
                    }
                }
                out
            }
            Axis::Child => doc
                .children(pre)
                .filter(|&c| test.matches(doc, c))
                .map(mk)
                .collect(),
            Axis::Descendant | Axis::DescendantOrSelf => {
                let start = if axis == Axis::Descendant {
                    pre + 1
                } else {
                    pre
                };
                (start..=pre + doc.size(pre))
                    .filter(|&v| test.matches(doc, v))
                    .map(mk)
                    .collect()
            }
            Axis::SelfAxis => {
                if test.matches(doc, pre) {
                    vec![mk(pre)]
                } else {
                    vec![]
                }
            }
            Axis::Parent => doc
                .parent(pre)
                .filter(|&p| test.matches(doc, p))
                .map(mk)
                .into_iter()
                .collect(),
            Axis::Ancestor | Axis::AncestorOrSelf => {
                let mut out = Vec::new();
                if axis == Axis::AncestorOrSelf && test.matches(doc, pre) {
                    out.push(mk(pre));
                }
                let mut cur = pre;
                while let Some(p) = doc.parent(cur) {
                    if test.matches(doc, p) {
                        out.push(mk(p));
                    }
                    cur = p;
                }
                out
            }
            Axis::Following => {
                let boundary = pre + doc.size(pre);
                (boundary + 1..doc.len() as u32)
                    .filter(|&v| test.matches(doc, v))
                    .map(mk)
                    .collect()
            }
            Axis::Preceding => (0..pre)
                .filter(|&v| v + doc.size(v) < pre && test.matches(doc, v))
                .map(mk)
                .collect(),
            Axis::FollowingSibling | Axis::PrecedingSibling => {
                let Some(p) = doc.parent(pre) else {
                    return vec![];
                };
                doc.children(p)
                    .filter(|&v| {
                        let keep = if axis == Axis::FollowingSibling {
                            v > pre
                        } else {
                            v < pre
                        };
                        keep && test.matches(doc, v)
                    })
                    .map(mk)
                    .collect()
            }
        }
    }

    // ------------------------------------------------------------------
    // functions, construction, helpers
    // ------------------------------------------------------------------

    fn eval_funcall(&mut self, name: &str, args: &[Expr], env: &Env) -> NResult<Vec<Item>> {
        match name {
            "doc" | "document" => {
                let doc_name = match args.first() {
                    Some(Expr::Literal(Literal::String(s))) => s.clone(),
                    _ => return Err(NaiveError::Unsupported("doc() without literal".into())),
                };
                let root = self
                    .snap
                    .document_root(&doc_name)
                    .ok_or(NaiveError::UnknownDocument(doc_name))?;
                Ok(vec![Item::Node(root)])
            }
            "count" => Ok(vec![Item::Int(self.eval_arg(args, 0, env)?.len() as i64)]),
            "sum" => {
                let v = self.eval_arg(args, 0, env)?;
                let s: f64 = v.iter().filter_map(|i| self.atomize(i).as_number()).sum();
                Ok(vec![if s.fract() == 0.0 {
                    Item::Int(s as i64)
                } else {
                    Item::Dbl(s)
                }])
            }
            "avg" => {
                let v = self.eval_arg(args, 0, env)?;
                if v.is_empty() {
                    return Ok(vec![]);
                }
                let nums: Vec<f64> = v
                    .iter()
                    .filter_map(|i| self.atomize(i).as_number())
                    .collect();
                Ok(vec![Item::Dbl(
                    nums.iter().sum::<f64>() / nums.len().max(1) as f64,
                )])
            }
            "min" | "max" => {
                let v = self.eval_arg(args, 0, env)?;
                let mut atoms: Vec<Item> = v.iter().map(|i| self.atomize(i)).collect();
                atoms.sort_by(|a, b| a.total_cmp(b));
                let pick = if name == "min" {
                    atoms.first()
                } else {
                    atoms.last()
                };
                Ok(pick.cloned().into_iter().collect())
            }
            "exists" => Ok(vec![Item::Bool(!self.eval_arg(args, 0, env)?.is_empty())]),
            "empty" => Ok(vec![Item::Bool(self.eval_arg(args, 0, env)?.is_empty())]),
            "not" => Ok(vec![Item::Bool(!ebv(&self.eval_arg(args, 0, env)?))]),
            "boolean" => Ok(vec![Item::Bool(ebv(&self.eval_arg(args, 0, env)?))]),
            "true" => Ok(vec![Item::Bool(true)]),
            "false" => Ok(vec![Item::Bool(false)]),
            "zero-or-one" | "exactly-one" | "one-or-more" => self.eval_arg(args, 0, env),
            "data" => Ok(self
                .eval_arg(args, 0, env)?
                .iter()
                .map(|i| self.atomize(i))
                .collect()),
            "string" => {
                let v = self.eval_arg(args, 0, env)?;
                Ok(vec![Item::str(
                    v.first().map(|i| self.string_of(i)).unwrap_or_default(),
                )])
            }
            "number" => {
                let v = self.eval_arg(args, 0, env)?;
                Ok(vec![Item::Dbl(
                    v.first()
                        .and_then(|i| self.atomize(i).as_number())
                        .unwrap_or(f64::NAN),
                )])
            }
            "distinct-values" => {
                let v = self.eval_arg(args, 0, env)?;
                let mut seen = std::collections::HashSet::new();
                let mut out = Vec::new();
                for i in v {
                    let a = self.atomize(&i);
                    if seen.insert(a.string_value()) {
                        out.push(a);
                    }
                }
                Ok(out)
            }
            "contains" => {
                let a = self.first_string(args, 0, env)?;
                let b = self.first_string(args, 1, env)?;
                Ok(vec![Item::Bool(a.contains(&b))])
            }
            "starts-with" => {
                let a = self.first_string(args, 0, env)?;
                let b = self.first_string(args, 1, env)?;
                Ok(vec![Item::Bool(a.starts_with(&b))])
            }
            "concat" => {
                let mut s = String::new();
                for i in 0..args.len() {
                    s.push_str(&self.first_string(args, i, env)?);
                }
                Ok(vec![Item::str(s)])
            }
            "string-length" => {
                let a = self.first_string(args, 0, env)?;
                Ok(vec![Item::Int(a.chars().count() as i64)])
            }
            "name" | "local-name" => {
                let v = self.eval_arg(args, 0, env)?;
                let n = v
                    .first()
                    .and_then(|i| i.as_node())
                    .map(|n| self.container(n.frag).name_of(n.pre).to_string())
                    .unwrap_or_default();
                Ok(vec![Item::str(n)])
            }
            "round" | "floor" | "ceiling" | "abs" => {
                let v = self
                    .eval_arg(args, 0, env)?
                    .first()
                    .and_then(|i| self.atomize(i).as_number());
                Ok(v.map(|x| {
                    let r = match name {
                        "round" => x.round(),
                        "floor" => x.floor(),
                        "ceiling" => x.ceil(),
                        _ => x.abs(),
                    };
                    vec![Item::Dbl(r)]
                })
                .unwrap_or_default())
            }
            _ => {
                let Some(decl) = self.functions.get(name).cloned() else {
                    return Err(NaiveError::UnknownFunction(name.to_string()));
                };
                let mut env2 = env.clone();
                for (param, arg) in decl.params.iter().zip(args) {
                    let v = self.eval(arg, env)?;
                    env2.insert(param.clone(), v);
                }
                self.eval(&decl.body, &env2)
            }
        }
    }

    fn construct(&mut self, ctor: &ElementCtor, env: &Env) -> NResult<Item> {
        // attributes
        let mut attrs = Vec::new();
        for (name, parts) in &ctor.attributes {
            let mut value = String::new();
            for p in parts {
                match p {
                    AttrPart::Text(t) => value.push_str(t),
                    AttrPart::Expr(e) => {
                        let v = self.eval(e, env)?;
                        value.push_str(&v.first().map(|i| self.string_of(i)).unwrap_or_default());
                    }
                }
            }
            attrs.push((name.clone(), value));
        }
        // content
        let mut content_items: Vec<Item> = Vec::new();
        for c in &ctor.content {
            match c {
                Content::Text(t) => content_items.push(Item::str(t.as_str())),
                Content::Expr(e) => content_items.extend(self.eval(e, env)?),
                Content::Element(e) => content_items.push(self.construct(e, env)?),
            }
        }
        // materialise the copies first (cannot borrow the store while building)
        enum Piece {
            Text(String),
            Copy(NodeId),
        }
        let mut pieces = Vec::new();
        let mut pending = String::new();
        for item in &content_items {
            match item {
                Item::Node(n) => {
                    if !pending.is_empty() {
                        pieces.push(Piece::Text(std::mem::take(&mut pending)));
                    }
                    pieces.push(Piece::Copy(*n));
                }
                atomic => {
                    if !pending.is_empty() {
                        pending.push(' ');
                    }
                    pending.push_str(&atomic.string_value());
                }
            }
        }
        if !pending.is_empty() {
            pieces.push(Piece::Text(pending));
        }
        let mut builder = DocumentBuilder::append_to(std::mem::take(&mut self.transient));
        let root = builder.start_element(&ctor.name);
        for (n, v) in &attrs {
            builder.attribute(n, v);
        }
        for piece in pieces {
            match piece {
                Piece::Text(t) => {
                    builder.text(&t);
                }
                // constructed content is copied within the transient
                Piece::Copy(n) if n.frag == TRANSIENT_FRAG => {
                    builder.copy_subtree_within(n.pre);
                }
                Piece::Copy(n) => {
                    let src = self.snap.container(n.frag);
                    // a document node contributes its children
                    if src.kind(n.pre) == NodeKind::Document {
                        for child in src.children(n.pre) {
                            builder.copy_subtree(src, child);
                        }
                    } else {
                        builder.copy_subtree(src, n.pre);
                    }
                }
            }
        }
        builder.end_element();
        self.transient = builder.finish();
        Ok(Item::Node(NodeId::new(TRANSIENT_FRAG, root)))
    }

    fn eval_arg(&mut self, args: &[Expr], idx: usize, env: &Env) -> NResult<Vec<Item>> {
        match args.get(idx) {
            Some(a) => self.eval(a, env),
            None => Ok(vec![]),
        }
    }

    fn first_string(&mut self, args: &[Expr], idx: usize, env: &Env) -> NResult<String> {
        Ok(self
            .eval_arg(args, idx, env)?
            .first()
            .map(|i| self.string_of(i))
            .unwrap_or_default())
    }

    fn first_number(&mut self, e: &Expr, env: &Env) -> NResult<Option<f64>> {
        Ok(self
            .eval(e, env)?
            .first()
            .and_then(|i| self.atomize(i).as_number()))
    }

    fn atomize(&self, item: &Item) -> Item {
        match item {
            Item::Node(n) => Item::str(self.container(n.frag).string_value(n.pre)),
            other => other.clone(),
        }
    }

    fn string_of(&self, item: &Item) -> String {
        match item {
            Item::Node(n) => self.container(n.frag).string_value(n.pre),
            other => other.string_value(),
        }
    }

    /// Serialize a result sequence (nodes as XML, atomics as text).
    pub fn serialize(&self, items: &[Item]) -> String {
        serialize_items_snapshot(self.snap, &self.transient, items)
    }
}

fn ebv(items: &[Item]) -> bool {
    match items {
        [] => false,
        v if v.iter().any(|i| i.is_node()) => true,
        [single] => single.effective_boolean(),
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mxq_xmldb::DocStore;
    use mxq_xquery::Database;
    use std::sync::Arc;

    fn store_with(xml: &str) -> StoreSnapshot {
        let mut s = DocStore::new();
        s.load_xml("doc.xml", xml).unwrap();
        s.snapshot()
    }

    #[test]
    fn basic_queries_match_relational_engine() {
        let xml = "<site><people><person id=\"p0\"><name>Ann</name></person>\
                   <person id=\"p1\"><name>Bob</name></person></people>\
                   <orders><o buyer=\"p0\"/><o buyer=\"p0\"/><o buyer=\"p1\"/></orders></site>";
        let queries = [
            "for $p in doc(\"doc.xml\")/site/people/person return $p/name/text()",
            "count(doc(\"doc.xml\")//person)",
            "for $p in doc(\"doc.xml\")/site/people/person \
             return <r>{count(for $o in doc(\"doc.xml\")/site/orders/o where $o/@buyer = $p/@id return $o)}</r>",
            "for $p in doc(\"doc.xml\")/site/people/person[@id = \"p1\"] return $p/name/text()",
            "if (1 < 2) then \"yes\" else \"no\"",
        ];
        for q in queries {
            let snap = store_with(xml);
            let mut naive = NaiveInterpreter::new(&snap);
            let n_items = naive.run(q).unwrap();
            let n_str = naive.serialize(&n_items);

            let db = Arc::new(Database::new());
            db.load_document("doc.xml", xml).unwrap();
            let r = db.session().query(q).unwrap();
            assert_eq!(n_str, r.serialize(), "query {q}");
        }
    }

    #[test]
    fn positional_predicates_and_order() {
        let xml = "<a><b k=\"2\">x</b><b k=\"1\">y</b></a>";
        let snap = store_with(xml);
        let mut naive = NaiveInterpreter::new(&snap);
        let r = naive.run("doc(\"doc.xml\")/a/b[2]/text()").unwrap();
        assert_eq!(naive.serialize(&r), "y");
        let r = naive
            .run("for $b in doc(\"doc.xml\")/a/b order by $b/@k return $b/text()")
            .unwrap();
        assert_eq!(naive.serialize(&r), "yx");
    }

    #[test]
    fn numeric_predicates_select_by_position() {
        let snap = store_with("<a><b>1</b><b>2</b><b>3</b></a>");
        let mut naive = NaiveInterpreter::new(&snap);
        for q in [
            "for $i in (2) return doc(\"doc.xml\")/a/b[$i]",
            "doc(\"doc.xml\")/a/b[1 + 1]",
            "doc(\"doc.xml\")/a/b[2.0]",
        ] {
            let r = naive.run(q).unwrap();
            assert_eq!(naive.serialize(&r), "<b>2</b>", "{q}");
        }
        let r = naive.run("doc(\"doc.xml\")/a/b[\"x\"]/text()").unwrap();
        assert_eq!(naive.serialize(&r), "123", "strings keep their EBV");
    }

    #[test]
    fn element_construction() {
        let xml = "<a><b>1</b></a>";
        let snap = store_with(xml);
        let mut naive = NaiveInterpreter::new(&snap);
        let r = naive
            .run("for $b in doc(\"doc.xml\")/a/b return <out v=\"{$b/text()}\">{$b}</out>")
            .unwrap();
        assert_eq!(naive.serialize(&r), "<out v=\"1\"><b>1</b></out>");
    }

    #[test]
    fn construction_leaves_the_store_unchanged() -> Result<(), Box<dyn std::error::Error>> {
        let mut store = DocStore::new();
        store.load_xml("doc.xml", "<a><b>1</b></a>")?;
        let (fragments, generation) = (store.fragments(), store.generation());
        let snap = store.snapshot();
        let mut naive = NaiveInterpreter::new(&snap);
        // the inner constructor's result is copied within the transient
        let r = naive.run("let $i := <i>{doc(\"doc.xml\")/a/b}</i> return <o>{$i, $i/b}</o>")?;
        assert_eq!(naive.serialize(&r), "<o><i><b>1</b></i><b>1</b></o>");
        assert_eq!(store.fragments(), fragments);
        assert_eq!(store.generation(), generation);
        assert_eq!(store.total_nodes(), 4);
        Ok(())
    }

    #[test]
    fn unknown_names_error() {
        let snap = DocStore::new().snapshot();
        let mut naive = NaiveInterpreter::new(&snap);
        assert!(matches!(
            naive.run("$x"),
            Err(NaiveError::UnknownVariable(_))
        ));
        assert!(matches!(
            naive.run("nope()"),
            Err(NaiveError::UnknownFunction(_))
        ));
        assert!(matches!(
            naive.run("doc(\"zzz.xml\")/a"),
            Err(NaiveError::UnknownDocument(_))
        ));
    }
}
