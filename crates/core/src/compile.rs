//! The loop-lifting compiler: XQuery AST → relational algebra plans.
//!
//! The compilation scheme is the one of Section 2.1 (after \[17\], "XQuery on
//! SQL Hosts"): every subexpression is compiled relative to the *loop
//! relation* of its scope; `for` clauses create a new, finer loop via the
//! ρ-shaped [`Op::NestFromSeq`] operator; variables of enclosing scopes are
//! lifted into the inner scope with a join over the nest map
//! ([`Op::LiftThrough`]); results of the loop body are mapped back with
//! [`Op::BackMap`].
//!
//! Two of the paper's optimizations are applied here because they are
//! decisions about plan *shape*:
//!
//! * **Join recognition** (Section 4.1): when a `for` source is independent
//!   of all enclosing loop variables and the `where` clause is a general
//!   comparison separable into an outer-only and an inner-only operand, the
//!   Cartesian-product-shaped nesting is replaced by [`Op::NestFromJoin`],
//!   which evaluates the comparison as a relational join with existential
//!   semantics (Section 4.2).  This detection is driven by the `indep`
//!   property (variable dependency analysis) and is therefore immune to
//!   syntactic variation of the join predicate.
//! * **Nametest pushdown** (Section 3.2) is a pure execution-time choice and
//!   lives in the executor; the compiler simply keeps the name test attached
//!   to the axis step.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use mxq_engine::agg::AggFunc;
use mxq_engine::{CmpOp, Item};
use mxq_staircase::{Axis, NodeTest};

use crate::algebra::{ConstItems, NumFnKind, Op, Plan, PlanRef, PosFilterKind, StrFnKind};
use crate::ast::*;
use crate::config::ExecConfig;
use crate::pul::{UpdateKind, UpdatePlan, UpdateStatementPlan, UpdateTarget};

/// Errors raised during compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Reference to a variable that is not in scope.
    UnknownVariable(String),
    /// Call to an unknown function.
    UnknownFunction(String),
    /// A construct outside the supported subset.
    Unsupported(String),
    /// User-defined function recursion exceeded the inlining depth limit.
    RecursionLimit(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnknownVariable(v) => write!(f, "unknown variable ${v}"),
            CompileError::UnknownFunction(n) => write!(f, "unknown function {n}()"),
            CompileError::Unsupported(m) => write!(f, "unsupported construct: {m}"),
            CompileError::RecursionLimit(n) => {
                write!(
                    f,
                    "recursive user function {n}() exceeds the inlining depth limit"
                )
            }
        }
    }
}

impl std::error::Error for CompileError {}

type CResult<T> = Result<T, CompileError>;

/// Compiled `order by` keys: one plan per key, paired with its descending
/// flag, major key first.
type OrderKeys = Vec<(PlanRef, bool)>;

/// The variable environment of one scope: the loop relation plus the plan of
/// every visible variable (all relative to that loop).
#[derive(Clone)]
struct Env {
    loop_: PlanRef,
    vars: HashMap<String, PlanRef>,
}

/// The compiler: holds the plan-node counter, the configuration and the
/// user-defined function table.
pub struct Compiler {
    next_id: usize,
    config: ExecConfig,
    functions: HashMap<String, FunctionDecl>,
    inline_depth: usize,
    externals: Vec<String>,
}

/// Maximum user-function inlining depth (recursion guard).
const MAX_INLINE_DEPTH: usize = 32;

impl Compiler {
    /// Create a compiler with the given configuration.
    pub fn new(config: ExecConfig) -> Self {
        Compiler {
            next_id: 0,
            config,
            functions: HashMap::new(),
            inline_depth: 0,
            externals: Vec::new(),
        }
    }

    /// Names of the external variables declared by the last compiled prolog
    /// (`declare variable $x external`), in declaration order.  Callers use
    /// this to validate bindings before execution.
    pub fn external_variables(&self) -> &[String] {
        &self.externals
    }

    /// Compile the prolog variable declarations into the environment.
    fn compile_prolog_vars(&mut self, vars: &[VarDecl], env: &mut Env) -> CResult<()> {
        for decl in vars {
            let plan = if decl.external {
                self.externals.push(decl.name.clone());
                let default = match &decl.init {
                    Some(e) => Some(self.compile(e, env)?),
                    None => None,
                };
                self.plan(Op::ExternalVar {
                    loop_: env.loop_.clone(),
                    name: decl.name.clone(),
                    default,
                })
            } else {
                let init = decl.init.as_ref().ok_or_else(|| {
                    CompileError::Unsupported(format!(
                        "variable ${} declared without a value",
                        decl.name
                    ))
                })?;
                self.compile(init, env)?
            };
            env.vars.insert(decl.name.clone(), plan);
        }
        Ok(())
    }

    /// Compile a full query (prolog + body) into a plan whose result is the
    /// `iter|pos|item` encoding of the query result (a single iteration).
    pub fn compile_query(&mut self, query: &Query) -> CResult<PlanRef> {
        for f in &query.functions {
            self.functions.insert(f.name.clone(), f.clone());
        }
        let loop_one = self.plan(Op::LoopOne);
        let mut env = Env {
            loop_: loop_one,
            vars: HashMap::new(),
        };
        self.compile_prolog_vars(&query.variables, &mut env)?;
        self.compile(&query.body, &env)
    }

    /// Compile an update query: prolog + updating statements.  Target and
    /// source expressions become ordinary value plans (evaluated in the
    /// singleton loop); the statement kinds stay symbolic so the engine can
    /// collect update primitives instead of a result sequence.
    pub fn compile_update(&mut self, query: &UpdateQuery) -> CResult<UpdatePlan> {
        for f in &query.functions {
            self.functions.insert(f.name.clone(), f.clone());
        }
        let loop_one = self.plan(Op::LoopOne);
        let mut env = Env {
            loop_: loop_one,
            vars: HashMap::new(),
        };
        self.compile_prolog_vars(&query.variables, &mut env)?;
        let mut statements = Vec::new();
        for stmt in &query.statements {
            statements.push(match stmt {
                UpdateStmt::Insert {
                    source,
                    location,
                    target,
                } => {
                    let kind = match location {
                        InsertLocation::FirstInto => UpdateKind::InsertInto { first: true },
                        InsertLocation::LastInto | InsertLocation::Into => {
                            UpdateKind::InsertInto { first: false }
                        }
                        InsertLocation::Before => UpdateKind::InsertBefore,
                        InsertLocation::After => UpdateKind::InsertAfter,
                    };
                    UpdateStatementPlan {
                        kind,
                        target: self.compile_update_target(target, &env, false)?,
                        source: Some(self.compile(source, &env)?),
                    }
                }
                UpdateStmt::Delete { target } => UpdateStatementPlan {
                    kind: UpdateKind::Delete,
                    target: self.compile_update_target(target, &env, true)?,
                    source: None,
                },
                UpdateStmt::ReplaceNode { target, source } => UpdateStatementPlan {
                    kind: UpdateKind::ReplaceNode,
                    target: self.compile_update_target(target, &env, false)?,
                    source: Some(self.compile(source, &env)?),
                },
                UpdateStmt::ReplaceValue { target, source } => UpdateStatementPlan {
                    kind: UpdateKind::ReplaceValue,
                    target: self.compile_update_target(target, &env, true)?,
                    source: Some(self.compile(source, &env)?),
                },
                UpdateStmt::Rename { target, new_name } => UpdateStatementPlan {
                    kind: UpdateKind::Rename,
                    target: self.compile_update_target(target, &env, true)?,
                    source: Some(self.compile(new_name, &env)?),
                },
            });
        }
        Ok(UpdatePlan { statements })
    }

    /// Compile an update target expression.  A path ending in an `@name`
    /// attribute step is split into the owning-element plan plus the
    /// attribute name (attributes are not first-class nodes in this engine),
    /// which is only legal for delete / replace value / rename.
    fn compile_update_target(
        &mut self,
        target: &Expr,
        env: &Env,
        allow_attr: bool,
    ) -> CResult<UpdateTarget> {
        if let Expr::Path { start, steps } = target {
            if let Some(last) = steps.last() {
                if last.axis == Axis::Attribute {
                    if !allow_attr {
                        return Err(CompileError::Unsupported(
                            "attribute targets are only supported for \
                             delete / replace value / rename"
                                .into(),
                        ));
                    }
                    let NodeTest::Named(name) = &last.test else {
                        return Err(CompileError::Unsupported(
                            "update targets need a named attribute (no @*)".into(),
                        ));
                    };
                    if !last.predicates.is_empty() {
                        return Err(CompileError::Unsupported(
                            "predicates on an attribute update target".into(),
                        ));
                    }
                    let elem = if steps.len() == 1 {
                        let start = start.as_ref().ok_or_else(|| {
                            CompileError::Unsupported("absolute update target path".into())
                        })?;
                        self.compile(start, env)?
                    } else {
                        let elem_expr = Expr::Path {
                            start: start.clone(),
                            steps: steps[..steps.len() - 1].to_vec(),
                        };
                        self.compile(&elem_expr, env)?
                    };
                    return Ok(UpdateTarget::Attribute {
                        elem,
                        name: name.to_string(),
                    });
                }
            }
        }
        Ok(UpdateTarget::Nodes(self.compile(target, env)?))
    }

    fn plan(&mut self, op: Op) -> PlanRef {
        let id = self.next_id;
        self.next_id += 1;
        Arc::new(Plan { id, op })
    }

    fn const_seq(&mut self, loop_: &PlanRef, items: Vec<Item>) -> PlanRef {
        self.plan(Op::ConstSeq {
            loop_: loop_.clone(),
            items: ConstItems::Inline(items),
        })
    }

    fn ebv(&mut self, seq: PlanRef, loop_: PlanRef) -> PlanRef {
        self.plan(Op::Ebv {
            seq,
            loop_,
            positions: None,
        })
    }

    // ---------------------------------------------------------------------
    // expressions
    // ---------------------------------------------------------------------

    fn compile(&mut self, expr: &Expr, env: &Env) -> CResult<PlanRef> {
        match expr {
            Expr::Literal(lit) => Ok(self.const_seq(&env.loop_, vec![lit.to_item()])),
            Expr::Param { slot, .. } => Ok(self.plan(Op::ConstSeq {
                loop_: env.loop_.clone(),
                items: ConstItems::Slot(*slot),
            })),
            Expr::Empty => Ok(self.const_seq(&env.loop_, vec![])),
            Expr::Var(name) => env
                .vars
                .get(name)
                .cloned()
                .ok_or_else(|| CompileError::UnknownVariable(name.clone())),
            Expr::Sequence(parts) => {
                let compiled: Vec<PlanRef> = parts
                    .iter()
                    .map(|p| self.compile(p, env))
                    .collect::<CResult<_>>()?;
                Ok(self.plan(Op::Union { parts: compiled }))
            }
            Expr::Flwor {
                clauses,
                where_,
                order_by,
                ret,
            } => {
                let (plan, _leftover_key) =
                    self.compile_clauses(clauses, where_.as_deref(), order_by.as_ref(), ret, env)?;
                Ok(plan)
            }
            Expr::If { cond, then, els } => self.compile_if(cond, then, els, env),
            Expr::Quantified {
                some,
                var,
                source,
                satisfies,
            } => self.compile_quantified(*some, var, source, satisfies, env),
            Expr::Arith { op, l, r } => {
                let l = self.compile(l, env)?;
                let r = self.compile(r, env)?;
                Ok(self.plan(Op::Arith { op: *op, l, r }))
            }
            Expr::Neg(e) => {
                let e = self.compile(e, env)?;
                Ok(self.plan(Op::Neg { e }))
            }
            Expr::Comparison { kind, l, r } => {
                let lp = self.compile(l, env)?;
                let rp = self.compile(r, env)?;
                match kind {
                    CompKind::General(op) => {
                        let lp = self.plan(Op::Atomize { seq: lp });
                        let rp = self.plan(Op::Atomize { seq: rp });
                        Ok(self.plan(Op::GeneralCmp {
                            op: *op,
                            l: lp,
                            r: rp,
                            loop_: env.loop_.clone(),
                        }))
                    }
                    CompKind::Value(op) => {
                        let lp = self.plan(Op::Atomize { seq: lp });
                        let rp = self.plan(Op::Atomize { seq: rp });
                        Ok(self.plan(Op::ValueCmp {
                            op: *op,
                            l: lp,
                            r: rp,
                        }))
                    }
                    CompKind::NodeBefore => Ok(self.plan(Op::ValueCmp {
                        op: CmpOp::Lt,
                        l: lp,
                        r: rp,
                    })),
                    CompKind::NodeAfter => Ok(self.plan(Op::ValueCmp {
                        op: CmpOp::Gt,
                        l: lp,
                        r: rp,
                    })),
                    CompKind::NodeIs => Ok(self.plan(Op::ValueCmp {
                        op: CmpOp::Eq,
                        l: lp,
                        r: rp,
                    })),
                }
            }
            Expr::Logical { is_and, l, r } => {
                let l = self.compile(l, env)?;
                let r = self.compile(r, env)?;
                let l = self.ebv(l, env.loop_.clone());
                let r = self.ebv(r, env.loop_.clone());
                Ok(self.plan(Op::BoolAndOr {
                    is_and: *is_and,
                    l,
                    r,
                    loop_: env.loop_.clone(),
                }))
            }
            Expr::Path { start, steps } => {
                let mut ctx = match start {
                    Some(s) => self.compile(s, env)?,
                    None => {
                        return Err(CompileError::Unsupported(
                            "absolute paths (use doc(\"…\") as the path root)".into(),
                        ))
                    }
                };
                for step in collapse_descendant_steps(steps) {
                    ctx = self.compile_step(ctx, &step, env)?;
                }
                Ok(ctx)
            }
            Expr::FunCall { name, args } => self.compile_funcall(name, args, env),
            Expr::Element(ctor) => self.compile_element(ctor, env),
        }
    }

    // ---------------------------------------------------------------------
    // FLWOR
    // ---------------------------------------------------------------------

    /// Compile the remaining clause list.  Returns the plan plus the
    /// optional order-by keys (each keyed by the iterations of the scope
    /// they were compiled in) that the innermost enclosing `for` clause must
    /// consume.
    fn compile_clauses(
        &mut self,
        clauses: &[Clause],
        where_: Option<&Expr>,
        order_by: Option<&OrderSpec>,
        ret: &Expr,
        env: &Env,
    ) -> CResult<(PlanRef, Option<OrderKeys>)> {
        match clauses.first() {
            None => {
                // innermost scope: apply where, compile the order key and the return clause
                let mut env = env.clone();
                if let Some(w) = where_ {
                    let cond = self.compile(w, &env)?;
                    let cond = self.ebv(cond, env.loop_.clone());
                    let iters = self.plan(Op::SelectIters {
                        cond,
                        loop_: env.loop_.clone(),
                        negate: false,
                    });
                    env = self.restrict_env(&env, &iters);
                }
                let order_keys = match order_by {
                    Some(spec) => Some(self.compile_order_keys(spec, &env)?),
                    None => None,
                };
                let body = self.compile(ret, &env)?;
                Ok((body, order_keys))
            }
            Some(Clause::Let { var, value }) => {
                let v = self.compile(value, env)?;
                let mut env2 = env.clone();
                env2.vars.insert(var.clone(), v);
                self.compile_clauses(&clauses[1..], where_, order_by, ret, &env2)
            }
            Some(Clause::For { var, at, source }) => {
                // Join recognition (Section 4.1): applicable when this is the
                // last clause, the source is independent of all in-scope
                // variables, and the where clause is a separable general
                // comparison.
                if self.config.join_recognition && clauses.len() == 1 {
                    if let Some(w) = where_ {
                        if let Some(plan) = self.try_compile_join(
                            var,
                            at.as_deref(),
                            source,
                            w,
                            order_by,
                            ret,
                            env,
                        )? {
                            return Ok((plan, None));
                        }
                    }
                }

                let q1 = self.compile(source, env)?;
                let nest = self.plan(Op::NestFromSeq { seq: q1 });
                let inner_loop = self.plan(Op::NestLoop { nest: nest.clone() });
                let mut inner_vars = HashMap::new();
                for (name, plan) in &env.vars {
                    inner_vars.insert(
                        name.clone(),
                        self.plan(Op::LiftThrough {
                            seq: plan.clone(),
                            nest: nest.clone(),
                        }),
                    );
                }
                inner_vars.insert(var.clone(), self.plan(Op::NestVar { nest: nest.clone() }));
                if let Some(at_var) = at {
                    inner_vars.insert(
                        at_var.clone(),
                        self.plan(Op::NestVarPos { nest: nest.clone() }),
                    );
                }
                let env_inner = Env {
                    loop_: inner_loop,
                    vars: inner_vars,
                };
                let remaining_has_for =
                    clauses[1..].iter().any(|c| matches!(c, Clause::For { .. }));
                let (body, order_keys) =
                    self.compile_clauses(&clauses[1..], where_, order_by, ret, &env_inner)?;
                // the innermost `for` consumes the order keys
                let (keys_here, pass_up) = if remaining_has_for {
                    (None, order_keys)
                } else {
                    (order_keys, None)
                };
                let plan = self.plan(Op::BackMap {
                    body,
                    nest,
                    order_keys: keys_here.unwrap_or_default(),
                });
                Ok((plan, pass_up))
            }
        }
    }

    /// Attempt the join-recognised compilation of
    /// `for $v in SOURCE where L op R return RET [order by …]`.
    /// Returns `Ok(None)` when the pattern does not apply.
    #[allow(clippy::too_many_arguments)]
    fn try_compile_join(
        &mut self,
        var: &str,
        at: Option<&str>,
        source: &Expr,
        where_: &Expr,
        order_by: Option<&OrderSpec>,
        ret: &Expr,
        env: &Env,
    ) -> CResult<Option<PlanRef>> {
        // the source must be independent of every in-scope variable (indep)
        let src_vars = source.free_vars();
        if src_vars.iter().any(|v| env.vars.contains_key(v)) {
            return Ok(None);
        }
        let Expr::Comparison {
            kind: CompKind::General(op),
            l,
            r,
        } = where_
        else {
            return Ok(None);
        };
        let lv = l.free_vars();
        let rv = r.free_vars();
        let uses_var = |vs: &[String]| vs.iter().any(|v| v == var);
        let only_var = |vs: &[String]| vs.iter().all(|v| v == var);
        let no_var = |vs: &[String]| !uses_var(vs);
        let in_scope = |vs: &[String]| vs.iter().all(|v| env.vars.contains_key(v));
        // decide which side belongs to the outer scope and which to $var
        let (outer_expr, var_expr, op) =
            if no_var(&lv) && in_scope(&lv) && uses_var(&rv) && only_var(&rv) {
                (l.as_ref(), r.as_ref(), *op)
            } else if no_var(&rv) && in_scope(&rv) && uses_var(&lv) && only_var(&lv) {
                (r.as_ref(), l.as_ref(), op.swap())
            } else {
                return Ok(None);
            };

        // SOURCE evaluated once, in the singleton loop
        let loop_one = self.plan(Op::LoopOne);
        let env_single = Env {
            loop_: loop_one,
            vars: HashMap::new(),
        };
        let source_single = self.compile(source, &env_single)?;

        // the $var-side operand, keyed by source row
        let src_nest = self.plan(Op::NestFromSeq {
            seq: source_single.clone(),
        });
        let src_loop = self.plan(Op::NestLoop {
            nest: src_nest.clone(),
        });
        let mut right_vars = HashMap::new();
        right_vars.insert(
            var.to_string(),
            self.plan(Op::NestVar {
                nest: src_nest.clone(),
            }),
        );
        let right_env = Env {
            loop_: src_loop,
            vars: right_vars,
        };
        let right = self.compile(var_expr, &right_env)?;
        let right = self.plan(Op::Atomize { seq: right });

        // the outer-side operand, keyed by the enclosing loop
        let left = self.compile(outer_expr, env)?;
        let left = self.plan(Op::Atomize { seq: left });

        let nest = self.plan(Op::NestFromJoin {
            source: source_single,
            outer_loop: env.loop_.clone(),
            left,
            right,
            op,
            dict_join: false,
        });

        // inner scope from the join-built nest, same as the standard case
        let inner_loop = self.plan(Op::NestLoop { nest: nest.clone() });
        let mut inner_vars = HashMap::new();
        for (name, plan) in &env.vars {
            inner_vars.insert(
                name.clone(),
                self.plan(Op::LiftThrough {
                    seq: plan.clone(),
                    nest: nest.clone(),
                }),
            );
        }
        inner_vars.insert(
            var.to_string(),
            self.plan(Op::NestVar { nest: nest.clone() }),
        );
        if let Some(at_var) = at {
            inner_vars.insert(
                at_var.to_string(),
                self.plan(Op::NestVarPos { nest: nest.clone() }),
            );
        }
        let env_inner = Env {
            loop_: inner_loop,
            vars: inner_vars,
        };
        let order_keys = match order_by {
            Some(spec) => self.compile_order_keys(spec, &env_inner)?,
            None => Vec::new(),
        };
        let body = self.compile(ret, &env_inner)?;
        Ok(Some(self.plan(Op::BackMap {
            body,
            nest,
            order_keys,
        })))
    }

    /// Compile every key of an `order by` clause in the given scope; each
    /// key is atomised so ordering compares values, not nodes.
    fn compile_order_keys(&mut self, spec: &OrderSpec, env: &Env) -> CResult<OrderKeys> {
        spec.keys
            .iter()
            .map(|k| {
                let key = self.compile(&k.key, env)?;
                let key = self.plan(Op::Atomize { seq: key });
                Ok((key, k.descending))
            })
            .collect()
    }

    fn restrict_env(&mut self, env: &Env, iters: &PlanRef) -> Env {
        let mut vars = HashMap::new();
        for (name, plan) in &env.vars {
            vars.insert(
                name.clone(),
                self.plan(Op::RestrictToIters {
                    seq: plan.clone(),
                    iters: iters.clone(),
                }),
            );
        }
        Env {
            loop_: iters.clone(),
            vars,
        }
    }

    fn compile_if(&mut self, cond: &Expr, then: &Expr, els: &Expr, env: &Env) -> CResult<PlanRef> {
        let c = self.compile(cond, env)?;
        let c = self.ebv(c, env.loop_.clone());
        let then_iters = self.plan(Op::SelectIters {
            cond: c.clone(),
            loop_: env.loop_.clone(),
            negate: false,
        });
        let else_iters = self.plan(Op::SelectIters {
            cond: c,
            loop_: env.loop_.clone(),
            negate: true,
        });
        let env_then = self.restrict_env(env, &then_iters);
        let env_else = self.restrict_env(env, &else_iters);
        let t = self.compile(then, &env_then)?;
        let e = self.compile(els, &env_else)?;
        Ok(self.plan(Op::Union { parts: vec![t, e] }))
    }

    fn compile_quantified(
        &mut self,
        some: bool,
        var: &str,
        source: &Expr,
        satisfies: &Expr,
        env: &Env,
    ) -> CResult<PlanRef> {
        // some $v in S satisfies P  ≡  exists(for $v in S where P return 1)
        // every $v in S satisfies P ≡  not(some $v in S satisfies not(P))
        let inner_pred = if some {
            satisfies.clone()
        } else {
            Expr::FunCall {
                name: "not".into(),
                args: vec![satisfies.clone()],
            }
        };
        let flwor = Expr::Flwor {
            clauses: vec![Clause::For {
                var: var.to_string(),
                at: None,
                source: source.clone(),
            }],
            where_: Some(Box::new(inner_pred)),
            order_by: None,
            ret: Box::new(Expr::integer(1)),
        };
        let seq = self.compile(&flwor, env)?;
        let exists = self.ebv(seq, env.loop_.clone());
        if some {
            Ok(exists)
        } else {
            Ok(self.plan(Op::BoolNot {
                e: exists,
                loop_: env.loop_.clone(),
            }))
        }
    }

    // ---------------------------------------------------------------------
    // path steps
    // ---------------------------------------------------------------------

    fn compile_step(&mut self, ctx: PlanRef, step: &Step, env: &Env) -> CResult<PlanRef> {
        // Filter expressions (`expr[pred]`) reach us as a synthetic
        // `self::node()` step.  Their predicates filter the *sequence
        // itself*: positions are relative to the whole sequence per
        // iteration, not to a per-context-node group, and the result keeps
        // the sequence order (no document re-ordering, no duplicate
        // elimination — the input may not even hold nodes).
        if step.axis == Axis::SelfAxis
            && step.test == NodeTest::AnyKind
            && !step.predicates.is_empty()
        {
            let mut result = ctx;
            for pred in &step.predicates {
                result = self.compile_predicate(result, pred, env)?;
            }
            return Ok(result);
        }

        // the raw step (axis + node test)
        let apply_axis = |c: &mut Self, ctx: PlanRef| -> PlanRef {
            if step.axis == Axis::Attribute {
                let name = match &step.test {
                    NodeTest::Named(n) => Some(n.to_string()),
                    _ => None,
                };
                c.plan(Op::AttrStep { ctx, name })
            } else {
                c.plan(Op::AxisStep {
                    ctx,
                    axis: step.axis,
                    test: step.test.clone(),
                })
            }
        };

        if step.predicates.is_empty() {
            return Ok(apply_axis(self, ctx));
        }

        // Steps with predicates: open a nested scope per *context node* so
        // that positional predicates are relative to the correct sibling
        // group (this is the XQuery Core normalisation of path steps).
        let nest = self.plan(Op::NestFromSeq { seq: ctx });
        let inner_loop = self.plan(Op::NestLoop { nest: nest.clone() });
        let dot = self.plan(Op::NestVar { nest: nest.clone() });
        let mut inner_vars: HashMap<String, PlanRef> = HashMap::new();
        for (name, plan) in &env.vars {
            inner_vars.insert(
                name.clone(),
                self.plan(Op::LiftThrough {
                    seq: plan.clone(),
                    nest: nest.clone(),
                }),
            );
        }
        inner_vars.insert(".".to_string(), dot.clone());
        let mut env_inner = Env {
            loop_: inner_loop,
            vars: inner_vars,
        };

        let mut result = apply_axis(self, dot);
        for pred in &step.predicates {
            result = self.compile_predicate(result, pred, &env_inner)?;
            // subsequent predicates see the filtered sequence; the loop stays
            env_inner.vars.insert("__step".into(), result.clone());
        }

        let mapped = self.plan(Op::BackMap {
            body: result,
            nest,
            order_keys: Vec::new(),
        });
        // restore document order / duplicate freedom per original iteration
        Ok(self.plan(Op::DocOrderDistinct { seq: mapped }))
    }

    /// Apply one predicate to a step result inside its per-context-node scope.
    fn compile_predicate(&mut self, seq: PlanRef, pred: &Expr, env: &Env) -> CResult<PlanRef> {
        // positional forms
        if let Some(kind) = positional_form(pred) {
            return Ok(self.plan(Op::PosFilter { seq, kind }));
        }
        // general boolean predicate: one more nesting, per candidate node
        let nest = self.plan(Op::NestFromSeq { seq });
        let inner_loop = self.plan(Op::NestLoop { nest: nest.clone() });
        let dot = self.plan(Op::NestVar { nest: nest.clone() });
        let mut vars = HashMap::new();
        for (name, plan) in &env.vars {
            vars.insert(
                name.clone(),
                self.plan(Op::LiftThrough {
                    seq: plan.clone(),
                    nest: nest.clone(),
                }),
            );
        }
        vars.insert(".".into(), dot);
        let env_pred = Env {
            loop_: inner_loop.clone(),
            vars,
        };
        let cond = self.compile(pred, &env_pred)?;
        // a predicate value that is one number selects by context position
        // (`$seq[$i]`, `b[1 + 1]`, `b[2.0]`), any other value by its EBV
        let positions =
            may_be_numeric(pred).then(|| self.plan(Op::NestVarPos { nest: nest.clone() }));
        let cond = self.plan(Op::Ebv {
            seq: cond,
            loop_: inner_loop,
            positions,
        });
        let cand_loop = self.plan_nestloop(&nest);
        let keep = self.plan(Op::SelectIters {
            cond,
            loop_: cand_loop,
            negate: false,
        });
        let kept_var = self.plan(Op::NestVar { nest: nest.clone() });
        let restricted = self.plan(Op::RestrictToIters {
            seq: kept_var,
            iters: keep,
        });
        // map the surviving candidates back to the per-context-node scope
        Ok(self.plan(Op::BackMap {
            body: restricted,
            nest,
            order_keys: Vec::new(),
        }))
    }

    fn plan_nestloop(&mut self, nest: &PlanRef) -> PlanRef {
        self.plan(Op::NestLoop { nest: nest.clone() })
    }

    // ---------------------------------------------------------------------
    // functions
    // ---------------------------------------------------------------------

    fn compile_funcall(&mut self, name: &str, args: &[Expr], env: &Env) -> CResult<PlanRef> {
        let agg = |f: AggFunc| -> Option<AggFunc> { Some(f) };
        if is_doc_call(name) {
            let Some(Expr::Literal(Literal::String(doc_name))) = args.first() else {
                return Err(CompileError::Unsupported(
                    "doc() requires a string literal argument".into(),
                ));
            };
            return Ok(self.plan(Op::DocRoot {
                loop_: env.loop_.clone(),
                name: doc_name.clone(),
            }));
        }
        match name {
            "count" | "sum" | "avg" | "min" | "max" => {
                let func = match name {
                    "count" => agg(AggFunc::Count),
                    "sum" => agg(AggFunc::Sum),
                    "avg" => agg(AggFunc::Avg),
                    "min" => agg(AggFunc::Min),
                    _ => agg(AggFunc::Max),
                }
                .unwrap();
                let seq = self.compile_arg(args, 0, env)?;
                let seq = if func == AggFunc::Count {
                    seq
                } else {
                    let atom = self.plan(Op::Atomize { seq });
                    self.plan(Op::CastNumber { seq: atom })
                };
                Ok(self.plan(Op::Aggregate {
                    func,
                    seq,
                    loop_: env.loop_.clone(),
                }))
            }
            "exists" => {
                let seq = self.compile_arg(args, 0, env)?;
                Ok(self.ebv(seq, env.loop_.clone()))
            }
            "empty" => {
                let seq = self.compile_arg(args, 0, env)?;
                Ok(self.plan(Op::Empty {
                    seq,
                    loop_: env.loop_.clone(),
                }))
            }
            "not" => {
                let seq = self.compile_arg(args, 0, env)?;
                Ok(self.plan(Op::BoolNot {
                    e: seq,
                    loop_: env.loop_.clone(),
                }))
            }
            "boolean" => {
                let seq = self.compile_arg(args, 0, env)?;
                Ok(self.ebv(seq, env.loop_.clone()))
            }
            "true" => Ok(self.const_seq(&env.loop_, vec![Item::Bool(true)])),
            "false" => Ok(self.const_seq(&env.loop_, vec![Item::Bool(false)])),
            "zero-or-one" | "exactly-one" | "one-or-more" => self.compile_arg(args, 0, env),
            "data" => {
                let seq = self.compile_arg(args, 0, env)?;
                Ok(self.plan(Op::Atomize { seq }))
            }
            "string" => {
                let seq = self.compile_arg(args, 0, env)?;
                Ok(self.plan(Op::StringValue {
                    seq,
                    loop_: env.loop_.clone(),
                }))
            }
            "number" => {
                let seq = self.compile_arg(args, 0, env)?;
                let seq = self.plan(Op::Atomize { seq });
                Ok(self.plan(Op::CastNumber { seq }))
            }
            "distinct-values" => {
                let seq = self.compile_arg(args, 0, env)?;
                let seq = self.plan(Op::Atomize { seq });
                Ok(self.plan(Op::DistinctValues { seq }))
            }
            "contains" | "starts-with" | "ends-with" | "concat" | "string-length" | "substring"
            | "string-join" | "upper-case" | "lower-case" | "normalize-space" | "name"
            | "local-name" | "translate" => {
                let kind = match name {
                    "contains" => StrFnKind::Contains,
                    "starts-with" => StrFnKind::StartsWith,
                    "ends-with" => StrFnKind::EndsWith,
                    "concat" => StrFnKind::Concat,
                    "string-length" => StrFnKind::StringLength,
                    "substring" => StrFnKind::Substring,
                    "string-join" => StrFnKind::StringJoin,
                    "upper-case" => StrFnKind::UpperCase,
                    "lower-case" => StrFnKind::LowerCase,
                    "normalize-space" => StrFnKind::NormalizeSpace,
                    "translate" => StrFnKind::Translate,
                    _ => StrFnKind::NodeName,
                };
                let compiled: Vec<PlanRef> = args
                    .iter()
                    .map(|a| self.compile(a, env))
                    .collect::<CResult<_>>()?;
                Ok(self.plan(Op::StringFn {
                    kind,
                    args: compiled,
                    loop_: env.loop_.clone(),
                }))
            }
            "round" | "floor" | "ceiling" | "abs" => {
                let kind = match name {
                    "round" => NumFnKind::Round,
                    "floor" => NumFnKind::Floor,
                    "ceiling" => NumFnKind::Ceiling,
                    _ => NumFnKind::Abs,
                };
                let arg = self.compile_arg(args, 0, env)?;
                let arg = self.plan(Op::Atomize { seq: arg });
                let arg = self.plan(Op::CastNumber { seq: arg });
                Ok(self.plan(Op::NumFn { kind, arg }))
            }
            "subsequence" => {
                let seq = self.compile_arg(args, 0, env)?;
                let start = const_int(args.get(1)).ok_or_else(|| {
                    CompileError::Unsupported("subsequence() requires literal bounds".into())
                })?;
                let len = match args.get(2) {
                    None => None,
                    Some(a) => Some(const_int(Some(a)).ok_or_else(|| {
                        CompileError::Unsupported("subsequence() requires literal bounds".into())
                    })?),
                };
                Ok(self.plan(Op::Subsequence { seq, start, len }))
            }
            "position" | "last" => Err(CompileError::Unsupported(format!(
                "{name}() is only supported inside step predicates"
            ))),
            _ => {
                // user-defined function: inline expansion
                let Some(decl) = self.functions.get(name).cloned() else {
                    return Err(CompileError::UnknownFunction(name.to_string()));
                };
                if decl.params.len() != args.len() {
                    return Err(CompileError::Unsupported(format!(
                        "{name}() expects {} arguments, got {}",
                        decl.params.len(),
                        args.len()
                    )));
                }
                if self.inline_depth >= MAX_INLINE_DEPTH {
                    return Err(CompileError::RecursionLimit(name.to_string()));
                }
                self.inline_depth += 1;
                let mut env2 = env.clone();
                for (param, arg) in decl.params.iter().zip(args) {
                    let v = self.compile(arg, env)?;
                    env2.vars.insert(param.clone(), v);
                }
                let result = self.compile(&decl.body, &env2);
                self.inline_depth -= 1;
                result
            }
        }
    }

    fn compile_arg(&mut self, args: &[Expr], idx: usize, env: &Env) -> CResult<PlanRef> {
        match args.get(idx) {
            Some(a) => self.compile(a, env),
            None => Ok(self.const_seq(&env.loop_, vec![])),
        }
    }

    // ---------------------------------------------------------------------
    // element construction
    // ---------------------------------------------------------------------

    fn compile_element(&mut self, ctor: &ElementCtor, env: &Env) -> CResult<PlanRef> {
        let mut attrs = Vec::new();
        for (name, parts) in &ctor.attributes {
            let value = self.compile_attr_value(parts, env)?;
            attrs.push((name.clone(), value));
        }
        let mut content = Vec::new();
        for c in &ctor.content {
            let plan = match c {
                Content::Text(t) => self.const_seq(&env.loop_, vec![Item::str(t.as_str())]),
                Content::Expr(e) => self.compile(e, env)?,
                Content::Element(e) => self.compile_element(e, env)?,
            };
            content.push(plan);
        }
        Ok(self.plan(Op::ElemCtor {
            loop_: env.loop_.clone(),
            name: ctor.name.clone(),
            attrs,
            content,
        }))
    }

    fn compile_attr_value(&mut self, parts: &[AttrPart], env: &Env) -> CResult<PlanRef> {
        let compiled: Vec<PlanRef> = parts
            .iter()
            .map(|p| match p {
                AttrPart::Text(t) => Ok(self.const_seq(&env.loop_, vec![Item::str(t.as_str())])),
                AttrPart::Expr(e) => {
                    let plan = self.compile(e, env)?;
                    Ok(self.plan(Op::StringValue {
                        seq: plan,
                        loop_: env.loop_.clone(),
                    }))
                }
            })
            .collect::<CResult<_>>()?;
        if compiled.len() == 1 {
            let only = compiled.into_iter().next().unwrap();
            Ok(self.plan(Op::StringValue {
                seq: only,
                loop_: env.loop_.clone(),
            }))
        } else {
            Ok(self.plan(Op::StringFn {
                kind: StrFnKind::Concat,
                args: compiled,
                loop_: env.loop_.clone(),
            }))
        }
    }
}

/// Peephole path rewrite: `descendant-or-self::node()/child::T` (the
/// expansion of `//T`) collapses into a single `descendant::T` step when no
/// predicates are involved — the same plan the Pathfinder compiler emits,
/// and the shape the nametest pushdown of Section 3.2 accelerates.
fn collapse_descendant_steps(steps: &[Step]) -> Vec<Step> {
    let mut out: Vec<Step> = Vec::with_capacity(steps.len());
    let mut i = 0;
    while i < steps.len() {
        let s = &steps[i];
        let is_dos_node = s.axis == Axis::DescendantOrSelf
            && s.test == NodeTest::AnyKind
            && s.predicates.is_empty();
        if is_dos_node && i + 1 < steps.len() {
            let next = &steps[i + 1];
            if next.axis == Axis::Child && next.predicates.is_empty() {
                out.push(Step {
                    axis: Axis::Descendant,
                    test: next.test.clone(),
                    predicates: Vec::new(),
                });
                i += 2;
                continue;
            }
        }
        out.push(s.clone());
        i += 1;
    }
    out
}

/// Detect positional predicate forms: `[N]`, `[last()]`, `[position() = N]`.
fn positional_form(pred: &Expr) -> Option<PosFilterKind> {
    match pred {
        Expr::Literal(Literal::Integer(n)) => Some(PosFilterKind::Eq(*n)),
        Expr::FunCall { name, args } if name == "last" && args.is_empty() => {
            Some(PosFilterKind::Last)
        }
        Expr::Comparison {
            kind: CompKind::General(CmpOp::Eq) | CompKind::Value(CmpOp::Eq),
            l,
            r,
        } => {
            let is_position = |e: &Expr| matches!(e, Expr::FunCall { name, args } if name == "position" && args.is_empty());
            let is_last = |e: &Expr| matches!(e, Expr::FunCall { name, args } if name == "last" && args.is_empty());
            if is_position(l) {
                if let Expr::Literal(Literal::Integer(n)) = r.as_ref() {
                    return Some(PosFilterKind::Eq(*n));
                }
                if is_last(r) {
                    return Some(PosFilterKind::Last);
                }
            }
            None
        }
        _ => None,
    }
}

fn const_int(e: Option<&Expr>) -> Option<i64> {
    match e {
        Some(Expr::Literal(Literal::Integer(n))) => Some(*n),
        _ => None,
    }
}

/// `fn:doc` and its aliases, whose argument must be a string literal: the
/// document name is compiled into the plan.
fn is_doc_call(name: &str) -> bool {
    matches!(name, "doc" | "document" | "fn:doc")
}

/// Can a general (non-positional-form) predicate evaluate to a number?
/// Comparisons, connectives, quantifiers, boolean functions, constructors,
/// strings and location paths cannot; those keep the plain EBV plan.
fn may_be_numeric(pred: &Expr) -> bool {
    match pred {
        Expr::Comparison { .. }
        | Expr::Logical { .. }
        | Expr::Quantified { .. }
        | Expr::Element(_)
        | Expr::Empty => false,
        Expr::Literal(lit) => lit.kind() != LiteralKind::String,
        Expr::Param { kind, .. } => *kind != LiteralKind::String,
        Expr::FunCall { name, .. } => !matches!(
            name.as_str(),
            "not"
                | "exists"
                | "empty"
                | "boolean"
                | "true"
                | "false"
                | "contains"
                | "starts-with"
                | "ends-with"
        ),
        // a location path yields nodes (or attribute strings) unless its
        // last step is a filter over an arbitrary sequence
        Expr::Path { steps, .. } => steps.last().is_some_and(|s| {
            s.axis == Axis::SelfAxis && s.test == NodeTest::AnyKind && !s.predicates.is_empty()
        }),
        _ => true,
    }
}

// ---------------------------------------------------------------------------
// literal lifting: the statement shape the plan cache is keyed by
// ---------------------------------------------------------------------------

/// Lift every literal the compiler does not consume structurally out of a
/// parsed statement into numbered parameter slots ([`Expr::Param`], which
/// keeps the literal's type) and return the lifted values by slot.
///
/// What remains is the statement's *shape*: texts that differ only in
/// lifted constants lift to equal statements, compile to one plan, and each
/// execution runs that plan with its own values.  The literals the compiler
/// consumes structurally stay inline — and so in the shape — decided by the
/// compiler's own rules: the `doc()` argument (`is_doc_call`), positional
/// predicates `[N]` / `[position() = N]` (`positional_form`) and
/// `subsequence` bounds (`const_int`).  Text inside a direct element
/// constructor is not a literal and stays too.
pub fn lift_literals(stmt: &mut Statement) -> Vec<Item> {
    let mut lifted = Vec::new();
    let (functions, variables) = match stmt {
        Statement::Query(q) => {
            lift(&mut q.body, &mut lifted);
            (&mut q.functions, &mut q.variables)
        }
        Statement::Update(u) => {
            for s in &mut u.statements {
                match s {
                    UpdateStmt::Insert { source, target, .. }
                    | UpdateStmt::ReplaceNode { target, source }
                    | UpdateStmt::ReplaceValue { target, source }
                    | UpdateStmt::Rename {
                        target,
                        new_name: source,
                    } => {
                        lift(target, &mut lifted);
                        lift(source, &mut lifted);
                    }
                    UpdateStmt::Delete { target } => lift(target, &mut lifted),
                }
            }
            (&mut u.functions, &mut u.variables)
        }
    };
    for f in functions {
        lift(&mut f.body, &mut lifted);
    }
    for v in variables.iter_mut().filter_map(|v| v.init.as_mut()) {
        lift(v, &mut lifted);
    }
    lifted
}

fn lift(e: &mut Expr, out: &mut Vec<Item>) {
    match e {
        Expr::Literal(lit) => {
            let kind = lit.kind();
            out.push(lit.to_item());
            *e = Expr::Param {
                slot: out.len() - 1,
                kind,
            };
        }
        Expr::Param { .. } | Expr::Empty | Expr::Var(_) => {}
        Expr::Sequence(parts) => parts.iter_mut().for_each(|p| lift(p, out)),
        Expr::Flwor {
            clauses,
            where_,
            order_by,
            ret,
        } => {
            for c in clauses {
                match c {
                    Clause::For { source, .. } => lift(source, out),
                    Clause::Let { value, .. } => lift(value, out),
                }
            }
            if let Some(w) = where_ {
                lift(w, out);
            }
            for k in order_by.iter_mut().flat_map(|o| &mut o.keys) {
                lift(&mut k.key, out);
            }
            lift(ret, out);
        }
        Expr::If { cond, then, els } => {
            lift(cond, out);
            lift(then, out);
            lift(els, out);
        }
        Expr::Quantified {
            source, satisfies, ..
        } => {
            lift(source, out);
            lift(satisfies, out);
        }
        Expr::Arith { l, r, .. } | Expr::Comparison { l, r, .. } | Expr::Logical { l, r, .. } => {
            lift(l, out);
            lift(r, out);
        }
        Expr::Neg(e) => lift(e, out),
        Expr::Path { start, steps } => {
            if let Some(s) = start {
                lift(s, out);
            }
            for p in steps.iter_mut().flat_map(|s| &mut s.predicates) {
                if positional_form(p).is_none() {
                    lift(p, out);
                }
            }
        }
        Expr::FunCall { name, args } => {
            if is_doc_call(name) {
                return;
            }
            let bounds = if name == "subsequence" { 1 } else { args.len() };
            for (i, a) in args.iter_mut().enumerate() {
                if i < bounds || const_int(Some(a)).is_none() {
                    lift(a, out);
                }
            }
        }
        Expr::Element(ctor) => lift_element(ctor, out),
    }
}

fn lift_element(ctor: &mut ElementCtor, out: &mut Vec<Item>) {
    for part in ctor.attributes.iter_mut().flat_map(|(_, parts)| parts) {
        if let AttrPart::Expr(e) = part {
            lift(e, out);
        }
    }
    for c in &mut ctor.content {
        match c {
            Content::Text(_) => {}
            Content::Expr(e) => lift(e, out),
            Content::Element(e) => lift_element(e, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn compile_str(q: &str, cfg: ExecConfig) -> CResult<PlanRef> {
        let query = parse_query(q).expect("parse");
        Compiler::new(cfg).compile_query(&query)
    }

    #[test]
    fn compiles_simple_flwor() {
        let plan = compile_str(
            "for $v in (3, 4, 5, 6) return if ($v mod 2 = 0) then \"even\" else \"odd\"",
            ExecConfig::default(),
        )
        .unwrap();
        assert!(plan.operator_count() > 5);
        let dump = plan.explain();
        assert!(dump.contains("backmap"));
        assert!(dump.contains("σ-iters"));
    }

    #[test]
    fn unknown_variable_is_an_error() {
        let err = compile_str("$nope", ExecConfig::default()).unwrap_err();
        assert_eq!(err, CompileError::UnknownVariable("nope".into()));
    }

    #[test]
    fn unknown_function_is_an_error() {
        let err = compile_str("frobnicate(1)", ExecConfig::default()).unwrap_err();
        assert!(matches!(err, CompileError::UnknownFunction(_)));
    }

    #[test]
    fn join_recognition_changes_plan_shape() {
        let q = "for $p in doc(\"a.xml\")//person \
                 return count(for $t in doc(\"a.xml\")//auction \
                              where $t/buyer = $p/id return $t)";
        let with = compile_str(q, ExecConfig::default()).unwrap();
        let without = compile_str(
            q,
            ExecConfig {
                join_recognition: false,
                ..ExecConfig::default()
            },
        )
        .unwrap();
        assert!(
            with.explain().contains("nest(⋈)"),
            "join-recognised plan uses NestFromJoin"
        );
        assert!(!without.explain().contains("nest(⋈)"));
    }

    #[test]
    fn positional_predicates_detected() {
        assert_eq!(
            positional_form(&Expr::integer(2)),
            Some(PosFilterKind::Eq(2))
        );
        assert_eq!(
            positional_form(&Expr::FunCall {
                name: "last".into(),
                args: vec![]
            }),
            Some(PosFilterKind::Last)
        );
        assert_eq!(positional_form(&Expr::string("x")), None);
    }

    #[test]
    fn user_function_inlining_and_recursion_guard() {
        let ok = compile_str(
            "declare function local:f($x) { $x * 2 }; local:f(21)",
            ExecConfig::default(),
        );
        assert!(ok.is_ok());
        let rec = compile_str(
            "declare function local:f($x) { local:f($x) }; local:f(1)",
            ExecConfig::default(),
        );
        assert!(matches!(rec.unwrap_err(), CompileError::RecursionLimit(_)));
    }

    #[test]
    fn plan_operator_counts_are_substantial() {
        // the paper reports ~86 operators on average for XMark; even a modest
        // query with a join and constructors compiles to a few dozen
        let q = "for $p in doc(\"a.xml\")//person \
                 return <item name=\"{$p/name/text()}\">{count($p/watch)}</item>";
        let plan = compile_str(q, ExecConfig::default()).unwrap();
        assert!(plan.operator_count() >= 12, "got {}", plan.operator_count());
    }
}
