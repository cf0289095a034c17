//! Abstract syntax of the XQuery subset accepted by the compiler.
//!
//! The subset is the language exercised by the XMark benchmark (Q1–Q20) plus
//! the usual small extras: FLWOR expressions with multiple `for`/`let`
//! clauses, `where`, multi-key `order by` (each key with its own
//! ascending/descending direction) and positional (`at`) variables;
//! path expressions over all XPath axes with name/kind tests and predicates
//! (boolean and positional); direct element constructors with enclosed
//! expressions; arithmetic, value and general comparisons; node order
//! comparison (`<<`, `>>`); quantified expressions; conditional expressions;
//! the built-in function library (see `compile::Compiler`); and user-defined
//! functions declared in the query prolog (expanded inline).
//!
//! Every AST type is `Eq + Hash`: a statement whose literals were lifted
//! into parameter slots ([`crate::compile::lift_literals`]) is the key of
//! the database plan cache.

use std::fmt;
use std::hash::{Hash, Hasher};

use mxq_engine::Item;
use mxq_staircase::{Axis, NodeTest};

/// A literal value.  Equality and hashing compare doubles bitwise (like
/// the plan analysis' constant columns), so `NaN` equals itself and `0.0`
/// differs from `-0.0` — two texts share a plan only if their structural
/// literals are the same bits.
#[derive(Debug, Clone)]
pub enum Literal {
    /// `xs:integer` literal.
    Integer(i64),
    /// `xs:decimal` / `xs:double` literal.
    Double(f64),
    /// String literal.
    String(String),
}

impl Literal {
    /// The literal's type.
    pub fn kind(&self) -> LiteralKind {
        match self {
            Literal::Integer(_) => LiteralKind::Integer,
            Literal::Double(_) => LiteralKind::Double,
            Literal::String(_) => LiteralKind::String,
        }
    }

    /// The literal as an item.
    pub fn to_item(&self) -> Item {
        match self {
            Literal::Integer(i) => Item::Int(*i),
            Literal::Double(d) => Item::Dbl(*d),
            Literal::String(s) => Item::str(s.as_str()),
        }
    }
}

impl PartialEq for Literal {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Literal::Integer(a), Literal::Integer(b)) => a == b,
            (Literal::Double(a), Literal::Double(b)) => a.to_bits() == b.to_bits(),
            (Literal::String(a), Literal::String(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Literal {}

impl Hash for Literal {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Literal::Integer(i) => i.hash(state),
            Literal::Double(d) => d.to_bits().hash(state),
            Literal::String(s) => s.hash(state),
        }
    }
}

/// The type of a literal, kept by the parameter slot it is lifted into:
/// `5`, `5.0` and `"5"` are three statement shapes, not one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LiteralKind {
    /// `xs:integer`.
    Integer,
    /// `xs:decimal` / `xs:double`.
    Double,
    /// String.
    String,
}

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `div`
    Div,
    /// `idiv`
    IDiv,
    /// `mod`
    Mod,
}

/// Comparison operators as written in the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompKind {
    /// General comparisons `=`, `!=`, `<`, `<=`, `>`, `>=` (existential).
    General(mxq_engine::CmpOp),
    /// Value comparisons `eq`, `ne`, `lt`, `le`, `gt`, `ge`.
    Value(mxq_engine::CmpOp),
    /// Node order `<<` / `>>` and identity `is`.
    NodeBefore,
    /// `>>`
    NodeAfter,
    /// `is`
    NodeIs,
}

/// One step of a path expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Step {
    /// The axis.
    pub axis: Axis,
    /// The node test.
    pub test: NodeTest,
    /// Predicates applied to the step result, in order.
    pub predicates: Vec<Expr>,
}

/// One clause of a FLWOR expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Clause {
    /// `for $var [at $pos] in expr`
    For {
        /// Bound variable name (without `$`).
        var: String,
        /// Optional positional variable.
        at: Option<String>,
        /// The binding sequence.
        source: Expr,
    },
    /// `let $var := expr`
    Let {
        /// Bound variable name (without `$`).
        var: String,
        /// The bound expression.
        value: Expr,
    },
}

/// One key of an `order by` clause.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OrderKey {
    /// The key expression (evaluated once per tuple of the FLWOR stream).
    pub key: Box<Expr>,
    /// Descending order?
    pub descending: bool,
}

/// An `order by` specification: one or more keys, compared left to right
/// (major key first), each with its own direction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OrderSpec {
    /// The sort keys in source order.
    pub keys: Vec<OrderKey>,
}

/// Attribute of a direct element constructor: a list of fixed and computed
/// parts (the computed parts are enclosed expressions).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AttrPart {
    /// Literal text.
    Text(String),
    /// `{ expr }`.
    Expr(Expr),
}

/// Content item of a direct element constructor.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Content {
    /// Literal text between tags.
    Text(String),
    /// An enclosed expression `{ expr }`.
    Expr(Expr),
    /// A nested direct constructor.
    Element(Box<ElementCtor>),
}

/// A direct element constructor.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ElementCtor {
    /// Element name.
    pub name: String,
    /// Attributes (name, value template).
    pub attributes: Vec<(String, Vec<AttrPart>)>,
    /// Children content.
    pub content: Vec<Content>,
}

/// An XQuery expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A literal.
    Literal(Literal),
    /// A literal lifted out of the statement into parameter slot `slot`
    /// ([`crate::compile::lift_literals`]); its value travels with each
    /// execution, its type stays in the statement's shape.
    Param {
        /// Index into the statement's lifted-literal vector.
        slot: usize,
        /// Type of the lifted literal.
        kind: LiteralKind,
    },
    /// The empty sequence `()`.
    Empty,
    /// A variable reference `$name`.
    Var(String),
    /// A comma sequence `(e1, e2, …)`.
    Sequence(Vec<Expr>),
    /// FLWOR expression.
    Flwor {
        /// for/let clauses in source order.
        clauses: Vec<Clause>,
        /// Optional where clause.
        where_: Option<Box<Expr>>,
        /// Optional order-by clause.
        order_by: Option<OrderSpec>,
        /// The return expression.
        ret: Box<Expr>,
    },
    /// `if (cond) then e1 else e2`.
    If {
        /// Condition (effective boolean value).
        cond: Box<Expr>,
        /// Then branch.
        then: Box<Expr>,
        /// Else branch.
        els: Box<Expr>,
    },
    /// `some/every $v in e satisfies e`.
    Quantified {
        /// True for `some`, false for `every`.
        some: bool,
        /// Bound variable.
        var: String,
        /// Binding sequence.
        source: Box<Expr>,
        /// The condition.
        satisfies: Box<Expr>,
    },
    /// Binary arithmetic.
    Arith {
        /// Operator.
        op: ArithOp,
        /// Left operand.
        l: Box<Expr>,
        /// Right operand.
        r: Box<Expr>,
    },
    /// Unary minus.
    Neg(Box<Expr>),
    /// Comparison (general, value or node order).
    Comparison {
        /// Kind of comparison.
        kind: CompKind,
        /// Left operand.
        l: Box<Expr>,
        /// Right operand.
        r: Box<Expr>,
    },
    /// `and` / `or`.
    Logical {
        /// True for `and`, false for `or`.
        is_and: bool,
        /// Left operand.
        l: Box<Expr>,
        /// Right operand.
        r: Box<Expr>,
    },
    /// A path expression: steps applied to a start expression.  A `start` of
    /// `None` denotes the root of the context document (`/step/…`).
    Path {
        /// The expression producing the initial context sequence.
        start: Option<Box<Expr>>,
        /// The location steps.
        steps: Vec<Step>,
    },
    /// Function call (built-in or user defined, resolved during compilation).
    FunCall {
        /// Function name (prefix stripped: `fn:count` → `count`).
        name: String,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// Direct element constructor.
    Element(ElementCtor),
}

impl Expr {
    /// Convenience constructor for a string literal.
    pub fn string(s: impl Into<String>) -> Expr {
        Expr::Literal(Literal::String(s.into()))
    }

    /// Convenience constructor for an integer literal.
    pub fn integer(i: i64) -> Expr {
        Expr::Literal(Literal::Integer(i))
    }

    /// Collect the free variables referenced by this expression (used by the
    /// `indep` analysis of the join recognition, Section 4.1).
    pub fn free_vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_free(&mut Vec::new(), &mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_free(&self, bound: &mut Vec<String>, out: &mut Vec<String>) {
        match self {
            Expr::Var(v) => {
                if !bound.contains(v) {
                    out.push(v.clone());
                }
            }
            Expr::Literal(_) | Expr::Param { .. } | Expr::Empty => {}
            Expr::Sequence(es) => es.iter().for_each(|e| e.collect_free(bound, out)),
            Expr::Flwor {
                clauses,
                where_,
                order_by,
                ret,
            } => {
                let depth = bound.len();
                for c in clauses {
                    match c {
                        Clause::For { var, at, source } => {
                            source.collect_free(bound, out);
                            bound.push(var.clone());
                            if let Some(a) = at {
                                bound.push(a.clone());
                            }
                        }
                        Clause::Let { var, value } => {
                            value.collect_free(bound, out);
                            bound.push(var.clone());
                        }
                    }
                }
                if let Some(w) = where_ {
                    w.collect_free(bound, out);
                }
                if let Some(o) = order_by {
                    for k in &o.keys {
                        k.key.collect_free(bound, out);
                    }
                }
                ret.collect_free(bound, out);
                bound.truncate(depth);
            }
            Expr::If { cond, then, els } => {
                cond.collect_free(bound, out);
                then.collect_free(bound, out);
                els.collect_free(bound, out);
            }
            Expr::Quantified {
                var,
                source,
                satisfies,
                ..
            } => {
                source.collect_free(bound, out);
                bound.push(var.clone());
                satisfies.collect_free(bound, out);
                bound.pop();
            }
            Expr::Arith { l, r, .. }
            | Expr::Comparison { l, r, .. }
            | Expr::Logical { l, r, .. } => {
                l.collect_free(bound, out);
                r.collect_free(bound, out);
            }
            Expr::Neg(e) => e.collect_free(bound, out),
            Expr::Path { start, steps } => {
                if let Some(s) = start {
                    s.collect_free(bound, out);
                }
                for st in steps {
                    for p in &st.predicates {
                        p.collect_free(bound, out);
                    }
                }
            }
            Expr::FunCall { args, .. } => args.iter().for_each(|a| a.collect_free(bound, out)),
            Expr::Element(e) => e.collect_free(bound, out),
        }
    }
}

impl ElementCtor {
    fn collect_free(&self, bound: &mut Vec<String>, out: &mut Vec<String>) {
        for (_, parts) in &self.attributes {
            for p in parts {
                if let AttrPart::Expr(e) = p {
                    e.collect_free(bound, out);
                }
            }
        }
        for c in &self.content {
            match c {
                Content::Text(_) => {}
                Content::Expr(e) => e.collect_free(bound, out),
                Content::Element(e) => e.collect_free(bound, out),
            }
        }
    }
}

/// Where an `insert nodes` statement places the new content relative to its
/// target (XQuery Update Facility `InsertExpr`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InsertLocation {
    /// `as first into` — first child of the target element.
    FirstInto,
    /// `as last into` — last child of the target element.
    LastInto,
    /// Plain `into` — an implementation-chosen position among the children
    /// (we append, like `as last into`).
    Into,
    /// `before` — preceding sibling of the target.
    Before,
    /// `after` — following sibling of the target.
    After,
}

/// One updating statement of the XQuery Update Facility subset.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum UpdateStmt {
    /// `insert nodes <source> (as first|as last)? into | before | after <target>`.
    Insert {
        /// The content expression (evaluated and copied before application).
        source: Expr,
        /// Where the content goes relative to the target.
        location: InsertLocation,
        /// The target node expression (must evaluate to exactly one node).
        target: Expr,
    },
    /// `delete nodes <target>` — every node of the target sequence.
    Delete {
        /// The target node sequence.
        target: Expr,
    },
    /// `replace node <target> with <source>`.
    ReplaceNode {
        /// The target node (exactly one).
        target: Expr,
        /// The replacement content.
        source: Expr,
    },
    /// `replace value of node <target> with <source>`.
    ReplaceValue {
        /// The target node (exactly one).
        target: Expr,
        /// The new value (atomized to a string).
        source: Expr,
    },
    /// `rename node <target> as <new-name>`.
    Rename {
        /// The target node (exactly one element, PI or attribute).
        target: Expr,
        /// The new name (atomized to a string).
        new_name: Expr,
    },
}

/// A parsed update: prolog declarations plus one or more comma-separated
/// updating statements.  All statements are evaluated against the same
/// snapshot and applied as one pending update list.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct UpdateQuery {
    /// User-defined functions.
    pub functions: Vec<FunctionDecl>,
    /// Global variable declarations.
    pub variables: Vec<VarDecl>,
    /// The updating statements, in source order.
    pub statements: Vec<UpdateStmt>,
}

/// A user-defined function declared in the query prolog.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FunctionDecl {
    /// Function name without the `local:` prefix.
    pub name: String,
    /// Parameter names (without `$`).
    pub params: Vec<String>,
    /// Function body.
    pub body: Expr,
}

/// A global variable declared in the query prolog.
///
/// `declare variable $x := expr;` binds `$x` to the value of `expr`;
/// `declare variable $x external;` declares `$x` as supplied by the caller
/// at execution time (through `Params`), optionally with a default value:
/// `declare variable $x external := expr;`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VarDecl {
    /// Variable name (without `$`).
    pub name: String,
    /// The initializer — for external variables, the default value used when
    /// the caller supplies no binding.
    pub init: Option<Expr>,
    /// Declared `external` (value supplied at execution time)?
    pub external: bool,
}

/// A parsed query: prolog declarations plus the main expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Query {
    /// User-defined functions.
    pub functions: Vec<FunctionDecl>,
    /// Global variable declarations (`declare variable $x := expr;`,
    /// `declare variable $x external;`).
    pub variables: Vec<VarDecl>,
    /// The query body.
    pub body: Expr,
}

/// A parsed statement: either a (read-only) query or an updating statement
/// list.  [`crate::parser::parse_statement`] auto-detects which of the two a
/// source text is, so callers with a unified entry point (e.g.
/// `Session::execute`) do not have to know the statement kind up front.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Statement {
    /// A query (`parse_query` shape).
    Query(Query),
    /// An XQuery Update Facility statement list (`parse_update` shape).
    Update(UpdateQuery),
}

impl Statement {
    /// True if this is an updating statement.
    pub fn is_update(&self) -> bool {
        matches!(self, Statement::Update(_))
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Integer(i) => write!(f, "{i}"),
            Literal::Double(d) => write!(f, "{d}"),
            Literal::String(s) => write!(f, "\"{s}\""),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_vars_respect_binders() {
        // for $x in $src return ($x, $y)
        let e = Expr::Flwor {
            clauses: vec![Clause::For {
                var: "x".into(),
                at: None,
                source: Expr::Var("src".into()),
            }],
            where_: None,
            order_by: None,
            ret: Box::new(Expr::Sequence(vec![
                Expr::Var("x".into()),
                Expr::Var("y".into()),
            ])),
        };
        assert_eq!(e.free_vars(), vec!["src".to_string(), "y".to_string()]);
    }

    #[test]
    fn free_vars_of_path_predicates() {
        let e = Expr::Path {
            start: Some(Box::new(Expr::Var("doc".into()))),
            steps: vec![Step {
                axis: Axis::Child,
                test: NodeTest::named("item"),
                predicates: vec![Expr::Var("p".into())],
            }],
        };
        assert_eq!(e.free_vars(), vec!["doc".to_string(), "p".to_string()]);
    }
}
