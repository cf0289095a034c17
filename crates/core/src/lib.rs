//! # mxq-xquery — a relational XQuery processor (the Pathfinder reproduction)
//!
//! This crate is the primary contribution of the MonetDB/XQuery reproduction:
//! an XQuery compiler and executor that represents XML documents and XQuery
//! item sequences *purely* as relational tables and evaluates queries with
//! relational algebra, exactly as described in the SIGMOD 2006 paper.
//!
//! The pipeline:
//!
//! 1. [`parser`] — XQuery text → AST ([`ast`]);
//! 2. [`compile`] — loop-lifting compilation into the relational algebra of
//!    [`algebra`], including join recognition (Section 4.1);
//! 3. [`exec`] — evaluation of the plan DAG over the column-store kernel
//!    (`mxq-engine`), the XML storage (`mxq-xmldb`) and the loop-lifted
//!    staircase join (`mxq-staircase`), with all optimizations of the paper
//!    individually switchable through [`ExecConfig`].
//!
//! The public API mirrors MonetDB/XQuery's *server* shape ([`db`]):
//!
//! * a [`Database`] owns the shredded documents behind a single-writer /
//!   many-reader lock and an LRU plan cache, and is shared via `Arc`;
//! * each client opens a cheap [`Session`] ([`Database::session`]) carrying
//!   its own [`ExecConfig`] and statistics;
//! * [`Session::prepare`] parses + compiles a statement **once** into a
//!   [`Prepared`] handle — external variables declared with
//!   `declare variable $x external;` are bound per execution with
//!   [`Prepared::bind`] — and [`Session::execute`] auto-detects query
//!   vs. update text ([`StatementResult`]);
//! * results stream ([`QueryResult::into_iter`],
//!   [`Session::execute_streaming`]) instead of forcing one big string.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use mxq_xquery::Database;
//!
//! let db = Arc::new(Database::new());
//! db.load_document("books.xml",
//!     "<books><book year=\"2004\"><title>DB</title></book>\
//!      <book year=\"2006\"><title>XML</title></book></books>").unwrap();
//!
//! let mut session = db.session();
//! let result = session
//!     .query("for $b in doc(\"books.xml\")/books/book where $b/@year >= 2005 \
//!             return $b/title/text()")
//!     .unwrap();
//! assert_eq!(result.serialize(), "XML");
//!
//! // compile once, execute many times with different bindings
//! let stmt = session
//!     .prepare("declare variable $year external; \
//!               count(doc(\"books.xml\")/books/book[@year >= $year])")
//!     .unwrap();
//! assert_eq!(stmt.bind("year", 2000).query().unwrap().serialize(), "2");
//! assert_eq!(stmt.bind("year", 2005).query().unwrap().serialize(), "1");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algebra;
pub mod analysis;
pub mod ast;
pub mod compile;
pub mod config;
pub mod db;
pub mod durability;
pub mod exec;
pub mod params;
pub mod parser;
pub mod profile;
pub mod pul;

use std::fmt;

use mxq_xmldb::{ShredError, StoreError};

pub use algebra::{Plan, PlanRef};
pub use analysis::{
    analyze, explain_annotated, simplify, Analysis, NodeProps, PlanViolation, Rewrite,
};
pub use ast::Statement;
pub use compile::{CompileError, Compiler};
pub use config::{ExecConfig, ExecStats};
pub use db::{
    Binder, Database, DatabaseStats, Prepared, QueryReport, QueryResult, ResultStream, Session,
    SessionStats, StatementResult, StoreReadGuard, UpdateReport,
};
pub use durability::{DurabilityError, DurabilityOptions};
pub use exec::{serialize_items_snapshot, ExecError, Executor};
pub use params::Params;
pub use parser::{parse_expr, parse_query, parse_statement, parse_update, ParseError};
pub use profile::{OpProfile, Profile};
pub use pul::{PendingUpdateList, PulError, UpdateKind, UpdatePlan, UpdatePrimitive};

/// Any error a database/session/engine call can produce.
///
/// Implements [`std::error::Error`] with a [`source`](std::error::Error::source)
/// chain pointing at the phase-specific error (shred, parse, compile,
/// execute, update apply), so callers can use `?` with `anyhow`-style
/// handling and still inspect the failing phase.
#[derive(Debug)]
pub enum Error {
    /// XML shredding failed.
    Shred(ShredError),
    /// Query parsing failed.
    Parse(ParseError),
    /// Compilation failed.
    Compile(CompileError),
    /// Execution failed.
    Exec(ExecError),
    /// Collecting or checking a pending update list failed.
    Update(PulError),
    /// Publishing updated documents to the store failed (e.g. the
    /// target fragment id is unknown or transient).
    Store(StoreError),
    /// The plan verifier found a structural invariant violation in a
    /// compiled plan — a compiler or rewrite bug, caught at prepare time.
    PlanInvariant(PlanViolation),
    /// A statement of the wrong kind was passed to a kind-specific entry
    /// point (e.g. an updating statement to [`Session::query`]).
    WrongStatementKind {
        /// The statement kind the entry point expected.
        expected: &'static str,
    },
    /// The durability layer failed: a WAL append/fsync, a checkpoint
    /// write, or recovery of an on-disk state.  For WAL failures during an
    /// update the in-memory store is untouched — the statement failed as a
    /// whole.
    Durability(DurabilityError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Shred(e) => write!(f, "shredding failed: {e}"),
            Error::Parse(e) => write!(f, "{e}"),
            Error::Compile(e) => write!(f, "compilation failed: {e}"),
            Error::Exec(e) => write!(f, "execution failed: {e}"),
            Error::Update(e) => write!(f, "update failed: {e}"),
            Error::Store(e) => write!(f, "store publish failed: {e}"),
            Error::PlanInvariant(v) => write!(f, "plan invariant violated: {v}"),
            Error::WrongStatementKind { expected } => {
                write!(
                    f,
                    "statement is not a {expected} (use `execute` for mixed text)"
                )
            }
            Error::Durability(e) => write!(f, "durability failure: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Shred(e) => Some(e),
            Error::Parse(e) => Some(e),
            Error::Compile(e) => Some(e),
            Error::Exec(e) => Some(e),
            Error::Update(e) => Some(e),
            Error::Store(e) => Some(e),
            Error::PlanInvariant(v) => Some(v),
            Error::WrongStatementKind { .. } => None,
            Error::Durability(e) => Some(e),
        }
    }
}

impl From<ShredError> for Error {
    fn from(e: ShredError) -> Self {
        Error::Shred(e)
    }
}
impl From<StoreError> for Error {
    fn from(e: StoreError) -> Self {
        Error::Store(e)
    }
}
impl From<ParseError> for Error {
    fn from(e: ParseError) -> Self {
        Error::Parse(e)
    }
}
impl From<CompileError> for Error {
    fn from(e: CompileError) -> Self {
        Error::Compile(e)
    }
}
impl From<ExecError> for Error {
    fn from(e: ExecError) -> Self {
        Error::Exec(e)
    }
}
impl From<PulError> for Error {
    fn from(e: PulError) -> Self {
        Error::Update(e)
    }
}
impl From<PlanViolation> for Error {
    fn from(v: PlanViolation) -> Self {
        Error::PlanInvariant(v)
    }
}
impl From<DurabilityError> for Error {
    fn from(e: DurabilityError) -> Self {
        Error::Durability(e)
    }
}

pub use mxq_wal::SyncPolicy;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn engine() -> Session {
        Arc::new(Database::new()).session()
    }

    fn engine_with(xml: &str) -> Session {
        let s = engine();
        s.database().load_document("doc.xml", xml).unwrap();
        s
    }

    #[test]
    fn constant_and_arithmetic_queries() {
        let mut e = engine();
        assert_eq!(e.query("1 + 2 * 3").unwrap().serialize(), "7");
        assert_eq!(e.query("(1, 2, 3)").unwrap().serialize(), "1 2 3");
        assert_eq!(e.query("10 div 4").unwrap().serialize(), "2.5");
        assert_eq!(e.query("7 mod 2").unwrap().serialize(), "1");
        assert_eq!(e.query("\"a\"").unwrap().serialize(), "a");
    }

    #[test]
    fn flwor_with_conditional_matches_paper_example() {
        // the running example of Section 2.1
        let mut e = engine();
        let r = e
            .query("for $v in (3, 4, 5, 6) return if ($v mod 2 = 0) then \"even\" else \"odd\"")
            .unwrap();
        assert_eq!(r.serialize(), "odd even odd even");
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn path_steps_and_predicates() {
        let mut e = engine_with(
            "<site><people><person id=\"p0\"><name>Ann</name></person>\
             <person id=\"p1\"><name>Bob</name></person></people></site>",
        );
        let r = e
            .query(
                "for $p in doc(\"doc.xml\")/site/people/person[@id = \"p1\"] return $p/name/text()",
            )
            .unwrap();
        assert_eq!(r.serialize(), "Bob");
        let r = e.query("count(doc(\"doc.xml\")//person)").unwrap();
        assert_eq!(r.serialize(), "2");
        let r = e
            .query("doc(\"doc.xml\")/site/people/person[2]/name/text()")
            .unwrap();
        assert_eq!(r.serialize(), "Bob");
        let r = e
            .query("doc(\"doc.xml\")/site/people/person[last()]/@id")
            .unwrap();
        assert_eq!(r.serialize(), "p1");
    }

    #[test]
    fn element_construction_and_nesting() {
        let mut e = engine_with("<a><b>x</b><b>y</b></a>");
        let r = e
            .query(
                "for $b in doc(\"doc.xml\")/a/b return <item n=\"{$b/text()}\">{$b/text()}</item>",
            )
            .unwrap();
        assert_eq!(
            r.serialize(),
            "<item n=\"x\">x</item><item n=\"y\">y</item>"
        );
    }

    #[test]
    fn aggregates_and_let() {
        let mut e = engine_with("<a><v>1</v><v>2</v><v>3</v></a>");
        let r = e
            .query("let $vs := doc(\"doc.xml\")/a/v return sum($vs) + count($vs)")
            .unwrap();
        assert_eq!(r.serialize(), "9");
        let r = e.query("avg(doc(\"doc.xml\")/a/v/text())").unwrap();
        assert_eq!(r.serialize(), "2");
    }

    #[test]
    fn where_clause_join_queries_match_under_all_configs() {
        let xml = "<db><people><p id=\"1\"/><p id=\"2\"/><p id=\"3\"/></people>\
                   <orders><o buyer=\"1\"/><o buyer=\"1\"/><o buyer=\"3\"/></orders></db>";
        let q = "for $p in doc(\"doc.xml\")/db/people/p \
                 return <r id=\"{$p/@id}\">{count(for $o in doc(\"doc.xml\")/db/orders/o \
                                                  where $o/@buyer = $p/@id return $o)}</r>";
        let mut with = engine();
        with.database().load_document("doc.xml", xml).unwrap();
        let mut without = Arc::new(Database::new()).session_with_config(ExecConfig {
            join_recognition: false,
            ..ExecConfig::default()
        });
        without.database().load_document("doc.xml", xml).unwrap();
        let a = with.query(q).unwrap();
        let b = without.query(q).unwrap();
        assert_eq!(a.serialize(), b.serialize());
        assert_eq!(
            a.serialize(),
            "<r id=\"1\">2</r><r id=\"2\">0</r><r id=\"3\">1</r>"
        );
    }

    #[test]
    fn order_by_sorts_results() {
        let mut e = engine_with("<a><i k=\"3\">c</i><i k=\"1\">a</i><i k=\"2\">b</i></a>");
        let r = e
            .query("for $i in doc(\"doc.xml\")/a/i order by $i/@k return $i/text()")
            .unwrap();
        assert_eq!(r.serialize(), "abc");
        let r = e
            .query("for $i in doc(\"doc.xml\")/a/i order by $i/@k descending return $i/text()")
            .unwrap();
        assert_eq!(r.serialize(), "cba");
    }

    #[test]
    fn quantified_and_logical() {
        let mut e = engine_with("<a><v>1</v><v>5</v></a>");
        assert_eq!(
            e.query("some $v in doc(\"doc.xml\")/a/v satisfies $v/text() > 4")
                .unwrap()
                .serialize(),
            "true"
        );
        assert_eq!(
            e.query("every $v in doc(\"doc.xml\")/a/v satisfies $v/text() > 4")
                .unwrap()
                .serialize(),
            "false"
        );
        assert_eq!(
            e.query("empty(doc(\"doc.xml\")/a/missing) and exists(doc(\"doc.xml\")/a/v)")
                .unwrap()
                .serialize(),
            "true"
        );
    }

    #[test]
    fn string_functions() {
        let mut e = engine_with("<a><d>pure gold ring</d></a>");
        assert_eq!(
            e.query("contains(string(doc(\"doc.xml\")/a/d), \"gold\")")
                .unwrap()
                .serialize(),
            "true"
        );
        assert_eq!(
            e.query("concat(\"a\", \"-\", \"b\")").unwrap().serialize(),
            "a-b"
        );
        assert_eq!(e.query("string-length(\"abcd\")").unwrap().serialize(), "4");
    }

    #[test]
    fn user_defined_functions() {
        let mut e = engine();
        let r = e
            .query("declare function local:twice($x) { 2 * $x }; local:twice(21)")
            .unwrap();
        assert_eq!(r.serialize(), "42");
    }

    #[test]
    fn report_counts_plan_operators() {
        let mut e = engine_with("<a><b/><b/></a>");
        let (_, report) = e
            .query_with_report("for $b in doc(\"doc.xml\")/a/b return <x>{$b}</x>")
            .unwrap();
        assert!(report.plan_operators >= 8);
        assert!(report.stats.ops_evaluated >= 8);
    }

    #[test]
    fn errors_are_reported() {
        let mut e = engine();
        assert!(matches!(e.query("for $x"), Err(Error::Parse(_))));
        assert!(matches!(e.query("$undefined"), Err(Error::Compile(_))));
        assert!(matches!(
            e.query("doc(\"missing.xml\")/a"),
            Err(Error::Exec(_))
        ));
    }

    #[test]
    fn errors_expose_a_source_chain() {
        use std::error::Error as StdError;
        let mut e = engine();
        let err = e.query("for $x").unwrap_err();
        let src = err.source().expect("parse errors carry a source");
        assert!(src.downcast_ref::<ParseError>().is_some());
        let err = e.query("$undefined").unwrap_err();
        assert!(err
            .source()
            .unwrap()
            .downcast_ref::<CompileError>()
            .is_some());
        let err = e.query("doc(\"nope.xml\")/a").unwrap_err();
        assert!(err.source().unwrap().downcast_ref::<ExecError>().is_some());
        // the chain works through a boxed dyn Error (anyhow-style `?` usage)
        fn boxed(e: &mut Session) -> Result<(), Box<dyn StdError>> {
            e.query("for $x")?;
            Ok(())
        }
        assert!(boxed(&mut e).is_err());
    }
}
