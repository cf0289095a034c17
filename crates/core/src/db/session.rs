//! Per-client sessions.
//!
//! **Owns** [`Session`] and [`SessionStats`], and the session constructors
//! on [`Database`].  A session carries one client's [`ExecConfig`] and
//! counters and turns statement text into cached plans and executions.
//!
//! **May call** the plan cache (`compile_cached`, `compile_statement`),
//! the read paths in `mod.rs`, the commit pipeline (`apply_update`) and
//! `Prepared` construction.  It holds no lock of its own.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use super::plan_cache::{CompiledStatement, Shaped};
use super::{
    Database, Prepared, QueryReport, QueryResult, ResultStream, StatementResult, UpdateReport,
};
use crate::algebra::PlanRef;
use crate::analysis::{self, Rewrite};
use crate::config::ExecConfig;
use crate::params::Params;
use crate::profile::Profile;
use crate::Error;

/// Per-session statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Queries executed through this session.
    pub queries: u64,
    /// Updates executed through this session.
    pub updates: u64,
    /// Statements prepared through this session.
    pub prepares: u64,
    /// Plan-cache hits observed by this session.
    pub plan_cache_hits: u64,
    /// Plan-cache misses observed by this session.
    pub plan_cache_misses: u64,
}

/// A per-client handle on a shared [`Database`]: carries the client's
/// [`ExecConfig`] and statistics.  Sessions are cheap to create (an `Arc`
/// clone) and are *not* shared between threads — open one per client/thread;
/// the documents behind them are shared through the database.
#[derive(Debug)]
pub struct Session {
    db: Arc<Database>,
    config: ExecConfig,
    stats: SessionStats,
}

impl Database {
    /// Open a session: a cheap per-client handle with its own configuration
    /// and statistics.
    pub fn session(self: &Arc<Self>) -> Session {
        self.session_with_config(ExecConfig::default())
    }

    /// Open a session with an explicit configuration.
    pub fn session_with_config(self: &Arc<Self>, config: ExecConfig) -> Session {
        Session {
            db: self.clone(),
            config,
            stats: SessionStats::default(),
        }
    }
}

impl Session {
    /// The shared database this session talks to.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The session configuration.
    pub fn config(&self) -> ExecConfig {
        self.config
    }

    /// Change the session configuration (affects subsequent calls; compiled
    /// plans are cached per configuration fingerprint, so switching back and
    /// forth does not thrash the plan cache).
    pub fn set_config(&mut self, config: ExecConfig) {
        self.config = config;
    }

    /// This session's statistics.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    fn compile_cached(&mut self, text: &str) -> Result<Shaped, Error> {
        let shaped = self.db.compile_cached(text, self.config)?;
        if shaped.hit {
            self.stats.plan_cache_hits += 1;
        } else {
            self.stats.plan_cache_misses += 1;
        }
        Ok(shaped)
    }

    /// Parse + compile a query and return its plan for inspection (e.g.
    /// `plan.explain()` or `plan.operator_count()`) without executing it.
    /// The plan is verified and simplified exactly like an executed one.
    pub fn compile(&self, query: &str) -> Result<PlanRef, Error> {
        self.compile_query(query).map(|(plan, _)| plan)
    }

    /// Compile a query and render its plan annotated with the statically
    /// inferred properties of every operator, followed by the
    /// property-driven rewrites the simplifier applied.
    pub fn explain(&self, query: &str) -> Result<String, Error> {
        let (plan, rewrites) = self.compile_query(query)?;
        let mut out = analysis::explain_annotated(&plan, &analysis::analyze(&plan));
        if rewrites.is_empty() {
            out.push_str("-- no rewrites applied\n");
        } else {
            out.push_str("-- rewrites:\n");
            for r in &rewrites {
                out.push_str(&format!("--   {r}\n"));
            }
        }
        Ok(out)
    }

    /// Compile a query outside the plan cache, with its simplifier
    /// rewrites; errors for an updating statement.
    fn compile_query(&self, query: &str) -> Result<(PlanRef, Vec<Rewrite>), Error> {
        match self.db.compile_statement(query, self.config)? {
            CompiledStatement::Query { plan, rewrites, .. } => Ok((plan, rewrites)),
            CompiledStatement::Update { .. } => {
                Err(Error::WrongStatementKind { expected: "query" })
            }
        }
    }

    /// Parse + compile a statement once into a [`Prepared`] handle that can
    /// be executed many times (and from many threads).  External variables
    /// (`declare variable $x external;`) are bound per execution through
    /// [`Prepared::bind`].  The plan is the cached plan of the statement's
    /// shape, shared with every text that differs only in literals; the
    /// handle keeps this text's literal values.
    pub fn prepare(&mut self, text: &str) -> Result<Prepared, Error> {
        let Shaped {
            compiled, literals, ..
        } = self.compile_cached(text)?;
        self.stats.prepares += 1;
        Ok(Prepared {
            config: self.config,
            text: text.to_string(),
            compiled,
            literals,
            last_generation: AtomicU64::new(self.db.generation()),
            db: self.db.clone(),
            executions: AtomicU64::new(0),
            revalidations: AtomicU64::new(0),
        })
    }

    /// Execute a query once with per-operator profiling on and return its
    /// [`Profile`] (`EXPLAIN ANALYZE`): per plan node, self and inclusive
    /// time, rows out, memo hits, the sorts done and avoided, and the
    /// staircase rows scanned and storage runs skipped.  The plan
    /// is the cached plan of the text's shape, as for
    /// [`Session::execute`]; errors for an updating statement.
    pub fn profile(&mut self, text: &str) -> Result<Profile, Error> {
        let shaped = self.compile_cached(text)?;
        self.db.profile_compiled(
            &shaped.compiled,
            self.config,
            Params::new().with_literals(shaped.literals),
        )
    }

    /// Execute a statement, auto-detecting query vs. update text.  Texts
    /// of one shape (differing only in literal constants) are served from
    /// one plan in the database plan cache.
    pub fn execute(&mut self, text: &str) -> Result<StatementResult, Error> {
        let shaped = self.compile_cached(text)?;
        let (result, _) = self.db.execute_compiled(
            &shaped.compiled,
            self.config,
            Params::new().with_literals(shaped.literals),
        )?;
        match &result {
            StatementResult::Query(_) => self.stats.queries += 1,
            StatementResult::Update(_) => self.stats.updates += 1,
        }
        Ok(result)
    }

    /// Execute a query and return its result; errors with
    /// [`Error::WrongStatementKind`] if the text is an updating statement.
    pub fn query(&mut self, text: &str) -> Result<QueryResult, Error> {
        self.query_with_report(text).map(|(r, _)| r)
    }

    /// Execute a query, also returning plan/runtime diagnostics.
    pub fn query_with_report(&mut self, text: &str) -> Result<(QueryResult, QueryReport), Error> {
        let shaped = self.compile_cached(text)?;
        if matches!(&*shaped.compiled, CompiledStatement::Update { .. }) {
            return Err(Error::WrongStatementKind { expected: "query" });
        }
        let (result, report) = self.db.execute_compiled(
            &shaped.compiled,
            self.config,
            Params::new().with_literals(shaped.literals),
        )?;
        self.stats.queries += 1;
        Ok((result.into_query()?, report))
    }

    /// Execute a query and stream the result items instead of materialising
    /// one serialized string (see [`ResultStream`]).
    pub fn execute_streaming(&mut self, text: &str) -> Result<ResultStream, Error> {
        self.query(text).map(QueryResult::into_stream)
    }

    /// Execute one or more comma-separated XQuery Update Facility
    /// statements; errors with [`Error::WrongStatementKind`] if the text is
    /// a plain query.
    ///
    /// All target and source expressions are evaluated first, against an
    /// unchanged snapshot (snapshot isolation); the collected pending update
    /// list is conflict-checked and then applied atomically, and the
    /// re-materialized documents are published under the store write lock so
    /// concurrent readers observe the update as a whole or not at all.
    pub fn execute_update(&mut self, text: &str) -> Result<UpdateReport, Error> {
        let shaped = self.compile_cached(text)?;
        let CompiledStatement::Update { plan, .. } = &*shaped.compiled else {
            return Err(Error::WrongStatementKind { expected: "update" });
        };
        let params = Params::new().with_literals(shaped.literals);
        let report = self.db.apply_update(plan, self.config, &params)?;
        self.stats.updates += 1;
        Ok(report)
    }
}
