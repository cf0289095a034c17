//! Prepared statements.
//!
//! **Owns** [`Prepared`] (a statement compiled once, executable many
//! times from many threads) and [`Binder`] (one execution's
//! external-variable bindings), including the generation check that
//! counts revalidations.
//!
//! **May call** the read paths in `mod.rs` (`snapshot`, `run_query_on`)
//! and the commit pipeline (`apply_update`).  It holds no lock of its own;
//! its counters are atomics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mxq_engine::Item;
use mxq_xmldb::StoreSnapshot;

use super::plan_cache::CompiledStatement;
use super::{Database, QueryResult, StatementResult};
use crate::config::ExecConfig;
use crate::exec::ExecError;
use crate::params::Params;
use crate::profile::Profile;
use crate::Error;

/// A statement parsed and compiled exactly once, executable many times —
/// concurrently from many threads — with per-execution external-variable
/// bindings.
///
/// ```
/// use std::sync::Arc;
/// use mxq_xquery::Database;
///
/// let db = Arc::new(Database::new());
/// db.load_document("doc.xml", "<a><v>1</v><v>2</v><v>3</v></a>").unwrap();
/// let mut session = db.session();
/// let stmt = session
///     .prepare(
///         "declare variable $min external; \
///          for $v in doc(\"doc.xml\")/a/v where $v/text() >= $min return $v/text()",
///     )
///     .unwrap();
/// let r = stmt.bind("min", 2).execute().unwrap().into_query().unwrap();
/// assert_eq!(r.len(), 2); // the <v>2</v> and <v>3</v> text nodes
/// let r = stmt.bind("min", 3).execute().unwrap().into_query().unwrap();
/// assert_eq!(r.serialize(), "3");
/// ```
#[derive(Debug)]
pub struct Prepared {
    pub(super) db: Arc<Database>,
    pub(super) config: ExecConfig,
    pub(super) text: String,
    pub(super) compiled: Arc<CompiledStatement>,
    /// The literals of `text`, filling the parameter slots of the (shared,
    /// shape-keyed) plan at every execution.
    pub(super) literals: Vec<Item>,
    /// The store generation observed by the most recent execution (the
    /// prepare-time generation before the first).  Every execution takes a
    /// fresh snapshot — a dormant `Prepared` never pins old document
    /// versions — and compares its generation against this to detect that
    /// an update invalidated whatever the previous execution read
    /// ([`Prepared::revalidations`]).
    pub(super) last_generation: AtomicU64,
    pub(super) executions: AtomicU64,
    pub(super) revalidations: AtomicU64,
}

impl Prepared {
    /// The statement text this handle was prepared from.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The configuration the statement was compiled under.
    pub fn config(&self) -> ExecConfig {
        self.config
    }

    /// True if the statement is an XQuery Update Facility statement list.
    pub fn is_update(&self) -> bool {
        matches!(&*self.compiled, CompiledStatement::Update { .. })
    }

    /// Names of the external variables the statement declares, in
    /// declaration order.
    pub fn external_variables(&self) -> &[String] {
        self.compiled.externals()
    }

    /// Number of algebra operators in the compiled plan (queries only).
    pub fn plan_operators(&self) -> Option<usize> {
        match &*self.compiled {
            CompiledStatement::Query { operators, .. } => Some(*operators),
            CompiledStatement::Update { .. } => None,
        }
    }

    /// How many times this prepared statement has been executed.
    pub fn executions(&self) -> u64 {
        self.executions.load(Ordering::Relaxed)
    }

    /// How many times an execution observed a store generation different
    /// from the previous execution's — i.e. an update invalidated the state
    /// the statement had last read and the plan was revalidated against a
    /// fresh snapshot.
    pub fn revalidations(&self) -> u64 {
        self.revalidations.load(Ordering::Relaxed)
    }

    /// Start a binding chain: `stmt.bind("x", 42).bind("y", "s").execute()`.
    pub fn bind(&self, name: impl Into<String>, value: impl Into<Item>) -> Binder<'_> {
        self.binder().bind(name, value)
    }

    /// Start a binding chain with a sequence-valued binding.
    pub fn bind_seq(&self, name: impl Into<String>, values: Vec<Item>) -> Binder<'_> {
        self.binder().bind_seq(name, values)
    }

    fn binder(&self) -> Binder<'_> {
        Binder {
            prepared: self,
            params: Params::new(),
        }
    }

    /// Execute without bindings (all external variables must have defaults,
    /// or the statement must not declare any).
    pub fn execute(&self) -> Result<StatementResult, Error> {
        self.execute_with(&Params::new())
    }

    /// Execute with an explicit binding set.
    ///
    /// Every bound name must be declared `external` by the statement —
    /// binding an undeclared name (a typo would otherwise silently fall
    /// back to the default) is an [`ExecError::NotExternal`] error.
    pub fn execute_with(&self, params: &Params) -> Result<StatementResult, Error> {
        let externals = self.compiled.externals();
        if let Some((unknown, _)) = params
            .iter()
            .find(|(name, _)| !externals.iter().any(|e| e == name))
        {
            return Err(ExecError::NotExternal(unknown.to_string()).into());
        }
        self.executions.fetch_add(1, Ordering::Relaxed);
        let params = params.clone().with_literals(self.literals.clone());
        match &*self.compiled {
            CompiledStatement::Query {
                plan, operators, ..
            } => {
                let snap = self.current_snapshot();
                let (result, _) =
                    self.db
                        .run_query_on(snap, plan, *operators, self.config, params)?;
                Ok(StatementResult::Query(result))
            }
            CompiledStatement::Update { plan, .. } => self
                .db
                .apply_update(plan, self.config, &params)
                .map(StatementResult::Update),
        }
    }

    /// Execute once without bindings, with per-operator profiling on (see
    /// [`Session::profile`](super::Session::profile)); errors for an
    /// updating statement.
    pub fn profile(&self) -> Result<Profile, Error> {
        let params = Params::new().with_literals(self.literals.clone());
        self.db
            .profile_compiled(&self.compiled, self.config, params)
    }

    /// Execute with bindings and return the query result (errors for
    /// updating statements).
    pub fn query_with(&self, params: &Params) -> Result<QueryResult, Error> {
        self.execute_with(params)?.into_query()
    }

    /// A fresh snapshot for one execution, with the generation check: a
    /// stale snapshot (store mutated since the last execution) can never be
    /// read, because every execution re-resolves the store; the generation
    /// counter records that an invalidation happened.
    fn current_snapshot(&self) -> StoreSnapshot {
        let snap = self.db.snapshot();
        let prev = self
            .last_generation
            .swap(snap.generation(), Ordering::Relaxed);
        if prev != snap.generation() {
            self.revalidations.fetch_add(1, Ordering::Relaxed);
        }
        snap
    }
}

/// Accumulates external-variable bindings for one execution of a
/// [`Prepared`] statement (see [`Prepared::bind`]).
#[derive(Debug)]
pub struct Binder<'a> {
    prepared: &'a Prepared,
    params: Params,
}

impl Binder<'_> {
    /// Add another single-item binding.
    pub fn bind(mut self, name: impl Into<String>, value: impl Into<Item>) -> Self {
        self.params.set(name, value);
        self
    }

    /// Add another sequence-valued binding.
    pub fn bind_seq(mut self, name: impl Into<String>, values: Vec<Item>) -> Self {
        self.params.set_seq(name, values);
        self
    }

    /// Execute the prepared statement with the accumulated bindings.
    pub fn execute(self) -> Result<StatementResult, Error> {
        self.prepared.execute_with(&self.params)
    }

    /// Execute and unwrap the query result (errors for updating statements).
    pub fn query(self) -> Result<QueryResult, Error> {
        self.prepared.query_with(&self.params)
    }
}
