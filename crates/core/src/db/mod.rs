//! The server-style public API: a shared [`Database`], cheap per-client
//! [`Session`] handles and compile-once/execute-many [`Prepared`] statements.
//!
//! MonetDB/XQuery is a *server*: one shredded store serves many concurrent
//! clients, and loop-lifted plans are compiled once and reused (paper
//! Sections 2 and 6).  This module reproduces that shape:
//!
//! * [`Database`] owns the documents behind a `RwLock` (atomic publishes,
//!   many concurrent readers), an LRU **plan cache** keyed by (statement
//!   shape, configuration fingerprint) — a text is parsed, its literals
//!   are lifted into parameter slots, and every text of one shape shares
//!   one compiled plan — and the paged update state behind **per-document
//!   write latches**: sessions updating disjoint documents commit fully in
//!   parallel, conflicting sessions queue on the fragment latch, and a
//!   commit-ordering ticket assigns generations so publishes stay atomic
//!   `Arc` swaps in generation order.  It is `Send + Sync` and meant to be
//!   shared via `Arc`.
//! * [`Session`] is a cheap handle created by [`Database::session`]: it
//!   carries the per-client [`ExecConfig`] and statistics.  Statements go
//!   through [`Session::execute`], which auto-detects query vs. update text.
//! * [`Prepared`] is produced by [`Session::prepare`]: the text is parsed
//!   and compiled exactly once (external variables declared with
//!   `declare variable $x external;` stay symbolic) and can then be executed
//!   many times — concurrently from many threads — with values supplied
//!   through the [`Params`] binder (`prepared.bind("x", 42).execute()`).
//!
//! Every query execution pins an immutable [`StoreSnapshot`], so readers
//! never block each other and a writer can never pull document data out
//! from under a running query or an already produced [`QueryResult`].
//!
//! # Module contract
//!
//! This file **owns** the [`Database`] handle, its counters
//! ([`DatabaseStats`]) and the read paths: [`Database::snapshot`],
//! [`Database::store`], [`Database::stats`], [`Database::document_columns`],
//! [`Database::execute`] and query execution.  It **may call** every
//! submodule:
//!
//! | module | owns | may call |
//! |---|---|---|
//! | `results` | result and report types | the executor's serializers |
//! | `plan_cache` | compiled statements, the one shape-keyed LRU | parser, compiler, analysis |
//! | `latch` | fragment latches, commit tickets and turnstile | nothing in `db` |
//! | `commit` | the commit pipeline phases, loads | `latch`, `collect`, durability |
//! | `collect` | PUL primitive collection | `crate::pul` |
//! | `checkpoint` | open + recovery replay, checkpoints, eviction | `commit::{splice, publish}`, `latch`, durability |
//! | `session`, `prepared` | [`Session`], [`Prepared`], [`Binder`] | `plan_cache`, `commit`, this file's read paths |
//!
//! Lock order, everywhere: fragment latches (ascending fragment id) →
//! commit ticket → store → checkpoint state → WAL.  The checkpoint state
//! is reachable only through methods that take the store guard's
//! `DocStore` as an argument, so the store → ckpt half of the order is
//! checked by the compiler.

mod checkpoint;
mod collect;
mod commit;
mod latch;
mod plan_cache;
mod prepared;
mod results;
mod session;

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};
use std::time::Instant;

use mxq_xmldb::{DocStore, DocumentColumns, StoreSnapshot};

use crate::algebra::PlanRef;
use crate::config::ExecConfig;
use crate::durability::{DurabilityOptions, Durable};
use crate::exec::Executor;
use crate::params::Params;
use crate::profile::Profile;
use crate::Error;
use checkpoint::CheckpointThread;
use latch::{CommitOrder, LatchTable};
use plan_cache::{CompiledStatement, PlanCache, PLAN_CACHE_CAPACITY};

pub use prepared::{Binder, Prepared};
pub use results::{QueryReport, QueryResult, ResultStream, StatementResult, UpdateReport};
pub use session::{Session, SessionStats};

/// Counters over the whole database (all sessions).
#[derive(Debug, Default)]
struct Counters {
    /// Statements actually compiled (plan-cache misses and uncached
    /// compiles).
    prepares: AtomicU64,
    plan_cache_hits: AtomicU64,
    plan_cache_misses: AtomicU64,
    queries: AtomicU64,
    updates: AtomicU64,
    checkpoints: AtomicU64,
    background_checkpoints: AtomicU64,
    recovery_replays: AtomicU64,
    /// Writer blocked acquiring a fragment latch another writer held.
    latch_waits: AtomicU64,
    /// Writer found its snapshot stale after latching (another commit to
    /// the same fragment published in between) and re-evaluated under the
    /// latch.
    latch_conflicts: AtomicU64,
}

/// A point-in-time copy of the database counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DatabaseStats {
    /// Statements compiled since the database was created: one per
    /// statement shape the plan cache misses, plus uncached compiles
    /// ([`Session::compile`], [`Session::explain`]).  Stays flat while
    /// executions are served from the plan cache or a [`Prepared`]
    /// statement.
    pub prepares: u64,
    /// Plan-cache hits: statement texts whose shape (the text with its
    /// liftable literals replaced by parameter slots) had a cached plan.
    pub plan_cache_hits: u64,
    /// Plan-cache misses (each compiles the shape).
    pub plan_cache_misses: u64,
    /// Queries executed (all sessions and prepared statements).
    pub queries: u64,
    /// Updates executed.
    pub updates: u64,
    /// Bytes appended to the write-ahead log (record headers included).
    /// Stays 0 for an in-memory database.
    pub wal_bytes_written: u64,
    /// `fsync` calls issued by the write-ahead log (appends under the
    /// configured [`SyncPolicy`](crate::SyncPolicy), group-commit batch
    /// fsyncs, plus checkpoint rotations).
    pub wal_fsyncs: u64,
    /// Checkpoints taken ([`Database::checkpoint`] plus background).
    pub checkpoints: u64,
    /// Checkpoints initiated by the background checkpoint thread
    /// (a subset of `checkpoints`).
    pub background_checkpoints: u64,
    /// WAL records replayed by crash recovery when this database was
    /// opened ([`Database::open`]); 0 after a clean shutdown.
    pub recovery_replays: u64,
    /// Times a writer blocked acquiring a fragment latch held by another
    /// writer.  Stays 0 while writers touch disjoint documents.
    pub latch_waits: u64,
    /// Times a writer found its evaluation snapshot stale after latching
    /// (a conflicting commit published the fragment first) and
    /// re-evaluated under the latch.
    pub latch_conflicts: u64,
    /// Group-commit fsync batches completed (0 unless the sync policy is
    /// [`SyncPolicy::GroupCommit`](crate::SyncPolicy)).
    pub group_commit_batches: u64,
    /// WAL records covered by those batches.
    pub group_commit_records: u64,
    /// Smallest batch (records per fsync); 0 before the first batch.
    pub group_commit_batch_min: u64,
    /// Largest batch (records per fsync).
    pub group_commit_batch_max: u64,
    /// True once a group-commit fsync has failed: the write-ahead log is
    /// poisoned, every subsequent durable commit or load fails with
    /// [`DurabilityError::Poisoned`](crate::durability::DurabilityError),
    /// and the database must be reopened to recover (reads keep working).
    /// Always false for an in-memory database.
    pub wal_poisoned: bool,
    /// Statement shapes currently cached.
    pub plan_cache_len: usize,
}

impl DatabaseStats {
    /// Plan-cache hit rate in `[0, 1]`; `None` before the first lookup.
    pub fn plan_cache_hit_rate(&self) -> Option<f64> {
        let total = self.plan_cache_hits + self.plan_cache_misses;
        (total > 0).then(|| self.plan_cache_hits as f64 / total as f64)
    }

    /// Mean group-commit batch size (records per fsync); `None` before
    /// the first batch.
    pub fn group_commit_batch_mean(&self) -> Option<f64> {
        (self.group_commit_batches > 0)
            .then(|| self.group_commit_records as f64 / self.group_commit_batches as f64)
    }
}

/// Read guard over the shared document store (see [`Database::store`]).
/// Dereferences to [`DocStore`]; holding it blocks writers, so keep it
/// short-lived.
pub struct StoreReadGuard<'a>(RwLockReadGuard<'a, DocStore>);

impl std::ops::Deref for StoreReadGuard<'_> {
    type Target = DocStore;

    fn deref(&self) -> &DocStore {
        &self.0
    }
}

/// A shared XQuery database: the document store, the plan cache and the
/// update substrate, safe to share across threads via `Arc`.
///
/// ```
/// use std::sync::Arc;
/// use mxq_xquery::Database;
///
/// let db = Arc::new(Database::new());
/// db.load_document("books.xml", "<books><book>DB</book></books>").unwrap();
/// let mut session = db.session();
/// let result = session.query("doc(\"books.xml\")/books/book/text()").unwrap();
/// assert_eq!(result.serialize(), "DB");
/// ```
pub struct Database {
    store: Arc<RwLock<DocStore>>,
    /// Per-document write latches + master slots (see [`LatchTable`]).
    latches: Arc<LatchTable>,
    /// Commit-ordering tickets: generation assignment + publish turnstile.
    commit: CommitOrder,
    plan_cache: Mutex<PlanCache>,
    counters: Arc<Counters>,
    /// Durability attachment: present when the database was opened on a
    /// directory ([`Database::open`]); `None` for an in-memory database.
    durable: Option<Arc<Durable>>,
    /// The background checkpoint thread, when
    /// [`DurabilityOptions::checkpoint_interval`] is set.  Signalled to
    /// stop and joined when the database is dropped.
    background: Option<CheckpointThread>,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("generation", &self.generation())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// An empty in-memory database (no durability: nothing is written to
    /// disk, and dropping the database loses all documents).
    pub fn new() -> Self {
        Database {
            store: Arc::new(RwLock::new(DocStore::new())),
            latches: Arc::new(LatchTable::default()),
            commit: CommitOrder::new(0),
            plan_cache: Mutex::new(PlanCache::new(PLAN_CACHE_CAPACITY)),
            counters: Arc::new(Counters::default()),
            durable: None,
            background: None,
        }
    }

    /// The durability directory, or `None` for an in-memory database.
    pub fn durability_dir(&self) -> Option<&Path> {
        self.durable.as_ref().map(|d| d.dir.as_path())
    }

    /// The durability options in effect, or `None` for an in-memory
    /// database.
    pub fn durability_options(&self) -> Option<DurabilityOptions> {
        self.durable.as_ref().map(|d| d.options)
    }

    /// Read access to the shared document store.  The guard blocks writers
    /// while held — prefer [`Database::snapshot`] for anything longer than a
    /// lookup.
    pub fn store(&self) -> StoreReadGuard<'_> {
        StoreReadGuard(self.store.read().unwrap())
    }

    /// An immutable snapshot of all loaded documents (cheap: clones `Arc`s).
    pub fn snapshot(&self) -> StoreSnapshot {
        self.store.read().unwrap().snapshot()
    }

    /// The current store generation (see [`DocStore::generation`]).
    pub fn generation(&self) -> u64 {
        self.store.read().unwrap().generation()
    }

    /// Point-in-time copy of the database counters.
    pub fn stats(&self) -> DatabaseStats {
        let (wal_bytes_written, wal_fsyncs) =
            self.durable.as_ref().map_or((0, 0), |d| d.wal_counters());
        let (gc_batches, gc_records, gc_min, gc_max) = self
            .durable
            .as_ref()
            .map_or((0, 0, 0, 0), |d| d.group_commit_stats());
        DatabaseStats {
            prepares: self.counters.prepares.load(Ordering::Relaxed),
            plan_cache_hits: self.counters.plan_cache_hits.load(Ordering::Relaxed),
            plan_cache_misses: self.counters.plan_cache_misses.load(Ordering::Relaxed),
            queries: self.counters.queries.load(Ordering::Relaxed),
            updates: self.counters.updates.load(Ordering::Relaxed),
            wal_bytes_written,
            wal_fsyncs,
            checkpoints: self.counters.checkpoints.load(Ordering::Relaxed),
            background_checkpoints: self.counters.background_checkpoints.load(Ordering::Relaxed),
            recovery_replays: self.counters.recovery_replays.load(Ordering::Relaxed),
            latch_waits: self.counters.latch_waits.load(Ordering::Relaxed),
            latch_conflicts: self.counters.latch_conflicts.load(Ordering::Relaxed),
            group_commit_batches: gc_batches,
            group_commit_records: gc_records,
            group_commit_batch_min: gc_min,
            group_commit_batch_max: gc_max,
            wal_poisoned: self.durable.as_ref().is_some_and(|d| d.poisoned()),
            plan_cache_len: self.plan_cache.lock().unwrap().len(),
        }
    }

    /// The column image ([`DocumentColumns`]) of a loaded document: the
    /// one the store itself maintains incrementally — updates delta-patch
    /// it, so the handle is always current as of the call.  Returns `None`
    /// for unknown names.
    pub fn document_columns(&self, name: &str) -> Option<Arc<DocumentColumns>> {
        let store = self.store.read().unwrap();
        let frag = store.lookup(name)?;
        Some(store.container(frag).columns_arc())
    }

    /// Execute a statement with the default configuration and no bindings —
    /// the convenience path; statements of one shape (texts differing only
    /// in literal constants) are served from one cached plan.
    pub fn execute(&self, text: &str) -> Result<StatementResult, Error> {
        let shaped = self.compile_cached(text, ExecConfig::default())?;
        self.execute_compiled(
            &shaped.compiled,
            ExecConfig::default(),
            Params::new().with_literals(shaped.literals),
        )
        .map(|(result, _)| result)
    }

    /// Execute a compiled statement against the current store state.
    fn execute_compiled(
        &self,
        stmt: &CompiledStatement,
        config: ExecConfig,
        params: Params,
    ) -> Result<(StatementResult, QueryReport), Error> {
        match stmt {
            CompiledStatement::Query {
                plan, operators, ..
            } => {
                let snap = self.snapshot();
                let (result, report) = self.run_query_on(snap, plan, *operators, config, params)?;
                Ok((StatementResult::Query(result), report))
            }
            CompiledStatement::Update { plan, .. } => {
                let report = self.apply_update(plan, config, &params)?;
                Ok((StatementResult::Update(report), QueryReport::default()))
            }
        }
    }

    /// Evaluate a compiled query plan against a given snapshot.
    fn run_query_on(
        &self,
        snap: StoreSnapshot,
        plan: &PlanRef,
        operators: usize,
        config: ExecConfig,
        params: Params,
    ) -> Result<(QueryResult, QueryReport), Error> {
        let mut exec = Executor::with_params(&snap, config, params);
        let items = exec.eval_result(plan)?;
        let (transient, stats) = exec.finish();
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        Ok((
            QueryResult::new(items, snap, transient),
            QueryReport {
                plan_operators: operators,
                stats,
            },
        ))
    }

    /// Evaluate a compiled statement once against the current store state
    /// with per-operator profiling on; errors for an updating statement.
    fn profile_compiled(
        &self,
        stmt: &CompiledStatement,
        config: ExecConfig,
        params: Params,
    ) -> Result<Profile, Error> {
        let CompiledStatement::Query { plan, .. } = stmt else {
            return Err(Error::WrongStatementKind { expected: "query" });
        };
        let snap = self.snapshot();
        let mut exec = Executor::with_params(&snap, config, params).with_profiling();
        let start = Instant::now();
        let items = exec.eval_result(plan)?;
        let exec_ns = start.elapsed().as_nanos() as u64;
        let ops = exec.profile(plan);
        let (_, stats) = exec.finish();
        Ok(Profile {
            ops,
            exec_ns,
            result_items: items.len(),
            stats,
        })
    }
}

#[cfg(test)]
mod tests;
