//! The server-style public API: a shared [`Database`], cheap per-client
//! [`Session`] handles and compile-once/execute-many [`Prepared`] statements.
//!
//! MonetDB/XQuery is a *server*: one shredded store serves many concurrent
//! clients, and loop-lifted plans are compiled once and reused (paper
//! Sections 2 and 6).  This module reproduces that shape:
//!
//! * [`Database`] owns the documents behind a `RwLock` (atomic publishes,
//!   many concurrent readers), a hash-sharded LRU **plan cache** keyed by
//!   (statement shape, configuration fingerprint) — a text is parsed, its
//!   literals are lifted into parameter slots, and every text of one shape
//!   shares one compiled plan — and the paged update
//!   state behind **per-document write latches**: sessions updating
//!   disjoint documents commit fully in parallel, conflicting sessions
//!   queue on the fragment latch, and a commit-ordering ticket assigns
//!   generations so publishes stay atomic `Arc` swaps in generation
//!   order.  It is `Send + Sync` and meant to be shared via `Arc`.
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

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard};

use mxq_engine::{Item, NodeId};
use mxq_wal::WalWriter;
use mxq_xmldb::disk::encode_snapshot;
use mxq_xmldb::{
    decode_snapshot, shred, Container, ContainerRef, DocStore, Document, DocumentBuilder,
    DocumentColumns, NodeKind, NodeRead, PagedDocument, ShredOptions, StoreSnapshot, UpdateStats,
    TRANSIENT_FRAG,
};

use crate::algebra::PlanRef;
use crate::ast::Statement;
use crate::compile::Compiler;
use crate::config::{ExecConfig, ExecStats};
use crate::durability::{
    self, decode_op, doc_file_name, Catalog, CatalogDoc, DurabilityError, DurabilityOptions,
    Durable, WalOp, CATALOG_FILE, WAL_FILE,
};
use crate::exec::{serialize_item_snapshot, serialize_items_snapshot, ExecError, Executor};
use crate::params::Params;
use crate::parser::parse_statement;
use crate::pul::{self, PendingUpdateList, PulError, UpdateKind, UpdatePlan, UpdatePrimitive};
use crate::Error;

// ---------------------------------------------------------------------------
// results
// ---------------------------------------------------------------------------

/// The result of a query: the item sequence, pinned to the store snapshot
/// and the private transient container it was produced against.
///
/// Serialization is lazy: [`QueryResult::serialize`] renders the whole
/// sequence to one string on first use, while [`QueryResult::into_iter`]
/// streams the items without ever building that string.
#[derive(Debug, Clone)]
pub struct QueryResult {
    items: Vec<Item>,
    snap: StoreSnapshot,
    transient: Arc<Document>,
    serialized: OnceLock<String>,
}

impl QueryResult {
    pub(crate) fn new(items: Vec<Item>, snap: StoreSnapshot, transient: Document) -> Self {
        QueryResult {
            items,
            snap,
            transient: Arc::new(transient),
            serialized: OnceLock::new(),
        }
    }

    /// The result items in sequence order.
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Number of items in the result sequence.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if the result is the empty sequence.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// XML/text serialization of the result sequence, rendered lazily on
    /// first call and cached.
    pub fn serialize(&self) -> &str {
        self.serialized
            .get_or_init(|| serialize_items_snapshot(&self.snap, &self.transient, &self.items))
    }

    /// Serialize a single item of this result (nodes as XML, atomics as
    /// their string value) without materialising the full result string.
    pub fn serialize_item(&self, item: &Item) -> String {
        serialize_item_snapshot(&self.snap, &self.transient, item)
    }

    /// Iterate over the items without consuming the result.
    pub fn iter(&self) -> std::slice::Iter<'_, Item> {
        self.items.iter()
    }

    /// Turn the result into a [`ResultStream`] that yields the items one by
    /// one — the path for large sequences that should not be serialized to
    /// one `String`.
    pub fn into_stream(self) -> ResultStream {
        ResultStream {
            iter: self.items.into_iter(),
            snap: self.snap,
            transient: self.transient,
        }
    }
}

impl IntoIterator for QueryResult {
    type Item = Item;
    type IntoIter = ResultStream;

    fn into_iter(self) -> ResultStream {
        self.into_stream()
    }
}

impl<'a> IntoIterator for &'a QueryResult {
    type Item = &'a Item;
    type IntoIter = std::slice::Iter<'a, Item>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

/// A streaming view of a query result: an iterator over the items that
/// still pins the snapshot/transient containers, so node items can be
/// serialized individually while streaming.
#[derive(Debug)]
pub struct ResultStream {
    iter: std::vec::IntoIter<Item>,
    snap: StoreSnapshot,
    transient: Arc<Document>,
}

impl ResultStream {
    /// Serialize one item (typically one just yielded by the iterator).
    pub fn serialize_item(&self, item: &Item) -> String {
        serialize_item_snapshot(&self.snap, &self.transient, item)
    }
}

impl Iterator for ResultStream {
    type Item = Item;

    fn next(&mut self) -> Option<Item> {
        self.iter.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.iter.size_hint()
    }
}

impl ExactSizeIterator for ResultStream {}

/// Diagnostics of one query execution: plan size and runtime counters.
#[derive(Debug, Clone, Default)]
pub struct QueryReport {
    /// Number of algebra operators in the compiled plan (the paper reports an
    /// average of 86 for XMark).
    pub plan_operators: usize,
    /// Runtime statistics.
    pub stats: ExecStats,
}

/// Diagnostics of one update execution.
#[derive(Debug, Clone, Default)]
pub struct UpdateReport {
    /// Number of updating statements in the executed text.
    pub statements: usize,
    /// Number of update primitives applied (after delete deduplication).
    pub primitives: usize,
    /// Number of distinct documents mutated.
    pub documents_touched: usize,
    /// Storage-level cost counters accumulated over the touched documents.
    pub stats: UpdateStats,
}

/// The outcome of [`Session::execute`] / [`Prepared::execute`]: a query
/// result or an update report, depending on what the statement text was.
#[derive(Debug)]
pub enum StatementResult {
    /// The statement was a query.
    Query(QueryResult),
    /// The statement was an XQuery Update Facility statement list.
    Update(UpdateReport),
}

impl StatementResult {
    /// True if the statement was an update.
    pub fn is_update(&self) -> bool {
        matches!(self, StatementResult::Update(_))
    }

    /// The query result, if the statement was a query.
    pub fn as_query(&self) -> Option<&QueryResult> {
        match self {
            StatementResult::Query(r) => Some(r),
            StatementResult::Update(_) => None,
        }
    }

    /// The update report, if the statement was an update.
    pub fn as_update(&self) -> Option<&UpdateReport> {
        match self {
            StatementResult::Update(r) => Some(r),
            StatementResult::Query(_) => None,
        }
    }

    /// Unwrap into a query result; errors if the statement was an update.
    pub fn into_query(self) -> Result<QueryResult, Error> {
        match self {
            StatementResult::Query(r) => Ok(r),
            StatementResult::Update(_) => Err(Error::WrongStatementKind { expected: "query" }),
        }
    }

    /// Unwrap into an update report; errors if the statement was a query.
    pub fn into_update(self) -> Result<UpdateReport, Error> {
        match self {
            StatementResult::Update(r) => Ok(r),
            StatementResult::Query(_) => Err(Error::WrongStatementKind { expected: "update" }),
        }
    }
}

// ---------------------------------------------------------------------------
// compiled statements and the plan cache
// ---------------------------------------------------------------------------

/// A parsed + compiled statement, shareable across sessions and threads.
#[derive(Debug)]
pub(crate) enum CompiledStatement {
    /// A compiled query plan.
    Query {
        plan: PlanRef,
        operators: usize,
        externals: Vec<String>,
        /// Property-driven rewrites the simplifier applied at compile time.
        rewrites: Vec<crate::analysis::Rewrite>,
    },
    /// A compiled update plan.
    Update {
        plan: UpdatePlan,
        externals: Vec<String>,
    },
}

impl CompiledStatement {
    fn externals(&self) -> &[String] {
        match self {
            CompiledStatement::Query { externals, .. } => externals,
            CompiledStatement::Update { externals, .. } => externals,
        }
    }
}

/// What [`Database::compile_cached`] returns: the plan of a text's shape
/// and the literals this text fills its parameter slots with.
pub(crate) struct Shaped {
    compiled: Arc<CompiledStatement>,
    literals: Vec<Item>,
    /// Served from the plan cache?
    hit: bool,
}

/// A plan-cache key: a statement's *shape* — the parsed statement with its
/// literals lifted into parameter slots ([`crate::compile::lift_literals`])
/// — under one configuration fingerprint.  Texts that differ only in lifted
/// constants (or in whitespace and comments) have equal keys.  The hash is
/// taken once, when the key is built, and serves both the shard choice and
/// the shard's map.
struct ShapeKey {
    hash: u64,
    fp: u64,
    shape: Statement,
}

impl ShapeKey {
    fn new(fp: u64, shape: Statement) -> Self {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        fp.hash(&mut h);
        shape.hash(&mut h);
        ShapeKey {
            hash: h.finish(),
            fp,
            shape,
        }
    }
}

impl PartialEq for ShapeKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.fp == other.fp && self.shape == other.shape
    }
}

impl Eq for ShapeKey {}

impl std::hash::Hash for ShapeKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// LRU cache of compiled statements keyed by statement shape.
struct PlanCache {
    capacity: usize,
    tick: u64,
    /// Shape → (compiled, last-used tick).
    map: HashMap<ShapeKey, (Arc<CompiledStatement>, u64)>,
}

impl PlanCache {
    fn new(capacity: usize) -> Self {
        PlanCache {
            capacity,
            tick: 0,
            map: HashMap::new(),
        }
    }

    fn get(&mut self, key: &ShapeKey) -> Option<Arc<CompiledStatement>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|entry| {
            entry.1 = tick;
            entry.0.clone()
        })
    }

    fn insert(&mut self, key: ShapeKey, stmt: Arc<CompiledStatement>) {
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            // evict the least recently used entry (linear scan: the cache is
            // small and eviction is rare compared to hits)
            if let Some(oldest) = self.map.values().map(|(_, tick)| *tick).min() {
                self.map.retain(|_, (_, tick)| *tick != oldest);
            }
        }
        self.tick += 1;
        self.map.insert(key, (stmt, self.tick));
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// Number of plan-cache shards.  Concurrent sessions hash their statement
/// onto a shard, so N preparing sessions serialize only when they collide
/// on one of the 8 shard mutexes instead of always on a single lock.
const PLAN_CACHE_SHARDS: usize = 8;

/// The plan cache split into [`PLAN_CACHE_SHARDS`] independently locked
/// LRUs.  Each shard gets an equal slice of the capacity; eviction is
/// per-shard (a shard's LRU entry goes when that shard fills), which
/// approximates global LRU well enough for a cache of compiled plans.
struct ShardedPlanCache {
    shards: Vec<Mutex<PlanCache>>,
}

impl ShardedPlanCache {
    fn new(capacity: usize) -> Self {
        let per_shard = capacity.div_ceil(PLAN_CACHE_SHARDS);
        ShardedPlanCache {
            shards: (0..PLAN_CACHE_SHARDS)
                .map(|_| Mutex::new(PlanCache::new(per_shard)))
                .collect(),
        }
    }

    fn shard(&self, key: &ShapeKey) -> &Mutex<PlanCache> {
        &self.shards[key.hash as usize % self.shards.len()]
    }

    fn get(&self, key: &ShapeKey) -> Option<Arc<CompiledStatement>> {
        self.shard(key).lock().unwrap().get(key)
    }

    fn insert(&self, key: ShapeKey, stmt: Arc<CompiledStatement>) {
        self.shard(&key).lock().unwrap().insert(key, stmt);
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }
}

// ---------------------------------------------------------------------------
// the database
// ---------------------------------------------------------------------------

/// One fragment's write latch: a mutex whose critical section is the whole
/// commit pipeline for that fragment (PUL application onto the master,
/// durability wait, publish).  The guarded slot holds the fragment's
/// mutable master, when one exists.
///
/// The master shares its pages and column image with the published
/// snapshot via `Arc` (copy-on-write per touched page), so keeping it
/// around costs no duplicate storage; an empty slot is reconstructed from
/// the published snapshot on the fragment's next update (cheap `Arc`
/// clones).  Invariant: between commits, a non-empty slot's content equals
/// the fragment's published state — a writer that mutated the master but
/// failed to publish (WAL append or group fsync error) clears the slot.
struct FragLatch {
    slot: Mutex<Option<PagedDocument>>,
}

/// The per-document latch table.  Writers latch the fragments their
/// pending-update list touches — written or read — in ascending fragment
/// order (so two writers overlapping on several documents can never
/// deadlock); disjoint-document writers take disjoint latches and run
/// fully in parallel.  A latch taken for a read-only fragment leaves the
/// master slot untouched; it is held purely so the fragment cannot be
/// republished while a commit that read from it is in flight.
#[derive(Default)]
struct LatchTable {
    map: Mutex<HashMap<u32, Arc<FragLatch>>>,
}

impl LatchTable {
    /// The latch for a fragment, created on first use.
    fn latch(&self, frag: u32) -> Arc<FragLatch> {
        self.map
            .lock()
            .unwrap()
            .entry(frag)
            .or_insert_with(|| {
                Arc::new(FragLatch {
                    slot: Mutex::new(None),
                })
            })
            .clone()
    }

    /// Drop a fragment's master if no writer currently holds its latch
    /// (used by checkpoint eviction).  Returns false when the latch is
    /// held — the fragment is mid-commit and must not be evicted.
    fn try_clear(&self, frag: u32) -> bool {
        let latch = {
            let map = self.map.lock().unwrap();
            match map.get(&frag) {
                Some(l) => l.clone(),
                None => return true,
            }
        };
        let cleared = match latch.slot.try_lock() {
            Ok(mut slot) => {
                *slot = None;
                true
            }
            Err(_) => false,
        };
        cleared
    }
}

/// The commit-ordering ticket.  `begin` hands out the generation a commit
/// will land on; `publish` is a turnstile that runs the publish closures
/// in strict ticket order, so the store generation stays the count of
/// committed tickets and readers observe commits in the order they were
/// stamped into the WAL.  A commit that fails after taking a ticket calls
/// `abort`, which lets the turnstile move past the hole (the skipped
/// generation is never published — recovery tolerates gaps because replay
/// orders by stamp, not by density).
struct CommitOrder {
    state: Mutex<CommitClock>,
}

struct CommitClock {
    /// The next generation to hand out.
    next_ticket: u64,
    /// The lowest ticket that has not yet published.
    next_publish: u64,
    /// Commits parked waiting for their turn, keyed by ticket.  Each
    /// publish unparks exactly its successor — a shared condvar broadcast
    /// would wake every waiter per advance (a thundering herd on the
    /// commit hot path when a group-commit batch drains).
    waiters: HashMap<u64, std::thread::Thread>,
}

impl CommitOrder {
    fn new(generation: u64) -> CommitOrder {
        CommitOrder {
            state: Mutex::new(CommitClock {
                next_ticket: generation + 1,
                next_publish: generation + 1,
                waiters: HashMap::new(),
            }),
        }
    }

    /// Take the next commit ticket.  Call only with every needed fragment
    /// latch already held — a ticket holder blocking on a latch held by a
    /// *later* ticket would deadlock the turnstile.
    fn begin(&self) -> u64 {
        let mut s = self.state.lock().unwrap();
        let t = s.next_ticket;
        s.next_ticket += 1;
        t
    }

    /// Reset both counters after recovery landed the store on `generation`.
    fn reset(&self, generation: u64) {
        let mut s = self.state.lock().unwrap();
        s.next_ticket = generation + 1;
        s.next_publish = generation + 1;
    }

    /// Wait for `ticket`'s turn, run the publish closure, advance the
    /// turnstile.
    fn publish<R>(&self, ticket: u64, f: impl FnOnce() -> R) -> R {
        let mut s = self.state.lock().unwrap();
        while s.next_publish != ticket {
            s.waiters.insert(ticket, std::thread::current());
            drop(s);
            // park() may return spuriously or from a stale unpark token;
            // the loop re-checks the turn either way
            std::thread::park();
            s = self.state.lock().unwrap();
        }
        s.waiters.remove(&ticket);
        let r = f();
        s.next_publish = ticket + 1;
        let successor = s.waiters.get(&s.next_publish).cloned();
        drop(s);
        if let Some(t) = successor {
            t.unpark();
        }
        r
    }

    /// Give up a ticket after a failed commit: take the turn and publish
    /// nothing, so later tickets are not stalled forever.
    fn abort(&self, ticket: u64) {
        self.publish(ticket, || ());
    }
}

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
    plan_cache: ShardedPlanCache,
    counters: Arc<Counters>,
    /// Durability attachment: present when the database was opened on a
    /// directory ([`Database::open`]); `None` for an in-memory database.
    durable: Option<Arc<Durable>>,
    /// The background checkpoint thread, when
    /// [`DurabilityOptions::checkpoint_interval`] is set.  Signalled to
    /// stop and joined when the database is dropped.
    background: Option<CheckpointThread>,
}

/// Handle on the background checkpoint thread: dropping it (with the
/// database) signals the thread to stop and joins it.
struct CheckpointThread {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for CheckpointThread {
    fn drop(&mut self) {
        *self.stop.0.lock().unwrap() = true;
        self.stop.1.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
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

/// Number of compiled statements the plan cache retains.
const PLAN_CACHE_CAPACITY: usize = 256;

impl Database {
    /// An empty in-memory database (no durability: nothing is written to
    /// disk, and dropping the database loses all documents).
    pub fn new() -> Self {
        Database {
            store: Arc::new(RwLock::new(DocStore::new())),
            latches: Arc::new(LatchTable::default()),
            commit: CommitOrder::new(0),
            plan_cache: ShardedPlanCache::new(PLAN_CACHE_CAPACITY),
            counters: Arc::new(Counters::default()),
            durable: None,
            background: None,
        }
    }

    /// Open (or create) a durable database rooted at `dir` with default
    /// [`DurabilityOptions`] (fsync on every WAL append, no eviction).
    ///
    /// If the directory holds an earlier database, its state is recovered:
    /// the last checkpoint's page images are loaded and the write-ahead
    /// log's complete records are replayed, which lands the store exactly on
    /// the last published generation.  A torn or corrupt log tail (a crash
    /// mid-append) is detected by checksum, discarded and truncated — the
    /// update it belonged to was never acknowledged, because
    /// update application syncs the log *before* it publishes.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, Error> {
        Self::open_with(dir, DurabilityOptions::default())
    }

    /// [`Database::open`] with explicit durability options.
    pub fn open_with(dir: impl AsRef<Path>, options: DurabilityOptions) -> Result<Self, Error> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| Error::Durability(e.into()))?;
        // debris from a crashed write_atomic: a temp file is meaningless
        // outside the write that created it
        durability::remove_stale_tmp_files(&dir);

        let mut db = Database::new();
        let mut replays: u64 = 0;
        let mut dirty = HashSet::new();

        // 1. last checkpoint: page images + the generation they capture
        let catalog = durability::read_catalog(&dir).map_err(Error::Durability)?;
        let checkpoint_generation = catalog.as_ref().map_or(0, |c| c.generation);
        let mut images: HashMap<u32, String> = HashMap::new();
        if let Some(cat) = &catalog {
            let mut store = db.store.write().unwrap();
            store.set_page_policy(cat.page_size, cat.fill_percent);
            for doc in &cat.docs {
                let bytes = std::fs::read(dir.join(&doc.file)).map_err(|e| {
                    Error::Durability(DurabilityError::Corrupt(format!(
                        "checkpoint image `{}` for document `{}` unreadable: {e}",
                        doc.file, doc.name
                    )))
                })?;
                let snap = decode_snapshot(&bytes).map_err(|e| Error::Durability(e.into()))?;
                let frag = store.add_paged(&doc.name, Arc::new(snap));
                if frag != doc.frag {
                    return Err(Error::Durability(DurabilityError::Corrupt(format!(
                        "catalog names fragment {} for `{}` but the store assigned {frag}",
                        doc.frag, doc.name
                    ))));
                }
                images.insert(doc.frag, doc.file.clone());
            }
            store.set_generation(cat.generation);
        }
        // image files the committed catalog does not reference were written
        // by a checkpoint that crashed before its commit point; the WAL
        // replay below re-derives whatever state they captured
        durability::remove_unreferenced_images(&dir, &images);

        // 2. replay the WAL's complete records past the checkpoint in
        //    generation order — concurrent commits interleave records in
        //    file order, but each record's stamp is its commit ticket, and
        //    per fragment the stamps are monotone (a later commit on the
        //    same document appended under the latch the earlier one had
        //    released), so stamp order is a valid replay order.
        //    WalWriter::open truncates any torn/corrupt tail.
        let (wal, mut scan) = WalWriter::open(&dir.join(WAL_FILE), options.sync)
            .map_err(|e| Error::Durability(e.into()))?;
        scan.records.sort_by_key(|r| r.generation);
        for record in &scan.records {
            if record.generation <= checkpoint_generation {
                // logged before the checkpoint that survived it — a crash
                // between catalog commit and log rotation leaves these
                continue;
            }
            let op = decode_op(&record.payload).map_err(Error::Durability)?;
            db.replay(op, record.generation, &mut dirty)?;
            replays += 1;
        }

        db.counters
            .recovery_replays
            .store(replays, Ordering::Relaxed);
        let durable = Arc::new(Durable::new(
            dir,
            options,
            wal,
            checkpoint_generation,
            images,
        ));
        durable.mark_dirty(&dirty.iter().copied().collect::<Vec<_>>());
        db.durable = Some(durable.clone());
        // commits resume ticketing from the recovered generation
        db.commit.reset(db.generation());

        // 3. the background checkpoint thread, if configured: wakes every
        //    interval, snapshots the dirty set and writes the checkpoint
        //    without holding any fragment latch
        if let Some(interval) = options.checkpoint_interval {
            let stop = Arc::new((Mutex::new(false), Condvar::new()));
            let thread_stop = stop.clone();
            let store = db.store.clone();
            let latches = db.latches.clone();
            let counters = db.counters.clone();
            let handle = std::thread::Builder::new()
                .name("mxq-checkpoint".into())
                .spawn(move || {
                    let (lock, cv) = &*thread_stop;
                    let mut stopped = lock.lock().unwrap();
                    while !*stopped {
                        let (guard, _) = cv.wait_timeout(stopped, interval).unwrap();
                        stopped = guard;
                        if *stopped {
                            break;
                        }
                        drop(stopped);
                        // a failed or skipped tick is retried next interval;
                        // the WAL still holds everything, durability is not
                        // weakened by a checkpoint that did not happen
                        if let Ok(true) =
                            run_checkpoint(&store, &latches, &durable, &counters, true)
                        {
                            counters
                                .background_checkpoints
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        stopped = lock.lock().unwrap();
                    }
                })
                .expect("failed to spawn the background checkpoint thread");
            db.background = Some(CheckpointThread {
                stop,
                handle: Some(handle),
            });
        }
        Ok(db)
    }

    /// Apply one recovered WAL operation and land the store on the
    /// generation its record was stamped with.  Fragments the operation
    /// created or mutated are added to `touched`: their on-disk images (if
    /// any) predate the operation, so the next checkpoint must rewrite them.
    fn replay(&self, op: WalOp, generation: u64, touched: &mut HashSet<u32>) -> Result<(), Error> {
        match op {
            WalOp::LoadXml { name, xml } => {
                let mut store = self.store.write().unwrap();
                touched.insert(store.load_xml(&name, &xml)?);
                store.set_generation(generation);
            }
            WalOp::LoadDoc { doc } => {
                let mut store = self.store.write().unwrap();
                touched.insert(store.add_document(*doc));
                store.set_generation(generation);
            }
            WalOp::Update { primitives } => {
                let mut pul = PendingUpdateList::new();
                for prim in primitives {
                    pul.add(prim).map_err(|e| {
                        Error::Durability(DurabilityError::Corrupt(format!(
                            "recovered update no longer applies: {e}"
                        )))
                    })?;
                }
                let snap = self.snapshot();
                let (page_size, fill_percent) = self.store.read().unwrap().page_policy();
                let frags = pul.fragments();
                let mut publishes = Vec::with_capacity(frags.len());
                for &frag in &frags {
                    let latch = self.latches.latch(frag);
                    let mut slot = latch.slot.lock().unwrap();
                    let paged_doc = match slot.as_mut() {
                        Some(doc) => doc,
                        None => {
                            slot.insert(reconstruct_master(&snap, frag, page_size, fill_percent))
                        }
                    };
                    pul.apply_to(frag, paged_doc);
                    publishes.push(Arc::new(paged_doc.snapshot()));
                }
                let mut store = self.store.write().unwrap();
                for (publish, &frag) in publishes.into_iter().zip(&frags) {
                    store.publish(frag, publish)?;
                }
                store.set_generation(generation);
                touched.extend(frags);
            }
        }
        Ok(())
    }

    /// Write a checkpoint: a fresh generation-stamped page image for every
    /// document changed since the last checkpoint (unchanged documents keep
    /// their existing image files — checkpoint I/O is proportional to what
    /// changed, not to the database size), then the catalog (the atomic
    /// commit point, naming the exact image files), then rotate the
    /// write-ahead log and delete superseded images.  After a checkpoint,
    /// recovery starts from the images instead of replaying the whole log.
    /// No-op (returning `Ok`) on an in-memory database.
    ///
    /// Checkpoints never hold a fragment latch: writers keep committing
    /// while the images are written, and records stamped after the snapshot
    /// survive the log rotation.  Concurrent `checkpoint()` calls (including
    /// the background thread's) serialize on an internal lock.
    ///
    /// If a memory budget is configured, clean documents are evicted after
    /// the checkpoint until the resident page bytes fit the budget.
    pub fn checkpoint(&self) -> Result<(), Error> {
        let Some(durable) = &self.durable else {
            return Ok(());
        };
        run_checkpoint(&self.store, &self.latches, durable, &self.counters, false).map(|_| ())
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

    /// Shred and load an XML document under the given name (the name is what
    /// `fn:doc("name")` refers to).  On a durable database the load is
    /// WAL-logged (and synced per the policy) before it is published, like
    /// any update.
    pub fn load_document(&self, name: &str, xml: &str) -> Result<(), Error> {
        // shred exactly once: an invalid document is rejected before it is
        // logged (recovery must never trip over a failed operation), and
        // the shredded result is what the store pages — the text is not
        // parsed a second time
        let opts = ShredOptions {
            document_node: true,
            ..ShredOptions::default()
        };
        let doc = shred(name, xml, &opts)?;
        self.commit_load(doc, |_| durability::encode_load_xml(name, xml))
    }

    /// Load an already shredded document.  WAL-logged on a durable database
    /// (the document travels as an encoded image).
    pub fn load_shredded(&self, doc: Document) -> Result<(), Error> {
        self.commit_load(doc, durability::encode_load_doc)
    }

    /// Commit a document load.  Loads take no fragment latch — the fragment
    /// does not exist yet, so no other writer can touch it; the commit
    /// ticket alone orders the load against every concurrent commit.  The
    /// fragment id is assigned inside the publish turnstile, so ids are
    /// dense in ticket order and recovery (which replays records in stamp
    /// order) reassigns the exact same ids.
    fn commit_load(
        &self,
        doc: Document,
        payload: impl FnOnce(&Document) -> Vec<u8>,
    ) -> Result<(), Error> {
        let ticket = self.commit.begin();
        let mut durable_seq = None;
        if let Some(durable) = &self.durable {
            let bytes = payload(&doc);
            match durable.append(ticket, &bytes) {
                Ok(seq) => durable_seq = Some(seq),
                Err(e) => {
                    self.commit.abort(ticket);
                    return Err(Error::Durability(e));
                }
            }
        }
        if let (Some(durable), Some(seq)) = (&self.durable, durable_seq) {
            if let Err(e) = durable.wait_durable(seq) {
                self.commit.abort(ticket);
                return Err(Error::Durability(e));
            }
        }
        self.commit.publish(ticket, || {
            let mut store = self.store.write().unwrap();
            let frag = store.add_document(doc);
            store.set_generation(ticket);
            // inside the store write critical section, like apply_update's
            // marks: a checkpoint capturing dirty set + snapshot under the
            // store read lock sees the load and its mark together
            if let Some(durable) = &self.durable {
                durable.mark_dirty(&[frag]);
            }
        });
        Ok(())
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
            plan_cache_len: self.plan_cache.len(),
        }
    }

    /// Tune the paged update scheme (logical page size in tuples, fill
    /// factor in percent).  Affects documents loaded or first paged after
    /// the call.
    ///
    /// # Panics
    /// Panics unless `page_size` is a power of two ≥ 2 and
    /// `fill_percent ∈ (0, 100]`.
    pub fn set_page_policy(&self, page_size: usize, fill_percent: u8) {
        // the store write lock orders this against publishes; a master
        // reconstructed concurrently keeps the previous policy until its
        // fragment is next rebuilt, which only affects layout, not content
        self.store
            .write()
            .unwrap()
            .set_page_policy(page_size, fill_percent);
    }

    /// The relational export ([`DocumentColumns`]) of a loaded document.
    /// Since the paged store became the source of truth this is no cache:
    /// the returned image is the one the store itself maintains
    /// incrementally — updates delta-patch it, so the handle is always
    /// current as of the call.  Returns `None` for unknown names.
    pub fn document_columns(&self, name: &str) -> Option<Arc<DocumentColumns>> {
        let store = self.store.read().unwrap();
        let frag = store.lookup(name)?;
        let snap = store
            .container_owned(frag)
            .paged_snapshot()
            .expect("loaded documents are always paged");
        Some(snap.columns_arc())
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

    // -- internals ---------------------------------------------------------

    /// Parse a statement text, lift its literals, and look up (or compile
    /// and insert) the plan of its shape under a configuration.
    pub(crate) fn compile_cached(&self, text: &str, config: ExecConfig) -> Result<Shaped, Error> {
        let mut shape = parse_statement(text)?;
        let literals = crate::compile::lift_literals(&mut shape);
        let key = ShapeKey::new(config.fingerprint(), shape);
        if let Some(compiled) = self.plan_cache.get(&key) {
            self.counters
                .plan_cache_hits
                .fetch_add(1, Ordering::Relaxed);
            return Ok(Shaped {
                compiled,
                literals,
                hit: true,
            });
        }
        self.counters
            .plan_cache_misses
            .fetch_add(1, Ordering::Relaxed);
        let compiled = Arc::new(self.compile_parsed(&key.shape, config)?);
        self.plan_cache.insert(key, compiled.clone());
        Ok(Shaped {
            compiled,
            literals,
            hit: false,
        })
    }

    /// Parse + compile a statement with its literals inline (no cache).
    pub(crate) fn compile_statement(
        &self,
        text: &str,
        config: ExecConfig,
    ) -> Result<CompiledStatement, Error> {
        self.compile_parsed(&parse_statement(text)?, config)
    }

    /// Compile a parsed statement, verify and simplify its plan.
    fn compile_parsed(
        &self,
        statement: &Statement,
        config: ExecConfig,
    ) -> Result<CompiledStatement, Error> {
        self.counters.prepares.fetch_add(1, Ordering::Relaxed);
        let mut compiler = Compiler::new(config);
        match statement {
            Statement::Query(q) => {
                let plan = compiler.compile_query(q)?;
                // static analysis: verify the compiled plan's structural
                // invariants, then let the inferred properties remove
                // provably redundant operators and strengthen order
                // annotations; the rewritten plan is verified again
                let analysis = crate::analysis::analyze(&plan);
                crate::analysis::verify(&plan, &analysis)?;
                let simplified = crate::analysis::simplify(&plan, &analysis);
                let plan = simplified.plan;
                let analysis = crate::analysis::analyze(&plan);
                crate::analysis::verify(&plan, &analysis)?;
                let operators = plan.operator_count();
                Ok(CompiledStatement::Query {
                    plan,
                    operators,
                    externals: compiler.external_variables().to_vec(),
                    rewrites: simplified.rewrites,
                })
            }
            Statement::Update(u) => {
                let plan = compiler.compile_update(u)?;
                let mut analysis = crate::analysis::Analysis::default();
                for root in plan.roots() {
                    analysis.extend_with(root);
                }
                for root in plan.roots() {
                    crate::analysis::verify(root, &analysis)?;
                }
                Ok(CompiledStatement::Update {
                    plan,
                    externals: compiler.external_variables().to_vec(),
                })
            }
        }
    }

    /// Execute a compiled statement against the current store state.
    pub(crate) fn execute_compiled(
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
    pub(crate) fn run_query_on(
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

    /// Evaluate a compiled update plan against `snap` and collect the
    /// validated pending-update list (phases 1 and 2 of a commit: snapshot
    /// evaluation of every statement's plans, then primitive collection).
    /// Pure with respect to the store — nothing is mutated.
    ///
    /// Also returns the **read set**: every store fragment the evaluation
    /// read (documents resolved by `fn:doc`, node items bound through
    /// external variables, container accesses, and the fragments of the
    /// evaluated target/source items the collector copies from).  The
    /// commit pipeline latches these along with the write set so the
    /// values this PUL was computed from stay frozen until it publishes.
    fn evaluate_update_pul(
        &self,
        uplan: &UpdatePlan,
        config: ExecConfig,
        params: &Params,
        snap: &StoreSnapshot,
    ) -> Result<(PendingUpdateList, Vec<u32>), Error> {
        // phase 1: snapshot evaluation of every statement's plans
        struct Evaled {
            kind: UpdateKind,
            targets: Vec<Item>,
            attr: Option<String>,
            source: Option<Vec<Item>>,
        }
        let mut evaled = Vec::with_capacity(uplan.statements.len());
        let transient;
        let reads;
        {
            let mut exec = Executor::with_params(snap, config, params.clone());
            for stmt in &uplan.statements {
                let (targets, attr) = match &stmt.target {
                    pul::UpdateTarget::Nodes(p) => (exec.eval_result(p)?, None),
                    pul::UpdateTarget::Attribute { elem, name } => {
                        (exec.eval_result(elem)?, Some(name.clone()))
                    }
                };
                let source = match &stmt.source {
                    Some(p) => Some(exec.eval_result(p)?),
                    None => None,
                };
                evaled.push(Evaled {
                    kind: stmt.kind,
                    targets,
                    attr,
                    source,
                });
            }
            reads = exec.read_fragments();
            // nodes constructed while evaluating sources live in the
            // executor's private transient container; the collector copies
            // their content into the primitives' own fragments, after which
            // the container is dropped with this function frame
            transient = exec.finish().0;
        }

        // the collector below reads target context and copies source
        // subtrees straight from the snapshot — fold those fragments into
        // the read set too (targets usually are the write set, but a
        // source node living in another document is a cross-document read)
        let mut reads: HashSet<u32> = reads.into_iter().collect();
        for ev in &evaled {
            for item in ev.targets.iter().chain(ev.source.iter().flatten()) {
                if let Item::Node(n) = item {
                    if n.frag != TRANSIENT_FRAG {
                        reads.insert(n.frag);
                    }
                }
            }
        }

        // phase 2: build the pending update list (validation + conflicts)
        let collector = PrimitiveCollector {
            snap,
            transient: &transient,
        };
        let mut pul = PendingUpdateList::new();
        for ev in &evaled {
            collector.collect(
                ev.kind,
                &ev.targets,
                ev.attr.as_deref(),
                &ev.source,
                &mut pul,
            )?;
        }
        let mut reads: Vec<u32> = reads.into_iter().collect();
        reads.sort_unstable();
        Ok((pul, reads))
    }

    /// Execute a compiled update plan: snapshot evaluation, pending-update
    /// list collection, atomic application to the paged store, eager
    /// re-materialization and publication of the touched documents.
    ///
    /// Writers touching disjoint documents run fully in parallel; writers
    /// that share a document — written *or read* by the update — queue on
    /// its fragment latch.  Latching the read set along with the write set
    /// keeps multi-writer execution serializable: an update that computes
    /// its new values from another document holds that document frozen
    /// from validation to publish, so no write-skew anomaly can commit.
    /// Publishes happen in commit-ticket order, so readers observe a
    /// linear history of atomic `Arc` swaps regardless of how the writers
    /// interleaved.
    ///
    /// One caveat short of full serializability: a `fn:doc` call that finds
    /// *no* document ("unknown document" error, or an update statement
    /// evaluating to the empty sequence because of it) has no fragment to
    /// latch, so a concurrent `load_document` is not serialized against it
    /// (a phantom).  Loads only ever add documents; they never change one
    /// an update could have read.
    pub(crate) fn apply_update(
        &self,
        uplan: &UpdatePlan,
        config: ExecConfig,
        params: &Params,
    ) -> Result<UpdateReport, Error> {
        loop {
            if let Some(report) = self.try_apply_update(uplan, config, params)? {
                return Ok(report);
            }
            // the fragment set changed between evaluation and latching
            // (another writer's commit moved a target into or out of a
            // document we had not latched) — rare; rerun the whole
            // pipeline on a fresh snapshot
        }
    }

    /// One attempt at committing an update plan.  Returns `Ok(None)` when
    /// the attempt must be restarted because re-evaluation under the
    /// latches produced a different fragment set.
    fn try_apply_update(
        &self,
        uplan: &UpdatePlan,
        config: ExecConfig,
        params: &Params,
    ) -> Result<Option<UpdateReport>, Error> {
        let snap = self.snapshot();
        let (mut pul, reads) = self.evaluate_update_pul(uplan, config, params, &snap)?;
        let frags = pul.fragments();
        if frags.is_empty() {
            // nothing to do: no latch, no ticket, no WAL record
            self.counters.updates.fetch_add(1, Ordering::Relaxed);
            return Ok(Some(UpdateReport {
                statements: uplan.statements.len(),
                primitives: 0,
                documents_touched: 0,
                stats: UpdateStats::default(),
            }));
        }

        // the latch scope is the union of the write set and the read set,
        // in ascending fragment order (two writers latching overlapping
        // sets cannot deadlock).  Latching the reads too is what makes
        // multi-writer commits serializable: an update that reads document
        // B while writing document A holds B's latch from validation to
        // publish, so no concurrent commit can republish B under the
        // values this PUL was computed from (write skew).  Reads are
        // usually a subset of the writes, in which case this degenerates
        // to the plain write-set latching and disjoint-document writers
        // still share nothing.
        let scope = latch_scope(&frags, &reads);
        let latches: Vec<Arc<FragLatch>> = scope.iter().map(|&f| self.latches.latch(f)).collect();
        let mut guards: Vec<MutexGuard<'_, Option<PagedDocument>>> =
            Vec::with_capacity(latches.len());
        for latch in &latches {
            let guard = if let Ok(guard) = latch.slot.try_lock() {
                guard
            } else {
                self.counters.latch_waits.fetch_add(1, Ordering::Relaxed);
                latch.slot.lock().unwrap()
            };
            guards.push(guard);
        }

        // validation: if any latched fragment (read or written) was
        // republished since `snap`, the PUL may be stale (targets' pre
        // ranks shifted, or read values changed) — re-evaluate against the
        // current snapshot, now that the latches freeze these fragments.
        // Containers compare by pointer identity: a publish always
        // installs a fresh Arc.  One store read serves the generation
        // probe, the page policy, and (only when the generation moved) the
        // fresh snapshot — this runs once per commit, so it must not clone
        // store state in the common unconflicted case.
        let (latest, page_size, fill_percent) = {
            let store = self.store.read().unwrap();
            let (page_size, fill_percent) = store.page_policy();
            let latest = if store.generation() == snap.generation() {
                snap.clone()
            } else {
                store.snapshot()
            };
            (latest, page_size, fill_percent)
        };
        let stale = snap.generation() != latest.generation()
            && scope.iter().any(|&f| !same_container(&snap, &latest, f));
        if stale {
            self.counters
                .latch_conflicts
                .fetch_add(1, Ordering::Relaxed);
            let (repul, rereads) = self.evaluate_update_pul(uplan, config, params, &latest)?;
            if repul.fragments() != frags || latch_scope(&repul.fragments(), &rereads) != scope {
                // the rewritten plan touches (or reads) different documents
                // than we latched — drop the guards and restart from scratch
                return Ok(None);
            }
            pul = repul;
        }

        // the commit ticket is the generation this commit lands on.  Taken
        // only now, with every latch held: a writer inside the publish
        // turnstile can then never wait on a latch (it owns all it needs),
        // so the turnstile cannot deadlock against the latch queues.
        let ticket = self.commit.begin();

        // durability, part 1: the WAL record must be appended *before* any
        // master mutates.  On failure the masters are untouched and the
        // ticket is abandoned (the turnstile skips it).
        let mut durable_seq = None;
        if let Some(durable) = &self.durable {
            let payload = durability::encode_update(pul.primitives());
            match durable.append(ticket, &payload) {
                Ok(seq) => durable_seq = Some(seq),
                Err(e) => {
                    self.commit.abort(ticket);
                    return Err(Error::Durability(e));
                }
            }
        }

        // phase 3: apply the PUL to each latched master — page-local
        // splices plus lockstep delta-patching of the column image, all
        // outside any store lock (readers keep running on their snapshots,
        // and writers on other documents keep committing)
        let mut applied = 0;
        let mut stats = UpdateStats::default();
        let mut publishes = Vec::with_capacity(frags.len());
        for (guard, &frag) in guards.iter_mut().zip(&scope) {
            if frags.binary_search(&frag).is_err() {
                // read-only latch: held for stability, nothing to apply
                continue;
            }
            let paged_doc = match guard.as_mut() {
                Some(doc) => doc,
                // reconstructing the master from the published snapshot is
                // O(pages) Arc clones — pages copy on first write; `latest`
                // matches the published state for every latched fragment
                // (validated above or re-evaluated)
                None => guard.insert(reconstruct_master(&latest, frag, page_size, fill_percent)),
            };
            let before = paged_doc.stats;
            applied += pul.apply_to(frag, paged_doc);
            stats.accumulate(&paged_doc.stats.delta_since(&before));

            // differential guard: the incrementally patched column image
            // must agree exactly with a from-scratch rebuild of the same
            // page state (debug builds only — this is O(document))
            #[cfg(debug_assertions)]
            paged_doc
                .columns()
                .same_content(&DocumentColumns::new(&paged_doc.to_document()))
                .expect("incremental column maintenance diverged from rebuild");

            publishes.push(Arc::new(paged_doc.snapshot()));
        }

        // durability, part 2: under group commit the record must be covered
        // by an fsync before the commit becomes visible.  On failure the
        // mutated masters diverge from the published state — clear the
        // slots so the next writer on these documents reconstructs from the
        // (unchanged) published snapshots.
        if let (Some(durable), Some(seq)) = (&self.durable, durable_seq) {
            if let Err(e) = durable.wait_durable(seq) {
                for (guard, &frag) in guards.iter_mut().zip(&scope) {
                    if frags.binary_search(&frag).is_ok() {
                        **guard = None;
                    }
                }
                self.commit.abort(ticket);
                return Err(Error::Durability(e));
            }
        }

        // phase 4: publish in ticket order — the store critical section is
        // one Arc swap per touched document plus the generation store, so
        // readers observe the update as a whole or not at all
        let published = self.commit.publish(ticket, || {
            let mut store = self.store.write().unwrap();
            for (publish, &frag) in publishes.iter().zip(&frags) {
                store.publish(frag, publish.clone())?;
            }
            store.set_generation(ticket);
            // dirty marks happen INSIDE the store write critical section
            // (lock order: store → ckpt), so a checkpoint capturing the
            // dirty set under the store read lock sees this commit's marks
            // and its published containers together or not at all
            if let Some(durable) = &self.durable {
                durable.mark_dirty(&frags);
            }
            Ok::<(), Error>(())
        });
        if let Err(e) = published {
            // unreachable in practice (latched fragments exist and are not
            // transient); restore the slot invariant all the same.  Note
            // the commit's WAL record is already durable at this point and
            // cannot be unwound (later writers' records may sit behind it)
            // — were this path ever reached, the statement's outcome would
            // be indeterminate across a crash.
            for (guard, &frag) in guards.iter_mut().zip(&scope) {
                if frags.binary_search(&frag).is_ok() {
                    **guard = None;
                }
            }
            return Err(e);
        }
        self.counters.updates.fetch_add(1, Ordering::Relaxed);
        Ok(Some(UpdateReport {
            statements: uplan.statements.len(),
            primitives: applied,
            documents_touched: frags.len(),
            stats,
        }))
    }
}

// ---------------------------------------------------------------------------
// commit helpers (latch-side, no `Database` borrow)
// ---------------------------------------------------------------------------

/// Reconstruct a fragment's write master from its published container
/// (cheap: `O(pages)` Arc clones — pages copy on first write; an evicted
/// document faults its pages back in from the checkpoint image first).
fn reconstruct_master(
    snap: &StoreSnapshot,
    frag: u32,
    page_size: usize,
    fill_percent: u8,
) -> PagedDocument {
    match snap.container_owned(frag) {
        Container::Doc(d) => PagedDocument::from_document(&d, page_size, fill_percent),
        other => {
            let p = other
                .paged_snapshot()
                .expect("loaded documents are always paged");
            PagedDocument::from_snapshot(&p, page_size, fill_percent)
        }
    }
}

/// The latch scope of a commit: the union of its write set and read set,
/// ascending and deduplicated (both inputs are sorted fragment lists).
fn latch_scope(writes: &[u32], reads: &[u32]) -> Vec<u32> {
    let mut scope: Vec<u32> = writes.iter().chain(reads).copied().collect();
    scope.sort_unstable();
    scope.dedup();
    scope
}

/// True when `frag` resolves to the same published container in both
/// snapshots.  Pointer identity suffices: every publish installs a fresh
/// `Arc`, so an equal pointer means no commit republished the fragment
/// between the two snapshots.
fn same_container(a: &StoreSnapshot, b: &StoreSnapshot, frag: u32) -> bool {
    match (a.container_owned(frag), b.container_owned(frag)) {
        (Container::Doc(x), Container::Doc(y)) => Arc::ptr_eq(&x, &y),
        (Container::Paged(x), Container::Paged(y)) => Arc::ptr_eq(&x, &y),
        (Container::Evicted(x), Container::Evicted(y)) => Arc::ptr_eq(&x, &y),
        _ => false,
    }
}

/// The checkpoint pipeline shared by [`Database::checkpoint`] and the
/// background thread.  Returns `Ok(true)` when a checkpoint was written,
/// `Ok(false)` when `skip_if_clean` found nothing to do.
///
/// Lock discipline: never holds a fragment latch, and takes the
/// checkpoint-state mutex only while already holding the store lock
/// (store → ckpt) — the same order writers use (`mark_dirty` inside the
/// store write critical section of the publish turnstile), so
/// checkpointing can neither stall commits for long nor deadlock them,
/// and the dirty set always moves atomically with the store generation.
fn run_checkpoint(
    store: &RwLock<DocStore>,
    latches: &LatchTable,
    durable: &Durable,
    counters: &Counters,
    skip_if_clean: bool,
) -> Result<bool, Error> {
    // one checkpoint at a time; writers are NOT excluded
    let _serial = durable.checkpoint_serial.lock().unwrap();

    // capture the dirty set and the snapshot ATOMICALLY with respect to
    // publishes: commits mark their fragments dirty inside the store
    // write-lock critical section, and this capture holds the store read
    // lock across both reads, so every commit is either entirely before it
    // (dirty mark and published container both visible — the images below
    // capture its effect) or entirely after it (its record is stamped past
    // the snapshot generation and survives the log rotation).  Capturing
    // the two under different locks would let a commit fall between them:
    // stale image reused AND record rotated away — an acknowledged, fsynced
    // commit silently lost on the next crash.
    let (dirty_before, images_before, snap, page_size, fill_percent) = {
        let store = store.read().unwrap();
        let mut ckpt = durable.ckpt.lock().unwrap();
        if skip_if_clean && ckpt.dirty.is_empty() {
            let wal_len = durable.wal.lock().unwrap().bytes_appended();
            if wal_len == ckpt.wal_bytes_at_checkpoint {
                return Ok(false);
            }
        }
        let (ps, fp) = store.page_policy();
        (
            std::mem::take(&mut ckpt.dirty),
            ckpt.images.clone(),
            store.snapshot(),
            ps,
            fp,
        )
    };
    let generation = snap.generation();

    // 1. page images for every named document (fragment 0 is the
    //    transient container).  Image files are immutable: a dirty or
    //    never-imaged fragment gets a fresh generation-stamped file,
    //    while a clean fragment's existing image already is exactly its
    //    current state and is referenced as-is (no write, and for an
    //    evicted document no fault-in either).  Nothing the previous
    //    catalog references is touched, so a crash anywhere in this
    //    checkpoint leaves that checkpoint fully intact and consistent
    //    with the surviving WAL.
    let mut docs = Vec::new();
    for frag in 1..snap.container_count() as u32 {
        let container = snap.container_owned(frag);
        let reuse = if dirty_before.contains(&frag) {
            None
        } else {
            images_before.get(&frag).cloned()
        };
        let file = match reuse {
            Some(file) => file,
            None => {
                let file = doc_file_name(frag, generation);
                let image = container
                    .paged_snapshot()
                    .expect("loaded documents are always paged");
                mxq_wal::write_atomic(&durable.file(&file), &encode_snapshot(&image))
                    .map_err(|e| Error::Durability(e.into()))?;
                file
            }
        };
        docs.push(CatalogDoc {
            frag,
            name: container.name().to_string(),
            file,
        });
    }

    // 2. the catalog — written atomically, this is the commit point;
    //    it names the exact image files (reused and new) just captured
    let catalog = Catalog {
        generation,
        page_size,
        fill_percent,
        docs,
    };
    mxq_wal::write_atomic(
        &durable.file(CATALOG_FILE),
        &durability::encode_catalog(&catalog),
    )
    .map_err(|e| Error::Durability(e.into()))?;

    // 3. rotate the log: records stamped at or before the snapshot
    //    generation are captured by the images (they were published — and
    //    under group commit a record is only appended durable-then-
    //    published, so nothing the images missed is dropped); records
    //    stamped later belong to commits that raced this checkpoint and
    //    are kept for the next one
    let wal_bytes = durable.rotate_wal(generation).map_err(Error::Durability)?;

    // 4. bookkeeping: fragments dirtied since the take above were
    //    re-inserted by their commits and stay dirty for the next round
    let images: HashMap<u32, String> = catalog
        .docs
        .iter()
        .map(|d| (d.frag, d.file.clone()))
        .collect();
    {
        let mut ckpt = durable.ckpt.lock().unwrap();
        ckpt.checkpoint_generation = generation;
        ckpt.images = images.clone();
        ckpt.wal_bytes_at_checkpoint = wal_bytes;
    }
    counters.checkpoints.fetch_add(1, Ordering::Relaxed);

    // now that the catalog committed, images it no longer references
    // (superseded by this checkpoint, or debris of an earlier crashed
    // one) are dead: no recovery path can need them
    durability::remove_unreferenced_images(&durable.dir, &images);

    // 5. eviction: now every clean document has a current on-disk image,
    //    so clean ones can be dropped down to the memory budget.  A held
    //    fragment latch means a writer is committing — skip, never wait.
    if let Some(budget) = durable.options.memory_budget {
        // read the dirty set while holding the store write lock (same
        // order as commits): a commit publishing between a free-standing
        // dirty read and the lock acquisition could otherwise be evicted
        // as "clean" onto its stale pre-commit image
        let mut store = store.write().unwrap();
        let dirty_now = durable.ckpt.lock().unwrap().dirty.clone();
        for frag in 1..store.container_count() as u32 {
            if store.resident_page_bytes() <= budget {
                break;
            }
            if !store.is_resident(frag) {
                continue;
            }
            if dirty_now.contains(&frag) {
                continue;
            }
            let Some(file) = images.get(&frag) else {
                continue;
            };
            // the master copy pins the pages: only evict if the latch is
            // free and its slot can be cleared right now
            if !latches.try_clear(frag) {
                continue;
            }
            let _ = store.evict_paged(frag, durable.file(file));
        }
    }
    Ok(true)
}

// ---------------------------------------------------------------------------
// update primitive collection (snapshot-side validation)
// ---------------------------------------------------------------------------

/// Turns evaluated update statements into validated [`UpdatePrimitive`]s,
/// reading node properties from the snapshot and constructed content from
/// the evaluating executor's transient container.
struct PrimitiveCollector<'a> {
    snap: &'a StoreSnapshot,
    transient: &'a Document,
}

impl PrimitiveCollector<'_> {
    fn container(&self, frag: u32) -> ContainerRef<'_> {
        if frag == TRANSIENT_FRAG {
            ContainerRef::Doc(self.transient)
        } else {
            self.snap.container(frag)
        }
    }

    /// Turn one evaluated statement into update primitives.
    fn collect(
        &self,
        kind: UpdateKind,
        targets: &[Item],
        attr: Option<&str>,
        source: &Option<Vec<Item>>,
        pul: &mut PendingUpdateList,
    ) -> Result<(), Error> {
        // attribute-addressed statements (delete/replace value/rename @name)
        if let Some(name) = attr {
            match kind {
                // `delete nodes …/@name` accepts any number of owning
                // elements (bulk attribute strip); a missing attribute is an
                // empty target and deletes nothing
                UpdateKind::Delete => {
                    for item in targets {
                        let elem = self.node_target(item, "attribute delete")?;
                        self.require_kind(elem, &[NodeKind::Element], "attribute owner")?;
                        pul.add(UpdatePrimitive::RemoveAttribute {
                            elem,
                            name: name.to_string(),
                        })?;
                    }
                }
                // `replace value of node …/@name` upserts: when the
                // attribute is missing it is created.  This is a deliberate
                // extension — the subset has no computed attribute
                // constructors, so this is its attribute-insertion form.
                UpdateKind::ReplaceValue => {
                    let elem = self.single_node(targets, "replace value of attribute")?;
                    self.require_kind(elem, &[NodeKind::Element], "attribute owner")?;
                    pul.add(UpdatePrimitive::SetAttribute {
                        elem,
                        name: name.to_string(),
                        value: self.source_string(source),
                    })?;
                }
                UpdateKind::Rename => {
                    let elem = self.single_node(targets, "rename attribute")?;
                    self.require_kind(elem, &[NodeKind::Element], "attribute owner")?;
                    // renaming a non-existent attribute is an empty target
                    if self
                        .container(elem.frag)
                        .attribute(elem.pre, name)
                        .is_none()
                    {
                        return Err(PulError::ExactlyOne {
                            what: "rename attribute",
                            got: 0,
                        }
                        .into());
                    }
                    let new_name = self.source_string(source);
                    if !pul::valid_qname(&new_name) {
                        return Err(PulError::InvalidName(new_name).into());
                    }
                    pul.add(UpdatePrimitive::RenameAttribute {
                        elem,
                        name: name.to_string(),
                        new_name,
                    })?;
                }
                _ => unreachable!("compiler rejects other attribute-target kinds"),
            }
            return Ok(());
        }

        match kind {
            UpdateKind::InsertInto { first } => {
                let parent = self.single_node(targets, "insert into")?;
                self.require_kind(
                    parent,
                    &[NodeKind::Element, NodeKind::Document],
                    "insert target",
                )?;
                let content = self.materialize_content(source.as_deref().unwrap_or(&[]));
                if !content.is_empty() {
                    pul.add(UpdatePrimitive::InsertInto {
                        parent,
                        first,
                        content,
                    })?;
                }
            }
            UpdateKind::InsertBefore | UpdateKind::InsertAfter => {
                let target = self.single_node(targets, "insert before/after")?;
                self.require_non_root(target)?;
                let content = self.materialize_content(source.as_deref().unwrap_or(&[]));
                if !content.is_empty() {
                    pul.add(if kind == UpdateKind::InsertBefore {
                        UpdatePrimitive::InsertBefore { target, content }
                    } else {
                        UpdatePrimitive::InsertAfter { target, content }
                    })?;
                }
            }
            UpdateKind::Delete => {
                for item in targets {
                    let target = self.node_target(item, "delete")?;
                    self.require_non_root(target)?;
                    pul.add(UpdatePrimitive::Delete { target })?;
                }
            }
            UpdateKind::ReplaceNode => {
                let target = self.single_node(targets, "replace node")?;
                self.require_non_root(target)?;
                let content = self.materialize_content(source.as_deref().unwrap_or(&[]));
                pul.add(UpdatePrimitive::ReplaceNode { target, content })?;
            }
            UpdateKind::ReplaceValue => {
                let target = self.single_node(targets, "replace value of node")?;
                pul.add(UpdatePrimitive::ReplaceValue {
                    target,
                    value: self.source_string(source),
                })?;
            }
            UpdateKind::Rename => {
                let target = self.single_node(targets, "rename node")?;
                self.require_kind(
                    target,
                    &[NodeKind::Element, NodeKind::ProcessingInstruction],
                    "rename target",
                )?;
                let name = self.source_string(source);
                if !pul::valid_qname(&name) {
                    return Err(PulError::InvalidName(name).into());
                }
                pul.add(UpdatePrimitive::Rename { target, name })?;
            }
        }
        Ok(())
    }

    fn node_target(&self, item: &Item, what: &'static str) -> Result<NodeId, Error> {
        let node = item.as_node().ok_or(PulError::NotANode(what))?;
        if node.frag == TRANSIENT_FRAG {
            return Err(PulError::TransientTarget.into());
        }
        Ok(node)
    }

    fn single_node(&self, targets: &[Item], what: &'static str) -> Result<NodeId, Error> {
        if targets.len() != 1 {
            return Err(PulError::ExactlyOne {
                what,
                got: targets.len(),
            }
            .into());
        }
        self.node_target(&targets[0], what)
    }

    fn require_kind(&self, node: NodeId, kinds: &[NodeKind], what: &str) -> Result<(), Error> {
        let kind = self.container(node.frag).kind(node.pre);
        if kinds.contains(&kind) {
            Ok(())
        } else {
            Err(PulError::WrongTargetKind(format!("{what} has node kind {kind:?}")).into())
        }
    }

    /// Structural updates must keep the document rooted: fragment roots
    /// (document nodes / root elements at level 0) cannot be deleted,
    /// replaced or given siblings.
    fn require_non_root(&self, node: NodeId) -> Result<(), Error> {
        if self.container(node.frag).level(node.pre) == 0 {
            return Err(PulError::TargetIsRoot.into());
        }
        Ok(())
    }

    /// Copy an evaluated content sequence into a private fragment document
    /// by the element-content rules (XQUF inserts copies; see
    /// [`DocumentBuilder::append_content`]).
    fn materialize_content(&self, items: &[Item]) -> Document {
        let mut b = DocumentBuilder::new("#update-content");
        b.append_content(items.iter().cloned(), |frag| Some(self.container(frag)));
        b.finish()
    }

    /// The string value of a source sequence (for `replace value of` and
    /// `rename`): item string values joined by single spaces.
    fn source_string(&self, source: &Option<Vec<Item>>) -> String {
        let Some(items) = source else {
            return String::new();
        };
        items
            .iter()
            .map(|i| match i {
                Item::Node(n) => self.container(n.frag).string_value(n.pre),
                atomic => atomic.string_value(),
            })
            .collect::<Vec<_>>()
            .join(" ")
    }
}

// ---------------------------------------------------------------------------
// sessions
// ---------------------------------------------------------------------------

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
        match self.db.compile_statement(query, self.config)? {
            CompiledStatement::Query { plan, .. } => Ok(plan),
            CompiledStatement::Update { .. } => {
                Err(Error::WrongStatementKind { expected: "query" })
            }
        }
    }

    /// Compile a query and render its plan annotated with the statically
    /// inferred properties of every operator, followed by the
    /// property-driven rewrites the simplifier applied.
    pub fn explain(&self, query: &str) -> Result<String, Error> {
        match self.db.compile_statement(query, self.config)? {
            CompiledStatement::Query { plan, rewrites, .. } => {
                let analysis = crate::analysis::analyze(&plan);
                let mut out = crate::analysis::explain_annotated(&plan, &analysis);
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

// ---------------------------------------------------------------------------
// prepared statements
// ---------------------------------------------------------------------------

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
    db: Arc<Database>,
    config: ExecConfig,
    text: String,
    compiled: Arc<CompiledStatement>,
    /// The literals of `text`, filling the parameter slots of the (shared,
    /// shape-keyed) plan at every execution.
    literals: Vec<Item>,
    /// The store generation observed by the most recent execution (the
    /// prepare-time generation before the first).  Every execution takes a
    /// fresh snapshot — a dormant `Prepared` never pins old document
    /// versions — and compares its generation against this to detect that
    /// an update invalidated whatever the previous execution read
    /// ([`Prepared::revalidations`]).
    last_generation: AtomicU64,
    executions: AtomicU64,
    revalidations: AtomicU64,
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
        let mut params = Params::new();
        params.set(name, value);
        Binder {
            prepared: self,
            params,
        }
    }

    /// Start a binding chain with a sequence-valued binding.
    pub fn bind_seq(&self, name: impl Into<String>, values: Vec<Item>) -> Binder<'_> {
        let mut params = Params::new();
        params.set_seq(name, values);
        Binder {
            prepared: self,
            params,
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

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with(xml: &str) -> Arc<Database> {
        let db = Arc::new(Database::new());
        db.load_document("doc.xml", xml).unwrap();
        db
    }

    #[test]
    fn database_and_prepared_are_shareable() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Database>();
        assert_send_sync::<Prepared>();
        assert_send_sync::<QueryResult>();
        assert_send_sync::<StoreSnapshot>();
    }

    #[test]
    fn session_executes_queries_and_updates_through_one_entry_point() {
        let db = db_with("<a><b/></a>");
        let mut s = db.session();
        let r = s.execute("count(doc(\"doc.xml\")/a/b)").unwrap();
        assert_eq!(r.as_query().unwrap().serialize(), "1");
        let r = s
            .execute("insert nodes <b/> as last into doc(\"doc.xml\")/a")
            .unwrap();
        assert!(r.is_update());
        let r = s.execute("count(doc(\"doc.xml\")/a/b)").unwrap();
        assert_eq!(r.as_query().unwrap().serialize(), "2");
        assert_eq!(s.stats().queries, 2);
        assert_eq!(s.stats().updates, 1);
    }

    #[test]
    fn plan_cache_serves_repeated_executions() {
        let db = db_with("<a><b/><b/></a>");
        let mut s = db.session();
        let q = "count(doc(\"doc.xml\")/a/b)";
        for _ in 0..5 {
            assert_eq!(s.query(q).unwrap().serialize(), "2");
        }
        let stats = db.stats();
        assert_eq!(stats.prepares, 1, "compiled once");
        assert_eq!(stats.plan_cache_hits, 4);
        assert_eq!(stats.plan_cache_misses, 1);
        assert!(stats.plan_cache_hit_rate().unwrap() > 0.7);
        // a different config fingerprint compiles separately
        let mut naive = db.session_with_config(ExecConfig::naive());
        assert_eq!(naive.query(q).unwrap().serialize(), "2");
        assert_eq!(db.stats().prepares, 2);
    }

    #[test]
    fn plan_cache_never_shared_across_execution_affecting_config() {
        // Configs differing ONLY in validate_plans must not share a cached
        // plan: it changes how a statement executes.
        let db = db_with("<a><b/><b/></a>");
        let q = "count(doc(\"doc.xml\")/a/b)";
        let mut base = db.session();
        assert_eq!(base.query(q).unwrap().serialize(), "2");
        let prepares_before = db.stats().prepares;
        let mut validating = db.session_with_config(ExecConfig {
            validate_plans: true,
            ..ExecConfig::default()
        });
        assert_eq!(validating.query(q).unwrap().serialize(), "2");
        assert_eq!(
            db.stats().prepares,
            prepares_before + 1,
            "validate_plans-only difference must miss the plan cache"
        );
        // and re-running the config hits its own cached plan
        assert_eq!(validating.query(q).unwrap().serialize(), "2");
        assert_eq!(db.stats().prepares, prepares_before + 1);
    }

    #[test]
    fn prepared_external_variables_bind_per_execution() {
        let db = db_with("<a><v>1</v><v>2</v><v>3</v></a>");
        let mut s = db.session();
        let stmt = s
            .prepare(
                "declare variable $min external; \
                 count(for $v in doc(\"doc.xml\")/a/v where $v/text() >= $min return $v)",
            )
            .unwrap();
        assert_eq!(stmt.external_variables(), ["min"]);
        assert!(!stmt.is_update());
        let r = stmt.bind("min", 2).query().unwrap();
        assert_eq!(r.serialize(), "2");
        let r = stmt.bind("min", 99).query().unwrap();
        assert_eq!(r.serialize(), "0");
        assert_eq!(stmt.executions(), 2);
        // unbound without default is an execution-time error
        assert!(matches!(stmt.execute(), Err(Error::Exec(_))));
    }

    #[test]
    fn external_variable_defaults_apply_when_unbound() {
        let db = db_with("<a/>");
        let mut s = db.session();
        let stmt = s
            .prepare("declare variable $x external := 7; $x * 2")
            .unwrap();
        assert_eq!(
            stmt.execute().unwrap().into_query().unwrap().serialize(),
            "14"
        );
        assert_eq!(stmt.bind("x", 5).query().unwrap().serialize(), "10");
    }

    #[test]
    fn prepared_snapshot_invalidated_by_updates() {
        let db = db_with("<a><b/></a>");
        let mut s = db.session();
        let stmt = s.prepare("count(doc(\"doc.xml\")//b)").unwrap();
        assert_eq!(
            stmt.execute().unwrap().into_query().unwrap().serialize(),
            "1"
        );
        // repeated executions without intervening writes reuse the snapshot
        assert_eq!(
            stmt.execute().unwrap().into_query().unwrap().serialize(),
            "1"
        );
        assert_eq!(stmt.revalidations(), 0);
        s.execute_update("insert nodes <b/> as last into doc(\"doc.xml\")/a")
            .unwrap();
        // the generation moved: the cached snapshot is dropped, not read
        assert_eq!(
            stmt.execute().unwrap().into_query().unwrap().serialize(),
            "2"
        );
        assert_eq!(stmt.revalidations(), 1);
    }

    #[test]
    fn results_stream_and_pin_their_snapshot() {
        let db = db_with("<a><v>1</v><v>2</v></a>");
        let mut s = db.session();
        let result = s.query("doc(\"doc.xml\")/a/v").unwrap();
        // mutate after the result was produced: the result must not change
        s.execute_update("delete nodes doc(\"doc.xml\")/a/v[1]")
            .unwrap();
        let stream = result.into_stream();
        assert_eq!(stream.len(), 2);
        let rendered: Vec<String> = {
            let mut out = Vec::new();
            let mut stream = stream;
            while let Some(item) = stream.next() {
                out.push(stream.serialize_item(&item));
            }
            out
        };
        assert_eq!(rendered, ["<v>1</v>", "<v>2</v>"]);
        // streaming entry point
        let items: Vec<Item> = s
            .execute_streaming("doc(\"doc.xml\")/a/v/text()")
            .unwrap()
            .collect();
        assert_eq!(items.len(), 1);
    }

    #[test]
    fn wrong_statement_kind_is_reported() {
        let db = db_with("<a/>");
        let mut s = db.session();
        assert!(matches!(
            s.query("delete nodes doc(\"doc.xml\")/a/b"),
            Err(Error::WrongStatementKind { expected: "query" })
        ));
        assert!(matches!(
            s.execute_update("1 + 1"),
            Err(Error::WrongStatementKind { expected: "update" })
        ));
    }

    #[test]
    fn sharded_plan_cache_counters_add_up_under_concurrent_prepares() {
        // N sessions hammer the cache with overlapping statement shapes; the
        // shards must never lose a lookup: every compile_cached call is
        // exactly one hit or one miss, whatever the interleaving.
        let db = db_with("<a><b/></a>");
        let queries: Vec<String> = [
            "count(doc(\"doc.xml\")/a/b) + 1",
            "count(doc(\"doc.xml\")/a/b) - 1",
            "count(doc(\"doc.xml\")/a) + 1",
            "count(doc(\"doc.xml\")//b) + 1",
            "sum(doc(\"doc.xml\")/a/b) + 1",
            "count(doc(\"doc.xml\")/a/b[1]) + 1",
        ]
        .map(String::from)
        .to_vec();
        let mut lookups = 0u64;
        std::thread::scope(|scope| {
            for t in 0..4 {
                let db = &db;
                let queries = &queries;
                scope.spawn(move || {
                    let mut s = db.session();
                    for round in 0..5 {
                        let q = &queries[(t + round) % queries.len()];
                        s.query(q).unwrap();
                    }
                });
            }
        });
        lookups += 4 * 5;
        let stats = db.stats();
        assert_eq!(
            stats.plan_cache_hits + stats.plan_cache_misses,
            lookups,
            "every lookup is exactly one hit or one miss"
        );
        assert_eq!(
            stats.plan_cache_misses, stats.prepares,
            "every miss compiled exactly once"
        );
        // all six shapes fit the cache, so they are all resident (across
        // whatever shards they hashed to) and a re-run is all hits
        assert_eq!(db.plan_cache.len(), queries.len());
        let mut s = db.session();
        for q in &queries {
            s.query(q).unwrap();
        }
        let after = db.stats();
        assert_eq!(after.plan_cache_hits, stats.plan_cache_hits + 6);
        assert_eq!(after.plan_cache_misses, stats.plan_cache_misses);

        // texts that differ only in a lifted literal share one entry
        for i in 2..=7 {
            let r = s
                .query(&format!("count(doc(\"doc.xml\")/a/b) + {i}"))
                .unwrap();
            assert_eq!(r.serialize(), (1 + i).to_string());
        }
        let variants = db.stats();
        assert_eq!(variants.plan_cache_hits, after.plan_cache_hits + 6);
        assert_eq!(variants.prepares, after.prepares);
        assert_eq!(db.plan_cache.len(), queries.len());
    }

    #[test]
    fn plan_cache_evicts_least_recently_used() {
        let mut cache = PlanCache::new(2);
        let key = |t: &str| ShapeKey::new(0, parse_statement(t).unwrap());
        let stmt = |t: &str| {
            Arc::new(CompiledStatement::Update {
                plan: UpdatePlan {
                    statements: Vec::new(),
                },
                externals: vec![t.to_string()],
            })
        };
        cache.insert(key("a"), stmt("a"));
        cache.insert(key("b"), stmt("b"));
        assert!(cache.get(&key("a")).is_some()); // a is now more recent than b
        cache.insert(key("c"), stmt("c"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key("b")).is_none(), "b was evicted");
        assert!(cache.get(&key("a")).is_some());
        assert!(cache.get(&key("c")).is_some());
        // the fingerprint is part of the key
        assert!(cache
            .get(&ShapeKey::new(1, parse_statement("a").unwrap()))
            .is_none());
    }

    #[test]
    fn update_read_set_includes_documents_it_only_reads() {
        let db = db_with("<a><v>1</v></a>"); // loads doc.xml
        db.load_document("other.xml", "<b><w>2</w></b>").unwrap();
        let mut s = db.session();
        let prepared = s
            .prepare(
                "replace value of node doc(\"doc.xml\")/a/v \
                 with string(doc(\"other.xml\")/b/w)",
            )
            .unwrap();
        let CompiledStatement::Update { plan, .. } = &*prepared.compiled else {
            panic!("expected an update statement");
        };
        let snap = db.snapshot();
        let (pul, reads) = db
            .evaluate_update_pul(plan, ExecConfig::default(), &Params::new(), &snap)
            .unwrap();
        let a = db.store().lookup("doc.xml").unwrap();
        let b = db.store().lookup("other.xml").unwrap();
        assert_eq!(pul.fragments(), vec![a], "only doc.xml is written");
        assert!(
            reads.contains(&b),
            "read-only document missing from the read set: {reads:?}"
        );
        // the latch scope commits take is the sorted union of both sets
        let scope = latch_scope(&pul.fragments(), &reads);
        assert!(scope.contains(&a) && scope.contains(&b));
        assert!(scope.windows(2).all(|w| w[0] < w[1]), "scope is ascending");
    }

    #[test]
    fn failed_group_fsync_poisons_the_log_and_rolls_back_the_record() {
        let dir = std::env::temp_dir().join(format!("mxq-db-poison-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let opts = DurabilityOptions {
            sync: mxq_wal::SyncPolicy::GroupCommit(std::time::Duration::from_micros(100)),
            memory_budget: None,
            checkpoint_interval: None,
        };
        let db = Arc::new(Database::open_with(&dir, opts).unwrap());
        db.load_document("doc.xml", "<a><v>0</v></a>").unwrap();
        let mut s = db.session();
        s.execute("replace value of node doc(\"doc.xml\")/a/v with \"1\"")
            .unwrap();
        assert!(!db.stats().wal_poisoned);
        let durable = db.durable.clone().unwrap();
        let watermark = durable.wal.lock().unwrap().len();
        durable.wal.lock().unwrap().inject_sync_failures(1);

        // the leader of the failing batch gets the underlying I/O error...
        let err = s
            .execute("replace value of node doc(\"doc.xml\")/a/v with \"2\"")
            .unwrap_err();
        assert!(
            matches!(err, Error::Durability(DurabilityError::Wal(_))),
            "leader error: {err:?}"
        );
        // ...the failed record is truncated back out to the durable
        // watermark, and the log is poisoned
        assert_eq!(durable.wal.lock().unwrap().len(), watermark);
        assert!(db.stats().wal_poisoned);

        // every later durable commit fails closed with Poisoned
        let err = s
            .execute("replace value of node doc(\"doc.xml\")/a/v with \"3\"")
            .unwrap_err();
        assert!(
            matches!(err, Error::Durability(DurabilityError::Poisoned)),
            "post-poison error: {err:?}"
        );
        assert_eq!(durable.wal.lock().unwrap().len(), watermark);

        // failed updates were never published: reads still see "1"
        let r = s.execute("string(doc(\"doc.xml\")/a/v)").unwrap();
        assert_eq!(r.as_query().unwrap().serialize(), "1");

        drop(s);
        drop(durable);
        drop(db);

        // reopen: only the acknowledged commit replays, the log is clean
        // again, and commits work
        let db = Arc::new(Database::open_with(&dir, opts).unwrap());
        assert!(!db.stats().wal_poisoned);
        let mut s = db.session();
        let r = s.execute("string(doc(\"doc.xml\")/a/v)").unwrap();
        assert_eq!(r.as_query().unwrap().serialize(), "1");
        s.execute("replace value of node doc(\"doc.xml\")/a/v with \"4\"")
            .unwrap();
        let r = s.execute("string(doc(\"doc.xml\")/a/v)").unwrap();
        assert_eq!(r.as_query().unwrap().serialize(), "4");
        drop(s);
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
