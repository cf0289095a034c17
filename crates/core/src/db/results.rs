//! What a statement returns.
//!
//! **Owns** the result types handed to clients: [`QueryResult`] and its
//! streaming form [`ResultStream`], the diagnostics [`QueryReport`] and
//! [`UpdateReport`], and [`StatementResult`], which is one or the other.
//! A query result pins the store snapshot and the transient container it
//! was produced against, so it stays readable while writers commit.
//!
//! **May call** only the executor's serializers; it never touches the
//! store, a latch or the log.

use std::sync::{Arc, OnceLock};

use mxq_engine::Item;
use mxq_xmldb::{Document, StoreSnapshot, UpdateStats};

use crate::config::ExecStats;
use crate::exec::{serialize_item_snapshot, serialize_items_snapshot};
use crate::Error;

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

/// The outcome of [`Session::execute`](super::Session::execute) /
/// [`Prepared::execute`](super::Prepared::execute): a query result or an
/// update report, depending on what the statement text was.
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
