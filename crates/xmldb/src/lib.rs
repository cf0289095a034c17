//! # mxq-xmldb — relational XML storage
//!
//! This crate implements the XML storage layer of MonetDB/XQuery
//! (Sections 2 and 5 of the paper):
//!
//! * the **pre|size|level encoding** of XML documents ([`Document`]), in which
//!   every node is identified by its preorder rank, carries the number of
//!   nodes in its subtree (`size`) and its depth (`level`); the postorder rank
//!   is recoverable as `post = pre + size - level`;
//! * **one node container** for every producer: a [`Document`] is a chunked
//!   **relational image** ([`columns`]) — dense structural, text and
//!   attribute columns whose names and values are interned
//!   ([`mxq_engine::Dictionary`]: append-only, a code never moves; an
//!   attribute step hands out value codes as a `Column::Dict` over the
//!   image's shared value interner).  The shredder, element construction, XQUF
//!   insert sources, the on-disk decoders and the statement's transient all
//!   produce it, so one set of kernels reads it;
//! * a **document builder** ([`DocumentBuilder`]) that writes the image in
//!   preorder straight into its chunks — the one row writer, which the
//!   on-disk decoders and the naive update scheme also write through — a
//!   **document shredder**
//!   ([`shred()`](shred::shred)) that parses XML text through it, and a
//!   **serializer** ([`serialize`]) that reconstructs XML text with one
//!   sequential walk over the rows;
//! * a **document store** ([`store::DocStore`]) holding one published
//!   [`Document`] per loaded document — the single source of truth shared
//!   by the query and the update path, **incrementally maintained** by the
//!   paged update scheme (delta-patched per primitive, never rebuilt).
//!   Nodes constructed during evaluation go into the statement's own
//!   transient [`Document`], fragment 0, which the store never holds;
//! * one **read API**, the methods of [`Document`]: pre/size/level/name-id/
//!   text/attribute cursors plus storage-run summaries that let scans skip
//!   whole chunks;
//! * the **structural update scheme** of Section 5.2 ([`update`]): chunk-wise
//!   remappable pre-numbers (chunks `Arc`-shared with published snapshots,
//!   copied on first write, split when they outgrow their row target),
//!   compared against a naive renumbering baseline;
//! * **on-disk images** ([`disk`]): one checksummed page per chunk.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod columns;
pub mod disk;
pub mod doc;
pub mod node;
pub mod serialize;
pub mod shred;
pub mod store;
pub mod update;

pub use columns::{AttrsIter, DocumentColumns, NamedRun};
pub use disk::{decode_document, decode_snapshot, encode_document, encode_snapshot, DiskError};
pub use doc::{Document, DocumentBuilder};
pub use node::NodeKind;
pub use serialize::{serialize_document, serialize_node};
pub use shred::{shred, ShredError, ShredOptions};
pub use store::{Container, DocStore, EvictedPaged, StoreError, StoreSnapshot, TRANSIENT_FRAG};
pub use update::{NaiveDocument, PagedDocument, StructuralUpdate, UpdateStats};
