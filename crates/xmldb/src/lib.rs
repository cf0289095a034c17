//! # mxq-xmldb — relational XML storage
//!
//! This crate implements the XML storage layer of MonetDB/XQuery
//! (Sections 2 and 5 of the paper):
//!
//! * the **pre|size|level encoding** of XML documents ([`Document`]), in which
//!   every node is identified by its preorder rank, carries the number of
//!   nodes in its subtree (`size`) and its depth (`level`); the postorder rank
//!   is recoverable as `post = pre + size - level`;
//! * **property containers** for the different node kinds (element/attribute
//!   qualified names, text and comment content, processing-instruction
//!   target/value pairs) referenced from the structural table;
//! * a **document shredder** ([`shred()`](shred::shred)) that parses XML text into the
//!   encoding with sequential writes, and a **serializer** ([`serialize`])
//!   that reconstructs XML text with sequential reads;
//! * a **relational image** ([`columns`]): dense structural, text and
//!   attribute columns with dictionary-encoded names (`Column::Dict` over
//!   shared sorted dictionaries), cut into chunks — the only store of a
//!   loaded document, **incrementally maintained** by the paged update
//!   path (delta-patched per primitive, never rebuilt);
//! * a **document store** ([`store::DocStore`]) holding one container per
//!   loaded document — loaded documents live in the **paged store**
//!   ([`update::PagedSnapshot`]), the single source of truth shared by the
//!   query and the update path.  Nodes constructed during evaluation go
//!   into the statement's own transient [`Document`], fragment 0, which
//!   the store never holds;
//! * the **canonical read API** ([`read::NodeRead`]) every representation
//!   implements: pre/size/level/name-id/text/attribute cursors plus
//!   storage-run summaries that let scans skip whole chunks;
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
pub mod read;
pub mod serialize;
pub mod shred;
pub mod store;
pub mod update;

pub use columns::DocumentColumns;
pub use disk::{decode_document, decode_snapshot, encode_document, encode_snapshot, DiskError};
pub use doc::{Document, DocumentBuilder};
pub use node::{AttrRow, NodeKind};
pub use read::{AttrsIter, NamedRun, NodeRead};
pub use serialize::{serialize_document, serialize_node};
pub use shred::{shred, ShredError, ShredOptions};
pub use store::{
    Container, ContainerRef, DocStore, EvictedPaged, StoreError, StoreSnapshot, TRANSIENT_FRAG,
};
pub use update::{NaiveDocument, PagedDocument, PagedSnapshot, StructuralUpdate, UpdateStats};
