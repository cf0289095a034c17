//! The document store: the "loaded documents table" of Figure 9.
//!
//! A [`DocStore`] keeps one container per loaded XML document.  Nodes are
//! addressed by [`NodeId`] = (fragment id, preorder rank); loaded documents
//! are fragments 1, 2, ….  Fragment 0 ([`TRANSIENT_FRAG`]) is not in the
//! store: it names the transient [`Document`] of the statement being
//! evaluated, which receives the nodes its element constructors build.
//! Every statement owns its own transient, and
//! [`StoreSnapshot::resolve`] is the one place that maps fragment 0 to it.
//!
//! **The paged store is the source of truth**: a loaded document is its
//! chunked column image ([`crate::columns::DocumentColumns`], whose chunks
//! are the logical pages of [`crate::update::PagedDocument`]), and the
//! store keeps only the published immutable view — an [`Arc<Document>`]
//! pinning that image.  Loading a shredded document is an `Arc` wrap: the
//! shredder already wrote the image.  Readers address a loaded document
//! and a statement's transient alike as a `&Document`.
//!
//! Containers are held behind [`Arc`] so that a [`StoreSnapshot`] — the
//! immutable view a query executes against — is a cheap clone of the
//! container list.  Publishing an updated image ([`DocStore::publish`])
//! swaps one `Arc` and bumps the store **generation counter**; snapshots
//! taken before the swap keep the old chunks alive, which is what gives
//! concurrent readers snapshot isolation for free.

use std::collections::HashMap;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use mxq_engine::NodeId;

use crate::disk::decode_snapshot;
use crate::doc::Document;
use crate::node::NodeKind;
use crate::shred::{shred, ShredError, ShredOptions};

/// Fragment id of a statement's transient container (its constructed
/// nodes); never the id of a loaded document.
pub const TRANSIENT_FRAG: u32 = 0;

/// Errors from store mutations addressed by fragment id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// The fragment id does not name a loaded document.
    UnknownFragment(u32),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::UnknownFragment(frag) => write!(f, "unknown fragment id {frag}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Position of fragment `frag` in a container list.  Loaded documents are
/// fragments 1, 2, …; fragment 0 (and any unknown id) maps out of range.
fn slot(frag: u32) -> usize {
    (frag as usize).wrapping_sub(1)
}

/// A clean paged document whose image was dropped from memory under an
/// eviction budget.  The on-disk image (written by a checkpoint) is the
/// backing copy; the first read after eviction faults the snapshot back in
/// and caches it for the lifetime of this container value.
///
/// Snapshots taken *before* the eviction still pin the old image — eviction
/// frees memory only once those snapshots are dropped, which is the same
/// grace rule `publish` follows.
#[derive(Debug)]
pub struct EvictedPaged {
    name: String,
    path: PathBuf,
    cell: OnceLock<Arc<Document>>,
}

impl EvictedPaged {
    /// The backing image path.
    pub fn path(&self) -> &PathBuf {
        &self.path
    }

    /// True if the snapshot has been faulted back in since eviction.
    pub fn is_loaded(&self) -> bool {
        self.cell.get().is_some()
    }

    /// The snapshot, reading the on-disk image on first access.
    ///
    /// # Panics
    /// Panics if the backing file is unreadable or corrupt.  Only clean,
    /// checkpointed documents are ever evicted, so a failure here means the
    /// durable copy itself was damaged after the fact — there is no
    /// in-memory fallback, and a read path cannot return an error.
    pub fn fault_in(&self) -> &Arc<Document> {
        self.cell.get_or_init(|| {
            let bytes = std::fs::read(&self.path).unwrap_or_else(|e| {
                panic!(
                    "evicted document {:?}: backing image {:?} unreadable: {e}",
                    self.name, self.path
                )
            });
            let snap = decode_snapshot(&bytes).unwrap_or_else(|e| {
                panic!(
                    "evicted document {:?}: backing image {:?} corrupt: {e}",
                    self.name, self.path
                )
            });
            Arc::new(snap)
        })
    }
}

/// One loaded document of the store: the published page-backed view, or
/// an evicted document backed by its on-disk image.
#[derive(Debug, Clone)]
pub enum Container {
    /// The published view of a paged document (its column image).
    Paged(Arc<Document>),
    /// A clean paged document dropped under a memory budget; reads fault
    /// it back in from the checkpoint image.
    Evicted(Arc<EvictedPaged>),
}

impl Container {
    /// The container name.
    pub fn name(&self) -> &str {
        match self {
            Container::Paged(p) => &p.name,
            Container::Evicted(e) => &e.name,
        }
    }

    /// The published document behind this container, faulting an evicted
    /// one back in on the first call.
    pub fn document(&self) -> &Arc<Document> {
        match self {
            Container::Paged(p) => p,
            Container::Evicted(e) => e.fault_in(),
        }
    }
}

/// The loaded documents, addressable by fragment id or name.
#[derive(Debug, Default)]
pub struct DocStore {
    /// Fragment `f` is `containers[f - 1]`.
    containers: Vec<Container>,
    /// Shared with snapshots: `snapshot()` is on the commit hot path, so
    /// the name table is copy-on-write (`Arc::make_mut` on load) rather
    /// than cloned per snapshot.
    by_name: Arc<HashMap<String, u32>>,
    /// Bumped on every mutation of the loaded-documents table (load,
    /// publish).  Snapshots carry the generation they were taken at, so
    /// cached state derived from a snapshot can be revalidated with one
    /// integer compare.
    generation: u64,
}

impl DocStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The fragment ids of the loaded documents, in load order.
    pub fn fragments(&self) -> Range<u32> {
        1..self.containers.len() as u32 + 1
    }

    /// The current store generation.  Every call that changes which document
    /// contents a name resolves to (loading, publishing after an update)
    /// increments it.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Load an already shredded document: its column image is the paged
    /// view.  Returns the fragment id.
    pub fn add_document(&mut self, doc: Document) -> u32 {
        let name = doc.name.clone();
        self.add_paged(&name, Arc::new(doc))
    }

    /// Register a published paged view under a name, returning its fragment
    /// id.
    pub fn add_paged(&mut self, name: &str, snap: Arc<Document>) -> u32 {
        self.containers.push(Container::Paged(snap));
        let frag = self.containers.len() as u32;
        Arc::make_mut(&mut self.by_name).insert(name.to_string(), frag);
        self.generation += 1;
        frag
    }

    /// Shred and load an XML text under the given name.  A document node is
    /// materialised so that `fn:doc(name)/rootelement/…` navigates as in the
    /// XQuery data model.
    pub fn load_xml(&mut self, name: &str, xml: &str) -> Result<u32, ShredError> {
        let opts = ShredOptions {
            document_node: true,
            ..ShredOptions::default()
        };
        let doc = shred(name, xml, &opts)?;
        Ok(self.add_document(doc))
    }

    /// Fragment id of the document loaded under `name` (as used by `fn:doc`).
    pub fn lookup(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    /// Publish an updated image for the container at `frag` (the
    /// fragment id — and with it every `NodeId` namespace — stays stable).
    /// This is the writer's whole critical section: one `Arc` swap.
    /// Snapshots taken before the call keep observing the old image.
    ///
    /// Fails with [`StoreError`] if the fragment id names no loaded
    /// document; the store is left untouched.
    pub fn publish(&mut self, frag: u32, snap: Arc<Document>) -> Result<(), StoreError> {
        let container = self
            .containers
            .get_mut(slot(frag))
            .ok_or(StoreError::UnknownFragment(frag))?;
        *container = Container::Paged(snap);
        self.generation += 1;
        Ok(())
    }

    /// Borrow a container by fragment id.
    ///
    /// # Panics
    /// Panics if the fragment id names no loaded document.
    pub fn container(&self, frag: u32) -> &Document {
        self.containers[slot(frag)].document()
    }

    /// Shared handle to a container by fragment id (cheap `Arc` clone).
    ///
    /// # Panics
    /// Panics if the fragment id names no loaded document.
    pub fn container_owned(&self, frag: u32) -> Container {
        self.containers[slot(frag)].clone()
    }

    /// An immutable, shareable view of all loaded documents as of now.
    /// Cloning the snapshot is cheap (it clones `Arc`s, not documents).
    pub fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot {
            containers: self.containers.clone(),
            by_name: self.by_name.clone(),
            generation: self.generation,
        }
    }

    /// Total number of nodes over all loaded documents (diagnostics).
    pub fn total_nodes(&self) -> usize {
        self.containers.iter().map(|c| c.document().len()).sum()
    }

    /// Force the generation counter (crash recovery replays a WAL whose
    /// records are stamped with the generations the original publishes
    /// produced; after replay the store must report the same generation the
    /// pre-crash store did, so stamps stay comparable across restarts).
    pub fn set_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    /// Drop a clean paged document's image from memory, leaving a fault-in
    /// stub backed by the on-disk image at `path` (which the caller — the
    /// checkpoint logic — has already written).  Reads fault the snapshot
    /// back in transparently; the generation does not change, because the
    /// logical content does not.  A document that was evicted earlier and
    /// faulted back in by a read is evicted again the same way: the loaded
    /// stub is replaced by a fresh unloaded one, so a memory budget stays
    /// enforceable across fault-ins.
    ///
    /// Fails if the fragment names no loaded document.
    pub fn evict_paged(&mut self, frag: u32, path: PathBuf) -> Result<(), StoreError> {
        let container = self
            .containers
            .get_mut(slot(frag))
            .ok_or(StoreError::UnknownFragment(frag))?;
        let stub = EvictedPaged {
            name: container.name().to_string(),
            path,
            cell: OnceLock::new(),
        };
        *container = Container::Evicted(Arc::new(stub));
        Ok(())
    }

    /// True if the fragment's image is resident in memory (loaded, or
    /// evicted and faulted back in).
    pub fn is_resident(&self, frag: u32) -> bool {
        match self.containers.get(slot(frag)) {
            Some(Container::Evicted(e)) => e.is_loaded(),
            Some(Container::Paged(_)) => true,
            None => false,
        }
    }

    /// Approximate bytes of resident column images over all loaded
    /// documents (the quantity an eviction budget is compared against).
    /// Evicted-but-not-faulted documents contribute nothing.
    pub fn resident_page_bytes(&self) -> usize {
        self.containers
            .iter()
            .map(|c| match c {
                Container::Paged(p) => p.approx_bytes(),
                Container::Evicted(e) => e.cell.get().map_or(0, |p| p.approx_bytes()),
            })
            .sum()
    }
}

/// An immutable view of a [`DocStore`] at a point in time.
///
/// A snapshot is what a query executes against: it pins every loaded
/// document's column image (via `Arc`), so a concurrent
/// writer publishing an update can never pull the data out from under a
/// running query or an already produced result.  The
/// [`StoreSnapshot::generation`] records which store state the snapshot
/// reflects; comparing it against [`DocStore::generation`] tells whether
/// the snapshot is still current.
#[derive(Debug, Clone)]
pub struct StoreSnapshot {
    containers: Vec<Container>,
    by_name: Arc<HashMap<String, u32>>,
    generation: u64,
}

impl StoreSnapshot {
    /// The store generation this snapshot was taken at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The fragment ids of the loaded documents, in load order.
    pub fn fragments(&self) -> Range<u32> {
        1..self.containers.len() as u32 + 1
    }

    /// Borrow a loaded document by fragment id.
    ///
    /// # Panics
    /// Panics if the fragment id names no loaded document.
    pub fn container(&self, frag: u32) -> &Document {
        self.containers[slot(frag)].document()
    }

    /// Resolve a fragment id for a statement evaluated against this
    /// snapshot: fragment 0 is the statement's own `transient` container,
    /// every other id a loaded document.
    ///
    /// # Panics
    /// Panics if a nonzero fragment id names no loaded document.
    pub fn resolve<'a>(&'a self, transient: &'a Document, frag: u32) -> &'a Document {
        if frag == TRANSIENT_FRAG {
            transient
        } else {
            self.container(frag)
        }
    }

    /// Shared handle to a container (cheap `Arc` clone).
    ///
    /// # Panics
    /// Panics if the fragment id names no loaded document.
    pub fn container_owned(&self, frag: u32) -> Container {
        self.containers[slot(frag)].clone()
    }

    /// Fragment id of the document loaded under `name`.
    pub fn lookup(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    /// The root node of the document loaded under `name`: its document
    /// node, or without one its document element (the comments and PIs
    /// around it are fragment roots too).
    pub fn document_root(&self, name: &str) -> Option<NodeId> {
        let frag = self.lookup(name)?;
        let doc = self.container(frag);
        let is_root = |&pre: &u32| matches!(doc.kind(pre), NodeKind::Element | NodeKind::Document);
        let pre = doc.fragment_roots().find(is_root)?;
        Some(NodeId::new(frag, pre))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::DocumentBuilder;
    use crate::update::PagedDocument;

    #[test]
    fn load_lookup_and_roots() {
        let mut store = DocStore::new();
        let frag = store.load_xml("doc.xml", "<a><b/></a>").unwrap();
        assert_eq!(frag, 1);
        assert_eq!(store.lookup("doc.xml"), Some(1));
        assert_eq!(store.lookup("other.xml"), None);
        let root = store.snapshot().document_root("doc.xml").unwrap();
        assert_eq!(root, NodeId::new(1, 0));
        // the root is the document node; its single child is the `a` element
        let doc = store.container(root.frag);
        let first_child = doc.children(root.pre).next().unwrap();
        assert_eq!(doc.name_of(first_child), "a");
    }

    /// Constructed fragments append to the statement's own transient,
    /// which fragment 0 resolves to; the store never holds them.
    #[test]
    fn construct_appends_fragments_to_transient() {
        let mut store = DocStore::new();
        let frag = store.load_xml("doc.xml", "<a><b>hi</b></a>").unwrap();
        let gen_before = store.generation();
        let snap = store.snapshot();
        let mut builder = DocumentBuilder::new("#transient");
        let n1 = builder.start_element("greeting");
        builder.copy_subtree(snap.container(frag), 2);
        builder.end_element();
        let mut builder = DocumentBuilder::append_to(builder.finish());
        let n2 = builder.start_element("other");
        builder.end_element();
        let transient = builder.finish();
        assert!(n1 < n2);
        assert!(transient.fragment_roots().eq([n1, n2]));
        let resolved = snap.resolve(&transient, TRANSIENT_FRAG);
        assert!(std::ptr::eq(resolved, &transient));
        assert_eq!(resolved.string_value(n1), "hi");
        assert_eq!(resolved.name_of(n2), "other");
        assert_eq!(snap.resolve(&transient, frag).name_of(1), "a");
        // the store holds the loaded document only, unchanged
        assert_eq!(store.fragments(), 1..2);
        assert_eq!(store.generation(), gen_before);
        assert_eq!(store.total_nodes(), 4);
    }

    #[test]
    fn multiple_documents_get_distinct_fragments() {
        let mut store = DocStore::new();
        let a = store.load_xml("a.xml", "<a/>").unwrap();
        let b = store.load_xml("b.xml", "<b/>").unwrap();
        assert_ne!(a, b);
        assert_eq!(store.fragments(), 1..3);
        assert_eq!(store.total_nodes(), 4);
    }

    #[test]
    fn publish_to_bad_fragment_is_an_error_not_an_abort() {
        let mut store = DocStore::new();
        let frag = store.load_xml("a.xml", "<a/>").unwrap();
        let snap = store.container_owned(frag).document().clone();
        let gen_before = store.generation();
        assert_eq!(
            store.publish(TRANSIENT_FRAG, snap.clone()),
            Err(StoreError::UnknownFragment(TRANSIENT_FRAG))
        );
        assert_eq!(
            store.publish(999, snap.clone()),
            Err(StoreError::UnknownFragment(999))
        );
        assert_eq!(
            store.evict_paged(42, PathBuf::from("unused")),
            Err(StoreError::UnknownFragment(42))
        );
        // failed publishes leave the store untouched
        assert_eq!(store.generation(), gen_before);
        assert!(store.publish(frag, snap).is_ok());
        assert_eq!(store.generation(), gen_before + 1);
    }

    #[test]
    fn snapshots_pin_replaced_documents() {
        let mut store = DocStore::new();
        let frag = store.load_xml("a.xml", "<a><old/></a>").unwrap();
        let before = store.snapshot();
        let gen_before = store.generation();

        let opts = ShredOptions {
            document_node: true,
            ..ShredOptions::default()
        };
        let doc = shred("a.xml", "<a><new/></a>", &opts).unwrap();
        let paged = PagedDocument::from_document(&doc);
        store.publish(frag, Arc::new(paged.snapshot())).unwrap();

        assert!(store.generation() > gen_before);
        assert_eq!(before.generation(), gen_before);
        // the snapshot still sees the pre-replacement tree
        let root = before.document_root("a.xml").unwrap();
        let a = before.container(frag).children(root.pre).next().unwrap();
        let child = before.container(frag).children(a).next().unwrap();
        assert_eq!(before.container(frag).name_of(child), "old");
        // the store sees the replacement
        let now = store.container(frag);
        let a = now.children(root.pre).next().unwrap();
        let child = now.children(a).next().unwrap();
        assert_eq!(now.name_of(child), "new");
    }

    #[test]
    fn paged_container_reads_match_flat_shred() {
        let xml = "<site a=\"1\"><item><name>x</name></item><item/><!--c--></site>";
        let mut store = DocStore::new();
        let frag = store.load_xml("d.xml", xml).unwrap();
        let opts = ShredOptions {
            document_node: true,
            ..ShredOptions::default()
        };
        let flat = shred("d.xml", xml, &opts).unwrap();
        let paged = store.container(frag);
        assert_eq!(paged.len(), flat.len());
        for p in 0..flat.len() as u32 {
            assert_eq!(paged.size(p), flat.size(p), "size at {p}");
            assert_eq!(paged.level(p), flat.level(p), "level at {p}");
            assert_eq!(paged.kind(p), flat.kind(p), "kind at {p}");
            assert_eq!(paged.name_of(p), flat.name_of(p), "name at {p}");
            assert_eq!(paged.text_of(p), flat.text_of(p), "text at {p}");
            assert_eq!(paged.parent(p), flat.parent(p), "parent at {p}");
            assert_eq!(paged.string_value(p), flat.string_value(p));
        }
        assert_eq!(paged.attribute(1, "a"), Some("1"));
        let item = paged.lookup_qname("item").unwrap();
        let run = paged.run_named(0, item);
        let items: Vec<u32> = run.offsets.iter().map(|o| run.base + o).collect();
        assert_eq!(items, flat.elements_named("item"));
    }
}
