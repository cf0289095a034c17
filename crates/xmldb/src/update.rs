//! Structural updates on the pre|size|level encoding (Section 5.2, Fig. 10/11).
//!
//! A subtree insert shifts the `pre` rank of every following node and grows
//! the `size` of every ancestor.  The paper's remedy is an indirection layer:
//!
//! * the document is divided into **logical pages** of a power-of-two number
//!   of tuples, each page shredded with a configurable percentage of unused
//!   tuples;
//! * the physical table is append-only (`rid` order); a **page map** lists the
//!   pages in logical (`pre`) order, so inserting a page "in the middle" only
//!   appends tuples and adds a page-map entry;
//! * deletes leave unused tuples in place; inserts that fit a page's free
//!   space touch only that page; larger inserts split the page and append
//!   fresh pages, themselves filled only to the configured fill factor so
//!   later inserts in the same region keep finding free slots;
//! * `size` maintenance uses deltas so the root need not stay locked.
//!
//! Two implementations are provided so the ablation experiment (E9 in
//! DESIGN.md) can compare them:
//!
//! * [`PagedDocument`] — the paper's scheme; counts pages touched.
//! * [`NaiveDocument`] — textbook renumbering; counts tuples moved.
//!
//! Both expose the same update-primitive surface through the
//! [`StructuralUpdate`] trait — the operations the XQuery Update Facility
//! subset of `mxq-xquery` compiles to: child/sibling inserts, subtree
//! deletion and replacement, value replacement, renames and attribute
//! patching.  The naive scheme doubles as the differential-testing reference
//! for the paged one.

use std::sync::Arc;

use crate::columns::DocumentColumns;
use crate::doc::{Document, DocumentBuilder};
use crate::node::NodeKind;
use crate::read::{AttrsIter, NamedRun, NodeRead};

/// Cost counters accumulated by the update schemes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Number of tuples written (inserted, moved or size-adjusted).
    pub tuples_written: u64,
    /// Number of logical pages whose contents were modified.
    pub pages_touched: u64,
    /// Number of logical pages newly allocated (appended to the rid table).
    pub pages_allocated: u64,
    /// The page fill factor the scheme was configured with (percent of each
    /// page used at shredding/split time; 100 for the naive scheme, which
    /// has no free-space notion).
    pub fill_percent: u8,
}

impl UpdateStats {
    /// Counter increments since `earlier` (the fill factor is carried over
    /// unchanged — it is configuration, not a counter).
    pub fn delta_since(&self, earlier: &UpdateStats) -> UpdateStats {
        UpdateStats {
            tuples_written: self.tuples_written - earlier.tuples_written,
            pages_touched: self.pages_touched - earlier.pages_touched,
            pages_allocated: self.pages_allocated - earlier.pages_allocated,
            fill_percent: self.fill_percent,
        }
    }

    /// Field-wise sum of two counter sets (used when aggregating the deltas
    /// of several updated documents into one report).
    pub fn accumulate(&mut self, other: &UpdateStats) {
        self.tuples_written += other.tuples_written;
        self.pages_touched += other.pages_touched;
        self.pages_allocated += other.pages_allocated;
        self.fill_percent = self.fill_percent.max(other.fill_percent);
    }
}

/// The update-primitive surface shared by the paged and the naive scheme.
///
/// All positions are *logical* preorder ranks in the current document state.
/// Inserted fragments may hold several fragment roots (a sequence of nodes);
/// their levels are re-based onto the insertion point.
pub trait StructuralUpdate {
    /// Number of nodes in the logical view.
    fn node_count(&self) -> usize;
    /// Node kind at logical position `pre`.
    fn node_kind(&self, pre: u32) -> NodeKind;
    /// Subtree size at logical position `pre`.
    fn node_size(&self, pre: u32) -> u32;
    /// Depth at logical position `pre`.
    fn node_level(&self, pre: u32) -> u16;
    /// Parent of `pre`, or `None` for a fragment root.
    fn node_parent(&self, pre: u32) -> Option<u32>;
    /// Insert `fragment` as the first child of the element at `parent_pre`.
    fn insert_first_child(&mut self, parent_pre: u32, fragment: &Document);
    /// Insert `fragment` as the last child of the element at `parent_pre`.
    fn insert_last_child(&mut self, parent_pre: u32, fragment: &Document);
    /// Insert `fragment` as the preceding sibling(s) of the node at `pre`.
    fn insert_before(&mut self, pre: u32, fragment: &Document);
    /// Insert `fragment` at logical position `pos` with the given level
    /// (the enclosing ancestors are recovered from the level structure).
    /// This is `insert_before` with an explicit position/level, usable even
    /// when the anchor node itself was removed by an earlier primitive.
    fn insert_at(&mut self, pos: u32, level: u16, fragment: &Document);
    /// Insert `fragment` as the following sibling(s) of the node at `pre`.
    fn insert_after(&mut self, pre: u32, fragment: &Document);
    /// Delete the subtree rooted at `pre`.
    fn delete_subtree(&mut self, pre: u32);
    /// Replace the subtree rooted at `pre` with `fragment`.
    fn replace_subtree(&mut self, pre: u32, fragment: &Document);
    /// Replace the value of the node at `pre`: the text content of a
    /// text/comment/PI node, or the entire content of an element (all
    /// children are replaced by a single text node, or nothing for "").
    fn replace_value(&mut self, pre: u32, text: &str);
    /// Rename the element or processing instruction at `pre`.
    fn rename(&mut self, pre: u32, name: &str);
    /// Set (or insert) an attribute on the element at `pre`.
    fn set_attribute(&mut self, pre: u32, name: &str, value: &str);
    /// Remove an attribute from the element at `pre` (no-op if absent).
    fn remove_attribute(&mut self, pre: u32, name: &str);
    /// Rename an attribute of the element at `pre` (no-op if absent).
    fn rename_attribute(&mut self, pre: u32, name: &str, new_name: &str);
    /// Materialize the logical view as a read-only [`Document`].
    fn to_document(&self) -> Document;
    /// Accumulated cost counters.
    fn update_stats(&self) -> UpdateStats;
}

/// One tuple of the updatable representation, carrying its node properties
/// inline (the property containers of a read-only [`Document`] are rebuilt on
/// materialization).
#[derive(Debug, Clone)]
pub(crate) struct Tuple {
    pub(crate) size: u32,
    pub(crate) level: u16,
    pub(crate) kind: NodeKind,
    /// Element name, PI target, or `#document` for document nodes.
    pub(crate) name: Arc<str>,
    /// Text content (text/comment/PI nodes).
    pub(crate) text: Arc<str>,
    /// Attributes of an element node.
    pub(crate) attrs: Vec<(Arc<str>, Arc<str>)>,
}

pub(crate) fn tuples_of(doc: &Document) -> Vec<Tuple> {
    (0..doc.len() as u32)
        .map(|pre| Tuple {
            size: doc.size(pre),
            level: doc.level(pre),
            kind: doc.kind(pre),
            name: match doc.kind(pre) {
                NodeKind::Document => Arc::from("#document"),
                _ => Arc::from(doc.name_of(pre)),
            },
            text: Arc::from(doc.text_of(pre)),
            attrs: doc
                .attributes(pre)
                .iter()
                .map(|a| (a.name.clone(), a.value.clone()))
                .collect(),
        })
        .collect()
}

/// Fragment tuples with their levels re-based onto `level_base`.
fn rebased_tuples(fragment: &Document, level_base: u16) -> Vec<Tuple> {
    tuples_of(fragment)
        .into_iter()
        .map(|mut t| {
            t.level += level_base;
            t
        })
        .collect()
}

/// Rebuild a read-only [`Document`] from a preorder tuple stream.  Built
/// through [`DocumentBuilder`] so all property containers (qname index,
/// PI targets, attribute rows) are re-established and subtree sizes are
/// recomputed from the level structure.
pub(crate) fn materialize(name: &str, tuples: impl Iterator<Item = Tuple>) -> Document {
    let mut b = DocumentBuilder::new(name);
    // stack of open element levels
    let mut open: Vec<u16> = Vec::new();
    // preorder ranks that must become document-kind nodes
    let mut doc_nodes: Vec<u32> = Vec::new();
    for t in tuples {
        while let Some(&lv) = open.last() {
            if t.level <= lv {
                b.end_element();
                open.pop();
            } else {
                break;
            }
        }
        match t.kind {
            NodeKind::Element | NodeKind::Document => {
                let pre = b.start_element(&t.name);
                if t.kind == NodeKind::Document {
                    doc_nodes.push(pre);
                }
                for (n, v) in &t.attrs {
                    b.attribute(n, v);
                }
                open.push(t.level);
            }
            NodeKind::Text => {
                b.text(&t.text);
            }
            NodeKind::Comment => {
                b.comment(&t.text);
            }
            NodeKind::ProcessingInstruction => {
                b.processing_instruction(&t.name, &t.text);
            }
        }
    }
    while open.pop().is_some() {
        b.end_element();
    }
    let mut doc = b.finish();
    for pre in doc_nodes {
        doc.set_kind(pre, NodeKind::Document);
    }
    doc
}

// ---------------------------------------------------------------------------
// Naive renumbering baseline
// ---------------------------------------------------------------------------

/// Baseline updatable document: a flat tuple vector where every structural
/// update splices and renumbers, moving O(N) tuples.
#[derive(Debug, Clone)]
pub struct NaiveDocument {
    name: String,
    tuples: Vec<Tuple>,
    /// Accumulated costs.
    pub stats: UpdateStats,
}

impl NaiveDocument {
    /// Wrap an existing document.
    pub fn from_document(doc: &Document) -> Self {
        NaiveDocument {
            name: doc.name.clone(),
            tuples: tuples_of(doc),
            stats: UpdateStats {
                fill_percent: 100,
                ..UpdateStats::default()
            },
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Node kind at logical position `pre`.
    pub fn kind(&self, pre: u32) -> NodeKind {
        self.tuples[pre as usize].kind
    }

    /// Subtree size of the node at `pre`.
    pub fn size(&self, pre: u32) -> u32 {
        self.tuples[pre as usize].size
    }

    /// Level (depth) of the node at `pre`.
    pub fn level(&self, pre: u32) -> u16 {
        self.tuples[pre as usize].level
    }

    fn parent(&self, pre: u32) -> Option<u32> {
        self.anchor_before(pre, self.tuples[pre as usize].level)
    }

    /// Closest node before position `pos` whose level is smaller than
    /// `level` — the parent a node inserted at `(pos, level)` would get.
    fn anchor_before(&self, pos: u32, level: u16) -> Option<u32> {
        if level == 0 {
            return None;
        }
        (0..pos)
            .rev()
            .find(|&v| self.tuples[v as usize].level < level)
    }

    fn assert_container(&self, pre: u32, what: &str) {
        assert!(
            matches!(self.kind(pre), NodeKind::Element | NodeKind::Document),
            "{what}: parent must be an element"
        );
    }

    /// Splice tuples in at a logical position and grow every ancestor
    /// (starting at `anchor`) by the inserted count.
    fn splice_in(&mut self, insert_at: usize, tuples: Vec<Tuple>, anchor: Option<u32>) {
        let added = tuples.len() as u32;
        if added == 0 {
            return;
        }
        // every tuple at or after the insertion point is moved, the inserted
        // tuples are written
        self.stats.tuples_written += (self.tuples.len() - insert_at) as u64 + added as u64;
        self.tuples.splice(insert_at..insert_at, tuples);
        let mut anc = anchor;
        while let Some(a) = anc {
            self.tuples[a as usize].size += added;
            self.stats.tuples_written += 1;
            anc = self.parent(a);
        }
    }

    /// Remove `count` tuples starting at `start` (no ancestor maintenance).
    fn remove_range(&mut self, start: usize, count: usize) {
        if count == 0 {
            return;
        }
        self.stats.tuples_written += (self.tuples.len() - start - count) as u64 + count as u64;
        self.tuples.drain(start..start + count);
    }

    fn shrink_ancestors(&mut self, anchor: Option<u32>, removed: u32) {
        let mut anc = anchor;
        while let Some(a) = anc {
            self.tuples[a as usize].size -= removed;
            self.stats.tuples_written += 1;
            anc = self.parent(a);
        }
    }

    /// Insert `fragment` as the first child of `parent_pre`.
    pub fn insert_first_child(&mut self, parent_pre: u32, fragment: &Document) {
        self.assert_container(parent_pre, "insert_first_child");
        let level = self.level(parent_pre) + 1;
        self.splice_in(
            parent_pre as usize + 1,
            rebased_tuples(fragment, level),
            Some(parent_pre),
        );
    }

    /// Insert `fragment` as the last child of `parent_pre`.
    pub fn insert_last_child(&mut self, parent_pre: u32, fragment: &Document) {
        self.assert_container(parent_pre, "insert_last_child");
        let insert_at = (parent_pre + self.size(parent_pre) + 1) as usize;
        let level = self.level(parent_pre) + 1;
        self.splice_in(insert_at, rebased_tuples(fragment, level), Some(parent_pre));
    }

    /// Insert `fragment` immediately before the node at `pre` (as siblings).
    pub fn insert_before(&mut self, pre: u32, fragment: &Document) {
        self.insert_at(pre, self.level(pre), fragment);
    }

    /// Insert `fragment` at logical position `pos` with the given level (see
    /// [`StructuralUpdate::insert_at`]).
    pub fn insert_at(&mut self, pos: u32, level: u16, fragment: &Document) {
        let anchor = self.anchor_before(pos, level);
        self.splice_in(pos as usize, rebased_tuples(fragment, level), anchor);
    }

    /// Insert `fragment` immediately after the subtree of the node at `pre`.
    pub fn insert_after(&mut self, pre: u32, fragment: &Document) {
        let level = self.level(pre);
        let insert_at = pre + self.size(pre) + 1;
        self.insert_at(insert_at, level, fragment);
    }

    /// Delete the subtree rooted at `pre`.
    pub fn delete_subtree(&mut self, pre: u32) {
        let removed = self.size(pre) + 1;
        let parent = self.parent(pre);
        self.remove_range(pre as usize, removed as usize);
        self.shrink_ancestors(parent, removed);
    }

    /// Replace the subtree rooted at `pre` with `fragment`.
    pub fn replace_subtree(&mut self, pre: u32, fragment: &Document) {
        let removed = self.size(pre) + 1;
        let level = self.level(pre);
        let anchor = self.parent(pre);
        self.remove_range(pre as usize, removed as usize);
        self.shrink_ancestors(anchor, removed);
        self.splice_in(pre as usize, rebased_tuples(fragment, level), anchor);
    }

    /// Replace the value of the node at `pre` (see
    /// [`StructuralUpdate::replace_value`]).
    pub fn replace_value(&mut self, pre: u32, text: &str) {
        match self.kind(pre) {
            NodeKind::Text | NodeKind::Comment | NodeKind::ProcessingInstruction => {
                self.tuples[pre as usize].text = Arc::from(text);
                self.stats.tuples_written += 1;
            }
            NodeKind::Element | NodeKind::Document => {
                let removed = self.size(pre);
                let level = self.level(pre);
                self.remove_range(pre as usize + 1, removed as usize);
                self.tuples[pre as usize].size = 0;
                let parent = self.parent(pre);
                self.shrink_ancestors(parent, removed);
                if !text.is_empty() {
                    let t = Tuple {
                        size: 0,
                        level: level + 1,
                        kind: NodeKind::Text,
                        name: Arc::from(""),
                        text: Arc::from(text),
                        attrs: Vec::new(),
                    };
                    self.splice_in(pre as usize + 1, vec![t], Some(pre));
                }
            }
        }
    }

    /// Rename the element or processing instruction at `pre`.
    pub fn rename(&mut self, pre: u32, name: &str) {
        if matches!(
            self.kind(pre),
            NodeKind::Element | NodeKind::ProcessingInstruction
        ) {
            self.tuples[pre as usize].name = Arc::from(name);
            self.stats.tuples_written += 1;
        }
    }

    /// Set (or insert) an attribute on the element at `pre`.
    pub fn set_attribute(&mut self, pre: u32, name: &str, value: &str) {
        self.assert_container(pre, "set_attribute");
        let attrs = &mut self.tuples[pre as usize].attrs;
        match attrs.iter_mut().find(|(n, _)| n.as_ref() == name) {
            Some((_, v)) => *v = Arc::from(value),
            None => attrs.push((Arc::from(name), Arc::from(value))),
        }
        self.stats.tuples_written += 1;
    }

    /// Remove an attribute from the element at `pre` (no-op if absent).
    pub fn remove_attribute(&mut self, pre: u32, name: &str) {
        self.tuples[pre as usize]
            .attrs
            .retain(|(n, _)| n.as_ref() != name);
        self.stats.tuples_written += 1;
    }

    /// Rename an attribute of the element at `pre` (no-op if absent).
    pub fn rename_attribute(&mut self, pre: u32, name: &str, new_name: &str) {
        if let Some((n, _)) = self.tuples[pre as usize]
            .attrs
            .iter_mut()
            .find(|(n, _)| n.as_ref() == name)
        {
            *n = Arc::from(new_name);
        }
        self.stats.tuples_written += 1;
    }

    /// Materialize a read-only [`Document`] for querying / verification.
    pub fn to_document(&self) -> Document {
        materialize(&self.name, self.tuples.iter().cloned())
    }
}

// ---------------------------------------------------------------------------
// Page-wise remappable pre-numbers (the paper's scheme)
// ---------------------------------------------------------------------------

/// A logical page: at most `page_size` used tuples; the remaining slots are
/// the "unused tuples" of Figure 11.
#[derive(Debug, Clone, Default)]
pub(crate) struct Page {
    tuples: Vec<Tuple>,
}

impl Page {
    /// The page's used tuples in logical order (the disk codec walks them).
    pub(crate) fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// A page over decoded (or freshly shredded) tuples.
    pub(crate) fn from_tuples(tuples: Vec<Tuple>) -> Page {
        Page { tuples }
    }
}

/// Updatable document with page-wise remappable pre-numbers (Section 5.2).
///
/// This is the **single source of truth** for a loaded document: pages are
/// the mutation substrate (held behind [`Arc`], copy-on-write per touched
/// page), and the dense relational image ([`DocumentColumns`]) is patched
/// in lockstep with every applied primitive instead of being rebuilt.
/// [`PagedDocument::snapshot`] publishes an immutable [`PagedSnapshot`]
/// in O(pages): the read view queries scan.
#[derive(Debug, Clone)]
pub struct PagedDocument {
    name: String,
    /// Pages in rid (allocation) order — the table is append-only.
    pages: Vec<Arc<Page>>,
    /// Pages in logical (`pre` view) order: indices into `pages`.
    page_map: Vec<usize>,
    /// Logical page capacity in tuples (a power of two).
    page_size: usize,
    /// Number of tuples a freshly shredded or split page is filled to
    /// (`page_size * fill_percent / 100`, at least 1).
    fill: usize,
    /// Accumulated costs.
    pub stats: UpdateStats,
    /// The incrementally maintained relational image (structural columns,
    /// attribute columns, dictionaries).
    columns: Arc<DocumentColumns>,
}

impl PagedDocument {
    /// Shred an existing document into logical pages, leaving
    /// `fill_percent` of each page's capacity unused for future inserts.
    ///
    /// # Panics
    /// Panics unless `page_size` is a power of two ≥ 2 and
    /// `fill_percent ∈ (0, 100]`.
    pub fn from_document(doc: &Document, page_size: usize, fill_percent: u8) -> Self {
        assert!(
            page_size.is_power_of_two() && page_size >= 2,
            "page_size must be a power of two >= 2"
        );
        assert!(
            (1..=100).contains(&fill_percent),
            "fill_percent must be in 1..=100"
        );
        let fill = ((page_size * fill_percent as usize) / 100).max(1);
        let tuples = tuples_of(doc);
        let mut pages = Vec::new();
        for chunk in tuples.chunks(fill) {
            pages.push(Arc::new(Page::from_tuples(chunk.to_vec())));
        }
        if pages.is_empty() {
            pages.push(Arc::new(Page::default()));
        }
        let page_map = (0..pages.len()).collect();
        PagedDocument {
            name: doc.name.clone(),
            pages,
            page_map,
            page_size,
            fill,
            stats: UpdateStats {
                fill_percent,
                ..UpdateStats::default()
            },
            columns: Arc::new(DocumentColumns::new(doc)),
        }
    }

    /// Reconstruct the mutable master from a published [`PagedSnapshot`] —
    /// cheap (`Arc` clones of pages and columns); pages are copied on
    /// first write only.
    pub fn from_snapshot(snap: &PagedSnapshot, page_size: usize, fill_percent: u8) -> Self {
        assert!(
            page_size.is_power_of_two() && page_size >= 2,
            "page_size must be a power of two >= 2"
        );
        assert!(
            (1..=100).contains(&fill_percent),
            "fill_percent must be in 1..=100"
        );
        let fill = ((page_size * fill_percent as usize) / 100).max(1);
        let mut pages = snap.pages.clone();
        if pages.is_empty() {
            pages.push(Arc::new(Page::default()));
        }
        PagedDocument {
            name: snap.name.clone(),
            page_map: (0..pages.len()).collect(),
            pages,
            page_size,
            fill,
            stats: UpdateStats {
                fill_percent,
                ..UpdateStats::default()
            },
            columns: snap.columns.clone(),
        }
    }

    /// The incrementally maintained relational image of the current state.
    pub fn columns(&self) -> &DocumentColumns {
        &self.columns
    }

    /// Shared handle to the relational image (what a publish pins).
    pub fn columns_arc(&self) -> Arc<DocumentColumns> {
        self.columns.clone()
    }

    /// Rebuild the column image at a different chunk row target (must be a
    /// power of two); subsequent incremental maintenance keeps it.  Used by
    /// the differential tests to exercise chunk-size invariance.
    pub fn rechunk_columns(&mut self, chunk_rows: usize) {
        self.columns = Arc::new(self.columns.rechunked(chunk_rows));
    }

    /// Publish the current state as an immutable snapshot: the logical page
    /// sequence (empty pages elided), their prefix-sum offsets, the
    /// fragment roots and the column image — all `Arc` clones, O(pages).
    pub fn snapshot(&self) -> PagedSnapshot {
        let pages: Vec<Arc<Page>> = self
            .page_map
            .iter()
            .map(|&p| self.pages[p].clone())
            .filter(|p| !p.tuples.is_empty())
            .collect();
        let (starts, len, stride) = page_offsets(&pages);
        PagedSnapshot {
            name: self.name.clone(),
            pages,
            starts,
            stride,
            len,
            frag_roots: self.columns.fragment_roots(),
            columns: self.columns.clone(),
        }
    }

    /// The configured page fill factor in percent.
    pub fn fill_percent(&self) -> u8 {
        self.stats.fill_percent
    }

    /// Re-tune the fill factor used for pages created by future splits
    /// (already shredded pages are not repacked).
    ///
    /// # Panics
    /// Panics unless `fill_percent ∈ (0, 100]`.
    pub fn set_fill_percent(&mut self, fill_percent: u8) {
        assert!(
            (1..=100).contains(&fill_percent),
            "fill_percent must be in 1..=100"
        );
        self.fill = ((self.page_size * fill_percent as usize) / 100).max(1);
        self.stats.fill_percent = fill_percent;
    }

    /// Number of (used) nodes in the logical view.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if the logical view holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of allocated logical pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Total unused tuple slots over all pages.
    pub fn free_slots(&self) -> usize {
        self.pages
            .iter()
            .map(|p| self.page_size - p.tuples.len().min(self.page_size))
            .sum()
    }

    /// Map a logical position (`pre`) to (logical page slot, offset in page).
    fn locate(&self, pre: usize) -> (usize, usize) {
        let mut remaining = pre;
        for (slot, &p) in self.page_map.iter().enumerate() {
            let n = self.pages[p].tuples.len();
            if remaining < n {
                return (slot, remaining);
            }
            remaining -= n;
        }
        // position right past the end maps onto the last page's end
        let last = self.page_map.len() - 1;
        (last, self.pages[self.page_map[last]].tuples.len())
    }

    /// Mutable access to a tuple: copy-on-write on its page.
    fn tuple_mut(&mut self, pre: usize) -> &mut Tuple {
        let (slot, off) = self.locate(pre);
        let p = self.page_map[slot];
        &mut Arc::make_mut(&mut self.pages[p]).tuples[off]
    }

    /// Mutable access to the relational image (copy-on-write: the first
    /// patch after a publish clones the image's chunk *pointers*; each
    /// patched chunk is then copied on its own first write).
    fn columns_mut(&mut self) -> &mut DocumentColumns {
        Arc::make_mut(&mut self.columns)
    }

    /// `size` of the node at logical position `pre` (O(1), from the image).
    pub fn size(&self, pre: u32) -> u32 {
        self.columns.node_size(pre)
    }

    /// Node kind at logical position `pre`.
    pub fn kind(&self, pre: u32) -> NodeKind {
        self.columns.node_kind(pre)
    }

    /// `level` of the node at logical position `pre`.
    pub fn level(&self, pre: u32) -> u16 {
        self.columns.node_level(pre)
    }

    /// Parent recovery by a backwards scan over the chunked level column
    /// (chunks whose min level is not below the target are skipped).
    fn parent(&self, pre: u32) -> Option<u32> {
        self.anchor_before(pre, self.level(pre))
    }

    /// Closest node before position `pos` whose level is smaller than
    /// `level` — the parent a node inserted at `(pos, level)` would get.
    fn anchor_before(&self, pos: u32, level: u16) -> Option<u32> {
        self.columns.anchor_before(pos, level)
    }

    fn assert_container(&self, pre: u32, what: &str) {
        assert!(
            matches!(self.kind(pre), NodeKind::Element | NodeKind::Document),
            "{what}: parent must be an element"
        );
    }

    /// Insert tuples at a logical position.  Touches one page when the
    /// fragment fits into the free space of the target page, otherwise splits
    /// the page: its tail plus the new tuples move into freshly appended
    /// pages, each filled only to the configured fill factor so that repeated
    /// inserts into the same region keep splitting locally instead of
    /// remapping O(N) tuples (Figure 11).
    fn insert_tuples_at(&mut self, insert_pos: usize, frag_tuples: Vec<Tuple>) {
        let added = frag_tuples.len() as u64;
        if added == 0 {
            return;
        }
        // delta-patch the relational image in lockstep with the pages
        self.columns_mut().splice_nodes(insert_pos, &frag_tuples);
        let (slot, off) = self.locate(insert_pos);
        let page_idx = self.page_map[slot];
        let free = self.page_size - self.pages[page_idx].tuples.len().min(self.page_size);

        if frag_tuples.len() <= free {
            // fits: shift within this single logical page (copy-on-write)
            let page = Arc::make_mut(&mut self.pages[page_idx]);
            page.tuples.splice(off..off, frag_tuples);
            self.stats.pages_touched += 1;
            self.stats.tuples_written += added;
        } else {
            // does not fit: move the tail of the target page plus the new
            // tuples into freshly appended pages inserted after `slot`
            let tail = Arc::make_mut(&mut self.pages[page_idx])
                .tuples
                .split_off(off);
            self.stats.pages_touched += 1;
            let mut pending: Vec<Tuple> = frag_tuples;
            pending.extend(tail);
            self.stats.tuples_written += pending.len() as u64;
            for (insert_slot, chunk) in (slot + 1..).zip(pending.chunks(self.fill)) {
                let new_idx = self.pages.len();
                self.pages.push(Arc::new(Page::from_tuples(chunk.to_vec())));
                self.page_map.insert(insert_slot, new_idx);
                self.stats.pages_allocated += 1;
                self.stats.pages_touched += 1;
            }
        }
    }

    /// Remove `count` tuples starting at logical position `start`.  The freed
    /// slots become unused space on their pages; no other page is rewritten.
    fn remove_range(&mut self, start: usize, count: usize) {
        if count == 0 {
            return;
        }
        self.columns_mut().remove_nodes(start, count);
        let mut remaining = count;
        let (mut slot, mut off) = self.locate(start);
        let mut touched = 0u64;
        while remaining > 0 {
            let page_idx = self.page_map[slot];
            {
                let page = Arc::make_mut(&mut self.pages[page_idx]);
                let avail = page.tuples.len() - off;
                let take = avail.min(remaining);
                page.tuples.drain(off..off + take);
                remaining -= take;
            }
            touched += 1;
            if self.pages[page_idx].tuples.is_empty() && self.page_map.len() > 1 {
                // fully emptied page: drop it from the logical view
                self.page_map.remove(slot);
            } else {
                slot += 1;
            }
            off = 0;
        }
        self.stats.pages_touched += touched;
        self.stats.tuples_written += count as u64;
    }

    /// Ancestor size maintenance via deltas (does not move tuples; does not
    /// change page summaries — `size` is not summarized).
    fn bump_ancestors(&mut self, anchor: Option<u32>, delta: i64) {
        if delta == 0 {
            return;
        }
        let mut anc = anchor;
        while let Some(a) = anc {
            let next = self.parent(a);
            let t = self.tuple_mut(a as usize);
            t.size = (t.size as i64 + delta) as u32;
            self.columns_mut().add_size(a, delta);
            self.stats.tuples_written += 1;
            anc = next;
        }
    }

    /// Insert `fragment` as the first child of the node at `parent_pre`.
    pub fn insert_first_child(&mut self, parent_pre: u32, fragment: &Document) {
        self.assert_container(parent_pre, "insert_first_child");
        let level = self.level(parent_pre) + 1;
        let tuples = rebased_tuples(fragment, level);
        let added = tuples.len() as i64;
        self.insert_tuples_at(parent_pre as usize + 1, tuples);
        self.bump_ancestors(Some(parent_pre), added);
    }

    /// Insert `fragment` as the last child of the node at logical position
    /// `parent_pre`.
    pub fn insert_last_child(&mut self, parent_pre: u32, fragment: &Document) {
        self.assert_container(parent_pre, "insert_last_child");
        let insert_pos = (parent_pre + self.size(parent_pre) + 1) as usize;
        let level = self.level(parent_pre) + 1;
        let tuples = rebased_tuples(fragment, level);
        let added = tuples.len() as i64;
        self.insert_tuples_at(insert_pos, tuples);
        self.bump_ancestors(Some(parent_pre), added);
    }

    /// Insert `fragment` immediately before the node at `pre` (as siblings).
    pub fn insert_before(&mut self, pre: u32, fragment: &Document) {
        self.insert_at(pre, self.level(pre), fragment);
    }

    /// Insert `fragment` at logical position `pos` with the given level (see
    /// [`StructuralUpdate::insert_at`]).
    pub fn insert_at(&mut self, pos: u32, level: u16, fragment: &Document) {
        let anchor = self.anchor_before(pos, level);
        let tuples = rebased_tuples(fragment, level);
        let added = tuples.len() as i64;
        self.insert_tuples_at(pos as usize, tuples);
        self.bump_ancestors(anchor, added);
    }

    /// Insert `fragment` immediately after the subtree of the node at `pre`.
    pub fn insert_after(&mut self, pre: u32, fragment: &Document) {
        let level = self.level(pre);
        let insert_pos = pre + self.size(pre) + 1;
        self.insert_at(insert_pos, level, fragment);
    }

    /// Delete the subtree rooted at logical position `pre`.
    pub fn delete_subtree(&mut self, pre: u32) {
        let removed = self.size(pre) + 1;
        let parent = self.parent(pre);
        self.remove_range(pre as usize, removed as usize);
        self.bump_ancestors(parent, -(removed as i64));
    }

    /// Replace the subtree rooted at `pre` with `fragment`.
    pub fn replace_subtree(&mut self, pre: u32, fragment: &Document) {
        let removed = self.size(pre) + 1;
        let level = self.level(pre);
        let anchor = self.parent(pre);
        self.remove_range(pre as usize, removed as usize);
        self.bump_ancestors(anchor, -(removed as i64));
        let tuples = rebased_tuples(fragment, level);
        let added = tuples.len() as i64;
        self.insert_tuples_at(pre as usize, tuples);
        self.bump_ancestors(anchor, added);
    }

    /// Replace the value of the node at `pre` (see
    /// [`StructuralUpdate::replace_value`]).
    pub fn replace_value(&mut self, pre: u32, text: &str) {
        match self.kind(pre) {
            NodeKind::Text | NodeKind::Comment | NodeKind::ProcessingInstruction => {
                // text content is not part of the relational image
                self.tuple_mut(pre as usize).text = Arc::from(text);
                self.stats.tuples_written += 1;
                self.stats.pages_touched += 1;
            }
            NodeKind::Element | NodeKind::Document => {
                let removed = self.size(pre);
                let level = self.level(pre);
                self.remove_range(pre as usize + 1, removed as usize);
                self.tuple_mut(pre as usize).size = 0;
                self.columns_mut().add_size(pre, -(removed as i64));
                let parent = self.parent(pre);
                self.bump_ancestors(parent, -(removed as i64));
                if !text.is_empty() {
                    let t = Tuple {
                        size: 0,
                        level: level + 1,
                        kind: NodeKind::Text,
                        name: Arc::from(""),
                        text: Arc::from(text),
                        attrs: Vec::new(),
                    };
                    self.insert_tuples_at(pre as usize + 1, vec![t]);
                    self.bump_ancestors(Some(pre), 1);
                }
            }
        }
    }

    /// Rename the element or processing instruction at `pre`.
    pub fn rename(&mut self, pre: u32, name: &str) {
        if matches!(
            self.kind(pre),
            NodeKind::Element | NodeKind::ProcessingInstruction
        ) {
            let arc: Arc<str> = Arc::from(name);
            let (slot, off) = self.locate(pre as usize);
            let p = self.page_map[slot];
            let page = Arc::make_mut(&mut self.pages[p]);
            page.tuples[off].name = arc.clone();
            self.columns_mut().set_name(pre, &arc);
            self.stats.tuples_written += 1;
            self.stats.pages_touched += 1;
        }
    }

    /// Set (or insert) an attribute on the element at `pre`.
    pub fn set_attribute(&mut self, pre: u32, name: &str, value: &str) {
        self.assert_container(pre, "set_attribute");
        let attrs = &mut self.tuple_mut(pre as usize).attrs;
        match attrs.iter_mut().find(|(n, _)| n.as_ref() == name) {
            Some((_, v)) => *v = Arc::from(value),
            None => attrs.push((Arc::from(name), Arc::from(value))),
        }
        self.columns_mut().set_attribute(pre, name, value);
        self.stats.tuples_written += 1;
        self.stats.pages_touched += 1;
    }

    /// Remove an attribute from the element at `pre` (no-op if absent).
    pub fn remove_attribute(&mut self, pre: u32, name: &str) {
        self.tuple_mut(pre as usize)
            .attrs
            .retain(|(n, _)| n.as_ref() != name);
        self.columns_mut().remove_attribute(pre, name);
        self.stats.tuples_written += 1;
        self.stats.pages_touched += 1;
    }

    /// Rename an attribute of the element at `pre` (no-op if absent).
    pub fn rename_attribute(&mut self, pre: u32, name: &str, new_name: &str) {
        if let Some((n, _)) = self
            .tuple_mut(pre as usize)
            .attrs
            .iter_mut()
            .find(|(n, _)| n.as_ref() == name)
        {
            *n = Arc::from(new_name);
        }
        self.columns_mut().rename_attribute(pre, name, new_name);
        self.stats.tuples_written += 1;
        self.stats.pages_touched += 1;
    }

    /// Materialize the logical view as a read-only [`Document`] (the
    /// "pre|size|level table view with pages in logical order" of Fig. 11).
    /// Used by the differential tests and the naive comparator — the query
    /// path reads pages and columns directly via [`PagedSnapshot`].
    pub fn to_document(&self) -> Document {
        let iter = self
            .page_map
            .iter()
            .flat_map(|&p| self.pages[p].tuples.iter().cloned())
            .collect::<Vec<_>>();
        materialize(&self.name, iter.into_iter())
    }
}

// ---------------------------------------------------------------------------
// the published, immutable read view
// ---------------------------------------------------------------------------

/// Prefix-sum offsets of a logical page sequence, its length in tuples,
/// and its stride (see [`PagedSnapshot`]'s `stride`).
fn page_offsets(pages: &[Arc<Page>]) -> (Vec<u32>, u32, Option<u32>) {
    let mut starts = Vec::with_capacity(pages.len());
    let mut acc = 0u32;
    for p in pages {
        starts.push(acc);
        acc += p.tuples.len() as u32;
    }
    let stride = pages.split_last().and_then(|(last, init)| {
        let n = init.first().unwrap_or(last).tuples.len();
        init.iter().all(|p| p.tuples.len() == n).then_some(n as u32)
    });
    (starts, acc, stride)
}

/// An immutable snapshot of a [`PagedDocument`]: the logical page sequence
/// (shared `Arc`s), prefix-sum offsets for position lookup (O(1) while the
/// pages are uniform, O(log pages) after a split),
/// and the pinned column image.  This is what the store publishes and what
/// queries scan — structural reads (`size`/`level`/`kind`/name id) come
/// from the dense columns in O(1); texts, attribute cursors and
/// serialization read the pages on demand.
#[derive(Debug, Clone)]
pub struct PagedSnapshot {
    name: String,
    /// Pages in logical order (empty pages elided).
    pages: Vec<Arc<Page>>,
    /// `starts[i]` = preorder rank of the first tuple of `pages[i]`.
    starts: Vec<u32>,
    /// The common length of every page but the last, if there is one (as
    /// in a freshly paged document): a position's page is then a
    /// division, not a binary search over `starts`.
    stride: Option<u32>,
    len: u32,
    frag_roots: Vec<u32>,
    columns: Arc<DocumentColumns>,
}

impl PagedSnapshot {
    /// The document (container) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The logical page sequence (the disk codec serializes it page by
    /// page, preserving the split geometry across a save/load cycle).
    pub(crate) fn pages(&self) -> &[Arc<Page>] {
        &self.pages
    }

    /// Reassemble a snapshot from decoded pages: offsets and fragment
    /// roots are recomputed from the tuples, and the relational column
    /// image is rebuilt from a materialized document — O(document) work
    /// that happens once per load, after which incremental maintenance
    /// takes over again.
    pub(crate) fn from_pages(name: String, pages: Vec<Arc<Page>>) -> PagedSnapshot {
        let pages: Vec<Arc<Page>> = pages.into_iter().filter(|p| !p.tuples.is_empty()).collect();
        let (starts, len, stride) = page_offsets(&pages);
        let doc = materialize(&name, pages.iter().flat_map(|p| p.tuples.iter().cloned()));
        let columns = Arc::new(DocumentColumns::new(&doc));
        PagedSnapshot {
            name,
            pages,
            starts,
            stride,
            len,
            frag_roots: columns.fragment_roots(),
            columns,
        }
    }

    /// Rough resident-memory footprint in bytes: tuple payloads (names,
    /// texts, attributes) plus a fixed per-node estimate for the column
    /// image.  Used by the eviction policy's memory budget — a heuristic,
    /// not an allocator report.
    pub fn approx_bytes(&self) -> usize {
        let mut bytes = 0usize;
        for p in &self.pages {
            for t in &p.tuples {
                bytes += 32 + t.name.len() + t.text.len();
                for (n, v) in &t.attrs {
                    bytes += 16 + n.len() + v.len();
                }
            }
        }
        // structural columns: size/level/kind/name-code + chunk summaries
        bytes + self.len as usize * 16
    }

    /// The pinned relational image.
    pub fn columns(&self) -> &DocumentColumns {
        &self.columns
    }

    /// Shared handle to the relational image.
    pub fn columns_arc(&self) -> Arc<DocumentColumns> {
        self.columns.clone()
    }

    /// Number of logical pages in the view.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// (page index, offset in page) of a logical position.
    fn locate(&self, pre: u32) -> (usize, usize) {
        debug_assert!(pre < self.len);
        let i = match self.stride {
            Some(n) => ((pre / n) as usize).min(self.pages.len() - 1),
            None => self.starts.partition_point(|&s| s <= pre) - 1,
        };
        (i, (pre - self.starts[i]) as usize)
    }

    /// The page tuples of the subtree rooted at `pre`, in document order:
    /// the position is located once, then the pages are walked in order
    /// (the column image is not read).
    pub(crate) fn subtree_tuples(&self, pre: u32) -> impl Iterator<Item = &Tuple> {
        let (i, off) = self.locate(pre);
        let rows = self.pages[i].tuples[off].size as usize + 1;
        self.pages[i].tuples[off..]
            .iter()
            .chain(self.pages[i + 1..].iter().flat_map(|p| &p.tuples))
            .take(rows)
    }

    /// The shared content of the text node at `pre` (`None` for other
    /// kinds).
    pub(crate) fn text_arc(&self, pre: u32) -> Option<&Arc<str>> {
        (self.kind(pre) == NodeKind::Text).then(|| {
            let (i, off) = self.locate(pre);
            &self.pages[i].tuples[off].text
        })
    }
}

impl NodeRead for PagedSnapshot {
    fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    fn size(&self, pre: u32) -> u32 {
        self.columns.node_size(pre)
    }

    #[inline]
    fn level(&self, pre: u32) -> u16 {
        self.columns.node_level(pre)
    }

    #[inline]
    fn kind(&self, pre: u32) -> NodeKind {
        self.columns.node_kind(pre)
    }

    fn name_of(&self, pre: u32) -> &str {
        match self.kind(pre) {
            NodeKind::Element => self.columns.node_name(pre),
            NodeKind::ProcessingInstruction => {
                let (i, off) = self.locate(pre);
                &self.pages[i].tuples[off].name
            }
            _ => "",
        }
    }

    fn text_of(&self, pre: u32) -> &str {
        match self.kind(pre) {
            NodeKind::Text | NodeKind::Comment | NodeKind::ProcessingInstruction => {
                let (i, off) = self.locate(pre);
                &self.pages[i].tuples[off].text
            }
            _ => "",
        }
    }

    fn qname_id(&self, pre: u32) -> Option<u32> {
        match self.kind(pre) {
            NodeKind::Element => Some(self.columns.node_name_code(pre)),
            _ => None,
        }
    }

    fn lookup_qname(&self, name: &str) -> Option<u32> {
        self.columns.tags().code_of(name)
    }

    fn attribute(&self, pre: u32, name: &str) -> Option<&str> {
        self.columns.attr_value_of(pre, name)
    }

    fn attrs(&self, pre: u32) -> AttrsIter<'_> {
        self.columns.attrs_of(pre)
    }

    fn root_pres(&self) -> Vec<u32> {
        self.frag_roots.clone()
    }

    // the storage runs of the read view are the chunks of the column image
    // — the rows a structural scan actually reads

    fn run_named(&self, pre: u32, name_id: u32) -> NamedRun<'_> {
        self.columns.chunk_named(pre, name_id)
    }

    fn run_end(&self, pre: u32) -> u32 {
        let (start, len) = self.columns.chunk_span(self.columns.chunk_of(pre));
        start + len as u32 - 1
    }

    fn run_has_kind(&self, pre: u32, kind: NodeKind) -> bool {
        self.columns
            .chunk_has_kind(self.columns.chunk_of(pre), kind)
    }

    fn parent(&self, pre: u32) -> Option<u32> {
        self.columns.anchor_before(pre, self.level(pre))
    }
}

macro_rules! impl_structural_update {
    ($ty:ty) => {
        impl StructuralUpdate for $ty {
            fn node_count(&self) -> usize {
                self.len()
            }
            fn node_kind(&self, pre: u32) -> NodeKind {
                self.kind(pre)
            }
            fn node_size(&self, pre: u32) -> u32 {
                self.size(pre)
            }
            fn node_level(&self, pre: u32) -> u16 {
                self.level(pre)
            }
            fn node_parent(&self, pre: u32) -> Option<u32> {
                self.parent(pre)
            }
            fn insert_first_child(&mut self, parent_pre: u32, fragment: &Document) {
                <$ty>::insert_first_child(self, parent_pre, fragment)
            }
            fn insert_last_child(&mut self, parent_pre: u32, fragment: &Document) {
                <$ty>::insert_last_child(self, parent_pre, fragment)
            }
            fn insert_before(&mut self, pre: u32, fragment: &Document) {
                <$ty>::insert_before(self, pre, fragment)
            }
            fn insert_at(&mut self, pos: u32, level: u16, fragment: &Document) {
                <$ty>::insert_at(self, pos, level, fragment)
            }
            fn insert_after(&mut self, pre: u32, fragment: &Document) {
                <$ty>::insert_after(self, pre, fragment)
            }
            fn delete_subtree(&mut self, pre: u32) {
                <$ty>::delete_subtree(self, pre)
            }
            fn replace_subtree(&mut self, pre: u32, fragment: &Document) {
                <$ty>::replace_subtree(self, pre, fragment)
            }
            fn replace_value(&mut self, pre: u32, text: &str) {
                <$ty>::replace_value(self, pre, text)
            }
            fn rename(&mut self, pre: u32, name: &str) {
                <$ty>::rename(self, pre, name)
            }
            fn set_attribute(&mut self, pre: u32, name: &str, value: &str) {
                <$ty>::set_attribute(self, pre, name, value)
            }
            fn remove_attribute(&mut self, pre: u32, name: &str) {
                <$ty>::remove_attribute(self, pre, name)
            }
            fn rename_attribute(&mut self, pre: u32, name: &str, new_name: &str) {
                <$ty>::rename_attribute(self, pre, name, new_name)
            }
            fn to_document(&self) -> Document {
                <$ty>::to_document(self)
            }
            fn update_stats(&self) -> UpdateStats {
                self.stats
            }
        }
    };
}

impl_structural_update!(NaiveDocument);
impl_structural_update!(PagedDocument);

/// Build a small XML fragment document from text (helper used by examples,
/// benches and tests when composing subtrees to insert).
pub fn fragment_from_xml(xml: &str) -> Document {
    crate::shred::shred("#fragment", xml, &crate::shred::ShredOptions::default())
        .expect("invalid fragment XML")
}

/// Build a fragment programmatically from a builder closure.
pub fn fragment<F: FnOnce(&mut DocumentBuilder)>(f: F) -> Document {
    let mut b = DocumentBuilder::new("#fragment");
    f(&mut b);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::serialize_document;
    use crate::shred::{shred, ShredOptions};

    fn base() -> Document {
        shred(
            "base",
            "<a><b><c/><d/></b><f><g/><h><i/><j/></h></f></a>",
            &ShredOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn naive_insert_matches_reference_serialization() {
        let doc = base();
        let mut naive = NaiveDocument::from_document(&doc);
        naive.insert_last_child(4, &fragment_from_xml("<k><l/><m/></k>"));
        let out = serialize_document(&naive.to_document());
        assert_eq!(
            out,
            "<a><b><c/><d/></b><f><g/><h><i/><j/></h><k><l/><m/></k></f></a>"
        );
        assert!(
            naive.stats.tuples_written > 3,
            "naive insert moves following tuples"
        );
    }

    #[test]
    fn paged_insert_matches_naive() {
        let doc = base();
        let frag = fragment_from_xml("<k><l/><m/></k>");
        let mut naive = NaiveDocument::from_document(&doc);
        let mut paged = PagedDocument::from_document(&doc, 8, 75);
        naive.insert_last_child(4, &frag);
        paged.insert_last_child(4, &frag);
        assert_eq!(
            serialize_document(&naive.to_document()),
            serialize_document(&paged.to_document())
        );
        paged.to_document().check_invariants().unwrap();
    }

    #[test]
    fn paged_insert_into_free_space_touches_one_page() {
        let doc = base();
        // 50% fill of 16-tuple pages leaves plenty of free slots
        let mut paged = PagedDocument::from_document(&doc, 16, 50);
        let before_pages = paged.page_count();
        paged.insert_last_child(1, &fragment_from_xml("<x/>"));
        assert_eq!(paged.stats.pages_touched, 1);
        assert_eq!(paged.stats.pages_allocated, 0);
        assert_eq!(paged.page_count(), before_pages);
    }

    #[test]
    fn paged_large_insert_appends_pages() {
        let doc = base();
        let mut paged = PagedDocument::from_document(&doc, 4, 100);
        paged.insert_last_child(
            0,
            &fragment_from_xml("<big><x1/><x2/><x3/><x4/><x5/></big>"),
        );
        assert!(paged.stats.pages_allocated >= 1);
        paged.to_document().check_invariants().unwrap();
        assert_eq!(paged.len(), 9 + 6);
    }

    #[test]
    fn delete_subtree_both_schemes() {
        let doc = base();
        let mut naive = NaiveDocument::from_document(&doc);
        let mut paged = PagedDocument::from_document(&doc, 8, 75);
        naive.delete_subtree(1); // delete <b> subtree (3 nodes)
        paged.delete_subtree(1);
        let expected = "<a><f><g/><h><i/><j/></h></f></a>";
        assert_eq!(serialize_document(&naive.to_document()), expected);
        assert_eq!(serialize_document(&paged.to_document()), expected);
        assert_eq!(naive.len(), 6);
        assert_eq!(paged.len(), 6);
    }

    #[test]
    fn repeated_updates_keep_invariants() {
        let doc = base();
        let mut paged = PagedDocument::from_document(&doc, 8, 50);
        for i in 0..20 {
            paged.insert_last_child(0, &fragment_from_xml(&format!("<n{i}><c/></n{i}>")));
        }
        let mat = paged.to_document();
        mat.check_invariants().unwrap();
        assert_eq!(mat.len(), 9 + 40);
        assert_eq!(mat.size(0), mat.len() as u32 - 1);
    }

    /// Drive the same op sequence through both schemes and compare.
    fn both(ops: impl Fn(&mut dyn StructuralUpdate)) -> (String, String) {
        let doc = base();
        let mut naive = NaiveDocument::from_document(&doc);
        let mut paged = PagedDocument::from_document(&doc, 4, 75);
        ops(&mut naive);
        ops(&mut paged);
        let n = naive.to_document();
        let p = paged.to_document();
        n.check_invariants().unwrap();
        p.check_invariants().unwrap();
        (serialize_document(&n), serialize_document(&p))
    }

    #[test]
    fn sibling_inserts_both_schemes() {
        // base: a(0) b(1) c(2) d(3) f(4) g(5) h(6) i(7) j(8)
        let (n, p) = both(|d| {
            d.insert_before(1, &fragment_from_xml("<p/>"));
            // <b> moved to pre 2; insert after its subtree
            d.insert_after(2, &fragment_from_xml("<q><r/></q>"));
            d.insert_first_child(0, &fragment_from_xml("<s/>"));
        });
        assert_eq!(n, p);
        assert_eq!(
            n,
            "<a><s/><p/><b><c/><d/></b><q><r/></q><f><g/><h><i/><j/></h></f></a>"
        );
    }

    #[test]
    fn replace_subtree_both_schemes() {
        let (n, p) = both(|d| {
            d.replace_subtree(1, &fragment_from_xml("<x><y/></x>"));
        });
        assert_eq!(n, p);
        assert_eq!(n, "<a><x><y/></x><f><g/><h><i/><j/></h></f></a>");
        // replacement with a multi-root sequence
        let (n, p) = both(|d| {
            d.replace_subtree(6, &fragment_from_xml("<u/>").clone());
            d.replace_subtree(1, &{
                let mut b = DocumentBuilder::new("#frag");
                b.start_element("one");
                b.end_element();
                b.start_element("two");
                b.end_element();
                b.finish()
            });
        });
        assert_eq!(n, p);
        assert_eq!(n, "<a><one/><two/><f><g/><u/></f></a>");
    }

    #[test]
    fn replace_value_both_schemes() {
        let doc = shred(
            "t",
            "<a><b>old</b><c><d/><e/></c></a>",
            &ShredOptions::default(),
        )
        .unwrap();
        let mut naive = NaiveDocument::from_document(&doc);
        let mut paged = PagedDocument::from_document(&doc, 4, 75);
        for d in [&mut naive as &mut dyn StructuralUpdate, &mut paged] {
            d.replace_value(2, "new"); // text node under <b>
            d.replace_value(3, "flat"); // element <c>: children replaced
        }
        let expected = "<a><b>new</b><c>flat</c></a>";
        assert_eq!(serialize_document(&naive.to_document()), expected);
        assert_eq!(serialize_document(&paged.to_document()), expected);
        // empty value empties the element
        naive.replace_value(3, "");
        paged.replace_value(3, "");
        let expected = "<a><b>new</b><c/></a>";
        assert_eq!(serialize_document(&naive.to_document()), expected);
        assert_eq!(serialize_document(&paged.to_document()), expected);
    }

    #[test]
    fn rename_and_attribute_patching_both_schemes() {
        let doc = shred("t", "<a x=\"1\"><b y=\"2\"/></a>", &ShredOptions::default()).unwrap();
        let mut naive = NaiveDocument::from_document(&doc);
        let mut paged = PagedDocument::from_document(&doc, 8, 75);
        for d in [&mut naive as &mut dyn StructuralUpdate, &mut paged] {
            d.rename(1, "bee");
            d.set_attribute(1, "y", "22"); // overwrite
            d.set_attribute(1, "z", "3"); // insert
            d.remove_attribute(0, "x");
            d.rename_attribute(1, "z", "zz");
        }
        let expected = "<a><bee y=\"22\" zz=\"3\"/></a>";
        assert_eq!(serialize_document(&naive.to_document()), expected);
        assert_eq!(serialize_document(&paged.to_document()), expected);
    }

    #[test]
    fn materialize_preserves_document_nodes_and_pis() {
        let opts = ShredOptions {
            document_node: true,
            ..ShredOptions::default()
        };
        let doc = shred("t", "<?pi data?><a><b/></a>", &opts).unwrap();
        assert_eq!(doc.kind(0), NodeKind::Document);
        let paged = PagedDocument::from_document(&doc, 8, 75);
        let mat = paged.to_document();
        mat.check_invariants().unwrap();
        assert_eq!(mat.kind(0), NodeKind::Document);
        assert_eq!(serialize_document(&mat), serialize_document(&doc));
        // PI target survives the round trip
        let pi = (0..mat.len() as u32)
            .find(|&p| mat.kind(p) == NodeKind::ProcessingInstruction)
            .unwrap();
        assert_eq!(mat.name_of(pi), "pi");
        assert_eq!(mat.text_of(pi), "data");
    }

    #[test]
    fn repeated_inserts_split_pages_instead_of_remapping() {
        // Regression test for the page-fill policy: overflow pages used to be
        // created 100% full, so every subsequent insert into the same region
        // allocated fresh pages.  With fill-factor-aware splits, N one-node
        // inserts into the same page allocate ~N/(page_size-fill) pages.
        let doc = base();
        let page_size = 16;
        let mut paged = PagedDocument::from_document(&doc, page_size, 50);
        assert_eq!(paged.fill_percent(), 50);
        let n = 100u32;
        let frag = fragment_from_xml("<z/>");
        for _ in 0..n {
            paged.insert_first_child(0, &frag);
        }
        let mat = paged.to_document();
        mat.check_invariants().unwrap();
        assert_eq!(mat.len(), 9 + n as usize);
        // splits are amortized: each allocated page absorbs about
        // page_size - fill = 8 inserts, so ~13 allocations for 100 inserts —
        // far below the one-allocation-per-insert of the broken policy
        assert!(
            paged.stats.pages_allocated <= (n as u64) / 2,
            "pages_allocated = {} for {} inserts",
            paged.stats.pages_allocated,
            n
        );
        // and no O(N) remaps: the tuple writes per insert stay bounded by the
        // page size (plus the ancestor delta), not the document size
        assert!(
            paged.stats.tuples_written <= (n as u64) * (page_size as u64 + 4),
            "tuples_written = {}",
            paged.stats.tuples_written
        );
    }

    #[test]
    fn set_fill_percent_tunes_future_splits() {
        let doc = base();
        let mut paged = PagedDocument::from_document(&doc, 8, 100);
        paged.set_fill_percent(50);
        assert_eq!(paged.stats.fill_percent, 50);
        // force a split: the overflow pages are now half-filled
        let frag = fragment(|b| {
            b.start_element("x1");
            b.end_element();
            b.start_element("x2");
            b.end_element();
        });
        paged.insert_first_child(0, &frag);
        assert!(paged.free_slots() > 0, "split pages keep free slots");
        paged.to_document().check_invariants().unwrap();
    }

    #[test]
    fn stats_delta_and_accumulate() {
        let doc = base();
        let mut paged = PagedDocument::from_document(&doc, 8, 75);
        let before = paged.stats;
        paged.insert_last_child(0, &fragment_from_xml("<x/>"));
        let delta = paged.stats.delta_since(&before);
        assert!(delta.tuples_written >= 1);
        assert_eq!(delta.fill_percent, 75);
        let mut acc = UpdateStats::default();
        acc.accumulate(&delta);
        acc.accumulate(&delta);
        assert_eq!(acc.tuples_written, 2 * delta.tuples_written);
    }
}
