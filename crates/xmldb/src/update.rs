//! Structural updates on the pre|size|level encoding (Section 5.2, Fig. 10/11).
//!
//! A subtree insert shifts the `pre` rank of every following node and grows
//! the `size` of every ancestor.  The paper's remedy is an indirection layer:
//! the document is divided into **logical pages** whose pre numbers are
//! remapped page by page, so an insert rewrites one page instead of the
//! whole table, and `size` maintenance uses deltas so the root need not
//! stay locked.  Here the logical page is a chunk of the document's column
//! image ([`DocumentColumns`]): a splice lands in one chunk and shifts only
//! its rows, a chunk that outgrows twice its row target splits into
//! row-target pieces, and a chunk emptied by deletes is dropped.  The chunk
//! image is the document's only store, and [`PagedDocument::snapshot`]
//! publishes it as a [`Document`], the one container type.  An inserted
//! fragment is a [`Document`] the builder wrote, in the same encoding: the
//! splice copies its rows out of its own image, mapping each distinct name
//! and attribute code once, with no row type in between.
//!
//! Two implementations are provided so the ablation (README, "Updates")
//! can compare them:
//!
//! * [`PagedDocument`] — the paper's scheme; counts chunks touched.
//! * [`NaiveDocument`] — textbook renumbering; counts tuples moved.
//!
//! Both expose the same update-primitive surface through the
//! [`StructuralUpdate`] trait — the operations the XQuery Update Facility
//! subset of `mxq-xquery` compiles to: child/sibling inserts, subtree
//! deletion and replacement, value replacement, renames and attribute
//! patching.  The naive scheme doubles as the differential-testing reference
//! for the paged one; its flat `Tuple` vector is the only row type outside
//! the chunk image, and its rebuild into a container goes through the
//! builder's checked stored-row entry.

use std::sync::Arc;

use crate::columns::DocumentColumns;
use crate::doc::{Document, DocumentBuilder};
use crate::node::NodeKind;

/// Cost counters accumulated by the update schemes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Number of rows written (inserted, moved or size-adjusted).
    pub tuples_written: u64,
    /// Number of logical pages (column chunks) whose contents were
    /// modified.
    pub pages_touched: u64,
    /// Number of logical pages (column chunks) created by splits.
    pub pages_allocated: u64,
}

impl UpdateStats {
    /// Counter increments since `earlier`.
    pub fn delta_since(&self, earlier: &UpdateStats) -> UpdateStats {
        UpdateStats {
            tuples_written: self.tuples_written - earlier.tuples_written,
            pages_touched: self.pages_touched - earlier.pages_touched,
            pages_allocated: self.pages_allocated - earlier.pages_allocated,
        }
    }

    /// Field-wise sum of two counter sets (used when aggregating the deltas
    /// of several updated documents into one report).
    pub fn accumulate(&mut self, other: &UpdateStats) {
        self.tuples_written += other.tuples_written;
        self.pages_touched += other.pages_touched;
        self.pages_allocated += other.pages_allocated;
    }
}

/// The update-primitive surface shared by the paged and the naive scheme.
///
/// All positions are *logical* preorder ranks in the current document state.
/// Inserted fragments may hold several fragment roots (a sequence of nodes);
/// their rows are read in one walk over their chunks and their levels
/// re-based onto the insertion point.
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
    /// The logical view as a read-only [`Document`].
    fn to_document(&self) -> Document;
    /// Accumulated cost counters.
    fn update_stats(&self) -> UpdateStats;
}

/// One node row with its properties inline: the row type of the naive
/// scheme.
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

/// The rows of `doc` in preorder, sharing its name, text and attribute
/// strings.
pub(crate) fn tuples_of(doc: &Document) -> Vec<Tuple> {
    let cols = doc.columns();
    let (tags, names, values) = (cols.tags(), cols.attr_names(), cols.attr_values());
    let empty: Arc<str> = Arc::from("");
    let document: Arc<str> = Arc::from("#document");
    let mut rows = Vec::with_capacity(cols.len());
    cols.walk_rows(0, cols.len(), |row| {
        rows.push(Tuple {
            size: row.size,
            level: row.level,
            kind: row.kind,
            name: match row.kind {
                NodeKind::Document => document.clone(),
                _ => tags.str_of(row.name_code).clone(),
            },
            text: match row.text {
                "" => empty.clone(),
                text => Arc::from(text),
            },
            attrs: row
                .attr_names
                .iter()
                .zip(row.attr_values)
                .map(|(&n, &v)| (names.str_of(n).clone(), values.str_of(v).clone()))
                .collect(),
        })
    });
    rows
}

/// A fragment of one text node, the content an element's value
/// replacement inserts.
fn text_fragment(text: &str) -> Document {
    let mut b = DocumentBuilder::new("#text");
    b.text(text);
    b.finish()
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
            stats: UpdateStats::default(),
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

    /// Insert `fragment` at `pos` with its roots at `level`, growing the
    /// ancestors from `anchor` on.
    fn insert_fragment(&mut self, pos: u32, level: u16, anchor: Option<u32>, fragment: &Document) {
        let mut rows = tuples_of(fragment);
        for t in &mut rows {
            t.level += level;
        }
        self.splice_in(pos as usize, rows, anchor);
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
}

impl StructuralUpdate for NaiveDocument {
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
        self.assert_container(parent_pre, "insert_first_child");
        let level = self.level(parent_pre) + 1;
        self.insert_fragment(parent_pre + 1, level, Some(parent_pre), fragment);
    }

    fn insert_last_child(&mut self, parent_pre: u32, fragment: &Document) {
        self.assert_container(parent_pre, "insert_last_child");
        let pos = parent_pre + self.size(parent_pre) + 1;
        let level = self.level(parent_pre) + 1;
        self.insert_fragment(pos, level, Some(parent_pre), fragment);
    }

    fn insert_before(&mut self, pre: u32, fragment: &Document) {
        self.insert_at(pre, self.level(pre), fragment);
    }

    fn insert_at(&mut self, pos: u32, level: u16, fragment: &Document) {
        let anchor = self.anchor_before(pos, level);
        self.insert_fragment(pos, level, anchor, fragment);
    }

    fn insert_after(&mut self, pre: u32, fragment: &Document) {
        let level = self.level(pre);
        let insert_at = pre + self.size(pre) + 1;
        self.insert_at(insert_at, level, fragment);
    }

    fn delete_subtree(&mut self, pre: u32) {
        let removed = self.size(pre) + 1;
        let parent = self.parent(pre);
        self.remove_range(pre as usize, removed as usize);
        self.shrink_ancestors(parent, removed);
    }

    fn replace_subtree(&mut self, pre: u32, fragment: &Document) {
        let removed = self.size(pre) + 1;
        let level = self.level(pre);
        let anchor = self.parent(pre);
        self.remove_range(pre as usize, removed as usize);
        self.shrink_ancestors(anchor, removed);
        self.insert_fragment(pre, level, anchor, fragment);
    }

    fn replace_value(&mut self, pre: u32, text: &str) {
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
                    self.insert_fragment(pre + 1, level + 1, Some(pre), &text_fragment(text));
                }
            }
        }
    }

    fn rename(&mut self, pre: u32, name: &str) {
        if matches!(
            self.kind(pre),
            NodeKind::Element | NodeKind::ProcessingInstruction
        ) {
            self.tuples[pre as usize].name = Arc::from(name);
            self.stats.tuples_written += 1;
        }
    }

    fn set_attribute(&mut self, pre: u32, name: &str, value: &str) {
        self.assert_container(pre, "set_attribute");
        let attrs = &mut self.tuples[pre as usize].attrs;
        match attrs.iter_mut().find(|(n, _)| n.as_ref() == name) {
            Some((_, v)) => *v = Arc::from(value),
            None => attrs.push((Arc::from(name), Arc::from(value))),
        }
        self.stats.tuples_written += 1;
    }

    fn remove_attribute(&mut self, pre: u32, name: &str) {
        self.tuples[pre as usize]
            .attrs
            .retain(|(n, _)| n.as_ref() != name);
        self.stats.tuples_written += 1;
    }

    fn rename_attribute(&mut self, pre: u32, name: &str, new_name: &str) {
        if let Some((n, _)) = self.tuples[pre as usize]
            .attrs
            .iter_mut()
            .find(|(n, _)| n.as_ref() == name)
        {
            *n = Arc::from(new_name);
        }
        self.stats.tuples_written += 1;
    }

    /// The tuples written into a container through the builder's checked
    /// stored-row entry, for querying / verification.
    ///
    /// # Panics
    /// Panics if the rows are not a well-formed preorder encoding — a
    /// fault of this scheme, which keeps them so.
    fn to_document(&self) -> Document {
        let mut b = DocumentBuilder::new(self.name.clone());
        let rows = self.tuples.iter().try_for_each(|t| {
            let attrs = t.attrs.iter().map(|(n, v)| (&**n, &**v));
            b.stored_row((t.kind, t.level, t.size), &t.name, &t.text, attrs)
        });
        rows.and_then(|()| b.finish_stored())
            .expect("the naive scheme keeps well-formed rows")
    }

    fn update_stats(&self) -> UpdateStats {
        self.stats
    }
}

// ---------------------------------------------------------------------------
// Chunk-wise remappable pre-numbers (the paper's scheme)
// ---------------------------------------------------------------------------

/// Updatable document with chunk-wise remappable pre-numbers (Section 5.2).
///
/// The document's only store is its chunked column image
/// ([`DocumentColumns`], held behind [`Arc`]): each chunk is a logical
/// page of the paper's scheme, and each applied primitive is one patch of
/// the image — a splice that lands in one chunk (splitting it when it
/// outgrows twice the row target), a removal, a size delta, or an in-place
/// name, text or attribute write.  Chunks are copied on their first write
/// after a publish.  [`PagedDocument::snapshot`] publishes the image as an
/// immutable [`Document`] in O(1) plus the fragment-root scan: the read
/// view queries scan.
#[derive(Debug, Clone)]
pub struct PagedDocument {
    name: String,
    /// The document: the incrementally maintained relational image.
    columns: Arc<DocumentColumns>,
    /// Accumulated costs: chunks patched (`pages_touched`), rows written
    /// (`tuples_written`) and chunks created by splits (`pages_allocated`).
    pub stats: UpdateStats,
}

impl PagedDocument {
    /// The updatable master of a container: an `Arc` clone of its image;
    /// chunks are copied on first write only.
    pub fn from_document(doc: &Document) -> Self {
        PagedDocument {
            name: doc.name.clone(),
            columns: doc.columns_arc(),
            stats: UpdateStats::default(),
        }
    }

    /// The incrementally maintained relational image of the current state.
    pub fn columns(&self) -> &DocumentColumns {
        &self.columns
    }

    /// Rebuild the column image at a different chunk row target (must be a
    /// power of two); subsequent incremental maintenance keeps it.  Used by
    /// the differential tests to cross, split and empty chunks on small
    /// documents.
    pub fn rechunk_columns(&mut self, chunk_rows: usize) {
        self.columns = Arc::new(self.columns.rechunked(chunk_rows));
    }

    /// Publish the current state as an immutable container: the column
    /// image (an `Arc` clone) and its fragment roots.
    pub fn snapshot(&self) -> Document {
        Document::from_columns(self.name.clone(), self.columns.clone())
    }

    /// Number of nodes in the logical view.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if the logical view holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mutable access to the relational image (copy-on-write: the first
    /// patch after a publish clones the image's chunk *pointers*; each
    /// patched chunk is then copied on its own first write).
    fn columns_mut(&mut self) -> &mut DocumentColumns {
        Arc::make_mut(&mut self.columns)
    }

    /// `size` of the node at logical position `pre`.
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

    /// Remove `count` rows starting at logical position `start`; only the
    /// chunks holding them are patched.
    fn remove_range(&mut self, start: usize, count: usize) {
        if count == 0 {
            return;
        }
        let touched = self.columns_mut().remove_nodes(start, count);
        self.stats.pages_touched += touched as u64;
        self.stats.tuples_written += count as u64;
    }

    /// Ancestor size maintenance via deltas (no row moves; `size` is not
    /// summarized).
    fn bump_ancestors(&mut self, anchor: Option<u32>, delta: i64) {
        if delta == 0 {
            return;
        }
        let mut anc = anchor;
        while let Some(a) = anc {
            let next = self.parent(a);
            self.columns_mut().add_size(a, delta);
            self.stats.tuples_written += 1;
            anc = next;
        }
    }

    /// One in-place write of the row at `pre`.
    fn count_row_write(&mut self) {
        self.stats.tuples_written += 1;
        self.stats.pages_touched += 1;
    }

    /// Insert `fragment` at `pos` with its roots at `level`, growing the
    /// ancestors from `anchor` on.  Its rows land in one chunk, which splits
    /// into row-target pieces when it outgrows twice the target, so
    /// repeated inserts into one region keep splitting locally instead of
    /// remapping O(N) rows (Figure 11).
    fn insert_fragment(&mut self, pos: u32, level: u16, anchor: Option<u32>, fragment: &Document) {
        let rows = fragment.len();
        if rows == 0 {
            return;
        }
        let added = self
            .columns_mut()
            .splice_nodes(pos as usize, fragment.columns(), level);
        self.stats.pages_touched += 1 + added as u64;
        self.stats.pages_allocated += added as u64;
        self.stats.tuples_written += rows as u64;
        if added > 0 {
            // a split copies the chunk — more than twice the row target —
            // into its pieces; count the threshold
            self.stats.tuples_written += 2 * self.columns.chunk_rows() as u64;
        }
        self.bump_ancestors(anchor, rows as i64);
    }
}

impl StructuralUpdate for PagedDocument {
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
        self.assert_container(parent_pre, "insert_first_child");
        let level = self.level(parent_pre) + 1;
        self.insert_fragment(parent_pre + 1, level, Some(parent_pre), fragment);
    }

    fn insert_last_child(&mut self, parent_pre: u32, fragment: &Document) {
        self.assert_container(parent_pre, "insert_last_child");
        let pos = parent_pre + self.size(parent_pre) + 1;
        let level = self.level(parent_pre) + 1;
        self.insert_fragment(pos, level, Some(parent_pre), fragment);
    }

    fn insert_before(&mut self, pre: u32, fragment: &Document) {
        self.insert_at(pre, self.level(pre), fragment);
    }

    fn insert_at(&mut self, pos: u32, level: u16, fragment: &Document) {
        let anchor = self.anchor_before(pos, level);
        self.insert_fragment(pos, level, anchor, fragment);
    }

    fn insert_after(&mut self, pre: u32, fragment: &Document) {
        let level = self.level(pre);
        let pos = pre + self.size(pre) + 1;
        self.insert_at(pos, level, fragment);
    }

    fn delete_subtree(&mut self, pre: u32) {
        let removed = self.size(pre) + 1;
        let parent = self.parent(pre);
        self.remove_range(pre as usize, removed as usize);
        self.bump_ancestors(parent, -(removed as i64));
    }

    fn replace_subtree(&mut self, pre: u32, fragment: &Document) {
        let removed = self.size(pre) + 1;
        let level = self.level(pre);
        let anchor = self.parent(pre);
        self.remove_range(pre as usize, removed as usize);
        self.bump_ancestors(anchor, -(removed as i64));
        self.insert_fragment(pre, level, anchor, fragment);
    }

    fn replace_value(&mut self, pre: u32, text: &str) {
        match self.kind(pre) {
            NodeKind::Text | NodeKind::Comment | NodeKind::ProcessingInstruction => {
                self.columns_mut().set_text(pre, text);
                self.count_row_write();
            }
            NodeKind::Element | NodeKind::Document => {
                let removed = self.size(pre);
                let level = self.level(pre);
                self.remove_range(pre as usize + 1, removed as usize);
                self.columns_mut().add_size(pre, -(removed as i64));
                let parent = self.parent(pre);
                self.bump_ancestors(parent, -(removed as i64));
                if !text.is_empty() {
                    self.insert_fragment(pre + 1, level + 1, Some(pre), &text_fragment(text));
                }
            }
        }
    }

    fn rename(&mut self, pre: u32, name: &str) {
        if matches!(
            self.kind(pre),
            NodeKind::Element | NodeKind::ProcessingInstruction
        ) {
            self.columns_mut().set_name(pre, name);
            self.count_row_write();
        }
    }

    fn set_attribute(&mut self, pre: u32, name: &str, value: &str) {
        self.assert_container(pre, "set_attribute");
        self.columns_mut().set_attribute(pre, name, value);
        self.count_row_write();
    }

    fn remove_attribute(&mut self, pre: u32, name: &str) {
        self.columns_mut().remove_attribute(pre, name);
        self.count_row_write();
    }

    fn rename_attribute(&mut self, pre: u32, name: &str, new_name: &str) {
        self.columns_mut().rename_attribute(pre, name, new_name);
        self.count_row_write();
    }

    /// The "pre|size|level table view with pages in logical order" of
    /// Fig. 11: the published snapshot.
    fn to_document(&self) -> Document {
        self.snapshot()
    }

    fn update_stats(&self) -> UpdateStats {
        self.stats
    }
}

/// Build a small XML fragment document from text (helper used by examples,
/// benches and tests when composing subtrees to insert).
pub fn fragment_from_xml(xml: &str) -> Document {
    crate::shred::shred("#fragment", xml, &crate::shred::ShredOptions::default())
        .expect("invalid fragment XML")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::DocumentBuilder;
    use crate::read::NodeRead;
    use crate::serialize::serialize_document;
    use crate::shred::{shred, ShredOptions};

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    /// The paged scheme over `doc` with `chunk_rows`-row chunks.
    fn paged(doc: &Document, chunk_rows: usize) -> PagedDocument {
        let mut paged = PagedDocument::from_document(doc);
        paged.rechunk_columns(chunk_rows);
        paged
    }

    /// The paged scheme's image and its materialization are well-formed.
    fn check(paged: &PagedDocument) -> Result<(), String> {
        paged.columns().check_invariants()?;
        paged.to_document().check_invariants()
    }

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
    fn paged_insert_matches_naive() -> TestResult {
        let doc = base();
        let frag = fragment_from_xml("<k><l/><m/></k>");
        let mut naive = NaiveDocument::from_document(&doc);
        let mut paged = paged(&doc, 4);
        naive.insert_last_child(4, &frag);
        paged.insert_last_child(4, &frag);
        assert_eq!(
            serialize_document(&naive.to_document()),
            serialize_document(&paged.to_document())
        );
        Ok(check(&paged)?)
    }

    #[test]
    fn paged_insert_into_free_space_touches_one_page() {
        let doc = base();
        // a 16-row chunk splits only past 32 rows: the nine-node document
        // leaves it plenty of room
        let mut paged = paged(&doc, 16);
        let before_chunks = paged.columns().chunk_count();
        paged.insert_last_child(1, &fragment_from_xml("<x/>"));
        assert_eq!(paged.stats.pages_touched, 1);
        assert_eq!(paged.stats.pages_allocated, 0);
        assert_eq!(paged.columns().chunk_count(), before_chunks);
    }

    #[test]
    fn paged_large_insert_appends_pages() -> TestResult {
        let doc = base();
        let mut paged = paged(&doc, 2);
        paged.insert_last_child(
            0,
            &fragment_from_xml("<big><x1/><x2/><x3/><x4/><x5/></big>"),
        );
        assert!(paged.stats.pages_allocated >= 1);
        assert_eq!(paged.len(), 9 + 6);
        Ok(check(&paged)?)
    }

    #[test]
    fn delete_subtree_both_schemes() {
        let doc = base();
        let mut naive = NaiveDocument::from_document(&doc);
        let mut paged = paged(&doc, 4);
        naive.delete_subtree(1); // delete <b> subtree (3 nodes)
        paged.delete_subtree(1);
        let expected = "<a><f><g/><h><i/><j/></h></f></a>";
        assert_eq!(serialize_document(&naive.to_document()), expected);
        assert_eq!(serialize_document(&paged.to_document()), expected);
        assert_eq!(naive.len(), 6);
        assert_eq!(paged.len(), 6);
    }

    #[test]
    fn repeated_updates_keep_invariants() -> TestResult {
        let doc = base();
        let mut paged = paged(&doc, 4);
        for i in 0..20 {
            paged.insert_last_child(0, &fragment_from_xml(&format!("<n{i}><c/></n{i}>")));
        }
        check(&paged)?;
        assert_eq!(paged.len(), 9 + 40);
        assert_eq!(paged.size(0), paged.len() as u32 - 1);
        Ok(())
    }

    /// Drive the same op sequence through both schemes and compare.
    fn both(ops: impl Fn(&mut dyn StructuralUpdate)) -> Result<(String, String), String> {
        let doc = base();
        let mut naive = NaiveDocument::from_document(&doc);
        let mut paged = paged(&doc, 2);
        ops(&mut naive);
        ops(&mut paged);
        check(&paged)?;
        let n = naive.to_document();
        n.check_invariants()?;
        Ok((
            serialize_document(&n),
            serialize_document(&paged.to_document()),
        ))
    }

    #[test]
    fn sibling_inserts_both_schemes() -> TestResult {
        // base: a(0) b(1) c(2) d(3) f(4) g(5) h(6) i(7) j(8)
        let (n, p) = both(|d| {
            d.insert_before(1, &fragment_from_xml("<p/>"));
            // <b> moved to pre 2; insert after its subtree
            d.insert_after(2, &fragment_from_xml("<q><r/></q>"));
            d.insert_first_child(0, &fragment_from_xml("<s/>"));
        })?;
        assert_eq!(n, p);
        assert_eq!(
            n,
            "<a><s/><p/><b><c/><d/></b><q><r/></q><f><g/><h><i/><j/></h></f></a>"
        );
        Ok(())
    }

    #[test]
    fn replace_subtree_both_schemes() -> TestResult {
        let (n, p) = both(|d| {
            d.replace_subtree(1, &fragment_from_xml("<x><y/></x>"));
        })?;
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
        })?;
        assert_eq!(n, p);
        assert_eq!(n, "<a><one/><two/><f><g/><u/></f></a>");
        Ok(())
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
        let mut paged = paged(&doc, 2);
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
        let mut paged = paged(&doc, 4);
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
    fn materialize_preserves_document_nodes_and_pis() -> TestResult {
        let opts = ShredOptions {
            document_node: true,
            ..ShredOptions::default()
        };
        let doc = shred("t", "<?pi data?><a><b/></a>", &opts)?;
        assert_eq!(doc.kind(0), NodeKind::Document);
        let paged = paged(&doc, 4);
        check(&paged)?;
        let mat = paged.to_document();
        assert_eq!(mat.kind(0), NodeKind::Document);
        assert_eq!(serialize_document(&mat), serialize_document(&doc));
        // PI target survives the round trip
        let pi = (0..mat.len() as u32)
            .find(|&p| mat.kind(p) == NodeKind::ProcessingInstruction)
            .ok_or("the PI is gone")?;
        assert_eq!(mat.name_of(pi), "pi");
        assert_eq!(mat.text_of(pi), "data");
        Ok(())
    }

    #[test]
    fn repeated_inserts_split_pages_instead_of_remapping() -> TestResult {
        // N one-node inserts into the same region: the chunk they land in
        // splits into row-target pieces each time it outgrows twice the
        // target, so each split absorbs about `chunk_rows` further inserts
        // and no insert remaps the document.
        let doc = base();
        let chunk_rows = 16;
        let mut paged = paged(&doc, chunk_rows);
        let n = 100u32;
        let frag = fragment_from_xml("<z/>");
        for _ in 0..n {
            paged.insert_first_child(0, &frag);
        }
        check(&paged)?;
        assert_eq!(paged.len(), 9 + n as usize);
        // splits are amortized: about two allocations per 17 inserts
        assert!(
            paged.stats.pages_allocated <= (n as u64) / 2,
            "pages_allocated = {} for {} inserts",
            paged.stats.pages_allocated,
            n
        );
        // and no O(N) remaps: the row writes per insert stay bounded by the
        // chunk size (plus the ancestor delta), not the document size
        assert!(
            paged.stats.tuples_written <= (n as u64) * (chunk_rows as u64 + 4),
            "tuples_written = {}",
            paged.stats.tuples_written
        );
        Ok(())
    }

    /// Comment and PI content and PI targets live in the chunk: value
    /// replacement, PI renames, deletes and inserts of such rows agree
    /// with the naive scheme across chunk bounds.
    #[test]
    fn comment_and_pi_rows_patch_in_the_chunk() -> TestResult {
        let doc = shred(
            "t",
            "<a><!--c1--><b>x<?p1 d1?></b><?p2 d2?><c/></a>",
            &ShredOptions::default(),
        )?;
        let mut naive = NaiveDocument::from_document(&doc);
        let mut paged = paged(&doc, 2);
        for d in [&mut naive as &mut dyn StructuralUpdate, &mut paged] {
            d.replace_value(1, "c2"); // comment
            d.rename(4, "p3"); // PI target
            d.replace_value(4, "d3"); // PI content
            d.replace_value(5, "d4");
            d.replace_value(3, "y"); // text
            d.insert_last_child(6, &fragment_from_xml("<k><!--n--><?t v?></k>"));
            d.delete_subtree(5);
        }
        check(&paged)?;
        let expected = "<a><!--c2--><b>y<?p3 d3?></b><c><k><!--n--><?t v?></k></c></a>";
        assert_eq!(serialize_document(&naive.to_document()), expected);
        assert_eq!(serialize_document(&paged.to_document()), expected);
        let snap = paged.snapshot();
        assert_eq!((snap.name_of(4), snap.text_of(4)), ("p3", "d3"));
        assert_eq!(snap.text_of(7), "n");
        assert_eq!((snap.name_of(8), snap.text_of(8)), ("t", "v"));
        Ok(())
    }

    #[test]
    fn stats_delta_and_accumulate() {
        let doc = base();
        let mut paged = paged(&doc, 4);
        let before = paged.stats;
        paged.insert_last_child(0, &fragment_from_xml("<x/>"));
        let delta = paged.stats.delta_since(&before);
        assert!(delta.tuples_written >= 1);
        let mut acc = UpdateStats::default();
        acc.accumulate(&delta);
        acc.accumulate(&delta);
        assert_eq!(acc.tuples_written, 2 * delta.tuples_written);
    }
}
