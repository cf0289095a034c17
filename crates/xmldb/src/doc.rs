//! The one node container, its read API and its builder.
//!
//! A [`Document`] is the relational image of XML trees (Figure 4 of the
//! paper): node `v` is the row at `pre(v)`, carrying `size(v)` (number of
//! descendants), `level(v)` (depth), its kind and its name, text and
//! attributes.  Its rows live in the chunked column image
//! ([`DocumentColumns`]): a shredded document, a loaded document and the
//! statement's transient container (fragment 0, which holds the nodes its
//! constructors build) are one type, and query scans, serialization and
//! the naive comparator all read it through its own methods.  A container
//! may hold several disjoint fragments; their roots are its level-0 rows,
//! reached from pre 0 by size jumps.
//!
//! The `run_*` methods expose the *storage runs* of the staircase-join
//! sweeps: a run is a chunk of the column image, which is what a scan
//! actually reads.  The per-chunk summaries (node-kind mask, minimum
//! level) let a scan skip a whole run when no node in it can match the
//! node test, and the per-chunk element-name index
//! ([`Document::run_named`]) is the candidate list of the name-test
//! push-down (paper Section 3.2), cut so that a step touches only the runs
//! its context regions overlap.
//!
//! [`DocumentBuilder`] writes the image in preorder, straight into its
//! chunks; it is the one row writer.  The shredder, construction and the
//! XQUF insert sources call its element, text and copy methods
//! (construction hands it content as column runs through
//! [`DocumentBuilder::append_content`], which copies a text's bytes into
//! the open chunk's heap); the
//! on-disk decoders and the naive update scheme's rebuild hand it stored
//! rows (with their sizes) through one checked entry, which errs on rows
//! no well-formed tree has.  A builder over an existing container
//! appends: its rows fill the open last chunk, and the written rows never
//! change after the builder finishes (the builder patches the size of an
//! element it closes, and nothing else), so a copy of a subtree within
//! one container is a range copy of its column slices and heap bytes.

use std::ops::Range;
use std::sync::Arc;

use mxq_engine::{Column, Item, NodeId};

use crate::columns::{Appender, AttrsIter, DocumentColumns, NamedRun};
use crate::node::NodeKind;

/// A document container: a name and the chunked column image of its rows.
#[derive(Debug, Clone, Default)]
pub struct Document {
    /// Document (container) name, e.g. the URI passed to `fn:doc`.
    pub name: String,
    columns: Arc<DocumentColumns>,
}

impl Document {
    /// Create an empty container with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Document {
            name: name.into(),
            ..Default::default()
        }
    }

    /// A container over `columns`.
    pub(crate) fn from_columns(name: String, columns: Arc<DocumentColumns>) -> Document {
        Document { name, columns }
    }

    /// Number of nodes in the container (attributes excluded).
    #[inline]
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if the container holds no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The column image.
    pub fn columns(&self) -> &DocumentColumns {
        &self.columns
    }

    /// Shared handle to the column image.
    pub fn columns_arc(&self) -> Arc<DocumentColumns> {
        self.columns.clone()
    }

    /// Rough resident-memory footprint in bytes of the column image.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.columns.approx_bytes()
    }

    /// Preorder ranks of the fragment roots (the level-0 rows), ascending:
    /// a walk from pre 0 that jumps over each root's subtree, O(roots).
    pub fn fragment_roots(&self) -> Children<'_> {
        Children {
            doc: self,
            next: 0,
            end: self.len() as u32,
        }
    }

    /// Preorder ranks (in document order) of all elements named `name`,
    /// collected from the per-chunk name index.
    pub fn elements_named(&self, name: &str) -> Vec<u32> {
        let (Some(code), false) = (self.lookup_qname(name), self.is_empty()) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut pre = 0;
        while (pre as usize) < self.len() {
            let run = self.run_named(pre, code);
            out.extend(run.offsets.iter().map(|&o| run.base + o));
            pre = run.end + 1;
        }
        out
    }

    /// Check the image against itself (see
    /// [`DocumentColumns::check_invariants`]) and the walk of
    /// [`Document::fragment_roots`] against its level-0 rows.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.columns.check_invariants()?;
        let level0 = (0..self.len() as u32).filter(|&v| self.level(v) == 0);
        if !self.fragment_roots().eq(level0) {
            return Err("the fragment-root walk does not land on exactly the level-0 rows".into());
        }
        Ok(())
    }

    // -- structural reads ---------------------------------------------------

    /// `size(v)`: number of nodes in the subtree below `pre`.
    #[inline]
    pub fn size(&self, pre: u32) -> u32 {
        self.columns.node_size(pre)
    }

    /// `level(v)`: distance from the fragment root.
    #[inline]
    pub fn level(&self, pre: u32) -> u16 {
        self.columns.node_level(pre)
    }

    /// Node kind of `pre`.
    #[inline]
    pub fn kind(&self, pre: u32) -> NodeKind {
        self.columns.node_kind(pre)
    }

    /// Element name / PI target of `pre` (empty for other kinds).
    #[inline]
    pub fn name_of(&self, pre: u32) -> &str {
        match self.kind(pre) {
            NodeKind::Element | NodeKind::ProcessingInstruction => self.columns.node_name(pre),
            _ => "",
        }
    }

    /// Direct text content of a text/comment/PI node.
    pub fn text_of(&self, pre: u32) -> &str {
        self.columns.node_text(pre)
    }

    /// Interned name id of an element (the container's tag code; only
    /// comparable against ids from the *same* container).
    #[inline]
    pub fn qname_id(&self, pre: u32) -> Option<u32> {
        match self.kind(pre) {
            NodeKind::Element => Some(self.columns.node_name_code(pre)),
            _ => None,
        }
    }

    /// Resolve an element name to this container's interned id, if any
    /// element with the name exists.
    pub fn lookup_qname(&self, name: &str) -> Option<u32> {
        self.columns.tags().code_of(name)
    }

    /// Value of attribute `name` on element `pre`.
    pub fn attribute(&self, pre: u32, name: &str) -> Option<&str> {
        self.columns.attr_value_of(pre, name)
    }

    /// All attributes of element `pre` as (name, value) pairs.
    pub fn attrs(&self, pre: u32) -> AttrsIter<'_> {
        self.columns.attrs_of(pre)
    }

    /// Parent of `pre`: the closest preceding node with a smaller level.
    pub fn parent(&self, pre: u32) -> Option<u32> {
        self.columns.anchor_before(pre, self.level(pre))
    }

    /// The children of `pre`, in document order, each reached from the one
    /// before it by a size jump.
    pub fn children(&self, pre: u32) -> Children<'_> {
        Children {
            doc: self,
            next: pre + 1,
            end: pre + self.size(pre) + 1,
        }
    }

    /// XQuery string value: concatenated descendant text content.
    pub fn string_value(&self, pre: u32) -> String {
        match self.kind(pre) {
            NodeKind::Text | NodeKind::Comment | NodeKind::ProcessingInstruction => {
                self.text_of(pre).to_string()
            }
            _ => {
                let mut out = String::new();
                for v in pre + 1..=pre + self.size(pre) {
                    if self.kind(v) == NodeKind::Text {
                        out.push_str(self.text_of(v));
                    }
                }
                out
            }
        }
    }

    // -- storage runs (column chunks) ----------------------------------------

    /// The element-name index of the storage run containing `pre`: the
    /// elements of that run whose interned name id
    /// ([`Document::lookup_qname`]) is `name_id`, borrowed from the chunk's
    /// name index (built by the first such read of the chunk), with the
    /// run's `size` and `level` columns.
    #[inline]
    pub fn run_named(&self, pre: u32, name_id: u32) -> NamedRun<'_> {
        self.columns.chunk_named(pre, name_id)
    }

    /// Last preorder rank of the storage run containing `pre`.
    #[inline]
    pub fn run_end(&self, pre: u32) -> u32 {
        let (start, len) = self.columns.chunk_span(self.columns.chunk_of(pre));
        start + len as u32 - 1
    }

    /// Does the run containing `pre` hold an element with name id `name_id`?
    /// Exact: past the name buckets it reads the run's name index, which
    /// a first such probe builds.
    #[inline]
    pub fn run_has_name(&self, pre: u32, name_id: u32) -> bool {
        !self.run_named(pre, name_id).offsets.is_empty()
    }

    /// May the run containing `pre` hold a node of `kind`?
    #[inline]
    pub fn run_has_kind(&self, pre: u32, kind: NodeKind) -> bool {
        self.columns
            .chunk_has_kind(self.columns.chunk_of(pre), kind)
    }
}

/// The nodes of a stretch of preorder ranks that are siblings of its first
/// one, each reached from the one before it by a size jump: the children
/// of a node ([`Document::children`]) or the fragment roots of a container
/// ([`Document::fragment_roots`]).
pub struct Children<'a> {
    doc: &'a Document,
    next: u32,
    /// The first preorder rank past the stretch.
    end: u32,
}

impl Iterator for Children<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.next >= self.end {
            return None;
        }
        let cur = self.next;
        self.next = cur + self.doc.size(cur) + 1;
        Some(cur)
    }
}

/// Incremental builder used by the shredder, element construction and the
/// XQUF insert sources.
///
/// The builder writes rows in preorder straight into the chunks of the
/// container's column image, patching each element's `size` when it is
/// closed — a purely sequential write pattern, which is why shredding
/// scales linearly (Section 6, "Shredding and Serialization").  A row
/// written while nothing is open is a fragment root.
#[derive(Debug)]
pub struct DocumentBuilder {
    name: String,
    rows: Appender,
    /// Stack of open element pre ranks.
    open: Vec<u32>,
    /// The string values of the adjacent atomics of a content sequence
    /// not yet written as a text node, joined by single spaces (the
    /// buffer is kept across calls).
    atomics: String,
}

impl DocumentBuilder {
    /// Start building a fresh document container.
    pub fn new(name: impl Into<String>) -> Self {
        Self::append_to(Document::new(name))
    }

    /// Continue building *into* an existing container (used by the transient
    /// container: each constructed tree becomes a new fragment).
    pub fn append_to(doc: Document) -> Self {
        DocumentBuilder {
            name: doc.name,
            rows: Appender::new(Arc::unwrap_or_clone(doc.columns)),
            open: Vec::new(),
            atomics: String::new(),
        }
    }

    /// Preorder rank the next node will receive.
    pub fn next_pre(&self) -> u32 {
        self.rows.len()
    }

    /// Preorder rank and level of the next node.
    fn next_row(&self) -> (u32, u16) {
        (self.next_pre(), self.open.len() as u16)
    }

    /// Intern an element name once, for repeated
    /// [`DocumentBuilder::start_interned`] calls.
    pub fn intern(&mut self, name: &str) -> u32 {
        self.rows.tag(name)
    }

    /// Open an element with the given name; returns its preorder rank.
    pub fn start_element(&mut self, name: &str) -> u32 {
        let qid = self.intern(name);
        self.start_interned(qid)
    }

    /// Open an element whose name id [`DocumentBuilder::intern`] returned;
    /// returns its preorder rank.
    pub fn start_interned(&mut self, qid: u32) -> u32 {
        self.start(NodeKind::Element, qid, 0)
    }

    /// Open a document node; returns its preorder rank.
    pub(crate) fn start_document(&mut self) -> u32 {
        let empty = self.rows.empty();
        self.start(NodeKind::Document, empty, 0)
    }

    /// Open an element or document row whose size is `size` until it is
    /// closed.
    fn start(&mut self, kind: NodeKind, name_code: u32, size: u32) -> u32 {
        let (pre, level) = self.next_row();
        self.rows.push((kind, level, size), name_code, "");
        self.open.push(pre);
        pre
    }

    /// The element attributes go to: the innermost open one.
    ///
    /// # Panics
    /// Panics if no element is open.
    fn owner(&self) -> u32 {
        *self.open.last().expect("attribute outside of element")
    }

    /// Add an attribute to the currently open element.
    ///
    /// # Panics
    /// Panics if no element is open.
    pub fn attribute(&mut self, name: &str, value: &str) {
        let owner = self.owner();
        self.rows.attribute(owner, name, value);
    }

    /// Close the most recently opened element.
    ///
    /// # Panics
    /// Panics if no element is open.
    pub fn end_element(&mut self) {
        let pre = self.open.pop().expect("end_element without start_element");
        self.rows.close(pre);
    }

    /// Add a text node (its bytes copied into the open chunk's heap);
    /// returns its preorder rank.
    pub fn text(&mut self, content: &str) -> u32 {
        let empty = self.rows.empty();
        self.leaf(NodeKind::Text, empty, content)
    }

    /// Add a comment node.
    pub fn comment(&mut self, content: &str) -> u32 {
        let empty = self.rows.empty();
        self.leaf(NodeKind::Comment, empty, content)
    }

    /// Add a processing instruction node.
    pub fn processing_instruction(&mut self, target: &str, content: &str) -> u32 {
        let target = self.rows.tag(target);
        self.leaf(NodeKind::ProcessingInstruction, target, content)
    }

    fn leaf(&mut self, kind: NodeKind, name_code: u32, content: &str) -> u32 {
        let (pre, level) = self.next_row();
        self.rows.push((kind, level, 0), name_code, content);
        pre
    }

    /// Append one stored preorder row — a decoded image's or the naive
    /// scheme's — checked against the rows before it: the rows open at
    /// `level` or deeper close first, each against the size it was stored
    /// with.  Errs on a row deeper than a child of the open row, on a
    /// stored size the level structure contradicts, and on a text,
    /// comment or PI row with children or attributes.  The image keeps no
    /// name for a text, comment or document row and no text for an
    /// element or document row: those arguments are ignored.
    pub(crate) fn stored_row<'s>(
        &mut self,
        (kind, level, size): (NodeKind, u16, u32),
        name: &str,
        text: &str,
        attrs: impl IntoIterator<Item = (&'s str, &'s str)>,
    ) -> Result<(), &'static str> {
        while self.open.len() > level as usize {
            self.close_stored()?;
        }
        if self.open.len() < level as usize {
            return Err("a row's level jumps past a child of its parent");
        }
        let name_code = match kind {
            NodeKind::Element | NodeKind::ProcessingInstruction => self.rows.tag(name),
            _ => self.rows.empty(),
        };
        let mut attrs = attrs.into_iter().peekable();
        match kind {
            NodeKind::Element | NodeKind::Document => {
                let pre = self.start(kind, name_code, size);
                for (n, v) in attrs {
                    self.rows.attribute(pre, n, v);
                }
            }
            _ if size != 0 => return Err("a text, comment or PI row with children"),
            _ if attrs.peek().is_some() => return Err("an attribute on a text, comment or PI row"),
            _ => drop(self.leaf(kind, name_code, text)),
        }
        Ok(())
    }

    /// Close the innermost open row of a stored row stream against the
    /// size it was stored with.
    fn close_stored(&mut self) -> Result<(), &'static str> {
        if let Some(pre) = self.open.pop() {
            let size = self.next_pre() - pre - 1;
            if self.rows.close(pre) != size {
                return Err("a stored size disagrees with the level structure");
            }
        }
        Ok(())
    }

    /// Finish a stored row stream ([`DocumentBuilder::stored_row`]): the
    /// rows still open close against their stored sizes, then the image is
    /// sealed.
    pub(crate) fn finish_stored(mut self) -> Result<Document, &'static str> {
        while !self.open.is_empty() {
            self.close_stored()?;
        }
        Ok(self.finish())
    }

    /// Deep-copy a subtree from another container as a child of the
    /// currently open element (or as a new fragment if nothing is open):
    /// a walk over its rows that shares their texts and maps each distinct
    /// name and attribute code once.
    pub fn copy_subtree(&mut self, src: &Document, src_pre: u32) -> u32 {
        let (pre, level) = self.next_row();
        self.rows.copy_from(src.columns(), src_pre, level);
        pre
    }

    /// [`DocumentBuilder::copy_subtree`] from the container being built
    /// itself: a range copy of its column slices.
    pub fn copy_subtree_within(&mut self, src_pre: u32) -> u32 {
        let (pre, level) = self.next_row();
        self.rows.copy_within(src_pre, level);
        pre
    }

    /// Append an evaluated content sequence, given as column runs, as
    /// children of the open element (or as new fragments when nothing is
    /// open), by the rules element construction and the XQUF insert
    /// sources share: a node item is deep-copied, a document node as its
    /// children, a text node as its bytes, and adjacent atomic items merge
    /// into one text node, their string values joined by single spaces and
    /// written once (an empty string value before any other adds nothing,
    /// and empty merged text writes no node).  Each run's column type is
    /// matched once.  `source` resolves a node's fragment id to its
    /// container, or to `None` for the container being built (which holds
    /// no document nodes).  Returns the number of rows the node copies
    /// appended.
    pub fn append_content<'c, 's, F>(
        &mut self,
        runs: impl IntoIterator<Item = (&'c Column, Range<usize>)>,
        mut source: F,
    ) -> u64
    where
        F: FnMut(u32) -> Option<&'s Document>,
    {
        let mut copied = 0;
        for (column, rows) in runs {
            match column {
                Column::Node(nodes) => {
                    for &n in &nodes[rows] {
                        copied += self.append_node(n, &mut source);
                    }
                }
                Column::Item(items) => {
                    for item in &items[rows] {
                        match item {
                            Item::Node(n) => copied += self.append_node(*n, &mut source),
                            Item::Str(s) => self.push_atomic(s),
                            atomic => self.push_atomic(&atomic.string_value()),
                        }
                    }
                }
                Column::Str(strings) => {
                    for s in &strings[rows] {
                        self.push_atomic(s);
                    }
                }
                Column::Dict { codes, dict } => {
                    for &code in &codes[rows] {
                        self.push_atomic(dict.str_of(code));
                    }
                }
                atomics => {
                    for row in rows {
                        self.push_atomic(&atomics.item(row).string_value());
                    }
                }
            }
        }
        self.flush_atomics();
        copied
    }

    /// Append a copy of the node `n` (see [`Self::append_content`]);
    /// returns the number of rows it appended.
    fn append_node<'s>(
        &mut self,
        n: NodeId,
        source: &mut impl FnMut(u32) -> Option<&'s Document>,
    ) -> u64 {
        self.flush_atomics();
        let before = self.next_pre();
        match source(n.frag) {
            None => drop(self.copy_subtree_within(n.pre)),
            Some(src) => match src.kind(n.pre) {
                NodeKind::Text => drop(self.text(src.text_of(n.pre))),
                NodeKind::Document => {
                    for child in src.children(n.pre) {
                        self.copy_subtree(src, child);
                    }
                }
                _ => drop(self.copy_subtree(src, n.pre)),
            },
        }
        (self.next_pre() - before) as u64
    }

    /// Add the string value of an atomic item to the pending text, after a
    /// separating space when the text is not empty.
    fn push_atomic(&mut self, value: &str) {
        if !self.atomics.is_empty() {
            self.atomics.push(' ');
        }
        self.atomics.push_str(value);
    }

    /// Add the pending atomics as a text node (none when they are empty).
    fn flush_atomics(&mut self) {
        if !self.atomics.is_empty() {
            let text = std::mem::take(&mut self.atomics);
            self.text(&text);
            self.atomics = text;
            self.atomics.clear();
        }
    }

    /// Finish building: seal the image and return the container.
    ///
    /// # Panics
    /// Panics if elements are still open.
    pub fn finish(self) -> Document {
        assert!(
            self.open.is_empty(),
            "unbalanced builder: {} elements still open",
            self.open.len()
        );
        Document::from_columns(self.name, Arc::new(self.rows.seal()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::serialize_document;
    use crate::shred::{shred, ShredError, ShredOptions};
    use crate::update::{fragment_from_xml, tuples_of, PagedDocument, Tuple};

    /// Build the ten-node example document of Figure 4 of the paper.
    pub(crate) fn figure4() -> Document {
        let mut b = DocumentBuilder::new("fig4");
        b.start_element("a"); // 0
        b.start_element("b"); // 1
        b.start_element("c"); // 2
        b.start_element("d"); // 3
        b.end_element();
        b.start_element("e"); // 4
        b.end_element();
        b.end_element();
        b.end_element();
        b.start_element("f"); // 5
        b.start_element("g"); // 6
        b.end_element();
        b.start_element("h"); // 7
        b.start_element("i"); // 8
        b.end_element();
        b.start_element("j"); // 9
        b.end_element();
        b.end_element();
        b.end_element();
        b.end_element();
        b.finish()
    }

    #[test]
    fn figure4_encoding_matches_paper() -> Result<(), String> {
        let d = figure4();
        assert_eq!(d.len(), 10);
        // pre, size, level from Figure 4
        let expected: [(u32, u32, u16); 10] = [
            (0, 9, 0),
            (1, 3, 1),
            (2, 2, 2),
            (3, 0, 3),
            (4, 0, 3),
            (5, 4, 1),
            (6, 0, 2),
            (7, 2, 2),
            (8, 0, 3),
            (9, 0, 3),
        ];
        for (pre, size, level) in expected {
            assert_eq!(d.size(pre), size, "size of {pre}");
            assert_eq!(d.level(pre), level, "level of {pre}");
        }
        d.check_invariants()?;
        Ok(())
    }

    #[test]
    fn children_iteration_skips_subtrees() {
        let d = figure4();
        let kids: Vec<u32> = d.children(0).collect();
        assert_eq!(kids, vec![1, 5]);
        let kids: Vec<u32> = d.children(7).collect();
        assert_eq!(kids, vec![8, 9]);
        assert!(d.children(3).next().is_none());
    }

    #[test]
    fn parent_and_ancestor() {
        let d = figure4();
        assert_eq!(d.parent(4), Some(2));
        assert_eq!(d.parent(5), Some(0));
        assert_eq!(d.parent(0), None);
        let ancestors = |mut v: u32| -> Vec<u32> {
            std::iter::from_fn(|| {
                v = d.parent(v)?;
                Some(v)
            })
            .collect()
        };
        assert_eq!(ancestors(9), [7, 5, 0]);
        assert_eq!(ancestors(3), [2, 1, 0]);
    }

    #[test]
    fn names_attributes_and_text() {
        let mut b = DocumentBuilder::new("t");
        b.start_element("root");
        b.attribute("id", "r1");
        b.start_element("x");
        b.text("hello ");
        b.end_element();
        b.start_element("x");
        b.text("world");
        b.end_element();
        b.end_element();
        let d = b.finish();
        assert_eq!(d.name_of(0), "root");
        assert_eq!(d.attribute(0, "id"), Some("r1"));
        assert_eq!(d.attribute(0, "missing"), None);
        assert_eq!(d.string_value(0), "hello world");
        assert_eq!(d.string_value(2), "hello ");
    }

    #[test]
    fn copy_subtree_pastes_encoding() -> Result<(), String> {
        let d = figure4();
        let mut b = DocumentBuilder::new("transient");
        let root = b.copy_subtree(&d, 7);
        let t = b.finish();
        assert_eq!(root, 0);
        assert_eq!(t.len(), 3);
        assert_eq!(t.name_of(0), "h");
        assert_eq!(t.size(0), 2);
        assert_eq!(t.level(1), 1);
        t.check_invariants()
    }

    /// The range copy within a container and the row walk out of a stored
    /// image (four-row chunks, so the copies cross chunk bounds) append the
    /// same rows.
    #[test]
    fn copy_subtree_within_equals_copy_from_a_snapshot() -> Result<(), String> {
        let mut b = DocumentBuilder::new("t");
        b.start_element("a");
        b.attribute("id", "a1");
        b.text("x");
        b.start_element("b");
        b.attribute("k", "v");
        b.processing_instruction("pi", "data");
        b.comment("note");
        b.end_element();
        b.end_element();
        let base = b.finish();
        let mut paged = PagedDocument::from_document(&base);
        paged.rechunk_columns(4);
        let pages = paged.snapshot();

        let build = |within: bool| {
            let mut b = DocumentBuilder::append_to(base.clone());
            b.start_element("wrap");
            b.attribute("w", "1");
            for src in [0, 2] {
                if within {
                    b.copy_subtree_within(src);
                } else {
                    b.copy_subtree(&pages, src);
                }
            }
            b.end_element();
            b.finish()
        };
        let (within, walked) = (build(true), build(false));
        within.check_invariants()?;
        walked.check_invariants()?;
        assert!(within.fragment_roots().eq(walked.fragment_roots()));
        assert_eq!(within.elements_named("b"), vec![2, 8, 11]);
        assert_eq!(within.elements_named("b"), walked.elements_named("b"));
        within.columns().same_content(walked.columns())
    }

    /// One step of a build, for [`rebuilt`] and [`built`].
    enum Step {
        Start(&'static str),
        Attr(&'static str, &'static str),
        Text(&'static str),
        End,
        /// Copy the subtree at this pre of the container being built.
        Within(u32),
        /// Copy the subtree at this pre of the stored image.
        Stored(u32),
    }

    /// The stored image copies read from, in four-row chunks.
    fn stored() -> Result<Document, ShredError> {
        let xml = r#"<s k="v"><u>one</u><?pi t?><u z="w">two</u></s>"#;
        let mut paged = PagedDocument::from_document(&shred("s", xml, &ShredOptions::default())?);
        paged.rechunk_columns(4);
        Ok(paged.snapshot())
    }

    /// The rows the steps write, kept as plain tuples.
    fn rebuilt(sessions: &[&[Step]], stored: &Document) -> Vec<Tuple> {
        let mut rows: Vec<Tuple> = Vec::new();
        let mut open: Vec<usize> = Vec::new();
        let tuple = |level: usize, kind, name: &str, text: &str| Tuple {
            size: 0,
            level: level as u16,
            kind,
            name: Arc::from(name),
            text: Arc::from(text),
            attrs: Vec::new(),
        };
        let copy = |rows: &mut Vec<Tuple>, src: &[Tuple], pre: u32, level: usize| {
            let src = &src[pre as usize..=(pre + src[pre as usize].size) as usize];
            let from = src[0].level;
            rows.extend(src.iter().map(|t| Tuple {
                level: t.level - from + level as u16,
                ..t.clone()
            }));
        };
        let stored = tuples_of(stored);
        for step in sessions.iter().flat_map(|s| s.iter()) {
            match *step {
                Step::Start(name) => {
                    open.push(rows.len());
                    rows.push(tuple(open.len() - 1, NodeKind::Element, name, ""));
                }
                Step::Attr(n, v) => {
                    if let Some(&pre) = open.last() {
                        rows[pre].attrs.push((Arc::from(n), Arc::from(v)));
                    }
                }
                Step::Text(t) => rows.push(tuple(open.len(), NodeKind::Text, "", t)),
                Step::End => {
                    if let Some(pre) = open.pop() {
                        rows[pre].size = (rows.len() - pre - 1) as u32;
                    }
                }
                Step::Within(pre) => {
                    let src = rows.clone();
                    copy(&mut rows, &src, pre, open.len());
                }
                Step::Stored(pre) => copy(&mut rows, &stored, pre, open.len()),
            }
        }
        rows
    }

    /// An empty container of `chunk_rows`-row chunks.
    fn empty(chunk_rows: usize) -> Document {
        let columns = DocumentColumns::default().rechunked(chunk_rows);
        Document::from_columns("t".into(), Arc::new(columns))
    }

    /// The steps run through the builder, one build session each, over an
    /// empty container of `chunk_rows`-row chunks.
    fn built(sessions: &[&[Step]], stored: &Document, chunk_rows: usize) -> Document {
        let mut doc = empty(chunk_rows);
        for session in sessions {
            let mut b = DocumentBuilder::append_to(doc);
            for step in *session {
                match *step {
                    Step::Start(name) => drop(b.start_element(name)),
                    Step::Attr(n, v) => b.attribute(n, v),
                    Step::Text(t) => drop(b.text(t)),
                    Step::End => b.end_element(),
                    Step::Within(pre) => drop(b.copy_subtree_within(pre)),
                    Step::Stored(pre) => drop(b.copy_subtree(stored, pre)),
                }
            }
            doc = b.finish();
        }
        doc
    }

    /// Every row of `doc` reads as the plain tuple of `rows`: size, level,
    /// kind, name, text and attributes, as decoded strings.
    fn assert_rows(doc: &Document, rows: &[Tuple]) {
        assert_eq!(doc.len(), rows.len(), "row count");
        for (pre, t) in (0..).zip(rows) {
            let row = (doc.size(pre), doc.level(pre), doc.kind(pre));
            assert_eq!(row, (t.size, t.level, t.kind), "row {pre}");
            assert_eq!(doc.name_of(pre), &*t.name, "name at {pre}");
            assert_eq!(doc.text_of(pre), &*t.text, "text at {pre}");
            assert!(
                doc.attrs(pre).eq(t.attrs.iter().map(|(n, v)| (n, v))),
                "attributes at {pre}"
            );
        }
    }

    /// A transient appended over three build sessions holds the rows the
    /// steps write, kept as plain tuples, at every chunk size.  The third
    /// session brings a tag, an attribute name and an attribute value that
    /// sorts before every other one, which all get the next codes; it also
    /// copies a subtree within the image across a chunk boundary and one
    /// out of a stored image.
    #[test]
    fn builder_sessions_equal_a_rebuild_of_their_rows() -> Result<(), String> {
        use Step::*;
        let first: &[Step] = &[
            Start("m"),
            Attr("n", "x"),
            Text("t1"),
            Start("p"),
            Attr("q", "y"),
            End,
            Text("t2"),
            End,
            Start("p"),
            End,
        ];
        let second: &[Step] = &[Start("r"), Within(0), Stored(1), End, Text("loose")];
        let third: &[Step] = &[
            Start("B"),
            Attr("A", "0"),
            Within(5),
            Start("p"),
            Attr("n", "x"),
            Stored(0),
            End,
            End,
            Within(0),
        ];
        let sessions = [first, second, third];
        let stored = stored().map_err(|e| e.to_string())?;
        let rows = rebuilt(&sessions, &stored);
        let roots: Vec<u32> = (0..)
            .zip(&rows)
            .filter(|(_, t)| t.level == 0)
            .map(|(pre, _)| pre)
            .collect();
        for chunk_rows in [2, 4, 1024] {
            let doc = built(&sessions, &stored, chunk_rows);
            doc.check_invariants()?;
            assert_rows(&doc, &rows);
            assert!(doc.fragment_roots().eq(roots.iter().copied()));
            assert_eq!(doc.columns().chunk_count(), rows.len().div_ceil(chunk_rows));
        }
        Ok(())
    }

    /// A new element name, attribute name or attribute value gets the next
    /// code and moves none: a build session, a paged splice, an element
    /// rename, an attribute rename and an attribute write that each bring a
    /// string sorting before the others copy no chunk but the one they
    /// write.
    #[test]
    fn a_new_name_leaves_every_earlier_chunk_shared() -> Result<(), String> {
        let mut b = DocumentBuilder::append_to(empty(2));
        for _ in 0..4 {
            b.start_element("b");
            b.attribute("k", "v");
            b.end_element();
        }
        let first = b.finish();
        // a build session: rows 0..4 in chunks 0 and 1, row 4 in chunk 2
        let mut b = DocumentBuilder::append_to(first.clone());
        b.start_element("a");
        b.attribute("a", "u");
        b.end_element();
        let second = b.finish();
        let (f, s) = (first.columns(), second.columns());
        assert!(s.shares_chunk(0, f, 0) && s.shares_chunk(1, f, 1));
        second.check_invariants()?;
        let mut cols = s.clone();
        let written = |cols: &DocumentColumns, before: &DocumentColumns, chunk: usize| {
            for i in (0..cols.chunk_count()).filter(|&i| i != chunk) {
                assert!(cols.shares_chunk(i, before, i), "chunk {i} copied");
            }
            cols.check_invariants()
        };
        // a paged splice into chunk 0
        let before = cols.clone();
        let row = fragment_from_xml(r#"<A A="t"/>"#);
        cols.splice_nodes(1, row.columns(), 0);
        written(&cols, &before, 0)?;
        // an element rename in chunk 2
        let before = cols.clone();
        cols.set_name(5, "AA");
        written(&cols, &before, 2)?;
        // an attribute rename in chunk 1
        let before = cols.clone();
        cols.rename_attribute(3, "k", "Ak");
        written(&cols, &before, 1)?;
        // an attribute write in chunk 1
        let before = cols.clone();
        cols.set_attribute(4, "k", "s");
        written(&cols, &before, 1)?;
        let strings = |d: &mxq_engine::Dictionary| -> Vec<String> {
            d.iter().map(|s| s.to_string()).collect()
        };
        assert_eq!(strings(cols.tags()), ["", "b", "a", "A", "AA"]);
        assert_eq!(strings(cols.attr_values()), ["v", "u", "t", "s"]);
        let doc = Document::from_columns("t".into(), Arc::new(cols));
        assert_eq!(
            serialize_document(&doc),
            r#"<b k="v"/><A A="t"/><b k="v"/><b Ak="v"/><b k="s"/><AA a="u"/>"#
        );
        Ok(())
    }

    /// Attribute values take codes in first-seen order: a session that
    /// brings a value sorting between the others moves no code, so it
    /// copies no sealed chunk, only the open one it appends to.
    #[test]
    fn a_session_copies_only_the_chunks_its_new_values_move() -> Result<(), String> {
        fn session(doc: Document, values: &[&str]) -> Document {
            let mut b = DocumentBuilder::append_to(doc);
            for value in values {
                b.start_element("x");
                b.attribute("k", value);
                b.end_element();
            }
            b.finish()
        }
        let first = session(empty(2), &["a", "b", "d", "e"]);
        let second = session(first.clone(), &["f"]);
        let third = session(second.clone(), &["c"]);
        let (f, s, t) = (first.columns(), second.columns(), third.columns());
        assert!(s.shares_chunk(0, f, 0) && s.shares_chunk(1, f, 1));
        assert!(t.shares_chunk(0, s, 0), "a and b sort before c");
        assert!(t.shares_chunk(1, s, 1), "d and e sort after c");
        let values: Vec<&str> = (0..third.len() as u32)
            .map(|p| third.attribute(p, "k").unwrap_or_default())
            .collect();
        assert_eq!(values, ["a", "b", "d", "e", "f", "c"]);
        let codes: Vec<String> = t.attr_values().iter().map(|s| s.to_string()).collect();
        assert_eq!(codes, values, "first-seen order");
        third.check_invariants()
    }

    /// A top-level PI or comment is a fragment root like any level-0 row.
    #[test]
    fn top_level_pi_and_comment_are_fragment_roots() -> Result<(), String> {
        let doc = fragment_from_xml("<?p d?><a/>");
        assert!(doc.fragment_roots().eq([0, 1]));
        assert_eq!(serialize_document(&doc), "<?p d?><a/>");
        let mut b = DocumentBuilder::new("t");
        b.comment("c");
        b.start_element("a");
        b.end_element();
        b.processing_instruction("q", "");
        let doc = b.finish();
        assert!(doc.fragment_roots().eq([0, 1, 2]));
        assert_eq!(serialize_document(&doc), "<!--c--><a/><?q?>");
        doc.check_invariants()
    }

    #[test]
    fn builder_fragments_in_transient_container() {
        let t = Document::new("transient");
        let mut b = DocumentBuilder::append_to(t);
        b.start_element("one");
        b.end_element();
        b.start_element("two");
        b.text("x");
        b.end_element();
        let t = b.finish();
        assert!(t.fragment_roots().eq([0, 1]));
    }

    #[test]
    #[should_panic(expected = "unbalanced")]
    fn unbalanced_builder_panics() {
        let mut b = DocumentBuilder::new("bad");
        b.start_element("open");
        let _ = b.finish();
    }
}
