//! The pre|size|level document encoding and its builder.
//!
//! A [`Document`] is the relational image of an XML tree (Figure 4 of the
//! paper): node `v` is the row at index `pre(v)`, carrying `size(v)` (number
//! of descendants), `level(v)` (depth) and a node-kind discriminator plus a
//! reference into the per-kind property containers.  A document container may
//! hold several disjoint fragments (a statement's transient container holds
//! every node its constructors build); the `frag_roots` list records where
//! each fragment starts.
//!
//! A container is append-only: rows, names, texts and attributes are only
//! ever added (the builder patches the size of an element it closes, and
//! nothing else).  A written row never changes, so a copy of a subtree
//! within one container is a range copy of its rows whose text rows share
//! the source's text entries.

use std::collections::HashMap;
use std::sync::Arc;

use mxq_engine::Item;

use crate::columns::DocumentColumns;
use crate::node::{AttrRow, NodeKind};
use crate::read::{AttrsIter, NamedRun, NodeRead};
use crate::store::ContainerRef;

/// A document container: structural table + property containers.
#[derive(Debug, Clone, Default)]
pub struct Document {
    /// Document (container) name, e.g. the URI passed to `fn:doc`.
    pub name: String,
    size: Vec<u32>,
    level: Vec<u16>,
    kind: Vec<NodeKind>,
    /// Reference into the property container appropriate for `kind`.
    prop: Vec<u32>,
    /// Interned qualified names (elements).
    qnames: Vec<Arc<str>>,
    qname_ids: HashMap<Arc<str>, u32>,
    /// Element name index, parallel to `qnames`: qname id → preorder ranks
    /// of elements with that name, in document order (the "index on element
    /// names" of Figure 9, used by the nametest pushdown of Section 3.2).
    name_index: Vec<Vec<u32>>,
    /// Text/comment/PI content, indexed by `prop`.
    texts: Vec<Arc<str>>,
    /// Processing instruction targets (parallel to `texts` for PI nodes).
    pi_targets: Vec<Arc<str>>,
    /// Attributes, sorted by owner preorder rank.
    attrs: Vec<AttrRow>,
    /// Preorder ranks at which the disjoint tree fragments of this container
    /// start (a freshly shredded document has a single fragment at 0).
    frag_roots: Vec<u32>,
}

impl Document {
    /// Create an empty container with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Document {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Number of nodes in the container (attributes excluded).
    pub fn len(&self) -> usize {
        self.size.len()
    }

    /// True if the container holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.size.is_empty()
    }

    /// `size(v)`: number of nodes in the subtree below `pre` (excluding `pre`).
    pub(crate) fn size(&self, pre: u32) -> u32 {
        self.size[pre as usize]
    }

    /// `level(v)`: distance from the fragment root.
    pub fn level(&self, pre: u32) -> u16 {
        self.level[pre as usize]
    }

    /// Node kind of `pre`.
    pub fn kind(&self, pre: u32) -> NodeKind {
        self.kind[pre as usize]
    }

    /// Element name of `pre` (empty string for non-elements).
    pub fn name_of(&self, pre: u32) -> &str {
        match self.kind(pre) {
            NodeKind::Element => &self.qnames[self.prop[pre as usize] as usize],
            NodeKind::ProcessingInstruction => &self.pi_targets[self.prop[pre as usize] as usize],
            _ => "",
        }
    }

    /// Direct text content of a text/comment/PI node (not the recursive
    /// string value — see [`NodeRead::string_value`]).
    pub(crate) fn text_of(&self, pre: u32) -> &str {
        match self.kind(pre) {
            NodeKind::Text | NodeKind::Comment | NodeKind::ProcessingInstruction => {
                &self.texts[self.prop[pre as usize] as usize]
            }
            _ => "",
        }
    }

    /// The shared content of the text node at `pre` (`None` for other
    /// kinds).
    pub(crate) fn text_arc(&self, pre: u32) -> Option<&Arc<str>> {
        (self.kind(pre) == NodeKind::Text).then(|| &self.texts[self.prop[pre as usize] as usize])
    }

    /// The shared content of the text, comment or PI node at `pre` (`None`
    /// for other kinds).
    pub(crate) fn content_arc(&self, pre: u32) -> Option<&Arc<str>> {
        match self.kind(pre) {
            NodeKind::Text | NodeKind::Comment | NodeKind::ProcessingInstruction => {
                Some(&self.texts[self.prop[pre as usize] as usize])
            }
            _ => None,
        }
    }

    /// The shared name of the element or target of the PI at `pre` (`None`
    /// for other kinds).
    pub(crate) fn name_arc(&self, pre: u32) -> Option<&Arc<str>> {
        let prop = self.prop[pre as usize] as usize;
        match self.kind(pre) {
            NodeKind::Element => Some(&self.qnames[prop]),
            NodeKind::ProcessingInstruction => Some(&self.pi_targets[prop]),
            _ => None,
        }
    }

    /// All attributes of element `pre` (empty slice for non-elements).
    pub(crate) fn attributes(&self, pre: u32) -> &[AttrRow] {
        let start = self.attrs.partition_point(|a| a.owner < pre);
        let end = self.attrs.partition_point(|a| a.owner <= pre);
        &self.attrs[start..end]
    }

    /// Value of the attribute `name` on element `pre`, if present.
    pub fn attribute(&self, pre: u32, name: &str) -> Option<&str> {
        self.attributes(pre)
            .iter()
            .find(|a| a.name.as_ref() == name)
            .map(|a| a.value.as_ref())
    }

    /// Preorder ranks of the fragment roots in this container.
    pub fn fragment_roots(&self) -> &[u32] {
        &self.frag_roots
    }

    /// Append a whole subtree copied from another container (deep copy).
    /// The structural rows are copied with levels re-based; names are
    /// re-interned and texts copied.  Returns the preorder rank of the
    /// copied root in `self`.  This is the "pasting of encodings" used for
    /// element construction (Sections 2 and 5.1), generic over
    /// [`NodeRead`]; the executor's copies take the two bulk paths instead,
    /// [`Document::copy_subtree_within`] and `Document::copy_from_columns`.
    pub(crate) fn copy_subtree<D: NodeRead>(
        &mut self,
        src: &D,
        src_pre: u32,
        level_base: u16,
    ) -> u32 {
        let root_new = self.len() as u32;
        let src_level_base = src.level(src_pre);
        let end = src_pre + src.size(src_pre);
        for v in src_pre..=end {
            let kind = src.kind(v);
            let prop = match kind {
                NodeKind::Element => self.intern_qname(src.name_of(v)),
                // a document row's prop is never read
                NodeKind::Document => 0,
                NodeKind::Text | NodeKind::Comment => self.push_text(Arc::from(src.text_of(v))),
                NodeKind::ProcessingInstruction => {
                    self.push_pi(Arc::from(src.name_of(v)), Arc::from(src.text_of(v)))
                }
            };
            let owner = self.len() as u32;
            let level = level_base + (src.level(v) - src_level_base);
            self.push_row(src.size(v), level, kind, prop);
            for (name, value) in src.attrs(v) {
                self.push_attr(owner, name.clone(), value.clone());
            }
        }
        root_new
    }

    /// [`Document::copy_subtree`] with this container as the source: a
    /// range copy of the subtree's rows.  `size`, `kind` and `prop` are
    /// copied as they are — element rows keep their name id, text, comment
    /// and PI rows share the source's text entry — `level` is shifted, the
    /// copied elements are appended to the name index, and the subtree's
    /// attribute run is copied with shifted owners.  The source rows
    /// precede the rows being appended, so the copy needs no snapshot of
    /// the container.
    pub(crate) fn copy_subtree_within(&mut self, src_pre: u32, level_base: u16) -> u32 {
        let root_new = self.len();
        let rows = src_pre as usize..(src_pre + self.size(src_pre)) as usize + 1;
        let src_level = self.level(src_pre);
        self.size.extend_from_within(rows.clone());
        self.kind.extend_from_within(rows.clone());
        self.prop.extend_from_within(rows.clone());
        self.level.extend_from_within(rows.clone());
        for level in &mut self.level[root_new..] {
            *level = *level - src_level + level_base;
        }
        let copied = self.kind[root_new..].iter().zip(&self.prop[root_new..]);
        for (pre, (&kind, &prop)) in (root_new as u32..).zip(copied) {
            if kind == NodeKind::Element {
                self.name_index[prop as usize].push(pre);
            }
        }
        // the attributes of the subtree are one contiguous run (sorted by
        // owner); owners shift with their elements
        let first = self.attrs.partition_point(|a| a.owner < src_pre);
        let last = self.attrs.partition_point(|a| a.owner < rows.end as u32);
        let shift = root_new as u32 - src_pre;
        self.attrs.extend_from_within(first..last);
        let copied = self.attrs.len() - (last - first);
        for a in &mut self.attrs[copied..] {
            a.owner += shift;
        }
        root_new as u32
    }

    /// [`Document::copy_subtree`] out of the paged store by a walk over
    /// its chunk rows: the subtree is located once and its rows are read in
    /// order.  Texts, PI targets and attribute strings are shared with the
    /// image and its dictionaries (a reference-count bump each), and each
    /// distinct element name is interned once per copy, through a map from
    /// the source's tag codes.
    pub(crate) fn copy_from_columns(
        &mut self,
        src: &DocumentColumns,
        src_pre: u32,
        level_base: u16,
    ) -> u32 {
        let root_new = self.len() as u32;
        let src_level = src.node_level(src_pre);
        let (tags, names, values) = (src.tags(), src.attr_names(), src.attr_values());
        // source tag code → name id in this container (`u32::MAX`: not yet)
        let mut qids: Vec<u32> = Vec::new();
        let rows = src.node_size(src_pre) as usize + 1;
        src.walk_rows(src_pre, rows, |row| {
            let text = || row.text.cloned().unwrap_or_default();
            let prop = match row.kind {
                NodeKind::Element => {
                    let code = row.name_code as usize;
                    if code >= qids.len() {
                        qids.resize(code + 1, u32::MAX);
                    }
                    if qids[code] == u32::MAX {
                        qids[code] = self.intern_qname(tags.str_of(row.name_code));
                    }
                    qids[code]
                }
                NodeKind::Document => 0,
                NodeKind::Text | NodeKind::Comment => self.push_text(text()),
                NodeKind::ProcessingInstruction => {
                    self.push_pi(tags.str_of(row.name_code).clone(), text())
                }
            };
            let owner = self.len() as u32;
            self.push_row(
                row.size,
                level_base + (row.level - src_level),
                row.kind,
                prop,
            );
            for (&n, &v) in row.attr_names.iter().zip(row.attr_values) {
                self.push_attr(owner, names.str_of(n).clone(), values.str_of(v).clone());
            }
        });
        root_new
    }

    /// Register the start of a new fragment at the given preorder rank.
    pub(crate) fn add_fragment_root(&mut self, pre: u32) {
        self.frag_roots.push(pre);
    }

    /// Preorder ranks (in document order) of all elements named `name`.
    /// Returns an empty slice when no element with this name exists.
    pub fn elements_named(&self, name: &str) -> &[u32] {
        self.lookup_qname(name)
            .map_or(&[], |qid| self.name_index[qid as usize].as_slice())
    }

    pub(crate) fn push_row(&mut self, size: u32, level: u16, kind: NodeKind, prop: u32) {
        if kind == NodeKind::Element {
            self.name_index[prop as usize].push(self.size.len() as u32);
        }
        self.size.push(size);
        self.level.push(level);
        self.kind.push(kind);
        self.prop.push(prop);
    }

    pub(crate) fn set_size(&mut self, pre: u32, size: u32) {
        self.size[pre as usize] = size;
    }

    pub(crate) fn set_kind(&mut self, pre: u32, kind: NodeKind) {
        self.kind[pre as usize] = kind;
    }

    pub(crate) fn intern_qname(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.qname_ids.get(name) {
            return id;
        }
        let name: Arc<str> = Arc::from(name);
        let id = self.qnames.len() as u32;
        self.qnames.push(name.clone());
        self.name_index.push(Vec::new());
        self.qname_ids.insert(name, id);
        id
    }

    pub(crate) fn push_text(&mut self, text: Arc<str>) -> u32 {
        let id = self.texts.len() as u32;
        self.texts.push(text);
        id
    }

    /// Store a PI's content and target under one id (`pi_targets` stays
    /// addressable by the `texts` id).
    fn push_pi(&mut self, target: Arc<str>, content: Arc<str>) -> u32 {
        let id = self.push_text(content);
        self.pi_targets.resize(id as usize, Arc::from(""));
        self.pi_targets.push(target);
        id
    }

    pub(crate) fn push_attr(&mut self, owner: u32, name: Arc<str>, value: Arc<str>) {
        self.attrs.push(AttrRow { owner, name, value });
    }

    /// Qualified-name id of an element (internal, used by the staircase
    /// nametest pushdown to pre-filter candidates without string compares).
    pub(crate) fn qname_id(&self, pre: u32) -> Option<u32> {
        match self.kind(pre) {
            NodeKind::Element => Some(self.prop[pre as usize]),
            _ => None,
        }
    }

    /// Look up the id of an interned element name, if any element with this
    /// name exists in the container.
    pub(crate) fn lookup_qname(&self, name: &str) -> Option<u32> {
        self.qname_ids.get(name).copied()
    }

    /// Sanity check of the structural invariants:
    /// * `size(v) < len - v` for all v (subtrees stay in bounds),
    /// * children are nested properly (every node's subtree is contained in
    ///   its parent's subtree),
    /// * levels increase by exactly one from parent to child.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.len() as u32;
        for v in 0..n {
            let end = v + self.size(v);
            if end >= n && self.size(v) != 0 && end > n - 1 {
                return Err(format!("node {v} subtree exceeds document ({end} >= {n})"));
            }
            for c in self.children(v) {
                if self.level(c) != self.level(v) + 1 {
                    return Err(format!(
                        "child {c} of {v} has level {} expected {}",
                        self.level(c),
                        self.level(v) + 1
                    ));
                }
                if c + self.size(c) > end {
                    return Err(format!("child {c} subtree leaves parent {v} subtree"));
                }
            }
        }
        Ok(())
    }
}

/// The canonical read API over a flat document: a single storage run with
/// always-true kind summaries (see [`NodeRead`]'s `run_*` defaults) whose
/// name index is the document-wide per-name list.
impl NodeRead for Document {
    fn len(&self) -> usize {
        Document::len(self)
    }
    fn size(&self, pre: u32) -> u32 {
        Document::size(self, pre)
    }
    fn level(&self, pre: u32) -> u16 {
        Document::level(self, pre)
    }
    fn kind(&self, pre: u32) -> NodeKind {
        Document::kind(self, pre)
    }
    fn name_of(&self, pre: u32) -> &str {
        Document::name_of(self, pre)
    }
    fn text_of(&self, pre: u32) -> &str {
        Document::text_of(self, pre)
    }
    fn qname_id(&self, pre: u32) -> Option<u32> {
        Document::qname_id(self, pre)
    }
    fn lookup_qname(&self, name: &str) -> Option<u32> {
        Document::lookup_qname(self, name)
    }
    fn attribute(&self, pre: u32, name: &str) -> Option<&str> {
        Document::attribute(self, pre, name)
    }
    fn attrs(&self, pre: u32) -> AttrsIter<'_> {
        AttrsIter::Rows(self.attributes(pre).iter())
    }
    fn root_pres(&self) -> Vec<u32> {
        self.frag_roots.clone()
    }
    fn run_named(&self, _pre: u32, name_id: u32) -> NamedRun<'_> {
        NamedRun {
            base: 0,
            offsets: &self.name_index[name_id as usize],
            end: self.len() as u32 - 1,
        }
    }
}

/// Incremental builder used by the shredder and by element construction.
///
/// The builder produces rows in preorder, patching each element's `size` when
/// it is closed — a purely sequential write pattern, which is why shredding
/// scales linearly (Section 6, "Shredding and Serialization").
#[derive(Debug)]
pub struct DocumentBuilder {
    doc: Document,
    /// Stack of open element pre ranks.
    open: Vec<u32>,
    level: u16,
    base_level: u16,
}

impl DocumentBuilder {
    /// Start building a fresh document container.
    pub fn new(name: impl Into<String>) -> Self {
        DocumentBuilder {
            doc: Document::new(name),
            open: Vec::new(),
            level: 0,
            base_level: 0,
        }
    }

    /// Continue building *into* an existing container (used by the transient
    /// container: each constructed tree becomes a new fragment).
    pub fn append_to(doc: Document, base_level: u16) -> Self {
        DocumentBuilder {
            doc,
            open: Vec::new(),
            level: base_level,
            base_level,
        }
    }

    /// Preorder rank the next node will receive.
    pub fn next_pre(&self) -> u32 {
        self.doc.len() as u32
    }

    /// [`DocumentBuilder::next_pre`], registering the next node as a
    /// fragment root when nothing is open.
    fn next_row(&mut self) -> u32 {
        let pre = self.next_pre();
        if self.open.is_empty() && self.level == self.base_level {
            self.doc.add_fragment_root(pre);
        }
        pre
    }

    /// Intern an element name once, for repeated
    /// [`DocumentBuilder::start_interned`] calls.
    pub fn intern(&mut self, name: &str) -> u32 {
        self.doc.intern_qname(name)
    }

    /// Open an element with the given name; returns its preorder rank.
    pub fn start_element(&mut self, name: &str) -> u32 {
        let qid = self.intern(name);
        self.start_interned(qid)
    }

    /// Open an element whose name id [`DocumentBuilder::intern`] returned;
    /// returns its preorder rank.
    pub fn start_interned(&mut self, qid: u32) -> u32 {
        let pre = self.next_row();
        self.doc.push_row(0, self.level, NodeKind::Element, qid);
        self.open.push(pre);
        self.level += 1;
        pre
    }

    /// Add an attribute to the currently open element.
    ///
    /// # Panics
    /// Panics if no element is open.
    pub fn attribute(&mut self, name: &str, value: &str) {
        self.shared_attribute(Arc::from(name), Arc::from(value));
    }

    /// [`DocumentBuilder::attribute`] with strings the caller already
    /// holds: they are shared, not copied.
    ///
    /// # Panics
    /// Panics if no element is open.
    pub fn shared_attribute(&mut self, name: Arc<str>, value: Arc<str>) {
        let owner = *self.open.last().expect("attribute outside of element");
        self.doc.push_attr(owner, name, value);
    }

    /// Close the most recently opened element.
    ///
    /// # Panics
    /// Panics if no element is open.
    pub fn end_element(&mut self) {
        let pre = self.open.pop().expect("end_element without start_element");
        self.level -= 1;
        let size = self.doc.len() as u32 - pre - 1;
        self.doc.set_size(pre, size);
    }

    /// Add a text node; returns its preorder rank.
    pub fn text(&mut self, content: &str) -> u32 {
        self.shared_text(Arc::from(content))
    }

    /// Add a comment node.
    pub fn comment(&mut self, content: &str) -> u32 {
        let pre = self.next_pre();
        let tid = self.doc.push_text(Arc::from(content));
        self.doc.push_row(0, self.level, NodeKind::Comment, tid);
        pre
    }

    /// Add a processing instruction node.
    pub fn processing_instruction(&mut self, target: &str, content: &str) -> u32 {
        let pre = self.next_pre();
        let tid = self.doc.push_pi(Arc::from(target), Arc::from(content));
        self.doc
            .push_row(0, self.level, NodeKind::ProcessingInstruction, tid);
        pre
    }

    /// Deep-copy a subtree from another container as a child of the currently
    /// open element (or as a new fragment if nothing is open).
    pub fn copy_subtree<D: NodeRead>(&mut self, src: &D, src_pre: u32) -> u32 {
        self.next_row();
        self.doc.copy_subtree(src, src_pre, self.level)
    }

    /// [`DocumentBuilder::copy_subtree`] from the container being built
    /// itself: a range copy, since the source rows precede the rows being
    /// appended.
    pub fn copy_subtree_within(&mut self, src_pre: u32) -> u32 {
        self.next_row();
        self.doc.copy_subtree_within(src_pre, self.level)
    }

    /// [`DocumentBuilder::copy_subtree`] from a store container, walking
    /// the chunk rows of a paged one (`Document::copy_from_columns`).
    fn copy_from(&mut self, src: ContainerRef<'_>, src_pre: u32) -> u32 {
        self.next_row();
        match src {
            ContainerRef::Doc(d) => self.doc.copy_subtree(d, src_pre, self.level),
            ContainerRef::Paged(p) => self.doc.copy_from_columns(p.columns(), src_pre, self.level),
        }
    }

    /// Append an evaluated content sequence as children of the open element
    /// (or as new fragments when nothing is open), by the rules element
    /// construction and the XQUF insert sources share: a node item is
    /// deep-copied, a document node as its children, and adjacent atomic
    /// items merge into one text node, separated by single spaces.  A lone
    /// string becomes a text node that shares its string, and a text node
    /// is copied as its shared content.  `source` resolves a node's
    /// fragment id to its container, or to `None` for the container being
    /// built (which holds no document nodes).  Returns the number of rows
    /// the copies appended.
    pub fn append_content<'s, I, F>(&mut self, items: I, mut source: F) -> u64
    where
        I: IntoIterator<Item = Item>,
        F: FnMut(u32) -> Option<ContainerRef<'s>>,
    {
        let mut copied = 0;
        let mut pending = Pending::Empty;
        for item in items {
            let n = match item {
                Item::Node(n) => n,
                atomic => {
                    pending.push(atomic);
                    continue;
                }
            };
            self.flush(&mut pending);
            let before = self.doc.len();
            match source(n.frag) {
                None => {
                    self.copy_subtree_within(n.pre);
                }
                Some(src) => {
                    if let Some(text) = src.text_arc(n.pre) {
                        self.shared_text(text.clone());
                    } else if src.kind(n.pre) == NodeKind::Document {
                        for child in src.children(n.pre) {
                            self.copy_from(src, child);
                        }
                    } else {
                        self.copy_from(src, n.pre);
                    }
                }
            }
            copied += (self.doc.len() - before) as u64;
        }
        self.flush(&mut pending);
        copied
    }

    /// Add the pending atomics as a text node (none when they are empty).
    fn flush(&mut self, pending: &mut Pending) {
        match std::mem::replace(pending, Pending::Empty) {
            Pending::Empty => {}
            Pending::Shared(text) => {
                self.shared_text(text);
            }
            Pending::Owned(text) => {
                self.shared_text(Arc::from(text));
            }
        }
    }

    /// Add a text node with a string the caller already holds.
    fn shared_text(&mut self, content: Arc<str>) -> u32 {
        let pre = self.next_row();
        let tid = self.doc.push_text(content);
        self.doc.push_row(0, self.level, NodeKind::Text, tid);
        pre
    }

    /// Finish building and return the document.
    ///
    /// # Panics
    /// Panics if elements are still open.
    pub fn finish(self) -> Document {
        assert!(
            self.open.is_empty(),
            "unbalanced builder: {} elements still open",
            self.open.len()
        );
        self.doc
    }
}

/// The atomics of a content sequence not yet written as a text node:
/// their string values, joined by single spaces.  An empty string value
/// contributes no separator (`""` then `"y"` is `"y"`), and empty pending
/// text writes no node.
enum Pending {
    Empty,
    /// One non-empty string, shared with the item it came from.
    Shared(Arc<str>),
    /// Several string values, joined.
    Owned(String),
}

impl Pending {
    fn push(&mut self, atomic: Item) {
        *self = match (std::mem::replace(self, Pending::Empty), atomic) {
            (Pending::Empty, Item::Str(s)) if s.is_empty() => Pending::Empty,
            (Pending::Empty, Item::Str(s)) => Pending::Shared(s),
            (Pending::Empty, atomic) => {
                let text = atomic.string_value();
                if text.is_empty() {
                    Pending::Empty
                } else {
                    Pending::Owned(text)
                }
            }
            (Pending::Shared(s), atomic) => {
                Pending::Owned(format!("{s} {}", atomic.string_value()))
            }
            (Pending::Owned(mut text), atomic) => {
                text.push(' ');
                text.push_str(&atomic.string_value());
                Pending::Owned(text)
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::PagedDocument;

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
    fn figure4_encoding_matches_paper() {
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
        // post(v) = pre + size - level, e.g. post(a)=9, post(b)=3, post(f)=8
        assert_eq!(d.post(0), 9);
        assert_eq!(d.post(1), 3);
        assert_eq!(d.post(5), 8);
        d.check_invariants().unwrap();
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
        assert!(d.is_ancestor(0, 9));
        assert!(d.is_ancestor(7, 8));
        assert!(!d.is_ancestor(1, 5));
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
    fn copy_subtree_pastes_encoding() {
        let d = figure4();
        let mut t = Document::new("transient");
        let root = t.copy_subtree(&d, 7, 0);
        assert_eq!(root, 0);
        assert_eq!(t.len(), 3);
        assert_eq!(t.name_of(0), "h");
        assert_eq!(t.size(0), 2);
        assert_eq!(t.level(1), 1);
        t.check_invariants().unwrap();
    }

    /// The range copy within a container and the column walk out of the
    /// paged store (four-row chunks, so the copies cross chunk bounds)
    /// append the rows a per-node copy from a snapshot appends.
    #[test]
    fn copy_subtree_within_equals_copy_from_a_snapshot() {
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

        let build = |how: u8| {
            let mut b = DocumentBuilder::append_to(base.clone(), 0);
            b.start_element("wrap");
            b.attribute("w", "1");
            for src in [0, 2] {
                match how {
                    0 => b.copy_subtree(&base, src),
                    1 => b.copy_subtree_within(src),
                    _ => b.copy_from(ContainerRef::Paged(&pages), src),
                };
            }
            b.end_element();
            b.finish()
        };
        let copied = build(0);
        for bulk in [build(1), build(2)] {
            bulk.check_invariants().unwrap();
            assert_eq!(bulk.len(), copied.len());
            assert_eq!(bulk.fragment_roots(), copied.fragment_roots());
            assert_eq!(bulk.attrs, copied.attrs);
            assert_eq!(bulk.elements_named("b"), copied.elements_named("b"));
            for pre in 0..bulk.len() as u32 {
                assert_eq!(
                    (bulk.size(pre), bulk.level(pre), bulk.kind(pre)),
                    (copied.size(pre), copied.level(pre), copied.kind(pre)),
                    "row {pre}"
                );
                assert_eq!(bulk.name_of(pre), copied.name_of(pre), "name of {pre}");
                assert_eq!(bulk.text_of(pre), copied.text_of(pre), "text of {pre}");
            }
        }
    }

    #[test]
    fn builder_fragments_in_transient_container() {
        let t = Document::new("transient");
        let mut b = DocumentBuilder::append_to(t, 0);
        b.start_element("one");
        b.end_element();
        b.start_element("two");
        b.text("x");
        b.end_element();
        let t = b.finish();
        assert_eq!(t.fragment_roots(), &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "unbalanced")]
    fn unbalanced_builder_panics() {
        let mut b = DocumentBuilder::new("bad");
        b.start_element("open");
        let _ = b.finish();
    }
}
