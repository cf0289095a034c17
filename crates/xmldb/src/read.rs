//! The canonical read API over the node container.
//!
//! Query scans, serialization and the naive comparator all read XML through
//! [`NodeRead`]: pre/size/level/kind plus name-id, text and attribute
//! cursors.  [`Document`](crate::Document) implements it, the one
//! container type: the form of a loaded document (the published view of
//! the paged store), of a shredded one, of a statement's transient
//! container (fragment 0, which belongs to the statement, not to the
//! store: it holds the nodes the statement's constructors build) and of
//! XQUF content fragments.  The trait keeps the staircase kernels and the
//! serializer independent of the storage layout.
//!
//! The `run_*` methods expose *storage runs* to the staircase-join sweeps:
//! a run is a contiguous stretch of preorder ranks stored together — a
//! chunk of the column image, which is what a scan actually reads.  The
//! per-run summaries (node-kind mask, minimum level) let a scan skip a
//! whole run when no node in it can match the node test, and the per-run
//! element-name index ([`NodeRead::run_named`]) is the candidate list of
//! the name-test push-down (paper Section 3.2), cut so that a step touches
//! only the runs its context regions overlap.

use std::sync::Arc;

use mxq_engine::Dictionary;

use crate::node::NodeKind;

/// Read access to one container in the pre|size|level encoding.
pub trait NodeRead {
    /// Number of nodes in the container (attributes excluded).
    fn len(&self) -> usize;
    /// `size(v)`: number of nodes in the subtree below `pre`.
    fn size(&self, pre: u32) -> u32;
    /// `level(v)`: distance from the fragment root.
    fn level(&self, pre: u32) -> u16;
    /// Node kind of `pre`.
    fn kind(&self, pre: u32) -> NodeKind;
    /// Element name / PI target of `pre` (empty for other kinds).
    fn name_of(&self, pre: u32) -> &str;
    /// Direct text content of a text/comment/PI node.
    fn text_of(&self, pre: u32) -> &str;
    /// Interned name id of an element (the container's tag code; only
    /// comparable against ids from the *same* container).
    fn qname_id(&self, pre: u32) -> Option<u32>;
    /// Resolve an element name to this container's interned id, if any
    /// element with the name exists.
    fn lookup_qname(&self, name: &str) -> Option<u32>;
    /// Value of attribute `name` on element `pre`.
    fn attribute(&self, pre: u32, name: &str) -> Option<&str>;
    /// All attributes of element `pre` as (name, value) pairs.
    fn attrs(&self, pre: u32) -> AttrsIter<'_>;
    /// Preorder ranks of the fragment roots (level-0 nodes).
    fn root_pres(&self) -> Vec<u32>;

    // -- storage runs (column chunks) ------------------------------------

    /// The element-name index of the storage run containing `pre`: the
    /// elements of that run whose interned name id ([`Self::lookup_qname`])
    /// is `name_id`, borrowed from the chunk's name index.
    fn run_named(&self, pre: u32, name_id: u32) -> NamedRun<'_>;
    /// Last preorder rank of the storage run containing `pre`.
    fn run_end(&self, pre: u32) -> u32;
    /// Does the run containing `pre` hold an element with name id `name_id`?
    fn run_has_name(&self, pre: u32, name_id: u32) -> bool {
        !self.run_named(pre, name_id).offsets.is_empty()
    }
    /// May the run containing `pre` hold a node of `kind`?
    fn run_has_kind(&self, pre: u32, kind: NodeKind) -> bool;

    // -- provided navigation ---------------------------------------------

    /// True if the container holds no nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Postorder rank, recovered as `pre + size - level`.
    fn post(&self, pre: u32) -> i64 {
        pre as i64 + self.size(pre) as i64 - self.level(pre) as i64
    }

    /// Parent of `pre`: the closest preceding node with a smaller level.
    fn parent(&self, pre: u32) -> Option<u32>;

    /// Iterate over the children of `pre` with size-based skipping.
    fn children(&self, pre: u32) -> Children<'_, Self>
    where
        Self: Sized,
    {
        Children {
            doc: self,
            next: pre + 1,
            end: pre + self.size(pre),
        }
    }

    /// Is `anc` a strict ancestor of `desc`?
    fn is_ancestor(&self, anc: u32, desc: u32) -> bool {
        anc < desc && desc <= anc + self.size(anc)
    }

    /// XQuery string value: concatenated descendant text content.
    fn string_value(&self, pre: u32) -> String {
        match self.kind(pre) {
            NodeKind::Text | NodeKind::Comment | NodeKind::ProcessingInstruction => {
                self.text_of(pre).to_string()
            }
            _ => {
                let mut out = String::new();
                let end = pre + self.size(pre);
                let mut v = pre + 1;
                while v <= end {
                    if self.kind(v) == NodeKind::Text {
                        out.push_str(self.text_of(v));
                    }
                    v += 1;
                }
                out
            }
        }
    }
}

/// The elements of one name inside one storage run, in document order: the
/// element at run-local `offsets[i]` has preorder rank `base + offsets[i]`.
#[derive(Debug, Clone, Copy)]
pub struct NamedRun<'a> {
    /// Preorder rank the offsets are relative to.
    pub base: u32,
    /// Ascending run-local offsets of the matching elements.
    pub offsets: &'a [u32],
    /// Last preorder rank of the run.
    pub end: u32,
}

/// Iterator over the children of a node for any [`NodeRead`].
pub struct Children<'a, D> {
    doc: &'a D,
    next: u32,
    end: u32,
}

impl<D: NodeRead> Iterator for Children<'_, D> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.next > self.end || self.next as usize >= self.doc.len() {
            return None;
        }
        let cur = self.next;
        self.next = cur + self.doc.size(cur) + 1;
        Some(cur)
    }
}

/// Iterator over the attributes of one element: a slice of the coded
/// attribute columns, whose names and values resolve through the
/// attribute-name and attribute-value interners.
pub struct AttrsIter<'a> {
    /// Attribute-name interner.
    pub(crate) names: &'a Dictionary,
    /// Attribute-value interner.
    pub(crate) values: &'a Dictionary,
    /// Name and value codes of the owner's attribute rows.
    pub(crate) codes: std::iter::Zip<std::slice::Iter<'a, u32>, std::slice::Iter<'a, u32>>,
}

impl<'a> Iterator for AttrsIter<'a> {
    type Item = (&'a Arc<str>, &'a Arc<str>);

    fn next(&mut self) -> Option<(&'a Arc<str>, &'a Arc<str>)> {
        let (&n, &v) = self.codes.next()?;
        Some((self.names.str_of(n), self.values.str_of(v)))
    }
}
