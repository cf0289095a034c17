//! Node tests: kind tests and name tests applied to the nodes produced by an
//! axis step.
//!
//! A [`NodeTest`] is the symbolic form carried around in plans.  Before a
//! staircase-join scan starts, it is resolved against the target container
//! with [`NodeTest::compile`]: a name test looks up the interned qname id
//! once and every per-node check then compares two `u32` codes instead of
//! two strings — the dictionary-encoded variant of Section 3.2's
//! nametest evaluation.  Compiled tests also answer the *run-level*
//! question ([`CompiledTest::may_match_run`]): can any node of the storage
//! run (column chunk) containing a position match?  The paged store's
//! per-chunk summaries and element-name index answer that without touching
//! a node, letting the sweeps skip whole runs.

use mxq_xmldb::{Document, NodeKind};
use std::sync::Arc;

/// An XPath node test.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NodeTest {
    /// `node()` — any node kind.
    AnyKind,
    /// `*` — any element.
    AnyElement,
    /// `name` — an element with the given name.
    Named(Arc<str>),
    /// `text()`.
    Text,
    /// `comment()`.
    Comment,
    /// `processing-instruction()` with an optional target.
    ProcessingInstruction(Option<Arc<str>>),
}

impl NodeTest {
    /// Build a name test.
    pub fn named(name: impl Into<Arc<str>>) -> Self {
        NodeTest::Named(name.into())
    }

    /// Does the node at `pre` in `doc` satisfy the test?
    pub fn matches(&self, doc: &Document, pre: u32) -> bool {
        match self {
            NodeTest::AnyKind => true,
            NodeTest::AnyElement => doc.kind(pre) == NodeKind::Element,
            NodeTest::Named(name) => {
                doc.kind(pre) == NodeKind::Element && doc.name_of(pre) == name.as_ref()
            }
            NodeTest::Text => doc.kind(pre) == NodeKind::Text,
            NodeTest::Comment => doc.kind(pre) == NodeKind::Comment,
            NodeTest::ProcessingInstruction(target) => {
                doc.kind(pre) == NodeKind::ProcessingInstruction
                    && target
                        .as_ref()
                        .map(|t| doc.name_of(pre) == t.as_ref())
                        .unwrap_or(true)
            }
        }
    }

    /// Resolve the test against one container.  A name test is translated
    /// into the container's interned qname id (or `None` when the name never
    /// occurs — such a test matches nothing), so the per-node check of the
    /// scan loops is a code comparison, not a string equality.
    pub fn compile(&self, doc: &Document) -> CompiledTest {
        match self {
            NodeTest::AnyKind => CompiledTest::AnyKind,
            NodeTest::AnyElement => CompiledTest::AnyElement,
            NodeTest::Named(name) => CompiledTest::Element(doc.lookup_qname(name)),
            NodeTest::Text => CompiledTest::Text,
            NodeTest::Comment => CompiledTest::Comment,
            NodeTest::ProcessingInstruction(target) => {
                CompiledTest::ProcessingInstruction(target.clone())
            }
        }
    }
}

/// A node test resolved against one container (see [`NodeTest::compile`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompiledTest {
    /// `node()`.
    AnyKind,
    /// `*`.
    AnyElement,
    /// A name test resolved to the container's interned qname id; `None`
    /// means the name does not occur in the container.
    Element(Option<u32>),
    /// `text()`.
    Text,
    /// `comment()`.
    Comment,
    /// `processing-instruction()` with an optional target (targets are not
    /// interned, so this one keeps the string comparison).
    ProcessingInstruction(Option<Arc<str>>),
}

impl CompiledTest {
    /// Does the node at `pre` satisfy the test?  For name tests this is a
    /// single integer comparison against the interned qname id.
    #[inline]
    pub fn matches(&self, doc: &Document, pre: u32) -> bool {
        match self {
            CompiledTest::AnyKind => true,
            CompiledTest::AnyElement => doc.kind(pre) == NodeKind::Element,
            CompiledTest::Element(code) => code.is_some() && doc.qname_id(pre) == *code,
            CompiledTest::Text => doc.kind(pre) == NodeKind::Text,
            CompiledTest::Comment => doc.kind(pre) == NodeKind::Comment,
            CompiledTest::ProcessingInstruction(target) => {
                doc.kind(pre) == NodeKind::ProcessingInstruction
                    && target
                        .as_ref()
                        .map(|t| doc.name_of(pre) == t.as_ref())
                        .unwrap_or(true)
            }
        }
    }

    /// May *any* node of the storage run (column chunk) containing `pre`
    /// match the test?  `false` is a guarantee — the sweep skips the whole
    /// run; `true` only means "scan it".
    #[inline]
    pub fn may_match_run(&self, doc: &Document, pre: u32) -> bool {
        match self {
            CompiledTest::AnyKind => true,
            CompiledTest::AnyElement => doc.run_has_kind(pre, NodeKind::Element),
            CompiledTest::Element(code) => code.is_some_and(|c| doc.run_has_name(pre, c)),
            CompiledTest::Text => doc.run_has_kind(pre, NodeKind::Text),
            CompiledTest::Comment => doc.run_has_kind(pre, NodeKind::Comment),
            CompiledTest::ProcessingInstruction(_) => {
                doc.run_has_kind(pre, NodeKind::ProcessingInstruction)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mxq_xmldb::shred::{shred, ShredOptions};

    fn doc() -> Document {
        shred(
            "t",
            "<a><b>text</b><!--c--><b/><p/></a>",
            &ShredOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn kind_and_name_tests() {
        let d = doc();
        assert!(NodeTest::AnyKind.matches(&d, 2));
        assert!(NodeTest::AnyElement.matches(&d, 1));
        assert!(!NodeTest::AnyElement.matches(&d, 2));
        assert!(NodeTest::named("b").matches(&d, 1));
        assert!(!NodeTest::named("b").matches(&d, 5));
        assert!(NodeTest::Text.matches(&d, 2));
        assert!(NodeTest::Comment.matches(&d, 3));
    }

    #[test]
    fn compiled_tests_agree_with_symbolic_tests() {
        let d = doc();
        let tests = [
            NodeTest::AnyKind,
            NodeTest::AnyElement,
            NodeTest::named("b"),
            NodeTest::named("zzz"),
            NodeTest::Text,
            NodeTest::Comment,
        ];
        for t in &tests {
            let c = t.compile(&d);
            for pre in 0..d.len() as u32 {
                assert_eq!(t.matches(&d, pre), c.matches(&d, pre), "{t:?} at {pre}");
                // a run never rules out a node of its own that matches
                if t.matches(&d, pre) {
                    assert!(c.may_match_run(&d, pre));
                }
            }
        }
        // a name test on an absent name resolves to a never-matching code
        assert_eq!(
            NodeTest::named("zzz").compile(&d),
            CompiledTest::Element(None)
        );
        assert!(!NodeTest::named("zzz").compile(&d).may_match_run(&d, 0));
    }

    #[test]
    fn compiled_name_tests_resolve_into_the_name_index() {
        let d = doc();
        let CompiledTest::Element(Some(b)) = NodeTest::named("b").compile(&d) else {
            panic!("`b` occurs in the document");
        };
        let run = d.run_named(0, b);
        let pres: Vec<u32> = run.offsets.iter().map(|o| run.base + o).collect();
        assert_eq!(pres, vec![1, 4]);
        assert_eq!(run.end, d.len() as u32 - 1);
    }
}
