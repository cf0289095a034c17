//! Node kinds.

/// The node kinds stored in the structural table.
///
/// Attributes are *not* part of the pre|size|level plane; they live in a
/// separate property container keyed by their owner's preorder rank, exactly
/// as in Figure 9 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// The document node (root of a persistent document container).
    Document,
    /// An element node.
    Element,
    /// A text node.
    Text,
    /// A comment node.
    Comment,
    /// A processing instruction.
    ProcessingInstruction,
}
