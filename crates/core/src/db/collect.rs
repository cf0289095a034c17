//! Update primitive collection: snapshot-side validation of evaluated
//! update statements.
//!
//! **Owns** [`PrimitiveCollector`], which turns one evaluated XQUF
//! statement (targets, optional attribute name, source items) into
//! validated [`UpdatePrimitive`]s on a [`PendingUpdateList`], reading node
//! properties from the evaluation snapshot and constructed content from
//! the evaluating executor's transient container.
//!
//! **May call** the PUL types in `crate::pul` and the read side of the
//! store snapshot.  It is pure: no lock, no latch, no mutation of shared
//! state.

use mxq_engine::{Column, Item, NodeId};
use mxq_xmldb::{Document, DocumentBuilder, NodeKind, NodeRead, StoreSnapshot, TRANSIENT_FRAG};

use crate::pul::{self, PendingUpdateList, PulError, UpdateKind, UpdatePrimitive};
use crate::Error;

/// Turns evaluated update statements into validated [`UpdatePrimitive`]s,
/// reading node properties from the snapshot and constructed content from
/// the evaluating executor's transient container.
pub(super) struct PrimitiveCollector<'a> {
    pub(super) snap: &'a StoreSnapshot,
    pub(super) transient: &'a Document,
}

impl PrimitiveCollector<'_> {
    fn container(&self, frag: u32) -> &Document {
        self.snap.resolve(self.transient, frag)
    }

    /// Turn one evaluated statement into update primitives.
    pub(super) fn collect(
        &self,
        kind: UpdateKind,
        targets: &[Item],
        attr: Option<&str>,
        source: &Option<Vec<Item>>,
        pul: &mut PendingUpdateList,
    ) -> Result<(), Error> {
        // attribute-addressed statements (delete/replace value/rename @name)
        if let Some(name) = attr {
            match kind {
                // `delete nodes …/@name` accepts any number of owning
                // elements (bulk attribute strip); a missing attribute is an
                // empty target and deletes nothing
                UpdateKind::Delete => {
                    for item in targets {
                        let elem = self.node_target(item, "attribute delete")?;
                        self.require_kind(elem, &[NodeKind::Element], "attribute owner")?;
                        pul.add(UpdatePrimitive::RemoveAttribute {
                            elem,
                            name: name.to_string(),
                        })?;
                    }
                }
                // `replace value of node …/@name` upserts: when the
                // attribute is missing it is created.  This is a deliberate
                // extension — the subset has no computed attribute
                // constructors, so this is its attribute-insertion form.
                UpdateKind::ReplaceValue => {
                    let elem = self.single_node(targets, "replace value of attribute")?;
                    self.require_kind(elem, &[NodeKind::Element], "attribute owner")?;
                    pul.add(UpdatePrimitive::SetAttribute {
                        elem,
                        name: name.to_string(),
                        value: self.source_string(source),
                    })?;
                }
                UpdateKind::Rename => {
                    let elem = self.single_node(targets, "rename attribute")?;
                    self.require_kind(elem, &[NodeKind::Element], "attribute owner")?;
                    let owner = self.container(elem.frag);
                    // renaming a non-existent attribute is an empty target
                    if owner.attribute(elem.pre, name).is_none() {
                        return Err(PulError::ExactlyOne {
                            what: "rename attribute",
                            got: 0,
                        }
                        .into());
                    }
                    let new_name = self.source_string(source);
                    if !pul::valid_qname(&new_name) {
                        return Err(PulError::InvalidName(new_name).into());
                    }
                    if new_name != name && owner.attribute(elem.pre, &new_name).is_some() {
                        return Err(PulError::DuplicateAttribute {
                            name: new_name,
                            elem: elem.to_string(),
                        }
                        .into());
                    }
                    pul.add(UpdatePrimitive::RenameAttribute {
                        elem,
                        name: name.to_string(),
                        new_name,
                    })?;
                }
                _ => unreachable!("compiler rejects other attribute-target kinds"),
            }
            return Ok(());
        }

        match kind {
            UpdateKind::InsertInto { first } => {
                let parent = self.single_node(targets, "insert into")?;
                self.require_kind(
                    parent,
                    &[NodeKind::Element, NodeKind::Document],
                    "insert target",
                )?;
                let content = self.materialize_content(source.as_deref().unwrap_or(&[]));
                if !content.is_empty() {
                    pul.add(UpdatePrimitive::InsertInto {
                        parent,
                        first,
                        content,
                    })?;
                }
            }
            UpdateKind::InsertBefore | UpdateKind::InsertAfter => {
                let target = self.single_node(targets, "insert before/after")?;
                self.require_non_root(target)?;
                let content = self.materialize_content(source.as_deref().unwrap_or(&[]));
                if !content.is_empty() {
                    pul.add(if kind == UpdateKind::InsertBefore {
                        UpdatePrimitive::InsertBefore { target, content }
                    } else {
                        UpdatePrimitive::InsertAfter { target, content }
                    })?;
                }
            }
            UpdateKind::Delete => {
                for item in targets {
                    let target = self.node_target(item, "delete")?;
                    self.require_non_root(target)?;
                    pul.add(UpdatePrimitive::Delete { target })?;
                }
            }
            UpdateKind::ReplaceNode => {
                let target = self.single_node(targets, "replace node")?;
                self.require_non_root(target)?;
                let content = self.materialize_content(source.as_deref().unwrap_or(&[]));
                pul.add(UpdatePrimitive::ReplaceNode { target, content })?;
            }
            UpdateKind::ReplaceValue => {
                let target = self.single_node(targets, "replace value of node")?;
                pul.add(UpdatePrimitive::ReplaceValue {
                    target,
                    value: self.source_string(source),
                })?;
            }
            UpdateKind::Rename => {
                let target = self.single_node(targets, "rename node")?;
                self.require_kind(
                    target,
                    &[NodeKind::Element, NodeKind::ProcessingInstruction],
                    "rename target",
                )?;
                let name = self.source_string(source);
                if !pul::valid_qname(&name) {
                    return Err(PulError::InvalidName(name).into());
                }
                pul.add(UpdatePrimitive::Rename { target, name })?;
            }
        }
        Ok(())
    }

    fn node_target(&self, item: &Item, what: &'static str) -> Result<NodeId, Error> {
        let node = item.as_node().ok_or(PulError::NotANode(what))?;
        if node.frag == TRANSIENT_FRAG {
            return Err(PulError::TransientTarget.into());
        }
        Ok(node)
    }

    fn single_node(&self, targets: &[Item], what: &'static str) -> Result<NodeId, Error> {
        if targets.len() != 1 {
            return Err(PulError::ExactlyOne {
                what,
                got: targets.len(),
            }
            .into());
        }
        self.node_target(&targets[0], what)
    }

    fn require_kind(&self, node: NodeId, kinds: &[NodeKind], what: &str) -> Result<(), Error> {
        let kind = self.container(node.frag).kind(node.pre);
        if kinds.contains(&kind) {
            Ok(())
        } else {
            Err(PulError::WrongTargetKind(format!("{what} has node kind {kind:?}")).into())
        }
    }

    /// Structural updates must keep the document rooted: fragment roots
    /// (document nodes / root elements at level 0) cannot be deleted,
    /// replaced or given siblings.
    fn require_non_root(&self, node: NodeId) -> Result<(), Error> {
        if self.container(node.frag).level(node.pre) == 0 {
            return Err(PulError::TargetIsRoot.into());
        }
        Ok(())
    }

    /// Copy an evaluated content sequence into a private fragment document
    /// by the element-content rules (XQUF inserts copies; see
    /// [`DocumentBuilder::append_content`]).
    fn materialize_content(&self, items: &[Item]) -> Document {
        let mut b = DocumentBuilder::new("#update-content");
        let items = Column::Item(items.to_vec());
        b.append_content([(&items, 0..items.len())], |frag| {
            Some(self.container(frag))
        });
        b.finish()
    }

    /// The string value of a source sequence (for `replace value of` and
    /// `rename`): item string values joined by single spaces.
    fn source_string(&self, source: &Option<Vec<Item>>) -> String {
        let Some(items) = source else {
            return String::new();
        };
        items
            .iter()
            .map(|i| match i {
                Item::Node(n) => self.container(n.frag).string_value(n.pre),
                atomic => atomic.string_value(),
            })
            .collect::<Vec<_>>()
            .join(" ")
    }
}
