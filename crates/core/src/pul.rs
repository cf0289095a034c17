//! Pending Update Lists: the semantics layer of the XQuery Update Facility
//! subset (paper Section 5.2 provides the storage substrate; this module
//! provides snapshot semantics on top of it).
//!
//! Updating statements are evaluated in two strictly separated phases:
//!
//! 1. **Collection** — every statement's target and source expressions are
//!    evaluated against the *unchanged* store (snapshot isolation); the
//!    resulting update primitives, with their content already copied into
//!    private fragments, accumulate in a [`PendingUpdateList`].
//! 2. **Application** — after the XQUF compatibility rules are checked
//!    (e.g. two `rename`s of one node conflict), the primitives are applied
//!    per document in an order that makes the snapshot positions stable:
//!    value updates (renames, attribute patches) first, then structural
//!    primitives swept from the **highest** affected position to the lowest,
//!    so an applied edit never shifts the position of one still pending.
//!    Within one position, replacements go first, deletes next and inserts
//!    last, which reproduces the XQUF application order (deleting a node
//!    never swallows content inserted next to it, and a delete of a node the
//!    list also replaces is void — the replacement survives, exactly as a
//!    delete of an already-detached node is void in the spec).
//!
//! Application is atomic per update call: every failure mode (conflicts,
//! wrong target kinds) is detected during collection, before the first
//! primitive touches a document.

use std::collections::HashSet;
use std::fmt;

use mxq_engine::NodeId;
use mxq_xmldb::update::StructuralUpdate;
use mxq_xmldb::Document;

use crate::algebra::PlanRef;

// ---------------------------------------------------------------------------
// compiled update plans
// ---------------------------------------------------------------------------

/// The kind of a compiled update statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateKind {
    /// `insert … into` (first or last child).
    InsertInto {
        /// `as first into` when true, `as last into` / `into` otherwise.
        first: bool,
    },
    /// `insert … before`.
    InsertBefore,
    /// `insert … after`.
    InsertAfter,
    /// `delete nodes`.
    Delete,
    /// `replace node … with …`.
    ReplaceNode,
    /// `replace value of node … with …`.
    ReplaceValue,
    /// `rename node … as …`.
    Rename,
}

/// The compiled target of an update statement: either a node sequence plan,
/// or an element plan plus an attribute name (for statements addressing an
/// attribute through a trailing `@name` step).
#[derive(Debug)]
pub enum UpdateTarget {
    /// The target expression yields the target nodes directly.
    Nodes(PlanRef),
    /// The target is the `name` attribute of the elements the plan yields.
    Attribute {
        /// Plan producing the owning element(s).
        elem: PlanRef,
        /// The attribute name.
        name: String,
    },
}

/// One compiled update statement: its kind, target plan and optional source
/// plan (insert/replace content, or the `rename … as` name expression).
#[derive(Debug)]
pub struct UpdateStatementPlan {
    /// What the statement does.
    pub kind: UpdateKind,
    /// The compiled target.
    pub target: UpdateTarget,
    /// The compiled source/content/name expression, when the kind has one.
    pub source: Option<PlanRef>,
}

/// A compiled update query: the statements share one plan-id space so the
/// executor memoises common subexpressions across them.
#[derive(Debug)]
pub struct UpdatePlan {
    /// The compiled statements in source order.
    pub statements: Vec<UpdateStatementPlan>,
}

impl UpdatePlan {
    /// The plan roots of all statements (targets and sources) — every
    /// sub-plan the executor will evaluate, for static analysis.
    pub fn roots(&self) -> Vec<&PlanRef> {
        let mut v = Vec::new();
        for s in &self.statements {
            match &s.target {
                UpdateTarget::Nodes(p) => v.push(p),
                UpdateTarget::Attribute { elem, .. } => v.push(elem),
            }
            if let Some(src) = &s.source {
                v.push(src);
            }
        }
        v
    }
}

// ---------------------------------------------------------------------------
// primitives
// ---------------------------------------------------------------------------

/// One update primitive, fully resolved: target node plus (copied) content.
#[derive(Debug, Clone)]
pub enum UpdatePrimitive {
    /// Insert `content` as the first/last children of `parent`.
    InsertInto {
        /// The parent element.
        parent: NodeId,
        /// First child when true, last child otherwise.
        first: bool,
        /// The content fragment (owned copy).
        content: Document,
    },
    /// Insert `content` as preceding siblings of `target`.
    InsertBefore {
        /// The anchor node.
        target: NodeId,
        /// The content fragment (owned copy).
        content: Document,
    },
    /// Insert `content` as following siblings of `target`.
    InsertAfter {
        /// The anchor node.
        target: NodeId,
        /// The content fragment (owned copy).
        content: Document,
    },
    /// Delete the subtree rooted at `target`.
    Delete {
        /// The node to delete.
        target: NodeId,
    },
    /// Replace the subtree rooted at `target` with `content`.
    ReplaceNode {
        /// The node to replace.
        target: NodeId,
        /// The replacement fragment (owned copy).
        content: Document,
    },
    /// Replace the value (text content) of `target`.
    ReplaceValue {
        /// The node whose value changes.
        target: NodeId,
        /// The new string value.
        value: String,
    },
    /// Rename the element or processing instruction at `target`.
    Rename {
        /// The node to rename.
        target: NodeId,
        /// The new name.
        name: String,
    },
    /// Set attribute `name` on `elem` to `value`.
    SetAttribute {
        /// The owning element.
        elem: NodeId,
        /// Attribute name.
        name: String,
        /// New attribute value.
        value: String,
    },
    /// Remove attribute `name` from `elem`.
    RemoveAttribute {
        /// The owning element.
        elem: NodeId,
        /// Attribute name.
        name: String,
    },
    /// Rename attribute `name` of `elem` to `new_name`.
    RenameAttribute {
        /// The owning element.
        elem: NodeId,
        /// Current attribute name.
        name: String,
        /// New attribute name.
        new_name: String,
    },
}

impl UpdatePrimitive {
    /// The node the primitive is anchored at.
    pub fn target_node(&self) -> NodeId {
        match self {
            UpdatePrimitive::InsertInto { parent, .. } => *parent,
            UpdatePrimitive::InsertBefore { target, .. }
            | UpdatePrimitive::InsertAfter { target, .. }
            | UpdatePrimitive::Delete { target }
            | UpdatePrimitive::ReplaceNode { target, .. }
            | UpdatePrimitive::ReplaceValue { target, .. }
            | UpdatePrimitive::Rename { target, .. } => *target,
            UpdatePrimitive::SetAttribute { elem, .. }
            | UpdatePrimitive::RemoveAttribute { elem, .. }
            | UpdatePrimitive::RenameAttribute { elem, .. } => *elem,
        }
    }
}

// ---------------------------------------------------------------------------
// errors
// ---------------------------------------------------------------------------

/// Errors raised while collecting or checking a pending update list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PulError {
    /// Two incompatible primitives address the same node (XQUF compatibility
    /// rules: at most one `rename`, `replace node`, `replace value` each).
    Conflict {
        /// Which rule was violated (`rename`, `replace node`, …).
        what: &'static str,
        /// The contested target.
        target: String,
    },
    /// A target item is not a node.
    NotANode(&'static str),
    /// A target node has the wrong kind for the statement.
    WrongTargetKind(String),
    /// The statement requires exactly one target node.
    ExactlyOne {
        /// Which statement kind complained.
        what: &'static str,
        /// How many target nodes were found.
        got: usize,
    },
    /// Structural updates of fragment roots (document nodes / root elements)
    /// are not allowed — a document must stay rooted.
    TargetIsRoot,
    /// Updates may only address persistent documents, not constructed nodes.
    TransientTarget,
    /// The new name of a `rename` is not a valid QName.
    InvalidName(String),
    /// An attribute rename would leave an element with two attributes of
    /// one name (XUDY0021): the new name is already an attribute of the
    /// element, or the new name of another rename on it.
    DuplicateAttribute {
        /// The contested attribute name.
        name: String,
        /// The owning element.
        elem: String,
    },
}

impl fmt::Display for PulError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PulError::Conflict { what, target } => {
                write!(
                    f,
                    "conflicting updates: two `{what}` primitives target {target}"
                )
            }
            PulError::NotANode(what) => write!(f, "{what} target is not a node"),
            PulError::WrongTargetKind(m) => write!(f, "{m}"),
            PulError::ExactlyOne { what, got } => {
                write!(f, "{what} requires exactly one target node, got {got}")
            }
            PulError::TargetIsRoot => {
                write!(f, "structural updates of a document root are not allowed")
            }
            PulError::TransientTarget => {
                write!(
                    f,
                    "update targets must live in a loaded document, not in constructed nodes"
                )
            }
            PulError::InvalidName(n) => write!(f, "`{n}` is not a valid element/attribute name"),
            PulError::DuplicateAttribute { name, elem } => {
                write!(
                    f,
                    "renaming would give {elem} two attributes named `{name}`"
                )
            }
        }
    }
}

impl std::error::Error for PulError {}

// ---------------------------------------------------------------------------
// the pending update list
// ---------------------------------------------------------------------------

/// An ordered collection of update primitives with XQUF conflict checking
/// and position-stable application.
#[derive(Debug, Default)]
pub struct PendingUpdateList {
    prims: Vec<UpdatePrimitive>,
    renames: HashSet<NodeId>,
    replaces: HashSet<NodeId>,
    values: HashSet<NodeId>,
    attr_values: HashSet<(NodeId, String)>,
    attr_renames: HashSet<(NodeId, String)>,
    /// `(element, new name)` of every attribute rename.
    attr_new_names: HashSet<(NodeId, String)>,
}

impl PendingUpdateList {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of collected primitives.
    pub fn len(&self) -> usize {
        self.prims.len()
    }

    /// True if no primitives were collected.
    pub fn is_empty(&self) -> bool {
        self.prims.is_empty()
    }

    /// The collected primitives in statement order.
    pub fn primitives(&self) -> &[UpdatePrimitive] {
        &self.prims
    }

    /// Add a primitive, enforcing the XQUF compatibility rules incrementally:
    /// at most one `rename`, one `replace node` and one `replace value` per
    /// target node (attribute variants are keyed by element + name).
    pub fn add(&mut self, prim: UpdatePrimitive) -> Result<(), PulError> {
        let conflict = |what: &'static str, node: NodeId| PulError::Conflict {
            what,
            target: node.to_string(),
        };
        // `fresh` is whether the "first primitive of this kind for this
        // target" registration succeeded; a duplicate is a conflict
        let fresh = match &prim {
            UpdatePrimitive::Rename { target, .. } => self
                .renames
                .insert(*target)
                .then_some(())
                .ok_or(("rename node", *target)),
            UpdatePrimitive::ReplaceNode { target, .. } => self
                .replaces
                .insert(*target)
                .then_some(())
                .ok_or(("replace node", *target)),
            UpdatePrimitive::ReplaceValue { target, .. } => self
                .values
                .insert(*target)
                .then_some(())
                .ok_or(("replace value of node", *target)),
            UpdatePrimitive::SetAttribute { elem, name, .. } => self
                .attr_values
                .insert((*elem, name.clone()))
                .then_some(())
                .ok_or(("replace value of attribute", *elem)),
            UpdatePrimitive::RenameAttribute { elem, name, .. } => self
                .attr_renames
                .insert((*elem, name.clone()))
                .then_some(())
                .ok_or(("rename attribute", *elem)),
            // inserts, deletes and attribute removals never conflict
            _ => Ok(()),
        };
        if let Err((what, node)) = fresh {
            return Err(conflict(what, node));
        }
        if let UpdatePrimitive::RenameAttribute { elem, new_name, .. } = &prim {
            if !self.attr_new_names.insert((*elem, new_name.clone())) {
                return Err(PulError::DuplicateAttribute {
                    name: new_name.clone(),
                    elem: elem.to_string(),
                });
            }
        }
        self.prims.push(prim);
        Ok(())
    }

    /// The fragment ids (documents) the list touches, ascending.
    pub fn fragments(&self) -> Vec<u32> {
        let mut frags: Vec<u32> = self.prims.iter().map(|p| p.target_node().frag).collect();
        frags.sort_unstable();
        frags.dedup();
        frags
    }

    /// Apply every primitive targeting fragment `frag` to `doc`, which must
    /// still be in the snapshot state the primitives were collected against.
    /// Returns the number of primitives applied.
    ///
    /// Value updates go first (they move nothing); structural primitives are
    /// swept from the highest snapshot position down, so each application
    /// leaves all still-pending (lower) positions valid.  Duplicate deletes
    /// of one node collapse into one, and a delete of a node that is also
    /// replaced is void (the replace detaches the original node first; a
    /// delete of a detached node has no effect in XQUF).
    pub fn apply_to<D: StructuralUpdate + ?Sized>(&self, frag: u32, doc: &mut D) -> usize {
        let mut applied = 0;

        // pass 1: pure value updates at snapshot positions.  Attribute
        // primitives address attributes by (element, name), so they run in
        // XQUF phase order — value replacement first, renames second,
        // deletes last (remapped through any rename of the same attribute) —
        // which makes the outcome independent of statement order, exactly as
        // the spec's identity-based addressing would.
        for prim in self.prims.iter().filter(|p| p.target_node().frag == frag) {
            match prim {
                UpdatePrimitive::Rename { target, name } => {
                    doc.rename(target.pre, name);
                    applied += 1;
                }
                UpdatePrimitive::SetAttribute { elem, name, value } => {
                    doc.set_attribute(elem.pre, name, value);
                    applied += 1;
                }
                _ => {}
            }
        }
        let mut attr_rename_map: std::collections::HashMap<(u32, &str), &str> =
            std::collections::HashMap::new();
        for prim in self.prims.iter().filter(|p| p.target_node().frag == frag) {
            if let UpdatePrimitive::RenameAttribute {
                elem,
                name,
                new_name,
            } = prim
            {
                doc.rename_attribute(elem.pre, name, new_name);
                attr_rename_map.insert((elem.pre, name.as_str()), new_name.as_str());
                applied += 1;
            }
        }
        for prim in self.prims.iter().filter(|p| p.target_node().frag == frag) {
            if let UpdatePrimitive::RemoveAttribute { elem, name } = prim {
                let effective = attr_rename_map
                    .get(&(elem.pre, name.as_str()))
                    .copied()
                    .unwrap_or(name.as_str());
                doc.remove_attribute(elem.pre, effective);
                applied += 1;
            }
        }

        // pass 2: structural updates, highest snapshot position first.
        // Phases at one position: replace(0) < delete(1) < insert(2) <
        // replace-value-of-element(3); see the module docs for why.
        let replaced: HashSet<u32> = self
            .prims
            .iter()
            .filter_map(|p| match p {
                UpdatePrimitive::ReplaceNode { target, .. } if target.frag == frag => {
                    Some(target.pre)
                }
                _ => None,
            })
            .collect();
        let mut deleted_seen: HashSet<u32> = HashSet::new();
        // (key, phase, snapshot content level, seq, primitive).  The level
        // serves two purposes: an InsertBefore anchor may be gone by the
        // time the insert applies (the splice then reuses the snapshot
        // level), and inserts whose keys tie apply **shallowest first** —
        // deeper content at a shared numeric position belongs to a subtree
        // that ends there and must precede the shallower siblings, which
        // works out because the deeper op recomputes its position from its
        // anchor node's state after the shallow splice.
        let mut structural: Vec<(u64, u8, u16, usize, &UpdatePrimitive)> = Vec::new();
        for (seq, prim) in self.prims.iter().enumerate() {
            if prim.target_node().frag != frag {
                continue;
            }
            let keyed = match prim {
                UpdatePrimitive::ReplaceNode { target, .. } => Some((target.pre as u64, 0, 0)),
                UpdatePrimitive::Delete { target } => {
                    if replaced.contains(&target.pre) || !deleted_seen.insert(target.pre) {
                        None
                    } else {
                        Some((target.pre as u64, 1, 0))
                    }
                }
                UpdatePrimitive::InsertBefore { target, .. } => {
                    Some((target.pre as u64, 2, doc.node_level(target.pre)))
                }
                UpdatePrimitive::InsertInto {
                    parent,
                    first: true,
                    ..
                } => Some((parent.pre as u64 + 1, 2, doc.node_level(parent.pre) + 1)),
                UpdatePrimitive::InsertInto {
                    parent,
                    first: false,
                    ..
                } => Some((
                    parent.pre as u64 + doc.node_size(parent.pre) as u64 + 1,
                    2,
                    doc.node_level(parent.pre) + 1,
                )),
                UpdatePrimitive::InsertAfter { target, .. } => Some((
                    target.pre as u64 + doc.node_size(target.pre) as u64 + 1,
                    2,
                    doc.node_level(target.pre),
                )),
                UpdatePrimitive::ReplaceValue { target, .. } => Some((target.pre as u64 + 1, 3, 0)),
                _ => None,
            };
            if let Some((key, phase, level)) = keyed {
                structural.push((key, phase, level, seq, prim));
            }
        }
        structural.sort_by(|a, b| {
            b.0.cmp(&a.0)
                .then(a.1.cmp(&b.1))
                .then(a.2.cmp(&b.2))
                .then(a.3.cmp(&b.3))
        });

        for (_, _, level, _, prim) in structural {
            match prim {
                UpdatePrimitive::InsertInto {
                    parent,
                    first,
                    content,
                } => {
                    if *first {
                        doc.insert_first_child(parent.pre, content);
                    } else {
                        doc.insert_last_child(parent.pre, content);
                    }
                }
                UpdatePrimitive::InsertBefore { target, content } => {
                    doc.insert_at(target.pre, level, content);
                }
                UpdatePrimitive::InsertAfter { target, content } => {
                    doc.insert_after(target.pre, content);
                }
                UpdatePrimitive::Delete { target } => {
                    doc.delete_subtree(target.pre);
                }
                UpdatePrimitive::ReplaceNode { target, content } => {
                    doc.replace_subtree(target.pre, content);
                }
                UpdatePrimitive::ReplaceValue { target, value } => {
                    doc.replace_value(target.pre, value);
                }
                _ => unreachable!("value primitives handled in pass 1"),
            }
            applied += 1;
        }
        applied
    }
}

/// Is `name` acceptable as an element/attribute name for `rename`?
pub fn valid_qname(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_alphanumeric() || c == '_' || c == '-' || c == '.' || c == ':')
}

#[cfg(test)]
mod tests {
    use super::*;
    use mxq_xmldb::update::{fragment_from_xml, NaiveDocument, PagedDocument};
    use mxq_xmldb::{serialize_document, shred, ShredOptions};

    fn nid(pre: u32) -> NodeId {
        NodeId::new(1, pre)
    }

    fn apply_both(pul: &PendingUpdateList, xml: &str) -> String {
        let doc = shred("d", xml, &ShredOptions::default()).unwrap();
        let mut naive = NaiveDocument::from_document(&doc);
        let mut paged = PagedDocument::from_document(&doc);
        let a = pul.apply_to(1, &mut naive);
        let b = pul.apply_to(1, &mut paged);
        assert_eq!(a, b);
        let n = serialize_document(&naive.to_document());
        let p = serialize_document(&paged.to_document());
        assert_eq!(n, p, "naive and paged disagree");
        n
    }

    #[test]
    fn conflicting_renames_are_rejected() {
        let mut pul = PendingUpdateList::new();
        pul.add(UpdatePrimitive::Rename {
            target: nid(1),
            name: "x".into(),
        })
        .unwrap();
        let err = pul
            .add(UpdatePrimitive::Rename {
                target: nid(1),
                name: "y".into(),
            })
            .unwrap_err();
        assert!(matches!(
            err,
            PulError::Conflict {
                what: "rename node",
                ..
            }
        ));
        // renaming a *different* node is fine
        pul.add(UpdatePrimitive::Rename {
            target: nid(2),
            name: "y".into(),
        })
        .unwrap();
    }

    #[test]
    fn conflicting_replaces_are_rejected() {
        let mut pul = PendingUpdateList::new();
        pul.add(UpdatePrimitive::ReplaceValue {
            target: nid(1),
            value: "a".into(),
        })
        .unwrap();
        assert!(pul
            .add(UpdatePrimitive::ReplaceValue {
                target: nid(1),
                value: "b".into(),
            })
            .is_err());
        pul.add(UpdatePrimitive::SetAttribute {
            elem: nid(2),
            name: "k".into(),
            value: "1".into(),
        })
        .unwrap();
        assert!(pul
            .add(UpdatePrimitive::SetAttribute {
                elem: nid(2),
                name: "k".into(),
                value: "2".into(),
            })
            .is_err());
        // a different attribute of the same element is compatible
        pul.add(UpdatePrimitive::SetAttribute {
            elem: nid(2),
            name: "other".into(),
            value: "2".into(),
        })
        .unwrap();
    }

    #[test]
    fn snapshot_positions_survive_mixed_application() {
        // <a><b/><c/><d/></a>: insert before <c> and delete <b> — both
        // target snapshot positions; the delete must not swallow the insert.
        let mut pul = PendingUpdateList::new();
        pul.add(UpdatePrimitive::InsertBefore {
            target: nid(2), // <c>
            content: fragment_from_xml("<new/>"),
        })
        .unwrap();
        pul.add(UpdatePrimitive::Delete { target: nid(1) }) // <b>
            .unwrap();
        let out = apply_both(&pul, "<a><b/><c/><d/></a>");
        assert_eq!(out, "<a><new/><c/><d/></a>");
    }

    #[test]
    fn delete_and_insert_on_same_node() {
        // insert before X + delete X: both contents land, X goes
        let mut pul = PendingUpdateList::new();
        pul.add(UpdatePrimitive::InsertBefore {
            target: nid(1),
            content: fragment_from_xml("<p/>"),
        })
        .unwrap();
        pul.add(UpdatePrimitive::InsertAfter {
            target: nid(1),
            content: fragment_from_xml("<q/>"),
        })
        .unwrap();
        pul.add(UpdatePrimitive::Delete { target: nid(1) }).unwrap();
        let out = apply_both(&pul, "<a><b><x/></b><c/></a>");
        assert_eq!(out, "<a><p/><q/><c/></a>");
    }

    #[test]
    fn replace_plus_delete_keeps_replacement() {
        // XQUF: the delete targets the original node, which the replace has
        // already detached — the delete is void and the replacement survives
        let mut pul = PendingUpdateList::new();
        pul.add(UpdatePrimitive::ReplaceNode {
            target: nid(1),
            content: fragment_from_xml("<y/>"),
        })
        .unwrap();
        pul.add(UpdatePrimitive::Delete { target: nid(1) }).unwrap();
        let out = apply_both(&pul, "<a><b/><c/></a>");
        assert_eq!(out, "<a><y/><c/></a>");
    }

    #[test]
    fn duplicate_deletes_collapse() {
        let mut pul = PendingUpdateList::new();
        pul.add(UpdatePrimitive::Delete { target: nid(1) }).unwrap();
        pul.add(UpdatePrimitive::Delete { target: nid(1) }).unwrap();
        let out = apply_both(&pul, "<a><b/><c/></a>");
        assert_eq!(out, "<a><c/></a>");
    }

    #[test]
    fn insert_into_deleted_subtree_vanishes() {
        let mut pul = PendingUpdateList::new();
        pul.add(UpdatePrimitive::InsertInto {
            parent: nid(1),
            first: false,
            content: fragment_from_xml("<new/>"),
        })
        .unwrap();
        pul.add(UpdatePrimitive::Delete { target: nid(1) }).unwrap();
        let out = apply_both(&pul, "<a><b><x/></b><c/></a>");
        assert_eq!(out, "<a><c/></a>");
    }

    #[test]
    fn element_value_replacement_wipes_pending_region_correctly() {
        // replace value of <a>'s first child <b> + delete <b>'s sibling <c>
        let mut pul = PendingUpdateList::new();
        pul.add(UpdatePrimitive::ReplaceValue {
            target: nid(1), // <b>
            value: "flat".into(),
        })
        .unwrap();
        pul.add(UpdatePrimitive::Delete { target: nid(4) }) // <c>
            .unwrap();
        let out = apply_both(&pul, "<a><b><x/><y/></b><c/></a>");
        assert_eq!(out, "<a><b>flat</b></a>");
    }

    #[test]
    fn qname_validation() {
        assert!(valid_qname("item"));
        assert!(valid_qname("ns:item"));
        assert!(valid_qname("_a-b.c"));
        assert!(!valid_qname(""));
        assert!(!valid_qname("1abc"));
        assert!(!valid_qname("a b"));
        assert!(!valid_qname("<x>"));
    }

    #[test]
    fn fragments_lists_touched_documents() {
        let mut pul = PendingUpdateList::new();
        pul.add(UpdatePrimitive::Delete {
            target: NodeId::new(2, 1),
        })
        .unwrap();
        pul.add(UpdatePrimitive::Delete {
            target: NodeId::new(1, 1),
        })
        .unwrap();
        assert_eq!(pul.fragments(), vec![1, 2]);
    }
}
