//! The XPath axes supported by the staircase join.

use std::fmt;

/// XPath axes.  The `attribute` axis is not part of the pre|size|level plane
/// (attributes live in their own property container, Figure 9) and is
/// evaluated by the executor directly against the attribute container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// `child::`
    Child,
    /// `descendant::`
    Descendant,
    /// `descendant-or-self::`
    DescendantOrSelf,
    /// `self::`
    SelfAxis,
    /// `parent::`
    Parent,
    /// `ancestor::`
    Ancestor,
    /// `ancestor-or-self::`
    AncestorOrSelf,
    /// `following::`
    Following,
    /// `preceding::`
    Preceding,
    /// `following-sibling::`
    FollowingSibling,
    /// `preceding-sibling::`
    PrecedingSibling,
    /// `attribute::` (handled outside the staircase join).
    Attribute,
}

impl Axis {
    /// Parse the axis name as written in XPath (`child`, `descendant-or-self`, …).
    pub fn parse(name: &str) -> Option<Axis> {
        Some(match name {
            "child" => Axis::Child,
            "descendant" => Axis::Descendant,
            "descendant-or-self" => Axis::DescendantOrSelf,
            "self" => Axis::SelfAxis,
            "parent" => Axis::Parent,
            "ancestor" => Axis::Ancestor,
            "ancestor-or-self" => Axis::AncestorOrSelf,
            "following" => Axis::Following,
            "preceding" => Axis::Preceding,
            "following-sibling" => Axis::FollowingSibling,
            "preceding-sibling" => Axis::PrecedingSibling,
            "attribute" => Axis::Attribute,
            _ => return None,
        })
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Axis::Child => "child",
            Axis::Descendant => "descendant",
            Axis::DescendantOrSelf => "descendant-or-self",
            Axis::SelfAxis => "self",
            Axis::Parent => "parent",
            Axis::Ancestor => "ancestor",
            Axis::AncestorOrSelf => "ancestor-or-self",
            Axis::Following => "following",
            Axis::Preceding => "preceding",
            Axis::FollowingSibling => "following-sibling",
            Axis::PrecedingSibling => "preceding-sibling",
            Axis::Attribute => "attribute",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for axis in [
            Axis::Child,
            Axis::Descendant,
            Axis::DescendantOrSelf,
            Axis::SelfAxis,
            Axis::Parent,
            Axis::Ancestor,
            Axis::AncestorOrSelf,
            Axis::Following,
            Axis::Preceding,
            Axis::FollowingSibling,
            Axis::PrecedingSibling,
            Axis::Attribute,
        ] {
            assert_eq!(Axis::parse(&axis.to_string()), Some(axis));
        }
        assert_eq!(Axis::parse("sideways"), None);
    }
}
