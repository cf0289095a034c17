//! External-variable bindings for prepared statements.
//!
//! A query whose prolog declares `declare variable $x external;` is compiled
//! once with the variable left symbolic ([`crate::algebra::Op::ExternalVar`])
//! and executed many times with different values supplied through a
//! [`Params`] set — the compile-once/execute-many split MonetDB/XQuery's
//! server mode relies on.
//!
//! The same split serves ad-hoc text: the plan cache lifts a statement's
//! literals into numbered slots ([`crate::compile::lift_literals`]), and the
//! lifted values travel with each execution in the [`Params`] as well —
//! apart from the named bindings, so no caller can bind or see a slot.

use std::collections::HashMap;

use mxq_engine::Item;

/// A set of external-variable bindings, mapping variable names (without the
/// leading `$`) to XQuery item sequences.
///
/// Scalars bind through anything convertible to an [`Item`]
/// (`i64`, `f64`, `bool`, `&str`, `String`, …); whole sequences bind through
/// [`Params::set_seq`].
#[derive(Debug, Clone, Default)]
pub struct Params {
    map: HashMap<String, Vec<Item>>,
    /// The statement's lifted literals, by slot (set by the database only).
    literals: Vec<Item>,
}

impl Params {
    /// An empty binding set.
    pub fn new() -> Self {
        Self::default()
    }

    /// These bindings with a statement's lifted literals filled into the
    /// parameter slots.
    pub(crate) fn with_literals(mut self, literals: Vec<Item>) -> Self {
        self.literals = literals;
        self
    }

    /// The literal lifted into parameter slot `slot`.
    pub(crate) fn literal(&self, slot: usize) -> Option<&Item> {
        self.literals.get(slot)
    }

    /// Bind a variable to a single item, replacing any previous binding.
    /// Returns `&mut self` for chaining.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<Item>) -> &mut Self {
        self.map.insert(name.into(), vec![value.into()]);
        self
    }

    /// Bind a variable to an item sequence (possibly empty), replacing any
    /// previous binding.
    pub fn set_seq(&mut self, name: impl Into<String>, values: Vec<Item>) -> &mut Self {
        self.map.insert(name.into(), values);
        self
    }

    /// The bound sequence for `name`, if any.
    pub fn get(&self, name: &str) -> Option<&[Item]> {
        self.map.get(name).map(|v| v.as_slice())
    }

    /// True if `name` is bound.
    pub fn contains(&self, name: &str) -> bool {
        self.map.contains_key(name)
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate over the bound (name, sequence) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[Item])> {
        self.map.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_get() {
        let mut p = Params::new();
        p.set("x", 42).set("name", "person0").set("flag", true);
        p.set_seq("seq", vec![Item::Int(1), Item::Int(2)]);
        assert_eq!(p.get("x"), Some(&[Item::Int(42)][..]));
        assert_eq!(p.get("seq").map(|s| s.len()), Some(2));
        assert!(p.contains("flag"));
        assert!(!p.contains("missing"));
        assert_eq!(p.len(), 4);
        // rebinding replaces
        p.set("x", 7);
        assert_eq!(p.get("x"), Some(&[Item::Int(7)][..]));
        assert_eq!(p.len(), 4);
    }
}
