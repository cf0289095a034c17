//! Typed columns — the BAT-like building block of the kernel.
//!
//! A [`Column`] is a contiguous, densely indexed vector of values of one of
//! seven implementation types.  The polymorphic [`Column::Item`] variant
//! mirrors the polymorphic `item` column of the paper; the monomorphic
//! variants are used for the performance critical bookkeeping columns
//! (`iter`, `pos`, `pre`, `size`, `level`, …) where the positional algorithms
//! of Section 4.1 apply.
//!
//! # Dictionary-encoded strings
//!
//! [`Column::Str`] stores one `Arc<str>` per row — fine for low-duplication
//! payloads, but the XMark hot paths (tag names, attribute names, keyword
//! terms) are highly repetitive.  [`Column::Dict`] stores those as a dense
//! `Vec<u32>` of codes into a shared, append-only [`Dictionary`]:
//!
//! * the dictionary is shared (`Arc`), so two columns encoded against the
//!   same instance join code-to-code (see
//!   [`crate::join::radix_hash_join`]) — no string hashing at all;
//! * code order is the order strings were first seen in, not string order,
//!   so sorting and min/max compare the strings behind the codes;
//! * [`Column::decode`] is the escape hatch: any operator that does not know
//!   about codes can decode to a plain [`Column::Str`] first, and
//!   [`Column::item`] transparently materialises `Item::Str` values, so
//!   untouched operators keep working row-at-a-time.
//!
//! `Dict` columns are produced from a loaded document's column image (the
//! attribute-value codes an attribute step emits) and by
//! [`Column::dict_from_strings`]; [`Column::from_items`] keeps producing
//! `Str` so existing call sites are unchanged.

use std::sync::Arc;

use crate::dict::Dictionary;
use crate::error::{EngineError, Result};
use crate::value::{Item, NodeId};

/// A single column of a table.
#[derive(Debug, Clone)]
pub enum Column {
    /// 64-bit integers (iter/pos/pre/size/level and friends).
    Int(Vec<i64>),
    /// 64-bit floats.
    Dbl(Vec<f64>),
    /// Strings (shared, cheap to duplicate).
    Str(Vec<Arc<str>>),
    /// Dictionary-encoded strings: dense codes into a shared
    /// [`Dictionary`].
    Dict {
        /// Per-row codes, each `< dict.len()`.
        codes: Vec<u32>,
        /// The shared dictionary the codes index into.
        dict: Arc<Dictionary>,
    },
    /// Booleans.
    Bool(Vec<bool>),
    /// Node surrogates.
    Node(Vec<NodeId>),
    /// Polymorphic XQuery items.
    Item(Vec<Item>),
}

impl Column {
    /// An empty polymorphic column.
    pub fn empty_item() -> Self {
        Column::Item(Vec::new())
    }

    /// Dictionary-encode a batch of strings into a `Dict` column with a
    /// freshly built dictionary.
    pub fn dict_from_strings<I, S>(strings: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<Arc<str>>,
    {
        let (codes, dict) = Dictionary::encode(strings);
        Column::Dict { codes, dict }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Dbl(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::Dict { codes, .. } => codes.len(),
            Column::Bool(v) => v.len(),
            Column::Node(v) => v.len(),
            Column::Item(v) => v.len(),
        }
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Human readable type name (used in error messages).
    pub fn type_name(&self) -> &'static str {
        match self {
            Column::Int(_) => "int",
            Column::Dbl(_) => "dbl",
            Column::Str(_) => "str",
            Column::Dict { .. } => "dict",
            Column::Bool(_) => "bool",
            Column::Node(_) => "node",
            Column::Item(_) => "item",
        }
    }

    /// Read row `i` as a polymorphic [`Item`].
    ///
    /// # Panics
    /// Panics when `i` is out of bounds (columns are densely indexed).
    pub fn item(&self, i: usize) -> Item {
        match self {
            Column::Int(v) => Item::Int(v[i]),
            Column::Dbl(v) => Item::Dbl(v[i]),
            Column::Str(v) => Item::Str(v[i].clone()),
            Column::Dict { codes, dict } => Item::Str(dict.str_of(codes[i]).clone()),
            Column::Bool(v) => Item::Bool(v[i]),
            Column::Node(v) => Item::Node(v[i]),
            Column::Item(v) => v[i].clone(),
        }
    }

    /// Iterate over all rows as items.
    pub fn iter_items(&self) -> impl Iterator<Item = Item> + '_ {
        (0..self.len()).map(move |i| self.item(i))
    }

    /// Collect the whole column into a vector of items.
    pub fn to_items(&self) -> Vec<Item> {
        self.iter_items().collect()
    }

    /// Build a column from a vector of items, choosing the narrowest
    /// monomorphic representation if all items share one type.
    pub fn from_items(items: Vec<Item>) -> Self {
        if !items.is_empty() {
            if items.iter().all(|i| matches!(i, Item::Int(_))) {
                return Column::Int(items.iter().map(|i| i.as_int().unwrap()).collect());
            }
            if items.iter().all(|i| matches!(i, Item::Node(_))) {
                return Column::Node(items.iter().map(|i| i.as_node().unwrap()).collect());
            }
            if items.iter().all(|i| matches!(i, Item::Str(_))) {
                return Column::Str(
                    items
                        .iter()
                        .map(|i| match i {
                            Item::Str(s) => s.clone(),
                            _ => unreachable!(),
                        })
                        .collect(),
                );
            }
            if items.iter().all(|i| matches!(i, Item::Bool(_))) {
                return Column::Bool(items.iter().map(|i| i.as_bool().unwrap()).collect());
            }
        }
        Column::Item(items)
    }

    /// Decode a dictionary column into a plain string column; every other
    /// variant is returned as a cheap clone.  Operators that do not exploit
    /// codes use this as their escape hatch.
    pub fn decode(&self) -> Column {
        match self {
            Column::Dict { codes, dict } => {
                Column::Str(codes.iter().map(|&c| dict.str_of(c).clone()).collect())
            }
            other => other.clone(),
        }
    }

    /// The codes and dictionary of a `Dict` column, or `None` for every
    /// other variant.
    pub fn dict_parts(&self) -> Option<(&[u32], &Arc<Dictionary>)> {
        match self {
            Column::Dict { codes, dict } => Some((codes, dict)),
            _ => None,
        }
    }

    /// Borrow the integer payload; error if this is not an integer column.
    pub fn as_int(&self) -> Result<&[i64]> {
        match self {
            Column::Int(v) => Ok(v),
            other => Err(EngineError::TypeMismatch {
                expected: "int".into(),
                found: other.type_name().into(),
            }),
        }
    }

    /// Borrow the boolean payload; error otherwise.
    pub fn as_bool(&self) -> Result<&[bool]> {
        match self {
            Column::Bool(v) => Ok(v),
            other => Err(EngineError::TypeMismatch {
                expected: "bool".into(),
                found: other.type_name().into(),
            }),
        }
    }

    /// Borrow the node payload; error otherwise.
    pub fn as_node(&self) -> Result<&[NodeId]> {
        match self {
            Column::Node(v) => Ok(v),
            other => Err(EngineError::TypeMismatch {
                expected: "node".into(),
                found: other.type_name().into(),
            }),
        }
    }

    /// Compare two rows of this column under the total order used for
    /// sorting.  Monomorphic variants compare natively; a `Dict` column
    /// compares the strings behind its codes.
    pub fn cmp_rows(&self, a: usize, b: usize) -> std::cmp::Ordering {
        match self {
            Column::Int(v) => v[a].cmp(&v[b]),
            Column::Node(v) => v[a].cmp(&v[b]),
            Column::Bool(v) => v[a].cmp(&v[b]),
            Column::Str(v) => v[a].as_ref().cmp(v[b].as_ref()),
            Column::Dict { codes, dict } => dict.str_of(codes[a]).cmp(dict.str_of(codes[b])),
            Column::Dbl(v) => v[a].partial_cmp(&v[b]).unwrap_or(std::cmp::Ordering::Equal),
            Column::Item(v) => v[a].total_cmp(&v[b]),
        }
    }

    /// Gather rows at the given positions into a new column (the classic
    /// positional "fetch join" primitive of a column store).
    pub fn gather(&self, idx: &[usize]) -> Column {
        match self {
            Column::Int(v) => Column::Int(idx.iter().map(|&i| v[i]).collect()),
            Column::Dbl(v) => Column::Dbl(idx.iter().map(|&i| v[i]).collect()),
            Column::Str(v) => Column::Str(idx.iter().map(|&i| v[i].clone()).collect()),
            Column::Dict { codes, dict } => Column::Dict {
                codes: idx.iter().map(|&i| codes[i]).collect(),
                dict: dict.clone(),
            },
            Column::Bool(v) => Column::Bool(idx.iter().map(|&i| v[i]).collect()),
            Column::Node(v) => Column::Node(idx.iter().map(|&i| v[i]).collect()),
            Column::Item(v) => Column::Item(idx.iter().map(|&i| v[i].clone()).collect()),
        }
    }

    /// Filter rows by a boolean mask of the same length.
    pub fn filter(&self, mask: &[bool]) -> Result<Column> {
        if mask.len() != self.len() {
            return Err(EngineError::LengthMismatch {
                left: self.len(),
                right: mask.len(),
            });
        }
        let idx: Vec<usize> = (0..mask.len()).filter(|&i| mask[i]).collect();
        Ok(self.gather(&idx))
    }

    /// Append another column of the same (or coercible) type; mismatched
    /// types fall back to the polymorphic representation.  Two `Dict`
    /// columns over the same dictionary concatenate codes; over different
    /// dictionaries the right side's distinct codes are interned into (a
    /// copy of) the left dictionary, so only the right side's codes change.
    pub fn append(&mut self, other: &Column) {
        match (&mut *self, other) {
            (Column::Int(a), Column::Int(b)) => a.extend_from_slice(b),
            (Column::Dbl(a), Column::Dbl(b)) => a.extend_from_slice(b),
            (Column::Str(a), Column::Str(b)) => a.extend_from_slice(b),
            (
                Column::Dict { codes, dict },
                Column::Dict {
                    codes: bcodes,
                    dict: bdict,
                },
            ) => {
                if Arc::ptr_eq(dict, bdict) {
                    codes.extend_from_slice(bcodes);
                } else {
                    // each distinct right code interned once
                    let mut here = vec![u32::MAX; bdict.len()];
                    codes.extend(bcodes.iter().map(|&c| {
                        let code = &mut here[c as usize];
                        if *code == u32::MAX {
                            *code = dict.intern(bdict.str_of(c));
                        }
                        *code
                    }));
                }
            }
            (Column::Str(a), Column::Dict { codes, dict }) => {
                a.extend(codes.iter().map(|&c| dict.str_of(c).clone()));
            }
            (this @ Column::Dict { .. }, Column::Str(_)) => {
                let mut decoded = this.decode();
                decoded.append(other);
                *this = decoded;
            }
            (Column::Bool(a), Column::Bool(b)) => a.extend_from_slice(b),
            (Column::Node(a), Column::Node(b)) => a.extend_from_slice(b),
            (Column::Item(a), b) => a.extend(b.iter_items()),
            (a, b) => {
                let mut items = a.to_items();
                items.extend(b.iter_items());
                *a = Column::Item(items);
            }
        }
    }

    /// A column holding `n` copies of the same item (loop-lifting of
    /// constants, Section 2.1).
    pub fn repeat(item: &Item, n: usize) -> Column {
        match item {
            Item::Int(v) => Column::Int(vec![*v; n]),
            Item::Dbl(v) => Column::Dbl(vec![*v; n]),
            Item::Str(v) => Column::Str(vec![v.clone(); n]),
            Item::Bool(v) => Column::Bool(vec![*v; n]),
            Item::Node(v) => Column::Node(vec![*v; n]),
        }
    }

    /// A dense integer column `start, start+1, …, start+n-1` — the shape of
    /// every loop relation and of SQL auto-increment keys (Section 4.1).
    pub fn dense(start: i64, n: usize) -> Column {
        Column::Int((0..n as i64).map(|i| start + i).collect())
    }

    /// Check whether an integer column is densely ascending from its first
    /// value (the `dense` column property of the peephole optimizer).
    pub fn is_dense(&self) -> bool {
        match self {
            Column::Int(v) => v
                .iter()
                .enumerate()
                .all(|(i, &x)| x == v.first().copied().unwrap_or(0) + i as i64),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_items_picks_monomorphic_representation() {
        let c = Column::from_items(vec![Item::Int(1), Item::Int(2)]);
        assert!(matches!(c, Column::Int(_)));
        let c = Column::from_items(vec![Item::Int(1), Item::str("x")]);
        assert!(matches!(c, Column::Item(_)));
    }

    #[test]
    fn gather_and_filter() {
        let c = Column::Int(vec![10, 20, 30, 40]);
        let g = c.gather(&[3, 0]);
        assert_eq!(g.as_int().unwrap(), &[40, 10]);
        let f = c.filter(&[true, false, true, false]).unwrap();
        assert_eq!(f.as_int().unwrap(), &[10, 30]);
    }

    #[test]
    fn filter_length_mismatch_is_error() {
        let c = Column::Int(vec![1, 2, 3]);
        assert!(c.filter(&[true]).is_err());
    }

    #[test]
    fn append_mismatched_types_degrades_to_item() {
        let mut c = Column::Int(vec![1]);
        c.append(&Column::Str(vec![Arc::from("x")]));
        assert!(matches!(c, Column::Item(_)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn dense_detection() {
        assert!(Column::dense(1, 5).is_dense());
        assert!(Column::Int(vec![4, 5, 6]).is_dense());
        assert!(!Column::Int(vec![1, 3, 4]).is_dense());
        assert!(!Column::Str(vec![]).is_dense());
    }

    #[test]
    fn repeat_builds_constant_column() {
        let c = Column::repeat(&Item::str("even"), 3);
        assert_eq!(c.len(), 3);
        assert_eq!(c.item(2).string_value(), "even");
    }

    #[test]
    fn dict_column_round_trip_and_gather() {
        let c = Column::dict_from_strings(["b", "a", "b", "c"]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.type_name(), "dict");
        assert_eq!(c.item(0).string_value(), "b");
        let g = c.gather(&[3, 1]);
        assert_eq!(g.item(0).string_value(), "c");
        assert_eq!(g.item(1).string_value(), "a");
        let decoded = c.decode();
        assert!(matches!(decoded, Column::Str(_)));
        assert_eq!(decoded.item(2).string_value(), "b");
    }

    #[test]
    fn dict_cmp_rows_matches_string_order() {
        let c = Column::dict_from_strings(["mango", "apple", "zebra"]);
        assert_eq!(c.cmp_rows(1, 0), std::cmp::Ordering::Less);
        assert_eq!(c.cmp_rows(2, 0), std::cmp::Ordering::Greater);
        assert_eq!(c.cmp_rows(1, 1), std::cmp::Ordering::Equal);
    }

    #[test]
    fn dict_append_shared_and_merged() {
        let (codes, dict) = crate::dict::Dictionary::encode(["a", "b"]);
        let mut shared = Column::Dict {
            codes,
            dict: dict.clone(),
        };
        let (codes2, _) = crate::dict::Dictionary::encode(["b", "a"]);
        shared.append(&Column::Dict {
            codes: codes2,
            dict: dict.clone(),
        });
        // same dictionary instance: codes concatenate, dict unchanged
        let (codes, d) = shared.dict_parts().unwrap();
        assert!(Arc::ptr_eq(d, &dict));
        assert_eq!(codes.len(), 4);

        // different dictionaries: the right side interned into the left
        // one, the left codes kept, strings preserved
        let mut a = Column::dict_from_strings(["a", "c"]);
        let b = Column::dict_from_strings(["b", "a"]);
        a.append(&b);
        let strings: Vec<String> = a.iter_items().map(|i| i.string_value()).collect();
        assert_eq!(strings, ["a", "c", "b", "a"]);
        assert_eq!(a.dict_parts().map(|(c, _)| c), Some(&[0, 1, 2, 0][..]));
    }

    #[test]
    fn dict_append_str_combinations_stay_stringy() {
        let mut s = Column::Str(vec![Arc::from("x")]);
        s.append(&Column::dict_from_strings(["y"]));
        assert!(matches!(s, Column::Str(_)));
        assert_eq!(s.len(), 2);

        let mut d = Column::dict_from_strings(["x"]);
        d.append(&Column::Str(vec![Arc::from("y")]));
        assert!(matches!(d, Column::Str(_)));
        assert_eq!(d.item(1).string_value(), "y");
    }
}
