//! Sorting primitives: multi-column stable sort permutations and a
//! sortedness check.
//!
//! The order-aware executor (Section 4.1) avoids sorts whose order is
//! already established; [`is_sorted`] is the runtime side of that check.

use crate::column::Column;

/// Sort direction for one sort key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    /// Ascending (the default everywhere in the XQuery compilation).
    Asc,
    /// Descending (used by `order by … descending`).
    Desc,
}

/// Compute a stable permutation of row indices that sorts the rows
/// lexicographically by the given key columns.
pub fn sort_permutation(keys: &[(&Column, SortOrder)]) -> Vec<usize> {
    let n = keys.first().map(|(c, _)| c.len()).unwrap_or(0);
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| compare_rows(keys, a, b));
    idx
}

/// Compare two rows under the given multi-column key.  Delegates to
/// [`Column::cmp_rows`], which compares bookkeeping columns natively and
/// dictionary-encoded strings by the strings behind their codes.
fn compare_rows(keys: &[(&Column, SortOrder)], a: usize, b: usize) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    for (col, order) in keys {
        let ord = col.cmp_rows(a, b);
        let ord = match order {
            SortOrder::Asc => ord,
            SortOrder::Desc => ord.reverse(),
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Is the column sorted ascending (non-strictly)?
pub fn is_sorted(col: &Column) -> bool {
    match col {
        Column::Int(v) => v.windows(2).all(|w| w[0] <= w[1]),
        Column::Node(v) => v.windows(2).all(|w| w[0] <= w[1]),
        // code order is first-seen order: compare the strings
        Column::Dict { codes, dict } => codes
            .windows(2)
            .all(|w| dict.str_of(w[0]) <= dict.str_of(w[1])),
        _ => {
            let items = col.to_items();
            items
                .windows(2)
                .all(|w| w[0].total_cmp(&w[1]) != std::cmp::Ordering::Greater)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Item;

    #[test]
    fn single_key_sort_is_stable() {
        let key = Column::Int(vec![2, 1, 2, 1]);
        let perm = sort_permutation(&[(&key, SortOrder::Asc)]);
        assert_eq!(perm, vec![1, 3, 0, 2]);
    }

    #[test]
    fn multi_key_sort() {
        let a = Column::Int(vec![1, 1, 0, 0]);
        let b = Column::Int(vec![5, 3, 9, 1]);
        let perm = sort_permutation(&[(&a, SortOrder::Asc), (&b, SortOrder::Asc)]);
        assert_eq!(perm, vec![3, 2, 1, 0]);
    }

    #[test]
    fn descending_sort() {
        let a = Column::Int(vec![1, 3, 2]);
        let perm = sort_permutation(&[(&a, SortOrder::Desc)]);
        assert_eq!(perm, vec![1, 2, 0]);
    }

    #[test]
    fn sortedness_checks() {
        assert!(is_sorted(&Column::Int(vec![1, 2, 2, 3])));
        assert!(!is_sorted(&Column::Int(vec![2, 1])));
        assert!(is_sorted(&Column::dict_from_strings(["a", "b", "b"])));
        // codes 0, 1 over strings in descending order
        assert!(!is_sorted(&Column::dict_from_strings(["b", "a"])));
    }

    #[test]
    fn sort_table_by_name() {
        // a key column and a payload column, permuted together
        let k = Column::Int(vec![3, 1, 2]);
        let v = Column::from_items(vec![Item::str("c"), Item::str("a"), Item::str("b")]);
        let perm = sort_permutation(&[(&k, SortOrder::Asc)]);
        assert_eq!(k.gather(&perm).as_int(), Ok(&[1, 2, 3][..]));
        assert_eq!(v.gather(&perm).item(0).string_value(), "a");
    }
}
