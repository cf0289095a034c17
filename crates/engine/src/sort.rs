//! Sorting primitives: multi-column stable sort permutations, refine sorting
//! within already sorted groups, and sortedness checks.
//!
//! The peephole optimizer of Section 4.1 distinguishes *full sorts* from
//! *refine sorts* (sorting a minor key within runs of an already ordered
//! major key); both are provided here so the `fig14_sort_reduction`
//! experiment can measure the difference.

use crate::column::Column;
use crate::error::Result;
use crate::table::Table;

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
/// dictionary-encoded strings by their codes (the sorted dictionary makes
/// code order equal string order, so no payload is touched).
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

/// Sort a whole table by the named key columns (all ascending).
pub fn sort_table(table: &Table, keys: &[&str]) -> Result<Table> {
    let cols: Vec<(&Column, SortOrder)> = keys
        .iter()
        .map(|k| table.column(k).map(|c| (c, SortOrder::Asc)))
        .collect::<Result<_>>()?;
    let perm = sort_permutation(&cols);
    Ok(table.gather(&perm))
}

/// Sort a table by named keys with explicit per-key directions.
pub fn sort_table_by(table: &Table, keys: &[(&str, SortOrder)]) -> Result<Table> {
    let cols: Vec<(&Column, SortOrder)> = keys
        .iter()
        .map(|(k, o)| table.column(k).map(|c| (c, *o)))
        .collect::<Result<_>>()?;
    let perm = sort_permutation(&cols);
    Ok(table.gather(&perm))
}

/// Refine-sort: the rows are already ordered by `major`; stable-sort each run
/// of equal `major` values by the `minor` keys only.  This is the incremental,
/// pipelinable refinement sort MonetDB provides (Section 4.2).
pub fn refine_sort_permutation(major: &Column, minor: &[(&Column, SortOrder)]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..major.len()).collect();
    let mut start = 0usize;
    while start < idx.len() {
        let mut end = start + 1;
        while end < idx.len() && major.cmp_rows(end, start) == std::cmp::Ordering::Equal {
            end += 1;
        }
        idx[start..end].sort_by(|&a, &b| compare_rows(minor, a, b));
        start = end;
    }
    idx
}

/// Is the column sorted ascending (non-strictly)?
pub fn is_sorted(col: &Column) -> bool {
    match col {
        Column::Int(v) => v.windows(2).all(|w| w[0] <= w[1]),
        Column::Node(v) => v.windows(2).all(|w| w[0] <= w[1]),
        // sorted dictionary: sortedness of the codes is sortedness of the strings
        Column::Dict { codes, .. } => codes.windows(2).all(|w| w[0] <= w[1]),
        _ => {
            let items = col.to_items();
            items
                .windows(2)
                .all(|w| w[0].total_cmp(&w[1]) != std::cmp::Ordering::Greater)
        }
    }
}

/// Is the table lexicographically sorted on the given columns?
pub fn is_sorted_on(table: &Table, keys: &[&str]) -> Result<bool> {
    let cols: Vec<(&Column, SortOrder)> = keys
        .iter()
        .map(|k| table.column(k).map(|c| (c, SortOrder::Asc)))
        .collect::<Result<_>>()?;
    let n = table.nrows();
    for i in 1..n {
        if compare_rows(&cols, i - 1, i) == std::cmp::Ordering::Greater {
            return Ok(false);
        }
    }
    Ok(true)
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
    fn refine_sort_only_touches_groups() {
        let major = Column::Int(vec![1, 1, 2, 2]);
        let minor = Column::Int(vec![9, 3, 7, 1]);
        let perm = refine_sort_permutation(&major, &[(&minor, SortOrder::Asc)]);
        assert_eq!(perm, vec![1, 0, 3, 2]);
    }

    #[test]
    fn sortedness_checks() {
        assert!(is_sorted(&Column::Int(vec![1, 2, 2, 3])));
        assert!(!is_sorted(&Column::Int(vec![2, 1])));
        let t = Table::from_columns(vec![
            ("a", Column::Int(vec![1, 1, 2])),
            ("b", Column::Int(vec![1, 2, 0])),
        ])
        .unwrap();
        assert!(is_sorted_on(&t, &["a", "b"]).unwrap());
        assert!(!is_sorted_on(&t, &["b"]).unwrap());
    }

    #[test]
    fn sort_table_by_name() {
        let t = Table::from_columns(vec![
            ("k", Column::Int(vec![3, 1, 2])),
            (
                "v",
                Column::from_items(vec![Item::str("c"), Item::str("a"), Item::str("b")]),
            ),
        ])
        .unwrap();
        let s = sort_table(&t, &["k"]).unwrap();
        assert_eq!(s.column("k").unwrap().as_int().unwrap(), &[1, 2, 3]);
        assert_eq!(s.column("v").unwrap().item(0).string_value(), "a");
    }
}
