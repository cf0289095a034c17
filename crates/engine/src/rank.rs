//! Row numbering (the ρ operator of the paper).
//!
//! `ρ_{A:⟨C1..Cn⟩/Cg}(R)` extends a relation with a densely numbered column
//! `A`, numbering the tuples of each group defined by `Cg` in the order given
//! by `C1..Cn` — exactly SQL:1999's `DENSE_RANK() OVER (PARTITION BY Cg ORDER
//! BY C1..Cn)` (footnote 2 of the paper).
//!
//! Two physical algorithms are provided:
//!
//! * [`row_number_by_sort`] — a full sort on `[Cg, C1..Cn]`, kept as the
//!   reference the streaming numbering is tested against.
//! * [`row_number_streaming`] — the streaming numbering enabled by the
//!   `grpord` column property (Section 4.1): when each group's rows are
//!   already in the desired minor order, and the groups ascend (the table
//!   convention: every `iter` column is sorted), one counter reset at each
//!   run of equal group values suffices and no sort is needed.

use crate::column::Column;
use crate::sort::{sort_permutation, SortOrder};

/// Number rows within each group, ordering rows by the given key columns.
/// Returns the new column in the *original* row order (1-based, dense per
/// group).  `group` may be `None` for a single global group.
pub fn row_number_by_sort(
    order_keys: &[(&Column, SortOrder)],
    group: Option<&[i64]>,
    nrows: usize,
) -> Vec<i64> {
    // Build the sort key: group column first (ascending), then the minor keys.
    let group_col = group.map(|g| Column::Int(g.to_vec()));
    let mut keys: Vec<(&Column, SortOrder)> = Vec::new();
    if let Some(g) = &group_col {
        keys.push((g, SortOrder::Asc));
    }
    keys.extend(order_keys.iter().copied());
    let perm = if keys.is_empty() {
        (0..nrows).collect::<Vec<_>>()
    } else {
        sort_permutation(&keys)
    };

    let mut out = vec![0i64; nrows];
    let mut counter = 0i64;
    let mut prev_group: Option<i64> = None;
    for &row in &perm {
        let g = group.map(|g| g[row]);
        if g != prev_group {
            counter = 0;
            prev_group = g;
        }
        counter += 1;
        out[row] = counter;
    }
    out
}

/// Streaming row numbering: assumes the input already respects the desired
/// order *within* each group (the `grpord` property) and that the group
/// values ascend, so each group is one run: the counter restarts at every
/// change of the group value.
pub fn row_number_streaming(group: &[i64]) -> Vec<i64> {
    debug_assert!(
        group.windows(2).all(|w| w[0] <= w[1]),
        "row_number_streaming needs ascending groups"
    );
    let mut prev = None;
    let mut counter = 0i64;
    group
        .iter()
        .map(|&g| {
            if prev != Some(g) {
                prev = Some(g);
                counter = 0;
            }
            counter += 1;
            counter
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_based_numbering_per_group() {
        // groups: 1,1,2,2 ; order key descending values to check ordering is honored
        let group = vec![1, 1, 2, 2];
        let key = Column::Int(vec![9, 3, 7, 1]);
        let nums = row_number_by_sort(&[(&key, SortOrder::Asc)], Some(&group), 4);
        // group 1: key 3 -> 1, key 9 -> 2 ; group 2: key 1 -> 1, key 7 -> 2
        assert_eq!(nums, vec![2, 1, 2, 1]);
    }

    #[test]
    fn streaming_matches_sort_based_when_grpord_holds() {
        // ascending groups, rows already ordered within each: runs of
        // length 1 around one long run, and a gap in the group values
        let group = vec![1, 2, 2, 2, 2, 2, 3, 5, 5];
        let pos = Column::Int((0..group.len() as i64).collect());
        let sorted = row_number_by_sort(&[(&pos, SortOrder::Asc)], Some(&group), group.len());
        let streamed = row_number_streaming(&group);
        assert_eq!(streamed, vec![1, 1, 2, 3, 4, 5, 1, 1, 2]);
        assert_eq!(sorted, streamed);
    }

    #[test]
    fn global_dense_numbering() {
        let key = Column::Int(vec![30, 10, 20]);
        let nums = row_number_by_sort(&[(&key, SortOrder::Asc)], None, 3);
        assert_eq!(nums, vec![3, 1, 2]);
    }

    #[test]
    fn empty_inputs() {
        assert!(row_number_streaming(&[]).is_empty());
        assert!(row_number_by_sort(&[], None, 0).is_empty());
    }
}
