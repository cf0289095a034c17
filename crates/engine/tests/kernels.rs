//! The engine's kernels on sizeable inputs, each checked against an
//! independent reference: a plain `std` sort, the sort-based numbering,
//! or a per-group fold.  (`radix_hash_join` has
//! its own differential suite in `tests/join_differential.rs`.)

use mxq_engine::agg::{aggregate_grouped, AggFunc};
use mxq_engine::rank::{row_number_by_sort, row_number_streaming};
use mxq_engine::sort::{sort_permutation, SortOrder};
use mxq_engine::{Column, Item};

/// Deterministic xorshift so the inputs are sizeable but reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const N: usize = 20_000;

#[test]
fn sort_permutation_is_a_stable_std_sort() {
    let mut rng = Rng(7);
    let a: Vec<i64> = (0..N).map(|_| rng.below(50) as i64).collect();
    let b: Vec<i64> = (0..N).map(|_| rng.below(1000) as i64).collect();
    let (ca, cb) = (Column::Int(a.clone()), Column::Int(b.clone()));
    let mut reference: Vec<usize> = (0..N).collect();
    reference.sort_by_key(|&i| (a[i], std::cmp::Reverse(b[i])));
    assert_eq!(
        sort_permutation(&[(&ca, SortOrder::Asc), (&cb, SortOrder::Desc)]),
        reference
    );
}

#[test]
fn streaming_row_numbers_equal_sort_based_numbers() {
    let mut rng = Rng(19);
    // ascending groups (the table convention every caller keeps), input
    // order the order within each group: mostly runs of length 1, some
    // short ones, one long run in the middle, gaps in the group values
    let mut group: Vec<i64> = Vec::with_capacity(N);
    let mut g = 0i64;
    while group.len() < N {
        g += 1 + rng.below(3) as i64;
        let run = if group.len() >= N / 2 && group.len() < N / 2 + 8 {
            N / 4
        } else if rng.below(4) == 0 {
            2 + rng.below(6) as usize
        } else {
            1
        };
        group.extend(std::iter::repeat_n(g, run.min(N - group.len())));
    }
    let row = Column::Int((0..N as i64).collect());
    assert_eq!(
        row_number_streaming(&group),
        row_number_by_sort(&[(&row, SortOrder::Asc)], Some(&group), N)
    );
}

#[test]
fn grouped_aggregation_equals_a_per_group_fold() {
    let mut rng = Rng(13);
    let iter: Vec<i64> = (0..N).map(|i| (i / 13) as i64).collect();
    let vals: Vec<i64> = (0..N).map(|_| rng.below(10_000) as i64).collect();
    let items = Column::Int(vals.clone());
    let groups: Vec<i64> = (0..N.div_ceil(13) as i64).collect();
    let runs: Vec<&[i64]> = vals.chunks(13).collect();
    let fold = |func: AggFunc, run: &[i64]| -> String {
        let sum: i64 = run.iter().sum();
        match func {
            AggFunc::Count => run.len().to_string(),
            AggFunc::Sum => sum.to_string(),
            AggFunc::Avg => Item::Dbl(sum as f64 / run.len() as f64).string_value(),
            AggFunc::Min => run.iter().min().unwrap().to_string(),
            AggFunc::Max => run.iter().max().unwrap().to_string(),
        }
    };
    for func in [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
    ] {
        let agg = aggregate_grouped(&iter, &items, func).unwrap();
        assert_eq!(agg.groups, groups, "{func:?}");
        let got: Vec<String> = agg.values.iter().map(|i| i.string_value()).collect();
        let want: Vec<String> = runs.iter().map(|r| fold(func, r)).collect();
        assert_eq!(got, want, "{func:?}");
    }
}

#[test]
fn dict_aggregation_equals_a_per_group_string_fold() {
    let mut rng = Rng(17);
    let iter: Vec<i64> = (0..N).map(|i| (i / 29) as i64).collect();
    let words = ["apple", "pear", "plum", "fig", "date", "quince"];
    let picked: Vec<&str> = (0..N).map(|_| words[rng.below(6) as usize]).collect();
    let items = Column::dict_from_strings(picked.clone());
    let runs: Vec<&[&str]> = picked.chunks(29).collect();
    let min = aggregate_grouped(&iter, &items, AggFunc::Min).unwrap();
    let max = aggregate_grouped(&iter, &items, AggFunc::Max).unwrap();
    let show = |v: &[Item]| v.iter().map(|i| i.string_value()).collect::<Vec<_>>();
    let fold = |pick: fn(&[&str]) -> String| runs.iter().map(|r| pick(r)).collect::<Vec<_>>();
    assert_eq!(
        show(&min.values),
        fold(|r| r.iter().min().unwrap().to_string())
    );
    assert_eq!(
        show(&max.values),
        fold(|r| r.iter().max().unwrap().to_string())
    );
}

#[test]
fn gather_and_filter_select_the_named_rows() {
    let mut rng = Rng(29);
    let col = Column::Int((0..N as i64).collect());
    let idx: Vec<usize> = (0..N).map(|_| rng.below(N as u64) as usize).collect();
    let mask: Vec<bool> = (0..N).map(|_| rng.below(2) == 0).collect();
    let gathered: Vec<i64> = idx.iter().map(|&i| i as i64).collect();
    let kept: Vec<i64> = (0..N as i64).filter(|&i| mask[i as usize]).collect();
    assert_eq!(col.gather(&idx).as_int().unwrap(), &gathered[..]);
    assert_eq!(col.filter(&mask).unwrap().as_int().unwrap(), &kept[..]);
}
