//! Grouped aggregation over the `iter|item` sequence encoding.
//!
//! XQuery aggregate functions (`count`, `sum`, `avg`, `min`, `max`) and the
//! min/max pushdown of the existential join rewrite (Section 4.2) all reduce
//! an `iter`-grouped item column to one value per `iter` group.
//!
//! Two strategies are offered, mirroring the engine behaviour the paper
//! relies on:
//!
//! * [`aggregate_grouped`] — assumes the input is ordered on `iter` (which the
//!   order-aware physical algebra guarantees), so grouping is "for free": a
//!   single sequential pass.
//! * [`aggregate_hash`] — no order assumption, every group reduced through
//!   materialised items; the reference implementation for the typed run
//!   reduction of [`aggregate_grouped`].

use std::collections::HashMap;

use crate::column::Column;
use crate::error::{EngineError, Result};
use crate::value::Item;

/// The aggregate functions supported by the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Number of items per group.
    Count,
    /// Numeric sum per group (items coerced to double; integers stay integral).
    Sum,
    /// Arithmetic mean per group.
    Avg,
    /// Minimum item per group (value comparison).
    Min,
    /// Maximum item per group (value comparison).
    Max,
}

/// Result of a grouped aggregation: one row per group, in group order of
/// first appearance (for the sequential variant this is ascending `iter`).
#[derive(Debug, Clone)]
pub struct Aggregated {
    /// The group keys (`iter` values).
    pub groups: Vec<i64>,
    /// The aggregated value per group.
    pub values: Vec<Item>,
}

fn finish(func: AggFunc, items: &[Item]) -> Result<Item> {
    match func {
        AggFunc::Count => Ok(Item::Int(items.len() as i64)),
        AggFunc::Sum | AggFunc::Avg => {
            let mut sum = 0.0f64;
            let mut all_int = true;
            for it in items {
                match it {
                    Item::Int(i) => sum += *i as f64,
                    _ => {
                        all_int = false;
                        sum += it.as_number().ok_or_else(|| {
                            EngineError::Conversion(format!(
                                "cannot aggregate non-numeric item {it}"
                            ))
                        })?;
                    }
                }
            }
            if func == AggFunc::Sum {
                if all_int {
                    Ok(Item::Int(sum as i64))
                } else {
                    Ok(Item::Dbl(sum))
                }
            } else {
                Ok(Item::Dbl(sum / items.len().max(1) as f64))
            }
        }
        AggFunc::Min | AggFunc::Max => {
            let mut best: Option<&Item> = None;
            for it in items {
                best = Some(match best {
                    None => it,
                    Some(b) => {
                        let take_new = match func {
                            AggFunc::Min => it.total_cmp(b) == std::cmp::Ordering::Less,
                            _ => it.total_cmp(b) == std::cmp::Ordering::Greater,
                        };
                        if take_new {
                            it
                        } else {
                            b
                        }
                    }
                });
            }
            best.cloned()
                .ok_or_else(|| EngineError::Internal("aggregate over empty group".into()))
        }
    }
}

/// Aggregate an item column grouped by an `iter` column that is already
/// sorted ascending.  One sequential pass; grouping is free (Section 4.2).
pub fn aggregate_grouped(iter: &[i64], items: &Column, func: AggFunc) -> Result<Aggregated> {
    if iter.len() != items.len() {
        return Err(EngineError::LengthMismatch {
            left: iter.len(),
            right: items.len(),
        });
    }
    let mut groups = Vec::new();
    let mut values = Vec::new();
    let mut start = 0usize;
    while start < iter.len() {
        let g = iter[start];
        let mut end = start + 1;
        while end < iter.len() && iter[end] == g {
            end += 1;
        }
        groups.push(g);
        values.push(reduce_run(items, func, start..end)?);
        start = end;
    }
    Ok(Aggregated { groups, values })
}

/// Reduce one non-empty group run of a typed column without materialising
/// its items: `count` is the run length, min/max compare rows in place
/// (the strings behind the codes for a `Dict` column) and clone only the
/// winner, sums over `Int`/`Dbl` columns are plain numeric loops.  Every
/// result equals [`finish`] over the run's items.
fn reduce_run(items: &Column, func: AggFunc, run: std::ops::Range<usize>) -> Result<Item> {
    match func {
        AggFunc::Count => Ok(Item::Int(run.len() as i64)),
        AggFunc::Min | AggFunc::Max => {
            let wanted = if func == AggFunc::Min {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Greater
            };
            let mut best = run.start;
            for i in run.start + 1..run.end {
                if items.cmp_rows(i, best) == wanted {
                    best = i;
                }
            }
            Ok(items.item(best))
        }
        AggFunc::Sum | AggFunc::Avg => {
            let n = run.len();
            let (sum, all_int) = match items {
                Column::Int(v) => (v[run].iter().fold(0.0, |s, &i| s + i as f64), true),
                Column::Dbl(v) => (v[run].iter().fold(0.0, |s, &d| s + d), false),
                _ => {
                    let slice: Vec<Item> = run.map(|i| items.item(i)).collect();
                    return finish(func, &slice);
                }
            };
            Ok(match func {
                AggFunc::Avg => Item::Dbl(sum / n as f64),
                _ if all_int => Item::Int(sum as i64),
                _ => Item::Dbl(sum),
            })
        }
    }
}

/// Aggregate with no order assumption (hash grouping); group output order is
/// ascending group key for determinism.  The executor sorts instead of
/// hashing; this variant, which reduces every group through materialised
/// items, is retained as the reference the typed run reduction is tested
/// against.
pub fn aggregate_hash(iter: &[i64], items: &Column, func: AggFunc) -> Result<Aggregated> {
    if iter.len() != items.len() {
        return Err(EngineError::LengthMismatch {
            left: iter.len(),
            right: items.len(),
        });
    }
    let mut buckets: HashMap<i64, Vec<Item>> = HashMap::new();
    for (i, &g) in iter.iter().enumerate() {
        buckets.entry(g).or_default().push(items.item(i));
    }
    let mut keys: Vec<i64> = buckets.keys().copied().collect();
    keys.sort_unstable();
    let mut values = Vec::with_capacity(keys.len());
    for k in &keys {
        values.push(finish(func, &buckets[k])?);
    }
    Ok(Aggregated {
        groups: keys,
        values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(v: &[i64]) -> Column {
        Column::Int(v.to_vec())
    }

    #[test]
    fn grouped_count_sum_avg() {
        let iter = vec![1, 1, 2, 3, 3, 3];
        let col = items(&[10, 20, 5, 1, 2, 3]);
        let c = aggregate_grouped(&iter, &col, AggFunc::Count).unwrap();
        assert_eq!(c.groups, vec![1, 2, 3]);
        assert_eq!(
            c.values
                .iter()
                .map(|i| i.as_int().unwrap())
                .collect::<Vec<_>>(),
            vec![2, 1, 3]
        );
        let s = aggregate_grouped(&iter, &col, AggFunc::Sum).unwrap();
        assert_eq!(s.values[0].as_int().unwrap(), 30);
        let a = aggregate_grouped(&iter, &col, AggFunc::Avg).unwrap();
        assert!((a.values[2].as_number().unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn grouped_min_max() {
        let iter = vec![1, 1, 2];
        let col = items(&[5, 3, 9]);
        let mn = aggregate_grouped(&iter, &col, AggFunc::Min).unwrap();
        let mx = aggregate_grouped(&iter, &col, AggFunc::Max).unwrap();
        assert_eq!(mn.values[0].as_int().unwrap(), 3);
        assert_eq!(mx.values[0].as_int().unwrap(), 5);
        assert_eq!(mx.values[1].as_int().unwrap(), 9);
    }

    #[test]
    fn hash_matches_grouped_on_sorted_input() {
        let iter = vec![1, 1, 2, 4, 4];
        let col = items(&[3, 1, 7, 2, 8]);
        for f in [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max] {
            let a = aggregate_grouped(&iter, &col, f).unwrap();
            let b = aggregate_hash(&iter, &col, f).unwrap();
            assert_eq!(a.groups, b.groups);
            assert_eq!(
                a.values
                    .iter()
                    .map(|i| i.string_value())
                    .collect::<Vec<_>>(),
                b.values
                    .iter()
                    .map(|i| i.string_value())
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn typed_run_reduction_matches_item_reference() {
        let iter = vec![1, 1, 1, 2, 4, 4];
        let columns = [
            Column::Dbl(vec![2.5, f64::NAN, -0.0, 0.0, 1e300, 1e300]),
            Column::Bool(vec![true, false, true, false, false, true]),
            Column::Str(
                ["b", "a", "b", "10", "9", "x"]
                    .map(std::sync::Arc::from)
                    .to_vec(),
            ),
            Column::dict_from_strings(["b", "a", "b", "10", "9", "x"]),
            Column::Item(vec![
                Item::Int(1),
                Item::Dbl(0.5),
                Item::str("7"),
                Item::Int(3),
                Item::Dbl(f64::NAN),
                Item::Int(2),
            ]),
        ];
        let show = |a: Result<Aggregated>| {
            a.map(|a| {
                (
                    a.groups,
                    a.values
                        .iter()
                        .map(|v| format!("{v:?}"))
                        .collect::<Vec<_>>(),
                )
            })
            .map_err(|e| e.to_string())
        };
        for col in &columns {
            for f in [
                AggFunc::Count,
                AggFunc::Sum,
                AggFunc::Avg,
                AggFunc::Min,
                AggFunc::Max,
            ] {
                assert_eq!(
                    show(aggregate_grouped(&iter, col, f)),
                    show(aggregate_hash(&iter, col, f)),
                    "{f:?} over {}",
                    col.type_name()
                );
            }
        }
    }

    #[test]
    fn dict_min_max_runs_on_codes() {
        let iter = vec![1, 1, 1, 2, 2];
        let col = Column::dict_from_strings(["pear", "apple", "plum", "fig", "date"]);
        let mn = aggregate_grouped(&iter, &col, AggFunc::Min).unwrap();
        let mx = aggregate_grouped(&iter, &col, AggFunc::Max).unwrap();
        assert_eq!(mn.values[0].string_value(), "apple");
        assert_eq!(mx.values[0].string_value(), "plum");
        assert_eq!(mn.values[1].string_value(), "date");
        assert_eq!(mx.values[1].string_value(), "fig");
        // the hash variant (item path) agrees
        let hn = aggregate_hash(&iter, &col, AggFunc::Min).unwrap();
        assert_eq!(hn.values[0].string_value(), "apple");
    }

    #[test]
    fn sum_of_non_numeric_errors() {
        let iter = vec![1];
        let col = Column::from_items(vec![Item::str("abc")]);
        assert!(aggregate_grouped(&iter, &col, AggFunc::Sum).is_err());
    }

    #[test]
    fn length_mismatch_rejected() {
        assert!(aggregate_grouped(&[1, 2], &items(&[1]), AggFunc::Count).is_err());
        assert!(aggregate_hash(&[1], &items(&[1, 2]), AggFunc::Count).is_err());
    }
}
