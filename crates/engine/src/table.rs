//! Tables: ordered collections of equally long named columns.
//!
//! The pervasive instances in MonetDB/XQuery are the `iter|pos|item`
//! sequence encoding and the `pre|size|level` document encoding.

use crate::column::Column;
use crate::error::{EngineError, Result};
use crate::value::Item;

/// An in-memory relational table (all columns have the same length).
#[derive(Debug, Clone, Default)]
pub struct Table {
    cols: Vec<(String, Column)>,
}

impl Table {
    /// Create an empty table with no columns (zero rows, zero columns).
    pub fn new() -> Self {
        Table { cols: Vec::new() }
    }

    /// Create a table from name/column pairs.
    ///
    /// # Errors
    /// Returns an error if the columns do not all have the same length.
    pub fn from_columns(cols: Vec<(&str, Column)>) -> Result<Self> {
        let mut t = Table::new();
        for (name, col) in cols {
            t.add_column(name, col)?;
        }
        Ok(t)
    }

    /// Number of rows (0 for a table with no columns).
    pub fn nrows(&self) -> usize {
        self.cols.first().map(|(_, c)| c.len()).unwrap_or(0)
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols.len()
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.cols.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Borrow a column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        self.cols
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c)
            .ok_or_else(|| EngineError::UnknownColumn(name.to_string()))
    }

    /// Add (or replace) a column.  Lengths must agree with existing columns.
    pub fn add_column(&mut self, name: &str, col: Column) -> Result<()> {
        if self.ncols() > 0 && col.len() != self.nrows() {
            return Err(EngineError::LengthMismatch {
                left: self.nrows(),
                right: col.len(),
            });
        }
        if let Some(slot) = self.cols.iter_mut().find(|(n, _)| n == name) {
            slot.1 = col;
        } else {
            self.cols.push((name.to_string(), col));
        }
        Ok(())
    }

    /// Rename a column in place.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<()> {
        match self.cols.iter_mut().find(|(n, _)| n == from) {
            Some(slot) => {
                slot.0 = to.to_string();
                Ok(())
            }
            None => Err(EngineError::UnknownColumn(from.to_string())),
        }
    }

    /// Gather the given row positions (in order, duplicates allowed) from all
    /// columns into a new table.
    pub fn gather(&self, idx: &[usize]) -> Table {
        Table {
            cols: self
                .cols
                .iter()
                .map(|(n, c)| (n.clone(), c.gather(idx)))
                .collect(),
        }
    }

    /// Keep only rows where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> Result<Table> {
        if mask.len() != self.nrows() {
            return Err(EngineError::LengthMismatch {
                left: self.nrows(),
                right: mask.len(),
            });
        }
        let idx: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter_map(|(i, &keep)| keep.then_some(i))
            .collect();
        Ok(self.gather(&idx))
    }

    /// Append the rows of `other` (disjoint union ∪̇ of the paper); columns
    /// are matched by name and must exist in both tables.
    pub fn append(&mut self, other: &Table) -> Result<()> {
        if self.ncols() == 0 {
            *self = other.clone();
            return Ok(());
        }
        if other.nrows() == 0 {
            return Ok(());
        }
        for (name, col) in &mut self.cols {
            let o = other.column(name)?;
            col.append(o);
        }
        Ok(())
    }

    /// Read an entire row as items (debugging / result extraction).
    pub fn row(&self, i: usize) -> Vec<(String, Item)> {
        self.cols
            .iter()
            .map(|(n, c)| (n.clone(), c.item(i)))
            .collect()
    }

    /// Pretty-print at most `limit` rows (useful in examples and tests).
    pub fn display(&self, limit: usize) -> String {
        let mut out = String::new();
        out.push_str(&self.names().join(" | "));
        out.push('\n');
        for i in 0..self.nrows().min(limit) {
            let row: Vec<String> = self
                .cols
                .iter()
                .map(|(_, c)| c.item(i).string_value())
                .collect();
            out.push_str(&row.join(" | "));
            out.push('\n');
        }
        if self.nrows() > limit {
            out.push_str(&format!("... ({} rows total)\n", self.nrows()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Result<Table> {
        Table::from_columns(vec![
            ("iter", Column::Int(vec![1, 2, 3])),
            (
                "item",
                Column::from_items(vec![Item::str("a"), Item::str("b"), Item::str("c")]),
            ),
        ])
    }

    #[test]
    fn construction_and_access() -> Result<()> {
        let t = sample()?;
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.column("iter")?.as_int()?, &[1, 2, 3]);
        assert!(t.column("nope").is_err());
        Ok(())
    }

    #[test]
    fn length_mismatch_rejected() -> Result<()> {
        let mut t = sample()?;
        assert!(t.add_column("bad", Column::Int(vec![1])).is_err());
        Ok(())
    }

    #[test]
    fn add_column_replaces_existing() -> Result<()> {
        let mut t = sample()?;
        t.add_column("iter", Column::Int(vec![7, 8, 9]))?;
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.column("iter")?.as_int()?, &[7, 8, 9]);
        Ok(())
    }

    #[test]
    fn rename_gather_filter_append() -> Result<()> {
        let mut t = sample()?;
        t.rename("item", "value")?;
        assert_eq!(t.names(), ["iter", "value"]);
        let g = t.gather(&[2, 0]);
        assert_eq!(g.column("iter")?.as_int()?, &[3, 1]);
        let f = t.filter(&[false, true, false])?;
        assert_eq!(f.nrows(), 1);
        let mut a = t.clone();
        a.append(&t)?;
        assert_eq!(a.nrows(), 6);
        Ok(())
    }

    #[test]
    fn append_into_empty_table_adopts_schema() -> Result<()> {
        let mut empty = Table::new();
        empty.append(&sample()?)?;
        assert_eq!(empty.nrows(), 3);
        assert_eq!(empty.ncols(), 2);
        Ok(())
    }

    #[test]
    fn dict_columns_flow_through_table_operations() -> Result<()> {
        let t = Table::from_columns(vec![
            ("pre", Column::Int(vec![0, 1, 2])),
            ("tag", Column::dict_from_strings(["site", "item", "item"])),
        ])?;
        let g = t.gather(&[2, 0]);
        assert_eq!(g.column("tag")?.item(0).string_value(), "item");
        assert!(matches!(g.column("tag")?, Column::Dict { .. }));
        let f = t.filter(&[false, true, true])?;
        assert_eq!(f.nrows(), 2);
        let mut a = t.clone();
        a.append(&t)?;
        assert_eq!(a.nrows(), 6);
        assert!(matches!(a.column("tag")?, Column::Dict { .. }));
        Ok(())
    }
}
