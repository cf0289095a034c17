//! Shared, sorted string dictionaries backing [`Column::Dict`].
//!
//! A [`Dictionary`] is an immutable, deduplicated list of strings kept in
//! ascending order, so that **code order equals string order**: for two codes
//! `a` and `b`, `a < b ⇔ str_of(a) < str_of(b)`.  This is what lets `sort`,
//! `rank` and min/max aggregation run entirely on the `u32` codes of a
//! dictionary-encoded column without ever touching string payloads — the
//! dense positional processing of Section 4.1 applied to strings.
//!
//! Dictionaries are shared behind an [`Arc`]: every column encoded against
//! the same dictionary instance can be joined code-to-code (see
//! [`crate::join::radix_hash_join`]), which turns the string equi-joins of
//! the XMark hot paths into integer joins.
//!
//! [`Column::Dict`]: crate::column::Column::Dict

use std::sync::Arc;

/// An immutable, sorted, deduplicated string dictionary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dictionary {
    /// The distinct strings, ascending; the code of a string is its index.
    strings: Vec<Arc<str>>,
    /// Whether any entry parses as a number (`"10"`, `" 3.5 "`).  Columns
    /// over purely non-numeric dictionaries (tag names, attribute names) can
    /// skip the numeric-string normalisation of the XQuery general
    /// comparison during joins.
    any_numeric: bool,
    /// Per-code numeric join key: the `f64` bit pattern (`-0` folded onto
    /// `+0`) of entries that parse as a number other than NaN, `None` for
    /// everything else.  Lets a join over a *mixed* dictionary (attribute
    /// values: ids and prices side by side) still run per code instead of
    /// per row.
    numeric_keys: Vec<Option<u64>>,
}

impl Dictionary {
    /// Build a dictionary from arbitrary strings (sorted and deduplicated).
    pub fn new<I, S>(strings: I) -> Arc<Dictionary>
    where
        I: IntoIterator<Item = S>,
        S: Into<Arc<str>>,
    {
        let mut strings: Vec<Arc<str>> = strings.into_iter().map(Into::into).collect();
        strings.sort_unstable();
        strings.dedup();
        Arc::new(Dictionary::from_sorted(strings))
    }

    fn from_sorted(strings: Vec<Arc<str>>) -> Dictionary {
        let numeric_keys: Vec<Option<u64>> = strings
            .iter()
            .map(|s| s.trim().parse().ok().and_then(crate::join::numeric_key))
            .collect();
        let any_numeric = numeric_keys.iter().any(Option::is_some);
        Dictionary {
            strings,
            any_numeric,
            numeric_keys,
        }
    }

    /// Number of distinct strings (the code domain is `0..len`).
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when the dictionary holds no strings.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// The code of `s`, if present (binary search over the sorted strings).
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.strings
            .binary_search_by(|probe| probe.as_ref().cmp(s))
            .ok()
            .map(|i| i as u32)
    }

    /// The string behind a code.
    ///
    /// # Panics
    /// Panics when `code` is outside `0..len` (codes are dense).
    pub fn str_of(&self, code: u32) -> &Arc<str> {
        &self.strings[code as usize]
    }

    /// Iterate over the strings in code (= string) order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<str>> {
        self.strings.iter()
    }

    /// Does any entry parse as a number?  When false, code equality is
    /// exactly XQuery general-comparison equality for this dictionary, so
    /// joins may compare codes directly.
    pub fn any_numeric(&self) -> bool {
        self.any_numeric
    }

    /// Numeric join key of a code: the `f64` bit pattern (`-0` folded onto
    /// `+0`) when the entry parses as a number other than NaN (the XQuery
    /// general-comparison normalisation of untyped data), `None` for every
    /// other string.
    ///
    /// # Panics
    /// Panics when `code` is outside `0..len` (codes are dense).
    pub fn numeric_key_of(&self, code: u32) -> Option<u64> {
        self.numeric_keys[code as usize]
    }

    /// Encode a batch of strings, building the dictionary and the per-row
    /// code column in one pass (sort + dedup + binary-search lookups).
    pub fn encode<I, S>(strings: I) -> (Vec<u32>, Arc<Dictionary>)
    where
        I: IntoIterator<Item = S>,
        S: Into<Arc<str>>,
    {
        let rows: Vec<Arc<str>> = strings.into_iter().map(Into::into).collect();
        let dict = Dictionary::new(rows.iter().cloned());
        let codes = rows
            .iter()
            .map(|s| dict.code_of(s).expect("every row is in its dictionary"))
            .collect();
        (codes, dict)
    }

    /// Merge two dictionaries into one (sorted union) and return, along with
    /// the merged dictionary, the code remapping of each input: old code `c`
    /// of `a` becomes `remap_a[c]` in the merged dictionary.
    pub fn merge(a: &Dictionary, b: &Dictionary) -> (Arc<Dictionary>, Vec<u32>, Vec<u32>) {
        use std::cmp::Ordering;
        let mut strings = Vec::with_capacity(a.len() + b.len());
        let (mut ra, mut rb) = (Vec::with_capacity(a.len()), Vec::with_capacity(b.len()));
        let (mut i, mut j) = (0, 0);
        // one walk over both: each entry's new code is where it lands
        while i < a.len() || j < b.len() {
            let code = strings.len() as u32;
            let order = match (a.strings.get(i), b.strings.get(j)) {
                (Some(x), Some(y)) => x.cmp(y),
                (Some(_), None) => Ordering::Less,
                _ => Ordering::Greater,
            };
            if order != Ordering::Greater {
                strings.push(a.strings[i].clone());
                ra.push(code);
                i += 1;
            }
            if order != Ordering::Less {
                if order == Ordering::Greater {
                    strings.push(b.strings[j].clone());
                }
                rb.push(code);
                j += 1;
            }
        }
        (Arc::new(Dictionary::from_sorted(strings)), ra, rb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_follow_string_order() {
        let d = Dictionary::new(["person", "item", "item", "auction"]);
        assert_eq!(d.len(), 3);
        assert!(d.code_of("auction") < d.code_of("item"));
        assert!(d.code_of("item") < d.code_of("person"));
        assert_eq!(d.code_of("missing"), None);
        assert_eq!(d.str_of(d.code_of("item").unwrap()).as_ref(), "item");
    }

    #[test]
    fn encode_round_trips() {
        let rows = ["b", "a", "b", "c", "a"];
        let (codes, dict) = Dictionary::encode(rows);
        let decoded: Vec<&str> = codes.iter().map(|&c| dict.str_of(c).as_ref()).collect();
        assert_eq!(decoded, rows);
    }

    #[test]
    fn merge_remaps_both_sides() {
        let a = Dictionary::new(["a", "c"]);
        let b = Dictionary::new(["b", "c", "d"]);
        let (m, ra, rb) = Dictionary::merge(&a, &b);
        assert_eq!(m.len(), 4);
        for (old, s) in a.iter().enumerate() {
            assert_eq!(m.str_of(ra[old]), s);
        }
        for (old, s) in b.iter().enumerate() {
            assert_eq!(m.str_of(rb[old]), s);
        }
    }

    #[test]
    fn numeric_detection() {
        assert!(!Dictionary::new(["tag", "name"]).any_numeric());
        assert!(Dictionary::new(["tag", "10"]).any_numeric());
        assert!(Dictionary::new([" 3.5 "]).any_numeric());
    }

    #[test]
    fn numeric_keys_per_code() {
        let d = Dictionary::new(["person0", "10", "10.0", "3.5"]);
        let key = |s: &str| d.numeric_key_of(d.code_of(s).unwrap());
        assert_eq!(key("person0"), None);
        assert_eq!(key("10"), Some(10f64.to_bits()));
        // distinct strings, equal numeric value: the keys collapse
        assert_eq!(key("10"), key("10.0"));
        assert_eq!(key("3.5"), Some(3.5f64.to_bits()));
    }
}
