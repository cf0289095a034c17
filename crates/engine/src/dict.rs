//! Shared, append-only string interners backing [`Column::Dict`].
//!
//! A [`Dictionary`] is a deduplicated list of strings: the code of a string
//! is the rank at which it was first seen, and it **never moves** — a new
//! string gets the next code, so a write that brings one rewrites no code
//! already handed out.  Code order is not string order: an operator that
//! orders strings ([`Column::cmp_rows`], [`crate::sort::is_sorted`]) reads
//! them through [`Dictionary::str_of`].
//!
//! Dictionaries are shared behind an [`Arc`]: every column encoded against
//! the same dictionary instance can be joined code-to-code (see
//! [`crate::join::radix_hash_join`]), since code equality is string
//! equality within one dictionary — which turns the string equi-joins of
//! the XMark hot paths into integer joins.  [`Dictionary::intern`] copies a
//! dictionary another owner still shares before it grows it, so a column or
//! a published image keeps the codes it was built over.
//!
//! [`Column::Dict`]: crate::column::Column::Dict
//! [`Column::cmp_rows`]: crate::column::Column::cmp_rows

use std::collections::HashMap;
use std::sync::Arc;

/// An append-only, deduplicated string interner.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    /// The distinct strings, by code (the order they were first seen in).
    strings: Vec<Arc<str>>,
    /// The code of every string.
    codes: HashMap<Arc<str>, u32>,
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
    /// Build a dictionary from arbitrary strings (deduplicated, in
    /// first-seen order).
    pub fn new<I, S>(strings: I) -> Arc<Dictionary>
    where
        I: IntoIterator<Item = S>,
        S: Into<Arc<str>>,
    {
        Dictionary::encode(strings).1
    }

    /// Encode a batch of strings, building the dictionary (in first-seen
    /// order) and the per-row code column in one pass.
    pub fn encode<I, S>(strings: I) -> (Vec<u32>, Arc<Dictionary>)
    where
        I: IntoIterator<Item = S>,
        S: Into<Arc<str>>,
    {
        let mut dict = Dictionary::default();
        let codes = strings.into_iter().map(|s| dict.insert(s.into())).collect();
        (codes, Arc::new(dict))
    }

    /// The code of `s`, a new one past the others when it is new.
    fn insert(&mut self, s: Arc<str>) -> u32 {
        if let Some(&code) = self.codes.get(&s) {
            return code;
        }
        let code = self.strings.len() as u32;
        let key = s.trim().parse().ok().and_then(crate::join::numeric_key);
        self.any_numeric |= key.is_some();
        self.numeric_keys.push(key);
        self.codes.insert(s.clone(), code);
        self.strings.push(s);
        code
    }

    /// The code of `s`, a new one past the others when it is new (the
    /// dictionary copied first when another owner still shares it).
    pub fn intern(self: &mut Arc<Self>, s: &str) -> u32 {
        match self.code_of(s) {
            Some(code) => code,
            None => Arc::make_mut(self).insert(Arc::from(s)),
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

    /// The code of `s`, if present (one hash probe).
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.codes.get(s).copied()
    }

    /// The string behind a code.
    ///
    /// # Panics
    /// Panics when `code` is outside `0..len` (codes are dense).
    pub fn str_of(&self, code: u32) -> &Arc<str> {
        &self.strings[code as usize]
    }

    /// Iterate over the strings in code (first-seen) order.
    pub fn iter(&self) -> std::slice::Iter<'_, Arc<str>> {
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

    /// Does every string map to its place in the list, the map hold no
    /// other entry, and every string carry its numeric key?
    pub fn check(&self) -> Result<(), String> {
        let agree = (0..)
            .zip(&self.strings)
            .all(|(code, s)| self.code_of(s) == Some(code));
        if !agree || self.codes.len() != self.strings.len() {
            return Err("the string list and the code map disagree".into());
        }
        if self.numeric_keys.len() != self.strings.len()
            || self.any_numeric != self.numeric_keys.iter().any(Option::is_some)
        {
            return Err("the numeric keys disagree with the strings".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_follow_first_seen_order() {
        let d = Dictionary::new(["person", "item", "item", "auction"]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.code_of("person"), Some(0));
        assert_eq!(d.code_of("item"), Some(1));
        assert_eq!(d.code_of("auction"), Some(2));
        assert_eq!(d.code_of("missing"), None);
        assert_eq!(d.str_of(1).as_ref(), "item");
        assert_eq!(d.check(), Ok(()));
    }

    #[test]
    fn encode_round_trips() {
        let rows = ["b", "a", "b", "c", "a"];
        let (codes, dict) = Dictionary::encode(rows);
        let decoded: Vec<&str> = codes.iter().map(|&c| dict.str_of(c).as_ref()).collect();
        assert_eq!(decoded, rows);
    }

    #[test]
    fn intern_appends_and_copies_a_shared_dictionary() {
        let mut d = Dictionary::new(["b", "c"]);
        let published = d.clone();
        assert_eq!(d.intern("c"), 1);
        assert!(Arc::ptr_eq(&d, &published), "a known string copies nothing");
        assert_eq!(d.intern("a"), 2);
        assert!(!Arc::ptr_eq(&d, &published));
        assert_eq!(published.len(), 2);
        assert_eq!(d.code_of("b"), Some(0));
        assert_eq!(d.check(), Ok(()));
    }

    #[test]
    fn check_catches_a_list_and_map_that_disagree() {
        let mut d = Dictionary::clone(&Dictionary::new(["x", "10"]));
        d.strings.swap(0, 1);
        assert!(d.check().is_err());
        let mut d = Dictionary::clone(&Dictionary::new(["x"]));
        d.codes.insert(Arc::from("y"), 1);
        assert!(d.check().is_err());
    }

    #[test]
    fn numeric_detection() {
        assert!(!Dictionary::new(["tag", "name"]).any_numeric());
        assert!(Dictionary::new(["tag", "10"]).any_numeric());
        assert!(Dictionary::new([" 3.5 "]).any_numeric());
        let mut d = Dictionary::new(["tag"]);
        d.intern("7");
        assert!(d.any_numeric());
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
