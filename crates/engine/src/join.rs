//! Join algorithms: sorted-key lookup, a radix-partitioned hash equi-join,
//! and the sort-merge theta (non-equi) join with its min/max push-down.
//!
//! [`lookup_sorted`] implements the key observation of Section 4.1 of the
//! paper: joins on densely increasing integer key columns have a fixed hit
//! rate of one and can be answered by address computation instead of
//! hashing.
//!
//! # Theta-join strategy
//!
//! [`theta_join`] is the production non-equi join (Section 4.2).  It
//! extracts the comparison keys of each side *once* into typed vectors, one
//! per comparison class of [`Item::value_cmp`] (doubles for numbers and
//! castable untyped strings, `&str` or shared dictionary codes for strings,
//! node ids), sorts the right side once and answers every left row with two
//! binary searches: `O((n + m) log m + output)` instead of `n * m` item
//! comparisons.  [`theta_join_counts`] answers `count` over the same join
//! from the same sort — per left row the length of its matching key ranges,
//! no pairs built.  [`minmax_candidates`] is the aggregate push-down of
//! Figure 8(b) over the same typed keys.  [`theta_join_nested`] — the
//! nested loop over [`Item::compare`] — is retained as the reference
//! implementation;
//! `tests/join_differential.rs` checks the two produce identical pairs in
//! identical order for all six operators.
//!
//! # Equi-join strategy
//!
//! [`radix_hash_join`] is the production equi-join of the kernel.  It
//! normalises both key columns once (per *distinct value* for
//! dictionary-encoded columns), partitions both sides by the low bits of the
//! key hash, and builds one small hash table per partition — the classic
//! radix-cluster layout that keeps each build side cache resident.  Two
//! fast paths sit in front of the generic algorithm:
//!
//! * **Shared dictionary, code-to-code**: when both inputs are
//!   [`Column::Dict`] over the *same* dictionary instance (`Arc::ptr_eq`)
//!   and the dictionary contains no numeric strings, string equality is
//!   exactly code equality.  The join is answered with a dense
//!   `code → rows` array — no hashing, no string comparison at all.
//! * **Per-code key normalisation**: any `Dict` input computes its
//!   normalised join key once per dictionary code instead of once per row.
//!
//! [`hash_join_items`] — the original single-table hash join — is retained
//! as the reference implementation; `tests/join_differential.rs` checks the
//! two produce identical pair sets on adversarial generated inputs (NaN-bit
//! doubles, numeric strings, shared and disjoint dictionaries).

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

use crate::column::Column;
use crate::value::{CmpOp, Item, NodeId};

/// Pairs of matching row indices `(left_row, right_row)` produced by a join.
pub type JoinPairs = (Vec<usize>, Vec<usize>);

/// Normalised join key: numbers (including booleans and numeric strings)
/// collapse onto a single numeric key so that XQuery general comparisons
/// between typed and untyped data behave as [`Item::compare`] has them;
/// everything else is compared as a string.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum JoinKey {
    Num(u64),
    Str(Arc<str>),
    Node(u64),
}

/// A double as a join key, equi- or theta-: `-0.0` folded onto `+0.0`, and
/// `None` for NaN, which compares to nothing ([`Item::compare`]).
fn comparable(d: f64) -> Option<f64> {
    (!d.is_nan()).then_some(d + 0.0)
}

/// The bit pattern equal doubles share, `None` for NaN.
pub(crate) fn numeric_key(d: f64) -> Option<u64> {
    comparable(d).map(f64::to_bits)
}

/// The join key of an item; `None` for a NaN double, which joins nothing.
fn join_key(item: &Item) -> Option<JoinKey> {
    Some(match item {
        Item::Int(i) => JoinKey::Num(numeric_key(*i as f64)?),
        Item::Dbl(d) => JoinKey::Num(numeric_key(*d)?),
        Item::Bool(b) => JoinKey::Num(numeric_key(*b as u8 as f64)?),
        Item::Node(n) => JoinKey::Node(((n.frag as u64) << 32) | n.pre as u64),
        // a string that casts to NaN stays a string: it equals itself
        Item::Str(s) => match s.trim().parse::<f64>().ok().and_then(numeric_key) {
            Some(bits) => JoinKey::Num(bits),
            None => JoinKey::Str(s.clone()),
        },
    })
}

/// Normalised join keys for a whole column (`None`: the row joins nothing).
/// `Dict` columns pay the normalisation once per dictionary code, every
/// other column once per row.
fn join_keys(col: &Column) -> Vec<Option<JoinKey>> {
    match col.dict_parts() {
        Some((codes, dict)) => {
            // the dictionary cast every distinct string once already
            let per_code: Vec<Option<JoinKey>> = (0..dict.len() as u32)
                .map(|c| {
                    Some(match dict.numeric_key_of(c) {
                        Some(bits) => JoinKey::Num(bits),
                        None => JoinKey::Str(dict.str_of(c).clone()),
                    })
                })
                .collect();
            codes
                .iter()
                .map(|&c| per_code[c as usize].clone())
                .collect()
        }
        None => (0..col.len()).map(|i| join_key(&col.item(i))).collect(),
    }
}

/// Hash equi-join between two item columns with key normalisation.
pub fn hash_join_items(left: &Column, right: &Column) -> JoinPairs {
    let mut index: HashMap<JoinKey, Vec<usize>> = HashMap::with_capacity(right.len());
    for r in 0..right.len() {
        if let Some(key) = join_key(&right.item(r)) {
            index.entry(key).or_default().push(r);
        }
    }
    let mut lout = Vec::new();
    let mut rout = Vec::new();
    for l in 0..left.len() {
        let Some(key) = join_key(&left.item(l)) else {
            continue;
        };
        if let Some(rs) = index.get(&key) {
            for &r in rs {
                lout.push(l);
                rout.push(r);
            }
        }
    }
    (lout, rout)
}

/// Maximum number of radix bits used to partition the key hash space (2^6 =
/// 64 partitions).  The actual partition count adapts to the build-side
/// size, so tiny inputs pay no fan-out cost at all.
const RADIX_BITS: u32 = 6;

/// Build-side rows per partition the partitioning aims for.
const ROWS_PER_PARTITION: usize = 256;

fn hash_key(k: &JoinKey) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    k.hash(&mut h);
    h.finish()
}

/// Radix-partitioned hash equi-join between two item columns with XQuery key
/// normalisation.  Produces exactly the pair set of [`hash_join_items`], in
/// the same `(left, right)` index order.
///
/// When both columns are dictionary-encoded over the same dictionary
/// instance and the dictionary holds no numeric strings, the join degrades
/// to a dense code-to-code lookup (no hashing).  Otherwise both sides are
/// hashed once (per code for `Dict` inputs), split into `2^RADIX_BITS`
/// partitions by the low hash bits, and joined partition by partition.
pub fn radix_hash_join(left: &Column, right: &Column) -> JoinPairs {
    if let (Some((lcodes, ldict)), Some((rcodes, rdict))) = (left.dict_parts(), right.dict_parts())
    {
        if Arc::ptr_eq(ldict, rdict) {
            return if ldict.any_numeric() {
                code_join_numeric(lcodes, rcodes, ldict)
            } else {
                code_join(lcodes, rcodes, ldict.len())
            };
        }
    }

    let lkeys = join_keys(left);
    let rkeys = join_keys(right);
    // partition only as much as the build side warrants: with fewer than
    // ROWS_PER_PARTITION build rows a single hash table is already cache
    // resident and partitioning would be pure overhead
    let radix_bits = (right.len() / ROWS_PER_PARTITION)
        .next_power_of_two()
        .trailing_zeros()
        .min(RADIX_BITS);
    let nparts = 1usize << radix_bits;
    let mask = (nparts - 1) as u64;

    if nparts == 1 {
        // degenerate radix: one cache-resident hash table, probed in left
        // order — output needs no re-sort
        let mut build: HashMap<&JoinKey, Vec<usize>> = HashMap::with_capacity(rkeys.len());
        for (r, k) in rkeys.iter().enumerate() {
            if let Some(k) = k {
                build.entry(k).or_default().push(r);
            }
        }
        let mut lout = Vec::new();
        let mut rout = Vec::new();
        for (l, k) in lkeys.iter().enumerate() {
            if let Some(rs) = k.as_ref().and_then(|k| build.get(k)) {
                for &r in rs {
                    lout.push(l);
                    rout.push(r);
                }
            }
        }
        return (lout, rout);
    }

    // scatter the rows into partitions by the low hash bits (a row without
    // a key joins nothing and enters no partition)
    let partition = |keys: &[Option<JoinKey>]| -> Vec<Vec<usize>> {
        let mut parts: Vec<Vec<usize>> = vec![Vec::new(); nparts];
        for (row, k) in keys.iter().enumerate() {
            if let Some(k) = k {
                parts[(hash_key(k) & mask) as usize].push(row);
            }
        }
        parts
    };
    let lparts = partition(&lkeys);
    let rparts = partition(&rkeys);

    // each partition joins independently, its pairs appended in partition
    // order
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for (lpart, rpart) in lparts.iter().zip(&rparts) {
        if lpart.is_empty() || rpart.is_empty() {
            continue;
        }
        // every partitioned row has a key: `Some` meets `Some` only
        let mut build: HashMap<&Option<JoinKey>, Vec<usize>> = HashMap::with_capacity(rpart.len());
        for &r in rpart {
            build.entry(&rkeys[r]).or_default().push(r);
        }
        for &l in lpart {
            if let Some(rs) = build.get(&lkeys[l]) {
                for &r in rs {
                    pairs.push((l, r));
                }
            }
        }
    }
    // restore the (left, right) index order hash_join_items produces
    pairs.sort_unstable();
    (
        pairs.iter().map(|&(l, _)| l).collect(),
        pairs.into_iter().map(|(_, r)| r).collect(),
    )
}

/// Code-to-code join over a shared dictionary: a dense `code → right rows`
/// table answers every left probe with one array index.
fn code_join(left: &[u32], right: &[u32], ncodes: usize) -> JoinPairs {
    let mut by_code: Vec<Vec<usize>> = vec![Vec::new(); ncodes];
    for (r, &c) in right.iter().enumerate() {
        by_code[c as usize].push(r);
    }
    let mut lout = Vec::new();
    let mut rout = Vec::new();
    for (l, &c) in left.iter().enumerate() {
        for &r in &by_code[c as usize] {
            lout.push(l);
            rout.push(r);
        }
    }
    (lout, rout)
}

/// Code-to-code join over a shared dictionary that *does* contain numeric
/// strings.  Non-numeric entries still join through the dense code table
/// (two distinct non-numeric codes never compare equal, and a non-numeric
/// string never equals a number); numeric entries join through a small map
/// keyed by their normalised `f64` bits, so `"10"` meets `"10.0"` exactly as
/// the generic per-row normalisation would have it.
fn code_join_numeric(left: &[u32], right: &[u32], dict: &crate::dict::Dictionary) -> JoinPairs {
    let mut by_code: Vec<Vec<usize>> = vec![Vec::new(); dict.len()];
    let mut by_num: HashMap<u64, Vec<usize>> = HashMap::new();
    for (r, &c) in right.iter().enumerate() {
        match dict.numeric_key_of(c) {
            Some(bits) => by_num.entry(bits).or_default().push(r),
            None => by_code[c as usize].push(r),
        }
    }
    let mut lout = Vec::new();
    let mut rout = Vec::new();
    for (l, &c) in left.iter().enumerate() {
        let rows = match dict.numeric_key_of(c) {
            Some(bits) => by_num.get(&bits).map(Vec::as_slice).unwrap_or(&[]),
            None => &by_code[c as usize],
        };
        for &r in rows {
            lout.push(l);
            rout.push(r);
        }
    }
    (lout, rout)
}

/// Nested-loop theta join evaluating `left[i] op right[j]` with XQuery value
/// comparison semantics.  Output ordered by `(left, right)` index.  The
/// reference implementation [`theta_join`] is tested against.
pub fn theta_join_nested(left: &Column, right: &Column, op: CmpOp) -> JoinPairs {
    let litems = left.to_items();
    let ritems = right.to_items();
    let mut lout = Vec::new();
    let mut rout = Vec::new();
    for (l, li) in litems.iter().enumerate() {
        for (r, ri) in ritems.iter().enumerate() {
            if li.compare(op, ri) {
                lout.push(l);
                rout.push(r);
            }
        }
    }
    (lout, rout)
}

/// Comparison keys of one comparison class, each paired with its row, in
/// row order.
type Keys<K> = Vec<(K, usize)>;

/// The comparison keys of one join side, extracted once per column: one
/// typed vector per comparison class of [`Item::value_cmp`].
///
/// * `num` — integers, doubles and booleans as doubles;
/// * `cast` — strings whose trimmed text casts to a double (the untyped
///   side of a numeric comparison);
/// * `strs` — every string, for the string–string comparison;
/// * `nodes` — node ids.
///
/// NaN compares to nothing and is dropped; `-0.0` is folded onto `0.0`, so
/// the total order on the remaining doubles agrees with `partial_cmp`.
#[derive(Default)]
struct ThetaKeys<'a> {
    num: Keys<f64>,
    cast: Keys<f64>,
    strs: Keys<&'a str>,
    nodes: Keys<NodeId>,
}

impl<'a> ThetaKeys<'a> {
    /// `strings: false` skips the `strs` class (the caller compares shared
    /// dictionary codes instead).
    fn extract(col: &'a Column, strings: bool) -> Self {
        let mut k = ThetaKeys::default();
        match col {
            Column::Int(v) => k.num = v.iter().map(|&x| x as f64).zip(0..).collect(),
            Column::Dbl(v) => {
                for (row, &x) in v.iter().enumerate() {
                    push_num(&mut k.num, x, row);
                }
            }
            Column::Bool(v) => k.num = v.iter().map(|&b| b as u8 as f64).zip(0..).collect(),
            Column::Node(v) => k.nodes = v.iter().copied().zip(0..).collect(),
            Column::Str(v) => {
                for (row, s) in v.iter().enumerate() {
                    k.push_str(s, s.trim().parse().ok(), row, strings);
                }
            }
            Column::Dict { codes, dict } => {
                // the dictionary cast every distinct string once already
                for (row, &c) in codes.iter().enumerate() {
                    let cast = dict.numeric_key_of(c).map(f64::from_bits);
                    k.push_str(dict.str_of(c), cast, row, strings);
                }
            }
            Column::Item(v) => {
                for (row, item) in v.iter().enumerate() {
                    match item {
                        Item::Int(i) => k.num.push((*i as f64, row)),
                        Item::Dbl(d) => push_num(&mut k.num, *d, row),
                        Item::Bool(b) => k.num.push((*b as u8 as f64, row)),
                        Item::Str(s) => k.push_str(s, s.trim().parse().ok(), row, strings),
                        Item::Node(n) => k.nodes.push((*n, row)),
                    }
                }
            }
        }
        k
    }

    fn push_str(&mut self, s: &'a str, cast: Option<f64>, row: usize, strings: bool) {
        if let Some(x) = cast {
            push_num(&mut self.cast, x, row);
        }
        if strings {
            self.strs.push((s, row));
        }
    }
}

fn push_num(keys: &mut Keys<f64>, x: f64, row: usize) {
    keys.extend(comparable(x).map(|x| (x, row)));
}

/// The ranges of a key-sorted right class that satisfy `left op right` for
/// one left key — the one place the six operators' semantics live.  Right
/// keys below the equal run `lo..hi` are smaller, from `hi` on larger.
fn matching_ranges<K>(
    right: &[(K, usize)],
    key: &K,
    op: CmpOp,
    cmp: impl Fn(&K, &K) -> std::cmp::Ordering,
) -> [Range<usize>; 2] {
    use std::cmp::Ordering::{Equal, Less};
    let m = right.len();
    let lo = right.partition_point(|r| cmp(&r.0, key) == Less);
    let hi = lo + right[lo..].partition_point(|r| cmp(&r.0, key) == Equal);
    match op {
        CmpOp::Eq => [lo..hi, 0..0],
        CmpOp::Ne => [0..lo, hi..m],
        CmpOp::Lt => [hi..m, 0..0],
        CmpOp::Le => [lo..m, 0..0],
        CmpOp::Gt => [0..lo, 0..0],
        CmpOp::Ge => [0..hi, 0..0],
    }
}

/// One comparison class of [`theta_join`] / [`theta_join_counts`]: the left
/// and right keys of the class (in row order) and their total order.
trait ClassJoin {
    fn class<K: Copy>(
        &mut self,
        left: &[(K, usize)],
        right: &mut [(K, usize)],
        cmp: impl Fn(&K, &K) -> std::cmp::Ordering,
    );
}

/// Hand every comparison class of `left op right` to `join`: numbers meet
/// numbers and castable strings as doubles, two strings meet as strings (as
/// codes when both columns share one dictionary instance, whose code order
/// is string order), nodes meet nodes.  A (left, right) pair of items falls
/// into at most one class.
fn for_each_class(left: &Column, right: &Column, join: &mut impl ClassJoin) {
    let shared_codes = match (left.dict_parts(), right.dict_parts()) {
        (Some((lc, ld)), Some((rc, rd))) if Arc::ptr_eq(ld, rd) => Some((lc, rc)),
        _ => None,
    };
    let l = ThetaKeys::extract(left, shared_codes.is_none());
    let mut r = ThetaKeys::extract(right, shared_codes.is_none());
    // castable strings compare numerically with typed numbers only — two
    // strings always compare as strings
    join.class(&l.cast, &mut r.num, f64::total_cmp);
    r.num.append(&mut r.cast);
    join.class(&l.num, &mut r.num, f64::total_cmp);
    match shared_codes {
        Some((lc, rc)) => {
            let lk: Keys<u32> = lc.iter().copied().zip(0..).collect();
            let mut rk: Keys<u32> = rc.iter().copied().zip(0..).collect();
            join.class(&lk, &mut rk, u32::cmp);
        }
        None => join.class(&l.strs, &mut r.strs, |a, b| a.cmp(b)),
    }
    join.class(&l.nodes, &mut r.nodes, NodeId::cmp);
}

/// [`theta_join`]'s class join: sort the right keys once, then answer every
/// left key (in row order) with two binary searches and emit the matching
/// right rows in ascending row order.
struct PairJoin {
    op: CmpOp,
    out: JoinPairs,
    /// Classes that emitted a pair.
    classes: usize,
}

impl ClassJoin for PairJoin {
    fn class<K: Copy>(
        &mut self,
        left: &[(K, usize)],
        right: &mut [(K, usize)],
        cmp: impl Fn(&K, &K) -> std::cmp::Ordering,
    ) {
        if left.is_empty() || right.is_empty() {
            return;
        }
        right.sort_unstable_by(|a, b| cmp(&a.0, &b.0).then(a.1.cmp(&b.1)));
        // right rows already in key order: every key range is in row order too
        let row_ordered = right.windows(2).all(|w| w[0].1 < w[1].1);
        let out = &mut self.out;
        let before = out.0.len();
        for &(k, l) in left {
            let start = out.1.len();
            for range in matching_ranges(right, &k, self.op, &cmp) {
                out.1.extend(right[range].iter().map(|r| r.1));
            }
            // an equal-key run is sorted on the row already
            if !row_ordered && self.op != CmpOp::Eq {
                out.1[start..].sort_unstable();
            }
            out.0.resize(out.1.len(), l);
        }
        self.classes += (out.0.len() > before) as usize;
    }
}

/// Sort-merge theta join evaluating `left[i] op right[j]` with exactly the
/// semantics of [`Item::compare`] (incomparable pairs and NaN never match):
/// the pair list of [`theta_join_nested`], in the same `(left, right)` index
/// order, in `O((n + m) log m + output)`.
///
/// The keys of each side are extracted once into typed vectors, one per
/// comparison class (see `for_each_class`).
pub fn theta_join(left: &Column, right: &Column, op: CmpOp) -> JoinPairs {
    let mut join = PairJoin {
        op,
        out: (Vec::new(), Vec::new()),
        classes: 0,
    };
    for_each_class(left, right, &mut join);
    let mut out = join.out;
    if join.classes > 1 {
        // each class emitted in (left, right) order; interleave them
        let mut pairs: Vec<(usize, usize)> = out.0.into_iter().zip(out.1).collect();
        pairs.sort_unstable();
        out = pairs.into_iter().unzip();
    }
    out
}

/// [`theta_join_counts`]' class join: sort the right keys once and add the
/// length of every left key's matching ranges to its row's count.
struct CountJoin {
    op: CmpOp,
    counts: Vec<usize>,
}

impl ClassJoin for CountJoin {
    fn class<K: Copy>(
        &mut self,
        left: &[(K, usize)],
        right: &mut [(K, usize)],
        cmp: impl Fn(&K, &K) -> std::cmp::Ordering,
    ) {
        if left.is_empty() || right.is_empty() {
            return;
        }
        right.sort_unstable_by(|a, b| cmp(&a.0, &b.0));
        for &(k, l) in left {
            let ranges = matching_ranges(right, &k, self.op, &cmp);
            self.counts[l] += ranges.into_iter().map(|r| r.len()).sum::<usize>();
        }
    }
}

/// Per left row, the number of right rows [`theta_join`] pairs it with —
/// `count` over a theta join without building the pairs: one sort of the
/// right keys per comparison class and a rank lookup per left key,
/// `O((n + m) log m)` whatever the output size.
pub fn theta_join_counts(left: &Column, right: &Column, op: CmpOp) -> Vec<usize> {
    let mut join = CountJoin {
        op,
        counts: vec![0; left.len()],
    };
    for_each_class(left, right, &mut join);
    join.counts
}

/// The min/max push-down of the existential theta join (Figure 8(b)): the
/// rows of `items` that decide an existential `<`/`<=` (`take_min` on the
/// left side, `!take_min` on the right) or `>`/`>=` comparison for their
/// `iter` group — per group and comparison class of [`theta_join`] the row
/// holding the smallest (`take_min`) or largest key.  Some pair of two
/// groups satisfies the comparison iff a pair of their candidates does, so
/// joining the candidates alone yields every qualifying group pair (a group
/// holding several classes contributes one candidate per class).  Rows are
/// returned ascending; `iter` need not be sorted.
pub fn minmax_candidates(iter: &[i64], items: &Column, take_min: bool) -> Vec<usize> {
    if iter.windows(2).all(|w| w[0] < w[1]) {
        // single-valued groups: every row is its group's only candidate
        return (0..iter.len()).collect();
    }
    let mut keys = ThetaKeys::extract(items, true);
    let sorted = iter.windows(2).all(|w| w[0] <= w[1]);
    let mut rows = Vec::new();
    let mut extremes = Extremes {
        iter,
        sorted,
        take_min,
        rows: &mut rows,
    };
    extremes.of(&mut keys.num, f64::total_cmp);
    extremes.of(&mut keys.cast, f64::total_cmp);
    extremes.of(&mut keys.strs, |a, b| a.cmp(b));
    extremes.of(&mut keys.nodes, NodeId::cmp);
    rows.sort_unstable();
    rows.dedup();
    rows
}

struct Extremes<'a> {
    iter: &'a [i64],
    sorted: bool,
    take_min: bool,
    rows: &'a mut Vec<usize>,
}

impl Extremes<'_> {
    /// Append the extreme row of every `iter` group of one key class.
    fn of<K: Copy>(&mut self, keys: &mut [(K, usize)], cmp: impl Fn(&K, &K) -> std::cmp::Ordering) {
        let iter = self.iter;
        if !self.sorted {
            keys.sort_by_key(|&(_, row)| iter[row]);
        }
        let wanted = if self.take_min {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Greater
        };
        let mut keys = keys.iter();
        let Some(&(mut best, mut best_row)) = keys.next() else {
            return;
        };
        for &(k, row) in keys {
            if iter[row] != iter[best_row] {
                self.rows.push(best_row);
                (best, best_row) = (k, row);
            } else if cmp(&k, &best) == wanted {
                (best, best_row) = (k, row);
            }
        }
        self.rows.push(best_row);
    }
}

/// Positional lookup on any ascending key column: calls
/// `hit(probe_row, key_row)` for every probe whose value occurs in `keys`,
/// in probe order (a duplicated key reports its first row).  Dense keys —
/// the `iter`/`pos`/`inner` columns the compiler numbers itself — are
/// answered by address computation (Section 4.1); otherwise ascending
/// probes merge against the keys, and unordered probes binary-search them.
/// No hash table in either case.
pub fn lookup_sorted(keys: &[i64], probes: &[i64], mut hit: impl FnMut(usize, usize)) {
    let Some(&base) = keys.first() else {
        return;
    };
    let dense = keys
        .iter()
        .zip(0..)
        .all(|(&k, i)| base.checked_add(i) == Some(k));
    if dense {
        for (p, &v) in probes.iter().enumerate() {
            // a probe below `base` wraps to a huge offset
            let off = v.wrapping_sub(base) as u64;
            if off < keys.len() as u64 {
                hit(p, off as usize);
            }
        }
    } else if probes.windows(2).all(|w| w[0] <= w[1]) {
        let mut k = 0;
        for (p, &v) in probes.iter().enumerate() {
            while k < keys.len() && keys[k] < v {
                k += 1;
            }
            if k == keys.len() {
                break;
            }
            if keys[k] == v {
                hit(p, k);
            }
        }
    } else {
        for (p, &v) in probes.iter().enumerate() {
            let k = keys.partition_point(|&x| x < v);
            if k < keys.len() && keys[k] == v {
                hit(p, k);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_join_preserves_left_order() {
        let left = vec![1, 2, 2, 3];
        let right = vec![2, 1, 2];
        let (l, r) = hash_join_items(&Column::Int(left), &Column::Int(right));
        // key 3 has no partner; output stays ordered by the left row index and,
        // within one left row, by the right insertion order.
        assert_eq!(l, vec![0, 1, 1, 2, 2]);
        assert_eq!(r, vec![1, 0, 2, 0, 2]);
    }

    #[test]
    fn hash_join_items_numeric_string_match() {
        let left = Column::from_items(vec![Item::Int(10), Item::str("abc")]);
        let right = Column::from_items(vec![Item::str("10"), Item::str("abc")]);
        let (l, r) = hash_join_items(&left, &right);
        assert_eq!(l, vec![0, 1]);
        assert_eq!(r, vec![0, 1]);
    }

    #[test]
    fn radix_join_matches_reference_on_mixed_items() {
        let left = Column::from_items(vec![
            Item::Int(10),
            Item::str("abc"),
            Item::Dbl(f64::NAN),
            Item::str("3.5"),
            Item::Bool(true),
        ]);
        let right = Column::from_items(vec![
            Item::str("10"),
            Item::str("abc"),
            Item::Dbl(f64::NAN),
            Item::Dbl(3.5),
            Item::Bool(true),
            Item::Int(10),
        ]);
        let (rl, rr) = radix_hash_join(&left, &right);
        let (hl, hr) = hash_join_items(&left, &right);
        assert_eq!((rl, rr), (hl, hr), "identical pairs in identical order");
    }

    #[test]
    fn radix_join_shared_dictionary_code_path() {
        use crate::dict::Dictionary;
        let (lcodes, dict) = Dictionary::encode(["item", "person", "item"]);
        let (rcodes, _) = Dictionary::encode(["person", "item"]);
        // re-encode the right side against the *same* dictionary instance
        let rcodes: Vec<u32> = rcodes
            .iter()
            .map(|_| 0)
            .zip(["person", "item"])
            .map(|(_, s)| dict.code_of(s).unwrap())
            .collect();
        let left = Column::Dict {
            codes: lcodes,
            dict: dict.clone(),
        };
        let right = Column::Dict {
            codes: rcodes,
            dict: dict.clone(),
        };
        let (rl, rr) = radix_hash_join(&left, &right);
        let (hl, hr) = hash_join_items(&left, &right);
        assert_eq!((rl, rr), (hl, hr));
    }

    #[test]
    fn radix_join_dict_with_numeric_strings_normalises() {
        // "10" must join Int(10) even when the left side is dictionary
        // encoded — the code-to-code fast path must not kick in here.
        let left = Column::dict_from_strings(["10", "abc"]);
        let right = Column::from_items(vec![Item::Int(10), Item::str("abc")]);
        let (l, r) = radix_hash_join(&left, &right);
        assert_eq!(l, vec![0, 1]);
        assert_eq!(r, vec![0, 1]);
    }

    #[test]
    fn radix_join_shared_numeric_dictionary_matches_reference() {
        use crate::dict::Dictionary;
        // a mixed dictionary: ids and numeric strings side by side, with two
        // distinct entries ("10" / "10.0") that normalise to the same number
        let dict = Dictionary::new(["person0", "10", "10.0", "3.5", "abc"]);
        let enc =
            |rows: &[&str]| -> Vec<u32> { rows.iter().map(|s| dict.code_of(s).unwrap()).collect() };
        let left = Column::Dict {
            codes: enc(&["person0", "10", "3.5", "abc"]),
            dict: dict.clone(),
        };
        let right = Column::Dict {
            codes: enc(&["10.0", "person0", "person0", "3.5", "10"]),
            dict: dict.clone(),
        };
        let (rl, rr) = radix_hash_join(&left, &right);
        let (hl, hr) = hash_join_items(&left, &right);
        assert_eq!((rl, rr), (hl, hr), "identical pairs in identical order");
    }

    #[test]
    fn theta_join_lt() {
        let left = Column::Int(vec![1, 5]);
        let right = Column::Int(vec![2, 6]);
        let (l, r) = theta_join_nested(&left, &right, CmpOp::Lt);
        assert_eq!(l, vec![0, 0, 1]);
        assert_eq!(r, vec![0, 1, 1]);
    }

    const ALL_OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    #[test]
    fn theta_join_matches_nested_on_mixed_items() {
        let node = |pre| Item::Node(NodeId::new(1, pre));
        let left = Column::from_items(vec![
            Item::Int(3),
            Item::str("10"),
            Item::str("abc"),
            Item::Dbl(f64::NAN),
            Item::Dbl(-0.0),
            Item::Bool(true),
            node(7),
            Item::str(" 3 "),
        ]);
        let right = Column::from_items(vec![
            Item::str("9"),
            Item::Dbl(3.0),
            node(7),
            Item::Int(0),
            Item::str("abc"),
            Item::Bool(false),
            Item::str("NaN"),
            node(2),
            Item::Int(10),
        ]);
        for op in ALL_OPS {
            assert_eq!(
                theta_join(&left, &right, op),
                theta_join_nested(&left, &right, op),
                "op {op:?}"
            );
        }
    }

    #[test]
    fn theta_join_shared_dictionary_compares_codes_as_strings() {
        // "10" < "9" as strings: two untyped values never compare as numbers
        let dict = crate::dict::Dictionary::new(["9", "10", "b", "a"]);
        let enc = |rows: &[&str]| Column::Dict {
            codes: rows.iter().map(|s| dict.code_of(s).unwrap()).collect(),
            dict: dict.clone(),
        };
        let (left, right) = (enc(&["10", "b", "9"]), enc(&["9", "a", "10", "9"]));
        for op in ALL_OPS {
            assert_eq!(
                theta_join(&left, &right, op),
                theta_join_nested(&left, &right, op),
                "op {op:?}"
            );
        }
        assert_eq!(theta_join(&left, &right, CmpOp::Lt).0, vec![0, 0, 0, 2]);
    }

    #[test]
    fn theta_join_counts_rank_dictionary_strings_against_doubles() {
        // Q11's shape: untyped incomes (dictionary strings, one of them not
        // a number) against typed doubles holding NaN and -0
        let left = Column::dict_from_strings(["40000", "abc", "9999.5", "0"]);
        let right = Column::Dbl(vec![5000.0, 10000.0, f64::NAN, 40000.0, -0.0]);
        for op in ALL_OPS {
            let mut expected = vec![0; left.len()];
            theta_join(&left, &right, op)
                .0
                .iter()
                .for_each(|&row| expected[row] += 1);
            assert_eq!(theta_join_counts(&left, &right, op), expected, "op {op:?}");
        }
        assert_eq!(
            theta_join_counts(&left, &right, CmpOp::Gt),
            vec![3, 0, 2, 0]
        );
    }

    #[test]
    fn minmax_candidates_keep_one_extreme_per_class() {
        // iteration 1 holds "10" and "9": the string maximum is "9", the
        // numeric maximum "10" — both decide some comparison
        let iter = [1, 1, 2, 2, 2];
        let items = Column::from_items(vec![
            Item::str("10"),
            Item::str("9"),
            Item::Int(4),
            Item::Dbl(f64::NAN),
            Item::Int(6),
        ]);
        assert_eq!(minmax_candidates(&iter, &items, false), vec![0, 1, 4]);
        assert_eq!(minmax_candidates(&iter, &items, true), vec![0, 1, 2]);
        // unsorted iter groups are found all the same
        assert_eq!(
            minmax_candidates(&[2, 1, 2], &Column::Int(vec![5, 1, 7]), false),
            vec![1, 2]
        );
    }

    #[test]
    fn lookup_sorted_dense_merge_and_search_agree() {
        let collect = |keys: &[i64], probes: &[i64]| {
            let mut hits = Vec::new();
            lookup_sorted(keys, probes, |p, k| hits.push((p, k)));
            hits
        };
        // dense keys: address computation, out-of-range probes miss
        assert_eq!(
            collect(&[3, 4, 5], &[5, 2, 3, 6, i64::MIN]),
            vec![(0, 2), (2, 0)]
        );
        // sparse keys, ascending probes (merge) and unordered probes (search)
        assert_eq!(
            collect(&[2, 5, 9], &[1, 2, 2, 6, 9]),
            vec![(1, 0), (2, 0), (4, 2)]
        );
        assert_eq!(collect(&[2, 5, 9], &[9, 1, 5, 7]), vec![(0, 2), (2, 1)]);
        assert!(collect(&[], &[1]).is_empty());
    }
}
