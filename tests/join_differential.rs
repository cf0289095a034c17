//! Differential test harness for the equi-join rewrite: the
//! radix-partitioned hash join (`radix_hash_join`, the production join of
//! the kernel) is run against the original single-table hash join
//! (`hash_join_items`, kept as the reference implementation) over generated
//! adversarial inputs, asserting **identical pair sets in identical order**
//! for every configuration — and both against `Item::compare`, pair by pair:
//! NaN joins nothing (not even a NaN of the same bit pattern) and `-0`
//! joins `+0`, exactly as in the theta join:
//!
//! * integer key columns (dense and colliding domains);
//! * polymorphic item columns mixing integers, doubles (including NaN bit
//!   patterns, signed zeros and infinities), numeric strings (which must
//!   join their numeric equals under XQuery general-comparison
//!   normalisation) and plain strings;
//! * dictionary-encoded columns sharing one dictionary instance (the
//!   code-to-code fast path), sharing a dictionary that contains numeric
//!   strings (which must *disable* the code fast path), and encoded against
//!   two separate dictionaries;
//! * a dictionary-encoded column joined against a plain string column.
//!
//! Both joins emit pairs ordered by `(left, right)` row index, so the
//! assertions compare exact outputs, which subsumes pair-set equality.
//!
//! The second half does the same for the non-equi join: the sort-merge
//! `theta_join` against the nested loop over `Item::compare`
//! (`theta_join_nested`, the reference), for all six operators, over every
//! column representation — polymorphic items (ints, doubles incl. NaN, ±0
//! and ±inf, numeric and non-numeric strings, booleans, nodes, duplicates),
//! the monomorphic variants, dictionary-encoded strings with shared and
//! separate dictionaries, and empty sides — asserting identical pairs in
//! the documented `(left, right)` order; checks that the rank count
//! (`theta_join_counts`, the kernel of `count(⋈)`) is, per left row, the
//! number of pairs `theta_join` emits for it, on the same inputs; and checks
//! that the min/max push-down (`minmax_candidates`) loses no qualifying
//! pair of groups.

use proptest::prelude::*;

use mxq::engine::join::{
    hash_join_items, minmax_candidates, radix_hash_join, theta_join, theta_join_counts,
    theta_join_nested,
};
use mxq::engine::{CmpOp, Column, Dictionary, Item, NodeId};

/// What the equi-join must decide for one pair: `Item::compare` equality —
/// NaN equals nothing, `-0` equals `+0`, a boolean is its number — except
/// that two untyped strings that both cast to a number meet as numbers
/// (`"10"` joins `"10.0"`; the general-comparison normalisation of the join).
fn equi_join_matches(a: &Item, b: &Item) -> bool {
    let number = |s: &str| s.trim().parse::<f64>().ok().filter(|d| !d.is_nan());
    match (a, b) {
        (Item::Str(x), Item::Str(y)) => match (number(x), number(y)) {
            (Some(p), Some(q)) => p == q,
            (None, None) => x == y,
            _ => false,
        },
        _ => a.compare(CmpOp::Eq, b),
    }
}

/// Assert the radix join and the reference join produce the same pairs,
/// and exactly the pairs `Item::compare` semantics call equal.
fn assert_joins_agree(left: &Column, right: &Column, what: &str) {
    let (rl, rr) = radix_hash_join(left, right);
    let (hl, hr) = hash_join_items(left, right);
    // exact equality (both joins emit in (left, right) order); sorting the
    // zipped pairs first would only mask an ordering regression
    assert_eq!(rl, hl, "{what}: left indices differ");
    assert_eq!(rr, hr, "{what}: right indices differ");
    let mut expected = (Vec::new(), Vec::new());
    for l in 0..left.len() {
        for r in 0..right.len() {
            if equi_join_matches(&left.item(l), &right.item(r)) {
                expected.0.push(l);
                expected.1.push(r);
            }
        }
    }
    assert_eq!(
        (&rl, &rr),
        (&expected.0, &expected.1),
        "{what}: not the pairs that compare equal"
    );
    // also check both directions: swapping sides must swap the pair set
    let (sl, sr) = radix_hash_join(right, left);
    let mut forward: Vec<(usize, usize)> = rl.into_iter().zip(rr).collect();
    let mut swapped: Vec<(usize, usize)> = sr.into_iter().zip(sl).collect();
    forward.sort_unstable();
    swapped.sort_unstable();
    assert_eq!(forward, swapped, "{what}: join is not symmetric");
}

/// Strategy for one polymorphic item drawn from a deliberately small, nasty
/// domain: colliding integers, NaN-bit doubles, signed zeros, numeric
/// strings that normalise onto the same numeric keys, and plain strings.
fn arb_item() -> impl Strategy<Value = Item> {
    prop_oneof![
        (0i64..6).prop_map(Item::Int),
        prop::sample::select(vec![
            Item::Dbl(0.0),
            Item::Dbl(-0.0),
            Item::Dbl(2.5),
            Item::Dbl(f64::NAN),
            Item::Dbl(f64::INFINITY),
            Item::Dbl(f64::NEG_INFINITY),
        ]),
        prop::sample::select(vec![
            Item::str("0"),
            Item::str("2.5"),
            Item::str(" 3 "),
            Item::str("10"),
        ]),
        "[a-c]{1,2}".prop_map(Item::str),
        any::<bool>().prop_map(Item::Bool),
    ]
}

/// Non-numeric vocabulary (tag-name shaped): the shared-dictionary join must
/// take the code-to-code path.
const WORDS: [&str; 6] = [
    "item",
    "person",
    "open_auction",
    "name",
    "keyword",
    "bidder",
];

/// Vocabulary containing numeric strings: the code fast path must yield to
/// the normalising path ("10" joins integer 10, "2.5" joins double 2.5).
const MIXED: [&str; 6] = ["item", "10", "2.5", "person", " 3 ", "name"];

fn dict_column_over(vocab: &[&str], picks: Vec<usize>) -> (Vec<u32>, std::sync::Arc<Dictionary>) {
    let dict = Dictionary::new(vocab.iter().copied());
    let codes = picks.into_iter().map(|p| (p % dict.len()) as u32).collect();
    (codes, dict)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn int_columns_agree(
        left in prop::collection::vec(0i64..8, 0..40),
        right in prop::collection::vec(0i64..8, 0..40),
    ) {
        assert_joins_agree(&Column::Int(left), &Column::Int(right), "int columns");
    }

    #[test]
    fn mixed_item_columns_agree(
        left in prop::collection::vec(arb_item(), 0..40),
        right in prop::collection::vec(arb_item(), 0..40),
    ) {
        assert_joins_agree(
            &Column::Item(left),
            &Column::Item(right),
            "mixed item columns",
        );
    }

    #[test]
    fn shared_dictionary_columns_agree(
        lp in prop::collection::vec(0usize..64, 0..40),
        rp in prop::collection::vec(0usize..64, 0..40),
    ) {
        // both sides encoded against the SAME dictionary instance — this is
        // the code-to-code fast path of the radix join
        let (lcodes, dict) = dict_column_over(&WORDS, lp);
        let rcodes: Vec<u32> = rp.into_iter().map(|p| (p % dict.len()) as u32).collect();
        let left = Column::Dict { codes: lcodes, dict: dict.clone() };
        let right = Column::Dict { codes: rcodes, dict };
        assert_joins_agree(&left, &right, "shared dictionary");
    }

    #[test]
    fn shared_numeric_dictionary_columns_agree(
        lp in prop::collection::vec(0usize..64, 0..40),
        rp in prop::collection::vec(0usize..64, 0..40),
    ) {
        // the shared dictionary contains numeric strings, so the join must
        // fall back to normalised keys (code equality ≠ join equality here)
        let (lcodes, dict) = dict_column_over(&MIXED, lp);
        let rcodes: Vec<u32> = rp.into_iter().map(|p| (p % dict.len()) as u32).collect();
        let left = Column::Dict { codes: lcodes, dict: dict.clone() };
        let right = Column::Dict { codes: rcodes, dict };
        assert_joins_agree(&left, &right, "shared numeric dictionary");
    }

    #[test]
    fn separate_dictionary_columns_agree(
        lp in prop::collection::vec(0usize..64, 0..40),
        rp in prop::collection::vec(0usize..64, 0..40),
    ) {
        // overlapping vocabularies, but distinct dictionary instances: the
        // radix join must not assume code compatibility
        let (lcodes, ldict) = dict_column_over(&WORDS, lp);
        let (rcodes, rdict) = dict_column_over(&MIXED, rp);
        let left = Column::Dict { codes: lcodes, dict: ldict };
        let right = Column::Dict { codes: rcodes, dict: rdict };
        assert_joins_agree(&left, &right, "separate dictionaries");
    }

    #[test]
    fn dict_vs_plain_string_columns_agree(
        lp in prop::collection::vec(0usize..64, 0..40),
        right in prop::collection::vec(arb_item(), 0..40),
    ) {
        let (codes, dict) = dict_column_over(&MIXED, lp);
        let left = Column::Dict { codes, dict };
        assert_joins_agree(&left, &Column::Item(right), "dict vs item column");
    }
}

proptest! {
    // fewer cases, bigger columns: the build side crosses the adaptive
    // partitioning threshold, so the genuinely multi-partition code path is
    // under differential test too (not just the single-table degenerate)
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn large_columns_exercise_partitioning(
        left in prop::collection::vec(arb_item(), 600..1200),
        right in prop::collection::vec(arb_item(), 600..1200),
    ) {
        assert_joins_agree(
            &Column::Item(left),
            &Column::Item(right),
            "large mixed columns",
        );
    }
}

#[test]
fn numeric_string_normalisation_crosses_representations() {
    // pin the exact semantics the differential harness relies on: a
    // dictionary "10" joins Int(10) and Dbl(10.0); NaN joins nothing, not
    // even itself; -0 joins +0; a boolean joins its number
    let left = Column::dict_from_strings(["10", "2.5", "abc"]);
    let right = Column::from_items(vec![
        Item::Int(10),
        Item::Dbl(2.5),
        Item::str("abc"),
        Item::Dbl(f64::NAN),
    ]);
    let (l, r) = radix_hash_join(&left, &right);
    assert_eq!(l, vec![0, 1, 2]);
    assert_eq!(r, vec![0, 1, 2]);

    let nan = Column::from_items(vec![Item::Dbl(f64::NAN), Item::str("NaN")]);
    for join in [radix_hash_join, hash_join_items] {
        // only the two *strings* "NaN" are equal (as strings)
        assert_eq!(join(&nan, &nan), (vec![1], vec![1]), "NaN = NaN is false");
        let zeros = Column::from_items(vec![Item::Dbl(-0.0), Item::str("-0"), Item::Bool(false)]);
        let (l, r) = join(&zeros, &Column::Dbl(vec![0.0]));
        assert_eq!((l, r), (vec![0, 1, 2], vec![0, 0, 0]), "-0 = +0 = false()");
    }
}

#[test]
fn empty_inputs_join_to_nothing() {
    let empty = Column::empty_item();
    let nonempty = Column::Int(vec![1, 2, 3]);
    for (a, b) in [(&empty, &nonempty), (&nonempty, &empty), (&empty, &empty)] {
        let (l, r) = radix_hash_join(a, b);
        assert!(l.is_empty() && r.is_empty());
    }
}

// ---------------------------------------------------------------------------
// theta join: sort-merge on typed keys vs. the nested loop over Item::compare
// ---------------------------------------------------------------------------

const ALL_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// Assert the sort-merge theta join reproduces the nested loop exactly —
/// same pairs, same `(left, right)` order — for every operator.
fn assert_theta_agrees(left: &Column, right: &Column, what: &str) {
    for op in ALL_OPS {
        let fast = theta_join(left, right, op);
        let reference = theta_join_nested(left, right, op);
        assert_eq!(
            fast, reference,
            "{what}: `{op}` differs from the nested loop"
        );
        let pairs: Vec<(usize, usize)> = fast.0.iter().copied().zip(fast.1).collect();
        assert!(
            pairs.windows(2).all(|w| w[0] < w[1]),
            "{what}: `{op}` output is not in strict (left, right) order"
        );
    }
}

/// Assert the rank count equals, per left row, the number of pairs the
/// theta join emits for it — for every operator.
fn assert_counts_agree(left: &Column, right: &Column, what: &str) {
    for op in ALL_OPS {
        let mut expected = vec![0; left.len()];
        for l in theta_join(left, right, op).0 {
            expected[l] += 1;
        }
        assert_eq!(
            theta_join_counts(left, right, op),
            expected,
            "{what}: `{op}` counts differ from the pairs"
        );
    }
}

/// [`arb_item`] plus nodes of two fragments: every comparison class of
/// `Item::value_cmp`, with duplicates and incomparable neighbours.
fn arb_theta_item() -> impl Strategy<Value = Item> {
    prop_oneof![
        arb_item(),
        (0u32..2, 0u32..4).prop_map(|(frag, pre)| Item::Node(NodeId::new(frag, pre))),
    ]
}

/// The same rows in one of the column representations the executor hands
/// to the join (rows a monomorphic variant cannot hold are converted the way
/// the variant would have stored them).
fn column_as(items: Vec<Item>, repr: usize) -> Column {
    let strings = || items.iter().map(Item::string_value);
    match repr % 8 {
        0 => Column::Item(items),
        1 => Column::from_items(items),
        2 => Column::Int(items.iter().filter_map(Item::as_int).collect()),
        3 => Column::Dbl(
            items
                .iter()
                .map(|i| i.as_number().unwrap_or(f64::NAN))
                .collect(),
        ),
        4 => Column::Str(strings().map(Into::into).collect()),
        5 => Column::dict_from_strings(strings()),
        6 => Column::Bool(items.iter().map(Item::effective_boolean).collect()),
        _ => Column::Node(items.iter().filter_map(Item::as_node).collect()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn theta_join_matches_nested_loop_on_every_representation(
        left in prop::collection::vec(arb_theta_item(), 0..30),
        right in prop::collection::vec(arb_theta_item(), 0..30),
        lrepr in 0usize..8,
        rrepr in 0usize..8,
    ) {
        assert_theta_agrees(
            &column_as(left, lrepr),
            &column_as(right, rrepr),
            &format!("representations {lrepr} x {rrepr}"),
        );
    }

    #[test]
    fn theta_join_over_dictionaries_matches_nested_loop(
        lp in prop::collection::vec(0usize..64, 0..30),
        rp in prop::collection::vec(0usize..64, 0..30),
        right in prop::collection::vec(arb_theta_item(), 0..30),
    ) {
        // a shared dictionary holding numeric strings: codes must compare
        // as strings ("10" < "2.5"), never as numbers
        let (lcodes, dict) = dict_column_over(&MIXED, lp.clone());
        let rcodes: Vec<u32> = rp.iter().map(|p| (p % dict.len()) as u32).collect();
        let left = Column::Dict { codes: lcodes, dict: dict.clone() };
        assert_theta_agrees(&left, &Column::Dict { codes: rcodes, dict }, "shared dictionary");
        // separate dictionary instances: codes are not comparable
        let (rcodes, rdict) = dict_column_over(&WORDS, rp);
        assert_theta_agrees(&left, &Column::Dict { codes: rcodes, dict: rdict }, "separate dictionaries");
        // untyped dictionary strings against typed and mixed items
        assert_theta_agrees(&left, &Column::Item(right.clone()), "dict vs items");
        assert_theta_agrees(&Column::Item(right), &left, "items vs dict");
    }

    #[test]
    fn theta_join_counts_match_the_pairs_on_every_representation(
        left in prop::collection::vec(arb_theta_item(), 0..30),
        right in prop::collection::vec(arb_theta_item(), 0..30),
        lrepr in 0usize..8,
        rrepr in 0usize..8,
    ) {
        assert_counts_agree(
            &column_as(left, lrepr),
            &column_as(right, rrepr),
            &format!("representations {lrepr} x {rrepr}"),
        );
    }

    #[test]
    fn theta_join_counts_match_the_pairs_over_dictionaries(
        lp in prop::collection::vec(0usize..64, 0..30),
        rp in prop::collection::vec(0usize..64, 0..30),
        right in prop::collection::vec(arb_theta_item(), 0..30),
    ) {
        let (lcodes, dict) = dict_column_over(&MIXED, lp);
        let rcodes: Vec<u32> = rp.iter().map(|p| (p % dict.len()) as u32).collect();
        let left = Column::Dict { codes: lcodes, dict: dict.clone() };
        assert_counts_agree(&left, &Column::Dict { codes: rcodes, dict }, "shared dictionary");
        let (rcodes, rdict) = dict_column_over(&WORDS, rp);
        assert_counts_agree(&left, &Column::Dict { codes: rcodes, dict: rdict }, "separate dictionaries");
        assert_counts_agree(&left, &Column::Item(right.clone()), "dict vs items");
        assert_counts_agree(&Column::Item(right), &left, "items vs dict");
    }

    #[test]
    fn minmax_pushdown_loses_no_group_pair(
        left in prop::collection::vec((0i64..5, arb_theta_item()), 0..30),
        right in prop::collection::vec((0i64..5, arb_theta_item()), 0..30),
        lrepr in 0usize..2,
        rrepr in 0usize..2,
        sorted in any::<bool>(),
    ) {
        // rows grouped by an iter column (sorted or not): joining only the
        // per-group min/max candidates must find exactly the group pairs
        // the full join finds
        let split = |mut rows: Vec<(i64, Item)>, repr: usize| {
            if sorted {
                rows.sort_by_key(|(iter, _)| *iter);
            }
            let (iter, items): (Vec<i64>, Vec<Item>) = rows.into_iter().unzip();
            (iter, column_as(items, repr))
        };
        let (l_iter, l_col) = split(left, lrepr);
        let (r_iter, r_col) = split(right, rrepr);
        let group_pairs = |pairs: (Vec<usize>, Vec<usize>), lrows: &[usize], rrows: &[usize]| {
            let mut groups: Vec<(i64, i64)> = pairs
                .0
                .iter()
                .zip(&pairs.1)
                .map(|(&a, &b)| (l_iter[lrows[a]], r_iter[rrows[b]]))
                .collect();
            groups.sort_unstable();
            groups.dedup();
            groups
        };
        let all_l: Vec<usize> = (0..l_iter.len()).collect();
        let all_r: Vec<usize> = (0..r_iter.len()).collect();
        for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            let left_min = matches!(op, CmpOp::Lt | CmpOp::Le);
            let lrows = minmax_candidates(&l_iter, &l_col, left_min);
            let rrows = minmax_candidates(&r_iter, &r_col, !left_min);
            prop_assert!(lrows.windows(2).all(|w| w[0] < w[1]));
            let reduced = theta_join(&l_col.gather(&lrows), &r_col.gather(&rrows), op);
            let full = theta_join_nested(&l_col, &r_col, op);
            prop_assert_eq!(
                group_pairs(reduced, &lrows, &rrows),
                group_pairs(full, &all_l, &all_r),
                "`{}` group pairs differ", op
            );
        }
    }
}

proptest! {
    // fewer cases, bigger columns: long key runs, many duplicates
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn theta_join_matches_nested_loop_on_large_columns(
        left in prop::collection::vec(arb_theta_item(), 200..400),
        right in prop::collection::vec(arb_theta_item(), 200..400),
    ) {
        assert_theta_agrees(&Column::Item(left), &Column::Item(right), "large mixed columns");
    }
}

#[test]
fn theta_join_semantics_are_pinned() {
    // an untyped string meets a number numerically, two strings meet as
    // strings, a non-numeric string and NaN meet nothing, -0 equals +0
    let left = Column::from_items(vec![
        Item::str("10"),
        Item::str("abc"),
        Item::Dbl(f64::NAN),
        Item::Dbl(-0.0),
    ]);
    let right = Column::from_items(vec![Item::Int(9), Item::str("9"), Item::Dbl(0.0)]);
    let (l, r) = theta_join(&left, &right, CmpOp::Gt);
    assert_eq!((l, r), (vec![0, 0, 1], vec![0, 2, 1]));
    let (l, r) = theta_join(&left, &right, CmpOp::Eq);
    assert_eq!((l, r), (vec![3], vec![2]));
    let (l, _) = theta_join(&left, &right, CmpOp::Ne);
    assert!(!l.contains(&2), "NaN != x is false under value comparison");
}

#[test]
fn theta_join_of_empty_sides_is_empty() {
    let empty = Column::empty_item();
    let nonempty = Column::Int(vec![1, 2, 3]);
    for op in ALL_OPS {
        for (a, b) in [(&empty, &nonempty), (&nonempty, &empty), (&empty, &empty)] {
            let (l, r) = theta_join(a, b, op);
            assert!(l.is_empty() && r.is_empty());
            assert_eq!(theta_join_counts(a, b, op), vec![0; a.len()]);
        }
    }
}
