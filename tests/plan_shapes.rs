//! The plan cache is keyed by statement *shape*: a text's literals are
//! lifted into parameter slots, texts that differ only in those constants
//! share one compiled plan, and each execution fills the slots with its own
//! values.  These tests hold the shape cache to three promises:
//!
//! * a shape-cached execution is byte-identical to an uncached compile of
//!   the same text (literals inline, run by an `Executor` directly) and to
//!   the naive configuration — and runs the same operators as the uncached
//!   plan;
//! * literals the compiler consumes structurally (`doc()` names, positional
//!   predicates, `subsequence` bounds) and the literal type are part of the
//!   shape, so such texts never share a plan;
//! * the counters say so: N texts of k shapes are k prepares and N − k hits.

use std::sync::Arc;

use mxq::engine::Item;
use mxq::xmark::gen::{generate_xml, GenParams};
use mxq::xmark::queries::{query_text, QUERY_IDS};
use mxq::xquery::algebra::{ConstItems, Op};
use mxq::xquery::{
    serialize_items_snapshot, Database, Error, ExecConfig, ExecError, ExecStats, Executor, Params,
    PlanRef, Session,
};

/// XMark scale factor: `MXQ_SCALE` when set, else a small default.
fn factor() -> f64 {
    match std::env::var("MXQ_SCALE") {
        Ok(raw) if !raw.trim().is_empty() => raw.trim().parse().expect("MXQ_SCALE"),
        _ => 0.0005,
    }
}

fn xmark_db() -> Arc<Database> {
    let db = Arc::new(Database::new());
    db.load_document(
        "auction.xml",
        &generate_xml(&GenParams::with_factor(factor())),
    )
    .unwrap();
    db
}

/// The query_surface document.
const SHOP: &str = r#"<shop>
  <staff><employee id="e1" dept="sales"><name>Ann</name><salary>50000</salary></employee>
         <employee id="e2" dept="it"><name>Bob</name><salary>65000</salary></employee>
         <employee id="e3" dept="sales"><name>Cyd</name></employee></staff>
  <sales><sale by="e1" amount="120"/><sale by="e1" amount="80"/><sale by="e3" amount="200"/></sales>
  <note lang="en">year <b>2006</b> report</note>
</shop>"#;

/// The text compiled without the cache (literals inline) and run by an
/// executor directly: the serialized result and the runtime counters.
fn uncached(session: &Session, text: &str) -> (String, ExecStats) {
    let plan = session.compile(text).unwrap();
    let snap = session.database().snapshot();
    let mut exec = Executor::with_params(&snap, session.config(), Params::new());
    let items = exec.eval_result(&plan).unwrap();
    let (transient, stats) = exec.finish();
    (serialize_items_snapshot(&snap, &transient, &items), stats)
}

/// Run interleaved texts of several shapes through one session per
/// configuration; every result must match the uncached compile of its own
/// text and the naive configuration.
fn check_interleaved(db: &Arc<Database>, texts: &[String]) {
    let mut session = db.session();
    let mut naive = db.session_with_config(ExecConfig::naive());
    for text in texts {
        let (result, report) = session
            .query_with_report(text)
            .unwrap_or_else(|e| panic!("{text}: {e}"));
        let got = result.serialize();
        let (want, stats) = uncached(&session, text);
        assert_eq!(got, want, "shape-cached vs uncached: {text}");
        let ran = |s: &ExecStats| {
            (
                s.ops_evaluated,
                s.rows_materialized,
                s.sorts,
                s.sorts_avoided,
                s.join_pairs,
            )
        };
        assert_eq!(
            ran(&report.stats),
            ran(&stats),
            "the shape-cached plan must run the operators a fresh compile runs: {text}"
        );
        let naive_result = naive.query(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(got, naive_result.serialize(), "default vs naive: {text}");
    }
    let stats = session.stats();
    assert!(
        stats.plan_cache_hits > 0,
        "interleaved variants must hit the shape cache"
    );
}

/// Deterministic literal source (no registry crates offline).
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }
}

/// The six `adhoc` templates of the benchmark, each with a random literal.
fn adhoc_texts(count: usize, seed: u64) -> Vec<String> {
    let mut rng = Lcg(seed);
    (0..count)
        .map(|i| {
            let mut lit = |lo: u64, hi: u64| format!("{}.{:05}", lo + rng.below(hi - lo), i);
            match i % 6 {
                0 => format!(
                    "count(doc(\"auction.xml\")/site/closed_auctions/closed_auction[price >= {}])",
                    lit(5, 500)
                ),
                1 => format!(
                    "for $a in doc(\"auction.xml\")/site/open_auctions/open_auction \
                     where $a/current > {} return $a/current/text()",
                    lit(1, 400)
                ),
                2 => format!(
                    "for $p in doc(\"auction.xml\")/site/people/person \
                     where $p/profile/@income > {} return $p/name/text()",
                    lit(9_000, 250_000)
                ),
                3 => format!(
                    "count(doc(\"auction.xml\")/site/regions//item[quantity >= {}])",
                    lit(0, 5)
                ),
                4 => format!(
                    "for $a in doc(\"auction.xml\")/site/open_auctions/open_auction \
                     where $a/initial < {} return <cheap id=\"{{$a/@id}}\">{{$a/initial/text()}}</cheap>",
                    lit(1, 300)
                ),
                _ => format!(
                    "let $b := doc(\"auction.xml\")/site/open_auctions/open_auction/bidder \
                     return count($b[increase > {}])",
                    lit(5, 14)
                ),
            }
        })
        .collect()
}

/// An XMark query with its liftable literals changed: person ids shift by
/// `k`, numbers outside positional predicates by `7k` (integers) or `k/2`
/// (decimals).  `k = 0` is the query itself.
fn perturb(text: &str, k: u32) -> String {
    let chars: Vec<char> = text.chars().collect();
    let mut out = String::new();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '"' {
            let end = i + 1 + chars[i + 1..].iter().position(|&d| d == '"').unwrap();
            let s: String = chars[i + 1..end].iter().collect();
            let s = match s.strip_prefix("person").map(str::parse::<u32>) {
                Some(Ok(n)) => format!("person{}", n + k),
                _ => s,
            };
            out.push_str(&format!("\"{s}\""));
            i = end + 1;
            continue;
        }
        let prev = out.chars().last().unwrap_or(' ');
        if c.is_ascii_digit() && !(prev.is_alphanumeric() || "_.$-".contains(prev)) {
            let end = i + chars[i..]
                .iter()
                .position(|d| !(d.is_ascii_digit() || *d == '.'))
                .unwrap_or(chars.len() - i);
            let lit: String = chars[i..end].iter().collect();
            let positional = out.trim_end().ends_with('[');
            if positional {
                out.push_str(&lit);
            } else if lit.contains('.') {
                out.push_str(&format!("{}", lit.parse::<f64>().unwrap() + k as f64 / 2.0));
            } else {
                out.push_str(&format!("{}", lit.parse::<i64>().unwrap() + 7 * k as i64));
            }
            i = end;
            continue;
        }
        out.push(c);
        i += 1;
    }
    out
}

#[test]
fn adhoc_templates_agree_with_uncached_compiles_and_the_naive_config() {
    let db = xmark_db();
    check_interleaved(&db, &adhoc_texts(36, 7));
}

#[test]
fn xmark_variants_agree_with_uncached_compiles_and_the_naive_config() {
    assert_eq!(
        perturb("x[1] > 40 and \"person3\" = 2.5", 2),
        "x[1] > 54 and \"person5\" = 3.5"
    );
    let db = xmark_db();
    let texts: Vec<String> = (0..3)
        .flat_map(|k| QUERY_IDS.iter().map(move |&q| perturb(query_text(q), k)))
        .collect();
    check_interleaved(&db, &texts);
}

#[test]
fn query_surface_variants_agree_with_uncached_compiles_and_the_naive_config() {
    // `@@` marks the literal each variant replaces
    let templates: &[(&str, &[&str])] = &[
        ("2 + @@ * 4 - 1", &["3", "7", "0", "2.5"]),
        ("if (@@) then 1 else 2", &["0", "1", "\"x\"", "\"\""]),
        (
            "doc(\"shop.xml\")//employee[@id = \"@@\"]/name/text()",
            &["e1", "e2", "e3", "e9"],
        ),
        ("(3, 1, 2)[@@]", &["1", "2", "3"]),
        ("(9, 4, 7)[. > @@]", &["3", "5", "8"]),
        (
            "doc(\"shop.xml\")//sale/@amount > @@",
            &["50", "150", "250"],
        ),
        (
            "doc(\"shop.xml\")//salary/text() = @@",
            &["50000", "65000", "1"],
        ),
        (
            "for $e in doc(\"shop.xml\")//employee where $e/salary > @@ \
             order by $e/salary/text() descending return $e/name/text()",
            &["1", "55000", "99999"],
        ),
        (
            "sum(doc(\"shop.xml\")//sale/@amount) div @@",
            &["2", "8", "2.5"],
        ),
        ("substring(\"staircase\", @@)", &["1", "6", "9"]),
        ("subsequence((1, 2, 3, 4, 5), @@, 3)", &["1", "2"]),
        (
            "some $s in doc(\"shop.xml\")//sale satisfies $s/@amount > @@",
            &["150", "10", "500"],
        ),
        ("<wrap n=\"{@@}\">{@@ + 1}</wrap>", &["1", "41", "2.5"]),
        (
            "count(doc(\"shop.xml\")//employee[@dept = \"@@\"])",
            &["sales", "it", "hr"],
        ),
        (
            "for $s in doc(\"shop.xml\")//sale \
             order by $s/@by, number($s/@amount) * @@ return $s/@amount",
            &["1", "-1"],
        ),
        (
            "string-join(doc(\"shop.xml\")//name/text(), \"@@\")",
            &[", ", "-", ""],
        ),
        (
            "for $e at $i in doc(\"shop.xml\")//employee return concat($i, \"@@\", $e/@id)",
            &[":", "="],
        ),
        (
            "(10, 20, 30)[@@]",
            &["1 + 1", "2 + 1", "0 + 1", "2.0", "\"a\""],
        ),
        (
            "doc(\"shop.xml\")//employee[@@]/@id",
            &["2.0", "3.0", "\"x\""],
        ),
        (
            "declare variable $x external := @@; $x * 2",
            &["7", "8", "2.5"],
        ),
        (
            "declare function local:f($x) { $x * @@ }; local:f(21)",
            &["2", "3"],
        ),
        ("translate(\"abcabc\", \"@@\", \"xy\")", &["ab", "ba"]),
        (
            "for $i in (1, 3) return doc(\"shop.xml\")//employee[$i + @@]/@id",
            &["0", "1", "-1"],
        ),
    ];
    let rounds = templates.iter().map(|(_, v)| v.len()).max().unwrap();
    let texts: Vec<String> = (0..rounds)
        .flat_map(|round| {
            templates
                .iter()
                .filter_map(move |(t, values)| values.get(round).map(|v| t.replace("@@", v)))
        })
        .collect();
    let db = Arc::new(Database::new());
    db.load_document("shop.xml", SHOP).unwrap();
    check_interleaved(&db, &texts);
}

#[test]
fn structural_literals_and_literal_types_never_share_a_plan() {
    let db = Arc::new(Database::new());
    db.load_document("a.xml", "<r><v>A1</v><v>A2</v><v>A3</v></r>")
        .unwrap();
    db.load_document("b.xml", "<r><v>B1</v></r>").unwrap();
    let mut s = db.session();
    let cases = [
        ("doc(\"a.xml\")/r/v[1]/text()", "A1"),
        ("doc(\"b.xml\")/r/v[1]/text()", "B1"),
        ("doc(\"a.xml\")/r/v[2]/text()", "A2"),
        ("doc(\"a.xml\")/r/v[position() = 3]/text()", "A3"),
        ("doc(\"a.xml\")/r/v[position() = 1]/text()", "A1"),
        ("subsequence(doc(\"a.xml\")/r/v, 2)/text()", "A2A3"),
        ("subsequence(doc(\"a.xml\")/r/v, 1, 1)/text()", "A1"),
        ("subsequence(doc(\"a.xml\")/r/v, 1, 2)/text()", "A1A2"),
        // the literal's type is part of the shape: a string predicate is an
        // EBV test, a decimal one a position test
        ("doc(\"a.xml\")/r/v[\"2\"]/text()", "A1A2A3"),
        ("doc(\"a.xml\")/r/v[2.0]/text()", "A2"),
        ("5", "5"),
        ("5.0", "5"),
        ("\"5\"", "5"),
    ];
    for (i, (text, want)) in cases.iter().enumerate() {
        assert_eq!(s.query(text).unwrap().serialize(), *want, "{text}");
        assert_eq!(
            db.stats().prepares,
            i as u64 + 1,
            "{text} must compile its own plan"
        );
    }
    assert_eq!(db.stats().plan_cache_hits, 0);
    assert_eq!(db.stats().plan_cache_len, cases.len());
    // explain and compile build their plan with the literals inline,
    // cached shape or not: the literal is a constant of the plan, not a slot
    let text = "count(doc(\"a.xml\")/r/v[. = \"A2\"])";
    assert_eq!(s.query(text).unwrap().serialize(), "1");
    fn holds_inline(p: &PlanRef, want: &str) -> bool {
        let inline = match &p.op {
            Op::ConstSeq {
                items: ConstItems::Inline(items),
                ..
            } => items
                .iter()
                .any(|i| matches!(i, Item::Str(s) if &**s == want)),
            _ => false,
        };
        inline || p.children().iter().any(|c| holds_inline(c, want))
    }
    assert!(holds_inline(&s.compile(text).unwrap(), "A2"));
}

#[test]
fn n_texts_of_k_shapes_are_k_prepares_and_n_minus_k_hits() {
    let db = xmark_db();
    let before = db.stats();
    let mut s = db.session();
    let texts = adhoc_texts(60, 11);
    for t in &texts {
        s.query(t).unwrap();
    }
    let after = db.stats();
    assert_eq!(after.prepares - before.prepares, 6);
    assert_eq!(after.plan_cache_misses - before.plan_cache_misses, 6);
    assert_eq!(after.plan_cache_hits - before.plan_cache_hits, 54);
    assert_eq!(after.plan_cache_len, 6);
    assert_eq!(
        (s.stats().plan_cache_hits, s.stats().plan_cache_misses),
        (54, 6)
    );
    // whitespace and comments are not part of the shape either
    s.query(&format!("  (: again :) {}", texts[0])).unwrap();
    assert_eq!(db.stats().prepares, after.prepares);
}

#[test]
fn prepared_statements_combine_external_variables_with_lifted_literals() {
    let db = Arc::new(Database::new());
    db.load_document("abc.xml", "<a><b>1</b><b>2</b><b>3</b></a>")
        .unwrap();
    let mut s = db.session();
    let text = |factor: u32| {
        format!(
            "declare variable $min external; \
             count(doc(\"abc.xml\")/a/b[. >= $min]) * {factor}"
        )
    };
    let tens = s.prepare(&text(10)).unwrap();
    let hundreds = s.prepare(&text(100)).unwrap();
    assert_eq!(db.stats().prepares, 1, "one shape, one compile");
    for stmt in [&tens, &hundreds] {
        assert_eq!(
            stmt.external_variables(),
            ["min"],
            "slots are not externals"
        );
    }
    assert_eq!(tens.bind("min", 2).query().unwrap().serialize(), "20");
    assert_eq!(hundreds.bind("min", 2).query().unwrap().serialize(), "200");
    assert_eq!(tens.bind("min", 4).query().unwrap().serialize(), "0");
    // no name reaches a parameter slot
    for name in ["0", "1", "#0", "$0", "slot0", "p0"] {
        assert!(
            matches!(
                tens.bind(name, 5).query(),
                Err(Error::Exec(ExecError::NotExternal(_)))
            ),
            "binding `{name}` must be rejected"
        );
    }
    assert!(matches!(
        tens.execute(),
        Err(Error::Exec(ExecError::UnboundVariable(_)))
    ));
    // the lifted literals belong to each handle, not to the shared plan
    assert_eq!(hundreds.bind("min", 1).query().unwrap().serialize(), "300");
}

#[test]
fn update_statements_share_a_plan_and_apply_their_own_values() {
    let db = Arc::new(Database::new());
    db.load_document("doc.xml", "<a><v>0</v><w/></a>").unwrap();
    let mut s = db.session();
    s.query("string(doc(\"doc.xml\")/a/v)").unwrap();
    let before = db.stats();
    for i in 0..5 {
        let value = format!("{}.37", 100 + i);
        s.execute_update(&format!(
            "replace value of node doc(\"doc.xml\")/a/v with \"{value}\""
        ))
        .unwrap();
        assert_eq!(
            s.query("string(doc(\"doc.xml\")/a/v)").unwrap().serialize(),
            value
        );
        s.execute_update(&format!(
            "insert nodes <n>{{ {i} * 2 }}</n> as last into doc(\"doc.xml\")/a/w"
        ))
        .unwrap();
        s.execute_update(&format!(
            "rename node doc(\"doc.xml\")/a/w/n[last()] as \"n{i}\""
        ))
        .unwrap();
    }
    let after = db.stats();
    assert_eq!(
        after.prepares - before.prepares,
        3,
        "one plan per update shape"
    );
    assert_eq!(
        s.query("doc(\"doc.xml\")/a/w").unwrap().serialize(),
        "<w><n0>0</n0><n1>2</n1><n2>4</n2><n3>6</n3><n4>8</n4></w>"
    );
}
