//! Integration test: the 20 XMark queries run end-to-end on a generated
//! auction document, and the relational engine agrees with the naive
//! DOM-walking interpreter on every one of them, under every optimizer
//! configuration.

use mxq::xmark::gen::{generate_xml, GenParams};
use mxq::xmark::naive::NaiveInterpreter;
use mxq::xmark::queries::{query_text, QUERY_IDS};
use mxq::xmldb::DocStore;
use mxq::xquery::{Database, ExecConfig};
use std::sync::Arc;

/// Scale factor: `MXQ_SCALE` when set (the CI page-scan smoke job runs at
/// 0.01), else the quick default.
fn factor() -> f64 {
    match std::env::var("MXQ_SCALE") {
        Ok(raw) if !raw.trim().is_empty() => raw
            .trim()
            .parse()
            .expect("MXQ_SCALE must be a positive number"),
        _ => 0.001,
    }
}

fn auction_xml() -> &'static str {
    use std::sync::OnceLock;
    static XML: OnceLock<String> = OnceLock::new();
    XML.get_or_init(|| generate_xml(&GenParams::with_factor(factor())))
}

fn naive_result(query: &str) -> String {
    let mut store = DocStore::new();
    store.load_xml("auction.xml", auction_xml()).unwrap();
    let snap = store.snapshot();
    let mut naive = NaiveInterpreter::new(&snap);
    let items = naive.run(query).expect("naive evaluation");
    naive.serialize(&items)
}

fn engine_result(query: &str, config: ExecConfig) -> String {
    let db = Arc::new(Database::new());
    db.load_document("auction.xml", auction_xml()).unwrap();
    db.session_with_config(config)
        .query(query)
        .expect("relational evaluation")
        .serialize()
        .to_string()
}

#[test]
fn all_xmark_queries_run_and_produce_nontrivial_results() {
    let db = Arc::new(Database::new());
    db.load_document("auction.xml", auction_xml()).unwrap();
    let mut session = db.session();
    for id in QUERY_IDS {
        let r = session
            .query(query_text(id))
            .unwrap_or_else(|e| panic!("Q{id} failed: {e}"));
        // every query has a well-defined (possibly empty) result; most are non-empty
        if ![1, 3, 4].contains(&id) {
            assert!(
                !r.is_empty(),
                "Q{id} unexpectedly returned the empty sequence"
            );
        }
    }
}

#[test]
fn relational_engine_matches_naive_interpreter_on_all_queries() {
    for id in QUERY_IDS {
        let q = query_text(id);
        let expected = naive_result(q);
        let got = engine_result(q, ExecConfig::default());
        assert_eq!(got, expected, "Q{id} differs between engines");
    }
}

#[test]
fn optimizations_do_not_change_results() {
    let configs = [
        ("naive", ExecConfig::naive()),
        (
            "no-join-recognition",
            ExecConfig {
                join_recognition: false,
                ..ExecConfig::default()
            },
        ),
        (
            "no-order-awareness",
            ExecConfig {
                order_aware: false,
                ..ExecConfig::default()
            },
        ),
        (
            "no-nametest-pushdown",
            ExecConfig {
                nametest_pushdown: false,
                ..ExecConfig::default()
            },
        ),
        (
            "no-minmax-existential",
            ExecConfig {
                existential_minmax: false,
                ..ExecConfig::default()
            },
        ),
    ];
    // the join queries and a representative sample of the rest
    for id in [1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 19, 20] {
        let q = query_text(id);
        let reference = engine_result(q, ExecConfig::default());
        for (name, cfg) in configs {
            let got = engine_result(q, cfg);
            assert_eq!(got, reference, "Q{id} differs under config `{name}`");
        }
    }
}
