//! The paper's ablation shapes as exact work counters over XMark Q1–Q20.
//!
//! Figure 12: the iterative staircase join (one document scan per
//! iteration, no name-test push-down) scans more nodes than the default
//! loop-lifted one.  Figure 14: without order awareness the executor sorts
//! more often than the default.  Both sides count work the engine reports
//! in `ExecStats` (`staircase.nodes_scanned`, `sorts`), so the shapes hold
//! exactly, whatever the machine's speed.
//!
//! `MXQ_SCALE` sets the XMark scale factor (default 0.01).

use std::sync::Arc;

use mxq::xmark::gen::{generate_xml, GenParams};
use mxq::xmark::queries::{query_text, QUERY_IDS};
use mxq::xquery::{Database, ExecConfig, ExecStats};

fn factor() -> f64 {
    match std::env::var("MXQ_SCALE") {
        Ok(raw) if !raw.trim().is_empty() => raw.trim().parse().expect("MXQ_SCALE"),
        _ => 0.01,
    }
}

/// The summed runtime statistics of Q1–Q20 under `config`.
fn xmark_stats(db: &Arc<Database>, config: ExecConfig) -> Vec<ExecStats> {
    let mut session = db.session_with_config(config);
    QUERY_IDS
        .into_iter()
        .map(|id| {
            let (_, report) = session
                .query_with_report(query_text(id))
                .unwrap_or_else(|e| panic!("Q{id}: {e}"));
            report.stats
        })
        .collect()
}

fn xmark_db() -> Arc<Database> {
    let db = Arc::new(Database::new());
    let xml = generate_xml(&GenParams::with_factor(factor()));
    db.load_document("auction.xml", &xml).expect("load");
    db
}

#[test]
fn fig12_iterative_scans_more_nodes_than_loop_lifted() {
    let db = xmark_db();
    let iterative = ExecConfig {
        loop_lifted_child: false,
        loop_lifted_descendant: false,
        nametest_pushdown: false,
        ..ExecConfig::default()
    };
    let scanned =
        |stats: Vec<ExecStats>| -> u64 { stats.iter().map(|s| s.staircase.nodes_scanned).sum() };
    let (iterative, default) = (
        scanned(xmark_stats(&db, iterative)),
        scanned(xmark_stats(&db, ExecConfig::default())),
    );
    assert!(
        iterative > default,
        "iterative scans {iterative} nodes, loop-lifted {default}"
    );
}

#[test]
fn fig14_order_unaware_sorts_more_than_order_aware() {
    let db = xmark_db();
    let unaware = ExecConfig {
        order_aware: false,
        ..ExecConfig::default()
    };
    let sorts = |stats: Vec<ExecStats>| -> u64 { stats.iter().map(|s| s.sorts).sum() };
    let (unaware, default) = (
        sorts(xmark_stats(&db, unaware)),
        sorts(xmark_stats(&db, ExecConfig::default())),
    );
    assert!(
        unaware > default,
        "order-unaware sorts {unaware} times, order-aware {default}"
    );
}
