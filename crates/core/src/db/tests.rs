//! Unit tests of the `db` surface: sessions, prepared statements, the plan
//! cache, the update read set and group-commit poisoning.

use super::commit::latch_scope;
use super::plan_cache::{CompiledStatement, PlanCache, ShapeKey};
use super::*;
use crate::durability::{DurabilityError, DurabilityOptions};
use crate::parser::parse_statement;
use crate::pul::UpdatePlan;
use mxq_engine::Item;

fn db_with(xml: &str) -> Arc<Database> {
    let db = Arc::new(Database::new());
    db.load_document("doc.xml", xml).unwrap();
    db
}

#[test]
fn database_and_prepared_are_shareable() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
    assert_send_sync::<Prepared>();
    assert_send_sync::<QueryResult>();
    assert_send_sync::<StoreSnapshot>();
}

#[test]
fn session_executes_queries_and_updates_through_one_entry_point() {
    let db = db_with("<a><b/></a>");
    let mut s = db.session();
    let r = s.execute("count(doc(\"doc.xml\")/a/b)").unwrap();
    assert_eq!(r.as_query().unwrap().serialize(), "1");
    let r = s
        .execute("insert nodes <b/> as last into doc(\"doc.xml\")/a")
        .unwrap();
    assert!(r.is_update());
    let r = s.execute("count(doc(\"doc.xml\")/a/b)").unwrap();
    assert_eq!(r.as_query().unwrap().serialize(), "2");
    assert_eq!(s.stats().queries, 2);
    assert_eq!(s.stats().updates, 1);
}

#[test]
fn plan_cache_serves_repeated_executions() {
    let db = db_with("<a><b/><b/></a>");
    let mut s = db.session();
    let q = "count(doc(\"doc.xml\")/a/b)";
    for _ in 0..5 {
        assert_eq!(s.query(q).unwrap().serialize(), "2");
    }
    let stats = db.stats();
    assert_eq!(stats.prepares, 1, "compiled once");
    assert_eq!(stats.plan_cache_hits, 4);
    assert_eq!(stats.plan_cache_misses, 1);
    assert!(stats.plan_cache_hit_rate().unwrap() > 0.7);
    // a different config fingerprint compiles separately
    let mut naive = db.session_with_config(ExecConfig::naive());
    assert_eq!(naive.query(q).unwrap().serialize(), "2");
    assert_eq!(db.stats().prepares, 2);
}

#[test]
fn plan_cache_never_shared_across_execution_affecting_config() {
    // Configs differing in ONE switch must not share a cached plan, even
    // a switch that changes only how a statement executes.
    let db = db_with("<a><b/><b/></a>");
    let q = "count(doc(\"doc.xml\")/a/b)";
    let mut base = db.session();
    assert_eq!(base.query(q).unwrap().serialize(), "2");
    let prepares_before = db.stats().prepares;
    let mut iterative = db.session_with_config(ExecConfig {
        loop_lifted_child: false,
        ..ExecConfig::default()
    });
    assert_eq!(iterative.query(q).unwrap().serialize(), "2");
    assert_eq!(
        db.stats().prepares,
        prepares_before + 1,
        "a one-switch difference must miss the plan cache"
    );
    // and re-running the config hits its own cached plan
    assert_eq!(iterative.query(q).unwrap().serialize(), "2");
    assert_eq!(db.stats().prepares, prepares_before + 1);
}

#[test]
fn prepared_external_variables_bind_per_execution() {
    let db = db_with("<a><v>1</v><v>2</v><v>3</v></a>");
    let mut s = db.session();
    let stmt = s
        .prepare(
            "declare variable $min external; \
             count(for $v in doc(\"doc.xml\")/a/v where $v/text() >= $min return $v)",
        )
        .unwrap();
    assert_eq!(stmt.external_variables(), ["min"]);
    assert!(!stmt.is_update());
    let r = stmt.bind("min", 2).query().unwrap();
    assert_eq!(r.serialize(), "2");
    let r = stmt.bind("min", 99).query().unwrap();
    assert_eq!(r.serialize(), "0");
    assert_eq!(stmt.executions(), 2);
    // unbound without default is an execution-time error
    assert!(matches!(stmt.execute(), Err(Error::Exec(_))));
}

#[test]
fn external_variable_defaults_apply_when_unbound() {
    let db = db_with("<a/>");
    let mut s = db.session();
    let stmt = s
        .prepare("declare variable $x external := 7; $x * 2")
        .unwrap();
    assert_eq!(
        stmt.execute().unwrap().into_query().unwrap().serialize(),
        "14"
    );
    assert_eq!(stmt.bind("x", 5).query().unwrap().serialize(), "10");
}

#[test]
fn prepared_snapshot_invalidated_by_updates() {
    let db = db_with("<a><b/></a>");
    let mut s = db.session();
    let stmt = s.prepare("count(doc(\"doc.xml\")//b)").unwrap();
    assert_eq!(
        stmt.execute().unwrap().into_query().unwrap().serialize(),
        "1"
    );
    // repeated executions without intervening writes reuse the snapshot
    assert_eq!(
        stmt.execute().unwrap().into_query().unwrap().serialize(),
        "1"
    );
    assert_eq!(stmt.revalidations(), 0);
    s.execute_update("insert nodes <b/> as last into doc(\"doc.xml\")/a")
        .unwrap();
    // the generation moved: the cached snapshot is dropped, not read
    assert_eq!(
        stmt.execute().unwrap().into_query().unwrap().serialize(),
        "2"
    );
    assert_eq!(stmt.revalidations(), 1);
}

#[test]
fn results_stream_and_pin_their_snapshot() {
    let db = db_with("<a><v>1</v><v>2</v></a>");
    let mut s = db.session();
    let result = s.query("doc(\"doc.xml\")/a/v").unwrap();
    // mutate after the result was produced: the result must not change
    s.execute_update("delete nodes doc(\"doc.xml\")/a/v[1]")
        .unwrap();
    let stream = result.into_stream();
    assert_eq!(stream.len(), 2);
    let rendered: Vec<String> = {
        let mut out = Vec::new();
        let mut stream = stream;
        while let Some(item) = stream.next() {
            out.push(stream.serialize_item(&item));
        }
        out
    };
    assert_eq!(rendered, ["<v>1</v>", "<v>2</v>"]);
    // streaming entry point
    let items: Vec<Item> = s
        .execute_streaming("doc(\"doc.xml\")/a/v/text()")
        .unwrap()
        .collect();
    assert_eq!(items.len(), 1);
}

#[test]
fn wrong_statement_kind_is_reported() {
    let db = db_with("<a/>");
    let mut s = db.session();
    assert!(matches!(
        s.query("delete nodes doc(\"doc.xml\")/a/b"),
        Err(Error::WrongStatementKind { expected: "query" })
    ));
    assert!(matches!(
        s.execute_update("1 + 1"),
        Err(Error::WrongStatementKind { expected: "update" })
    ));
}

#[test]
fn plan_cache_evicts_least_recently_used() {
    let mut cache = PlanCache::new(2);
    let key = |t: &str| ShapeKey::new(0, parse_statement(t).unwrap());
    let stmt = |t: &str| {
        Arc::new(CompiledStatement::Update {
            plan: UpdatePlan {
                statements: Vec::new(),
            },
            externals: vec![t.to_string()],
        })
    };
    cache.insert(key("a"), stmt("a"));
    cache.insert(key("b"), stmt("b"));
    assert!(cache.get(&key("a")).is_some()); // a is now more recent than b
    cache.insert(key("c"), stmt("c"));
    assert_eq!(cache.len(), 2);
    assert!(cache.get(&key("b")).is_none(), "b was evicted");
    assert!(cache.get(&key("a")).is_some());
    assert!(cache.get(&key("c")).is_some());
    // the fingerprint is part of the key
    assert!(cache
        .get(&ShapeKey::new(1, parse_statement("a").unwrap()))
        .is_none());
}

#[test]
fn update_read_set_includes_documents_it_only_reads() {
    let db = db_with("<a><v>1</v></a>"); // loads doc.xml
    db.load_document("other.xml", "<b><w>2</w></b>").unwrap();
    let mut s = db.session();
    let prepared = s
        .prepare(
            "replace value of node doc(\"doc.xml\")/a/v \
             with string(doc(\"other.xml\")/b/w)",
        )
        .unwrap();
    let CompiledStatement::Update { plan, .. } = &*prepared.compiled else {
        panic!("expected an update statement");
    };
    let snap = db.snapshot();
    let (pul, reads) = db
        .evaluate_update_pul(plan, ExecConfig::default(), &Params::new(), &snap)
        .unwrap();
    let a = db.store().lookup("doc.xml").unwrap();
    let b = db.store().lookup("other.xml").unwrap();
    assert_eq!(pul.fragments(), vec![a], "only doc.xml is written");
    assert!(
        reads.contains(&b),
        "read-only document missing from the read set: {reads:?}"
    );
    // the latch scope commits take is the sorted union of both sets
    let scope = latch_scope(&pul.fragments(), &reads);
    assert!(scope.contains(&a) && scope.contains(&b));
    assert!(scope.windows(2).all(|w| w[0] < w[1]), "scope is ascending");
}

#[test]
fn failed_group_fsync_poisons_the_log_and_rolls_back_the_record() {
    let dir = std::env::temp_dir().join(format!("mxq-db-poison-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let opts = DurabilityOptions {
        sync: mxq_wal::SyncPolicy::GroupCommit(std::time::Duration::from_micros(100)),
        memory_budget: None,
        checkpoint_interval: None,
    };
    let db = Arc::new(Database::open_with(&dir, opts).unwrap());
    db.load_document("doc.xml", "<a><v>0</v></a>").unwrap();
    let mut s = db.session();
    s.execute("replace value of node doc(\"doc.xml\")/a/v with \"1\"")
        .unwrap();
    assert!(!db.stats().wal_poisoned);
    let durable = db.durable.clone().unwrap();
    let watermark = durable.wal.lock().unwrap().len();
    durable.wal.lock().unwrap().inject_sync_failures(1);

    // the leader of the failing batch gets the underlying I/O error...
    let err = s
        .execute("replace value of node doc(\"doc.xml\")/a/v with \"2\"")
        .unwrap_err();
    assert!(
        matches!(err, Error::Durability(DurabilityError::Wal(_))),
        "leader error: {err:?}"
    );
    // ...the failed record is truncated back out to the durable
    // watermark, and the log is poisoned
    assert_eq!(durable.wal.lock().unwrap().len(), watermark);
    assert!(db.stats().wal_poisoned);

    // every later durable commit fails closed with Poisoned
    let err = s
        .execute("replace value of node doc(\"doc.xml\")/a/v with \"3\"")
        .unwrap_err();
    assert!(
        matches!(err, Error::Durability(DurabilityError::Poisoned)),
        "post-poison error: {err:?}"
    );
    assert_eq!(durable.wal.lock().unwrap().len(), watermark);

    // failed updates were never published: reads still see "1"
    let r = s.execute("string(doc(\"doc.xml\")/a/v)").unwrap();
    assert_eq!(r.as_query().unwrap().serialize(), "1");

    drop(s);
    drop(durable);
    drop(db);

    // reopen: only the acknowledged commit replays, the log is clean
    // again, and commits work
    let db = Arc::new(Database::open_with(&dir, opts).unwrap());
    assert!(!db.stats().wal_poisoned);
    let mut s = db.session();
    let r = s.execute("string(doc(\"doc.xml\")/a/v)").unwrap();
    assert_eq!(r.as_query().unwrap().serialize(), "1");
    s.execute("replace value of node doc(\"doc.xml\")/a/v with \"4\"")
        .unwrap();
    let r = s.execute("string(doc(\"doc.xml\")/a/v)").unwrap();
    assert_eq!(r.as_query().unwrap().serialize(), "4");
    drop(s);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
