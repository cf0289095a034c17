//! The traced run: a fixed count of statements (or commits), one thread, in
//! which the benchmark itself calls the layer functions in sequence and
//! records a span around each call.  Counts therefore repeat exactly for a
//! seed; times are attributed by self time (span − children) and, for the
//! write path, by running the same commit stream on three databases and
//! taking differences.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use mxq_xmark::gen::generate_xml;
use mxq_xmldb::{shred, ShredOptions};
use mxq_xquery::{
    analysis, parse_statement, serialize_items_snapshot, Compiler, Database, DurabilityOptions,
    ExecConfig, ExecStats, Executor, Params, PlanRef, Statement as Parsed, SyncPolicy,
};

use crate::json::Json;
use crate::measure::{timed_query, Checks, RunOptions};
use crate::scratch::{dir_bytes, Scratch};
use crate::stats::{median, Digest};
use crate::trace::Tracer;
use crate::workloads::{Kind, Statement, UpdateStream, Workload};

/// Passes over the read statements in the traced run of `rw_durable`.
const READ_WRITE_TRACED_PASSES: usize = 20;

/// Name and unit of every per-layer metric, in print order.  Each is
/// reported on every workload; a layer the workload does not exercise
/// reports 0.  Per-statement values are means over the traced statements,
/// per-commit values over the traced commits.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("shred.ms", "ms"),
    ("shred.mb_per_s", "MB/s"),
    ("store.load.ms", "ms"),
    ("store.resident_bytes_per_xml_byte", "B/B"),
    ("durability.checkpoint_ms", "ms"),
    ("durability.cold_open_ms", "ms"),
    ("durability.disk_bytes_per_xml_byte", "B/B"),
    ("parser.us", "us"),
    ("compile.us", "us"),
    ("analysis.us", "us"),
    ("analysis.rewrites", "count"),
    ("frontend.share_pct", "%"),
    ("plan_cache.hit_ratio", "ratio"),
    ("plan_cache.prepares", "count"),
    ("plan_cache.overhead_us", "us"),
    ("exec.us", "us"),
    ("exec.share_pct", "%"),
    ("exec.rows_materialized", "count"),
    ("exec.peak_rows", "count"),
    ("exec.ops_evaluated", "count"),
    ("exec.sorts", "count"),
    ("exec.sorts_avoided", "count"),
    ("exec.waste_ratio", "ratio"),
    ("exec.ns_per_row", "ns"),
    ("engine.join_pairs", "count"),
    ("engine.proven_dict_joins", "count"),
    ("staircase.nodes_scanned", "count"),
    ("staircase.pages_skipped", "count"),
    ("staircase.useful_ratio", "ratio"),
    ("serialize.us", "us"),
    ("serialize.share_pct", "%"),
    ("serialize.mb_per_s", "MB/s"),
    ("update.apply_ms", "ms"),
    ("update.pages_touched", "count"),
    ("update.tuples_written", "count"),
    ("wal.append_ms", "ms"),
    ("wal.fsync_ms", "ms"),
    ("wal.bytes_per_commit", "B"),
    ("wal.fsyncs_per_commit", "count"),
    ("wal.latch_waits", "count"),
    ("wal.latch_conflicts", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.statements", "count"),
];

/// What a traced run produced.
pub struct Layers {
    values: HashMap<&'static str, f64>,
    pub checks: Checks,
    pub tracer: Tracer,
    /// Totals that must repeat exactly for a seed.
    pub counts: Json,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.values.insert(name, value);
    }

    /// Every per-layer metric with its unit, in [`PER_LAYER`] order.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, self.values.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Plans the layered path keeps between executions, standing in for the
/// database's plan cache on the workloads whose statements repeat.
type PlanMemo = HashMap<String, PlanRef>;

#[derive(Default)]
struct ReadTotals {
    statements: u64,
    compiled: u64,
    rewrites: u64,
    result_items: u64,
    serialized_bytes: u64,
    exec: ExecStats,
}

impl ReadTotals {
    fn add_exec(&mut self, s: &ExecStats) {
        let t = &mut self.exec;
        t.staircase.merge(&s.staircase);
        t.sorts += s.sorts;
        t.sorts_avoided += s.sorts_avoided;
        t.ops_evaluated += s.ops_evaluated;
        t.rows_materialized += s.rows_materialized;
        t.peak_rows = t.peak_rows.max(s.peak_rows);
        t.join_pairs += s.join_pairs;
        t.constructed_nodes += s.constructed_nodes;
        t.proven_dict_joins += s.proven_dict_joins;
    }
}

/// One read statement through the layers, exactly the calls
/// `Session::execute` + `QueryResult::serialize` make: `parse_statement`,
/// `Compiler::compile_query`, `analyze`/`verify`/`simplify` (skipped when
/// `memo` holds the plan), `Executor::eval_result`,
/// `serialize_items_snapshot`.
fn layered_query(
    tracer: &mut Tracer,
    db: &Database,
    memo: Option<&mut PlanMemo>,
    text: &str,
    stmt_id: u32,
    totals: &mut ReadTotals,
) -> Result<Digest, String> {
    let config = ExecConfig::default();
    let root = tracer.open("statement", stmt_id);
    let cached = memo.as_ref().and_then(|m| m.get(text).cloned());
    let plan = match cached {
        Some(plan) => plan,
        None => {
            let span = tracer.open("parser", stmt_id);
            let parsed = parse_statement(text);
            tracer.close(span);
            let Parsed::Query(query) = parsed.map_err(|e| e.to_string())? else {
                return Err(format!("`{text}` is not a query"));
            };

            let span = tracer.open("compile", stmt_id);
            let compiled = Compiler::new(config).compile_query(&query);
            tracer.close(span);
            let plan = compiled.map_err(|e| e.to_string())?;

            let span = tracer.open("analysis", stmt_id);
            let analyzed = (|| {
                let inferred = analysis::analyze(&plan);
                analysis::verify(&plan, &inferred)?;
                let simplified = analysis::simplify(&plan, &inferred);
                let inferred = analysis::analyze(&simplified.plan);
                analysis::verify(&simplified.plan, &inferred)?;
                Ok::<_, mxq_xquery::PlanViolation>(simplified)
            })();
            tracer.close(span);
            let simplified = analyzed.map_err(|e| e.to_string())?;

            totals.compiled += 1;
            totals.rewrites += simplified.rewrites.len() as u64;
            if let Some(memo) = memo {
                memo.insert(text.to_string(), simplified.plan.clone());
            }
            simplified.plan
        }
    };

    let span = tracer.open("exec", stmt_id);
    let snapshot = db.snapshot();
    let mut executor = Executor::with_params(&snapshot, config, Params::new());
    let evaluated = executor.eval_result(&plan);
    let (transient, stats) = executor.finish();
    tracer.close(span);
    let items = evaluated.map_err(|e| e.to_string())?;

    let span = tracer.open("serialize", stmt_id);
    let serialized = serialize_items_snapshot(&snapshot, &transient, &items);
    tracer.close(span);
    tracer.close(root);

    totals.statements += 1;
    totals.result_items += items.len() as u64;
    totals.serialized_bytes += serialized.len() as u64;
    totals.add_exec(&stats);
    Ok(Digest::of(items.len(), &serialized))
}

/// The statements the traced run executes, in order.
fn traced_statements(workload: &Workload, seed: u64) -> Vec<Statement> {
    let statements = workload.read_statements(seed);
    match workload.kind {
        Kind::Adhoc => statements[..workload.traced_units].to_vec(),
        Kind::Passes => repeat(&statements, workload.traced_units),
        Kind::ReadWrite => repeat(&statements, READ_WRITE_TRACED_PASSES),
    }
}

fn repeat(statements: &[Statement], passes: usize) -> Vec<Statement> {
    (0..passes)
        .flat_map(|_| statements.iter().cloned())
        .collect()
}

pub fn run(workload: &Workload, options: &RunOptions, scratch: &Scratch) -> Result<Layers, String> {
    let params = workload.gen_params(options.seed, options.quick);
    let xml = generate_xml(&params);
    let statements = traced_statements(workload, options.seed);
    let mut layers = Layers {
        values: HashMap::new(),
        checks: Checks::default(),
        tracer: Tracer::with_capacity(8 * statements.len() + 4 * workload.traced_units + 64),
        counts: Json::Obj(Vec::new()),
    };
    let mut counts = Vec::new();

    // -- set-up layers: shred, store.load ----------------------------------
    let db = Arc::new(Database::new());
    let root = layers.tracer.open("setup", 0);
    let span = layers.tracer.open("shred", 0);
    let shredded = shred(
        "auction.xml",
        &xml,
        &ShredOptions {
            document_node: true,
            ..ShredOptions::default()
        },
    );
    let shred_ns = layers.tracer.close(span) as f64;
    let span = layers.tracer.open("store.load", 0);
    let loaded = shredded
        .map_err(|e| e.to_string())
        .and_then(|doc| db.load_shredded(doc).map_err(|e| e.to_string()));
    let load_ns = layers.tracer.close(span) as f64;
    layers.tracer.close(root);
    loaded?;
    let xml_bytes = xml.len() as f64;
    layers.set("shred.ms", shred_ns / 1e6);
    layers.set("shred.mb_per_s", ratio(xml_bytes / 1e6, shred_ns / 1e9));
    layers.set("store.load.ms", load_ns / 1e6);
    let resident = db.store().resident_page_bytes();
    layers.set(
        "store.resident_bytes_per_xml_byte",
        resident as f64 / xml_bytes,
    );
    counts.push(("xml_bytes", Json::Int(xml.len() as i64)));
    counts.push(("resident_page_bytes", Json::Int(resident as i64)));

    // -- read path -----------------------------------------------------------
    let mut session = db.session();
    let cached_plans = workload.kind != Kind::Adhoc;
    if cached_plans {
        // warm the plan cache, as the measured run's set-up does
        for s in workload.read_statements(options.seed) {
            timed_query(&mut session, &s.text)?;
        }
    }

    // every statement runs three ways back to back — as a client calls it,
    // through the layers with recording off, and with recording on — in
    // rotating order, so a drift of the machine's speed during the run
    // falls on all three alike and coverage and overhead compare like
    // with like
    const CLIENT: usize = 0;
    const RECORDING: usize = 2;
    let before = db.stats();
    let mut elapsed_ns = [0.0f64; 3];
    let mut memos = [PlanMemo::new(), PlanMemo::new()];
    let mut both_totals = [ReadTotals::default(), ReadTotals::default()];
    for (i, s) in statements.iter().enumerate() {
        let mut digests = [None; 3];
        for turn in 0..3 {
            let way = (i + turn) % 3;
            digests[way] = Some(if way == CLIENT {
                let (ms, digest) = timed_query(&mut session, &s.text)?;
                elapsed_ns[way] += ms * 1e6;
                digest
            } else {
                layers.tracer.set_enabled(way == RECORDING);
                let started = Instant::now();
                let digest = layered_query(
                    &mut layers.tracer,
                    &db,
                    cached_plans.then_some(&mut memos[way - 1]),
                    &s.text,
                    i as u32 + 1,
                    &mut both_totals[way - 1],
                )?;
                elapsed_ns[way] += started.elapsed().as_nanos() as f64;
                digest
            });
        }
        layers
            .checks
            .expect(digests.iter().all(|d| *d == digests[CLIENT]), || {
                format!("{}: layered path and Session::execute disagree", s.label)
            });
    }
    layers.tracer.set_enabled(true);
    let [client_ns, unrecorded_ns, recorded_ns] = elapsed_ns;
    let [_, totals] = both_totals;
    let after = db.stats();
    let hits = after.plan_cache_hits - before.plan_cache_hits;
    let misses = after.plan_cache_misses - before.plan_cache_misses;
    layers.set(
        "plan_cache.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    layers.set(
        "plan_cache.prepares",
        (after.prepares - before.prepares) as f64,
    );

    // the read layers' span names occur nowhere else in the trace
    let self_ns = layers.tracer.self_time_by_name();
    let layer = |name: &str| self_ns.get(name).map_or(0.0, |&(ns, _)| ns as f64);
    let n = totals.statements as f64;
    let compiled = totals.compiled as f64;
    let front_end = layer("parser") + layer("compile") + layer("analysis");
    let in_layers = front_end + layer("exec") + layer("serialize");
    let traced_total = in_layers + layer("statement");
    layers.set("parser.us", ratio(layer("parser") / 1e3, compiled));
    layers.set("compile.us", ratio(layer("compile") / 1e3, compiled));
    layers.set("analysis.us", ratio(layer("analysis") / 1e3, compiled));
    layers.set("analysis.rewrites", ratio(totals.rewrites as f64, compiled));
    layers.set("frontend.share_pct", 100.0 * ratio(front_end, traced_total));
    layers.set("plan_cache.overhead_us", (client_ns - in_layers) / 1e3 / n);
    layers.set("exec.us", layer("exec") / 1e3 / n);
    layers.set("exec.share_pct", 100.0 * ratio(layer("exec"), traced_total));
    let exec = &totals.exec;
    layers.set("exec.rows_materialized", exec.rows_materialized as f64 / n);
    layers.set("exec.peak_rows", exec.peak_rows as f64);
    layers.set("exec.ops_evaluated", exec.ops_evaluated as f64 / n);
    layers.set("exec.sorts", exec.sorts as f64 / n);
    layers.set("exec.sorts_avoided", exec.sorts_avoided as f64 / n);
    layers.set(
        "exec.waste_ratio",
        ratio(exec.rows_materialized as f64, totals.result_items as f64),
    );
    layers.set(
        "exec.ns_per_row",
        ratio(layer("exec"), exec.rows_materialized as f64),
    );
    layers.set("engine.join_pairs", exec.join_pairs as f64 / n);
    layers.set(
        "engine.proven_dict_joins",
        exec.proven_dict_joins as f64 / n,
    );
    layers.set(
        "staircase.nodes_scanned",
        exec.staircase.nodes_scanned as f64 / n,
    );
    layers.set(
        "staircase.pages_skipped",
        exec.staircase.pages_skipped as f64 / n,
    );
    layers.set(
        "staircase.useful_ratio",
        ratio(
            exec.staircase.results as f64,
            exec.staircase.nodes_scanned as f64,
        ),
    );
    layers.set("serialize.us", layer("serialize") / 1e3 / n);
    layers.set(
        "serialize.share_pct",
        100.0 * ratio(layer("serialize"), traced_total),
    );
    layers.set(
        "serialize.mb_per_s",
        ratio(
            totals.serialized_bytes as f64 / 1e6,
            layer("serialize") / 1e9,
        ),
    );
    layers.set("trace.coverage", ratio(in_layers, client_ns));
    layers.set(
        "trace.overhead_pct",
        100.0 * ratio(recorded_ns - unrecorded_ns, unrecorded_ns),
    );
    layers.set("trace.statements", n);
    counts.extend([
        ("statements", Json::Int(totals.statements as i64)),
        ("compiled", Json::Int(totals.compiled as i64)),
        ("rewrites", Json::Int(totals.rewrites as i64)),
        ("result_items", Json::Int(totals.result_items as i64)),
        (
            "serialized_bytes",
            Json::Int(totals.serialized_bytes as i64),
        ),
        ("plan_cache_hits", Json::Int(hits as i64)),
        ("plan_cache_misses", Json::Int(misses as i64)),
        (
            "rows_materialized",
            Json::Int(exec.rows_materialized as i64),
        ),
        ("peak_rows", Json::Int(exec.peak_rows as i64)),
        ("ops_evaluated", Json::Int(exec.ops_evaluated as i64)),
        ("sorts", Json::Int(exec.sorts as i64)),
        ("sorts_avoided", Json::Int(exec.sorts_avoided as i64)),
        ("join_pairs", Json::Int(exec.join_pairs as i64)),
        (
            "proven_dict_joins",
            Json::Int(exec.proven_dict_joins as i64),
        ),
        (
            "constructed_nodes",
            Json::Int(exec.constructed_nodes as i64),
        ),
        (
            "staircase_nodes_scanned",
            Json::Int(exec.staircase.nodes_scanned as i64),
        ),
        (
            "staircase_contexts",
            Json::Int(exec.staircase.contexts as i64),
        ),
        (
            "staircase_results",
            Json::Int(exec.staircase.results as i64),
        ),
        ("staircase_passes", Json::Int(exec.staircase.passes as i64)),
        (
            "staircase_pages_skipped",
            Json::Int(exec.staircase.pages_skipped as i64),
        ),
    ]);
    drop(session);

    if workload.kind == Kind::ReadWrite {
        write_path(
            workload,
            options,
            scratch,
            &xml,
            db,
            &mut layers,
            &mut counts,
        )?;
    }
    layers.counts = Json::Obj(
        counts
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    Ok(layers)
}

/// The write path by differencing: the same seeded commit stream against an
/// in-memory database (PUL evaluation + page splice + column patch +
/// publish), a durable one that never fsyncs (+ WAL append) and a durable
/// one that fsyncs every commit (+ fsync).  No background checkpoint runs,
/// so WAL counts repeat exactly.
fn write_path(
    workload: &Workload,
    options: &RunOptions,
    scratch: &Scratch,
    xml: &str,
    memory: Arc<Database>,
    layers: &mut Layers,
    counts: &mut Vec<(&'static str, Json)>,
) -> Result<(), String> {
    let durable = |tag: &str, sync: SyncPolicy| -> Result<(Arc<Database>, _), String> {
        let dir = scratch.fresh_dir(tag);
        let options = DurabilityOptions {
            sync,
            memory_budget: None,
            checkpoint_interval: None,
        };
        let db = Database::open_with(&dir, options).map_err(|e| format!("open {tag}: {e}"))?;
        db.load_document("auction.xml", xml)
            .map_err(|e| format!("load {tag}: {e}"))?;
        Ok((Arc::new(db), (dir, options)))
    };
    let (no_sync, _) = durable("traced-nosync", SyncPolicy::Never)?;
    let (always, (dir, reopen_options)) = durable("traced-always", SyncPolicy::Always)?;

    // durability layer: full checkpoint of the loaded document, cold open
    let root = layers.tracer.open("setup.durable", 0);
    let span = layers.tracer.open("durability.checkpoint", 0);
    let checkpointed = always.checkpoint();
    let checkpoint_ns = layers.tracer.close(span);
    checkpointed.map_err(|e| format!("checkpoint: {e}"))?;
    let disk_bytes = dir_bytes(&dir);
    drop(always);
    let span = layers.tracer.open("durability.open", 0);
    let reopened = Database::open_with(&dir, reopen_options);
    let open_ns = layers.tracer.close(span);
    layers.tracer.close(root);
    let always = Arc::new(reopened.map_err(|e| format!("cold open: {e}"))?);
    layers.set("durability.checkpoint_ms", checkpoint_ns as f64 / 1e6);
    layers.set("durability.cold_open_ms", open_ns as f64 / 1e6);
    layers.set(
        "durability.disk_bytes_per_xml_byte",
        disk_bytes as f64 / xml.len() as f64,
    );
    counts.push(("disk_bytes_after_checkpoint", Json::Int(disk_bytes as i64)));

    let params = workload.gen_params(options.seed, options.quick);
    let commits = workload.traced_units;
    let before = always.stats();
    let targets = [
        ("commit.memory", &memory),
        ("commit.wal_nosync", &no_sync),
        ("commit.durable", &always),
    ];
    let mut sessions = targets.map(|(_, db)| db.session());
    let mut commit_ms = [(); 3].map(|()| Vec::with_capacity(commits));
    let (mut pages_touched, mut tuples_written, mut primitives) = (0u64, 0u64, 0u64);
    for (i, text) in UpdateStream::new(options.seed, &params)
        .take(commits)
        .enumerate()
    {
        // each commit goes to the three databases back to back, in rotating
        // order, so the differences below are not a drift of the machine
        for turn in 0..3 {
            let slot = (i + turn) % 3;
            let name = targets[slot].0;
            let span = layers.tracer.open(name, i as u32 + 1);
            let outcome = sessions[slot].execute_update(&text);
            commit_ms[slot].push(layers.tracer.close(span) as f64 / 1e6);
            match outcome {
                Ok(report) => {
                    layers.checks.pass();
                    if slot == 0 {
                        pages_touched += report.stats.pages_touched;
                        tuples_written += report.stats.tuples_written;
                        primitives += report.primitives as u64;
                    }
                }
                Err(e) => layers.checks.fail(|| format!("{name} `{text}`: {e}")),
            }
        }
    }
    let medians = [0, 1, 2].map(|slot| median(&commit_ms[slot]));
    let n = commits as f64;
    layers.set("update.pages_touched", pages_touched as f64 / n);
    layers.set("update.tuples_written", tuples_written as f64 / n);
    counts.extend([
        ("commits", Json::Int(commits as i64)),
        ("update_primitives", Json::Int(primitives as i64)),
        ("update_pages_touched", Json::Int(pages_touched as i64)),
        ("update_tuples_written", Json::Int(tuples_written as i64)),
    ]);
    let mut documents = Vec::new();
    for session in &mut sessions {
        documents.push(timed_query(session, "doc(\"auction.xml\")")?.1);
    }
    layers
        .checks
        .expect(documents.iter().all(|d| *d == documents[0]), || {
            "the same commit stream left different documents on the three databases".to_string()
        });

    let after = always.stats();
    let wal_bytes = after.wal_bytes_written - before.wal_bytes_written;
    let wal_fsyncs = after.wal_fsyncs - before.wal_fsyncs;
    let latch_waits = after.latch_waits - before.latch_waits;
    let latch_conflicts = after.latch_conflicts - before.latch_conflicts;
    layers.set("update.apply_ms", medians[0]);
    layers.set("wal.append_ms", medians[1] - medians[0]);
    layers.set("wal.fsync_ms", medians[2] - medians[1]);
    layers.set("wal.bytes_per_commit", wal_bytes as f64 / n);
    layers.set("wal.fsyncs_per_commit", wal_fsyncs as f64 / n);
    layers.set("wal.latch_waits", latch_waits as f64);
    layers.set("wal.latch_conflicts", latch_conflicts as f64);
    counts.extend([
        ("wal_bytes_written", Json::Int(wal_bytes as i64)),
        ("wal_fsyncs", Json::Int(wal_fsyncs as i64)),
        ("latch_waits", Json::Int(latch_waits as i64)),
        ("latch_conflicts", Json::Int(latch_conflicts as i64)),
        ("document_digest", documents[0].to_json()),
    ]);
    Ok(())
}
