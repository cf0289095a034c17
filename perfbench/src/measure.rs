//! The measured (untraced) run: set-up, closed-loop load for a fixed time,
//! and the correctness checks that ride inside the timing loop.
//!
//! Closed loop: the database is an embedded library, so each caller waits
//! for its reply before issuing the next statement.  One client thread on
//! the read-only workloads, a writer and a reader on `rw_durable` — never
//! more load threads than the two cores of the sandbox.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mxq_xmark::gen::generate_xml;
use mxq_xquery::{
    Database, DatabaseStats, DurabilityOptions, ExecConfig, Session, StatementResult, SyncPolicy,
};

use crate::golden;
use crate::json::Json;
use crate::scratch::Scratch;
use crate::stats::{median, Digest, Distribution};
use crate::workloads::{
    Kind, Statement, UpdateStream, Workload, DEFAULT_SEED, DIFFERENTIAL_FACTOR,
};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Interval of the background checkpoints of `rw_durable` (a run completes
/// `--seconds` of these cycles).
pub const CHECKPOINT_INTERVAL: Duration = Duration::from_secs(1);

/// Durability options of the measured `rw_durable` database.
pub fn durable_options() -> DurabilityOptions {
    DurabilityOptions {
        sync: SyncPolicy::Always,
        memory_budget: None,
        checkpoint_interval: Some(CHECKPOINT_INTERVAL),
    }
}

#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
}

impl RunOptions {
    /// Golden digests exist for the default seed at the full scale only.
    pub fn has_golden(&self) -> bool {
        self.seed == DEFAULT_SEED && !self.quick
    }
}

/// Operations attempted and failed; the first few failures are kept as text.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, note: impl FnOnce() -> String) {
        self.attempted += 1;
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note());
        }
    }

    pub fn expect(&mut self, ok: bool, note: impl FnOnce() -> String) {
        if ok {
            self.pass();
        } else {
            self.fail(note);
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(8);
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            (
                "error_rate",
                Json::Num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().map(|n| Json::str(n)).collect()),
            ),
        ])
    }
}

/// Latencies of one statement label (an XMark query or an `adhoc`
/// template) and the digest its first execution produced.
pub struct PerStatement {
    pub label: String,
    pub latency_ms: Vec<f64>,
    pub digest: Option<Digest>,
}

/// What a measured run produced.
pub struct EndToEnd {
    pub xml_bytes: usize,
    pub xml_gen_s: f64,
    pub setup_samples_s: Vec<f64>,
    /// One sample per unit of client work: pass, statement or commit.
    pub op_ms: Vec<f64>,
    /// One sample per read statement, the whole mix pooled.
    pub read_ms: Vec<f64>,
    pub per_statement: Vec<PerStatement>,
    pub checks: Checks,
    /// Workload-specific facts (durability options, counters of the run).
    pub details: Json,
}

impl EndToEnd {
    pub fn setup_s(&self) -> f64 {
        median(&self.setup_samples_s)
    }
}

/// `Session::execute(text)` → `QueryResult::serialize()` returned: the span
/// every read latency covers.  The digest is taken after the clock stops.
pub fn timed_query(session: &mut Session, text: &str) -> Result<(f64, Digest), String> {
    let started = Instant::now();
    let result = session
        .execute(text)
        .and_then(StatementResult::into_query)
        .map_err(|e| e.to_string())?;
    let serialized = result.serialize();
    let ms = started.elapsed().as_secs_f64() * 1e3;
    Ok((ms, Digest::of(result.len(), serialized)))
}

/// Run every statement once; `None` where a statement failed.
fn digests_of(
    session: &mut Session,
    statements: &[Statement],
    checks: &mut Checks,
) -> Vec<Option<Digest>> {
    statements
        .iter()
        .map(|s| match timed_query(session, &s.text) {
            Ok((_, digest)) => {
                checks.pass();
                Some(digest)
            }
            Err(e) => {
                checks.fail(|| format!("{}: {e}", s.label));
                None
            }
        })
        .collect()
}

/// Check the digests the set-up produced: against the committed golden
/// values for the default seed, and otherwise by requiring that
/// `ExecConfig::default()` and `ExecConfig::naive()` agree on a document of
/// the same seed at [`DIFFERENTIAL_FACTOR`] (or the workload's own scale
/// when that is smaller, which then checks `expected` itself).
fn verify_expected(
    workload: &Workload,
    options: &RunOptions,
    statements: &[Statement],
    expected: &[Option<Digest>],
    checks: &mut Checks,
) -> Result<(), String> {
    if options.has_golden() {
        golden::check(workload.name, workload.kind, statements, expected, checks);
        return Ok(());
    }
    let mut params = workload.gen_params(options.seed, options.quick);
    let own_scale = params.factor <= DIFFERENTIAL_FACTOR;
    params.factor = params.factor.min(DIFFERENTIAL_FACTOR);
    let xml = generate_xml(&params);
    let db = Arc::new(Database::new());
    db.load_document("auction.xml", &xml)
        .map_err(|e| format!("differential load: {e}"))?;
    let optimized = digests_of(&mut db.session(), statements, checks);
    let naive = digests_of(
        &mut db.session_with_config(ExecConfig::naive()),
        statements,
        checks,
    );
    for (i, s) in statements.iter().enumerate() {
        checks.expect(optimized[i] == naive[i], || {
            format!("{}: default and naive configurations disagree", s.label)
        });
        if own_scale {
            checks.expect(optimized[i] == expected[i], || {
                format!("{}: digest differs between two databases", s.label)
            });
        }
    }
    Ok(())
}

pub fn run(
    workload: &Workload,
    options: &RunOptions,
    scratch: &Scratch,
) -> Result<EndToEnd, String> {
    let params = workload.gen_params(options.seed, options.quick);
    let started = Instant::now();
    let xml = generate_xml(&params);
    let xml_gen_s = started.elapsed().as_secs_f64();
    let statements = workload.read_statements(options.seed);
    let mut checks = Checks::default();

    // set up SETUP_REPS times; the run proceeds on the last database
    let mut setup_samples_s = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some((db, _)) = last.take() {
            discard(db);
        }
        let started = Instant::now();
        last = Some(match workload.kind {
            Kind::Passes | Kind::Adhoc => setup_memory(&xml, &statements, &mut checks)?,
            Kind::ReadWrite => {
                setup_durable(&xml, &statements, &scratch.fresh_dir("rw"), &mut checks)?
            }
        });
        setup_samples_s.push(started.elapsed().as_secs_f64());
    }
    let (db, expected) = last.expect("SETUP_REPS is at least one");
    verify_expected(workload, options, &statements, &expected, &mut checks)?;

    let window = Duration::from_secs_f64(options.seconds);
    let mut run = match workload.kind {
        Kind::Passes => run_passes(&db, &statements, &expected, window),
        Kind::Adhoc => run_adhoc(&db, &statements, &expected, window),
        Kind::ReadWrite => run_read_write(db, workload, options, &statements, &expected, window)?,
    };
    run.checks.merge(checks);
    run.xml_bytes = xml.len();
    run.xml_gen_s = xml_gen_s;
    run.setup_samples_s = setup_samples_s;
    if workload.kind == Kind::Adhoc {
        // rows are templates there; one digest stands in for 8192
        run.per_statement.push(PerStatement {
            label: golden::STREAM.to_string(),
            latency_ms: Vec::new(),
            digest: golden::stream_digest(&expected),
        });
    } else {
        for (per, digest) in run.per_statement.iter_mut().zip(&expected) {
            per.digest = *digest;
        }
    }
    Ok(run)
}

/// Drop a database and delete its directory, if it has one.
fn discard(db: Arc<Database>) {
    let dir = db.durability_dir().map(Path::to_path_buf);
    drop(db);
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Set-up of the in-memory workloads: `load_document` (shred + page +
/// column build) and one warm-up pass, which also fills the plan cache and
/// yields the digests every later execution must reproduce.
fn setup_memory(
    xml: &str,
    statements: &[Statement],
    checks: &mut Checks,
) -> Result<(Arc<Database>, Vec<Option<Digest>>), String> {
    let db = Arc::new(Database::new());
    db.load_document("auction.xml", xml)
        .map_err(|e| format!("load_document: {e}"))?;
    let expected = digests_of(&mut db.session(), statements, checks);
    Ok((db, expected))
}

/// Set-up of `rw_durable`: open, load, warm-up pass, then `checkpoint()` →
/// drop → cold `open_with` → first query.  The run proceeds on the
/// recovered database.
fn setup_durable(
    xml: &str,
    statements: &[Statement],
    dir: &Path,
    checks: &mut Checks,
) -> Result<(Arc<Database>, Vec<Option<Digest>>), String> {
    let open = || Database::open_with(dir, durable_options()).map_err(|e| format!("open: {e}"));
    let db = Arc::new(open()?);
    db.load_document("auction.xml", xml)
        .map_err(|e| format!("load_document: {e}"))?;
    let expected = digests_of(&mut db.session(), statements, checks);
    db.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    drop(db);
    let db = Arc::new(open()?);
    let first = &statements[0];
    match timed_query(&mut db.session(), &first.text) {
        Ok((_, digest)) => checks.expect(Some(digest) == expected[0], || {
            format!(
                "{}: digest changed across checkpoint and reopen",
                first.label
            )
        }),
        Err(e) => checks.fail(|| format!("{} after reopen: {e}", first.label)),
    }
    Ok((db, expected))
}

fn empty_run(labels: impl Iterator<Item = String>) -> EndToEnd {
    EndToEnd {
        xml_bytes: 0,
        xml_gen_s: 0.0,
        setup_samples_s: Vec::new(),
        op_ms: Vec::with_capacity(1 << 18),
        read_ms: Vec::with_capacity(1 << 18),
        per_statement: labels
            .map(|label| PerStatement {
                label,
                latency_ms: Vec::with_capacity(1 << 12),
                digest: None,
            })
            .collect(),
        checks: Checks::default(),
        details: Json::Obj(Vec::new()),
    }
}

fn plan_cache_details(before: &DatabaseStats, after: &DatabaseStats) -> Json {
    let hits = after.plan_cache_hits - before.plan_cache_hits;
    let misses = after.plan_cache_misses - before.plan_cache_misses;
    Json::obj([
        ("plan_cache_hits", Json::Int(hits as i64)),
        ("plan_cache_misses", Json::Int(misses as i64)),
        (
            "plan_cache_hit_ratio",
            Json::Num(hits as f64 / (hits + misses).max(1) as f64),
        ),
        (
            "prepares",
            Json::Int((after.prepares - before.prepares) as i64),
        ),
    ])
}

/// `scan` and `join`: loop over the statement list until the window closes;
/// a pass's latency is the sum of its statements' spans.
fn run_passes(
    db: &Arc<Database>,
    statements: &[Statement],
    expected: &[Option<Digest>],
    window: Duration,
) -> EndToEnd {
    let mut run = empty_run(statements.iter().map(|s| s.label.clone()));
    let mut session = db.session();
    let before = db.stats();
    let deadline = Instant::now() + window;
    while Instant::now() < deadline {
        let mut pass_ms = 0.0;
        for (i, s) in statements.iter().enumerate() {
            match timed_query(&mut session, &s.text) {
                Ok((ms, digest)) => {
                    pass_ms += ms;
                    run.read_ms.push(ms);
                    run.per_statement[i].latency_ms.push(ms);
                    run.checks.expect(Some(digest) == expected[i], || {
                        format!("{}: digest changed between passes", s.label)
                    });
                }
                Err(e) => run.checks.fail(|| format!("{}: {e}", s.label)),
            }
        }
        run.op_ms.push(pass_ms);
    }
    run.details = plan_cache_details(&before, &db.stats());
    run
}

/// `adhoc`: cycle through the distinct texts; every one misses the plan
/// cache because 8192 texts separate two uses of the same one.
fn run_adhoc(
    db: &Arc<Database>,
    statements: &[Statement],
    expected: &[Option<Digest>],
    window: Duration,
) -> EndToEnd {
    let mut labels: Vec<String> = statements.iter().map(|s| s.label.clone()).collect();
    labels.sort();
    labels.dedup();
    let slot_of: Vec<usize> = statements
        .iter()
        .map(|s| labels.binary_search(&s.label).expect("label listed"))
        .collect();
    let mut run = empty_run(labels.into_iter());
    let mut session = db.session();
    let before = db.stats();
    let deadline = Instant::now() + window;
    let mut i = 0;
    while Instant::now() < deadline {
        let s = &statements[i];
        match timed_query(&mut session, &s.text) {
            Ok((ms, digest)) => {
                run.op_ms.push(ms);
                run.per_statement[slot_of[i]].latency_ms.push(ms);
                run.checks.expect(Some(digest) == expected[i], || {
                    format!("{} `{}`: digest changed between passes", s.label, s.text)
                });
            }
            Err(e) => run.checks.fail(|| format!("{} `{}`: {e}", s.label, s.text)),
        }
        i = (i + 1) % statements.len();
    }
    run.read_ms = run.op_ms.clone();
    run.details = plan_cache_details(&before, &db.stats());
    run
}

/// Serialized `auction.xml` as a digest — the whole-document check.
fn document_digest(db: &Arc<Database>) -> Result<Digest, String> {
    timed_query(&mut db.session(), "doc(\"auction.xml\")").map(|(_, digest)| digest)
}

/// `rw_durable`: a writer issues the seeded XQUF mix (each commit timed
/// `Session::execute_update` → durable ack) while a reader loops the
/// workload's queries on the same document.  Afterwards the database is
/// dropped and reopened; document and commit count must have survived.
fn run_read_write(
    db: Arc<Database>,
    workload: &Workload,
    options: &RunOptions,
    statements: &[Statement],
    expected: &[Option<Digest>],
    window: Duration,
) -> Result<EndToEnd, String> {
    let dir = db
        .durability_dir()
        .expect("rw_durable runs on a durable database")
        .to_path_buf();
    let params = workload.gen_params(options.seed, options.quick);
    let auctions = params.num_open_auctions();
    let mut run = empty_run(statements.iter().map(|s| s.label.clone()));
    let before = db.stats();
    let generation_before = db.generation();
    let deadline = Instant::now() + window;

    let (commit_ms, applied, writer_checks) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut session = db.session();
            let mut checks = Checks::default();
            let mut commit_ms = Vec::with_capacity(1 << 16);
            let mut applied = 0u64;
            let mut stream = UpdateStream::new(options.seed, &params);
            while Instant::now() < deadline {
                let text = stream.next().expect("the stream is endless");
                let started = Instant::now();
                let outcome = session.execute_update(&text);
                let ms = started.elapsed().as_secs_f64() * 1e3;
                match outcome {
                    Ok(report) => {
                        commit_ms.push(ms);
                        applied += u64::from(report.primitives > 0);
                        checks.pass();
                    }
                    Err(e) => checks.fail(|| format!("`{text}`: {e}")),
                }
            }
            (commit_ms, applied, checks)
        });

        // the reader: the write mix moves bidders, `current`, `happiness`
        // and `type` of open auctions only, so every query but Q2 must keep
        // its digest, and Q2 must keep one item per open auction
        let mut session = db.session();
        while Instant::now() < deadline {
            for (i, s) in statements.iter().enumerate() {
                match timed_query(&mut session, &s.text) {
                    Ok((ms, digest)) => {
                        run.read_ms.push(ms);
                        run.per_statement[i].latency_ms.push(ms);
                        let ok = if s.label == "Q2" {
                            digest.items == auctions
                        } else {
                            Some(digest) == expected[i]
                        };
                        run.checks
                            .expect(ok, || format!("{}: wrong result under writes", s.label));
                    }
                    Err(e) => run.checks.fail(|| format!("{}: {e}", s.label)),
                }
            }
        }
        writer.join().expect("writer thread")
    });
    run.op_ms = commit_ms;
    run.checks.merge(writer_checks);
    if run.op_ms.is_empty() {
        return Err("the writer committed nothing inside the window".to_string());
    }

    let after = db.stats();
    let generation_after = db.generation();
    run.checks
        .expect(generation_after - generation_before == applied, || {
            format!(
                "{applied} commits acknowledged, generation moved by {}",
                generation_after - generation_before
            )
        });
    let digest_before = document_digest(&db)?;
    drop(db);
    let reopened =
        Arc::new(Database::open_with(dir, durable_options()).map_err(|e| format!("reopen: {e}"))?);
    run.checks
        .expect(document_digest(&reopened)? == digest_before, || {
            "document differs after drop and reopen".to_string()
        });
    run.checks
        .expect(reopened.generation() == generation_after, || {
            format!(
                "generation {} after reopen, {generation_after} acknowledged",
                reopened.generation()
            )
        });
    discard(reopened);

    let commits = run.op_ms.len() as f64;
    run.details = Json::obj([
        ("sync_policy", Json::str("Always")),
        (
            "checkpoint_interval_s",
            Json::Num(CHECKPOINT_INTERVAL.as_secs_f64()),
        ),
        ("load_threads", Json::Int(2)),
        ("commits_acknowledged", Json::Int(run.op_ms.len() as i64)),
        ("commits_with_primitives", Json::Int(applied as i64)),
        (
            "background_checkpoints",
            Json::Int((after.background_checkpoints - before.background_checkpoints) as i64),
        ),
        (
            "wal_bytes_per_commit",
            Json::Num((after.wal_bytes_written - before.wal_bytes_written) as f64 / commits),
        ),
        (
            "wal_fsyncs_per_commit",
            Json::Num((after.wal_fsyncs - before.wal_fsyncs) as f64 / commits),
        ),
        (
            "latch_waits",
            Json::Int((after.latch_waits - before.latch_waits) as i64),
        ),
        (
            "latch_conflicts",
            Json::Int((after.latch_conflicts - before.latch_conflicts) as i64),
        ),
        ("plan_cache", plan_cache_details(&before, &after)),
        ("document_digest", digest_before.to_json()),
    ]);
    Ok(run)
}

/// The distributions and digests of a run as the full report prints them.
pub fn per_statement_json(run: &EndToEnd) -> Json {
    Json::Arr(
        run.per_statement
            .iter()
            .map(|p| {
                let mut fields = vec![("label".to_string(), Json::str(&p.label))];
                if !p.latency_ms.is_empty() {
                    fields.push((
                        "latency".to_string(),
                        Distribution::of(&p.latency_ms).to_json("ms"),
                    ));
                }
                if let Some(digest) = p.digest {
                    fields.push(("digest".to_string(), digest.to_json()));
                }
                Json::Obj(fields)
            })
            .collect(),
    )
}
