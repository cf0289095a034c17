//! Shared fixtures for the benchmark harness.
//!
//! Every table and figure of the paper's evaluation (Section 6) has one bench
//! target in `benches/`; this library provides the common set-up: generating
//! an XMark document at a given scale factor, loading it into a shared
//! [`Database`], opening [`Session`]s with a given [`ExecConfig`], and
//! running queries.
//!
//! The scale factors used here are laptop-scale: the
//! paper's claims that these benches reproduce are about *relative* shape
//! (speedups, crossovers, scaling exponents), which are visible at these
//! sizes.

#![forbid(unsafe_code)]

use std::sync::Arc;
use std::time::Instant;

use mxq_xmark::gen::{generate_xml, GenParams};
use mxq_xmark::naive::NaiveInterpreter;
use mxq_xmark::queries::query_text;
use mxq_xmldb::{DocStore, UpdateStats};
use mxq_xquery::{Database, DatabaseStats, DurabilityOptions, ExecConfig, Session};
use rand::{Rng, SeedableRng, StdRng};

/// Default scale factor for single-document benches (≈0.1 MB of XML).
pub const SMALL_FACTOR: f64 = 0.001;

/// The `MXQ_SCALE` environment variable, parsed.  An unset or empty
/// variable is `Ok(None)` — "use the defaults"; a set-but-invalid value
/// is an error, so a typo can never silently fall back and corrupt
/// recorded baselines.
pub fn env_scale() -> Result<Option<f64>, String> {
    let Ok(raw) = std::env::var("MXQ_SCALE") else {
        return Ok(None);
    };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match trimmed.parse::<f64>() {
        Ok(f) if f > 0.0 => Ok(Some(f)),
        _ => Err(format!("MXQ_SCALE must be a positive number, got `{raw}`")),
    }
}

/// [`env_scale`] for a driver: on a bad value, print the message and exit
/// with status 2.
pub fn env_scale_or_exit() -> Option<f64> {
    env_scale().unwrap_or_else(|e| {
        eprintln!("[mxq-bench] {e}");
        std::process::exit(2)
    })
}

/// Print the effective scale factor(s) so every recorded baseline row is
/// self-describing.
fn report_env(factors: &[f64]) {
    eprintln!("[mxq-bench] scale factor(s) {factors:?}");
}

/// The XMark scale factor to run a bench at: the `MXQ_SCALE` environment
/// variable when set (e.g. `MXQ_SCALE=0.01 cargo bench`), else `default`.
/// Exits with status 2 on an invalid `MXQ_SCALE`.
pub fn scale_factor(default: f64) -> f64 {
    let f = env_scale_or_exit().unwrap_or(default);
    report_env(&[f]);
    f
}

/// The scale factors a multi-factor bench iterates over: `[MXQ_SCALE]` when
/// the environment variable is set, else the bench's `defaults`.  Exits
/// with status 2 on an invalid `MXQ_SCALE`.
pub fn scale_factors(defaults: &[f64]) -> Vec<f64> {
    let factors = match env_scale_or_exit() {
        Some(f) => vec![f],
        None => defaults.to_vec(),
    };
    report_env(&factors);
    factors
}

/// Generate the XMark XML text at a scale factor (deterministic).
pub fn xmark_xml(factor: f64) -> String {
    generate_xml(&GenParams::with_factor(factor))
}

/// Build a shared database with a loaded XMark document (`auction.xml`).
pub fn xmark_db(xml: &str) -> Arc<Database> {
    let db = Arc::new(Database::new());
    db.load_document("auction.xml", xml)
        .expect("generated XMark document must load");
    db
}

/// The document name writer `w` owns in a multi-writer fixture.
pub fn writer_doc(w: usize) -> String {
    format!("auction-w{w}.xml")
}

/// Build a shared database for the multi-writer rounds: `auction.xml` for
/// the readers plus one private copy per writer ([`writer_doc`]), so the
/// writers' update targets are pairwise disjoint documents.
pub fn xmark_multi_writer_db(xml: &str, writers: usize) -> Arc<Database> {
    let db = xmark_db(xml);
    for w in 0..writers {
        db.load_document(&writer_doc(w), xml)
            .expect("writer copy must load");
    }
    db
}

/// One line of writer-contention counters (latch waits/conflicts, the
/// group-commit batch histogram and the background-checkpoint count) for
/// the bench printouts, computed as the delta between two stats snapshots.
pub fn contention_summary(before: &DatabaseStats, after: &DatabaseStats) -> String {
    let batches = after.group_commit_batches - before.group_commit_batches;
    let records = after.group_commit_records - before.group_commit_records;
    let mean = if batches > 0 {
        records as f64 / batches as f64
    } else {
        0.0
    };
    format!(
        "latch waits {}, latch conflicts {}, group-commit batches {} \
         (min/mean/max {}/{:.1}/{}), background checkpoints {}",
        after.latch_waits - before.latch_waits,
        after.latch_conflicts - before.latch_conflicts,
        batches,
        // min/max are lifetime extrema, not windowed — report them raw
        after.group_commit_batch_min,
        mean,
        after.group_commit_batch_max,
        after.background_checkpoints - before.background_checkpoints,
    )
}

/// A scratch directory for a durable-database bench fixture: recreated
/// empty under the system temp dir, namespaced by pid and tag.
pub fn bench_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mxq-bench-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench scratch dir");
    dir
}

/// Build a durable database in `dir` with a loaded XMark document
/// (`auction.xml`) — the WAL-logged counterpart of [`xmark_db`].
pub fn xmark_durable_db(
    xml: &str,
    dir: &std::path::Path,
    options: DurabilityOptions,
) -> Arc<Database> {
    let db = Arc::new(Database::open_with(dir, options).expect("durable open"));
    db.load_document("auction.xml", xml)
        .expect("generated XMark document must load");
    db
}

/// Build a session (over a fresh single-document database) with the given
/// config and a loaded XMark document — the single-client bench fixture.
pub fn session_with_xmark(xml: &str, config: ExecConfig) -> Session {
    xmark_db(xml).session_with_config(config)
}

/// Run one XMark query on a session.
pub fn run_query(session: &mut Session, id: usize) -> usize {
    let result = session
        .query(query_text(id))
        .unwrap_or_else(|e| panic!("XMark Q{id} failed: {e}"));
    result.len()
}

/// Run one XMark query through the naive DOM-walking interpreter.
pub fn run_query_naive(xml: &str, id: usize) -> usize {
    let mut store = DocStore::new();
    store.load_xml("auction.xml", xml).expect("load");
    let snap = store.snapshot();
    let mut naive = NaiveInterpreter::new(&snap);
    naive
        .run(query_text(id))
        .unwrap_or_else(|e| panic!("naive XMark Q{id} failed: {e}"))
        .len()
}

/// Outcome counters of one mixed query/update workload run.
#[derive(Debug, Clone, Default)]
pub struct MixedWorkloadReport {
    /// Reader sessions driven (each on its own thread).
    pub reader_sessions: usize,
    /// Operations executed as queries.
    pub reads: usize,
    /// Operations executed as updates.
    pub writes: usize,
    /// Total result items returned by the read operations.
    pub read_items: usize,
    /// Update primitives applied by the write operations.
    pub primitives: usize,
    /// Storage-level cost counters accumulated over the write operations.
    pub stats: UpdateStats,
    /// Wall-clock duration of the run in seconds.
    pub elapsed_secs: f64,
    /// Total operations per second over the run.
    pub ops_per_sec: f64,
    /// Operations per second per session (readers + the writer).
    pub per_session_ops_per_sec: f64,
    /// Plan-cache hits observed during the run (database-level delta).
    pub plan_cache_hits: u64,
    /// Plan-cache misses observed during the run.
    pub plan_cache_misses: u64,
    /// Mean wall-clock latency of one write operation (statement text →
    /// published update) in milliseconds; 0 when the run performed no
    /// writes.
    pub write_latency_ms: f64,
}

impl MixedWorkloadReport {
    /// Plan-cache hit rate in `[0, 1]` during the run; `None` if the run
    /// performed no cache lookups.
    pub fn plan_cache_hit_rate(&self) -> Option<f64> {
        let total = self.plan_cache_hits + self.plan_cache_misses;
        (total > 0).then(|| self.plan_cache_hits as f64 / total as f64)
    }

    /// One-line human-readable summary (used by the throughput benches).
    pub fn summary(&self) -> String {
        format!(
            "{} reader(s)+1 writer: {} reads / {} writes in {:.3}s — {:.0} op/s total, \
             {:.0} op/s per session, {:.3} ms/write, plan-cache hit rate {:.0}%",
            self.reader_sessions,
            self.reads,
            self.writes,
            self.elapsed_secs,
            self.ops_per_sec,
            self.per_session_ops_per_sec,
            self.write_latency_ms,
            self.plan_cache_hit_rate().unwrap_or(0.0) * 100.0
        )
    }
}

/// Outcome of one saturation-mode run ([`run_saturation_workload`]): every
/// session runs flat-out until a shared deadline instead of splitting a
/// fixed op budget, so 1→N reader scaling is measurable as total read
/// throughput.
#[derive(Debug, Clone, Default)]
pub struct SaturationReport {
    /// Reader sessions driven (each on its own thread).
    pub reader_sessions: usize,
    /// Total queries completed by all readers before the deadline.
    pub reads: usize,
    /// Total updates completed by the writer before the deadline.
    pub writes: usize,
    /// Wall-clock duration of the run in seconds.
    pub elapsed_secs: f64,
    /// Reads per second over all readers — the scaling figure.
    pub reads_per_sec: f64,
    /// Reads per second per reader session.
    pub reads_per_sec_per_reader: f64,
    /// Mean wall-clock latency of one write in milliseconds.
    pub write_latency_ms: f64,
}

impl SaturationReport {
    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} reader(s)+1 writer, {:.2}s deadline: {} reads ({:.0}/s total, {:.0}/s per \
             reader), {} writes ({:.3} ms/write)",
            self.reader_sessions,
            self.elapsed_secs,
            self.reads,
            self.reads_per_sec,
            self.reads_per_sec_per_reader,
            self.writes,
            self.write_latency_ms
        )
    }
}

/// Saturation-mode variant of [`run_mixed_workload`]: `readers` reader
/// sessions each execute workload queries in a closed loop **until the
/// deadline** (no shared op budget — adding readers adds offered load), and
/// one writer session applies XQUF statements back-to-back until the same
/// deadline, measuring per-write latency.  This is the configuration that
/// makes 1→N reader scaling and writer-latency regressions measurable.
pub fn run_saturation_workload(
    db: &Arc<Database>,
    readers: usize,
    deadline: std::time::Duration,
    seed: u64,
) -> SaturationReport {
    assert!(readers >= 1, "the workload needs at least one reader");
    let auctions: usize = db
        .execute("count(doc(\"auction.xml\")/site/open_auctions/open_auction)")
        .expect("auction count query")
        .into_query()
        .expect("count is a query")
        .serialize()
        .parse()
        .unwrap_or(0);
    assert!(auctions > 0, "workload needs at least one open auction");

    let started = Instant::now();
    let stop_at = started + deadline;
    let mut report = std::thread::scope(|scope| {
        let queries = Arc::new(workload_queries());
        let mut handles = Vec::new();
        for r in 0..readers {
            let mut session = db.session();
            let queries = queries.clone();
            let seed = seed ^ (r as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            handles.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut reads = 0usize;
                while Instant::now() < stop_at {
                    let q = &queries[rng.gen_range(0..queries.len())];
                    session
                        .execute(q)
                        .expect("workload query")
                        .into_query()
                        .expect("read ops are queries");
                    reads += 1;
                }
                reads
            }));
        }

        // the writer runs until the same deadline from this thread
        let mut writer = db.session();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut writes = 0usize;
        let mut write_secs = 0.0f64;
        let mut op = 0usize;
        while Instant::now() < stop_at {
            let auction_idx = rng.gen_range(0..auctions) + 1;
            let kind = rng.gen_range(0..5u32);
            let stmt = workload_update(op, auction_idx, kind);
            let write_started = Instant::now();
            writer
                .execute(&stmt)
                .expect("workload update")
                .into_update()
                .expect("write ops are updates");
            write_secs += write_started.elapsed().as_secs_f64();
            writes += 1;
            op += 1;
        }

        let mut report = SaturationReport {
            reader_sessions: readers,
            writes,
            write_latency_ms: if writes > 0 {
                write_secs * 1000.0 / writes as f64
            } else {
                0.0
            },
            ..SaturationReport::default()
        };
        for handle in handles {
            report.reads += handle.join().expect("reader session thread");
        }
        report
    });
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    report.elapsed_secs = elapsed;
    report.reads_per_sec = report.reads as f64 / elapsed;
    report.reads_per_sec_per_reader = report.reads_per_sec / readers as f64;
    report
}

/// The read queries of the mixed workload: XMark Q1 plus bidder/current
/// scans.
fn workload_queries() -> Vec<String> {
    vec![
        query_text(1).to_string(),
        "count(doc(\"auction.xml\")/site/open_auctions/open_auction/bidder)".to_string(),
        "for $a in doc(\"auction.xml\")/site/open_auctions/open_auction \
         where $a/current > 100 return $a/current/text()"
            .to_string(),
    ]
}

/// The update statement for write op number `op` against a random auction.
fn workload_update(op: usize, auction_idx: usize, kind: u32) -> String {
    workload_update_on("auction.xml", op, auction_idx, kind)
}

/// [`workload_update`] against an arbitrary document — the multi-writer
/// rounds point each writer at its own copy ([`writer_doc`]) so the update
/// targets are disjoint.
fn workload_update_on(doc: &str, op: usize, auction_idx: usize, kind: u32) -> String {
    let auction = format!("doc(\"{doc}\")/site/open_auctions/open_auction[{auction_idx}]");
    match kind {
        0 => format!(
            "insert nodes <bidder><date>2006-07-{:02}</date>\
             <increase>{}.50</increase></bidder> as last into {auction}",
            1 + op % 28,
            1 + op % 9
        ),
        1 => format!("delete nodes {auction}/bidder[1]"),
        2 => format!(
            "replace value of node {auction}/current with \"{}.37\"",
            100 + op % 400
        ),
        3 => format!(
            "replace node {auction}/annotation/happiness \
             with <happiness>{}</happiness>",
            op % 10
        ),
        _ => format!("rename node {auction}/type as \"type\""),
    }
}

/// Outcome of one multi-writer saturation run
/// ([`run_multi_writer_saturation`]): `writers` writer sessions each
/// updating their own document ([`writer_doc`]) plus `readers` reader
/// sessions, all flat-out until a shared deadline.
#[derive(Debug, Clone, Default)]
pub struct MultiWriterReport {
    /// Writer sessions driven (each on its own thread, own document).
    pub writer_sessions: usize,
    /// Reader sessions driven (each on its own thread).
    pub reader_sessions: usize,
    /// Total updates completed by all writers before the deadline.
    pub writes: usize,
    /// Total queries completed by all readers before the deadline.
    pub reads: usize,
    /// Wall-clock duration of the run in seconds.
    pub elapsed_secs: f64,
    /// Writes per second over all writers — the multi-writer scaling figure.
    pub writes_per_sec: f64,
    /// Mean wall-clock latency of one write in milliseconds.
    pub write_latency_ms: f64,
    /// Latch waits incurred during the run (should be 0: the writers touch
    /// disjoint documents).
    pub latch_waits: u64,
    /// Latch conflicts (stale-snapshot re-evaluations) during the run.
    pub latch_conflicts: u64,
}

impl MultiWriterReport {
    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} writer(s)+{} reader(s), {:.2}s deadline: {} writes ({:.0}/s, {:.3} ms/write), \
             {} reads, {} latch waits, {} latch conflicts",
            self.writer_sessions,
            self.reader_sessions,
            self.elapsed_secs,
            self.writes,
            self.writes_per_sec,
            self.write_latency_ms,
            self.reads,
            self.latch_waits,
            self.latch_conflicts
        )
    }
}

/// Multi-writer variant of [`run_saturation_workload`]: `writers` writer
/// sessions each apply XQUF statements back-to-back **to their own
/// document** ([`writer_doc`], loaded by [`xmark_multi_writer_db`]) until
/// the deadline, while `readers` reader sessions loop the workload queries
/// against `auction.xml`.  Because the writers' documents are pairwise
/// disjoint, their commits should proceed without a single fragment-latch
/// wait — the report carries the latch counters so the bench can assert
/// that claim in print.
pub fn run_multi_writer_saturation(
    db: &Arc<Database>,
    writers: usize,
    readers: usize,
    deadline: std::time::Duration,
    seed: u64,
) -> MultiWriterReport {
    assert!(writers >= 1, "the workload needs at least one writer");
    let auctions: usize = db
        .execute("count(doc(\"auction.xml\")/site/open_auctions/open_auction)")
        .expect("auction count query")
        .into_query()
        .expect("count is a query")
        .serialize()
        .parse()
        .unwrap_or(0);
    assert!(auctions > 0, "workload needs at least one open auction");

    let stats_before = db.stats();
    let started = Instant::now();
    let stop_at = started + deadline;
    let mut report = std::thread::scope(|scope| {
        let queries = Arc::new(workload_queries());
        let mut reader_handles = Vec::new();
        for r in 0..readers {
            let mut session = db.session();
            let queries = queries.clone();
            let seed = seed ^ (r as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            reader_handles.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut reads = 0usize;
                while Instant::now() < stop_at {
                    let q = &queries[rng.gen_range(0..queries.len())];
                    session
                        .execute(q)
                        .expect("workload query")
                        .into_query()
                        .expect("read ops are queries");
                    reads += 1;
                }
                reads
            }));
        }

        let mut writer_handles = Vec::new();
        for w in 0..writers {
            let mut session = db.session();
            let doc = writer_doc(w);
            let seed = seed ^ (w as u64 + 101).wrapping_mul(0x2545_f491_4f6c_dd1d);
            writer_handles.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut writes = 0usize;
                let mut write_secs = 0.0f64;
                let mut op = 0usize;
                while Instant::now() < stop_at {
                    let auction_idx = rng.gen_range(0..auctions) + 1;
                    let kind = rng.gen_range(0..5u32);
                    let stmt = workload_update_on(&doc, op, auction_idx, kind);
                    let write_started = Instant::now();
                    session
                        .execute(&stmt)
                        .expect("workload update")
                        .into_update()
                        .expect("write ops are updates");
                    write_secs += write_started.elapsed().as_secs_f64();
                    writes += 1;
                    op += 1;
                }
                (writes, write_secs)
            }));
        }

        let mut report = MultiWriterReport {
            writer_sessions: writers,
            reader_sessions: readers,
            ..MultiWriterReport::default()
        };
        let mut write_secs = 0.0f64;
        for handle in writer_handles {
            let (writes, secs) = handle.join().expect("writer session thread");
            report.writes += writes;
            write_secs += secs;
        }
        if report.writes > 0 {
            report.write_latency_ms = write_secs * 1000.0 / report.writes as f64;
        }
        for handle in reader_handles {
            report.reads += handle.join().expect("reader session thread");
        }
        report
    });
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    report.elapsed_secs = elapsed;
    report.writes_per_sec = report.writes as f64 / elapsed;
    let stats_after = db.stats();
    report.latch_waits = stats_after.latch_waits - stats_before.latch_waits;
    report.latch_conflicts = stats_after.latch_conflicts - stats_before.latch_conflicts;
    report
}

/// Run a mixed query/update workload against a shared database holding an
/// XMark document under `auction.xml`: `readers` reader sessions (each on
/// its own thread) execute queries (XMark Q1 plus bidder/current scans)
/// while one writer session applies XQuery Update Facility statements
/// (bidder inserts/deletes, `current` value replacement, annotation-subtree
/// replacement, renames) against random open auctions.
///
/// Of the `ops` total operations, `read_pct` percent are reads, split
/// evenly over the reader sessions; the rest are writes, all issued by the
/// writer.  The op mix is deterministic for a given `seed`; the
/// interleaving (and therefore the per-read item counts) is not, since the
/// sessions genuinely run concurrently.
pub fn run_mixed_workload(
    db: &Arc<Database>,
    readers: usize,
    read_pct: u8,
    ops: usize,
    seed: u64,
) -> MixedWorkloadReport {
    assert!(readers >= 1, "the workload needs at least one reader");
    let auctions: usize = db
        .execute("count(doc(\"auction.xml\")/site/open_auctions/open_auction)")
        .expect("auction count query")
        .into_query()
        .expect("count is a query")
        .serialize()
        .parse()
        .unwrap_or(0);
    assert!(auctions > 0, "workload needs at least one open auction");

    let total_reads = ops * read_pct as usize / 100;
    let total_writes = ops - total_reads;
    let stats_before = db.stats();
    let started = Instant::now();

    let mut report = std::thread::scope(|scope| {
        let queries = Arc::new(workload_queries());
        let mut handles = Vec::new();
        for r in 0..readers {
            let reads = total_reads / readers + usize::from(r < total_reads % readers);
            let mut session = db.session();
            let queries = queries.clone();
            let seed = seed ^ (r as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            handles.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut items = 0usize;
                for _ in 0..reads {
                    let q = &queries[rng.gen_range(0..queries.len())];
                    let result = session
                        .execute(q)
                        .expect("workload query")
                        .into_query()
                        .expect("read ops are queries");
                    items += result.len();
                }
                (reads, items)
            }));
        }

        // the writer drives its share from this thread
        let mut writer = db.session();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut report = MixedWorkloadReport {
            reader_sessions: readers,
            ..MixedWorkloadReport::default()
        };
        let mut write_secs = 0.0f64;
        for op in 0..total_writes {
            let auction_idx = rng.gen_range(0..auctions) + 1;
            let kind = rng.gen_range(0..5u32);
            let stmt = workload_update(op, auction_idx, kind);
            let write_started = Instant::now();
            let rep = writer
                .execute(&stmt)
                .expect("workload update")
                .into_update()
                .expect("write ops are updates");
            write_secs += write_started.elapsed().as_secs_f64();
            report.writes += 1;
            report.primitives += rep.primitives;
            report.stats.accumulate(&rep.stats);
        }
        if report.writes > 0 {
            report.write_latency_ms = write_secs * 1000.0 / report.writes as f64;
        }
        for handle in handles {
            let (reads, items) = handle.join().expect("reader session thread");
            report.reads += reads;
            report.read_items += items;
        }
        report
    });

    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    let stats_after = db.stats();
    report.elapsed_secs = elapsed;
    report.ops_per_sec = ops as f64 / elapsed;
    report.per_session_ops_per_sec = ops as f64 / elapsed / (readers + 1) as f64;
    report.plan_cache_hits = stats_after.plan_cache_hits - stats_before.plan_cache_hits;
    report.plan_cache_misses = stats_after.plan_cache_misses - stats_before.plan_cache_misses;
    report
}

/// The five staircase-join configurations of Figure 12, in the paper's order.
pub fn fig12_configs() -> Vec<(&'static str, ExecConfig)> {
    let base = ExecConfig {
        nametest_pushdown: false,
        ..ExecConfig::default()
    };
    vec![
        (
            "iterative child, iterative descendant",
            ExecConfig {
                loop_lifted_child: false,
                loop_lifted_descendant: false,
                ..base
            },
        ),
        (
            "iterative child, loop-lifted descendant",
            ExecConfig {
                loop_lifted_child: false,
                loop_lifted_descendant: true,
                ..base
            },
        ),
        (
            "loop-lifted child, iterative descendant",
            ExecConfig {
                loop_lifted_child: true,
                loop_lifted_descendant: false,
                ..base
            },
        ),
        (
            "loop-lifted child, loop-lifted descendant",
            ExecConfig {
                loop_lifted_child: true,
                loop_lifted_descendant: true,
                ..base
            },
        ),
        (
            "loop-lifted child, loop-lifted descendant, nametest",
            ExecConfig {
                loop_lifted_child: true,
                loop_lifted_descendant: true,
                nametest_pushdown: true,
                ..base
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_work() {
        let xml = xmark_xml(0.0005);
        let mut s = session_with_xmark(&xml, ExecConfig::default());
        assert!(run_query(&mut s, 1) <= 1);
        assert!(run_query(&mut s, 6) >= 1);
        assert_eq!(fig12_configs().len(), 5);
    }

    #[test]
    fn scale_factor_defaults_without_env() {
        // MXQ_SCALE is not set in the test environment
        if std::env::var("MXQ_SCALE").is_err() {
            assert_eq!(scale_factor(0.002), 0.002);
            assert_eq!(scale_factors(&[0.001, 0.004]), vec![0.001, 0.004]);
        }
    }

    #[test]
    fn saturation_workload_runs_until_deadline() {
        let xml = xmark_xml(0.0005);
        let db = xmark_db(&xml);
        let report = run_saturation_workload(&db, 2, std::time::Duration::from_millis(120), 7);
        assert_eq!(report.reader_sessions, 2);
        assert!(report.reads > 0, "readers must complete work");
        assert!(report.writes > 0, "the writer must complete work");
        assert!(report.elapsed_secs >= 0.1);
        assert!(report.reads_per_sec > 0.0);
        assert!(report.write_latency_ms > 0.0);
    }

    #[test]
    fn multi_writer_saturation_runs_without_latch_waits() {
        let xml = xmark_xml(0.0005);
        let db = xmark_multi_writer_db(&xml, 2);
        let before = db.stats();
        let report =
            run_multi_writer_saturation(&db, 2, 1, std::time::Duration::from_millis(120), 9);
        assert_eq!(report.writer_sessions, 2);
        assert!(report.writes > 0, "writers must complete work");
        assert!(report.reads > 0, "the reader must complete work");
        assert_eq!(report.latch_waits, 0, "disjoint docs must not contend");
        assert_eq!(report.latch_conflicts, 0);
        let line = contention_summary(&before, &db.stats());
        assert!(line.contains("latch waits 0"), "{line}");
    }

    #[test]
    fn mixed_workload_runs_and_mutates() {
        let xml = xmark_xml(0.0005);
        let db = xmark_db(&xml);
        let report = run_mixed_workload(&db, 2, 50, 30, 42);
        assert_eq!(report.reads + report.writes, 30);
        assert_eq!(report.reader_sessions, 2);
        assert!(report.writes > 0, "a 50/50 mix over 30 ops must write");
        assert!(report.stats.tuples_written > 0);
        assert!(report.ops_per_sec > 0.0);
        // the op mix is deterministic for a given seed on a fresh database
        let db2 = xmark_db(&xml);
        let report2 = run_mixed_workload(&db2, 2, 50, 30, 42);
        assert_eq!(report.reads, report2.reads);
        assert_eq!(report.writes, report2.writes);
        assert_eq!(report.primitives, report2.primitives);
        // the second run over the same database is served by the plan cache
        let report3 = run_mixed_workload(&db, 2, 50, 30, 42);
        assert!(report3.plan_cache_hit_rate().unwrap_or(0.0) > 0.3);
    }
}
