//! Table 1 — XMark query evaluation, this engine vs. the naive comparator.
//!
//! The paper's Table 1 compares MonetDB/XQuery against eXist, Galax, X-Hive
//! and BerkeleyDB XML.  Those systems are substituted by the naive
//! DOM-walking interpreter (`mxq_xmark::naive`); the shape to reproduce is that
//! the relational engine wins clearly on the join queries (Q8–Q12) and the
//! path-heavy queries, while simple lookups are close.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use mxq_bench::{run_query, run_query_naive, scale_factor, session_with_xmark, xmark_xml};
use mxq_xquery::ExecConfig;

fn bench(c: &mut Criterion) {
    // keep the naive interpreter affordable: very small instance
    let xml = xmark_xml(scale_factor(0.0005));
    let mut group = c.benchmark_group("table1_xmark");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    // a representative subset: lookup, construction, aggregation, joins, paths
    let queries = [1usize, 2, 5, 6, 8, 11, 14, 15, 19, 20];
    let mut session = session_with_xmark(&xml, ExecConfig::default());
    for q in queries {
        group.bench_function(format!("Q{q}/relational"), |b| {
            b.iter(|| run_query(&mut session, q))
        });
        group.bench_function(format!("Q{q}/naive"), |b| {
            b.iter(|| run_query_naive(&xml, q))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
