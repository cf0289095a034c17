//! Figure 8 / Section 4.2 — existential join strategies.
//!
//! The theta-join queries Q11/Q12 (general comparison `>`, counted per
//! person by the fused `count(⋈)` operator) under the two strategies:
//!
//! * `minmax-pushdown` (`ExecConfig::default()`): the min/max aggregate
//!   push-down of Figure 8(b) leaves one candidate per person and per
//!   `initial`, so `count(⋈)` answers every person by rank — one sort of
//!   the `initial` keys and a binary search per income, no pairs built;
//! * `theta-join-then-distinct` (`existential_minmax: false`): the plain
//!   theta join of Figure 8(a); `count(⋈)` builds the pairs, removes
//!   duplicates (δ) and counts the pairs of every person.
//!
//! Before timing, the two configurations must serialize Q11 and Q12
//! identically.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use mxq_bench::{run_query, scale_factor, session_with_xmark, xmark_xml, SMALL_FACTOR};
use mxq_xmark::queries::query_text;
use mxq_xquery::ExecConfig;

const QUERIES: [usize; 2] = [11, 12];

fn bench(c: &mut Criterion) {
    let xml = xmark_xml(scale_factor(SMALL_FACTOR));
    let configs = [
        ("minmax-pushdown", ExecConfig::default()),
        (
            "theta-join-then-distinct",
            ExecConfig {
                existential_minmax: false,
                ..ExecConfig::default()
            },
        ),
    ];
    for query in QUERIES {
        let [rank, pairs] = configs.map(|(name, config)| {
            session_with_xmark(&xml, config)
                .query(query_text(query))
                .unwrap_or_else(|e| panic!("XMark Q{query} failed under {name}: {e}"))
                .serialize()
                .to_string()
        });
        assert!(
            rank == pairs,
            "Q{query}: the rank count and the pairs count serialize differently"
        );
    }

    let mut group = c.benchmark_group("existential_join");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    for (name, config) in configs {
        for query in QUERIES {
            let mut session = session_with_xmark(&xml, config);
            group.bench_function(format!("Q{query}/{name}"), |b| {
                b.iter(|| run_query(&mut session, query))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
