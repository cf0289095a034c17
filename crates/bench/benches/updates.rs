//! Section 5.2 — structural updates: chunk-wise remappable pre-numbers vs
//! naive renumbering.
//!
//! Each iteration inserts a small subtree into the middle of an XMark
//! document.  The naive scheme moves O(N) tuples per insert; the paged scheme
//! patches a constant number of column chunks (its logical pages).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mxq_bench::{scale_factors, xmark_xml};
use mxq_xmldb::update::{fragment_from_xml, NaiveDocument, PagedDocument, StructuralUpdate};
use mxq_xmldb::{shred, ShredOptions};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("updates");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    for factor in scale_factors(&[0.001, 0.004]) {
        let xml = xmark_xml(factor);
        let doc = shred("auction.xml", &xml, &ShredOptions::default()).unwrap();
        let frag =
            fragment_from_xml("<bidder><date>2006-06-20</date><increase>6.00</increase></bidder>");
        // insert under the first open_auction element
        let target = doc.elements_named("open_auction")[0];

        group.bench_with_input(BenchmarkId::new("paged_insert", factor), &doc, |b, doc| {
            b.iter_batched(
                || PagedDocument::from_document(doc),
                |mut paged| {
                    for _ in 0..8 {
                        paged.insert_last_child(target, &frag);
                    }
                    paged.stats
                },
                criterion::BatchSize::LargeInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("naive_insert", factor), &doc, |b, doc| {
            b.iter_batched(
                || NaiveDocument::from_document(doc),
                |mut naive| {
                    for _ in 0..8 {
                        naive.insert_last_child(target, &frag);
                    }
                    naive.stats
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
