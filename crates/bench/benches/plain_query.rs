//! Criterion bench: query throughput of every plain index on a fixed
//! workload (Table 1, empirical "query time" column).

use criterion::{criterion_group, criterion_main, Criterion};
use reach_bench::queries::query_mix;
use reach_bench::workloads::Shape;
use reach_core::pipeline::{build_plain, plain_feasible, plain_names, BuildOpts};
use reach_graph::PreparedGraph;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn bench_plain_query(c: &mut Criterion) {
    let n = 2_000;
    let g = Arc::new(Shape::Sparse.generate(n, 42));
    let mix = query_mix(&g, 512, 0.5, 7);
    let mut group = c.benchmark_group("plain_query");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    let prepared = PreparedGraph::new_shared(Arc::clone(&g));
    for name in plain_names() {
        if !plain_feasible(name, n, g.num_edges()) {
            continue;
        }
        let (idx, _) = build_plain(name, &prepared, &BuildOpts::default()).expect("registry name");
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for &(s, t) in &mix.pairs {
                    if idx.query(black_box(s), black_box(t)) {
                        hits += 1;
                    }
                }
                black_box(hits)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_plain_query);
criterion_main!(benches);
