//! Criterion bench: construction time of every plain index (Table 1,
//! empirical "build time" column). Partial indexes must build in
//! near-linear time — the survey's §3.1/§3.3 scalability observation.

use criterion::{criterion_group, criterion_main, Criterion};
use reach_bench::workloads::Shape;
use reach_core::pipeline::{build_plain, plain_feasible, plain_names, BuildOpts};
use reach_graph::PreparedGraph;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn bench_plain_build(c: &mut Criterion) {
    let n = 2_000;
    let g = Arc::new(Shape::Sparse.generate(n, 42));
    let mut group = c.benchmark_group("plain_build");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let opts = BuildOpts::default();
    for name in plain_names() {
        if !plain_feasible(name, n, g.num_edges()) || name.starts_with("online") {
            continue;
        }
        group.bench_function(name, |b| {
            b.iter(|| {
                // a fresh prepared graph: every build pays for its condensation
                let prepared = PreparedGraph::new_shared(Arc::clone(&g));
                black_box(build_plain(name, &prepared, &opts))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_plain_build);
criterion_main!(benches);
