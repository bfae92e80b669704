//! Criterion bench for §5's scaling claim: approximate-TC and
//! tree-cover partial indexes build in near-linear time, so growing
//! the graph 4× grows the build ~4× (BFL's "a few seconds on millions
//! of vertices" — scaled to bench-friendly sizes; the `claims` binary
//! runs the full-size configuration).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use reach_bench::workloads::Shape;
use reach_core::pipeline::{build_plain, BuildOpts};
use reach_graph::PreparedGraph;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn bench_build_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("build_scaling");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    let opts = BuildOpts::default();
    for n in [10_000usize, 40_000] {
        let g = Arc::new(Shape::PowerLaw.generate(n, 5));
        group.throughput(Throughput::Elements(g.num_edges() as u64));
        for name in ["BFL", "IP", "GRAIL", "Feline", "PReaCH"] {
            group.bench_with_input(BenchmarkId::new(name, n), &g, |b, g| {
                b.iter(|| {
                    // a fresh prepared graph: every build pays for its condensation
                    let prepared = PreparedGraph::new_shared(Arc::clone(g));
                    black_box(build_plain(name, &prepared, &opts))
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_build_scaling);
criterion_main!(benches);
