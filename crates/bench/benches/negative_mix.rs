//! Criterion bench for §5's central claim: partial indexes *without
//! false negatives* dominate on unreachable-heavy query mixes, while a
//! no-false-positive partial (GRIPP) must keep traversing.

use criterion::{criterion_group, criterion_main, Criterion};
use reach_bench::queries::query_mix;
use reach_bench::workloads::Shape;
use reach_core::pipeline::{build_plain, BuildOpts};
use reach_graph::PreparedGraph;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn bench_negative_mix(c: &mut Criterion) {
    let n = 5_000;
    let g = Arc::new(Shape::Sparse.generate(n, 8));
    let mut group = c.benchmark_group("negative_mix");
    group
        .sample_size(15)
        .measurement_time(Duration::from_secs(3));
    let prepared = PreparedGraph::new_shared(Arc::clone(&g));
    for share_negative in [10usize, 50, 90] {
        let mix = query_mix(&g, 256, 1.0 - share_negative as f64 / 100.0, 11);
        for name in ["GRAIL", "BFL", "IP", "Feline", "GRIPP", "online-BFS"] {
            let (idx, _) =
                build_plain(name, &prepared, &BuildOpts::default()).expect("registry name");
            group.bench_function(format!("{name}/neg{share_negative}%"), |b| {
                b.iter(|| {
                    for &(s, t) in &mix.pairs {
                        black_box(idx.query(s, t));
                    }
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_negative_mix);
criterion_main!(benches);
