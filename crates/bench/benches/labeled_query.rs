//! Criterion bench: LCR query throughput per index, plus the RLC index
//! against its online baseline (Table 2, empirical "query time").

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reach_bench::workloads::Shape;
use reach_core::pipeline::BuildOpts;
use reach_graph::{Label, LabelSet, VertexId};
use reach_labeled::online::{lcr_bfs, rlc_bfs};
use reach_labeled::pipeline::{build_lcr, lcr_feasible, lcr_names};
use reach_labeled::rlc::RlcIndex;
use reach_labeled::RlcIndexApi;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn bench_lcr_query(c: &mut Criterion) {
    let n = 600;
    let k = 8usize;
    let g = Arc::new(Shape::Sparse.generate_labeled(n, k, 42));
    let mut rng = SmallRng::seed_from_u64(5);
    let queries: Vec<(VertexId, VertexId, LabelSet)> = (0..256)
        .map(|_| {
            let s = VertexId(rng.random_range(0..n as u32));
            let mut t = VertexId(rng.random_range(0..n as u32 - 1));
            if t >= s {
                t = VertexId(t.0 + 1);
            }
            (s, t, LabelSet(rng.random_range(1..(1u64 << k))))
        })
        .collect();

    let mut group = c.benchmark_group("lcr_query");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("online label-BFS", |b| {
        b.iter(|| {
            for &(s, t, allowed) in &queries {
                black_box(lcr_bfs(&g, s, t, allowed));
            }
        })
    });
    for name in lcr_names() {
        if !lcr_feasible(name, n) {
            continue;
        }
        let idx = build_lcr(name, &g, &BuildOpts::default()).expect("registry name");
        group.bench_function(name, |b| {
            b.iter(|| {
                for &(s, t, allowed) in &queries {
                    black_box(idx.query(s, t, allowed));
                }
            })
        });
    }
    group.finish();
}

fn bench_rlc_query(c: &mut Criterion) {
    let n = 200;
    let g = Arc::new(Shape::Sparse.generate_labeled(n, 4, 43));
    let mut rng = SmallRng::seed_from_u64(6);
    let queries: Vec<(VertexId, VertexId, Vec<Label>)> = (0..128)
        .map(|_| {
            let s = VertexId(rng.random_range(0..n as u32));
            let t = VertexId(rng.random_range(0..n as u32));
            let len = 1 + rng.random_range(0..2usize);
            let unit = (0..len).map(|_| Label(rng.random_range(0..4u8))).collect();
            (s, t, unit)
        })
        .collect();
    let idx = RlcIndex::build(&g, 2);

    let mut group = c.benchmark_group("rlc_query");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("online product-BFS", |b| {
        b.iter(|| {
            for (s, t, unit) in &queries {
                black_box(rlc_bfs(&g, *s, *t, unit));
            }
        })
    });
    group.bench_function("RLC index", |b| {
        b.iter(|| {
            for (s, t, unit) in &queries {
                black_box(idx.try_query(*s, *t, unit));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_lcr_query, bench_rlc_query);
criterion_main!(benches);
