//! Criterion bench: LCR/RLC index construction time (Table 2,
//! empirical "build time"; §5's "construction cost … is high" claim).

use criterion::{criterion_group, criterion_main, Criterion};
use reach_bench::workloads::Shape;
use reach_core::pipeline::BuildOpts;
use reach_labeled::pipeline::{build_lcr, lcr_feasible, lcr_names};
use reach_labeled::rlc::RlcIndex;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn bench_lcr_build(c: &mut Criterion) {
    let n = 600;
    let g = Arc::new(Shape::Sparse.generate_labeled(n, 8, 42));
    let mut group = c.benchmark_group("lcr_build");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    for name in lcr_names() {
        if !lcr_feasible(name, n) {
            continue;
        }
        group.bench_function(name, |b| {
            b.iter(|| black_box(build_lcr(name, &g, &BuildOpts::default())))
        });
    }
    group.finish();
}

fn bench_rlc_build(c: &mut Criterion) {
    let g = Arc::new(Shape::Sparse.generate_labeled(200, 4, 43));
    let mut group = c.benchmark_group("rlc_build");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    for kmax in [1, 2] {
        group.bench_function(format!("RLC kmax={kmax}"), |b| {
            b.iter(|| black_box(RlcIndex::build(&g, kmax)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lcr_build, bench_rlc_build);
criterion_main!(benches);
