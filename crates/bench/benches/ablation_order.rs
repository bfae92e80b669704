//! Criterion ablation: the vertex total order of the TOL framework —
//! §3.2's point that TFL/DL/PLL are order instantiations of one
//! scheme. Degree order should beat arbitrary id order on hub-heavy
//! graphs in both label volume and query time.

use criterion::{criterion_group, criterion_main, Criterion};
use reach_bench::queries::query_mix;
use reach_bench::workloads::Shape;
use reach_core::pll::Pll;
use reach_core::tol::{build_tfl, OrderStrategy, Tol};
use reach_core::ReachIndex;
use reach_graph::Dag;
use std::hint::black_box;
use std::time::Duration;

fn bench_ablation_order(c: &mut Criterion) {
    let graph = Shape::PowerLaw.generate(3_000, 17);
    let dag = Dag::new(graph).expect("power-law shape is acyclic");
    let mix = query_mix(dag.graph(), 256, 0.5, 19);

    let mut group = c.benchmark_group("ablation_order_build");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("TOL/degree", |b| {
        b.iter(|| black_box(Tol::build(dag.graph(), OrderStrategy::DegreeDescending, 1)))
    });
    group.bench_function("TOL/by-id", |b| {
        b.iter(|| black_box(Tol::build(dag.graph(), OrderStrategy::ById, 1)))
    });
    group.bench_function("TFL/topological", |b| {
        b.iter(|| black_box(build_tfl(&dag, 1)))
    });
    group.bench_function("PLL/degree+pruning", |b| {
        b.iter(|| black_box(Pll::build(dag.graph())))
    });
    group.finish();

    let mut group = c.benchmark_group("ablation_order_query");
    group
        .sample_size(15)
        .measurement_time(Duration::from_secs(3));
    let variants: Vec<(&str, Box<dyn ReachIndex>)> = vec![
        (
            "TOL/degree",
            Box::new(Tol::build(dag.graph(), OrderStrategy::DegreeDescending, 1)),
        ),
        (
            "TOL/by-id",
            Box::new(Tol::build(dag.graph(), OrderStrategy::ById, 1)),
        ),
        ("TFL/topological", Box::new(build_tfl(&dag, 1))),
        ("PLL/degree+pruning", Box::new(Pll::build(dag.graph()))),
    ];
    for (name, idx) in &variants {
        group.bench_function(*name, |b| {
            b.iter(|| {
                for &(s, t) in &mix.pairs {
                    black_box(idx.query(s, t));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablation_order);
criterion_main!(benches);
