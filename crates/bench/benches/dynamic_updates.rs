//! Criterion bench: update throughput of the dynamic indexes (the
//! "Dynamic" columns of Tables 1 and 2): TOL and DAGGER edge
//! insert/delete, DBL insert, DLCR labeled insert/delete.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reach_bench::workloads::Shape;
use reach_core::dagger::DynamicGrail;
use reach_core::dbl::Dbl;
use reach_core::tol::{OrderStrategy, Tol};
use reach_core::ReachIndex;
use reach_graph::{Dag, Label, VertexId};
use reach_labeled::dlcr::Dlcr;
use reach_labeled::LcrIndex;
use std::hint::black_box;
use std::time::Duration;

fn random_edge(n: u32, rng: &mut SmallRng) -> (VertexId, VertexId) {
    let u = rng.random_range(0..n);
    let mut v = rng.random_range(0..n - 1);
    if v >= u {
        v += 1;
    }
    (VertexId(u), VertexId(v))
}

fn bench_dynamic(c: &mut Criterion) {
    let n = 1_000u32;
    let base = Shape::Cyclic.generate(n as usize, 23);
    let dag_base = Dag::new(Shape::Sparse.generate(n as usize, 24)).unwrap();
    let labeled = Shape::Cyclic.generate_labeled(200, 3, 25);

    let mut group = c.benchmark_group("dynamic_updates");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));

    group.bench_function("TOL/insert+delete", |b| {
        b.iter_batched(
            || {
                (
                    Tol::build(&base, OrderStrategy::DegreeDescending, 1),
                    SmallRng::seed_from_u64(1),
                )
            },
            |(mut tol, mut rng)| {
                for _ in 0..32 {
                    let (u, v) = random_edge(n, &mut rng);
                    tol.insert_edge(u, v);
                    let (u, v) = random_edge(n, &mut rng);
                    tol.delete_edge(u, v);
                }
                black_box(tol.size_entries())
            },
            criterion::BatchSize::LargeInput,
        )
    });

    group.bench_function("DAGGER/insert+delete", |b| {
        b.iter_batched(
            || {
                (
                    DynamicGrail::build(&dag_base, 2, 3),
                    SmallRng::seed_from_u64(2),
                )
            },
            |(mut dagger, mut rng)| {
                for _ in 0..32 {
                    // forward edges keep the stream acyclic
                    let u = rng.random_range(0..n - 1);
                    let v = rng.random_range(u + 1..n);
                    dagger.insert_edge(VertexId(u), VertexId(v));
                    let (u, v) = random_edge(n, &mut rng);
                    dagger.delete_edge(u, v);
                }
                black_box(dagger.size_entries())
            },
            criterion::BatchSize::LargeInput,
        )
    });

    group.bench_function("DBL/insert-only", |b| {
        b.iter_batched(
            || (Dbl::build(&base), SmallRng::seed_from_u64(3)),
            |(mut dbl, mut rng)| {
                for _ in 0..32 {
                    let (u, v) = random_edge(n, &mut rng);
                    dbl.insert_edge(u, v);
                }
                black_box(dbl.size_entries())
            },
            criterion::BatchSize::LargeInput,
        )
    });

    group.bench_function("DLCR/insert+delete", |b| {
        b.iter_batched(
            || (Dlcr::build(&labeled), SmallRng::seed_from_u64(4)),
            |(mut dlcr, mut rng)| {
                for _ in 0..16 {
                    let (u, v) = random_edge(200, &mut rng);
                    let l = Label(rng.random_range(0..3u8));
                    dlcr.insert_edge(u, l, v);
                    let (u, v) = random_edge(200, &mut rng);
                    let l = Label(rng.random_range(0..3u8));
                    dlcr.delete_edge(u, l, v);
                }
                black_box(dlcr.size_entries())
            },
            criterion::BatchSize::LargeInput,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_dynamic);
criterion_main!(benches);
