//! Criterion ablation: the size/precision parameter of each partial
//! index — GRAIL's tree count, Ferrari's interval budget, IP's
//! k-min-wise size, BFL's Bloom bits (the design choices §3.1/§3.3
//! describe; larger k prunes more per lookup but costs more space).

use criterion::{criterion_group, criterion_main, Criterion};
use reach_bench::queries::query_mix;
use reach_bench::workloads::Shape;
use reach_core::bfl::build_bfl;
use reach_core::ferrari::build_ferrari;
use reach_core::grail::build_grail;
use reach_core::ip::build_ip;
use reach_core::ReachIndex;
use reach_graph::Dag;
use std::hint::black_box;
use std::time::Duration;

fn bench_ablation_k(c: &mut Criterion) {
    let graph = Shape::Sparse.generate(5_000, 31);
    let dag = Dag::new(graph).expect("sparse shape is acyclic");
    let mix = query_mix(dag.graph(), 256, 0.3, 13);
    let mut group = c.benchmark_group("ablation_k");
    group
        .sample_size(15)
        .measurement_time(Duration::from_secs(3));

    let run = |group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>,
               label: String,
               idx: &dyn ReachIndex| {
        group.bench_function(label, |b| {
            b.iter(|| {
                for &(s, t) in &mix.pairs {
                    black_box(idx.query(s, t));
                }
            })
        });
    };

    for k in [1, 2, 4, 8] {
        let idx = build_grail(&dag, k, 7, 1);
        run(&mut group, format!("GRAIL/k={k}"), &idx);
    }
    for budget in [1, 2, 4, 8] {
        let idx = build_ferrari(&dag, budget);
        run(&mut group, format!("Ferrari/budget={budget}"), &idx);
    }
    for k in [2, 8, 32] {
        let idx = build_ip(&dag, k, 7);
        run(&mut group, format!("IP/k={k}"), &idx);
    }
    for bits in [64, 256, 1024] {
        let idx = build_bfl(&dag, bits, 7);
        run(&mut group, format!("BFL/bits={bits}"), &idx);
    }
    group.finish();
}

criterion_group!(benches, bench_ablation_k);
criterion_main!(benches);
