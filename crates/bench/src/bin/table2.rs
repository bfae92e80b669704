//! Regenerates **Table 2** of the survey: the taxonomy of
//! path-constrained reachability indexes, plus (with `--empirical`)
//! measured build/size/query comparisons for the alternation (LCR)
//! family and the concatenation (RLC) index.
//!
//! ```text
//! cargo run --release -p reach-bench --bin table2 -- [--empirical] [--n 1000]
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reach_bench::args::{self, Flag};
use reach_bench::queries::random_pair;
use reach_bench::report::{fmt_bytes, fmt_duration, taxonomy_cells, timed, Table};
use reach_bench::workloads::Shape;
use reach_core::pipeline::BuildOpts;
use reach_graph::{fixtures, Label, LabelSet, VertexId};
use reach_labeled::online::{lcr_bfs, rlc_bfs};
use reach_labeled::rlc::RlcIndex;
use reach_labeled::{ConstraintClass, LcrFramework, LCR_REGISTRY};
use std::sync::Arc;

/// The columns of both measured comparisons.
const COLUMNS: [&str; 6] = [
    "Technique",
    "Build",
    "Entries",
    "Bytes",
    "Query(total)",
    "Query(avg)",
];

fn framework_name(f: LcrFramework) -> &'static str {
    match f {
        LcrFramework::TreeCover => "Tree cover",
        LcrFramework::Gtc => "GTC",
        LcrFramework::TwoHop => "2-Hop",
    }
}

fn print_matrix() {
    println!("Table 2: path-constrained reachability indexes (implemented taxonomy)\n");
    let g = Arc::new(fixtures::figure1b());
    let mut table = Table::new([
        "Indexing Technique",
        "Framework",
        "Path Constraint",
        "Index type",
        "Input",
        "Dynamic",
    ]);
    let mut metas: Vec<reach_labeled::LabeledIndexMeta> = LCR_REGISTRY
        .specs
        .iter()
        .filter(|s| s.name != "GTC")
        .map(|s| s.meta)
        .collect();
    metas.push(RlcIndex::build(&g, 2).expect("a small alphabet").meta());
    for m in metas {
        let named = [
            format!("{} {}", m.name, m.citation),
            framework_name(m.framework).to_string(),
            match m.constraint {
                ConstraintClass::Alternation => "Alternation".to_string(),
                ConstraintClass::Concatenation => "Concatenation".to_string(),
            },
        ];
        table.row(
            named
                .into_iter()
                .chain(taxonomy_cells(m.completeness, m.input, m.dynamism)),
        );
    }
    println!("{}", table.render());
}

/// LCR query workload: pairs plus random alternation constraints.
fn lcr_queries(
    g: &reach_graph::LabeledGraph,
    count: usize,
    seed: u64,
) -> Vec<(VertexId, VertexId, LabelSet)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let k = g.num_labels();
    (0..count)
        .map(|_| {
            let (s, t) = random_pair(g.num_vertices(), &mut rng);
            // constraints with 1..k labels, biased toward small sets
            let size = 1 + rng.random_range(0..k);
            let mut set = LabelSet::EMPTY;
            for _ in 0..size {
                set = set.insert(Label(rng.random_range(0..k as u8)));
            }
            (s, t, set)
        })
        .collect()
}

fn empirical(n: usize) {
    for shape in [Shape::Sparse, Shape::PowerLaw, Shape::Cyclic] {
        let g = Arc::new(shape.generate_labeled(n, 8, 42));
        let queries = lcr_queries(&g, 1_000, 9);
        let expected: Vec<bool> = queries
            .iter()
            .map(|&(s, t, allowed)| lcr_bfs(&g, s, t, allowed))
            .collect();
        let positives = expected.iter().filter(|&&b| b).count();
        println!(
            "\nworkload {} (n={}, m={}, |L|=8, {} LCR queries, {} satisfiable)",
            shape.name(),
            g.num_vertices(),
            g.num_edges(),
            queries.len(),
            positives
        );
        let mut table = Table::new(COLUMNS);
        // the online baseline first
        let (_, online_total) = timed(|| {
            for &(s, t, allowed) in &queries {
                std::hint::black_box(lcr_bfs(&g, s, t, allowed));
            }
        });
        table.row([
            "online label-BFS".to_string(),
            "-".to_string(),
            "0".to_string(),
            "0B".to_string(),
            fmt_duration(online_total),
            fmt_duration(online_total / queries.len() as u32),
        ]);
        for name in LCR_REGISTRY.names() {
            if !LCR_REGISTRY.feasible(name, g.num_vertices(), g.num_edges()) {
                table.row_padded([name, "(skipped: infeasible at this size)"]);
                continue;
            }
            let (idx, report) = LCR_REGISTRY
                .build(name, &g, &BuildOpts::default())
                .expect("registry name");
            let (answers, q) = timed(|| {
                queries
                    .iter()
                    .map(|&(s, t, allowed)| idx.query(s, t, allowed))
                    .collect::<Vec<bool>>()
            });
            assert_eq!(answers, expected, "{name} answered a query wrongly");
            table.row([
                name.to_string(),
                fmt_duration(report.total),
                report.size_entries.to_string(),
                fmt_bytes(report.size_bytes),
                fmt_duration(q),
                fmt_duration(q / queries.len() as u32),
            ]);
        }
        println!("{}", table.render());
    }

    // RLC: the concatenation-based index vs the online product BFS
    let n_rlc = n.min(300);
    let g = Arc::new(Shape::Sparse.generate_labeled(n_rlc, 4, 43));
    let mut rng = SmallRng::seed_from_u64(17);
    let units: Vec<Vec<Label>> = (0..200)
        .map(|_| {
            let len = 1 + rng.random_range(0..2);
            (0..len).map(|_| Label(rng.random_range(0..4u8))).collect()
        })
        .collect();
    let pairs: Vec<(VertexId, VertexId)> = (0..units.len())
        .map(|_| random_pair(n_rlc, &mut rng))
        .collect();
    println!(
        "\nRLC workload sparse-dag (n={}, |L|=4, {} concatenation queries, kmax ∈ {{1, 2}})",
        n_rlc,
        units.len()
    );
    let (expected, online_total) = timed(|| {
        pairs
            .iter()
            .zip(&units)
            .map(|(&(s, t), u)| rlc_bfs(&g, s, t, u))
            .collect::<Vec<bool>>()
    });
    let mut table = Table::new(COLUMNS);
    table.row([
        "online product-BFS".into(),
        "-".to_string(),
        "0".into(),
        "0B".into(),
        fmt_duration(online_total),
        fmt_duration(online_total / pairs.len() as u32),
    ]);
    for kmax in [1, 2] {
        let (idx, build) =
            timed(|| RlcIndex::build(&g, kmax).expect("|L| = 4, kmax ≤ 2: 20 units"));
        // an index answers only units up to its kmax
        let answerable: Vec<usize> = (0..units.len())
            .filter(|&i| units[i].len() <= kmax)
            .collect();
        let (answers, q) = timed(|| {
            answerable
                .iter()
                .map(|&i| idx.try_query(pairs[i].0, pairs[i].1, &units[i]).unwrap())
                .collect::<Vec<bool>>()
        });
        let want: Vec<bool> = answerable.iter().map(|&i| expected[i]).collect();
        assert_eq!(answers, want, "RLC kmax={kmax} answered a query wrongly");
        table.row([
            format!("RLC index kmax={kmax} ({} queries)", answerable.len()),
            fmt_duration(build),
            idx.size_entries().to_string(),
            fmt_bytes(idx.size_bytes()),
            fmt_duration(q),
            fmt_duration(q / answerable.len().max(1) as u32),
        ]);
    }
    println!("{}", table.render());
}

fn main() {
    let (n, run_empirical) = args::from_env(
        &[Flag::Switch("--empirical"), Flag::Value("--n")],
        "table2 [--empirical] [--n N]",
        |a| Ok((a.get_at_least("--n", 1_000, 2)?, a.has("--empirical"))),
    );
    print_matrix();
    if run_empirical {
        empirical(n);
    } else {
        println!("(run with --empirical [--n N] for the measured comparison)");
    }
}
