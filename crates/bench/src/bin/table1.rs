//! Regenerates **Table 1** of the survey: the taxonomy of plain
//! reachability indexes, plus (with `--empirical`) the measured
//! consequences of each classification — build time, index size, and
//! query time per technique and workload shape.
//!
//! ```text
//! cargo run --release -p reach-bench --bin table1 -- [--empirical] [--n 5000]
//! ```

use reach_bench::args::{self, Flag};
use reach_bench::queries::query_mix;
use reach_bench::report::{fmt_bytes, fmt_condense, fmt_duration, taxonomy_cells, timed, Table};
use reach_bench::workloads::Shape;
use reach_core::pipeline::{BuildOpts, PLAIN_REGISTRY};
use reach_core::Framework;
use reach_graph::PreparedGraph;
use std::sync::Arc;

fn framework_name(f: Framework) -> &'static str {
    match f {
        Framework::TransitiveClosure => "TC",
        Framework::TreeCover => "Tree cover",
        Framework::TwoHop => "2-Hop",
        Framework::ApproximateTc => "Approximate TC",
        Framework::Other => "-",
    }
}

fn print_matrix() {
    println!("Table 1: plain reachability indexes (implemented taxonomy)\n");
    let mut table = Table::new([
        "Indexing Technique",
        "Framework",
        "Index Type",
        "Input",
        "Dynamic",
    ]);
    for spec in PLAIN_REGISTRY.specs {
        if spec.name.starts_with("online") {
            continue;
        }
        let m = spec.meta;
        let named = [
            format!("{} {}", m.name, m.citation),
            framework_name(m.framework).to_string(),
        ];
        table.row(
            named
                .into_iter()
                .chain(taxonomy_cells(m.completeness, m.input, m.dynamism)),
        );
    }
    println!("{}", table.render());
    println!("Substitutions vs. the paper's Table 1 (see DESIGN.md §2):");
    println!("  - Path-tree [24,27] and 3-Hop [26] are represented by Chain cover [20].");
    println!("  - U2-hop [7] and Ralf et al. [39] (incremental 2-hop) are represented");
    println!("    by TOL's insert/delete maintenance, which supersedes them [55].");
    println!("  - Path-hop [8] (tree-intermediated 3-hop) is not separately implemented.");
}

fn empirical(n: usize) {
    let opts = BuildOpts::default();
    for shape in [Shape::Sparse, Shape::Dense, Shape::PowerLaw, Shape::Cyclic] {
        let g = Arc::new(shape.generate(n, 42));
        let mix = query_mix(&g, 2_000, 0.5, 7);
        println!(
            "\nworkload {} (n={}, m={}, {} queries, {} reachable)",
            shape.name(),
            g.num_vertices(),
            g.num_edges(),
            mix.pairs.len(),
            mix.positives
        );
        // one PreparedGraph per workload: the whole sweep condenses once
        let prepared = PreparedGraph::new_shared(Arc::clone(&g));
        let mut table = Table::new([
            "Technique",
            "Build",
            "Condense",
            "Label",
            "Entries",
            "Bytes",
            "Query(total)",
            "Query(avg)",
        ]);
        for name in PLAIN_REGISTRY.names() {
            if !PLAIN_REGISTRY.feasible(name, g.num_vertices(), g.num_edges()) {
                table.row_padded([name, "(skipped: infeasible at this size)"]);
                continue;
            }
            let (idx, report) = PLAIN_REGISTRY
                .build(name, &prepared, &opts)
                .expect("registry name");
            let (hits, q) = timed(|| {
                let mut hits = 0usize;
                for &(s, t) in &mix.pairs {
                    if idx.query(s, t) {
                        hits += 1;
                    }
                }
                hits
            });
            assert_eq!(hits, mix.positives, "{name} answered a query wrongly");
            table.row([
                name.to_string(),
                fmt_duration(report.total),
                fmt_condense(&report),
                fmt_duration(report.label),
                report.size_entries.to_string(),
                fmt_bytes(report.size_bytes),
                fmt_duration(q),
                fmt_duration(q / mix.pairs.len() as u32),
            ]);
        }
        println!("{}", table.render());
        assert!(
            prepared.condensation_runs() <= 1,
            "the sweep must share one condensation"
        );
    }
}

fn main() {
    let (n, run_empirical) = args::from_env(
        &[Flag::Switch("--empirical"), Flag::Value("--n")],
        "table1 [--empirical] [--n N]",
        |a| Ok((a.get_at_least("--n", 5_000, 2)?, a.has("--empirical"))),
    );
    print_matrix();
    if run_empirical {
        empirical(n);
    } else {
        println!("\n(run with --empirical [--n N] for the measured comparison)");
    }
}
