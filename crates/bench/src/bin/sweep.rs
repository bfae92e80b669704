//! Parameter sweeps for the design choices the surveyed techniques
//! hinge on: the `k` of GRAIL/Ferrari/IP, the bit budget of BFL, the
//! landmark counts of HL, and the vertex order of TOL. Complements the
//! Criterion ablation benches with a human-readable report.
//!
//! Every registry-driven configuration builds over one shared
//! [`PreparedGraph`], so the whole sweep condenses the workload once
//! and the reported build times isolate each technique's own labeling
//! phase.
//!
//! ```text
//! cargo run --release -p reach-bench --bin sweep -- [--n 20000]
//! ```

use reach_bench::queries::query_mix;
use reach_bench::report::{fmt_bytes, fmt_duration, timed, Table};
use reach_bench::workloads::Shape;
use reach_core::pipeline::{build_plain, BuildOpts};
use reach_core::tol::{OrderStrategy, Tol};
use reach_core::ReachIndex;
use reach_graph::PreparedGraph;
use std::sync::Arc;

fn count_hits(
    idx: &dyn ReachIndex,
    mix: &reach_bench::queries::QueryMix,
) -> (usize, std::time::Duration) {
    timed(|| {
        let mut hits = 0;
        for &(s, t) in &mix.pairs {
            if idx.query(s, t) {
                hits += 1;
            }
        }
        hits
    })
}

/// Builds registry entry `name` under `opts` on the shared prepared
/// graph and appends a row with its labeling time and query speed.
fn sweep_spec(
    table: &mut Table,
    label: String,
    name: &str,
    prepared: &PreparedGraph,
    opts: &BuildOpts,
    mix: &reach_bench::queries::QueryMix,
) {
    let (idx, report) = build_plain(name, prepared, opts).expect("registry name");
    let (hits, query_time) = count_hits(idx.as_ref(), mix);
    assert_eq!(hits, mix.positives);
    table.row([
        label,
        fmt_duration(report.label),
        idx.size_entries().to_string(),
        fmt_bytes(idx.size_bytes()),
        fmt_duration(query_time / mix.pairs.len() as u32),
    ]);
}

/// A configuration outside the registry's knobs (TOL vertex orders),
/// built directly.
fn sweep_raw<I: ReachIndex>(
    table: &mut Table,
    label: String,
    build: impl FnOnce() -> I,
    mix: &reach_bench::queries::QueryMix,
) {
    let (idx, build_time) = timed(build);
    let (hits, query_time) = count_hits(&idx, mix);
    assert_eq!(hits, mix.positives);
    table.row([
        label,
        fmt_duration(build_time),
        idx.size_entries().to_string(),
        fmt_bytes(idx.size_bytes()),
        fmt_duration(query_time / mix.pairs.len() as u32),
    ]);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut n = 20_000usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--n" => {
                i += 1;
                n = args[i].parse().expect("--n takes a number");
            }
            other => panic!("unknown argument {other:?}"),
        }
        i += 1;
    }

    let graph = Arc::new(Shape::Sparse.generate(n, 31));
    let prepared = PreparedGraph::new_shared(Arc::clone(&graph));
    let mix = query_mix(&graph, 2_000, 0.3, 13);
    println!(
        "sweep workload: sparse-dag n={} m={} ({} queries, {} reachable)\n",
        graph.num_vertices(),
        graph.num_edges(),
        mix.pairs.len(),
        mix.positives
    );

    let defaults = BuildOpts::default();
    let mut table = Table::new(["configuration", "build", "entries", "bytes", "avg query"]);
    for k in [1, 2, 4, 8] {
        let opts = BuildOpts {
            grail_k: k,
            ..defaults.clone()
        };
        sweep_spec(
            &mut table,
            format!("GRAIL k={k}"),
            "GRAIL",
            &prepared,
            &opts,
            &mix,
        );
    }
    for budget in [1, 2, 4, 8] {
        let opts = BuildOpts {
            ferrari_budget: budget,
            ..defaults.clone()
        };
        sweep_spec(
            &mut table,
            format!("Ferrari budget={budget}"),
            "Ferrari",
            &prepared,
            &opts,
            &mix,
        );
    }
    for k in [2, 8, 32] {
        let opts = BuildOpts {
            ip_k: k,
            ..defaults.clone()
        };
        sweep_spec(
            &mut table,
            format!("IP k={k}"),
            "IP",
            &prepared,
            &opts,
            &mix,
        );
    }
    for bits in [64, 256, 1024] {
        let opts = BuildOpts {
            bfl_bits: bits,
            ..defaults.clone()
        };
        sweep_spec(
            &mut table,
            format!("BFL bits={bits}"),
            "BFL",
            &prepared,
            &opts,
            &mix,
        );
    }
    for landmarks in [4, 16, 64] {
        let opts = BuildOpts {
            landmarks,
            ..defaults.clone()
        };
        sweep_spec(
            &mut table,
            format!("HL landmarks={landmarks}"),
            "HL",
            &prepared,
            &opts,
            &mix,
        );
    }
    for (name, strategy) in [
        ("degree", OrderStrategy::DegreeDescending),
        ("by-id", OrderStrategy::ById),
    ] {
        sweep_raw(
            &mut table,
            format!("TOL order={name}"),
            || Tol::build(&graph, strategy, 1),
            &mix,
        );
    }
    // TFL answers in the ID space of the DAG it is built on, so give
    // it the workload graph directly (it is a DAG), not the renumbered
    // condensation
    let dag = reach_graph::Dag::new_shared(Arc::clone(&graph)).expect("sweep workload is a DAG");
    sweep_raw(
        &mut table,
        "TFL (topological order)".to_string(),
        || reach_core::tol::build_tfl(&dag, 1),
        &mix,
    );
    println!("{}", table.render());
    println!(
        "condensation runs over the whole sweep: {} (shared artifact)",
        prepared.condensation_runs()
    );
    assert!(prepared.condensation_runs() <= 1);
}
