//! Parameter sweeps for the design choices the surveyed techniques
//! hinge on: the `k` of GRAIL/Ferrari/IP, the bit budget of BFL, the
//! landmark counts of HL, and the vertex order of TOL (with PLL, the
//! degree order plus pruning, next to it).
//!
//! Every registry-driven configuration builds over one shared
//! [`PreparedGraph`], so the whole sweep condenses the workload once
//! and the reported build times isolate each technique's own labeling
//! phase.
//!
//! ```text
//! cargo run --release -p reach-bench --bin sweep -- [--n 20000]
//! ```

use reach_bench::args::{self, Flag};
use reach_bench::queries::{query_mix, QueryMix};
use reach_bench::report::{fmt_bytes, fmt_duration, timed, Table};
use reach_bench::workloads::Shape;
use reach_core::pipeline::{BuildOpts, PLAIN_REGISTRY};
use reach_core::tol::{OrderStrategy, Tol};
use reach_core::ReachIndex;
use reach_graph::PreparedGraph;
use std::sync::Arc;
use std::time::Duration;

/// A registry entry's knob: entry name, knob name, the values swept,
/// and how a value is set in [`BuildOpts`].
type Knob = (
    &'static str,
    &'static str,
    &'static [usize],
    fn(&mut BuildOpts, usize),
);

/// Runs the query mix on `idx`, checks its answers count against the
/// mix, and appends a row with the build time, size and query speed.
fn sweep_row(
    table: &mut Table,
    label: &str,
    build: Duration,
    idx: &dyn ReachIndex,
    mix: &QueryMix,
) {
    let (hits, query_time) = timed(|| mix.pairs.iter().filter(|&&(s, t)| idx.query(s, t)).count());
    assert_eq!(hits, mix.positives, "{label} answered a query wrongly");
    table.row([
        label.to_string(),
        fmt_duration(build),
        idx.size_entries().to_string(),
        fmt_bytes(idx.size_bytes()),
        fmt_duration(query_time / mix.pairs.len() as u32),
    ]);
}

fn main() {
    let n = args::from_env(&[Flag::Value("--n")], "sweep [--n N]", |a| {
        a.get_at_least("--n", 20_000, 2)
    });

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

    let mut table = Table::new(["configuration", "build", "entries", "bytes", "avg query"]);
    // the build column of a registry configuration is its labeling
    // phase alone
    let knobs: [Knob; 5] = [
        ("GRAIL", "k", &[1, 2, 4, 8], |o, v| o.grail_k = v),
        ("Ferrari", "budget", &[1, 2, 4, 8], |o, v| {
            o.ferrari_budget = v
        }),
        ("IP", "k", &[2, 8, 32], |o, v| o.ip_k = v),
        ("BFL", "bits", &[64, 256, 1024], |o, v| o.bfl_bits = v),
        ("HL", "landmarks", &[4, 16, 64], |o, v| o.landmarks = v),
    ];
    for (name, knob, values, set) in knobs {
        for &value in values {
            let mut opts = BuildOpts::default();
            set(&mut opts, value);
            let (idx, report) = PLAIN_REGISTRY
                .build(name, &prepared, &opts)
                .expect("registry name");
            let label = format!("{name} {knob}={value}");
            sweep_row(&mut table, &label, report.label, idx.as_ref(), &mix);
        }
    }
    // vertex orders sit outside the registry's knobs: built directly
    for (label, strategy) in [
        ("TOL order=degree", OrderStrategy::DegreeDescending),
        ("TOL order=by-id", OrderStrategy::ById),
    ] {
        let (idx, build) = timed(|| Tol::build(&graph, strategy, 1));
        sweep_row(&mut table, label, build, &idx, &mix);
    }
    let (idx, build) = timed(|| reach_core::pll::Pll::build(&graph));
    sweep_row(&mut table, "PLL (degree + pruning)", build, &idx, &mix);
    // TFL answers in the ID space of the DAG it is built on, so give
    // it the workload graph directly (it is a DAG), not the renumbered
    // condensation
    let dag = reach_graph::Dag::new_shared(Arc::clone(&graph)).expect("sweep workload is a DAG");
    let (idx, build) = timed(|| reach_core::tol::build_tfl(&dag, 1));
    sweep_row(&mut table, "TFL (topological order)", build, &idx, &mix);
    println!("{}", table.render());
    println!(
        "condensation runs over the whole sweep: {} (shared artifact)",
        prepared.condensation_runs()
    );
    assert!(prepared.condensation_runs() <= 1);
}
