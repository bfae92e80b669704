//! An index advisor: measure the Table-1 candidates on *your* workload
//! and pick one — the decision §5 of the survey says GDBMSs will have
//! to automate.
//!
//! ```text
//! cargo run --release --example index_advisor
//! ```
//!
//! The advisor scores each candidate index on a sample of the target
//! workload (build time, memory, query latency), filters by hard
//! requirements (dynamism, memory ceiling), and ranks the survivors —
//! demonstrating how the uniform `ReachIndex` + `IndexMeta` surface
//! makes the whole taxonomy mechanically comparable.

use reach_bench::queries::query_mix;
use reach_bench::report::{fmt_bytes, fmt_duration, timed, Table};
use reach_bench::workloads::Shape;
use reachability::graph::PreparedGraph;
use reachability::plain::pipeline::{BuildOpts, PLAIN_REGISTRY};
use reachability::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// What the application needs from its reachability index.
struct Requirements {
    /// Must support edge insertions (and deletions if `deletes`).
    inserts: bool,
    deletes: bool,
    /// Hard ceiling on index memory.
    max_bytes: usize,
    /// Fraction of queries expected to be unreachable.
    negative_share: f64,
}

struct Candidate {
    name: &'static str,
    meta: IndexMeta,
    build: Duration,
    bytes: usize,
    avg_query: Duration,
}

fn admissible(meta: &IndexMeta, req: &Requirements) -> bool {
    match (req.inserts, req.deletes) {
        (false, _) => true,
        (true, false) => meta.dynamism != Dynamism::Static,
        (true, true) => meta.dynamism == Dynamism::InsertDelete,
    }
}

fn main() {
    // the application's workload: a hub-heavy dependency graph,
    // mostly-negative queries, occasional edge insertions
    let n = 20_000;
    let graph = Arc::new(Shape::PowerLaw.generate(n, 77));
    let req = Requirements {
        inserts: true,
        deletes: false,
        max_bytes: 4 << 20,
        negative_share: 0.8,
    };
    println!(
        "workload: power-law digraph n={} m={}, {:.0}% negative queries, \
         insert-capable index required, memory ceiling {}",
        graph.num_vertices(),
        graph.num_edges(),
        req.negative_share * 100.0,
        fmt_bytes(req.max_bytes)
    );

    let mix = query_mix(&graph, 2_000, 1.0 - req.negative_share, 5);
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut rejected: Vec<(String, &'static str)> = Vec::new();

    for name in PLAIN_REGISTRY.names() {
        if name.starts_with("online") || !PLAIN_REGISTRY.feasible(name, n, graph.num_edges()) {
            continue;
        }
        // a prepared graph per candidate: each build pays for its condensation
        let prepared = PreparedGraph::new_shared(Arc::clone(&graph));
        let (idx, report) = PLAIN_REGISTRY
            .build(name, &prepared, &BuildOpts::default())
            .expect("registry name");
        let build = report.total;
        let meta = idx.meta();
        if !admissible(&meta, &req) {
            rejected.push((name.to_string(), "static index, workload needs inserts"));
            continue;
        }
        if idx.size_bytes() > req.max_bytes {
            rejected.push((name.to_string(), "exceeds the memory ceiling"));
            continue;
        }
        let (hits, total) = timed(|| mix.pairs.iter().filter(|&&(s, t)| idx.query(s, t)).count());
        assert_eq!(hits, mix.positives);
        candidates.push(Candidate {
            name,
            meta,
            build,
            bytes: idx.size_bytes(),
            avg_query: total / mix.pairs.len() as u32,
        });
    }

    // rank by query latency on the sampled mix (the requirement that
    // actually recurs); ties broken by footprint
    candidates.sort_by_key(|c| (c.avg_query, c.bytes));

    println!("\nadmissible candidates, best first:");
    let mut table = Table::new(["rank", "index", "dynamism", "avg query", "bytes", "build"]);
    for (i, c) in candidates.iter().enumerate() {
        table.row([
            (i + 1).to_string(),
            c.name.to_string(),
            format!("{:?}", c.meta.dynamism),
            fmt_duration(c.avg_query),
            fmt_bytes(c.bytes),
            fmt_duration(c.build),
        ]);
    }
    println!("{}", table.render());

    println!("rejected:");
    for (name, why) in &rejected {
        println!("  {name:<14} {why}");
    }

    let winner = candidates.first().expect("some index is always admissible");
    println!(
        "\nrecommendation: {} — {:?} updates, {} per query at {} resident",
        winner.name,
        winner.meta.dynamism,
        fmt_duration(winner.avg_query),
        fmt_bytes(winner.bytes)
    );
    println!(
        "(the no-false-negative partials dominate mostly-negative mixes — the\n\
         survey's §5 argument, measured on your own workload)"
    );
}
