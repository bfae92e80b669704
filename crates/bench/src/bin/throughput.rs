//! Batch-query throughput benchmark: sweeps thread counts × indexes
//! through [`reach_core::QueryEngine`] and reports how much the
//! concurrent batch path gains over the classic one-query-at-a-time
//! loop the survey's experiments measure.
//!
//! The workload has *source locality* (several targets per source, the
//! shape of real query logs): that is what the online baselines' batch
//! override exploits — multi-source bit-parallel BFS packs 64 distinct
//! sources into one traversal. Guided-search indexes answer a batch
//! pair by pair, so their gain comes from the threads alone.
//!
//! ```text
//! cargo run --release -p reach-bench --bin throughput -- \
//!     [--smoke] [--n N] [--queries Q] [--index NAME ...] [--out FILE]
//! ```
//!
//! The thread sweep is the powers of two below the host's
//! `available_parallelism`, plus that count itself: more threads than
//! cores would measure oversubscription, not the engine.
//!
//! Emits a JSON report (default `BENCH_throughput.json`) with the host
//! it ran on (`available_parallelism`, build profile, git revision) and,
//! per index, the per-pair baseline rate and the batch rate at every
//! thread count, plus a `verdicts_identical` flag asserting
//! byte-identical answers across all configurations.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reach_bench::args::{self, Flag};
use reach_bench::report::{fmt_duration, timed, Table};
use reach_bench::workloads::Shape;
use reach_core::pipeline::{build_plain, plain_names, BuildOpts};
use reach_core::QueryEngine;
use reach_graph::{PreparedGraph, VertexId};
use std::sync::Arc;

const SEED: u64 = 0x7157;
const TARGETS_PER_SOURCE: usize = 8;

/// A query log with source locality: `queries / TARGETS_PER_SOURCE`
/// distinct sources, each asked about `TARGETS_PER_SOURCE` targets,
/// interleaved the way a request stream would be.
fn locality_workload(n: usize, queries: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let num_sources = (queries / TARGETS_PER_SOURCE).max(1);
    let mut pairs: Vec<(VertexId, VertexId)> = Vec::with_capacity(queries);
    for _ in 0..num_sources {
        let s = VertexId(rng.random_range(0..n as u32));
        for _ in 0..TARGETS_PER_SOURCE {
            pairs.push((s, VertexId(rng.random_range(0..n as u32))));
        }
        if pairs.len() >= queries {
            break;
        }
    }
    pairs.truncate(queries);
    // interleave: Fisher–Yates so batches must re-discover the grouping
    for i in (1..pairs.len()).rev() {
        pairs.swap(i, rng.random_range(0..=i));
    }
    pairs
}

/// Powers of two below `cores`, then `cores` itself.
fn thread_sweep(cores: usize) -> Vec<usize> {
    let mut counts: Vec<usize> = std::iter::successors(Some(1usize), |t| t.checked_mul(2))
        .take_while(|&t| t < cores)
        .collect();
    counts.push(cores);
    counts
}

/// `git rev-parse --short HEAD`, or `"unknown"` outside a checkout.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.2}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let (smoke, n, queries, indexes, out) = args::from_env(
        &[
            Flag::Switch("--smoke"),
            Flag::Value("--n"),
            Flag::Value("--queries"),
            Flag::List("--index"),
            Flag::Value("--out"),
        ],
        "throughput [--smoke] [--n N] [--queries Q] [--index NAME ...] [--out FILE]",
        |a| {
            let smoke = a.has("--smoke");
            // `--n` and `--queries` override the smoke sizes too
            let (n, queries) = if smoke { (2_000, 512) } else { (100_000, 4096) };
            let mut indexes = a.values("--index");
            if indexes.is_empty() {
                indexes = vec!["online-BFS", "online-BiBFS", "GRAIL", "BFL"];
            }
            if let Some(name) = indexes.iter().find(|name| !plain_names().contains(name)) {
                return Err(a.error(format!("unknown plain index {name:?}")));
            }
            Ok((
                smoke,
                a.get_at_least("--n", n, 2)?,
                a.get("--queries")?.unwrap_or(queries),
                indexes.into_iter().map(String::from).collect::<Vec<_>>(),
                a.value("--out")
                    .unwrap_or("BENCH_throughput.json")
                    .to_string(),
            ))
        },
    );
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let thread_counts = thread_sweep(cores);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };

    let graph = Arc::new(Shape::Sparse.generate(n, SEED));
    let pairs = locality_workload(graph.num_vertices(), queries, SEED ^ 0xBA7C4);
    println!(
        "throughput workload: sparse-dag n={} m={} | {} queries, ~{} targets/source, threads {:?} ({cores} cores, {profile})",
        graph.num_vertices(),
        graph.num_edges(),
        pairs.len(),
        TARGETS_PER_SOURCE,
        thread_counts,
    );

    let prepared = PreparedGraph::new_shared(Arc::clone(&graph));
    let opts = BuildOpts::default();
    let mut table = Table::new(["index", "build", "per-pair qps", "batch config", "speedup"]);
    let mut index_reports: Vec<String> = Vec::new();

    for name in &indexes {
        let (idx, build) = build_plain(name, &prepared, &opts).expect("a registry name");

        // baseline: the classic sequential one-query-at-a-time loop
        let (reference, base_time) =
            timed(|| -> Vec<bool> { pairs.iter().map(|&(s, t)| idx.query(s, t)).collect() });
        let positives = reference.iter().filter(|&&b| b).count();
        let base_qps = pairs.len() as f64 / base_time.as_secs_f64().max(f64::MIN_POSITIVE);
        table.row([
            name.clone(),
            fmt_duration(build.total),
            format!("{base_qps:.0}"),
            "per-pair baseline".to_string(),
            "1.00x".to_string(),
        ]);

        let mut verdicts_identical = true;
        let mut batch_rows: Vec<String> = Vec::new();
        for &threads in &thread_counts {
            let engine = QueryEngine::new(threads);
            let (answers, batch_time) = timed(|| engine.run(idx.as_ref(), &pairs));
            if answers != reference {
                verdicts_identical = false;
            }
            let qps = pairs.len() as f64 / batch_time.as_secs_f64().max(f64::MIN_POSITIVE);
            let speedup = qps / base_qps;
            table.row([
                String::new(),
                String::new(),
                String::new(),
                format!("batch, {threads} thread(s)"),
                format!("{speedup:.2}x ({qps:.0} qps)"),
            ]);
            batch_rows.push(format!(
                "{{\"threads\": {threads}, \"ms\": {}, \"qps\": {}, \"speedup_vs_baseline\": {}}}",
                json_f64(batch_time.as_secs_f64() * 1e3),
                json_f64(qps),
                json_f64(speedup)
            ));
        }
        assert!(
            verdicts_identical,
            "{name}: batch verdicts diverged from the per-pair loop"
        );
        index_reports.push(format!(
            "    {{\n      \"name\": \"{name}\",\n      \"build_ms\": {},\n      \
             \"positives\": {positives},\n      \"baseline_per_pair_qps\": {},\n      \
             \"verdicts_identical\": {verdicts_identical},\n      \"batch\": [\n        {}\n      ]\n    }}",
            json_f64(build.total.as_secs_f64() * 1e3),
            json_f64(base_qps),
            batch_rows.join(",\n        ")
        ));
    }

    println!("\n{}", table.render());

    let json = format!(
        "{{\n  \"host\": {{\n    \"available_parallelism\": {cores},\n    \
         \"profile\": \"{profile}\",\n    \"git_revision\": \"{}\"\n  }},\n  \"workload\": {{\n    \"shape\": \"sparse-dag\",\n    \"n\": {},\n    \"m\": {},\n    \
         \"seed\": {SEED},\n    \"queries\": {},\n    \"targets_per_source\": {TARGETS_PER_SOURCE}\n  }},\n  \
         \"thread_counts\": [{}],\n  \"smoke\": {},\n  \"indexes\": [\n{}\n  ]\n}}\n",
        git_revision(),
        graph.num_vertices(),
        graph.num_edges(),
        pairs.len(),
        thread_counts
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", "),
        smoke,
        index_reports.join(",\n")
    );
    std::fs::write(&out, &json).expect("write report");
    println!("wrote {out}");
}
