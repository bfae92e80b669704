//! HTTP load generator for `reach-server`: sweeps worker-pool sizes
//! over a warm index and reports end-to-end throughput and latency
//! quantiles per endpoint.
//!
//! Two modes:
//!
//! * **In-process sweep** (default): builds one [`IndexService`] on a
//!   sparse DAG, then for each worker count starts a server sharing
//!   that warm index, hammers it with keep-alive client threads, and
//!   shuts it down. Every `/query` and `/batch` response is validated
//!   against answers computed directly on the index, so a single
//!   flipped verdict counts as an error.
//! * **External** (`--addr HOST:PORT`): drives an already-running
//!   `reach serve` process (the CI smoke path). Responses are checked
//!   for status and shape only, since the graph lives in the other
//!   process.
//!
//! The load model is **closed-loop with think time**: each client
//! waits `--think-us` microseconds between requests, the way a real
//! request stream paces itself. That makes the sweep measure what a
//! worker pool exists for — *concurrency*. A single worker is pinned
//! to one keep-alive connection and idles through its client's think
//! time while other connections wait; more workers overlap the think
//! times of different connections. (Raw single-request CPU would show
//! nothing on a one-core host: every worker count just serializes the
//! same cycles.)
//!
//! ```text
//! cargo run --release -p reach-bench --bin loadgen -- \
//!     [--smoke] [--n N] [--clients C] [--requests R] [--think-us T] \
//!     [--addr HOST:PORT] [--out FILE]
//! ```
//!
//! Emits `BENCH_server.json` with per-worker-count throughput and
//! exact client-side p50/p99 per endpoint, plus a `monotone_1_to_4`
//! flag (throughput must not drop when the pool grows from 1 to 4).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reach_bench::workloads::Shape;
use reach_core::pipeline::BuildOpts;
use reach_core::IndexService;
use reach_graph::PreparedGraph;
use reach_server::{Client, ServerConfig, Services};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 0x5E4E;
const BATCH_SIZE: usize = 64;
const PAIR_POOL: usize = 4096;

struct Config {
    n: usize,
    clients: usize,
    requests: usize,
    think: Duration,
    worker_counts: Vec<usize>,
    index: String,
    addr: Option<String>,
    out: String,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Config {
    let mut cfg = Config {
        n: 100_000,
        clients: 8,
        requests: 1_000,
        think: Duration::from_micros(500),
        worker_counts: vec![1, 4, 8],
        index: "BFL".to_string(),
        addr: None,
        out: "BENCH_server.json".to_string(),
        smoke: false,
    };
    let mut explicit_n = false;
    let mut explicit_r = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => cfg.smoke = true,
            "--n" => {
                i += 1;
                cfg.n = args[i].parse().expect("--n takes a number");
                explicit_n = true;
            }
            "--clients" => {
                i += 1;
                cfg.clients = args[i].parse().expect("--clients takes a number");
            }
            "--requests" => {
                i += 1;
                cfg.requests = args[i].parse().expect("--requests takes a number");
                explicit_r = true;
            }
            "--think-us" => {
                i += 1;
                cfg.think =
                    Duration::from_micros(args[i].parse().expect("--think-us takes a number"));
            }
            "--index" => {
                i += 1;
                cfg.index = args[i].clone();
            }
            "--addr" => {
                i += 1;
                cfg.addr = Some(args[i].clone());
            }
            "--out" => {
                i += 1;
                cfg.out = args[i].clone();
            }
            other => panic!("unknown argument {other:?}"),
        }
        i += 1;
    }
    if cfg.smoke {
        if !explicit_n {
            cfg.n = 2_000;
        }
        if !explicit_r {
            cfg.requests = 200;
        }
        cfg.worker_counts = vec![1, 2];
        cfg.clients = cfg.clients.min(4);
    }
    cfg
}

/// What each client thread measured, merged across threads afterwards.
#[derive(Default)]
struct ClientTally {
    /// Latencies in microseconds, per endpoint: query, batch, healthz.
    latencies: [Vec<u64>; 3],
    errors: usize,
}

const EP_NAMES: [&str; 3] = ["query", "batch", "healthz"];

/// One request pool entry: a pair plus (in-process mode) its verdict.
struct PoolEntry {
    s: u32,
    t: u32,
    expect: Option<bool>,
}

fn build_pool(n: usize, svc: Option<&IndexService>) -> Vec<PoolEntry> {
    let mut rng = SmallRng::seed_from_u64(SEED ^ 0xF001);
    (0..PAIR_POOL)
        .map(|_| {
            let s = rng.random_range(0..n as u32);
            let t = rng.random_range(0..n as u32);
            PoolEntry {
                s,
                t,
                expect: svc.map(|svc| svc.query(s.into(), t.into())),
            }
        })
        .collect()
}

/// Drives `cfg.requests` requests through one keep-alive connection,
/// pausing `think` between them (closed-loop load model). Request mix:
/// 8/10 single queries, 1/10 batches of [`BATCH_SIZE`] pairs, 1/10
/// health checks.
fn run_client(
    addr: &str,
    pool: &[PoolEntry],
    requests: usize,
    think: Duration,
    seed: u64,
) -> ClientTally {
    let mut tally = ClientTally::default();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut client = match Client::connect(addr, Duration::from_secs(30)) {
        Ok(c) => c,
        Err(_) => {
            tally.errors = requests;
            return tally;
        }
    };
    for i in 0..requests {
        if i > 0 && !think.is_zero() {
            std::thread::sleep(think);
        }
        let (ep, path, body, expect) = match i % 10 {
            9 => (2, "/healthz", String::new(), Some("ok\n".to_string())),
            8 => {
                let start = rng.random_range(0..pool.len());
                let mut body = String::with_capacity(BATCH_SIZE * 12);
                let mut expect = String::with_capacity(BATCH_SIZE * 6);
                let mut complete = true;
                for k in 0..BATCH_SIZE {
                    let e = &pool[(start + k) % pool.len()];
                    body.push_str(&format!("{} {}\n", e.s, e.t));
                    match e.expect {
                        Some(v) => expect.push_str(if v { "true\n" } else { "false\n" }),
                        None => complete = false,
                    }
                }
                (1, "/batch", body, complete.then_some(expect))
            }
            _ => {
                let e = &pool[rng.random_range(0..pool.len())];
                (
                    0,
                    "/query",
                    format!("{} {}", e.s, e.t),
                    e.expect
                        .map(|v| if v { "true\n" } else { "false\n" }.to_string()),
                )
            }
        };
        let t0 = Instant::now();
        match client.request(if ep == 2 { "GET" } else { "POST" }, path, &body) {
            Ok(resp) => {
                let us = t0.elapsed().as_micros() as u64;
                let ok = resp.status == 200
                    && match &expect {
                        Some(e) => &resp.body == e,
                        // external mode: shape check only
                        None => resp.body.lines().all(|l| l == "true" || l == "false"),
                    };
                if ok {
                    tally.latencies[ep].push(us);
                } else {
                    tally.errors += 1;
                }
                if !client.is_open() {
                    match Client::connect(addr, Duration::from_secs(30)) {
                        Ok(c) => client = c,
                        Err(_) => {
                            tally.errors += requests - i - 1;
                            return tally;
                        }
                    }
                }
            }
            Err(_) => tally.errors += 1,
        }
    }
    tally
}

/// Exact quantile over a sorted sample (nearest-rank).
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

struct SweepResult {
    workers: usize,
    elapsed: Duration,
    requests: usize,
    errors: usize,
    rps: f64,
    /// (name, count, p50_us, p99_us) per endpoint.
    endpoints: Vec<(&'static str, usize, u64, u64)>,
}

/// Runs the client fleet against `addr` and merges the tallies.
fn drive(addr: &str, pool: &Arc<Vec<PoolEntry>>, cfg: &Config, workers: usize) -> SweepResult {
    let t0 = Instant::now();
    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|c| {
                let pool = Arc::clone(pool);
                let (requests, think) = (cfg.requests, cfg.think);
                scope.spawn(move || run_client(addr, &pool, requests, think, SEED ^ (c as u64 + 1)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = t0.elapsed();

    let mut merged: [Vec<u64>; 3] = Default::default();
    let mut errors = 0;
    for t in tallies {
        errors += t.errors;
        for (m, l) in merged.iter_mut().zip(t.latencies) {
            m.extend(l);
        }
    }
    let requests = cfg.clients * cfg.requests;
    let endpoints = EP_NAMES
        .iter()
        .zip(merged.iter_mut())
        .map(|(name, lat)| {
            lat.sort_unstable();
            (*name, lat.len(), quantile(lat, 0.50), quantile(lat, 0.99))
        })
        .collect();
    SweepResult {
        workers,
        elapsed,
        requests,
        errors,
        rps: requests as f64 / elapsed.as_secs_f64().max(f64::MIN_POSITIVE),
        endpoints,
    }
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.2}")
    } else {
        "null".to_string()
    }
}

fn result_json(r: &SweepResult, mode: &str) -> String {
    let eps = r
        .endpoints
        .iter()
        .map(|(name, count, p50, p99)| {
            format!(
                "        {{\"endpoint\": \"{name}\", \"count\": {count}, \
                 \"p50_us\": {p50}, \"p99_us\": {p99}}}"
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "    {{\n      \"mode\": \"{mode}\",\n      \"workers\": {},\n      \
         \"elapsed_ms\": {},\n      \"requests\": {},\n      \"errors\": {},\n      \
         \"rps\": {},\n      \"endpoints\": [\n{eps}\n      ]\n    }}",
        r.workers,
        json_f64(r.elapsed.as_secs_f64() * 1e3),
        r.requests,
        r.errors,
        json_f64(r.rps),
    )
}

fn print_result(r: &SweepResult, mode: &str) {
    println!(
        "{mode} workers={} | {} requests in {:.2}s = {:.0} req/s, {} errors",
        r.workers,
        r.requests,
        r.elapsed.as_secs_f64(),
        r.rps,
        r.errors
    );
    for (name, count, p50, p99) in &r.endpoints {
        println!("    {name:<8} n={count:<6} p50={p50}us p99={p99}us");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = parse_args(&args);
    let mut results: Vec<(String, SweepResult)> = Vec::new();

    if let Some(addr) = &cfg.addr {
        // External mode: the server (and its graph) live elsewhere;
        // vertex ids just need to stay within the served graph's range.
        println!(
            "loadgen: external server at {addr} | {} clients x {} requests, think {}us, ids < {}",
            cfg.clients,
            cfg.requests,
            cfg.think.as_micros(),
            cfg.n
        );
        let pool = Arc::new(build_pool(cfg.n, None));
        let r = drive(addr, &pool, &cfg, 0);
        print_result(&r, "external");
        assert_eq!(r.errors, 0, "external run saw errored requests");
        results.push(("external".to_string(), r));
    } else {
        let graph = Arc::new(Shape::Sparse.generate(cfg.n, SEED));
        println!(
            "loadgen: sparse-dag n={} m={} | index {} | {} clients x {} requests, \
             think {}us, workers {:?}",
            graph.num_vertices(),
            graph.num_edges(),
            cfg.index,
            cfg.clients,
            cfg.requests,
            cfg.think.as_micros(),
            cfg.worker_counts,
        );
        let prepared = PreparedGraph::new_shared(graph);
        let svc = Arc::new(
            IndexService::build(&cfg.index, prepared, &BuildOpts::default(), 2)
                .expect("unknown index"),
        );
        let pool = Arc::new(build_pool(svc.num_vertices(), Some(&svc)));

        for &workers in &cfg.worker_counts {
            let server_cfg = ServerConfig {
                workers,
                queue_capacity: 512,
                ..ServerConfig::default()
            };
            let handle = reach_server::start(
                Services {
                    plain: Arc::clone(&svc),
                    lcr: None,
                },
                server_cfg,
            )
            .expect("start server");
            let addr = handle.addr().to_string();
            let r = drive(&addr, &pool, &cfg, workers);
            handle.shutdown_and_join();
            print_result(&r, "in-process");
            assert_eq!(r.errors, 0, "workers={workers}: errored requests");
            results.push(("in-process".to_string(), r));
        }
    }

    // throughput must not drop when the pool grows from 1 to 4 workers
    // (falls back to first-vs-last for smoke/external sweeps)
    let rps_at = |w: usize| {
        results
            .iter()
            .find(|(_, r)| r.workers == w)
            .map(|(_, r)| r.rps)
    };
    let monotone = match (rps_at(1), rps_at(4)) {
        (Some(one), Some(four)) => four >= one,
        _ => {
            results.last().map(|(_, r)| r.rps).unwrap_or(0.0)
                >= results.first().map(|(_, r)| r.rps).unwrap_or(0.0)
        }
    };
    println!("monotone 1->4 workers: {monotone}");

    let sweep = results
        .iter()
        .map(|(mode, r)| result_json(r, mode))
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"workload\": {{\n    \"shape\": \"sparse-dag\",\n    \"n\": {},\n    \
         \"seed\": {SEED},\n    \"index\": \"{}\",\n    \"clients\": {},\n    \
         \"requests_per_client\": {},\n    \"think_us\": {},\n    \
         \"batch_size\": {BATCH_SIZE}\n  }},\n  \
         \"smoke\": {},\n  \"monotone_1_to_4\": {monotone},\n  \"sweep\": [\n{}\n  ]\n}}\n",
        cfg.n,
        cfg.index,
        cfg.clients,
        cfg.requests,
        cfg.think.as_micros(),
        cfg.smoke,
        sweep
    );
    std::fs::write(&cfg.out, &json).expect("write report");
    println!("wrote {}", cfg.out);
}
