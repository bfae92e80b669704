//! Benchmark harness for the reachability service: drives `reach serve`
//! over HTTP and replays the same requests on an in-process
//! `IndexService` to split each request's time by layer.
//!
//! ```text
//! perfbench-harness --workload NAME --seed N --seconds S --trace 0|1 \
//!     --reach PATH/TO/reach --work SCRATCH_DIR
//! ```
//!
//! `perfbench/run.py` builds this harness and the `reach` binary and
//! starts it; see `perfbench/README.md` for the workloads and metrics.
//! The last line on stdout is the JSON result; progress goes to stderr.

mod http;
mod inputs;
mod serve;

use http::{Conn, Phases};
use inputs::{Graph, Request, Rng, Shape};
use reach_core::{BuildOpts, IndexService};
use reach_graph::PreparedGraph;
use serve::{cpu_of, Server};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One traffic mix: the graph, the index the server answers from, and
/// the requests its one client sends.
///
/// The client is closed-loop: one keep-alive connection, the next
/// request sent as soon as the last is answered. The server runs one
/// worker and one engine thread. On a small shared host, more clients,
/// workers or engine threads than cores made run-to-run results depend
/// on where the scheduler placed the threads.
struct Workload {
    name: &'static str,
    shape: Shape,
    n: u32,
    index: &'static str,
    /// Pairs per `/batch` request; 0 sends single-pair `/query` requests.
    batch: usize,
    sources_per_batch: usize,
    /// Distinct requests generated; the client cycles through them.
    pool: usize,
}

const WORKLOADS: [Workload; 2] = [
    // per-request overhead: cheap BFL lookups, so transport dominates
    Workload {
        name: "query",
        shape: Shape::Dag,
        n: 200_000,
        index: "BFL",
        batch: 0,
        sources_per_batch: 1,
        pool: 8192,
    },
    // a general graph: SCC condensation plus GRAIL's guided search,
    // small batches whose pairs share sources
    Workload {
        name: "cyclic",
        shape: Shape::Cyclic,
        n: 200_000,
        index: "GRAIL",
        batch: 16,
        sources_per_batch: 4,
        pool: 2048,
    },
];

/// Server start-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Traffic before the measured window, discarded.
const WARMUP: Duration = Duration::from_secs(1);
/// Wall-time budget of each in-process replay of the traced run.
const REPLAY: Duration = Duration::from_millis(1500);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    reach: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let number = |flag: &str| -> Result<f64, String> {
        get(flag)?
            .parse::<f64>()
            .map_err(|_| format!("{flag} takes a number"))
    };
    let seconds = number("--seconds")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed takes a whole number".to_string())?,
        seconds,
        trace: number("--trace")? != 0.0,
        reach: get("--reach")?.into(),
        work: get("--work")?.into(),
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload and prints the result; `Ok(false)` when a
/// response was wrong.
fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let wl = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    std::fs::create_dir_all(&args.work).map_err(|e| format!("{}: {e}", args.work.display()))?;

    let mut rng = Rng::new(args.seed);
    let graph = Graph::generate(wl.shape, wl.n, &mut rng);
    let text = graph.edge_list();
    let graph_path = args.work.join("graph.el");
    std::fs::write(&graph_path, &text).map_err(|e| format!("{}: {e}", graph_path.display()))?;
    let pool = inputs::requests(&graph, wl.pool, wl.batch, wl.sources_per_batch, &mut rng);
    eprintln!(
        "perfbench: workload {} seed {}: n={} m={}, index {}, {} cores",
        wl.name,
        args.seed,
        graph.num_vertices(),
        graph.num_edges(),
        wl.index,
        std::thread::available_parallelism().map_or(1, |p| p.get())
    );

    let mut ready = Vec::with_capacity(SETUPS);
    let mut server = None;
    for _ in 0..SETUPS {
        if let Some(previous) = server.take() {
            Server::stop(previous)?;
        }
        let started = Server::start(&args.reach, &graph_path, wl.index, &args.work)?;
        ready.push(started.ready.as_secs_f64());
        server = Some(started);
    }
    let server = server.ok_or("no server started")?;
    let setup_s = median(&mut ready);

    let (server_cpu0, own_cpu0) = (server.cpu()?, cpu_of("self")?);
    let from = Instant::now() + WARMUP;
    let until = from + Duration::from_secs_f64(args.seconds);
    let load = client(server.addr, &pool, from, until, args.trace);
    let (server_cpu, own_cpu) = (server.cpu()? - server_cpu0, cpu_of("self")? - own_cpu0);
    server.stop()?;
    if load.samples.is_empty() {
        return Err(format!(
            "no request completed ({} attempted, {} failed)",
            load.attempted, load.failed
        ));
    }

    let mut metrics = Vec::new();
    if args.trace {
        // set-up layers, each timed around one call: parse the edge
        // list, condense it (SCCs, condensed DAG, topological order;
        // memoized, so the build below reuses it), build the index
        let t = Instant::now();
        let g = reach_graph::io::read_digraph(&text).map_err(|e| e.to_string())?;
        let parse = t.elapsed();
        let prepared = PreparedGraph::new_shared(Arc::new(g));
        let t = Instant::now();
        std::hint::black_box(prepared.condensation());
        let condense = t.elapsed();
        let t = Instant::now();
        let svc = IndexService::build(wl.index, prepared, &BuildOpts::default(), 1)
            .map_err(|e| e.to_string())?;
        let build = t.elapsed();
        let evaluate = replay(&pool, &svc)?;
        let (true_ns, false_ns) = per_pair(&pool, &svc)?;
        let n = load.samples.len() as f64;
        let mean = |f: &dyn Fn(&Sample) -> Duration| {
            load.samples.iter().map(|s| f(s).as_secs_f64()).sum::<f64>() / n * 1e6
        };
        let request_us = mean(&|s| s.latency);
        let per_request = |d: Duration| d.as_secs_f64() * 1e6 / load.completed as f64;
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        metrics.extend([
            ("request_us", request_us, "us"),
            ("send_us", mean(&|s| s.phases.send), "us"),
            ("wait_us", mean(&|s| s.phases.wait), "us"),
            ("recv_us", mean(&|s| s.phases.recv), "us"),
            ("evaluate_us", evaluate, "us"),
            ("transport_us", request_us - evaluate, "us"),
            ("server_cpu_us", per_request(server_cpu), "us"),
            ("loadgen_cpu_us", per_request(own_cpu), "us"),
            ("true_pair_ns", true_ns, "ns"),
            ("false_pair_ns", false_ns, "ns"),
            ("parse_ms", ms(parse), "ms"),
            ("condense_ms", ms(condense), "ms"),
            ("build_ms", ms(build), "ms"),
            ("serve_ready_ms", setup_s * 1e3, "ms"),
            ("requests", n, "count"),
        ]);
    } else {
        // Each figure is the median over 1-second windows, so a few
        // seconds of interference from other work on the host do not
        // move the result.
        let windows = (args.seconds.round() as usize).max(1);
        let width = args.seconds / windows as f64;
        let mut latencies: Vec<Vec<Duration>> = vec![Vec::new(); windows];
        let mut rate = vec![0.0f64; windows];
        for s in &load.samples {
            let w = ((s.done.as_secs_f64() / width) as usize).min(windows - 1);
            latencies[w].push(s.latency);
            rate[w] += pool[s.req].pairs.len() as f64 / width;
        }
        let (mut p50, mut p99) = (Vec::new(), Vec::new());
        for window in latencies.iter_mut().filter(|w| !w.is_empty()) {
            window.sort_unstable();
            p50.push(quantile(window, 0.50));
            p99.push(quantile(window, 0.99));
        }
        eprintln!("perfbench: per-window p50 {p50:.1?} p99 {p99:.1?} pairs/s {rate:.0?}");
        metrics.extend([
            ("latency_p50_us", median(&mut p50), "us"),
            ("latency_p99_us", median(&mut p99), "us"),
            ("pairs_per_s", median(&mut rate), "1/s"),
            ("setup_s", setup_s, "s"),
        ]);
    }
    println!("{}", result_json(&load, &metrics)?);
    Ok(load.wrong == 0)
}

/// One measured request.
struct Sample {
    /// Completion time, from the start of the measured window.
    done: Duration,
    latency: Duration,
    req: usize,
    phases: Phases,
}

#[derive(Default)]
struct Load {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    wrong: u64,
    /// Correct responses, warm-up included (the span the CPU counters cover).
    completed: u64,
}

/// The closed-loop client: sends requests until `until`, sampling only
/// those sent after `from` and answered by `until`.
fn client(addr: SocketAddr, pool: &[Request], from: Instant, until: Instant, trace: bool) -> Load {
    let mut tally = Load::default();
    let mut conn: Option<Conn> = None;
    let mut body = Vec::new();
    for i in 0.. {
        let start = Instant::now();
        if start >= until {
            break;
        }
        let req = i % pool.len();
        tally.attempted += 1;
        let c = match conn.as_mut() {
            Some(c) => c,
            None => match Conn::connect(addr) {
                Ok(c) => conn.insert(c),
                Err(_) => {
                    tally.failed += 1;
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            },
        };
        let resp = match c.request("POST", pool[req].path, &pool[req].body, &mut body, trace) {
            Ok(resp) => resp,
            Err(_) => {
                tally.failed += 1;
                conn = None;
                continue;
            }
        };
        let done = Instant::now();
        if !resp.keep_alive {
            conn = None;
        }
        if resp.status != 200 || body != pool[req].expected {
            tally.failed += 1;
            tally.wrong += u64::from(resp.status == 200);
            continue;
        }
        tally.completed += 1;
        if start >= from && done <= until {
            tally.samples.push(Sample {
                done: done - from,
                latency: done - start,
                req,
                phases: resp.phases,
            });
        }
    }
    tally
}

/// Mean microseconds per request when `svc` answers the pool in process
/// the way the server does, checking every answer; cycles through the
/// pool for [`REPLAY`].
fn replay(pool: &[Request], svc: &IndexService) -> Result<f64, String> {
    let started = Instant::now();
    let mut done = 0usize;
    loop {
        let r = &pool[done % pool.len()];
        let answers = if r.path == "/query" {
            vec![svc.query(r.pairs[0].0, r.pairs[0].1)]
        } else {
            svc.query_batch(&r.pairs)
        };
        if answers != r.answers {
            return Err("in-process answers differ from the ground truth".into());
        }
        done += 1;
        if started.elapsed() >= REPLAY {
            return Ok(started.elapsed().as_secs_f64() * 1e6 / done as f64);
        }
    }
}

/// Mean nanoseconds of one `IndexService::query`, for reachable and
/// unreachable pairs separately.
fn per_pair(pool: &[Request], svc: &IndexService) -> Result<(f64, f64), String> {
    let started = Instant::now();
    let mut sums = [(0.0f64, 0u64); 2];
    'pool: for r in pool {
        for (&(s, t), &truth) in r.pairs.iter().zip(&r.answers) {
            let t0 = Instant::now();
            let got = std::hint::black_box(svc.query(s, t));
            let ns = t0.elapsed().as_secs_f64() * 1e9;
            if got != truth {
                return Err("in-process answer differs from the ground truth".into());
            }
            let slot = &mut sums[usize::from(truth)];
            slot.0 += ns;
            slot.1 += 1;
            if started.elapsed() >= REPLAY {
                break 'pool;
            }
        }
    }
    let mean = |(sum, count): (f64, u64)| if count == 0 { 0.0 } else { sum / count as f64 };
    Ok((mean(sums[1]), mean(sums[0])))
}

/// Nearest-rank quantile of sorted durations, in microseconds.
fn quantile(sorted: &[Duration], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].as_secs_f64() * 1e6
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn result_json(load: &Load, metrics: &[(&str, f64, &str)]) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        load.wrong == 0,
        load.attempted,
        load.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    Ok(out)
}
