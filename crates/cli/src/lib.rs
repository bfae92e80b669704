//! # reach-cli
//!
//! The `reach` command-line tool: generate workloads, inspect graphs,
//! build any index from the survey's Tables 1 and 2, and answer plain
//! or path-constrained reachability queries from the shell.
//!
//! ```text
//! reach gen sparse-dag 1000 --out g.el            # generate a workload
//! reach gen cyclic 500 --labels 4 --out lg.el     # labeled variant
//! reach stats g.el                                # structural summary
//! reach indexes                                   # list techniques
//! reach query g.el --index BFL 0 999 5 7          # plain queries
//! reach lcr lg.el --index P2H+ --constraint "(0|2)*" 3 77
//! reach bench g.el --index GRAIL --index PLL --queries 2000
//! ```
//!
//! The library surface exists so tests can drive every command
//! in-process; `main.rs` is a thin wrapper.

#![forbid(unsafe_code)]

use reach_bench::queries::query_mix;
use reach_bench::report::{fmt_build_report, fmt_bytes, fmt_duration, timed, Table};
use reach_bench::workloads::{Shape, ALL_SHAPES};
use reach_core::pipeline::{
    build_plain, plain_feasible, plain_names, plain_native_meta, plain_spec, BuildOpts, BuilderSpec,
};
use reach_graph::{io, DiGraph, GraphError, LabelSet, LabeledGraph, PreparedGraph, VertexId};
use reach_labeled::pipeline::{build_lcr, lcr_names, lcr_spec};
use reach_labeled::rlc::RlcIndex;
use reach_labeled::{ConstraintKind, RlcIndexApi};
use std::fmt;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// A CLI-level error. Every variant renders a complete, user-facing
/// message through `Display` (no `Debug` formatting anywhere on the
/// error path) and chains its cause through `Error::source`, so CLI
/// and server code compose errors with `?`.
#[derive(Debug)]
pub enum CliError {
    /// Wrong arguments, unknown names, out-of-range values.
    Usage(String),
    /// Reading or writing a user-named file failed.
    File {
        /// The file the user named.
        path: String,
        /// The underlying I/O failure.
        source: std::io::Error,
    },
    /// A graph file failed to parse; the [`GraphError`] carries the
    /// 1-based line number of the offending edge line.
    Graph {
        /// The file the user named.
        path: String,
        /// What went wrong, and where.
        source: GraphError,
    },
    /// Output-stream or server transport failure.
    Io(std::io::Error),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => f.write_str(msg),
            CliError::File { path, source } => write!(f, "{path}: {source}"),
            CliError::Graph { path, source } => write!(f, "{path}: {source}"),
            CliError::Io(source) => write!(f, "I/O error: {source}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Usage(_) => None,
            CliError::File { source, .. } => Some(source),
            CliError::Graph { source, .. } => Some(source),
            CliError::Io(source) => Some(source),
        }
    }
}

fn err(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// A registry's unknown-name error, pointing at the list of names.
fn unknown_index(e: impl fmt::Display) -> CliError {
    err(format!("{e} (see `reach indexes`)"))
}

/// Refuses an index whose registry entry rules out this graph size
/// before a build that could run for hours; a name not in the
/// registry (`None`) passes on to the builder's typed error.
fn ensure_feasible<G: ?Sized, I: ?Sized, M>(
    spec: Option<&BuilderSpec<G, I, M>>,
    n: usize,
    m: usize,
) -> Result<(), CliError> {
    match spec {
        Some(s) if !(s.feasible)(n, m) => Err(err(format!(
            "index {:?} is infeasible at n={n}, m={m} (its registry entry rules out this size)",
            s.name
        ))),
        _ => Ok(()),
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// A loaded graph file: plain or labeled, detected from the header.
pub enum LoadedGraph {
    /// A plain digraph (header: `<n>`).
    Plain(Arc<DiGraph>),
    /// An edge-labeled digraph (header: `<n> <k>`).
    Labeled(Arc<LabeledGraph>),
}

/// Loads an edge-list file, detecting the labeled variant from the
/// two-token header. Errors name the offending path, and parse errors
/// additionally carry the 1-based line number of the bad edge line.
pub fn load_graph(path: &str) -> Result<LoadedGraph, CliError> {
    let file_err = |source| CliError::File {
        path: path.to_string(),
        source,
    };
    let graph_err = |source| CliError::Graph {
        path: path.to_string(),
        source,
    };
    let text = std::fs::read_to_string(path).map_err(file_err)?;
    let header = text
        .lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('#'))
        .ok_or_else(|| err(format!("{path}: empty edge-list file")))?;
    let labeled = header.split_whitespace().count() == 2;
    if labeled {
        Ok(LoadedGraph::Labeled(Arc::new(
            io::read_labeled(&text).map_err(graph_err)?,
        )))
    } else {
        Ok(LoadedGraph::Plain(Arc::new(
            io::read_digraph(&text).map_err(graph_err)?,
        )))
    }
}

/// Entry point shared by the binary and the tests.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        None | Some("help") | Some("--help") | Some("-h") => cmd_help(out),
        Some("gen") => cmd_gen(&args[1..], out),
        Some("stats") => cmd_stats(&args[1..], out),
        Some("indexes") => cmd_indexes(out),
        Some("query") => cmd_query(&args[1..], out),
        Some("lcr") => cmd_lcr(&args[1..], out),
        Some("witness") => cmd_witness(&args[1..], out),
        Some("bench") => cmd_bench(&args[1..], out),
        Some("verify") => cmd_verify(&args[1..], out),
        Some("serve") => cmd_serve(&args[1..], out),
        Some(other) => Err(err(format!("unknown command {other:?}"))),
    }
}

/// Renders a witness path as `v -label-> v -label-> v`.
fn render_witness(w: &reach_labeled::Witness) -> String {
    if w.is_empty() {
        return format!("{} (empty path)", w.vertices[0]);
    }
    let mut s = w.vertices[0].to_string();
    for (i, l) in w.labels.iter().enumerate() {
        s.push_str(&format!(" -{}-> {}", l, w.vertices[i + 1]));
    }
    s
}

fn cmd_witness(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    use reach_labeled::{witness::rpq_witness, Ast, Nfa};
    let flags = parse_flags(args)?;
    let (path, pairs_tokens) = flags
        .rest
        .split_first()
        .ok_or_else(|| err("usage: witness <labeled-graph> --constraint EXPR <s> <t> [...]"))?;
    let LoadedGraph::Labeled(g) = load_graph(path)? else {
        return Err(err(format!(
            "{path} is a plain graph; witness needs a labeled one"
        )));
    };
    let alphabet: Vec<&str> = flags.alphabet.iter().map(String::as_str).collect();
    let pairs = parse_pairs(pairs_tokens, g.num_vertices())?;
    // no constraint: any path, i.e. (l1 ∪ … ∪ lk)* over the whole alphabet
    let ast = match flags.constraint.as_deref().unwrap_or("") {
        "" => Ast::Star(Box::new(Ast::Labels(LabelSet::full(g.num_labels())))),
        expr => reach_labeled::parse(expr, &alphabet).map_err(|e| err(e.to_string()))?,
    };
    let nfa = Nfa::compile(&ast);
    for (s, t) in pairs {
        match rpq_witness(&g, s, t, &nfa) {
            Some(w) => writeln!(out, "{s} ⇝ {t}: {}", render_witness(&w))?,
            None => writeln!(out, "{s} ⇝ {t}: unreachable")?,
        }
    }
    Ok(())
}

fn cmd_help(out: &mut dyn Write) -> Result<(), CliError> {
    writeln!(
        out,
        "reach — reachability indexes on graphs (SIGMOD'23 survey implementation)\n\
         \n\
         commands:\n\
         \x20 gen <shape> <n> [--seed S] [--labels K] [--out FILE]   generate a workload\n\
         \x20 stats <graph>                                          structural summary\n\
         \x20 indexes                                                list techniques (Table 1 & 2)\n\
         \x20 query <graph> --index NAME <s> <t> [<s> <t> ...]       plain reachability\n\
         \x20 query <graph> --index NAME --batch FILE [--threads N]  batch evaluation\n\
         \x20 lcr <graph> --index NAME --constraint EXPR <s> <t>     path-constrained reachability\n\
         \x20 witness <graph> [--constraint EXPR] <s> <t>            show an explaining path\n\
         \x20 bench <graph> [--index NAME ...] [--queries N] [--positive P]\n\
         \x20 verify <graph> (--index NAME ...|--all) [--queries N] [--seed S]\n\
         \x20        audit index invariants against the BFS ground truth\n\
         \x20 serve <graph> [--index NAME] [--lcr NAME] [--port N] [--workers K]\n\
         \x20       [--threads N] [--port-file FILE]                 HTTP query service\n\
         \n\
         shapes: {}\n\
         constraint syntax: l | a·b (or a.b) | a∪b (or a|b) | a* | a+ | (...)\n\
         labels in constraints: numeric (0,1,2,…) or --alphabet name,name,…",
        ALL_SHAPES.map(|s| s.name()).join(", ")
    )?;
    Ok(())
}

fn parse_shape(name: &str) -> Result<Shape, CliError> {
    ALL_SHAPES
        .into_iter()
        .find(|s| s.name() == name)
        .ok_or_else(|| {
            err(format!(
                "unknown shape {name:?} (expected one of: {})",
                ALL_SHAPES.map(|s| s.name()).join(", ")
            ))
        })
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, CliError> {
    s.parse().map_err(|_| err(format!("invalid {what}: {s:?}")))
}

fn cmd_gen(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let mut pos = Vec::new();
    let mut seed = 42u64;
    let mut labels: Option<usize> = None;
    let mut path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                seed = parse_num(
                    args.get(i).ok_or_else(|| err("--seed needs a value"))?,
                    "seed",
                )?;
            }
            "--labels" => {
                i += 1;
                labels = Some(parse_num(
                    args.get(i).ok_or_else(|| err("--labels needs a value"))?,
                    "label count",
                )?);
            }
            "--out" => {
                i += 1;
                path = Some(
                    args.get(i)
                        .ok_or_else(|| err("--out needs a value"))?
                        .clone(),
                );
            }
            other => pos.push(other.to_string()),
        }
        i += 1;
    }
    let [shape, n] = pos.as_slice() else {
        return Err(err(
            "usage: gen <shape> <n> [--seed S] [--labels K] [--out FILE]",
        ));
    };
    let shape = parse_shape(shape)?;
    let n: usize = parse_num(n, "vertex count")?;
    if n < 2 {
        return Err(err("vertex count must be at least 2"));
    }
    if labels == Some(0) || labels.is_some_and(|k| k > 64) {
        return Err(err("label count must be between 1 and 64"));
    }
    let text = match labels {
        Some(k) => io::write_labeled(&shape.generate_labeled(n, k, seed)),
        None => io::write_digraph(&shape.generate(n, seed)),
    };
    match path {
        Some(p) => {
            std::fs::write(&p, &text).map_err(|source| CliError::File {
                path: p.clone(),
                source,
            })?;
            writeln!(out, "wrote {} ({} lines)", p, text.lines().count())?;
        }
        None => out.write_all(text.as_bytes())?,
    }
    Ok(())
}

fn cmd_stats(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let [path] = args else {
        return Err(err("usage: stats <graph-file>"));
    };
    let (g, labels) = match load_graph(path)? {
        LoadedGraph::Plain(g) => (g, None),
        LoadedGraph::Labeled(lg) => (Arc::new(lg.to_digraph()), Some(lg.num_labels())),
    };
    let prepared = PreparedGraph::new_shared(g);
    let s = prepared.stats();
    writeln!(out, "{path}:")?;
    writeln!(out, "  vertices        {}", s.num_vertices)?;
    writeln!(out, "  edges           {}", s.num_edges)?;
    if let Some(k) = labels {
        writeln!(out, "  label alphabet  {k}")?;
    }
    writeln!(out, "  avg degree      {:.2}", s.avg_degree)?;
    writeln!(out, "  max degree      {}", s.max_degree)?;
    writeln!(
        out,
        "  SCCs            {} (largest {})",
        s.num_sccs, s.largest_scc
    )?;
    match s.depth {
        Some(d) => writeln!(out, "  depth (DAG)     {d}")?,
        None => writeln!(
            out,
            "  depth           cyclic (condense first for DAG indexes)"
        )?,
    }
    writeln!(out, "  sources/sinks   {}/{}", s.num_sources, s.num_sinks)?;
    Ok(())
}

fn cmd_indexes(out: &mut dyn Write) -> Result<(), CliError> {
    writeln!(out, "plain reachability indexes (Table 1):")?;
    for name in plain_names() {
        if name.starts_with("online") {
            continue;
        }
        let m = plain_native_meta(name);
        writeln!(
            out,
            "  {:<14} {:?} / {:?} / {:?} input / {:?}",
            m.name, m.framework, m.completeness, m.input, m.dynamism
        )?;
    }
    writeln!(
        out,
        "\npath-constrained indexes (Table 2): {}",
        lcr_names().join(", ")
    )?;
    writeln!(out, "  plus: RLC index (concatenation constraints)")?;
    writeln!(
        out,
        "\nonline baselines: online-BFS, online-DFS, online-BiBFS"
    )?;
    Ok(())
}

struct Flags {
    indexes: Vec<String>,
    constraint: Option<String>,
    alphabet: Vec<String>,
    queries: usize,
    positive: f64,
    batch: Option<String>,
    threads: usize,
    all: bool,
    seed: Option<u64>,
    rest: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, CliError> {
    let mut f = Flags {
        indexes: Vec::new(),
        constraint: None,
        alphabet: Vec::new(),
        queries: 1000,
        positive: 0.5,
        batch: None,
        threads: 1,
        all: false,
        seed: None,
        rest: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--index" => {
                i += 1;
                f.indexes.push(
                    args.get(i)
                        .ok_or_else(|| err("--index needs a value"))?
                        .clone(),
                );
            }
            "--constraint" => {
                i += 1;
                f.constraint = Some(
                    args.get(i)
                        .ok_or_else(|| err("--constraint needs a value"))?
                        .clone(),
                );
            }
            "--alphabet" => {
                i += 1;
                f.alphabet = args
                    .get(i)
                    .ok_or_else(|| err("--alphabet needs a value"))?
                    .split(',')
                    .map(str::to_string)
                    .collect();
            }
            "--queries" => {
                i += 1;
                f.queries = parse_num(
                    args.get(i).ok_or_else(|| err("--queries needs a value"))?,
                    "query count",
                )?;
            }
            "--positive" => {
                i += 1;
                f.positive = parse_num(
                    args.get(i).ok_or_else(|| err("--positive needs a value"))?,
                    "positive share",
                )?;
            }
            "--batch" => {
                i += 1;
                f.batch = Some(
                    args.get(i)
                        .ok_or_else(|| err("--batch needs a file"))?
                        .clone(),
                );
            }
            "--all" => f.all = true,
            "--seed" => {
                i += 1;
                f.seed = Some(parse_num(
                    args.get(i).ok_or_else(|| err("--seed needs a value"))?,
                    "seed",
                )?);
            }
            "--threads" => {
                i += 1;
                f.threads = parse_num(
                    args.get(i).ok_or_else(|| err("--threads needs a value"))?,
                    "thread count",
                )?;
                if f.threads == 0 {
                    return Err(err("thread count must be at least 1"));
                }
            }
            other => f.rest.push(other.to_string()),
        }
        i += 1;
    }
    Ok(f)
}

fn parse_pairs(tokens: &[String], n: usize) -> Result<Vec<(VertexId, VertexId)>, CliError> {
    if tokens.is_empty() || !tokens.len().is_multiple_of(2) {
        return Err(err("queries come as <s> <t> pairs"));
    }
    tokens
        .chunks(2)
        .map(|pair| {
            let s: u32 = parse_num(&pair[0], "vertex id")?;
            let t: u32 = parse_num(&pair[1], "vertex id")?;
            if s as usize >= n || t as usize >= n {
                return Err(err(format!("vertex id out of range (n = {n})")));
            }
            Ok((VertexId(s), VertexId(t)))
        })
        .collect()
}

/// Reads a batch file of `<s> <t>` lines (blank lines and `#` comments
/// skipped) into query pairs.
fn read_batch_file(path: &str, n: usize) -> Result<Vec<(VertexId, VertexId)>, CliError> {
    let text = std::fs::read_to_string(path).map_err(|source| CliError::File {
        path: path.to_string(),
        source,
    })?;
    let tokens: Vec<String> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .flat_map(|l| l.split_whitespace().map(str::to_string))
        .collect();
    if tokens.is_empty() {
        return Err(err(format!("{path}: no query pairs")));
    }
    parse_pairs(&tokens, n)
}

fn cmd_query(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let flags = parse_flags(args)?;
    let (path, pairs_tokens) = flags
        .rest
        .split_first()
        .ok_or_else(|| err("usage: query <graph> --index NAME <s> <t> [...]"))?;
    let g = match load_graph(path)? {
        LoadedGraph::Plain(g) => g,
        LoadedGraph::Labeled(lg) => Arc::new(lg.to_digraph()),
    };
    let name = flags.indexes.first().map(String::as_str).unwrap_or("BFL");
    let pairs = match &flags.batch {
        Some(file) => {
            if !pairs_tokens.is_empty() {
                return Err(err("--batch replaces inline <s> <t> pairs"));
            }
            read_batch_file(file, g.num_vertices())?
        }
        None => parse_pairs(pairs_tokens, g.num_vertices())?,
    };
    ensure_feasible(plain_spec(name), g.num_vertices(), g.num_edges())?;
    let prepared = PreparedGraph::new_shared(g);
    let (idx, report) =
        build_plain(name, &prepared, &BuildOpts::default()).map_err(unknown_index)?;
    writeln!(out, "built {}", fmt_build_report(&report))?;
    if flags.batch.is_some() {
        let engine = reach_core::QueryEngine::new(flags.threads);
        let (answers, elapsed) = timed(|| engine.run(idx.as_ref(), &pairs));
        for (&(s, t), answer) in pairs.iter().zip(&answers) {
            writeln!(out, "Qr({s}, {t}) = {answer}")?;
        }
        let qps = pairs.len() as f64 / elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
        writeln!(
            out,
            "batch: {} queries on {} thread(s) in {} ({:.0} queries/s)",
            pairs.len(),
            engine.threads(),
            fmt_duration(elapsed),
            qps
        )?;
    } else {
        for (s, t) in pairs {
            let (answer, t_q) = timed(|| idx.query(s, t));
            writeln!(out, "Qr({s}, {t}) = {answer}   [{}]", fmt_duration(t_q))?;
        }
    }
    Ok(())
}

fn cmd_lcr(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let flags = parse_flags(args)?;
    let (path, pairs_tokens) = flags
        .rest
        .split_first()
        .ok_or_else(|| err("usage: lcr <graph> --index NAME --constraint EXPR <s> <t> [...]"))?;
    let LoadedGraph::Labeled(g) = load_graph(path)? else {
        return Err(err(format!(
            "{path} is a plain graph; lcr needs a labeled one"
        )));
    };
    let expr = flags
        .constraint
        .as_deref()
        .ok_or_else(|| err("lcr requires --constraint"))?;
    let alphabet: Vec<&str> = flags.alphabet.iter().map(String::as_str).collect();
    let ast = reach_labeled::parse(expr, &alphabet).map_err(|e| err(e.to_string()))?;
    let pairs = parse_pairs(pairs_tokens, g.num_vertices())?;

    match ast.classify() {
        ConstraintKind::Alternation(allowed) => {
            let name = flags.indexes.first().map(String::as_str).unwrap_or("P2H+");
            ensure_feasible(lcr_spec(name), g.num_vertices(), g.num_edges())?;
            let (idx, build) = timed(|| build_lcr(name, &g, &BuildOpts::default()));
            let idx = idx.map_err(unknown_index)?;
            writeln!(
                out,
                "constraint is an alternation {allowed:?}; built {name} in {}",
                fmt_duration(build)
            )?;
            for (s, t) in pairs {
                writeln!(out, "Qr({s}, {t}, {expr}) = {}", idx.query(s, t, allowed))?;
            }
        }
        ConstraintKind::Concatenation(unit) => {
            let (idx, build) = timed(|| RlcIndex::build(&g, unit.len()));
            let idx = idx.map_err(|e| err(e.to_string()))?;
            writeln!(
                out,
                "constraint is a concatenation of length {}; built RLC index in {}",
                unit.len(),
                fmt_duration(build)
            )?;
            for (s, t) in pairs {
                let answer = idx
                    .try_query(s, t, &unit)
                    .expect("index built for this unit length");
                writeln!(out, "Qr({s}, {t}, {expr}) = {answer}")?;
            }
        }
        ConstraintKind::General => {
            let nfa = reach_labeled::Nfa::compile(&ast);
            writeln!(
                out,
                "constraint is outside the indexable fragments (§5 open challenge); \
                 using automaton-guided traversal ({} NFA states)",
                nfa.num_states()
            )?;
            for (s, t) in pairs {
                let answer = reach_labeled::online::rpq_bfs(&g, s, t, &nfa);
                writeln!(out, "Qr({s}, {t}, {expr}) = {answer}")?;
            }
        }
    }
    Ok(())
}

/// `serve <graph> [--index NAME] [--lcr NAME] [--port N] [--workers K]
/// [--threads N] [--port-file FILE]`
///
/// Builds the chosen indexes once, then serves them over HTTP until a
/// `POST /admin/shutdown` drains the worker pool. `--port 0` binds an
/// ephemeral port; `--port-file` writes the bound address to a file so
/// scripts (and CI) can discover it. Connections beyond the default
/// queue capacity of [`reach_server::ServerConfig`] get `429`.
fn cmd_serve(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    use reach_core::IndexService;
    use reach_labeled::LcrService;
    use reach_server::{ServerConfig, Services};

    let mut graph_path: Option<String> = None;
    let mut index = "BFL".to_string();
    let mut lcr: Option<String> = None;
    let mut port: u16 = 7878;
    let mut port_file: Option<String> = None;
    let mut cfg = ServerConfig::default();
    let mut threads = 1usize;
    let mut i = 0;
    let value = |args: &[String], i: usize, flag: &str| -> Result<String, CliError> {
        args.get(i)
            .cloned()
            .ok_or_else(|| err(format!("{flag} needs a value")))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--index" => {
                i += 1;
                index = value(args, i, "--index")?;
            }
            "--lcr" => {
                i += 1;
                lcr = Some(value(args, i, "--lcr")?);
            }
            "--port" => {
                i += 1;
                port = parse_num(&value(args, i, "--port")?, "port")?;
            }
            "--workers" => {
                i += 1;
                cfg.workers = parse_num(&value(args, i, "--workers")?, "worker count")?;
                if cfg.workers == 0 {
                    return Err(err("worker count must be at least 1"));
                }
            }
            "--threads" => {
                i += 1;
                threads = parse_num(&value(args, i, "--threads")?, "thread count")?;
                if threads == 0 {
                    return Err(err("thread count must be at least 1"));
                }
            }
            "--port-file" => {
                i += 1;
                port_file = Some(value(args, i, "--port-file")?);
            }
            other if graph_path.is_none() && !other.starts_with('-') => {
                graph_path = Some(other.to_string());
            }
            other => return Err(err(format!("unknown serve flag {other:?}"))),
        }
        i += 1;
    }
    let path = graph_path.ok_or_else(|| err("usage: serve <graph> [--index NAME] [--lcr NAME]"))?;

    let read_start = Instant::now();
    let (g, labeled) = match load_graph(&path)? {
        LoadedGraph::Plain(g) => (g, None),
        LoadedGraph::Labeled(lg) => (Arc::new(lg.to_digraph()), Some(lg)),
    };
    let read = read_start.elapsed();
    ensure_feasible(plain_spec(&index), g.num_vertices(), g.num_edges())?;
    if let (Some(name), Some(lg)) = (&lcr, &labeled) {
        ensure_feasible(lcr_spec(name), lg.num_vertices(), lg.num_edges())?;
    }
    let prepared = PreparedGraph::new_shared(g);
    let plain = Arc::new(
        IndexService::build(&index, prepared, &BuildOpts::default(), threads)
            .map_err(unknown_index)?,
    );
    // the whole cold start: read+parse here, then condense and label
    writeln!(
        out,
        "built {}; read+parse {}",
        fmt_build_report(plain.report()),
        fmt_duration(read)
    )?;
    let lcr = match lcr {
        None => None,
        Some(name) => {
            let Some(lg) = labeled else {
                return Err(err(format!(
                    "{path} is a plain graph; --lcr needs a labeled one"
                )));
            };
            let svc = Arc::new(
                LcrService::build(&name, lg, &BuildOpts::default()).map_err(unknown_index)?,
            );
            writeln!(
                out,
                "built {} (LCR) in {}",
                svc.name(),
                fmt_duration(svc.build_time())
            )?;
            Some(svc)
        }
    };

    cfg.addr = format!("127.0.0.1:{port}");
    let handle = reach_server::start(Services { plain, lcr }, cfg.clone())?;
    if let Some(pf) = &port_file {
        std::fs::write(pf, handle.addr().to_string()).map_err(|source| CliError::File {
            path: pf.clone(),
            source,
        })?;
    }
    writeln!(
        out,
        "serving {path} on http://{} ({} workers, {} engine threads); \
         POST /query, /batch, /lcr — GET /healthz, /metrics — POST /admin/shutdown to stop",
        handle.addr(),
        cfg.workers,
        threads
    )?;
    out.flush()?;
    handle.join();
    writeln!(out, "server drained and stopped")?;
    Ok(())
}

/// `verify <graph> (--index NAME ...|--all) [--queries N] [--seed S]`
///
/// Rebuilds each chosen index over the graph and runs the invariant
/// audit: a sampled differential against the BFS ground truth,
/// batch-vs-scalar consistency, self-reachability, and the technique's
/// own structural invariants (interval nesting, 2-hop cover soundness
/// and completeness, condensation consistency, …). Labeled graphs
/// additionally audit the LCR indexes against the constrained BFS.
/// Exits nonzero if any audited index reports a violation.
fn cmd_verify(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    use reach_core::audit::{AuditConfig, AuditOutcome};
    use reach_labeled::pipeline::lcr_feasible;

    let flags = parse_flags(args)?;
    let [path] = flags.rest.as_slice() else {
        return Err(err(
            "usage: verify <graph> (--index NAME ...|--all) [--queries N] [--seed S]",
        ));
    };
    if flags.indexes.is_empty() && !flags.all {
        return Err(err("verify needs --index NAME (repeatable) or --all"));
    }
    let (g, labeled) = match load_graph(path)? {
        LoadedGraph::Plain(g) => (g, None),
        LoadedGraph::Labeled(lg) => (Arc::new(lg.to_digraph()), Some(lg)),
    };
    let cfg = AuditConfig {
        pairs: flags.queries,
        seed: flags.seed.unwrap_or(AuditConfig::default().seed),
    };
    let opts = BuildOpts::default();
    let prepared = PreparedGraph::new_shared(Arc::clone(&g));
    let plain_known = plain_names();
    let lcr_known = lcr_names();

    let selected: Vec<&str> = if flags.all {
        plain_known
            .iter()
            .copied()
            .chain(if labeled.is_some() {
                lcr_known.clone()
            } else {
                Vec::new()
            })
            .collect()
    } else {
        flags.indexes.iter().map(String::as_str).collect()
    };

    let mut audited = 0usize;
    let mut total_violations = 0usize;
    let mut report = |out: &mut dyn Write, outcome: AuditOutcome| -> Result<(), CliError> {
        audited += 1;
        total_violations += outcome.violations.len();
        if outcome.is_clean() {
            writeln!(
                out,
                "{}: ok ({} pairs checked)",
                outcome.name, outcome.pairs_checked
            )?;
        } else {
            writeln!(
                out,
                "{}: {} violation(s) on {} pairs",
                outcome.name,
                outcome.violations.len(),
                outcome.pairs_checked
            )?;
            for v in &outcome.violations {
                writeln!(out, "  {v}")?;
            }
        }
        Ok(())
    };

    for name in selected {
        if plain_known.contains(&name) {
            if !plain_feasible(name, g.num_vertices(), g.num_edges()) {
                writeln!(
                    out,
                    "{name}: skipped (infeasible at n={}, m={})",
                    g.num_vertices(),
                    g.num_edges()
                )?;
                continue;
            }
            let outcome = reach_core::audit::audit_plain(name, &prepared, &opts, &cfg)
                .map_err(unknown_index)?;
            report(out, outcome)?;
        } else if lcr_known.contains(&name) {
            let Some(lg) = &labeled else {
                writeln!(out, "{name}: skipped ({path} is a plain graph)")?;
                continue;
            };
            if !lcr_feasible(name, lg.num_vertices()) {
                writeln!(
                    out,
                    "{name}: skipped (infeasible at n={})",
                    lg.num_vertices()
                )?;
                continue;
            }
            let outcome = reach_labeled::audit_lcr(name, lg, &opts, &cfg).map_err(unknown_index)?;
            report(out, outcome)?;
        } else {
            return Err(err(format!("unknown index {name:?} (see `reach indexes`)")));
        }
    }
    if total_violations > 0 {
        return Err(err(format!(
            "verify: {total_violations} violation(s) across {audited} audited index(es)"
        )));
    }
    writeln!(out, "verify: {audited} index(es) audited, 0 violations")?;
    Ok(())
}

fn cmd_bench(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let flags = parse_flags(args)?;
    let [path] = flags.rest.as_slice() else {
        return Err(err(
            "usage: bench <graph> [--index NAME ...] [--queries N] [--positive P]",
        ));
    };
    let g = match load_graph(path)? {
        LoadedGraph::Plain(g) => g,
        LoadedGraph::Labeled(lg) => Arc::new(lg.to_digraph()),
    };
    let names: Vec<&str> = if flags.indexes.is_empty() {
        vec!["GRAIL", "BFL", "PLL", "online-BFS"]
    } else {
        flags.indexes.iter().map(String::as_str).collect()
    };
    let mix = query_mix(&g, flags.queries, flags.positive, 7);
    writeln!(
        out,
        "{}: n={} m={} | {} queries, {} reachable",
        path,
        g.num_vertices(),
        g.num_edges(),
        mix.pairs.len(),
        mix.positives
    )?;
    // one PreparedGraph for the whole run: every index shares the
    // condensation, and the "condense" column shows who paid for it
    let prepared = PreparedGraph::new_shared(Arc::clone(&g));
    let opts = BuildOpts::default();
    let mut table = Table::new([
        "index",
        "build",
        "condense",
        "label",
        "entries",
        "bytes",
        "query total",
        "query avg",
    ]);
    for name in names {
        // an unknown name falls through to build_plain's typed error
        if plain_spec(name).is_some_and(|s| !(s.feasible)(g.num_vertices(), g.num_edges())) {
            table.row([
                name.to_string(),
                "(infeasible at this size)".into(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
            ]);
            continue;
        }
        let (idx, report) = build_plain(name, &prepared, &opts).map_err(unknown_index)?;
        let (hits, q) = timed(|| mix.pairs.iter().filter(|&&(s, t)| idx.query(s, t)).count());
        assert_eq!(hits, mix.positives, "{name} answered a query wrongly");
        table.row([
            name.to_string(),
            fmt_duration(report.total),
            if report.reused_condensation() {
                "shared".to_string()
            } else {
                fmt_duration(report.condense + report.order)
            },
            fmt_duration(report.label),
            idx.size_entries().to_string(),
            fmt_bytes(idx.size_bytes()),
            fmt_duration(q),
            fmt_duration(q / mix.pairs.len().max(1) as u32),
        ]);
    }
    write!(out, "{}", table.render())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_string(args: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        run(&args, &mut buf)?;
        Ok(String::from_utf8(buf).unwrap())
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("reach-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn help_lists_commands() {
        let s = run_to_string(&["help"]).unwrap();
        assert!(s.contains("gen") && s.contains("query") && s.contains("lcr"));
        assert!(run_to_string(&[]).unwrap().contains("commands"));
    }

    #[test]
    fn unknown_command_fails() {
        assert!(run_to_string(&["frobnicate"]).is_err());
    }

    #[test]
    fn gen_stats_query_round_trip() {
        let path = tmp("g1.el");
        let s =
            run_to_string(&["gen", "sparse-dag", "200", "--seed", "3", "--out", &path]).unwrap();
        assert!(s.contains("wrote"));
        let s = run_to_string(&["stats", &path]).unwrap();
        assert!(s.contains("vertices        200"), "{s}");
        let s = run_to_string(&["query", &path, "--index", "BFL", "0", "199", "5", "5"]).unwrap();
        assert!(s.contains("Qr(5, 5) = true"), "{s}");
        assert!(s.contains("built BFL"));
    }

    #[test]
    fn gen_writes_labeled_graphs() {
        let path = tmp("g2.el");
        run_to_string(&["gen", "cyclic", "100", "--labels", "3", "--out", &path]).unwrap();
        let s = run_to_string(&["stats", &path]).unwrap();
        assert!(s.contains("label alphabet  3"), "{s}");
    }

    #[test]
    fn lcr_dispatches_on_constraint_class() {
        let path = tmp("g3.el");
        run_to_string(&[
            "gen",
            "sparse-dag",
            "80",
            "--labels",
            "3",
            "--seed",
            "9",
            "--out",
            &path,
        ])
        .unwrap();
        // alternation → LCR index
        let s = run_to_string(&[
            "lcr",
            &path,
            "--index",
            "P2H+",
            "--constraint",
            "(0|1)*",
            "0",
            "79",
        ])
        .unwrap();
        assert!(s.contains("alternation"), "{s}");
        // concatenation → RLC index
        let s = run_to_string(&["lcr", &path, "--constraint", "(0.1)*", "0", "79"]).unwrap();
        assert!(s.contains("concatenation"), "{s}");
        // general → automaton
        let s = run_to_string(&["lcr", &path, "--constraint", "0*.1", "0", "79"]).unwrap();
        assert!(s.contains("automaton-guided"), "{s}");
    }

    #[test]
    fn lcr_refuses_an_oversized_rlc_unit_universe() {
        let path = tmp("g3b.el");
        run_to_string(&["gen", "cyclic", "50", "--labels", "16", "--out", &path]).unwrap();
        // 16 + 16² + 16³ = 4368 units: a typed error, not a panic
        match run_to_string(&["lcr", &path, "--constraint", "(0.1.2)*", "1", "2"]) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("unit universe too large"), "{msg}"),
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn lcr_with_named_alphabet() {
        let path = tmp("g4.el");
        run_to_string(&[
            "gen", "cyclic", "60", "--labels", "3", "--seed", "4", "--out", &path,
        ])
        .unwrap();
        let s = run_to_string(&[
            "lcr",
            &path,
            "--alphabet",
            "friendOf,follows,worksFor",
            "--constraint",
            "(friendOf ∪ follows)*",
            "0",
            "59",
        ])
        .unwrap();
        assert!(s.contains("Qr(0, 59"), "{s}");
    }

    #[test]
    fn bench_reports_a_table() {
        let path = tmp("g5.el");
        run_to_string(&["gen", "power-law", "300", "--out", &path]).unwrap();
        let s = run_to_string(&[
            "bench",
            &path,
            "--index",
            "GRAIL",
            "--index",
            "online-BFS",
            "--queries",
            "100",
        ])
        .unwrap();
        assert!(s.contains("GRAIL") && s.contains("online-BFS"), "{s}");
        assert!(s.contains("query avg"));
    }

    #[test]
    fn errors_are_user_facing() {
        assert!(run_to_string(&["stats", "/nonexistent/file"]).is_err());
        assert!(run_to_string(&["gen", "bogus-shape", "10"]).is_err());
        assert!(run_to_string(&["query", "/nonexistent", "--index", "BFL", "0", "1"]).is_err());
        let path = tmp("g6.el");
        run_to_string(&["gen", "sparse-dag", "50", "--out", &path]).unwrap();
        // unknown index names come back as errors naming the index, on
        // every by-name build path
        for args in [
            vec!["query", &path, "--index", "NotAnIndex", "0", "1"],
            vec!["bench", &path, "--index", "BFL", "--index", "NotAnIndex"],
        ] {
            let e = run_to_string(&args).unwrap_err();
            assert!(matches!(e, CliError::Usage(_)), "{e}");
            assert!(e.to_string().contains("\"NotAnIndex\""), "{e}");
        }
        let labeled = tmp("g6l.el");
        run_to_string(&[
            "gen",
            "sparse-dag",
            "50",
            "--labels",
            "2",
            "--out",
            &labeled,
        ])
        .unwrap();
        let e = run_to_string(&[
            "lcr",
            &labeled,
            "--index",
            "NotAnIndex",
            "--constraint",
            "(0|1)*",
            "0",
            "1",
        ])
        .unwrap_err();
        assert!(
            e.to_string().contains("unknown LCR index \"NotAnIndex\""),
            "{e}"
        );
        // registry indexes too costly at this size are refused before
        // any build, naming the index and the graph's size
        let big = tmp("g6big.el");
        run_to_string(&["gen", "sparse-dag", "401", "--out", &big]).unwrap();
        let big_labeled = tmp("g6bigl.el");
        run_to_string(&[
            "gen",
            "sparse-dag",
            "2001",
            "--labels",
            "2",
            "--out",
            &big_labeled,
        ])
        .unwrap();
        for (args, name, n) in [
            (
                vec!["query", &big, "--index", "2-Hop", "0", "1"],
                "2-Hop",
                401,
            ),
            (
                vec![
                    "lcr",
                    &big_labeled,
                    "--index",
                    "Zou et al.",
                    "--constraint",
                    "(0|1)*",
                    "0",
                    "1",
                ],
                "Zou et al.",
                2001,
            ),
        ] {
            let e = run_to_string(&args).unwrap_err();
            assert!(matches!(e, CliError::Usage(_)), "{e}");
            let expect = format!("index {name:?} is infeasible at n={n}, m=");
            assert!(e.to_string().contains(&expect), "{e}");
        }
        // constraints nested past the parser's limit are a usage error,
        // not a stack overflow
        let parens = format!("{}0{}", "(".repeat(50_000), ")".repeat(50_000));
        let stars = format!("0{}", "*".repeat(100_000));
        for constraint in [parens, stars] {
            let e = run_to_string(&["lcr", &labeled, "--constraint", &constraint, "1", "2"])
                .unwrap_err();
            assert!(matches!(e, CliError::Usage(_)), "{e}");
            assert!(e.to_string().contains("nests deeper"), "{e}");
        }
        assert!(
            run_to_string(&["query", &path, "--index", "BFL", "0"]).is_err(),
            "odd pair"
        );
        assert!(
            run_to_string(&["query", &path, "--index", "BFL", "0", "999"]).is_err(),
            "oob"
        );
        assert!(
            run_to_string(&["lcr", &path, "--constraint", "(0)*", "0", "1"]).is_err(),
            "plain graph rejected for lcr"
        );
    }

    #[test]
    fn witness_prints_paths() {
        let path = tmp("g7.el");
        run_to_string(&[
            "gen",
            "sparse-dag",
            "60",
            "--labels",
            "2",
            "--seed",
            "5",
            "--out",
            &path,
        ])
        .unwrap();
        // unconstrained witness: some pair must be reachable
        let s = run_to_string(&["witness", &path, "0", "59", "0", "0"]).unwrap();
        assert!(s.contains("0 ⇝ 0: 0 (empty path)"), "{s}");
        // constrained witness goes through the classifier
        let s = run_to_string(&["witness", &path, "--constraint", "(0|1)*", "0", "59"]).unwrap();
        assert!(s.contains("⇝ 59"), "{s}");
        // plain graphs are rejected
        let plain = tmp("g8.el");
        run_to_string(&["gen", "sparse-dag", "20", "--out", &plain]).unwrap();
        assert!(run_to_string(&["witness", &plain, "0", "1"]).is_err());
    }

    #[test]
    fn query_batch_file_reports_throughput() {
        let path = tmp("g9.el");
        run_to_string(&["gen", "sparse-dag", "120", "--seed", "6", "--out", &path]).unwrap();
        let batch = tmp("batch9.txt");
        std::fs::write(&batch, "# comment\n0 119\n5 5\n\n10 3\n").unwrap();
        let s = run_to_string(&[
            "query",
            &path,
            "--index",
            "online-BFS",
            "--batch",
            &batch,
            "--threads",
            "4",
        ])
        .unwrap();
        assert!(s.contains("Qr(5, 5) = true"), "{s}");
        assert!(s.contains("batch: 3 queries on 4 thread(s)"), "{s}");
        // same answers as per-pair queries, regardless of thread count
        let single =
            run_to_string(&["query", &path, "--index", "online-BFS", "--batch", &batch]).unwrap();
        let verdicts = |text: &str| -> Vec<String> {
            text.lines()
                .filter(|l| l.starts_with("Qr("))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(verdicts(&s), verdicts(&single));
    }

    #[test]
    fn query_batch_errors_are_user_facing() {
        let path = tmp("g10.el");
        run_to_string(&["gen", "sparse-dag", "30", "--out", &path]).unwrap();
        let batch = tmp("batch10.txt");
        std::fs::write(&batch, "0 29\n").unwrap();
        // --batch plus inline pairs is ambiguous
        assert!(
            run_to_string(&["query", &path, "--index", "BFL", "--batch", &batch, "0", "1"])
                .is_err()
        );
        // missing batch file
        assert!(
            run_to_string(&["query", &path, "--index", "BFL", "--batch", "/nonexistent"]).is_err()
        );
        // zero threads rejected
        assert!(run_to_string(&[
            "query",
            &path,
            "--index",
            "BFL",
            "--batch",
            &batch,
            "--threads",
            "0"
        ])
        .is_err());
        // out-of-range vertex in the batch file
        std::fs::write(&batch, "0 999\n").unwrap();
        assert!(run_to_string(&["query", &path, "--index", "BFL", "--batch", &batch]).is_err());
    }

    #[test]
    fn verify_audits_named_indexes() {
        let path = tmp("v1.el");
        run_to_string(&["gen", "cyclic", "150", "--seed", "12", "--out", &path]).unwrap();
        let s = run_to_string(&[
            "verify",
            &path,
            "--index",
            "GRAIL",
            "--index",
            "PLL",
            "--queries",
            "200",
        ])
        .unwrap();
        assert!(s.contains("GRAIL: ok (200 pairs checked)"), "{s}");
        assert!(s.contains("PLL: ok"), "{s}");
        assert!(s.contains("2 index(es) audited, 0 violations"), "{s}");
    }

    #[test]
    fn verify_all_covers_both_registries_on_labeled_graphs() {
        let path = tmp("v2.el");
        run_to_string(&[
            "gen", "cyclic", "120", "--labels", "3", "--seed", "13", "--out", &path,
        ])
        .unwrap();
        let s = run_to_string(&["verify", &path, "--all", "--queries", "100"]).unwrap();
        // a plain technique and an LCR technique both get audited
        assert!(s.contains("GRAIL: ok"), "{s}");
        assert!(s.contains("P2H+: ok"), "{s}");
        assert!(s.contains("0 violations"), "{s}");
    }

    #[test]
    fn verify_errors_are_user_facing() {
        let path = tmp("v3.el");
        run_to_string(&["gen", "sparse-dag", "40", "--out", &path]).unwrap();
        // no selection
        assert!(run_to_string(&["verify", &path]).is_err());
        // unknown index
        assert!(run_to_string(&["verify", &path, "--index", "Nope"]).is_err());
        // LCR index against a plain graph is a skip, not an error
        let s = run_to_string(&["verify", &path, "--index", "P2H+"]).unwrap();
        assert!(s.contains("P2H+: skipped"), "{s}");
    }

    #[test]
    fn indexes_lists_the_taxonomy() {
        let s = run_to_string(&["indexes"]).unwrap();
        assert!(s.contains("GRAIL") && s.contains("P2H+") && s.contains("RLC index"));
    }

    #[test]
    fn load_graph_errors_name_the_path_and_line() {
        // missing file: the path must appear
        let e = load_graph("/nonexistent/graph.el").err().unwrap();
        assert!(matches!(e, CliError::File { .. }));
        assert!(e.to_string().contains("/nonexistent/graph.el"));
        // bad edge line: path AND 1-based line number must appear
        let path = tmp("bad_edge.el");
        std::fs::write(&path, "5\n0 1\n1 bogus\n").unwrap();
        let e = load_graph(&path).err().unwrap();
        assert!(matches!(e, CliError::Graph { .. }));
        let msg = e.to_string();
        assert!(msg.contains(&path), "path missing in {msg:?}");
        assert!(msg.contains("line 3"), "line number missing in {msg:?}");
        // the cause chains through Error::source for `?` composition
        assert!(std::error::Error::source(&e).is_some());
        // labeled variant too
        std::fs::write(&path, "5 2\n0 0 1\n0 9 1\n").unwrap();
        let msg = load_graph(&path).err().unwrap().to_string();
        assert!(msg.contains("line 3"), "{msg:?}");
    }

    #[test]
    fn serve_round_trip_over_http() {
        use reach_server::client::request_once;
        use std::time::Duration;

        let path = tmp("serve1.el");
        run_to_string(&[
            "gen",
            "sparse-dag",
            "150",
            "--labels",
            "3",
            "--seed",
            "8",
            "--out",
            &path,
        ])
        .unwrap();
        let pf = tmp("serve1.port");
        let _ = std::fs::remove_file(&pf);
        let args: Vec<String> = [
            "serve",
            &path,
            "--index",
            "BFL",
            "--lcr",
            "Landmark index",
            "--port",
            "0",
            "--workers",
            "2",
            "--threads",
            "2",
            "--port-file",
            &pf,
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let server = std::thread::spawn(move || {
            let mut buf = Vec::new();
            run(&args, &mut buf).map(|()| String::from_utf8(buf).unwrap())
        });
        // wait for the port file to appear
        let addr = {
            let mut tries = 0;
            loop {
                if let Ok(s) = std::fs::read_to_string(&pf) {
                    if !s.is_empty() {
                        break s;
                    }
                }
                tries += 1;
                assert!(tries < 200, "server never wrote the port file");
                std::thread::sleep(Duration::from_millis(50));
            }
        };
        let t = Duration::from_secs(10);
        assert_eq!(
            request_once(&*addr, t, "GET", "/healthz", "").unwrap().body,
            "ok\n"
        );
        let r = request_once(&*addr, t, "POST", "/query", "0 149").unwrap();
        assert!(r.status == 200 && (r.body == "true\n" || r.body == "false\n"));
        let r = request_once(&*addr, t, "POST", "/lcr", "0 149 *").unwrap();
        assert_eq!(r.status, 200);
        let r = request_once(&*addr, t, "POST", "/batch", "0 1\n2 3\n").unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.body.lines().count(), 2);
        let metrics = request_once(&*addr, t, "GET", "/metrics", "").unwrap().body;
        assert!(metrics.contains("reach_build_info{index=\"BFL\""));
        // graceful shutdown unblocks the serve command
        request_once(&*addr, t, "POST", "/admin/shutdown", "").unwrap();
        let out = server.join().unwrap().unwrap();
        assert!(out.contains("built BFL"), "{out}");
        assert!(out.contains("; read+parse "), "{out}");
        assert!(out.contains("serving"), "{out}");
        assert!(out.contains("server drained and stopped"), "{out}");
    }

    #[test]
    fn serve_rejects_bad_configs() {
        let path = tmp("serve2.el");
        run_to_string(&["gen", "sparse-dag", "30", "--out", &path]).unwrap();
        // --lcr on a plain graph
        let e = run_to_string(&["serve", &path, "--lcr", "P2H+", "--port", "0"]).unwrap_err();
        assert!(e.to_string().contains("labeled"), "{e}");
        // unknown index, plain and LCR
        let e = run_to_string(&["serve", &path, "--index", "Nope", "--port", "0"]).unwrap_err();
        assert!(
            e.to_string().contains("unknown plain index \"Nope\""),
            "{e}"
        );
        let labeled = tmp("serve2l.el");
        run_to_string(&[
            "gen",
            "sparse-dag",
            "30",
            "--labels",
            "2",
            "--out",
            &labeled,
        ])
        .unwrap();
        let e = run_to_string(&["serve", &labeled, "--lcr", "Nope", "--port", "0"]).unwrap_err();
        assert!(e.to_string().contains("unknown LCR index \"Nope\""), "{e}");
        // indexes infeasible at the graph's size, plain and LCR
        let big = tmp("serve2big.el");
        run_to_string(&["gen", "sparse-dag", "401", "--out", &big]).unwrap();
        let e = run_to_string(&["serve", &big, "--index", "2-Hop", "--port", "0"]).unwrap_err();
        assert!(
            e.to_string().contains("\"2-Hop\" is infeasible at n=401"),
            "{e}"
        );
        let big_labeled = tmp("serve2bigl.el");
        run_to_string(&[
            "gen",
            "sparse-dag",
            "2001",
            "--labels",
            "2",
            "--out",
            &big_labeled,
        ])
        .unwrap();
        let e = run_to_string(&["serve", &big_labeled, "--lcr", "Zou et al.", "--port", "0"])
            .unwrap_err();
        assert!(
            e.to_string()
                .contains("\"Zou et al.\" is infeasible at n=2001"),
            "{e}"
        );
        // zero workers, missing graph, unknown flags (queue capacity is not one)
        assert!(run_to_string(&["serve", &path, "--workers", "0"]).is_err());
        assert!(run_to_string(&["serve"]).is_err());
        assert!(run_to_string(&["serve", &path, "--frob"]).is_err());
        let e = run_to_string(&["serve", &path, "--queue", "4"]).unwrap_err();
        assert!(
            e.to_string().contains("unknown serve flag \"--queue\""),
            "{e}"
        );
    }
}
