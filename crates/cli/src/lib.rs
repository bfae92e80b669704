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
//! Every subcommand is one row of [`COMMANDS`]: its usage line, its
//! flags and its handler. [`reach_bench::args`] reads each command line
//! against that row's flags, so a flag the command does not read is an
//! error. The library surface exists so tests can drive every command
//! in-process; `main.rs` is a thin wrapper.

#![forbid(unsafe_code)]

use reach_bench::args::Flag::{self, List, Switch, Value};
use reach_bench::args::{self, ArgError, Args};
use reach_bench::queries::query_mix;
use reach_bench::report::{fmt_build_report, fmt_bytes, fmt_condense, fmt_duration, timed, Table};
use reach_bench::workloads::ALL_SHAPES;
use reach_core::pipeline::{BuildOpts, Registry, UnknownIndex, PLAIN_REGISTRY};
use reach_graph::{io, DiGraph, GraphError, LabelSet, LabeledGraph, PreparedGraph, VertexId};
use reach_labeled::rlc::RlcIndex;
use reach_labeled::{ConstraintKind, LCR_REGISTRY};
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
    /// A command-line mistake: an undeclared, repeated or valueless
    /// flag, a bad flag value, or the wrong positional arguments.
    Args(ArgError),
    /// The command line parsed, but what it asks for cannot be done:
    /// an unknown index, an index infeasible at the graph's size, bad
    /// vertex ids or constraints, or an audit that found violations.
    Invalid(String),
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
            CliError::Args(e) => e.fmt(f),
            CliError::Invalid(msg) => f.write_str(msg),
            CliError::File { path, source } => write!(f, "{path}: {source}"),
            CliError::Graph { path, source } => write!(f, "{path}: {source}"),
            CliError::Io(source) => write!(f, "I/O error: {source}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Args(_) | CliError::Invalid(_) => None,
            CliError::File { source, .. } => Some(source),
            CliError::Graph { source, .. } => Some(source),
            CliError::Io(source) => Some(source),
        }
    }
}

/// What `reach` prints on stderr for a failed command: the error and,
/// after a command-line mistake, the command's usage line.
pub fn error_report(e: &CliError) -> String {
    match e {
        CliError::Args(e) => e.report(),
        e => format!("error: {e}"),
    }
}

fn err(msg: impl Into<String>) -> CliError {
    CliError::Invalid(msg.into())
}

/// Refuses an index whose registry entry rules out this graph size
/// before a build that could run for hours; a name not in the
/// registry passes on to the build's typed error.
fn ensure_feasible<G: ?Sized, I: ?Sized, M>(
    registry: &Registry<G, I, M>,
    name: &str,
    n: usize,
    m: usize,
) -> Result<(), CliError> {
    match registry.spec(name) {
        Some(s) if !(s.feasible)(n, m) => Err(err(format!(
            "index {:?} is infeasible at n={n}, m={m} (its registry entry rules out this size)",
            s.name
        ))),
        _ => Ok(()),
    }
}

/// A registry's unknown-name error, pointing at the list of names.
impl From<UnknownIndex> for CliError {
    fn from(e: UnknownIndex) -> Self {
        err(format!("{e} (see `reach indexes`)"))
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

/// A loaded graph file: plain or labeled, detected from the header.
pub enum LoadedGraph {
    /// A plain digraph (header: `<n>`).
    Plain(Arc<DiGraph>),
    /// An edge-labeled digraph (header: `<n> <k>`).
    Labeled(Arc<LabeledGraph>),
}

/// Loads an edge-list file, plain or labeled as [`io::is_labeled`]
/// reads its header. Errors name the offending path, and parse errors
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
    if io::is_labeled(&text) {
        Ok(LoadedGraph::Labeled(Arc::new(
            io::read_labeled(&text).map_err(graph_err)?,
        )))
    } else {
        Ok(LoadedGraph::Plain(Arc::new(
            io::read_digraph(&text).map_err(graph_err)?,
        )))
    }
}

/// One subcommand: `reach help`, dispatch and the parser's errors
/// all read it from [`COMMANDS`].
pub struct Command {
    /// The word after `reach`.
    pub name: &'static str,
    /// Its usage line, `reach` included.
    pub usage: &'static str,
    summary: &'static str,
    /// The only flags it accepts.
    pub flags: &'static [Flag],
    run: fn(&Args, &mut dyn Write) -> Result<(), CliError>,
}

/// The subcommands, in the order `reach help` lists them.
pub const COMMANDS: [Command; 9] = [
    Command {
        name: "gen",
        usage: "reach gen <shape> <n> [--seed S] [--labels K] [--out FILE]",
        summary: "generate a workload",
        flags: &[Value("--seed"), Value("--labels"), Value("--out")],
        run: cmd_gen,
    },
    Command {
        name: "stats",
        usage: "reach stats <graph>",
        summary: "structural summary",
        flags: &[],
        run: cmd_stats,
    },
    Command {
        name: "indexes",
        usage: "reach indexes",
        summary: "list techniques (Table 1 & 2)",
        flags: &[],
        run: cmd_indexes,
    },
    Command {
        name: "query",
        usage: "reach query <graph> [--index NAME] (<s> <t> ... | --batch FILE [--threads N])",
        summary: "plain reachability, per pair or as a batch",
        flags: &[Value("--index"), Value("--batch"), Value("--threads")],
        run: cmd_query,
    },
    Command {
        name: "lcr",
        usage: "reach lcr <graph> [--index NAME] --constraint EXPR [--alphabet A,B,..] <s> <t> ...",
        summary: "path-constrained reachability",
        flags: &[Value("--index"), Value("--constraint"), Value("--alphabet")],
        run: cmd_lcr,
    },
    Command {
        name: "witness",
        usage: "reach witness <graph> [--constraint EXPR] [--alphabet A,B,..] <s> <t> ...",
        summary: "show an explaining path",
        flags: &[Value("--constraint"), Value("--alphabet")],
        run: cmd_witness,
    },
    Command {
        name: "bench",
        usage: "reach bench <graph> [--index NAME ...] [--queries N] [--positive P]",
        summary: "time builds and queries",
        flags: &[List("--index"), Value("--queries"), Value("--positive")],
        run: cmd_bench,
    },
    Command {
        name: "verify",
        usage: "reach verify <graph> (--index NAME ...|--all) [--queries N] [--seed S]",
        summary: "audit index invariants against the BFS ground truth",
        flags: &[
            List("--index"),
            Switch("--all"),
            Value("--queries"),
            Value("--seed"),
        ],
        run: cmd_verify,
    },
    Command {
        name: "serve",
        usage: "reach serve <graph> [--index NAME] [--lcr NAME] [--port N] [--workers K] \
                [--threads N] [--port-file FILE]",
        summary: "HTTP query service",
        flags: &[
            Value("--index"),
            Value("--lcr"),
            Value("--port"),
            Value("--workers"),
            Value("--threads"),
            Value("--port-file"),
        ],
        run: cmd_serve,
    },
];

/// Entry point shared by the binary and the tests.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let Some((name, rest)) = argv.split_first() else {
        return cmd_help(out);
    };
    if ["help", "--help", "-h"].contains(&name.as_str()) {
        return cmd_help(out);
    }
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| ArgError {
            message: format!("unknown command {name:?}"),
            usage: "reach <command> ... (`reach help` lists the commands)",
        })?;
    let args = args::parse(rest, command.flags, command.usage)?;
    (command.run)(&args, out)
}

/// The positional arguments of a command that takes exactly `N`.
fn positional<'a, const N: usize>(args: &'a Args) -> Result<[&'a str; N], ArgError> {
    let found: Vec<&str> = args.positional.iter().map(String::as_str).collect();
    found.try_into().map_err(|found: Vec<&str>| {
        args.error(format!("expected {N} argument(s), found {}", found.len()))
    })
}

/// The graph file and the `<s> <t>` tokens after it.
fn graph_and_pairs<'a>(args: &'a Args) -> Result<(&'a String, &'a [String]), ArgError> {
    args.positional
        .split_first()
        .ok_or_else(|| args.error("missing the graph file"))
}

/// The label names `--alphabet` gives, in label order.
fn alphabet<'a>(args: &'a Args) -> Vec<&'a str> {
    args.value("--alphabet")
        .map_or(Vec::new(), |names| names.split(',').collect())
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

fn cmd_witness(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    use reach_labeled::{witness::rpq_witness, Ast, Nfa};
    let (path, pairs_tokens) = graph_and_pairs(args)?;
    let LoadedGraph::Labeled(g) = load_graph(path)? else {
        return Err(err(format!(
            "{path} is a plain graph; witness needs a labeled one"
        )));
    };
    let pairs = parse_pairs(pairs_tokens, g.num_vertices())?;
    // no constraint: any path, i.e. (l1 ∪ … ∪ lk)* over the whole alphabet
    let ast = match args.value("--constraint").unwrap_or("") {
        "" => Ast::Star(Box::new(Ast::Labels(LabelSet::full(g.num_labels())))),
        expr => reach_labeled::parse(expr, &alphabet(args)).map_err(|e| err(e.to_string()))?,
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
        "reach — reachability indexes on graphs (SIGMOD'23 survey implementation)\n\ncommands:"
    )?;
    for c in &COMMANDS {
        let usage = c.usage.trim_start_matches("reach ");
        if usage.len() < 55 {
            writeln!(out, "  {usage:<55}{}", c.summary)?;
        } else {
            writeln!(out, "  {usage}\n        {}", c.summary)?;
        }
    }
    writeln!(
        out,
        "\n\
         shapes: {}\n\
         constraint syntax: l | a·b (or a.b) | a∪b (or a|b) | a* | a+ | (...)\n\
         labels in constraints: numeric (0,1,2,…) or --alphabet name,name,…",
        ALL_SHAPES.map(|s| s.name()).join(", ")
    )?;
    Ok(())
}

fn cmd_gen(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let [shape, n] = positional(args)?;
    let shape = ALL_SHAPES
        .into_iter()
        .find(|s| s.name() == shape)
        .ok_or_else(|| {
            args.error(format!(
                "unknown shape {shape:?} (expected one of: {})",
                ALL_SHAPES.map(|s| s.name()).join(", ")
            ))
        })?;
    let n = n
        .parse()
        .ok()
        .filter(|&n: &usize| n >= 2)
        .ok_or_else(|| args.error(format!("invalid vertex count {n:?} (at least 2)")))?;
    let seed = args.get("--seed")?.unwrap_or(42);
    let labels: Option<usize> = args.get("--labels")?;
    if labels.is_some_and(|k| !(1..=64).contains(&k)) {
        return Err(args.error("--labels must be between 1 and 64").into());
    }
    let text = match labels {
        Some(k) => io::write_labeled(&shape.generate_labeled(n, k, seed)),
        None => io::write_digraph(&shape.generate(n, seed)),
    };
    match args.value("--out") {
        Some(p) => {
            std::fs::write(p, &text).map_err(|source| CliError::File {
                path: p.to_string(),
                source,
            })?;
            writeln!(out, "wrote {} ({} lines)", p, text.lines().count())?;
        }
        None => out.write_all(text.as_bytes())?,
    }
    Ok(())
}

fn cmd_stats(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let [path] = positional(args)?;
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

fn cmd_indexes(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    positional::<0>(args)?;
    writeln!(out, "plain reachability indexes (Table 1):")?;
    for spec in PLAIN_REGISTRY.specs {
        if spec.name.starts_with("online") {
            continue;
        }
        let m = spec.meta;
        writeln!(
            out,
            "  {:<14} {:?} / {:?} / {:?} input / {:?}",
            m.name, m.framework, m.completeness, m.input, m.dynamism
        )?;
    }
    writeln!(
        out,
        "\npath-constrained indexes (Table 2): {}",
        LCR_REGISTRY.names().join(", ")
    )?;
    writeln!(out, "  plus: RLC index (concatenation constraints)")?;
    writeln!(
        out,
        "\nonline baselines: online-BFS, online-DFS, online-BiBFS"
    )?;
    Ok(())
}

fn parse_pairs(tokens: &[String], n: usize) -> Result<Vec<(VertexId, VertexId)>, CliError> {
    if tokens.is_empty() || !tokens.len().is_multiple_of(2) {
        return Err(err("queries come as <s> <t> pairs"));
    }
    tokens
        .chunks(2)
        .map(|pair| {
            let id = |tok: &String| match tok.parse::<u32>() {
                Ok(v) if (v as usize) < n => Ok(VertexId(v)),
                Ok(_) => Err(err(format!("vertex id out of range (n = {n})"))),
                Err(_) => Err(err(format!("invalid vertex id: {tok:?}"))),
            };
            Ok((id(&pair[0])?, id(&pair[1])?))
        })
        .collect()
}

/// Reads a batch file into query pairs with the grammar of a
/// `POST /batch` body: one `<s> <t>` pair per line, blank lines and `#`
/// comments skipped.
fn read_batch_file(path: &str, n: usize) -> Result<Vec<(VertexId, VertexId)>, CliError> {
    let text = std::fs::read_to_string(path).map_err(|source| CliError::File {
        path: path.to_string(),
        source,
    })?;
    reach_server::body::parse_batch(&text, n).map_err(|e| err(format!("{path}: {}", e.trim_end())))
}

fn cmd_query(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let (path, pairs_tokens) = graph_and_pairs(args)?;
    let batch = args.value("--batch");
    let threads = args.get_at_least("--threads", 1, 1)?;
    if batch.is_none() && args.has("--threads") {
        return Err(args.error("--threads applies to --batch only").into());
    }
    let g = match load_graph(path)? {
        LoadedGraph::Plain(g) => g,
        LoadedGraph::Labeled(lg) => Arc::new(lg.to_digraph()),
    };
    let name = args.value("--index").unwrap_or("BFL");
    let pairs = match batch {
        Some(file) => {
            if !pairs_tokens.is_empty() {
                return Err(args.error("--batch replaces inline <s> <t> pairs").into());
            }
            read_batch_file(file, g.num_vertices())?
        }
        None => parse_pairs(pairs_tokens, g.num_vertices())?,
    };
    ensure_feasible(&PLAIN_REGISTRY, name, g.num_vertices(), g.num_edges())?;
    let prepared = PreparedGraph::new_shared(g);
    let (idx, report) = PLAIN_REGISTRY.build(name, &prepared, &BuildOpts::default())?;
    writeln!(out, "built {}", fmt_build_report(&report))?;
    if batch.is_some() {
        let engine = reach_core::QueryEngine::new(threads);
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

fn cmd_lcr(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let (path, pairs_tokens) = graph_and_pairs(args)?;
    let expr = args
        .value("--constraint")
        .ok_or_else(|| args.error("lcr requires --constraint"))?;
    let LoadedGraph::Labeled(g) = load_graph(path)? else {
        return Err(err(format!(
            "{path} is a plain graph; lcr needs a labeled one"
        )));
    };
    let ast = reach_labeled::parse(expr, &alphabet(args)).map_err(|e| err(e.to_string()))?;
    let pairs = parse_pairs(pairs_tokens, g.num_vertices())?;

    match ast.classify() {
        ConstraintKind::Alternation(allowed) => {
            let name = args.value("--index").unwrap_or("P2H+");
            ensure_feasible(&LCR_REGISTRY, name, g.num_vertices(), g.num_edges())?;
            let (idx, report) = LCR_REGISTRY.build(name, &g, &BuildOpts::default())?;
            writeln!(
                out,
                "constraint is an alternation {allowed:?}; built {}",
                fmt_build_report(&report)
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

/// Builds the chosen indexes once, then serves them over HTTP until a
/// `POST /admin/shutdown` drains the worker pool. `--port 0` binds an
/// ephemeral port; `--port-file` writes the bound address to a file so
/// scripts (and CI) can discover it. Connections beyond the default
/// queue capacity of [`reach_server::ServerConfig`] get `429`.
fn cmd_serve(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    use reach_core::IndexService;
    use reach_labeled::LcrService;
    use reach_server::{ServerConfig, Services};

    let [path] = positional(args)?;
    let index = args.value("--index").unwrap_or("BFL");
    let lcr = args.value("--lcr");
    let port: u16 = args.get("--port")?.unwrap_or(7878);
    let mut cfg = ServerConfig::default();
    cfg.workers = args.get_at_least("--workers", cfg.workers, 1)?;
    let threads = args.get_at_least("--threads", 1, 1)?;

    let read_start = Instant::now();
    let (g, labeled) = match load_graph(path)? {
        LoadedGraph::Plain(g) => (g, None),
        LoadedGraph::Labeled(lg) => (Arc::new(lg.to_digraph()), Some(lg)),
    };
    let read = read_start.elapsed();
    ensure_feasible(&PLAIN_REGISTRY, index, g.num_vertices(), g.num_edges())?;
    if let (Some(name), Some(lg)) = (lcr, &labeled) {
        ensure_feasible(&LCR_REGISTRY, name, lg.num_vertices(), lg.num_edges())?;
    }
    let prepared = PreparedGraph::new_shared(g);
    let plain = IndexService::build(index, prepared, &BuildOpts::default(), threads)?;
    let plain = Arc::new(plain);
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
            let svc = Arc::new(LcrService::build(name, lg, &BuildOpts::default())?);
            writeln!(out, "built {} (LCR)", fmt_build_report(svc.report()))?;
            Some(svc)
        }
    };

    cfg.addr = format!("127.0.0.1:{port}");
    let handle = reach_server::start(Services { plain, lcr }, cfg.clone())?;
    if let Some(pf) = args.value("--port-file") {
        std::fs::write(pf, handle.addr().to_string()).map_err(|source| CliError::File {
            path: pf.to_string(),
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

/// Rebuilds each chosen index over the graph and runs the invariant
/// audit: a sampled differential against the BFS ground truth,
/// batch-vs-scalar consistency, self-reachability, and the technique's
/// own structural invariants (interval nesting, 2-hop cover soundness
/// and completeness, condensation consistency, …). Labeled graphs
/// additionally audit the LCR indexes against the constrained BFS.
/// Exits nonzero if any audited index reports a violation.
fn cmd_verify(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    use reach_core::audit::{AuditConfig, AuditOutcome};

    let [path] = positional(args)?;
    let all = args.has("--all");
    if args.values("--index").is_empty() && !all {
        return Err(args
            .error("verify needs --index NAME (repeatable) or --all")
            .into());
    }
    let (g, labeled) = match load_graph(path)? {
        LoadedGraph::Plain(g) => (g, None),
        LoadedGraph::Labeled(lg) => (Arc::new(lg.to_digraph()), Some(lg)),
    };
    let cfg = AuditConfig {
        pairs: args.get("--queries")?.unwrap_or(1000),
        seed: args.get("--seed")?.unwrap_or(AuditConfig::default().seed),
    };
    let opts = BuildOpts::default();
    let prepared = PreparedGraph::new_shared(Arc::clone(&g));
    let plain_known = PLAIN_REGISTRY.names();
    let lcr_known = LCR_REGISTRY.names();

    let selected: Vec<&str> = if all {
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
        args.values("--index")
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
            if !PLAIN_REGISTRY.feasible(name, g.num_vertices(), g.num_edges()) {
                writeln!(
                    out,
                    "{name}: skipped (infeasible at n={}, m={})",
                    g.num_vertices(),
                    g.num_edges()
                )?;
                continue;
            }
            let outcome = reach_core::audit::audit_plain(name, &prepared, &opts, &cfg)?;
            report(out, outcome)?;
        } else if lcr_known.contains(&name) {
            let Some(lg) = &labeled else {
                writeln!(out, "{name}: skipped ({path} is a plain graph)")?;
                continue;
            };
            if !LCR_REGISTRY.feasible(name, lg.num_vertices(), lg.num_edges()) {
                writeln!(
                    out,
                    "{name}: skipped (infeasible at n={})",
                    lg.num_vertices()
                )?;
                continue;
            }
            let outcome = reach_labeled::audit_lcr(name, lg, &opts, &cfg)?;
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

fn cmd_bench(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let [path] = positional(args)?;
    let queries = args.get("--queries")?.unwrap_or(1000);
    let positive = args.get("--positive")?.unwrap_or(0.5);
    if !(0.0..=1.0).contains(&positive) {
        return Err(args.error("--positive must be between 0 and 1").into());
    }
    let g = match load_graph(path)? {
        LoadedGraph::Plain(g) => g,
        LoadedGraph::Labeled(lg) => Arc::new(lg.to_digraph()),
    };
    if g.num_vertices() < 2 {
        return Err(err(format!(
            "{path}: bench draws pairs of distinct vertices and needs at least two"
        )));
    }
    // more pairs than the graph has would only grow the query buffers
    let pairs = g.num_vertices() as u128 * (g.num_vertices() as u128 - 1);
    if queries as u128 > pairs {
        return Err(args
            .error(format!(
                "--queries {queries} exceeds the {pairs} ordered pairs of distinct vertices"
            ))
            .into());
    }
    let mut names = args.values("--index");
    if names.is_empty() {
        names = vec!["GRAIL", "BFL", "PLL", "online-BFS"];
    }
    let mix = query_mix(&g, queries, positive, 7);
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
        // an unknown name falls through to the build's typed error
        if PLAIN_REGISTRY
            .spec(name)
            .is_some_and(|s| !(s.feasible)(g.num_vertices(), g.num_edges()))
        {
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
        let (idx, report) = PLAIN_REGISTRY.build(name, &prepared, &opts)?;
        let (hits, q) = timed(|| mix.pairs.iter().filter(|&&(s, t)| idx.query(s, t)).count());
        assert_eq!(hits, mix.positives, "{name} answered a query wrongly");
        table.row([
            name.to_string(),
            fmt_duration(report.total),
            fmt_condense(&report),
            fmt_duration(report.label),
            report.size_entries.to_string(),
            fmt_bytes(report.size_bytes),
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
        for c in &COMMANDS {
            assert!(
                s.contains(&format!("\n  {} ", c.name)),
                "{} missing: {s}",
                c.name
            );
        }
        assert!(run_to_string(&[]).unwrap().contains("commands"));
    }

    #[test]
    fn unknown_command_fails() {
        assert!(run_to_string(&["frobnicate"]).is_err());
    }

    /// Asserts that `args` fails as a command-line mistake whose message
    /// contains `expect`, carrying the usage line of `args[0]`.
    fn assert_argument_error(args: &[&str], expect: &str) {
        match run_to_string(args) {
            Err(CliError::Args(e)) => {
                assert!(e.message.contains(expect), "{args:?}: {e}");
                let command = COMMANDS.iter().find(|c| c.name == args[0]).unwrap();
                assert_eq!(e.usage, command.usage, "{args:?}");
            }
            other => panic!("{args:?}: expected an argument error, got {other:?}"),
        }
    }

    #[test]
    fn a_flag_the_command_does_not_read_is_an_error() {
        for c in &COMMANDS {
            assert_argument_error(&[c.name, "--bogus"], "unknown flag \"--bogus\"");
        }
        let path = tmp("flags.el");
        run_to_string(&["gen", "sparse-dag", "20", "--out", &path]).unwrap();
        for (args, flag) in [
            (
                vec![
                    "query",
                    &path,
                    "--index",
                    "BFL",
                    "--constraint",
                    "junk",
                    "0",
                    "5",
                ],
                "unknown flag \"--constraint\"",
            ),
            (
                vec!["query", &path, "--index", "BFL", "--index", "PLL", "0", "5"],
                "--index given more than once",
            ),
            (
                vec!["bench", &path, "--seed", "3"],
                "unknown flag \"--seed\"",
            ),
            (
                vec!["verify", &path, "--index", "BFL", "--threads", "2"],
                "unknown flag \"--threads\"",
            ),
            (
                vec!["query", &path, "--threads", "2", "0", "1"],
                "--threads",
            ),
            (vec!["query", &path, "--index"], "--index needs a value"),
            (
                vec!["stats", &path, "extra"],
                "expected 1 argument(s), found 2",
            ),
            (vec!["indexes", "extra"], "expected 0 argument(s), found 1"),
        ] {
            assert_argument_error(&args, flag);
        }
    }

    #[test]
    fn the_usage_line_follows_only_argument_mistakes() {
        let e = run_to_string(&["query", "g.el", "--bogus"]).unwrap_err();
        assert_eq!(
            error_report(&e),
            format!(
                "error: unknown flag \"--bogus\"\nusage: {}",
                COMMANDS.iter().find(|c| c.name == "query").unwrap().usage
            )
        );
        // `lcr_refuses_an_oversized_rlc_unit_universe` checks an
        // `Invalid` error's report
        let broken_pipe = CliError::Io(std::io::ErrorKind::BrokenPipe.into());
        assert_eq!(error_report(&broken_pipe), format!("error: {broken_pipe}"));
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
            Err(e @ CliError::Invalid(_)) => {
                assert!(e.to_string().contains("unit universe too large"), "{e}");
                // not an argument mistake: no usage line
                assert_eq!(error_report(&e), format!("error: {e}"));
            }
            other => panic!("expected an Invalid error, got {other:?}"),
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
    fn bench_rejects_more_queries_than_pairs() {
        let path = tmp("g_pairs.el");
        run_to_string(&["gen", "sparse-dag", "10", "--out", &path]).unwrap();
        for count in ["91", "100000000000000000"] {
            let e = run_to_string(&["bench", &path, "--queries", count]).unwrap_err();
            assert!(matches!(e, CliError::Args(_)), "{e}");
            assert!(e.to_string().contains("--queries"), "{e}");
        }
        // n·(n−1) = 90 pairs is the most a 10-vertex graph has
        let s = run_to_string(&["bench", &path, "--queries", "90", "--index", "BFL"]).unwrap();
        assert!(s.contains("BFL"), "{s}");
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
            assert!(matches!(e, CliError::Invalid(_)), "{e}");
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
            assert!(matches!(e, CliError::Invalid(_)), "{e}");
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
            assert!(matches!(e, CliError::Invalid(_)), "{e}");
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
        // a reachable share outside [0, 1], and a graph with no pair of
        // distinct vertices, are errors for bench, not panics
        for share in ["2", "-1", "nan"] {
            assert_argument_error(&["bench", &path, "--positive", share], "--positive");
        }
        let one = tmp("g6one.el");
        std::fs::write(&one, "1\n").unwrap();
        let e = run_to_string(&["bench", &one]).unwrap_err();
        assert!(matches!(e, CliError::Invalid(_)), "{e}");
        assert!(e.to_string().contains("at least two"), "{e}");
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
    fn batch_files_take_the_pairs_a_batch_body_gives() {
        let path = tmp("g11.el");
        run_to_string(&["gen", "sparse-dag", "30", "--out", &path]).unwrap();
        let batch = tmp("batch11.txt");
        for rejected in ["1 2 3\n4\n", "0\n1\n", "0 30\n", "", "# no pairs\n"] {
            assert!(reach_server::body::parse_batch(rejected, 30).is_err());
            std::fs::write(&batch, rejected).unwrap();
            let e = run_to_string(&["query", &path, "--batch", &batch]).unwrap_err();
            assert!(e.to_string().starts_with(&format!("{batch}: ")), "{e}");
        }
        let text = "# two pairs\r\n0 29\r\n\r\n 5 +7 \r\n";
        let pairs = reach_server::body::parse_batch(text, 30).unwrap();
        std::fs::write(&batch, text).unwrap();
        let s = run_to_string(&["query", &path, "--batch", &batch]).unwrap();
        let asked: Vec<&str> = s
            .lines()
            .filter_map(|l| l.split_once(" = ").map(|(q, _)| q))
            .collect();
        let want: Vec<String> = pairs.iter().map(|(s, t)| format!("Qr({s}, {t})")).collect();
        assert_eq!(asked, want);
        assert_eq!(want, ["Qr(0, 29)", "Qr(5, 7)"]);
    }

    #[test]
    fn build_lines_tell_computed_shared_and_no_condensation_apart() {
        let plain = tmp("g12.el");
        run_to_string(&["gen", "cyclic", "60", "--seed", "3", "--out", &plain]).unwrap();
        let s = run_to_string(&["query", &plain, "--index", "PLL", "0", "1"]).unwrap();
        assert!(s.contains("built PLL: total "), "{s}");
        assert!(s.contains(" (no condensation, label "), "{s}");
        let s = run_to_string(&["query", &plain, "--index", "GRAIL", "0", "1"]).unwrap();
        assert!(s.contains(" (condense "), "{s}");
        let s = run_to_string(&[
            "bench",
            &plain,
            "--index",
            "GRAIL",
            "--index",
            "PLL",
            "--index",
            "BFL",
            "--queries",
            "20",
        ])
        .unwrap();
        let condense = |name: &str| {
            let row = s
                .lines()
                .find(|l| l.starts_with(&format!("{name} ")))
                .unwrap();
            row.split_whitespace().nth(2).unwrap().to_string()
        };
        assert!(condense("GRAIL").ends_with('s'), "{s}");
        assert_eq!(condense("PLL"), "none", "{s}");
        assert_eq!(condense("BFL"), "shared", "{s}");
        let labeled = tmp("lg12.el");
        run_to_string(&[
            "gen", "cyclic", "60", "--labels", "3", "--seed", "3", "--out", &labeled,
        ])
        .unwrap();
        let s = run_to_string(&["lcr", &labeled, "--constraint", "(0|1)*", "0", "1"]).unwrap();
        assert!(s.contains("; built P2H+: total "), "{s}");
        assert!(s.contains(" (no condensation, label "), "{s}");
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
        // tokens after the label count do not make a header plain
        for header in ["3 2 extra", "3 2 # note"] {
            std::fs::write(&path, format!("{header}\n0 1 2\n")).unwrap();
            assert!(matches!(load_graph(&path), Ok(LoadedGraph::Labeled(_))));
        }
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
        assert!(e.to_string().contains("unknown flag \"--queue\""), "{e}");
    }
}
