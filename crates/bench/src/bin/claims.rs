//! Reproduces the survey's qualitative performance claims (§2.3 and
//! §5) on synthetic workloads.
//!
//! ```text
//! cargo run --release -p reach-bench --bin claims -- [--baseline] [--speedup]
//!     [--scaling [--full]] [--negatives] [--labeled-cost] [--parallel]
//!     [--dynamic]   (default: all)
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reach_bench::args::{self, Flag};
use reach_bench::queries::{query_mix, random_pair};
use reach_bench::report::{fmt_bytes, fmt_duration, timed, Table};
use reach_bench::workloads::Shape;
use reach_core::pipeline::{BuildOpts, PLAIN_REGISTRY};
use reach_core::ReachIndex;
use reach_graph::traverse::{bfs_reaches, bfs_reaches_counted, VisitMap};
use reach_graph::{DiGraph, Label, LabelSet, LabeledGraph, PreparedGraph, VertexId};
use reach_labeled::online::lcr_bfs;
use reach_labeled::{LcrIndex, LCR_REGISTRY};
use std::sync::Arc;
use std::time::Duration;

/// Builds registry entry `name` over a prepared graph of its own, so
/// a timed build includes the condensation.
fn build(name: &str, g: &Arc<DiGraph>) -> Box<dyn ReachIndex> {
    let prepared = PreparedGraph::new_shared(Arc::clone(g));
    let (idx, _) = PLAIN_REGISTRY
        .build(name, &prepared, &BuildOpts::default())
        .expect("registry name");
    idx
}

/// §2.3: "online traversal visits a large portion of the graph" and
/// "the high computation and storage costs make TC infeasible".
fn baseline() {
    println!("== §2.3: why indexes exist ==\n");
    let mut table = Table::new([
        "workload",
        "n",
        "avg visited (negative queries)",
        "fraction",
        "TC bytes (n²/8)",
    ]);
    for shape in [Shape::Sparse, Shape::Dense, Shape::PowerLaw] {
        let n = 20_000;
        let g = shape.generate(n, 1);
        let mix = query_mix(&g, 200, 0.0, 2);
        let mut vm = VisitMap::new(g.num_vertices());
        let mut visited = 0usize;
        for &(s, t) in &mix.pairs {
            let (_, stats) = bfs_reaches_counted(&g, s, t, &mut vm);
            visited += stats.visited;
        }
        let avg = visited as f64 / mix.pairs.len() as f64;
        table.row([
            shape.name().to_string(),
            n.to_string(),
            format!("{avg:.0}"),
            format!("{:.1}%", 100.0 * avg / n as f64),
            fmt_bytes(n * n / 8),
        ]);
    }
    println!("{}", table.render());
    println!("A failed (unreachable) BFS visits the whole forward closure; the");
    println!("materialized TC needs quadratic space — both survey observations.\n");
}

/// §5: "reachability processing using these indexes can be an order of
/// magnitude faster than using only graph traversal".
fn speedup() {
    println!("== §5: index-guided queries vs pure traversal ==\n");
    let n = 50_000;
    let mut table = Table::new(["workload", "technique", "avg query", "speedup vs BFS"]);
    for shape in [Shape::Sparse, Shape::PowerLaw, Shape::Deep] {
        let g = Arc::new(shape.generate(n, 3));
        let mix = query_mix(&g, 1_000, 0.3, 4);
        let bfs = build("online-BFS", &g);
        let (_, bfs_time) = timed(|| {
            for &(s, t) in &mix.pairs {
                std::hint::black_box(bfs.query(s, t));
            }
        });
        for name in ["GRAIL", "BFL", "IP", "PReaCH", "PLL"] {
            let idx = build(name, &g);
            let (_, t) = timed(|| {
                for &(s, t) in &mix.pairs {
                    std::hint::black_box(idx.query(s, t));
                }
            });
            table.row([
                shape.name().to_string(),
                name.to_string(),
                fmt_duration(t / mix.pairs.len() as u32),
                format!("{:.1}x", bfs_time.as_secs_f64() / t.as_secs_f64()),
            ]);
        }
        table.row([
            shape.name().to_string(),
            "online-BFS".to_string(),
            fmt_duration(bfs_time / mix.pairs.len() as u32),
            "1.0x".to_string(),
        ]);
    }
    println!("{}", table.render());
}

/// §5: "BFL can be built in a few seconds on graphs with millions of
/// vertices, with an index size of only a few hundred megabytes".
fn scaling(full: bool) {
    println!("== §5: approximate-TC build scaling ==\n");
    let sizes: &[usize] = if full {
        &[100_000, 500_000, 2_000_000]
    } else {
        &[50_000, 100_000, 200_000]
    };
    let mut table = Table::new(["n", "m", "technique", "build", "index bytes"]);
    for &n in sizes {
        let g = Arc::new(Shape::PowerLaw.generate(n, 5));
        for name in ["BFL", "IP", "GRAIL", "Feline", "PReaCH"] {
            let (idx, build) = timed(|| build(name, &g));
            table.row([
                n.to_string(),
                g.num_edges().to_string(),
                name.to_string(),
                fmt_duration(build),
                fmt_bytes(idx.size_bytes()),
            ]);
        }
    }
    println!("{}", table.render());
    if !full {
        println!("(pass --full for the 2M-vertex configuration)\n");
    }
}

/// §5: partial indexes *without false negatives* dominate on
/// unreachable-heavy workloads; a no-false-positive partial (GRIPP)
/// cannot stop early on negatives.
fn negatives() {
    println!("== §5: the value of no-false-negative lookups ==\n");
    let n = 30_000;
    let g = Arc::new(Shape::Sparse.generate(n, 8));
    let mut table = Table::new(["negative share", "technique", "avg query"]);
    for share in [0.1, 0.5, 0.9] {
        let mix = query_mix(&g, 600, 1.0 - share, 11);
        for name in ["GRAIL", "BFL", "IP", "Feline", "GRIPP", "online-BFS"] {
            let idx = build(name, &g);
            let (_, t) = timed(|| {
                for &(s, t) in &mix.pairs {
                    std::hint::black_box(idx.query(s, t));
                }
            });
            table.row([
                format!("{:.0}%", share * 100.0),
                name.to_string(),
                fmt_duration(t / mix.pairs.len() as u32),
            ]);
        }
    }
    println!("{}", table.render());
    println!("GRAIL/BFL/IP/Feline reject unreachable pairs by lookup; GRIPP's");
    println!("positive-only lookups must traverse on every negative — the gap");
    println!("grows with the negative share, §5's core argument.\n");
}

/// §5: "the index construction cost of path-constrained reachability
/// indexes is high" compared to plain indexes on the same graph.
fn labeled_cost() {
    println!("== §5: plain vs path-constrained construction cost ==\n");
    let n = 1_000;
    let g = Arc::new(Shape::Sparse.generate_labeled(n, 8, 21));
    let plain = Arc::new(g.to_digraph());
    let mut table = Table::new(["technique", "kind", "build", "entries"]);
    for name in ["PLL", "TOL", "BFL", "GRAIL"] {
        let (idx, build) = timed(|| build(name, &plain));
        table.row([
            name.to_string(),
            "plain".to_string(),
            fmt_duration(build),
            idx.size_entries().to_string(),
        ]);
    }
    for name in ["P2H+", "DLCR", "Landmark index", "Jin et al.", "Zou et al."] {
        let (_, report) = LCR_REGISTRY
            .build(name, &g, &BuildOpts::default())
            .expect("registry name");
        table.row([
            name.to_string(),
            "LCR".to_string(),
            fmt_duration(report.total),
            report.size_entries.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("Same graph (n={n}, |L|=8): the label-set dimension multiplies both");
    println!("construction time and entry counts — §5's cost observation.\n");
}

/// §5 open challenge: "the parallel computation of indexes … is also
/// worth exploring" — each family's one builder at 1 thread and at the
/// host's available parallelism, with identical outputs.
fn parallel() {
    use reach_core::grail::build_grail;
    use reach_core::hl::Hl;
    use reach_core::tol::{OrderStrategy, Tol};
    use reach_graph::Dag;

    println!("== §5 open challenge: parallel index construction ==\n");
    let n = 200_000;
    let dag = Dag::new(Shape::PowerLaw.generate(n, 9)).expect("power-law is acyclic");
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("available_parallelism = {threads}\n");
    let mut table = Table::new([
        "technique",
        "sequential",
        &format!("parallel ({threads} threads)"),
        "speedup",
    ]);
    let mut row = |technique: &str, build: &dyn Fn(usize)| {
        let (_, seq) = timed(|| build(1));
        let (_, par) = timed(|| build(threads));
        table.row([
            technique.to_string(),
            fmt_duration(seq),
            fmt_duration(par),
            format!("{:.1}x", seq.as_secs_f64() / par.as_secs_f64()),
        ]);
    };
    row("GRAIL k=8", &|t| drop(build_grail(&dag, 8, 3, t)));
    row("HL 32 landmarks", &|t| drop(Hl::build(&dag, 32, t)));
    let small = Dag::new(Shape::Sparse.generate(20_000, 10)).expect("sparse is acyclic");
    row("TOL canonical (n=20k)", &|t| {
        drop(Tol::build(
            small.graph(),
            OrderStrategy::DegreeDescending,
            t,
        ))
    });
    println!("{}", table.render());
    println!("Each builder's output is identical at every thread count (tested in");
    println!("reach-core's grail, hl and tol modules); the speedup is pure");
    println!("thread-level parallelism, bounded by the core count above.\n");
}

/// One edge update of a dynamic-index stream.
#[derive(Clone, Copy)]
enum Update<E> {
    Insert(E),
    Delete(E),
}

/// A stream of `rounds` inserts of fresh random edges, each followed
/// (when `deletes`) by the deletion of a random edge still present.
/// `edges` starts as the base graph's edge list and ends as the graph
/// the stream leaves behind, which the exactness check runs on.
fn update_stream<E: Copy + PartialEq>(
    edges: &mut Vec<E>,
    rounds: usize,
    deletes: bool,
    rng: &mut SmallRng,
    mut fresh: impl FnMut(&mut SmallRng) -> E,
) -> Vec<Update<E>> {
    let mut ops = Vec::with_capacity(2 * rounds);
    for _ in 0..rounds {
        let e = fresh(rng);
        // the indexes ignore an insert of an edge they already hold
        if !edges.contains(&e) {
            edges.push(e);
        }
        ops.push(Update::Insert(e));
        if deletes {
            let i = rng.random_range(0..edges.len());
            ops.push(Update::Delete(edges.swap_remove(i)));
        }
    }
    ops
}

/// An exactness check for a plain dynamic index: its answer for a
/// pair and BFS's over `edges`.
fn bfs_oracle<I: ReachIndex>(
    n: usize,
    edges: &[(VertexId, VertexId)],
) -> impl FnMut(&I, VertexId, VertexId) -> (bool, bool) {
    let edges: Vec<(u32, u32)> = edges.iter().map(|&(u, v)| (u.0, v.0)).collect();
    let g = DiGraph::from_edges(n, &edges);
    let mut vm = VisitMap::new(n);
    move |idx, s, t| (idx.query(s, t), bfs_reaches(&g, s, t, &mut vm))
}

/// The pairs a dynamic index is checked on after its stream: the
/// endpoints of every update, then 2000 random pairs.
fn check_pairs<E: Copy>(
    n: usize,
    ops: &[Update<E>],
    endpoints: fn(E) -> (VertexId, VertexId),
) -> Vec<(VertexId, VertexId)> {
    let mut rng = SmallRng::seed_from_u64(0xC4EC);
    let mut pairs: Vec<_> = ops
        .iter()
        .map(|&(Update::Insert(e) | Update::Delete(e))| endpoints(e))
        .collect();
    pairs.extend((0..2_000).map(|_| random_pair(n, &mut rng)));
    pairs
}

/// Builds an index, applies `ops` to it timing each update, then
/// checks it on `pairs`: `check` returns the index's answer and the
/// oracle's. Appends the row (mean per insert and per delete) once
/// every pair agreed.
fn update_row<I, E: Copy>(
    table: &mut Table,
    [technique, workload]: [&str; 2],
    build: impl FnOnce() -> I,
    ops: &[Update<E>],
    mut apply: impl FnMut(&mut I, Update<E>),
    pairs: &[(VertexId, VertexId)],
    mut check: impl FnMut(&I, VertexId, VertexId) -> (bool, bool),
) {
    let (mut idx, build) = timed(build);
    let mut total = [Duration::ZERO; 2];
    let mut count = [0u32; 2];
    for &op in ops {
        let kind = usize::from(matches!(op, Update::Delete(_)));
        total[kind] += timed(|| apply(&mut idx, op)).1;
        count[kind] += 1;
    }
    let mut reachable = 0;
    for &(s, t) in pairs {
        let (got, expect) = check(&idx, s, t);
        assert_eq!(
            got, expect,
            "{technique} wrong on ({s:?}, {t:?}) after its updates"
        );
        reachable += usize::from(expect);
    }
    let mean = |k: usize| match count[k] {
        0 => "-".to_string(),
        c => fmt_duration(total[k] / c),
    };
    table.row([
        technique.to_string(),
        workload.to_string(),
        fmt_duration(build),
        ops.len().to_string(),
        mean(0),
        mean(1),
        format!("{} ({reachable})", pairs.len()),
    ]);
}

/// The "Dynamic" columns of Tables 1 and 2: the cost of one edge
/// update for each maintainable index, with every index checked exact
/// (outside the timed loop) on the graph its stream leaves behind.
fn dynamic() {
    use reach_core::dagger::DynamicGrail;
    use reach_core::dbl::Dbl;
    use reach_core::tol::{OrderStrategy, Tol};
    use reach_graph::Dag;
    use reach_labeled::dlcr::Dlcr;

    println!("== Tables 1-2 \"Dynamic\": edge-update cost ==\n");
    let n = 1_000;
    // TOL recomputes every hop a deleted edge may have served, which on
    // this one-big-SCC graph costs more than a rebuild: few rounds keep
    // the report quick
    let rounds = 16;
    let mut table = Table::new([
        "technique",
        "workload",
        "build",
        "updates",
        "per insert",
        "per delete",
        "checked pairs (reachable)",
    ]);
    let mut rng = SmallRng::seed_from_u64(1);
    let fresh = |r: &mut SmallRng| random_pair(n, r);
    let base = Shape::Cyclic.generate(n, 23);
    let cyclic = format!("cyclic n={n}");

    let mut edges: Vec<_> = base.edges().collect();
    let ops = update_stream(&mut edges, rounds, true, &mut rng, fresh);
    update_row(
        &mut table,
        ["TOL insert+delete", &cyclic],
        || Tol::build(&base, OrderStrategy::DegreeDescending, 1),
        &ops,
        |idx, op| match op {
            Update::Insert((u, v)) => idx.insert_edge(u, v),
            Update::Delete((u, v)) => idx.delete_edge(u, v),
        },
        &check_pairs(n, &ops, |e| e),
        bfs_oracle(n, &edges),
    );

    let mut edges: Vec<_> = base.edges().collect();
    let ops = update_stream(&mut edges, rounds, false, &mut rng, fresh);
    update_row(
        &mut table,
        ["DBL insert-only", &cyclic],
        || Dbl::build(&base),
        &ops,
        |idx, op| match op {
            Update::Insert((u, v)) => idx.insert_edge(u, v),
            Update::Delete(_) => unreachable!("DBL's stream is insert-only"),
        },
        &check_pairs(n, &ops, |e| e),
        bfs_oracle(n, &edges),
    );

    let dag = Dag::new(Shape::Sparse.generate(n, 24)).expect("sparse shape is acyclic");
    let mut edges: Vec<_> = dag.graph().edges().collect();
    // forward edges keep the stream acyclic
    let ops = update_stream(&mut edges, rounds, true, &mut rng, |r| {
        let (u, v) = random_pair(n, r);
        (u.min(v), u.max(v))
    });
    update_row(
        &mut table,
        ["DAGGER forward-insert+delete", &format!("sparse-dag n={n}")],
        || DynamicGrail::build(&dag, 2, 3),
        &ops,
        |idx, op| match op {
            Update::Insert((u, v)) => idx.insert_edge(u, v),
            Update::Delete((u, v)) => idx.delete_edge(u, v),
        },
        &check_pairs(n, &ops, |e| e),
        bfs_oracle(n, &edges),
    );

    let (n, k) = (200, 3);
    let labeled = Shape::Cyclic.generate_labeled(n, k, 25);
    let mut edges: Vec<_> = labeled.edges().map(|(u, l, v)| (u.0, l.0, v.0)).collect();
    let ops = update_stream(&mut edges, rounds, true, &mut rng, |r| {
        let (u, v) = random_pair(n, r);
        (u.0, r.random_range(0..k as u8), v.0)
    });
    let g = LabeledGraph::from_edges(n, k, &edges);
    update_row(
        &mut table,
        [
            "DLCR insert+delete",
            &format!("labeled cyclic n={n} |L|={k}"),
        ],
        || Dlcr::build(&labeled),
        &ops,
        |idx, op| match op {
            Update::Insert((u, l, v)) => idx.insert_edge(VertexId(u), Label(l), VertexId(v)),
            Update::Delete((u, l, v)) => idx.delete_edge(VertexId(u), Label(l), VertexId(v)),
        },
        &check_pairs(n, &ops, |(u, _, v)| (VertexId(u), VertexId(v))),
        |idx, s, t| {
            let allowed = LabelSet(rng.random_range(1..1u64 << k));
            (idx.query(s, t, allowed), lcr_bfs(&g, s, t, allowed))
        },
    );

    println!("{}", table.render());
    println!("Deletes remove an edge the graph still holds. Every index answered");
    println!("the checked pairs exactly as BFS / label-BFS does on the graph its");
    println!("update stream left behind (checked outside the timed loop).\n");
}

/// A section's flag and its runner, which is given `--full`.
type Section = (&'static str, fn(bool));

/// The sections, each run by its flag; no section flag runs them all.
const SECTIONS: [Section; 7] = [
    ("--baseline", |_| baseline()),
    ("--speedup", |_| speedup()),
    ("--scaling", scaling),
    ("--negatives", |_| negatives()),
    ("--labeled-cost", |_| labeled_cost()),
    ("--parallel", |_| parallel()),
    ("--dynamic", |_| dynamic()),
];

fn main() {
    let flags: Vec<Flag> = SECTIONS
        .iter()
        .map(|&(flag, _)| Flag::Switch(flag))
        .chain([Flag::Switch("--full")])
        .collect();
    let (chosen, full) = args::from_env(
        &flags,
        "claims [--baseline] [--speedup] [--scaling [--full]] [--negatives] \
         [--labeled-cost] [--parallel] [--dynamic]   (default: all)",
        |a| Ok((SECTIONS.map(|(flag, _)| a.has(flag)), a.has("--full"))),
    );
    let all = !chosen.contains(&true);
    for ((_, section), chosen) in SECTIONS.into_iter().zip(chosen) {
        if all || chosen {
            section(full);
        }
    }
}
