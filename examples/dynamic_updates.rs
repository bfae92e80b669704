//! Dynamic reachability: the survey's Table-1/Table-2 "Dynamic"
//! column exercised as a streaming workload.
//!
//! ```text
//! cargo run --release --example dynamic_updates
//! ```
//!
//! Streams a mixed insert/delete edge workload into the three dynamic
//! plain indexes (TOL, DAGGER, DBL — the latter insert-only, as the
//! paper notes) and the dynamic LCR index (DLCR), answering queries
//! between updates and auditing every answer against a scratch BFS.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reachability::graph::generators::{random_digraph, random_labeled_digraph, LabelDistribution};
use reachability::graph::traverse::{bfs_reaches, VisitMap};
use reachability::labeled::dlcr::Dlcr;
use reachability::labeled::online::lcr_bfs;
use reachability::plain::dagger::DynamicGrail;
use reachability::plain::dbl::Dbl;
use reachability::plain::tol::{OrderStrategy, Tol};
use reachability::prelude::*;
use std::time::Instant;

fn main() {
    let mut rng = SmallRng::seed_from_u64(99);
    let n = 300;

    // ---- plain dynamic indexes --------------------------------------
    let g0 = random_digraph(n, 600, &mut rng);
    let mut tol = Tol::build(&g0, OrderStrategy::DegreeDescending, 1);
    let mut dbl = Dbl::build(&g0);

    let mut edges: Vec<(u32, u32)> = g0.edges().map(|(a, b)| (a.0, b.0)).collect();
    let mut audits = 0usize;
    let updates = 1_500usize;
    let t = Instant::now();
    let mut vm = VisitMap::new(n);
    for step in 0..updates {
        // 60% inserts, 40% deletes (DBL only sees the inserts)
        if rng.random_bool(0.6) || edges.is_empty() {
            let u = rng.random_range(0..n as u32);
            let mut v = rng.random_range(0..n as u32 - 1);
            if v >= u {
                v += 1;
            }
            if !edges.contains(&(u, v)) {
                tol.insert_edge(VertexId(u), VertexId(v));
                dbl.insert_edge(VertexId(u), VertexId(v));
                edges.push((u, v));
            }
        } else {
            let i = rng.random_range(0..edges.len());
            let (u, v) = edges.swap_remove(i);
            tol.delete_edge(VertexId(u), VertexId(v));
            // DBL is insertion-only: rebuild (the honest cost the
            // survey's "insertion-only" classification implies)
            let g = DiGraph::from_edges(n, &edges);
            dbl = Dbl::build(&g);
        }
        // audit a few random queries against BFS every 50 updates
        if step % 50 == 0 {
            let g = DiGraph::from_edges(n, &edges);
            for _ in 0..20 {
                let s = VertexId(rng.random_range(0..n as u32));
                let q = VertexId(rng.random_range(0..n as u32));
                let expect = bfs_reaches(&g, s, q, &mut vm);
                assert_eq!(tol.query(s, q), expect, "TOL wrong after update {step}");
                assert_eq!(dbl.query(s, q), expect, "DBL wrong after update {step}");
                audits += 1;
            }
        }
    }
    println!(
        "plain stream: {updates} updates, {audits} audited queries, all correct ({:?})",
        t.elapsed()
    );
    println!(
        "  TOL labels now hold {} entries; DBL uses {} landmarks",
        tol.size_entries(),
        dbl.filter().num_landmarks()
    );

    // ---- DAGGER on a DAG-maintaining stream -------------------------
    let base = reachability::graph::generators::random_dag(n, 500, &mut rng);
    let mut dagger = DynamicGrail::build(&base, 2, 11);
    let mut dag_edges: Vec<(u32, u32)> = base.graph().edges().map(|(a, b)| (a.0, b.0)).collect();
    let t = Instant::now();
    let mut dagger_audits = 0;
    for step in 0..500 {
        if rng.random_bool(0.5) || dag_edges.is_empty() {
            // forward edges keep the graph acyclic
            let u = rng.random_range(0..n as u32 - 1);
            let v = rng.random_range(u + 1..n as u32);
            dagger.insert_edge(VertexId(u), VertexId(v));
            if !dag_edges.contains(&(u, v)) {
                dag_edges.push((u, v));
            }
        } else {
            let i = rng.random_range(0..dag_edges.len());
            let (u, v) = dag_edges.swap_remove(i);
            dagger.delete_edge(VertexId(u), VertexId(v));
        }
        if step % 100 == 99 {
            // periodic re-tightening after deletion drift
            assert!(dagger.rebuild(), "stream maintained acyclicity");
        }
        let g = DiGraph::from_edges(n, &dag_edges);
        let s = VertexId(rng.random_range(0..n as u32));
        let q = VertexId(rng.random_range(0..n as u32));
        assert_eq!(dagger.query(s, q), bfs_reaches(&g, s, q, &mut vm));
        dagger_audits += 1;
    }
    println!(
        "DAGGER stream: 500 updates with periodic rebuilds, {dagger_audits} audits, all correct ({:?})",
        t.elapsed()
    );

    // ---- DLCR on a labeled stream ------------------------------------
    let lg = random_labeled_digraph(80, 200, 3, LabelDistribution::Uniform, &mut rng);
    let mut dlcr = Dlcr::build(&lg);
    let mut ledges: Vec<(u32, u8, u32)> = lg.edges().map(|(u, l, v)| (u.0, l.0, v.0)).collect();
    let t = Instant::now();
    let mut dlcr_audits = 0;
    for _ in 0..300 {
        if rng.random_bool(0.5) || ledges.is_empty() {
            let u = rng.random_range(0..80u32);
            let mut v = rng.random_range(0..79u32);
            if v >= u {
                v += 1;
            }
            let l = rng.random_range(0..3u8);
            dlcr.insert_edge(VertexId(u), Label(l), VertexId(v));
            if !ledges.contains(&(u, l, v)) {
                ledges.push((u, l, v));
            }
        } else {
            let i = rng.random_range(0..ledges.len());
            let (u, l, v) = ledges.swap_remove(i);
            dlcr.delete_edge(VertexId(u), Label(l), VertexId(v));
        }
        let g = LabeledGraph::from_edges(80, 3, &ledges);
        let s = VertexId(rng.random_range(0..80u32));
        let q = VertexId(rng.random_range(0..80u32));
        let allowed = LabelSet(rng.random_range(1..8u64));
        assert_eq!(dlcr.query(s, q, allowed), lcr_bfs(&g, s, q, allowed));
        dlcr_audits += 1;
    }
    println!(
        "DLCR stream: 300 labeled updates, {dlcr_audits} audits, all correct ({:?})",
        t.elapsed()
    );
    println!("\nAll dynamic indexes stayed exact under their update streams.");
}
