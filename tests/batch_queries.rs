//! Randomized property tests for the batch-query path:
//!
//! * the multi-source bit-parallel BFS (`traverse::batch_reaches`)
//!   agrees with one BFS per pair on arbitrary DAGs and digraphs;
//! * `ReachIndex::query_batch` — both the default per-pair loop and
//!   every override (online baselines, guided search) — agrees with
//!   `query` for every registry-built index;
//! * `QueryEngine` output is byte-identical across thread counts, so
//!   sharding (including its locality-aware source sort) is invisible.
//!
//! Each test draws its cases from a seeded `SmallRng`, so failures are
//! reproducible from the printed case seed.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reachability::graph::traverse;
use reachability::graph::PreparedGraph;
use reachability::plain::pipeline::{BuildOpts, PLAIN_REGISTRY};
use reachability::plain::QueryEngine;
use reachability::prelude::*;

const CASES: u64 = 48;

/// An arbitrary DAG as (n, forward edges).
fn random_dag(rng: &mut SmallRng) -> (usize, Vec<(u32, u32)>) {
    let n = rng.random_range(4usize..24);
    let m = rng.random_range(0usize..60);
    let edges = (0..m)
        .map(|_| {
            let u = rng.random_range(0..n as u32 - 1);
            let d = rng.random_range(0..n as u32);
            let v = u + 1 + d % (n as u32 - 1 - u).max(1);
            (u, v.min(n as u32 - 1).max(u + 1))
        })
        .collect();
    (n, edges)
}

/// An arbitrary digraph (cycles allowed), no self-loops.
fn random_digraph(rng: &mut SmallRng) -> (usize, Vec<(u32, u32)>) {
    let n = rng.random_range(4usize..20);
    let m = rng.random_range(0usize..50);
    let edges = (0..m)
        .map(|_| {
            let u = rng.random_range(0..n as u32);
            let v = rng.random_range(0..n as u32 - 1);
            let v = if v >= u { v + 1 } else { v };
            (u, v)
        })
        .collect();
    (n, edges)
}

/// A pair list with repeated sources, so the multi-source BFS serves
/// several targets from one source lane.
fn random_pairs(n: usize, rng: &mut SmallRng) -> Vec<(VertexId, VertexId)> {
    let q = rng.random_range(0usize..80);
    (0..q)
        .map(|_| {
            let s = VertexId(rng.random_range(0..n as u32) / 2);
            let t = VertexId(rng.random_range(0..n as u32));
            (s, t)
        })
        .collect()
}

#[test]
fn multi_source_bfs_matches_per_pair_bfs_on_dags() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xB175_0000 + case);
        let (n, edges) = random_dag(&mut rng);
        let g = DiGraph::from_edges(n, &edges);
        let pairs = random_pairs(n, &mut rng);
        let got = traverse::batch_reaches(&g, &pairs);
        let mut visit = reachability::graph::VisitMap::new(n);
        for (i, &(s, t)) in pairs.iter().enumerate() {
            assert_eq!(
                got[i],
                traverse::bfs_reaches(&g, s, t, &mut visit),
                "case {case}: {s:?}->{t:?}"
            );
        }
    }
}

#[test]
fn multi_source_bfs_matches_per_pair_bfs_on_digraphs() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xB176_0000 + case);
        let (n, edges) = random_digraph(&mut rng);
        let g = DiGraph::from_edges(n, &edges);
        // all-pairs, so cycles and unreachable pairs are both covered
        let pairs: Vec<(VertexId, VertexId)> = g
            .vertices()
            .flat_map(|s| g.vertices().map(move |t| (s, t)))
            .collect();
        let got = traverse::batch_reaches(&g, &pairs);
        let tc = TransitiveClosure::build(&g);
        for (i, &(s, t)) in pairs.iter().enumerate() {
            assert_eq!(got[i], tc.reaches(s, t), "case {case}: {s:?}->{t:?}");
        }
    }
}

#[test]
fn ms_bfs_masks_equal_forward_closures() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xB177_0000 + case);
        let (n, edges) = random_digraph(&mut rng);
        let g = DiGraph::from_edges(n, &edges);
        let k = rng.random_range(1usize..=n.min(70));
        let sources: Vec<VertexId> = (0..k)
            .map(|_| VertexId(rng.random_range(0..n as u32)))
            .collect();
        let masks = traverse::ms_bfs_masks(&g, &sources);
        for (si, &s) in sources.iter().enumerate() {
            let closure = traverse::forward_closure(&g, s);
            for v in g.vertices() {
                let bit = masks[v.index()] >> si & 1 == 1;
                assert_eq!(
                    bit,
                    closure.contains(&v),
                    "case {case}: source {s:?} (lane {si}) at {v:?}"
                );
            }
        }
    }
}

#[test]
fn query_batch_matches_per_pair_query_for_every_registry_index() {
    for case in 0..12 {
        let mut rng = SmallRng::seed_from_u64(0xBA7C_0000 + case);
        let (n, edges) = random_digraph(&mut rng);
        let prepared = PreparedGraph::new(DiGraph::from_edges(n, &edges));
        let g = prepared.graph();
        let pairs = random_pairs(n, &mut rng);
        for name in PLAIN_REGISTRY.names() {
            if !PLAIN_REGISTRY.feasible(name, g.num_vertices(), g.num_edges()) {
                continue;
            }
            let (idx, _) = PLAIN_REGISTRY
                .build(name, &prepared, &BuildOpts::default())
                .unwrap();
            let batch = idx.query_batch(&pairs);
            for (i, &(s, t)) in pairs.iter().enumerate() {
                assert_eq!(
                    batch[i],
                    idx.query(s, t),
                    "case {case}: {name} at {s:?}->{t:?}"
                );
            }
        }
    }
}

#[test]
fn query_engine_is_identical_for_one_and_eight_threads() {
    for case in 0..12 {
        let mut rng = SmallRng::seed_from_u64(0xE291_0000 + case);
        let (n, edges) = random_digraph(&mut rng);
        let prepared = PreparedGraph::new(DiGraph::from_edges(n, &edges));
        let g = prepared.graph();
        let pairs = random_pairs(n, &mut rng);
        for name in ["online-BFS", "online-BiBFS", "GRAIL", "BFL", "PLL"] {
            if !PLAIN_REGISTRY.feasible(name, g.num_vertices(), g.num_edges()) {
                continue;
            }
            let (idx, _) = PLAIN_REGISTRY
                .build(name, &prepared, &BuildOpts::default())
                .unwrap();
            let one = QueryEngine::new(1).run(idx.as_ref(), &pairs);
            let eight = QueryEngine::new(8).run(idx.as_ref(), &pairs);
            assert_eq!(
                one, eight,
                "case {case}: {name} diverged across thread counts"
            );
            for (i, &(s, t)) in pairs.iter().enumerate() {
                assert_eq!(
                    one[i],
                    idx.query(s, t),
                    "case {case}: {name} at {s:?}->{t:?}"
                );
            }
        }
    }
}
