//! Randomized property tests for the core invariants:
//!
//! * partial-index filters keep their advertised guarantees on
//!   arbitrary DAGs (no false negatives / no false positives);
//! * every complete index equals the transitive closure;
//! * SPLS antichain algebra laws;
//! * dynamic indexes match rebuilds under arbitrary edit scripts.
//!
//! Each test draws its cases from a seeded `SmallRng`, so failures are
//! reproducible from the printed case seed.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reachability::labeled::online::lcr_bfs;
use reachability::labeled::SplsSet;
use reachability::plain::{bfl, feline, ferrari, grail, ip, oreach, preach};
use reachability::prelude::*;

const CASES: u64 = 64;

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

/// An arbitrary labeled digraph, no self-loops.
fn random_labeled(rng: &mut SmallRng) -> (usize, Vec<(u32, u8, u32)>) {
    let n = rng.random_range(4usize..16);
    let m = rng.random_range(0usize..40);
    let edges = (0..m)
        .map(|_| {
            let u = rng.random_range(0..n as u32);
            let l = rng.random_range(0..3u8);
            let v = rng.random_range(0..n as u32 - 1);
            let v = if v >= u { v + 1 } else { v };
            (u, l, v)
        })
        .collect();
    (n, edges)
}

#[test]
fn no_false_negative_filters_never_reject_reachable_pairs() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x517A_0000 + case);
        let (n, edges) = random_dag(&mut rng);
        let seed = rng.random_range(0u64..1000);
        let g = DiGraph::from_edges(n, &edges);
        let dag = Dag::new(g).expect("forward edges are acyclic");
        let tc = TransitiveClosure::build_dag(&dag);
        let filters: Vec<(&str, Box<dyn ReachFilter>)> = vec![
            (
                "GRAIL",
                Box::new(grail::GrailFilter::build(&dag, 2, seed, 1)),
            ),
            ("Ferrari", Box::new(ferrari::FerrariFilter::build(&dag, 2))),
            ("IP", Box::new(ip::IpFilter::build(&dag, 3, seed))),
            ("BFL", Box::new(bfl::BflFilter::build(&dag, 64, seed))),
            ("Feline", Box::new(feline::FelineFilter::build(&dag))),
            ("O'Reach", Box::new(oreach::OReachFilter::build(&dag, 4))),
            ("PReaCH", Box::new(preach::PreachFilter::build(&dag))),
        ];
        for (name, filter) in &filters {
            for s in dag.vertices() {
                for t in dag.vertices() {
                    match filter.certain(s, t) {
                        Certainty::Unreachable => assert!(
                            !tc.reaches(s, t),
                            "case {case}: {name}: false negative {s:?}->{t:?}"
                        ),
                        Certainty::Reachable => assert!(
                            tc.reaches(s, t),
                            "case {case}: {name}: false positive {s:?}->{t:?}"
                        ),
                        Certainty::Unknown => {}
                    }
                }
            }
        }
    }
}

#[test]
fn complete_indexes_equal_the_transitive_closure() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xC0B7_0000 + case);
        let (n, edges) = random_digraph(&mut rng);
        let g = DiGraph::from_edges(n, &edges);
        let tc = TransitiveClosure::build(&g);
        let pll = reachability::plain::pll::Pll::build(&g);
        let dl = reachability::plain::tol::build_dl(&g, 1);
        let gripp = reachability::plain::gripp::Gripp::build(&g);
        let cond_tree = Condensed::from_prepared(
            &reachability::graph::PreparedGraph::new(g.clone()),
            reachability::plain::tree_cover::TreeCover::build,
        );
        for s in g.vertices() {
            for t in g.vertices() {
                let expect = tc.reaches(s, t);
                assert_eq!(pll.query(s, t), expect, "case {case}: PLL at {s}->{t}");
                assert_eq!(dl.query(s, t), expect, "case {case}: DL at {s}->{t}");
                assert_eq!(gripp.query(s, t), expect, "case {case}: GRIPP at {s}->{t}");
                assert_eq!(
                    cond_tree.query(s, t),
                    expect,
                    "case {case}: Tree cover at {s}->{t}"
                );
            }
        }
    }
}

#[test]
fn lcr_indexes_match_constrained_bfs() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x1C20_0000 + case);
        let (n, edges) = random_labeled(&mut rng);
        let mask = rng.random_range(0u64..8);
        let g = LabeledGraph::from_edges(n, 3, &edges);
        let allowed = LabelSet(mask);
        let p2h = reachability::labeled::p2h::P2hPlus::build(&g);
        let chen = reachability::labeled::chen::ChenIndex::build(&g);
        for s in g.vertices() {
            for t in g.vertices() {
                let expect = lcr_bfs(&g, s, t, allowed);
                assert_eq!(
                    p2h.query(s, t, allowed),
                    expect,
                    "case {case}: P2H+ at {s}->{t}"
                );
                assert_eq!(
                    chen.query(s, t, allowed),
                    expect,
                    "case {case}: Chen at {s}->{t}"
                );
            }
        }
    }
}

#[test]
fn spls_insert_keeps_minimal_antichain() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5915_0000 + case);
        let sets: Vec<u64> = (0..rng.random_range(0usize..12))
            .map(|_| rng.random_range(0u64..256))
            .collect();
        let mut family = SplsSet::new();
        for &bits in &sets {
            family.insert(LabelSet(bits));
        }
        // every member minimal, no duplicates
        let members = family.sets();
        for (i, &a) in members.iter().enumerate() {
            for (j, &b) in members.iter().enumerate() {
                if i != j {
                    assert!(!a.is_subset_of(b), "case {case}: {a:?} ⊆ {b:?}");
                }
            }
        }
        // the family covers exactly what the raw sets cover
        for &bits in &sets {
            assert!(family.dominates(LabelSet(bits)), "case {case}");
        }
    }
}

#[test]
fn spls_cross_product_is_sound_and_minimal() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5920_0000 + case);
        let left: Vec<u64> = (0..rng.random_range(1usize..5))
            .map(|_| rng.random_range(0u64..64))
            .collect();
        let right: Vec<u64> = (0..rng.random_range(1usize..5))
            .map(|_| rng.random_range(0u64..64))
            .collect();
        let mut a = SplsSet::new();
        for &bits in &left {
            a.insert(LabelSet(bits));
        }
        let mut b = SplsSet::new();
        for &bits in &right {
            b.insert(LabelSet(bits));
        }
        let prod = a.cross_product(&b);
        // every product member is a union of one member from each side
        for &m in prod.sets() {
            assert!(
                a.sets()
                    .iter()
                    .any(|&x| b.sets().iter().any(|&y| x.union(y) == m)),
                "case {case}: stray member {m:?}"
            );
        }
        // every pairwise union is dominated by the product
        for &x in a.sets() {
            for &y in b.sets() {
                assert!(
                    prod.dominates(x.union(y)),
                    "case {case}: missing {x:?} ∪ {y:?}"
                );
            }
        }
    }
}

#[test]
fn tol_updates_match_rebuild() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x701A_0000 + case);
        let (n, edges) = random_digraph(&mut rng);
        let script: Vec<(usize, u32, u32)> = (0..rng.random_range(1usize..12))
            .map(|_| {
                (
                    rng.random_range(0usize..2),
                    rng.random_range(0u32..20),
                    rng.random_range(0u32..20),
                )
            })
            .collect();
        let g = DiGraph::from_edges(n, &edges);
        let mut tol = reachability::plain::tol::Tol::build(
            &g,
            reachability::plain::tol::OrderStrategy::DegreeDescending,
            1,
        );
        let mut current: Vec<(u32, u32)> = g.edges().map(|(a, b)| (a.0, b.0)).collect();
        for (op, x, y) in script {
            let u = x % n as u32;
            let mut v = y % n as u32;
            if v == u {
                v = (v + 1) % n as u32;
            }
            if op == 0 {
                tol.insert_edge(VertexId(u), VertexId(v));
                if !current.contains(&(u, v)) {
                    current.push((u, v));
                }
            } else {
                tol.delete_edge(VertexId(u), VertexId(v));
                current.retain(|&e| e != (u, v));
            }
        }
        let now = DiGraph::from_edges(n, &current);
        let tc = TransitiveClosure::build(&now);
        for s in now.vertices() {
            for t in now.vertices() {
                assert_eq!(
                    tol.query(s, t),
                    tc.reaches(s, t),
                    "case {case}: at {s}->{t}"
                );
            }
        }
    }
}
