//! The differential property suite of the verification subsystem:
//!
//! * every plain registry index agrees with the materialized
//!   transitive-closure baseline on every pair of random *cyclic*
//!   graphs (all-pairs, not sampled — the graphs are small enough);
//! * every LCR registry index agrees with the automaton-guided BFS
//!   (`online::rpq_bfs`) when driven through an alternation NFA
//!   compiled from the allowed label set, including the degenerate
//!   empty mask (where only `s == t` holds);
//! * the audit subsystem itself (`audit_plain` / `audit_lcr`) reports
//!   every registry index clean on fresh random graphs, seeds varied.
//!
//! Each test draws its cases from a seeded `SmallRng`, so failures are
//! reproducible from the printed case seed.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use reach_core::audit::{audit_plain, AuditConfig};
use reach_labeled::{audit_lcr, Nfa};
use reachability::graph::generators::{random_digraph, random_labeled_digraph, LabelDistribution};
use reachability::graph::PreparedGraph;
use reachability::labeled::LCR_REGISTRY;
use reachability::plain::pipeline::{BuildOpts, PLAIN_REGISTRY};
use reachability::prelude::*;
use std::sync::Arc;

#[test]
fn every_plain_index_matches_transitive_closure_on_cyclic_graphs() {
    for seed in [101u64, 202, 303] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = Arc::new(random_digraph(70, 210, &mut rng));
        let prepared = PreparedGraph::new_shared(Arc::clone(&g));
        let tc = TransitiveClosure::build(&g);
        for name in PLAIN_REGISTRY.names() {
            if !PLAIN_REGISTRY.feasible(name, g.num_vertices(), g.num_edges()) {
                continue;
            }
            let (idx, _) = PLAIN_REGISTRY
                .build(name, &prepared, &BuildOpts::default())
                .unwrap();
            for s in g.vertices() {
                for t in g.vertices() {
                    assert_eq!(
                        idx.query(s, t),
                        tc.reaches(s, t),
                        "{name} (seed {seed}): mismatch at {s:?}->{t:?}"
                    );
                }
            }
        }
    }
}

/// Compiles `(l1 | l2 | …)*` over the labels of `mask` and checks the
/// index against the NFA-guided traversal — a second, independent
/// ground truth beside `lcr_bfs` (which the audit already uses).
fn alternation_expr(mask: LabelSet) -> Option<String> {
    let labels: Vec<String> = mask.iter().map(|l| l.0.to_string()).collect();
    if labels.is_empty() {
        return None;
    }
    Some(format!("({})*", labels.join("|")))
}

#[test]
fn every_lcr_index_matches_the_automaton_guided_bfs() {
    use reachability::labeled::online::rpq_bfs;
    for seed in [404u64, 505] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = Arc::new(random_labeled_digraph(
            40,
            130,
            3,
            LabelDistribution::Zipf,
            &mut rng,
        ));
        let k = g.num_labels();
        let masks: Vec<LabelSet> = (0..1u64 << k).map(LabelSet).collect();
        for name in LCR_REGISTRY.names() {
            if !LCR_REGISTRY.feasible(name, g.num_vertices(), g.num_edges()) {
                continue;
            }
            let idx = LCR_REGISTRY
                .build(name, &g, &BuildOpts::default())
                .unwrap()
                .0;
            for &mask in &masks {
                match alternation_expr(mask) {
                    Some(expr) => {
                        let ast = reachability::labeled::parse(&expr, &[]).expect("valid expr");
                        let nfa = Nfa::compile(&ast);
                        for s in g.vertices() {
                            for t in g.vertices() {
                                assert_eq!(
                                    idx.query(s, t, mask),
                                    rpq_bfs(&g, s, t, &nfa),
                                    "{name} (seed {seed}): mismatch at {s:?}->{t:?} under {expr}"
                                );
                            }
                        }
                    }
                    None => {
                        // empty mask: only the empty path s == t remains
                        for s in g.vertices() {
                            for t in g.vertices() {
                                assert_eq!(
                                    idx.query(s, t, mask),
                                    s == t,
                                    "{name} (seed {seed}): empty-mask mismatch at {s:?}->{t:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn audit_reports_every_plain_index_clean_across_seeds() {
    for seed in [606u64, 707] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_digraph(100, 280, &mut rng);
        let prepared = PreparedGraph::new(g);
        let cfg = AuditConfig {
            pairs: 300,
            seed: seed ^ 0xC0FFEE,
        };
        for name in PLAIN_REGISTRY.names() {
            if !PLAIN_REGISTRY.feasible(name, prepared.num_vertices(), prepared.num_edges()) {
                continue;
            }
            let outcome =
                audit_plain(name, &prepared, &BuildOpts::default(), &cfg).expect("registry name");
            assert!(
                outcome.is_clean(),
                "{name} (seed {seed}) violations: {:#?}",
                outcome.violations
            );
        }
    }
}

#[test]
fn audit_reports_every_lcr_index_clean_across_seeds() {
    for seed in [808u64, 909] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = Arc::new(random_labeled_digraph(
            50,
            160,
            4,
            LabelDistribution::Uniform,
            &mut rng,
        ));
        let cfg = AuditConfig {
            pairs: 200,
            seed: seed ^ 0xBEEF,
        };
        for name in LCR_REGISTRY.names() {
            if !LCR_REGISTRY.feasible(name, g.num_vertices(), g.num_edges()) {
                continue;
            }
            let outcome = audit_lcr(name, &g, &BuildOpts::default(), &cfg).expect("registry name");
            assert!(
                outcome.is_clean(),
                "{name} (seed {seed}) violations: {:#?}",
                outcome.violations
            );
        }
    }
}
